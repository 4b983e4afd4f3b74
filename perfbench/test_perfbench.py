"""Self-checks of the benchmark: python3 -m pytest perfbench -q (from the repository root).

The traced-run check runs every workload once in trace mode (about a minute).
It fails loudly when a rename or refactor leaves a traced function with no
calls, or when tracing changes a workload's outputs.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import bench_trace
import bench_workloads
import run

sys.path.insert(0, run.SRC)

import segbench  # noqa: E402
from segbench import cli, losses, model  # noqa: E402


def _bindings(fn):
    return [(name, attr) for name, m in sys.modules.items()
            if name == "segbench" or name.startswith("segbench.")
            for attr, value in vars(m).items() if value is fn]


def test_tracer_patches_every_binding_and_restores_them():
    fd = losses.finite_difference_grad
    assert ("segbench.cli", "finite_difference_grad") in _bindings(fd)
    tracer = bench_trace.Tracer()
    with tracer:
        assert cli.finite_difference_grad is not fd
        assert losses.finite_difference_grad is cli.finite_difference_grad
        assert segbench.finite_difference_grad is cli.finite_difference_grad
        cli.run_gradcheck(trials=1, tolerance=1e-6, net_tolerance=1e-4, seed=0, losses=("dice",),
                          report=lambda line: None)
    assert cli.finite_difference_grad is fd and losses.finite_difference_grad is fd
    assert model.forward.__module__ == "segbench.model" and not hasattr(model.forward, "__wrapped__")
    times = tracer.self_times()
    assert times["cli.run_gradcheck"][0] == 1
    assert times["losses.finite_difference_grad"][0] == 2  # plain and wrapped dice
    assert times["adaptive.adaptive_log_wrap"][0] > 0 and tracer.wrap_calls == times["adaptive.adaptive_log_wrap"][0]


def test_a_renamed_function_fails_loudly_and_patches_nothing(monkeypatch):
    monkeypatch.delattr(model, "adam_step")
    forward = model.forward
    with pytest.raises(LookupError, match="model.adam_step"):
        bench_trace.Tracer().install()
    assert model.forward is forward


def test_self_time_subtracts_direct_children_only():
    tracer = bench_trace.Tracer()
    tracer.spans = [
        ["cli.run_grid", -1, 0.0, 10.0],
        ["model.train", 0, 1.0, 7.0],
        ["model.forward", 1, 2.0, 5.0],
        ["model.forward", 0, 8.0, 9.0],
    ]
    times = tracer.self_times()
    assert times["cli.run_grid"] == (1, 3.0)
    assert times["model.train"] == (1, 3.0)
    assert times["model.forward"] == (2, 4.0)
    assert times["metrics.roc_auc"] == (0, 0.0)


def test_reference_comparison():
    ref = {"a": 0.5, "b": 0.25}
    assert run.compare_reference(dict(ref), ref) == (1.0, 0.0)
    share, dev = run.compare_reference({"a": 0.5, "b": 0.26}, ref)
    assert share == 0.5 and dev == pytest.approx(0.01)
    assert run.compare_reference({"a": 0.5}, ref)[0] == 0.5
    assert run.compare_reference({"a": 0.5, "b": 0.25, "c": 1.0}, ref)[1] == float("inf")
    # gradcheck prints errors as %.3e; a changed last digit of a 1e-8 error is a mismatch
    share, dev = run.compare_reference({"dice": 3.546e-08, "net": 9.552e-09}, {"dice": 3.545e-08, "net": 9.552e-09})
    assert share == 0.5 and dev == pytest.approx(1e-11)


def _ok_frac_bound():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}["ok_frac"]


class _ManyOps:
    def rep(self, seed, work_dir, around):
        return bench_workloads.Rep(0.1, 2400, 0, {"x": 1.0}, 0.5, b"")


def _clean_run():
    r = run.Run(_ManyOps(), 1, None)
    for _ in range(10):
        r.rep(1)
    for what in ("outputs are finite", "repetitions are byte-identical", "metrics are finite"):
        r.check(what, True)
    return r


def test_one_failure_among_many_operations_is_a_regression():
    clean = _clean_run()
    clean.check_ops()
    assert clean.ok_frac == 1.0 and clean.failed == 0
    failed_check = _clean_run()
    failed_check.check("roc_auc agrees with pair_count_auc", False)
    failed_check.check_ops()
    assert failed_check.attempted > 24000 and failed_check.failed == 1
    failed_op = _clean_run()
    failed_op.ops_failed += 1  # e.g. one diverged training run
    failed_op.check_ops()
    for r in (failed_check, failed_op):
        assert r.ok_frac < clean.ok_frac * (1 - _ok_frac_bound())


def test_benchmark_json_lists_the_metrics_run_py_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(bench_workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gradcheck", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _traced(workload):
    proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
                           "--seed", "0", "--seconds", "1", "--trace", "1"],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout  # includes: traced outputs equal untraced outputs
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_every_traced_function_is_called_and_the_dominant_layer_is_as_predicted():
    traced = {w: _traced(w) for w in ("imbalance-train", "grid-sweep", "gradcheck", "eval-large")}
    for name in bench_trace.SPAN_NAMES:
        assert any(m[f"{name}.calls"] >= 1 for m in traced.values()), f"{name} recorded no calls"

    def ranked(m):
        return sorted(bench_trace.TRACED, key=lambda mod: m[f"{mod}.self_s"], reverse=True)

    assert ranked(traced["imbalance-train"])[0] == "model"
    assert ranked(traced["grid-sweep"])[0] == "model"
    assert ranked(traced["gradcheck"])[0] == "losses"
    assert set(ranked(traced["eval-large"])[:2]) == {"metrics", "model"}
    assert traced["imbalance-train"]["adaptive.log_branch_frac"] > 0
