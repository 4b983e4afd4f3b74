import ast
import csv
import dataclasses
import importlib
import inspect
import math
import multiprocessing
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import segbench
from segbench import cli, losses, metrics, model
from segbench.adaptive import AdaptiveLogParams, wrap_loss_fn
from segbench.cli import (
    CURVE_MAX_POINTS,
    EXIT_CHECK,
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    _derive_seed,
    build_parser,
    main,
    parse_loss_token,
    run_gradcheck,
    run_grid,
)
from segbench.losses import LOSS_NAMES, finite_difference_grad, make_loss
from test_adaptive import _rebind

# tiny-but-valid dataset/training flags shared by the heavier subcommands
FAST = [
    "--width", "16", "--height", "16", "--n-images", "12", "--fg-fraction", "0.2",
    "--noise-sigma", "0.05", "--epochs", "2", "--batch-size", "8", "--lr", "0.01",
]
# at FAST's shape this step size sends the network output to nan in some runs and not in others:
# train/roc at --seed 0 and grid/compare run 1 diverge, grid/compare run 0 does not
DIVERGING_LR = ["--lr", "1e300"]


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


class TestCurve:
    def test_endpoints_and_threshold_row(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert main(["curve", "--out", str(out), "--n-points", "51"]) == EXIT_OK
        rows = read_rows(out)
        assert rows[0]["x"] == "0"
        assert float(rows[0]["loss"]) == 0.0
        assert float(rows[0]["derivative"]) == pytest.approx(20.0)
        assert any(float(r["x"]) == 0.1 for r in rows)
        captured = capsys.readouterr().out
        assert "15.6667" in captured  # derivative jump reported

    def test_linear_branch_value(self, tmp_path):
        out = tmp_path / "curve.csv"
        main(["curve", "--out", str(out), "--n-points", "11"])
        row = next(r for r in read_rows(out) if r["x"] == "0.3")
        assert float(row["loss"]) == pytest.approx(0.3 - (0.1 - 10 * math.log(1.2)), rel=1e-5)

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["curve", "--out", str(a)])
        main(["curve", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_missing_out(self):
        assert main(["curve"]) == EXIT_USAGE


class TestGendata:
    def test_files_and_manifest(self, tmp_path):
        d = tmp_path / "ds"
        rc = main(["gendata", "--out-dir", str(d), "--n-images", "4", "--width", "16", "--height", "16"])
        assert rc == EXIT_OK
        pgms = sorted(p.name for p in d.glob("*.pgm"))
        assert len(pgms) == 8
        assert len(read_rows(d / "manifest.csv")) == 4

    def test_smaller_dataset_replaces_a_larger_one(self, tmp_path):
        d = tmp_path / "ds"
        args = ["gendata", "--out-dir", str(d), "--width", "16", "--height", "16"]
        assert main([*args, "--n-images", "6"]) == EXIT_OK
        others = ["image_4.pgm", "image_00004.pgm", "image_0004.pgm.bak", "mask_0005.PGM", "notes.txt"]
        for name in others:  # not names gendata writes: they stay
            (d / name).write_bytes(b"x")
        (d / "mask_0009.pgm").mkdir()  # a directory, not a pair file
        assert main([*args, "--n-images", "4"]) == EXIT_OK
        pairs = sorted(f"{kind}_{i:04d}.pgm" for kind in ("image", "mask") for i in range(4))
        assert sorted(p.name for p in d.iterdir()) == sorted([*pairs, "manifest.csv", "mask_0009.pgm", *others])
        assert [r["image_path"] for r in read_rows(d / "manifest.csv")] == pairs[:4]

    def test_byte_identical_rerun(self, tmp_path):
        d = tmp_path / "ds"
        args = ["gendata", "--out-dir", str(d), "--n-images", "3", "--width", "16", "--height", "16"]
        main(args)
        before = {p.name: p.read_bytes() for p in d.iterdir()}
        main(args)
        after = {p.name: p.read_bytes() for p in d.iterdir()}
        assert before == after

    def test_manifest_fraction_matches_mask_recount(self, tmp_path):
        from segbench.synthdata import read_pgm

        d = tmp_path / "ds"
        main(["gendata", "--out-dir", str(d), "--n-images", "3", "--width", "24", "--height", "24"])
        for row in read_rows(d / "manifest.csv"):
            mask = read_pgm(d / row["mask_path"]) >= 128
            assert float(row["fg_fraction"]) == pytest.approx(mask.mean(), abs=1e-6)

    def test_unreachable_fraction_is_data_error(self, tmp_path):
        rc = main(["gendata", "--out-dir", str(tmp_path / "ds"), "--n-images", "1",
                   "--width", "16", "--height", "16", "--fg-fraction", "0.002"])
        assert rc == EXIT_DATA

    @pytest.mark.parametrize("error, message", [
        (MemoryError("Unable to allocate 7.28 TiB for an array"), "Unable to allocate 7.28 TiB for an array"),
        (MemoryError(), "out of memory"),
    ], ids=["numpy", "bare"])
    def test_input_too_large_for_memory_is_data_error(self, tmp_path, capsys, monkeypatch, error, message):
        def out_of_memory(spec):  # stands in for the allocation: nothing this large is allocated for real
            raise error

        monkeypatch.setattr(segbench.synthdata, "generate", out_of_memory)
        rc = main(["gendata", "--out-dir", str(tmp_path / "ds"), "--width", "1000000", "--height", "1000000"])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"data error: {message}\n"


class TestBadLossIsUsageError:
    @pytest.mark.parametrize("command", ["train", "roc", "grid", "compare"])
    @pytest.mark.parametrize("loss_flags", [
        ["hinge"],
        ["tversky", "--tversky-alpha", "-1"],
        ["tversky", "--smooth", "-1"],
        ["focal", "--focal-alpha", "2"],
    ])
    def test_exit_1(self, tmp_path, capsys, command, loss_flags):
        selector = ["--losses" if command == "compare" else "--loss", *loss_flags]
        assert main([command, *FAST, *selector, "--out", str(tmp_path / "o.csv")]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_compare_accepts_bce(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert main(["compare", *FAST, "--losses", "bce", "--seeds", "1", "--out", str(out)]) == EXIT_OK
        assert [r["loss"] for r in read_rows(out)] == ["bce", "bce"]


class TestTrain:
    def test_writes_record(self, tmp_path):
        out = tmp_path / "run.csv"
        assert main(["train", *FAST, "--out", str(out)]) == EXIT_OK
        rows = read_rows(out)
        assert len(rows) == 2
        assert set(rows[0]) == {"epoch", "train_loss", "val_jaccard", "val_dice",
                               "val_recall", "val_specificity", "val_f1"}

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["train", *FAST, "--out", str(a)])
        main(["train", *FAST, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_wrapped_loss_token(self, tmp_path):
        # the loss tokens of compare's --losses: bare "all" is wrapped Dice, "<base>+all" wraps any base
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["train", *FAST, "--loss", "all", "--out", str(a)]) == EXIT_OK
        assert main(["train", *FAST, "--loss", "dice+all", "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("command", ["train", "roc"])
    @pytest.mark.parametrize("wrap", [[], ["--loss", "all"]])
    def test_diverged_run_is_check_failure(self, tmp_path, capsys, command, wrap):
        with warnings.catch_warnings():  # the isfinite checks report it, not numpy's overflow warnings
            warnings.simplefilter("error", RuntimeWarning)
            assert main([command, *FAST, *DIVERGING_LR, *wrap, "--out", str(tmp_path / "o.csv")]) == EXIT_CHECK
        err = capsys.readouterr().err
        assert "check failed: non-finite network output" in err
        assert "Traceback" not in err

    def test_divergence_in_the_last_step_is_check_failure(self, tmp_path, capsys):
        # one batch in one epoch: only the validation pass sees the diverged weights
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["train", *FAST, *DIVERGING_LR, "--batch-size", "16", "--epochs", "1",
                         "--out", str(tmp_path / "o.csv")]) == EXIT_CHECK
        assert "check failed: non-finite validation output at epoch 0, batch 0" in capsys.readouterr().err


class TestBaseValueOutsideWrapper:
    # wrapped BCE at lr 0.5: its base value leaves [0, 1], where the wrapper is defined, in epoch 0
    FLAGS = ["--width", "16", "--height", "16", "--n-images", "12", "--epochs", "2", "--batch-size", "8",
             "--fg-fraction", "0.2", "--lr", "0.5"]

    def test_compare_records_a_diverged_run_and_keeps_its_group(self, tmp_path):
        group, alone = tmp_path / "group.csv", tmp_path / "alone.csv"
        for losses, out in (("dice,bce+all", group), ("dice", alone)):
            assert main(["compare", *self.FLAGS, "--seeds", "1", "--losses", losses, "--out", str(out)]) == EXIT_OK
        rows = read_rows(group)
        assert [(r["loss"], r["status"]) for r in rows] == [("dice", "ok"), ("dice", "ok"),
                                                            ("bce+all", "diverged"), ("bce+all", "diverged")]
        assert rows[:2] == read_rows(alone)
        assert read_rows(tmp_path / "group_epochs.csv") == read_rows(tmp_path / "alone_epochs.csv")

    def test_a_wrapped_run_fails_alone_in_a_shared_base_call(self, tmp_path):
        # bce and bce+all share one bce call per chunk: the wrapped run leaves with what it raises alone, and the
        # plain run's rows, whose base values go above 1, are those of a bce-only compare
        group, alone = tmp_path / "group.csv", tmp_path / "alone.csv"
        for losses, out in (("bce,bce+all", group), ("bce", alone)):
            assert main(["compare", *self.FLAGS, "--seeds", "2", "--losses", losses, "--out", str(out)]) == EXIT_OK
        rows = read_rows(group)
        assert [(r["loss"], r["status"]) for r in rows] == [("bce", "ok")] * 3 + [("bce+all", "diverged")] * 3
        assert rows[:3] == read_rows(alone)
        assert read_rows(tmp_path / "group_epochs.csv") == read_rows(tmp_path / "alone_epochs.csv")
        o = vars(build_parser().parse_args(["compare", *self.FLAGS]))
        configs = [cli._train_config(o, "bce", wrapped) for wrapped in (False, True)]
        halves = cli._split_dataset(o)
        (solo,) = model.train(configs[1:], *halves)
        plain, wrapped = model.train(configs, *halves)
        assert isinstance(plain, model.RunRecord) and type(wrapped) is type(solo) is model._OutsideWrapper
        assert (wrapped.epoch, wrapped.batch, str(wrapped)) == (solo.epoch, solo.batch, str(solo))

    def test_train_is_check_failure(self, tmp_path, capsys):
        out = str(tmp_path / "o.csv")
        assert main(["train", *self.FLAGS, "--loss", "bce+all", "--out", out]) == EXIT_CHECK
        err = capsys.readouterr().err
        assert err.startswith("check failed: base loss value ") and "outside [0, 1] at epoch 0, batch " in err
        assert "Traceback" not in err


class TestGrid:
    def test_single_cell_rows(self, tmp_path):
        out = tmp_path / "grid.csv"
        rc = main(["grid", *FAST, "--out", str(out),
                   "--gammas", "0.1", "--omegas", "10", "--epsilons", "0.5", "--seeds", "1"])
        assert rc == EXIT_OK
        rows = read_rows(out)
        assert len(rows) == 2
        assert rows[0]["seed"] == "0"
        assert rows[1]["seed"] == "mean"
        assert rows[0]["val_jaccard"] == rows[1]["val_jaccard"]

    def test_cell_means_exact_on_report(self):
        o = {
            "width": 16, "height": 16, "fg_fraction": 0.2, "n_images": 12, "noise_sigma": 0.05,
            "blob_min": 1, "blob_max": 3, "data_seed": 0, "split_ratio": 0.8,
            "lr": 0.01, "batch_size": 8, "epochs": 2, "loss": "dice",
            "smooth": 1e-6, "tversky_alpha": 0.7, "tversky_beta": 0.3, "focal_alpha": 1.0,
            "focal_gamma": 2.0, "mix": 0.5, "ft_gamma": 4 / 3, "gamma": 0.1, "omega": 10.0,
            "epsilon": 0.5, "gammas": "0.1", "omegas": "8,10", "epsilons": "0.5", "seeds": 2,
            "seed": 0, "jobs": 1, "out": "",
        }
        rows = run_grid(o)
        assert len(rows) == 2 * 2 + 2
        for cell in ("8", "10"):
            runs = [r for r in rows if r["omega"] == float(cell) and r["seed"] != "mean"]
            mean = next(r for r in rows if r["omega"] == float(cell) and r["seed"] == "mean")
            assert mean["val_jaccard"] == pytest.approx(np.mean([r["val_jaccard"] for r in runs]), abs=1e-12)

    def test_diverged_run_is_a_row(self, tmp_path):
        out = tmp_path / "grid.csv"
        with warnings.catch_warnings():  # the diverged row is the report, not numpy's overflow warnings
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["grid", *FAST, *DIVERGING_LR, "--out", str(out),
                         "--gammas", "0.1", "--omegas", "10", "--epsilons", "0.5", "--seeds", "2"]) == EXIT_OK
        rows = read_rows(out)
        assert [(r["seed"], r["status"]) for r in rows] == [("0", "ok"), ("1", "diverged"), ("mean", "ok")]
        assert (rows[1]["val_jaccard"], rows[1]["val_dice"], rows[1]["epochs_run"]) == ("nan", "nan", "0")
        assert rows[2]["val_jaccard"] == rows[0]["val_jaccard"]

    def test_mean_row_averages_only_ok_runs(self, monkeypatch):
        real_train = model.train

        def diverges(config):
            # omega 8: run 1 of 3 diverges; omega 12: every run diverges
            omega = config.loss_fn.args[1].omega  # wrap_loss_fn's partial holds (base loss, params)
            return omega == 12 or (omega == 8 and config.seed == _derive_seed(0, 1))

        def train(configs, *sets):
            return [model.TrainingDiverged(0, 0, "loss nan") if diverges(c) else rec
                    for c, rec in zip(configs, real_train(configs, *sets))]

        monkeypatch.setattr(model, "train", train)
        o = dict(vars(build_parser().parse_args(["grid"])), width=16, height=16, fg_fraction=0.2, n_images=12,
                 noise_sigma=0.05, epochs=2, batch_size=8, lr=0.01, omegas="8,10,12", epsilons="0.5", seeds=3)
        rows = run_grid(o)
        cells = {w: [r for r in rows if r["omega"] == w] for w in (8.0, 10.0, 12.0)}
        assert [r["status"] for r in cells[8.0]] == ["ok", "diverged", "ok", "ok"]
        assert [r["status"] for r in cells[10.0]] == ["ok"] * 4
        assert [r["status"] for r in cells[12.0]] == ["diverged"] * 4
        for w in (8.0, 10.0):
            ok = [r for r in cells[w][:3] if r["status"] == "ok"]
            for key in ("val_jaccard", "val_dice", "epochs_run"):
                assert cells[w][3][key] == float(np.mean([r[key] for r in ok]))
        assert math.isnan(cells[8.0][1]["val_jaccard"]) and cells[8.0][1]["epochs_run"] == 0
        assert math.isnan(cells[12.0][3]["val_dice"]) and cells[12.0][3]["epochs_run"] == 0

    def test_branch_inactive_params_identical(self, tmp_path):
        # two gamma values both so large the linear branch never engages at
        # these loss scales differ only through the constant shift, which does
        # not change gradients: identical Jaccard, bitwise
        out = tmp_path / "grid.csv"
        main(["grid", *FAST, "--out", str(out),
              "--gammas", "0.0001,0.0002", "--omegas", "10", "--epsilons", "0.5", "--seeds", "1"])
        rows = [r for r in read_rows(out) if r["seed"] != "mean"]
        assert len(rows) == 2
        assert rows[0]["val_jaccard"] == rows[1]["val_jaccard"]


class TestJobs:
    @pytest.mark.parametrize("args", [
        ["compare", "--losses", "dice,all", "--seeds", "2"],
        ["grid", "--gammas", "0.1", "--omegas", "8,10", "--epsilons", "0.5", "--seeds", "2"],
        ["compare", "--losses", "dice,all", "--seeds", "2", *DIVERGING_LR],
        ["grid", "--gammas", "0.1", "--omegas", "8,10", "--epsilons", "0.5", "--seeds", "2", *DIVERGING_LR],
        # one seed group: two workers split it
        ["compare", "--losses", "dice,all,focal", "--seeds", "1"],
        # dice and all share a row until its second step, where a base value falls below gamma 0.68; two workers
        # split the group, so nothing is shared there
        ["compare", "--losses", "dice,all", "--seeds", "1", "--gamma", "0.68"],
        # the cells' one loss goes to both workers; the cells at gamma 0.1 share a row, and those at 0.68 split off
        ["grid", "--gammas", "0.1,0.68", "--omegas", "8,10", "--epsilons", "0.5", "--seeds", "1"],
    ])
    def test_jobs_do_not_change_results(self, tmp_path, args):
        outputs = []
        for jobs in ("1", "2"):
            d = tmp_path / jobs
            d.mkdir()
            assert main([args[0], *FAST, *args[1:], "--jobs", jobs, "--out", str(d / "out.csv")]) == EXIT_OK
            outputs.append({p.name: p.read_bytes() for p in sorted(d.iterdir())})
        assert outputs[0] == outputs[1]

    # three seeds on one, two or three workers: one worker trains them all on one stack, two deal them out 2 + 1.
    # At lr 1e300 some runs diverge and others do not; BCE's cells print zero-denominator warnings
    @pytest.mark.parametrize("args", [
        ["grid", "--gammas", "0.1", "--omegas", "8,10", "--epsilons", "0.5", "--seeds", "3", *DIVERGING_LR],
        ["grid", "--loss", "bce", "--gammas", "0.1", "--omegas", "8,10", "--epsilons", "0.5", "--seeds", "3"],
    ], ids=["diverging", "warnings"])
    def test_three_seeds_on_one_two_or_three_workers(self, tmp_path, args):
        src = os.path.dirname(os.path.dirname(os.path.abspath(segbench.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        outputs, stderr = [], []
        for jobs in ("1", "2", "3"):
            d = tmp_path / jobs
            d.mkdir()
            done = subprocess.run([sys.executable, "-m", "segbench", args[0], *FAST, *args[1:], "--jobs", jobs,
                                   "--out", str(d / "out.csv")], env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == EXIT_OK, done.stderr
            outputs.append({p.name: p.read_bytes() for p in sorted(d.iterdir())})
            stderr.append(sorted(done.stderr.splitlines()))  # each task prints its runs' lines in its own order
        assert outputs[0] == outputs[1] == outputs[2]
        assert stderr[0] == stderr[1] == stderr[2]
        if "bce" in args:
            assert stderr[0]  # lines to compare, not only their absence
        else:
            assert {r["status"] for r in read_rows(tmp_path / "1" / "out.csv")} == {"ok", "diverged"}


@pytest.fixture
def inline_pool(monkeypatch):
    """Stands in for the process pool, mapping in this process; returns each pool's ``max_workers``."""
    built = []

    class InlinePool:
        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    return built


# four runs each: two variants x two seeds
MATRICES = {
    "grid": ["grid", "--gammas", "0.1", "--omegas", "8,10", "--epsilons", "0.5", "--seeds", "2"],
    "compare": ["compare", "--losses", "dice,all", "--seeds", "2"],
}


class TestRunMatrix:
    @pytest.mark.parametrize("args,workers", [
        (["grid", "--omegas", "8,10", "--epsilons", "0.5", "--seeds", "1", "--jobs", "64"], [2]),
        (["grid", "--omegas", "8", "--epsilons", "0.5", "--seeds", "1", "--jobs", "8"], []),
        (["compare", "--losses", "dice,all", "--seeds", "2", "--jobs", "3"], [3]),
    ])
    def test_no_more_workers_than_runs(self, tmp_path, inline_pool, args, workers):
        assert main([args[0], *FAST, *args[1:], "--out", str(tmp_path / "out.csv")]) == EXIT_OK
        assert inline_pool == workers

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("command", MATRICES)
    def test_one_generation_per_invocation(self, tmp_path, monkeypatch, inline_pool, command, jobs):
        specs = []
        real_generate = segbench.synthdata.generate
        monkeypatch.setattr(segbench.synthdata, "generate", lambda spec: specs.append(spec) or real_generate(spec))
        args = MATRICES[command]
        assert main([args[0], *FAST, *args[1:], "--jobs", jobs, "--out", str(tmp_path / "out.csv")]) == EXIT_OK
        assert len(specs) == 1
        assert inline_pool == ([2] if jobs == "2" else [])

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("command", MATRICES)
    def test_runs_receive_read_only_samples(self, tmp_path, monkeypatch, inline_pool, command, jobs):
        seen = []
        real_train = model.train
        monkeypatch.setattr(model, "train",
                            lambda configs, *sets: seen.append((len(configs), sets)) or real_train(configs, *sets))
        args = MATRICES[command]
        assert main([args[0], *FAST, *args[1:], "--jobs", jobs, "--out", str(tmp_path / "out.csv")]) == EXIT_OK
        # two seeds of two variants: all four in one call, or each seed's two in a worker of its own
        assert [n for n, _ in seen] == ([4] if jobs == "1" else [2, 2])
        arrays = [a for _, sets in seen for half in sets for s in half for a in (s.image, s.mask)]
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            seen[0][1][0][0].image[0, 0] = 0.5

    def test_one_train_call_stacks_every_seed(self, tmp_path, monkeypatch):
        # grid-sweep's shape: 18 runs of 3 seeds in one call, whose 6 cells of a seed share one row at every step
        calls, rows, real_train, real_step = [], [], model.train, model._step
        monkeypatch.setattr(model, "train",
                            lambda configs, *sets: calls.append(len(configs)) or real_train(configs, *sets))
        monkeypatch.setattr(model, "_step", lambda net, *args: rows.append(net.runs) or real_step(net, *args))
        assert main(["grid", "--width", "16", "--height", "16", "--n-images", "16", "--fg-fraction", "0.2",
                     "--noise-sigma", "0.05", "--epochs", "3", "--batch-size", "8", "--lr", "0.01", "--gammas", "0.1",
                     "--omegas", "6,10,14", "--epsilons", "0.3,1.0", "--seeds", "3", "--jobs", "1",
                     "--out", str(tmp_path / "out.csv")]) == EXIT_OK
        assert calls == [18]
        assert rows == [3] * 6  # 3 epochs of 2 batches

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="workers must inherit the patched train")
    def test_pool_workers_receive_read_only_samples(self, tmp_path, monkeypatch):
        # each worker unpickles its own copy of the data, writable unless marked again
        log = tmp_path / "writeable.txt"
        real_train = model.train

        def train(configs, *sets):
            with open(log, "a") as f:
                f.write(f"{len(configs)}:" + "".join("1" if a.flags.writeable else "0"
                                                     for half in sets for s in half for a in (s.image, s.mask)) + "\n")
            return real_train(configs, *sets)

        monkeypatch.setattr(model, "train", train)
        args = MATRICES["grid"]
        assert main([args[0], *FAST, *args[1:], "--jobs", "2", "--out", str(tmp_path / "out.csv")]) == EXIT_OK
        calls = [line.split(":") for line in log.read_text().split()]
        assert sorted(n for n, _ in calls) == ["2", "2"]  # two seeds of two variants: one group per worker
        assert all(set(flags) == {"0"} for _, flags in calls)

    @pytest.mark.parametrize("command", MATRICES)
    def test_generation_failure_is_data_error(self, tmp_path, capsys, command):
        args = MATRICES[command]
        out = tmp_path / "out.csv"
        assert main([args[0], *FAST, *args[1:], "--fg-fraction", "0.002", "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith("data error: ")
        assert list(tmp_path.iterdir()) == []


class TestCompare:
    def test_zero_seeds_usage_error(self, tmp_path):
        assert main(["compare", *FAST, "--losses", "dice", "--seeds", "0",
                     "--out", str(tmp_path / "cmp.csv")]) == EXIT_USAGE

    def test_schema_and_determinism(self, tmp_path):
        out = tmp_path / "cmp.csv"
        rc = main(["compare", *FAST, "--out", str(out), "--losses", "dice,all", "--seeds", "2"])
        assert rc == EXIT_OK
        rows = read_rows(out)
        # 2 runs + 1 mean per loss
        assert len(rows) == 6
        assert set(rows[0]) == {"loss", "seed", "status", "recall", "specificity", "jaccard", "dice", "f1", "auc"}
        trace = read_rows(tmp_path / "cmp_epochs.csv")
        assert {r["loss"] for r in trace} == {"dice", "all"}
        assert set(trace[0]) == {"loss", "seed", "epoch", "val_jaccard"}

    def test_same_loss_listed_twice_identical(self, tmp_path):
        out = tmp_path / "cmp.csv"
        main(["compare", *FAST, "--out", str(out), "--losses", "dice,dice", "--seeds", "1"])
        rows = read_rows(out)
        a = [r for r in rows if r["seed"] == "0"]
        assert len(a) == 2
        assert {k: a[0][k] for k in a[0] if k != "loss"} == {k: a[1][k] for k in a[1] if k != "loss"}

    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_labels_are_the_stripped_tokens(self, tmp_path, via_config):
        # spaces around a token are not part of its label: the outputs equal those of "dice,all"
        outputs = []
        for losses_value in ("dice,all", "dice, all"):
            d = tmp_path / str(len(outputs))
            d.mkdir()
            flags = ["--losses", losses_value]
            if via_config and losses_value != "dice,all":
                (tmp_path / "cfg.txt").write_text(f"losses = {losses_value}\n")
                flags = ["--config", str(tmp_path / "cfg.txt")]
            assert main(["compare", *FAST, *flags, "--seeds", "1", "--out", str(d / "cmp.csv")]) == EXIT_OK
            outputs.append({p.name: p.read_bytes() for p in sorted(d.iterdir())})
        assert outputs[0] == outputs[1]
        assert [r["loss"] for r in read_rows(tmp_path / "1" / "cmp.csv")] == ["dice", "dice", "all", "all"]
        assert {r["loss"] for r in read_rows(tmp_path / "1" / "cmp_epochs.csv")} == {"dice", "all"}

    def test_a_seed_without_rows_builds_no_taps(self, tmp_path, monkeypatch):
        # at this step size every run of seeds 1 and 2 diverges in epoch 0: epoch 1's steps build seed 0's taps only,
        # without a seed axis, as a one-seed group does
        seen, real_taps, real_evaluate = [], model._input_taps, model.evaluate
        monkeypatch.setattr(model, "_input_taps", lambda t, images: seen.append(images.shape) or real_taps(t, images))
        monkeypatch.setattr(model, "evaluate", lambda *a, **k: seen.append("evaluate") or real_evaluate(*a, **k))
        out = tmp_path / "cmp.csv"
        assert main(["compare", *FAST, *DIVERGING_LR, "--losses", "dice,all,focal", "--seeds", "3",
                     "--out", str(out)]) == EXIT_OK
        status = [r["status"] for r in read_rows(out) if r["seed"] != "mean"]
        assert status == ["ok", "diverged", "diverged"] * 2 + ["diverged"] * 3  # dice, all, focal at seeds 0-2
        # per epoch: two steps' taps, then validation's forward on the 3 validation images
        assert seen == [(3, 8, 16, 16), (3, 1, 16, 16), "evaluate", (3, 16, 16),
                        (8, 16, 16), (1, 16, 16), "evaluate", (3, 16, 16)]

    def test_loss_tokens(self):
        assert parse_loss_token("all") == ("dice", True)
        assert parse_loss_token("tversky+all") == ("tversky", True)
        assert parse_loss_token("focal") == ("focal", False)
        assert parse_loss_token("bce+all") == ("bce", True)
        from segbench.cli import UsageError

        with pytest.raises(UsageError):
            parse_loss_token("nope")


class TestRoc:
    def test_curve_output(self, tmp_path):
        out = tmp_path / "roc.csv"
        rc = main(["roc", *FAST, "--out", str(out), "--n-thresholds", "64"])
        assert rc == EXIT_OK
        rows = read_rows(out)
        assert rows[0]["fpr"] == "0" and rows[0]["tpr"] == "0"
        assert rows[-1]["fpr"] == "1" and rows[-1]["tpr"] == "1"
        aucs = {r["auc"] for r in rows}
        assert len(aucs) == 1
        assert 0.0 <= float(aucs.pop()) <= 1.0

    def test_auc_matches_train(self, tmp_path, capsys):
        flags = [*FAST, "--loss", "tversky+all"]
        assert main(["train", *flags, "--out", str(tmp_path / "run.csv")]) == EXIT_OK
        train_auc = capsys.readouterr().out.split("auc ")[-1].strip()
        assert main(["roc", *flags, "--n-thresholds", "256", "--out", str(tmp_path / "roc.csv")]) == EXIT_OK
        assert capsys.readouterr().out.split()[1] == train_auc


class TestAucOnlyWhereWritten:
    """A run's AUC is worked out only where a command writes one: once per "ok" run of compare, once for train's
    line, once for roc's curve, and never in a grid."""

    @pytest.fixture
    def aucs(self, monkeypatch):
        thresholds, real = [], metrics.roc_auc

        def spy(preds, masks, n_thresholds=256):
            thresholds.append(n_thresholds)
            return real(preds, masks, n_thresholds)

        _rebind(monkeypatch, real, spy)  # every name that binds roc_auc
        return thresholds

    @pytest.mark.parametrize("lr", [[], DIVERGING_LR], ids=["ok", "diverging"])
    def test_grid_works_out_none(self, tmp_path, aucs, lr):
        out = tmp_path / "grid.csv"
        assert main(["grid", *FAST, *lr, "--omegas", "8,10", "--epsilons", "0.5", "--seeds", "2",
                     "--out", str(out)]) == EXIT_OK
        assert len(read_rows(out)) == 6 and aucs == []

    @pytest.mark.parametrize("lr", [[], DIVERGING_LR], ids=["ok", "diverging"])
    def test_compare_works_out_one_per_ok_run(self, tmp_path, aucs, lr):
        out = tmp_path / "cmp.csv"
        assert main(["compare", *FAST, *lr, "--losses", "dice,all,focal", "--seeds", "2",
                     "--out", str(out)]) == EXIT_OK
        runs = [r for r in read_rows(out) if r["seed"] != "mean"]
        ok = [r for r in runs if r["status"] == "ok"]
        assert len(runs) == 6 and len(aucs) == len(ok) > 0
        assert (len(ok) < len(runs)) == bool(lr)

    def test_train_works_out_one(self, tmp_path, aucs):
        assert main(["train", *FAST, "--out", str(tmp_path / "run.csv")]) == EXIT_OK
        assert aucs == [256]

    def test_roc_works_out_its_curve_only(self, tmp_path, aucs):
        assert main(["roc", *FAST, "--n-thresholds", "64", "--out", str(tmp_path / "roc.csv")]) == EXIT_OK
        assert aucs == [64]


class TestLossBuilds:
    """Each loss is checked and built once: ``make_loss`` runs once per grid, whose cells all wrap that one loss,
    and once per compare token, and neither re-seeding a config nor training it builds one."""

    @pytest.fixture
    def builds(self, monkeypatch):
        names, real = [], losses.make_loss

        def spy(name, **options):
            names.append(name)
            return real(name, **options)

        _rebind(monkeypatch, real, spy)  # every name that binds make_loss
        return names

    def test_grid_builds_one_loss(self, tmp_path, builds):
        # the default grid: 6 omegas x 4 epsilons, 3 seeds
        assert main(["grid", *FAST, "--out", str(tmp_path / "grid.csv")]) == EXIT_OK
        assert builds == ["dice"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_compare_builds_one_loss_per_token(self, tmp_path, builds, jobs):
        argv = ["compare", *FAST, "--losses", "dice,all,focal,bce+all", "--seeds", "2", "--jobs", jobs]
        assert main([*argv, "--out", str(tmp_path / "cmp.csv")]) == EXIT_OK
        assert builds == ["dice", "dice", "focal", "bce"]

    def test_replace_and_train_build_none(self, builds):
        config = model.TrainConfig(lr=0.01, batch_size=4, max_epochs=2, loss_fn=wrap_loss_fn(make_loss("tversky")))
        halves = cli._split_dataset(vars(build_parser().parse_args(["train", *FAST])))
        builds.clear()
        reseeded = dataclasses.replace(config, seed=5)
        assert reseeded.loss_fn is config.loss_fn
        assert all(isinstance(r, model.RunRecord) for r in model.train([config], *halves))
        assert builds == []


def test_perfbench_traced_names_exist():
    # perfbench traces public functions by name and calls run_gradcheck with losses= and report=; a refactor that
    # renames one of them breaks the benchmark, which tier-1 does not run. Read without importing perfbench.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"
    if not path.exists():
        pytest.skip("perfbench/bench_trace.py is absent")
    traced = next(ast.literal_eval(node.value) for node in ast.parse(path.read_text()).body
                  if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets))
    for mod, names in traced.items():
        for name in names:
            assert callable(getattr(importlib.import_module(f"segbench.{mod}"), name, None)), f"segbench.{mod}.{name}"
    assert {"losses", "report"} <= set(inspect.signature(run_gradcheck).parameters)


def test_readme_tags_name_collected_tests():
    # a README promise is tagged <!-- tested: path::node ... --> with the tests that check it; a renamed or deleted
    # test leaves a tag that no longer resolves, which pytest reports as "not found" when asked to collect it
    root = Path(__file__).resolve().parents[1]
    ids = [i for tag in re.findall(r"<!-- tested: (.+?) -->", (root / "README.md").read_text()) for i in tag.split()]
    assert ids
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *ids],
                          cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    collected = done.stdout.splitlines()
    for i in ids:  # each id collects a test of its own: a node of a file, class or parametrized function
        assert any(c == i or c.startswith((f"{i}::", f"{i}[")) for c in collected), i


def test_readme_usage_lines_name_their_commands_flags():
    # each "segbench <command> ..." line of the README's CLI block names only options of that command's parser
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## CLI\n+```\n(.*?)^```", text, re.S | re.M).group(1)
    lines = [line for line in block.splitlines() if line.startswith("segbench ")]
    assert [line.split()[1] for line in lines] == list(SUBCOMMANDS)
    for line in lines:
        command = line.split()[1]
        options = {"--config"} | {"--" + k.replace("_", "-") for k in vars(build_parser(command).parse_args([command]))
                                   if k not in cli._NOT_OPTIONS}
        for flag in re.findall(r"--[a-z][a-z-]*", line):
            assert flag in options, f"{command} {flag}"


class TestGradcheckCommand:
    def test_passes_at_defaults(self):
        assert run_gradcheck(trials=5, tolerance=1e-6, net_tolerance=1e-4, seed=0, report=lambda *a: None)

    @staticmethod
    def _offset_gradients(monkeypatch):
        # 1e-3 between the analytic and the finite-difference side, as a wrong analytic gradient would leave
        fd, backward = cli.finite_difference_grad, model.backward
        monkeypatch.setattr(cli, "finite_difference_grad", lambda *a, **kw: fd(*a, **kw) + 1e-3)
        monkeypatch.setattr(model, "backward", lambda *a: {k: v + 1e-3 for k, v in backward(*a).items()})

    def test_corrupted_gradient_fails(self, monkeypatch):
        self._offset_gradients(monkeypatch)
        lines = []
        assert not run_gradcheck(trials=3, tolerance=1e-6, net_tolerance=1e-4, seed=0, report=lines.append)
        assert any(line.startswith("FAIL ") and not line.startswith("FAIL net/") for line in lines)
        assert any(line.startswith("FAIL net/") for line in lines)

    @staticmethod
    def _two_evaluation_reference(trials, tolerance, net_tolerance, seed):
        """run_gradcheck's report, written with each trial's loss evaluated twice: for its base value, then through
        the wrapped loss for the analytic gradient, compared on the pixels away from 0 and 1."""
        rng = np.random.default_rng([seed, 13])
        params, lines = AdaptiveLogParams(), []
        for name in (n for n in LOSS_NAMES if n != "bce"):
            fn = make_loss(name)
            for wrapped in (False, True):
                loss_fn = wrap_loss_fn(fn, params) if wrapped else fn
                worst, checked = 0.0, 0
                for _ in range(trials):
                    n = int(rng.integers(4, 257))
                    p = rng.uniform(0.01, 0.99, size=n)
                    g = (rng.uniform(size=n) < rng.uniform(0.2, 0.8)).astype(np.int64)
                    base_val = fn(p, g).value
                    if wrapped and (abs(base_val - params.gamma) < 1e-4 or base_val > 1.0 - 1e-4):
                        continue
                    grad = loss_fn(p, g).grad
                    fd = finite_difference_grad(loss_fn, p, g, step=1e-6)
                    keep = (p > 1e-4) & (p < 1.0 - 1e-4)
                    worst = max(worst, cli._max_rel_err(grad[keep], fd[keep]))
                    checked += 1
                passed = worst < tolerance and checked > 0
                label = f"{name}+wrap" if wrapped else name
                lines.append(f"{'PASS' if passed else 'FAIL'} {label}: max rel err {worst:.3e} over {checked} trials")
        net = model.TinyNet.init(seed=seed)
        img = rng.uniform(0.0, 1.0, size=(8, 8))
        g = (rng.uniform(size=(8, 8)) < 0.3).astype(np.int64)
        for label, loss_fn in (("dice", make_loss("dice")), ("dice+wrap", wrap_loss_fn(make_loss("dice"), params))):
            analytic = model.backward(net, img, loss_fn(model.forward(net, img), g).grad)
            worst = 0.0
            for _ in range(20):
                key = ("w1", "b1", "w2", "b2")[int(rng.integers(4))]
                arr = net.params[key]
                idx = tuple(int(rng.integers(s)) for s in arr.shape)
                orig = arr[idx]
                arr[idx] = orig + 1e-5
                f_hi = loss_fn(model.forward(net, img), g).value
                arr[idx] = orig - 1e-5
                f_lo = loss_fn(model.forward(net, img), g).value
                arr[idx] = orig
                fd = (f_hi - f_lo) / (2 * 1e-5)
                worst = max(worst, cli._max_rel_err(np.array([analytic[key][idx]]), np.array([fd])))
            lines.append(f"{'PASS' if worst < net_tolerance else 'FAIL'} net/{label}: max rel err {worst:.3e} over 20 "
                         "weights")
        return lines

    @pytest.mark.parametrize("seed", [0, 123])
    def test_report_equals_the_two_evaluation_reference(self, seed):
        lines = []
        run_gradcheck(trials=20, tolerance=1e-6, net_tolerance=1e-4, seed=seed, report=lines.append)
        assert lines == self._two_evaluation_reference(20, 1e-6, 1e-4, seed)

    @pytest.mark.parametrize("seed", [0, 1, 123])
    def test_net_suites_equal_the_perturb_and_restore_reference(self, seed, monkeypatch):
        # the reference writes each weight of one unstacked net up, down and back, with a forward per side; the
        # command scores the 40 perturbations of a suite as one forward of a 40-run stack and writes no weight
        init, forward, stacks = model.TinyNet.init, model.forward, []

        def read_only_init(seed=0, runs=None):
            net = init(seed, runs)
            for v in net.params.values():
                v.setflags(write=runs is not None)
            return net

        def spy(net, image):
            stacks.append(net.runs)
            return forward(net, image)

        want = [line for line in self._two_evaluation_reference(20, 1e-6, 1e-4, seed) if " net/" in line]
        monkeypatch.setattr(model.TinyNet, "init", read_only_init)
        monkeypatch.setattr(model, "forward", spy)
        lines = []
        run_gradcheck(trials=20, tolerance=1e-6, net_tolerance=1e-4, seed=seed, report=lines.append)
        assert [line for line in lines if " net/" in line] == want
        assert stacks == [None, 40, None, 40]  # per suite, the analytic gradient's forward, then the stacked one

    def test_zero_tolerance_fails(self):
        assert not run_gradcheck(trials=1, tolerance=0.0, net_tolerance=1e-4, seed=0,
                                 report=lambda *a: None)

    def test_cli_exit_codes(self, monkeypatch):
        assert main(["gradcheck", "--trials", "3"]) == EXIT_OK
        assert main(["gradcheck", "--trials", "3", "--corrupt", "0.001"]) == EXIT_USAGE  # not a flag
        self._offset_gradients(monkeypatch)
        assert main(["gradcheck", "--trials", "3"]) == EXIT_CHECK

    def test_runs_as_python_m_segbench(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(segbench.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "segbench", "gradcheck", "--help"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout.startswith("usage: segbench gradcheck")


SUBCOMMANDS = ("curve", "gendata", "train", "grid", "compare", "roc", "gradcheck")
# the lines, true words then false ones, of --all-wrap: a boolean option train and roc took, right after --loss, where
# a --loss token now spells a wrapped run. An old config file that holds one exits 1 rather than train a plain loss
RETIRED_WORDS = (("1", "true", "yes", "on", "TRUE", "On"), ("0", "false", "no", "off", "FALSE", "Off"))
RETIRED_LINES = [f"{k}={w}" for words in RETIRED_WORDS for k in ("all-wrap", "all_wrap") for w in words]


def _config_line_cases():
    """(command, config line, the flags it stands for) for every option of every command, and the retired
    ``--all-wrap``'s lines where that option stood."""
    cases = []
    for command in SUBCOMMANDS:
        for key, default in vars(build_parser().parse_args([command])).items():
            if key in cli._NOT_OPTIONS:
                continue
            flag = "--" + key.replace("_", "-")
            spellings = sorted({key, flag[2:]})  # underscores and dashes
            value = "x" if isinstance(default, str) else repr(default + 1)  # an int stays an int
            cases += [(command, f"{k} = {value}", [f"{flag}={value}"]) for k in spellings]
            if key == "loss" and command in ("train", "roc"):
                cases += [(command, line, ["--all-wrap"]) for line in RETIRED_LINES]
    return cases + [
        ("train", "out=-x.csv", ["--out=-x.csv"]),
        ("compare", "losses=dice=all", ["--losses=dice=all"]),
        ("grid", "omegas=-1,2", ["--omegas=-1,2"]),
    ]


class TestFlagsAndConfig:
    @pytest.mark.parametrize("command,line,flags", _config_line_cases())
    def test_config_line_parses_like_its_flag(self, tmp_path, monkeypatch, command, line, flags):
        seen = []
        monkeypatch.setattr(cli, f"cmd_{command}", lambda o: seen.append(o) or EXIT_OK)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(line + "\n")
        if line in RETIRED_LINES:  # the line and its flag are usage errors alike
            assert main([command, "--config", str(cfg)]) == main([command, *flags]) == EXIT_USAGE
            assert seen == []
            return
        assert main([command, "--config", str(cfg)]) == EXIT_OK
        assert main([command, *flags]) == EXIT_OK
        assert main([command]) == EXIT_OK
        from_config, from_flags, defaults = seen
        assert from_config == from_flags
        assert from_flags != defaults  # the line set something

    def test_config_file_with_byte_order_mark(self, tmp_path, monkeypatch):
        # a UTF-8 byte-order mark (EF BB BF) before the first key, as some editors write it
        seen = []
        monkeypatch.setattr(cli, "cmd_gradcheck", lambda o: seen.append(o) or EXIT_OK)
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfseed=3\n")
        assert main(["gradcheck", "--config", str(cfg)]) == EXIT_OK
        assert main(["gradcheck", "--seed", "3"]) == EXIT_OK
        assert seen[0] == seen[1] and seen[0]["seed"] == 3

    def test_loss_option_defaults_pinned(self):
        # read from the kernels' signatures: their order is the --help order, their type the flag's type
        pinned = [("smooth", 1e-6), ("tversky_alpha", 0.7), ("tversky_beta", 0.3), ("focal_alpha", 1.0),
                  ("focal_gamma", 2.0), ("mix", 0.5), ("ft_gamma", 4.0 / 3.0)]
        assert list(cli.LOSS_OPTION_DEFAULTS.items()) == pinned
        assert all(type(v) is float for v in cli.LOSS_OPTION_DEFAULTS.values())

    def test_unknown_flag_usage_error(self):
        assert main(["curve", "--bogus", "1"]) == EXIT_USAGE

    def test_unknown_command_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_config_file_supplies_flags(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n-points = 21\nomega = 12\n")
        out = tmp_path / "c.csv"
        assert main(["curve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        rows = read_rows(out)
        assert len(rows) == 21  # threshold 0.1 already on the 21-point grid
        assert any(float(r["x"]) == 0.1 for r in rows)
        assert float(rows[0]["derivative"]) == pytest.approx(24.0)  # omega/epsilon = 12/0.5

    def test_explicit_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("omega=12\n")
        out = tmp_path / "c.csv"
        main(["curve", "--config", str(cfg), "--omega", "6", "--out", str(out)])
        assert float(read_rows(out)[0]["derivative"]) == pytest.approx(12.0)

    def test_bad_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("bogus=1\n")
        assert main(["curve", "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == EXIT_USAGE

    @pytest.mark.parametrize("line", ["lr=abc", "epochs=2.5", "noise-sigma=1e"])
    def test_bad_config_value(self, tmp_path, line):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(line + "\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run.csv")]) == EXIT_USAGE

    @pytest.mark.parametrize("command,flags", [
        ("grid", ["--gamma", "5"]),
        ("grid", ["--gamma", "0.2"]),
        ("grid", ["--omega", "12"]),
        ("grid", ["--epsilon", "1"]),
        ("grid", ["--all-wrap"]),
        ("compare", ["--loss", "hinge"]),
        ("compare", ["--loss", "dice"]),
        ("compare", ["--all-wrap"]),
        ("train", ["--all-wrap"]),  # a wrapped loss is a --loss token: "all" or "<base>+all"
        ("roc", ["--all-wrap"]),
    ])
    def test_flags_a_command_would_ignore_are_usage_errors(self, tmp_path, capsys, command, flags):
        seeds = ["--seeds", "1"] if command in ("grid", "compare") else []
        assert main([command, *FAST, *flags, *seeds, "--out", str(tmp_path / "o.csv")]) == EXIT_USAGE
        assert f"usage error: unrecognized arguments: {' '.join(flags)}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("command,line", [
        ("grid", "gamma=0.2"), ("grid", "omega=12"), ("grid", "epsilon=1"), ("grid", "all-wrap=1"),
        ("compare", "loss=dice"), ("compare", "all_wrap=yes"), ("train", "all_wrap=1"), ("roc", "all-wrap=true"),
    ])
    def test_config_keys_a_command_would_ignore_are_usage_errors(self, tmp_path, capsys, command, line):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(line + "\n")
        seeds = ["--seeds", "1"] if command in ("grid", "compare") else []
        assert main([command, *FAST, "--config", str(cfg), *seeds, "--out", str(tmp_path / "o.csv")]) == EXIT_USAGE
        key = line.split("=")[0].replace("-", "_")
        assert capsys.readouterr().err == f"usage error: unknown config key {key!r}\n"

    @pytest.mark.parametrize("command,flag,value", [
        ("gendata", "--out", "x.csv"), ("gendata", "--seed", "1"), ("gendata", "--jobs", "2"),
        ("curve", "--seed", "1"), ("curve", "--jobs", "2"),
        ("gradcheck", "--out", "x.csv"), ("gradcheck", "--jobs", "2"),
        ("train", "--jobs", "2"), ("roc", "--jobs", "2"),
    ])
    @pytest.mark.parametrize("via_config", [False, True])
    def test_flags_a_command_does_not_read_are_usage_errors(self, tmp_path, capsys, command, flag, value, via_config):
        valid = {  # each command's arguments without the flag under test: all of them valid
            "gendata": ["--out-dir", str(tmp_path / "ds"), "--n-images", "2", "--width", "16", "--height", "16"],
            "curve": ["--out", str(tmp_path / "c.csv")],
            "gradcheck": ["--trials", "1"],
            "train": [*FAST, "--out", str(tmp_path / "o.csv")],
            "roc": [*FAST, "--out", str(tmp_path / "o.csv")],
        }[command]
        if via_config:
            cfg = tmp_path / "cfg.txt"
            cfg.write_text(f"{flag[2:]}={value}\n")
            extra, message = ["--config", str(cfg)], f"unknown config key {flag[2:]!r}"
        else:
            extra, message = [flag, value], f"unrecognized arguments: {flag} {value}"
        assert main([command, *valid, *extra]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (tmp_path / "ds").exists() and not (tmp_path / "o.csv").exists()

    def test_missing_config_file_is_data_error(self, tmp_path):
        assert main(["curve", "--config", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "c.csv")]) == EXIT_DATA

    @pytest.mark.parametrize("raw", [b"seed=\xff\xfe\n", b"\xef\xbb\xbfseed=\xff\xfe\n"], ids=["plain", "bom"])
    def test_config_file_not_utf8_is_data_error(self, tmp_path, capsys, raw):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(raw)
        assert main(["gradcheck", "--trials", "1", "--config", str(cfg)]) == EXIT_DATA
        assert f"data error: cannot read config file {cfg}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_main_builds_only_the_named_commands_options(self, tmp_path, monkeypatch, command):
        # the parser main builds parses its command as the full parser does, with and without a config file
        built, real = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda *a: built.append(real(*a)) or built[-1])
        monkeypatch.setattr(cli, f"cmd_{command}", lambda o: EXIT_OK)
        key = next(k for k in vars(real().parse_args([command])) if k not in cli._NOT_OPTIONS)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"# one line of each kind\n{key}={getattr(real().parse_args([command]), key)}\n")
        other = next(c for c in SUBCOMMANDS if c != command)
        for argv in ([command], [command, "--config", str(cfg)]):
            assert main(argv) == EXIT_OK
            (parser,) = built
            built.clear()
            assert parser.parse_args(argv) == real().parse_args(argv)
            assert vars(parser.parse_args([other])) == {"command": other}  # no other command's options

    @pytest.mark.parametrize("argv,err", [
        (["curve", "--bogus", "1"], "usage error: unrecognized arguments: --bogus 1\n"),
        (["frobnicate"], "usage error: argument command: invalid choice: 'frobnicate' (choose from 'curve', "
                         "'gendata', 'train', 'grid', 'compare', 'roc', 'gradcheck')\n"),
        ([], "usage error: the following arguments are required: command\n"),
    ])
    def test_usage_errors_list_every_command(self, capsys, argv, err):
        assert main(argv) == EXIT_USAGE
        usage = "usage: segbench [-h] {curve,gendata,train,grid,compare,roc,gradcheck} ...\n"
        assert capsys.readouterr().err == usage + err

    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == build_parser().format_help()


class TestDegenerateInputs:
    @pytest.mark.parametrize("argv,message", [
        *[([command, *FAST, *flags], message)
          for command in ("train", "roc", "grid", "compare")
          for flags, message in (
              (["--split-ratio", "1.0"], "split ratio 1.0 leaves an empty partition"),
              (["--split-ratio", "0"], "split ratio 0.0 leaves an empty partition"),
              (["--n-images", "1"], "split ratio 0.8 leaves an empty partition for 1 samples"),
              (["--split-ratio", "inf"], "argument --split-ratio: expected a finite number, got 'inf'"),
              (["--lr", "nan"], "argument --lr: expected a finite number, got 'nan'"),
              (["--lr", "-0.01"], "lr must be > 0, got -0.01"),
              (["--lr", "0"], "lr must be > 0, got 0.0"),
              (["--seed", "-1"], "seed must be >= 0, got -1"),
              (["--noise-sigma", "nan"], "argument --noise-sigma: expected a finite number, got 'nan'"),
              (["--smooth", "nan"], "argument --smooth: expected a finite number, got 'nan'"),
          )],
        (["train", *FAST, "--loss", "tversky", "--tversky-alpha", "nan"], "argument --tversky-alpha: "),
        (["train", *FAST, "--loss", "all", "--omega", "nan"], "argument --omega: expected a finite number"),
        (["train", *FAST, "--loss", "all", "--epsilon", "inf"], "argument --epsilon: expected a finite number"),
        (["compare", *FAST, "--epsilon=-inf"], "argument --epsilon: expected a finite number"),
        (["grid", *FAST, "--omegas", "8,inf"], "bad numeric list '8,inf' for --omegas: expected a finite number"),
        (["grid", *FAST, "--gammas", "nan"], "bad numeric list 'nan' for --gammas: expected a finite number"),
        (["roc", *FAST, "--n-thresholds", "1"], "--n-thresholds must be >= 2"),
        (["roc", *FAST, "--n-thresholds", str(CURVE_MAX_POINTS + 1)], "--n-thresholds must be >= 2 and <= "),
        (["curve", "--n-points", str(CURVE_MAX_POINTS + 1)], "--n-points must be in"),
        (["curve", "--n-points", "1"], "--n-points must be in"),
        (["curve", "--omega", "inf"], "argument --omega: expected a finite number"),
        (["grid", *FAST, "--jobs", "0"], "--jobs must be >= 1"),
        (["compare", *FAST, "--jobs", "-3"], "--jobs must be >= 1"),
        (["gendata", "--noise-sigma", "inf"], "argument --noise-sigma: expected a finite number, got 'inf'"),
        (["gradcheck", "--tolerance", "nan"], "argument --tolerance: expected a finite number, got 'nan'"),
        (["gradcheck", "--tolerance", "0"], "--tolerance must be > 0"),
        (["gradcheck", "--net-tolerance", "-1"], "--net-tolerance must be > 0"),
        (["gradcheck", "--trials", "0"], "--trials must be >= 1"),
        (["gradcheck", "--seed", "-1"], "--seed must be >= 0"),
        # the value after --config is the file's one line
        (["train", *FAST, "--config", "lr=nan"], "argument --lr: expected a finite number, got 'nan'"),
        (["roc", *FAST, "--config", "seed=-1"], "seed must be >= 0, got -1"),
        (["grid", *FAST, "--config", "omegas = 8,inf"], "bad numeric list '8,inf' for --omegas: expected a finite"),
        (["gendata", "--config", "noise_sigma=inf"], "argument --noise-sigma: expected a finite number, got 'inf'"),
        (["gradcheck", "--config", "trials=0"], "--trials must be >= 1"),
        # a wrapper whose omega / epsilon overflows float64, in every subcommand that takes the wrapper's parameters
        (["curve", "--epsilon", "1e-320"], "max(1, omega) / epsilon must be finite, got omega=10.0, epsilon=1e-320"),
        *[([command, *FAST, *flags, "--omega", "1e308", "--epsilon", "1e-308"], "max(1, omega) / epsilon must be")
          for command, flags in (("train", ["--loss", "all"]), ("roc", []), ("compare", ["--losses", "dice,all"]))],
        (["grid", *FAST, "--omegas", "1e308", "--epsilons", "1e-308"], "max(1, omega) / epsilon must be finite"),
        # a grid's first cell is checked as a run, wrapper parameters before the loss, then each later cell's
        *[(["grid", *FAST, f"--omegas={omegas}", *loss], message) for omegas, loss, message in (
            ("8,-1", [], "omega must be > 0, got -1.0"),
            ("8,-1", ["--loss", "tversky", "--tversky-alpha", "-1"], "invalid Tversky weights tversky_alpha=-1.0"),
            ("-1,8", ["--loss", "tversky", "--tversky-alpha", "-1"], "omega must be > 0, got -1.0"),
        )],
        # train, roc and compare read a run's loss token before they build the run; grid names its base in --loss
        *[([command, *FAST, "--split-ratio", "1", loss_flag, "nope"], message) for command, loss_flag, message in (
            ("train", "--loss", "unknown loss selector 'nope'"),
            ("roc", "--loss", "unknown loss selector 'nope'"),
            ("compare", "--losses", "unknown loss selector 'nope'"),
            ("grid", "--loss", "split ratio 1.0 leaves an empty partition"),
        )],
    ])
    def test_usage_error_before_any_work(self, tmp_path, capsys, monkeypatch, argv, message):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the input was checked")

        monkeypatch.setattr(segbench.synthdata, "generate", no_work)
        monkeypatch.setattr(model, "train", no_work)
        monkeypatch.setattr(cli, "run_gradcheck", no_work)
        if "--config" in argv:
            at = argv.index("--config") + 1
            (tmp_path / "cfg.txt").write_text(argv[at] + "\n")
            argv = [*argv[:at], str(tmp_path / "cfg.txt"), *argv[at + 1 :]]
        target = str(tmp_path / "o")  # gradcheck writes nothing, gendata writes to --out-dir
        out = {"gradcheck": [], "gendata": ["--out-dir", target]}.get(argv[0], ["--out", target])
        assert main([*argv, *out]) == EXIT_USAGE
        err = capsys.readouterr().err
        # a value argparse rejects follows the command's usage line, as any bad flag does
        usage, _, report = err.partition("usage error: ")
        assert usage == "" or usage.startswith(f"usage: segbench {argv[0]} [-h]")
        assert report.startswith(message) and "Traceback" not in err
        assert not (tmp_path / "o").exists()
