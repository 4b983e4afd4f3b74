"""segbench benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; segbench is imported from ./src.  Prints one
line per metric (name, value, unit), a ``host`` line, and as the last line a
JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  Repetitions use
the inputs of --seed, plus one repetition on the default seed 0 whose outputs
are compared with reference/<workload>.json.  Set-up and repetition times are
reported at a reference host speed (see PROBE_REF_S); the unscaled times go to
the result file under perfbench/out/.

--trace 1 alternates untraced and traced repetitions of the same inputs and
reports the per-layer metrics: calls and self time of every traced function,
per-module self time, the adaptive wrapper's log-branch share, the metrics
logger's zero-denominator events and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import logging
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import bench_trace
import bench_workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference")

DEFAULT_SEED = 0
# Set-up is timed in batches spread over the run: set-ups timed back to back
# all land in one phase of the host's speed, which drifts over seconds.
SETUP_BATCH = 2
SETUP_BATCHES_PER_RUN = 10
# The shared host runs the same work up to 1.7x slower in some phases than in
# others, and the phases change within seconds.  So every timed set-up and
# repetition sits between two host probes: a fixed piece of interpreter and
# small-array numpy work, the program's own mix, that does not touch segbench.
# A time is reported at reference speed, scaled by PROBE_REF_S over the mean of
# its two probes.  PROBE_REF_S is about the probe's median time on the host of
# baseline.json.
PROBE_ITERATIONS = 5000
PROBE_REF_S = 0.04
_PROBE_ARRAYS = np.random.default_rng(0).standard_normal((8, 24, 24))

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio", "quality": "ratio",
             "ref_match": "ratio"}


def _segbench_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "segbench" or n.startswith("segbench.")}


def setup_once() -> float:
    """Time a fresh import of segbench plus one warm-up call per layer.

    Modules already imported stay the ones the workload uses, so module state
    carries over between repetitions as it would without this measurement.
    """
    in_use = _segbench_modules()
    for name in in_use:
        del sys.modules[name]
    t0 = time.perf_counter()
    importlib.import_module("segbench")
    cli = importlib.import_module("segbench.cli")
    from segbench import adaptive, losses, metrics, model, synthdata

    samples = synthdata.generate(synthdata.SynthSpec(width=16, height=16, fg_fraction_target=0.2, n_images=2))
    s = samples[0]
    p = model.forward(model.TinyNet.init(seed=0), s.image)
    adaptive.adaptive_log_wrap(losses.soft_dice_loss(p, s.mask))
    metrics.roc_auc(p, s.mask)
    cli.build_parser()
    elapsed = time.perf_counter() - t0
    if in_use:
        for name in _segbench_modules():
            del sys.modules[name]
        sys.modules.update(in_use)
    return elapsed


def host_probe() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(PROBE_ITERATIONS):
        acc += float(np.tanh(_PROBE_ARRAYS[i % 8] * 0.5).sum()) + sum(range(i % 64))
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, probe_before: float, probe_after: float) -> float:
    return seconds * 2.0 * PROBE_REF_S / (probe_before + probe_after)


def host_facts() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
    }


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def load_reference(workload: str) -> dict[str, float]:
    with open(os.path.join(REFERENCE, f"{workload}.json")) as f:
        return {k: float(v) for k, v in json.load(f)["outputs"].items()}


def compare_reference(outputs: dict[str, float], reference: dict[str, float]) -> tuple[float, float]:
    """(share of reference values reproduced exactly, largest absolute deviation).

    Outputs are parsed from what the program prints (CSV cells, gradcheck's
    %.3e errors, repr of in-process floats), so two values are equal exactly
    when the program printed the same digits.
    """
    matched, worst = 0, 0.0
    for key, ref in reference.items():
        got = outputs.get(key, math.nan)
        if got == ref or (math.isnan(got) and math.isnan(ref)):
            dev = 0.0
        elif math.isfinite(got) and math.isfinite(ref):
            dev = abs(got - ref)
        else:
            dev = math.inf
        matched += dev == 0.0
        worst = max(worst, dev)
    if set(outputs) - set(reference):
        worst = math.inf
    return matched / len(reference), worst


class Run:
    """Counts operations and checks across the repetitions of one run.

    ``attempted``/``failed`` count operations (training runs, grid runs,
    gradient suites, evaluated images) plus output checks.  ``ok_frac`` is the
    share of checks passed; one check covers every operation, so a single
    failure anywhere costs a whole check however many operations ran.
    """

    def __init__(self, workload, seed, work_dir):
        self.workload, self.seed, self.work_dir = workload, seed, work_dir
        self.ops = 0
        self.ops_failed = 0
        self.checks = []  # (description, passed)

    def rep(self, seed, around=None):
        try:
            rep = self.workload.rep(seed, self.work_dir, around or contextlib.nullcontext())
        except Exception:  # a crash inside the program is a failed operation, not a benchmark error
            logging.exception("repetition crashed")
            self.ops += 1
            self.ops_failed += 1
            return None
        self.ops += rep.attempted
        self.ops_failed += rep.failed
        return rep

    def check(self, what, passed):
        self.checks.append((what, bool(passed)))

    def check_ops(self):
        self.check(f"every operation succeeded ({self.ops_failed} of {self.ops} failed)",
                   self.ops > 0 and self.ops_failed == 0)

    @property
    def attempted(self):
        return self.ops + len(self.checks)

    @property
    def failed(self):
        return self.ops_failed + sum(not passed for _, passed in self.checks)

    @property
    def ok_frac(self):
        return sum(passed for _, passed in self.checks) / max(len(self.checks), 1)

    def check_rep(self, rep, seed):
        self.check("outputs are finite", all(math.isfinite(v) for v in rep.outputs.values()) and rep.outputs)
        for what, passed in self.workload.checks(rep, seed):
            self.check(what, passed)

    @property
    def correct(self):
        return all(passed for _, passed in self.checks)


def measure_end_to_end(run: Run, seconds: float):
    """Repeat the workload on --seed for `seconds` (plus one reference repetition)."""
    seeded, walls, setups = [], [], []  # walls and setups: (raw, at reference speed)
    ref_match, ref_dev = 0.0, math.inf
    need_ref = run.seed != DEFAULT_SEED
    start = time.perf_counter()
    last_setup = -math.inf
    while True:
        elapsed = time.perf_counter() - start
        if len(seeded) >= 2 and not need_ref and elapsed + statistics.median(w for w, _ in walls) > seconds:
            break
        if elapsed - last_setup >= seconds / SETUP_BATCHES_PER_RUN:
            for _ in range(SETUP_BATCH):
                before = host_probe()
                t = setup_once()
                setups.append((t, at_reference_speed(t, before, host_probe())))
            last_setup = time.perf_counter() - start
        is_ref = need_ref and len(seeded) == 1
        before = host_probe()
        rep = run.rep(DEFAULT_SEED if is_ref else run.seed)
        after = host_probe()
        if rep is None:
            break
        walls.append((rep.wall_s, at_reference_speed(rep.wall_s, before, after)))
        if is_ref:
            need_ref = False
            ref_match, ref_dev = compare_reference(rep.outputs, load_reference(run.workload.name))
            continue
        if seeded:
            rep.extra.clear()  # only the first repetition's arrays are checked; keep peak_rss_mb the program's
        seeded.append(rep)
    if seeded:
        run.check_rep(seeded[0], run.seed)
        run.check("repetitions are byte-identical", len(seeded) >= 2 and all(r.blob == seeded[0].blob for r in seeded))
        if run.seed == DEFAULT_SEED:
            ref_match, ref_dev = compare_reference(seeded[0].outputs, load_reference(run.workload.name))
    metrics = {
        "setup_s": statistics.median(s for _, s in setups),
        "wall_s": statistics.median(w for _, w in walls) if walls else math.nan,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "quality": seeded[0].quality if seeded else math.nan,
        "ref_match": ref_match,
    }
    details = {"raw_wall_s": statistics.median(w for w, _ in walls) if walls else math.nan,
               "raw_setup_s": statistics.median(s for s, _ in setups), "walls_s": walls, "setups_s": setups,
               "reps_on_seed": len(seeded), "ref_dev": ref_dev, "ops": run.ops, "ops_failed": run.ops_failed}
    return metrics, details


def measure_per_layer(run: Run, seconds: float, zero_denom: bench_trace.WarningCounter):
    """Alternate untraced and traced repetitions; report per-layer spans."""
    plain, traced, tracers, zero_denoms = [], [], [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        per_pair = (statistics.median(r.wall_s for r in plain) + statistics.median(r.wall_s for r in traced)
                    if plain and traced else 0.0)
        if plain and traced and elapsed + per_pair > seconds:
            break
        rep = run.rep(run.seed)
        if rep is None:
            break
        if plain:
            rep.extra.clear()
        plain.append(rep)
        tracer = bench_trace.Tracer()
        before = zero_denom.count
        rep = run.rep(run.seed, tracer)
        if rep is None:
            break
        rep.extra.clear()
        traced.append(rep)
        tracers.append(tracer)
        zero_denoms.append(zero_denom.count - before)
    if plain:
        run.check_rep(plain[0], run.seed)
    reps = plain + traced
    run.check("traced outputs equal untraced outputs",
              bool(plain) and bool(traced) and all(r.blob == reps[0].blob for r in reps))

    per_rep = [t.self_times() for t in tracers]
    run.check("traced repetitions make the same calls",
              bool(per_rep) and all({k: v[0] for k, v in p.items()} == {k: v[0] for k, v in per_rep[0].items()}
                                    for p in per_rep))
    metrics = {}
    for name in bench_trace.SPAN_NAMES:
        metrics[f"{name}.calls"] = per_rep[0][name][0] if per_rep else 0
        metrics[f"{name}.self_s"] = statistics.median(p[name][1] for p in per_rep) if per_rep else 0.0
    for mod, fns in bench_trace.TRACED.items():
        totals = [sum(p[f"{mod}.{fn}"][1] for fn in fns) for p in per_rep]
        metrics[f"{mod}.self_s"] = statistics.median(totals) if totals else 0.0
    if tracers:
        t = tracers[0]
        metrics["adaptive.log_branch_frac"] = t.log_branch / t.wrap_calls if t.wrap_calls else 0.0
        metrics["metrics.zero_denom_events"] = zero_denoms[0]
    else:
        metrics["adaptive.log_branch_frac"] = 0.0
        metrics["metrics.zero_denom_events"] = 0
    if plain and traced:
        metrics["trace.overhead_frac"] = (statistics.median(r.wall_s for r in traced)
                                          / statistics.median(r.wall_s for r in plain) - 1.0)
    else:
        metrics["trace.overhead_frac"] = math.nan
    if tracers:
        tracers[-1].write_spans(os.path.join(OUT, f"spans-{run.workload.name}-seed{run.seed}.csv"))
    details = {"plain_walls_s": [r.wall_s for r in plain], "traced_walls_s": [r.wall_s for r in traced]}
    return metrics, details


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in bench_trace.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for mod in bench_trace.TRACED:
        units[f"{mod}.self_s"] = "s"
    units["adaptive.log_branch_frac"] = "ratio"
    units["metrics.zero_denom_events"] = "count"
    units["trace.overhead_frac"] = "ratio"
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "segbench", "__init__.py")):
        print(f"error: no segbench package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload not in bench_workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (known: {', '.join(bench_workloads.WORKLOADS)})",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    # Metric-convention warnings are counted, not printed; the handler is on
    # in both modes so traced and untraced repetitions do the same logging work.
    zero_denom = bench_trace.WarningCounter()
    logging.getLogger("segbench.metrics").addHandler(zero_denom)

    setup_once()  # imports segbench; the first import may also compile it
    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    run = Run(bench_workloads.WORKLOADS[args.workload], args.seed, work_dir)
    try:
        if args.trace:
            metrics, details = measure_per_layer(run, args.seconds, zero_denom)
            units = per_layer_units()
        else:
            metrics, details = measure_end_to_end(run, args.seconds)
            units = E2E_UNITS
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    bad = sorted(name for name in metrics if not math.isfinite(metrics[name]))
    run.check("metrics are finite" + (f" ({', '.join(bad)} reported as 0)" if bad else ""), not bad)
    metrics.update({name: 0.0 for name in bad})  # keep the JSON line valid
    run.check_ops()
    if not args.trace:
        metrics["ok_frac"] = run.ok_frac
    host = host_facts()
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    for what, passed in run.checks:
        if not passed:
            print(f"check failed: {what}")
    print("host " + json.dumps(host, sort_keys=True))
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "host": host, "details": details, "result": result}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
