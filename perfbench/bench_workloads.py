"""The four segbench benchmark workloads.

Each workload turns a workload seed into program inputs, runs one repetition
inside a timed region, and returns the repetition's numeric outputs.  The
``around`` context manager passed to :meth:`Workload.rep` encloses exactly the
timed region; the traced run passes a :class:`bench_trace.Tracer` there.

Workloads run in this process through segbench's public API with ``--jobs 1``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field

import numpy as np


def _sb(module: str):
    # Looked up on every use: the set-up phase re-imports the package.
    return sys.modules[f"segbench.{module}"]


def derive_seeds(seed: int, stream: int) -> tuple[int, int]:
    """(data seed, run seed) for a workload seed; stream separates workloads."""
    data_seed, run_seed = np.random.SeedSequence([seed, stream]).generate_state(2)
    return int(data_seed), int(run_seed)


@dataclass
class Rep:
    """One repetition: its wall time, operation counts and outputs."""

    wall_s: float
    attempted: int
    failed: int
    outputs: dict[str, float]  # name -> value, compared against the reference
    quality: float
    blob: bytes  # the user-visible output bytes; must repeat exactly
    extra: dict = field(default_factory=dict)


def _finite_failures(outputs: dict[str, float]) -> int:
    return sum(1 for v in outputs.values() if not math.isfinite(v))


def _read_csv(path) -> tuple[list[dict], bytes]:
    with open(path, "rb") as f:
        raw = f.read()
    return list(csv.DictReader(io.StringIO(raw.decode("utf-8")))), raw


def _run_cli(argv, around):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        with around:
            t0 = time.perf_counter()
            rc = _sb("cli").main(argv)
            wall = time.perf_counter() - t0
    return rc, wall, out.getvalue()


class Workload:
    name = ""
    stream = 0

    def rep(self, seed: int, work_dir: str, around) -> Rep:
        raise NotImplementedError

    def checks(self, rep: Rep, seed: int) -> list[tuple[str, bool]]:
        """Workload-specific output checks on a finished repetition."""
        return []


class ImbalanceTrain(Workload):
    """`compare --losses dice,all` at the criterion-6 shape, 20 epochs, one seed pair."""

    name = "imbalance-train"
    stream = 1
    FLAGS = [
        "--width", "48", "--height", "48", "--n-images", "48", "--fg-fraction", "0.02",
        "--noise-sigma", "0.15", "--lr", "0.01", "--batch-size", "16", "--epochs", "20",
        "--losses", "dice,all", "--seeds", "1", "--jobs", "1",
    ]
    RUNS = 2  # losses x seeds

    def rep(self, seed, work_dir, around):
        data_seed, run_seed = derive_seeds(seed, self.stream)
        out = os.path.join(work_dir, "imbalance.csv")
        argv = ["compare", *self.FLAGS, "--data-seed", str(data_seed), "--seed", str(run_seed), "--out", out]
        rc, wall, _ = _run_cli(argv, around)
        if rc != 0:
            return Rep(wall, self.RUNS, self.RUNS, {}, float("nan"), b"")
        rows, raw = _read_csv(out)
        epoch_rows, epoch_raw = _read_csv(os.path.splitext(out)[0] + "_epochs.csv")
        outputs = {}
        for r in rows:
            for col in ("recall", "specificity", "jaccard", "dice", "f1", "auc"):
                outputs[f"{r['loss']}/{r['seed']}/{col}"] = float(r[col])
        for r in epoch_rows:
            outputs[f"{r['loss']}/{r['seed']}/epoch{r['epoch']}/val_jaccard"] = float(r["val_jaccard"])
        runs = [r for r in rows if r["seed"] != "mean"]
        failed = sum(1 for r in runs if not all(math.isfinite(float(r[c])) for c in ("jaccard", "dice", "auc")))
        quality = float(np.mean([float(r["jaccard"]) for r in runs]))
        return Rep(wall, self.RUNS, failed, outputs, quality, raw + epoch_raw)

    def checks(self, rep, seed):
        return [("one row per run plus a mean row per loss", len([k for k in rep.outputs if k.endswith("/jaccard")]) == 4)]


class GridSweep(Workload):
    """`grid` at the criterion-9 shape over a 3 x 2 (omega, epsilon) grid, 3 seeds."""

    name = "grid-sweep"
    stream = 2
    FLAGS = [
        "--width", "16", "--height", "16", "--n-images", "16", "--fg-fraction", "0.2",
        "--noise-sigma", "0.05", "--epochs", "3", "--batch-size", "8", "--lr", "0.01",
        "--gammas", "0.1", "--omegas", "6,10,14", "--epsilons", "0.3,1.0", "--seeds", "3", "--jobs", "1",
    ]
    RUNS = 3 * 2 * 3

    def rep(self, seed, work_dir, around):
        data_seed, run_seed = derive_seeds(seed, self.stream)
        out = os.path.join(work_dir, "grid.csv")
        argv = ["grid", *self.FLAGS, "--data-seed", str(data_seed), "--seed", str(run_seed), "--out", out]
        rc, wall, _ = _run_cli(argv, around)
        if rc != 0:
            return Rep(wall, self.RUNS, self.RUNS, {}, float("nan"), b"")
        rows, raw = _read_csv(out)
        outputs = {}
        for r in rows:
            key = f"g{r['gamma']}/w{r['omega']}/e{r['epsilon']}/{r['seed']}"
            for col in ("val_jaccard", "val_dice", "epochs_run"):
                outputs[f"{key}/{col}"] = float(r[col])
        runs = [r for r in rows if r["seed"] != "mean"]
        failed = sum(1 for r in runs if r["status"] != "ok" or not math.isfinite(float(r["val_jaccard"])))
        ok = [float(r["val_jaccard"]) for r in runs if r["status"] == "ok"]
        quality = float(np.mean(ok)) if ok else float("nan")
        return Rep(wall, self.RUNS, failed, outputs, quality, raw)

    def checks(self, rep, seed):
        return [("one row per run plus a mean row per cell", len(rep.outputs) == 3 * (self.RUNS + 6))]


GRADCHECK_LINE = re.compile(r"^(PASS|FAIL) (\S+): max rel err (\S+) over (\d+) (trials|weights)$")


class Gradcheck(Workload):
    """`gradcheck` over every loss selector, plain and wrapped, plus the net check."""

    name = "gradcheck"
    stream = 3
    TRIALS = 20
    TOLERANCE = 1e-6
    NET_TOLERANCE = 1e-4
    SUITES = 14  # 6 losses x (plain, wrapped) + 2 network suites

    def rep(self, seed, work_dir, around):
        _, run_seed = derive_seeds(seed, self.stream)
        argv = ["gradcheck", "--trials", str(self.TRIALS), "--tolerance", repr(self.TOLERANCE),
                "--net-tolerance", repr(self.NET_TOLERANCE), "--seed", str(run_seed)]
        rc, wall, text = _run_cli(argv, around)
        outputs, headroom, failed = {}, [], 0
        for line in text.splitlines():
            m = GRADCHECK_LINE.match(line)
            if not m:
                continue
            status, label, err = m.group(1), m.group(2), float(m.group(3))
            outputs[label] = err
            failed += status != "PASS"
            tol = self.NET_TOLERANCE if label.startswith("net/") else self.TOLERANCE
            headroom.append(1.0 - err / tol)
        attempted = max(len(outputs), self.SUITES)
        failed += attempted - len(outputs)
        if rc != 0 and failed == 0:
            failed = 1
        quality = float(np.mean(headroom)) if headroom else float("nan")
        return Rep(wall, attempted, failed, outputs, quality, text.encode("utf-8"), {"rc": rc})

    def checks(self, rep, seed):
        return [("every gradient suite reports PASS", len(rep.outputs) == self.SUITES and rep.extra["rc"] == 0)]


class EvalLarge(Workload):
    """Large images through PGM write/read, forward-only evaluation and pooled ROC-AUC."""

    name = "eval-large"
    stream = 4
    SIZE = 128
    N_IMAGES = 48
    FG_FRACTION = 0.05
    NOISE = 0.1
    NET_SEED = 0  # a fixed untrained TinyNet: evaluation cost does not depend on its weights
    ORACLE_PIXELS = 4000

    def rep(self, seed, work_dir, around):
        synthdata, model, metrics = _sb("synthdata"), _sb("model"), _sb("metrics")
        data_seed, _ = derive_seeds(seed, self.stream)
        spec = synthdata.SynthSpec(width=self.SIZE, height=self.SIZE, fg_fraction_target=self.FG_FRACTION,
                                   n_images=self.N_IMAGES, noise_sigma=self.NOISE, seed=data_seed)
        net = model.TinyNet.init(seed=self.NET_SEED)
        ds_dir = os.path.join(work_dir, "dataset")
        auc = float("nan")
        with around:
            t0 = time.perf_counter()
            samples = synthdata.generate(spec)
            manifest = synthdata.write_dataset(samples, ds_dir)
            loaded = synthdata.load_dataset(manifest)
            means, preds = model.evaluate(net, loaded)
            masks = [s.mask for s in loaded]
            try:
                auc = metrics.roc_auc(preds, masks).auc
            except metrics.UndefinedAUC:
                pass
            wall = time.perf_counter() - t0
        outputs = {f"mean/{k}": float(v) for k, v in means.items()}
        outputs["auc"] = float(auc)
        for i, (p, s) in enumerate(zip(preds, loaded)):
            c = metrics.confusion(p, s.mask)
            outputs[f"image{i}/jaccard"] = metrics.jaccard_index(c)
            outputs[f"image{i}/dice"] = metrics.dice_index(c)
        failed = _finite_failures(outputs)
        blob = "\n".join(f"{k} {v!r}" for k, v in outputs.items()).encode("utf-8")
        return Rep(wall, self.N_IMAGES + 1, failed, outputs, outputs["mean/jaccard"], blob,
                   {"preds": preds, "masks": masks})

    def checks(self, rep, seed):
        # criterion-5 oracle: the 256-threshold trapezoid stays within 1/256
        # of the exact pair-counting AUC on a pixel subsample
        metrics = _sb("metrics")
        scores = np.concatenate([p.ravel() for p in rep.extra["preds"]])
        labels = np.concatenate([m.ravel() for m in rep.extra["masks"]])
        idx = np.random.default_rng(seed).choice(scores.size, self.ORACLE_PIXELS, replace=False)
        try:
            gap = abs(metrics.roc_auc(scores[idx], labels[idx]).auc - metrics.pair_count_auc(scores[idx], labels[idx]))
        except metrics.UndefinedAUC:
            return [("roc_auc agrees with pair_count_auc", False)]
        return [("roc_auc agrees with pair_count_auc", gap <= 1.0 / 256)]


WORKLOADS = {w.name: w for w in (ImbalanceTrain(), GridSweep(), Gradcheck(), EvalLarge())}
