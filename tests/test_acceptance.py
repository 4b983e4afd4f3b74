"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The imbalance and
convergence experiments (criteria 6 and 7) train real models and together
take several minutes.
"""

import csv
import math
import time

import numpy as np
import pytest

from segbench.adaptive import (
    AdaptiveLogParams,
    adaptive_log_derivative,
    adaptive_log_forward,
)
from segbench.cli import main, run_gradcheck, run_grid
from segbench.losses import (
    bce_loss,
    combo_loss,
    focal_loss,
    focal_tversky_loss,
    soft_dice_loss,
    tversky_loss,
)
from segbench.metrics import ConfusionCounts, dice_index, jaccard_index, pair_count_auc, roc_auc

GAMMA, OMEGA, EPSILON = 0.1, 10.0, 0.5


def report(criterion, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def random_pg(rng, n=None):
    n = n or int(rng.integers(4, 65))
    p = rng.uniform(0.01, 0.99, size=n)
    g = (rng.uniform(size=n) < 0.5).astype(np.int64)
    if g.sum() == 0:
        g[0] = 1
    if g.sum() == n:
        g[-1] = 0
    return p, g


def test_criterion_1_closed_form():
    params = AdaptiveLogParams(GAMMA, OMEGA, EPSILON)
    ref_c = GAMMA - OMEGA * math.log(1.0 + GAMMA / EPSILON)
    checks = [
        abs(params.c - ref_c) < 1e-12,
        abs(adaptive_log_forward(0.05, params) - OMEGA * math.log(1.1)) < 1e-12,
        abs(adaptive_log_forward(0.3, params) - (0.3 - ref_c)) < 1e-12,
        abs(OMEGA * math.log(1.0 + GAMMA / EPSILON) - (GAMMA - ref_c)) < 1e-12,
    ]
    report(1, all(checks), f"C={params.c:.12f}, branch gap at threshold < 1e-12")


def test_criterion_2_gradient_oracle():
    t0 = time.time()
    lines = []
    ok = run_gradcheck(trials=100, tolerance=1e-6, net_tolerance=1e-4, seed=0, report=lines.append)
    elapsed = time.time() - t0
    report(2, ok and elapsed < 60, f"{len(lines)} gradient suites, {elapsed:.1f}s; " + "; ".join(lines[:2]))


def test_criterion_3_derivative_shape(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert main(["curve", "--out", str(out), "--n-points", "201"]) == 0
    printed = capsys.readouterr().out
    rows = read_rows(out)
    ok = True
    for r in rows:
        x = float(r["x"])
        d = float(r["derivative"])
        expect = OMEGA / (EPSILON + x) if x < GAMMA else 1.0
        # emitted at 6 significant digits; compare at that resolution
        ok &= abs(d - expect) <= 1e-5 * max(abs(expect), 1.0)
        if x < GAMMA:
            ok &= d > 1.0  # larger loss backpropagated for small base values
    jump = OMEGA / (EPSILON + GAMMA) - 1.0
    ok &= abs(jump - 15.6667) < 1e-3
    ok &= "15.6667" in printed
    report(3, ok, f"{len(rows)} points match the branch formulas; jump at threshold {jump:.4f} (reported)")


def test_criterion_4_reduction_identities():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        p, g = random_pg(rng)
        worst = max(
            worst,
            abs(tversky_loss(p, g, smooth=0, tversky_alpha=0.5, tversky_beta=0.5).value
                - soft_dice_loss(p, g, smooth=0).value),
            abs(focal_tversky_loss(p, g, ft_gamma=1.0, smooth=0).value - tversky_loss(p, g, smooth=0).value),
            abs(focal_loss(p, g, focal_alpha=1.0, focal_gamma=0.0).value - bce_loss(p, g).value),
            abs(combo_loss(p, g, smooth=0, mix=0.0).value - soft_dice_loss(p, g, smooth=0).value),
            abs(combo_loss(p, g, smooth=0, mix=1.0).value - bce_loss(p, g).value),
        )
    report(4, worst < 1e-12, f"max identity deviation {worst:.2e} over 100 random inputs")


def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(7)
    worst_auc = 0.0
    for _ in range(50):
        n = int(rng.integers(10, 80))
        scores = np.round(rng.uniform(size=n), 2)
        labels = (rng.uniform(size=n) < 0.5).astype(int)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        worst_auc = max(worst_auc, abs(roc_auc(scores, labels, 256).auc - pair_count_auc(scores, labels)))
    worst_id = 0.0
    for _ in range(200):
        c = ConfusionCounts(*(int(x) for x in rng.integers(0, 40, size=4)))
        j = jaccard_index(c)
        worst_id = max(worst_id, abs(dice_index(c) - 2 * j / (1 + j)))
    ok = worst_auc <= 1 / 256 and worst_id < 1e-12
    report(5, ok, f"max trapezoid-vs-pair gap {worst_auc:.5f} (<= 1/256), max Dice/Jaccard identity dev {worst_id:.2e}")


IMBALANCE_FLAGS = [
    "--width", "48", "--height", "48", "--n-images", "48",
    "--lr", "0.01", "--batch-size", "16", "--epochs", "30", "--seeds", "5",
]


@pytest.mark.slow
def test_criterion_6_imbalance_experiment(tmp_path):
    # noise 0.15 keeps plain Dice off the ceiling so the paired ordering is
    # visible rather than a saturation tie
    t0 = time.time()
    out = tmp_path / "imbalance.csv"
    rc = main(["compare", *IMBALANCE_FLAGS, "--noise-sigma", "0.15", "--fg-fraction", "0.02",
               "--data-seed", "5", "--losses", "dice,all", "--out", str(out)])
    assert rc == 0
    rows = read_rows(out)
    dice_j = {r["seed"]: float(r["jaccard"]) for r in rows if r["loss"] == "dice" and r["seed"] != "mean"}
    all_j = {r["seed"]: float(r["jaccard"]) for r in rows if r["loss"] == "all" and r["seed"] != "mean"}
    mean_dice = float(next(r["jaccard"] for r in rows if r["loss"] == "dice" and r["seed"] == "mean"))
    mean_all = float(next(r["jaccard"] for r in rows if r["loss"] == "all" and r["seed"] == "mean"))
    wins = sum(all_j[s] > dice_j[s] for s in dice_j)
    elapsed = time.time() - t0
    ok = mean_all >= mean_dice and wins >= 4 and elapsed < 600
    report(6, ok, f"mean Jaccard wrapped {mean_all:.4f} vs dice {mean_dice:.4f}, wins {wins}/5, {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_7_convergence_trace(tmp_path):
    out = tmp_path / "convergence.csv"
    rc = main(["compare", *IMBALANCE_FLAGS, "--noise-sigma", "0.1", "--fg-fraction", "0.05",
               "--data-seed", "7", "--losses", "jaccard,dice,tversky,focal,combo,all", "--out", str(out)])
    assert rc == 0
    trace_rows = read_rows(tmp_path / "convergence_epochs.csv")
    losses_present = {r["loss"] for r in trace_rows}
    assert losses_present == {"jaccard", "dice", "tversky", "focal", "combo", "all"}

    def epochs_to_95(loss, seed):
        jac = [float(r["val_jaccard"]) for r in trace_rows if r["loss"] == loss and r["seed"] == seed]
        final = jac[-1]
        return next(i for i, j in enumerate(jac) if j >= 0.95 * final)

    wins = 0
    details = []
    for seed in map(str, range(5)):
        e_all = epochs_to_95("all", seed)
        e_dl = epochs_to_95("dice", seed)
        wins += e_all <= e_dl
        details.append(f"s{seed}:{e_all}<={e_dl}")
    report(7, wins >= 3, f"wrapped reaches 95% of final no later than dice in {wins}/5 seeds ({', '.join(details)})")


def test_criterion_8_determinism(tmp_path):
    checks = {}

    a, b = tmp_path / "c1.csv", tmp_path / "c2.csv"
    main(["curve", "--out", str(a)])
    main(["curve", "--out", str(b)])
    checks["curve"] = a.read_bytes() == b.read_bytes()

    d1, d2 = tmp_path / "d1", tmp_path / "d2"
    gen = ["gendata", "--width", "24", "--height", "24", "--n-images", "4"]
    main([*gen, "--out-dir", str(d1)])
    main([*gen, "--out-dir", str(d2)])
    checks["gendata"] = {p.name: p.read_bytes() for p in d1.iterdir()} == {
        p.name: p.read_bytes() for p in d2.iterdir()
    }

    fast = ["--width", "16", "--height", "16", "--n-images", "12", "--fg-fraction", "0.2",
            "--noise-sigma", "0.05", "--epochs", "2", "--batch-size", "8", "--lr", "0.01"]
    t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    main(["train", *fast, "--out", str(t1)])
    main(["train", *fast, "--out", str(t2)])
    checks["train"] = t1.read_bytes() == t2.read_bytes()

    c1, c2 = tmp_path / "cmp1.csv", tmp_path / "cmp2.csv"
    main(["compare", *fast, "--losses", "dice,all", "--seeds", "1", "--out", str(c1)])
    main(["compare", *fast, "--losses", "dice,all", "--seeds", "1", "--out", str(c2)])
    checks["compare"] = (
        c1.read_bytes() == c2.read_bytes()
        and (tmp_path / "cmp1_epochs.csv").read_bytes() == (tmp_path / "cmp2_epochs.csv").read_bytes()
    )

    report(8, all(checks.values()), f"byte-identical reruns: {checks}")


def test_criterion_9_grid_protocol(tmp_path):
    t0 = time.time()
    out = tmp_path / "grid.csv"
    rc = main(["grid", "--width", "16", "--height", "16", "--n-images", "16", "--fg-fraction", "0.2",
               "--noise-sigma", "0.05", "--epochs", "3", "--batch-size", "8", "--lr", "0.01",
               "--gammas", "0.1", "--omegas", "6,8,10,12,14,16", "--epsilons", "0.3,0.5,1.0,2.0",
               "--seeds", "3", "--out", str(out)])
    assert rc == 0
    rows = read_rows(out)
    run_rows = [r for r in rows if r["seed"] != "mean"]
    mean_rows = [r for r in rows if r["seed"] == "mean"]
    elapsed = time.time() - t0
    ok = len(run_rows) == 72 and len(mean_rows) == 24 and elapsed < 1800
    report(9, ok, f"{len(run_rows)} run rows + {len(mean_rows)} mean rows in {elapsed:.0f}s")


def test_grid_cell_means_exact():
    # supporting check for the grid invariant: in-memory cell means equal the
    # arithmetic mean of their run rows to 1e-12
    o = {
        "width": 16, "height": 16, "fg_fraction": 0.2, "n_images": 12, "noise_sigma": 0.05,
        "blob_min": 1, "blob_max": 3, "data_seed": 0, "split_ratio": 0.8,
        "lr": 0.01, "batch_size": 8, "epochs": 2, "loss": "dice",
        "smooth": 1e-6, "tversky_alpha": 0.7, "tversky_beta": 0.3, "focal_alpha": 1.0,
        "focal_gamma": 2.0, "mix": 0.5, "ft_gamma": 4 / 3, "gamma": 0.1, "omega": 10.0,
        "epsilon": 0.5, "gammas": "0.1", "omegas": "10,12", "epsilons": "0.5", "seeds": 3,
        "seed": 0, "jobs": 1, "out": "",
    }
    rows = run_grid(o)
    for omega in (10.0, 12.0):
        runs = [r["val_jaccard"] for r in rows if r["omega"] == omega and r["seed"] != "mean"]
        mean = next(r["val_jaccard"] for r in rows if r["omega"] == omega and r["seed"] == "mean")
        assert abs(mean - float(np.mean(runs))) < 1e-12
