"""Benchmark command-line driver.

Subcommands: curve | grid | compare | roc | gradcheck | gendata | train.
Every subcommand is deterministic given its flags (seeds are flags), and all
CSV output is UTF-8, comma-separated, header row first, numeric fields
formatted with 6 significant digits.

Flags may also be supplied through ``--config FILE`` holding flat
``key=value`` lines (keys are the long option names with dashes or
underscores); explicit command-line flags win over the config file.

Exit codes: 0 success, 1 usage error, 2 data error, 3 check failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import metrics, model, synthdata
from .adaptive import (
    AdaptiveLogParams,
    adaptive_log_derivative,
    adaptive_log_forward,
    derivative_jump,
    wrap_loss_fn,
)
from .losses import LOSS_NAMES, LOSSES, finite_difference_grad, make_loss

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK = 3


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class CheckFailure(Exception):
    pass


def fmt(x: float) -> str:
    return "%.6g" % x


# ---------------------------------------------------------------------------
# flag plumbing


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the documented usage-error code is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _parse_config_file(path) -> dict:
    out = {}
    try:
        with open(path) as f:
            for lineno, raw in enumerate(f, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
                k, v = line.split("=", 1)
                out[k.strip().replace("-", "_")] = v.strip()
    except OSError as exc:
        raise DataError(f"cannot read config file {path}: {exc}") from exc
    return out


def _merge_opts(ns: argparse.Namespace, defaults: dict) -> dict:
    """defaults < config file < explicit flags."""
    explicit = vars(ns)
    merged = dict(defaults)
    cfg_path = explicit.pop("config", None)
    if cfg_path:
        cfg = _parse_config_file(cfg_path)
        for k, raw in cfg.items():
            if k not in defaults:
                raise UsageError(f"unknown config key {k!r}")
            merged[k] = _coerce(raw, defaults[k], k)
    merged.update(explicit)
    return merged


def _coerce(raw: str, default, key: str):
    if isinstance(default, bool):
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise UsageError(f"config key {key!r}: expected boolean, got {raw!r}")
    try:
        return type(default)(raw)
    except ValueError as exc:
        raise UsageError(f"config key {key!r}: expected {type(default).__name__}, got {raw!r}") from exc


def _csv_floats(raw: str) -> list[float]:
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"bad numeric list {raw!r}") from exc


COMMON_DEFAULTS = {"seed": 0, "out": "", "jobs": 1}

DATASET_DEFAULTS = {
    "width": 48,
    "height": 48,
    "fg_fraction": 0.05,
    "n_images": 48,
    "noise_sigma": 0.1,
    "blob_min": 1,
    "blob_max": 3,
    "data_seed": 0,
}

WRAP_DEFAULTS = {f.name: f.default for f in dataclasses.fields(AdaptiveLogParams)}
LOSS_OPTION_DEFAULTS = {k: v for spec in LOSSES.values() for k, v in spec.options.items()}
LOSS_DEFAULTS = {"loss": "dice", "all_wrap": False, **WRAP_DEFAULTS, **LOSS_OPTION_DEFAULTS}

TRAIN_DEFAULTS = {"lr": 1e-4, "batch_size": 16, "epochs": 30, "split_ratio": 0.8}


def _add_opts(sp, defaults: dict):
    for key, dv in defaults.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(dv, bool):
            sp.add_argument(flag, action="store_true", default=argparse.SUPPRESS)
        else:
            sp.add_argument(flag, type=type(dv), default=argparse.SUPPRESS)


def _dataset_spec(o: dict) -> synthdata.SynthSpec:
    try:
        return synthdata.SynthSpec(
            width=o["width"],
            height=o["height"],
            fg_fraction_target=o["fg_fraction"],
            n_images=o["n_images"],
            noise_sigma=o["noise_sigma"],
            blob_count_range=(o["blob_min"], o["blob_max"]),
            seed=o["data_seed"],
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _adaptive_params(o: dict) -> AdaptiveLogParams:
    try:
        return AdaptiveLogParams(gamma=o["gamma"], omega=o["omega"], epsilon=o["epsilon"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _train_config(o: dict, loss: str, wrapped: bool, seed: int) -> model.TrainConfig:
    options = LOSSES[loss].options if loss in LOSSES else ()  # TrainConfig rejects an unknown loss
    try:
        return model.TrainConfig(
            lr=o["lr"],
            batch_size=o["batch_size"],
            max_epochs=o["epochs"],
            loss=loss,
            loss_params={k: o[k] for k in options},
            adaptive_wrap=wrapped,
            adaptive_params=_adaptive_params(o),
            seed=seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _require_out(o: dict) -> str:
    if not o["out"]:
        raise UsageError("--out is required")
    return o["out"]


def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, dtype=np.uint64)[0])


def _map_runs(worker, tasks: list, jobs: int) -> list:
    """``[worker(t) for t in tasks]``, in a pool of ``jobs`` processes when jobs > 1."""
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(worker, tasks))
    return [worker(t) for t in tasks]


# ---------------------------------------------------------------------------
# subcommands


def cmd_curve(o: dict) -> int:
    out = _require_out(o)
    params = _adaptive_params(o)
    n = o["n_points"]
    if n < 2:
        raise UsageError("--n-points must be >= 2")
    xs = sorted(set(np.linspace(0.0, 1.0, n)) | {params.gamma})
    with open(out, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["x", "loss", "derivative"])
        for x in xs:
            w.writerow([fmt(x), fmt(adaptive_log_forward(x, params)), fmt(adaptive_log_derivative(x, params))])
    print(f"wrote {len(xs)} points to {out}")
    print(f"derivative jump at threshold {fmt(params.gamma)}: {fmt(derivative_jump(params))}")
    return EXIT_OK


def cmd_gendata(o: dict) -> int:
    out_dir = o["out_dir"]
    if not out_dir:
        raise UsageError("--out-dir is required")
    spec = _dataset_spec(o)
    try:
        samples = synthdata.generate(spec)
    except synthdata.GenerationFailure as exc:
        raise DataError(str(exc)) from exc
    manifest = synthdata.write_dataset(samples, out_dir)
    print(f"wrote {len(samples)} image/mask pairs and {manifest}")
    return EXIT_OK


def _run_training(o: dict, loss: str, wrapped: bool, seed: int) -> model.RunRecord:
    config = _train_config(o, loss, wrapped, seed)
    spec = _dataset_spec(o)
    try:
        samples = synthdata.generate(spec)
    except synthdata.GenerationFailure as exc:
        raise DataError(str(exc)) from exc
    train_set, val_set = synthdata.train_val_split(samples, o["split_ratio"], seed=spec.seed)
    return model.train(config, train_set, val_set)


def cmd_train(o: dict) -> int:
    out = _require_out(o)
    rec = _run_training(o, o["loss"], o["all_wrap"], o["seed"])
    rec.write_csv(out)
    last = rec.epochs[-1]
    print(f"final val jaccard {fmt(last.val_jaccard)}, dice {fmt(last.val_dice)}, auc {fmt(rec.final_auc)}")
    return EXIT_OK


def _grid_cell_worker(args):
    o, gamma, omega, epsilon, run_idx = args
    o = dict(o, gamma=gamma, omega=omega, epsilon=epsilon)
    # run seed depends on the run index only, so cells are seed-paired and a
    # swept parameter with no effective influence reproduces bit-identical runs
    seed = _derive_seed(o["seed"], run_idx)
    try:
        rec = _run_training(o, o["loss"], True, seed)
        last = rec.epochs[-1]
        return ("ok", last.val_jaccard, last.val_dice, len(rec.epochs))
    except model.TrainingDiverged:
        return ("diverged", float("nan"), float("nan"), 0)


def run_grid(o: dict) -> list[dict]:
    """Grid sweep over (gamma, omega, epsilon) x seeds; returns row dicts.

    Per-run rows carry seed_index; each cell is followed by a mean row
    (seed column "mean") averaging the cell's successful runs.
    """
    gammas = o["gammas"] if isinstance(o["gammas"], list) else _csv_floats(o["gammas"])
    omegas = o["omegas"] if isinstance(o["omegas"], list) else _csv_floats(o["omegas"])
    epsilons = o["epsilons"] if isinstance(o["epsilons"], list) else _csv_floats(o["epsilons"])
    n_seeds = o["seeds"]
    if not gammas or not omegas or not epsilons or n_seeds < 1:
        raise UsageError("grid needs at least one cell and seeds >= 1")
    cells = [(g, w, e) for g in gammas for w in omegas for e in epsilons]
    results = _map_runs(_grid_cell_worker, [(o, *cell, ri) for cell in cells for ri in range(n_seeds)], o["jobs"])

    rows = []
    for ci, (g, w, e) in enumerate(cells):
        cell_rows = []
        for ri in range(n_seeds):
            status, jac, dice, epochs = results[ci * n_seeds + ri]
            row = {
                "gamma": g, "omega": w, "epsilon": e, "seed": str(ri),
                "status": status, "val_jaccard": jac, "val_dice": dice, "epochs_run": epochs,
            }
            rows.append(row)
            if status == "ok":
                cell_rows.append(row)
        if cell_rows:
            rows.append({
                "gamma": g, "omega": w, "epsilon": e, "seed": "mean", "status": "ok",
                "val_jaccard": float(np.mean([r["val_jaccard"] for r in cell_rows])),
                "val_dice": float(np.mean([r["val_dice"] for r in cell_rows])),
                "epochs_run": float(np.mean([r["epochs_run"] for r in cell_rows])),
            })
        else:
            rows.append({
                "gamma": g, "omega": w, "epsilon": e, "seed": "mean", "status": "diverged",
                "val_jaccard": float("nan"), "val_dice": float("nan"), "epochs_run": 0,
            })
    return rows


def cmd_grid(o: dict) -> int:
    out = _require_out(o)
    rows = run_grid(o)
    with open(out, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["gamma", "omega", "epsilon", "seed", "status", "val_jaccard", "val_dice", "epochs_run"])
        for r in rows:
            w.writerow([
                fmt(r["gamma"]), fmt(r["omega"]), fmt(r["epsilon"]), r["seed"], r["status"],
                fmt(r["val_jaccard"]), fmt(r["val_dice"]), fmt(r["epochs_run"]),
            ])
    n_runs = sum(1 for r in rows if r["seed"] != "mean")
    print(f"wrote {n_runs} run rows + {len(rows) - n_runs} mean rows to {out}")
    return EXIT_OK


def parse_loss_token(tok: str) -> tuple[str, bool]:
    """'dice' -> plain dice; 'dice+all' -> wrapped dice; bare 'all' -> wrapped dice."""
    tok = tok.strip()
    if tok == "all":
        return "dice", True
    base = tok.removesuffix("+all")
    if base not in LOSSES:
        raise UsageError(f"unknown loss selector {tok!r} (known: {', '.join(LOSSES)}, 'all', '<base>+all')")
    return base, base != tok


def _compare_worker(args):
    o, tok, run_idx = args
    base, wrapped = parse_loss_token(tok)
    seed = _derive_seed(o["seed"], run_idx)
    rec = _run_training(o, base, wrapped, seed)
    last = rec.epochs[-1]
    return {
        "loss": tok, "seed": str(run_idx),
        "recall": last.val_recall, "specificity": last.val_specificity,
        "jaccard": last.val_jaccard, "dice": last.val_dice, "f1": last.val_f1,
        "auc": rec.final_auc,
        "trace": [(r.epoch, r.val_jaccard) for r in rec.epochs],
    }


SUMMARY_COLS = ("recall", "specificity", "jaccard", "dice", "f1", "auc")


def run_compare(o: dict) -> list[dict]:
    toks = [t for t in o["losses"].split(",") if t.strip()]
    n_seeds = o["seeds"]
    if not toks or n_seeds < 1:
        raise UsageError("compare needs at least one loss in --losses and seeds >= 1")
    for t in toks:
        _train_config(o, *parse_loss_token(t), o["seed"])  # reject bad loss options before any run
    results = _map_runs(_compare_worker, [(o, tok, ri) for tok in toks for ri in range(n_seeds)], o["jobs"])
    rows = []
    for ti, tok in enumerate(toks):
        runs = results[ti * n_seeds : (ti + 1) * n_seeds]
        rows.extend(runs)
        mean = {"loss": tok, "seed": "mean", "trace": None}
        for c in SUMMARY_COLS:
            mean[c] = float(np.mean([r[c] for r in runs]))
        rows.append(mean)
    return rows


def cmd_compare(o: dict) -> int:
    out = _require_out(o)
    rows = run_compare(o)
    with open(out, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["loss", "seed", *SUMMARY_COLS])
        for r in rows:
            w.writerow([r["loss"], r["seed"], *[fmt(r[c]) for c in SUMMARY_COLS]])
    trace_path = os.path.splitext(out)[0] + "_epochs.csv"
    with open(trace_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["loss", "seed", "epoch", "val_jaccard"])
        for r in rows:
            if r["trace"] is None:
                continue
            for epoch, jac in r["trace"]:
                w.writerow([r["loss"], r["seed"], epoch, fmt(jac)])
    print(f"wrote {out} and {trace_path}")
    return EXIT_OK


def cmd_roc(o: dict) -> int:
    out = _require_out(o)
    rec = _run_training(o, o["loss"], o["all_wrap"], o["seed"])
    try:
        curve = metrics.roc_auc(rec.val_preds, rec.val_masks, n_thresholds=o["n_thresholds"])
    except metrics.UndefinedAUC as exc:
        raise DataError(str(exc)) from exc
    with open(out, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["fpr", "tpr", "auc"])
        for fpr, tpr in curve.points:
            w.writerow([fmt(fpr), fmt(tpr), fmt(curve.auc)])
    print(f"auc {fmt(curve.auc)} over {len(curve.points)} points -> {out}")
    return EXIT_OK


def run_gradcheck(trials: int, tolerance: float, net_tolerance: float, seed: int, corrupt: float = 0.0,
                  losses=tuple(n for n in LOSS_NAMES if n != "bce"), report=print) -> bool:
    """Finite-difference validation of every analytic gradient path.

    ``losses`` leaves out bce by default: combo's suite already checks its gradient.
    ``corrupt`` adds a uniform offset to analytic gradients (negative-control
    hook for tests).  Returns True when every check passes.
    """
    if tolerance <= 0 or net_tolerance <= 0:
        report("FAIL tolerance must be > 0")
        return False
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 13])))
    params = AdaptiveLogParams()
    ok = True

    for name in losses:
        fn = make_loss(name)
        for wrapped in (False, True):
            loss_fn = wrap_loss_fn(fn, params) if wrapped else fn
            worst = 0.0
            checked = 0
            for _ in range(trials):
                n = int(rng.integers(4, 257))
                p = rng.uniform(0.01, 0.99, size=n)
                g = (rng.uniform(size=n) < rng.uniform(0.2, 0.8)).astype(np.int64)
                base_val = fn(p, g).value
                if wrapped and abs(base_val - params.gamma) < 1e-4:
                    continue  # branch boundary excluded by contract
                if wrapped and base_val > 1.0 - 1e-4:
                    continue  # wrapper requires a base value in [0, 1]
                ev = loss_fn(p, g)
                grad = ev.grad + corrupt
                fd = finite_difference_grad(loss_fn, p, g, step=1e-6)
                keep = (p > 1e-4) & (p < 1.0 - 1e-4)
                err = _max_rel_err(grad[keep], fd[keep])
                worst = max(worst, err)
                checked += 1
            label = f"{name}+wrap" if wrapped else name
            passed = worst < tolerance and checked > 0
            ok &= passed
            report(f"{'PASS' if passed else 'FAIL'} {label}: max rel err {worst:.3e} over {checked} trials")

    # through the network: d(loss(forward(net, img)))/d(weights)
    net = model.TinyNet.init(seed=seed)
    img = rng.uniform(0.0, 1.0, size=(8, 8))
    g = (rng.uniform(size=(8, 8)) < 0.3).astype(np.int64)
    for label, loss_fn in (("dice", make_loss("dice")), ("dice+wrap", wrap_loss_fn(make_loss("dice"), params))):
        p = model.forward(net, img)
        ev = loss_fn(p, g)
        analytic = model.backward(net, img, ev.grad, p=p)
        analytic = {k: v + corrupt for k, v in analytic.items()}
        worst = 0.0
        for _ in range(20):
            key = ("w1", "b1", "w2", "b2")[int(rng.integers(4))]
            arr = net.params[key]
            idx = tuple(int(rng.integers(s)) for s in arr.shape)
            step = 1e-5
            orig = arr[idx]  # idx is () for the scalar b2
            arr[idx] = orig + step
            f_hi = loss_fn(model.forward(net, img), g).value
            arr[idx] = orig - step
            f_lo = loss_fn(model.forward(net, img), g).value
            arr[idx] = orig
            fd = (f_hi - f_lo) / (2 * step)
            worst = max(worst, _max_rel_err(np.array([analytic[key][idx]]), np.array([fd])))
        passed = worst < net_tolerance
        ok &= passed
        report(f"{'PASS' if passed else 'FAIL'} net/{label}: max rel err {worst:.3e} over 20 weights")
    return ok


def _max_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    # the 1e-3 denominator floor is a 1e-9 absolute tolerance for components
    # at the finite-difference noise level
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-3)
    return float(np.max(np.abs(a - b) / denom))


def cmd_gradcheck(o: dict) -> int:
    ok = run_gradcheck(
        trials=o["trials"],
        tolerance=o["tolerance"],
        net_tolerance=o["net_tolerance"],
        seed=o["seed"],
        corrupt=o["corrupt"],
    )
    if not ok:
        raise CheckFailure("gradient check failed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# dispatch


def build_parser():
    parser = _Parser(prog="segbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = {}

    def new_cmd(name, help_text, extra):
        # no prefix matching: grid's --omega must not quietly mean --omegas
        sp = sub.add_parser(name, help=help_text, allow_abbrev=False)
        sp.add_argument("--config", default=argparse.SUPPRESS)
        d = dict(COMMON_DEFAULTS)
        d.update(extra)
        _add_opts(sp, d)
        defaults[name] = d
        return sp

    new_cmd("curve", "emit the wrapper's value/derivative curve as CSV", {**WRAP_DEFAULTS, "n_points": 101})
    new_cmd("gendata", "materialize a synthetic dataset as PGM files + manifest",
            {**DATASET_DEFAULTS, "out_dir": ""})
    new_cmd("train", "one training run, per-epoch metrics to CSV",
            {**DATASET_DEFAULTS, **LOSS_DEFAULTS, **TRAIN_DEFAULTS})
    # grid cells set gamma/omega/epsilon and always wrap; compare's --losses tokens choose loss and wrapping
    new_cmd("grid", "hyperparameter sweep over gamma/omega/epsilon",
            {**DATASET_DEFAULTS, "loss": LOSS_DEFAULTS["loss"], **LOSS_OPTION_DEFAULTS, **TRAIN_DEFAULTS,
             "gammas": "0.1", "omegas": "6,8,10,12,14,16", "epsilons": "0.3,0.5,1.0,2.0", "seeds": 3})
    new_cmd("compare", "train one model per (loss, seed), emit summary + epoch traces",
            {**DATASET_DEFAULTS, **WRAP_DEFAULTS, **LOSS_OPTION_DEFAULTS, **TRAIN_DEFAULTS,
             "losses": "jaccard,dice,tversky,focal,combo,all", "seeds": 5})
    new_cmd("roc", "train then emit the pooled-pixel ROC of the validation set",
            {**DATASET_DEFAULTS, **LOSS_DEFAULTS, **TRAIN_DEFAULTS, "n_thresholds": 256})
    new_cmd("gradcheck", "finite-difference validation of analytic gradients",
            {"trials": 100, "tolerance": 1e-6, "net_tolerance": 1e-4, "corrupt": 0.0})
    return parser, defaults


COMMANDS = {
    "curve": cmd_curve,
    "gendata": cmd_gendata,
    "train": cmd_train,
    "grid": cmd_grid,
    "compare": cmd_compare,
    "roc": cmd_roc,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None) -> int:
    parser, defaults = build_parser()
    try:
        ns = parser.parse_args(argv)
        command = ns.command
        del ns.command
        opts = _merge_opts(ns, defaults[command])
        return COMMANDS[command](opts)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, synthdata.PGMError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (CheckFailure, model.TrainingDiverged) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
