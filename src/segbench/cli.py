"""Benchmark command-line driver.

Subcommands: curve | grid | compare | roc | gradcheck | gendata | train.
Every subcommand is deterministic given its flags (seeds are flags), and all
CSV output is UTF-8, comma-separated, header row first, numeric fields
formatted with 6 significant digits.

Flags may also be supplied through ``--config FILE`` holding flat
``key=value`` lines (keys are the long option names with dashes or
underscores); explicit command-line flags win over the config file.

Exit codes: 0 success (a diverged grid/compare run is a ``status=diverged`` row),
1 usage error (a flag the command does not take, a bad value, or a degenerate input,
all caught before any work), 2 data error (also an input too large for memory),
3 check failure (a failed gradient check, a diverged train/roc run).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import metrics, model, synthdata
from .adaptive import (
    AdaptiveLogParams,
    adaptive_log_derivative,
    adaptive_log_forward,
    adaptive_log_wrap,
    derivative_jump,
    wrap_loss_fn,
)
from .losses import LOSS_NAMES, LOSSES, finite_difference_grad, loss_options, make_loss

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


def _finite_float(raw: str) -> float:
    """The type of every float flag and of each ``--gammas``-style list item: nan and +-inf exit 1."""
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {raw!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {raw!r}")
    return value


def _csv_floats(o: dict, key: str) -> list[float]:
    try:
        return [_finite_float(tok) for tok in o[key].split(",") if tok.strip()]
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"bad numeric list {o[key]!r} for --{key}: {exc}") from exc


def _config_flags(path, ns: argparse.Namespace) -> list[str]:
    """The ``key=value`` lines of a config file as flags of the command ``ns`` was parsed for."""
    flags = []
    try:
        with open(path, encoding="utf-8-sig") as f:  # a byte-order mark some editors write is not a key
            for lineno, raw in enumerate(f, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, value = line.split("=", 1)
                key, value = key.strip().replace("-", "_"), value.strip()
                if key in _NOT_OPTIONS or key not in vars(ns):
                    raise UsageError(f"unknown config key {key!r}")
                flag = "--" + key.replace("_", "-")
                if not isinstance(getattr(ns, key), bool):
                    flags.append(f"{flag}={value}")  # one token: a value starting with "-" stays a value
                elif value.lower() in ("1", "true", "yes", "on"):
                    flags.append(flag)
                elif value.lower() not in ("0", "false", "no", "off"):
                    raise UsageError(f"config key {key!r}: expected boolean, got {value!r}")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read config file {path}: {exc}") from exc
    return flags


RUN_DEFAULTS = {"seed": 0, "out": ""}
_NOT_OPTIONS = ("command", "config", "handler")  # what a parsed namespace holds besides the options
CURVE_MAX_POINTS = 1_000_000

RUN_COLS = ("recall", "specificity", "jaccard", "dice", "f1", "auc", "epochs_run")
GRID_COLS = ("gamma", "omega", "epsilon", "seed", "status", "val_jaccard", "val_dice", "epochs_run")
COMPARE_COLS = ("loss", "seed", "status", "recall", "specificity", "jaccard", "dice", "f1", "auc")
EPOCH_COLS = tuple(f.name for f in dataclasses.fields(model.EpochRow))

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
LOSS_OPTION_DEFAULTS = {k: v for name in LOSSES for k, v in loss_options(name).items()}
LOSS_DEFAULTS = {"loss": "dice", "all_wrap": False, **WRAP_DEFAULTS, **LOSS_OPTION_DEFAULTS}

TRAIN_DEFAULTS = {"lr": 1e-4, "batch_size": 16, "epochs": 30, "split_ratio": 0.8}


def _add_opts(sp, defaults: dict):
    for key, dv in defaults.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(dv, bool):
            sp.add_argument(flag, action="store_true")
        else:
            sp.add_argument(flag, type=_finite_float if isinstance(dv, float) else type(dv), default=dv)


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


def _train_config(o: dict, loss: str, wrapped: bool) -> model.TrainConfig:
    """The run ``o`` describes: building it checks every option before any data is made."""
    try:
        synthdata.split_size(o["n_images"], o["split_ratio"])  # an empty half fails before data is made
        params = _adaptive_params(o)  # a plain run's --gamma/--omega/--epsilon are checked too
        loss_fn = make_loss(loss, **{k: o[k] for k in loss_options(loss)})
        return model.TrainConfig(lr=o["lr"], batch_size=o["batch_size"], max_epochs=o["epochs"],
                                 loss_fn=wrap_loss_fn(loss_fn, params) if wrapped else loss_fn, seed=o["seed"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _require_out(o: dict, key: str = "out") -> str:
    if not o[key]:
        raise UsageError(f"--{key.replace('_', '-')} is required")
    return o[key]


def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, dtype=np.uint64)[0])


def _write_csv(path, header, rows) -> None:
    """``header`` then one line per row; numbers go through :func:`fmt`, strings as they are."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows([v if isinstance(v, str) else fmt(v) for v in row] for row in rows)


# ---------------------------------------------------------------------------
# subcommands


def cmd_curve(o: dict) -> int:
    out = _require_out(o)
    params = _adaptive_params(o)
    n = o["n_points"]
    if not 2 <= n <= CURVE_MAX_POINTS:
        raise UsageError(f"--n-points must be in [2, {CURVE_MAX_POINTS}]")
    xs = np.array(sorted(set(np.linspace(0.0, 1.0, n)) | {params.gamma}))
    _write_csv(out, ("x", "loss", "derivative"),
               zip(xs, adaptive_log_forward(xs, params), adaptive_log_derivative(xs, params)))
    print(f"wrote {len(xs)} points to {out}")
    print(f"derivative jump at threshold {fmt(params.gamma)}: {fmt(derivative_jump(params))}")
    return EXIT_OK


def _generate(o: dict) -> list:
    """The samples of the dataset ``o`` describes."""
    spec = _dataset_spec(o)
    try:
        return synthdata.generate(spec)
    except synthdata.GenerationFailure as exc:
        raise DataError(str(exc)) from exc


def cmd_gendata(o: dict) -> int:
    out_dir = _require_out(o, "out_dir")
    samples = _generate(o)
    manifest = synthdata.write_dataset(samples, out_dir)
    print(f"wrote {len(samples)} image/mask pairs and {manifest}")
    return EXIT_OK


def _split_dataset(o: dict) -> tuple[list, list]:
    """The (train, validation) halves of the dataset ``o`` describes."""
    return synthdata.train_val_split(_generate(o), o["split_ratio"], seed=o["data_seed"])


def _train_one(o: dict) -> model.RunRecord:
    """The one run ``o`` describes, trained alone: a divergence is raised."""
    (rec,) = model.train([_train_config(o, o["loss"], o["all_wrap"])], *_split_dataset(o))
    if isinstance(rec, model.TrainingDiverged):
        raise rec
    return rec


def cmd_train(o: dict) -> int:
    out = _require_out(o)
    rec = _train_one(o)
    _write_csv(out, EPOCH_COLS, (dataclasses.astuple(r) for r in rec.epochs))
    last = rec.epochs[-1]
    print(f"final val jaccard {fmt(last.val_jaccard)}, dice {fmt(last.val_dice)}, auc {fmt(rec.final_auc)}")
    return EXIT_OK


def _diverged(seed: str) -> dict:
    return {"seed": seed, "status": "diverged", **dict.fromkeys(RUN_COLS, float("nan")), "epochs_run": 0, "trace": []}


def _run_row(run_idx: int, rec: model.RunRecord | model.TrainingDiverged) -> dict:
    if isinstance(rec, model.TrainingDiverged):
        return _diverged(str(run_idx))
    last = rec.epochs[-1]
    return {
        "seed": str(run_idx), "status": "ok",
        "recall": last.val_recall, "specificity": last.val_specificity,
        "jaccard": last.val_jaccard, "dice": last.val_dice, "f1": last.val_f1,
        "auc": rec.final_auc, "epochs_run": len(rec.epochs),
        "trace": [(r.epoch, r.val_jaccard) for r in rec.epochs],
    }


def _matrix_worker(args) -> list[dict]:
    pairs, configs, halves = args
    for s in (*halves[0], *halves[1]):  # every run shares them; a pool worker's unpickled copy is writable
        s.image.setflags(write=False)
        s.mask.setflags(write=False)
    return [_run_row(run_idx, rec) for (run_idx, _), rec in zip(pairs, model.train(configs, *halves))]


def _run_matrix(o: dict, variants: list[model.TrainConfig], n_seeds: int) -> list[list[dict]]:
    """Train every (variant, seed index) pair; per variant, its run records then a mean record.

    Each task's runs train side by side in one ``model.train`` call. A diverged run is recorded with status
    "diverged" and nan metrics; the mean record averages the variant's "ok" runs.
    """
    if o["jobs"] < 1:
        raise UsageError("--jobs must be >= 1")
    halves = _split_dataset(o)  # variants differ only in loss and wrapper parameters: one dataset serves all
    # run seed depends on the run index only, so variants are seed-paired; runs whose swept parameter has no
    # effective influence take bit-identical steps, and train once, on one shared row of their seed's stack rows
    seeded = [[dataclasses.replace(config, seed=_derive_seed(o["seed"], ri)) for config in variants]
              for ri in range(n_seeds)]
    groups = [[(ri, vi) for vi in range(len(variants))] for ri in range(n_seeds)]  # per seed index, its runs
    workers = min(o["jobs"], len(variants) * n_seeds)  # a pool starts all its workers up front, so no more than runs
    while len(groups) < workers:  # split the largest group until every worker has one
        i = max(range(len(groups)), key=lambda i: len(groups[i]))
        groups[i : i + 1] = [groups[i][: len(groups[i]) // 2], groups[i][len(groups[i]) // 2 :]]
    # the groups dealt to one task per worker
    tasks = [[pair for group in groups[k::workers] for pair in group] for k in range(workers)]
    args = [(pairs, [seeded[ri][vi] for ri, vi in pairs], halves) for pairs in tasks]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_matrix_worker, args))
    else:
        results = [_matrix_worker(a) for a in args]
    records = {pair: row for pairs, rows in zip(tasks, results) for pair, row in zip(pairs, rows)}
    out = []
    for vi in range(len(variants)):
        runs = [records[ri, vi] for ri in range(n_seeds)]
        ok = [r for r in runs if r["status"] == "ok"]
        mean = _diverged("mean")
        if ok:
            mean.update(status="ok", **{c: float(np.mean([r[c] for r in ok])) for c in RUN_COLS})
        out.append(runs + [mean])
    return out


def run_grid(o: dict) -> list[dict]:
    """Grid sweep over (gamma, omega, epsilon) x seeds; returns row dicts.

    Per-run rows carry seed_index; each cell is followed by a mean row
    (seed column "mean") averaging the cell's successful runs.
    """
    gammas, omegas, epsilons = (_csv_floats(o, k) for k in ("gammas", "omegas", "epsilons"))
    if not gammas or not omegas or not epsilons or o["seeds"] < 1:
        raise UsageError("grid needs at least one cell and seeds >= 1")
    cells = [{"gamma": g, "omega": w, "epsilon": e} for g in gammas for w in omegas for e in epsilons]
    results = _run_matrix(o, [_train_config({**o, **cell}, o["loss"], True) for cell in cells], o["seeds"])
    return [
        {**cell, "seed": r["seed"], "status": r["status"],
         "val_jaccard": r["jaccard"], "val_dice": r["dice"], "epochs_run": r["epochs_run"]}
        for cell, runs in zip(cells, results) for r in runs
    ]


def cmd_grid(o: dict) -> int:
    out = _require_out(o)
    rows = run_grid(o)
    _write_csv(out, GRID_COLS, ([r[c] for c in GRID_COLS] for r in rows))
    n_runs = sum(1 for r in rows if r["seed"] != "mean")
    print(f"wrote {n_runs} run rows + {len(rows) - n_runs} mean rows to {out}")
    return EXIT_OK


def parse_loss_token(tok: str) -> tuple[str, bool]:
    """'dice' -> plain dice; 'dice+all' -> wrapped dice; bare 'all' -> wrapped dice."""
    if tok == "all":
        return "dice", True
    base = tok.removesuffix("+all")
    if base not in LOSSES:
        raise UsageError(f"unknown loss selector {tok!r} (known: {', '.join(LOSSES)}, 'all', '<base>+all')")
    return base, base != tok


def run_compare(o: dict) -> list[dict]:
    toks = [t.strip() for t in o["losses"].split(",") if t.strip()]
    if not toks or o["seeds"] < 1:
        raise UsageError("compare needs at least one loss in --losses and seeds >= 1")
    results = _run_matrix(o, [_train_config(o, *parse_loss_token(t)) for t in toks], o["seeds"])
    return [{"loss": tok, **r} for tok, runs in zip(toks, results) for r in runs]


def cmd_compare(o: dict) -> int:
    out = _require_out(o)
    rows = run_compare(o)
    _write_csv(out, COMPARE_COLS, ([r[c] for c in COMPARE_COLS] for r in rows))
    trace_path = os.path.splitext(out)[0] + "_epochs.csv"
    _write_csv(trace_path, ("loss", "seed", "epoch", "val_jaccard"),
               ((r["loss"], r["seed"], epoch, jac) for r in rows for epoch, jac in r["trace"]))
    print(f"wrote {out} and {trace_path}")
    return EXIT_OK


def cmd_roc(o: dict) -> int:
    out = _require_out(o)
    if not 2 <= o["n_thresholds"] <= CURVE_MAX_POINTS:
        raise UsageError(f"--n-thresholds must be >= 2 and <= {CURVE_MAX_POINTS}")
    rec = _train_one(o)
    try:
        curve = metrics.roc_auc(rec.val_preds, rec.val_masks, n_thresholds=o["n_thresholds"])
    except metrics.UndefinedAUC as exc:
        raise DataError(str(exc)) from exc
    _write_csv(out, ("fpr", "tpr", "auc"), ((fpr, tpr, curve.auc) for fpr, tpr in curve.points))
    print(f"auc {fmt(curve.auc)} over {len(curve.points)} points -> {out}")
    return EXIT_OK


def run_gradcheck(trials: int, tolerance: float, net_tolerance: float, seed: int,
                  losses=tuple(n for n in LOSS_NAMES if n != "bce"), report=print) -> bool:
    """Finite-difference validation of every analytic gradient path.

    ``losses`` leaves out bce by default: combo's suite already checks its gradient.
    Returns True when every check passes.
    """
    rng = np.random.default_rng([seed, 13])
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
                base = fn(p, g)
                if wrapped and abs(base.value - params.gamma) < 1e-4:
                    continue  # branch boundary excluded by contract
                if wrapped and base.value > 1.0 - 1e-4:
                    continue  # wrapper requires a base value in [0, 1]
                grad = (adaptive_log_wrap(base, params) if wrapped else base).grad
                fd = finite_difference_grad(loss_fn, p, g, step=1e-6)
                worst = max(worst, _max_rel_err(grad, fd))
                checked += 1
            label = f"{name}+wrap" if wrapped else name
            passed = worst < tolerance and checked > 0
            ok &= passed
            report(f"{'PASS' if passed else 'FAIL'} {label}: max rel err {worst:.3e} over {checked} trials")

    # through the network: d(loss(forward(net, img)))/d(weights), each of 20 weights perturbed up and down in its
    # own run of one 40-run stack, so one forward and one copies-form loss call score all 40 perturbations
    net = model.TinyNet.init(seed=seed)
    img = rng.uniform(0.0, 1.0, size=(8, 8))
    g = (rng.uniform(size=(8, 8)) < 0.3).astype(np.int64)
    step = 1e-5
    for label, loss_fn in (("dice", make_loss("dice")), ("dice+wrap", wrap_loss_fn(make_loss("dice"), params))):
        analytic = model.backward(net, img, loss_fn(model.forward(net, img), g).grad)
        picks = []
        for _ in range(20):
            key = ("w1", "b1", "w2", "b2")[int(rng.integers(4))]
            picks.append((key, tuple(int(rng.integers(s)) for s in net.params[key].shape)))  # () for the scalar b2
        stack = model.TinyNet.init(seed=seed, runs=40)
        for r, (key, idx) in enumerate(picks * 2):
            stack.params[key][(r, *idx)] += step if r < 20 else -step
        f = loss_fn(model.forward(stack, img).reshape(2, 20, 8, 8), g).value
        fd = (f[0] - f[1]) / (2 * step)
        worst = _max_rel_err(np.array([analytic[key][idx] for key, idx in picks]), fd)
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
    for message, ok in (("--trials must be >= 1", o["trials"] >= 1), ("--seed must be >= 0", o["seed"] >= 0),
                        ("--tolerance must be > 0", o["tolerance"] > 0),
                        ("--net-tolerance must be > 0", o["net_tolerance"] > 0)):
        if not ok:
            raise UsageError(message)
    if not run_gradcheck(trials=o["trials"], tolerance=o["tolerance"], net_tolerance=o["net_tolerance"], seed=o["seed"]):
        raise CheckFailure("gradient check failed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# dispatch


def build_parser(command: str | None = None):
    """The parser of every subcommand; given a known ``command``, one where only that subcommand takes options."""
    # grid cells set gamma/omega/epsilon and always wrap; compare's --losses tokens choose loss and wrapping
    commands = (
        ("curve", cmd_curve, "emit the wrapper's value/derivative curve as CSV",
         {"out": "", **WRAP_DEFAULTS, "n_points": 101}),
        ("gendata", cmd_gendata, "materialize a synthetic dataset as PGM files + manifest",
         {**DATASET_DEFAULTS, "out_dir": ""}),
        ("train", cmd_train, "one training run, per-epoch metrics to CSV",
         {**RUN_DEFAULTS, **DATASET_DEFAULTS, **LOSS_DEFAULTS, **TRAIN_DEFAULTS}),
        ("grid", cmd_grid, "hyperparameter sweep over gamma/omega/epsilon",
         {**RUN_DEFAULTS, "jobs": 1, **DATASET_DEFAULTS, "loss": LOSS_DEFAULTS["loss"], **LOSS_OPTION_DEFAULTS,
          **TRAIN_DEFAULTS, "gammas": "0.1", "omegas": "6,8,10,12,14,16", "epsilons": "0.3,0.5,1.0,2.0", "seeds": 3}),
        ("compare", cmd_compare, "train one model per (loss, seed), emit summary + epoch traces",
         {**RUN_DEFAULTS, "jobs": 1, **DATASET_DEFAULTS, **WRAP_DEFAULTS, **LOSS_OPTION_DEFAULTS, **TRAIN_DEFAULTS,
          "losses": "jaccard,dice,tversky,focal,combo,all", "seeds": 5}),
        ("roc", cmd_roc, "train then emit the pooled-pixel ROC of the validation set",
         {**RUN_DEFAULTS, **DATASET_DEFAULTS, **LOSS_DEFAULTS, **TRAIN_DEFAULTS, "n_thresholds": 256}),
        ("gradcheck", cmd_gradcheck, "finite-difference validation of analytic gradients",
         {"seed": 0, "trials": 100, "tolerance": 1e-6, "net_tolerance": 1e-4}),
    )
    parser = _Parser(prog="segbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    every = command not in (c[0] for c in commands)
    for name, handler, help_text, opts in commands:  # every name, for the usage line
        # no prefix matching: grid's --omega must not quietly mean --omegas
        sp = sub.add_parser(name, help=help_text, allow_abbrev=False)
        if every or name == command:
            sp.add_argument("--config")
            _add_opts(sp, opts)  # only the flags the command reads: any other exits 1
            sp.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)  # the options of the command argv names
    try:
        ns = parser.parse_args(argv)
        if ns.config:
            # config lines go right after the command name: argparse keeps a flag's last value, so explicit flags win
            at = argv.index(ns.command) + 1
            ns = parser.parse_args([*argv[:at], *_config_flags(ns.config, ns), *argv[at:]])
        return ns.handler({k: v for k, v in vars(ns).items() if k not in _NOT_OPTIONS})
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, synthdata.PGMError, OSError, MemoryError) as exc:  # MemoryError: an input too large
        print(f"data error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_DATA
    except (CheckFailure, model.TrainingDiverged) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
