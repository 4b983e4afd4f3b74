"""Spans around segbench's public functions, recorded from outside the package.

A :class:`Tracer` replaces every binding of each traced function -- in the
defining module and in every ``segbench`` module that imported it by name --
with a wrapper that records a span (name, parent span, start, end).  Spans
stay in memory until the traced repetition ends; :meth:`Tracer.restore` puts
every original binding back.

Two counters ride along at the same boundaries: how often the adaptive
wrapper's base value is below gamma (the log branch), and how many warnings
the ``segbench.metrics`` logger emits (zero-denominator conventions).
"""

from __future__ import annotations

import logging
import sys
import time

# Layer -> public functions whose spans the traced run reports.
TRACED = {
    "synthdata": ("generate", "train_val_split", "write_dataset", "load_dataset"),
    "model": ("train", "forward", "backward", "adam_step", "evaluate"),
    "losses": (
        "soft_dice_loss",
        "soft_jaccard_loss",
        "tversky_loss",
        "focal_loss",
        "bce_loss",
        "combo_loss",
        "focal_tversky_loss",
        "finite_difference_grad",
    ),
    "adaptive": ("adaptive_log_wrap",),
    "metrics": ("confusion", "roc_auc"),
    "cli": ("run_compare", "run_grid", "run_gradcheck"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

PACKAGE = "segbench"


class WarningCounter(logging.Handler):
    """Counts log records instead of printing them."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


class Tracer:
    """Records spans for one traced repetition; use as a context manager."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.log_branch = 0
        self.wrap_calls = 0
        self._stack = []
        self._restore = []

    # -- patching -----------------------------------------------------------

    @staticmethod
    def _modules():
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self) -> None:
        """Wrap every traced function; raises LookupError, patching nothing, if one is missing."""
        modules = self._modules()
        by_name = {m.__name__: m for m in modules}
        targets = []
        for mod, fns in TRACED.items():
            home = by_name.get(f"{PACKAGE}.{mod}")
            if home is None:
                raise LookupError(f"module {PACKAGE}.{mod} is not imported")
            for fn in fns:
                original = getattr(home, fn, None)
                if not callable(original):
                    raise LookupError(f"{PACKAGE}.{mod}.{fn} is missing; update bench_trace.TRACED")
                targets.append((f"{mod}.{fn}", original))
        for name, original in targets:
            wrapper = self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._restore.append((m, attr, original))

    def restore(self) -> None:
        for m, attr, original in reversed(self._restore):
            setattr(m, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = self._log_branch_probe if name == "adaptive.adaptive_log_wrap" else None

        def traced(*args, **kwargs):
            if probe is not None:
                probe(args, kwargs)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _log_branch_probe(self, args, kwargs):
        # adaptive_log_wrap(base, params=DEFAULT_PARAMS): read the branch from
        # the argument, the way the wrapper itself decides it
        base = args[0] if args else kwargs["base"]
        params = args[1] if len(args) > 1 else kwargs.get("params")
        if params is None:
            params = sys.modules[f"{PACKAGE}.adaptive"].DEFAULT_PARAMS
        self.wrap_calls += 1
        self.log_branch += float(base.value) < params.gamma

    # -- summaries ----------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds); self = duration minus direct children's."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: [0, 0.0] for name in SPAN_NAMES}
        for (name, _, start, end), c in zip(self.spans, child):
            agg = out.setdefault(name, [0, 0.0])
            agg[0] += 1
            agg[1] += (end - start) - c
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            f.write("id,parent,name,start_s,end_s\n")
            t0 = self.spans[0][2] if self.spans else 0.0
            for i, (name, parent, start, end) in enumerate(self.spans):
                f.write(f"{i},{parent},{name},{start - t0:.9f},{end - t0:.9f}\n")
