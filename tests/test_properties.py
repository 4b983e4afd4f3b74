"""Property tests on random inputs: loss ranges, the wrapper's shape, PGM parsing, side-by-side training.

Derandomized with few examples, so the suite stays deterministic and fast.
"""

import csv
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segbench.adaptive import DEFAULT_PARAMS, AdaptiveLogParams, adaptive_log_forward, derivative_jump, wrap_loss_fn
from segbench.cli import EXIT_OK, EXIT_USAGE, main
from segbench.losses import LOSS_NAMES, make_loss
from segbench.model import TrainConfig, TrainingDiverged, train
from segbench.synthdata import PGMError, Sample, read_pgm
from test_model import _reference_train, _same_record

FEW = settings(derandomize=True, max_examples=40, deadline=None)

# losses whose value is one minus an overlap index, so it lies in [0, 1]
OVERLAP = {"jaccard", "dice", "tversky", "focal-tversky"}

unit = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def pairs(draw):
    n = draw(st.integers(1, 32))
    p = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    g = np.array(draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)))
    return p, g


@pytest.mark.parametrize("name", LOSS_NAMES)
@FEW
@given(pair=pairs())
def test_loss_range_and_finite_gradient(name, pair):
    p, g = pair
    ev = make_loss(name)(p, g)
    assert type(ev.value) is float and math.isfinite(ev.value)
    assert ev.value >= 0.0
    if name in OVERLAP:
        assert ev.value <= 1.0
    assert ev.grad.shape == p.shape
    assert np.all(np.isfinite(ev.grad))


@FEW
@given(a=unit, b=unit)
def test_wrapper_monotonic(a, b):
    lo, hi = min(a, b), max(a, b)
    assert adaptive_log_forward(lo) <= adaptive_log_forward(hi)


@FEW
@given(gap=st.floats(0.0, 1e-9))
def test_wrapper_continuous_at_gamma(gap):
    gamma = DEFAULT_PARAMS.gamma
    left = adaptive_log_forward(gamma - gap)
    # the log branch's slope there is omega / (epsilon + gamma)
    assert abs(adaptive_log_forward(gamma) - left) <= 20.0 * gap + 1e-12


header_bytes = st.one_of(
    st.binary(max_size=40),
    st.builds(lambda head, tail: b"P5" + head + tail,
              st.sampled_from([b" 2 2 255 ", b"\n#c\n3 1 255\n", b" 2 2 65535 ", b" -1 2 255 ", b" 2 2 0 "]),
              st.binary(max_size=8)),
    st.builds(lambda tokens: b"P5 " + b" ".join(tokens),
              st.lists(st.sampled_from([b"1", b"255", b"#", b"\n", b"x", b"0", b"\xff", b"99999999"]), max_size=5)),
)


@pytest.fixture(scope="module")
def pgm_path(tmp_path_factory):
    return tmp_path_factory.mktemp("pgm") / "fuzz.pgm"


@FEW
@given(data=header_bytes)
def test_read_pgm_raises_only_pgm_error(data, pgm_path):
    pgm_path.write_bytes(data)
    try:
        img = read_pgm(pgm_path)
    except PGMError:
        return
    assert img.dtype == np.uint8 and img.ndim == 2


# one row or one column; an image wider than a chunk's pixels; 48x48, two images to a chunk and two runs to a block
IMAGE_SHAPES = st.one_of(st.sampled_from([(1, 1), (1, 7), (7, 1), (1, 5000), (48, 48)]),
                         st.tuples(st.integers(1, 12), st.integers(1, 12)))


@st.composite
def groups(draw):
    """A group of runs: per run a loss selector or a wrapper cell and an ``lr`` (1e300 diverges), a shared batch size
    and epoch count, and training and validation images, of mixed shapes only in batches of one. The runs share a
    seed where the shapes mix; where they do not, about half the groups alternate their runs between two seeds, so
    one stack holds rows of both, in seed order or mixed. In about half the groups every run has one base selector,
    so its runs share one base call per block; there a wrapped BCE, focal or combo run, whose base value is not
    confined to [0, 1], can leave the group (at lr 10 its output saturates) while its plain and wrapped partners go
    on. About half the runs take an earlier run's rate, so runs of one seed, base and rate share a stack row, and
    some runs repeat an earlier config; a wrapper cell's gamma goes up to 0.99, so a wrapped run and a plain one of
    its base part at the first chunk, at a later one or not at all."""
    configs, seed, epochs = [], draw(st.integers(0, 3)), draw(st.integers(1, 2))
    n_train, n_val = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    mixed = draw(st.booleans())
    if mixed:
        shapes, batch_size = draw(st.lists(IMAGE_SHAPES, min_size=n_train + n_val, max_size=n_train + n_val)), 1
    else:
        shapes, batch_size = [draw(IMAGE_SHAPES)] * (n_train + n_val), draw(st.integers(1, n_train + 1))
    shared = draw(st.sampled_from(LOSS_NAMES)) if draw(st.booleans()) else None  # the group's one base selector
    spread = not mixed and draw(st.booleans())  # runs alternate between two seeds
    for _ in range(draw(st.integers(1, 4))):
        if configs and draw(st.integers(0, 3)) == 0:  # a duplicate
            configs.append(draw(st.sampled_from(configs)))
            continue
        if configs and draw(st.booleans()):  # an earlier run's rate, so runs of one base can share a row
            lr = draw(st.sampled_from([c.lr for c in configs]))
        else:
            lr = draw(st.one_of(st.sampled_from([1e300, 10.0]), st.floats(1e-3, 0.1)))
        if draw(st.booleans()):  # a wrapper cell; outside a shared group, on a loss whose value lies in [0, 1]
            cell = AdaptiveLogParams(gamma=draw(st.floats(0.05, 0.99)), omega=draw(st.floats(1.0, 20.0)),
                                     epsilon=draw(st.floats(0.1, 2.0)))
            loss_fn = wrap_loss_fn(make_loss(shared or draw(st.sampled_from(sorted(OVERLAP)))), cell)
        else:
            loss_fn = make_loss(shared or draw(st.sampled_from(LOSS_NAMES)))
        configs.append(TrainConfig(lr=lr, batch_size=batch_size, max_epochs=epochs, loss_fn=loss_fn,
                                   seed=seed + len(configs) % 2 * spread))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    samples = [Sample(rng.uniform(size=s), (rng.uniform(size=s) < 0.3).astype(np.uint8)) for s in shapes]
    return configs, samples[:n_train], samples[n_train:]


@FEW
@given(group=groups())
def test_group_run_equals_two_pass_reference(group):
    # every run that trains to the end equals the two-pass loop; a run that diverges leaves the group with the
    # fields it raises alone
    configs, train_set, val_set = group
    for config, got in zip(configs, train(configs, train_set, val_set)):
        if isinstance(got, TrainingDiverged):
            _same_record(got, train([config], train_set, val_set)[0])
        else:
            _same_record(got, _reference_train(config, train_set, val_set))


positive = st.floats(0.0, exclude_min=True, allow_infinity=False)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(gamma=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), omega=positive, epsilon=positive)
@example(gamma=0.1, omega=10.0, epsilon=1e-320)  # x / epsilon overflows before the log
@example(gamma=0.1, omega=1e308, epsilon=1e-308)
@example(gamma=0.999, omega=1.79e308, epsilon=1.0)
@example(gamma=0.5, omega=1e308, epsilon=0.56)
@example(gamma=5e-324, omega=5e-324, epsilon=5e-324)
@example(gamma=0.5, omega=1e-300, epsilon=1e-300)
@example(gamma=0.5, omega=1.0, epsilon=1e308)
def test_accepted_wrapper_params_give_a_finite_curve(gamma, omega, epsilon):
    # a parameter set is accepted exactly when max(1, omega) / epsilon is finite, and then `curve` writes finite
    # values and slopes and a finite jump, with no numpy warning; a rejected set exits 1
    flags = ["--gamma", repr(gamma), "--omega", repr(omega), "--epsilon", repr(epsilon), "--n-points", "11"]
    with tempfile.TemporaryDirectory() as d, warnings.catch_warnings():
        warnings.simplefilter("error")
        out = Path(d) / "curve.csv"
        if not math.isfinite(max(1.0, omega) / epsilon):
            with pytest.raises(ValueError, match="must be finite"):
                AdaptiveLogParams(gamma, omega, epsilon)
            assert main(["curve", *flags, "--out", str(out)]) == EXIT_USAGE
            return
        params = AdaptiveLogParams(gamma, omega, epsilon)
        assert math.isfinite(params.c) and math.isfinite(derivative_jump(params))
        assert main(["curve", *flags, "--out", str(out)]) == EXIT_OK
        with open(out, newline="") as f:
            rows = list(csv.DictReader(f))
    assert len(rows) >= 11
    assert all(math.isfinite(float(r[k])) for r in rows for k in ("loss", "derivative"))
