"""Property tests on random inputs: loss ranges, the wrapper's shape, PGM parsing.

Derandomized with few examples, so the suite stays deterministic and fast.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segbench.adaptive import DEFAULT_PARAMS, adaptive_log_forward
from segbench.losses import LOSS_NAMES, make_loss
from segbench.synthdata import PGMError, read_pgm

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
