"""The Cephes ndtr/ndtri port against scipy.special, its oracle: equal bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from heatflex import TruncatedNormalIndoor, scenario
from heatflex.normal import ndtr, ndtri

E2 = 0.13533528323661269189  # e^-2, where ndtri leaves its middle branch
E32 = math.exp(-32.0)  # where sqrt(-2 log y) reaches 8, ndtri's switch to P2/Q2


def assert_same(got, want):
    """nan where want is nan, and the same bits everywhere else (zeros keep their sign)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    bad = np.flatnonzero(got[~nan].view(np.int64) != want[~nan].view(np.int64))
    assert not len(bad), (want[~nan][bad[:5]], got[~nan][bad[:5]])


def around(value, steps=2):
    """value and its neighbours up to `steps` ulps either side."""
    out = [value]
    for direction in (-math.inf, math.inf):
        v = value
        for _ in range(steps):
            v = math.nextafter(v, direction)
            out.append(v)
    return out


def ndtr_all(values):
    return np.array([ndtr(float(a)) for a in values])


def test_ndtri_dense_grid():
    rng = np.random.default_rng(20231)
    y = np.concatenate([
        np.linspace(0.0, 1.0, 100_001),
        rng.random(400_000),
        1e-10 * rng.random(50_000),  # both tails, far out
        1.0 - 1e-10 * rng.random(50_000),
        np.exp(-rng.uniform(0.0, 700.0, 100_000)),  # down to 1e-304, mostly the P2/Q2 tail
        5e-324 * rng.integers(1, 2**20, 1_000),  # subnormals
    ])
    assert_same(ndtri(y), special.ndtri(y))
    grid = y[:700_000].reshape(-1, 10)  # the (records, expansion) shape of the draws
    assert_same(ndtri(grid), special.ndtri(grid))


EDGE_Y = [
    0.0, 1.0, 5e-324, 1e-320, 1e-300, 1e-20, 1e-15, 0.5, 1.0 - 2**-53, 0.25, 0.75,
    math.nan, -0.1, 1.1, -math.inf, math.inf, -0.0,
    *around(E2), *around(1.0 - E2), *around(E32), *around(1.0 - E32),
    # rare inputs on which a one-ulp change to P2[0] or Q2[1] shows
    2.4252187255638496e-22, 1.1988337521654254e-23, 2.988793753639799e-24,
    5.882995649832772e-15,
]


@pytest.mark.parametrize("y", EDGE_Y)
def test_ndtri_branch_edges(y):
    assert_same(ndtri(np.array([y])), special.ndtri(np.array([y])))


def test_ndtri_edge_values():
    assert ndtri(np.array([0.0]))[0] == -math.inf
    assert ndtri(np.array([1.0]))[0] == math.inf
    assert np.isnan(ndtri(np.array([math.nan, -0.1, 1.1]))).all()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=50))
@example([E2, 1.0 - E2, E32, 5e-324])
def test_ndtri_equals_scipy(ys):
    y = np.array(ys)
    assert_same(ndtri(y), special.ndtri(y))


def test_ndtr_dense_grid():
    rng = np.random.default_rng(20232)
    a = np.concatenate([
        np.linspace(-40.0, 40.0, 80_001),
        rng.normal(0.0, 3.0, 40_000),
        rng.uniform(-1.5, 1.5, 40_000),  # erf, and erfc through 1 - erf
    ])
    assert_same(ndtr_all(a), special.ndtr(a))


SQRT2 = math.sqrt(2.0)
EDGE_A = [
    0.0, -0.0, math.nan, math.inf, -math.inf,
    *around(1.0), *around(-1.0),  # |x| = 1/sqrt(2): erf or erfc
    *around(SQRT2 / 2), *around(-SQRT2 / 2),
    *around(SQRT2), *around(-SQRT2),  # |x| = 1: erfc's own switch to 1 - erf
    *around(8 * SQRT2), *around(-8 * SQRT2),  # |x| = 8: P/Q or R/S
    37.5, -37.5, 37.7, -37.7, 38.0, -38.0, 38.5, -38.5,  # x^2 beyond MAXLOG: underflow
]


@pytest.mark.parametrize("a", EDGE_A)
def test_ndtr_branch_edges(a):
    assert_same(ndtr_all([a]), special.ndtr(np.array([a])))


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True))
@example(-2.0)  # where 0.5 * erfc(-a / sqrt(2)) alone is an ulp off
def test_ndtr_equals_scipy(a):
    assert_same(ndtr_all([a]), special.ndtr(np.array([a])))


def scipy_truncated_normal(model, u):
    """The mapping through scipy.special that _truncated_normal replaced, kept as reference."""
    a = (model.low - model.mean) / model.sd
    b = (model.high - model.mean) / model.sd
    fa, fb = special.ndtr(a), special.ndtr(b)
    return model.mean + model.sd * special.ndtri(fa + u * (fb - fa))


@pytest.mark.parametrize("model", [
    TruncatedNormalIndoor(mean=19.0, sd=2.5, low=14.0, high=24.0, seed=7),  # the benchmark's
    TruncatedNormalIndoor(mean=20.0, sd=0.1, low=14.0, high=24.0, seed=3),  # ndtr underflows
    TruncatedNormalIndoor(mean=15.0, sd=4.0, low=14.0, high=15.5, seed=11),
])
def test_truncated_normal_equals_scipy_mapping(model):
    stream_keys = np.arange(3_000, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    u = scenario._philox_uniforms(scenario._philox_keys(model.seed, stream_keys), 10)
    assert_same(scenario._truncated_normal(model, u), scipy_truncated_normal(model, u))
