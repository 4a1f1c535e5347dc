import math

import numpy as np
import pytest

from bcorder.bscbec import (
    BscBecPair,
    DegeneratePairError,
    PairClass,
    PairTag,
    classify_pair,
    critical_point,
    d_curve,
    d_derivative,
    d_func,
    degrading_channel,
    regime,
    thresholds,
)
from bcorder.channels import bec, bsc, cascade
from bcorder.probcore import VERDICT_TOL, DomainError, binary_convolve, binary_entropy


def test_pair_validates_ranges():
    with pytest.raises(DomainError):
        BscBecPair(0.6, 0.5)
    with pytest.raises(DomainError):
        BscBecPair(0.1, 1.2)
    with pytest.raises(DomainError):
        BscBecPair(-0.1, 0.5)


def test_critical_point_rejects_flat_crossover():
    with pytest.raises(DegeneratePairError):
        critical_point(BscBecPair(0.5, 0.8))


def test_thresholds():
    t1, t2, t3 = thresholds(0.1)
    assert t1 == pytest.approx(0.2, abs=1e-15)
    assert t2 == pytest.approx(0.36, abs=1e-15)
    assert t3 == pytest.approx(binary_entropy(0.1), abs=1e-15)
    cols = np.column_stack(thresholds(np.array([0.0, 0.1, 0.5])))
    np.testing.assert_array_equal(cols, [[0.0, 0.0, 0.0], [t1, t2, t3], [1.0, 1.0, 1.0]])


def _closed_form_regime(p: float, e: float) -> tuple[int, bool]:
    """Scalar reference: the first threshold e does not exceed, and the boundary flag."""
    h = 0.0 if p == 0.0 else -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)
    cuts = (2.0 * p, 4.0 * p * (1.0 - p), h)
    tag = next((i for i, t in enumerate(cuts) if e <= t), 3)
    return tag, any(abs(e - t) <= VERDICT_TOL for t in cuts)


def test_regime_matches_scalar_closed_form_on_dense_grid():
    # p = k/256 and e = j/256 hold the p = 0 and p = 1/2 columns, every
    # lattice point of e = 2p (j = 2k) and points of e = 4p(1-p) such as
    # (1/4, 3/4) exactly
    ps = np.arange(129) / 256
    es = np.arange(257) / 256
    tags, flags = regime(ps[:, None], es[None, :])
    assert tags.shape == flags.shape == (129, 257)
    want = [[_closed_form_regime(p, e) for e in es.tolist()] for p in ps.tolist()]
    np.testing.assert_array_equal(tags, [[t for t, _ in row] for row in want])
    np.testing.assert_array_equal(flags, [[b for _, b in row] for row in want])
    on_2p = (es[None, :] == 2.0 * ps[:, None]) & (ps[:, None] > 0.0)
    assert on_2p.sum() == 128 and np.all(tags[on_2p] == 0) and np.all(flags[on_2p])
    assert tags[64, 192] == 1 and flags[64, 192]  # e = 4p(1-p) = 3/4 at p = 1/4
    assert np.all(tags[-1] == 0)  # the p = 1/2 column is degraded throughout


def test_regime_checks_ranges_and_clamps():
    with pytest.raises(DomainError):
        regime(np.array([0.1, 0.6]), 0.5)
    with pytest.raises(DomainError):
        regime(0.1, -0.1)
    tag, flag = regime(0.5 + 1e-13, 1.0 + 1e-13)
    assert int(tag) == 0 and bool(flag)


@pytest.mark.parametrize("call", [
    lambda: BscBecPair(math.nan, 0.5),
    lambda: BscBecPair(0.1, math.nan),
    lambda: regime(np.array([0.1, math.nan]), 0.5),
    lambda: d_func(BscBecPair(0.1, 0.5), np.array([0.5, math.nan])),
    lambda: d_derivative(BscBecPair(0.1, 0.5), math.nan),
    lambda: binary_entropy(math.nan),
    lambda: binary_convolve(0.1, math.nan),
    lambda: bsc(math.nan),
    lambda: bec(math.nan),
])
def test_range_checks_reject_nan(call):
    with pytest.raises(DomainError):
        call()


def test_d_endpoints_vanish():
    rng = np.random.default_rng(2)
    for _ in range(20):
        pair = BscBecPair(rng.uniform(0.01, 0.49), rng.uniform(0.01, 0.99))
        assert abs(d_func(pair, 0.0)) <= 1e-12
        assert abs(d_func(pair, 1.0)) <= 1e-12


def test_d_symmetry_about_one_half():
    rng = np.random.default_rng(3)
    xs = np.linspace(0.0, 1.0, 101)
    for _ in range(20):
        pair = BscBecPair(rng.uniform(0.01, 0.49), rng.uniform(0.01, 0.99))
        vals = d_func(pair, xs)
        assert np.max(np.abs(vals - vals[::-1])) <= 1e-12


def test_d_at_one_half_closed_form():
    pair = BscBecPair(0.1, 0.5)
    assert d_func(pair, 0.5) == pytest.approx(0.5 - binary_entropy(0.1), abs=1e-14)
    assert d_func(pair, 0.5) == pytest.approx(0.031004406410718777, abs=1e-15)


def test_d_derivative_matches_finite_differences():
    xs = np.linspace(0.05, 0.95, 37)
    h = 1e-6
    rng = np.random.default_rng(4)
    for _ in range(10):
        pair = BscBecPair(rng.uniform(0.05, 0.45), rng.uniform(0.05, 0.95))
        fd = (d_func(pair, xs + h) - d_func(pair, xs - h)) / (2.0 * h)
        assert np.max(np.abs(d_derivative(pair, xs) - fd)) <= 1e-6


def test_d_derivative_antisymmetry():
    pair = BscBecPair(0.2, 0.7)
    xs = np.linspace(0.1, 0.9, 33)
    assert np.max(np.abs(d_derivative(pair, xs) + d_derivative(pair, 1.0 - xs))) <= 1e-11


def test_critical_point_none_in_degraded_regime():
    assert critical_point(BscBecPair(0.1, 0.15)) is None
    assert critical_point(BscBecPair(0.3, 0.2)) is None
    assert critical_point(BscBecPair(0.1, 0.2)) is None  # boundary e = 2p


def test_critical_point_is_half_in_convex_regime():
    # between 2p and 4p(1-p) the curve is convex and the extremum sits at 1/2
    assert critical_point(BscBecPair(0.1, 0.3)) == 0.5
    assert critical_point(BscBecPair(0.25, 0.74)) == 0.5
    assert critical_point(BscBecPair(0.1, 0.36)) == 0.5  # closed upper end


def test_critical_point_interior_above_convexity_threshold():
    pair = BscBecPair(0.1, 0.5)
    r = critical_point(pair)
    assert r is not None and 0.0 < r < 0.5
    assert r == pytest.approx(0.05410066396563103, abs=1e-9)
    assert abs(d_derivative(pair, r)) <= 1e-10
    assert d_func(pair, r) < 0.0


def test_critical_point_against_dense_scan():
    # the stationary point is where the derivative changes sign in (0, 1/2)
    for p, e in ((0.1, 0.5), (0.15, 0.8), (0.3, 0.95), (0.05, 0.4)):
        pair = BscBecPair(p, e)
        r = critical_point(pair)
        assert r is not None and 0.0 < r < 0.5
        xs = np.linspace(1e-9, 0.5 - 1e-9, 200001)
        dv = d_derivative(pair, xs)
        flips = np.flatnonzero(np.sign(dv[:-1]) != np.sign(dv[1:]))
        assert flips.size >= 1
        nearest = min(abs(xs[i] - r) for i in flips)
        assert nearest <= 5e-6


def test_critical_point_degenerate_edges():
    assert critical_point(BscBecPair(0.0, 0.5)) is None
    assert critical_point(BscBecPair(0.1, 1.0)) is None


def test_classify_pair_examples():
    assert classify_pair(BscBecPair(0.1, 0.15)).tag is PairTag.DEGRADED_BSC_SIDE
    assert classify_pair(BscBecPair(0.25, 0.74)).tag is PairTag.LESS_NOISY_BEC_SIDE
    assert classify_pair(BscBecPair(0.25, 0.76)).tag is PairTag.MORE_CAPABLE_BEC_SIDE
    assert classify_pair(BscBecPair(0.1, 0.5)).tag is PairTag.ESSENTIALLY_LESS_NOISY_BSC_SIDE


def test_classify_pair_half_column_and_boundaries():
    # at p = 1/2 all three thresholds equal 1: a fair-coin BSC is degraded
    # w.r.t. any BEC, and only e = 1 lies on a boundary
    assert classify_pair(BscBecPair(0.5, 0.3)) == PairClass(PairTag.DEGRADED_BSC_SIDE, False)
    assert classify_pair(BscBecPair(0.5, 1.0)) == PairClass(PairTag.DEGRADED_BSC_SIDE, True)
    assert classify_pair(BscBecPair(0.1, 0.2)).boundary
    assert not classify_pair(BscBecPair(0.1, 0.25)).boundary


def test_convexity_flag_matches_threshold():
    # the gap is convex in x exactly when e <= 4p(1-p), where regime puts the
    # pair in one of its first two classes; a 1e-3 scan sees the concavity
    # at x = 1/2 (second difference -(4/ln 2)(e - 4p(1-p)) 1e-6) outside the band
    rng = np.random.default_rng(6)
    xs = np.linspace(0.0, 1.0, 1001)
    for _ in range(50):
        p = rng.uniform(0.02, 0.48)
        e = rng.uniform(0.0, 1.0)
        if abs(e - 4.0 * p * (1.0 - p)) < 1e-3:
            continue  # skip the band where the call is borderline
        vals = d_func(BscBecPair(p, e), xs)
        second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
        convex = bool(regime(p, e)[0] <= 1)
        assert convex == (e <= 4.0 * p * (1.0 - p))
        assert convex == bool(np.all(second >= -2.0 * VERDICT_TOL))


def test_degrading_channel_exact_cascade():
    rng = np.random.default_rng(8)
    cases = []
    for _ in range(20):
        p = rng.uniform(0.05, 0.45)
        cases.append((p, rng.uniform(0.0, 2.0 * p)))
    # e = 1 forces p = 1/2: every output is an erasure, resolved by a fair coin
    for p, e in [*cases, (0.5, 1.0)]:
        pair = BscBecPair(p, e)
        w = degrading_channel(pair)
        assert w is not None
        assert np.max(np.abs(cascade(bec(e), w).rows - bsc(p).rows)) <= 1e-12


def test_degrading_channel_structure():
    # letter rows form a crossover of rate (p - e/2)/(1 - e); the erasure
    # symbol (middle output) resolves by a fair coin
    pair = BscBecPair(0.2, 0.2)
    w = degrading_channel(pair)
    assert w is not None
    assert np.allclose(w.rows[[0, 2]], [[0.875, 0.125], [0.125, 0.875]], atol=1e-12)
    assert np.allclose(w.rows[1], [0.5, 0.5], atol=1e-12)


def test_degrading_channel_absent_above_threshold():
    assert degrading_channel(BscBecPair(0.1, 0.21)) is None
    assert degrading_channel(BscBecPair(0.2, 0.9)) is None


def test_d_curve_sampling():
    pair = BscBecPair(0.1, 0.5)
    pts = d_curve(pair, samples=11)
    assert len(pts) == 11
    assert pts[0] == (0.0, pytest.approx(0.0, abs=1e-12))
    assert pts[-1][0] == 1.0
    assert pts[5][1] == pytest.approx(d_func(pair, 0.5), abs=1e-15)
    with pytest.raises(Exception):
        d_curve(pair, samples=1)
