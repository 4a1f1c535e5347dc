import io
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bcorder import regions
from bcorder.channels import Dmc, bec, bsc, channel_mi, mi_batch, split_input_pair
from bcorder.classify import AuxDecomposition, simplex_grid
from bcorder.cli import main
from bcorder.probcore import CELL_FLOOR, SIMPLEX_TOL, Dist, DomainError, binary_convolve, binary_entropy, entropy_vec
from bcorder.regions import (
    RatePoint,
    RegionFrontier,
    frontier_contains,
    frontier_csv,
    frontier_distance,
    outer_bound_eq_ob,
    region_frontiers,
    superposition_region,
    theorem1_region,
    theorem2_region,
)

BSC_CAP = 1.0 - binary_entropy(0.1)  # capacity of the crossover-0.1 side

_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def test_rate_point_validation():
    with pytest.raises(DomainError):
        RatePoint(-0.1, 0.2)
    pt = RatePoint(-1e-12, 0.3)  # tiny negatives clamp to zero
    assert pt.r1 == 0.0
    with pytest.raises(DomainError):
        RatePoint(float("nan"), 0.0)


def test_frontier_validation():
    good = (RatePoint(0.0, 0.5), RatePoint(0.5, 0.0))
    RegionFrontier(points=good)
    with pytest.raises(DomainError):
        RegionFrontier(points=())
    with pytest.raises(DomainError):
        RegionFrontier(points=(RatePoint(0.5, 0.0), RatePoint(0.0, 0.5)))  # r1 not sorted
    with pytest.raises(DomainError):
        RegionFrontier(points=(RatePoint(0.0, 0.1), RatePoint(0.5, 0.2)))  # r2 increases
    dec = AuxDecomposition(Dist.uniform(1), np.array([[0.5, 0.5]]))
    with pytest.raises(DomainError, match="one entry per point"):
        RegionFrontier(points=good, provenance=(dec,))
    with pytest.raises(DomainError, match="one entry per point"):  # a sweep's ids, checked before any is resolved
        RegionFrontier(points=good, provenance=regions._SweepIds((0,), [], {}))


def test_frontier_contains_semantics():
    fr = RegionFrontier(points=(RatePoint(0.0, 0.5), RatePoint(0.5, 0.0)))
    assert frontier_contains(fr, RatePoint(0.2, 0.2))
    assert frontier_contains(fr, RatePoint(0.25, 0.25))  # on the segment
    assert not frontier_contains(fr, RatePoint(0.3, 0.3))
    assert not frontier_contains(fr, RatePoint(0.6, 0.0))  # beyond max r1


def test_frontier_csv_format():
    fr = RegionFrontier(points=(RatePoint(0.0, 0.5), RatePoint(0.5, 0.0)))
    text = frontier_csv(fr)
    lines = text.strip().split("\n")
    assert lines[0] == "r1,r2"
    assert lines[1] == "0.000000000,0.500000000"
    assert len(lines) == 3


def test_frontier_distance_on_shifted_copy():
    pts = (RatePoint(0.0, 0.5), RatePoint(0.3, 0.3), RatePoint(0.5, 0.0))
    fr = RegionFrontier(points=pts)
    assert frontier_distance(fr, fr) == pytest.approx(0.0, abs=1e-15)
    shifted = RegionFrontier(points=tuple(RatePoint(p.r1 + 0.01, p.r2) for p in pts))
    # largest at r1 = 0.31, where fr is at 0.3 - 0.01 * 1.5 = 0.285 and the copy
    # at 0.3, and at r1 = 0.5, where fr is at 0 and the copy at 0.3 - 0.19 * 1.5
    assert frontier_distance(fr, shifted) == pytest.approx(0.015, abs=1e-12)
    assert frontier_distance(shifted, fr) == frontier_distance(fr, shifted)


def test_frontier_distance_at_a_final_step_and_past_a_short_frontier():
    # a final vertical step leaves the region's upper edge as it is
    step = RegionFrontier(points=(RatePoint(0.0, 0.5), RatePoint(0.5, 0.5), RatePoint(0.5, 0.0)))
    flat = RegionFrontier(points=(RatePoint(0.0, 0.5), RatePoint(0.5, 0.5)))
    assert frontier_distance(step, flat) == 0.0
    # past the end of a short frontier that ends high, its edge is 0: the gap
    # is 0.55 - 0.5 * 0.55 = 0.275 just past r1 = 0.5, not 0.45 at r1 = 1
    short = RegionFrontier(points=(RatePoint(0.0, 0.5), RatePoint(0.5, 0.45)))
    long = RegionFrontier(points=(RatePoint(0.0, 0.55), RatePoint(1.0, 0.0)))
    assert frontier_distance(short, long) == pytest.approx(0.275, abs=1e-12)


def test_superposition_corners_dominant_crossover():
    fr = superposition_region(bsc(0.1), bec(0.5), step=0.02)
    assert fr.max_r1 == pytest.approx(BSC_CAP, abs=1e-9)
    assert fr.max_r2 == pytest.approx(0.5, abs=1e-9)


def test_superposition_corners_role_swap():
    # degraded regime: the erasure side carries the private stream
    fr = superposition_region(bec(0.15), bsc(0.1), step=0.02)
    assert fr.max_r1 == pytest.approx(0.85, abs=1e-9)
    assert fr.max_r2 == pytest.approx(BSC_CAP, abs=1e-9)


def test_superposition_identical_channels_is_time_sharing():
    fr = superposition_region(bsc(0.1), bsc(0.1), step=0.1)
    assert len(fr.points) == 2
    assert fr.points[0].as_tuple() == pytest.approx((0.0, BSC_CAP), abs=1e-12)
    assert fr.points[-1].as_tuple() == pytest.approx((BSC_CAP, 0.0), abs=1e-12)


def test_refinement_monotonicity_binary():
    coarse = superposition_region(bsc(0.1), bec(0.5), step=0.04)
    fine = superposition_region(bsc(0.1), bec(0.5), step=0.02)
    for pt in coarse.points:
        assert frontier_contains(fine, pt, tol=1e-12)


def test_refinement_monotonicity_four_letter():
    y1, y2 = split_input_pair()
    coarse = superposition_region(y1, y2, step=0.05)
    fine = superposition_region(y1, y2, step=0.025)
    for pt in coarse.points:
        assert frontier_contains(fine, pt, tol=1e-12)


def test_inner_bound_inside_outer_bounds():
    for p, e in ((0.1, 0.15), (0.1, 0.3), (0.1101, 0.4), (0.1, 0.5)):
        dom, weak = (bsc(p), bec(e)) if e > binary_entropy(p) else (bec(e), bsc(p))
        inner = superposition_region(dom, weak, step=0.04)
        ob = outer_bound_eq_ob(dom, weak, step=0.04)
        for pt in inner.points:
            assert frontier_contains(ob, pt, tol=1e-9)


def test_theorem1_matches_outer_bound_under_dominance():
    inner = theorem1_region(bsc(0.1), bec(0.5), [Dist.uniform(2)], step=0.02)
    outer = outer_bound_eq_ob(bsc(0.1), bec(0.5), step=0.02)
    assert frontier_distance(inner, outer) <= 1e-9


def test_theorem1_matches_constrained_superposition_under_dominance():
    # with the dominant receiver ahead on the class, the unconditional cap
    # is implied by the chain rule, so the two descriptions coincide
    uni = Dist.uniform(2)
    t1 = theorem1_region(bsc(0.1), bec(0.5), [uni], step=0.02)
    ib = superposition_region(bsc(0.1), bec(0.5), marginal_constraint=uni, step=0.02)
    assert frontier_distance(t1, ib) <= 1e-9


def _inverse_binary_entropy(s):
    """h^-1 on [0, 1/2], by bisection on binary_entropy, elementwise."""
    lo, hi = np.zeros_like(s), np.full_like(s, 0.5)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = binary_entropy(mid) < s
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


# On {uniform}, I(X;Y_bec|U) = (1-e) H(X|U) exactly, and Mrs. Gerber's Lemma
# (Wyner & Ziv 1973) gives H(Y_bsc|U) >= phi_p(H(X|U)), phi_p(s) = h(h^-1(s) * p),
# with equality for X = U xor Bern(h^-1(s)); phi_p is convex, so its chord
# h(p) + (1 - h(p)) s is an upper bound, met by U fixing X or leaving it uniform.
@pytest.mark.parametrize("step", [1 / 25, 1 / 50])
@pytest.mark.parametrize("p, e", [(0.1, 0.6), (0.05, 0.5), (0.2, 0.9)])
def test_theorem1_frontier_is_the_closed_form_segment(p, e, step):
    # BSC(p) dominant, e > h(p): the chord makes r2 + r1 (1-e)/(1-h(p)) <= 1-e tight
    assert e > binary_entropy(p)
    fr = theorem1_region(bsc(p), bec(e), [Dist.uniform(2)], step=step)
    pts = fr.as_array()
    cap = 1.0 - binary_entropy(p)
    assert np.abs(pts[0] - (0.0, 1.0 - e)).max() <= SIMPLEX_TOL
    assert np.abs(pts[-1] - (cap, 0.0)).max() <= SIMPLEX_TOL
    assert np.abs(pts[:, 1] - (1.0 - e) * (1.0 - pts[:, 0] / cap)).max() <= SIMPLEX_TOL


@pytest.mark.parametrize("step", [1 / 25, 1 / 50])
@pytest.mark.parametrize("p, e", [(0.1, 0.42), (0.1, 0.45), (0.05, 0.25), (0.2, 0.7), (0.15, 0.55)])
def test_theorem2_frontier_lies_under_the_closed_form_curve(p, e, step):
    # BEC(e) dominant, 4p(1-p) < e < h(p): the frontier is ((1-e) s, 1 - phi_p(s)),
    # s in [0, 1], clipped by r1 + r2 <= 1-e; a grid sweep may only fall short of it
    assert 4.0 * p * (1.0 - p) < e < binary_entropy(p)
    fr = theorem2_region(bec(e), bsc(p), [Dist.uniform(2)], step=step)
    r1, r2 = fr.as_array().T
    s = np.clip(r1 / (1.0 - e), 0.0, 1.0)
    curve = 1.0 - binary_entropy(binary_convolve(_inverse_binary_entropy(s), p))
    assert np.all(r2 <= np.minimum(curve, 1.0 - e - r1) + SIMPLEX_TOL)


def test_theorem2_four_letter_corners():
    y1, y2 = split_input_pair()
    u01 = Dist(np.array([0.5, 0.5, 0.0, 0.0]))
    fr = theorem2_region(y1, y2, [u01], step=0.02)
    assert frontier_contains(fr, RatePoint(1.0 - 1e-9, 0.0), tol=1e-9)
    assert frontier_contains(fr, RatePoint(0.0, BSC_CAP - 1e-9), tol=1e-9)
    assert fr.max_r1 == pytest.approx(1.0, abs=1e-9)
    assert fr.max_r2 == pytest.approx(BSC_CAP, abs=1e-9)


def test_degenerate_weak_receiver_pins_private_stream():
    fr = theorem1_region(bsc(0.1), bec(1.0), [Dist.uniform(2)], step=0.05)
    assert len(fr.points) == 1
    assert fr.points[0].as_tuple() == pytest.approx((BSC_CAP, 0.0), abs=1e-9)


def test_degenerate_dominant_receiver_pins_common_stream():
    fr = outer_bound_eq_ob(bec(1.0), bsc(0.1), step=0.05)
    assert fr.max_r1 == pytest.approx(0.0, abs=1e-9)
    assert fr.max_r2 == pytest.approx(BSC_CAP, abs=1e-9)


def test_one_input_free_sweeps_give_the_origin():
    # one input letter has one law and nothing to pair it with, so each free
    # sweep is that law alone, where every rate is 0; the coarse pair batch
    # of one letter would never stop refining its grid
    one = Dmc(np.array([[0.3, 0.7]]), ("0", "1"))
    for which in (["ib"], ["ob"]):
        (frontier,) = regions.region_frontiers(one, one, which).values()
        assert frontier.points == (RatePoint(0.0, 0.0),)


def test_provenance_revalidates_frontier_points():
    dom, weak = bsc(0.1), bec(0.5)
    fr = superposition_region(dom, weak, step=0.04)
    assert len(fr.provenance) == len(fr.points)
    for pt, dec in zip(fr.points, fr.provenance):
        a = dec.mi_aux(weak)
        b = a + dec.mi_conditional(dom)
        c = channel_mi(dom, dec.induced_marginal())
        assert pt.r2 <= a + 1e-9
        assert pt.r1 + pt.r2 <= min(b, c) + 1e-9


def test_constrained_sweep_respects_marginal():
    target = Dist(np.array([0.3, 0.7]))
    fr = superposition_region(bsc(0.1), bec(0.5), marginal_constraint=target, step=0.04)
    for dec in fr.provenance:
        assert np.max(np.abs(dec.induced_marginal().probs - target.probs)) <= 1e-9
    # constrained region cannot exceed the unconstrained one
    free = superposition_region(bsc(0.1), bec(0.5), step=0.04)
    for pt in fr.points:
        assert frontier_contains(free, pt, tol=1e-9)


def test_diagnostics_reported():
    fr = superposition_region(bsc(0.1), bec(0.5), step=0.04)
    assert fr.diagnostics["num_decompositions"] > 0
    assert fr.diagnostics["num_candidates"] >= len(fr.points)
    assert fr.diagnostics["aux3_points"] == 0


def test_mismatched_inputs_rejected():
    y1, _ = split_input_pair()
    with pytest.raises(DomainError):
        superposition_region(y1, bsc(0.1))


def _lexsort_pareto(points, idx):
    """Reference Pareto filter: the lexsort, the exact staircase, then the last-kept rule on r2 and on r1."""
    order = np.lexsort((-points[:, 1], -points[:, 0]))
    pts = points[order]
    ids = idx[order]
    r2 = pts[:, 1]
    stairs = np.empty(r2.size, dtype=bool)
    stairs[0] = True
    if r2.size > 1:
        stairs[1:] = r2[1:] > np.maximum.accumulate(r2)[:-1]
    keep = [0]
    for k in np.flatnonzero(stairs)[1:]:
        if r2[k] > r2[keep[-1]] + SIMPLEX_TOL:
            keep.append(k)
    pts, ids = pts[keep][::-1], ids[keep][::-1]
    # a staircase point within SIMPLEX_TOL in r1 of the last kept point goes
    apart = [0]
    for i in range(1, ids.size):
        if pts[i, 0] > pts[apart[-1], 0] + SIMPLEX_TOL:
            apart.append(i)
    return pts[apart], ids[apart]


@_PROPERTY
@given(
    n=st.sampled_from([1, 2, 5, 40, 300]),
    lattice=st.sampled_from([3, 16, 0]),
    nudge=st.sampled_from(["ulps", "tol"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_pareto_filter_is_a_tolerant_frontier(n, lattice, nudge, seed):
    # near ties: copies of points moved a few ulps, or up to 2 SIMPLEX_TOL,
    # in r1, r2 or both; values within SIMPLEX_TOL count as equal in both
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    if lattice:
        pts = np.round(pts * lattice) / lattice
    near = pts[rng.integers(0, n, n)]
    if nudge == "ulps":
        near = near + rng.integers(-2, 3, near.shape) * np.spacing(near)
    else:
        near = near + rng.integers(-20, 21, near.shape) * (SIMPLEX_TOL / 10)
    cloud = np.vstack([pts, near])
    got, ids = regions._pareto_filter(cloud, np.arange(cloud.shape[0]))
    assert np.array_equal(got, cloud[ids])
    # a staircase: r1 rises and r2 falls, each by more than SIMPLEX_TOL
    assert np.all(np.diff(got[:, 0]) > SIMPLEX_TOL)
    assert np.all(np.diff(got[:, 1]) < -SIMPLEX_TOL)
    # that covers the cloud: each point is dominated by a kept one, up to
    # the nudges (a run of near ties can drift by its whole spread)
    slack = 5 * SIMPLEX_TOL
    covered = (got[None, :, 0] >= cloud[:, None, 0] - slack) & (got[None, :, 1] >= cloud[:, None, 1] - slack)
    assert covered.any(axis=1).all()


def test_pareto_filter_near_ties_do_not_creep():
    # each r2 lies within SIMPLEX_TOL of the next, but (0.8, 1.8e-12) lies
    # more than SIMPLEX_TOL above the kept (1, 0)
    pts = np.array([[1.0, 0.0], [0.9, 0.9e-12], [0.8, 1.8e-12], [0.7, 2.7e-12]])
    got, ids = regions._pareto_filter(pts, np.arange(4))
    assert np.array_equal(got, pts[[2, 0]]) and np.array_equal(ids, [2, 0])
    want, want_ids = _lexsort_pareto(pts, np.arange(4))
    assert np.array_equal(got, want) and np.array_equal(ids, want_ids)


def test_pareto_filter_r1_near_ties_do_not_creep():
    # each r1 lies within SIMPLEX_TOL of the next, but 0.7 + 1.8e-12 lies
    # more than SIMPLEX_TOL right of the kept 0.7
    pts = np.array([[0.7, 1.0], [0.7 + 0.9e-12, 0.9], [0.7 + 1.8e-12, 0.8], [0.7 + 2.7e-12, 0.7]])
    got, ids = regions._pareto_filter(pts, np.arange(4))
    assert np.array_equal(got, pts[[0, 2]]) and np.array_equal(ids, [0, 2])
    want, want_ids = _lexsort_pareto(pts, np.arange(4))
    assert np.array_equal(got, want) and np.array_equal(ids, want_ids)


def test_outer_bound_frontiers_end_without_a_vertical_step_of_rounding():
    # r1 = I(X;Y_a) came out 1 ulp apart on two decompositions, and both
    # points were kept: BEC(0.5)/BSC(0.1) ended at r1 = 0.5 and 0.5000000000000001,
    # BSC(0.1)/BEC(0.15) at r1 = 0.5310044064107188 and ...189
    for dominant, weak, r1, r2 in (
        (bec(0.5), bsc(0.1), 0.5, 0.05890986946064969),
        (bsc(0.1), bec(0.15), 0.5310044064107188, 0.3189955935892814),
    ):
        fr = outer_bound_eq_ob(dominant, weak)
        xs = np.array([p.r1 for p in fr.points])
        assert np.all(np.diff(xs) > SIMPLEX_TOL)
        assert fr.points[-1] == RatePoint(r1, r2)


@_PROPERTY
@given(
    n=st.sampled_from([1, 2, 7, 300, regions._PARETO_BINS, regions._PARETO_BINS + 1, 9000]),
    lattice=st.sampled_from([1, 3, 16, 250, 0]),
    r1_mode=st.sampled_from(["free", "columns", "constant"]),
    duplicates=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_pareto_filter_matches_lexsort_reference(n, lattice, r1_mode, duplicates, seed):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    if lattice:  # coarse lattice: many exact ties in r1, r2 or both
        pts = np.round(pts * lattice) / lattice
    if r1_mode == "columns":
        pts[:, 0] = rng.integers(0, 5, n) / 4.0
    elif r1_mode == "constant":
        pts[:, 0] = 0.375
    if duplicates:
        pts = np.vstack([pts, pts[rng.integers(0, n, n // 2 + 1)]])
    idx = rng.permutation(pts.shape[0])
    got_pts, got_ids = regions._pareto_filter(pts, idx)
    want_pts, want_ids = _lexsort_pareto(pts, idx)
    assert np.array_equal(got_pts, want_pts)
    assert np.array_equal(got_ids, want_ids)


@_PROPERTY
@given(
    n=st.sampled_from([1, 7, 300, regions._PARETO_BINS + 1, 9000, 20000]),
    lattice=st.sampled_from([1, 3, 16, 250, 0]),
    r1_mode=st.sampled_from(["free", "columns", "constant", "zero", "zero-ties", "above"]),
    duplicates=st.booleans(),
    nans=st.booleans(),
    arc=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_streamed_prepass_matches_lexsort_on_the_whole_cloud(n, lattice, r1_mode, duplicates, nans, arc, seed):
    # the sweep drops dominated points chunk by chunk, each chunk given as a
    # few blocks (its corner blocks) to one staircase that serves every chunk,
    # its r1 bins fixed over [0, log2 2], and sorts only the concatenated
    # survivors
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    if arc:  # a dense frontier: half the points on a concave arc, several per r1 bin
        pts[:, 1] = np.sqrt(1.0 - pts[:, 0] ** 2) * np.where(rng.random(n) < 0.5, 1.0, pts[:, 1])
    if lattice:
        pts = np.round(pts * lattice) / lattice
    if r1_mode == "columns":
        pts[:, 0] = rng.integers(0, 5, n) / 4.0
    elif r1_mode == "constant":
        pts[:, 0] = 0.375
    elif r1_mode in ("zero", "zero-ties"):  # r1 = 0 on some or all points
        zero = rng.random(n) < rng.choice([0.5, 1.0])
        pts[zero, 0] = 0.0
        if r1_mode == "zero-ties":  # the r1 = 0 maximum tied across chunks: the first in input order wins
            pts[zero, 1] = np.where(rng.random(zero.sum()) < 0.3, 1.0, pts[zero, 1])
    elif r1_mode == "above":  # some or all r1 above the bin range: they clip into the last bin
        pts[:, 0] = pts[:, 0] * rng.choice([1.5, 4.0]) + rng.choice([0.0, 1.0])
    if duplicates:
        pts = np.vstack([pts, pts[rng.integers(0, n, n // 2 + 1)]])
    if nans:
        pts[rng.integers(0, pts.shape[0], 3), 1] = np.nan
    idx = rng.permutation(pts.shape[0])
    # cut points: chunks below and above _PARETO_BINS, and empty ones, each
    # cut again into up to four blocks
    cuts = np.sort(rng.integers(0, pts.shape[0] + 1, rng.integers(0, 6)))
    bounds = [0, *cuts.tolist(), pts.shape[0]]
    stairs = regions._Staircase(2)
    rows = []
    with np.errstate(invalid="ignore"):  # NaN r2 in np.maximum.at
        for lo, hi in zip(bounds, bounds[1:]):
            edges = [lo, *np.sort(rng.integers(lo, hi + 1, rng.integers(0, 4))).tolist(), hi]
            blocks = list(zip(edges, edges[1:]))
            keep = stairs.survivors([pts[s:e, 0] for s, e in blocks], [pts[s:e, 1] for s, e in blocks])
            rows.extend(s + k for (s, _), k in zip(blocks, keep))
        rows = np.concatenate(rows)
        got_pts, got_ids = regions._pareto_filter(pts[rows], idx[rows])
        want_pts, want_ids = _lexsort_pareto(pts, idx)
    assert np.array_equal(got_pts, want_pts, equal_nan=True)
    assert np.array_equal(got_ids, want_ids)


def test_pareto_prepass_on_outer_bound_sweep(monkeypatch):
    # rows reaching the lexsort, over the whole streamed sweep, and the
    # staircases and chunks behind them
    sorted_rows, built, runs = [], [], []
    pareto, staircase = regions._pareto_filter, regions._Staircase

    def counted(points, idx):
        sorted_rows.append(points.shape[0])
        return pareto(points, idx)

    class Counted(staircase):
        def __init__(self, m):
            super().__init__(m)
            built.append(self)

        def survivors(self, r1s, r2s):
            runs.append(self)
            return super().survivors(r1s, r2s)

    monkeypatch.setattr(regions, "_pareto_filter", counted)
    monkeypatch.setattr(regions, "_Staircase", Counted)
    fast = outer_bound_eq_ob(bec(0.5), bsc(0.1))
    assert sorted_rows and max(sorted_rows) < 0.05 * fast.diagnostics["num_candidates"]
    # one staircase serves every chunk of the sweep
    assert len(built) == 1 and len(runs) > 1 and set(runs) == set(built)
    # the reference keeps every corner and sorts the whole cloud
    monkeypatch.setattr(regions, "_Staircase", staircase)
    monkeypatch.setattr(staircase, "survivors", lambda self, r1s, r2s: [np.arange(r.size) for r in r1s])
    monkeypatch.setattr(regions, "_pareto_filter", _lexsort_pareto)
    ref = outer_bound_eq_ob(bec(0.5), bsc(0.1))
    assert fast.points == ref.points
    assert ref.diagnostics["num_survivors"] > fast.diagnostics["num_survivors"]
    assert fast.diagnostics == {**ref.diagnostics, "num_survivors": fast.diagnostics["num_survivors"]}
    assert len(fast.provenance) == len(ref.provenance)
    for d, e in zip(fast.provenance, ref.provenance):
        assert np.array_equal(d.pu.probs, e.pu.probs)
        assert np.array_equal(d.px_given_u, e.px_given_u)


def _reference_upper_hull(points, idx):
    n = points.shape[0]
    if n <= 2:
        return points, idx
    stack = []
    for i in range(n):
        while len(stack) >= 2:
            o = points[stack[-2]]
            a = points[stack[-1]]
            b = points[i]
            cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
            if cross >= -CELL_FLOOR:
                stack.pop()
            else:
                break
        stack.append(i)
    sel = np.array(stack, dtype=int)
    return points[sel], idx[sel]


def _monotone_concave(rng, n, runs):
    """n points, r1 ascending and r2 descending, slopes falling; with runs,
    some neighbouring segments share a slope (collinear within CELL_FLOOR)."""
    dx = rng.random(n - 1) * 0.1 + 1e-3
    steepness = rng.random(n - 1) * 3.0
    if runs:  # a few distinct slopes, each repeated
        steepness = rng.choice(steepness[: max(1, (n - 1) // 4)], n - 1)
    slopes = -np.sort(steepness)
    x = np.concatenate([[0.0], np.cumsum(dx)]) * rng.random()
    y = np.concatenate([[0.0], np.cumsum(slopes * dx)])
    return np.column_stack([x, y - y.min() + rng.random()])


def _edge_reference(pts, r1):
    """The upper edge of the region below polyline pts at each r1: pts[0]'s r2
    to its left, the segment through r1 between points, 0 past the last."""
    if pts.shape[0] == 1:
        inside = np.full(r1.shape, pts[0, 1])
    else:
        j = np.clip(np.searchsorted(pts[:, 0], r1), 1, pts.shape[0] - 1)
        (x0, y0), (x1, y1) = pts[j - 1].T, pts[j].T
        inside = y0 + (r1 - x0) / (x1 - x0) * (y1 - y0)
    return np.where(r1 > pts[-1, 0], 0.0, np.where(r1 <= pts[0, 0], pts[0, 1], inside))


def _as_frontier(pts):
    return RegionFrontier(points=tuple(RatePoint(x, y) for x, y in pts.tolist()))


@_PROPERTY
@given(
    n1=st.integers(1, 80),
    n2=st.integers(1, 80),
    runs=st.booleans(),
    relation=st.sampled_from(("apart", "nested", "mirrored")),
    seed=st.integers(0, 2**32 - 1),
)
def test_frontier_distance_is_the_exact_largest_vertical_gap(n1, n2, runs, relation, seed):
    rng = np.random.default_rng(seed)
    polylines = []
    for n in (n1, n2):
        pts = _monotone_concave(rng, n, runs)
        pts[:, 0] += rng.choice([0.0, rng.random() * 0.1])  # some start right of r1 = 0
        if rng.random() < 0.5:  # the rest end above r2 = 0
            pts[:, 1] -= pts[-1, 1]
        polylines.append(pts)
    p1, p2 = polylines
    if relation == "nested":  # vertices of p1, its last one kept in some
        p2 = p1[np.sort(rng.choice(n1, min(n1, n2), replace=False))]
    elif relation == "mirrored":  # p1 reflected in r1 = r2: the two cross
        p2 = p1[::-1, ::-1]
    f1, f2 = _as_frontier(p1), _as_frontier(p2)
    gap = frontier_distance(f1, f2)
    dense = np.linspace(0.0, 1.1 * max(p1[-1, 0], p2[-1, 0]), 2001)
    drops = np.nextafter([p1[-1, 0], p2[-1, 0]], np.inf)
    exact = np.concatenate([dense, p1[:, 0], p2[:, 0], drops])
    sampled, full = (float(np.abs(_edge_reference(p1, r1) - _edge_reference(p2, r1)).max()) for r1 in (dense, exact))
    assert gap >= sampled - 1e-12
    assert gap == pytest.approx(full, abs=1e-12)
    assert frontier_distance(f2, f1) == gap
    assert frontier_distance(f1, f1) == 0.0 and frontier_distance(f2, f2) == 0.0


@_PROPERTY
@given(
    n1=st.integers(1, 80),
    n2=st.integers(1, 80),
    runs=st.booleans(),
    nested=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_upper_hull_is_bit_identical_to_the_reference(n1, n2, runs, nested, seed):
    rng = np.random.default_rng(seed)
    p1 = _monotone_concave(rng, n1, runs)
    # nested: the second polyline is a subset of the first, nudged within CELL_FLOOR
    p2 = p1[np.sort(rng.choice(n1, min(n1, n2), replace=False))] if nested else _monotone_concave(rng, n2, runs)
    if nested:
        p2 = p2 + rng.uniform(-1.0, 1.0, p2.shape) * CELL_FLOOR
    # the hull also sees Pareto sets that are not concave
    wobbly = p1 + np.column_stack([np.zeros(n1), rng.random(n1) * 0.05])
    for pts in (p1, p2, wobbly):
        idx = rng.permutation(pts.shape[0])
        got, want = regions._upper_hull(pts, idx), _reference_upper_hull(pts, idx)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_constrained_sweep_reports_coarsened_step():
    y1, y2 = split_input_pair()
    fr = theorem2_region(y1, y2, [Dist.uniform(4)], step=0.02)
    # the pinned |U|=2 grid over 4 inputs runs at 0.08 under its point cap
    assert fr.diagnostics["step"] == 0.08
    assert fr.diagnostics["requested_step"] == 0.02
    assert fr.diagnostics["num_decompositions"] == 10707
    assert [p.as_tuple() for p in fr.points] == [
        (0.0, 0.28002690597802515),
        (0.31127812445913283, 0.18872187554086717),
        (0.5, 0.0),  # I(X;Y_a) at the exact uniform law, the member's marginal row
    ]
    binary = theorem2_region(bsc(0.1), bec(0.5), [Dist.uniform(2)], step=0.02)
    assert binary.diagnostics["step"] == 0.02
    assert "requested_step" not in binary.diagnostics


def test_free_sweep_reports_coarsened_step(monkeypatch):
    a = Dmc(np.array([[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]]), ("0", "1"))
    b = Dmc(np.array([[0.7, 0.3], [0.4, 0.6], [0.1, 0.9]]), ("0", "1"))
    fine = outer_bound_eq_ob(a, b, step=0.1)
    assert fine.diagnostics["step"] == 0.1
    assert "requested_step" not in fine.diagnostics
    # the two-letter face sweeps never run finer than _FACE_STEP_FLOOR
    assert regions._free_batches(3, 0.01)[2] == regions._FACE_STEP_FLOOR
    monkeypatch.setattr(regions, "_POINT_GRID_CAP", 30)  # 66 points at 0.1, 21 at 0.2
    coarse = outer_bound_eq_ob(a, b, step=0.1)
    assert coarse.diagnostics["step"] == 0.2
    assert coarse.diagnostics["requested_step"] == 0.1
    assert coarse.diagnostics["num_decompositions"] < fine.diagnostics["num_decompositions"]
    for pt in coarse.points:
        assert frontier_contains(fine, pt, tol=1e-12)


def _random_laws(rng, count, size, sparse):
    laws = rng.dirichlet(np.ones(size), size=count)
    if sparse:
        # the largest entry of a law is at least 1/size >= 0.25, so none empties
        laws = np.where(laws < 0.25, 0.0, laws)
        laws /= laws.sum(axis=1, keepdims=True)
    return laws


def _dense_quantities(dominant, weak, weights, rows, mixes):
    """(A, B, C) from the kernels on materialised (N, k, m) conditional rows and (N, m) input laws."""
    n, k, m = rows.shape
    i_dom = mi_batch(dominant.rows, rows.reshape(n * k, m)).reshape(n, k)
    h_cond = entropy_vec(rows @ weak.rows, axis=-1)
    a = np.maximum(0.0, entropy_vec(mixes @ weak.rows, axis=-1) - np.einsum("nk,nk->n", weights, h_cond))
    b = a + np.einsum("nk,nk->n", weights, i_dom)
    return a, b, mi_batch(dominant.rows, mixes)


@_PROPERTY
@given(
    m=st.integers(2, 4),
    n_dom=st.integers(2, 4),
    n_weak=st.integers(2, 4),
    laws=st.integers(1, 12),
    aux=st.integers(2, 3),
    count=st.integers(1, 400),
    sparse=st.booleans(),
    marginals=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_table_indexed_evaluation_equals_dense_rows(m, n_dom, n_weak, laws, aux, count, sparse, marginals, seed):
    # |U| >= 2 only: with one law per decomposition the reference's stacked
    # product takes numpy's vector-matrix route, which rounds differently
    # from the table's matrix product (I(U;Y) is then 0 up to 2e-16 either way)
    rng = np.random.default_rng(seed)
    labels = lambda n: tuple(str(i) for i in range(n))  # noqa: E731
    dominant = Dmc(_random_laws(rng, m, n_dom, sparse), labels(n_dom))
    weak = Dmc(_random_laws(rng, m, n_weak, not sparse), labels(n_weak))
    # half the table is dense, half has zero cells; indices repeat freely
    table = np.vstack([_random_laws(rng, laws, m, False), _random_laws(rng, laws, m, True)])
    cond_idx = rng.integers(0, table.shape[0], size=(count, aux))
    weights = rng.dirichlet(np.ones(aux), size=count)
    if marginals:  # a supplied marginal table: the evaluation takes it as given
        mixes = np.vstack([_random_laws(rng, laws, m, False), _random_laws(rng, laws, m, True)])
        mix_idx = rng.integers(0, mixes.shape[0], size=count)
    else:  # one marginal row per decomposition, the mixture of its laws
        mixes, mix_idx = np.einsum("nk,nkm->nm", weights, table[cond_idx]), np.arange(count)
    batch, want_mixes = regions._Batch(weights, cond_idx, table, mixes, mix_idx), mixes[mix_idx]
    values, fresh = regions._batch_values(dominant, weak, batch, {})
    assert fresh == [table.shape[0], mixes.shape[0]]
    got = regions._chunk_quantities(batch, values, slice(0, count))
    want = _dense_quantities(dominant, weak, weights, table[cond_idx], want_mixes)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def _reference_eval_quantities(dominant, weak, weights, cond_idx, table):
    """Per-decomposition (A, B, C), each H(Yw) and I(X;Yd) taken at the decomposition's own mixture."""
    i_dom = mi_batch(dominant.rows, table)
    ry = table @ weak.rows
    h_ry = entropy_vec(ry, axis=-1)
    py = np.einsum("...k,...kj->...j", weights, ry[cond_idx])
    a = np.maximum(0.0, entropy_vec(py, axis=-1) - np.einsum("...k,...k->...", weights, h_ry[cond_idx]))
    b = a + np.einsum("nk,nk->n", weights, i_dom[cond_idx])
    c = mi_batch(dominant.rows, np.einsum("nk,nkm->nm", weights, table[cond_idx]))
    return a, b, c


def _reference_vertices(kind, a, b, c):
    """Every corner of each decomposition's rate polygon, one block per corner, the r1-axis block first."""
    zero = np.zeros_like(a)
    if kind == "sum":
        s = np.minimum(b, c)
        cap = np.minimum(a, s)
        r1, r2 = [s, s - cap], [zero, cap]
    elif kind == "two":
        r1, r2 = [b, b - a], [zero, a]
    else:  # "r1cap"
        c1 = np.minimum(c, b)
        r1, r2 = [c1, np.minimum(c, b - a), c1], [zero, a, np.minimum(b - c1, a)]
    return np.maximum(np.concatenate(r1), 0.0), np.maximum(np.concatenate(r2), 0.0), len(r1)


def _reference_frontier(dominant, weak, batches, kind):
    """The whole candidate cloud of the batches, sorted at once, then the hull."""
    clouds, ids, offset = [], [], 0
    for batch in batches:
        a, b, c = _reference_eval_quantities(dominant, weak, batch.weights, batch.cond_idx, batch.table)
        r1, r2, reps = _reference_vertices(kind, a, b, c)
        clouds.append(np.column_stack([r1, r2]))
        ids.append(np.tile(offset + np.arange(a.size), reps))
        offset += a.size
    return regions._upper_hull(*_lexsort_pareto(np.vstack(clouds), np.concatenate(ids)))[0]


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(m=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1))
def test_marginal_tables_move_no_frontier(m, seed):
    # against the sweep that evaluates every mixture on its own and sorts every
    # corner: the same point count, each point within 1e-12
    rng = np.random.default_rng(seed)
    labels = ("0", "1", "2")
    a = Dmc(_random_laws(rng, m, 3, False), labels)
    b = Dmc(_random_laws(rng, m, 2 + m % 2, True), labels[: 2 + m % 2])
    step = 0.05 if m == 2 else 0.1
    free, free3, _ = regions._free_batches(m, step)
    pinned, pinned3, _ = regions._constrained_batches(Dist.uniform(m), m, step)
    got = region_frontiers(a, b, ["ib", "ob"], step=step)
    got.update(region_frontiers(a, b, ["theorem1", "theorem2"], [Dist.uniform(m)], step=step))
    for name, batches in (("ib", free + free3), ("ob", free + free3),
                          ("theorem1", pinned + pinned3), ("theorem2", pinned + pinned3)):
        want = _reference_frontier(a, b, batches, regions._BOUND_KINDS[name])
        pts = got[name].as_array()
        assert pts.shape == want.shape
        assert np.abs(pts - want).max() <= 1e-12


@_PROPERTY
@given(
    kind=st.sampled_from(["sum", "two", "r1cap"]),
    n=st.sampled_from([1, 2, 60, 1000, regions._PARETO_BINS]),
    lattice=st.sampled_from([1, 2, 4, 16]),
    mode=st.sampled_from(["free", "flat", "zero"]),
    chunks=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_axis_corner_reduction_keeps_the_pareto_set(kind, n, lattice, mode, chunks, seed):
    # coarse lattices tie the largest r1 across axis corners, and an r1cap
    # third corner (c1, min(B - c1, A)) always shares its axis corner's r1;
    # "flat" puts every r1cap corner at r1 = C = 0.5, and "zero" gives some
    # or all decompositions C = 0 and B = A, as on an input face that the
    # dominant receiver cannot tell apart: corners at r1 = 0
    rng = np.random.default_rng(seed)
    a = np.round(rng.random(n) * lattice) / lattice
    b = a + np.round(rng.random(n) * lattice) / lattice
    c = np.round(rng.random(n) * 2 * lattice) / lattice
    if mode == "flat":
        c[:] = 0.5
        b = np.maximum(b, a + 0.5)
    elif mode == "zero":
        face = rng.random(n) < rng.choice([0.5, 1.0])
        b[face], c[face] = a[face], 0.0
    r1, r2, reps = _reference_vertices(kind, a, b, c)
    want = _lexsort_pareto(np.column_stack([r1, r2]), np.tile(7 + np.arange(n), reps))
    cuts = [0, *np.sort(rng.integers(0, n + 1, chunks - 1)).tolist(), n]
    # one staircase for every chunk; r1 reaches 2, past its bins over [0, log2 2]
    stairs = regions._Staircase(2)
    pts, pids = [], []
    for lo, hi in zip(cuts, cuts[1:]):
        if hi > lo:
            p, i, corners = regions._chunk_survivors(kind, a[lo:hi], b[lo:hi], c[lo:hi], 7 + lo, stairs)
            assert corners == reps and p.shape[0] <= 1 + (reps - 1) * (hi - lo)
            pts.append(p)
            pids.append(i)
    got = regions._pareto_filter(np.vstack(pts), np.concatenate(pids))
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def _same_frontier(f, g):
    assert f.points == g.points
    assert f.diagnostics == g.diagnostics
    assert len(f.provenance) == len(g.provenance)
    for d, e in zip(f.provenance, g.provenance):
        assert np.array_equal(d.pu.probs, e.pu.probs)
        assert np.array_equal(d.px_given_u, e.px_given_u)


def test_grouped_frontiers_equal_one_bound_calls():
    three = (
        Dmc(np.array([[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]]), ("0", "1")),
        Dmc(np.array([[0.7, 0.3], [0.4, 0.6], [0.1, 0.9]]), ("0", "1")),
    )
    for a, b, step in ((bsc(0.1), bec(0.5), 0.05), (bec(0.15), bsc(0.1), 0.05), (*three, 0.1)):
        m = a.input_size
        uni = Dist.uniform(m)
        free = region_frontiers(a, b, ["ib", "ob"], step=step)
        assert list(free) == ["ib", "ob"]
        _same_frontier(free["ib"], superposition_region(a, b, step=step))
        _same_frontier(free["ob"], outer_bound_eq_ob(a, b, step=step))
        pinned = region_frontiers(a, b, ["theorem2", "ib", "theorem1"], [uni], step=step)
        assert list(pinned) == ["theorem2", "ib", "theorem1"]
        _same_frontier(pinned["theorem1"], theorem1_region(a, b, [uni], step=step))
        _same_frontier(pinned["theorem2"], theorem2_region(a, b, [uni], step=step))
        _same_frontier(pinned["ib"], superposition_region(a, b, marginal_constraint=uni, step=step))
        # without a class the theorems sweep the uniform law and ib sweeps freely
        both = region_frontiers(a, b, ["theorem1", "ib"], step=step)
        _same_frontier(both["theorem1"], pinned["theorem1"])
        _same_frontier(both["ib"], free["ib"])
        # one evaluation serves the whole group
        assert free["ib"].diagnostics["conditional_laws"] == free["ob"].diagnostics["conditional_laws"]


def test_region_frontiers_rejects_bad_requests():
    with pytest.raises(DomainError, match="unknown region bound"):
        region_frontiers(bsc(0.1), bec(0.5), ["ib", "nope"])
    two = [Dist.uniform(2), Dist(np.array([0.3, 0.7]))]
    with pytest.raises(DomainError, match="exactly one member"):
        region_frontiers(bsc(0.1), bec(0.5), ["theorem1", "ib"], two)
    with pytest.raises(DomainError, match="nonempty"):
        region_frontiers(bsc(0.1), bec(0.5), ["theorem1"], [])


def _batches_of(m, step):
    free, free3, _ = regions._free_batches(m, step)
    pinned, pinned3, _ = regions._constrained_batches(Dist.uniform(m), m, step)
    return free + free3 + pinned + pinned3


@pytest.mark.parametrize("m", [2, 3, 4])
def test_every_batch_is_table_indexed(m):
    for batch in _batches_of(m, 0.1):
        weights, cond_idx, table = batch.weights, batch.cond_idx, batch.table
        assert weights.ndim == 2 and cond_idx.shape == weights.shape
        assert np.issubdtype(cond_idx.dtype, np.integer)
        assert table.ndim == 2 and table.shape[1] == m
        assert cond_idx.min() >= 0 and cond_idx.max() < table.shape[0]
        assert np.allclose(table.sum(axis=1), 1.0, atol=SIMPLEX_TOL)
        # every batch has a marginal table, indexed the same way
        assert batch.mix_idx.shape == weights.shape[:1]
        assert np.issubdtype(batch.mix_idx.dtype, np.integer)
        assert batch.mixes.ndim == 2 and batch.mixes.shape[1] == m
        assert batch.mix_idx.min() >= 0 and batch.mix_idx.max() < batch.mixes.shape[0]
        assert np.allclose(batch.mixes.sum(axis=1), 1.0, atol=SIMPLEX_TOL)


@pytest.mark.parametrize("step", [0.02, 0.05, 0.1, 1.0 / 3.0])
def test_meshes_hold_one_table_law_per_grid_value(step):
    # K + 1 laws k / K and K^2 + 1 marginals j / K^2 for (K + 1) + (K - 1) K (K + 1) / 2 decompositions
    for batch in [regions._binary_free_batch(step), *regions._face_batches(4, step)]:
        laws = batch.table.shape[0]
        assert laws <= 1.0 / step + 1
        assert batch.weights.shape[0] == laws + (laws - 2) * (laws - 1) * laws // 2
        assert batch.mixes.shape[0] == (laws - 1) ** 2 + 1


def _decomposition_keys(k_parts, weight_parts, i0, i1):
    """One integer per decomposition, read as the multiset of its (weight, law) pairs.

    Weights are in parts of K.  A pair of zero weight is dropped and pairs on
    one law merge, so a mirrored row and every |U|=1 spelling share a key.
    """
    single = (weight_parts == 0) | (weight_parts == k_parts) | (i0 == i1)
    law = np.where(weight_parts == 0, i1, i0)
    lo_law, hi_law = np.minimum(i0, i1), np.maximum(i0, i1)
    lo_weight = np.where(i0 < i1, weight_parts, k_parts - weight_parts)
    base = k_parts + 1
    pair_key = (lo_weight * base + lo_law) * base + hi_law
    return np.where(single, -1 - law, pair_key)


@pytest.mark.parametrize("k_parts", [1, 2, 3, 7, 50])
def test_two_point_mesh_holds_each_decomposition_of_the_full_mesh_once(k_parts):
    mesh = regions._two_point_mesh(k_parts)
    iw, i0, i1 = (x.ravel() for x in np.meshgrid(*[np.arange(k_parts + 1)] * 3, indexing="ij"))
    full = np.unique(_decomposition_keys(k_parts, iw, i0, i1))
    parts = np.rint(mesh.weights[:, 0] * k_parts).astype(np.intp)
    keys = _decomposition_keys(k_parts, parts, mesh.cond_idx[:, 0], mesh.cond_idx[:, 1])
    assert np.array_equal(np.sort(keys), full)  # every decomposition, none twice
    assert mesh.weights.shape[0] == (k_parts + 1) + (k_parts - 1) * k_parts * (k_parts + 1) // 2
    # the weights are the grid doubles, and the marginal index keeps its formula
    g = np.arange(k_parts + 1) / k_parts
    assert np.array_equal(mesh.weights[:, 0], g[parts])
    assert np.array_equal(mesh.weights[:, 1], 1.0 - g[parts])
    assert np.array_equal(mesh.mix_idx, parts * mesh.cond_idx[:, 0] + (k_parts - parts) * mesh.cond_idx[:, 1])


def _reference_aux3_free_binary():
    """The free |U|=3 batch before each decomposition was emitted once: every weight triple on every law triple."""
    w3 = simplex_grid(3, 0.2)
    k = np.arange(11)
    idx = np.column_stack([x.ravel() for x in np.meshgrid(k, k, k, indexing="ij")])
    return np.repeat(w3, idx.shape[0], axis=0), np.tile(idx, (w3.shape[0], 1)), regions._two_letter_laws(k / 10.0)


def _reference_aux3_constrained_binary(t0):
    """The pinned |U|=3 batch before the first spelling of each decomposition was kept."""
    w3 = simplex_grid(3, 0.1)
    q = np.arange(21) / 20.0
    k = np.arange(q.size)
    i0, i1 = (x.ravel() for x in np.meshgrid(k, k, indexing="ij"))
    weights = np.repeat(w3, i0.size, axis=0)
    i0, i1 = np.tile(i0, w3.shape[0]), np.tile(i1, w3.shape[0])
    live = weights[:, 2] > 1e-9
    weights, i0, i1 = weights[live], i0[live], i1[live]
    q2 = (t0 - weights[:, 0] * q[i0] - weights[:, 1] * q[i1]) / weights[:, 2]
    ok = (q2 >= -SIMPLEX_TOL) & (q2 <= 1.0 + SIMPLEX_TOL)
    weights, i0, i1, q2 = weights[ok], i0[ok], i1[ok], np.clip(q2[ok], 0.0, 1.0)
    cond_idx = np.column_stack([i0, i1, q.size + np.arange(q2.size)])
    return weights, cond_idx, regions._two_letter_laws(np.concatenate([q, q2]))


def _reference_coarse_pair_batch(m):
    """The all-pairs batch before each decomposition was emitted once: every ordered pair, i = j included."""
    k_parts = 1
    while math.comb(k_parts + m, m - 1) <= regions._COARSE_PAIR_CAP:
        k_parts += 1
    gc = simplex_grid(m, 1.0 / k_parts)
    n = gc.shape[0]
    i, j = (x.ravel() for x in np.meshgrid(np.arange(n), np.arange(n), indexing="ij"))
    w = np.tile(np.arange(1, 10) / 10.0, i.size)
    return np.column_stack([w, 1.0 - w]), np.column_stack([np.repeat(i, 9), np.repeat(j, 9)]), gc


def _multiset_keys(weights, cond_idx, table, parts):
    """One key per row: its (weight, law) pairs with zero weights dropped and pairs on one law merged.

    Weights are counted in 1 / parts, laws compared rounded to 1e-12.
    """
    _, law_ids = np.unique(np.rint(table * 1e12), axis=0, return_inverse=True)
    laws = law_ids.reshape(-1)[cond_idx].tolist()
    shares = np.rint(weights * parts).astype(int).tolist()
    keys = []
    for row_laws, row_shares in zip(laws, shares):
        merged = {}
        for law, share in zip(row_laws, row_shares):
            merged[law] = merged.get(law, 0) + share
        keys.append(tuple(sorted((law, share) for law, share in merged.items() if share)))
    return keys


def _holds_each_reference_decomposition_once(got, want, parts):
    got_keys, want_keys = _multiset_keys(*got, parts), _multiset_keys(*want, parts)
    assert len(set(got_keys)) == len(got_keys)  # none twice
    assert set(got_keys) == set(want_keys)  # every decomposition of the reference
    return got_keys, want_keys


def test_free_aux3_batch_holds_each_decomposition_once():
    batch = regions._aux3_free_binary()
    _holds_each_reference_decomposition_once(batch[:3], _reference_aux3_free_binary(), 5)
    assert batch.weights.shape[0] == 11 + 220 + 990
    # the induced law is sum_u a_u k_u / 50: that row of the grid j / 50
    assert np.array_equal(batch.mix_idx, np.einsum("nk,nk->n", np.rint(batch.weights * 5).astype(int), batch.cond_idx))


@pytest.mark.parametrize("t0", [0.5, 0.3, 0.07])
def test_pinned_aux3_batch_keeps_the_first_spelling_of_each_decomposition(t0):
    got, want = regions._aux3_constrained_binary(t0), _reference_aux3_constrained_binary(t0)
    got_keys, want_keys = _holds_each_reference_decomposition_once(got, want, 10)
    # the kept rows are the first spellings, in order and bit for bit
    first = sorted({key: n for n, key in reversed(list(enumerate(want_keys)))}.values())
    weights, cond_idx, table = want
    assert np.array_equal(got[0], weights[first])
    assert np.array_equal(got[2][got[1]], table[cond_idx[first]])
    assert np.array_equal(np.unique(got[1]), np.arange(got[2].shape[0]))  # every table row in use
    if t0 == 0.5:
        assert got[0].shape[0] == 3491


@pytest.mark.parametrize("m", [3, 4])
def test_coarse_pair_batch_holds_each_decomposition_once(m):
    batch, want = regions._coarse_pair_batch(m), _reference_coarse_pair_batch(m)
    _holds_each_reference_decomposition_once(batch[:3], want, 10)
    n = batch.table.shape[0]
    assert batch.weights.shape[0] == n + 9 * n * (n - 1) // 2
    # the marginal table holds each induced law once, the mixture to the last ulp
    mixtures = np.einsum("nk,nkm->nm", batch.weights, batch.table[batch.cond_idx])
    assert np.abs(batch.mixes[batch.mix_idx] - mixtures).max() <= 4e-16
    assert np.unique(np.rint(batch.mixes * 1e12), axis=0).shape[0] == batch.mixes.shape[0]
    if m == 4:
        assert (batch.weights.shape[0], batch.mixes.shape[0]) == (64_380, 30_716)


def test_unique_batches_are_cached_read_only():
    pinned = regions._constrained_batches(Dist.uniform(2), 2, 0.02)[1]
    for batch, again in ((regions._aux3_free_binary(), regions._aux3_free_binary()),
                         (regions._coarse_pair_batch(4), regions._coarse_pair_batch(4)),
                         (pinned[0], regions._constrained_batches(Dist.uniform(2), 2, 0.02)[1][0])):
        assert again is batch
        for arr in batch:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
    assert regions._free_batches(2, 0.05)[1][0] is regions._aux3_free_binary()
    assert any(b is regions._coarse_pair_batch(4) for b in regions._free_batches(4, 0.1)[0])


def test_sweep_batches_are_cached_read_only():
    first, _, _ = regions._free_batches(2, 0.02)
    again, _, _ = regions._free_batches(2, 0.02)
    assert again[0] is first[0]  # the mesh is built once per K
    pinned, pinned3, _ = regions._constrained_batches(Dist.uniform(2), 2, 0.02)
    assert regions._constrained_batches(Dist(np.array([0.5, 0.5])), 2, 0.02)[0][0] is pinned[0]
    for batch in [first[0], *regions._face_batches(3, 0.05), *pinned, *pinned3]:
        for arr in (batch.weights, batch.cond_idx, batch.mix_idx):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
    # a second call over the cached batches gives the same frontiers
    for a, b in ((bsc(0.1), bec(0.5)), split_input_pair()):
        for which, members in ((["ib", "ob"], None), (["theorem1", "theorem2"], [Dist.uniform(a.input_size)])):
            once = region_frontiers(a, b, which, members, step=0.05)
            twice = region_frontiers(a, b, which, members, step=0.05)
            for name in which:
                _same_frontier(once[name], twice[name])


def test_sweep_caches_fill_on_first_use_not_at_import():
    src = os.path.dirname(os.path.dirname(regions.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import sys, bcorder.cli; from bcorder import regions; "
        "sys.exit(sum(f.cache_info().currsize for f in (regions._two_point_mesh, regions._pinned_batches, "
        "regions._aux3_free_binary, regions._coarse_pair_batch)))"
    )
    assert subprocess.run([sys.executable, "-c", probe], env=env, timeout=120).returncode == 0


def _marginal_error(batch):
    """Largest gap between each decomposition's marginal row and the mixture of its laws."""
    mixtures = np.einsum("nk,nkm->nm", batch.weights, batch.table[batch.cond_idx])
    return np.abs(batch.mixes[batch.mix_idx] - mixtures).max()


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("step", [0.02, 0.05, 0.1, 1.0 / 3.0])
def test_free_marginal_rows_are_the_induced_laws(m, step):
    batches, aux3, _ = regions._free_batches(m, step)
    assert (len(aux3) == 1) == (m == 2)  # the binary |U|=3 batch indexes the grid j / 50
    for batch in batches + aux3:
        assert _marginal_error(batch) <= SIMPLEX_TOL


def test_lattice_marginals_are_the_same_doubles_in_every_batch():
    # j / 50 and 50 j / 2500 round the same rational, so the |U|=3 batch and
    # the step-0.02 mesh put bit-identical rows on a shared marginal
    mesh = regions._binary_free_batch(0.02)
    aux3 = regions._aux3_free_binary()
    assert np.array_equal(aux3.mixes, mesh.mixes[::50])


@_PROPERTY
@given(
    m=st.integers(2, 4),
    kind=st.sampled_from(["uniform", "dirichlet", "floor"]),
    step=st.sampled_from([0.02, 0.05, 0.1, 1.0 / 3.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_pinned_marginal_rows_are_the_member(m, kind, step, seed):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        probs = np.full(m, 1.0 / m)
    else:
        probs = rng.dirichlet(np.ones(m))
        if kind == "floor":  # an entry at or below CELL_FLOOR is off the member's support
            probs[rng.integers(m)] = CELL_FLOOR * rng.random()
            probs /= probs.sum()
    t = Dist(probs).probs
    batches, aux3, _ = regions._constrained_batches(Dist(probs), m, step)
    assert (len(aux3) == 1) == (m == 2)
    support = t > CELL_FLOOR
    row = np.where(support, t, 0.0) / t[support].sum()
    for batch in batches + aux3:
        # one shared marginal row: the member on its support, renormalized
        assert batch.mixes.shape[0] == 1 and not batch.mix_idx.any()
        assert np.array_equal(batch.mixes[0], row)
        assert _marginal_error(batch) <= SIMPLEX_TOL


def test_aux3_points_is_zero_when_the_points_do_not_move():
    fr = superposition_region(bsc(0.1), bec(0.5), step=0.02)
    assert fr.diagnostics["aux3_swept"] is True
    assert fr.diagnostics["aux3_points"] == 0
    four = outer_bound_eq_ob(*split_input_pair(), step=0.1)
    assert four.diagnostics["aux3_points"] is None


def test_aux3_points_counts_the_points_the_base_frontier_lacks(monkeypatch):
    # the reference base frontier comes from a sweep of the base batches alone
    uni = [Dist.uniform(2)]
    fr = region_frontiers(bsc(0.1), bec(0.15), ["ib", "ob"], step=0.1)
    fr.update(region_frontiers(bec(0.15), bsc(0.1), ["theorem1", "theorem2"], uni, step=0.1))
    free_batches, constrained_batches = regions._free_batches, regions._constrained_batches
    monkeypatch.setattr(regions, "_free_batches", lambda m, step: (*free_batches(m, step)[:1], [], step))
    monkeypatch.setattr(regions, "_constrained_batches", lambda t, m, step: (constrained_batches(t, m, step)[0], [], step))
    base = region_frontiers(bsc(0.1), bec(0.15), ["ib", "ob"], step=0.1)
    base.update(region_frontiers(bec(0.15), bsc(0.1), ["theorem1", "theorem2"], uni, step=0.1))
    for name in ("ib", "ob", "theorem1", "theorem2"):
        assert base[name].diagnostics["aux3_points"] is None
        assert (fr[name].diagnostics["aux3_points"] == 0) == (fr[name].points == base[name].points)
        assert fr[name].diagnostics["aux3_points"] <= len(fr[name].points)
    # the |U|=3 passes move the 48-point pinned frontiers; on the coarse ob
    # frontier they only added a point 1 ulp right of its last, now the same r1
    assert fr["ob"].diagnostics["aux3_points"] == 0
    assert fr["theorem1"].diagnostics["aux3_points"] > 0


def test_each_bound_kind_is_reduced_once_per_sweep(monkeypatch):
    calls = {"_pareto_filter": 0, "_upper_hull": 0}

    def counted(name):
        inner = getattr(regions, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(regions, name, counted(name))
    # one free sweep (ib "sum", ob "r1cap") and one class sweep (theorem1 "two", theorem2 "sum")
    region_frontiers(bsc(0.1), bec(0.15), ["ib", "ob"], step=0.1)
    assert calls == {"_pareto_filter": 2, "_upper_hull": 2}
    region_frontiers(bec(0.15), bsc(0.1), ["theorem1", "theorem2", "ib"], [Dist.uniform(2)], step=0.1)
    assert calls == {"_pareto_filter": 4, "_upper_hull": 4}
    region_frontiers(*split_input_pair(), ["ob"], step=0.1)
    assert calls == {"_pareto_filter": 5, "_upper_hull": 5}


def test_each_law_array_and_provenance_is_computed_once_per_sweep(monkeypatch):
    # paper6vi's free sweep shares one grid as k1's law and marginal table
    # and ux's marginal table; a pinned sweep's frontiers share their points
    evaluated, resolved = [], []
    mi, resolve = regions.mi_batch, regions._resolve_decomposition

    def counted_mi(rows, laws):
        evaluated.append(id(laws))
        return mi(rows, laws)

    def counted_resolve(stored, i):
        resolved.append(i)
        return resolve(stored, i)

    monkeypatch.setattr(regions, "mi_batch", counted_mi)
    monkeypatch.setattr(regions, "_resolve_decomposition", counted_resolve)
    for a, b, which, members in ((*split_input_pair(), ["ib", "ob"], None),
                                 (bec(0.15), bsc(0.1), ["theorem1", "theorem2"], [Dist.uniform(2)])):
        evaluated.clear()
        resolved.clear()
        fr = region_frontiers(a, b, which, members, step=0.1)
        assert len(evaluated) == len(set(evaluated))
        # provenance is resolved on first read, each decomposition once
        objects = {id(d) for f in fr.values() for d in f.provenance}
        assert len(resolved) == len(set(resolved))
        # a decomposition on both frontiers is one provenance object
        assert len(resolved) == len(objects)
    assert len(resolved) < sum(len(f.provenance) for f in fr.values())


def _eager_provenance(batches, ids):
    """Each id's decomposition, read straight from the sweep's batches in order."""
    starts = np.cumsum([0] + [batch.weights.shape[0] for batch in batches])
    out = []
    for i in ids:
        k = np.searchsorted(starts, i, side="right") - 1
        batch, row = batches[k], i - starts[k]
        w, rows = batch.weights[row], batch.table[batch.cond_idx[row]]
        out.append(AuxDecomposition(Dist(w / w.sum()), rows / rows.sum(axis=1, keepdims=True)))
    return tuple(out)


def test_provenance_is_resolved_on_first_read(monkeypatch):
    resolved = []
    resolve = regions._resolve_decomposition

    def counted_resolve(stored, i):
        resolved.append(i)
        return resolve(stored, i)

    monkeypatch.setattr(regions, "_resolve_decomposition", counted_resolve)
    # a region command prints no provenance, so it resolves none
    for args in (["--channel1", "paper6vi", "--channel2", "paper6vi", "--which", "ib,ob"],
                 ["--bsc", "0.1", "--bec", "0.15", "--which", "theorem1,theorem2", "--class", "uniform"]):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main(["region", *args, "--format", "json"]) == 0
    assert resolved == []
    # read, it is each point's decomposition as the sweep's batches hold it
    for a, b, which, members, m in ((*split_input_pair(), ["ib", "ob"], None, 4),
                                    (bec(0.15), bsc(0.1), ["theorem1", "theorem2"], [Dist.uniform(2)], 2)):
        fr = region_frontiers(a, b, which, members, step=0.1)
        if members is None:
            batches, aux3, _ = regions._free_batches(m, 0.1)
        else:
            batches, aux3, _ = regions._constrained_batches(members[0], m, 0.1)
        for f in fr.values():
            eager = _eager_provenance(batches + aux3, f._provenance.ids)
            _same_frontier(f, RegionFrontier(f.points, eager, f.diagnostics))
    assert resolved


def test_paper6vi_free_sweep_hands_few_survivors_to_the_sort():
    # before corners at the smallest r1 were pruned, the runs of this sweep
    # handed about 243,000 corners to _pareto_filter, 234,000 of them at r1 = 0
    fr = region_frontiers(*split_input_pair(), ["ib", "ob"])
    for f in fr.values():
        d = f.diagnostics
        assert len(f.points) <= d["num_survivors"] < 0.02 * d["num_candidates"]
    assert sum(f.diagnostics["num_survivors"] for f in fr.values()) < 25_000


def test_binary_grid100_sweep_hands_few_survivors_to_the_sort():
    # the binary mesh at step 0.01 spans 16 sweep runs; binned on each run's
    # own r1 range, they handed 12,853 + 13,529 corners to _pareto_filter
    fr = region_frontiers(bsc(0.1), bec(0.5), ["ib", "ob"], step=0.01)
    for f in fr.values():
        assert len(f.points) <= f.diagnostics["num_survivors"]
    assert sum(f.diagnostics["num_survivors"] for f in fr.values()) < 10_000


def test_law_diagnostics_count_each_evaluated_array_once(monkeypatch):
    # paper6vi's free sweep evaluates its grid once, though the grid is k1's
    # law table and the marginal table of k1 and ux; the diagnostics count
    # the laws evaluated, that grid among the table laws only
    evaluated = []
    mi = regions.mi_batch

    def counted_mi(rows, laws):
        evaluated.append(laws.shape[0])
        return mi(rows, laws)

    monkeypatch.setattr(regions, "mi_batch", counted_mi)
    grid = simplex_grid(4, 0.1).shape[0]
    for a, b, which, members in ((*split_input_pair(), ["ib", "ob"], None),
                                 (bsc(0.1), bec(0.15), ["ib", "ob"], None),
                                 (bec(0.15), bsc(0.1), ["theorem1", "theorem2"], [Dist.uniform(2)])):
        evaluated.clear()
        fr = region_frontiers(a, b, which, members, step=0.1)
        diagnostics = [f.diagnostics for f in fr.values()]
        assert all(d["conditional_laws"] + d["marginal_laws"] == sum(evaluated) for d in diagnostics)
        if a.input_size == 4:
            assert diagnostics[0]["conditional_laws"] >= grid


def test_oversized_sweeps_are_refused_before_allocation():
    k = int(regions._SWEEP_CAP ** (1.0 / 3.0))  # the first grid whose mesh exceeds the cap
    with pytest.raises(DomainError, match="binary sweep"):
        superposition_region(bsc(0.1), bec(0.5), step=1.0 / k)
    with pytest.raises(DomainError, match="pinned sweep"):
        theorem1_region(bsc(0.1), bec(0.5), [Dist.uniform(2)], step=1e-9)
    y1, y2 = split_input_pair()
    with pytest.raises(DomainError, match="pinned sweep"):
        theorem2_region(y1, y2, [Dist.uniform(4)], step=1e-9)
