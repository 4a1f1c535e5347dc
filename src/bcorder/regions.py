"""Rate regions for two-receiver broadcast channels.

Computes superposition-coding achievable regions, the two class-restricted
capacity regions, and the r1-capped outer bound, all as Pareto frontiers in
the (r1, r2) plane.  Every region is assembled the same way: sweep a grid of
auxiliary decompositions (U, X | U), emit the corner points of the rate
polygon each decomposition permits, and take the upper concave envelope of
the union.  Time sharing justifies the hull.

Decomposition evaluations are independent of one another; they are computed
as vectorized batches (the parallel-map stage) and then reduced by a single
deterministic Pareto-and-hull pass, so the result does not depend on
evaluation order or batch chunking.  That pass first drops, in linear time,
every candidate whose r2 is at most the largest r2 of a higher r1 bin, so the
sort sees thousands of candidates instead of millions; the frontier and its
provenance are exactly those of sorting them all.

Diagnostics ``step`` is the coarsest grid step the sweep actually ran at,
with ``requested_step`` added when a point cap or the face-sweep floor
coarsened it.

Frontier CSV format: header "r1,r2", one row per frontier point with nine
decimal places, sorted by r1 ascending.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import Dmc, aux_mi_batch, mi_batch
from .classify import (
    _POINT_GRID_CAP,
    AuxDecomposition,
    _bounded_step,
    _require_same_input,
    simplex_grid,
)
from .probcore import CELL_FLOOR, SIMPLEX_TOL, VERDICT_TOL, Dist, DomainError

_COARSE_PAIR_CAP = 140  # max grid points per side in the all-pairs batch
_PAIR_GRID_CAP = 2000   # max first-row grid points of a pinned two-point sweep
_FACE_STEP_FLOOR = 0.02
_CHUNK = 200_000
_PARETO_BINS = 4096     # r1 bins of the dominated-point pre-pass
_SEG_SAMPLES = 33       # samples per segment for Hausdorff distance


@dataclass(frozen=True)
class RatePoint:
    """A rate pair in bits per channel use: r1 private, r2 common/weak."""

    r1: float
    r2: float

    def __post_init__(self):
        for name in ("r1", "r2"):
            val = float(getattr(self, name))
            if not math.isfinite(val):
                raise DomainError("rate coordinates must be finite")
            if val < -VERDICT_TOL:
                raise DomainError("rates must be nonnegative")
            object.__setattr__(self, name, max(0.0, val))

    def as_tuple(self) -> tuple[float, float]:
        return (self.r1, self.r2)


@dataclass(frozen=True, eq=False)
class RegionFrontier:
    """Pareto frontier of a down-closed convex rate region.

    Points are sorted by r1 ascending with r2 decreasing, and lie on their
    own upper concave envelope.  ``provenance`` (when present) holds the
    AuxDecomposition that achieves each point; ``diagnostics`` records sweep
    metadata such as the grid step and whether the |U|=3 refinement pass
    moved the frontier.
    """

    points: tuple
    provenance: tuple = ()
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = tuple(self.points)
        if not pts:
            raise DomainError("a frontier needs at least one point")
        prov = tuple(self.provenance)
        if prov and len(prov) != len(pts):
            raise DomainError("provenance must have one entry per point")
        for p, q in zip(pts, pts[1:]):
            if q.r1 < p.r1 - SIMPLEX_TOL:
                raise DomainError("frontier points must be sorted by r1")
            if q.r2 > p.r2 + SIMPLEX_TOL:
                raise DomainError("frontier r2 must decrease along r1")
            if q.r1 - p.r1 <= SIMPLEX_TOL and p.r2 - q.r2 <= SIMPLEX_TOL:
                raise DomainError("frontier contains a duplicate point")
        for o, a, b in zip(pts, pts[1:], pts[2:]):
            cross = (a.r1 - o.r1) * (b.r2 - o.r2) - (a.r2 - o.r2) * (b.r1 - o.r1)
            if cross > VERDICT_TOL:
                raise DomainError("frontier points must be concave")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "provenance", prov)

    @property
    def max_r1(self) -> float:
        return self.points[-1].r1

    @property
    def max_r2(self) -> float:
        return self.points[0].r2

    def as_array(self) -> np.ndarray:
        return np.array([[p.r1, p.r2] for p in self.points], dtype=float)


def frontier_contains(frontier: RegionFrontier, point: RatePoint, tol: float = VERDICT_TOL) -> bool:
    """Is the point inside the down-closure of the frontier, with tol slack?"""
    pts = frontier.as_array()
    if point.r1 > pts[-1, 0] + tol:
        return False
    r1c = min(max(point.r1, pts[0, 0]), pts[-1, 0])
    bound = float(np.interp(r1c, pts[:, 0], pts[:, 1]))
    return point.r2 <= bound + tol


def _polyline_samples(pts: np.ndarray) -> np.ndarray:
    if pts.shape[0] == 1:
        return pts
    chunks = [pts[:1]]
    ts = np.linspace(0.0, 1.0, _SEG_SAMPLES)[1:, None]
    for a, b in zip(pts[:-1], pts[1:]):
        chunks.append(a[None, :] + ts * (b - a)[None, :])
    return np.vstack(chunks)


def _dists_to_polyline(samples: np.ndarray, pts: np.ndarray) -> np.ndarray:
    if pts.shape[0] == 1:
        return np.linalg.norm(samples - pts[0], axis=1)
    a = pts[:-1]
    d = pts[1:] - pts[:-1]
    len2 = np.maximum((d * d).sum(axis=1), 1e-300)
    diff = samples[:, None, :] - a[None, :, :]
    t = np.clip((diff * d[None, :, :]).sum(axis=2) / len2[None, :], 0.0, 1.0)
    proj = a[None, :, :] + t[:, :, None] * d[None, :, :]
    return np.linalg.norm(samples[:, None, :] - proj, axis=2).min(axis=1)


def _hausdorff(p1: np.ndarray, p2: np.ndarray) -> float:
    s1, s2 = _polyline_samples(p1), _polyline_samples(p2)
    d12 = _dists_to_polyline(s1, p2).max()
    d21 = _dists_to_polyline(s2, p1).max()
    return float(max(d12, d21))


def frontier_distance(f1: RegionFrontier, f2: RegionFrontier) -> float:
    """Symmetric Hausdorff distance between two frontier polylines."""
    return _hausdorff(f1.as_array(), f2.as_array())


def frontier_csv(frontier: RegionFrontier) -> str:
    lines = ["r1,r2"]
    for p in frontier.points:
        lines.append(f"{p.r1:.9f},{p.r2:.9f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# frontier assembly


def _drop_dominated(points: np.ndarray, idx: np.ndarray):
    """Linear pre-pass: drop points beaten by a point in a higher r1 bin.

    r1 is cut into _PARETO_BINS equal-width bins (a monotone map, so a higher
    bin means a strictly larger r1).  A point whose r2 is at most the largest
    r2 of the bins strictly to its right has a dominator that sorts before
    it, so it can neither pass the running-max test in _pareto_filter nor
    raise the running max; the survivors, kept in input order, give the
    same output.  A NaN r2, or a NaN among the bounds, drops nothing.
    """
    if points.shape[0] <= _PARETO_BINS:
        return points, idx
    r1, r2 = points[:, 0], points[:, 1]
    lo, hi = r1.min(), r1.max()
    if not (lo < hi and np.isfinite(hi - lo)):
        return points, idx
    bins = np.minimum(((r1 - lo) / (hi - lo) * _PARETO_BINS).astype(np.intp), _PARETO_BINS - 1)
    top = np.full(_PARETO_BINS + 1, -np.inf)
    np.maximum.at(top, bins, r2)
    right = np.maximum.accumulate(top[::-1])[::-1]  # right[k] = max r2 over bins >= k
    live = ~(r2 <= right[bins + 1])
    return points[live], idx[live]


def _pareto_filter(points: np.ndarray, idx: np.ndarray):
    """Keep Pareto-maximal points, returned sorted by r1 ascending."""
    points, idx = _drop_dominated(points, idx)
    order = np.lexsort((-points[:, 1], -points[:, 0]))
    pts = points[order]
    ids = idx[order]
    r2 = pts[:, 1]
    keep = np.empty(r2.size, dtype=bool)
    keep[0] = True
    if r2.size > 1:
        acc = np.maximum.accumulate(r2)
        keep[1:] = r2[1:] > acc[:-1] + SIMPLEX_TOL
    return pts[keep][::-1], ids[keep][::-1]


def _upper_hull(points: np.ndarray, idx: np.ndarray):
    """Upper concave envelope of points already sorted by r1 ascending."""
    n = points.shape[0]
    if n <= 2:
        return points, idx
    stack: list[int] = []
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


def _eval_quantities(dominant: Dmc, weak: Dmc, weights: np.ndarray, rows: np.ndarray):
    """Per-decomposition (A, B, C) = (I(U;Yw), A + I(X;Yd|U), I(X;Yd))."""
    n, k, m = rows.shape
    flat = rows.reshape(n * k, m)
    i_dom = mi_batch(dominant.rows, flat).reshape(n, k)
    a = aux_mi_batch(weak.rows, weights, rows)
    b = a + np.einsum("nk,nk->n", weights, i_dom)
    px = np.einsum("nk,nkm->nm", weights, rows)
    c = mi_batch(dominant.rows, px)
    return a, b, c


def _emit_vertices(kind: str, a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Pareto corner candidates of one decomposition's rate polygon.

    kind "sum":   r2 <= A, r1+r2 <= B, r1+r2 <= C
    kind "two":   r2 <= A, r1+r2 <= B
    kind "r1cap": r2 <= A, r1+r2 <= B, r1 <= C
    """
    zero = np.zeros_like(a)
    if kind == "sum":
        s = np.minimum(b, c)
        cap = np.minimum(a, s)
        r1 = np.concatenate([s, s - cap])
        r2 = np.concatenate([zero, cap])
        reps = 2
    elif kind == "two":
        r1 = np.concatenate([b, b - a])
        r2 = np.concatenate([zero, a])
        reps = 2
    elif kind == "r1cap":
        c1 = np.minimum(c, b)
        mid = np.minimum(c, b - a)
        r1 = np.concatenate([c1, mid, c1])
        r2 = np.concatenate([zero, a, np.minimum(b - c1, a)])
        reps = 3
    else:
        raise ValueError(f"unknown constraint kind: {kind}")
    return np.maximum(r1, 0.0), np.maximum(r2, 0.0), reps


def _axis_grid(step: float) -> np.ndarray:
    k_parts = max(1, round(1.0 / step))
    return np.arange(k_parts + 1) / k_parts


def _binary_free_batch(step: float):
    g = _axis_grid(step)
    w, q0, q1 = (x.ravel() for x in np.meshgrid(g, g, g, indexing="ij"))
    weights = np.column_stack([w, 1.0 - w])
    rows = np.stack(
        [np.column_stack([q0, 1.0 - q0]), np.column_stack([q1, 1.0 - q1])],
        axis=1,
    )
    return weights, rows


def _aux3_free_binary():
    w3 = simplex_grid(3, 0.2)
    q = np.arange(11) / 10.0
    q0, q1, q2 = (x.ravel() for x in np.meshgrid(q, q, q, indexing="ij"))
    nq = q0.size
    weights = np.repeat(w3, nq, axis=0)
    q0, q1, q2 = np.tile(q0, w3.shape[0]), np.tile(q1, w3.shape[0]), np.tile(q2, w3.shape[0])
    rows = np.stack(
        [
            np.column_stack([q0, 1.0 - q0]),
            np.column_stack([q1, 1.0 - q1]),
            np.column_stack([q2, 1.0 - q2]),
        ],
        axis=1,
    )
    return weights, rows


def _aux3_constrained_binary(t0: float):
    w3 = simplex_grid(3, 0.1)
    q = np.arange(21) / 20.0
    q0, q1 = (x.ravel() for x in np.meshgrid(q, q, indexing="ij"))
    nq = q0.size
    weights = np.repeat(w3, nq, axis=0)
    q0 = np.tile(q0, w3.shape[0])
    q1 = np.tile(q1, w3.shape[0])
    w2 = weights[:, 2]
    live = w2 > VERDICT_TOL
    weights, q0, q1, w2 = weights[live], q0[live], q1[live], w2[live]
    q2 = (t0 - weights[:, 0] * q0 - weights[:, 1] * q1) / w2
    ok = (q2 >= -SIMPLEX_TOL) & (q2 <= 1.0 + SIMPLEX_TOL)
    weights, q0, q1, q2 = weights[ok], q0[ok], q1[ok], np.clip(q2[ok], 0.0, 1.0)
    rows = np.stack(
        [
            np.column_stack([q0, 1.0 - q0]),
            np.column_stack([q1, 1.0 - q1]),
            np.column_stack([q2, 1.0 - q2]),
        ],
        axis=1,
    )
    return weights, rows


def _coarse_pair_batch(m: int):
    k_parts = 1
    while math.comb(k_parts + m, m - 1) <= _COARSE_PAIR_CAP:
        k_parts += 1
    gc = simplex_grid(m, 1.0 / k_parts)
    n = gc.shape[0]
    i, j = (x.ravel() for x in np.meshgrid(np.arange(n), np.arange(n), indexing="ij"))
    ws = np.arange(1, 10) / 10.0
    nw = ws.size
    w = np.tile(ws, i.size)
    q0 = np.repeat(gc[i], nw, axis=0)
    q1 = np.repeat(gc[j], nw, axis=0)
    weights = np.column_stack([w, 1.0 - w])
    rows = np.stack([q0, q1], axis=1)
    return weights, rows


def _face_batches(m: int, step: float):
    """|U|=2 sweeps confined to each two-letter input face."""
    f = max(step, _FACE_STEP_FLOOR)
    g = _axis_grid(f)
    w, t0, t1 = (x.ravel() for x in np.meshgrid(g, g, g, indexing="ij"))
    n = w.size
    weights = np.column_stack([w, 1.0 - w])
    out = []
    for i in range(m):
        for j in range(i + 1, m):
            rows = np.zeros((n, 2, m))
            rows[:, 0, i] = t0
            rows[:, 0, j] = 1.0 - t0
            rows[:, 1, i] = t1
            rows[:, 1, j] = 1.0 - t1
            out.append((weights, rows))
    return out


def _step_diagnostics(step: float, swept: float) -> dict:
    """``step`` is the coarsest grid step swept; ``requested_step`` if coarsened."""
    diag = {"step": swept}
    if swept != step:
        diag["requested_step"] = step
    return diag


def _free_batches(m: int, step: float):
    """Unconstrained sweep batches, |U|=3 batches and the coarsest step swept."""
    if m == 2:
        # the mesh only hits induced marginals on the w grid, so pin the
        # uniform-marginal corners explicitly (constant set, keeps nesting)
        canon_ux = (np.full((1, 2), 0.5), np.eye(2)[None, :, :])
        canon_k1 = (np.ones((1, 1)), np.full((1, 1, 2), 0.5))
        batches = [_binary_free_batch(step), canon_ux, canon_k1]
        return batches, [_aux3_free_binary()], step
    eff = _bounded_step(m, step, _POINT_GRID_CAP)
    grid = simplex_grid(m, eff)
    n = grid.shape[0]
    k1 = (np.ones((n, 1)), grid[:, None, :])
    ux = (grid, np.broadcast_to(np.eye(m), (n, m, m)))
    batches = [k1, ux, _coarse_pair_batch(m)]
    batches.extend(_face_batches(m, step))
    return batches, [], max(eff, _FACE_STEP_FLOOR)


def _constrained_two_point_batch(
    target: np.ndarray, support: np.ndarray, step: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """All (weights, rows) for |U|=2 decompositions hitting a target marginal.

    Grids P(U=0) and the first conditional row over the support, derives the
    second row from the marginal constraint and keeps the feasible ones.
    Also returns the step of the first-row grid, coarsened from ``step``
    until it fits under _PAIR_GRID_CAP points.
    """
    m = target.size
    s = support.size
    eff = _bounded_step(s, step, _PAIR_GRID_CAP)
    q0_s = simplex_grid(s, eff)
    k_parts = max(1, round(1.0 / step))
    ws = np.arange(1, k_parts) / k_parts  # open interval: endpoints are |U|=1
    t_s = target[support]
    nw, g = ws.size, q0_s.shape[0]
    w_grid = np.repeat(ws, g)
    q0_grid = np.tile(q0_s, (nw, 1))
    q1_grid = (t_s[None, :] - w_grid[:, None] * q0_grid) / (1.0 - w_grid)[:, None]
    feasible = np.all(q1_grid >= -SIMPLEX_TOL, axis=1) & np.all(q1_grid <= 1.0 + SIMPLEX_TOL, axis=1)
    w_grid, q0_grid, q1_grid = w_grid[feasible], q0_grid[feasible], q1_grid[feasible]
    q1_grid = np.clip(q1_grid, 0.0, None)
    # the division by (1 - w) amplifies rounding; keep rows exactly stochastic
    q1_grid = q1_grid / np.maximum(q1_grid.sum(axis=1, keepdims=True), 1e-300)
    n = w_grid.size
    weights = np.column_stack([w_grid, 1.0 - w_grid])
    rows = np.zeros((n, 2, m))
    rows[:, 0, support] = q0_grid
    rows[:, 1, support] = q1_grid
    return weights, rows, eff


def _constrained_batches(target: Dist, m: int, step: float):
    """Batches pinned to one input law, |U|=3 batches and the pinned grid's step."""
    if target.size != m:
        raise DomainError("marginal constraint size does not match the channels")
    t = target.probs
    support = np.flatnonzero(t > CELL_FLOOR)
    k1 = (np.ones((1, 1)), t[None, None, :])
    w_ux = t[support] / t[support].sum()
    rows_ux = np.zeros((1, support.size, m))
    rows_ux[0, np.arange(support.size), support] = 1.0
    batches = [k1, (w_ux[None, :], rows_ux)]
    weights, rows, eff = _constrained_two_point_batch(t, support, step)
    if weights.shape[0]:
        batches.append((weights, rows))
    aux3 = []
    if m == 2:
        extra = _aux3_constrained_binary(float(t[0]))
        if extra[0].shape[0]:
            aux3.append(extra)
    return batches, aux3, eff


def _sweep_frontier(
    dominant: Dmc,
    weak: Dmc,
    batches: list,
    aux3_batches: list,
    kind: str,
    diagnostics: dict,
) -> RegionFrontier:
    pts_list: list[np.ndarray] = []
    idx_list: list[np.ndarray] = []
    stored: list[tuple[int, np.ndarray, np.ndarray]] = []
    offset = 0
    aux3_offset = None
    for group, is_aux3 in ((batches, False), (aux3_batches, True)):
        if is_aux3:
            aux3_offset = offset
        for weights, rows in group:
            n = weights.shape[0]
            if n == 0:
                continue
            stored.append((offset, weights, rows))
            for lo in range(0, n, _CHUNK):
                w = weights[lo : lo + _CHUNK]
                r = rows[lo : lo + _CHUNK]
                a, bq, cq = _eval_quantities(dominant, weak, w, r)
                r1, r2, reps = _emit_vertices(kind, a, bq, cq)
                pts_list.append(np.column_stack([r1, r2]))
                idx_list.append(np.tile(offset + lo + np.arange(w.shape[0]), reps))
            offset += n
    if offset == 0:
        raise DomainError("empty decomposition grid after constraint filtering")
    points = np.vstack(pts_list)
    idx = np.concatenate(idx_list)

    pts, ids = _upper_hull(*_pareto_filter(points, idx))
    aux3_change = None
    if aux3_offset is not None and aux3_offset < offset:
        base = idx < aux3_offset
        bp, _ = _upper_hull(*_pareto_filter(points[base], idx[base]))
        aux3_change = _hausdorff(bp, pts)

    prov = tuple(_resolve_decomposition(stored, int(i)) for i in ids)
    rate_points = tuple(RatePoint(float(x), float(y)) for x, y in pts)
    diag = dict(diagnostics)
    diag["num_decompositions"] = offset
    diag["num_candidates"] = int(points.shape[0])
    diag["aux3_change"] = aux3_change
    diag["aux3_swept"] = aux3_offset is not None and aux3_offset < offset
    return RegionFrontier(points=rate_points, provenance=prov, diagnostics=diag)


def _resolve_decomposition(stored, i: int) -> AuxDecomposition:
    for offset, weights, rows in reversed(stored):
        if i >= offset:
            w = np.asarray(weights[i - offset], dtype=float)
            r = np.array(rows[i - offset], dtype=float)
            r = r / np.maximum(r.sum(axis=1, keepdims=True), 1e-300)
            return AuxDecomposition(Dist(w / w.sum()), r)
    raise IndexError(f"decomposition index {i} out of range")


# ---------------------------------------------------------------------------
# public region sweeps


def superposition_region(
    dominant: Dmc,
    weak: Dmc,
    marginal_constraint: Dist | None = None,
    step: float = 0.02,
) -> RegionFrontier:
    """Achievable frontier of superposition coding.

    Constraints per decomposition: r2 <= I(U;Y_weak), r1+r2 <= I(U;Y_weak)
    + I(X;Y_dom|U), r1+r2 <= I(X;Y_dom).  With a marginal constraint the
    sweep keeps only decompositions whose induced input law matches it (the
    second conditional row is derived from the constraint, so the match is
    exact to rounding, far inside VERDICT_TOL).
    """
    m = _require_same_input(dominant, weak)
    if marginal_constraint is None:
        batches, aux3, swept = _free_batches(m, step)
    else:
        batches, aux3, swept = _constrained_batches(marginal_constraint, m, step)
    diag = {"bound": "ib", "constrained": marginal_constraint is not None, **_step_diagnostics(step, swept)}
    return _sweep_frontier(dominant, weak, batches, aux3, "sum", diag)


def _class_region(
    a: Dmc,
    b: Dmc,
    sufficient_class,
    step: float,
    kind: str,
    name: str,
) -> RegionFrontier:
    m = _require_same_input(a, b)
    members = list(sufficient_class)
    if not members:
        raise DomainError("the sufficient class must be nonempty")
    batches: list = []
    aux3: list = []
    swept = step
    for member in members:
        mb, ma, eff = _constrained_batches(member, m, step)
        batches.extend(mb)
        aux3.extend(ma)
        swept = max(swept, eff)
    diag = {"bound": name, "class_size": len(members), **_step_diagnostics(step, swept)}
    return _sweep_frontier(a, b, batches, aux3, kind, diag)


def theorem1_region(
    a: Dmc,
    b: Dmc,
    sufficient_class,
    step: float = 0.02,
) -> RegionFrontier:
    """Capacity frontier when receiver a is essentially less noisy than b.

    Constraints: r2 <= I(U;Y_b) and r1+r2 <= I(U;Y_b) + I(X;Y_a|U), with the
    input law restricted to the given class.  The caller is responsible for
    the class actually being sufficient (see test_essentially_less_noisy).
    """
    return _class_region(a, b, sufficient_class, step, "two", "theorem1")


def theorem2_region(
    a: Dmc,
    b: Dmc,
    sufficient_class,
    step: float = 0.02,
) -> RegionFrontier:
    """Capacity frontier when receiver a is essentially more capable than b.

    Constraints: r2 <= I(U;Y_b), r1+r2 <= I(U;Y_b) + I(X;Y_a|U), and
    r1+r2 <= I(X;Y_a), with the input law restricted to the given class.
    """
    return _class_region(a, b, sufficient_class, step, "sum", "theorem2")


def outer_bound_eq_ob(
    a: Dmc,
    b: Dmc,
    step: float = 0.02,
) -> RegionFrontier:
    """Outer bound with the per-receiver cap r1 <= I(X;Y_a).

    Constraints per decomposition: r2 <= I(U;Y_b), r1+r2 <= I(U;Y_b) +
    I(X;Y_a|U), r1 <= I(X;Y_a), swept over unconstrained decompositions.
    """
    m = _require_same_input(a, b)
    batches, aux3, swept = _free_batches(m, step)
    diag = {"bound": "ob", "constrained": False, **_step_diagnostics(step, swept)}
    return _sweep_frontier(a, b, batches, aux3, "r1cap", diag)
