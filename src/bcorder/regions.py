"""Rate regions for two-receiver broadcast channels.

Computes superposition-coding achievable regions, the two class-restricted
capacity regions, and the r1-capped outer bound, all as Pareto frontiers in
the (r1, r2) plane.  Every region is assembled the same way: sweep a grid of
auxiliary decompositions (U, X | U), emit the corner points of the rate
polygon each decomposition permits, and take the upper concave envelope of
the union.  Time sharing justifies the hull.

Every sweep batch is table-indexed: weights (N, k), integer cond_idx (N, k)
and a table (T, m) of conditional laws, decomposition n putting weight
weights[n, u] on table[cond_idx[n, u]].  Most batches are tensor grids over
a few laws (51 laws for the 132,651 decompositions of the binary mesh at
step 0.02), so each law's information quantities are computed once per
table and gathered; laws derived from a marginal constraint are appended to
their batch's table.  Bounds that sweep the same decompositions share one
evaluation: ``region_frontiers`` computes ``ib`` and ``ob`` from one free
sweep, and ``theorem1``, ``theorem2`` and a pinned ``ib`` from one class
sweep; each bound then emits its own rate-polygon vertices.

Decomposition evaluations are independent of one another; they are computed
as vectorized batches (the parallel-map stage) and reduced as they stream.
Each run of _CHUNK decompositions emits its corner candidates and at once
drops, in linear time, every candidate whose r2 is at most the largest r2 of
a higher r1 bin of that run; only the survivors are kept, in input order,
and the full candidate cloud is never stacked.  One deterministic
Pareto-and-hull pass over the survivors gives the frontier, and the same
pass over the prefix the base batches left gives the frontier before the
|U|=3 batches.  Both, provenance included, are exactly those of sorting
every candidate, so the result does not depend on evaluation order or batch
chunking.

Diagnostics ``step`` is the coarsest grid step the sweep actually ran at,
with ``requested_step`` added when a point cap or the face-sweep floor
coarsened it.  ``num_decompositions`` counts the decompositions swept and
``conditional_laws`` the table laws evaluated for them.  A sweep batch
holds at most _SWEEP_CAP decompositions; a finer step raises DomainError
before anything is allocated.

Frontier CSV format: header "r1,r2", one row per frontier point with nine
decimal places, sorted by r1 ascending.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import Dmc, mi_batch
from .classify import (
    _POINT_GRID_CAP,
    AuxDecomposition,
    _bounded_step,
    _require_same_input,
    simplex_grid,
)
from .probcore import CELL_FLOOR, SIMPLEX_TOL, VERDICT_TOL, Dist, DomainError, entropy_vec

_COARSE_PAIR_CAP = 140  # max grid points per side in the all-pairs batch
_PAIR_GRID_CAP = 2000   # max first-row grid points of a pinned two-point sweep
_FACE_STEP_FLOOR = 0.02
_CHUNK = 200_000        # decompositions gathered and evaluated at once
_SWEEP_CAP = 10_000_000  # max decompositions of one sweep batch (the binary mesh at --grid 200 has 8.1M)
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
    """The first vertex, then _SEG_SAMPLES - 1 evenly spaced samples per segment."""
    if pts.shape[0] == 1:
        return pts
    ts = np.linspace(0.0, 1.0, _SEG_SAMPLES)[None, 1:, None]
    segs = pts[:-1, None, :] + ts * (pts[1:] - pts[:-1])[:, None, :]
    return np.vstack([pts[:1], segs.reshape(-1, 2)])


def _dists_to_polyline(samples: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Distance from each sample to the polyline, on (samples, segments) arrays."""
    if pts.shape[0] == 1:
        ex, ey = samples[:, 0] - pts[0, 0], samples[:, 1] - pts[0, 1]
        return np.sqrt(ex * ex + ey * ey)
    sx, sy = samples[:, :1], samples[:, 1:]  # (samples, 1) columns against (segments,) rows
    ax, ay = pts[:-1, 0], pts[:-1, 1]
    dx, dy = pts[1:, 0] - ax, pts[1:, 1] - ay
    len2 = np.maximum(dx * dx + dy * dy, 1e-300)
    t = np.clip(((sx - ax) * dx + (sy - ay) * dy) / len2, 0.0, 1.0)
    ex, ey = sx - (ax + t * dx), sy - (ay + t * dy)
    return np.sqrt(ex * ex + ey * ey).min(axis=1)


def _hausdorff(p1: np.ndarray, p2: np.ndarray) -> float:
    s1, s2 = _polyline_samples(p1), _polyline_samples(p2)
    d12 = _dists_to_polyline(s1, p2).max()
    d21 = _dists_to_polyline(s2, p1).max()
    return float(max(d12, d21))


def frontier_distance(f1: RegionFrontier, f2: RegionFrontier) -> float:
    """Symmetric Hausdorff distance between two frontier polylines, sampled.

    Each segment is sampled at _SEG_SAMPLES evenly spaced points, its ends
    included, and each sample is measured exactly to the other polyline, so
    the result is a lower bound on the exact Hausdorff distance.
    """
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

    r1 is cut into _PARETO_BINS equal-width bins over the points given (a
    monotone map, so a higher bin means a strictly larger r1).  A point
    whose r2 is at most the largest r2 of the bins strictly to its right is
    dropped; a point with that largest r2 in the highest bin holding it
    survives and dominates it (larger r1, r2 at least as large).  Survivors
    keep their input order.  A NaN r2, or a NaN among the bounds, drops
    nothing.

    Why the survivors of any number of passes, each over any part of a
    cloud, give _pareto_filter the same output as the whole cloud: domination
    is transitive, so every dropped point is dominated by a final survivor.
    That survivor sorts before it, so the running max the dropped point
    would meet is at least its own r2: it could neither pass the keep test
    nor raise the running max, and removing it changes no other point's
    fate.  The stable lexsort keeps exact ties in input order, so the
    provenance ids do not change either.
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
    """Keep Pareto-maximal points, returned sorted by r1 ascending.

    Values within SIMPLEX_TOL count as equal in either coordinate.  Ranked
    by r1, then r2, descending, a point is kept iff its r2 exceeds every
    higher-ranked point's by more than SIMPLEX_TOL.  In the staircase this
    leaves, r1 rises while r2 falls; a point whose left neighbour there
    lies within SIMPLEX_TOL in r1 is dropped too, since that neighbour has
    the same r1 up to rounding and a larger r2.  So no frontier ends in a
    vertical step of rounding, and a run of staircase points closer than
    SIMPLEX_TOL apart in r1 keeps only its first.
    """
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
    pts, ids = pts[keep][::-1], ids[keep][::-1]
    apart = np.ones(ids.size, dtype=bool)
    apart[1:] = pts[1:, 0] - pts[:-1, 0] > SIMPLEX_TOL
    return pts[apart], ids[apart]


def _upper_hull(points: np.ndarray, idx: np.ndarray):
    """Upper concave envelope of points already sorted by r1 ascending."""
    n = points.shape[0]
    if n <= 2:
        return points, idx
    xs, ys = points[:, 0].tolist(), points[:, 1].tolist()
    stack: list[int] = []
    for i in range(n):
        while len(stack) >= 2:
            o, a = stack[-2], stack[-1]
            cross = (xs[a] - xs[o]) * (ys[i] - ys[o]) - (ys[a] - ys[o]) * (xs[i] - xs[o])
            if cross >= -CELL_FLOOR:
                stack.pop()
            else:
                break
        stack.append(i)
    sel = np.array(stack, dtype=int)
    return points[sel], idx[sel]


def _eval_quantities(dominant: Dmc, weak: Dmc, weights: np.ndarray, cond_idx: np.ndarray, table: np.ndarray):
    """Per-decomposition (A, B, C) = (I(U;Yw), A + I(X;Yd|U), I(X;Yd)).

    Decomposition n puts weight weights[n, u] on the conditional law
    table[cond_idx[n, u]].  Each table law is evaluated once: I(X;Yd), its
    output law through the weak channel and that law's entropy.  A
    decomposition gathers those and computes only what depends on its
    mixture: H(Yw) and I(X;Yd) at the induced input law, in runs of _CHUNK.
    """
    i_dom = mi_batch(dominant.rows, table)
    ry = table @ weak.rows
    h_ry = entropy_vec(ry, axis=-1)
    n = weights.shape[0]
    a, b, c = np.empty(n), np.empty(n), np.empty(n)
    for lo in range(0, n, _CHUNK):
        run = slice(lo, lo + _CHUNK)
        w, idx = weights[run], cond_idx[run]
        py = np.einsum("...k,...kj->...j", w, ry[idx])
        a[run] = np.maximum(0.0, entropy_vec(py, axis=-1) - np.einsum("...k,...k->...", w, h_ry[idx]))
        b[run] = a[run] + np.einsum("nk,nk->n", w, i_dom[idx])
        c[run] = mi_batch(dominant.rows, np.einsum("nk,nkm->nm", w, table[idx]))
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


# the constraint kind of each bound's rate polygon
_BOUND_KINDS = {"ib": "sum", "theorem1": "two", "theorem2": "sum", "ob": "r1cap"}
REGION_BOUNDS = tuple(_BOUND_KINDS)


def _axis_grid(step: float) -> np.ndarray:
    k_parts = max(1, round(1.0 / step))
    return np.arange(k_parts + 1) / k_parts


def _binary_laws(q: np.ndarray) -> np.ndarray:
    """The binary laws (q, 1 - q), one row per entry of q."""
    return np.column_stack([q, 1.0 - q])


def _two_point_mesh(g: np.ndarray):
    """Weights (w, 1-w) and law indices (i0, i1) over the full g x g x g mesh."""
    k = np.arange(g.size)
    iw, i0, i1 = (x.ravel() for x in np.meshgrid(k, k, k, indexing="ij"))
    w = g[iw]
    return np.column_stack([w, 1.0 - w]), np.column_stack([i0, i1])


def _binary_free_batch(step: float):
    k_parts = max(1, round(1.0 / step))
    if (k_parts + 1) ** 3 > _SWEEP_CAP:
        n = (k_parts + 1) ** 3
        raise DomainError(f"a binary sweep at step {step:g} needs {n} decompositions; the cap is {_SWEEP_CAP}")
    g = _axis_grid(step)
    return (*_two_point_mesh(g), _binary_laws(g))


def _aux3_free_binary():
    w3 = simplex_grid(3, 0.2)
    q = np.arange(11) / 10.0
    k = np.arange(q.size)
    idx = np.column_stack([x.ravel() for x in np.meshgrid(k, k, k, indexing="ij")])
    weights = np.repeat(w3, idx.shape[0], axis=0)
    return weights, np.tile(idx, (w3.shape[0], 1)), _binary_laws(q)


def _aux3_constrained_binary(t0: float):
    """|U|=3 binary sweep pinned to P(X=0) = t0; each derived third law is its own table row."""
    w3 = simplex_grid(3, 0.1)
    q = np.arange(21) / 20.0
    k = np.arange(q.size)
    i0, i1 = (x.ravel() for x in np.meshgrid(k, k, indexing="ij"))
    nq = i0.size
    weights = np.repeat(w3, nq, axis=0)
    i0 = np.tile(i0, w3.shape[0])
    i1 = np.tile(i1, w3.shape[0])
    w2 = weights[:, 2]
    live = w2 > VERDICT_TOL
    weights, i0, i1, w2 = weights[live], i0[live], i1[live], w2[live]
    q2 = (t0 - weights[:, 0] * q[i0] - weights[:, 1] * q[i1]) / w2
    ok = (q2 >= -SIMPLEX_TOL) & (q2 <= 1.0 + SIMPLEX_TOL)
    weights, i0, i1, q2 = weights[ok], i0[ok], i1[ok], np.clip(q2[ok], 0.0, 1.0)
    cond_idx = np.column_stack([i0, i1, q.size + np.arange(q2.size)])
    return weights, cond_idx, _binary_laws(np.concatenate([q, q2]))


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
    weights = np.column_stack([w, 1.0 - w])
    return weights, np.column_stack([np.repeat(i, nw), np.repeat(j, nw)]), gc


def _face_batches(m: int, step: float):
    """|U|=2 sweeps confined to each two-letter input face; one mesh, one table per face."""
    f = max(step, _FACE_STEP_FLOOR)
    g = _axis_grid(f)
    weights, cond_idx = _two_point_mesh(g)
    out = []
    for i in range(m):
        for j in range(i + 1, m):
            table = np.zeros((g.size, m))
            table[:, i] = g
            table[:, j] = 1.0 - g
            out.append((weights, cond_idx, table))
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
        canon_ux = (np.full((1, 2), 0.5), np.array([[0, 1]]), np.eye(2))
        canon_k1 = (np.ones((1, 1)), np.zeros((1, 1), dtype=np.intp), np.full((1, 2), 0.5))
        batches = [_binary_free_batch(step), canon_ux, canon_k1]
        return batches, [_aux3_free_binary()], step
    eff = _bounded_step(m, step, _POINT_GRID_CAP)
    grid = simplex_grid(m, eff)
    n = grid.shape[0]
    k1 = (np.ones((n, 1)), np.arange(n)[:, None], grid)
    ux = (grid, np.broadcast_to(np.arange(m), (n, m)), np.eye(m))
    batches = [k1, ux, _coarse_pair_batch(m)]
    batches.extend(_face_batches(m, step))
    return batches, [], max(eff, _FACE_STEP_FLOOR)


def _constrained_two_point_batch(target: np.ndarray, support: np.ndarray, step: float):
    """All |U|=2 decompositions hitting a target marginal, and the first-row step.

    Grids P(U=0) and the first conditional row over the support, derives the
    second row from the marginal constraint and keeps the feasible ones.
    The table holds the first-row grid, then one derived second row per
    decomposition.  The first-row grid is coarsened from ``step`` until it
    fits under _PAIR_GRID_CAP points.
    """
    m = target.size
    s = support.size
    eff = _bounded_step(s, step, _PAIR_GRID_CAP)
    q0_s = simplex_grid(s, eff)
    g = q0_s.shape[0]
    k_parts = max(1, round(1.0 / step))
    if (k_parts - 1) * g > _SWEEP_CAP:
        n = (k_parts - 1) * g
        raise DomainError(f"a pinned sweep at step {step:g} needs {n} decompositions; the cap is {_SWEEP_CAP}")
    ws = np.arange(1, k_parts) / k_parts  # open interval: endpoints are |U|=1
    t_s = target[support]
    nw = ws.size
    w_grid = np.repeat(ws, g)
    i0 = np.tile(np.arange(g), nw)
    q1_grid = (t_s[None, :] - w_grid[:, None] * q0_s[i0]) / (1.0 - w_grid)[:, None]
    feasible = np.all(q1_grid >= -SIMPLEX_TOL, axis=1) & np.all(q1_grid <= 1.0 + SIMPLEX_TOL, axis=1)
    w_grid, i0, q1_grid = w_grid[feasible], i0[feasible], q1_grid[feasible]
    q1_grid = np.clip(q1_grid, 0.0, None)
    # the division by (1 - w) amplifies rounding; keep rows exactly stochastic
    q1_grid = q1_grid / np.maximum(q1_grid.sum(axis=1, keepdims=True), 1e-300)
    n = w_grid.size
    table = np.zeros((g + n, m))
    table[:g, support] = q0_s
    table[g:, support] = q1_grid
    weights = np.column_stack([w_grid, 1.0 - w_grid])
    return weights, np.column_stack([i0, g + np.arange(n)]), table, eff


def _constrained_batches(target: Dist, m: int, step: float):
    """Batches pinned to one input law, |U|=3 batches and the pinned grid's step."""
    if target.size != m:
        raise DomainError("marginal constraint size does not match the channels")
    t = target.probs
    support = np.flatnonzero(t > CELL_FLOOR)
    k1 = (np.ones((1, 1)), np.zeros((1, 1), dtype=np.intp), t[None, :])
    w_ux = t[support] / t[support].sum()
    ux = (w_ux[None, :], np.arange(support.size)[None, :], np.eye(m)[support])
    batches = [k1, ux]
    weights, cond_idx, table, eff = _constrained_two_point_batch(t, support, step)
    if weights.shape[0]:
        batches.append((weights, cond_idx, table))
    aux3 = []
    if m == 2:
        extra = _aux3_constrained_binary(float(t[0]))
        if extra[0].shape[0]:
            aux3.append(extra)
    return batches, aux3, eff


def _sweep_frontier(dominant: Dmc, weak: Dmc, batches: list, aux3_batches: list, bounds: dict) -> dict:
    """One frontier per bound in ``bounds`` (name -> its diagnostics), from one evaluation.

    Every decomposition's (A, B, C) is computed once; each bound's kind
    (_BOUND_KINDS) then emits its own vertices, Pareto set and hull.
    Diagnostics ``aux3_change`` is the Hausdorff distance the |U|=3 batches
    moved the frontier by: exactly 0.0 when they leave its points unchanged,
    None when there were none.  ``conditional_laws`` counts the table rows
    evaluated, ``num_decompositions`` the decompositions.
    """
    kinds = dict.fromkeys(_BOUND_KINDS[name] for name in bounds)
    pts_lists: dict[str, list[np.ndarray]] = {kind: [] for kind in kinds}
    idx_lists: dict[str, list[np.ndarray]] = {kind: [] for kind in kinds}
    candidates = dict.fromkeys(kinds, 0)
    stored: list[tuple] = []
    offset = 0
    laws = 0
    aux3_offset = None
    for group, is_aux3 in ((batches, False), (aux3_batches, True)):
        if is_aux3:
            aux3_offset = offset
        for weights, cond_idx, table in group:
            n = weights.shape[0]
            if n == 0:
                continue
            stored.append((offset, weights, cond_idx, table))
            laws += table.shape[0]
            a, bq, cq = _eval_quantities(dominant, weak, weights, cond_idx, table)
            for lo in range(0, n, _CHUNK):
                run = slice(lo, lo + _CHUNK)
                ids = offset + lo + np.arange(a[run].size)
                for kind in kinds:
                    r1, r2, reps = _emit_vertices(kind, a[run], bq[run], cq[run])
                    candidates[kind] += r1.size
                    # column-major, so the pre-pass reads r1 and r2 contiguously
                    pts, pids = _drop_dominated(np.stack([r1, r2]).T, np.tile(ids, reps))
                    pts_lists[kind].append(pts)
                    idx_lists[kind].append(pids)
            offset += n
    if offset == 0:
        raise DomainError("empty decomposition grid after constraint filtering")
    aux3_swept = aux3_offset is not None and aux3_offset < offset

    frontiers = {}
    for kind in kinds:
        points = np.vstack(pts_lists[kind])
        idx = np.concatenate(idx_lists[kind])
        pts, ids = _upper_hull(*_pareto_filter(points, idx))
        aux3_change = None
        if aux3_swept:
            base = idx < aux3_offset  # a prefix: the base batches run first
            bp, _ = _upper_hull(*_pareto_filter(points[base], idx[base]))
            aux3_change = 0.0 if np.array_equal(bp, pts) else _hausdorff(bp, pts)
        prov = tuple(_resolve_decomposition(stored, int(i)) for i in ids)
        rate_points = tuple(RatePoint(float(x), float(y)) for x, y in pts)
        frontiers[kind] = (rate_points, prov, candidates[kind], aux3_change)

    out = {}
    for name, diagnostics in bounds.items():
        rate_points, prov, candidates, aux3_change = frontiers[_BOUND_KINDS[name]]
        diag = dict(diagnostics)
        diag["num_decompositions"] = offset
        diag["conditional_laws"] = laws
        diag["num_candidates"] = candidates
        diag["aux3_change"] = aux3_change
        diag["aux3_swept"] = aux3_swept
        out[name] = RegionFrontier(points=rate_points, provenance=prov, diagnostics=diag)
    return out


def _resolve_decomposition(stored, i: int) -> AuxDecomposition:
    for offset, weights, cond_idx, table in reversed(stored):
        if i >= offset:
            w = np.asarray(weights[i - offset], dtype=float)
            r = np.array(table[cond_idx[i - offset]], dtype=float)
            r = r / np.maximum(r.sum(axis=1, keepdims=True), 1e-300)
            return AuxDecomposition(Dist(w / w.sum()), r)
    raise IndexError(f"decomposition index {i} out of range")


# ---------------------------------------------------------------------------
# public region sweeps


def region_frontiers(a: Dmc, b: Dmc, which, input_class=None, step: float = 0.02) -> dict:
    """Frontiers of the named bounds for receiver a (dominant) and b, by name.

    ``which`` names bounds from REGION_BOUNDS.  ``input_class`` is a list of
    input laws, or None.  Bounds that sweep the same decompositions share
    one evaluation:

    * the free set: ``ob``, and ``ib`` when there is no class;
    * the class set: ``theorem1`` and ``theorem2`` on the class (uniform
      when there is none), and ``ib`` pinned to the class's one member.

    Each frontier equals that of its one-bound call (``superposition_region``,
    ``theorem1_region``, ``theorem2_region``, ``outer_bound_eq_ob``),
    points, provenance and diagnostics alike.
    """
    m = _require_same_input(a, b)
    members = None if input_class is None else list(input_class)
    if members == []:
        raise DomainError("the sufficient class must be nonempty")
    class_members = members or [Dist.uniform(m)]
    free: dict = {}
    pinned: dict = {}
    for name in which:
        if name not in _BOUND_KINDS:
            raise DomainError(f"unknown region bound {name!r}; choose from {', '.join(REGION_BOUNDS)}")
        if name == "ob" or (name == "ib" and members is None):
            free[name] = {"bound": name, "constrained": False}
        elif name == "ib":
            if len(members) != 1:
                raise DomainError("ib accepts a class with exactly one member (a marginal constraint)")
            pinned[name] = {"bound": name, "constrained": True}
        else:
            pinned[name] = {"bound": name, "class_size": len(class_members)}
    out = {}
    if free:
        batches, aux3, swept = _free_batches(m, step)
        out.update(_sweep_frontier(a, b, batches, aux3, _with_steps(free, step, swept)))
    if pinned:
        batches, aux3, swept = [], [], step
        for member in class_members:
            mb, ma, eff = _constrained_batches(member, m, step)
            batches.extend(mb)
            aux3.extend(ma)
            swept = max(swept, eff)
        out.update(_sweep_frontier(a, b, batches, aux3, _with_steps(pinned, step, swept)))
    return {name: out[name] for name in which}


def _with_steps(bounds: dict, step: float, swept: float) -> dict:
    return {name: {**diag, **_step_diagnostics(step, swept)} for name, diag in bounds.items()}


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
    pinned = None if marginal_constraint is None else [marginal_constraint]
    return region_frontiers(dominant, weak, ["ib"], pinned, step)["ib"]


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
    return region_frontiers(a, b, ["theorem1"], sufficient_class, step)["theorem1"]


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
    return region_frontiers(a, b, ["theorem2"], sufficient_class, step)["theorem2"]


def outer_bound_eq_ob(
    a: Dmc,
    b: Dmc,
    step: float = 0.02,
) -> RegionFrontier:
    """Outer bound with the per-receiver cap r1 <= I(X;Y_a).

    Constraints per decomposition: r2 <= I(U;Y_b), r1+r2 <= I(U;Y_b) +
    I(X;Y_a|U), r1 <= I(X;Y_a), swept over unconstrained decompositions.
    """
    return region_frontiers(a, b, ["ob"], None, step)["ob"]
