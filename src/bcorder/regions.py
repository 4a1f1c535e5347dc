"""Rate regions for two-receiver broadcast channels.

Computes superposition-coding achievable regions, the two class-restricted
capacity regions, and the r1-capped outer bound, all as Pareto frontiers in
the (r1, r2) plane.  Every region is assembled the same way: sweep a grid of
auxiliary decompositions (U, X | U), emit the corner points of the rate
polygon each decomposition permits, and take the upper concave envelope of
the union.  Time sharing justifies the hull.

Every sweep batch is table-indexed: weights (N, k), integer cond_idx (N, k)
and a table (T, m) of conditional laws, decomposition n putting weight
weights[n, u] on table[cond_idx[n, u]].  A decomposition's bounds split into
terms of its induced input law p, H(Yw) and I(X;Yd) at p, and terms linear
in its weights, sum_u w_u H(Yw|u) and sum_u w_u I(X;Yd|u).  So every batch
also carries a table (M, m) of the distinct input laws its decompositions
induce, with one index per decomposition: the binary mesh at step 0.02 has
51 conditional laws and 2,501 marginals for its 62,526 decompositions, the
all-pairs batch of a larger alphabet keys its mixtures, integer
compositions on a lattice a tenth of its coarse grid's step, as integers
(30,716 marginals for paper6vi's 64,380 decompositions), and a pinned batch
has one marginal, the class member.  Both tables are evaluated once per
sweep and gathered, a law array shared by several batches once in all;
laws derived from a marginal constraint are appended to their batch's law
table.  No batch names a decomposition, the multiset of its (weight, law)
pairs, twice.  Bounds that sweep the same decompositions share one
evaluation: ``region_frontiers`` computes ``ib`` and ``ob`` from one free
sweep, and ``theorem1``, ``theorem2`` and a pinned ``ib`` from one class
sweep; each bound then emits its own rate-polygon vertices.

Decomposition evaluations are independent of one another; they are computed
as vectorized batches (the parallel-map stage) and reduced as they stream.
Each run of _CHUNK decompositions is evaluated, and each bound kind takes
its rate-polygon corners straight from the run's (A, B, C), one block per
corner.  One staircase per bound kind serves all of a sweep's runs: r1 bins
fixed once over [0, log2 m], the largest r2 met so far in each, and the
largest r2 met so far at r1 = 0.  A run gathers only the corners that no
higher bin beats so far, in input order, and of its corners at r1 = 0 only
a first to reach the largest r2 there.  No candidate cloud is built, per
run or per sweep.  One deterministic Pareto-and-hull pass per bound kind
over the survivors gives the frontier exactly as sorting every candidate
would, so the result does not depend on evaluation order or batch
chunking.  A frontier keeps its decompositions' ids and builds its
``provenance`` on first read, each decomposition once per sweep.

Diagnostics ``step`` is the coarsest grid step the sweep actually ran at,
with ``requested_step`` added when a point cap or the face-sweep floor
coarsened it.  ``num_decompositions`` counts the decompositions swept,
``conditional_laws`` and ``marginal_laws`` the table laws and the marginals
evaluated, a law array that several batches share counted once;
``num_candidates`` counts every corner and ``num_survivors`` the corners
the runs hand to the Pareto pass.  A pinned sweep batch holds at most
_SWEEP_CAP decompositions, and the binary mesh is refused when its full
(K + 1)^3 grid exceeds _SWEEP_CAP points; a finer step raises DomainError
before anything is allocated.  The binary mesh of each K, the binary |U|=3
batch, the all-pairs batch of each alphabet size and the batches pinned to
each member are built on first use and cached read-only.

Frontier CSV format: header "r1,r2", one row per frontier point with nine
decimal places, sorted by r1 ascending.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channels import AuxDecomposition, Dmc, _require_same_input, mi_batch
from .probcore import (
    _POINT_GRID_CAP,
    CELL_FLOOR,
    REGION_BOUNDS,
    SIMPLEX_TOL,
    VERDICT_TOL,
    Dist,
    DomainError,
    _bounded_step,
    entropy_vec,
    simplex_grid,
)
from .probcore import REGION_BOUND_KINDS as _BOUND_KINDS  # the constraint kind of each bound's rate polygon

_COARSE_PAIR_CAP = 140  # max grid points per side in the all-pairs batch
_PAIR_GRID_CAP = 2000   # max first-row grid points of a pinned two-point sweep
_FACE_STEP_FLOOR = 0.02
_CHUNK = 32_768         # decompositions evaluated and pruned at once; cache-sized, the fastest of 8k-200k measured
_SWEEP_CAP = 10_000_000  # max decompositions of a pinned batch, max (K + 1)^3 of the binary mesh (8.1M at --grid 200)
_PARETO_BINS = 4096     # r1 bins of a sweep's carried staircase


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


@dataclass(frozen=True, eq=False, init=False)
class RegionFrontier:
    """Pareto frontier of a down-closed convex rate region.

    Points are sorted by r1 ascending with r2 decreasing, and lie on their
    own upper concave envelope.  ``provenance`` (when present) holds the
    AuxDecomposition that achieves each point; a swept frontier resolves it
    from its sweep's decomposition ids on first read.  ``diagnostics``
    records sweep metadata such as the grid step and how many points the
    |U|=3 refinement pass contributed.
    """

    points: tuple
    diagnostics: dict
    _provenance: object = field(repr=False)

    def __init__(self, points, provenance=(), diagnostics=None):
        pts = tuple(points)
        if not pts:
            raise DomainError("a frontier needs at least one point")
        lazy = isinstance(provenance, _SweepIds)
        provenance = provenance if lazy else tuple(provenance)
        count = len(provenance.ids if lazy else provenance)
        if count and count != len(pts):
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
        object.__setattr__(self, "diagnostics", {} if diagnostics is None else diagnostics)
        object.__setattr__(self, "_provenance", provenance)

    @property
    def provenance(self) -> tuple:
        if isinstance(self._provenance, _SweepIds):
            object.__setattr__(self, "_provenance", self._provenance.resolve())
        return self._provenance

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


def _edge_vertices(frontier: RegionFrontier) -> np.ndarray:
    """The frontier's points at which r1 rises past every earlier point's.

    A point at no larger r1 than an earlier one lies below it, up to
    SIMPLEX_TOL (a final vertical step), so it leaves the region's upper
    edge as it is; dropping it gives np.interp the rising r1 it needs.
    """
    pts = frontier.as_array()
    rises = np.concatenate([[True], pts[1:, 0] > np.maximum.accumulate(pts[:-1, 0])])
    return pts[rises]


def frontier_distance(f1: RegionFrontier, f2: RegionFrontier) -> float:
    """Largest vertical gap between the upper edges of the two regions, exact.

    A frontier's upper edge is its first point's r2 left of that point,
    linear between points and 0 right of its last point.  Between two
    consecutive vertices of either polyline both edges are linear, so the
    supremum of the gap over r1 >= 0 is reached at a vertex, or just past a
    last vertex, where that edge drops to 0 and the other may not.
    """
    p1, p2 = _edge_vertices(f1), _edge_vertices(f2)
    r1 = np.concatenate([p1[:, 0], p2[:, 0]])
    gap = np.abs(np.interp(r1, *p1.T, right=0.0) - np.interp(r1, *p2.T, right=0.0)).max()
    for a, b in ((p1, p2), (p2, p1)):
        if a[-1, 0] < b[-1, 0]:  # just past a's end a's edge is 0, b's still at its value there
            gap = max(gap, np.interp(a[-1, 0], *b.T))
    return float(gap)


def frontier_csv(frontier: RegionFrontier) -> str:
    lines = ["r1,r2"]
    for p in frontier.points:
        lines.append(f"{p.r1:.9f},{p.r2:.9f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# frontier assembly


class _Staircase:
    """The largest r2 so far in each r1 bin, carried across a sweep's runs of one bound kind.

    With m input letters, r1 is cut into _PARETO_BINS bins fixed once over
    [0, log2 max(m, 2)], by x -> x * scale rounded down: every corner has
    r1 <= B <= H(X) <= log2 m, and a value that rounds above the range clips
    into the last bin.  Any monotone bin map would do: the argument below
    needs only that a higher bin means a strictly larger r1.  A corner whose
    r2 is at most the largest r2 met so far in the bins strictly to its
    right is dropped.  Corners in one bin are never compared, but of the
    corners at r1 = 0 only the first, in the order handed on, of the largest
    r2 met there so far can rank above the others, so the rest are dropped.
    A NaN r2 is kept and drops nothing below it.

    Why the survivors of every run, handed on together, give _pareto_filter
    the same output as the whole cloud: each dropped corner has a witness
    that sorts strictly before it with r2 at least as large, in a higher bin
    (a strictly larger r1) or at r1 = 0.  That relation is transitive and
    the sort rank falls strictly along a chain of witnesses, so every
    dropped corner has a final survivor that sorts before it.  The running
    max the dropped corner would meet is then at least its own r2: it could
    neither join the exact staircase nor raise the running max, so removing
    it leaves the staircase, and all that is kept from it, as it was.  The
    stable lexsort keeps exact ties in input order, so the provenance ids do
    not change either.
    """

    def __init__(self, m: int):
        self.scale = _PARETO_BINS / math.log2(max(m, 2))
        self.top = np.full(_PARETO_BINS, -np.inf)
        self.zero = -np.inf  # largest r2 so far at r1 = 0; its first corner has had its turn

    def survivors(self, r1s: list, r2s: list) -> list:
        """Per block of one run's corners, given in sweep order, the ascending positions kept."""
        bins = []
        for r1, r2 in zip(r1s, r2s):
            t = r1 * self.scale
            np.minimum(t, _PARETO_BINS - 1, out=t)
            bins.append(t.astype(np.intp))
            np.maximum.at(self.top, bins[-1], r2)
        above = np.full(_PARETO_BINS, -np.inf)  # above[k] = max r2 over bins > k
        np.maximum.accumulate(self.top[:0:-1], out=above[-2::-1])
        keep = [np.flatnonzero(~(r2 <= np.take(above, b))) for r2, b in zip(r2s, bins)]
        low = [(r1[k] == 0.0, r2[k]) for r1, r2, k in zip(r1s, r2s, keep)]
        best = max([self.zero, *(np.fmax.reduce(r2[at], initial=-np.inf) for at, r2 in low)])
        first = best > self.zero
        self.zero = best
        for j, (at, r2) in enumerate(low):
            drop = at & (r2 <= best)
            hit = np.flatnonzero(drop & (r2 == best)) if first else ()
            if len(hit):
                drop[hit[0]] = False
                first = False
            keep[j] = keep[j][~drop]
        return keep


def _thinned(vals: np.ndarray) -> np.ndarray:
    """Keep-mask of ascending ``vals``: the first, then each more than SIMPLEX_TOL above the last kept.

    A run of values each within SIMPLEX_TOL of the next keeps one per
    SIMPLEX_TOL of its spread, so near ties do not creep.
    """
    kept = np.ones(vals.size, dtype=bool)
    last = 0
    # a value more than SIMPLEX_TOL above its neighbour is kept; one within
    # it is compared with the last kept value
    for k in (np.flatnonzero(~(np.diff(vals) > SIMPLEX_TOL)) + 1).tolist():
        if kept[k - 1]:
            last = k - 1
        kept[k] = vals[k] > vals[last] + SIMPLEX_TOL
    return kept


def _pareto_filter(points: np.ndarray, idx: np.ndarray):
    """Keep Pareto-maximal points, returned sorted by r1 ascending.

    Values within SIMPLEX_TOL count as equal in either coordinate.  Ranked
    by r1, then r2, descending, the exact staircase keeps each point whose
    r2 exceeds every higher-ranked point's; along it r2 rises.  Of the
    staircase, the first point is kept, then each point whose r2 exceeds
    that of the last kept point by more than SIMPLEX_TOL.  In what is left,
    r1 rises while r2 falls, and the same rule runs on r1: the first point
    is kept, then each point whose r1 exceeds that of the last kept point
    by more than SIMPLEX_TOL, since a point within it has the kept one's r1
    up to rounding and a smaller r2.  So near ties do not creep in either
    coordinate: a run of points each within SIMPLEX_TOL of the next keeps
    one per SIMPLEX_TOL of its spread, and no frontier ends in a vertical
    step of rounding.  Every point given is sorted: a sweep gives only the
    survivors of its _Staircase, which leave the output as it was.
    """
    order = np.lexsort((-points[:, 1], -points[:, 0]))
    pts = points[order]
    ids = idx[order]
    r2 = pts[:, 1]
    keep = np.empty(r2.size, dtype=bool)
    keep[0] = True
    if r2.size > 1:
        keep[1:] = r2[1:] > np.maximum.accumulate(r2)[:-1]
    stairs = np.flatnonzero(keep)
    stairs = stairs[_thinned(r2[stairs])][::-1]
    pts, ids = pts[stairs], ids[stairs]
    apart = _thinned(pts[:, 0])
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


class _Batch(NamedTuple):
    """One table-indexed sweep batch.

    Decomposition n puts weight weights[n, u] on the conditional law
    table[cond_idx[n, u]] and induces the input law mixes[mix_idx[n]].
    """

    weights: np.ndarray
    cond_idx: np.ndarray
    table: np.ndarray
    mixes: np.ndarray
    mix_idx: np.ndarray


def _batch_values(dominant: Dmc, weak: Dmc, batch: _Batch, memo: dict):
    """I(X;Yd) and H(Yw) at each table law, then at each marginal, and the laws this call evaluated.

    ``memo`` maps id(array) to (array, values), the array kept so that its
    id stays its own: a law array that several batches of one sweep share,
    or that is both a batch's table and its marginals, is evaluated once.
    The second result counts the rows of the table and of the marginals
    that this call evaluated, 0 for an array evaluated before.
    """
    out, fresh = [], []
    for laws in (batch.table, batch.mixes):
        new = id(laws) not in memo
        if new:
            memo[id(laws)] = laws, (mi_batch(dominant.rows, laws), entropy_vec(laws @ weak.rows, axis=-1))
        out.extend(memo[id(laws)][1])
        fresh.append(laws.shape[0] if new else 0)
    return tuple(out), fresh


def _chunk_quantities(batch: _Batch, values, run: slice):
    """(A, B, C) = (I(U;Yw), A + I(X;Yd|U), I(X;Yd)) of the decompositions in ``run``.

    ``values`` is the batch's ``_batch_values``.  H(Yw) and C at the induced
    input law are gathered from the marginal table, the weighted sums from
    the law table, so no log is taken per decomposition.
    """
    i_law, h_law, i_mix, h_mix = values
    w, idx, j = batch.weights[run], batch.cond_idx[run], batch.mix_idx[run]
    a = np.maximum(0.0, h_mix[j] - np.einsum("nk,nk->n", w, h_law[idx]))
    return a, a + np.einsum("nk,nk->n", w, i_law[idx]), i_mix[j]


def _chunk_survivors(kind: str, a: np.ndarray, b: np.ndarray, c: np.ndarray, offset: int, stairs: _Staircase):
    """The survivors of a chunk's rate-polygon corners under ``stairs``: (points, ids, corners per polygon).

    kind "sum":   r2 <= A, r1+r2 <= B, r1+r2 <= C
    kind "two":   r2 <= A, r1+r2 <= B
    kind "r1cap": r2 <= A, r1+r2 <= B, r1 <= C

    Decomposition j of the chunk has id offset + j.  Each polygon has one
    corner on the r1 axis, r2 = 0.  Of the chunk's axis corners only the
    first of largest r1 is a candidate, at the head, then the other corners,
    one block per corner in decomposition order; ``stairs``, the sweep's
    staircase of this kind, sees them in that order and the survivors keep
    it.  That gives _pareto_filter the same output, ids included, as every
    corner in the order axis block first: a point with r2 = 0 is kept only
    if it ranks first overall (the running max it meets is >= 0), the
    chunk's other axis corners rank below its first of largest r1, and
    removing a point that is not kept changes no other point's fate.
    """
    if kind == "sum":
        s = np.minimum(b, c)
        cap = np.minimum(a, s)
        axis, rest = s, [(s - cap, cap)]
    elif kind == "two":
        axis, rest = b, [(b - a, a)]
    else:  # "r1cap"
        c1 = np.minimum(c, b)
        axis, rest = c1, [(np.minimum(c, b - a), a), (c1, np.minimum(b - c1, a))]
    axis = np.maximum(axis, 0.0)
    first = int(np.argmax(axis))
    r1s, r2s = [axis[first:first + 1]], [np.zeros(1)]
    for r1, r2 in rest:
        r1s.append(np.maximum(r1, 0.0))
        r2s.append(np.maximum(r2, 0.0))
    keep = stairs.survivors(r1s, r2s)
    ends = np.cumsum([k.size for k in keep]).tolist()
    pts = np.empty((ends[-1], 2))
    ids = np.empty(ends[-1], dtype=np.intp)
    for r1, r2, k, lo, hi in zip(r1s, r2s, keep, [0, *ends], ends):
        pts[lo:hi, 0] = r1[k]
        pts[lo:hi, 1] = r2[k]
        ids[lo:hi] = k
    ids[:ends[0]] = first  # the head is decomposition first's axis corner
    ids += offset
    return pts, ids, len(r1s)


def _two_letter_laws(q: np.ndarray, m: int = 2, i: int = 0, j: int = 1) -> np.ndarray:
    """Laws on m letters putting q on letter i and 1 - q on letter j, one row per entry of q."""
    laws = np.zeros((q.size, m))
    laws[:, i] = q
    laws[:, j] = 1.0 - q
    return laws


def _read_only(*arrays):
    for arr in arrays:
        arr.flags.writeable = False


@functools.lru_cache(maxsize=1)
def _two_point_mesh(k_parts: int) -> _Batch:
    """The binary |U|<=2 sweep over the mesh g = k / K, each decomposition once; read-only.

    Row (iw, i0, i1) puts weight g[iw] on the law (g[i0], 1 - g[i0]) and
    1 - g[iw] on (g[i1], 1 - g[i1]).  The full g x g x g mesh names every
    |U|=2 decomposition twice, as (iw, i0, i1) and as (K - iw, i1, i0), and
    its rows with iw in {0, K} or i0 = i1 are |U|=1 decompositions.  So the
    mesh holds one row (K, k, k) per law, then each proper decomposition
    once, 0 < iw < K and i0 < i1 in C order: (K + 1) + (K - 1) K (K + 1) / 2
    rows, 62,526 at K = 50 against the full mesh's 132,651.  A row induces
    the law at (iw i0 + (K - iw) i1) / K^2: row iw i0 + (K - iw) i1 of the
    marginal grid j / K^2.
    """
    k = np.arange(k_parts + 1)
    pairs = np.column_stack(np.triu_indices(k.size, 1))
    iw = np.concatenate([np.full(k.size, k_parts), np.repeat(np.arange(1, k_parts), pairs.shape[0])])
    cond_idx = np.vstack([np.column_stack([k, k]), np.tile(pairs, (k_parts - 1, 1))])
    g = k / k_parts
    weights = np.empty((iw.size, 2))
    weights[:, 0] = g[iw]
    weights[:, 1] = 1.0 - weights[:, 0]
    mix_idx = iw * cond_idx[:, 0] + (k_parts - iw) * cond_idx[:, 1]
    x = np.arange(k_parts * k_parts + 1) / (k_parts * k_parts)
    mesh = _Batch(weights, cond_idx, _two_letter_laws(g), _two_letter_laws(x), mix_idx)
    _read_only(*mesh)
    return mesh


def _binary_free_batch(step: float) -> _Batch:
    k_parts = max(1, round(1.0 / step))
    if (k_parts + 1) ** 3 > _SWEEP_CAP:
        raise DomainError(
            f"a binary sweep at step {step:g} spans a {k_parts + 1}^3 = {(k_parts + 1) ** 3} point mesh; the cap is {_SWEEP_CAP}"
        )
    return _two_point_mesh(k_parts)


@functools.lru_cache(maxsize=1)
def _aux3_free_binary() -> _Batch:
    """The binary |U|<=3 sweep, weights a / 5 on the laws k / 10, each decomposition once; read-only.

    A decomposition is the multiset of its (weight, law) pairs, zero weights
    dropped and pairs on one law merged.  The batch holds one row (5, 0, 0)
    / 5 on the laws (k, k, k) per law, then (a, 5 - a, 0) / 5 on (i, j, j)
    for i < j and 0 < a < 5, then (a, b, c) / 5 on (i, j, l) for i < j < l
    and positive parts: 11 + 220 + 990 = 1,221 rows, where every weight
    triple on every law triple makes 27,951.  A row induces the law at
    sum_u a_u k_u / 50: that row of the marginal grid j / 50.
    """
    k = np.arange(11)
    pairs = np.array(list(itertools.combinations(k.tolist(), 2)))
    triples = np.array(list(itertools.combinations(k.tolist(), 3)))
    a = np.repeat(np.arange(1, 5), pairs.shape[0])
    positive = np.array([p for p in itertools.product(range(1, 4), repeat=3) if sum(p) == 5])
    parts = np.vstack([
        np.tile([5, 0, 0], (k.size, 1)),
        np.column_stack([a, 5 - a, np.zeros_like(a)]),
        np.repeat(positive, triples.shape[0], axis=0),
    ])
    cond_idx = np.vstack([
        np.column_stack([k, k, k]),
        np.tile(pairs[:, [0, 1, 1]], (4, 1)),
        np.tile(triples, (positive.shape[0], 1)),
    ])
    mix_idx = np.einsum("nk,nk->n", parts, cond_idx)
    batch = _Batch(parts / 5.0, cond_idx, _two_letter_laws(k / 10.0), _two_letter_laws(np.arange(51) / 50.0), mix_idx)
    _read_only(*batch)
    return batch


def _first_spellings(tenths: np.ndarray, laws: np.ndarray) -> np.ndarray:
    """Ascending indices of the first row naming each decomposition.

    Row n puts tenths[n, u] / 10 on the law keyed by the integer laws[n, u].
    Rows name the same decomposition when their (weight, law) multisets
    agree once zero weights are dropped and weights on one law merged.  Each
    pair packs into one integer, law * 16 + tenths, so sorting a row sorts
    its pairs by law.
    """
    pairs = np.sort(laws * 16 + tenths, axis=1)
    law, part = pairs >> 4, pairs & 15
    for u in range(1, pairs.shape[1]):  # equal laws are adjacent: merge each run into its last pair
        same = law[:, u] == law[:, u - 1]
        part[same, u] += part[same, u - 1]
        part[same, u - 1] = 0
    key = np.sort(np.where(part > 0, law * 16 + part, -1), axis=1)
    rows = np.lexsort(key.T[::-1])
    key = key[rows]
    starts = np.ones(rows.size, dtype=bool)
    starts[1:] = np.any(key[1:] != key[:-1], axis=1)
    return np.sort(rows[starts])


def _aux3_constrained_binary(t0: float):
    """|U|=3 binary sweep pinned to P(X=0) = t0, each decomposition once.

    Weights are multiples of 0.1, the first two laws lie on the grid k / 20
    and the third is derived from the constraint.  Of the rows that name one
    decomposition, laws compared rounded to 1e-12, the first is kept, and
    the law table keeps only the rows still in use.
    """
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
    table = np.concatenate([q, q2])
    cond_idx = np.column_stack([i0, i1, q.size + np.arange(q2.size)])
    keep = _first_spellings(np.rint(weights * 10).astype(np.int64), np.rint(table[cond_idx] * 1e12).astype(np.int64))
    used, cond_idx = np.unique(cond_idx[keep], return_inverse=True)
    return weights[keep], cond_idx.reshape(-1, 3), _two_letter_laws(table[used])


def _composition_keys(comp: np.ndarray, total: int) -> np.ndarray:
    """Each row's rank among the compositions of ``total`` into comp.shape[1] parts, in lexicographic order.

    Below a row, at part t with ``rem`` still to place over r + 1 parts, lie
    the compositions taking a smaller part there: C(rem + r, r) - C(rem - c_t
    + r, r) of them, by the hockey-stick identity.
    """
    n, m = comp.shape
    above = np.array([[math.comb(x + r, r) for x in range(total + 1)] for r in range(m)], dtype=np.int64)
    keys = np.zeros(n, dtype=np.int64)
    rem = np.full(n, total)
    for t in range(m - 1):
        nxt = rem - comp[:, t]
        keys += above[m - 1 - t, rem] - above[m - 1 - t, nxt]
        rem = nxt
    return keys


@functools.lru_cache(maxsize=4)
def _coarse_pair_batch(m: int) -> _Batch:
    """|U|<=2 decompositions on any two laws of a coarse grid k / K, each once; read-only.

    K is the finest grid of at most _COARSE_PAIR_CAP points per side.  The
    batch holds one row per law, then (w, 1 - w) on (i, j) for i < j and w
    in 0.1 ... 0.9: on 4 inputs 120 + 7,140 x 9 = 64,380 rows, where every
    ordered pair makes 129,600.  Each row induces an integer composition of
    10 K over 10 K; they are keyed by their rank, and each distinct one is a
    row of the marginal table: 30,716 on 4 inputs.
    """
    k_parts = 1
    while math.comb(k_parts + m, m - 1) <= _COARSE_PAIR_CAP:
        k_parts += 1
    gc = simplex_grid(m, 1.0 / k_parts)
    n = gc.shape[0]
    pairs = np.column_stack(np.triu_indices(n, 1))
    tenths = np.concatenate([np.full(n, 10), np.tile(np.arange(1, 10), pairs.shape[0])])
    cond_idx = np.vstack([np.column_stack([np.arange(n), np.arange(n)]), np.repeat(pairs, 9, axis=0)])
    comp = np.rint(gc * k_parts).astype(np.intp)
    a = np.arange(1, 10)[None, :, None]
    lattice = np.vstack([10 * comp, (comp[pairs[:, :1]] * a + comp[pairs[:, 1:]] * (10 - a)).reshape(-1, m)])
    keys, mix_idx = np.unique(_composition_keys(lattice, 10 * k_parts), return_inverse=True)
    first = np.empty(keys.size, dtype=np.intp)
    first[mix_idx] = np.arange(mix_idx.size)  # any row of a key will do: they are one composition
    w = tenths / 10.0
    batch = _Batch(np.column_stack([w, 1.0 - w]), cond_idx, gc, lattice[first] / (10 * k_parts), mix_idx.reshape(-1))
    _read_only(*batch)
    return batch


def _face_batches(m: int, step: float):
    """|U|=2 sweeps confined to each two-letter input face; one mesh, one law and marginal table per face."""
    mesh = _two_point_mesh(max(1, round(1.0 / max(step, _FACE_STEP_FLOOR))))
    q, x = mesh.table[:, 0], mesh.mixes[:, 0]
    return [
        mesh._replace(table=_two_letter_laws(q, m, i, j), mixes=_two_letter_laws(x, m, i, j))
        for i in range(m)
        for j in range(i + 1, m)
    ]


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
        half, first = np.full((1, 2), 0.5), np.zeros(1, dtype=np.intp)
        canon_ux = _Batch(half, np.array([[0, 1]]), np.eye(2), half, first)
        canon_k1 = _Batch(np.ones((1, 1)), first[:, None], half, half, first)
        batches = [_binary_free_batch(step), canon_ux, canon_k1]
        return batches, [_aux3_free_binary()], step
    eff = _bounded_step(m, step, _POINT_GRID_CAP)
    grid = simplex_grid(m, eff)
    n = grid.shape[0]
    rows = np.arange(n)
    k1 = _Batch(np.ones((n, 1)), rows[:, None], grid, grid, rows)
    ux = _Batch(grid, np.broadcast_to(np.arange(m), (n, m)), np.eye(m), grid, rows)
    if m == 1:  # one law: no second law to pair with it, and no face
        return [k1, ux], [], eff
    return [k1, ux, _coarse_pair_batch(m), *_face_batches(m, step)], [], max(eff, _FACE_STEP_FLOOR)


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
    """Batches pinned to one input law, |U|=3 batches and the pinned grid's step.

    Every batch hits the member on its support, renormalized: that is each
    batch's one marginal row.  The batches are built once per (member, m,
    step) and shared read-only.
    """
    if target.size != m:
        raise DomainError("marginal constraint size does not match the channels")
    batches, aux3, eff = _pinned_batches(tuple(target.probs.tolist()), m, step)
    return list(batches), list(aux3), eff


@functools.lru_cache(maxsize=4)
def _pinned_batches(probs: tuple, m: int, step: float):
    t = np.array(probs)
    support = np.flatnonzero(t > CELL_FLOOR)
    w_ux = t[support] / t[support].sum()
    member = np.zeros((1, m))
    member[0, support] = w_ux
    k1 = (np.ones((1, 1)), np.zeros((1, 1), dtype=np.intp), t[None, :])
    ux = (w_ux[None, :], np.arange(support.size)[None, :], np.eye(m)[support])
    weights, cond_idx, table, eff = _constrained_two_point_batch(t, support, step)
    aux3 = [_aux3_constrained_binary(float(t[0]))] if m == 2 else []

    def pinned(group):
        batches = [_Batch(*b, member, np.zeros(b[0].shape[0], dtype=np.intp)) for b in group if b[0].shape[0]]
        for batch in batches:
            _read_only(*batch)
        return batches

    return pinned([k1, ux, (weights, cond_idx, table)]), pinned(aux3), eff


def _sweep_frontier(dominant: Dmc, weak: Dmc, batches: list, aux3_batches: list, bounds: dict) -> dict:
    """One frontier per bound in ``bounds`` (name -> its diagnostics), from one evaluation.

    Every decomposition's (A, B, C) is computed once, chunk by chunk; each
    bound's kind (_BOUND_KINDS) then emits its own vertices, Pareto set and
    hull.  A law array that several batches share is evaluated once.  Each
    frontier keeps its decompositions' ids and resolves its provenance on
    first read, a decomposition on several frontiers once; until then it
    holds the sweep's batches.  Diagnostics ``aux3_points`` counts the
    frontier points whose provenance is a |U|=3 decomposition, the ids at or
    above every base batch's (an exact tie keeps the earlier id), None when
    no |U|=3 batch ran.  ``conditional_laws`` and ``marginal_laws`` count
    the laws evaluated, each shared array once, as a table law when it first
    comes as a batch's table and as a marginal when it first comes as its
    marginals; ``num_decompositions`` counts the decompositions,
    ``num_candidates`` every rate-polygon corner of the bound's kind and
    ``num_survivors`` the corners that the runs hand to _pareto_filter.
    """
    kinds = dict.fromkeys(_BOUND_KINDS[name] for name in bounds)
    stairs = {kind: _Staircase(dominant.input_size) for kind in kinds}
    pts_lists: dict[str, list[np.ndarray]] = {kind: [] for kind in kinds}
    idx_lists: dict[str, list[np.ndarray]] = {kind: [] for kind in kinds}
    candidates = dict.fromkeys(kinds, 0)
    stored: list[tuple] = []
    offset = 0
    laws = marginals = 0
    memo: dict = {}
    aux3_offset = sum(batch.weights.shape[0] for batch in batches)
    for batch in batches + aux3_batches:
        n = batch.weights.shape[0]
        stored.append((offset, batch))
        values, (fresh_laws, fresh_marginals) = _batch_values(dominant, weak, batch, memo)
        laws += fresh_laws
        marginals += fresh_marginals
        for lo in range(0, n, _CHUNK):
            a, bq, cq = _chunk_quantities(batch, values, slice(lo, lo + _CHUNK))
            for kind in kinds:
                pts, pids, corners = _chunk_survivors(kind, a, bq, cq, offset + lo, stairs[kind])
                candidates[kind] += corners * a.size
                pts_lists[kind].append(pts)
                idx_lists[kind].append(pids)
        offset += n
    aux3_swept = aux3_offset < offset

    frontiers = {}
    resolved: dict[int, AuxDecomposition] = {}
    for kind in kinds:
        survivors = np.vstack(pts_lists[kind])
        pts, ids = _upper_hull(*_pareto_filter(survivors, np.concatenate(idx_lists[kind])))
        aux3_points = int((ids >= aux3_offset).sum()) if aux3_swept else None
        prov = _SweepIds(tuple(ids.tolist()), stored, resolved)
        rate_points = tuple(RatePoint(float(x), float(y)) for x, y in pts)
        frontiers[kind] = (rate_points, prov, candidates[kind], survivors.shape[0], aux3_points)

    out = {}
    for name, diagnostics in bounds.items():
        rate_points, prov, candidates, survivors, aux3_points = frontiers[_BOUND_KINDS[name]]
        diag = dict(diagnostics)
        diag["num_decompositions"] = offset
        diag["conditional_laws"] = laws
        diag["marginal_laws"] = marginals
        diag["num_candidates"] = candidates
        diag["num_survivors"] = survivors
        diag["aux3_points"] = aux3_points
        diag["aux3_swept"] = aux3_swept
        out[name] = RegionFrontier(points=rate_points, provenance=prov, diagnostics=diag)
    return out


class _SweepIds(NamedTuple):
    """A swept frontier's decomposition ids, resolved to AuxDecompositions on first read.

    ``stored`` lists the sweep's (offset, batch) pairs and ``resolved`` maps
    an id to its decomposition; both are shared by the sweep's frontiers, so
    a decomposition on several of them is resolved once.
    """

    ids: tuple
    stored: list
    resolved: dict

    def resolve(self) -> tuple:
        for i in self.ids:
            if i not in self.resolved:
                self.resolved[i] = _resolve_decomposition(self.stored, i)
        return tuple(self.resolved[i] for i in self.ids)


def _resolve_decomposition(stored, i: int) -> AuxDecomposition:
    offset, batch = next(entry for entry in reversed(stored) if i >= entry[0])  # the first offset is 0
    w = np.asarray(batch.weights[i - offset], dtype=float)
    r = np.array(batch.table[batch.cond_idx[i - offset]], dtype=float)
    r = r / np.maximum(r.sum(axis=1, keepdims=True), 1e-300)
    return AuxDecomposition(Dist(w / w.sum()), r)


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
