"""Ordering tests for a pair of channels sharing an input alphabet.

Each test returns a three-valued ClassVerdict instead of a bare boolean.
The orderings are universal statements ("for every input law", "for every
auxiliary chain"), so a grid search can refute but never prove them: Fails
always carries a concrete witness that re-validates independently, while
Holds means "no counterexample at the stated resolution" and carries the
search metadata in ``diagnostics``.  Degradedness is the exception: it is a
finite linear feasibility problem and is decided exactly up to tolerance.

Searches are deterministic: grids are enumerated in lexicographic order,
ties resolve to the first index, and random restarts are driven by an
explicit seed.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .channels import (
    Dmc,
    NotCSymmetricError,
    aux_mi_batch,
    detect_c_symmetry,
    mi_batch,
)
from .probcore import (
    CELL_FLOOR,
    Dist,
    DomainError,
    stochastic_array,
)

VERDICT_TOL = 1e-9        # violation size that flips a verdict to Fails
REFINE_FLOOR = 1e-7       # coordinate-descent step is halved down to this
_PAIR_GRID_CAP = 2000     # max first-row grid points of a pinned two-point sweep
_POINT_GRID_CAP = 300_000  # max grid points for single-point scans
_HESSIAN_BLOCK = 1 << 21  # max points x (m-1) x max(m-1, outputs) per Hessian block
_HALVINGS = 40            # spreads tried along a witness chord: t_max / 2^k
_FACE_PAIR_CAP = 1024     # max (face, input) pairs examined for face pulls


class Outcome(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True, eq=False)
class ClassVerdict:
    """Result of an ordering test: outcome, optional witness, search metadata."""

    outcome: Outcome
    witness: object | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.outcome is Outcome.HOLDS

    @property
    def fails(self) -> bool:
        return self.outcome is Outcome.FAILS


@dataclass(frozen=True, eq=False)
class AuxDecomposition:
    """An auxiliary input decomposition: a law on U plus one X-row per U symbol."""

    pu: Dist
    px_given_u: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.px_given_u)
        if len(shape) != 2 or shape[0] != self.pu.size:
            raise DomainError("px_given_u must be a (|U|, |X|) matrix")
        object.__setattr__(self, "px_given_u", stochastic_array(self.px_given_u, "px_given_u"))

    @property
    def aux_size(self) -> int:
        return int(self.px_given_u.shape[0])

    @property
    def input_size(self) -> int:
        return int(self.px_given_u.shape[1])

    def induced_marginal(self) -> Dist:
        return Dist(self.pu.probs @ self.px_given_u)

    def mi_aux(self, channel: Dmc) -> float:
        """I(U;Y) through the channel."""
        val = aux_mi_batch(
            channel.rows, self.pu.probs[None, :], self.px_given_u[None, :, :]
        )
        return float(val[0])

    def mi_conditional(self, channel: Dmc) -> float:
        """I(X;Y | U) through the channel."""
        per_u = mi_batch(channel.rows, self.px_given_u)
        return float(self.pu.probs @ per_u)


def _require_same_input(a: Dmc, b: Dmc) -> int:
    if a.input_size != b.input_size:
        raise DomainError(
            f"input alphabets differ: {a.input_size} vs {b.input_size}"
        )
    return a.input_size


def simplex_grid(m: int, step: float) -> np.ndarray:
    """All laws on m letters with coordinates that are multiples of ~step.

    The grid is the set of integer compositions of K = round(1/step) scaled
    by 1/K, enumerated in lexicographic order.
    """
    if step <= 0 or step > 1:
        raise DomainError("grid step must lie in (0, 1]")
    k_parts = max(1, round(1.0 / step))
    # expand each prefix by every value its remaining mass allows, in order
    comp = np.zeros((1, 0), dtype=np.int64)
    rem = np.array([k_parts])
    for _ in range(m - 1):
        counts = rem + 1
        value = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        comp = np.column_stack([np.repeat(comp, counts, axis=0), value])
        rem = np.repeat(rem, counts) - value
    return np.column_stack([comp, rem]) / k_parts


def _bounded_step(m: int, step: float, cap: int) -> float:
    """Coarsen step until the simplex grid fits under cap points."""
    eff = step
    while math.comb(max(1, round(1.0 / eff)) + m - 1, m - 1) > cap and eff < 1.0:
        eff = min(1.0, eff * 2.0)
    return eff


def gap_functional(a: Dmc, b: Dmc, px: Dist) -> float:
    """I(X;Y_a) - I(X;Y_b) at the given input law, in bits."""
    m = _require_same_input(a, b)
    if px.size != m:
        raise DomainError("input law size does not match the channels")
    return float(mi_batch(a.rows, px.probs[None, :])[0] - mi_batch(b.rows, px.probs[None, :])[0])


def _gap_vec(a: Dmc, b: Dmc, pxs: np.ndarray) -> np.ndarray:
    return mi_batch(a.rows, pxs) - mi_batch(b.rows, pxs)


def _refine_extremum(fn, x0: np.ndarray, step0: float, maximize: bool):
    """Coordinate descent on the simplex by pairwise mass moves.

    ``fn`` maps an (N, m) stack of laws to N values.  Each sweep evaluates
    every move of ``step`` mass from one coordinate to another in one call
    and applies the best one, or halves the step (down to REFINE_FLOOR) when
    none improves by more than CELL_FLOOR.  Deterministic: ties go to the
    first move, with the source coordinate outer and the target inner.
    """
    sign = 1.0 if maximize else -1.0
    x = np.array(x0, dtype=float)
    best = fn(x[None, :])[0]
    step = step0
    eye = np.eye(x.size)
    src, dst = np.nonzero(1.0 - eye)
    dirs = eye[dst] - eye[src]
    while step > REFINE_FLOOR:
        moves = x + step * dirs[x[src] >= step - CELL_FLOOR]
        vals = fn(moves) if moves.shape[0] else np.full(1, best)
        k = int(np.argmax(sign * vals))
        if sign * (vals[k] - best) > CELL_FLOOR:
            best, x = vals[k], moves[k]
        else:
            step *= 0.5
    return x, float(best)


def test_degraded(a: Dmc, b: Dmc, tol: float = VERDICT_TOL) -> ClassVerdict:
    """Can ``b`` be produced by postprocessing ``a``'s output?

    Solves min_t { |cascade(a, W) - b| <= t cellwise, W row-stochastic } as
    a linear program.  Holds (with the witness W) iff the optimum is within
    ``tol``; otherwise Fails with the worst-matched cell in diagnostics.
    This test is exact up to the tolerance, never Inconclusive.
    """
    # imported here: scipy.optimize dominates the package import time and
    # only this test solves an LP
    from scipy.optimize import linprog

    m = _require_same_input(a, b)
    na, nb = a.output_size, b.output_size
    nvars = na * nb + 1  # W entries then t
    c = np.zeros(nvars)
    c[-1] = 1.0
    # cellwise |sum_o a[i,o] W[o,y] - b[i,y]| <= t: rows +cell, -cell per (i, y)
    upper = np.hstack([np.kron(a.rows, np.eye(nb)), -np.ones((m * nb, 1))])
    lower = np.hstack([-upper[:, :-1], -np.ones((m * nb, 1))])
    a_ub = np.stack([upper, lower], axis=1).reshape(2 * m * nb, nvars)
    b_ub = np.stack([b.rows.ravel(), -b.rows.ravel()], axis=1).ravel()
    a_eq = np.hstack([np.kron(np.eye(na), np.ones((1, nb))), np.zeros((na, 1))])
    b_eq = np.ones(na)
    bounds = [(0.0, 1.0)] * (na * nb) + [(0.0, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"degradedness LP did not solve: {res.message}")
    w = np.clip(res.x[:-1].reshape(na, nb), 0.0, None)
    sums = w.sum(axis=1, keepdims=True)
    w = np.where(sums > CELL_FLOOR, w / np.maximum(sums, CELL_FLOOR), 1.0 / nb)
    witness = Dmc(w, b.output_labels)
    resid_table = np.abs(a.rows @ w - b.rows)
    resid = float(resid_table.max())
    worst = np.unravel_index(int(np.argmax(resid_table)), resid_table.shape)
    diagnostics = {
        "residual": resid,
        "worst_cell": [int(worst[0]), int(worst[1])],
        "lp_objective": float(res.x[-1]),
        "tol": tol,
    }
    if resid <= tol:
        return ClassVerdict(Outcome.HOLDS, witness=witness, diagnostics=diagnostics)
    return ClassVerdict(Outcome.FAILS, witness=witness, diagnostics=diagnostics)


def _gap_extremum(
    a: Dmc, b: Dmc, step: float, maximize: bool, probes: np.ndarray | None = None
) -> tuple[np.ndarray, float, dict]:
    """Extremum of I(X;Y_a) - I(X;Y_b) over a simplex grid plus refinement.

    ``probes`` are extra starting candidates considered after the grid (ties
    keep the grid point).  Returns the refined point, its gap and the
    search diagnostics.
    """
    m = _require_same_input(a, b)
    eff = _bounded_step(m, step, _POINT_GRID_CAP)
    grid = simplex_grid(m, eff)
    cands = grid if probes is None else np.vstack([grid, probes])
    gaps = _gap_vec(a, b, cands)
    i0 = int(np.argmax(gaps) if maximize else np.argmin(gaps))
    x, v = _refine_extremum(lambda q: _gap_vec(a, b, q), cands[i0], eff, maximize=maximize)
    key = "max" if maximize else "min"
    diagnostics = {
        "grid_step": eff,
        "grid_points": int(grid.shape[0]),
        f"{key}_gap": float(v),
        f"arg{key}": [float(t) for t in x],
    }
    if step != eff:
        diagnostics["requested_step"] = step
    return x, float(v), diagnostics


def _face_chords(a: Dmc, b: Dmc, t_max: float) -> tuple[np.ndarray, np.ndarray, bool]:
    """Chords leaving the faces next to which I(X;Y_a) - I(X;Y_b) bends up.

    For a face with support S and an input i outside it, the pull is
    s = sum of b[i, o] over the outputs o that no input of S reaches through
    b, minus the same sum through a.  Moving mass t from the face toward e_i
    changes the gap by -s t log(1/t) + O(t), so for s > 0 the gap's slope
    goes to -inf and its curvature to +inf as mass leaves the face.  For
    every positive pull, returns the chords from x, the uniform law on S, to
    x + t (e_i - x) for t halved down from t_max, as (starts, ends) rows.
    Supports are taken by size, and only the first _FACE_PAIR_CAP (face,
    input) pairs are examined; the flag says whether that cap cut the scan.
    """
    m = a.input_size
    bases, dirs = [], []
    budget = _FACE_PAIR_CAP
    # a positive pull needs an output that some face misses through b
    sizes = range(1, m) if np.any(b.rows <= CELL_FLOOR) else ()
    for support in itertools.chain.from_iterable(itertools.combinations(range(m), k) for k in sizes):
        budget -= m - len(support)
        if budget < 0:
            break
        s_idx = list(support)
        unseen_a = np.all(a.rows[s_idx] <= CELL_FLOOR, axis=0)
        unseen_b = np.all(b.rows[s_idx] <= CELL_FLOOR, axis=0)
        pull = b.rows[:, unseen_b].sum(axis=1) - a.rows[:, unseen_a].sum(axis=1)
        base = np.zeros(m)
        base[s_idx] = 1.0 / len(support)
        for i in range(m):
            if i not in support and pull[i] > CELL_FLOOR:
                bases.append(base)
                dirs.append(np.eye(m)[i] - base)
    bases, dirs = np.reshape(bases, (-1, 1, m)), np.reshape(dirs, (-1, 1, m))
    ts = (t_max * 0.5 ** np.arange(_HALVINGS + 1))[None, :, None]
    starts = np.broadcast_to(bases, (bases.shape[0], ts.size, m))
    return starts.reshape(-1, m), (bases + ts * dirs).reshape(-1, m), budget < 0


def test_more_capable(a: Dmc, b: Dmc, step: float = 0.02) -> ClassVerdict:
    """Is I(X;Y_b) <= I(X;Y_a) for every input law?

    Minimizes the gap over a simplex grid plus local refinement.  Faces with
    a positive pull (see _face_chords) add probes x + t (e_i - x) for t
    halved down from ``step``, since the gap can dip below zero far inside
    the first grid cell there.  Fails with the violating input law if the
    minimum drops below -VERDICT_TOL.
    """
    _require_same_input(a, b)
    _, probes, capped = _face_chords(a, b, step)
    x, v, diagnostics = _gap_extremum(a, b, step, maximize=False, probes=probes)
    diagnostics["face_probes"] = int(probes.shape[0])
    if capped:
        diagnostics["face_pair_cap"] = _FACE_PAIR_CAP
    if v < -VERDICT_TOL:
        return ClassVerdict(Outcome.FAILS, witness=Dist(x), diagnostics=diagnostics)
    return ClassVerdict(Outcome.HOLDS, diagnostics=diagnostics)


def _tangent_hessian(a: Dmc, b: Dmc, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hessian of I(X;Y_a) - I(X;Y_b) on the simplex's tangent space, per point.

    It is Q^T [B diag(1/q_b) B^T - A diag(1/q_a) A^T] Q / ln 2, with q = p rows
    and Q an orthonormal basis of {v : sum v = 0}, returned alongside.
    ``pts`` must lie in the open simplex.
    """
    m = pts.shape[1]
    # the trailing left singular vectors of the all-ones column span its complement
    q_basis = np.linalg.svd(np.ones((m, 1)))[0][:, 1:]
    hess = np.zeros((pts.shape[0], m - 1, m - 1))
    for rows, sign in ((b.rows, 1.0), (a.rows, -1.0)):
        rows = rows[:, rows.max(axis=0) > CELL_FLOOR]  # drop outputs no input reaches
        proj = q_basis.T @ rows
        hess += sign * ((proj[None, :, :] / (pts @ rows)[:, None, :]) @ proj.T)
    return hess / math.log(2.0), q_basis


def _max_curvature(a: Dmc, b: Dmc, pts: np.ndarray) -> tuple[float, int, np.ndarray]:
    """Largest tangent-space eigenvalue over ``pts``, its first point and eigenvector.

    The Hessians are taken in blocks of about _HESSIAN_BLOCK array entries,
    so memory stays bounded on large alphabets.
    """
    m = pts.shape[1]
    per_point = (m - 1) * max(m - 1, a.output_size, b.output_size)
    size = max(1, _HESSIAN_BLOCK // per_point)
    best = (-np.inf, -1, np.zeros(m))
    for lo in range(0, pts.shape[0], size):
        hess, q_basis = _tangent_hessian(a, b, pts[lo:lo + size])
        curv = np.linalg.eigvalsh(hess)[:, -1]
        k = int(np.argmax(curv))
        if curv[k] > best[0]:
            best = (float(curv[k]), lo + k, q_basis @ np.linalg.eigh(hess[k])[1][:, -1])
    return best


def test_less_noisy(a: Dmc, b: Dmc, step: float = 0.02) -> ClassVerdict:
    """Is I(U;Y_b) <= I(U;Y_a) for every auxiliary chain U -> X -> Y?

    Y_a is less noisy than Y_b exactly when f = I(X;Y_a) - I(X;Y_b) is
    concave in p(x), on any input alphabet (van Dijk, IEEE Trans. IT 1997).
    The test looks for curvature of f in two exact parts: the largest
    eigenvalue of its tangent-space Hessian at every interior grid point,
    and the face pulls, whose curvature diverges between the face and the
    first grid layer.  Each positive eigenvalue at its worst point, and each
    positive pull, becomes two-point auxiliary chords with weights 1/2
    (x +- t v for the eigenvector v; the uniform law on the face and a point
    toward e_i for a pull), t halved down from its largest feasible value.
    Fails with the best chord when its I(U;Y_b) - I(U;Y_a) exceeds
    VERDICT_TOL; otherwise Holds at the grid resolution.  A grid with fewer
    parts than inputs has no interior point; the Hessian is then taken on
    the grid pulled halfway toward the uniform law.
    """
    m = _require_same_input(a, b)
    eff = _bounded_step(m, step, _POINT_GRID_CAP)
    grid = simplex_grid(m, eff)
    interior = grid[np.all(grid > 0.0, axis=1)]
    if not interior.shape[0]:
        interior = 0.5 * grid + 0.5 / m
    diagnostics: dict = {"grid_step": eff, "grid_points": int(grid.shape[0]), "max_curvature": None}
    if step != eff:
        diagnostics["requested_step"] = step
    starts, ends = [], []  # witness chords
    if m > 1:
        curv, k, v = _max_curvature(a, b, interior)
        diagnostics["max_curvature"] = curv
        if curv > 0.0:
            x = interior[k]
            moving = np.abs(v) > CELL_FLOOR
            ts = np.min(x[moving] / np.abs(v[moving])) * 0.5 ** np.arange(_HALVINGS + 1)
            starts.append(x - ts[:, None] * v)
            ends.append(x + ts[:, None] * v)
    face_starts, face_ends, capped = _face_chords(a, b, 1.0)
    if capped:
        diagnostics["face_pair_cap"] = _FACE_PAIR_CAP
    starts.append(face_starts)
    ends.append(face_ends)
    rows = np.clip(np.stack([np.vstack(starts), np.vstack(ends)], axis=1), 0.0, None)
    rows /= rows.sum(axis=2, keepdims=True)
    # a chord's I(U;Y_b) is a Jensen-Shannon divergence, at most the total
    # variation between its ends, so ends within VERDICT_TOL cannot fail
    rows = rows[np.abs(rows[:, 0] - rows[:, 1]).sum(axis=1) > 2.0 * VERDICT_TOL]
    if rows.shape[0]:
        weights = np.full((rows.shape[0], 2), 0.5)
        viol = aux_mi_batch(b.rows, weights, rows) - aux_mi_batch(a.rows, weights, rows)
        k = int(np.argmax(viol))
        if viol[k] > VERDICT_TOL:
            diagnostics["violation"] = float(viol[k])
            diagnostics["witness_pair"] = [[float(t) for t in r] for r in rows[k]]
            witness = AuxDecomposition(Dist(np.array([0.5, 0.5])), rows[k])
            return ClassVerdict(Outcome.FAILS, witness=witness, diagnostics=diagnostics)
    return ClassVerdict(Outcome.HOLDS, diagnostics=diagnostics)


def test_dominant_c_symmetry(a: Dmc, b: Dmc, step: float = 0.02) -> ClassVerdict:
    """Does the uniform input maximize the gap I(X;Y_a) - I(X;Y_b)?

    Both channels must be c-symmetric (that is the setting in which the
    property implies an ordering).  Maximizes the gap over a simplex grid
    plus refinement and compares with the gap at uniform.
    """
    m = _require_same_input(a, b)
    for name, ch in (("first", a), ("second", b)):
        if detect_c_symmetry(ch) is None:
            raise NotCSymmetricError(f"{name} channel is not c-symmetric")
    x, v, diagnostics = _gap_extremum(a, b, step, maximize=True)
    gu = float(_gap_vec(a, b, np.full((1, m), 1.0 / m))[0])
    diagnostics["uniform_gap"] = gu
    if v > gu + VERDICT_TOL:
        return ClassVerdict(Outcome.FAILS, witness=Dist(x), diagnostics=diagnostics)
    return ClassVerdict(Outcome.HOLDS, diagnostics=diagnostics)


def test_essentially_less_noisy(a: Dmc, b: Dmc, step: float = 0.02) -> ClassVerdict:
    """Is Y_a less noisy than Y_b over some restricted input class?

    The implemented route covers c-symmetric pairs: if the uniform input
    dominates the gap, {uniform} is a sufficient class and the ordering
    holds on it.  Pairs without detected cyclic symmetry return
    Inconclusive, since this route says nothing about them.  Fails means
    the dominance route failed, not that no other sufficient class exists
    (see diagnostics["note"]).
    """
    _require_same_input(a, b)
    try:
        sym_a = detect_c_symmetry(a)
        sym_b = detect_c_symmetry(b)
    except DomainError as exc:
        return ClassVerdict(
            Outcome.INCONCLUSIVE, diagnostics={"reason": f"symmetry search unavailable: {exc}"}
        )
    if sym_a is None or sym_b is None:
        which = "first" if sym_a is None else "second"
        return ClassVerdict(
            Outcome.INCONCLUSIVE,
            diagnostics={"reason": f"{which} channel has no cyclic symmetry"},
        )
    dom = test_dominant_c_symmetry(a, b, step=step)
    diagnostics = dict(dom.diagnostics)
    diagnostics["route"] = "uniform-dominance on a c-symmetric pair"
    if dom.holds:
        diagnostics["sufficient_class"] = "uniform"
        return ClassVerdict(
            Outcome.HOLDS,
            witness=Dist.uniform(a.input_size),
            diagnostics=diagnostics,
        )
    diagnostics["note"] = (
        "dominance route failed; other sufficient classes are not searched"
    )
    return ClassVerdict(Outcome.FAILS, witness=dom.witness, diagnostics=diagnostics)


def constrained_two_point_batch(
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
    feasible = np.all(q1_grid >= -1e-12, axis=1) & np.all(q1_grid <= 1.0 + 1e-12, axis=1)
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


def test_essentially_more_capable(
    a: Dmc,
    b: Dmc,
    candidate_class: Sequence[Dist],
    step: float = 0.02,
    seed: int = 0,
    restarts: int = 2000,
) -> ClassVerdict:
    """Is I(X;Y_b|U) <= I(X;Y_a|U) for every chain whose marginal is in the class?

    For each class member the search covers the trivial |U|=1 decomposition,
    a grid of |U|=2 decompositions pinned to the marginal, and seeded random
    decompositions with |U| up to input size + 1.  Fails with a witness
    decomposition on any violation.  Holds does NOT certify that the class
    is a sufficient class; that assumption is the caller's, and diagnostics
    carry sufficiency_assumed=True as a reminder.  ``grid_step`` is the
    coarsest step a pinned |U|=2 grid actually ran at, with
    ``requested_step`` added when that differs from ``step``.
    """
    m = _require_same_input(a, b)
    if not candidate_class:
        raise DomainError("candidate class must contain at least one input law")
    rng = np.random.default_rng(seed)
    best_val = -np.inf
    best_weights: np.ndarray | None = None
    best_rows: np.ndarray | None = None
    best_class_idx = -1
    examined = 0
    pinned_step = step

    def consider(vals: np.ndarray, weights: np.ndarray, rows: np.ndarray, idx: int):
        nonlocal best_val, best_weights, best_rows, best_class_idx, examined
        examined += int(vals.size)
        if vals.size == 0:
            return
        k = int(np.argmax(vals))
        if float(vals[k]) > best_val:
            best_val = float(vals[k])
            best_weights = weights[k]
            best_rows = rows[k]
            best_class_idx = idx

    for idx, pdist in enumerate(candidate_class):
        if pdist.size != m:
            raise DomainError("class member size does not match the channels")
        target = pdist.probs
        support = np.flatnonzero(target > 1e-12)
        # |U| = 1: the conditional inequality reduces to the plain gap
        w1 = np.ones((1, 1))
        r1 = target[None, None, :]
        v1 = _cond_gap_batch(a, b, w1, r1)
        consider(v1, w1, r1, idx)
        if support.size >= 2:
            weights, rows, eff = constrained_two_point_batch(target, support, step)
            pinned_step = max(pinned_step, eff)
            if weights.shape[0] > 0:
                vals = _cond_gap_batch(a, b, weights, rows)
                consider(vals, weights, rows, idx)
            # seeded random restarts with larger auxiliary alphabets
            k_max = min(m + 1, support.size + 1)
            per_chunk = 256
            done = 0
            while done < restarts:
                nrem = min(per_chunk, restarts - done)
                k = 2 + (done // per_chunk) % max(1, k_max - 1)
                weights = rng.dirichlet(np.ones(k), size=nrem)
                rows_s = rng.dirichlet(np.ones(support.size), size=(nrem, k - 1))
                w_last = weights[:, -1]
                partial = np.einsum("nk,nkj->nj", weights[:, :-1], rows_s)
                last = (target[support][None, :] - partial) / w_last[:, None]
                ok = (
                    np.all(last >= -1e-12, axis=1)
                    & np.all(last <= 1.0 + 1e-12, axis=1)
                    & (w_last > 1e-9)
                )
                if np.any(ok):
                    rows = np.zeros((int(ok.sum()), k, m))
                    rows[:, :-1, support] = rows_s[ok]
                    rows[:, -1, support] = np.clip(last[ok], 0.0, None)
                    vals = _cond_gap_batch(a, b, weights[ok], rows)
                    consider(vals, weights[ok], rows, idx)
                done += nrem

    diagnostics = {
        "grid_step": pinned_step,
        "seed": seed,
        "candidates_examined": examined,
        "max_conditional_gap": float(best_val),
        "sufficiency_assumed": True,
    }
    if pinned_step != step:
        diagnostics["requested_step"] = step
    if best_val > VERDICT_TOL:
        diagnostics["violation"] = float(best_val)
        diagnostics["class_index"] = best_class_idx
        witness = AuxDecomposition(Dist(best_weights), best_rows)
        return ClassVerdict(Outcome.FAILS, witness=witness, diagnostics=diagnostics)
    return ClassVerdict(Outcome.HOLDS, diagnostics=diagnostics)


def _cond_gap_batch(a: Dmc, b: Dmc, weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """I(X;Y_b|U) - I(X;Y_a|U) for a batch of decompositions."""
    n, k, m = rows.shape
    flat = rows.reshape(n * k, m)
    per_u = (mi_batch(b.rows, flat) - mi_batch(a.rows, flat)).reshape(n, k)
    return np.einsum("nk,nk->n", weights, per_u)
