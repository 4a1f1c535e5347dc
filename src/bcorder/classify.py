"""Ordering tests for a pair of channels sharing an input alphabet.

Each test returns a three-valued ClassVerdict instead of a bare boolean.
The orderings are universal statements ("for every input law", "for every
auxiliary chain"), so a grid search can refute but never prove them: Fails
always carries a concrete witness that re-validates independently, while
Holds means "no counterexample at the stated resolution" and carries the
search metadata in ``diagnostics``.  Degradedness is the exception: it is
decided exactly up to tolerance, on binary inputs by the Blackwell order of
the two dichotomies and otherwise as a finite linear feasibility problem.
So are the other tests on binary inputs, where the gap is a function of
one variable whose concave and convex pieces are found exactly (see
_BinaryPieces).  Every binary verdict states ``"resolution": "exact"``.

Searches are deterministic: grids are enumerated in lexicographic order
and ties resolve to the first index.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .channels import (
    AuxDecomposition,
    CSymmetryWitness,
    Dmc,
    NotCSymmetricError,
    _require_same_input,
    aux_mi_batch,
    detect_c_symmetry,
    mi_batch,
    mi_from_entropies,
)
from .probcore import (
    _POINT_GRID_CAP,
    CELL_FLOOR,
    REFINE_FLOOR,
    SIMPLEX_TOL,
    VERDICT_TOL,
    Dist,
    DomainError,
    _bounded_step,
    entropy_vec,
    simplex_grid,
    stochastic_array,
)

# max array entries of one block: chords x halvings x outputs on the gap grid's face probes, chords x halvings
# x 2 x max(m, outputs) on the less-noisy chords, starts x rungs x moves x m in a refinement call
_HESSIAN_BLOCK = 1 << 21
# max array entries of one cache-sized block, under _HESSIAN_BLOCK: pairs x points x (m-1) x max(m-1, outputs)
# in the curvature scan, pairs x points x outputs on the gap grid; the fastest of 2^11-2^21 on 3- to 5-input
# scans, and of 2^12 to a whole 23k-point grid on a 4-input gap grid
_SCAN_BLOCK = 1 << 15
_HALVINGS = 40            # spreads tried along a witness chord: t_max / 2^k
_FACE_PAIR_CAP = 1024     # max (face, input) pairs examined for face pulls
_PIVOT_CAP = 10_000       # simplex pivots before a solve counts as failed
_LP_LANES = 1024          # degradedness LPs per lockstep solve, which bounds the tableaux' memory
_LOGIT_CAP = 50.0         # binary root searches keep q and 1 - q above e^-50, about 2e-22
_NEWTON_CAP = 64          # steps of one binary root search, above the ~45 bisections its bracket can need
_FLIP = np.array([1.0, -1.0])  # the signs of the logit in the exponents of 1 - q and q
_HALVES = Dist(np.array([0.5, 0.5]))  # the weights of a witness chord's two ends, read-only


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


@functools.lru_cache(maxsize=4)
def _grid_points(m: int, step: float) -> tuple[np.ndarray, np.ndarray]:
    """The simplex grid and its interior points, read-only, for the gap searches and the curvature scan.

    A grid with no interior point is pulled halfway toward the uniform law
    instead.
    """
    grid = simplex_grid(m, step)
    interior = grid[np.all(grid > 0.0, axis=1)]
    if not interior.shape[0]:
        interior = 0.5 * grid + 0.5 / m
    grid.flags.writeable = False
    interior.flags.writeable = False
    return grid, interior


def _point_blocks(total: int, size: int) -> list[slice]:
    """Blocks of ``size`` points, at least two, covering ``total`` points.

    The last block ends at ``total`` and overlaps the one before it rather
    than run short, so every block has one shape.  numpy takes the products
    of a one-point block as matrix-vector ones, which round otherwise; with
    two or more points, a point's values came out the same in every block
    size measured (up to five inputs and fifteen outputs).
    """
    size = min(max(total, 1), max(2, size))
    return [slice(lo, lo + size) for lo in (min(lo, total - size) for lo in range(0, total, size))]


def _gap_vec(a: np.ndarray, b: np.ndarray, pxs: np.ndarray) -> np.ndarray:
    """I(X;Y_a) - I(X;Y_b) through channel rows; leading axes broadcast as in mi_batch."""
    return mi_batch(a, pxs) - mi_batch(b, pxs)


def _stacked_pairs(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Validated (P, m, na) and (P, m, nb) channel-row stacks of P pairs."""
    sa, sb = np.shape(a), np.shape(b)
    if len(sa) != 3 or len(sb) != 3 or sa[:2] != sb[:2] or min(sa[1:] + sb[2:]) < 1:
        raise DomainError("stacked pairs need (P, m, na) and (P, m, nb) row arrays")
    return stochastic_array(a, "first channel rows"), stochastic_array(b, "second channel rows")


def _grid_head(step: float, grid_step: float, grid_points: int) -> dict:
    """The diagnostics that state a searched grid: its step and size, and ``requested_step`` if coarsened."""
    head = {"grid_step": grid_step, "grid_points": grid_points}
    if step != grid_step:
        head["requested_step"] = step
    return head


def _first_worst(owner: np.ndarray, per_chord: int, score) -> tuple[np.ndarray, ...]:
    """Each owner's first worst chord, scored in runs of chords under _HESSIAN_BLOCK entries.

    ``owner`` holds each chord's owner, ascending, and ``per_chord`` the
    array entries that scoring one chord takes.  ``score(run)`` maps a
    slice of chords to their (len, k) scores at k spreads, larger being
    worse.  Each chord keeps its first worst spread and each owner its
    first worst chord, as np.argmax picks them.  Returns the owners
    present, ascending, and each one's chord, spread and score.
    """
    along, worst = np.empty(owner.size, dtype=np.intp), np.empty(owner.size)
    size = max(1, _HESSIAN_BLOCK // per_chord)
    for lo in range(0, owner.size, size):
        run = slice(lo, lo + size)
        vals = score(run)
        along[run] = vals.argmax(axis=1)
        worst[run] = vals[np.arange(vals.shape[0]), along[run]]
    order = np.lexsort((np.arange(owner.size), -worst, owner))
    ranked = owner[order]
    lead = np.ones(order.size, dtype=bool)
    lead[1:] = ranked[1:] != ranked[:-1]
    best = order[lead]
    return ranked[lead], best, along[best], worst[best]


def _chord_fails(d: dict, violation: float, ends: np.ndarray) -> ClassVerdict:
    """A less-noisy Fails whose witness is the chord ``ends`` with weights 1/2; ``d`` gains both."""
    d["violation"] = float(violation)
    d["witness_pair"] = ends.tolist()
    return ClassVerdict(Outcome.FAILS, AuxDecomposition(_HALVES, ends), d)


def _refine_extremum(fn, x0: np.ndarray, step0: float):
    """Coordinate ascent on the simplex by pairwise mass moves, from P starts in lockstep.

    ``x0`` is a (P, m) stack of start laws.  ``fn(q, idx)`` maps a
    (len(idx), r, m) stack of laws, where q[j] belongs to start idx[j], to
    their (len(idx), r) values, each law's value depending on that law and
    its start only.  A sweep at step s evaluates every move of mass s from
    one coordinate to another, the k = m(m-1) moves with the source
    coordinate outer and the target inner, and applies the first best one,
    or halves s (down to REFINE_FLOOR) when none improves by more than
    CELL_FLOOR.  A move that needs more mass than its source holds is
    evaluated at the unmoved law and never taken.

    A sweep that gains nothing leaves the point as it is, so the sweeps
    that follow it until one gains are the start's rungs: its step halved
    0, 1, 2, ... times, while above REFINE_FLOOR, all from the same point.
    Each round evaluates all the rungs that every start still refining has
    left, as one block of W k rows per start, W the most rungs any of them
    has left.  A start applies its first rung that gains and stays at that
    step, or ends when none does: the points, values and sweep counts of
    sweep-by-sweep refinement, in one round per gain.  A round builds,
    evaluates and applies its moves in runs of starts of at most
    _HESSIAN_BLOCK entries (one fn call per run), so its memory does not
    grow with P.  Returns the points, their (P,) values and each start's
    number of sweeps.  A caller minimizes f by maximizing 0.0 - f, which reverses
    f's ranks and gains exactly, and maps a value v back as 0.0 - v.
    """
    x = np.array(x0, dtype=float)
    count, m = x.shape
    best = fn(x[:, None, :], np.arange(count))[:, 0]
    rungs = 0  # the steps step0 / 2^j above REFINE_FLOOR
    while np.ldexp(step0, -rungs) > REFINE_FLOOR:
        rungs += 1
    sweeps = np.zeros(count, dtype=np.int64)
    if m == 1:  # no move exists: every sweep only halves the step
        sweeps += rungs
        return x, best, sweeps
    eye = np.eye(m)
    src, dst = np.nonzero(1.0 - eye)
    dirs = eye[dst] - eye[src]
    # the starts still refining: point, value, rung and sweeps so far
    live = np.arange(count) if rungs else np.arange(0)
    xl, bl = x[live], best[live]
    rung, swept = np.zeros(live.size, dtype=np.int64), np.zeros(live.size, dtype=np.int64)
    while live.size:
        left = rungs - rung
        width = int(left.max())
        hit = np.empty(live.size, dtype=bool)
        first = np.empty(live.size, dtype=np.int64)
        # each run of starts builds, evaluates and applies its own moves
        run = max(1, _HESSIAN_BLOCK // (width * dirs.shape[0] * m))
        for lo in range(0, live.size, run):
            r = slice(lo, lo + run)
            at = rung[r, None] + np.arange(width)
            steps = np.ldexp(step0, -at)[:, :, None]
            feasible = xl[r].take(src, 1)[:, None, :] >= steps - CELL_FLOOR
            moves = xl[r, None, None, :] + (steps * feasible)[..., None] * dirs
            vals = fn(moves.reshape(feasible.shape[0], -1, m), live[r])
            vals = np.where(feasible, vals.reshape(feasible.shape), -np.inf)
            top = vals.max(2)
            gain = top - bl[r, None] > CELL_FLOOR
            gain &= at < rungs  # no start takes a rung at or below REFINE_FLOOR
            hit[r] = gain.any(1)
            first[r] = gain.argmax(1)
            g = np.flatnonzero(hit[r])
            if g.size:
                fg = first[r][g]
                xl[lo + g] = moves[g, fg, vals[g, fg].argmax(1)]
                bl[lo + g] = top[g, fg]
        swept += np.where(hit, first + 1, left)
        rung += first
        done = ~hit
        x[live[done]], best[live[done]], sweeps[live[done]] = xl[done], bl[done], swept[done]
        live, xl, bl, rung, swept = (v[hit] for v in (live, xl, bl, rung, swept))
    return x, best, sweeps


@dataclass(frozen=True, eq=False)
class _Extrema:
    """The two extrema of g = I(X;Y_a) - I(X;Y_b) of P pairs: arrays indexed (extremum, pair).

    Extremum 0 is min g and 1 is max g.  ``points`` is (2, P, m),
    ``values`` is (2, P) and ``uniform`` is (P,), g at the uniform law.
    Since g(b, a) is 0.0 - g bit for bit, each test in each direction reads
    one extremum: more capable of a over b reads min g and of b over a
    0.0 - max g; uniform dominance of a over b reads max g and of b over a
    0.0 - min g.  Each route's ``_search(k, side, p, capable)`` states how
    extremum k of pair p was found, for a test of ``side``.
    """

    points: np.ndarray
    values: np.ndarray
    uniform: np.ndarray

    def capable(self, side: int) -> list[ClassVerdict]:
        """More-capable verdicts, one per pair, of a over b (side 0) or b over a (side 1).

        Fails with the minimizer when the side's minimum gap is below
        -VERDICT_TOL.
        """
        return self._verdicts(side, capable=True)

    def dominant(self, side: int) -> list[ClassVerdict]:
        """Uniform-dominance verdicts, one per pair, of a over b (side 0) or b over a (side 1).

        Fails with the maximizer when the side's maximum gap exceeds its gap
        at the uniform law by more than VERDICT_TOL.  Means something only
        for c-symmetric channels, which the callers check.
        """
        return self._verdicts(side, capable=False)

    def _verdicts(self, side: int, capable: bool) -> list[ClassVerdict]:
        k = side if capable else 1 - side  # capable side 0 and dominant side 1 read min g
        x, v, u = self.points[k], self.values[k], self.uniform
        if side:
            v, u = 0.0 - v, 0.0 - u
        key = "min" if capable else "max"
        fails = v < -VERDICT_TOL if capable else v > u + VERDICT_TOL
        verdicts = []
        for p, (xp, vp) in enumerate(zip(x.tolist(), v.tolist())):
            d = {f"{key}_gap": vp, f"arg{key}": xp, **self._search(k, side, p, capable)}
            if not capable:
                d["uniform_gap"] = float(u[p])
            if fails[p]:
                verdicts.append(ClassVerdict(Outcome.FAILS, witness=Dist(x[p]), diagnostics=d))
            else:
                verdicts.append(ClassVerdict(Outcome.HOLDS, diagnostics=d))
        return verdicts


@dataclass(frozen=True, eq=False)
class _GapSearch(_Extrema):
    """The extrema of a grid search, for m != 2 (see _GridRoute.extrema).

    ``sweeps`` is (2, P), and ``face_probes`` and ``face_capped`` are
    (2, P), the face scan of (a, b) behind min g and of (b, a) behind
    max g.  ``head`` is the route's _grid_head.
    """

    head: dict
    sweeps: np.ndarray
    face_probes: np.ndarray
    face_capped: np.ndarray

    def _search(self, k: int, side: int, p: int, capable: bool) -> dict:
        d = {**self.head, "refine_sweeps": int(self.sweeps[k, p])}
        if capable:
            d["face_probes"] = int(self.face_probes[side, p])
            if self.face_capped[side, p]:
                d["face_pair_cap"] = _FACE_PAIR_CAP
        return d


@dataclass(frozen=True, eq=False)
class _ExactExtrema(_Extrema):
    """The extrema of binary-input pairs, from their concave and convex pieces (see _BinaryPieces.extrema)."""

    pieces: np.ndarray

    def _search(self, k: int, side: int, p: int, capable: bool) -> dict:
        return {"resolution": "exact", "pieces": int(self.pieces[p])}


def _binary_laws(t: np.ndarray) -> np.ndarray:
    """The input laws (1 - q, q) at logits t = ln(q / (1 - q)), as (..., 2).

    Each coordinate keeps its full relative precision next to either
    vertex, and t = -inf and +inf give the vertices exactly.
    """
    return 1.0 / (1.0 + np.exp(t[..., None] * _FLIP))


def _output_laws(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(1 - q) r0 + q r1 for laws x (..., 2) and rows (..., 2, n), cell by cell, without BLAS."""
    return x[..., :1] * rows[..., 0, :] + x[..., 1:] * rows[..., 1, :]


@dataclass(frozen=True, eq=False)
class _BinaryPieces:
    """The concave and convex runs of g = I(X;Y_a) - I(X;Y_b) for P binary-input pairs.

    With d = r1 - r0 and L_y = (1 - q) r0_y + q r1_y for q = P(X = 1),
    g''(q) = -S(q) / ln 2 where S = S_a - S_b and S_c is the sum of
    d_y^2 / L_y over channel c's outputs.  Positions are logits
    t = ln(q / (1 - q)): run r of pair p spans ``ends[p, r]`` to
    ``ends[p, r + 1]``, -inf and +inf being the vertices, and
    ``shape[p, r]`` is +1 where S > 0 (g concave), -1 where S < 0 (g
    convex) and 0 where S vanishes (g linear).  Runs from ``pieces[p]`` on
    are empty padding, +inf to +inf with shape 0.  ``rows``, ``d`` and
    ``sq`` are the outputs of a then b side by side, (P, 2, n), (P, n) and
    (P, n): an output with |d| <= CELL_FLOOR takes d = 0 and rows of ones,
    so its L is 1 and it adds nothing to g' or g''.  Every sum over outputs
    is taken per channel (np.add.reduceat at a's output count), so swapping
    a and b negates S, g' and g bit for bit.  A _BinaryRoute holds the
    pieces of a stack in runs of pairs, each read in turn.
    """

    a: np.ndarray
    b: np.ndarray
    rows: np.ndarray
    d: np.ndarray
    sq: np.ndarray
    ends: np.ndarray
    shape: np.ndarray
    pieces: np.ndarray

    def extrema(self) -> _ExactExtrema:
        """min g and max g of every pair.

        Both lie at q = 0, q = 1, a run end, or where g' vanishes inside a
        run.  On a run of shape +-1 g' is monotone, so it vanishes there at
        most once, and only where its signs at the run's ends (clipped to
        |t| <= _LOGIT_CAP) differ.  Those roots are searched in lockstep by
        Newton's method on h(t) = g'(q), with h'(t) = g''(q) q (1 - q),
        safeguarded by bisection in t inside a bracket that every step
        shrinks.  A root stops after a step of at most SIMPLEX_TOL in q,
        so g there is off by about g'' SIMPLEX_TOL^2, or after _NEWTON_CAP
        steps.  g at the uniform law, the run ends and the roots gives the
        extrema, the first of equals; the uniform law's is ``uniform``.
        """
        a, b, split = self.a, self.b, [0, self.a.shape[2]]
        ha, hb = entropy_vec(a, axis=-1), entropy_vec(b, axis=-1)
        pair, run = np.nonzero(self.shape)
        rows, d, sq = self.rows[pair], self.d[pair], self.sq[pair]
        # g' = gain - sum_y d_y log2 L_y, summed per channel; I'_c = H(r0) - H(r1) - ...
        gain = (ha[pair, 0] - ha[pair, 1]) - (hb[pair, 0] - hb[pair, 1])

        def slope(t):
            # h, dh/dt and dq/dt at logits t, (..., lanes)
            x = _binary_laws(t)
            out = _output_laws(x, rows)
            drift = np.add.reduceat(d * np.log2(out), split, axis=-1)
            bend = np.add.reduceat(sq / out, split, axis=-1)
            dq = x[..., 0] * x[..., 1]
            return gain - (drift[..., 0] - drift[..., 1]), (bend[..., 1] - bend[..., 0]) * dq / math.log(2.0), dq

        lo = np.maximum(self.ends[pair, run], -_LOGIT_CAP)
        hi = np.minimum(self.ends[pair, run + 1], _LOGIT_CAP)
        h_lo, h_hi = slope(np.array([lo, hi]))[0]
        live = h_lo * h_hi < 0.0  # a root inside
        found = live.copy()
        t = 0.5 * (lo + hi)
        for _ in range(_NEWTON_CAP):
            if not live.any():
                break
            h, dh, dq = slope(t)
            up = h * h_lo > 0.0  # t lies below the root
            lo, hi, h_lo = np.where(up, t, lo), np.where(up, hi, t), np.where(up, h, h_lo)
            step = np.divide(h, dh, out=np.full_like(h, np.inf), where=dh != 0.0)
            done = np.abs(step) * dq <= SIMPLEX_TOL
            nxt = t - step
            nxt = np.where(done | ((nxt > lo) & (nxt < hi)), nxt, 0.5 * (lo + hi))
            t = np.where(live, nxt, t)  # a root stops where it was done, in a stack as alone
            live &= ~done
        # candidates: the uniform law (t = 0), the run ends, then the roots; a run without one repeats vertex 0
        width = self.ends.shape[1]
        cands = np.full((len(a), 1 + width + self.shape.shape[1]), -np.inf)
        cands[:, 0] = 0.0
        cands[:, 1:width + 1] = self.ends
        cands[pair, width + 1 + run] = np.where(found, t, -np.inf)
        x = _binary_laws(cands)
        g = mi_from_entropies(a, ha, x) - mi_from_entropies(b, hb, x)
        picks = np.array([g.argmin(axis=1), g.argmax(axis=1)])
        lane = np.arange(len(a))
        return _ExactExtrema(points=x[lane, picks], values=g[lane, picks], uniform=g[:, 0], pieces=self.pieces)

    def less_noisy(self, both: bool = False) -> list[list[ClassVerdict]]:
        """Less-noisy verdicts of a over b, one per pair, and with ``both`` a list of those of b over a.

        a is less noisy than b iff g is concave (van Dijk), so the witnesses
        against a over b are the convex runs, and against b over a the
        concave ones.  A run's chord, its two ends with weights 1/2, gives
        I(U;Y_b) - I(U;Y_a) = (g(x1) + g(x2)) / 2 - g((x1 + x2) / 2), which
        is positive on a convex run and grows as either end moves outward
        (its derivative in x1 is (g'(x1) - g'(mid)) / 2 <= 0), so the run
        ends are its widest chord.  Each chord is scored by aux_mi_batch,
        and a verdict Fails with its first worst chord when that exceeds
        VERDICT_TOL.  The verdicts of b over a equal those of a one-way
        call on (b, a), bit for bit.
        """
        ends = self.ends
        chords = _binary_laws(ends)[:, np.add.outer(np.arange(ends.shape[1] - 1), [0, 1])]
        weights = np.full(chords.shape[:3], 0.5)
        info_a, info_b = aux_mi_batch(self.a, weights, chords), aux_mi_batch(self.b, weights, chords)
        sides = []
        for shape, viol in ((-1.0, info_b - info_a), (1.0, info_a - info_b))[: 2 if both else 1]:
            viol = np.where(self.shape == shape, viol, -np.inf)
            verdicts = []
            for p, (c, pieces) in enumerate(zip(viol.argmax(axis=1).tolist(), self.pieces.tolist())):
                d = {"resolution": "exact", "pieces": pieces}
                if viol[p, c] > VERDICT_TOL:
                    verdicts.append(_chord_fails(d, viol[p, c], chords[p, c]))
                else:
                    verdicts.append(ClassVerdict(Outcome.HOLDS, diagnostics=d))
            sides.append(verdicts)
        return sides


def _binary_pieces(a: np.ndarray, b: np.ndarray) -> _BinaryPieces:
    """The runs of g'' of one sign, for (P, 2, na) and (P, 2, nb) row stacks.

    S times the product of the L_y is a polynomial.  In z = q / (1 - q) it
    is N(z) = P_a P_b (Q_a - Q_b), with P_c the product of r0_y + z r1_y
    and Q_c the sum of d_y^2 / (r0_y + z r1_y) over channel c's outputs.
    Its degree is below n = na + nb, so its coefficients are the FFT of its
    values at the n-th roots of unity.  Coefficients at either end within
    SIMPLEX_TOL of the largest are dropped, which drops roots within about
    that ratio of a vertex.  The cuts are the positive real roots of the
    rest (companion-matrix eigenvalues whose imaginary part is within
    sqrt(SIMPLEX_TOL) of their modulus) with |ln z| < _LOGIT_CAP.  Each
    piece between cuts takes the sign of S at its midpoint logit, clipped
    to the cap, and neighbours of one sign merge into one run, so a
    spurious cut costs nothing but a candidate.  Swapping a and b negates
    N and S bit for bit: the runs of (b, a) are those of (a, b), shapes
    negated.
    """
    count, n = a.shape[0], a.shape[2] + b.shape[2]
    split = [0, a.shape[2]]
    rows = np.concatenate([a, b], axis=2)
    d = rows[:, 1] - rows[:, 0]
    moving = np.abs(d) > CELL_FLOOR
    d = np.where(moving, d, 0.0)
    sq = d * d
    rows = np.where(moving[:, None, :], rows, 1.0)
    z = np.exp(2j * np.pi * np.arange(n) / n)[:, None]
    f = np.where(moving[:, None, :], rows[:, None, 0, :] + z * rows[:, None, 1, :], 1.0)
    prods, sums = np.multiply.reduceat(f, split, axis=2), np.add.reduceat(sq[:, None, :] / f, split, axis=2)
    pa, pb = prods[..., 0], prods[..., 1]
    # P_a P_b term by term, since numpy's complex product of x and y need not round as that of y and x
    both = (pa.real * pb.real - pa.imag * pb.imag) + 1j * (pa.real * pb.imag + pa.imag * pb.real)
    coefs = np.fft.fft(both * (sums[..., 0] - sums[..., 1]), axis=1).real
    kept = np.abs(coefs) > SIMPLEX_TOL * np.abs(coefs).max(axis=1, initial=0.0, keepdims=True)
    trail = kept.argmax(axis=1)
    degree = np.where(kept.any(axis=1), n - 1 - kept[:, ::-1].argmax(axis=1) - trail, 0)
    cuts = np.full((count, n), np.inf)
    for k in (np.flatnonzero(np.bincount(degree)[1:]) + 1).tolist():  # np.unique would import numpy.ma
        sel = np.flatnonzero(degree == k)
        c = coefs[sel[:, None], trail[sel, None] + np.arange(k + 1)]
        companion = np.zeros((sel.size, k, k))
        companion[:, 0] = -c[:, k - 1::-1] / c[:, k:]
        companion[:, np.arange(1, k), np.arange(k - 1)] = 1.0
        lam = np.linalg.eigvals(companion)
        real = (lam.real > 0.0) & (np.abs(lam.imag) <= math.sqrt(SIMPLEX_TOL) * np.abs(lam))
        t = np.log(np.where(real, lam.real, np.inf))
        cuts[sel, :k] = np.where(np.abs(t) < _LOGIT_CAP, t, np.inf)
    cuts.sort(axis=1)
    ends = np.full((count, int(np.isfinite(cuts).sum(axis=1).max(initial=0)) + 2), np.inf)
    ends[:, 0] = -np.inf
    ends[:, 1:-1] = cuts[:, :ends.shape[1] - 2]
    mid = 0.5 * (np.clip(ends[:, :-1], -_LOGIT_CAP, _LOGIT_CAP) + np.clip(ends[:, 1:], -_LOGIT_CAP, _LOGIT_CAP))
    bend = np.add.reduceat(sq[:, None] / _output_laws(_binary_laws(mid), rows[:, None]), split, axis=2)
    # a piece of no width (a repeated or padding cut) takes the sign of the piece before it
    width = ends[:, :-1] < ends[:, 1:]
    sign = np.sign(bend[..., 0] - bend[..., 1])
    sign = sign[np.arange(count)[:, None], np.maximum.accumulate(np.where(width, np.arange(width.shape[1]), 0), axis=1)]
    first = width.copy()
    first[:, 1:] &= sign[:, 1:] != sign[:, :-1]
    run = np.cumsum(first, axis=1) - 1
    pieces = run[:, -1] + 1
    run_ends = np.full((count, int(pieces.max(initial=1)) + 1), np.inf)
    shape = np.zeros((count, run_ends.shape[1] - 1))
    p, j = np.nonzero(first)
    run_ends[p, run[p, j]] = ends[p, j]
    shape[p, run[p, j]] = sign[p, j]
    return _BinaryPieces(a=a, b=b, rows=rows, d=d, sq=sq, ends=run_ends, shape=shape, pieces=pieces)


def _simplex(lp: np.ndarray, rhs: np.ndarray, cost: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimize cost x subject to lp x = rhs, x >= 0, for a (P, R, N) stack of LPs in lockstep.

    ``rhs`` is (P, R), ``cost`` broadcasts to (P, N), and the (P, R) column
    indices ``basis`` give a nonsingular B with B^-1 rhs >= 0, a feasible
    start, so there is no phase I.  Each lane pivots its own dense tableau
    only.  Pricing is Dantzig's (ties in the ratio test go to the largest
    pivot); after a degenerate pivot it is Bland's, lowest index entering
    and leaving, which cannot cycle (Bland, Math. Oper. Res. 1977).
    Reduced costs >= -SIMPLEX_TOL are optimal, pivots <= SIMPLEX_TOL zero.
    More than _PIVOT_CAP pivots, or an unbounded column, raise
    RuntimeError.  Each final basis is solved once more on the original
    data, so no drift of the tableau reaches the returned basic solutions
    x, (P, N), and duals y, (P, R), with y B = cost_B.
    """
    count, rows, cols = lp.shape
    lanes = np.arange(count)[:, None]
    cost = np.broadcast_to(cost, (count, cols))
    basis = np.array(basis, dtype=np.int64)
    tab = np.empty((count, rows + 1, cols + 1))
    tab[:, :rows, :cols], tab[:, :rows, cols] = lp, rhs
    tab[:, rows, :cols], tab[:, rows, cols] = cost, 0.0
    # lp[lanes, :, basis] is B transposed, lane by lane
    tab[:, :rows] = np.linalg.solve(lp[lanes, :, basis].transpose(0, 2, 1), tab[:, :rows])
    tab[:, rows] -= (cost[lanes, basis][:, None, :] @ tab[:, :rows])[:, 0]
    final = basis.copy()
    # the lanes still pivoting, with their tableau, basis and pricing rule
    live, bland = np.arange(count), np.zeros(count, dtype=bool)
    lane = live
    for _ in range(_PIVOT_CAP + 1):
        reduced = tab[:, rows, :cols]
        q = reduced.argmin(axis=1)
        going = reduced[lane, q] < -SIMPLEX_TOL
        if not going.all():
            final[live[~going]] = basis[~going]
            live, tab, basis, bland, q = live[going], tab[going], basis[going], bland[going], q[going]
            reduced, lane = tab[:, rows, :cols], np.arange(live.size)
        if not live.size:
            break
        if bland.any():
            q = np.where(bland, (reduced < -SIMPLEX_TOL).argmax(axis=1), q)
        col = tab[lane, :rows, q]
        bounded = col > SIMPLEX_TOL
        ratio = np.divide(np.maximum(tab[:, :rows, cols], 0.0), col, out=np.full(col.shape, np.inf), where=bounded)
        theta = ratio.min(axis=1, keepdims=True)
        if np.isinf(theta).any():
            raise RuntimeError("LP is unbounded")
        # among tied rows, Dantzig takes the largest pivot and Bland the lowest basic column
        key = np.where(bland[:, None], -basis, col) if bland.any() else col
        r = np.where(ratio <= theta + SIMPLEX_TOL, key, -np.inf).argmax(axis=1)
        pivot_row = tab[lane, r] / col[lane, r][:, None]
        tab -= tab[lane, :, q][:, :, None] * pivot_row[:, None, :]
        tab[lane, r] = pivot_row
        basis[lane, r] = q
        bland = theta[:, 0] <= SIMPLEX_TOL
    else:
        raise RuntimeError(f"simplex did not finish in {_PIVOT_CAP} pivots")
    opt_t = lp[lanes, :, final]
    x = np.zeros((count, cols))
    x[lanes, final] = np.linalg.solve(opt_t.transpose(0, 2, 1), rhs[:, :, None])[:, :, 0]
    y = np.linalg.solve(opt_t, cost[lanes, final][:, :, None])[:, :, 0]
    return x, y


def _blackwell_margins(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blackwell margins of binary-input pairs: (P, 2, na) and (P, 2, nb) row stacks.

    phi_c(lam) = sum_y max((1 - lam) r0_y, lam r1_y) is the success
    probability of the best test between the two inputs of channel c under
    the prior (1 - lam, lam), one minus its Bayes risk.  b is a garbling of
    a iff phi_a >= phi_b on [0, 1] (Blackwell, Ann. Math. Statist. 1953;
    for dichotomies, Torgersen, Comparison of Statistical Experiments,
    1991).  Both are convex and piecewise linear, phi_c with kinks at
    lam_y = r0_y / (r0_y + r1_y).  Between two kinks of a, phi_a is linear,
    so phi_a - phi_b is concave there and least at an end: its minimum
    over lam = 0, lam = 1 and a's kinks is its minimum on [0, 1], the
    margin.  An output that neither input of a reaches is given the kink 0.
    Returns the (P,) margins, the first lam that attains each and the
    (2, P) values phi_a and phi_b there, whose difference is the margin.
    """
    count = len(a)
    mass = a[:, 0] + a[:, 1]
    kinks = np.divide(a[:, 0], mass, out=np.zeros_like(mass), where=mass > 0.0)
    lam = np.concatenate([np.zeros((count, 1)), np.ones((count, 1)), kinks], axis=1)
    phi = np.stack(
        [np.maximum((1.0 - lam)[:, :, None] * rows[:, None, 0], lam[:, :, None] * rows[:, None, 1]).sum(axis=2) for rows in (a, b)]
    )
    diff = phi[0] - phi[1]
    worst = diff.argmin(axis=1)
    lane = np.arange(count)
    return diff[lane, worst], lam[lane, worst], phi[:, lane, worst]


def _degradedness_lp(a: np.ndarray, b: np.ndarray, tol: float = VERDICT_TOL) -> tuple[np.ndarray, ...]:
    """The degradedness LPs of (P, m, na) and (P, m, nb) row stacks, all in one _simplex call.

    Pair p's LP is min t subject to -t <= (a W - b)[i, y] <= t for every
    cell and W row-stochastic, in equality form with a slack per cell
    bound.  Its start sets W[o, 0] = 1 for every o, makes t basic in the
    bound of the largest signed residual and every other bound's slack
    basic: feasible, and nonsingular by block-triangularity.  By LP
    duality, any Z on the cells with sum |Z| <= 1 bounds the optimum from
    below by sum_o min_y (a^T Z)[o, y] - <Z, b>, Blackwell's distinguishing
    test (Ann. Math. Statist. 1953); Z is the difference of the two bounds'
    final duals, scaled down to sum |Z| <= 1 where rounding leaves it
    above.  Returns per pair W (P, na, nb), its residual (largest cell of
    |a W - b|), its worst cell (the first within SIMPLEX_TOL of the
    residual, flat), the LP optimum, the dual bound and Z (P, m, nb).  A
    residual above ``tol`` whose dual bound lies below tol - SIMPLEX_TOL
    means the simplex stopped short of the optimum, and raises
    RuntimeError.
    """
    count, m, na = a.shape
    nb = b.shape[2]
    cells, nw = m * nb, na * nb
    t_col, rows = nw, 2 * cells + na
    lp = np.zeros((count, rows, nw + 1 + 2 * cells))
    # bound rows: (a W)[i, y] - t + s = b[i, y], then -(a W)[i, y] - t + s = -b[i, y]
    i, y, o = np.arange(m)[:, None, None], np.arange(nb)[:, None], np.arange(na)
    lp[:, i * nb + y, o * nb + y] = a[:, :, None, :]
    lp[:, cells + i * nb + y, o * nb + y] = -a[:, :, None, :]
    lp[:, :2 * cells, t_col] = -1.0
    lp[:, np.arange(2 * cells), nw + 1 + np.arange(2 * cells)] = 1.0
    # then each row of W sums to 1
    lp[:, 2 * cells + o[:, None], o[:, None] * nb + np.arange(nb)] = 1.0
    flat_b = b.reshape(count, cells)
    rhs = np.concatenate([flat_b, -flat_b, np.ones((count, na))], axis=1)
    cost = np.zeros(lp.shape[2])
    cost[t_col] = 1.0
    # W[o, 0] = 1 leaves the residual e_0 - b in every input row
    crash = (np.eye(1, nb) - b).reshape(count, cells)
    basis = np.tile(np.concatenate([nw + 1 + np.arange(2 * cells), o * nb]), (count, 1))
    basis[np.arange(count), np.concatenate([crash, -crash], axis=1).argmax(axis=1)] = t_col
    x, duals = _simplex(lp, rhs, cost, basis)
    w = np.clip(x[:, :nw].reshape(count, na, nb), 0.0, None)
    sums = w.sum(axis=2, keepdims=True)
    w = np.where(sums > CELL_FLOOR, w / np.maximum(sums, CELL_FLOOR), 1.0 / nb)
    resid_table = np.abs(a @ w - b).reshape(count, cells)
    resid = resid_table.max(axis=1)
    # cells often tie up to rounding; the first within SIMPLEX_TOL of the largest is stable
    worst = np.argmax(resid_table >= resid[:, None] - SIMPLEX_TOL, axis=1)
    z = (duals[:, cells:2 * cells] - duals[:, :cells]).reshape(count, m, nb)
    z /= np.maximum(np.abs(z).sum(axis=(1, 2)), 1.0)[:, None, None]
    bound = np.einsum("pio,piy->poy", a, z).min(axis=2).sum(axis=1) - np.einsum("piy,piy->p", z, b)
    short = np.flatnonzero((resid > tol) & (bound <= tol - SIMPLEX_TOL))
    if short.size:
        r, lower = float(resid[short[0]]), float(bound[short[0]])
        raise RuntimeError(f"simplex stopped short: residual {r!r} but dual bound {lower!r}")
    # + 0.0 turns the -0.0 that a zero optimum, bound or dual entry can round to into 0.0
    return w, resid, worst, x[:, t_col] + 0.0, bound + 0.0, z + 0.0


def _degraded_outcomes(a: np.ndarray, b: np.ndarray, tol: float) -> tuple[np.ndarray, tuple]:
    """Whether each pair of (P, m, na) and (P, m, nb) row stacks is degraded, and what decided it.

    On binary inputs (m = 2) a pair holds iff its Blackwell margin is at
    least -tol, and the evidence is _blackwell_margins'.  On m >= 3 it
    holds iff the LP residual is within ``tol``, and the evidence is
    _degradedness_lp's.
    """
    if a.shape[1] == 2:
        margins = _blackwell_margins(a, b)
        return margins[0] >= -tol, margins
    lp = _degradedness_lp(a, b, tol)
    return lp[1] <= tol, lp


def _degraded(a: np.ndarray, b: np.ndarray, tol: float, labels: Sequence[str]) -> list[ClassVerdict]:
    """Degradedness verdicts for (P, m, na) and (P, m, nb) row stacks.

    On binary inputs (m = 2) the verdict reads the Blackwell margin of
    _blackwell_margins, min over lam of phi_a(lam) - phi_b(lam), a
    difference of Bayes success probabilities: Holds iff it is >= -tol,
    with ``"resolution": "exact"``.  This is not the LP's reading, the
    largest cell of |a W - b|: an LP optimum t gives a margin of at least
    -nb t, since |phi_{aW} - phi_b| <= nb t and garbling a cannot raise
    phi_a, so a pair the LP holds at tol / nb holds here, but pairs near
    the boundary can split either way.  A Fails carries its worst lam as
    the witness prior (1 - lam, lam) and ``lambda``, ``phi_a`` and
    ``phi_b`` in its diagnostics, and runs no LP.  Only Holds pairs run
    _degradedness_lp, all in one _simplex call, for the witness W; its
    ``residual`` is stated and may exceed ``tol`` on such a split.

    On m >= 3 the verdict reads the LP: Holds iff W's residual, its
    largest cell of |a W - b|, is within ``tol``.  A Fails adds Z as
    ``dual_test``.

    Both readings are _degraded_outcomes'.  Every verdict that ran the LP
    carries W, with ``labels`` as its outputs, its residual, its worst
    cell, the LP optimum and the dual bound.
    """
    count, m, nb = b.shape
    verdicts: list = [None] * count
    holds, evidence = _degraded_outcomes(a, b, tol)
    fit = np.arange(count)
    if m == 2:
        margin, lam, phi = evidence
        fit = np.flatnonzero(holds)
        for p in np.flatnonzero(~holds).tolist():
            d = {
                "resolution": "exact",
                "margin": float(margin[p]),
                "lambda": float(lam[p]),
                "phi_a": float(phi[0, p]),
                "phi_b": float(phi[1, p]),
                "tol": tol,
            }
            verdicts[p] = ClassVerdict(Outcome.FAILS, witness=Dist(np.array([1.0 - lam[p], lam[p]])), diagnostics=d)
        if fit.size:
            evidence = _degradedness_lp(a[fit], b[fit], tol)
    if fit.size:
        w, resid, worst, objective, bound, z = evidence
        for k, p in enumerate(fit.tolist()):
            d = {
                "residual": float(resid[k]),
                "worst_cell": list(divmod(int(worst[k]), nb)),
                "lp_objective": float(objective[k]),
                "dual_bound": float(bound[k]),
                "tol": tol,
            }
            if m == 2:
                d = {"resolution": "exact", "margin": float(margin[p]), **d}
            elif not holds[p]:
                d["dual_test"] = z[k].tolist()
            verdicts[p] = ClassVerdict(Outcome.HOLDS if holds[p] else Outcome.FAILS, witness=Dmc(w[k], labels), diagnostics=d)
    return verdicts


def degraded_stack(a, b) -> list[ClassVerdict]:
    """``test_degraded`` for P pairs at once, one verdict per pair.

    ``a`` and ``b`` are (P, m, na) and (P, m, nb) channel-row stacks.  On
    binary inputs every pair's Blackwell margin decides it and only the
    Holds pairs run the LP, for their witness W (see _degraded).  The LPs
    of up to _LP_LANES pairs pivot in lockstep, each on its own data only,
    so every verdict equals ``test_degraded``'s on its pair, witness
    included; W's outputs are labelled "0", "1", ...
    """
    a, b = _stacked_pairs(a, b)
    labels = [str(y) for y in range(b.shape[2])]
    blocks = (slice(lo, lo + _LP_LANES) for lo in range(0, len(a), _LP_LANES))
    return [verdict for blk in blocks for verdict in _degraded(a[blk], b[blk], VERDICT_TOL, labels)]


def degraded_holds(a, b) -> np.ndarray:
    """``degraded_stack``'s outcomes alone: a (P,) bool array, True where the pair holds.

    It decides each pair exactly as ``degraded_stack`` does and builds no
    verdict.  On binary inputs the Blackwell margins decide and no LP
    runs, since no witness W is wanted; on m >= 3 the LPs run in the same
    blocks of _LP_LANES pairs.
    """
    a, b = _stacked_pairs(a, b)
    holds = np.zeros(len(a), dtype=bool)
    for lo in range(0, len(a), _LP_LANES):
        holds[lo:lo + _LP_LANES] = _degraded_outcomes(a[lo:lo + _LP_LANES], b[lo:lo + _LP_LANES], VERDICT_TOL)[0]
    return holds


def test_degraded(a: Dmc, b: Dmc, tol: float = VERDICT_TOL) -> ClassVerdict:
    """Can ``b`` be produced by postprocessing ``a``'s output?

    On binary inputs this is decided exactly by the Blackwell order: Holds
    iff no prior lets b's best test between the two inputs beat a's by
    more than ``tol`` (the margin, see _degraded).  A Holds carries the
    witness W from the LP below; a Fails carries the worst prior
    (1 - lam, lam) and both success probabilities there, and runs no LP.

    On larger inputs it solves min_t { |cascade(a, W) - b| <= t cellwise,
    W row-stochastic } as a linear program.  Holds (with the witness W)
    iff W's largest cell is within ``tol``; otherwise Fails with the
    worst-matched cell in diagnostics, beside ``dual_bound``, a lower
    bound on the optimum that holds whatever the solver did and must
    exceed ``tol`` too, and the distinguishing test ``dual_test`` that
    gives it.  This test is exact up to the tolerance, never
    Inconclusive.  It is the one-pair case of ``degraded_stack``.
    """
    _require_same_input(a, b)
    return _degraded(a.rows[None], b.rows[None], tol, b.output_labels)[0]


def _face_chords(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Chords leaving the faces next to which a pair's gap bends up, in both directions.

    ``a`` and ``b`` are (P, m, n) row stacks.  For a face with support S and
    an input i outside it, the pull is s = sum of b[i, o] over the outputs o
    that no input of S reaches through b, minus the same sum through a.
    Moving mass t from the face toward e_i changes I(X;Y_a) - I(X;Y_b) by
    -s t log(1/t) + O(t), so for s > 0 its slope goes to -inf and its
    curvature to +inf as mass leaves the face.  The pull of (b, a) is
    0.0 - s exactly: side 0, (a, b), takes each s > CELL_FLOOR and side 1,
    (b, a), each s < -CELL_FLOOR, as a chord from x, the uniform law on S,
    along e_i - x.  Returns the unscaled (C, 1, m) bases and directions, the
    owners side * P + pair, ascending, an owner's chords in face-then-input
    order, and (2, P) flags of the directions whose scan the cap cut:
    supports go by size, and only the first _FACE_PAIR_CAP (face, input)
    pairs are examined, all at once (P x faces x m x outputs entries).
    """
    count, m = a.shape[:2]
    # a positive pull needs an output that some face misses through its direction's second channel
    open_pairs = np.stack([(rows <= CELL_FLOOR).any(axis=(1, 2)) for rows in (b, a)])
    faces, budget = [], _FACE_PAIR_CAP
    sizes = range(1, m) if open_pairs.any() else ()
    for support in itertools.chain.from_iterable(itertools.combinations(range(m), k) for k in sizes):
        budget -= m - len(support)
        if budget < 0:
            break
        faces.append([i in support for i in range(m)])
    capped = open_pairs & (budget < 0)
    on = np.array(faces, dtype=bool).reshape(-1, m)
    # unseen[p, s, o]: no input of face s reaches output o, as (P, faces, outputs)
    unseen_a = ~((a > CELL_FLOOR)[:, None] & on[:, :, None]).any(axis=2)
    unseen_b = ~((b > CELL_FLOOR)[:, None] & on[:, :, None]).any(axis=2)
    pull = (b[:, None] * unseen_b[:, :, None, :]).sum(axis=3) - (a[:, None] * unseen_a[:, :, None, :]).sum(axis=3)
    # side-major, then pair, face and input: each owner's chords are contiguous
    side, pair, face, target = (np.stack([pull > CELL_FLOOR, pull < -CELL_FLOOR]) & ~on).nonzero()
    base = (on / on.sum(axis=1, keepdims=True))[face][:, None, :]
    return base, np.eye(m)[target][:, None, :] - base, side * count + pair, capped


def more_capable_stack(a, b) -> list[ClassVerdict]:
    """``test_more_capable`` at its default step for P pairs at once, one verdict per pair.

    ``a`` and ``b`` are (P, m, na) and (P, m, nb) channel-row stacks.  All
    pairs share one _pair_search: one grid, face scan and lockstep
    refinement, or on binary inputs the _BinaryPieces of runs of pairs.
    """
    return _pair_search(*_stacked_pairs(a, b), 0.02).extrema().capable(0)


def test_more_capable(a: Dmc, b: Dmc, step: float = 0.02) -> ClassVerdict:
    """Is I(X;Y_b) <= I(X;Y_a) for every input law?

    Minimizes the gap over a simplex grid plus local refinement.  Faces with
    a positive pull (see _face_chords) add probes x + t (e_i - x) for t
    halved down from ``step``, since the gap can dip below zero far inside
    the first grid cell there.  On binary inputs the minimum is exact
    instead and ``step`` is unused (see _BinaryPieces.extrema).  Fails with
    the violating input law if the minimum drops below -VERDICT_TOL.  It is
    the one-pair case of ``more_capable_stack``.
    """
    _require_same_input(a, b)
    return _pair_search(a.rows[None], b.rows[None], step).extrema().capable(0)[0]


def _tangent_hessian(proj_b: np.ndarray, q_b: np.ndarray, proj_a: np.ndarray, q_a: np.ndarray) -> np.ndarray:
    """Hessian of I(X;Y_a) - I(X;Y_b) on the simplex's tangent space, per point.

    It is Q^T [B diag(1/q_b) B^T - A diag(1/q_a) A^T] Q / ln 2, with q = p rows
    and Q an orthonormal basis of {v : sum v = 0}, as a (P, k, m-1, m-1)
    array.  ``proj`` is a (P, m-1, n) stack of each pair's Q^T rows and
    ``q`` the (P, k, n) output laws of its k points, which must be positive.
    """
    hess = 0.0
    for proj, q, sign in ((proj_b, q_b, 1.0), (proj_a, q_a, -1.0)):
        rows = proj[:, None]
        hess = hess + sign * ((rows / q[:, :, None, :]) @ rows.transpose(0, 1, 3, 2))
    return hess / math.log(2.0)


@functools.cache
def _tangent_basis(m: int) -> np.ndarray:
    """An orthonormal (m, m-1) basis of {v : sum v = 0}, read-only."""
    # the trailing left singular vectors of the all-ones column span its complement
    basis = np.linalg.svd(np.ones((m, 1)))[0][:, 1:]
    basis.flags.writeable = False
    return basis


def _top_eigenvalues(
    proj_b: np.ndarray, q_b: np.ndarray, proj_a: np.ndarray, q_a: np.ndarray, both: bool = False
) -> np.ndarray:
    """The largest eigenvalue of _tangent_hessian at every point, as (1, P, k), with ``both`` (2, P, k).

    ``q`` is (P, n, k) here, one column per point.  Row 0 is that of the
    arguments' Hessians H and, with ``both``, row 1 that of the swapped
    pair's, which are 0.0 - H.  For d = m-1 in {2, 3} it is taken in
    closed form: row o of a per-pair table holds proj[:, o] proj[:, o]^T /
    ln 2, so one GEMM per channel with 1/q gives that channel's term of
    every Hessian entry, and H is b's term minus a's.  The top eigenvalue
    is then the 2x2 formula for d = 2 and the trigonometric formula for
    d = 3, with the 3x3 determinant written out.  Negating H negates the
    mean, the centred entries, det and r exactly and keeps p, so row 1
    shares them; it takes its own arccos, since arccos(-r) does not round
    as pi - arccos(r), and so equals the one-direction call on the swapped
    pair.  Larger d takes eigvalsh of H and of 0.0 - H.  Binary inputs
    (d = 1) never get here: they take _BinaryPieces.
    """
    count, d, _ = proj_b.shape
    if d > 3:
        hess = _tangent_hessian(proj_b, q_b.transpose(0, 2, 1), proj_a, q_a.transpose(0, 2, 1))
        return np.stack([np.linalg.eigvalsh(h)[..., -1] for h in ((hess, 0.0 - hess) if both else (hess,))])
    # each channel's entries as (P, d*d, k), so that each entry's values are contiguous
    h_b, h_a = (
        ((proj[:, :, None, :] * proj[:, None, :, :]).reshape(count, d * d, proj.shape[2]) / math.log(2.0)) @ (1.0 / q)
        for proj, q in ((proj_b, q_b), (proj_a, q_a))
    )
    h = h_b - h_a
    if d == 2:
        a, b, c = h[:, 0], h[:, 1], h[:, 3]
        mid, rad = 0.5 * (a + c), np.hypot(0.5 * (a - c), b)
        return np.stack([mid + rad, (0.0 - mid) + rad] if both else [mid + rad])
    a11, a12, a13, a22, a23, a33 = (h[:, i] for i in (0, 1, 2, 4, 5, 8))
    mean = (a11 + a22 + a33) / 3.0
    b11, b22, b33 = a11 - mean, a22 - mean, a33 - mean
    p = np.sqrt((b11 * b11 + b22 * b22 + b33 * b33 + 2.0 * (a12 * a12 + a13 * a13 + a23 * a23)) / 6.0)
    det = b11 * (b22 * b33 - a23 * a23) - a12 * (a12 * b33 - a23 * a13) + a13 * (a12 * a23 - b22 * a13)
    # |det| <= 2 p^3 exactly; where p^3 underflows, any r in [-1, 1] is within 3p
    r = np.clip(det / np.maximum(2.0 * p * p * p, np.finfo(float).tiny), -1.0, 1.0)
    top = [mean + 2.0 * p * np.cos(np.arccos(r) / 3.0)]
    if both:
        top.append((0.0 - mean) + 2.0 * p * np.cos(np.arccos(0.0 - r) / 3.0))
    return np.stack(top)


def _max_curvature(
    a: np.ndarray, b: np.ndarray, pts: np.ndarray, both: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Largest tangent-space eigenvalue over ``pts`` per pair, its first point and eigenvector.

    Every point's top eigenvalue is taken by _top_eigenvalues, in blocks of
    about _SCAN_BLOCK array entries over all pairs (see _point_blocks),
    which keeps a block's temporaries in cache.  At each pair's first point
    of largest value, eigh decomposes the Hessian once: its top eigenvalue
    is the pair's maximum and its eigenvector the direction returned.  An
    output that no input of the pair reaches gets a zeroed column in the
    projection and q = 1, so it adds nothing to the Hessian.  Every array
    returned has a leading axis of directions: (a, b), then with ``both``
    (b, a), whose Hessians are 0.0 - H of the same pass; each direction
    keeps the values of its own one-direction scan.
    """
    count, m = a.shape[:2]
    d = m - 1
    q_basis = _tangent_basis(m)
    reach_b, reach_a = (rows.max(axis=1, keepdims=True) > CELL_FLOOR for rows in (b, a))
    proj_b, proj_a = q_basis.T @ (b * reach_b), q_basis.T @ (a * reach_a)
    # an unreached output's column of ones gives it q = sum p = 1
    lift_b, lift_a = np.where(reach_b, b, 1.0), np.where(reach_a, a, 1.0)
    # a block's (m, k) laws x give its (P, n, k) output laws as out @ x, one column per point
    out_b, out_a = lift_b.transpose(0, 2, 1), lift_a.transpose(0, 2, 1)
    top = np.empty((2 if both else 1, count, pts.shape[0]))
    per_point = d * max(d, a.shape[2], b.shape[2]) * max(count, 1)
    for block in _point_blocks(pts.shape[0], _SCAN_BLOCK // per_point):
        x = pts[block].T
        top[:, :, block] = _top_eigenvalues(proj_b, out_b @ x, proj_a, out_a @ x, both)
    where = top.argmax(axis=2)
    # each direction's Hessians at its chosen (P, 1, m) laws
    hess = np.stack([_tangent_hessian(proj_b, x @ lift_b, proj_a, x @ lift_a)[:, 0] for x in pts[where][:, :, None]])
    hess[1:] = 0.0 - hess[1:]
    vals, vecs = np.linalg.eigh(hess)
    curv, vec = vals[..., -1], (q_basis @ vecs[..., -1:])[..., 0]
    return curv, where, vec


class _BinaryRoute:
    """The gap search of binary-input pairs: _BinaryPieces in runs under _HESSIAN_BLOCK entries, about 2 n^2 a pair."""

    def __init__(self, a: np.ndarray, b: np.ndarray):
        run = max(1, _HESSIAN_BLOCK // (2 * (a.shape[2] + b.shape[2]) ** 2))
        self.runs = [_binary_pieces(a[lo:lo + run], b[lo:lo + run]) for lo in range(0, max(len(a), 1), run)]

    def extrema(self) -> _ExactExtrema:
        parts = [pieces.extrema() for pieces in self.runs]
        return _ExactExtrema(
            points=np.concatenate([x.points for x in parts], axis=1),
            values=np.concatenate([x.values for x in parts], axis=1),
            uniform=np.concatenate([x.uniform for x in parts]),
            pieces=np.concatenate([x.pieces for x in parts]),
        )

    def less_noisy(self, both: bool = False) -> list[list[ClassVerdict]]:
        parts = [pieces.less_noisy(both) for pieces in self.runs]
        return [[v for part in parts for v in part[side]] for side in range(2 if both else 1)]


class _GridRoute:
    """The gap search of pairs on m != 2 inputs: one grid and one face scan serve both readings.

    ``eff`` is the grid step ``step`` resolves to, ``grid`` and ``interior``
    are _grid_points at it, ``head`` is their _grid_head and ``faces`` is
    _face_chords of (a, b).
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, step: float):
        self.a, self.b, self.step = a, b, step
        self.eff = _bounded_step(a.shape[1], step, _POINT_GRID_CAP)
        self.grid, self.interior = _grid_points(a.shape[1], self.eff)
        self.head = _grid_head(step, self.eff, int(self.grid.shape[0]))
        self.faces = _face_chords(a, b)

    def extrema(self) -> _GapSearch:
        """min g starts from the grid's argmin, or from the face probe of (a, b) with a smaller gap.

        That probe is side 0 of ``faces``, t halved down from ``step``; ties
        keep the grid point.  max g likewise starts from the grid's argmax,
        or from the probe of side 1, (b, a), with a larger gap there.  g is
        scored on the grid, then on every probe, once: a probe of side 0
        scores 0.0 - g and one of side 1 g, so each side's worst probe in
        _first_worst is its least gap in that side's direction.  The 2P
        starts are refined in one _refine_extremum call: min g as the
        ascent of 0.0 - g, reported as 0.0 - v, and max g as the ascent of g.
        """
        a, b, step, eff, grid = self.a, self.b, self.step, self.eff, self.grid
        count, m = a.shape[:2]
        # scored in runs of pairs, or pair by pair in blocks of points, under _SCAN_BLOCK entries of output laws
        g = np.empty((count, grid.shape[0]))
        cap = _SCAN_BLOCK // max(a.shape[2], b.shape[2])
        run = max(1, cap // grid.shape[0])
        for lo in range(0, count, run):
            for block in _point_blocks(grid.shape[0], cap):
                g[lo:lo + run, block] = _gap_vec(a[lo:lo + run], b[lo:lo + run], grid[block])
        picks = np.stack([g.argmin(axis=1), g.argmax(axis=1)])
        x0 = grid[picks]
        # the grid's signed probe scores: -min g and max g
        at_grid = g[np.arange(count), picks] * np.array([[-1.0], [1.0]])
        base, dirs, owner, capped = self.faces
        ts = (step * 0.5 ** np.arange(_HALVINGS + 1))[:, None]

        def signed(run):
            own = owner[run]
            vals = _gap_vec(a[own % count], b[own % count], base[run] + ts * dirs[run])
            return np.where((own < count)[:, None], 0.0 - vals, vals)

        owners, best, along, worst = _first_worst(owner, ts.size * max(a.shape[2], b.shape[2]), signed)
        side, pair = np.divmod(owners, count)
        wins = worst > at_grid[side, pair]
        won = best[wins]
        x0[side[wins], pair[wins]] = base[won, 0] + ts[along[wins]] * dirs[won, 0]
        # start k * P + p is extremum k of pair p; each pair's rows and entropies serve its sweeps
        ha, hb = entropy_vec(a, axis=-1), entropy_vec(b, axis=-1)

        def signed_gaps(q, idx):
            pair = idx % count
            gap = mi_from_entropies(a.take(pair, 0), ha.take(pair, 0), q)
            gap = gap - mi_from_entropies(b.take(pair, 0), hb.take(pair, 0), q)
            return np.where((idx < count)[:, None], 0.0 - gap, gap)

        x, v, sweeps = _refine_extremum(signed_gaps, x0.reshape(2 * count, m), eff)
        values = v.reshape(2, count)
        values[0] = 0.0 - values[0]
        return _GapSearch(
            head=self.head,
            points=x.reshape(2, count, m),
            values=values,
            sweeps=sweeps.reshape(2, count),
            face_probes=np.bincount(owner, minlength=2 * count).reshape(2, count) * ts.size,
            face_capped=capped,
            uniform=_gap_vec(a, b, np.full((1, m), 1.0 / m))[:, 0],
        )

    def less_noisy(self, both: bool = False) -> list[list[ClassVerdict]]:
        """Both directions follow from one curvature scan (see _max_curvature) and the two sides of ``faces``.

        Without ``both``, side 1's face chords are dropped.  One
        auxiliary-information call per channel scores each run of chords
        that _first_worst asks for, and each owner keeps its first worst
        chord and halving.  Each verdict equals that of a one-direction
        call.
        """
        a, b, interior = self.a, self.b, self.interior
        count, m = a.shape[:2]
        sides = 2 if both else 1
        base, dirs, owner, capped = self.faces
        head = dict(self.head, max_curvature=None)
        diagnostics = [dict(head, face_pair_cap=_FACE_PAIR_CAP) if cut else dict(head) for cut in capped[:sides].ravel()]
        # each kind's (origin, back, move, reach, owner): chord c runs from origin - t back, back 0 on
        # a face chord, to origin + t move, t halved down from reach[c], for owner side * count + pair
        chords = []
        if m > 1:
            curv, k, v = _max_curvature(a, b, interior, both)
            for d, c in zip(diagnostics, curv.ravel()):
                d["max_curvature"] = float(c)
            side, bent = np.nonzero(curv > 0.0)
            x, u = interior[k[side, bent]], v[side, bent]
            room = np.divide(x, np.abs(u), out=np.full(x.shape, np.inf), where=np.abs(u) > CELL_FLOOR)
            chords.append((x, u, u, room.min(axis=1), side * count + bent))
        keep = owner < sides * count
        chords.append((base[keep, 0], np.zeros_like(dirs[keep, 0]), dirs[keep, 0], np.ones(keep.sum()), owner[keep]))
        # a pair's curvature chord goes before its face chords
        order = np.argsort(np.concatenate([chord[4] for chord in chords]), kind="stable")
        origin, back, move, reach, owner = (np.concatenate(x)[order] for x in zip(*chords))
        halvings = 0.5 ** np.arange(_HALVINGS + 1)

        def chord_rows(run, ts: np.ndarray) -> np.ndarray:
            # the clipped and renormalized (n, k, 2, m) ends of chords ``run`` at the (n, k, 1) spreads ts
            x = origin[run, None]
            rows = np.clip(np.stack([x - ts * back[run, None], x + ts * move[run, None]], axis=2), 0.0, None)
            return rows / rows.sum(axis=3, keepdims=True)

        def violations(run):
            rows = chord_rows(run, (reach[run, None] * halvings)[:, :, None])
            weights = np.full(rows.shape[:3], 0.5)
            pair = owner[run] % count
            info_a, info_b = aux_mi_batch(a[pair], weights, rows), aux_mi_batch(b[pair], weights, rows)
            viol = np.where((owner[run] < count)[:, None], info_b - info_a, info_a - info_b)
            # a chord's I(U;Y_b) is a Jensen-Shannon divergence, at most the total
            # variation between its ends, so ends within VERDICT_TOL cannot fail
            spread = np.abs(rows[:, :, 0] - rows[:, :, 1]).sum(axis=2) > 2.0 * VERDICT_TOL
            return np.where(spread, viol, -np.inf)

        owners, best, along, viol = _first_worst(owner, 2 * halvings.size * max(m, a.shape[2], b.shape[2]), violations)
        fails = viol > VERDICT_TOL
        owners, best, along, viol = owners[fails], best[fails], along[fails], viol[fails]
        ends = chord_rows(best, (reach[best] * halvings[along])[:, None, None])[:, 0]
        verdicts = [ClassVerdict(Outcome.HOLDS, diagnostics=d) for d in diagnostics]
        for p, v, pair_ends in zip(owners.tolist(), viol, ends):
            verdicts[p] = _chord_fails(diagnostics[p], v, pair_ends)
        return [verdicts[side * count:(side + 1) * count] for side in range(sides)]


def _pair_search(a: np.ndarray, b: np.ndarray, step: float) -> _BinaryRoute | _GridRoute:
    """The search of g = I(X;Y_a) - I(X;Y_b) for (P, m, na) and (P, m, nb) row stacks, on the route m picks.

    Every test read from g goes through it: ``extrema()`` gives min g and
    max g of every pair (see _Extrema), and ``less_noisy(both)`` the
    less-noisy verdicts of a over b and, with ``both``, of b over a, one
    list per direction.  Binary inputs need no ``step`` (see _BinaryRoute).
    """
    return _BinaryRoute(a, b) if a.shape[1] == 2 else _GridRoute(a, b, step)


def less_noisy_stack(a, b) -> list[ClassVerdict]:
    """``test_less_noisy`` at its default step for P pairs at once, one verdict per pair.

    ``a`` and ``b`` are (P, m, na) and (P, m, nb) channel-row stacks.  All
    pairs share one _pair_search: one grid and face scan, whose witness
    chords are scored in one pass of the auxiliary-information kernel, or
    on binary inputs the _BinaryPieces of runs of pairs.
    """
    return _pair_search(*_stacked_pairs(a, b), 0.02).less_noisy()[0]


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
    the grid pulled halfway toward the uniform law.  On binary inputs the
    concave and convex pieces of f are exact instead and ``step`` is unused
    (see _BinaryPieces.less_noisy).  It is the one-pair case of
    ``less_noisy_stack``.
    """
    _require_same_input(a, b)
    return _pair_search(a.rows[None], b.rows[None], step).less_noisy()[0][0]


def _require_c_symmetric(a: np.ndarray, b: np.ndarray) -> None:
    """Raise NotCSymmetricError, naming the side and the pair, unless every channel is c-symmetric."""
    for name, side in (("first", a), ("second", b)):
        count, m, n = side.shape  # sizes spelled out: reshape cannot infer -1 for an empty stack
        labels = tuple(str(y) for y in range(n))
        # each distinct channel is searched once, at its first pair
        _, firsts = np.unique(side.reshape(count, m * n), axis=0, return_index=True)
        for p in np.sort(firsts):
            if detect_c_symmetry(Dmc(side[p], labels)) is None:
                raise NotCSymmetricError(f"{name} channel of pair {p} is not c-symmetric")


def dominant_c_symmetry_stack(a, b) -> list[ClassVerdict]:
    """``test_dominant_c_symmetry`` at its default step for P pairs at once, one verdict per pair.

    ``a`` and ``b`` are (P, m, na) and (P, m, nb) channel-row stacks; every
    channel must be c-symmetric.  All pairs share one _pair_search, as in
    ``more_capable_stack``.
    """
    a, b = _stacked_pairs(a, b)
    _require_c_symmetric(a, b)
    return _pair_search(a, b, 0.02).extrema().dominant(0)


def test_dominant_c_symmetry(
    a: Dmc, b: Dmc, step: float = 0.02, symmetries: tuple[CSymmetryWitness, CSymmetryWitness] | None = None
) -> ClassVerdict:
    """Does the uniform input maximize the gap I(X;Y_a) - I(X;Y_b)?

    Both channels must be c-symmetric (that is the setting in which the
    property implies an ordering).  ``symmetries``, the detect_c_symmetry
    witnesses of a and b that a caller already holds, replace the search
    for them: each generator is rechecked on its own channel instead, and
    NotCSymmetricError raised where it fails.  Maximizes the gap over a
    simplex grid plus refinement, or exactly on binary inputs, and compares
    with the gap at uniform.  It is the one-pair case of
    ``dominant_c_symmetry_stack``.
    """
    _require_same_input(a, b)
    if symmetries is None:
        _require_c_symmetric(a.rows[None], b.rows[None])
    else:
        for chan, found in zip((a, b), symmetries, strict=True):
            CSymmetryWitness(chan, found.generator).validate()
    return _pair_search(a.rows[None], b.rows[None], step).extrema().dominant(0)[0]


def _essentially_less_noisy(sym_a: bool, sym_b: bool, dom: ClassVerdict | None, m: int) -> ClassVerdict:
    """Essentially-less-noisy verdict of a over b, given whether each is c-symmetric.

    ``dom``, the uniform-dominance verdict of a over b, is read only when
    both channels are c-symmetric.
    """
    if not (sym_a and sym_b):
        which = "first" if not sym_a else "second"
        return ClassVerdict(
            Outcome.INCONCLUSIVE,
            diagnostics={"reason": f"{which} channel has no cyclic symmetry"},
        )
    diagnostics = dict(dom.diagnostics)
    diagnostics["route"] = "uniform-dominance on a c-symmetric pair"
    if dom.holds:
        diagnostics["sufficient_class"] = "uniform"
        return ClassVerdict(Outcome.HOLDS, witness=Dist.uniform(m), diagnostics=diagnostics)
    diagnostics["note"] = (
        "dominance route failed; other sufficient classes are not searched"
    )
    return ClassVerdict(Outcome.FAILS, witness=dom.witness, diagnostics=diagnostics)


def test_essentially_less_noisy(a: Dmc, b: Dmc, step: float = 0.02) -> ClassVerdict:
    """Is Y_a less noisy than Y_b over some restricted input class?

    The implemented route covers c-symmetric pairs: if the uniform input
    dominates the gap, {uniform} is a sufficient class and the ordering
    holds on it.  Pairs without detected cyclic symmetry return
    Inconclusive, since this route says nothing about them.  Fails means
    the dominance route failed, not that no other sufficient class exists
    (see diagnostics["note"]).
    """
    m = _require_same_input(a, b)
    sym_a, sym_b = detect_c_symmetry(a) is not None, detect_c_symmetry(b) is not None
    dom = _pair_search(a.rows[None], b.rows[None], step).extrema().dominant(0)[0] if sym_a and sym_b else None
    return _essentially_less_noisy(sym_a, sym_b, dom, m)


def ordering_verdicts(
    a: Dmc, b: Dmc, step: float = 0.02, tol: float = VERDICT_TOL
) -> dict[str, ClassVerdict]:
    """The eight directed ordering tests of the pair (a, b), as ``bcorder classify`` runs them.

    Keys name channel a "1" and b "2": degradedness (``degraded_2_wrt_1``
    is b degraded w.r.t. a, at tolerance ``tol``), less noisy, more capable
    and essentially less noisy, each both ways.  Each verdict is the one the
    matching ``test_*`` function returns, but the six gap tests share one
    _pair_search, so one face scan or one set of _BinaryPieces: both
    less-noisy directions come from one reading of it, more capable and the
    uniform-dominance gate of essentially less noisy, both ways, from its
    two extrema.  Each channel's cyclic symmetry is searched once.
    """
    m = _require_same_input(a, b)
    res = {
        "degraded_2_wrt_1": test_degraded(a, b, tol=tol),
        "degraded_1_wrt_2": test_degraded(b, a, tol=tol),
    }
    search = _pair_search(a.rows[None], b.rows[None], step)
    [res["less_noisy_1"]], [res["less_noisy_2"]] = search.less_noisy(both=True)
    found = search.extrema()
    res["more_capable_1"], res["more_capable_2"] = found.capable(0)[0], found.capable(1)[0]
    sym_a, sym_b = detect_c_symmetry(a) is not None, detect_c_symmetry(b) is not None
    for side, first, second in ((0, sym_a, sym_b), (1, sym_b, sym_a)):
        dom = found.dominant(side)[0] if sym_a and sym_b else None
        res[f"essentially_less_noisy_{side + 1}"] = _essentially_less_noisy(first, second, dom, m)
    return res


def test_essentially_more_capable(
    a: Dmc, b: Dmc, candidate_class: Sequence[Dist], step: float = 0.02
) -> ClassVerdict:
    """Is I(X;Y_b|U) <= I(X;Y_a|U) for every chain whose marginal is in the class?

    With g = I(X;Y_a) - I(X;Y_b), a chain with marginal p* has
    I(X;Y_b|U) - I(X;Y_a|U) = -sum_u p(u) g(p_u), so the ordering holds on
    the class iff the lower convex envelope of g is >= 0 at every member.
    Every atom of a decomposition averaging to p* lies on the face
    supp(p*); for each member the envelope is one LP over that face's
    simplex grid plus p* itself: min sum_j w_j g(x_j) subject to
    sum_j w_j x_j = p*, w >= 0.  Fails when some member's envelope is below
    -VERDICT_TOL, with the LP's optimal basis, at most |supp(p*)| atoms
    (Caratheodory), as the witness decomposition.  Holds does NOT certify
    that the class is a sufficient class; that assumption is the caller's,
    and diagnostics carry sufficiency_assumed=True as a reminder.
    ``grid_step`` is the coarsest step a face grid ran at, with
    ``requested_step`` added when that differs from ``step``.
    """
    m = _require_same_input(a, b)
    if not candidate_class:
        raise DomainError("candidate class must contain at least one input law")
    best_val, best = -np.inf, None
    eff_max, points = step, 0
    for idx, pdist in enumerate(candidate_class):
        if pdist.size != m:
            raise DomainError("class member size does not match the channels")
        target = pdist.probs
        support = np.flatnonzero(target > CELL_FLOOR)
        eff = _bounded_step(support.size, step, _POINT_GRID_CAP)
        eff_max = max(eff_max, eff)
        face = simplex_grid(support.size, eff)
        pts = np.zeros((face.shape[0] + 1, m))
        pts[:-1, support] = face
        pts[-1] = target
        points += pts.shape[0]
        gaps = _gap_vec(b.rows, a.rows, pts)  # -g: the LP below minimizes sum_j w_j g(x_j)
        # it starts from the face's vertices, weighted by p*
        vertices = np.argmax(face == 1.0, axis=0)
        w = _simplex(pts[:, support].T[None], target[support][None], -gaps[None], vertices[None])[0][0]
        atoms = np.flatnonzero(w > CELL_FLOOR)
        weights = w[atoms] / w[atoms].sum()
        val = float(weights @ gaps[atoms])
        if val > best_val:
            best_val, best = val, (idx, weights, pts[atoms])
    diagnostics = {**_grid_head(step, eff_max, points), "max_conditional_gap": best_val, "sufficiency_assumed": True}
    if best_val > VERDICT_TOL:
        idx, weights, rows = best
        diagnostics["violation"] = best_val
        diagnostics["class_index"] = idx
        return ClassVerdict(Outcome.FAILS, AuxDecomposition(Dist(weights), rows), diagnostics)
    return ClassVerdict(Outcome.HOLDS, diagnostics=diagnostics)
