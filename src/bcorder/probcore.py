"""Finite-alphabet probability and information primitives.

All information quantities are in bits (log base 2).  Distributions live on
small finite alphabets and are stored as immutable numpy vectors.  The
convention 0*log2(0) = 0 is applied everywhere by skipping cells below
CELL_FLOOR.  Information quantities themselves come from the batched kernels
``mi_batch`` and ``aux_mi_batch`` in ``bcorder.channels``.

Validation policy: constructors reject malformed input instead of repairing
it.  Renormalization happens only through the explicit ``normalized``
constructors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The one tolerance table: every "how close counts as equal" the package decides.
CELL_FLOOR = 1e-15    # a cell, weight or cross product this small counts as zero
SIMPLEX_TOL = 1e-12   # rounding slack allowed on a law, a rate or a constraint
VERDICT_TOL = 1e-9    # margin of every decision: verdict, regime boundary, frontier defect, containment
REFINE_FLOOR = 1e-7   # the extremum refinement halves its step down to this

# The rate-region bounds bcorder.regions sweeps, each with the constraint kind
# of its rate polygon; kept here so that naming them loads no sweep code.
REGION_BOUND_KINDS = {"ib": "sum", "theorem1": "two", "theorem2": "sum", "ob": "r1cap"}
REGION_BOUNDS = tuple(REGION_BOUND_KINDS)

_POINT_GRID_CAP = 300_000  # max grid points of a scan or sweep over one simplex


class DomainError(ValueError):
    """An argument lies outside its mathematical domain."""


def stochastic_array(values, what: str, axis: int | None = -1) -> np.ndarray:
    """A read-only float copy of ``values`` whose laws along ``axis`` sum to 1.

    Entries must be finite and non-negative; negatives above -CELL_FLOOR are
    rounding noise and are clipped to 0.  Each sum along ``axis`` (the whole
    array when ``axis`` is None) must be 1 within SIMPLEX_TOL.  Shape checks
    are the caller's.  Raises DomainError naming ``what`` otherwise.
    """
    arr = np.array(values, dtype=float, copy=True)
    # one min and one sum accept a law: a min of at least -CELL_FLOOR rules
    # out NaN and -inf, sums near 1 rule out +inf; the other checks only
    # name the fault of a rejected law
    lo = arr.min(initial=np.inf)
    if not lo >= -CELL_FLOOR:
        if not np.all(np.isfinite(arr)):
            raise DomainError(f"{what} contains non-finite entries")
        raise DomainError(f"{what} contains negative entries")
    if lo <= 0.0:
        np.clip(arr, 0.0, None, out=arr)  # also turns -0.0 into 0.0
    sums = arr.sum(axis=axis)
    bad = np.abs(sums - 1.0) > SIMPLEX_TOL
    if np.any(bad):
        if not np.all(np.isfinite(arr)):
            raise DomainError(f"{what} contains non-finite entries")
        if np.ndim(bad) == 0:
            raise DomainError(f"{what} does not sum to 1 (sum={float(sums)!r})")
        raise DomainError(f"{what} row {int(np.argmax(bad))} does not sum to 1")
    arr.setflags(write=False)
    return arr


def in_range(x, lo: float, hi: float) -> bool:
    """Whether every entry lies in [lo, hi] within SIMPLEX_TOL; NaN never does."""
    return bool(np.all((x >= lo - SIMPLEX_TOL) & (x <= hi + SIMPLEX_TOL)))


def _xlog2x(v: np.ndarray) -> np.ndarray:
    """v log2 v entrywise in one fresh array, 0.0 wherever v is at most CELL_FLOOR."""
    # a 0-d v gives a numpy scalar, which asarray makes an array to work in;
    # the log's argument is positive, so no entry warns
    t = np.asarray(np.maximum(v, CELL_FLOOR))
    np.log2(t, out=t)
    t *= v
    t[v <= CELL_FLOOR] = 0.0
    return t


def entropy_vec(p: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shannon entropy in bits along ``axis``.  No validation; raw arrays.

    It is 0.0 - sum, not -sum, so a zero entropy is +0.0 and so is every
    information quantity taken from it.  The value is bit for bit
    0.0 - _xlog2x(p).sum(axis=axis).  numpy's reduction pays its
    inner-loop call once per row, which on the scans' rows of a few
    outputs costs more than the logarithm, so rows of fewer than 8
    outputs are summed output by output instead: one array operation per
    output over all rows, left to right, the order in which numpy adds a
    row of fewer than 8 entries.  From 8 outputs on numpy sums pairwise
    in blocks of eight, and a single row is one inner-loop call anyway, so
    both keep numpy's own sum.  tests/test_probcore.py guards the order.
    """
    v = np.asarray(p, dtype=float)
    if axis != -1:
        v = np.moveaxis(v, axis, -1)
    t = _xlog2x(v)
    *lead, n = t.shape
    if not lead or not 0 < n < 8:
        return 0.0 - t.sum(axis=-1)
    cols = t.reshape(-1, n).T
    h = 0.0 - cols[0]
    for j in range(1, n):
        h -= cols[j]
    return h.reshape(lead)


def binary_entropy(x):
    """H2(x) in bits.  Accepts scalars or arrays in [0, 1] (SIMPLEX_TOL slack)."""
    arr = np.asarray(x, dtype=float)
    if not in_range(arr, 0.0, 1.0):
        raise DomainError("binary_entropy argument outside [0, 1]")
    arr = np.clip(arr, 0.0, 1.0)
    val = 0.0 - _xlog2x(arr) - _xlog2x(1.0 - arr)  # +0.0, as entropy_vec, at 0 and 1
    return float(val) if np.isscalar(x) or getattr(x, "ndim", 1) == 0 else val


def binary_convolve(x, p):
    """Crossover combination x(1-p) + (1-x)p of two binary flip rates."""
    xa = np.asarray(x, dtype=float)
    pa = np.asarray(p, dtype=float)
    for name, a in (("x", xa), ("p", pa)):
        if not in_range(a, 0.0, 1.0):
            raise DomainError(f"binary_convolve argument {name} outside [0, 1]")
    val = xa * (1.0 - pa) + (1.0 - xa) * pa
    scalar = (np.isscalar(x) or getattr(x, "ndim", 1) == 0) and (
        np.isscalar(p) or getattr(p, "ndim", 1) == 0
    )
    return float(val) if scalar else val


@dataclass(frozen=True, eq=False)
class Dist:
    """A probability distribution on a finite alphabet.

    Entries must be in [0, 1] and sum to 1 within SIMPLEX_TOL.  The stored
    array is read-only.
    """

    probs: np.ndarray

    def __post_init__(self):
        if np.ndim(self.probs) != 1 or np.size(self.probs) == 0:
            raise DomainError("Dist expects a non-empty 1-d vector")
        object.__setattr__(self, "probs", stochastic_array(self.probs, "Dist"))

    @property
    def size(self) -> int:
        return int(self.probs.size)

    @classmethod
    def uniform(cls, n: int) -> "Dist":
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def normalized(cls, values) -> "Dist":
        """Explicit renormalization of a nonnegative vector."""
        arr = np.asarray(values, dtype=float)
        s = float(arr.sum())
        if s <= 0 or not np.isfinite(s):
            raise DomainError("cannot normalize a vector with nonpositive mass")
        return cls(arr / s)


def entropy(d: Dist) -> float:
    """H(d) in bits.  0 <= H <= log2(alphabet size)."""
    return float(entropy_vec(d.probs))


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
