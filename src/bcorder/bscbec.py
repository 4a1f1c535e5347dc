"""Closed-form receiver ordering for a binary-symmetric / binary-erasure pair.

With crossover p and erasure rate e, parameterize the input by x = P(X = 0)
and compare the two receivers through the information gap

    gap(x) = H2(conv(x, p)) - (1 - e) H2(x) - H2(p)

which is I(X; Y_bsc) - I(X; Y_bec).  Its sign and curvature sort every (p, e)
pair into exactly one of four regimes, separated by the thresholds

    e = 2p          below: the BSC output can be degraded onto the BEC's
    e = 4p(1-p)     below: the BEC side is less noisy (gap is convex)
    e = H2(p)       below: the BEC side is more capable (gap <= 0 everywhere)
                    above: the BSC side is essentially less noisy (the gap
                    peaks at the uniform input)

The thresholds are ordered 2p <= 4p(1-p) <= H2(p) on [0, 1/2], so the four
regimes partition the parameter square.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .channels import Dmc
from .probcore import (
    SIMPLEX_TOL,
    VERDICT_TOL,
    DomainError,
    binary_convolve,
    binary_entropy,
    in_range,
)

_BISECT_STEPS = 200
_SCAN_POINTS = 4097
PHASE_GRID_CAP = 500  # cells per side of a (p, e) mesh: phase-map and verify-paper's threshold grid


class DegeneratePairError(ValueError):
    """p = 1/2 makes the critical-point equation degenerate."""


class PairTag(enum.Enum):
    DEGRADED_BSC_SIDE = "degraded-bsc-side"
    LESS_NOISY_BEC_SIDE = "less-noisy-bec-side"
    MORE_CAPABLE_BEC_SIDE = "more-capable-bec-side"
    ESSENTIALLY_LESS_NOISY_BSC_SIDE = "essentially-less-noisy-bsc-side"


_TAGS = tuple(PairTag)


@dataclass(frozen=True)
class PairClass:
    """Regime tag for a (p, e) pair plus a near-threshold flag."""

    tag: PairTag
    boundary: bool


@dataclass(frozen=True)
class BscBecPair:
    """A BSC(p) / BEC(e) receiver pair, p in [0, 1/2], e in [0, 1]."""

    p: float
    e: float

    def __post_init__(self):
        p, e = _clamped_rates(self.p, self.e)
        object.__setattr__(self, "p", float(p))
        object.__setattr__(self, "e", float(e))


def _clamped_rates(p, e) -> tuple[np.ndarray, np.ndarray]:
    """(p, e) as float arrays clamped to [0, 1/2] x [0, 1], SIMPLEX_TOL slack."""
    p = np.asarray(p, dtype=float)
    e = np.asarray(e, dtype=float)
    if not in_range(p, 0.0, 0.5):
        raise DomainError("crossover p must lie in [0, 1/2]")
    if not in_range(e, 0.0, 1.0):
        raise DomainError("erasure rate e must lie in [0, 1]")
    return np.clip(p, 0.0, 0.5), np.clip(e, 0.0, 1.0)


def thresholds(p):
    """(2p, 4p(1-p), H2(p)), the three regime boundaries, elementwise in p."""
    p = np.asarray(p, dtype=float)
    return 2.0 * p, 4.0 * p * (1.0 - p), binary_entropy(p)


def regime(p, e) -> tuple[np.ndarray, np.ndarray]:
    """Regime tags and boundary flags of (p, e) pairs; p and e broadcast.

    A tag is an index into PairTag: 0 where e <= 2p, else 1 where
    e <= 4p(1-p), else 2 where e <= H2(p), else 3.  The rule holds on the
    whole square, p = 1/2 included: there all three thresholds equal 1, so
    every e is tagged degraded-bsc-side, the finest true ordering, since
    BSC(1/2) is a fair coin and thus a degradation of any BEC.  A boundary
    flag marks a pair within VERDICT_TOL of some threshold, where the
    strict orderings degenerate.  Rates are range-checked and clamped as
    BscBecPair does.
    """
    p, e = _clamped_rates(p, e)
    t1, t2, t3 = thresholds(p)
    tag = np.select([e <= t1, e <= t2, e <= t3], [0, 1, 2], 3)
    boundary = np.any([np.abs(e - t) <= VERDICT_TOL for t in (t1, t2, t3)], axis=0)
    return tag, boundary


def d_func(pair: BscBecPair, x):
    """The information gap I(X;Y_bsc) - I(X;Y_bec) at input bias x = P(X=0).

    Vanishes at x = 0 and x = 1; equals e - H2(p) at x = 1/2.  Accepts
    scalars or arrays.
    """
    xa = np.asarray(x, dtype=float)
    if not in_range(xa, 0.0, 1.0):
        raise DomainError("input bias outside [0, 1]")
    xa = np.clip(xa, 0.0, 1.0)
    val = (
        binary_entropy(binary_convolve(xa, pair.p))
        - (1.0 - pair.e) * binary_entropy(xa)
        - binary_entropy(pair.p)
    )
    return float(val) if np.isscalar(x) or getattr(x, "ndim", 1) == 0 else val


def _log_ratio(x: np.ndarray) -> np.ndarray:
    """log2((1-x)/x); +inf at 0, -inf at 1."""
    with np.errstate(divide="ignore"):
        return np.log2(1.0 - x) - np.log2(x)


def d_derivative(pair: BscBecPair, x):
    """Derivative of the gap in x.

    Equals (1-2p) log2((1-c)/c) - (1-e) log2((1-x)/x) with c = conv(x, p).
    At x = 0 or 1 the value is the correct signed infinity whenever the
    expression is unbounded there, never NaN.
    """
    xa = np.asarray(x, dtype=float)
    if not in_range(xa, 0.0, 1.0):
        raise DomainError("input bias outside [0, 1]")
    xa = np.clip(xa, 0.0, 1.0)
    p, e = pair.p, pair.e
    if p == 0.0:
        # conv(x, 0) = x and the two log terms share their singularities
        val = e * _log_ratio(xa)
    elif e == 1.0:
        val = (1.0 - 2.0 * p) * _log_ratio(binary_convolve(xa, p))
    else:
        val = (1.0 - 2.0 * p) * _log_ratio(binary_convolve(xa, p)) - (
            1.0 - e
        ) * _log_ratio(xa)
    return float(val) if np.isscalar(x) or getattr(x, "ndim", 1) == 0 else val


def critical_point(pair: BscBecPair) -> float | None:
    """Location of the gap's dip on (0, 1/2], or None in the monotone cases.

    For e <= 2p the gap decreases through [0, 1/2] and None is returned.
    For 2p < e <= 4p(1-p) the gap is convex, so the dip sits exactly at 1/2.
    Beyond that the derivative changes sign once strictly inside (0, 1/2);
    the crossing is bracketed by a scan over [VERDICT_TOL, 0.5] and bisected for
    up to _BISECT_STEPS steps, until the bracket stops shrinking in float,
    and the end with the smaller |d_derivative| is returned; verify-paper's
    gap-curve-shape check is what holds that value under 1e-10.  The edge
    parameters p = 0 and e = 1 make the gap monotone increasing on [0, 1/2]
    (no dip) and also return None.
    Raises DegeneratePairError for p = 1/2, where the defining equation
    divides by 1 - 2p.
    """
    p, e = pair.p, pair.e
    if 1.0 - 2.0 * p <= SIMPLEX_TOL:
        raise DegeneratePairError("p = 1/2 leaves no downward slope to cross")
    tag = regime(p, e)[0]
    if tag == 0:
        return None
    if tag == 1:
        return 0.5
    xs = np.linspace(VERDICT_TOL, 0.5, _SCAN_POINTS)
    ds = d_derivative(pair, xs)
    nonneg = np.flatnonzero(ds >= 0.0)
    if nonneg.size == 0 or nonneg[0] == 0:
        # derivative starts nonnegative (p = 0 or e = 1): no dip to find
        return None
    i = int(nonneg[0])
    lo, hi = float(xs[i - 1]), float(xs[i])
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if d_derivative(pair, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    root = lo if abs(d_derivative(pair, lo)) < abs(d_derivative(pair, hi)) else hi
    return float(root)


def classify_pair(pair: BscBecPair) -> PairClass:
    """Place (p, e) into its ordering regime; the one-pair case of ``regime``.

    The p = 1/2 column follows the thresholds like every other: all three
    equal 1 there, so the tag is degraded-bsc-side for every e (a fair-coin
    BSC is a degradation of any BEC).  ``boundary`` flags pairs within
    VERDICT_TOL of a regime threshold, where the strict orderings
    degenerate.
    """
    tag, boundary = regime(pair.p, pair.e)
    return PairClass(_TAGS[int(tag)], bool(boundary))


def degrading_channel(pair: BscBecPair) -> Dmc | None:
    """A channel W with bec(e) followed by W equal to bsc(p), when one exists.

    Exists exactly for e <= 2p: pass the two clean symbols through a
    crossover of delta = (p - e/2) / (1 - e) and resolve erasures by a fair
    coin.  Returns None when e > 2p.
    """
    p, e = pair.p, pair.e
    if regime(p, e)[0] != 0:
        return None
    if 1.0 - e <= SIMPLEX_TOL:
        # e = 1 forces p = 1/2; every output is an erasure, any fair W works
        return Dmc(np.full((3, 2), 0.5), ("0", "1"))
    delta = (p - e / 2.0) / (1.0 - e)
    delta = min(max(delta, 0.0), 1.0)
    return Dmc(
        np.array(
            [
                [1.0 - delta, delta],
                [0.5, 0.5],
                [delta, 1.0 - delta],
            ]
        ),
        ("0", "1"),
    )


def d_curve(pair: BscBecPair, samples: int = 1001) -> list[tuple[float, float]]:
    """Evenly sampled (x, gap(x)) pairs over [0, 1]."""
    if samples < 2:
        raise DomainError("d_curve needs at least 2 samples")
    xs = np.linspace(0.0, 1.0, samples)
    vals = d_func(pair, xs)
    return [(float(a), float(b)) for a, b in zip(xs, vals)]
