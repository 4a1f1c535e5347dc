"""Built-in golden-value check suite.

Every check recomputes one family of documented reference numbers from
scratch and compares against frozen expected values.  ``run_suite`` returns
a ``VerifyReport`` whose JSON serialization is byte-identical across runs
for a fixed (grid, seed, tolerance) configuration: nothing in here touches
wall-clock time, filesystem order, or unseeded randomness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .bscbec import PHASE_GRID_CAP, BscBecPair, critical_point, d_derivative, d_func, degrading_channel, regime, thresholds
from .channels import (
    Dmc,
    bec,
    bec_rows,
    bsc,
    bsc_rows,
    cascade,
    channel_mi,
    detect_c_symmetry,
    mi_batch,
    split_input_pair,
    symmetrize,
)
from .classify import (
    AuxDecomposition,
    _pair_search,
    degraded_holds,
    less_noisy_stack,
    more_capable_stack,
    test_essentially_more_capable,
)
from .probcore import Dist, DomainError, binary_entropy
from .regions import (
    _SWEEP_CAP,
    frontier_contains,
    frontier_distance,
    outer_bound_eq_ob,
    region_frontiers,
    theorem1_region,
)

__all__ = ["CheckResult", "VerifyReport", "run_suite", "check_names"]


@dataclass(frozen=True)
class CheckResult:
    """One named check: frozen expected values vs recomputed ones."""

    name: str
    anchor: str
    expected: tuple
    computed: tuple
    tolerance: float
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "anchor": self.anchor,
            "expected": [float(v) for v in self.expected],
            "computed": [float(v) for v in self.computed],
            "tolerance": float(self.tolerance),
            "passed": bool(self.passed),
            "detail": self.detail,
        }


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of a suite run; serializes deterministically."""

    grid: int
    seed: int
    checks: tuple[CheckResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "grid": self.grid,
            "seed": self.seed,
            "all_pass": self.all_pass,
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def text_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            comp = ", ".join(f"{v:.10g}" for v in c.computed)
            exp = ", ".join(f"{v:.10g}" for v in c.expected)
            lines.append(f"[{mark}] {c.name}: computed [{comp}] expected [{exp}] tol {c.tolerance:g}")
            if c.detail:
                lines.append(f"       {c.detail}")
        n_pass = sum(c.passed for c in self.checks)
        lines.append(f"{n_pass}/{len(self.checks)} checks passed")
        return lines


def _check_aux_informations(grid: int, seed: int, tol: float) -> CheckResult:
    dec = AuxDecomposition(Dist(np.array([0.5, 0.5])), bsc(0.05).rows)
    i_erasure = dec.mi_aux(bec(0.5))
    i_crossover = dec.mi_aux(bsc(0.1101))
    passed = (
        abs(i_erasure - 0.3568) <= tol
        and abs(i_crossover - 0.3924) <= tol
        and i_erasure < i_crossover
    )
    return CheckResult(
        name="aux-informations",
        anchor="uniform binary auxiliary, crossover-0.05 link: erasure-0.5 receiver "
        "sees 0.3568 bits, crossover-0.1101 receiver sees 0.3924 bits",
        expected=(0.3568, 0.3924),
        computed=(i_erasure, i_crossover),
        tolerance=tol,
        passed=passed,
        detail="the erasure side carries strictly less auxiliary information",
    )


def _erasure_crossover_rows(cells: list[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray]:
    """Stacked rows of BEC(e) and BSC(p) for (p, e) cells, one pair per cell."""
    ps, es = np.array(cells, dtype=float).reshape(-1, 2).T
    return bec_rows(es), bsc_rows(ps)


def _check_threshold_grid(grid: int, seed: int, tol: float) -> CheckResult:
    n = max(grid, 2)
    dp = 0.5 / n
    de = 1.0 / n
    ps, es = np.meshgrid((np.arange(n) + 0.5) * dp, (np.arange(n) + 0.5) * de, indexing="ij")
    corners = [regime(ps + sp * dp / 2.0, es + se * de / 2.0)[0] for sp in (-1, 1) for se in (-1, 1)]
    clear = np.all([c == corners[0] for c in corners], axis=0)  # no threshold crosses the cell
    tag = regime(ps[clear], es[clear])[0]
    cells = list(zip(ps[clear], es[clear]))
    chan_b, chan_s = _erasure_crossover_rows(cells)
    # one exact search of g (binary inputs use no step) serves the less-noisy test and the extrema: more
    # capable of the erasure side and uniform dominance of the crossover side, both c-symmetric
    search = _pair_search(chan_b, chan_s, 0.02)
    gaps = search.extrema()
    # keep only the outcomes, so one test's verdicts are alive at a time
    got = np.array(
        [
            degraded_holds(chan_b, chan_s),
            [v.holds for v in search.less_noisy()[0]],
            [v.holds for v in gaps.capable(0)],
            [v.holds for v in gaps.dominant(1)],
        ]
    )
    want = np.array([tag == 0, tag <= 1, tag <= 2, tag == 3])
    mismatches = int(np.any(got != want, axis=0).sum())
    tested = len(cells)
    passed = mismatches == 0 and tested > 0
    return CheckResult(
        name="threshold-grid",
        anchor="regime thresholds e = 2p, 4p(1-p), h(p) against the four "
        "numerical ordering tests on an interior cell grid",
        expected=(0.0,),
        computed=(float(mismatches),),
        tolerance=0.0,
        passed=passed,
        detail=f"{tested} non-boundary cells out of {n * n}",
    )


def _check_gap_curve_shape(grid: int, seed: int, tol: float) -> CheckResult:
    pair = BscBecPair(0.1, 0.5)
    d0 = d_func(pair, 0.0)
    d1 = d_func(pair, 1.0)
    dm = d_func(pair, 0.5)
    r = critical_point(pair)
    r_val = float(r) if r is not None else -1.0
    dr = d_func(pair, r_val) if r is not None else 1.0
    ddr = d_derivative(pair, r_val) if r is not None else 1.0
    xs = np.linspace(0.0, 1.0, 2001)
    argmax_x = float(xs[int(np.argmax(d_func(pair, xs)))])
    passed = (
        abs(d0) <= 1e-12
        and abs(d1) <= 1e-12
        and abs(dm - 0.031004406410718777) <= tol
        and r is not None
        and 0.0 < r_val < 0.5
        and abs(ddr) < 1e-10
        and dr < 0.0
        and abs(argmax_x - 0.5) <= 1e-3
    )
    return CheckResult(
        name="gap-curve-shape",
        anchor="gap curve at (p, e) = (0.1, 0.5): zero endpoints, maximum "
        "0.0310 at one half, interior stationary point with a negative value",
        expected=(0.0, 0.0, 0.031004406410718777, 0.05410066396563103, -0.02801306270957621, 0.0),
        computed=(d0, d1, dm, r_val, dr, ddr),
        tolerance=tol,
        passed=passed,
        detail=f"dense-grid argmax at x = {argmax_x:.6f}",
    )


def _check_derivative(grid: int, seed: int, tol: float) -> CheckResult:
    rng = np.random.default_rng(seed)
    xs = np.arange(1, 98) / 98.0
    h = 1e-6
    worst = 0.0
    for _ in range(20):
        p = rng.uniform(0.02, 0.48)
        e = rng.uniform(0.02, 0.98)
        pair = BscBecPair(p, e)
        fd = (d_func(pair, xs + h) - d_func(pair, xs - h)) / (2.0 * h)
        worst = max(worst, float(np.max(np.abs(d_derivative(pair, xs) - fd))))
    return CheckResult(
        name="derivative-check",
        anchor="closed-form gap derivative vs centered finite differences, "
        "97 interior points, 20 seeded (p, e) pairs",
        expected=(0.0,),
        computed=(worst,),
        tolerance=tol,
        passed=worst <= tol,
    )


def _check_degrading_cascade(grid: int, seed: int, tol: float) -> CheckResult:
    rng = np.random.default_rng(seed + 1)
    worst_resid = 0.0
    cells = []
    for _ in range(20):
        p = rng.uniform(0.05, 0.45)
        e = rng.uniform(0.0, 2.0 * p)
        w = degrading_channel(BscBecPair(p, e))
        resid = float(np.max(np.abs(cascade(bec(e), w).rows - bsc(p).rows)))
        worst_resid = max(worst_resid, resid)
        cells.append((p, e))
    for _ in range(20):
        p = rng.uniform(0.05, 0.45)
        e = rng.uniform(2.0 * p + 0.02, 1.0)
        cells.append((p, e))
    degraded = degraded_holds(*_erasure_crossover_rows(cells))
    holds = int(degraded[:20].sum())
    fails = int((~degraded[20:]).sum())  # degradedness is never inconclusive
    passed = worst_resid <= tol and holds == 20 and fails == 20
    return CheckResult(
        name="degrading-cascade",
        anchor="erasure-to-crossover intermediate channel exists exactly when "
        "e <= 2p; cascade reproduces the crossover rows",
        expected=(0.0, 20.0, 20.0),
        computed=(worst_resid, float(holds), float(fails)),
        tolerance=tol,
        passed=passed,
    )


def _cond_mi_brute(pu: np.ndarray, rows: np.ndarray, chan: Dmc) -> float:
    # independent route: direct entropy sums over the full triple joint
    t = np.einsum("u,ux,xy->uxy", pu, rows, chan.rows)
    total = 0.0
    for u in range(t.shape[0]):
        blk = t[u]
        mass = blk.sum()
        if mass < 1e-15:
            continue
        px = blk.sum(axis=1)
        py = blk.sum(axis=0)
        for i in range(blk.shape[0]):
            for j in range(blk.shape[1]):
                if blk[i, j] > 1e-15:
                    total += blk[i, j] * np.log2(blk[i, j] * mass / (px[i] * py[j]))
    return float(total)


def _check_symmetrization(grid: int, seed: int, tol: float) -> CheckResult:
    chan_a, chan_b = bsc(0.1), bec(0.5)
    wit_a = detect_c_symmetry(chan_a)
    wit_b = detect_c_symmetry(chan_b)
    rng = np.random.default_rng(seed + 2)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 4))
        table = rng.gamma(1.0, 1.0, size=(k, 2))
        joint = table / table.sum()
        sym = symmetrize(joint, wit_a, wit_b)
        worst = max(worst, float(np.max(np.abs(sym.joint.sum(axis=0) - 0.5))))
        px = joint.sum(axis=0)
        shift_px = np.array(
            [sym.conditional_given_shift(j).sum(axis=0) for j in range(sym.num_shifts)]
        )
        pu, pu_s = joint.sum(axis=1), sym.joint.sum(axis=1)
        dec = AuxDecomposition(Dist(pu), joint / pu[:, None])
        dec_s = AuxDecomposition(Dist(pu_s), sym.joint / pu_s[:, None])
        for chan in (chan_a, chan_b):
            worst = max(worst, dec.mi_aux(chan) - dec_s.mi_aux(chan))  # must not lose information
            worst = max(worst, abs(dec.mi_conditional(chan) - dec_s.mi_conditional(chan)))
            base = mi_batch(chan.rows, px[None, :])[0]
            i_blk = mi_batch(chan.rows, shift_px)
            # per-shift blocks relabel X, so X;Y information is preserved
            worst = max(worst, float(np.max(np.abs(i_blk - base))))
    return CheckResult(
        name="symmetrization",
        anchor="cyclic-shift symmetrization: exactly uniform input marginal, "
        "auxiliary information never drops, conditional information preserved",
        expected=(0.0,),
        computed=(worst,),
        tolerance=tol,
        passed=worst <= tol,
        detail="100 seeded joints, binary input, auxiliary size up to 3",
    )


def _check_conditional_gap(grid: int, seed: int, tol: float) -> CheckResult:
    eps = 0.01
    pu = np.array([0.5, 0.5])
    rows = np.array([[eps, 1.0 - eps], [1.0 - eps, eps]])
    dec = AuxDecomposition(Dist(pu), rows)
    gap = dec.mi_conditional(bec(0.5)) - dec.mi_conditional(bsc(0.1))
    brute = _cond_mi_brute(pu, rows, bec(0.5)) - _cond_mi_brute(pu, rows, bsc(0.1))
    agreement = abs(gap - brute)
    golden = 0.015538437837716246
    passed = gap > 0.0 and abs(gap - golden) <= 1e-9 and agreement <= tol
    return CheckResult(
        name="conditional-gap",
        anchor="near-deterministic binary auxiliary (eps = 0.01) leaves a "
        "strictly positive conditional-information gap at (0.1, 0.5)",
        expected=(golden, 0.0),
        computed=(gap, agreement),
        tolerance=tol,
        passed=passed,
        detail="second value is the disagreement against a brute-force oracle",
    )


def _check_four_letter_pair(grid: int, seed: int, tol: float) -> CheckResult:
    y1, y2 = split_input_pair()
    u23 = Dist(np.array([0.0, 0.0, 0.5, 0.5]))
    u01 = Dist(np.array([0.5, 0.5, 0.0, 0.0]))
    gap23 = channel_mi(y2, u23) - channel_mi(y1, u23)
    target = 1.0 - binary_entropy(0.4)
    emc_01 = test_essentially_more_capable(y1, y2, [u01], step=0.02)
    emc_23 = test_essentially_more_capable(y1, y2, [u23], step=0.02)
    passed = abs(gap23 - target) <= tol and emc_01.holds and emc_23.fails
    return CheckResult(
        name="four-letter-pair",
        anchor="four-input pair: on support {2,3} the weak receiver leads by "
        "1 - h(0.4); on support {0,1} the dominant receiver stays ahead",
        expected=(target, 1.0, 0.0),
        computed=(gap23, float(emc_01.holds), float(emc_23.holds)),
        tolerance=tol,
        passed=passed,
    )


def _check_capacity_coincidence(grid: int, seed: int, tol: float) -> CheckResult:
    step = 1.0 / max(grid, 10)
    slack = 2.0 * step
    chan_a, chan_b = bsc(0.1), bec(0.5)
    inner = theorem1_region(chan_a, chan_b, [Dist.uniform(2)], step=step)
    outer = outer_bound_eq_ob(chan_a, chan_b, step=step)
    dist = frontier_distance(inner, outer)
    r1_cap = 1.0 - binary_entropy(0.1)
    corner_err = max(
        abs(inner.max_r1 - r1_cap),
        abs(outer.max_r1 - r1_cap),
        abs(inner.max_r2 - 0.5),
        abs(outer.max_r2 - 0.5),
    )
    passed = dist <= slack and corner_err <= step
    return CheckResult(
        name="capacity-coincidence",
        anchor="one-auxiliary inner frontier meets the outer bound for "
        "(0.1, 0.5); corners at (1 - h(0.1), 0) and (0, 0.5)",
        expected=(0.0, 0.0),
        computed=(dist, corner_err),
        tolerance=slack,
        passed=passed,
        detail=f"step {step:g}, corner slack {step:g}",
    )


def _seeded_regime_pairs(rng: np.random.Generator, count: int) -> list[tuple[float, float]]:
    """(p, e) pairs cycling through the four regimes, away from thresholds."""
    pairs = []
    for i in range(count):
        p = rng.uniform(0.08, 0.42)
        bounds = (0.0, *thresholds(p), 1.0)
        lo, hi = bounds[i % 4], bounds[i % 4 + 1]
        width = hi - lo
        e = rng.uniform(lo + 0.1 * width, hi - 0.1 * width)
        pairs.append((p, e))
    return pairs


def _uncontained(inner, outer, tol: float) -> int:
    return sum(1 for pt in inner.points if not frontier_contains(outer, pt, tol=tol))


def _check_region_containments(grid: int, seed: int, tol: float) -> CheckResult:
    step = 1.0 / max(grid, 10)
    rng = np.random.default_rng(seed + 3)
    bad_ob = 0
    for p, e in _seeded_regime_pairs(rng, 10):
        chan_s, chan_b = bsc(p), bec(e)
        dom, weak = (chan_s, chan_b) if regime(p, e)[0] == 3 else (chan_b, chan_s)
        fr = region_frontiers(dom, weak, ["ib", "ob"], step=step)
        bad_ob += _uncontained(fr["ib"], fr["ob"], tol)
    return CheckResult(
        name="region-containments",
        anchor="superposition frontier sits inside the outer bound on 10 "
        "seeded pairs spanning all four regimes",
        expected=(0.0,),
        computed=(float(bad_ob),),
        tolerance=tol,
        passed=bad_ob == 0,
    )


def _check_ordering_hierarchy(grid: int, seed: int, tol: float) -> CheckResult:
    rng = np.random.default_rng(seed + 5)
    cells = []
    for _ in range(12):
        p = rng.uniform(0.05, 0.45)
        e = rng.uniform(0.0, 2.0 * p)
        cells.append((p, e))
    labels = ("0", "1", "2")
    tops, cascades = [], []
    for _ in range(3):
        a = Dmc.normalized(rng.gamma(1.0, 1.0, size=(3, 3)), labels)
        w = Dmc.normalized(rng.gamma(1.0, 1.0, size=(3, 3)), labels)
        tops.append(a.rows)
        cascades.append(cascade(a, w).rows)
    violations = 0
    instances = 0
    # the erasure-crossover cells and the 3x3 cascades stack separately, by shape
    for better, worse in (_erasure_crossover_rows(cells), (np.array(tops), np.array(cascades))):
        degraded = degraded_holds(better, worse)
        instances += int(degraded.sum())
        # degradedness of the worse side implies the better side is less
        # noisy (convexity direction) and more capable (gap sign)
        for test in (less_noisy_stack, more_capable_stack):
            violations += sum(not v.holds for v in test(better[degraded], worse[degraded]))
    passed = violations == 0 and instances > 0
    return CheckResult(
        name="ordering-hierarchy",
        anchor="whenever the cascade test holds, the convexity test and the "
        "gap-sign test hold in the implied directions",
        expected=(0.0,),
        computed=(float(violations),),
        tolerance=0.0,
        passed=passed,
        detail=f"{instances} degraded instances exercised",
    )


_REGION_GRID_CAP = int(_SWEEP_CAP ** (1.0 / 3.0)) - 1  # largest N with (N + 1)^3 <= _SWEEP_CAP

# (name, default tolerance, largest grid it runs at or None if it ignores grid, check)
_CHECKS: tuple[tuple[str, float, int | None, object], ...] = (
    ("aux-informations", 5e-4, None, _check_aux_informations),
    ("threshold-grid", 0.0, PHASE_GRID_CAP, _check_threshold_grid),
    ("gap-curve-shape", 1e-6, None, _check_gap_curve_shape),
    ("derivative-check", 1e-6, None, _check_derivative),
    ("degrading-cascade", 1e-12, None, _check_degrading_cascade),
    ("symmetrization", 1e-10, None, _check_symmetrization),
    ("conditional-gap", 1e-12, None, _check_conditional_gap),
    ("four-letter-pair", 1e-9, None, _check_four_letter_pair),
    ("capacity-coincidence", 0.0, _REGION_GRID_CAP, _check_capacity_coincidence),
    ("region-containments", 1e-9, _REGION_GRID_CAP, _check_region_containments),
    ("ordering-hierarchy", 0.0, None, _check_ordering_hierarchy),
)


def check_names() -> list[str]:
    return [name for name, _, _, _ in _CHECKS]


def run_suite(
    grid: int = 32,
    seed: int = 0,
    only: str | None = None,
    tolerance: float | None = None,
) -> VerifyReport:
    """Run the named checks (all by default) and collect a report.

    ``grid`` sizes the threshold map and the region sweep steps (1/grid).
    A grid above the largest that a selected check runs at raises
    DomainError before any check runs.
    ``tolerance`` overrides every selected check's default tolerance; the
    quoted reference values are rounded to a few decimals, so a very tight
    override (say 1e-12) makes those checks fail by design.
    """
    if only is not None and only not in check_names():
        raise ValueError(f"unknown check name: {only!r} (see check_names())")
    selected = [entry for entry in _CHECKS if only in (None, entry[0])]
    for name, _, cap, _ in selected:
        if cap is not None and grid > cap:
            raise DomainError(f"{name} runs at a grid of at most {cap}")
    results = []
    for name, default_tol, _, fn in selected:
        tol = default_tol if tolerance is None else tolerance
        results.append(fn(grid, seed, tol))
    return VerifyReport(grid=grid, seed=seed, checks=tuple(results))
