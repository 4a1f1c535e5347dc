"""The lockstep simplex kernel behind both LPs of bcorder.classify.

HiGHS (scipy) is the differential oracle where it is installed; the
kernel itself never imports scipy.
"""

import numpy as np
import pytest

from bcorder import classify as ordering
from bcorder.channels import Dmc, bec, bsc, split_input_pair
from bcorder.classify import simplex_grid
from bcorder.probcore import CELL_FLOOR, SIMPLEX_TOL, VERDICT_TOL, Dist


def _rows(rng, m, n, sparse):
    rows = rng.dirichlet(np.ones(n), size=m)
    if sparse:
        # the largest entry of a row is at least 1/n > 0.2, so no row empties
        rows = np.where(rows < 0.2, 0.0, rows)
    return rows / rows.sum(axis=1, keepdims=True)


def _degradedness_stacks(rng, count):
    """(family, a, b) row stacks: BSC/BEC both ways, random cascades and unrelated pairs up to 4x4x3."""
    ps, es = rng.uniform(0.01, 0.49, count), rng.uniform(0.01, 0.99, count)
    crossover = np.stack([bsc(p).rows for p in ps])
    erasure = np.stack([bec(e).rows for e in es])
    yield "bsc-bec", crossover, erasure
    yield "bec-bsc", erasure, crossover
    for m, na, nb in ((2, 2, 2), (3, 3, 3), (4, 4, 3), (3, 4, 2)):
        a = np.stack([_rows(rng, m, na, k % 2 == 0) for k in range(count)])
        cascades = np.stack([a[k] @ _rows(rng, na, nb, k % 3 == 0) for k in range(count)])
        unrelated = np.stack([_rows(rng, m, nb, k % 3 == 1) for k in range(count)])
        yield f"cascade {m}x{na}x{nb}", a, cascades
        yield f"unrelated {m}x{na}x{nb}", a, unrelated


def _highs_degradedness(a, b):
    """Each pair's min t with |a W - b| <= t cellwise and W row-stochastic, by HiGHS in one block LP."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    block_diag = pytest.importorskip("scipy.sparse").block_diag
    count, m, na = a.shape
    nb = b.shape[2]
    t = -np.ones((m * nb, 1))
    ub = [np.block([[np.kron(rows, np.eye(nb)), t], [-np.kron(rows, np.eye(nb)), t]]) for rows in a]
    eq = np.hstack([np.kron(np.eye(na), np.ones((1, nb))), np.zeros((na, 1))])
    res = linprog(
        np.tile(np.append(np.zeros(na * nb), 1.0), count),
        A_ub=block_diag(ub, format="csr"),
        b_ub=np.concatenate([np.concatenate([rows.ravel(), -rows.ravel()]) for rows in b]),
        A_eq=block_diag([eq] * count, format="csr"),
        b_eq=np.ones(count * na),
        bounds=(0.0, None),
        method="highs",
    )
    assert res.success
    return res.x.reshape(count, na * nb + 1)[:, -1]


@pytest.mark.parametrize("count", [1, 256])
def test_degradedness_optima_match_highs(count):
    # binary pairs are decided by their Blackwell margin and run the LP on
    # Holds only, for W; every other m is decided by the LP
    rng = np.random.default_rng(1953 + count)
    for family, a, b in _degradedness_stacks(rng, count):
        want = _highs_degradedness(a, b)
        got = ordering.degraded_stack(a, b)
        fails = np.array([v.fails for v in got])
        assert np.array_equal(fails, want > VERDICT_TOL), family
        fit = np.array(["lp_objective" in v.diagnostics for v in got])
        assert np.array_equal(fit, ~fails if a.shape[1] == 2 else np.ones(count, bool)), family
        t = np.array([v.diagnostics["lp_objective"] for v in got if "lp_objective" in v.diagnostics])
        bound = np.array([v.diagnostics["dual_bound"] for v in got if "dual_bound" in v.diagnostics])
        assert np.all(np.abs(t - want[fit]) <= SIMPLEX_TOL), family
        # the dual bound is a valid lower bound on HiGHS's optimum, and tight
        assert np.all(bound <= want[fit] + CELL_FLOOR), family
        assert np.all(bound >= want[fit] - SIMPLEX_TOL), family


def test_degradedness_verdicts_are_certified():
    # dual_bound <= lp_objective <= residual: the dual bound holds for any
    # row-stochastic W, and the residual is W's own, re-read here
    rng = np.random.default_rng(1977)
    for family, a, b in _degradedness_stacks(rng, 64):
        verdicts = ordering.degraded_stack(a, b)
        holds = np.array([v.holds for v in verdicts])
        fit = np.array([isinstance(v.witness, Dmc) for v in verdicts])
        w = np.array([v.witness.rows for v in verdicts if isinstance(v.witness, Dmc)]).reshape(-1, a.shape[2], b.shape[2])
        resid = np.abs(np.einsum("pio,poy->piy", a[fit], w) - b[fit]).max(axis=(1, 2))
        keys = ("dual_bound", "lp_objective", "residual")
        d = {key: np.array([v.diagnostics[key] for v in verdicts if isinstance(v.witness, Dmc)]) for key in keys}
        assert np.all(np.abs(resid - d["residual"]) <= CELL_FLOOR), family
        assert np.all(d["dual_bound"] <= d["lp_objective"] + CELL_FLOOR), family
        assert np.all(d["lp_objective"] <= d["residual"] + CELL_FLOOR), family
        # every Holds W is within the tolerance
        assert np.all(d["residual"][holds[fit]] <= VERDICT_TOL), family
        if a.shape[1] == 2:
            # a binary Fails carries its Blackwell test, not W
            assert np.array_equal(fit, holds), family
            continue
        assert np.array_equal(holds, d["residual"] <= VERDICT_TOL), family
        # a Fails is certified by its dual bound alone, up to rounding
        assert np.all(d["dual_bound"][~holds] > VERDICT_TOL - SIMPLEX_TOL), family


def test_dual_test_rechecks_the_dual_bound():
    # an m >= 3 Fails states its distinguishing test Z: sum |Z| <= 1, and
    # sum_o min_y (a^T Z)[o, y] - <Z, b> is its dual bound, re-read here
    rng = np.random.default_rng(1953)
    fails = 0
    for family, a, b in _degradedness_stacks(rng, 16):
        if a.shape[1] == 2:
            continue
        for rows_a, rows_b, verdict in zip(a, b, ordering.degraded_stack(a, b)):
            d = verdict.diagnostics
            if verdict.holds:
                assert "dual_test" not in d, family
                continue
            fails += 1
            z = np.array(d["dual_test"])
            assert z.shape == rows_b.shape and np.abs(z).sum() <= 1.0 + SIMPLEX_TOL, family
            bound = np.einsum("io,iy->oy", rows_a, z).min(axis=1).sum() - np.vdot(z, rows_b)
            assert abs(bound - d["dual_bound"]) <= 8 * np.finfo(float).eps, family
            assert bound > VERDICT_TOL, family
    assert fails > 0


def test_uncertified_fails_raises(monkeypatch):
    def stalled(lp, rhs, cost, basis):
        # the start basis's solution and duals, as a kernel that never pivots would return them
        lanes = np.arange(len(lp))[:, None]
        start = lp[lanes, :, basis]
        x = np.zeros(lp.shape[::2])
        x[lanes, basis] = np.linalg.solve(start.transpose(0, 2, 1), rhs[:, :, None])[:, :, 0]
        y = np.linalg.solve(start, np.broadcast_to(cost, x.shape)[lanes, basis][:, :, None])[:, :, 0]
        return x, y

    # BSC(0.2) is BSC(0.1) followed by BSC(1/8), so the optimum is 0 and no dual bound exceeds it
    assert ordering.test_degraded(bsc(0.1), bsc(0.2)).holds
    monkeypatch.setattr(ordering, "_simplex", stalled)
    with pytest.raises(RuntimeError, match="stopped short"):
        ordering.test_degraded(bsc(0.1), bsc(0.2))


def _witness_array(verdict):
    """A degradedness witness's array: W's rows, or a binary Fails's prior."""
    w = verdict.witness
    return w.rows if isinstance(w, Dmc) else w.probs


def test_lane_blocks_do_not_move_a_verdict(monkeypatch):
    rng = np.random.default_rng(7)
    for family, a, b in _degradedness_stacks(rng, 8):
        whole = ordering.degraded_stack(a, b)
        monkeypatch.setattr(ordering, "_LP_LANES", 3)
        for got, want in zip(ordering.degraded_stack(a, b), whole, strict=True):
            assert got.outcome is want.outcome and got.diagnostics == want.diagnostics, family
            assert np.array_equal(_witness_array(got), _witness_array(want)), family
        monkeypatch.undo()


def _highs_envelope(a, b, target, step):
    """-min sum_j w_j g(x_j) over the face grid of supp(target) plus target, by HiGHS."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    support = np.flatnonzero(target > CELL_FLOOR)
    face = simplex_grid(support.size, step)
    pts = np.zeros((face.shape[0] + 1, target.size))
    pts[:-1, support] = face
    pts[-1] = target
    g = ordering._gap_vec(a.rows, b.rows, pts)
    res = linprog(g, A_eq=pts[:, support].T, b_eq=target[support], method="highs")
    assert res.success
    return -res.fun


@pytest.mark.parametrize("m, step", [(3, 0.02), (4, 0.05)])
def test_envelope_optima_match_highs(m, step):
    rng = np.random.default_rng(m)
    for trial in range(4):
        na, nb = (int(n) for n in rng.integers(2, 5, size=2))
        a = Dmc.normalized(_rows(rng, m, na, trial % 2 == 0), [str(y) for y in range(na)])
        b = Dmc.normalized(_rows(rng, m, nb, trial % 3 == 0), [str(y) for y in range(nb)])
        for target in (Dist.uniform(m), Dist(rng.dirichlet(np.ones(m)))):
            got = ordering.test_essentially_more_capable(a, b, [target], step=step)
            want = _highs_envelope(a, b, target.probs, step)
            assert abs(got.diagnostics["max_conditional_gap"] - want) <= SIMPLEX_TOL
    y1, y2 = split_input_pair()
    for first, second in ((y1, y2), (y2, y1)):
        got = ordering.test_essentially_more_capable(first, second, [Dist.uniform(4)], step=0.05)
        want = _highs_envelope(first, second, np.full(4, 0.25), 0.05)
        assert abs(got.diagnostics["max_conditional_gap"] - want) <= SIMPLEX_TOL


@pytest.mark.parametrize(
    "row1, row2, cost, optimum",
    [
        # Beale (1955)
        ([0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [-0.75, 150.0, -0.02, 6.0], -0.05),
        # a variant with rounder coefficients
        ([0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [-0.75, 20.0, -0.5, 6.0], -1.25),
    ],
)
def test_simplex_terminates_on_beale_cycling_lp(row1, row2, cost, optimum):
    # from the slack basis both zero rows tie at the first ratio test: the
    # most-negative entering rule with lowest-index leaving ties cycles here
    lp = np.array([[1.0, 0.0, 0.0, *row1], [0.0, 1.0, 0.0, *row2], [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0]])
    c = np.array([0.0, 0.0, 0.0, *cost])
    rhs = np.array([0.0, 0.0, 1.0])
    x, y = ordering._simplex(lp[None], rhs[None], c[None], np.array([[0, 1, 2]]))
    assert abs(x[0] @ c - optimum) <= SIMPLEX_TOL
    assert np.all(x >= 0.0) and np.abs(lp @ x[0] - rhs).max() <= SIMPLEX_TOL
    # the duals prove it: c - lp^T y >= 0 and b^T y is the optimum
    assert np.all(c - lp.T @ y[0] >= -SIMPLEX_TOL)
    assert abs(rhs @ y[0] - optimum) <= SIMPLEX_TOL


def test_simplex_pivot_cap_raises(monkeypatch):
    monkeypatch.setattr(ordering, "_PIVOT_CAP", 0)
    # a binary pair reaches the LP only when it holds, for its witness W
    with pytest.raises(RuntimeError, match="did not finish"):
        ordering.test_degraded(bec(0.15), bsc(0.1))
    with pytest.raises(RuntimeError, match="did not finish"):
        lift = [0, 1, 1]  # the pair on 3 inputs, which the LP decides
        ordering.test_degraded(Dmc(bec(0.5).rows[lift], ("0", "e", "1")), Dmc(bsc(0.1).rows[lift], ("0", "1")))
