"""Acceptance gate: the twelve headline behaviors, one test per criterion.

Each test is self-contained against the library API and prints one
"[PASS] criterion N" line when its asserts clear (visible under -s).
"""

import numpy as np

from bcorder import classify as ordering
from bcorder.bscbec import (
    BscBecPair,
    critical_point,
    d_derivative,
    d_func,
    degrading_channel,
)
from bcorder.channels import (
    Dmc,
    bec,
    bsc,
    cascade,
    channel_mi,
    detect_c_symmetry,
    mi_batch,
    split_input_pair,
    symmetrize,
)
from bcorder.classify import AuxDecomposition
from bcorder.cli import main
from bcorder.probcore import Dist, binary_entropy
from bcorder.regions import (
    frontier_contains,
    frontier_distance,
    outer_bound_eq_ob,
    superposition_region,
    theorem1_region,
)
from info_oracles import brute_conditional_mi, decomposition


def _brute_cond_mi(pu, rows, chan):
    # independent oracle on the explicit (U, X, Y) table
    return brute_conditional_mi(np.einsum("u,ux,xy->uxy", pu, rows, chan.rows))


def test_01_auxiliary_informations():
    dec = AuxDecomposition(Dist(np.array([0.5, 0.5])), bsc(0.05).rows)
    i_erasure = dec.mi_aux(bec(0.5))
    i_crossover = dec.mi_aux(bsc(0.1101))
    assert abs(i_erasure - 0.3568) <= 5e-4
    assert abs(i_crossover - 0.3924) <= 5e-4
    assert i_erasure < i_crossover
    print(f"[PASS] criterion 1: auxiliary informations {i_erasure:.6f} < {i_crossover:.6f}, both within 5e-4")


def _regime(p, e):
    if e <= 2.0 * p:
        return 0
    if e <= 4.0 * p * (1.0 - p):
        return 1
    if e <= binary_entropy(p):
        return 2
    return 3


def test_02_threshold_grid_50():
    n = 50
    dp, de = 0.5 / n, 1.0 / n
    cells = []
    for i in range(n):
        p = (i + 0.5) * dp
        for j in range(n):
            e = (j + 0.5) * de
            corners = {
                _regime(pc, ec)
                for pc in (p - dp / 2.0, p + dp / 2.0)
                for ec in (e - de / 2.0, e + de / 2.0)
            }
            if len(corners) == 1:  # no threshold curve crosses this cell
                cells.append((p, e))
    # each ordering test runs once over the stack of all tested cells
    chan_b = np.stack([bec(e).rows for _, e in cells])
    chan_s = np.stack([bsc(p).rows for p, _ in cells])
    verdicts = zip(
        ordering.degraded_stack(chan_b, chan_s),
        ordering.less_noisy_stack(chan_b, chan_s),
        ordering.more_capable_stack(chan_b, chan_s),
        ordering.dominant_c_symmetry_stack(chan_s, chan_b),
    )
    mismatches = 0
    for (p, e), (degraded, less_noisy, more_capable, dominant) in zip(cells, verdicts):
        hp = binary_entropy(p)
        ok = (
            degraded.holds == (e <= 2.0 * p)
            and less_noisy.holds == (e <= 4.0 * p * (1.0 - p))
            and more_capable.holds == (e <= hp)
            and dominant.holds == (e > hp)
        )
        if not ok:
            mismatches += 1
    tested = len(cells)
    assert tested > 2000
    assert mismatches == 0
    print(f"[PASS] criterion 2: 4 ordering tests match closed-form thresholds on {tested}/2500 non-boundary cells")


def test_03_gap_curve_shape():
    pair = BscBecPair(0.1, 0.5)
    assert abs(d_func(pair, 0.0)) <= 1e-12
    assert abs(d_func(pair, 1.0)) <= 1e-12
    peak = d_func(pair, 0.5)
    assert abs(peak - (0.5 - binary_entropy(0.1))) <= 1e-6
    xs = np.linspace(0.0, 1.0, 2001)
    assert peak >= float(np.max(d_func(pair, xs))) - 1e-12
    r = critical_point(pair)
    assert r is not None and 0.0 < r < 0.5
    assert abs(d_derivative(pair, r)) < 1e-10
    assert d_func(pair, r) < 0.0
    print(f"[PASS] criterion 3: gap curve has zero endpoints, max {peak:.6f} at 0.5, dip at r = {r:.6f}")


def test_04_derivative_against_finite_differences():
    rng = np.random.default_rng(0)
    xs = np.arange(1, 98) / 98.0
    h = 1e-6
    worst = 0.0
    for _ in range(20):
        pair = BscBecPair(rng.uniform(0.02, 0.48), rng.uniform(0.02, 0.98))
        fd = (d_func(pair, xs + h) - d_func(pair, xs - h)) / (2.0 * h)
        worst = max(worst, float(np.max(np.abs(d_derivative(pair, xs) - fd))))
    assert worst <= 1e-6
    print(f"[PASS] criterion 4: derivative matches centered differences, worst gap {worst:.2e} over 20 pairs x 97 points")


def test_05_degrading_cascade():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(20):
        p = rng.uniform(0.05, 0.45)
        e = rng.uniform(0.0, 2.0 * p)
        w = degrading_channel(BscBecPair(p, e))
        worst = max(worst, float(np.max(np.abs(cascade(bec(e), w).rows - bsc(p).rows))))
        assert ordering.test_degraded(bec(e), bsc(p)).holds
    assert worst <= 1e-12
    for _ in range(20):
        p = rng.uniform(0.05, 0.45)
        e = rng.uniform(2.0 * p + 0.02, 1.0)
        assert ordering.test_degraded(bec(e), bsc(p)).fails
    print(f"[PASS] criterion 5: cascade reproduces the crossover rows (worst residual {worst:.2e}); 20 holds / 20 fails")


def test_06_symmetrization_postconditions():
    chan_a, chan_b = bsc(0.1), bec(0.5)
    wit_a, wit_b = detect_c_symmetry(chan_a), detect_c_symmetry(chan_b)
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 4))
        table = rng.gamma(1.0, 1.0, size=(k, 2))
        joint = table / table.sum()
        sym = symmetrize(joint, wit_a, wit_b)
        assert float(np.max(np.abs(sym.joint.sum(axis=0) - 0.5))) <= 1e-12
        dec, dec_s = decomposition(joint), decomposition(sym.joint)
        px = joint.sum(axis=0)
        for chan in (chan_a, chan_b):
            worst = max(worst, dec.mi_aux(chan) - dec_s.mi_aux(chan))  # information must not drop
            worst = max(worst, abs(dec.mi_conditional(chan) - dec_s.mi_conditional(chan)))
            base = mi_batch(chan.rows, px[None, :])[0]
            for j in range(sym.num_shifts):
                blk_px = sym.conditional_given_shift(j).sum(axis=0)
                i_blk = mi_batch(chan.rows, blk_px[None, :])[0]
                worst = max(worst, abs(i_blk - base))
    assert worst <= 1e-10
    print(f"[PASS] criterion 6: 100 symmetrized joints, uniform marginal exact, worst inequality slack {worst:.2e}")


def test_07_conditional_gap_positive():
    eps = 0.01
    pu = np.array([0.5, 0.5])
    rows = np.array([[eps, 1.0 - eps], [1.0 - eps, eps]])
    dec = AuxDecomposition(Dist(pu), rows)
    gap = dec.mi_conditional(bec(0.5)) - dec.mi_conditional(bsc(0.1))
    brute = _brute_cond_mi(pu, rows, bec(0.5)) - _brute_cond_mi(pu, rows, bsc(0.1))
    assert brute > 0.0
    assert gap > 0.0
    assert abs(gap - brute) <= 1e-12
    assert abs(gap - 0.015538437837716246) <= 1e-9
    print(f"[PASS] criterion 7: conditional gap {gap:.9f} > 0, brute-force oracle agrees to {abs(gap - brute):.1e}")


def test_08_four_letter_pair():
    y1, y2 = split_input_pair()
    u23 = Dist(np.array([0.0, 0.0, 0.5, 0.5]))
    u01 = Dist(np.array([0.5, 0.5, 0.0, 0.0]))
    assert abs(channel_mi(y1, u23)) <= 1e-12
    gap = channel_mi(y2, u23) - channel_mi(y1, u23)
    assert abs(gap - (1.0 - binary_entropy(0.4))) <= 1e-9
    verdict = ordering.test_essentially_more_capable(y1, y2, [u01], step=0.02)
    assert verdict.holds
    print(f"[PASS] criterion 8: support-{{2,3}} gap {gap:.6f} = 1 - h(0.4); class-restricted dominance holds")


def test_09_capacity_coincidence():
    chan_a, chan_b = bsc(0.1), bec(0.5)
    inner = theorem1_region(chan_a, chan_b, [Dist.uniform(2)], step=0.02)
    outer = outer_bound_eq_ob(chan_a, chan_b, step=0.02)
    dist = frontier_distance(inner, outer)  # largest vertical gap, exact
    assert dist <= 1e-9
    r1_cap = 1.0 - binary_entropy(0.1)
    for fr in (inner, outer):
        assert abs(fr.max_r1 - r1_cap) <= 0.02
        assert abs(fr.max_r2 - 0.5) <= 0.02
    print(f"[PASS] criterion 9: class frontier meets the outer bound (gap {dist:.1e}), corners in place")


def test_10_region_containments():
    rng = np.random.default_rng(3)
    checked = 0
    for i in range(10):
        p = rng.uniform(0.08, 0.42)
        bounds = (0.0, 2.0 * p, 4.0 * p * (1.0 - p), binary_entropy(p), 1.0)
        lo, hi = bounds[i % 4], bounds[i % 4 + 1]
        e = rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo))
        if e > binary_entropy(p):
            dom, weak = bsc(p), bec(e)
        else:
            dom, weak = bec(e), bsc(p)
        inner = superposition_region(dom, weak, step=0.04)
        ob = outer_bound_eq_ob(dom, weak, step=0.04)
        for pt in inner.points:
            assert frontier_contains(ob, pt, tol=1e-9)
            checked += 1
    print(f"[PASS] criterion 10: {checked} achievable frontier points inside the outer bound on 10 regime-spanning pairs")


def test_11_ordering_hierarchy():
    rng = np.random.default_rng(5)
    instances = 0
    for _ in range(12):
        p = rng.uniform(0.05, 0.45)
        e = rng.uniform(0.0, 2.0 * p)
        chan_b, chan_s = bec(e), bsc(p)
        if ordering.test_degraded(chan_b, chan_s).holds:
            instances += 1
            assert ordering.test_less_noisy(chan_b, chan_s).holds
            assert ordering.test_more_capable(chan_b, chan_s).holds
    labels = ("0", "1", "2")
    for _ in range(3):
        a = Dmc.normalized(rng.gamma(1.0, 1.0, size=(3, 3)), labels)
        b = cascade(a, Dmc.normalized(rng.gamma(1.0, 1.0, size=(3, 3)), labels))
        if ordering.test_degraded(a, b).holds:
            instances += 1
            assert ordering.test_less_noisy(a, b).holds
            assert ordering.test_more_capable(a, b).holds
    assert instances > 0
    print(f"[PASS] criterion 11: degraded implies less noisy and more capable on all {instances} tested instances")


def test_12_verify_report_determinism(tmp_path):
    outs = []
    for name in ("first.json", "second.json"):
        target = tmp_path / name
        code = main(["verify-paper", "--format", "json", "--seed", "0", "--out", str(target)])
        assert code == 0
        outs.append(target.read_bytes())
    assert outs[0] == outs[1]
    print(f"[PASS] criterion 12: two verification runs produced byte-identical reports ({len(outs[0])} bytes)")
