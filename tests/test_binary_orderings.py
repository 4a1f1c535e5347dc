"""Binary-input ordering tests: the exact route of classify on m = 2.

On two inputs g(q) = I(X;Y_1) - I(X;Y_2), q = P(X = 1), is a function of
one variable, and channel 1 is less noisy than channel 2 iff g is concave
(van Dijk, IEEE Trans. IT 1997).  With d = r1 - r0 and
L_y = r0_y + q d_y, g'' = -S / ln 2 for S = sum over channel 1's outputs of
d_y^2 / L_y minus the same sum over channel 2's, so S times the product of
the L_y is a polynomial N whose sign on (0, 1) decides less noisy both
ways.  ``exact_less_noisy`` decides it in rational arithmetic: the float
rows are exact rationals, Yun's square-free factorization keeps the roots
of odd multiplicity, where N changes sign, and a Sturm sequence counts
them (Sturm, 1829).  It shares no code with bcorder.
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from bcorder import classify as ordering
from bcorder.channels import Dmc, bec, bsc
from bcorder.cli import main
from bcorder.probcore import VERDICT_TOL, binary_entropy
from info_oracles import brute_mi, chain_table


# ---------------------------------------------------------------------------
# polynomials over Q, coefficients in ascending order of q


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _add(p, q):
    n = max(len(p), len(q))
    return _trim((p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n))


def _scale(p, c):
    return _trim(c * x for x in p)


def _mul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return _trim(out)


def _divmod(p, q):
    p, quot = list(p), [Fraction(0)] * max(1, len(p) - len(q) + 1)
    while len(p) >= len(q) and p:
        c = p[-1] / q[-1]
        k = len(p) - len(q)
        quot[k] = c
        p = _add(p, _scale([0] * k + q, -c))
    return _trim(quot), p


def _derivative(p):
    return _trim(i * x for i, x in enumerate(p) if i)


def _monic_gcd(p, q):
    while q:
        p, q = q, _divmod(p, q)[1]
    return _scale(p, 1 / p[-1])


def _value(p, x):
    total = Fraction(0)
    for c in reversed(p):
        total = total * x + c
    return total


def _odd_part(f):
    """The product of the square-free factors of f of odd multiplicity (Yun's algorithm)."""
    f = _scale(f, 1 / f[-1])
    b = _monic_gcd(f, _derivative(f))
    c = _divmod(f, b)[0]
    d = _add(_divmod(_derivative(f), b)[0], _scale(_derivative(c), -1))
    odd, multiplicity = [Fraction(1)], 1
    while len(c) > 1:
        a = _monic_gcd(c, d)
        if multiplicity % 2:
            odd = _mul(odd, a)
        c = _divmod(c, a)[0]
        d = _add(_divmod(d, a)[0], _scale(_derivative(c), -1))
        multiplicity += 1
    return odd


def _roots_inside(p, width=Fraction(1, 2**50)):
    """The distinct roots of the square-free p in the open interval (0, 1), each as an interval narrower than ``width``.

    Sturm's theorem counts the roots in (x, y] as changes(x) - changes(y);
    intervals are halved until each holds one root and is narrow enough.
    """
    for root in ([0, 1], [-1, 1]):  # q and q - 1: divide out roots on the ends
        while len(p) > 1 and _value(p, Fraction(-root[0])) == 0:
            p = _divmod(p, root)[0]
    chain = [p, _derivative(p)]
    while chain[-1]:
        chain.append(_scale(_divmod(chain[-2], chain[-1])[1], -1))
    chain.pop()

    def changes(x):
        signs = [v for v in (_value(q, x) for q in chain) if v != 0]
        return sum(1 for s, t in zip(signs, signs[1:]) if (s > 0) != (t > 0))

    found, todo = [], [(Fraction(0), Fraction(1), changes(Fraction(0)), changes(Fraction(1)))]
    while todo:
        lo, hi, at_lo, at_hi = todo.pop()
        if at_lo - at_hi == 1 and hi - lo < width:
            found.append((lo, hi))
        elif at_lo > at_hi:
            mid = (lo + hi) / 2
            at_mid = changes(mid)
            todo += [(lo, mid, at_lo, at_mid), (mid, hi, at_mid, at_hi)]
    return sorted(found)


def curvature_numerator(a, b):
    """N = S * prod L_y over the outputs with d_y != 0, exactly, for 2 x n rows a and b."""
    lines = []
    for rows, sign in ((a, 1), (b, -1)):
        for r0, r1 in zip(*(map(Fraction, row) for row in rows)):
            if r1 != r0:
                lines.append((sign * (r1 - r0) ** 2, [r0, r1 - r0]))
    total = []
    for i, (weight, _) in enumerate(lines):
        term = [weight]
        for j, (_, line) in enumerate(lines):
            if j != i:
                term = _mul(term, line)
        total = _add(total, term)
    return total


def exact_less_noisy(a, b):
    """(1 less noisy than 2, 2 less noisy than 1), decided exactly."""
    n = curvature_numerator(a, b)
    if not n:
        return True, True
    if _roots_inside(_odd_part(n), width=1):
        return False, False
    # no sign change: N has one sign on (0, 1) off its roots, read at the first non-root
    k = 2
    while _value(n, Fraction(1, k)) == 0:
        k += 1
    positive = _value(n, Fraction(1, k)) > 0
    return positive, not positive


def _mpf(c):
    return mpmath.mpf(c.numerator) / c.denominator


def _mp_gap(a, b, q):
    """g(q) = I(X;Y_1) - I(X;Y_2) at 40 digits."""

    def info(rows):
        total = mpmath.mpf(0)
        for r0, r1 in zip(*rows):
            out = (1 - q) * mpmath.mpf(r0) + q * mpmath.mpf(r1)
            for x, r in ((1 - q, r0), (q, r1)):
                if x > 0 and r > 0:
                    total += x * mpmath.mpf(r) * mpmath.log(mpmath.mpf(r) / out, 2)
        return total

    return info(a) - info(b)


def widest_chord_violations(a, b):
    """The largest chord violation against each direction, on the exact pieces of N, at 40 digits.

    The pieces are cut at the roots of N's odd part in (0, 1), each within
    2^-50; a piece with
    N < 0 (g convex) scores (g(x1) + g(x2)) / 2 - g(mid) against 1 over 2,
    one with N > 0 the negation against 2 over 1.
    """
    n = curvature_numerator(a, b)
    if not n:
        return 0.0, 0.0
    with mpmath.workdps(40):
        cuts = [_mpf((lo + hi) / 2) for lo, hi in _roots_inside(_odd_part(n))]
        worst = [0.0, 0.0]
        for lo, hi in zip([mpmath.mpf(0), *cuts], [*cuts, mpmath.mpf(1)]):
            mid = (lo + hi) / 2
            sign = mpmath.sign(sum(_mpf(c) * mid**i for i, c in enumerate(n)))
            jensen = (_mp_gap(a, b, lo) + _mp_gap(a, b, hi)) / 2 - _mp_gap(a, b, mid)
            if sign < 0:
                worst[0] = max(worst[0], float(jensen))
            elif sign > 0:
                worst[1] = max(worst[1], float(-jensen))
    return tuple(worst)


def _channel(rows):
    rows = np.asarray(rows, dtype=float)
    return Dmc(rows, tuple(str(y) for y in range(rows.shape[1])))


def _random_binary(rng, n, sparse):
    """Two rows on n outputs in steps of 1/1000; a sparse draw leaves zero cells."""
    return rng.multinomial(1000, rng.dirichlet(np.full(n, 0.3 if sparse else 1.0)), size=2) / 1000


def _run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _classify_files(tmp_path, a, b):
    """``classify --format json`` on channel files of a and b: exit code, stderr and outcome per test."""
    paths = []
    for name, chan in (("first", a), ("second", b)):
        paths.append(tmp_path / f"{name}.json")
        doc = {"input_size": 2, "output_labels": list(chan.output_labels), "rows": chan.rows.tolist()}
        paths[-1].write_text(json.dumps(doc))
    code, out, err = _run_cli("classify", "--channel1", str(paths[0]), "--channel2", str(paths[1]), "--format", "json")
    return code, err, {key: v["outcome"] for key, v in json.loads(out)["tests"].items()}


# ---------------------------------------------------------------------------
# the exact oracle against classify


def _assert_classify_agrees(a, b, want):
    """classify's two less-noisy verdicts equal ``want`` away from VERDICT_TOL; returns the pairs compared."""
    res = ordering.ordering_verdicts(_channel(a), _channel(b))
    viol = widest_chord_violations(a, b)
    compared = 0
    for key, holds, v in zip(("less_noisy_1", "less_noisy_2"), want, viol):
        if not holds and abs(v - VERDICT_TOL) <= 1e-6:
            continue  # a sign change whose widest chord scores within 1e-6 of the verdict margin
        assert res[key].holds is holds, (key, a.tolist(), b.tolist(), v)
        compared += 1
    return compared


def test_exact_oracle_agrees_with_classify_and_the_closed_form_on_bsc_bec_pairs():
    rng = np.random.default_rng(2909)
    compared = 0
    for p, e in zip(rng.uniform(0.01, 0.49, 12).round(4), rng.uniform(0.01, 0.99, 12).round(4)):
        a, b = bec(e).rows, bsc(p).rows
        ln_bec, ln_bsc = exact_less_noisy(a, b)
        assert ln_bec == (e <= 4.0 * p * (1.0 - p))
        assert not ln_bsc  # an erasure rate below 1 bends g up next to both vertices
        compared += _assert_classify_agrees(a, b, (ln_bec, ln_bsc))
        compared += _assert_classify_agrees(b, a, (ln_bsc, ln_bec))
    assert compared >= 40


def test_exact_oracle_agrees_with_classify_on_random_binary_pairs():
    rng = np.random.default_rng(2911)
    compared, verdicts = 0, set()
    for k in range(24):
        a = _random_binary(rng, int(rng.integers(2, 5)), sparse=k % 3 == 0)
        b = _random_binary(rng, int(rng.integers(2, 5)), sparse=k % 4 == 0)
        want = exact_less_noisy(a, b)
        verdicts.add(want)
        compared += _assert_classify_agrees(a, b, want)
    assert compared >= 40
    assert {(True, False), (False, True), (False, False)} <= verdicts


def test_tolerance_splits_the_oracle_but_not_classify():
    # at e = 4p(1 - p) = 3/4 S has a double root at q = 1/2; 1e-12 more
    # erasure makes a convex piece about 2e-6 wide, whose chord scores at
    # the level of rounding
    p = 0.25
    for e, exact in ((0.75, True), (0.75 + 1e-12, False)):
        a, b = bec(e).rows, bsc(p).rows
        assert exact_less_noisy(a, b)[0] is exact
        assert ordering.test_less_noisy(bec(e), bsc(p)).holds


# ---------------------------------------------------------------------------
# pairs the grid route held wrongly; each witness re-checked by brute-force sums


@pytest.mark.parametrize(
    "a, b, key, gap, q",
    [
        ([[0.16, 0.84], [0.6, 0.4]], [[0.5, 0.5], [0.05, 0.95]], "more_capable_2", 3.116e-6, 0.00263),
        ([[0.17, 0.83], [0.61, 0.39]], [[0.94, 0.06], [0.6, 0.4]], "more_capable_1", -2.381e-5, 0.00718),
    ],
)
def test_more_capable_dips_next_to_a_face_fail(a, b, key, gap, q):
    a, b = _channel(a), _channel(b)
    verdict = ordering.ordering_verdicts(a, b)[key]
    assert verdict.fails
    d = verdict.diagnostics
    # min g of the direction, with g read as channel 1 minus channel 2
    g = d["min_gap"] if key == "more_capable_1" else 0.0 - d["min_gap"]
    # the figures above are rounded to the digits given
    assert math.isclose(g, gap, rel_tol=5e-4) and math.isclose(d["argmin"][1], q, rel_tol=5e-3)
    px = verdict.witness.probs
    brute = brute_mi(px[:, None] * a.rows) - brute_mi(px[:, None] * b.rows)
    assert abs(brute - g) <= 1e-12


@pytest.mark.parametrize(
    "a, b, violation, chord",
    [
        ([[0.38, 0.57, 0.05], [0.35, 0.3, 0.35]], [[0.12, 0.04, 0.84], [0.37, 0.25, 0.38]], 1.129e-6, (0.0, 0.015474)),
        ([[0.7, 0.07, 0.23], [0.02, 0.08, 0.9]], [[0.12, 0.82, 0.06], [0.58, 0.03, 0.39]], 5.066e-5, (0.98027, 1.0)),
    ],
)
def test_less_noisy_violations_next_to_a_face_fail(a, b, violation, chord):
    a, b = _channel(a), _channel(b)
    verdict = ordering.ordering_verdicts(a, b)["less_noisy_2"]
    assert verdict.fails
    d = verdict.diagnostics
    assert math.isclose(d["violation"], violation, rel_tol=5e-4)
    assert np.allclose([end[1] for end in d["witness_pair"]], chord, atol=5e-6)
    dec = verdict.witness
    brute = brute_mi(chain_table(dec, a).sum(axis=1)) - brute_mi(chain_table(dec, b).sum(axis=1))
    assert abs(brute - d["violation"]) <= 1e-12


# ---------------------------------------------------------------------------
# diagnostics and edge inputs


def test_exact_route_diagnostics():
    res = ordering.ordering_verdicts(bsc(0.1), bec(0.5))
    for key in ("less_noisy_1", "less_noisy_2"):
        assert set(res[key].diagnostics) == {"resolution", "pieces", "violation", "witness_pair"}
    for key in ("more_capable_1", "more_capable_2"):
        assert set(res[key].diagnostics) == {"resolution", "pieces", "min_gap", "argmin"}
    for key in ("essentially_less_noisy_1", "essentially_less_noisy_2"):
        assert {"resolution", "pieces", "max_gap", "argmax", "uniform_gap"} <= set(res[key].diagnostics)
    # g is convex next to both vertices, where the BEC's I'' diverges, and concave between
    assert {res[key].diagnostics["pieces"] for key in res if "degraded" not in key} == {3}
    assert all(res[key].diagnostics["resolution"] == "exact" for key in res if "degraded" not in key)
    holds = ordering.test_less_noisy(bec(0.3), bsc(0.1))
    assert holds.holds and holds.diagnostics == {"resolution": "exact", "pieces": 1}


_ONE_OUTPUT = _channel([[1.0], [1.0]])

# BSC(p)/BEC(e) rates on the edges of the (p, e) square
_EDGE_RATES = [(0.5, 0.3), (0.0, 0.3), (0.2, 0.0), (0.2, 1.0), (0.5, 1.0), (0.0, 0.0), (0.5, 0.0)]


def _closed_forms(p, e):
    """The closed forms of BSC(p) as channel 1 and BEC(e) as channel 2, inclusive at their thresholds."""
    h = binary_entropy(p)
    return {
        "degraded_1_wrt_2": e <= 2.0 * p,
        "less_noisy_2": e <= 4.0 * p * (1.0 - p),
        "more_capable_2": e <= h,
        "essentially_less_noisy_1": e >= h,
    }


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p, e", _EDGE_RATES)
def test_edge_bsc_bec_pairs_match_the_closed_forms(p, e):
    res = ordering.ordering_verdicts(bsc(p), bec(e))
    for key, holds in _closed_forms(p, e).items():
        assert res[key].holds is holds, key
    code, out, err = _run_cli("classify", "--bsc", repr(p), "--bec", repr(e), "--format", "json")
    assert code == 0 and err == ""
    tests = json.loads(out)["tests"]
    assert {key: tests[key]["outcome"] == "holds" for key in _closed_forms(p, e)} == _closed_forms(p, e)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "a, b",
    [(bsc(0.2), bsc(0.2)), (bec(0.3), bec(0.3)), (bsc(0.5), bsc(0.5)), (_ONE_OUTPUT, _ONE_OUTPUT), (_ONE_OUTPUT, bsc(0.5))],
)
def test_pairs_with_equal_information_hold_every_ordering(tmp_path, a, b):
    # g is 0 everywhere: every piece is linear, and no chord or extremum fails
    res = ordering.ordering_verdicts(a, b)
    assert all(v.holds for v in res.values()), {k: v.outcome for k, v in res.items()}
    assert all(res[key].diagnostics["pieces"] == 1 for key in res if "degraded" not in key)
    code, err, outcomes = _classify_files(tmp_path, a, b)
    assert code == 0 and err == "" and set(outcomes.values()) == {"holds"}


@pytest.mark.filterwarnings("error")
def test_one_output_channel_is_degraded_with_respect_to_any_channel(tmp_path):
    res = ordering.ordering_verdicts(_ONE_OUTPUT, bsc(0.2))
    for key in ("degraded_1_wrt_2", "less_noisy_2", "more_capable_2", "essentially_less_noisy_2"):
        assert res[key].holds, key
    for key in ("degraded_2_wrt_1", "less_noisy_1", "more_capable_1", "essentially_less_noisy_1"):
        assert res[key].fails, key
    code, err, outcomes = _classify_files(tmp_path, _ONE_OUTPUT, bsc(0.2))
    assert code == 0 and err == ""
    assert outcomes == {k: v.outcome.value for k, v in res.items()}


def test_witness_laws_sum_to_one_near_the_vertices():
    # the dips and chords of these pairs lie within 1e-3 of a vertex, where
    # (1 - q, q) is taken from the logit without cancellation
    for a, b in ((bsc(0.1), bec(0.995)), (bsc(0.3), bec(0.999))):
        verdict = ordering.test_less_noisy(a, b)
        assert verdict.fails
        ends = np.array(verdict.diagnostics["witness_pair"])
        assert np.all(np.abs(ends.sum(axis=1) - 1.0) <= 4 * np.finfo(float).eps)
        assert math.isclose(verdict.witness.mi_aux(b) - verdict.witness.mi_aux(a), verdict.diagnostics["violation"], abs_tol=1e-12)


def test_binary_stacks_in_runs_equal_separate_calls(monkeypatch):
    # a block below one pair's arrays scores the stack pair by pair, so
    # every verdict is that of the pair's own call, bit for bit
    rng = np.random.default_rng(23)
    pairs = [(_channel(_random_binary(rng, 3, k % 2 == 0)), _channel(_random_binary(rng, 3, k % 3 == 0))) for k in range(6)]
    rows_a, rows_b = (np.stack([pair[side].rows for pair in pairs]) for side in (0, 1))
    monkeypatch.setattr(ordering, "_HESSIAN_BLOCK", 64)
    assert len(ordering._binary_runs(rows_a, rows_b)) == len(pairs)
    outcomes = set()
    for stacked, scalar in (
        (ordering.less_noisy_stack, ordering.test_less_noisy),
        (ordering.more_capable_stack, ordering.test_more_capable),
    ):
        for (a, b), got in zip(pairs, stacked(rows_a, rows_b)):
            want = scalar(a, b)
            assert got.outcome is want.outcome and got.diagnostics == want.diagnostics
            outcomes.add(got.outcome)
    assert outcomes == {ordering.Outcome.HOLDS, ordering.Outcome.FAILS}
