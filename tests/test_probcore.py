import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bcorder.channels import Dmc, aux_mi_batch, bec, bsc, mi_batch
from bcorder.probcore import (
    CELL_FLOOR,
    SIMPLEX_TOL,
    Dist,
    DomainError,
    binary_convolve,
    binary_entropy,
    entropy,
    stochastic_array,
)
from info_oracles import brute_conditional_mi, brute_mi, decomposition


def test_dist_validates_simplex():
    with pytest.raises(DomainError):
        Dist(np.array([0.5, 0.6]))
    with pytest.raises(DomainError):
        Dist(np.array([0.5, -0.5, 1.0]))
    d = Dist(np.array([0.25, 0.75]))
    assert d.size == 2


def _reference_stochastic_array(values, what, axis=-1):
    """stochastic_array as four separate passes: finite, negative, clip, sums."""
    arr = np.array(values, dtype=float, copy=True)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{what} contains non-finite entries")
    if np.any(arr < -CELL_FLOOR):
        raise DomainError(f"{what} contains negative entries")
    arr = np.clip(arr, 0.0, None)
    sums = arr.sum(axis=axis)
    bad = np.abs(sums - 1.0) > SIMPLEX_TOL
    if np.ndim(bad) == 0:
        if bad:
            raise DomainError(f"{what} does not sum to 1 (sum={float(sums)!r})")
    elif np.any(bad):
        raise DomainError(f"{what} row {int(np.argmax(bad))} does not sum to 1")
    return arr


def _outcome(fn, values, axis):
    try:
        return fn(values, "law", axis)
    except DomainError as exc:
        return str(exc)


def _assert_same_outcome(values, axis):
    got, want = _outcome(stochastic_array, values, axis), _outcome(_reference_stochastic_array, values, axis)
    if isinstance(want, str):
        assert got == want
    else:
        assert not got.flags.writeable
        assert got.shape == want.shape
        # bit for bit, so a -0.0 clipped to 0.0 by the reference is 0.0 here too
        assert got.tobytes() == want.tobytes()


_SPECIAL = [np.nan, np.inf, -np.inf, -1e-16, -0.0, 0.0, -0.3, 1.0, 2.0]


@pytest.mark.parametrize(
    "values, axis",
    [
        ([0.5, np.nan, 0.5], -1),
        ([0.5, np.inf, 0.5], -1),
        ([0.5, -np.inf, 1.5], -1),
        ([np.nan, -0.5, 1.5], -1),
        ([-np.inf, np.inf], -1),
        ([0.5, -0.5, 1.0], -1),
        ([0.5, 0.6], -1),
        ([], -1),
        ([[0.5, 0.6], [1.0, 0.0]], None),
        ([[0.5, 0.5], [0.5, 0.6], [0.9, 0.2]], -1),
        ([[0.5, 0.5], [0.5, 0.5]], 0),
        ([[-0.0, 1.0], [1.0 + 1e-13, -1e-16]], -1),
        ([1.0, -1e-16, -0.0], -1),
        (np.zeros((0, 2)), -1),
    ],
)
def test_stochastic_array_rejects_with_the_same_message(values, axis):
    _assert_same_outcome(values, axis)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    data=st.data(),
    shape=st.tuples(st.integers(1, 3), st.integers(1, 4)),
    axis=st.sampled_from([-1, 0, None]),
    noise=st.sampled_from([0.0, -0.0, -1e-16, 1e-13]),
)
def test_stochastic_array_matches_the_four_pass_reference(data, shape, axis, noise):
    cells = data.draw(st.lists(st.sampled_from(_SPECIAL) | st.floats(0.0, 1.0), min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    _assert_same_outcome(np.array(cells).reshape(shape), axis)
    # laws that sum to 1 up to rounding, with a noise entry appended to each
    laws = np.random.default_rng(len(cells)).dirichlet(np.ones(shape[1]), size=shape[0])
    _assert_same_outcome(np.column_stack([laws, np.full(shape[0], noise)]), -1)


def test_dist_is_immutable():
    d = Dist(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        d.probs[0] = 0.9


def test_uniform_and_entropy():
    assert entropy(Dist.uniform(8)) == pytest.approx(3.0, abs=1e-12)
    assert entropy(Dist(np.array([1.0, 0.0]))) == 0.0


def test_binary_entropy_values():
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-12)
    vec = binary_entropy(np.array([0.1, 0.2]))
    assert vec.shape == (2,)


def test_binary_convolve_basics():
    assert binary_convolve(0.0, 0.1) == pytest.approx(0.1, abs=1e-15)
    assert binary_convolve(1.0, 0.1) == pytest.approx(0.9, abs=1e-15)
    assert binary_convolve(0.5, 0.3) == pytest.approx(0.5, abs=1e-15)
    # symmetric in its arguments
    assert binary_convolve(0.2, 0.35) == pytest.approx(binary_convolve(0.35, 0.2), abs=1e-15)


def test_mutual_information_against_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        shape = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        t = rng.gamma(1.0, 1.0, size=shape)
        t /= t.sum()
        px = t.sum(axis=1)
        assert mi_batch(t / px[:, None], px[None, :])[0] == pytest.approx(brute_mi(t), abs=1e-12)


def test_mutual_information_independent_is_zero():
    px = np.array([0.3, 0.7])
    py = np.array([0.2, 0.5, 0.3])
    rows = np.tile(py, (2, 1))  # every input sees the same output law
    assert mi_batch(rows, px[None, :])[0] == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_deterministic_channel():
    px = np.array([[0.25, 0.25, 0.5]])
    assert mi_batch(np.eye(3), px)[0] == pytest.approx(1.5, abs=1e-12)


def test_conditional_mi_against_oracle():
    # tables factor as p(u,x) p(y|x); build them that way, then compare
    rng = np.random.default_rng(11)
    for _ in range(50):
        k = int(rng.integers(1, 4))
        m = int(rng.integers(2, 4))
        n = int(rng.integers(2, 4))
        pux = rng.gamma(1.0, 1.0, size=(k, m))
        pux /= pux.sum()
        rows = rng.gamma(1.0, 1.0, size=(m, n))
        rows /= rows.sum(axis=1, keepdims=True)
        chan = Dmc(rows, tuple(str(y) for y in range(n)))
        t = pux[:, :, None] * rows[None, :, :]
        got = decomposition(pux).mi_conditional(chan)
        assert got == pytest.approx(brute_conditional_mi(t), abs=1e-12)


def test_conditional_information_is_weighted_per_symbol_sum():
    # I(X;Y|U) must match the p(u)-weighted sum of per-symbol informations
    rng = np.random.default_rng(13)
    chan = bec(0.3)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        pu = rng.gamma(1.0, 1.0, size=k)
        pu /= pu.sum()
        rows = rng.gamma(1.0, 1.0, size=(k, 2))
        rows /= rows.sum(axis=1, keepdims=True)
        direct = sum(
            pu[u] * brute_mi(rows[u][:, None] * chan.rows)
            for u in range(k)
        )
        got = decomposition(pu[:, None] * rows).mi_conditional(chan)
        assert got == pytest.approx(direct, abs=1e-12)


def test_aux_mi_batch_matches_pushed_joint():
    # I(U;Y) from the kernel equals the oracle on the (U, Y) table obtained
    # by pushing X through the channel
    rng = np.random.default_rng(17)
    chan = bsc(0.15)
    for _ in range(20):
        t = rng.gamma(1.0, 1.0, size=(3, 2))
        t /= t.sum()
        pu = t.sum(axis=1)
        got = aux_mi_batch(chan.rows, pu[None, :], (t / pu[:, None])[None, :, :])[0]
        assert got == pytest.approx(brute_mi(t @ chan.rows), abs=1e-12)


def test_data_processing_never_creates_information():
    # I(U;Y) <= I(U;X) through any channel
    rng = np.random.default_rng(19)
    identity = Dmc(np.eye(2), ("0", "1"))
    for _ in range(25):
        t = rng.gamma(1.0, 1.0, size=(3, 2))
        t /= t.sum()
        chan = bsc(float(rng.uniform(0.05, 0.45)))
        dec = decomposition(t)
        assert dec.mi_aux(chan) <= dec.mi_aux(identity) + 1e-12


def test_chain_rule_identity():
    # Y depends on U only through X, so I(U;Y) + I(X;Y|U) = I(X;Y) exactly
    rng = np.random.default_rng(23)
    chan = bec(0.4)
    for _ in range(25):
        t = rng.gamma(1.0, 1.0, size=(3, 2))
        t /= t.sum()
        dec = decomposition(t)
        i_xy = mi_batch(chan.rows, t.sum(axis=0)[None, :])[0]
        assert dec.mi_aux(chan) + dec.mi_conditional(chan) == pytest.approx(i_xy, abs=1e-11)
