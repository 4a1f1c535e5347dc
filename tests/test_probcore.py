import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bcorder.channels import Dmc, aux_mi_batch, bec, bsc, mi_batch
from bcorder.probcore import (
    CELL_FLOOR,
    SIMPLEX_TOL,
    Dist,
    DomainError,
    binary_convolve,
    binary_entropy,
    entropy,
    entropy_vec,
    stochastic_array,
)
from info_oracles import brute_conditional_mi, brute_mi, decomposition, numpy_entropy


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


def _same_bits(got, want):
    """Equal values, signs of zero and shapes, and a scalar where numpy gives one."""
    return type(got) is type(want) and np.shape(got) == np.shape(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _raw_rows(rng, shape):
    """Laws along the last axis with exact zeros, entries at or just below CELL_FLOOR and rounding negatives."""
    v = rng.dirichlet(np.full(shape[-1], rng.choice([0.05, 1.0, 20.0])), size=shape[:-1])
    specials = np.array([0.0, CELL_FLOOR, CELL_FLOOR / 2.0, -1e-17, 1.0])
    hit = rng.random(shape) < rng.choice([0.0, 0.1, 0.5])
    return np.where(hit, specials[rng.integers(specials.size, size=shape)], v)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 300), lead=st.lists(st.integers(1, 3), max_size=2), m=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
@example(n=7, lead=[3], m=2, seed=0)
@example(n=8, lead=[], m=1, seed=1)
@example(n=128, lead=[2, 3], m=3, seed=2)
@example(n=129, lead=[1], m=4, seed=3)
@example(n=300, lead=[2, 2], m=2, seed=4)
def test_entropy_vec_is_bit_for_bit_numpys_sum(n, lead, m, seed):
    # under 8 outputs the kernel adds outputs one array operation at a time,
    # left to right; a numpy whose reduction adds in another order fails here
    rng = np.random.default_rng(seed)
    raw = _raw_rows(rng, (*lead, n))
    rows = _raw_rows(rng, (2, m, n))                 # a stack of two channels
    pxs = _raw_rows(rng, (5, m))
    weights = rng.dirichlet(np.ones(2), size=5)
    conds = _raw_rows(rng, (2, 5, 2, m))
    ry = conds @ rows[..., None, :, :]
    layouts = [
        raw,                                          # 1-D, 2-D and 3-D stacks as given
        rows,                                         # mi_batch's row entropies
        pxs @ rows,                                   # mi_from_entropies' output laws
        ry,                                           # aux_mi_batch's laws given U
        np.einsum("...k,...kj->...j", weights, ry),   # and its output laws
        pxs @ rows[0],                                # regions._batch_values' laws @ weak.rows
    ]
    for v in layouts:
        got, want = entropy_vec(v, axis=-1), numpy_entropy(v)
        assert _same_bits(got, want)
        assert not np.any(np.signbit(got) & (got == 0.0))  # every zero is +0.0


def test_entropy_vec_sums_every_row_length_in_numpys_order():
    rng = np.random.default_rng(11)
    for n in range(1, 301):
        v = _raw_rows(rng, (3, n))
        assert _same_bits(entropy_vec(v), numpy_entropy(v))
        assert _same_bits(entropy_vec(v[0]), numpy_entropy(v[0]))
    # another axis, summed across strided rows, still gives numpy's bits;
    # an empty axis has entropy +0.0
    for n in (3, 8, 130):
        v = _raw_rows(rng, (2, 3, n)).transpose(0, 2, 1)
        for axis in (0, 1, 2, -2):
            assert _same_bits(entropy_vec(v, axis=axis), numpy_entropy(v, axis=axis))
    assert _same_bits(entropy_vec(np.zeros((2, 0))), np.zeros(2))


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
