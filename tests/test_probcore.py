import numpy as np
import pytest

from bcorder.channels import Dmc, aux_mi_batch, bec, bsc, mi_batch
from bcorder.probcore import Dist, DomainError, binary_convolve, binary_entropy, entropy
from info_oracles import brute_conditional_mi, brute_mi, decomposition


def test_dist_validates_simplex():
    with pytest.raises(DomainError):
        Dist(np.array([0.5, 0.6]))
    with pytest.raises(DomainError):
        Dist(np.array([0.5, -0.5, 1.0]))
    d = Dist(np.array([0.25, 0.75]))
    assert d.size == 2


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
