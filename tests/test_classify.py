import numpy as np
import pytest

from bcorder.channels import Dmc, bec, bsc, cascade, split_input_pair
from bcorder import classify as ordering
from bcorder.classify import (
    AuxDecomposition,
    Outcome,
    gap_functional,
    search_less_noisy_counterexample,
    simplex_grid,
)
from bcorder.probcore import Dist, DomainError


def test_simplex_grid_covers_simplex():
    g = simplex_grid(3, 0.25)
    assert np.allclose(g.sum(axis=1), 1.0, atol=1e-15)
    assert g.shape[0] == 15  # compositions of 4 into 3 parts
    assert (g >= 0).all()


def test_aux_decomposition_validates():
    with pytest.raises(DomainError):
        AuxDecomposition(Dist(np.array([0.5, 0.5])), np.array([[0.9, 0.2], [0.1, 0.9]]))
    dec = AuxDecomposition(Dist(np.array([0.3, 0.7])), np.array([[1.0, 0.0], [0.2, 0.8]]))
    assert dec.aux_size == 2 and dec.input_size == 2


def test_aux_decomposition_information_quantities():
    # deterministic U = X splits I(X;Y) entirely into the aux term
    chan = bsc(0.1)
    dec = AuxDecomposition(Dist(np.array([0.5, 0.5])), np.eye(2))
    assert dec.mi_aux(chan) == pytest.approx(1.0 - 0.4689955935892812, abs=1e-12)
    assert dec.mi_conditional(chan) == pytest.approx(0.0, abs=1e-12)
    # trivial U puts everything into the conditional term
    triv = AuxDecomposition(Dist(np.array([1.0])), np.array([[0.5, 0.5]]))
    assert triv.mi_aux(chan) == pytest.approx(0.0, abs=1e-12)
    assert triv.mi_conditional(chan) == pytest.approx(1.0 - 0.4689955935892812, abs=1e-12)


def test_degraded_holds_with_exact_witness():
    verdict = ordering.test_degraded(bec(0.15), bsc(0.1))
    assert verdict.outcome is Outcome.HOLDS
    w = verdict.witness
    resid = np.max(np.abs(bec(0.15).rows @ w.rows - bsc(0.1).rows))
    assert resid <= 1e-9


def test_degraded_fails_above_threshold():
    verdict = ordering.test_degraded(bec(0.25), bsc(0.1))
    assert verdict.outcome is Outcome.FAILS
    assert verdict.diagnostics["residual"] > 1e-9


def test_degraded_is_reflexive_and_respects_composition():
    a = bec(0.3)
    assert ordering.test_degraded(a, a).holds
    rng = np.random.default_rng(9)
    for _ in range(5):
        w = rng.gamma(1.0, 1.0, size=(3, 2))
        w /= w.sum(axis=1, keepdims=True)
        b = cascade(a, Dmc(w, ("0", "1")))
        assert ordering.test_degraded(a, b).holds


def test_less_noisy_examples():
    # convex regime: the erasure side is less noisy
    assert ordering.test_less_noisy(bec(0.3), bsc(0.1)).holds
    # above the convexity threshold the ordering breaks
    verdict = ordering.test_less_noisy(bec(0.4), bsc(0.1))
    assert verdict.fails


def test_less_noisy_failure_witness_revalidates():
    verdict = ordering.test_less_noisy(bec(0.4), bsc(0.1))
    assert verdict.fails
    dec = verdict.witness
    assert isinstance(dec, AuxDecomposition)
    # the witness decomposition must actually reverse the information order
    assert dec.mi_aux(bsc(0.1)) - dec.mi_aux(bec(0.4)) > 5e-10


def test_more_capable_examples():
    assert ordering.test_more_capable(bec(0.4), bsc(0.1101)).holds
    # far above the entropy threshold the erasure side loses at uniform
    verdict = ordering.test_more_capable(bec(0.6), bsc(0.1))
    assert verdict.fails
    px = verdict.witness
    assert gap_functional(bec(0.6), bsc(0.1), px) < -1e-9


def test_dominant_c_symmetry_examples():
    assert ordering.test_dominant_c_symmetry(bsc(0.1), bec(0.5)).holds
    assert ordering.test_dominant_c_symmetry(bsc(0.1), bec(0.4)).fails


def test_essentially_less_noisy_examples():
    verdict = ordering.test_essentially_less_noisy(bsc(0.1), bec(0.5))
    assert verdict.holds
    assert verdict.diagnostics["sufficient_class"] == "uniform"
    assert ordering.test_essentially_less_noisy(bsc(0.1), bec(0.15)).fails


def test_essentially_less_noisy_inconclusive_without_symmetry():
    skew = Dmc(np.array([[0.9, 0.1], [0.3, 0.7]]), ("0", "1"))
    verdict = ordering.test_essentially_less_noisy(skew, bsc(0.1))
    assert verdict.outcome is Outcome.INCONCLUSIVE


def test_essentially_more_capable_four_letter_pair():
    y1, y2 = split_input_pair()
    u01 = Dist(np.array([0.5, 0.5, 0.0, 0.0]))
    u23 = Dist(np.array([0.0, 0.0, 0.5, 0.5]))
    holds = ordering.test_essentially_more_capable(y1, y2, [u01], step=0.02, seed=0)
    assert holds.outcome is Outcome.HOLDS
    assert holds.diagnostics["sufficiency_assumed"] is True
    fails = ordering.test_essentially_more_capable(y1, y2, [u23], step=0.02, seed=0)
    assert fails.outcome is Outcome.FAILS
    dec = fails.witness
    gap = dec.mi_conditional(y2) - dec.mi_conditional(y1)
    assert gap > 5e-10


def test_essentially_more_capable_fails_on_plain_bsc_bec():
    # conditional information can favor the erasure side even when the
    # crossover side dominates unconditionally
    verdict = ordering.test_essentially_more_capable(bsc(0.1), bec(0.5), [Dist.uniform(2)], seed=0)
    assert verdict.fails


def test_counterexample_search_finds_and_respects():
    found = search_less_noisy_counterexample(bec(0.5), bsc(0.1101), seed=0)
    assert found is not None
    assert found.mi_aux(bsc(0.1101)) - found.mi_aux(bec(0.5)) > 1e-9
    absent = search_less_noisy_counterexample(bec(0.3), bsc(0.1), seed=0)
    assert absent is None


def test_hierarchy_composition_on_random_cascades():
    rng = np.random.default_rng(31)
    labels = ("0", "1", "2")
    checked = 0
    for _ in range(4):
        a = Dmc.normalized(rng.gamma(1.0, 1.0, size=(3, 3)), labels)
        w = Dmc.normalized(rng.gamma(1.0, 1.0, size=(3, 3)), labels)
        b = cascade(a, w)
        assert ordering.test_degraded(a, b).holds
        checked += 1
        # degradedness implies a is less noisy than b and more capable than b
        assert ordering.test_less_noisy(a, b).holds
        assert ordering.test_more_capable(a, b).holds
    assert checked == 4


def test_mismatched_inputs_rejected():
    three = Dmc(np.eye(3), ("0", "1", "2"))
    with pytest.raises(DomainError):
        ordering.test_degraded(three, bsc(0.1))
    with pytest.raises(DomainError):
        ordering.test_less_noisy(three, bsc(0.1))
