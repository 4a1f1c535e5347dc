import json

import numpy as np
import pytest

from bcorder.channels import (
    ChannelFormatError,
    CSymmetryWitness,
    Dmc,
    NotCSymmetricError,
    bec,
    bec_rows,
    bsc,
    bsc_rows,
    cascade,
    channel_from_dict,
    channel_mi,
    channel_to_dict,
    detect_c_symmetry,
    load_channel,
    mi_batch,
    save_channel,
    split_input_pair,
    symmetrize,
)
from bcorder.probcore import SIMPLEX_TOL, Dist, DomainError
from info_oracles import brute_mi, brute_symmetry_generator, decomposition, near_cyclic_rows, nine_output_cyclic_rows


def test_dmc_validates_rows():
    with pytest.raises(DomainError):
        Dmc(np.array([[0.5, 0.6]]), ("a", "b"))
    with pytest.raises(DomainError):
        Dmc(np.array([[0.5, 0.5]]), ("a",))  # label count mismatch
    c = Dmc(np.array([[0.5, 0.5], [0.1, 0.9]]), ("a", "b"))
    assert c.input_size == 2 and c.output_size == 2


def test_bsc_structure():
    c = bsc(0.1)
    assert np.allclose(c.rows, [[0.9, 0.1], [0.1, 0.9]], atol=1e-15)
    with pytest.raises(DomainError):
        bsc(0.6)
    with pytest.raises(DomainError):
        bsc(-0.01)


def test_bec_structure():
    c = bec(0.25)
    assert c.output_size == 3
    assert np.allclose(c.rows.sum(axis=1), 1.0, atol=1e-15)
    # each input keeps 1-e mass on its own symbol and e on the erasure
    assert c.rows[0].max() == pytest.approx(0.75, abs=1e-15)
    with pytest.raises(DomainError):
        bec(1.5)


def test_stacked_rows_are_the_channel_rows_bit_for_bit():
    ps = np.array([0.0, 1e-13, 0.1, 0.25, 0.5, 0.5 + 1e-13])
    es = np.array([0.0, -1e-13, 0.15, 0.5, 1.0, 1.0 + 1e-13])
    stacked_s, stacked_b = bsc_rows(ps), bec_rows(es.reshape(2, 3))
    assert stacked_s.shape == (6, 2, 2) and stacked_b.shape == (2, 3, 2, 3)
    assert np.array_equal(stacked_s, np.array([bsc(p).rows for p in ps]))
    assert np.array_equal(stacked_b.reshape(6, 2, 3), np.array([bec(e).rows for e in es]))
    # the rows written out entry by entry, after clipping to the range
    for p in ps:
        p = min(max(p, 0.0), 0.5)
        assert bsc(p).rows.tobytes() == np.array([[1.0 - p, p], [p, 1.0 - p]]).tobytes()
    for e in es:
        e = min(max(e, 0.0), 1.0)
        assert bec(e).rows.tobytes() == np.array([[1.0 - e, e, 0.0], [0.0, e, 1.0 - e]]).tobytes()
    for bad in (np.nan, -0.01, 0.6):
        with pytest.raises(DomainError, match="bsc crossover"):
            bsc_rows(np.array([0.1, bad]))
        with pytest.raises(DomainError, match="bec erasure rate"):
            bec_rows(np.array([0.1, bad * 2.0]))


def test_cascade_composes_rows():
    a = bsc(0.1)
    w = bsc(0.2)
    combo = cascade(a, w)
    # crossover rates convolve
    assert combo.rows[0, 1] == pytest.approx(0.1 * 0.8 + 0.9 * 0.2, abs=1e-15)


def test_cascade_rejects_shape_mismatch():
    with pytest.raises(DomainError):
        cascade(bec(0.5), bsc(0.1))  # 3 outputs into a 2-input channel is fine
    # the failing direction: bsc has 2 outputs, bec wants 2 inputs: that works,
    # so build an actually bad pair
    three_in = Dmc(np.eye(3), ("0", "1", "2"))
    with pytest.raises(DomainError):
        cascade(bsc(0.1), three_in)


def test_channel_mi_matches_joint_route():
    c = bec(0.3)
    px = Dist(np.array([0.4, 0.6]))
    direct = channel_mi(c, px)
    via_joint = brute_mi(px.probs[:, None] * c.rows)
    assert direct == pytest.approx(via_joint, abs=1e-14)


def test_mi_batch_matches_single():
    rng = np.random.default_rng(5)
    c = bsc(0.12)
    pxs = rng.gamma(1.0, 1.0, size=(40, 2))
    pxs /= pxs.sum(axis=1, keepdims=True)
    batch = mi_batch(c.rows, pxs)
    for i in range(40):
        assert batch[i] == pytest.approx(channel_mi(c, Dist(pxs[i])), abs=1e-12)


def test_bsc_symmetry_witness():
    wit = detect_c_symmetry(bsc(0.2))
    assert wit is not None
    assert tuple(wit.generator) == (1, 0)
    wit.validate()


def test_bec_symmetry_witness():
    wit = detect_c_symmetry(bec(0.4))
    assert wit is not None
    # input swap must swap the two letter outputs and fix the erasure symbol
    assert tuple(wit.generator) == (2, 1, 0) or tuple(wit.generator)[2] == 0
    wit.validate()


def test_asymmetric_channel_has_no_witness():
    c = Dmc(np.array([[0.9, 0.1], [0.3, 0.7]]), ("0", "1"))
    assert detect_c_symmetry(c) is None


def test_near_symmetric_channel_has_no_witness():
    # the one-step identity of generator (1, 2, 3, 0) holds within SIMPLEX_TOL, shift 2 does not
    rows = near_cyclic_rows()
    chan = Dmc(rows, tuple("0123"))
    assert np.max(np.abs(np.roll(rows, -1, axis=0)[:, [1, 2, 3, 0]] - rows)) <= SIMPLEX_TOL
    with pytest.raises(NotCSymmetricError, match="at shift 2"):
        CSymmetryWitness(chan, (1, 2, 3, 0)).validate()
    assert detect_c_symmetry(chan) is None


def test_nine_output_channel_is_searched():
    wit = detect_c_symmetry(Dmc(nine_output_cyclic_rows(), tuple(str(y) for y in range(9))))
    assert wit is not None
    assert wit.generator == (3, 4, 5, 6, 7, 8, 0, 1, 2)


def _cyclic_rows(rng, m, n, base):
    """Rows rows[i][s^i(y)] = base[y] for an output permutation s with s^m = id, outputs then relabelled."""
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    order = rng.permutation(n)
    sigma = np.arange(n)
    start = 0
    while start < n:
        length = int(rng.choice([d for d in divisors if d <= n - start]))
        cycle = order[start : start + length]
        sigma[cycle] = np.roll(cycle, -1)
        start += length
    rows = np.empty((m, n))
    image = np.arange(n)
    for i in range(m):
        rows[i, image] = base
        image = sigma[image]
    return rows[:, rng.permutation(n)]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_column_match_agrees_with_the_permutation_brute_force(m):
    rng = np.random.default_rng(40 + m)
    for n in range(1, 7):
        for family in ("circulant", "repeated", "dirichlet"):
            for _ in range(3):
                if family == "dirichlet":
                    rows = rng.dirichlet(np.ones(n), size=m)
                else:
                    base = rng.dirichlet(np.ones(n)) if family == "circulant" else rng.integers(1, 3, n) / 1.0
                    rows = _cyclic_rows(rng, m, n, base / base.sum())
                wit = detect_c_symmetry(Dmc(rows, tuple(str(y) for y in range(n))))
                want = brute_symmetry_generator(rows)
                assert (wit and wit.generator) == want, (family, rows)
                if family != "dirichlet" or m == 1 or n == 1:
                    assert want is not None


def test_symmetrize_postconditions():
    wa = detect_c_symmetry(bsc(0.1))
    wb = detect_c_symmetry(bec(0.5))
    rng = np.random.default_rng(21)
    for _ in range(25):
        k = int(rng.integers(1, 4))
        t = rng.gamma(1.0, 1.0, size=(k, 2))
        joint = t / t.sum()
        sym = symmetrize(joint, wa, wb)
        assert not sym.joint.flags.writeable
        marg = sym.joint.sum(axis=0)
        assert np.max(np.abs(marg - 0.5)) <= 1e-10
        for chan in (bsc(0.1), bec(0.5)):
            i_before = decomposition(joint).mi_aux(chan)
            i_after = decomposition(sym.joint).mi_aux(chan)
            assert i_after >= i_before - 1e-10
        # shift marginal is uniform over the input shifts
        assert np.allclose(sym.shift_marginal().probs, 0.5, atol=1e-12)


def test_symmetrize_rejects_foreign_witness():
    wa = detect_c_symmetry(bsc(0.1))
    wb = detect_c_symmetry(bec(0.5))
    t = np.full((1, 3), 1.0 / 3.0)
    with pytest.raises(DomainError):
        symmetrize(t, wa, wb)  # three-letter X against binary witnesses


def test_symmetrize_rejects_malformed_joint():
    wa = detect_c_symmetry(bsc(0.1))
    wb = detect_c_symmetry(bec(0.5))
    with pytest.raises(DomainError):
        symmetrize(np.array([0.5, 0.5]), wa, wb)  # not a (U, X) table
    with pytest.raises(DomainError):
        symmetrize(np.array([[0.5, 0.6], [0.2, 0.2]]), wa, wb)  # sums to 1.5
    with pytest.raises(DomainError):
        symmetrize(np.array([[0.7, -0.2], [0.3, 0.2]]), wa, wb)  # negative cell


def test_split_input_pair_shapes():
    y1, y2 = split_input_pair()
    assert y1.input_size == 4 and y2.input_size == 4
    assert y1.output_size == 2 and y2.output_size == 2
    # receiver 1 is clean on the first two letters, uninformative on the rest
    assert np.allclose(y1.rows[:2], np.eye(2), atol=1e-15)
    assert np.allclose(y1.rows[2:], 0.5, atol=1e-15)


def test_channel_roundtrip_through_file(tmp_path):
    path = tmp_path / "chan.json"
    save_channel(bec(0.35), str(path))
    loaded = load_channel(str(path))
    assert np.allclose(loaded.rows, bec(0.35).rows, atol=1e-15)
    assert loaded.output_labels == bec(0.35).output_labels


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"rows": [[0.9, 0.1], [0.1')
    with pytest.raises(ChannelFormatError):
        load_channel(str(path))


def test_load_rejects_nonstochastic_rows(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"input_size": 2, "rows": [[0.7, 0.7], [0.5, 0.5]], "output_labels": ["0", "1"]})
    )
    with pytest.raises((ChannelFormatError, DomainError)):
        load_channel(str(path))


def test_normalize_fixes_near_stochastic_rows(tmp_path):
    path = tmp_path / "near.json"
    path.write_text(
        json.dumps(
            {"input_size": 2, "rows": [[0.9000001, 0.1], [0.1, 0.9000001]], "output_labels": ["0", "1"]}
        )
    )
    loaded = load_channel(str(path), normalize=True)
    assert np.allclose(loaded.rows.sum(axis=1), 1.0, atol=1e-15)


def test_channel_dict_roundtrip():
    c = bsc(0.22)
    again = channel_from_dict(channel_to_dict(c))
    assert np.allclose(again.rows, c.rows, atol=1e-15)
