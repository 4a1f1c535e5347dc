import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bcorder.bscbec import BscBecPair, d_func
from bcorder.channels import Dmc, aux_mi_batch, bec, bsc, cascade, mi_batch, split_input_pair
from bcorder import classify as ordering, regions
from bcorder.classify import AuxDecomposition, Outcome, simplex_grid
from bcorder.probcore import CELL_FLOOR, REFINE_FLOOR, SIMPLEX_TOL, VERDICT_TOL, Dist, DomainError, binary_entropy, entropy_vec
from info_oracles import brute_conditional_mi, brute_mi, chain_table

# cheap, reproducible property runs: fixed example sequence, no example database
_PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def _aux_gap(dec, better, worse):
    """I(U;Y_worse) - I(U;Y_better) through the brute-force oracle."""
    return brute_mi(chain_table(dec, worse).sum(axis=1)) - brute_mi(chain_table(dec, better).sum(axis=1))


def _conditional_gap(dec, better, worse):
    """I(X;Y_worse|U) - I(X;Y_better|U) through the brute-force oracle."""
    return brute_conditional_mi(chain_table(dec, worse)) - brute_conditional_mi(chain_table(dec, better))


def _on_inputs(rows, m):
    """Binary-input channel rows (..., 2, n) on m inputs, input i repeating input i % 2.

    The gap of such a pair on m inputs is the binary gap at the total mass
    of the even and the odd inputs, so every ordering keeps its verdict, but
    from m = 3 on the tests search it on the grid route, with its face
    probes, curvature scan and refinement, where binary inputs take
    _BinaryPieces.
    """
    return rows[..., np.arange(m) % 2, :]


def _channel_on(chan, m=3):
    """A binary-input channel on m inputs (see _on_inputs)."""
    return Dmc(_on_inputs(chan.rows, m), chan.output_labels)


def _random_channel(rng, m, n, sparse):
    rows = rng.dirichlet(np.ones(n), size=m)
    if sparse:
        # the largest entry of a row is at least 1/n > 0.2, so no row empties
        rows = np.where(rows < 0.2, 0.0, rows)
    return Dmc.normalized(rows, tuple(str(i) for i in range(n)))


def test_simplex_grid_covers_simplex():
    g = simplex_grid(3, 0.25)
    assert np.allclose(g.sum(axis=1), 1.0, atol=1e-15)
    assert g.shape[0] == 15  # compositions of 4 into 3 parts
    assert (g >= 0).all()


@pytest.mark.parametrize("m", range(1, 7))
def test_simplex_grid_matches_brute_force_compositions(m):
    # every composition of K into m parts, in the lexicographic order of
    # itertools.product; K = 50 is enumerated that way only up to 4 parts
    for k in sorted({max(1, m - 1), m, 50}):
        got = simplex_grid(m, 1.0 / k)
        if k == 50 and m > 4:
            assert got.shape[0] == math.comb(k + m - 1, m - 1)
            assert np.all(got >= 0.0) and np.allclose(got.sum(axis=1), 1.0, atol=1e-15)
            # rows strictly increase in lexicographic order: distinct, and in order
            rise = np.diff(got, axis=0)
            lead = np.argmax(rise != 0.0, axis=1)
            assert np.all(rise[np.arange(rise.shape[0]), lead] > 0.0)
            continue
        heads = [h for h in itertools.product(range(k + 1), repeat=m - 1) if sum(h) <= k]
        want = np.array([[*h, k - sum(h)] for h in heads], dtype=float) / k
        assert np.array_equal(got, want)


def _sequential_refine(fn, x0, step0, maximize):
    """Reference coordinate descent: one fn call per pairwise move.

    Returns the point, its value and the number of sweeps taken.
    """
    sign = 1.0 if maximize else -1.0
    x = np.array(x0, dtype=float)
    best = fn(x[None, :])[0]
    step, sweeps = step0, 0
    while step > REFINE_FLOOR:
        sweeps += 1
        move_val = move_x = None
        for j in range(x.size):
            if x[j] < step - CELL_FLOOR:
                continue
            for i in range(x.size):
                if i != j:
                    y = x.copy()
                    y[i] += step
                    y[j] -= step
                    v = fn(y[None, :])[0]
                    if move_val is None or sign * (v - move_val) > 0:
                        move_val, move_x = v, y
        if move_val is not None and sign * (move_val - best) > CELL_FLOOR:
            best, x = move_val, move_x
        else:
            step *= 0.5
    return x, best, sweeps


def _final_step(step0):
    step = step0
    while step * 0.5 > REFINE_FLOOR:
        step *= 0.5
    return step


def _pair_gap(a, b):
    """The gap of one channel pair as the (laws -> values) map _sequential_refine takes."""
    return lambda q: ordering._gap_vec(a.rows, b.rows, q)


def _stacked_gap(a, b):
    """The gap of one channel pair as the (stack, starts) map _refine_extremum takes.

    Each law is evaluated on its own, as _sequential_refine evaluates it:
    BLAS rounds a product by its shape, and a value that differs in the
    last bit can turn a near tie on a flat extremum and change the sweeps.
    """
    one = _pair_gap(a, b)
    return lambda q, idx: np.array([[one(law[None, :])[0] for law in row] for row in q])


def _ascending(fn, maximize):
    """fn as _refine_extremum ascends it: itself, or 0.0 - fn to minimize."""
    return fn if maximize else (lambda q, idx: 0.0 - fn(q, idx))


def test_refine_extremum_covers_sweeps_in_fewer_calls():
    # fn evaluates each law on its own, as _sequential_refine does, so the
    # two see the same values and the sweep counts compare like with like
    a, b = bec(0.4), bsc(0.1)
    calls = []
    x0 = np.array([0.3, 0.7])
    for maximize in (False, True):
        fn = _ascending(_stacked_gap(a, b), maximize)

        def counted(q, idx):
            calls.append(q.shape)
            return fn(q, idx)

        calls.clear()
        *_, sweeps = ordering._refine_extremum(counted, x0[None], 0.02)
        *_, ref_sweeps = _sequential_refine(_pair_gap(a, b), x0, 0.02, maximize)
        assert calls[0] == (1, 1, 2)
        assert sweeps[0] == ref_sweeps
        # each call after the first covers one or more sweeps, as whole
        # blocks of both moves per rung, so once a start halves twice in a
        # row the calls number fewer than 1 + sweeps
        assert all(shape[0] == 1 and shape[1] % 2 == 0 for shape in calls[1:])
        assert sum(shape[1] // 2 for shape in calls[1:]) >= sweeps[0]
        assert len(calls) < 1 + sweeps[0]


def test_refine_extremum_breaks_ties_toward_first_move():
    # moving mass from input 2 to input 0 or to input 1 gains the same, so
    # each sweep must take the first of the tied moves (target 0)
    fn = lambda q: q[:, 0] + q[:, 1]  # noqa: E731
    x, v, _ = ordering._refine_extremum(lambda q, idx: q[..., 0] + q[..., 1], np.array([[0.0, 0.0, 1.0]]), 0.5)
    x_ref, v_ref, _ = _sequential_refine(fn, np.array([0.0, 0.0, 1.0]), 0.5, True)
    assert np.array_equal(x[0], [1.0, 0.0, 0.0]) and np.array_equal(x_ref, x[0])
    assert v[0] == v_ref == 1.0


@_PROPERTY
@given(
    m=st.integers(3, 4),
    n=st.integers(2, 4),
    sparse=st.booleans(),
    maximize=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_refine_extremum_agrees_with_sequential_reference(m, n, sparse, maximize, seed):
    rng = np.random.default_rng(seed)
    a = _random_channel(rng, m, n, sparse)
    b = _random_channel(rng, m, n, not sparse)
    grid = simplex_grid(m, 0.05)
    gaps = ordering._gap_vec(a.rows, b.rows, grid)
    x0 = grid[int(np.argmax(gaps) if maximize else np.argmin(gaps))]
    x, v, sweeps = ordering._refine_extremum(_ascending(_stacked_gap(a, b), maximize), x0[None], 0.05)
    x_ref, v_ref, ref_sweeps = _sequential_refine(_pair_gap(a, b), x0, 0.05, maximize)
    assert (v[0] if maximize else 0.0 - v[0]) == pytest.approx(v_ref, abs=1e-12)
    assert np.max(np.abs(x[0] - x_ref)) <= _final_step(0.05) * (1.0 + 1e-9)
    assert sweeps[0] == ref_sweeps
    # the search diagnostics count each pair's own sweeps, also inside a
    # stack where the other pair refines for longer or shorter; dominance of
    # a over b reads max g, and of b over a reads min g
    extremum = 1 if maximize else 0
    stacked = ordering._pair_search(np.stack([a.rows, b.rows]), np.stack([b.rows, a.rows]), 0.05).extrema()
    alone = [ordering._pair_search(p.rows[None], q.rows[None], 0.05).extrema() for p, q in ((a, b), (b, a))]
    for pair, lone in enumerate(alone):
        assert stacked.dominant(1 - extremum)[pair].diagnostics["refine_sweeps"] == lone.sweeps[extremum][0]


def _reference_refine(fn, x0, step0, maximize):
    """The lockstep refinement as it was before the gap searches were merged.

    One direction for all starts; it minimizes with argmin and +inf for
    infeasible moves, instead of ranking the moves by -f.
    """
    pick, worst = (np.ndarray.argmax, -np.inf) if maximize else (np.ndarray.argmin, np.inf)
    x = np.array(x0, dtype=float)
    count, m = x.shape
    best = fn(x[:, None, :], np.arange(count))[:, 0]
    sweeps = np.zeros(count, dtype=np.int64)
    if m == 1:
        step = step0
        while step > REFINE_FLOOR:
            step *= 0.5
            sweeps += 1
        return x, best, sweeps
    eye = np.eye(m)
    src, dst = np.nonzero(1.0 - eye)
    dirs = eye[dst] - eye[src]
    live = np.arange(count) if step0 > REFINE_FLOOR else np.arange(0)
    xl, bl, sl = x[live], best[live], np.full((live.size, 1), float(step0))
    lane = np.arange(live.size)
    sweep = 0
    while live.size:
        sweep += 1
        feasible = xl.take(src, 1) >= sl - CELL_FLOOR
        moves = xl[:, None, :] + (sl * feasible)[:, :, None] * dirs
        vals = np.where(feasible, fn(moves, live), worst)
        k = pick(vals, 1)
        top = vals[lane, k]
        gain = (top - bl if maximize else bl - top) > CELL_FLOOR
        col = gain[:, None]
        xl = np.where(col, moves[lane, k], xl)
        bl = np.where(gain, top, bl)
        sl = np.where(col, sl, sl * 0.5)
        if sl.min() <= REFINE_FLOOR:
            done = sl[:, 0] <= REFINE_FLOOR
            x[live[done]], best[live[done]], sweeps[live[done]] = xl[done], bl[done], sweep
            live, xl, bl, sl = live[~done], xl[~done], bl[~done], sl[~done]
            lane = np.arange(live.size)
    return x, best, sweeps


def _reference_gap_extremum(a, b, step, maximize, probes=None):
    """One extremum of g(a, b) per pair, as each test searched it on its own.

    Returns the points, values and sweeps, and which pairs' start is a probe.
    """
    m = a.shape[1]
    eff = ordering._bounded_step(m, step, ordering._POINT_GRID_CAP)
    grid = simplex_grid(m, eff)
    gaps = ordering._gap_vec(a, b, grid)
    pick = gaps.argmax(axis=1) if maximize else gaps.argmin(axis=1)
    x0 = grid[pick]
    won = np.zeros(a.shape[0], dtype=bool)
    if probes is not None and probes[1].size:
        pts, owner = probes
        vals = ordering._gap_vec(a[owner], b[owner], pts).ravel()
        probe_owner = np.repeat(owner, pts.shape[1])
        for pair in np.unique(owner):
            # the pair's first extreme probe, chord by chord and halving by halving
            mine = np.flatnonzero(probe_owner == pair)
            first = mine[vals[mine].argmax() if maximize else vals[mine].argmin()]
            at_grid = gaps[pair, pick[pair]]
            if vals[first] > at_grid if maximize else vals[first] < at_grid:
                x0[pair] = pts.reshape(-1, m)[first]
                won[pair] = True
    ha, hb = ordering.entropy_vec(a, axis=-1), ordering.entropy_vec(b, axis=-1)
    x, v, sweeps = _reference_refine(
        lambda q, idx: ordering.mi_from_entropies(a.take(idx, 0), ha.take(idx, 0), q)
        - ordering.mi_from_entropies(b.take(idx, 0), hb.take(idx, 0), q),
        x0,
        eff,
        maximize,
    )
    return x, v, sweeps, won


def _reference_face_chords(a, b, t_max):
    """The face scan of the one direction (a, b), the reference for both sides of ordering._face_chords.

    Returns the (C, _HALVINGS + 1, m) chord starts, the uniform laws on the
    faces, and ends x + t (e_i - x) for t halved down from t_max, each
    chord's pair, and the (P,) flags of the pairs whose scan the face cap cut.
    """
    m = a.shape[1]
    # a positive pull needs an output that some face misses through b
    open_pairs = (b <= CELL_FLOOR).any(axis=(1, 2))
    faces, budget = [], ordering._FACE_PAIR_CAP
    sizes = range(1, m) if open_pairs.any() else ()
    for support in itertools.chain.from_iterable(itertools.combinations(range(m), k) for k in sizes):
        budget -= m - len(support)
        if budget < 0:
            break
        faces.append([i in support for i in range(m)])
    capped = open_pairs & (budget < 0)
    on = np.array(faces, dtype=bool).reshape(-1, m)
    unseen_a = ~((a > CELL_FLOOR)[:, None] & on[:, :, None]).any(axis=2)
    unseen_b = ~((b > CELL_FLOOR)[:, None] & on[:, :, None]).any(axis=2)
    pull = (b[:, None] * unseen_b[:, :, None, :]).sum(axis=3) - (a[:, None] * unseen_a[:, :, None, :]).sum(axis=3)
    owner, face, target = ((pull > CELL_FLOOR) & ~on & open_pairs[:, None, None]).nonzero()
    base = (on / on.sum(axis=1, keepdims=True))[face][:, None, :]
    dirs = np.eye(m)[target][:, None, :] - base
    ts = (t_max * 0.5 ** np.arange(ordering._HALVINGS + 1))[None, :, None]
    ends = base + ts * dirs
    return np.broadcast_to(base, ends.shape), ends, owner, capped


def _assert_gap_search_is_four_searches(a, b, step):
    """Each of the four readings of the extrema of _pair_search equals its test's own search, bit for bit.

    More capable of a over b is min g(a, b) from the probes of (a, b), and
    of b over a min g(b, a) from those of (b, a); dominance of a over b is
    max g(a, b) from the probes of (b, a), and of b over a max g(b, a) from
    those of (a, b).  The first and third are the two extrema the search
    stores, min g and max g.  Points and values are compared as bytes, so a
    -0.0 for +0.0 fails.  Returns which pairs' more-capable start was a
    winning probe, per direction.
    """
    found = ordering._pair_search(a, b, step).extrema()
    probes = [_reference_face_chords(first, second, step)[1:3] for first, second in ((a, b), (b, a))]
    uniform = np.full((1, a.shape[1]), 1.0 / a.shape[1])
    won = []
    for side, (first, second) in enumerate(((a, b), (b, a))):
        want_uniform = ordering._gap_vec(first, second, uniform)[:, 0]
        for reading, maximize in ((found.capable, False), (found.dominant, True)):
            # a direction's minimum starts from its own probes, its maximum from the other's
            probe_side = side if not maximize else 1 - side
            x, v, sweeps, probe_won = _reference_gap_extremum(first, second, step, maximize, probes[probe_side])
            if not maximize:
                won.append(probe_won)
            if side == 0:
                assert found.points[int(maximize)].tobytes() == x.tobytes()
                assert found.values[int(maximize)].tobytes() == v.tobytes()
                assert np.array_equal(found.sweeps[int(maximize)], sweeps)
            key = "max" if maximize else "min"
            for p, verdict in enumerate(reading(side)):
                d = verdict.diagnostics
                assert np.array(d[f"arg{key}"]).tobytes() == x[p].tobytes()
                assert np.float64(d[f"{key}_gap"]).tobytes() == v[p].tobytes()
                assert d["refine_sweeps"] == sweeps[p]
                if maximize:
                    assert np.float64(d["uniform_gap"]).tobytes() == want_uniform[p].tobytes()
    assert found.uniform.tobytes() == ordering._gap_vec(a, b, uniform)[:, 0].tobytes()
    return won


def _gap_stack(rng, family, m, count):
    """(P, m, na) and (P, m, nb) row stacks of one family of channel pairs, m >= 3."""
    if family == "bscbec":
        a = np.stack([_on_inputs(bsc(p).rows, m) for p in rng.uniform(0.01, 0.49, count)])
        b = np.stack([_on_inputs(bec(e).rows, m) for e in rng.uniform(0.01, 0.99, count)])
        return (a, b) if rng.random() < 0.5 else (b, a)
    na, nb = (int(k) for k in rng.integers(2, 5, size=2))
    rows_a, rows_b = [], []
    for _ in range(count):
        a = _random_channel(rng, m, na, sparse=bool(rng.integers(2)))
        kind = int(rng.integers(3))
        if kind == 0:  # a degraded version of a: a is more capable
            b = cascade(a, _random_channel(rng, na, nb, sparse=True))
        elif kind == 1 and na == nb:  # the same channel: g is +0.0 everywhere
            b = a
        else:
            b = _random_channel(rng, m, nb, sparse=bool(rng.integers(2)))
        rows_a.append(a.rows)
        rows_b.append(b.rows)
    return np.stack(rows_a), np.stack(rows_b)


@_PROPERTY
@given(
    family=st.sampled_from(["bscbec", "random"]),
    m=st.integers(3, 5),
    count=st.integers(1, 4),
    step=st.sampled_from([1.0, 0.5, 1.0 / 3.0, 0.1, 0.05, 0.02]),
    seed=st.integers(0, 2**32 - 1),
)
def test_gap_search_equals_four_independent_searches_bitwise(family, m, count, step, seed):
    # BSC/BEC pairs at step 1 start every search at a vertex, where g is +0.0
    # and argmin and argmax coincide; the stacks mix pairs whose probes win
    # with pairs whose probes lose or that have none
    rng = np.random.default_rng(seed)
    a, b = _gap_stack(rng, family, m, count)
    _assert_gap_search_is_four_searches(a, b, step)


@pytest.mark.parametrize("step", [1.0, 0.5, 0.02])
def test_gap_search_equals_four_searches_where_probes_win_and_lose(step):
    # BSC(p)/BEC(e) on three inputs near the dip of
    # test_more_capable_face_probes_find_the_dip and well away from it, in
    # both orders, with a repeated pair and a = b
    rates = [(0.143641, 0.925798), (0.1, 0.5), (0.132669, 0.919705), (0.1, 0.5), (0.3, 0.2)]
    a = np.stack([_on_inputs(bsc(p).rows, 3) for p, _ in rates])
    b = np.stack([_on_inputs(bec(e).rows, 3) for _, e in rates])
    won_ab, won_ba = _assert_gap_search_is_four_searches(a, b, step)
    won_ba2, won_ab2 = _assert_gap_search_is_four_searches(b, a, step)
    assert np.array_equal(won_ab, won_ab2) and np.array_equal(won_ba, won_ba2)
    if step == 0.02:
        assert won_ab[0] and won_ab[2] and not won_ab[1:].all()
    _assert_gap_search_is_four_searches(a[:1], a[:1], step)


@pytest.mark.parametrize("p, e", [(0.295631, 0.979533), (0.143641, 0.925798)])
def test_dominance_refines_from_a_winning_probe(p, e):
    # min g of BSC(p) over BEC(e), on three inputs, dips just inside a
    # vertex, where only the face probe of (a, b) finds it; dominance of BEC
    # over BSC is max g(b, a) = 0.0 - min g, so it reads the same refined
    # point, not a grid vertex
    a, b = _channel_on(bsc(p)), _channel_on(bec(e))
    found = ordering._pair_search(a.rows[None], b.rows[None], 0.02).extrema()
    [dom], [cap] = found.dominant(1), found.capable(0)
    assert dom.diagnostics["argmax"] == cap.diagnostics["argmin"]
    assert dom.diagnostics["max_gap"] == 0.0 - cap.diagnostics["min_gap"] > 0.0
    # classify reads dominance only on c-symmetric channels, which the
    # three-input ones are not; on two inputs it reads one extremum too
    res = ordering.ordering_verdicts(bsc(p), bec(e))
    assert res["essentially_less_noisy_2"].diagnostics["argmax"] == res["more_capable_1"].diagnostics["argmin"]
    assert res["essentially_less_noisy_2"].diagnostics["max_gap"] == 0.0 - res["more_capable_1"].diagnostics["min_gap"]


@pytest.mark.parametrize("module", ["cli", "verifysuite"])
def test_gap_search_layout_stays_inside_classify(module):
    # other modules read the gap search only through its named readings,
    # never an extremum index or a private per-test wrapper
    import ast
    import importlib
    import inspect
    import re

    tree = ast.parse(inspect.getsource(importlib.import_module(f"bcorder.{module}")))
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    leaked = sorted(n for n in names if re.fullmatch(r"_(CAPABLE|DOMINANT)_\w*|_dominant", n))
    assert leaked == []
    # and the only private name either imports from classify is verifysuite's one gap search
    private = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "classify"
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert private == ({"_pair_search"} if module == "verifysuite" else set())


@_PROPERTY
@given(
    m=st.integers(1, 5),
    na=st.integers(1, 4),
    nb=st.integers(1, 4),
    count=st.integers(1, 4),
    cap=st.sampled_from([1, 3, 7, None]),
    t_max=st.sampled_from([1.0, 0.02]),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_face_scan_is_the_scans_of_both_directions(m, na, nb, count, cap, t_max, seed):
    # side 0 of one scan of (a, b) is the scan of (a, b) alone and side 1 the
    # scan of (b, a): chords, owners and cap flags, bit for bit, with zero
    # cells on either side and face caps that cut the scan early
    rng = np.random.default_rng(seed)
    a = np.stack([_random_channel(rng, m, na, sparse=bool(rng.integers(2))).rows for _ in range(count)])
    b = np.stack([_random_channel(rng, m, nb, sparse=bool(rng.integers(2))).rows for _ in range(count)])
    with mock.patch.object(ordering, "_FACE_PAIR_CAP", cap or ordering._FACE_PAIR_CAP):
        base, dirs, owner, capped = ordering._face_chords(a, b)
        want = [_reference_face_chords(first, second, t_max) for first, second in ((a, b), (b, a))]
    ends = base + (t_max * 0.5 ** np.arange(ordering._HALVINGS + 1))[:, None] * dirs
    assert np.array_equal(owner, np.sort(owner))
    for side, (starts_w, ends_w, owner_w, capped_w) in enumerate(want):
        on = owner // count == side
        assert np.array_equal(owner[on] - side * count, owner_w)
        assert np.broadcast_to(base[on], ends_w.shape).tobytes() == starts_w.tobytes()
        assert ends[on].tobytes() == ends_w.tobytes()
        assert capped[side].tobytes() == capped_w.tobytes()


def test_ordering_verdicts_scans_the_faces_once_per_search(monkeypatch):
    # one scan gives the face chords of both directions, and one search
    # serves both the less-noisy pass and the extrema
    calls = []
    scan = ordering._face_chords

    def counted(a, b):
        calls.append((a.tobytes(), b.tobytes()))
        return scan(a, b)

    monkeypatch.setattr(ordering, "_face_chords", counted)
    a, b = _channel_on(bsc(0.1)), _channel_on(bec(0.5))
    ordering.ordering_verdicts(a, b)
    assert calls == [(a.rows.tobytes(), b.rows.tobytes())]


def _negative_zeros(*arrays):
    """How many entries of the arrays are -0.0."""
    return sum(int(np.count_nonzero((np.asarray(x) == 0.0) & np.signbit(x))) for x in arrays)


@_PROPERTY
@given(
    m=st.integers(2, 4),
    n=st.integers(2, 4),
    step=st.sampled_from([1.0, 0.5, 0.02]),
    seed=st.integers(0, 2**32 - 1),
)
def test_no_information_quantity_is_negative_zero(m, n, step, seed):
    # a one-hot row or law has zero entropy, and a noiseless row has zero
    # information at its vertex: each zero must be +0.0, so that g(b, a) is
    # 0.0 - g(a, b) bit for bit and a JSON output never prints -0.0
    rng = np.random.default_rng(seed)
    hot = np.eye(n)[rng.integers(n, size=m)]
    noiseless = np.where(rng.random((m, 1)) < 0.5, hot, _random_channel(rng, m, n, sparse=True).rows)
    noisy = _random_channel(rng, m, n, sparse=bool(rng.integers(2))).rows
    laws = np.concatenate([np.eye(m), simplex_grid(m, 0.25)])
    assert _negative_zeros(entropy_vec(hot), entropy_vec(laws)) == 0
    assert _negative_zeros(binary_entropy(np.array([0.0, 1.0, 0.5])), binary_entropy(0.0), binary_entropy(1.0)) == 0
    assert _negative_zeros(mi_batch(noiseless, laws), mi_batch(hot, laws)) == 0
    conds = np.eye(m)[rng.integers(m, size=(laws.shape[0], 2))]
    weights = np.where(rng.random((laws.shape[0], 1)) < 0.5, [1.0, 0.0], [0.5, 0.5])
    assert _negative_zeros(aux_mi_batch(noiseless, weights, conds), aux_mi_batch(hot, weights, conds)) == 0
    pair = BscBecPair(float(rng.choice([0.0, 0.1, 0.5])), float(rng.choice([0.0, 0.5, 1.0])))
    assert _negative_zeros(d_func(pair, np.array([0.0, 0.5, 1.0])), d_func(pair, 0.0), d_func(pair, 1.0)) == 0
    for a, b in ((noiseless, noisy), (noisy, noiseless), (noiseless, noiseless)):
        found = ordering._pair_search(a[None], b[None], step).extrema()
        assert _negative_zeros(found.values, found.uniform) == 0


@pytest.mark.parametrize("p, e, m", [(0.0, 0.0, 2), (0.5, 1.0, 2), (0.1, 0.5, 3)])
def test_no_degradedness_diagnostic_is_negative_zero(p, e, m):
    # a zero LP optimum (both binary pairs, both ways) and the dual test of a
    # pair with input 0 repeated round to -0.0 unless the LP maps them to
    # +0.0, and a JSON output would print -0.0
    a, b = _channel_on(bsc(p), m), _channel_on(bec(e), m)
    for key in ("degraded_2_wrt_1", "degraded_1_wrt_2"):
        d = ordering.ordering_verdicts(a, b)[key].diagnostics
        numbers = [v for v in d.values() if isinstance(v, float)]
        assert _negative_zeros(numbers, d.get("dual_test", [])) == 0


def _circulant(rng, m, sparse):
    """A c-symmetric channel: row i is a random law on m outputs shifted by i."""
    law = rng.dirichlet(np.ones(m))
    if sparse:
        law = np.where(law < 0.2, 0.0, law)
    return Dmc.normalized(np.array([np.roll(law, i) for i in range(m)]), tuple(str(i) for i in range(m)))


def _assert_close_diagnostics(got, want):
    assert list(got) == list(want)
    for key, value in want.items():
        if value is None or isinstance(value, str):
            assert got[key] == value
        else:
            np.testing.assert_allclose(np.asarray(got[key], float), np.asarray(value, float), rtol=0, atol=1e-12)


def _witness_arrays(verdict):
    w = verdict.witness
    if w is None:
        return []
    if isinstance(w, AuxDecomposition):
        return [w.pu.probs, w.px_given_u]
    if isinstance(w, Dmc):
        return [w.rows]
    return [w.probs]



def test_class_member_face_is_the_same_in_the_envelope_lp_and_the_theorem_sweep():
    # a 1e-13 entry lies above CELL_FLOOR, so that letter is on the member's
    # face in both modules: the LP's face grid and the theorem sweep's
    # |U| = |supp| batch, which puts one atom on each face letter
    member = Dist(np.array([0.5, 0.5 - 1e-13, 1e-13]))
    rng = np.random.default_rng(11)
    a, b = _random_channel(rng, 3, 3, False), _random_channel(rng, 3, 3, False)
    verdict = ordering.test_essentially_more_capable(a, b, [member], step=0.1)
    batches, _, _ = regions._constrained_batches(member, 3, 0.1)
    cond_idx, table = batches[1].cond_idx, batches[1].table
    face = cond_idx.shape[1]
    assert face == 3
    assert np.array_equal(table[cond_idx[0]], np.eye(3))
    assert verdict.diagnostics["grid_points"] == simplex_grid(face, 0.1).shape[0] + 1

@_PROPERTY
@given(
    m=st.integers(2, 4),
    na=st.integers(2, 4),
    nb=st.integers(2, 4),
    count=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_tests_equal_scalar_calls(m, na, nb, count, seed):
    # a stack mixes cascades (every ordering holds) with unrelated pairs
    # (most fail), dense rows with rows that have zero cells, so face chords
    # and probes differ in number from pair to pair
    rng = np.random.default_rng(seed)
    pairs = []
    for k in range(count):
        a = _random_channel(rng, m, na, sparse=k % 2 == 0)
        if k % 3 == 0:
            b = cascade(a, _random_channel(rng, na, nb, sparse=True))
        else:
            b = _random_channel(rng, m, nb, sparse=k % 2 == 1)
        pairs.append((a, b))
    rows_a = np.stack([a.rows for a, _ in pairs])
    rows_b = np.stack([b.rows for _, b in pairs])
    for stacked, scalar in (
        (ordering.less_noisy_stack, ordering.test_less_noisy),
        (ordering.more_capable_stack, ordering.test_more_capable),
    ):
        for (a, b), got in zip(pairs, stacked(rows_a, rows_b)):
            want = scalar(a, b)
            assert got.outcome is want.outcome
            _assert_close_diagnostics(got.diagnostics, want.diagnostics)
            assert all(map(np.array_equal, _witness_arrays(got), _witness_arrays(want)))
    circ = [(_circulant(rng, m, k % 2 == 0), _circulant(rng, m, k % 3 == 0)) for k in range(count)]
    got_dom = ordering.dominant_c_symmetry_stack(
        np.stack([a.rows for a, _ in circ]), np.stack([b.rows for _, b in circ])
    )
    for (a, b), got in zip(circ, got_dom):
        want = ordering.test_dominant_c_symmetry(a, b)
        assert got.outcome is want.outcome
        _assert_close_diagnostics(got.diagnostics, want.diagnostics)
        assert all(map(np.array_equal, _witness_arrays(got), _witness_arrays(want)))
    # each lane of the lockstep simplex pivots on its own pair only, so a
    # stacked degradedness verdict carries the one-pair call's witness W
    for (a, b), got in zip(pairs, ordering.degraded_stack(rows_a, rows_b)):
        want = ordering.test_degraded(a, b)
        assert got.outcome is want.outcome
        _assert_close_diagnostics(got.diagnostics, want.diagnostics)
        assert all(map(np.array_equal, _witness_arrays(got), _witness_arrays(want)))


def test_stacks_over_the_block_budget_equal_separate_calls(monkeypatch):
    # a budget below one pair's grid scores the gap grid pair by pair, runs
    # each refinement call start by start and scans the curvature a few
    # points at a time; every verdict stays that of the pair's own call
    rng = np.random.default_rng(19)
    pairs = []
    for k in range(4):
        a = _random_channel(rng, 3, 3, sparse=k % 2 == 0)
        b = cascade(a, _random_channel(rng, 3, 2, sparse=True)) if k == 0 else _random_channel(rng, 3, 2, k == 3)
        pairs.append((a, b))
    rows_a = np.stack([a.rows for a, _ in pairs])
    rows_b = np.stack([b.rows for _, b in pairs])
    alone = [ordering._pair_search(a.rows[None], b.rows[None], 0.02).extrema() for a, b in pairs]
    want_less_noisy = [ordering.test_less_noisy(a, b) for a, b in pairs]
    with monkeypatch.context() as mp:
        mp.setattr(ordering, "_HESSIAN_BLOCK", 64)
        mp.setattr(ordering, "_SCAN_BLOCK", 64)
        stacked = ordering._pair_search(rows_a, rows_b, 0.02).extrema()
        got_less_noisy = ordering.less_noisy_stack(rows_a, rows_b)
    assert stacked.head["grid_points"] > 64
    for p, lone in enumerate(alone):
        assert stacked.points[:, p].tobytes() == lone.points[:, 0].tobytes()
        assert stacked.values[:, p].tobytes() == lone.values[:, 0].tobytes()
        assert np.array_equal(stacked.sweeps[:, p], lone.sweeps[:, 0])
        for reading, side in itertools.product(("capable", "dominant"), (0, 1)):
            got, want = getattr(stacked, reading)(side)[p], getattr(lone, reading)(side)[0]
            assert got.outcome is want.outcome and got.diagnostics == want.diagnostics
    for got, want in zip(got_less_noisy, want_less_noisy):
        assert got.outcome is want.outcome
        _assert_close_diagnostics(got.diagnostics, want.diagnostics)
    assert {v.outcome for v in got_less_noisy} == {Outcome.HOLDS, Outcome.FAILS}


@_PROPERTY
@given(
    m=st.integers(2, 4),
    na=st.integers(2, 4),
    nb=st.integers(2, 4),
    zeros=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_both_less_noisy_directions_equal_one_direction_calls(m, na, nb, zeros, seed):
    # ordering_verdicts takes both directions from one pass; each must be
    # the one-direction verdict bit for bit: outcome, witness, diagnostics
    rng = np.random.default_rng(seed)
    a = _random_channel(rng, m, na, sparse=zeros)
    if na != nb and rng.random() < 0.5:
        b = cascade(a, _random_channel(rng, na, nb, sparse=zeros))
    else:
        b = _random_channel(rng, m, nb, sparse=not zeros)
    res = ordering.ordering_verdicts(a, b, step=0.05)
    for key, (first, second) in (("less_noisy_1", (a, b)), ("less_noisy_2", (b, a))):
        got, want = res[key], ordering.test_less_noisy(first, second, step=0.05)
        assert got.outcome is want.outcome
        assert got.diagnostics == want.diagnostics
        assert [w.tobytes() for w in _witness_arrays(got)] == [w.tobytes() for w in _witness_arrays(want)]


def test_stacked_tests_validate_their_rows():
    with pytest.raises(DomainError):
        ordering.less_noisy_stack(np.ones((2, 2, 2)), np.full((2, 2, 2), 0.5))
    with pytest.raises(DomainError):
        ordering.degraded_stack(np.full((2, 3, 2), 0.5), np.full((2, 2, 2), 0.5))
    with pytest.raises(ordering.NotCSymmetricError, match="second channel of pair 1"):
        skew = np.array([[0.9, 0.1], [0.3, 0.7]])
        ordering.dominant_c_symmetry_stack(np.stack([bsc(0.1).rows] * 2), np.stack([bsc(0.2).rows, skew]))
    for stacked in (
        ordering.degraded_stack,
        ordering.less_noisy_stack,
        ordering.more_capable_stack,
        ordering.dominant_c_symmetry_stack,
    ):
        for m in (2, 4):
            assert stacked(np.zeros((0, m, 3)), np.zeros((0, m, 2))) == []


def test_degraded_holds_are_the_stacked_outcomes(monkeypatch):
    # the outcomes alone, decided by the same rule as the verdicts: on
    # binary inputs from the Blackwell margins without any LP, on three
    # inputs by the LPs, in blocks of _LP_LANES pairs
    rng = np.random.default_rng(23)
    for m in (2, 3):
        pairs = []
        for k in range(7):
            a = _random_channel(rng, m, 3, sparse=k % 2 == 0)
            # a cascade of a holds; a noiseless b fails unless a is noiseless too
            b = cascade(a, _random_channel(rng, 3, 2, sparse=k % 3 == 0)) if k % 2 else Dmc(np.eye(2)[np.arange(m) % 2], ("0", "1"))
            pairs.append((a, b))
        rows_a, rows_b = np.stack([a.rows for a, _ in pairs]), np.stack([b.rows for _, b in pairs])
        want = [v.holds for v in ordering.degraded_stack(rows_a, rows_b)]
        assert set(want) == {True, False}
        with monkeypatch.context() as mp:
            mp.setattr(ordering, "_LP_LANES", 3)
            if m == 2:
                mp.setattr(ordering, "_degradedness_lp", mock.Mock(side_effect=AssertionError("binary LP")))
            got = ordering.degraded_holds(rows_a, rows_b)
        assert got.dtype == bool and got.tolist() == want
    assert ordering.degraded_holds(np.zeros((0, 2, 3)), np.zeros((0, 2, 2))).shape == (0,)
    with pytest.raises(DomainError):
        ordering.degraded_holds(np.full((2, 3, 2), 0.5), np.full((2, 2, 2), 0.5))


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
    # BSC(0.1) is degraded w.r.t. BEC(e) iff e <= 0.2; at the prior (1/2, 1/2)
    # the best tests succeed with 1 - e/2 and 1 - p, so the margin is p - e/2
    verdict = ordering.test_degraded(bec(0.25), bsc(0.1))
    assert verdict.outcome is Outcome.FAILS
    d = verdict.diagnostics
    assert d["resolution"] == "exact" and d["lambda"] == 0.5
    assert d["margin"] == d["phi_a"] - d["phi_b"] == pytest.approx(0.1 - 0.125, abs=1e-15)
    assert np.array_equal(verdict.witness.probs, [0.5, 0.5])
    assert "residual" not in d  # a binary Fails runs no LP


def test_degraded_worst_cell_is_the_first_of_tied_residuals():
    # on the 3-input lifts, which the LP decides, cells (0,0), (0,2), (1,0),
    # (1,2), (2,0) and (2,2) all read 0.0475 up to rounding
    verdict = ordering.test_degraded(_channel_on(bsc(0.05)), _channel_on(bec(0.05)))
    assert verdict.diagnostics["worst_cell"] == [0, 0]
    lifts = [(_channel_on(a), _channel_on(b)) for a, b in ((bsc(0.05), bec(0.05)), (bec(0.25), bsc(0.1)), (bsc(0.2), bec(0.3)))]
    # and a binary Holds, whose W comes from the same LP
    for a, b in lifts + [(bec(0.15), bsc(0.1))]:
        verdict = ordering.test_degraded(a, b)
        d = verdict.diagnostics
        table = np.abs(a.rows @ verdict.witness.rows - b.rows).ravel()
        first = int(np.flatnonzero(table >= d["residual"] - SIMPLEX_TOL)[0])
        assert d["residual"] == table.max()
        assert d["worst_cell"] == list(divmod(first, b.rows.shape[1]))


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
    assert _aux_gap(dec, bec(0.4), bsc(0.1)) > VERDICT_TOL / 2


@pytest.mark.parametrize("p, e", [(0.1, 0.995), (0.3, 0.999)])
def test_less_noisy_face_pull_fails_near_erasure_one(p, e):
    # every BEC with e < 1 reveals the input exactly with probability 1 - e,
    # so the gap bends without bound next to each vertex; the violation is
    # far inside the first grid cell, where on three inputs only the face
    # term finds it, and on two the exact pieces
    for m in (2, 3):
        a, b = _channel_on(bsc(p), m), _channel_on(bec(e), m)
        verdict = ordering.test_less_noisy(a, b)
        assert verdict.fails
        assert _aux_gap(verdict.witness, a, b) > VERDICT_TOL / 2


def test_less_noisy_checks_curvature_without_interior_grid_points():
    # at step 1/3 the 4-input grid has fewer parts than inputs, so no grid
    # point is interior; the Hessian must still be taken, on the grid pulled
    # toward the uniform law.  The pair is dense, so no face term helps: each
    # channel reads a different bit of a two-bit input through BSC(0.1).
    high = Dmc.normalized(np.array([[0.9, 0.1], [0.9, 0.1], [0.1, 0.9], [0.1, 0.9]]), ("0", "1"))
    low = Dmc.normalized(np.array([[0.9, 0.1], [0.1, 0.9], [0.9, 0.1], [0.1, 0.9]]), ("0", "1"))
    for a, b in ((high, low), (low, high)):
        verdict = ordering.test_less_noisy(a, b, step=1.0 / 3)
        assert verdict.fails
        assert verdict.diagnostics["max_curvature"] > 0.0
        assert _aux_gap(verdict.witness, a, b) > VERDICT_TOL / 2


def test_face_scan_is_bounded_on_twelve_inputs():
    # an erasure-like channel leaves an output unseen by every face, so each
    # of the 12 * 2^11 (face, input) pairs pulls against a dense channel;
    # only the first _FACE_PAIR_CAP are examined, and the verdict says so
    m = 12
    labels = tuple(str(o) for o in range(m + 1))
    erasure = Dmc.normalized(np.hstack([0.5 * np.eye(m), np.full((m, 1), 0.5)]), labels)
    dense = Dmc.normalized(np.ones((m, m + 1)), labels)
    tracemalloc.start()
    try:
        verdict = ordering.test_less_noisy(dense, erasure)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.fails
    assert verdict.diagnostics["face_pair_cap"] == ordering._FACE_PAIR_CAP
    assert peak < 100 * 2**20
    # the dense channel has no zero cell, so only the dense-over-erasure direction pulls and is cut
    base, _, _, capped = ordering._face_chords(dense.rows[None], erasure.rows[None])
    assert capped[:, 0].tolist() == [True, False]
    assert base.shape[0] <= ordering._FACE_PAIR_CAP


def test_curvature_scan_is_bounded_on_sixteen_inputs():
    # the 16-input grid coarsens to 54,264 points with no interior point, so
    # all of them take a 15 x 15 Hessian built from 17 outputs; the scan runs
    # in blocks, and the whole test stays well under what one block per grid
    # would take (about 315 MB)
    m = 16
    labels = tuple(str(o) for o in range(m + 1))
    erasure = Dmc.normalized(np.hstack([0.5 * np.eye(m), np.full((m, 1), 0.5)]), labels)
    dense = Dmc.normalized(np.random.default_rng(0).dirichlet(np.ones(m + 1), size=m), labels)
    tracemalloc.start()
    try:
        verdict = ordering.test_less_noisy(dense, erasure)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.fails
    assert verdict.diagnostics["grid_points"] == 54_264
    assert verdict.diagnostics["max_curvature"] > 0.0
    assert peak < 100 * 2**20


def test_chord_scoring_is_bounded_by_the_block(monkeypatch):
    # each BSC/BEC pair on three inputs has five face chords of 41 probes, and
    # each of its less-noisy chords two ends per probe; at a small block both
    # are scored in runs of chords, so the peaks stay well under those of
    # scoring every chord at once (about 35 MB and 43 MB here)
    rng = np.random.default_rng(5)
    a = np.stack([_on_inputs(bsc(p).rows, 3) for p in rng.uniform(0.02, 0.48, 300)])
    b = np.stack([_on_inputs(bec(e).rows, 3) for e in rng.uniform(0.05, 0.95, 300)])
    monkeypatch.setattr(ordering, "_HESSIAN_BLOCK", 1 << 14)
    peaks = []
    for search in (lambda: ordering._pair_search(a, b, 0.02).extrema(), lambda: ordering.less_noisy_stack(a, b)):
        tracemalloc.start()
        try:
            search()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 6 * 2**20
    assert peaks[1] < 6 * 2**20


def test_refinement_memory_is_bounded_by_the_block(monkeypatch):
    # 2,000 ternary starts ask for all 22 rungs of step 1/4 at once: 792
    # move laws each, about 13 MB of moves, values and masks in one block.
    # Each run of starts builds its own moves, so the peak stays a few
    # blocks, whatever the stack, and the points do not depend on the runs
    x0 = np.full((2000, 3), 1.0 / 3.0)
    w = np.array([0.0, 0.25, 1.0])
    want = ordering._refine_extremum(lambda q, idx: q @ w, x0, 0.25)
    monkeypatch.setattr(ordering, "_HESSIAN_BLOCK", 1 << 16)
    tracemalloc.start()
    try:
        got = ordering._refine_extremum(lambda q, idx: q @ w, x0, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 8 * ordering._HESSIAN_BLOCK  # 4 MB
    for g, v in zip(got, want):
        np.testing.assert_array_equal(g, v)
    assert got[2].tolist() == [44] * 2000
    assert got[0][0, 2] > 1.0 - 2 * REFINE_FLOOR


def _full_curvature_scan(a, b, pts):
    """The full curvature scan: every point's tangent-space Hessian, pair by pair.

    Returns the (P, N, m-1, m-1) Hessians H_b - H_a, built without the
    outputs that no input reaches, and the (P, N) traces tr H_b + tr H_a.
    """
    m = a.shape[1]
    q_basis = np.linalg.svd(np.ones((m, 1)))[0][:, 1:]
    hessians, traces = [], []
    for rows_a, rows_b in zip(a, b):
        hess, trace = 0.0, 0.0
        for rows, sign in ((rows_b, 1.0), (rows_a, -1.0)):
            rows = rows[:, rows.max(axis=0) > CELL_FLOOR]
            proj = q_basis.T @ rows
            term = (proj[None] / (pts @ rows)[:, None, :]) @ proj.T / math.log(2.0)
            hess, trace = hess + sign * term, trace + np.trace(term, axis1=1, axis2=2)
        hessians.append(hess)
        traces.append(trace)
    return np.stack(hessians), np.stack(traces)


def _curvature_pair(rng, kind, m, n):
    """Rows of a pair for the curvature scan: kinds differ in how the top eigenvalue ties."""
    if kind == "circulant":  # c-symmetric: a repeated top eigenvalue at the uniform law
        law_a, law_b = rng.dirichlet(np.ones(n), size=2)
        return np.array([np.roll(law_a, i) for i in range(m)]), np.array([np.roll(law_b, i) for i in range(m)])
    if kind == "erasure":  # BEC(0) or BEC(1): reaches every output but the last, or only it
        rows = np.eye(m, n) if rng.random() < 0.5 else np.tile(np.eye(n)[-1], (m, 1))
        pair = (rows, rng.dirichlet(np.ones(n), size=m))
        return pair if rng.random() < 0.5 else pair[::-1]
    a = rng.dirichlet(np.ones(n), size=m)
    if kind == "sparse":  # an output no input reaches
        a[:, -1] = 0.0
    if kind == "equal":  # the Hessian is exactly 0 everywhere: every point ties
        return a, a.copy()
    if kind == "near":  # the Hessian is nearly 0, so rounding is as large as the values
        b = a + 1e-7 * rng.random(a.shape) * (a > 0.0)
        return a, b
    if kind == "cascade":
        return a, a @ rng.dirichlet(np.ones(n), size=n)
    return a, rng.dirichlet(np.ones(n), size=m)


@settings(_PROPERTY, max_examples=60)
@given(
    m=st.integers(3, 5),
    kinds=st.lists(
        st.sampled_from(["circulant", "erasure", "sparse", "equal", "near", "cascade", "free"]), min_size=1, max_size=4
    ),
    step=st.sampled_from([0.05, 0.125, 0.25]),
    block=st.sampled_from([None, 2000]),
    seed=st.integers(0, 2**32 - 1),
)
def test_curvature_scan_is_within_its_bound_of_the_full_scan(m, kinds, step, block, seed):
    """_max_curvature picks a point by closed-form eigenvalues, so it may differ from a full eigvalsh scan.

    Let H be a point's Hessian, T = tr H_b + tr H_a and c = 64 sqrt(eps).
    The closed form, the eigh at the chosen point and eigvalsh here each
    give H's top eigenvalue within about 25 sqrt(eps) T < c T / 2:
    - Each channel's term is PSD, so the n summands proj_i proj_j / q_o of
      an entry add up in absolute value to at most its trace.  Two routes
      that sum them in different orders differ entrywise by O(n eps) T, and
      by Weyl's inequality so do their top eigenvalues.
    - eigvalsh and eigh are backward stable: within O(eps) |H| <= O(eps) T.
    - The 2x2 formula and the trigonometric one away from a double root are
      exact up to O(eps) T.  Where the top two of three eigenvalues meet,
      the top one is mean + 2p cos(acos(r)/3) with r near -1, whose slope
      in r diverges; an error e in r then moves it by about 0.8 p sqrt(e).
      The rounding of the mean and of the centred entries is O(eps) T, so
      e = O(eps T / p), and the error is O(sqrt(eps T p)) <= O(sqrt(eps)) T.
    The chosen point k* has the largest closed-form value, at least the one
    at the full scan's point k, so the values differ from the full scan's
    maximum by at most c (T(k*) + T(k)): the reported maximum, and the full
    scan's own value at k*.  The verdicts are those of a full scan.  m = 5
    takes eigvalsh at every point; small blocks make several blocks.
    """
    rng = np.random.default_rng(seed)
    # a circulant pair has m outputs, an erasure one at least m + 1 unless it shares a stack with one
    n = m if "circulant" in kinds else m + 1 if "erasure" in kinds else int(rng.integers(2, 5))
    pairs = [_curvature_pair(rng, kind, m, n) for kind in kinds]
    a, b = (np.stack([p[side] / p[side].sum(axis=1, keepdims=True) for p in pairs]) for side in (0, 1))
    eff = ordering._bounded_step(m, step, ordering._POINT_GRID_CAP)
    pts = ordering._grid_points(m, eff)[1]
    hessians, traces = _full_curvature_scan(a, b, pts)
    tops = np.linalg.eigvalsh(hessians)[..., -1]
    lanes, best = np.arange(len(kinds)), tops.argmax(axis=1)

    def full_scan(a_, b_, pts_, both):
        vecs = np.linalg.eigh(hessians[lanes, best])[1][..., -1]
        return tops[lanes, best][None], best[None], (vecs @ np.linalg.svd(np.ones((m, 1)))[0][:, 1:].T)[None]

    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(ordering, "_HESSIAN_BLOCK", block)
            mp.setattr(ordering, "_SCAN_BLOCK", block)
        (curv,), (where,), _ = ordering._max_curvature(a, b, pts)
        got = ordering._pair_search(a, b, step).less_noisy()[0]
        mp.setattr(ordering, "_max_curvature", full_scan)
        want = ordering._pair_search(a, b, step).less_noisy()[0]
    bound = 64.0 * math.sqrt(np.finfo(float).eps) * (traces[lanes, where] + traces[lanes, best])
    assert np.all(np.abs(curv - tops[lanes, best]) <= bound)
    assert np.all(tops[lanes, best] - tops[lanes, where] <= bound)
    assert [v.outcome for v in got] == [v.outcome for v in want]


def _scan_args(a, b, pts):
    """The arguments of every _top_eigenvalues call of a two-direction _max_curvature scan."""
    calls = []
    real = ordering._top_eigenvalues

    def spy(*args):
        calls.append(args[:4])
        return real(*args)

    with mock.patch.object(ordering, "_top_eigenvalues", spy):
        ordering._max_curvature(a, b, pts, both=True)
    return calls


@_PROPERTY
@given(
    m=st.integers(3, 5),
    na=st.integers(2, 5),
    nb=st.integers(2, 5),
    zeros=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_both_top_eigenvalue_directions_equal_one_direction_calls(m, na, nb, zeros, seed):
    # d = m - 1 in {2, 3} takes the closed forms, d = 4 eigvalsh; a sparse
    # channel may leave an output unreached, whose column is zeroed
    rng = np.random.default_rng(seed)
    a, b = _random_channel(rng, m, na, sparse=zeros), _random_channel(rng, m, nb, sparse=not zeros)
    pts = ordering._grid_points(m, 0.125)[1]
    for proj_b, q_b, proj_a, q_a in _scan_args(a.rows[None], b.rows[None], pts):
        both = ordering._top_eigenvalues(proj_b, q_b, proj_a, q_a, both=True)
        assert both[0].tobytes() == ordering._top_eigenvalues(proj_b, q_b, proj_a, q_a)[0].tobytes()
        assert both[1].tobytes() == ordering._top_eigenvalues(proj_a, q_a, proj_b, q_b)[0].tobytes()


@_PROPERTY
@given(
    m=st.integers(3, 5),
    kinds=st.lists(
        st.sampled_from(["circulant", "erasure", "sparse", "equal", "near", "cascade", "free"]), min_size=1, max_size=3
    ),
    few=st.integers(3, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_curvature_scan_does_not_depend_on_its_blocks(m, kinds, few, seed):
    # every point's value is the same in blocks of two points (the least the
    # scan takes), of a few points and of the whole grid, so the same point
    # wins even where the top eigenvalue ties across the grid
    rng = np.random.default_rng(seed)
    n = m if "circulant" in kinds else m + 1 if "erasure" in kinds else int(rng.integers(2, 5))
    pairs = [_curvature_pair(rng, kind, m, n) for kind in kinds]
    a, b = (np.stack([p[side] / p[side].sum(axis=1, keepdims=True) for p in pairs]) for side in (0, 1))
    pts = ordering._grid_points(m, 0.1)[1]
    per_point = (m - 1) * max(m - 1, n) * len(kinds)
    scans = []
    for block in (1, few * per_point, 1 << 40):
        with mock.patch.multiple(ordering, _SCAN_BLOCK=block, _HESSIAN_BLOCK=max(block, ordering._HESSIAN_BLOCK)):
            scans.append([x.tobytes() for x in ordering._max_curvature(a, b, pts, both=True)])
    assert scans[0] == scans[1] == scans[2]


def test_less_noisy_diagnostics_keys():
    y1, y2 = split_input_pair()
    fails = ordering.test_less_noisy(y1, y2)
    assert fails.fails
    assert set(fails.diagnostics) == {"grid_step", "grid_points", "max_curvature", "violation", "witness_pair"}
    assert fails.diagnostics["grid_step"] == 0.02
    holds = ordering.test_less_noisy(_channel_on(bec(0.3)), _channel_on(bsc(0.1)))
    assert holds.holds
    assert set(holds.diagnostics) == {"grid_step", "grid_points", "max_curvature"}
    six = Dmc.normalized(np.ones((6, 2)), ("0", "1"))
    capped = ordering.test_less_noisy(six, six, step=1.0 / 30)
    assert capped.diagnostics["requested_step"] == 1.0 / 30
    assert capped.diagnostics["grid_step"] > 1.0 / 30


@_PROPERTY
@given(
    m=st.integers(2, 4),
    n=st.integers(2, 4),
    k=st.integers(2, 4),
    sparse=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_less_noisy_holds_on_random_cascades(m, n, k, sparse, seed):
    rng = np.random.default_rng(seed)
    a = _random_channel(rng, m, n, sparse)
    w = _random_channel(rng, n, k, False)
    assert ordering.test_less_noisy(a, cascade(a, w)).holds


@_PROPERTY
@given(
    m=st.integers(2, 4),
    n=st.integers(2, 4),
    sparse=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_less_noisy_fails_witness_revalidates(m, n, sparse, seed):
    rng = np.random.default_rng(seed)
    a = _random_channel(rng, m, n, sparse)
    b = _random_channel(rng, m, n, not sparse)
    for better, worse in ((a, b), (b, a)):
        verdict = ordering.test_less_noisy(better, worse)
        if verdict.fails:
            brute = _aux_gap(verdict.witness, better, worse)
            assert brute > VERDICT_TOL / 2
            assert brute == pytest.approx(verdict.diagnostics["violation"], abs=1e-9)


def test_more_capable_examples():
    assert ordering.test_more_capable(bec(0.4), bsc(0.1101)).holds
    # far above the entropy threshold the erasure side loses at uniform
    verdict = ordering.test_more_capable(bec(0.6), bsc(0.1))
    assert verdict.fails
    px = verdict.witness
    law = px.probs[None, :]
    assert mi_batch(bec(0.6).rows, law)[0] - mi_batch(bsc(0.1).rows, law)[0] < -1e-9


@pytest.mark.parametrize("p, e", [(0.143641, 0.925798), (0.132669, 0.919705)])
def test_more_capable_face_probes_find_the_dip(p, e):
    # the gap dips to about -3.8e-9 at x ~ 3.6e-8, far inside the first grid
    # cell; on three inputs the face probes find it, on two the exact pieces
    for m in (2, 3):
        a, b = _channel_on(bsc(p), m), _channel_on(bec(e), m)
        verdict = ordering.test_more_capable(a, b)
        assert verdict.fails
        assert verdict.diagnostics["min_gap"] < -VERDICT_TOL
        px = verdict.witness.probs
        brute = brute_mi(px[:, None] * a.rows) - brute_mi(px[:, None] * b.rows)
        assert brute < -VERDICT_TOL


def test_dominant_c_symmetry_examples():
    assert ordering.test_dominant_c_symmetry(bsc(0.1), bec(0.5)).holds
    assert ordering.test_dominant_c_symmetry(bsc(0.1), bec(0.4)).fails


def test_dominance_takes_the_symmetries_already_found(monkeypatch):
    found = (ordering.detect_c_symmetry(bsc(0.1)), ordering.detect_c_symmetry(bec(0.4)))
    want = ordering.test_dominant_c_symmetry(bsc(0.1), bec(0.4))
    monkeypatch.setattr(ordering, "detect_c_symmetry", mock.Mock(side_effect=AssertionError("searched again")))
    got = ordering.test_dominant_c_symmetry(bsc(0.1), bec(0.4), symmetries=found)
    assert got.outcome is want.outcome and got.diagnostics == want.diagnostics
    assert np.array_equal(got.witness.probs, want.witness.probs)
    # a generator is rechecked on its own channel: this channel is c-symmetric
    # under (1, 0, 2), not under BEC(0.4)'s generator (2, 1, 0)
    three = Dmc(np.array([[0.8, 0.15, 0.05], [0.15, 0.8, 0.05]]), ("0", "1", "2"))
    with pytest.raises(ordering.NotCSymmetricError):
        ordering.test_dominant_c_symmetry(three, bec(0.4), symmetries=(found[1], found[1]))


def test_essentially_less_noisy_examples():
    verdict = ordering.test_essentially_less_noisy(bsc(0.1), bec(0.5))
    assert verdict.holds
    assert verdict.diagnostics["sufficient_class"] == "uniform"
    assert ordering.test_essentially_less_noisy(bsc(0.1), bec(0.15)).fails


def test_essentially_less_noisy_inconclusive_without_symmetry():
    skew = Dmc(np.array([[0.9, 0.1], [0.3, 0.7]]), ("0", "1"))
    verdict = ordering.test_essentially_less_noisy(skew, bsc(0.1))
    assert verdict.outcome is Outcome.INCONCLUSIVE


def test_c_symmetry_is_searched_once_per_channel(monkeypatch):
    searched = []
    detect = ordering.detect_c_symmetry

    def counted(channel):
        searched.append(channel.rows.tobytes())
        return detect(channel)

    monkeypatch.setattr(ordering, "detect_c_symmetry", counted)
    verdict = ordering.test_essentially_less_noisy(bsc(0.1), bec(0.5))
    assert verdict.holds
    assert searched == [bsc(0.1).rows.tobytes(), bec(0.5).rows.tobytes()]
    # the dominance tests still check both sides themselves
    skew = Dmc(np.array([[0.9, 0.1], [0.3, 0.7]]), ("0", "1"))
    with pytest.raises(ordering.NotCSymmetricError, match="^second channel of pair 0 is not c-symmetric$"):
        ordering.test_dominant_c_symmetry(bsc(0.1), skew)
    with pytest.raises(ordering.NotCSymmetricError, match="^first channel of pair 0 is not c-symmetric$"):
        ordering.dominant_c_symmetry_stack(skew.rows[None], bsc(0.1).rows[None])


def test_essentially_more_capable_four_letter_pair():
    y1, y2 = split_input_pair()
    u01 = Dist(np.array([0.5, 0.5, 0.0, 0.0]))
    u23 = Dist(np.array([0.0, 0.0, 0.5, 0.5]))
    holds = ordering.test_essentially_more_capable(y1, y2, [u01], step=0.02)
    assert holds.outcome is Outcome.HOLDS
    assert holds.diagnostics["sufficiency_assumed"] is True
    fails = ordering.test_essentially_more_capable(y1, y2, [u23], step=0.02)
    assert fails.outcome is Outcome.FAILS
    assert _conditional_gap(fails.witness, y1, y2) > VERDICT_TOL / 2


def test_essentially_more_capable_fails_on_plain_bsc_bec():
    # conditional information can favor the erasure side even when the
    # crossover side dominates unconditionally
    verdict = ordering.test_essentially_more_capable(bsc(0.1), bec(0.5), [Dist.uniform(2)])
    assert verdict.fails
    brute = _conditional_gap(verdict.witness, bsc(0.1), bec(0.5))
    assert brute > VERDICT_TOL / 2
    assert brute == pytest.approx(verdict.diagnostics["violation"], abs=1e-9)


def test_essentially_more_capable_fails_on_paper6vi_uniform():
    # U = (1/2, 1/4, 1/4) with rows (0, 0, 1/2, 1/2), e_1, e_0 averages to
    # the uniform law and gives the second receiver (1 - h(0.4))/2 more
    # conditional information
    y1, y2 = split_input_pair()
    uniform = Dist.uniform(4)
    verdict = ordering.test_essentially_more_capable(y1, y2, [uniform])
    assert verdict.fails
    violation = verdict.diagnostics["violation"]
    assert abs(violation - (1.0 - binary_entropy(0.4)) / 2.0) <= 1e-9
    assert verdict.witness.aux_size <= 4
    assert np.abs(verdict.witness.induced_marginal().probs - uniform.probs).max() <= 1e-9
    assert abs(_conditional_gap(verdict.witness, y1, y2) - violation) <= 1e-9


def test_essentially_more_capable_reports_coarsened_face_grid():
    # a 5-letter face at step 0.02 has C(54, 4) = 316,251 grid points, over
    # the point cap, so it runs at 0.04; a 2-letter face runs as asked
    rng = np.random.default_rng(7)
    a, b = _random_channel(rng, 6, 3, False), _random_channel(rng, 6, 3, True)
    pair = Dist(np.array([0.5, 0.5, 0.0, 0.0, 0.0, 0.0]))
    five = Dist(np.array([0.2, 0.2, 0.2, 0.2, 0.2, 0.0]))
    exact = ordering.test_essentially_more_capable(a, b, [pair], step=0.02)
    assert exact.diagnostics["grid_step"] == 0.02
    assert "requested_step" not in exact.diagnostics
    # each face grid carries the class member itself as one more point
    assert exact.diagnostics["grid_points"] == 51 + 1
    coarse = ordering.test_essentially_more_capable(a, b, [pair, five], step=0.02)
    assert coarse.diagnostics["grid_step"] == 0.04
    assert coarse.diagnostics["requested_step"] == 0.02
    assert coarse.diagnostics["grid_points"] == 51 + 1 + math.comb(25 + 4, 4) + 1


@_PROPERTY
@given(
    m=st.integers(2, 4),
    na=st.integers(2, 4),
    nb=st.integers(2, 4),
    sparse_a=st.booleans(),
    sparse_b=st.booleans(),
    atoms=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_essentially_more_capable_envelope_bounds_grid_decompositions(m, na, nb, sparse_a, sparse_b, atoms, seed):
    # a decomposition whose atoms are grid points is one feasible point of
    # the envelope LP, so the LP's value cannot fall below its gap
    rng = np.random.default_rng(seed)
    a, b = _random_channel(rng, m, na, sparse_a), _random_channel(rng, m, nb, sparse_b)
    k_parts = 10
    # small Dirichlet concentrations leave atoms with zero cells
    rows = np.array([rng.multinomial(k_parts, rng.dirichlet(np.full(m, 0.5))) for _ in range(atoms)]) / k_parts
    weights = rng.integers(1, 6, size=atoms).astype(float)
    dec = AuxDecomposition(Dist(weights / weights.sum()), rows)
    target = dec.induced_marginal()
    verdict = ordering.test_essentially_more_capable(a, b, [target], step=1.0 / k_parts)
    assert verdict.diagnostics["grid_step"] == 1.0 / k_parts
    assert verdict.diagnostics["max_conditional_gap"] >= _conditional_gap(dec, a, b) - 1e-12
    if verdict.fails:
        witness = verdict.witness
        assert witness.aux_size <= np.count_nonzero(target.probs)
        assert np.abs(witness.induced_marginal().probs - target.probs).max() <= 1e-9
        assert abs(_conditional_gap(witness, a, b) - verdict.diagnostics["violation"]) <= 1e-9


def test_counterexample_search_finds_and_respects():
    found = ordering.test_less_noisy(bec(0.5), bsc(0.1101))
    assert found.fails
    assert _aux_gap(found.witness, bec(0.5), bsc(0.1101)) > VERDICT_TOL
    absent = ordering.test_less_noisy(bec(0.3), bsc(0.1))
    assert absent.holds
    assert "witness_pair" not in absent.diagnostics


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


@settings(_PROPERTY, max_examples=60)
@given(kind=st.sampled_from(["cascade", "circulant", "unrelated"]), m=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_class_relationships_hold_in_each_direction(kind, m, seed):
    # the paper's hierarchy, per direction: degraded => less noisy => more
    # capable => essentially more capable on {uniform}; less noisy => the
    # ordering part of essentially less noisy, read only where both channels
    # share a cyclic input symmetry (the one route that test implements)
    rng = np.random.default_rng(seed)
    if kind == "circulant":
        a, b = _circulant(rng, m, bool(rng.integers(2))), _circulant(rng, m, bool(rng.integers(2)))
    else:
        a = _random_channel(rng, m, int(rng.integers(2, 5)), sparse=bool(rng.integers(2)))
        n = int(rng.integers(2, 5))
        if kind == "cascade":
            b = cascade(a, _random_channel(rng, a.output_size, n, sparse=bool(rng.integers(2))))
        else:
            b = _random_channel(rng, m, n, sparse=bool(rng.integers(2)))
        if rng.integers(2):
            a, b = b, a
    res = ordering.ordering_verdicts(a, b, step=0.05)
    uniform = [Dist.uniform(m)]
    for key, degraded, better, worse in (("1", "degraded_2_wrt_1", a, b), ("2", "degraded_1_wrt_2", b, a)):
        less_noisy, capable = res[f"less_noisy_{key}"], res[f"more_capable_{key}"]
        assert less_noisy.holds or not res[degraded].holds
        assert capable.holds or not less_noisy.holds
        if capable.holds:
            assert not ordering.test_essentially_more_capable(better, worse, uniform, step=0.05).fails
        if kind == "circulant" and less_noisy.holds:
            assert not res[f"essentially_less_noisy_{key}"].fails


def test_mismatched_inputs_rejected():
    three = Dmc(np.eye(3), ("0", "1", "2"))
    with pytest.raises(DomainError):
        ordering.test_degraded(three, bsc(0.1))
    with pytest.raises(DomainError):
        ordering.test_less_noisy(three, bsc(0.1))
