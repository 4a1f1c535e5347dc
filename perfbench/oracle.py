"""Independent correctness oracle for the benchmark's operations.

Imports nothing from ``bcorder``.  It reads only what the command line
prints: verdict lines or ``outcome`` fields, frontier ``points``, CSV rows,
and the exit code.  Diagnostics are never read, so later changes to them
cannot turn a correct answer into a reported failure.

Reference facts, all for a BSC(p) / BEC(e) pair with the BSC as channel 1:

* BSC degraded w.r.t. BEC    iff e <= 2p
* BEC less noisy             iff e <= 4p(1-p)
* BEC more capable           iff e <= H(p)
* BSC essentially less noisy iff e > H(p)

Capacities are 1 - H(p) and 1 - e in closed form, and Blahut-Arimoto for
any other channel.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

# Frontier coordinates are printed with 9 decimals in CSV; JSON carries them
# in full.  A point may exceed a capacity by no more than this.
CAPACITY_TOL = 1e-8
# The theorem frontiers are swept over decompositions pinned to the uniform
# law, the outer bound over a free grid; both are grid approximations of
# step 1/50, so a theorem point may sit slightly outside the sampled bound
# (at most 4e-4 bits over the regions pairs of seeds 0-11).
CONTAINMENT_TOL = 1e-3
# dcurve values are printed with 9 decimals.
DCURVE_TOL = 2e-9

PAPER6VI = (
    np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.5, 0.5]]),
    np.array([[0.9, 0.1], [0.1, 0.9], [0.6, 0.4], [0.4, 0.6]]),
)

TAGS = (
    "degraded-bsc-side",
    "less-noisy-bec-side",
    "more-capable-bec-side",
    "essentially-less-noisy-bsc-side",
)


class OracleError(Exception):
    """An operation's output disagrees with the reference."""


# ---------------------------------------------------------------------------
# information measures


def entropy(p: np.ndarray) -> np.ndarray:
    """Entropy in bits along the last axis."""
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, -p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0)
    return terms.sum(axis=-1)


def h2(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return entropy(np.stack([x, 1.0 - x], axis=-1))


def mutual_information(rows: np.ndarray, px: np.ndarray) -> np.ndarray:
    """I(X;Y) for input law(s) px (..., m) through channel rows (m, n)."""
    px = np.asarray(px, dtype=float)
    return entropy(px @ rows) - px @ entropy(rows)


def bsc_rows(p: float) -> np.ndarray:
    return np.array([[1.0 - p, p], [p, 1.0 - p]])


def bec_rows(e: float) -> np.ndarray:
    return np.array([[1.0 - e, e, 0.0], [0.0, e, 1.0 - e]])


def capacity(rows: np.ndarray, tol: float = 1e-12, max_iter: int = 100_000) -> float:
    """Channel capacity in bits by Blahut-Arimoto, stopped on the dual gap."""
    m = rows.shape[0]
    px = np.full(m, 1.0 / m)
    for _ in range(max_iter):
        py = px @ rows
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(rows > 0.0, rows / np.where(py > 0.0, py, 1.0), 1.0)
            d = np.sum(np.where(rows > 0.0, rows * np.log2(ratio), 0.0), axis=1)
        lower = float(np.log2(np.sum(px * np.exp2(d))))
        upper = float(np.max(d))
        if upper - lower < tol:
            return upper
        px = px * np.exp2(d)
        px /= px.sum()
    return upper


def regime(p, e) -> np.ndarray:
    """Index into TAGS of the closed-form regime of (p, e); works elementwise."""
    p = np.asarray(p, dtype=float)
    e = np.asarray(e, dtype=float)
    return np.select([e <= 2.0 * p, e <= 4.0 * p * (1.0 - p), e <= h2(p)], [0, 1, 2], 3)


# ---------------------------------------------------------------------------
# output parsing


def _verdicts(out: str, fmt: str) -> dict[str, str]:
    """Outcome per test key from classify JSON, or per label from text lines."""
    if fmt == "json":
        return {k: v["outcome"] for k, v in json.loads(out)["tests"].items()}
    res = {}
    for line in out.splitlines():
        label, _, value = line.rpartition(": ")
        if label and value:
            res[label] = value.split()[0].rstrip(",")  # the outcome is the first word
    return res


def _frontiers_json(out: str) -> dict[str, np.ndarray]:
    doc = json.loads(out)["frontiers"]
    return {k: np.array([pt[:2] for pt in v["points"]], dtype=float).reshape(-1, 2) for k, v in doc.items()}


def _frontiers_csv(out: str) -> dict[str, np.ndarray]:
    rows = list(csv.DictReader(io.StringIO(out)))
    names = dict.fromkeys(r["which"] for r in rows)
    return {
        n: np.array([[float(r["r1"]), float(r["r2"])] for r in rows if r["which"] == n]) for n in names
    }


# ---------------------------------------------------------------------------
# checks


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise OracleError(what)


def _holds(outcomes: dict[str, str], key: str) -> bool:
    _expect(key in outcomes, f"missing verdict {key!r}")
    return outcomes[key] == "holds"


def check_bscbec_verdicts(outcomes: dict[str, str], p: float, e: float, keys: dict[str, str]) -> None:
    """The four closed-form verdicts; ``keys`` maps each relation to its output key."""
    hp = float(h2(p))
    expected = {
        "bsc_degraded": e <= 2.0 * p,
        "bec_less_noisy": e <= 4.0 * p * (1.0 - p),
        "bec_more_capable": e <= hp,
        "bsc_essentially_less_noisy": e > hp,
    }
    for relation, want in expected.items():
        got = _holds(outcomes, keys[relation])
        _expect(got == want, f"{relation} at p={p}, e={e}: got holds={got}, closed form says {want}")


_JSON_KEYS = {
    "bsc_degraded": "degraded_1_wrt_2",
    "bec_less_noisy": "less_noisy_2",
    "bec_more_capable": "more_capable_2",
    "bsc_essentially_less_noisy": "essentially_less_noisy_1",
}
_TEXT_KEYS = {
    "bsc_degraded": "BSC side degraded w.r.t. BEC side",
    "bec_less_noisy": "BEC side less noisy",
    "bec_more_capable": "BEC side more capable",
    "bsc_essentially_less_noisy": "BSC side essentially less noisy",
}
_UNIVERSAL = (
    "degraded_1_wrt_2",
    "degraded_2_wrt_1",
    "less_noisy_1",
    "less_noisy_2",
    "more_capable_1",
    "more_capable_2",
)


def paper6vi_gap_signs() -> tuple[float, float]:
    """I(X;Y1) - I(X;Y2) at uniform-on-{0,1} and uniform-on-{2,3}.

    Opposite signs mean neither receiver is more capable, hence neither is
    less noisy nor degraded: no universal ordering can hold.
    """
    laws = np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]])
    gap = mutual_information(PAPER6VI[0], laws) - mutual_information(PAPER6VI[1], laws)
    return float(gap[0]), float(gap[1])


def _check_paper6vi(outcomes: dict[str, str]) -> None:
    g01, g23 = paper6vi_gap_signs()
    _expect(g01 > 0.0 > g23, "paper6vi reference gaps do not change sign")
    for key in _UNIVERSAL:
        _expect(not _holds(outcomes, key), f"paper6vi: universal test {key} holds")


def _under_frontier(points: np.ndarray, outer: np.ndarray, tol: float) -> bool:
    """Every point lies in the region below the outer frontier's polyline."""
    outer = outer[np.argsort(outer[:, 0], kind="stable")]
    if np.any(points[:, 0] > outer[-1, 0] + tol):
        return False
    # left of the first vertex the region is capped by its r2 value
    cap = np.interp(points[:, 0], outer[:, 0], outer[:, 1], left=outer[0, 1])
    return bool(np.all(points[:, 1] <= cap + tol))


def check_frontiers(
    fronts: dict[str, np.ndarray],
    cap_dominant: float,
    cap_weak: float,
    outer: np.ndarray,
    theorem1_applies: bool,
) -> None:
    """Capacity caps on every point, and containment in the outer bound.

    theorem1 describes a capacity region only when the dominant receiver is
    essentially less noisy; elsewhere its sum constraint may pass the
    dominant capacity, so only its r2 cap is checked there.
    """
    for name, pts in fronts.items():
        _expect(pts.shape[0] > 0, f"{name}: empty frontier")
        _expect(bool(np.all(pts >= -CAPACITY_TOL)), f"{name}: negative rate")
        _expect(
            float(pts[:, 1].max()) <= cap_weak + CAPACITY_TOL,
            f"{name}: r2 {pts[:, 1].max():.9f} exceeds weak capacity {cap_weak:.9f}",
        )
        if name == "theorem1" and not theorem1_applies:
            continue
        _expect(
            float(pts[:, 0].max()) <= cap_dominant + CAPACITY_TOL,
            f"{name}: r1 {pts[:, 0].max():.9f} exceeds dominant capacity {cap_dominant:.9f}",
        )
        if name != "ob":
            tol = CAPACITY_TOL if name == "ib" else CONTAINMENT_TOL
            _expect(_under_frontier(pts, outer, tol), f"{name}: frontier leaves the ob outer bound")


def _bscbec_region_params(p: float, e: float) -> tuple[float, float, bool]:
    """(dominant capacity, weak capacity, theorem1 applies) for the CLI's pick.

    The CLI makes the BSC dominant in the essentially-less-noisy regime and
    the BEC dominant otherwise.
    """
    c_bsc, c_bec = 1.0 - float(h2(p)), 1.0 - e
    r = regime(p, e)
    if r == 3:
        return c_bsc, c_bec, True
    return c_bec, c_bsc, r != 2


def _check_dcurve(out: str, p: float, e: float, samples: int = 1001) -> None:
    rows = list(csv.reader(io.StringIO(out)))
    _expect(rows[0] == ["x", "D"], "dcurve: bad header")
    data = np.array(rows[1:], dtype=float)
    _expect(data.shape == (samples, 2), f"dcurve: expected {samples} rows")
    xs = data[:, 0]
    _expect(bool(np.allclose(xs, np.linspace(0.0, 1.0, samples), atol=1e-9)), "dcurve: x grid")
    laws = np.stack([xs, 1.0 - xs], axis=1)  # x = P(X = 0)
    ref = mutual_information(bsc_rows(p), laws) - mutual_information(bec_rows(e), laws)
    err = float(np.max(np.abs(data[:, 1] - ref)))
    _expect(err <= DCURVE_TOL, f"dcurve: max deviation {err:.3g} from I(X;Y_bsc) - I(X;Y_bec)")


def _check_phase_map(out: str, n: int) -> None:
    """Tags match the closed-form regime on every cell no threshold crosses.

    A cell spans half a grid step around its point.  The thresholds rise
    with p, so one crosses the cell exactly when the corners differ.  At
    p = 1/2 the BSC carries no information and is degraded w.r.t. every
    channel; both the degraded tag and the weaker less-noisy tag are true
    orderings there, and either is accepted.
    """
    rows = list(csv.DictReader(io.StringIO(out)))
    _expect(len(rows) == n * n, f"phase-map: expected {n * n} cells, got {len(rows)}")
    p = np.array([float(r["p"]) for r in rows])
    e = np.array([float(r["e"]) for r in rows])
    tags = [r["tag"] for r in rows]
    _expect(all(t in TAGS for t in tags), "phase-map: unknown tag")
    got = np.array([TAGS.index(t) for t in tags])
    dp, de = 0.25 / (n - 1), 0.5 / (n - 1)
    corners = [
        regime(np.clip(p + sp * dp, 0.0, 0.5), np.clip(e + se * de, 0.0, 1.0))
        for sp in (-1, 1)
        for se in (-1, 1)
    ]
    clear = np.all([c == corners[0] for c in corners], axis=0)
    want = regime(p, e)
    ok = got == want
    half = np.isclose(p, 0.5)
    ok |= half & (got <= 1)
    bad = clear & ~ok
    _expect(clear.sum() > 0, "phase-map: no clear cells")
    _expect(not bad.any(), f"phase-map: {int(bad.sum())} clear cells carry the wrong tag")


def _check_symmetry(out: str, p: float, e: float) -> None:
    outcomes = _verdicts(out, "text")
    for name in (f"BSC({p:g})", f"BEC({e:g})"):
        _expect(outcomes.get(name) == "c-symmetric", f"symmetry: {name} is c-symmetric")
    key = f"uniform-input dominance of BSC({p:g}) over BEC({e:g})"
    want = "holds" if e > float(h2(p)) else "fails"
    _expect(outcomes.get(key) == want, f"symmetry: uniform dominance {outcomes.get(key)}, closed form says {want}")


class Oracle:
    """Checks one operation's exit code and output.

    Holds the ``ob`` frontier of each region pair so that a later theorem
    operation on the same pair can be checked against it.
    """

    def __init__(self) -> None:
        self._outer: dict[str, np.ndarray] = {}
        self._cap6 = (capacity(PAPER6VI[0]), capacity(PAPER6VI[1]))

    def check(self, op: dict, rc: int | None, out: str) -> None:
        """Raise OracleError unless the operation exited 0 with a correct output."""
        _expect(rc == 0, f"exit code {rc}")
        kind = op["kind"]
        if kind == "classify-bscbec":
            check_bscbec_verdicts(_verdicts(out, "json"), op["p"], op["e"], _JSON_KEYS)
        elif kind == "classify-cascade":
            outcomes = _verdicts(out, "json")
            for key in ("degraded_2_wrt_1", "less_noisy_1", "more_capable_1"):
                _expect(_holds(outcomes, key), f"cascade: {key} does not hold")
        elif kind == "classify-paper6vi":
            _check_paper6vi(_verdicts(out, "json"))
        elif kind in ("region-bscbec", "region-paper6vi"):
            fronts = _frontiers_json(out)
            _expect(sorted(fronts) == sorted(op["which"]), "region: wrong frontier set")
            if "ob" in fronts:
                self._outer[op["pair"]] = fronts["ob"]
            outer = self._outer.get(op["pair"])
            _expect(outer is not None, "region: no ob frontier of this pair ran before")
            if kind == "region-bscbec":
                cap_d, cap_w, t1 = _bscbec_region_params(op["p"], op["e"])
            else:
                (cap_d, cap_w), t1 = self._cap6, True
            check_frontiers(fronts, cap_d, cap_w, outer, t1)
        elif kind == "cold-classify":
            check_bscbec_verdicts(_verdicts(out, "text"), op["p"], op["e"], _TEXT_KEYS)
        elif kind == "cold-dcurve":
            _check_dcurve(out, op["p"], op["e"])
        elif kind == "cold-symmetry":
            _check_symmetry(out, op["p"], op["e"])
        elif kind == "cold-region":
            fronts = _frontiers_csv(out)
            _expect(sorted(fronts) == ["ib", "ob"], "region: wrong frontier set")
            cap_d, cap_w, t1 = _bscbec_region_params(op["p"], op["e"])
            check_frontiers(fronts, cap_d, cap_w, fronts["ob"], t1)
        elif kind == "cold-phase-map":
            _check_phase_map(out, op["grid"])
        elif kind == "cold-verify":
            pass  # the exit code is the verdict
        else:
            raise OracleError(f"unknown operation kind {kind!r}")
