"""Seeded operation lists for the three benchmark workloads.

Every operation is one command line for ``bcorder.cli``.  A workload is a
*pass*: a fixed list of operations that a run repeats.  The seed chooses
the channel parameters and the order of the pass, never its composition, so
every seed costs about the same and run-to-run spread stays small.

This module imports nothing from ``bcorder``; the oracle reads the same
parameters back from each operation.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from oracle import h2

WORKLOADS = ("orderings", "regions", "cli-cold")

# A run repeats whole passes; it always completes MIN_PASSES of them.
MIN_PASSES = {"orderings": 6, "regions": 4, "cli-cold": 2}
# op_tail_ms is the nearest-rank percentile TAIL_PCT of all latencies of a
# run.  It is fixed per workload so that runs of faster code, which complete
# more passes, report the same percentile.  It is the highest of 50, 75, 90,
# 95, 99 with at least ten samples beyond it in MIN_PASSES passes, except
# for cli-cold: six commands, one of them ~9 s, leave fewer than twenty
# samples per run, so its tail is p90, the slowest command of each pass.
TAIL_PCT = {"orderings": 95, "regions": 75, "cli-cold": 90}

REGIMES = ("degraded", "less-noisy", "more-capable", "ess-less-noisy")

# Placeholder for the per-run directory that holds the channel files; the
# digest is taken over the template so it does not depend on where a run
# writes its files.
DIR_TOKEN = "{dir}"

# orderings: BSC/BEC cells per regime, and cascade pairs by shape
# (inputs, outputs of a, outputs of the degrading channel W).
_CELLS_PER_REGIME = 9
_CASCADE_SHAPES = ((3, 3, 3), (3, 3, 3), (3, 3, 3), (4, 4, 3), (4, 4, 3))
_THEOREM_REPEATS = 2

# A cell is drawn inside its regime interval [lo, hi] at least this share of
# the interval's width away from both ends, and only where the interval is
# at least _MIN_WIDTH wide, so the closed form decides it at grid 50.
_EDGE_SHARE = 0.15
_MIN_WIDTH = 0.03

# The commands of the README, each in a fresh interpreter; the README pair
# is BSC(0.1) / BEC(0.5).
COLD_COMMANDS = (
    ("cold-classify", ["classify", "--bsc", "0.1", "--bec", "0.5"]),
    ("cold-dcurve", ["dcurve", "--p", "0.1", "--e", "0.5"]),
    ("cold-symmetry", ["symmetry", "--bsc", "0.1", "--bec", "0.5"]),
    ("cold-region", ["region", "--bsc", "0.1", "--bec", "0.5"]),
    ("cold-phase-map", ["phase-map", "--grid", "200"]),
    ("cold-verify", ["verify-paper"]),
)
COLD_PARAMS = {"p": 0.1, "e": 0.5, "grid": 200}


def regime_interval(p: float, regime: str) -> tuple[float, float]:
    """The e-interval of a regime at crossover p (thresholds 2p, 4p(1-p), H(p))."""
    t1, t2, t3 = 2.0 * p, 4.0 * p * (1.0 - p), float(h2(p))
    return {
        "degraded": (0.0, t1),
        "less-noisy": (t1, t2),
        "more-capable": (t2, t3),
        "ess-less-noisy": (t3, 1.0),
    }[regime]


def _cell(rng: np.random.Generator, regime: str) -> tuple[float, float]:
    while True:
        p = float(rng.uniform(0.05, 0.45))
        lo, hi = regime_interval(p, regime)
        width = hi - lo
        if width < _MIN_WIDTH:
            continue
        e = float(rng.uniform(lo + _EDGE_SHARE * width, hi - _EDGE_SHARE * width))
        return round(p, 6), round(e, 6)


def _rates(p: float, e: float) -> list[str]:
    return ["--bsc", repr(p), "--bec", repr(e)]


def _channel_file(rows: np.ndarray) -> str:
    doc = {
        "input_size": int(rows.shape[0]),
        "output_labels": [str(i) for i in range(rows.shape[1])],
        "rows": rows.tolist(),
    }
    return json.dumps(doc, indent=2) + "\n"


def _orderings(rng: np.random.Generator) -> tuple[list[dict], dict[str, str]]:
    ops: list[dict] = []
    files: dict[str, str] = {}
    for regime in REGIMES:
        for _ in range(_CELLS_PER_REGIME):
            p, e = _cell(rng, regime)
            ops.append(
                {
                    "kind": "classify-bscbec",
                    "p": p,
                    "e": e,
                    "argv": ["classify", *_rates(p, e), "--format", "json"],
                }
            )
    for i, (m, n, k) in enumerate(_CASCADE_SHAPES):
        a = rng.dirichlet(np.ones(n), size=m)
        w = rng.dirichlet(np.ones(k), size=n)
        name_a, name_b = f"cascade{i}_a.json", f"cascade{i}_b.json"
        files[name_a] = _channel_file(a)
        files[name_b] = _channel_file(a @ w)
        ops.append(
            {
                "kind": "classify-cascade",
                "inputs": m,
                "argv": [
                    "classify",
                    "--channel1",
                    f"{DIR_TOKEN}/{name_a}",
                    "--channel2",
                    f"{DIR_TOKEN}/{name_b}",
                    "--format",
                    "json",
                ],
            }
        )
    ops.append(
        {
            "kind": "classify-paper6vi",
            "argv": ["classify", "--channel1", "paper6vi", "--channel2", "paper6vi", "--format", "json"],
        }
    )
    order = rng.permutation(len(ops))
    return [ops[i] for i in order], files


def _regions(rng: np.random.Generator) -> list[dict]:
    """One pair per regime plus paper6vi; a pair's ib,ob op precedes its theorem op.

    The oracle checks the theorem frontiers against the outer bound of the
    same pair, so the ib,ob operation must run first within a pass.  Each
    theorem op, a tenth of the cost of an ib,ob sweep, runs _THEOREM_REPEATS
    times: with one of each, the median latency would fall in the gap between
    the cheap and the costly half of the pass and jump from run to run.
    """
    groups: list[list[dict]] = []
    for regime in REGIMES:
        p, e = _cell(rng, regime)
        base = {"kind": "region-bscbec", "pair": regime, "p": p, "e": e}
        theorems = dict(
            base,
            which=["theorem1", "theorem2"],
            argv=["region", *_rates(p, e), "--which", "theorem1,theorem2", "--class", "uniform", "--format", "json"],
        )
        groups.append(
            [
                dict(base, which=["ib", "ob"], argv=["region", *_rates(p, e), "--which", "ib,ob", "--format", "json"]),
                *[theorems] * _THEOREM_REPEATS,
            ]
        )
    pair6 = ["region", "--channel1", "paper6vi", "--channel2", "paper6vi"]
    base = {"kind": "region-paper6vi", "pair": "paper6vi"}
    theorem2 = dict(base, which=["theorem2"], argv=[*pair6, "--which", "theorem2", "--class", "uniform", "--format", "json"])
    groups.append(
        [
            dict(base, which=["ib", "ob"], argv=[*pair6, "--which", "ib,ob", "--format", "json"]),
            *[theorem2] * _THEOREM_REPEATS,
        ]
    )
    order = rng.permutation(len(groups))
    return [op for i in order for op in groups[i]]


def _cli_cold(rng: np.random.Generator) -> list[dict]:
    order = rng.permutation(len(COLD_COMMANDS))
    return [dict(COLD_PARAMS, kind=COLD_COMMANDS[i][0], argv=list(COLD_COMMANDS[i][1])) for i in order]


def generate(workload: str, seed: int) -> tuple[list[dict], dict[str, str]]:
    """(operations of one pass, channel files by name) for a workload and seed."""
    rng = np.random.default_rng(seed)
    if workload == "orderings":
        return _orderings(rng)
    if workload == "regions":
        return _regions(rng), {}
    if workload == "cli-cold":
        return _cli_cold(rng), {}
    raise ValueError(f"unknown workload {workload!r}")


def digest(workload: str, ops: list[dict], files: dict[str, str]) -> str:
    """SHA-256 over the operation list (parameters and argv) and file contents."""
    doc = json.dumps({"workload": workload, "ops": ops, "files": files}, sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def bind(argv: list[str], workdir: str) -> list[str]:
    """Replace the directory placeholder with the run's channel-file directory."""
    return [a.replace(DIR_TOKEN, workdir) for a in argv]
