"""Per-layer tracing by wrapping bcorder's public functions from outside.

A Tracer replaces each listed function, in every ``bcorder`` module
namespace that binds it, with a wrapper that records a span: id, parent,
name, operation index, start and end (ns).  Spans stay in memory and are
written as JSON lines by ``dump_spans``.  A listed name that a module no longer
defines is reported as absent, not treated as an error; so is a counter
whose diagnostics key is missing.

``linprog`` is also rebound in ``scipy.optimize``, so a lazy
``from scipy.optimize import linprog`` inside bcorder still reaches the
wrapper.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

TARGETS = {
    "probcore": ("entropy_vec", "binary_entropy"),
    "channels": ("mi_batch", "aux_mi_batch", "detect_c_symmetry", "symmetrize"),
    "bscbec": ("classify_pair", "d_curve"),
    "classify": (
        "test_degraded",
        "test_less_noisy",
        "test_more_capable",
        "test_dominant_c_symmetry",
        "test_essentially_less_noisy",
        "test_essentially_more_capable",
        "linprog",
    ),
    "regions": ("superposition_region", "theorem1_region", "theorem2_region", "outer_bound_eq_ob"),
    "verifysuite": ("run_suite",),
    "cli": ("main",),
}
SUBCOMMANDS = ("classify", "dcurve", "phase-map", "region", "symmetry", "verify-paper")
LAYERS = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)

# tests that search a grid and may coarsen it; test_essentially_less_noisy
# only repeats the diagnostics of its test_dominant_c_symmetry call
_GRID_TESTS = ("classify.test_less_noisy", "classify.test_more_capable", "classify.test_dominant_c_symmetry")
_REGION_FNS = tuple(f"regions.{fn}" for fn in TARGETS["regions"])

# span record fields
_ID, _PARENT, _NAME, _OP, _START, _END, _EXTRA = range(7)


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _leading_dim(a) -> int | None:
    shape = getattr(a, "shape", None)
    if not shape:
        return None
    return int(shape[0]) if len(shape) > 1 else 1


def _extra(name: str, args: tuple, kwargs: dict, out):
    """The work counters a span carries, read from arguments or results."""
    if name == "channels.mi_batch":
        return _leading_dim(_arg(args, kwargs, 1, "pxs"))
    if name == "channels.aux_mi_batch":
        return _leading_dim(_arg(args, kwargs, 1, "weights"))
    if name == "cli.main":
        argv = _arg(args, kwargs, 0, "argv")
        argv = sys.argv[1:] if argv is None else argv
        return argv[0] if argv else None
    diag = getattr(out, "diagnostics", None)
    if not isinstance(diag, dict):
        return None
    if name.startswith("classify.test_"):
        requested = diag.get("requested_step")
        return {
            "grid_points": diag.get("grid_points"),
            "pairs": diag.get("pairs"),
            "coarsened": requested is not None and diag.get("grid_step") != requested,
        }
    if name in _REGION_FNS:
        return {
            "decompositions": diag.get("num_decompositions"),
            "candidates": diag.get("num_candidates"),
            "frontier_points": len(getattr(out, "points", ())),
        }
    return None


class Tracer:
    """Installs span-recording wrappers and aggregates per-layer metrics."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, self.op, clock(), 0, None]
            spans.append(rec)
            stack.append(rec[_ID])
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[_END] = clock()
                stack.pop()
            rec[_EXTRA] = _extra(name, args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded bcorder module that binds it."""
        self.absent = []
        mods = [m for n, m in list(sys.modules.items()) if n == "bcorder" or n.startswith("bcorder.")]
        for mod_name, fns in TARGETS.items():
            home = sys.modules.get(f"bcorder.{mod_name}")
            for fn_name in fns:
                sites = mods
                if fn_name == "linprog":
                    import scipy.optimize

                    original = scipy.optimize.linprog
                    sites = mods + [scipy.optimize]
                else:
                    original = getattr(home, fn_name, None)
                if original is None:
                    self.absent.append(f"{mod_name}.{fn_name}")
                    continue
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in sites:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()


def dump_spans(spans: list[list], path: str) -> None:
    """Write spans as JSON lines, replacing any file at ``path``."""
    keys = ("id", "parent", "name", "op", "start_ns", "end_ns", "extra")
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(dict(zip(keys, s))) + "\n")


def load_spans(path: str) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [
            [d["id"], d["parent"], d["name"], d["op"], d["start_ns"], d["end_ns"], d["extra"]]
            for d in map(json.loads, fh)
        ]


def layer_metrics(spans: list[list]) -> tuple[dict[str, float], dict[str, float]]:
    """(per-layer metrics, share of cli.main time spent under each module).

    Spans from several processes may be concatenated: ids are unique within
    a process only, so spans are grouped by their position after each root.
    A span's self time is its duration minus that of its direct children;
    busy time counts only spans that have no ancestor of the same name.
    """
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    self_t: dict[str, float] = defaultdict(float)
    by_sub: dict[str, float] = defaultdict(float)
    module_top: dict[str, float] = defaultdict(float)
    extras: dict[str, list] = defaultdict(list)

    table: dict[int, list] = {}
    for s in spans:
        if s[_PARENT] == -1:
            table = {}  # a new root starts a new id space
        table[s[_ID]] = s
        name = s[_NAME]
        dur = s[_END] - s[_START]
        calls[name] += 1
        self_t[name] += dur
        ancestors = []
        p = s[_PARENT]
        while p != -1:
            ancestors.append(table[p][_NAME])
            p = table[p][_PARENT]
        if ancestors:
            self_t[ancestors[0]] -= dur
        if name not in ancestors:
            busy[name] += dur
        module = name.split(".")[0]
        if not any(a.split(".")[0] == module for a in ancestors):
            module_top[module] += dur
        if s[_EXTRA] is not None:
            extras[name].append(s[_EXTRA])
            if name == "cli.main":
                by_sub[s[_EXTRA]] += dur

    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = calls.get(layer, 0)
        metrics[f"{layer}.busy_s"] = busy.get(layer, 0) / 1e9
        metrics[f"{layer}.self_s"] = self_t.get(layer, 0) / 1e9
    for sub in SUBCOMMANDS:
        metrics[f"cli.{sub}.busy_s"] = by_sub.get(sub, 0) / 1e9

    def rate(rows: float, layer: str) -> float:
        secs = metrics[f"{layer}.busy_s"]
        return rows / secs if secs > 0 else 0.0

    mi_rows = [r for r in extras["channels.mi_batch"] if r is not None]
    metrics["channels.mi_batch.rows"] = sum(mi_rows)
    metrics["channels.mi_batch.rows_per_s"] = rate(sum(mi_rows), "channels.mi_batch")
    metrics["channels.mi_batch.single_row_calls"] = sum(1 for r in mi_rows if r == 1)
    aux_rows = sum(r for r in extras["channels.aux_mi_batch"] if r is not None)
    metrics["channels.aux_mi_batch.rows"] = aux_rows
    metrics["channels.aux_mi_batch.rows_per_s"] = rate(aux_rows, "channels.aux_mi_batch")

    grid_tests = [x for n in _GRID_TESTS for x in extras.get(n, [])]
    metrics["classify.grid_points"] = sum(x["grid_points"] or 0 for x in grid_tests)
    metrics["classify.midpoint_pairs"] = sum(x["pairs"] or 0 for x in extras.get("classify.test_less_noisy", []))
    metrics["classify.coarsened_ratio"] = (
        sum(1 for x in grid_tests if x["coarsened"]) / len(grid_tests) if grid_tests else 0.0
    )

    regs = [x for n in _REGION_FNS for x in extras.get(n, [])]
    decomp = sum(x["decompositions"] or 0 for x in regs)
    points = sum(x["frontier_points"] for x in regs)
    metrics["regions.decompositions"] = decomp
    metrics["regions.candidates"] = sum(x["candidates"] or 0 for x in regs)
    metrics["regions.frontier_points"] = points
    metrics["regions.useful_ratio"] = points / decomp if decomp else 0.0

    main_ns = busy.get("cli.main", 0)
    coverage = {m: module_top[m] / main_ns for m in ("classify", "regions", "channels", "bscbec") if main_ns}
    return metrics, coverage
