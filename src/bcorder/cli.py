"""Command-line front end.

Subcommands: classify, dcurve, phase-map, region, symmetry, verify-paper.
Channel pairs come either from --bsc/--bec (crossover and erasure rates) or
from --channel1/--channel2 (JSON files, or the built-in name "paper6vi"
whose two halves are picked by flag position).  All output paths are
deterministic: the same parsed configuration always produces byte-identical
CSV and JSON, and SVG output is self-contained 800x600 with no external
references.

Each flag is declared, defaulted and range-checked once, by its argparse
``type`` in ``build_parser``; ``_validate`` keeps the rules that span flags,
and the commands take the parsed ``argparse.Namespace``.  Every rejection,
argparse's own included, is a ``CliError`` that ``main`` prints as one line.

Exit codes: 0 on success (and on all checks passing), 1 when verify-paper
finds a failing check, 2 on invalid input.

Every command needs probcore, channels and bscbec, imported here.  The
ordering tests (classify), the region sweeps (regions) and the check suite
(verifysuite) are imported by the commands that run them, so a fresh
process compiles and loads only what its command uses.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys

import numpy as np

from .bscbec import PHASE_GRID_CAP, BscBecPair, PairTag, classify_pair, d_curve, regime, thresholds
from .channels import ChannelFormatError, Dmc, bec, bsc, detect_c_symmetry, load_channel, split_input_pair
from .probcore import REGION_BOUNDS, SIMPLEX_TOL, VERDICT_TOL, Dist, DomainError

__all__ = ["CliError", "build_parser", "main", "entrypoint"]

BUILTIN_PAIR = "paper6vi"

DCURVE_SAMPLES_CAP = 100_000   # dcurve keeps every sample in memory

SVG_W, SVG_H = 800, 600
_ML, _MR, _MT, _MB = 80, 24, 40, 56

_TAG_COLORS = {
    PairTag.DEGRADED_BSC_SIDE.value: "#4477aa",
    PairTag.LESS_NOISY_BEC_SIDE.value: "#66ccee",
    PairTag.MORE_CAPABLE_BEC_SIDE.value: "#228833",
    PairTag.ESSENTIALLY_LESS_NOISY_BSC_SIDE.value: "#ccbb44",
}
_SERIES_COLORS = ("#4477aa", "#ee6677", "#228833", "#ccbb44", "#aa3377")


class CliError(ValueError):
    """Invalid command-line input; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises every rejection, argparse's own included, as CliError."""

    def error(self, message: str):
        raise CliError(message)


# ---------------------------------------------------------------------------
# argument parsing: each flag is declared, defaulted and range-checked once


def _ranged(kind, ok, must: str):
    """An argparse type: ``kind(text)``, rejected unless ``ok`` holds of it (NaN fails every bound)."""

    def parse(text: str):
        value = kind(text)  # argparse reports a ValueError as "invalid <__name__> value"
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must {must}")
        return value

    parse.__name__ = kind.__name__
    return parse


# the rates of --bsc and dcurve --p, and of --bec and dcurve --e
_BSC = _ranged(float, lambda p: 0.0 <= p <= 0.5, "lie in [0, 0.5]")
_BEC = _ranged(float, lambda e: 0.0 <= e <= 1.0, "lie in [0, 1]")


def _region_names(text: str) -> tuple[str, ...]:
    """--which: a comma list of distinct names from REGION_BOUNDS."""
    names = tuple(s.strip() for s in text.split(",") if s.strip())
    bad = ", ".join(repr(w) for w in names if w not in REGION_BOUNDS)
    if bad:
        raise argparse.ArgumentTypeError(f"unknown region name(s): {bad}; choose from {', '.join(REGION_BOUNDS)}")
    if not names:
        raise argparse.ArgumentTypeError("selected no regions")
    repeated = [w for w in dict.fromkeys(names) if names.count(w) > 1]
    if repeated:
        raise argparse.ArgumentTypeError(f"region name(s) given more than once: {', '.join(repeated)}")
    return names


def _check_name(name: str) -> str:
    """--check: a name of the suite; verifysuite is imported only when the flag is given."""
    from .verifysuite import check_names

    if name not in check_names():
        raise argparse.ArgumentTypeError(f"unknown check name {name!r}; use --list to see the available names")
    return name


def _add_pair_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--bsc", dest="bsc_p", type=_BSC, metavar="P", help="crossover rate of a binary symmetric channel")
    sp.add_argument("--bec", dest="bec_e", type=_BEC, metavar="E", help="erasure rate of a binary erasure channel")
    sp.add_argument("--channel1", metavar="CHAN", help=f"channel file (JSON) or builtin name '{BUILTIN_PAIR}'")
    sp.add_argument("--channel2", metavar="CHAN", help=f"channel file (JSON) or builtin name '{BUILTIN_PAIR}'")
    sp.add_argument("--normalize", action="store_true", help="renormalize near-stochastic rows on load")


def _add_common(sp: argparse.ArgumentParser, formats: tuple[str, ...], fmt: str, grid: int, cap=sys.float_info.max):
    # the step 1/grid is taken in floats, so no grid exceeds the largest float
    grid_type = _ranged(int, lambda n: 2 <= n <= cap, f"lie in [2, {cap:.4g}]")
    sp.add_argument("--grid", type=grid_type, default=grid, metavar="N", help="resolution knob (sweep step is 1/N)")
    sp.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
    sp.add_argument("--format", dest="fmt", choices=formats, default=fmt, help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bcorder",
        description="orderings, regions and reference checks for two-receiver broadcast channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="run the ordering tests on a channel pair")
    _add_pair_flags(sp)
    tol_type = _ranged(float, lambda x: 0.0 < x < np.inf, "be finite and positive")
    sp.add_argument("--tol", type=tol_type, default=VERDICT_TOL, metavar="X", help="degradedness verdict tolerance")
    _add_common(sp, ("text", "json"), "text", 50)

    sp = sub.add_parser("dcurve", help="sample the gap curve of a (p, e) pair")
    sp.add_argument("--p", type=_BSC, required=True, metavar="P", help="crossover rate")
    sp.add_argument("--e", type=_BEC, required=True, metavar="E", help="erasure rate")
    samples_type = _ranged(int, lambda n: 2 <= n <= DCURVE_SAMPLES_CAP, f"lie in [2, {DCURVE_SAMPLES_CAP}]")
    sp.add_argument("--samples", type=samples_type, default=1001, metavar="N", help="number of sample points")
    _add_common(sp, ("csv", "svg", "json"), "csv", 50)

    sp = sub.add_parser("phase-map", help="regime map over the (p, e) rectangle")
    _add_common(sp, ("csv", "svg", "json"), "csv", 50, PHASE_GRID_CAP)

    sp = sub.add_parser("region", help="rate-region frontiers for a channel pair")
    _add_pair_flags(sp)
    sp.add_argument(
        "--which",
        type=_region_names,
        default=("ib", "ob"),
        metavar="LIST",
        help="comma list from: " + ",".join(REGION_BOUNDS),
    )
    sp.add_argument(
        "--class",
        dest="input_class",
        metavar="CLASS",
        help="input-law class: 'uniform', 'uniform01', or a JSON file of laws",
    )
    _add_common(sp, ("csv", "svg", "json"), "csv", 50)

    sp = sub.add_parser("symmetry", help="cyclic-symmetry report for one or two channels")
    _add_pair_flags(sp)
    _add_common(sp, ("text", "json"), "text", 50)

    sp = sub.add_parser("verify-paper", help="run the built-in golden-value check suite")
    sp.add_argument("--list", dest="list_checks", action="store_true", help="list check names and exit")
    sp.add_argument("--check", type=_check_name, metavar="NAME", help="run a single named check")
    tolerance_type = _ranged(float, lambda x: 0.0 <= x < np.inf, "be finite and nonnegative")
    sp.add_argument("--tolerance", type=tolerance_type, metavar="X", help="override every selected check's tolerance")
    seed_type = _ranged(int, lambda n: n >= 0, "be nonnegative")
    sp.add_argument("--seed", type=seed_type, default=0, metavar="N", help="seed of the seeded checks")
    _add_common(sp, ("text", "json"), "text", 32)

    return parser


def _validate(args: argparse.Namespace) -> None:
    """The rules that span flags; each flag's own range is checked by its parser type."""
    given = [getattr(args, name, None) is not None for name in ("bsc_p", "bec_e", "channel1", "channel2")]
    if args.command == "symmetry" and not any(given):
        raise CliError("give at least one channel (--bsc, --bec, --channel1 or --channel2)")
    if args.command in ("classify", "region") and given not in ([True, True, False, False], [False, False, True, True]):
        raise CliError("give either --bsc P with --bec E, or --channel1 with --channel2")


# ---------------------------------------------------------------------------
# channel resolution and output plumbing


def _load_channel_source(source: str, role: int, normalize: bool) -> Dmc:
    if source == BUILTIN_PAIR:
        y1, y2 = split_input_pair()
        return y1 if role == 1 else y2
    return load_channel(source, normalize=normalize)


def _resolve_pair(args: argparse.Namespace) -> tuple[Dmc, Dmc, str, str]:
    """Channel pair plus display names, in flag order (channel 1 first)."""
    if args.channel1 is not None:
        c1 = _load_channel_source(args.channel1, 1, args.normalize)
        c2 = _load_channel_source(args.channel2, 2, args.normalize)
        n1 = f"{args.channel1} (as channel 1)" if args.channel1 == BUILTIN_PAIR else args.channel1
        n2 = f"{args.channel2} (as channel 2)" if args.channel2 == BUILTIN_PAIR else args.channel2
        return c1, c2, n1, n2
    return bsc(args.bsc_p), bec(args.bec_e), "BSC side", "BEC side"


def _fmt9(v: float) -> str:
    s = f"{v:.9f}"
    return "0.000000000" if s == "-0.000000000" else s


def _emit(args: argparse.Namespace, payload: str) -> None:
    if args.out is None:
        sys.stdout.write(payload)
    else:
        with open(args.out, "w", newline="") as fh:
            fh.write(payload)


def _jsonable(v):
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if v is None or isinstance(v, (str, bool)):
        return v
    if isinstance(v, (np.floating, float)):
        return float(v)
    if isinstance(v, (np.integer, int)):
        return int(v)
    if isinstance(v, Dist):
        return [float(x) for x in v.probs]
    if isinstance(v, Dmc):
        return {"rows": v.rows.tolist(), "output_labels": list(v.output_labels)}
    return str(v)


def _json_doc(obj) -> str:
    return json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# SVG plumbing (self-contained, fixed 800x600 viewport)


def _escape(text: str) -> str:
    """``xml.sax.saxutils.escape`` without its import, which loads urllib, http and email."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _xmap(x: float, x0: float, x1: float) -> float:
    return _ML + (x - x0) / (x1 - x0) * (SVG_W - _ML - _MR)


def _ymap(y: float, y0: float, y1: float) -> float:
    return SVG_H - _MB - (y - y0) / (y1 - y0) * (SVG_H - _MT - _MB)


def _svg_open(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_W}" height="{SVG_H}" '
        f'viewBox="0 0 {SVG_W} {SVG_H}" font-family="sans-serif">',
        f'<rect x="0" y="0" width="{SVG_W}" height="{SVG_H}" fill="white"/>',
        f'<text x="{SVG_W / 2:.1f}" y="24" text-anchor="middle" font-size="16">{_escape(title)}</text>',
    ]


def _svg_axes(x0, x1, y0, y1, xlabel: str, ylabel: str) -> list[str]:
    parts = [
        f'<rect x="{_ML}" y="{_MT}" width="{SVG_W - _ML - _MR}" height="{SVG_H - _MT - _MB}" '
        'fill="none" stroke="#222222" stroke-width="1"/>'
    ]
    for i in range(5):
        xv = x0 + (x1 - x0) * i / 4.0
        yv = y0 + (y1 - y0) * i / 4.0
        px = _xmap(xv, x0, x1)
        py = _ymap(yv, y0, y1)
        parts.append(
            f'<line x1="{px:.1f}" y1="{SVG_H - _MB}" x2="{px:.1f}" y2="{SVG_H - _MB + 5}" stroke="#222222"/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{SVG_H - _MB + 20}" text-anchor="middle" font-size="12">{xv:.3g}</text>'
        )
        parts.append(f'<line x1="{_ML - 5}" y1="{py:.1f}" x2="{_ML}" y2="{py:.1f}" stroke="#222222"/>')
        parts.append(
            f'<text x="{_ML - 8}" y="{py + 4:.1f}" text-anchor="end" font-size="12">{yv:.3g}</text>'
        )
    parts.append(
        f'<text x="{(_ML + SVG_W - _MR) / 2:.1f}" y="{SVG_H - 12}" text-anchor="middle" '
        f'font-size="14">{_escape(xlabel)}</text>'
    )
    parts.append(
        f'<text x="20" y="{(_MT + SVG_H - _MB) / 2:.1f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 20 {(_MT + SVG_H - _MB) / 2:.1f})">{_escape(ylabel)}</text>'
    )
    return parts


def _svg_polyline(xs, ys, x0, x1, y0, y1, color: str, width: float = 2.0, dash: str | None = None) -> str:
    pts = " ".join(f"{_xmap(x, x0, x1):.2f},{_ymap(y, y0, y1):.2f}" for x, y in zip(xs, ys))
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{width}"{extra}/>'


def _svg_legend(entries: list[tuple[str, str]]) -> list[str]:
    parts = []
    x = SVG_W - _MR - 240
    y = _MT + 14
    for label, color in entries:
        parts.append(f'<rect x="{x}" y="{y - 9}" width="18" height="9" fill="{color}"/>')
        parts.append(f'<text x="{x + 24}" y="{y}" font-size="12">{_escape(label)}</text>')
        y += 18
    return parts


def _svg_close(parts: list[str]) -> str:
    return "\n".join(parts + ["</svg>"]) + "\n"


# ---------------------------------------------------------------------------
# classify


def _finest_class(res: dict, n1: str, n2: str) -> str:
    d21, d12 = res["degraded_2_wrt_1"].holds, res["degraded_1_wrt_2"].holds
    if d21 and d12:
        return f"degraded in both directions ({n1} and {n2} are equivalent up to postprocessing)"
    if d21:
        return f"degraded ({n2} degraded w.r.t. {n1})"
    if d12:
        return f"degraded ({n1} degraded w.r.t. {n2})"
    l1, l2 = res["less_noisy_1"].holds, res["less_noisy_2"].holds
    if l1 or l2:
        return f"less noisy ({n1 if l1 else n2})"
    m1, m2 = res["more_capable_1"].holds, res["more_capable_2"].holds
    if m1 or m2:
        return f"more capable ({n1 if m1 else n2})"
    e1, e2 = res["essentially_less_noisy_1"], res["essentially_less_noisy_2"]
    if e1.holds or e2.holds:
        side = n1 if e1.holds else n2
        cls = (e1 if e1.holds else e2).diagnostics.get("sufficient_class", "uniform")
        return f"essentially less noisy ({side}), sufficient class: {cls}"
    return "none established at the tested resolution"


def cmd_classify(args: argparse.Namespace) -> int:
    from .classify import ordering_verdicts

    c1, c2, n1, n2 = _resolve_pair(args)
    step = 1.0 / args.grid
    res = ordering_verdicts(c1, c2, step=step, tol=args.tol)
    finest = _finest_class(res, n1, n2)
    if args.fmt == "json":
        doc = {
            "channel1": {"name": n1, "inputs": c1.input_size, "outputs": c1.output_size},
            "channel2": {"name": n2, "inputs": c2.input_size, "outputs": c2.output_size},
            "grid": args.grid,
            "tol": args.tol,
            "tests": {
                k: {"outcome": v.outcome.value, "diagnostics": v.diagnostics} for k, v in res.items()
            },
            "finest_class": finest,
        }
        _emit(args, _json_doc(doc))
        return 0
    labels = {
        "degraded_2_wrt_1": f"{n2} degraded w.r.t. {n1}",
        "degraded_1_wrt_2": f"{n1} degraded w.r.t. {n2}",
        "less_noisy_1": f"{n1} less noisy",
        "less_noisy_2": f"{n2} less noisy",
        "more_capable_1": f"{n1} more capable",
        "more_capable_2": f"{n2} more capable",
        "essentially_less_noisy_1": f"{n1} essentially less noisy",
        "essentially_less_noisy_2": f"{n2} essentially less noisy",
    }
    lines = [
        f"channel 1: {n1} ({c1.input_size} inputs, {c1.output_size} outputs)",
        f"channel 2: {n2} ({c2.input_size} inputs, {c2.output_size} outputs)",
    ]
    for key, verdict in res.items():
        line = f"{labels[key]}: {verdict.outcome.value}"
        d = verdict.diagnostics
        if "requested_step" in d:
            line += f" (searched at step {d['grid_step']:.3g}; asked {d['requested_step']:.3g})"
        if "face_pair_cap" in d:
            line += f" (faces checked for their first {d['face_pair_cap']} face/input pairs)"
        lines.append(line)
    lines.append(f"finest class: {finest}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# dcurve


def cmd_dcurve(args: argparse.Namespace) -> int:
    pts = d_curve(BscBecPair(args.p, args.e), samples=args.samples)
    if args.fmt == "csv":
        rows = ["x,D"] + [f"{x:.9f},{_fmt9(d)}" for x, d in pts]
        _emit(args, "\n".join(rows) + "\n")
    elif args.fmt == "json":
        _emit(args, _json_doc({"p": args.p, "e": args.e, "samples": args.samples, "points": pts}))
    else:
        ys = [d for _, d in pts]
        lo, hi = min(min(ys), 0.0), max(max(ys), 0.0)
        pad = 0.1 * max(hi - lo, SIMPLEX_TOL)
        y0, y1 = lo - pad, hi + pad
        parts = _svg_open(f"gap curve, p = {args.p:g}, e = {args.e:g}")
        parts += _svg_axes(0.0, 1.0, y0, y1, "input law parameter x", "D(x)")
        parts.append(_svg_polyline([0.0, 1.0], [0.0, 0.0], 0.0, 1.0, y0, y1, "#999999", 1.0, "4,4"))
        parts.append(_svg_polyline([x for x, _ in pts], ys, 0.0, 1.0, y0, y1, "#4477aa"))
        _emit(args, _svg_close(parts))
    return 0


# ---------------------------------------------------------------------------
# phase-map


def cmd_phase_map(args: argparse.Namespace) -> int:
    n = args.grid
    ps = np.linspace(0.0, 0.5, n)
    es = np.linspace(0.0, 1.0, n)
    tags, flags = regime(ps[:, None], es[None, :])
    names = [t.value for t in PairTag]
    if args.fmt == "csv":
        # each distinct p, e and (tag, boundary) suffix is formatted once
        es9 = [f"{e:.9f}" for e in es.tolist()]
        suffixes = [f",{name},{b}" for name in names for b in (0, 1)]
        rows = ["p,e,tag,boundary"]
        for p, codes in zip(ps.tolist(), (2 * tags + flags).tolist()):
            head = f"{p:.9f},"
            rows += [head + e + suffixes[c] for e, c in zip(es9, codes)]
        _emit(args, "\n".join(rows) + "\n")
        return 0
    mesh = itertools.product(ps.tolist(), es.tolist())
    cells = [(p, e, names[t], int(b)) for (p, e), t, b in zip(mesh, tags.flat, flags.flat)]
    if args.fmt == "json":
        _emit(
            args,
            _json_doc(
                {
                    "grid": n,
                    "cells": [{"p": p, "e": e, "tag": tag, "boundary": b} for p, e, tag, b in cells],
                }
            ),
        )
    else:
        parts = _svg_open("ordering regimes over (p, e)")
        cw = (SVG_W - _ML - _MR) / n
        ch = (SVG_H - _MT - _MB) / n
        for p, e, tag, _ in cells:
            px = _xmap(p, 0.0, 0.5) - cw / 2.0
            py = _ymap(e, 0.0, 1.0) - ch / 2.0
            parts.append(
                f'<rect x="{px:.2f}" y="{py:.2f}" width="{cw:.2f}" height="{ch:.2f}" '
                f'fill="{_TAG_COLORS[tag]}"/>'
            )
        dense = np.linspace(0.0, 0.5, 201)
        for curve, dash in zip(thresholds(dense), (None, "6,3", "2,3")):
            keep = curve <= 1.0 + SIMPLEX_TOL
            parts.append(
                _svg_polyline(dense[keep], np.clip(curve[keep], 0.0, 1.0), 0.0, 0.5, 0.0, 1.0, "#111111", 1.5, dash)
            )
        parts += _svg_axes(0.0, 0.5, 0.0, 1.0, "crossover rate p", "erasure rate e")
        parts += _svg_legend(
            [
                ("degraded (e <= 2p)", _TAG_COLORS[PairTag.DEGRADED_BSC_SIDE.value]),
                ("less noisy (e <= 4p(1-p))", _TAG_COLORS[PairTag.LESS_NOISY_BEC_SIDE.value]),
                ("more capable (e <= h(p))", _TAG_COLORS[PairTag.MORE_CAPABLE_BEC_SIDE.value]),
                ("essentially less noisy", _TAG_COLORS[PairTag.ESSENTIALLY_LESS_NOISY_BSC_SIDE.value]),
            ]
        )
        _emit(args, _svg_close(parts))
    return 0


# ---------------------------------------------------------------------------
# region


def _load_input_class(source: str, m: int, normalize: bool) -> list[Dist]:
    if source == "uniform":
        return [Dist.uniform(m)]
    if source == "uniform01":
        if m < 2:
            raise CliError("uniform01 needs an input alphabet of size at least 2")
        probs = np.zeros(m)
        probs[0] = probs[1] = 0.5
        return [Dist(probs)]
    try:
        with open(source) as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise CliError(f"class file not found: {source!r}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"class file {source!r} is not valid JSON: {exc}") from exc
    members = data["members"] if isinstance(data, dict) and "members" in data else data
    if not isinstance(members, list) or not members:
        raise CliError(f"class file {source!r} must hold a nonempty list of input laws")
    out = []
    for row in members:
        try:
            arr = np.asarray(row, dtype=float)
        except (TypeError, ValueError) as exc:
            raise CliError(f"class file {source!r}: every member must be a list of numbers") from exc
        if arr.ndim != 1 or arr.size != m:
            raise CliError(f"class member of length {arr.size} does not match input size {m}")
        try:
            out.append(Dist.normalized(arr) if normalize else Dist(arr))
        except DomainError as exc:
            raise CliError(f"class file {source!r}: {exc}") from exc
    return out


def _resolve_region_pair(args: argparse.Namespace) -> tuple[Dmc, Dmc, str, str]:
    """(dominant, weak) plus names; --bsc/--bec pick dominance by regime."""
    if args.channel1 is not None:
        return _resolve_pair(args)
    chan_s, chan_b = bsc(args.bsc_p), bec(args.bec_e)
    tag = classify_pair(BscBecPair(args.bsc_p, args.bec_e)).tag
    if tag is PairTag.ESSENTIALLY_LESS_NOISY_BSC_SIDE:
        return chan_s, chan_b, "BSC side", "BEC side"
    return chan_b, chan_s, "BEC side", "BSC side"


def cmd_region(args: argparse.Namespace) -> int:
    from .regions import frontier_csv, region_frontiers

    a, b, n1, n2 = _resolve_region_pair(args)
    if a.input_size != b.input_size:
        raise CliError("the two channels must share an input alphabet")
    m = a.input_size
    step = 1.0 / args.grid
    members = _load_input_class(args.input_class, m, args.normalize) if args.input_class else None
    frontiers = region_frontiers(a, b, args.which, members, step)
    # a point cap or the face-sweep floor can coarsen a sweep past 1/grid
    swept = max(fr.diagnostics["step"] for fr in frontiers.values())
    asked = f" (asked {step:g})" if swept != step else ""
    print(f"dominant: {n1}; weak: {n2}; step {swept:g}{asked}", file=sys.stderr)
    if args.fmt == "csv":
        if len(frontiers) == 1:
            _emit(args, frontier_csv(next(iter(frontiers.values()))))
        else:
            rows = ["which,r1,r2"]
            for name in args.which:
                rows += [f"{name},{pt.r1:.9f},{pt.r2:.9f}" for pt in frontiers[name].points]
            _emit(args, "\n".join(rows) + "\n")
    elif args.fmt == "json":
        doc = {
            "dominant": n1,
            "weak": n2,
            "step": swept,
            **({"requested_step": step} if swept != step else {}),
            "frontiers": {
                name: {
                    "points": [[pt.r1, pt.r2] for pt in fr.points],
                    "max_r1": fr.max_r1,
                    "max_r2": fr.max_r2,
                    "diagnostics": fr.diagnostics,
                }
                for name, fr in frontiers.items()
            },
        }
        _emit(args, _json_doc(doc))
    else:
        x1 = max(fr.max_r1 for fr in frontiers.values()) * 1.08 + VERDICT_TOL
        y1 = max(fr.max_r2 for fr in frontiers.values()) * 1.08 + VERDICT_TOL
        parts = _svg_open(f"rate frontiers ({n1} dominant)")
        parts += _svg_axes(0.0, x1, 0.0, y1, "r1 (dominant receiver)", "r2 (weak receiver)")
        legend = []
        for i, name in enumerate(args.which):
            fr = frontiers[name]
            color = _SERIES_COLORS[i % len(_SERIES_COLORS)]
            xs = [pt.r1 for pt in fr.points]
            ys = [pt.r2 for pt in fr.points]
            if len(xs) == 1:
                xs, ys = [0.0, xs[0]], [ys[0], ys[0]]
            parts.append(_svg_polyline(xs, ys, 0.0, x1, 0.0, y1, color))
            legend.append((name, color))
        parts += _svg_legend(legend)
        _emit(args, _svg_close(parts))
    return 0


# ---------------------------------------------------------------------------
# symmetry


def cmd_symmetry(args: argparse.Namespace) -> int:
    chans: list[tuple[str, Dmc]] = []
    if args.channel1 is not None:
        chans.append((args.channel1, _load_channel_source(args.channel1, 1, args.normalize)))
    if args.channel2 is not None:
        chans.append((args.channel2, _load_channel_source(args.channel2, 2, args.normalize)))
    if args.bsc_p is not None:
        chans.append((f"BSC({args.bsc_p:g})", bsc(args.bsc_p)))
    if args.bec_e is not None:
        chans.append((f"BEC({args.bec_e:g})", bec(args.bec_e)))
    report: dict = {"channels": []}
    for name, chan in chans:
        try:
            wit = detect_c_symmetry(chan)
        except DomainError as exc:
            report["channels"].append({"name": name, "status": f"search unavailable: {exc}"})
            continue
        if wit is None:
            report["channels"].append({"name": name, "status": "no cyclic symmetry found"})
        else:
            report["channels"].append(
                {"name": name, "status": "c-symmetric", "generator": list(wit.generator)}
            )
    # dominance is only defined for a c-symmetric pair; the status lines say why it is missing
    if len(chans) == 2 and all(entry["status"] == "c-symmetric" for entry in report["channels"]):
        from .classify import _gap_search, _require_same_input

        # both are known to be c-symmetric: no second symmetry search
        first, second = chans[0][1], chans[1][1]
        _require_same_input(first, second)
        [dom] = _gap_search(first.rows[None], second.rows[None], 1.0 / args.grid).dominant(0)
        report["uniform_dominance"] = {
            "first_over_second": dom.outcome.value,
            "diagnostics": dom.diagnostics,
        }
    if args.fmt == "json":
        _emit(args, _json_doc(report))
        return 0
    lines = []
    for entry in report["channels"]:
        if "generator" in entry:
            gen = ", ".join(str(g) for g in entry["generator"])
            lines.append(f"{entry['name']}: c-symmetric, generator ({gen})")
        else:
            lines.append(f"{entry['name']}: {entry['status']}")
    if "uniform_dominance" in report:
        lines.append(
            f"uniform-input dominance of {chans[0][0]} over {chans[1][0]}: "
            + report["uniform_dominance"]["first_over_second"]
        )
    _emit(args, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# verify-paper


def cmd_verify_paper(args: argparse.Namespace) -> int:
    from .verifysuite import check_names, run_suite

    if args.list_checks:
        _emit(args, "\n".join(check_names()) + "\n")
        return 0
    report = run_suite(grid=args.grid, seed=args.seed, only=args.check, tolerance=args.tolerance)
    if args.fmt == "json":
        _emit(args, report.to_json())
    else:
        _emit(args, "\n".join(report.text_lines()) + "\n")
    return 0 if report.all_pass else 1


# ---------------------------------------------------------------------------


_DISPATCH = {
    "classify": cmd_classify,
    "dcurve": cmd_dcurve,
    "phase-map": cmd_phase_map,
    "region": cmd_region,
    "symmetry": cmd_symmetry,
    "verify-paper": cmd_verify_paper,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        _validate(args)
        return _DISPATCH[args.command](args)
    except SystemExit:  # --help has printed; every parser rejection is a CliError
        return 0
    except (CliError, ChannelFormatError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
