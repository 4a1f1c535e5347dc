import copy
import functools
import io
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import bcorder
from bcorder import regions, verifysuite
from bcorder.bscbec import PHASE_GRID_CAP
from bcorder.channels import bec, bsc
from bcorder.cli import DCURVE_SAMPLES_CAP, main
from bcorder.verifysuite import check_names


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def check_svg(text):
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    assert root.attrib["width"] == "800"
    assert root.attrib["height"] == "600"
    # self-contained: the only URL is the svg namespace itself
    body = text.replace("http://www.w3.org/2000/svg", "")
    assert "http" not in body
    return root


def test_classify_degraded_regime():
    code, out, _ = run_cli("classify", "--bsc", "0.1", "--bec", "0.15")
    assert code == 0
    assert "finest class: degraded (BSC side degraded w.r.t. BEC side)" in out


def test_classify_less_noisy_regime():
    code, out, _ = run_cli("classify", "--bsc", "0.1", "--bec", "0.3")
    assert code == 0
    assert "finest class: less noisy (BEC side)" in out


def test_classify_more_capable_regime():
    code, out, _ = run_cli("classify", "--bsc", "0.1101", "--bec", "0.4")
    assert code == 0
    assert "finest class: more capable (BEC side)" in out


def test_classify_dominant_regime():
    code, out, _ = run_cli("classify", "--bsc", "0.1", "--bec", "0.5")
    assert code == 0
    assert "finest class: essentially less noisy (BSC side), sufficient class: uniform" in out


def test_classify_builtin_pair_json_deterministic():
    args = ("classify", "--channel1", "paper6vi", "--channel2", "paper6vi",
            "--grid", "20", "--format", "json")
    code1, out1, _ = run_cli(*args)
    code2, out2, _ = run_cli(*args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["finest_class"] == "none established at the tested resolution"
    assert doc["tests"]["more_capable_1"]["outcome"] == "fails"


def test_classify_text_shows_grid_coarsening(tmp_path):
    # six inputs at step 1/30 exceed the single-point grid cap, so the tests
    # search at 1/15; the text output must say so after the outcome
    rng = np.random.default_rng(5)
    paths = []
    for name in ("a", "b"):
        rows = rng.dirichlet([1.0, 1.0, 1.0], size=6)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"input_size": 6, "output_labels": ["0", "1", "2"], "rows": rows.tolist()}))
        paths.append(str(path))
    code, out, _ = run_cli("classify", "--channel1", paths[0], "--channel2", paths[1], "--grid", "30")
    assert code == 0
    verdicts = {}
    for line in out.splitlines():
        label, _, value = line.rpartition(": ")
        verdicts[label] = value
    less_noisy = verdicts[f"{paths[0]} less noisy"]
    assert less_noisy.split()[0] in ("holds", "fails")
    assert less_noisy.endswith("(searched at step 0.0667; asked 0.0333)")
    assert verdicts[f"{paths[0]} degraded w.r.t. {paths[1]}"] in ("holds", "fails")


def _three_input_files(tmp_path, p, e):
    """Channel files of BSC(p) and BEC(e) with a third input repeating input 0.

    The gap of the pair on three inputs is the binary gap at
    (x0 + x2, x1), so every ordering keeps its verdict, but the tests take
    the grid route, with its face scan, instead of the binary one.
    """
    paths = []
    for name, rows in (("bsc", bsc(p).rows), ("bec", bec(e).rows)):
        path = tmp_path / f"{name}3.json"
        labels = [str(o) for o in range(rows.shape[1])]
        path.write_text(json.dumps({"input_size": 3, "output_labels": labels, "rows": rows[[0, 1, 0]].tolist()}))
        paths.append(str(path))
    return paths


def test_classify_text_shows_face_cap(monkeypatch, tmp_path):
    # with a cap of one pair the one face scan of both directions stops at
    # its second face; only the BSC-over-BEC direction can pull, because
    # only the BEC has zero cells, so only it is cut
    monkeypatch.setattr("bcorder.classify._FACE_PAIR_CAP", 1)
    first, second = _three_input_files(tmp_path, 0.1, 0.5)
    code, out, _ = run_cli("classify", "--channel1", first, "--channel2", second)
    assert code == 0
    verdicts = dict(line.split(": ", 1) for line in out.splitlines())
    note = "(faces checked for their first 1 face/input pairs)"
    for test in ("less noisy", "more capable"):
        assert verdicts[f"{first} {test}"].endswith(note)
        assert verdicts[f"{first} {test}"].split()[0] in ("holds", "fails")
        assert verdicts[f"{second} {test}"] in ("holds", "fails")


def test_classify_rejects_mixed_pair_style():
    code, _, err = run_cli("classify", "--bsc", "0.1", "--channel1", "paper6vi")
    assert code == 2
    assert "give either" in err


def test_classify_rejects_out_of_range_rate():
    code, _, err = run_cli("classify", "--bsc", "0.7", "--bec", "0.5")
    assert code == 2
    assert "--bsc" in err


def test_grid_validation():
    code, _, err = run_cli("classify", "--bsc", "0.1", "--bec", "0.5", "--grid", "1")
    assert code == 2
    assert "--grid" in err


def test_dcurve_csv_golden_rows():
    code, out, _ = run_cli("dcurve", "--p", "0.1", "--e", "0.5", "--samples", "1001")
    assert code == 0
    rows = out.strip().split("\n")
    assert rows[0] == "x,D"
    assert len(rows) == 1002
    assert rows[1] == "0.000000000,0.000000000"
    assert rows[501] == "0.500000000,0.031004406"
    assert rows[-1] == "1.000000000,0.000000000"
    assert "-0.000000000" not in out


def test_dcurve_svg():
    code, out, _ = run_cli("dcurve", "--p", "0.1", "--e", "0.5", "--samples", "101",
                           "--format", "svg")
    assert code == 0
    check_svg(out)


def test_dcurve_out_file(tmp_path):
    target = tmp_path / "curve.csv"
    code, out, _ = run_cli("dcurve", "--p", "0.1", "--e", "0.5", "--samples", "11",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("x,D\n")
    assert text.endswith("\n")


def test_phase_map_csv_edge_column():
    code, out, _ = run_cli("phase-map", "--grid", "11")
    assert code == 0
    rows = out.strip().split("\n")
    assert rows[0] == "p,e,tag,boundary"
    assert len(rows) == 1 + 11 * 11
    for row in rows[1:12]:  # the p = 0 column
        p, e, tag, _ = row.split(",")
        assert p == "0.000000000"
        if float(e) > 0:
            assert tag == "essentially-less-noisy-bsc-side"
        else:
            assert tag == "degraded-bsc-side"


@pytest.mark.parametrize("grid", [2, 3, 37, 200])
def test_phase_map_csv_matches_per_cell_rendering(grid):
    from bcorder.bscbec import PairTag, regime

    ps, es = np.linspace(0.0, 0.5, grid), np.linspace(0.0, 1.0, grid)
    tags, flags = regime(ps[:, None], es[None, :])
    assert flags.any() and not flags.all()  # both suffixes of a tag occur
    names = [t.value for t in PairTag]
    want = ["p,e,tag,boundary"]
    for i, p in enumerate(ps.tolist()):
        for j, e in enumerate(es.tolist()):
            want.append(f"{p:.9f},{e:.9f},{names[tags[i, j]]},{int(flags[i, j])}")
    assert run_cli("phase-map", "--grid", str(grid)) == (0, "\n".join(want) + "\n", "")


def test_phase_map_svg():
    code, out, _ = run_cli("phase-map", "--grid", "12", "--format", "svg")
    assert code == 0
    root = check_svg(out)
    rects = [el for el in root.iter() if el.tag.endswith("rect")]
    assert len(rects) >= 144


def test_region_single_frontier_csv():
    code, out, err = run_cli("region", "--bsc", "0.1", "--bec", "0.5",
                             "--which", "ib", "--grid", "25")
    assert code == 0
    assert "dominant: BSC side; weak: BEC side" in err
    rows = out.strip().split("\n")
    assert rows[0] == "r1,r2"
    first = rows[1].split(",")
    last = rows[-1].split(",")
    assert first[0] == "0.000000000"
    assert first[1] == "0.500000000"
    assert last[0] == "0.531004406"
    assert last[1] == "0.000000000"


def test_region_role_swap_on_degraded_pair():
    code, _, err = run_cli("region", "--bsc", "0.1", "--bec", "0.15",
                           "--which", "ib", "--grid", "25")
    assert code == 0
    assert "dominant: BEC side; weak: BSC side" in err


def test_region_multi_frontier_csv_deterministic():
    args = ("region", "--bsc", "0.1", "--bec", "0.5", "--grid", "25")
    code1, out1, _ = run_cli(*args)
    code2, out2, _ = run_cli(*args)
    assert code1 == code2 == 0
    assert out1 == out2
    rows = out1.strip().split("\n")
    assert rows[0] == "which,r1,r2"
    names = {row.split(",")[0] for row in rows[1:]}
    assert names == {"ib", "ob"}


def test_region_theorem2_builtin_pair():
    code, out, _ = run_cli("region", "--channel1", "paper6vi", "--channel2", "paper6vi",
                           "--which", "theorem2", "--class", "uniform01",
                           "--grid", "25", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    fr = doc["frontiers"]["theorem2"]
    assert fr["max_r1"] == pytest.approx(1.0, abs=1e-9)
    assert fr["max_r2"] == pytest.approx(0.5310044064107188, abs=1e-9)


def test_region_reports_the_coarsest_swept_step():
    # a full-support class on 4 inputs pins its |U|=2 grid over all 4
    # letters, which the pair-grid cap coarsens from 1/50 to 0.08
    args = ("region", "--channel1", "paper6vi", "--channel2", "paper6vi",
            "--which", "theorem2", "--class", "uniform", "--grid", "50")
    code, out, err = run_cli(*args, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["frontiers"]["theorem2"]["diagnostics"]["step"] == 0.08
    assert doc["step"] == 0.08 and doc["requested_step"] == 0.02
    assert "step 0.08 (asked 0.02)" in err
    code, _, err = run_cli(*args)
    assert code == 0 and "step 0.08 (asked 0.02)" in err
    code, out, err = run_cli("region", "--bsc", "0.1", "--bec", "0.5", "--which", "ib",
                             "--grid", "10", "--format", "json")
    assert code == 0 and "step 0.1\n" in err
    assert json.loads(out)["step"] == 0.1 and "requested_step" not in json.loads(out)


def test_region_class_file(tmp_path):
    path = tmp_path / "laws.json"
    path.write_text(json.dumps({"members": [[0.5, 0.5]]}))
    code, out, _ = run_cli("region", "--bsc", "0.1", "--bec", "0.5",
                           "--which", "ib", "--class", str(path), "--grid", "25")
    assert code == 0
    assert out.startswith("r1,r2\n")


def test_region_ib_rejects_multi_member_class(tmp_path):
    path = tmp_path / "laws.json"
    path.write_text(json.dumps([[0.5, 0.5], [0.3, 0.7]]))
    code, _, err = run_cli("region", "--bsc", "0.1", "--bec", "0.5",
                           "--which", "ib", "--class", str(path), "--grid", "25")
    assert code == 2
    assert "exactly one member" in err


def test_region_json_prints_booleans():
    code, out, _ = run_cli("region", "--bsc", "0.1", "--bec", "0.5", "--which", "ib",
                           "--grid", "10", "--format", "json")
    assert code == 0
    assert '"constrained": false' in out and '"aux3_swept": true' in out
    diag = json.loads(out)["frontiers"]["ib"]["diagnostics"]
    assert diag["constrained"] is False and diag["aux3_swept"] is True


@pytest.mark.parametrize("content", [[["a", "b"]], {"members": [{"x": 1}]}, [[0.5, [0.5]]]])
def test_region_malformed_class_file(tmp_path, content):
    path = tmp_path / "laws.json"
    path.write_text(json.dumps(content))
    code, out, err = run_cli("region", "--bsc", "0.1", "--bec", "0.5",
                             "--which", "theorem1", "--class", str(path), "--grid", "10")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_region_unknown_name():
    for name in ("foo", "vx"):
        code, _, err = run_cli("region", "--bsc", "0.1", "--bec", "0.5", "--which", name)
        assert code == 2
        assert "unknown region name" in err
    # a repeated name would print one unlabelled CSV frontier, draw two SVG
    # polylines and key one JSON frontier
    for which in ("ib,ib", "ob,ib,ob"):
        code, out, err = run_cli("region", "--bsc", "0.1", "--bec", "0.5", "--which", which)
        _assert_rejected(code, out, err)
        assert "more than once" in err


def test_region_svg():
    code, out, _ = run_cli("region", "--bsc", "0.1", "--bec", "0.5", "--grid", "25",
                           "--format", "svg")
    assert code == 0
    root = check_svg(out)
    lines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(lines) >= 2


def test_symmetry_report():
    code, out, _ = run_cli("symmetry", "--bsc", "0.1", "--bec", "0.5")
    assert code == 0
    assert "BSC(0.1): c-symmetric, generator (1, 0)" in out
    assert "BEC(0.5): c-symmetric, generator (2, 1, 0)" in out
    assert "uniform-input dominance of BSC(0.1) over BEC(0.5): holds" in out


def test_symmetry_report_without_c_symmetric_pair():
    # uniform dominance is defined for c-symmetric pairs only; the status
    # lines say why it is missing
    code, out, _ = run_cli("symmetry", "--channel1", "paper6vi", "--channel2", "paper6vi")
    assert code == 0
    assert out == "paper6vi: no cyclic symmetry found\npaper6vi: no cyclic symmetry found\n"
    code, out, _ = run_cli("symmetry", "--channel1", "paper6vi", "--channel2", "paper6vi",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert "uniform_dominance" not in doc
    assert [c["status"] for c in doc["channels"]] == ["no cyclic symmetry found"] * 2


def test_malformed_channel_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"input_size": 2}))
    code, _, err = run_cli("classify", "--channel1", str(path), "--channel2", str(path))
    assert code == 2
    assert "error:" in err


def test_channel_file_with_non_list_labels(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"input_size": 2, "output_labels": 5, "rows": [[1, 0], [0, 1]]}))
    code, _, err = run_cli("classify", "--channel1", str(path), "--channel2", str(path))
    assert code == 2
    assert err.startswith("error: ") and "output_labels" in err


def test_missing_channel_file():
    code, _, err = run_cli("classify", "--channel1", "/nonexistent/chan.json",
                           "--channel2", "/nonexistent/chan.json")
    assert code == 2
    assert "error:" in err


# Malformed-input fuzz: each example breaks one valid document in one way,
# so every generated file is invalid by construction.
_FUZZ = settings(max_examples=80, deadline=None, derandomize=True, database=None)
_CHANNEL = {"input_size": 2, "output_labels": ["0", "e", "1"], "rows": [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]]}
_CLASS = [[0.5, 0.5], [0.25, 0.75]]
# JSON scalars and small objects, never a list
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(alphabet="xyz{[", max_size=4),
    st.dictionaries(st.sampled_from("ab"), st.integers(), max_size=2),
)
_NOT_A_NUMBER = st.one_of(
    st.none(),
    st.text(alphabet="xyz", max_size=3),
    st.lists(st.integers(), min_size=2, max_size=3),
    st.dictionaries(st.sampled_from("ab"), st.integers(), max_size=2),
)


def _bad_entry(draw, kind: str, value: float):
    """A replacement for one probability: not a number, or a number off by more than 1e-9."""
    if kind == "entry":
        return draw(_NOT_A_NUMBER)
    bad = draw(st.floats(allow_nan=True, allow_infinity=True))
    assume(not abs(bad - value) <= 1e-9)
    return bad


def _truncated(draw, text: str) -> str:
    return text[: draw(st.integers(0, len(text) - 1))]  # no proper prefix of an object or list parses


@st.composite
def _malformed_channel(draw) -> str:
    doc = copy.deepcopy(_CHANNEL)
    how = draw(
        st.sampled_from(("top", "drop", "labels", "label-count", "rows", "size", "entry", "value", "ragged", "cut"))
    )
    if how == "top":
        doc = draw(_JUNK)
    elif how == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif how == "labels":
        doc["output_labels"] = draw(_JUNK)
    elif how == "label-count":
        doc["output_labels"] = draw(st.lists(st.text(max_size=2), max_size=5).filter(lambda v: len(v) != 3))
    elif how == "rows":
        rows = st.lists(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3), max_size=4)
        doc["rows"] = draw(st.one_of(_JUNK, rows.filter(lambda v: len(v) != 2)))
    elif how == "size":
        doc["input_size"] = draw(_JUNK.filter(lambda v: v != 2))
    elif how in ("entry", "value"):
        row = doc["rows"][draw(st.integers(0, 1))]
        j = draw(st.integers(0, 2))
        row[j] = _bad_entry(draw, how, row[j])
    elif how == "ragged":
        doc["rows"][draw(st.integers(0, 1))].pop()
    text = json.dumps(doc)
    return _truncated(draw, text) if how == "cut" else text


@st.composite
def _malformed_class(draw) -> str:
    members = copy.deepcopy(_CLASS)
    how = draw(st.sampled_from(("top", "empty", "member", "length", "entry", "value", "cut")))
    k = draw(st.integers(0, len(members) - 1))
    if how == "empty":
        members = []
    elif how == "member":
        members[k] = draw(_JUNK)
    elif how == "length":
        members[k] = draw(st.lists(st.floats(0.0, 1.0), max_size=4).filter(lambda v: len(v) != 2))
    elif how in ("entry", "value"):
        j = draw(st.integers(0, 1))
        members[k][j] = _bad_entry(draw, how, members[k][j])
    doc = draw(_JUNK) if how == "top" else members if draw(st.booleans()) else {"members": members}
    text = json.dumps(doc)
    return _truncated(draw, text) if how == "cut" else text


def _assert_rejected(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@_FUZZ
@given(text=_malformed_channel())
def test_fuzz_malformed_channel_file_exits_two(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("chan") / "chan.json"
    path.write_text(text)
    _assert_rejected(*run_cli("classify", "--channel1", str(path), "--channel2", str(path)))


@_FUZZ
@given(text=_malformed_class())
def test_fuzz_malformed_class_file_exits_two(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("laws") / "laws.json"
    path.write_text(text)
    _assert_rejected(*run_cli("region", "--bsc", "0.1", "--bec", "0.5", "--which", "theorem1",
                              "--class", str(path), "--grid", "4"))


_NON_FINITE = st.sampled_from((math.nan, math.inf, -math.inf))


def _outside(lo: float, hi: float):
    """NaN, +-inf, or a float at least 1e-6 outside [lo, hi]."""
    return _NON_FINITE | st.floats(max_value=lo - 1e-6) | st.floats(min_value=hi + 1e-6)


# every value is rejected before any computation or allocation; the values
# drawn above a size bound reach _HUGE, past the largest float (1.8e308)
_HUGE = 10**400
_FLOAT_MAX_INT = int(sys.float_info.max)
_MESH_GRID_MIN = int(regions._SWEEP_CAP ** (1.0 / 3.0))  # (grid+1)^3 binary decompositions
_PINNED_GRID_MIN = 10**5  # (grid-1) x 1000-2000 pinned binary decompositions
_BSC_BEC = ("--bsc", "0.1", "--bec", "0.5")
_DCURVE = ("dcurve", "--p", "0.1", "--e", "0.5")

# (flag, invalid values only, command lines that read the flag)
_BAD_FLAGS = (
    ("--bsc", _outside(0.0, 0.5), (("classify", "--bec", "0.5"), ("region", "--bec", "0.5"), ("symmetry",))),
    ("--bec", _outside(0.0, 1.0), (("classify", "--bsc", "0.1"), ("region", "--bsc", "0.1"), ("symmetry",))),
    ("--p", _outside(0.0, 0.5), (("dcurve", "--e", "0.5"),)),
    ("--e", _outside(0.0, 1.0), (("dcurve", "--p", "0.1"),)),
    ("--tol", _NON_FINITE | st.floats(max_value=0.0), (("classify", *_BSC_BEC),)),
    ("--tolerance", _NON_FINITE | st.floats(max_value=-1e-6), (("verify-paper", "--check", "aux-informations"),)),
    ("--grid", st.integers(max_value=1), (("phase-map",), _DCURVE, ("verify-paper",))),
    ("--grid", st.integers(_FLOAT_MAX_INT + 1, _HUGE),
     (("classify", *_BSC_BEC), ("symmetry", *_BSC_BEC), ("verify-paper",), _DCURVE)),
    ("--grid", st.integers(PHASE_GRID_CAP + 1, _HUGE), (("phase-map",), ("verify-paper", "--check", "threshold-grid"))),
    ("--grid", st.integers(_MESH_GRID_MIN, _HUGE), (("region", *_BSC_BEC), ("verify-paper",))),
    ("--seed", st.integers(max_value=-1), (("verify-paper", "--check", "derivative-check"),)),
    ("--grid", st.integers(_PINNED_GRID_MIN, _HUGE), (("region", *_BSC_BEC, "--which", "theorem1", "--class", "uniform"),)),
    ("--samples", st.integers(max_value=1) | st.integers(DCURVE_SAMPLES_CAP + 1, _HUGE), (_DCURVE,)),
)


@st.composite
def _bad_flag(draw) -> list[str]:
    flag, values, commands = draw(st.sampled_from(_BAD_FLAGS))
    return [*draw(st.sampled_from(commands)), f"{flag}={draw(values)!r}"]


@_FUZZ
@given(argv=_bad_flag())
def test_fuzz_invalid_flag_value_exits_two(argv):
    _assert_rejected(*run_cli(*argv))


# argparse's own rejections: (argv, what is at fault, how the message says so)
@pytest.mark.parametrize(
    ("argv", "culprit", "reason"),
    [
        ((), "command", "the following arguments are required"),
        (("bogus",), "command", "invalid choice: 'bogus'"),
        (("classify", "--bogus"), "--bogus", "unrecognized arguments"),
        (("region", *_BSC_BEC, "--format", "pdf"), "--format", "invalid choice: 'pdf'"),
        (("dcurve", "--e", "0.5"), "--p", "the following arguments are required"),
        (("classify", *_BSC_BEC, "--grid", "x"), "--grid", "invalid int value: 'x'"),
        (("classify", "--bsc", "abc", "--bec", "0.5"), "--bsc", "invalid float value: 'abc'"),
    ],
)
def test_parser_rejections_print_one_error_line(argv, culprit, reason):
    code, out, err = run_cli(*argv)
    _assert_rejected(code, out, err)
    assert culprit in err and reason in err


@pytest.mark.parametrize(
    "argv",
    [
        ("region", *_BSC_BEC, "--which", "foo\nbar"),
        ("classify", "--channel1", "no\nfile", "--channel2", "paper6vi"),
        ("region", *_BSC_BEC, "--which", "theorem1", "--class", "no\nfile"),
        ("classify", "--channel1", "{bad}", "--channel2", "{bad}"),
        ("region", *_BSC_BEC, "--which", "theorem1", "--class", "{bad}"),
    ],
)
def test_rejections_quote_user_text_with_a_newline(tmp_path, argv):
    # the text is quoted as a Python literal, so its newline prints as \n
    # and the rejection stays one line; {bad} is a file of invalid JSON
    bad = tmp_path / "bad\nname.json"
    bad.write_text("{")
    code, out, err = run_cli(*(str(bad) if a == "{bad}" else a for a in argv))
    _assert_rejected(code, out, err)
    assert "\\n" in err


def test_verify_grid_caps_refuse_before_any_check_runs(monkeypatch):
    cap = verifysuite._REGION_GRID_CAP
    assert (cap + 1) ** 3 <= regions._SWEEP_CAP < (cap + 2) ** 3
    code, out, _ = run_cli("verify-paper", "--check", "derivative-check", "--grid", "10000")
    assert code == 0 and "1/1 checks passed" in out  # a check that ignores --grid has no cap

    def ran(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verifysuite, "_CHECKS", tuple((*entry[:3], ran) for entry in verifysuite._CHECKS))
    for argv in (("--grid", str(cap + 1)), ("--check", "threshold-grid", "--grid", str(PHASE_GRID_CAP + 1))):
        _assert_rejected(*run_cli("verify-paper", *argv))


def test_verify_list_matches_registry():
    code, out, _ = run_cli("verify-paper", "--list")
    assert code == 0
    assert out.strip().split("\n") == list(check_names())


def test_verify_unknown_check():
    code, _, err = run_cli("verify-paper", "--check", "nope")
    assert code == 2
    assert "unknown check name" in err


def test_verify_single_check_passes():
    code, out, _ = run_cli("verify-paper", "--check", "conditional-gap")
    assert code == 0
    assert "[PASS] conditional-gap" in out
    assert "1/1 checks passed" in out


def test_verify_tight_tolerance_fails():
    code, out, _ = run_cli("verify-paper", "--check", "aux-informations",
                           "--tolerance", "1e-12")
    assert code == 1
    assert "[FAIL] aux-informations" in out


def test_verify_json_deterministic():
    args = ("verify-paper", "--check", "aux-informations", "--format", "json")
    code1, out1, _ = run_cli(*args)
    code2, out2, _ = run_cli(*args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["checks"][0]["name"] == "aux-informations"
    assert doc["checks"][0]["passed"] is True


def test_flags_are_registered_only_where_read():
    # only classify reads --tol and only verify-paper reads --seed
    for argv in (("region", "--bsc", "0.1", "--bec", "0.5", "--tol", "1e-6"),
                 ("classify", "--bsc", "0.1", "--bec", "0.5", "--seed", "1")):
        code, out, err = run_cli(*argv)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err and "Traceback" not in err
    code, out, _ = run_cli("verify-paper", "--check", "aux-informations", "--seed", "0")
    assert code == 0
    assert "aux-informations" in out


def test_help_exits_zero():
    code, out, _ = run_cli("--help")
    assert code == 0
    assert "classify" in out


def test_main_builds_its_parser_once(monkeypatch):
    from bcorder import cli

    built = []

    def counted():
        built.append(1)
        return cli.build_parser()

    monkeypatch.setattr(cli, "_parser", functools.cache(counted))
    assert run_cli("classify", "--bsc", "0.1")[0] == 2
    code, out, _ = run_cli("--help")
    assert code == 0 and out == cli.build_parser().format_help()
    assert run_cli("classify", "--bsc", "0.1", "--bec", "0.5")[0] == 0
    assert built == [1]
    # build_parser itself still builds a fresh parser on every call
    assert cli.build_parser() is not cli.build_parser()


def test_no_command_exits_two():
    code, _, _ = run_cli()
    assert code == 2


def test_cli_import_leaves_scipy_optimize_unloaded():
    # both LPs run on a numpy simplex kernel, so importing the CLI, and the
    # two commands that solve LPs, load no scipy module at all
    src = os.path.dirname(os.path.dirname(bcorder.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import contextlib, io, sys, bcorder.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = bcorder.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "print(code, sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    for argv in ([], ["classify", "--bsc", "0.1", "--bec", "0.5"], ["verify-paper"]):
        res = subprocess.run(
            [sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert res.stdout == "0 []\n", (argv, res.stdout, res.stderr)


def test_classify_searches_the_gap_once_and_each_channel_once(monkeypatch, tmp_path):
    from bcorder import classify

    counts = {"refine": 0, "symmetry": 0, "grid": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(classify, "_refine_extremum", counted("refine", classify._refine_extremum))
    monkeypatch.setattr(classify, "detect_c_symmetry", counted("symmetry", classify.detect_c_symmetry))
    monkeypatch.setattr(classify, "simplex_grid", counted("grid", classify.simplex_grid))
    bsc_path, bec_path = _three_input_files(tmp_path, 0.1, 0.5)
    argv = ("classify", "--channel1", bsc_path, "--channel2", bec_path, "--format", "json")
    first = run_cli(*argv)
    counts.update(refine=0, symmetry=0, grid=0)
    assert run_cli(*argv) == first
    # the two extrema behind the four gap tests share one lockstep refinement, the two
    # essentially-less-noisy directions one symmetry search per channel,
    # and the warm grid cache serves the gap searches and the curvature scan
    assert counts == {"refine": 1, "symmetry": 2, "grid": 0}


def test_symmetry_searches_each_channel_once(monkeypatch):
    from bcorder import channels, classify, cli

    searched = []

    def counted(channel):
        searched.append(channel.rows.tobytes())
        return channels.detect_c_symmetry(channel)

    monkeypatch.setattr(cli, "detect_c_symmetry", counted)
    monkeypatch.setattr(classify, "detect_c_symmetry", counted)
    code, out, _ = run_cli("symmetry", "--bsc", "0.1", "--bec", "0.5")
    assert code == 0 and "uniform-input dominance of BSC(0.1) over BEC(0.5): holds" in out
    assert searched == [channels.bsc(0.1).rows.tobytes(), channels.bec(0.5).rows.tobytes()]


def test_symmetry_rejects_c_symmetric_channels_of_different_input_sizes(tmp_path):
    path = tmp_path / "ternary.json"
    rows = [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]
    path.write_text(json.dumps({"input_size": 3, "output_labels": ["0", "1", "2"], "rows": rows}))
    code, _, err = run_cli("symmetry", "--channel1", str(path), "--bsc", "0.1")
    assert code == 2 and "input alphabets differ: 3 vs 2" in err


def test_cli_import_leaves_xml_sax_and_urllib_unloaded():
    # xml.sax.saxutils pulls in urllib.request, http.client, email and ssl,
    # tens of milliseconds of every cold start, for three replacements
    src = os.path.dirname(os.path.dirname(bcorder.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, bcorder.cli; sys.exit(int('xml.sax' in sys.modules or 'urllib.request' in sys.modules))"
    res = subprocess.run([sys.executable, "-c", probe], env=env, timeout=120)
    assert res.returncode == 0


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(text=st.text(alphabet=st.sampled_from("&<>;a# \"'amp"), max_size=12) | st.text(max_size=12))
def test_escape_matches_saxutils(text):
    from xml.sax.saxutils import escape

    from bcorder.cli import _escape

    assert _escape(text) == escape(text)
