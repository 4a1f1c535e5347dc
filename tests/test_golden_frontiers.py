"""Region frontiers against frozen copies of themselves.

``tests/data/golden_frontiers.json`` holds the frontiers of ``bcorder region
--format json`` on one BSC/BEC pair per regime and on paper6vi, for the
free bounds ``ib,ob`` and the class bounds ``theorem1,theorem2 --class
uniform``.  A change to the sweep's bookkeeping (how decompositions are
enumerated, batched or reduced) must keep every frontier's point count and
move no coordinate by more than GOLDEN_TOL.  A change that is meant to move
a frontier regenerates the file, and says why:

    PYTHONPATH=src python tests/test_golden_frontiers.py
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from bcorder.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_frontiers.json"
GOLDEN_TOL = 1e-15

# (p, e) per regime at p = 0.1: thresholds e = 2p, 4p(1-p), h(p) = 0.2, 0.36, 0.469
_PAIRS = {
    "degraded": ["--bsc", "0.1", "--bec", "0.15"],
    "less-noisy": ["--bsc", "0.1", "--bec", "0.3"],
    "more-capable": ["--bsc", "0.1", "--bec", "0.42"],
    "ess-less-noisy": ["--bsc", "0.1", "--bec", "0.5"],
    "paper6vi": ["--channel1", "paper6vi", "--channel2", "paper6vi"],
}
_BOUNDS = {
    "free": ["--which", "ib,ob"],
    "class": ["--which", "theorem1,theorem2", "--class", "uniform"],
}
CASES = {f"{pair}/{kind}": ["region", *args, *extra, "--format", "json"] for pair, args in _PAIRS.items() for kind, extra in _BOUNDS.items()}
# the binary mesh at --grid 100 spans 16 sweep runs
CASES["ess-less-noisy/free-grid100"] = ["region", *_PAIRS["ess-less-noisy"], *_BOUNDS["free"], "--grid", "100", "--format", "json"]


def _frontiers(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    assert code == 0, err.getvalue()
    doc = json.loads(out.getvalue())
    return {name: fr["points"] for name, fr in doc["frontiers"].items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case(golden):
    assert set(golden) == set(CASES)
    assert all(golden[case]["argv"] == argv for case, argv in CASES.items())


@pytest.mark.parametrize("case", sorted(CASES))
def test_frontiers_match_the_golden_copy(golden, case):
    want = golden[case]["frontiers"]
    got = _frontiers(CASES[case])
    assert set(got) == set(want)
    for name, points in want.items():
        assert len(got[name]) == len(points), name
        assert np.abs(np.array(got[name]) - np.array(points)).max() <= GOLDEN_TOL, name


if __name__ == "__main__":
    doc = {case: {"argv": argv, "frontiers": _frontiers(argv)} for case, argv in CASES.items()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc)} cases to {GOLDEN}", file=sys.stderr)
