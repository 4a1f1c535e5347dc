"""Tests of the benchmark itself: reproducibility, oracle and negative controls.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

import bcorder.cli  # noqa: E402


def cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = bcorder.cli.main(argv)
    return rc, out.getvalue()


def fail_ratio(runner: worker.Runner) -> float:
    result = {"latencies": runner.latencies, "probes": [1.0], "failures": runner.failures, "peak_rss_mb": 1.0}
    return 1.0 - run.end_to_end(result, [(1.0, 1.0)], 50)["ok_ratio"]["value"]


def first(ops, kind, **match):
    return next(op for op in ops if op["kind"] == kind and all(op.get(k) == v for k, v in match.items()))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_digest(workload):
    a = workloads.generate(workload, 7)
    b = workloads.generate(workload, 7)
    assert workloads.digest(workload, *a) == workloads.digest(workload, *b)


@pytest.mark.parametrize("workload", ("orderings", "regions"))
def test_seed_changes_inputs_not_composition(workload):
    a, fa = workloads.generate(workload, 1)
    b, fb = workloads.generate(workload, 2)
    assert workloads.digest(workload, a, fa) != workloads.digest(workload, b, fb)
    assert Counter(op["kind"] for op in a) == Counter(op["kind"] for op in b)


def test_regions_pass_runs_ob_before_theorems():
    ops, _ = workloads.generate("regions", 3)
    seen = set()
    for op in ops:
        if "ob" in op["which"]:
            seen.add(op["pair"])
        else:
            assert op["pair"] in seen


def test_oracle_reference_values():
    assert oracle.capacity(oracle.bsc_rows(0.1)) == pytest.approx(1.0 - float(oracle.h2(0.1)), abs=1e-10)
    assert oracle.capacity(oracle.bec_rows(0.3)) == pytest.approx(0.7, abs=1e-10)
    g01, g23 = oracle.paper6vi_gap_signs()
    assert g01 > 0.0 > g23
    assert oracle.regime(0.1, 0.15) == 0 and oracle.regime(0.1, 0.7) == 3


def test_tail_is_nearest_rank():
    assert run.nearest_rank([5.0, 1.0, 3.0, 2.0, 4.0], 50) == 3.0
    assert run.nearest_rank(list(range(1, 101)), 95) == 95


def test_negative_controls_raise_fail_ratio(tmp_path):
    """A wrong verdict, a frontier past capacity and a non-zero exit each fail."""
    ops, _ = workloads.generate("regions", 1)
    classify_op = first(workloads.generate("orderings", 1)[0], "classify-bscbec")
    region_op = first(ops, "region-bscbec", which=["ib", "ob"])

    runner = worker.Runner("orderings", [], str(tmp_path))
    rc, out = cli(classify_op["argv"])
    runner.record(classify_op, rc, out, "", 0.01)
    rc_r, out_r = cli(region_op["argv"])
    runner.record(region_op, rc_r, out_r, "", 0.01)
    assert runner.failures == [] and fail_ratio(runner) == 0.0

    doc = json.loads(out)
    verdict = doc["tests"]["more_capable_2"]
    verdict["outcome"] = "fails" if verdict["outcome"] == "holds" else "holds"
    wrong = worker.Runner("orderings", [], str(tmp_path))
    wrong.record(classify_op, rc, json.dumps(doc), "", 0.01)
    assert fail_ratio(wrong) > 0.0

    doc = json.loads(out_r)
    pts = doc["frontiers"]["ib"]["points"]
    pts[-1][0] += 0.01  # the r1 intercept of the ib frontier
    past = worker.Runner("regions", [], str(tmp_path))
    past.record(region_op, rc_r, json.dumps(doc), "", 0.01)
    assert fail_ratio(past) > 0.0

    exit2 = worker.Runner("orderings", [], str(tmp_path))
    exit2.record(classify_op, 2, out, "error: something", 0.01)
    assert fail_ratio(exit2) > 0.0


def test_theorem_outside_outer_bound_fails():
    ops, _ = workloads.generate("regions", 1)
    outer_op = first(ops, "region-bscbec", pair="degraded", which=["ib", "ob"])
    theorem_op = first(ops, "region-bscbec", pair="degraded", which=["theorem1", "theorem2"])
    orc = oracle.Oracle()
    orc.check(outer_op, *cli(outer_op["argv"]))
    rc, out = cli(theorem_op["argv"])
    orc.check(theorem_op, rc, out)
    doc = json.loads(out)
    doc["frontiers"]["theorem2"]["points"][0][1] += 0.05
    with pytest.raises(oracle.OracleError):
        orc.check(theorem_op, rc, json.dumps(doc))


def test_paper6vi_universal_verdict_fails_oracle():
    op = first(workloads.generate("orderings", 1)[0], "classify-paper6vi")
    rc, out = cli(op["argv"])
    orc = oracle.Oracle()
    orc.check(op, rc, out)
    doc = json.loads(out)
    doc["tests"]["more_capable_1"]["outcome"] = "holds"
    with pytest.raises(oracle.OracleError):
        orc.check(op, rc, json.dumps(doc))


def test_dcurve_sign_is_bsc_minus_bec():
    op = first(workloads.generate("cli-cold", 1)[0], "cold-dcurve")
    rc, out = cli(op["argv"])
    orc = oracle.Oracle()
    orc.check(op, rc, out)
    lines = out.splitlines()
    flipped = [lines[0]] + [f"{x},{-float(d):.9f}" for x, d in (ln.split(",") for ln in lines[1:])]
    with pytest.raises(oracle.OracleError):
        orc.check(op, rc, "\n".join(flipped) + "\n")


def test_phase_map_wrong_tag_fails():
    op = first(workloads.generate("cli-cold", 1)[0], "cold-phase-map")
    rc, out = cli(op["argv"])
    orc = oracle.Oracle()
    orc.check(op, rc, out)
    lines = out.splitlines()
    i = next(k for k, ln in enumerate(lines) if ln.startswith("0.100502513,0.502512563,"))
    lines[i] = lines[i].replace("essentially-less-noisy-bsc-side", "more-capable-bec-side")
    with pytest.raises(oracle.OracleError):
        orc.check(op, rc, "\n".join(lines) + "\n")


def test_symmetry_dominance_verdict_checked():
    op = first(workloads.generate("cli-cold", 1)[0], "cold-symmetry")
    rc, out = cli(op["argv"])
    orc = oracle.Oracle()
    orc.check(op, rc, out)
    with pytest.raises(oracle.OracleError):
        orc.check(op, rc, out.replace(": holds", ": fails"))


def test_tracer_counts_nested_spans_and_restores():
    import bcorder.channels
    import bcorder.classify

    original = bcorder.classify.mi_batch
    t = tracer.Tracer()
    t.install()
    try:
        assert bcorder.classify.mi_batch is bcorder.channels.mi_batch is not original
        rc, _ = cli(["classify", "--bsc", "0.1", "--bec", "0.3", "--format", "json"])
    finally:
        t.uninstall()
    assert rc == 0 and bcorder.classify.mi_batch is original
    assert t.absent == []
    metrics, coverage = tracer.layer_metrics(t.spans)
    assert metrics["cli.main.calls"] == 1
    assert metrics["cli.classify.busy_s"] == metrics["cli.main.busy_s"] > 0
    assert metrics["channels.mi_batch.single_row_calls"] > 0
    assert metrics["classify.linprog.calls"] == 2
    assert 0 < metrics["channels.mi_batch.self_s"] < metrics["channels.mi_batch.busy_s"]
    assert coverage["classify"] > 0.5
