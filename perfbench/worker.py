"""One measuring process of the benchmark; started by run.py, never by hand.

The process sets itself up the way a user's process would: interpreter
start, ``import bcorder.cli``, the seeded operation list and its channel
files, and the oracle.  It then prints ``READY``, so the launcher can time
the set-up.  With ``--mode setup`` it stops there.  With ``--mode measure``
it runs whole passes over the operation list, one caller in a closed loop,
checks every operation against the oracle and writes a JSON result file.

In-process workloads call ``bcorder.cli.main(argv)``; ``cli-cold`` starts a
fresh ``python -m bcorder.cli`` per operation.  With ``--trace 1`` traced
and untraced passes alternate, and only the traced ones record spans.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import bcorder.cli
import oracle
import tracer
import workloads

HERE = Path(__file__).resolve().parent
OP_TIMEOUT_S = 150
MAX_TRACED_PAIRS = 3
IMPORTTIME_RUNS = 3

# speed probes per operation, keyed by "operation is a fresh process": such
# an operation lasts seconds, so it gets more samples
PROBES_PER_OP = {False: 1, True: 20}
SETUP_PROBES = 30
_PROBE_SMALL = np.linspace(0.01, 0.99, 192).reshape(64, 3)
_PROBE_LARGE = np.linspace(0.01, 0.99, 1 << 16)


def speed_probe() -> float:
    """Seconds for a fixed slice of interpreter, small-array and large-array work.

    The host's CPU speed drifts by a third within minutes on a shared
    machine.  Timed next to every operation, this fixed work moves with that
    drift, so times divided by its median are steady; the probe touches no
    bcorder code, so a change to bcorder cannot move it.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(2000):
        acc += i * 0.5
    for _ in range(40):
        acc += float(np.log2(_PROBE_SMALL + 1.0).sum(axis=1)[0])
    for _ in range(4):
        acc += float(np.sum(_PROBE_LARGE * np.log2(_PROBE_LARGE)))
    return time.perf_counter() - t0


def _run_inproc(argv: list[str]) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = bcorder.cli.main(argv)
    except Exception as exc:  # a traceback is a failed operation, not a failed run
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


def _run_cold(argv: list[str], span_file: str | None) -> tuple[int | None, str, str]:
    if span_file is None:
        cmd = [sys.executable, "-m", "bcorder.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), span_file, *argv]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "", f"timed out after {OP_TIMEOUT_S} s"
    return proc.returncode, proc.stdout, proc.stderr


class Runner:
    """Runs passes over one operation list and keeps the tallies."""

    def __init__(self, workload: str, ops: list[dict], workdir: str) -> None:
        self.cold = workload == "cli-cold"
        self.ops = ops
        self.workdir = workdir
        self.oracle = oracle.Oracle()
        self.latencies: list[float] = []
        self.probes: list[float] = []
        self.failures: list[str] = []
        self.tracer: tracer.Tracer | None = None
        self.trace_spans: list[list] = []
        self._op_index = 0

    def run_pass(self, traced: bool = False) -> None:
        """Run every operation once."""
        if traced and not self.cold:
            self.tracer.install()
        try:
            for op in self.ops:
                self._run_op(op, traced)
        finally:
            if traced and not self.cold:
                self.tracer.uninstall()

    def _run_op(self, op: dict, traced: bool) -> None:
        argv = workloads.bind(op["argv"], self.workdir)
        span_file = os.path.join(self.workdir, "spans.jsonl") if traced and self.cold else None
        if traced and not self.cold:
            self.tracer.op = self._op_index
        self.probes.extend(speed_probe() for _ in range(PROBES_PER_OP[self.cold]))
        t0 = time.perf_counter()
        if self.cold:
            rc, out, err = _run_cold(argv, span_file)
        else:
            rc, out, err = _run_inproc(argv)
        dt = time.perf_counter() - t0
        if span_file is not None and os.path.exists(span_file):
            spans = tracer.load_spans(span_file)
            os.remove(span_file)
            for s in spans:
                s[3] = self._op_index  # the operation field of a span record
            self.trace_spans.extend(spans)
        self._op_index += 1
        self.record(op, rc, out, err, dt)

    def record(self, op: dict, rc: int | None, out: str, err: str, dt: float) -> None:
        """Tally one operation; a wrong or unparsable output is a failure."""
        self.latencies.append(dt)
        try:
            self.oracle.check(op, rc, out)
        except (oracle.OracleError, ValueError, KeyError, IndexError, TypeError) as exc:
            detail = err.strip().splitlines()[-1:] if rc != 0 else []
            self.failures.append(f"{' '.join(op['argv'])}: {type(exc).__name__}: {exc} {' '.join(detail)}".strip())


def _measure(runner: Runner, seconds: float, min_passes: int) -> int:
    """Whole passes while the next one is expected to end within ``seconds``."""
    start = time.perf_counter()
    passes = 0
    while True:
        runner.run_pass()
        passes += 1
        elapsed = time.perf_counter() - start
        if passes >= min_passes and elapsed * (passes + 1) / passes > seconds:
            return passes


def _measure_traced(runner: Runner, seconds: float) -> tuple[int, float]:
    """Alternate untraced and traced passes; returns (traced passes, overhead).

    In-process, a first untraced pass lets lazy imports and first-call
    set-up finish, so that the overhead ratio compares warm passes only.
    """
    runner.tracer = tracer.Tracer()
    start = time.perf_counter()
    if not runner.cold:
        runner.run_pass()
    plain = traced = 0.0
    pairs = 0
    while True:
        t0 = time.perf_counter()
        runner.run_pass()
        t1 = time.perf_counter()
        runner.run_pass(traced=True)
        t2 = time.perf_counter()
        plain += t1 - t0
        traced += t2 - t1
        pairs += 1
        elapsed = t2 - start
        if pairs >= MAX_TRACED_PAIRS or elapsed * (pairs + 1) / pairs > seconds:
            return pairs, traced / plain


def _import_times() -> dict[str, float]:
    """Seconds spent in numpy, scipy and bcorder modules of a cold import.

    Sums the self times ``python -X importtime`` reports per module, so
    nested imports are not counted twice; median of a few runs.
    """
    samples: dict[str, list[float]] = {"numpy": [], "scipy": [], "bcorder": []}
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import bcorder.cli"],
            capture_output=True,
            text=True,
            timeout=OP_TIMEOUT_S,
            check=True,
        )
        sums = dict.fromkeys(samples, 0)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _, name = line[len("import time:") :].split("|")
            top = name.strip().split(".")[0]
            if top in sums:
                sums[top] += int(self_us)
        for k, v in sums.items():
            samples[k].append(v / 1e6)
    return {f"cli.import.{k}_s": statistics.median(v) for k, v in samples.items()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    ops, files = workloads.generate(args.workload, args.seed)
    os.makedirs(args.workdir, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(args.workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    runner = Runner(args.workload, ops, args.workdir)
    print("READY", flush=True)
    # the host speed right after set-up, to scale this process's set-up time
    probe = statistics.median(speed_probe() for _ in range(SETUP_PROBES))
    print(f"PROBE {probe!r}", flush=True)
    if args.mode == "setup":
        return 0

    result: dict = {
        "digest": workloads.digest(args.workload, ops, files),
        "ops_per_pass": len(ops),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if args.trace:
        pairs, overhead = _measure_traced(runner, args.seconds)
        spans_path = os.path.join(args.workdir, "..", f"trace-{args.workload}.jsonl")  # latest run only
        spans = runner.trace_spans if runner.cold else runner.tracer.spans
        tracer.dump_spans(spans, spans_path)
        metrics, coverage = tracer.layer_metrics(spans)
        metrics.update(_import_times())
        metrics["trace.overhead_ratio"] = overhead
        names = tracer.Tracer()  # install once to learn which names are absent
        names.install()
        names.uninstall()
        result.update(
            passes=2 * pairs + (not runner.cold),
            per_layer=metrics,
            coverage=coverage,
            absent=names.absent,
            spans_file=os.path.normpath(spans_path),
        )
    else:
        result["passes"] = _measure(runner, args.seconds, workloads.MIN_PASSES[args.workload])
    who = resource.RUSAGE_CHILDREN if runner.cold else resource.RUSAGE_SELF
    result.update(
        latencies=runner.latencies,
        probes=runner.probes,
        failures=runner.failures,
        peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0,
    )
    with open(os.path.join(args.workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
