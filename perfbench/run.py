"""bcorder benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload orderings --seed 1 --seconds 30 --trace 0

Workloads (one caller, closed loop, one process):

* ``orderings`` -- warm, in-process ``classify --format json`` on seeded
  BSC/BEC cells, 3- and 4-input cascade pairs and the builtin paper6vi
  pair.  The ordering tests and the HiGHS LP do the work; no region sweep.
* ``regions`` -- warm, in-process ``region --format json`` on one seeded
  BSC/BEC pair per regime (``ib,ob`` and ``theorem1,theorem2 --class
  uniform``) and paper6vi (``ib,ob`` and ``theorem2 --class uniform``).
  Large kernel batches, Pareto and hull stages; no ordering test.
* ``cli-cold`` -- each README command in a fresh ``python -m bcorder.cli``:
  interpreter start, import, formatting, the per-cell phase-map loop and
  ``verify-paper``.

The launcher pins BLAS/OpenMP threads to 1, times the set-up of several
fresh worker processes (interpreter start to first operation issuable),
and has the last of them measure.  Every operation is checked by an oracle
that imports nothing from bcorder.  The last line of standard output is a
JSON object: with ``--trace 0`` the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a run that wraps bcorder's functions.  Exits 2
without a result when the bcorder sources are missing.

End-to-end metrics: ``setup_s`` (median of the set-ups), ``ops_per_s``
(operations over summed operation time), ``op_p50_ms``, ``op_tail_ms``
(the fixed nearest-rank percentile ``workloads.TAIL_PCT``), ``ok_ratio``
(operations that exited 0 and passed the oracle, over those attempted) and
``peak_rss_mb`` (the measuring process, or its largest child for
``cli-cold``).  Times are scaled to a reference host speed, see
``end_to_end``; the unscaled values are printed above the result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_SAMPLES = 5  # fresh processes timed per run; the last one measures
RUN_DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
PINNED_THREADS = 1
# Median speed-probe time that defines the reference host speed: about the
# probe's time on an idle 2-core x86-64 sandbox with Python 3.11.
PROBE_REF_S = 1.0e-3


def nearest_rank(values: list[float], pct: float) -> float:
    """The smallest value with at least pct percent of values at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def end_to_end(result: dict, setups: list[tuple[float, float]], tail_pct: int) -> dict[str, dict]:
    """The end-to-end metrics, times scaled to the reference host speed.

    Each time is multiplied by PROBE_REF_S over a speed-probe time (see
    worker.speed_probe), which cancels the host's drift: operation times by
    the run's median probe, each set-up time by the probe its own process
    ran right after set-up.  Unscaled values are printed too.  Scaling each
    operation by the probes just around it instead was tried and doubled
    the run-to-run spread of cli-cold.
    """
    scale = host_scale(result)
    lat = [scale * t for t in result["latencies"]]
    n, failed = len(lat), len(result["failures"])
    return {
        "setup_s": {"value": statistics.median(PROBE_REF_S * t / p for t, p in setups), "unit": "s"},
        "ops_per_s": {"value": n / sum(lat), "unit": "1/s"},
        "op_p50_ms": {"value": 1000.0 * statistics.median(lat), "unit": "ms"},
        "op_tail_ms": {"value": 1000.0 * nearest_rank(lat, tail_pct), "unit": "ms"},
        "ok_ratio": {"value": (n - failed) / n, "unit": "ratio"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def host_scale(result: dict) -> float:
    """The run's median scale factor (reference over median probe time)."""
    return PROBE_REF_S / statistics.median(result["probes"])


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(PINNED_THREADS)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # no run leaves bytecode in the checkout, so that every run (the first
    # included) imports bcorder the same way
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _start_worker(
    args: argparse.Namespace, mode: str, workdir: Path
) -> tuple[subprocess.Popen, tuple[float, float]]:
    """Start a worker and wait for READY; returns (process, (set-up s, probe s))."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--mode", mode,
        "--workdir", str(workdir),
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    probe = proc.stdout.readline().split()
    if line.strip() != "READY" or len(probe) != 2 or probe[0] != "PROBE":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not reach READY (exit {proc.returncode})")
    return proc, (setup, float(probe[1]))


def _finish(proc: subprocess.Popen, deadline: float) -> None:
    try:
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker missed the run deadline") from None
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")


def run(args: argparse.Namespace) -> tuple[dict, list[tuple[float, float]]]:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    workdir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        setups = []
        setup_only = 0 if args.trace else SETUP_SAMPLES - 1
        for _ in range(setup_only):
            proc, setup = _start_worker(args, "setup", workdir)
            _finish(proc, deadline)
            setups.append(setup)
        proc, setup = _start_worker(args, "measure", workdir)
        setups.append(setup)
        _finish(proc, deadline)
        with open(workdir / "result.json", encoding="utf-8") as fh:
            return json.load(fh), setups
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "bcorder" / "cli.py").is_file():
        print(f"perfbench: no bcorder sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        result, setups = run(args)
    except (RuntimeError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    lat, failures = result["latencies"], result["failures"]
    pct = workloads.TAIL_PCT[args.workload]
    beyond = len(lat) - max(1, math.ceil(pct / 100.0 * len(lat)))
    v = result["versions"]
    print(
        f"perfbench: workload={args.workload} seed={args.seed} digest={result['digest'][:16]} "
        f"ops_per_pass={result['ops_per_pass']} passes={result['passes']} nproc={os.cpu_count()} "
        f"blas_threads={PINNED_THREADS} python={v['python']} numpy={v['numpy']} scipy={v['scipy']}"
    )
    print(
        f"perfbench: attempted={len(lat)} failed={len(failures)} fail_ratio={len(failures) / len(lat):.6f} "
        f"op_tail=p{pct} of {len(lat)} samples ({beyond} beyond) setup_samples={len(setups)}"
    )
    if not args.trace:
        print(
            f"perfbench: host scale={host_scale(result):.4f} (reference probe {PROBE_REF_S * 1e3:g} ms / "
            f"median probe {statistics.median(result['probes']) * 1e3:.4f} ms); unscaled: "
            f"setup_s={statistics.median(t for t, _ in setups):.4f} ops_per_s={len(lat) / sum(lat):.4f} "
            f"op_p50_ms={1e3 * statistics.median(lat):.4f} op_tail_ms={1e3 * nearest_rank(lat, pct):.4f}"
        )
    for reason in failures[:5]:
        print(f"perfbench: FAIL {reason}")
    if args.trace:
        metrics = {k: {"value": val, "unit": _unit(k)} for k, val in result["per_layer"].items()}
        cov = " ".join(f"{m}={s:.3f}" for m, s in result["coverage"].items())
        print(f"perfbench: share of cli.main time under each module: {cov}")
        print(f"perfbench: absent functions: {' '.join(result['absent']) or 'none'}")
        print(f"perfbench: spans written to {os.path.relpath(result['spans_file'], ROOT)}")
    else:
        metrics = end_to_end(result, setups, pct)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {"correct": not failures, "attempted": len(lat), "failed": len(failures), "metrics": metrics}
        )
    )
    return 0


def _unit(name: str) -> str:
    if name.endswith("rows_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
