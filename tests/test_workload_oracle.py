"""The benchmark's own correctness oracle on every distinct command of one workload seed.

Each operation of the ``orderings``, ``regions`` and ``cli-cold`` workloads
at seed 301 runs once, in order and in process, through
``bcorder.cli.main``; ``perfbench/oracle.py`` then checks its exit code and
output against closed forms and Blahut-Arimoto capacities, as the benchmark
does on every timed pass.  ``perfbench`` is imported and not changed.
"""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import oracle  # noqa: E402
import workloads  # noqa: E402

from bcorder.cli import main  # noqa: E402

SEED = 301


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_commands_pass_the_benchmark_oracle(workload, tmp_path):
    ops, files = workloads.generate(workload, SEED)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    check = oracle.Oracle().check
    seen = set()
    for op in ops:
        if tuple(op["argv"]) in seen:
            continue
        seen.add(tuple(op["argv"]))
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(workloads.bind(op["argv"], str(tmp_path)))
        check(op, code, out.getvalue())
    assert len(seen) == {"orderings": 42, "regions": 10, "cli-cold": 6}[workload]
