"""Digests of every distinct command of the benchmark workloads, for byte-identity checks.

Runs each distinct ``orderings``, ``regions`` and ``cli-cold`` command of the
given seeds (default 301-310) in process through ``bcorder.cli.main`` and
prints one line per command: a 16-hex SHA-256 of (exit code, stdout,
stderr), the workload, the first seed that draws the command, and its argv.
After them come two groups of their own, with ``-`` for the seed:
``verify-paper --format json`` at its default grid and at ``--grid 100``
(about 2 s together), then ``cli-json``, the JSON outputs of ``dcurve``,
``phase-map`` and ``symmetry``, which no workload prints.  The last two
lines count the commands per workload, then those of each group.  Channel
files are written to a temporary directory, masked as ``{dir}`` in argv and
in the outputs.
Cascade files share names across seeds, so a command's identity includes
their contents.  The command lists come from ``perfbench/workloads.py``,
which is imported and not changed.

Two checkouts give the same outputs when their digests do not differ:

    python tests/workload_digests.py > new.txt
    (cd ../other-checkout && python tests/workload_digests.py) > old.txt
    diff old.txt new.txt

The ``src`` and ``perfbench`` directories of the checkout holding this file
come first on the import path.  pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import io
import json
import shlex
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from bcorder.cli import main  # noqa: E402
from workloads import DIR_TOKEN, WORKLOADS, bind, generate  # noqa: E402

GROUPS = {
    # verify-paper's JSON report, whose computed values are printed in full, unlike cli-cold's text report
    "verify-paper": (("verify-paper", "--format", "json"), ("verify-paper", "--format", "json", "--grid", "100")),
    "cli-json": (
        ("dcurve", "--p", "0.1", "--e", "0.5", "--format", "json"),
        ("phase-map", "--grid", "20", "--format", "json"),
        ("symmetry", "--bsc", "0.1", "--bec", "0.5", "--format", "json"),
        ("symmetry", "--channel1", "paper6vi", "--channel2", "paper6vi", "--format", "json"),
    ),
}


def distinct_commands(seeds) -> dict[tuple, int]:
    """(workload, argv, contents of its channel files) -> first seed, in first-seen order."""
    found: dict[tuple, int] = {}
    for workload in WORKLOADS:
        for seed in seeds:
            ops, files = generate(workload, seed)
            for op in ops:
                argv = tuple(op["argv"])
                names = [a.removeprefix(DIR_TOKEN + "/") for a in argv if a.startswith(DIR_TOKEN + "/")]
                found.setdefault((workload, argv, tuple((n, files[n]) for n in names)), seed)
    return found


def run(argv: tuple[str, ...], files: tuple[tuple[str, str], ...], workdir: str) -> str:
    """16-hex digest of (exit code, stdout, stderr) with the work directory masked."""
    for name, text in files:
        Path(workdir, name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(bind(list(argv), workdir))
    result = [code, out.getvalue().replace(workdir, DIR_TOKEN), err.getvalue().replace(workdir, DIR_TOKEN)]
    return hashlib.sha256(json.dumps(result).encode()).hexdigest()[:16]


def report(seeds) -> None:
    counts = dict.fromkeys(WORKLOADS, 0)
    with tempfile.TemporaryDirectory() as workdir:
        for (workload, argv, files), seed in distinct_commands(seeds).items():
            print(f"{run(argv, files, workdir)} {workload} {seed} {shlex.join(argv)}")
            counts[workload] += 1
        for group, commands in GROUPS.items():
            for argv in commands:
                print(f"{run(argv, (), workdir)} {group} - {shlex.join(argv)}")
    print(" ".join(f"{w}={n}" for w, n in counts.items()), f"total={sum(counts.values())}")
    print(" ".join(f"{group}={len(commands)}" for group, commands in GROUPS.items()))


if __name__ == "__main__":
    report([int(s) for s in sys.argv[1:]] or range(301, 311))
