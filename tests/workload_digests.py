"""Digests of every distinct command of the benchmark workloads, for byte-identity checks.

Runs each distinct ``orderings``, ``regions`` and ``cli-cold`` command of the
given seeds (default 301-310) in process through ``bcorder.cli.main`` and
prints one line per command: a 16-hex SHA-256 of (exit code, stdout,
stderr), the workload, the first seed that draws the command, and its argv.
After them come three groups of their own, with ``-`` for the seed:
``verify-paper --format json`` at its default grid and at ``--grid 100``
(about 2 s together), then ``cli-json``, the JSON outputs of ``dcurve``,
``phase-map`` and ``symmetry``, which no workload prints, then
``edge-json``, ``classify`` and ``symmetry`` JSON on channels at the edges
of the cyclic-symmetry search: a one-input pair, a 9-output channel and a
channel that fits a generator one step at a time but not over two.  A
command whose ``main`` raises gets the exception's type and message in
place of its exit code.  The last two lines count the commands per
workload, then those of each group.  Channel files are written to a
temporary directory, masked as ``{dir}`` in argv and in the outputs.
Cascade files share names across seeds, so a command's identity includes
their contents.  The command lists come from ``perfbench/workloads.py``,
which is imported and not changed.

Two checkouts give the same outputs when their digests do not differ:

    python tests/workload_digests.py > new.txt
    (cd ../other-checkout && python tests/workload_digests.py) > old.txt
    diff old.txt new.txt

With ``--dump DIR`` it also writes each command's masked exit code, stdout
and stderr to ``DIR/NNN.txt``, NNN the number of its report line from 0, under a
first line holding that line without its digest; ``diff -r`` of two
checkouts' dumps then shows which output fields moved:

    python tests/workload_digests.py --dump new > new.txt

The ``src`` and ``perfbench`` directories of the checkout holding this file
come first on the import path.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
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
from info_oracles import near_cyclic_rows, nine_output_cyclic_rows  # noqa: E402
from workloads import DIR_TOKEN, WORKLOADS, bind, generate  # noqa: E402


def _channel_file(rows) -> str:
    return json.dumps({"input_size": len(rows), "output_labels": [str(y) for y in range(len(rows[0]))], "rows": rows})


EDGE_FILES = {
    "one2.json": _channel_file([[0.25, 0.75]]),
    "one3.json": _channel_file([[0.5, 0.25, 0.25]]),
    "nine.json": _channel_file(nine_output_cyclic_rows().tolist()),
    "near.json": _channel_file(near_cyclic_rows().tolist()),
}

GROUPS = {
    # verify-paper's JSON report, whose computed values are printed in full, unlike cli-cold's text report
    "verify-paper": (("verify-paper", "--format", "json"), ("verify-paper", "--format", "json", "--grid", "100")),
    "cli-json": (
        ("dcurve", "--p", "0.1", "--e", "0.5", "--format", "json"),
        ("phase-map", "--grid", "20", "--format", "json"),
        ("symmetry", "--bsc", "0.1", "--bec", "0.5", "--format", "json"),
        ("symmetry", "--channel1", "paper6vi", "--channel2", "paper6vi", "--format", "json"),
    ),
    "edge-json": tuple(
        (command, "--channel1", f"{DIR_TOKEN}/{first}", "--channel2", second, "--format", "json")
        for first, second in (
            ("one2.json", f"{DIR_TOKEN}/one3.json"),
            ("nine.json", f"{DIR_TOKEN}/nine.json"),
            ("near.json", "paper6vi"),
        )
        for command in ("classify", "symmetry")
    ),
}


def argv_files(argv: tuple[str, ...], files: dict[str, str]) -> tuple[tuple[str, str], ...]:
    """(name, contents) of each channel file that argv names in the work directory."""
    names = [a.removeprefix(DIR_TOKEN + "/") for a in argv if a.startswith(DIR_TOKEN + "/")]
    return tuple((n, files[n]) for n in names)


def distinct_commands(seeds) -> dict[tuple, int]:
    """(workload, argv, contents of its channel files) -> first seed, in first-seen order."""
    found: dict[tuple, int] = {}
    for workload in WORKLOADS:
        for seed in seeds:
            ops, files = generate(workload, seed)
            for op in ops:
                argv = tuple(op["argv"])
                found.setdefault((workload, argv, argv_files(argv, files)), seed)
    return found


def run(argv: tuple[str, ...], files: tuple[tuple[str, str], ...], workdir: str) -> list:
    """(exit code, stdout, stderr), the work directory masked; an exception's type and message replace the code."""
    for name, text in files:
        Path(workdir, name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(bind(list(argv), workdir))
        except Exception as exc:  # recorded, so one crash does not hide the commands after it
            code = f"{type(exc).__name__}: {exc}"
    return [v.replace(workdir, DIR_TOKEN) if isinstance(v, str) else v for v in (code, out.getvalue(), err.getvalue())]


def report(seeds, dump: Path | None = None) -> None:
    counts = dict.fromkeys(WORKLOADS, 0)
    commands = [(workload, seed, argv, files) for (workload, argv, files), seed in distinct_commands(seeds).items()]
    commands += [
        (group, "-", argv, argv_files(argv, EDGE_FILES)) for group, argvs in GROUPS.items() for argv in argvs
    ]
    if dump is not None:
        dump.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for i, (workload, seed, argv, files) in enumerate(commands):
            result = run(argv, files, workdir)
            name = f"{workload} {seed} {shlex.join(argv)}"
            print(hashlib.sha256(json.dumps(result).encode()).hexdigest()[:16], name)
            if dump is not None:
                (dump / f"{i:03d}.txt").write_text("{}\nexit {}\n--- stdout\n{}--- stderr\n{}".format(name, *result))
            if workload in counts:
                counts[workload] += 1
    print(" ".join(f"{w}={n}" for w, n in counts.items()), f"total={sum(counts.values())}")
    print(" ".join(f"{group}={len(commands)}" for group, commands in GROUPS.items()))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Digest every distinct benchmark workload command.")
    parser.add_argument("seeds", nargs="*", type=int, help="workload seeds (default 301-310)")
    parser.add_argument("--dump", type=Path, metavar="DIR", help="also write each command's outputs to DIR")
    args = parser.parse_args()
    report(args.seeds or range(301, 311), args.dump)
