"""Run one bcorder command line with span tracing, then write the spans.

Usage: python traced_cli.py SPAN_FILE ARGV...

The traced counterpart of ``python -m bcorder.cli ARGV...`` for the
``cli-cold`` workload's traced run; exits with the command's exit code.
"""

import sys

import bcorder.cli
import tracer


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    t = tracer.Tracer()
    t.install()
    try:
        return bcorder.cli.main(argv)
    finally:
        t.uninstall()
        tracer.dump_spans(t.spans, span_file)


if __name__ == "__main__":
    sys.exit(main())
