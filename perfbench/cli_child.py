"""Traced CLI op: install the span wrappers, run ``bitraj.cli.main``, write the spans.

Usage: ``python cli_child.py --spans SPANS.json <verb> --config CFG --out DIR``.
The exit code is the CLI's own.
"""

from __future__ import annotations

import sys

import tracing


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans":
        print("usage: cli_child.py --spans SPANS.json <verb> [cli args]", file=sys.stderr)
        return 2
    import bitraj.cli

    tracer = tracing.Tracer()
    tracer.install()
    tracer.op_id = 0
    try:
        return bitraj.cli.main(argv[2:])
    finally:
        tracer.op_id = None
        tracer.dump(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
