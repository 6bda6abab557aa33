"""Traced CLI request: ``python child.py OUT.json ARGV...``.

Times the import of k3walls, installs the span wrappers, runs
``k3walls.cli.main(ARGV)`` under a root span, writes the spans, the
counters and the import time to OUT.json, and exits with main's code.
"""
import json
import sys
from time import perf_counter

from tracing import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import k3walls.cli  # noqa: F401  (the import is what is timed)

    import_s = perf_counter() - start
    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = tracer.run_op(0, sys.modules["k3walls.cli"].main, argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({**tracer.export(), "import_s": import_s}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
