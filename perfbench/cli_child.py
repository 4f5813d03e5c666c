"""Traced stand-in for ``python -m tko_distill.cli`` (the cli workload, --trace 1).

Usage: python cli_child.py TRACE_JSON CLI_ARGS...

Imports the CLI, wraps the package's layers, runs ``main`` on CLI_ARGS and
writes the import time, the time in ``main`` and the per-layer totals to
TRACE_JSON.  Standard output and the exit code are the CLI's own.
"""

import json
import sys
import time

t0 = time.perf_counter()
import tko_distill.cli  # noqa: E402

import_ms = (time.perf_counter() - t0) * 1e3

from tracer import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    t1 = time.perf_counter()
    try:
        code = tko_distill.cli.main(argv)
    finally:
        main_ms = (time.perf_counter() - t1) * 1e3
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_ms": import_ms, "main_ms": main_ms, "layers": tracer.take()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
