"""Run one ``tvpriv`` command with the tracing wrappers installed.

Usage: ``BENCH_TRACE_OUT=<file> python3 bench/traced_cli.py <tvpriv args>``.
Behaves like the ``tvpriv`` entry point (same stdout and exit code) and
writes the span profile and the import time of ``tvpriv.cli`` to the file.
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
import tvpriv.cli  # noqa: E402  (the import is what is being timed)

import_s = time.perf_counter() - t0

import tracing  # noqa: E402


def main() -> int:
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        code = tvpriv.cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        doc = {"import_s": import_s, "profile": tracer.profile().to_json()}
        with open(os.environ["BENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
