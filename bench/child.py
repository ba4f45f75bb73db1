"""One timed CLI invocation, run in a fresh interpreter by ``run.py``.

Usage: ``python3 bench/child.py RESULT_JSON SPANS_FILE|- -- ARGV...``

Imports ``homcontract`` from the ``src`` directory next to this one, times
``cli.main(ARGV)`` from argv to exit code (output writes included) and
writes the time and the exit code to RESULT_JSON.
With a SPANS_FILE the package is traced (see ``tracer.py``) and the spans
are written there after the timed call.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    result_path, spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py RESULT_JSON SPANS_FILE|- -- ARGV...")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from homcontract import cli

    entry = cli.main
    tracer = None
    if spans_path != "-":
        import homcontract
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        entry = tracer_mod.install(tracer, homcontract)
    t0 = time.perf_counter()
    code = entry(argv)
    run_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.dump(spans_path)
    with open(result_path, "w") as fh:
        json.dump({"run_s": run_s, "exit_code": code}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
