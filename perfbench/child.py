"""One ``pcsp`` CLI invocation in a fresh interpreter.

Usage: python3 perfbench/child.py MODE RESULT_FD ARG...

MODE is ``plain`` (no instrumentation), ``trace`` (layer wrappers) or
``selftest`` (wrappers plus a ``sys.setprofile`` call count).  The CLI's
stdout and stderr pass through untouched; the measurements go to RESULT_FD
as one JSON object.  The package is imported from ``src/`` of the checkout
this file sits in, never from an installed copy.
"""

import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    mode, fd, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    sys.path.insert(0, str(ROOT / "src"))
    import pcsp.cli
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if Path(pcsp.cli.__file__).resolve().parent != ROOT / "src" / "pcsp":
        sys.exit(f"pcsp imported from {pcsp.cli.__file__}, not from the checkout")
    result = {"ready": ready}
    if mode == "plain":
        t0 = time.perf_counter()
        result["rc"] = pcsp.cli.main(argv)
        result["main_s"] = time.perf_counter() - t0
    else:
        from tracer import Tracer
        tracer = Tracer(selftest=mode == "selftest")
        tracer.install()
        t0 = time.perf_counter()
        result["rc"] = tracer.run(pcsp.cli.main, argv)
        result["main_s"] = time.perf_counter() - t0
        result.update(tracer.report())
    sys.stdout.flush()
    with os.fdopen(fd, "w") as f:
        json.dump(result, f)
    return result["rc"]


if __name__ == "__main__":
    sys.exit(main())
