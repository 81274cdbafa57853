"""One set-up sample, taken in a fresh interpreter.

    python3 perfbench/probe.py SRC_DIR ARG...

Imports weylgraph's CLI from SRC_DIR, calls it once with ARG... and prints
the seconds both took.  Only the standard library is imported before the
clock starts, so numpy and scipy import inside the measured interval.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from weylgraph import cli  # noqa: E402

rc = cli.main(sys.argv[2:])
print(time.perf_counter() - start)
sys.exit(rc)
