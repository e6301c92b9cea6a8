"""Set-up time of one workload in a fresh process.

Usage: python3 bench/setup_probe.py WORKLOAD SEED WORKDIR

Prints the seconds spent in ``import uvartest`` plus building the
workload's scenario and one warm-up request.  The benchmark's own imports
between the two are not counted.  WORKDIR must already hold the input
files of ``cli-test``.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

t0 = time.perf_counter()
import uvartest  # noqa: E402
import uvartest.cli  # noqa: E402,F401

import_s = time.perf_counter() - t0

from workloads import WORKLOADS  # noqa: E402

workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
wl = WORKLOADS[workload]()
t1 = time.perf_counter()
wl.prepare(seed, workdir)
wl.warm_up()
print(import_s + time.perf_counter() - t1)
