"""Time one set-up in a fresh interpreter: import pathfinder, then build the target.

Usage: python3 bench/setup_probe.py WORKLOAD SEED

Prints the seconds spent importing ``pathfinder`` plus ``make_target`` on the
workload's generated inputs; generating the inputs is not counted.
"""

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

start = time.perf_counter()
import pathfinder  # noqa: E402,F401

imported = time.perf_counter() - start

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

inputs = workloads.make_inputs(sys.argv[1], int(sys.argv[2]))
start = time.perf_counter()
workloads.make_target(inputs)
print(repr(imported + time.perf_counter() - start))
