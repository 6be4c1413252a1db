"""Time one set-up in a fresh interpreter and print the seconds it took.

Set-up is importing threepage and the workload definitions, then drawing
the workload's inputs from the seed:

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
workload, seed = sys.argv[1], int(sys.argv[2])

start = time.perf_counter()
import threepage  # noqa: E402,F401
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[workload].build(seed)
print(time.perf_counter() - start)
