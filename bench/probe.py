"""Time one cold start in a fresh interpreter.

Usage:
    python3 bench/probe.py setup WORKLOAD SEED WORKDIR
        import isoptic and build the workload's inputs (its set-up)
    python3 bench/probe.py import
        import isoptic.cli

Prints the seconds taken.
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
if sys.argv[1] == "import":
    import isoptic.cli  # noqa: F401
else:
    import workloads
    workloads.WORKLOADS[sys.argv[2]](int(sys.argv[3]), Path(sys.argv[4]))
print(time.perf_counter() - t0)
