"""Time one cold set-up of a workload in a fresh process.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED``.  Prints
``{"wall_s": ..., "reference_s": ...}`` (see ``perfbench/hostspeed.py``).
The caller gives it its own empty ``REPRO_CACHE_DIR`` so trace decode
artifacts start cold.
"""

import json
import sys
from pathlib import Path

if __name__ == "__main__":
    root = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench import bench
    from perfbench.hostspeed import SpeedClock

    with SpeedClock() as clock:
        bench.setup(sys.argv[1], int(sys.argv[2]))
    print(json.dumps({"wall_s": clock.wall_s, "reference_s": clock.reference_s}))
