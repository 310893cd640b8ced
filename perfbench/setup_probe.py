"""Set-up probe: import bidisklab and build one workload's fixed inputs.

Run in a fresh interpreter by ``run.py``, which times it from outside:

    python3 perfbench/setup_probe.py <workload> <seed>

with ``src`` on PYTHONPATH.
"""

import sys

from workloads import WORKLOADS

if __name__ == "__main__":
    WORKLOADS[sys.argv[1]](int(sys.argv[2]))
