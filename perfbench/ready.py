"""Set-up probe: import the library, build a workload's inputs, say "ready".

``run.py`` starts this in a fresh interpreter and times it from process
start to the "ready" line.  Usage: ready.py WORKLOAD SEED
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import simulgame  # noqa: E402,F401
from workloads import make_pool  # noqa: E402

make_pool(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
