"""Time what a fresh CLI process pays before any work: import, then build.

Usage: python3 perfbench/setup_child.py <src dir> '<problem JSON>'

Prints one JSON object {"import_s": ..., "build_s": ...}.  Nothing but the
interpreter is loaded before the import clock starts.
"""

import json
import sys
import time
from pathlib import Path

src, problem = sys.argv[1], json.loads(sys.argv[2])
sys.path.insert(0, src)
t0 = time.perf_counter()
import enoc.cli  # noqa: E402,F401

t1 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import build_problem  # noqa: E402

t2 = time.perf_counter()
build_problem(problem)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "build_s": t3 - t2}))
