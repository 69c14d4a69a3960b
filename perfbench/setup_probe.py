"""One ``setup_s`` sample: the workload's own imports (its entry point
and the modules its farm task loads) plus item construction, in a fresh
interpreter, up to the point the first item would be dispatched.

Usage (from the repository root): ``python3 perfbench/setup_probe.py
<workload> <seed>``; prints the seconds taken.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import workloads  # noqa: E402

workload = workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
workloads.import_modules(workload)
workload.items()
print(repr(time.perf_counter() - START))
