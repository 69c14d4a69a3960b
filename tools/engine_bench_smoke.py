"""CI perf gate for the engine layer: quick fig10, this tree vs parent.

Times the quick fig10 workload (one task, 57 parallel optional parts,
``--jobs`` jobs, seed 0, no background load) as **wall milliseconds
per simulated job** — build plus run, the same fixed output
``tools/bench_report.py`` gates the committed trajectory on — on two
source trees:

* the working tree this script lives in, and
* a checkout of the parent commit (``--parent DIR``; CI makes one with
  ``git worktree add`` of the PR base or ``HEAD^``).

Each sample runs in a fresh interpreter with that tree's ``src`` on
``PYTHONPATH`` and times only the workload (imports excluded).  The
two trees alternate sample by sample and each keeps its best
(interleaved best-of-N, robust to one-off scheduler hiccups).  The
gate fails when this tree's best is more than 10% slower per job than
the parent's.  Both trees run on the same runner at the same time, so
the verdict does not depend on the runner's speed.  Both must also
simulate the same number of jobs.

Usage::

    PYTHONPATH=src python tools/engine_bench_smoke.py --parent DIR \\
        [--jobs 6] [--samples 3]
"""

import argparse
import json
import os
import subprocess
import sys

QUICK_JOBS = 6
SAMPLES = 3
REGRESSION_TOLERANCE = 0.10

TREE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: One timed sample; prints ``{"wall_ms_per_job", "jobs"}`` as JSON.
_SAMPLE = """
import json, sys, time
from repro.bench.overheads import OPTIONAL_DEADLINE, make_eval_task
from repro.core.middleware import RTSeed
from repro.hardware.loads import BackgroundLoad

n_jobs = int(sys.argv[1])
start = time.perf_counter()
middleware = RTSeed(load=BackgroundLoad.NONE, seed=0)
task = make_eval_task(57)
middleware.add_task(task, n_jobs=n_jobs, cpu=0, policy="one_by_one",
                    optional_deadline=OPTIONAL_DEADLINE)
result = middleware.run()
elapsed = time.perf_counter() - start
print(json.dumps({"wall_ms_per_job": elapsed / n_jobs * 1000.0,
                  "jobs": len(result.tasks[task.name].probes)}))
"""


def timed_sample(tree, n_jobs):
    """One fresh-interpreter quick fig10 run on ``tree``; returns
    ``(wall ms per job, jobs completed)``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    completed = subprocess.run(
        [sys.executable, "-c", _SAMPLE, str(n_jobs)], env=env,
        capture_output=True, text=True, check=True,
    )
    sample = json.loads(completed.stdout.strip().splitlines()[-1])
    return sample["wall_ms_per_job"], sample["jobs"]


def check_regression(parent, n_jobs, samples):
    best = {"tree": None, "parent": None}
    jobs = {}
    for index in range(samples):
        # alternate which tree goes first: fair to CPU-frequency drift
        order = ("tree", "parent") if index % 2 == 0 \
            else ("parent", "tree")
        for side in order:
            wall, done = timed_sample(TREE if side == "tree" else parent,
                                      n_jobs)
            jobs[side] = done
            if best[side] is None or wall < best[side]:
                best[side] = wall
    if jobs["tree"] != jobs["parent"]:
        print(f"FAIL: this tree completed {jobs['tree']} job(s), the "
              f"parent {jobs['parent']}")
        return False
    ceiling = best["parent"] * (1.0 + REGRESSION_TOLERANCE)
    ok = best["tree"] <= ceiling
    print(f"regression check {'OK' if ok else 'FAIL'}: "
          f"{best['tree']:.2f} ms/job on this tree vs "
          f"{best['parent']:.2f} ms/job on the parent "
          f"({best['tree'] / best['parent'] - 1.0:+.1%}; ceiling "
          f"{ceiling:.2f} ms/job, best of {samples}, {n_jobs} jobs)")
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--parent", required=True, metavar="DIR",
                        help="checkout of the parent commit")
    parser.add_argument("--jobs", type=int, default=QUICK_JOBS)
    parser.add_argument("--samples", type=int, default=SAMPLES)
    args = parser.parse_args(argv)
    return 0 if check_regression(args.parent, args.jobs,
                                 args.samples) else 1


if __name__ == "__main__":
    sys.exit(main())
