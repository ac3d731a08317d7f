"""Model-size sweep: per-requirement cost of the wide-model shape at three sizes.

Usage (from the root of a checkout):

    python3 bench/sweep.py [--seed 1]

Generates the ``wide-model`` workload at 10, 100 and 300 blocks with the
same 30-requirement corpus shape, checks the outputs like the benchmark
does, and prints for each size the median wall time of ``modcomplete
complete``, the median set-up time (import plus loading the inputs) and
``ms_per_req = (wall_s - setup_s) / requirements``. If the per-requirement
cost does not grow with the model, the last column stays flat. Not gated.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys

from run import CLI, Run, setup_seconds
from workloads import wide_model

SIZES = (10, 100, 300)
#: CLI processes per size; the sweep reports their median.
PROCESSES = 7


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "modcomplete", "__init__.py")):
        print("error: run from the root of a modcomplete checkout", file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".bench_work", f"sweep-{os.getpid()}")
    runs = {}
    try:
        for n_blocks in SIZES:
            runs[n_blocks] = Run(wide_model(args.seed, n_blocks=n_blocks), root,
                                 os.path.join(workdir, str(n_blocks)))
            runs[n_blocks].verify(runs[n_blocks].launch(CLI)[2])
        # The sizes take turns, so a drift in the host's speed hits all alike.
        walls = {n: [] for n in SIZES}
        setups = {n: [] for n in SIZES}
        for _ in range(PROCESSES):
            for n_blocks, run in runs.items():
                wall, _, code = run.launch(CLI)
                run.verify(code)
                walls[n_blocks].append(wall)
                setups[n_blocks].append(setup_seconds(run))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run still works there
            pass

    print(f"{'blocks':>6} {'reqs':>5} {'wall_s':>8} {'setup_s':>8} {'ms_per_req':>10} failed")
    for n_blocks, run in runs.items():
        wall_s, setup_s = statistics.median(walls[n_blocks]), statistics.median(setups[n_blocks])
        n = len(run.workload.reqs)
        print(f"{n_blocks:>6} {n:>5} {wall_s:>8.3f} {setup_s:>8.3f} "
              f"{1000 * (wall_s - setup_s) / n:>10.2f} {run.failed}/{run.attempted}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
