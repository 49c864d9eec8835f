#!/usr/bin/env python3
"""Checks the host-speed normalization against a known background load.

    python3 perfbench/tests/probe_check.py [--workload W] [--rounds N]

Runs fdipbench alternately on its own and beside a background load
(LOAD_PROCS more fdipbench processes simulating fdp_server in a loop),
30 s each, starting and ending with a run on its own. For every loaded
run it prints how much the load moved the as-measured and the
probe-scaled sim_minst_per_s, against the mean of the unloaded runs
around it. The probe may under-correct a slowdown, but it must not turn
one into a speed-up, which could hide a regression. So the check fails
when a loaded run's scaled figure is above both of its neighbours' by
more than the scaled figures of consecutive unloaded runs differ (the
correction's own run-to-run noise at the time of the check). Takes
about (2 * rounds + 1) * 35 s.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402  (the benchmark runner under test)

SECONDS = 30
LOAD_PROCS = 3


def measure(binary, work_dir, workload):
    """Returns (as measured, scaled) sim_minst_per_s of one run."""
    out = subprocess.run(
        [str(binary), "--workload", workload, "--seed",
         str(run.DEFAULT_SEED), "--seconds", str(SECONDS), "--trace", "0",
         "--work-dir", str(work_dir)],
        stdout=subprocess.PIPE, text=True, check=True)
    raw = json.loads(out.stdout)
    return (run.end_to_end(raw, normalized=False)["sim_minst_per_s"],
            run.end_to_end(raw)["sim_minst_per_s"])


def start_load(binary, work_dir):
    """Starts LOAD_PROCS fdipbench loops, each in its own process group."""
    procs = []
    for i in range(LOAD_PROCS):
        d = work_dir / f"load{i}"
        d.mkdir(parents=True, exist_ok=True)
        loop = (f'while :; do "{binary}" --workload fdp_server --seed 5 '
                f'--seconds 5 --trace 0 --work-dir "{d}" >/dev/null; done')
        procs.append(subprocess.Popen(["bash", "-c", loop],
                                      start_new_session=True))
    return procs


def stop_load(procs):
    for p in procs:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="fdp_eip128_server",
                    choices=run.WORKLOADS)
    ap.add_argument("--rounds", type=int, default=2)
    args = ap.parse_args()

    binary, work_dir = run.build()
    work_dir = work_dir / "probe_check"
    work_dir.mkdir(parents=True, exist_ok=True)
    runs = []
    try:
        for i in range(2 * args.rounds + 1):
            loaded = i % 2 == 1
            procs = start_load(binary, work_dir) if loaded else []
            try:
                as_measured, at_nominal = measure(binary, work_dir,
                                                  args.workload)
            finally:
                stop_load(procs)
            runs.append((as_measured, at_nominal))
            print(f"{'loaded' if loaded else 'alone':<7} as measured "
                  f"{as_measured:.4f}  scaled {at_nominal:.4f} Minst/s",
                  flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    scaled = [r[1] for r in runs]
    alone = scaled[::2]
    noise = max(abs(a - b) / min(a, b) for a, b in zip(alone, alone[1:]))
    failed = False
    for i in range(1, len(runs), 2):
        def effect(k):
            base = (runs[i - 1][k] + runs[i + 1][k]) / 2
            return runs[i][k] / base - 1
        over = scaled[i] / max(scaled[i - 1], scaled[i + 1]) - 1
        bad = over > noise
        failed |= bad
        print(f"load effect, round {i // 2 + 1}: as measured "
              f"{effect(0):+.1%}, scaled {effect(1):+.1%}"
              f"{'  FAILED: scaled above both neighbours' if bad else ''}")
    print(f"unloaded scaled run-to-run noise {noise:.1%}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
