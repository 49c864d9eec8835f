#!/usr/bin/env python3
"""Smoke test for the figure and ablation bench binaries.

Runs every bench that drains its grid through the campaign executor on
a tiny suite (FDIP_SUITE=small, FDIP_SIM_INSTRS=20000) and checks, per
binary:

  1. it exits 0 and its BENCH_<name>.json passes
     `tools/bench_trend.py --check`;
  2. stdout with a fresh FDIP_SPOOL is byte-identical to stdout without
     one (a spool must never change a result, e.g. by serving one
     entry's record for another that shares its manifest hash);
  3. a second run over the same spool reports `0 simulated` and again
     prints the same bytes (a finished bench resumes for free).

Usage:
  bench_smoke.py --bench-dir DIR --bench-trend tools/bench_trend.py

Exit status: 0 when every bench passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

BENCHES = (
    "bench_fig01_limit_study",
    "bench_fig06a_prefetchers",
    "bench_fig06b_per_trace",
    "bench_fig07_pfc_btb",
    "bench_fig08_history",
    "bench_fig09_iso_budget",
    "bench_fig10_btb_prefetch",
    "bench_fig11_btb_capacity",
    "bench_fig12_dirpred",
    "bench_fig13_bandwidth_latency",
    "bench_fig14_ftq_size",
    "bench_ablation_extensions",
    "bench_ablation_fdp_features",
    "bench_stall_accounting",
)

# Worker count for every run: enough to exercise the pool, small enough
# to share a machine.
FDIP_JOBS = 2

# runTimed's summary line: "spool: <dir>: N runs, M simulated, ...".
SPOOL_LINE = re.compile(r"^spool: .*: (\d+) runs, (\d+) simulated, ",
                        re.MULTILINE)


def run(binary: Path, env: dict[str, str]) -> subprocess.CompletedProcess:
    return subprocess.run([str(binary)], env=env, capture_output=True,
                          text=True, timeout=300, check=False)


def simulated(proc: subprocess.CompletedProcess) -> int | None:
    m = SPOOL_LINE.search(proc.stderr)
    return None if m is None else int(m.group(2))


def check_bench(binary: Path, trend: Path, work: Path) -> list[str]:
    """Returns the problems found with one bench binary."""
    name = binary.name
    json_dir = work / name / "json"
    spool = work / name / "spool"
    json_dir.mkdir(parents=True)

    env = {k: v for k, v in os.environ.items()
           if k not in ("FDIP_SPOOL", "FDIP_BENCH_JSON")}
    env.update(FDIP_SUITE="small", FDIP_SIM_INSTRS="20000",
               FDIP_JOBS=str(FDIP_JOBS), FDIP_BENCH_JSON_DIR=str(json_dir))

    plain = run(binary, env)
    if plain.returncode != 0:
        return [f"{name}: exit {plain.returncode}\n{plain.stderr}"]
    problems: list[str] = []

    summaries = sorted(json_dir.glob("BENCH_*.json"))
    if len(summaries) != 1:
        problems.append(f"{name}: expected one BENCH_*.json, found "
                        f"{[p.name for p in summaries]}")
    else:
        check = subprocess.run(
            [sys.executable, str(trend), "--check", str(summaries[0])],
            capture_output=True, text=True, check=False)
        if check.returncode != 0:
            problems.append(f"{name}: bench_trend --check failed:\n"
                            f"{check.stdout}{check.stderr}")

    env["FDIP_SPOOL"] = str(spool)
    for attempt in ("cold", "warm"):
        proc = run(binary, env)
        if proc.returncode != 0:
            problems.append(f"{name}: {attempt} spooled run exit "
                            f"{proc.returncode}\n{proc.stderr}")
            continue
        if proc.stdout != plain.stdout:
            problems.append(f"{name}: {attempt} spooled stdout differs "
                            "from the unspooled run")
        count = simulated(proc)
        if count is None:
            problems.append(f"{name}: {attempt} spooled run printed no "
                            "spool summary")
        elif attempt == "warm" and count != 0:
            problems.append(f"{name}: warm spooled run simulated {count} "
                            "runs, want 0")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--bench-dir", type=Path, required=True,
                        help="directory holding the bench binaries")
    parser.add_argument("--bench-trend", type=Path, required=True,
                        help="path to tools/bench_trend.py")
    args = parser.parse_args()

    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="bench_smoke") as tmp:
        for bench in BENCHES:
            problems = check_bench(args.bench_dir / bench,
                                   args.bench_trend, Path(tmp))
            print(f"{'FAIL' if problems else 'ok  '} {bench}", flush=True)
            failures.extend(problems)
    for problem in failures:
        print(problem, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
