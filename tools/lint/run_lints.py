#!/usr/bin/env python3
"""Single entry point for the repo's lint suite.

Runs the six tree lints in one invocation with a combined report:

  sources       check_sources.py      header hygiene + content bans
  determinism   check_determinism.py  wallclock/rand/getenv bans
  concurrency   check_concurrency.py  ambient-state + threading bans
  hotgraph      check_hotgraph.py     hot-path bans, closure, layering
  statespace    check_statespace.py   state census + schema/reset/taint
  trace         check_trace.py        only when --trace names a file

Each lint keeps its own CLI (they all speak the shared --root /
exit-code contract from lintlib.py); this runner execs them as
subprocesses so one crashing lint cannot take the others down, then
exits 0 only when every selected lint exited 0. CI's lint job and
local pre-push hooks call this instead of six separate commands.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

sys.path.insert(0, str(HERE))
from lintlib import REPO  # noqa: E402

#: name -> script + extra-arg builder. Order is cheap-first so a
#: broken tree fails fast; sources (which compiles every header) last.
LINTS = ("determinism", "concurrency", "hotgraph", "statespace",
         "trace", "sources")


def lint_argv(name: str, args: argparse.Namespace) -> list[str] | None:
    """argv for one lint, or None when it is not applicable."""
    root = ["--root", str(args.root)]
    if name == "determinism":
        return [str(HERE / "check_determinism.py"), *root]
    if name == "concurrency":
        return [str(HERE / "check_concurrency.py"), *root]
    if name == "hotgraph":
        argv = [str(HERE / "check_hotgraph.py"), *root,
                "--frontend", args.hotgraph_frontend]
        if args.hotgraph_json:
            argv += ["--json", args.hotgraph_json]
        return argv
    if name == "statespace":
        argv = [str(HERE / "check_statespace.py"), *root,
                "--frontend", args.hotgraph_frontend,
                "--census-golden",
                str(args.root / "tests/data/state_census.golden.json"),
                "--require-cert", "fdip::Btb,fdip::Tage,fdip::Cache"]
        if args.statespace_json:
            argv += ["--json", args.statespace_json]
        return argv
    if name == "trace":
        if not args.trace:
            return None
        return [str(HERE / "check_trace.py"), args.trace]
    if name == "sources":
        return [str(HERE / "check_sources.py"), *root,
                "-j", str(args.jobs)]
    raise ValueError(name)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=Path, default=REPO,
                    help="tree to lint (default: the repository)")
    ap.add_argument("-j", "--jobs", type=int, default=8,
                    help="parallel compiles for the sources lint")
    ap.add_argument("--only", default="",
                    help="comma-separated lint names to run "
                         f"(subset of {','.join(LINTS)})")
    ap.add_argument("--skip", default="",
                    help="comma-separated lint names to skip")
    ap.add_argument("--trace", default=None,
                    help="trace JSON to validate with check_trace")
    ap.add_argument("--hotgraph-frontend", default="builtin",
                    choices=("auto", "builtin", "clang"),
                    help="frontend for check_hotgraph "
                         "(default: builtin)")
    ap.add_argument("--hotgraph-json", default=None, metavar="PATH",
                    help="write check_hotgraph's JSON report here")
    ap.add_argument("--statespace-json", default=None, metavar="PATH",
                    help="write check_statespace's JSON report here")
    args = ap.parse_args()

    only = {s for s in args.only.split(",") if s}
    skip = {s for s in args.skip.split(",") if s}
    for name in (only | skip) - set(LINTS):
        ap.error(f"unknown lint {name!r} (have: {', '.join(LINTS)})")

    selected = [n for n in LINTS
                if (not only or n in only) and n not in skip]
    statuses: dict[str, int] = {}
    for name in selected:
        argv = lint_argv(name, args)
        if argv is None:
            continue
        print(f"== {name} ==", flush=True)
        statuses[name] = subprocess.run(
            [sys.executable, *argv]).returncode

    failed = {n: rc for n, rc in statuses.items() if rc != 0}
    print(f"run_lints: {len(statuses) - len(failed)}/{len(statuses)} "
          "clean" + (f"; failed: " + ", ".join(
              f"{n} (exit {rc})" for n, rc in failed.items())
              if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
