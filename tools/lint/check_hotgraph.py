#!/usr/bin/env python3
"""Hot-path lint: the tick loop must not allocate, throw, or block.

The tick-loop discipline holds for annotated bodies and for every
helper they call. This lint indexes the C++ sources, builds the static
call graph rooted at every FDIP_HOT_PATH definition and
FDIP_HOT_REGION span, computes the transitive closure, and reports

  - reachable functions whose definition lacks FDIP_HOT_PATH,
  - banned operations (hotgraph.analysis.BAN_RULES: allocation,
    std::string, std::function, throw, iostream/printf, locks)
    anywhere in the closure,
  - virtual call sites whose static receiver type is not sealed
    (devirtualization holes),
  - module-layering back-edges over the include graph, and
  - annotation structure: FDIP_HOT_PATH on a bare declaration,
    unpaired or mismatched FDIP_HOT_REGION markers.

Two interchangeable frontends produce the same neutral index:

  --frontend=builtin   the structural indexer in hotgraph/textual.py
                       (stdlib only, always available — the default)
  --frontend=clang     libclang over the build's own
                       compile_commands.json (exact; the CI hotgraph
                       job runs it on clang-18)
  --frontend=auto      clang when clang.cindex imports, else builtin

Exceptions live in hotgraph/model.py (ALLOWLIST for call-graph rules,
INCLUDE_EXCEPTIONS for layering edges), each with a written
justification; an entry that suppresses nothing is itself a finding.
docs/ANALYSIS.md section 8 documents the contract.

Exit status: 0 when clean, 1 with findings listed on stderr, 2 when
the requested frontend is unavailable.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from lintlib import REPO, make_parser, report  # noqa: E402
from hotgraph.analysis import Analysis, human_table  # noqa: E402
from hotgraph import textual  # noqa: E402
from hotgraph.compile_db import find_compile_db  # noqa: E402


def build_index(root: Path, frontend: str, compile_db: str | None,
                libclang: str | None):
    """ProgramIndex for <root> via the requested frontend, or None
    with a message on stderr when the frontend is unavailable."""
    if frontend in ("clang", "auto"):
        try:
            from hotgraph import clang_frontend
            db = find_compile_db(root, compile_db)
            return clang_frontend.index_tree(root, db, libclang)
        except ImportError as e:
            if frontend == "clang":
                print(f"check_hotgraph: clang frontend unavailable: {e}",
                      file=sys.stderr)
                return None
        except Exception as e:  # noqa: BLE001 — degrade, don't crash
            if frontend == "clang":
                print(f"check_hotgraph: clang frontend failed: {e}",
                      file=sys.stderr)
                return None
            print(f"check_hotgraph: clang frontend failed ({e}); "
                  "falling back to builtin", file=sys.stderr)
    return textual.index_tree(root)


def main() -> int:
    ap = make_parser(__doc__)
    ap.add_argument("--frontend", choices=("auto", "builtin", "clang"),
                    default="builtin",
                    help="source indexer (default: builtin)")
    ap.add_argument("--compile-db", default=None,
                    help="compile_commands.json (or its directory) for "
                         "the clang frontend")
    ap.add_argument("--libclang", default=None,
                    help="explicit libclang shared-library path")
    ap.add_argument("--json", default=None, metavar="PATH",
                    help="write the hot-callgraph-v1 JSON report here")
    ap.add_argument("--table", action="store_true",
                    help="print the per-module coverage table")
    ap.add_argument("--bare", action="store_true",
                    help="ignore the repo allowlist and include "
                         "exceptions (fixture self-tests)")
    args = ap.parse_args()

    prog = build_index(args.root.resolve(), args.frontend,
                       args.compile_db, args.libclang)
    if prog is None:
        return 2

    analysis = (Analysis(prog, allowlist=[], include_exceptions=[])
                if args.bare else Analysis(prog))
    findings = analysis.run()

    if args.json:
        Path(args.json).write_text(
            json.dumps(analysis.to_json(), indent=2) + "\n")
    if args.table:
        print(human_table(analysis))

    return report("check_hotgraph", [f.render() for f in findings])


if __name__ == "__main__":
    sys.exit(main())
