"""Record goldens.json: the sha256 of the stdout of every benchmark op
whose expected answer has no oracle.

    python3 perfbench/record_goldens.py

Run it only on a commit whose CLI output is known good (the goldens in
this directory come from the seed commit); every later commit must
reproduce these bytes exactly.  An op is recorded only if it exits 0,
prints no traceback and passes its slot's oracle.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    goldens = {}
    with run.Launcher(run.child_env()) as launcher:
        for op in workloads.all_ops():
            if op.slot.text is not None or op.key in goldens:
                continue
            child = run.run_child(launcher, [sys.executable, "-m", "biassoc.cli"]
                                  + op.argv, run.OP_TIMEOUT_S)
            text = child.stdout.decode()
            error = op.slot.oracle(op.m, op.n, text) if op.slot.oracle else None
            kind, detail = run.classify(child, error)
            if kind != "ok":
                print("not recorded: %s: %s %s" % (op.key, kind, detail),
                      file=sys.stderr)
                return 1
            goldens[op.key] = {
                "sha256": workloads.digest(child.stdout),
                "bytes": len(child.stdout),
                "lines": child.stdout.count(b"\n"),
            }
            print("%-70s %8.2f s %10d bytes" % (op.key, child.wall_s, len(child.stdout)))
    workloads.GOLDENS_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
