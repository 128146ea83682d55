"""Record, or check, cli_goldens_8.json: the sha256 of the stdout of
`enumerate` (text and JSON), `hasse`, `hasse --dot`, `fvector` and
`verify euler` for biperm and biassoc at every split with m + n = 8 and
for perm, assoc and multipl at m = 7; of `verify opet` and `verify thmc`
at every split with m + n = 8; and of `verify propd -m 6`, leaving out
every command that cli_goldens.json already pins.

    PYTHONPATH=src python3 tests/record_goldens_8.py           # record
    PYTHONPATH=src python3 tests/record_goldens_8.py --check   # compare

Every command runs in this one process, through cli.run, in about 8 s
in all.  Record only on a commit whose output is known good: every
later commit must reproduce these bytes, and --check exits 1 on the
first command that does not.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shlex
import sys
from pathlib import Path

from biassoc import cli

HERE = Path(__file__).resolve().parent
PATH = HERE / "cli_goldens_8.json"
VERBS = ("enumerate", "enumerate --format json", "hasse", "hasse --dot", "fvector",
         "verify euler")


def commands() -> list:
    """The commands to pin, each a shell-quoted argv as in cli_goldens.json."""
    pinned = json.loads((HERE / "cli_goldens.json").read_text())
    splits = [(family, m, 8 - m) for family in ("biperm", "biassoc") for m in range(1, 8)]
    splits += [(family, 7, 1) for family in ("perm", "assoc", "multipl")]
    out = []
    for family, m, n in splits:
        for verb in VERBS:
            head, _, option = verb.partition(" --format")
            out.append("%s --family %s%s -m %d -n %d" % (
                head, family, " --format" + option if option else "", m, n))
    out += ["verify %s -m %d -n %d" % (check, m, 8 - m)
            for check in ("opet", "thmc") for m in range(1, 8)]
    out.append("verify propd -m 6")
    return [argv for argv in out if argv not in pinned]


def digest(argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(shlex.split(argv))
    if code != 0:
        raise SystemExit("%s: exit %d" % (argv, code))
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def main(argv) -> int:
    if argv == ["--check"]:
        want = json.loads(PATH.read_text())
        if sorted(want) != sorted(commands()):
            print("the recorded commands are not this script's", file=sys.stderr)
            return 1
        for command, sha in want.items():
            got = digest(command)
            print("%s: %s" % (command, got))
            if got != sha:
                print("%s: want %s" % (command, sha), file=sys.stderr)
                return 1
        return 0
    goldens = {command: digest(command) for command in commands()}
    PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print("%d commands recorded in %s" % (len(goldens), PATH.name))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
