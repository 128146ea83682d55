"""Command-line front end.

Verbs: enumerate, fvector, hasse, verify, encode, varpi.  Families:
perm (permutahedron, n forced to 1), biperm, assoc, biassoc, multipl.
Exit codes: 0 success, 1 verification failure, 2 usage error,
3 internal error (an unexpected exception; never a verdict).

`enumerate` sorts each block of its family's walk by key and writes the
keys, or their JSON rewrites, at most 1024 lines at a time, so its memory
grows with one block, one tree pair's faces for perm, biperm and biassoc.
`main` restores the default SIGPIPE action: when the reader closes
stdout early (as `head` does), the tool ends quietly, as `cat` does,
with no traceback.  `run` leaves the signal alone.
"""

from __future__ import annotations

import argparse
import signal
import sys
from collections import Counter, namedtuple

from . import leveled, multipli, propterms, trees, zones

DEFAULT_MAX = 8


class UsageError(ValueError):
    pass


def _check_size(m, n, limit):
    if m + n > limit:
        raise UsageError(
            "size m+n = %d exceeds the tractability bound %d "
            "(raise it with --max-size)" % (m + n, limit)
        )


# Per family, the one table every verb reads: legs, 1 for the families
# whose -n is forced to 1; build(m, n, each), its poset builder, which
# calls each(*face) per element in element order when each is given;
# faces(m, n), its one walk, with no poset or sort, in blocks of faces'
# parts (one tree pair's for perm, biperm and biassoc, one of all faces
# for assoc and multipl); from a face's parts its dimension and key
# text; and from a key its JSON text.  Builders and writers are looked
# up when called, so that a patched one runs.
_Family = namedtuple("Family", "legs build faces dimension key json")
_BIPERM = _Family(
    2, lambda m, n, each: leveled.bipermutahedron_poset(m, n, each),
    lambda m, n: ([(up, down, *v) for v in levels]
                  for up, down, levels in leveled.level_groups(m, n)),
    leveled.level_dimension, lambda *x: leveled.pair_key(*x), lambda key: leveled.pair_json(key))
FAMILY = {
    "perm": _BIPERM._replace(legs=1),
    "biperm": _BIPERM,
    "assoc": _Family(
        1, lambda m, n, each: trees.face_poset_associahedron(m, each),
        lambda m, n: [((s,) for s in trees._shapes(m))], trees.tree_dimension,
        lambda s: trees.shape_text(s), lambda key: trees.tree_json("up", key)),
    "biassoc": _Family(
        2, lambda m, n, each: zones.biassociahedron_poset(m, n, each),
        lambda m, n: ([(up, down, *z) for z in {zones._zone_tuples(*v) for v in levels}]
                      for up, down, levels in leveled.level_groups(m, n)),
        zones.zone_dimension, lambda *x: leveled.pair_key(*x), lambda key: zones.zone_json(key)),
    "multipl": _Family(
        1, lambda m, n, each: multipli.multiplihedron_poset(m, each),
        lambda m, n: [multipli.shape_diaphragms(m)], multipli.diaphragm_dimension,
        lambda s, z: multipli.painted_key(s, z), lambda key: multipli.painted_json(key)),
}


def _pair_from_args(args) -> leveled.ComplementaryPair:
    if not args.up or args.up_levels is None:
        raise UsageError("need --up and --up-levels")
    return leveled.ComplementaryPair.from_key(
        ";".join((args.up, args.down or "*", args.up_levels, args.down_levels or "")))


def run(argv) -> int:
    parser = argparse.ArgumentParser(prog="biassoc", add_help=True)
    parser.add_argument("--max-size", type=int, default=DEFAULT_MAX)
    sub = parser.add_subparsers(dest="verb")

    def add(name):
        p = sub.add_parser(name)
        p.add_argument("-m", type=int, default=None)
        p.add_argument("-n", type=int, default=1)
        return p

    p = add("enumerate")
    p.add_argument("--family", required=True, choices=FAMILY)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p = add("fvector")
    p.add_argument("--family", required=True, choices=FAMILY)
    p = add("hasse")
    p.add_argument("--family", required=True, choices=FAMILY)
    p.add_argument("--dot", action="store_true")
    p = add("verify")
    p.add_argument("check", choices=("opet", "thmc", "propd", "euler"))
    p.add_argument("--family", choices=FAMILY, default="biperm")
    encode, varpi = add("encode"), add("varpi")
    encode.add_argument("--gamma", action="store_true")
    for p in (encode, varpi):  # the pair options
        for option in ("--up", "--down", "--up-levels", "--down-levels"):
            p.add_argument(option)
    encode.add_argument("--decode")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2

    try:
        if args.verb is None:
            parser.print_usage()
            return 2
        if args.verb in ("enumerate", "fvector", "hasse", "verify"):
            if args.m is None:
                raise UsageError("need -m")
            if args.verb == "verify" and args.check == "propd":
                args.n = 2  # Prop D is about the (m, 2) pairs
            elif (args.verb != "verify" or args.check == "euler") and FAMILY[args.family].legs == 1:
                args.n = 1  # one-legged families: the (m, 1) faces
            _check_size(args.m, args.n, args.max_size)

        if args.verb == "enumerate":
            row = FAMILY[args.family]
            line = str if args.format == "text" else row.json
            for block in row.faces(args.m, args.n):
                block = sorted([row.key(*face) for face in block])
                for i in range(0, len(block), 1024):
                    sys.stdout.write("".join([line(x) + "\n" for x in block[i : i + 1024]]))
            return 0

        if args.verb == "fvector":
            row = FAMILY[args.family]
            counts = Counter(row.dimension(*face)
                             for block in row.faces(args.m, args.n) for face in block)
            print(" ".join(str(counts[d]) for d in range(max(counts) + 1)))
            return 0

        if args.verb == "hasse":
            p = FAMILY[args.family].build(args.m, args.n, None)
            print(p.dot() if args.dot else p.to_json())
            return 0

        if args.verb == "verify":
            return _verify(args)

        if args.verb == "encode":
            if not args.gamma:
                raise UsageError("only --gamma encoding is available")
            if args.decode:
                if args.m is None:  # a label's side depends on m
                    raise UsageError("need -m (and -n) to decode")
                code = leveled.gamma_parse(args.decode, args.m, args.n)
                print(leveled.gamma_decode(code, args.m, args.n).key())
            else:
                x = _pair_from_args(args)
                print(leveled.gamma_text(leveled.gap_code(*x.parts), x.m, x.n))
            return 0

        # the subparsers admit no other verb: this is varpi
        x = _pair_from_args(args)
        print(propterms.varpi_expr(*x.parts).simplify().text())
        return 0
    except (ValueError, KeyError) as exc:  # UsageError is a ValueError
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback  # here, not at the top: only a crash pays for it

        traceback.print_exc()
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 3


def _verify(args) -> int:
    """Run one check and print its one verdict line, "FAILED: " and the
    first fault when there is one, and exit 1 exactly then."""
    m, n = args.m, args.n
    head = "%s (%d,%d)" % (args.check, m, n)
    if args.check == "opet":
        failure, verdict = leveled.opet_failure(m, n), "isomorphism verified"
    elif args.check == "thmc":
        classes, failure = propterms.theorem_c_witness(m, n)
        verdict = "%d classes, kernels agree" % classes
    elif args.check == "propd":
        head, failure, verdict = "propd m=%d" % m, multipli.prop_d_map(m)[1], "posets isomorphic"
    else:  # the choices admit no other check: this is euler.  Face posets
        # are graded by their faces' dimensions: a bad cover or rank is a verdict
        row, dims = FAMILY[args.family], []
        p = row.build(m, n, lambda *face: dims.append(row.dimension(*face)))
        failure = p.grading_failure() or next((
            "%s has rank %d but dimension %d" % (key, r, d)
            for key, r, d in zip(p.elements, p.ranks(), dims, strict=True) if r != d), None)
        if failure is None and p.euler() != 1:
            failure = "f-vector %s has alternating sum %d, not 1" % (
                " ".join(map(str, p.fvector())), p.euler())
        head, verdict = "euler %s (%d,%d)" % (args.family, m, n), 1  # the sum, unless failed
    print("%s: %s" % (head, verdict if failure is None else "FAILED: " + failure))
    return 0 if failure is None else 1


def main() -> None:
    if hasattr(signal, "SIGPIPE"):
        # a reader that stops early ends the tool quietly, as it does cat
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
