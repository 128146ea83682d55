"""Command-line front end.

Verbs: enumerate, fvector, hasse, verify, encode, varpi.  Families:
perm (permutahedron, n forced to 1), biperm, assoc, biassoc, multipl.
Exit codes: 0 success, 1 verification failure, 2 usage error,
3 internal error (an unexpected exception; never a verdict).

`enumerate` writes its lines as they are made, from each pair's parts
with no pair object, one tree pair at a time for perm, biperm and
biassoc, so its memory does not grow with the number of lines.  `main`
restores the default SIGPIPE action: when the reader closes stdout
early (as `head` does), the tool ends quietly, as `cat` does, with no
traceback.  `run` leaves the signal alone.
"""

from __future__ import annotations

import argparse
import signal
import sys
from collections import Counter

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


# Per family: its poset builder, which calls each(*face) per element in
# element order when each is given, looked up when called so that a
# patched builder runs; its faces' parts from the walk of enumerate, with
# no poset or sort; and a face's dimension from its parts.
_PERM = (lambda m, n, each: leveled.bipermutahedron_poset(m, n, each),
         lambda m, n: ((up, down, *v) for up, down, levels in leveled.level_groups(m, n)
                       for v in levels),
         leveled.level_dimension)
FAMILY = {
    "perm": _PERM,
    "biperm": _PERM,
    "assoc": (lambda m, n, each: trees.face_poset_associahedron(m, each),
              lambda m, n: ((s,) for s in trees._shapes(m)), trees.tree_dimension),
    "biassoc": (lambda m, n, each: zones.biassociahedron_poset(m, n, each),
                lambda m, n: ((up, down, *z) for up, down, levels in leveled.level_groups(m, n)
                              for z in {zones._zone_tuples(*v) for v in levels}),
                zones.zone_dimension),
    "multipl": (lambda m, n, each: multipli.multiplihedron_poset(m, each),
                lambda m, n: multipli.shape_diaphragms(m), multipli.diaphragm_dimension),
}


def _blocks(family, m, n, fmt):
    """The lines of `enumerate` in blocks: one tree pair's elements for
    perm, biperm and biassoc, which are walked one tree pair at a time,
    and one line per block for assoc and multipl."""
    if family in ("perm", "biperm", "biassoc"):
        write = leveled.pair_key
        if fmt == "json":
            write = zones.zone_json if family == "biassoc" else leveled.pair_json
        for up, down, values in leveled.pair_groups(m, n):
            if family == "biassoc":
                values = zones.zone_group(up, down, values)[0]
            yield [write(up, down, *v) for v in values]
    elif family == "assoc":
        for x in trees.enumerate_trees(m, "up"):
            yield [x.to_json() if fmt == "json" else x.text()]
    else:  # the choices admit no other family: this is multipl
        for key, shape, zeta in multipli.painted_faces(m):
            if fmt == "json":
                key = multipli.painted_json(multipli.painted_shape(shape, zeta))
            yield [key]


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
            elif args.verb != "verify" or args.check == "euler":
                if args.family in ("perm", "assoc", "multipl"):
                    args.n = 1  # one-legged families: the (m, 1) faces
            _check_size(args.m, args.n, args.max_size)

        if args.verb == "enumerate":
            for block in _blocks(args.family, args.m, args.n, args.format):
                sys.stdout.write("\n".join(block) + "\n")
            return 0

        if args.verb == "fvector":
            _, faces, dimension = FAMILY[args.family]
            counts = Counter(dimension(*face) for face in faces(args.m, args.n))
            print(" ".join(str(counts[d]) for d in range(max(counts) + 1)))
            return 0

        if args.verb == "hasse":
            p = FAMILY[args.family][0](args.m, args.n, None)
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
        build, _, dimension = FAMILY[args.family]
        dims = []
        p = build(m, n, lambda *face: dims.append(dimension(*face)))
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
