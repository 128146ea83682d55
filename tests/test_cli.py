import hashlib
import json
import os
import re
import shlex
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from biassoc import cli, leveled, multipli, propterms, trees, zones
from biassoc.leveled import ComplementaryPair, enumerate_leveled_pairs
from biassoc.multipli import PaintedTree
from biassoc.posets import FinitePoset
from oracles import pair_jsonable, painted_jsonable, tree_jsonable, zone_pair_json

# the environment of a CLI subprocess: this checkout's src first
SRC = str(Path(cli.__file__).resolve().parents[1])
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])
))

# sha256 of the stdout of `hasse`, `hasse --dot` and `fvector` for every
# family and split with m + n <= 6, recorded before the face orders were
# rebuilt from block merges, and of `hasse` and `hasse --dot` for the
# multiplihedron at m = 6 and `hasse` at m = 7, recorded before its order
# became the fiber-mask test, and of the multiplihedron's `enumerate`
# (text and JSON, m <= 7), `fvector` (m = 6, 7) and `verify propd`
# (m = 2..7), recorded before its faces came from per-shape diaphragms,
# and of `verify opet`, `verify thmc` and `verify euler` (biperm and
# biassoc per split, perm, assoc and multipl per m) for every split with
# m + n <= 7, recorded before the poset builders lost their caches, and
# of `enumerate` (text and JSON) for perm and assoc at m = 1..7 and for
# biperm and biassoc at every split with m + n <= 7, recorded before
# both block-merge posets walked their tree pairs through one function,
# and of `hasse --dot` and `verify euler` for the multiplihedron at
# m = 7, `encode --gamma` (both ways) and `varpi` on the codec examples
# of these tests, recorded before the multiplihedron's faces were painted
# straight from (shape, zeta); a key is a shell-quoted argv
GOLDENS = json.loads(Path(__file__).with_name("cli_goldens.json").read_text())


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "assoc", "-m", "3")
    assert code == 0
    assert out.splitlines() == ["((* *) *)", "(* (* *))", "(* * *)"]


def test_enumerate_json(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--family", "biassoc", "-m", "2", "-n", "2",
        "--format", "json",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines
    for line in lines:
        obj = json.loads(line)
        assert set(obj) == {"up", "down", "zones", "type"}


def test_enumerate_streams_the_cached_families(capsys):
    # the lines written one tree pair at a time are the lines of the
    # cached tuples, for every split with m + n <= 7 and both formats
    for total in range(2, 8):
        for m in range(1, total):
            n = total - m
            families = [("biperm", enumerate_leveled_pairs(m, n)),
                        ("biassoc", zones.enumerate_zone_pairs(m, n))]
            if n == 1:
                families.append(("perm", enumerate_leveled_pairs(m, n)))
            for family, items in families:
                for fmt in ("text", "json"):
                    code, out, _ = run(
                        capsys, "enumerate", "--family", family, "--format", fmt,
                        "-m", str(m), "-n", str(n),
                    )
                    want = [x.to_json() if fmt == "json" else x.key() for x in items]
                    assert code == 0 and out.splitlines() == want, (family, m, n)


# per family, its splits with m + n <= 7 (assoc and multipl to m = 7)
# and the JSON object of each face of a split in key order, from the
# references: the recursive objects of oracles, and for zone pairs the
# object that zone_pair_json dumps
JSON_ORACLES = {
    "perm": ([(m, 1) for m in range(1, 7)],
             lambda m, n: map(pair_jsonable, enumerate_leveled_pairs(m, n))),
    "biperm": ([(m, t - m) for t in range(2, 8) for m in range(1, t)],
               lambda m, n: map(pair_jsonable, enumerate_leveled_pairs(m, n))),
    "assoc": ([(m, 1) for m in range(1, 8)],
              lambda m, n: map(tree_jsonable, trees.enumerate_trees(m))),
    "biassoc": ([(m, t - m) for t in range(2, 8) for m in range(1, t)],
                lambda m, n: (json.loads(zone_pair_json(z))
                              for z in zones.enumerate_zone_pairs(m, n))),
    "multipl": ([(m, 1) for m in range(1, 8)],
                lambda m, n: (painted_jsonable(p.shape) for p in multipli.enumerate_painted(m))),
}


@pytest.mark.parametrize("family", list(JSON_ORACLES), ids=list(JSON_ORACLES))
def test_json_lines_are_the_oracle_objects(family, capsys):
    # each JSON line is its face's key rewritten: it must be the text
    # json.dumps gives the face's reference object, and read back as it
    splits, objects = JSON_ORACLES[family]
    for m, n in splits:
        code, out, _ = run(capsys, "enumerate", "--family", family, "--format", "json",
                           "-m", str(m), "-n", str(n))
        want = list(objects(m, n))
        lines = out.splitlines()
        assert code == 0 and len(lines) == len(want), (m, n)
        for line, obj in zip(lines, want):
            assert line == json.dumps(obj) and json.loads(line) == obj, (m, n)


def test_enumerate_caches_nothing(capsys):
    # with cold caches, enumerate builds neither cached tuple
    for fn in (enumerate_leveled_pairs, zones.enumerate_zone_pairs):
        fn.cache_clear()
    for family in ("biperm", "biassoc"):
        code, out, _ = run(capsys, "enumerate", "--family", family, "-m", "4", "-n", "3")
        assert code == 0 and out
    assert enumerate_leveled_pairs.cache_info().currsize == 0
    assert zones.enumerate_zone_pairs.cache_info().currsize == 0


def test_thmc_caches_nothing(capsys):
    # with cold caches, verify thmc walks one tree pair at a time and
    # builds no cached tuple of pairs or zone classes
    cached = (enumerate_leveled_pairs, zones.enumerate_zone_pairs)
    for fn in cached:
        fn.cache_clear()
    code, out, _ = run(capsys, "verify", "thmc", "-m", "4", "-n", "3")
    assert (code, out) == (0, "thmc (4,3): 497 classes, kernels agree\n")
    assert [fn.cache_info().currsize for fn in cached] == [0, 0]


def test_poset_verbs_cache_no_pairs(capsys):
    # with cold caches, the poset verbs walk one tree pair at a time and
    # build no cached tuple of pairs or zone classes
    cached = (enumerate_leveled_pairs, zones.enumerate_zone_pairs)
    for fn in cached:
        fn.cache_clear()
    for argv, want in (
        ("fvector --family biperm -m 4 -n 2", "24 36 14 1\n"),
        ("fvector --family biassoc -m 4 -n 2", "21 32 13 1\n"),
        ("hasse --family biassoc -m 2 -n 2", '{"elements": ["(* *);(* *);1;1", '),
        ("verify propd -m 5", "propd m=5: posets isomorphic\n"),
        ("verify opet -m 3 -n 2", "opet (3,2): isomorphism verified\n"),
    ):
        code, out, _ = run(capsys, *argv.split())
        assert code == 0 and out.startswith(want), argv
    assert [fn.cache_info().currsize for fn in cached] == [0, 0]


def test_verify_builds_each_poset_once_through_its_builder(capsys, monkeypatch):
    # every biassoc binding of the three poset builders is counted, as
    # perfbench/tracer.py patches them: a poset built around the public
    # name, or built twice, shows in the calls
    builders = (leveled.bipermutahedron_poset, zones.biassociahedron_poset,
                multipli.multiplihedron_poset)
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append((fn.__name__,) + args[:2])
            return fn(*args)

        return wrapper

    for name, module in list(sys.modules.items()):
        if name == "biassoc" or name.startswith("biassoc."):
            for attribute, value in list(vars(module).items()):
                if any(value is fn for fn in builders):
                    monkeypatch.setattr(module, attribute, counted(value))
    code, out, _ = run(capsys, "verify", "opet", "-m", "3", "-n", "3")
    assert (code, out) == (0, "opet (3,3): isomorphism verified\n")
    assert calls == [("bipermutahedron_poset", m, 6 - m) for m in (3, 4, 5)]
    calls.clear()
    code, out, _ = run(capsys, "verify", "propd", "-m", "4")
    assert (code, out) == (0, "propd m=4: posets isomorphic\n")
    assert calls == [("biassociahedron_poset", 4, 2), ("multiplihedron_poset", 4)]


def test_multipl_verbs_build_no_painted_trees_from_vertex_rules(capsys):
    # with cold caches, the multiplihedron's verbs enumerate its
    # diaphragms per plain shape: the vertex-rule reference stays empty
    painted = (multipli.enumerate_painted, multipli._black_parts)
    for fn in painted:
        fn.cache_clear()
    for argv in (
        "fvector --family multipl -m 4",
        "hasse --family multipl -m 4",
        "enumerate --family multipl -m 4",
        "enumerate --family multipl --format json -m 4",
        "verify propd -m 4",
    ):
        code, out, _ = run(capsys, *argv.split())
        assert code == 0 and out, argv
    assert [fn.cache_info().currsize for fn in painted] == [0, 0]


def test_multipl_verbs_paint_each_face_once_from_shape_and_zeta(capsys, monkeypatch):
    # every tree class bound in multipli and every painted_shape call is
    # counted: the poset verbs, the text keys and the JSON lines paint
    # each of the 67 faces at m = 4 once from (shape, zeta), with no tree
    # object, and JSON is rewritten from the key; fvector paints none,
    # and propd paints each face once per side
    built, painted = [], []
    for name in ("PlanarTree", "DiaphragmTree", "PaintedTree"):
        cls = getattr(multipli, name)
        monkeypatch.setattr(
            multipli, name, lambda *args, cls=cls: built.append(cls.__name__) or cls(*args)
        )
    paint = multipli.painted_shape
    monkeypatch.setattr(multipli, "painted_shape", lambda *x: painted.append(x) or paint(*x))
    for argv, paints in (
        ("fvector --family multipl -m 4", 0),
        ("hasse --family multipl -m 4", 67),
        ("enumerate --family multipl -m 4", 67),
        ("enumerate --family multipl --format json -m 4", 67),
        ("verify propd -m 4", 134),
    ):
        built.clear()
        painted.clear()
        code, out, _ = run(capsys, *argv.split())
        assert code == 0 and out and built == [] and len(painted) == paints, argv


def test_pair_verbs_build_pair_objects_only_at_the_edges(capsys, monkeypatch):
    # every ComplementaryPair and ZonePair built is counted: every verb
    # that walks pairs carries them as plain parts, so none is built.
    # The edges are input from outside: the pair options and --decode
    pairs = len(enumerate_leveled_pairs(3, 2))
    built, walked = Counter(), []
    for cls in (ComplementaryPair, zones.ZonePair):
        monkeypatch.setattr(
            cls, "__init__",
            lambda x, *parts, init=cls.__init__: built.update([type(x).__name__])
            or init(x, *parts),
        )
    def count(argv):
        built.clear()
        walked.clear()
        code, out, _ = run(capsys, *shlex.split(argv))
        assert code == 0 and out, argv
        return out

    for family in ("perm", "biperm", "biassoc"):
        split = "-m 4" if family == "perm" else "-m 3 -n 2"
        for verb in ("fvector", "hasse", "hasse --dot", "enumerate",
                     "enumerate --format json", "verify euler"):
            count("%s --family %s %s" % (verb, family, split))
            assert not built, (verb, family)
    count("verify propd -m 4")
    assert not built
    count("varpi --up '(* *)' --up-levels 1")
    assert built == {"ComplementaryPair": 1}
    groups = leveled.level_groups

    def counted_groups(m, n):
        for group in groups(m, n):
            walked.append(len(group[2]))
            yield group

    for module in (leveled, propterms):
        monkeypatch.setattr(module, "level_groups", counted_groups)
    # opet walks each split once, building its poset and stepping its
    # pairs in the same walk: (3, 2) and (4, 1)
    count("verify opet -m 3 -n 2")
    assert not built and sum(walked) == 2 * pairs
    # thmc hands each pair's parts to varpi_expr, cold and warm
    for _ in range(2):
        count("verify thmc -m 3 -n 2")
        assert not built and walked == [len(levels) for _, _, levels in groups(3, 2)]


def test_text_enumerate_writes_each_key_once(capsys, monkeypatch):
    # the keys are sorted once and written as they are, or rewritten as
    # JSON, so a key is written only for its line in either format
    calls = []
    pair_key = leveled.pair_key
    monkeypatch.setattr(leveled, "pair_key", lambda *parts: calls.append(parts) or pair_key(*parts))
    for family, fmt in (("perm", "text"), ("biperm", "text"), ("biassoc", "text"),
                        ("biperm", "json"), ("biassoc", "json")):
        calls.clear()
        code, out, _ = run(capsys, "enumerate", "--family", family, "--format", fmt,
                           "-m", "3", "-n", "3")
        assert code == 0 and len(calls) == out.count("\n") > 1, (family, fmt)


def test_isomorphism_failures_print_a_counterexample(capsys, monkeypatch):
    # a step sending every pair to one target: two keys share an image
    target = enumerate_leveled_pairs(3, 1)[0]
    monkeypatch.setattr(leveled, "opet_step", lambda *x: target.parts)
    first, second = (x.key() for x in enumerate_leveled_pairs(2, 2)[:2])
    code, out, _ = run(capsys, "verify", "opet", "-m", "2", "-n", "2")
    assert (code, out) == (1, "opet (2,2): FAILED: step (2,2) -> (3,1): "
                              "%s and %s both map to %s\n" % (first, second, target.key()))
    monkeypatch.undo()

    # a step whose image is no pair, its levels having a gap at 2 (the
    # first pair has one level and keeps its image): not a key of the
    # target, as no invalid image is
    step = leveled.opet_step

    def gap(*x):
        up, down, a, b = step(*x)
        return up, down, tuple(v + (v > 1) for v in a), tuple(v + (v > 1) for v in b)

    monkeypatch.setattr(leveled, "opet_step", gap)
    code, out, _ = run(capsys, "verify", "opet", "-m", "2", "-n", "2")
    assert (code, out) == (1, "opet (2,2): FAILED: step (2,2) -> (3,1): %s maps to "
                              "'(* (* *));*;1,3;', which is not in the target\n" % second)
    monkeypatch.undo()

    # a map f trading the images of a minimal and a maximal zone pair;
    # the multiplihedron is the one built before the map is patched, so
    # the patch renames the map's side only
    q = multipli.multiplihedron_poset(3)
    rank = q.ranks()
    low, high = q.elements[rank.index(0)], q.elements[rank.index(max(rank))]
    trade = {low: high, high: low}
    paint = multipli.painted_shape

    def traded(shape, zeta):
        text = PaintedTree(paint(shape, zeta)).text()
        return PaintedTree.from_text(trade.get(text, text)).shape

    monkeypatch.setattr(multipli, "multiplihedron_poset", lambda m: q)
    monkeypatch.setattr(multipli, "painted_shape", traded)
    code, out, _ = run(capsys, "verify", "propd", "-m", "3")
    f, failure = multipli.prop_d_map(3)
    assert failure is not None and sorted(f.values()) == sorted(q.elements)
    assert (code, out) == (1, "propd m=3: FAILED: %s\n" % failure)
    assert re.fullmatch(r".+ < .+ is a cover, but its (pre)?image .+ < .+ is not", failure)


def test_closed_stdout_ends_the_tool_quietly():
    # the reader takes one line and closes the pipe while the tool still
    # has about 400 kB to write: SIGPIPE ends it, as it ends cat
    proc = subprocess.Popen(
        [sys.executable, "-m", "biassoc.cli", "enumerate", "--family", "biperm",
         "--format", "json", "-m", "4", "-n", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV,
    )
    try:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert "Traceback" not in err
    assert "internal error" not in err
    assert code == -signal.SIGPIPE


def test_enumerate_deterministic(capsys):
    _, out1, _ = run(capsys, "enumerate", "--family", "biperm", "-m", "3", "-n", "2")
    _, out2, _ = run(capsys, "enumerate", "--family", "biperm", "-m", "3", "-n", "2")
    assert out1 == out2
    assert len(out1.splitlines()) == 13


def test_fvector(capsys):
    code, out, _ = run(capsys, "fvector", "--family", "biassoc", "-m", "3", "-n", "2")
    assert code == 0 and out.strip() == "6 6 1"
    code, out, _ = run(capsys, "fvector", "--family", "multipl", "-m", "3")
    assert code == 0 and out.strip() == "6 6 1"
    code, out, _ = run(capsys, "fvector", "--family", "assoc", "-m", "4")
    assert code == 0 and out.strip() == "5 5 1"


def test_hasse(capsys):
    code, out, _ = run(capsys, "hasse", "--family", "assoc", "-m", "3")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["elements"]) == 3 and len(obj["covers"]) == 2
    code, out, _ = run(capsys, "hasse", "--family", "assoc", "-m", "3", "--dot")
    assert code == 0 and out.startswith("digraph")


def test_verify_commands(capsys):
    code, out, _ = run(capsys, "verify", "opet", "-m", "2", "-n", "2")
    assert code == 0 and "isomorphism verified" in out
    code, out, _ = run(capsys, "verify", "thmc", "-m", "3", "-n", "2")
    assert code == 0 and out.strip() == "thmc (3,2): 13 classes, kernels agree"
    code, out, _ = run(capsys, "verify", "propd", "-m", "3")
    assert code == 0 and "posets isomorphic" in out
    code, out, _ = run(capsys, "verify", "euler", "--family", "biperm", "-m", "3", "-n", "1")
    assert code == 0 and out.strip() == "euler biperm (3,1): 1"


def test_verify_euler_on_a_non_graded_poset_names_a_cover(capsys, monkeypatch):
    # a <= b <= c and d <= c: the cover d < c raises the rank by 2, so
    # the poset has no Euler sum; that is a verdict, not a usage error
    ungraded = FinitePoset(("a", "b", "c", "d"), [(0, 1), (1, 2), (3, 2)])

    def stand_in(m, each=None):
        for _ in ungraded.elements if each else ():
            each(trees.LEAF)  # any shape: the grading check fails first
        return ungraded

    monkeypatch.setattr(trees, "face_poset_associahedron", stand_in)
    code, out, err = run(capsys, "verify", "euler", "--family", "assoc", "-m", "3")
    assert (code, out, err) == (
        1, "euler assoc (3,1): FAILED: d < c is a cover but raises the rank by 2\n", ""
    )


def test_verify_euler_on_a_bad_sum_names_the_fvector(capsys, monkeypatch):
    # three points: graded, each of rank 0 = its dimension, but their
    # alternating sum is 3; that is a verdict, printed as every other is
    antichain = FinitePoset(("a", "b", "c"), [])

    def stand_in(m, each=None):
        for _ in antichain.elements if each else ():
            each(trees.LEAF)  # the one-leaf tree has dimension 0
        return antichain

    monkeypatch.setattr(trees, "face_poset_associahedron", stand_in)
    code, out, err = run(capsys, "verify", "euler", "--family", "assoc", "-m", "3")
    assert (code, out, err) == (
        1, "euler assoc (3,1): FAILED: f-vector 3 has alternating sum 3, not 1\n", ""
    )


def test_perm_forces_one_down_leaf(capsys):
    # the permutahedron is the (m, 1) bipermutahedron, whatever -n says
    code, out, _ = run(capsys, "fvector", "--family", "perm", "-m", "3", "-n", "2")
    assert code == 0 and out.strip() == "2 1"
    code, out, _ = run(capsys, "verify", "euler", "--family", "perm", "-m", "3", "-n", "2")
    assert code == 0 and out.strip() == "euler perm (3,1): 1"
    code, out, _ = run(capsys, "enumerate", "--family", "perm", "-m", "3", "-n", "2")
    assert code == 0 and len(out.splitlines()) == 3
    code, _, _ = run(capsys, "fvector", "--family", "perm", "-m", "7", "-n", "5")
    assert code == 0


def test_one_legged_families_force_one_down_leaf(capsys):
    # assoc and multipl ignore -n, and the euler line says so
    for family in ("assoc", "multipl"):
        code, out, _ = run(
            capsys, "verify", "euler", "--family", family, "-m", "4", "-n", "3"
        )
        assert code == 0 and out.strip() == "euler %s (4,1): 1" % family


def test_size_guard(capsys):
    code, _, err = run(capsys, "enumerate", "--family", "biperm", "-m", "9", "-n", "1")
    assert code == 2 and "tractability" in err
    code, _, err = run(capsys, "fvector", "--family", "biassoc", "-m", "5", "-n", "4")
    assert code == 2
    # the guard can be raised explicitly
    code, out, _ = run(
        capsys, "--max-size", "10", "enumerate", "--family", "assoc", "-m", "9"
    )
    assert code == 0 and len(out.splitlines()) == 20793


def test_encode_decode(capsys):
    code, out, _ = run(
        capsys, "encode", "--gamma",
        "--up", "((* * (* *)) (* (* *) *))", "--up-levels", "1,3,4,2,4",
    )
    assert code == 0 and out.strip() == "(4|57|12|36)"
    code, out, _ = run(
        capsys, "encode", "--gamma", "--decode", "(4|57|12|36)", "-m", "8"
    )
    assert code == 0
    assert out.strip() == "((* * (* *)) (* (* *) *));*;1,3,4,2,4;"
    # the (1, 1) pair has no gaps: its code has no blocks
    code, out, _ = run(capsys, "encode", "--gamma", "--decode", "()", "-m", "1")
    assert code == 0 and out.strip() == "*;*;;"
    # a single label above 9 must not read back as its digits
    up = "(* * * * * * * * * * (* *))"
    code, out, _ = run(capsys, "encode", "--gamma", "--up", up, "--up-levels", "1,2")
    assert code == 0 and out.strip() == "(1,2,3,4,5,6,7,8,9,10|11,)"
    code, out, _ = run(
        capsys, "encode", "--gamma", "--decode", out.strip(), "-m", "12"
    )
    assert code == 0 and out.strip() == up + ";*;1,2;"


# `encode --gamma --decode` argv -> exit code and stdout, or the last
# line of stderr on an error
DECODE_EDGES = [
    (["(12/4|3/)", "-m", "4", "-n", "2"], 0, "(* * (* *));(* *);1,2;1"),
    (["3|2|1", "-m", "4"], 2, "error: bipartition text must be parenthesized"),
    (["(21|3)", "-m", "4"], 2, "error: block labels must be sorted"),
    (["(|12)", "-m", "3"], 2, "error: block empty on both sides"),
    (["(1|1|2)", "-m", "3"], 2, "error: bipartition does not match (m, n) = (3, 1)"),
    (["(11|1)", "-m", "3"], 2, "error: bipartition does not match (m, n) = (3, 1)"),
    (["(1/2)", "-m", "2"], 2, "error: bipartition does not match (m, n) = (2, 1)"),
    (["(1)", "-m", "3"], 2, "error: bipartition does not match (m, n) = (3, 1)"),
    (["(bad)", "-m", "3"], 2, "error: invalid literal for int() with base 10: 'b'"),
    (["(1/)", "-m", "2", "-n", "0"], 2, "error: need m, n >= 1"),
    (["(3|2|1)"], 2, "error: need -m (and -n) to decode"),
]


def test_decode_edges(capsys):
    for argv, want_code, want in DECODE_EDGES:
        code, out, err = run(capsys, "encode", "--gamma", "--decode", *argv)
        assert (code, (out if code == 0 else err).splitlines()[-1]) == (want_code, want), argv


# (argv, exit code, last stderr line) of the (m, n) range errors
RANGE_EDGES = [
    ("enumerate --family perm -m 0", 2, "error: need m, n >= 1"),
    ("fvector --family perm -m 0", 2, "error: need m, n >= 1"),
    ("hasse --family perm -m 0", 2, "error: need m, n >= 1"),
    ("enumerate --family biperm -m 0", 2, "error: need m, n >= 1"),
    ("fvector --family biperm -m 0", 2, "error: need m, n >= 1"),
    ("hasse --family biperm -m 0", 2, "error: need m, n >= 1"),
    ("enumerate --family assoc -m 0", 2, "error: need m >= 1"),
    ("fvector --family assoc -m 0", 2, "error: need m >= 1"),
    ("hasse --family assoc -m 0", 2, "error: need m >= 1"),
    ("enumerate --family biassoc -m 0", 2, "error: need m, n >= 1"),
    ("fvector --family biassoc -m 0", 2, "error: need m, n >= 1"),
    ("hasse --family biassoc -m 0", 2, "error: need m, n >= 1"),
    ("enumerate --family multipl -m 0", 2, "error: need m >= 1"),
    ("fvector --family multipl -m 0", 2, "error: need m >= 1"),
    ("hasse --family multipl -m 0", 2, "error: need m >= 1"),
    ("enumerate --family biperm -m 1 -n 0", 2, "error: need m, n >= 1"),
    ("fvector --family biperm -m 1 -n 0", 2, "error: need m, n >= 1"),
    ("hasse --family biperm -m 1 -n 0", 2, "error: need m, n >= 1"),
    ("enumerate --family biperm -m 2 -n 0", 2, "error: need m, n >= 1"),
    ("fvector --family biperm -m 2 -n 0", 2, "error: need m, n >= 1"),
    ("hasse --family biperm -m 2 -n 0", 2, "error: need m, n >= 1"),
    ("enumerate --family biassoc -m 1 -n 0", 2, "error: need m, n >= 1"),
    ("fvector --family biassoc -m 1 -n 0", 2, "error: need m, n >= 1"),
    ("hasse --family biassoc -m 1 -n 0", 2, "error: need m, n >= 1"),
    ("enumerate --family biassoc -m 2 -n 0", 2, "error: need m, n >= 1"),
    ("fvector --family biassoc -m 2 -n 0", 2, "error: need m, n >= 1"),
    ("hasse --family biassoc -m 2 -n 0", 2, "error: need m, n >= 1"),
    ("verify euler --family biassoc -m 1 -n 0", 2, "error: need m, n >= 1"),
    ("verify opet -m 0 -n 1", 2, "error: need m, n >= 1"),
    ("verify thmc -m 1 -n 0", 2, "error: need m, n >= 1"),
    ("verify propd -m 1", 2, "error: need m >= 2"),
]


def test_range_edges(capsys):
    for argv, want_code, want in RANGE_EDGES:
        code, out, err = run(capsys, *argv.split())
        assert (code, out, err.splitlines()[-1]) == (want_code, "", want), argv


def test_varpi_command(capsys):
    code, out, _ = run(
        capsys, "varpi", "--up", "((* *) *)", "--down", "(* *)",
        "--up-levels", "1,3", "--down-levels", "2",
    )
    assert code == 0
    assert out.strip() == "F{ x[1,2] x[1,2] / V(x[2,1],x[1,2]) x[2,1] }"


# (argv, exit code, last stderr line) of the usage errors, recorded
# before the CLI's traceback import moved into its handler; with no verb
# the usage goes to stdout and stderr is empty
CHOICES = "(choose from 'perm', 'biperm', 'assoc', 'biassoc', 'multipl')"
USAGE_ERRORS = [
    ("", 2, ""),
    ("fvector --family assoc", 2, "error: need -m"),
    ("fvector --family biperm -m 5 -n 4", 2,
     "error: size m+n = 9 exceeds the tractability bound 8 (raise it with --max-size)"),
    ("fvector --family nope -m 2", 2,
     "biassoc fvector: error: argument --family: invalid choice: 'nope' " + CHOICES),
    ("enumerate --family nope -m 2", 2,
     "biassoc enumerate: error: argument --family: invalid choice: 'nope' " + CHOICES),
    ("verify opet -m 2 -n 2 --family nope", 2,
     "biassoc verify: error: argument --family: invalid choice: 'nope' " + CHOICES),
    ("varpi --up '(* *)'", 2, "error: need --up and --up-levels"),
    ("varpi --down '(* *)'", 2, "error: need --up and --up-levels"),
    ("varpi --up '(* *)' --up-levels '1;2'", 2,
     "error: pair key needs 4 ';'-separated parts, not 5"),
    ("encode --up '(* *)' --up-levels 1", 2, "error: only --gamma encoding is available"),
    ("encode --gamma --decode '(1)'", 2, "error: need -m (and -n) to decode"),
]


def test_usage_errors(capsys):
    for argv, want_code, want in USAGE_ERRORS:
        code, out, err = run(capsys, *shlex.split(argv))
        assert (code, (err.splitlines() or [""])[-1]) == (want_code, want), argv
        assert out.startswith("usage: biassoc ") if not argv else out == "", argv


def test_assoc_at_one_leaf_is_the_one_point_poset(capsys):
    # as enumerate prints the lone leaf, the poset verbs see one point
    for argv, want in (
        ("fvector", "1\n"),
        ("hasse", '{"elements": ["*"], "covers": []}\n'),
        ("verify euler", "euler assoc (1,1): 1\n"),
    ):
        code, out, _ = run(capsys, *argv.split(), "--family", "assoc", "-m", "1")
        assert (code, out) == (0, want)


def test_fvector_at_the_smallest_split_and_below(capsys):
    # m + n = 2 is one point in every family, level and zone tuples
    # empty; m = 0 is a usage error with each family's own message
    for family, split in (("perm", "-m 1"), ("biperm", "-m 1 -n 1"),
                          ("biassoc", "-m 1 -n 1"), ("assoc", "-m 1"),
                          ("multipl", "-m 1")):
        assert run(capsys, "fvector", "--family", family, *split.split()) == (0, "1\n", "")
    for family, message in (("perm", "need m, n >= 1"), ("biperm", "need m, n >= 1"),
                            ("biassoc", "need m, n >= 1"), ("assoc", "need m >= 1"),
                            ("multipl", "need m >= 1")):
        code, out, err = run(capsys, "fvector", "--family", family, "-m", "0")
        assert (code, out, err) == (2, "", "error: %s\n" % message), family
    code, out, err = run(capsys, "fvector", "--family", "biperm", "-m", "0", "-n", "3")
    assert (code, out, err) == (2, "", "error: need m, n >= 1\n")


def family_splits(family, top=8):
    """Every split of the family with m + n <= top; the one-legged
    families have n = 1."""
    if cli.FAMILY[family].legs == 2:
        return [(m, k - m) for k in range(2, top + 1) for m in range(1, k)]
    return [(m, 1) for m in range(1, top)]


def fvector_mismatches(capsys, families):
    """(family, m, n) for each split with m + n <= 8 whose streamed
    fvector line is not the f-vector of the poset its builder makes."""
    out = []
    for family in families:
        for m, n in family_splits(family):
            code, line, _ = run(capsys, "fvector", "--family", family, "-m", str(m), "-n", str(n))
            want = " ".join(map(str, cli.FAMILY[family].build(m, n, None).fvector())) + "\n"
            if (code, line) != (0, want):
                out.append((family, m, n))
    return out


def test_each_face_dimension_is_its_longest_chain_rank():
    # the ranks come from the Kahn pass over each builder's moves, the
    # dimensions from each face's own parts, in the order the builder's
    # hook walks them: every split with m + n <= 8, assoc up to m = 8
    for family, row in cli.FAMILY.items():
        for m, n in family_splits(family, 9 if family == "assoc" else 8):
            dims = []
            p = row.build(m, n, lambda *face: dims.append(row.dimension(*face)))
            assert p.ranks() == dims, (family, m, n)


def test_streamed_fvector_is_the_posets(capsys):
    assert fvector_mismatches(capsys, cli.FAMILY) == []


def test_a_dimension_off_on_barriers_fails_both_checks(capsys, monkeypatch):
    # a mutant zone_dimension that counts one barrier zone twice: the
    # streamed f-vectors differ from the posets', and verify euler names
    # the first face in key order whose rank is not its dimension
    row = cli.FAMILY["biassoc"]

    def twice(up, down, up_zones, down_zones):
        return row.dimension(up, down, up_zones, down_zones) - bool(set(up_zones) & set(down_zones))

    monkeypatch.setitem(cli.FAMILY, "biassoc", row._replace(dimension=twice))
    assert ("biassoc", 2, 2) in fvector_mismatches(capsys, ["biassoc"])
    code, out, err = run(capsys, "verify", "euler", "--family", "biassoc", "-m", "2", "-n", "2")
    p = zones.biassociahedron_poset(2, 2)
    key = next(k for k in p.elements if set(k.split(";")[2]) & set(k.split(";")[3]))
    r = p.ranks()[p.index(key)]
    assert (code, out, err) == (
        1, "euler biassoc (2,2): FAILED: %s has rank %d but dimension %d\n" % (key, r, r - 1), "")


def test_fvector_builds_no_poset(capsys, monkeypatch):
    # every FinitePoset built is counted; fvector counts each face by
    # its dimension as it walks them, and builds none
    built = []
    validate = FinitePoset.__post_init__
    monkeypatch.setattr(FinitePoset, "__post_init__",
                        lambda p, relation: built.append(len(p.elements)) or validate(p, relation))
    for family in cli.FAMILY:
        code, out, _ = run(capsys, "fvector", "--family", family, "-m", "3", "-n", "3")
        assert code == 0 and out and built == [], family
    # the count sees the poset another verb builds
    run(capsys, "hasse", "--family", "assoc", "-m", "4")
    assert built == [11]


def test_internal_error_exit_code(capsys, monkeypatch):
    def boom(m):
        raise RuntimeError("boom")

    monkeypatch.setattr(multipli, "prop_d_map", boom)
    code, out, err = run(capsys, "verify", "propd", "-m", "3")
    assert code == 3 and out == ""
    # the traceback is how the benchmark's runner tells a crash from a verdict
    lines = err.splitlines()
    assert "Traceback (most recent call last):" in lines
    assert lines[-2:] == ["RuntimeError: boom", "internal error: RuntimeError: boom"]


# one call of each verb at its smallest size, and of each family's
# poset and enumerate verbs
COLD_START_CALLS = [
    *("%s --family %s %s" % (verb, family, "-m 1" if cli.FAMILY[family].legs == 1
                             else "-m 1 -n 1")
      for verb in ("fvector", "hasse", "hasse --dot", "enumerate --format json")
      for family in cli.FAMILY),
    "verify opet -m 1 -n 1", "verify thmc -m 1 -n 1", "verify propd -m 2",
    "verify euler --family biperm -m 1 -n 1",
    "encode --gamma --decode () -m 1", "encode --gamma --up (**) --up-levels 1",
    "varpi --up (**) --up-levels 1",
]


def test_cold_start_imports_no_dataclasses_or_traceback():
    # every call pays for the library's imports, and these modules are
    # large: the records are no dataclasses, and traceback is imported
    # only on an internal error.  A bare interpreter is the base, since
    # site hooks differ between hosts
    script = """
import runpy, sys
for argv in %r:
    sys.argv = ["biassoc", *argv.split()]
    try:
        runpy.run_module("biassoc.cli", run_name="__main__")
    except SystemExit as exc:
        assert exc.code == 0, (argv, exc.code)
print(" ".join(sorted(sys.modules)))
""" % (COLD_START_CALLS,)

    def modules(code):
        out = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True,
                             text=True, check=True).stdout
        return set(out.splitlines()[-1].split())

    new = modules(script) - modules("import sys; print(' '.join(sorted(sys.modules)))")
    assert "biassoc.leveled" in new
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", "traceback"}
    assert not new & heavy, sorted(new & heavy)


def test_thmc_failure_prints_a_witness(capsys, monkeypatch):
    pairs = enumerate_leveled_pairs(3, 2)
    project, varpi = zones.project, propterms.varpi
    term_code, zone_group = propterms.term_code, zones.zone_group
    varpi_expr, validated = propterms.varpi_expr, propterms._validated

    def term(x):
        return term_code(varpi(x))

    # one kernel pass: every pair is walked once on success, and at most
    # once before the witness on failure; a term is validated once per
    # distinct expression of a tree pair.  A cut piece of a (3, 2) pair
    # has fewer leaves on one side, so its varpi_expr is not counted
    calls, validations = [], []

    def count_varpi():
        calls.clear()
        validations.clear()
        monkeypatch.setattr(
            propterms, "varpi_expr",
            lambda *x: (trees.leaf_count(x[0]), trees.leaf_count(x[1])) == (3, 2)
            and calls.append(leveled.pair_key(*x)) or varpi_expr(*x),
        )
        monkeypatch.setattr(
            propterms, "_validated", lambda e: validations.append(e) or validated(e)
        )

    count_varpi()
    code, out, _ = run(capsys, "verify", "thmc", "-m", "3", "-n", "2")
    classes = len(zones.enumerate_zone_pairs(3, 2))
    assert (code, out) == (0, "thmc (3,2): %d classes, kernels agree\n" % classes)
    assert sorted(calls) == sorted(x.key() for x in pairs)
    distinct = {(x.up, x.down, varpi_expr(*x.parts)) for x in pairs}
    assert len(validations) == len(distinct)

    # merge two zone classes in the projections of the first tree pair
    # that has two: the witness has equal zones, different terms
    merged = []

    def merging_zone_group(up, down, levels):
        found, numbers = zone_group(up, down, levels)
        if not merged and len(found) > 1:
            merged.extend(leveled.pair_key(up, down, *z) for z in found[:2])
            numbers = [0 if k == 1 else k for k in numbers]
        return found, numbers

    monkeypatch.setattr(zones, "zone_group", merging_zone_group)
    count_varpi()
    code, out, _ = run(capsys, "verify", "thmc", "-m", "3", "-n", "2")
    assert code == 1
    k1, k2 = re.fullmatch(
        r"thmc \(3,2\): FAILED: (.+) and (.+) have equal zones but "
        r"different terms\n", out
    ).groups()
    assert len(set(calls)) == len(calls) and calls[-1] == k2
    x1, x2 = ComplementaryPair.from_key(k1), ComplementaryPair.from_key(k2)
    assert {project(x1).key(), project(x2).key()} == set(merged)
    assert term(x1) != term(x2)
    monkeypatch.undo()

    # merge two term classes: the witness has equal terms, different zones
    t1, t2 = sorted({term(x) for x in pairs})[:2]
    monkeypatch.setattr(
        propterms, "term_code", lambda t: t1 if term_code(t) == t2 else term_code(t)
    )
    count_varpi()
    code, out, _ = run(capsys, "verify", "thmc", "-m", "3", "-n", "2")
    assert code == 1
    k1, k2 = re.fullmatch(
        r"thmc \(3,2\): FAILED: (.+) and (.+) have equal terms but "
        r"different zones\n", out
    ).groups()
    assert len(set(calls)) == len(calls) and calls[-1] == k2
    x1, x2 = ComplementaryPair.from_key(k1), ComplementaryPair.from_key(k2)
    assert {term_code(varpi(x)) for x in (x1, x2)} == {t1, t2}
    assert project(x1).key() != project(x2).key()


def test_poset_output_byte_identical(capsys):
    for argv, digest in GOLDENS.items():
        code, out, _ = run(capsys, *shlex.split(argv))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_small_enumerations_byte_identical(capsys):
    # the goldens of enumerate with m + n <= 4, every family and format:
    # few enough to check each mutant of its order, as the whole table
    # above is not
    for argv, digest in GOLDENS.items():
        split = re.fullmatch(r"enumerate .* -m (\d+) -n (\d+)", argv)
        if split and sum(map(int, split.groups())) <= 4:
            code, out, _ = run(capsys, *shlex.split(argv))
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_library_imports_no_numpy():
    # the library needs no third-party package; numpy is for the tests only
    script = (
        "import sys\n"
        "from biassoc import cli\n"
        "code = cli.run(['fvector', '--family', 'biassoc', '-m', '3', '-n', '2'])\n"
        "print('numpy' in sys.modules)\n"
        "sys.exit(code)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=ENV,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["6 6 1", "False"]
