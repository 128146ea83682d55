import json
from itertools import product

import pytest

from biassoc import leveled as L
from biassoc import multipli as M
from biassoc import trees as T
from biassoc import zones as Z
from biassoc.multipli import ABOVE, AT, BELOW, DiaphragmTree, PaintedTree
from biassoc.trees import PlanarTree, contraction_map
from biassoc.zones import biassociahedron_poset, enumerate_zone_pairs
from oracles import (
    closure,
    coarser_shapes,
    diaphragm_rank,
    diaphragm_to_zone,
    leq,
    multiplihedron_up_sets,
    painted_jsonable,
    painted_multiplihedron_poset,
    painted_to_diaphragm,
    up_set_ranks,
)


def test_painted_counts_and_goldens():
    assert len(M.enumerate_painted(1)) == 1
    assert len(M.enumerate_painted(2)) == 3
    assert len(M.enumerate_painted(3)) == 13
    assert len(M.enumerate_painted(4)) == 67
    assert [p.text() for p in M.enumerate_painted(2)] == [
        "!((* *))",
        "!(* *)",
        "(!(*) !(*))",
    ]


def test_painted_validation():
    with pytest.raises(ValueError):  # no application vertex on the path
        PaintedTree.from_text("(* *)")
    with pytest.raises(ValueError):  # two application vertices stacked
        PaintedTree.from_text("!(!(*))")
    with pytest.raises(ValueError):  # unary plain vertex
        PaintedTree(((".", ("*",))))
    with pytest.raises(ValueError):
        PaintedTree.from_text("!(* *) garbage")
    for text in (
        "!()",  # an application vertex with no input
        "(!(*))",  # a unary black vertex
        "!((* !(*)))",  # an application vertex inside a white part
        "!(* (* *)",  # an unbalanced "("
        "(!(*) !(*)",
    ):
        with pytest.raises(ValueError):
            PaintedTree.from_text(text)


def application_inputs(shape):
    """The inputs of each application vertex of a painted shape."""
    kind, children = shape
    if kind == "!":
        yield children
    else:
        for c in children:
            yield from application_inputs(c)


def test_application_inputs_are_plain_shapes():
    # below the membrane a painted tree is plain: both builds hold each
    # white part as a shape of trees, not a painted copy of it
    for m in range(1, 7):
        painted = [p.shape for p in M.enumerate_painted(m)]
        painted += [M.painted_shape(s, z) for s, z in M.shape_diaphragms(m)]
        for shape in painted:
            for inputs in application_inputs(shape):
                for white in inputs:
                    T.validate_shape(white)


def test_painted_text_json_roundtrip():
    # the JSON text, rewritten from the painted text, is the text
    # json.dumps gives the reference object, and reads back as it; the
    # enumerate test in test_cli checks the same to m = 7
    for m in range(1, 5):
        for p in M.enumerate_painted(m):
            assert PaintedTree.from_text(p.text()) == p
            assert p.m == m
            obj = painted_jsonable(p.shape)
            assert p.to_json() == json.dumps(obj) and json.loads(p.to_json()) == obj


def test_diaphragm_validation():
    tree = PlanarTree.from_text("((* *) *)", "up")
    DiaphragmTree(tree, (ABOVE, AT))
    DiaphragmTree(tree, (AT, BELOW))
    with pytest.raises(ValueError):  # marking decreases away from the root
        DiaphragmTree(tree, (BELOW, ABOVE))
    with pytest.raises(ValueError):  # two comparable membrane vertices
        DiaphragmTree(tree, (AT, AT))
    with pytest.raises(ValueError):
        DiaphragmTree(tree, (AT,))
    with pytest.raises(ValueError):
        DiaphragmTree(PlanarTree.from_text("(* *)", "down"), (AT,))
    # a mark is an int: True equals BELOW and 0.0 equals AT, but neither is a mark
    for bad in ((ABOVE, True), (0.0, BELOW), (ABOVE, 1.0)):
        with pytest.raises(ValueError, match="bad zeta value"):
            DiaphragmTree(tree, bad)


def test_zone_diaphragm_roundtrip():
    for m in range(1, 5):
        for z in enumerate_zone_pairs(m, 2):
            d = M.zone_to_diaphragm(z)
            assert diaphragm_to_zone(d) == z
    with pytest.raises(ValueError):
        M.zone_to_diaphragm(enumerate_zone_pairs(2, 3)[0])


def test_painted_diaphragm_roundtrip():
    for m in range(1, 5):
        for d in M.enumerate_diaphragms(m):
            assert painted_to_diaphragm(M.diaphragm_to_painted(d)) == d
        # and the two independent enumerations agree
        via_zones = {M.diaphragm_to_painted(d).key() for d in M.enumerate_diaphragms(m)}
        direct = {p.key() for p in M.enumerate_painted(m)}
        assert via_zones == direct


def test_shape_diaphragms_are_the_markings_diaphragm_tree_accepts():
    # per plain shape, the generated markings are exactly the zeta in
    # {ABOVE, AT, BELOW}^V that DiaphragmTree accepts, each once
    for m in range(1, 7):
        found = {}
        for shape, zeta in M.shape_diaphragms(m):
            found.setdefault(shape, []).append(zeta)
        assert set(found) <= set(T._shapes(m))
        for shape in T._shapes(m):
            tree = PlanarTree("up", shape)
            accepted = set()
            for zeta in product((ABOVE, AT, BELOW), repeat=len(tree.vertices())):
                try:
                    DiaphragmTree(tree, zeta)
                except ValueError:
                    continue
                accepted.add(zeta)
            zetas = found.get(shape, [])
            assert len(set(zetas)) == len(zetas), T.shape_text(shape)
            assert set(zetas) == accepted, T.shape_text(shape)


def painted_counts(top):
    # the painted-tree recurrence B = W + sum prod B + sum prod W over
    # the tuples of >= 2 parts, with W = x + sum prod W counting the
    # plain shapes: a painted root edge over a plain shape, a plain
    # root over painted subtrees, or an application root over plain
    # ones; g sums the products over the tuples of >= 1 parts
    w, b, gw, gb = ([0] * (top + 1) for _ in range(4))
    for m in range(1, top + 1):
        w_tuples = sum(w[k] * gw[m - k] for k in range(1, m))
        b_tuples = sum(b[k] * gb[m - k] for k in range(1, m))
        w[m] = (m == 1) + w_tuples
        b[m] = w[m] + b_tuples + w_tuples
        gw[m], gb[m] = w[m] + w_tuples, b[m] + b_tuples
    return b[1:]


def test_shape_diaphragms_paint_the_reference_enumerations():
    # the painted keys of the per-shape diaphragms are the painted trees
    # of the vertex rules and the paintings of the zone-side diaphragms
    counts = painted_counts(7)
    assert counts == [1, 3, 13, 67, 381, 2311, 14681]
    for m in range(1, 8):
        keys = [M.painted_key(s, z) for s, z in M.shape_diaphragms(m)]
        assert len(set(keys)) == len(keys) == counts[m - 1]
        assert set(keys) == {p.key() for p in M.enumerate_painted(m)}
        assert set(keys) == {
            M.diaphragm_to_painted(d).key() for d in M.enumerate_diaphragms(m)
        }


def test_multiplihedron_poset_matches_the_painted_tree_build():
    # the same elements, covers and ranks as the build from the painted
    # trees of the vertex rules, which ties Prop D's painted side to them
    for m in range(1, 8):
        p, q = M.multiplihedron_poset(m), painted_multiplihedron_poset(m)
        assert p.elements == q.elements
        assert p.covers() == q.covers()
        assert p.ranks() == q.ranks()


def test_painting_examples():
    tree = PlanarTree.from_text("((* *) *)", "up")
    assert M.diaphragm_to_painted(DiaphragmTree(tree, (AT, BELOW))).text() == "!((* *) *)"
    assert (
        M.diaphragm_to_painted(DiaphragmTree(tree, (ABOVE, AT))).text()
        == "(!(* *) !(*))"
    )
    assert (
        M.diaphragm_to_painted(DiaphragmTree(tree, (ABOVE, BELOW))).text()
        == "(!((* *)) !(*))"
    )


def test_fvectors_and_euler():
    assert M.multiplihedron_poset(2).fvector() == (2, 1)
    assert M.multiplihedron_poset(3).fvector() == (6, 6, 1)
    for m in range(1, 6):
        p = M.multiplihedron_poset(m)
        assert p.euler() == 1
        assert p.ranks().count(max(p.ranks())) == 1


def plain_count(shape) -> int:
    # the black vertices and every vertex of a white part
    kind, children = shape
    if kind == "!":
        return sum(len(T.shape_vertices(c)) for c in children)
    return 1 + sum(plain_count(c) for c in children)


def multiplihedron_vertex_counts(top):
    # M = A + M^2 with A = x + A^2 (binary trees): a painted binary tree
    # is a plain binary tree under a painted root edge, or a painted
    # root with two painted subtrees
    a, mm = [0] * (top + 1), [0] * (top + 1)
    for k in range(1, top + 1):
        a[k] = (k == 1) + sum(a[i] * a[k - i] for i in range(1, k))
        mm[k] = a[k] + sum(mm[i] * mm[k - i] for i in range(1, k))
    return mm[1:]


def test_multiplihedron_vertex_counts():
    counts = multiplihedron_vertex_counts(7)
    assert counts == [1, 2, 6, 21, 80, 322, 1348]
    for m in range(1, 7):
        assert M.multiplihedron_poset(m).fvector()[0] == counts[m - 1]
    # the vertices are the painted trees with m - 1 plain vertices
    assert sum(plain_count(p.shape) == 6 for p in M.enumerate_painted(7)) == counts[6]


def test_tree_families_build_without_pairs_or_zones(monkeypatch):
    # cold caches, and every route through leveled or zone pairs raises
    def refuse(*args):
        raise AssertionError("built from leveled or zone pairs")

    for fn in (M.enumerate_painted, M._black_parts, T._shapes, coarser_shapes,
               T.contraction_map, T.leaf_intervals, T.shape_edges):
        fn.cache_clear()
    monkeypatch.setattr(M, "enumerate_zone_pairs", refuse)
    monkeypatch.setattr(M, "enumerate_diaphragms", refuse)
    monkeypatch.setattr(L, "enumerate_leveled_pairs", refuse)
    assert T.face_poset_associahedron(5).fvector() == (14, 21, 9, 1)
    assert M.multiplihedron_poset(4).fvector() == (21, 32, 13, 1)


def test_rank_formula_and_cover_moves():
    # dimension of the face of a painted tree: (m - 1) minus the number
    # of plain (non-application) vertices; every cover removes exactly
    # one plain vertex, either by flipping a mark onto the membrane or
    # by a marking-compatible tree contraction
    for m in range(2, 6):
        p = M.multiplihedron_poset(m)
        assert p.is_graded()
        painted = [PaintedTree.from_text(key) for key in p.elements]
        for q, r in zip(painted, p.ranks()):
            assert r == (m - 1) - plain_count(q.shape)
        ds = [painted_to_diaphragm(q) for q in painted]
        for i, j in p.covers():
            d1, d2 = ds[i], ds[j]
            if d1.tree.shape == d2.tree.shape:
                diffs = [(a, b) for a, b in zip(d1.zeta, d2.zeta) if a != b]
                assert len(diffs) == 1 and diffs[0][1] == AT
            else:
                cm = contraction_map(d1.tree.shape, d2.tree.shape)
                assert cm is not None
                marks2 = dict(zip(d2.tree.vertices(), d2.zeta))
                for v, mark in zip(d1.tree.vertices(), d1.zeta):
                    assert marks2[cm[v]] in (mark, AT)


def test_prop_d():
    for m in (2, 3, 4):
        assert M.prop_d_check(m)
    witness = M.prop_d_check(3)
    assert isinstance(witness, dict) and len(witness) == 13
    biassoc = biassociahedron_poset(3, 2)
    multipl = M.multiplihedron_poset(3)
    le_biassoc, le_multipl = leq(biassoc), leq(multipl)
    for a in biassoc.elements:
        for b in biassoc.elements:
            assert le_biassoc(a, b) == le_multipl(witness[a], witness[b])
    with pytest.raises(ValueError):
        M.prop_d_check(1)


def test_prop_d_projects_each_pair_once(monkeypatch):
    # cold caches: the biassociahedron's elements and relation and the
    # map's painted keys all come from one projection per (5, 2) pair
    Z.enumerate_zone_pairs.cache_clear()
    # and no ZonePair is built: the painter reads each class's zones
    calls, built = [], []
    zone_tuples, init = Z._zone_tuples, Z.ZonePair.__init__
    monkeypatch.setattr(Z, "_zone_tuples", lambda *v: calls.append(v) or zone_tuples(*v))
    monkeypatch.setattr(Z.ZonePair, "__init__", lambda z, *parts: built.append(z) or init(z, *parts))
    assert M.prop_d_check(5) is not None
    assert built == []
    assert len(calls) == len(L.enumerate_leveled_pairs(5, 2))


def test_multiplihedron_order_is_all_pairs_diaphragm_leq():
    # the poset is built on painted trees and compares each only with
    # the coarser shapes; the reference is diaphragm_leq on every pair
    # of the zone-side diaphragms
    for m in range(1, 6):
        p = M.multiplihedron_poset(m)
        le = leq(p)
        ds = M.enumerate_diaphragms(m)
        keys = [M.diaphragm_to_painted(d).key() for d in ds]
        for a, x in zip(ds, keys):
            for b, y in zip(ds, keys):
                assert le(x, y) == M.diaphragm_leq(a, b), (x, y)


def test_multiplihedron_up_sets_match_shape_closure_reference():
    # diaphragm_leq against every diaphragm on a coarser shape, the
    # shape closure times the fiber masks, and the closure of the
    # covers one rank apart that the library builds
    m = 6
    p = M.multiplihedron_poset(m)
    ds = [painted_to_diaphragm(q) for q in M.enumerate_painted(m)]
    by_shape = {}
    for j, d in enumerate(ds):
        by_shape.setdefault(d.tree.shape, []).append(j)
    up = [
        frozenset(j for s in coarser_shapes(d.tree.shape) for j in by_shape[s]
                  if M.diaphragm_leq(d, ds[j]))
        for d in ds
    ]
    assert sum(map(len, up)) == 32881
    assert multiplihedron_up_sets(m) == (p.elements, up)
    assert closure(p) == up


def test_multiplihedron_rank_formula_is_the_longest_chain_rank():
    # the rank (m - 1) - #(vertices off the membrane), which each of the
    # library's moves raises by one, must be the longest-chain rank of
    # the reference order, the shape closure times the fiber masks
    for m in range(1, 8):
        keys, up = multiplihedron_up_sets(m)
        rank = up_set_ranks(up)
        for q, r in zip(M.enumerate_painted(m), rank):
            assert diaphragm_rank(m, painted_to_diaphragm(q).zeta) == r, q.key()
        assert M.multiplihedron_poset(m).ranks() == rank


def test_multiplihedron_moves_are_the_covers():
    # each move lands on an enumerated diaphragm one rank up, no move
    # repeats, and together they are exactly the covers
    for m in range(1, 8):
        ds = [painted_to_diaphragm(q) for q in M.enumerate_painted(m)]
        index = {(d.tree.shape, d.zeta): i for i, d in enumerate(ds)}
        moves = []
        for i, d in enumerate(ds):
            for shape, zeta in M.diaphragm_moves(d.tree.shape, d.zeta):
                assert (shape, zeta) in index, (d.key(), shape, zeta)
                assert diaphragm_rank(m, zeta) == diaphragm_rank(m, d.zeta) + 1
                moves.append((i, index[shape, zeta]))
        assert len(set(moves)) == len(moves)
        assert set(moves) == set(M.multiplihedron_poset(m).covers())


def test_multiplihedron_fiber_marks():
    # contracting ((* *) *) to the corolla sends both vertices to its
    # one vertex, so the image's mark must suit the whole fiber
    le = leq(M.multiplihedron_poset(3))
    tree = PlanarTree.from_text("((* *) *)", "up")
    corolla = PlanarTree.from_text("(* * *)", "up")

    def key(t, *zeta):
        return M.diaphragm_to_painted(DiaphragmTree(t, zeta)).key()

    def above(*zeta):
        return {mark for mark in (ABOVE, AT, BELOW)
                if le(key(tree, *zeta), key(corolla, mark))}

    assert above(ABOVE, BELOW) == {AT}  # only the membrane takes both
    assert above(ABOVE, ABOVE) == {ABOVE, AT}
    assert above(BELOW, BELOW) == {BELOW, AT}
    assert above(AT, BELOW) == above(ABOVE, AT) == {AT}
    for zeta in ((ABOVE, BELOW), (ABOVE, ABOVE), (BELOW, BELOW), (AT, BELOW)):
        d = DiaphragmTree(tree, zeta)
        for mark in (ABOVE, AT, BELOW):
            assert M.diaphragm_leq(d, DiaphragmTree(corolla, (mark,))) == (
                mark in above(*zeta)
            )


def test_diaphragm_leq_basics():
    tree = PlanarTree.from_text("((* *) *)", "up")
    lo = DiaphragmTree(tree, (ABOVE, BELOW))
    hi = DiaphragmTree(tree, (ABOVE, AT))
    assert M.diaphragm_leq(lo, hi)
    assert not M.diaphragm_leq(hi, lo)
    corolla = DiaphragmTree(PlanarTree.from_text("(* * *)", "up"), (AT,))
    assert M.diaphragm_leq(lo, corolla)
    with pytest.raises(ValueError):
        M.diaphragm_leq(lo, DiaphragmTree(PlanarTree.from_text("(* *)", "up"), (AT,)))
