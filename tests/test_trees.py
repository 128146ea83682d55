import hashlib
from itertools import product

import pytest
from hypothesis import given, strategies as st

from biassoc import trees as T
from biassoc.leveled import ComplementaryPair
from biassoc.multipli import ABOVE, AT, BELOW, DiaphragmTree, PaintedTree
from biassoc.zones import ZonePair
from oracles import associahedron_up_sets, block_merge_up_sets, closure


def binary_shapes(m):
    if m == 1:
        return [T.LEAF]
    out = []
    for i in range(1, m):
        for a in binary_shapes(i):
            for b in binary_shapes(m - i):
                out.append((a, b))
    return out


def oracle_shapes(m):
    """Independent generator: close the binary trees under single-edge
    contraction."""
    seen = set()
    frontier = set(binary_shapes(m))
    while frontier:
        s = frontier.pop()
        if s in seen:
            continue
        seen.add(s)
        t = T.PlanarTree("up", s)
        for p in t.vertices():
            if p != ():
                frontier.add(T.contract_edge(t, p).shape)
    return seen


def schroeder(n):
    # 1, 1, 3, 11, 45, 197, 903, ...
    vals = [1, 1]
    for k in range(1, n):
        vals.append((3 * (2 * k + 1) * vals[-1] - (k - 1) * vals[-2]) // (k + 2))
    return vals[n]


def test_counts_match_recurrence_and_oracle():
    for m in range(1, 8):
        got = T.enumerate_trees(m)
        assert len(got) == schroeder(m - 1)
        if m <= 6:
            assert {t.shape for t in got} == oracle_shapes(m)


def test_exceptional_tree():
    (t,) = T.enumerate_trees(1)
    assert t.exceptional and t.leaves == 1 and t.vertices() == ()


def test_zero_leaves_rejected():
    with pytest.raises(ValueError):
        T.enumerate_trees(0)


def test_vertex_arity_floor():
    with pytest.raises(ValueError):
        T.PlanarTree("up", (T.LEAF,))


def test_vertex_order_examples():
    corolla = T.PlanarTree.from_text("(* * *)")
    assert T.vertex_order(corolla) == frozenset()
    binar = T.PlanarTree.from_text("((* *) *)")
    assert ((0,), ()) in T.vertex_order(binar)
    # up-rooted: descendants smaller than ancestors
    binar_down = T.PlanarTree.from_text("((* *) *)", "down")
    assert ((), (0,)) in T.vertex_order(binar_down)
    # two incomparable deep vertices
    wide = T.PlanarTree.from_text("((* *) (* *))")
    order = T.vertex_order(wide)
    assert ((0,), (1,)) not in order and ((1,), (0,)) not in order


def test_contract_edge():
    binar = T.PlanarTree.from_text("((* *) *)")
    assert T.contract_edge(binar, (0,)).text() == "(* * *)"
    with pytest.raises(ValueError):
        T.contract_edge(T.PlanarTree.from_text("(* * *)"), ())
    for path in ((5,), (-2,), (1,), (0, 0)):  # no vertex, or a leaf
        with pytest.raises(ValueError, match="not an internal edge"):
            T.contract_edge(binar, path)
    comb4 = T.PlanarTree.from_text("(((* *) *) *)")
    assert T.contract_edge(comb4, (0, 0)).text() == "((* * *) *)"
    assert T.contract_edge(comb4, (0,)).text() == "((* *) * *)"


def test_shape_from_intervals_inverts_leaf_intervals():
    # the bare leaf and every shape with <= 8 leaves; the intervals are
    # a set, so their order does not matter
    shapes = [t.shape for m in range(1, 9) for t in T.enumerate_trees(m)]
    assert shapes[0] == T.LEAF and len(shapes) == 5440
    for s in shapes:
        intervals = T.leaf_intervals(s)
        assert T.shape_from_intervals(intervals) == s
        assert T.shape_from_intervals(intervals[::-1]) == s


def test_contract_edge_counts():
    for t in T.enumerate_trees(5):
        for p in t.vertices():
            if p == ():
                continue
            c = T.contract_edge(t, p)
            assert len(c.vertices()) == len(t.vertices()) - 1
            assert c.leaves == t.leaves


def test_tree_leq_examples():
    comb = T.PlanarTree.from_text("(((* *) *) *)")
    rcomb = T.PlanarTree.from_text("(* (* (* *)))")
    top = T.PlanarTree.from_text("(* * * *)")
    assert T.tree_leq(comb, comb)
    assert T.tree_leq(comb, top) and T.tree_leq(rcomb, top)
    assert not T.tree_leq(comb, rcomb)
    with pytest.raises(ValueError):
        T.tree_leq(comb, T.PlanarTree.from_text("(* *)"))


def test_tree_leq_is_partial_order():
    for m in range(2, 6):
        ts = T.enumerate_trees(m)
        leq = {
            (i, j): T.tree_leq(a, b)
            for i, a in enumerate(ts)
            for j, b in enumerate(ts)
        }
        for i in range(len(ts)):
            assert leq[i, i]
            for j in range(len(ts)):
                if i != j and leq[i, j]:
                    assert not leq[j, i]
                for k in range(len(ts)):
                    if leq[i, j] and leq[j, k]:
                        assert leq[i, k]


def test_tree_leq_matches_contraction_closure():
    # the order coincides with reachability by single contractions
    for m in range(2, 6):
        for t in T.enumerate_trees(m):
            reach = {t.shape}
            frontier = [t]
            while frontier:
                s = frontier.pop()
                for p in s.vertices():
                    if p == ():
                        continue
                    c = T.contract_edge(s, p)
                    if c.shape not in reach:
                        reach.add(c.shape)
                        frontier.append(c)
            for u in T.enumerate_trees(m):
                assert T.tree_leq(t, u) == (u.shape in reach)


def test_associahedron_order_is_tree_leq():
    # the closure of single edge contractions against the reference
    # order and against the coarser_shapes up-sets
    for m in range(2, 8):
        ts = T.enumerate_trees(m)
        p = T.face_poset_associahedron(m)
        assert p.elements == tuple(t.text() for t in ts)
        up = closure(p)
        for i, a in enumerate(ts):
            for j, b in enumerate(ts):
                assert (j in up[i]) == T.tree_leq(a, b), (a.text(), b.text())
        assert (p.elements, up) == associahedron_up_sets(m)


def test_associahedron_is_the_block_merge_image():
    # the image of the (m, 1) pair order under x -> x.up stays an oracle
    for m in range(2, 8):
        p = T.face_poset_associahedron(m)
        keys, up = block_merge_up_sets(m, 1, lambda x: x.up.text())
        assert p.elements == keys
        assert closure(p) == up


def test_associahedron_fvectors():
    assert T.face_poset_associahedron(2).fvector() == (1,)
    assert T.face_poset_associahedron(3).fvector() == (2, 1)
    assert T.face_poset_associahedron(4).fvector() == (5, 5, 1)
    for m in range(2, 7):
        p = T.face_poset_associahedron(m)
        assert p.euler() == 1
        # graded with dim = m - 1 - #vertices
        ranks = p.ranks()
        for key, r in zip(p.elements, ranks):
            t = T.PlanarTree.from_text(key)
            assert r == m - 1 - len(t.vertices())


@given(st.integers(2, 6), st.integers(0, 10**6))
def test_text_roundtrip(m, pick):
    ts = T.enumerate_trees(m)
    t = ts[pick % len(ts)]
    assert T.PlanarTree.from_text(t.text()).shape == t.shape
    assert T.PlanarTree.from_json(t.to_json()) == t


def test_tree_text_whitespace_only_separates_tokens():
    # tree text skips any whitespace, as str.split does and as painted
    # tree text does: tabs and newlines as well as spaces
    for text, clean in (("(*\t*)", "(* *)"), ("(*\n(* *))", "(* (* *))"),
                        (" ( * \t( *\n* ) ) \n", "(* (* *))")):
        assert T.PlanarTree.from_text(text).text() == clean
        assert PaintedTree.from_text("!" + text).text() == "!" + clean
    with pytest.raises(ValueError):
        T.PlanarTree.from_text("(*\t*) *")


def test_contracted_values_reads_the_image_of_each_vertex():
    # contracting the edge above the vertex (1,) of (* (* *) *) merges
    # it into the root, so it reads the root's value
    fine, coarse = T.shape_from_text("(* (* *) *)"), T.shape_from_text("(* * * *)")
    assert T.contracted_values(fine, coarse, ("r",)) == ("r", "r")
    mid = T.shape_from_text("((* *) (* *))")
    assert T.contracted_values(mid, mid, (1, 2, 3)) == (1, 2, 3)
    assert T.contracted_values(coarse, fine, (1, 2)) is None
    assert T.contracted_values(mid, fine, (1, 2)) is None


def test_contraction_map_is_identity_on_equal():
    for t in T.enumerate_trees(4):
        cm = T.contraction_map(t.shape, t.shape)
        assert cm == {p: p for p in t.vertices()}


# recorded with the earlier leaf-routing implementation of contraction_map
CONTRACTION_MAPS_SHA256 = "ea54711c0cc0933df425dfddebe78aab6bca942917f4061c74cdd6ae634b9163"


def test_contraction_map_golden():
    # every ordered pair of shapes with <= 6 leaves, leaf counts unequal too
    shapes = [t.shape for m in range(1, 7) for t in T.enumerate_trees(m)]
    rows = []
    for a in shapes:
        for b in shapes:
            cm = T.contraction_map(a, b)
            row = (T.shape_text(a), T.shape_text(b), None if cm is None else sorted(cm.items()))
            rows.append(row)
    digest = hashlib.sha256("".join(repr(r) + "\n" for r in sorted(rows)).encode())
    assert digest.hexdigest() == CONTRACTION_MAPS_SHA256


def test_contraction_map_merges_the_contracted_edge():
    # contracting the edge above p sends p and its parent to one vertex
    # and keeps every other vertex apart
    for m in range(1, 7):
        for t in T.enumerate_trees(m):
            for p in t.vertices()[1:]:
                cm = T.contraction_map(t.shape, T.contract_edge(t, p).shape)
                assert cm[p] == cm[p[:-1]]
                rest = [cm[q] for q in t.vertices() if q != p]
                assert len(set(rest)) == len(rest)


# ---------------------------------------------------------------------------
# label validation checks edges only; the reference is the rule on every
# ancestor pair, over every labelling of every tree with <= 4 leaves

SMALL = [t.shape for m in range(1, 5) for t in T.enumerate_trees(m)]


def ancestor_pairs(shape):
    vs = T.PlanarTree("up", shape).vertices()
    return [(p, q) for p in vs for q in vs if len(p) < len(q) and q[: len(p)] == p]


def accepts(cls, *args):
    try:
        cls(*args)
    except ValueError:
        return False
    return True


def labelled_pairs():
    """Every labelling by 1..V of the up and down trees, where one of them
    has <= 4 leaves and the other <= 2, and V counts their vertices."""
    for a in SMALL:
        for b in (T.LEAF, (T.LEAF, T.LEAF)):
            for us, ds in ((a, b), (b, a)):
                up, down = T.PlanarTree("up", us), T.PlanarTree("down", ds)
                nu, nd = len(up.vertices()), len(down.vertices())
                for labels in product(range(1, nu + nd + 1), repeat=nu + nd):
                    yield up, down, labels[:nu], labels[nu:]


def gap_free(*labels):
    used = set().union(*labels)
    return used == set(range(1, len(used) + 1))


def test_level_validation_is_the_all_pairs_rule():
    for up, down, ul, dl in labelled_pairs():
        lu = dict(zip(up.vertices(), ul))
        ld = dict(zip(down.vertices(), dl))
        rule = (
            gap_free(ul, dl)
            and all(lu[p] < lu[q] for p, q in ancestor_pairs(up.shape))
            and all(ld[p] > ld[q] for p, q in ancestor_pairs(down.shape))
        )
        assert accepts(ComplementaryPair, up, down, ul, dl) == rule, (up, down, ul, dl)


def test_zone_validation_is_the_all_pairs_rule():
    for up, down, uz, dz in labelled_pairs():
        zu = dict(zip(up.vertices(), uz))
        zd = dict(zip(down.vertices(), dz))
        barriers = set(uz) & set(dz)
        kinds = ["B" if i in barriers else "U" if i in uz else "D"
                 for i in range(1, max(uz + dz, default=0) + 1)]
        rule = (
            gap_free(uz, dz)
            and all(zu[p] <= zu[q] and not (zu[p] == zu[q] and zu[p] in barriers)
                    for p, q in ancestor_pairs(up.shape))
            and all(zd[p] >= zd[q] and not (zd[p] == zd[q] and zd[p] in barriers)
                    for p, q in ancestor_pairs(down.shape))
            and not any(a == b != "B" for a, b in zip(kinds, kinds[1:]))
        )
        assert accepts(ZonePair, up, down, uz, dz) == rule, (up, down, uz, dz)


def test_diaphragm_validation_is_the_all_pairs_rule():
    for shape in SMALL:
        tree = T.PlanarTree("up", shape)
        for zeta in product((ABOVE, AT, BELOW), repeat=len(tree.vertices())):
            marks = dict(zip(tree.vertices(), zeta))
            rule = all(
                marks[p] <= marks[q] and not marks[p] == marks[q] == AT
                for p, q in ancestor_pairs(shape)
            )
            assert accepts(DiaphragmTree, tree, zeta) == rule, (shape, zeta)
