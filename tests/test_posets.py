import copy
import inspect
import json
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from biassoc import cli, leveled, multipli, propterms, trees, zones
from biassoc.posets import (
    FinitePoset,
    PosetError,
    is_isomorphism,
    isomorphic,
    isomorphism_failure,
)
from oracles import (
    associahedron_up_sets,
    biassociahedron_up_sets,
    bipermutahedron_up_sets,
    multiplihedron_up_sets,
)


def from_matrix(keys, leq):
    """The poset whose relation is the nonzero entries of a boolean matrix."""
    return FinitePoset(keys, [(int(i), int(j)) for i, j in zip(*np.nonzero(leq))])


def chain(n, prefix="c"):
    return FinitePoset(
        tuple("%s%d" % (prefix, i) for i in range(n)), [(i, i + 1) for i in range(n - 1)]
    )


def diamond():
    #   t
    #  / \
    # a   b
    #  \ /
    #   s
    return FinitePoset(("s", "a", "b", "t"), [(0, 1), (0, 2), (1, 3), (2, 3)])


def test_validation():
    with pytest.raises(PosetError, match="duplicate"):
        FinitePoset(("a", "a"), [])
    for bad in [(0, 2), (0, -1), (2, 2), (0, 1.0), (1.0, 0), (True, 1), (0, False)]:
        with pytest.raises(PosetError, match="index"):
            FinitePoset(("a", "b"), [bad])


def test_equality_and_hash_see_the_order():
    chain, antichain = FinitePoset(("x", "y"), [(0, 1)]), FinitePoset(("x", "y"), [])
    assert chain != antichain
    assert hash(chain) != hash(antichain)
    # one order from two relations: the covers are what is compared
    again = FinitePoset(("x", "y"), [(0, 1), (0, 0)])
    assert chain == again and hash(chain) == hash(again)
    assert len({chain, antichain, again}) == 2
    assert FinitePoset(("y", "x"), [(1, 0)]) != chain


def record_rows():
    """Per record class: its field names as repr shows them, its
    constructor's arguments, and the index and new value of one argument
    that makes an unequal record."""
    up2 = trees.PlanarTree.from_text("(* *)", "up")
    down2 = trees.PlanarTree.from_text("(* *)", "down")
    return [
        (trees.PlanarTree, ("orientation", "shape"), ("up", ("*", "*")), 1, ("*", "*", "*")),
        (FinitePoset, ("elements",), (("x", "y"), [(0, 1)]), 1, []),
        (leveled.ComplementaryPair, ("up", "down", "up_levels", "down_levels"),
         (up2, down2, (1,), (2,)), 1, trees.PlanarTree.from_text("(* * *)", "down")),
        (zones.ZonePair, ("up", "down", "up_zones", "down_zones"),
         (up2, down2, (1,), (2,)), 3, (1,)),
        (multipli.DiaphragmTree, ("tree", "zeta"), (up2, (multipli.AT,)), 1, (multipli.BELOW,)),
        (multipli.PaintedTree, ("shape",), (("!", ("*", "*")),), 0, ("!", (("*", "*"),))),
        (propterms.PropTerm, ("m", "n", "verts", "ins", "outs"),
         (1, 2, ((2, 1),), ((("g", 0),),), (("v", 0, 0), ("v", 0, 1))),
         4, (("v", 0, 1), ("v", 0, 0))),
        (propterms.BlockPermutation, ("l", "k"), (2, 3), 1, 4),
        (propterms.Expr, ("op", "args", "biarity"), ("gen", (), (1, 2)), 2, (2, 1)),
    ]


def test_records_are_immutable_values(monkeypatch):
    # == and hash on the fields (a poset's on its covers), and only
    # within one class; repr shows the fields; no field can be set or
    # deleted; the slotted records carry no __dict__
    pair = leveled.ComplementaryPair.from_key("(* *);(* *);1;2")
    zone_pair = zones.ZonePair(pair.up, pair.down, (1,), (2,))
    assert pair.parts == zone_pair.parts and pair != zone_pair and zone_pair != pair
    slotted = (trees.PlanarTree, leveled.ComplementaryPair, zones.ZonePair)
    for cls, names, args, i, value in record_rows():
        a, b = cls(*args), cls(*args)
        c = cls(*args[:i], value, *args[i + 1:])
        assert a == b and hash(a) == hash(b) and not a != b, cls
        assert a != c and not a == c, cls
        assert a != object() and a != args, cls
        assert copy.copy(a) == a == pickle.loads(pickle.dumps(a)), cls
        assert repr(a) == "%s(%s)" % (cls.__name__, ", ".join(
            "%s=%r" % (name, getattr(a, name)) for name in names)), cls
        for name in names:
            with pytest.raises(AttributeError):
                setattr(a, name, value)
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert a == b, cls
        assert hasattr(a, "__dict__") == (cls not in slotted), cls
    # the validation is a method of its own, and a wrapper on it sees
    # every build, direct or by a family's builder
    built = []
    validate = FinitePoset.__post_init__
    monkeypatch.setattr(FinitePoset, "__post_init__",
                        lambda p, relation: built.append(len(p.elements)) or validate(p, relation))
    sizes = [len(chain(3))] + [len(cli.FAMILY[f].build(3, 2, None)) for f in cli.FAMILY]
    assert built == sizes


def test_cycles_are_rejected():
    with pytest.raises(PosetError, match="antisymmetric"):
        FinitePoset(("a", "b"), [(0, 1), (1, 0)])
    with pytest.raises(PosetError, match="antisymmetric"):
        FinitePoset(("a", "b", "c", "d"), [(3, 0), (0, 1), (1, 2), (2, 0)])


def test_self_loop_is_accepted():
    p = FinitePoset(("a", "b"), [(0, 0), (0, 1), (1, 1)])
    assert p.covers() == [(0, 1)]
    assert p.ranks() == [0, 1]
    assert FinitePoset(("a",), [(0, 0)]).covers() == []


def test_implied_edge_two_ranks_up_is_dropped():
    p = FinitePoset(("a", "b", "c"), [(0, 2), (0, 1), (1, 2)])
    assert p.covers() == [(0, 1), (1, 2)]
    assert p.ranks() == [0, 1, 2]
    # also when the detour is longer than two steps
    q = FinitePoset(tuple("abcde"), [(0, 4), (0, 1), (1, 2), (2, 3), (3, 4), (0, 3)])
    assert q.covers() == [(0, 1), (1, 2), (2, 3), (3, 4)]


def random_relations():
    """(n, pairs): random index pairs on n <= 8 elements; half of the
    draws orient every pair along a random linear order, so they have
    no cycle."""

    def draw(n):
        return st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20),
            st.permutations(range(n)),
            st.booleans(),
        ).map(lambda t: (t[0], [
            (i, j) if not t[3] or t[2][i] <= t[2][j] else (j, i) for i, j in t[1]
        ]))

    return st.integers(1, 8).flatmap(draw)


@given(random_relations())
def test_covers_are_the_transitive_reduction_of_the_closure(case):
    n, pairs = case
    eye = np.eye(n, dtype=bool)
    closed = eye.copy()
    for i, j in pairs:
        closed[i, j] = True
    for _ in range(n):
        closed = closed | (closed @ closed)
    keys = tuple("e%d" % i for i in range(n))
    if (closed & closed.T & ~eye).any():
        with pytest.raises(PosetError, match="antisymmetric"):
            FinitePoset(keys, pairs)
        return
    p = FinitePoset(keys, pairs)
    strict = closed & ~eye
    reduction = strict & ~(strict @ strict)
    assert p.covers() == [(int(i), int(j)) for i, j in zip(*np.nonzero(reduction))]
    # the longest-chain rank: one more than the largest rank below
    rank = p.ranks()
    for j in range(n):
        below = [rank[i] for i in np.flatnonzero(strict[:, j])]
        assert rank[j] == max(below, default=-1) + 1


def _reference_posets():
    """(family poset, its order as up-sets from the full-order builders)."""
    for m in range(1, 6):
        for n in range(1, 7 - m):
            if m + n >= 2:
                yield leveled.bipermutahedron_poset(m, n), bipermutahedron_up_sets(m, n)
                yield zones.biassociahedron_poset(m, n), biassociahedron_up_sets(m, n)
    for m in range(2, 6):
        yield trees.face_poset_associahedron(m), associahedron_up_sets(m)
    for m in range(1, 6):
        yield multipli.multiplihedron_poset(m), multiplihedron_up_sets(m)


def test_covers_match_matrix_product_oracle():
    for p, (keys, up) in _reference_posets():
        assert p.elements == keys
        leq = np.zeros((len(p), len(p)), dtype=bool)
        for i, u in enumerate(up):
            leq[i, list(u)] = True
        strict = leq & ~np.eye(len(p), dtype=bool)
        cov = strict & ~(strict @ strict)
        assert p.covers() == [(int(i), int(j)) for i, j in zip(*np.nonzero(cov))]


def test_covers_and_ranks():
    p = diamond()
    assert sorted(p.covers()) == [(0, 1), (0, 2), (1, 3), (2, 3)]
    assert p.ranks() == [0, 1, 1, 2]
    assert p.fvector() == (1, 2, 1)
    assert p.is_graded()
    assert p.euler() == 0
    c = chain(4)
    assert c.covers() == [(0, 1), (1, 2), (2, 3)]
    assert c.fvector() == (1, 1, 1, 1)
    assert c.euler() == 0


def test_non_graded_euler_raises():
    # a 4-chain s < m1 < m2 < t plus a shortcut s < side < t: side < t
    # is a genuine cover two ranks up, and it is kept
    keys = ("s", "m1", "m2", "t", "side")
    p = FinitePoset(keys, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)])
    assert p.ranks() == [0, 1, 2, 3, 1]
    assert (4, 3) in p.covers() and len(p.covers()) == 5
    assert not p.is_graded()
    with pytest.raises(PosetError):
        p.euler()


def test_json_and_dot():
    p = diamond()
    obj = json.loads(p.to_json())
    assert obj["elements"] == ["s", "a", "b", "t"]
    assert sorted(map(tuple, obj["covers"])) == [(0, 1), (0, 2), (1, 3), (2, 3)]
    dot = p.dot()
    assert dot.startswith("digraph")
    assert dot.count("->") == 4


def test_index_accessor():
    p = diamond()
    assert [p.index(k) for k in p.elements] == [0, 1, 2, 3]
    with pytest.raises(KeyError):
        p.index("x")


def test_isomorphic_positive():
    p = diamond()
    q = from_matrix(
        ("T", "B", "L", "R"),
        np.array(
            [
                [1, 0, 0, 0],
                [1, 1, 1, 1],
                [1, 0, 1, 0],
                [1, 0, 0, 1],
            ],
            dtype=bool,
        ),
    )
    w = isomorphic(p, q)
    assert w is not None
    assert w["s"] == "B" and w["t"] == "T"
    assert {w["a"], w["b"]} == {"L", "R"}


def test_isomorphic_negative():
    assert isomorphic(chain(3), chain(4)) is None
    # same size, different shape
    anti = from_matrix(("a", "b", "c"), np.eye(3, dtype=bool))
    assert isomorphic(chain(3), anti) is None


def test_isomorphic_needs_backtracking():
    # two 4-cycles as orders: crowns S02 with identical local signatures
    def crown(names, edges):
        leq = np.eye(6, dtype=bool)
        for i, j in edges:
            leq[i, j] = True
        return from_matrix(names, leq)

    a = crown(tuple("abcdef"), [(0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 5)])
    b = crown(tuple("uvwxyz"), [(0, 3), (0, 5), (1, 3), (1, 4), (2, 4), (2, 5)])
    w = isomorphic(a, b)
    assert w is not None


def test_isomorphic_deeper_than_recursion_limit():
    # the search must not use one stack frame per element
    p, q = chain(300, "p"), chain(300, "q")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        w = isomorphic(p, q)
    finally:
        sys.setrecursionlimit(limit)
    assert w == {"p%d" % i: "q%d" % i for i in range(300)}


def test_is_isomorphism_checks_the_given_map():
    p = diamond()
    q = FinitePoset(("S", "A", "B", "T"), p.covers())
    good = {"s": "S", "a": "A", "b": "B", "t": "T"}
    assert is_isomorphism(p, q, good)
    assert is_isomorphism(p, q, dict(good, a="B", b="A"))  # an automorphism
    assert not is_isomorphism(p, q, dict(good, b="A"))  # not injective
    anti = from_matrix(("x", "y"), np.eye(2, dtype=bool))
    assert not is_isomorphism(anti, anti, {"x": "x", "y": "x"})  # no covers to miss
    assert not is_isomorphism(p, q, dict(good, b="X"))  # outside q
    assert not is_isomorphism(p, q, dict(good, b=["B"]))  # not a key at all
    assert not is_isomorphism(p, q, {"s": "S", "a": "A", "b": "B"})  # missing t
    assert not is_isomorphism(p, q, dict(good, x="T"))  # extra key
    # r is q without the cover A < T: the same bijection breaks one cover
    r = FinitePoset(("S", "A", "B", "T"), [c for c in p.covers() if c != (1, 3)])
    assert len(r.covers()) == len(p.covers()) - 1
    assert not is_isomorphism(p, r, good)
    assert not is_isomorphism(r, p, {v: k for k, v in good.items()})
    assert not is_isomorphism(chain(3), chain(4), {"c%d" % i: "c%d" % i for i in range(3)})


def test_isomorphism_failure_names_the_first_fault():
    p = diamond()
    q = FinitePoset(("S", "A", "B", "T"), p.covers())
    good = {"s": "S", "a": "A", "b": "B", "t": "T"}
    r = FinitePoset(("S", "A", "B", "T"), [c for c in p.covers() if c != (1, 3)])
    cases = [
        (p, q, good, None),
        (p, q, {"s": "S", "a": "A", "b": "B"}, "t has no image"),
        (p, q, dict(good, b="X"), "b maps to 'X', which is not in the target"),
        (p, q, dict(good, b=["B"]), "b maps to ['B'], which is not in the target"),
        (p, q, dict(good, b="A"), "a and b both map to A"),
        (p, q, dict(good, x="T"), "'x' is mapped, but is not in the source"),
        (chain(3), chain(4), {"c%d" % i: "c%d" % i for i in range(3)}, "c3 has no preimage"),
        (p, r, good, "a < t is a cover, but its image A < T is not"),
        (r, p, {v: k for k, v in good.items()}, "a < t is a cover, but its preimage A < T is not"),
    ]
    for source, target, f, want in cases:
        assert isomorphism_failure(source, target, f) == want
        assert is_isomorphism(source, target, f) == (want is None)


def test_is_isomorphism_compares_cover_rows():
    # two 2-chains x < y and z < w
    p = FinitePoset(("x", "y", "z", "w"), [(0, 1), (2, 3)])
    # a nontrivial automorphism: the chains trade places
    assert is_isomorphism(p, p, {"x": "z", "y": "w", "z": "x", "w": "y"})
    # a bijection keeping every row's size, with one wrong target: the
    # cover x < y goes to x < w, and the cover x < y has no preimage
    crossed = {"x": "x", "y": "w", "z": "z", "w": "y"}
    assert not is_isomorphism(p, p, crossed)
    assert isomorphism_failure(p, p, crossed) == (
        "x < y is a cover, but its preimage x < w is not"
    )


def test_is_isomorphism_agrees_with_search_on_prop_d():
    for m in range(2, 6):
        p = zones.biassociahedron_poset(m, 2)
        q = multipli.multiplihedron_poset(m)
        f = multipli.prop_d_check(m)
        assert f is not None and isomorphic(p, q) is not None
        assert is_isomorphism(p, q, f)
        # swapping the images of a minimal and a maximal element breaks it
        rank = p.ranks()
        low, high = p.elements[rank.index(0)], p.elements[rank.index(max(rank))]
        assert not is_isomorphism(p, q, dict(f, **{low: f[high], high: f[low]}))
