import inspect
import json
import sys
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from biassoc import leveled, multipli, trees, zones
from biassoc.posets import FinitePoset, PosetError, is_isomorphism, isomorphic


def from_matrix(keys, leq):
    """The poset whose up-sets are the rows of a dense boolean matrix."""
    return FinitePoset(keys, [np.flatnonzero(row).tolist() for row in leq])


def chain(n, prefix="c"):
    leq = np.triu(np.ones((n, n), dtype=bool))
    return from_matrix(tuple("%s%d" % (prefix, i) for i in range(n)), leq)


def diamond():
    #   t
    #  / \
    # a   b
    #  \ /
    #   s
    keys = ("s", "a", "b", "t")
    leq = np.eye(4, dtype=bool)
    for i, j in [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]:
        leq[i, j] = True
    return from_matrix(keys, leq)


def test_validation():
    with pytest.raises(PosetError, match="duplicate"):
        from_matrix(("a", "a"), np.eye(2, dtype=bool))
    bad = np.eye(2, dtype=bool)
    bad[0, 0] = False
    with pytest.raises(PosetError, match="reflexive"):
        from_matrix(("a", "b"), bad)
    sym = np.ones((2, 2), dtype=bool)
    with pytest.raises(PosetError, match="antisymmetric"):
        from_matrix(("a", "b"), sym)
    intrans = np.eye(3, dtype=bool)
    intrans[0, 1] = intrans[1, 2] = True
    with pytest.raises(PosetError, match="transitive"):
        from_matrix(("a", "b", "c"), intrans)
    with pytest.raises(PosetError, match="count"):  # wrong length
        FinitePoset(("a", "b"), [{0}])
    with pytest.raises(PosetError, match="index"):  # out of range
        FinitePoset(("a", "b"), [{0, 2}, {1}])
    with pytest.raises(PosetError, match="index"):
        FinitePoset(("a", "b"), [{0, -1}, {1}])
    with pytest.raises(PosetError, match="index"):  # not an int
        FinitePoset(("a", "b"), [{0, 1.0}, {1}])
    # a bool, or a dense matrix row passed by mistake, is not read as {0, 1}
    with pytest.raises(PosetError, match="index"):
        FinitePoset(("a", "b"), [{True}, {1}])
    with pytest.raises(PosetError, match="index"):
        FinitePoset(("a", "b"), [[True, True], [False, True]])
    with pytest.raises(PosetError, match="index"):
        FinitePoset(("a", "b"), np.eye(2, dtype=bool))


@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(0, 2), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
)))
def test_validation_is_the_matrix_product_test(case):
    # a random reflexive antisymmetric relation: per pair i < j, none,
    # i <= j or j <= i; it must be rejected exactly when the old
    # all-pairs test (m @ m) & ~m finds a missing composite
    n, choices = case
    m = np.eye(n, dtype=bool)
    for (i, j), c in zip(combinations(range(n), 2), choices):
        if c == 1:
            m[i, j] = True
        elif c == 2:
            m[j, i] = True
    intransitive = ((m @ m) & ~m).any()
    try:
        from_matrix(tuple("e%d" % i for i in range(n)), m)
    except PosetError as exc:
        assert intransitive and "transitive" in str(exc)
    else:
        assert not intransitive


def _family_posets():
    for m in range(1, 6):
        for n in range(1, 7 - m):
            if m + n >= 2:
                yield leveled.bipermutahedron_poset(m, n)
                yield zones.biassociahedron_poset(m, n)
    for m in range(2, 6):
        yield trees.face_poset_associahedron(m)
    for m in range(1, 6):
        yield multipli.multiplihedron_poset(m)


def test_covers_match_matrix_product_oracle():
    for p in _family_posets():
        leq = np.zeros((len(p), len(p)), dtype=bool)
        for i, u in enumerate(p.up):
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
    # a 4-chain s < m1 < m2 < t plus a shortcut s < side < t
    keys = ("s", "m1", "m2", "t", "side")
    leq = np.eye(5, dtype=bool)
    for i, j in [(0, 1), (1, 2), (2, 3), (0, 2), (0, 3), (1, 3), (0, 4), (4, 3)]:
        leq[i, j] = True
    p = from_matrix(keys, leq)
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


def test_le_accessor():
    p = diamond()
    assert p.le("s", "t") and not p.le("a", "b")
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
    q = FinitePoset(("S", "A", "B", "T"), p.up)
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
    up = list(p.up)
    up[1] = up[1] - {3}
    r = FinitePoset(("S", "A", "B", "T"), up)
    assert len(r.covers()) == len(p.covers()) - 1
    assert not is_isomorphism(p, r, good)
    assert not is_isomorphism(r, p, {v: k for k, v in good.items()})
    assert not is_isomorphism(chain(3), chain(4), {"c%d" % i: "c%d" % i for i in range(3)})


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
