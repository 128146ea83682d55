import inspect
import json
import sys

import numpy as np
import pytest

from biassoc.posets import FinitePoset, PosetError, isomorphic


def chain(n, prefix="c"):
    leq = np.triu(np.ones((n, n), dtype=bool))
    return FinitePoset(tuple("%s%d" % (prefix, i) for i in range(n)), leq)


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
    return FinitePoset(keys, leq)


def test_validation():
    with pytest.raises(PosetError):
        FinitePoset(("a", "a"), np.eye(2, dtype=bool))
    bad = np.eye(2, dtype=bool)
    bad[0, 0] = False
    with pytest.raises(PosetError):
        FinitePoset(("a", "b"), bad)
    sym = np.ones((2, 2), dtype=bool)
    with pytest.raises(PosetError):
        FinitePoset(("a", "b"), sym)
    intrans = np.eye(3, dtype=bool)
    intrans[0, 1] = intrans[1, 2] = True
    with pytest.raises(PosetError):
        FinitePoset(("a", "b", "c"), intrans)


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
    p = FinitePoset(keys, leq)
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


def test_isomorphic_positive():
    p = diamond()
    q = FinitePoset(
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
    anti = FinitePoset(("a", "b", "c"), np.eye(3, dtype=bool))
    assert isomorphic(chain(3), anti) is None


def test_isomorphic_needs_backtracking():
    # two 4-cycles as orders: crowns S02 with identical local signatures
    def crown(names, edges):
        leq = np.eye(6, dtype=bool)
        for i, j in edges:
            leq[i, j] = True
        return FinitePoset(names, leq)

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
