import json
from itertools import product

import pytest

from biassoc import leveled as L, zones as Z
from biassoc.posets import FinitePoset, is_isomorphism, isomorphic, isomorphism_failure
from biassoc.trees import PlanarTree, enumerate_trees, face_poset_associahedron
from biassoc.zones import ZonePair
from oracles import (
    biassociahedron_up_sets,
    closure,
    greedy_pi_section,
    is_transitive,
    level_function_error,
    mirror_key,
    parts,
    zone_function_error,
    zone_pair_json,
)


def comb(n, orientation):
    shape = "(* *)"
    for _ in range(n - 2):
        shape = "(%s *)" % shape
    return PlanarTree.from_text(shape, orientation)


# the staircase pair: both trees are 7-leaf combs and the eight zones
# alternate through type DBDUBBUB
STAIR = ZonePair(
    comb(7, "up"),
    comb(7, "down"),
    (2, 4, 5, 6, 7, 8),
    (8, 6, 5, 3, 2, 1),
)


def test_staircase_type_and_closures():
    assert STAIR.type() == "DBDUBBUB"
    assert STAIR.l == 8
    expected = {
        1: {1, 2},
        2: {2},
        3: {2, 3},
        4: {4, 5},
        5: {5},
        6: {6},
        7: {6, 7, 8},
        8: {8},
    }
    for i, cl in expected.items():
        assert Z.closure(STAIR, i) == frozenset(cl)
    with pytest.raises(IndexError):
        Z.closure(STAIR, 9)
    with pytest.raises(IndexError):
        Z.closure(STAIR, 0)


def test_staircase_json():
    obj = json.loads(STAIR.to_json())
    assert obj["type"] == "DBDUBBUB"
    assert obj["up"] == "((((((* *) *) *) *) *) *)"
    assert len(obj["zones"]) == 8
    assert obj["zones"][0] == ["d:0.0.0.0.0"]  # zone 1: deepest down vertex
    assert obj["zones"][1] == ["u:", "d:0.0.0.0"]  # the first barrier


def test_validation():
    up2 = PlanarTree.from_text("(* *)", "up")
    down2 = PlanarTree.from_text("(* *)", "down")
    ZonePair(up2, down2, (1,), (1,))
    with pytest.raises(ValueError):  # zone gap
        ZonePair(up2, down2, (1,), (3,))
    with pytest.raises(ValueError):  # adjacent zones of the same kind
        ZonePair(comb(3, "up"), down2, (1, 2), (3,))
    nested = comb(3, "up")
    with pytest.raises(ValueError):  # comparable vertices on a barrier
        ZonePair(nested, down2, (1, 1), (1,))
    with pytest.raises(ValueError):  # up zones must not decrease downward
        ZonePair(nested, down2, (2, 1), (1,))
    down3 = comb(3, "down")
    with pytest.raises(ValueError):  # down root must take the largest zone
        ZonePair(up2, down3, (2,), (1, 2))
    # plain (non-barrier) zones may repeat along a chain
    ZonePair(nested, down2, (1, 1), (2,))
    # a zone is an int: a bool or a float equal to one is no zone
    for bad in (True, 1.0):
        with pytest.raises(ValueError, match="zones must be exactly 1..l"):
            ZonePair(up2, down2, (bad,), (1,))
        with pytest.raises(ValueError, match="zones must be exactly 1..l"):
            ZonePair(up2, down2, (1,), (bad,))


def _error(cls, *args):
    """The ValueError message of cls(*args), or None when it is valid."""
    try:
        cls(*args)
    except ValueError as exc:
        return str(exc)
    return None


BARRIER = "comparable vertices share a barrier"
WRONG_WAY = (
    "up-tree zones must not decrease downward",
    "down-tree zones must not increase upward",
)


def test_cached_validation_matches_edge_by_edge_reference():
    # every tree pair with m + n <= 6 and every value tuple over 0..h+1,
    # h the number of vertices, valid or not: the cached per-part
    # verdicts accept and reject exactly what the edge-by-edge reference
    # does, with its message.  Only an input that has both a wrong-way
    # edge and a tie on a barrier may name either fault.
    valid = 0
    for total in range(2, 7):
        for m in range(1, total):
            for up in enumerate_trees(m, "up"):
                for down in enumerate_trees(total - m, "down"):
                    ku, kd = len(up.vertices()), len(down.vertices())
                    for values in product(range(ku + kd + 2), repeat=ku + kd):
                        args = (up, down, values[:ku], values[ku:])
                        got = _error(L.ComplementaryPair, *args)
                        assert got == level_function_error(*args), args
                        valid += got is None
                        got = _error(ZonePair, *args)
                        want = zone_function_error(*args)
                        assert (got is None) == (want is None), args
                        if got != want:
                            assert want == BARRIER and got in WRONG_WAY, args
                        valid += got is None
    assert valid == 798


def test_cached_verdicts_do_not_leak_between_shapes():
    # each tuple is valid on one of two up shapes with equally many
    # vertices and invalid on the other; checked in both orders, so a
    # verdict kept for one shape would be read for the other
    chain = PlanarTree.from_text("(((* *) *) *)", "up")
    cherries = PlanarTree.from_text("((* *) (* *))", "up")
    leaf = PlanarTree.from_text("*", "down")
    down2 = PlanarTree.from_text("(* *)", "down")
    cases = [
        # levels 1 < 2 < 2 along the chain
        (L.ComplementaryPair, level_function_error, leaf, (1, 2, 2), ()),
        # the chain's second edge goes from zone 2 down to zone 1
        (ZonePair, zone_function_error, down2, (1, 2, 1), (2,)),
        # the chain's second edge ties on barrier 2
        (ZonePair, zone_function_error, down2, (1, 2, 2), (2,)),
    ]
    for cls, reference, down, ups, downs in cases:
        for order in ((chain, cherries), (cherries, chain)):
            for up in order:
                want = reference(up, down, ups, downs)
                assert (want is None) == (up is cherries)
                assert _error(cls, up, down, ups, downs) == want


def test_json_text_matches_json_dumps():
    for total in range(2, 8):
        for m in range(1, total):
            for z in Z.enumerate_zone_pairs(m, total - m):
                assert z.to_json() == zone_pair_json(z)
    assert STAIR.to_json() == zone_pair_json(STAIR)


def test_enumeration_counts():
    assert len(Z.enumerate_zone_pairs(1, 1)) == 1
    assert len(Z.enumerate_zone_pairs(4, 1)) == 11  # associahedron faces
    assert len(Z.enumerate_zone_pairs(1, 4)) == 11
    assert len(Z.enumerate_zone_pairs(3, 2)) == 13  # hexagon faces
    assert len(Z.enumerate_zone_pairs(2, 3)) == 13


def test_zone_classes_hold_each_pairs_projection():
    # per tree pair, the classes are the distinct projections, the
    # numbers cover them, and the k-th number is that of the class of
    # project() of the k-th pair, built and validated as objects; the
    # classes of all tree pairs are the zone pairs
    for total in range(2, 8):
        for m in range(1, total):
            n = total - m
            classes = []
            for up, down, levels in L.level_groups(m, n):
                found, numbers = Z.zone_group(up, down, levels)
                keys = [L.pair_key(up, down, *z) for z in found]
                assert len(set(keys)) == len(keys)
                assert len(numbers) == len(levels)
                assert set(numbers) == set(range(len(found)))
                for x, k in zip(L.pair_objects(up, down, levels), numbers, strict=True):
                    assert parts(Z.project(x)) == (up, down, *found[k])
                classes.extend(keys)
            assert sorted(classes) == [z.key() for z in Z.enumerate_zone_pairs(m, n)]


@pytest.mark.parametrize("build, reference", [
    (L.bipermutahedron_poset, L.enumerate_leveled_pairs),
    (Z.biassociahedron_poset, Z.enumerate_zone_pairs),
], ids=["bipermutahedron_poset", "biassociahedron_poset"])
def test_poset_calls_each_class_once_per_class_in_key_order(build, reference):
    # the hook sees every class once, in key order, as the parts of the
    # validated pairs or zone pairs of the reference, and the poset's
    # elements are exactly the keys of what it saw
    for total in range(2, 7):
        for m in range(1, total):
            seen = []
            p = build(m, total - m, lambda *z: seen.append(z))
            keys = [L.pair_key(*z) for z in seen]
            assert keys == sorted(set(keys))
            assert p.elements == tuple(keys)
            assert seen == [parts(z) for z in reference(m, total - m)]


def test_udu_type_occurs():
    types = {z.type() for z in Z.enumerate_zone_pairs(3, 2)}
    assert "UDU" in types
    assert "B" in types


def test_project_respects_order():
    for m, n in [(3, 2), (4, 1), (2, 2)]:
        pairs = L.enumerate_leveled_pairs(m, n)
        for x in pairs:
            assert Z.zone_leq(Z.project(x), Z.project(x))
        for x in pairs:
            for y in pairs:
                if L.pair_leq(x, y):
                    assert Z.zone_leq(Z.project(x), Z.project(y))


def test_biassociahedron_order_is_zone_leq():
    # the closure of the image of the adjacent merges against the
    # reference order
    for m, n in [(m, s - m) for s in range(2, 8) for m in range(1, s)]:
        zs = Z.enumerate_zone_pairs(m, n)
        p = Z.biassociahedron_poset(m, n)
        assert p.elements == tuple(z.key() for z in zs)
        up = closure(p)
        for i, a in enumerate(zs):
            for j, b in enumerate(zs):
                assert (j in up[i]) == Z.zone_leq(a, b), (a.key(), b.key())


def test_block_merge_image_is_already_transitive():
    # the image of the whole block-merge order under project needs no
    # closure, so the closure of the image of the one-step merges, which
    # the library builds, is that image; checked for every split with
    # m + n <= 7
    for m, n in [(m, s - m) for s in range(2, 8) for m in range(1, s)]:
        keys, up = biassociahedron_up_sets(m, n)
        assert is_transitive(up), (m, n)
        p = Z.biassociahedron_poset(m, n)
        assert p.elements == keys
        assert closure(p) == up


def test_zone_leq_shape_mismatch():
    with pytest.raises(ValueError):
        Z.zone_leq(
            Z.enumerate_zone_pairs(2, 2)[0], Z.enumerate_zone_pairs(3, 1)[0]
        )


def test_hexagon_structure():
    for m, n in [(3, 2), (2, 3)]:
        p = Z.biassociahedron_poset(m, n)
        assert p.fvector() == (6, 6, 1)
        ranks = p.ranks()
        covers = p.covers()
        verts = [i for i, r in enumerate(ranks) if r == 0]
        edges = [i for i, r in enumerate(ranks) if r == 1]
        (top,) = [i for i, r in enumerate(ranks) if r == 2]
        for v in verts:  # each vertex lies on exactly two edges
            assert sum(1 for i, j in covers if i == v) == 2
        for e in edges:  # each edge has two endpoints and lies in the cell
            assert sum(1 for i, j in covers if j == e) == 2
            assert (e, top) in covers


def test_poset_well_formed_and_euler():
    # FinitePoset construction re-validates that zone_leq is a partial order
    for m, n in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (4, 1), (2, 3), (4, 2)]:
        p = Z.biassociahedron_poset(m, n)
        assert p.euler() == 1
        assert p.ranks().count(max(p.ranks())) == 1


def test_boundary_isomorphisms():
    for m in range(2, 6):
        assert (
            isomorphic(Z.biassociahedron_poset(m, 1), face_poset_associahedron(m))
            is not None
        )
        assert (
            isomorphic(Z.biassociahedron_poset(1, m), face_poset_associahedron(m))
            is not None
        )


def test_boundary_maps_are_isomorphisms():
    # the explicit maps z -> z.up and z -> z.down, which the search
    # above ignores
    for m in range(2, 6):
        assoc = face_poset_associahedron(m)
        up = {z.key(): z.up.text() for z in Z.enumerate_zone_pairs(m, 1)}
        down = {z.key(): z.down.text() for z in Z.enumerate_zone_pairs(1, m)}
        assert is_isomorphism(Z.biassociahedron_poset(m, 1), assoc, up)
        assert is_isomorphism(Z.biassociahedron_poset(1, m), assoc, down)


def moved_cover(q):
    """q with its first cover (i, j) that can move moved to (i, k), k
    the first element of j's rank that i does not cover: every rank
    stays, so q's f-vector and Euler characteristic stay too."""
    covers, rank = q.covers(), q.ranks()
    i, j, k = next(
        (i, j, k)
        for i, j in covers
        for k in range(len(q))
        if rank[k] == rank[j] and (i, k) not in covers
    )
    return FinitePoset(q.elements, [c for c in covers if c != (i, j)] + [(i, k)])


@pytest.mark.parametrize("build", [L.bipermutahedron_poset, Z.biassociahedron_poset])
def test_up_down_mirror_is_an_order_isomorphism(build):
    # turning a pair upside down maps (m, n) onto (n, m), for every
    # split with m + n <= 8
    for total in range(2, 9):
        for m in range(1, total):
            p, q = build(m, total - m), build(total - m, m)
            f = {key: mirror_key(key) for key in p.elements}
            assert isomorphism_failure(p, q, f) is None, (m, total - m)
    # the check sees one cover of the target moved, which euler does not
    p, q = build(3, 2), build(2, 3)
    f = {key: mirror_key(key) for key in p.elements}
    moved = moved_cover(q)
    assert moved.covers() != q.covers()
    assert (moved.fvector(), moved.euler()) == (q.fvector(), 1)
    assert isomorphism_failure(p, moved, f) is not None


def splits(largest):
    """Every (m, n) with m, n >= 1 and m + n <= largest."""
    return [(m, s - m) for s in range(2, largest + 1) for m in range(1, s)]


def test_pi_section_roundtrip():
    for m, n in [(2, 2), (3, 2), (4, 1), (2, 3)]:
        for z in Z.enumerate_zone_pairs(m, n):
            x = Z.pi_section(z)
            assert Z.project(x).key() == z.key()


def test_pi_section_is_the_least_linear_extension():
    # any linear extension projects back onto z; the one sort must give
    # the greedy's lexicographically least one, on every zone pair with
    # m + n <= 7.  A down vertex padded too little to sort after all its
    # children first goes wrong at (1, 4)
    count = 0
    for m, n in splits(7):
        for z in Z.enumerate_zone_pairs(m, n):
            assert Z.pi_section(z) == greedy_pi_section(z), z.key()
            count += 1
    assert count == 2509
    z = ZonePair(PlanarTree("up", "*"), PlanarTree.from_text("(* * (* *))", "down"), (), (1, 1))
    assert Z.pi_section(z).down_levels == (2, 1)


def test_zone_dimension_is_the_level_count_of_pi_section():
    # the closed form reads the zones alone: one level per barrier zone
    # and one per vertex of a plain zone, as pi_section lays them out
    for m, n in splits(7):
        for z in Z.enumerate_zone_pairs(m, n):
            assert Z.zone_dimension(*z.parts) == m + n - 2 - Z.pi_section(z).h, z.key()


def test_pi_section_staircase():
    x = Z.pi_section(STAIR)
    assert Z.project(x) == STAIR
    assert x.h >= STAIR.l
    assert x == greedy_pi_section(STAIR)


def test_relative_heights():
    count = 0
    for m, n in splits(6):
        for x in L.enumerate_leveled_pairs(m, n):
            assert Z.relative_heights_check(x), x.key()
            count += 1
    assert count == 439


def test_relative_heights_sees_a_broken_projection(monkeypatch):
    # zones 1 and 2 traded: every pair with two or more zones has a
    # cross-tree pair of vertices in those zones, whose height flips
    project = Z._zone_tuples

    def swapped(a, b):
        return tuple(tuple(3 - v if v <= 2 else v for v in t) for t in project(a, b))

    pairs = [x for m, n in splits(6) for x in L.enumerate_leveled_pairs(m, n)]
    several = [x for x in pairs if Z.project(x).l >= 2]
    assert len(several) == 248
    monkeypatch.setattr(Z, "_zone_tuples", swapped)
    assert not any(Z.relative_heights_check(x) for x in several)
