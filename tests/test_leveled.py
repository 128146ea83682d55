import tracemalloc
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, strategies as st

from biassoc import leveled as L
from biassoc.leveled import ComplementaryPair
from biassoc.trees import PlanarTree, enumerate_trees
from oracles import (
    bipermutahedron_up_sets,
    closure,
    enumerate_level_functions,
    gap_blocks,
    leaf_paths,
    meet,
    parts,
)


def gap_code(x):
    return L.gap_code(*parts(x))


def decode(text, m, n):
    """The validated (m, n) pair of a gamma text."""
    return L.gamma_decode(L.gamma_parse(text, m, n), m, n)


def stepped(x):
    """opet_step of the pair x, as a validated pair."""
    up, down, a, b = L.opet_step(*parts(x))
    return ComplementaryPair(PlanarTree("up", up), PlanarTree("down", down), a, b)


# ---------------------------------------------------------------------------
# independent oracle: ordered set partitions


def ordered_partitions(items):
    items = tuple(items)
    if not items:
        yield ()
        return
    n = len(items)
    for k in range(1, n + 1):
        for block in combinations(items, k):
            remaining = tuple(x for x in items if x not in block)
            for tail in ordered_partitions(remaining):
                yield (block,) + tail


def compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def merge_coarsenings(blocks):
    """All ordered partitions obtained by merging adjacent blocks."""
    out = set()
    for comp in compositions(len(blocks)):
        merged = []
        idx = 0
        for c in comp:
            merged.append(tuple(sorted(sum(blocks[idx : idx + c], ()))))
            idx += c
        out.add(tuple(merged))
    return out


def label_blocks(x):
    """The gap code of x as label tuples, label i for bit i - 1."""
    return tuple(
        tuple(i for i in range(1, b.bit_length() + 1) if b >> (i - 1) & 1)
        for b in gap_code(x)
    )


# ---------------------------------------------------------------------------
# enumeration


def test_fubini_counts_against_partition_oracle():
    # 1, 3, 13, 75, 541
    for m in range(2, 7):
        pairs = L.enumerate_leveled_pairs(m, 1)
        oracle = set(ordered_partitions(range(1, m)))
        assert len(pairs) == len(oracle)
        encoded = {label_blocks(x) for x in pairs}
        assert encoded == oracle


def test_level_functions_match_recursive_oracle():
    # the bitmask enumerator's level tuples against the pairs of the
    # recursive one it replaced, which ComplementaryPair validates, on
    # every tree pair with m + n <= 7
    for total in range(2, 8):
        for m in range(1, total):
            for up in enumerate_trees(m, "up"):
                for down in enumerate_trees(total - m, "down"):
                    got = L.enumerate_level_functions(up.shape, down.shape)
                    want = {
                        (x.up_levels, x.down_levels)
                        for x in enumerate_level_functions(up, down)
                    }
                    assert len(got) == len(set(got))
                    assert set(got) == want, (up, down)


def test_pair_counts_are_fubini_numbers():
    # the faces of the (m, n) bipermutahedron are the ordered set
    # partitions of its m + n - 2 gaps
    fubini = [1]
    for k in range(1, 7):
        fubini.append(sum(comb(k, j) * fubini[k - j] for j in range(1, k + 1)))
    for total in range(2, 9):
        for m in range(1, total):
            assert len(L.enumerate_leveled_pairs(m, total - m)) == fubini[total - 2]


def test_pairs_come_sorted_by_key():
    # each tree pair's level functions are sorted on their own, and the
    # tree pairs come in key order
    for total in range(2, 9):
        for m in range(1, total):
            keys = [x.key() for x in L.enumerate_leveled_pairs(m, total - m)]
            assert keys == sorted(set(keys))


def test_banquet_counts():
    assert (
        len(L.enumerate_leveled_pairs(4, 1))
        == len(L.enumerate_leveled_pairs(3, 2))
        == len(L.enumerate_leveled_pairs(2, 3))
        == len(L.enumerate_leveled_pairs(1, 4))
        == 13
    )


def test_trivial_pair():
    (x,) = L.enumerate_leveled_pairs(1, 1)
    assert x.h == 0 and x.up.exceptional and x.down.exceptional


def test_validation():
    up2 = PlanarTree.from_text("(* *)", "up")
    dstar = PlanarTree.from_text("*", "down")
    ComplementaryPair(up2, dstar, (1,), ())
    with pytest.raises(ValueError):  # gap in levels
        ComplementaryPair(up2, dstar, (2,), ())
    with pytest.raises(ValueError):  # wrong orientation
        ComplementaryPair(up2, PlanarTree.from_text("(* *)", "up"), (1,), (2,))
    nested = PlanarTree.from_text("((* *) *)", "up")
    with pytest.raises(ValueError):  # child above parent in the up tree
        ComplementaryPair(nested, dstar, (2, 1), ())
    with pytest.raises(ValueError):  # parent and child level-equal
        ComplementaryPair(nested, dstar, (1, 1), ())
    dnested = PlanarTree.from_text("((* *) *)", "down")
    ComplementaryPair(up2, dnested, (1,), (3, 2))
    with pytest.raises(ValueError):  # down-tree root must sit lowest
        ComplementaryPair(up2, dnested, (3,), (1, 2))
    # a level is an int: a bool or a float equal to one is no level,
    # whether built or read from JSON
    for bad in (True, 1.0):
        with pytest.raises(ValueError, match="levels must be exactly 1..h"):
            ComplementaryPair(up2, dstar, (bad,), ())
    with pytest.raises(ValueError, match="levels must be exactly 1..h"):
        ComplementaryPair.from_json(
            '{"up": "(* *)", "down": "*", "up_levels": [true], "down_levels": []}')
    with pytest.raises(ValueError, match="levels must be exactly 1..h"):
        ComplementaryPair.from_json(
            '{"up": "(* *)", "down": "*", "up_levels": [1.5], "down_levels": []}')


def test_key_and_json_roundtrip():
    for x in L.enumerate_leveled_pairs(3, 2):
        assert ComplementaryPair.from_key(x.key()) == x
        assert ComplementaryPair.from_json(x.to_json()) == x
    # a key has four ";"-separated parts, no fewer and no more
    for key, count in (("(* *);*;1", 3), ("(* *);*;1;;2", 5)):
        with pytest.raises(ValueError, match="needs 4 ';'-separated parts, not %d" % count):
            ComplementaryPair.from_key(key)


# ---------------------------------------------------------------------------
# order


def test_pair_leq_matches_block_merge_oracle():
    for m in range(2, 6):
        pairs = L.enumerate_leveled_pairs(m, 1)
        enc = {x.key(): label_blocks(x) for x in pairs}
        coars = {k: merge_coarsenings(b) for k, b in enc.items()}
        for x1 in pairs:
            for x2 in pairs:
                assert L.pair_leq(x1, x2) == (enc[x2.key()] in coars[x1.key()])


def test_bipermutahedron_order_is_pair_leq():
    # the closure of the adjacent merges against the reference order
    for m, n in [(m, s - m) for s in range(2, 8) for m in range(1, s)]:
        xs = L.enumerate_leveled_pairs(m, n)
        p = L.bipermutahedron_poset(m, n)
        assert p.elements == tuple(x.key() for x in xs)
        up = closure(p)
        for i, a in enumerate(xs):
            for j, b in enumerate(xs):
                assert (j in up[i]) == L.pair_leq(a, b), (a.key(), b.key())
        assert up == bipermutahedron_up_sets(m, n)[1]


def test_pair_leq_golden():
    lo = decode("(3|2|1)", 4, 1)
    hi = decode("(3|12)", 4, 1)
    other = decode("(2|3|1)", 4, 1)
    assert L.pair_leq(lo, hi)
    assert not L.pair_leq(hi, lo)
    assert not L.pair_leq(other, hi)
    with pytest.raises(ValueError):
        L.pair_leq(lo, L.enumerate_leveled_pairs(3, 2)[0])


def test_bipermutahedron_fvectors_and_grading():
    assert L.bipermutahedron_poset(4, 1).fvector() == (6, 6, 1)
    assert L.bipermutahedron_poset(3, 2).fvector() == (6, 6, 1)
    assert L.bipermutahedron_poset(2, 3).fvector() == (6, 6, 1)
    for m, n in [(2, 1), (1, 2), (2, 2), (3, 1), (4, 1), (3, 2), (2, 3)]:
        p = L.bipermutahedron_poset(m, n)
        assert p.euler() == 1
        ranks = p.ranks()
        for key, r in zip(p.elements, ranks):
            x = ComplementaryPair.from_key(key)
            assert r == (m + n - 2) - x.h
        # a unique top cell: everything below the single rank-max element
        assert ranks.count(max(ranks)) == 1


# ---------------------------------------------------------------------------
# leaf-shift step


def test_opet_step_base():
    (x,) = L.enumerate_leveled_pairs(1, 2)
    assert stepped(x).key() == "(* *);*;1;"
    with pytest.raises(ValueError):
        stepped(stepped(x))


def test_opet_step_preserves_height_and_sizes():
    for m, n in [(1, 3), (2, 2), (3, 2), (1, 4), (2, 3)]:
        for x in L.enumerate_leveled_pairs(m, n):
            y = stepped(x)
            assert (y.m, y.n) == (m + 1, n - 1)
            assert y.h == x.h


def test_opet_step_moves_gap_m_to_the_up_side():
    # in the gap code the leaf shift relabels nothing: down gap m, the one
    # between the first two down leaves, becomes the last up gap, so
    # decoding x's code as an (m + 1, n - 1) code gives the step
    count = 0
    for s in range(3, 8):
        for m in range(1, s - 1):
            for x in L.enumerate_leveled_pairs(m, s - m):
                assert L.gamma_decode(gap_code(x), m + 1, s - m - 1) == stepped(x)
                count += 1
    assert count == 3051


def test_opet_step_keeps_the_gap_code():
    # gap m has bit m - 1 as the first down gap of (m, n) and as the last
    # up gap of (m + 1, n - 1), so the step leaves every level's mask as
    # it is: the block-merge order on the codes carries over unchanged
    count = 0
    for s in range(3, 8):
        for m in range(1, s - 1):
            for x in L.enumerate_leveled_pairs(m, s - m):
                assert gap_code(stepped(x)) == gap_code(x), x.key()
                count += 1
    assert count == 3051


# per m + n, the number of pairs with n >= 2: 31,149 in all to m + n = 8
PAIRS_WITH_N_AT_LEAST_2 = {3: 1, 4: 6, 5: 39, 6: 300, 7: 2705, 8: 28098}


@pytest.mark.parametrize("total", list(PAIRS_WITH_N_AT_LEAST_2),
                         ids=list(map(str, PAIRS_WITH_N_AT_LEAST_2)))
def test_opet_step_on_parts_is_the_gap_code_read_one_leaf_over(total):
    # every pair with m + n = total and n >= 2, walked as parts with no
    # poset or pair object: the step keeps the gap code, and is that
    # code decoded as an (m + 1, n - 1) pair.  opet_step itself stays
    # the paper's tree operation; this is an observed fact about it
    count = 0
    for m in range(1, total - 1):
        n = total - m
        for up, down, levels in L.level_groups(m, n):
            for a, b in levels:
                code, step = L.gap_code(up, down, a, b), L.opet_step(up, down, a, b)
                assert L.gap_code(*step) == code, (up, down, a, b)
                assert step == L.gamma_decode(code, m + 1, n - 1).parts, (up, down, a, b)
                count += 1
    assert count == PAIRS_WITH_N_AT_LEAST_2[total]


def test_opet_iso_small():
    assert L.opet_iso_check(2, 2)
    assert L.opet_iso_check(1, 3)


def test_opet_iso_rejects_broken_steps(monkeypatch):
    # the check answers False, never raises, whatever the step does wrong
    step = L.opet_step
    targets = L.enumerate_leveled_pairs(3, 1)
    bottom, top = targets[0].key(), targets[-1].key()
    swap = {bottom: top, top: bottom}

    def swapped(*x):
        key = L.pair_key(*step(*x))
        return parts(ComplementaryPair.from_key(swap.get(key, key)))

    # one image for all, each pair its own image (outside the target),
    # and two images traded
    for broken in (lambda *x: parts(targets[0]), lambda *x: x, swapped):
        monkeypatch.setattr(L, "opet_step", broken)
        assert L.opet_iso_check(2, 2) is False


# ---------------------------------------------------------------------------
# the gap code and its text


FIG_PAIR = ComplementaryPair(
    PlanarTree.from_text("((* * (* *)) (* (* *) *))", "up"),
    PlanarTree.from_text("*", "down"),
    (1, 3, 4, 2, 4),
    (),
)


def test_gamma_golden():
    code = gap_code(FIG_PAIR)
    assert L.gamma_text(code, 8, 1) == "(4|57|12|36)"
    assert L.gamma_text(L.tau(code), 8, 1) == "(36|12|57|4)"
    assert L.gamma_decode(code, 8, 1) == FIG_PAIR


def test_gamma_roundtrip_exhaustive():
    count = 0
    for total in range(2, 8):
        for m in range(1, total):
            n = total - m
            for x in L.enumerate_leveled_pairs(m, n):
                assert L.gamma_decode(gap_code(x), m, n) == x
                count += 1
    assert count == 3685


def test_gap_codes_are_one_int_per_block():
    # every pair with m + n <= 7: one mask per level, the masks together
    # hold every gap bit, no two pairs share a code, and bit i - 1 of a
    # block is gap label i of the block that the leaf-path meets give
    for total in range(2, 8):
        for m in range(1, total):
            pairs = L.enumerate_leveled_pairs(m, total - m)
            codes = set()
            for x in pairs:
                code = gap_code(x)
                assert len(code) == x.h
                union = 0
                for b in code:
                    union |= b
                assert union == (1 << (total - 2)) - 1
                codes.add(code)
                blocks = tuple(
                    (
                        tuple(i for i in range(1, m) if b >> (i - 1) & 1),
                        tuple(i for i in range(m, total - 1) if b >> (i - 1) & 1),
                    )
                    for b in code
                )
                assert blocks == gap_blocks(x), x.key()
            assert len(codes) == len(pairs)


def test_gamma_text_roundtrip_exhaustive():
    # the (1, 1) pair has no gaps, so its code "()" has no blocks
    for total in range(2, 8):
        for m in range(1, total):
            n = total - m
            for x in L.enumerate_leveled_pairs(m, n):
                code = gap_code(x)
                assert L.gamma_parse(L.gamma_text(code, m, n), m, n) == code
    assert L.gamma_parse("()", 1, 1) == ()


def test_gap_vertices_are_leaf_meets():
    # the cached per-shape gap vertices against the meet of the paths of
    # leaves i and i+1, computed in the tests from the shape
    for m in range(1, 7):
        for t in enumerate_trees(m):
            paths = leaf_paths(t.shape)
            verts = t.vertices()
            assert L._gap_vertices(t.shape) == tuple(
                verts.index(meet(a, b)) for a, b in zip(paths, paths[1:])
            )


def test_gamma_decode_rejects_bad_labels():
    with pytest.raises(ValueError, match="does not match"):
        decode("(3|2|1)", 5, 1)
    # a label on the wrong side of "/" is no label of that side
    with pytest.raises(ValueError, match="does not match"):
        decode("(1/|/2)", 3, 1)
    # (/0) matches (m, n) = (0, 2) gap for gap, and (1/) matches (2, 0)
    with pytest.raises(ValueError, match="need m, n >= 1"):
        decode("(/0)", 0, 2)
    with pytest.raises(ValueError, match="need m, n >= 1"):
        decode("(1/)", 2, 0)
    # an int code gets gamma_parse's message for the text that spells
    # it, from gamma_decode and gamma_text alike: labels above m+n-2, a
    # label in two blocks, an empty block
    for text, code, m, n, message in (
        ("(123)", (7,), 2, 1, "bipartition does not match (m, n) = (2, 1)"),
        ("(12|1)", (3, 1), 3, 1, "bipartition does not match (m, n) = (3, 1)"),
        ("(1||2)", (1, 0, 2), 3, 1, "block empty on both sides"),
        ("(1|1|1)", (1, 1, 1), 3, 1, "bipartition does not match (m, n) = (3, 1)"),
    ):
        for read in (lambda: L.gamma_parse(text, m, n), lambda: L.gamma_decode(code, m, n),
                     lambda: L.gamma_text(code, m, n)):
            with pytest.raises(ValueError) as error:
                read()
            assert str(error.value) == message, (text, code)
    # no text is written for a code with label 1 in two blocks
    with pytest.raises(ValueError, match="does not match"):
        L.gamma_text((1, 1, 2), 3, 1)


def refusal_peak(read) -> int:
    """The tracemalloc peak, in bytes, of read(), which must raise ValueError."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            read()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_outside_input_is_refused_in_memory_sized_by_the_input():
    # a check sized by the numbers typed in, not by how many there are,
    # asks for memory and time that grow with them
    up2, dstar = PlanarTree.from_text("(* *)", "up"), PlanarTree.from_text("*", "down")
    assert refusal_peak(lambda: ComplementaryPair(up2, dstar, (10**5,), ())) < 100_000
    assert refusal_peak(lambda: L.check_code((1,), 10**5, 1)) < 8_000
    assert refusal_peak(lambda: L.gamma_parse("(1)", 10**5, 1)) < 8_000
    # one large label: refused by the label count before its bit is made
    assert refusal_peak(lambda: L.gamma_parse("(99999999,)", 10**8, 1)) < 8_000
    # a negative block is no set of labels, though the blocks' OR is their sum
    with pytest.raises(ValueError, match="does not match"):
        L.check_code((1, -2), 2, 1)


def test_bipartition_text_forms():
    # blocks ((1, 2), (4,)) and ((3,), ()) of a (4, 2) pair
    two_sided = (0b1011, 0b100)
    assert L.gamma_text(two_sided, 4, 2) == "(12/4|3/)"
    assert L.gamma_parse("(12/4|3/)", 4, 2) == two_sided
    wide = (0b111111111, 0b11 << 9)  # (1..9 | 10, 11) of a (12, 1) pair
    assert L.gamma_text(wide, 12, 1) == "(123456789|10,11)"
    assert L.gamma_parse("(123456789|10,11)", 12, 1) == wide
    with pytest.raises(ValueError, match="block empty on both sides"):
        L.gamma_parse("(/|12)", 3, 1)
    with pytest.raises(ValueError, match="block labels must be sorted"):
        L.gamma_parse("(21)", 3, 1)


@given(st.permutations(range(1, 14)), st.sets(st.integers(1, 12)), st.integers(1, 14))
@example(list(range(1, 14)), set(range(1, 13)), 14)  # every label alone
@example(list(range(1, 14)), set(range(1, 13)), 10)  # 10..13 alone, down side
@example(list(range(1, 12)) + [12, 13], {9, 10}, 14)  # (123456789|10,|11,12,13)
def test_bipartition_text_roundtrip(perm, cuts, split):
    # an ordered partition of 1..13: blocks end at the cut positions, and
    # labels >= split sit on the down side, the gaps of an (m, n) pair
    # with m = split and m + n - 2 = 13
    bounds = [0, *sorted(cuts), 13]
    code = tuple(sum(1 << (i - 1) for i in perm[a:b]) for a, b in zip(bounds, bounds[1:]))
    m, n = split, 15 - split
    assert L.gamma_parse(L.gamma_text(code, m, n), m, n) == code


@given(st.integers(2, 5), st.integers(1, 3), st.integers(0, 10**6))
def test_tau_is_an_involution(m, n, pick):
    pairs = L.enumerate_leveled_pairs(m, n)
    code = gap_code(pairs[pick % len(pairs)])
    assert L.tau(L.tau(code)) == code
    assert L.gamma_parse(L.gamma_text(code, m, n), m, n) == code
