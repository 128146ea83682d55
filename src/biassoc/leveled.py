"""Trees with levels and complementary pairs.

A complementary pair is an up-rooted tree U, a down-rooted tree D, and a
level function assigning each vertex of either tree to a horizontal
level, numbered top-down 1..h with no empty levels.  Within U ancestors
sit strictly above (smaller level than) descendants; within D it is the
other way round, so D's root occupies the largest level among D's
vertices.  There are no cross-tree constraints: vertices of U and D may
share a level.

Pairs with U having m leaves and D having n leaves index the faces of
the (m, n) bipermutahedron; the n = 1 case is the classical
permutahedron on ordered set partitions.  bipermutahedron_poset is the
one builder of its face poset, and it keeps no cache.
Every walk carries a pair as its parts (up shape, down shape, up
levels, down levels): pair_key writes its key, pair_json rewrites it
as JSON, and opet_step maps parts to parts.  A ComplementaryPair is built
only from outside input (from_key, which reads the CLI's pair options,
from_json, gamma_decode) and in the tests' enumerate_leveled_pairs.
"""

from __future__ import annotations

import json
from functools import cache
from itertools import chain

from . import posets
from .trees import (
    PlanarTree,
    _shapes,
    contracted_values,
    edge_ties,
    leaf_count,
    leaf_intervals,
    shape_edges,
    shape_from_intervals,
    shape_text,
)


class TreePair(posets._Record):
    """What ComplementaryPair and ZonePair share: an up tree and a down
    tree with a level or zone per vertex, leaf counts, key and check."""

    __slots__ = ()

    @property
    def m(self) -> int:
        return self.up.leaves

    @property
    def n(self) -> int:
        return self.down.leaves

    def key(self) -> str:
        return pair_key(*self.parts)

    def check_values(self, name, top) -> None:
        """An up tree and a down tree, one value per vertex, and values
        exactly the ints 1..max: a bool or a float is no value.  The
        check is sized by how many values there are, not by the largest."""
        a, b = self.parts[2:]
        if self.up.orientation != "up" or self.down.orientation != "down":
            raise ValueError("pair needs an up tree and a down tree")
        if len(a) != len(self.up.vertices()) or len(b) != len(self.down.vertices()):
            raise ValueError("%s tuple length mismatch" % name)
        values = (*a, *b)
        if (any(type(v) is not int for v in values)
                or set(values) != set(range(1, len(set(values)) + 1))):
            raise ValueError("%ss must be exactly 1..%s with no gaps" % (name, top))


class ComplementaryPair(TreePair):
    """(U, D, level function); levels stored per tree in vertex path order."""

    __slots__ = _fields = ("up", "down", "up_levels", "down_levels")

    def __init__(self, up: PlanarTree, down: PlanarTree, up_levels: tuple, down_levels: tuple):
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "down", down)
        object.__setattr__(self, "up_levels", up_levels)
        object.__setattr__(self, "down_levels", down_levels)
        self.check_values("level", "h")
        # levels are strict: no edge may go the wrong way or tie
        if edge_ties(shape_edges(self.up.shape), self.up_levels, True) != ():
            raise ValueError("up-tree levels must increase away from root")
        if edge_ties(shape_edges(self.down.shape), self.down_levels, False) != ():
            raise ValueError("down-tree levels must decrease away from root")

    @property
    def h(self) -> int:
        return max(self.up_levels + self.down_levels, default=0)

    @property
    def parts(self) -> tuple:
        """The pair as the walks carry it: (up, down, up_levels, down_levels)."""
        return self.up.shape, self.down.shape, self.up_levels, self.down_levels

    @classmethod
    def from_key(cls, key: str) -> "ComplementaryPair":
        parts = key.split(";")
        if len(parts) != 4:
            raise ValueError("pair key needs 4 ';'-separated parts, not %d" % len(parts))
        ut, dt, ul, dl = parts
        return cls._from_texts(ut, dt, *((int(x) for x in s.split(",") if x) for s in (ul, dl)))

    def to_json(self) -> str:
        return pair_json(self.key())

    @classmethod
    def from_json(cls, data: str) -> "ComplementaryPair":
        obj = json.loads(data)
        return cls._from_texts(obj["up"], obj["down"], obj["up_levels"], obj["down_levels"])

    @classmethod
    def _from_texts(cls, up: str, down: str, up_levels, down_levels) -> "ComplementaryPair":
        """The pair of two tree texts and their levels, read in that order."""
        return cls(PlanarTree.from_text(up, "up"), PlanarTree.from_text(down, "down"),
                   tuple(up_levels), tuple(down_levels))


@cache
def values_text(values) -> str:
    """A level or zone tuple as it appears in a key: "1,3,2"."""
    return ",".join(map(str, values))


def pair_key(up, down, a, b) -> str:
    """The one writer of the keys of pairs and zone pairs, from the two
    shapes and the level or zone tuples: "((* *) *);(* *);1,3;2"."""
    return "%s;%s;%s;%s" % (
        shape_text(up), shape_text(down), values_text(a), values_text(b))


def pair_json(key) -> str:
    """A pair's JSON text, rewritten from its key: tree text holds no ","
    and nothing in a key needs escaping."""
    return '{"up": "%s", "down": "%s", "up_levels": [%s], "down_levels": [%s]}' % tuple(
        key.replace(",", ", ").split(";"))


def pair_objects(up, down, values) -> list:
    """The validated pair of the shapes up and down per (a, b) of values."""
    u, d = PlanarTree("up", up), PlanarTree("down", down)
    return [ComplementaryPair(u, d, a, b) for a, b in values]


def enumerate_level_functions(up, down) -> list:
    """All valid level assignments for the shapes up and down, as
    (up levels, down levels) tuples.

    Levels are built top-down; at each step any nonempty subset of the
    currently placeable vertices (those whose same-tree predecessors are
    already placed on earlier levels) may form the next level.  For U a
    vertex waits for its parent, for D it waits for its children.

    Sets of vertices are bitmasks: U's vertex i is bit i and D's vertex
    j is bit k + j, k = #U vertices, both in path order.  Each vertex
    has the mask of its predecessors, and the next level ranges over the
    nonempty submasks of the mask of placeable vertices, which is
    computed once per mask of placed vertices.
    """
    k = len(leaf_intervals(up))
    size = k + len(leaf_intervals(down))
    preds = [0] * size
    for p, c in shape_edges(up):
        preds[c] |= 1 << p
    for p, c in shape_edges(down):
        preds[k + p] |= 1 << (k + c)
    full = (1 << size) - 1
    # the level of every vertex placed on the current branch; entries
    # left by other branches are overwritten before the branch is full
    levels = [0] * size
    results = []
    shared = {}  # one object per distinct level tuple, which pairs share
    ready_after = {}  # per placed mask, the mask of placeable vertices

    def step(placed, level):
        if placed == full:
            ul, dl = tuple(levels[:k]), tuple(levels[k:])
            results.append((shared.setdefault(ul, ul), shared.setdefault(dl, dl)))
            return
        ready = ready_after.get(placed)
        if ready is None:
            ready = 0
            for v, need in enumerate(preds):
                if need & placed == need:
                    ready |= 1 << v
            ready = ready_after[placed] = ready & ~placed
        chosen = ready
        while chosen:
            rest = chosen
            while rest:
                low = rest & -rest
                levels[low.bit_length() - 1] = level
                rest ^= low
            step(placed | chosen, level + 1)
            chosen = (chosen - 1) & ready

    step(0, 1)
    return results


def level_groups(m: int, n: int):
    """Per tree pair with m up-leaves and n down-leaves, in key order,
    (up shape, down shape, its level tuples in no set order), one at a
    time, so a caller holds one tree pair's level tuples, not all.  A
    key starts with the two tree texts, no tree text is a prefix of
    another and _shapes lists them in text order, so sorting each tree
    pair's keys sorts them all."""
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    return ((up, down, enumerate_level_functions(up, down))
            for up in _shapes(m) for down in _shapes(n))


@cache
def enumerate_leveled_pairs(m: int, n: int) -> tuple:
    """All complementary pairs with m up-leaves and n down-leaves, in
    key order, each validated: a reference that no verb reads."""
    pairs = chain.from_iterable(pair_objects(*group) for group in level_groups(m, n))
    return tuple(sorted(pairs, key=ComplementaryPair.key))


def pair_leq(x1: ComplementaryPair, x2: ComplementaryPair) -> bool:
    """True iff x2 coarsens x1: tree contractions plus level merging.

    Formally there must be contraction morphisms on both trees and an
    order-preserving map on level scales making the square with the two
    level functions commute.  Contraction morphisms are unique when they
    exist, so it suffices to check that the induced level map, from
    each vertex's level to its image's (contracted_values), is well
    defined (single-valued per level) and monotone.

    This is the reference order: bipermutahedron_poset builds the same
    order from gap-code block merges, and the tests compare the two.
    """
    if (x1.m, x1.n) != (x2.m, x2.n):
        raise ValueError("pair shape mismatch")
    up = contracted_values(x1.up.shape, x2.up.shape, x2.up_levels)
    down = contracted_values(x1.down.shape, x2.down.shape, x2.down_levels)
    if up is None or down is None:
        return False
    seq = sorted(set(zip(x1.up_levels + x1.down_levels, up + down)))
    return all(a < c and b <= d for (a, b), (c, d) in zip(seq, seq[1:]))


def level_dimension(up, down, up_levels, down_levels) -> int:
    """A pair's face dimension: (m+n-2) - h, h its number of levels."""
    return leaf_count(up) + leaf_count(down) - 2 - max((0, *up_levels, *down_levels))


def bipermutahedron_poset(m: int, n: int, each_class=None):
    """Face poset of the bipermutahedron, graded by (m+n-2) - h: the
    coarsening poset whose classes are the level functions themselves.
    It is not cached: each caller holds only the posets it uses."""
    classes = lambda up, down, levels: (levels, range(len(levels)))
    return coarsening_poset(m, n, classes, each_class)


def coarsening_poset(m: int, n: int, classify, each_class=None):
    """The face poset of a quotient of the (m, n) bipermutahedron, built
    in one walk of level_groups on plain tuples, with no pair object.
    classify(up, down, levels) returns one tree pair's classes, as tuple
    pairs keyed by pair_key, and per level tuple the number of its
    class; each tree pair's classes are sorted by the keys they print
    as, so the keys are the sorted elements.  When given,
    each_class(up, down, a, b) is called once per class, in key order,
    with its parts, from the walk that builds the poset.  The relation
    is the image of the one-step moves, merging two adjacent blocks of
    the gap code (an OR of their masks); their closure is the
    block-merge order, pair_leq.  The image of the whole order is
    already transitive for every quotient built here (the tests check it
    for m + n <= 7), so the closure of the image is the image of the
    order.
    """
    keys, image = [], {}  # per pair, only its gap code and class number
    for up, down, levels in level_groups(m, n):
        classes, numbers = classify(up, down, levels)
        written = [pair_key(up, down, *c) for c in classes]
        index = [0] * len(classes)  # per class, its element number
        for k in sorted(range(len(classes)), key=written.__getitem__):
            index[k] = len(keys)
            keys.append(written[k])
            if each_class is not None:
                each_class(up, down, *classes[k])
        codes = [gap_code(up, down, *v) for v in levels]
        image.update(zip(codes, [index[k] for k in numbers]))
    return posets.FinitePoset(
        tuple(keys),
        (
            (c, image[code[:k] + (code[k] | code[k + 1],) + code[k + 2 :]])
            for code, c in image.items()
            for k in range(len(code) - 1)
        ),
    )


# ---------------------------------------------------------------------------
# leaf-shift isomorphism (m, n) -> (m+1, n-1)


def opet_step(up, down, up_levels, down_levels) -> tuple:
    """Move one leaf from the down tree to the up tree: parts to parts.

    The leftmost leaf of D is amputated at its initial vertex v (v is
    erased when the amputation leaves it with a single child), and a new
    rightmost leaf is grafted into U where v's level line last meets U:
    at an existing vertex of that level on U's right spine, or else on a
    right-spine edge, creating a 2-ary vertex at v's level.  Both trees
    are rewritten as maps from leaf intervals to levels.  The levels in
    use do not change: v's level moves to U.
    """
    if leaf_count(down) < 2:
        raise ValueError("need n >= 2")
    m = leaf_count(up)
    lower = dict(zip(leaf_intervals(down), down_levels))
    # v spans the smallest interval holding leaf 0
    v = min(iv for iv in lower if iv[0] == 0)
    level = lower[v]
    if v[1] == 2 or (1, v[1]) in lower:  # v keeps one child
        del lower[v]
    lower = {(max(a - 1, 0), b - 1): lvl for (a, b), lvl in lower.items()}

    # the right-spine vertices at or above v's level stretch over the
    # new leaf m; when none is at v's level, a new vertex at that level
    # joins the new leaf to the highest right-spine child below it
    upper = {}
    start = m - 1
    absorbed = False
    for (a, b), lvl in zip(leaf_intervals(up), up_levels):
        if b == m and lvl <= level:
            b = m + 1
            absorbed = absorbed or lvl == level
        elif b == m:
            start = min(start, a)
        upper[a, b] = lvl
    if not absorbed:
        upper[start, m + 1] = level
    return _pair_from_intervals(upper, lower)


def _pair_from_intervals(up: dict, down: dict) -> tuple:
    """The parts of the pair whose up and down trees have the leaf
    intervals keyed in `up` and `down`, at the levels they map to."""
    u, d = shape_from_intervals(up), shape_from_intervals(down)
    return u, d, *(tuple(lv[iv] for iv in leaf_intervals(s)) for lv, s in ((up, u), (down, d)))


def opet_iso_check(m: int, n: int) -> bool:
    """Verify that iterating opet_step gives an order isomorphism
    from the (m, n) pairs onto the (m+n-1, 1) pairs, one step at a time."""
    return opet_failure(m, n) is None


def opet_failure(m: int, n: int):
    """None when opet_iso_check holds, else the first step whose map
    is not an order isomorphism and how it fails (see
    posets.isomorphism_failure).  Each split is walked once: the walk
    that builds its poset steps each of its pairs, so a step's image
    keys are collected as its source is built; an image that is no
    valid pair is not a key of the target.  Only the posets of the two splits being
    compared are alive at a time."""
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    images = []  # per element of the split being built, its image's key

    def shift(*x):
        images.append(pair_key(*opet_step(*x)))

    p = bipermutahedron_poset(m, n, shift) if n >= 2 else None
    while n >= 2:
        source, images = images, []  # p's images; shift now collects q's
        q = bipermutahedron_poset(m + 1, n - 1, shift if n > 2 else None)
        failure = posets.isomorphism_failure(p, q, dict(zip(p.elements, source, strict=True)))
        if failure is not None:
            return "step (%d,%d) -> (%d,%d): %s" % (m, n, m + 1, n - 1, failure)
        p, m, n = q, m + 1, n - 1
    return None


# ---------------------------------------------------------------------------
# the gap code and its text, the paper's gamma


@cache
def _gap_vertices(shape) -> tuple:
    """Per leaf gap, the index in vertex path order of the lowest
    vertex merging leaf i and leaf i+1: the last vertex in path order
    whose leaf interval holds both."""
    intervals = leaf_intervals(shape)
    return tuple(
        [v for v, (a, b) in enumerate(intervals) if a < i < b][-1]
        for i in range(1, leaf_count(shape))
    )


def gap_code(up, down, up_levels, down_levels) -> tuple:
    """Per level 1..h of a pair's parts, the leaf gaps merging on it as one
    bitmask, bit i - 1 for gap i: up-leaf gap i (1..m-1) merges at the
    U vertex where the branches of leaves i and i+1 meet, and down-leaf
    gaps, numbered m..m+n-2, at the corresponding D vertex.  The label
    ranges are disjoint, so a block (U_j, D_j) is one int."""
    code = [0] * max(up_levels + down_levels, default=0)
    bit = 1
    for levels, shape in ((up_levels, up), (down_levels, down)):
        for v in _gap_vertices(shape):
            code[levels[v] - 1] |= bit
            bit <<= 1
    return tuple(code)


def tau(code) -> tuple:
    """Reverse the block order."""
    return code[::-1]


def _label_sides(m: int, n: int) -> tuple:
    """The gap labels of an (m, n) pair: up 1..m-1, then down m..m+n-2."""
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    return range(1, m), range(m, m + n - 1)


def check_code(code, m: int, n: int) -> tuple:
    """code, when it is the gap code of an (m, n) pair: no block is
    empty, and the blocks hold the bit of each label 1..m+n-2 once: they
    share no bit (their OR is their sum) and their sum is m+n-2 one
    bits, read off the blocks and not written out for a large m."""
    k = sum(map(len, _label_sides(m, n)))
    union = total = 0
    for b in code:
        if not b:
            raise ValueError("block empty on both sides")
        union, total = union | b, total + b
    if union != total or union < 0 or not total.bit_count() == total.bit_length() == k:
        raise ValueError("bipartition does not match (m, n) = (%d, %d)" % (m, n))
    return code


def gamma_text(code, m: int, n: int) -> str:
    """The paper's text of the gap code of an (m, n) pair, once check_code
    accepts it: per block its up labels, then, when n > 1, "/" and its
    down labels: "(12/4|3/)"."""
    sides = _label_sides(m, n)[: 1 + (n > 1)]
    return "(%s)" % "|".join(
        "/".join(_labels_text([i for i in side if b >> (i - 1) & 1]) for side in sides)
        for b in check_code(code, m, n)
    )


def _labels_text(labels) -> str:
    # a lone label above 9 takes a trailing comma: "11," is not 1, 1
    if any(x > 9 for x in labels):
        return ",".join(map(str, labels)) + ("," if len(labels) == 1 else "")
    return "".join(map(str, labels))


def gamma_parse(text: str, m: int, n: int) -> tuple:
    """The gap code of an (m, n) pair from its gamma_text, which is
    parenthesized, with each block's labels sorted, on their side of "/"
    (up labels only in a block with none) and once; then check_code."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError("bipartition text must be parenthesized")
    inner = text[1:-1]
    blocks = []
    # "()" has no blocks: it is the code of the (1, 1) pair
    for part in inner.split("|") if inner.strip() else ():
        u, d = part.split("/") if "/" in part else (part, "")
        blocks.append((_labels_parse(u), _labels_parse(d)))
    if any(sorted(labels) != labels for block in blocks for labels in block):
        raise ValueError("block labels must be sorted")
    sides = _label_sides(m, n)
    # m+n-2 labels, counted before the bits, which grow with the labels
    if sum(len(us) + len(ds) for us, ds in blocks) != m + n - 2 or any(
            len(set(labels)) < len(labels) or any(i not in side for i in labels)
            for block in blocks for side, labels in zip(sides, block)):
        raise ValueError("bipartition does not match (m, n) = (%d, %d)" % (m, n))
    return check_code(tuple(sum(1 << (i - 1) for i in us + ds) for us, ds in blocks), m, n)


def _labels_parse(s: str) -> list:
    s = s.strip()
    if "," in s:
        return [int(x) for x in s.removesuffix(",").split(",")]
    return [int(c) for c in s]


def gamma_decode(code, m: int, n: int) -> ComplementaryPair:
    """The validated (m, n) pair whose gap code is `code`, as gap_code or
    gamma_parse return it, once check_code accepts it."""
    # the depth of each gap, from 0: a vertex lies deeper than its
    # parent, so a U gap's depth is its level and a D gap's is minus it
    depths = [0] * (m + n - 2)
    for j, b in enumerate(check_code(code, m, n), start=1):
        for i in range(m + n - 2):
            if b >> i & 1:
                depths[i] = j if i < m - 1 else -j
    up, down, *levels = _pair_from_intervals(
        _gap_intervals(depths[: m - 1]), _gap_intervals(depths[m - 1 :]))
    return ComplementaryPair(PlanarTree("up", up), PlanarTree("down", down), *levels)


def _gap_intervals(depths) -> dict:
    """The leaf intervals of a tree and their levels, from the depth of
    each gap, gap i lying between leaves i and i + 1 (from 0).  The
    vertex where gap i merges spans the longest run of gaps around it
    at its depth or deeper, and its level is the gap's level, the
    depth's absolute value."""
    out = {}
    for i, d in enumerate(depths):
        lo, hi = i, i + 1
        while lo and depths[lo - 1] >= d:
            lo -= 1
        while hi < len(depths) and depths[hi] >= d:
            hi += 1
        out[lo, hi + 1] = abs(d)
    return out
