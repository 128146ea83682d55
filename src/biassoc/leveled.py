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
levels, down levels): pair_key and pair_json write its key and JSON
text, and opet_step maps parts to parts.  A ComplementaryPair is built
only from outside input (from_key, from_json, gamma_decode, the CLI's
pair options) and in the tests' reference enumerate_leveled_pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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


@dataclass(frozen=True, slots=True)
class ComplementaryPair:
    """(U, D, level function); levels stored per tree in vertex path order."""

    up: PlanarTree
    down: PlanarTree
    up_levels: tuple
    down_levels: tuple

    def __post_init__(self):
        if self.up.orientation != "up" or self.down.orientation != "down":
            raise ValueError("pair needs an up tree and a down tree")
        ul, dl = self.up_levels, self.down_levels
        if len(ul) != len(self.up.vertices()) or len(dl) != len(self.down.vertices()):
            raise ValueError("level tuple length mismatch")
        levels = set(ul) | set(dl)
        h = max(levels, default=0)
        if levels != set(range(1, h + 1)):
            raise ValueError("levels must be exactly 1..h with no gaps")
        # levels are strict: no edge may go the wrong way or tie
        if edge_ties(shape_edges(self.up.shape), ul, True) != ():
            raise ValueError("up-tree levels must increase away from root")
        if edge_ties(shape_edges(self.down.shape), dl, False) != ():
            raise ValueError("down-tree levels must decrease away from root")

    @property
    def m(self) -> int:
        return self.up.leaves

    @property
    def n(self) -> int:
        return self.down.leaves

    @property
    def h(self) -> int:
        return max(self.up_levels + self.down_levels, default=0)

    @property
    def parts(self) -> tuple:
        """The pair as the walks carry it: (up, down, up_levels, down_levels)."""
        return self.up.shape, self.down.shape, self.up_levels, self.down_levels

    def key(self) -> str:
        return pair_key(*self.parts)

    @classmethod
    def from_key(cls, key: str) -> "ComplementaryPair":
        ut, dt, ul, dl = key.split(";")
        return cls(
            PlanarTree.from_text(ut, "up"),
            PlanarTree.from_text(dt, "down"),
            tuple(int(x) for x in ul.split(",") if x),
            tuple(int(x) for x in dl.split(",") if x),
        )

    def to_json(self) -> str:
        return pair_json(*self.parts)

    @classmethod
    def from_json(cls, data: str) -> "ComplementaryPair":
        obj = json.loads(data)
        return cls(
            PlanarTree.from_text(obj["up"], "up"),
            PlanarTree.from_text(obj["down"], "down"),
            tuple(obj["up_levels"]),
            tuple(obj["down_levels"]),
        )


@cache
def values_text(values) -> str:
    """A level or zone tuple as it appears in a key: "1,3,2"."""
    return ",".join(map(str, values))


def pair_key(up, down, a, b) -> str:
    """The one writer of the keys of pairs and zone pairs, from the two
    shapes and the level or zone tuples: "((* *) *);(* *);1,3;2"."""
    return "%s;%s;%s;%s" % (
        shape_text(up), shape_text(down), values_text(a), values_text(b))


def pair_json(up, down, up_levels, down_levels) -> str:
    """The one writer of a pair's JSON text, from its parts."""
    return json.dumps({"up": shape_text(up), "down": shape_text(down),
                       "up_levels": list(up_levels), "down_levels": list(down_levels)})


@cache
def _head_text(values) -> str:
    """values_text(values) and the ";" that ends it in a key."""
    return values_text(values) + ";"


def key_order(v) -> tuple:
    """A sort key of one tree pair's level or zone tuples v = (a, b)
    that orders them as their pair_key strings, without writing them.
    The keys share the two tree texts and go on "a;b", and no tuple's
    text holds a ";", so comparing a + ";" and then b compares the keys."""
    return _head_text(v[0]), values_text(v[1])


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


def pair_groups(m: int, n: int):
    """Per tree pair with m up-leaves and n down-leaves, in key order,
    (up shape, down shape, its level tuples sorted by key), one at a
    time, so a caller holds one tree pair's level tuples, not all."""
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    # a key starts with the two tree texts, no tree text is a prefix of
    # another and _shapes lists them in text order, so sorting each tree
    # pair's keys sorts them all; key_order sorts as the keys do ("1,23;"
    # is before "1,2;") without writing them
    return (
        (up, down, sorted(enumerate_level_functions(up, down), key=key_order))
        for up in _shapes(m)
        for down in _shapes(n)
    )


@cache
def enumerate_leveled_pairs(m: int, n: int) -> tuple:
    """All complementary pairs with m up-leaves and n down-leaves, in
    key order, each validated: a reference that no verb reads."""
    return tuple(chain.from_iterable(pair_objects(*group) for group in pair_groups(m, n)))


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
    in one walk of pair_groups on plain tuples, with no pair object.
    classify(up, down, levels) returns one tree pair's classes in key
    order, as tuple pairs keyed by pair_key, and per level tuple the
    number of its class; the tree pairs come in key order, so the keys
    are the sorted elements.  When given, each_class(up, down, a, b) is
    called once per class, in key order, with its parts, from the walk
    that builds the poset.  The relation is the image of the one-step
    moves, merging two adjacent blocks of the gap code (an OR of their
    masks); their closure is the block-merge order, pair_leq.  The image
    of the whole order is already transitive for every quotient built
    here (the tests check it for m + n <= 7), so the closure of the
    image is the image of the order.
    """
    if m + n < 2:
        raise ValueError("need m + n >= 2")
    keys, image = [], {}  # per pair, only its gap code and class number
    for up, down, levels in pair_groups(m, n):
        classes, numbers = classify(up, down, levels)
        if each_class is not None:
            for c in classes:
                each_class(up, down, *c)
        index = [len(keys) + k for k in range(len(classes))]  # one int per class
        codes = [gap_code(up, down, *v) for v in levels]
        image.update(zip(codes, [index[k] for k in numbers]))
        keys.extend([pair_key(up, down, *c) for c in classes])
    return posets.FinitePoset(
        tuple(keys),
        (
            (c, image[code[:k] + (code[k] | code[k + 1],) + code[k + 2 :]])
            for code, c in image.items()
            for k in range(len(code) - 1)
        ),
    )


def coarsening_faces(m: int, n: int, classes):
    """Every face of a quotient of the (m, n) bipermutahedron as its
    parts, in no set order, with no poset, key or sort: per tree pair,
    (up, down, a, b) for each (a, b) of classes(its level tuples)."""
    if m < 1 or n < 1:  # the messages of coarsening_poset
        raise ValueError("need m + n >= 2" if m + n < 2 else "need m, n >= 1")
    return ((up, down, *c) for up in _shapes(m) for down in _shapes(n)
            for c in classes(enumerate_level_functions(up, down)))


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


def gamma_text(code, m: int, n: int) -> str:
    """The paper's text of the gap code of an (m, n) pair: per block its
    up labels, then, when n > 1, "/" and its down labels: "(12/4|3/)"."""
    sides = (range(1, m), range(m, m + n - 1))[: 1 + (n > 1)]
    return "(%s)" % "|".join(
        "/".join(_labels_text([i for i in side if b >> (i - 1) & 1]) for side in sides)
        for b in code
    )


def _labels_text(labels) -> str:
    # a lone label above 9 takes a trailing comma: "11," is not 1, 1
    if any(x > 9 for x in labels):
        return ",".join(map(str, labels)) + ("," if len(labels) == 1 else "")
    return "".join(map(str, labels))


def gamma_parse(text: str, m: int, n: int) -> tuple:
    """The gap code of an (m, n) pair from its gamma_text.  Each block's
    labels are sorted and not all empty, a block with no "/" holds up
    labels only, and the up labels are 1..m-1 and the down labels
    m..m+n-2, each once."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError("bipartition text must be parenthesized")
    inner = text[1:-1]
    blocks = []
    # "()" has no blocks: it is the code of the (1, 1) pair
    for part in inner.split("|") if inner.strip() else ():
        u, d = part.split("/") if "/" in part else (part, "")
        blocks.append((_labels_parse(u), _labels_parse(d)))
    for us, ds in blocks:
        if not us and not ds:
            raise ValueError("block empty on both sides")
        if sorted(us) != us or sorted(ds) != ds:
            raise ValueError("block labels must be sorted")
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    for side, labels in enumerate((range(1, m), range(m, m + n - 1))):
        if sorted(chain.from_iterable(b[side] for b in blocks)) != list(labels):
            raise ValueError("bipartition does not match (m, n) = (%d, %d)" % (m, n))
    return tuple(sum(1 << (i - 1) for i in us + ds) for us, ds in blocks)


def _labels_parse(s: str) -> list:
    s = s.strip()
    if "," in s:
        return [int(x) for x in s.removesuffix(",").split(",")]
    return [int(c) for c in s]


def gamma_decode(code, m: int, n: int) -> ComplementaryPair:
    """The validated (m, n) pair whose gap code is `code`, as gap_code or
    gamma_parse return it: the checks on the labels are gamma_parse's."""
    # the depth of each gap, from 0: a vertex lies deeper than its
    # parent, so a U gap's depth is its level and a D gap's is minus it
    depths = [0] * (m + n - 2)
    for j, b in enumerate(code, start=1):
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
