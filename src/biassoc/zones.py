"""Zone functions and the step-one biassociahedron face poset.

A zone function coarsens a level function: it assigns the vertices of a
complementary pair to zones 1..l (numbered top-down, order preserving,
surjective) so that no two adjacent zones contain vertices of only the
same tree.  A zone meeting both vertex sets is a *barrier*; on barriers
the assignment must stay strict (no two comparable same-tree vertices
share a barrier).  The zone pairs with m up-leaves and n down-leaves
index the faces of the step-one biassociahedron; biassociahedron_poset
is the one builder of its face poset, and it keeps no cache.
Its walk, zone_group, projects level tuples to zone tuples; every walk
carries a zone pair as its parts, and pair_key and zone_json write its
key and JSON text.  A ZonePair is built only in the tests' references.
The projection of a pair of level tuples is memoized on the two tuples,
which recur across tree pairs (3,032 entries for the 47,293 pairs at
(5,4), 19,702 (3.0 MB) for the 545,835 at (5,5)); equal zone tuples
are one object (460 at (5,5)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import zip_longest
from math import inf

from .leveled import (
    ComplementaryPair,
    coarsening_poset,
    enumerate_level_functions,
    enumerate_leveled_pairs,
    key_order,
    pair_key,
)
from .trees import (
    PlanarTree,
    contracted_values,
    edge_ties,
    leaf_count,
    shape_edges,
    shape_text,
    shape_vertices,
)


@dataclass(frozen=True, slots=True)
class ZonePair:
    """(U, D, zone function); zones stored per tree in vertex path order."""

    up: PlanarTree
    down: PlanarTree
    up_zones: tuple
    down_zones: tuple

    def __post_init__(self):
        if self.up.orientation != "up" or self.down.orientation != "down":
            raise ValueError("pair needs an up tree and a down tree")
        uz, dz = self.up_zones, self.down_zones
        if len(uz) != len(self.up.vertices()) or len(dz) != len(self.down.vertices()):
            raise ValueError("zone tuple length mismatch")
        uset, dset = set(uz), set(dz)
        zones = uset | dset
        l = max(zones, default=0)
        if zones != set(range(1, l + 1)):
            raise ValueError("zones must be exactly 1..l with no gaps")
        # a zone shared across an edge is a barrier when the other tree
        # meets it
        ties = edge_ties(shape_edges(self.up.shape), uz, True)
        if ties is None:
            raise ValueError("up-tree zones must not decrease downward")
        if not dset.isdisjoint(ties):
            raise ValueError("comparable vertices share a barrier")
        ties = edge_ties(shape_edges(self.down.shape), dz, False)
        if ties is None:
            raise ValueError("down-tree zones must not increase upward")
        if not uset.isdisjoint(ties):
            raise ValueError("comparable vertices share a barrier")
        t = _kinds(uz, dz, l)
        if "UU" in t or "DD" in t:
            raise ValueError("adjacent zones of the same type")

    @property
    def m(self) -> int:
        return self.up.leaves

    @property
    def n(self) -> int:
        return self.down.leaves

    @property
    def l(self) -> int:
        return max(self.up_zones + self.down_zones, default=0)

    def type(self) -> str:
        """Per-zone classification: U, D, or B (meets both trees)."""
        return _kinds(self.up_zones, self.down_zones, self.l)

    @property
    def parts(self) -> tuple:
        """The pair as the walks carry it: (up, down, up_zones, down_zones)."""
        return self.up.shape, self.down.shape, self.up_zones, self.down_zones

    def key(self) -> str:
        return pair_key(*self.parts)

    def to_json(self) -> str:
        return zone_json(*self.parts)


def zone_json(up, down, up_zones, down_zones) -> str:
    """The one writer of a zone pair's JSON text, from its parts: the
    text json.dumps gives the object {"up": ..., "down": ..., "zones":
    per zone its tagged vertex paths, "type": ...}; no part of it needs
    escaping."""
    zones, kinds = [], []
    for u, d in zip_longest(_zone_members(up, up_zones, "u"),
                            _zone_members(down, down_zones, "d"), fillvalue=""):
        if u and d:
            zones.append("[%s, %s]" % (u, d))
            kinds.append("B")
        else:
            zones.append("[%s]" % (u or d))
            kinds.append("U" if u else "D")
    return '{"up": "%s", "down": "%s", "zones": [%s], "type": "%s"}' % (
        shape_text(up), shape_text(down), ", ".join(zones), "".join(kinds))


@cache
def _tagged_paths(shape, tag) -> tuple:
    """Per vertex of shape in path order, its tagged dotted path as a
    JSON string: "u:0.1"."""
    return tuple(
        '"%s:%s"' % (tag, ".".join(map(str, p))) for p in shape_vertices(shape)
    )


@cache
def _zone_members(shape, zones, tag) -> tuple:
    """Per zone 1..max(zones), the JSON strings of the tagged paths of
    the vertices of shape in that zone, comma-separated ("" for none).
    A zone holding one vertex shares that vertex's string."""
    members = [[] for _ in range(max(zones, default=0))]
    for text, z in zip(_tagged_paths(shape, tag), zones):
        members[z - 1].append(text)
    return tuple(map(", ".join, members))


def _kinds(up_values, down_values, count) -> str:
    """Per level or zone 1..count: B when both trees meet it, U when
    only the up tree does, D otherwise."""
    meets = [0] * (count + 1)  # bit 1: the up tree, bit 2: the down tree
    for v in up_values:
        meets[v] |= 1
    for v in down_values:
        meets[v] |= 2
    return "".join(["DUDB"[f] for f in meets[1:]])


def closure(zp: ZonePair, i: int) -> frozenset:
    """A barrier is its own closure; a zone also absorbs adjacent barriers."""
    t = zp.type()
    if not 1 <= i <= len(t):
        raise IndexError("zone index out of range")
    if t[i - 1] == "B":
        return frozenset({i})
    return frozenset(j for j in (i - 1, i, i + 1) if j == i or 0 < j <= len(t) and t[j - 1] == "B")


def project(x: ComplementaryPair) -> ZonePair:
    """Collapse maximal runs of adjacent up-only levels and of adjacent
    down-only levels into single zones."""
    return ZonePair(x.up, x.down, *_zone_tuples(x.up_levels, x.down_levels))


@cache
def _zone_tuples(up_levels, down_levels) -> tuple:
    """The zones of the pair with the given level tuples, as project
    gives them: (up zones, down zones).  Memoized: the zones depend on
    the two level tuples alone, which recur across tree pairs, and
    the zone pairs of all tree pairs share each distinct zone tuple."""
    h = max(up_levels + down_levels, default=0)
    zone_of = [0]  # per level 0..h, its zone; no vertex has level 0
    prev = None
    for kind in _kinds(up_levels, down_levels, h):
        zone_of.append(zone_of[-1] + (kind != prev or kind == "B"))
        prev = kind
    return (_shared(tuple([zone_of[l] for l in up_levels])),
            _shared(tuple([zone_of[l] for l in down_levels])))


_shared = cache(lambda values: values)  # one object per distinct zone tuple


def zone_leq(z1: ZonePair, z2: ZonePair) -> bool:
    """True iff tree contraction morphisms exist that degenerate the
    relative heights gracefully.

    A zone function is determined by the relative heights it induces
    between up- and down-tree vertices, so a morphism must preserve
    them up to collapse: a shared barrier stays shared, while a strict
    above/below relation may at most flatten onto a barrier (it can
    never flip).  This is the zone analogue of requiring the square of
    zone scales to commute up to closures.  The heights after are those
    of the zones of z2 that contracted_values reads at each vertex's
    image.

    This is the reference order: biassociahedron_poset builds the same
    order as the image of the block-merge order under project, and the
    tests compare the two.
    """
    if (z1.m, z1.n) != (z2.m, z2.n):
        raise ValueError("pair shape mismatch")
    up = contracted_values(z1.up.shape, z2.up.shape, z2.up_zones)
    down = contracted_values(z1.down.shape, z2.down.shape, z2.down_zones)
    if up is None or down is None:
        return False
    before = _heights(z1.up_zones, z1.down_zones)
    return all(h in (0, g) for g, h in zip(before, _heights(up, down)))


def _heights(up_values, down_values) -> tuple:
    """Per (up vertex, down vertex), in path order with the up vertex
    outer, the sign of the up vertex's level or zone minus the down
    vertex's: -1 when the up vertex sits higher, 0 level with it, 1 lower."""
    return tuple((a > b) - (a < b) for a in up_values for b in down_values)


@cache
def enumerate_zone_pairs(m: int, n: int) -> tuple:
    """The zone pairs with the given leaf counts, sorted by key: the
    image of project over all complementary pairs, each validated.  It
    is a reference for the tests, which no verb reads."""
    found = {z.key(): z for z in map(project, enumerate_leveled_pairs(m, n))}
    return tuple(found[key] for key in sorted(found))


def zone_group(up, down, levels) -> tuple:
    """One tree pair's distinct zone tuples, sorted by key, and per
    level tuple of `levels` the number of its zones among them."""
    met = [_zone_tuples(*v) for v in levels]
    classes = sorted(set(met), key=key_order)
    number = {z: k for k, z in enumerate(classes)}
    return classes, [number[z] for z in met]


def zone_dimension(up, down, up_zones, down_zones) -> int:
    """A zone pair's face dimension: (m+n-2) minus the number of levels
    of pi_section, one per barrier zone and one per vertex of a plain
    zone.  This formula has not been found stated in the paper; the
    tests check it against the longest-chain rank of every face with
    m + n <= 8."""
    barriers = set(up_zones).intersection(down_zones)
    plain = sum(z not in barriers for z in up_zones + down_zones)
    return leaf_count(up) + leaf_count(down) - 2 - len(barriers) - plain


def biassociahedron_poset(m: int, n: int, each_class=None):
    """Face poset of the step-one biassociahedron: the image of the
    bipermutahedron order under project, whose classes are those of
    zone_group.  When given, each_class(up, down, up_zones, down_zones)
    is called once per class, in key order, from the walk that builds
    the poset.  The poset is not cached: each caller holds only the
    posets it uses."""
    return coarsening_poset(m, n, zone_group, each_class)


def pi_section(z: ZonePair) -> ComplementaryPair:
    """A level function projecting onto z: each barrier becomes one
    level; each plain zone, which holds vertices of one tree only,
    expands into the lexicographically least linear extension of its
    vertices, one per level.  That is one sort by zone and then path:
    up-tree vertices in path order, which puts ancestors first, and
    down-tree vertices in path order with each vertex after its
    descendants (its path padded past every child index)."""
    t = z.type()
    vertices = [(zone, p, 0, i) for i, (p, zone) in enumerate(zip(z.up.vertices(), z.up_zones))]
    vertices += [(zone, (*p, inf), 1, i)
                 for i, (p, zone) in enumerate(zip(z.down.vertices(), z.down_zones))]
    levels = ([0] * len(z.up_zones), [0] * len(z.down_zones))
    level, last = 0, None
    for zone, _, side, i in sorted(vertices):
        level += zone != last or t[zone - 1] != "B"
        levels[side][i], last = level, zone
    return ComplementaryPair(z.up, z.down, *map(tuple, levels))


def relative_heights_check(x: ComplementaryPair) -> bool:
    """Cross-tree height trichotomies (_heights) survive projection, and
    determine the zone function uniquely among all zone functions on
    (U, D): no two distinct zone tuples of the tree pair have one sign
    vector."""
    if _heights(x.up_levels, x.down_levels) != _heights(*_zone_tuples(x.up_levels, x.down_levels)):
        return False
    zones = {_zone_tuples(*v) for v in enumerate_level_functions(x.up.shape, x.down.shape)}
    return len({_heights(*z) for z in zones}) == len(zones)
