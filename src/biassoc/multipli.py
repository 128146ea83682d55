"""Diaphragm trees, painted trees, and the multiplihedron face poset.

A diaphragm on an up-rooted tree records, per vertex, whether it sits
above the membrane, on it, or below it; the marking is weakly monotone
along root-to-leaf paths and no two comparable vertices sit on the
membrane together.  These are exactly the zone pairs whose down tree is
the 2-corolla.  Painting everything above the membrane black and
inserting an "application" vertex wherever the membrane crosses an
edge turns a diaphragm into a painted tree, the classical indexing of
multiplihedron faces.

The multiplihedron face poset is built from painted trees generated by
their vertex rules, without zone pairs.  Its relation is the one-step
moves of their diaphragms (diaphragm_moves), as the associahedron's is
its edge contractions; diaphragm_leq is the reference order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, cached_property

from . import posets
from .trees import (
    LEAF,
    PlanarTree,
    _shapes,
    child_tuples,
    contraction_map,
    edge_ties,
    leaf_intervals,
    shape_edges,
    shape_from_intervals,
)
from .zones import ZonePair, _biassociahedron, enumerate_zone_pairs

ABOVE = -1  # above the membrane (painted black; nearer the root)
AT = 0
BELOW = 1


@dataclass(frozen=True)
class DiaphragmTree:
    """An up tree with a membrane marking per vertex (path order)."""

    tree: PlanarTree
    zeta: tuple  # values in {ABOVE, AT, BELOW} per vertex, lex path order

    def __post_init__(self):
        if self.tree.orientation != "up":
            raise ValueError("diaphragms live on up trees")
        verts = self.tree.vertices()
        if len(self.zeta) != len(verts):
            raise ValueError("zeta length mismatch")
        if any(v not in (ABOVE, AT, BELOW) for v in self.zeta):
            raise ValueError("bad zeta value")
        ties = edge_ties(shape_edges(self.tree.shape), self.zeta, True)
        if ties is None:
            raise ValueError("zeta must not decrease away from root")
        if AT in ties:
            raise ValueError("comparable vertices both on the membrane")

    @property
    def m(self) -> int:
        return self.tree.leaves

    def key(self) -> str:
        return "%s;%s" % (
            self.tree.text(),
            ",".join(str(z) for z in self.zeta),
        )


def zone_to_diaphragm(z: ZonePair) -> DiaphragmTree:
    """Read off the membrane marking from a zone pair whose down tree
    is the 2-corolla: compare each up vertex's zone with the corolla's."""
    if z.n != 2:
        raise ValueError("need the 2-corolla as down tree")
    level = z.down_zones[0]
    zeta = tuple(
        ABOVE if zz < level else AT if zz == level else BELOW
        for zz in z.up_zones
    )
    return DiaphragmTree(z.up, zeta)


def diaphragm_leq(d1: DiaphragmTree, d2: DiaphragmTree) -> bool:
    """True iff a tree contraction exists that keeps membrane vertices
    on the membrane and lets strictly-above/strictly-below vertices at
    most land on it."""
    if d1.m != d2.m:
        raise ValueError("leaf count mismatch")
    cm = contraction_map(d1.tree.shape, d2.tree.shape)
    if cm is None:
        return False
    marks2 = dict(zip(d2.tree.vertices(), d2.zeta))
    for p, v in zip(d1.tree.vertices(), d1.zeta):
        w = marks2[cm[p]]
        if w != v and w != AT:
            return False
    return True


# ---------------------------------------------------------------------------
# painted trees

# painted shapes: "*" white leaf, ("." , children) plain vertex,
# ("!", children) application vertex (white inputs, black output);
# everything above the unique application vertex on each leaf path is
# black, everything below is white.


def painted_validate(shape, seen_cut=False):
    if shape == LEAF:
        if not seen_cut:
            raise ValueError("leaf path without an application vertex")
        return
    kind, children = shape
    if kind == "!":
        if seen_cut:
            raise ValueError("two application vertices on one path")
        if len(children) < 1:
            raise ValueError("application vertex needs an input")
        for c in children:
            painted_validate(c, True)
    elif kind == ".":
        if len(children) < 2:
            raise ValueError("plain vertex needs at least 2 children")
        for c in children:
            painted_validate(c, seen_cut)
    else:
        raise ValueError("bad painted vertex kind %r" % (kind,))


@dataclass(frozen=True)
class PaintedTree:
    shape: object

    def __post_init__(self):
        painted_validate(self.shape)

    @property
    def m(self) -> int:
        return _painted_leaves(self.shape)

    def text(self) -> str:
        return self._text

    @cached_property
    def _text(self) -> str:
        # kept with the tree: enumerate_painted sorts by it and the
        # poset's element keys reuse it
        return _painted_text(self.shape)

    @classmethod
    def from_text(cls, text: str) -> "PaintedTree":
        shape, rest = _painted_parse(text.strip())
        if rest.strip():
            raise ValueError("trailing garbage in painted tree text")
        return cls(shape)

    def key(self) -> str:
        return self.text()

    def to_json(self) -> str:
        return json.dumps(_painted_jsonable(self.shape))


def _painted_leaves(shape):
    if shape == LEAF:
        return 1
    return sum(_painted_leaves(c) for c in shape[1])


def _painted_text(shape):
    if shape == LEAF:
        return LEAF
    kind, children = shape
    inner = "(" + " ".join(_painted_text(c) for c in children) + ")"
    return ("!" if kind == "!" else "") + inner


def _painted_parse(text):
    text = text.lstrip()
    if text.startswith(LEAF):
        return LEAF, text[1:]
    kind = "."
    if text.startswith("!"):
        kind = "!"
        text = text[1:].lstrip()
    if not text.startswith("("):
        raise ValueError("bad painted tree text")
    text = text[1:]
    children = []
    while True:
        text = text.lstrip()
        if text.startswith(")"):
            return (kind, tuple(children)), text[1:]
        child, text = _painted_parse(text)
        children.append(child)


def _painted_jsonable(shape):
    if shape == LEAF:
        return LEAF
    kind, children = shape
    return {
        "type": "application" if kind == "!" else "plain",
        "children": [_painted_jsonable(c) for c in children],
    }


def diaphragm_to_painted(d: DiaphragmTree) -> PaintedTree:
    """Paint above-membrane vertices black, below white; a membrane
    vertex becomes an application vertex, and a membrane crossing of an
    edge inserts a fresh unary application vertex."""
    marks = dict(zip(d.tree.vertices(), d.zeta))

    def white(shape):
        if shape == LEAF:
            return LEAF
        return (".", tuple(white(c) for c in shape))

    def black(path, shape):
        # called while still above the membrane
        if shape == LEAF:
            return ("!", (LEAF,))
        mark = marks[path]
        if mark == AT:
            return ("!", tuple(white(c) for c in shape))
        if mark == BELOW:
            return ("!", (white(shape),))
        return (
            ".",
            tuple(black(path + (i,), c) for i, c in enumerate(shape)),
        )

    return PaintedTree(black((), d.tree.shape))


def painted_to_diaphragm(p: PaintedTree) -> DiaphragmTree:
    """Inverse of diaphragm_to_painted."""
    zeta = {}

    def strip(shape, path, side):
        # returns the underlying plain shape at this position
        if shape == LEAF:
            return LEAF
        kind, children = shape
        if kind == "!":
            if len(children) == 1:
                return strip(children[0], path, BELOW)
            zeta[path] = AT
            return tuple(strip(c, path + (i,), BELOW) for i, c in enumerate(children))
        zeta[path] = side
        return tuple(strip(c, path + (i,), side) for i, c in enumerate(children))

    shape = strip(p.shape, (), ABOVE)
    tree = PlanarTree("up", shape)
    return DiaphragmTree(tree, tuple(zeta[q] for q in tree.vertices()))


@cache
def enumerate_painted(m: int) -> tuple:
    """All painted trees with m leaves, generated directly from the two
    vertex-type rules (independent of the zone enumeration)."""
    if m < 1:
        raise ValueError("need m >= 1")
    return tuple(sorted(map(PaintedTree, _black_parts(m)), key=PaintedTree.text))


@cache
def _white_parts(m: int) -> tuple:
    """Plain all-white shapes with m leaves (the exceptional one included)."""

    def tag(shape):
        if shape == LEAF:
            return LEAF
        return (".", tuple(tag(c) for c in shape))

    return tuple(tag(s) for s in _shapes(m))


@cache
def _black_parts(m: int) -> tuple:
    """Painted shapes with m leaves whose root edge is black."""
    out = [("!", (w,)) for w in _white_parts(m)]
    out.extend((".", c) for c in child_tuples(m, _black_parts))
    # application vertices with >= 2 inputs
    out.extend(("!", c) for c in child_tuples(m, _white_parts))
    return tuple(out)


@cache
def enumerate_diaphragms(m: int) -> tuple:
    """The diaphragms with m leaves, read off the zone pairs with the
    2-corolla as down tree.  Production no longer calls this: it is the
    zone-side reference that the tests compare enumerate_painted with."""
    return tuple(
        zone_to_diaphragm(z) for z in enumerate_zone_pairs(m, 2)
    )


def diaphragm_moves(shape, zeta):
    """The (shape, zeta) of each diaphragm one step above this one, as
    edge_contractions are a tree's.  Each move leaves one vertex fewer
    off the membrane, so the rank, (m - 1) minus their number, rises by
    one: contract an edge whose ends share a side, or one from an AT
    parent to a BELOW child; or put on the membrane an ABOVE vertex
    with no ABOVE child, merging its AT children into it, or a BELOW
    vertex that is the root or has an ABOVE parent.  The kept vertices
    keep their path order: a move is the shape of their leaf intervals."""
    intervals = leaf_intervals(shape)
    edges = shape_edges(shape)

    def move(gone, raised):
        kept = [q for q in range(len(zeta)) if q not in gone]
        return (
            shape_from_intervals([intervals[q] for q in kept]) if gone else shape,
            tuple(AT if q == raised else zeta[q] for q in kept),
        )

    for p, c in edges:
        # marks never fall away from the root, and no edge joins two ATs
        if zeta[p] == zeta[c] or zeta[p] == AT:
            yield move((c,), None)
        elif zeta[c] == BELOW:
            yield move((), c)
    if zeta[:1] == (BELOW,):
        yield move((), 0)
    inner = {p for p, c in edges if zeta[c] == ABOVE}
    for v, z in enumerate(zeta):
        if z == ABOVE and v not in inner:
            yield move([c for p, c in edges if p == v and zeta[c] == AT], v)


@cache
def multiplihedron_poset(m: int):
    """Face poset of the multiplihedron on the painted trees of
    enumerate_painted, ordered by diaphragm_leq on their diaphragms.
    The relation is each diaphragm's diaphragm_moves, looked up by
    (shape, zeta); the tests compare its closure with diaphragm_leq.

    Neither the elements nor the order come from zone pairs or block
    merges, so prop_d_check compares two independently built posets.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    painted = enumerate_painted(m)
    index = {}
    for i, p in enumerate(painted):
        d = painted_to_diaphragm(p)
        index[d.tree.shape, d.zeta] = i
    return posets.FinitePoset(
        tuple(p.key() for p in painted),
        ((i, index[t]) for (s, z), i in index.items() for t in diaphragm_moves(s, z)),
    )


def prop_d_check(m: int):
    """The map z -> diaphragm_to_painted(zone_to_diaphragm(z)) as a key
    dict if it is an order isomorphism from the biassociahedron with a
    2-corolla down tree onto the multiplihedron, else None.

    The two sides share neither elements nor order: the biassociahedron
    is the block-merge image of the (m, 2) pairs, and the multiplihedron
    is built from painted trees and their diaphragms' one-step moves.
    """
    f, failure = prop_d_map(m)
    return f if failure is None else None


def prop_d_map(m: int) -> tuple:
    """(f, failure): the key map of prop_d_check, filled from the walk
    that builds the (m, 2) biassociahedron, and None when it is an
    order isomorphism onto the multiplihedron, else the first way it
    fails (see posets.isomorphism_failure)."""
    if m < 2:
        raise ValueError("need m >= 2")
    f = {}

    def paint(z, key):
        f[key] = diaphragm_to_painted(zone_to_diaphragm(z)).key()

    p = _biassociahedron(m, 2, paint)
    return f, posets.isomorphism_failure(p, multiplihedron_poset(m), f)
