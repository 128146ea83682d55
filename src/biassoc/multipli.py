"""Diaphragm trees, painted trees, and the multiplihedron face poset.

A diaphragm on an up-rooted tree records, per vertex, whether it sits
above the membrane, on it, or below it; the marking is weakly monotone
along root-to-leaf paths and no two comparable vertices sit on the
membrane together.  These are exactly the zone pairs whose down tree is
the 2-corolla.  Painting everything above the membrane black and
inserting an "application" vertex wherever the membrane crosses an
edge turns a diaphragm into a painted tree, the classical indexing of
multiplihedron faces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache

from . import posets
from .trees import (
    LEAF,
    PlanarTree,
    child_tuples,
    contraction_map,
    edge_values,
    shape_text,
)
from .zones import ZonePair, biassociahedron_poset, enumerate_zone_pairs

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
        for a, b in edge_values(self.tree, self.zeta):
            if a > b:
                raise ValueError("zeta must not decrease away from root")
            if a == b == AT:
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


def diaphragm_to_zone(d: DiaphragmTree) -> ZonePair:
    """Inverse of zone_to_diaphragm."""
    down = PlanarTree("down", (LEAF, LEAF))
    kinds = []
    if ABOVE in d.zeta:
        kinds.append(ABOVE)
    kinds.append(AT)
    if BELOW in d.zeta:
        kinds.append(BELOW)
    zone_of = {k: i + 1 for i, k in enumerate(kinds)}
    return ZonePair(
        d.tree,
        down,
        tuple(zone_of[v] for v in d.zeta),
        (zone_of[AT],),
    )


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
                sub = strip(children[0], path, BELOW)
                if sub == LEAF:
                    return LEAF
                return sub
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
    out = sorted(_black_parts(m), key=_painted_text)
    return tuple(PaintedTree(s) for s in out)


@cache
def _white_parts(m: int) -> tuple:
    """Plain all-white shapes with m leaves (the exceptional one included)."""
    from .trees import _shapes

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
    return tuple(
        zone_to_diaphragm(z) for z in enumerate_zone_pairs(m, 2)
    )


@cache
def multiplihedron_poset(m: int):
    """Face poset of the multiplihedron on painted trees; the order is
    transported through the diaphragm bijection.

    The order comes from diaphragm_leq, not from block merges, so that
    prop_d_check compares two independently built posets.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    diaphragms = enumerate_diaphragms(m)
    painted = [diaphragm_to_painted(d) for d in diaphragms]
    order = sorted(range(len(painted)), key=lambda i: painted[i].key())
    diaphragms = [diaphragms[i] for i in order]
    painted = [painted[i] for i in order]
    by_shape = {}
    for i, d in enumerate(diaphragms):
        by_shape.setdefault(d.tree.shape, []).append(i)
    # diaphragm_leq is False whenever the shapes admit no contraction,
    # so only pairs of contraction-related shapes are compared
    up = [[] for _ in painted]
    for s1, group1 in by_shape.items():
        for s2, group2 in by_shape.items():
            if contraction_map(s1, s2) is not None:
                for i in group1:
                    up[i].extend(
                        j for j in group2 if diaphragm_leq(diaphragms[i], diaphragms[j])
                    )
    return posets.FinitePoset(tuple(p.key() for p in painted), up)


def prop_d_check(m: int):
    """The map z -> diaphragm_to_painted(zone_to_diaphragm(z)) as a key
    dict if it is an order isomorphism from the biassociahedron with a
    2-corolla down tree onto the multiplihedron, else None."""
    if m < 2:
        raise ValueError("need m >= 2")
    f = {
        z.key(): diaphragm_to_painted(zone_to_diaphragm(z)).key()
        for z in enumerate_zone_pairs(m, 2)
    }
    if posets.is_isomorphism(biassociahedron_poset(m, 2), multiplihedron_poset(m), f):
        return f
    return None
