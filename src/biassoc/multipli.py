"""Diaphragm trees, painted trees, and the multiplihedron face poset.

A diaphragm on an up-rooted tree records, per vertex, whether it sits
above the membrane, on it, or below it; the marking is weakly monotone
along root-to-leaf paths and no two comparable vertices sit on the
membrane together.  These are exactly the zone pairs whose down tree is
the 2-corolla.  Painting everything above the membrane black and
inserting an "application" vertex wherever the membrane crosses an
edge turns a diaphragm into a painted tree, the classical indexing of
multiplihedron faces.  Below the membrane a painted tree is a plain
tree: its application vertices hold their inputs as plain shapes, read
through the functions of trees (text, leaf count, validation, parser).

The multiplihedron face poset, whose one builder multiplihedron_poset
keeps no cache, is built from the markings of each plain shape
(shape_diaphragms), without zone pairs, each named by painted_key, the
text of the painted tree that painted_shape paints from it, with no tree
object; painted_json rewrites that text as JSON.  enumerate_painted,
which generates painted trees from their vertex rules, is the reference
the tests compare them with.  Its relation is the one-step moves of the
diaphragms (diaphragm_moves), as the associahedron's is its edge
contractions; diaphragm_leq is the reference order.
"""

from __future__ import annotations

from functools import cache

from . import posets
from .trees import (
    LEAF,
    PlanarTree,
    _shapes,
    child_tuples,
    children_prefix,
    contracted_values,
    drop_vertices,
    edge_ties,
    leaf_count,
    shape_edges,
    shape_from_text,
    shape_prefix,
    shape_text,
    shape_vertices,
    validate_shape,
)
from .zones import ZonePair, biassociahedron_poset, enumerate_zone_pairs

ABOVE = -1  # above the membrane (painted black; nearer the root)
AT = 0
BELOW = 1


class DiaphragmTree(posets._Record):
    """An up tree with a membrane marking per vertex (path order)."""

    _fields = ("tree", "zeta")

    def __init__(self, tree: PlanarTree, zeta: tuple):
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "zeta", zeta)  # in {ABOVE, AT, BELOW}, lex path order
        if self.tree.orientation != "up":
            raise ValueError("diaphragms live on up trees")
        verts = self.tree.vertices()
        if len(self.zeta) != len(verts):
            raise ValueError("zeta length mismatch")
        if any(type(v) is not int or v not in (ABOVE, AT, BELOW) for v in self.zeta):
            raise ValueError("bad zeta value")
        ties = edge_ties(shape_edges(self.tree.shape), self.zeta, True)
        if ties is None:
            raise ValueError("zeta must not decrease away from root")
        if AT in ties:
            raise ValueError("comparable vertices both on the membrane")

    @property
    def m(self) -> int:
        return self.tree.leaves


def zone_to_diaphragm(z: ZonePair) -> DiaphragmTree:
    """Read off the membrane marking from a zone pair whose down tree
    is the 2-corolla: compare each up vertex's zone with the corolla's."""
    if z.n != 2:
        raise ValueError("need the 2-corolla as down tree")
    return DiaphragmTree(z.up, membrane_marks(z.up_zones, z.down_zones[0]))


def membrane_marks(zones, level) -> tuple:
    """Each of the zones against the 2-corolla's zone, `level`."""
    return tuple(ABOVE if z < level else AT if z == level else BELOW for z in zones)


def diaphragm_leq(d1: DiaphragmTree, d2: DiaphragmTree) -> bool:
    """True iff a tree contraction exists that keeps membrane vertices
    on the membrane and lets strictly-above/strictly-below vertices at
    most land on it: each vertex's image (contracted_values) carries its
    mark or AT."""
    if d1.m != d2.m:
        raise ValueError("leaf count mismatch")
    image = contracted_values(d1.tree.shape, d2.tree.shape, d2.zeta)
    return image is not None and all(w in (v, AT) for v, w in zip(d1.zeta, image))


# ---------------------------------------------------------------------------
# painted trees

# painted shapes: (".", children) black vertex, its children painted;
# ("!", inputs) application vertex, its inputs (the white parts) plain
# shapes.  Each leaf path crosses exactly one application vertex.


def painted_validate(shape):
    if shape == LEAF:
        raise ValueError("leaf path without an application vertex")
    kind, children = shape
    if kind not in ("!", "."):
        raise ValueError("bad painted vertex kind %r" % (kind,))
    if len(children) < (1 if kind == "!" else 2):
        raise ValueError("%r vertex with too few children" % (kind,))
    for c in children:  # a white part is a plain shape
        (validate_shape if kind == "!" else painted_validate)(c)


class PaintedTree(posets._Record):
    _fields = ("shape",)

    def __init__(self, shape):
        painted_validate(shape)
        object.__setattr__(self, "shape", shape)

    @property
    def m(self) -> int:
        return _painted_leaves(self.shape)

    def text(self) -> str:
        return _painted_text(self.shape)

    @classmethod
    def from_text(cls, text: str) -> "PaintedTree":
        return cls(shape_from_text(text, _painted_parse, "painted tree"))

    def key(self) -> str:
        return self.text()

    def to_json(self) -> str:
        return painted_json(self.text())


def _painted_leaves(shape):
    kind, children = shape
    return sum(map(leaf_count if kind == "!" else _painted_leaves, children))


def _painted_text(shape):
    kind, children = shape
    if kind == "!":
        # the inputs are written as a plain vertex on them would be, by
        # shape_text, which caches the text per shape
        return "!" + shape_text(children)
    return "(" + " ".join([_painted_text(c) for c in children]) + ")"


def _painted_parse(text, pos):
    """One painted shape from text with no whitespace at pos: (shape, the
    position after it).  An application vertex's inputs are tree text."""
    if text.startswith("!", pos):
        inputs, pos = children_prefix(text, pos + 1, shape_prefix)
        return ("!", inputs), pos
    children, pos = children_prefix(text, pos, _painted_parse)
    return (".", children), pos


def painted_json(text) -> str:
    """A painted tree's JSON text, rewritten from its text: each vertex
    an object {"type": "application" for "!(", else "plain", "children":
    [...]}, each leaf "*".  The text holds nothing that needs escaping."""
    text = text.replace("*", '"*"').replace(" ", ", ").replace(")", "]}")
    text = text.replace("!(", '{"type": "application", "children": [')
    return text.replace("(", '{"type": "plain", "children": [')


def painted_shape(shape, zeta):
    """Paint the diaphragm (shape, zeta), marks in path order: above the
    membrane black; a membrane vertex becomes an application vertex on
    its subtrees, and a membrane crossing of an edge inserts a unary
    one on the subtree below it.  The subtrees are not copied."""
    pos = 0

    def black(shape):
        # called while still above the membrane, at the mark of shape
        nonlocal pos
        if shape == LEAF:
            return ("!", (LEAF,))
        mark = zeta[pos]
        if mark == ABOVE:
            pos += 1
            return (".", tuple([black(c) for c in shape]))
        pos += len(shape_vertices(shape))  # skip the white subtree's marks
        return ("!", shape if mark == AT else (shape,))

    return black(shape)


def painted_key(shape, zeta) -> str:
    """The text of the painted tree of the diaphragm (shape, zeta): the
    one call that names a diaphragm, with no tree object."""
    return _painted_text(painted_shape(shape, zeta))


def diaphragm_to_painted(d: DiaphragmTree) -> PaintedTree:
    """The painted tree of a diaphragm (see painted_shape)."""
    return PaintedTree(painted_shape(d.tree.shape, d.zeta))


# marks a child may take under a parent's mark: never falling away
# from the root, and no child of a membrane vertex on the membrane
_CHILD_MARKS = {ABOVE: (ABOVE, AT, BELOW), AT: (BELOW,), BELOW: (BELOW,)}


def shape_diaphragms(m: int):
    """(shape, zeta) for every diaphragm with m leaves: per plain shape
    of _shapes(m), every marking that DiaphragmTree accepts.  Path order
    lists a parent before its children, so each vertex's mark is chosen
    once its parent's is known.  Neither painted trees nor zone pairs
    are read."""
    for shape in _shapes(m):
        zetas = [()] if shape == LEAF else [(ABOVE,), (AT,), (BELOW,)]
        for p, _ in shape_edges(shape):  # listed by child, in path order
            zetas = [z + (c,) for z in zetas for c in _CHILD_MARKS[z[p]]]
        for zeta in zetas:
            yield shape, zeta


@cache
def enumerate_painted(m: int) -> tuple:
    """All painted trees with m leaves, generated directly from the two
    vertex-type rules (independent of the zone enumeration).  Production
    builds the faces from shape_diaphragms; this is the reference the
    tests compare them with."""
    return tuple(sorted(map(PaintedTree, _black_parts(m)), key=PaintedTree.text))


@cache
def _black_parts(m: int) -> tuple:
    """Painted shapes with m leaves whose root edge is black."""
    out = [("!", (s,)) for s in _shapes(m)]
    out.extend((".", c) for c in child_tuples(m, _black_parts))
    # application vertices with >= 2 inputs
    out.extend(("!", c) for c in child_tuples(m, _shapes))
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
    edges = shape_edges(shape)

    def move(gone, raised):
        return (
            drop_vertices(shape, gone),
            tuple(AT if q == raised else z for q, z in enumerate(zeta) if q not in gone),
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


def diaphragm_dimension(shape, zeta) -> int:
    """A diaphragm's face dimension: (m - 1) - #vertices off the membrane."""
    return leaf_count(shape) - 1 - len(zeta) + zeta.count(AT)


def multiplihedron_poset(m: int, each_face=None):
    """Face poset of the multiplihedron on the painted_key of each
    diaphragm of shape_diaphragms, sorted by key as enumerate_painted
    is, ordered by diaphragm_leq on their diaphragms.
    The relation is each diaphragm's diaphragm_moves, looked up by
    (shape, zeta); the tests compare its closure with diaphragm_leq.
    Only the keys and the (shape, zeta) index are held while it is
    built: no tree object outlives its key.  When given,
    each_face(shape, zeta) is called once per element, in key order.

    Neither the elements nor the order come from zone pairs or block
    merges, so prop_d_check compares two independently built posets.
    """
    keys, index = [], {}
    for key, shape, zeta in sorted((painted_key(s, z), s, z) for s, z in shape_diaphragms(m)):
        index[shape, zeta] = len(keys)
        keys.append(key)
        if each_face is not None:
            each_face(shape, zeta)
    return posets.FinitePoset(
        tuple(keys),
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
    fails (see posets.isomorphism_failure).  The map is painted from
    each class's zone tuples, with no object."""
    if m < 2:
        raise ValueError("need m >= 2")
    painted = []  # per class in key order, as the poset's elements

    def paint(up, down, up_zones, down_zones):
        zeta = membrane_marks(up_zones, down_zones[0])
        painted.append(painted_key(up, zeta))

    p = biassociahedron_poset(m, 2, paint)
    f = dict(zip(p.elements, painted, strict=True))  # no key string held twice
    return f, posets.isomorphism_failure(p, multiplihedron_poset(m), f)
