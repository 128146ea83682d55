"""Planar rooted trees.

A tree shape is a nested structure: the string ``"*"`` is a leaf, and a
tuple of >= 2 child shapes is an internal vertex.  The *exceptional* tree
is the bare leaf ``"*"`` -- one leg, no vertices.  Orientation is a flag:
``up`` trees are drawn root-up with leaves hanging down, ``down`` trees
are the mirror image (root at the bottom); the encoding is identical.

Vertices are addressed by root-to-vertex paths of child indices
(tuples of ints), iterated in lexicographic (= depth-first preorder)
order everywhere.  A vertex is also named by its leaf interval, and a
shape by the set of its vertices' intervals: every rewritten shape (an
edge contraction, the leaf shift, the gap decoder) is built from that
set by shape_from_intervals.  The associahedron face poset orders trees
by edge contraction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from itertools import product

from . import posets

LEAF = "*"


def validate_shape(shape) -> None:
    if shape == LEAF:
        return
    if not isinstance(shape, tuple):
        raise ValueError("shape must be %r or a tuple of shapes" % LEAF)
    if len(shape) < 2:
        raise ValueError("every vertex needs at least 2 children")
    for child in shape:
        validate_shape(child)


@cache
def leaf_count(shape) -> int:
    if shape == LEAF:
        return 1
    return sum(leaf_count(c) for c in shape)


@cache
def shape_vertices(shape) -> tuple:
    """All vertex paths of a shape, in lexicographic order."""
    if shape == LEAF:
        return ()
    out = [()]
    for i, child in enumerate(shape):
        out.extend((i,) + p for p in shape_vertices(child))
    out.sort()
    return tuple(out)


@cache
def shape_edges(shape) -> tuple:
    """The edges between vertices of a shape as (parent index, child
    index) pairs, indices in vertex path order, listed by child."""
    index = {p: i for i, p in enumerate(shape_vertices(shape))}
    return tuple((index[p[:-1]], i) for p, i in index.items() if p)


def subshape(shape, path):
    for i in path:
        if shape == LEAF:
            raise KeyError(path)
        shape = shape[i]
    return shape


@cache
def shape_text(shape) -> str:
    if shape == LEAF:
        return LEAF
    return "(" + " ".join(shape_text(c) for c in shape) + ")"


def children_prefix(text, pos, read):
    """Read "(" child ... ")" from text at pos, each child by
    read(text, pos) -> (child, the position after it): (the children,
    the position after ")").  The text holds no whitespace.  This is the one
    character loop of tree text; painted trees read theirs with it."""
    if not text.startswith("(", pos):
        raise ValueError("bad tree text %r at position %d" % (text, pos))
    children, pos = [], pos + 1
    while not text.startswith(")", pos):
        if pos == len(text):
            raise ValueError("unbalanced parentheses in tree text")
        child, pos = read(text, pos)
        children.append(child)
    return tuple(children), pos + 1


def shape_prefix(text, pos=0):
    """Read one shape from text with no whitespace at pos: (shape, the
    position after it).  What follows it is left to the caller."""
    if text.startswith(LEAF, pos):
        return LEAF, pos + 1
    children, pos = children_prefix(text, pos, shape_prefix)
    if len(children) < 2:
        raise ValueError("vertex with fewer than 2 children in tree text")
    return children, pos


def shape_from_text(text: str):
    text = "".join(text.split())  # whitespace only separates tokens
    shape, pos = shape_prefix(text)
    if pos != len(text):
        raise ValueError("trailing garbage in tree text")
    return shape


def _shape_to_jsonable(shape):
    if shape == LEAF:
        return LEAF
    return [_shape_to_jsonable(c) for c in shape]


def _shape_from_jsonable(obj):
    if obj == LEAF:
        return LEAF
    return tuple(_shape_from_jsonable(c) for c in obj)


@dataclass(frozen=True, slots=True)
class PlanarTree:
    """A planar rooted tree with an orientation flag."""

    orientation: str  # 'up' or 'down'
    shape: object

    def __post_init__(self):
        if self.orientation not in ("up", "down"):
            raise ValueError("orientation must be 'up' or 'down'")
        validate_shape(self.shape)

    @property
    def exceptional(self) -> bool:
        return self.shape == LEAF

    @property
    def leaves(self) -> int:
        return leaf_count(self.shape)

    def vertices(self) -> tuple:
        return shape_vertices(self.shape)

    def text(self) -> str:
        return shape_text(self.shape)

    def to_json(self) -> str:
        return json.dumps(
            {"orientation": self.orientation, "tree": _shape_to_jsonable(self.shape)}
        )

    @classmethod
    def from_json(cls, data: str) -> "PlanarTree":
        obj = json.loads(data)
        return cls(obj["orientation"], _shape_from_jsonable(obj["tree"]))

    @classmethod
    def from_text(cls, text: str, orientation: str = "up") -> "PlanarTree":
        return cls(orientation, shape_from_text(text))


def vertex_order(t: PlanarTree) -> frozenset:
    """Strict order on vertex paths: pairs (u, v) with u < v.

    Edges are oriented toward the root for up trees and away from it for
    down trees, and u < v means an oriented edge path runs from u to v.
    So descendants are smaller than ancestors in an up tree, and larger
    in a down tree.
    """
    verts, up = t.vertices(), t.orientation == "up"
    # v is a proper ancestor (prefix) of u
    return frozenset(
        (u, v) if up else (v, u)
        for u in verts for v in verts if len(v) < len(u) and u[: len(v)] == v
    )


@cache
def edge_ties(edges, values, up: bool):
    """Given the edges of a shape (shape_edges) and one value per vertex
    in path order: the values shared by the two ends of an edge, or None
    when an edge goes the wrong way (values must not decrease away from
    an up root, nor increase away from a down root).  A monotone rule
    holds on all ancestor pairs iff it holds on the edges, and so does a
    ban on ties, since a comparable pair with equal monotone values
    forces a tie on an edge between them.  An edge tuple and a value
    tuple recur across many pairs, so each distinct part is checked
    once; the cache holds the edge tuple of shape_edges, one per
    distinct shape, and not the shapes of the objects checked."""
    ties = set()
    for p, c in edges:
        a, b = values[p], values[c]
        if a == b:
            ties.add(a)
        elif (a > b) == up:
            return None
    return tuple(sorted(ties))


def contract_edge(t: PlanarTree, edge) -> PlanarTree:
    """Contract the internal edge whose non-root endpoint is `edge`.

    The non-root endpoint is the deeper vertex of the edge; this names
    internal edges bijectively.  The two endpoints merge, which drops
    the deeper vertex's leaf interval.
    """
    edge = tuple(edge)
    paths = shape_vertices(t.shape)
    if edge not in paths[1:]:
        raise ValueError("not an internal edge")
    return PlanarTree(t.orientation, drop_vertices(t.shape, (paths.index(edge),)))


@cache
def _shapes(m: int) -> tuple:
    if m < 1:
        raise ValueError("need m >= 1")
    if m == 1:
        return (LEAF,)
    return tuple(sorted(child_tuples(m, _shapes), key=shape_text))


def child_tuples(m: int, parts):
    """Every tuple of >= 2 children with m leaves in total, where a
    child with k leaves ranges over parts(k)."""
    for arity in range(2, m + 1):
        for comp in _compositions(m, arity):
            yield from product(*map(parts, comp))


def _compositions(total: int, parts: int):
    """Compositions of `total` into `parts` positive parts."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_trees(m: int, orientation: str = "up") -> tuple:
    """All planar rooted trees with m leaves and every vertex of arity >= 2."""
    if m < 1:
        raise ValueError("leaf count must be >= 1")
    return tuple(PlanarTree(orientation, s) for s in _shapes(m))


@cache
def leaf_intervals(shape) -> tuple:
    """The leaf interval (start, end) of each vertex, in path order.
    Every vertex has >= 2 children, so its interval names it, and
    contracting an edge drops the interval of the deeper vertex."""
    if shape == LEAF:
        return ()
    out = [(0, leaf_count(shape))]
    start = 0
    for child in shape:
        out.extend((start + a, start + b) for a, b in leaf_intervals(child))
        start += leaf_count(child)
    return tuple(out)


def shape_from_intervals(intervals):
    """The shape whose vertices have exactly the given leaf intervals:
    the inverse of leaf_intervals.  The intervals must be laminar, hold
    the root's (0, m) unless the shape is the bare leaf, and give every
    vertex >= 2 children."""
    if not intervals:
        return LEAF
    # a vertex's interval is longer than its descendants', so in order
    # of length every vertex is built after its children
    order = sorted(intervals, key=lambda iv: iv[1] - iv[0])
    m = order[-1][1]
    built = [LEAF] * m  # per leaf, the largest subtree built from it
    ends = list(range(1, m + 1))  # and the end of that subtree
    for start, end in order:
        children = []
        i = start
        while i < end:
            children.append(built[i])
            i = ends[i]
        built[start] = tuple(children)
        ends[start] = end
    return built[0]


def drop_vertices(shape, gone):
    """The shape without the non-root vertices whose path-order indices
    are in gone: the shape of the other vertices' leaf intervals.
    Dropping a vertex contracts the edge above it."""
    if not gone:
        return shape
    return shape_from_intervals(
        [iv for q, iv in enumerate(leaf_intervals(shape)) if q not in gone]
    )


@cache
def contraction_map(s1, s2):
    """The unique contraction morphism between shapes, if one exists.

    Returns a dict sending each vertex path of s1 to a vertex path of s2
    such that contracting the fibers of the map turns s1 into s2, or
    None when s1 does not refine s2.  s1 refines s2 iff every leaf
    interval of s2 is one of s1; a vertex of s1 then goes to the
    smallest s2 vertex whose interval contains its own.
    """
    if leaf_count(s1) != leaf_count(s2):
        return None
    iv1, iv2 = leaf_intervals(s1), leaf_intervals(s2)
    if not set(iv2) <= set(iv1):
        return None
    paths2 = shape_vertices(s2)
    # the s2 intervals containing a given one form a chain, and path
    # order lists it from the root down, so the last one is the smallest
    return {
        p: [q for q, (c, d) in zip(paths2, iv2) if c <= a and b <= d][-1]
        for p, (a, b) in zip(shape_vertices(s1), iv1)
    }


def contracted_values(s1, s2, values):
    """Per vertex of s1 in path order, the value that `values`, one per
    vertex of s2 in path order, gives its image under contraction_map,
    or None when s1 does not refine s2.  The reference orders compare a
    finer face's levels, zones or marks with these."""
    cm = contraction_map(s1, s2)
    if cm is None:
        return None
    value = dict(zip(shape_vertices(s2), values))
    return tuple(value[q] for q in cm.values())


def edge_contractions(shape) -> tuple:
    """The shapes made from `shape` by contracting one internal edge:
    its one-step moves in the associahedron.  Each drops the leaf
    interval of one non-root vertex."""
    return tuple(drop_vertices(shape, (i,)) for i in range(1, len(leaf_intervals(shape))))


def tree_leq(t1: PlanarTree, t2: PlanarTree) -> bool:
    """True iff t2 arises from t1 by contracting internal edges.

    This is the reference order: face_poset_associahedron builds the
    same order as the closure of single edge contractions
    (edge_contractions), and the tests compare the two.
    """
    if t1.orientation != t2.orientation:
        raise ValueError("orientation mismatch")
    if t1.leaves != t2.leaves:
        raise ValueError("leaf count mismatch")
    return contraction_map(t1.shape, t2.shape) is not None


def tree_dimension(shape) -> int:
    """A tree's face dimension: m - 1 - #vertices."""
    return leaf_count(shape) - 1 - len(leaf_intervals(shape))


def face_poset_associahedron(m: int, each=None):
    """Face poset of the associahedron on trees with m leaves, ordered
    by edge contraction: the relation is edge_contractions.

    Graded with dim(t) = m - 1 - #vertices; binary trees are the
    vertices and the corolla is the top cell.  At m = 1 it is the
    one-point poset on the leaf "*".  When given, each(shape) is called
    once per element, in element order.
    """
    shapes = _shapes(m)
    for s in shapes if each else ():
        each(s)
    index = {s: i for i, s in enumerate(shapes)}
    return posets.FinitePoset(
        tuple(map(shape_text, shapes)),
        ((index[s], index[c]) for s in shapes for c in edge_contractions(s)),
    )
