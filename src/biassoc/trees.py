"""Planar rooted trees.

A tree shape is a nested structure: the string ``"*"`` is a leaf, and a
tuple of >= 2 child shapes is an internal vertex.  The *exceptional* tree
is the bare leaf ``"*"`` -- one leg, no vertices.  Orientation is a flag:
``up`` trees are drawn root-up with leaves hanging down, ``down`` trees
are the mirror image (root at the bottom); the encoding is identical.

Vertices are addressed by root-to-vertex paths of child indices
(tuples of ints), iterated in lexicographic (= depth-first preorder)
order everywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from itertools import product

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


def shape_from_text(text: str):
    text = text.strip()
    pos = 0

    def parse():
        nonlocal pos
        while pos < len(text) and text[pos] == " ":
            pos += 1
        if pos >= len(text):
            raise ValueError("unexpected end of tree text")
        if text[pos] == LEAF:
            pos += 1
            return LEAF
        if text[pos] != "(":
            raise ValueError("bad character %r in tree text" % text[pos])
        pos += 1
        children = []
        while True:
            while pos < len(text) and text[pos] == " ":
                pos += 1
            if pos >= len(text):
                raise ValueError("unbalanced parentheses in tree text")
            if text[pos] == ")":
                pos += 1
                break
            children.append(parse())
        if len(children) < 2:
            raise ValueError("vertex with fewer than 2 children in tree text")
        return tuple(children)

    result = parse()
    while pos < len(text) and text[pos] == " ":
        pos += 1
    if pos != len(text):
        raise ValueError("trailing garbage in tree text")
    return result


def _shape_to_jsonable(shape):
    if shape == LEAF:
        return LEAF
    return [_shape_to_jsonable(c) for c in shape]


def _shape_from_jsonable(obj):
    if obj == LEAF:
        return LEAF
    return tuple(_shape_from_jsonable(c) for c in obj)


@dataclass(frozen=True)
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

    def arity(self, path) -> int:
        s = subshape(self.shape, path)
        if s == LEAF:
            raise KeyError("path %r is a leaf, not a vertex" % (path,))
        return len(s)

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
    verts = t.vertices()
    pairs = set()
    for u in verts:
        for v in verts:
            if u != v and v == u[: len(v)]:
                # v is a proper ancestor (prefix) of u
                if t.orientation == "up":
                    pairs.add((u, v))
                else:
                    pairs.add((v, u))
    return frozenset(pairs)


def edge_values(t: PlanarTree, values) -> list:
    """(parent value, child value) over the edges between vertices of
    t, given one value per vertex in path order.  A monotone rule holds
    on all ancestor pairs iff it holds on these; so does a ban on equal
    values, since a comparable pair with equal monotone values forces
    equality on the edge just above the lower vertex."""
    by_path = dict(zip(t.vertices(), values))
    return [(by_path[q[:-1]], v) for q, v in by_path.items() if q]


def is_ancestor(p, q) -> bool:
    """True iff p is a proper ancestor (proper prefix) of q."""
    return len(p) < len(q) and q[: len(p)] == p


def contract_edge(t: PlanarTree, edge) -> PlanarTree:
    """Contract the internal edge whose non-root endpoint is `edge`.

    The non-root endpoint is the deeper vertex of the edge; this names
    internal edges bijectively.  The two endpoints merge, splicing the
    deeper vertex's child list into its parent's in place.
    """
    edge = tuple(edge)
    if edge == ():
        raise ValueError("not an internal edge")
    s = subshape(t.shape, edge)
    if s == LEAF:
        raise ValueError("not an internal edge")

    def rebuild(shape, path):
        if len(path) == 1:
            i = path[0]
            child = shape[i]
            return shape[:i] + child + shape[i + 1 :]
        i = path[0]
        return shape[:i] + (rebuild(shape[i], path[1:]),) + shape[i + 1 :]

    return PlanarTree(t.orientation, rebuild(t.shape, edge))


@cache
def _shapes(m: int) -> tuple:
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
def contraction_map(s1, s2):
    """The unique contraction morphism between shapes, if one exists.

    Returns a dict sending each vertex path of s1 to a vertex path of s2
    such that contracting the fibers of the map turns s1 into s2, or
    None when s1 does not refine s2.  Such a map is unique because the
    image vertex of any s1-vertex is forced by leaf intervals.
    """
    if leaf_count(s1) != leaf_count(s2):
        return None
    if s2 == LEAF:
        return {} if s1 == LEAF else None
    if s1 == LEAF:
        return None

    # leaf intervals (start offsets) of s2's root children
    bounds = [0]
    for child in s2:
        bounds.append(bounds[-1] + leaf_count(child))

    def interval_of(start, width):
        """Index of the s2 root-child interval containing [start, start+width),
        or None if it straddles a boundary."""
        for j in range(len(s2)):
            if bounds[j] <= start and start + width <= bounds[j + 1]:
                return j
        return None

    hanging = [[] for _ in s2]  # per interval: (path, shape, start)
    ok = True

    def walk(path, shape, start):
        # `shape` is a fiber vertex over s2's root; route its children.
        nonlocal ok
        offset = start
        for i, child in enumerate(shape):
            width = leaf_count(child)
            j = interval_of(offset, width)
            if j is not None:
                hanging[j].append((path + (i,), child, offset))
            elif child == LEAF:
                ok = False
            else:
                walk(path + (i,), child, offset)
            offset += width

    walk((), s1, 0)
    if not ok:
        return None

    mapping = {}
    fiber_paths = set(shape_vertices(s1))
    for j, items in enumerate(hanging):
        if len(items) != 1:
            return None
        path, shape, start = items[0]
        if start != bounds[j] or leaf_count(shape) != bounds[j + 1] - bounds[j]:
            return None
        sub = contraction_map(shape, s2[j])
        if sub is None:
            return None
        for p, q in sub.items():
            mapping[path + p] = (j,) + q
        fiber_paths -= {path + p for p in shape_vertices(shape)}
    for p in fiber_paths:
        mapping[p] = ()
    return mapping


def tree_leq(t1: PlanarTree, t2: PlanarTree) -> bool:
    """True iff t2 arises from t1 by contracting internal edges.

    This is the reference order: face_poset_associahedron builds the
    same order from gap-code block merges, and the tests compare the two.
    """
    if t1.orientation != t2.orientation:
        raise ValueError("orientation mismatch")
    if t1.leaves != t2.leaves:
        raise ValueError("leaf count mismatch")
    return contraction_map(t1.shape, t2.shape) is not None


def face_poset_associahedron(m: int):
    """Face poset of the associahedron on trees with m leaves: the
    image of the permutahedron order on the (m, 1) pairs under x -> x.up.

    Graded with dim(t) = m - 1 - #vertices; binary trees are the
    vertices and the corolla is the top cell.
    """
    from .leveled import coarsening_poset

    if m < 2:
        raise ValueError("need m >= 2")
    return coarsening_poset(m, 1, lambda x: x.up.text())
