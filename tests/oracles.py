"""Code only the tests call.

The library stores a face poset as its covers and ranks, built from
one-step moves.  These helpers rebuild whole orders the slow way: the
closure of the stored covers, and the full up-set builders the library
used before (all block merges, the coarser_shapes closure, and the
shape closure times the fiber masks, with the multiplihedron's rank
formula), so the tests can compare them with the reference orders
pair_leq, zone_leq, tree_leq and diaphragm_leq.  The multiplihedron
built the way the library built it before, from the painted trees of
the vertex rules, is the reference for its per-shape diaphragms.  The
inverses of zone_to_diaphragm, diaphragm_to_painted and Expr.text are
here too: the library never needs them.  So is the recursive
level-function enumerator that the library's bitmask enumerator
replaced, kept as its reference, and the edge-by-edge validation of
level and zone functions that the cached per-part verdicts replaced,
and the greedy linear extension that pi_section's one sort replaced.
The recursive JSON objects of trees, pairs and painted trees, which the
library wrote through json.dumps before it came to rewrite each key as
its JSON text, are the references for those rewrites.
"""

import json
from functools import cache
from itertools import combinations

from biassoc import leveled as L
from biassoc import multipli as M
from biassoc import propterms as P
from biassoc import trees as T
from biassoc import zones as Z
from biassoc.leveled import ComplementaryPair
from biassoc.posets import FinitePoset
from biassoc.trees import LEAF, PlanarTree, subshape


def parts(x):
    """The plain parts of a ComplementaryPair or a ZonePair, as the
    library's walks carry them: (up shape, down shape, up tuple, down
    tuple)."""
    return x.parts


def mirror_key(key):
    """The key of the up/down mirror image of a pair or zone pair: the
    two tree texts trade places, keeping their planar order, and each
    level or zone l of h becomes h + 1 - l."""
    up, down, a, b = key.split(";")
    a, b = ([int(v) for v in t.split(",") if v] for t in (a, b))
    h = max(a + b, default=0)
    flip = lambda values: ",".join(str(h + 1 - v) for v in values)
    return "%s;%s;%s;%s" % (down, up, flip(b), flip(a))


def opposite(t: P.PropTerm) -> P.PropTerm:
    """The opposite of a term: each x[b,a] becomes x[a,b] and every wire
    runs the other way, so global input i becomes global output i and
    output j input j, in the same leg order.  A vertex's input ports
    become its output ports in the same order, and the other way round."""
    sink = {}  # per source of t, the port that reads it, as a source of the opposite
    for j, src in enumerate(t.outs):
        sink[src] = ("g", j)
    for vi, srcs in enumerate(t.ins):
        for q, src in enumerate(srcs):
            sink[src] = ("v", vi, q)
    return P.PropTerm(
        t.n,
        t.m,
        tuple((a, b) for b, a in t.verts),
        tuple(tuple(sink["v", vi, p] for p in range(b)) for vi, (b, _) in enumerate(t.verts)),
        tuple(sink["g", i] for i in range(t.m)),
    )


def closure(p):
    """The reflexive-transitive closure of p.covers(): per element, the
    frozenset of the indices above it, itself included."""
    above = [[] for _ in range(len(p))]
    for i, j in p.covers():
        above[i].append(j)
    up = [None] * len(p)

    def visit(i):  # recursion depth is the length of a chain
        if up[i] is None:
            up[i] = frozenset([i]).union(*map(visit, above[i]))
        return up[i]

    return [visit(i) for i in range(len(p))]


def leq(p):
    """e_a <= e_b on keys, read off closure(p)."""
    up = closure(p)
    return lambda a, b: p.index(b) in up[p.index(a)]


def is_transitive(up) -> bool:
    return all(up[j] <= u for u in up for j in u)


def up_set_ranks(up):
    """Longest-chain ranks of an order given as up-sets."""
    rank = [0] * len(up)
    # e_i < e_j makes up[j] a proper subset of up[i], so decreasing
    # up-set size is a linear extension
    for i in sorted(range(len(up)), key=lambda i: -len(up[i])):
        for j in up[i]:
            if j != i and rank[j] <= rank[i]:
                rank[j] = rank[i] + 1
    return rank


def block_merges(blocks):
    """The 2^(h-1) block tuples made by merging runs of adjacent blocks
    of an h-block tuple (h >= 1); the empty tuple merges to itself."""
    if len(blocks) <= 1:
        return [blocks]
    us, ds = blocks[0]
    out = []
    for rest in block_merges(blocks[1:]):
        us2, ds2 = rest[0]
        out.append(blocks[:1] + rest)
        out.append(((tuple(sorted(us + us2)), tuple(sorted(ds + ds2))),) + rest[1:])
    return out


def leaf_paths(shape, path=()) -> list:
    """The path of child indices from the root to each leaf, left to right."""
    if shape == LEAF:
        return [path]
    return [q for i, c in enumerate(shape) for q in leaf_paths(c, path + (i,))]


def meet(a, b) -> tuple:
    """The longest common prefix of two distinct leaf paths: the path of
    the vertex where the two leaves' branches meet."""
    k = 0
    while a[k] == b[k]:
        k += 1
    return a[:k]


def gap_blocks(x: ComplementaryPair) -> tuple:
    """Per level 1..h of the pair x, (up labels, down labels) merging
    there, from the meets of leaf paths: up gap i (1..m-1) lies between
    up leaves i and i+1 and merges at the level of their meet; down gap
    m - 1 + i likewise between down leaves i and i+1."""
    blocks = [([], []) for _ in range(x.h)]
    label = 1
    for side, (tree, levels) in enumerate(((x.up, x.up_levels), (x.down, x.down_levels))):
        level = dict(zip(tree.vertices(), levels))
        paths = leaf_paths(tree.shape)
        for a, b in zip(paths, paths[1:]):
            blocks[level[meet(a, b)] - 1][side].append(label)
            label += 1
    return tuple((tuple(us), tuple(ds)) for us, ds in blocks)


def block_merge_up_sets(m, n, label):
    """(sorted labels, up-sets): the image under `label` of the whole
    block-merge order on the (m, n) pairs, merging the label tuples of
    gap_blocks: the reference for the library's integer gap codes."""
    pairs = L.enumerate_leveled_pairs(m, n)
    labels = [label(x) for x in pairs]
    keys = tuple(sorted(set(labels)))
    index = {k: i for i, k in enumerate(keys)}
    blocks = [gap_blocks(x) for x in pairs]
    image = {b: index[lab] for b, lab in zip(blocks, labels)}
    up = [set() for _ in keys]
    for b in blocks:
        up[image[b]].update(image[merged] for merged in block_merges(b))
    return keys, [frozenset(u) for u in up]


def bipermutahedron_up_sets(m, n):
    return block_merge_up_sets(m, n, L.ComplementaryPair.key)


def biassociahedron_up_sets(m, n):
    return block_merge_up_sets(m, n, lambda x: Z.project(x).key())


@cache
def coarser_shapes(shape) -> frozenset:
    """`shape` and every shape reached from it by contracting internal
    edges: its up-set in the associahedron."""
    out = {shape}
    for c in T.edge_contractions(shape):
        out |= coarser_shapes(c)
    return frozenset(out)


def associahedron_up_sets(m):
    """(keys, up-sets) of the associahedron from the coarser_shapes closure."""
    shapes = T._shapes(m)
    index = {s: i for i, s in enumerate(shapes)}
    return (
        tuple(map(T.shape_text, shapes)),
        [frozenset(index[c] for c in coarser_shapes(s)) for s in shapes],
    )


def diaphragm_rank(m, zeta) -> int:
    """The dimension of a diaphragm's face: (m - 1) minus the number of
    its vertices off the membrane."""
    return m - 1 - sum(z != M.AT for z in zeta)


def mark_mask(zeta) -> int:
    """Bit q for an ABOVE mark at vertex q, bit q + k for a BELOW mark,
    where k is the number of vertices."""
    k = len(zeta)
    mask = 0
    for q, z in enumerate(zeta):
        if z == M.ABOVE:
            mask |= 1 << q
        elif z == M.BELOW:
            mask |= 1 << (q + k)
    return mask


def image_positions(s1, s2) -> tuple:
    """The path-order position in s2 of the contraction image of each
    vertex of s1 (s2 must be in coarser_shapes(s1))."""
    index = {q: i for i, q in enumerate(T.shape_vertices(s2))}
    return tuple(index[q] for q in T.contraction_map(s1, s2).values())


def forbidden_marks(zeta1, positions, k) -> int:
    """The marks of s2 that d1 rules out, as bits of mark_mask: the
    image of a vertex p may carry zeta1[p] or AT, so it may not be
    ABOVE unless zeta1[p] is, nor BELOW unless zeta1[p] is."""
    forbid = 0
    for q, z in zip(positions, zeta1):
        if z != M.ABOVE:
            forbid |= 1 << q
        if z != M.BELOW:
            forbid |= 1 << (q + k)
    return forbid


def multiplihedron_up_sets(m):
    """(keys, up-sets) of the multiplihedron: every diaphragm on a coarser
    shape whose mark mask misses the marks d1 forbids (the fiber masks)."""
    painted = M.enumerate_painted(m)
    by_shape = {}
    for i, p in enumerate(painted):
        d = painted_to_diaphragm(p)
        by_shape.setdefault(d.tree.shape, []).append((i, d.zeta, mark_mask(d.zeta)))
    up = [set() for _ in painted]
    for s1, members in by_shape.items():
        for s2 in coarser_shapes(s1):
            pos = image_positions(s1, s2)
            k = len(T.shape_vertices(s2))
            for i, zeta, _ in members:
                forbid = forbidden_marks(zeta, pos, k)
                up[i].update(j for j, _, mask in by_shape[s2] if not mask & forbid)
    return tuple(p.key() for p in painted), [frozenset(u) for u in up]


def painted_multiplihedron_poset(m):
    """The multiplihedron on the painted trees of the vertex rules,
    enumerate_painted, with the relation diaphragm_moves read off each
    tree's diaphragm: the reference for multiplihedron_poset, which
    enumerates the diaphragms per plain shape."""
    painted = M.enumerate_painted(m)
    index = {}
    for i, p in enumerate(painted):
        d = painted_to_diaphragm(p)
        index[d.tree.shape, d.zeta] = i
    return FinitePoset(
        tuple(p.key() for p in painted),
        ((i, index[t]) for (s, z), i in index.items() for t in M.diaphragm_moves(s, z)),
    )


# ---------------------------------------------------------------------------
# inverses of library maps that only the tests need


def painted_to_diaphragm(p: M.PaintedTree) -> M.DiaphragmTree:
    """Inverse of multipli.diaphragm_to_painted."""
    zeta = {}

    def white(shape, path):
        # every vertex of a white part is below the membrane
        for q in T.shape_vertices(shape):
            zeta[path + q] = M.BELOW
        return shape

    def strip(shape, path):
        # returns the underlying plain shape at this position
        kind, children = shape
        if kind == "!":
            if len(children) == 1:
                return white(children[0], path)
            zeta[path] = M.AT
            return tuple(white(c, path + (i,)) for i, c in enumerate(children))
        zeta[path] = M.ABOVE
        return tuple(strip(c, path + (i,)) for i, c in enumerate(children))

    shape = strip(p.shape, ())
    tree = PlanarTree("up", shape)
    return M.DiaphragmTree(tree, tuple(zeta[q] for q in tree.vertices()))


def diaphragm_to_zone(d: M.DiaphragmTree) -> Z.ZonePair:
    """Inverse of multipli.zone_to_diaphragm."""
    down = T.PlanarTree("down", (T.LEAF, T.LEAF))
    kinds = []
    if M.ABOVE in d.zeta:
        kinds.append(M.ABOVE)
    kinds.append(M.AT)
    if M.BELOW in d.zeta:
        kinds.append(M.BELOW)
    zone_of = {k: i + 1 for i, k in enumerate(kinds)}
    return Z.ZonePair(
        d.tree,
        down,
        tuple(zone_of[v] for v in d.zeta),
        (zone_of[M.AT],),
    )


def shape_jsonable(shape):
    """A tree shape as JSON nests it: a leaf "*", a vertex the list of
    its children."""
    if shape == LEAF:
        return LEAF
    return [shape_jsonable(c) for c in shape]


def tree_jsonable(t: PlanarTree) -> dict:
    """The JSON object of a tree, the reference for PlanarTree.to_json."""
    return {"orientation": t.orientation, "tree": shape_jsonable(t.shape)}


def pair_jsonable(x: ComplementaryPair) -> dict:
    """The JSON object of a pair, the reference for pair_json."""
    return {"up": x.up.text(), "down": x.down.text(),
            "up_levels": list(x.up_levels), "down_levels": list(x.down_levels)}


def painted_jsonable(shape) -> dict:
    """The JSON object of a painted shape, the reference for
    painted_json: each vertex {"type": ..., "children": [...]}."""
    kind, children = shape
    if kind == "!":
        return {"type": "application", "children": list(map(white_jsonable, children))}
    return {"type": "plain", "children": list(map(painted_jsonable, children))}


def white_jsonable(shape):
    """A white part, in the JSON object of a painted tree."""
    if shape == LEAF:
        return LEAF
    return {"type": "plain", "children": list(map(white_jsonable, shape))}


def zone_pair_json(z: Z.ZonePair) -> str:
    """The JSON text of a zone pair through json.dumps, the reference
    for zone_json, which joins cached per-part strings."""
    by_zone = [[] for _ in range(z.l)]
    for p, k in zip(z.up.vertices(), z.up_zones):
        by_zone[k - 1].append("u:" + ".".join(map(str, p)))
    for p, k in zip(z.down.vertices(), z.down_zones):
        by_zone[k - 1].append("d:" + ".".join(map(str, p)))
    return json.dumps(
        {
            "up": T.shape_text(z.up.shape),
            "down": T.shape_text(z.down.shape),
            "zones": by_zone,
            "type": z.type(),
        }
    )


def parse_expr(text: str) -> P.Expr:
    """Parse the term text format: x[b,a], e, V(f,g), H(f,g),
    F{ B1 B2 / A1 A2 }."""
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def eat(tok):
        nonlocal pos
        if peek() != tok:
            raise ValueError("expected %r, got %r" % (tok, peek()))
        pos += 1

    def parse():
        nonlocal pos
        tok = peek()
        if tok == "e":
            pos += 1
            return P.eunit()
        if tok == "x":
            pos += 1
            eat("[")
            b = int(tokens[pos]); pos += 1
            eat(",")
            a = int(tokens[pos]); pos += 1
            eat("]")
            return P.egen(b, a)
        if tok in ("V", "H"):
            pos += 1
            eat("(")
            args = [parse()]
            while peek() == ",":
                eat(",")
                args.append(parse())
            eat(")")
            return P.Expr("v" if tok == "V" else "h", tuple(args))
        if tok == "F":
            pos += 1
            eat("{")
            nums = []
            while peek() != "/":
                nums.append(parse())
            eat("/")
            dens = []
            while peek() != "}":
                dens.append(parse())
            eat("}")
            return P.efrac(nums, dens)
        raise ValueError("unexpected token %r" % tok)

    result = parse()
    if pos != len(tokens):
        raise ValueError("trailing garbage in term text")
    return result


def _tokenize(text: str):
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(text[i:j])
            i = j
        else:
            out.append(c)
            i += 1
    return out


def enumerate_level_functions(up: PlanarTree, down: PlanarTree):
    """All valid level assignments for the given tree pair.

    Levels are built top-down; at each step any nonempty subset of the
    currently placeable vertices (those whose same-tree predecessors are
    already placed on earlier levels) may form the next level.  For U a
    vertex waits for its parent, for D it waits for its children.
    """
    uverts = up.vertices()
    dverts = down.vertices()
    nodes = [("u", p) for p in uverts] + [("d", p) for p in dverts]
    preds = {}
    for tag, p in nodes:
        if tag == "u":
            preds[(tag, p)] = [("u", p[:-1])] if p else []
        else:
            ar = len(subshape(down.shape, p))
            preds[(tag, p)] = [("d", p + (i,)) for i in range(ar)
                               if subshape(down.shape, p + (i,)) != LEAF]

    results = []
    placed = set()

    def step(assigned, level):
        if len(assigned) == len(nodes):
            ul = tuple(assigned[("u", p)] for p in uverts)
            dl = tuple(assigned[("d", p)] for p in dverts)
            results.append(ComplementaryPair(up, down, ul, dl))
            return
        ready = [
            nd
            for nd in nodes
            if nd not in placed and all(q in placed for q in preds[nd])
        ]
        for size in range(1, len(ready) + 1):
            for chosen in combinations(ready, size):
                for nd in chosen:
                    assigned[nd] = level
                    placed.add(nd)
                step(assigned, level + 1)
                for nd in chosen:
                    del assigned[nd]
                    placed.discard(nd)

    step({}, 1)
    return results


def greedy_pi_section(z: Z.ZonePair) -> ComplementaryPair:
    """The section zones.pi_section gave before it became one sort, its
    reference: each barrier one level, and each plain zone expanded by
    repeatedly taking the least (tag, path) of its vertices that no
    remaining vertex of the zone must precede (an up vertex waits for
    its ancestors, a down vertex for its descendants)."""
    def is_ancestor(p, q):
        return len(p) < len(q) and q[: len(p)] == p

    t = z.type()
    zu = list(zip(z.up.vertices(), z.up_zones))
    zd = list(zip(z.down.vertices(), z.down_zones))
    levels = {"u": {}, "d": {}}
    level = 0
    for i in range(1, z.l + 1):
        tagged = [("u", p) for p, zz in zu if zz == i] + [("d", p) for p, zz in zd if zz == i]
        if t[i - 1] == "B":
            level += 1
            for tag, p in tagged:
                levels[tag][p] = level
            continue
        while tagged:
            ready = [
                (tag, p) for tag, p in tagged
                if not any(
                    tag2 == tag and (is_ancestor(q, p) if tag == "u" else is_ancestor(p, q))
                    for tag2, q in tagged
                )
            ]
            tag, p = min(ready)
            tagged.remove((tag, p))
            level += 1
            levels[tag][p] = level
    return ComplementaryPair(
        z.up, z.down,
        tuple(levels["u"][p] for p in z.up.vertices()),
        tuple(levels["d"][p] for p in z.down.vertices()),
    )


# ---------------------------------------------------------------------------
# edge-by-edge validation, the reference for the cached per-part verdicts


def level_function_error(up, down, up_levels, down_levels):
    """The message ComplementaryPair(up, down, up_levels, down_levels)
    raises, found by walking every edge of both trees, or None when the
    pair is valid."""
    if up.orientation != "up" or down.orientation != "down":
        return "pair needs an up tree and a down tree"
    if len(up_levels) != len(up.vertices()) or len(down_levels) != len(down.vertices()):
        return "level tuple length mismatch"
    levels = set(up_levels) | set(down_levels)
    h = max(levels, default=0)
    if levels != set(range(1, h + 1)):
        return "levels must be exactly 1..h with no gaps"
    if any(up_levels[p] >= up_levels[c] for p, c in T.shape_edges(up.shape)):
        return "up-tree levels must increase away from root"
    if any(down_levels[p] <= down_levels[c] for p, c in T.shape_edges(down.shape)):
        return "down-tree levels must decrease away from root"
    return None


def zone_function_error(up, down, up_zones, down_zones):
    """The message ZonePair(up, down, up_zones, down_zones) raises,
    found by walking every edge of both trees, or None when the zone
    pair is valid."""
    if up.orientation != "up" or down.orientation != "down":
        return "pair needs an up tree and a down tree"
    uz, dz = up_zones, down_zones
    if len(uz) != len(up.vertices()) or len(dz) != len(down.vertices()):
        return "zone tuple length mismatch"
    uset, dset = set(uz), set(dz)
    zones = uset | dset
    l = max(zones, default=0)
    if zones != set(range(1, l + 1)):
        return "zones must be exactly 1..l with no gaps"
    barriers = uset & dset
    for a, b in ((uz[p], uz[c]) for p, c in T.shape_edges(up.shape)):
        if a > b:
            return "up-tree zones must not decrease downward"
        if a == b and a in barriers:
            return "comparable vertices share a barrier"
    for a, b in ((dz[p], dz[c]) for p, c in T.shape_edges(down.shape)):
        if a < b:
            return "down-tree zones must not increase upward"
        if a == b and a in barriers:
            return "comparable vertices share a barrier"
    t = Z._kinds(uz, dz, l)
    if "UU" in t or "DD" in t:
        return "adjacent zones of the same type"
    return None
