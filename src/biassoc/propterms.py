"""Free-PROP term calculus.

Terms are acyclic port-graphs over generators ``x[b,a]`` (b outputs,
a inputs, (a,b) != (1,1)) with m ordered global input legs and n
ordered global output legs.  A term stores, for every sink (a vertex
input port or a global output leg), its unique source (a vertex output
port or a global input leg); permutations act by rewiring only and the
unit is a bare leg-to-leg wire, so composites normalize eagerly.

The module provides vertical/horizontal composition, the
block-interleaving permutations sigma(l, k), fractions, the embeddings
of plain trees, the map from complementary pairs to terms, a canonical
form giving decidable term equality (and its exact compact code), and
the partition comparison between terms and zone pairs, made one tree
pair at a time.

Generators and the unit are validated when they are built.  Composites
of valid terms (``vcompose``, ``hcompose``, ``permute_outputs`` and so
``fraction``) are valid by construction: they check only their arities
and permutations and skip the full validation.  ``varpi`` validates
its result once, so every term it returns is fully checked.  The
validation takes a storage order in which every wire between vertices
runs to a later vertex, as composites keep it, as its certificate of
acyclicity, and runs Kahn's pass on any other order.  A validated term
keeps, per source port, the vertex that reads it, and ``canonical``
reads that instead of scanning the wires again.

A pair whose down root lies below its up root maps to a fraction.  Its
pieces are cut from the pair at the down root's level: the part of the
up tree above that level paired with each branch of the down tree, and
each subtree hanging below it paired with the down root's corolla.

Many pairs share their pieces, so the pieces' expressions, their
terms and the parts of fractions are memoized for the life of the
process; each cached function names what it holds and how many entries
``theorem_c_witness(5, 5)`` leaves.  By tracemalloc they then hold 135
MB, 11 MB of it in the up cuts and sides, the down branches and the
lower halves.  The numerators of a fraction and a pair's expression,
term and code are not cached; Theorem C codes each distinct expression
of one tree pair once.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from itertools import islice
from operator import le

from .leveled import ComplementaryPair, pair_groups, pair_key
from .trees import LEAF, PlanarTree, shape_vertices, subshape

# sources are ("g", i) for global input leg i, or ("v", vi, port)


@dataclass(frozen=True)
class PropTerm:
    m: int  # global inputs
    n: int  # global outputs
    verts: tuple  # (b, a) per vertex
    ins: tuple  # per vertex, tuple of a sources
    outs: tuple  # per global output leg, its source

    def __post_init__(self):
        verts, ins, outs = self.verts, self.ins, self.outs
        nv = len(verts)
        if len(outs) != self.n or len(ins) != nv:
            raise ValueError("malformed term")
        # every source port in order, the global input legs and then each
        # vertex's output ports (vertex vi's from starts[vi]) and per
        # port its vertex; every sink's source, and the vertex reading it
        # (nv for a global output leg)
        ports = [("g", i) for i in range(self.m)]
        starts, owners = [], []
        sources, readers = list(outs), [nv] * len(outs)
        for vi, (b, a), srcs in zip(range(nv), verts, ins):
            if a < 1 or b < 1 or (a, b) == (1, 1):
                raise ValueError("invalid generator biarity (%d,%d)" % (b, a))
            if len(srcs) != a:
                raise ValueError("input port count mismatch")
            starts.append(len(ports))
            ports += [("v", vi, p) for p in range(b)]
            owners += [vi] * b
            sources += srcs
            readers += [vi] * a
        reader = dict(zip(sources, readers))
        if len(reader) != len(sources):
            seen = set()
            for src in sources:
                if src in seen:
                    raise ValueError("source %r wired twice" % (src,))
                seen.add(src)
        # the sources are distinct, so every port is wired once iff the
        # sources are the ports
        if reader.keys() != set(ports):
            valid = set(ports)
            for src in reader:
                if src not in valid:
                    kind = "global input" if src[0] == "g" else "vertex output"
                    raise ValueError("bad %s %r" % (kind, src))
            raise ValueError("every output port and input leg must be wired once")
        consumer = [reader[p] for p in ports]
        # acyclicity: the storage order is topological when every wire
        # between vertices runs to a later vertex, as composites keep
        # it; else remove vertices whose inputs all come from removed
        # vertices or global legs (Kahn), and a cycle leaves some behind
        if any(map(le, consumer[self.m :], owners)):
            # per vertex, its inputs read from vertices (slot nv: the
            # output legs read from vertices, never freed)
            waiting = [0] * (nv + 1)
            for w in consumer[self.m :]:
                waiting[w] += 1
            free = [vi for vi in range(nv) if not waiting[vi]]
            for vi in free:  # grows while it is walked
                for w in consumer[starts[vi] : starts[vi] + verts[vi][0]]:
                    waiting[w] -= 1
                    if not waiting[w] and w < nv:
                        free.append(w)
            if len(free) != nv:
                raise ValueError("term graph has a cycle")
        # kept for canonical(); not a field, so ==, hash and repr ignore it
        object.__setattr__(self, "_consumer", (consumer, starts))

    @property
    def biarity(self):
        return (self.n, self.m)


def _trusted(m, n, verts, ins, outs) -> PropTerm:
    """A term assembled from valid terms by a validity-preserving
    operation, built without running the full validation."""
    t = object.__new__(PropTerm)
    t.__dict__.update(m=m, n=n, verts=verts, ins=ins, outs=outs)
    return t


def unit() -> PropTerm:
    """The unit e: one input leg wired straight to one output leg."""
    return PropTerm(1, 1, (), (), ((("g", 0)),))


def generator(b: int, a: int) -> PropTerm:
    """The generator x[b,a] with a inputs and b outputs."""
    return PropTerm(
        a,
        b,
        ((b, a),),
        ((tuple(("g", i) for i in range(a))),),
        tuple(("v", 0, j) for j in range(b)),
    )


def _rewired(t: PropTerm, voff: int, inputs) -> tuple:
    """t's input sources and output legs with vertex vi renumbered
    vi + voff and global input i read from inputs[i]."""

    def move(srcs):
        return tuple([inputs[s[1]] if s[0] == "g" else ("v", s[1] + voff, s[2])
                      for s in srcs])

    return tuple([move(srcs) for srcs in t.ins]), move(t.outs)


def vcompose(f: PropTerm, g: PropTerm) -> PropTerm:
    """f after g: g's outputs feed f's inputs positionally."""
    if f.m != g.n:
        raise ValueError(
            "inner arity mismatch: f has %d inputs, g has %d outputs" % (f.m, g.n)
        )
    ins, outs = _rewired(f, len(g.verts), g.outs)
    return _trusted(g.m, f.n, g.verts + f.verts, tuple(g.ins) + ins, outs)


def hcompose(f: PropTerm, g: PropTerm) -> PropTerm:
    """Side-by-side juxtaposition, f's legs first."""
    legs = [("g", i) for i in range(f.m, f.m + g.m)]
    ins, outs = _rewired(g, len(f.verts), legs)
    return _trusted(
        f.m + g.m, f.n + g.n, f.verts + g.verts,
        tuple(f.ins) + ins, tuple(f.outs) + outs,
    )


def hfold(terms) -> PropTerm:
    out = None
    for t in terms:
        out = t if out is None else hcompose(out, t)
    if out is None:
        raise ValueError("empty horizontal composite")
    return out


@dataclass(frozen=True)
class BlockPermutation:
    """The interleaving permutation of {1..kl} used by fractions."""

    l: int
    k: int

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.k * self.l:
            raise ValueError("argument out of range")
        s = (i - 1) // self.k + 1
        return self.l * (i - 1 - (s - 1) * self.k) + s

    def mapping(self) -> tuple:
        return tuple(self(i) for i in range(1, self.k * self.l + 1))


def sigma(l: int, k: int) -> BlockPermutation:
    if l < 1 or k < 1:
        raise ValueError("need k, l >= 1")
    return BlockPermutation(l, k)


def permute_outputs(t: PropTerm, perm) -> PropTerm:
    """Rewire so that old output strand i becomes new output perm(i)
    (1-based); permutations never appear as vertices."""
    images = [perm(i) for i in range(1, t.n + 1)]
    if sorted(images) != list(range(1, t.n + 1)):
        raise ValueError("not a permutation of the %d outputs" % t.n)
    new_outs = [None] * t.n
    for src, j in zip(t.outs, images):
        new_outs[j - 1] = src
    return _trusted(t.m, t.n, t.verts, t.ins, tuple(new_outs))


def fraction(bs, as_) -> PropTerm:
    """The fraction (B_1 x ... x B_k) o sigma(l,k) o (A_1 x ... x A_l).

    The k numerator terms each take l inputs, the l denominator terms
    each produce k outputs; the interleaving permutation routes output
    strand i of the juxtaposed denominators to input strand sigma(i)
    of the juxtaposed numerators.
    """
    bs = list(bs)
    as_ = list(as_)
    _check_numerators(bs, len(as_))
    return vcompose(hfold(bs), _lower_half(as_, len(bs)))


def _check_numerators(bs, l):
    """Each of the numerators bs of a fraction over l denominators
    takes l inputs, and neither side is empty."""
    if not bs or l < 1:
        raise ValueError("fraction needs at least one term on each side")
    for idx, b in enumerate(bs):
        if b.m != l:
            raise ValueError(
                "numerator %d has %d inputs, expected %d" % (idx + 1, b.m, l)
            )


def _lower_half(as_, k) -> PropTerm:
    """The lower half of a fraction with k numerators: the juxtaposed
    denominators as_, each with k outputs, output strand i sent to
    sigma(i)."""
    for idx, a in enumerate(as_):
        if a.n != k:
            raise ValueError(
                "denominator %d has %d outputs, expected %d" % (idx + 1, a.n, k)
            )
    return permute_outputs(hfold(as_), sigma(len(as_), k))


# ---------------------------------------------------------------------------
# canonical form and equality


def _canonical_order(t: PropTerm) -> dict:
    """The canonical index of each vertex, in canonical order.

    Every component of the graph touches a global leg, and per-vertex
    ports are ordered, so a breadth-first sweep anchored at the ordered
    legs assigns each vertex a forced canonical index; no search over
    automorphisms is needed.
    """
    wiring = t.__dict__.get("_consumer")
    if wiring is None:  # a composite built without validation
        wiring = PropTerm(t.m, t.n, t.verts, t.ins, t.outs)._consumer
    consumer, starts = wiring
    ins, verts = t.ins, t.verts
    nv = len(verts)
    order = {}
    queue = [w for w in consumer[: t.m] if w < nv]
    queue += [src[1] for src in t.outs if src[0] == "v"]
    for vi in queue:  # grows while it is walked
        if vi in order:
            continue
        order[vi] = len(order)
        queue += [src[1] for src in ins[vi] if src[0] == "v"]
        queue += [w for w in consumer[starts[vi] : starts[vi] + verts[vi][0]] if w < nv]
    if len(order) != nv:
        raise AssertionError("disconnected vertex not anchored to any leg")
    return order


def canonical(t: PropTerm) -> tuple:
    """Canonical certificate of a term: its vertices renumbered in
    canonical order."""
    order = _canonical_order(t)

    def src_key(src):
        if src[0] == "g":
            return src
        return ("v", order[src[1]], src[2])

    # the order dict lists the vertices in canonical order
    verts = tuple(t.verts[vi] for vi in order)
    ins = tuple(tuple(src_key(s) for s in t.ins[vi]) for vi in order)
    outs = tuple(src_key(s) for s in t.outs)
    return (t.m, t.n, verts, ins, outs)


def term_code(t: PropTerm) -> bytes:
    """An exact compact code of canonical(t): two terms have equal
    codes iff they have equal canonical forms.

    The code lists m, n, the vertex count, each vertex's (b, a) and
    then each input port's and output leg's source, a global leg i as
    (0, i) and a vertex port as (canonical index + 1, port); these
    counts fix where each part ends.  It is one byte per value, or,
    when a value is 255 or more, the byte 255 and the values in
    decimal, comma-separated.
    """
    order = _canonical_order(t)
    values = [t.m, t.n, len(order)]
    for vi in order:
        values += t.verts[vi]
    for srcs in [t.ins[vi] for vi in order] + [t.outs]:
        for src in srcs:
            values += (0, src[1]) if src[0] == "g" else (order[src[1]] + 1, src[2])
    if max(values) < 255:
        return bytes(values)
    return b"\xff" + ",".join(map(str, values)).encode()


def term_eq(t1: PropTerm, t2: PropTerm) -> bool:
    if (t1.m, t1.n) != (t2.m, t2.n):
        return False
    return canonical(t1) == canonical(t2)


def term_key(t: PropTerm) -> str:
    return repr(canonical(t))


def is_special(t: PropTerm) -> bool:
    """True iff every vertex-to-vertex wire leaves a single-output
    generator or enters a single-input generator."""
    for vi, srcs in enumerate(t.ins):
        for src in srcs:
            if src[0] == "v":
                producer_b = t.verts[src[1]][0]
                consumer_a = t.verts[vi][1]
                if producer_b != 1 and consumer_a != 1:
                    return False
    return True


# ---------------------------------------------------------------------------
# expression layer (printable construction trees)


@dataclass(frozen=True)
class Expr:
    op: str  # 'gen', 'unit', 'v', 'h', 'frac'
    args: tuple = ()
    biarity: tuple = ()  # (b, a) for generators

    def __hash__(self) -> int:
        """The field hash, computed once: a cache lookup on a deep
        expression then hashes no sub-expression again."""
        try:
            return self._hash
        except AttributeError:
            h = hash((self.op, self.args, self.biarity))
            object.__setattr__(self, "_hash", h)
            return h

    def to_term(self) -> PropTerm:
        """The denoted term; the terms of sub-expressions are memoized."""
        if self.op == "gen":
            return generator(*self.biarity)
        if self.op == "unit":
            return unit()
        if self.op == "v":
            out = _term(self.args[0])
            for e in self.args[1:]:
                out = vcompose(out, _term(e))
            return out
        if self.op == "h":
            return hfold(_term(e) for e in self.args)
        if self.op == "frac":
            # fraction, with the lower half looked up by its denominators
            nums, dens = self.args
            bs = [_term(e) for e in nums]
            _check_numerators(bs, len(dens))
            return vcompose(hfold(bs), _lower(dens, len(bs)))
        raise ValueError(self.op)

    def is_identity(self) -> bool:
        if self.op == "unit":
            return True
        if self.op == "h":
            return all(e.is_identity() for e in self.args)
        return False

    def simplify(self) -> "Expr":
        """Collapse unit wires and singleton composites (display only;
        the denoted term is unchanged)."""
        if self.op in ("gen", "unit"):
            return self
        if self.op == "frac":
            nums, dens = self.args
            return Expr(
                "frac",
                (
                    tuple(e.simplify() for e in nums),
                    tuple(e.simplify() for e in dens),
                ),
            )
        args = [e.simplify() for e in self.args]
        if self.op == "v":
            args = [e for e in args if not e.is_identity()] or args[:1]
            flat = []
            for e in args:
                flat.extend(e.args if e.op == "v" else [e])
            return flat[0] if len(flat) == 1 else Expr("v", tuple(flat))
        flat = []
        for e in args:
            flat.extend(e.args if e.op == "h" else [e])
        return flat[0] if len(flat) == 1 else Expr("h", tuple(flat))

    def text(self) -> str:
        if self.op == "gen":
            return "x[%d,%d]" % self.biarity
        if self.op == "unit":
            return "e"
        if self.op == "v":
            return "V(%s)" % ",".join(e.text() for e in self.args)
        if self.op == "h":
            return "H(%s)" % ",".join(e.text() for e in self.args)
        if self.op == "frac":
            nums, dens = self.args
            return "F{ %s / %s }" % (
                " ".join(e.text() for e in nums),
                " ".join(e.text() for e in dens),
            )
        raise ValueError(self.op)


@cache
def _term(e: Expr) -> PropTerm:
    """The term of e (45,719 entries after theorem_c_witness(5, 5))."""
    return e.to_term()


@cache
def _lower(dens: tuple, k: int) -> PropTerm:
    """The lower half of a fraction with k numerators over the
    denominator expressions dens; fractions share their denominators
    (515 entries after theorem_c_witness(5, 5))."""
    return _lower_half([_term(e) for e in dens], k)


def egen(b, a):
    return Expr("gen", biarity=(b, a))


def eunit():
    return Expr("unit")


def ev(*args):
    return Expr("v", tuple(args))


def eh(*args):
    return Expr("h", tuple(args))


def efrac(nums, dens):
    return Expr("frac", (tuple(nums), tuple(dens)))


# ---------------------------------------------------------------------------
# tree embeddings and the map from pairs to terms


@cache
def _iota_up_expr(shape) -> Expr:
    """Operadic embedding of an up tree: vertices become x[1,a] (61
    shapes after theorem_c_witness(5, 5))."""
    if shape == LEAF:
        return eunit()
    a = len(shape)
    children = [_iota_up_expr(c) for c in shape]
    return ev(egen(1, a), eh(*children))


@cache
def _iota_down_expr(shape) -> Expr:
    """Co-operadic embedding of a down tree: vertices become x[a,1] (61
    shapes after theorem_c_witness(5, 5))."""
    if shape == LEAF:
        return eunit()
    a = len(shape)
    children = [_iota_down_expr(c) for c in shape]
    return ev(eh(*children), egen(a, 1))


def iota_embed(t: PlanarTree) -> PropTerm:
    """Embed a plain tree as a term; up trees map their vertices to
    single-output generators, down trees to single-input ones."""
    iota = _iota_up_expr if t.orientation == "up" else _iota_down_expr
    return iota(t.shape).to_term()


def varpi_expr(up, down, up_levels, down_levels) -> Expr:
    """Expression form of the term of the complementary pair with the
    given parts.

    Dispatch on the relative height of the two root vertices (levels
    count from the top, the up tree's root is its highest vertex and
    the down tree's root its lowest):

    * D exceptional: the up tree embeds operadically (both exceptional
      gives the unit); U exceptional dually.
    * D's root strictly above U's root: all of D is above all of U and
      the term is the vertical composite.
    * roots level-equal: both roots fuse into one generator x[b,a]
      framed by the embedded branch forests.
    * D's root strictly below U's root: the fraction of the pieces cut
      at D's root level -- numerators pair the top part of U (the
      vertices above that level) with each branch of D, denominators
      pair each subtree hanging off the top part with D's root
      corolla.
    """
    if down == LEAF:
        return _iota_up_expr(up)
    if up == LEAF:
        return _iota_down_expr(down)
    root_u, root_d = up_levels[0], down_levels[0]
    if root_d < root_u:
        return ev(_iota_down_expr(down), _iota_up_expr(up))
    if root_d == root_u:
        ups = [_iota_up_expr(c) for c in up]
        downs = [_iota_down_expr(c) for c in down]
        return ev(eh(*downs), egen(len(down), len(up)), eh(*ups))
    # D's root hangs below U's root: cut U at D's root level
    top, top_levels, dens = _up_side(up, up_levels, root_d, len(down))
    nums = [_piece(top, branch, top_levels, levels)
            for branch, levels in _down_branches(down, down_levels)]
    return efrac(nums, dens)


@cache
def _up_side(shape, levels, root_d, k) -> tuple:
    """The up side of a fraction whose down root, at level root_d, has
    k branches: the top piece of _up_cut, its levels, and the
    denominators, which pair each subtree hanging off it with the down
    root's corolla (15,126 entries after theorem_c_witness(5, 5))."""
    top, top_levels, hanging = _up_cut(shape, levels, root_d)
    corolla = (LEAF,) * k
    dens = tuple(_piece(sub, corolla, levels, (root_d,)) for sub, levels in hanging)
    return top, top_levels, dens


@cache
def _up_cut(shape, levels, root_d) -> tuple:
    """The cut of an up tree at level root_d: the part above root_d
    (its shape and levels) and each subtree hanging off that part (its
    shape and levels), from left to right (8,930 entries after
    theorem_c_witness(5, 5))."""
    top, top_levels, hanging = _cut(shape, levels, (), lambda lvl: lvl < root_d)
    return top, top_levels, tuple(_cut(shape, levels, p)[:2] for p in hanging)


@cache
def _down_branches(shape, levels) -> tuple:
    """Per branch of a down tree's root, the branch's shape and levels
    (3,496 entries after theorem_c_witness(5, 5))."""
    return tuple(_cut(shape, levels, (j,))[:2] for j in range(len(shape)))


def _cut(shape, levels, path, keep=lambda lvl: True):
    """The piece of a tree that grows down from the vertex at `path`
    through the vertices whose level passes `keep`.

    `levels` holds one level per vertex of `shape` in path order.
    Returns the piece's shape, its levels in path order, and the paths
    cut off it (vertices failing `keep`, and leaves) from left to right.
    """
    piece_levels = []
    cut_off = []
    # path order is sorted order, and a subtree's vertices are consecutive
    pos = bisect_left(shape_vertices(shape), path)

    def walk(sub, p):
        nonlocal pos
        if sub == LEAF or not keep(levels[pos]):
            cut_off.append(p)
            pos += len(shape_vertices(sub))
            return LEAF
        piece_levels.append(levels[pos])
        pos += 1
        return tuple(walk(c, p + (i,)) for i, c in enumerate(sub))

    return walk(subshape(shape, path), path), tuple(piece_levels), cut_off


def _piece(up, down, up_levels, down_levels) -> Expr:
    """varpi_expr of the pair of two cut pieces, its levels renumbered
    without gaps."""
    renum = {lvl: i for i, lvl in enumerate(sorted({*up_levels, *down_levels}), 1)}
    return _piece_expr(up, down, *(tuple(map(renum.get, t)) for t in (up_levels, down_levels)))


@cache
def _piece_expr(up, down, up_levels, down_levels) -> Expr:
    """varpi_expr of the pair of two renumbered cut pieces, which recur
    across pairs (58,666 entries after theorem_c_witness(5, 5))."""
    return varpi_expr(up, down, up_levels, down_levels)


def varpi(x: ComplementaryPair) -> PropTerm:
    """The term of a pair, fully validated."""
    return _validated(varpi_expr(*x.parts))


def _validated(e: Expr) -> PropTerm:
    """The term of e, rebuilt through the full validation."""
    t = e.to_term()
    return PropTerm(t.m, t.n, t.verts, t.ins, t.outs)


def _term_codes(up, down, levels):
    """Per level tuple of `levels` on the shapes up and down, one at a
    time, the term_code of its pair's validated term.  Equal expressions
    denote equal terms, so the pairs of one tree pair with equal
    expressions share one validated term and its code."""
    codes = {}  # per distinct expression of this tree pair, its code
    for v in levels:
        e = varpi_expr(up, down, *v)
        code = codes.get(e)
        if code is None:
            code = codes[e] = term_code(_validated(e))
        yield code


# ---------------------------------------------------------------------------
# Theorem C style comparison


def theorem_c_check(m: int, n: int) -> bool:
    """The term of a pair determines, and is determined by, its zone
    projection: the two induced partitions of the pairs coincide."""
    return theorem_c_witness(m, n)[1] is None


def theorem_c_witness(m: int, n: int) -> tuple:
    """(classes, witness) for the (m, n) pairs, walked one tree pair at
    a time: the number of zone classes met, and None when the term and
    zone partitions coincide, else a counterexample (key1, key2, shared):
    two pair keys whose terms are equal and zones differ (shared ==
    "term"), or whose zones are equal and terms differ (shared ==
    "zone").  A witness ends the walk, so `classes` then counts only the
    tree pairs walked."""
    from .zones import zone_group

    # the partitions coincide iff term code <-> zone class is a bijection.
    # A zone class lies in one tree pair, so by_zone is kept per tree
    # pair; by_term spans them all and holds numbers, not pairs: pair i
    # in key order, zone class z in key order
    by_term = {}
    i = classes = 0
    for up, down, levels in pair_groups(m, n):
        found, numbers = zone_group(up, down, levels)
        base, classes = classes, classes + len(found)
        by_zone = {}
        for v, t, k in zip(levels, _term_codes(up, down, levels), numbers, strict=True):
            z = base + k
            i1, z1 = by_term.setdefault(t, (i, z))
            if z1 != z:
                return classes, (_pair_key(m, n, i1), pair_key(up, down, *v), "term")
            i1, t1 = by_zone.setdefault(z, (i, t))
            if t1 != t:
                return classes, (_pair_key(m, n, i1), pair_key(up, down, *v), "zone")
            i += 1
    return classes, None


def _pair_key(m: int, n: int, i: int) -> str:
    """The key of the i-th (m, n) pair in key order."""
    keys = (pair_key(u, d, *v) for u, d, levels in pair_groups(m, n) for v in levels)
    return next(islice(keys, i, None))
