"""Generic finite posets.

A FinitePoset is an ordered tuple of opaque canonical string keys and a
relation: index pairs (i, j) read as e_i <= e_j, whose reflexive-
transitive closure is the order.  The families pass their one-step
moves, so nothing the size of the whole order is built.  Construction
ranks the elements by longest chains in one Kahn pass, which rejects a
cycle, and keeps as covers the edges that raise the rank by exactly 1
and the other edges with no detour (no longer path to their head).
Only the covers and the ranks are stored; gradedness is not assumed.

Isomorphisms are checked through explicit maps with is_isomorphism,
row by row, and isomorphism_failure names the first way a map fails;
the generic search `isomorphic` is a reference only the tests call.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass, field


class PosetError(ValueError):
    pass


@dataclass(frozen=True)
class FinitePoset:
    """relation: index pairs (i, j) with elements[i] <= elements[j].
    == and hash see the elements and the covers, which fix the ranks."""

    elements: tuple
    relation: InitVar[object]
    _index: dict = field(init=False, repr=False, compare=False)
    _covers: tuple = field(init=False, repr=False)
    _ranks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self, relation):
        n = len(self.elements)
        index = {key: i for i, key in enumerate(self.elements)}
        if len(index) != n:
            raise PosetError("duplicate element keys")
        succ = [[] for _ in range(n)]
        indegree = [0] * n
        for i, j in relation:
            # exact int type: a bool or a float is not an index
            if not (type(i) is int and type(j) is int and 0 <= i < n and 0 <= j < n):
                raise PosetError("relation entry is not an element index")
            if i != j:
                succ[i].append(j)
                indegree[j] += 1
        rank = [0] * n
        ready = [i for i in range(n) if not indegree[i]]
        for i in ready:  # Kahn's pass; `ready` grows while it is read
            r = rank[i] + 1
            for j in succ[i]:
                if rank[j] < r:
                    rank[j] = r
                indegree[j] -= 1
                if not indegree[j]:
                    ready.append(j)
        if len(ready) != n:
            raise PosetError("relation is not antisymmetric")
        covers = tuple(
            tuple(sorted({
                j for j in row
                if rank[j] == rank[i] + 1 or not _has_detour(succ, rank, i, j)
            }))
            for i, row in enumerate(succ)
        )
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_covers", covers)
        object.__setattr__(self, "_ranks", tuple(rank))

    def __len__(self):
        return len(self.elements)

    def index(self, key) -> int:
        return self._index[key]

    def covers(self):
        """Cover pairs (i, j) of element indices with e_i covered by e_j,
        in row-major order."""
        return [(i, j) for i, row in enumerate(self._covers) for j in row]

    def ranks(self):
        """Longest-chain rank of every element (minimal elements get 0)."""
        return list(self._ranks)

    def fvector(self):
        rank = self.ranks()
        if not rank:
            return ()
        counts = [0] * (max(rank) + 1)
        for r in rank:
            counts[r] += 1
        return tuple(counts)

    def grading_failure(self):
        """None if every cover raises the rank by 1, else the first one
        in row-major order that does not, as text."""
        rank = self._ranks
        for i, row in enumerate(self._covers):
            for j in row:
                if rank[j] != rank[i] + 1:
                    return "%s < %s is a cover but raises the rank by %d" % (
                        self.elements[i], self.elements[j], rank[j] - rank[i])
        return None

    def is_graded(self) -> bool:
        return self.grading_failure() is None

    def euler(self) -> int:
        if not self.is_graded():
            raise PosetError("poset is not graded")
        return sum((-1) ** r * f for r, f in enumerate(self.fvector()))

    def dot(self) -> str:
        rank = self.ranks()
        lines = ["digraph hasse {", "  rankdir=BT;"]
        by_rank = {}
        for i, r in enumerate(rank):
            by_rank.setdefault(r, []).append(i)
        for i, key in enumerate(self.elements):
            lines.append('  n%d [label="%s"];' % (i, key.replace('"', '\\"')))
        for r in sorted(by_rank):
            lines.append(
                "  { rank=same; %s }" % " ".join("n%d;" % i for i in by_rank[r])
            )
        for i, j in self.covers():
            lines.append("  n%d -> n%d;" % (i, j))
        lines.append("}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {"elements": list(self.elements), "covers": self.covers()}
        )


def _has_detour(succ, rank, i, j) -> bool:
    """True iff a path of two or more steps leads from i to j; all its
    inner elements rank below j."""
    seen = {k for k in succ[i] if k != j and rank[k] < rank[j]}
    stack = list(seen)
    while stack:
        k = stack.pop()
        if j in succ[k]:
            return True
        new = {l for l in succ[k] if rank[l] < rank[j]} - seen
        seen |= new
        stack.extend(new)
    return False


def is_isomorphism(p: FinitePoset, q: FinitePoset, f: dict) -> bool:
    """True iff the key map f is a bijection from p.elements onto
    q.elements carrying the covers of p exactly onto those of q, that
    is, an order isomorphism.  A key missing from f, or sent outside q,
    gives False."""
    return isomorphism_failure(p, q, f) is None


def isomorphism_failure(p: FinitePoset, q: FinitePoset, f: dict):
    """None when is_isomorphism(p, q, f) holds, else a message naming
    the first way it fails: a key of p with no image in q, two keys
    with one image, a key of f outside p, an element of q with no
    preimage, or the first element of p whose covers f does not carry
    exactly onto the covers of its image, with one cover whose image
    (or, in q, whose preimage) is not a cover.

    Once f is a bijection, the covers match iff for every i the images
    of row i of p's covers, sorted, are the row of image[i] in q, so
    no set of cover pairs is built."""
    image = []
    source = [None] * len(q)
    for key in p.elements:
        if key not in f:
            return "%s has no image" % (key,)
        try:
            j = q.index(f[key])
        except (KeyError, TypeError):  # TypeError: an unhashable image
            return "%s maps to %r, which is not in the target" % (key, f[key])
        if source[j] is not None:
            return "%s and %s both map to %s" % (source[j], key, q.elements[j])
        source[j] = key
        image.append(j)
    if len(f) != len(p):
        extra = next(k for k in f if k not in p._index)
        return "%r is mapped, but is not in the source" % (extra,)
    if len(p) != len(q):
        return "%s has no preimage" % q.elements[source.index(None)]
    for i, row in enumerate(p._covers):
        k = image[i]
        mapped = sorted([image[j] for j in row])
        if tuple(mapped) != q._covers[k]:
            # the least image of a cover of i, or cover of k, that the
            # other side lacks
            t = min(set(mapped).symmetric_difference(q._covers[k]))
            a = p.elements[i], p.elements[image.index(t)]
            b = q.elements[k], q.elements[t]
            if t in mapped:
                return "%s < %s is a cover, but its image %s < %s is not" % (a + b)
            return "%s < %s is a cover, but its preimage %s < %s is not" % (b + a)
    return None


def _signatures(p: FinitePoset):
    """Iteratively refined invariants pruning the reference search
    `isomorphic`, and per element the sets of the elements covering it
    and of those it covers; only the tests call it."""
    n = len(p)
    up = [set(row) for row in p._covers]
    down = [set() for _ in range(n)]
    for i, j in p.covers():
        down[j].add(i)
    rank = p.ranks()
    sig = [(rank[i], len(up[i]), len(down[i])) for i in range(n)]
    for _ in range(3):
        codes = {s: c for c, s in enumerate(sorted(set(sig)))}
        coded = [codes[s] for s in sig]
        sig = [
            (
                sig[i],
                tuple(sorted(coded[j] for j in up[i])),
                tuple(sorted(coded[j] for j in down[i])),
            )
            for i in range(n)
        ]
    return sig, up, down


def isomorphic(p: FinitePoset, q: FinitePoset):
    """An order-preserving bijection p -> q as a key dict, or None.

    A generic backtracking search, kept as the reference that the tests
    compare the explicit maps with; no production code calls it.  It
    matches covers both ways, which makes the bijection an isomorphism
    of the orders they generate."""
    n = len(p)
    if n != len(q):
        return None
    (sp, pup, pdown), (sq, qup, qdown) = _signatures(p), _signatures(q)
    if sorted(sp) != sorted(sq):
        return None
    candidates = [
        [j for j in range(n) if sq[j] == sp[i]] for i in range(n)
    ]
    order = sorted(range(n), key=lambda i: len(candidates[i]))
    match = [-1] * n
    used = [False] * n
    # Depth-first search with an explicit stack: level k assigns element
    # order[k], and tried[k] is how many of its candidates were tried.
    tried = [0] * n
    k = 0
    while 0 <= k < n:
        i = order[k]
        if match[i] >= 0:
            used[match[i]] = False
            match[i] = -1
        # (image, d below i, d above i) per element d already assigned
        done = [(match[d], d in pdown[i], d in pup[i]) for d in order[:k]]
        for t in range(tried[k], len(candidates[i])):
            j = candidates[i][t]
            if not used[j] and all(
                (e in qdown[j]) == below and (e in qup[j]) == above
                for e, below, above in done
            ):
                match[i] = j
                used[j] = True
                tried[k] = t + 1
                k += 1
                break
        else:
            tried[k] = 0
            k -= 1
    if k < 0:
        return None
    witness = {p.elements[i]: q.elements[match[i]] for i in range(n)}
    assert is_isomorphism(p, q, witness)
    return witness
