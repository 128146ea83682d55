"""Generic finite poset services.

A FinitePoset stores an ordered tuple of opaque canonical string keys
together with the order as up-sets: up[i] is the frozenset of indices j
with e_i <= e_j, i included.  The producers emit the order this way, so
nothing of size N x N is built.  Construction validates the relation in
one pass of set operations: with `above` the union of up[k] - {k} over
the k in up[i] - {i}, the relation is transitive iff `above` lies inside
up[i] for every i, and the covers of i are up[i] - above - {i}.  The
covers are stored; ranks are a longest-chain pass over them.

Isomorphisms are checked through explicit maps with is_isomorphism;
the generic search `isomorphic` is a reference only the tests call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


class PosetError(ValueError):
    pass


@dataclass(frozen=True)
class FinitePoset:
    """up[i]: the indices j with elements[i] <= elements[j], i included."""

    elements: tuple
    up: tuple = field(compare=False)
    _index: dict = field(init=False, repr=False, compare=False)
    _covers: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.elements)
        index = {key: i for i, key in enumerate(self.elements)}
        if len(index) != n:
            raise PosetError("duplicate element keys")
        if len(self.up) != n:
            raise PosetError("up-set count mismatch")
        up = tuple(map(frozenset, self.up))
        # exact int type: a dense boolean row would read as the set {0, 1}
        valid = frozenset(range(n))
        if not all(u <= valid and all(type(j) is int for j in u) for u in up):
            raise PosetError("up-set entry is not an element index")
        if not all(i in u for i, u in enumerate(up)):
            raise PosetError("relation is not reflexive")
        if any(i in up[k] for i, u in enumerate(up) for k in u if k != i):
            raise PosetError("relation is not antisymmetric")
        covers = []
        for i, u in enumerate(up):
            above = set().union(*(up[k] - {k} for k in u if k != i))
            if not above <= u:
                raise PosetError("relation is not transitive")
            covers.append(tuple(sorted(u - above - {i})))
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_covers", tuple(covers))

    def __len__(self):
        return len(self.elements)

    def index(self, key) -> int:
        return self._index[key]

    def le(self, a, b) -> bool:
        return self.index(b) in self.up[self.index(a)]

    def covers(self):
        """Cover pairs (i, j) of element indices with e_i covered by e_j,
        in row-major order."""
        return [(i, j) for i, row in enumerate(self._covers) for j in row]

    def ranks(self):
        """Longest-chain rank of every element (minimal elements get 0)."""
        rank = [0] * len(self)
        # e_i < e_j makes up[j] a proper subset of up[i], so decreasing
        # up-set size is a linear extension
        for i in sorted(range(len(self)), key=lambda i: -len(self.up[i])):
            r = rank[i] + 1
            for j in self._covers[i]:
                if rank[j] < r:
                    rank[j] = r
        return rank

    def fvector(self):
        rank = self.ranks()
        if not rank:
            return ()
        counts = [0] * (max(rank) + 1)
        for r in rank:
            counts[r] += 1
        return tuple(counts)

    def is_graded(self) -> bool:
        rank = self.ranks()
        return all(rank[j] == rank[i] + 1 for i, j in self.covers())

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


def is_isomorphism(p: FinitePoset, q: FinitePoset, f: dict) -> bool:
    """True iff the key map f is a bijection from p.elements onto
    q.elements carrying the covers of p exactly onto those of q, that
    is, an order isomorphism.  A key missing from f, or sent outside q,
    gives False."""
    if len(f) != len(p) or len(p) != len(q):
        return False
    try:
        image = [q.index(f[key]) for key in p.elements]
    except (KeyError, TypeError):  # TypeError: an unhashable image
        return False
    if len(set(image)) != len(q):
        return False
    return {(image[i], image[j]) for i, j in p.covers()} == set(q.covers())


def _signatures(p: FinitePoset):
    """Iteratively refined invariants pruning the reference search
    `isomorphic`; only the tests call it."""
    n = len(p)
    strict_up = [u - {i} for i, u in enumerate(p.up)]
    strict_down = [[] for _ in range(n)]
    for i, u in enumerate(strict_up):
        for j in u:
            strict_down[j].append(i)
    rank = p.ranks()
    sig = [(rank[i], len(strict_up[i]), len(strict_down[i])) for i in range(n)]
    for _ in range(3):
        codes = {s: c for c, s in enumerate(sorted(set(sig)))}
        coded = [codes[s] for s in sig]
        sig = [
            (
                sig[i],
                tuple(sorted(coded[j] for j in strict_up[i])),
                tuple(sorted(coded[j] for j in strict_down[i])),
            )
            for i in range(n)
        ]
    return sig


def isomorphic(p: FinitePoset, q: FinitePoset):
    """An order-preserving bijection p -> q as a key dict, or None.

    A generic backtracking search, kept as the reference that the tests
    compare the explicit maps with; no production code calls it."""
    n = len(p)
    if n != len(q):
        return None
    sp, sq = _signatures(p), _signatures(q)
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
        # (image, below, above) per element d already assigned
        done = [(match[d], i in p.up[d], d in p.up[i]) for d in order[:k]]
        for t in range(tried[k], len(candidates[i])):
            j = candidates[i][t]
            if not used[j] and all(
                (j in q.up[e]) == below and (e in q.up[j]) == above
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
