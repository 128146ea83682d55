"""Generic finite poset services.

A FinitePoset stores an ordered tuple of opaque canonical string keys
together with a boolean leq matrix; the matrix is validated to be
reflexive, antisymmetric and transitive on construction.  Validation
and covers work row by row on up-sets, with no N x N matrix product:
the relation is transitive iff the up-sets of the elements above x lie
inside the up-set of x, and y covers x iff no third element of the
up-set of x lies below y.  With P comparable pairs this costs O(P N)
and O(sum of squared up-set sizes) instead of O(N^3).

Isomorphisms are checked through explicit maps with is_isomorphism;
the generic search `isomorphic` is a reference only the tests call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


class PosetError(ValueError):
    pass


@dataclass(frozen=True)
class FinitePoset:
    elements: tuple
    leq: np.ndarray = field(compare=False)
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.elements)
        index = {key: i for i, key in enumerate(self.elements)}
        if len(index) != n:
            raise PosetError("duplicate element keys")
        m = np.asarray(self.leq, dtype=bool)
        if m.shape != (n, n):
            raise PosetError("leq matrix shape mismatch")
        if not m.diagonal().all():
            raise PosetError("relation is not reflexive")
        if any(m[np.flatnonzero(m[i]), i].sum() != 1 for i in range(n)):
            raise PosetError("relation is not antisymmetric")
        # row i of (m @ m) & ~m, without the N x N product
        if any((m[np.flatnonzero(m[i])].any(axis=0) & ~m[i]).any() for i in range(n)):
            raise PosetError("relation is not transitive")
        object.__setattr__(self, "leq", m)
        object.__setattr__(self, "_index", index)

    def __len__(self):
        return len(self.elements)

    def index(self, key) -> int:
        return self._index[key]

    def le(self, a, b) -> bool:
        return bool(self.leq[self.index(a), self.index(b)])

    def covers(self):
        """Cover pairs (i, j) of element indices with e_i covered by e_j,
        in row-major order."""
        out = []
        for i in range(len(self)):
            up = np.flatnonzero(self.leq[i])
            # j in up covers i iff [i, j] = {i, j}
            between = self.leq[np.ix_(up, up)].sum(axis=0)
            out.extend((i, int(j)) for j in up[between == 2])
        return out

    def ranks(self):
        """Longest-chain rank of every element (minimal elements get 0)."""
        n = len(self)
        strict = self.leq & ~np.eye(n, dtype=bool)
        rank = [0] * n
        order = sorted(range(n), key=lambda i: int(strict[:, i].sum()))
        for i in order:
            below = np.nonzero(strict[:, i])[0]
            rank[i] = 1 + max((rank[int(j)] for j in below), default=-1)
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
    strict = p.leq & ~np.eye(n, dtype=bool)
    rank = p.ranks()
    up = strict.sum(axis=1)
    down = strict.sum(axis=0)
    sig = [(rank[i], int(up[i]), int(down[i])) for i in range(n)]
    for _ in range(3):
        codes = {s: c for c, s in enumerate(sorted(set(sig)))}
        coded = [codes[s] for s in sig]
        sig = [
            (
                sig[i],
                tuple(sorted(coded[j] for j in np.nonzero(strict[i])[0])),
                tuple(sorted(coded[j] for j in np.nonzero(strict[:, i])[0])),
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
    order = np.array(
        sorted(range(n), key=lambda i: len(candidates[i])), dtype=np.intp
    )
    match = np.full(n, -1)
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
        done = order[:k]
        below, above, image = p.leq[done, i], p.leq[i, done], match[done]
        for t in range(tried[k], len(candidates[i])):
            j = candidates[i][t]
            if (
                not used[j]
                and (q.leq[image, j] == below).all()
                and (q.leq[j, image] == above).all()
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
