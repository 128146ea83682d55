"""Workloads of the biassoc CLI benchmark and the expected answer of
every op they run.

A workload is a tuple of op slots.  Each slot fixes a verb and a size
class; the seed picks the (m, n) split inside the class and the order
of the ops.  A size class is a split and its mirror (n, m): the two
have the same number of faces and cost about the same, so every seed
does the same work on a differently shaped input and seeds do not
widen the spread.  Other splits of the same m + n differ in cost by up
to 3x, so they are not mixed in one class.  Two slots have a single
split: `thmc` at m + n = 8 uses the balanced split (4, 4), its own
mirror, and `opet` uses (4, 3), because its cost grows with n (one
leaf-shift step per down-leaf beyond the first), so its mirror is not
an equal-cost input.

Expected answers come from independent oracles where one exists
(Stirling, Fubini and Kirkman-Cayley numbers, the multiplihedron vertex
counts, the statements of the paper's theorems).  Everywhere else they
are sha256 digests of the stdout of the seed commit, kept in
goldens.json; a digest match is the byte-identity check for outputs
such as `hasse` and `enumerate`.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from math import comb, factorial
from pathlib import Path
from typing import Callable, Optional

GOLDENS_PATH = Path(__file__).with_name("goldens.json")

# Vertices of the multiplihedron J(m) for m = 1..7 (OEIS A121988).
MULTIPLIHEDRON_VERTICES = {1: 1, 2: 2, 3: 6, 4: 21, 5: 80, 6: 322, 7: 1513}


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k)."""
    row = [1] + [0] * k
    for i in range(1, n + 1):
        for j in range(min(i, k), 0, -1):
            row[j] = j * row[j] + row[j - 1]
        row[0] = 0
    return row[k]


def perm_fvector(k: int) -> tuple:
    """f-vector of the k-dimensional permutahedron (also of every
    bipermutahedron with m + n - 2 = k): f_i = (k-i)! S(k, k-i)."""
    return tuple(factorial(k - i) * stirling2(k, k - i) for i in range(k))


def fubini(k: int) -> int:
    """Ordered set partitions of a k-set: the face count of perm_fvector(k)."""
    return sum(factorial(j) * stirling2(k, j) for j in range(k + 1))


def kirkman_cayley(p: int, d: int) -> int:
    """Dissections of a convex p-gon by d non-crossing diagonals."""
    return comb(p - 3, d) * comb(p + d - 1, d) // (d + 1)


def assoc_fvector(m: int) -> tuple:
    """f-vector of the associahedron on planar trees with m leaves: a
    face of dimension d is a dissection of the (m+1)-gon with m-2-d
    diagonals."""
    return tuple(kirkman_cayley(m + 1, m - 2 - d) for d in range(m - 1))


def alternating_sum(fvec) -> int:
    return sum((-1) ** i * f for i, f in enumerate(fvec))


def _ints(text: str) -> tuple:
    return tuple(int(w) for w in text.split())


def fvector_from_covers(size: int, covers) -> tuple:
    """f-vector by longest-chain rank, computed from a cover list alone."""
    above = [[] for _ in range(size)]
    indegree = [0] * size
    for i, j in covers:
        above[i].append(j)
        indegree[j] += 1
    rank = [0] * size
    queue = [i for i in range(size) if indegree[i] == 0]
    for i in queue:
        for j in above[i]:
            rank[j] = max(rank[j], rank[i] + 1)
            indegree[j] -= 1
            if indegree[j] == 0:
                queue.append(j)
    if len(queue) != size:
        raise ValueError("cover relation has a cycle")
    counts = [0] * (max(rank, default=-1) + 1)
    for r in rank:
        counts[r] += 1
    return tuple(counts)


def _euler_is_one(fvec) -> Optional[str]:
    e = alternating_sum(fvec)
    return None if e == 1 else "alternating sum of f-vector %s is %d" % (fvec, e)


def check_hasse_json(m: int, n: int, text: str) -> Optional[str]:
    data = json.loads(text)
    return _euler_is_one(fvector_from_covers(len(data["elements"]), data["covers"]))


def check_multipl_fvector(m: int, n: int, text: str) -> Optional[str]:
    fvec = _ints(text)
    if fvec[0] != MULTIPLIHEDRON_VERTICES[m]:
        return "multiplihedron %d has %d vertices, not %d" % (
            m, MULTIPLIHEDRON_VERTICES[m], fvec[0])
    return _euler_is_one(fvec)


def check_multipl_dot(m: int, n: int, text: str) -> Optional[str]:
    """The dot output lists one `{ rank=same; ... }` group per rank."""
    fvec = tuple(
        line.count(";") - 1 for line in text.splitlines() if "rank=same;" in line
    )
    if not fvec or fvec[0] != MULTIPLIHEDRON_VERTICES[m]:
        return "rank-0 group of the dot output is not the %d vertices" % (
            MULTIPLIHEDRON_VERTICES[m])
    return _euler_is_one(fvec)


def check_biperm_lines(m: int, n: int, text: str) -> Optional[str]:
    lines, want = text.count("\n"), fubini(m + n - 2)
    return None if lines == want else "%d lines, expected %d" % (lines, want)


@dataclass(frozen=True)
class Slot:
    """One op of a workload.  `verb` is an argv template over m and n.
    `text` gives the exact expected stdout (without the final newline)
    from an oracle; without it the stdout must match its golden digest.
    `oracle` is an extra check on stdout that returns an error or None."""

    verb: str
    splits: tuple
    text: Optional[Callable[[int, int], str]] = None
    oracle: Optional[Callable[[int, int, str], Optional[str]]] = None


def mirror(m: int, n: int) -> tuple:
    return ((m, n), (n, m))


def _words(values) -> str:
    return " ".join(map(str, values))


WORKLOADS = {
    # The poset verbs across all five families: the hand-written leq
    # loops, FinitePoset validation and derivation, and cli output.
    "faces": (
        Slot("fvector --family biperm -m {m} -n {n}", mirror(4, 3),
             text=lambda m, n: _words(perm_fvector(m + n - 2))),
        Slot("hasse --family biassoc -m {m} -n {n}", mirror(4, 3),
             oracle=check_hasse_json),
        Slot("verify euler --family perm -m {m}", ((6, 1),),
             text=lambda m, n: "euler perm (%d,1): %d"
             % (m, alternating_sum(perm_fvector(m - 1)))),
        Slot("fvector --family assoc -m {m}", ((7, 1),),
             text=lambda m, n: _words(assoc_fvector(m))),
        Slot("fvector --family multipl -m {m}", ((6, 1),),
             oracle=check_multipl_fvector),
        Slot("hasse --dot --family multipl -m {m}", ((5, 1),),
             oracle=check_multipl_dot),
    ),
    # Per-element verbs that build no poset: varpi, term canonical
    # forms, leveled enumeration, zone projection and stdout.
    "kernel": (
        Slot("verify thmc -m {m} -n {n}", ((4, 4),)),
        Slot("verify thmc -m {m} -n {n}", mirror(4, 3)),
        Slot("--max-size 9 enumerate --family biperm -m {m} -n {n}", mirror(5, 4),
             oracle=check_biperm_lines),
        Slot("--max-size 9 enumerate --family biassoc --format json -m {m} -n {n}",
             mirror(5, 4)),
    ),
    # The isomorphism checks: search and permuted-matrix comparison.
    # propd -m 6 is inside the default size bound; its expected answer
    # is the statement of Prop D.
    "verify": (
        Slot("verify opet -m {m} -n {n}", ((4, 3),),
             text=lambda m, n: "opet (%d,%d): isomorphism verified" % (m, n)),
        Slot("verify propd -m {m}", ((5, 2),),
             text=lambda m, n: "propd m=%d: posets isomorphic" % m),
        Slot("verify propd -m {m}", ((6, 2),),
             text=lambda m, n: "propd m=%d: posets isomorphic" % m),
    ),
}


@dataclass(frozen=True)
class Op:
    slot: Slot
    m: int
    n: int

    @property
    def key(self) -> str:
        return self.slot.verb.format(m=self.m, n=self.n)

    @property
    def argv(self) -> list:
        return self.key.split()


# The trivial verb whose cold start is setup_s.
SETUP_OP = Op(Slot("fvector --family assoc -m {m}", ((2, 1),),
                   text=lambda m, n: _words(assoc_fvector(m))), 2, 1)


def ops_for(workload: str, seed: int) -> list:
    """The workload's ops for this seed: one split per slot, shuffled."""
    rng = random.Random("%s:%d" % (workload, seed))
    ops = [Op(slot, *rng.choice(slot.splits)) for slot in WORKLOADS[workload]]
    rng.shuffle(ops)
    return ops


def all_ops() -> list:
    """Every op any seed can produce, in a fixed order."""
    return [
        Op(slot, m, n)
        for slots in WORKLOADS.values()
        for slot in slots
        for m, n in slot.splits
    ]


def load_goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text())


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def check_stdout(op: Op, stdout: bytes, goldens: dict) -> Optional[str]:
    """None if stdout is the expected answer of op, else what differs."""
    text = stdout.decode("utf-8", "replace")
    if op.slot.text is not None:
        want = op.slot.text(op.m, op.n) + "\n"
        if text != want:
            return "stdout %r, expected %r" % (text[:200], want)
    else:
        golden = goldens.get(op.key)
        if golden is None:
            return "no golden recorded for %r" % op.key
        if digest(stdout) != golden["sha256"]:
            return "stdout (%d bytes) differs from the golden (%d bytes)" % (
                len(stdout), golden["bytes"])
    if op.slot.oracle is not None:
        try:
            return op.slot.oracle(op.m, op.n, text)
        except (ValueError, KeyError, IndexError) as exc:
            return "stdout does not parse: %s" % exc
    return None
