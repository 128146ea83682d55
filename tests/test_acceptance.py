"""End-to-end acceptance checks.

Each test exercises one acceptance criterion, prints a single
pass/fail line (run pytest with -s or look at captured output), and
enforces the agreed time budget.
"""

import random
import time
from itertools import combinations

from biassoc import (
    bipermutahedron_poset,
    biassociahedron_poset,
    enumerate_leveled_pairs,
    face_poset_associahedron,
    gamma_decode,
    gamma_text,
    gap_code,
)
from biassoc import propterms as P
from biassoc import leveled, multipli, posets
from biassoc.leveled import ComplementaryPair
from biassoc.trees import PlanarTree
from gen_helpers import pinched_fraction_instance


def report(num, desc, ok, started, budget=None):
    elapsed = time.monotonic() - started
    line = "criterion %2d [%s] %s (%.2fs)" % (
        num,
        "PASS" if ok else "FAIL",
        desc,
        elapsed,
    )
    print(line)
    assert ok, line
    if budget is not None:
        assert elapsed < budget, "%s exceeded %ss budget" % (line, budget)


def test_criterion_01_counts():
    t0 = time.monotonic()
    counts = [
        len(enumerate_leveled_pairs(m, n))
        for m, n in [(4, 1), (3, 2), (2, 3), (1, 4)]
    ]
    report(1, "leveled pair counts 13/13/13/13", counts == [13] * 4, t0, 1.0)


def test_criterion_02_leaf_shift_isomorphisms():
    t0 = time.monotonic()
    ok = all(
        leveled.opet_iso_check(m, n)
        for m in range(1, 6)
        for n in range(1, 7 - m)
    )
    report(2, "leaf-shift order isomorphisms, all m+n <= 6", ok, t0, 30.0)


def test_criterion_03_term_kernel_matches_zone_kernel():
    t0 = time.monotonic()
    small = [
        (m, n) for m in range(1, 5) for n in range(1, 6 - m)
    ]
    ok = all(P.theorem_c_check(m, n) for m, n in small)
    ok = ok and all(
        P.theorem_c_check(m, n) for m, n in [(4, 2), (2, 4), (3, 3)]
    )
    report(3, "term kernel = zone kernel, m+n <= 5 plus (4,2),(2,4),(3,3)", ok, t0, 300.0)


def test_criterion_04_fvectors():
    t0 = time.monotonic()
    ok = (
        biassociahedron_poset(3, 2).fvector() == (6, 6, 1)
        and face_poset_associahedron(4).fvector() == (5, 5, 1)
        and bipermutahedron_poset(4, 1).fvector() == (6, 6, 1)
        and multipli.multiplihedron_poset(3).fvector() == (6, 6, 1)
    )
    report(4, "hexagon/pentagon f-vectors", ok, t0)


def test_criterion_05_multiplihedron_isomorphism():
    t0 = time.monotonic()
    ok = True
    for m in range(2, 7):
        witness = multipli.prop_d_check(m)
        ok = ok and isinstance(witness, dict) and len(witness) == len(
            multipli.multiplihedron_poset(m)
        )
    report(5, "step-one (m,2) poset = multiplihedron poset, m = 2..6", ok, t0, 120.0)


def test_criterion_06_boundary_cases():
    t0 = time.monotonic()
    ok = all(
        posets.isomorphic(
            biassociahedron_poset(m, 1), face_poset_associahedron(m)
        )
        is not None
        and posets.isomorphic(
            biassociahedron_poset(1, m), face_poset_associahedron(m)
        )
        is not None
        for m in range(2, 6)
    )
    report(6, "one-sided pairs give the associahedron, sizes <= 5", ok, t0)


def test_criterion_07_interleaving_permutations():
    t0 = time.monotonic()
    ok = (
        P.sigma(2, 2).mapping() == (1, 3, 2, 4)
        and P.sigma(3, 2).mapping() == (1, 4, 2, 5, 3, 6)
    )
    report(7, "interleaving permutations sigma(2,2), sigma(3,2)", ok, t0)


def test_criterion_08_worked_fraction():
    t0 = time.monotonic()
    pair = ComplementaryPair(
        PlanarTree.from_text("((* *) *)", "up"),
        PlanarTree.from_text("(* *)", "down"),
        (1, 3),
        (2,),
    )
    hand = P.fraction(
        [P.generator(1, 2), P.generator(1, 2)],
        [
            P.vcompose(P.generator(2, 1), P.generator(1, 2)),
            P.generator(2, 1),
        ],
    )
    ok = P.term_eq(P.varpi(pair), hand)
    report(8, "worked pair translates to the hand-built fraction", ok, t0)


def test_criterion_09_codec():
    t0 = time.monotonic()
    fig = ComplementaryPair(
        PlanarTree.from_text("((* * (* *)) (* (* *) *))", "up"),
        PlanarTree.from_text("*", "down"),
        (1, 3, 4, 2, 4),
        (),
    )
    enc = gap_code(*fig.parts)
    ok = gamma_text(enc, 8, 1) == "(4|57|12|36)"
    ok = ok and gamma_text(leveled.tau(enc), 8, 1) == "(36|12|57|4)"
    ok = ok and all(
        gamma_decode(gap_code(*x.parts), 2, 3) == x
        for x in enumerate_leveled_pairs(2, 3)
    )
    report(9, "gap codec golden values and round trip", ok, t0)


def ordered_partitions(items):
    items = tuple(items)
    if not items:
        yield ()
        return
    for k in range(1, len(items) + 1):
        for block in combinations(items, k):
            remaining = tuple(x for x in items if x not in block)
            for tail in ordered_partitions(remaining):
                yield (block,) + tail


def test_criterion_10_property_suites():
    t0 = time.monotonic()
    ok = True
    # counts against the independent ordered-set-partition oracle
    expected = {2: 1, 3: 3, 4: 13, 5: 75, 6: 541}
    for m, want in expected.items():
        oracle = sum(1 for _ in ordered_partitions(range(1, m)))
        ok = ok and oracle == want == len(enumerate_leveled_pairs(m, 1))
    # Euler characteristic 1 for every constructed poset, m+n <= 6
    for m in range(1, 6):
        for n in range(1, 7 - m):
            if m + n < 2:
                continue
            ok = ok and bipermutahedron_poset(m, n).euler() == 1
            ok = ok and biassociahedron_poset(m, n).euler() == 1
    for m in range(2, 7):
        ok = ok and face_poset_associahedron(m).euler() == 1
    for m in range(1, 5):
        ok = ok and multipli.multiplihedron_poset(m).euler() == 1
    # special-fraction characterization on 1000 generated instances
    rng = random.Random(99)
    for _ in range(1000):
        nums, dens, k, l = pinched_fraction_instance(rng)
        expect = all(P.is_special(t) for t in nums + dens) and (
            k == 1 or l == 1
        )
        ok = ok and P.is_special(P.fraction(nums, dens)) == expect
    report(10, "oracle counts, Euler relations, special fractions", ok, t0, 300.0)
