import hashlib
import random
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from biassoc import propterms as P, zones as Z
from biassoc.leveled import ComplementaryPair, enumerate_leveled_pairs, level_groups, pair_key
from biassoc.trees import PlanarTree, leaf_count
from gen_helpers import (
    nonspecial_gadget,
    pinched_fraction_instance,
    rand_term_with_inputs,
)
from oracles import level_function_error, mirror_key, opposite, parse_expr

x12 = lambda: P.generator(1, 2)
x21 = lambda: P.generator(2, 1)


def permuted_copy(t: P.PropTerm, perm) -> P.PropTerm:
    """The same port graph with vertex storage order shuffled by perm."""
    inv = {old: new for new, old in enumerate(perm)}

    def fix(src):
        if src[0] == "g":
            return src
        return ("v", inv[src[1]], src[2])

    verts = tuple(t.verts[vi] for vi in perm)
    ins = tuple(tuple(fix(s) for s in t.ins[vi]) for vi in perm)
    outs = tuple(fix(s) for s in t.outs)
    return P.PropTerm(t.m, t.n, verts, ins, outs)


# ---------------------------------------------------------------------------
# structure and validation


def test_unit_and_generator():
    e = P.unit()
    assert e.biarity == (1, 1) and e.verts == ()
    g = P.generator(3, 2)
    assert g.biarity == (3, 2) and g.verts == ((3, 2),)
    with pytest.raises(ValueError):
        P.generator(1, 1)
    with pytest.raises(ValueError):
        P.generator(0, 2)


def test_validation_rejects_bad_wirings():
    with pytest.raises(ValueError, match="wired twice"):
        P.PropTerm(1, 2, (), (), (("g", 0), ("g", 0)))
    with pytest.raises(ValueError, match="bad global input"):
        P.PropTerm(1, 1, (), (), (("g", 1),))
    with pytest.raises(ValueError, match="bad vertex output"):
        P.PropTerm(1, 1, ((2, 1),), ((("g", 0),),), (("v", 0, 2),))
    with pytest.raises(ValueError, match="wired once"):  # input leg never consumed
        P.PropTerm(2, 1, (), (), (("g", 0),))
    with pytest.raises(ValueError, match="wired once"):  # dangling vertex output
        P.PropTerm(1, 1, ((2, 1),), ((("g", 0),),), (("v", 0, 0),))
    with pytest.raises(ValueError, match="cycle"):  # between two vertices
        P.PropTerm(
            1,
            1,
            ((1, 2), (2, 1)),
            ((("v", 1, 0), ("g", 0)), (("v", 0, 0),)),
            (("v", 1, 1),),
        )


def test_kept_wiring_map_matches_a_fresh_scan():
    # canonical reads the map the validation kept; a trusted copy of the
    # same term has no map, so canonical reads that of a validated copy.
    # The map is not a field: ==, hash and repr ignore it.
    for x in enumerate_leveled_pairs(4, 3):
        t = P.varpi(x)
        copy = P._trusted(t.m, t.n, t.verts, t.ins, t.outs)
        assert "_consumer" in vars(t) and "_consumer" not in vars(copy)
        assert P.canonical(t) == P.canonical(copy)
        assert t == copy and hash(t) == hash(copy) and repr(t) == repr(copy)


# ---------------------------------------------------------------------------
# composition


def test_vcompose_unit_laws():
    f = P.generator(2, 3)
    assert P.term_eq(P.vcompose(f, P.hfold([P.unit()] * 3)), f)
    assert P.term_eq(P.vcompose(P.hfold([P.unit()] * 2), f), f)
    with pytest.raises(ValueError):
        P.vcompose(f, f)


def test_composition_laws_random():
    rng = random.Random(7)
    for _ in range(200):
        h = rand_term_with_inputs(rng, rng.randint(1, 4))
        g = rand_term_with_inputs(rng, h.n)
        f = rand_term_with_inputs(rng, g.n)
        lhs = P.vcompose(P.vcompose(f, g), h)
        rhs = P.vcompose(f, P.vcompose(g, h))
        assert lhs == rhs  # strictly equal, not just term_eq
    for _ in range(200):
        f = rand_term_with_inputs(rng, rng.randint(1, 3))
        g = rand_term_with_inputs(rng, rng.randint(1, 3))
        h = rand_term_with_inputs(rng, rng.randint(1, 3))
        assert P.hcompose(P.hcompose(f, g), h) == P.hcompose(
            f, P.hcompose(g, h)
        )


def test_interchange_law():
    rng = random.Random(11)
    for _ in range(200):
        g1 = rand_term_with_inputs(rng, rng.randint(1, 3))
        g2 = rand_term_with_inputs(rng, rng.randint(1, 3))
        f1 = rand_term_with_inputs(rng, g1.n)
        f2 = rand_term_with_inputs(rng, g2.n)
        lhs = P.vcompose(P.hcompose(f1, f2), P.hcompose(g1, g2))
        rhs = P.hcompose(P.vcompose(f1, g1), P.vcompose(f2, g2))
        assert P.term_eq(lhs, rhs)


def test_left_and_right_combs_differ():
    left = P.vcompose(x12(), P.hcompose(x12(), P.unit()))
    right = P.vcompose(x12(), P.hcompose(P.unit(), x12()))
    assert not P.term_eq(left, right)
    assert P.term_eq(left, P.iota_embed(PlanarTree.from_text("((* *) *)", "up")))
    assert P.term_eq(right, P.iota_embed(PlanarTree.from_text("(* (* *))", "up")))


# ---------------------------------------------------------------------------
# block permutations and fractions


def test_sigma_goldens():
    assert P.sigma(2, 2).mapping() == (1, 3, 2, 4)
    assert P.sigma(3, 2).mapping() == (1, 4, 2, 5, 3, 6)
    assert P.sigma(1, 4).mapping() == (1, 2, 3, 4)
    assert P.sigma(4, 1).mapping() == (1, 2, 3, 4)
    with pytest.raises(ValueError):
        P.sigma(0, 2)
    with pytest.raises(ValueError):
        P.sigma(2, 2)(5)


@given(st.integers(1, 5), st.integers(1, 5))
def test_sigma_is_a_permutation(l, k):
    mapping = P.sigma(l, k).mapping()
    assert sorted(mapping) == list(range(1, k * l + 1))


def test_fraction_degenerate_sides():
    rng = random.Random(3)
    for _ in range(100):
        # k = 1: plain operadic composite
        b = rand_term_with_inputs(rng, rng.randint(1, 3))
        as_ = [rand_term_with_inputs(rng, rng.randint(1, 2)) for _ in range(b.m)]
        # force single outputs by stacking a collector when needed
        as_ = [
            a if a.n == 1 else P.vcompose(P.generator(1, a.n), a) for a in as_
        ]
        assert P.term_eq(
            P.fraction([b], as_), P.vcompose(b, P.hfold(as_))
        )
        # l = 1: plain co-operadic composite
        a = rand_term_with_inputs(rng, 1)
        bs = [rand_term_with_inputs(rng, 1) for _ in range(a.n)]
        assert P.term_eq(
            P.fraction(bs, [a]), P.vcompose(P.hfold(bs), a)
        )


def test_fraction_arity_errors():
    with pytest.raises(ValueError, match="numerator 1"):
        P.fraction([P.generator(1, 3)], [P.generator(1, 2), P.generator(1, 2)])
    with pytest.raises(ValueError, match="denominator 2"):
        P.fraction(
            [P.generator(1, 2), P.generator(1, 2)],
            [P.generator(2, 1), P.generator(3, 1)],
        )
    with pytest.raises(ValueError):
        P.fraction([], [])


def test_fraction_nesting_identities():
    rng = random.Random(13)
    for _ in range(100):
        nums, dens, k, l = pinched_fraction_instance(rng)
        # composing below each denominator = composing below the fraction
        cs = []
        for a in dens:
            c = rand_term_with_inputs(rng, rng.randint(1, 2))
            if c.n != a.m:
                c = P.vcompose(P.generator(a.m, c.n), c)
            cs.append(c)
        lhs = P.fraction(nums, [P.vcompose(a, c) for a, c in zip(dens, cs)])
        rhs = P.vcompose(P.fraction(nums, dens), P.hfold(cs))
        assert P.term_eq(lhs, rhs)
        # composing above each numerator = composing above the fraction
        ds = [rand_term_with_inputs(rng, b.n) for b in nums]
        lhs = P.fraction([P.vcompose(d, b) for d, b in zip(ds, nums)], dens)
        rhs = P.vcompose(P.hfold(ds), P.fraction(nums, dens))
        assert P.term_eq(lhs, rhs)


def test_permute_outputs_rejects_non_permutations():
    for perm in (lambda i: 1, lambda i: i - 1, lambda i: i + 1):
        with pytest.raises(ValueError, match="not a permutation"):
            P.permute_outputs(x21(), perm)


# ---------------------------------------------------------------------------
# trusted composites


def checked(op):
    """op, with every result rebuilt through the validating constructor."""

    def run(*args):
        t = op(*args)
        assert P.PropTerm(t.m, t.n, t.verts, t.ins, t.outs) == t
        return t

    return run


def rand_term_with_outputs(rng: random.Random, n: int) -> P.PropTerm:
    c = rand_term_with_inputs(rng, rng.randint(1, 3))
    return c if c.n == n else P.vcompose(P.generator(n, c.n), c)


def rand_chain_step(rng: random.Random, t: P.PropTerm) -> P.PropTerm:
    op = rng.choice(("above", "below", "left", "right", "permute", "fraction"))
    if op == "above":
        return P.vcompose(rand_term_with_inputs(rng, t.n), t)
    if op == "below":
        return P.vcompose(t, rand_term_with_outputs(rng, t.m))
    if op == "left":
        return P.hcompose(rand_term_with_inputs(rng, rng.randint(1, 2)), t)
    if op == "right":
        return P.hcompose(t, rand_term_with_inputs(rng, rng.randint(1, 2)))
    if op == "permute":
        images = list(range(1, t.n + 1))
        rng.shuffle(images)
        return P.permute_outputs(t, lambda i: images[i - 1])
    # t is one denominator of a fraction with k = t.n
    l = rng.randint(1, 3)
    dens = [rand_term_with_outputs(rng, t.n) for _ in range(l - 1)]
    dens.insert(rng.randint(0, l - 1), t)
    nums = [rand_term_with_inputs(rng, l) for _ in range(t.n)]
    return P.fraction(nums, dens)


@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_trusted_composites_are_valid(seed, steps):
    # every composite, inside the helpers and fraction too, is rebuilt
    # through the validating constructor
    rng = random.Random(seed)
    with mock.patch.multiple(
        P,
        vcompose=checked(P.vcompose),
        hcompose=checked(P.hcompose),
        permute_outputs=checked(P.permute_outputs),
        fraction=checked(P.fraction),
    ):
        t = rand_term_with_inputs(rng, rng.randint(1, 3))
        for _ in range(steps):
            if t.n > 6 or t.m > 6:
                break
            t = rand_chain_step(rng, t)


def test_varpi_validates_its_result(monkeypatch):
    # a trusted composite that sends one wire twice is caught by varpi
    stacked = ComplementaryPair(
        PlanarTree.from_text("(* *)", "up"),
        PlanarTree.from_text("(* *)", "down"),
        (2,),
        (1,),
    )
    vcompose = P.vcompose

    def broken(f, g):
        t = vcompose(f, g)
        return P._trusted(t.m, t.n, t.verts, t.ins, (t.outs[0],) * t.n)

    monkeypatch.setattr(P, "vcompose", broken)
    assert P.varpi_expr(*stacked.parts).to_term().outs == (("v", 1, 0),) * 2
    with pytest.raises(ValueError, match="wired twice"):
        P.varpi(stacked)


# ---------------------------------------------------------------------------
# canonical form and equality


def test_term_eq_invariant_under_vertex_relabeling():
    rng = random.Random(17)
    for _ in range(300):
        t = rand_term_with_inputs(rng, rng.randint(1, 4), depth=3)
        perm = list(range(len(t.verts)))
        rng.shuffle(perm)
        assert P.term_eq(t, permuted_copy(t, perm))
        assert P.term_key(t) == P.term_key(permuted_copy(t, perm))


def test_term_eq_distinguishes():
    assert not P.term_eq(P.generator(1, 2), P.generator(2, 1))
    assert not P.term_eq(P.unit(), P.generator(1, 2))
    crossed = P.permute_outputs(P.generator(2, 1), P.sigma(2, 1))
    assert P.term_eq(crossed, P.generator(2, 1))  # sigma(2,1) = id
    swap = lambda i: 3 - i
    assert not P.term_eq(P.permute_outputs(x21(), swap), x21())


# ---------------------------------------------------------------------------
# specialness


def test_is_special_goldens():
    assert P.is_special(P.generator(3, 3))
    assert P.is_special(P.unit())
    assert P.is_special(P.vcompose(x21(), x12()))  # producer has one output
    assert not P.is_special(nonspecial_gadget())  # x[1,2] over x[2,1]
    assert P.is_special(P.iota_embed(PlanarTree.from_text("((* *) *)", "up")))
    assert P.is_special(
        P.iota_embed(PlanarTree.from_text("((* *) (* *))", "down"))
    )


def test_special_fraction_characterization():
    rng = random.Random(20260823)
    seen = set()
    for _ in range(1000):
        nums, dens, k, l = pinched_fraction_instance(rng)
        args_special = all(P.is_special(t) for t in nums + dens)
        expected = args_special and (k == 1 or l == 1)
        assert P.is_special(P.fraction(nums, dens)) == expected
        seen.add((k == 1 or l == 1, args_special))
    # the generator must exercise all four quadrants of the biconditional
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


# ---------------------------------------------------------------------------
# expressions and parsing


def test_expr_text_and_parse_roundtrip():
    e = P.efrac(
        (P.egen(1, 2), P.egen(1, 2)),
        (P.ev(P.egen(2, 1), P.egen(1, 2)), P.egen(2, 1)),
    )
    text = e.text()
    assert text == "F{ x[1,2] x[1,2] / V(x[2,1],x[1,2]) x[2,1] }"
    back = parse_expr(text)
    assert P.term_eq(back.to_term(), e.to_term())
    assert parse_expr("H(e,x[2,3])").to_term() == P.hcompose(
        P.unit(), P.generator(2, 3)
    )
    with pytest.raises(ValueError):
        parse_expr("V(x[1,2]")
    with pytest.raises(ValueError):
        parse_expr("x[1,2] x[2,1]")


def test_simplify_drops_unit_noise():
    e = P.ev(P.egen(1, 2), P.eh(P.eunit(), P.eunit()))
    s = e.simplify()
    assert s.text() == "x[1,2]"
    assert P.term_eq(e.to_term(), s.to_term())


# ---------------------------------------------------------------------------
# the pair-to-term translation


WORKED_PAIR = ComplementaryPair(
    PlanarTree.from_text("((* *) *)", "up"),
    PlanarTree.from_text("(* *)", "down"),
    (1, 3),
    (2,),
)


def test_varpi_exceptional_and_stacked_cases():
    (triv,) = enumerate_leveled_pairs(1, 1)
    assert P.term_eq(P.varpi(triv), P.unit())
    up_only = ComplementaryPair(
        PlanarTree.from_text("((* *) *)", "up"),
        PlanarTree.from_text("*", "down"),
        (1, 2),
        (),
    )
    assert P.term_eq(
        P.varpi(up_only), P.iota_embed(PlanarTree.from_text("((* *) *)", "up"))
    )
    stacked = ComplementaryPair(
        PlanarTree.from_text("(* *)", "up"),
        PlanarTree.from_text("(* *)", "down"),
        (2,),
        (1,),
    )
    assert P.term_eq(P.varpi(stacked), P.vcompose(x21(), x12()))
    fused = ComplementaryPair(
        PlanarTree.from_text("(* *)", "up"),
        PlanarTree.from_text("(* *)", "down"),
        (1,),
        (1,),
    )
    assert P.term_eq(P.varpi(fused), P.generator(2, 2))


def test_varpi_worked_fraction():
    hand = P.fraction(
        [x12(), x12()],
        [P.vcompose(x21(), x12()), x21()],
    )
    assert P.term_eq(P.varpi(WORKED_PAIR), hand)
    assert (
        P.varpi_expr(*WORKED_PAIR.parts).simplify().text()
        == "F{ x[1,2] x[1,2] / V(x[2,1],x[1,2]) x[2,1] }"
    )
    assert not P.is_special(P.varpi(WORKED_PAIR))


def test_varpi_specialness_by_root_order():
    # a term is special exactly when the down root does not hang below
    # the up root
    for m, n in [(2, 2), (3, 2), (2, 3)]:
        for x in enumerate_leveled_pairs(m, n):
            if x.up.exceptional or x.down.exceptional:
                assert P.is_special(P.varpi(x))
                continue
            root_u = x.up_levels[0]
            root_d = x.down_levels[0]
            assert P.is_special(P.varpi(x)) == (root_d <= root_u)


def reversed_legs(t: P.PropTerm) -> P.PropTerm:
    """t with the order of its global inputs and of its outputs reversed."""
    flip = lambda src: ("g", t.m - 1 - src[1]) if src[0] == "g" else src
    return P.PropTerm(
        t.m, t.n, t.verts,
        tuple(tuple(map(flip, srcs)) for srcs in t.ins),
        tuple(map(flip, reversed(t.outs))),
    )


def test_mirror_maps_to_the_opposite_term():
    # turning a pair upside down (the trees trade places, level l of h
    # becomes h + 1 - l) turns its term into the opposite term, for
    # every pair with m + n <= 7.  An opposite that also reverses the
    # leg order misses some pair, so the check sees a wrong opposite
    wrong = 0
    for s in range(2, 8):
        for m in range(1, s):
            for x in enumerate_leveled_pairs(m, s - m):
                t = P.varpi(x)
                mirrored = P.term_code(P.varpi(ComplementaryPair.from_key(mirror_key(x.key()))))
                assert mirrored == P.term_code(opposite(t)), x.key()
                assert P.term_code(opposite(opposite(t))) == P.term_code(t)
                wrong += mirrored != P.term_code(reversed_legs(opposite(t)))
    assert wrong > 0


def test_theorem_c_small():
    for m, n in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (3, 2)]:
        assert P.theorem_c_check(m, n)


# sha256 of the sorted "pair key<TAB>term key" lines over every pair with
# m + n <= 7 (3,685 pairs), recorded before pieces were memoized and
# composites trusted
TERM_KEYS_SHA256 = "373011c5391664f783d7e94ad3879fa9841721466ca1394ec1844e7365174cbd"


def test_term_keys_golden():
    rows = sorted(
        "%s\t%s\n" % (x.key(), P.term_key(P.varpi(x)))
        for s in range(2, 8)
        for m in range(1, s)
        for x in enumerate_leveled_pairs(m, s - m)
    )
    assert len(rows) == 3685
    assert hashlib.sha256("".join(rows).encode()).hexdigest() == TERM_KEYS_SHA256


# sha256 of the sorted "pair key<TAB>term code in hex" lines over the
# (4,4) and (4,3) pairs, recorded before the per-side cut, lower-half
# and zone-tuple caches; those caches first matter above m + n = 7
TERM_CODES_SHA256 = {
    (4, 4): (4683, "9731d9ffc06c6b043cd0d6f3ddd5b6f5674474ee2fc109603065b3ca21a559ef"),
    (4, 3): (541, "71bfb07819fa06c5215c1b89facf838d41386ea57cffa4091a988152f81a4ef7"),
}


@pytest.mark.parametrize("m, n", sorted(TERM_CODES_SHA256))
def test_term_codes_golden(m, n):
    # each pair's own term, and the Theorem C walk, which codes each
    # distinct expression of a tree pair once
    rows = sorted(
        "%s\t%s\n" % (x.key(), P.term_code(P.varpi(x)).hex())
        for x in enumerate_leveled_pairs(m, n)
    )
    walk = sorted(
        "%s\t%s\n" % (pair_key(up, down, *v), code.hex())
        for up, down, levels in level_groups(m, n)
        for v, code in zip(levels, P._term_codes(up, down, levels), strict=True)
    )
    assert walk == rows
    count, digest = TERM_CODES_SHA256[m, n]
    assert len(rows) == count
    assert hashlib.sha256("".join(rows).encode()).hexdigest() == digest


def test_term_code_partitions_like_term_key():
    # over the same 3,685 pairs, equal codes <-> equal keys
    pairs = [
        (P.term_code(t), P.term_key(t))
        for s in range(2, 8)
        for m in range(1, s)
        for t in map(P.varpi, enumerate_leveled_pairs(m, s - m))
    ]
    assert len(pairs) == 3685
    codes, keys = zip(*pairs)
    assert len(set(codes)) == len(set(keys)) == len(set(pairs))


def test_term_code_is_exact_for_wide_values():
    # values of 255 or more take the wide form; it stays exact
    wide = P.hfold([P.unit()] * 300)
    code = P.term_code(wide)
    assert code == P.term_code(P.hfold([P.unit()] * 300))
    assert code == P.term_code(P._trusted(wide.m, wide.n, wide.verts, wide.ins, wide.outs))
    others = [
        P.hfold([P.unit()] * 299),
        P.hfold([P.unit()] * 301),
        P.hfold([P.unit()] * 254),
        P.permute_outputs(wide, lambda i: 301 - i),
        P.hfold([P.generator(1, 2)] + [P.unit()] * 298),
    ]
    assert len({code, *map(P.term_code, others)}) == 1 + len(others)
    assert P.term_code(others[2])[:1] != b"\xff" == code[:1]


# sha256 of the sorted "pair key<TAB>expression<TAB>simplified expression"
# lines over the same 3,685 pairs, recorded while fraction pieces were
# still built by general vertex-subset restriction
EXPRESSIONS_SHA256 = "6addd621b82d88cfc7dc6e47dc7b779325658863f5b73ebcc6070e75cdea1c8e"


def test_expressions_golden():
    rows = []
    for s in range(2, 8):
        for m in range(1, s):
            for x in enumerate_leveled_pairs(m, s - m):
                e = P.varpi_expr(*x.parts)
                rows.append("%s\t%s\t%s\n" % (x.key(), e.text(), e.simplify().text()))
    rows.sort()
    assert len(rows) == 3685
    assert hashlib.sha256("".join(rows).encode()).hexdigest() == EXPRESSIONS_SHA256


def test_expr_hash_is_kept_and_structural():
    # two equal trees built apart hash alike and share one _term entry;
    # a hash is computed once per node, not per lookup
    def build():
        frac = P.efrac([P.egen(1, 2), P.egen(1, 2)], [P.egen(2, 1), P.egen(2, 1)])
        return P.ev(P.egen(1, 3), P.eh(frac, P.eunit()))

    e1, e2 = build(), build()
    assert e1 is not e2 and e1 == e2 and hash(e1) == hash(e2)
    assert hash(P.ev(P.egen(1, 2))) != hash(P.eh(P.egen(1, 2)))
    P._term.cache_clear()
    t1 = P._term(e1)
    hits = P._term.cache_info().hits
    assert P._term(e2) is t1
    assert P._term.cache_info().hits == hits + 1
    hashed = []
    node_hash = P.Expr.__hash__
    with mock.patch.object(P.Expr, "__hash__", lambda e: hashed.append(e) or node_hash(e)):
        e3 = build()
        for _ in range(3):
            assert P._term(e3) is t1
    # every node of e3 is hashed on the first lookup, then only e3
    assert len(hashed) == len(set(map(id, hashed))) + 2


def clear_caches(*modules):
    """Empty every memo of the given modules."""
    for module in modules:
        for f in vars(module).values():
            if hasattr(f, "cache_clear"):
                f.cache_clear()


def test_theorem_c_builds_each_piece_once(monkeypatch):
    # cold, varpi_expr runs once per pair and once per distinct cut
    # piece: a piece's expression is built only on a cache miss.  A cut
    # piece of a (4, 3) pair has fewer leaves on one side, so the pieces
    # are the calls of other sizes.  The full validation runs once per
    # distinct expression of a tree pair, and once per generator or unit
    # that a term is built from
    clear_caches(P)
    exprs = validations = pieces = leaves = 0
    varpi_expr = P.varpi_expr
    validate = P.PropTerm.__init__
    generator, unit = P.generator, P.unit

    def counted_expr(up, down, *levels):
        nonlocal exprs, pieces
        exprs += 1
        pieces += (leaf_count(up), leaf_count(down)) != (4, 3)
        return varpi_expr(up, down, *levels)

    def counted_validate(self, *fields):
        nonlocal validations
        validations += 1
        validate(self, *fields)

    def counted_leaf(build):
        def run(*args):
            nonlocal leaves
            leaves += 1
            return build(*args)

        return run

    monkeypatch.setattr(P, "varpi_expr", counted_expr)
    monkeypatch.setattr(P.PropTerm, "__init__", counted_validate)
    monkeypatch.setattr(P, "generator", counted_leaf(generator))
    monkeypatch.setattr(P, "unit", counted_leaf(unit))
    assert P.theorem_c_check(4, 3)
    monkeypatch.undo()
    pairs = enumerate_leveled_pairs(4, 3)
    assert len(pairs) == 541
    misses = P._piece_expr.cache_info().misses
    assert exprs == len(pairs) + pieces
    assert pieces == misses < P._piece_expr.cache_info().hits
    distinct = {(x.up, x.down, P.varpi_expr(*x.parts)) for x in pairs}
    assert (len(distinct), leaves) == (497, 12)
    assert validations == len(distinct) + leaves


def test_every_cut_piece_is_a_valid_pair(monkeypatch):
    # the pieces are cut from plain parts and never built as pairs: each
    # that reaches _piece_expr, over every pair with m + n <= 7, passes
    # the full validation of a ComplementaryPair.  Without the
    # renumbering of its levels, a piece can have a gap
    def pieces_of(piece):
        clear_caches(P)
        seen = set()
        piece_expr = P._piece_expr
        monkeypatch.setattr(P, "_piece", piece)
        monkeypatch.setattr(
            P, "_piece_expr", lambda *x: seen.add(x) or piece_expr(*x))
        for s in range(2, 8):
            for m in range(1, s):
                for up, down, levels in level_groups(m, s - m):
                    for v in levels:
                        P.varpi_expr(up, down, *v)
        monkeypatch.undo()
        clear_caches(P)
        return {x: level_function_error(PlanarTree("up", x[0]), PlanarTree("down", x[1]), *x[2:])
                for x in seen}

    errors = pieces_of(P._piece)
    assert len(errors) == 350 and set(errors.values()) == {None}
    errors = pieces_of(lambda *x: P._piece_expr(*x))
    assert "levels must be exactly 1..h with no gaps" in errors.values()


def test_theorem_c_computes_each_side_piece_once():
    # cold, at (4,4): the zones of each distinct pair of level tuples,
    # each distinct up side and the lower half of each distinct
    # denominator tuple are each computed once.  The fractions of the
    # 4,683 pairs need 646 up sides and 69 lower halves; the rest serve
    # fractions inside cut pieces
    clear_caches(P, Z)
    assert P.theorem_c_check(4, 4)
    assert Z._zone_tuples.cache_info().misses == 555
    assert P._up_side.cache_info().misses == 646 + 34
    assert P._lower.cache_info().misses == 69 + 12
    sides, lowers = set(), set()
    for x in enumerate_leveled_pairs(4, 4):
        if x.up.exceptional or x.down.exceptional:
            continue
        root_d = x.down_levels[0]
        if root_d > x.up_levels[0]:
            sides.add((x.up.shape, x.up_levels, root_d, len(x.down.shape)))
            lowers.add(P.varpi_expr(*x.parts).args[1])
    assert (len(sides), len(lowers)) == (646, 69)


