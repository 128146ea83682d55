"""Mutants that the checks must catch.

Each row names one production function and one textual edit of its
source that makes a plausible wrong version of it, and the check that
must then fail: a named test of this suite ("test[id]" names one case
of a parametrized test), run with the mutant in place, which must pass
without it and fail, by an assertion or an error, with it.  The mutant
is compiled from the function's own source in its module's namespace,
so a name that no longer resolves, or an edit that no longer applies,
fails its row instead of passing it.
Every check runs at m + n <= 8, the whole table in a few seconds.  A
change that adds a fast path or an oracle adds its row here.
"""

import importlib
import inspect
import textwrap

import pytest

# (function, source text, its wrong version, catching test); a name is
# "module:attribute.attribute"
MUTANTS = [
    # the code check lets a label through that two blocks hold
    ("biassoc.leveled:check_code", "union != total or ", "",
     "test_leveled:test_gamma_decode_rejects_bad_labels"),
    # the shared pair check without the exact-int rule: True is an int
    ("biassoc.leveled:TreePair.check_values", "type(v) is not int", "not isinstance(v, int)",
     "test_leveled:test_validation"),
    # a verdict line without "FAILED: "
    ("biassoc.cli:_verify", '"FAILED: " + failure', "failure",
     "test_cli:test_verify_euler_on_a_non_graded_poset_names_a_cover"),
    # g's inputs not offset past f's: both read the first legs
    ("biassoc.propterms:hcompose", "range(f.m, f.m + g.m)", "range(g.m)",
     "test_propterms:test_interchange_law"),
    # permute_outputs without its permutation check
    ("biassoc.propterms:permute_outputs", "if sorted(images) != list(range(1, t.n + 1)):",
     "if False:", "test_propterms:test_permute_outputs_rejects_non_permutations"),
    # the first vertex holding a gap, the root, not the last one
    ("biassoc.leveled:_gap_vertices", "if a < i < b][-1]", "if a < i < b][0]",
     "test_leveled:test_gap_vertices_are_leaf_meets"),
    # an up tree's generator below its children, as a down tree's is
    ("biassoc.propterms:_iota_expr", "ev(egen(1, len(shape)), children)",
     "ev(children, egen(1, len(shape)))", "test_propterms:test_expressions_golden"),
    # simplify keeps the unit wires of a vertical composite
    ("biassoc.propterms:Expr.simplify", "if not e.is_identity()]", "]",
     "test_propterms:test_simplify_drops_unit_noise"),
    # the associahedron's moves miss the edge to vertex 1
    ("biassoc.trees:edge_contractions", "range(1, len(", "range(2, len(",
     "test_trees:test_associahedron_is_the_block_merge_image"),
    # the multiplihedron's moves miss a BELOW root put on the membrane
    ("biassoc.multipli:diaphragm_moves", "if zeta[:1] == (BELOW,):", "if False:",
     "test_multipli:test_multiplihedron_order_is_all_pairs_diaphragm_leq"),
    # the leaf shift misses an up vertex at the moved vertex's level
    ("biassoc.leveled:opet_step", "lvl <= level", "lvl < level",
     "test_leveled:test_opet_step_moves_gap_m_to_the_up_side"),
    # euler without its sum rule: three points pass
    ("biassoc.cli:_verify", "if failure is None and p.euler() != 1:", "if False:",
     "test_cli:test_verify_euler_on_a_bad_sum_names_the_fvector"),
    # gamma_text writes a code that check_code refuses
    ("biassoc.leveled:gamma_text", "for b in check_code(code, m, n)", "for b in code",
     "test_leveled:test_gamma_decode_rejects_bad_labels"),
    # a fraction's up side pairs one hanging subtree fewer with the corolla
    ("biassoc.propterms:_up_side", "for p in hanging)", "for p in hanging[1:])",
     "test_propterms:test_expressions_golden"),
    # the JSON zone members tagged "u.0" for "u:0"
    ("biassoc.zones:_zone_members", """'"%s:%s"'""", """'"%s.%s"'""",
     "test_zones:test_json_text_matches_json_dumps"),
    # the down trees walked with m leaves
    ("biassoc.leveled:level_groups", "for down in _shapes(n)", "for down in _shapes(m)",
     "test_leveled:test_bipermutahedron_fvectors_and_grading"),
    # the pair check sized by the largest value, not by how many there are
    ("biassoc.leveled:TreePair.check_values", "len(set(values))", "max(values, default=0)",
     "test_leveled:test_outside_input_is_refused_in_memory_sized_by_the_input"),
    # the block-merge posets miss the merge of the last two blocks
    ("biassoc.leveled:coarsening_poset", "range(len(code) - 1)", "range(len(code) - 2)",
     "test_leveled:test_bipermutahedron_fvectors_and_grading"),
    # the block-merge posets keep each tree pair's classes in walk order
    ("biassoc.leveled:coarsening_poset", "sorted(range(len(classes)), key=written.__getitem__)",
     "range(len(classes))",
     "test_zones:test_poset_calls_each_class_once_per_class_in_key_order[bipermutahedron_poset]"),
    # enumerate writes each block's keys in walk order
    ("biassoc.cli:run", "sorted([row.key(*face) for face in block])",
     "[row.key(*face) for face in block]", "test_cli:test_small_enumerations_byte_identical"),
    # the JSON rewrites of the keys: a pair's levels as "[1,3]", a tree's
    # children with no ", ", a zone's members with no space after the up
    # ones, every application vertex written as a plain one
    ("biassoc.leveled:pair_json", 'key.replace(",", ", ")', "key",
     "test_cli:test_json_lines_are_the_oracle_objects[perm]"),
    ("biassoc.trees:tree_json", '.replace(" ", ", ")', "",
     "test_cli:test_json_lines_are_the_oracle_objects[assoc]"),
    ("biassoc.zones:zone_json", '"[%s, %s]"', '"[%s,%s]"',
     "test_cli:test_json_lines_are_the_oracle_objects[biassoc]"),
    ("biassoc.multipli:painted_json", '\'{"type": "application", "children": [\'',
     '\'{"type": "plain", "children": [\'',
     "test_multipli:test_painted_text_json_roundtrip"),
    # the leaf shift's new up vertex takes only the last up leaf, not the
    # highest right-spine subtree below v's level
    ("biassoc.leveled:opet_step", "start = min(start, a)", "start = max(start, a)",
     "test_leveled:test_opet_step_on_parts_is_the_gap_code_read_one_leaf_over[6]"),
    # the projection merges two adjacent barriers into one zone
    ("biassoc.zones:_zone_tuples", 'kind != prev or kind == "B"', "kind != prev",
     "test_zones:test_relative_heights"),
    # the isomorphism check compares no cover rows: verify opet, then propd
    ("biassoc.posets:isomorphism_failure", "enumerate(p._covers)", "enumerate(())",
     "test_leveled:test_opet_iso_rejects_broken_steps"),
    ("biassoc.posets:isomorphism_failure", "enumerate(p._covers)", "enumerate(())",
     "test_cli:test_isomorphism_failures_print_a_counterexample"),
    # the records' == without its class check: a pair equals a zone pair
    ("biassoc.posets:_Record.__eq__", "if other.__class__ is not self.__class__:", "if False:",
     "test_posets:test_records_are_immutable_values"),
    # the records' assignment stores the value
    ("biassoc.posets:_Record.__setattr__", 'raise AttributeError("cannot assign to field %r" % name)',
     "object.__setattr__(self, name, value)", "test_posets:test_records_are_immutable_values"),
    # verify thmc without its equal-zones check
    ("biassoc.propterms:theorem_c_witness", "if t1 != t:", "if False:",
     "test_cli:test_thmc_failure_prints_a_witness"),
]


def resolve(name):
    """The owner of the last attribute of name, and that attribute's name."""
    module, path = name.split(":")
    *owners, attribute = path.split(".")
    owner = importlib.import_module(module)
    for step in owners:
        owner = getattr(owner, step)
    return owner, attribute


def mutant(function, old, new):
    """function recompiled from its source with old replaced by new."""
    function = inspect.unwrap(function)
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, (function, old)
    namespace = dict(function.__globals__)
    exec(compile(source.replace(old, new), inspect.getsourcefile(function), "exec"), namespace)
    return namespace[function.__name__]


def parameters(check, case) -> dict:
    """The arguments of the case of the parametrized test check whose id
    is case."""
    out = {}
    for mark in getattr(check, "pytestmark", ()):
        if mark.name == "parametrize":
            names = [name.strip() for name in mark.args[0].split(",")]
            values = mark.args[1][mark.kwargs["ids"].index(case)]
            out.update(zip(names, values if len(names) > 1 else (values,)))
    return out


# a row's id is its target; a later row on the same target adds its test
IDS = [target if all(target != row[0] for row in MUTANTS[:i]) else "%s>%s" % (target, test)
       for i, (target, _, _, test) in enumerate(MUTANTS)]


@pytest.mark.parametrize("target, old, new, test", MUTANTS, ids=IDS)
def test_mutant_is_caught(target, old, new, test, capsys, monkeypatch):
    # the catching test gets this test's fixtures; the mutant is patched
    # in a context of its own, which the test cannot undo
    owner, attribute = resolve(target)
    name, _, case = test.partition("[")
    check = getattr(*resolve(name))
    fixtures = {"capsys": capsys, "monkeypatch": monkeypatch}
    if case:
        fixtures.update(parameters(check, case.removesuffix("]")))
    arguments = [fixtures[p] for p in inspect.signature(check).parameters]
    check(*arguments)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(owner, attribute, mutant(getattr(owner, attribute), old, new))
        with pytest.raises((Exception, pytest.fail.Exception)):
            check(*arguments)
