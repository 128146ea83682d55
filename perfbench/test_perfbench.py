"""Tests of the benchmark itself: oracles, failure classification,
per-op rusage, self-time arithmetic and the tracer's patching.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))


@pytest.fixture(scope="module")
def launcher():
    with run.Launcher(run.child_env()) as launcher:
        yield launcher


def python(code):
    return [sys.executable, "-c", code]


# --- oracles ---------------------------------------------------------------


def test_fubini_matches_ordered_set_partitions():
    assert [workloads.fubini(k) for k in range(8)] == [
        1, 1, 3, 13, 75, 541, 4683, 47293]


def test_perm_fvector():
    assert workloads.perm_fvector(2) == (2, 1)
    assert workloads.perm_fvector(3) == (6, 6, 1)
    assert workloads.perm_fvector(5) == (120, 240, 150, 30, 1)
    for k in range(1, 9):
        assert sum(workloads.perm_fvector(k)) == workloads.fubini(k)


def test_assoc_fvector_kirkman_cayley():
    assert workloads.assoc_fvector(4) == (5, 5, 1)
    assert workloads.assoc_fvector(7)[0] == math.comb(12, 6) // 7
    little_schroeder = [1, 3, 11, 45, 197, 903, 4279]
    assert [sum(workloads.assoc_fvector(m)) for m in range(2, 9)] == little_schroeder


def test_every_oracle_fvector_has_euler_characteristic_one():
    for k in range(1, 9):
        assert workloads.alternating_sum(workloads.perm_fvector(k)) == 1
    for m in range(2, 10):
        assert workloads.alternating_sum(workloads.assoc_fvector(m)) == 1


def test_fvector_from_covers():
    # the face poset of a square: 4 vertices, 4 edges, 1 face
    covers = [(0, 4), (1, 4), (1, 5), (2, 5), (2, 6), (3, 6), (3, 7), (0, 7)]
    covers += [(e, 8) for e in range(4, 8)]
    assert workloads.fvector_from_covers(9, covers) == (4, 4, 1)
    with pytest.raises(ValueError):
        workloads.fvector_from_covers(2, [(0, 1), (1, 0)])


def test_multiplihedron_checks():
    ok = workloads.check_multipl_fvector(6, 1, "322 841 788 313 46 1\n")
    assert ok is None
    assert workloads.check_multipl_fvector(6, 1, "321 841 788 313 46 1\n")
    assert workloads.check_multipl_fvector(6, 1, "322 841 788 313 46 2\n")
    dot = "\n".join([
        "digraph hasse {",
        "  { rank=same; n0; n1; }",
        "  { rank=same; n2; }",
        "}",
    ])
    assert workloads.check_multipl_dot(2, 1, dot) is None
    assert workloads.check_multipl_dot(3, 1, dot)


# --- workloads --------------------------------------------------------------


def test_ops_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.ops_for(name, 7) == workloads.ops_for(name, 7)
        ops = workloads.ops_for(name, 7)
        assert len(ops) == len(workloads.WORKLOADS[name])
        for op in ops:
            assert (op.m, op.n) in op.slot.splits


def test_seeds_pick_both_mirror_splits():
    keys = {op.key for seed in range(20) for op in workloads.ops_for("kernel", seed)}
    assert "verify thmc -m 4 -n 3" in keys and "verify thmc -m 3 -n 4" in keys


def test_every_golden_op_has_a_golden():
    goldens = workloads.load_goldens()
    for op in workloads.all_ops():
        assert (op.slot.text is None) == (op.key in goldens), op.key


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# --- running and classifying ops --------------------------------------------

FVECTOR_32 = workloads.Op(workloads.WORKLOADS["faces"][0], 3, 2)


def classify(launcher, code, op=FVECTOR_32, timeout=60):
    child = run.run_child(launcher, python(code), timeout)
    return child, run.classify(child, workloads.check_stdout(op, child.stdout, {}))


def test_expected_answer_is_ok(launcher):
    _, (kind, detail) = classify(launcher, "print('6 6 1')")
    assert (kind, detail) == ("ok", "")


def test_wrong_stdout_is_wrong(launcher):
    _, (kind, detail) = classify(launcher, "print('6 6 2')")
    assert kind == "wrong" and "6 6 2" in detail


def test_verification_failure_is_wrong(launcher):
    _, (kind, detail) = classify(launcher, "print('FAILED'); raise SystemExit(1)")
    assert kind == "wrong" and detail.startswith("exit 1")


def test_crash_reports_the_exception_line(launcher):
    child, (kind, detail) = classify(
        launcher, "raise RecursionError('maximum recursion depth exceeded')")
    assert child.code == 1
    assert kind == "crash"
    assert detail == "exit 1: RecursionError: maximum recursion depth exceeded"


def test_usage_error_is_refused(launcher):
    _, (kind, _) = classify(launcher, "raise SystemExit(2)")
    assert kind == "refused"


def test_signal_is_a_crash(launcher):
    _, (kind, detail) = classify(launcher, "import os; os.kill(os.getpid(), 9)")
    assert (kind, detail) == ("crash", "killed by signal 9")


def test_timeout_kills_the_op(launcher):
    child, (kind, _) = classify(launcher, "import time; time.sleep(60)", timeout=0.5)
    assert kind == "timeout"
    assert child.timed_out and child.wall_s < 10


def test_peak_rss_is_the_op_own(launcher):
    ballast = bytearray(300 << 20)
    ballast[::4096] = b"\x01" * len(ballast[::4096])
    small = run.run_child(launcher, python("pass"), 60)
    big = run.run_child(launcher, python("b = bytearray(200 << 20); b[::4096] = b'1' * len(b[::4096])"), 60)
    del ballast
    assert small.peak_rss_mb < 100
    assert big.peak_rss_mb > 200
    assert big.cpu_s > 0


def test_large_stdout_is_read_completely(launcher):
    child = run.run_child(launcher, python("print('x' * (8 << 20))"), 60)
    assert len(child.stdout) == (8 << 20) + 1


# --- tracing ------------------------------------------------------------------


def test_self_times_subtract_direct_children():
    spans = [
        ["cli.self", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["a", 5.0, 6.0, 0],
    ]
    selfs = run.self_times(spans)
    assert selfs == {"cli.self": 6.0, "a": 3.0, "b": 1.0}
    assert sum(selfs.values()) == 10.0


def test_tracer_patches_every_binding_and_restores_them():
    import biassoc
    from biassoc import leveled, multipli, posets, zones

    original = zones.enumerate_zone_pairs
    pairs = leveled.enumerate_leveled_pairs
    assert multipli.enumerate_zone_pairs is original
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = zones.enumerate_zone_pairs
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert multipli.enumerate_zone_pairs is wrapped
        assert biassoc.enumerate_zone_pairs is wrapped
        assert zones.enumerate_leveled_pairs.__wrapped__ is pairs
        assert leveled.enumerate_leveled_pairs is zones.enumerate_leveled_pairs
        assert posets.FinitePoset.covers.__wrapped__ is not None

        multipli.enumerate_diaphragms.__wrapped__.cache_clear()
        original.cache_clear()
        t.call("cli.self", multipli.enumerate_diaphragms, 3)
        names = [span[0] for span in t.spans]
        assert names[:3] == ["cli.self", "multipli.enumerate", "zones.enumerate"]
        assert [span[3] for span in t.spans[:3]] == [-1, 0, 1]
        assert t.counts["zones.classes"] == len(original(3, 2))
    finally:
        t.uninstall()
    assert zones.enumerate_zone_pairs is original
    assert multipli.enumerate_zone_pairs is original
    assert "__wrapped__" not in vars(posets.FinitePoset.covers)


def test_traced_op_matches_untraced_and_accounts_for_its_time(launcher):
    op = workloads.Op(workloads.WORKLOADS["verify"][1], 3, 2)
    plain = run.run_op(op, launcher, {}, 60, traced=False)
    traced = run.run_op(op, launcher, {}, 60, traced=True)
    assert plain.kind == traced.kind == "ok"
    assert plain.child.stdout == traced.child.stdout
    assert traced.child.stderr == b""
    spans = traced.trace["spans"]
    names = {span[0] for span in spans}
    assert {"cli.self", "multipli.propd", "posets.isomorphic", "zones.order",
            "multipli.order", "posets.validate"} <= names
    root = spans[0][2] - spans[0][1]
    assert sum(run.self_times(spans).values()) == pytest.approx(root, rel=1e-9)
    layers = run.layer_metrics([traced])
    assert layers["multipli.propd_s"] > 0
    assert layers["posets.elements"] > 0
    assert layers["cli.stdout_bytes"] == len(traced.child.stdout)


def test_traced_crash_keeps_its_traceback(launcher):
    code = (
        "import sys; sys.path.insert(0, %r); import biassoc.cli, tracer\n"
        "def run(argv):\n"
        "    raise RecursionError('maximum recursion depth exceeded')\n"
        "biassoc.cli.run = run\n"
        "tracer.main([])\n" % str(run.TRACER.parent)
    )
    child = run.run_child(launcher, python(code), 60)
    stderr, trace = run.split_trace(child.stderr)
    assert trace is not None and trace["spans"][0][0] == "cli.self"
    assert child.code == 1
    kind, detail = run.classify(
        run.Child(child.code, False, 0, 0, 0, b"", stderr), None)
    assert (kind, detail) == (
        "crash", "exit 1: RecursionError: maximum recursion depth exceeded")


def test_truncated_trace_line_is_dropped():
    marker = tracer.TRACE_MARKER.encode()
    assert run.split_trace(b"x\n" + marker + b'{"spans": [') == (b"x\n", None)


def test_benchmark_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "faces", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
