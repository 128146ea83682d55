"""Benchmark of the biassoc command-line tool.

    python3 perfbench/run.py --workload faces|kernel|verify --seed N \
        --seconds S --trace 0|1

Every op is one fresh `python3 -m biassoc.cli ...` process importing
the checkout's src/, because a CLI user pays every cache cold on each
call.  A single client runs one op at a time (a closed loop).  One pass
runs every op of the workload once; passes repeat until S seconds have
gone by (at least one pass), and each metric is the median over passes.
Each op's wall time, CPU time and peak RSS come from the rusage of that
child alone (os.wait4).  Every op's stdout is checked against its
expected answer (workloads.py).

With --trace 1 every op runs under tracer.py instead, and the
per-layer metrics are self times and counts summed over a traced pass.
The end-to-end metrics come only from untraced runs.  The tracer's
overhead is the time it measures itself adding to each op, not the
difference from an untraced pass: on a shared machine the wall time of
one pass varies by more than the tracer costs.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics (the end-to-end metrics, or with
--trace 1 the per-layer ones).  `failed` counts ops that did not give
their expected answer: a nonzero exit, a timeout, a crash or wrong
stdout.  `correct` is false when an op gave a wrong answer or was
refused; a crash or timeout gives no answer and only counts as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import workloads
from tracer import COUNT_NAMES, LAYERS, METHODS, TRACE_MARKER

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().with_name("tracer.py")

OP_TIMEOUT_S = 120.0
# A run must exit within 180 s; ops still running at this point are
# killed and count as timed out.
RUN_DEADLINE_S = 170.0
SETUP_SAMPLES = 5

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("op_geomean_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
SPAN_NAMES = tuple(dict.fromkeys(
    [name for name, _, _ in LAYERS] + [name for name, _ in METHODS] + ["cli.self"]
))
PER_LAYER = (
    tuple((name + "_s", "s") for name in SPAN_NAMES)
    + tuple(
        (name, "bytes" if name.endswith("_bytes_computed") else "count")
        for name in COUNT_NAMES
    )
    + (("cli.stdout_bytes", "bytes"), ("setup.import_s", "s"),
       ("trace.overhead_ratio", "ratio"))
)
TRACEBACK = b"Traceback (most recent call last):"


@dataclass
class Child:
    code: int  # exit code; minus the signal number if killed by a signal
    timed_out: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes


class Launcher:
    """Starts every op from a small process forked before the benchmark
    holds any data, and reports the rusage of each op alone (os.wait4).

    A child's ru_maxrss starts from the peak RSS of the process that
    spawned it (subprocess uses vfork, so the child runs in the parent's
    memory until exec).  Ops spawned from the benchmark itself would
    report at least the benchmark's own peak, which grows with the
    stdout it reads back.
    """

    def __init__(self, env):
        self._sock, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        self.pid = os.fork()
        if self.pid == 0:
            self._sock.close()
            code = 0
            try:
                _serve(theirs, env)
            except BaseException:
                traceback.print_exc()
                code = 1
            os._exit(code)
        theirs.close()

    def start(self, cmd, stdout_fd, stderr_fd) -> int:
        socket.send_fds(self._sock, [json.dumps(cmd).encode()], [stdout_fd, stderr_fd])
        return self.receive()["pid"]

    def receive(self) -> dict:
        return json.loads(self._sock.recv(1 << 16))

    def fileno(self) -> int:
        return self._sock.fileno()

    def close(self):
        self._sock.close()
        os.waitpid(self.pid, 0)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _serve(sock, env):
    """Launcher loop: start each requested command with the passed
    stdout/stderr, send its pid, wait for it and send its exit status
    and rusage.  Ends when the benchmark closes the socket."""
    while True:
        message, fds, _, _ = socket.recv_fds(sock, 1 << 16, 2)
        if not message:
            return
        try:
            proc = subprocess.Popen(
                json.loads(message), stdin=subprocess.DEVNULL,
                stdout=fds[0], stderr=fds[1], env=env, cwd=ROOT,
            )
        finally:
            for fd in fds:
                os.close(fd)
        sock.send(json.dumps({"pid": proc.pid}).encode())
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        sock.send(json.dumps({
            "code": proc.returncode,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kib": usage.ru_maxrss,
        }).encode())


def run_child(launcher, cmd, timeout) -> Child:
    """Run cmd to completion through the launcher, killing it after
    `timeout` seconds."""
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    start = time.perf_counter()
    try:
        pid = launcher.start(cmd, out_w, err_w)
    finally:
        os.close(out_w)
        os.close(err_w)
    chunks = {out_r: [], err_r: []}
    timed_out = False
    result = None
    with selectors.DefaultSelector() as sel:
        for fd in chunks:
            sel.register(fd, selectors.EVENT_READ)
        sel.register(launcher, selectors.EVENT_READ)
        try:
            while sel.get_map():
                wait = None
                if result is None and not timed_out:
                    wait = start + timeout - time.perf_counter()
                    if wait <= 0:
                        _kill(pid)
                        timed_out = True
                        continue
                for key, _ in sel.select(wait):
                    if key.fileobj is launcher:
                        result = launcher.receive()
                        sel.unregister(launcher)
                        continue
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fd)
        except BaseException:
            if result is None:
                _kill(pid)
                launcher.receive()
            raise
        finally:
            os.close(out_r)
            os.close(err_r)
    return Child(
        code=result["code"],
        timed_out=timed_out,
        wall_s=time.perf_counter() - start,
        cpu_s=result["cpu_s"],
        peak_rss_mb=result["maxrss_kib"] / 1024.0,  # ru_maxrss is in KiB on Linux
        stdout=b"".join(chunks[out_r]),
        stderr=b"".join(chunks[err_r]),
    )


def _kill(pid):
    # The op may have ended, and its exit be on its way from the launcher.
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)


def last_line(data: bytes) -> str:
    lines = data.decode("utf-8", "replace").strip().splitlines()
    return lines[-1].strip() if lines else ""


def classify(child: Child, error: Optional[str]) -> tuple:
    """(kind, detail) of one op.  kind is ok, wrong, refused, crash or
    timeout.  Exit code 1 means "verification failed" only without a
    traceback: a crash also exits 1, so exit codes alone cannot tell."""
    if child.timed_out:
        return "timeout", "killed after %.1f s" % child.wall_s
    if child.code < 0:
        return "crash", "killed by signal %d" % -child.code
    if TRACEBACK in child.stderr or child.code not in (0, 1, 2):
        return "crash", "exit %d: %s" % (child.code, last_line(child.stderr))
    if child.code == 2:
        return "refused", "exit 2: %s" % last_line(child.stderr)
    if child.code == 0 and error is None:
        return "ok", ""
    return "wrong", "exit %d: %s" % (child.code, error or last_line(child.stdout))


@dataclass
class OpRun:
    op: workloads.Op
    child: Child
    kind: str
    detail: str
    trace: Optional[dict] = None


def split_trace(stderr: bytes) -> tuple:
    """Remove the tracer's line from stderr and decode it (None if the op
    was killed before writing all of it)."""
    marker = TRACE_MARKER.encode()
    at = stderr.find(marker)
    if at < 0:
        return stderr, None
    end = stderr.find(b"\n", at)
    if end < 0:
        return stderr[:at], None
    return stderr[:at] + stderr[end + 1:], json.loads(stderr[at + len(marker):end])


def run_op(op, launcher, goldens, timeout, traced) -> OpRun:
    if traced:
        cmd = [sys.executable, str(TRACER)] + op.argv
    else:
        cmd = [sys.executable, "-m", "biassoc.cli"] + op.argv
    child = run_child(launcher, cmd, timeout)
    trace = None
    if traced:
        child.stderr, trace = split_trace(child.stderr)
    kind, detail = classify(child, workloads.check_stdout(op, child.stdout, goldens))
    return OpRun(op, child, kind, detail, trace)


def run_passes(ops, launcher, goldens, seconds, deadline, traced) -> list:
    """Whole passes over ops until `seconds` have gone by (at least one)."""
    passes = []
    start = time.perf_counter()
    while not passes or (
        time.perf_counter() - start < seconds and time.perf_counter() < deadline
    ):
        passes.append([
            run_op(op, launcher, goldens,
                   min(OP_TIMEOUT_S, deadline - time.perf_counter()), traced)
            for op in ops
        ])
    return passes


def pass_metrics(runs) -> dict:
    walls = [r.child.wall_s for r in runs]
    return {
        "wall_s": sum(walls),
        "cpu_s": sum(r.child.cpu_s for r in runs),
        "op_geomean_s": math.exp(statistics.fmean(math.log(w) for w in walls)),
        "peak_rss_mb": max(r.child.peak_rss_mb for r in runs),
    }


def self_times(spans) -> dict:
    """Self time per span name: each span's duration minus the durations
    of its direct children.  spans are [name, start, end, parent] with
    parent the index of the enclosing span or -1; spans of one thread
    nest, so children never overlap."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals = {}
    for (name, _, _, _), t in zip(spans, own):
        totals[name] = totals.get(name, 0.0) + t
    return totals


def layer_metrics(runs) -> dict:
    """Per-layer totals over one traced pass."""
    out = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    tracer_s = traced_wall_s = 0.0
    for r in runs:
        out["cli.stdout_bytes"] += len(r.child.stdout)
        if r.trace is None:
            continue
        for name, t in self_times(r.trace["spans"]).items():
            out[name + "_s"] += t
        for name, value in r.trace["counts"].items():
            if name == "trees.contraction_cache_entries":
                out[name] = max(out[name], value)
            else:
                out[name] += value
        out["setup.import_s"] += r.trace["import_s"]
        tracer_s += r.trace["tracer_s"]
        traced_wall_s += r.child.wall_s
    # traced wall time over the same time without the tracer's own cost
    out["trace.overhead_ratio"] = tracer_s / max(traced_wall_s - tracer_s, 1e-9)
    return out


def median_of(dicts) -> dict:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def child_env() -> dict:
    """Environment of every op: the checkout's src/ on the path, no
    BIASSOC_THREADS, and BLAS/OpenMP threads capped at the core count."""
    env = {k: v for k, v in os.environ.items() if k != "BIASSOC_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cores
    return env


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def host_info() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s (%s)" % (blas.get("name"), blas.get("version"),
                               blas.get("openblas configuration", ""))
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "commit": git_commit(),
    }


def measure_setup(launcher) -> tuple:
    """Median cold start of a trivial verb, and the runs that failed."""
    runs = [run_op(workloads.SETUP_OP, launcher, {}, OP_TIMEOUT_S, traced=False)
            for _ in range(SETUP_SAMPLES)]
    return (statistics.median(r.child.wall_s for r in runs),
            [r for r in runs if r.kind != "ok"])


def print_pass(label, runs):
    print("%s:" % label)
    print("  %9s %9s %9s  %-7s  op" % ("wall_s", "cpu_s", "rss_mb", "outcome"))
    for r in runs:
        print("  %9.3f %9.3f %9.1f  %-7s  %s%s" % (
            r.child.wall_s, r.child.cpu_s, r.child.peak_rss_mb, r.kind,
            r.op.key, "  [%s]" % r.detail if r.detail else ""))
        if r.trace is not None:
            selfs = self_times(r.trace["spans"])
            root = sum(selfs.values())
            print("  %31s in-process %.3f s = import %.3f + layers %.3f"
                  " + cli.self %.3f" % (
                      "", r.trace["import_s"] + root, r.trace["import_s"],
                      root - selfs.get("cli.self", 0.0), selfs.get("cli.self", 0.0)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "biassoc" / "cli.py").is_file():
        print("error: no biassoc sources at %s" % SRC, file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_DEADLINE_S
    ops = workloads.ops_for(args.workload, args.seed)
    goldens = workloads.load_goldens()
    traced = bool(args.trace)
    with Launcher(child_env()) as launcher:
        # On SIGTERM, unwind so that the running op and the launcher are
        # stopped and waited for.
        signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
        print("biassoc benchmark: workload=%s seed=%d seconds=%g trace=%d" % (
            args.workload, args.seed, args.seconds, args.trace))
        print("host: %s" % json.dumps(host_info()))
        setup_failures = []
        if not traced:
            setup_s, setup_failures = measure_setup(launcher)
            print("setup: median cold start of `%s` over %d runs: %.4f s" % (
                workloads.SETUP_OP.key, SETUP_SAMPLES, setup_s))
        passes = run_passes(ops, launcher, goldens, args.seconds, deadline, traced)
    for i, runs in enumerate(passes):
        print_pass("pass %d (%s)" % (i + 1, "traced" if traced else "untraced"), runs)

    all_runs = [r for runs in passes for r in runs]
    failed = [r for r in all_runs if r.kind != "ok"]
    for r in setup_failures + failed:
        print("FAILED %s: %s %s" % (r.op.key, r.kind, r.detail))
    correct = not setup_failures and all(
        r.kind not in ("wrong", "refused") for r in all_runs)
    print("failed_share: %.4f (%d of %d ops failed)" % (
        len(failed) / len(all_runs), len(failed), len(all_runs)))

    if traced:
        values, table = median_of([layer_metrics(runs) for runs in passes]), PER_LAYER
    else:
        values = median_of([pass_metrics(runs) for runs in passes])
        values["setup_s"], table = setup_s, END_TO_END
    print("%s metrics, median of %d pass(es):" % (
        "per-layer" if traced else "end-to-end", len(passes)))
    for name, unit in table:
        print("  %-34s %14.4f %s" % (name, values[name], unit))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in table}

    print(json.dumps({
        "correct": correct,
        "attempted": len(all_runs),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
