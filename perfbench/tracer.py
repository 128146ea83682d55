"""Run one biassoc CLI op with per-layer spans.

    PYTHONPATH=src python3 perfbench/tracer.py <biassoc argv...>

behaves like `python3 -m biassoc.cli <argv...>` (same stdout, exit code
and traceback), and also writes one line to stderr, before any
traceback:

    <TRACE_MARKER>{"import_s": ..., "tracer_s": ..., "counts": {...},
                   "spans": [[name, start, end, parent], ...]}

A span is recorded around every call into the public functions listed
in LAYERS and the FinitePoset methods in METHODS; `parent` is the index
of the enclosing span, and the root span "cli.self" covers `cli.run`.  Spans
stay in memory and are written once, at exit.  Counts are read from the
arguments and return values of the wrapped calls; the tracer calls no
program code the op did not call.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

TRACE_MARKER = "\x1eperfbench-trace "

# (span name, module, attribute).  Every binding of the same function
# object in any biassoc module is patched, so `from .zones import
# enumerate_zone_pairs` in multipli is traced as well.
LAYERS = (
    ("trees.order", "biassoc.trees", "face_poset_associahedron"),
    ("trees.enumerate", "biassoc.trees", "enumerate_trees"),
    ("leveled.order", "biassoc.leveled", "bipermutahedron_poset"),
    ("leveled.enumerate", "biassoc.leveled", "enumerate_leveled_pairs"),
    ("leveled.opet", "biassoc.leveled", "opet_iso_check"),
    ("zones.order", "biassoc.zones", "biassociahedron_poset"),
    ("zones.enumerate", "biassoc.zones", "enumerate_zone_pairs"),
    ("multipli.order", "biassoc.multipli", "multiplihedron_poset"),
    ("multipli.enumerate", "biassoc.multipli", "enumerate_painted"),
    ("multipli.enumerate", "biassoc.multipli", "enumerate_diaphragms"),
    ("multipli.propd", "biassoc.multipli", "prop_d_check"),
    ("posets.isomorphic", "biassoc.posets", "isomorphic"),
    ("propterms.varpi", "biassoc.propterms", "varpi"),
    ("propterms.canonical", "biassoc.propterms", "term_key"),
    ("propterms.thmc", "biassoc.propterms", "theorem_c_check"),
)

# (span name, FinitePoset method)
METHODS = (
    ("posets.validate", "__post_init__"),
    ("posets.covers", "covers"),
    ("posets.ranks", "ranks"),
    ("posets.derive", "fvector"),
    ("posets.derive", "is_graded"),
    ("posets.derive", "euler"),
    ("posets.derive", "dot"),
    ("posets.derive", "to_json"),
)

COUNT_NAMES = (
    "posets.elements",
    "posets.covers",
    "posets.leq_bytes_computed",
    "leveled.pairs",
    "zones.classes",
    "propterms.terms",
    "trees.contraction_cache_entries",
)


class Tracer:
    """The spans and counts of one traced process."""

    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._counted = set()
        self.patched = []  # (owner, attribute, original)

    def call(self, name, fn, *args, **kwargs):
        """Call fn inside a span; the span is closed even if fn raises."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1]
        self.stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[index] = (name, start, end, parent)

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                count(self, args, result)
            return result

        return wrapper

    def count_once(self, name, result):
        """Count a cached result once, however often it is returned."""
        if id(result) not in self._counted:
            self._counted.add(id(result))
            self.counts[name] += len(result)

    def install(self):
        """Patch every biassoc binding of the LAYERS functions and the
        METHODS of FinitePoset."""
        from biassoc import posets

        wrappers = {}
        for name, module, attribute in LAYERS:
            fn = getattr(sys.modules[module], attribute)
            wrappers[id(fn)] = (fn, self.wrap(name, fn, COUNTERS.get(name)))
        modules = [
            mod for key, mod in list(sys.modules.items())
            if key == "biassoc" or key.startswith("biassoc.")
        ]
        for mod in modules:
            for attribute, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attribute, hit[1])
        cls = posets.FinitePoset
        for name, method in METHODS:
            fn = cls.__dict__[method]
            self._patch(cls, method, self.wrap(name, fn, COUNTERS.get(name)))

    def _patch(self, owner, attribute, wrapper):
        self.patched.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def uninstall(self):
        for owner, attribute, original in reversed(self.patched):
            setattr(owner, attribute, original)
        self.patched.clear()

    def dump(self, import_s, install_s):
        """The trace as one JSON line.  `tracer_s` is the time the tracer
        added to the op: patching, the per-span cost times the number of
        spans, measuring that cost, and encoding the spans."""
        from biassoc import trees

        start = perf_counter()
        self.counts["trees.contraction_cache_entries"] = (
            trees.contraction_map.cache_info().currsize
        )
        per_span = span_cost()
        spans = json.dumps(self.spans, separators=(",", ":"))
        tracer_s = install_s + per_span * len(self.spans) + perf_counter() - start
        head = json.dumps({"import_s": import_s, "tracer_s": tracer_s,
                           "counts": self.counts})
        return head[:-1] + ', "spans": ' + spans + "}"


def span_cost(calls=2000) -> float:
    """Seconds a call through a tracer wrapper costs more than a plain call."""

    def noop():
        pass

    wrapped = Tracer().wrap("probe", noop)
    start = perf_counter()
    for _ in range(calls):
        wrapped()
    middle = perf_counter()
    for _ in range(calls):
        noop()
    return max(0.0, (2 * middle - start - perf_counter()) / calls)


def _count_validate(tracer, args, result):
    size = len(args[0].elements)
    tracer.counts["posets.elements"] += size
    tracer.counts["posets.leq_bytes_computed"] += size * size


def _count_covers(tracer, args, result):
    tracer.counts["posets.covers"] += len(result)


def _count_varpi(tracer, args, result):
    tracer.counts["propterms.terms"] += 1


COUNTERS = {
    "posets.validate": _count_validate,
    "posets.covers": _count_covers,
    "leveled.enumerate": lambda t, a, r: t.count_once("leveled.pairs", r),
    "zones.enumerate": lambda t, a, r: t.count_once("zones.classes", r),
    "propterms.varpi": _count_varpi,
}


def main(argv) -> int:
    start = perf_counter()
    import biassoc.cli

    import_s = perf_counter() - start
    tracer = Tracer()
    tracer.install()
    install_s = perf_counter() - start - import_s
    try:
        return tracer.call("cli.self", biassoc.cli.run, argv)
    finally:
        sys.stdout.flush()
        sys.stderr.write(TRACE_MARKER + tracer.dump(import_s, install_s) + "\n")
        sys.stderr.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
