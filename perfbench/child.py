"""Entry of one op process: import skelpoly, run `skelpoly.cli.main`, report.

Usage: child.py INFO_FD MODE SRC_DIR ARGV...

MODE is `run`, `trace`, or `probe` (import only, then report).

The program's stdout is left untouched.  After `main` returns, one JSON
record goes to INFO_FD: monotonic timestamps of import done, main start and
main end, the peak resident set, any exception, and in trace mode the span
table, counters and `cache_info()` of the tableaux and poly caches at op end.

The traced mode installs its wrappers from outside the program, after the
import, so per-layer time starts at `skelpoly.cli.main`.  It wraps every
public function of a skelpoly module at each place another skelpoly module
imported it, the MultiPoly/UniPoly methods and IndexSet construction.  Spans
are aggregated per (function, parent) on a span stack, which keeps self time
exact: a span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import os
import sys
import time
import traceback

LAYERS = ("compositions", "tableaux", "crystal", "rsk", "poly", "verify", "cli")


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = [["op", 0]]  # [span name, child ns]
        self.spans: dict[tuple[str, str], list[int]] = {}  # -> [calls, total ns, self ns]
        self.counts: dict[str, int] = {}
        self.qsym_inputs: set = set()
        self.perm_counters: list = []  # one itertools.count per all_permutations call

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def run(self, name: str, fn, *args, **kwargs):
        stack = self.stack
        parent = stack[-1]
        frame = [name, 0]
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter_ns() - start
            stack.pop()
            parent[1] += elapsed
            rec = self.spans.get((name, parent[0]))
            if rec is None:
                rec = self.spans[(name, parent[0])] = [0, 0, 0]
            rec[0] += 1
            rec[1] += elapsed
            rec[2] += elapsed - frame[1]

    def span(self, name: str, fn):
        run = self.run

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return run(name, fn, *args, **kwargs)

        return wrapper

    def table(self) -> list:
        return [[name, parent, *rec] for (name, parent), rec in self.spans.items()]


def _rebind(mods: dict, old, new) -> None:
    """Point the defining module and every module that imported `old` at `new`."""
    for mod in mods.values():
        for name, obj in list(vars(mod).items()):
            if obj is old:
                setattr(mod, name, new)


def _install_counters(tracer: Tracer, mods: dict) -> None:
    """Counting hooks, installed wherever the counted function is bound, so
    calls from inside its own module count too."""
    tableaux, rsk, poly, crystal = mods["tableaux"], mods["rsk"], mods["poly"], mods["crystal"]

    def returning_len(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.count(name, len(result))
            return result
        return wrapper

    def calls(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)
        return wrapper

    for fn in (tableaux.semistandard_tableaux, tableaux.semistandard_with_weight):
        _rebind(mods, fn, returning_len("tableaux.enumerated", fn))
    _rebind(mods, tableaux.minimal_parsing, calls("tableaux.parsings", tableaux.minimal_parsing))
    for fn in (crystal.lowering_operator, crystal.raising_operator):
        _rebind(mods, fn, calls("crystal.operator_calls", fn))

    qy = tableaux.quasi_yamanouchi_tableaux

    @functools.wraps(qy)
    def qy_counted(shape):
        before = tracer.counts.get("tableaux.enumerated", 0)
        result = qy(shape)
        enumerated = tracer.counts.get("tableaux.enumerated", 0) - before
        if enumerated:
            tracer.count("tableaux.qy_enumerated", enumerated)
            tracer.count("tableaux.qy_returned", len(result))
        return result

    _rebind(mods, qy, qy_counted)

    qsym = poly.qsym_fundamental

    @functools.wraps(qsym)
    def qsym_counted(alpha, num_vars):
        tracer.count("poly.qsym_calls")
        tracer.qsym_inputs.add((tuple(alpha), num_vars))
        return qsym(alpha, num_vars)

    _rebind(mods, qsym, qsym_counted)

    perms = rsk.all_permutations

    @functools.wraps(perms)
    def perms_counted(n):
        # zip advances the counter only after the permutation iterator gave
        # an item, so next(counter) at op end is the number consumed.  All
        # of it runs in C, so no per-permutation Python call is added; the
        # lazy iteration is charged to the layer that consumes it.
        counter = itertools.count()
        tracer.perm_counters.append(counter)
        return map(operator.itemgetter(0), zip(perms(n), counter))

    _rebind(mods, perms, perms_counted)

    build = crystal.build_crystal

    @functools.wraps(build)
    def build_counted(shape, bound):
        graph = build(shape, bound)
        tracer.count("crystal.vertices", len(graph.vertices))
        tracer.count("crystal.edges", len(graph.edges))
        return graph

    _rebind(mods, build, build_counted)

    multi = poly.MultiPoly
    add, mul = multi.__add__, multi.__mul__

    def add_counted(self, other):
        tracer.count("poly.add_calls")
        tracer.count("poly.terms_touched", len(self.terms) + len(other.terms))
        return add(self, other)

    def mul_counted(self, other):
        tracer.count("poly.mul_calls")
        other_len = 1 if isinstance(other, int) else len(other.terms)
        tracer.count("poly.terms_touched", len(self.terms) * other_len)
        return mul(self, other)

    multi.__add__ = functools.wraps(add)(add_counted)
    multi.__mul__ = functools.wraps(mul)(mul_counted)

    run_checks = mods["verify"].run_checks
    _rebind(mods, run_checks, returning_len("verify.jobs", run_checks))


def _install_spans(tracer: Tracer, mods: dict) -> None:
    """Span wrappers at every cross-module import and on the layer classes."""
    originals = {}  # id of the defining module's object -> (layer, name)
    for layer, mod in mods.items():
        for name, obj in vars(mod).items():
            if not name.startswith("_") and callable(obj) and not isinstance(obj, type):
                if getattr(obj, "__module__", None) == mod.__name__:
                    originals[id(obj)] = (layer, name)
    wrapped = {}
    for layer, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            owner = originals.get(id(obj))
            if owner is None or owner[0] == layer:
                continue
            if id(obj) not in wrapped:
                wrapped[id(obj)] = tracer.span(f"{owner[0]}.{owner[1]}", obj)
            setattr(mod, name, wrapped[id(obj)])

    def wrap_class(cls, layer):
        for name, attr in list(vars(cls).items()):
            span_name = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, classmethod):
                setattr(cls, name, classmethod(tracer.span(span_name, attr.__func__)))
            elif callable(attr) and not isinstance(attr, type):
                setattr(cls, name, tracer.span(span_name, attr))

    wrap_class(mods["poly"].MultiPoly, "poly")
    wrap_class(mods["poly"].UniPoly, "poly")
    index_set = mods["compositions"].IndexSet
    index_set.__init__ = tracer.span("compositions.IndexSet.__init__", index_set.__init__)


def _install(tracer: Tracer) -> None:
    mods = {layer: sys.modules[f"skelpoly.{layer}"] for layer in LAYERS}
    # Counters first: the span wrappers then wrap the counting versions, so
    # every call is counted once whichever module made it.
    _install_counters(tracer, mods)
    _install_spans(tracer, mods)


def _cache_snapshot() -> dict:
    """[hits, misses] summed over each layer's functools caches."""
    out = {}
    for layer in ("tableaux", "poly"):
        mod = sys.modules[f"skelpoly.{layer}"]
        hits = misses = 0
        for obj in vars(mod).values():
            target = obj
            while not hasattr(target, "cache_info") and hasattr(target, "__wrapped__"):
                target = target.__wrapped__
            if hasattr(target, "cache_info") and getattr(target, "__module__", None) == mod.__name__:
                info = target.cache_info()
                hits += info.hits
                misses += info.misses
        out[layer] = [hits, misses]
    return out


def _peak_rss_kb() -> int | None:
    """This process's resident-set high-water mark since its exec (Linux)."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main() -> int:
    info_fd = int(sys.argv[1])
    mode = sys.argv[2]
    sys.path.insert(0, sys.argv[3])
    argv = sys.argv[4:]
    tracer = Tracer() if mode == "trace" else None
    import skelpoly.cli

    t_import = time.monotonic_ns()
    if tracer is not None:
        _install(tracer)
    record: dict = {"t_import": t_import, "error": None}
    if mode == "probe":
        with os.fdopen(info_fd, "w") as info:
            json.dump(record, info)
        return 0
    rc = 0
    record["t_main0"] = time.monotonic_ns()
    try:
        if tracer is not None:
            rc = tracer.run("cli.main", skelpoly.cli.main, argv)
        else:
            rc = skelpoly.cli.main(argv)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            rc = 1
        else:
            rc = exc.code or 0
    except Exception:
        record["error"] = traceback.format_exc()
        rc = 1
    sys.stdout.flush()
    record["t_main1"] = time.monotonic_ns()
    record["peak_rss_kb"] = _peak_rss_kb()
    if tracer is not None:
        tracer.count("rsk.perms_enumerated", sum(next(c) for c in tracer.perm_counters))
        record["trace"] = {
            "spans": tracer.table(),
            "counts": tracer.counts,
            "qsym_distinct": len(tracer.qsym_inputs),
            "caches": _cache_snapshot(),
        }
    with os.fdopen(info_fd, "w") as info:
        json.dump(record, info)
    return rc


if __name__ == "__main__":
    sys.exit(main())
