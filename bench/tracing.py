"""Spans around the program's layer entry points, installed from outside.

``install`` replaces each entry point named in ``TARGETS`` with a wrapper,
in the module that defines it and in every ``ttr`` module that imported it
by name, so calls made through any of those names are recorded.  No program
file is edited.  A name that no longer exists is reported as absent, and the
metrics fed only by absent names are left out instead of failing the run.

A span is ``[target, start, end, parent, op]``; spans stay in memory until
the run ends.  Every ``_s`` layer metric is *self* time: a span's duration
minus the time its child spans cover, so the layers of one pass add up.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
from collections import Counter
from time import perf_counter
from typing import Callable, NamedTuple


def _calls(metric: str) -> Callable[[tuple, object], dict]:
    return lambda args, result: {metric: 1}


def _cnf_size(args, result) -> dict:
    cnf = args[0]
    return {"cnf.vars": cnf.num_vars, "cnf.clauses": cnf.num_clauses}


def _sat_status(args, result) -> dict:
    return {"solver.calls": 1, "solver.unknown": int(result[0].value == "UNKNOWN")}


def _cdcl_counts(args, result) -> dict:
    return {
        "cdcl.calls": 1,
        "cdcl.conflicts": result.conflicts,
        "cdcl.decisions": result.decisions,
        "cdcl.propagations": result.propagations,
    }


class Target(NamedTuple):
    module: str
    name: str  # attribute path inside the module, e.g. "_Solver.solve"
    metric: str  # self-time metric the spans feed
    counters: tuple[str, ...] = ()
    hook: Callable[[tuple, object], dict] | None = None  # per call, or per item of a generator


TARGETS: tuple[Target, ...] = (
    Target("ttr.cli", "main", "cli.self_s"),
    Target("ttr.decide", "compute_T", "decide.self_s"),
    Target("ttr.decide", "compute_L", "decide.self_s"),
    Target("ttr.decide", "decide_forces", "decide.self_s", ("decide.questions",), _calls("decide.questions")),
    Target("ttr.decide", "_decide_by_enumeration", "decide.oracle_s",
           ("decide.oracle_calls",), _calls("decide.oracle_calls")),
    Target("ttr.solver", "solve", "solver.self_s", ("cnf.vars", "cnf.clauses"), _cnf_size),
    Target("ttr.solver", "run_sat", "solver.self_s", ("solver.calls", "solver.unknown"), _sat_status),
    Target("ttr.cdcl", "solve_clauses", "cdcl.model_check_s",
           ("cdcl.calls", "cdcl.conflicts", "cdcl.decisions", "cdcl.propagations"), _cdcl_counts),
    Target("ttr.cdcl", "_Solver.__init__", "cdcl.load_s"),
    Target("ttr.cdcl", "_Solver.solve", "cdcl.search_s"),
    Target("ttr.cnf", "build_cnf", "cnf.build_s"),
    Target("ttr.cnf", "add_ap_blocking", "cnf.ap_block_s"),
    Target("ttr.cnf", "add_rot180_symmetry", "cnf.rot180_s"),
    Target("ttr.cnf", "decode_model", "cnf.decode_s"),
    Target("ttr.enumerator", "enumerate_tilings", "enumerator.enumerate_s",
           ("enumerator.tilings",), _calls("enumerator.tilings")),
    Target("ttr.enumerator", "count_tilings", "enumerator.count_s"),
    Target("ttr.grid", "validate", "grid.validate_s", ("grid.validate_calls",), _calls("grid.validate_calls")),
    Target("ttr.grid", "read_tiling", "grid.io_s"),
    Target("ttr.grid", "write_tiling", "grid.io_s"),
    Target("ttr.grid", "cut_cornerless_ok", "grid.cut_check_s"),
    Target("ttr.aps", "longest_ap", "aps.longest_ap_s"),
    Target("ttr.aps", "enumerate_aps", "aps.enumerate_aps_s", ("aps.calls",), _calls("aps.calls")),
    Target("ttr.chains", "build_chain_graph", "chains.build_s"),
    Target("ttr.chains", "chain_to_tiling", "chains.to_tiling_s"),
    Target("ttr.width4", "decompose", "width4.decompose_s"),
    Target("ttr.render", "render_svg", "render.svg_s"),
    Target("ttr.vdw", "_longest_apfree_length", "vdw.backtrack_s"),
    Target("ttr.vdw", "_forced_brute", "vdw.brute_s"),
    Target("ttr.vdw", "_forced_sat", "vdw.sat_s"),
)

#: Counters that must repeat exactly from one traced pass to the next.
EXACT = ("cnf.vars", "cnf.clauses", "cdcl.conflicts", "cdcl.decisions", "cdcl.propagations",
         "enumerator.tilings")

TIME_METRICS = tuple(dict.fromkeys(t.metric for t in TARGETS))
COUNT_METRICS = tuple(dict.fromkeys(c for t in TARGETS for c in t.counters))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = ""
        self._stack: list[int] = []

    def enter(self, target: Target) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([target, perf_counter(), 0.0, parent, self.op])
        self._stack.append(len(self.spans) - 1)

    def leave(self) -> None:
        self.spans[self._stack.pop()][2] = perf_counter()

    def take(self) -> tuple[list[list], Counter]:
        """The spans and counts recorded since the last call."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def _wrap(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    hook = target.hook
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def generator(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    tracer.enter(target)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.leave()
                    if hook:
                        tracer.counts.update(hook(args, item))
                    yield item
            finally:
                it.close()
        return generator

    @functools.wraps(fn)
    def call(*args, **kwargs):
        tracer.enter(target)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave()
        if hook:
            tracer.counts.update(hook(args, result))
        return result
    return call


def install(tracer: Tracer) -> tuple[Callable[[], None], set[Target]]:
    """Wrap every target; returns (undo, absent targets)."""
    patched: list[tuple[object, str, object]] = []
    absent: set[Target] = set()
    for target in TARGETS:
        try:
            owner = importlib.import_module(target.module)
        except ImportError:
            absent.add(target)
            continue
        *path, attr = target.name.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            absent.add(target)
            continue
        wrapper = _wrap(tracer, target, original)
        owners = [owner]
        if not path:  # module-level function: also rebind where it was imported by name
            owners += [m for name, m in list(sys.modules.items())
                       if (name == "ttr" or name.startswith("ttr.")) and m is not owner
                       and getattr(m, attr, None) is original]
        for o in owners:
            setattr(o, attr, wrapper)
            patched.append((o, attr, original))

    def undo() -> None:
        for o, attr, original in reversed(patched):
            setattr(o, attr, original)

    return undo, absent


def absent_metrics(absent: set[Target]) -> set[str]:
    """Metrics whose every feeding target is absent."""
    present = {t.metric for t in TARGETS if t not in absent}
    present |= {c for t in TARGETS if t not in absent for c in t.counters}
    return (set(TIME_METRICS) | set(COUNT_METRICS)) - present


def pass_metrics(spans: list[list], counts: Counter) -> dict[str, float]:
    """Self time per layer metric plus the counters, for one traced pass."""
    covered = [0.0] * len(spans)
    for _target, start, end, parent, _op in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = dict.fromkeys(TIME_METRICS, 0.0)
    for (target, start, end, _parent, _op), child in zip(spans, covered):
        out[target.metric] += end - start - child
    for name in COUNT_METRICS:
        out[name] = counts[name]
    search = out["cdcl.search_s"]
    out["cdcl.propagations_per_s"] = counts["cdcl.propagations"] / search if search > 0 else 0.0
    return out


def combine(passes: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each time over traced passes, counters from the first pass.

    Returns the metrics and the exact counters that differed between passes.
    """
    out = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    out.update({name: passes[0][name] for name in COUNT_METRICS})
    differing = [name for name in EXACT if len({p[name] for p in passes}) > 1]
    return out, differing
