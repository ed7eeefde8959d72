"""The ttr benchmark: one workload, end-to-end timings or a traced per-layer run.

Usage, from the repository root::

    python3 bench/run.py --workload {construct,scan,sweep,vdw} --seed N --seconds S --trace {0,1}

The workload runs in this one process, with the CLI's default ``--jobs 1``
and no extra threads; only the ``setup_s`` samples start fresh interpreters.
Passes over the workload repeat until another one would end after
``--seconds`` seconds, and every answer is checked by ``check.py``.

Pass times are in reference seconds.  On a shared host the speed of the
processor flips between fast and slow phases lasting seconds, by up to 1.8x,
and ttr's interpreter work slows with it.  So while an untraced pass runs,
a timer signal every ``PROBE_EVERY_S`` interrupts it, even in the middle of
an operation, to time a fixed interpreter-bound loop that runs no ``ttr``
code (``calibration_loop``, one "chunk").  Chunk time is left out of the
pass time, and the operation time between two chunks is scaled by
``REFERENCE_CHUNK_S`` over their mean duration (``scaled_time``): a
reference second is what the host does in one second at the speed where a
chunk takes ``REFERENCE_CHUNK_S``.  A faster program still reads
proportionally faster; what the scaling removes is the host's drift.  The
raw wall-clock figures are printed and kept in the saved result as well.

``--trace 0`` reports the end-to-end metrics with tracing off:

* ``setup_s``: median over fresh interpreters of the wall-clock time to
  ``import ttr.cli`` and call ``build_parser()``, sampled between passes so
  that the samples spread over the run (start-up is mostly process creation
  and file reads, which the probe's loop does not track, so it is not scaled);
* ``wall_s``: median reference seconds per pass;
* ``wall_s_tail``: the highest pass-time percentile with ten passes beyond
  it, or the slowest pass when there are fewer than 100;
* ``ops_per_s``: operations completed per reference second of pass time;
* ``peak_rss_mb``: peak resident memory of this process.

``failed_share`` (failed / attempted) is printed with them; it is 0 on a
correct program, so it travels as ``attempted`` and ``failed`` in the result.

``--trace 1`` alternates untraced and traced passes (at least two of each)
and reports the per-layer metrics of ``tracing.py`` (raw span times), the
tracing overhead (median traced minus median untraced wall-clock pass time;
traced passes run without the probe), and whether the exact counters
repeated.

The last line of standard output is the JSON result.  A copy with the run's
metadata goes to ``bench/out/``, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 15
# Prints the shared monotonic clock once the parser is built, so process
# teardown stays out of the sample.
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import ttr.cli; ttr.cli.build_parser(); "
    "print(time.monotonic())"
)

# Host-speed probe, see the module docstring.  A chunk takes 11 to 25 ms on
# the 2-vCPU shared x86-64 host the benchmark was tuned on.
PROBE_EVERY_S = 0.2
CALIBRATION_ROUNDS = 20000
REFERENCE_CHUNK_S = 0.015

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "wall_s_tail": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def calibration_loop() -> None:
    """A fixed loop of list, dict, call and integer work, like a solver's inner loop.

    It allocates no container, so it never starts the garbage collector.
    """
    watch = {i: (i, i + 1, i + 2) for i in range(512)}
    assign = [0] * 1024
    zeros = [0] * 1024

    def slot(v: int) -> int:
        return v & 1023

    total = 0
    for i in range(CALIBRATION_ROUNDS):
        for v in watch[i & 511]:
            j = slot(v * 7 + i)
            if assign[j] == 0:
                assign[j] = 1 if (j ^ i) & 1 else -1
            total += assign[j]
        if i % 97 == 0:
            assign[:] = zeros


def scaled_time(ops: list[tuple[float, float]], chunks: list[tuple[float, float]]) -> tuple[float, float]:
    """Operation time outside the chunks, as (wall-clock seconds, reference seconds).

    ``ops`` and ``chunks`` are (start, end) intervals in time order.  Time
    between chunk k and chunk k+1 is scaled by ``REFERENCE_CHUNK_S`` over the
    two chunks' mean duration; operation time before the first chunk or after
    the last is not counted.
    """
    raw = scaled = 0.0
    k = 0
    for start, end in ops:
        while k + 1 < len(chunks) and chunks[k + 1][0] <= start:
            k += 1
        j = k
        while j + 1 < len(chunks) and chunks[j][1] < end:
            lo, hi = max(start, chunks[j][1]), min(end, chunks[j + 1][0])
            if hi > lo:
                mean = (chunks[j][1] - chunks[j][0] + chunks[j + 1][1] - chunks[j + 1][0]) / 2
                raw += hi - lo
                scaled += (hi - lo) * REFERENCE_CHUNK_S / mean
            j += 1
    return raw, scaled


class Pass:
    """Runs and checks the operations of one pass.

    ``open`` and ``close`` bracket a timed pass with chunks, and with
    ``probe`` a timer adds one every ``PROBE_EVERY_S`` in between.  After
    ``close``, ``raw_seconds`` is the operations' summed wall-clock time
    without chunks and ``seconds`` the same in reference seconds.
    """

    def __init__(self, tracer=None, probe: bool = False):
        self.tracer = tracer
        self.probe = probe
        self.seconds = 0.0
        self.raw_seconds = 0.0
        self.ops: list[tuple[float, float]] = []
        self.chunks: list[tuple[float, float]] = []
        self._in_chunk = False
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.spans: list[list] = []
        self.counts = None

    def _chunk(self, *_signal) -> None:
        if self._in_chunk:  # a tick that arrives during a chunk is dropped
            return
        self._in_chunk = True
        start = time.perf_counter()
        calibration_loop()
        self.chunks.append((start, time.perf_counter()))
        self._in_chunk = False

    def open(self) -> None:
        self._chunk()
        if self.probe:
            signal.signal(signal.SIGALRM, self._chunk)
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def close(self) -> None:
        if self.probe:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._chunk()
        self.raw_seconds, self.seconds = scaled_time(self.ops, self.chunks)

    def __call__(self, name, fn, verdict):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = f"{self.attempted}:{name}"
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as e:  # a crash is a failed operation, not a failed run
            self.ops.append((start, time.perf_counter()))
            self.failures.append((name, f"{type(e).__name__}: {e}"))
            return None
        self.ops.append((start, time.perf_counter()))
        try:
            reason = verdict(result)
        except Exception as e:
            reason = f"check raised {type(e).__name__}: {e}"
        if reason:
            self.failures.append((name, reason))
        return result


def one_pass(workload, seed: int, ref: dict, work: Path, tracer=None) -> Pass:
    gc.collect()  # each pass starts from the same collector state
    start = time.perf_counter()
    p = Pass(tracer, probe=tracer is None)  # the probe's chunks would land inside spans
    p.open()
    try:
        workload(p, random.Random(seed), ref, work)
    finally:
        p.close()
    p.elapsed = time.perf_counter() - start
    if tracer is not None:
        p.spans, p.counts = tracer.take()
    return p


def measure(workload, seed: int, seconds: float, ref: dict, work: Path) -> tuple[list[Pass], list[float]]:
    """Untraced passes until another one would end after ``seconds``.

    ``setup_s`` samples are taken between passes, in step with the time
    spent, so that they spread over the run; returns (passes, setup samples).
    """
    passes: list[Pass] = []
    setup: list[float] = []
    start = time.perf_counter()
    while True:
        passes.append(one_pass(workload, seed, ref, work))
        spent = time.perf_counter() - start
        while len(setup) < SETUP_SAMPLES * min(1.0, spent / seconds):
            setup.append(setup_sample())
        typical = statistics.median(p.elapsed for p in passes)
        if time.perf_counter() - start + typical > seconds:
            setup += [setup_sample() for _ in range(SETUP_SAMPLES - len(setup))]
            return passes, setup


def measure_pairs(workload, seed: int, seconds: float, ref: dict, work: Path):
    """Untraced and traced passes in turn, so both meet the same machine load.

    At least two pairs; returns (untraced, traced, absent targets).
    """
    tracer = tracing.Tracer()
    untraced: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while True:
        untraced.append(one_pass(workload, seed, ref, work))
        undo, absent = tracing.install(tracer)
        try:
            traced.append(one_pass(workload, seed, ref, work, tracer))
        finally:
            undo()
        pair = statistics.median(u.elapsed + t.elapsed for u, t in zip(untraced, traced))
        if len(traced) >= 2 and time.perf_counter() - start + pair > seconds:
            return untraced, traced, absent


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.

    Below 100 samples that percentile would fall under p90, so the slowest
    sample is reported instead.
    """
    n = len(samples)
    if n < 100:
        return max(samples), f"max of {n} passes"
    pct = 100 * (n - 10) // n
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1], f"p{pct} of {n} passes"


def setup_sample() -> float:
    """Fresh-interpreter start-up to a built parser, in a process of its own."""
    start = time.monotonic()
    child = subprocess.run([sys.executable, "-s", "-E", "-c", SETUP_CODE, str(SRC)],
                           cwd=ROOT, check=True, timeout=60, capture_output=True, text=True)
    return float(child.stdout) - start


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ttr" / "__init__.py").is_file():
        print(f"no ttr sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ttr
    if Path(ttr.__file__).resolve().parent != SRC / "ttr":
        print(f"imported ttr from {ttr.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    out_dir = BENCH / "out"
    work = out_dir / f"work-{args.workload}"
    work.mkdir(parents=True, exist_ok=True)

    meta: dict = {}
    if args.trace:
        untraced, traced, absent = measure_pairs(workload, args.seed, args.seconds, check.REFERENCE, work)
        metrics, lines = per_layer(untraced, traced, absent)
        passes = untraced + traced
        meta["traced_pass_seconds"] = [p.seconds for p in traced]
        meta["traced_pass_raw_seconds"] = [p.raw_seconds for p in traced]
        meta["spans_file"] = _write_spans(out_dir, args, [p.spans for p in traced])
    else:
        untraced, setup = measure(workload, args.seed, args.seconds, check.REFERENCE, work)
        passes = untraced
        metrics, lines = end_to_end(untraced, setup, workloads.OPS_UNIT[args.workload])
        meta["setup_samples_s"] = setup

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    meta.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "ops_per_pass": untraced[0].attempted,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pass_seconds": [p.seconds for p in untraced],
        "pass_raw_seconds": [p.raw_seconds for p in untraced],
        "chunk_s": statistics.median(end - start for p in untraced for start, end in p.chunks),
        "reference_chunk_s": REFERENCE_CHUNK_S,
    })
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}

    print(f"meta {json.dumps(meta)}")
    for name, failure in failures[:20]:
        print(f"FAILED {name}: {failure}")
    print(f"failed_share {len(failures) / attempted:.6f} ({len(failures)}/{attempted})")
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:>16.6f} {m['unit']}")
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "meta": meta, "failures": failures}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def end_to_end(untraced: list[Pass], setup: list[float], ops_unit: str) -> tuple[dict, list[str]]:
    seconds = [p.seconds for p in untraced]
    tail_value, tail_note = tail(seconds)
    done = sum(p.attempted - len(p.failures) for p in untraced)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(seconds),
        "wall_s_tail": tail_value,
        "ops_per_s": done / sum(seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    note = (f"setup_s: median of {len(setup)} fresh interpreters; wall_s: median of {len(seconds)} passes; "
            f"wall_s_tail: {tail_note}; ops_per_s counts {ops_unit}")
    raw = [p.raw_seconds for p in untraced]
    chunks = [end - start for p in untraced for start, end in p.chunks]
    scale = (f"pass times in reference seconds; wall-clock median {statistics.median(raw):.4f} s, "
             f"slowest {max(raw):.4f} s; chunks took {min(chunks):.4f} to {max(chunks):.4f} s, "
             f"median {statistics.median(chunks):.4f} s against the reference {REFERENCE_CHUNK_S} s, "
             f"over {len(chunks)} chunks")
    return {name: metric(v, END_TO_END_UNITS[name]) for name, v in values.items()}, [note, scale]


def per_layer(untraced: list[Pass], traced: list[Pass], absent: set) -> tuple[dict, list[str]]:
    """Layer metrics of the traced passes, and the tracing overhead against the untraced ones."""
    layers, differing = tracing.combine([tracing.pass_metrics(p.spans, p.counts) for p in traced])
    missing = tracing.absent_metrics(absent)
    wall = statistics.median(p.raw_seconds for p in untraced)  # wall clock: traced passes have no probe
    traced_wall = statistics.median(p.raw_seconds for p in traced)
    layers["trace.overhead_s"] = traced_wall - wall
    layers["trace.overhead_pct"] = 100 * (traced_wall - wall) / wall
    layers["trace.counter_mismatches"] = len(differing)
    metrics = {name: metric(value, _layer_unit(name)) for name, value in layers.items() if name not in missing}
    lines = [
        f"traced passes {len(traced)}, untraced passes {len(untraced)}; "
        f"every _s layer metric is self time, median over traced passes",
        f"tracing overhead {traced_wall - wall:+.4f} s per pass "
        f"({layers['trace.overhead_pct']:+.1f}%: traced {traced_wall:.4f} s, untraced {wall:.4f} s)",
    ]
    if missing:
        lines.append("absent (wrapped name no longer in the program): " + ", ".join(sorted(missing)))
    if differing:
        lines.append("FLAG exact counters differ between traced passes: " + ", ".join(differing))
    else:
        lines.append(f"exact counters repeated across {len(traced)} traced passes: {', '.join(tracing.EXACT)}")
    return metrics, lines


def _layer_unit(name: str) -> str:
    if name == "cdcl.propagations_per_s":
        return "1/s"
    if name.endswith("_pct"):
        return "%"
    return "s" if name.endswith("_s") else "count"


def _write_spans(out_dir: Path, args, spans_by_pass: list[list[list]]) -> str:
    """One JSON array per span after a header line naming the fields."""
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with path.open("w") as f:
        f.write('["pass", "name", "start", "end", "parent", "op"]\n')
        for k, spans in enumerate(spans_by_pass):
            for target, start, end, parent, op in spans:
                f.write(json.dumps([k, f"{target.module}.{target.name}", start, end, parent, op]) + "\n")
    return str(path.relative_to(ROOT))


if __name__ == "__main__":
    sys.exit(main())
