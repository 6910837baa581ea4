"""Benchmark harness for lpdo.

    python3 perfbench/run.py --workload roundtrip|generic|catalog \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones (BENCHMARK.json `end_to_end`), with --trace 1 the per-layer
ones (`per_layer`).  The lines before it show the raw wall-clock values
beside the speed-corrected ones.

Every time is corrected for machine speed: a fixed reference loop made of
builtins only runs between the operations, and each raw time is scaled by
NOMINAL_CHUNK_S over the reference time measured around it.  See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("roundtrip", "generic", "catalog")

# Time of one reference chunk on the machine the figures in README.md come
# from.  Corrected times are what that machine takes at this speed.
NOMINAL_CHUNK_S = 0.000250
# The reference loop runs after every operation for this share of its time
# (at least MIN_REF_S).  Speed is read off the reference blocks within
# WINDOW_S of an operation: the machine's speed drifts over seconds and
# minutes, which the window follows, while its swings over a few
# milliseconds are noise that a single block would copy into the result.
REF_SHARE = 0.25
MIN_REF_S = 0.002
WINDOW_S = 2.0
SETUP_REPS = 41
# operations a run times at least, so that p90 has ten samples beyond it
MIN_OPS = 100


# --------------------------------------------------------------------------
# machine-speed reference
# --------------------------------------------------------------------------

_BIG_PRIME = 2 ** 127 - 1


def _ref_key(item):
    return item[1] % 7, item[0]


def _ref_chunk() -> int:
    """Fixed work on builtins only, which lpdo cannot replace or reconfigure:
    dict updates under tuple keys, a sort with a key function,
    comprehensions, nested dicts, small-int and multi-word int arithmetic."""
    table: dict = {}
    acc = 0
    for i in range(160):
        key = (i & 15, i >> 4)
        table[key] = table.get(key, 0) + i
        acc = (acc * 31 + i) % 1000003
    items = sorted(table.items(), key=_ref_key)
    pairs = [(a, b * 3) for (a, b), _ in items if b % 2]
    nested = {k: {v: (k, v)} for k, v in items}
    acc += sum(len(d) for d in nested.values()) + len(pairs)
    big = 3 ** 80
    for _, v in items:
        acc = (acc * big + v) % _BIG_PRIME
    return acc


class Timeline:
    """Operation intervals and the reference blocks between them."""

    def __init__(self):
        self.ops: list[tuple[float, float]] = []  # (start, raw seconds)
        self.ref_mid: list[float] = []
        self.ref_seconds: list[float] = []
        self.ref_chunks: list[int] = []

    def reference(self, min_s: float) -> None:
        # no cyclic collection inside a block: its cost depends on the
        # operations' heap, not on the machine's speed
        gc.disable()
        n = 0
        t0 = time.perf_counter()
        while True:
            _ref_chunk()
            n += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= min_s:
                break
        gc.enable()
        self.ref_mid.append(t0 + 0.5 * elapsed)
        self.ref_seconds.append(elapsed)
        self.ref_chunks.append(n)

    def timed(self, fn):
        """Run fn, record its interval, then a reference block; fn's result
        (or the exception it raised) and its raw time."""
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a failed operation, counted by the caller
            result = exc
        raw = time.perf_counter() - t0
        self.ops.append((t0, raw))
        self.reference(max(REF_SHARE * raw, MIN_REF_S))
        return result, raw

    def chunk_time(self) -> float:
        """Median measured seconds per reference chunk."""
        return statistics.median(s / n for s, n in zip(self.ref_seconds, self.ref_chunks))

    def corrected(self) -> list[float]:
        """Each raw time scaled by nominal / measured chunk time, measured
        over the reference blocks within WINDOW_S of the operation."""
        seconds, chunks = [0.0], [0]
        for s, n in zip(self.ref_seconds, self.ref_chunks):
            seconds.append(seconds[-1] + s)
            chunks.append(chunks[-1] + n)
        out = []
        for t0, raw in self.ops:
            lo = bisect.bisect_left(self.ref_mid, t0 - WINDOW_S)
            hi = bisect.bisect_right(self.ref_mid, t0 + raw + WINDOW_S)
            measured = (seconds[hi] - seconds[lo]) / (chunks[hi] - chunks[lo])
            out.append(raw * NOMINAL_CHUNK_S / measured)
        return out


# --------------------------------------------------------------------------
# set-up time
# --------------------------------------------------------------------------

_IMPORT = ("import sys, time; sys.path.insert(0, 'src'); "
           "import lpdo, lpdo.cli; print(time.perf_counter())")


def _spawn_import() -> float:
    """Seconds from process spawn until lpdo and lpdo.cli are imported.

    perf_counter is the system-wide monotonic clock on Linux, so the child's
    reading and the parent's share one time base."""
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-I", "-c", _IMPORT], cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1]) - t0


def measure_setup(reps: int) -> tuple[list[float], list[float]]:
    """Raw and corrected set-up times of `reps` fresh interpreters."""
    _spawn_import()  # writes the bytecode cache, so every timed start reads it
    timeline = Timeline()
    timeline.reference(MIN_REF_S)
    raw = []
    for _ in range(reps):
        result, _ = timeline.timed(_spawn_import)
        if isinstance(result, Exception):
            raise result
        raw.append(result)
    # the child's start-up is the interval, not the parent's wait for it
    timeline.ops = [(t0, t) for (t0, _), t in zip(timeline.ops, raw)]
    return raw, timeline.corrected()


# --------------------------------------------------------------------------
# the measured loop
# --------------------------------------------------------------------------

class Tally:
    def __init__(self):
        self.timeline = Timeline()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, op, result, ok: bool, message: str) -> None:
        """Count one operation.  A failure is a known fault only when the
        result shows that fault's own symptom; any other is a problem."""
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if op.fault is None or not op.fault.shows(result):
            self.problems.append(f"{op.label}: {message}")


def run_rounds(workload, more, tally: Tally, tracer=None) -> int:
    """Run whole rounds of operations until more(rounds_done, tally) is
    false.  Returns the number of rounds run."""
    timeline = tally.timeline
    r = 0
    while True:
        ops = workload.round(r)
        workload.start_round()
        gc.collect()
        timeline.reference(MIN_REF_S)
        results = []
        for op in ops:
            if tracer is not None:
                tracer.begin_op()
            result, _ = timeline.timed(op.run)
            if tracer is not None:
                tracer.end_op()
            results.append(result)
        for op, result in zip(ops, results):
            if isinstance(result, Exception):
                ok, message = False, f"{type(result).__name__}: {result}"
            else:
                ok, message = workload.check(r, op, result)
            tally.add(op, result, ok, message)
        r += 1
        if not more(r, tally):
            return r


def end_to_end(workload, seconds: float) -> tuple[dict, dict, Tally]:
    """Corrected and raw end-to-end figures of one timed run."""
    setup_raw, setup_corr = measure_setup(SETUP_REPS)
    tally = Tally()
    t_start = time.perf_counter()

    def more(r, t):
        return time.perf_counter() - t_start < seconds or t.attempted < MIN_OPS

    run_rounds(workload, more, tally)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally.problems.extend(workload.finish())

    def figures(times, setup):
        return {
            "setup_s": statistics.median(setup),
            "ops_per_s": len(times) / sum(times),
            "latency_p50_ms": 1e3 * statistics.median(times),
            "latency_p90_ms": 1e3 * statistics.quantiles(times, n=10)[8],
            "peak_rss_mb": rss_mb,
        }

    raw = [t for _, t in tally.timeline.ops]
    return (figures(tally.timeline.corrected(), setup_corr),
            figures(raw, setup_raw), tally)


def traced(workload, tracer) -> tuple[dict, Tally]:
    """A fixed number of rounds, first untraced then traced, so the counts
    depend only on the seed and the overhead compares like with like."""
    plain = Tally()
    n_rounds = run_rounds(workload, lambda r, t: t.attempted < MIN_OPS, plain)
    tracer.install()
    try:
        tally = Tally()
        run_rounds(workload, lambda r, t: r < n_rounds, tally, tracer)
    finally:
        tracer.uninstall()
    tally.problems[:0] = plain.problems
    tally.problems.extend(workload.finish())
    corrected = tally.timeline.corrected()
    speeds = [c / raw if raw else 1.0
              for c, (_, raw) in zip(corrected, tally.timeline.ops)]
    overhead = sum(corrected) / sum(plain.timeline.corrected())
    return tracer.metrics(speeds, overhead), tally


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def _units(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lpdo", "__init__.py")):
        print(f"lpdo sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads

    workload = workloads.make(args.workload, args.seed)
    if args.trace:
        import layers

        metrics, tally = traced(workload, layers.Tracer())
        units = _units("per_layer")
        raw = None
    else:
        metrics, raw, tally = end_to_end(workload, args.seconds)
        units = _units("end_to_end")

    for problem in tally.problems:
        print(f"CHECK FAILED {problem}")
    for name in units:
        line = f"{name:40s} {metrics[name]:14.6g} {units[name]}"
        if raw is not None:
            line += f"   (raw wall clock {raw[name]:.6g})"
        print(line)
    print(f"operations timed: {tally.attempted}; reference chunk "
          f"{tally.timeline.chunk_time() * 1e6:.1f} us "
          f"(nominal {NOMINAL_CHUNK_S * 1e6:.1f} us)")
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
