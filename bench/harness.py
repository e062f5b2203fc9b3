"""Query loop, tracing and metrics shared by every workload.

A run sets its workload up, re-importing the library and the workload code
each time, so that ``setup_s`` covers import plus input generation.  It
then runs whole passes over the workload's catalog, each pass in a seeded
order, until the timed query time reaches ``--seconds``.  The loop is
closed with one client: a query starts only after the previous one has
returned and its answer has been checked.  The check runs outside the
timed span.  The first answer of each catalog entry goes through the
workload's oracle; a later answer to the same input in the same run must
equal that verified answer.

Every time the benchmark reports is adjusted for the speed of the host
(:class:`HostSpeed`): on a shared host, co-tenants slow this process by up
to about 2x for tens of seconds at a time, so the raw time of the same
work differs by a quarter between runs made minutes apart, however long
each run is.  Only the per-query time cap is raw wall time.

This module imports nothing from the library, so that the library can be
purged from ``sys.modules`` between set-ups.
"""

from __future__ import annotations

import bisect
import gc
import importlib
import json
import math
import os
import random
import resource
import signal
import statistics
import sys
import tempfile
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(BENCH_DIR, ".trace")

WORKLOADS = {
    "schedule-homology": "schedule_homology",
    "poset-build": "poset_build",
    "path-stack": "path_stack",
    "cli-pipeline": "cli_pipeline",
}
SETUPS = 6  # set-ups per untraced run, half before the passes and half after
QUERY_CAP_S = 30.0  # a query still running after this long is stopped and counted as failed
PURGED = ("precubical", "workloads")  # top-level packages re-imported by every set-up
SETUP = "setup"  # query id of the spans recorded during set-up
GAUGE_INTERVAL_S = 0.005  # process CPU seconds between two speed gauges
GAUGE_BURST = 8  # speed gauges run right before and right after each query
GAUGE_WINDOW = 16  # fewest gauges the host speed of an interval is taken from
GAUGE_REFERENCE_S = 4e-5  # the gauge's time at the reference speed adjusted times are given at

END_TO_END = {
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "correct_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

LAYERS = ("cubeset", "carrier", "dpath", "chains", "taming", "nerve", "toolkit")

# Self time of each span family, per catalog pass (plus one set-up).
BUSY = (
    "cubeset.build", "cubeset.check",
    "chains.enumerate", "chains.ccr", "chains.finest", "chains.subordinate",
    "nerve.order_complex", "nerve.covering_nerve", "nerve.euler", "nerve.homology",
    "carrier.canonicalize",
    "dpath.is_strict", "dpath.is_tame", "dpath.strictify", "dpath.naturalize",
    "dpath.kinks", "dpath.evaluate",
    "taming.crossing_times", "taming.tame",
    "toolkit.pv_compile", "toolkit.parse", "toolkit.write", "toolkit.cli_stage",
)
# Counts per catalog pass, reported by the workloads' ``counts`` hooks.
COUNTS = {
    "cubeset.cubes": "count",
    "chains.objects": "count",
    "chains.covers": "count",
    "chains.ccr_calls": "count",
    "nerve.maximal_simplices": "count",
    "nerve.simplices": "count",
    "nerve.matrix_entries": "count",
    "nerve.nonzeros": "count",
    "carrier.points": "count",
    "dpath.segments": "count",
    "taming.cuts": "count",
    "toolkit.bytes": "bytes",
    "toolkit.cli_stages": "count",
}
# Ratios of two counts: name -> (numerator, denominator).
RATIOS = {
    "chains.ccr_found_ratio": ("chains.ccr_found", "chains.ccr_calls"),
    "nerve.dense_fill": ("nerve.nonzeros", "nerve.matrix_entries"),
}
# Measured by a workload's ``probe`` hook; 0 on workloads without one.
PROBES = {"toolkit.cli_startup_s": "s"}

PER_LAYER = {
    **{f"{name}_s": "s" for name in BUSY},
    **COUNTS,
    **{name: "ratio" for name in RATIOS},
    **PROBES,
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "bench.trace_overhead_s": "s",
}


class WrongAnswer(Exception):
    """An oracle found a result that differs from the known answer."""


class QueryTimeout(Exception):
    """A query ran past ``QUERY_CAP_S``."""


def expect(what: str, got, want) -> None:
    if got != want:
        raise WrongAnswer(f"{what}: got {got!r}, expected {want!r}")


@dataclass
class Query:
    """One catalog entry with its inputs bound.

    ``run`` computes the answer through the tracer; ``check`` raises
    :class:`WrongAnswer` unless the answer is right; ``counts`` maps an
    answer to per-layer counts and runs only in traced runs.
    """

    name: str
    run: Callable[["Tracer"], Any]
    check: Callable[[Any], None]
    counts: Callable[[Any], dict[str, float]] = field(default=lambda answer: {})


class Tracer:
    """Records a span around each call the benchmark makes into a layer.

    Disabled, :meth:`call` is a plain call.  Enabled, every call leaves a
    span ``[name, start, end, parent index, query id]`` in memory, and an
    exception leaving a span counts as an error of the span's layer.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[list] = []
        self.errors: Counter[str] = Counter()
        self.query: str | None = None
        self._open: list[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else None, self.query]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        except Exception:
            self.errors[name.split(".")[0]] += 1
            raise
        finally:
            record[2] = time.perf_counter()
            self._open.pop()


def self_times(
    spans: list[list], phase: Callable[[str | None], bool], seconds: Callable[[float, float], float]
) -> dict[str, float]:
    """Per span name: total duration minus the time covered by child spans,
    over the spans whose query id satisfies ``phase``.  ``seconds(start,
    end)`` gives the duration of an interval."""
    durations = [seconds(start, end) for _, start, end, _, _ in spans]
    covered = [0.0] * len(spans)
    for (_, _, _, parent, _), duration in zip(spans, durations):
        if parent is not None:
            covered[parent] += duration
    out: dict[str, float] = defaultdict(float)
    for (name, _, _, _, query), duration, child in zip(spans, durations, covered):
        if phase(query):
            out[name] += duration - child
    return out


_GAUGE_TABLE = tuple((i * 37 + 11) % 256 for i in range(256))
_GAUGE_INDEX = {(f"v{i % 17}", i % 5): (i * 53) % 256 for i in range(64)}


def _gauge_work() -> int:
    """A fixed piece of pure-Python work whose time gauges the host's speed:
    table walks and dict lookups on tuple keys.  It allocates nothing but
    its loop iterators (every int it makes is a cached small int), so its
    time does not depend on the state the library left the heap in, which
    the time of gauges that build fractions, lists or frozensets did by up
    to a third from one process to the next."""
    x = 0
    for _ in range(4):
        for i in range(200):
            x = _GAUGE_TABLE[x ^ i]
        for key in _GAUGE_INDEX:
            x ^= _GAUGE_INDEX[key]
    return x


class HostSpeed:
    """Gauges the host's speed while a run goes on, and adjusts times by it.

    A gauge (:func:`_gauge_work`, about 40 us) runs every
    ``GAUGE_INTERVAL_S`` of process CPU time, from ``SIGPROF`` between the
    bytecodes of whatever runs, so also inside long queries, and in bursts
    of ``GAUGE_BURST`` around each query, so also around a CLI child.  The
    time of an interval, adjusted, is its wall time less the gauges run
    inside it, times ``GAUGE_REFERENCE_S`` over the mean time of the gauges
    nearest the interval: the time the interval would have taken at the
    speed at which a gauge takes ``GAUGE_REFERENCE_S``, about the best speed
    of a 2-vCPU shared x86 host.  The reference is a constant, because the
    fastest of a run's thousands of gauges moves by several percent from
    run to run.

    On that host, over eight 22-second runs each of ``poset-build`` and
    ``schedule-homology``, the quartile spread of throughput and of the
    latency percentiles was 0.12 to 0.41 of the median in raw time and
    0.04 to 0.12 adjusted.  What is left comes from library code that slows
    less than the gauge: its time goes with the gauge's to the power 0.76
    (order-complex builds) to 1.08.
    """

    def __init__(self):
        self.log: list[tuple[float, float]] = []  # (start, seconds) of each gauge
        self._busy = False

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, GAUGE_INTERVAL_S, GAUGE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def _on_timer(self, signum, frame) -> None:
        self.gauge()

    def gauge(self) -> None:
        if self._busy:  # the timer fired during a gauge
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()  # a collection of the library's objects is not the gauge's time
        try:
            start = time.perf_counter()
            _gauge_work()
            self.log.append((start, time.perf_counter() - start))
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    def burst(self) -> None:
        for _ in range(GAUGE_BURST):
            self.gauge()

    def adjust(self, start: float, end: float) -> float:
        """The adjusted seconds of the interval from ``start`` to ``end``."""
        log = self.log
        lo = bisect.bisect_left(log, (start,))
        hi = bisect.bisect_left(log, (end,))
        inside = sum(seconds for _, seconds in log[lo:hi])
        while hi - lo < GAUGE_WINDOW and (lo > 0 or hi < len(log)):
            lo, hi = max(0, lo - 1), min(len(log), hi + 1)
        near = statistics.mean(seconds for _, seconds in log[lo:hi])
        return (end - start - inside) * GAUGE_REFERENCE_S / near


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Outcome:
    query: str
    start: float
    end: float
    status: str  # "ok", "wrong", "error" or "timeout"

    @property
    def latency(self) -> float:
        return self.end - self.start


class _Alarm:
    """Raises :class:`QueryTimeout` in the main thread once the cap passes."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            raise QueryTimeout(f"over the {QUERY_CAP_S:g} s cap")

    def arm(self):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, QUERY_CAP_S)

    def disarm(self):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


class Runner:
    """Runs passes over a catalog and keeps every outcome."""

    def __init__(self, queries: list[Query], seed: int, tracer: Tracer, speed: HostSpeed):
        self.queries = queries
        self.speed = speed
        self.rng = random.Random(f"{seed}/order")
        self.tracer = tracer
        self.outcomes: list[Outcome] = []
        self.verified: dict[str, Any] = {}
        self.counts: dict[str, dict[str, float]] = {}
        self.pass_counts: Counter[str] = Counter()  # summed over traced queries
        self.alarm = _Alarm()

    def passes(self, seconds: float) -> int:
        """Whole passes until the wall time of the queries reaches ``seconds``.

        Returns the number of passes.
        """
        done, timed = 0, 0.0
        while done == 0 or timed < seconds:
            for q in self.next_pass():
                timed += self.run_one(q).latency
            done += 1
        return done

    def next_pass(self) -> list[Query]:
        """Every query once, in the seeded order of the next pass."""
        order = list(self.queries)
        self.rng.shuffle(order)
        return order

    def run_one(self, q: Query) -> Outcome:
        tracer = self.tracer
        tracer.query = f"{q.name}#{len(self.outcomes)}"
        answer, status = None, None
        # start every query from a collected heap, so that a collection
        # owed to earlier queries does not land in this one's timing
        gc.collect()
        self.speed.burst()
        self.alarm.arm()
        start = time.perf_counter()
        try:
            with tracer.span("query"):
                answer = q.run(tracer)
        except QueryTimeout:
            status = "timeout"
        except Exception as e:  # a failing query is counted, and the run goes on
            status = "error"
            print(f"query {q.name} raised {type(e).__name__}: {e}", file=sys.stderr)
        finally:
            end = time.perf_counter()
            self.alarm.disarm()
        self.speed.burst()
        tracer.query = None
        if status is None:
            status = self._check(q, answer)
        if status == "ok" and tracer.enabled:
            for name, value in self._counts(q, answer).items():
                self.pass_counts[name] += value
        outcome = Outcome(q.name, start, end, status)
        self.outcomes.append(outcome)
        return outcome

    def _check(self, q: Query, answer) -> str:
        try:
            if q.name in self.verified:
                if answer != self.verified[q.name]:
                    raise WrongAnswer("differs from the verified answer to the same input")
            else:
                q.check(answer)
                self.verified[q.name] = answer
        except WrongAnswer as e:
            print(f"query {q.name} gave a wrong answer: {e}", file=sys.stderr)
            return "wrong"
        return "ok"

    def _counts(self, q: Query, answer) -> dict[str, float]:
        # answers to one entry are equal within a run, so counts are computed once
        if q.name not in self.counts:
            self.counts[q.name] = q.counts(answer)
        return self.counts[q.name]


def _purge() -> None:
    for name in list(sys.modules):
        if name.split(".")[0] in PURGED:
            del sys.modules[name]


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def _load_catalog(workload: str) -> dict:
    with open(os.path.join(BENCH_DIR, "catalog.json"), encoding="utf-8") as fh:
        return json.load(fh)[workload]


def _set_up(workload: str, seed: int, catalog: dict, tracer: Tracer, workdir: str):
    """Re-import the library and the workload, then build the inputs.

    Returns the workload module, its queries and the set-up's start and end.
    """
    _purge()
    start = time.perf_counter()
    module = importlib.import_module(f"workloads.{WORKLOADS[workload]}")
    queries = module.setup(seed, catalog, tracer, workdir)
    return module, queries, (start, time.perf_counter())


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed by ``run.py``."""
    catalog = _load_catalog(workload)
    tracer = Tracer()
    os.makedirs(os.path.join(BENCH_DIR, ".work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(BENCH_DIR, ".work")) as workdir, HostSpeed() as speed:
        setups = [_set_up(workload, seed, catalog, Tracer(), workdir)[2] for _ in range(SETUPS // 2 - 1)]
        tracer.enabled, tracer.query = trace, SETUP
        module, queries, span = _set_up(workload, seed, catalog, tracer, workdir)
        setups.append(span)
        tracer.enabled = False
        runner = Runner(queries, seed, tracer, speed)
        if not trace:
            runner.passes(seconds)
            # the other half of the set-ups, timed a run's length later
            setups += [_set_up(workload, seed, catalog, Tracer(), workdir)[2] for _ in range(SETUPS // 2)]
            metrics = _end_to_end(runner, module, [speed.adjust(*span) for span in setups])
        else:
            plain_passes = runner.passes(seconds / 2)
            plain = runner.outcomes[:]
            tracer.enabled = True
            passes = runner.passes(seconds / 2)
            tracer.enabled = False
            metrics = _per_layer(runner, module, passes)
            traced = runner.outcomes[len(plain):]
            metrics["bench.trace_overhead_s"] = (
                sum(speed.adjust(o.start, o.end) for o in traced) / passes
                - sum(speed.adjust(o.start, o.end) for o in plain) / plain_passes
            )
            _write_trace(workload, seed, tracer.spans)
    outcomes = runner.outcomes
    failed = sum(o.status != "ok" for o in outcomes)
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": not any(o.status in ("wrong", "error") for o in outcomes),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def _end_to_end(runner: Runner, module, setup_times: list[float]) -> dict[str, float]:
    """End-to-end metrics of an untraced run, from adjusted times.

    Throughput is correct queries per timed second of the closed loop.  The
    percentiles are nearest-rank over every query of the run; as the passes
    are whole, each falls on the same catalog entry in every run.
    ``setup_s`` is the median of the set-ups, timed half before the passes
    and half after them, a run's length apart.
    """
    outcomes = runner.outcomes
    latencies = [runner.speed.adjust(o.start, o.end) for o in outcomes]
    correct = sum(o.status == "ok" for o in outcomes)
    return {
        "queries_per_s": correct / sum(latencies),
        "latency_p50_ms": percentile(latencies, 0.5) * 1000,
        "latency_p90_ms": percentile(latencies, 0.9) * 1000,
        "correct_ratio": correct / len(outcomes),
        "peak_rss_mb": _peak_rss_mb(getattr(module, "RSS_OF", resource.RUSAGE_SELF)),
        "setup_s": statistics.median(setup_times),
    }


def _per_layer(runner: Runner, module, passes: int) -> dict[str, float]:
    spans = runner.tracer.spans
    adjust = runner.speed.adjust
    in_setup = self_times(spans, lambda query: query == SETUP, adjust)
    in_passes = self_times(spans, lambda query: query != SETUP, adjust)
    metrics: dict[str, float] = {}
    for name in BUSY:
        metrics[f"{name}_s"] = in_setup.get(name, 0.0) + in_passes.get(name, 0.0) / passes
    counts = runner.pass_counts
    for name in COUNTS:
        metrics[name] = counts[name] / passes
    for name, (num, den) in RATIOS.items():
        metrics[name] = counts[num] / counts[den] if counts[den] else 0.0
    probed = module.probe(adjust) if hasattr(module, "probe") else {}
    for name in PROBES:
        metrics[name] = probed.get(name, 0.0)
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = runner.tracer.errors[layer]
    return metrics


def _write_trace(workload: str, seed: int, spans: list[list]) -> None:
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"{workload}-seed{seed}.json")
    keys = ("name", "start", "end", "parent", "query")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([dict(zip(keys, s)) for s in spans], fh)
