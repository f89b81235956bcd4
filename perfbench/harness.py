"""Timing, tracing and checking machinery shared by the workloads.

The benchmark runs in one process and one thread as a closed loop: each op
starts when the previous one has returned.  An op's latency covers only the
calls into spannerkit; its checks run right after, outside the timed region.

Tracing is done from outside the library.  Every call the benchmark makes
into a public function of spannerkit goes through ``Recorder.call``, which
hands it to ``tracer.call(name, fn, *args)``.  The untraced ``NullTracer``
just calls ``fn``; the ``Tracer`` records a span (name, start, end, parent,
op id, phase) around it.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
import math
import time
import traceback
from collections import Counter, defaultdict

#: Modules of spannerkit whose calls are traced.  Any other span name
#: (set-up, phase, op) is the benchmark's own work.
LAYERS = ("cli_io", "geometry", "build", "analysis", "routing")


class CheckFailed(Exception):
    """An op returned, but its output broke a property the benchmark checks."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: calls go straight through."""

    phase = ""

    def call(self, name, fn, *args):
        return fn(*args)

    def span(self, name):
        return _NULL_SPAN

    def begin_op(self) -> None:
        pass


class _Span:
    __slots__ = ("tracer", "name", "start", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append(None)
        t.stack.append(self.index)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        t = self.tracer
        t.stack.pop()
        parent = t.stack[-1] if t.stack else -1
        t.spans[self.index] = (self.name, self.start, end, parent, t.op_id, t.phase)
        return False


class Tracer:
    """Tracing on: every call and span is recorded in memory."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op_id = 0
        self.phase = "setup"

    def call(self, name, fn, *args):
        with _Span(self, name):
            return fn(*args)

    def span(self, name):
        return _Span(self, name)

    def begin_op(self) -> None:
        self.op_id += 1


def per_span_cost_s(repeat: int = 20000) -> float:
    """Measured cost of one traced call over an untraced one, in seconds."""

    def noop():
        return None

    costs = []
    for _ in range(5):
        on, off = Tracer(), NullTracer()
        t0 = time.perf_counter()
        for _ in range(repeat):
            on.call("calibrate", noop)
        t1 = time.perf_counter()
        for _ in range(repeat):
            off.call("calibrate", noop)
        t2 = time.perf_counter()
        costs.append(((t1 - t0) - (t2 - t1)) / repeat)
    return max(0.0, sorted(costs)[len(costs) // 2])


def median(values):
    s = sorted(values)
    n = len(s)
    if n == 0:
        return math.nan
    mid = n // 2
    return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])


def percentile(values, p: float):
    """Nearest-rank percentile and the number of samples above its rank."""
    s = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(s)))
    return s[rank - 1], len(s) - rank


def tail(values):
    """Highest of p90/p99/p99.9/p99.99 with at least ten samples beyond it."""
    best = None
    for p in (90.0, 99.0, 99.9, 99.99):
        value, beyond = percentile(values, p)
        if beyond >= 10:
            best = (p, value)
    return best


#: Nominal duration of one reference loop; timings are scaled to a CPU on
#: which the loop takes exactly this long.
REF_S = 0.0005

#: How strongly the library's ops follow the reference loop: when the host
#: slows the loop by a factor s, they slow by about s ** SPEED_EXPONENT.
#: Measured on a 2-vCPU shared host, where the loop slowed 1.9x and the
#: routing, certification and ratio ops 1.3x to 1.6x.
SPEED_EXPONENT = 0.75

#: The reference loop is timed between calls whenever this long has passed
#: since it last was.
PROBE_INTERVAL_S = 0.1

#: A call's speed is the median reference time from this long before it
#: starts to this long after it ends: single readings jump for a moment
#: either way, while the host's speed modes last seconds.
SPEED_WINDOW_S = 0.5


def reference_loop() -> float:
    """Fixed pure-Python work, independent of spannerkit and small enough to
    stay in the CPU caches, so its time follows the CPU's speed alone.  It
    allocates no objects the garbage collector tracks."""
    acc = 0.0
    table = {}
    heap = []
    for i in range(1000):
        x = (i * 7919 % 1000) / 1000.0
        acc += math.hypot(x, 1.0 - x)
        table[i & 255] = acc
        heapq.heappush(heap, x)
        if len(heap) > 64:
            heapq.heappop(heap)
    return acc


class Recorder:
    """Op counts, latency samples, failures, exact counters and the output digest.

    Workloads make every call into spannerkit through ``call``, which passes
    it to the tracer and, inside a timed op or set-up, times it.  An op's
    latency is the sum of its calls' times.

    On a shared host the CPU's speed changes by up to half for seconds at a
    time, with the load of other tenants.  So the recorder also times
    ``reference_loop`` between calls, whenever PROBE_INTERVAL_S has passed
    since the last time, and divides each call's wall time by the slowdown
    the reference times around it show, (median / REF_S) ** SPEED_EXPONENT,
    over SPEED_WINDOW_S on either side.  ``samples`` holds the scaled op
    times, ``raw`` the wall times.
    """

    def __init__(self, tracer):
        self.tr = tracer
        self.raw: dict[str, list[float]] = defaultdict(list)
        self._calls: dict[str, list[list]] = defaultdict(list)
        self._timing: list | None = None
        self.probes: list[float] = []
        self._probe_at: list[float] = []
        self._last_probe = -math.inf
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.counts: Counter = Counter()
        self.values: dict[str, float] = {}
        self._digest = hashlib.sha256()

    def fold(self, *parts) -> None:
        """Fold outputs into the digest; floats enter with all their digits."""
        for part in parts:
            self._digest.update(repr(part).encode())
            self._digest.update(b"\x1f")

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def probe(self) -> None:
        """Time the reference loop: the median of five runs."""
        runs = []
        for _ in range(5):
            t0 = time.perf_counter()
            reference_loop()
            self._last_probe = time.perf_counter()
            runs.append(self._last_probe - t0)
        self.probes.append(median(runs))
        self._probe_at.append(self._last_probe)

    def call(self, name, fn, *args):
        """Call into spannerkit: traced always, timed inside an op or set-up."""
        if time.perf_counter() - self._last_probe > PROBE_INTERVAL_S:
            self.probe()
        t0 = time.perf_counter()
        out = self.tr.call(name, fn, *args)
        if self._timing is not None:
            self._timing.append((t0, time.perf_counter()))
        return out

    def _scaled(self, calls) -> float:
        total = 0.0
        for t0, t1 in calls:
            lo = bisect.bisect_left(self._probe_at, t0 - SPEED_WINDOW_S)
            hi = bisect.bisect_right(self._probe_at, t1 + SPEED_WINDOW_S)
            if lo == hi:  # no reading in the window: take the nearest one
                lo = max(0, min(lo, len(self.probes) - 1))
                hi = lo + 1
            total += (t1 - t0) * (REF_S / median(self.probes[lo:hi])) ** SPEED_EXPONENT
        return total

    @property
    def samples(self) -> dict[str, list[float]]:
        """Op times scaled to the reference CPU speed, by op kind."""
        return defaultdict(list, {kind: [self._scaled(c) for c in ops]
                                  for kind, ops in self._calls.items()})

    def _run_timed(self, fn):
        self._timing = []
        try:
            return fn(), self._timing
        finally:
            self._timing = None

    def timed(self, fn):
        """Run ``fn()``, timing its calls; (result, scaled seconds)."""
        out, calls = self._run_timed(fn)
        self.probe()
        return out, self._scaled(calls)

    def op(self, kind: str, fn, check, inputs):
        """Time ``fn()`` as one op, then run ``check(output)`` untimed.

        An op fails when either raises; the failure is recorded with its
        inputs and the loop goes on.  Returns the output, or None on failure.
        """
        self.attempted += 1
        self.tr.begin_op()
        with self.tr.span("op." + kind):
            try:
                out, calls = self._run_timed(fn)
                check(out)
            except Exception as exc:  # noqa: BLE001 - a failed op must not stop the run
                self.failed += 1
                self.failures.append({
                    "op": kind,
                    "inputs": inputs,
                    "error": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(limit=4),
                })
                return None
        self.raw[kind].append(sum(t1 - t0 for t0, t1 in calls))
        self._calls[kind].append(calls)
        return out

    def loop(self, phase: str, seconds: float, min_steps: int, step) -> int:
        """Call ``step(i)`` for i = 0, 1, ... until ``seconds`` have passed and
        at least ``min_steps`` steps ran."""
        self.tr.phase = phase
        deadline = time.perf_counter() + seconds
        i = 0
        with self.tr.span("phase." + phase):
            while i < min_steps or time.perf_counter() < deadline:
                step(i)
                i += 1
            self.probe()
        return i


def layer_report(spans, wall_ns: int):
    """Self time per span name: (calls, self_ns, durations_ns, phases).

    A span's self time is its duration minus the time its direct children
    cover; spans of one thread nest, so the children never overlap.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _op, _phase in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats: dict[str, dict] = {}
    for i, (name, start, end, _parent, _op, phase) in enumerate(spans):
        st = stats.get(name)
        if st is None:
            st = stats[name] = {"calls": 0, "self_ns": 0, "durations": defaultdict(list)}
        st["calls"] += 1
        st["self_ns"] += (end - start) - child_ns[i]
        st["durations"][phase].append(end - start)
    modules: dict[str, int] = defaultdict(int)
    for name, st in stats.items():
        mod = name.split(".")[0]
        modules[mod if mod in LAYERS else "harness"] += st["self_ns"]
    # Time no span covers (between top-level spans) is harness time too.
    modules["harness"] = wall_ns - sum(v for k, v in modules.items() if k != "harness")
    return stats, dict(modules)
