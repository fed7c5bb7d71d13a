"""Closed-loop driver: one caller queues a batch, calls ``flush()`` and
waits, then queues the next.  ``MatcherPool`` is a synchronous library
whose callers block on ``flush``, so this is how it is used.

The timed region of a batch runs from its first ``queue*`` call until
``flush()`` returns with the deltas published; turning the batch's
integer codes into update objects, verification and everything else
happen outside it.

Host speed.  The benchmark is meant to run on machines whose cores are
shared with other tenants; such a host can run the same Python code up
to ~1.5x slower for seconds or minutes at a time, which moves every
timing by the same factor.  The driver therefore times a fixed
pure-Python loop (:class:`HostProbe`, no engine code) around each set-up
and between every ``RATE_WINDOW`` flushes, outside the timed region, and
reports timings scaled to a host on which the probe takes
``PROBE_REF_S``: a window's times are multiplied by ``PROBE_REF_S`` over
the median of the probes around it.  The unscaled figures are
printed in the run details.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro import MatcherPool, delete, insert
from repro.graphs.columnar import as_backend

from . import verify
from .workloads import DEL, INS, LABEL, SCORE, Workload, event_ts

# Flush counts after which the run is verified (and at its end).  A flush
# counts as failed if it raised, or if the verification that closes its
# interval found a disagreement.
CHECKPOINTS = (250, 1000, 4000)
# Each timed run keeps at least this many flushes, so the 99th percentile
# has at least ten samples beyond it.
MIN_FLUSHES = 1000
SETUP_REPEATS = 9
# Published deltas are folded into the replay state this often (untimed),
# so feed buffers, and with them peak memory, do not grow with run length.
DRAIN_EVERY = 100
RATE_WINDOW = 100
# The tail percentile is taken per window of this many flushes, whose 95th
# percentile has ten samples beyond it, and the median over windows is
# reported: a whole-run 99th percentile moved by 15-30% between runs with
# the few flushes a loaded host happened to stall.
TAIL_WINDOW = 200
PROBE_REF_S = 0.015
# A run stops measuring after this much wall time whatever else holds, so
# that even a much slower program ends within the benchmark's time limit.
WALL_LIMIT_S = 120.0


class HostProbe:
    """Times a fixed loop of integer arithmetic followed by dict lookups
    and set updates over 20,000 string keys; no engine code runs.  The
    arithmetic alone slows less than the engine on a loaded host, the
    dict and set work alone slows more, so the probe mixes both.  Its
    time follows the host's current speed (about 15 ms on a 2-vCPU
    shared virtual machine)."""

    def __init__(self) -> None:
        self._keys = [f"k{i}" for i in range(20_000)]
        self._index = {k: i for i, k in enumerate(self._keys)}

    def __call__(self) -> float:
        keys, index, n = self._keys, self._index, len(self._keys)
        t0 = time.perf_counter()
        acc = 0
        for i in range(120_000):
            acc += i
        members = set()
        for i in range(20_000):
            k = keys[(i * 7919) % n]
            acc += index[k]
            if i & 1:
                members.add(k)
            else:
                members.discard(k)
        return time.perf_counter() - t0


class Setup(NamedTuple):
    pool: MatcherPool
    total_s: float  # backend conversion + MatcherPool(...) + register()s
    backend_s: float


def set_up(work: Workload) -> Setup:
    """Build the pool the program would build: convert the base graph to
    the pinned backend, construct the pool, register every query."""
    graph = work.base.copy()
    t0 = time.perf_counter()
    graph = as_backend(graph, work.backend)
    t1 = time.perf_counter()
    pool = MatcherPool(graph, graph_backend=work.backend, **work.pool_options)
    for q in work.queries:
        pool.register(q.pattern, semantics=q.semantics, name=q.name,
                      **q.options)
    t2 = time.perf_counter()
    return Setup(pool, t2 - t0, t1 - t0)


Feed = Callable[[MatcherPool], None]


def materialize(work: Workload, index: int) -> Tuple[int, List[Feed]]:
    """Batch ``index`` as (event count, list of pool calls).  Temporal
    workloads advance pool time to each event's timestamp and stamp the
    insert with it, as ``Replayer`` feeds a trace."""
    b = work.batches[index]
    n = len(b) // 3
    names = work.nodes
    temporal = "window" in work.pool_options
    calls: List[Feed] = []
    for j in range(n):
        code, a, c = b[3 * j], b[3 * j + 1], b[3 * j + 2]
        if code == INS:
            u = insert(names[a], names[c])
            if temporal:
                calls.append(_stamped(u, event_ts(index, j, n)))
            else:
                calls.append(_queue(u))
        elif code == DEL:
            calls.append(_queue(delete(names[a], names[c])))
        elif code == SCORE:
            calls.append(_node(names[a], {"score": c}))
        elif code == LABEL:
            calls.append(_node(names[a], {"label": work.labels[a][c]}))
        else:
            raise ValueError(f"unknown op code {code} in batch {index}")
    return n, calls


def _queue(u) -> Feed:
    return lambda pool: pool.queue(u)


def _stamped(u, ts: float) -> Feed:
    def feed(pool: MatcherPool) -> None:
        if ts > pool.now:
            pool.advance(ts)
        pool.queue(u, ts=ts)
    return feed


def _node(v, attrs: Dict[str, Any]) -> Feed:
    return lambda pool: pool.queue_node(v, **attrs)


class StreamResult(NamedTuple):
    flushes: int
    events: int
    timed_s: float
    latencies: List[float]  # seconds, one per timed flush
    sizes: List[int]  # events queued, one per timed flush
    probes: List[float]  # HostProbe() before each window and after the last
    failed: int
    problems: List[str]
    reports: List[Any]  # FlushReport per timed flush (when kept)


def stream(
    pool: MatcherPool,
    work: Workload,
    seconds: Optional[float],
    max_flushes: Optional[int] = None,
    fault: Optional[str] = None,
    keep_reports: bool = False,
    on_warm: Optional[Callable[[], None]] = None,
    probe: Optional[HostProbe] = None,
) -> StreamResult:
    """Replay ``work``'s batches through ``pool`` in a closed loop.

    Warm-up batches are applied untimed.  With ``max_flushes`` the loop
    does exactly that many flushes; otherwise it stops at the first window
    boundary after ``seconds`` of timed work and ``MIN_FLUSHES`` flushes.
    It always stops at the end of the stream or after ``WALL_LIMIT_S``.
    ``fault`` injects an error for the self-tests: ``"drop-delta"`` loses
    one published delta, ``"corrupt-match"`` removes one pair from a
    query's maintained match set as soon as some answer is nonempty.
    """
    started = time.perf_counter()
    probe = probe or HostProbe()
    replay = verify.DeltaReplay(pool)
    for i in range(work.warmup):
        _, calls = materialize(work, i)
        for call in calls:
            call(pool)
        pool.flush()
    if on_warm is not None:
        on_warm()
    latencies: List[float] = []
    sizes: List[int] = []
    probes = [probe()]
    reports: List[Any] = []
    problems: List[str] = []
    failed = 0
    interval_start = 0
    interval_raised = 0
    events = 0
    timed = 0.0
    index = work.warmup
    drop = fault == "drop-delta"
    while index < len(work.batches):
        n, calls = materialize(work, index)
        index += 1
        t0 = time.perf_counter()
        try:
            for call in calls:
                call(pool)
            report = pool.flush()
        except Exception as exc:  # a failed flush is counted, not fatal
            dt = time.perf_counter() - t0
            interval_raised += 1
            problems.append(f"flush {len(latencies)} raised {exc!r}")
            report = None
        else:
            dt = time.perf_counter() - t0
        timed += dt
        events += n
        latencies.append(dt)
        sizes.append(n)
        if keep_reports:
            reports.append(report)
        done = len(latencies)
        if fault == "corrupt-match" and _corrupt_one(pool):
            fault = None
        if done % RATE_WINDOW == 0:
            probes.append(probe())
        if max_flushes is not None:
            last = done >= max_flushes
        else:
            last = (seconds is not None and timed >= seconds
                    and done >= MIN_FLUSHES and done % RATE_WINDOW == 0)
        last = (last or index >= len(work.batches)
                or time.perf_counter() - started > WALL_LIMIT_S)
        if done % DRAIN_EVERY == 0 or done in CHECKPOINTS or last:
            drop = replay.drain(drop_one=drop)
        if done in CHECKPOINTS or last:
            found = verify.check(pool, replay)
            problems.extend(found)
            failed += (done - interval_start) if found else interval_raised
            interval_start = done
            interval_raised = 0
        if last:
            break
    return StreamResult(len(latencies), events, timed, latencies, sizes,
                        probes, failed, problems, reports)


def _corrupt_one(pool: MatcherPool) -> bool:
    """Remove one pair from the maintained simulation relation of a query
    whose answer is not empty, bypassing the engine, so the next
    reference check must notice.  Returns False if no query qualified."""
    for q in pool.queries():
        if q.semantics == "isomorphism" or not q.is_match():
            continue
        obj = q.index
        while obj is not None and not hasattr(obj, "match"):
            obj = getattr(obj, "_inner", None) or getattr(obj, "join", None)
        for vs in getattr(obj, "match", {}).values():
            if vs:
                vs.discard(next(iter(vs)))
                return True
    return False


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * p / 100) - 1)]


def host_scale(probes: List[float]) -> float:
    """Factor turning times measured amid ``probes`` into times on the
    reference host."""
    return PROBE_REF_S / statistics.median(probes)


def window_scale(probes: List[float], k: int) -> float:
    """Scale for window ``k``, which ran between ``probes[k]`` and
    ``probes[k + 1]``.  The median of the six probes around it smooths
    the probe's own jitter; host slow-downs last seconds, longer than a
    few windows."""
    return host_scale(probes[max(0, k - 2):k + 4])


def scaled_rate(res: StreamResult) -> float:
    """A whole stream's events per second on the reference host."""
    return res.events / res.timed_s / host_scale(res.probes)


def measure(work: Workload, seconds: float,
            fault: Optional[str] = None) -> Dict[str, Any]:
    """The untraced run: ``SETUP_REPEATS`` set-ups, then a timed stream
    through the last pool; timings scaled to the reference host."""
    setups: List[float] = []
    raw_setups: List[float] = []
    setup = None
    probe = HostProbe()
    before = probe()
    for _ in range(SETUP_REPEATS):
        # Free the previous pool (it holds reference cycles) before
        # building the next, so at most one pool is ever alive.
        setup = None
        gc.collect()
        setup = set_up(work)
        after = probe()
        raw_setups.append(setup.total_s)
        setups.append(setup.total_s * host_scale([before, after]))
        before = after
    res = stream(setup.pool, work, seconds, fault=fault, probe=probe)
    windows = len(res.probes) - 1
    lat: List[float] = []
    rates: List[float] = []
    raw_rates: List[float] = []
    for k in range(windows):
        part = slice(k * RATE_WINDOW, (k + 1) * RATE_WINDOW)
        scale = window_scale(res.probes, k)
        raw = sum(res.sizes[part]) / sum(res.latencies[part])
        raw_rates.append(raw)
        rates.append(raw / scale)
        lat.extend(x * scale for x in res.latencies[part])
    if not windows:  # shorter than one window (tiny self-test runs)
        scale = host_scale(res.probes)
        lat = [x * scale for x in res.latencies]
        raw_rates = [res.events / res.timed_s]
        rates = [raw_rates[0] / scale]
    tails = [percentile(lat[k:k + TAIL_WINDOW], 95)
             for k in range(0, len(lat) - TAIL_WINDOW + 1, TAIL_WINDOW)]
    p95 = statistics.median(tails or [percentile(lat, 95)])
    p99 = percentile(lat, 99)
    return {
        "stream": res,
        "setup_samples": len(setups),
        "windows": windows,
        "scaled_flushes": len(lat),
        "beyond_p99": sum(1 for x in lat if x > p99),
        "updates_per_s": statistics.median(rates),
        "flush_p50_ms": 1e3 * statistics.median(lat),
        "flush_p95_ms": 1e3 * p95,
        "tail_windows": len(tails),
        "flush_p99_ms": 1e3 * p99,
        "setup_s": statistics.median(setups),
        "unscaled": {
            "updates_per_s": statistics.median(raw_rates),
            "flush_p50_ms": 1e3 * statistics.median(res.latencies[:len(lat)]),
            "setup_s": statistics.median(raw_setups),
            "probe_ms": 1e3 * statistics.median(res.probes),
        },
    }
