"""One benchmark run of one workload: untraced (end-to-end metrics) or
traced (per-layer metrics).  Each returns the result object that
``run.py`` prints as its last line, plus a dict of run details."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.graphs.kernels import kernel_mode

from . import driver, workloads
from .trace import Tracer

# The traced run does a fixed amount of work, not a fixed time, so its
# counts repeat exactly for a seed.  It first replays the same flushes
# untraced in the same process; the ratio of the two throughputs is the
# tracing overhead.
TRACE_FLUSHES = 1000
OUT_DIR = Path(__file__).resolve().parent / "out"


def environment(work: workloads.Workload) -> Dict[str, Any]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": work.name,
        "seed": work.seed,
        "backend": work.backend,
        "inputs_sha256": work.fingerprint(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "REPRO_KERNELS": os.environ.get("REPRO_KERNELS", ""),
        "kernel_mode": kernel_mode(),
        "nproc": os.cpu_count(),
    }


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(work: workloads.Workload, seconds: float,
               fault: Optional[str] = None) -> Tuple[Dict, Dict]:
    res = driver.measure(work, seconds, fault=fault)
    s = res["stream"]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "updates_per_s": _metric(res["updates_per_s"], "events/s"),
        "flush_p50_ms": _metric(res["flush_p50_ms"], "ms"),
        "flush_p95_ms": _metric(res["flush_p95_ms"], "ms"),
        "setup_s": _metric(res["setup_s"], "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }
    details = {
        "flushes": s.flushes,
        "events": s.events,
        "timed_s": s.timed_s,
        "samples": {
            "updates_per_s": res["windows"],
            "flush_p50_ms": res["scaled_flushes"],
            "flush_p95_ms": res["tail_windows"],
            "setup_s": res["setup_samples"],
            "peak_rss_mb": 1,
        },
        "flush_p99_ms": res["flush_p99_ms"],
        "samples_beyond_p99": res["beyond_p99"],
        "unscaled": res["unscaled"],
        "failed_frac": s.failed / s.flushes,
        "problems": s.problems[:20],
    }
    return _result(s, metrics), details


def _result(s: driver.StreamResult, metrics: Dict) -> Dict:
    return {
        "correct": s.failed == 0 and not s.problems,
        "attempted": s.flushes,
        "failed": s.failed,
        "metrics": metrics,
    }


def _counters(pool, tracer: Tracer) -> Dict[str, float]:
    """Cumulative counters read from the engine's public stats."""
    st = pool.stats
    inc = {}
    for q in pool.queries() + pool.plan.views():
        if q.stats is not None:
            inc[id(q.stats)] = q.stats
    return {
        "expired": st.expired_edges,
        "routed": st.routed_pairs,
        "skipped": st.skipped_pairs,
        "atom_evals": pool.eligibility.stats.atom_evals,
        "flips": pool.eligibility.stats.flips,
        "structure_batches": pool.substrate.stats.structure_batches,
        "rebuilds": pool.rebuild_counters()["total"],
        "aff": sum(x.aff_size() for x in inc.values()),
        "view_repairs": st.view_repairs,
        "join_pair_updates": st.join_pair_updates,
        "net": st.net_edge_updates,
        # Everything fed to net_updates: caller updates plus expiry deletes.
        "coalesced_in": st.edge_updates_queued + st.expired_edges,
        "consults": tracer.consults,
        "hits": tracer.consult_hits,
    }


def traced(work: workloads.Workload,
           write_spans: bool = True) -> Tuple[Dict, Dict]:
    plain = driver.stream(driver.set_up(work).pool, work, None,
                          max_flushes=TRACE_FLUSHES)
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        setup = driver.set_up(work)
        setup_wall = time.perf_counter() - t0
        pool = setup.pool
        tracer.trace_graph(pool.graph)
        marks = {}
        first_span = {}

        def warm() -> None:
            marks["before"] = _counters(pool, tracer)
            first_span["i"] = len(tracer.name)

        s = driver.stream(pool, work, None, max_flushes=TRACE_FLUSHES,
                          keep_reports=True, on_warm=warm)
        after = _counters(pool, tracer)
    finally:
        tracer.uninstall()
    before = marks["before"]
    d = {k: after[k] - before[k] for k in after}
    n = s.flushes
    flush_ids = [i for i in tracer.flush_spans() if i >= first_span["i"]]
    self_s = tracer.layer_self(flush_ids)
    flush_wall = sum(tracer.end[i] - tracer.start[i] for i in flush_ids)
    reports = [r for r in s.reports if r is not None]
    touched = sum(len(r.deltas) for r in reports)
    useful = sum(1 for r in reports for x in r.deltas.values() if x)
    delta_pairs = sum(len(x.added) + len(x.removed)
                      for r in reports for x in r.deltas.values())
    regs = tracer.spans_of("setup.register")
    reg_ms = [1e3 * (tracer.end[i] - tracer.start[i]) for i in regs]
    plain_ups = driver.scaled_rate(plain)
    traced_ups = driver.scaled_rate(s)

    def ms(layer: str) -> Dict[str, Any]:
        return _metric(1e3 * self_s[layer] / n, "ms")

    def per(key: str) -> Dict[str, Any]:
        return _metric(d[key] / n, "count")

    def ratio(a: float, b: float) -> Dict[str, Any]:
        return _metric(a / b if b else 0.0, "ratio")

    metrics = {
        "pool.self_ms": ms("pool"),
        "pool.expired_edges": per("expired"),
        "pool.live_edges": _metric(len(pool.live_edge_stamps()), "count"),
        "router.route_ms": ms("router"),
        "router.consults": per("consults"),
        "router.consult_hit_ratio": ratio(d["hits"], d["consults"]),
        "router.routed_pairs": per("routed"),
        "router.skipped_pairs": per("skipped"),
        "eligibility.observe_ms": ms("eligibility"),
        "eligibility.atom_evals": per("atom_evals"),
        "eligibility.flips": per("flips"),
        "distances.observe_ms": ms("distances"),
        "distances.structure_batches": per("structure_batches"),
        "distances.rebuilds": _metric(d["rebuilds"], "count"),
        "query.del_ms": ms("query.del"),
        "query.ins_ms": ms("query.ins"),
        "query.node_ms": ms("query.node"),
        "query.aff": per("aff"),
        "query.useful_ratio": ratio(useful, touched),
        "plan.deliver_ms": ms("plan"),
        "plan.view_repairs": per("view_repairs"),
        "plan.join_pair_updates": per("join_pair_updates"),
        "feeds.emit_ms": ms("feeds"),
        "feeds.delta_pairs": _metric(delta_pairs / n, "count"),
        "types.net_ms": ms("types"),
        "types.net_updates": per("net"),
        "types.net_ratio": ratio(d["net"], d["coalesced_in"]),
        "graphs.edit_ms": ms("graphs"),
        "setup.register_ms": _metric(statistics.mean(reg_ms), "ms"),
        "setup.backend_ms": _metric(1e3 * setup.backend_s, "ms"),
        "trace.flush_ms": _metric(1e3 * flush_wall / n, "ms"),
        "trace.updates_per_s": _metric(traced_ups, "events/s"),
        "trace.untraced_updates_per_s": _metric(plain_ups, "events/s"),
        "trace.overhead_ratio": ratio(plain_ups, traced_ups),
    }
    details = {
        "flushes": n,
        "layer_self_share": {k: v / flush_wall for k, v in self_s.items()},
        "traced_setup_s": setup_wall,
        "spans": len(tracer.name),
        "problems": (plain.problems + s.problems)[:20],
    }
    if write_spans:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{work.name}-seed{work.seed}.spans.jsonl.gz"
        tracer.write(path, meta={"workload": work.name, "seed": work.seed,
                                 "first_measured_span": first_span["i"]})
        details["spans_file"] = str(path.relative_to(OUT_DIR.parent.parent))
    result = _result(s, metrics)
    if plain.failed or plain.problems:
        result["correct"] = False
        result["failed"] += plain.failed
    result["attempted"] += plain.flushes
    return result, details
