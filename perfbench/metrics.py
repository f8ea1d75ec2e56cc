"""Metric names, units, and how each is computed from one run.

End-to-end metrics come from the untraced pass; per-layer metrics from
the traced pass (plus the untraced pass for ``phase.*`` and the
tracing overhead).  Unless a name says otherwise, a per-layer time or
count is the mean per statement of the pass (``*_us`` and ``*_ms``
latencies of single functions are means per call).  A layer a workload
never reaches reports 0.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracing import outermost, unattributed_fraction

#: (name, unit, better)
END_TO_END = [
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("rows_per_s", "rows/s", "higher"),
    ("statements_per_s", "1/s", "higher"),
    ("first_estimate_p50_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("rel_error_p50", "ratio", "lower"),
    ("ci_coverage", "ratio", "higher"),
]

#: (name, unit, better)
PER_LAYER = [
    ("sql.parse_us", "us", "lower"), ("sql.plan_us", "us", "lower"),
    ("core.rewrite_us", "us", "lower"),
    ("optimizer.optimize_ms", "ms", "lower"),
    ("optimizer.rungs_per_statement", "count", "lower"),
    ("optimizer.useful_fraction", "ratio", "higher"),
    ("store.probe_us", "us", "lower"), ("store.materialize_ms", "ms", "lower"),
    ("store.put_ms", "ms", "lower"), ("store.hit_rate", "ratio", "higher"),
    ("store.invalidations", "count", "lower"),
    ("service.result_cache_hit_rate", "ratio", "higher"),
    ("service.fresh_ms", "ms", "lower"),
    ("serve.overhead_ms", "ms", "lower"), ("serve.degraded", "count", "lower"),
    ("serve.rejected", "count", "lower"),
    ("pipeline.build_s", "s", "lower"), ("pipeline.stream_s", "s", "lower"),
    ("pipeline.chunks", "count", "lower"), ("pipeline.rows_in", "count", "lower"),
    ("pipeline.rows_out", "count", "lower"), ("pipeline.chunk_p50_ms", "ms", "lower"),
    ("pipeline.chunk_max_ms", "ms", "lower"),
    ("executor.probe_sorted_s", "s", "lower"), ("executor.probe_rows", "count", "lower"),
    ("kernels.hash01_s", "s", "lower"), ("kernels.group_sums_s", "s", "lower"),
    ("sketch.update_s", "s", "lower"), ("sketch.merge_s", "s", "lower"),
    ("sketch.merge_calls", "count", "lower"), ("sketch.state_rows", "count", "lower"),
    ("estimator.estimate_ms", "ms", "lower"),
    ("parallel.busy_fraction", "ratio", "higher"), ("parallel.wait_s", "s", "lower"),
    ("colstore.attach_ms", "ms", "lower"), ("colstore.major_faults", "count", "lower"),
    ("colstore.dataset_mb", "MB", "lower"),
    ("versions.diff_ms", "ms", "lower"),
    ("phase.draw_s", "s", "lower"), ("phase.merge_s", "s", "lower"),
    ("phase.estimate_s", "s", "lower"), ("phase.catalog_probe_s", "s", "lower"),
    ("phase.residual_s", "s", "lower"),
    ("obs.trace_overhead", "ratio", "lower"), ("obs.unattributed_fraction", "ratio", "lower"),
    ("obs.draw_gap", "ratio", "lower"), ("obs.merge_gap", "ratio", "lower"),
]

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(records, wall: float, setup_times, check, peak_rss_bytes: float) -> dict:
    """The user-visible figures of one untraced pass."""
    ok = [r for r in records if r.error is None]
    latencies = np.array([r.latency for r in ok]) if ok else np.zeros(1)
    budget = [r.first_estimate for r in ok if r.route == "progressive"]
    first = budget if budget else [r.first_estimate for r in ok]
    busy = sum(r.latency for r in ok)
    return {
        "latency_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "latency_p90_ms": float(np.percentile(latencies, 90)) * 1e3,
        "rows_per_s": sum(r.rows for r in ok) / busy if busy else 0.0,
        "statements_per_s": len(ok) / wall if wall else 0.0,
        "first_estimate_p50_ms": _median(first) * 1e3,
        "setup_s": _median(setup_times),
        "peak_rss_mb": peak_rss_bytes / 2**20,
        "rel_error_p50": rel_error_p50(check.rel_errors),
        "ci_coverage": float(np.mean(check.covered)) if check.covered else 0.0,
    }


def rel_error_p50(series: dict) -> float:
    """Weighted median over reported numbers of each one's median relative error.

    A statement reports several numbers (aggregates, groups) whose error
    scales differ by orders of magnitude (an AVG against a SUM); pooling
    them would put the median where few values lie.  Each number's own
    median is weighted by how many draws it rests on, so a number seen
    in a handful of draws cannot swing the figure.
    """
    pairs = sorted((statistics.median(v), len(v)) for v in series.values() if v)
    half = sum(w for _, w in pairs) / 2.0
    seen = 0
    for value, weight in pairs:
        seen += weight
        if seen >= half:
            return float(value)
    return 0.0


def _total(spans, name: str) -> float:
    return sum(s.seconds for s in outermost(spans, name))


def _mean_call(spans, name: str) -> float:
    calls = [s.seconds for s in spans if s.name == name]
    return sum(calls) / len(calls) if calls else 0.0


def _phase(delta: dict, phase: str) -> float:
    return delta.get(phase, {}).get("seconds", 0.0)


def serve_overhead(records, spans) -> list[float]:
    """Client latency minus the ``QueryService.query`` span it contains."""
    by_text: dict[str, list] = {}
    for s in spans:
        if s.name == "service.query":
            by_text.setdefault(s.attrs.get("text", ""), []).append(s)
    out = []
    for rec in records:
        if rec.route != "tcp" or rec.error is not None:
            continue
        inside = [s for s in by_text.get(rec.text.strip(), [])
                  if s.start_ns >= rec.start_ns and s.end_ns <= rec.end_ns]
        if inside:
            served = max(s.end_ns - s.start_ns for s in inside)
            out.append((rec.end_ns - rec.start_ns - served) / 1e9)
    return out


def per_layer(*, traced, spans, untraced_wall: float, traced_wall: float,
              phases_untraced: dict, n_untraced: int, phases_traced: dict,
              counters: dict, workload) -> dict:
    """Every per-layer figure of one trace run."""
    n = max(1, len(traced))
    per = lambda x: x / n  # noqa: E731 - per-statement mean
    maps = [s for s in spans if s.name == "pipeline.map_chunks"]
    tasks = [s.seconds for s in spans if s.name == "parallel.task"]
    canon = [s for s in spans if s.name == "store.canonicalize"]
    budget = [r for r in traced if r.route == "progressive" and r.error is None]
    frames = sum(r.frames for r in budget)
    fresh = [s.seconds for s in spans if s.name == "service.query" and not s.attrs.get("cached")]
    merges_by_stmt: dict = {}
    for s in spans:
        if s.name == "sketch.merge":
            merges_by_stmt[s.statement] = max(merges_by_stmt.get(s.statement, 0),
                                              s.attrs.get("state_rows", 0))
    map_wall = sum(s.seconds * s.attrs.get("workers", 1) for s in maps)
    phase_draw = _phase(phases_traced, "draw") + _phase(phases_traced, "merge")
    phase_merge = _phase(phases_traced, "merge")
    statements = [(r.start_ns, r.end_ns) for r in traced]
    m = max(1, n_untraced)
    lookups = counters.get("store.lookups", 0)
    queries = counters.get("service.queries", 0)
    out = {
        "sql.parse_us": _mean_call(spans, "sql.parse") * 1e6,
        "sql.plan_us": _mean_call(spans, "sql.plan") * 1e6,
        "core.rewrite_us": _mean_call(spans, "core.rewrite") * 1e6,
        "optimizer.optimize_ms": _mean_call(spans, "optimizer.optimize") * 1e3,
        "optimizer.rungs_per_statement": frames / len(budget) if budget else 0.0,
        "optimizer.useful_fraction": sum(r.met for r in budget) / frames if frames else 0.0,
        "store.probe_us": (
            (_total(spans, "store.canonicalize") + _total(spans, "store.match"))
            / len(canon) * 1e6 if canon else 0.0
        ),
        "store.materialize_ms": _mean_call(spans, "store.materialize") * 1e3,
        "store.put_ms": _mean_call(spans, "store.put") * 1e3,
        "store.hit_rate": counters.get("store.hits", 0) / lookups if lookups else 0.0,
        "store.invalidations": float(counters.get("store.invalidations", 0)),
        "service.result_cache_hit_rate": (
            counters.get("service.result_cache_hits", 0) / queries if queries else 0.0
        ),
        "service.fresh_ms": (sum(fresh) / len(fresh) * 1e3) if fresh else 0.0,
        "serve.overhead_ms": _median(serve_overhead(traced, spans)) * 1e3,
        "serve.degraded": float(counters.get("serve.degrade", 0)),
        "serve.rejected": float(counters.get("serve.reject", 0)),
        "pipeline.build_s": _mean_of(maps, "build_ns") / 1e9,
        "pipeline.stream_s": _mean_of(maps, "stream_ns") / 1e9,
        "pipeline.chunks": _mean_of(maps, "chunks"),
        "pipeline.rows_in": _mean_of(maps, "rows_in"),
        "pipeline.rows_out": _mean_of(maps, "rows_out"),
        "pipeline.chunk_p50_ms": float(np.median(tasks)) * 1e3 if tasks else 0.0,
        "pipeline.chunk_max_ms": max(tasks) * 1e3 if tasks else 0.0,
        "executor.probe_sorted_s": per(_total(spans, "executor.probe_sorted")),
        "executor.probe_rows": per(sum(s.attrs.get("rows", 0) for s in spans
                                       if s.name == "executor.probe_sorted")),
        "kernels.hash01_s": per(_total(spans, "kernels.hash01")),
        "kernels.group_sums_s": per(_total(spans, "kernels.group_sums")),
        "sketch.update_s": per(_total(spans, "sketch.update")),
        "sketch.merge_s": per(_total(spans, "sketch.merge")),
        "sketch.merge_calls": per(sum(1 for s in spans if s.name == "sketch.merge")),
        "sketch.state_rows": _median(list(merges_by_stmt.values())),
        "estimator.estimate_ms": per(_total(spans, "estimator.estimate")) * 1e3,
        "parallel.busy_fraction": sum(tasks) / map_wall if map_wall else 0.0,
        "parallel.wait_s": per(sum(s.attrs.get("wait_ns", 0)
                                   for s in outermost(spans, "parallel.imap")) / 1e9),
        "colstore.attach_ms": _median(workload.attach_seconds) * 1e3,
        "colstore.major_faults": float(counters.get("colstore.major_faults", 0)),
        "colstore.dataset_mb": workload.dataset_bytes / 2**20,
        "versions.diff_ms": _mean_call(spans, "versions.diff") * 1e3,
        "phase.draw_s": _phase(phases_untraced, "draw") / m,
        "phase.merge_s": _phase(phases_untraced, "merge") / m,
        "phase.estimate_s": _phase(phases_untraced, "estimate") / m,
        "phase.catalog_probe_s": _phase(phases_untraced, "catalog_probe") / m,
        "phase.residual_s": _phase(phases_untraced, "residual") / m,
        "obs.trace_overhead": traced_wall / untraced_wall if untraced_wall else 0.0,
        "obs.unattributed_fraction": unattributed_fraction(spans, statements),
        "obs.draw_gap": (
            abs(sum(s.seconds for s in maps) - phase_draw) / phase_draw if phase_draw else 0.0
        ),
        "obs.merge_gap": (
            abs(_total(spans, "sketch.merge") - phase_merge) / phase_merge
            if phase_merge else 0.0
        ),
    }
    return out


def _mean_of(spans, attr: str) -> float:
    return sum(s.attrs.get(attr, 0) for s in spans) / len(spans) if spans else 0.0
