"""One workload, one child process: set up, measure, verify, report.

``run.py`` starts this file in a fresh interpreter per workload, so
peak RSS and allocator or page-cache warmth never leak between
workloads.  The last line on stdout is the result object.

Untraced run (``--trace 0``): set-up five times (the median is
``setup_s``), one closed-loop pass of ``--seconds``, then verification
of every answer outside the timed window.

Traced run (``--trace 1``): an untraced pass of half the time (phase
histograms read by snapshot delta), then the same statements again
with the layer wrappers of :mod:`tracing` installed.  The ratio of the
two walls is ``obs.trace_overhead``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import metrics
import tracing
from workloads import WORKLOADS

SETUP_REPEATS = 5


def counters(workload) -> dict:
    """The program's own cumulative counters that per-layer metrics use."""
    out = {"colstore.major_faults": resource.getrusage(resource.RUSAGE_SELF).ru_majflt}
    service = getattr(workload, "service", None)
    if service is None:
        return out
    stats, store = service.snapshot_stats()
    out.update({
        "store.lookups": store.lookups,
        "store.hits": store.hits,
        "store.invalidations": store.invalidations,
        "service.queries": stats.queries,
        "service.result_cache_hits": stats.result_cache_hits,
    })
    for (name, labels), value in service.metrics.snapshot().items():
        if name == "repro_serve_admission_total":
            out["serve." + dict(labels).get("action", "")] = float(value)
    return out


def _delta(before: dict, after: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after}


def timed_setup(workload) -> float:
    t0 = time.perf_counter()
    workload.setup()
    return time.perf_counter() - t0


def untraced_run(workload, seconds: float) -> tuple[dict, list, object]:
    from repro.obs.metrics import read_peak_rss_bytes

    setup_times = []
    for i in range(SETUP_REPEATS):
        if i:
            workload.teardown()
        setup_times.append(timed_setup(workload))
    t0 = time.perf_counter()
    records = workload.run(seconds)
    wall = time.perf_counter() - t0
    peak = read_peak_rss_bytes()
    t0 = time.perf_counter()
    check = workload.verify(records)
    verify_wall = time.perf_counter() - t0
    figures = metrics.end_to_end(records, wall, setup_times, check, peak)
    print(f"# {workload.name}: {len(records)} statements in {wall:.2f} s, "
          f"setup {['%.3f' % s for s in setup_times]} s, verified in {verify_wall:.2f} s, "
          f"{sum(map(len, check.rel_errors.values()))} scored estimates")
    print(f"# error_rate = {check.failed / max(1, len(records)):.6f} ratio")
    for kind, errors in sorted(check.served.items()):
        print(f"# served {kind}: median relative error {statistics.median(errors):.4g} "
              f"over {len(errors)} numbers")
    return figures, records, check


def traced_run(workload, seconds: float, out_dir: str, seed: int) -> tuple[dict, list, object]:
    from repro.obs.metrics import phase_seconds_delta, phase_seconds_snapshot

    timed_setup(workload)
    before = phase_seconds_snapshot()
    t0 = time.perf_counter()
    untraced = workload.run(seconds / 2)
    untraced_wall = time.perf_counter() - t0
    phases_untraced = phase_seconds_delta(before, phase_seconds_snapshot())
    if getattr(workload, "service", None) is not None:
        # A served run mutates its database; replay from a fresh one.
        workload.teardown()
        timed_setup(workload)

    recorder = tracing.SpanRecorder()
    c0 = counters(workload)
    before = phase_seconds_snapshot()
    with tracing.installed(recorder):
        t0 = time.perf_counter()
        traced = workload.run(None, replay=untraced, recorder=recorder)
        traced_wall = time.perf_counter() - t0
    phases_traced = phase_seconds_delta(before, phase_seconds_snapshot())
    delta = _delta(c0, counters(workload))
    figures = metrics.per_layer(
        traced=traced, spans=recorder.spans, untraced_wall=untraced_wall,
        traced_wall=traced_wall, phases_untraced=phases_untraced,
        n_untraced=len(untraced), phases_traced=phases_traced, counters=delta,
        workload=workload,
    )
    recorder.dump(os.path.join(out_dir, f"trace-{workload.name}-{seed}.jsonl"))
    check = workload.verify(untraced + traced)
    print(f"# {workload.name}: {len(untraced)} statements untraced in "
          f"{untraced_wall:.2f} s, replayed traced in {traced_wall:.2f} s, "
          f"{len(recorder.spans)} spans")
    print("# self time by span (s):")
    for name, seconds_self in sorted(tracing.self_times(recorder.spans).items(),
                                     key=lambda kv: -kv[1]):
        print(f"#   {name:28s} {seconds_self:10.4f}")
    return figures, untraced + traced, check


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full")
    ap.add_argument("--out", required=True, help="directory for data and traces")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.size, args.out)
    print(f"# {workload.name}: {workload.why}")
    try:
        if args.trace:
            figures, records, check = traced_run(workload, args.seconds, args.out, args.seed)
        else:
            figures, records, check = untraced_run(workload, args.seconds)
    finally:
        workload.close()
    for failure in check.failures[:20]:
        print(f"# FAILED {failure}")
    for name, value in figures.items():
        print(f"# {name} = {value:.6g} {metrics.UNITS[name]}")
    correct = not check.failures and bool(records)
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": check.failed,
        "metrics": {
            name: {"value": value, "unit": metrics.UNITS[name]}
            for name, value in figures.items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
