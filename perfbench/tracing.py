"""Run-time spans around the engine's public entry points.

The traced run wraps the functions below from the benchmark's own code
(module attributes are swapped while :func:`installed` is active and
restored afterwards); nothing inside ``src/`` is edited and the
program's own tracer (``REPRO_TRACE``) stays off.  Every span records
its name, start, end, parent span and statement id; spans stay in
memory and are written out once the run ends.

Worker threads of ``ChunkScheduler.imap`` inherit the submitting
thread's statement and parent span through a wrapped task function, so
chunk-side spans (probe, fold, kernels) hang under the statement that
caused them.  Only the thread scheduler is traced this way; the
benchmark runs with ``REPRO_SCHEDULER`` unset.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: Statement-level wrappers: they contain the layers rather than being
#: one, so they do not count as attributed time.
CONTAINERS = frozenset(
    {"statement", "client.statement", "service.query", "serve.progressive"}
)


@dataclass
class Span:
    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent_id: int | None
    statement: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class SpanRecorder:
    """In-memory span store with a per-thread (statement, parent) context."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- context -------------------------------------------------------

    def context(self) -> tuple[int | None, int | None]:
        """(statement id, innermost open span id) of the calling thread."""
        stack = getattr(self._local, "stack", None)
        if stack:
            return stack[-1]
        return getattr(self._local, "inherited", (None, None))

    @contextlib.contextmanager
    def inherit(self, ctx: tuple[int | None, int | None]) -> Iterator[None]:
        """Adopt another thread's context (used inside pool workers)."""
        previous = getattr(self._local, "inherited", (None, None))
        self._local.inherited = ctx
        try:
            yield
        finally:
            self._local.inherited = previous

    @contextlib.contextmanager
    def span(self, name: str, *, new_statement: bool = False, **attrs) -> Iterator[dict]:
        """Open a span; ``new_statement`` starts a fresh statement id when
        the thread has none (server-side roots)."""
        statement, parent = self.context()
        if new_statement and statement is None:
            statement = next(self._ids)
        span_id = next(self._ids)
        stack = self._local.__dict__.setdefault("stack", [])
        stack.append((statement, span_id))
        box = dict(attrs)
        start = time.perf_counter_ns()
        try:
            yield box
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(
                Span(span_id, name, start, end, parent, statement,
                     threading.get_ident(), box)
            )

    def record(self, name: str, start_ns: int, end_ns: int, **attrs) -> None:
        """Append a closed root span (client-side statement timings)."""
        span_id = next(self._ids)
        self.spans.append(
            Span(span_id, name, start_ns, end_ns, None, span_id,
                 threading.get_ident(), dict(attrs))
        )

    def dump(self, path) -> None:
        """Write every span as one JSON line (the end-of-run flush)."""
        with open(path, "w") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "id": s.span_id, "name": s.name, "start_ns": s.start_ns,
                    "end_ns": s.end_ns, "parent": s.parent_id,
                    "statement": s.statement, "thread": s.thread,
                    "attrs": {k: v for k, v in s.attrs.items()
                              if isinstance(v, (int, float, str, bool))},
                }) + "\n")


# -- wrappers ---------------------------------------------------------------


def _plain(rec: SpanRecorder, name: str, fn: Callable, attrs_of=None, *,
           root: bool = False) -> Callable:
    def wrapper(*args, **kwargs):
        with rec.span(name, new_statement=root) as box:
            out = fn(*args, **kwargs)
            if attrs_of is not None:
                box.update(attrs_of(args, kwargs, out))
            return out
    wrapper.__wrapped__ = fn
    return wrapper


class _InContext:
    """A pool task that runs under the submitting thread's context."""

    def __init__(self, rec: SpanRecorder, fn: Callable, ctx) -> None:
        self.rec, self.fn, self.ctx = rec, fn, ctx

    def __call__(self, task):
        with self.rec.inherit(self.ctx):
            with self.rec.span("parallel.task"):
                return self.fn(task)


def _imap(rec: SpanRecorder, fn: Callable) -> Callable:
    """``ChunkScheduler.imap``: propagate context, time the consumer's waits."""

    def wrapper(self, task_fn, tasks, **kwargs):
        with rec.span("parallel.imap", workers=self.workers) as box:
            ctx = rec.context()
            inner = fn(self, _InContext(rec, task_fn, ctx), tasks, **kwargs)
            waited = 0
            while True:
                t0 = time.perf_counter_ns()
                try:
                    item = next(inner)
                except StopIteration:
                    waited += time.perf_counter_ns() - t0
                    break
                waited += time.perf_counter_ns() - t0
                box["wait_ns"] = waited
                # The consumer runs between yields; that time is not waiting.
                yield item
            box["wait_ns"] = waited
    wrapper.__wrapped__ = fn
    return wrapper


def _plan_base_rows(executor, plan) -> int:
    from repro.relational import plan as p

    rows = 0
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, p.Scan) and node.table_name in executor.catalog:
            rows += executor.catalog[node.table_name].n_rows
        stack.extend(node.children)
    return rows


def _item_rows(item) -> int:
    if isinstance(item, tuple):
        item = item[0]
    return int(getattr(item, "n_rows", 0))


def _map_chunks(rec: SpanRecorder, fn: Callable) -> Callable:
    """``ChunkedExecutor.map_chunks``: build time to the first chunk, then
    the producer's own time per later chunk (consumer time excluded)."""

    def wrapper(self, plan, per_chunk, columns=None):
        with rec.span("pipeline.map_chunks") as box:
            box["rows_in"] = _plan_base_rows(self, plan)
            box["workers"] = self.workers
            start = time.perf_counter_ns()
            inner = fn(self, plan, per_chunk, columns=columns)
            build = stream = 0
            chunks = rows_out = 0
            while True:
                t0 = time.perf_counter_ns()
                try:
                    item = next(inner)
                except StopIteration:
                    stream += time.perf_counter_ns() - t0
                    break
                t1 = time.perf_counter_ns()
                if chunks == 0:
                    build = t1 - start
                else:
                    stream += t1 - t0
                chunks += 1
                rows_out += _item_rows(item)
                box.update(build_ns=build, stream_ns=stream,
                           chunks=chunks, rows_out=rows_out)
                yield item
            box.update(build_ns=build, stream_ns=stream,
                       chunks=chunks, rows_out=rows_out)
    wrapper.__wrapped__ = fn
    return wrapper


def _service_query(rec: SpanRecorder, fn: Callable) -> Callable:
    def wrapper(self, statement, *, seed=None, session=None):
        with rec.span("service.query", new_statement=True,
                      session=session or "") as box:
            out = fn(self, statement, seed=seed, session=session)
            box["cached"] = bool(out.cached)
            box["text"] = statement.strip()
            return out
    wrapper.__wrapped__ = fn
    return wrapper


def _state_rows(args, kwargs, out) -> dict:
    rows = getattr(out, "n_entries", None)
    if rows is None:
        rows = getattr(out, "n_groups", 0)
    return {"state_rows": int(rows)}


def _probe_rows(args, kwargs, out) -> dict:
    keys = args[2] if len(args) > 2 else kwargs.get("right_keys")
    return {"rows": int(len(keys))}


def _targets():
    """(owner, attribute, wrapper factory) for every traced entry point."""
    import repro.core.kernels as kernels
    import repro.core.sbox as sbox
    import repro.relational.database as database
    import repro.relational.pipeline as pipeline
    import repro.sampling.pseudorandom as pseudorandom
    import repro.serve.handler as handler
    import repro.sql.parser as parser
    import repro.sql.planner as planner
    import repro.store as store
    import repro.versions.engine as versions
    from repro.optimizer.chooser import SamplingPlanOptimizer
    from repro.parallel import ChunkScheduler
    from repro.relational.pipeline import ChunkedExecutor
    from repro.service import QueryService
    from repro.store.catalog import SynopsisCatalog
    from repro.store.matcher import ReuseMatcher
    from repro.stream.sketch import GroupedMomentBundle, MomentSketchBundle

    def plain(name, attrs_of=None, root=False):
        return lambda rec, fn: _plain(rec, name, fn, attrs_of, root=root)

    return [
        (parser, "parse", plain("sql.parse")),
        (planner, "plan_query", plain("sql.plan")),
        (sbox.SBox, "analyze", plain("core.rewrite")),
        (store, "canonicalize", plain("store.canonicalize")),
        (ReuseMatcher, "match", plain("store.match")),
        (store, "materialize", plain("store.materialize")),
        (SynopsisCatalog, "put", plain("store.put")),
        (QueryService, "query", _service_query),
        (handler, "run_progressive", plain("serve.progressive", root=True)),
        (SamplingPlanOptimizer, "optimize", plain("optimizer.optimize")),
        (database.Database, "cost_model", plain("optimizer.calibrate")),
        (ChunkedExecutor, "map_chunks", _map_chunks),
        (ChunkScheduler, "imap", _imap),
        (pipeline, "probe_sorted", plain("executor.probe_sorted", _probe_rows)),
        (kernels, "hash01", plain("kernels.hash01")),
        (pseudorandom, "hash01", plain("kernels.hash01")),
        (kernels, "group_sums", plain("kernels.group_sums")),
        (MomentSketchBundle, "update", plain("sketch.update")),
        (GroupedMomentBundle, "update", plain("sketch.update")),
        (MomentSketchBundle, "merge", plain("sketch.merge", _state_rows)),
        (GroupedMomentBundle, "merge", plain("sketch.merge", _state_rows)),
        (sbox.SBox, "estimate_from_sample", plain("estimator.estimate")),
        (sbox.SBox, "estimate_from_sample_grouped", plain("estimator.estimate")),
        (sbox, "estimate_from_moments", plain("estimator.estimate")),
        (sbox, "unbiased_y_terms_grouped", plain("estimator.estimate")),
        (sbox, "grouped_theorem1_variance", plain("estimator.estimate")),
        (sbox, "ratio_estimates_grouped", plain("estimator.estimate")),
        (versions, "estimate_version_diff", plain("versions.diff")),
    ]


@contextlib.contextmanager
def installed(rec: SpanRecorder) -> Iterator[SpanRecorder]:
    """Swap every traced entry point for its wrapper; restore on exit."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner, attr, factory in _targets():
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, factory(rec, original))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- analysis ---------------------------------------------------------------


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    total = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _clip(intervals, lo: int, hi: int) -> list[tuple[int, int]]:
    return [(max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi]


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per span name: duration minus the union of its children."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append((s.start_ns, s.end_ns))
    out: dict[str, float] = {}
    for s in spans:
        covered = _union_ns(_clip(children.get(s.span_id, []), s.start_ns, s.end_ns))
        own = (s.end_ns - s.start_ns - covered) / 1e9
        out[s.name] = out.get(s.name, 0.0) + own
    return out


def outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans named ``name`` with no ancestor of the same name."""
    by_id = {s.span_id: s for s in spans}
    out = []
    for s in spans:
        if s.name != name:
            continue
        parent = by_id.get(s.parent_id) if s.parent_id is not None else None
        nested = False
        while parent is not None:
            if parent.name == name:
                nested = True
                break
            parent = by_id.get(parent.parent_id) if parent.parent_id is not None else None
        if not nested:
            out.append(s)
    return out


def unattributed_fraction(spans: list[Span], statement_intervals) -> float:
    """Share of in-flight statement time covered by no layer span."""
    busy = sorted(statement_intervals)
    if not busy:
        return 0.0
    layers = [(s.start_ns, s.end_ns) for s in spans if s.name not in CONTAINERS]
    busy_total = _union_ns(busy)
    # Merge the busy intervals, then measure layer coverage inside them.
    merged: list[list[int]] = []
    for lo, hi in busy:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    covered = sum(_union_ns(_clip(layers, lo, hi)) for lo, hi in merged)
    return max(0.0, 1.0 - covered / busy_total) if busy_total else 0.0
