"""The three benchmark workloads.

Each workload generates its tables and statements from ``--seed`` (the
program only ever sees the generated tables and SQL text), runs a
closed loop for a fixed time, and verifies every answer afterwards.

* ``join_sample`` and ``grouped_scan`` drive ``Database.sql`` in
  process with ``workers=2`` from one client thread.  Every statement
  carries a fresh ``REPEATABLE`` seed, and the database has no synopsis
  catalog, so no statement can be answered from a cache.
* ``catalog_mix`` serves a TPC-H database through ``QueryService`` and
  ``start_server`` to two closed-loop ``ServeClient`` connections.
"""

from __future__ import annotations

import asyncio
import math
import os
import re
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

#: Sizes per ``--size``.  ``full`` is the measured configuration;
#: ``tiny`` only exercises every code path (the self-test).
SIZES = {
    "full": {
        "join_lineitem": 300_000,
        "join_orders": 30_000,
        "grouped_scale": 8.35,
        "mix_scale": 2.0,
        "mix_refresh_every": 300,
    },
    "tiny": {
        "join_lineitem": 20_000,
        "join_orders": 2_000,
        "grouped_scale": 0.4,
        "mix_scale": 0.4,
        "mix_refresh_every": 40,
    },
}

WORKERS = 2
#: Admission capacity (requests per second) far above what two
#: closed-loop clients offer, so ``catalog_mix`` measures serving rather
#: than load shedding: at the default capacity of 32/s the controller
#: rewrites most statements to lower sampling rates, and how many it
#: rewrites would then depend on how fast the engine answers.
SERVE_CAPACITY = 1e6
#: A served statement still unanswered after this long counts as failed.
STATEMENT_TIMEOUT_S = 30.0
LEVEL = 0.95
REL_TOL = 1e-9

_NUM = r"[-+]?(?:nan|inf|\d+(?:\.\d*)?(?:e[-+]?\d+)?)"
_TRIPLE = re.compile(rf"({_NUM})\s+\[({_NUM}), ({_NUM})\]")
_SAMPLING = re.compile(
    r"\s*TABLESAMPLE \([^)]*\)(?: REPEATABLE \(\d+\))?|\s*WITHIN \S+ % CONFIDENCE \S+"
)


@dataclass
class Estimate:
    """One reported number: its group key, value and 95% interval."""

    alias: str
    key: tuple
    value: float
    lo: float
    hi: float


@dataclass
class Record:
    """One statement as the client saw it."""

    text: str
    kind: str
    rows: int
    start_ns: int = 0
    end_ns: int = 0
    first_ns: int = 0
    epoch: int = 0
    route: str = "engine"
    exact: bool = False
    slot: int = -1
    #: The engine drew this answer's sample (no cache or stored sample).
    drawn: bool = True
    frames: int = 0
    met: bool = False
    error: str | None = None
    estimates: list[Estimate] = field(default_factory=list)

    @property
    def latency(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    @property
    def first_estimate(self) -> float:
        return (self.first_ns - self.start_ns) / 1e9


@dataclass
class Verification:
    failures: list[str] = field(default_factory=list)
    #: Relative errors per reported number (statement slot, alias, group).
    rel_errors: dict = field(default_factory=dict)
    covered: list[bool] = field(default_factory=list)
    #: Relative errors of every sampled answer served, drawn or reused,
    #: per statement kind (printed, not a declared metric).
    served: dict = field(default_factory=dict)
    bad: set = field(default_factory=set)

    def fail(self, rec: Record, message: str) -> None:
        self.failures.append(message)
        self.bad.add(id(rec))

    @property
    def failed(self) -> int:
        """Statements that errored, were refused, or answered wrongly."""
        return len(self.bad)


def exact_text(text: str) -> str:
    """The statement with its sampling and budget clauses removed."""
    return _SAMPLING.sub("", text)


def close_enough(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def parse_intervals(text: str, aliases: list[str], n_keys: int) -> list[Estimate]:
    """Estimates and intervals from the service's printed answer.

    Ungrouped answers print ``alias = v   [lo, hi] @95%`` per alias;
    grouped ones print one tab-separated row per group, key columns
    first, then ``v [lo, hi]`` per alias.
    """
    out: list[Estimate] = []
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("--")]
    if n_keys == 0:
        triples = [_TRIPLE.search(ln) for ln in lines]
        for alias, m in zip(aliases, [t for t in triples if t]):
            out.append(Estimate(alias, (), *(float(g) for g in m.groups())))
        return out
    for line in lines[1:]:
        cells = line.split("\t")
        key = tuple(cells[:n_keys])
        for alias, cell in zip(aliases, cells[n_keys:]):
            m = _TRIPLE.search(cell)
            if m:
                out.append(Estimate(alias, key, *(float(g) for g in m.groups())))
    return out


def score(records: list[Record], truth_of, check: Verification) -> None:
    """Finite answers, exact equality for exact statements, and accuracy.

    ``truth_of(record)`` returns ``{(alias, key): true value}``.  Only
    answers whose sample the engine drew for them are scored for
    accuracy: an answer served from the result cache or a stored sample
    repeats the error of an earlier draw, and counting it again would
    weigh one draw many times.
    """
    for rec in records:
        if rec.error is not None:
            check.fail(rec, f"{rec.kind}: {rec.error}")
            continue
        truth = truth_of(rec)
        if not rec.estimates:
            check.fail(rec, f"{rec.kind}: empty answer for {rec.text!r}")
            continue
        for est in rec.estimates:
            if rec.exact:
                want = truth.get((est.alias, est.key))
                if want is None or est.value != want:
                    check.fail(
                        rec, f"{rec.kind}: exact {est.alias}{est.key} = {est.value!r}, "
                        f"sql_exact gives {want!r}"
                    )
                continue
            if not all(math.isfinite(v) for v in (est.value, est.lo, est.hi)):
                check.fail(
                    rec, f"{rec.kind}: non-finite {est.alias}{est.key} "
                    f"{est.value} [{est.lo}, {est.hi}]"
                )
                continue
            want = truth.get((est.alias, est.key))
            if want is None:
                check.fail(rec, f"{rec.kind}: group {est.key} not in the truth")
                continue
            if want == 0.0:
                continue
            error = abs(est.value - want) / abs(want)
            check.served.setdefault(rec.kind, []).append(error)
            if rec.drawn:
                check.rel_errors.setdefault((rec.slot, est.alias, est.key), []).append(error)
                check.covered.append(est.lo <= want <= est.hi)


def table_truth(table, aliases: list[str], keys: list[str]) -> dict:
    """``{(alias, key tuple): value}`` from a ``sql_exact`` result table."""
    cols = {k: np.asarray(table.column(k)) for k in keys}
    out = {}
    for alias in aliases:
        values = np.asarray(table.column(alias), dtype=float)
        for i, v in enumerate(values):
            key = tuple(str(cols[k][i]) for k in keys)
            out[(alias, key)] = float(v)
    return out


# -- in-process engine workloads --------------------------------------------


class EngineWorkload:
    """Shared closed loop of the two in-process engine workloads."""

    name = ""
    why = ""
    aliases: list[str] = []
    keys: list[str] = []
    #: The filter parameter values statements cycle through.
    PARAMS: list = []

    def __init__(self, seed: int, size: str, scratch: str) -> None:
        self.seed = int(seed)
        self.size = SIZES[size]
        self.scratch = scratch
        self.db = None
        self.attach_seconds: list[float] = []
        self.dataset_bytes = 0
        self._statements = self._statement_stream()
        self._reference: dict[str, list[Estimate]] = {}
        self._truth: dict[str, dict] = {}

    def teardown(self) -> None:
        self.db = None

    def close(self) -> None:
        self.teardown()

    def _answer(self, result) -> list[Estimate]:
        if self.keys:
            keys = [np.asarray(result.keys[k]) for k in self.keys]
            out = []
            for alias in self.aliases:
                est = result.estimates[alias]
                lo, hi = est.ci_bounds(LEVEL)
                for i, value in enumerate(np.asarray(result.values[alias])):
                    key = tuple(str(col[i]) for col in keys)
                    out.append(Estimate(alias, key, float(value), float(lo[i]), float(hi[i])))
            return out
        out = []
        for alias in self.aliases:
            ci = result.estimates[alias].ci(LEVEL)
            out.append(Estimate(alias, (), float(result.values[alias]),
                                float(ci.lo), float(ci.hi)))
        return out

    def warm_up(self) -> None:
        self.db.sql(self.statement(self.seed ^ 0x5EED, self.PARAMS[0])[0], workers=WORKERS)

    def _statement_stream(self):
        """Fresh sample seeds; the filter parameters cycle through all
        their values (in a seeded order), so every run has the same mix."""
        rng = np.random.default_rng([self.seed, 1])
        seeds = iter(rng.permutation(1_000_000) + 1)
        while True:
            for param in rng.permutation(len(self.PARAMS)):
                yield self.statement(int(next(seeds)), self.PARAMS[int(param)])

    def run(self, seconds: float | None, replay: list[Record] | None = None,
            recorder=None) -> list[Record]:
        """Closed loop: one statement at a time until the time is up."""
        rows = sum(t.n_rows for t in self.db.tables.values())
        records: list[Record] = []
        deadline = time.perf_counter() + (seconds or 0.0)
        plan = iter(replay) if replay is not None else None
        while True:
            if plan is not None:
                prev = next(plan, None)
                if prev is None:
                    break
                text, kind = prev.text, prev.kind
            else:
                if time.perf_counter() >= deadline and records:
                    break
                text, kind = next(self._statements)
            rec = Record(text=text, kind=kind, rows=rows)
            rec.start_ns = time.perf_counter_ns()
            try:
                if recorder is not None:
                    with recorder.span("statement", new_statement=True):
                        result = self.db.sql(text, workers=WORKERS)
                else:
                    result = self.db.sql(text, workers=WORKERS)
                rec.end_ns = rec.first_ns = time.perf_counter_ns()
                rec.estimates = self._answer(result)
            except Exception as exc:  # one bad statement must not stop the run
                rec.end_ns = rec.first_ns = time.perf_counter_ns()
                rec.error = f"{type(exc).__name__}: {exc}"
            records.append(rec)
        return records

    def verify(self, records: list[Record]) -> Verification:
        """Serial-engine reference (1e-9 relative) plus ``sql_exact`` truth."""
        check = Verification()
        for rec in records:
            if rec.error is not None:
                continue
            ref = self._reference.get(rec.text)
            if ref is None:
                ref = self._reference[rec.text] = self._answer(
                    self.db.sql(rec.text, workers=0)
                )
            mine = {(e.alias, e.key): e for e in rec.estimates}
            theirs = {(e.alias, e.key): e for e in ref}
            if mine.keys() != theirs.keys():
                check.fail(rec, f"{self.name}: groups differ from the serial engine")
                continue
            for k, e in mine.items():
                r = theirs[k]
                if not all(close_enough(a, b) for a, b in
                           ((e.value, r.value), (e.lo, r.lo), (e.hi, r.hi))):
                    check.fail(
                        rec, f"{self.name}: {k} = {e.value!r} [{e.lo!r}, {e.hi!r}], serial "
                        f"engine gives {r.value!r} [{r.lo!r}, {r.hi!r}]"
                    )

        def truth_of(rec: Record) -> dict:
            key = exact_text(rec.text)
            if key not in self._truth:
                self._truth[key] = table_truth(self.db.sql_exact(key), self.aliases, self.keys)
            return self._truth[key]

        score(records, truth_of, check)
        return check


class JoinSample(EngineWorkload):
    name = "join_sample"
    why = ("star join over mmap tables with random foreign keys: the hash-join "
           "build and sample draw do almost all the work")
    aliases = ["revenue", "n", "avg_qty"]
    keys: list[str] = []

    def setup(self) -> None:
        from repro.relational.database import Database
        from repro.relational.table import Table

        n_li, n_o = self.size["join_lineitem"], self.size["join_orders"]
        rng = np.random.default_rng([self.seed, 0])
        lineitem = Table("lineitem", {
            "l_orderkey": rng.integers(0, n_o, n_li),
            "l_quantity": rng.integers(1, 51, n_li).astype(np.float64),
            "l_extendedprice": np.round(rng.uniform(900.0, 105_000.0, n_li), 2),
            "l_discount": rng.integers(0, 11, n_li) / 100.0,
            "l_shipdate": rng.integers(0, 2_500, n_li),
        })
        orders = Table("orders", {
            "o_orderkey": np.arange(n_o, dtype=np.int64),
            "o_totalprice": np.round(rng.uniform(1_000.0, 500_000.0, n_o), 2),
        })
        root = os.path.join(self.scratch, "join_sample")
        shutil.rmtree(root, ignore_errors=True)
        self.db = Database(seed=0, workers=WORKERS)
        self.dataset_bytes = 0
        for table in (lineitem, orders):
            path = os.path.join(root, table.name)
            table.persist(path)
            self.dataset_bytes += sum(
                os.path.getsize(os.path.join(path, f)) for f in os.listdir(path)
            )
            t0 = time.perf_counter()
            self.db.attach(table.name, path)
            self.attach_seconds.append(time.perf_counter() - t0)
        del lineitem, orders
        self.warm_up()

    #: ``l_shipdate`` cutoffs.
    PARAMS = [800, 1200, 1600, 2000, 2300, 2499]

    def statement(self, s: int, cutoff: int) -> tuple[str, str]:
        return (
            "SELECT SUM(l_extendedprice*(1-l_discount)) AS revenue, COUNT(*) AS n, "
            "AVG(l_quantity) AS avg_qty FROM lineitem, orders TABLESAMPLE (5 PERCENT) "
            f"REPEATABLE ({s}) WHERE l_orderkey = o_orderkey AND l_shipdate <= {cutoff}",
            "join",
        )

    def close(self) -> None:
        self.teardown()
        shutil.rmtree(os.path.join(self.scratch, "join_sample"), ignore_errors=True)


class GroupedScan(EngineWorkload):
    name = "grouped_scan"
    why = ("Q1-shaped GROUP BY over an in-RAM table, no join: scan, filter, "
           "sample, fold and above all the grouped chunk merge do the work")
    aliases = ["sum_qty", "sum_base", "sum_disc", "sum_charge",
               "avg_qty", "avg_price", "avg_disc", "n"]
    keys = ["l_returnflag", "l_linestatus"]

    def setup(self) -> None:
        from repro.data.tpch import generate_tpch
        from repro.relational.database import Database

        tables = generate_tpch(self.size["grouped_scale"], seed=self.seed)
        self.db = Database(seed=0, workers=WORKERS)
        self.db.register("lineitem", tables["lineitem"])
        del tables
        self.warm_up()

    #: ``l_shipdate`` ranges, all 1,500 days wide and all straddling the
    #: day (1,700) where the groups change, so every statement reads the
    #: same share of rows into the same three groups: latencies that
    #: cluster by range put the median between clusters, where it jumps
    #: from one seed to the next.
    PARAMS = [(250, 1749), (400, 1899), (550, 2049), (700, 2199), (850, 2349), (999, 2498)]

    def statement(self, s: int, shipdates: tuple[int, int]) -> tuple[str, str]:
        lo, hi = shipdates
        return (
            "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, "
            "SUM(l_extendedprice) AS sum_base, "
            "SUM(l_extendedprice*(1-l_discount)) AS sum_disc, "
            "SUM(l_extendedprice*(1-l_discount)*(1+l_tax)) AS sum_charge, "
            "AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, "
            "AVG(l_discount) AS avg_disc, COUNT(*) AS n "
            f"FROM lineitem TABLESAMPLE (10 PERCENT) REPEATABLE ({s}) "
            f"WHERE l_shipdate >= {lo} AND l_shipdate <= {hi} "
            "GROUP BY l_returnflag, l_linestatus",
            "grouped",
        )


# -- the served workload ------------------------------------------------------


@dataclass(frozen=True)
class Slot:
    """One entry of the Zipf-ranked statement pool."""

    kind: str
    template: str
    route: str = "tcp"          # tcp | progressive | inproc
    tables: tuple = ("lineitem",)
    aliases: tuple = ()
    keys: tuple = ()
    exact: bool = False
    fresh: bool = False
    #: Inclusive range of ``{x}``, drawn afresh for every statement.
    vary: tuple | None = None


class CatalogMix:
    name = "catalog_mix"
    why = ("served TPC-H mix over QueryService and the TCP tier with cache "
           "hits, catalog reuse, misses, budgets, version diffs and writes")

    #: Zipf exponent of the statement pool.
    ZIPF = 1.1

    def __init__(self, seed: int, size: str, scratch: str) -> None:
        self.seed = int(seed)
        self.size = SIZES[size]
        self.service = None
        self.server = None
        self.clients: list = []
        self.loop: asyncio.AbstractEventLoop | None = None
        self.attach_seconds: list[float] = []
        self.dataset_bytes = 0
        rng = np.random.default_rng([self.seed, 2])
        q = int(rng.integers(5, 46))
        d = [int(x) for x in rng.integers(600, 2_400, 3)]
        t = int(rng.integers(5_000, 20_000))
        # {r0}, {r1}, {r2}: sample seeds drawn afresh every epoch.  Slots
        # that share a seed share one stored sample within the epoch.
        base = "FROM lineitem TABLESAMPLE (20 PERCENT) REPEATABLE ({r0})"
        rev = ("rev",)
        self.slots = [
            # Predicate variants of one stored 20% sample: result-cache
            # misses that the catalog serves by pushdown.
            Slot("pushdown", f"SELECT SUM(l_extendedprice) AS rev {base} "
                 "WHERE l_extendedprice > {x}", aliases=rev, vary=(1_000, 15_000)),
            # Second rank: some 300 budget statements a run, enough for the
            # median time to the first frame to repeat from run to run.
            Slot("budget", "SELECT SUM(l_extendedprice) AS rev FROM lineitem "
                 "TABLESAMPLE (5 PERCENT) WITHIN 3 % CONFIDENCE 0.95",
                 route="progressive", aliases=rev),
            # A fresh seed at a rate no stored sample covers: miss, draw, put.
            Slot("fresh", "SELECT SUM(o_totalprice) AS total FROM orders "
                 "TABLESAMPLE (10 PERCENT) REPEATABLE ({fresh})", tables=("orders",),
                 aliases=("total",), fresh=True),
            Slot("repeat", f"SELECT SUM(l_extendedprice) AS rev, COUNT(*) AS n {base}",
                 aliases=("rev", "n")),
            Slot("reuse", f"SELECT AVG(l_quantity) AS avg_qty, SUM(l_tax) AS tax {base}",
                 aliases=("avg_qty", "tax")),
            # A fresh seed under a stored 20% sample: served by thinning it.
            Slot("fresh", "SELECT SUM(l_extendedprice) AS rev FROM lineitem "
                 "TABLESAMPLE (10 PERCENT) REPEATABLE ({fresh})", aliases=rev, fresh=True),
            Slot("exact", "SELECT SUM(l_quantity) AS qty, COUNT(*) AS n FROM lineitem "
                 f"WHERE l_shipdate < {d[0]}", aliases=("qty", "n"), exact=True),
            Slot("grouped", "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS qty, "
                 f"COUNT(*) AS n {base} WHERE l_shipdate < {{x}} "
                 "GROUP BY l_returnflag, l_linestatus", route="inproc",
                 aliases=("qty", "n"), keys=("l_returnflag", "l_linestatus"),
                 vary=(600, 2_400)),
            Slot("pushdown", f"SELECT SUM(l_extendedprice) AS rev {base} "
                 "WHERE l_quantity > {x}", aliases=rev, vary=(5, 45)),
            Slot("diff", "SELECT SUM(l_extendedprice) AS d FROM lineitem MINUS AT VERSION "
                 f"{{version}} TABLESAMPLE (10 PERCENT) REPEATABLE ({{r1}})",
                 route="inproc", aliases=("d",)),
            Slot("join", "SELECT SUM(l_extendedprice) AS rev FROM lineitem TABLESAMPLE "
                 f"(20 PERCENT) REPEATABLE ({{r2}}), orders WHERE l_orderkey = o_orderkey "
                 "AND o_totalprice > {x}", tables=("lineitem", "orders"), aliases=rev,
                 vary=(5_000, 20_000)),
            Slot("pinned", "SELECT SUM(l_extendedprice) AS rev FROM lineitem AT VERSION "
                 f"{{version}} TABLESAMPLE (10 PERCENT) REPEATABLE ({{r1}})", aliases=rev),
            Slot("exact", "SELECT SUM(o_totalprice) AS total FROM orders "
                 f"WHERE o_orderdate < {d[1]}", tables=("orders",), aliases=("total",),
                 exact=True),
            Slot("thin", "SELECT SUM(l_extendedprice) AS rev FROM lineitem "
                 f"TABLESAMPLE (5 PERCENT) REPEATABLE ({{r0}})", aliases=rev),
            Slot("thin", "SELECT SUM(l_extendedprice) AS rev FROM lineitem "
                 f"TABLESAMPLE ({{x}} PERCENT) REPEATABLE ({{r0}})", aliases=rev, vary=(2, 19)),
            Slot("budget", "SELECT SUM(l_extendedprice) AS rev FROM lineitem "
                 "TABLESAMPLE (5 PERCENT) WITHIN 2 % CONFIDENCE 0.95",
                 route="progressive", aliases=rev),
            Slot("grouped", "SELECT l_returnflag, SUM(l_extendedprice) AS rev "
                 f"{base} WHERE l_shipdate < {d[2]} GROUP BY l_returnflag",
                 route="inproc", aliases=rev, keys=("l_returnflag",)),
            Slot("join", "SELECT SUM(l_extendedprice) AS rev FROM lineitem TABLESAMPLE "
                 f"(20 PERCENT) REPEATABLE ({{r2}}), orders WHERE l_orderkey = o_orderkey "
                 f"AND o_totalprice > {t}", tables=("lineitem", "orders"), aliases=rev),
            Slot("pushdown", f"SELECT SUM(l_extendedprice) AS rev {base} WHERE l_quantity > {q}",
                 aliases=rev),
            Slot("diff", "SELECT SUM(l_extendedprice) AS d FROM lineitem MINUS AT VERSION "
                 f"{{version}} TABLESAMPLE (5 PERCENT) REPEATABLE ({{r1}})",
                 route="inproc", aliases=("d",)),
        ]
        ranks = np.arange(1, len(self.slots) + 1, dtype=float)
        weights = ranks ** -self.ZIPF
        # Every round holds each slot its Zipf share of times; only the
        # order is drawn, so all runs serve the same mix.
        counts = np.maximum(1, np.round(weights / weights.sum() * self.size["mix_refresh_every"]))
        self.round_slots = np.repeat(np.arange(len(self.slots)), counts.astype(int))
        self._rng = np.random.default_rng([self.seed, 3])
        self._fresh = iter(np.random.default_rng([self.seed, 4]).permutation(10**6) + 10_000)
        self._rows: dict[str, int] = {}
        self._truth: dict[tuple, dict] = {}
        self._truth_db = None
        self._truth_epoch = 0

    # -- data ---------------------------------------------------------------

    def _tables(self):
        from repro.data.tpch import generate_tpch

        return generate_tpch(self.size["mix_scale"], seed=self.seed)

    def refresh(self, epoch: int, table):
        """The ``epoch``-th write: 1% of lineitem prices rise by 2-10%
        (update-shaped, so ``MINUS AT VERSION`` differences stay well away
        from zero and their relative error means something)."""
        rng = np.random.default_rng([self.seed, 5, epoch])
        price = np.array(table.column("l_extendedprice"), dtype=float, copy=True)
        rows = rng.choice(price.shape[0], size=max(1, price.shape[0] // 100), replace=False)
        price[rows] = np.round(price[rows] * rng.uniform(1.02, 1.10, rows.shape[0]), 2)
        return table.with_columns({"l_extendedprice": price})

    # -- lifecycle ----------------------------------------------------------

    def setup(self) -> None:
        from repro.relational.database import Database
        from repro.serve import ServeClient, ServeConfig, start_server
        from repro.service import QueryService

        tables = self._tables()
        db = Database.from_tables(tables, seed=0, catalog=True)
        db.workers = WORKERS
        self._rows = {name: t.n_rows for name, t in tables.items()}
        self.service = QueryService(db, level=LEVEL)
        # Version 1 exists from the start, so diffs have a snapshot.
        self.service.refresh_table("lineitem", self.refresh(0, db.table("lineitem")))
        self.loop = asyncio.new_event_loop()

        async def start():
            server = await start_server(self.service, ServeConfig(
                workers=WORKERS, port=0, capacity=SERVE_CAPACITY))
            clients = [await ServeClient.connect("127.0.0.1", server.tcp_port)
                       for _ in range(2)]
            # Warm-up: imports, pools and the first cost-model calibration.
            await clients[0].query("SELECT COUNT(*) AS n FROM region")
            await clients[1].query(
                "SELECT SUM(c_acctbal) AS b FROM customer TABLESAMPLE (50 PERCENT) WITHIN 20 % "
                "CONFIDENCE 0.9", progressive=True, seed=1)
            return server, clients

        self.server, self.clients = self.loop.run_until_complete(start())

    def teardown(self) -> None:
        if self.loop is None:
            return

        async def stop():
            for client in self.clients:
                await client.close()
            await self.server.drain()

        self.loop.run_until_complete(stop())
        self.loop.close()
        self.loop = None
        self.server = None
        self.clients = []
        self.service = None

    def close(self) -> None:
        self.teardown()

    # -- statements ---------------------------------------------------------

    def next_round(self, epoch: int) -> list[Record]:
        picks = self._rng.permutation(self.round_slots)
        seeds = np.random.default_rng([self.seed, 6, epoch]).integers(1, 10_000, 3)
        out = []
        for i in picks:
            slot = self.slots[int(i)]
            text = slot.template.replace("{version}", str(epoch + 1))
            for k, value in enumerate(seeds):
                text = text.replace("{r%d}" % k, str(int(value)))
            if slot.fresh:
                text = text.replace("{fresh}", str(next(self._fresh)))
            if slot.vary is not None:
                text = text.replace("{x}", str(int(self._rng.integers(slot.vary[0], slot.vary[1] + 1))))
            out.append(Record(
                text=text, kind=slot.kind, rows=sum(self._rows[t] for t in slot.tables),
                epoch=epoch, route=slot.route, exact=slot.exact, slot=int(i),
            ))
        return out

    # -- the loop -----------------------------------------------------------

    async def _serve_one(self, client, rec: Record, recorder) -> None:
        from repro.errors import ReproError

        rec.start_ns = time.perf_counter_ns()
        try:
            await asyncio.wait_for(self._send(client, rec), STATEMENT_TIMEOUT_S)
        except (ReproError, OSError, asyncio.TimeoutError) as exc:
            rec.end_ns = rec.first_ns = time.perf_counter_ns()
            rec.error = f"{type(exc).__name__}: {exc}"
        if recorder is not None:
            recorder.record("client.statement", rec.start_ns, rec.end_ns, route=rec.route)

    async def _send(self, client, rec: Record) -> None:
        aliases, keys = self._shape(rec)
        if rec.route == "inproc":
            # Grouped answers and version diffs never get a reply over the
            # NDJSON protocol (see perfbench/README.md), so these go to the
            # same QueryService directly, from a client thread.
            loop = asyncio.get_running_loop()
            response = await loop.run_in_executor(None, self.service.query, rec.text)
            rec.end_ns = rec.first_ns = time.perf_counter_ns()
            reuse = response.reuse
            if isinstance(reuse, dict):  # a version diff: one entry per side
                reuse = next((r for r in reuse.values() if r is not None), None)
            rec.drawn = not response.cached and reuse is None
            rec.estimates = self._from_values(response.values, response.text, aliases, keys)
            return
        if rec.route == "progressive":
            def on_frame(_payload):
                if not rec.first_ns:
                    rec.first_ns = time.perf_counter_ns()
                rec.frames += 1

            payload = await client.query(rec.text, progressive=True,
                                         on_frame=on_frame)
            rec.end_ns = time.perf_counter_ns()
            rec.first_ns = rec.first_ns or rec.end_ns
            if payload.get("status") != "ok":
                rec.error = f"progressive status {payload.get('status')}"
            rec.met = bool(payload.get("met"))
            # The ladder's pilot may come from a stored sample.
            rec.drawn = False
        else:
            payload = await client.query(rec.text)
            rec.end_ns = rec.first_ns = time.perf_counter_ns()
            rec.drawn = payload.get("tag") == "fresh"
        rec.estimates = self._from_values(
            payload.get("values") or {}, payload.get("text", ""), aliases, ())

    def _shape(self, rec: Record) -> tuple[list[str], list[str]]:
        slot = self.slots[rec.slot]
        return list(slot.aliases), list(slot.keys)

    @staticmethod
    def _from_values(values: dict, text: str, aliases: list[str], keys) -> list[Estimate]:
        """Full-precision values from ``values``; intervals from the text."""
        parsed = parse_intervals(text, aliases, len(keys))
        if not keys:
            for est in parsed:
                if est.alias in values:
                    est.value = float(values[est.alias])
            return parsed
        # Grouped: the printed rows follow the value arrays' group order.
        per_alias: dict[str, int] = {}
        for est in parsed:
            i = per_alias.get(est.alias, 0)
            per_alias[est.alias] = i + 1
            arr = values.get(est.alias)
            if arr is not None and i < len(arr):
                est.value = float(arr[i])
        return parsed

    async def _round(self, queue: list[Record], deadline: float | None, recorder,
                     done: list[Record]) -> None:
        async def client_loop(client):
            while queue:
                if deadline is not None and time.perf_counter() >= deadline:
                    return
                rec = queue.pop(0)
                await self._serve_one(client, rec, recorder)
                done.append(rec)

        await asyncio.gather(*(client_loop(c) for c in self.clients))

    def run(self, seconds: float | None, replay: list[Record] | None = None,
            recorder=None) -> list[Record]:
        """Rounds of ``mix_refresh_every`` statements, a write after each."""
        done: list[Record] = []
        deadline = None if replay is not None else time.perf_counter() + (seconds or 0.0)
        epoch = 0
        while True:
            if replay is not None:
                queue = [Record(text=r.text, kind=r.kind, rows=r.rows, epoch=r.epoch,
                                route=r.route, exact=r.exact, slot=r.slot)
                         for r in replay if r.epoch == epoch]
                if not queue:
                    break
            else:
                if time.perf_counter() >= deadline:
                    break
                queue = self.next_round(epoch)
            self.loop.run_until_complete(self._round(queue, deadline, recorder, done))
            if replay is None and time.perf_counter() >= deadline:
                break
            epoch += 1
            table = self.service.db.table("lineitem")
            self.service.refresh_table("lineitem", self.refresh(epoch, table))
        return done

    # -- verification -------------------------------------------------------

    def _truth_at(self, epoch: int):
        """A replica advanced to ``epoch`` by the same writes."""
        from repro.relational.database import Database

        if self._truth_db is None or self._truth_epoch > epoch:
            self._truth_db = Database.from_tables(self._tables(), seed=0)
            self._truth_db.update_table(
                "lineitem", self.refresh(0, self._truth_db.table("lineitem")))
            self._truth_epoch = 0
        while self._truth_epoch < epoch:
            self._truth_epoch += 1
            self._truth_db.update_table("lineitem", self.refresh(
                self._truth_epoch, self._truth_db.table("lineitem")))
        return self._truth_db

    def verify(self, records: list[Record]) -> Verification:
        check = Verification()

        def truth_of(rec: Record) -> dict:
            key = (exact_text(rec.text), rec.epoch)
            if key not in self._truth:
                aliases, keys = self._shape(rec)
                db = self._truth_at(rec.epoch)
                self._truth[key] = table_truth(db.sql_exact(key[0]), aliases, keys)
            return self._truth[key]

        score(sorted(records, key=lambda r: r.epoch), truth_of, check)
        return check


WORKLOADS = {w.name: w for w in (JoinSample, GroupedScan, CatalogMix)}
