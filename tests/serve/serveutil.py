"""Helpers shared by the serving-tier tests."""

from __future__ import annotations

import numpy as np

from repro.data.tpch import tpch_database
from repro.relational.database import Database
from repro.service import QueryService


def fresh_service(scale: float = 0.01, seed: int = 0) -> QueryService:
    db = tpch_database(scale=scale, seed=seed)
    db.attach_catalog()
    return QueryService(db)


#: A budgeted statement loose enough to converge in a few rungs.
BUDGETED = (
    "SELECT SUM(l_extendedprice) AS rev FROM lineitem "
    "TABLESAMPLE (5 PERCENT) WITHIN 10 % CONFIDENCE 0.95"
)

#: A plain statement for the result-cache/catalog path.
PLAIN = (
    "SELECT AVG(l_quantity) AS avg_qty FROM lineitem "
    "TABLESAMPLE (10 PERCENT) REPEATABLE (3)"
)


def versioned_service() -> QueryService:
    """A tiny service whose ``fact`` table has two frozen versions.

    Version 2 differs from version 1 by +10.0 on the first 18 ``val``
    values, so ``MINUS AT VERSION`` statements have a known answer.
    """
    db = Database(seed=5)
    key = np.arange(600, dtype=np.int64)
    db.create_table(
        "fact",
        {"key": key, "cat": key % 3, "val": 1.0 + (key % 37).astype(np.float64)},
    )
    changed = db.table("fact").column("val").copy()
    changed[:18] += 10.0
    db.update_table("fact", db.table("fact").with_columns({"val": changed}))
    db.snapshot("fact")
    db.attach_catalog()
    return QueryService(db)


#: A grouped statement over string GROUP BY keys (TPC-H services).
GROUPED = (
    "SELECT SUM(l_quantity) AS qty, COUNT(*) AS n FROM lineitem "
    "TABLESAMPLE (10 PERCENT) REPEATABLE (2) "
    "GROUP BY l_returnflag, l_linestatus"
)

#: Version differences over :func:`versioned_service`'s ``fact``.
DIFF = "SELECT SUM(val) AS d FROM fact AT VERSION 2 MINUS AT VERSION 1"
GROUPED_DIFF = (
    "SELECT SUM(val) AS d FROM fact AT VERSION 2 MINUS AT VERSION 1 "
    "GROUP BY cat"
)
