"""Row-range partitioning: the chunk layer under the pipeline executor.

A :class:`TableChunk` is a contiguous row range of a source stream —
zero-copy column views plus the global ``[start, stop)`` coordinates
that tie it back to the base table (sampling draws and lineage ids are
functions of the *global* row position, never the chunk-local one, so
any partitioning of the same rows yields the same sample).

:class:`PartitionedTable` splits one table into aligned chunks;
:func:`chunk_bounds` is the bare boundary computation shared with
streams that have no backing table.

Alignment matters for exactness, not just speed: block-level sampling
(``TABLESAMPLE SYSTEM``) assigns one lineage id to a whole block of
consecutive rows.  The partition-merge estimator folds each chunk into
a compacted per-lineage-key sum table; a block straddling a chunk
boundary would reach the merge as two partial sums, a different float
association from the serial engine's one pass over the sample.
:func:`required_alignment` therefore walks the plan for block sampling
nodes and the partitioner rounds chunk boundaries up to a multiple of
every block size, so each lineage key is always wholly inside one chunk
and the merge is bit-for-bit independent of the partitioning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.relational import plan as p
from repro.relational.table import Table

__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "PartitionedTable",
    "TableChunk",
    "chunk_bounds",
    "required_alignment",
]

#: Default rows per chunk: large enough that per-chunk numpy dispatch
#: overhead is negligible, small enough that a chunk of a wide table
#: stays comfortably inside L2/L3-sized working sets.
DEFAULT_CHUNK_ROWS = 65_536

#: Ceiling on the block-size lcm the partitioner will honour; beyond it
#: chunks simply grow to one-block-per-chunk granularity.
_MAX_ALIGNMENT = 1 << 22


@dataclass(frozen=True)
class TableChunk:
    """One contiguous row range of a source stream."""

    table: Table
    start: int
    stop: int
    index: int

    @property
    def n_rows(self) -> int:
        return self.stop - self.start

    def __repr__(self) -> str:
        return (
            f"TableChunk(#{self.index}, rows [{self.start}, {self.stop}))"
        )


def chunk_bounds(
    n_rows: int, chunk_size: int, align: int = 1
) -> list[tuple[int, int]]:
    """Split ``[0, n_rows)`` into ``[start, stop)`` ranges.

    Boundaries land on multiples of ``align`` (except the final stop).
    An empty input yields one empty range so a pipeline always carries
    at least one (schema-bearing) chunk.
    """
    chunk_size = max(1, int(chunk_size))
    align = max(1, int(align))
    step = max(chunk_size, align)
    if align > 1:
        step = (step // align) * align
    if n_rows <= 0:
        return [(0, 0)]
    return [
        (start, min(start + step, n_rows))
        for start in range(0, n_rows, step)
    ]


class PartitionedTable:
    """A table split into contiguous, zero-copy row-range chunks."""

    __slots__ = ("table", "bounds")

    def __init__(
        self, table: Table, bounds: list[tuple[int, int]]
    ) -> None:
        self.table = table
        self.bounds = list(bounds)

    @classmethod
    def partition(
        cls,
        table: Table,
        chunk_size: int = DEFAULT_CHUNK_ROWS,
        align: int = 1,
    ) -> "PartitionedTable":
        return cls(table, chunk_bounds(table.n_rows, chunk_size, align))

    @property
    def n_chunks(self) -> int:
        return len(self.bounds)

    def chunk(self, index: int) -> TableChunk:
        start, stop = self.bounds[index]
        return TableChunk(
            table=self.table.slice(start, stop),
            start=start,
            stop=stop,
            index=index,
        )

    def chunks(self):
        """Iterate the chunks in row order."""
        return (self.chunk(i) for i in range(self.n_chunks))

    def __len__(self) -> int:
        return self.n_chunks

    def __repr__(self) -> str:
        return (
            f"PartitionedTable({self.table.name or '<anon>'}, "
            f"rows={self.table.n_rows}, chunks={self.n_chunks})"
        )


def required_alignment(plan: p.PlanNode) -> int:
    """Chunk-boundary alignment the plan's sampling methods require.

    The lcm of every block sampler's rows-per-block (capped); 1 when
    all sampling is tuple-level.
    """
    align = 1
    for node in p.walk(plan):
        if isinstance(node, p.TableSample):
            block = getattr(node.method, "rows_per_block", None)
            if block:
                align = math.lcm(align, int(block))
                if align > _MAX_ALIGNMENT:
                    return _MAX_ALIGNMENT
    return align
