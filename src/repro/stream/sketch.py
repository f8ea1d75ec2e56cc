"""Mergeable moment bundles: the streaming form of the ``Y_S`` moments.

Theorem 1 needs, per subset ``S`` of the lineage schema, the moment
``Y_S = Σ_{groups g on S} (Σ_{t∈g} f(t))²``.  The square is not
additive, but the *per-group sums* underneath it are: a table mapping
each distinct full-lineage key to its running ``Σ f`` is a commutative
monoid under "concatenate and re-reduce".  Every coarser moment
``Y_S`` (``S ⊂ L``) is then a pure function of that one table, because
a lineage group on ``S`` is a union of full-lineage groups.

:class:`MomentSketchBundle` maintains exactly that table for one or
more weight vectors sharing the key columns — compacted after every
update so its size is the number of *distinct lineage keys seen*, not
the number of rows ingested — plus the sample row count.  It supports
three operations, all exact:

* ``update(fs, lineage)`` — absorb a batch in one vectorized pass;
* ``merge(*others)``      — combine any number of bundles (shards,
  windows, machines, chunks) with no approximation;
* ``moments()``           — emit one ``(Y_S)_{S⊆L}`` vector per weight
  vector.

Merging k states concatenates them in argument order and reduces once
(:func:`_reduce_tables`): one sort over all entries rather than the
k - 1 sorts of a pairwise fold, with the same bits as that fold.
Because the table is additive, the same accumulator estimates from any
sample however it arrived: the SBox folds partition chunks, whole
materialized samples and catalog-served samples through it alike, and
a single-aggregate stream is simply a bundle with ``n_vectors=1``.

The heavy lifting lives in :func:`repro.core.estimator.group_reduce_multi`
and :func:`repro.core.estimator.y_terms_from_groups`, the same
accumulator core the batch ``y_terms`` is built on — one source of
truth for the moment arithmetic.

:class:`GroupedMomentBundle` extends the same idea to GROUP BY
workloads by keying the table on (group key, lineage key); every
group's moment vector is then derivable from one shared state, and the
merge story is unchanged.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.estimator import (
    group_firsts,
    group_ids,
    group_reduce_multi,
    grouped_y_terms_multi,
    y_terms_from_groups,
)
from repro.core.lattice import SubsetLattice
from repro.errors import EstimationError

__all__ = ["GroupedMomentBundle", "MomentSketchBundle"]

#: A compacted group table: ``(key columns, weight vectors)``, one row
#: per distinct key, every weight vector parallel to the key columns.
_GroupTable = tuple[Sequence[np.ndarray], Sequence[np.ndarray]]


def _reduce_tables(tables: Sequence[_GroupTable]) -> tuple[list, list]:
    """Concatenate compacted group tables in order and reduce them once.

    Tables with no entries are skipped, so an untouched accumulator's
    int64 placeholder columns never promote a real key dtype, and a
    lone live table is returned as is.  Both the lexsort and the
    stable argsort keep equal keys in input order, and ``group_sums``
    adds in sorted order, so each key's partial sums are added in
    table order, ``((a1 + a2) + a3) + …`` — exactly the bits a left
    fold of pairwise reduces gives, at the cost of one sort.
    """
    live = [t for t in tables if t[1][0].size] or list(tables[:1])
    if len(live) == 1:
        keys, weights = live[0]
        return list(keys), list(weights)
    return group_reduce_multi(
        [np.concatenate(cols) for cols in zip(*(k for k, _ in live))],
        [np.concatenate(ws) for ws in zip(*(w for _, w in live))],
    )


def _check_mergeable(
    mine, others: Sequence, shape: Sequence[tuple[str, str]] = ()
) -> None:
    """Refuse, before any state changes, to merge a state whose lattice
    or shape (``(attribute, noun)`` pairs) differs from ``mine``'s."""
    for other in others:
        if mine.lattice != other.lattice:
            raise EstimationError(
                f"cannot merge sketches over different lattices: "
                f"{mine.lattice.dims} vs {other.lattice.dims}"
            )
        for attr, noun in shape:
            if getattr(mine, attr) != getattr(other, attr):
                raise EstimationError(
                    f"cannot merge sketches with {getattr(mine, attr)} vs "
                    f"{getattr(other, attr)} {noun}"
                )


def _coerce_batch(
    lattice: SubsetLattice,
    n_vectors: int,
    fs: Sequence[np.ndarray],
    lineage: Mapping[str, np.ndarray],
    group_cols: Sequence[np.ndarray] = (),
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Validate one batch: ``(weight vectors, lineage ids, group cols)``.

    Every weight vector must be 1-d and every lineage and group column
    must have the vectors' shape; lineage ids are coerced to int64 so
    tables from different batches always concatenate cleanly.
    """
    if len(fs) != n_vectors:
        raise EstimationError(
            f"expected {n_vectors} weight vectors, got {len(fs)}"
        )
    fs = [np.asarray(f, dtype=np.float64) for f in fs]
    shape = fs[0].shape
    for f in fs:
        if f.ndim != 1:
            raise EstimationError(f"f must be 1-d, got shape {f.shape}")
        if f.shape != shape:
            raise EstimationError(
                f"weight vectors have shapes {f.shape} and {shape}"
            )
    missing = [d for d in lattice.dims if d not in lineage]
    if missing:
        raise EstimationError(f"lineage columns missing for {missing}")
    lineage_cols = [np.asarray(lineage[d], dtype=np.int64) for d in lattice.dims]
    groups = [_coerce_group_column(c) for c in group_cols]
    for name, col in [
        *((f"group[{i}]", c) for i, c in enumerate(groups)),
        *zip(lattice.dims, lineage_cols),
    ]:
        if col.shape != shape:
            raise EstimationError(
                f"column {name!r} has shape {col.shape}; f has shape {shape}"
            )
    return fs, lineage_cols, groups


def _coerce_group_column(raw: np.ndarray) -> np.ndarray:
    """Group-key storage: integers normalize to int64, the rest (strings,
    floats) keep their dtype — the compaction sort falls back to lexsort
    for them, exactly like the batch grouped estimator."""
    arr = np.asarray(raw)
    if np.issubdtype(arr.dtype, np.integer):
        return arr.astype(np.int64, copy=False)
    if arr.dtype.kind in "US":
        return arr.astype(object)
    return arr


class MomentSketchBundle:
    """Incremental, mergeable accumulator of the lattice moments.

    The state is a compact group table shared by ``n_vectors`` weight
    vectors: ``_keys[i]`` holds the value of lineage dimension
    ``lattice.dims[i]`` for each distinct full-lineage key, ``_sums[j]``
    the running ``Σ f_j`` of that key's rows, and ``_n_rows`` the total
    rows absorbed.  The expensive part of absorbing a batch is the sort
    over the lineage keys; each vector's sums are one extra
    ``bincount``.  A multi-aggregate query (every SUM/COUNT plus the two
    extra AVG vectors) therefore folds all its weight vectors through
    a single bundle — one per chunk on the partition-parallel SBox
    path, merged by one :meth:`merge` call per query that concatenates
    every chunk's table and reduces them with a single sort, however
    many aggregates or chunks there are.  Every operation is exact.
    """

    __slots__ = ("lattice", "n_vectors", "_keys", "_sums", "_n_rows")

    def __init__(self, lattice: SubsetLattice, n_vectors: int) -> None:
        if n_vectors < 1:
            raise EstimationError(
                f"need at least one weight vector, got {n_vectors}"
            )
        self.lattice = lattice
        self.n_vectors = int(n_vectors)
        self._keys: list[np.ndarray] = [
            np.empty(0, dtype=np.int64) for _ in range(lattice.n)
        ]
        self._sums: list[np.ndarray] = [
            np.empty(0, dtype=np.float64) for _ in range(n_vectors)
        ]
        self._n_rows = 0

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def n_groups(self) -> int:
        return int(self._sums[0].shape[0])

    def totals(self) -> list[float]:
        """The running ``Σ f_j`` of every vector."""
        return [
            float(np.sum(s)) if s.size else 0.0 for s in self._sums
        ]

    def _table(self) -> _GroupTable:
        return self._keys, self._sums

    def _absorb(self, tables: Sequence[_GroupTable], n_rows: int) -> None:
        """Fold already-compacted group tables into the state."""
        keys, self._sums = _reduce_tables([self._table(), *tables])
        self._keys = [np.asarray(k, dtype=np.int64) for k in keys]
        self._n_rows += int(n_rows)

    def update(
        self,
        fs: Sequence[np.ndarray],
        lineage: Mapping[str, np.ndarray],
    ) -> "MomentSketchBundle":
        """Absorb one batch: ``fs[j]`` is vector ``j``'s row values.

        One reduce compacts the batch, a second folds it into the
        state — ``O((G + B) log (G + B))`` for state size ``G`` and
        batch size ``B``, independent of the rows already ingested when
        lineage keys repeat.  Returns ``self`` for chaining.
        """
        fs, cols, _ = _coerce_batch(self.lattice, self.n_vectors, fs, lineage)
        n = fs[0].shape[0]
        if n:
            self._absorb([group_reduce_multi(cols, fs)], n)
        return self

    def merge(self, *others: "MomentSketchBundle") -> "MomentSketchBundle":
        """Fold ``others`` into ``self`` in order (exact); returns ``self``.

        Every argument is checked before any state changes; the states
        are then concatenated in argument order and reduced once, which
        gives the same bits as merging them one at a time.
        """
        _check_mergeable(self, others, [("n_vectors", "weight vectors")])
        self._absorb(
            [o._table() for o in others], sum(o._n_rows for o in others)
        )
        return self

    def copy(self) -> "MomentSketchBundle":
        """An independent snapshot (state arrays are copied)."""
        dup = MomentSketchBundle(self.lattice, self.n_vectors)
        dup._keys = [k.copy() for k in self._keys]
        dup._sums = [s.copy() for s in self._sums]
        dup._n_rows = self._n_rows
        return dup

    def moments(self) -> list[np.ndarray]:
        """One plug-in moment vector ``(Y_S)_{S⊆L}`` per weight vector.

        Cost is ``O(2^n)`` groupings over the *compacted* table — the
        raw rows are never rescanned.
        """
        return [
            y_terms_from_groups(s, self._keys, self.lattice)
            for s in self._sums
        ]

    def __repr__(self) -> str:
        return (
            f"MomentSketchBundle(dims={list(self.lattice.dims)}, "
            f"n_vectors={self.n_vectors}, n_rows={self._n_rows}, "
            f"n_groups={self.n_groups})"
        )


class GroupedMomentBundle:
    """A mergeable moment state per GROUP BY group, in one table.

    The grouped twin of :class:`MomentSketchBundle`, and the grouped
    accumulator of the SBox: state rows are keyed on *(group key
    columns, full lineage key)* holding every vector's ``Σ f_j`` plus a
    row count.  That table is still a commutative monoid under
    concatenate-and-re-reduce, so bundles merge exactly across shards,
    windows and chunks even when a group was seen by only one of them.
    The group key columns keep their natural dtype, so SQL GROUP BY
    columns — strings included — stream straight in without a global
    factorization step, which no single partition could compute anyway.
    """

    __slots__ = (
        "lattice",
        "n_group_cols",
        "n_vectors",
        "_group_cols",
        "_keys",
        "_sums",
        "_counts",
        "_n_rows",
    )

    def __init__(
        self, lattice: SubsetLattice, n_group_cols: int, n_vectors: int
    ) -> None:
        if n_group_cols < 1:
            raise EstimationError(
                f"need at least one group column, got {n_group_cols}"
            )
        if n_vectors < 1:
            raise EstimationError(
                f"need at least one weight vector, got {n_vectors}"
            )
        self.lattice = lattice
        self.n_group_cols = int(n_group_cols)
        self.n_vectors = int(n_vectors)
        self._group_cols: list[np.ndarray] = [
            np.empty(0, dtype=np.int64) for _ in range(n_group_cols)
        ]
        self._keys: list[np.ndarray] = [
            np.empty(0, dtype=np.int64) for _ in range(lattice.n)
        ]
        self._sums: list[np.ndarray] = [
            np.empty(0, dtype=np.float64) for _ in range(n_vectors)
        ]
        self._counts = np.empty(0, dtype=np.float64)
        self._n_rows = 0

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def n_entries(self) -> int:
        return int(self._counts.shape[0])

    def _table(self) -> _GroupTable:
        return self._group_cols + self._keys, [*self._sums, self._counts]

    def _absorb(self, tables: Sequence[_GroupTable], n_rows: int) -> None:
        """Fold already-compacted (group, lineage) tables in."""
        reduced_keys, reduced = _reduce_tables([self._table(), *tables])
        self._group_cols = list(reduced_keys[: self.n_group_cols])
        self._keys = [
            np.asarray(k, dtype=np.int64)
            for k in reduced_keys[self.n_group_cols :]
        ]
        self._sums = list(reduced[: self.n_vectors])
        self._counts = reduced[self.n_vectors]
        self._n_rows += int(n_rows)

    def update(
        self,
        fs: Sequence[np.ndarray],
        lineage: Mapping[str, np.ndarray],
        group_cols: Sequence[np.ndarray],
    ) -> "GroupedMomentBundle":
        """Absorb one batch; ``group_cols[i][r]`` keys row ``r``."""
        if len(group_cols) != self.n_group_cols:
            raise EstimationError(
                f"expected {self.n_group_cols} group columns, "
                f"got {len(group_cols)}"
            )
        fs, cols, groups = _coerce_batch(
            self.lattice, self.n_vectors, fs, lineage, group_cols
        )
        n = fs[0].shape[0]
        if n:
            table = group_reduce_multi(
                groups + cols, fs + [np.ones(n, dtype=np.float64)]
            )
            self._absorb([table], n)
        return self

    def merge(self, *others: "GroupedMomentBundle") -> "GroupedMomentBundle":
        """Fold ``others`` into ``self`` in order (exact); returns ``self``.

        As :meth:`MomentSketchBundle.merge`: every argument is checked
        first, then one concatenate-and-reduce over all the states.
        """
        _check_mergeable(
            self,
            others,
            [("n_group_cols", "group columns"), ("n_vectors", "weight vectors")],
        )
        self._absorb(
            [o._table() for o in others], sum(o._n_rows for o in others)
        )
        return self

    def copy(self) -> "GroupedMomentBundle":
        """An independent snapshot (state arrays are copied)."""
        dup = GroupedMomentBundle(
            self.lattice, self.n_group_cols, self.n_vectors
        )
        dup._group_cols = [c.copy() for c in self._group_cols]
        dup._keys = [k.copy() for k in self._keys]
        dup._sums = [s.copy() for s in self._sums]
        dup._counts = self._counts.copy()
        dup._n_rows = self._n_rows
        return dup

    def groups(self) -> tuple[list[np.ndarray], np.ndarray, int]:
        """Factorize the distinct group keys seen so far.

        Returns ``(group_key_columns, owner, n_groups)``: one array per
        group column holding each distinct key once (sorted), the dense
        group id of every state entry, and the group count.
        """
        n_entries = self.n_entries
        owner, n_groups = group_ids(self._group_cols, n_entries)
        first = group_firsts(owner, n_groups, n_entries)
        return [c[first] for c in self._group_cols], owner, n_groups

    def moments(
        self,
    ) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray], np.ndarray]:
        """Per-group plug-in moments for every vector and group.

        Returns ``(group_keys, Ys, totals, counts)``: the distinct
        group key columns, one ``(n_groups, lattice.size)`` matrix and
        one per-group total vector per weight vector, and the per-group
        sample row counts.
        """
        group_keys, owner, n_groups = self.groups()
        ys = grouped_y_terms_multi(
            self._sums, self._keys, owner, n_groups, self.lattice
        )
        totals = [
            np.bincount(owner, weights=s, minlength=n_groups)
            for s in self._sums
        ]
        counts = np.bincount(
            owner, weights=self._counts, minlength=n_groups
        )
        return group_keys, ys, totals, counts

    def __repr__(self) -> str:
        return (
            f"GroupedMomentBundle(dims={list(self.lattice.dims)}, "
            f"n_group_cols={self.n_group_cols}, "
            f"n_vectors={self.n_vectors}, n_rows={self._n_rows}, "
            f"n_entries={self.n_entries})"
        )
