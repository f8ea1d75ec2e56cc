"""Multi-vector moment bundles: equivalence with single-vector bundles.

A :class:`MomentSketchBundle` over k weight vectors must behave, per
vector, exactly like k independent one-vector bundles fed the same
rows — and merging bundles must commute with merging the
scalars.  The grouped bundle is likewise pinned against the batch
grouped estimator path, including non-integer (string) group keys.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import (
    estimate_sums_grouped_multi,
    group_ids,
)
from repro.core.gus import bernoulli_gus
from repro.core.lattice import SubsetLattice
from repro.errors import EstimationError
from repro.stream.sketch import (
    GroupedMomentBundle,
    MomentSketchBundle,
)

DIMS = ("l", "o")


@st.composite
def batches(draw):
    n_dims = draw(st.integers(1, 2))
    n = draw(st.integers(0, 60))
    n_batches = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    f1 = rng.uniform(-3, 5, n)
    f2 = rng.uniform(0, 2, n)
    lineage = {
        d: rng.integers(0, 8, n).astype(np.int64) for d in DIMS[:n_dims]
    }
    assignment = rng.integers(0, n_batches, n)
    return n_dims, f1, f2, lineage, assignment, n_batches


class TestMomentSketchBundle:
    @given(batches())
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_sketches(self, case):
        n_dims, f1, f2, lineage, assignment, n_batches = case
        lattice = SubsetLattice(DIMS[:n_dims])
        bundle = MomentSketchBundle(lattice, 2)
        solo1 = MomentSketchBundle(lattice, 1)
        solo2 = MomentSketchBundle(lattice, 1)
        for b in range(n_batches):
            idx = np.flatnonzero(assignment == b)
            part = {d: c[idx] for d, c in lineage.items()}
            bundle.update([f1[idx], f2[idx]], part)
            solo1.update([f1[idx]], part)
            solo2.update([f2[idx]], part)
        m1, m2 = bundle.moments()
        np.testing.assert_array_equal(m1, solo1.moments()[0])
        np.testing.assert_array_equal(m2, solo2.moments()[0])
        assert bundle.totals() == solo1.totals() + solo2.totals()
        assert bundle.n_rows == solo1.n_rows

    @given(batches())
    @settings(max_examples=40, deadline=None)
    def test_merge_equals_single_pass(self, case):
        n_dims, f1, f2, lineage, assignment, n_batches = case
        lattice = SubsetLattice(DIMS[:n_dims])
        single = MomentSketchBundle(lattice, 2).update(
            [f1, f2], lineage
        ) if f1.size else MomentSketchBundle(lattice, 2)
        merged = MomentSketchBundle(lattice, 2)
        for b in range(n_batches):
            idx = np.flatnonzero(assignment == b)
            contrib = MomentSketchBundle(lattice, 2)
            contrib.update(
                [f1[idx], f2[idx]],
                {d: c[idx] for d, c in lineage.items()},
            )
            merged.merge(contrib)
        for got, want in zip(merged.moments(), single.moments()):
            np.testing.assert_allclose(got, want, rtol=1e-12)
        assert merged.n_rows == single.n_rows

    def test_shape_validation(self):
        lattice = SubsetLattice(["l"])
        with pytest.raises(EstimationError):
            MomentSketchBundle(lattice, 0)
        bundle = MomentSketchBundle(lattice, 2)
        with pytest.raises(EstimationError):
            bundle.update([np.ones(3)], {"l": np.arange(3)})
        with pytest.raises(EstimationError):
            bundle.merge(MomentSketchBundle(lattice, 3))
        with pytest.raises(EstimationError):
            bundle.merge(MomentSketchBundle(SubsetLattice(["o"]), 2))


class TestGroupedMomentBundle:
    def test_matches_batch_grouped_estimator_string_keys(self):
        rng = np.random.default_rng(5)
        n = 400
        params = bernoulli_gus("l", 0.5)
        keys = np.array(["x", "y", "z"], dtype=object)[
            rng.integers(0, 3, n)
        ]
        f1 = rng.normal(size=n)
        f2 = np.ones(n)
        lineage = {"l": np.arange(n, dtype=np.int64)}
        # Batch path.
        gids, n_groups = group_ids([keys], n)
        batch = estimate_sums_grouped_multi(
            params, [f1, f2], lineage, gids, n_groups, labels=["SUM", "COUNT"]
        )
        # Bundle path, split across 7 uneven partitions + a merge.
        pruned = params.project_out_inactive()
        merged = GroupedMomentBundle(pruned.lattice, 1, 2)
        bounds = [0, 13, 100, 101, 250, 250, 399, n]
        for lo, hi in zip(bounds, bounds[1:]):
            contrib = GroupedMomentBundle(pruned.lattice, 1, 2)
            contrib.update(
                [f1[lo:hi], f2[lo:hi]],
                {"l": lineage["l"][lo:hi]},
                [keys[lo:hi]],
            )
            merged.merge(contrib)
        group_keys, ys, totals, counts = merged.moments()
        assert (group_keys[0] == np.array(["x", "y", "z"], dtype=object)).all()
        for j, bundle in enumerate(batch):
            np.testing.assert_array_equal(
                totals[j] / params.a, bundle.values
            )
        np.testing.assert_array_equal(counts, batch[0].n_samples)

    def test_group_dtype_rules(self):
        lattice = SubsetLattice(["l"])
        bundle = GroupedMomentBundle(lattice, 1, 1)
        bundle.update(
            [np.ones(3)],
            {"l": np.arange(3, dtype=np.int64)},
            [np.array([4, 5, 4], dtype=np.int32)],
        )
        assert bundle._group_cols[0].dtype == np.int64
        with pytest.raises(EstimationError):
            GroupedMomentBundle(lattice, 0, 1)
        with pytest.raises(EstimationError):
            GroupedMomentBundle(lattice, 1, 0)
        with pytest.raises(EstimationError):
            bundle.update([np.ones(2)], {"l": np.arange(2)}, [])


# -- n-ary merge: one reduce == the pairwise left fold, bit for bit ------

GROUP_LABELS = np.array(["A", "N", "R", "AF"], dtype=object)


@st.composite
def part_specs(draw):
    """Rows for 1-6 parts, some empty, with lineage keys repeating
    across parts (join fanout) and weights spanning twelve orders of
    magnitude, so any change in the order partial sums add shows up
    in the bits."""
    n_parts = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    parts = []
    for _ in range(n_parts):
        n = int(rng.integers(0, 40)) * int(rng.random() > 0.25)
        scale = 10.0 ** rng.uniform(-6, 6, n)
        parts.append(
            (
                [rng.normal(size=n) * scale, rng.uniform(0, 3, n)],
                {
                    "l": rng.integers(0, 6, n).astype(np.int64),
                    "o": rng.integers(0, 3, n).astype(np.int64),
                },
                [GROUP_LABELS[rng.integers(0, 4, n)]],
            )
        )
    return parts


def _build(kind: str, specs) -> list:
    lattice = SubsetLattice(DIMS)
    if kind == "plain":
        return [
            MomentSketchBundle(lattice, 2).update(fs, lineage)
            for fs, lineage, _ in specs
        ]
    return [
        GroupedMomentBundle(lattice, 1, 2).update(fs, lineage, groups)
        for fs, lineage, groups in specs
    ]


def _state(bundle) -> tuple:
    """Every state array's exact content (object columns by value)."""
    cols = list(getattr(bundle, "_group_cols", [])) + list(bundle._keys)
    out = [
        (c.dtype.str, c.tolist() if c.dtype == object else c.tobytes())
        for c in cols
    ]
    out += [s.tobytes() for s in bundle._sums]
    if isinstance(bundle, GroupedMomentBundle):
        out.append(bundle._counts.tobytes())
    return tuple(out), bundle.n_rows


def _left_fold(parts):
    merged = parts[0]
    for part in parts[1:]:
        merged = merged.merge(part)
    return merged


def _merge_all(parts):
    return parts[0].merge(*parts[1:])


@pytest.mark.parametrize("kind", ["plain", "grouped"])
class TestNaryMerge:
    @given(part_specs())
    @settings(max_examples=80, deadline=None)
    def test_one_reduce_equals_left_fold(self, kind, specs):
        folded = _left_fold(_build(kind, specs))
        parts = _build(kind, specs)
        merged = _merge_all(parts)
        assert merged is parts[0]
        assert _state(merged) == _state(folded)

    def test_shared_keys_across_parts(self, kind):
        # Every part hits the same three lineage keys, each key seeing
        # 1, 1e16 and -1e16 in a rotated order: (1 + 1e16) - 1e16 is 0
        # but (-1e16 + 1e16) + 1 is 1, so only adding each key's
        # partials in part order reproduces the fold.
        values = np.array([1.0, 1e16, -1e16])
        lineage = {"l": np.array([0, 1, 2]), "o": np.array([0, 0, 0])}
        groups = [np.array(["x", "x", "y"], dtype=object)]
        specs = [
            ([np.roll(values, -i), np.ones(3)], lineage, groups)
            for i in range(3)
        ]
        merged = _merge_all(_build(kind, specs))
        assert _state(merged) == _state(_left_fold(_build(kind, specs)))
        assert merged._sums[0].tolist() == [0.0, 1.0, 0.0]
        n_entries = (
            merged.n_groups if kind == "plain" else merged.n_entries
        )
        assert n_entries == 3 and merged.n_rows == 9

    def test_empty_parts(self, kind):
        lineage = {"l": np.arange(4), "o": np.zeros(4, dtype=np.int64)}
        rows = (
            [np.arange(4.0), np.ones(4)],
            lineage,
            [np.array([True, False, True, False])],
        )
        empty = ([np.empty(0), np.empty(0)], {"l": [], "o": []}, [[]])
        for specs in (
            [empty, rows, empty],
            [rows, empty, empty],
            [empty, empty],
        ):
            merged = _merge_all(_build(kind, specs))
            assert _state(merged) == _state(_left_fold(_build(kind, specs)))
        if kind == "grouped":
            # An empty accumulator's int64 placeholder never promotes
            # the real key dtype.
            merged = _merge_all(_build(kind, [empty, rows, empty]))
            assert merged._group_cols[0].dtype == bool

    def test_single_part_and_no_arguments(self, kind):
        specs = [
            (
                [np.array([1.5, 2.5]), np.array([1.0, 1.0])],
                {"l": np.array([3, 3]), "o": np.array([1, 2])},
                [np.array(["a", "b"], dtype=object)],
            )
        ]
        (alone,) = _build(kind, specs)
        before = _state(alone)
        assert alone.merge() is alone
        assert _state(alone) == before

    def test_mismatch_in_any_position_raises(self, kind):
        specs = [
            (
                [np.array([1.0]), np.array([2.0])],
                {"l": np.array([i]), "o": np.array([0])},
                [np.array(["g"], dtype=object)],
            )
            for i in range(4)
        ]
        other_lattice = SubsetLattice(["l"])
        if kind == "plain":
            misfits = [
                MomentSketchBundle(other_lattice, 2),
                MomentSketchBundle(SubsetLattice(DIMS), 3),
            ]
        else:
            misfits = [
                GroupedMomentBundle(other_lattice, 1, 2),
                GroupedMomentBundle(SubsetLattice(DIMS), 2, 2),
                GroupedMomentBundle(SubsetLattice(DIMS), 1, 3),
            ]
        for misfit in misfits:
            for position in range(4):
                base, *others = _build(kind, specs)
                before = _state(base)
                others.insert(position, misfit)
                with pytest.raises(EstimationError, match="cannot merge"):
                    base.merge(*others)
                # Checked before any state changed.
                assert _state(base) == before
