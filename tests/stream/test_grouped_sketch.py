"""Grouped bundle mergeability: shard merges are exact.

The grouped state table is keyed on (group key, lineage key), so
partitioning a stream across any number of shard bundles and merging
must reproduce the unsharded bundle exactly — including groups that
only a single shard ever observed.  Integer-valued ``f`` makes every
sum exact, so the equality assertions are bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.algebra import join_gus
from repro.core.estimator import (
    estimate_sums_grouped,
    group_ids,
)
from repro.core.gus import bernoulli_gus, without_replacement_gus
from repro.errors import EstimationError
from repro.stream import GroupedMomentBundle, GroupedStreamingEstimator

GUS_CASES = {
    "bernoulli": bernoulli_gus("l", 0.3),
    "join": join_gus(
        bernoulli_gus("l", 0.4), without_replacement_gus("o", 30, 100)
    ),
}


def _stream(rng, n, dims, n_groups=9):
    f = rng.integers(-3, 12, n).astype(np.float64)
    spans = {"l": 40, "o": 25}
    lineage = {
        d: rng.integers(0, spans[d], n).astype(np.int64) for d in dims
    }
    groups = rng.integers(0, n_groups, n).astype(np.int64)
    return f, lineage, groups


class TestShardMergeExactness:
    @pytest.mark.parametrize("gus_name", sorted(GUS_CASES))
    @pytest.mark.parametrize("n_shards", range(1, 9))
    def test_merged_equals_unsharded(self, gus_name, n_shards):
        """Satellite: 1–8 shards, arbitrary routing, exact merge."""
        gus = GUS_CASES[gus_name]
        dims = gus.lattice.dims
        rng = np.random.default_rng(37 * n_shards + len(gus_name))
        f, lineage, groups = _stream(rng, 800, dims)

        single = GroupedStreamingEstimator(gus)
        single.update(f, lineage, [groups])

        shards = [GroupedStreamingEstimator(gus) for _ in range(n_shards)]
        assignment = rng.integers(0, n_shards, 800)
        for s, shard in enumerate(shards):
            pick = assignment == s
            # several micro-batches per shard, to exercise re-reduction
            for part in np.array_split(np.flatnonzero(pick), 3):
                shard.update(
                    f[part],
                    {d: c[part] for d, c in lineage.items()},
                    [groups[part]],
                )
        merged = shards[0]
        for shard in shards[1:]:
            merged.merge(shard)

        keys_one, est_one = single.estimate()
        keys_many, est_many = merged.estimate()
        np.testing.assert_array_equal(keys_one[0], keys_many[0])
        np.testing.assert_array_equal(est_one.values, est_many.values)
        np.testing.assert_array_equal(
            est_one.n_samples, est_many.n_samples
        )
        np.testing.assert_allclose(
            est_one.variance_raw, est_many.variance_raw, rtol=1e-9
        )
        assert merged.n_sample == single.n_sample == 800

    @pytest.mark.parametrize("gus_name", sorted(GUS_CASES))
    def test_groups_exclusive_to_one_shard(self, gus_name):
        """Groups seen by exactly one shard survive the merge intact."""
        gus = GUS_CASES[gus_name]
        dims = gus.lattice.dims
        rng = np.random.default_rng(5)
        n_shards = 4
        f, lineage, _ = _stream(rng, 600, dims)
        # group id == shard id: perfectly disjoint group placement
        groups = rng.integers(0, n_shards, 600).astype(np.int64)

        shards = [GroupedStreamingEstimator(gus) for _ in range(n_shards)]
        for s, shard in enumerate(shards):
            pick = groups == s
            shard.update(
                f[pick],
                {d: c[pick] for d, c in lineage.items()},
                [groups[pick]],
            )
        merged = shards[0]
        for shard in shards[1:]:
            merged.merge(shard)
        keys, est = merged.estimate()
        assert keys[0].tolist() == list(range(n_shards))

        gids, n_groups = group_ids([groups], 600)
        batch = estimate_sums_grouped(gus, f, lineage, gids, n_groups)
        np.testing.assert_array_equal(est.values, batch.values)
        np.testing.assert_array_equal(est.n_samples, batch.n_samples)
        np.testing.assert_allclose(
            est.variance_raw, batch.variance_raw, rtol=1e-9
        )

    def test_merge_equals_batch_grouped_estimator(self):
        """The streaming emission matches the batch grouped estimator
        on the concatenated sample."""
        gus = GUS_CASES["join"]
        dims = gus.lattice.dims
        rng = np.random.default_rng(11)
        f, lineage, groups = _stream(rng, 700, dims)
        streaming = GroupedStreamingEstimator(gus)
        for part in np.array_split(np.arange(700), 6):
            streaming.update(
                f[part],
                {d: c[part] for d, c in lineage.items()},
                [groups[part]],
            )
        keys, est = streaming.estimate()
        gids, n_groups = group_ids([groups], 700)
        batch = estimate_sums_grouped(gus, f, lineage, gids, n_groups)
        assert keys[0].tolist() == sorted(set(groups.tolist()))
        np.testing.assert_array_equal(est.values, batch.values)
        np.testing.assert_allclose(
            est.variance_raw, batch.variance_raw, rtol=1e-9
        )

    def test_multi_column_group_keys(self):
        gus = GUS_CASES["bernoulli"]
        rng = np.random.default_rng(23)
        f, lineage, g1 = _stream(rng, 400, gus.lattice.dims, n_groups=3)
        g2 = rng.integers(0, 2, 400).astype(np.int64)
        a = GroupedStreamingEstimator(gus, n_group_cols=2)
        b = GroupedStreamingEstimator(gus, n_group_cols=2)
        half = 200
        a.update(f[:half], {d: c[:half] for d, c in lineage.items()}, [g1[:half], g2[:half]])
        b.update(f[half:], {d: c[half:] for d, c in lineage.items()}, [g1[half:], g2[half:]])
        keys, est = a.merge(b).estimate()
        gids, n_groups = group_ids([g1, g2], 400)
        batch = estimate_sums_grouped(gus, f, lineage, gids, n_groups)
        assert len(keys) == 2
        assert est.n_groups == n_groups
        np.testing.assert_array_equal(est.values, batch.values)


class TestGroupedSketchState:
    def test_state_compacts_to_distinct_pairs(self):
        gus = GUS_CASES["bernoulli"]
        sketch = GroupedMomentBundle(gus.lattice, 1, 1)
        rng = np.random.default_rng(2)
        lin = rng.integers(0, 5, 1000).astype(np.int64)
        grp = rng.integers(0, 3, 1000).astype(np.int64)
        sketch.update([np.ones(1000)], {"l": lin}, [grp])
        distinct = len({(int(g), int(l)) for g, l in zip(grp, lin)})
        assert sketch.n_entries == distinct
        assert sketch.n_rows == 1000
        # Float keys keep their dtype, never truncating into one group.
        floats = GroupedMomentBundle(gus.lattice, 1, 1).update(
            [np.ones(3)],
            {"l": np.arange(3, dtype=np.int64)},
            [np.array([0.01, 0.05, 0.01])],
        )
        (keys,), _, n_groups = floats.groups()
        assert n_groups == 2 and keys.tolist() == [0.01, 0.05]

    def test_empty_updates_and_empty_sketch(self):
        gus = GUS_CASES["bernoulli"]
        est = GroupedStreamingEstimator(gus)
        est.update(
            np.empty(0),
            {"l": np.empty(0, dtype=np.int64)},
            [np.empty(0, dtype=np.int64)],
        )
        keys, bundle = est.estimate()
        assert bundle.n_groups == 0
        assert keys[0].shape == (0,)

    def test_copy_is_independent(self):
        gus = GUS_CASES["bernoulli"]
        a = GroupedStreamingEstimator(gus)
        a.update(
            np.array([1.0, 2.0]),
            {"l": np.array([0, 1], dtype=np.int64)},
            [np.array([0, 1], dtype=np.int64)],
        )
        b = a.copy()
        b.update(
            np.array([5.0]),
            {"l": np.array([2], dtype=np.int64)},
            [np.array([1], dtype=np.int64)],
        )
        assert a.n_sample == 2 and b.n_sample == 3
        _, est_a = a.estimate()
        assert est_a.n_groups == 2

    def test_mismatched_merges_rejected(self):
        bern = GUS_CASES["bernoulli"]
        with pytest.raises(EstimationError, match="different lattices"):
            GroupedMomentBundle(bern.lattice, 1, 1).merge(
                GroupedMomentBundle(GUS_CASES["join"].lattice, 1, 1)
            )
        with pytest.raises(EstimationError, match="group columns"):
            GroupedMomentBundle(bern.lattice, 1, 1).merge(
                GroupedMomentBundle(bern.lattice, 2, 1)
            )
        with pytest.raises(EstimationError, match="different GUS"):
            GroupedStreamingEstimator(bern).merge(
                GroupedStreamingEstimator(bernoulli_gus("l", 0.7))
            )

    def test_batch_validation(self):
        gus = GUS_CASES["bernoulli"]
        sketch = GroupedMomentBundle(gus.lattice, 1, 1)
        with pytest.raises(EstimationError, match="group columns"):
            sketch.update([np.ones(2)], {"l": np.zeros(2, dtype=np.int64)}, [])
        with pytest.raises(EstimationError, match="missing"):
            sketch.update([np.ones(2)], {}, [np.zeros(2, dtype=np.int64)])
        with pytest.raises(EstimationError, match="shape"):
            sketch.update(
                [np.ones(2)],
                {"l": np.zeros(3, dtype=np.int64)},
                [np.zeros(2, dtype=np.int64)],
            )
        with pytest.raises(EstimationError, match="at least one group"):
            GroupedMomentBundle(gus.lattice, 0, 1)
