"""The advisor's vectorized Pareto sweep against a brute-force oracle.

:func:`repro.analysis.pareto_mask` is one lexsort plus grouped prefix
minima; the oracle here is the O(n²) definition applied literally.
Randomized inputs cover ties, duplicates, and degenerate shapes, and
the shard-merge property (``Pareto(S₁ ∪ S₂) = Pareto(Pareto(S₁) ∪
Pareto(S₂))``) is exercised over random partitions — that identity is
what makes the sharded sweep's merged frontier exact.
"""

import numpy as np
import pytest

from repro.analysis import pareto_mask
from repro.errors import ConfigurationError


def brute_force_mask(times, errors):
    """The O(n²) definition: a point survives iff nothing dominates it.

    ``a`` dominates ``b`` iff both coordinates are <= and at least one
    is strict — exact duplicates never dominate each other.
    """
    t = np.asarray(times, dtype=float)
    e = np.asarray(errors, dtype=float)
    n = t.size
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if t[j] <= t[i] and e[j] <= e[i] \
                    and (t[j] < t[i] or e[j] < e[i]):
                mask[i] = False
                break
    return mask


class TestParetoMask:
    def test_empty(self):
        mask = pareto_mask(np.zeros(0), np.zeros(0))
        assert mask.shape == (0,)
        assert mask.dtype == bool

    def test_single_point_survives(self):
        assert pareto_mask(np.array([3.0]), np.array([0.5])).tolist() \
            == [True]

    def test_all_dominated_by_one(self):
        t = np.array([1.0, 2.0, 3.0, 4.0])
        e = np.array([0.0, 0.1, 0.2, 0.3])
        mask = pareto_mask(t, e)
        # (1.0, 0.0) dominates everything else.
        assert mask.tolist() == [True, False, False, False]

    def test_chain_no_domination(self):
        # Strictly decreasing error as time grows: nothing dominated.
        t = np.array([1.0, 2.0, 3.0])
        e = np.array([0.9, 0.5, 0.1])
        assert pareto_mask(t, e).all()

    def test_duplicates_all_survive(self):
        t = np.array([1.0, 1.0, 1.0, 2.0])
        e = np.array([0.2, 0.2, 0.2, 0.1])
        mask = pareto_mask(t, e)
        assert mask.tolist() == [True, True, True, True]

    def test_duplicates_all_dominated_together(self):
        t = np.array([2.0, 2.0, 1.0])
        e = np.array([0.5, 0.5, 0.1])
        mask = pareto_mask(t, e)
        assert mask.tolist() == [False, False, True]

    def test_tie_on_one_axis_only(self):
        # Same time, different error: only the lower error survives.
        t = np.array([1.0, 1.0])
        e = np.array([0.3, 0.2])
        assert pareto_mask(t, e).tolist() == [False, True]
        # Same error, different time: only the faster survives.
        t = np.array([2.0, 1.0])
        e = np.array([0.3, 0.3])
        assert pareto_mask(t, e).tolist() == [False, True]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            pareto_mask(np.zeros(3), np.zeros(4))
        with pytest.raises(ConfigurationError):
            pareto_mask(np.zeros((2, 2)), np.zeros((2, 2)))

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        t = rng.uniform(0, 10, size=n)
        e = rng.uniform(0, 1, size=n)
        assert (pareto_mask(t, e) == brute_force_mask(t, e)).all()

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_with_heavy_ties(self, seed):
        # Quantized coordinates force many exact ties and duplicates.
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(1, 150))
        t = rng.integers(0, 6, size=n).astype(float)
        e = rng.integers(0, 6, size=n).astype(float)
        assert (pareto_mask(t, e) == brute_force_mask(t, e)).all()


def merge(frontiers):
    """What ``finish_sweep`` does with shard frontiers: one Pareto mask
    over their concatenation."""
    if not frontiers:
        return pareto_mask(np.zeros(0), np.zeros(0))
    return pareto_mask(np.concatenate([t for t, _ in frontiers]),
                       np.concatenate([e for _, e in frontiers]))


class TestMergeFrontiers:
    def test_empty_input(self):
        assert merge([]).shape == (0,)

    @pytest.mark.parametrize("seed", range(8))
    def test_shard_merge_equals_global(self, seed):
        """Per-shard Pareto then merge == one global sweep, for random
        partitions into random shard counts."""
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(2, 300))
        t = rng.integers(0, 20, size=n).astype(float) / 4
        e = rng.integers(0, 20, size=n).astype(float) / 4
        global_mask = pareto_mask(t, e)
        global_front = sorted(zip(t[global_mask], e[global_mask]))

        shards = int(rng.integers(1, 8))
        assignment = rng.integers(0, shards, size=n)
        reduced = []
        for s in range(shards):
            idx = np.flatnonzero(assignment == s)
            if idx.size == 0:
                continue
            keep = pareto_mask(t[idx], e[idx])
            reduced.append((t[idx][keep], e[idx][keep]))
        merged_mask = merge(reduced)
        mt = np.concatenate([r[0] for r in reduced])
        me = np.concatenate([r[1] for r in reduced])
        merged_front = sorted(zip(mt[merged_mask], me[merged_mask]))
        assert merged_front == global_front

    def test_merge_keeps_cross_shard_duplicates(self):
        # The same frontier point in two shards survives twice.
        a = (np.array([1.0]), np.array([0.5]))
        b = (np.array([1.0]), np.array([0.5]))
        assert merge([a, b]).tolist() == [True, True]
