"""Network fabric and iperf-style probing."""

import math
import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hardware import P3_8XLARGE, ClusterConfig
from repro.network import (
    BandwidthReport,
    Fabric,
    estimate_alpha,
    measure_cluster,
    measure_pair,
)

from . import oracle


@pytest.fixture
def fabric():
    return Fabric(ClusterConfig(num_nodes=4, seed=7))


class TestFabricBandwidth:
    def test_pairwise_at_most_nominal(self, fabric):
        nominal = fabric.nominal_bandwidth()
        for a in range(4):
            for b in range(4):
                if a != b:
                    assert fabric.pair_bandwidth(a, b) <= nominal

    def test_symmetric(self, fabric):
        assert fabric.pair_bandwidth(1, 3) == fabric.pair_bandwidth(3, 1)

    def test_intra_node_uses_nvlink(self, fabric):
        assert fabric.pair_bandwidth(2, 2) > fabric.nominal_bandwidth()

    def test_min_bandwidth_is_pairwise_min(self, fabric):
        pairs = [fabric.pair_bandwidth(a, b)
                 for a in range(4) for b in range(4) if a != b]
        assert fabric.min_bandwidth() == pytest.approx(min(pairs))

    def test_deterministic_per_seed(self):
        f1 = Fabric(ClusterConfig(num_nodes=4, seed=3))
        f2 = Fabric(ClusterConfig(num_nodes=4, seed=3))
        assert f1.min_bandwidth() == f2.min_bandwidth()

    def test_different_seeds_differ(self):
        f1 = Fabric(ClusterConfig(num_nodes=6, seed=0))
        f2 = Fabric(ClusterConfig(num_nodes=6, seed=1))
        assert f1.min_bandwidth() != f2.min_bandwidth()

    def test_zero_jitter_means_nominal(self):
        fabric = Fabric(ClusterConfig(num_nodes=4), bandwidth_jitter=0.0)
        assert fabric.min_bandwidth() == fabric.nominal_bandwidth()

    def test_single_node_min_is_nvlink(self):
        fabric = Fabric(ClusterConfig(num_nodes=1))
        assert fabric.min_bandwidth() == (
            fabric.cluster.instance.intra_node_bytes_per_s)

    def test_node_out_of_range(self, fabric):
        with pytest.raises(ConfigurationError):
            fabric.pair_bandwidth(0, 9)


class TestTransferPricing:
    def test_alpha_plus_beta(self, fabric):
        t = fabric.transfer_time(1e6, 0, 1)
        assert t == pytest.approx(
            fabric.alpha_s + 1e6 / fabric.pair_bandwidth(0, 1))

    def test_intra_node_has_no_alpha(self, fabric):
        t = fabric.transfer_time(0.0, 1, 1)
        assert t == 0.0

    def test_negative_bytes_rejected(self, fabric):
        with pytest.raises(ConfigurationError):
            fabric.transfer_time(-1, 0, 1)

    def test_incast_grows_with_fanin(self, fabric):
        assert fabric.incast_factor(1) == 1.0
        assert fabric.incast_factor(95) > fabric.incast_factor(15) > 1.0

    def test_incast_fanin_validated(self, fabric):
        with pytest.raises(ConfigurationError):
            fabric.incast_factor(0)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            Fabric(ClusterConfig(num_nodes=2), alpha_s=-1.0)
        with pytest.raises(ConfigurationError):
            Fabric(ClusterConfig(num_nodes=2), incast_per_sender=-0.1)

    @pytest.mark.parametrize("field", ["alpha_s", "bandwidth_jitter",
                                       "incast_per_sender"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected_by_name(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            Fabric(ClusterConfig(num_nodes=8), **{field: value})


def random_cluster(rng):
    """One of a few (nodes, NIC, seed) combinations, so draws repeat."""
    instance = P3_8XLARGE.with_network_gbps(float(rng.choice([1, 10, 25])))
    return ClusterConfig(instance=instance,
                         num_nodes=int(rng.choice([1, 2, 5, 8])),
                         seed=int(rng.integers(0, 3)))


class TestSharedMatrix:
    """Fabrics of one (nodes, NIC, seed, jitter) share one read-only
    matrix; degrading a fabric copies it first."""

    def test_every_matrix_equals_a_fresh_draw(self):
        rng = np.random.default_rng(2502)
        for _ in range(40):
            fabric = Fabric(random_cluster(rng), bandwidth_jitter=float(
                rng.choice([0.0, 0.005, rng.uniform(0.001, 0.2)])))
            want = oracle.bandwidth_matrix_oracle(fabric)
            assert fabric._pair_bw.tobytes() == want.tobytes()
            n = fabric.cluster.num_nodes
            scan = (fabric.cluster.instance.intra_node_bytes_per_s if n == 1
                    else float(want[~np.eye(n, dtype=bool)].min()))
            assert fabric.min_bandwidth() == scan

    def test_equal_inputs_share_one_read_only_matrix(self):
        a = Fabric(ClusterConfig(num_nodes=6, seed=4))
        b = Fabric(ClusterConfig(num_nodes=6, seed=4))
        assert a._pair_bw is b._pair_bw
        assert not a._pair_bw.flags.writeable
        assert Fabric(ClusterConfig(num_nodes=6, seed=5))._pair_bw \
            is not a._pair_bw

    @pytest.mark.parametrize("round_trip", [False, True])
    def test_degrading_one_fabric_leaves_the_others(self, round_trip):
        rng = np.random.default_rng([2503, round_trip])
        for _ in range(10):
            cluster = random_cluster(rng)
            if cluster.num_nodes == 1:
                continue
            before = Fabric(cluster)
            victim = Fabric(cluster)
            if round_trip:
                victim = pickle.loads(pickle.dumps(victim))
            a, b = (int(x) for x in rng.choice(cluster.num_nodes, size=2,
                                                replace=False))
            fresh = oracle.bandwidth_matrix_oracle(victim)
            victim.min_bandwidth()
            if rng.random() < 0.5:
                victim.degrade_link(a, b, 0.5)
            else:
                victim.degrade_node(a, 0.5)
            assert victim.min_bandwidth() < before.min_bandwidth()
            assert victim._pair_bw.tobytes() != fresh.tobytes()
            after = Fabric(cluster)
            for other in (before, after):
                assert other._pair_bw.tobytes() == fresh.tobytes()
                assert other.min_bandwidth() == float(
                    fresh[~np.eye(cluster.num_nodes, dtype=bool)].min())
            # A second degradation writes to the fabric's own copy.
            own = victim._pair_bw
            victim.degrade_link(a, b, 0.5)
            assert victim._pair_bw is own
            assert after._pair_bw.tobytes() == fresh.tobytes()


class TestIperfProbe:
    def test_measured_below_link_rate(self, fabric):
        # The alpha term biases a finite probe slightly low.
        measured = measure_pair(fabric, 0, 1)
        assert measured < fabric.pair_bandwidth(0, 1)
        assert measured == pytest.approx(fabric.pair_bandwidth(0, 1),
                                         rel=0.01)

    def test_self_probe_rejected(self, fabric):
        with pytest.raises(ConfigurationError):
            measure_pair(fabric, 2, 2)

    @pytest.mark.parametrize("seed", range(3))
    def test_cluster_report_equals_pair_by_pair_probes(self, seed):
        """One elementwise pricing of every pair gives each pair's
        ``measure_pair`` bits, on healthy and degraded fabrics."""
        rng = np.random.default_rng([2604, seed])
        for _ in range(12):
            cluster = random_cluster(rng)
            n = cluster.num_nodes
            fabric = Fabric(cluster)
            if n > 1 and rng.random() < 0.5:
                fabric.degrade_node(int(rng.integers(n)),
                                    float(rng.uniform(0.1, 1.0)))
            probe = float(rng.choice([1.0, 3.5e5, 128 * 2 ** 20, 1e9]))
            expected = np.full((n, n), np.nan)
            for a in range(n):
                for b in range(a + 1, n):
                    expected[a, b] = expected[b, a] = measure_pair(
                        fabric, a, b, probe)
            report = measure_cluster(fabric, probe)
            assert report.matrix.tobytes() == expected.tobytes()
            if n > 1:
                assert report.min_bandwidth == float(np.nanmin(expected))
                with pytest.raises(ConfigurationError):
                    measure_cluster(fabric, 0.0)

    def test_cluster_report_shape(self, fabric):
        report = measure_cluster(fabric)
        assert isinstance(report, BandwidthReport)
        assert report.matrix.shape == (4, 4)
        assert np.isnan(report.matrix[0, 0])
        assert report.num_nodes == 4

    def test_report_min_matches_matrix(self, fabric):
        report = measure_cluster(fabric)
        assert report.min_bandwidth == pytest.approx(
            np.nanmin(report.matrix))

    def test_single_node_report(self):
        report = measure_cluster(Fabric(ClusterConfig(num_nodes=1)))
        assert report.min_bandwidth > 0

    def test_alpha_estimate_close_to_true(self, fabric):
        est = estimate_alpha(fabric)
        assert est == pytest.approx(fabric.alpha_s, rel=0.05)

    def test_alpha_single_worker(self):
        fabric = Fabric(ClusterConfig(num_nodes=1))
        assert estimate_alpha(fabric, num_gpus=1) == fabric.alpha_s
