"""Single-tensor codecs: round trips, wire sizes, invariants."""

import inspect

import numpy as np
import pytest

from repro.compression import (
    ATOMOCompressor,
    DGCCompressor,
    FP16Compressor,
    FP32Compressor,
    GradiVeqCompressor,
    OneBitCompressor,
    PowerSGDCompressor,
    QSGDCompressor,
    RandomKCompressor,
    SignSGDCompressor,
    TernGradCompressor,
    TopKCompressor,
    available_methods,
    make_aggregator,
    make_compressor,
)
from repro.compression.registry import get_method
from repro.errors import CompressionError, ConfigurationError

#: Parameter values every scheme refuses, by the type of the
#: parameter's default: fractions where an integer belongs, booleans,
#: NaN, and counts or fractions out of range.
BAD_PARAMS = {
    int: [2.5, 8.5, 0, -1, True, float("nan")],
    float: [0, -0.5, 1.5, True, float("nan")],
}


class TestFP32:
    def test_lossless(self, rng):
        codec = FP32Compressor()
        g = rng.normal(size=(7, 5))
        np.testing.assert_array_equal(codec.decode(codec.encode(g)), g)

    def test_wire_is_4_bytes_per_elem(self, rng):
        payload = FP32Compressor().encode(rng.normal(size=100))
        assert payload.wire_bytes == 400

    def test_ratio_is_one(self, rng):
        assert FP32Compressor().compression_ratio(
            rng.normal(size=64)) == pytest.approx(1.0)


class TestFP16:
    def test_near_lossless_at_sane_scales(self, rng):
        codec = FP16Compressor()
        g = rng.normal(size=1000)
        decoded = codec.decode(codec.encode(g))
        assert np.abs(decoded - g).max() < 1e-2

    def test_2x_ratio(self, rng):
        assert FP16Compressor().compression_ratio(
            rng.normal(size=64)) == pytest.approx(2.0)

    def test_overflow_saturates(self):
        codec = FP16Compressor()
        g = np.array([1e30, -1e30, 1.0])
        decoded = codec.decode(codec.encode(g))
        assert np.all(np.isfinite(decoded))


class TestSignSGD:
    def test_decode_is_unit_signs(self, rng):
        codec = SignSGDCompressor()
        g = rng.normal(size=100)
        decoded = codec.decode(codec.encode(g))
        assert set(np.unique(decoded)) <= {-1.0, 1.0}
        np.testing.assert_array_equal(np.sign(decoded),
                                      np.where(g >= 0, 1.0, -1.0))

    def test_32x_compression(self, rng):
        g = rng.normal(size=256)
        assert SignSGDCompressor().compression_ratio(g) == pytest.approx(32.0)

    def test_non_multiple_of_8_sizes(self, rng):
        codec = SignSGDCompressor()
        for n in (1, 7, 9, 13):
            g = rng.normal(size=n)
            assert codec.decode(codec.encode(g)).size == n

    def test_zero_maps_to_positive(self):
        codec = SignSGDCompressor()
        decoded = codec.decode(codec.encode(np.array([0.0, -0.1])))
        assert decoded[0] == 1.0
        assert decoded[1] == -1.0

    def test_preserves_shape(self, rng):
        codec = SignSGDCompressor()
        g = rng.normal(size=(4, 6, 2))
        assert codec.decode(codec.encode(g)).shape == (4, 6, 2)


class TestTopK:
    def test_keeps_largest_magnitudes(self):
        codec = TopKCompressor(fraction=0.25)
        g = np.array([0.1, -5.0, 0.2, 3.0, -0.3, 0.05, 1.0, 0.0])
        decoded = codec.decode(codec.encode(g))
        np.testing.assert_array_equal(
            np.flatnonzero(decoded), np.array([1, 3]))
        assert decoded[1] == -5.0 and decoded[3] == 3.0

    def test_density_respected(self, rng):
        codec = TopKCompressor(fraction=0.1)
        g = rng.normal(size=1000)
        decoded = codec.decode(codec.encode(g))
        assert np.count_nonzero(decoded) == 100

    def test_at_least_one_kept(self, rng):
        codec = TopKCompressor(fraction=0.001)
        decoded = codec.decode(codec.encode(rng.normal(size=10)))
        assert np.count_nonzero(decoded) == 1

    def test_wire_counts_values_and_indices(self, rng):
        payload = TopKCompressor(fraction=0.1).encode(rng.normal(size=1000))
        assert payload.wire_bytes == 100 * (4 + 4)

    def test_invalid_fraction(self):
        with pytest.raises(CompressionError):
            TopKCompressor(fraction=0.0)
        with pytest.raises(CompressionError):
            TopKCompressor(fraction=1.5)


class TestRandomK:
    def test_shared_seed_selects_same_indices(self, rng):
        a = RandomKCompressor(fraction=0.2, seed=42)
        b = RandomKCompressor(fraction=0.2, seed=42)
        g1, g2 = rng.normal(size=100), rng.normal(size=100)
        d1 = a.decode(a.encode(g1))
        d2 = b.decode(b.encode(g2))
        np.testing.assert_array_equal(np.flatnonzero(d1),
                                      np.flatnonzero(d2))

    def test_advance_round_changes_selection(self, rng):
        codec = RandomKCompressor(fraction=0.1, seed=0)
        g = rng.normal(size=200)
        first = np.flatnonzero(codec.decode(codec.encode(g)))
        codec.advance_round()
        second = np.flatnonzero(codec.decode(codec.encode(g)))
        assert not np.array_equal(first, second)

    def test_unbiased_scaling(self, rng):
        # E[decoded] = g: kept values are scaled by 1/fraction.
        codec = RandomKCompressor(fraction=0.5, seed=1)
        g = np.ones(100)
        decoded = codec.decode(codec.encode(g))
        assert decoded[decoded != 0][0] == pytest.approx(2.0)

    def test_values_only_on_wire(self, rng):
        payload = RandomKCompressor(fraction=0.1).encode(
            rng.normal(size=1000))
        assert payload.wire_bytes == 100 * 4


class TestDGC:
    def test_density_approximately_respected(self, rng):
        codec = DGCCompressor(fraction=0.05, seed=0)
        g = rng.normal(size=5000)
        decoded = codec.decode(codec.encode(g))
        density = np.count_nonzero(decoded) / g.size
        assert 0.01 < density < 0.15

    def test_kept_values_exceed_dropped(self, rng):
        codec = DGCCompressor(fraction=0.05, seed=0)
        g = rng.normal(size=2000)
        decoded = codec.decode(codec.encode(g))
        kept = np.abs(g[decoded != 0])
        dropped = np.abs(g[decoded == 0])
        # Sampled threshold: kept minimum should be near dropped maximum.
        assert kept.min() > np.quantile(dropped, 0.8)

    def test_constant_tensor_keeps_something(self):
        codec = DGCCompressor(fraction=0.01, seed=0)
        decoded = codec.decode(codec.encode(np.full(100, 2.0)))
        assert np.count_nonzero(decoded) >= 1


class TestQSGD:
    def test_unbiased_in_expectation(self, rng):
        codec = QSGDCompressor(levels=4, seed=0)
        g = rng.normal(size=50)
        decoded = np.mean(
            [codec.decode(codec.encode(g)) for _ in range(400)], axis=0)
        np.testing.assert_allclose(decoded, g, atol=0.25)

    def test_zero_tensor_rejected_as_nonfinite_safe(self):
        codec = QSGDCompressor(levels=4)
        decoded = codec.decode(codec.encode(np.zeros(16)))
        np.testing.assert_array_equal(decoded, np.zeros(16))

    def test_more_levels_less_error(self, rng):
        g = rng.normal(size=2000)
        coarse = QSGDCompressor(levels=2, seed=0)
        fine = QSGDCompressor(levels=256, seed=0)
        err_coarse = np.linalg.norm(coarse.decode(coarse.encode(g)) - g)
        err_fine = np.linalg.norm(fine.decode(fine.encode(g)) - g)
        assert err_fine < err_coarse

    def test_invalid_levels(self):
        with pytest.raises(CompressionError):
            QSGDCompressor(levels=0)


class TestTernGrad:
    def test_three_values_times_scale(self, rng):
        codec = TernGradCompressor(seed=0)
        g = rng.normal(size=500)
        decoded = codec.decode(codec.encode(g))
        scale = np.abs(g).max()
        unique = set(np.round(np.unique(decoded) / scale, 9))
        assert unique <= {-1.0, 0.0, 1.0}

    def test_unbiased_in_expectation(self, rng):
        codec = TernGradCompressor(seed=0)
        g = rng.normal(size=30)
        decoded = np.mean(
            [codec.decode(codec.encode(g)) for _ in range(600)], axis=0)
        np.testing.assert_allclose(decoded, g, atol=0.35)

    def test_zero_tensor(self):
        codec = TernGradCompressor()
        np.testing.assert_array_equal(
            codec.decode(codec.encode(np.zeros(8))), np.zeros(8))


class TestOneBit:
    def test_decode_uses_two_centroids(self, rng):
        codec = OneBitCompressor()
        g = rng.normal(size=1000)
        decoded = codec.decode(codec.encode(g))
        assert len(np.unique(decoded)) == 2
        # Centroids preserve the mean of each half.
        assert decoded[g >= 0].mean() == pytest.approx(g[g >= 0].mean())
        assert decoded[g < 0].mean() == pytest.approx(g[g < 0].mean())

    def test_all_positive_tensor(self):
        codec = OneBitCompressor()
        g = np.array([1.0, 2.0, 3.0])
        decoded = codec.decode(codec.encode(g))
        assert decoded.mean() == pytest.approx(2.0)


class TestPowerSGD:
    def test_rank_capped_by_shape(self, rng):
        codec = PowerSGDCompressor(rank=16)
        payload = codec.encode(rng.normal(size=(4, 100)))
        p_hat, q = payload.arrays
        assert p_hat.shape == (4, 4)

    def test_exact_for_low_rank_matrix(self, rng):
        u = rng.normal(size=(20, 2))
        v = rng.normal(size=(2, 30))
        g = u @ v  # exactly rank 2
        codec = PowerSGDCompressor(rank=2, seed=0)
        decoded = codec.decode(codec.encode(g))
        np.testing.assert_allclose(decoded, g, atol=1e-8)

    def test_error_decreases_with_rank(self, rng):
        g = rng.normal(size=(64, 64))
        errs = []
        for r in (1, 4, 16):
            codec = PowerSGDCompressor(rank=r, seed=0)
            errs.append(np.linalg.norm(codec.decode(codec.encode(g)) - g))
        assert errs[0] > errs[1] > errs[2]

    def test_1d_tensor_treated_as_row(self, rng):
        codec = PowerSGDCompressor(rank=4)
        g = rng.normal(size=50)
        assert codec.decode(codec.encode(g)).shape == (50,)

    def test_4d_conv_tensor_reshaped(self, rng):
        codec = PowerSGDCompressor(rank=4)
        g = rng.normal(size=(8, 4, 3, 3))
        assert codec.decode(codec.encode(g)).shape == (8, 4, 3, 3)

    def test_wire_bytes(self, rng):
        payload = PowerSGDCompressor(rank=4).encode(
            rng.normal(size=(32, 64)))
        assert payload.wire_bytes == (32 * 4 + 64 * 4) * 4


class TestATOMO:
    def test_svd_reconstruction_optimal(self, rng):
        g = rng.normal(size=(30, 40))
        atomo = ATOMOCompressor(rank=8)
        power = PowerSGDCompressor(rank=8, seed=0)
        err_atomo = np.linalg.norm(atomo.decode(atomo.encode(g)) - g)
        err_power = np.linalg.norm(power.decode(power.encode(g)) - g)
        # SVD is the optimal rank-r approximation.
        assert err_atomo <= err_power + 1e-9

    def test_exact_for_low_rank(self, rng):
        g = rng.normal(size=(20, 3)) @ rng.normal(size=(3, 25))
        codec = ATOMOCompressor(rank=3)
        np.testing.assert_allclose(codec.decode(codec.encode(g)), g,
                                   atol=1e-8)


class TestGradiVeq:
    def test_projection_is_linear(self, rng):
        codec = GradiVeqCompressor(block=32, dims=8, seed=0)
        a, b = rng.normal(size=128), rng.normal(size=128)
        pa = codec.encode(a).arrays[0]
        pb = codec.encode(b).arrays[0]
        pab = codec.encode(a + b).arrays[0]
        np.testing.assert_allclose(pab, pa + pb, rtol=1e-9)

    def test_round_trip_is_projection(self, rng):
        # Projecting twice equals projecting once (idempotent).
        codec = GradiVeqCompressor(block=16, dims=4, seed=0)
        g = rng.normal(size=64)
        once = codec.decode(codec.encode(g))
        twice = codec.decode(codec.encode(once))
        np.testing.assert_allclose(once, twice, atol=1e-9)

    def test_padding_for_non_multiple(self, rng):
        codec = GradiVeqCompressor(block=16, dims=4)
        g = rng.normal(size=37)
        assert codec.decode(codec.encode(g)).size == 37

    def test_dims_exceeding_block_rejected(self):
        with pytest.raises(CompressionError):
            GradiVeqCompressor(block=8, dims=16)


class TestCodecValidation:
    @pytest.mark.parametrize("name", available_methods())
    def test_rejects_empty(self, name):
        codec = make_compressor(name)
        with pytest.raises(CompressionError):
            codec.encode(np.array([]))

    @pytest.mark.parametrize("name", available_methods())
    def test_rejects_nonfinite(self, name, rng):
        codec = make_compressor(name)
        for bad in (np.nan, np.inf, -np.inf):
            g = rng.normal(size=10)
            g[3] = bad
            with pytest.raises(CompressionError, match="non-finite"):
                codec.encode(g)

    @pytest.mark.parametrize("name", available_methods())
    def test_rejects_integer_dtype(self, name):
        codec = make_compressor(name)
        for grad in (np.arange(10), np.arange(10) + 0j,
                     np.ones(10, dtype=bool)):
            with pytest.raises(CompressionError, match="floating"):
                codec.encode(grad)


@pytest.mark.parametrize("name", [
    name for name in available_methods()
    if inspect.signature(get_method(name).scheme).parameters])
def test_codec_refuses_what_its_scheme_refuses(name):
    # The codec and aggregator share the scheme's parameter checks, so
    # a bad value fails at construction, never in encode or step.
    scheme = get_method(name).scheme
    for param in inspect.signature(scheme).parameters.values():
        for value in BAD_PARAMS[type(param.default)]:
            params = {param.name: value}
            with pytest.raises(ConfigurationError):
                scheme(**params)
            with pytest.raises(CompressionError):
                make_compressor(name, **params)
            with pytest.raises(CompressionError):
                make_aggregator(name, 2, **params)


def test_gradiveq_block_is_checked_before_dims():
    with pytest.raises(CompressionError, match="block must be an integer"):
        GradiVeqCompressor(block=8.5)
