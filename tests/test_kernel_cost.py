"""Kernel cost model: Table-2 calibration and extrapolation."""

import dataclasses

import numpy as np
import pytest

from repro.compression import (
    TABLE2_POWERSGD_MS,
    TABLE2_SIGNSGD_MS,
    TABLE2_TOPK_MS,
    TABLE2_WORLD_SIZE,
    KernelProfile,
    calibrate_v100_profile,
    v100_kernel_profile,
)
from repro.compression.kernel_cost import (
    atomo_encode_decode_time,
    dgc_encode_decode_time,
    fp16_encode_decode_time,
    gradiveq_encode_decode_time,
    onebit_encode_decode_time,
    powersgd_encode_decode_time,
    qsgd_encode_decode_time,
    randomk_encode_decode_time,
    signsgd_encode_decode_time,
    terngrad_encode_decode_time,
    topk_encode_decode_time,
)
from repro.errors import ConfigurationError
from repro.models import get_model


@pytest.fixture(scope="module")
def profile():
    return v100_kernel_profile()


@pytest.fixture(scope="module")
def rn50():
    return get_model("resnet50")


class TestTable2Calibration:
    def test_powersgd_rows_reproduced_exactly(self, profile, rn50):
        for rank, paper_ms in TABLE2_POWERSGD_MS.items():
            model_ms = powersgd_encode_decode_time(rn50, rank, profile) * 1e3
            # rel 1e-3: the cost adds a ~2 us elementwise pass for the
            # BN/bias extras that the 3x3 calibration solve leaves out.
            assert model_ms == pytest.approx(paper_ms, rel=1e-3)

    def test_topk_rows_within_lsq_residual(self, profile, rn50):
        for fraction, paper_ms in TABLE2_TOPK_MS.items():
            model_ms = topk_encode_decode_time(
                rn50, fraction, profile, TABLE2_WORLD_SIZE) * 1e3
            assert model_ms == pytest.approx(paper_ms, rel=0.06)

    def test_signsgd_row(self, profile, rn50):
        model_ms = signsgd_encode_decode_time(
            rn50, profile, TABLE2_WORLD_SIZE) * 1e3
        assert model_ms == pytest.approx(TABLE2_SIGNSGD_MS, rel=0.05)

    def test_profile_constants_positive(self, profile):
        assert profile.tensor_overhead_s > 0
        assert profile.matmul_flops_per_s > 0
        assert profile.elementwise_elems_per_s > 0

    def test_calibration_is_cached(self):
        assert v100_kernel_profile() is v100_kernel_profile()

    def test_recalibration_matches_cached(self, profile):
        fresh = calibrate_v100_profile()
        assert fresh.matmul_flops_per_s == pytest.approx(
            profile.matmul_flops_per_s)


class TestScaling:
    def test_profile_scaled_halves_times(self, profile, rn50):
        fast = profile.scaled(2.0)
        slow_t = powersgd_encode_decode_time(rn50, 4, profile)
        fast_t = powersgd_encode_decode_time(rn50, 4, fast)
        assert fast_t == pytest.approx(slow_t / 2)

    def test_scaled_rejects_nonpositive(self, profile):
        with pytest.raises(ConfigurationError):
            profile.scaled(0)

    @pytest.mark.parametrize("factor", [float("nan"), float("inf"),
                                        float("-inf"), -2.0, 0.0])
    def test_scaled_rejects_hostile_factors(self, profile, factor):
        with pytest.raises(ConfigurationError,
                           match=f"compute_factor must be .*{factor}"):
            profile.scaled(factor)
        with pytest.raises(ConfigurationError, match="compute_factor"):
            profile.scaled(np.array([2.0, factor]))

    def test_array_factor_equals_each_scalar_factor(self, profile):
        """Seeded: ``scaled(array)`` is ``scaled(scalar)`` in every cell,
        bit for bit; only the name differs."""
        rng = np.random.default_rng(20261019)
        fields = [f.name for f in dataclasses.fields(KernelProfile)
                  if f.name != "name"]
        for shape in ((1,), (7,), (3, 4)):
            factors = rng.uniform(0.05, 50.0, size=shape)
            grid = profile.scaled(factors)
            assert grid.name == f"{profile.name}-grid"
            for index in np.ndindex(shape):
                cell = profile.scaled(float(factors[index]))
                assert cell.name == f"{profile.name}-x{factors[index]:g}"
                for field in fields:
                    got = np.broadcast_to(getattr(grid, field), shape)[index]
                    assert got == getattr(cell, field), (field, index)

    def test_invalid_profile_rejected(self, profile):
        with pytest.raises(ConfigurationError):
            KernelProfile(
                name="bad", tensor_overhead_s=-1.0,
                matmul_flops_per_s=1.0, orth_elems_per_s=1.0,
                select_elems_per_s=1.0, pack_elems_per_s=1.0,
                elementwise_elems_per_s=1.0, svd_flops_per_s=1.0)


class TestExtrapolation:
    def test_powersgd_grows_with_model(self, profile, rn50):
        rn101 = get_model("resnet101")
        assert (powersgd_encode_decode_time(rn101, 4, profile)
                > powersgd_encode_decode_time(rn50, 4, profile))

    def test_powersgd_grows_with_rank(self, profile, rn50):
        times = [powersgd_encode_decode_time(rn50, r, profile)
                 for r in (2, 4, 8, 16)]
        assert times == sorted(times)

    def test_signsgd_linear_in_p(self, profile, rn50):
        t16 = signsgd_encode_decode_time(rn50, profile, 16)
        t96 = signsgd_encode_decode_time(rn50, profile, 96)
        assert t96 / t16 == pytest.approx(97 / 17, rel=0.05)

    def test_topk_decode_dominated_by_p(self, profile, rn50):
        t16 = topk_encode_decode_time(rn50, 0.01, profile, 16)
        t96 = topk_encode_decode_time(rn50, 0.01, profile, 96)
        assert t96 > t16

    def test_fp16_cheapest(self, profile, rn50):
        fp16 = fp16_encode_decode_time(rn50, profile)
        assert fp16 < signsgd_encode_decode_time(rn50, profile, 16)
        assert fp16 < powersgd_encode_decode_time(rn50, 4, profile)

    def test_atomo_most_expensive(self, profile, rn50):
        atomo = atomo_encode_decode_time(rn50, 4, profile, 16)
        assert atomo > topk_encode_decode_time(rn50, 0.2, profile, 16)

    def test_all_methods_positive(self, profile, rn50):
        assert qsgd_encode_decode_time(rn50, profile, 8) > 0
        assert terngrad_encode_decode_time(rn50, profile, 8) > 0
        assert onebit_encode_decode_time(rn50, profile, 8) > 0
        assert randomk_encode_decode_time(rn50, 0.01, profile) > 0
        assert dgc_encode_decode_time(rn50, 0.001, profile, 8) > 0
        assert gradiveq_encode_decode_time(rn50, 512, 64, profile) > 0

    def test_invalid_args_rejected(self, profile, rn50):
        with pytest.raises(ConfigurationError):
            powersgd_encode_decode_time(rn50, 0, profile)
        with pytest.raises(ConfigurationError):
            topk_encode_decode_time(rn50, 0.0, profile, 8)
        with pytest.raises(ConfigurationError):
            topk_encode_decode_time(rn50, 0.1, profile, 0)
        with pytest.raises(ConfigurationError):
            gradiveq_encode_decode_time(rn50, 8, 16, profile)
