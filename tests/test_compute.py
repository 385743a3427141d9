"""Compute-time model: calibration targets and scaling behaviour."""

from dataclasses import replace

import pytest

from repro.compute import ComputeModel
from repro.errors import ConfigurationError
from repro.hardware import V100
from repro.models import get_model


@pytest.fixture
def rn50_compute(resnet50):
    return ComputeModel(resnet50, V100)


class TestCalibratedBackwardTimes:
    """The paper's published V100 timings the compute model must hit."""

    def test_resnet50_backward_matches_table2(self, rn50_compute):
        # Table 2 discussion: T_comp ~ 122 ms for ResNet-50 (batch 64).
        assert rn50_compute.backward_time(64) * 1e3 == pytest.approx(
            122, rel=0.05)

    def test_bert_backward_near_540ms(self, bert_base):
        compute = ComputeModel(bert_base, V100)
        assert compute.backward_time(12) * 1e3 == pytest.approx(540, rel=0.05)

    def test_resnet101_between_rn50_and_bert(self, resnet101):
        compute = ComputeModel(resnet101, V100)
        t = compute.backward_time(64) * 1e3
        assert 180 < t < 300


class TestScalingBehaviour:
    def test_backward_scales_sublinearly_at_small_batch(self, rn50_compute):
        # Batch saturation: 4x batch < 4x time below saturation.
        t16 = rn50_compute.backward_time(16)
        t64 = rn50_compute.backward_time(64)
        assert t64 < 4 * t16
        assert t64 > 2 * t16

    def test_forward_is_half_backward(self, rn50_compute):
        assert rn50_compute.forward_time(32) == pytest.approx(
            rn50_compute.backward_time(32) / 2)

    def test_faster_gpu_reduces_time(self, resnet50):
        slow = ComputeModel(resnet50, V100)
        fast = ComputeModel(resnet50, V100.scaled(2.0))
        assert fast.backward_time(64) == pytest.approx(
            slow.backward_time(64) / 2)

    def test_layer_times_sum_to_backward(self, rn50_compute, resnet50):
        total = sum(rn50_compute.layer_backward_time(l, 32)
                    for l in resnet50.layers)
        assert total == pytest.approx(rn50_compute.backward_time(32))

    def test_layer_from_other_model_rejected(self, rn50_compute,
                                             bert_base):
        with pytest.raises(ConfigurationError):
            rn50_compute.layer_backward_time(bert_base.layers[0], 8)

    def test_same_named_foreign_layer_rejected(self, rn50_compute,
                                               resnet50):
        own = resnet50.layers[3]
        heavier = replace(own, fwd_flops_per_sample=100
                          * own.fwd_flops_per_sample)
        with pytest.raises(ConfigurationError, match=own.name):
            rn50_compute.layer_backward_time(heavier, 8)
        # An equal copy of the model's own layer is that layer.
        assert (rn50_compute.layer_backward_time(replace(own), 8)
                == rn50_compute.layer_backward_time(own, 8))

    def test_zero_batch_rejected(self, rn50_compute):
        with pytest.raises(ConfigurationError):
            rn50_compute.backward_time(0)


class TestMemoryModel:
    def test_model_states_are_3x_params(self, rn50_compute, resnet50):
        assert rn50_compute.model_state_bytes() == pytest.approx(
            3 * resnet50.grad_bytes)

    def test_training_memory_includes_activations(self, rn50_compute,
                                                  resnet50):
        small = rn50_compute.training_memory_bytes(1)
        large = rn50_compute.training_memory_bytes(64)
        assert large - small == pytest.approx(
            63 * resnet50.activation_bytes(1))

    def test_peak_is_max_of_phases(self, rn50_compute):
        # Huge aggregation working set dominates.
        peak = rn50_compute.peak_memory_bytes(1, aggregation_bytes=100e9)
        assert peak == pytest.approx(
            rn50_compute.model_state_bytes() + 100e9)
        # Tiny working set: training phase dominates.
        peak2 = rn50_compute.peak_memory_bytes(64, aggregation_bytes=1.0)
        assert peak2 == pytest.approx(
            rn50_compute.training_memory_bytes(64))

    def test_resnet50_fits_on_v100(self, rn50_compute):
        fits, required = rn50_compute.fits_in_memory(64)
        assert fits
        assert required < V100.memory_bytes

    def test_bert_gather_working_set_ooms(self, bert_base):
        compute = ComputeModel(bert_base, V100)
        working = bert_base.grad_bytes * 48  # signSGD stack at 48 GPUs
        fits, _ = compute.fits_in_memory(12, extra_bytes=working)
        assert not fits

    def test_bert_gather_at_32_fits(self, bert_base):
        compute = ComputeModel(bert_base, V100)
        working = bert_base.grad_bytes * 32
        fits, _ = compute.fits_in_memory(12, extra_bytes=working)
        assert fits

    def test_optimizer_time_positive(self, rn50_compute):
        assert rn50_compute.optimizer_time() > 0
