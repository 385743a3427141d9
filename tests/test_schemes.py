"""Compression schemes: wire sizes, ratios, Table-1 flags, memory."""

import math
import random

import pytest

from repro.compression import (
    ATOMOScheme,
    DGCScheme,
    FP16Scheme,
    GradiVeqScheme,
    OneBitScheme,
    PowerSGDScheme,
    QSGDScheme,
    RandomKScheme,
    SignSGDScheme,
    SyncSGDScheme,
    TernGradScheme,
    TopKScheme,
    make_scheme,
    scheme_from_spec,
)
from repro.engine import SimJob
from repro.errors import ConfigurationError
from repro.hardware import cluster_for_gpus
from repro.models import get_model


@pytest.fixture(scope="module")
def rn50():
    return get_model("resnet50")


@pytest.fixture(scope="module")
def bert():
    return get_model("bert-base")


class TestWireSizes:
    def test_syncsgd_wire_is_dense(self, rn50):
        cost = SyncSGDScheme().cost(rn50, 16)
        assert cost.wire_bytes == rn50.grad_bytes
        assert cost.encode_decode_s == 0.0

    def test_fp16_halves(self, rn50):
        assert FP16Scheme().cost(rn50, 16).wire_bytes == pytest.approx(
            rn50.grad_bytes / 2)

    def test_signsgd_32x(self, rn50):
        cost = SignSGDScheme().cost(rn50, 16)
        assert cost.compression_ratio(rn50) == pytest.approx(32, rel=0.01)

    def test_powersgd_rank4_ratio_near_60x(self, rn50):
        # The paper: "PowerSGD provides around 60x compression when using
        # Rank-4 for ResNet-50."
        ratio = PowerSGDScheme(4).cost(rn50, 16).compression_ratio(rn50)
        assert 40 < ratio < 80

    def test_powersgd_ratio_shrinks_with_rank(self, rn50):
        ratios = [PowerSGDScheme(r).cost(rn50, 16).compression_ratio(rn50)
                  for r in (4, 8, 16)]
        assert ratios[0] > ratios[1] > ratios[2]

    def test_topk_counts_indices(self, rn50):
        cost = TopKScheme(0.01).cost(rn50, 16)
        expected = 0.01 * rn50.num_params * 8  # 4B value + 4B index
        assert cost.wire_bytes == pytest.approx(expected, rel=0.01)

    def test_randomk_values_only(self, rn50):
        cost = RandomKScheme(0.01).cost(rn50, 16)
        assert cost.wire_bytes == pytest.approx(
            0.01 * rn50.num_params * 4, rel=0.01)

    def test_qsgd_bits(self, rn50):
        # levels=16 -> 1 + ceil(log2(17)) = 6 bits/element
        cost = QSGDScheme(levels=16).cost(rn50, 16)
        assert cost.wire_bytes == pytest.approx(
            rn50.num_params * 6 / 8, rel=0.01)

    def test_terngrad_2bits(self, rn50):
        cost = TernGradScheme().cost(rn50, 16)
        assert cost.compression_ratio(rn50) == pytest.approx(16, rel=0.01)

    def test_onebit_like_signsgd(self, rn50):
        one = OneBitScheme().cost(rn50, 16).wire_bytes
        sign = SignSGDScheme().cost(rn50, 16).wire_bytes
        assert one == pytest.approx(sign, rel=0.01)

    def test_atomo_slightly_larger_than_powersgd(self, rn50):
        atomo = ATOMOScheme(4).cost(rn50, 16).wire_bytes
        power = PowerSGDScheme(4).cost(rn50, 16).wire_bytes
        assert power < atomo < power * 1.1

    def test_gradiveq_ratio_is_block_over_dims(self, rn50):
        cost = GradiVeqScheme(block=512, dims=64).cost(rn50, 16)
        assert cost.compression_ratio(rn50) == pytest.approx(8, rel=0.01)


class TestMessagesAndFlags:
    def test_powersgd_two_messages(self, rn50):
        assert PowerSGDScheme(4).cost(rn50, 8).messages == 2

    def test_topk_two_messages(self, rn50):
        assert TopKScheme(0.01).cost(rn50, 8).messages == 2

    def test_signsgd_one_message(self, rn50):
        assert SignSGDScheme().cost(rn50, 8).messages == 1

    def test_table1_flags_match_paper(self):
        from repro.experiments import PAPER_TABLE1
        for name, (expected_ar, expected_lw) in PAPER_TABLE1.items():
            scheme = make_scheme(name)
            assert scheme.all_reducible == expected_ar, scheme.name
            assert scheme.layerwise == expected_lw, scheme.name

    def test_labels_include_parameters(self):
        assert "rank=4" in PowerSGDScheme(4).label
        assert "1%" in TopKScheme(0.01).label


class TestMemoryWorkingSet:
    def test_allreducible_schemes_have_no_stack(self, rn50):
        for scheme in (SyncSGDScheme(), FP16Scheme(), PowerSGDScheme(4),
                       RandomKScheme(0.01), GradiVeqScheme()):
            assert scheme.cost(rn50, 32).gather_stack_bytes == 0.0

    def test_bert_stacks_whole_model(self, bert):
        cost = SignSGDScheme().cost(bert, 32)
        assert cost.gather_stack_bytes == bert.grad_bytes
        assert cost.aggregation_working_set(32) == 32 * bert.grad_bytes

    def test_resnet_stacks_largest_layer(self, rn50):
        cost = SignSGDScheme().cost(rn50, 32)
        assert cost.gather_stack_bytes == rn50.largest_layer_grad_bytes

    def test_working_set_linear_in_p(self, bert):
        cost = TopKScheme(0.01).cost(bert, 8)
        assert cost.aggregation_working_set(96) == pytest.approx(
            12 * cost.aggregation_working_set(8))


class TestSchemeCostValidation:
    """Regression: a malformed custom scheme used to sail through and
    blow up later as ZeroDivisionError in ``_collective_time``."""

    def _cost(self, **overrides):
        from repro.compression.schemes import SchemeCost
        fields = dict(wire_bytes=1024.0, messages=1, encode_decode_s=0.01,
                      all_reducible=True, gather_stack_bytes=0.0)
        fields.update(overrides)
        return SchemeCost(**fields)

    def test_valid_cost_accepted(self):
        assert self._cost().messages == 1

    def test_zero_messages_rejected(self):
        with pytest.raises(ConfigurationError):
            self._cost(messages=0)

    def test_negative_messages_rejected(self):
        with pytest.raises(ConfigurationError):
            self._cost(messages=-2)

    def test_non_integer_messages_rejected(self):
        with pytest.raises(ConfigurationError):
            self._cost(messages=1.5)

    def test_non_positive_wire_bytes_rejected(self):
        with pytest.raises(ConfigurationError):
            self._cost(wire_bytes=0.0)
        with pytest.raises(ConfigurationError):
            self._cost(wire_bytes=-1.0)

    def test_negative_encode_decode_rejected(self):
        with pytest.raises(ConfigurationError):
            self._cost(encode_decode_s=-1e-3)

    def test_negative_gather_stack_rejected(self):
        with pytest.raises(ConfigurationError):
            self._cost(gather_stack_bytes=-8.0)

    def test_malformed_scheme_fails_in_simulator_construction(self, rn50):
        # A scheme whose cost() builds a zero-message SchemeCost now
        # raises ConfigurationError the moment the cost is priced,
        # instead of ZeroDivisionError deep in the collective pricing.
        from repro.compression.schemes import Scheme, SchemeCost
        from repro.hardware import cluster_for_gpus
        from repro.simulator import DDPSimulator

        class BrokenScheme(Scheme):
            name = "broken"
            all_reducible = True

            def cost(self, model, world_size, profile=None):
                return SchemeCost(
                    wire_bytes=float(model.grad_bytes), messages=0,
                    encode_decode_s=0.0, all_reducible=True,
                    gather_stack_bytes=0.0)

        sim = DDPSimulator(rn50, cluster_for_gpus(8),
                           scheme=BrokenScheme())
        with pytest.raises(ConfigurationError):
            sim.run(64, iterations=3, warmup=1)


class TestSchemeRegistry:
    def test_make_scheme_with_params(self):
        scheme = make_scheme("powersgd", rank=8)
        assert scheme.rank == 8

    def test_unknown_scheme(self):
        with pytest.raises(ConfigurationError):
            make_scheme("gzip")

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerSGDScheme(rank=0)
        with pytest.raises(ConfigurationError):
            TopKScheme(fraction=2.0)
        with pytest.raises(ConfigurationError):
            QSGDScheme(levels=0)
        with pytest.raises(ConfigurationError):
            GradiVeqScheme(block=4, dims=8)

    def test_encode_decode_times_from_table2_profile(self, rn50):
        # Scheme costs route through the calibrated profile by default.
        cost = PowerSGDScheme(4).cost(rn50, 16)
        assert cost.encode_decode_s * 1e3 == pytest.approx(45.0, rel=1e-3)


#: Specs that once parsed and then broke the engine (``nan``/``inf``
#: made ``SimJob.fingerprint`` raise a raw ``ValueError``) or surfaced
#: as an internal error (an unknown parameter raised ``TypeError``).
BAD_SPECS = ("qsgd:levels=nan", "qsgd:levels=inf", "powersgd:rank=nan",
             "topk:fraction=-inf", "powersgd:rank=1e999", "signsgd:foo=1",
             "powersgd:rank=4,foo=2")


class TestSchemeSpecs:
    def test_spec_round_trip(self):
        scheme = scheme_from_spec("topk:fraction=0.05")
        assert isinstance(scheme, TopKScheme) and scheme.fraction == 0.05
        assert scheme_from_spec("powersgd:rank=4").rank == 4

    @pytest.mark.parametrize("spec", BAD_SPECS)
    def test_bad_spec_is_a_configuration_error(self, spec):
        with pytest.raises(ConfigurationError):
            scheme_from_spec(spec)

    def test_fuzzed_specs_parse_or_raise_configuration_error(self, rn50):
        """Malformed spec strings either raise ``ConfigurationError`` or
        yield a scheme the engine can fingerprint: nothing else."""
        rng = random.Random(0)
        names = ["powersgd", "topk", "qsgd", "signsgd", "gradiveq",
                 "hybrid-powersgd", "atomo", "dgc", "nope", ""]
        keys = ["rank", "fraction", "levels", "block", "dims",
                "min_layer_params", "foo", ""]
        values = ["4", "0", "-1", "0.5", "1e-3", "1e308", "1e999", "nan",
                  "-inf", "inf", "0x10", "4=5", "", "abc", "1_000",
                  "9" * 5000]
        cluster = cluster_for_gpus(8)
        parsed = 0
        for _ in range(400):
            name = rng.choice(names)
            items = [f"{rng.choice(keys)}={rng.choice(values)}"
                     for _ in range(rng.randint(0, 3))]
            spec = name + (":" + ",".join(items) if items else "")
            try:
                scheme = scheme_from_spec(spec)
            except ConfigurationError:
                continue
            parsed += 1
            SimJob(model=rn50, cluster=cluster, scheme=scheme).fingerprint()
        assert parsed > 0
