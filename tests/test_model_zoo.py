"""Model builders: parameter counts against published architectures."""

import pytest

from repro.errors import ConfigurationError
from repro.models import (
    available_models,
    bert_base,
    build_resnet,
    build_transformer,
    get_model,
    gpt2_small,
    register_model,
    resnet50,
    resnet101,
    resnet152,
    vgg16,
    TransformerConfig,
)
from repro.models import zoo


class TestResNetBuilders:
    def test_resnet50_param_count_matches_torchvision(self, resnet50):
        # torchvision resnet50: 25,557,032 parameters.
        assert resnet50.num_params == 25_557_032

    def test_resnet101_param_count(self, resnet101):
        # torchvision resnet101: 44,549,160 parameters.
        assert resnet101.num_params == 44_549_160

    def test_resnet152_param_count(self):
        # torchvision resnet152: 60,192,808 parameters.
        assert get_model("resnet152").num_params == 60_192_808

    def test_resnet50_size_is_papers_97mb(self, resnet50):
        assert resnet50.grad_bytes / 1e6 == pytest.approx(102, rel=0.06)

    def test_resnet101_size_is_papers_170mb(self, resnet101):
        assert resnet101.grad_bytes / 1e6 == pytest.approx(178, rel=0.06)

    def test_resnet50_flops_in_published_range(self, resnet50):
        # ~4.1 GMAC = ~8.2 GFLOP per 224x224 image.
        assert resnet50.fwd_flops(1) / 1e9 == pytest.approx(8.2, rel=0.05)

    def test_conv_matrix_shapes_cover_weights(self, resnet50):
        for layer in resnet50.matrix_layers:
            m, n = layer.matrix_shape
            assert m * n == layer.num_params - layer.extra_params

    def test_unsupported_depth(self):
        with pytest.raises(ConfigurationError):
            build_resnet(34)

    def test_bad_resolution(self):
        with pytest.raises(ConfigurationError):
            build_resnet(50, input_hw=100)

    def test_custom_classes(self):
        small = build_resnet(50, num_classes=10)
        assert small.layer_named("fc").param_shape == (10, 2048)


class TestTransformerBuilders:
    def test_bert_base_param_count(self, bert_base):
        # ~110 M including pooler and classification head.
        assert bert_base.num_params / 1e6 == pytest.approx(110, rel=0.02)

    def test_bert_large_param_count(self):
        assert get_model("bert-large").num_params / 1e6 == pytest.approx(
            335, rel=0.02)

    def test_gpt2_small_param_count(self):
        assert get_model("gpt2-small").num_params / 1e6 == pytest.approx(
            124, rel=0.03)

    def test_bert_has_encoder_layers(self, bert_base):
        q_layers = [l for l in bert_base.layers if l.name.endswith("attn.q")]
        assert len(q_layers) == 12

    def test_seq_len_exceeding_positions_rejected(self):
        with pytest.raises(ConfigurationError):
            TransformerConfig(
                name="bad", vocab_size=100, hidden=64, num_layers=1,
                num_heads=4, intermediate=128, seq_len=1024,
                max_positions=512)

    def test_hidden_not_divisible_rejected(self):
        with pytest.raises(ConfigurationError):
            TransformerConfig(
                name="bad", vocab_size=100, hidden=65, num_layers=1,
                num_heads=4, intermediate=128, seq_len=64,
                max_positions=128)

    def test_lm_head_has_compute_but_no_params(self):
        gpt2 = get_model("gpt2-small")
        head = gpt2.layer_named("lm_head")
        assert head.num_params == 0
        assert head.fwd_flops_per_sample > 0


class TestVGG:
    def test_vgg16_param_count(self):
        # torchvision vgg16: 138,357,544 parameters.
        assert get_model("vgg16").num_params == 138_357_544

    def test_vgg_is_layer_granularity(self):
        assert get_model("vgg16").gather_granularity == "layer"

    def test_bad_resolution(self):
        with pytest.raises(ConfigurationError):
            vgg16(input_hw=50)


class TestZooRegistry:
    def test_all_models_build(self):
        for name in available_models():
            model = get_model(name)
            assert model.num_params > 0

    def test_cache_returns_same_object(self):
        assert get_model("resnet50") is get_model("resnet50")

    def test_unknown_model(self):
        with pytest.raises(ConfigurationError, match="available"):
            get_model("alexnet")

    def test_register_custom(self, monkeypatch):
        # The zoo is process-wide: register into copies of its tables,
        # which monkeypatch swaps back, so tests drawing from
        # available_models() never see this model.
        monkeypatch.setattr(zoo, "_BUILDERS", dict(zoo._BUILDERS))
        monkeypatch.setattr(zoo, "_CACHE", dict(zoo._CACHE))
        register_model("custom-rn", lambda: build_resnet(50, num_classes=7),
                       overwrite=True)
        assert get_model("custom-rn").layer_named("fc").param_shape[0] == 7

    def test_register_duplicate_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_model("resnet50", resnet50)
