"""Model zoo: metadata-only specs of the paper's DNN workloads."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .flops import (
        BACKWARD_FLOP_RATIO,
        attention_flops,
        conv2d_flops,
        linear_flops,
        norm_flops,
        pool_flops,
    )
    from .custom import mlp_model, scaled_model, simple_cnn
    from .layers import LayerSpec, ModelSpec
    from .resnet import build_resnet, resnet50, resnet101, resnet152
    from .transformer import (
        BERT_BASE_CONFIG,
        BERT_LARGE_CONFIG,
        GPT2_SMALL_CONFIG,
        TransformerConfig,
        bert_base,
        bert_large,
        build_transformer,
        gpt2_small,
    )
    from .vgg import vgg16
    from .zoo import PAPER_MODELS, available_models, get_model, register_model

__all__ = [
    "LayerSpec", "ModelSpec",
    "conv2d_flops", "linear_flops", "attention_flops", "norm_flops",
    "pool_flops", "BACKWARD_FLOP_RATIO",
    "build_resnet", "resnet50", "resnet101", "resnet152",
    "TransformerConfig", "build_transformer", "bert_base", "bert_large",
    "gpt2_small", "BERT_BASE_CONFIG", "BERT_LARGE_CONFIG",
    "GPT2_SMALL_CONFIG", "vgg16",
    "get_model", "available_models", "register_model", "PAPER_MODELS",
    "mlp_model", "simple_cnn", "scaled_model",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".flops": (
        "BACKWARD_FLOP_RATIO", "attention_flops", "conv2d_flops",
        "linear_flops", "norm_flops", "pool_flops",
    ),
    ".custom": ("mlp_model", "scaled_model", "simple_cnn"),
    ".layers": ("LayerSpec", "ModelSpec"),
    ".resnet": ("build_resnet", "resnet50", "resnet101", "resnet152"),
    ".transformer": (
        "BERT_BASE_CONFIG", "BERT_LARGE_CONFIG", "GPT2_SMALL_CONFIG",
        "TransformerConfig", "bert_base", "bert_large", "build_transformer",
        "gpt2_small",
    ),
    ".vgg": ("vgg16",),
    ".zoo": (
        "PAPER_MODELS", "available_models", "get_model", "register_model",
    ),
})
