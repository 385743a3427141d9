"""Model zoo: metadata-only specs of the paper's DNN workloads."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .flops import (
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
        TransformerConfig,
        bert_base,
        build_transformer,
        gpt2_small,
    )
    from .vgg import vgg16
    from .zoo import available_models, get_model, register_model

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".flops": (
        "attention_flops", "conv2d_flops", "linear_flops", "norm_flops",
        "pool_flops",
    ),
    ".custom": ("mlp_model", "scaled_model", "simple_cnn"),
    ".layers": ("LayerSpec", "ModelSpec"),
    ".resnet": ("build_resnet", "resnet50", "resnet101", "resnet152"),
    ".transformer": (
        "TransformerConfig", "bert_base", "build_transformer", "gpt2_small",
    ),
    ".vgg": ("vgg16",),
    ".zoo": ("available_models", "get_model", "register_model"),
})
