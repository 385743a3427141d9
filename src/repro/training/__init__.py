"""Numeric training substrate: numpy NN + distributed compressed training."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .data import Dataset, concentric_rings, gaussian_blobs, sparse_logits
    from .distributed import DistributedTrainer, train_with_method
    from .nn import MLP, MLPConfig, cross_entropy, softmax
    from .optim import SGD, Adam, ConstantLR, StepDecayLR, WarmupCosineLR

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".data": (
        "Dataset", "concentric_rings", "gaussian_blobs", "sparse_logits",
    ),
    ".distributed": ("DistributedTrainer", "train_with_method"),
    ".nn": ("MLP", "MLPConfig", "cross_entropy", "softmax"),
    ".optim": ("SGD", "Adam", "ConstantLR", "StepDecayLR", "WarmupCosineLR"),
})
