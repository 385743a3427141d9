"""Hybrid per-layer compression policy.

The paper's Table 1 distinguishes layer-wise methods but its evaluation
always compresses *everything*.  A natural design point in between:
compress only the layers where compression pays — big matrices — and
send small tensors (biases, norms, small convolutions) dense.  This cuts
most of the per-tensor encode overhead (the kernel-launch floor that
dominates PowerSGD's cost on many-layer ResNets: ~0.65 ms x 54 tensors)
while giving up little compression, because parameter mass concentrates
in a few large layers.

:class:`HybridScheme` wraps any layer-wise base scheme with a parameter
threshold; the cost model recomputes wire bytes and encode time over the
partition.  Currently PowerSGD is the base scheme whose per-layer costs
we can partition exactly, so that is what the constructor accepts.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..models import LayerSpec, ModelSpec
from .kernel_cost import KernelProfile, hybrid_powersgd_cost
from .schemes import Scheme, SchemeCost, check_count


class HybridPowerSGDScheme(Scheme):
    """PowerSGD on layers above a parameter threshold, dense fp32 below.

    Attributes:
        rank: PowerSGD rank for the compressed layers.
        min_layer_params: Layers with fewer parameters than this travel
            dense (default 10^5: compresses ResNet-50's ~25 largest
            conv layers, skips the long tail).
    """

    name = "hybrid-powersgd"
    all_reducible = True

    def __init__(self, rank: int = 4, min_layer_params: int = 100_000):
        self.rank = check_count("rank", rank)
        self.min_layer_params = check_count(
            "min_layer_params", min_layer_params, minimum=0)

    @property
    def label(self) -> str:
        return (f"hybrid-powersgd(rank={self.rank}, "
                f"min={self.min_layer_params:g})")

    def partition(self, model: ModelSpec,
                  ) -> Tuple[List[LayerSpec], List[LayerSpec]]:
        """Split trainable layers into (compressed, dense)."""
        compressed: List[LayerSpec] = []
        dense: List[LayerSpec] = []
        for layer in model.trainable_layers:
            if layer.has_matrix and layer.num_params >= self.min_layer_params:
                compressed.append(layer)
            else:
                dense.append(layer)
        return compressed, dense

    def cost(self, model: ModelSpec, world_size: int,
             profile: Optional[KernelProfile] = None) -> SchemeCost:
        wire, encode, compressed = hybrid_powersgd_cost(
            model, self.rank, self.min_layer_params, self._profile(profile))
        return self._cost(model, wire, 2 if compressed else 1, encode)

    def coverage(self, model: ModelSpec) -> float:
        """Fraction of parameters that get compressed."""
        compressed, _ = self.partition(model)
        covered = sum(layer.num_params for layer in compressed)
        return covered / model.num_params
