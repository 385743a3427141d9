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
threshold; its ``_price`` prices wire bytes and encode time over the
partition: PowerSGD's terms on the compressed layers, one elementwise
pass and fp32 bytes for the rest.  Currently PowerSGD is the base scheme whose per-layer costs
we can partition exactly, so that is what the constructor accepts.
"""

from __future__ import annotations

from typing import List, Tuple

from ..models import LayerSpec, ModelSpec
from ..units import FLOAT32_BYTES
from .kernel_cost import fold, layer_table, layer_terms
from .schemes import Scheme, check_count


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

    def _price(self, model, world_size, profile):
        table = layer_table(model)
        ranked = table.rank(self.rank)
        # Capped one above the largest layer (the same choice, within int64).
        threshold = min(self.min_layer_params,
                        int(table.params.max(initial=0)) + 1)
        chosen = table.is_matrix & (table.params >= threshold)
        on = chosen[table.is_matrix]
        dense = int(table.params[~chosen].sum())
        wire = (ranked.r[on] * (table.mat_m[on] + table.mat_n[on])
                + table.extra[chosen]) * FLOAT32_BYTES
        encode = layer_terms(
            profile.tensor_overhead_s,
            (ranked.matmul[on], profile.matmul_flops_per_s),
            (ranked.orth[on], profile.orth_elems_per_s))
        # One message when no layer is compressed: all of it is dense.
        return (fold(wire) + dense * FLOAT32_BYTES, 2 if on.any() else 1,
                encode + dense / profile.elementwise_elems_per_s)

    def coverage(self, model: ModelSpec) -> float:
        """Fraction of parameters that get compressed."""
        compressed, _ = self.partition(model)
        covered = sum(layer.num_params for layer in compressed)
        return covered / model.num_params
