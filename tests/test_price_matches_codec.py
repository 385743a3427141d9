"""Each method's price is the bytes its codec sends.

The §4 model prices a method by the wire bytes its scheme computes from
layer shapes alone; the codec sends what its payloads hold.  Over seeded
random layer-size lists (layers under 100 parameters included), at every
hyperparameter of the advisor's grid, the scheme's ``wire_bytes`` must
equal the sum of the codec's payload ``wire_bytes`` for every method
with a codec:

* up to per-layer rounding: at most one minimal payload per layer —
  one kept coordinate, the byte a bit-packed layer rounds up to, one
  padded GradiVeq block, and the scale the scheme charges once per
  model but the codec once per tensor;
* and, for DGC, whose threshold is the quantile of a random sample,
  within :data:`DGC_BOUND` of the price beyond that rounding.
"""

import numpy as np
import pytest

from repro.compression import METHODS, make_compressor
from repro.models.layers import LayerSpec, ModelSpec

SEEDS = range(8)

#: DGC's sample holds about 64 values above its threshold
#: (``DGCCompressor.SAMPLE_HITS``), so the density it reads off a
#: sampled layer has a relative standard deviation of about
#: 1/sqrt(64) = 12.5%; the bound is four of them.  Over 1,000 seeds of
#: this module's draws the largest excess read 0.43 (0.375 was passed
#: once in 4,000 cases).  A fixed 64-value sample instead passes about
#: 1/65 of a small layer's coordinates, whatever the fraction.
DGC_BOUND = 0.5

#: The low-rank codecs factor each layer's matrix view; their schemes
#: send the layer's other parameters (biases, norms) dense in fp32.
LOW_RANK = {"powersgd", "atomo"}

CODEC_ROWS = [row for row in METHODS.values() if row.codec is not None]


def random_model(rng):
    """1-12 layers: matrices with and without a bias, convolutions, and
    vectors (norms) under 100 or up to 200k parameters — past the size
    from which DGC samples its threshold rather than reading it off the
    whole layer."""
    layers = []
    for i in range(int(rng.integers(1, 13))):
        kind = int(rng.integers(3))
        if kind == 0:
            m, n = (int(x) for x in rng.integers(1, 256, size=2))
            bias = m * int(rng.integers(2))
            layers.append(LayerSpec(f"fc{i}", "linear", (m, n), (m, n), bias))
        elif kind == 1:
            cout, cin = (int(x) for x in rng.integers(1, 64, size=2))
            k = int(rng.choice([1, 3]))
            layers.append(LayerSpec(f"conv{i}", "conv", (cout, cin, k, k),
                                    (cout, cin * k * k)))
        else:
            size = int(rng.choice([100, 200_000]))
            layers.append(LayerSpec(f"norm{i}", "norm",
                                    extra_params=int(rng.integers(1, size))))
    return ModelSpec("random", tuple(layers))


def sent_bytes(codec, row, model, rng):
    """``(bytes codec sends for one gradient of model, tensors
    encoded)``: per layer for a layer-wise method, the flat gradient at
    once otherwise."""
    if not row.layerwise:
        grad = rng.standard_normal(model.num_params)
        return codec.encode(grad).wire_bytes, 1
    sent = 0.0
    for layer in model.trainable_layers:
        if row.name in LOW_RANK:
            if layer.has_matrix:
                grad = rng.standard_normal(layer.matrix_shape)
                sent += codec.encode(grad).wire_bytes
            sent += 4.0 * (layer.extra_params if layer.has_matrix
                           else layer.num_params)
        else:
            grad = rng.standard_normal(layer.num_params)
            sent += codec.encode(grad).wire_bytes
    return sent, len(model.trainable_layers)


@pytest.mark.parametrize("row", CODEC_ROWS, ids=lambda row: row.name)
def test_scheme_price_is_the_codec_payload(row):
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        model = random_model(rng)
        for params in row.grid:
            price = row.scheme(**params).cost(model, 8).wire_bytes
            codec = make_compressor(row.method_name, **params)
            sent, tensors = sent_bytes(codec, row, model, rng)
            slack = codec.encode(np.ones(1)).wire_bytes * tensors
            if row.name == "dgc":
                slack += DGC_BOUND * price
            assert abs(sent - price) <= slack, (
                seed, params, [layer.num_params
                               for layer in model.trainable_layers],
                sent / price)
