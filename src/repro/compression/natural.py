"""Natural compression [30] and error-feedback signSGD [35].

Two methods from the paper's related-work roster that bracket the design
space nicely:

* **Natural compression** rounds each value stochastically to a power of
  two — unbiased, ~4x smaller (sign + 8-bit exponent), and extremely
  cheap to encode (bit manipulation).  By the paper's §5 criteria it is
  close to the "ideal" profile except that exponent payloads from
  different workers cannot be summed, so it still needs all-gather.
* **EF-signSGD** is signSGD made convergent: scale the sign pattern by
  the mean absolute value and carry the quantization error in an
  error-feedback buffer.  Same wire format as signSGD (1 bit + one
  scale), same all-gather aggregation; the error feedback lives in the
  aggregator.
"""

from __future__ import annotations

import numpy as np

from ..errors import CompressionError
from ..units import FLOAT32_BYTES
from .base import Compressor, Payload


class NaturalCompressor(Compressor):
    """Stochastic rounding to signed powers of two.

    Encode ``x`` as ``sign(x) * 2^e`` with ``e = floor(log2 |x|)`` chosen
    stochastically between floor and ceil so the estimator is unbiased.
    Wire format: 1 sign bit + 8 exponent bits per element (int8 exponent
    biased around 0; zeros get a reserved code).
    """

    name = "natural"

    #: Reserved exponent code for exact zeros.
    _ZERO_CODE = -128

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)

    def encode(self, grad: np.ndarray) -> Payload:
        arr = self._require_floating(grad)
        flat = arr.reshape(-1)
        signs = flat >= 0.0
        magnitude = np.abs(flat)
        nonzero = magnitude > 0.0

        exponents = np.full(flat.size, self._ZERO_CODE, dtype=np.int16)
        if nonzero.any():
            logs = np.log2(magnitude[nonzero])
            floor = np.floor(logs)
            # P(round up) = (|x| - 2^floor) / (2^ceil - 2^floor)
            low = 2.0 ** floor
            prob_up = (magnitude[nonzero] - low) / low  # (x-2^f)/(2^(f+1)-2^f)
            up = self._rng.random(prob_up.size) < prob_up
            chosen = (floor + up).astype(np.int16)
            chosen = np.clip(chosen, -126, 127)
            exponents[nonzero] = chosen

        packed_signs = np.packbits(signs)
        return Payload(
            arrays=(exponents.astype(np.int8), packed_signs),
            wire_bytes=float(flat.size * (1.0 + 1.0 / 8.0)),
            shape=arr.shape,
            meta={"numel": float(flat.size)},
        )

    def decode(self, payload: Payload) -> np.ndarray:
        exponents, packed_signs = payload.arrays
        numel = int(payload.meta["numel"])
        signs = np.unpackbits(packed_signs, count=numel).astype(bool)
        exps = exponents.astype(np.float64)
        values = np.where(exps == self._ZERO_CODE, 0.0, 2.0 ** exps)
        return (np.where(signs, values, -values)).reshape(payload.shape)


class EFSignCompressor(Compressor):
    """Scaled sign compression: ``mean(|x|) * sign(x)`` (EF-signSGD's
    transmission; the error-feedback state lives in the aggregator)."""

    name = "efsignsgd"

    def encode(self, grad: np.ndarray) -> Payload:
        arr = self._require_floating(grad)
        flat = arr.reshape(-1)
        scale = float(np.abs(flat).mean())
        packed = np.packbits(flat >= 0.0)
        return Payload(
            arrays=(packed,),
            wire_bytes=np.ceil(flat.size / 8.0) + FLOAT32_BYTES,
            shape=arr.shape,
            meta={"numel": float(flat.size), "scale": scale},
        )

    def decode(self, payload: Payload) -> np.ndarray:
        numel = int(payload.meta["numel"])
        bits = np.unpackbits(payload.arrays[0], count=numel).astype(bool)
        signs = np.where(bits, 1.0, -1.0)
        return (payload.meta["scale"] * signs).reshape(payload.shape)
