"""Quantization compressors: QSGD [8], TernGrad [66], 1-bit SGD [52].

All three shrink each coordinate to a few bits.  Their aggregations are
not associative in their published form (Table 1): QSGD and TernGrad
re-quantize relative to per-tensor scales that differ across workers, and
1-bit SGD's thresholding loses magnitude, so the reference systems gather
and decode all ``p`` payloads.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..errors import CompressionError
from ..units import FLOAT32_BYTES
from .base import Compressor, Payload
from .schemes import check_count


class QSGDCompressor(Compressor):
    """QSGD stochastic uniform quantization with ``levels`` buckets.

    Each coordinate ``x`` becomes ``norm2 * sign(x) * q`` where ``q`` is
    ``|x|/norm2 * levels`` stochastically rounded to an integer in
    ``[0, levels]``.  The estimator is unbiased.  Wire cost per element is
    ``1 + ceil(log2(levels+1))`` bits (fixed-width; the paper's Elias
    coding would shave a constant factor) plus one fp32 norm.
    """

    name = "qsgd"

    def __init__(self, levels: int = 16, seed: int = 0):
        self.levels = check_count("levels", levels, error=CompressionError)
        self._rng = np.random.default_rng(seed)

    def bits_per_element(self) -> float:
        return 1.0 + math.ceil(math.log2(self.levels + 1))

    def encode(self, grad: np.ndarray) -> Payload:
        arr = self._require_floating(grad)
        flat = arr.reshape(-1)
        norm = float(np.linalg.norm(flat))
        if norm == 0.0:
            quantized = np.zeros(flat.size, dtype=np.int32)
        else:
            scaled = np.abs(flat) / norm * self.levels
            floor = np.floor(scaled)
            prob = scaled - floor
            quantized = (floor + (self._rng.random(flat.size) < prob)
                         ).astype(np.int32)
        signs = np.sign(flat).astype(np.int8)
        wire = flat.size * self.bits_per_element() / 8.0 + FLOAT32_BYTES
        return Payload(
            arrays=(quantized, signs),
            wire_bytes=wire,
            shape=arr.shape,
            meta={"norm": norm},
        )

    def decode(self, payload: Payload) -> np.ndarray:
        quantized, signs = payload.arrays
        norm = payload.meta["norm"]
        flat = norm * signs.astype(np.float64) * (
            quantized.astype(np.float64) / self.levels)
        return flat.reshape(payload.shape)


class TernGradCompressor(Compressor):
    """TernGrad: ternarize to ``s_t * {-1, 0, +1}`` with
    ``s_t = max|g|`` and stochastic keep-probability ``|g|/s_t``.

    Unbiased; 2 bits per element plus one fp32 scale.
    """

    name = "terngrad"

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)

    def encode(self, grad: np.ndarray) -> Payload:
        arr = self._require_floating(grad)
        flat = arr.reshape(-1)
        scale = float(np.max(np.abs(flat)))
        if scale == 0.0:
            ternary = np.zeros(flat.size, dtype=np.int8)
        else:
            keep = self._rng.random(flat.size) < (np.abs(flat) / scale)
            ternary = (np.sign(flat) * keep).astype(np.int8)
        return Payload(
            arrays=(ternary,),
            wire_bytes=flat.size * 2.0 / 8.0 + FLOAT32_BYTES,
            shape=arr.shape,
            meta={"scale": scale},
        )

    def decode(self, payload: Payload) -> np.ndarray:
        ternary = payload.arrays[0].astype(np.float64)
        return (payload.meta["scale"] * ternary).reshape(payload.shape)


class OneBitCompressor(Compressor):
    """1-bit SGD: quantize to one bit per coordinate around zero, carrying
    reconstruction means so the decode is the centroid of each half.

    Seide et al. pair this with error feedback; our aggregators add EF on
    top (the codec itself is stateless).
    """

    name = "onebit"

    def encode(self, grad: np.ndarray) -> Payload:
        arr = self._require_floating(grad)
        flat = arr.reshape(-1)
        positive = flat >= 0.0
        pos_mean = float(flat[positive].mean()) if positive.any() else 0.0
        neg_mean = float(flat[~positive].mean()) if (~positive).any() else 0.0
        packed = np.packbits(positive)
        return Payload(
            arrays=(packed,),
            wire_bytes=np.ceil(flat.size / 8.0) + 2.0 * FLOAT32_BYTES,
            shape=arr.shape,
            meta={"numel": float(flat.size), "pos_mean": pos_mean,
                  "neg_mean": neg_mean},
        )

    def decode(self, payload: Payload) -> np.ndarray:
        numel = int(payload.meta["numel"])
        bits = np.unpackbits(payload.arrays[0], count=numel).astype(bool)
        flat = np.where(bits, payload.meta["pos_mean"], payload.meta["neg_mean"])
        return flat.reshape(payload.shape)
