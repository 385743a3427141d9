"""Uncompressed and half-precision codecs.

``fp32`` is the syncSGD baseline: no compression, associative mean,
all-reduce.  ``fp16`` is the "just communicate at half precision" option
the paper's first finding recommends as often sufficient (2x reduction,
near-zero encode cost, fully all-reducible).
"""

from __future__ import annotations

import numpy as np

from ..units import FLOAT16_BYTES, FLOAT32_BYTES
from .base import Compressor, Payload

#: Smallest normal fp16, 2**-14; below it every half is ``m * 2**-24``.
_HALF_TINY = 2.0 ** -14

#: ``astype(np.float64)`` of every fp16 bit pattern, indexed by the bits.
_HALF_TO_DOUBLE = (np.arange(1 << 16, dtype=np.uint16).view(np.float16)
                   .astype(np.float64))


def to_half(arr: np.ndarray) -> np.ndarray:
    """``arr.astype(np.float16)``, bit for bit, without numpy's slow path.

    numpy's cast goes scalar whenever a result is an fp16 subnormal, and
    most gradients are that small.  Those halves are built directly:
    scaling by 2**24 is exact and ``rint`` rounds half to even, so
    ``rint(|x| * 2**24)`` is the subnormal's mantissa (1024 being the
    bits of 2**-14 itself).  Everything else keeps ``astype``.
    """
    mag = np.abs(arr)
    small = mag < _HALF_TINY
    normal = np.where(small, _HALF_TINY, arr).astype(np.float16)
    sub = (np.rint(np.fmin(mag, _HALF_TINY) * 2.0 ** 24).astype(np.uint16)
           | (np.signbit(arr).astype(np.uint16) << 15))
    return np.where(small, sub, normal.view(np.uint16)).view(np.float16)


def as_float64(arr: np.ndarray, copy: bool = True) -> np.ndarray:
    """``arr.astype(np.float64, copy=copy)``; fp16 is read through a
    65,536-entry table built with that same cast, so a half is always a
    fresh array."""
    if arr.dtype == np.float16:
        return _HALF_TO_DOUBLE[arr.view(np.uint16)]
    return arr.astype(np.float64, copy=copy)


class FP32Compressor(Compressor):
    """Identity codec: the gradient itself (the syncSGD baseline)."""

    name = "fp32"
    all_reducible = True
    layerwise = True

    def encode(self, grad: np.ndarray) -> Payload:
        arr = self._require_floating(grad)
        return Payload(
            arrays=(arr.copy(),),
            wire_bytes=float(arr.size * FLOAT32_BYTES),
            shape=arr.shape,
        )

    def decode(self, payload: Payload) -> np.ndarray:
        return payload.arrays[0].reshape(payload.shape).copy()


class FP16Compressor(Compressor):
    """Cast to half precision for the wire; decode back to fp32.

    Values outside fp16 range saturate to the largest finite half, as a
    real mixed-precision all-reduce would (gradients at sane scales never
    get near it).
    """

    name = "fp16"
    all_reducible = True
    layerwise = True

    def encode(self, grad: np.ndarray) -> Payload:
        arr = self._require_floating(grad)
        finfo = np.finfo(np.float16)
        half = to_half(np.clip(arr, finfo.min, finfo.max))
        return Payload(
            arrays=(half,),
            wire_bytes=float(arr.size * FLOAT16_BYTES),
            shape=arr.shape,
        )

    def decode(self, payload: Payload) -> np.ndarray:
        return as_float64(payload.arrays[0]).reshape(payload.shape)
