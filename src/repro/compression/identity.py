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

#: The exponent field of a float64.
_EXPONENT = np.uint64(0x7FF0_0000_0000_0000)

#: ``astype(np.float64)`` of every fp16 bit pattern, indexed by the bits.
_HALF_TO_DOUBLE = (np.arange(1 << 16, dtype=np.uint16).view(np.float16)
                   .astype(np.float64))


def to_half(arr: np.ndarray) -> np.ndarray:
    """``arr.astype(np.float16)``, bit for bit, without numpy's scalar
    cast loop.

    With ``e`` the half's exponent of ``|x|`` (at least -14, which the
    subnormals share), adding ``c = 2**(e + 42)`` rounds ``|x|`` to a
    multiple of the half's unit ``2**(e - 10)``, half to even, and leaves
    that multiple ``m`` (1024 to 2048 for normals, below 1024 for
    subnormals) in the sum's low mantissa bits.  The half is then
    ``(e + 14) << 10`` plus ``m``: a carry to ``m = 2048`` bumps the
    exponent, and magnitudes clamped to 65536 come out as infinity.
    NaNs keep ``astype``.  ``arr`` is not written.
    """
    arr = np.asarray(arr, dtype=np.float64)
    mag = np.abs(arr)
    np.fmin(mag, 65536.0, out=mag)
    scale = np.fmax(mag, _HALF_TINY).view(np.uint64)
    scale &= _EXPONENT
    scale += np.uint64(42 << 52)
    mag += scale.view(np.float64)
    bits = mag.view(np.uint64)
    bits &= np.uint64(0xFFF)
    scale >>= np.uint64(42)
    bits += scale
    bits -= np.uint64(1051 << 10)  # (1023 - 14 + 42) << 10
    sign = np.right_shift(arr.view(np.uint64), np.uint64(48), out=scale)
    sign &= np.uint64(0x8000)
    bits |= sign
    half = bits.astype(np.uint16).view(np.float16)
    nan = np.isnan(arr)
    if nan.any():
        half[nan] = arr[nan].astype(np.float16)
    return half


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
