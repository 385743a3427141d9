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

#: Largest finite fp16; larger magnitudes saturate to it.
_HALF_MAX = 65504.0

#: The exponent field of a float64.
_EXPONENT = np.uint64(0x7FF0_0000_0000_0000)


def round_to_half(arr: np.ndarray) -> np.ndarray:
    """``np.clip(arr, -65504, 65504).astype(np.float16).astype(np.float64)``,
    bit for bit for finite ``arr``, without numpy's scalar cast loop.

    With ``e`` the half's exponent of ``|x|`` (at least -14, which the
    subnormals share), ``c = 2**(e + 42)`` has a float64 unit of
    ``2**(e - 10)``, the half's unit at ``e``: ``|x| + c`` rounds ``|x|``
    onto the half grid, half to even, and subtracting ``c`` again is
    exact.  ``copysign`` restores the sign, -0.0 included.  ``arr`` is
    not written; the result is a fresh float64 array.
    """
    arr = np.asarray(arr, dtype=np.float64)
    mag = np.abs(arr, out=np.empty_like(arr))  # an array for 0-d input too
    np.fmin(mag, _HALF_MAX, out=mag)
    bits = np.fmax(mag, _HALF_TINY).view(np.uint64)
    bits &= _EXPONENT
    bits += np.uint64(42 << 52)
    c = bits.view(np.float64)
    mag += c
    mag -= c
    return np.copysign(mag, arr, out=mag)


class FP32Compressor(Compressor):
    """Identity codec: the gradient itself (the syncSGD baseline)."""

    name = "fp32"

    def encode(self, grad: np.ndarray) -> Payload:
        arr = self._require_floating(grad)
        return Payload(
            arrays=(arr.copy(),),
            wire_bytes=float(arr.size * FLOAT32_BYTES),
            shape=arr.shape,
        )

    def decode(self, payload: Payload) -> np.ndarray:
        return payload.arrays[0].reshape(payload.shape).copy()


class FP16Compressor(FP32Compressor):
    """Half precision on the wire.

    The payload holds the gradient rounded onto the fp16 grid
    (:func:`round_to_half`), carried as float64 and counted at 2 wire
    bytes per value, as the fp32 codec's float64 values are counted at
    4; it sums and decodes as the fp32 payload does.  Values outside fp16
    range saturate to the largest finite half, as a real mixed-precision
    all-reduce would (gradients at sane scales never get near it).
    """

    name = "fp16"

    def encode(self, grad: np.ndarray) -> Payload:
        arr = self._require_floating(grad)
        return Payload(
            arrays=(round_to_half(arr),),
            wire_bytes=float(arr.size * FLOAT16_BYTES),
            shape=arr.shape,
        )
