"""Unit conversion helpers.

All internal computation in :mod:`repro` uses SI base units:

* time in **seconds**
* data sizes in **bytes**
* bandwidth in **bytes / second**
* compute throughput in **FLOP / second**

Papers, cloud-provider spec sheets and networking gear use a mix of
milliseconds, mebibytes, gigabits-per-second and teraFLOPS, so every
boundary where such a quantity enters or leaves the library should go
through one of these helpers.  Keeping the conversions in one place makes
unit bugs grep-able.
"""

from __future__ import annotations

import math

from .errors import ConfigurationError

#: Bytes per kibibyte / mebibyte / gibibyte (binary prefixes, as used for
#: buffer and model sizes, e.g. PyTorch's 25 MiB gradient buckets).
KIB = 1024
MIB = 1024**2
GIB = 1024**3

#: Decimal prefixes (as used by network vendors: 10 Gbit/s = 10e9 bit/s).
KILO = 1_000
MEGA = 1_000_000
GIGA = 1_000_000_000
TERA = 1_000_000_000_000

#: Size in bytes of the dense gradient element type used throughout the
#: paper (fp32) and of common compressed representations.
FLOAT32_BYTES = 4
FLOAT16_BYTES = 2
INT64_BYTES = 8
INT32_BYTES = 4


def gbps_to_bytes_per_s(gbps: float) -> float:
    """Convert a link speed in gigabits/second to bytes/second.

    >>> gbps_to_bytes_per_s(10)
    1250000000.0
    """
    return _bandwidth(gbps, gbps * GIGA / 8.0)


def bytes_per_s_to_gbps(bytes_per_s: float) -> float:
    """Convert bytes/second back to gigabits/second."""
    return _bandwidth(bytes_per_s, bytes_per_s * 8.0 / GIGA)


def _bandwidth(value: float, converted: float) -> float:
    """``converted``, the bandwidth ``value`` in other units, if it is
    non-negative and finite: NaN, infinity, a negative value and an
    overflowing conversion all fail the one comparison."""
    if not 0 <= converted < math.inf:
        raise ConfigurationError(
            f"bandwidth must be non-negative and finite, got {value!r}")
    return converted


def ms(seconds: float) -> float:
    """Express a duration in milliseconds (for reporting only)."""
    return seconds * 1e3


def seconds_from_ms(milliseconds: float) -> float:
    """Convert a duration given in milliseconds to seconds."""
    return milliseconds * 1e-3


def us(seconds: float) -> float:
    """Express a duration in microseconds (for reporting only)."""
    return seconds * 1e6


def seconds_from_us(microseconds: float) -> float:
    """Convert a duration given in microseconds to seconds."""
    return microseconds * 1e-6


def mib(num_bytes: float) -> float:
    """Express a size in MiB (for reporting only)."""
    return num_bytes / MIB


def bytes_from_mib(mebibytes: float) -> float:
    """Convert a size given in MiB to bytes."""
    return mebibytes * MIB


def mb(num_bytes: float) -> float:
    """Express a size in decimal megabytes, the unit the paper quotes
    model sizes in (ResNet-50 = 97 MB, BERT_BASE = 418 MB)."""
    return num_bytes / MEGA


def bytes_from_mb(megabytes: float) -> float:
    """Convert a size given in decimal megabytes to bytes."""
    return megabytes * MEGA


def tflops_to_flops(tflops: float) -> float:
    """Convert teraFLOPS (spec-sheet unit) to FLOP/s."""
    if tflops < 0:
        raise ValueError(f"throughput must be non-negative, got {tflops!r}")
    return tflops * TERA


def gflops_to_flops(gflops: float) -> float:
    """Convert gigaFLOPS to FLOP/s."""
    if gflops < 0:
        raise ValueError(f"throughput must be non-negative, got {gflops!r}")
    return gflops * GIGA
