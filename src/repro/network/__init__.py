"""Network substrate: α+β fabric, heterogeneity, incast, iperf probes."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .fabric import (
        DEFAULT_ALPHA_S,
        DEFAULT_BANDWIDTH_JITTER,
        DEFAULT_INCAST_PER_SENDER,
        Fabric,
    )
    from .iperf import (
        DEFAULT_PROBE_BYTES,
        BandwidthReport,
        estimate_alpha,
        measure_cluster,
        measure_pair,
    )

__all__ = [
    "Fabric", "DEFAULT_ALPHA_S", "DEFAULT_BANDWIDTH_JITTER",
    "DEFAULT_INCAST_PER_SENDER",
    "BandwidthReport", "measure_cluster", "measure_pair", "estimate_alpha",
    "DEFAULT_PROBE_BYTES",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".fabric": (
        "DEFAULT_ALPHA_S", "DEFAULT_BANDWIDTH_JITTER",
        "DEFAULT_INCAST_PER_SENDER", "Fabric",
    ),
    ".iperf": (
        "DEFAULT_PROBE_BYTES", "BandwidthReport", "estimate_alpha",
        "measure_cluster", "measure_pair",
    ),
})
