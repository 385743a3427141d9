"""Network substrate: α+β fabric, heterogeneity, incast, iperf probes."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .fabric import Fabric
    from .iperf import (
        BandwidthReport,
        estimate_alpha,
        measure_cluster,
        measure_pair,
    )

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".fabric": ("Fabric",),
    ".iperf": (
        "BandwidthReport", "estimate_alpha", "measure_cluster", "measure_pair",
    ),
})
