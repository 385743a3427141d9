"""Observability: labeled metrics, structured logs, run manifests.

The measurement layer under the reproduction, mirroring the paper's own
methodology (Nsight traces, per-phase breakdowns): simulator, collective
cost models and the experiment engine record into a process-global
metrics registry; the CLI snapshots it into run manifests and the
``--metrics`` report.  Disabled (the default), every call site hits a
shared no-op handle — zero allocations, no RNG interaction, bit-identical
simulated timelines.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .logs import StructuredLogger, get_logger
    from .manifest import (
        MANIFEST_FILENAME,
        MANIFEST_VERSION,
        build_manifest,
        read_manifest,
        verify_manifest,
        write_manifest,
    )
    from .metrics import (
        Counter,
        Gauge,
        Histogram,
        MetricsRegistry,
        NullRegistry,
        check_snapshot,
        disable,
        enable,
        escape_label_value,
        format_key,
        get_registry,
        metric_key,
        parse_key,
        render_prometheus,
        set_registry,
        validate_prometheus_text,
    )
    from .tracing import (
        NullTracer,
        TraceRecorder,
        TraceSpan,
        disable_tracing,
        enable_tracing,
        get_tracer,
        set_tracer,
    )

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".logs": ("StructuredLogger", "get_logger"),
    ".manifest": (
        "MANIFEST_FILENAME", "MANIFEST_VERSION", "build_manifest",
        "read_manifest", "verify_manifest", "write_manifest",
    ),
    ".metrics": (
        "Counter", "Gauge", "Histogram", "MetricsRegistry", "NullRegistry",
        "check_snapshot", "disable", "enable", "escape_label_value", "format_key",
        "get_registry", "metric_key", "parse_key", "render_prometheus",
        "set_registry", "validate_prometheus_text",
    ),
    ".tracing": (
        "NullTracer", "TraceRecorder", "TraceSpan", "disable_tracing",
        "enable_tracing", "get_tracer", "set_tracer",
    ),
})
