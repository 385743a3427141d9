"""Simulation-as-a-service: the engine behind a persistent scheduler.

``repro serve`` turns the one-shot experiment engine into a long-lived
HTTP service: an admission-controlled queue feeds a continuous-batching
scheduler that prices what-ifs in place, coalesces compatible
simulations and sweeps into single engine calls, and streams results
back per request.  See ``docs/serving.md`` for the API reference and
operational semantics.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .http import (
        MAX_BODY_BYTES,
        ServingHandler,
        ServingHTTPServer,
        make_server,
    )
    from .quota import AdmissionError, TenantQuotas, TokenBucket
    from .requests import (
        MAX_SEEDS_PER_REQUEST,
        AdviseRequest,
        SimulateRequest,
        WhatIfRequest,
        parse_request,
    )
    from .scheduler import TERMINAL_STATES, RequestState, ServingScheduler

__all__ = [
    "AdmissionError", "TokenBucket", "TenantQuotas",
    "WhatIfRequest", "SimulateRequest", "AdviseRequest", "parse_request",
    "MAX_SEEDS_PER_REQUEST",
    "RequestState", "ServingScheduler", "TERMINAL_STATES",
    "ServingHandler", "ServingHTTPServer", "make_server",
    "MAX_BODY_BYTES",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".http": (
        "MAX_BODY_BYTES", "ServingHandler", "ServingHTTPServer", "make_server",
    ),
    ".quota": ("AdmissionError", "TenantQuotas", "TokenBucket"),
    ".requests": (
        "MAX_SEEDS_PER_REQUEST", "AdviseRequest", "SimulateRequest",
        "WhatIfRequest", "parse_request",
    ),
    ".scheduler": ("TERMINAL_STATES", "RequestState", "ServingScheduler"),
})
