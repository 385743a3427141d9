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
    from .http import ServingHandler, make_server
    from .quota import AdmissionError, TokenBucket
    from .requests import (
        AdviseRequest,
        SimulateRequest,
        WhatIfRequest,
        parse_request,
    )
    from .scheduler import ServingScheduler

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".http": ("ServingHandler", "make_server"),
    ".quota": ("AdmissionError", "TokenBucket"),
    ".requests": (
        "AdviseRequest", "SimulateRequest", "WhatIfRequest", "parse_request",
    ),
    ".scheduler": ("ServingScheduler",),
})
