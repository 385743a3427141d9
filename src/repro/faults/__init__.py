"""Seeded, deterministic fault injection for the cluster simulator.

The paper's argument — gradient compression rarely pays off in
datacenters — rests on timing behaviour under *benign* conditions:
lognormal jitter and incast are the only adversities the base simulator
models.  Real clusters also straggle, flap and die, and whether
compression helps or hurts under those conditions is exactly the kind
of end-to-end question the paper's methodology is built to answer.

This package supplies the missing fault model:

* :class:`FaultSchedule` — a declarative, JSON-serializable description
  of *what goes wrong when*: per-worker compute stragglers, degraded or
  flapping links, straggler NICs, gradient-bucket retransmits, and
  worker crashes with two recovery policies;
* :class:`FaultInjector` — resolves the schedule into per-iteration
  fault state the :class:`~repro.simulator.DDPSimulator` consumes.

Determinism is the design contract: the same schedule and the same
seeds produce byte-identical simulated timelines whether the sweep runs
serially or fanned out over a process pool, and an **empty schedule is
bit-identical to no schedule at all** — no extra RNG draws, no changed
cache keys.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .injector import (
        FAULT_STREAM,
        FaultInjector,
        IterationFaults,
        ResolvedFaults,
    )
    from .schedule import (
        CrashFault,
        FaultSchedule,
        LinkFault,
        NodeFault,
        RetransmitFault,
        StragglerFault,
    )

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".injector": (
        "FAULT_STREAM", "FaultInjector", "IterationFaults", "ResolvedFaults",
    ),
    ".schedule": (
        "CrashFault", "FaultSchedule", "LinkFault", "NodeFault",
        "RetransmitFault", "StragglerFault",
    ),
})
