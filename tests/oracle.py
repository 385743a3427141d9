"""The event-loop oracle the vectorized kernel is tested against.

``DDPSimulator.run`` computes a whole measurement run in one batch
kernel call; :meth:`DDPSimulator.simulate_iteration` is the readable
per-iteration spec of the same DDP semantics.  :func:`event_run` loops
the spec over the paper's protocol, so tests can assert that ``run()``
reproduces it bit for bit.
"""

import numpy as np

from repro.simulator import TimingResult


def event_run(sim, batch_size=None, iterations=110, warmup=10, seed=0):
    """``sim.run(...)`` computed on the event loop instead of the kernel.

    One ``default_rng(seed)`` generator is threaded through every
    iteration, the first ``warmup`` iterations are dropped, and the
    fault injector's per-run retransmit counters are reset first, just
    as ``run()`` resets them.
    """
    if sim.injector is not None:
        sim.injector.reset_run_counters()
    bs = batch_size if batch_size is not None else sim.model.default_batch_size
    rng = np.random.default_rng(seed)
    traces = [sim.simulate_iteration(bs, rng, iteration=i)
              for i in range(iterations)]
    measured = traces[warmup:]
    return TimingResult(
        model=sim.model.name,
        scheme=sim.scheme.label,
        world_size=sim.cluster.world_size,
        batch_size=bs,
        sync_times=tuple(t.sync_time() for t in measured),
        iteration_times=tuple(t.iteration_end for t in measured),
    )
