"""Vectorized evaluation of simulated iterations: the one production
implementation of the DDP iteration timeline.

The semantics are specified by a per-iteration discrete-event loop
(kept in the test suite as this module's oracle).  Instead of stepping
that loop once per iteration in pure Python, this module computes the
same numbers for *all* iterations at once as NumPy array operations —
:meth:`DDPSimulator.run <repro.simulator.ddp.DDPSimulator.run>` makes
one call for a whole run, and
:meth:`~repro.simulator.ddp.DDPSimulator.simulate_iteration` a one-row
call at its absolute iteration index:

* the run's entire jitter sequence is drawn in **one** RNG call, whose
  fill order is exactly the event loop's sequential draw order, so
  both consume identical variates from the same seed;
* per-layer backward times become an ``(iterations × layers)`` product
  plus a row-wise prefix sum (bucket-ready times);
* bucket all-reduces are priced once per distinct (world size,
  bandwidth) state through the collective costs and pushed through the
  FIFO comm-stream recurrence — the §4.1 model's
  ``max(γ·T_comp, (k-1)·T_comm) + T_comm(b̂)`` evaluated exactly.

Fault schedules are array masks here: :func:`run_batch_many` resolves
the whole :class:`~repro.faults.FaultSchedule` once into per-iteration
arrays (:meth:`FaultInjector.resolve_range
<repro.faults.FaultInjector.resolve_range>`) — compute stretch and
stalls scale rows, degraded bandwidths and surviving world sizes
regroup the collective pricing, and retransmit delays are drawn
vectorized from the same ``(seed, iteration, transfer_index)``-seeded
streams the event loop uses.  A fault-free simulator is the identity
mask.  The same machinery stacks *several* simulators sharing one
model/topology (an engine job family) into a single kernel call.

Bit-identity with the event loop is a hard invariant, not an
approximation: every elementary IEEE-754 operation is exactly rounded,
so an elementwise array op equals the scalar op on each element, and
this module is written so the *sequence* of operations per element —
multiplication association, ``cumsum`` accumulation order, the
``max``/``+`` pipeline recurrence — matches the event loop's exactly.
``tests/test_batch_equivalence.py``,
``tests/test_faulted_batch_equivalence.py`` and
``tests/test_simulate_iteration.py`` pin the invariant against the
event-loop oracle in ``tests/oracle.py``.

Span-level timeline traces come from the same kernel: it optionally
records the intermediate arrays that delimit span boundaries
(``record=`` on a :data:`Kernel`), and
:mod:`repro.simulator.reconstruct` reassembles them into
event-identical :class:`~repro.simulator.trace.IterationTrace` objects.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple, Union)

import numpy as np

from ..errors import ConfigurationError
from ..network import Fabric
from ..telemetry.metrics import get_registry
from .ddp import DDPSimulator, TimingResult

if TYPE_CHECKING:
    from ..faults import ResolvedFaults

#: Most iterations one kernel call simulates.  Every array the kernel
#: builds has a row per iteration, so an unbounded count (a CLI flag, a
#: request body) would exhaust memory before the first row is priced.
MAX_ITERATIONS = 10_000


def _col(J: np.ndarray, idx: Optional[int], n: int) -> np.ndarray:
    """Jitter column ``idx``, or an all-ones vector for a skipped draw
    (``x * 1.0`` is an exact identity, matching the event path's
    jitter-of-1.0 shortcut)."""
    if idx is None:
        return np.ones(n)
    return J[:, idx]


def _cols(J: np.ndarray, sl: Optional[slice], n: int,
          count: int) -> np.ndarray:
    """Jitter column block ``sl``, or all-ones for skipped draws."""
    if sl is None:
        return np.ones((n, count))
    return J[:, sl]


# ----- kernel builders ---------------------------------------------------------
#
# Each builder prices everything iteration-independent once, registers
# the path's draw pattern on a _SlotLayout (in the event loop's exact
# draw order), and returns (presence function, kernel).  The kernels
# replicate the event loop's arithmetic operation by operation; the
# comments flag each ordering constraint.  Fault schedules rewrite
# per-iteration state — compute stretch, degraded bandwidth, surviving
# world size, recovery stalls, retransmit risk — so run-constant
# scalars are per-row arrays.  Two mechanisms keep bit-identity:
#
# * the event loop's draw count varies per iteration (the sequential
#   path skips its comm draw when an elastic crash shrinks the world to
#   1; the bucket-cast draw only happens when the hook cost at that
#   iteration's world size is positive), so each registered slot
#   carries a per-row *presence* mask and one flat lognormal call
#   replays exactly the draws the event loop would have made, in its
#   order;
# * per-(world size, bandwidth-scale) combo pricing: collective costs
#   are computed once per distinct degraded state through the
#   simulator's dispatchers — one array call over every bucket for the
#   all-reduce, whatever the algorithm — and scattered to rows.


class _SlotLayout:
    """Per-iteration draw slots with row-varying presence.

    Builders register each potential draw in event-loop order; a
    registered slot may be *absent* on some rows (iterations) — the
    presence mask decides.  Absent cells hold 1.0 (the event loop's
    jitter-of-1.0 shortcut) and consume no RNG stream.
    """

    def __init__(self) -> None:
        self.sigmas: List[float] = []

    def slot(self, sigma: float) -> Optional[int]:
        """Register one draw; its slot index, or ``None`` if the sigma
        is zero (never drawn on any row)."""
        if sigma <= 0:
            return None
        self.sigmas.append(float(sigma))
        return len(self.sigmas) - 1

    def slots(self, sigma: float, count: int) -> Optional[slice]:
        """Register ``count`` consecutive draws of the same sigma."""
        if sigma <= 0 or count == 0:
            return None
        start = len(self.sigmas)
        self.sigmas.extend([float(sigma)] * count)
        return slice(start, start + count)

    def draw(self, rng: np.random.Generator,
             present: np.ndarray) -> np.ndarray:
        """One member's jitter: an ``(n, S)`` matrix, 1.0 where absent.

        The present cells are drawn in one flat lognormal call; boolean
        masking walks the matrix row-major, so the stream consumption
        order is exactly the event loop's sequential per-iteration
        draws.  When every cell is present (the usual case) the call
        draws at the broadcast ``(n, S)`` shape directly, which fills
        row-major too: the same variates, with no gather or scatter.
        """
        n = present.shape[0]
        S = len(self.sigmas)
        if S == 0:
            return np.ones((n, 0))
        sigma = np.broadcast_to(np.asarray(self.sigmas, dtype=float),
                                (n, S))
        if present.all():
            return rng.lognormal(mean=0.0, sigma=sigma)
        J = np.ones((n, S))
        flat = sigma[present]
        if flat.size:
            J[present] = rng.lognormal(mean=0.0, sigma=flat)
        return J


class _FaultRows:
    """Stacked per-row fault state across a batch call's members."""

    def __init__(self, slow: np.ndarray, bw: np.ndarray, p: np.ndarray,
                 stall: np.ndarray):
        self.slow = slow    # compute slowdown (>= 1)
        self.bw = bw        # bandwidth scale (<= 1)
        self.p = p          # surviving world size (int)
        self.stall = stall  # start-of-iteration stall seconds


#: One member of a stacked batch call: its simulator, its row slice,
#: and its resolved fault range (``None`` for a fault-free member).
_Member = Tuple[DDPSimulator, slice, Optional["ResolvedFaults"]]


def _stack_member_faults(sims: Sequence[DDPSimulator], n: int,
                         start: int) -> Tuple[_FaultRows, List[_Member]]:
    """Resolve every member's fault schedule over iterations
    ``[start, start + n)`` into stacked row arrays."""
    slows, bws, ps, stalls = [], [], [], []
    members: List[_Member] = []
    row = 0
    for sim in sims:
        sl = slice(row, row + n)
        if sim._injector is None:
            slows.append(np.ones(n))
            bws.append(np.ones(n))
            ps.append(np.full(n, sim.cluster.world_size, dtype=np.int64))
            stalls.append(np.zeros(n))
            resolved = None
        else:
            resolved = sim._injector.resolve_range(start, start + n)
            slows.append(resolved.compute_slowdown)
            bws.append(resolved.bandwidth_scale)
            ps.append(resolved.world_size)
            stalls.append(resolved.stall_s)
        members.append((sim, sl, resolved))
        row += n
    # A lone member (the usual call) needs no copy: rows are read-only.
    join = (lambda parts: parts[0]) if len(sims) == 1 else np.concatenate
    F = _FaultRows(join(slows), join(bws), join(ps), join(stalls))
    return F, members


def _combos(F: _FaultRows) -> List[Tuple[Tuple[int, float], np.ndarray]]:
    """Rows grouped by distinct (world size, bandwidth scale) state.

    Fault schedules produce a handful of distinct degraded states over
    a run, so pricing once per combo through the dispatchers is both
    exact and cheap.  Combos come in order of first appearance,
    so the pricing calls (and the collective telemetry they record)
    happen in row order."""
    if (F.p == F.p[0]).all() and (F.bw == F.bw[0]).all():
        return [((int(F.p[0]), float(F.bw[0])), np.arange(F.p.size))]
    keys = np.stack((F.p.astype(float), F.bw), axis=1)
    _, first, inverse = np.unique(keys, axis=0, return_index=True,
                                  return_inverse=True)
    inverse = inverse.reshape(-1)
    return [((int(F.p[i]), float(F.bw[i])),
             np.flatnonzero(inverse == inverse[i]))
            for i in np.sort(first)]


def _per_p(F: _FaultRows, fn: Callable[[int], float]) -> np.ndarray:
    """Map a per-world-size scalar onto rows (one call per distinct p)."""
    out = np.empty(F.p.size)
    for p in np.unique(F.p):
        out[F.p == p] = fn(int(p))
    return out


def _retransmit_arrays(members: Sequence[_Member], durations: np.ndarray,
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Retransmit delays/replays for every (row, transfer) cell.

    ``durations`` is the jittered transfer-duration matrix ``(N, T)``;
    members without retransmit risk contribute zeros without touching
    any RNG (exactly like the event path, which never rolls the dice
    for them)."""
    N, T = durations.shape
    delays = np.zeros((N, T))
    replays = np.zeros((N, T), dtype=np.int64)
    for sim, sl, resolved in members:
        if resolved is None or not resolved.has_retransmits:
            continue
        injector = sim._injector
        assert injector is not None
        for t in range(T):
            d, r = injector.retransmit_delay_range(
                resolved.start, resolved.start + len(resolved), t,
                durations[sl, t])
            delays[sl, t] = d
            replays[sl, t] = r
    return delays, replays


#: A kernel maps (jitter matrix, fault rows, members) to the
#: per-row (forward_end, sync_end, iteration_end, wire bytes,
#: retransmit delays, retransmit replays).  Kernels also accept an
#: optional ``record`` dict; when given, the intermediate arrays that
#: delimit per-iteration span boundaries (bucket/wave pipeline starts
#: and ends, encode/decode instants, optimizer starts) are stored into
#: it so :mod:`repro.simulator.reconstruct` can rebuild event-identical
#: traces without re-running the event loop.  Recording never changes
#: the arithmetic: the same operations run in the same order.
Kernel = Callable[
    [np.ndarray, _FaultRows, Sequence[_Member]],
    Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray,
          np.ndarray]]

#: A presence function maps fault rows to the (N, S) draw-presence mask.
PresenceFn = Callable[[_FaultRows], np.ndarray]


def _plan_baseline(lead: DDPSimulator, bs: int, layout: _SlotLayout,
                   ) -> Tuple[PresenceFn, Kernel]:
    """syncSGD / ddp_overlap schemes: bucketed, overlapped all-reduce."""
    cfg = lead.config
    fwd_base = lead.compute.forward_time(bs)
    opt_base = lead.compute.optimizer_time()
    plan = lead.model.bucket_plan(cfg.bucket_cap_bytes)
    sizes = np.asarray(plan.sizes, dtype=float)
    close_idx = np.asarray(plan.close_idx)
    nb = sizes.size
    base_layers = lead.compute.backward_layer_times(bs)
    overlap_enabled = cfg.overlap_communication
    has_hook = not lead._is_baseline

    def wire_scale_at(p: int) -> float:
        if lead._is_baseline:
            return 1.0
        return lead._scheme_cost(p).wire_bytes / lead.model.grad_bytes

    def hook_at(p: int) -> float:
        if lead._is_baseline:
            return 0.0
        return lead._scheme_cost(p).encode_decode_s

    # Event-path draw order: forward, per layer, per bucket collective
    # (drawn even at p == 1), bucket-cast when the hook cost at that
    # iteration's world size is positive, optimizer.
    c_fwd = layout.slot(cfg.compute_jitter)
    sl_layers = layout.slots(cfg.compute_jitter, base_layers.size)
    sl_comm = layout.slots(cfg.comm_jitter, nb)
    c_hook = layout.slot(cfg.compute_jitter) if has_hook else None
    c_opt = layout.slot(cfg.compute_jitter)

    def presence(F: _FaultRows) -> np.ndarray:
        pres = np.ones((F.p.size, len(layout.sigmas)), dtype=bool)
        if c_hook is not None:
            pres[:, c_hook] = _per_p(F, hook_at) > 0
        return pres

    def kernel(J: np.ndarray, F: _FaultRows, members: Sequence[_Member],
               record: Optional[Dict[str, Any]] = None):
        N = F.p.size
        fwd_end = F.stall + (fwd_base * F.slow) * _col(J, c_fwd, N)
        overlap_row = (F.p > 1) if overlap_enabled \
            else np.zeros(N, dtype=bool)
        # The event path passes (stretch * slow) into the layer times;
        # (t * ss) * j preserves its association.
        ss = np.where(overlap_row, cfg.gamma, 1.0) * F.slow
        layers = ((base_layers[None, :] * ss[:, None])
                  * _cols(J, sl_layers, N, base_layers.size))
        completion = np.cumsum(layers, axis=1) + fwd_end[:, None]
        backward_end = completion[:, -1]
        ready = np.where(overlap_row[:, None], completion[:, close_idx],
                         backward_end[:, None])
        wire_row = _per_p(F, wire_scale_at)
        durs = np.zeros((N, nb))
        for (p, bw), rows in _combos(F):
            if p > 1:
                durs[rows] = lead._allreduce_time(
                    sizes * wire_scale_at(p), p, bw)
        durations = durs * _cols(J, sl_comm, N, nb)
        delays, replays = _retransmit_arrays(members, durations)
        # The FIFO comm-stream recurrence, with each bucket's
        # retransmit penalty appended after its transfer (the event
        # path's comm_free update order).
        if record is not None:
            bucket_start = np.empty((N, nb))
            bucket_end = np.empty((N, nb))
        end = fwd_end
        for k in range(nb):
            begun = np.maximum(ready[:, k], end)
            done = begun + durations[:, k]
            if record is not None:
                bucket_start[:, k] = begun
                bucket_end[:, k] = done
            end = done + delays[:, k]
        sync_pre_hook = np.maximum(end, backward_end)
        sync_end = sync_pre_hook
        hook_term = None
        if has_hook:
            hook_row = _per_p(F, hook_at)
            hook_term = (hook_row * F.slow) * _col(J, c_hook, N)
            sync_end = sync_end + hook_term
        start = np.maximum(sync_end, backward_end)
        iter_end = start + (opt_base * F.slow) * _col(J, c_opt, N)
        wire = np.where(F.p > 1, float(sizes.sum()) * wire_row, 0.0)
        wire = wire + (sizes[None, :] * wire_row[:, None]
                       * replays).sum(axis=1)
        if record is not None:
            record.update(
                path="baseline", fwd_end=fwd_end, backward_end=backward_end,
                bucket_sizes=sizes, wire_row=wire_row,
                bucket_start=bucket_start, bucket_end=bucket_end,
                delays=delays, replays=replays,
                sync_pre_hook=sync_pre_hook, hook_term=hook_term,
                sync_end=sync_end, opt_start=start, iter_end=iter_end)
        return fwd_end, sync_end, iter_end, wire, delays, replays

    return presence, kernel


def _plan_sequential(lead: DDPSimulator, bs: int, layout: _SlotLayout,
                     ) -> Tuple[PresenceFn, Kernel]:
    """Sequential compression: backward → encode → collective → decode."""
    cfg = lead.config
    fwd_base = lead.compute.forward_time(bs)
    bwd_base = lead.compute.backward_time(bs)
    hook_over = lead._hook_overhead()
    opt_base = lead.compute.optimizer_time()

    # Draw order: forward, backward, encode/decode, collective (only
    # when that iteration's world size exceeds 1), optimizer.
    c_fwd = layout.slot(cfg.compute_jitter)
    c_bwd = layout.slot(cfg.compute_jitter)
    c_enc = layout.slot(cfg.compute_jitter)
    c_comm = layout.slot(cfg.comm_jitter)
    c_opt = layout.slot(cfg.compute_jitter)

    def presence(F: _FaultRows) -> np.ndarray:
        pres = np.ones((F.p.size, len(layout.sigmas)), dtype=bool)
        if c_comm is not None:
            pres[:, c_comm] = F.p > 1
        return pres

    def kernel(J: np.ndarray, F: _FaultRows, members: Sequence[_Member],
               record: Optional[Dict[str, Any]] = None):
        N = F.p.size
        enc_row = _per_p(
            F, lambda p: lead._scheme_cost(p).encode_decode_s + hook_over)
        wire_row = _per_p(F, lambda p: lead._scheme_cost(p).wire_bytes)
        comm_base = np.zeros(N)
        for (p, bw), rows in _combos(F):
            if p > 1:
                comm_base[rows] = lead._collective_time(
                    lead._scheme_cost(p), p, bw)
        fwd_end = F.stall + (fwd_base * F.slow) * _col(J, c_fwd, N)
        backward_end = fwd_end + (bwd_base * F.slow) * _col(J, c_bwd, N)
        enc_dec = (enc_row * F.slow) * _col(J, c_enc, N)
        encode_end = backward_end + enc_dec / 2.0
        comm = comm_base * _col(J, c_comm, N)
        agg_end = encode_end + comm
        delays, replays = _retransmit_arrays(members, comm[:, None])
        comm_end = agg_end + delays[:, 0]
        sync_end = comm_end + enc_dec / 2.0
        start = np.maximum(sync_end, backward_end)
        iter_end = start + (opt_base * F.slow) * _col(J, c_opt, N)
        wire = np.where(comm > 0, wire_row, 0.0) + wire_row * replays[:, 0]
        if record is not None:
            record.update(
                path="sequential", fwd_end=fwd_end,
                backward_end=backward_end, encode_end=encode_end,
                comm=comm, agg_end=agg_end, comm_end=comm_end,
                wire_row=wire_row, delays=delays, replays=replays,
                sync_end=sync_end, opt_start=start, iter_end=iter_end)
        return fwd_end, sync_end, iter_end, wire, delays, replays

    return presence, kernel


def _plan_overlapped(lead: DDPSimulator, bs: int, layout: _SlotLayout,
                     ) -> Tuple[PresenceFn, Kernel]:
    """Figure 3's losing strategy: encode interleaved with backward."""
    cfg = lead.config
    fwd_base = lead.compute.forward_time(bs)
    bwd_base = lead.compute.backward_time(bs)
    hook_over = lead._hook_overhead()
    opt_base = lead.compute.optimizer_time()
    pen = cfg.contention_penalty
    waves = 4

    # Draw order: forward, backward, encode/decode, the shared wave
    # collective (drawn even at p == 1 on this path), optimizer.
    c_fwd = layout.slot(cfg.compute_jitter)
    c_bwd = layout.slot(cfg.compute_jitter)
    c_enc = layout.slot(cfg.compute_jitter)
    c_comm = layout.slot(cfg.comm_jitter)
    c_opt = layout.slot(cfg.compute_jitter)

    def presence(F: _FaultRows) -> np.ndarray:
        return np.ones((F.p.size, len(layout.sigmas)), dtype=bool)

    def kernel(J: np.ndarray, F: _FaultRows, members: Sequence[_Member],
               record: Optional[Dict[str, Any]] = None):
        N = F.p.size
        enc_row = _per_p(
            F, lambda p: lead._scheme_cost(p).encode_decode_s + hook_over)
        wire_row = _per_p(F, lambda p: lead._scheme_cost(p).wire_bytes)
        comm_base = np.zeros(N)
        for (p, bw), rows in _combos(F):
            if p > 1:
                comm_base[rows] = lead._collective_time(
                    lead._scheme_cost(p), p, bw)
        fwd_end = F.stall + (fwd_base * F.slow) * _col(J, c_fwd, N)
        t_bwd = (bwd_base * F.slow) * _col(J, c_bwd, N)
        enc_dec = (enc_row * F.slow) * _col(J, c_enc, N)
        stretched = (t_bwd + enc_dec / 2.0) * pen
        compute_end = fwd_end + stretched
        comm_total = comm_base * _col(J, c_comm, N)
        per_wave = comm_total / waves
        wave_durs = np.broadcast_to(per_wave[:, None], (N, waves))
        delays, replays = _retransmit_arrays(members, wave_durs)
        if record is not None:
            wave_start = np.empty((N, waves))
            wave_end = np.empty((N, waves))
        end = fwd_end
        for w in range(waves):
            ready = fwd_end + stretched * (w + 1) / waves
            begun = np.maximum(ready, end)
            done = begun + per_wave
            if record is not None:
                wave_start[:, w] = begun
                wave_end[:, w] = done
            end = done + delays[:, w]
        # Single-worker iterations never enter the wave loop on the
        # event path: their sync end is the stretched compute end.
        pre = np.where(F.p > 1, end, compute_end)
        decode_start = np.maximum(pre, compute_end)
        sync_end = decode_start + enc_dec / 2.0
        start = np.maximum(sync_end, compute_end)
        iter_end = start + (opt_base * F.slow) * _col(J, c_opt, N)
        wire = np.where(F.p > 1, wire_row, 0.0)
        wire = wire + (wire_row[:, None] / waves * replays).sum(axis=1)
        if record is not None:
            record.update(
                path="overlapped", fwd_end=fwd_end,
                backward_end=compute_end, waves=waves,
                wave_start=wave_start, wave_end=wave_end,
                wire_row=wire_row, delays=delays, replays=replays,
                decode_start=decode_start, sync_end=sync_end,
                opt_start=start, iter_end=iter_end)
        return fwd_end, sync_end, iter_end, wire, delays, replays

    return presence, kernel


def _evaluate(sims: Sequence[DDPSimulator], bs: int, iterations: int,
              seeds: Sequence[Union[int, np.random.Generator]],
              record: Optional[Dict[str, Any]] = None, start: int = 0,
              ) -> Tuple[List[_Member], Tuple[np.ndarray, ...]]:
    """Plan, draw and run the kernel for stacked members.

    Picks the execution path's builder from the lead simulator, draws
    each member's jitter from its own seed, and returns the members and
    the kernel's per-row outputs.  A seed may be a live
    ``np.random.Generator``: ``default_rng`` returns it unaltered, so
    the kernel draws from (and advances) the caller's stream.  Rows
    cover absolute iterations ``[start, start + iterations)``, which
    select the active faults and seed the retransmit draws.  A
    ``record`` also receives the stacked fault rows (``"rows"``) and
    the first member's resolved schedule (``"resolved"``), which
    :func:`~repro.simulator.reconstruct.trace_from_record` needs.
    """
    lead = sims[0]
    # Memory is structural (model, batch size, config) — one check
    # covers every member, raising the same deterministic OOM each
    # member's own event loop would.
    if lead.config.check_memory:
        lead.check_memory(bs)
    layout = _SlotLayout()
    if lead._is_baseline or lead.scheme.ddp_overlap:
        planner = _plan_baseline
    elif lead.config.overlap_compression:
        planner = _plan_overlapped
    else:
        planner = _plan_sequential
    presence_fn, kernel = planner(lead, bs, layout)
    F, members = _stack_member_faults(sims, iterations, start)
    pres = presence_fn(F)
    J = np.ones((F.p.size, len(layout.sigmas)))
    for (_, sl, _), seed in zip(members, seeds):
        J[sl] = layout.draw(np.random.default_rng(seed), pres[sl])
    if record is not None:
        record.update(rows=F, resolved=members[0][2])
    return members, kernel(J, F, members, record=record)


def _same_fabric(a: Fabric, b: Fabric) -> bool:
    """Whether two fabrics price every transfer alike."""
    return a is b or (
        a.alpha_s == b.alpha_s
        and a.bandwidth_jitter == b.bandwidth_jitter
        and a.incast_per_sender == b.incast_per_sender
        and (a._pair_bw is b._pair_bw
             or np.array_equal(a._pair_bw, b._pair_bw)))


def _differing_input(sim: DDPSimulator, lead: DDPSimulator) -> Optional[str]:
    """The first structural input the kernel prices once from ``lead``
    that ``sim`` does not share, by content; ``None`` when all match.

    The cluster carries the GPU and the NIC; a scheme is its class and
    parameters, since labels round (``topk(0%)``).
    """
    pairs = (("model", sim.model, lead.model),
             ("cluster", sim.cluster, lead.cluster),
             ("scheme", (type(sim.scheme), vars(sim.scheme)),
              (type(lead.scheme), vars(lead.scheme))),
             ("config", sim.config, lead.config),
             ("kernel profile", sim.profile, lead.profile))
    for name, a, b in pairs:
        if a is not b and a != b:
            return name
    if not _same_fabric(sim.fabric, lead.fabric):
        return "fabric"
    return None


def run_batch_many(sims: Sequence[DDPSimulator],
                   batch_size: Optional[int] = None,
                   iterations: int = 110, warmup: int = 10,
                   seeds: Sequence[int] = (0,),
                   record: Optional[Dict[str, Any]] = None,
                   ) -> List[TimingResult]:
    """Evaluate one or more runs — faulted or not — in one kernel call.

    Every simulator must share, by content, the structural state the
    kernel prices once from the first member (model, cluster, scheme,
    fabric, config, kernel profile); members may differ in fault
    schedule and seed.  This is the cross-config batch dimension:
    an engine job family (for example the reliability exhibit's
    clean/NIC-straggler/compute-straggler triplets) evaluates as one
    stacked array computation instead of one kernel call per job.

    Each member's :class:`TimingResult` is bit-identical to stepping
    its own iterations over the protocol with one generator seeded by
    its seed; members' RNG streams are fully independent
    (per-member jitter seed, per-member schedule seed), so stacking
    changes nothing but wall-clock time.

    A ``record`` dict receives the kernel's span-boundary arrays (see
    :data:`Kernel`), from which the traced :meth:`DDPSimulator.run`
    rebuilds its first iteration's trace without a second evaluation.

    Raises:
        ConfigurationError: invalid protocol, mismatched members, or a
            seed count that does not match the member count.
        OutOfMemoryError: the same deterministic OOM the event loop
            raises (memory state is structural, so it is shared by
            every member).
    """
    if not sims:
        raise ConfigurationError("run_batch_many needs >= 1 simulator")
    if len(seeds) != len(sims):
        raise ConfigurationError(
            f"got {len(sims)} simulators but {len(seeds)} seeds")
    if iterations <= warmup:
        raise ConfigurationError(
            f"iterations ({iterations}) must exceed warmup ({warmup})")
    if iterations > MAX_ITERATIONS:
        raise ConfigurationError(
            f"iterations must be <= {MAX_ITERATIONS}, got {iterations}")
    lead = sims[0]
    for sim in sims[1:]:
        differs = _differing_input(sim, lead)
        if differs is not None:
            raise ConfigurationError(
                f"run_batch_many members must share model, cluster, "
                f"scheme, fabric, config and kernel profile (only faults "
                f"and seeds may differ); a member's {differs} differs")
    bs = batch_size if batch_size is not None else lead.model.default_batch_size
    members, (fwd_end, sync_end, iter_end, wire, delays, replays) = \
        _evaluate(sims, bs, iterations, seeds, record=record)
    sync = sync_end - fwd_end

    registry = get_registry()
    results: List[TimingResult] = []
    for sim, sl, resolved in members:
        member_sync = sync[sl]
        member_iter = iter_end[sl]
        injector = sim._injector
        if injector is not None:
            # Rebuild the event path's per-run counters: total replays,
            # and the delay accumulated in its (iteration, transfer)
            # visit order (cumsum is strictly sequential, and the
            # event path's skipped zero-delay calls add exactly 0.0).
            injector.reset_run_counters()
            member_delays = delays[sl].ravel()
            member_replays = replays[sl].ravel()
            total_replays = int(member_replays.sum())
            if total_replays:
                injector.retransmits_injected = total_replays
                injector.retransmit_delay_s = float(
                    np.cumsum(member_delays)[-1])
            if registry.enabled:
                if total_replays:
                    # Integer counts: one sum adds what per-transfer
                    # increments would, exactly.
                    registry.counter("sim_fault_retransmits_total").inc(
                        total_replays)
                    registry.histogram(
                        "sim_fault_retransmit_delay_s").observe_many(
                        member_delays[member_replays > 0])
                injector.record_iterations(resolved.states)
        if registry.enabled:
            label = sim.scheme.label
            registry.counter("sim_iterations_total",
                             scheme=label).inc(iterations)
            registry.histogram("sim_sync_time_s",
                               scheme=label).observe_many(member_sync)
            wire_total = float(wire[sl].sum())
            if wire_total > 0:
                registry.counter("sim_wire_bytes_total",
                                 scheme=label).inc(wire_total)
        results.append(TimingResult(
            model=sim.model.name,
            scheme=sim.scheme.label,
            world_size=sim.cluster.world_size,
            batch_size=bs,
            sync_times=tuple(member_sync[warmup:].tolist()),
            iteration_times=tuple(member_iter[warmup:].tolist()),
        ))
    return results


def run_batch(sim: DDPSimulator, batch_size: Optional[int] = None,
              iterations: int = 110, warmup: int = 10,
              seed: int = 0,
              record: Optional[Dict[str, Any]] = None) -> TimingResult:
    """One simulator's run: :func:`run_batch_many` with a single member."""
    return run_batch_many([sim], batch_size, iterations=iterations,
                          warmup=warmup, seeds=(seed,), record=record)[0]
