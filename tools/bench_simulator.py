#!/usr/bin/env python
"""Performance baseline: measure, record, and gate.

Measures same-host performance ratios of the vectorized kernels, the
serving path, the cache tiers and the auto-advisor, and writes
``BENCH_simulator.json`` at the repository root — the perf trajectory
future changes regress against.  (End-to-end wall times per workload
live in ``BENCHMARK.json`` / ``bench/run.py``, which also covers the
simulator-bound paper exhibits.)

Two entry modes:

``--output PATH`` (default)
    Measure and (re)write the baseline file.  ``make bench`` runs this
    before the full pytest benchmark suite.

``--check``
    Measure again and compare against the checked-in baseline, failing
    (exit 1) when a ratio decayed by more than ``--tolerance`` (default
    2x) or crossed its hard floor/ceiling.  Every gate compares a
    same-host **ratio**, not absolute seconds, so a slower CI machine
    cannot fail it.  ``make bench-smoke`` and the CI ``bench-smoke`` job
    run this.

The **what-if section** times dense (512-point) closed-form sweeps on
the fig11/fig12 workloads, evaluated once through the vectorized grid
kernel (:mod:`repro.core.grid`) and once as a per-point loop of the
scalar reference model in ``tests/oracle.py``, whose schemes are priced
by ``scheme_cost_oracle`` (the per-call layer walk), so the reference
shares no cost code with the kernel it is timed against.  The recorded
``speedup`` (scalar wall / grid wall) is the grid kernel's advantage;
``--check`` gates on the same machine-independent ratio plus a hard 5x
floor.

A **traced section** measures what run tracing costs: the full
``repro experiment fig4`` sweep (serial, no cache) with ``--trace-run``
— engine/job spans, per-run batch-kernel span reconstruction, Perfetto
export — against the identical untraced invocation.  ``--check`` fails
when the traced/plain wall ratio exceeds a hard 1.5x ceiling — tracing
must stay a light overlay on the kernel sweep.

A **serving section** measures the persistent scheduler the way a
deployment sees it: a 200-request simulate burst through an in-process
:class:`repro.serving.ServingScheduler` (admission, batching window,
engine coalescing, result fan-out — everything but the HTTP socket),
once against a cold on-disk cache and once warm.  Recorded per run:
requests/s, p50/p99 latency, and mean batch occupancy.  ``--check``
gates on the warm/cold throughput ratio — a warm replay must stay at
least ``SERVING_MIN_WARM_SPEEDUP``x faster, or the cache stopped
carrying the serving path.

A **cache section** measures the tiered simulation cache directly:
(1) batched lookups over a populated cache served from the in-process
hot tier vs a reference read of per-key disk files (the layout before
the pack tier) — the recorded ``hot_speedup`` must stay at least
``CACHE_MIN_HOT_SPEEDUP``x; the hot-vs-pack ratio is printed for
information only; and
(2) a simulate burst through a fresh scheduler over an already
populated cache, once plainly warm (pack-tier hits) and once
warm-started with ``preload`` (the ``repro serve --cache-preload``
path) — the preloaded burst's p50 latency must stay within
``CACHE_PRELOAD_MAX_P50_RATIO``x of the warm burst's.  Both gates are
same-host ratios, so they hold on any machine.

An **advisor section** measures the auto-advisor's sharded Pareto
sweep (``repro advise``): the full default grid — every registered
scheme × hyperparameters × world sizes × 8192 bandwidth points, over
1.5 million configurations — priced serially through bounded engine
shards and reduced to its frontier.  Recorded: configs/s and the
frontier size.  ``--check`` gates on a hard
``ADVISOR_MIN_CONFIGS_PER_S`` throughput floor; the sweep is pure
vectorized pricing, so a machine slow enough to trip a 100k configs/s
floor indicates a structural regression (per-point Python, shard
explosion), not a slow host.

Every baseline rewrite appends a timestamped entry to the ``history``
list (every section's rows and the host that measured them), so the
file accumulates the perf trajectory instead of forgetting it.

Measurements run serial and telemetry-off.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from typing import Dict, List, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, REPO_ROOT)  # tests.oracle: the scalar what-if reference

import numpy as np  # noqa: E402

from dataclasses import replace  # noqa: E402

from repro.compression.kernel_cost import v100_kernel_profile  # noqa: E402
from repro.compression.schemes import PowerSGDScheme  # noqa: E402
from repro.core import PerfModelInputs  # noqa: E402
from repro.core.grid import (  # noqa: E402
    compressed_time_grid,
    syncsgd_time_grid,
)
from repro.engine import ExperimentEngine, SimulationCache  # noqa: E402
from repro.engine.cache import (  # noqa: E402
    outcome_to_payload,
    payload_to_outcome,
)
from repro.serving import ServingScheduler, parse_request  # noqa: E402
from repro.cli import main as repro_main  # noqa: E402
from repro.hardware.gpus import V100  # noqa: E402
from repro.models import get_model  # noqa: E402
from repro.units import gbps_to_bytes_per_s  # noqa: E402
from tests.oracle import (  # noqa: E402
    compressed_time,
    scheme_cost_oracle,
    syncsgd_time,
)

DEFAULT_BASELINE = os.path.join(REPO_ROOT, "BENCH_simulator.json")

#: Dense point count for the what-if grid-vs-scalar section.  The
#: exhibits' own sweeps (a dozen points) finish in microseconds either
#: way; a dense sweep is what makes the comparison measurable.
WHATIF_POINTS = 512

#: Hard floor on the what-if ``speedup`` (scalar wall / grid wall); a
#: machine-independent ratio, so the gate holds on any host.
WHATIF_MIN_SPEEDUP = 5.0

#: Hard ceiling on the traced section's ``overhead`` (traced wall /
#: plain wall).  Engine/job span bookkeeping, per-run batch-kernel span
#: reconstruction and Perfetto export together must stay a cheap
#: overlay on top of the kernel sweep.
TRACED_MAX_OVERHEAD = 1.5

#: Size of the serving section's request burst.
SERVING_REQUESTS = 200

#: Hard floor on the serving section's warm/cold throughput ratio: a
#: replayed burst is answered entirely from the simulation cache, so it
#: must stay at least this much faster than the cold burst that
#: populated it.  Machine-independent (both bursts run on the same
#: host back to back).
SERVING_MIN_WARM_SPEEDUP = 2.0

#: Entries populated for the cache section's lookup comparison.
CACHE_LOOKUP_ENTRIES = 400

#: Hard floor on the cache section's ``hot_speedup`` (per-key disk
#: read wall, :func:`_per_key_lookup`, / hot-tier lookup wall over the
#: same keys).  A dict probe must beat an ``open`` + ``json.load`` by
#: at least this much or the hot tier stopped paying for itself.
CACHE_MIN_HOT_SPEEDUP = 5.0

#: Hard ceiling on the cache section's ``preload_p50_ratio``
#: (preloaded-burst p50 latency / warm-burst p50 latency).  A server
#: warm-started with ``--cache-preload`` must serve its first burst
#: about as fast as one that already absorbed a burst.
CACHE_PRELOAD_MAX_P50_RATIO = 1.5

#: Size of the cache section's serving bursts (smaller than the
#: serving section's: these bursts are all cache hits).
CACHE_BURST_REQUESTS = 120

#: Hard floor on the advisor section's ``configs_per_s``.  The sweep
#: prices ~1.5M configurations through vectorized grid shards in well
#: under a second on any modern host; dipping below 100k configs/s
#: means a structural regression (a per-point Python loop, shard
#: explosion, cache thrash), not a slow machine.
ADVISOR_MIN_CONFIGS_PER_S = 100_000

#: The exhibit the traced section sweeps: the largest simulator-bound
#: exhibit, so the fixed trace-export epilogue is
#: amortized the way a real traced run amortizes it.
TRACED_EXHIBIT = "fig4"

def _best_wall(fn, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` — the repeatable floor,
    which keeps the gated ratios stable on noisy CI machines."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def measure_whatif(points: int = WHATIF_POINTS) -> Dict[str, dict]:
    """Time dense what-if sweeps through the grid kernel vs a scalar
    per-point loop on the fig11/fig12 ResNet-50 workload."""
    model = get_model("resnet50")
    scheme = PowerSGDScheme(rank=4)
    profile = v100_kernel_profile()
    inputs = PerfModelInputs(
        world_size=64,
        bandwidth_bytes_per_s=gbps_to_bytes_per_s(10.0),
        batch_size=64)
    bandwidths = np.linspace(gbps_to_bytes_per_s(1.0),
                             gbps_to_bytes_per_s(30.0), points)
    factors = np.linspace(1.0, 4.0, points)

    def grid_bandwidth() -> None:
        syncsgd_time_grid(model, inputs, bandwidth_bytes_per_s=bandwidths)
        compressed_time_grid(model, scheme, inputs,
                             bandwidth_bytes_per_s=bandwidths)

    def scalar_bandwidth() -> None:
        for bw in bandwidths:
            point = replace(inputs, bandwidth_bytes_per_s=float(bw))
            syncsgd_time(model, point)
            compressed_time(model, scheme, point,
                            scheme_cost=scheme_cost_oracle)

    def grid_compute() -> None:
        syncsgd_time_grid(model, inputs, compute_factor=factors)
        compressed_time_grid(model, scheme, inputs, compute_factor=factors)

    def scalar_compute() -> None:
        for factor in factors:
            gpu = V100.scaled(float(factor))
            syncsgd_time(model, inputs, gpu)
            compressed_time(model, scheme, inputs, gpu,
                            profile.scaled(float(factor)),
                            scheme_cost=scheme_cost_oracle)

    sweeps = {
        "fig11_bandwidth": (grid_bandwidth, scalar_bandwidth),
        "fig12_compute": (grid_compute, scalar_compute),
    }
    rows: Dict[str, dict] = {}
    for name, (grid_fn, scalar_fn) in sweeps.items():
        grid_wall = _best_wall(grid_fn)
        scalar_wall = _best_wall(scalar_fn)
        speedup = (scalar_wall / grid_wall if grid_wall > 0
                   else float("inf"))
        rows[name] = {
            "points": points,
            "grid": {"wall_s": round(grid_wall, 5)},
            "scalar": {"wall_s": round(scalar_wall, 5)},
            "speedup": round(speedup, 2),
        }
        print(f"  [{name}] scalar {scalar_wall:.4f} s, "
              f"grid {grid_wall:.4f} s ({speedup:.1f}x over "
              f"{points} points)")
    return rows


def measure_traced() -> Dict[str, dict]:
    """Time a fully traced CLI sweep against the identical untraced one.

    Runs ``repro experiment fig4`` (serial, no cache)
    through the real CLI entry point twice: once bare, once with
    ``--trace-run`` — which turns on engine/job span bookkeeping,
    worker context propagation, per-run batch-kernel span
    reconstruction, and the Perfetto export.  The ratio is everything a
    user pays for a traced run; the gate is a hard ceiling on it, so
    tracing can never quietly grow into a cost worth avoiding.  Results are unaffected either way (tracing is observability
    only), so the comparison is pure overhead.
    """
    sink = io.StringIO()
    tmp = tempfile.mkdtemp(prefix="bench-traced-")
    trace_path = os.path.join(tmp, "run.json")

    def run(extra: List[str]) -> None:
        with contextlib.redirect_stdout(sink):
            code = repro_main(["experiment", TRACED_EXHIBIT] + extra)
        if code != 0:
            raise RuntimeError(
                f"traced-section sweep exited with {code}")

    try:
        plain_wall = _best_wall(lambda: run([]))
        traced_wall = _best_wall(lambda: run(["--trace-run", trace_path]))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    overhead = (traced_wall / plain_wall if plain_wall > 0
                else float("inf"))
    row = {
        "exhibit": TRACED_EXHIBIT,
        "plain": {"wall_s": round(plain_wall, 5)},
        "traced": {"wall_s": round(traced_wall, 5)},
        "overhead": round(overhead, 3),
    }
    print(f"  [{TRACED_EXHIBIT}] plain {plain_wall:.4f} s, "
          f"traced {traced_wall:.4f} s ({overhead:.2f}x overhead)")
    return {"experiment_trace_run": row}


def measure_serving(requests: int = SERVING_REQUESTS) -> Dict[str, dict]:
    """Drive a simulate burst through the serving scheduler, twice.

    The burst cycles four scheme variants over ``requests`` seeds, so
    the scheduler's batch window has plenty of compatible work to
    coalesce (four ``family_key`` groups).  The first burst runs
    against an empty on-disk cache (every job simulates); the second
    replays the identical burst warm (every job is a cache hit).  The
    in-process scheduler is used directly — admission, batching and
    fan-out without socket noise — so the warm/cold ratio isolates
    what the cache buys the serving path.
    """
    bodies = []
    schemes = [None, "powersgd:rank=4", "powersgd:rank=8", "signsgd"]
    for i in range(requests):
        # 300 iterations keeps each cold simulation meaningfully more
        # expensive than the fixed per-request scheduler overhead, so
        # the warm/cold ratio measures the cache, not queue plumbing.
        body = {"model": "resnet50", "gpus": 8, "iterations": 300,
                "seed": i // len(schemes)}
        spec = schemes[i % len(schemes)]
        if spec is not None:
            body["scheme"] = spec
        bodies.append(body)
    cache_dir = tempfile.mkdtemp(prefix="bench-serving-")

    def burst() -> dict:
        engine = ExperimentEngine(jobs=1, cache=SimulationCache(cache_dir))
        scheduler = ServingScheduler(engine=engine,
                                     queue_depth=requests + 8,
                                     batch_window_s=0.005,
                                     max_batch_requests=64,
                                     default_timeout_s=120.0)
        try:
            started = time.perf_counter()
            ids = [scheduler.submit(parse_request("simulate", body)).id
                   for body in bodies]
            states = [scheduler.wait(i, timeout_s=120.0) for i in ids]
            wall = time.perf_counter() - started
        finally:
            scheduler.close()
        bad = [s for s in states if s.status != "done"]
        if bad:
            raise RuntimeError(
                f"{len(bad)} serving request(s) did not finish "
                f"(first: {bad[0].status}: {bad[0].error})")
        latencies = sorted(s.finished_unix - s.submitted_unix
                           for s in states)

        def pct(p: float) -> float:
            return latencies[int(round(p * (len(latencies) - 1)))]

        batches = scheduler.batches
        return {
            "requests": len(states),
            "wall_s": round(wall, 4),
            "requests_per_s": round(len(states) / wall, 1),
            "p50_latency_s": round(pct(0.50), 4),
            "p99_latency_s": round(pct(0.99), 4),
            "batches": batches,
            "mean_batch_occupancy": (round(len(states) / batches, 2)
                                     if batches else 0.0),
        }

    try:
        cold = burst()
        warm = burst()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    speedup = (cold["wall_s"] / warm["wall_s"]
               if warm["wall_s"] > 0 else float("inf"))
    row = {
        "burst": requests,
        "cold": cold,
        "warm": warm,
        "warm_speedup": round(speedup, 2),
    }
    print(f"  [simulate_burst] cold {cold['wall_s']:.3f} s "
          f"({cold['requests_per_s']:.0f} req/s, "
          f"occupancy {cold['mean_batch_occupancy']:.1f}), "
          f"warm {warm['wall_s']:.3f} s "
          f"({warm['requests_per_s']:.0f} req/s) — "
          f"{row['warm_speedup']:.1f}x warm speedup")
    return {"simulate_burst": row}


def _per_key_lookup(directory: str, keys: List[str]) -> Dict[str, object]:
    """The cache's read of one-file-per-key entries from before the
    pack tier, kept as the lookup gate's reference: per key an
    ``open``, a ``json.load``, a kind check and a rehydration."""
    outcomes: Dict[str, object] = {}
    for key in keys:
        try:
            with open(os.path.join(directory, f"{key}.json"), "r",
                      encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            continue
        if isinstance(payload, dict) and payload.get("kind") in (
                "result", "oom", "predicted", "advisor-frontier"):
            outcomes[key] = payload_to_outcome(payload)
    return outcomes


def measure_cache(requests: int = CACHE_BURST_REQUESTS) -> Dict[str, dict]:
    """Measure what the cache tiers buy: lookups and warm starts.

    **lookup** — ``CACHE_LOOKUP_ENTRIES`` entries are written in the
    one-file-per-key layout and read back per key
    (:func:`_per_key_lookup`: ``open`` + ``json.load``), the disk
    reference.  The cache never reads that layout, so the same outcomes
    are then stored to a cache's pack tier with ``store_many``; one
    batched ``lookup_many`` resolves every key through a preloaded hot
    tier (one LRU), and, for information, through the pack tier alone.
    Identical outcomes every way, so the wall ratios are pure tier
    advantage.

    **preload_burst** — a simulate burst populates a cache directory,
    then two fresh schedulers replay it: one plainly warm (first
    lookups fault the pack tier in), one warm-started via ``preload``
    (the ``repro serve --cache-preload`` path, hot tier filled before
    the first request).  Gate: the preloaded p50 stays within
    ``CACHE_PRELOAD_MAX_P50_RATIO``x of the warm p50.
    """
    from repro.core.perf_model import PredictedTime

    lookup_dir = tempfile.mkdtemp(prefix="bench-cache-lookup-")
    try:
        keys = [f"{i:064x}" for i in range(CACHE_LOOKUP_ENTRIES)]
        outcomes = [PredictedTime(total=1.0 + i, compute=0.5,
                                  encode_decode=0.1, comm_exposed=0.4)
                    for i in range(CACHE_LOOKUP_ENTRIES)]
        for key, outcome in zip(keys, outcomes):
            with open(os.path.join(lookup_dir, f"{key}.json"), "w",
                      encoding="utf-8") as handle:
                json.dump(outcome_to_payload(outcome), handle)

        disk_wall = _best_wall(lambda: _per_key_lookup(lookup_dir, keys))
        if len(_per_key_lookup(lookup_dir, keys)) != len(keys):
            raise RuntimeError("disk lookup lost entries")

        pack_cache = SimulationCache(lookup_dir)
        pack_cache.store_many(list(zip(keys, outcomes)))
        pack_wall = _best_wall(lambda: pack_cache.lookup_many(keys))
        if len(pack_cache.lookup_many(keys)) != len(keys):
            raise RuntimeError("pack lookup lost entries")
        pack_cache.close()

        hot_cache = SimulationCache(lookup_dir, memory_mb=64)
        hot_cache.preload(memory=True)
        hot_wall = _best_wall(lambda: hot_cache.lookup_many(keys))
        if hot_cache.stats.memory_hits == 0:
            raise RuntimeError("hot tier never served a lookup")
        hot_cache.close()
    finally:
        shutil.rmtree(lookup_dir, ignore_errors=True)
    hot_speedup = disk_wall / hot_wall if hot_wall > 0 else float("inf")
    pack_speedup = pack_wall / hot_wall if hot_wall > 0 else float("inf")
    lookup_row = {
        "entries": CACHE_LOOKUP_ENTRIES,
        "disk": {"wall_s": round(disk_wall, 6),
                 "per_key_us": round(1e6 * disk_wall
                                     / CACHE_LOOKUP_ENTRIES, 2)},
        "hot": {"wall_s": round(hot_wall, 6),
                "per_key_us": round(1e6 * hot_wall
                                    / CACHE_LOOKUP_ENTRIES, 2)},
        "hot_speedup": round(hot_speedup, 2),
    }
    print(f"  [lookup] disk {disk_wall * 1e3:.2f} ms, "
          f"hot {hot_wall * 1e3:.2f} ms over {CACHE_LOOKUP_ENTRIES} "
          f"keys ({hot_speedup:.1f}x hot speedup; pack "
          f"{pack_wall * 1e3:.2f} ms, {pack_speedup:.1f}x hot/pack, "
          f"not gated)")

    bodies = []
    schemes = [None, "powersgd:rank=4", "powersgd:rank=8", "signsgd"]
    for i in range(requests):
        body = {"model": "resnet50", "gpus": 8, "iterations": 300,
                "seed": i // len(schemes)}
        spec = schemes[i % len(schemes)]
        if spec is not None:
            body["scheme"] = spec
        bodies.append(body)
    cache_dir = tempfile.mkdtemp(prefix="bench-cache-serving-")

    def burst(preload: bool) -> dict:
        cache = SimulationCache(cache_dir, memory_mb=64)
        if preload:
            cache.preload(memory=True)
        engine = ExperimentEngine(jobs=1, cache=cache)
        scheduler = ServingScheduler(engine=engine,
                                     queue_depth=requests + 8,
                                     batch_window_s=0.005,
                                     max_batch_requests=64,
                                     default_timeout_s=120.0)
        try:
            started = time.perf_counter()
            ids = [scheduler.submit(parse_request("simulate", body)).id
                   for body in bodies]
            states = [scheduler.wait(i, timeout_s=120.0) for i in ids]
            wall = time.perf_counter() - started
        finally:
            scheduler.close()
            cache.close()
        bad = [s for s in states if s.status != "done"]
        if bad:
            raise RuntimeError(
                f"{len(bad)} cache-burst request(s) did not finish "
                f"(first: {bad[0].status}: {bad[0].error})")
        latencies = sorted(s.finished_unix - s.submitted_unix
                           for s in states)
        p50 = latencies[int(round(0.50 * (len(latencies) - 1)))]
        return {
            "requests": len(states),
            "wall_s": round(wall, 4),
            "requests_per_s": round(len(states) / wall, 1),
            "p50_latency_s": round(p50, 4),
        }

    try:
        burst(preload=False)  # cold: populates the pack tier
        warm = burst(preload=False)
        preloaded = burst(preload=True)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    ratio = (preloaded["p50_latency_s"] / warm["p50_latency_s"]
             if warm["p50_latency_s"] > 0 else 1.0)
    burst_row = {
        "burst": requests,
        "warm": warm,
        "preloaded": preloaded,
        "preload_p50_ratio": round(ratio, 3),
    }
    print(f"  [preload_burst] warm p50 "
          f"{warm['p50_latency_s'] * 1e3:.1f} ms, preloaded p50 "
          f"{preloaded['p50_latency_s'] * 1e3:.1f} ms "
          f"({ratio:.2f}x ratio)")
    return {"lookup": lookup_row, "preload_burst": burst_row}


def measure_advisor() -> Dict[str, dict]:
    """Time the auto-advisor's full default Pareto sweep, serial + cold.

    The default :class:`repro.analysis.SweepSpec` grid: every
    registered scheme crossed with its hyperparameters, four world
    sizes, 8192 bandwidth points — over 1.5 million configurations in
    4096-point shards.  Reported throughput is configurations priced
    per wall second, including the per-shard Pareto reduction and the
    final merge/refinement; the frontier size is recorded so a sweep
    that silently degenerates (empty or exploded frontier) is visible
    in the baseline.
    """
    from repro.analysis import advise  # noqa: PLC0415 - keep import cost out
    from repro.hardware import cluster_for_gpus  # noqa: PLC0415

    model = get_model("resnet50")
    cluster = cluster_for_gpus(32)
    holder: Dict[str, object] = {}

    def sweep() -> None:
        holder["report"] = advise(model, cluster,
                                  engine=ExperimentEngine(jobs=1))

    wall = _best_wall(sweep)
    report = holder["report"]
    configs_per_s = (report.configs_priced / wall if wall > 0
                     else float("inf"))
    row = {
        "configs_total": report.configs_total,
        "configs_priced": report.configs_priced,
        "candidates": report.candidates_total,
        "shards": report.shards,
        "frontier_size": len(report.frontier),
        "wall_s": round(wall, 4),
        "configs_per_s": round(configs_per_s, 1),
    }
    print(f"  [pareto_sweep] {report.configs_priced:,} configs in "
          f"{wall:.3f} s ({configs_per_s:,.0f} configs/s, "
          f"{report.shards} shards, frontier {len(report.frontier)})")
    return {"pareto_sweep": row}


def build_report(whatif_rows: Dict[str, dict],
                 traced_rows: Dict[str, dict],
                 serving_rows: Dict[str, dict],
                 cache_rows: Dict[str, dict],
                 advisor_rows: Dict[str, dict],
                 previous: Optional[dict] = None) -> dict:
    """Wrap measured rows in the BENCH_simulator.json schema.

    ``previous`` is the baseline being replaced (if any): its
    ``history`` list is extended with this run, so rewriting the
    baseline accumulates the trajectory instead of erasing it.
    """
    previous = previous or {}
    host = {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    history = list(previous.get("history", []))
    history.append({
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": host,
        "whatif": whatif_rows,
        "traced": traced_rows,
        "serving": serving_rows,
        "cache": cache_rows,
        "advisor": advisor_rows,
    })
    return {
        "schema": 8,
        "generated_by": "tools/bench_simulator.py",
        "protocol": {
            "engine": "serial, telemetry off",
            "note": ("every gated figure is a same-host ratio (e.g. "
                     "whatif speedup = scalar wall / grid wall); the "
                     "--check gate compares these machine-independent "
                     "ratios"),
        },
        "host": host,
        "whatif": whatif_rows,
        "traced": traced_rows,
        "serving": serving_rows,
        "cache": cache_rows,
        "advisor": advisor_rows,
        "history": history,
    }


def check(baseline_path: str, tolerance: float) -> int:
    """Re-measure and gate against the checked-in baseline ratios."""
    if not os.path.exists(baseline_path):
        print(f"error: no baseline at {baseline_path}; "
              f"run tools/bench_simulator.py first", file=sys.stderr)
        return 1
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    failed = []

    base_whatif = baseline.get("whatif", {})
    print(f"re-measuring what-if sweeps (floor "
          f"{WHATIF_MIN_SPEEDUP:g}x grid-vs-scalar)")
    for name, row in measure_whatif().items():
        cur_ratio = (row["grid"]["wall_s"] / row["scalar"]["wall_s"]
                     if row["scalar"]["wall_s"] > 0 else 1.0)
        limits = [1.0 / WHATIF_MIN_SPEEDUP]
        base = base_whatif.get(name)
        if base is not None and base["scalar"]["wall_s"] > 0:
            limits.append(tolerance * base["grid"]["wall_s"]
                          / base["scalar"]["wall_s"])
        limit = min(limits)
        verdict = "ok" if cur_ratio <= limit else "REGRESSED"
        print(f"  [{name}] grid/scalar ratio {cur_ratio:.4f} "
              f"(limit {limit:.4f}) {verdict}")
        if cur_ratio > limit:
            failed.append(f"whatif:{name}")

    base_serving = baseline.get("serving", {})
    print(f"re-measuring serving section (floor "
          f"{SERVING_MIN_WARM_SPEEDUP:g}x warm-vs-cold burst)")
    for name, row in measure_serving().items():
        cur_ratio = (row["warm"]["wall_s"] / row["cold"]["wall_s"]
                     if row["cold"]["wall_s"] > 0 else 1.0)
        limits = [1.0 / SERVING_MIN_WARM_SPEEDUP]
        base = base_serving.get(name)
        if base is not None and base["cold"]["wall_s"] > 0:
            limits.append(tolerance * base["warm"]["wall_s"]
                          / base["cold"]["wall_s"])
        limit = min(limits)
        verdict = "ok" if cur_ratio <= limit else "REGRESSED"
        print(f"  [{name}] warm/cold ratio {cur_ratio:.4f} "
              f"(limit {limit:.4f}) {verdict}")
        if cur_ratio > limit:
            failed.append(f"serving:{name}")

    base_cache = baseline.get("cache", {})
    print(f"re-measuring cache section (floor "
          f"{CACHE_MIN_HOT_SPEEDUP:g}x hot-vs-disk lookup, ceiling "
          f"{CACHE_PRELOAD_MAX_P50_RATIO:g}x preloaded-vs-warm p50)")
    cache_rows = measure_cache()
    lookup = cache_rows["lookup"]
    cur_ratio = (lookup["hot"]["wall_s"] / lookup["disk"]["wall_s"]
                 if lookup["disk"]["wall_s"] > 0 else 1.0)
    limits = [1.0 / CACHE_MIN_HOT_SPEEDUP]
    base_lookup = base_cache.get("lookup")
    if base_lookup is not None and base_lookup["disk"]["wall_s"] > 0:
        limits.append(tolerance * base_lookup["hot"]["wall_s"]
                      / base_lookup["disk"]["wall_s"])
    limit = min(limits)
    verdict = "ok" if cur_ratio <= limit else "REGRESSED"
    print(f"  [lookup] hot/disk ratio {cur_ratio:.4f} "
          f"(limit {limit:.4f}) {verdict}")
    if cur_ratio > limit:
        failed.append("cache:lookup")
    burst_row = cache_rows["preload_burst"]
    # Absolute ceiling (like the traced section): the ratio sits near
    # 1.0, so a baseline-relative limit would be pure timer noise.
    verdict = ("ok" if burst_row["preload_p50_ratio"]
               <= CACHE_PRELOAD_MAX_P50_RATIO else "REGRESSED")
    print(f"  [preload_burst] preloaded/warm p50 ratio "
          f"{burst_row['preload_p50_ratio']:.3f} "
          f"(ceiling {CACHE_PRELOAD_MAX_P50_RATIO:g}) {verdict}")
    if burst_row["preload_p50_ratio"] > CACHE_PRELOAD_MAX_P50_RATIO:
        failed.append("cache:preload_burst")

    print(f"re-measuring advisor section (floor "
          f"{ADVISOR_MIN_CONFIGS_PER_S:,} configs/s)")
    for name, row in measure_advisor().items():
        # Absolute floor, not baseline-relative: the sweep is pure
        # vectorized pricing with ~20x headroom over the floor, so
        # only a structural regression can trip it.
        verdict = ("ok" if row["configs_per_s"]
                   >= ADVISOR_MIN_CONFIGS_PER_S else "REGRESSED")
        print(f"  [{name}] {row['configs_per_s']:,.0f} configs/s "
              f"(floor {ADVISOR_MIN_CONFIGS_PER_S:,}) {verdict}")
        if row["configs_per_s"] < ADVISOR_MIN_CONFIGS_PER_S:
            failed.append(f"advisor:{name}")

    print(f"re-measuring traced section (ceiling "
          f"{TRACED_MAX_OVERHEAD:g}x traced-vs-plain)")
    for name, row in measure_traced().items():
        # The ceiling is absolute, not baseline-relative: overhead near
        # 1.0 leaves the ratio dominated by timer noise, so comparing
        # against a recorded baseline ratio would flap.
        verdict = ("ok" if row["overhead"] <= TRACED_MAX_OVERHEAD
                   else "REGRESSED")
        print(f"  [{name}] traced/plain overhead {row['overhead']:.3f} "
              f"(ceiling {TRACED_MAX_OVERHEAD:g}) {verdict}")
        if row["overhead"] > TRACED_MAX_OVERHEAD:
            failed.append(f"traced:{name}")

    if failed:
        print(f"FAIL: perf regression on {', '.join(failed)}",
              file=sys.stderr)
        return 1
    print("bench check passed")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: write the baseline or gate against it."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=DEFAULT_BASELINE,
                        metavar="PATH",
                        help="where to write the baseline JSON "
                             "(default: BENCH_simulator.json at repo root)")
    parser.add_argument("--check", action="store_true",
                        help="compare against the checked-in baseline "
                             "instead of rewriting it")
    parser.add_argument("--tolerance", type=float, default=2.0,
                        help="allowed inflation of a baseline-relative "
                             "ratio before --check fails (default: 2.0)")
    args = parser.parse_args(argv)

    if args.tolerance <= 0:
        parser.error("--tolerance must be positive")
    if args.check:
        return check(args.output, args.tolerance)

    previous = None
    if os.path.exists(args.output):
        with open(args.output) as fh:
            previous = json.load(fh)
    print("measuring what-if grid-vs-scalar sweeps")
    whatif_rows = measure_whatif()
    print("measuring the traced section (kernel sweep +/- trace export)")
    traced_rows = measure_traced()
    print("measuring the serving section (scheduler burst, cold vs warm)")
    serving_rows = measure_serving()
    print("measuring the cache section (tier lookups, preloaded burst)")
    cache_rows = measure_cache()
    print("measuring the advisor section (full sharded Pareto sweep)")
    advisor_rows = measure_advisor()
    report = build_report(whatif_rows, traced_rows, serving_rows,
                          cache_rows, advisor_rows, previous)
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
