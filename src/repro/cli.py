"""Command-line interface: ``python -m repro <command>``.

Eight subcommands mirror the library's main workflows:

* ``experiment`` — regenerate a paper exhibit (table1..fig13, or
  ``all``); with ``--cache`` a ``manifest.json`` provenance record is
  written beside the cache (plus a ``metrics.prom`` Prometheus
  snapshot); ``--trace-run out.json`` records a span trace of the whole
  run — CLI, exhibits, engine queue/exec/cache per worker process, and
  simulator streams — as one Perfetto-loadable file;
* ``recommend`` — §7 advisor: which scheme (if any) for a model on a
  cluster;
* ``advise`` — the auto-advisor: sweep the full scheme ×
  hyperparameter × world-size × bandwidth grid (over a million configs
  by default) in bounded engine shards, reduce to the Pareto frontier
  of iteration time vs compression error, and refine survivors with
  exact break-even bandwidths plus a ranked recommendation;
* ``whatif`` — bandwidth / compute sweeps for one scheme;
* ``simulate`` — one simulated configuration with a timeline trace;
  ``--trace out.json`` exports a Perfetto-loadable multi-worker trace
  (reconstructed from the batch kernel, identical to the event
  loop's), ``--faults spec.json`` injects a
  :class:`repro.faults.FaultSchedule`;
* ``metrics`` — re-render a written manifest's metrics snapshot as
  text or Prometheus exposition format;
* ``serve`` — run the persistent HTTP service (``POST /v1/whatif``,
  ``POST /v1/simulate``, ``GET /v1/jobs/<id>``, ``GET /metrics``,
  ``GET /healthz``; see docs/serving.md) on a continuous-batching
  scheduler that shares one engine and cache across requests;
  ``--cache-mem-mb`` adds an in-process hot tier in front of the disk
  cache and ``--cache-preload`` warm-starts from the pack index;
* ``cache`` — offline maintenance for a cache directory: ``stats``
  (tier sizes), ``verify`` (detect corruption; exit 1 if any).

Everything prints plain text; use ``--markdown`` on ``experiment`` for
paste-ready tables.  Global flags: ``--version``, ``--log-level``/
``--log-json`` (structured stderr logging), ``--no-telemetry`` (skip
the metrics registry the CLI otherwise enables).

Each command imports its modules in its handler, so ``--help`` and
``--version`` load no numpy and a command loads only what it runs.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import os
import time
from collections import ChainMap
from typing import TYPE_CHECKING, List, Optional

from . import __version__
from .errors import ConfigurationError, ReproError
from .experiments import EXPERIMENTS, EXTRA_EXPERIMENTS
from .models import available_models
from .telemetry import get_logger
from .telemetry import logs as telemetry_logs

if TYPE_CHECKING:
    from .engine import SimulationCache

#: Prometheus snapshot written beside the manifest.
PROM_FILENAME = "metrics.prom"

#: How ``--trace-run`` obtains simulator spans: reconstructed from the
#: batch kernel's intermediates (the manifest's ``trace.mode`` and the
#: ``trace_spans_total{mode=...}`` label).
TRACE_MODE = "reconstructed-batch"


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="resnet50",
                        choices=available_models())
    parser.add_argument("--batch", type=int, default=None,
                        help="per-GPU batch size (default: model's)")
    parser.add_argument("--gpus", type=int, default=32,
                        help="total GPUs (multiple of 4)")


def _parse_scheme(spec: str):
    """Parse 'name' or 'name:key=value,key=value' into a Scheme."""
    from .compression import scheme_from_spec

    return scheme_from_spec(spec)


def _accepts_engine(runner) -> bool:
    """Whether an experiment runner takes the sweep engine.

    Trace- and analytic-model-based exhibits (fig2, fig8, ...) have no
    simulation grid to fan out; they simply don't declare the parameter.
    """
    try:
        return "engine" in inspect.signature(runner).parameters
    except (TypeError, ValueError):
        return False


def _with_cache(command):
    """Run ``command(args, cache)`` with the ``--cache`` directory open
    (``None`` without ``--cache``), and close it however the command
    ends."""
    @functools.wraps(command)
    def run(args: argparse.Namespace) -> int:
        from .engine import SimulationCache

        if args.cache:
            cache = SimulationCache(args.cache, memory_mb=args.cache_mem_mb)
        else:
            # Checked unused too, so a bad value is never let through.
            SimulationCache.memory_budget(args.cache_mem_mb)
            cache = None
        try:
            return command(args, cache)
        finally:
            if cache is not None:
                cache.close()
    return run


@_with_cache
def cmd_experiment(args: argparse.Namespace,
                   cache: Optional[SimulationCache]) -> int:
    from .engine import ExperimentEngine
    from .reporting import render_metrics, to_markdown
    from .simulator import write_trace_spans
    from .telemetry import (
        MANIFEST_FILENAME,
        build_manifest,
        disable_tracing,
        enable_tracing,
        get_tracer,
        render_prometheus,
        write_manifest,
    )
    from .telemetry import metrics as telemetry_metrics

    engine = ExperimentEngine(jobs=args.jobs, cache=cache)
    # "all" covers only the paper's own exhibits; extras (reliability)
    # run by explicit id so the canonical output stays stable.
    ids = list(EXPERIMENTS) if args.id == "all" else [args.id]
    runners = ChainMap(EXPERIMENTS, EXTRA_EXPERIMENTS)
    run_started = time.perf_counter()
    if args.trace_run:
        enable_tracing()
    try:
        exhibits = {}
        tracer = get_tracer()
        with tracer.span(f"experiment {args.id}", track="cli",
                         exhibits=str(len(ids))):
            for exp_id in ids:
                runner = runners[exp_id]
                before = engine.cache_stats.snapshot()
                started = time.perf_counter()
                with tracer.span(f"exhibit {exp_id}", track="cli",
                                 exhibit=exp_id):
                    if _accepts_engine(runner):
                        result = runner(engine=engine)
                    else:
                        result = runner()
                elapsed = time.perf_counter() - started
                if args.markdown:
                    print(to_markdown(result, "{:.2f}"))
                else:
                    print(result.render_table("{:.2f}"))
                status = f"[{exp_id}] {elapsed:.1f} s"
                if cache is not None:
                    status += ", cache: " + engine.cache_stats.since(
                        before).describe()
                print(status)
                print()
                exhibits[exp_id] = {
                    "rows": len(result.rows),
                    "digest": result.content_digest(),
                    "wall_s": round(elapsed, 3),
                }
        trace_info = None
        if args.trace_run:
            spans = tracer.drain()
            n_bytes = write_trace_spans(args.trace_run, spans)
            registry = telemetry_metrics.get_registry()
            registry.counter("trace_spans_total",
                             mode=TRACE_MODE).inc(len(spans))
            registry.counter("trace_export_bytes_total").inc(n_bytes)
            trace_info = {"mode": TRACE_MODE,
                          "spans_total": len(spans),
                          "export_bytes_total": n_bytes,
                          "path": args.trace_run}
            print(f"wrote run trace ({len(spans)} spans) "
                  f"to {args.trace_run}")
    finally:
        if args.trace_run:
            disable_tracing()
    manifest_path = args.manifest
    if manifest_path is None and args.cache:
        manifest_path = os.path.join(args.cache, MANIFEST_FILENAME)
    if manifest_path:
        snapshot = telemetry_metrics.get_registry().snapshot()
        manifest = build_manifest(
            command=f"experiment {args.id}",
            config={"command": "experiment", "id": args.id,
                    "jobs": args.jobs, "cache": args.cache,
                    "cache_mem_mb": args.cache_mem_mb,
                    "markdown": bool(args.markdown)},
            wall_time_s=time.perf_counter() - run_started,
            metrics=snapshot,
            results={"exhibits": exhibits,
                     "engine": engine.stats().to_dict(),
                     **({"cache": cache.info()}
                        if cache is not None else {})},
            trace=trace_info,
        )
        write_manifest(manifest_path, manifest)
        prom_path = os.path.join(
            os.path.dirname(manifest_path) or ".", PROM_FILENAME)
        with open(prom_path, "w", encoding="utf-8") as handle:
            handle.write(render_prometheus(snapshot))
        get_logger("repro.cli").info("wrote manifest",
                                     path=manifest_path,
                                     prom=prom_path)
    if args.metrics:
        print(render_metrics(telemetry_metrics.get_registry().snapshot()))
    return 0


def cmd_recommend(args: argparse.Namespace) -> int:
    from .core import recommend
    from .hardware import cluster_for_gpus
    from .models import get_model

    model = get_model(args.model)
    cluster = cluster_for_gpus(args.gpus)
    if args.bandwidth is not None:
        cluster = cluster.with_instance(
            cluster.instance.with_network_gbps(args.bandwidth))
    rec = recommend(model, cluster, batch_size=args.batch)
    print(rec.render())
    return 0


@_with_cache
def cmd_advise(args: argparse.Namespace,
               cache: Optional[SimulationCache]) -> int:
    """Run the auto-advisor's sharded Pareto sweep and print the report.

    Output contains no timings or worker counts, so it is
    byte-identical for any ``--jobs`` value — the determinism smoke
    gates diff it directly.
    """
    from .analysis import SweepSpec, advise
    from .engine import ExperimentEngine
    from .hardware import cluster_for_gpus
    from .models import get_model

    if args.top < 1:
        raise ConfigurationError(f"--top must be >= 1, got {args.top}")
    model = get_model(args.model)
    cluster = cluster_for_gpus(args.gpus)
    if args.bandwidth is not None:
        cluster = cluster.with_instance(
            cluster.instance.with_network_gbps(args.bandwidth))
    spec = SweepSpec(world_sizes=tuple(args.world_sizes),
                     min_bandwidth_gbps=args.min_bandwidth,
                     max_bandwidth_gbps=args.max_bandwidth,
                     bandwidth_points=args.bandwidth_points,
                     shard_points=args.shard_points)
    engine = ExperimentEngine(jobs=args.jobs, cache=cache)
    report = advise(model, cluster, batch_size=args.batch, spec=spec,
                    engine=engine)
    print(report.render(top=args.top))
    return 0


def cmd_whatif(args: argparse.Namespace) -> int:
    from .core import (
        PerfModelInputs,
        bandwidth_sweep,
        compute_sweep,
        find_crossover_gbps,
    )
    from .models import get_model
    from .units import gbps_to_bytes_per_s

    model = get_model(args.model)
    scheme = _parse_scheme(args.scheme)
    gbps = 10.0 if args.bandwidth is None else args.bandwidth
    inputs = PerfModelInputs(
        world_size=args.gpus,
        bandwidth_bytes_per_s=gbps_to_bytes_per_s(gbps),
        batch_size=args.batch)
    print(f"{model.name} x {scheme.label} at {args.gpus} GPUs\n")
    bws = [1, 2, 3, 5, 7, 9, 11, 13, 15, 20, 25, 30]
    points = bandwidth_sweep(model, scheme, bws, inputs)
    print("bandwidth sweep (Gbit/s -> speedup):")
    for p in points:
        print(f"  {p.x:5.1f}  sync {p.syncsgd_s * 1e3:7.1f} ms | "
              f"{scheme.name} {p.compressed_s * 1e3:7.1f} ms | "
              f"{p.speedup:+.1%}")
    crossover = find_crossover_gbps(points)
    print(f"  crossover: "
          + (f"{crossover:.1f} Gbit/s" if crossover else "none in sweep"))
    print(f"\ncompute sweep at {gbps:g} Gbit/s "
          "(x V100 speed -> speedup):")
    for p in compute_sweep(model, scheme, [1, 2, 3, 4], inputs):
        print(f"  {p.x:4.1f}x  sync {p.syncsgd_s * 1e3:7.1f} ms | "
              f"{scheme.name} {p.compressed_s * 1e3:7.1f} ms | "
              f"{p.speedup:+.1%}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    import numpy as np

    from .faults import FaultSchedule
    from .hardware import cluster_for_gpus
    from .models import get_model
    from .reporting import render_metrics
    from .simulator import (
        DDPConfig,
        DDPSimulator,
        reconstruct_traces,
        write_run_trace,
    )
    from .telemetry import metrics as telemetry_metrics

    model = get_model(args.model)
    cluster = cluster_for_gpus(args.gpus)
    if args.trace and not 1 <= args.trace_workers <= cluster.world_size:
        # Each exported worker is one simulated rank.
        raise ConfigurationError(
            f"--trace-workers must be in [1, {cluster.world_size}], "
            f"got {args.trace_workers}")
    scheme = _parse_scheme(args.scheme) if args.scheme else None
    faults = FaultSchedule.load(args.faults) if args.faults else None
    sim = DDPSimulator(model, cluster, scheme=scheme, faults=faults)
    result = sim.run(args.batch, iterations=args.iterations, warmup=10)
    label = scheme.label if scheme else "syncsgd"
    print(f"{model.name} x {label} on {cluster.describe()}, "
          f"batch {result.batch_size}:")
    print(f"  sync time {result.mean * 1e3:.1f} ms "
          f"(± {result.std * 1e3:.1f}) over "
          f"{len(result.sync_times)} iterations")
    if sim.injector is not None:
        print(f"  {sim.injector.summary()}")
    quiet = DDPConfig(compute_jitter=0.0, comm_jitter=0.0)
    trace = DDPSimulator(model, cluster, scheme=scheme, config=quiet,
                         faults=faults).simulate_iteration(
        args.batch, np.random.default_rng(0))
    print(trace.render_ascii())
    if args.trace:
        # Each simulated worker draws its own jitter, so the exported
        # timeline shows the per-rank variance a real Nsight session
        # would; iterations are laid end-to-end per worker.  The spans
        # come from kernel reconstruction, byte-identical to the event
        # loop's (seed w replays the same RNG draws).
        workers = args.trace_workers
        iterations = args.trace_iterations
        worker_traces = {
            f"worker{w}": reconstruct_traces(
                sim, args.batch, iterations=iterations, seed=w)
            for w in range(workers)
        }
        n_bytes = write_run_trace(worker_traces, args.trace)
        telemetry_metrics.get_registry().counter(
            "trace_export_bytes_total").inc(n_bytes)
        print(f"  wrote Perfetto trace ({workers} worker(s) x "
              f"{iterations} iteration(s)) to {args.trace}")
    if args.metrics:
        print(render_metrics(telemetry_metrics.get_registry().snapshot()))
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Re-render a written manifest's metrics snapshot."""
    from .reporting import render_metrics
    from .telemetry import MANIFEST_FILENAME, read_manifest, render_prometheus

    manifest_path = args.manifest
    if manifest_path is None and args.cache:
        manifest_path = os.path.join(args.cache, MANIFEST_FILENAME)
    if manifest_path is None:
        raise ReproError("metrics needs --manifest PATH or --cache DIR")
    snapshot = read_manifest(manifest_path).get("metrics")
    if snapshot is None:
        raise ReproError(
            f"manifest {manifest_path!r} has no metrics snapshot")
    if args.format == "prom":
        print(render_prometheus(snapshot), end="")
    else:
        print(render_metrics(snapshot))
    return 0


@_with_cache
def cmd_serve(args: argparse.Namespace,
              cache: Optional[SimulationCache]) -> int:
    """Run the persistent what-if/simulation service until interrupted."""
    from .engine import ExperimentEngine
    from .serving import ServingScheduler, make_server

    if cache is not None and args.cache_preload:
        loaded = cache.preload(memory=args.cache_mem_mb > 0)
        print(f"cache preload: {loaded['entries']} pack entries indexed, "
              f"{loaded['memory_entries']} loaded into memory "
              f"({loaded['skipped']} skipped)", flush=True)
    engine = ExperimentEngine(jobs=args.jobs, cache=cache)
    scheduler = ServingScheduler(
        engine=engine,
        queue_depth=args.queue_depth,
        quota_rps=args.quota_rps,
        quota_burst=args.quota_burst,
        batch_window_s=args.batch_window_ms / 1e3,
        max_batch_requests=args.max_batch_requests,
        default_timeout_s=args.request_timeout_s)
    try:
        with make_server(scheduler, host=args.host,
                         port=args.port) as server:
            host, port = server.server_address[:2]
            # Parsed by scripts (the smoke gates, examples) to find an
            # ephemeral port, so keep the "listening on" phrasing stable.
            print(f"repro serve listening on http://{host}:{port}",
                  flush=True)
            get_logger("repro.cli").info(
                "serve started", host=host, port=port, jobs=args.jobs,
                cache=args.cache or "")
            try:
                server.serve_forever()
            except KeyboardInterrupt:
                pass
    finally:
        scheduler.close()
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Offline cache maintenance: ``stats``, ``verify``."""
    from .engine import SimulationCache

    if not os.path.isdir(args.cache):
        raise ReproError(f"cache directory {args.cache!r} does not exist")
    cache = SimulationCache(args.cache)
    try:
        if args.action == "stats":
            info = cache.info()
            print(f"cache {args.cache}")
            print(f"  pack:   {info['pack']['entries']} entries in "
                  f"{info['pack']['segments']} segment(s), "
                  f"{info['pack']['bytes']} bytes, "
                  f"{info['pack']['truncated']} truncated")
            print(f"  total:  {len(cache)} distinct keys")
        else:  # verify
            report = cache.verify()
            print(f"verify {args.cache}")
            print(f"  pack:   {report['pack_ok']} ok, "
                  f"{report['pack_corrupt']} corrupt, "
                  f"{report['pack_truncated']} truncated")
            if report["corrupt"]:
                print(f"  FAILED: {report['corrupt']} corrupt entries")
                return 1
            print(f"  OK: {report['entries']} entries healthy")
    finally:
        cache.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Gradient-compression utility study "
                     "(MLSys 2022 reproduction)"))
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("--log-level", default="warning",
                        choices=sorted(telemetry_logs.LEVELS),
                        help="minimum stderr log severity "
                             "(default: warning)")
    parser.add_argument("--log-json", action="store_true",
                        help="emit logs as JSONL instead of text")
    parser.add_argument("--no-telemetry", action="store_true",
                        help="keep the null metrics backend instead of "
                             "enabling the in-process registry")
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiment",
                           help="regenerate a paper table/figure")
    p_exp.add_argument("id",
                       choices=[*EXPERIMENTS, *EXTRA_EXPERIMENTS, "all"])
    p_exp.add_argument("--markdown", action="store_true")
    p_exp.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for simulation sweeps "
                            "(default: 1, serial)")
    p_exp.add_argument("--cache", default=None, metavar="DIR",
                       help="directory for the content-addressed "
                            "simulation result cache (default: off)")
    p_exp.add_argument("--cache-mem-mb", type=float, default=0.0,
                       metavar="MB",
                       help="in-process hot tier for the cache: keep up "
                            "to MB megabytes of recently-touched "
                            "entries in memory in front of the disk "
                            "tiers (default: 0, disabled; hits are "
                            "byte-identical either way)")
    p_exp.add_argument("--manifest", default=None, metavar="PATH",
                       help="write a run manifest here (default: "
                            "<cache>/manifest.json when --cache is set)")
    p_exp.add_argument("--metrics", action="store_true",
                       help="print the telemetry snapshot at the end")
    p_exp.add_argument("--trace-run", default=None, metavar="PATH",
                       help="record a span trace of the whole run — "
                            "CLI, exhibits, engine queue/exec/cache "
                            "per worker process, simulator streams — "
                            "and write it here as one Perfetto-loadable "
                            "JSON file")
    p_exp.set_defaults(fn=cmd_experiment)

    p_rec = sub.add_parser("recommend",
                           help="pick a scheme for a model + cluster")
    _add_model_args(p_rec)
    p_rec.add_argument("--bandwidth", type=float, default=None,
                       help="NIC Gbit/s (default: p3.8xlarge's 10)")
    p_rec.set_defaults(fn=cmd_recommend)

    p_adv = sub.add_parser("advise",
                           help="sharded Pareto sweep over the full "
                                "scheme x hyperparameter grid")
    _add_model_args(p_adv)
    p_adv.add_argument("--bandwidth", type=float, default=None,
                       help="calibration NIC Gbit/s (default: "
                            "p3.8xlarge's 10)")
    p_adv.add_argument("--world-sizes", type=int, nargs="+",
                       default=[8, 16, 32, 64], metavar="P",
                       help="world sizes to sweep (default: 8 16 32 64)")
    p_adv.add_argument("--min-bandwidth", type=float, default=1.0,
                       metavar="GBPS",
                       help="sweep lower bound in Gbit/s (default: 1)")
    p_adv.add_argument("--max-bandwidth", type=float, default=30.0,
                       metavar="GBPS",
                       help="sweep upper bound in Gbit/s (default: 30)")
    p_adv.add_argument("--bandwidth-points", type=int, default=8192,
                       metavar="N",
                       help="bandwidth samples per (candidate, world "
                            "size) pair; the default grid prices over "
                            "1.5M configs (default: 8192)")
    p_adv.add_argument("--shard-points", type=int, default=4096,
                       metavar="N",
                       help="bandwidth points per engine shard — the "
                            "bounded-memory unit of work (default: 4096)")
    p_adv.add_argument("--top", type=int, default=12, metavar="N",
                       help="frontier rows to print (default: 12)")
    p_adv.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for shard pricing "
                            "(default: 1, serial; output is "
                            "byte-identical for any value)")
    p_adv.add_argument("--cache", default=None, metavar="DIR",
                       help="content-addressed shard result cache "
                            "(default: off)")
    p_adv.add_argument("--cache-mem-mb", type=float, default=0.0,
                       metavar="MB",
                       help="in-process hot tier for the cache "
                            "(default: 0, disabled)")
    p_adv.set_defaults(fn=cmd_advise)

    p_what = sub.add_parser("whatif", help="bandwidth/compute sweeps")
    _add_model_args(p_what)
    p_what.add_argument("--scheme", default="powersgd:rank=4",
                        help="e.g. powersgd:rank=4, topk:fraction=0.01")
    p_what.add_argument("--bandwidth", type=float, default=None)
    p_what.set_defaults(fn=cmd_whatif)

    p_sim = sub.add_parser("simulate", help="simulate one configuration")
    _add_model_args(p_sim)
    p_sim.add_argument("--scheme", default=None)
    p_sim.add_argument("--iterations", type=int, default=60)
    p_sim.add_argument("--faults", default=None, metavar="SPEC",
                       help="JSON FaultSchedule to inject (see "
                            "docs/faults.md for the schema)")
    p_sim.add_argument("--trace", default=None, metavar="PATH",
                       help="export a Perfetto/chrome://tracing JSON "
                            "timeline here")
    p_sim.add_argument("--trace-iterations", type=int, default=3,
                       metavar="N",
                       help="iterations per worker in the exported "
                            "trace (default: 3)")
    p_sim.add_argument("--trace-workers", type=int, default=2,
                       metavar="W",
                       help="simulated workers (processes) in the "
                            "exported trace (default: 2)")
    p_sim.add_argument("--metrics", action="store_true",
                       help="print the telemetry snapshot at the end")
    p_sim.set_defaults(fn=cmd_simulate)

    p_met = sub.add_parser("metrics",
                           help="render a run manifest's metrics "
                                "snapshot")
    p_met.add_argument("--manifest", default=None, metavar="PATH",
                       help="manifest to read (default: "
                            "<cache>/manifest.json when --cache is set)")
    p_met.add_argument("--cache", default=None, metavar="DIR",
                       help="cache directory whose manifest.json to "
                            "read")
    p_met.add_argument("--format", default="text",
                       choices=("text", "prom"),
                       help="output format: human-readable text "
                            "(default) or Prometheus text exposition "
                            "0.0.4")
    p_met.set_defaults(fn=cmd_metrics)

    p_srv = sub.add_parser("serve",
                           help="run the persistent what-if/simulation "
                                "HTTP service")
    p_srv.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    p_srv.add_argument("--port", type=int, default=8758,
                       help="TCP port; 0 picks an ephemeral one and "
                            "prints it (default: 8758)")
    p_srv.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="engine worker processes for simulation "
                            "batches (default: 1, in-process)")
    p_srv.add_argument("--cache", default=None, metavar="DIR",
                       help="content-addressed result cache shared by "
                            "all requests (default: off)")
    p_srv.add_argument("--cache-mem-mb", type=float, default=0.0,
                       metavar="MB",
                       help="in-process hot tier for the cache: keep up "
                            "to MB megabytes of recently-touched "
                            "entries in memory in front of the disk "
                            "tiers (default: 0, disabled)")
    p_srv.add_argument("--cache-preload", action="store_true",
                       help="warm start: load the cache's pack index "
                            "(and, with --cache-mem-mb, the hot tier) "
                            "before accepting requests")
    p_srv.add_argument("--queue-depth", type=int, default=64, metavar="N",
                       help="admission queue capacity; beyond it "
                            "submissions are rejected 503 (default: 64)")
    p_srv.add_argument("--quota-rps", type=float, default=None,
                       metavar="R",
                       help="per-tenant sustained requests/s; over-quota "
                            "submissions get a structured 429 with "
                            "Retry-After (default: unlimited)")
    p_srv.add_argument("--quota-burst", type=float, default=10.0,
                       metavar="B",
                       help="per-tenant burst size for --quota-rps "
                            "(default: 10)")
    p_srv.add_argument("--batch-window-ms", type=float, default=20.0,
                       metavar="MS",
                       help="upper bound on how long a request "
                            "lingers, from its arrival, so concurrent "
                            "requests coalesce into one engine batch; "
                            "once every open connection is waiting on "
                            "a queued request that is not its first, "
                            "the window counts from when the previous "
                            "batch formed, so batches form sooner but "
                            "at most once a window (default: 20)")
    p_srv.add_argument("--max-batch-requests", type=int, default=8,
                       metavar="N",
                       help="most requests coalesced into one batch "
                            "(default: 8)")
    p_srv.add_argument("--request-timeout-s", type=float, default=300.0,
                       metavar="S",
                       help="default per-request deadline; requests "
                            "that wait it out in the queue expire "
                            "unexecuted (default: 300)")
    p_srv.set_defaults(fn=cmd_serve)

    p_cache = sub.add_parser("cache",
                             help="inspect and maintain a simulation "
                                  "result cache directory")
    p_cache.add_argument("action", choices=("stats", "verify"),
                         help="stats: tier sizes and counters; verify: "
                              "re-read every entry and report corruption "
                              "(exit 1 if any)")
    p_cache.add_argument("--cache", required=True, metavar="DIR",
                         help="cache directory to operate on")
    p_cache.set_defaults(fn=cmd_cache)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # Imported after parsing: the metrics module loads numpy, which
    # ``--help`` and ``--version`` exit without.
    from .telemetry import metrics as telemetry_metrics

    telemetry_logs.configure(level=args.log_level,
                             json_mode=args.log_json)
    if args.no_telemetry:
        telemetry_metrics.disable()
    else:
        telemetry_metrics.enable()
    log = get_logger("repro.cli")
    try:
        return args.fn(args)
    except ReproError as exc:
        log.error(str(exc), error_type=type(exc).__name__,
                  command=args.command)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
