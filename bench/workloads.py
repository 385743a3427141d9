"""The benchmark's workloads: set-up, one timed operation, its oracle.

A batch workload's operation is one repetition of what a user runs: a
pass over the exhibits (``repro experiment``), one default ``repro
advise`` sweep, one time-to-accuracy training run.  ``op()`` is the
timed part and returns ``(units of work, output)``; ``check(output)``
runs outside the timed region and raises :class:`Mismatch` when the
output differs from ``expected.json``.

``serve-mixed`` is a closed loop of HTTP requests against ``repro
serve``; its generator (:class:`ServeMix`), client (:func:`drive`) and
oracle (:class:`ServeOracle`) are here too.  The seed drives only the
serve request mix: the batch workloads run the paper's fixed
configurations.
"""

from __future__ import annotations

import hashlib
import http.client
import inspect
import json
import os
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.analysis import SweepSpec, advise
from repro.compression import scheme_from_spec
from repro.core import recommend
from repro.engine import ExperimentEngine, SimJob, SimulationCache
from repro.experiments import EXPERIMENTS, EXTRA_EXPERIMENTS, run_ext_tta
from repro.experiments.ext_time_to_accuracy import EXT_TTA_METHODS
from repro.hardware import cluster_for_gpus
from repro.models import get_model
from repro.telemetry.tracing import get_tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: Training steps per method in one ``tta-train`` operation.  The
#: exhibit's own 120 steps take ~24 s on a 2-core host, longer than a
#: whole run; 10 is the exhibit's minimum.
TTA_STEPS = 10


def load_expected() -> Dict[str, Any]:
    """The reference outputs recorded in ``expected.json``."""
    with open(os.path.join(BENCH_DIR, "expected.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


class Mismatch(Exception):
    """An output differs from its reference."""


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _takes_engine(runner: Callable) -> bool:
    return "engine" in inspect.signature(runner).parameters


def run_exhibits(engine: ExperimentEngine,
                 exhibits: List[Tuple[str, Callable]]) -> List[Tuple[str, Any]]:
    """Run and render exhibits the way ``repro experiment`` does."""
    tracer = get_tracer()
    results = []
    for exp_id, runner in exhibits:
        with tracer.span(f"experiments:{exp_id}", track="bench"):
            result = (runner(engine=engine) if _takes_engine(runner)
                      else runner())
        result.render_table("{:.2f}")
        results.append((exp_id, result))
    return results


def check_exhibits(results: List[Tuple[str, Any]],
                   expected: Dict[str, str]) -> None:
    for exp_id, result in results:
        if sha256(result.to_json()) != expected[exp_id]:
            raise Mismatch(f"{exp_id} rows differ from the reference")


class BatchWorkload:
    """Base: ``work_dir`` is this run's scratch directory."""

    name = ""

    def __init__(self, work_dir: str) -> None:
        self.work_dir = work_dir
        self.expected = load_expected()

    def setup(self) -> None:
        """Prepare inputs; timed as part of ``setup_s``."""

    def op(self) -> Tuple[int, Any]:
        raise NotImplementedError

    def check(self, output: Any) -> None:
        raise NotImplementedError


class ExhibitsCold(BatchWorkload):
    """Every paper exhibit except ext-tta, plus reliability, on a fresh
    serial engine with no cache: the kernels and the grid do the work."""

    name = "exhibits-cold"

    def setup(self) -> None:
        runners = {**EXPERIMENTS, **EXTRA_EXPERIMENTS}
        self.exhibits = [(exp_id, runner) for exp_id, runner in runners.items()
                         if exp_id != "ext-tta"]

    def op(self) -> Tuple[int, Any]:
        engine = ExperimentEngine(jobs=1)
        results = run_exhibits(engine, self.exhibits)
        return engine.jobs_completed, results

    def check(self, output: Any) -> None:
        check_exhibits(output, self.expected["exhibits"])


class ExhibitsWarm(BatchWorkload):
    """The engine-backed exhibits against a cache filled in set-up.
    Each pass opens the directory afresh with no memory tier, as a new
    ``repro experiment --cache`` process would."""

    name = "exhibits-warm"

    def setup(self) -> None:
        self.cache_dir = os.path.join(self.work_dir, "cache")
        runners = {**EXPERIMENTS, **EXTRA_EXPERIMENTS}
        self.exhibits = [(exp_id, runner) for exp_id, runner in runners.items()
                         if _takes_engine(runner)]
        cache = SimulationCache(self.cache_dir)
        try:
            run_exhibits(ExperimentEngine(jobs=1, cache=cache), self.exhibits)
        finally:
            cache.close()

    def op(self) -> Tuple[int, Any]:
        cache = SimulationCache(self.cache_dir)
        try:
            engine = ExperimentEngine(jobs=1, cache=cache)
            results = run_exhibits(engine, self.exhibits)
        finally:
            cache.close()
        return engine.jobs_completed, (results, engine.executed)

    def check(self, output: Any) -> None:
        results, executed = output
        if executed:
            raise Mismatch(f"{executed} jobs missed the warm cache")
        check_exhibits(results, self.expected["exhibits"])


class AdvisePool(BatchWorkload):
    """The default ``repro advise --jobs 2`` sweep; each pass builds its
    own two-worker pool."""

    name = "advise-pool"

    def setup(self) -> None:
        self.model = get_model("resnet50")
        self.cluster = cluster_for_gpus(32)

    def op(self) -> Tuple[int, Any]:
        report = advise(self.model, self.cluster,
                        engine=ExperimentEngine(jobs=2))
        return report.configs_priced, report.render()

    def check(self, output: Any) -> None:
        if sha256(output) != self.expected["advise"]:
            raise Mismatch("advise report differs from the reference")


class TtaTrain(BatchWorkload):
    """The time-to-accuracy exhibit at :data:`TTA_STEPS` steps: five
    methods trained data-parallel through the real codecs."""

    name = "tta-train"

    def op(self) -> Tuple[int, Any]:
        with get_tracer().span("experiments:ext-tta", track="bench"):
            result = run_ext_tta(steps=TTA_STEPS)
        result.render_table("{:.2f}")
        return len(EXT_TTA_METHODS) * TTA_STEPS, result

    def check(self, output: Any) -> None:
        if sha256(output.to_json()) != self.expected["tta"]:
            raise Mismatch("ext-tta rows differ from the reference")


BATCH_WORKLOADS = {cls.name: cls for cls in
                   (ExhibitsCold, ExhibitsWarm, AdvisePool, TtaTrain)}


# ----- serve-mixed ----------------------------------------------------------

WHATIF_MODELS = ("resnet50", "resnet101", "bert-base", "vgg16")
WHATIF_GPUS = (8, 16, 32, 64)
WHATIF_BANDWIDTHS = (1.0, 3.0, 10.0, 25.0)
SIM_MODELS = ("resnet50", "bert-base")
SIM_SCHEMES = (None, "powersgd:rank=4", "topk:fraction=0.01", "signsgd")
SIM_GPUS = (8, 32)
SIM_ITERATIONS = 110
ADVISE_TARGETS = (("resnet50", 16), ("resnet50", 32),
                  ("bert-base", 16), ("bert-base", 32))
ADVISE_POINTS = 128
#: Closed-loop client threads, one keep-alive connection each.
CLIENTS = 2

#: Request kinds in every block of ten a client sends, before the
#: block is shuffled.
BLOCK = ("whatif",) * 5 + ("pool",) * 2 + ("fresh",) * 2 + ("advise",)


def _cycle(rng: random.Random, items: List[Any]) -> Iterator[Any]:
    """Every item once per round, in a fresh seeded order each round."""
    while True:
        yield from rng.sample(items, len(items))


def _sim_body(config: Tuple[str, int, Optional[str]],
              seed: int) -> Dict[str, Any]:
    model, gpus, scheme = config
    body: Dict[str, Any] = {"model": model, "gpus": gpus,
                            "iterations": SIM_ITERATIONS, "seed": seed,
                            "wait": True}
    if scheme is not None:
        body["scheme"] = scheme
    return body


class ServeMix:
    """Seeded request streams, one per client.

    In every block of ten requests: five ``/v1/whatif``, two
    ``/v1/simulate`` (``wait: true``) from a pool of one (config, seed)
    pair per simulate config, which the cache serves after first use,
    two ``/v1/simulate`` with fresh seeds, which run the kernel and
    append to the cache, and one ``/v1/advise``.  Each kind cycles
    through all its inputs (64 whatif configs, 16 simulate configs, 4
    advise targets), so the seed changes the order and the simulation
    seeds but not the mix: runs with different seeds do the same work.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.sim_configs = [(m, g, s) for m in SIM_MODELS for g in SIM_GPUS
                            for s in SIM_SCHEMES]
        rng = random.Random(f"serve-pool/{seed}")
        self.pool = [_sim_body(c, rng.randrange(1000))
                     for c in self.sim_configs]

    def requests(self, client: int) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """Endless ``(kind, body)`` stream for one client."""
        rng = random.Random(f"serve-client/{self.seed}/{client}")
        whatif = _cycle(rng, [{"model": m, "gpus": g, "bandwidth": b}
                              for m in WHATIF_MODELS for g in WHATIF_GPUS
                              for b in WHATIF_BANDWIDTHS])
        pool = _cycle(rng, self.pool)
        fresh = _cycle(rng, self.sim_configs)
        targets = _cycle(rng, list(ADVISE_TARGETS))
        for kind in _cycle(rng, list(BLOCK)):
            if kind == "whatif":
                yield "whatif", dict(next(whatif))
            elif kind == "pool":
                yield "simulate", dict(next(pool))
            elif kind == "fresh":
                yield "simulate", _sim_body(next(fresh),
                                            rng.randrange(10 ** 6, 10 ** 9))
            else:
                model, gpus = next(targets)
                yield "advise", {"model": model, "gpus": gpus,
                                 "bandwidth_points": ADVISE_POINTS}


@dataclass
class Sample:
    """One request as the client saw it."""

    kind: str
    body: Dict[str, Any]
    status: int
    payload: Optional[Dict[str, Any]]
    latency_s: float
    error: Optional[str] = None


def _client(port: int, stream: Iterator, out: List[Sample],
            deadline: Optional[float], limit: Optional[int]) -> None:
    """Closed loop over one keep-alive connection: the next request
    leaves only after the previous response has been read in full."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        for kind, body in stream:
            if limit is not None and len(out) >= limit:
                break
            if deadline is not None and time.perf_counter() >= deadline:
                break
            data = json.dumps(body).encode("utf-8")
            started = time.perf_counter()
            try:
                conn.request("POST", f"/v1/{kind}", body=data,
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                raw = resp.read()
                latency = time.perf_counter() - started
                out.append(Sample(kind, body, resp.status,
                                  json.loads(raw), latency))
            except (OSError, http.client.HTTPException, ValueError) as exc:
                out.append(Sample(kind, body, 0, None,
                                  time.perf_counter() - started,
                                  f"{type(exc).__name__}: {exc}"))
                conn.close()
                conn = http.client.HTTPConnection("127.0.0.1", port,
                                                  timeout=120)
    finally:
        conn.close()


def drive(port: int, mix: ServeMix, seconds: Optional[float] = None,
          per_client: Optional[int] = None) -> Tuple[List[Sample], float]:
    """Run the closed loop against ``127.0.0.1:port``, either for
    ``seconds`` or for ``per_client`` requests per client; returns the
    samples and the wall time of the whole phase."""
    outs: List[List[Sample]] = [[] for _ in range(CLIENTS)]
    started = time.perf_counter()
    deadline = started + seconds if seconds is not None else None
    threads = [threading.Thread(target=_client,
                                args=(port, mix.requests(c), outs[c],
                                      deadline, per_client))
               for c in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170)
        if thread.is_alive():
            raise RuntimeError("a serve client did not finish in time")
    wall = time.perf_counter() - started
    return [s for out in outs for s in out], wall


class ServeOracle:
    """Offline references for served responses, memoized per input:
    ``rendered`` of whatif and advise must equal the CLI's render, and
    each simulate ``mean_s`` the offline ``SimJob`` result."""

    def __init__(self) -> None:
        self._memo: Dict[str, Any] = {}

    def _reference(self, kind: str, body: Dict[str, Any]) -> Any:
        key = kind + json.dumps(body, sort_keys=True)
        if key not in self._memo:
            model = get_model(body["model"])
            cluster = cluster_for_gpus(body["gpus"])
            if kind == "whatif":
                cluster = cluster.with_instance(
                    cluster.instance.with_network_gbps(body["bandwidth"]))
                value = recommend(model, cluster).render()
            elif kind == "advise":
                spec = SweepSpec(bandwidth_points=body["bandwidth_points"],
                                 shard_points=256)
                value = advise(model, cluster, spec=spec).render(top=12)
            else:
                scheme = (scheme_from_spec(body["scheme"])
                          if "scheme" in body else None)
                value = ExperimentEngine().run(SimJob(
                    model=model, cluster=cluster, scheme=scheme,
                    iterations=body["iterations"], seed=body["seed"])).mean
            self._memo[key] = value
        return self._memo[key]

    def problem(self, sample: Sample) -> Optional[str]:
        """Why ``sample`` failed, or ``None`` when it is correct."""
        if sample.error is not None:
            return sample.error
        if sample.status != 200 or sample.payload is None:
            return f"{sample.kind} answered HTTP {sample.status}"
        if sample.payload.get("status") != "done":
            return f"{sample.kind} ended {sample.payload.get('status')}"
        result = sample.payload["result"]
        reference = self._reference(sample.kind, sample.body)
        if sample.kind == "simulate":
            got = result["rows"][0].get("mean_s")
        else:
            got = result.get("rendered")
        if got != reference:
            return f"{sample.kind} {sample.body} differs from the offline CLI"
        return None
