"""Engine model-eval batches: families, packing, caching, fan-out.

Families (collapsing jobs into one grid-kernel call) and singleton
packing (several simulation jobs per pool task) are pure execution
details: rows, cache keys, and cached bytes never depend on them (the
randomized dispatcher property in ``test_engine_dispatch.py`` checks
this across serial, pooled and warm runs).
"""

import pytest

from repro.compression.schemes import PowerSGDScheme
from repro.compression.kernel_cost import v100_kernel_profile
from repro.core import PerfModelInputs
from repro.engine import (
    ExperimentEngine,
    ModelEvalJob,
    evaluate_family,
)
from repro.errors import ConfigurationError
from repro.hardware import V100
from repro.models import get_model
from repro.telemetry import MetricsRegistry, get_registry, set_registry
from repro.units import gbps_to_bytes_per_s

from .oracle import compressed_time, syncsgd_time, tradeoff_time


@pytest.fixture(scope="module")
def rn50():
    return get_model("resnet50")


def inputs_at(gbps=10.0, p=16, bs=32):
    return PerfModelInputs(world_size=p,
                           bandwidth_bytes_per_s=gbps_to_bytes_per_s(gbps),
                           batch_size=bs)


def sweep_jobs(model, gbps_list=(1.0, 5.0, 10.0, 25.0)):
    """A bandwidth-sweep family: baseline + PowerSGD at each point."""
    jobs = []
    for gbps in gbps_list:
        for scheme in (None, PowerSGDScheme(rank=4)):
            jobs.append(ModelEvalJob(model=model, scheme=scheme,
                                     inputs=inputs_at(gbps)))
    return jobs


class BrokenScheme(PowerSGDScheme):
    """A scheme whose pricing always fails (fault-isolation tests)."""

    def cost(self, model, world_size, profile):
        raise RuntimeError("broken scheme")


class TestModelEvalJob:
    def test_fingerprint_deterministic_and_sensitive(self, rn50):
        job = ModelEvalJob(model=rn50, scheme=PowerSGDScheme(rank=4),
                           inputs=inputs_at())
        same = ModelEvalJob(model=rn50, scheme=PowerSGDScheme(rank=4),
                            inputs=inputs_at())
        assert job.fingerprint() == same.fingerprint()
        for other in (
                ModelEvalJob(model=rn50, scheme=PowerSGDScheme(rank=4),
                             inputs=inputs_at(gbps=25.0)),
                ModelEvalJob(model=rn50, scheme=PowerSGDScheme(rank=2),
                             inputs=inputs_at()),
                ModelEvalJob(model=rn50, scheme=None, inputs=inputs_at()),
                ModelEvalJob(model=rn50, scheme=PowerSGDScheme(rank=4),
                             inputs=inputs_at(), compute_factor=2.0),
                ModelEvalJob(model=rn50, scheme=PowerSGDScheme(rank=4),
                             inputs=inputs_at(), tradeoff_k=2.0,
                             tradeoff_l=1.0),
        ):
            assert other.fingerprint() != job.fingerprint()

    def test_validation(self, rn50):
        scheme = PowerSGDScheme(rank=4)
        with pytest.raises(ConfigurationError, match="compute factors"):
            ModelEvalJob(model=rn50, scheme=scheme, inputs=inputs_at(),
                         compute_factor=0.0)
        with pytest.raises(ConfigurationError, match="together"):
            ModelEvalJob(model=rn50, scheme=scheme, inputs=inputs_at(),
                         tradeoff_k=2.0)
        with pytest.raises(ConfigurationError, match="base scheme"):
            ModelEvalJob(model=rn50, scheme=None, inputs=inputs_at(),
                         tradeoff_k=2.0, tradeoff_l=1.0)
        with pytest.raises(ConfigurationError, match="compute_factor"):
            ModelEvalJob(model=rn50, scheme=scheme, inputs=inputs_at(),
                         compute_factor=2.0, tradeoff_k=2.0,
                         tradeoff_l=1.0)

    def test_evaluate_matches_scalar_model(self, rn50):
        base = inputs_at()
        assert (ModelEvalJob(model=rn50, scheme=None,
                             inputs=base).evaluate()
                == syncsgd_time(rn50, base))
        scheme = PowerSGDScheme(rank=4)
        assert (ModelEvalJob(model=rn50, scheme=scheme,
                             inputs=base).evaluate()
                == compressed_time(rn50, scheme, base))
        prof = v100_kernel_profile()
        scaled = ModelEvalJob(model=rn50, scheme=scheme, inputs=base,
                              compute_factor=2.0).evaluate()
        assert scaled == compressed_time(rn50, scheme, base,
                                         V100.scaled(2.0),
                                         prof.scaled(2.0))
        traded = ModelEvalJob(model=rn50, scheme=scheme, inputs=base,
                              tradeoff_k=2.0, tradeoff_l=3.0).evaluate()
        assert traded.total == tradeoff_time(rn50, scheme, 2.0, 3.0, base)

    def test_family_key_groups_sweep_axes(self, rn50):
        scheme = PowerSGDScheme(rank=4)
        a = ModelEvalJob(model=rn50, scheme=scheme, inputs=inputs_at(1.0))
        b = ModelEvalJob(model=rn50, scheme=scheme, inputs=inputs_at(25.0))
        c = ModelEvalJob(model=rn50, scheme=scheme,
                         inputs=inputs_at(1.0, p=64))
        d = ModelEvalJob(model=rn50, scheme=scheme, inputs=inputs_at(1.0),
                         compute_factor=3.0)
        assert a.family_key() == b.family_key() == c.family_key() \
            == d.family_key()
        assert (ModelEvalJob(model=rn50, scheme=None,
                             inputs=inputs_at(1.0)).family_key()
                != a.family_key())
        # Tradeoff families pin the sweep axes instead.
        t1 = ModelEvalJob(model=rn50, scheme=scheme, inputs=inputs_at(1.0),
                          tradeoff_k=1.0, tradeoff_l=1.0)
        t2 = ModelEvalJob(model=rn50, scheme=scheme, inputs=inputs_at(1.0),
                          tradeoff_k=4.0, tradeoff_l=2.0)
        t3 = ModelEvalJob(model=rn50, scheme=scheme, inputs=inputs_at(9.0),
                          tradeoff_k=1.0, tradeoff_l=1.0)
        assert t1.family_key() == t2.family_key()
        assert t1.family_key() != t3.family_key()
        assert t1.family_key() != a.family_key()


class TestEvaluateFamily:
    def test_empty(self):
        assert evaluate_family([]) == []

    def test_sweep_family_bit_identical_to_per_job(self, rn50):
        jobs = [ModelEvalJob(model=rn50, scheme=PowerSGDScheme(rank=4),
                             inputs=inputs_at(g)) for g in (1.0, 9.0, 30.0)]
        jobs.append(ModelEvalJob(model=rn50, scheme=PowerSGDScheme(rank=4),
                                 inputs=inputs_at(9.0), compute_factor=2.5))
        assert evaluate_family(jobs) == [j.evaluate() for j in jobs]

    def test_tradeoff_family_bit_identical(self, rn50):
        scheme = PowerSGDScheme(rank=4)
        jobs = [ModelEvalJob(model=rn50, scheme=scheme,
                             inputs=inputs_at(), tradeoff_k=k,
                             tradeoff_l=l)
                for k in (1.0, 2.0, 4.0) for l in (1.0, 3.0)]
        assert evaluate_family(jobs) == [j.evaluate() for j in jobs]


class TestEngineModelOutcomes:
    def test_serial_outcomes_match_scalar(self, rn50):
        jobs = sweep_jobs(rn50)
        engine = ExperimentEngine()
        outcomes = engine.run_model_outcomes(jobs)
        assert [o.job for o in outcomes] == jobs
        assert [o.result for o in outcomes] == [j.evaluate() for j in jobs]
        assert engine.stats().jobs_chunked == len(jobs)

    def test_parallel_outcomes_identical(self, rn50):
        jobs = sweep_jobs(rn50)
        serial = ExperimentEngine().run_model_outcomes(jobs)
        fanned = ExperimentEngine(jobs=4).run_model_outcomes(jobs)
        assert [o.result for o in fanned] == [o.result for o in serial]

    def test_warm_cache_all_hits(self, rn50, tmp_path, open_cache):
        jobs = sweep_jobs(rn50)
        cache = open_cache(str(tmp_path))
        engine = ExperimentEngine(cache=cache)
        cold = engine.run_model_outcomes(jobs)
        assert not any(o.cached for o in cold)
        before = cache.stats.snapshot()
        warm = engine.run_model_outcomes(jobs)
        delta = cache.stats.since(before)
        assert all(o.cached for o in warm)
        assert delta.misses == 0 and delta.hits == len(jobs)
        assert [o.result for o in warm] == [o.result for o in cold]

    def test_failing_job_isolated_not_cached(self, rn50, tmp_path, open_cache):
        good = ModelEvalJob(model=rn50, scheme=PowerSGDScheme(rank=4),
                            inputs=inputs_at())
        bad = ModelEvalJob(model=rn50, scheme=BrokenScheme(rank=4),
                           inputs=inputs_at())
        cache = open_cache(str(tmp_path))
        engine = ExperimentEngine(cache=cache)
        outcomes = engine.run_model_outcomes([good, bad])
        assert outcomes[0].ok and outcomes[0].result is not None
        assert not outcomes[1].ok
        with pytest.raises(RuntimeError, match="broken scheme"):
            outcomes[1].unwrap()
        assert engine.stats().failures == 1
        # The failure is never cached: a retry re-executes it.
        assert cache.get(bad.fingerprint()) is None

    def test_chunk_counter_and_grid_points_recorded(self, rn50):
        previous = get_registry()
        registry = MetricsRegistry()
        set_registry(registry)
        try:
            engine = ExperimentEngine()
            engine.run_model_outcomes(sweep_jobs(rn50))
        finally:
            set_registry(previous)
        counters = registry.snapshot()["counters"]
        assert counters["engine_jobs_chunked_total"] == 8
        assert counters['engine_jobs_total{cached="false"}'] == 8
        assert counters.get("grid_eval_points_total", 0) >= 8


class TestSimJobChunking:
    def test_chunk_size_policy(self):
        engine = ExperimentEngine(jobs=4)
        assert engine._chunk_size(32, 4) == 2  # ~4 tasks per worker
        assert engine._chunk_size(3, 4) == 1
        # The serial path has no IPC to amortize.
        assert ExperimentEngine()._chunk_size(32, 4) == 1
