"""Scheduler-level serving tests: admission control, deadlines,
coalescing, and parity with the offline advisor."""

import threading
import time

import numpy as np
import pytest

from repro.compression import SyncSGDScheme
from repro.core import (
    calibrate,
    default_candidates,
    recommend,
    solve_crossover,
)
from repro.engine import ExperimentEngine
from repro.errors import ConfigurationError
from repro.hardware import cluster_for_gpus
from repro.models import available_models, get_model
from repro.serving import scheduler as scheduler_module
from repro.serving import (
    AdmissionError,
    AdviseRequest,
    ServingScheduler,
    SimulateRequest,
    TokenBucket,
    WhatIfRequest,
)
from repro.telemetry import metrics as telemetry_metrics


@pytest.fixture
def registry():
    """A live metrics registry for the duration of one test."""
    reg = telemetry_metrics.enable()
    yield reg
    telemetry_metrics.disable()


def make_scheduler(**kwargs):
    kwargs.setdefault("engine", ExperimentEngine())
    kwargs.setdefault("batch_window_s", 0.01)
    return ServingScheduler(**kwargs)


def simulate_request(seed=0, iterations=20, **extra):
    body = {"model": "resnet50", "gpus": 8, "iterations": iterations,
            "seed": seed}
    body.update(extra)
    return SimulateRequest.from_json(body)


class TestTokenBucket:
    def test_burst_then_reject(self):
        now = [0.0]
        bucket = TokenBucket(rate_per_s=1.0, burst=2, clock=lambda: now[0])
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refills_at_rate(self):
        now = [0.0]
        bucket = TokenBucket(rate_per_s=2.0, burst=1, clock=lambda: now[0])
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        now[0] = 0.5  # 2/s x 0.5s = 1 token back
        assert bucket.try_acquire()

    def test_retry_after_predicts_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate_per_s=0.5, burst=1, clock=lambda: now[0])
        bucket.try_acquire()
        assert bucket.retry_after_s() == pytest.approx(2.0)

    def test_validates_parameters(self):
        with pytest.raises(ConfigurationError):
            TokenBucket(rate_per_s=0, burst=1)
        with pytest.raises(ConfigurationError):
            TokenBucket(rate_per_s=1, burst=0)

    @pytest.mark.parametrize("rate,burst", [
        (float("nan"), 1), (float("inf"), 1),
        (1, float("nan")), (1, float("inf")),
    ])
    def test_rejects_non_finite_parameters(self, rate, burst):
        with pytest.raises(ConfigurationError):
            TokenBucket(rate_per_s=rate, burst=burst)


class TestPolicyValidation:
    @pytest.mark.parametrize("policy", [
        {"batch_window_s": -0.01},
        {"batch_window_s": float("nan")},
        {"batch_window_s": float("inf")},
        {"default_timeout_s": 0},
        {"default_timeout_s": float("nan")},
        {"quota_rps": 0},
        {"quota_rps": float("nan")},
        {"quota_rps": float("inf")},
        {"quota_rps": 1.0, "quota_burst": float("nan")},
        {"quota_rps": 1.0, "quota_burst": float("inf")},
    ], ids=lambda policy: "-".join(f"{k}={v}" for k, v in policy.items()))
    def test_bad_policy_rejected_at_construction(self, policy):
        # Quota buckets are created lazily per tenant; the policy is
        # still checked before the scheduler starts.
        with pytest.raises(ConfigurationError):
            make_scheduler(**policy)


class TestAdmission:
    def test_quota_rejection_carries_retry_after(self):
        sched = make_scheduler(quota_rps=0.001, quota_burst=1,
                               batch_window_s=0.2)
        try:
            sched.submit(simulate_request())
            with pytest.raises(AdmissionError) as excinfo:
                sched.submit(simulate_request(seed=1))
            assert excinfo.value.status == 429
            assert excinfo.value.reason == "quota"
            assert excinfo.value.retry_after_s > 0
        finally:
            sched.close()

    def test_quota_is_per_tenant(self):
        sched = make_scheduler(quota_rps=0.001, quota_burst=1,
                               batch_window_s=0.2)
        try:
            sched.submit(simulate_request(), tenant="a")
            # tenant b has its own bucket, so it is not affected
            sched.submit(simulate_request(seed=1), tenant="b")
            with pytest.raises(AdmissionError):
                sched.submit(simulate_request(seed=2), tenant="a")
        finally:
            sched.close()

    def test_queue_depth_cap_rejects_503(self):
        sched = make_scheduler(queue_depth=1, batch_window_s=0.5)
        try:
            sched.submit(simulate_request())
            with pytest.raises(AdmissionError) as excinfo:
                sched.submit(simulate_request(seed=1))
            assert excinfo.value.status == 503
            assert excinfo.value.reason == "queue_full"
        finally:
            sched.close(timeout_s=1.0)

    def test_deadline_expires_queued_request(self, registry):
        # The deadline elapses during the batch window, so the request
        # is dropped at drain time without ever executing.
        sched = make_scheduler(batch_window_s=0.2)
        try:
            state = sched.submit(simulate_request(timeout_s=0.01))
            final = sched.wait(state.id, timeout_s=10.0)
            assert final.status == "expired"
            assert "deadline" in final.error
            assert sched.engine.jobs_completed == 0
            snap = registry.snapshot()
            assert snap["counters"][
                "serving_requests_expired_total"] == 1.0
        finally:
            sched.close()

    def test_closed_scheduler_rejects(self):
        sched = make_scheduler()
        sched.close()
        with pytest.raises(AdmissionError) as excinfo:
            sched.submit(simulate_request())
        assert excinfo.value.reason == "closed"

    def test_shutdown_failure_records_no_latency(self, registry):
        # A request still queued at close() fails with a finish time but
        # no latency sample: the histogram times requests that ran or
        # expired, not the shutdown.
        sched = make_scheduler(batch_window_s=60.0)
        state = sched.submit(simulate_request())
        sched.close()
        final = sched.get(state.id)
        assert final.status == "failed"
        assert final.finished_unix is not None
        assert not any(name.startswith("serving_request_latency_s")
                       for name in registry.snapshot()["histograms"])


class TestCoalescing:
    def test_seed_varied_requests_share_one_kernel_call(self, registry):
        # Four requests differing only in seed land in one batch window;
        # the engine stacks them into one family execution.
        sched = make_scheduler(batch_window_s=0.2)
        try:
            states = [sched.submit(simulate_request(seed=s))
                      for s in range(4)]
            finals = [sched.wait(s.id, timeout_s=60.0) for s in states]
            assert [f.status for f in finals] == ["done"] * 4
            assert sched.batches == 1
            assert sched.requests_coalesced == 4
            assert sched.engine.jobs_batched == 4
            snap = registry.snapshot()
            assert snap["gauges"]["serving_batch_occupancy"] == 4.0
        finally:
            sched.close()

    def test_results_match_request_order(self):
        sched = make_scheduler(batch_window_s=0.2)
        try:
            a = sched.submit(simulate_request(seed=7))
            b = sched.submit(simulate_request(seed=8))
            fa = sched.wait(a.id, timeout_s=60.0)
            fb = sched.wait(b.id, timeout_s=60.0)
            assert fa.rows[0]["seed"] == 7
            assert fb.rows[0]["seed"] == 8
            assert fa.rows[0]["mean_s"] != fb.rows[0]["mean_s"]
        finally:
            sched.close()

    def test_concurrent_clients_share_cache(self, tmp_path, open_cache):
        cache = open_cache(str(tmp_path / "cache"))
        sched = make_scheduler(engine=ExperimentEngine(cache=cache),
                               batch_window_s=0.05)
        try:
            results = {}

            def client(name, seed):
                state = sched.submit(simulate_request(seed=seed))
                results[name] = sched.wait(state.id, timeout_s=60.0)

            threads = [threading.Thread(target=client, args=(i, i % 2))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            rows = [results[i].rows[0] for i in range(4)]
            assert all(results[i].status == "done" for i in range(4))
            # equal seeds produced identical timings (shared cache or
            # same deterministic kernel — either way, one truth)
            by_seed = {}
            for row in rows:
                by_seed.setdefault(row["seed"], set()).add(row["mean_s"])
            assert all(len(v) == 1 for v in by_seed.values())
            # a later identical request is served from the shared cache
            state = sched.submit(simulate_request(seed=0))
            final = sched.wait(state.id, timeout_s=60.0)
            assert final.rows[0]["cached"] is True
            assert final.rows[0]["mean_s"] in by_seed[0]
        finally:
            sched.close()

    def test_stats_expose_cache_tiers(self, tmp_path, open_cache):
        cache = open_cache(str(tmp_path / "cache"), memory_mb=8)
        sched = make_scheduler(engine=ExperimentEngine(cache=cache),
                               batch_window_s=0.02)
        try:
            for _ in range(2):  # second pass hits the hot tier
                state = sched.submit(simulate_request(seed=0))
                sched.wait(state.id, timeout_s=60.0)
            stats = sched.stats()
            assert stats["cache"]["memory"]["entries"] > 0
            assert stats["engine"]["cache_memory_hits"] > 0
        finally:
            sched.close()

    def test_stats_without_cache_have_no_cache_section(self):
        sched = make_scheduler()
        try:
            assert "cache" not in sched.stats()
        finally:
            sched.close()


class TestRetention:
    def test_finished_states_are_bounded_by_count(self, monkeypatch):
        """More finished requests than the bound: the earliest are
        forgotten, the rest still answer, and ``requests_seen`` counts
        them all."""
        monkeypatch.setattr(scheduler_module, "FINISHED_STATES_KEPT", 3)
        sched = make_scheduler(batch_window_s=0.0)
        try:
            ids = []
            for _ in range(7):
                state = sched.submit(WhatIfRequest.from_json(
                    {"model": "resnet50", "gpus": 8, "crossovers": False}))
                assert sched.wait(state.id, timeout_s=60.0).status == "done"
                ids.append(state.id)
                assert len(sched._states) <= 3
            assert [sched.get(i) is not None for i in ids] == \
                [False] * 4 + [True] * 3
            assert sched.stats()["requests_seen"] == 7
        finally:
            sched.close()

    def test_queued_and_blocked_states_are_kept(self, monkeypatch):
        """A queued request is never forgotten, and a finished one that
        a connection is still blocked on keeps itself and every later
        one until it is released."""
        monkeypatch.setattr(scheduler_module, "FINISHED_STATES_KEPT", 1)
        sched = make_scheduler(batch_window_s=3600.0)  # nothing drains
        try:
            queued = sched.submit(simulate_request(seed=1))

            def finish(request_id):
                state = scheduler_module.RequestState(
                    id=request_id, request=queued.request, tenant="default",
                    submitted_unix=0.0, submitted_monotonic=0.0,
                    deadline_monotonic=None, status="done")
                with sched._cv:
                    sched._states[request_id] = state
                    sched._settle(state)

            finish("a")
            sched.connection_opened()
            with sched._cv:  # as a connection waiting in wait() does
                sched._blocking["a"] += 1
            finish("b")
            finish("c")
            assert all(sched.get(i) is not None for i in "abc")
            with sched._cv:
                assert not sched._nothing_can_arrive()
                del sched._blocking["a"]
            sched.connection_closed()
            finish("d")
            assert [sched.get(i) is not None for i in "abcd"] == \
                [False, False, False, True]
            assert sched.get(queued.id) is queued
        finally:
            sched.close()


class TestStalls:
    def test_whatif_finishes_while_coalesced_advise_runs(self, monkeypatch):
        # One batch carries a what-if and an advise sweep; the sweep's
        # engine call blocks, and the what-if must still finish.
        engine = ExperimentEngine()
        entered, release = threading.Event(), threading.Event()
        run_advisor = engine.run_advisor_outcomes

        def blocked(jobs):
            entered.set()
            assert release.wait(60.0)
            return run_advisor(jobs)

        monkeypatch.setattr(engine, "run_advisor_outcomes", blocked)
        sched = make_scheduler(engine=engine, batch_window_s=0.2)
        try:
            whatif = sched.submit(WhatIfRequest.from_json(
                {"model": "resnet50", "gpus": 8, "crossovers": False}))
            advise = sched.submit(AdviseRequest.from_json(
                {"model": "resnet50", "gpus": 32, "world_sizes": [8],
                 "bandwidth_points": 16, "shard_points": 16}))
            assert entered.wait(30.0)
            final = sched.wait(whatif.id, timeout_s=10.0)
            assert final.status == "done"
            offline = recommend(get_model("resnet50"), cluster_for_gpus(8))
            assert final.result["rendered"] == offline.render()
            assert sched.get(advise.id).status == "running"
            release.set()
            assert sched.wait(advise.id, timeout_s=60.0).status == "done"
            assert sched.batches == 1
        finally:
            release.set()
            sched.close()

    def test_linger_is_measured_from_arrival(self, monkeypatch):
        engine = ExperimentEngine()
        started, ended = [], []
        run = engine.run_outcomes

        def timed(jobs):
            started.append(time.monotonic())
            if len(started) == 1:
                time.sleep(0.6)
            outcomes = run(jobs)
            ended.append(time.monotonic())
            return outcomes

        monkeypatch.setattr(engine, "run_outcomes", timed)
        sched = make_scheduler(engine=engine, batch_window_s=0.5)
        try:
            submitted = time.monotonic()
            first = sched.submit(simulate_request(seed=0))
            deadline = time.monotonic() + 30.0
            while not started and time.monotonic() < deadline:
                time.sleep(0.005)
            second = sched.submit(simulate_request(seed=1))
            assert sched.wait(first.id, timeout_s=30.0).status == "done"
            assert sched.wait(second.id, timeout_s=30.0).status == "done"
            # A lone request on an idle scheduler lingers the window, so
            # idle-time coalescing still happens ...
            assert started[0] - submitted >= 0.45
            # ... but one that queued behind a running batch has already
            # waited it out and runs as soon as that batch ends.
            assert started[1] - ended[0] < 0.25
            assert sched.batches == 2
        finally:
            sched.close()


def _wait_in_thread(sched, state, connection=True):
    """Wait on ``state`` from a thread, as a connection handler does;
    returns the thread (already started)."""
    thread = threading.Thread(
        target=sched.wait, args=(state.id,),
        kwargs={"timeout_s": 60.0, "connection": connection})
    thread.start()
    return thread


def _join(*threads):
    for thread in threads:
        thread.join(timeout=60.0)
        assert not thread.is_alive()


class TestEarlyClose:
    """The batch window closes early once every open client connection
    is blocked on a queued request.  The windows are wide (>= 1 s), so
    "early" and "full window" differ by far more than scheduling noise."""

    WINDOW_S = 1.0

    # 1e300 s is past what a lock can wait for: the linger must clamp
    # its wait, not kill the scheduler thread.
    @pytest.mark.parametrize("window_s", [5.0, 1e300])
    def test_batch_forms_once_every_connection_is_blocked(self, registry,
                                                          window_s):
        sched = make_scheduler(batch_window_s=window_s)
        try:
            for _ in range(2):
                sched.connection_opened()
            started = time.monotonic()
            states = [sched.submit(simulate_request(seed=s))
                      for s in range(2)]
            _join(*[_wait_in_thread(sched, s) for s in states])
            assert [sched.get(s.id).status for s in states] == ["done"] * 2
            assert time.monotonic() - started < 2.5
            assert sched.batches == 1 and sched.requests_coalesced == 2
            linger = registry.snapshot()["histograms"][
                "serving_batch_linger_s"]
            assert linger["count"] == 1 and linger["max"] < 2.5
        finally:
            sched.close()

    @pytest.mark.parametrize("connections,connection", [
        (0, False),  # no HTTP front end
        (1, False),  # an async submit: nobody is blocked on it
        (2, True),   # the second connection is open but idle
    ])
    def test_window_is_kept_while_a_request_can_arrive(
            self, connections, connection):
        sched = make_scheduler(batch_window_s=self.WINDOW_S)
        try:
            for _ in range(connections):
                sched.connection_opened()
            state = sched.submit(simulate_request())
            _join(_wait_in_thread(sched, state, connection=connection))
            final = sched.get(state.id)
            assert final.status == "done"
            assert final.finished_unix - final.submitted_unix \
                >= self.WINDOW_S * 0.9
        finally:
            sched.close()

    def test_closed_connection_releases_the_batch(self):
        sched = make_scheduler(batch_window_s=30.0)
        try:
            for _ in range(2):
                sched.connection_opened()
            state = sched.submit(simulate_request())
            thread = _wait_in_thread(sched, state)
            time.sleep(0.2)
            assert sched.get(state.id).status == "queued"
            sched.connection_closed()
            _join(thread)
            assert sched.get(state.id).status == "done"
        finally:
            sched.close()

    def test_blocked_batches_still_form_at_most_once_a_window(
            self, registry):
        # The second request is blocked on from its arrival, 0.4 s after
        # the first batch finished: its window counts from when the
        # first batch formed, so it lingers what is left of that window
        # rather than a full one, or none.
        sched = make_scheduler(batch_window_s=self.WINDOW_S)
        try:
            sched.connection_opened()
            first = sched.submit(simulate_request(seed=0))
            _join(_wait_in_thread(sched, first))
            time.sleep(0.4)
            second = sched.submit(simulate_request(seed=1))
            _join(_wait_in_thread(sched, second))
            assert [sched.get(s.id).status for s in (first, second)] \
                == ["done"] * 2
            linger = registry.snapshot()["histograms"][
                "serving_batch_linger_s"]
            assert linger["count"] == 2
            assert linger["min"] < 0.3
            assert 0.3 <= linger["max"] < self.WINDOW_S * 0.9
        finally:
            sched.close()

    def test_close_during_linger_returns_promptly(self):
        sched = make_scheduler(batch_window_s=30.0)
        state = sched.submit(simulate_request())
        time.sleep(0.1)
        started = time.monotonic()
        sched.close(timeout_s=10.0)
        assert time.monotonic() - started < 2.0
        assert not sched._thread.is_alive()
        assert sched.get(state.id).status == "failed"

    def test_terminal_request_no_longer_counts_as_blocked(
            self, monkeypatch):
        # Connection A's request runs (held in the engine) while B's
        # queues behind it.  Once A's request is done, A can send again,
        # so B's request lingers its window even if A's waiter has not
        # woken up yet when the scheduler looks.
        engine = ExperimentEngine()
        entered, release = threading.Event(), threading.Event()
        started = []
        run = engine.run_outcomes

        def held(jobs):
            started.append(time.monotonic())
            if len(started) == 1:
                entered.set()
                assert release.wait(60.0)
            return run(jobs)

        monkeypatch.setattr(engine, "run_outcomes", held)
        sched = make_scheduler(engine=engine,
                               batch_window_s=self.WINDOW_S)
        try:
            sched.connection_opened()
            first = sched.submit(simulate_request(seed=0))
            a = _wait_in_thread(sched, first)
            assert entered.wait(30.0)  # alone and blocked: no linger
            sched.connection_opened()
            second = sched.submit(simulate_request(seed=1))
            b = _wait_in_thread(sched, second)
            release.set()
            _join(a, b)
            assert sched.get(second.id).status == "done"
            assert started[1] - second.submitted_monotonic \
                >= self.WINDOW_S * 0.9
        finally:
            release.set()
            sched.close()


class TestWhatIf:
    def test_matches_offline_recommendation(self):
        sched = make_scheduler()
        try:
            request = WhatIfRequest.from_json(
                {"model": "resnet50", "gpus": 8, "crossovers": False})
            state = sched.submit(request)
            final = sched.wait(state.id, timeout_s=60.0)
            assert final.status == "done"
            offline = recommend(get_model("resnet50"), cluster_for_gpus(8))
            assert final.result["rendered"] == offline.render()
            assert final.result["best"] == offline.best.scheme_label
        finally:
            sched.close()

    def test_calibration_memo_is_bounded(self, monkeypatch):
        """More distinct bandwidths than the memo holds: it keeps at
        most its bound, and every answer, evicted keys re-asked
        included, is still what ``repro recommend`` prints."""
        monkeypatch.setattr(scheduler_module, "CALIBRATION_MEMO_SIZE", 4)
        bandwidths = [1.5 + 2.5 * i for i in range(10)]
        sched = make_scheduler()
        try:
            finals = []
            for gbps in bandwidths + bandwidths[:3]:
                state = sched.submit(WhatIfRequest.from_json(
                    {"model": "resnet50", "gpus": 8, "bandwidth": gbps,
                     "crossovers": False}))
                finals.append(sched.wait(state.id, timeout_s=60.0))
                assert len(sched._calibrations) <= 4
        finally:
            sched.close()
        for gbps, final in zip(bandwidths + bandwidths[:3], finals):
            cluster = cluster_for_gpus(8)
            cluster = cluster.with_instance(
                cluster.instance.with_network_gbps(gbps))
            offline = recommend(get_model("resnet50"), cluster)
            assert final.status == "done"
            assert final.result["rendered"] == offline.render()

    def test_crossovers_reported_per_compressed_scheme(self):
        sched = make_scheduler()
        try:
            request = WhatIfRequest.from_json(
                {"model": "resnet50", "gpus": 8})
            state = sched.submit(request)
            final = sched.wait(state.id, timeout_s=60.0)
            assert final.status == "done"
            crossovers = final.result["crossovers"]
            labels = {c["scheme"] for c in crossovers}
            assert "syncsgd" not in labels
            assert any(c["crossings"] for c in crossovers)
            for c in crossovers:
                for crossing in c["crossings"]:
                    assert 1.0 <= crossing["gbps"] <= 30.0
                    assert crossing["direction"] in ("down", "up")
        finally:
            sched.close()

    def test_verdict_rows_are_json_safe(self):
        import json

        sched = make_scheduler()
        try:
            state = sched.submit(WhatIfRequest.from_json(
                {"model": "vgg16", "gpus": 8, "crossovers": False}))
            final = sched.wait(state.id, timeout_s=60.0)
            assert final.status == "done"
            text = json.dumps(final.to_dict())  # strict JSON: no Infinity
            assert "Infinity" not in text
        finally:
            sched.close()


class TestWhatIfInPlace:
    """What-ifs are priced in place: the scheduler answers them with the
    offline advisor's own call and never touches the engine."""

    def test_whatifs_make_no_engine_call(self, tmp_path, open_cache):
        cache = open_cache(str(tmp_path / "cache"))
        sched = make_scheduler(engine=ExperimentEngine(cache=cache),
                               batch_window_s=0.1)
        try:
            states = [sched.submit(WhatIfRequest.from_json(
                {"model": model, "gpus": gpus}))
                for model in ("resnet50", "bert-base")
                for gpus in (8, 32)]
            finals = [sched.wait(s.id, timeout_s=60.0) for s in states]
            assert [f.status for f in finals] == ["done"] * 4
            assert sched.engine.jobs_completed == 0
            assert cache.stats.stores == 0
            assert cache.stats.lookups == 0
        finally:
            sched.close()

    def test_engine_failure_is_not_invalid(self, monkeypatch):
        # Even a ConfigurationError is internal when the engine raises
        # it: only planning and finishing judge the request itself.
        engine = ExperimentEngine()

        def broken(jobs):
            raise ConfigurationError("engine fault")

        monkeypatch.setattr(engine, "run_outcomes", broken)
        sched = make_scheduler(engine=engine)
        try:
            state = sched.submit(simulate_request())
            final = sched.wait(state.id, timeout_s=60.0)
            assert final.status == "failed"
            assert not final.invalid
        finally:
            sched.close()


def _whatif_bodies(count=20, seed=2026):
    """Seeded what-if bodies over the zoo, GPU counts, batch sizes and
    bandwidths; some batches are too large for any candidate."""
    rng = np.random.default_rng(seed)
    models = available_models()
    bodies = []
    for _ in range(count):
        body = {"model": models[rng.integers(len(models))],
                "gpus": int(rng.choice([4, 8, 12, 16, 24, 32, 48, 64, 96,
                                        128]))}
        if rng.random() < 0.7:
            body["batch"] = int(np.exp(rng.uniform(0.0, np.log(4096))))
        if rng.random() < 0.7:
            body["bandwidth"] = round(float(rng.uniform(0.5, 40.0)), 2)
        bodies.append(body)
    return bodies


def _offline_whatif(body):
    """``repro recommend`` plus ``solve_crossover`` for each feasible
    compressed candidate of the default menu, called directly."""
    model = get_model(body["model"])
    cluster = cluster_for_gpus(body["gpus"])
    if "bandwidth" in body:
        cluster = cluster.with_instance(
            cluster.instance.with_network_gbps(body["bandwidth"]))
    batch = body.get("batch")
    offline = recommend(model, cluster, batch_size=batch)
    feasible = {v.scheme_label for v in offline.verdicts if v.feasible}
    inputs = calibrate(model, cluster, batch_size=batch).inputs
    crossovers = [
        {"scheme": scheme.label,
         "crossings": [{"gbps": c.x, "direction": c.direction}
                       for c in solve_crossover(model, scheme, inputs,
                                                1.0, 30.0, gpu=cluster.gpu)]}
        for scheme in default_candidates()
        if scheme.label in feasible and not isinstance(scheme, SyncSGDScheme)]
    return offline, crossovers


def test_whatif_parity_property():
    bodies = _whatif_bodies()
    sched = make_scheduler()
    try:
        states = [sched.submit(WhatIfRequest.from_json(body))
                  for body in bodies]
        finals = [sched.wait(s.id, timeout_s=120.0) for s in states]
    finally:
        sched.close()
    for body, final in zip(bodies, finals):
        offline, crossovers = _offline_whatif(body)
        try:
            rendered = offline.render()
        except ConfigurationError as exc:
            assert final.status == "failed" and final.invalid, body
            assert final.error == f"ConfigurationError: {exc}", body
            continue
        assert final.status == "done", (body, final.error)
        expected = offline.to_dict()
        assert final.result["rendered"] == rendered, body
        assert final.result["best"] == expected["best"], body
        assert final.result["verdicts"] == expected["verdicts"], body
        assert final.result["crossovers"] == crossovers, body


class TestRequestValidation:
    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError):
            WhatIfRequest.from_json({"model": "resnet50", "gpu": 8})

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError):
            WhatIfRequest.from_json({"model": "resnet9000"})

    def test_bad_scheme_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulateRequest.from_json({"scheme": "powersgd:rank=banana"})

    def test_seed_and_seeds_conflict(self):
        with pytest.raises(ConfigurationError):
            SimulateRequest.from_json({"seed": 0, "seeds": [1]})

    def test_seeds_capped(self):
        with pytest.raises(ConfigurationError):
            SimulateRequest.from_json({"seeds": list(range(1000))})

    def test_iterations_must_exceed_warmup(self):
        with pytest.raises(ConfigurationError):
            SimulateRequest.from_json({"iterations": 5})
