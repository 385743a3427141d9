PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint bench bench-contract bench-smoke trace-smoke serve-smoke cache-smoke advise-smoke examples

## tier-1: the fast unit/behaviour suite (benchmarks/ excluded)
test:
	$(PYTHON) -m pytest

## static checks: ruff (config in pyproject.toml, benchmarks/ excluded),
## docstring coverage of the public fault/engine/serving API, and the
## docs lint (dead links, stale cross-references, phantom CLI flags)
lint:
	ruff check src tests examples
	$(PYTHON) tools/check_docstrings.py
	$(PYTHON) tools/check_doc_links.py

## full-fidelity paper-exhibit regeneration (slow, opt-in); refreshes
## the simulator perf baseline (BENCH_simulator.json) first
bench:
	$(PYTHON) tools/bench_simulator.py
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

## the benchmark harness's own contract: its probes still bind to the
## engine, cache and kernel functions they wrap, its workloads run and
## its ledger still parses the program's spans.  Tier-1 cannot see a
## renamed or deleted probe target; this can.
bench-contract:
	$(PYTHON) -m pytest bench/tests -q

## one fast figure through the parallel engine + result cache (a second
## invocation should report a ~100% cache hit rate), then the perf
## regression gate against the checked-in BENCH_simulator.json
bench-smoke:
	$(PYTHON) -m repro experiment fig7 --jobs 2 --cache .sim-cache
	$(PYTHON) tools/bench_simulator.py --check

## one tiny exhibit through the pooled engine with run tracing on, then
## validate the two observability artifacts it produced: the Perfetto
## trace (engine + worker-<pid> processes, span identity in args) and
## the Prometheus snapshot written beside the manifest
trace-smoke:
	rm -rf .trace-cache   # cold on purpose: a warm run executes no jobs,
	                      # so there would be no worker spans to validate
	$(PYTHON) -m repro experiment fig3 --jobs 2 --cache .trace-cache \
		--trace-run .trace-cache/run.json
	$(PYTHON) -m repro metrics --cache .trace-cache --format prom > /dev/null
	$(PYTHON) tools/check_trace.py --trace .trace-cache/run.json \
		--prom .trace-cache/metrics.prom

## boot a real `repro serve` on an ephemeral port and drive the service
## guarantees end to end: /healthz, whatif byte-parity with the offline
## `repro recommend`, coalescing of concurrent requests
## (serving_batch_occupancy > 1), a structured 429 for an over-quota
## tenant, and a /metrics page that passes the Prometheus validator
serve-smoke:
	$(PYTHON) tools/check_serving.py

## the auto-advisor end to end: a default `repro advise` run sweeping
## >= 1M configurations, byte-parity of sharded-parallel (--jobs 2)
## vs serial output, and a `POST /v1/advise` round trip whose rendered
## report matches the offline CLI byte-for-byte
advise-smoke:
	$(PYTHON) tools/check_advise.py

## the tiered-cache roundtrip on a real cache directory: a cold sweep
## populates packs, the same entries replayed from a legacy-era layout
## (all hits, same digest), `repro cache compact` + `verify`, a
## re-serve from the packed layout (same digest again), and a
## `repro serve --cache-preload` boot whose /healthz shows the hot
## tier warm before any request
cache-smoke:
	$(PYTHON) tools/check_cache.py

## run every example headlessly in smoke mode (trimmed protocols, <60 s
## total); CI runs this on every push
examples:
	@set -e; for f in examples/*.py; do \
		echo "== $$f"; \
		REPRO_EXAMPLES_SMOKE=1 $(PYTHON) $$f > /dev/null; \
	done
	@echo "all examples passed"
