#!/usr/bin/env python
"""End-to-end smoke check of ``repro serve``.

``make serve-smoke`` (and the CI job of the same name) runs this tool,
which boots a real server on an ephemeral port and drives the
acceptance criteria through plain HTTP:

* ``GET /healthz`` answers with scheduler counters;
* 20 sequential ``GET /healthz`` requests on one keep-alive connection
  take under 20 ms at p50 — no Nagle / delayed-ACK stall per response;
* a ``POST /v1/whatif`` round trip returns the **same ranked
  recommendation bytes** as the offline ``repro recommend`` CLI for
  the same inputs;
* a ``POST /v1/whatif`` whose batch no candidate fits in memory is a
  structured 4xx naming the cause, as ``repro recommend`` exits 2 for
  it — not a 500;
* three concurrent seed-varied ``POST /v1/simulate`` requests are
  observably coalesced into one scheduler batch
  (``serving_batch_occupancy`` > 1 on ``/metrics``);
* an over-quota tenant is rejected with a structured 429 carrying
  ``Retry-After``;
* ``GET /metrics`` passes
  :func:`repro.telemetry.metrics.validate_prometheus_text` and carries
  the serving series.

Exits non-zero with one problem per line on stderr, so the make target
fails loudly and the CI log says exactly which guarantee broke.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import Any, Dict, List, Optional, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.telemetry.metrics import validate_prometheus_text  # noqa: E402

#: Ceiling on the p50 of a keep-alive ``GET /healthz`` round trip; a
#: Nagle / delayed-ACK stall costs about 40 ms per response.
KEEPALIVE_P50_MS = 20.0

#: Metric series the smoke run must leave on /metrics.
REQUIRED_SERIES = ("serving_requests_total", "serving_batch_occupancy",
                   "serving_rejected_total")


def _post(base: str, path: str, body: Dict[str, Any],
          tenant: Optional[str] = None) -> Tuple[int, Dict[str, Any]]:
    headers = {"Content-Type": "application/json"}
    if tenant:
        headers["X-Tenant"] = tenant
    request = urllib.request.Request(
        base + path, data=json.dumps(body).encode("utf-8"),
        headers=headers)
    with urllib.request.urlopen(request, timeout=120) as resp:
        return resp.status, json.loads(resp.read())


def _get(base: str, path: str) -> Tuple[int, bytes]:
    with urllib.request.urlopen(base + path, timeout=60) as resp:
        return resp.status, resp.read()


def _poll(base: str, job_id: str, timeout_s: float = 120.0,
          ) -> Dict[str, Any]:
    deadline = time.monotonic() + timeout_s
    state: Dict[str, Any] = {"status": "unknown"}
    while time.monotonic() < deadline:
        _, raw = _get(base, f"/v1/jobs/{job_id}?wait_s=10")
        state = json.loads(raw)
        if state["status"] in ("done", "failed", "expired"):
            break
    return state


def _keepalive_p50_ms(base: str, requests: int = 20) -> float:
    """Median wall of sequential ``GET /healthz`` round trips on one
    keep-alive connection, in milliseconds."""
    url = urllib.parse.urlsplit(base)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=30)
    walls = []
    try:
        for _ in range(requests):
            started = time.perf_counter()
            conn.request("GET", "/healthz")
            conn.getresponse().read()
            walls.append(time.perf_counter() - started)
    finally:
        conn.close()
    return statistics.median(walls) * 1e3


def check_server(base: str) -> List[str]:
    """Drive every smoke assertion against a live server."""
    problems: List[str] = []

    # --- healthz
    status, raw = _get(base, "/healthz")
    health = json.loads(raw)
    if status != 200 or health.get("status") != "ok":
        problems.append(f"healthz: {status} {health}")

    # --- keep-alive round trips must not stall on Nagle
    p50_ms = _keepalive_p50_ms(base)
    if p50_ms >= KEEPALIVE_P50_MS:
        problems.append(f"keep-alive GET /healthz p50 is {p50_ms:.1f} ms "
                        f"(ceiling {KEEPALIVE_P50_MS:.0f} ms)")

    # --- whatif round trip, byte-for-byte vs the offline CLI
    offline = subprocess.run(
        [sys.executable, "-m", "repro", "recommend",
         "--model", "resnet50", "--gpus", "8"],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")})
    if offline.returncode != 0:
        problems.append(f"offline recommend failed: {offline.stderr}")
    status, body = _post(base, "/v1/whatif",
                         {"model": "resnet50", "gpus": 8})
    if status != 200 or body.get("status") != "done":
        problems.append(f"whatif: {status} status={body.get('status')} "
                        f"error={body.get('error')}")
    elif body["result"]["rendered"] + "\n" != offline.stdout:
        problems.append(
            "whatif response does not match `repro recommend` "
            f"byte-for-byte:\n--- served ---\n"
            f"{body['result']['rendered']}\n--- offline ---\n"
            f"{offline.stdout}")
    elif not any(c["crossings"] for c in body["result"]["crossovers"]):
        problems.append("whatif: no crossover bandwidths in response")

    # --- a whatif no candidate fits is a structured 4xx, not a 500
    try:
        status, _ = _post(base, "/v1/whatif",
                          {"model": "bert-base", "gpus": 8,
                           "batch": 100000, "crossovers": False})
        problems.append(f"infeasible whatif answered {status}, not 4xx")
    except urllib.error.HTTPError as exc:
        error = json.loads(exc.read()).get("error")
        if not 400 <= exc.code < 500:
            problems.append(f"infeasible whatif answered {exc.code}, "
                            f"not 4xx: {error}")
        elif not isinstance(error, dict) \
                or "no feasible candidate" not in error.get("message", ""):
            problems.append(f"unstructured infeasible-whatif {exc.code} "
                            f"body: {error}")

    # --- three concurrent seed-varied simulations must coalesce
    job_ids = []
    for seed in range(3):
        status, body = _post(base, "/v1/simulate",
                             {"model": "resnet50", "gpus": 8,
                              "iterations": 20, "seed": seed})
        if status != 202:
            problems.append(f"simulate submit: {status} {body}")
        job_ids.append(body.get("id"))
    for job_id in job_ids:
        state = _poll(base, job_id)
        if state["status"] != "done":
            problems.append(f"simulate job {job_id}: "
                            f"{state['status']} {state.get('error')}")

    # --- over-quota tenant gets a structured 429 with Retry-After
    rejected = False
    for seed in range(20):
        try:
            _post(base, "/v1/simulate",
                  {"model": "resnet50", "gpus": 8, "iterations": 20,
                   "seed": 100 + seed}, tenant="burst-probe")
        except urllib.error.HTTPError as exc:
            if exc.code != 429:
                problems.append(f"quota rejection was {exc.code}, not 429")
            elif not exc.headers.get("Retry-After"):
                problems.append("429 without a Retry-After header")
            else:
                error = json.loads(exc.read())["error"]
                if error.get("code") != "quota" \
                        or not error.get("retry_after_s"):
                    problems.append(f"unstructured 429 body: {error}")
            rejected = True
            break
    if not rejected:
        problems.append("burst of 20 requests never hit the tenant quota")

    # --- metrics: valid exposition + the serving series + occupancy > 1
    status, raw = _get(base, "/metrics")
    text = raw.decode("utf-8")
    problems += [f"metrics: {p}" for p in validate_prometheus_text(text)]
    for series in REQUIRED_SERIES:
        if f"\n{series}" not in f"\n{text}":
            problems.append(f"metrics: missing series {series!r}")
    occupancy = None
    for line in text.splitlines():
        if line.startswith("serving_batch_occupancy"):
            occupancy = float(line.rsplit(" ", 1)[-1])
    if occupancy is None or occupancy <= 1:
        problems.append(
            f"serving_batch_occupancy is {occupancy} — concurrent "
            "compatible requests were not coalesced")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns 0 when the service checks out."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", metavar="URL", default=None,
                        help="base URL of an already-running server "
                             "(default: spawn one on an ephemeral port)")
    args = parser.parse_args(argv)

    server = None
    base = args.base
    if base is None:
        # Wide batch window so the three concurrent submissions land in
        # one batch; tight per-tenant quota so the burst probe trips it.
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--batch-window-ms", "300", "--quota-rps", "0.5",
             "--quota-burst", "8"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ,
                 "PYTHONPATH": os.path.join(REPO_ROOT, "src")})
        line = server.stdout.readline()
        if "listening on" not in line:
            print(f"server did not start: {line!r}", file=sys.stderr)
            return 1
        base = line.strip().rsplit(" ", 1)[-1]
    try:
        problems = check_server(base)
    finally:
        if server is not None:
            server.terminate()
            server.wait(timeout=10)
    for problem in problems:
        print(problem, file=sys.stderr)
    if not problems:
        print(f"serve ok: {base} — healthz, keep-alive round trip, "
              f"whatif parity, infeasible whatif 4xx, coalescing, "
              f"quota 429, metrics all verified")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
