#!/usr/bin/env python
"""End-to-end smoke check of the auto-advisor.

``make advise-smoke`` (and the CI job of the same name) runs this tool,
which drives the advisor's acceptance criteria through the real entry
points:

* ``repro advise`` with the default grid prices **at least one million
  configurations** and prints a non-empty Pareto frontier containing
  the syncsgd baseline;
* the sharded-parallel run (``--jobs 2``) produces **byte-identical
  stdout** to the serial run;
* the default sweep run cold and then warm against one ``--cache``
  directory prints **byte-identical stdout** to the uncached run, and
  leaves the directory **under 1 MB** (shards cache their Pareto
  survivors, not every priced total);
* a real ``repro serve`` instance answers ``POST /v1/advise`` with
  ``status: done``, a frontier, and a rendered report **byte-identical
  to the offline CLI** for the same (serving-sized) grid;
* two concurrent ``/v1/advise`` requests for the same model and
  cluster with different ``bandwidth_points`` **coalesce into one
  engine batch** (their shards share candidate families, so one fused
  family mixes two axes) and each rendered report still equals its own
  offline CLI render.

Exits non-zero with one problem per line on stderr, so the make target
fails loudly and the CI log says exactly which guarantee broke.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import threading
import urllib.request
from typing import Any, Dict, List, Optional, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

#: Floor on the configurations a default ``repro advise`` run sweeps.
MIN_CONFIGS = 1_000_000

#: Ceiling on the bytes a default ``repro advise --cache DIR`` sweep
#: leaves in ``DIR``.
MAX_CACHE_BYTES = 1_000_000

#: Serving-sized grid driven through both the CLI and ``/v1/advise``
#: for the byte-parity check (small enough for interactive latency).
PARITY_ARGS = {"model": "resnet50", "gpus": 32, "world_sizes": [8, 16],
               "bandwidth_points": 64, "shard_points": 32}

#: A second grid for the same model and cluster, sent concurrently with
#: :data:`PARITY_ARGS`: another axis length and an uneven last shard.
MIXED_ARGS = {**PARITY_ARGS, "bandwidth_points": 48}

#: Batch window of the spawned server: wide enough that the two
#: concurrent requests always land in one batch.
SPAWN_BATCH_WINDOW_MS = 250

_ENV = {**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")}


def _run_advise(extra: List[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", "advise"] + extra,
        capture_output=True, text=True, timeout=600, env=_ENV)


def _parity_argv(jobs: int, args: Dict[str, Any] = PARITY_ARGS,
                 ) -> List[str]:
    return ["--model", args["model"],
            "--gpus", str(args["gpus"]),
            "--world-sizes", *[str(p) for p in args["world_sizes"]],
            "--bandwidth-points", str(args["bandwidth_points"]),
            "--shard-points", str(args["shard_points"]),
            "--jobs", str(jobs)]


def check_cli() -> Tuple[List[str], str, str]:
    """The offline acceptance criteria; returns (problems, serial out
    for :data:`PARITY_ARGS`, serial out for :data:`MIXED_ARGS`)."""
    problems: List[str] = []

    # --- the default grid crosses the million-config line
    full = _run_advise([])
    if full.returncode != 0:
        problems.append(f"default advise failed: {full.stderr}")
        return problems, "", ""
    configs = None
    for line in full.stdout.splitlines():
        if "= " in line and line.rstrip().endswith("configs"):
            configs = int(line.rsplit("= ", 1)[1].split()[0]
                          .replace(",", ""))
    if configs is None:
        problems.append("default advise printed no config count")
    elif configs < MIN_CONFIGS:
        problems.append(f"default advise swept only {configs:,} configs "
                        f"(< {MIN_CONFIGS:,})")
    if "Pareto frontier" not in full.stdout:
        problems.append("default advise printed no Pareto frontier")
    if "syncsgd" not in full.stdout:
        problems.append("default advise frontier lost the syncsgd "
                        "baseline")

    problems += check_cache(full.stdout)

    # --- sharded-parallel output is byte-identical to serial
    serial = _run_advise(_parity_argv(jobs=1))
    parallel = _run_advise(_parity_argv(jobs=2))
    if serial.returncode != 0 or parallel.returncode != 0:
        problems.append(f"parity advise failed: {serial.stderr} "
                        f"{parallel.stderr}")
    elif serial.stdout != parallel.stdout:
        problems.append(
            "sharded-parallel advise output differs from serial:\n"
            f"--- serial ---\n{serial.stdout}\n"
            f"--- parallel ---\n{parallel.stdout}")
    mixed = _run_advise(_parity_argv(1, MIXED_ARGS))
    if mixed.returncode != 0:
        problems.append(f"mixed-axis advise failed: {mixed.stderr}")
    return problems, serial.stdout, mixed.stdout


def check_cache(uncached_stdout: str) -> List[str]:
    """Cold then warm default sweep on one cache directory: the same
    bytes as the uncached run, and a directory under the ceiling."""
    problems: List[str] = []
    with tempfile.TemporaryDirectory() as directory:
        for run in ("cold", "warm"):
            cached = _run_advise(["--cache", directory])
            if cached.returncode != 0:
                problems.append(f"{run} --cache advise failed: "
                                f"{cached.stderr}")
                return problems
            if cached.stdout != uncached_stdout:
                problems.append(
                    f"{run} --cache advise output differs from the "
                    f"uncached run:\n--- uncached ---\n{uncached_stdout}"
                    f"\n--- {run} ---\n{cached.stdout}")
        size = sum(entry.stat().st_size for entry in os.scandir(directory)
                   if entry.is_file())
    if size >= MAX_CACHE_BYTES:
        problems.append(f"default advise cache holds {size:,} bytes "
                        f"(>= {MAX_CACHE_BYTES:,})")
    return problems


def _post_advise(base: str, body: Dict[str, Any],
                 ) -> Tuple[int, Dict[str, Any]]:
    request = urllib.request.Request(
        base + "/v1/advise", data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=300) as resp:
        return resp.status, json.loads(resp.read())


def _served_problems(label: str, status: int, reply: Dict[str, Any],
                     offline_stdout: str) -> List[str]:
    """What is wrong with one ``/v1/advise`` reply, against the offline
    CLI render of the same grid."""
    if status != 200 or reply.get("status") != "done":
        return [f"{label}: {status} status={reply.get('status')} "
                f"error={reply.get('error')}"]
    result: Dict[str, Any] = reply["result"]
    problems: List[str] = []
    if not result.get("frontier"):
        problems.append(f"{label} returned an empty frontier")
    if result.get("rendered", "") + "\n" != offline_stdout:
        problems.append(
            f"{label} response does not match `repro advise` "
            f"byte-for-byte:\n--- served ---\n{result.get('rendered')}"
            f"\n--- offline ---\n{offline_stdout}")
    return problems


def check_serving(base: str, offline_stdout: str) -> List[str]:
    """``POST /v1/advise`` parity against the offline CLI report."""
    status, reply = _post_advise(base, dict(PARITY_ARGS))
    return _served_problems("/v1/advise", status, reply, offline_stdout)


def _coalesced(base: str) -> int:
    with urllib.request.urlopen(base + "/healthz", timeout=30) as resp:
        return int(json.loads(resp.read())["requests_coalesced"])


def check_coalesced(base: str, offline: Dict[str, str]) -> List[str]:
    """Two concurrent ``/v1/advise`` requests that differ only in
    ``bandwidth_points``: one engine batch, and each reply equal to its
    own offline render."""
    bodies = {"parity": dict(PARITY_ARGS), "mixed": dict(MIXED_ARGS)}
    replies: Dict[str, Any] = {}
    start = threading.Barrier(len(bodies))

    def send(name: str) -> None:
        start.wait(timeout=30)
        try:
            replies[name] = _post_advise(base, bodies[name])
        except Exception as exc:  # noqa: BLE001 - reported below
            replies[name] = exc

    before = _coalesced(base)
    threads = [threading.Thread(target=send, args=(name,))
               for name in bodies]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    problems: List[str] = []
    for name in bodies:
        label = f"concurrent /v1/advise ({name})"
        reply = replies.get(name)
        if reply is None:
            problems.append(f"{label} did not return")
        elif isinstance(reply, Exception):
            problems.append(f"{label}: {reply}")
        else:
            problems += _served_problems(label, *reply, offline[name])
    if _coalesced(base) - before < len(bodies):
        problems.append("the two concurrent /v1/advise requests did not "
                        "coalesce into one batch")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns 0 when the advisor checks out."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", metavar="URL", default=None,
                        help="base URL of an already-running server "
                             "(default: spawn one on an ephemeral port)")
    args = parser.parse_args(argv)

    problems, offline_stdout, mixed_stdout = check_cli()

    server = None
    base = args.base
    if base is None:
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--batch-window-ms", str(SPAWN_BATCH_WINDOW_MS)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=_ENV)
        line = server.stdout.readline()
        if "listening on" not in line:
            print(f"server did not start: {line!r}", file=sys.stderr)
            return 1
        base = line.strip().rsplit(" ", 1)[-1]
    try:
        if offline_stdout:
            problems += check_serving(base, offline_stdout)
        if offline_stdout and mixed_stdout:
            problems += check_coalesced(
                base, {"parity": offline_stdout, "mixed": mixed_stdout})
    finally:
        if server is not None:
            server.terminate()
            server.wait(timeout=10)
    for problem in problems:
        print(problem, file=sys.stderr)
    if not problems:
        print(f"advise ok: {base} — million-config sweep, cold/warm "
              f"cache parity and size, jobs parity, /v1/advise parity, "
              f"coalesced mixed-axis parity all verified")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
