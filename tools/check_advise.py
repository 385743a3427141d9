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
  to the offline CLI** for the same (serving-sized) grid.

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

_ENV = {**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")}


def _run_advise(extra: List[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", "advise"] + extra,
        capture_output=True, text=True, timeout=600, env=_ENV)


def _parity_argv(jobs: int) -> List[str]:
    return ["--model", PARITY_ARGS["model"],
            "--gpus", str(PARITY_ARGS["gpus"]),
            "--world-sizes",
            *[str(p) for p in PARITY_ARGS["world_sizes"]],
            "--bandwidth-points", str(PARITY_ARGS["bandwidth_points"]),
            "--shard-points", str(PARITY_ARGS["shard_points"]),
            "--jobs", str(jobs)]


def check_cli() -> Tuple[List[str], str]:
    """The offline acceptance criteria; returns (problems, serial out)."""
    problems: List[str] = []

    # --- the default grid crosses the million-config line
    full = _run_advise([])
    if full.returncode != 0:
        problems.append(f"default advise failed: {full.stderr}")
        return problems, ""
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
    return problems, serial.stdout


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


def check_serving(base: str, offline_stdout: str) -> List[str]:
    """``POST /v1/advise`` parity against the offline CLI report."""
    problems: List[str] = []
    body = dict(PARITY_ARGS)
    request = urllib.request.Request(
        base + "/v1/advise", data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=300) as resp:
        status, reply = resp.status, json.loads(resp.read())
    if status != 200 or reply.get("status") != "done":
        problems.append(f"/v1/advise: {status} "
                        f"status={reply.get('status')} "
                        f"error={reply.get('error')}")
        return problems
    result: Dict[str, Any] = reply["result"]
    if not result.get("frontier"):
        problems.append("/v1/advise returned an empty frontier")
    if result.get("rendered", "") + "\n" != offline_stdout:
        problems.append(
            "/v1/advise response does not match `repro advise` "
            f"byte-for-byte:\n--- served ---\n{result.get('rendered')}"
            f"\n--- offline ---\n{offline_stdout}")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns 0 when the advisor checks out."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", metavar="URL", default=None,
                        help="base URL of an already-running server "
                             "(default: spawn one on an ephemeral port)")
    args = parser.parse_args(argv)

    problems, offline_stdout = check_cli()

    server = None
    base = args.base
    if base is None:
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
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
    finally:
        if server is not None:
            server.terminate()
            server.wait(timeout=10)
    for problem in problems:
        print(problem, file=sys.stderr)
    if not problems:
        print(f"advise ok: {base} — million-config sweep, cold/warm "
              f"cache parity and size, jobs parity, /v1/advise parity "
              f"all verified")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
