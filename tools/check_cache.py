#!/usr/bin/env python
"""End-to-end smoke check of the tiered simulation cache.

``make cache-smoke`` (and the CI job of the same name) runs this tool,
which drives the populate → re-serve → verify roundtrip on a real cache
directory:

* a cold ``repro experiment`` run populates a cache (pack tier) and
  records its exhibit digest in the manifest;
* a warm run over the same directory must be all cache hits (zero
  re-simulation), every hit served by the pack tier, with the
  *identical* exhibit digest;
* ``repro cache verify`` must report every entry healthy;
* a real ``repro serve --cache-preload --cache-mem-mb`` boots over
  the directory and its ``/healthz`` must show the hot tier warm
  before any request arrived;
* a directory holding one pack record whose payload is not an object
  (``[]``) must fail ``repro cache verify`` with its ``FAILED`` line and
  no traceback, and a run over it must still succeed with the cold
  digest;
* a copy of the warm directory whose index ends in a torn line must
  serve every intact entry (no re-simulation, the cold digest) and
  report exactly 1 truncated index entry;
* finally a copy in which one result's newest record has empty samples
  must fail ``repro cache verify``, re-simulate exactly that job with
  the cold digest, and verify clean afterwards.

Exits non-zero with one problem per line on stderr, so the make target
fails loudly and the CI log says exactly which guarantee broke.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import urllib.request
from typing import Dict, List, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.engine import PackStore  # noqa: E402
from repro.engine.pack import INDEX_FILENAME  # noqa: E402

#: The exhibit the smoke run sweeps: small but simulator-backed, so the
#: cache actually carries outcomes (analytic exhibits would cache
#: nothing).
EXHIBIT = "fig7"

ENV = {**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")}


def _repro(*args: str, timeout: int = 300) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, timeout=timeout, env=ENV)


def _manifest(cache_dir: str) -> Dict:
    with open(os.path.join(cache_dir, "manifest.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def _run_exhibit(cache_dir: str, problems: List[str],
                 label: str) -> Optional[Dict]:
    """One ``repro experiment`` run; returns its manifest."""
    proc = _repro("experiment", EXHIBIT, "--cache", cache_dir)
    if proc.returncode != 0:
        problems.append(f"{label}: experiment exited "
                        f"{proc.returncode}: {proc.stderr.strip()}")
        return None
    return _manifest(cache_dir)


def check_roundtrip(workdir: str) -> List[str]:
    """Drive the populate → re-serve → verify assertions."""
    problems: List[str] = []

    # --- 1. cold run: the ground-truth digest
    cold_dir = os.path.join(workdir, "cold")
    cold = _run_exhibit(cold_dir, problems, "cold run")
    if cold is None:
        return problems
    digest = cold["results"]["exhibits"][EXHIBIT]["digest"]
    if cold["results"]["cache"]["pack"]["entries"] == 0:
        problems.append("cold run packed no entries")

    # --- 2. warm run over the same directory: all pack hits, same digest
    warm = _run_exhibit(cold_dir, problems, "warm run")
    if warm is not None:
        stats = warm["results"]["engine"]
        if stats["cache_misses"] != 0 or stats["cache_hits"] == 0:
            problems.append(
                f"warm run re-simulated: {stats['cache_hits']} "
                f"hits / {stats['cache_misses']} misses")
        if stats["cache_pack_hits"] != stats["cache_hits"]:
            problems.append(
                f"warm run was not served by the pack tier: "
                f"{stats['cache_pack_hits']} pack hits / "
                f"{stats['cache_hits']} hits")
        warm_digest = warm["results"]["exhibits"][EXHIBIT]["digest"]
        if warm_digest != digest:
            problems.append(f"warm digest {warm_digest} != cold {digest}")

    # --- 3. verify reports everything healthy
    proc = _repro("cache", "verify", "--cache", cold_dir)
    if proc.returncode != 0:
        problems.append(f"cache verify exited {proc.returncode}:\n"
                        f"{proc.stdout.strip()}")

    # --- 4. a real preloaded server boots warm over the directory
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache", cold_dir, "--cache-mem-mb", "16",
         "--cache-preload"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=ENV)
    try:
        base = None
        for _ in range(2):  # preload line, then the listening line
            line = server.stdout.readline()
            if "listening on" in line:
                base = line.strip().rsplit(" ", 1)[-1]
                break
        if base is None:
            problems.append("preloaded server never started listening")
        else:
            with urllib.request.urlopen(base + "/healthz",
                                        timeout=60) as resp:
                health = json.loads(resp.read())
            memory = (health.get("cache") or {}).get("memory") or {}
            if not memory.get("entries"):
                problems.append(
                    f"preloaded server booted with a cold hot tier: "
                    f"{memory}")
    finally:
        server.terminate()
        server.wait(timeout=10)

    # --- 5. a non-object record fails verify cleanly, and runs still work
    bad_dir = os.path.join(workdir, "non-object")
    os.makedirs(bad_dir)
    store = PackStore(bad_dir)
    store.append_many([("0" * 64, [])])
    store.close()
    proc = _repro("cache", "verify", "--cache", bad_dir)
    if proc.returncode != 1 or "FAILED" not in proc.stdout \
            or "Traceback" in proc.stderr:
        problems.append(
            f"verify over a non-object record exited {proc.returncode} "
            f"(want 1 with a FAILED line, no traceback):\n"
            f"{proc.stdout.strip()}\n{proc.stderr.strip()}")
    bad = _run_exhibit(bad_dir, problems, "run over a non-object record")
    if bad is not None:
        bad_digest = bad["results"]["exhibits"][EXHIBIT]["digest"]
        if bad_digest != digest:
            problems.append(f"digest over a non-object record "
                            f"{bad_digest} != cold {digest}")

    # --- 6. a torn index tail: intact entries serve, one is truncated
    torn_dir = os.path.join(workdir, "torn-index")
    shutil.copytree(cold_dir, torn_dir)
    with open(os.path.join(torn_dir, INDEX_FILENAME), "a",
              encoding="utf-8") as handle:
        handle.write('{"k":"' + "0" * 64 + '","s":"pack-0')
    torn = _run_exhibit(torn_dir, problems, "run over a torn index")
    if torn is not None:
        stats = torn["results"]["engine"]
        truncated = torn["results"]["cache"]["pack"]["truncated"]
        if stats["cache_misses"] != 0 or truncated != 1:
            problems.append(
                f"torn index tail: {stats['cache_misses']} misses and "
                f"{truncated} truncated (want 0 and 1)")
        if torn["results"]["exhibits"][EXHIBIT]["digest"] != digest:
            problems.append("digest over a torn index differs from cold")

    # --- 7. an empty-sample result record: flagged, then re-simulated
    empty_dir = os.path.join(workdir, "empty-samples")
    shutil.copytree(cold_dir, empty_dir)
    store = PackStore(empty_dir)
    key = next(key for key in sorted(store.index)
               if store.lookup(key).get("kind") == "result")
    store.append_many([(key, {**store.lookup(key), "sync_times": "",
                              "iteration_times": ""})])
    store.close()
    proc = _repro("cache", "verify", "--cache", empty_dir)
    if proc.returncode != 1 or "FAILED" not in proc.stdout:
        problems.append(
            f"verify over an empty-sample record exited "
            f"{proc.returncode} (want 1 with a FAILED line):\n"
            f"{proc.stdout.strip()}")
    empty = _run_exhibit(empty_dir, problems,
                         "run over an empty-sample record")
    if empty is not None:
        misses = empty["results"]["engine"]["cache_misses"]
        if misses != 1:
            problems.append(f"empty-sample record: {misses} misses "
                            f"(want 1, the job re-simulated)")
        if empty["results"]["exhibits"][EXHIBIT]["digest"] != digest:
            problems.append("digest over an empty-sample record differs "
                            "from cold")
        proc = _repro("cache", "verify", "--cache", empty_dir)
        if proc.returncode != 0:
            problems.append(f"verify after re-simulating the empty-sample "
                            f"record exited {proc.returncode}:\n"
                            f"{proc.stdout.strip()}")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns 0 when the roundtrip checks out."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", action="store_true",
                        help="keep the scratch cache directories "
                             "(default: delete them)")
    args = parser.parse_args(argv)

    workdir = tempfile.mkdtemp(prefix="cache-smoke-")
    try:
        problems = check_roundtrip(workdir)
    finally:
        if args.keep:
            print(f"scratch kept at {workdir}")
        else:
            shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(problem, file=sys.stderr)
    if not problems:
        print(f"cache ok: a warm re-serve, verify, a preloaded serve, a "
              f"non-object record, a torn index and an empty-sample record "
              f"all byte-stable on {EXHIBIT}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
