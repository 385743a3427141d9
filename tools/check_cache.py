#!/usr/bin/env python
"""End-to-end smoke check of the tiered simulation cache.

``make cache-smoke`` (and the CI job of the same name) runs this tool,
which drives the compact → verify → re-serve roundtrip on a real cache
directory:

* a cold ``repro experiment`` run populates a cache (pack tier) and
  records its exhibit digest in the manifest;
* the same entries are rewritten as a **legacy-era directory** (one
  JSON file per key, no packs) — exactly what a pre-pack checkout
  would have left behind;
* a warm run over the legacy directory must be all cache hits (zero
  re-simulation) with the *identical* exhibit digest, every hit served
  by the pack tier and no per-key file left: opening the directory
  packed them;
* ``repro cache compact`` must succeed, ``repro cache verify`` must
  report every entry healthy, and no per-key files may remain;
* a second warm run over the now-packed directory must again be all
  hits with the same digest — compaction changed the layout, not one
  byte of any outcome;
* a real ``repro serve --cache-preload --cache-mem-mb`` boots over
  the packed directory and its ``/healthz`` must show the hot tier
  warm before any request arrived;
* finally a legacy-era directory holding one non-object (``[]``) entry
  must fail ``repro cache verify`` with its ``FAILED`` line and no
  traceback, and a run over it must still succeed with the cold
  digest.

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

from repro.engine import SimulationCache  # noqa: E402

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


def _per_key_files(cache_dir: str) -> List[str]:
    return [n for n in os.listdir(cache_dir)
            if n.endswith(".json")
            and len(n) == 69]  # 64-hex + ".json"


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
    """Drive the compact → verify → re-serve assertions."""
    problems: List[str] = []

    # --- 1. cold run: the ground-truth digest
    cold_dir = os.path.join(workdir, "cold")
    cold = _run_exhibit(cold_dir, problems, "cold run")
    if cold is None:
        return problems
    digest = cold["results"]["exhibits"][EXHIBIT]["digest"]
    if cold["results"]["cache"]["pack"]["entries"] == 0:
        problems.append("cold run packed no entries")

    # --- 2. rebuild those entries as a legacy-era directory
    legacy_dir = os.path.join(workdir, "legacy")
    source = SimulationCache(cold_dir)
    legacy_keys = 0
    os.makedirs(legacy_dir, exist_ok=True)
    for key, payload in source.packs.scan():
        with open(os.path.join(legacy_dir, f"{key}.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(payload, handle)
        legacy_keys += 1
    source.close()
    if legacy_keys == 0:
        problems.append("no pack entries to rebuild as legacy files")
        return problems

    # --- 3. warm run over the legacy layout: all hits, same digest
    warm = _run_exhibit(legacy_dir, problems, "legacy warm run")
    if warm is not None:
        stats = warm["results"]["engine"]
        if stats["cache_misses"] != 0 or stats["cache_hits"] == 0:
            problems.append(
                f"legacy warm run re-simulated: {stats['cache_hits']} "
                f"hits / {stats['cache_misses']} misses")
        warm_digest = warm["results"]["exhibits"][EXHIBIT]["digest"]
        if warm_digest != digest:
            problems.append(
                f"legacy warm digest {warm_digest} != cold {digest}")
        if stats["cache_pack_hits"] != stats["cache_hits"]:
            problems.append(
                f"legacy warm run was not served by the pack tier: "
                f"{stats['cache_pack_hits']} pack hits / "
                f"{stats['cache_hits']} hits")
        leftovers = _per_key_files(legacy_dir)
        if leftovers:
            problems.append(f"opening the legacy directory left "
                            f"{len(leftovers)} per-key files")

    # --- 4. compact, then verify reports everything healthy
    proc = _repro("cache", "compact", "--cache", legacy_dir)
    if proc.returncode != 0:
        problems.append(f"cache compact exited {proc.returncode}: "
                        f"{proc.stderr.strip()}")
    proc = _repro("cache", "verify", "--cache", legacy_dir)
    if proc.returncode != 0:
        problems.append(f"cache verify exited {proc.returncode}:\n"
                        f"{proc.stdout.strip()}")
    leftovers = _per_key_files(legacy_dir)
    if leftovers:
        problems.append(f"compact left {len(leftovers)} per-key files")

    # --- 5. re-serve from the packed directory: all hits, same digest
    packed = _run_exhibit(legacy_dir, problems, "packed re-serve run")
    if packed is not None:
        stats = packed["results"]["engine"]
        if stats["cache_misses"] != 0 or stats["cache_pack_hits"] == 0:
            problems.append(
                f"packed re-serve did not hit the pack tier: "
                f"{stats['cache_pack_hits']} pack hits / "
                f"{stats['cache_misses']} misses")
        packed_digest = packed["results"]["exhibits"][EXHIBIT]["digest"]
        if packed_digest != digest:
            problems.append(
                f"post-compaction digest {packed_digest} != "
                f"cold {digest}")

    # --- 6. a real preloaded server boots warm over the packed dir
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache", legacy_dir, "--cache-mem-mb", "16",
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

    # --- 7. a non-object entry fails verify cleanly, and runs still work
    bad_dir = os.path.join(workdir, "non-object")
    os.makedirs(bad_dir)
    with open(os.path.join(bad_dir, f"{'0' * 64}.json"), "w",
              encoding="utf-8") as handle:
        handle.write("[]")
    proc = _repro("cache", "verify", "--cache", bad_dir)
    if proc.returncode != 1 or "FAILED" not in proc.stdout \
            or "Traceback" in proc.stderr:
        problems.append(
            f"verify over a non-object entry exited {proc.returncode} "
            f"(want 1 with a FAILED line, no traceback):\n"
            f"{proc.stdout.strip()}\n{proc.stderr.strip()}")
    bad = _run_exhibit(bad_dir, problems, "run over a non-object entry")
    if bad is not None:
        bad_digest = bad["results"]["exhibits"][EXHIBIT]["digest"]
        if bad_digest != digest:
            problems.append(f"digest over a non-object entry "
                            f"{bad_digest} != cold {digest}")
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
        print(f"cache ok: legacy compatibility, compact, verify, a "
              f"preloaded re-serve and a non-object entry all "
              f"byte-stable on {EXHIBIT}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
