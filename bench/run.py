"""The repository's benchmark: end-to-end metrics and a per-layer ledger.

One run of one workload::

    python3 bench/run.py --workload exhibits-cold --seed 0 --seconds 15 --trace 0

prints every metric by name with its unit, sample count and quartiles,
then, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` the per-layer ones.  Every operation's output is
checked against a reference; the exit code is 1 when any differs.

Every workload, each in fresh processes::

    python3 bench/run.py [--seed N] [--runs R] [--out DIR]

runs each workload ``R`` times untraced (seeds N .. N+R-1) and once
traced, writes ``DIR/results.json`` (the input of ``bench/compare.py``)
and the Perfetto traces under ``DIR/traces/``, and prints a summary.

The program is run from ``src/`` of the checkout this file sits in;
scratch files go to ``.bench_work/`` there.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from compare import load_benchmark, quartiles
from speed import NOMINAL_S, normalize

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

#: Wall-clock budget for one worker process; a whole run must end
#: within 180 s.
WORKER_TIMEOUT_S = 160

#: Processes timed for ``setup_s`` in one untraced batch run.
SETUP_SPAWNS = 3


class BenchError(Exception):
    """The benchmark itself could not run."""


def _reap_group(pgid: int) -> None:
    """Kill whatever the worker left in its process group (pool
    workers, a server) and wait, briefly, for the group to empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def _spawn(worker_args: List[str], work_dir: str, deadline: float,
           ) -> Dict[str, Any]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = work_dir
    # Steadier runs: one hash layout for every process, and numeric
    # libraries on one thread, so that a run's speed does not hang on
    # how busy the host's other core is.
    env.update(PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           *worker_args, "--work-dir", work_dir,
           "--spawned-at", repr(time.time())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(
            timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(worker_args)} timed out")
    finally:
        _reap_group(proc.pid)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(worker_args)} exited "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(out: Dict[str, Any]) -> Dict[str, List[float]]:
    """``{metric: [value, *samples]}`` from a worker's untraced output.

    Set-up and batch operation times are normalized to the reference
    speed (see ``speed.py``).  Serve latencies are not: most of each is
    the scheduler's batch window and TCP timers, which do not scale
    with the host's speed.
    """
    walls = out["walls"]
    if not walls:
        raise BenchError("no operation succeeded")
    setup = list(map(normalize, out["setup_s"], out["setup_ref_s"]))
    if "refs" in out:
        walls = list(map(normalize, walls, out["refs"]))
        rates = [u / w for u, w in zip(out["units"], walls)]
    else:  # serve: completed requests / wall of the closed loop
        rates = [len(walls) / out["phase_wall"]]
    return {
        "setup_s": [statistics.median(setup), *setup],
        "run_s": [statistics.median(walls), *walls],
        "work_per_s": [statistics.median(rates), *rates],
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            trace_out: Optional[str] = None) -> Dict[str, Any]:
    """One contract run: ``{"correct", "attempted", "failed", "errors",
    "metrics": {name: [value, *samples]}, "versions"}``."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program source under {SRC}")
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    work_dir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(work_dir)
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(int(trace))]
    if trace:
        args += ["--trace-out", trace_out or os.path.join(
            WORK, "traces", f"{workload}-seed{seed}.json")]
    try:
        setups = []
        if not trace and workload != "serve-mixed":
            setups = [_spawn([*args, "--setup-only"], work_dir, deadline)
                      for _ in range(SETUP_SPAWNS - 1)]
        out = _spawn(args, work_dir, deadline)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    notes = list(out["notes"])
    if trace:
        metrics = {name: [value] for name, value in out["per_layer"].items()}
    else:
        for key in ("setup_s", "setup_ref_s"):
            out[key] = [v for s in setups for v in s[key]] + out[key]
        metrics = end_to_end(out)
        if "refs" in out:
            notes.append(
                f"raw operation wall median "
                f"{statistics.median(out['walls']):.4g} s; reference "
                f"kernel median {statistics.median(out['refs']) * 1e3:.3g}"
                f" ms, normalized to {NOMINAL_S * 1e3:.3g} ms")
    return {"correct": out["failed"] == 0, "attempted": out["attempted"],
            "failed": out["failed"], "errors": out["errors"],
            "notes": notes, "metrics": metrics,
            "versions": out["versions"]}


def _declared(bench: Dict[str, Any], trace: bool) -> Dict[str, str]:
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def print_run(workload: str, seed: int, result: Dict[str, Any],
              units: Dict[str, str]) -> None:
    print(f"{workload} (seed {seed}): {result['attempted']} operations, "
          f"{result['failed']} failed")
    for error in result["errors"]:
        print(f"  failed: {error}")
    for note in result["notes"]:
        print(f"  note: {note}")
    print(f"  {'metric':<36} {'unit':<9} {'value':>12} {'n':>5} "
          f"{'q1':>12} {'q3':>12}")
    for name, unit in units.items():
        value, *samples = result["metrics"][name]
        q1, _, q3 = quartiles(samples or [value])
        print(f"  {name:<36} {unit:<9} {value:>12.6g} "
              f"{len(samples) or 1:>5} {q1:>12.6g} {q3:>12.6g}")


def contract(args: argparse.Namespace, bench: Dict[str, Any]) -> int:
    units = _declared(bench, bool(args.trace))
    result = run_one(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    if set(result["metrics"]) != set(units):
        raise BenchError("measured metrics differ from BENCHMARK.json: "
                         f"{sorted(set(result['metrics']) ^ set(units))}")
    print_run(args.workload, args.seed, result, units)
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name][0],
                           "unit": unit} for name, unit in units.items()},
    }))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace, bench: Dict[str, Any]) -> int:
    """Every workload ``--runs`` times untraced and once traced."""
    out_dir = os.path.abspath(args.out or os.path.join(WORK, "results"))
    os.makedirs(os.path.join(out_dir, "traces"), exist_ok=True)
    results: Dict[str, Any] = {
        "host": {"machine": platform.machine(),
                 "system": f"{platform.system()} {platform.release()}",
                 "nproc": os.cpu_count()},
        "seed": args.seed, "runs": args.runs, "seconds": args.seconds,
        "workloads": {}}
    failed = 0
    for workload in (w["name"] for w in bench["workloads"]):
        entry: Dict[str, Any] = {"end_to_end": {}, "per_layer": {},
                                 "attempted": 0, "failed": 0}
        runs = [(args.seed + i, False) for i in range(args.runs)]
        runs.append((args.seed, True))
        for seed, trace in runs:
            result = run_one(workload, seed, args.seconds, trace,
                             os.path.join(out_dir, "traces",
                                          f"{workload}.json"))
            results["host"].update(result["versions"])
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            section = entry["per_layer" if trace else "end_to_end"]
            for name, (value, *_) in result["metrics"].items():
                section.setdefault(name, []).append(value)
            print(f"{workload} seed {seed} {'traced' if trace else 'untraced'}"
                  f": {result['attempted']} operations, {result['failed']} "
                  f"failed", flush=True)
            for line in result["errors"] + result["notes"]:
                print(f"  {line}")
        failed += entry["failed"]
        results["workloads"][workload] = entry
    with open(os.path.join(out_dir, "results.json"), "w",
              encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
    print()
    for workload, entry in results["workloads"].items():
        for trace in (False, True):
            section = entry["per_layer" if trace else "end_to_end"]
            for name, unit in _declared(bench, trace).items():
                q1, median, q3 = quartiles(section[name])
                print(f"{workload:<14} {name:<36} {unit:<9} "
                      f"{median:>12.6g} [{q1:.6g}, {q3:.6g}] "
                      f"n={len(section[name])}")
    print(f"\nwrote {os.path.join(out_dir, 'results.json')}")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names, default=None,
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"],
                        help="measured time per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload when running "
                             "all of them")
    parser.add_argument("--out", default=None,
                        help="result directory when running all workloads "
                             "(default: .bench_work/results)")
    args = parser.parse_args(argv)
    try:
        if args.workload is not None:
            return contract(args, bench)
        return run_all(args, bench)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
