"""Compare two result sets of ``bench/run.py``.

Usage::

    python bench/compare.py A.json B.json

For each (end-to-end metric, workload) pair it prints both sides'
median and quartiles and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``unresolved`` — the run-to-run spread (interquartile range over
  median) of either side is wider than the bound and the runs do not
  all separate (neither every run of B better nor every run of B worse
  than every run of A);
* ``worse`` — otherwise, B's median is worse than A's by more than the
  bound;
* ``within bound`` — otherwise.

Per-layer metrics that are non-zero on either side are listed with
their medians and no verdict.  Exits 1 when any pair is ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values: List[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> str:
    median_a, median_b = statistics.median(a), statistics.median(b)
    worse_by = (median_b - median_a) / median_a
    if better == "higher":
        worse_by = -worse_by
    separate = min(b) > max(a) or max(b) < min(a)
    if max(spread(a), spread(b)) > bound and not separate:
        return "unresolved"
    return "worse" if worse_by > bound else "within bound"


def _fmt(values: Optional[List[float]]) -> str:
    if not values:
        return "-"
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def compare(a: Dict[str, Any], b: Dict[str, Any],
            bench: Dict[str, Any]) -> int:
    worse = 0
    print(f"{'workload':<14} {'metric':<34} {'A median [q1, q3]':<30} "
          f"{'B median [q1, q3]':<30} verdict")
    for workload in (w["name"] for w in bench["workloads"]):
        side_a = a["workloads"].get(workload, {})
        side_b = b["workloads"].get(workload, {})
        for metric in bench["end_to_end"]:
            name = metric["name"]
            va = side_a.get("end_to_end", {}).get(name)
            vb = side_b.get("end_to_end", {}).get(name)
            result = ("missing" if not va or not vb else
                      verdict(va, vb, metric["better"], metric["bound"]))
            worse += result in ("worse", "missing")
            print(f"{workload:<14} {name:<34} {_fmt(va):<30} "
                  f"{_fmt(vb):<30} {result}")
        for metric in bench["per_layer"]:
            name = metric["name"]
            va = side_a.get("per_layer", {}).get(name)
            vb = side_b.get("per_layer", {}).get(name)
            if any(va or []) or any(vb or []):
                print(f"{workload:<14} {name:<34} {_fmt(va):<30} "
                      f"{_fmt(vb):<30}")
    return 1 if worse else 0


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sets = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            sets.append(json.load(handle))
    return compare(sets[0], sets[1], load_benchmark())


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
