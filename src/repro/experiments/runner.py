"""Shared experiment infrastructure: result containers and rendering.

Every experiment module produces an :class:`ExperimentResult` — an id
(the paper's table/figure number), a set of rows, and notes about any
skipped configurations (OOMs).  ``render_table`` prints the same rows the
paper reports, which is what the benchmark harness asserts against and
what the examples show to humans.  ``to_json``/``from_json`` persist
results so regenerated exhibits can be archived and diffed across runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..hardware import ClusterConfig, cluster_for_gpus

#: The GPU counts the paper's scaling figures sweep (on p3.8xlarge).
PAPER_GPU_SWEEP = (8, 16, 32, 64, 96)


@dataclass(frozen=True)
class ExperimentResult:
    """Rows regenerating one of the paper's tables or figures.

    Attributes:
        experiment_id: e.g. ``"fig4"`` or ``"table2"``.
        title: Human-readable description.
        columns: Column names, in display order.
        rows: One dict per row; keys must cover ``columns``.
        notes: Free-form annotations (skipped points, substitutions).
    """

    experiment_id: str
    title: str
    columns: Tuple[str, ...]
    rows: Tuple[Dict[str, Any], ...]
    notes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.columns:
            raise ConfigurationError(f"{self.experiment_id}: no columns")
        for i, row in enumerate(self.rows):
            missing = [c for c in self.columns if c not in row]
            if missing:
                raise ConfigurationError(
                    f"{self.experiment_id}: row {i} missing columns "
                    f"{missing}")

    def column(self, name: str) -> List[Any]:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise ConfigurationError(
                f"{self.experiment_id}: no column {name!r} "
                f"(have {list(self.columns)})")
        return [row[name] for row in self.rows]

    def select(self, **filters: Any) -> List[Dict[str, Any]]:
        """Rows whose values match every keyword filter exactly."""
        return [row for row in self.rows
                if all(row.get(k) == v for k, v in filters.items())]

    def single(self, **filters: Any) -> Dict[str, Any]:
        """The unique row matching the filters (raises otherwise)."""
        matches = self.select(**filters)
        if len(matches) != 1:
            raise ConfigurationError(
                f"{self.experiment_id}: expected exactly one row for "
                f"{filters}, found {len(matches)}")
        return matches[0]

    def render_table(self, float_format: str = "{:.1f}") -> str:
        """ASCII table of all rows (the paper-facing output)."""
        def fmt(value: Any) -> str:
            if isinstance(value, float):
                return float_format.format(value)
            return str(value)

        header = list(self.columns)
        body = [[fmt(row[c]) for c in self.columns] for row in self.rows]
        widths = [max(len(h), *(len(r[i]) for r in body)) if body else len(h)
                  for i, h in enumerate(header)]
        lines = [
            f"{self.experiment_id}: {self.title}",
            "  " + " | ".join(h.ljust(w) for h, w in zip(header, widths)),
            "  " + "-+-".join("-" * w for w in widths),
        ]
        for row in body:
            lines.append(
                "  " + " | ".join(v.ljust(w) for v, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    # ----- persistence ------------------------------------------------------

    def content_digest(self) -> str:
        """SHA-256 of the canonical JSON of this result's content.

        The same digest the engine's cache keys use, so a run manifest
        can record exactly which rows a session produced and a rerun
        can be diffed by hash alone.  Non-finite floats are encoded the
        way :meth:`to_json` encodes them (canonical JSON rejects NaN).
        """
        from ..engine.fingerprint import digest  # deferred: keeps this
        # module importable without pulling in the simulator stack

        return digest({
            "experiment_id": self.experiment_id,
            "columns": list(self.columns),
            "rows": self._encoded_rows(),
            "notes": list(self.notes),
        })

    def to_json(self) -> str:
        """Serialize to JSON (NaN/inf encoded as strings, since strict
        JSON has no literals for them)."""
        return json.dumps({
            "experiment_id": self.experiment_id,
            "title": self.title,
            "columns": list(self.columns),
            "rows": self._encoded_rows(),
            "notes": list(self.notes),
        }, indent=1, allow_nan=False)

    def _encoded_rows(self) -> List[Dict[str, Any]]:
        """The rows with each non-finite float as ``{"__float__": str}``,
        which :meth:`from_json` decodes."""
        return [{k: ({"__float__": str(v)}
                     if isinstance(v, float) and not math.isfinite(v) else v)
                 for k, v in row.items()}
                for row in self.rows]

    @classmethod
    def from_json(cls, payload: str) -> "ExperimentResult":
        """Reconstruct a result serialized with :meth:`to_json`."""
        def decode(value: Any) -> Any:
            if isinstance(value, dict) and "__float__" in value:
                return float(value["__float__"])
            return value

        try:
            data = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid result JSON: {exc}")
        for key in ("experiment_id", "title", "columns", "rows"):
            if key not in data:
                raise ConfigurationError(f"result JSON missing {key!r}")
        return cls(
            experiment_id=data["experiment_id"],
            title=data["title"],
            columns=tuple(data["columns"]),
            rows=tuple({k: decode(v) for k, v in row.items()}
                       for row in data["rows"]),
            notes=tuple(data.get("notes", ())),
        )

    def save(self, path: str) -> None:
        """Write the JSON serialization to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "ExperimentResult":
        """Read a result previously written with :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


def scaling_clusters(gpu_counts: Sequence[int] = PAPER_GPU_SWEEP,
                     ) -> List[ClusterConfig]:
    """Clusters for the paper's GPU sweep (4-GPU p3.8xlarge nodes)."""
    return [cluster_for_gpus(g) for g in gpu_counts]


def speedup(baseline: float, candidate: float) -> float:
    """Fractional speedup of ``candidate`` over ``baseline``
    (positive = candidate faster)."""
    if baseline <= 0:
        raise ConfigurationError(f"baseline must be > 0, got {baseline}")
    return (baseline - candidate) / baseline
