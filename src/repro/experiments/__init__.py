"""One module per table/figure of the paper's evaluation.

``EXPERIMENTS`` maps experiment ids to zero-configuration runners (all
parameters default to the paper's setup); the benchmark harness and the
``examples/reproduce_paper.py`` script iterate it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterator, Mapping

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .fig3_overlap import run_fig3
    from .fig4_powersgd import run_fig4
    from .fig5_topk import run_fig5
    from .fig6_signsgd import run_fig6
    from .fig7_batchsize import run_fig7
    from .fig8_validation import median_errors, run_fig8
    from .fig9_required_compression import run_fig9
    from .fig10_headroom import run_fig10
    from .fig11_bandwidth import run_fig11
    from .fig12_compute import run_fig12
    from .ext_time_to_accuracy import run_ext_tta
    from .fig2_trace import run_fig2
    from .fig13_tradeoff import run_fig13
    from .runner import (
        PAPER_GPU_SWEEP,
        ExperimentResult,
        scaling_clusters,
        speedup,
    )
    from .reliability import run_reliability
    from .scaling import PAPER_WORKLOADS, run_scaling_sweep
    from .table1_classification import PAPER_TABLE1, run_table1
    from .table2_encode_decode import run_table2

__getattr__, __dir__ = lazy_exports(__name__, {
    ".fig3_overlap": ("run_fig3",),
    ".fig4_powersgd": ("run_fig4",),
    ".fig5_topk": ("run_fig5",),
    ".fig6_signsgd": ("run_fig6",),
    ".fig7_batchsize": ("run_fig7",),
    ".fig8_validation": ("median_errors", "run_fig8"),
    ".fig9_required_compression": ("run_fig9",),
    ".fig10_headroom": ("run_fig10",),
    ".fig11_bandwidth": ("run_fig11",),
    ".fig12_compute": ("run_fig12",),
    ".ext_time_to_accuracy": ("run_ext_tta",),
    ".fig2_trace": ("run_fig2",),
    ".fig13_tradeoff": ("run_fig13",),
    ".runner": (
        "PAPER_GPU_SWEEP", "ExperimentResult", "scaling_clusters", "speedup",
    ),
    ".reliability": ("run_reliability",),
    ".scaling": ("PAPER_WORKLOADS", "run_scaling_sweep"),
    ".table1_classification": ("PAPER_TABLE1", "run_table1"),
    ".table2_encode_decode": ("run_table2",),
})


class _Runners(Mapping):
    """Exhibit id -> runner; looking an id up imports only its module."""

    def __init__(self, runners: Dict[str, str]) -> None:
        self._runners = runners

    def __getitem__(self, exp_id: str) -> Callable[[], ExperimentResult]:
        return __getattr__(self._runners[exp_id])

    def __iter__(self) -> Iterator[str]:
        return iter(self._runners)

    def __len__(self) -> int:
        return len(self._runners)


#: Registry of every reproduced table/figure.
EXPERIMENTS: Mapping[str, Callable[[], ExperimentResult]] = _Runners({
    "table1": "run_table1",
    "fig2": "run_fig2",
    "table2": "run_table2",
    "fig3": "run_fig3",
    "fig4": "run_fig4",
    "fig5": "run_fig5",
    "fig6": "run_fig6",
    "fig7": "run_fig7",
    "fig8": "run_fig8",
    "fig9": "run_fig9",
    "fig10": "run_fig10",
    "fig11": "run_fig11",
    "fig12": "run_fig12",
    "fig13": "run_fig13",
    "ext-tta": "run_ext_tta",
})

#: Exhibits beyond the paper's own tables/figures.  They are runnable
#: by id from the CLI but excluded from ``repro experiment all`` so the
#: canonical reproduction output stays byte-identical across versions.
EXTRA_EXPERIMENTS: Mapping[str, Callable[[], ExperimentResult]] = _Runners({
    "reliability": "run_reliability",
})

__all__ = [
    "ExperimentResult", "scaling_clusters", "speedup", "PAPER_GPU_SWEEP",
    "PAPER_WORKLOADS", "run_scaling_sweep",
    "run_table1", "PAPER_TABLE1", "run_table2",
    "run_fig3", "run_fig4", "run_fig5", "run_fig6", "run_fig7",
    "run_fig8", "median_errors", "run_fig9", "run_fig10", "run_fig11",
    "run_fig12", "run_fig13", "run_ext_tta", "run_fig2",
    "run_reliability",
    "EXPERIMENTS", "EXTRA_EXPERIMENTS",
]
