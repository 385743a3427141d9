"""One module per table/figure of the paper's evaluation.

``EXPERIMENTS`` maps experiment ids to zero-configuration runners (all
parameters default to the paper's setup); the benchmark harness and the
``examples/reproduce_paper.py`` script iterate it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator, Mapping

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
    from .runner import ExperimentResult, scaling_clusters, speedup
    from .reliability import run_reliability
    from .scaling import run_scaling_sweep
    from .table1_classification import PAPER_TABLE1, run_table1
    from .table2_encode_decode import run_table2

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
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
    ".runner": ("ExperimentResult", "scaling_clusters", "speedup"),
    ".reliability": ("run_reliability",),
    ".scaling": ("run_scaling_sweep",),
    ".table1_classification": ("PAPER_TABLE1", "run_table1"),
    ".table2_encode_decode": ("run_table2",),
})


class _Runners(Mapping):
    """Exhibit id -> its runner, ``run_<id>`` (a ``-`` read as ``_``);
    looking an id up imports only its module."""

    def __init__(self, *ids: str) -> None:
        self._ids = ids

    def __getitem__(self, exp_id: str) -> Callable[[], ExperimentResult]:
        if exp_id not in self._ids:
            raise KeyError(exp_id)
        return __getattr__("run_" + exp_id.replace("-", "_"))

    def __iter__(self) -> Iterator[str]:
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)


#: Registry of every reproduced table/figure.
EXPERIMENTS: Mapping[str, Callable[[], ExperimentResult]] = _Runners(
    "table1", "fig2", "table2", "fig3", "fig4", "fig5", "fig6", "fig7",
    "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "ext-tta")

#: Exhibits beyond the paper's own tables/figures.  They are runnable
#: by id from the CLI but excluded from ``repro experiment all`` so the
#: canonical reproduction output stays byte-identical across versions.
EXTRA_EXPERIMENTS: Mapping[str, Callable[[], ExperimentResult]] = _Runners(
    "reliability")

__all__ += ["EXPERIMENTS", "EXTRA_EXPERIMENTS"]
