"""Communication collectives: analytic cost models + numeric algorithms."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .cost import (
        allgather_time,
        broadcast_time,
        double_tree_allreduce_time,
        parameter_server_time,
        pick_allreduce_time,
        reduce_scatter_time,
        ring_allreduce_time,
    )
    from .hierarchical import (
        hierarchical_allreduce,
        hierarchical_allreduce_time,
    )
    from .numeric import (
        allgather,
        broadcast,
        is_allreduce_safe,
        parameter_server_reduce,
        reduce_scatter,
        ring_allreduce,
        tree_allreduce,
    )

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".cost": (
        "allgather_time", "broadcast_time", "double_tree_allreduce_time",
        "parameter_server_time", "pick_allreduce_time", "reduce_scatter_time",
        "ring_allreduce_time",
    ),
    ".hierarchical": ("hierarchical_allreduce", "hierarchical_allreduce_time"),
    ".numeric": (
        "allgather", "broadcast", "is_allreduce_safe",
        "parameter_server_reduce", "reduce_scatter", "ring_allreduce",
        "tree_allreduce",
    ),
})
