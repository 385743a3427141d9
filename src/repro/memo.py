"""Per-object memoization kept off the object.

Frozen specs (:class:`~repro.models.ModelSpec`, cluster and config
objects) feed derived tables that many consumers read: canonical JSON
for cache keys, backward-time tables and bucket plans for the
simulator.  :func:`per_object` computes such a table once per spec and
shares it, without storing anything on the spec (so a pickled spec
stays the size it was) and without hashing the spec
(``ModelSpec.__hash__`` walks every layer).  A pooled dispatch ships
each frozen spec to a worker once, and every task the worker runs
shares that object, so its tables are built once per worker.
"""

from __future__ import annotations

import functools
import weakref
from typing import Callable, Dict, Tuple, TypeVar

_Obj = TypeVar("_Obj")
_Value = TypeVar("_Value")


def per_object(compute: Callable[[_Obj], _Value]) -> Callable[[_Obj], _Value]:
    """Memoize ``compute(obj)`` per object identity.

    Only for objects that never change: the table is keyed by
    ``id(obj)`` and holds a weak reference whose callback drops the
    entry when the object is collected, so an id reused by a later
    object never sees a stale value.  The value must not refer back to
    the object, or the entry would keep it alive.  Threads racing on
    one object both compute it and store equal values.
    """
    memo: Dict[int, Tuple[weakref.ref, _Value]] = {}

    @functools.wraps(compute)
    def lookup(obj: _Obj) -> _Value:
        key = id(obj)
        entry = memo.get(key)
        if entry is not None and entry[0]() is obj:
            return entry[1]
        value = compute(obj)
        memo[key] = (weakref.ref(obj, lambda _: memo.pop(key, None)), value)
        return value

    return lookup
