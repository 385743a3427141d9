"""Lazy package namespaces (PEP 562).

Each package ``__init__`` names the submodule that defines each public
name; the first access to a name imports that submodule, so a command
loads only the modules it runs.  Nothing is cached in the package
namespace: every access reads the defining module's current binding,
so a name rebound there (a test's monkeypatch, a profiler's wrapper) is
what the package returns, and restoring it there restores it
everywhere.

The table is the package's one runtime list of names: ``__all__``
follows it, and the ``if TYPE_CHECKING:`` imports beside it are what
static checkers read.
"""

from __future__ import annotations

import sys
from types import ModuleType
from typing import Any, Callable, List, Mapping, Sequence, Tuple


def _load(module: str) -> ModuleType:
    # ``__import__`` rather than ``importlib.import_module``: the
    # interpreter's own import path, which ``python -X importtime``
    # reports.
    __import__(module)
    return sys.modules[module]


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]],
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]],
                            List[str]]:
    """The ``(__getattr__, __dir__, __all__)`` triple for ``package``.

    ``exports`` maps each relative submodule (``".grid"``) to the names
    it defines.  The package resolves each such name to the submodule's
    attribute and the submodule's own name (``grid``) to the module;
    any other name raises :class:`AttributeError`.  ``__all__`` lists
    the names in table order; a submodule listed with no names is
    exported as itself.
    """
    submodules = {module[1:]: package + module for module in exports}
    where = {name: package + module for module, names in exports.items()
             for name in names}

    def __getattr__(name: str) -> Any:
        if name in where:
            return getattr(_load(where[name]), name)
        if name in submodules:
            return _load(submodules[name])
        raise AttributeError(
            f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted({*vars(sys.modules[package]), *where, *submodules})

    public = [name for module, names in exports.items()
              for name in names or (module[1:],)]
    return __getattr__, __dir__, public
