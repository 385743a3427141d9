#!/usr/bin/env python
"""Docstring-coverage gate for the public analysis, core, fault,
engine, serving, telemetry and training APIs.

``make lint`` runs this after ruff.  It walks the AST of every module
under the audited packages and fails (exit 1, one line per offender)
if a *public* function, method, or class lacks a docstring.  Public
means: name does not start with ``_``, and for methods, neither does
the enclosing class.  Dunder methods are exempt except ``__init__``
when it declares parameters beyond ``self`` (constructor parameters
are API surface).

Usage: python tools/check_docstrings.py [package-dir ...]
Defaults to the analysis, core, fault, engine, serving, simulator,
network, telemetry, training and collectives packages.
"""

from __future__ import annotations

import ast
import os
import sys
from typing import Iterator, List, Tuple

#: Directories audited when no arguments are given, relative to the
#: repository root (this file's parent's parent).
DEFAULT_TARGETS = (
    os.path.join("src", "repro", "analysis"),
    os.path.join("src", "repro", "core"),
    os.path.join("src", "repro", "faults"),
    os.path.join("src", "repro", "engine"),
    os.path.join("src", "repro", "serving"),
    os.path.join("src", "repro", "simulator"),
    os.path.join("src", "repro", "network"),
    os.path.join("src", "repro", "telemetry"),
    os.path.join("src", "repro", "training"),
    os.path.join("src", "repro", "collectives"),
)


def iter_python_files(root: str) -> Iterator[str]:
    """Yield every ``.py`` file under ``root``, sorted for stable output."""
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def needs_docstring(node: ast.AST, class_name: str = "") -> bool:
    """Whether ``node`` is part of the public API surface.

    ``class_name`` is the enclosing class for methods ("" at module
    level); a private class exempts all of its methods.
    """
    name = getattr(node, "name", "")
    if class_name.startswith("_"):
        return False
    if name.startswith("__") and name.endswith("__"):
        if name != "__init__":
            return False
        args = node.args  # type: ignore[attr-defined]
        params = (len(args.posonlyargs) + len(args.args)
                  + len(args.kwonlyargs))
        has_variadic = args.vararg is not None or args.kwarg is not None
        return params > 1 or has_variadic
    return not name.startswith("_")


def missing_docstrings(path: str) -> List[Tuple[int, str]]:
    """``(line, qualified name)`` of every public definition in ``path``
    that lacks a docstring."""
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    offenders: List[Tuple[int, str]] = []

    def visit(body, class_name: str = "") -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if needs_docstring(node, class_name):
                    if ast.get_docstring(node) is None:
                        qualified = (f"{class_name}.{node.name}"
                                     if class_name else node.name)
                        offenders.append((node.lineno, qualified))
                if isinstance(node, ast.ClassDef):
                    visit(node.body, node.name)

    visit(tree.body)
    return offenders


def main(argv: List[str]) -> int:
    """Check every target; print offenders; exit non-zero if any."""
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    targets = argv or [os.path.join(repo_root, t) for t in DEFAULT_TARGETS]
    failures = 0
    checked = 0
    for target in targets:
        if not os.path.isdir(target):
            print(f"check_docstrings: no such directory: {target}",
                  file=sys.stderr)
            return 2
        for path in iter_python_files(target):
            checked += 1
            for line, name in missing_docstrings(path):
                rel = os.path.relpath(path, repo_root)
                print(f"{rel}:{line}: public `{name}` has no docstring")
                failures += 1
    if failures:
        print(f"\ndocstring check failed: {failures} public definition(s) "
              f"undocumented across {checked} file(s)")
        return 1
    print(f"docstring check passed ({checked} file(s))")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
