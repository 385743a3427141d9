#!/usr/bin/env python
"""Lint the documentation for dead links, phantom CLI invocations and
Python names that do not resolve.

Four checks over ``README.md`` and every ``docs/*.md`` page (wired
into ``make lint`` and the CI lint job):

1. **Relative links resolve** — every ``[text](target)`` markdown link
   whose target is not an absolute URL must point at an existing file
   (fragments are stripped before checking).
2. **Cross-references resolve** — every bare ``docs/<page>.md`` mention
   in prose or code must name a file that exists, so renaming a page
   cannot silently orphan the text that cites it.
3. **CLI invocations are real** — every ``repro ...`` command quoted in
   inline code or fenced blocks is validated against the actual
   :func:`repro.cli.build_parser` tree: the subcommand must exist and
   every ``--flag`` must be one the subcommand (or the top-level
   parser) accepts.  Docs describing flags that were renamed or never
   shipped fail the build instead of misleading readers.
4. **Python names resolve** — every ``from repro... import ...`` and
   every dotted ``repro.<pkg>.<Name>`` quoted anywhere must name
   something that exists: the longest importable module prefix is
   imported and the next component must be one of its attributes.
   Pruning a package export or renaming a function then fails the
   build instead of orphaning a doc example.

Exits non-zero with one problem per line on stderr.
"""

from __future__ import annotations

import argparse
import glob
import importlib
import os
import re
import sys
from typing import Dict, List, Optional, Set, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.cli import build_parser  # noqa: E402

#: Markdown ``[text](target)`` links; images share the syntax.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Bare cross-references to documentation pages.
DOC_REF_RE = re.compile(r"docs/[A-Za-z0-9_.-]+\.md")

#: A quoted CLI invocation, in inline code or a fenced block; a Python
#: ``from repro import ...`` or ``import repro ...`` is not one.
CLI_RE = re.compile(
    r"(?:python -m )?(?<!from )(?<!import )\brepro\s+(?:-|[a-z])[^`\n]*")

#: A quoted ``from repro... import ...``, one line or parenthesized.
FROM_IMPORT_RE = re.compile(
    r"from\s+(repro(?:\.\w+)*)\s+import\s+(\([^)]*\)|[\w \t,]+)")

#: A dotted name under the package, e.g. ``repro.core.grid.TimingGrid``.
DOTTED_RE = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")

#: Tokens that end a shell command mid-line.
SHELL_BREAKERS = ("|", ">", ">>", "<", "&&", "||", ";", "#", "&", "2>")

#: Placeholder tokens docs legitimately use instead of real values.
PLACEHOLDER_RE = re.compile(r"^(\.\.\.|<[^>]*>|[A-Z][A-Z0-9_.]*|\$\w+)$")


def doc_files() -> List[str]:
    """README plus every docs page, repo-relative."""
    pages = sorted(glob.glob(os.path.join(REPO_ROOT, "docs", "*.md")))
    return [os.path.join(REPO_ROOT, "README.md"), *pages]


def check_links(path: str, text: str) -> List[str]:
    """Dead relative links in one file."""
    problems = []
    base = os.path.dirname(path)
    for i, line in enumerate(text.splitlines(), 1):
        for match in LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue  # same-page anchor
            resolved = os.path.normpath(os.path.join(base, target))
            if not os.path.exists(resolved):
                problems.append(f"{os.path.relpath(path, REPO_ROOT)}:{i}: "
                                f"dead link {match.group(1)!r}")
    return problems


def check_doc_refs(path: str, text: str) -> List[str]:
    """Bare ``docs/*.md`` mentions that point at nothing."""
    problems = []
    for i, line in enumerate(text.splitlines(), 1):
        for ref in DOC_REF_RE.findall(line):
            if not os.path.exists(os.path.join(REPO_ROOT, ref)):
                problems.append(f"{os.path.relpath(path, REPO_ROOT)}:{i}: "
                                f"missing cross-reference {ref!r}")
    return problems


def _parser_surface() -> Tuple[Set[str], Dict[str, Dict[str, bool]],
                               Dict[str, Set[str]]]:
    """Introspect the real CLI: global flags, per-subcommand flags (with
    whether each consumes a value), and positional choice sets."""
    parser = build_parser()
    sub_action = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    global_flags: Set[str] = set()
    for action in parser._actions:
        global_flags.update(action.option_strings)

    flags: Dict[str, Dict[str, bool]] = {}
    choices: Dict[str, Set[str]] = {}
    for name, sub in sub_action.choices.items():
        per: Dict[str, bool] = {}
        for action in sub._actions:
            takes_value = action.nargs != 0
            for opt in action.option_strings:
                per[opt] = takes_value
            if not action.option_strings and action.choices:
                choices.setdefault(name, set()).update(
                    str(c) for c in action.choices)
        flags[name] = per
    return global_flags, flags, choices


def _tokenize(command: str) -> List[str]:
    tokens = []
    for token in command.replace("\\", " ").split():
        stripped = token.strip("`'\",.)")
        if not stripped:
            continue
        if stripped in SHELL_BREAKERS or stripped[0] in "|&;#":
            break
        tokens.append(stripped)
    return tokens


def check_cli_invocations(path: str, text: str) -> List[str]:
    """Quoted ``repro ...`` commands that the real CLI would reject."""
    global_flags, sub_flags, sub_choices = _parser_surface()
    problems = []
    where = os.path.relpath(path, REPO_ROOT)

    # Join fenced-block continuation lines so multi-line commands parse
    # as one; then scan every line for invocations.
    joined = re.sub(r"\\\n\s*", " ", text)
    for i, line in enumerate(joined.splitlines(), 1):
        for match in CLI_RE.finditer(line):
            tokens = _tokenize(match.group(0))
            if tokens[:3] == ["python", "-m", "repro"]:
                tokens = tokens[3:]
            elif tokens[0] == "repro":
                tokens = tokens[1:]
            problems.extend(f"{where}:{i}: {p}"
                            for p in _check_tokens(
                                tokens, global_flags, sub_flags,
                                sub_choices))
    return problems


def _check_tokens(tokens: List[str], global_flags: Set[str],
                  sub_flags: Dict[str, Dict[str, bool]],
                  sub_choices: Dict[str, Set[str]]) -> List[str]:
    """Problems with one tokenized invocation (after the prog name)."""
    # Leading global flags (e.g. --log-level debug) before the command.
    index = 0
    while index < len(tokens) and tokens[index].startswith("-"):
        flag = tokens[index].split("=", 1)[0]
        if flag not in global_flags:
            return [f"unknown global flag {flag!r}"]
        if flag in ("--log-level",) and "=" not in tokens[index]:
            index += 1
        index += 1
    if index >= len(tokens):
        return []  # bare `repro --version` style
    command = tokens[index]
    if command not in sub_flags:
        return [f"unknown subcommand {command!r} "
                f"(have: {', '.join(sorted(sub_flags))})"]
    allowed = dict(sub_flags[command])
    for opt in global_flags:
        allowed.setdefault(opt, opt == "--log-level")
    problems = []
    positionals = 0
    index += 1
    while index < len(tokens):
        token = tokens[index]
        if token.startswith("-") and not token.lstrip("-").isdigit():
            flag = token.split("=", 1)[0]
            if flag not in allowed:
                problems.append(
                    f"`repro {command}` has no flag {flag!r}")
            elif allowed[flag] and "=" not in token:
                index += 1  # skip the flag's value
        else:
            positionals += 1
            if positionals == 1 and command in sub_choices \
                    and not PLACEHOLDER_RE.match(token) \
                    and token not in sub_choices[command]:
                problems.append(
                    f"`repro {command}` has no positional {token!r}")
        index += 1
    return problems


def _import(module: str):
    """The module, or None when it cannot be imported."""
    try:
        return importlib.import_module(module)
    except ImportError:
        return None


def _has(module, name: str) -> bool:
    """``from module import name`` would succeed."""
    return (hasattr(module, name)
            or _import(f"{module.__name__}.{name}") is not None)


def _dotted_resolves(dotted: str) -> bool:
    """The longest importable prefix of ``dotted`` has its next part."""
    parts = dotted.split(".")
    for end in range(len(parts), 0, -1):
        module = _import(".".join(parts[:end]))
        if module is not None:
            return end == len(parts) or _has(module, parts[end])
    return False


def check_python_names(path: str, text: str) -> List[str]:
    """Quoted ``repro`` imports and dotted names that do not resolve."""
    problems = []
    where = os.path.relpath(path, REPO_ROOT)
    for match in FROM_IMPORT_RE.finditer(text):
        line = text.count("\n", 0, match.start()) + 1
        module = _import(match.group(1))
        if module is None:
            problems.append(f"{where}:{line}: no module "
                            f"{match.group(1)!r}")
            continue
        for item in match.group(2).strip("()").split(","):
            name = item.split("#")[0].split(" as ")[0].strip()
            if name and not _has(module, name):
                problems.append(f"{where}:{line}: {match.group(1)!r} "
                                f"has no name {name!r}")
    for match in DOTTED_RE.finditer(text):
        if not _dotted_resolves(match.group(0)):
            line = text.count("\n", 0, match.start()) + 1
            problems.append(f"{where}:{line}: {match.group(0)!r} "
                            f"does not resolve")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns 0 when the docs check out."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*",
                        help="markdown files to check (default: README "
                             "+ docs/*.md)")
    args = parser.parse_args(argv)
    files = args.files or doc_files()

    problems: List[str] = []
    for path in files:
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            problems.append(f"{path}: unreadable: {exc}")
            continue
        problems += check_links(path, text)
        problems += check_doc_refs(path, text)
        problems += check_cli_invocations(path, text)
        problems += check_python_names(path, text)
    for problem in problems:
        print(problem, file=sys.stderr)
    if not problems:
        print(f"docs ok: {len(files)} file(s), links + cross-references "
              f"+ CLI invocations + Python names verified")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
