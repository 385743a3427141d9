"""``docs/compression.md``'s Method catalog matches the registry.

The catalog lists one line per :class:`~repro.compression.Method` row,
by its scheme or codec name, and its All-reduce column is the row's
Table 1 flag.
"""

import os
import re

from repro.compression import METHODS
from repro.compression.registry import get_method

DOC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "docs",
                   "compression.md")


def catalog():
    """``(name, all-reduce cell)`` per line of the Method catalog."""
    with open(DOC, encoding="utf-8") as handle:
        text = handle.read()
    section = text.split("## Method catalog", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        name = re.match(r"`([^`]+)`", cells[0])
        if line.startswith("|") and name:
            rows.append((name.group(1), cells[2].strip("*")))
    return rows


def test_catalog_lists_every_registered_method_once():
    names = [get_method(name).name for name, _ in catalog()]
    assert sorted(names) == sorted(METHODS)


def test_catalog_all_reduce_column_is_the_row_flag():
    for name, cell in catalog():
        assert cell in ("yes", "no"), (name, cell)
        assert (cell == "yes") == get_method(name).all_reducible, name
