"""``tools/check_doc_links.py`` on a probe page: what the CLI check
flags and what it leaves alone."""

import importlib.util
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools",
                    "check_doc_links.py")


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location("check_doc_links", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def problems(checker, tmp_path, text):
    page = tmp_path / "probe.md"
    page.write_text(text, encoding="utf-8")
    return (checker.check_cli_invocations(str(page), text)
            + checker.check_python_names(str(page), text))


def test_quoted_top_level_import_is_not_a_command(checker, tmp_path):
    text = ("Load it with `from repro import core`, or\n\n"
            "```python\nfrom repro import core, engine\nimport repro\n```\n")
    assert problems(checker, tmp_path, text) == []


def test_unknown_subcommand_is_flagged(checker, tmp_path):
    found = problems(checker, tmp_path, "Run `repro bogus --gpus 8`.\n")
    assert len(found) == 1
    assert "unknown subcommand 'bogus'" in found[0]


def test_unknown_flag_on_a_real_subcommand_is_flagged(checker, tmp_path):
    found = problems(checker, tmp_path,
                     "```bash\npython -m repro recommend --no-such-flag 1\n"
                     "```\n")
    assert len(found) == 1
    assert "`repro recommend` has no flag '--no-such-flag'" in found[0]
