"""The exit-code table: every error class carries one code of the README
table, and the README and the cli.py docstring list the same codes."""

import re
from pathlib import Path

import chernlab.cli as cli
from chernlab.errors import ChernLabError

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_rows() -> dict:
    """code -> the text of its row in the README exit-code table."""
    return {
        int(m.group(1)): m.group(0)
        for m in re.finditer(r"^\| (\d) \|.*$", README.read_text(), re.MULTILINE)
    }


def _error_classes() -> list:
    found, todo = [], [ChernLabError]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def test_every_error_class_carries_a_documented_code():
    rows = _readme_rows()
    classes = _error_classes()
    assert len(classes) >= 11
    for cls in classes:
        assert "exit_code" in vars(cls), f"{cls.__name__} inherits its exit code"
        assert cls.exit_code in rows, cls.__name__
        assert f"`{cls.__name__}`" in rows[cls.exit_code], cls.__name__


def test_readme_and_cli_docstring_list_the_same_codes():
    docstring = cli.__doc__.split("Exit codes are a stable contract", 1)[1]
    doc_codes = {int(c) for c in re.findall(r"^    (\d)  ", docstring, re.MULTILINE)}
    assert doc_codes == set(_readme_rows()) == {0, 2, 3, 4, 5, 6, 7}

