"""The README's CLI lines and its two complex schema examples run as
documented: each command exits 0, and the lines emit only checks that can
fail."""

import json
import re
import shlex
from pathlib import Path

import pytest

from chernlab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language: str) -> list:
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(), re.DOTALL)


def _cli_lines() -> list:
    block = next(b for b in _blocks("bash") if "chernlab build" in b)
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("chernlab ")
    ]


def _schema(key: str) -> dict:
    return json.loads(next(b for b in _blocks("json") if f'"{key}"' in b))


@pytest.fixture()
def readme_dir(tmp_path, monkeypatch):
    """A working directory with the files the README's CLI lines read."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "complex.json").write_text(json.dumps(_schema("degrees")))
    (tmp_path / "double.json").write_text(json.dumps(_schema("dims")))


def test_readme_cli_lines_exit_0(readme_dir, capsys):
    lines = _cli_lines()
    assert len(lines) >= 10
    for argv in lines:  # in order: build writes the file milnor reads
        code = main(argv)
        assert code == 0, (argv, capsys.readouterr().err)


def test_readme_cli_lines_emit_only_checks_that_can_fail(readme_dir, capsys):
    """Every check name has a fault that fails it alone
    (test_cli.test_each_check_fails_alone_on_its_fault); a check that
    cannot fail would show up here as a seventh name."""
    names = set()
    for argv in _cli_lines():
        assert main([*argv, "--json"]) == 0
        names.update(item["check"] for item in json.loads(capsys.readouterr().out)["verification"])
    assert names == {"milnor inequality", "dual-method agreement", "degree realised",
                     "convergence E_inf = gr H", "coarser integration agrees",
                     "mesh refinement converges"}


@pytest.mark.parametrize("key, flags", [("degrees", []), ("dims", ["--double", "vertical"]),
                                        ("dims", ["--double", "horizontal"])])
def test_readme_schema_examples_exit_0(tmp_path, capsys, key, flags):
    path = tmp_path / "example.json"
    path.write_text(json.dumps(_schema(key)))
    code = main(["spectral", str(path), *flags])
    assert code == 0, capsys.readouterr().err
