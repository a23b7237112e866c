"""README examples run as written, so drift between README and code fails."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from qconvolve.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(text: str, language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.M | re.S)


CLI_LINES = [
    line
    for block in _blocks(README, "sh")
    for line in block.splitlines()
    if line.startswith("qconvolve ")
]


def test_readme_has_cli_examples():
    assert len(CLI_LINES) >= 10


@pytest.mark.parametrize("line", CLI_LINES)
def test_readme_cli_line_runs(capsys, line):
    code = main(shlex.split(line, comments=True)[1:])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out


def test_readme_library_example_prints_its_comments(capsys):
    section = README.split("## Library example", 1)[1]
    code = _blocks(section, "python")[0]
    exec(compile(code, "README.md", "exec"), {})
    # Each print line's trailing comment shows what it prints.
    shown = [
        line.split("#", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(") and "#" in line
    ]
    assert shown
    assert capsys.readouterr().out.splitlines() == shown
