"""The README's library example and command lines run as printed."""

import io
import re
import shlex
from pathlib import Path

import pytest

from dpbt import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def code_block(heading, language):
    section = README.read_text(encoding="utf-8").split(f"## {heading}", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for line in code_block("Command line", "bash").splitlines()
    if line.startswith("dpbt ")
]


def test_library_quick_start_runs():
    exec(compile(code_block("Library quick start", "python"), "README.md", "exec"), {})


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_line_runs(argv, tmp_path, monkeypatch, request):
    if argv == ["verify", "--oracle"]:
        # the whole default battery runs once per session (conftest.py)
        code, _, err = request.getfixturevalue("verify_oracle")
        assert code == 0, err
        return
    monkeypatch.chdir(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(argv, out=out, err=err) == 0, err.getvalue()
