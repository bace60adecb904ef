"""Every command in the README's Command line section runs and exits 0."""

import re
import shlex
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from uppertail.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _section() -> str:
    text = README.read_text(encoding="utf-8")
    return text[text.index("## Command line") : text.index("## Demos")]


def _commands() -> list[str]:
    blocks = re.findall(r"```sh\n(.*?)```", _section(), flags=re.S)
    joined = "\n".join(blocks).replace("\\\n", " ")
    lines = (" ".join(line.split()) for line in joined.splitlines())
    return [line for line in lines if line.startswith("uppertail ")]


def test_commands_found():
    commands = _commands()
    assert len(commands) >= 8
    assert any(cmd.startswith("uppertail --config run.json ") for cmd in commands)


@pytest.mark.parametrize("command", _commands())
def test_readme_command_runs(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = re.search(r"```json\n(.*?)```", _section(), flags=re.S).group(1)
    (tmp_path / "run.json").write_text(config, encoding="utf-8")
    with redirect_stdout(StringIO()):
        assert main(shlex.split(command)[1:]) == 0
