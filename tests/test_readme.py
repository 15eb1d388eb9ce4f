"""Every ```python block of README.md runs as written, and every command of
its Command line block exits 0."""
import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from qordsearch.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
[COMMAND_BLOCK] = re.findall(r"^## Command line\n.*?^```\n(.*?)^```$", TEXT, re.M | re.S)
COMMANDS = [
    shlex.split(line, comments=True)
    for line in COMMAND_BLOCK.splitlines()
    if line.startswith("qordsearch ")
]


def test_the_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=lambda block: block.split("\n", 1)[0])
def test_python_block_runs(block):
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def test_every_command_line_is_a_qordsearch_command():
    lines = [line for line in COMMAND_BLOCK.splitlines() if line.strip()]
    assert COMMANDS and len(COMMANDS) == len(lines)


@pytest.mark.parametrize("command", COMMANDS, ids=shlex.join)
def test_command_line_exits_0(command):
    result = CliRunner().invoke(main, command[1:])
    assert result.exit_code == 0, result.output
