"""Every ```python block of README.md runs as written."""
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_the_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=lambda block: block.split("\n", 1)[0])
def test_python_block_runs(block):
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
