"""The README's "Library use" example runs as written against the package."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def _library_use_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)


def test_readme_library_use_block_runs(capsys):
    blocks = _library_use_blocks()
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:Library use", "exec"), {"__name__": "readme_library_use"})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3  # the pair's impedance, the VSWR and the range
