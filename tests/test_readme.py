"""The README's code examples run as written."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_use_block_runs_from_the_repository_root(monkeypatch):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library use\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md (Library use)", "exec"), {})
