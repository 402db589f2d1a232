"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_quick_start():
    """The first python block of the README's "Quick start (library)" section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (library)", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block in the library quick start"
    return match.group(1)


def test_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(library_quick_start(), str(README), "exec"), {"__name__": "__readme__"})
    objective, iterations, screened = capsys.readouterr().out.split()
    assert float(objective) > 0 and int(iterations) > 0 and 0 < float(screened) <= 1
    assert (tmp_path / "trace.csv").read_text().count("\n") > int(iterations)
