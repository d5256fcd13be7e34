"""The README's code runs as written, and every exported name exists and is
named in it."""

import re
from pathlib import Path

import cohwit

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_runs(capsys):
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library quick tour") :]
    block = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out  # the tour prints what its comments describe


def test_every_exported_name_resolves():
    missing = [name for name in cohwit.__all__ if not hasattr(cohwit, name)]
    assert not missing
    assert len(set(cohwit.__all__)) == len(cohwit.__all__)


def test_readme_names_every_exported_name():
    text = README.read_text(encoding="utf-8")
    unnamed = [name for name in cohwit.__all__ if not re.search(rf"\b{re.escape(name)}\b", text)]
    assert not unnamed, f"exported but not named in README.md: {unnamed}"
