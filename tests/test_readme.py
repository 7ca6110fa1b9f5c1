"""The README's "Library use" example runs against the package as it is."""

import re

from conftest import ROOT


def library_use_snippet() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.S | re.M)
    assert len(blocks) == 1, "expected one python block under Library use"
    return blocks[0]


def test_readme_library_use_runs(monkeypatch, capsys):
    # the example opens fixtures by paths relative to the checkout root
    monkeypatch.chdir(ROOT)
    exec(compile(library_use_snippet(), "README.md", "exec"), {})
    # two arrays: the equal-weight net flows and the rank acceptabilities of s3
    printed = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("[") for line in printed) == 2
