"""The README's library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

from futsim.cli import ALL, OPTIONS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.strip()


def test_readme_flag_table_matches_the_options():
    table = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        match = re.match(r"\| `--([a-z-]+)[^|]*?` \| ([a-z, ]+) \|", line.replace("\\|", "/"))
        if match:
            commands = match.group(2).strip()
            table[match.group(1)] = ALL if commands == "all" else tuple(c.strip() for c in commands.split(","))
    assert table == {**{opt.name: opt.commands for opt in OPTIONS}, "config": ALL}
