"""The README's quick start runs as written, so that a changed option shows here."""

from __future__ import annotations

import argparse
import re
import shlex
from pathlib import Path

from ragsift.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_commands() -> list[str]:
    """Every ``ragsift`` command of the first bash block under "Quick start", one line each."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quick start") :]
    block = re.search(r"```bash\n(.*?)```", section, re.DOTALL).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("ragsift ")]


def test_quick_start_commands_exit_0(mini_dir, tmp_path, monkeypatch, capsys):
    commands = quick_start_commands()
    # every command is shown at least once
    actions = build_parser()._actions
    (subcommands,) = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
    assert {c.split()[1] for c in commands} == set(subcommands.choices)
    monkeypatch.chdir(tmp_path)
    for command in commands:
        argv = shlex.split(command.replace("$MINI", str(mini_dir)))
        assert main(argv[1:]) == 0, (command, capsys.readouterr().err)
