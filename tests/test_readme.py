"""The command-line examples of README.md against the CLI: its `example ...
--out` commands are run in a temporary directory, then every `$ gibbsfactor`
block, whose shown lines must be the command's output line for line (a
shown line ending in `...` is a prefix of its output line)."""

from __future__ import annotations

import shlex
from pathlib import Path

from gibbsfactor.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """(example commands, [(command, shown lines)]) of the indented blocks."""
    lines = README.read_text().splitlines()
    examples = [line.strip() for line in lines if line.startswith("    gibbsfactor example ") and "--out" in line]
    blocks = []
    for i, line in enumerate(lines):
        if line.startswith("    $ gibbsfactor "):
            shown = []
            for after in lines[i + 1 :]:
                if not after.startswith("    ") or after.startswith("    $ "):
                    break
                shown.append(after[4:])
            blocks.append((line[len("    $ ") :], shown))
    return examples, blocks


def test_readme_blocks_show_the_cli_output(tmp_path, monkeypatch, capsys):
    examples, blocks = readme_commands()
    assert len(examples) == 2 and len(blocks) == 3
    monkeypatch.chdir(tmp_path)
    for command in examples:
        assert main(shlex.split(command)[1:]) == 0
    capsys.readouterr()
    for command, shown in blocks:
        main(shlex.split(command)[1:])
        out = capsys.readouterr().out.splitlines()
        assert len(out) == len(shown), command
        for got, want in zip(out, shown):
            if want.endswith("..."):
                assert got.startswith(want[: -len("...")]), command
            else:
                assert got == want, command
