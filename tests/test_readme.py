"""README's command-line examples, run in process: stdout must match byte
for byte the line printed under each `$ lynhopf ...` command."""

import shlex
from pathlib import Path

from lynhopf import cli

README = Path(__file__).resolve().parent.parent / "README.md"

# needs element.json and space.json, which are not part of the repository
SKIPPED = ("expand element.json --space space.json",)


def readme_examples():
    """(argv, expected stdout line) for each `$ lynhopf` line in README."""
    lines = README.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        if line.startswith("$ lynhopf "):
            command = line[len("$ lynhopf "):]
            if command not in SKIPPED:
                yield shlex.split(command), lines[i + 1]


def test_readme_cli_examples(capsys):
    checked = 0
    for argv, expected in readme_examples():
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr().out == expected + "\n", argv
        checked += 1
    assert checked == 9
