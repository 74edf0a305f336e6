"""The README's code runs as written."""

import re
import shlex
from pathlib import Path

from cptkit import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_python_block_of_the_readme_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.DOTALL | re.MULTILINE)
    assert blocks
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {number}", "exec"), {})


def _cli_block_commands() -> list[list[str]]:
    """The arguments of each ``cpt-kit`` line of the CLI section's shell
    block, in order, with continued lines joined."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section, re.DOTALL | re.MULTILINE).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("cpt-kit ")]


def test_the_cli_block_of_the_readme_runs_in_order(tmp_path, monkeypatch, capsys):
    # each command reads only files that an earlier one writes
    monkeypatch.chdir(tmp_path)
    commands = _cli_block_commands()
    assert commands
    for argv in commands:
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)
