"""README examples: every fenced ``$ cpt ...`` line whose output is shown
is run through ``cli.main`` and must print that output."""

import json
import re
import shlex
from pathlib import Path

import pytest

from cptower.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples() -> list:
    """(command line, shown output) for each ``$ cpt`` example in a fenced
    block of README.md that is followed by output."""
    examples = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(),
                            re.M | re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            if command.startswith("cpt ") and output.strip():
                examples.append((command, output.rstrip("\n") + "\n"))
    return examples


def test_readme_has_examples():
    commands = [command for command, _ in readme_examples()]
    assert "cpt iso CP3 GB2:0" in commands
    assert len(commands) >= 5


@pytest.mark.parametrize("command, shown", readme_examples())
def test_readme_example(capsys, monkeypatch, command, shown):
    monkeypatch.delenv("CPT_CACHE_DIR", raising=False)
    code = main(shlex.split(command)[1:])
    out = capsys.readouterr().out
    assert code in (0, 1)
    if shown.startswith("{"):
        # the README prints matrices compactly: compare JSON by value
        assert json.loads(out) == json.loads(shown)
    else:
        assert out == shown
