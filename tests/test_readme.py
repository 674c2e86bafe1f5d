"""The README's examples run and print what the README shows."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from pxpy.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_block(heading, language):
    section = README.split(heading, 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def cli_examples():
    """(argv, shown output lines) for each `$ pxpy ...` example."""
    examples = []
    for chunk in fenced_block("Examples:", "sh").strip().split("\n\n"):
        command, *shown = chunk.splitlines()
        assert command.startswith("$ pxpy ")
        argv = shlex.split(command[len("$ pxpy "):], comments=True)
        examples.append(pytest.param(argv, shown, id=argv[0]))
    return examples


def test_library_quick_start():
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(fenced_block("## Library quick start", "python"), {})
    last = printed.getvalue().splitlines()[-1]
    assert last == "Case 2.1 rejected k^2 = 1 + 2 = 3 has no integer solution"


@pytest.mark.parametrize("argv, shown", cli_examples())
def test_cli_example(capsys, argv, shown):
    assert main(argv) == 0
    out = capsys.readouterr().out
    if shown[0].startswith("{"):
        # JSON is elided with "...": every quoted string and every
        # "key": scalar pair shown must appear as printed.
        fragments = re.findall(r'"[^"]*"(?:: (?:"[^"]*"|true|false|null))?', " ".join(shown))
        assert fragments
        for fragment in fragments:
            assert fragment in out
    else:
        lines = shown[: shown.index("...")] if "..." in shown else shown
        assert out.splitlines()[: len(lines)] == lines
