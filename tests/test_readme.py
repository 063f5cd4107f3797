"""The README's examples run: the Python block, the calculus-file JSON,
every command-line example, and the table of subcommands."""

import argparse
import json
import pathlib
import re
import shlex

import pytest

from metalogic import Bounds, parse_calculus_data
from metalogic.cli import _build_parser, main

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")


def fenced(language: str) -> list:
    """The bodies of the README's code blocks fenced as ``language``."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)


def cli_examples() -> list:
    """Each ``metalogic ...`` command of the shell blocks, as an argv
    without the program name, continuation lines joined."""
    commands = []
    for block in fenced("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("metalogic "):
                commands.append(shlex.split(line)[1:])
    return commands


EXAMPLES = cli_examples()
# The exit code each example must return: 1 is the rejected --accept word,
# 2 the Church-pair comparison that stays inconclusive.
EXPECTED_EXIT = {"parse": 0, "derive": 0, "enum-body": 0, "compare": 2,
                 "check": 0, "relation": 0, "relation-check": 0, "automaton": 1}


def test_the_python_example_runs():
    [code] = fenced("python")
    exec(compile(code, "README.md", "exec"), {})


def test_the_calculus_file_example_loads():
    [text] = fenced("json")
    loaded = parse_calculus_data(json.loads(text))
    assert loaded.calculus.name == "my-calculus"
    assert loaded.bounds == Bounds(4, 25, 200000, 7)
    assert len(loaded.staged) == 1


def test_every_example_has_an_expected_exit_code():
    assert sorted(argv[0] for argv in EXAMPLES) == sorted(EXPECTED_EXIT)


@pytest.mark.parametrize("index", range(len(EXAMPLES)),
                         ids=[argv[0] for argv in EXAMPLES])
def test_the_cli_example_runs(index, tmp_path, monkeypatch, capsys):
    """Run in a directory holding README's calculus file, after the earlier
    examples that write a file the later ones read."""
    [text] = fenced("json")
    (tmp_path / "my-calculus.json").write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for earlier in EXAMPLES[:index]:
        if "--out" in earlier:
            assert main(earlier) == 0
    argv = EXAMPLES[index]
    assert main(argv) == EXPECTED_EXIT[argv[0]]
    assert capsys.readouterr().err == ""


def test_the_command_table_lists_every_subcommand():
    listed = re.findall(r"^\| `([a-z-]+)` \|", README, re.M)
    [subparsers] = [action for action in _build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)]
    assert listed == list(subparsers.choices)
