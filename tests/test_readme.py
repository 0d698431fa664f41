"""README's library example runs as written against the sample catalog, and
its CLI examples parse."""

import re
import shlex
from pathlib import Path

import pytest

from invopt.cli import _build_parser

README = Path(__file__).parents[1] / "README.md"


def test_library_example_runs(capsys, table1_path):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    [example] = [block for block in blocks if "load_catalog(" in block]
    assert '"products.csv"' in example
    code = compile(example.replace('"products.csv"', repr(table1_path)), str(README), "exec")
    exec(code, {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == example.count("print(")


def test_cli_examples_parse():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines]
    commands = [argv[1:] for argv in commands if argv and argv[0] == "invopt"]
    assert len(commands) >= 7
    for argv in commands:
        try:
            _build_parser().parse_args(argv)
        except SystemExit:  # an unknown or missing argument
            pytest.fail(f"README command does not parse: invopt {shlex.join(argv)}")
