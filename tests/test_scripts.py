"""Every script under ``scripts/`` loads as a module (``main`` is not
called), so a voxcrf name that a script imports and the package no longer
has fails here instead of in a manual run.  Likewise every ``voxcrf``
command of the README Quickstart parses (it is not run), and every flag the
README names is an option of a ``voxcrf`` subcommand, so a renamed or
removed flag fails here."""

import importlib.util
import re
import shlex
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))
README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_loads(path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # scripts prepend src/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read-only
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def _quickstart_commands() -> list[list[str]]:
    """The ``voxcrf ...`` commands of the README Quickstart block, with
    backslash continuations joined, as argv lists."""
    block = README.split("## Quickstart (CLI)", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.startswith("voxcrf ")]


QUICKSTART = _quickstart_commands()


def test_quickstart_lists_every_subcommand():
    from voxcrf.pipeline.cli import build_parser

    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    assert {argv[1] for argv in QUICKSTART} == set(subparsers.choices)


@pytest.mark.parametrize("argv", QUICKSTART, ids=lambda argv: " ".join(argv[:2]))
def test_quickstart_command_parses(argv):
    from voxcrf.pipeline.cli import build_parser

    assert argv[0] == "voxcrf"
    try:
        args = build_parser().parse_args(argv[1:])
    except SystemExit as e:
        pytest.fail(f"argparse rejects {' '.join(argv)!r} (exit {e.code})")
    assert args.command == argv[1]


def test_readme_flags_are_voxcrf_options():
    from voxcrf.pipeline.cli import build_parser

    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    options = {
        option
        for parser in subparsers.choices.values()
        for action in parser._actions
        for option in action.option_strings
    }
    paragraph = README.split("Useful flags", 1)[1].split("\n\n", 1)[0]
    named = set(re.findall(r"--[a-z][a-z-]*", paragraph))
    named |= {token for argv in QUICKSTART for token in argv if token.startswith("--")}
    assert named, "the README names no flag"
    assert named <= options, f"not an option of any voxcrf subcommand: {sorted(named - options)}"
