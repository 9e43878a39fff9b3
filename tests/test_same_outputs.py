"""The corpus of tools/same_outputs.py: every argv parses, and it covers every subcommand and
the README's examples.  Nothing is run but --help."""

import importlib.util
from pathlib import Path

import pytest
from test_readme import cli_examples
from wgqed.cli import COMMANDS, build_parser

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(same_outputs)


def test_corpus_parses_and_covers_every_subcommand(capsys):
    parser = build_parser()
    for argv in same_outputs.CORPUS:
        if "--help" not in argv:
            parser.parse_args(argv)  # a refused argv exits, failing the test
            continue
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 0 and capsys.readouterr().out.startswith(f"usage: wgqed {argv[0]}")
    assert {argv[0] for argv in same_outputs.CORPUS} == set(COMMANDS)
    assert sorted(argv[0] for argv in same_outputs.CORPUS if "--help" in argv) == sorted(COMMANDS)


def test_corpus_holds_the_readme_examples():
    examples = cli_examples()
    assert len(examples) == 6
    assert all(argv in same_outputs.CORPUS for argv in examples)
