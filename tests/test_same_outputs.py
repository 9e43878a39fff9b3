"""The corpus of tools/same_outputs.py: every argv parses, and it covers every subcommand and
the README's examples.  Nothing is run."""

import argparse
import importlib.util
from pathlib import Path

from test_readme import cli_examples
from wgqed.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(same_outputs)


def test_corpus_parses_and_covers_every_subcommand():
    parser = build_parser()
    for argv in same_outputs.CORPUS:
        parser.parse_args(argv)  # a refused argv exits, failing the test
    commands = next(a.choices for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in same_outputs.CORPUS} == set(commands)


def test_corpus_holds_the_readme_examples():
    examples = cli_examples()
    assert len(examples) == 6
    assert all(argv in same_outputs.CORPUS for argv in examples)
