"""The README's library example and CLI examples run against the package as it is."""

import re
import shlex
from pathlib import Path

from wgqed.cli import COMMANDS, EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    names = {}
    exec(compile(blocks[0], str(README), "exec"), names)
    # Werner f = 0.9 at lambda/x2 = 1.5 dies and revives (acceptance criterion 6)
    report = names["report"]
    assert capsys.readouterr().out == f"{report.death_times} {report.revival_times}\n"
    assert report.death_times and report.revival_times
    assert names["rho"].shape == (len(names["times"]), 4, 4)


def cli_examples() -> list[list[str]]:
    """The argv of each `wgqed` line in the README's sh blocks."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()  # continuation lines joined
    return [shlex.split(line)[1:] for line in lines if line.startswith("wgqed ")]


def test_cli_examples_run(tmp_path, monkeypatch, capsys):
    commands = cli_examples()
    assert [argv[0] for argv in commands] == ["rates", "evolve", "scan", "prepare", "mix", "cpw"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == EXIT_OK, argv
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mix.csv", "scan.csv", "traj.json"]
    assert "f_achieved = " in capsys.readouterr().out


def test_cli_section_names_every_flag():
    section = re.search(r"^## CLI\n(.*?)(?=^## |\Z)", README.read_text(), re.S | re.M)[1]
    flags = {flag for _, _, flags in COMMANDS.values() for flag in flags.split()}
    # in backticks, alone or with a value: `--f`, `--state werner|pw`, `--t-max=0.25`
    assert sorted(f for f in flags if not re.search(f"`{f}[ `=]", section)) == []
