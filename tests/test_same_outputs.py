"""tools/same_outputs.py: its corpus (every argv parses, and it covers every subcommand and the
README's examples; nothing is run but --help), and its report of what moved, on synthetic
inputs."""

import importlib.util
import json
import os
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


def op_list(*outs) -> bytes:
    return json.dumps([{"workload": w, "seed": seed, "op": op, "out": out}
                       for w, seed, op, out in outs]).encode()


def test_moved_entries_name_the_op_list_entries_that_differ():
    old = op_list(("esd_map", 1, 0, {"threshold": 0.5}), ("protocols", 1, 0, {"f": 0.8}),
                  ("protocols", 2, 1, {"f": float("nan")}))
    new = op_list(("esd_map", 1, 0, {"threshold": 0.5}), ("protocols", 1, 0, {"f": 0.81}),
                  ("protocols", 2, 1, {"f": float("nan")}), ("trajectory", 1, 0, {}))
    assert same_outputs.moved_entries(old, old) == []
    assert same_outputs.moved_entries(old, new) == ["workload=protocols seed=1 op=0",
                                                    "workload=trajectory seed=1 op=0"]


def test_moved_entries_name_the_death_set_rows_that_differ():
    def death_set(rows, gamma=5.0) -> bytes:
        return json.dumps({"gamma_mhz": gamma, "columns": ["lambda_ratio", "werner"],
                           "rows": rows}).encode()

    old = death_set([[1.2, [[0.25, 0.5]]], [1.205, [[0.25, 0.6]]]])
    assert same_outputs.moved_entries(
        old, death_set([[1.2, [[0.25, 0.5]]], [1.205, [[0.25, 0.7]]]])) == ["lambda_ratio=1.205"]
    assert same_outputs.moved_entries(
        old, death_set([[1.2, [[0.25, 0.5]]], [1.205, [[0.25, 0.6]]]], 6.0)) == ["gamma_mhz"]
    # the same entries in other bytes, and bytes that are not JSON
    assert same_outputs.moved_entries(old, old + b"\n") == ["the bytes alone: no entry differs"]
    assert same_outputs.moved_entries(old, b"[") == ["not comparable entry by entry"]


def test_moved_fields_name_each_run_and_field_that_differ():
    def run(code=0, stdout="", stderr="", files=None, warnings=()):
        return {"code": code, "stdout": stdout, "stderr": stderr, "files": files or {},
                "warnings": list(warnings)}

    old = [run(stdout="a\n"), run(files={"out": "a\n"}), run(files={"out": "a\n"})]
    assert same_outputs.moved_fields(old, old) == []
    assert same_outputs.moved_fields(old, [run(stdout="b\n"), *old[1:]]) == ["run: stdout"]
    assert same_outputs.moved_fields(
        old, [old[0], run(code=2, stderr="error\n", warnings=[["UserWarning", "w"]]), old[2]]) == [
        "run with --out: code, stderr, files, warnings"]
    assert same_outputs.moved_fields(old, [*old[:2], run(files={"out": "EARLIER, as it was"})]) == [
        "run with --out over an earlier file: files"]


def test_third_run_records_an_earlier_file_kept_cut_or_removed(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # run_once moves into each workdir

    def cut(argv):
        with open(argv[-1], "r+") as fh:
            fh.write("new\n")
            fh.truncate()
        return 0

    def removed(argv):
        os.remove(argv[-1])
        return 4

    def run(main, earlier):
        workdir = tmp_path / f"run{len(os.listdir(tmp_path))}"
        workdir.mkdir()
        record = same_outputs.run_once(main, ["evolve", "--out", "out"], workdir, earlier)
        return record["code"], record["files"]

    assert len(same_outputs.EARLIER) > 100_000
    assert run(lambda argv: 2, same_outputs.EARLIER) == (2, {"out": "EARLIER, as it was"})
    assert run(cut, same_outputs.EARLIER) == (0, {"out": "new\n"})
    assert run(removed, same_outputs.EARLIER) == (4, {})
    assert run(lambda argv: 2, None) == (2, {})
