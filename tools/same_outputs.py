"""Whether two source trees give the same outputs, item by item.

Run from anywhere:

    python3 tools/same_outputs.py PARENT_TREE CHANGE_TREE

One child process per tree (``PYTHONPATH=<tree>/src``) writes both ``tests/make_*_reference.py``
files, and runs each argv of CORPUS through ``wgqed.cli.main`` three times: as it stands, with
``--out`` added, and with ``--out`` over an earlier, longer file (EARLIER), so whether a run keeps,
cuts or removes an earlier file is compared too.  Each run starts in a directory that holds
nothing else and keeps every file it leaves there, so an argv's own ``--out`` file counts too.
The tool prints ``same`` or ``differs`` per item and exits 1 if any item differs.  A reference
file is compared byte for byte; under one that differs it lists the entries that differ
(:func:`moved_entries`).  A CORPUS item is its three runs' exit codes, stdout, stderr, files (or
their absence) and warnings; a warning is its category and message, not its file:line, which
moves with the code, and EARLIER, where a run leaves it as it was, is recorded by name.  Under an
item that differs it lists, per run, which of these differ (:func:`moved_fields`).
"""

from __future__ import annotations

import io
import json
import os
import runpy
import shlex
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

REFERENCES = ("make_death_set_reference.py", "make_op_list_reference.py")

EVOLVE = ["evolve", "--f", "0.9", "--lambda-ratio", "1.5", "--t-max", "0.5", "--sample-dt", "0.01"]
SCAN = ["scan", "--f-range", "0.7:0.9:0.1", "--lambda-ratios", "1.3,2.0", "--t-max", "0.5",
        "--sample-dt", "0.01"]
MIX = ["mix", "--pulse", "2", "--wait", "0.5", "--sample-dt", "0.05", "--gamma-nr", "3"]
CPW = ["cpw", "--width", "20", "--gap", "8", "--freq", "7"]

CORPUS = [
    # the README's examples
    ["rates", "--range", "1.2:2.0:0.1"],
    ["evolve", "--state", "werner", "--f", "0.9", "--lambda-ratio", "1.5", "--t-max", "2",
     "--sample-dt", "0.001", "--format", "json", "--out", "traj.json"],
    ["scan", "--state", "pw", "--f-range", "0.5:1.0:0.1", "--lambda-ratios", "1.2,1.3,1.5,2.0",
     "--out", "scan.csv"],
    ["prepare", "--f", "0.8", "--dissipative"],
    ["mix", "--pulse", "35", "--wait", "4.861", "--out", "mix.csv"],
    ["cpw", "--width", "20", "--gap", "8", "--freq", "7"],
    # each subcommand in each of its formats
    *[argv + ["--format", fmt]
      for argv in (["rates", "--range", "1.5"], EVOLVE, SCAN, MIX, CPW,
                   ["cpw", "--width", "20", "--gap", "8"])
      for fmt in ("csv", "json")],
    EVOLVE + ["--state", "pw", "--delta-bare", "2", "--g", "0.5"],
    ["evolve", "--f", "0.9", "--lambda-ratio", "1.5"],  # the default time grid
    ["prepare", "--f", "0.8"],
    ["prepare", "--f", "0.7", "--dissipative", "--g", "20", "--g-bc", "5", "--gamma-nr", "0.1"],
    MIX + ["--flip"],
    # refusals, and numerical and invariant failures
    ["evolve", "--f", "0.9", "--lambda-ratio", "1.5", "--t-max", "5e-324"],
    ["evolve", "--f", "0.9", "--lambda-ratio", "1.5", "--t-max", "5e-324", "--sample-dt",
     "5e-324"],
    ["scan", "--f-range", "0.9", "--lambda-ratios", "1.5", "--t-max", "1e-322"],
    ["mix", "--pulse", "1", "--sample-dt", "1e-7"],
    ["prepare", "--f", "0.5", "--g", "-1"],
    ["prepare", "--f", "0.5", "--g", "0"],
    ["cpw", "--width", "20", "--gap", "8", "--x2", "-1"],
    ["evolve", "--f", "0.9", "--lambda-ratio", "1.5", "--gamma", "0"],
    ["evolve", "--f", "5", "--lambda-ratio", "1.5"],
    ["rates", "--range", "1e-320"],
    ["cpw", "--width", "20", "--gap", "8", "--freq", "1e-320"],
    ["scan", "--lambda-ratios", "1.5", "--t-max", "-1"],
    ["prepare", "--f", "0.8", "--dissipative", "--g", "1e-320"],
    ["mix", "--pulse", "1e308", "--wait", "1e308", "--sample-dt", "1e308", "--omega", "0",
     "--gamma-nr", "0"],
    ["scan", "--f-range", "0.8:0.9:0.1", "--lambda-ratios", "1.5,2.0", "--gamma", "1e300",
     "--t-max", "1", "--sample-dt", "0.5"],
    ["evolve", "--f", "0.9", "--lambda-ratio", "1.5", "--gamma", "1e300", "--t-max", "1",
     "--sample-dt", "0.5"],
    ["mix", "--omega", "1e8", "--pulse", "35", "--sample-dt", "0.01"],
    # each subcommand's --help
    *[[cmd, "--help"] for cmd in ("rates", "evolve", "scan", "prepare", "mix", "cpw")],
]

#: what the third run of each argv finds at its --out path: longer than every CORPUS output
EARLIER = "an earlier, longer output\n" * 40000

#: the child's entry point: this file's run_tree, under the tree's own wgqed
CHILD = "import runpy, sys; runpy.run_path(sys.argv[1])['run_tree'](*sys.argv[2:])"


def run_once(main, argv: list[str], workdir: Path, earlier: str | None) -> dict:
    """One cli.main run in the empty workdir, holding earlier as "out" if given: its code,
    streams, files and warnings."""
    stdout, stderr = io.StringIO(), io.StringIO()
    os.chdir(workdir)
    if earlier is not None:
        Path("out").write_text(earlier)
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(stdout), redirect_stderr(stderr):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    files = {p.name: p.read_bytes().decode("latin-1") for p in workdir.iterdir()}
    return {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
            "files": {k: "EARLIER, as it was" if v == EARLIER else v for k, v in files.items()},
            "warnings": [[w.category.__name__, str(w.message)] for w in caught]}


def run_tree(tree: str, outdir: str):
    """In the child: the reference files and runs.json, one [run, run with --out, run with --out
    over EARLIER] per argv."""
    import wgqed.cli

    out = Path(outdir)
    src = Path(tree, "src")
    if Path(wgqed.cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"wgqed imported from {wgqed.cli.__file__}, not from {src}")
    for name in REFERENCES:
        sys.argv = [name, str(out / name)]
        runpy.run_path(str(Path(tree, "tests", name)), run_name="__main__")
    out_flag = ["--out", "out"]
    runs = [[run_once(wgqed.cli.main, argv + extra, Path(tempfile.mkdtemp(dir=out)), earlier)
             for extra, earlier in (([], None), (out_flag, None), (out_flag, EARLIER))]
            for argv in CORPUS]
    (out / "runs.json").write_text(json.dumps(runs))


def outputs(tree: str, outdir: Path) -> list:
    """The runs of the tree's child process, which leaves its reference files in outdir."""
    outdir.mkdir()
    tree = Path(tree).resolve()
    subprocess.run([sys.executable, "-c", CHILD, str(Path(__file__).resolve()), tree, outdir],
                   cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")}, check=True)
    return json.loads((outdir / "runs.json").read_text())


def entries(ref) -> dict:
    """A reference's entries by their identifying fields: an op-list entry by workload, seed and
    op, a death-set row by its lambda / x2, and any other key of the death-set file by name."""
    if isinstance(ref, list):
        return {f"workload={e['workload']} seed={e['seed']} op={e['op']}": e for e in ref}
    return {**{k: v for k, v in ref.items() if k != "rows"},
            **{f"lambda_ratio={row[0]!r}": row for row in ref.get("rows", [])}}


def moved_entries(old: bytes, new: bytes) -> list[str]:
    """The entries of two reference files' bytes that differ, added or gone; none if the bytes
    are equal.  Entries are compared as their JSON text, so NaN equals NaN."""
    if old == new:
        return []
    try:
        old_entries, new_entries = entries(json.loads(old)), entries(json.loads(new))
    except (ValueError, KeyError, TypeError, IndexError):
        return ["not comparable entry by entry"]
    moved = [k for k in {**old_entries, **new_entries}
             if k not in old_entries or k not in new_entries
             or json.dumps(old_entries[k]) != json.dumps(new_entries[k])]
    return moved or ["the bytes alone: no entry differs"]


def moved_fields(old: list[dict], new: list[dict]) -> list[str]:
    """Per run of a CORPUS item (without --out, with it, and with it over EARLIER), which of its
    fields differ."""
    runs = ("run", "run with --out", "run with --out over an earlier file")
    return [f"{run}: {', '.join(k for k in a if a[k] != b[k])}"
            for run, a, b in zip(runs, old, new) if a != b]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage:", __doc__.split("\n\n")[2].strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [Path(tmp, side) for side in ("parent", "change")]
        parent, change = [outputs(tree, outdir) for tree, outdir in zip(argv, dirs)]
        items = [(name, moved_entries(*[(d / name).read_bytes() for d in dirs]))
                 for name in REFERENCES]
    items += [(shlex.join(argv), moved_fields(a, b)) for argv, a, b in zip(CORPUS, parent, change)]
    for name, moved in items:
        print(f"{'differs' if moved else 'same'}  {name}")
        for line in moved:
            print(f"    {line}")
    return 1 if any(moved for _, moved in items) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
