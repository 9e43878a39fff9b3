"""Write op_list_reference.json: what the benchmark's op lists make the program output.

Run from the repository root after a change that moves an output on purpose, and list the
moved entries with the change:

    PYTHONPATH=src python tests/make_op_list_reference.py [OUT]

OUT defaults to the committed ``op_list_reference.json``.  Another path lets two trees'
outputs, regenerated on one host, be compared byte for byte with ``cmp``.

The op lists are those of ``perfbench/workloads.py``: esd_map and protocols at seeds 1-5,
trajectory at seed 1.  Each op runs through ``cli.main`` as the benchmark runs it: a threshold op
is one ``esd_threshold`` call, a protocol op is ``mix`` and then ``prepare --dissipative`` at the
``f_achieved`` that ``mix`` wrote.  Scan and evolve ops run with ``--format json``, which holds
the same numbers as their CSV at full precision.  The file keeps every scan row and, of each
sample table, every 50th row, the last row and the row count.  It is a regression reference for
``test_op_list_reference.py``.
"""

import json
import sys
import tempfile
from pathlib import Path

import wgqed
from wgqed.cli import main as cli_main

PATH = Path(__file__).with_name("op_list_reference.json")
sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
import workloads as wl  # noqa: E402

SEEDS = {"esd_map": range(1, 6), "trajectory": [1], "protocols": range(1, 6)}
ROW_STEP = 50


def thin(payload: dict) -> dict:
    """The payload without generated_by and config, its samples cut to every ROW_STEP-th row."""
    out = {k: v for k, v in payload.items() if k not in ("generated_by", "config")}
    if "samples" in out:
        rows = out["samples"]
        out["samples"] = rows[::ROW_STEP] + ([rows[-1]] if (len(rows) - 1) % ROW_STEP else [])
        out["n_samples"] = len(rows)
    return out


def run_cli(argv: list[str], workdir: str) -> dict:
    out = str(Path(workdir) / "out.json")
    rc = cli_main(argv + ["--out", out])
    if rc != 0:
        raise RuntimeError(f"{argv} exited {rc}")
    return json.loads(Path(out).read_text())


def run_op(op: dict, workdir: str) -> dict:
    """The outputs of one op, in the form the reference keeps."""
    if op["kind"] == "threshold":
        p = wgqed.WaveguideParams(gamma=wgqed.mhz(wl.GAMMA_MHZ),
                                  gamma_nr=wgqed.mhz(wl.GAMMA_NR_MHZ), lambda_ratio=op["ratio"])
        return {"threshold": wgqed.esd_threshold(op["ratio"], p, op["family"])}
    if op["kind"] in ("scan", "evolve"):
        return thin(run_cli(op["argv"] + ["--format", "json"], workdir))
    mix = run_cli(op["mix_argv"], workdir)
    prep = run_cli(["prepare", "--f", repr(mix["f_achieved"]), "--dissipative",
                    "--gamma-nr", repr(wl.GAMMA_NR_MHZ)], workdir)
    return {"mix": thin(mix),
            "prepare": {k: prep[k] for k in ("rho_out", "fidelity_to_target")}}


def outputs() -> list[dict]:
    wait = lambda f: wgqed.wait_time_for_f(f, wgqed.mhz(wl.GAMMA_NR_MHZ))  # noqa: E731
    with tempfile.TemporaryDirectory() as workdir:
        return [{"workload": workload, "seed": seed, "op": i, "out": run_op(op, workdir)}
                for workload, seeds in SEEDS.items() for seed in seeds
                for i, op in enumerate(wl.make_ops(workload, seed, wait_time_for_f=wait))]


def main(path: Path):
    lines = ",\n".join(json.dumps(entry) for entry in outputs())
    path.write_text("[\n" + lines + "\n]\n")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else PATH)
