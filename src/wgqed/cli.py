"""Command-line front end: rates tables, trajectories, scans, preparation runs.

Human-facing rates are linear frequencies in MHz (the 2*pi divided back
out); internal angular-frequency values appear in JSON under ``raw``.
Output files are byte-deterministic: '.' decimal, ',' separator, '\\n'
line endings, no timestamps, 12 significant digits in CSV and in JSON the shortest repr.
A run writes --out from its start, in place, and cuts a regular file at the end of the new
output; a device or FIFO (/dev/null, /dev/stdout, a pipe) is written without a cut.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import math
import os
import stat
import sys
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np

from . import __version__
from .cpw import CpwGeometry, cpw_derive, lambda_ratio_for_freq, wavelength
from .dynamics import (MAX_SAMPLES, IntegrationError, InvariantViolation, evolve_xstate,
                       sample_times, whole_steps)
from .entangle import detect_events, trajectory_concurrences
from .linalg import fidelity
from .model import TWO_PI, WaveguideParams, derive_rates, mhz
from .states import FAMILIES, PrepConfig, RabiConfig, mixed_qubit, prepare_pw, pseudo_werner

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_INVARIANT = 4

GENERATED_BY = f"wgqed {__version__}"

#: table rows per write, so no table is held as one string (4096 peaked 1 MB higher at 2001)
CSV_BLOCK = 1024


def parse_range(spec: str) -> np.ndarray:
    """Parse 'x' into one point, and 'start:stop:step' into ``whole_steps(start, stop, step)``:
    stop is included when the span is a whole number of steps, up to round-off, and a grid past
    MAX_SAMPLES samples raises ValueError naming the range, before anything is allocated."""
    try:
        values = [float(p) for p in spec.split(":")]
    except ValueError:
        values = []
    grid = len(values) == 3 and values[2] > 0 and values[1] >= values[0]
    if not (all(map(math.isfinite, values)) and (len(values) == 1 or grid)):
        raise ValueError(f"malformed range {spec!r}, expected 'start:stop:step' or a number")
    if len(values) == 1:
        return np.array(values)
    return whole_steps(*values, f"range {spec!r}")


def csv_line(row) -> str:
    """One CSV line: numbers at 12 significant digits, None as an empty field."""
    return ",".join("" if v is None else "%.12g" % v for v in row)


def settings(args: argparse.Namespace) -> dict:
    """Every parsed setting of the subcommand: the flags a config file may set."""
    return {k: v for k, v in vars(args).items() if k not in ("func", "command", "config")}


def csv_blocks(columns: list[str], rows):
    """The header, then CSV_BLOCK rows at a time: column arrays' by one %, a list's by csv_line."""
    yield ",".join(columns) + "\n"
    line = ",".join(["%.12g"] * len(columns)) + "\n"
    arrays = isinstance(rows, tuple)
    for k in range(0, len(rows[0]) if arrays else len(rows), CSV_BLOCK):
        block = (np.column_stack([col[k:k + CSV_BLOCK] for col in rows]) if arrays
                 else rows[k:k + CSV_BLOCK])
        yield (line * len(block) % tuple(block.ravel().tolist()) if arrays
               else "".join(csv_line(row) + "\n" for row in block))


def json_blocks(payload: dict):
    """json.dumps(payload, indent=2, sort_keys=True) + "\\n", with its table in blocks."""
    key = next(k for k, v in payload.items() if isinstance(v, tuple))  # the tuple of columns
    table = payload.pop(key)
    assert max(payload) < key  # so the array takes the place of the closing "\n}"
    yield json.dumps(payload, indent=2, sort_keys=True)[:-2] + f',\n  "{key}": ['
    row = "\n    [\n      " + ",\n      ".join(["%s"] * len(table)) + "\n    ]"
    for k in range(0, len(table[0]), CSV_BLOCK):
        block = np.column_stack([col[k:k + CSV_BLOCK] for col in table])
        values = block.ravel().tolist()  # %s of a float is float.__repr__, as in json
        for i in np.flatnonzero(~np.isfinite(block)):  # but json spells NaN and Infinity
            values[i] = json.dumps(values[i])
        yield ("," if k else "") + ",".join([row] * len(block)) % tuple(values)
    yield "\n  ]\n}\n" if len(table[0]) else "]\n}\n"


def emit(args, fields: dict, columns: list[str] | None = None, rows=()):
    """Write a result over --out (checked by :func:`check_out`) from its start, or to stdout.

    JSON, for --format json or a result with no table, is {"generated_by", "config",
    **fields}, config holding every setting but --out and --format.  CSV is the columns,
    then one line per row.  A None-free table is a tuple of column arrays, also a field.
    """
    if columns is None or args.format == "json":
        config = {k: v for k, v in settings(args).items() if k not in ("out", "format")}
        payload = {"generated_by": GENERATED_BY, "config": config, **fields}
        blocks = (json_blocks(payload) if any(isinstance(v, tuple) for v in fields.values())
                  else [json.dumps(payload, indent=2, sort_keys=True) + "\n"])
    else:
        blocks = csv_blocks(columns, rows)
    if args.out is None:
        sys.stdout.writelines(blocks)
        return
    with os.fdopen(open_out(args.out), "w", newline="") as fh:
        try:
            fh.writelines(blocks)
            fh.flush()
        finally:  # cut at the bytes written, so a failed write too leaves no old tail
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                os.ftruncate(fh.fileno(), os.lseek(fh.fileno(), 0, os.SEEK_CUR))


# --- configuration files -------------------------------------------------

def with_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """argv with the keys of its --config file as flags right after the subcommand name.

    The user's own flags come after them, so they win in either spelling.
    """
    if not any(a == "--config" or a.startswith("--config=") for a in argv):
        return argv  # the only tokens the pre-parser acts on
    pre = argparse.ArgumentParser(prog="wgqed", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    commands = next(a.choices for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    at = next((i for i, a in enumerate(argv) if a in commands), None)
    if path is None or at is None:
        return argv
    cp = configparser.ConfigParser(interpolation=None)  # a '%' in a value is literal
    try:
        if not cp.read(path):
            raise ValueError(f"cannot read config file {path}")
    except configparser.Error as exc:
        raise ValueError(f"malformed config file {path}: {exc}") from None
    flags = []
    for section in cp.sections():
        for key, value in cp[section].items():
            flag, name = "--" + key.replace("_", "-"), key.replace("-", "_")
            action = commands[argv[at]]._option_string_actions.get(flag)
            if action is None or action.dest in ("help", "config"):
                raise ValueError(f"unknown config key {name!r} in section [{section}]")
            if action.nargs != 0:
                flags.append(f"{flag}={value}")
                continue
            try:  # store_true: the bare flag when true
                on = cp[section].getboolean(key)
            except ValueError as exc:
                raise ValueError(f"config key {name!r} in section [{section}] of {path}: "
                                 f"{exc}") from None
            if on:
                flags.append(flag)
    return argv[:at + 1] + flags + argv[at + 1:]


# --- subcommand implementations ------------------------------------------

def make_params(args, lambda_ratio: float) -> WaveguideParams:
    return WaveguideParams(
        gamma=mhz(args.gamma),
        gamma_nr=mhz(args.gamma_nr),
        lambda_ratio=lambda_ratio,
        delta_bare=mhz(getattr(args, "delta_bare", 0.0)),
        g=mhz(getattr(args, "g", 0.0)),
    )


def cmd_rates(args) -> int:
    columns = ("lambda_ratio,phi_rad,Gamma_a_MHz,Gamma_b_MHz,Gamma_col_MHz,"
               "g_x_MHz,d_omega1_MHz,d_omega2_MHz").split(",")
    ratios = parse_range(args.range)
    p = make_params(args, float(ratios[0]))  # checks the flags; the grid ascends from ratios[0]
    r = vars(derive_rates(SimpleNamespace(**{**vars(p), "lambda_ratio": ratios})))  # in one call
    table = (ratios, r["phi"], *[v / TWO_PI for k, v in r.items() if k != "phi"])
    emit(args, {"columns": columns, "rows": table}, columns, table)
    return EXIT_OK


def rates_dict(r) -> dict:
    d = asdict(r)
    out = {k: v / TWO_PI for k, v in d.items() if k != "phi"}
    out["phi_rad"] = d["phi"]
    out["units"] = "MHz (linear frequency)"
    out["raw"] = {**d, "units": "rad/us (angular frequency); phi in rad"}
    return out


def cell_inputs(args, lambda_ratio: float) -> tuple:
    """(rates, params, t_max, sample_dt) of a trajectory at lambda_ratio, from the flags;
    t_max defaults to 8/gamma and sample_dt to t_max/1000."""
    p = make_params(args, lambda_ratio)
    if args.t_max is None and not (p.gamma > 0 and math.isfinite(8.0 / p.gamma)):
        raise ValueError(f"--gamma {args.gamma} sets no finite default time grid (8/gamma); "
                         "give --t-max")
    t_max = args.t_max if args.t_max is not None else 8.0 / p.gamma
    sample_dt = args.sample_dt if args.sample_dt is not None else t_max / 1000.0
    return derive_rates(p), p, t_max, sample_dt


def scan_column(args, x0s: np.ndarray, lambda_ratio: float) -> list:
    """Per x0 (row of the stack x0s), the events of its trajectory at lambda_ratio, or the error.

    The states are propagated as stacks of at most MAX_SAMPLES // n_t states (at least 1), so a
    scan never holds more samples than one trajectory at the cap.  A stack that fails is redone
    state by state, so each cell names its own failure.
    """
    inputs = cell_inputs(args, lambda_ratio)
    batch = max(1, MAX_SAMPLES // len(sample_times(*inputs[2:])))
    out = []
    for k in range(0, len(x0s), batch):
        cells = x0s[k:k + batch]
        try:
            times, states = evolve_xstate(cells, *inputs)
            out += detect_events(times, trajectory_concurrences(states))
        except (IntegrationError, InvariantViolation) as exc:
            out += [exc] if len(cells) == 1 else [
                rep for x0 in cells for rep in scan_column(args, x0[None], lambda_ratio)]
    return out


def cmd_evolve(args) -> int:
    r, p, t_max, sample_dt = cell_inputs(args, args.lambda_ratio)
    times, states = evolve_xstate(FAMILIES[args.state](args.f), r, p, t_max, sample_dt)
    c = trajectory_concurrences(states)
    report = detect_events(times, c)
    table = (times, c, *states.T)
    columns = "t_us,C,a,b,c,d,re_z,im_z,re_w,im_w".split(",")
    emit(args, {
        "rates": rates_dict(r),
        "esd": {"death_times_us": report.death_times, "revival_times_us": report.revival_times,
                "final_concurrence": report.final_concurrence},
        "columns": columns,
        "samples": table,
    }, columns, table)
    return EXIT_OK


def cmd_scan(args) -> int:
    fs = parse_range(args.f_range) if args.f_range else np.array([])
    try:
        ratios = [float(s) for s in args.lambda_ratios.split(",")] if args.lambda_ratios else []
        if not all(map(math.isfinite, ratios)):
            raise ValueError
    except ValueError:
        raise ValueError(f"malformed lambda-ratio list {args.lambda_ratios!r}")
    x0s = FAMILIES[args.state](fs)  # a bad f is a usage error
    cells = [scan_column(args, x0s, lr) for lr in ratios]
    rows, failures = [], []
    for i, f in enumerate(fs):  # f-major order
        for lr, column in zip(ratios, cells):
            rep = column[i]
            if isinstance(rep, Exception):  # marked, scan continues
                rows.append([f, lr] + [None] * 5)
                failures.append((f, lr, str(rep)))
                continue
            deaths, revivals = rep.death_times, rep.revival_times
            rows.append([f, lr, int(bool(deaths)), int(bool(revivals)),
                         deaths[0] if deaths else None, revivals[0] if revivals else None,
                         rep.final_concurrence])
    columns = "f,lambda_ratio,died,revived,t_death,t_revival,C_final".split(",")
    emit(args, {"columns": columns, "rows": rows}, columns, rows)
    for f, lr, msg in failures:
        print(f"scan cell f={f} lambda_ratio={lr} failed: {msg}", file=sys.stderr)
    return EXIT_NUMERICAL if failures else EXIT_OK


def matrix_payload(m: np.ndarray) -> dict:
    return {"re": np.real(m).tolist(), "im": np.imag(m).tolist()}


def cmd_prepare(args) -> int:
    cfg = PrepConfig(f=args.f, with_dissipation=args.dissipative,
                     g_strength=mhz(args.g), g_bc_strength=mhz(args.g_bc),
                     gamma_nr=mhz(args.gamma_nr))
    res = prepare_pw(cfg)
    fields = {k: matrix_payload(getattr(res, k)) for k in ("rho1", "rho2", "rho3", "rho_out")}
    fields["fidelity_to_target"] = fidelity(res.rho_out, pseudo_werner(args.f))
    if res.gate_durations_us is not None:
        fields["gate_durations_us"] = list(res.gate_durations_us)
    emit(args, fields)
    return EXIT_OK


def cmd_mix(args) -> int:
    cfg = RabiConfig(omega=mhz(args.omega), gamma_nr=mhz(args.gamma_nr),
                     pulse_duration=args.pulse, wait_duration=args.wait,
                     sample_dt=args.sample_dt)
    times, states = mixed_qubit(cfg)
    # an exact final pi-pulse sigma_x rho sigma_x only swaps the populations: --flip reads rho_ee
    f = float(states[-1, 1, 1].real if args.flip else states[-1, 0, 0].real)
    columns = ["t_us", "rho_gg", "rho_ee", "abs_rho_eg"]
    table = (times, states[:, 0, 0].real, states[:, 1, 1].real, np.abs(states[:, 1, 0]))
    emit(args, {"f_achieved": f, "columns": columns, "samples": table}, columns, table)
    if args.format == "csv" and args.out:  # stdout stays one CSV table
        print(f"f_achieved = {f:.12g}")
    return EXIT_OK


def cmd_cpw(args) -> int:
    geom = CpwGeometry(center_width=args.width, gap_width=args.gap, eps_r=args.eps_r)
    derived = cpw_derive(geom)
    report = {"Z0_ohm": derived.z0, "eps_eff": derived.eps_eff, "v_ph_m_per_s": derived.v_ph}
    if args.freq is not None:
        ratio = lambda_ratio_for_freq(args.freq, geom, args.x2)  # names --freq when refused
        report["lambda_mm"] = wavelength(2 * np.pi * args.freq * 1e9, derived.v_ph) * 1e3
        report["lambda_ratio"] = ratio
    emit(args, report, list(report), [list(report.values())])
    return EXIT_OK


# --- argument parsing -----------------------------------------------------

SHARED_FLAGS = {
    "--gamma": dict(type=float, default=5.0, help="qubit-waveguide coupling, MHz (default 5)"),
    "--gamma-nr": dict(type=float, default=0.03,
                       help="intrinsic relaxation rate, MHz (default 0.03)"),
    "--t-max": dict(type=float, default=None, help="us (default 8/gamma)"),
    "--sample-dt": dict(type=float, default=None, help="us (default t_max/1000)"),
    "--out": dict(default=None, help="output path (default stdout)"),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--config": dict(default=None, help="key-value configuration file"),
}
OUTPUT_FLAGS = ("--out", "--format", "--config")


def add_shared(sp, *flags: str):
    for flag in flags:
        sp.add_argument(flag, **SHARED_FLAGS[flag])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # no abbreviations: a removed flag must not resolve to a longer one (--gamma to --gamma-nr)
    parser = argparse.ArgumentParser(prog="wgqed", description=__doc__.splitlines()[0],
                                     allow_abbrev=False)
    parser.add_argument("--version", action="version", version=GENERATED_BY)
    sub = parser.add_subparsers(dest="command", required=True)
    new = functools.partial(sub.add_parser, allow_abbrev=False)

    sp = new("rates", help="derived rates vs wavelength ratio")
    sp.add_argument("--range", required=True,
                    help="lambda-ratio grid 'start:stop:step' or single value")
    add_shared(sp, "--gamma", "--gamma-nr", *OUTPUT_FLAGS)
    sp.set_defaults(func=cmd_rates)

    sp = new("evolve", help="propagate one trajectory")
    sp.add_argument("--state", choices=tuple(FAMILIES), default="werner")
    sp.add_argument("--f", type=float, required=True)
    sp.add_argument("--lambda-ratio", type=float, required=True)
    sp.add_argument("--delta-bare", type=float, default=0.0, help="bare detuning, MHz")
    sp.add_argument("--g", type=float, default=0.0, help="direct exchange coupling, MHz")
    add_shared(sp, "--gamma", "--gamma-nr", "--t-max", "--sample-dt", *OUTPUT_FLAGS)
    sp.set_defaults(func=cmd_evolve)

    sp = new("scan", help="ESD/revival grid over f and lambda-ratio")
    sp.add_argument("--state", choices=tuple(FAMILIES), default="werner")
    sp.add_argument("--f-range", default="", help="'start:stop:step' (empty for no rows)")
    sp.add_argument("--lambda-ratios", default="", help="comma-separated list")
    add_shared(sp, "--gamma", "--gamma-nr", "--t-max", "--sample-dt", *OUTPUT_FLAGS)
    sp.set_defaults(func=cmd_scan)

    sp = new("prepare", help="three-qubit pseudo-Werner preparation (JSON)")
    sp.add_argument("--f", type=float, required=True)
    sp.add_argument("--dissipative", action="store_true")
    sp.add_argument("--g", type=float, default=10.0, help="a-b exchange strength, MHz")
    sp.add_argument("--g-bc", type=float, default=10.0, help="b-c exchange strength, MHz")
    add_shared(sp, "--gamma-nr", "--out", "--config")
    sp.set_defaults(func=cmd_prepare)

    sp = new("mix", help="single-qubit mixed-state generation")
    sp.add_argument("--omega", type=float, default=30.0, help="Rabi frequency, MHz")
    sp.add_argument("--pulse", type=float, default=35.0, help="pulse duration, us")
    sp.add_argument("--wait", type=float, default=0.0, help="wait after pulse, us")
    sp.add_argument("--flip", action="store_true", help="final pi-pulse (maps f to 1-f)")
    sp.add_argument("--sample-dt", type=float, default=0.01, help="us (default 0.01)")
    add_shared(sp, "--gamma-nr", *OUTPUT_FLAGS)
    sp.set_defaults(func=cmd_mix)

    sp = new("cpw", help="coplanar waveguide design numbers")
    sp.add_argument("--width", type=float, required=True, help="center conductor width, um")
    sp.add_argument("--gap", type=float, required=True, help="vacuum gap width, um")
    sp.add_argument("--eps-r", type=float, default=9.8)
    sp.add_argument("--freq", type=float, default=None, help="qubit frequency, GHz")
    sp.add_argument("--x2", type=float, default=18.4, help="qubit separation, mm")
    add_shared(sp, *OUTPUT_FLAGS)
    sp.set_defaults(func=cmd_cpw)

    return parser


def open_out(path: str) -> int:
    """A descriptor of path for writing from its start: created if missing, never truncated."""
    return os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)


def check_out(path: str | None):
    """ValueError, before the run, for an --out open_out refuses; a file it creates is removed."""
    if path is None:
        return
    existed = os.path.lexists(path)
    try:
        os.close(open_out(path))
    except OSError as exc:
        raise ValueError(f"cannot write --out {path}: {exc.strerror}") from None
    if not existed:
        os.remove(path)


def remove_stale_out(args):
    """Delete the --out file of a failed run, so no earlier output passes for its result."""
    if args.out is not None and os.path.isfile(args.out):
        os.remove(args.out)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(with_config(parser, argv))
        for key, value in settings(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"--{key.replace('_', '-')} must be finite, got {value}")
        check_out(args.out)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IntegrationError as exc:
        remove_stale_out(args)
        print(f"numerical failure: {exc} (last good time {exc.last_time:.6g} us)",
              file=sys.stderr)
        return EXIT_NUMERICAL
    except InvariantViolation as exc:
        remove_stale_out(args)
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    raise SystemExit(main())
