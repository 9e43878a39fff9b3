"""Command-line front end: rates tables, trajectories, scans, preparation runs.

Human-facing rates are linear frequencies in MHz (the 2*pi divided back
out); internal angular-frequency values appear in JSON under ``raw``.
Output files are byte-deterministic: '.' decimal, ',' separator, '\\n'
line endings, no timestamps, 12 significant digits in CSV and in JSON the shortest repr.
main opens --out once, before the run, and every result is written through that one stream from
the file's start, in place: a regular file is then cut at the end of the new output, a device or
FIFO (/dev/null, /dev/stdout, a pipe) is written without a cut, and a failed run's regular file
is emptied and its path removed.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
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


def emit(out, args, fields: dict):
    """Write a result through out, the run's one stream: stdout, or --out from its start, then
    cut if a regular file, and closed.

    JSON is {"generated_by", "config", **fields}, config holding every setting but --out and
    --format.  CSV is fields["columns"], then a line per row of the table fields[max(fields)]
    (a None-free one is a tuple of column arrays), or else one row of the fields.
    """
    if args.format == "json":
        config = {k: v for k, v in settings(args).items() if k not in ("out", "format")}
        payload = {"generated_by": GENERATED_BY, "config": config, **fields}
        blocks = (json_blocks(payload) if any(isinstance(v, tuple) for v in fields.values())
                  else [json.dumps(payload, indent=2, sort_keys=True) + "\n"])
    else:
        blocks = (csv_blocks(fields["columns"], fields[max(fields)]) if "columns" in fields
                  else csv_blocks(list(fields), [list(fields.values())]))
    try:
        out.writelines(blocks)
        out.flush()  # so a failed write is main's to report, not left to the exit
        if args.out is not None:
            if stat.S_ISREG(os.fstat(out.fileno()).st_mode):  # so no earlier, longer tail stays
                os.ftruncate(out.fileno(), os.lseek(out.fileno(), 0, os.SEEK_CUR))
            out.close()
    except OSError as exc:  # a failed write, cut or close: main names --out by it, or stdout
        exc.filename = args.out
        raise


# --- configuration files -------------------------------------------------

def with_config(argv: list[str]) -> list[str]:
    """argv with the keys of its --config file as flags right after the subcommand name.

    The user's own flags come after them, so they win in either spelling.  Each key is a flag
    of the subcommand in COMMANDS, set once in the whole file.
    """
    if not any(a == "--config" or a.startswith("--config=") for a in argv):
        return argv  # the only tokens the pre-parser acts on
    pre = argparse.ArgumentParser(prog="wgqed", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    at = next((i for i, a in enumerate(argv) if a in COMMANDS), None)
    if path is None or at is None:
        return argv
    specs = command_flags(argv[at])
    # a '%' in a value is literal, and [DEFAULT] is a section like any other
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        if not cp.read(path):
            raise ValueError(f"cannot read config file {path}")
    except configparser.Error as exc:  # on one line, however many the parser's message has
        msg = " ".join(str(exc).replace("\t", "").splitlines())
        raise ValueError(f"malformed config file {path}: {msg}") from None
    flags, seen = [], {}
    for section in cp.sections():
        for key, value in cp[section].items():
            flag, name = "--" + key.replace("_", "-"), key.replace("-", "_")
            if flag == "--config" or flag not in specs:
                raise ValueError(f"unknown config key {name!r} in section [{section}]")
            if flag in seen:
                raise ValueError(f"config file sets {flag} in [{seen[flag]}] and in [{section}]")
            seen[flag] = section
            if specs[flag].get("action") != "store_true":
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

def make_params(args, lambda_ratio: float, **knobs) -> WaveguideParams:
    return WaveguideParams(mhz(args.gamma), mhz(args.gamma_nr), lambda_ratio, **knobs)


def cmd_rates(args, out) -> int:
    columns = ("lambda_ratio,phi_rad,Gamma_a_MHz,Gamma_b_MHz,Gamma_col_MHz,"
               "g_x_MHz,d_omega1_MHz,d_omega2_MHz").split(",")
    ratios = parse_range(args.range)
    p = make_params(args, float(ratios[0]))  # checks the flags; the grid ascends from ratios[0]
    r = vars(derive_rates(SimpleNamespace(**{**vars(p), "lambda_ratio": ratios})))  # in one call
    table = (ratios, r["phi"], *[v / TWO_PI for k, v in r.items() if k != "phi"])
    emit(out, args, {"columns": columns, "rows": table})
    return EXIT_OK


def rates_dict(r) -> dict:
    d = asdict(r)
    out = {k: v / TWO_PI for k, v in d.items() if k != "phi"}
    out["phi_rad"] = d["phi"]
    out["units"] = "MHz (linear frequency)"
    out["raw"] = {**d, "units": "rad/us (angular frequency); phi in rad"}
    return out


def cell_inputs(args, lambda_ratio: float, **knobs) -> tuple:
    """(rates, params, t_max, sample_dt) of a trajectory at lambda_ratio, from the flags and
    any WaveguideParams knobs; t_max defaults to 8/gamma and sample_dt to t_max/1000."""
    p = make_params(args, lambda_ratio, **knobs)
    if args.t_max is None and not (p.gamma > 0 and math.isfinite(8.0 / p.gamma)):
        raise ValueError(f"--gamma {args.gamma} sets no finite default time grid (8/gamma); "
                         "give --t-max")
    t_max = args.t_max if args.t_max is not None else 8.0 / p.gamma
    sample_dt = args.sample_dt if args.sample_dt is not None else t_max / 1000.0
    if args.sample_dt is None and sample_dt == 0 < t_max:  # t_max/1000 underflows
        raise ValueError(f"--t-max {t_max} sets no default step t_max/1000 > 0; give --sample-dt")
    return derive_rates(p), p, t_max, sample_dt


def scan_column(args, x0s: np.ndarray, lambda_ratio: float) -> list:
    """Per x0 (row of the stack x0s), the events of its trajectory at lambda_ratio, or the error.

    The states are propagated as stacks of at most MAX_SAMPLES // n_t states (at least 1), so a
    scan never holds more samples than one trajectory at the cap.  A stack that fails is redone
    state by state under the same inputs, so each cell names its own failure.
    """
    inputs = cell_inputs(args, lambda_ratio)
    batch = max(1, MAX_SAMPLES // len(sample_times(*inputs[2:])))

    def reports(cells: np.ndarray) -> list:
        try:
            times, states = evolve_xstate(cells, *inputs)
            return detect_events(times, trajectory_concurrences(states))
        except (IntegrationError, InvariantViolation) as exc:
            return [exc] if len(cells) == 1 else [rep for x0 in cells for rep in reports(x0[None])]

    return [rep for k in range(0, len(x0s), batch) for rep in reports(x0s[k:k + batch])]


def cmd_evolve(args, out) -> int:
    inputs = cell_inputs(args, args.lambda_ratio, delta_bare=mhz(args.delta_bare), g=mhz(args.g))
    times, states = evolve_xstate(FAMILIES[args.state](args.f), *inputs)
    c = trajectory_concurrences(states)
    report = detect_events(times, c)
    table = (times, c, *states.T)
    columns = "t_us,C,a,b,c,d,re_z,im_z,re_w,im_w".split(",")
    emit(out, args, {
        "rates": rates_dict(inputs[0]),
        "esd": {"death_times_us": report.death_times, "revival_times_us": report.revival_times,
                "final_concurrence": report.final_concurrence},
        "columns": columns,
        "samples": table,
    })
    return EXIT_OK


def cmd_scan(args, out) -> int:
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
    emit(out, args, {"columns": columns, "rows": rows})
    for f, lr, msg in failures:
        print(f"scan cell f={f} lambda_ratio={lr} failed: {msg}", file=sys.stderr)
    return EXIT_NUMERICAL if failures else EXIT_OK


def cmd_prepare(args, out) -> int:
    cfg = PrepConfig(f=args.f, with_dissipation=args.dissipative,
                     g_strength=mhz(args.g), g_bc_strength=mhz(args.g_bc),
                     gamma_nr=mhz(args.gamma_nr))
    res = prepare_pw(cfg)
    fields = {k: {"re": getattr(res, k).real.tolist(), "im": getattr(res, k).imag.tolist()}
              for k in ("rho1", "rho2", "rho3", "rho_out")}
    fields["fidelity_to_target"] = fidelity(res.rho_out, pseudo_werner(args.f))
    if res.gate_durations_us is not None:
        fields["gate_durations_us"] = list(res.gate_durations_us)
    emit(out, args, fields)
    return EXIT_OK


def cmd_mix(args, out) -> int:
    cfg = RabiConfig(omega=mhz(args.omega), gamma_nr=mhz(args.gamma_nr),
                     pulse_duration=args.pulse, wait_duration=args.wait,
                     sample_dt=args.sample_dt)
    times, states = mixed_qubit(cfg)
    # an exact final pi-pulse sigma_x rho sigma_x only swaps the populations: --flip reads rho_ee
    f = float(states[-1, 1, 1].real if args.flip else states[-1, 0, 0].real)
    columns = ["t_us", "rho_gg", "rho_ee", "abs_rho_eg"]
    table = (times, states[:, 0, 0].real, states[:, 1, 1].real, np.abs(states[:, 1, 0]))
    emit(out, args, {"f_achieved": f, "columns": columns, "samples": table})
    if args.format == "csv" and args.out:  # stdout stays one CSV table
        print(f"f_achieved = {f:.12g}", flush=True)  # as emit flushes
    return EXIT_OK


def cmd_cpw(args, out) -> int:
    if not args.x2 > 0:  # read only with --freq, but refused alike
        raise ValueError(f"--x2 must be > 0, got {args.x2}")
    geom = CpwGeometry(center_width=args.width, gap_width=args.gap, eps_r=args.eps_r)
    derived = cpw_derive(geom)
    report = {"Z0_ohm": derived.z0, "eps_eff": derived.eps_eff, "v_ph_m_per_s": derived.v_ph}
    if args.freq is not None:
        ratio = lambda_ratio_for_freq(args.freq, geom, args.x2)  # names --freq when refused
        report["lambda_mm"] = wavelength(2 * np.pi * args.freq * 1e9, derived.v_ph) * 1e3
        report["lambda_ratio"] = ratio
    emit(out, args, report)
    return EXIT_OK


# --- argument parsing -----------------------------------------------------

#: every flag's argparse spec, once; a "<subcommand> <flag>" entry is its meaning there alone
FLAGS = {
    "--range": dict(required=True, help="lambda-ratio grid 'start:stop:step' or single value"),
    "--state": dict(choices=FAMILIES, default="werner", help="state family (default %(default)s)"),
    "--f": dict(type=float, required=True, help="fidelity parameter f of the state"),
    "--lambda-ratio": dict(type=float, required=True, help="wavelength ratio lambda / x2"),
    "--delta-bare": dict(type=float, default=0.0, help="bare detuning, MHz (default %(default)s)"),
    "--g": dict(type=float, default=0.0, help="direct exchange, MHz (default %(default)s)"),
    "--f-range": dict(default="", help="'start:stop:step' (empty for no rows)"),
    "--lambda-ratios": dict(default="", help="comma-separated list"),
    "--dissipative": dict(action="store_true", help="finite gate times, with intrinsic decay"),
    "prepare --g": dict(type=float, default=10.0, help="a-b exchange, MHz (default %(default)s)"),
    "--g-bc": dict(type=float, default=10.0, help="b-c exchange, MHz (default %(default)s)"),
    "--omega": dict(type=float, default=30.0, help="Rabi frequency, MHz (default %(default)s)"),
    "--pulse": dict(type=float, default=35.0, help="pulse duration, us (default %(default)s)"),
    "--wait": dict(type=float, default=0.0, help="wait after pulse, us (default %(default)s)"),
    "--flip": dict(action="store_true", help="final pi-pulse (maps f to 1-f)"),
    "mix --sample-dt": dict(type=float, default=0.01, help="us (default %(default)s)"),
    "--width": dict(type=float, required=True, help="center conductor width, um"),
    "--gap": dict(type=float, required=True, help="vacuum gap width, um"),
    "--eps-r": dict(type=float, default=9.8, help="substrate permittivity (default %(default)s)"),
    "--freq": dict(type=float, default=None, help="qubit frequency, GHz"),
    "--x2": dict(type=float, default=18.4, help="qubit separation, mm (default %(default)s)"),
    "--gamma": dict(type=float, default=5.0, help="waveguide coupling, MHz (default %(default)s)"),
    "--gamma-nr": dict(type=float, default=0.03,
                       help="intrinsic relaxation rate, MHz (default %(default)s)"),
    "--t-max": dict(type=float, default=None, help="us (default 8/gamma)"),
    "--sample-dt": dict(type=float, default=None, help="us (default t_max/1000)"),
    "--out": dict(default=None, help="output path (default stdout)"),
    "--format": dict(choices=("csv", "json"), default="csv",
                     help="output format (default %(default)s)"),
    "--config": dict(default=None, help="key-value configuration file"),
}
OUTPUT = "--out --format --config"
TRAJECTORY = f"--gamma --gamma-nr --t-max --sample-dt {OUTPUT}"
#: each subcommand's function, help and flags in --help order
COMMANDS = {
    "rates": (cmd_rates, "derived rates vs wavelength ratio",
              f"--range --gamma --gamma-nr {OUTPUT}"),
    "evolve": (cmd_evolve, "propagate one trajectory",
               f"--state --f --lambda-ratio --delta-bare --g {TRAJECTORY}"),
    "scan": (cmd_scan, "ESD/revival grid over f and lambda-ratio",
             f"--state --f-range --lambda-ratios {TRAJECTORY}"),
    "prepare": (cmd_prepare, "three-qubit pseudo-Werner preparation (JSON)",
                "--f --dissipative --g --g-bc --gamma-nr --out --config"),
    "mix": (cmd_mix, "single-qubit mixed-state generation",
            f"--omega --pulse --wait --flip --sample-dt --gamma-nr {OUTPUT}"),
    "cpw": (cmd_cpw, "coplanar waveguide design numbers",
            f"--width --gap --eps-r --freq --x2 {OUTPUT}"),
}


def command_flags(command: str) -> dict:
    """Each flag of command, in --help order, with its FLAGS spec there."""
    return {f: FLAGS.get(f"{command} {f}") or FLAGS[f] for f in COMMANDS[command][2].split()}


class Parser(argparse.ArgumentParser):
    """An ArgumentParser whose failed --help or --version write reaches main as an OSError."""

    def _print_message(self, message, file):
        if file is not sys.stdout:  # stderr is written as argparse does
            return super()._print_message(message, file)
        file.write(message)  # argparse's own swallows a failed write
        file.flush()  # and a buffered one would fail only at exit


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # no abbreviations: a removed flag must not resolve to a longer one (--gamma to --gamma-nr)
    parser = Parser(prog="wgqed", description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--version", action="version", version=GENERATED_BY)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, about, _) in COMMANDS.items():
        sp = sub.add_parser(name, help=about, allow_abbrev=False)
        for flag, spec in command_flags(name).items():
            sp.add_argument(flag, **spec)
        sp.set_defaults(func=func, format=sp.get_default("format") or "json")  # no --format: JSON
    return parser


def open_out(path: str | None):
    """The run's one output stream: stdout, or path for writing from its start, created if
    missing and never truncated; a path that cannot be opened is a ValueError."""
    if path is None:
        return sys.stdout
    try:
        return os.fdopen(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline="")
    except OSError as exc:
        raise ValueError(f"cannot write --out {path}: {exc.strerror}") from None


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    out = existed = None
    try:
        args = build_parser().parse_args(with_config(argv))
        for key, value in settings(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"--{key.replace('_', '-')} must be finite, got {value}")
        existed = args.out is not None and os.path.lexists(args.out)
        out = open_out(args.out)  # refused here, before the run
        return args.func(args, out)
    except ValueError as exc:  # raised before any write: an earlier --out is kept as it was
        code, message, keep = EXIT_USAGE, f"error: {exc}", existed
    except OSError as exc:  # writing the output failed: --out (emit names it) or stdout
        if exc.filename is None and sys.stdout is sys.__stdout__:  # exit flushes it once more
            os.dup2(devnull := os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            os.close(devnull)
        to = "the standard output" if exc.filename is None else f"--out {exc.filename}"
        code, message, keep = EXIT_USAGE, f"error: cannot write {to}: {exc.strerror}", False
    except IntegrationError as exc:
        code, message, keep = EXIT_NUMERICAL, (f"numerical failure: {exc} (last good time "
                                               f"{exc.last_time:.6g} us)"), False
    except InvariantViolation as exc:
        code, message, keep = EXIT_INVARIANT, f"invariant violation: {exc}", False
    if out is not None and args.out is not None:  # a failed run's --out stream
        with contextlib.suppress(OSError):  # a failed stream fails its closing flush again
            out.close()
        if not keep and os.path.isfile(args.out):  # a device or FIFO is left as it is
            os.truncate(args.out, 0)  # so a symlink's target keeps no earlier or partial output
            os.remove(args.out)
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
