"""Command-line front end: rates tables, trajectories, scans, preparation runs.

Human-facing rates are linear frequencies in MHz (the 2*pi divided back
out); internal angular-frequency values appear in JSON under ``raw``.
Output files are byte-deterministic: '.' decimal, ',' separator, '\\n'
line endings, 12 significant digits, no timestamps.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .cpw import CpwGeometry, cpw_derive, lambda_ratio_for_freq, wavelength
from .dynamics import IntegrationError, Trajectory, XState, evolve_xstate, xstate_violation
from .entangle import detect_events, trajectory_concurrences
from .linalg import fidelity
from .model import TWO_PI, WaveguideParams, derive_rates, mhz
from .states import (
    PrepConfig,
    RabiConfig,
    mixed_qubit,
    prepare_pw,
    pseudo_werner,
    pw_xstate,
    werner_xstate,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_INVARIANT = 4

GENERATED_BY = f"wgqed {__version__}"

#: tolerance for per-row invariant checks on emitted trajectories
REPORT_TOL = 1e-8


class InvariantViolation(RuntimeError):
    pass


class UsageError(ValueError):
    pass


def fmt(x: float) -> str:
    return f"{float(x):.12g}"


def parse_range(spec: str) -> np.ndarray:
    """Parse 'start:stop:step' into an inclusive grid; 'x' alone is a single point."""
    try:
        values = [float(p) for p in spec.split(":")]
        if not all(map(math.isfinite, values)):
            raise ValueError
        if len(values) == 1:
            return np.array(values)
        if len(values) == 3:
            start, stop, step = values
            if step <= 0 or stop < start:
                raise ValueError
            n = int(round((stop - start) / step))
            return start + step * np.arange(n + 1)
    except ValueError:
        pass
    raise UsageError(f"malformed range {spec!r}, expected 'start:stop:step' or a number")


def write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


# --- configuration files -------------------------------------------------

def apply_config(args: argparse.Namespace, argv: list[str], known: set[str]):
    """Fill args from the config file for keys not given as flags."""
    if not args.config:
        return
    cp = configparser.ConfigParser()
    read = cp.read(args.config)
    if not read:
        raise UsageError(f"cannot read config file {args.config}")
    for section in cp.sections():
        for key, value in cp.items(section):
            key = key.replace("-", "_")
            if key not in known:
                raise UsageError(f"unknown config key {key!r} in section [{section}]")
            flag = "--" + key.replace("_", "-")
            if flag in argv:
                continue  # flags override file values
            current = getattr(args, key)
            if isinstance(current, bool):
                setattr(args, key, cp.getboolean(section, key))
            elif isinstance(current, int):
                setattr(args, key, int(value))
            elif isinstance(current, float) or current is None:
                try:
                    setattr(args, key, float(value))
                except ValueError:
                    setattr(args, key, value)
            else:
                setattr(args, key, value)


def effective_config(args: argparse.Namespace, keys: list[str]) -> dict:
    return {k: getattr(args, k) for k in keys}


# --- subcommand implementations ------------------------------------------

def make_params(args) -> WaveguideParams:
    return WaveguideParams(
        gamma=mhz(args.gamma),
        gamma_nr=mhz(args.gamma_nr),
        lambda_ratio=args.lambda_ratio,
        delta_bare=mhz(getattr(args, "delta_bare", 0.0)),
        g=mhz(getattr(args, "g", 0.0)),
    )


def initial_xstate(state: str, f: float) -> XState:
    if state == "werner":
        return werner_xstate(f)
    if state == "pw":
        return pw_xstate(f)
    raise UsageError(f"unknown state family {state!r}")


def rates_row(lambda_ratio: float, gamma: float, gamma_nr: float) -> list[float]:
    p = WaveguideParams(gamma=mhz(gamma), gamma_nr=mhz(gamma_nr), lambda_ratio=lambda_ratio)
    r = derive_rates(p)
    return [lambda_ratio, r.phi, r.gamma_a / TWO_PI, r.gamma_b / TWO_PI,
            r.gamma_col / TWO_PI, r.g_x / TWO_PI, r.d_omega1 / TWO_PI, r.d_omega2 / TWO_PI]


def cmd_rates(args, argv) -> int:
    grid = parse_range(args.range)
    header = ("lambda_ratio,phi_rad,Gamma_a_MHz,Gamma_b_MHz,Gamma_col_MHz,"
              "g_x_MHz,d_omega1_MHz,d_omega2_MHz")
    rows = [rates_row(lr, args.gamma, args.gamma_nr) for lr in grid]
    if args.format == "json":
        payload = {
            "generated_by": GENERATED_BY,
            "config": effective_config(args, ["range", "gamma", "gamma_nr"]),
            "columns": header.split(","),
            "rows": rows,
        }
        write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        lines = [header] + [",".join(fmt(v) for v in row) for row in rows]
        write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def rates_dict(r) -> dict:
    d = asdict(r)
    out = {k: v / TWO_PI for k, v in d.items() if k != "phi"}
    out["phi_rad"] = d["phi"]
    out["units"] = "MHz (linear frequency)"
    out["raw"] = {k: v for k, v in d.items()}
    out["raw"]["units"] = "rad/us (angular frequency); phi in rad"
    return out


def time_grid(args, gamma: float) -> tuple[float, float]:
    """(t_max, sample_dt) from the flags, defaulting to 8/gamma and t_max/1000."""
    t_max = args.t_max if args.t_max is not None else 8.0 / gamma
    sample_dt = args.sample_dt if args.sample_dt is not None else t_max / 1000.0
    return t_max, sample_dt


def run_trajectory(args) -> tuple[Trajectory, WaveguideParams]:
    p = make_params(args)
    r = derive_rates(p)
    x0 = initial_xstate(args.state, args.f)
    traj = evolve_xstate(x0, r, p, *time_grid(args, p.gamma))
    return traj, p


def check_trajectory_invariants(traj: Trajectory):
    bad = xstate_violation(traj.states, REPORT_TOL)
    if bad is not None:
        k, reason = bad
        raise InvariantViolation(f"sample at t = {traj.times[k]:.6g} us: {reason}")


def trajectory_rows(traj: Trajectory, c: np.ndarray) -> list[list[float]]:
    """One [t, C, a, b, c, d, re_z, im_z, re_w, im_w] row per sample."""
    return np.column_stack([traj.times, c, traj.states]).tolist()


def cmd_evolve(args, argv) -> int:
    try:
        traj, p = run_trajectory(args)
    except IntegrationError:
        if args.out and os.path.exists(args.out):
            os.remove(args.out)
        raise
    check_trajectory_invariants(traj)
    c = trajectory_concurrences(traj)
    report = detect_events(traj.times, c)
    rows = trajectory_rows(traj, c)
    header = "t_us,C,a,b,c,d,re_z,im_z,re_w,im_w"
    if args.format == "json":
        payload = {
            "generated_by": GENERATED_BY,
            "config": effective_config(
                args, ["state", "f", "lambda_ratio", "gamma", "gamma_nr",
                       "delta_bare", "g", "t_max", "sample_dt"]),
            "rates": rates_dict(traj.rates),
            "esd": {
                "death_times_us": report.death_times,
                "revival_times_us": report.revival_times,
                "final_concurrence": report.final_concurrence,
            },
            "columns": header.split(","),
            "samples": rows,
        }
        write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        lines = [header] + [",".join(fmt(v) for v in row) for row in rows]
        write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def scan_cell(args, f: float, x0: XState, lambda_ratio: float) -> list:
    p = WaveguideParams(gamma=mhz(args.gamma), gamma_nr=mhz(args.gamma_nr),
                        lambda_ratio=lambda_ratio)
    traj = evolve_xstate(x0, derive_rates(p), p, *time_grid(args, p.gamma))
    check_trajectory_invariants(traj)
    rep = detect_events(traj.times, trajectory_concurrences(traj))
    died = 1 if rep.death_times else 0
    revived = 1 if rep.revival_times else 0
    return [fmt(f), fmt(lambda_ratio), str(died), str(revived),
            fmt(rep.death_times[0]) if rep.death_times else "",
            fmt(rep.revival_times[0]) if rep.revival_times else "",
            fmt(rep.final_concurrence)]


def cmd_scan(args, argv) -> int:
    fs = parse_range(args.f_range) if args.f_range else np.array([])
    try:
        ratios = [float(s) for s in args.lambda_ratios.split(",")] if args.lambda_ratios else []
        if not all(map(math.isfinite, ratios)):
            raise ValueError
    except ValueError:
        raise UsageError(f"malformed lambda-ratio list {args.lambda_ratios!r}")
    x0s = [initial_xstate(args.state, f) for f in fs]  # a bad f is a usage error
    header = "f,lambda_ratio,died,revived,t_death,t_revival,C_final"
    lines = [header]
    failures = []
    for f, x0 in zip(fs, x0s):  # f-major order
        for lr in ratios:
            try:
                row = scan_cell(args, f, x0, lr)
            except (IntegrationError, InvariantViolation) as exc:  # marked, scan continues
                row = [fmt(f), fmt(lr), "", "", "", "", ""]
                failures.append((f, lr, str(exc)))
            lines.append(",".join(row))
    write_text(args.out, "\n".join(lines) + "\n")
    for f, lr, msg in failures:
        print(f"scan cell f={f} lambda_ratio={lr} failed: {msg}", file=sys.stderr)
    return EXIT_NUMERICAL if failures else EXIT_OK


def matrix_payload(m: np.ndarray) -> dict:
    return {"re": np.real(m).tolist(), "im": np.imag(m).tolist()}


def cmd_prepare(args, argv) -> int:
    cfg = PrepConfig(f=args.f, with_dissipation=args.dissipative,
                     g_strength=mhz(args.g), g_bc_strength=mhz(args.g_bc),
                     gamma_nr=mhz(args.gamma_nr))
    res = prepare_pw(cfg)
    target = pseudo_werner(args.f)
    payload = {
        "generated_by": GENERATED_BY,
        "config": effective_config(args, ["f", "dissipative", "g", "g_bc", "gamma_nr"]),
        "rho1": matrix_payload(res.rho1),
        "rho2": matrix_payload(res.rho2),
        "rho3": matrix_payload(res.rho3),
        "rho_out": matrix_payload(res.rho_out),
        "fidelity_to_target": fidelity(res.rho_out, target),
    }
    if res.gate_durations_us is not None:
        payload["gate_durations_us"] = list(res.gate_durations_us)
    write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_mix(args, argv) -> int:
    cfg = RabiConfig(omega=mhz(args.omega), gamma_nr=mhz(args.gamma_nr),
                     pulse_duration=args.pulse, wait_duration=args.wait,
                     final_flip=args.flip, sample_dt=args.sample_dt)
    res = mixed_qubit(cfg)
    if args.format == "json":
        payload = {
            "generated_by": GENERATED_BY,
            "config": effective_config(args, ["omega", "gamma_nr", "pulse", "wait", "flip"]),
            "f_achieved": res.f_achieved,
            "columns": ["t_us", "rho_gg", "rho_ee", "abs_rho_eg"],
            "samples": [[t, gg, ee, eg] for t, gg, ee, eg in
                        zip(res.times, res.rho_gg, res.rho_ee, res.abs_rho_eg)],
        }
        write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        lines = ["t_us,rho_gg,rho_ee,abs_rho_eg"]
        for t, gg, ee, eg in zip(res.times, res.rho_gg, res.rho_ee, res.abs_rho_eg):
            lines.append(",".join(fmt(v) for v in (t, gg, ee, eg)))
        write_text(args.out, "\n".join(lines) + "\n")
        print(f"f_achieved = {fmt(res.f_achieved)}")
    return EXIT_OK


def cmd_cpw(args, argv) -> int:
    geom = CpwGeometry(center_width=args.width, gap_width=args.gap, eps_r=args.eps_r)
    derived = cpw_derive(geom)
    report = {
        "generated_by": GENERATED_BY,
        "config": effective_config(args, ["width", "gap", "eps_r", "freq", "x2"]),
        "Z0_ohm": derived.z0,
        "eps_eff": derived.eps_eff,
        "v_ph_m_per_s": derived.v_ph,
    }
    if args.freq is not None:
        lam = wavelength(2 * np.pi * args.freq * 1e9, derived.v_ph)
        report["lambda_mm"] = lam * 1e3
        report["lambda_ratio"] = lambda_ratio_for_freq(args.freq, geom, args.x2)
    if args.format == "json" or args.out:
        write_text(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        for key in ("Z0_ohm", "eps_eff", "v_ph_m_per_s", "lambda_mm", "lambda_ratio"):
            if key in report:
                print(f"{key} = {fmt(report[key])}")
    return EXIT_OK


# --- argument parsing -----------------------------------------------------

def add_common(sp, time_grid=True):
    sp.add_argument("--gamma", type=float, default=5.0,
                    help="qubit-waveguide coupling, MHz (default 5)")
    sp.add_argument("--gamma-nr", type=float, default=0.03,
                    help="intrinsic relaxation rate, MHz (default 0.03)")
    if time_grid:
        sp.add_argument("--t-max", type=float, default=None, help="us (default 8/gamma)")
        sp.add_argument("--sample-dt", type=float, default=None, help="us (default t_max/1000)")
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--config", default=None, help="key-value configuration file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wgqed", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=GENERATED_BY)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("rates", help="derived rates vs wavelength ratio")
    sp.add_argument("--range", required=True,
                    help="lambda-ratio grid 'start:stop:step' or single value")
    add_common(sp, time_grid=False)
    sp.set_defaults(func=cmd_rates)

    sp = sub.add_parser("evolve", help="propagate one trajectory")
    sp.add_argument("--state", choices=("werner", "pw"), default="werner")
    sp.add_argument("--f", type=float, required=True)
    sp.add_argument("--lambda-ratio", type=float, required=True)
    sp.add_argument("--delta-bare", type=float, default=0.0, help="bare detuning, MHz")
    sp.add_argument("--g", type=float, default=0.0, help="direct exchange coupling, MHz")
    add_common(sp)
    sp.set_defaults(func=cmd_evolve)

    sp = sub.add_parser("scan", help="ESD/revival grid over f and lambda-ratio")
    sp.add_argument("--state", choices=("werner", "pw"), default="werner")
    sp.add_argument("--f-range", default="", help="'start:stop:step' (empty for no rows)")
    sp.add_argument("--lambda-ratios", default="", help="comma-separated list")
    add_common(sp)
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("prepare", help="three-qubit pseudo-Werner preparation")
    sp.add_argument("--f", type=float, required=True)
    sp.add_argument("--dissipative", action="store_true")
    sp.add_argument("--g", type=float, default=10.0, help="a-b exchange strength, MHz")
    sp.add_argument("--g-bc", type=float, default=10.0, help="b-c exchange strength, MHz")
    add_common(sp, time_grid=False)
    sp.set_defaults(func=cmd_prepare, format="json")

    sp = sub.add_parser("mix", help="single-qubit mixed-state generation")
    sp.add_argument("--omega", type=float, default=30.0, help="Rabi frequency, MHz")
    sp.add_argument("--pulse", type=float, default=35.0, help="pulse duration, us")
    sp.add_argument("--wait", type=float, default=0.0, help="wait after pulse, us")
    sp.add_argument("--flip", action="store_true", help="final pi-pulse (maps f to 1-f)")
    sp.add_argument("--sample-dt", type=float, default=0.01, help="us (default 0.01)")
    add_common(sp, time_grid=False)
    sp.set_defaults(func=cmd_mix)

    sp = sub.add_parser("cpw", help="coplanar waveguide design numbers")
    sp.add_argument("--width", type=float, required=True, help="center conductor width, um")
    sp.add_argument("--gap", type=float, required=True, help="vacuum gap width, um")
    sp.add_argument("--eps-r", type=float, default=9.8)
    sp.add_argument("--freq", type=float, default=None, help="qubit frequency, GHz")
    sp.add_argument("--x2", type=float, default=18.4, help="qubit separation, mm")
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--config", default=None)
    sp.set_defaults(func=cmd_cpw)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        known = {k for k in vars(args) if k not in ("func", "command", "config")}
        apply_config(args, argv, known)
        for key in known:
            value = getattr(args, key)
            if isinstance(value, float) and not math.isfinite(value):
                raise UsageError(f"--{key.replace('_', '-')} must be finite, got {value}")
        return args.func(args, argv)
    except ValueError as exc:  # UsageError and invalid values alike
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IntegrationError as exc:
        print(f"numerical failure: {exc} (last good time {exc.last_time:.6g} us)",
              file=sys.stderr)
        return EXIT_NUMERICAL
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    raise SystemExit(main())
