"""Run one workload in this (fresh) process and write the raw measurements as JSON.

Closed loop, one client: the next op is sent only after the previous one
returned.  Each op is timed around the program call alone; its output is
checked against the reference right after, outside the timed region.
Started by run.py; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback
from time import perf_counter

import numpy as np
import scipy

import calibrate
import reference as ref
import workloads as wl
from stats import op_latencies
from tracing import Tracer


WARM_UP_KERNELS = 5
#: host-speed kernel time after an op, as a share of the op's time (one run at least)
KERNEL_SHARE = 0.1


class Runner:
    def __init__(self, wgqed, ops: list[dict], workdir: str):
        self.wgqed = wgqed
        self.cli = wgqed.cli
        self.ops = ops
        self.workdir = workdir
        self.tracer: Tracer | None = None
        self.refs: dict = {}
        #: (end time, seconds) of every timed run of the host-speed kernel
        self.kernels: list[tuple[float, float]] = []
        self.origin = perf_counter()

    # --- references, computed before anything is timed -------------------

    def prepare_references(self):
        fs = ref.scan_fs(wl.SCAN_F_RANGE)
        for i, op in enumerate(self.ops):
            key = (op["kind"], op.get("family"), op.get("ratio"))
            if key in self.refs:
                continue
            if op["kind"] == "scan":
                self.refs[key] = ref.scan_reference(self.wgqed, op, fs)
            elif op["kind"] == "threshold":
                self.refs[key] = ref.threshold_reference(self.wgqed, op["family"], op["ratio"])
            elif op["kind"] == "evolve":
                self.refs[i] = ref.evolve_reference(self.wgqed, op, wl.TRAJ_T_MAX,
                                                    wl.TRAJ_SAMPLE_DT)

    # --- one op -------------------------------------------------------------

    def call_cli(self, argv: list[str], out: str) -> float:
        t = perf_counter()
        rc = self.cli.main(argv + ["--out", out])
        elapsed = perf_counter() - t
        if rc != 0:
            raise ref.CheckFailed(f"exit code {rc}")
        return elapsed

    def read(self, path: str) -> str:
        with open(path, encoding="utf-8") as fh:
            return fh.read()

    def execute(self, i: int, op: dict) -> tuple[float, dict]:
        """Run op i; returns (seconds inside the program, its outputs)."""
        kind = op["kind"]
        if kind == "threshold":
            params = self.wgqed.WaveguideParams(
                gamma=self.wgqed.mhz(wl.GAMMA_MHZ), gamma_nr=self.wgqed.mhz(wl.GAMMA_NR_MHZ),
                lambda_ratio=op["ratio"])
            t = perf_counter()
            value = self.wgqed.esd_threshold(op["ratio"], params, op["family"])
            return perf_counter() - t, {"value": value}
        if kind in ("scan", "evolve"):
            out = os.path.join(self.workdir, f"{kind}.{op.get('format', 'csv')}")
            elapsed = self.call_cli(op["argv"], out)
            return elapsed, {"text": self.read(out)}
        if kind == "protocol":
            mix_out = os.path.join(self.workdir, "mix.json")
            prep_out = os.path.join(self.workdir, "prepare.json")
            elapsed = self.call_cli(op["mix_argv"], mix_out)
            mix = self.read(mix_out)
            f = json.loads(mix)["f_achieved"]
            elapsed += self.call_cli(["prepare", "--f", repr(f), "--dissipative",
                                      "--gamma-nr", repr(wl.GAMMA_NR_MHZ)], prep_out)
            return elapsed, {"mix": mix, "prepare": self.read(prep_out)}
        raise ValueError(f"unknown op kind {kind!r}")

    def check(self, i: int, op: dict, out: dict):
        kind = op["kind"]
        if kind == "threshold":
            ref.check_threshold(out["value"], op, self.refs[(kind, op["family"], op["ratio"])])
        elif kind == "scan":
            ref.check_scan(out["text"], op, self.refs[(kind, op["family"], op["ratio"])])
        elif kind == "evolve":
            ref.check_evolve(out["text"], op["format"], self.refs[i])
        else:
            ref.check_mix(json.loads(out["mix"]), op, wl.PROTOCOL_PULSE_US)
            ref.check_prepare(json.loads(out["prepare"]))

    def attempt(self, i: int, op: dict, pass_no: int) -> dict:
        """Run and check op i; a failed op keeps the time it took."""
        record = {"pass": pass_no, "op": i, "kind": op["kind"], "ok": True, "bytes": 0}
        sid = None
        if self.tracer is not None:
            sid = self.tracer.begin(self.tracer.name_id("op." + op["kind"]))
        t = perf_counter()
        try:
            try:
                record["seconds"], out = self.execute(i, op)
            finally:
                if sid is not None:
                    self.tracer.end(sid)
            record["bytes"] = sum(len(v) for v in out.values() if isinstance(v, str))
            self.check(i, op, out)
        except ref.CheckFailed as exc:
            record.update(ok=False, error=str(exc))
        except (Exception, SystemExit) as exc:  # a crashing op is a failed op
            record.update(ok=False, error="".join(
                traceback.format_exception_only(type(exc), exc)).strip())
        record.setdefault("seconds", perf_counter() - t)
        return record

    def warm_up(self):
        """Run the first op and the kernel, untimed and unchecked, so lazy set-up is done."""
        self.attempt(0, self.ops[0], -1)
        for _ in range(WARM_UP_KERNELS):
            calibrate.kernel()

    def probe_host(self, at_least: float = 0.0) -> int:
        """Time the host-speed kernel, as often as it takes to spend ``at_least`` seconds.

        Returns the index of the last run.  Runs at least once.
        """
        spent = 0.0
        while True:
            seconds = calibrate.timed_kernel()
            self.kernels.append((perf_counter() - self.origin, seconds))
            spent += seconds
            if spent >= at_least:
                return len(self.kernels) - 1

    def run_passes(self, seconds: float, whole: bool = False) -> tuple[list[dict], list[float]]:
        """Replay the op list until ``seconds`` have passed and one pass is complete.

        With ``whole``, stop only between passes, so every op belongs to a full pass.
        Every op is bracketed by runs of the host-speed kernel, which after
        an op run for ``KERNEL_SHARE`` of its time, so that a workload of
        long ops gets as many host-speed samples per second as one of short
        ops.  A record's ``kernel`` is the index in ``self.kernels`` of the
        run right before the op; the next index is the run right after it.
        """
        records, pass_times = [], []
        start = perf_counter()
        kernel = self.probe_host()
        while not pass_times or perf_counter() - start < seconds:
            pass_no = len(pass_times)
            for i, op in enumerate(self.ops):
                if not whole and pass_times and perf_counter() - start >= seconds:
                    return records, pass_times
                record = self.attempt(i, op, pass_no)
                record["kernel"] = kernel
                kernel = self.probe_host(KERNEL_SHARE * record["seconds"])
                records.append(record)
            pass_times.append(sum(r["seconds"] for r in records if r["pass"] == pass_no))
        return records, pass_times


# --- per-layer metrics from the traced passes ----------------------------------

def layer_metrics(tracer: Tracer, records: list[dict], n_passes: int,
                  untraced_wall: float, traced_wall: float) -> tuple[dict, list[str]]:
    """Per-pass layer counts and times; also the functions the metrics expect but miss."""
    summary = tracer.summary()
    fn = summary["functions"]
    per = 1.0 / n_passes
    expected = set()

    def stat(name: str, field: str) -> float:
        expected.add(name)
        return fn.get(name, {}).get(field, 0) * per

    def layer_self(layer: str) -> float:
        return sum(v["self_s"] for k, v in fn.items() if k.startswith(layer + ".")) * per

    dyn_samples = sum(n for name, n in tracer.samples.items()
                      if name.startswith("dynamics.")) * per
    a = summary["arrays"]
    op_ids = {i for i, name in enumerate(tracer.names) if name.startswith("op.")}
    is_op = np.isin(a["name"], list(op_ids))
    top = (a["parent"] >= 0) & is_op[np.maximum(a["parent"], 0)] & ~is_op
    latency = sum(r["seconds"] for r in records)
    thresholds = stat("entangle.esd_threshold", "calls")
    evolves = tracer.descendants_of(a, "entangle.esd_threshold", "dynamics.evolve_xstate") * per
    m = {
        "cli.main.calls": stat("cli.main", "calls"),
        "cli.self_s": layer_self("cli"),
        "cli.bytes_out": sum(r["bytes"] for r in records) * per,
        "cli.nonzero_exits": sum(r.get("error", "").startswith("exit code")
                                 for r in records) * per,
        "cli.trajectory_rows.self_s": stat("cli.trajectory_rows", "self_s"),
        "cli.check_trajectory_invariants.self_s": stat("cli.check_trajectory_invariants",
                                                       "self_s"),
        "model.derive_rates.calls": stat("model.derive_rates", "calls"),
        "model.build_generator.calls": stat("model.build_generator", "calls"),
        "model.build_generator.self_s": stat("model.build_generator", "self_s"),
        "model.lindblad_generator.self_s": stat("model.lindblad_generator", "self_s"),
        "model.self_s": layer_self("model"),
        "dynamics.evolve_xstate.calls": stat("dynamics.evolve_xstate", "calls"),
        "dynamics.evolve_xstate.self_s": stat("dynamics.evolve_xstate", "self_s"),
        "dynamics.xstate_generator_matrix.self_s": stat("dynamics.xstate_generator_matrix",
                                                        "self_s"),
        "dynamics.samples": dyn_samples,
        "dynamics.us_per_sample": layer_self("dynamics") / dyn_samples * 1e6
        if dyn_samples else 0.0,
        "dynamics.runtime_warnings": tracer.warnings[("dynamics", "RuntimeWarning")] * per,
        "dynamics.self_s": layer_self("dynamics"),
        "entangle.detect_events.self_s": stat("entangle.detect_events", "self_s"),
        "entangle.trajectory_concurrences.self_s": stat("entangle.trajectory_concurrences",
                                                        "self_s"),
        "entangle.concurrence_x.calls": stat("entangle.concurrence_x", "calls"),
        "entangle.esd_threshold.calls": thresholds,
        "entangle.esd_threshold.self_s": stat("entangle.esd_threshold", "self_s"),
        "entangle.esd_threshold.evolves_per_call": evolves / thresholds if thresholds else 0.0,
        "entangle.self_s": layer_self("entangle"),
        "states.mixed_qubit.self_s": stat("states.mixed_qubit", "self_s"),
        "states.mixed_qubit.samples": tracer.samples["states.mixed_qubit"] * per,
        "states.prepare_pw.self_s": stat("states.prepare_pw", "self_s"),
        "states.self_s": layer_self("states"),
        "linalg.fidelity.self_s": stat("linalg.fidelity", "self_s"),
        "linalg.partial_trace.calls": stat("linalg.partial_trace", "calls"),
        "linalg.check_density_matrix.calls": stat("linalg.check_density_matrix", "calls"),
        "linalg.check_density_matrix.self_s": stat("linalg.check_density_matrix", "self_s"),
        "linalg.self_s": layer_self("linalg"),
        "trace.overhead": traced_wall / untraced_wall - 1.0,
        "trace.coverage": float(summary["dur"][top].sum()) / latency if latency else 0.0,
        "trace.spans": float(np.count_nonzero(~is_op)) * per,
    }
    absent = sorted(expected - tracer.wrapped)
    m["trace.absent"] = float(len(absent))
    return m, absent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", required=True, help="where the traced run writes its spans")
    args = ap.parse_args()

    import wgqed
    import wgqed.cli

    ops = wl.make_ops(args.workload, args.seed, wait_time_for_f=lambda f: wgqed.wait_time_for_f(
        f, wgqed.mhz(wl.GAMMA_NR_MHZ)))
    runner = Runner(wgqed, ops, args.workdir)
    runner.prepare_references()
    runner.warm_up()

    result = {"ops_per_pass": len(ops),
              "versions": {"numpy": np.__version__, "scipy": scipy.__version__}}
    if not args.trace:
        records, pass_times = runner.run_passes(args.seconds)
    else:
        untraced_records, untraced = runner.run_passes(args.seconds / 2, whole=True)
        runner.tracer = Tracer()
        runner.tracer.install()
        traced_records, pass_times = runner.run_passes(args.seconds / 2, whole=True)
        runner.tracer.save(args.spans)
        result["layers"], result["absent"] = layer_metrics(
            runner.tracer, traced_records, len(pass_times),
            sum(op_latencies(untraced_records, runner.kernels, calibrate.REFERENCE_S)),
            sum(op_latencies(traced_records, runner.kernels, calibrate.REFERENCE_S)))
        result["untraced_pass_s"] = untraced
        records = untraced_records + traced_records
    result.update(records=records, pass_s=pass_times, kernels=runner.kernels,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
