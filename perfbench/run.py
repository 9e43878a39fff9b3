"""wgqed benchmark: one workload, one seed, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload esd_map --seed 1 --seconds 30 --trace 0

Workloads are described in BENCHMARK.json.  With ``--trace 0`` the
metrics are the end-to-end ones, measured untraced; with ``--trace 1``
they are the per-layer ones, from a traced run of the same op list.  A
report goes to stderr; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it holds the details (samples, percentiles, environment, failures).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import threading
from statistics import median
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from calibrate import REFERENCE_S  # noqa: E402
from stats import op_latencies, raw_op_latencies, tail  # noqa: E402

#: every run, with its set-up, must end well inside three minutes
RUN_LIMIT_S = 170.0
#: cold starts timed before and after the workload, so they see different moments
COLD_START_SPAWNS = (2, 3)
IMPORTTIME_SPAWNS = 3
IMPORT_PROGRAM = "import wgqed, wgqed.cli"
IMPORT_BREAKDOWN = {
    "setup.import_wgqed_s": "wgqed",
    "setup.import_wgqed_cli_s": "wgqed.cli",
    "setup.import_numpy_s": "numpy",
    "setup.import_scipy_linalg_s": "scipy.linalg",
    "setup.import_scipy_integrate_s": "scipy.integrate",
}
#: one client, single-threaded: BLAS gets one thread (never more than the CPUs we may use)
BLAS_THREADS = min(1, len(os.sched_getaffinity(0)))
_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$")


def child_env(src: str) -> dict[str, str]:
    """The same environment for every interpreter the benchmark starts."""
    env = {"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": src,
           "PYTHONHASHSEED": "0"}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(cmd: list[str], env: dict, cwd: str, timeout: float, **kw) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, env=env, cwd=cwd, timeout=timeout, check=True, **kw)


def cold_start(env: dict, cwd: str, spawns: int) -> list[float]:
    """Wall time of fresh interpreters importing the program.

    ``wait()`` without a timeout blocks in waitpid; with one it polls every
    50 ms, which would quantise the times.  A timer kills a hung child.
    """
    cmd = [sys.executable, "-c", IMPORT_PROGRAM]
    times = []
    for _ in range(spawns):
        t = perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd)
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        rc = proc.wait()
        elapsed = perf_counter() - t
        watchdog.cancel()
        if rc != 0:
            raise subprocess.CalledProcessError(rc, cmd)
        times.append(elapsed)
    return times


def import_breakdown(env: dict, cwd: str) -> dict[str, float]:
    """Median cumulative ``-X importtime`` per module; 0 for a module not imported."""
    cmd = [sys.executable, "-X", "importtime", "-c", IMPORT_PROGRAM]
    runs = []
    for _ in range(IMPORTTIME_SPAWNS):
        err = spawn(cmd, env, cwd, 60, stderr=subprocess.PIPE, text=True).stderr
        cumulative = {}
        for line in err.splitlines():
            m = _IMPORTTIME.match(line)
            if m:
                cumulative[m.group(3)] = int(m.group(2)) * 1e-6
        runs.append(cumulative)
    return {metric: median(r.get(module, 0.0) for r in runs)
            for metric, module in IMPORT_BREAKDOWN.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = perf_counter()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "wgqed", "cli.py")):
        print(f"error: no wgqed sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    env = child_env(src)
    work_root = os.path.join(root, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    spans_file = os.path.join(work_root, f"spans-{args.workload}.npz")

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "loop": "closed, 1 client, 1 thread",
              "python": platform.python_version(),
              "env": {k: v for k, v in env.items() if k != "PATH"}}
    try:
        # untimed: a fresh checkout compiles its bytecode here
        spawn([sys.executable, "-c", IMPORT_PROGRAM], env, root, 60)
        if args.trace:
            layers = import_breakdown(env, root)
        else:
            cold = cold_start(env, root, COLD_START_SPAWNS[0])
        with tempfile.TemporaryDirectory(dir=work_root) as tmp:
            result_file = os.path.join(tmp, "result.json")
            cmd = [sys.executable, os.path.join(HERE, "worker.py"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--workdir", tmp, "--result", result_file, "--spans", spans_file]
            # the worker's stdout is the program's console; keep ours for the result
            spawn(cmd, env, root, RUN_LIMIT_S - (perf_counter() - started), stdout=sys.stderr)
            with open(result_file, encoding="utf-8") as fh:
                res = json.load(fh)
        if not args.trace:
            detail["cold_start_s"] = cold + cold_start(env, root, COLD_START_SPAWNS[1])
    except (subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    records = res["records"]
    attempted = len(records)
    failures = [r for r in records if not r["ok"]]
    kernels = [tuple(k) for k in res["kernels"]]
    latencies = op_latencies(records, kernels, REFERENCE_S)
    tail_s, tail_pct = tail(latencies)
    detail.update(versions=res["versions"], ops_per_pass=res["ops_per_pass"],
                  passes=len(res["pass_s"]), pass_s=res["pass_s"], op_runs=attempted,
                  op_samples=len(latencies),
                  op_tail_percentile=tail_pct, peak_rss_mb=res["peak_rss_mb"],
                  reference_kernel_s=REFERENCE_S,
                  kernel_median_s=median(k for _, k in kernels),
                  raw_wall_s=sum(raw_op_latencies(records)),
                  failures=[{"op": r["op"], "kind": r["kind"], "error": r["error"]}
                            for r in failures[:20]])
    if args.trace:
        values = dict(layers, **res["layers"])
        detail.update(absent=res["absent"], untraced_pass_s=res["untraced_pass_s"],
                      spans_file=os.path.relpath(spans_file, root))
    else:
        values = {
            "setup_s": median(detail["cold_start_s"]),
            "wall_s": sum(latencies),
            "op_p50_ms": median(latencies) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_ratio": (attempted - len(failures)) / attempted,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    report(args, metrics, detail)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def report(args, metrics: dict, detail: dict):
    out = sys.stderr
    print(f"\nwgqed benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {detail['passes']} passes of {detail['ops_per_pass']} ops, "
          f"{detail['op_runs']} op runs, {detail['op_samples']} op latencies "
          f"(tail at p{detail['op_tail_percentile']:.1f})",
          file=out)
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}", file=out)
    for f in detail["failures"]:
        print(f"  FAILED op {f['op']} ({f['kind']}): {f['error']}", file=out)
    for name in detail.get("absent", []):
        print(f"  absent: {name}", file=out)


if __name__ == "__main__":
    sys.exit(main())
