"""Alternating pairs of benchmark runs on two source trees, one workload.

Run from anywhere:

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload esd_map --seeds 1-10 \\
        --seconds 30

Each seed is one pair: ``python3 perfbench/run.py --trace 0`` runs from the root of each tree
with that seed, the parent first in the first, third, ... pair and the change first in the
others.  The tool prints every run's end-to-end metrics (those of the CHANGE_TREE's
BENCHMARK.json), then for each metric each side's median and quartiles and the pairs the change
wins against the metric's direction (ties count for neither).  It exits 1, naming the seed and
the side, when a run reads ``correct: false`` or ends without a result; every pair still runs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median, quantiles

SIDES = ("parent", "change")


def parse_seeds(spec: str) -> list[int]:
    """'1-10', '45' or a comma-separated list of either, in order."""
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    if not seeds:
        raise ValueError(f"no seeds in {spec!r}")
    return seeds


def run(tree: str, workload: str, seed: int, seconds: float) -> dict | None:
    """The last stdout line of one benchmark run as a dict, or None when the run fails."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        return None
    return json.loads(lines[-1])


def spread(values: list[float]) -> str:
    q1, q2, q3 = quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_tree")
    ap.add_argument("change_tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="'1-10', '45' or a comma-separated list")
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args()
    trees = dict(zip(SIDES, (args.parent_tree, args.change_tree)))
    with open(os.path.join(args.change_tree, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)["end_to_end"]

    values = {side: {m["name"]: [] for m in spec} for side in SIDES}
    wins, pairs, failed = {m["name"]: 0 for m in spec}, 0, []
    print(f"workload {args.workload}, {args.seconds:g} s per run")
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        results = {side: run(trees[side], args.workload, seed, args.seconds) for side in order}
        for side in order:
            res = results[side]
            if res is None or not res["correct"]:
                failed.append(f"seed {seed} {side}: " + (
                    "no result" if res is None else f"{res['failed']} of {res['attempted']} "
                                                    "ops failed (correct: false)"))
                print(f"  {failed[-1]}")
        if any(res is None for res in results.values()):
            continue
        pairs += 1
        print(f"seed {seed}, {order[0]} first:")
        for m in spec:
            name, sign = m["name"], 1.0 if m["better"] == "lower" else -1.0
            got = {side: results[side]["metrics"][name]["value"] for side in SIDES}
            for side in SIDES:
                values[side][name].append(got[side])
            wins[name] += sign * (got["change"] - got["parent"]) < 0
            print(f"  {name:12s} parent {got['parent']:<12.6g} change {got['change']:.6g}")

    if pairs:
        print(f"\n{pairs} pairs: median [q1, q3] per side, change wins")
        for m in spec:
            name = m["name"]
            print(f"  {name:12s} parent {spread(values['parent'][name]):34s} "
                  f"change {spread(values['change'][name]):34s} "
                  f"wins {wins[name]}/{pairs} ({m['better']} is better, {m['unit']})")
    for line in failed:
        print(f"FAILED {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
