"""Alternating pairs of benchmark runs on two source trees, one workload.

Run from anywhere:

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload esd_map --seeds 1-10 \\
        --seconds 30

Each seed is one pair: ``python3 perfbench/run.py --trace 0`` runs from the root of each tree
with that seed, the parent first in the first, third, ... pair and the change first in the
others.  The tool prints every run's end-to-end metrics (those of the CHANGE_TREE's
BENCHMARK.json), then for each metric each side's median and quartiles and the pairs the change
wins against the metric's direction (ties count for neither), then one verdict per metric
(:func:`verdict`): gain, worse, unresolved or flat.  It exits 1, naming the seed and the side,
when a run reads ``correct: false`` or ends without a result; every pair still runs.
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


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3] of the values."""
    return quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def spread(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def change_wins(parent: list[float], change: list[float], better: str) -> int:
    """The pairs (parent[i], change[i]) in which the change reads better; ties count for
    neither."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(sign * (c - p) < 0 for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """One end-to-end metric over paired runs, bound a fraction of the parent's median:

    gain        at least 10 pairs, the change wins at least 9/10 of them, and its median is
                better than the parent's by more than the parent's interquartile range;
    worse       the change's median is worse than the parent's by more than bound;
    unresolved  the parent's interquartile range is wider than bound, unless every change run
                reads better than every parent run;
    flat        any other case.
    """
    sign = 1.0 if better == "lower" else -1.0
    (q1, mid, q3), tolerance = quartiles(parent), bound * abs(median(parent))
    gap = sign * (mid - median(change))  # > 0 where the change's median is better
    pairs = len(parent)
    if pairs >= 10 and 10 * change_wins(parent, change, better) >= 9 * pairs and gap > q3 - q1:
        return "gain"
    if -gap > tolerance:
        return "worse"
    if q3 - q1 > tolerance and not max(sign * c for c in change) < min(sign * p for p in parent):
        return "unresolved"
    return "flat"


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

    values = {m["name"]: ([], []) for m in spec}  # the parent's and the change's runs, in pairs
    pairs, failed = 0, []
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
            name = m["name"]
            got = [results[side]["metrics"][name]["value"] for side in SIDES]
            for runs, value in zip(values[name], got):
                runs.append(value)
            print(f"  {name:12s} parent {got[0]:<12.6g} change {got[1]:.6g}")

    if pairs:
        print(f"\n{pairs} pairs: median [q1, q3] per side, change wins")
        for m in spec:
            parent, change = values[m["name"]]
            print(f"  {m['name']:12s} parent {spread(parent):34s} change {spread(change):34s} "
                  f"wins {change_wins(parent, change, m['better'])}/{pairs} "
                  f"({m['better']} is better, {m['unit']})")
        print("\nverdicts (bound: a fraction of the parent's median)")
        for m in spec:
            print(f"  {m['name']:12s} {verdict(*values[m['name']], m['better'], m['bound'])} "
                  f"(bound {m['bound']:g})")
    for line in failed:
        print(f"FAILED {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
