"""Op latencies from repeated passes, and their tail."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from statistics import mean, median

TAIL_BEYOND = 10


def host_slowdown(record: dict, kernels: list[tuple[float, float]], reference_s: float) -> float:
    """How much slower than the reference host this one ran during the op.

    ``kernels`` holds the (end time, seconds) of every run of the
    host-speed kernel; ``record["kernel"]`` is the run right before the op,
    and the next one ran right after it.  The host's speed is averaged
    over the kernel runs in a window reaching one op duration beyond both,
    so a long op is judged by the host's speed over a stretch as long as
    itself, and a short one by its two neighbours.
    """
    before = record["kernel"]
    ends = [t for t, _ in kernels]
    lo = bisect_left(ends, ends[before] - record["seconds"])
    hi = bisect_right(ends, ends[before + 1] + record["seconds"])
    return mean(k for _, k in kernels[lo:hi]) / reference_s


def op_latencies(records: list[dict], kernels: list[tuple[float, float]],
                 reference_s: float) -> list[float]:
    """Each op's latency: the median of its repetitions, at reference host speed.

    Other tenants of a shared host slow it by up to ~2x for minutes at a
    time, longer than a run, so raw times of the same code differ between
    runs by more than any repetition inside one run can remove.  Divided by
    the host's slowdown around each repetition (see calibrate.py), they
    agree to a few percent.  Failed repetitions count like the others.
    """
    return _median_per_op(records, lambda r: r["seconds"] / host_slowdown(r, kernels,
                                                                           reference_s))


def raw_op_latencies(records: list[dict]) -> list[float]:
    """Each op's latency: the median of its repetitions, as timed on this host."""
    return _median_per_op(records, lambda r: r["seconds"])


def _median_per_op(records: list[dict], seconds) -> list[float]:
    reps: dict[int, list[float]] = {}
    for r in records:
        reps.setdefault(r["op"], []).append(seconds(r))
    return [median(reps[i]) for i in sorted(reps)]


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with ``TAIL_BEYOND`` samples above it, and that percentile.

    With too few samples for such a percentile above the median, the
    slowest latency (percentile 100) is the tail.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= 2 * TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n
