"""Regression test: the benchmark's op lists, rerun against the committed reference.

The reference is written by ``make_op_list_reference.py``.  Numbers compare at a relative 1e-12
(1e-15 absolute near zero), so a different BLAS does not fail the test; columns, row counts,
event counts and every other non-number compare exactly.
"""

import json
import math

from make_op_list_reference import PATH, outputs

REFERENCE = json.loads(PATH.read_text())


def mismatch(got, want, where: str) -> str | None:
    """Where got and want first differ, or None."""
    if isinstance(want, float) and isinstance(got, (int, float)):
        ok = math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)
        return None if ok else f"{where}: {got!r} against {want!r}"
    if type(got) is not type(want):
        return f"{where}: {got!r} against {want!r}"
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return f"{where}: keys {sorted(got)} against {sorted(want)}"
        pairs = [(got[k], want[k], f"{where}.{k}") for k in want]
    elif isinstance(want, list):
        if len(got) != len(want):
            return f"{where}: {len(got)} entries against {len(want)}"
        pairs = [(g, w, f"{where}[{i}]") for i, (g, w) in enumerate(zip(got, want))]
    else:
        return None if got == want else f"{where}: {got!r} against {want!r}"
    return next((m for g, w, at in pairs if (m := mismatch(g, w, at))), None)


def test_op_list_outputs_match_the_reference():
    got = outputs()
    assert len(got) == len(REFERENCE)
    for g, want in zip(got, REFERENCE):
        where = f"{want['workload']} seed {want['seed']} op {want['op']}"
        assert (g["workload"], g["seed"], g["op"]) == (want["workload"], want["seed"], want["op"])
        assert (m := mismatch(g["out"], want["out"], where)) is None, m
