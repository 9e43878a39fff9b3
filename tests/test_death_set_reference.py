"""Regression test: every death set of the committed reference, recomputed.

The reference is written by ``make_death_set_reference.py``.  Endpoints compare at a relative
1e-12, so a different BLAS does not fail the test; interval counts compare exactly.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from wgqed.entangle import death_set
from wgqed.model import WaveguideParams, mhz

REFERENCE = json.loads(Path(__file__).with_name("death_set_reference.json").read_text())


@pytest.mark.parametrize("family", REFERENCE["columns"][1:])
def test_death_sets_match_the_reference(family):
    col = REFERENCE["columns"].index(family)
    p = WaveguideParams(gamma=mhz(REFERENCE["gamma_mhz"]),
                        gamma_nr=mhz(REFERENCE["gamma_nr_mhz"]), lambda_ratio=2.0)
    for row in REFERENCE["rows"]:
        ratio, want = row[0], row[col]
        got = death_set(ratio, p, family)
        assert len(got) == len(want), f"{family} at {ratio}: {got} against {want}"
        np.testing.assert_allclose(np.reshape(got, (-1, 2)), np.reshape(want, (-1, 2)),
                                   rtol=1e-12, atol=0, err_msg=f"{family} at {ratio}")
