"""Write death_set_reference.json: both state families' death sets at fixed wavelength ratios.

Run from the repository root after a change that moves a death set on purpose, and list the
moved entries with the change:

    PYTHONPATH=src python tests/make_death_set_reference.py [OUT]

OUT defaults to the committed ``death_set_reference.json``.  Another path lets two trees'
outputs, regenerated on one host, be compared byte for byte with ``cmp``.

The file is a regression reference for ``test_death_set_reference.py``, never a source of
acceptance values.  Each row is a ratio and, per family, its ``death_set`` intervals.
"""

import json
import sys
from pathlib import Path

from wgqed.entangle import F_LO, death_set
from wgqed.model import WaveguideParams, mhz

PATH = Path(__file__).with_name("death_set_reference.json")
GAMMA_MHZ, GAMMA_NR_MHZ = 5.0, 0.03
#: lambda/x2 = 1.05 + 0.005 k for k = 0..390, then the ratios the README and the tests name
RATIOS = [1.05 + 0.005 * k for k in range(391)] + [1.2, 1.3, 1.5, 1.9, 2.0, 2.11]


def main(path: Path):
    p = WaveguideParams(gamma=mhz(GAMMA_MHZ), gamma_nr=mhz(GAMMA_NR_MHZ), lambda_ratio=2.0)
    rows = [[r, *(death_set(r, p, family) for family in F_LO)] for r in RATIOS]
    head = {"gamma_mhz": GAMMA_MHZ, "gamma_nr_mhz": GAMMA_NR_MHZ,
            "columns": ["lambda_ratio", *F_LO]}
    lines = ",\n".join("    " + json.dumps(row) for row in rows)
    path.write_text(json.dumps(head)[:-1] + ', "rows": [\n' + lines + "\n]}\n")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else PATH)
