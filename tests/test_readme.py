"""The README's library example runs against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    names = {}
    exec(compile(blocks[0], str(README), "exec"), names)
    # Werner f = 0.9 at lambda/x2 = 1.5 dies and revives (acceptance criterion 6)
    report = names["report"]
    assert capsys.readouterr().out == f"{report.death_times} {report.revival_times}\n"
    assert report.death_times and report.revival_times
    assert names["rho"].shape == (len(names["traj"].times), 4, 4)
