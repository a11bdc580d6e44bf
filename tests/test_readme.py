"""The README's library tour runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs(capsys):
    [block] = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.S | re.M)
    exec(compile(block, str(README), "exec"), {"__name__": "readme_tour"})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3
    assert float(printed[0]) < 1e-9  # the rotation error on clean data
