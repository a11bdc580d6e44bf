"""The README's library tour and CLI recipe run as written."""

import re
import shlex
import sys
from pathlib import Path

from conftest import launch

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_library_tour_runs(capsys):
    [block] = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.S | re.M)
    exec(compile(block, str(README), "exec"), {"__name__": "readme_tour"})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3
    assert float(printed[0]) < 1e-9  # the rotation error on clean data


def test_cli_recipe_runs(tmp_path):
    # The recipe as printed, on 4 scenes instead of 500; `set -e` makes every
    # command's exit status count.
    [block] = [b for b in re.findall(r"^```sh\n(.*?)^```$", README.read_text(), flags=re.S | re.M)
               if "offset6d synth-gen" in b]
    script = block.replace("scene_count = 500", "scene_count = 4")
    assert script != block
    prelude = f"set -e\noffset6d() {{ {shlex.quote(sys.executable)} -m offset6d.cli \"$@\"; }}\n"
    result = launch(["bash", "-c", prelude + script], cwd=tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "wrote 4 scenes" in result.stdout
    assert (tmp_path / "loss.csv").is_file()
