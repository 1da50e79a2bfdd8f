"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1, "expected exactly one python block in the README"
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_quick_start"})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "True"  # validate_axioms(d).ok
    assert float(lines[-1]) < 1e-10  # relative drift of H over the run
