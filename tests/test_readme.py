"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"
PAIRS = Path(__file__).parent / "golden" / "pairs_x2.csv"


def test_library_example_runs(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(code.replace('"pairs.csv"', repr(str(PAIRS))), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5  # four p-values and the interval
    assert all(0.0 <= float(line.split()[1]) <= 1.0 for line in lines[:4])
