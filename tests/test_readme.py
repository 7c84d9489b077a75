"""The README's Library example runs as written and prints the running
example's suffix array."""

import re
from pathlib import Path

from conftest import FULL_SA

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_the_suffix_array(capsys):
    (code,) = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    exec(code, {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 21
    assert [int(line.split("\t")[1]) for line in lines] == FULL_SA
