"""The README's library example runs as written."""

import os
import re

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_library_example_runs(capsys):
    with open(README) as fh:
        text = fh.read()
    section = text[text.index("## Library"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # degree, multiplier |G|/chi(1) and valuation of each character of S3 at
    # p = 3, then the report of the completed algebra of C7 x| Z_3
    assert lines[:3] == ["1 6 1", "1 6 1", "2 3 1"]
    assert len(lines) == 4 and "'components'" in lines[3]
