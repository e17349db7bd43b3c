"""The README's library example runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    section = README.read_text().split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, "README.md", "exec"), {})
    assert len(printed.getvalue().splitlines()) >= code.count("print(")
