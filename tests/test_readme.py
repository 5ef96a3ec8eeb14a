"""The README's examples still run."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md (Library)", "exec"), {})
    # conflicts, delta repairs, two optima, the rule check and its class
    assert len(out.getvalue().splitlines()) == 6
