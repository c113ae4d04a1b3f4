"""The README's library example prints what its comments say."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_its_comments():
    text = README.read_text()
    block = text.split("## Library", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    # each print(...) line ends in "# <what it prints>"
    expected = [line.partition("# ")[2] for line in block.splitlines()
                if line.startswith("print(")]
    assert expected and all(expected)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
