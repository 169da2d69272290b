"""The README's library quick start runs and prints what its comments say.

Each ``print`` line of the block ends in a comment whose leading numbers
are the values it prints, to the precision written there (``~0.534`` is
checked to 1e-3, an integer exactly).
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
NUMBER = r"-?\d+(?:\.\d+)?"


def quick_start() -> str:
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs_as_documented():
    code = quick_start()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    claims = [line.split("#", 1)[1] for line in code.splitlines()
              if line.startswith("print(")]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(claims)
    for line, claim in zip(printed, claims):
        got = re.findall(NUMBER, line)
        want = re.findall(NUMBER, claim)[:len(got)]
        assert len(want) == len(got), (line, claim)
        for g, w in zip(got, want):
            decimals = len(w.partition(".")[2])
            tol = 10.0 ** -decimals if decimals else 0.0
            assert abs(float(g) - float(w)) <= tol, (line, claim)
