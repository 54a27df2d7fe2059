"""The README's ``>>>`` sessions run as doctests, so its examples stay true."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _sessions():
    """``(line, body)`` of each fenced ``python`` block holding a ``>>>``
    prompt, ``line`` counted from 0 in the README.

    Only the text between the fences is returned: doctest would read a
    closing fence right after an output line as part of the expected output.
    """
    text = README.read_text()
    return [
        (text.count("\n", 0, m.start(1)), m.group(1))
        for m in re.finditer(r"^```python\n(.*?)^```", text, re.S | re.M)
        if ">>>" in m.group(1)
    ]


def test_readme_sessions_pass_as_doctests():
    sessions = _sessions()
    assert sessions, "README.md has no >>> session"
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(optionflags=doctest.REPORT_NDIFF)
    for line, body in sessions:
        runner.run(parser.get_doctest(body, {}, f"README line {line + 1}", str(README), line))
    assert runner.summarize(verbose=False).failed == 0
