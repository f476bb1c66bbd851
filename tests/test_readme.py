import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quickstart():
    """The Python block under README's "Library quickstart" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quickstart_runs_as_shown():
    # every line runs in order; a line whose trailing comment is a Python
    # literal is an expression that must evaluate to that literal
    namespace = {}
    checked = []
    for line in _quickstart().splitlines():
        code, _, comment = line.partition("#")
        try:
            expected = ast.literal_eval(comment.strip())
        except (SyntaxError, ValueError):
            exec(line, namespace)
            continue
        assert eval(code, namespace) == expected, line
        checked.append(expected)
    assert checked == ["p & ~q", "p (q p)", True, False, True]
