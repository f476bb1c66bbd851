import ast
import re
import shlex
from pathlib import Path

from peirce.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(heading, lang=""):
    """The first ``lang`` code block under README's ``heading``."""
    text = README.read_text(encoding="utf-8")
    section = text.split(heading + "\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _quickstart():
    """The Python block under README's "Library quickstart" heading."""
    return _block("## Library quickstart", "python")


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


def test_eg_commands_exit_as_shown(tmp_path, monkeypatch):
    # each command under "The `eg` command" runs, with the proof script of
    # "Proof-script files" as proof.eg, and exits with the N of its
    # "exit N" comment, or 0 when it has none
    (tmp_path / "proof.eg").write_text(_block("### Proof-script files"), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    codes = []
    for line in _block("## The `eg` command", "sh").splitlines():
        expected = re.search(r"# exit (\d+)", line)
        code = main(shlex.split(line, comments=True)[1:])
        assert code == (int(expected.group(1)) if expected else 0), line
        codes.append(code)
    assert codes == [0, 0, 0, 1, 1, 0, 0, 0]
