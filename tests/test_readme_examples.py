"""The README's documented examples run as written.

The library quick start runs in process; each line of the command-line
example runs through `python -m lexgb` in a temporary directory, in order,
so later lines read the files earlier ones write.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import lexgb

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(section: str, language: str) -> str:
    """The first fenced `language` block under the README heading `section`."""
    text = README.read_text()
    start = text.index(f"\n## {section}\n")
    match = re.compile(rf"^```{language}\n(.*?)^```$", re.M | re.S).search(text, start)
    assert match, (section, language)
    return match.group(1)


def test_the_library_quick_start_runs():
    exec(compile(_block("Library quick start", "python"), "README quick start", "exec"), {})


def test_the_command_line_example_runs(tmp_path):
    lines = [line for line in _block("Command line", "sh").splitlines() if line.strip()]
    assert len(lines) == 8 and all(line.startswith("lexgb ") for line in lines)
    src = str(Path(lexgb.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    codes = []
    for line in lines:
        argv = [sys.executable, "-m", "lexgb", *shlex.split(line)[1:]]
        done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)
        codes.append((line, done.returncode, done.stderr))
    assert [(line, code) for line, code, _ in codes] == [(line, 0) for line in lines], codes
    written = {"pts.json", "recipe.json", "basis.json", "report.json", "summary.json"}
    assert {path.name for path in tmp_path.iterdir()} == written
