"""Byte-level regression gate: every subcommand on every fixture (the
``partitions`` subcommand once per predicate), the cross-check script over
its seeded corpus, and the definition-gap scan script.

Each file under ``tests/golden/`` holds the exit code on its first line
("exit N") followed by the exact stdout of one ``zerolap`` run or one run
of a script under ``scripts/``. Reports embed the ``--input`` string,
so runs use paths relative to the repo root.

Regenerate after an intended output change with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zerolap.cli import _COMMANDS, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
FIXTURES = sorted(p.name for p in (ROOT / "fixtures").iterdir() if p.is_file())
# golden name -> zerolap arguments before ``--input``
COMMANDS = {command: [command] for command in _COMMANDS}
COMMANDS["partitions-literal"] = ["partitions", "--predicate", "literal"]
COMMANDS["partitions-budget1"] = ["partitions", "--budget", "1"]
COMMANDS["partitions-pretty"] = ["partitions", "--pretty"]
COMMANDS["zero-eigenvectors-pretty"] = ["zero-eigenvectors", "--pretty"]
COMMANDS["zero-eigenvectors-budget3"] = ["zero-eigenvectors", "--budget", "3"]
CASES = [(fixture, command) for fixture in FIXTURES for command in sorted(COMMANDS)]
# golden name "<script>.<case>" -> arguments of scripts/<script>.py
SCRIPT_CASES = {
    "run_crosschecks.default": [],
    "run_crosschecks.budget2000": ["--budget", "2000"],
    "scan_definition_gaps.default": [],
}


def _golden_path(fixture: str, command: str) -> Path:
    return GOLDEN_DIR / f"{fixture}.{command}.out"


def _script_golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.out"


def _render(fixture: str, command: str) -> str:
    """Exit line plus stdout of one run, from the repo root."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([*COMMANDS[command], "--input", f"fixtures/{fixture}"])
    return f"exit {code}\n{out.getvalue()}"


def _render_script(name: str) -> str:
    """Exit line plus stdout of one script run."""
    script = name.split(".")[0] + ".py"
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *SCRIPT_CASES[name]],
        capture_output=True,
        text=True,
    )
    return f"exit {run.returncode}\n{run.stdout}"


@pytest.mark.parametrize("fixture,command", CASES)
def test_output_matches_golden(fixture, command, monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = _golden_path(fixture, command).read_text()
    assert _render(fixture, command) == expected


@pytest.mark.parametrize("name", sorted(SCRIPT_CASES))
def test_script_matches_golden(name):
    assert _render_script(name) == _script_golden_path(name).read_text()


def test_every_golden_file_is_used():
    wanted = {_golden_path(f, c).name for f, c in CASES}
    wanted |= {_script_golden_path(name).name for name in SCRIPT_CASES}
    assert {p.name for p in GOLDEN_DIR.iterdir()} == wanted


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for fixture, command in CASES:
        _golden_path(fixture, command).write_text(_render(fixture, command))
    for name in SCRIPT_CASES:
        _script_golden_path(name).write_text(_render_script(name))
    print(f"wrote {len(CASES) + len(SCRIPT_CASES)} files to {GOLDEN_DIR}", file=sys.stderr)
