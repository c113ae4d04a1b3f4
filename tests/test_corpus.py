"""The checked-in report corpus: every report byte-identical to its digest.

tests/corpus/commands.txt holds the command lines and digests.json their
recorded outputs (see tests/corpus/regen.py).  Here the commands not
marked @slow run in process, and the same commands under python -O in a
child, since no report may rest on an assert.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REGEN = ROOT / "tests" / "corpus" / "regen.py"

_spec = importlib.util.spec_from_file_location("corpus_regen", REGEN)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

COMMANDS = regen.load_commands()
FAST = [line for line, slow in COMMANDS if not slow]


def test_every_command_has_a_digest_and_every_digest_a_command():
    lines = [line for line, _ in COMMANDS]
    assert len(set(lines)) == len(lines)
    assert set(regen.load_digests()) == set(lines)


def test_the_fast_corpus_reproduces_its_digests():
    known = regen.load_digests()
    differ = [line for line in FAST if regen.digest(line) != known[line]]
    assert not differ, f"{len(differ)} reports differ, first: {differ[0]}"


def test_the_fast_corpus_reproduces_its_digests_under_optimisation():
    proc = subprocess.run(
        [sys.executable, "-O", str(REGEN), "--fast"], capture_output=True,
        text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stderr.startswith(f"{len(FAST)} commands, 0 differ")

