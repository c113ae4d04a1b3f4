"""The report corpus: run every command of commands.txt, digest its output.

Each command runs in process through ``a4diff.cli.run_cli``.  Its digest
is the sha256 of its stdout with the human ``timings:`` line removed, the
sha256 of its stderr and its exit code.  digests.json holds one digest per
command line, keyed by the line as written in commands.txt.

    PYTHONPATH=src python tests/corpus/regen.py            # check all
    PYTHONPATH=src python -O tests/corpus/regen.py         # same, under -O
    PYTHONPATH=src python tests/corpus/regen.py --write    # re-record

A change that alters any report re-records the digests in the same commit
and names the commands whose digests changed.
"""

import argparse
import contextlib
import hashlib
import io
import json
import shlex
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
COMMANDS = HERE / "commands.txt"
DIGESTS = HERE / "digests.json"
SLOW = "@slow "


def load_commands():
    """(line, slow) pairs of commands.txt, in file order."""
    out = []
    for raw in COMMANDS.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        slow = line.startswith(SLOW)
        out.append((line[len(SLOW):] if slow else line, slow))
    return out


def argv_of(line):
    return [a.replace("{corpus}", str(HERE)) for a in shlex.split(line)]


def digest(line):
    """{"stdout", "stderr", "exit"} of one command line, run in process."""
    from a4diff.cli import run_cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv_of(line))
    stdout = "".join(l for l in out.getvalue().splitlines(keepends=True)
                     if not l.startswith("timings:"))
    return {"stdout": hashlib.sha256(stdout.encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
            "exit": code}


def load_digests():
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="re-record digests.json instead of checking it")
    parser.add_argument("--fast", action="store_true",
                        help="leave out the commands marked @slow")
    args = parser.parse_args()
    commands = [(l, s) for l, s in load_commands()
                if not (args.fast and s)]
    known = {} if args.write else load_digests()
    got, bad = {}, []
    t0 = time.perf_counter()
    for line, _ in commands:
        got[line] = digest(line)
        if not args.write and known.get(line) != got[line]:
            bad.append(line)
    if args.write:
        DIGESTS.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    for line in bad:
        print(f"differs: {line}")
    print(f"{len(commands)} commands, {len(bad)} differ, "
          f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
