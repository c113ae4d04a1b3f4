"""Each command loads only the layers it runs.

Every check runs in a fresh interpreter, since this test process has
long since imported numpy and the whole package.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
S5 = '{"num":[0,0,0,0,0,1],"den":[1]}'


def loaded_after(code):
    """Module names in sys.modules after a fresh interpreter runs code."""
    script = (code + "\nimport json, sys\n"
              "sys.__stdout__.write('\\n' + json.dumps(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def run_cli_code(argv):
    return ("import io, contextlib\n"
            "from a4diff.cli import run_cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert run_cli({argv!r}) == 0\n")


def test_importing_the_cli_loads_no_matrix_or_pool_stack():
    mods = loaded_after("import a4diff.cli")
    assert "numpy" not in mods
    assert "concurrent.futures.process" not in mods
    assert "a4diff.oracle" not in mods


def test_an_analyze_only_example_loads_no_numpy():
    mods = loaded_after(run_cli_code(
        ["examples", "--which", "2", "--n", "4", "--m", "8", "--json"]))
    assert "a4diff.ramification" in mods
    assert "numpy" not in mods


@pytest.mark.parametrize("m", ["8", "20"])
def test_verify_loads_numpy_but_not_numpy_ma(m):
    mods = loaded_after(run_cli_code(
        ["verify", "--m", m, "--alpha", S5, "--json"]))
    assert "numpy" in mods and "a4diff.oracle" in mods
    assert "numpy.ma" not in mods
    assert "logging" not in mods


def test_the_genus_234_verify_loads_no_numpy_ma():
    # the large-matrix run: every product, elimination and coordinate
    # read of the oracle runs, none of which may sort through np.unique
    mods = loaded_after(run_cli_code(
        ["examples", "--which", "1", "--n", "2", "--x", "2", "--m", "8",
         "--verify", "--json"]))
    assert "a4diff.oracle" in mods
    assert "numpy.ma" not in mods


def test_a_batch_forks_its_workers_without_the_pool_stack(tmp_path):
    # two workers for two jobs; every child is reaped by the time
    # run_cli returns
    path = tmp_path / "batch.jsonl"
    path.write_text(f'{{"m": 8, "alpha": {S5}}}\n' * 2, encoding="utf-8")
    mods = loaded_after(
        "import os\n"
        "os.cpu_count = lambda: 2\n"
        + run_cli_code(["verify", "--batch", str(path)])
        + "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('a batch child is left')\n")
    assert "a4diff.oracle" in mods
    assert "concurrent.futures" not in mods
    assert "multiprocessing" not in mods


@pytest.mark.parametrize("module", ["oracle", "_blocks"])
def test_the_oracle_finds_its_blocks_from_the_matrices_alone(module):
    # the oracle checks the builder's model, so it takes no block
    # structure from the builder: no import of repbuilder, no .labels
    tree = ast.parse((Path(SRC) / "a4diff" / f"{module}.py").read_text(
        encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    assert not any("repbuilder" in name for name in imported)
    assert not any(isinstance(node, ast.Attribute) and node.attr == "labels"
                   for node in ast.walk(tree))
