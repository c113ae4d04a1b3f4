"""Exit codes, report shapes and determinism of the command line."""

import ast
import hashlib
import json
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from a4diff._families import hkg_alpha
from a4diff._linalg import Matrix
import a4diff.cli as cli
from a4diff.cli import JobSpec, run_cli
from a4diff.gf import FieldSpec
from a4diff.ratlaurent import RatFunc

from helpers import matrix_from_rows

S5 = '{"num":[0,0,0,0,0,1],"den":[1]}'
S3 = '{"num":[0,0,0,1],"den":[1]}'
S2S = '{"num":[0,1,1],"den":[1]}'
S1 = '{"num":[0,1],"den":[1]}'
INV_S5 = '{"num":[1],"den":[0,0,0,0,0,1]}'
S5_PLUS_INV = '{"num":[1,0,0,0,0,0,1],"den":[0,1]}'
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- analyze

def test_analyze_quintic_human(capsys):
    code, out, _ = run(capsys, "analyze", "--alpha", S5, "--verify")
    assert code == 0
    assert "genus 6" in out
    assert "N_{2,0,2}" in out and "M_{3,1,1}" in out and "S_0" in out
    assert "verification: PASS" in out
    assert "timings:" in out


def test_analyze_quintic_json(capsys):
    code, out, _ = run(capsys, "analyze", "--alpha", S5, "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["schema"] == 2
    assert obj["ram"]["genus"] == 6
    assert obj["verification"] == "skipped"
    assert obj["kG"]["total_dim"] == 6
    assert "timings" not in obj


def test_trivial_alpha_exits_2(capsys):
    code, _, err = run(capsys, "analyze", "--alpha", S2S)
    assert code == 2
    assert "xi^2 - xi" in err


def test_nonzero_trace_exits_2(capsys):
    code, _, err = run(capsys, "analyze", "--alpha", S3)
    assert code == 2
    assert "trace nonzero" in err


TRACE_NONZERO = ("error: trace nonzero: the datum needs Tr(alpha) = 0 "
                 "over the rational subfield\n")
TRIVIAL_DATUM = ("error: trivial datum: alpha = xi^2 - xi is solvable; the "
                 "cover needs all three conditions alpha != xi^2 - xi\n")


@pytest.mark.parametrize("argv, err", [
    (["analyze", "--alpha", S3], TRACE_NONZERO),
    (["analyze", "--alpha", '{"num":[1],"den":[1]}'], TRACE_NONZERO),
    (["analyze", "--alpha", S2S], TRIVIAL_DATUM),
    (["analyze", "--alpha", '{"num":[0],"den":[1]}'], TRIVIAL_DATUM),
    # of nonzero trace, but reduced before the trace is refused, so the
    # pole that does not split over GF(16) is named
    (["verify", "--m", "4", "--alpha", '{"num":[13,3],"den":[8,3,11,11]}'],
     "error: pole not split over working field: irreducible factor of "
     "degree 2 with coeff masks [8, 4, 1]\n"),
])
def test_refusals_print_one_line_and_exit_2(capsys, argv, err):
    assert run(capsys, *argv) == (2, "", err)


def test_odd_field_degree_exits_2(capsys):
    code, _, err = run(capsys, "analyze", "--alpha", S5, "--m", "7")
    assert code == 2
    assert "cube root" in err


def test_verify_runs_fields_above_the_direct_tables():
    # A child process under a 2 GB address-space cap, so a field whose
    # arithmetic fell back on 2^26-entry tables fails the test instead of
    # filling memory.
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "a4diff.cli", "verify", "--m", "26",
         "--alpha", S5], capture_output=True, text=True, timeout=60,
        preexec_fn=cap, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    assert "verification: PASS" in proc.stdout
    assert time.perf_counter() - t0 < 30


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "analyze", "--alpha", "{oops")[0] == 1
    assert run(capsys, "analyze")[0] == 1
    assert run(capsys)[0] == 1
    code, _, err = run(capsys, "analyze", "--alpha", '{"num":[1]}')
    assert code == 1 and "num" in err
    code, out, err = run(capsys, "analyze", "--alpha",
                         '{"num":[0,0,0,0,0,true],"den":[true]}', "--json")
    assert code == 1 and not out and err.startswith("usage error: alpha num")


def test_alpha_from_file_and_trunc(tmp_path, capsys):
    path = tmp_path / "alpha.json"
    path.write_text(S5, encoding="utf-8")
    code, out, _ = run(capsys, "analyze", "--alpha", f"@{path}",
                       "--trunc", "1", "--json")
    assert code == 0
    obj = json.loads(out)
    assert all(len(bp["theta"]) <= 1 for bp in obj["ram"]["special"])


def test_an_undecodable_batch_or_alpha_file_is_a_usage_error(tmp_path,
                                                             capsys):
    # a file that is not UTF-8 cannot be read, which is a usage error, not
    # a failed precondition of the mathematics
    path = tmp_path / "latin1.jsonl"
    path.write_bytes(b'{"m": 8, "alpha": {"num": [0, 1], "den": [1]}, '
                     b'"note": "caf\xe9"}\n')
    reason = ("'utf-8' codec can't decode byte 0xe9 in position 59: "
              "invalid continuation byte\n")
    assert run(capsys, "verify", "--batch", str(path)) == (
        1, "", "usage error: cannot read batch file: " + reason)
    assert run(capsys, "analyze", "--alpha", f"@{path}") == (
        1, "", "usage error: cannot read alpha file: " + reason)


def test_negative_trunc_is_a_usage_error(tmp_path, capsys):
    # a negative slice bound would silently drop the last coefficients
    code, _, err = run(capsys, "analyze", "--alpha", S5, "--trunc", "-1",
                       "--json")
    assert code == 1 and "trunc" in err
    code, out, _ = run(capsys, "analyze", "--alpha", S5, "--trunc", "0",
                       "--json")
    assert code == 0
    assert json.loads(out)["ram"]["special"][0]["theta"] == []
    path = tmp_path / "batch.jsonl"
    path.write_text(json.dumps({"m": 8, "alpha": json.loads(S5),
                                "options": {"trunc": -1}}),
                    encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--batch", str(path))
    assert code == 1
    assert json.loads(out)["error"].startswith("usage: trunc")


# ---------------------------------------------------------------- hkg

def test_hkg_invariants_block(capsys):
    code, out, _ = run(capsys, "hkg", "--alpha", S5, "--json")
    assert code == 0
    h = json.loads(out)["hkg"]
    assert h["p"] == 5 and h["mu"] == [2, 3, 4]
    assert h["l"] == 1 and h["genus"] == 6


def test_hkg_computes_kG_once(capsys, monkeypatch):
    from a4diff import cli, decomp
    calls = []
    kG = decomp.kG_decomposition

    def counting(data):
        calls.append(data)
        return kG(data)

    for module in (cli, decomp):
        monkeypatch.setattr(module, "kG_decomposition", counting)
    code, _, _ = run(capsys, "hkg", "--alpha", S5, "--json")
    assert code == 0
    assert len(calls) == 1


def test_hkg_rejects_orbit_data(capsys):
    # the degenerate-orbit family is branched beyond infinity
    code, out, _ = run(capsys, "examples", "--which", "2", "--n", "1",
                      "--json")
    alpha = json.dumps(json.loads(out)["job"]["alpha"])
    code, _, err = run(capsys, "hkg", "--alpha", alpha)
    assert code == 2
    assert "not an HKG datum" in err


def test_hkg_rejects_two_special_points(capsys):
    # s^5 + 1/s is branched at 0 and at infinity, so r = 2
    code, _, err = run(capsys, "hkg", "--alpha", S5_PLUS_INV)
    assert code == 2
    assert "not an HKG datum" in err


def test_hkg_empty_for_genus_zero(capsys):
    code, out, _ = run(capsys, "hkg", "--alpha", S1, "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["kG"]["entries"] == []
    assert obj["hkg"]["genus"] == 0


def test_hkg_reads_a_branch_point_at_zero_after_inversion(capsys):
    code, out, _ = run(capsys, "hkg", "--alpha", INV_S5, "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["ram"]["inverted"] is True
    _, ref, _ = run(capsys, "hkg", "--alpha", S5, "--json")
    assert obj["hkg"] == json.loads(ref)["hkg"]


# ---------------------------------------------------------------- examples

def test_examples_family1_verified(capsys):
    code, out, _ = run(capsys, "examples", "--which", "1", "--n", "1",
                       "--x", "1", "--verify", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["ram"]["genus"] == 69
    assert obj["verification"]["status"] == "PASS"


def test_examples_family3_field_enlargement(capsys):
    code, out, _ = run(capsys, "examples", "--which", "3", "--m", "2",
                       "--json")
    assert code == 0
    obj = json.loads(out)
    # GF(4) has no band root outside {0, 1, zeta, zeta^2}
    assert obj["job"]["field"]["m"] == 4
    assert "psi" in obj["job"]["options"]["example"]


# (1, 2, 2, 4) is the genus-234 HKG datum
SMALL_FIELD_EXAMPLES = [(which, n, x, m)
                        for which, x in ((1, 1), (1, 2), (2, None), (3, None))
                        for n in (1, 2) for m in (2, 4)]


@pytest.mark.parametrize("which,n,x,m", SMALL_FIELD_EXAMPLES,
                         ids=[f"{w}-{n}-{x}-{m}"
                              for w, n, x, m in SMALL_FIELD_EXAMPLES])
def test_examples_verify_over_small_fields(capsys, which, n, x, m):
    # a field with fewer elements than tube or band parameters the pencil
    # could have still decomposes: nothing is scanned over the field
    args = ["examples", "--which", str(which), "--n", str(n), "--m", str(m)]
    if x is not None:
        args += ["--x", str(x)]
    code, out, err = run(capsys, *args, "--verify", "--json")
    assert code == 0, err
    assert json.loads(out)["verification"]["status"] == "PASS"


def test_examples_family3_bad_psi(capsys):
    code, _, err = run(capsys, "examples", "--which", "3", "--psi", "1")
    assert code == 2
    assert "psi" in err


# ---------------------------------------------------------------- verify

def test_verify_single_alpha(capsys):
    code, out, _ = run(capsys, "verify", "--alpha", S5, "--json")
    assert code == 0
    assert json.loads(out)["verification"]["status"] == "PASS"


def test_verify_mismatch_exits_3(capsys, monkeypatch):
    class Hollow:
        multiplicities = {}
        def to_json(self):
            return {}
    monkeypatch.setattr("a4diff.oracle.decompose_rep", lambda rep: Hollow())
    code, out, _ = run(capsys, "verify", "--alpha", S5, "--json")
    assert code == 3
    assert json.loads(out)["verification"]["status"] == "FAIL"


def test_json_reports_are_byte_identical(capsys):
    _, out1, _ = run(capsys, "analyze", "--alpha", S5, "--json", "--verify")
    _, out2, _ = run(capsys, "analyze", "--alpha", S5, "--json", "--verify")
    assert out1 == out2


# sha256 of the --json stdout of three example reports; they carry every
# theta list and lambda of the orbits, so a change in any local expansion,
# root multiplicity or canonical form shows here
GOLDEN_REPORTS = [
    (("--which", "2", "--n", "8", "--m", "8"),
     "456089303aef40a35a87842630a0e22bd959080e53ee3eb007334e1e8cac36f7"),
    (("--which", "3", "--n", "8", "--m", "8"),
     "a3cfcabf0267070672f22b9378255ef46f2ca0907809bc69afb00e1ca4e7712d"),
    (("--which", "3", "--n", "2", "--m", "32"),
     "171d7b72013c706fe4cd1be0dbac5140d0ad4f7869ae7b895221b8c480e5209e"),
]


@pytest.mark.parametrize("args,digest", GOLDEN_REPORTS,
                         ids=["-".join(a[1::2]) for a, _ in GOLDEN_REPORTS])
def test_golden_example_reports(capsys, args, digest):
    code, out, _ = run(capsys, "examples", *args, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_golden_hkg_report(capsys):
    # sha256 of the hkg --json stdout of the genus-234 family-1 datum
    alpha = json.dumps(hkg_alpha(FieldSpec(m=8), 2, 2).to_json())
    code, out, _ = run(capsys, "hkg", "--alpha", alpha, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "24ee6bc2747fbb6ac45c1a1b5b05569941b496a5f056037679ca074a7e7dafae")


# sha256 of the --verify --json stdout of two family-3 examples whose
# H-side tube parameters and A4-side band parameters the oracle has to
# find, of the genus-234 hkg model and of family 2 over the tower (m = 18)
GOLDEN_VERIFY_REPORTS = [
    (("--which", "3", "--n", "1", "--m", "12", "--psi", "19"),
     "70194bcbd212363c6eb9a90d27d65138f44d0fc22977e1c373d6754ab9797ee9"),
    (("--which", "3", "--n", "2", "--m", "16"),
     "ec55214ddfa8e067850020eb9a1df8a0681da02e61d3a76113395d4e7ae46d34"),
    (("--which", "1", "--n", "2", "--x", "2", "--m", "8"),
     "9ea674ae301f2b6affa14be552a955fca402a9614fb899851d6bc80fae792141"),
    (("--which", "2", "--n", "4", "--m", "18"),
     "371bea00c124230facedf7df777c26b6813ddb1e6dec5e0b27b631544afab28b"),
]


@pytest.mark.parametrize("args,digest", GOLDEN_VERIFY_REPORTS,
                         ids=["-".join(a[1::2])
                              for a, _ in GOLDEN_VERIFY_REPORTS])
def test_golden_verify_reports(capsys, args, digest):
    code, out, _ = run(capsys, "examples", *args, "--verify", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_oracle_ranks_few_parameters(capsys, monkeypatch):
    # the tube and band parameters come from eigenvalues, not from
    # ranking the pencil at each of the 4096 field elements
    calls = [0]
    rank = Matrix.rank

    def counting_rank(self):
        calls[0] += 1
        return rank(self)

    monkeypatch.setattr(Matrix, "rank", counting_rank)
    code, out, _ = run(capsys, "examples", "--which", "3", "--n", "1",
                       "--m", "12", "--psi", "19", "--verify")
    assert code == 0 and "verification: PASS" in out
    assert calls[0] <= 40


def test_batch_runs_jobs_in_order(tmp_path, capsys):
    jobs = [
        {"m": 8, "alpha": json.loads(S5), "mode": "verify"},
        {"m": 8, "mode": "examples",
         "options": {"example": {"which": 2, "n": 1}}},
        {"m": 8, "alpha": json.loads(S2S), "mode": "verify"},
    ]
    path = tmp_path / "batch.jsonl"
    path.write_text("\n".join(json.dumps(j) for j in jobs),
                    encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--batch", str(path))
    assert code == 2   # worst job: the trivial datum
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert json.loads(lines[0])["verification"]["status"] == "PASS"
    assert json.loads(lines[1])["ram"]["genus"] == 24
    assert "xi^2 - xi" in json.loads(lines[2])["error"]


def test_batch_accepts_json_array(tmp_path, capsys):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps([{"m": 8, "alpha": json.loads(S5)}]),
                    encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--batch", str(path))
    assert code == 0
    assert json.loads(out)["verification"]["status"] == "PASS"


def test_batch_accepts_shorthand_field_object(tmp_path, capsys):
    path = tmp_path / "batch.jsonl"
    path.write_text(json.dumps({"field": {"m": 8},
                                "alpha": json.loads(S5)}),
                    encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--batch", str(path))
    assert code == 0
    assert json.loads(out)["verification"]["status"] == "PASS"


def test_batch_survives_malformed_jobs(tmp_path, capsys):
    # one healthy job between two broken ones; the batch must report
    # every line and the healthy job must still verify
    jobs = [
        {"field": {"degree": 8}, "alpha": json.loads(S5)},
        {"field": {"m": 8}, "alpha": json.loads(S5)},
        {"field": {"m": 7}, "alpha": json.loads(S5)},
        {"m": 8, "alpha": [1, 2, 3]},
    ]
    path = tmp_path / "batch.jsonl"
    path.write_text("\n".join(json.dumps(j) for j in jobs),
                    encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--batch", str(path))
    assert code == 2   # worst failure: the odd field degree
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert len(lines) == 4
    assert "field must be an object" in lines[0]["error"]
    assert lines[1]["verification"]["status"] == "PASS"
    assert "cube root" in lines[2]["error"]
    assert "alpha" in lines[3]["error"]


# PASS, a refusal, usage errors and family 2's longer verify, more jobs
# than the two workers
MIXED_BATCH = [
    {"m": 8, "mode": "examples", "options": {"example": {"which": 2,
                                                        "n": 8}}},
    {"m": 8, "alpha": json.loads(S5)},
    {"m": 8, "alpha": json.loads(S3)},
    {"m": 8, "mode": "bogus", "alpha": json.loads(S5)},
    {"m": 4, "alpha": json.loads(S5)},
    {"field": {"m": 7}, "alpha": json.loads(S5)},
    {"m": 8, "alpha": {"num": [256], "den": [1]}},
]


def _mixed_batch(tmp_path):
    path = tmp_path / "batch.jsonl"
    path.write_text("\n".join(json.dumps(j) for j in MIXED_BATCH),
                    encoding="utf-8")
    return path


def test_a_batch_prints_the_same_in_process_and_on_children(
        tmp_path, capsys, monkeypatch):
    path = _mixed_batch(tmp_path)

    def unforked():
        raise AssertionError("a one-worker batch forked")

    with monkeypatch.context() as patch:
        patch.setattr(os, "cpu_count", lambda: 1)
        patch.setattr(os, "fork", unforked)
        in_process = run(capsys, "verify", "--batch", str(path))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert run(capsys, "verify", "--batch", str(path)) == in_process
    code, out, err = in_process
    assert (code, err) == (2, "")
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == len(MIXED_BATCH)
    assert [l.get("verification", {}).get("status") for l in lines] == [
        "PASS", "PASS", None, None, "PASS", None, None]


def test_a_dead_batch_worker_costs_only_its_own_job(tmp_path, capsys,
                                                    monkeypatch):
    # the children inherit the patched worker; it kills its child on the
    # m = 4 job, and never the test process itself
    path = _mixed_batch(tmp_path)
    worker = cli._batch_worker
    parent = os.getpid()

    def dying(text):
        if os.getpid() != parent and json.loads(text).get("m") == 4:
            os.kill(os.getpid(), signal.SIGKILL)
        return worker(text)

    monkeypatch.setattr(cli, "_batch_worker", dying)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, out, err = run(capsys, "verify", "--batch", str(path))
    expected = [worker(json.dumps(job))[1] for job in MIXED_BATCH]
    expected[4] = ('{"error":"batch worker was killed by SIGKILL before it '
                   'reported this job","schema":2}')
    assert (code, out.splitlines(), err) == (2, expected, "")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_batch_whose_every_child_dies_still_reports_every_job(
        tmp_path, capsys, monkeypatch):
    # each dead child is replaced while jobs wait; a child's exit status
    # is reported as well as a signal
    path = tmp_path / "batch.jsonl"
    path.write_text(f'{{"m": 8, "alpha": {S5}}}\n' * 3
                    + f'{{"m": 4, "alpha": {S5}}}\n', encoding="utf-8")
    parent = os.getpid()

    def dying(text):
        if os.getpid() != parent:
            if json.loads(text)["m"] == 4:
                os._exit(3)
            os.kill(os.getpid(), signal.SIGKILL)
        raise AssertionError("a job ran in the test process")

    monkeypatch.setattr(cli, "_batch_worker", dying)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, out, err = run(capsys, "verify", "--batch", str(path))
    line = '{"error":"batch worker %s before it reported this job","schema":2}'
    assert (code, out.splitlines(), err) == (
        2, [line % "was killed by SIGKILL"] * 3
        + [line % "exited with status 3"], "")


def test_a_batch_that_fails_in_the_parent_reaps_its_children(
        tmp_path, monkeypatch):
    import select

    def failing(*args):
        raise RuntimeError("select failed")

    monkeypatch.setattr(select, "select", failing)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with pytest.raises(RuntimeError, match="select failed"):
        run_cli(["verify", "--batch", str(_mixed_batch(tmp_path))])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_each_batch_job_runs_in_a_child_of_its_own(tmp_path, capsys,
                                                   monkeypatch):
    # the worker reports the pid it ran in after its own line: seven
    # jobs on two workers run in seven children, none of them the test
    # process
    path = _mixed_batch(tmp_path)
    worker = cli._batch_worker

    def with_pid(text):
        code, line = worker(text)
        return code, f"{line} {os.getpid()}"

    monkeypatch.setattr(cli, "_batch_worker", with_pid)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, out, err = run(capsys, "verify", "--batch", str(path))
    pids = [line.rsplit(" ", 1)[1] for line in out.splitlines()]
    assert (code, err, len(pids)) == (2, "", len(MIXED_BATCH))
    assert len(set(pids)) == len(MIXED_BATCH)
    assert str(os.getpid()) not in pids


def test_a_report_line_longer_than_a_pipe_buffer_arrives_whole(
        tmp_path, capsys, monkeypatch):
    # a child writes about 300 KB while the parent waits on it and on
    # its other child
    path = tmp_path / "batch.jsonl"
    path.write_text("\n".join(str(n) for n in (300_000, 1, 2)),
                    encoding="utf-8")
    monkeypatch.setattr(cli, "_batch_worker",
                        lambda text: (0, "x" * int(text)))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert run(capsys, "verify", "--batch", str(path)) == (
        0, "x" * 300_000 + "\nx\nxx\n", "")


def test_text_printed_before_a_forked_batch_appears_once(tmp_path):
    # a child leaves by os._exit, so the parent's unflushed stdout buffer
    # is not written again from the child
    path = _mixed_batch(tmp_path)
    script = ("import os\n"
              "from a4diff.cli import run_cli\n"
              "os.cpu_count = lambda: 2\n"
              "print('before the batch')\n"
              "print('exit', run_cli(['verify', '--batch', "
              f"{str(path)!r}]))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(MIXED_BATCH) + 2
    assert lines[0] == "before the batch" and lines[-1] == "exit 2"
    assert proc.stdout.count("before the batch") == 1


@pytest.mark.parametrize("job", [
    {"m": "x"},
    {"m": 8, "modulus": "q"},
    {"field": {"m": "x"}},
    {"field": {"m": "x", "modulus": [1, 1, 1]}},
    {"m": 8, "options": {"trunc": "1"}},
    {"mode": "examples", "options": {"example": {"which": 1, "n": "x"}}},
    {"mode": "examples", "options": {"example": {"which": 1, "x": "x"}}},
    {"mode": "examples", "options": {"example": {"which": 3, "psi": "q"}}},
])
def test_batch_job_with_a_malformed_number_is_a_usage_error(tmp_path, capsys,
                                                            job):
    if job.get("mode") != "examples":
        job["alpha"] = json.loads(S5)
    path = tmp_path / "batch.jsonl"
    path.write_text(json.dumps(job), encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--batch", str(path))
    assert code == 1
    assert json.loads(out)["error"].startswith("usage: job ")


@pytest.mark.parametrize("den", [[0], [0, 0]])
@pytest.mark.parametrize("mode", ["analyze", "hkg", "verify"])
def test_a_zero_denominator_is_a_usage_error(capsys, mode, den):
    alpha = json.dumps({"num": [1], "den": den})
    assert run(capsys, mode, "--alpha", alpha) == (
        1, "", "usage error: alpha denominator is zero\n")


@pytest.mark.parametrize("num", [[], [0]])
@pytest.mark.parametrize("mode", ["analyze", "hkg", "verify"])
def test_the_zero_function_is_a_trivial_datum_in_either_spelling(capsys,
                                                                 mode, num):
    # RatFunc.to_json writes zero with an empty num
    assert RatFunc.zero(FieldSpec(8)).to_json() == {"num": [], "den": [1]}
    alpha = json.dumps({"num": num, "den": [1]})
    assert run(capsys, mode, "--alpha", alpha) == (2, "", TRIVIAL_DATUM)


def test_a_batch_job_of_the_zero_function_is_a_trivial_datum(tmp_path,
                                                             capsys):
    path = tmp_path / "batch.jsonl"
    path.write_text(json.dumps({"m": 8, "alpha": {"num": [], "den": [1]}}),
                    encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--batch", str(path))
    assert (code, out) == (2, '{"error":"' + TRIVIAL_DATUM[7:-1]
                           + '","schema":2}\n')


def test_a_block_past_the_cap_is_refused_before_any_dense_array(
        tmp_path, capsys, monkeypatch):
    # s^5 has genus 6 and blocks of dimension 3, 2 and 1 on both sides
    import a4diff._blocks as blocks

    def unmade(*args):
        raise AssertionError("a dense model was made")

    refusal = ("unsupported configuration: a coordinate block of "
               "dimension 3, more than 2")
    monkeypatch.setattr(blocks, "BLOCK_DIM_CAP", 2)
    monkeypatch.setattr(blocks.TripletRep, "dense", unmade)
    monkeypatch.setattr(blocks, "GroupRep", unmade)
    assert run(capsys, "verify", "--alpha", S5) == (2, "",
                                                    f"error: {refusal}\n")
    path = tmp_path / "batch.jsonl"
    path.write_text(json.dumps({"m": 8, "alpha": json.loads(S5)}),
                    encoding="utf-8")
    assert run(capsys, "verify", "--batch", str(path)) == (
        2, json.dumps({"error": refusal, "schema": 2},
                      separators=(",", ":")) + "\n", "")
    monkeypatch.undo()
    monkeypatch.setattr(blocks, "BLOCK_DIM_CAP", 3)
    code, out, _ = run(capsys, "verify", "--alpha", S5)
    assert code == 0 and "verification: PASS" in out


def test_running_out_of_memory_in_verify_is_a_refusal(tmp_path):
    # a child that caps its own address space at 64 MB above what it holds
    # once the verify stack is loaded; family 2 at n = 256 makes a dense
    # block of dimension 1536, some 19 MB an array, so the oracle runs
    # out of memory, in a single run and in a one-job batch
    path = tmp_path / "batch.jsonl"
    path.write_text(json.dumps({"m": 8, "mode": "examples", "options": {
        "example": {"which": 2, "n": 256}}}), encoding="utf-8")
    script = (
        "import resource\n"
        "import a4diff.oracle, a4diff.repbuilder\n"
        "from a4diff.cli import run_cli\n"
        "with open('/proc/self/status') as fh:\n"
        "    kb = next(int(l.split()[1]) for l in fh\n"
        "             if l.startswith('VmSize:'))\n"
        "cap = (kb + 64 * 1024) * 1024\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
        "print(run_cli(['examples', '--which', '2', '--n', '256', "
        "'--verify']))\n"
        f"print(run_cli(['verify', '--batch', {str(path)!r}]))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    refusal = ("unsupported configuration: out of memory in the matrix "
               "model of dimension 4614")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == f"error: {refusal}\n"
    assert proc.stdout.splitlines() == [
        "2", json.dumps({"error": refusal, "schema": 2},
                        separators=(",", ":")), "2"]


def test_a_batch_job_with_a_zero_denominator_is_a_usage_error(tmp_path,
                                                             capsys):
    path = tmp_path / "batch.jsonl"
    path.write_text(json.dumps({"m": 8, "mode": "verify",
                                "alpha": {"num": [1], "den": [0, 0]}}),
                    encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--batch", str(path))
    assert code == 1
    assert out == ('{"error":"usage: alpha denominator is zero",'
                   '"schema":2}\n')


def test_batch_job_with_an_unknown_mode_or_no_alpha_is_a_usage_error(
        tmp_path, capsys):
    # zoo is a command of its own, not a kind of job
    jobs = [{"m": 8, "mode": "bogus", "alpha": json.loads(S5)},
            {"m": 8, "mode": "zoo", "alpha": json.loads(S5)},
            {"m": 8, "mode": "hkg"}]
    path = tmp_path / "batch.jsonl"
    path.write_text("\n".join(json.dumps(j) for j in jobs), encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--batch", str(path))
    assert code == 1
    assert [json.loads(l)["error"] for l in out.splitlines()] == [
        "usage: job mode must be one of analyze, hkg, verify, examples, "
        "got 'bogus'",
        "usage: job mode must be one of analyze, hkg, verify, examples, "
        "got 'zoo'",
        "usage: hkg job needs alpha",
    ]


# ---------------------------------------------------------------- zoo

def test_zoo_table_all_valid(capsys):
    code, out, _ = run(capsys, "zoo", "--m", "4", "--max-dim", "4",
                       "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["entries"] and all(e["valid"] for e in obj["entries"])
    sides = {e["side"] for e in obj["entries"]}
    assert sides == {"kH", "kG"}


def test_zoo_flags_a_model_that_breaks_the_relations(capsys, monkeypatch):
    # the model builders do not check the group relations; zoo does, and
    # reports a failure in the table instead of raising
    from a4diff.modulezoo import GroupRep

    def broken(spec, label):
        J = matrix_from_rows(spec, [[0, 1], [1, 1]])
        return GroupRep("H", spec, J, Matrix.identity(spec, 2))

    monkeypatch.setattr("a4diff.zoo.kh_group_rep", broken)
    code, out, _ = run(capsys, "zoo", "--m", "4", "--max-dim", "2",
                       "--side", "kH", "--json")
    assert code == 3
    assert not any(e["valid"] for e in json.loads(out)["entries"])


def test_zoo_refuses_a_long_side_before_building_any_model(capsys,
                                                          monkeypatch):
    # at m = 2 and dim <= 8 the kH side has 27 labels and the kG side 48:
    # under a cap of 40 the kG listing is refused before the first kH
    # model is built
    built = []

    def counting(build):
        def wrapper(spec, label):
            built.append(label)
            return build(spec, label)
        return wrapper

    import a4diff.zoo as zoo
    monkeypatch.setattr(zoo, "ZOO_LABEL_CAP", 40)
    for name in ("kh_group_rep", "kg_group_rep"):
        monkeypatch.setattr(zoo, name, counting(getattr(zoo, name)))
    code, out, err = run(capsys, "zoo", "--m", "2", "--max-dim", "8",
                         "--side", "both", "--json")
    assert code == 2 and not out and built == []
    assert err.startswith("error: unsupported configuration: 48 kG labels")


def test_zoo_refuses_a_side_past_the_dim3_budget(capsys, monkeypatch):
    # at m = 2 and dim <= 8 the kH side's cubes sum to 1 + 2 (27 + 125 +
    # 343) + 5 (8 + 64 + 216 + 512) = 4991: under a budget of 4990 it is
    # refused before the first model is built
    built = []

    def counting(spec, label):
        built.append(label)

    import a4diff.zoo as zoo
    monkeypatch.setattr(zoo, "ZOO_DIM3_BUDGET", 4990)
    monkeypatch.setattr(zoo, "kh_group_rep", counting)
    code, out, err = run(capsys, "zoo", "--m", "2", "--max-dim", "8",
                         "--side", "kH", "--json")
    assert code == 2 and not out and built == []
    assert err == ("error: unsupported configuration: 27 kH labels with "
                   "dim <= 8 over GF(2^2) sum to 4991 in dim^3, more than "
                   "4990\n")
    monkeypatch.undo()
    monkeypatch.setattr(zoo, "ZOO_DIM3_BUDGET", 4991)
    code, out, _ = run(capsys, "zoo", "--m", "2", "--max-dim", "8",
                       "--side", "kH", "--json")
    assert code == 0 and len(json.loads(out)["entries"]) == 27


def test_zoo_refuses_a_label_past_the_dim3_budget(capsys, monkeypatch):
    # a label whose dim^3 is past the budget is refused before its model
    # is built, as a listing of it alone would be
    import a4diff.zoo as zoo

    def unbuildable(spec, label):
        raise AssertionError(f"{label.label_str()} was built")

    monkeypatch.setattr(zoo, "ZOO_DIM3_BUDGET", 4912)
    for name in ("kh_quiver_rep", "kg_quiver_rep"):
        monkeypatch.setattr(zoo, name, unbuildable)
    for text, dim in (("M[2n+1=17,x=1,i=0]", 17), ("N[2n=18,lambda=inf]", 18),
                      ("B[6n=18,mu=1]", 18)):
        code, out, err = run(capsys, "zoo", "--m", "2", "--label", text,
                             "--json")
        assert code == 2 and not out
        assert err == (f"error: unsupported configuration: {text} has dim "
                       f"{dim}, {dim ** 3} in dim^3, more than 4912\n")
    monkeypatch.undo()
    monkeypatch.setattr(zoo, "ZOO_DIM3_BUDGET", 17 ** 3)
    code, out, _ = run(capsys, "zoo", "--m", "2", "--label",
                       "M[2n+1=17,x=1,i=0]", "--json")
    assert code == 0 and json.loads(out)["dim"] == 17


def test_zoo_single_label_dump(capsys):
    code, out, _ = run(capsys, "zoo", "--label", "B[6n=6,mu=9]", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["dim"] == 6 and obj["side"] == "kG"
    assert len(obj["generators"]["rho"]) == 6


MALFORMED_LABELS = ("B[6n=7,mu=3]", "B[6n=6,mu=0]", "M[2n+1=4,x=1]",
                    "M[2n+1=1,x=1]", "N[2n=3,lambda=5]", "N[2n=0,*=inf,i=0]")


def test_zoo_malformed_label_exits_2_under_optimisation():
    # the refusal must not come from the label classes' asserts, which
    # python -O strips
    script = (
        "import sys\n"
        "from a4diff.cli import run_cli\n"
        f"for text in {MALFORMED_LABELS!r}:\n"
        "    print(run_cli(['zoo', '--label', text]))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.stdout.split() == ["2"] * len(MALFORMED_LABELS)
    lines = proc.stderr.splitlines()
    assert len(lines) == len(MALFORMED_LABELS)
    for text, line in zip(MALFORMED_LABELS, lines):
        assert line.startswith(f"error: invalid label {text!r}: ")


@pytest.mark.parametrize("argv,code", [
    (["examples", "--which", "1", "--n", "2", "--x", "2", "--m", "8",
      "--verify", "--json"], 0),
    (["examples", "--which", "3", "--n", "1", "--m", "12", "--psi", "19",
      "--verify", "--json"], 0),
    (["zoo", "--m", "2", "--max-dim", "10", "--json"], 0),
    (["verify", "--alpha", S3, "--json"], 2),
    (["examples", "--which", "2", "--n", "4", "--m", "8", "--json"], 0),
    (["hkg", "--alpha", json.dumps({"num": [0] * 31 + [1] + [0] * 15 + [1],
                                    "den": [1]}), "--json"], 0),  # family 1
    (["examples", "--which", "3", "--n", "1", "--m", "12", "--psi", "19",
      "--json"], 0),
    (["verify", "--batch", {"m": 8, "mode": "bogus", "alpha": json.loads(S5)}],
     1),
])
def test_reports_are_the_same_under_optimisation(argv, code, tmp_path):
    # no report may rest on an assert, which python -O strips
    if argv[:2] == ["verify", "--batch"]:
        path = tmp_path / "batch.jsonl"
        path.write_text(json.dumps(argv[2]), encoding="utf-8")
        argv = [*argv[:2], str(path)]
    runs = [subprocess.run([sys.executable, *flags, "-m", "a4diff.cli",
                            *argv], capture_output=True, text=True,
                           timeout=120, env=dict(os.environ, PYTHONPATH=SRC))
            for flags in ([], ["-O"])]
    plain, optimised = ((p.returncode, p.stdout, p.stderr) for p in runs)
    assert plain == optimised
    assert plain[0] == code


def test_the_analysis_path_holds_no_assert():
    # python -O strips assert statements; these modules raise explicitly
    for name in ("ramification", "artin_schreier", "cli"):
        path = Path(SRC) / "a4diff" / f"{name}.py"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Assert)]
        assert not lines, f"{name}.py asserts at lines {lines}"


def test_zoo_listing_keeps_to_max_dim_and_refuses_large_ones(capsys):
    code, out, _ = run(capsys, "zoo", "--max-dim", "0", "--json")
    assert code == 0 and json.loads(out)["entries"] == []
    t0 = time.perf_counter()
    code, out, err = run(capsys, "zoo", "--m", "32", "--json")
    assert code == 2 and not out
    assert err.startswith("error: unsupported configuration: ")
    assert time.perf_counter() - t0 < 5


# ---------------------------------------------------------------- jobspec

def test_jobspec_json_roundtrip():
    field = FieldSpec(8)
    job = JobSpec(field, None, "examples",
                  {"example": {"which": 2, "n": 1}, "trunc": 3})
    again = JobSpec.from_json(job.to_json())
    assert again.to_json() == job.to_json()
    assert again.field == field and again.mode == "examples"
