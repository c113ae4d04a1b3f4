"""The four benchmark workloads: their inputs per seed and their output checks.

Every operation is one ``a4diff`` command line.  Seed 0 gives exactly the
inputs below.  Another seed changes only ``tube_batch``: it samples 32 psi
below 64, as at seed 0, measures the H-side scan length of each (its
largest tube parameter mask) and takes the psi at the middle of each
quartile of those lengths.  Below 64 the A4-side band scan stops at the
smallest of psi, psi zeta and psi zeta^2 in mask order, so it stays as
short as at seed 0.

The other three workloads are one fixed datum each.  Their only free input
would be the field modulus, and that changes the work itself: the scalar
multiply loops over the operands' bits, so ``orbit_analyze`` took from 4.5
to 7.2 s across the 16 primitive moduli of degree 8 (one run each on a
2-core x86 machine).  Runs on different seeds would then differ by more
than any regression bound.

Outputs of the seed-0 inputs are compared with ``expected.json``, recorded
from the code that defined the benchmark.  Outputs of other ``tube_batch``
inputs must exit 0, pass verification and have kH and kG dimension equal
to the genus.
"""

import contextlib
import io
import json
import random

ALPHA_S5 = '{"num":[0,0,0,0,0,1],"den":[1]}'

COMMANDS = {
    "hkg_verify": ["examples", "--which", "1", "--n", "2", "--x", "2",
                   "--m", "8", "--verify", "--json"],
    "tube_batch": ["verify", "--batch", None],
    "orbit_analyze": ["examples", "--which", "2", "--n", "32", "--m", "8",
                      "--json"],
    "large_field": ["verify", "--m", "20", "--alpha", ALPHA_S5, "--json"],
}

# family-3 jobs of tube_batch at seed 0; their largest H-side tube
# parameters sit at masks 584, 1859, 4017 and 4078
DEFAULT_PSI = (9, 15, 2, 19)
TUBE_M = 12
TUBE_N = 1
PSI_LIMIT = 64
PSI_SAMPLE = 32


class Inputs:
    """One workload's command line and batch file text.

    pinned marks the seed-0 inputs, whose outputs expected.json records.
    """

    def __init__(self, workload, seed, argv, batch_text, pinned):
        self.workload = workload
        self.seed = seed
        self.argv = argv
        self.batch_text = batch_text
        self.pinned = pinned

    def to_json(self):
        return {"workload": self.workload, "seed": self.seed,
                "argv": self.argv, "batch": self.batch_text}


def _run_cli_json(cli, argv):
    """(exit code, stdout) of one in-process CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.run_cli(argv)
    return code, buf.getvalue()


def scan_length(cli, psi):
    """Largest H-side tube parameter mask of one family-3 job, or None."""
    argv = ["examples", "--which", "3", "--n", str(TUBE_N),
            "--m", str(TUBE_M), "--psi", str(psi), "--json"]
    code, out = _run_cli_json(cli, argv)
    if code != 0:
        return None
    lams = [e["params"]["lambda"] for e in json.loads(out)["kH"]["entries"]
            if "lambda" in e["params"]]
    return max((0 if lam == "inf" else lam) for lam in lams) if lams else 0


def quartile_psis(cli, rng):
    """The psi at the middle of each quartile of sampled scan lengths."""
    scored = []
    tried = set()
    while len(scored) < PSI_SAMPLE:
        psi = rng.randrange(2, PSI_LIMIT)
        if psi in tried:
            continue
        tried.add(psi)
        length = scan_length(cli, psi)
        if length is not None:
            scored.append((length, psi))
    scored.sort()
    return [scored[len(scored) * k // 8][1] for k in (1, 3, 5, 7)]


def batch_line(m, psi):
    return json.dumps({"m": m, "options": {"example": {
        "which": 3, "n": TUBE_N, "psi": psi}}}, sort_keys=True)


def make_inputs(workload, seed, batch_path, cli=None):
    """Inputs of one workload; cli is the imported a4diff.cli module, needed
    for tube_batch at seeds other than 0."""
    argv = list(COMMANDS[workload])
    batch_text = None
    if workload == "tube_batch":
        psis = (DEFAULT_PSI if seed == 0 else
                quartile_psis(cli, random.Random(f"{workload}:{seed}")))
        batch_text = "".join(batch_line(TUBE_M, p) + "\n" for p in psis)
        argv[-1] = batch_path
    pinned = workload != "tube_batch" or seed == 0
    return Inputs(workload, seed, argv, batch_text, pinned)


def job_summary(report):
    """The parts of one JSON report that the expected outputs pin."""
    ver = report.get("verification")
    return {
        "genus": report["ram"]["genus"],
        "kH": report["kH"]["entries"],
        "kG": report["kG"]["entries"],
        "kH_dim": report["kH"]["total_dim"],
        "kG_dim": report["kG"]["total_dim"],
        "status": ver if isinstance(ver, str) else ver["status"],
    }


def check_output(inputs, code, stdout, expected):
    """(jobs attempted, jobs failed, reasons) for one command's output.

    expected is the recorded list of job summaries of pinned inputs, or
    None.
    """
    jobs = 1 if inputs.batch_text is None else \
        len(inputs.batch_text.splitlines())
    lines = stdout.splitlines()
    if code != 0:
        return jobs, jobs, [f"exit code {code}"]
    if len(lines) != jobs:
        return jobs, jobs, [f"{len(lines)} report lines, expected {jobs}"]
    failed = 0
    reasons = []
    for k, line in enumerate(lines):
        try:
            got = job_summary(json.loads(line))
        except (ValueError, KeyError, TypeError) as exc:
            failed += 1
            reasons.append(f"job {k}: unreadable report ({exc})")
            continue
        if expected is not None:
            bad = [key for key in got if got[key] != expected[k][key]]
        else:
            bad = []
            if got["status"] != "PASS":
                bad.append("status")
            bad += [side for side in ("kH", "kG")
                    if got[side + "_dim"] != got["genus"]]
        if bad:
            failed += 1
            reasons.append(f"job {k}: {', '.join(bad)} differ")
    return jobs, failed, reasons

