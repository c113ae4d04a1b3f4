"""Benchmark of the a4diff command line, end to end and layer by layer.

    python3 perfbench/run.py --workload hkg_verify --seed 0 --seconds 30 --trace 0

Each operation is one fresh ``python -m a4diff.cli`` process with
``PYTHONPATH=src``, run closed-loop one at a time from this process; the
``tube_batch`` command runs its jobs on the CLI's own worker pool.  A run
repeats the workload's command for about ``--seconds`` seconds, checks every
output, and prints as its last line one JSON object with the metrics:

* ``--trace 0``: the end-to-end metrics of BENCHMARK.json, from
  untraced runs, with ``setup_s`` from fresh interpreters that only import
  ``a4diff.cli``, one before each command;
* ``--trace 1``: its per-layer metrics, from runs of perfbench/layertrace.py
  that wrap every layer, each paired with an untraced run for the tracing
  overhead.  The spans go to perfbench/out/ as JSON lines.

Failed or wrong jobs are counted in ``failed`` of ``attempted``; this is
the ``failed_frac`` of the workload.  ``--out FILE`` appends the whole
result, stamped with the commit and versions, as one JSON line.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layertrace
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
ENV = dict(os.environ, PYTHONPATH=str(SRC))
IMPORT = ["-c", "import a4diff.cli"]
with open(ROOT / "BENCHMARK.json") as _fh:
    SPEC = json.load(_fh)
UNITS = {m["name"]: m["unit"]
         for m in SPEC["end_to_end"] + SPEC["per_layer"]}
DEADLINE_S = 170    # a run must end within 180 s; a stuck job is killed


class Run:
    """Wall time, peak RSS, exit code and stdout of one finished command."""

    def __init__(self, wall_s, peak_rss_mb, code, stdout):
        self.wall_s = wall_s
        self.peak_rss_mb = peak_rss_mb
        self.code = code
        self.stdout = stdout


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def launch(args, deadline, tag):
    """Run one Python command to its end; RSS covers its waited-for pool."""
    stdout_path = OUT / f"{tag}.stdout"
    with open(stdout_path, "w") as out, \
            open(OUT / f"{tag}.stderr", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + args, stdout=out,
                                stderr=err, env=ENV, cwd=ROOT,
                                start_new_session=True)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0),
                                _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB
    return Run(wall_s, usage.ru_maxrss * 1024 / 1e6, proc.returncode,
               stdout_path.read_text())


def stamp(seed):
    """Commit, machine and versions that a result was measured with."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, env=dict(os.environ,
                                GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "seed": seed}


def load_expected(inputs):
    if not inputs.pinned:
        return None
    with open(BENCH / "expected.json") as fh:
        return json.load(fh)[inputs.workload]


class Tally:
    """Jobs attempted and failed, with the reason for each failure."""

    def __init__(self, inputs, expected):
        self.inputs = inputs
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, run, what, same_as=None):
        """Count the jobs of one command; a traced command must also print
        the same bytes as its untraced twin, same_as."""
        jobs, failed, reasons = workloads.check_output(
            self.inputs, run.code, run.stdout, self.expected)
        if same_as is not None and run.stdout != same_as and not failed:
            failed, reasons = jobs, ["stdout differs from the untraced run"]
        self.attempted += jobs
        self.failed += failed
        self.reasons += [f"{what}: {r}" for r in reasons]


def untraced_loop(inputs, tally, seconds, deadline):
    """Repeat the command while another one still fits in the window.

    Before each command, time a fresh interpreter that imports a4diff.cli
    and exits; spread over the run, these sample the same machine state.
    """
    runs, setups, steps = [], [], []
    window_end = time.monotonic() + seconds
    while True:
        start = time.monotonic()
        setups.append(launch(IMPORT, deadline, "setup").wall_s)
        run = launch(["-m", "a4diff.cli"] + inputs.argv, deadline, "job")
        tally.check(run, f"run {len(runs)}")
        runs.append(run)
        steps.append(time.monotonic() - start)
        if time.monotonic() + statistics.median(steps) > window_end:
            return runs, setups


def traced_loop(inputs, tally, seconds, deadline):
    """Pairs of one untraced and one traced run, and the traced summaries."""
    plain, traced, layers = [], [], []
    window_end = time.monotonic() + seconds
    while True:
        k = len(traced)
        run = launch(["-m", "a4diff.cli"] + inputs.argv, deadline, "job")
        tally.check(run, f"untraced run {k}")
        plain.append(run)
        job_id = f"{inputs.workload}-s{inputs.seed}-t{k}"
        spans = OUT / f"spans-{job_id}.jsonl"
        spans.unlink(missing_ok=True)
        trun = launch([str(BENCH / "layertrace.py"), str(spans), job_id]
                      + inputs.argv, deadline, "traced")
        tally.check(trun, f"traced run {k}", same_as=run.stdout)
        traced.append(trun)
        if spans.exists():
            layers.append(layertrace.summarize(
                layertrace.read_records(spans), trun.wall_s))
        typical = statistics.median(p.wall_s + t.wall_s
                                    for p, t in zip(plain, traced))
        if time.monotonic() + typical > window_end:
            return plain, traced, layers


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.COMMANDS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the stamped result here")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "a4diff" / "cli.py").is_file():
        print(f"a4diff sources not found under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if launch(IMPORT, deadline, "setup").code != 0:
        print("a4diff.cli does not import", file=sys.stderr)
        return 2

    cli = None
    if args.workload == "tube_batch" and args.seed != 0:
        sys.path.insert(0, str(SRC))
        import a4diff.cli as cli
    batch_path = OUT / "jobs.jsonl"
    inputs = workloads.make_inputs(args.workload, args.seed,
                                   str(batch_path.relative_to(ROOT)), cli)
    if inputs.batch_text is not None:
        batch_path.write_text(inputs.batch_text)
    tally = Tally(inputs, load_expected(inputs))

    if args.trace == 0:
        runs, setups = untraced_loop(inputs, tally, args.seconds, deadline)
        samples = {"wall_s": [r.wall_s for r in runs],
                   "peak_rss_mb": [r.peak_rss_mb for r in runs],
                   "setup_s": setups}
        values = {name: statistics.median(v) for name, v in samples.items()}
        names = [m["name"] for m in SPEC["end_to_end"]]
    else:
        plain, traced, layers = traced_loop(inputs, tally, args.seconds,
                                            deadline)
        names = [m["name"] for m in SPEC["per_layer"]]
        # no spans means the traced runs failed, which tally counts
        layers = layers or [dict.fromkeys(names, 0.0)]
        # median_low keeps a count a whole number when two runs are traced
        values = {name: statistics.median_low(s[name] for s in layers)
                  for name in names if name != "trace_overhead_frac"}
        values["trace_overhead_frac"] = (
            statistics.median(t.wall_s for t in traced)
            / statistics.median(p.wall_s for p in plain) - 1)
        samples = {"untraced_wall_s": [p.wall_s for p in plain],
                   "traced_wall_s": [t.wall_s for t in traced]}

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name],
                           "unit": UNITS[name]} for name in names},
    }
    info = stamp(args.seed)
    print("stamp " + json.dumps(info, sort_keys=True))
    print("inputs " + json.dumps(inputs.to_json(), sort_keys=True))
    for reason in tally.reasons:
        print("FAILED " + reason)
    print(f"failed_frac {tally.failed / tally.attempted:.4f} "
          f"({tally.failed} of {tally.attempted} jobs)")
    for name in names:
        print(f"{name} {values[name]:.6g} {UNITS[name]}")
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({
                "stamp": info, "workload": args.workload,
                "trace": args.trace, "inputs": inputs.to_json(),
                "failed_frac": tally.failed / tally.attempted,
                "samples": samples, "result": result,
            }, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
