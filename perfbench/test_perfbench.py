"""Tests of the benchmark itself: the layer wrappers, the output checks and
the metric names.  They use small inputs, so they take a few seconds.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import layertrace
import metrics
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
with open(ROOT / "BENCHMARK.json") as _fh:
    SPEC = json.load(_fh)
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

SMALL = {
    "analyze": ["analyze", "--alpha", workloads.ALPHA_S5, "--json"],
    "hkg_small": ["examples", "--which", "1", "--n", "1", "--verify",
                   "--json"],
    "batch": ["verify", "--batch", None],
}
SMALL_BATCH = "".join(workloads.batch_line(8, psi) + "\n"
                      for psi in (2, 3))
# layers that each small case runs; every per-layer metric of these layers
# must then read above 0
SMALL_LAYERS = {
    "analyze": {"gf", "ratlaurent", "artin_schreier", "ramification",
                "decomp", "cli"},
    "hkg_small": set(layertrace.LAYERS.values()),
    "batch": set(layertrace.LAYERS.values()),
}


def _python(args, cwd):
    return subprocess.run([sys.executable] + args, cwd=cwd, env=ENV,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("case", sorted(SMALL))
def test_wrapping_the_layers_keeps_reports_byte_identical(case, tmp_path):
    argv = list(SMALL[case])
    if argv[-1] is None:
        (tmp_path / "jobs.jsonl").write_text(SMALL_BATCH)
        argv[-1] = str(tmp_path / "jobs.jsonl")
    plain = _python(["-m", "a4diff.cli"] + argv, tmp_path)
    spans = tmp_path / "spans.jsonl"
    traced = _python([str(BENCH / "layertrace.py"), str(spans), "job-1"]
                     + argv, tmp_path)
    assert plain.returncode == traced.returncode == 0
    assert plain.stdout and traced.stdout == plain.stdout

    records = layertrace.read_records(spans)
    assert {r["job"] for r in records} == {"job-1"}
    assert not list(tmp_path.glob("spans.jsonl.*.part"))
    ids = {r["id"] for r in records if "id" in r}
    assert all(r["parent"] is None or r["parent"] in ids
               for r in records if "id" in r)
    pids = {r["pid"] for r in records}
    assert (len(pids) > 1) == (case == "batch")
    summary = layertrace.summarize(records, 1.0)
    for name in PER_LAYER:
        if name != "trace_overhead_frac":
            assert summary[name] >= 0, name
            if name.split(".")[0] in SMALL_LAYERS[case]:
                assert summary[name] > 0, name


def test_a_missing_traced_callable_stops_the_traced_run(tmp_path):
    script = ("import importlib, layertrace\n"
              "for mod in layertrace.LAYERS:\n"
              "    importlib.import_module(mod)\n"
              "del importlib.import_module('a4diff.gf')._pmulmod\n"
              "layertrace.Tracer('spans.jsonl', 'j').install()\n")
    env = dict(ENV, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                str(BENCH)]))
    run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                         env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode != 0
    assert "gf._pmulmod" in run.stderr


def test_self_time_counts_parallel_children_once():
    def span(sid, parent, name, start, end, pid=1):
        return {"job": "j", "pid": pid, "id": sid, "parent": parent,
                "name": name, "start": start, "end": end}
    records = [
        span("1-0", None, "cli.run_cli", 0.0, 10.0),
        span("1-1", "1-0", "oracle.decompose_rep", 1.0, 3.0),
        span("2-0", "1-0", "cli.run_job", 2.0, 9.0, pid=2),
        span("3-0", "1-0", "cli.run_job", 4.0, 8.0, pid=3),
    ]
    out = layertrace.summarize(records, 10.0)
    # run_cli is covered on [1, 9]; the two run_job spans fully by nothing
    assert out["cli.self_s"] == pytest.approx(2.0 + 7.0 + 4.0)
    assert out["oracle.self_s"] == pytest.approx(2.0)
    assert out["cli.batch_busy_frac"] == pytest.approx(11.0 / 20.0)


def _small_inputs(tmp_path):
    argv = SMALL["hkg_small"]
    run = _python(["-m", "a4diff.cli"] + argv, tmp_path)
    assert run.returncode == 0
    inputs = workloads.Inputs("hkg_verify", 0, argv, None, True)
    return inputs, run.stdout


def test_a_corrupted_expected_decomposition_counts_as_failure(tmp_path):
    inputs, stdout = _small_inputs(tmp_path)
    expected = [workloads.job_summary(json.loads(stdout))]
    assert workloads.check_output(inputs, 0, stdout, expected)[:2] == (1, 0)

    corrupt = json.loads(json.dumps(expected))
    corrupt[0]["kG"][0]["mult"] += 1
    jobs, failed, reasons = workloads.check_output(inputs, 0, stdout,
                                                   corrupt)
    assert (jobs, failed) == (1, 1) and "kG" in reasons[0]

    assert workloads.check_output(inputs, 3, stdout, expected)[:2] == (1, 1)
    report = json.loads(stdout)
    report["verification"]["status"] = "FAIL"
    assert workloads.check_output(inputs, 0, json.dumps(report),
                                  None)[:2] == (1, 1)


def test_metric_names_are_well_formed_and_mapped():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m["unit"]
    assert sorted(w["name"] for w in SPEC["workloads"]) == \
        sorted(workloads.COMMANDS)
    assert list(metrics.SHOULD_MOVE) == PER_LAYER


def test_seed_zero_reproduces_the_documented_inputs():
    inputs = workloads.make_inputs("tube_batch", 0, "jobs.jsonl")
    psis = [json.loads(line)["options"]["example"]["psi"]
            for line in inputs.batch_text.splitlines()]
    assert psis == [9, 15, 2, 19]
    assert workloads.make_inputs("large_field", 0, "x").argv == [
        "verify", "--m", "20", "--alpha", workloads.ALPHA_S5, "--json"]
