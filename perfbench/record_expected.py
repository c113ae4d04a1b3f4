"""Record the outputs of every workload's seed-0 command in expected.json.

    python3 perfbench/record_expected.py

The benchmark counts a seed-0 job as failed when its genus, kH or kG
decomposition or verification status differs from the recorded one.
"""

import json
import time

import run
import workloads


def main():
    run.OUT.mkdir(exist_ok=True)
    batch_path = run.OUT / "jobs.jsonl"
    expected = {}
    for name in sorted(workloads.COMMANDS):
        inputs = workloads.make_inputs(name, 0, str(batch_path))
        if inputs.batch_text is not None:
            batch_path.write_text(inputs.batch_text)
        done = run.launch(["-m", "a4diff.cli"] + inputs.argv,
                          time.monotonic() + 600, "record")
        if done.code != 0:
            raise SystemExit(f"{name}: exit code {done.code}")
        expected[name] = [workloads.job_summary(json.loads(line))
                          for line in done.stdout.splitlines()]
    with open(run.BENCH / "expected.json", "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
