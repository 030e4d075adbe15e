"""Record the benchmark's end-to-end metrics and one tier-1 run in a JSON file.

Run from anywhere, with the file to write as its only argument:

    python3 tools/bench_record.py BENCH_1.json

For each workload (desk, default, memcap) and each seed 0-9 it runs, one at
a time in the checkout that holds this script,

    python3 perfbench/run.py --workload W --seed S --seconds 20 --trace 0

and parses the run's `record` line, its `stats` line and its final JSON
line. Then it times one tier-1 run (the command in ROADMAP.md) and counts
its passed and failed tests. The file holds, per workload:

- the median and quartiles of each end-to-end metric, with every run's value;
- per seed, the `stats` entries of the operations on the seed's first input,
  1000 * seed by the run record's input-seed rule (`E_bar` and the SHA-256
  of the slot CSV per policy, or the SHA-256 of memcap.csv). A run's later
  operations depend on how many fit in its 20 seconds, so only these are
  comparable between two files;
- the count of runs whose outputs checked correct, and the run record of
  seed 0;

and the tier-1 wall seconds with its counts. Compare two such files run on
the same host, one run after the other.
"""
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("desk", "default", "memcap")
SEEDS = range(10)
SECONDS = 20
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def bench_run(workload, seed):
    """(record, stats, result) of one perfbench run, each parsed from its JSON."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(SECONDS), "--trace", "0"]
    lines = subprocess.run(command, cwd=ROOT, check=True, capture_output=True,
                           text=True).stdout.splitlines()
    tagged = {line.split(" ", 1)[0]: line.split(" ", 1)[1] for line in lines
              if line.startswith(("record ", "stats "))}
    return json.loads(tagged["record"]), json.loads(tagged["stats"]), json.loads(lines[-1])


def spread(values):
    """Median and quartiles of `values`, with the values in run order."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def first_input(stats, seed):
    """The `stats` entries of the operations on input seed 1000 * seed; their
    keys are the input seed, or the policy and the input seed."""
    return {key: value for key, value in stats.items()
            if key.rsplit("/", 1)[-1] == str(1000 * seed)}


def record_workload(workload):
    runs = {seed: bench_run(workload, seed) for seed in SEEDS}
    results = [result for _, _, result in runs.values()]
    units = {name: metric["unit"] for name, metric in results[0]["metrics"].items()}
    return {
        "runs": len(runs),
        "correct_runs": sum(result["correct"] for result in results),
        "failed_ops": sum(result["failed"] for result in results),
        "attempted_ops": sum(result["attempted"] for result in results),
        "metrics": {name: {"unit": unit,
                           **spread([result["metrics"][name]["value"] for result in results])}
                    for name, unit in units.items()},
        "first_input_stats": {str(seed): first_input(stats, seed)
                              for seed, (_, stats, _) in runs.items()},
        "record": runs[SEEDS[0]][0],
    }


def tier1():
    """Wall seconds, exit status and test counts of one tier-1 run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    start = time.perf_counter()
    done = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    summary = done.stdout.splitlines()[-1] if done.stdout else ""
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|error)", summary)}
    return {"command": " ".join(["python"] + TIER1[1:]), "seconds": seconds,
            "exit_code": done.returncode, "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0), "errors": counts.get("error", 0),
            "summary": summary}


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: bench_record.py OUT")
    report = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} "
                   f"--trace 0",
        "seeds": list(SEEDS),
        "workloads": {workload: record_workload(workload) for workload in WORKLOADS},
        "tier1": tier1(),
    }
    Path(argv[0]).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
