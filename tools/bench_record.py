"""Record the benchmark's end-to-end metrics and one tier-1 run in a JSON file.

Run from anywhere, with the file to write as its first argument:

    python3 tools/bench_record.py BENCH_1.json
    python3 tools/bench_record.py BENCH_4.json --base HEAD~1

Single-tree mode (no --base): for each workload (desk, default, memcap) and
each seed 0-9 it runs, one at a time in the checkout that holds this script,

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

and the tier-1 wall seconds with its counts.

Paired mode (--base REV): `git archive` exports REV into a temporary
directory, the base tree; the checkout that holds this script is the change
tree. For each workload and seed the two trees' own `perfbench/run.py` run
back to back, the base first on even seeds and the change first on odd ones,
so that both sides see the same stretch of host load. Per workload the file
holds each side's entry as above, and the pairs: per end-to-end metric the
change/base ratio of each seed with their median and quartiles, and the
number of seeds on which the change was better (in the direction
BENCHMARK.json gives), and per seed whether the two sides' first-input
`stats` are equal. It ends with one tier-1 run per tree. A whole paired
recording takes about 22 minutes on a 2-CPU host.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("desk", "default", "memcap")
SEEDS = range(10)
SECONDS = 20
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def bench_run(tree, workload, seed):
    """(record, stats, result) of one perfbench run in `tree`, each parsed from its JSON."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(SECONDS), "--trace", "0"]
    lines = subprocess.run(command, cwd=tree, check=True, capture_output=True,
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


def summarize(runs):
    """One tree's entry for a workload from its runs, {seed: (record, stats, result)}."""
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
        "record": runs[min(runs)][0],
    }


def pair(base_runs, change_runs, better):
    """The pairs of one workload: per metric the change/base ratio of each seed,
    their spread and the change's win count; per seed whether the first-input
    `stats` are equal. `better` maps each metric to "lower" or "higher"."""
    seeds = sorted(base_runs)
    metrics = {}
    for name, direction in better.items():
        base = [base_runs[seed][2]["metrics"][name]["value"] for seed in seeds]
        change = [change_runs[seed][2]["metrics"][name]["value"] for seed in seeds]
        wins = sum((c < b) if direction == "lower" else (c > b) for b, c in zip(base, change))
        metrics[name] = {"better": direction, "change_wins": wins,
                         **spread([c / b for b, c in zip(base, change)])}
    return {"ratio": "change / base", "metrics": metrics,
            "first_input_stats_equal": {
                str(seed): first_input(base_runs[seed][1], seed)
                == first_input(change_runs[seed][1], seed) for seed in seeds}}


def record_workload(workload):
    return summarize({seed: bench_run(ROOT, workload, seed) for seed in SEEDS})


def record_pairs(workload, base_tree, better):
    base_runs, change_runs = {}, {}
    for seed in SEEDS:
        sides = [(base_tree, base_runs), (ROOT, change_runs)]
        for tree, runs in sides if seed % 2 == 0 else sides[::-1]:
            runs[seed] = bench_run(tree, workload, seed)
    return {"base": summarize(base_runs), "change": summarize(change_runs),
            "pairs": pair(base_runs, change_runs, better)}


def tier1(tree):
    """Wall seconds, exit status and test counts of one tier-1 run in `tree`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    start = time.perf_counter()
    done = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    summary = done.stdout.splitlines()[-1] if done.stdout else ""
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|error)", summary)}
    return {"command": " ".join(["python"] + TIER1[1:]), "seconds": seconds,
            "exit_code": done.returncode, "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0), "errors": counts.get("error", 0),
            "summary": summary}


def git(*args, **kwargs):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          **kwargs).stdout


def paired_report(rev, base_tree):
    """Export `rev` into `base_tree` and record both trees, paired."""
    subprocess.run(["tar", "-x", "-C", str(base_tree)], input=git("archive", rev), check=True)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}
    return {
        "base": {"rev": rev, "commit": git("rev-parse", rev, text=True).strip()},
        "change": {"commit": git("rev-parse", "HEAD", text=True).strip()},
        "order": "base first on even seeds, change first on odd seeds",
        "workloads": {workload: record_pairs(workload, base_tree, better)
                      for workload in WORKLOADS},
        "tier1": {"base": tier1(base_tree), "change": tier1(ROOT)},
    }


def main(argv):
    parser = argparse.ArgumentParser(description="record the benchmark in a JSON file")
    parser.add_argument("out", help="the JSON file to write")
    parser.add_argument("--base", metavar="REV",
                        help="also run REV's tree, paired with this checkout's")
    args = parser.parse_args(argv)
    report = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} "
                   f"--trace 0",
        "seeds": list(SEEDS),
    }
    if args.base:
        with tempfile.TemporaryDirectory(prefix="bench_base_") as base_tree:
            report.update(paired_report(args.base, Path(base_tree)))
    else:
        report["workloads"] = {workload: record_workload(workload) for workload in WORKLOADS}
        report["tier1"] = tier1(ROOT)
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
