"""Benchmark of the crancache simulator; run from the repository root:

    python3 perfbench/run.py --workload desk --seed 0 --seconds 10 --trace 0

Workloads, metrics and bounds are listed in BENCHMARK.json; bench.py defines
them. `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
ones from a traced pass (see tracing.py). The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. Earlier
lines give the run record, per-operation digests of the simulated outputs,
failures by exception type, and every metric with its unit.

The package is imported from src/ of the checkout; without it the run exits
with status 2 and prints no result. BLAS runs on a fixed number of threads.
"""
import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="crancache benchmark")
    parser.add_argument("--workload", required=True, choices=("desk", "default", "memcap"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return args


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "crancache" / "__init__.py").is_file():
        print(f"perfbench: no crancache package under {src}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:  # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import numpy
    import crancache
    import bench

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "held_out_seed": bench.HELD_OUT_SEED,
        "input_seeds": "episode or memcap call j: 1000 * seed + j",
        "python": platform.python_version(), "numpy": numpy.__version__,
        "kernel_backend": crancache.kernel_backend, "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS, "client": "closed loop, 1 client",
    }
    print("record " + json.dumps(record, sort_keys=True))
    result = bench.measure(args.workload, args.seed, args.seconds, args.trace, benchmark)
    tally = result.tally
    print("stats " + json.dumps(tally.stats, sort_keys=True))
    for note in result.notes:
        print("note " + note)
    errors = ", ".join(f"{k}: {v}" for k, v in sorted(tally.errors.items())) or "none"
    print(f"failed_frac = {tally.failed_frac:.6g} ({tally.failed} of {tally.attempted}; {errors})")
    rate = "memcap_points_per_s" if args.workload == "memcap" else "slots_per_s"
    print(f"{rate} = {tally.units / tally.charged_s:.6g} 1/s (units completed per charged second)")
    for name, metric in result.metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": result.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": result.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
