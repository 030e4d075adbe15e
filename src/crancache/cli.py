"""Command-line front end: experiments in, plot-ready CSV out.

Subcommands: simulate, sweep, memcap, sample-size, gen-data. simulate writes
slots_<policy>.csv and summary_<policy>.txt for every policy, and
predictors_<policy>.csv for every policy that reads predictions. gen-data
writes content.csv, the requests that simulate realizes for the same config
and seed, and mobility.csv, the users' positions per slot. All outputs
are deterministic given (config, seed) and the BLAS thread count. With large
reservoirs, such as the parameter-table default N_w = 1000, multi-threaded
BLAS rounds the content reservoir's eigenvalue solve and its per-slot matrix
product differently from one thread, so reservoir states and readouts differ
in their last bits. At the defaults (seed 0, T = 60, 2-CPU host) E_bar and
every CSV still came out byte-identical under one and two threads, but
nothing guarantees that. Run with OPENBLAS_NUM_THREADS=1 (OMP_NUM_THREADS=1
or MKL_NUM_THREADS=1 for other BLAS builds) to replay a run bit for bit on
any host. Exit codes: 0 success, 2 config error, 3 infeasible instance
(oracle guard).
"""
import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from .cache import SamplingPlan, hoeffding_sample_size
from .config import ExperimentConfig
from .data import (generate_mobility, generate_workload, write_content_trace,
                   write_mobility_trace)
from .errors import (ConfigurationError, CranCacheError, InstanceTooLargeError,
                     UnsupportedFamilyError)
from .esn import (MobilityEsn, WeightDistribution, empirical_memory_capacity, memory_capacity,
                  memory_capacity_bounds, min_trace_len, readout_windows)
from .seeding import rng_for
from .sim import (POLICY_ORACLE, check_oracle_guard, run_episode)

log = logging.getLogger("crancache")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3

SWEEP_AXES = ("C_c", "R", "U", "epsilon", "delta", "W", "N_tr")


def _load_config(args):
    cfg = ExperimentConfig.load(args.config) if args.config else ExperimentConfig.default()
    if args.seed is not None:
        cfg.set("seed", args.seed)
    cfg.apply_overrides(args.override or [])
    return cfg


def _out_dir(args):
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args):
    cfg = _load_config(args)
    out = _out_dir(args)
    seed = cfg["seed"]
    policies = cfg.policies()
    explicit_oracle = POLICY_ORACLE in [p.strip() for p in cfg["policy"].split(",")]
    summary_lines = []
    for policy in policies:
        if policy == POLICY_ORACLE:
            try:
                check_oracle_guard(cfg["N"], cfg["C_c"], cfg["C_r"], cfg["R"])
            except InstanceTooLargeError as exc:
                if explicit_oracle:
                    raise
                log.info("skipping oracle: %s", exc)
                continue
        report = run_episode(cfg, policy, seed)
        (out / f"slots_{policy}.csv").write_text(report.slot_csv())
        (out / f"summary_{policy}.txt").write_text(report.summary_text())
        predictors = report.predictor_csv()
        if predictors is not None:
            (out / f"predictors_{policy}.csv").write_text(predictors)
        summary_lines.append(f"{policy}: E_bar = {report.effective_capacity_avg:.10g}")
    print("\n".join(summary_lines))
    return EXIT_OK


def _sweep_episode_rows(cfg, axis, value, reps):
    rows = []
    for rep in range(reps):
        seed = cfg["seed"] + rep
        for policy in cfg.policies():
            if policy == POLICY_ORACLE:
                try:
                    check_oracle_guard(cfg["N"], cfg["C_c"], cfg["C_r"], cfg["R"])
                except InstanceTooLargeError:
                    continue
            report = run_episode(cfg, policy, seed)
            rows.append((axis, value, policy, seed, "E_bar",
                         report.effective_capacity_avg))
            n = max(len(report.slots), 1)
            rows.append((axis, value, policy, seed, "hit_O",
                         sum(m.hit_local for m in report.slots) / n))
    return rows


def _sweep_coverage_rows(cfg, axis, value, reps, trials=200, population=4000):
    """Hoeffding coverage counts: failure rate and mean error per point."""
    plan = SamplingPlan(epsilon=cfg["epsilon"], delta=cfg["delta"])
    rows = []
    for rep in range(reps):
        rng = rng_for(cfg["seed"] + rep, "sampling", 0)
        truth_rng = rng_for(cfg["seed"] + rep, "workload", 1)
        values = (truth_rng.random(population) < 0.5).astype(float)
        truth = values.mean()
        failures = 0
        errors = np.empty(trials)
        for t in range(trials):
            take = min(plan.sample_size, population)
            idx = rng.choice(population, size=take, replace=False)
            est = values[idx].mean()
            errors[t] = abs(est - truth)
            failures += errors[t] > plan.epsilon
        rows.append((axis, value, "sampling", cfg["seed"] + rep,
                     "failure_rate", failures / trials))
        rows.append((axis, value, "sampling", cfg["seed"] + rep,
                     "mean_abs_error", float(errors.mean())))
    rows.append((axis, value, "sampling", cfg["seed"], "sample_size",
                 plan.sample_size))
    return rows


def _sweep_mobility_rows(cfg, axis, value, reps, trace=600):
    """Mobility-readout accuracy and memory capacity per reservoir/window size."""
    rows = []
    spec = cfg.weight_spec()
    for rep in range(reps):
        seed = cfg["seed"] + rep
        esn = MobilityEsn(cfg["W"], spec, cfg["N_s"], ridge_lambda=cfg["lambda"],
                          seed=rng_for(seed, "mobility_esn", 0))
        rng = rng_for(seed, "mobility", 1)
        period = min(cfg["W"], 8)
        pattern = rng.integers(0, 400, size=period).astype(float)
        codes = np.resize(pattern, trace + cfg["N_s"])  # the pattern repeated
        states = esn.drive(codes[:trace])
        esn.train(*readout_windows(states, codes, cfg["N_s"], cfg["N_tr"]))
        # scored on the codes after the driven trace, which no training pair saw
        preds = esn.output_weights @ states[trace - 1]
        truth = codes[trace:trace + cfg["N_s"]]
        rmse = float(np.sqrt(np.mean((preds - truth) ** 2)))
        rows.append((axis, value, "mobility", seed, "prediction_rmse", rmse))
    rows.append((axis, value, "mobility", cfg["seed"], "memory_capacity",
                 memory_capacity(spec, cfg["W"])))
    return rows


def cmd_sweep(args):
    if args.axis not in SWEEP_AXES:
        raise ConfigurationError(f"axis must be one of {SWEEP_AXES}")
    base = _load_config(args)
    out = _out_dir(args)
    rows = []
    for raw in args.values:
        cfg = ExperimentConfig(dict(base.values))
        cfg.set(args.axis, raw)
        cfg.validate()
        value = cfg[args.axis]
        if args.axis in ("epsilon", "delta"):
            rows.extend(_sweep_coverage_rows(cfg, args.axis, value, args.reps))
        elif args.axis in ("W", "N_tr"):
            rows.extend(_sweep_mobility_rows(cfg, args.axis, value, args.reps))
        else:
            rows.extend(_sweep_episode_rows(cfg, args.axis, value, args.reps))
    lines = ["axis,sweep_value,policy,seed,metric,metric_value"]
    for axis, value, policy, seed, metric, metric_value in rows:
        lines.append(f"{axis},{value},{policy},{seed},{metric},{metric_value:.10g}")
    path = out / "sweep.csv"
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


def _parse_w_range(text):
    """W values of LO:HI (inclusive) or a comma list; at least one, each >= 1."""
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigurationError(f"--W-range {text!r}: {exc}") from exc
    if not values:
        raise ConfigurationError(f"--W-range {text!r} names no reservoir size")
    if min(values) < 1:
        raise ConfigurationError(f"--W-range {text!r}: reservoir sizes must be >= 1")
    return values


def cmd_memcap(args):
    if args.dist == "uniform":
        spec = WeightDistribution("uniform", lo=args.lo, hi=args.hi)
    else:
        spec = WeightDistribution(args.dist, a=args.a)
    w_values = _parse_w_range(args.W_range)
    needed = min_trace_len(max(w_values))
    if args.trace_len < needed:
        raise ConfigurationError(f"--trace-len {args.trace_len} is too short for "
                                 f"W = {max(w_values)} (needs >= {needed})")
    out = _out_dir(args)
    seed = args.seed if args.seed is not None else 0
    lines = ["W,analytic,bound_lo,bound_hi,empirical"]
    for W in w_values:
        analytic = memory_capacity(spec, W)
        lo, hi = memory_capacity_bounds(spec, W)
        esn = MobilityEsn(W, spec, max(W - 1, 1), seed=rng_for(seed, "memcap", W))
        measured = empirical_memory_capacity(esn, W, args.trace_len,
                                             rng_for(seed, "memcap", W, 1))
        lines.append(f"{W},{analytic:.10g},{lo:.10g},{hi:.10g},{measured:.10g}")
    path = out / "memcap.csv"
    path.write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK


def cmd_sample_size(args):
    print(hoeffding_sample_size(args.epsilon, args.delta))
    return EXIT_OK


def cmd_gen_data(args):
    cfg = _load_config(args)
    out = _out_dir(args)
    seed = cfg["seed"]
    workload = generate_workload(cfg["U"], cfg["N"], cfg["zipf_alpha"],
                                 cfg["archetypes"], seed)
    schedules = generate_mobility(cfg["U"], cfg["r"], cfg["waypoints"],
                                  cfg["S"], seed)
    write_content_trace(out / "content.csv", workload, cfg["T"], seed)
    write_mobility_trace(out / "mobility.csv", schedules, cfg["T"])
    print(f"wrote {out / 'content.csv'} and {out / 'mobility.csv'}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="crancache",
        description="proactive CRAN caching: simulation, sweeps, and analytics",
    )
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--seed", type=int, help="root seed (overrides config)")
    parser.add_argument("--out-dir", default="out", help="output directory")
    parser.add_argument("--override", action="append", metavar="KEY=VAL",
                        help="config override (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("simulate", help="run the configured policies for T slots")

    sweep = sub.add_parser("sweep", help="run an axis sweep, long-format CSV out")
    sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    sweep.add_argument("--values", nargs="+", required=True)
    sweep.add_argument("--reps", type=int, default=1)

    memcap = sub.add_parser("memcap", help="analytic vs empirical memory capacity")
    memcap.add_argument("--dist", choices=("pointmass", "symbinary", "uniform"),
                        default="pointmass")
    memcap.add_argument("--a", type=float, default=0.9)
    memcap.add_argument("--lo", type=float, default=-0.5)
    memcap.add_argument("--hi", type=float, default=0.5)
    memcap.add_argument("--W-range", default="1:10",
                        help="LO:HI inclusive, or comma list")
    memcap.add_argument("--trace-len", type=int, default=20000)

    size = sub.add_parser("sample-size", help="Hoeffding sample count for (epsilon, delta)")
    size.add_argument("epsilon", type=float)
    size.add_argument("delta", type=float)

    sub.add_parser("gen-data", help="write synthetic content and mobility traces")
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "memcap": cmd_memcap,
    "sample-size": cmd_sample_size,
    "gen-data": cmd_gen_data,
}


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InstanceTooLargeError as exc:
        print(f"infeasible instance: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ConfigurationError, UnsupportedFamilyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CranCacheError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
