"""Command-line front end: experiments in, plot-ready CSV out.

Subcommands: simulate, sweep, memcap, sample-size, gen-data. simulate writes
slots_<policy>.csv and summary_<policy>.txt for every policy, and
predictors_<policy>.csv for every policy that reads predictions. gen-data
writes content.csv, the requests that simulate realizes for the same config
and seed, and mobility.csv, the users' positions per slot. All outputs
are deterministic given (config, seed) and the BLAS thread count. With large
reservoirs, such as the parameter-table default N_w = 1000, multi-threaded
BLAS may round the content bank's per-slot matrix products (the input term
and the readouts) differently from one thread, so reservoir states and the
content readout that all users share may differ in their last bits. At the
defaults (seed 0, T = 60, 2-CPU host) E_bar and every CSV came out
byte-identical under one and two threads, but nothing guarantees that. Run
with OPENBLAS_NUM_THREADS=1 (OMP_NUM_THREADS=1 or MKL_NUM_THREADS=1 for other
BLAS builds) to replay a run bit for bit on any host. Exit codes: 0
success, 2 config error, 3 infeasible instance (oracle guard).
"""
import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from .cache import estimate_popularity, hoeffding_sample_size
from .config import ExperimentConfig
from .data import write_content_trace, write_mobility_trace
from .errors import (ConfigurationError, CranCacheError, InstanceTooLargeError,
                     UnsupportedFamilyError)
from .esn import (MobilityEsn, empirical_memory_capacity, memory_capacity,
                  memory_capacity_bounds, min_trace_len)
from .seeding import rng_for
from .sim import (POLICY_ORACLE, build_mobility_bank, build_world, check_oracle_guard,
                  run_episode)

log = logging.getLogger("crancache")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3

EPISODE_AXES = ("C_c", "R", "U")
SWEEP_AXES = EPISODE_AXES + ("epsilon", "delta", "W", "N_tr")
COVERAGE_TRIALS = 200         # sampler estimates per point and rep of an epsilon/delta sweep
COVERAGE_POPULATION = 4000    # items of the 0/1 population those estimates sample
MOBILITY_TRACE = 600          # sampled positions that drive a W/N_tr sweep's reservoir


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


def _runnable_policies(cfg):
    """The config's policies; an oracle too large to search is skipped under
    "all" and refused (InstanceTooLargeError, exit 3) when named."""
    policies = cfg.policies()
    if POLICY_ORACLE in policies:  # only the oracle is size-gated
        try:
            check_oracle_guard(cfg["N"], cfg["C_c"], cfg["C_r"], cfg["R"])
        except InstanceTooLargeError as exc:
            if cfg["policy"].strip() != "all":
                raise
            log.info("skipping oracle: %s", exc)
            policies.remove(POLICY_ORACLE)
    return policies


def cmd_simulate(args):
    cfg = _load_config(args)
    seed = cfg["seed"]
    policies = _runnable_policies(cfg)  # refused before any policy runs
    out = _out_dir(args)
    summary_lines = []
    for policy in policies:
        report = run_episode(cfg, policy, seed)
        (out / f"slots_{policy}.csv").write_text(report.slot_csv())
        (out / f"summary_{policy}.txt").write_text(report.summary_text())
        predictors = report.predictor_csv()
        if predictors is not None:
            (out / f"predictors_{policy}.csv").write_text(predictors)
        summary_lines.append(f"{policy}: E_bar = {report.effective_capacity_avg:.10g}")
    print("\n".join(summary_lines))
    return EXIT_OK


def _sweep_episode_rows(cfg, reps, policies):
    rows = []
    for rep in range(reps):
        seed = cfg["seed"] + rep
        for policy in policies:
            report = run_episode(cfg, policy, seed)
            rows.append((policy, seed, "E_bar", report.effective_capacity_avg))
            rows.append((policy, seed, "hit_O", report.slot_mean("hit_local")))
    return rows


def _sweep_coverage_rows(cfg, reps):
    """Hoeffding coverage counts: failure rate and mean error per point.

    Each trial estimates the mean of a 0/1 population with the cloud
    refresh's sampler, `estimate_popularity`, at unit weights. A plan that
    covers the population scans it fully, with one notice per point and no
    draw.
    """
    plan = cfg.plan()
    draw_plan = plan if plan.sample_size < COVERAGE_POPULATION else None
    if draw_plan is None:
        log.info("sample size %d covers the population of %d; scanning fully",
                 plan.sample_size, COVERAGE_POPULATION)
    rows = []
    for rep in range(reps):
        seed = cfg["seed"] + rep
        rng = rng_for(seed, "sampling", 0)
        values = (rng_for(seed, "workload", 1).random(COVERAGE_POPULATION) < 0.5).astype(float)
        truth = values.mean()
        failures = 0
        errors = np.empty(COVERAGE_TRIALS)
        for t in range(COVERAGE_TRIALS):
            [est] = estimate_popularity(values[:, None], np.ones_like(values), draw_plan, rng)
            errors[t] = abs(est - truth)
            failures += errors[t] > plan.epsilon
        rows.append(("sampling", seed, "failure_rate", failures / COVERAGE_TRIALS))
        rows.append(("sampling", seed, "mean_abs_error", float(errors.mean())))
    rows.append(("sampling", cfg["seed"], "sample_size", plan.sample_size))
    return rows


def _sweep_mobility_rows(cfg, reps):
    """Held-out mobility-readout accuracy and memory capacity per reservoir/window size.

    The predictor is user 0's mobility bank in `simulate`, driven by its
    positions at every H-th slot of its waypoint tour and fitted once on the
    latest N_tr training pairs.
    """
    rows = []
    for rep in range(reps):
        seed = cfg["seed"] + rep
        bank = build_mobility_bank(cfg, 1, seed)
        _, schedules = build_world(cfg, seed)
        positions = schedules[0].positions((MOBILITY_TRACE + cfg["N_s"]) * cfg["H"])[::cfg["H"]]
        bank.observe(positions[:MOBILITY_TRACE, None])
        bank.retrain(cfg["N_tr"])
        if bank.readouts is None:  # N_s >= MOBILITY_TRACE
            raise ConfigurationError(f"N_s = {cfg['N_s']} leaves no training pair")
        # scored on the codes after the driven trace, which no training pair saw
        preds = bank.readouts[0] @ bank.state[0]
        truth = bank.grid.encode(*positions[MOBILITY_TRACE:].T)
        rmse = float(np.sqrt(np.mean((preds - truth) ** 2)))
        rows.append(("mobility", seed, "prediction_rmse", rmse))
    rows.append(("mobility", cfg["seed"], "memory_capacity",
                 memory_capacity(cfg.weight_spec(), cfg["W"])))
    return rows


def cmd_sweep(args):
    if args.reps < 1:
        raise ConfigurationError(f"--reps must be >= 1 (got {args.reps})")
    base = _load_config(args)
    points = []  # every point is built and checked before any of them runs
    for raw in args.values:
        cfg = ExperimentConfig(dict(base.values))
        cfg.set(args.axis, raw)
        cfg.validate()
        points.append((cfg, _runnable_policies(cfg) if args.axis in EPISODE_AXES else None))
    out = _out_dir(args)
    lines = ["axis,sweep_value,policy,seed,metric,metric_value"]
    for cfg, policies in points:
        if policies is not None:
            rows = _sweep_episode_rows(cfg, args.reps, policies)
        elif args.axis in ("epsilon", "delta"):
            rows = _sweep_coverage_rows(cfg, args.reps)
        else:
            rows = _sweep_mobility_rows(cfg, args.reps)
        lines += [f"{args.axis},{cfg[args.axis]},{policy},{seed},{metric},{metric_value:.10g}"
                  for policy, seed, metric, metric_value in rows]
    path = out / "sweep.csv"
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path} ({len(lines) - 1} rows)")
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
    """memcap.csv for the config's weight family; --dist, --a, --lo and --hi,
    where given, override w_dist, w_a, w_lo and w_hi."""
    cfg = _load_config(args)
    for key, flag in (("w_dist", args.dist), ("w_a", args.a), ("w_lo", args.lo),
                      ("w_hi", args.hi)):
        if flag is not None:
            cfg.set(key, flag)
    spec = cfg.weight_spec()
    w_values = _parse_w_range(args.W_range)
    needed = min_trace_len(max(w_values))
    if args.trace_len < needed:
        raise ConfigurationError(f"--trace-len {args.trace_len} is too short for "
                                 f"W = {max(w_values)} (needs >= {needed})")
    seed = cfg["seed"]
    out = _out_dir(args)
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
    workload, schedules = build_world(cfg, seed)
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

    memcap = sub.add_parser(
        "memcap", help="analytic vs empirical memory capacity",
        description="Write memcap.csv: W,analytic,bound_lo,bound_hi,empirical. The analytic "
                    "value and the bounds are ensemble values over the weight family. "
                    "empirical measures the one reservoir built from the seed, so symbinary "
                    "and uniform rows can read above bound_hi (symbinary, W = 15: 14.15 "
                    "against 8).")
    memcap.add_argument("--dist", choices=("pointmass", "symbinary", "uniform"),
                        help="weight family (default: the config's w_dist)")
    memcap.add_argument("--a", type=float, help="pointmass/symbinary magnitude (w_a)")
    memcap.add_argument("--lo", type=float, help="uniform support low end (w_lo)")
    memcap.add_argument("--hi", type=float, help="uniform support high end (w_hi)")
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
