"""Workloads, output checks and metrics of the crancache benchmark.

Every workload is a closed loop with one client: the next operation starts
only when the previous one has returned, in this one process and thread.

On `desk` an operation is one episode: `Simulation(cfg, policy, seed)`,
timed as set-up, then `.run()`, cycling through the policies. On `default`
one construction takes longer than a whole run window, so set-up constructs
the episode once and each operation runs `.run()` on a deep copy of it; a
copy replays exactly what a fresh construction would.
On `memcap` an operation is one memory-capacity W value, measured through
`crancache.cli.main(["memcap", ...])`, ten to a call. An operation that
raises or fails an output check is counted as failed, with its exception
type or the check; the loop goes on.

After any set-up, a run starts operations until `seconds` have passed. Its
work unit is a simulated slot (episode workloads) or a measured W value:

- `ms_per_unit`: host milliseconds charged per completed unit. A successful
  episode is charged its `.run()` time. A failed operation is charged its
  whole time, its construction or copy included, and completes no unit.
  When no unit completes, the whole charged time is reported, a lower bound
  on the true cost of a unit.
- `setup_s`: median host seconds of one `Simulation(...)` construction (on
  `default`, its one construction); on memcap, of a cold `import crancache`
  in a fresh interpreter.
- `peak_rss_mb`: peak resident set of this process, in 10^6 bytes. On
  `default` it includes the kept simulation and the running copy.
"""
import contextlib
import copy
import functools
import hashlib
import inspect
import io
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import crancache
from crancache import ExperimentConfig, Simulation, cli
from tracing import Tracer, traced_targets

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

# Never used while tuning the benchmark or a change; confirm a claim with it.
HELD_OUT_SEED = 7919


@dataclass(frozen=True)
class EpisodeWorkload:
    overrides: dict
    policies: tuple
    reuse: bool = False  # construct once in set-up and run copies


@dataclass(frozen=True)
class MemcapWorkload:
    w_lo: int
    w_hi: int
    trace_len: int
    import_samples: int

    @property
    def w_values(self):
        return list(range(self.w_lo, self.w_hi + 1))


WORKLOADS = {
    # The acceptance suite's desk_config. Per-user Python loops dominate a
    # slot; construction and the R-sized scans cost almost nothing. The
    # exhaustive oracle is left out: its guard rejects this size (~1e45).
    "desk": EpisodeWorkload(
        overrides=dict(N=24, R=12, U=16, C_c=6, C_r=3, T=120, T_tau=30, N_w=48,
                       n_mc=48, archetypes=4, zipf_alpha=1.0, v_B=6e8, v_F=1.2e9),
        policies=("proposed", "random_clustered", "random_unclustered")),
    # Parameter-table defaults (R = N_w = 1000, N = 100, U = 32, n_mc = 64),
    # with T cut to two cloud-update periods. Set-up is 32 dense 1000x1000
    # eigenvalue problems; a slot is dominated by 1000-unit reservoir
    # matmuls and O(R) scans. U * T_tau = 960 exceeds the Hoeffding sample
    # of 600, so the cloud refresh really samples.
    "default": EpisodeWorkload(overrides=dict(T=60), policies=("proposed",), reuse=True),
    # The CLI memory-capacity sweep: no episode, only the cycle reservoir
    # and its Python drive loop, so slot-pipeline changes should not move it.
    "memcap": MemcapWorkload(w_lo=1, w_hi=10, trace_len=20000, import_samples=5),
}


@dataclass
class Tally:
    """What one pass over a workload attempted, completed and charged."""
    attempted: int = 0
    failed: int = 0
    bad_outputs: int = 0
    units: int = 0
    charged_s: float = 0.0
    setup_s: list = field(default_factory=list)
    errors: Counter = field(default_factory=Counter)
    stats: dict = field(default_factory=dict)
    slots_scored: int = 0
    user_slots: int = 0
    infeasible: int = 0
    server_misses: float = 0.0

    def fail(self, reason, seconds, count=1):
        self.failed += count
        self.errors[reason] += count
        self.charged_s += seconds

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 0.0


def check_episode(report, cfg):
    """First violated output property of an episode report, or None."""
    slots = report.slots
    if len(slots) != cfg["T"]:
        return f"{len(slots)} slots instead of T = {cfg['T']}"
    energies = [m.effective_sum for m in slots]
    for m in slots:
        if not (math.isfinite(m.effective_sum) and m.effective_sum >= 0.0):
            return f"slot {m.slot}: E_k = {m.effective_sum!r}"
        if abs(m.hit_local + m.hit_cloud + m.hit_remote + m.miss_server - 1.0) > 1e-12:
            return f"slot {m.slot}: hit fractions do not sum to 1"
        if not m.n_backhaul <= m.n_fronthaul <= cfg["U"]:
            return f"slot {m.slot}: N_B <= N_F <= U fails"
    mean = math.fsum(energies) / len(energies)
    if not math.isclose(report.effective_capacity_avg, mean, rel_tol=1e-12, abs_tol=1e-12):
        return f"E_bar {report.effective_capacity_avg!r} is not the mean of E_k ({mean!r})"
    return None


def check_memcap(text, w_values):
    """Per-W verdicts (None when the row is right) from the CLI's memcap.csv."""
    lines = text.splitlines()
    verdicts = {w: "row missing" for w in w_values}
    if not lines or lines[0] != "W,analytic,bound_lo,bound_hi,empirical":
        return verdicts
    for line in lines[1:]:
        w, analytic, lo, hi, empirical = line.split(",")
        w = int(w)
        if w not in verdicts:
            continue
        analytic, lo, hi, empirical = map(float, (analytic, lo, hi, empirical))
        if not lo <= analytic < hi:
            verdicts[w] = f"W={w}: analytic {analytic} outside [{lo}, {hi})"
        elif not math.isfinite(empirical):
            verdicts[w] = f"W={w}: empirical capacity {empirical}"
        else:
            verdicts[w] = None
    return verdicts


def _episode(tally, cfg, key, make):
    """One operation: get a simulation from make(), run it and check the report."""
    clock = time.perf_counter
    t0 = clock()
    try:
        sim = make()
        t1 = clock()
        report = sim.run()
    except Exception as exc:
        tally.fail(type(exc).__name__, clock() - t0)
        return
    t2 = clock()
    stats = {
        "E_bar": report.effective_capacity_avg,
        "slot_csv_sha256": hashlib.sha256(report.slot_csv().encode()).hexdigest(),
    }
    problem = check_episode(report, cfg)
    if problem is None and tally.stats.setdefault(key, stats) != stats:
        problem = "output differs from an earlier run of the same episode"
    if problem is not None:
        tally.bad_outputs += 1
        tally.fail(f"output check: {problem}", t2 - t0)
        return
    tally.units += len(report.slots)
    tally.charged_s += t2 - t1
    tally.slots_scored += len(report.slots)
    tally.user_slots += cfg["U"] * len(report.slots)
    tally.infeasible += sum(m.infeasible for m in report.slots)
    tally.server_misses += sum(m.miss_server for m in report.slots)


def _construct(tally, cfg, policy, seed):
    t0 = time.perf_counter()
    try:
        return Simulation(cfg, policy, seed)
    finally:
        tally.setup_s.append(time.perf_counter() - t0)


def _memcap_call(tally, spec, seed):
    out = OUT / "memcap"
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "memcap.csv"
    csv_path.unlink(missing_ok=True)
    argv = ["--seed", str(seed), "--out-dir", str(out), "memcap",
            "--W-range", f"{spec.w_lo}:{spec.w_hi}", "--trace-len", str(spec.trace_len)]
    n = len(spec.w_values)
    clock = time.perf_counter
    t0 = clock()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except Exception as exc:
        tally.fail(type(exc).__name__, clock() - t0, n)
        return
    elapsed = clock() - t0
    if code != 0:
        tally.fail(f"exit code {code}", elapsed, n)
        return
    text = csv_path.read_text()
    verdicts = check_memcap(text, spec.w_values)
    bad = [v for v in verdicts.values() if v is not None]
    for problem in bad:
        tally.bad_outputs += 1
        tally.fail(f"output check: {problem}", 0.0)
    tally.units += n - len(bad)
    tally.charged_s += elapsed
    tally.stats[str(seed)] = {"memcap_csv_sha256": hashlib.sha256(text.encode()).hexdigest()}


def run_workload(name, seed, seconds):
    """Set-up, then operations until `seconds` pass; episode j has seed 1000 * seed + j."""
    spec = WORKLOADS[name]
    tally = Tally()
    clock = time.perf_counter
    if isinstance(spec, EpisodeWorkload):
        cfg = ExperimentConfig.default(**spec.overrides)
        n_policies = len(spec.policies)
        if spec.reuse:
            key = (spec.policies[0], 1000 * seed)
            try:
                pristine = _construct(tally, cfg, *key)
            except Exception as exc:
                tally.attempted += 1
                tally.fail(type(exc).__name__, tally.setup_s[-1])
                return tally

        start, i = clock(), 0
        while i == 0 or clock() - start < seconds:
            if spec.reuse:
                make = functools.partial(copy.deepcopy, pristine)
            else:
                key = (spec.policies[i % n_policies], 1000 * seed + i // n_policies)
                make = functools.partial(_construct, tally, cfg, *key)
            tally.attempted += 1
            _episode(tally, cfg, f"{key[0]}/{key[1]}", make)
            i += 1
    else:
        start, i = clock(), 0
        while i == 0 or clock() - start < seconds:
            tally.attempted += len(spec.w_values)
            _memcap_call(tally, spec, 1000 * seed + i)
            i += 1
    return tally


def cold_import_s(samples):
    """Seconds of `import crancache` in fresh interpreters, one per sample."""
    code = "import time; t = time.perf_counter(); import crancache; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(samples):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip()))
    return times


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def end_to_end(name, tally):
    setup = cold_import_s(WORKLOADS[name].import_samples) if name == "memcap" else tally.setup_s
    return {
        "ms_per_unit": 1000.0 * tally.charged_s / max(tally.units, 1),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
    }


_POPULARITY_SIGNATURE = inspect.signature(crancache.estimate_popularity)


@dataclass
class Sampling:
    """Items offered to and planned for the cloud-refresh popularity estimate."""
    items: int = 0
    sampled: int = 0

    def observe(self, args, kwargs):
        bound = _POPULARITY_SIGNATURE.bind(*args, **kwargs)
        n = np.atleast_2d(bound.arguments["distributions"]).shape[0]
        plan = bound.arguments["plan"]
        self.items += n
        self.sampled += n if plan is None else min(plan.sample_size, n)


def per_layer(names, tracer, tally, sampling, overhead, wall):
    """Values of the named per-layer metrics from one traced pass."""
    agg = tracer.aggregate()
    spans = {target[0] for target in traced_targets()}
    ratios = {
        "qos.infeasible_frac": tally.infeasible / max(tally.user_slots, 1),
        "cache.sample_frac": sampling.sampled / max(sampling.items, 1),
        "cache.hit_frac": (tally.slots_scored - tally.server_misses) / max(tally.slots_scored, 1),
        "trace.overhead_frac": overhead,
        "trace.wall_s": wall,
        "trace.self_sum_s": tracer.self_total(),
        "trace.spans": len(tracer.names),
    }
    values = {}
    for name in names:
        if name in ratios:
            values[name] = ratios[name]
            continue
        span, _, stat = name.rpartition(".")
        if span not in spans:
            raise ValueError(f"per-layer metric {name!r} names no traced callable")
        calls, self_s, durations = agg.get(span, (0, 0.0, []))
        if stat == "calls":
            values[name] = calls
        elif stat == "self_s":
            values[name] = self_s
        elif stat in ("p50_ms", "p99_ms"):
            q = int(stat[1:3])
            values[name] = 1000.0 * float(np.percentile(durations, q)) if durations else 0.0
        else:
            raise ValueError(f"unknown per-layer statistic in {name!r}")
    return values


@dataclass
class Result:
    correct: bool
    tally: Tally
    metrics: dict
    notes: list


def measure(name, seed, seconds, trace, benchmark):
    """Run workload `name`; metrics are BENCHMARK.json's end-to-end or per-layer set."""
    if not trace:
        tally = run_workload(name, seed, seconds)
        values, listed, problems = end_to_end(name, tally), benchmark["end_to_end"], []
        notes = []
    else:
        # Untraced reference pass, then the same operations traced.
        reference = run_workload(name, seed, seconds)
        sampling = Sampling()
        tracer = Tracer(observers={"cache.estimate_popularity": sampling.observe})
        t0 = time.perf_counter()
        with tracer.installed():
            tally = run_workload(name, seed, seconds)
        wall = time.perf_counter() - t0
        ref_cost = reference.charged_s / max(reference.units, 1)
        overhead = (tally.charged_s / max(tally.units, 1)) / ref_cost - 1.0
        listed = benchmark["per_layer"]
        values = per_layer([m["name"] for m in listed], tracer, tally, sampling, overhead, wall)
        shared = reference.stats.keys() & tally.stats.keys()
        problems = [f"traced output differs from untraced: {key}" for key in sorted(shared)
                    if reference.stats[key] != tally.stats[key]]
        problems += [f"untraced pass: {k}" for k in reference.errors if k.startswith("output check")]
        if tracer.self_total() > wall:
            problems.append("traced self times exceed the traced wall time")
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"trace-{name}.csv.gz")
        notes = problems + [f"tracing overhead {overhead:+.1%} on ms_per_unit; {len(shared)} "
                            f"operations compared with the untraced pass"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    return Result(tally.bad_outputs == 0 and not problems, tally, metrics, notes)
