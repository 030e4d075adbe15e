"""Experiment configuration: flat key-value text with # comments.

System-parameter keys keep their usual symbol names so configs read like the
parameter table they come from (r, R, B, L, theta_s_O, N_w, C_c, C_r, K,
delta, epsilon, H, T_tau, P, beta, lambda_alpha, T, sigma2, D_max, N_s,
lambda, chi, S). Workload size (U, N), wired rates (v_B, v_F) and the
mobility-reservoir knobs are ours; their defaults are desk-scale.

Validation reads each rule from its one home: the policy names from POLICIES
below (the simulator takes its policy constants from it), the context width
K from esn.content.CONTEXT_FEATURES, and the cycle-weight family from
WeightDistribution, which rejects an unknown `w_dist` and reads only its own
family's fields (w_a for pointmass and symbinary, w_lo and w_hi for uniform),
the radio constants (P, beta, sigma2, B) from qos.RadioParams, the wired
pipes and delivery contract (v_B, v_F, L, D_max) from qos.WiredParams, and
the sampling contract (epsilon, delta) from cache.SamplingPlan. The
positive-and-finite rule, which rejects 0, negatives, NaN and +inf, is
errors.require_positive_finite; validate applies it to r, theta_s_O, chi and
lambda, RadioParams to B and to P and sigma2 in watts, and WiredParams to
v_B, v_F, L and D_max. A config file and the --override items share one
KEY = VALUE parser.
"""
import math
from dataclasses import dataclass

from .cache import SamplingPlan
from .errors import ConfigurationError, require_positive_finite
from .esn.content import CONTEXT_FEATURES
from .esn.mobility import WeightDistribution
from .qos import RadioParams, WiredParams

# every episode policy; the `policy` key takes a comma list of them or "all"
POLICIES = ("proposed", "random_clustered", "random_unclustered", "optimal_oracle")

# key -> (type, default); ExperimentConfig.validate checks the ranges
_SCHEMA = {
    "r": (float, 1000.0),          # disk radius, m
    "R": (int, 1000),              # RRH count
    "B": (float, 1e6),             # bandwidth, Hz
    "L": (float, 1e7),             # content size, bits
    "theta_s_O": (float, 0.05),    # base QoS exponent (local path)
    "N_w": (int, 1000),            # content-ESN reservoir units
    "C_c": (int, 6),               # cloud cache slots
    "C_r": (int, 3),               # per-RRH cache slots
    "K": (int, 7),                 # context features
    "delta": (float, 0.05),        # sampling confidence
    "epsilon": (float, 0.05),      # sampling error
    "H": (int, 3),                 # mobility sampling period, slots
    "T_tau": (int, 30),            # cloud cache update period, slots
    "P": (float, 20.0),            # tx power, dBm
    "beta": (float, 4.0),          # pathloss exponent
    "lambda_alpha": (float, 0.01),  # normalized step of the shared content readout, in (0, 2)
    "T": (int, 300),               # horizon, slots
    "sigma2": (float, -95.0),      # noise power, dBm
    "D_max": (float, 1.0),         # delay bound, s
    "N_s": (int, 10),              # mobility prediction horizon
    "lambda": (float, 0.5),        # mobility ridge regularizer
    "chi": (float, 0.85),          # clustering distance threshold (TV)
    "S": (float, 25.0),            # user speed, m per slot
    # ours (not in the parameter table)
    "U": (int, 32),                # users
    "N": (int, 100),               # catalog size
    "v_B": (float, 1e9),           # backhaul pipe, bit/s
    "v_F": (float, 2e9),           # fronthaul pipe, bit/s
    "W": (int, 11),                # mobility reservoir units (N_s + 1)
    "w_dist": (str, "pointmass"),  # cycle weight family
    "w_a": (float, 0.9),           # pointmass/symbinary magnitude
    "w_lo": (float, -0.5),         # uniform support
    "w_hi": (float, 0.5),
    "N_tr": (int, 120),            # mobility training window (samples)
    "n_mc": (int, 64),             # effective-capacity Monte-Carlo draws
    "zipf_alpha": (float, 1.0),
    "archetypes": (int, 4),
    "waypoints": (int, 3),
    "seed": (int, 0),
    "policy": (str, "proposed"),   # comma list or "all"
}


@dataclass
class ExperimentConfig:
    """Validated experiment parameters; construct via `default()` or `load()`."""
    values: dict

    @classmethod
    def default(cls, **overrides):
        values = {key: default for key, (_, default) in _SCHEMA.items()}
        cfg = cls(values)
        for key, val in overrides.items():
            cfg.set(key, val)
        cfg.validate()
        return cfg

    @classmethod
    def load(cls, path):
        cfg = cls.default()
        with open(path) as fh:
            for line_no, line in enumerate(fh, start=1):
                text = line.split("#", 1)[0].strip()
                if text:
                    cfg._set_pair(text, f"{path}:{line_no}")
        cfg.validate()
        return cfg

    def set(self, key, raw, where=None):
        prefix = f"{where}: " if where else ""
        if key not in _SCHEMA:
            raise ConfigurationError(f"{prefix}unknown config key {key!r}")
        typ, _ = _SCHEMA[key]
        try:
            self.values[key] = typ(str(raw))  # int, float and str each parse the text form
        except ValueError as exc:
            raise ConfigurationError(f"{prefix}bad value for {key}: {raw!r}") from exc

    def _set_pair(self, text, where):
        """Set one `KEY = VALUE` item, a config-file line or an override; the
        spaces around KEY and VALUE are dropped."""
        key, eq, raw = text.partition("=")
        if not eq:
            raise ConfigurationError(f"{where}: expected KEY = VALUE (got {text!r})")
        self.set(key.strip(), raw.strip(), where=where)

    def apply_overrides(self, overrides):
        """Apply CLI --override KEY=VAL pairs and re-validate."""
        for item in overrides:
            self._set_pair(item, "--override")
        self.validate()
        return self

    def __getitem__(self, key):
        return self.values[key]

    def validate(self):
        v = self.values
        for key in ("R", "U", "N", "N_w", "K", "H", "T_tau", "T", "N_s", "W",
                    "N_tr", "n_mc", "archetypes", "waypoints"):
            if v[key] < 1:
                raise ConfigurationError(f"{key} must be >= 1 (got {v[key]})")
        for key in ("r", "theta_s_O", "chi"):
            require_positive_finite(key, v[key])
        if not 0 <= v["S"] < math.inf:
            raise ConfigurationError(f"S (speed) must be non-negative and finite (got {v['S']})")
        if not abs(v["zipf_alpha"]) < math.inf:
            raise ConfigurationError(f"zipf_alpha must be finite (got {v['zipf_alpha']})")
        if v["K"] != CONTEXT_FEATURES:
            raise ConfigurationError(
                f"the context schema is fixed at K = {CONTEXT_FEATURES} features")
        if v["N"] < 2:
            raise ConfigurationError(f"N must be >= 2: a catalog needs two contents (got {v['N']})")
        if not 0.0 < v["lambda_alpha"] < 2.0:
            raise ConfigurationError(
                "lambda_alpha must lie in (0, 2), where the normalized readout step is stable")
        require_positive_finite("lambda", v["lambda"],
                                "a mobility fit may have fewer samples than W units")
        if v["C_c"] > v["N"] or v["C_r"] > v["N"]:
            raise ConfigurationError("cache capacities cannot exceed the catalog")
        if v["C_c"] < 0 or v["C_r"] < 0:
            raise ConfigurationError("cache capacities cannot be negative")
        if v["T"] % v["T_tau"] != 0:
            raise ConfigurationError("T_tau must divide T")
        if v["seed"] < 0:
            raise ConfigurationError("seed must be non-negative")
        self.weight_spec()  # raises on a bad family
        self.radio()  # raises on beta or B out of range, or dBm powers outside (0 W, inf W)
        self.wired()  # raises on a wired rate, content size or delay bound <= 0
        self.plan()  # raises on epsilon outside (0, 1) or delta outside (0, 1]
        names = self.policies()
        if not names:
            raise ConfigurationError(f"policy names no policy; pick from {POLICIES} or 'all'")
        for name in names:
            if name not in POLICIES:
                raise ConfigurationError(
                    f"unknown policy {name!r}; pick from {POLICIES} or 'all'"
                )
        if len(set(names)) < len(names):
            raise ConfigurationError(f"policy {v['policy']!r} repeats a policy")

    def policies(self):
        raw = self.values["policy"]
        if raw.strip() == "all":
            return list(POLICIES)
        return [p.strip() for p in raw.split(",") if p.strip()]

    def weight_spec(self):
        v = self.values
        return WeightDistribution(v["w_dist"], a=v["w_a"], lo=v["w_lo"], hi=v["w_hi"])

    def radio(self):
        v = self.values
        return RadioParams(tx_power_dbm=v["P"], pathloss_exponent=v["beta"],
                           noise_dbm=v["sigma2"], bandwidth_hz=v["B"])

    def wired(self):
        v = self.values
        return WiredParams(backhaul_rate=v["v_B"], fronthaul_rate=v["v_F"],
                           content_size=v["L"], delay_bound=v["D_max"])

    def plan(self):
        return SamplingPlan(epsilon=self.values["epsilon"], delta=self.values["delta"])

    def serialize(self):
        """Canonical text form: sorted keys, one `key = value` per line."""
        lines = []
        for key in sorted(self.values):
            typ, _ = _SCHEMA[key]
            val = self.values[key]
            text = str(val)  # a float's repr
            if typ is float and float(f"{val:.12g}") == val:
                text = f"{val:.12g}"  # the short form, when it reads back as the same float
            lines.append(f"{key} = {text}")
        return "\n".join(lines) + "\n"
