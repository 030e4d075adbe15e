"""Config parsing, validation, overrides, and canonical round-trips."""
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crancache.config import ExperimentConfig
from crancache.errors import ConfigurationError


def test_defaults_match_parameter_table():
    cfg = ExperimentConfig.default()
    expected = {"r": 1000.0, "R": 1000, "B": 1e6, "L": 1e7, "theta_s_O": 0.05,
                "N_w": 1000, "C_c": 6, "C_r": 3, "K": 7, "delta": 0.05,
                "epsilon": 0.05, "H": 3, "T_tau": 30, "P": 20.0, "beta": 4.0,
                "lambda_alpha": 0.01, "T": 300, "sigma2": -95.0, "D_max": 1.0,
                "N_s": 10, "lambda": 0.5, "chi": 0.85, "S": 25.0}
    for key, val in expected.items():
        assert cfg[key] == val, key


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("frobnicate = 3\n")
    with pytest.raises(ConfigurationError, match="frobnicate"):
        ExperimentConfig.load(path)


def test_bad_value_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("T = not_a_number\n")
    with pytest.raises(ConfigurationError, match="T"):
        ExperimentConfig.load(path)


def test_range_validation():
    with pytest.raises(ConfigurationError):
        ExperimentConfig.default(epsilon=1.5)
    with pytest.raises(ConfigurationError):
        ExperimentConfig.default(beta=1.5)
    with pytest.raises(ConfigurationError):
        ExperimentConfig.default(C_c=200, N=100)
    with pytest.raises(ConfigurationError):
        ExperimentConfig.default(T=100, T_tau=30)  # T_tau must divide T
    with pytest.raises(ConfigurationError):
        ExperimentConfig.default(policy="clairvoyant")
    with pytest.raises(ConfigurationError, match="K = 7"):
        ExperimentConfig.default(K=5)
    with pytest.raises(ConfigurationError):
        ExperimentConfig.default(S=-1.0)


def test_one_content_catalog_rejected_at_load(tmp_path):
    path = tmp_path / "one.cfg"
    path.write_text("N = 1\nC_c = 1\nC_r = 1\n")
    with pytest.raises(ConfigurationError, match="N must be >= 2"):
        ExperimentConfig.load(path)
    path.write_text("N = 2\nC_c = 1\nC_r = 1\n")
    assert ExperimentConfig.load(path)["N"] == 2


def test_lambda_alpha_bounded_by_the_stability_of_the_normalized_step(tmp_path):
    path = tmp_path / "step.cfg"
    for value in ("2.0", "2.5", "0", "-0.1"):
        path.write_text(f"lambda_alpha = {value}\n")
        with pytest.raises(ConfigurationError, match="lambda_alpha"):
            ExperimentConfig.load(path)
    path.write_text("lambda_alpha = 1.99\n")
    assert ExperimentConfig.load(path)["lambda_alpha"] == 1.99


def test_mobility_ridge_lambda_must_be_positive(tmp_path):
    """lambda = 0 would fail deep in an episode: the first mobility fit has
    fewer samples than W units, so its state matrix is rank-deficient."""
    path = tmp_path / "ridge.cfg"
    for value in ("0", "-0.5"):
        path.write_text(f"lambda = {value}\n")
        with pytest.raises(ConfigurationError, match="lambda must be positive"):
            ExperimentConfig.load(path)
    path.write_text("lambda = 1e-9\n")
    assert ExperimentConfig.load(path)["lambda"] == 1e-9


@pytest.mark.parametrize("key, dbm", [("P", 4000.0), ("sigma2", 4000.0), ("sigma2", -4000.0),
                                      ("P", -4000.0), ("P", float("inf")),
                                      ("sigma2", float("nan"))])
def test_dbm_powers_outside_the_float_range_rejected(key, dbm):
    """P or sigma2 = 4000 dBm overflowed in the episode's unit conversion,
    sigma2 = -4000 dBm made the noise 0 W and every SINR undefined, and
    P = -4000 dBm made the tx power 0 W and every capacity 0."""
    with pytest.raises(ConfigurationError, match="dBm"):
        ExperimentConfig.default(**{key: dbm})


@pytest.mark.parametrize("key, field", [("v_B", "backhaul_rate"), ("v_F", "fronthaul_rate"),
                                        ("L", "content_size"), ("D_max", "delay_bound")])
def test_wired_parameter_rejected_by_name(key, field):
    for value in (0.0, -1.0, float("nan")):
        with pytest.raises(ConfigurationError, match=f"{field} must be positive"):
            ExperimentConfig.default(**{key: value})


@pytest.mark.parametrize("key", ["r", "theta_s_O", "chi", "S", "zipf_alpha", "beta", "B",
                                 "lambda"])
def test_nan_rejected_at_load(key):
    """A `value <= bound` check lets NaN through: theta_s_O = nan and S = nan
    ran to E_bar = nan, and r = nan failed mid-episode with a ValueError. A
    check with no upper bound lets +inf through: r = inf failed mid-episode
    with an OverflowError, B = inf ran to E_bar = nan, and beta = inf and
    theta_s_O = inf ran to E_bar = 0."""
    for value in (float("nan"), float("inf")):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.default(**{key: value})


def test_epsilon_whose_sample_count_overflows_rejected():
    """Below about 1e-154, epsilon^2 underflows or the Hoeffding count
    overflows; the sampling plan is built at load, so the config fails there."""
    for epsilon in (1e-155, 1e-200, 5e-324):
        with pytest.raises(ConfigurationError, match="epsilon"):
            ExperimentConfig.default(epsilon=epsilon)
    assert ExperimentConfig.default(epsilon=1e-150).plan().sample_size > 10 ** 300


def test_comments_and_whitespace(tmp_path):
    path = tmp_path / "ok.cfg"
    path.write_text("# leading comment\nT = 60  # trailing\n\n  U = 8\n")
    cfg = ExperimentConfig.load(path)
    assert cfg["T"] == 60 and cfg["U"] == 8


def test_roundtrip_is_canonical(tmp_path):
    cfg = ExperimentConfig.default(T=60, U=8, seed=5)
    first = cfg.serialize()
    path = tmp_path / "c.cfg"
    path.write_text(first)
    again = ExperimentConfig.load(path).serialize()
    assert first == again


def load_serialized(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.cfg"
        path.write_text(cfg.serialize())
        return ExperimentConfig.load(path)


def test_roundtrip_keeps_floats_that_12_digits_lose():
    cfg = ExperimentConfig.default(lambda_alpha=0.1 + 0.2, P=1 / 3)
    assert load_serialized(cfg).values == cfg.values
    assert "lambda_alpha = 0.30000000000000004\n" in cfg.serialize()


def test_default_floats_keep_their_short_text():
    cfg = ExperimentConfig.default()
    for line in cfg.serialize().splitlines():
        key, _, text = line.partition(" = ")
        if isinstance(cfg[key], float):
            assert text == f"{cfg[key]:.12g}", key


def finite(lo=None, hi=None, exclude_min=False, exclude_max=False):
    return st.floats(lo, hi, exclude_min=exclude_min, exclude_max=exclude_max,
                     allow_nan=False, allow_infinity=False)


positive = finite(0.0, 1e12, exclude_min=True)
valid_overrides = st.fixed_dictionaries({}, optional={
    **{key: positive for key in ("r", "B", "L", "theta_s_O", "D_max", "v_B", "v_F", "chi")},
    "lambda_alpha": finite(0.0, 2.0, exclude_min=True, exclude_max=True),
    # dBm powers: beyond about +-3080 they leave the float range in watts
    **{key: finite(-3000.0, 3000.0) for key in ("P", "sigma2")},
    **{key: finite(-1e6, 1e6) for key in ("zipf_alpha", "w_lo", "w_hi")},
    # below about 1e-154 the Hoeffding sample count of epsilon overflows
    "epsilon": finite(1e-150, 1.0, exclude_max=True),
    "delta": finite(0.0, 1.0, exclude_min=True),
    "beta": finite(2.0, 1e3, exclude_min=True),
    "lambda": finite(0.0, 1e6, exclude_min=True),
    "S": finite(0.0, 1e6),
    "w_a": finite(-1.0, 1.0, exclude_min=True, exclude_max=True),
    **{key: st.integers(1, 10 ** 6) for key in ("R", "U", "N_w", "H", "N_s", "W", "N_tr",
                                                "n_mc", "archetypes", "waypoints")},
    "seed": st.integers(0, 2 ** 40),
})


@settings(max_examples=200, deadline=None)
@given(valid_overrides)
def test_serialize_load_roundtrip_keeps_values(overrides):
    cfg = ExperimentConfig.default(**overrides)
    assert load_serialized(cfg).values == cfg.values


def test_overrides_apply_and_validate():
    cfg = ExperimentConfig.default()
    cfg.apply_overrides(["T=60", "C_c=2"])
    assert cfg["T"] == 60 and cfg["C_c"] == 2
    with pytest.raises(ConfigurationError):
        cfg.apply_overrides(["nonsense"])
    with pytest.raises(ConfigurationError):
        cfg.apply_overrides(["mystery=1"])


def test_policy_list_parsing():
    cfg = ExperimentConfig.default(policy="all")
    assert cfg.policies() == ["proposed", "random_clustered",
                              "random_unclustered", "optimal_oracle"]
    cfg = ExperimentConfig.default(policy="proposed, random_clustered")
    assert cfg.policies() == ["proposed", "random_clustered"]


@pytest.mark.parametrize("policy", ["", " , ", "proposed,proposed",
                                    "proposed, random_clustered,proposed"])
def test_policy_list_naming_no_policy_or_repeating_one_rejected(policy):
    with pytest.raises(ConfigurationError, match="policy"):
        ExperimentConfig.default(policy=policy)


def test_weight_spec_construction():
    cfg = ExperimentConfig.default(w_dist="symbinary", w_a=0.7)
    spec = cfg.weight_spec()
    assert spec.kind == "symbinary" and spec.a == 0.7
    with pytest.raises(ConfigurationError):
        ExperimentConfig.default(w_dist="cauchy")
