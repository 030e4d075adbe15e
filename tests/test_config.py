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
    **{key: positive for key in ("r", "B", "L", "theta_s_O", "D_max", "v_B", "v_F", "chi",
                                 "lambda_alpha")},
    **{key: finite(-1e6, 1e6) for key in ("P", "sigma2", "zipf_alpha", "w_lo", "w_hi")},
    "epsilon": finite(0.0, 1.0, exclude_min=True, exclude_max=True),
    "delta": finite(0.0, 1.0, exclude_min=True),
    "beta": finite(2.0, 1e3, exclude_min=True),
    "lambda": finite(0.0, 1e6),
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


def test_weight_spec_construction():
    cfg = ExperimentConfig.default(w_dist="symbinary", w_a=0.7)
    spec = cfg.weight_spec()
    assert spec.kind == "symbinary" and spec.a == 0.7
    with pytest.raises(ConfigurationError):
        ExperimentConfig.default(w_dist="cauchy")
