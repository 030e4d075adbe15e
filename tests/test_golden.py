"""Golden outputs: fixed-seed episodes and memcap sweeps keep their exact numbers.

E_bar is pinned to 1e-9 and the per-slot CSV by its SHA-256, so a change to
the slot pipeline that moves any realization (a reordered RNG draw, a
regrouped floating-point sum) fails here. The predictor CSV (with its cluster
counts) and the cloud-cache sequence are pinned by their SHA-256 too, for the
policies that cluster. The CLI's memcap.csv is pinned the
same way, so a change to the cycle-reservoir drive or the readout fits must
keep every bit. A change that alters the realization on purpose must say so
and re-record these values.
"""
import contextlib
import hashlib
import io

import pytest

from crancache import cli
from crancache.config import ExperimentConfig
from crancache.sim import episode, run_episode

DESK = dict(N=24, R=12, U=16, C_c=6, C_r=3, T=120, T_tau=30, N_w=48,
            n_mc=48, archetypes=4, zipf_alpha=1.0, v_B=6e8, v_F=1.2e9)
TINY = dict(N=6, R=3, U=4, C_c=2, C_r=1, T=60, T_tau=30, N_w=24,
            n_mc=24, archetypes=2, v_B=6e8, v_F=1.2e9)

# (config, policy, seed) -> (E_bar, sha256 of slot_csv())
# Every value was re-recorded when each slot came to draw all users' fading
# from one generator, the random caches from one block of uniforms, and the
# content reservoir from a purpose tag of its own: a declared realization
# change. Every episode draws channels, so every value moved.
GOLDEN = {
    ("desk", "proposed", 0): (
        913.1820193624502, "5008764f3b3cb544234b6bdf5266ac8a8762dbee5395c3497f57f0b52bddfa1a"),
    ("desk", "proposed", 1): (
        984.1769244967797, "ce5c6787215d98fb3dfe3b073fd7a2be53c18039bc8fdec284956f5beb18080d"),
    ("desk", "proposed", 2): (
        760.2311341576557, "29cb50d8b1375e5bde78cba3549770b1d251d53da8f9f558edc35766cd343760"),
    ("desk", "random_clustered", 0): (
        912.5254471471569, "e5ca8e4fa9ff9aa2f1d1168efa3669539210044e65da51c495bee79f66938315"),
    ("desk", "random_clustered", 1): (
        983.4396420871657, "f8be6453a493eccdc4facec530e7551276661aa09bcc0231b1e3caab87c6807c"),
    ("desk", "random_clustered", 2): (
        759.7426596007216, "7da29fb2c3ec30f74dd180d34ae6ac4ae2a11d8671f04815f4f61a5eb4f362e4"),
    ("desk", "random_unclustered", 0): (
        463.0581449529329, "8af0e92e25a1bc2b1a96d19435bddcd3f16a36cf0132abdeee4c8ab007307c95"),
    ("desk", "random_unclustered", 1): (
        529.8830720067034, "0c599e145df451f6b498414581560b55d9a0a66937b7bb237f278d8842e7a37d"),
    ("desk", "random_unclustered", 2): (
        399.07034792363214, "7158529344b3fe9aa7beaeba536cb6b3c442be91af6c02098618302390ebe67a"),
    ("tiny", "optimal_oracle", 0): (
        79.15936693056685, "38b0462fd0fade81918250d6ae81433276b5fbab7ac91d29c13b94f29fcb64a8"),
}
CONFIGS = {"desk": DESK, "tiny": TINY}


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_golden_episode(case):
    name, policy, seed = case
    e_bar, digest = GOLDEN[case]
    report = run_episode(ExperimentConfig.default(**CONFIGS[name]), policy, seed)
    assert report.effective_capacity_avg == pytest.approx(e_bar, rel=0, abs=1e-9)
    assert hashlib.sha256(report.slot_csv().encode()).hexdigest() == digest


# (config, policy, seed) -> (sha256 of predictor_csv(), sha256 of repr(cloud_trace)).
# slot_csv() shows neither the cluster count nor the cloud sequence, which
# the clustering and the cloud refresh recompute every slot and period.
GOLDEN_PREDICTOR = {
    ("desk", "proposed", 0): (
        "d117123daf4b52b14cd01ab657ef2aed63587583069ca8e746cdbf60410913d3",
        "88372ea5e8f2e2c9d366b85369f44230bb6100eb9bb831e7f1eb6d511140c3aa"),
    ("desk", "proposed", 1): (
        "0884ba7cd9259400feb5f961067bf7bfd5f2475394f879ca5568095256011235",
        "206cd4f586a35fdf9fb03096c5fcce025cb442b71c7179596a7fca40be3ec5e6"),
    ("desk", "proposed", 2): (
        "af5e1567c853bcb4a0289a234683705a2ac7453156d091a000947553c68f7211",
        "a1adb7da8d707bf72bca5a3937fa62f7af7c1e7a2b0e69231779ac5149a1fa53"),
    ("desk", "random_clustered", 0): (
        "d117123daf4b52b14cd01ab657ef2aed63587583069ca8e746cdbf60410913d3",
        "f793b8d21ae46abc1a9d8b65a99f8970584b6339dd8dae96dbc5095df3029077"),
    ("desk", "random_clustered", 1): (
        "0884ba7cd9259400feb5f961067bf7bfd5f2475394f879ca5568095256011235",
        "3d6b7661a680a8ff54e79e28187dbece59f5bc199048b89150361f1aa8a4bab8"),
    ("desk", "random_clustered", 2): (
        "af5e1567c853bcb4a0289a234683705a2ac7453156d091a000947553c68f7211",
        "15ab0a6c05fa4052dac051a327ea65163e7609fabdfab98af45bcc3ef1125e66"),
    ("tiny", "optimal_oracle", 0): (
        "c9a4a669fd3524ea0fcf3ea78a6c7a45305f55dc98908a468235b1ad5080f3da",
        "92492780c83ced1fb947cc894987cb4d2b8eca68f7fb0a861b173e3ff5e23bee"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_PREDICTOR), ids=lambda c: "-".join(map(str, c)))
def test_golden_predictors_and_cloud_trace(case):
    name, policy, seed = case
    predictors, cloud = GOLDEN_PREDICTOR[case]
    report = run_episode(ExperimentConfig.default(**CONFIGS[name]), policy, seed)
    assert hashlib.sha256(report.predictor_csv().encode()).hexdigest() == predictors
    assert hashlib.sha256(repr(report.cloud_trace).encode()).hexdigest() == cloud


# seed -> (sha256 of predictor_csv(), sha256 of repr(cloud_trace)) for desk
# proposed episodes refreshed every 40 slots. Each refresh offers
# U * T_tau = 16 * 40 = 640 demand rows, more than the Hoeffding sample of 600,
# so the cloud cache is chosen from a stratified sample, not a full scan.
SAMPLED_CLOUD = {
    0: ("02f97127e925ee6ca7fcc77818deecdbf8012b50e0288d8eb405022755692eec",
        "c6e5c4cf831ae92e73d2a37148976519f9c401f74446699791ba18944cf6ebcb"),
    1: ("12d5bcb0bbdf5a1b91a10dea7a419a0a8f60df2e9c32529c1bef9f82b6edc53a",
        "84ece6de4f64fe9ded7e4fc317953f344b854f67a21a0a2d2a09586dd155eeb4"),
    2: ("78e6c1caea8b6722c8b2839264a3021d0252c344245025708fc7f014ae420e6a",
        "4abaf69c0a6c98c013e570323b7df2ca9c7e6dd31d317f8e69b036bfc366a73f"),
}


@pytest.mark.parametrize("seed", sorted(SAMPLED_CLOUD))
def test_golden_sampled_cloud_refresh(seed, monkeypatch):
    predictors, cloud = SAMPLED_CLOUD[seed]
    offered = []

    def spy(distributions, weights, plan, rng, strata=None):
        offered.append((plan.sample_size, len(distributions)))
        return estimate(distributions, weights, plan, rng, strata=strata)

    estimate = episode.estimate_popularity
    monkeypatch.setattr(episode, "estimate_popularity", spy)
    report = run_episode(ExperimentConfig.default(**dict(DESK, T_tau=40)), "proposed", seed)
    assert len(offered) == 3
    assert all(sample < rows for sample, rows in offered)
    assert hashlib.sha256(report.predictor_csv().encode()).hexdigest() == predictors
    assert hashlib.sha256(repr(report.cloud_trace).encode()).hexdigest() == cloud


# memcap arguments after the subcommand (seed 0) -> sha256 of memcap.csv
GOLDEN_MEMCAP = {
    "pointmass": (
        [], "58753b12e019d045f96d9600433cb925ea7e3b82f04659d5bea3ab9537c63a1f"),
    "symbinary": (
        ["--dist", "symbinary"],
        "5545c88e76c0c8fe7e985ae66485716b239db8ee689d206d200ae918f715e1e5"),
    "uniform": (
        ["--dist", "uniform"],
        "65a70fc68ab6ae87db49ab7cb3eb0c9d4064699dbb682076df6e58db52987d67"),
    "short-trace": (
        ["--a", "0.5", "--W-range", "4,1,9,2", "--trace-len", "3000"],
        "11bfa0db3a71c3f19a4a2656d82db2af3d36fb31072e2a7eeb76943feb46760e"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_MEMCAP))
def test_golden_memcap(case, tmp_path):
    extra, digest = GOLDEN_MEMCAP[case]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--seed", "0", "--out-dir", str(tmp_path), "memcap", *extra])
    assert code == 0
    text = (tmp_path / "memcap.csv").read_text()
    assert hashlib.sha256(text.encode()).hexdigest() == digest
