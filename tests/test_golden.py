"""Golden outputs: fixed-seed episodes and memcap sweeps keep their exact numbers.

E_bar is pinned to 1e-9 and the per-slot CSV by its SHA-256, so a change to
the slot pipeline that moves any realization (a reordered RNG draw, a
regrouped floating-point sum) fails here. The CLI's memcap.csv is pinned the
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
from crancache.sim import run_episode

DESK = dict(N=24, R=12, U=16, C_c=6, C_r=3, T=120, T_tau=30, N_w=48,
            n_mc=48, archetypes=4, zipf_alpha=1.0, v_B=6e8, v_F=1.2e9)
TINY = dict(N=6, R=3, U=4, C_c=2, C_r=1, T=60, T_tau=30, N_w=24,
            n_mc=24, archetypes=2, v_B=6e8, v_F=1.2e9)

# (config, policy, seed) -> (E_bar, sha256 of slot_csv())
# The desk proposed values were re-recorded when all users' content ESNs came
# to share one reservoir, a declared realization change. random_clustered
# reads predictions only to cluster the RRHs, and its values held.
GOLDEN = {
    ("desk", "proposed", 0): (
        913.2141375986353, "72bf07495b0b3028efe846f2729f2f805ab490b2740f7d407648e40de5f63187"),
    ("desk", "proposed", 1): (
        984.7251770462668, "48a6925f4c1190095e06fcb93fe4eaaeeb91376f7a515df2af3457191933dfa0"),
    ("desk", "proposed", 2): (
        760.2738462881357, "0e704dd389e354ecc6f0bfb40e6837a8ad3c2e836a6229d2d8ec7d719158a2b6"),
    ("desk", "random_clustered", 0): (
        912.4939068602446, "5626aed34ff97c2615b5130b247a0c16ac67ff0f70ee48ee2f5630bf8b020fe0"),
    ("desk", "random_clustered", 1): (
        983.9762340300312, "d2299a2b8393a69cd73b4bf8d73a0ad8178194a42aef70fbd3ce073204183a87"),
    ("desk", "random_clustered", 2): (
        759.6997203856166, "a0b7f386c28e906024327d8b92091f0cfa67f30e9ebadafdb59eee01aa485071"),
    ("desk", "random_unclustered", 0): (
        463.30130180226405, "74fb51c776c2979e5f5544e6c9a19f1cd1a5fba5f7742021bc785a17996f1edf"),
    ("desk", "random_unclustered", 1): (
        529.6234272387245, "f3f9e9c85c1f4600774b9aa8edf942b4e442081ff846477d136d2c237a007fd4"),
    ("desk", "random_unclustered", 2): (
        398.84337840216756, "aa3e21eb7be25f599efc6e406b1005c6e75c78186f36c1700a394ae8507fc1c6"),
    ("tiny", "optimal_oracle", 0): (
        78.80287955556975, "fa587740f7af5244898d22936676cde1da8d88565ce3246a2ae5f17b1d7b8618"),
}
CONFIGS = {"desk": DESK, "tiny": TINY}


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_golden_episode(case):
    name, policy, seed = case
    e_bar, digest = GOLDEN[case]
    report = run_episode(ExperimentConfig.default(**CONFIGS[name]), policy, seed)
    assert report.effective_capacity_avg == pytest.approx(e_bar, rel=0, abs=1e-9)
    assert hashlib.sha256(report.slot_csv().encode()).hexdigest() == digest


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
