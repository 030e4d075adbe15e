"""Self-test of the benchmark at toy sizes.

Run with `PYTHONPATH=src python -m pytest perfbench`.
"""
import json
import math
from pathlib import Path

import pytest

import bench
from crancache import Simulation, cli
from tracing import traced_targets

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

TOY = {
    "desk": bench.EpisodeWorkload(
        overrides=dict(N=6, R=3, U=4, C_c=2, C_r=1, T=30, T_tau=30, N_w=16, n_mc=8,
                       archetypes=2, v_B=6e8, v_F=1.2e9),
        policies=("proposed", "random_clustered")),
    "default": bench.EpisodeWorkload(
        overrides=dict(R=20, N=10, U=4, C_c=2, C_r=1, T=30, N_w=20, n_mc=8),
        policies=("proposed",), reuse=True),
    "memcap": bench.MemcapWorkload(w_lo=1, w_hi=3, trace_len=400, import_samples=1),
}


@pytest.fixture
def toy(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "WORKLOADS", TOY)
    monkeypatch.setattr(bench, "OUT", tmp_path)


@pytest.mark.parametrize("name", sorted(TOY))
def test_every_end_to_end_metric_at_toy_size(toy, name):
    result = bench.measure(name, 3, 0.0, 0, BENCHMARK)
    assert list(result.metrics) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for metric in result.metrics.values():
        assert math.isfinite(metric["value"]) and metric["value"] > 0
    assert result.correct
    assert result.tally.attempted >= 1


@pytest.mark.parametrize("name", sorted(TOY))
def test_every_per_layer_metric_from_a_traced_run(toy, name):
    originals = [target[3] for target in traced_targets()]
    result = bench.measure(name, 3, 0.0, 1, BENCHMARK)
    assert list(result.metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    values = {k: v["value"] for k, v in result.metrics.items()}
    assert values["trace.self_sum_s"] <= values["trace.wall_s"]
    assert values["trace.spans"] > 0
    assert result.correct  # traced digests equal the untraced ones
    assert [target[3] for target in traced_targets()] == originals


def test_raised_episode_counts_as_failed(toy, monkeypatch):
    def boom(self):
        raise RuntimeError("forced")

    monkeypatch.setattr(Simulation, "run", boom)
    tally = bench.measure("desk", 3, 0.1, 0, BENCHMARK).tally
    assert tally.attempted > 1
    assert tally.failed == tally.attempted
    assert tally.errors == {"RuntimeError": tally.attempted}
    assert tally.failed_frac == 1.0


def test_failed_output_check_counts_as_failed(toy, monkeypatch):
    monkeypatch.setattr(cli, "memory_capacity_bounds", lambda spec, W: (0.0, 0.0))
    result = bench.measure("memcap", 3, 0.0, 0, BENCHMARK)
    assert not result.correct
    assert result.tally.failed == result.tally.attempted == 3
    assert result.tally.bad_outputs == 3
