"""tools/bench_record.py: the paired summary of two trees' benchmark runs, on canned run
records (no benchmark is run)."""
import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parent.parent / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_record)


def canned_run(seed, ms, rss, digest):
    """(record, stats, result) as bench_run parses them from one run's output."""
    record = {"workload": "desk", "seed": seed}
    stats = {f"proposed/{1000 * seed}": {"E_bar": 835.0 + seed, "slot_csv_sha256": digest},
             f"proposed/{1000 * seed + 1}": {"E_bar": 1.0, "slot_csv_sha256": "later"}}
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {"ms_per_unit": {"value": ms, "unit": "ms"},
                          "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    return record, stats, result


BASE = {seed: canned_run(seed, ms, 50.0, "same")
        for seed, ms in enumerate([1.0, 2.0, 1.0, 4.0, 5.0])}
CHANGE = {seed: canned_run(seed, ms, rss, "moved" if seed == 3 else "same")
          for seed, (ms, rss) in enumerate([(0.5, 50.0), (1.0, 55.0), (1.5, 45.0),
                                            (2.0, 50.0), (4.0, 40.0)])}


def test_pairs_give_ratios_wins_and_first_input_equality():
    pairs = bench_record.pair(BASE, CHANGE, {"ms_per_unit": "lower", "peak_rss_mb": "higher"})
    ms = pairs["metrics"]["ms_per_unit"]
    assert ms["values"] == [0.5, 0.5, 1.5, 0.5, 0.8]
    assert (ms["q1"], ms["median"], ms["q3"]) == (0.5, 0.5, 0.8)
    assert ms["change_wins"] == 4 and ms["better"] == "lower"
    rss = pairs["metrics"]["peak_rss_mb"]
    assert rss["values"] == [1.0, 1.1, 0.9, 1.0, 0.8]
    assert rss["change_wins"] == 1  # a tie is no win
    assert pairs["first_input_stats_equal"] == {"0": True, "1": True, "2": True,
                                                "3": False, "4": True}


def test_summary_keeps_the_single_tree_entry():
    side = bench_record.summarize(CHANGE)
    assert (side["runs"], side["correct_runs"], side["failed_ops"], side["attempted_ops"]) \
        == (5, 5, 0, 15)
    assert side["metrics"]["ms_per_unit"]["values"] == [0.5, 1.0, 1.5, 2.0, 4.0]
    assert side["metrics"]["ms_per_unit"]["median"] == 1.5
    assert side["first_input_stats"]["2"] == {"proposed/2000": {"E_bar": 837.0,
                                                                "slot_csv_sha256": "same"}}
    assert side["record"] == {"workload": "desk", "seed": 0}


def test_paired_runs_alternate_which_tree_goes_first(monkeypatch):
    calls = []

    def fake_run(tree, workload, seed):
        calls.append((tree, seed))
        runs = BASE if tree == "base" else CHANGE
        return runs[seed]

    monkeypatch.setattr(bench_record, "bench_run", fake_run)
    monkeypatch.setattr(bench_record, "SEEDS", range(4))
    report = bench_record.record_pairs("desk", "base", {"ms_per_unit": "lower"})
    root = bench_record.ROOT
    assert calls == [("base", 0), (root, 0), (root, 1), ("base", 1),
                     ("base", 2), (root, 2), (root, 3), ("base", 3)]
    assert report["base"]["metrics"]["ms_per_unit"]["values"] == [1.0, 2.0, 1.0, 4.0]
    assert report["pairs"]["metrics"]["ms_per_unit"]["change_wins"] == 3
    assert report["pairs"]["metrics"]["ms_per_unit"]["median"] == pytest.approx(0.5)
