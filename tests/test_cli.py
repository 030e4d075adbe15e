"""End-to-end CLI behavior: outputs, determinism, exit codes."""
import csv
import logging

import numpy as np
import pytest

from crancache.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, main
from crancache.config import ExperimentConfig
from crancache.data import CONTENT_HEADER, MOBILITY_HEADER, generate_mobility
from crancache.esn import LocationGrid, MobilityEsn
from crancache.seeding import rng_for

TINY = ["N=6", "R=3", "U=4", "C_c=2", "C_r=1", "T=30", "T_tau=30", "N_w=16",
        "n_mc=16", "archetypes=2", "v_B=6e8", "v_F=1.2e9"]


def _tiny_args(out_dir, extra=()):
    args = ["--out-dir", str(out_dir), "--seed", "3"]
    for item in TINY + list(extra):
        args += ["--override", item]
    return args


def test_simulate_writes_expected_files(tmp_path, capsys):
    code = main(_tiny_args(tmp_path) + ["simulate"])
    assert code == EXIT_OK
    slots = (tmp_path / "slots_proposed.csv").read_text()
    assert slots.splitlines()[0] == "k,E_k,hit_O,hit_A,hit_G,miss_S,N_B,N_F"
    assert len(slots.splitlines()) == 31
    summary = (tmp_path / "summary_proposed.txt").read_text()
    assert "E_bar = " in summary
    predictors = (tmp_path / "predictors_proposed.csv").read_text().splitlines()
    assert predictors[0] == "k,tv_content,n_clusters"
    assert [row.split(",")[0] for row in predictors[1:]] == [str(k) for k in range(1, 31)]
    assert "proposed: E_bar" in capsys.readouterr().out


def test_simulate_policy_all_gates_oracle(tmp_path):
    code = main(_tiny_args(tmp_path, ["policy=all"]) + ["simulate"])
    assert code == EXIT_OK
    for policy in ("proposed", "random_clustered", "random_unclustered",
                   "optimal_oracle"):
        assert (tmp_path / f"slots_{policy}.csv").exists()
        # only a policy that reads predictions has a predictor file
        assert (tmp_path / f"predictors_{policy}.csv").exists() == (
            policy != "random_unclustered")
    # too-large instance: oracle silently skipped under "all"
    big = tmp_path / "big"
    code = main(["--out-dir", str(big), "--seed", "1",
                 "--override", "N=40", "--override", "R=6", "--override", "U=4",
                 "--override", "T=30", "--override", "T_tau=30",
                 "--override", "N_w=16", "--override", "n_mc=16",
                 "--override", "policy=all"] + ["simulate"])
    assert code == EXIT_OK
    assert not (big / "slots_optimal_oracle.csv").exists()
    assert (big / "slots_proposed.csv").exists()


def test_simulate_is_byte_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(_tiny_args(out1) + ["simulate"]) == EXIT_OK
    assert main(_tiny_args(out2) + ["simulate"]) == EXIT_OK
    for name in ("slots_proposed.csv", "summary_proposed.txt", "predictors_proposed.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_oracle_guard_exit_code(tmp_path):
    code = main(["--out-dir", str(tmp_path), "--override", "policy=optimal_oracle",
                 "simulate"])
    assert code == EXIT_INFEASIBLE


def test_simulate_refuses_a_named_oracle_too_large_before_any_policy_runs(tmp_path, capsys):
    code = main(_tiny_args(tmp_path, ["N=40", "R=6",
                                      "policy=proposed,random_clustered,optimal_oracle"])
                + ["simulate"])
    assert code == EXIT_INFEASIBLE
    assert list(tmp_path.iterdir()) == []
    assert "E_bar" not in capsys.readouterr().out


def test_config_error_exit_code(tmp_path):
    code = main(["--out-dir", str(tmp_path), "--override", "epsilon=7",
                 "simulate"])
    assert code == EXIT_CONFIG
    code = main(["--out-dir", str(tmp_path), "--override", "bogus=1",
                 "simulate"])
    assert code == EXIT_CONFIG
    for policy in ("", "proposed,proposed"):  # names no policy, repeats one
        assert main(_tiny_args(tmp_path, [f"policy={policy}"]) + ["simulate"]) == EXIT_CONFIG
    assert list(tmp_path.iterdir()) == []


def test_nan_override_exits_with_config_error(tmp_path):
    assert main(_tiny_args(tmp_path, ["theta_s_O=nan"]) + ["simulate"]) == EXIT_CONFIG
    assert list(tmp_path.iterdir()) == []


def test_sweep_episode_axis(tmp_path):
    code = main(_tiny_args(tmp_path) + ["sweep", "--axis", "C_c",
                                        "--values", "1", "2", "--reps", "1"])
    assert code == EXIT_OK
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[0] == "axis,sweep_value,policy,seed,metric,metric_value"
    body = [r.split(",") for r in rows[1:]]
    assert {r[1] for r in body} == {"1", "2"}
    assert any(r[4] == "E_bar" for r in body)


@pytest.mark.parametrize("size, oracle_runs", [([], True), (["N=40", "R=6"], False)])
def test_sweep_policy_all_skips_only_an_oracle_too_large(tmp_path, size, oracle_runs):
    code = main(_tiny_args(tmp_path, ["policy=all"] + size)
                + ["sweep", "--axis", "C_c", "--values", "2"])
    assert code == EXIT_OK
    rows = [r.split(",") for r in (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
    others = {"proposed", "random_clustered", "random_unclustered"}
    assert {r[2] for r in rows} == others | ({"optimal_oracle"} if oracle_runs else set())
    assert all(sum(r[2] == policy for r in rows) == 2 for policy in others)  # E_bar, hit_O


def test_sweep_refuses_a_named_oracle_too_large_at_any_point(tmp_path):
    """R = 40 makes the oracle's search space too large; the sweep is refused
    before its R = 3 point runs, as simulate at R = 40 is."""
    args = _tiny_args(tmp_path, ["policy=optimal_oracle"])
    assert main(args + ["--override", "R=40", "simulate"]) == EXIT_INFEASIBLE
    code = main(args + ["sweep", "--axis", "R", "--values", "3", "40"])
    assert code == EXIT_INFEASIBLE
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("power", ["P=4000", "sigma2=4000", "sigma2=-4000", "P=-4000"])
def test_dbm_power_outside_the_float_range_is_a_config_error(tmp_path, power):
    assert main(_tiny_args(tmp_path, [power]) + ["simulate"]) == EXIT_CONFIG
    assert list(tmp_path.iterdir()) == []


def test_epsilon_too_small_to_count_its_samples_is_a_config_error(tmp_path):
    assert main(_tiny_args(tmp_path, ["epsilon=1e-200"]) + ["simulate"]) == EXIT_CONFIG
    assert list(tmp_path.iterdir()) == []


def test_sweep_epsilon_axis_failure_direction(tmp_path):
    code = main(["--out-dir", str(tmp_path), "--seed", "2",
                 "sweep", "--axis", "epsilon", "--values", "0.03", "0.3",
                 "--reps", "2"])
    assert code == EXIT_OK
    rows = [r.split(",") for r in
            (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
    sizes = {float(r[1]): float(r[5]) for r in rows if r[4] == "sample_size"}
    assert sizes[0.03] > sizes[0.3]
    errs = {}
    for r in rows:
        if r[4] == "mean_abs_error":
            errs.setdefault(float(r[1]), []).append(float(r[5]))
    assert sum(errs[0.3]) > sum(errs[0.03])  # looser plan, larger error


def test_sweep_full_scan_notice_once_per_point(tmp_path, caplog):
    # sample sizes 14979 and 6657 exceed the 4000-item population; 0.05 draws 600
    caplog.set_level(logging.INFO, logger="crancache")
    code = main(["--out-dir", str(tmp_path), "sweep", "--axis", "epsilon",
                 "--values", "0.01", "0.015", "0.05", "--reps", "2"])
    assert code == EXIT_OK
    notices = [r for r in caplog.records if "scanning fully" in r.getMessage()]
    assert len(notices) == 2
    rows = [r.split(",") for r in (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
    errors = {float(r[1]) for r in rows if r[4] == "mean_abs_error" and float(r[5]) == 0.0}
    assert errors == {0.01, 0.015}  # a full scan is exact


def test_sweep_delta_one_scores_a_one_item_sample(tmp_path):
    code = main(["--out-dir", str(tmp_path), "sweep", "--axis", "delta", "--values", "1.0"])
    assert code == EXIT_OK
    rows = [r.split(",") for r in (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
    metrics = {r[4]: float(r[5]) for r in rows}
    assert metrics["sample_size"] == 0  # the Hoeffding size; one item is still drawn
    assert 0.0 < metrics["mean_abs_error"] <= 1.0


def test_sweep_mobility_axis(tmp_path):
    code = main(["--out-dir", str(tmp_path), "sweep", "--axis", "W",
                 "--values", "4", "8", "--reps", "1"])
    assert code == EXIT_OK
    rows = [r.split(",") for r in
            (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
    caps = {float(r[1]): float(r[5]) for r in rows if r[4] == "memory_capacity"}
    assert caps[8.0] > caps[4.0]
    assert any(r[4] == "prediction_rmse" for r in rows)


def test_sweep_prediction_rmse_is_held_out(tmp_path):
    """The reservoir is driven with user 0's location codes in `simulate`, one
    per H slots. The readout is fitted on the last N_tr pairs, whose targets
    end at code trace - 1; the RMSE scores the last state against the N_s
    codes after the trace."""
    code = main(["--out-dir", str(tmp_path), "--override", "N_tr=50", "sweep",
                 "--axis", "W", "--values", "4", "--reps", "1"])
    assert code == EXIT_OK
    rows = [r.split(",") for r in (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
    [rmse] = [float(r[5]) for r in rows if r[4] == "prediction_rmse"]
    cfg = ExperimentConfig.default(N_tr=50, W=4)
    trace, horizon = 600, cfg["N_s"]
    esn = MobilityEsn(4, cfg.weight_spec(), horizon, ridge_lambda=cfg["lambda"],
                      seed=rng_for(cfg["seed"], "mobility_esn", 0))
    tour = generate_mobility(cfg["U"], cfg["r"], cfg["waypoints"], cfg["S"], cfg["seed"])[0]
    grid = LocationGrid(cfg["r"])
    codes = np.array([grid.encode(x, y) for x, y in tour.positions(2000)[::cfg["H"]]],
                     dtype=float)[:trace + horizon]
    states = esn.drive(codes[:trace])
    pairs = range(trace - horizon - 50, trace - horizon)
    esn.train(np.ascontiguousarray(states[pairs.start:pairs.stop].T),
              np.ascontiguousarray(np.array([codes[j + 1:j + 1 + horizon] for j in pairs]).T))
    held_out = esn.output_weights @ states[trace - 1] - codes[trace:]
    assert len(held_out) == horizon
    assert rmse == float(f"{np.sqrt(np.mean(held_out ** 2)):.10g}")


def test_sweep_mobility_horizon_beyond_the_trace_is_a_config_error(tmp_path):
    """600 samples leave no training pair for an N_s = 600 step horizon."""
    code = main(["--out-dir", str(tmp_path), "--override", "N_s=600", "sweep",
                 "--axis", "W", "--values", "4"])
    assert code == EXIT_CONFIG
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_rejects_unknown_axis(tmp_path):
    code = main(["--out-dir", str(tmp_path), "sweep", "--axis", "C_c",
                 "--values", "oops"])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("reps", ["0", "-2"])
def test_sweep_rejects_fewer_than_one_rep(tmp_path, reps):
    code = main(_tiny_args(tmp_path) + ["sweep", "--axis", "C_c", "--values", "1",
                                        "--reps", reps])
    assert code == EXIT_CONFIG
    assert not (tmp_path / "sweep.csv").exists()


def test_memcap_table(tmp_path, capsys):
    code = main(["--out-dir", str(tmp_path), "memcap", "--dist", "pointmass",
                 "--a", "0.9", "--W-range", "2:3", "--trace-len", "4000"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    rows = [r.split(",") for r in out.strip().splitlines()[1:]]
    assert float(rows[0][1]) == pytest.approx(1.6561)
    assert float(rows[1][1]) == pytest.approx(2.531441)
    assert (tmp_path / "memcap.csv").exists()


def test_memcap_symbinary_bounds(tmp_path, capsys):
    code = main(["--out-dir", str(tmp_path), "memcap", "--dist", "symbinary",
                 "--a", "0.9", "--W-range", "10,10", "--trace-len", "4000"])
    assert code == EXIT_OK
    row = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert float(row[1]) == pytest.approx(5.12158, abs=1e-4)
    assert float(row[3]) == 6.0


def test_memcap_honours_the_configured_seed(tmp_path):
    """memcap reads its seed from the config, as the other subcommands do."""
    config = tmp_path / "seed5.cfg"
    config.write_text("seed = 5\n")
    memcap = ["memcap", "--W-range", "2:3", "--trace-len", "4000"]
    written = {}
    for name, flags in [("flag", ["--seed", "5"]), ("override", ["--override", "seed=5"]),
                        ("config", ["--config", str(config)]), ("default", [])]:
        assert main(["--out-dir", str(tmp_path / name)] + flags + memcap) == EXIT_OK
        written[name] = (tmp_path / name / "memcap.csv").read_bytes()
    assert written["override"] == written["flag"] == written["config"]
    assert written["default"] != written["flag"]


def test_memcap_reads_the_weight_family_from_the_config(tmp_path):
    """The config's w_dist reaches memcap as --dist does; the override used to
    be ignored for the flag's own pointmass default."""
    config = tmp_path / "symbinary.cfg"
    config.write_text("w_dist = symbinary\n")
    memcap = ["memcap", "--W-range", "2:3", "--trace-len", "2000"]
    written = {}
    for name, flags, extra in [("flag", [], ["--dist", "symbinary"]),
                               ("override", ["--override", "w_dist=symbinary"], []),
                               ("config", ["--config", str(config)], []),
                               ("default", [], [])]:
        assert main(["--out-dir", str(tmp_path / name)] + flags + memcap + extra) == EXIT_OK
        written[name] = (tmp_path / name / "memcap.csv").read_bytes()
    assert written["override"] == written["flag"] == written["config"]
    assert written["default"] != written["flag"]


def test_sample_size_command(capsys):
    assert main(["sample-size", "0.05", "0.05"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "600"
    assert main(["sample-size", "0.2", "1.0"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "0"
    assert main(["sample-size", "0.03", "0.05"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "1665"


def read_trace(path, header):
    """A gen-data CSV's rows below `header`, each a list of strings of the header's length."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == header
    assert all(len(row) == len(header) for row in rows[1:])
    return rows[1:]


def test_gen_data_round_trips(tmp_path):
    code = main(_tiny_args(tmp_path) + ["gen-data"])
    assert code == EXIT_OK
    content = read_trace(tmp_path / "content.csv", CONTENT_HEADER)
    mobility = read_trace(tmp_path / "mobility.csv", MOBILITY_HEADER)
    assert len(content) == 4 * 30
    assert len(mobility) == 4 * 30
    radius = ExperimentConfig.default()["r"]
    assert all(float(x) ** 2 + float(y) ** 2 <= radius ** 2 + 1e-6 for _, _, x, y in mobility)


def test_gen_data_requests_are_the_simulated_requests(tmp_path, monkeypatch):
    from crancache.data import draw_requests
    from crancache.sim import Simulation, episode
    assert main(_tiny_args(tmp_path) + ["gen-data"]) == EXIT_OK
    content = [tuple(map(int, (row[0], row[1], row[-1])))
               for row in read_trace(tmp_path / "content.csv", CONTENT_HEADER)]

    realized = []

    def recording_draw(distributions, rng):
        requests = draw_requests(distributions, rng)
        realized.append(requests.tolist())
        return requests

    monkeypatch.setattr(episode, "draw_requests", recording_draw)
    cfg = ExperimentConfig.default()
    cfg.apply_overrides(TINY)
    Simulation(cfg, "proposed", seed=3).run()
    assert len(realized) == cfg["T"]
    assert [row[:2] for row in content] == [(u, k) for k in range(1, cfg["T"] + 1)
                                            for u in range(cfg["U"])]
    assert [row[-1] for row in content] == [c for slot in realized for c in slot]


def test_config_file_plus_override(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("T = 30\nT_tau = 30\nU = 4\nR = 3\nN = 6\nC_c = 2\nC_r = 1\n"
                   "N_w = 16\nn_mc = 16\n")
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out-dir", str(out), "--seed", "4",
                 "--override", "T=60", "simulate"])
    assert code == EXIT_OK
    assert len((out / "slots_proposed.csv").read_text().splitlines()) == 61


@pytest.mark.parametrize("w_range, trace_len", [
    ("5:3", "4000"),       # empty range
    ("2,x", "4000"),       # non-integer value
    ("0:3", "4000"),       # size below 1
    ("1:20", "250"),       # W = 13..20 need more than 250 samples
])
def test_memcap_rejects_bad_arguments_before_any_work(tmp_path, capsys, w_range, trace_len):
    out = tmp_path / "out"
    code = main(["--out-dir", str(out), "memcap", "--W-range", w_range,
                 "--trace-len", trace_len])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:")
    assert captured.out == ""
    assert not out.exists()
