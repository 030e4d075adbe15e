"""End-to-end CLI behavior: outputs, determinism, exit codes."""
import numpy as np
import pytest

from crancache.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, main
from crancache.config import ExperimentConfig
from crancache.esn import MobilityEsn
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


def test_config_error_exit_code(tmp_path):
    code = main(["--out-dir", str(tmp_path), "--override", "epsilon=7",
                 "simulate"])
    assert code == EXIT_CONFIG
    code = main(["--out-dir", str(tmp_path), "--override", "bogus=1",
                 "simulate"])
    assert code == EXIT_CONFIG


def test_sweep_episode_axis(tmp_path):
    code = main(_tiny_args(tmp_path) + ["sweep", "--axis", "C_c",
                                        "--values", "1", "2", "--reps", "1"])
    assert code == EXIT_OK
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[0] == "axis,sweep_value,policy,seed,metric,metric_value"
    body = [r.split(",") for r in rows[1:]]
    assert {r[1] for r in body} == {"1", "2"}
    assert any(r[4] == "E_bar" for r in body)


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
    """The readout is fitted on the last N_tr pairs, whose targets end at code
    trace - 1; the RMSE scores the last state against the N_s codes after the
    trace. A period of 4 codes and N_s = 10 put that state in another phase
    of the pattern than the last training pair's."""
    code = main(["--out-dir", str(tmp_path), "--override", "N_tr=50", "sweep",
                 "--axis", "W", "--values", "4", "--reps", "1"])
    assert code == EXIT_OK
    rows = [r.split(",") for r in (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
    [rmse] = [float(r[5]) for r in rows if r[4] == "prediction_rmse"]
    cfg = ExperimentConfig.default(N_tr=50, W=4)
    trace, horizon = 600, cfg["N_s"]
    esn = MobilityEsn(4, cfg.weight_spec(), horizon, ridge_lambda=cfg["lambda"],
                      seed=rng_for(cfg["seed"], "mobility_esn", 0))
    pattern = rng_for(cfg["seed"], "mobility", 1).integers(0, 400, size=4).astype(float)
    codes = np.concatenate([pattern] * (trace // 4 + 3))[:trace + horizon]
    states = esn.drive(codes[:trace])
    pairs = range(trace - horizon - 50, trace - horizon)
    esn.train(np.ascontiguousarray(states[pairs.start:pairs.stop].T),
              np.ascontiguousarray(np.array([codes[j + 1:j + 1 + horizon] for j in pairs]).T))
    held_out = esn.output_weights @ states[trace - 1] - codes[trace:]
    assert rmse == float(f"{np.sqrt(np.mean(held_out ** 2)):.10g}")


def test_sweep_rejects_unknown_axis(tmp_path):
    code = main(["--out-dir", str(tmp_path), "sweep", "--axis", "C_c",
                 "--values", "oops"])
    assert code == EXIT_CONFIG


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


def test_sample_size_command(capsys):
    assert main(["sample-size", "0.05", "0.05"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "600"
    assert main(["sample-size", "0.2", "1.0"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "0"
    assert main(["sample-size", "0.03", "0.05"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "1665"


def test_gen_data_round_trips(tmp_path):
    code = main(_tiny_args(tmp_path) + ["gen-data"])
    assert code == EXIT_OK
    from crancache.data import load_traces
    content = load_traces(tmp_path / "content.csv", "content")
    mobility = load_traces(tmp_path / "mobility.csv", "mobility")
    assert len(content) == 4 * 30
    assert len(mobility) == 4 * 30


def test_gen_data_requests_are_the_simulated_requests(tmp_path, monkeypatch):
    from crancache.config import ExperimentConfig
    from crancache.data import draw_requests, load_traces
    from crancache.sim import Simulation, episode
    assert main(_tiny_args(tmp_path) + ["gen-data"]) == EXIT_OK
    content = load_traces(tmp_path / "content.csv", "content")

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
