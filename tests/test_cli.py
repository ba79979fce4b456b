import io
import json

import pytest

import rcic.bench
from rcic.bench import read_rows
from rcic.cli import main
from rcic.graph import dump_edge_list
from rcic.solvers import run_solver
from rcic.synth import barabasi_albert_graph


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "graph.txt"
    with path.open("w") as fh:
        dump_edge_list(barabasi_albert_graph(60, 2, seed=3), fh)
    return str(path)


def read_report(path):
    with path.open() as fh:
        return read_rows(fh)


def run_flags(graph_file, out):
    return ["run", "--graph", graph_file, "--algo", "topk,greedy", "--k", "3",
            "--rumor-size", "4", "--rumor-seed", "1", "-T", "3",
            "--alpha", "3", "--beta", "1", "--samples", "50",
            "--out", out, "--format", "csv"]


def test_run_writes_report(graph_file, tmp_path):
    out = tmp_path / "report.csv"
    assert main(run_flags(graph_file, str(out))) == 0
    rows = read_report(out)
    assert [r.algorithm for r in rows] == ["topk", "greedy"]
    assert all(r.status == "ok" for r in rows)


def test_run_defaults_to_stdout(graph_file, capsys):
    code = main(["run", "--graph", graph_file, "--algo", "topk", "--k", "2",
                 "--rumor-size", "4", "-T", "2", "--samples", "20",
                 "--alpha", "3", "--beta", "1"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("# experiment report")
    assert "topk" in captured.out


def test_format_flag_selects_json(graph_file, capsys):
    code = main(["run", "--graph", graph_file, "--algo", "topk", "--k", "2",
                 "--rumor-size", "4", "-T", "2", "--samples", "20",
                 "--alpha", "3", "--beta", "1", "--format", "json"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["algorithm"] for r in rows] == ["topk"]


def test_bound_solvers_run_at_alpha_two(graph_file, tmp_path):
    # alpha <= 2: no tangent from the origin, but the hull envelope exists
    out = tmp_path / "flat.csv"
    assert main(["run", "--graph", graph_file, "--algo", "bab,probab",
                 "--k", "3", "--rumor-size", "4", "-T", "4", "--alpha", "2",
                 "--beta", "1", "--samples", "50", "--out", str(out)]) == 0
    rows = read_report(out)
    assert [r.algorithm for r in rows] == ["bab", "probab"]
    assert all(r.status == "ok" for r in rows)


def test_run_repeats_identically(graph_file, tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(run_flags(graph_file, str(out_a))) == 0
    assert main(run_flags(graph_file, str(out_b))) == 0
    rows_a, rows_b = read_report(out_a), read_report(out_b)
    assert [(r.chosen_set, r.objective) for r in rows_a] == \
        [(r.chosen_set, r.objective) for r in rows_b]


def test_run_reports_rows_computed_before_a_solver_error(graph_file, tmp_path,
                                                        monkeypatch, capsys):
    def fails_at_k3(algo, store, params, k, **kwargs):
        if k == 3:
            raise ValueError("solver failed")
        return run_solver(algo, store, params, k, **kwargs)

    # the second sweep point's solver raises
    monkeypatch.setattr(rcic.bench, "run_solver", fails_at_k3)
    flags = ["run", "--graph", graph_file, "--algo", "topk", "--k", "2",
             "--rumor-size", "4", "-T", "2", "--samples", "20", "--alpha", "3",
             "--beta", "1", "--sweep", "k=2,3"]
    out = tmp_path / "report.csv"
    assert main(flags) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert main(flags + ["--out", str(out)]) == 1
    for rows in (read_rows(io.StringIO(captured.out)), read_report(out)):
        assert [r.k for r in rows] == [2, 3]
        assert rows[0].status == "ok"
        assert rows[1].status == "error: ValueError: solver failed"


def test_infeasible_rumor_size_at_a_later_sweep_point_writes_no_report(
        graph_file, tmp_path, capsys):
    # the second sweep point's rumor set cannot be drawn: nothing is sampled
    out = tmp_path / "report.csv"
    assert main(["run", "--graph", graph_file, "--algo", "topk", "--k", "2",
                 "--rumor-size", "4", "-T", "2", "--samples", "20",
                 "--sweep", "rumor_size=4,500", "--out", str(out)]) == 1
    assert "infeasible" in capsys.readouterr().err
    assert not out.exists()


def test_nan_logistic_parameter_fails_before_sampling(graph_file, tmp_path,
                                                      monkeypatch, capsys):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before alpha was checked")

    monkeypatch.setattr(rcic.bench, "build_sample_stores", no_sampling)
    out = tmp_path / "report.csv"
    assert main(run_flags(graph_file, str(out)) + ["--alpha", "nan"]) == 1
    assert "alpha must be > 0" in capsys.readouterr().err
    assert not out.exists()


def test_thread_count_below_one_is_an_error(graph_file, capsys):
    assert main(["run", "--graph", graph_file, "--algo", "topk", "--k", "2",
                 "--rumor-size", "4", "--samples", "10",
                 "--threads", "-2"]) == 1
    assert "threads" in capsys.readouterr().err


def test_negative_seed_is_an_error(graph_file, tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert main(run_flags(graph_file, str(out)) + ["--seed", "-1"]) == 1
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_run_thread_count_does_not_change_results(graph_file, tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(run_flags(graph_file, str(out_a)) + ["--threads", "1"]) == 0
    assert main(run_flags(graph_file, str(out_b)) + ["--threads", "4"]) == 0
    rows_a, rows_b = read_report(out_a), read_report(out_b)
    assert [(r.chosen_set, r.objective) for r in rows_a] == \
        [(r.chosen_set, r.objective) for r in rows_b]


def test_config_file_supplies_flags(graph_file, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# benchmark settings\n"
        f"graph = {graph_file}\n"
        "algo = topk,greedy\n"
        "k = 3\n"
        "rumor_size = 4\n"
        "rumor-seed = 1\n"
        "T = 3\n"
        "alpha = 3\n"
        "beta = 1\n"
        "samples = 50\n")
    out_cfg = tmp_path / "from_cfg.csv"
    out_flag = tmp_path / "from_flags.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out_cfg)]) == 0
    assert main(run_flags(graph_file, str(out_flag))) == 0
    rows_cfg, rows_flag = read_report(out_cfg), read_report(out_flag)
    assert [(r.algorithm, r.chosen_set, r.objective) for r in rows_cfg] == \
        [(r.algorithm, r.chosen_set, r.objective) for r in rows_flag]


def test_command_line_beats_config_file(graph_file, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"graph = {graph_file}\nalgo = topk\nk = 2\n"
                   "rumor_size = 4\nT = 2\nsamples = 20\n")
    out = tmp_path / "out.csv"
    assert main(["run", "--config", str(cfg), "--k", "3",
                 "--out", str(out)]) == 0
    rows = read_report(out)
    assert rows[0].k == 3
    assert rows[0].chosen_size == 3


def test_command_line_zero_beats_config_file(graph_file, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"graph = {graph_file}\nalgo = topk\nk = 2\n"
                   "rumor_size = 4\nrumor_seed = 1\nT = 2\nsamples = 20\n")
    out = tmp_path / "out.csv"
    assert main(["run", "--config", str(cfg), "--rumor-seed", "0",
                 "--out", str(out)]) == 0
    assert [r.rumor_seed for r in read_report(out)] == [0]


def test_config_file_value_outside_flag_choices_is_an_error(graph_file,
                                                           tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"graph = {graph_file}\nalgo = topk\nk = 2\n"
                   "rumor_size = 4\nsamples = 20\nformat = xml\n")
    out = tmp_path / "out.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "run.cfg:6" in captured.err
    assert "xml" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_unknown_config_key_is_an_error(graph_file, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"graph = {graph_file}\nwalks = 50\n")
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "run.cfg:2" in err
    assert "walks" in err


def test_config_keys_are_the_commands_own_flags(graph_file, tmp_path,
                                                monkeypatch, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"graph = {graph_file}\nfractions = 0.5\nalgo = topk\n"
                   "k = 2\nrumor_size = 3\nT = 2\nsamples = 20\n")

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the config file was checked")

    with monkeypatch.context() as m:
        m.setattr(rcic.bench, "build_sample_store", no_sampling)
        assert main(["run", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert f"{cfg}:2: unknown key 'fractions'" in captured.err
    assert captured.out == ""
    out = tmp_path / "scal.csv"
    assert main(["scalability", "--config", str(cfg), "--out", str(out)]) == 0
    assert [r.fraction for r in read_report(out)] == [0.5]


def test_undirected_is_not_an_option(graph_file, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"graph = {graph_file}\nundirected = true\n")
    assert main(["run", "--config", str(cfg)]) == 1
    assert "run.cfg:2: unknown key 'undirected'" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["run", "--graph", graph_file, "--undirected"])


def test_config_file_sets_directed(graph_file, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("directed = true\n")
    outs = {name: tmp_path / f"{name}.csv" for name in ("cfg", "flag", "plain")}
    assert main(run_flags(graph_file, str(outs["cfg"]))
                + ["--config", str(cfg)]) == 0
    assert main(run_flags(graph_file, str(outs["flag"])) + ["--directed"]) == 0
    assert main(run_flags(graph_file, str(outs["plain"]))) == 0
    rows = {name: [(r.chosen_set, r.objective, r.influenced_mass)
                   for r in read_report(out)]
            for name, out in outs.items()}
    assert rows["cfg"] == rows["flag"]
    assert rows["cfg"] != rows["plain"]


def test_missing_graph_is_an_error(capsys):
    assert main(["run", "--algo", "topk", "--k", "1"]) == 1
    assert "no graph" in capsys.readouterr().err


def test_unreadable_graph_is_an_error(tmp_path, capsys):
    assert main(["run", "--graph", str(tmp_path / "nope.txt"),
                 "--algo", "topk", "--k", "1", "--rumor-size", "2",
                 "--samples", "10"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_unknown_algorithm_is_an_error(graph_file, capsys):
    assert main(["run", "--graph", graph_file, "--algo", "magic",
                 "--k", "1", "--rumor-size", "4", "--samples", "10"]) == 1
    assert "magic" in capsys.readouterr().err


def test_sweep_flag(graph_file, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["run", "--graph", graph_file, "--algo", "topk",
                 "--k", "2", "--rumor-size", "4", "-T", "3", "--alpha", "3",
                 "--beta", "1", "--samples", "30", "--sweep", "T=2,3",
                 "--out", str(out)]) == 0
    rows = read_report(out)
    assert [(r.sweep_axis, r.sweep_value) for r in rows] == \
        [("T", "2"), ("T", "3")]


def test_fractional_integer_sweep_value_is_an_error(graph_file, capsys):
    base = ["run", "--graph", graph_file, "--algo", "topk", "--k", "1",
            "--rumor-size", "4", "--samples", "10"]
    assert main(base + ["--sweep", "k=2.7,3.2"]) == 1
    assert main(base + ["--sweep", "T=2.9"]) == 1
    captured = capsys.readouterr()
    assert "integers" in captured.err
    assert captured.out == ""


def test_bad_sweep_specs(graph_file, capsys):
    base = ["run", "--graph", graph_file, "--algo", "topk", "--k", "1",
            "--rumor-size", "4", "--samples", "10"]
    assert main(base + ["--sweep", "T:2,3"]) == 1
    assert main(base + ["--sweep", "gamma=1,2"]) == 1


def test_scalability_command(graph_file, tmp_path):
    out = tmp_path / "scal.csv"
    assert main(["scalability", "--graph", graph_file, "--algo", "topk",
                 "--k", "2", "--rumor-size", "3", "-T", "2", "--alpha", "3",
                 "--beta", "1", "--samples", "20",
                 "--fractions", "0.5,1.0", "--out", str(out)]) == 0
    rows = read_report(out)
    assert [r.fraction for r in rows] == [0.5, 1.0]


def test_scalability_keeps_earlier_slices_after_a_solver_error(
        graph_file, tmp_path, monkeypatch, capsys):
    calls = []

    def third_call_fails(*args, **kwargs):
        calls.append(args[0])
        if len(calls) == 3:
            raise ValueError("solver failed")
        return run_solver(*args, **kwargs)

    monkeypatch.setattr(rcic.bench, "run_solver", third_call_fails)
    out = tmp_path / "scal.csv"
    assert main(["scalability", "--graph", graph_file, "--algo", "topk",
                 "--k", "2", "--rumor-size", "2", "-T", "2", "--alpha", "3",
                 "--beta", "1", "--samples", "20",
                 "--fractions", "0.5,0.75,1.0", "--out", str(out)]) == 1
    assert "solver failed" in capsys.readouterr().err
    rows = read_report(out)
    assert [r.fraction for r in rows] == [0.5, 0.75, 1.0]
    assert [r.status for r in rows] == [
        "ok", "ok", "error: ValueError: solver failed"]


def test_run_reports_any_solver_exception(graph_file, tmp_path, monkeypatch,
                                          capsys):
    def second_call_fails(*args, **kwargs):
        if args[0] == "greedy":
            raise RuntimeError("solver broke")
        return run_solver(*args, **kwargs)

    monkeypatch.setattr(rcic.bench, "run_solver", second_call_fails)
    out = tmp_path / "report.csv"
    assert main(run_flags(graph_file, str(out))) == 1
    assert "error: RuntimeError: solver broke" in capsys.readouterr().err
    assert [r.status for r in read_report(out)] == [
        "ok", "error: RuntimeError: solver broke"]


def test_scalability_requires_fractions(graph_file, capsys):
    assert main(["scalability", "--graph", graph_file, "--algo", "topk",
                 "--k", "2", "--rumor-size", "3", "--samples", "20"]) == 1
    assert "fractions" in capsys.readouterr().err


def test_oracle_submodularity(capsys):
    assert main(["oracle", "--check", "submodularity", "--trials", "300"]) == 0
    assert "not submodular" in capsys.readouterr().out


def test_oracle_envelope_submodularity(capsys):
    assert main(["oracle", "--check", "envelope-submodularity",
                 "--trials", "200"]) == 0
    assert "pass" in capsys.readouterr().out


def test_oracle_dominance(capsys):
    assert main(["oracle", "--check", "dominance", "--trials", "150"]) == 0
    assert "pass" in capsys.readouterr().out
    # zero probes is no evidence: an error, not a pass
    assert main(["oracle", "--check", "dominance", "--trials", "0"]) == 1
    assert "trials" in capsys.readouterr().err
