"""Tests for the command-line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pathfinder
from pathfinder import ConfigError, PathfinderOptions, make_target, run_single
from pathfinder.cli import main, validate_config

from test_options import NON_DEFAULT


def run_cli(tmp_path, *extra, check=0):
    out = tmp_path / "draws.csv"
    diag = tmp_path / "diag.json"
    argv = ["--out", str(out), "--diagnostics", str(diag), *extra]
    code = main(argv)
    assert code == check
    return out, diag


def no_solve(*args, **kwargs):
    raise AssertionError("a solve ran for a config that cannot be written")


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestValidateConfig:
    def test_defaults(self):
        echoed = validate_config({"target": "std_normal"}).echo()
        assert (echoed["history_size"], echoed["elbo_draws"], echoed["num_draws"]) == (6, 5, 100)
        assert (echoed["num_paths"], echoed["num_resample"]) == (20, 100)
        assert echoed["max_iters"] == 1000 and echoed["rel_tol"] == 1e-13
        assert echoed["mode"] == "multi" and echoed["seed"] == 0

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            validate_config({"target": "std_normal", "bogus": 1})

    def test_resample_budget(self):
        with pytest.raises(ConfigError, match="num_resample"):
            validate_config({"target": "std_normal", "num_paths": 2,
                             "num_draws": 10, "num_resample": 50})

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            validate_config({"target": "std_normal", "seed": -1})

    def test_seed_rule_is_the_apis(self):
        for seed in (-1, True, 1.5, "3"):
            with pytest.raises(ConfigError, match="mode: must be .*; seed must be an integer"):
                validate_config({"target": "std_normal", "seed": seed, "mode": "both"})
        for seed in (2**64 - 1, 2**64, 2**70):
            assert validate_config({"target": "std_normal", "seed": seed}).seed == seed

    def test_bad_wolfe_bounds(self):
        with pytest.raises(ConfigError, match="wolfe_c1"):
            validate_config({"target": "std_normal", "wolfe_c1": 1.5})
        validate_config({"target": "std_normal", "wolfe_c1": 0.95})  # no c2 above it

    def test_target_required(self):
        with pytest.raises(ConfigError, match="target"):
            validate_config({})

    @pytest.mark.parametrize("key", ["out", "diagnostics"])
    def test_output_in_missing_directory_rejected(self, tmp_path, key):
        missing = str(tmp_path / "no_such_dir" / "file")
        with pytest.raises(ConfigError, match=rf"^{key}: directory .*no_such_dir"):
            validate_config({"target": "std_normal", key: missing})
        validate_config({"target": "std_normal", key: str(tmp_path / "file")})

    @pytest.mark.parametrize("key", ["out", "diagnostics"])
    def test_output_that_is_a_directory_rejected(self, tmp_path, key):
        with pytest.raises(ConfigError, match=rf"^{key}: .* is a directory"):
            validate_config({"target": "std_normal", key: str(tmp_path)})

    def test_outputs_must_name_different_files(self, tmp_path):
        (tmp_path / "real").mkdir()
        (tmp_path / "link").symlink_to(tmp_path / "real")
        same = {"out": str(tmp_path / "real" / "f"), "diagnostics": str(tmp_path / "link" / "f")}
        with pytest.raises(ConfigError, match="^out and diagnostics: both name the file"):
            validate_config({"target": "std_normal", **same})
        validate_config({"target": "std_normal", **same, "diagnostics": str(tmp_path / "g")})

    @pytest.mark.parametrize("key", ["out", "diagnostics"])
    def test_output_path_must_be_a_path(self, key):
        for bad in ("", 3):
            with pytest.raises(ConfigError, match=rf"^{key}: must be a file path"):
                validate_config({"target": "std_normal", key: bad})

    def test_echo_excludes_execution_fields(self):
        cfg = validate_config({"target": "std_normal", "out": "x.csv", "diagnostics": "d.json"})
        echoed = cfg.echo()
        assert "out" not in echoed and "diagnostics" not in echoed
        assert echoed["target"] == "std_normal"


class TestMain:
    def test_multi_happy_path(self, tmp_path):
        out, diag = run_cli(
            tmp_path, "--target", "std_normal", "--dim", "3", "--mode", "multi",
            "--seed", "7", "--paths", "4", "--num-draws", "50", "--resample-draws", "25",
        )
        header, rows = read_csv(out)
        assert header == ["param.1", "param.2", "param.3"]
        assert len(rows) == 25
        payload = json.loads(diag.read_text())
        assert payload["config"]["seed"] == 7
        assert len(payload["paths"]) == 4
        assert payload["counters"]["n_logp"] > 0
        assert payload["num_output_draws"] == 25

    def test_single_happy_path(self, tmp_path):
        out, diag = run_cli(
            tmp_path, "--target", "neal_funnel", "--dim", "2", "--mode", "single",
            "--seed", "3", "--num-draws", "40",
        )
        header, rows = read_csv(out)
        assert len(rows) == 40
        payload = json.loads(diag.read_text())
        assert payload["k_hat"] is None
        assert payload["paths"][0]["l_star"] >= 1

    def test_unknown_target_is_config_error(self, tmp_path, capsys):
        run_cli(tmp_path, "--target", "nosuch", check=2)
        err = capsys.readouterr().err
        assert "nosuch" in err
        assert "Traceback" not in err

    def test_bad_param_combination(self, tmp_path, capsys):
        run_cli(tmp_path, "--target", "std_normal", "--dim", "2",
                "--paths", "2", "--num-draws", "10", "--resample-draws", "100",
                check=2)
        assert "num_resample" in capsys.readouterr().err

    def test_resample_budget_applies_to_multi_mode_only(self, tmp_path, capsys):
        args = ("--target", "std_normal", "--dim", "2", "--num-draws", "3")
        out, diag = run_cli(tmp_path, *args, "--mode", "single")
        assert len(read_csv(out)[1]) == 3
        assert "num_resample" not in json.loads(diag.read_text())["config"]
        run_cli(tmp_path, *args, "--mode", "multi", check=2)
        assert "num_resample" in capsys.readouterr().err

    def test_dim_conflict_with_target_params(self, tmp_path, capsys):
        args = ("--target", "std_normal", "--mode", "single", "--num-draws", "5")
        run_cli(tmp_path, *args, "--target-params", '{"dim": 3}', "--dim", "2", check=2)
        err = capsys.readouterr().err
        assert "dim" in err and "Traceback" not in err
        assert not (tmp_path / "draws.csv").exists()
        out, _ = run_cli(tmp_path, *args, "--target-params", '{"dim": 2}', "--dim", "2")
        assert len(read_csv(out)[0]) == 2

    @pytest.mark.parametrize("target, params, named", [
        ("mvn", '{"mu": [0.0, NaN], "cov": [[1, 0], [0, 1]]}', "mu must"),
        ("mvn", '{"mu": [0.0, "a"], "cov": [[1, 0], [0, 1]]}', "mu must"),
        ("mvn", '{"mu": [0.0, 0.0], "cov": [[1, 0], [0, Infinity]]}', "cov must"),
        ("mvn", '{"cov": [[1, 0], [0]]}', "cov must"),
        ("logistic_regression", '{"X": [[1.0], [NaN]], "y": [0, 1]}', "X must"),
        ("logistic_regression", '{"X": [[1.0], [2.0]], "y": [0, 1], "prior_scale": Infinity}',
         "prior_scale must"),
        ("logistic_regression", '{"X": [[1.0], [2.0]], "y": [0, 1], "prior_scale": "abc"}',
         "prior_scale must"),
        ("logistic_regression", '{"p": 5, "dim": 3}', "dim=3 conflicts"),
        ("logistic_regression", '{"p": 0}', "p must"),
    ])
    def test_bad_numeric_target_params(self, tmp_path, capsys, target, params, named):
        run_cli(tmp_path, "--target", target, "--target-params", params, check=2)
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "draws.csv").exists()

    def test_underflowing_prior_scale_exits_2(self, tmp_path, capsys):
        # Positive and finite, but its square is 0: a parameter error, not a
        # run in which every path fails.
        run_cli(tmp_path, "--target", "logistic_regression",
                "--target-params", '{"prior_scale": 1e-200}', check=2)
        err = capsys.readouterr().err
        assert "prior_scale" in err and "underflows" in err and "Traceback" not in err
        assert not (tmp_path / "draws.csv").exists()

    def test_dim_flag_conflicting_with_logistic_p(self, tmp_path, capsys):
        args = ("--target", "logistic_regression", "--mode", "single", "--num-draws", "5")
        run_cli(tmp_path, *args, "--dim", "3", "--target-params", '{"p": 5}', check=2)
        assert "dim=3 conflicts" in capsys.readouterr().err
        out, diag = run_cli(tmp_path, *args, "--dim", "5", "--target-params", '{"p": 5}')
        assert len(read_csv(out)[0]) == 5
        assert json.loads(diag.read_text())["target_dim"] == 5

    @pytest.mark.parametrize("flag", ["--out", "--diagnostics"])
    def test_output_in_missing_directory_exits_2_before_solving(
            self, tmp_path, monkeypatch, capsys, flag):
        monkeypatch.setattr(pathfinder.cli, "run_single", no_solve)
        run_cli(tmp_path, "--target", "std_normal", "--dim", "2", "--mode", "single",
                flag, str(tmp_path / "nonexistent" / "x"), check=2)
        err = capsys.readouterr().err
        assert f"error: {flag[2:]}: directory" in err and "Traceback" not in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", ["--out", "--diagnostics"])
    def test_output_that_is_a_directory_exits_2_before_solving(
            self, tmp_path, monkeypatch, capsys, flag):
        monkeypatch.setattr(pathfinder.cli, "run_multi", no_solve)
        taken = tmp_path / "taken"
        taken.mkdir()
        run_cli(tmp_path, "--target", "eight_schools_centered", flag, str(taken), check=2)
        err = capsys.readouterr().err
        assert f"error: {flag[2:]}: {str(taken)!r} is a directory" in err
        assert "Traceback" not in err
        assert sorted(tmp_path.iterdir()) == [taken] and not any(taken.iterdir())

    def test_same_file_for_both_outputs_exits_2_before_solving(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(pathfinder.cli, "run_single", no_solve)
        monkeypatch.chdir(tmp_path)
        code = main(["--target", "std_normal", "--dim", "2", "--mode", "single",
                     "--out", "same.txt", "--diagnostics", str(tmp_path / "same.txt")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: out and diagnostics: both name the file" in err and "same.txt" in err
        assert not any(tmp_path.iterdir())

    def test_write_failure_exits_2_without_traceback(self, tmp_path, capsys):
        # The directory exists, so the config passes, but the file name is
        # longer than the 255-byte name limit of common file systems, so the
        # file cannot be opened for writing.
        too_long = tmp_path / ("x" * 300)
        run_cli(tmp_path, "--target", "std_normal", "--dim", "2", "--mode", "single",
                "--num-draws", "5", "--out", str(too_long), check=2)
        err = capsys.readouterr().err
        assert "error: cannot write output:" in err and str(too_long) in err
        assert "Traceback" not in err

    def test_missing_dim_reported(self, tmp_path, capsys):
        run_cli(tmp_path, "--target", "std_normal", check=2)
        assert "dim" in capsys.readouterr().err

    def test_failed_single_path_exit_code(self, tmp_path):
        # a vanishing init radius starts the path at the exact mode, where
        # the zero gradient makes the run fail with the sentinel draw
        out = tmp_path / "d.csv"
        diag = tmp_path / "g.json"
        code = main([
            "--target", "mvn", "--target-params",
            json.dumps({"mu": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}),
            "--mode", "single", "--seed", "1", "--init-radius", "1e-300",
            "--out", str(out), "--diagnostics", str(diag),
        ])
        assert code == 1
        header, rows = read_csv(out)
        assert len(rows) == 1  # the sentinel draw

    def test_refused_start_is_a_stated_termination(self, tmp_path):
        # Starts of size ~1e200 overflow the log density, so the start is
        # refused: the path fails as nonfinite_at_init with its start as the draw.
        out, diag = run_cli(tmp_path, "--target", "std_normal", "--dim", "2", "--mode", "single",
                            "--seed", "1", "--init-radius", "1e200", check=1)
        payload = json.loads(diag.read_text())
        assert payload["termination_counts"] == {"nonfinite_at_init": 1}
        path = payload["paths"][0]
        assert (path["termination"], path["failed"], path["num_iters"]) == (
            "nonfinite_at_init", True, 0)
        assert (path["n_grad"], path["n_logp"]) == (1, 1)
        _, rows = read_csv(out)
        start = pathfinder.single_path.initial_point(
            2, pathfinder.PathfinderOptions(init_radius=1e200), 1, 0)
        assert [float(v) for v in rows[0]] == start.tolist() and len(rows) == 1

    def test_config_file_merge_flags_win(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "target": "std_normal", "dim": 2, "mode": "multi", "seed": 5,
            "num_paths": 3, "num_draws": 20, "num_resample": 10,
        }))
        out, diag = run_cli(tmp_path, "--config", str(cfg_file), "--seed", "9")
        payload = json.loads(diag.read_text())
        assert payload["config"]["seed"] == 9  # flag beat the file
        assert payload["config"]["num_paths"] == 3

    def test_workers_setting_is_rejected(self, tmp_path, monkeypatch, capsys):
        # Paths run in lockstep on one thread; there is no worker count to set.
        base = ["--target", "std_normal", "--dim", "2", "--out", str(tmp_path / "d.csv"),
                "--diagnostics", str(tmp_path / "d.json")]
        assert main([*base, "--workers", "2"]) == 2
        err = capsys.readouterr().err
        assert "--workers" in err and "Traceback" not in err
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"workers": 2}))
        assert main([*base, "--config", str(cfg_file)]) == 2
        err = capsys.readouterr().err
        assert "unknown config keys: workers" in err and "Traceback" not in err
        assert not (tmp_path / "d.csv").exists()
        monkeypatch.setenv("PATHFINDER_WORKERS", "not-an-int")  # no longer read
        assert main([*base, "--paths", "2", "--num-draws", "10", "--resample-draws", "5"]) == 0

    def test_diagnostics_json_round_trip(self, tmp_path):
        # every setting off its default, so a key the echo dropped would show
        first = tmp_path / "first.json"
        first.write_text(json.dumps({"target": "std_normal", "dim": 2, "seed": 11,
                                     **NON_DEFAULT}))
        out1, diag1 = run_cli(tmp_path, "--config", str(first))
        payload = json.loads(diag1.read_text())
        assert {k: payload["config"][k] for k in NON_DEFAULT} == NON_DEFAULT
        for record in payload["paths"]:
            assert set(record) == {
                "path", "failed", "termination", "num_iters", "l_star", "elbo_trace",
                "scored_candidates", "disqualified", "n_logp", "n_grad", "lbfgs_n_logp",
                "lbfgs_n_grad",
            }
        cfg_file = tmp_path / "echo.json"
        cfg_file.write_text(json.dumps(payload["config"]))
        out2 = tmp_path / "second.csv"
        diag2 = tmp_path / "second.json"
        code = main(["--config", str(cfg_file), "--out", str(out2),
                     "--diagnostics", str(diag2)])
        assert code == 0
        assert out2.read_bytes() == out1.read_bytes()
        assert diag2.read_bytes() == diag1.read_bytes()

    def test_seed_past_64_bits_runs_and_replays(self, tmp_path):
        seed = 2**70
        out1, diag1 = run_cli(tmp_path, "--target", "std_normal", "--dim", "2",
                              "--mode", "single", "--seed", str(seed), "--num-draws", "10")
        expected = run_single(make_target("std_normal", dim=2), PathfinderOptions(num_draws=10),
                              seed=seed).draws
        np.testing.assert_array_equal(np.loadtxt(out1, delimiter=",", skiprows=1), expected)
        payload = json.loads(diag1.read_text())
        assert payload["config"]["seed"] == seed
        cfg_file = tmp_path / "echo.json"
        cfg_file.write_text(json.dumps(payload["config"]))
        out2, diag2 = tmp_path / "second.csv", tmp_path / "second.json"
        assert main(["--config", str(cfg_file), "--out", str(out2),
                     "--diagnostics", str(diag2)]) == 0
        assert (out2.read_bytes(), diag2.read_bytes()) == (out1.read_bytes(), diag1.read_bytes())

    def test_repeat_run_gives_identical_bytes(self, tmp_path):
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / f"{run}.csv"
            diag = tmp_path / f"{run}.json"
            code = main([
                "--target", "neal_funnel", "--dim", "2", "--seed", "4",
                "--paths", "4", "--num-draws", "25", "--resample-draws", "10",
                "--out", str(out), "--diagnostics", str(diag),
            ])
            assert code == 0
            outputs.append((out.read_bytes(), diag.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_draw_values_parse_and_roundtrip(self, tmp_path):
        out, _ = run_cli(
            tmp_path, "--target", "std_normal", "--dim", "2", "--mode", "single",
            "--seed", "0", "--num-draws", "10",
        )
        _, rows = read_csv(out)
        values = np.array([[float(v) for v in row] for row in rows])
        assert values.shape == (10, 2)
        assert np.all(np.isfinite(values))


def test_module_entry_point(tmp_path):
    """``python -m pathfinder`` exits 2 without a traceback on a bad setting,
    and 0 on a small valid run."""
    src = str(Path(pathfinder.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "pathfinder", "--target", "std_normal", "--dim", "2",
             "--mode", "single", "--num-draws", "5", *args],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)

    bad = run("--init-radius", "inf")
    assert bad.returncode == 2
    assert "init_radius" in bad.stderr and "Traceback" not in bad.stderr
    good = run("--seed", "1")
    assert good.returncode == 0, good.stderr
    assert len((tmp_path / "draws.csv").read_text().splitlines()) == 6
