"""Tests for the options tree and what is derived from it: flags, config keys,
the echoed config and the kind checks."""

import json
import math

import pytest

from pathfinder import LbfgsOptions, MultipathOptions, PathfinderOptions, cli
from pathfinder.options import kind_problem, settings, to_flat

SETTINGS = list(settings(MultipathOptions))
BY_KEY = {s.key: s for s in SETTINGS}

# A valid, non-default value for every setting, small enough for a quick run.
NON_DEFAULT = {
    "num_paths": 3, "num_resample": 15, "elbo_draws": 4, "num_draws": 30,
    "init_radius": 1.5, "history_size": 5, "rel_tol": 1e-12, "max_iters": 500,
    "wolfe_c1": 2e-4, "pair_eps": 1e-15, "grad_zero_tol": 1e-11,
}

# Each bad value as a flag argument, and as the JSON value a config file gives.
BAD_VALUES = {"nan": math.nan, "inf": math.inf, "0": 0, "-1": -1, "true": True}


def test_non_default_values_cover_every_setting():
    assert set(NON_DEFAULT) == set(BY_KEY)
    for key, value in NON_DEFAULT.items():
        assert value != BY_KEY[key].default, key


def test_setting_names_are_unique_across_the_tree():
    keys = [s.key for s in SETTINGS]
    flags = [s.flag for s in SETTINGS]
    assert len(set(keys)) == len(keys) and len(set(flags)) == len(flags)
    run_fields = {"target", "target_params", "dim", "mode", "seed", "out", "diagnostics",
                  "workers", "config"}
    assert not run_fields & set(keys)


def test_each_setting_has_one_flag_in_help_and_one_echo_key():
    parser = cli.build_parser()
    help_text = parser.format_help()
    echoed = cli.validate_config({"target": "std_normal"}).echo()
    for s in SETTINGS:
        actions = [a for a in parser._actions if a.dest == s.key]
        assert [a.option_strings for a in actions] == [[s.flag]], s.key
        assert s.flag in help_text
        assert echoed[s.key] == s.default
    assert set(echoed) == {"target", "target_params", "dim", "mode", "seed"} | set(BY_KEY)


class Captured(Exception):
    pass


def capture(*args, **kwargs):
    raise Captured(args[1])


@pytest.mark.parametrize("key", sorted(BY_KEY))
def test_flag_value_reaches_run_multi(key, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "run_multi", capture)
    s = BY_KEY[key]
    with pytest.raises(Captured) as caught:
        cli.main(["--target", "std_normal", "--dim", "2", "--out", str(tmp_path / "d.csv"),
                  s.flag, repr(NON_DEFAULT[key])])
    expected = {t.key: t.default for t in SETTINGS}
    expected[key] = NON_DEFAULT[key]
    assert to_flat(caught.value.args[0]) == expected


@pytest.mark.parametrize("key", sorted(s.key for s in settings(PathfinderOptions)))
def test_flag_value_reaches_run_single(key, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "run_single", capture)
    s = BY_KEY[key]
    with pytest.raises(Captured) as caught:
        cli.main(["--target", "std_normal", "--dim", "2", "--mode", "single",
                  "--out", str(tmp_path / "d.csv"), s.flag, repr(NON_DEFAULT[key])])
    opts = caught.value.args[0]
    assert isinstance(opts, PathfinderOptions)
    assert to_flat(opts)[key] == NON_DEFAULT[key]


@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("key", sorted(BY_KEY) + ["dim", "workers"])
def test_cli_rejects_bad_values(key, via, bad, tmp_path, capsys):
    flag = BY_KEY[key].flag if key in BY_KEY else "--" + key
    argv = ["--target", "std_normal", "--mode", "single",
            "--out", str(tmp_path / "d.csv"), "--diagnostics", str(tmp_path / "d.json")]
    if key != "dim":
        argv += ["--dim", "2"]
    if via == "flag":
        argv += [flag, bad]
    else:
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({key: BAD_VALUES[bad]}))
        argv += ["--config", str(cfg_file)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    message = err.strip().splitlines()[-1]  # after argparse's usage lines
    assert key in message or flag + ":" in message
    assert "Traceback" not in err
    assert not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize("bad", BAD_VALUES.values())
@pytest.mark.parametrize("key", sorted(BY_KEY))
def test_constructors_reject_bad_values(key, bad):
    s = BY_KEY[key]
    with pytest.raises(ValueError, match=s.field):
        s.owner(**{s.field: bad})


def test_kinds_bound_each_setting():
    assert LbfgsOptions(c1=0.95).c1 == 0.95  # no curvature bound c2 to stay below
    with pytest.raises(ValueError, match="c1"):
        LbfgsOptions(c1=1.0)
    with pytest.raises(ValueError, match="num_draws"):
        PathfinderOptions(num_draws=2.0)
    for s in SETTINGS:
        assert kind_problem(s.key, s.kind, s.default) is None


def test_removed_wolfe_c2_is_rejected(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"target": "std_normal", "dim": 2, "wolfe_c2": 0.9}))
    assert cli.main(["--config", str(cfg_file)]) == 2
    assert "unknown config keys: wolfe_c2" in capsys.readouterr().err
    assert cli.main(["--target", "std_normal", "--dim", "2", "--wolfe-c2", "0.9"]) == 2
    assert "--wolfe-c2" in capsys.readouterr().err
