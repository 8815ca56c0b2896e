import dataclasses
import json
import math
import os
import subprocess
import sys
import types
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmeter import autodiff as ad
from fedmeter import cli
from fedmeter import experiment as ex
from fedmeter.attacks import awgn
from fedmeter.experiment import (ConfigError, DataConfig, ExperimentConfig,
                                 apply_override, build_client_data, config_from_dict,
                                 config_to_dict, recommended_train_config,
                                 run_experiment, validate_config)
from fedmeter.models import SEQ_LEN, load_weights
from fedmeter.seeding import rng_for


def tiny_dict(out_dir, **kw):
    base = {
        "name": "tiny",
        "model": "lstm",
        "setting": "federated",
        "protocol": "baseline",
        "master_seed": 1,
        "output_dir": str(out_dir),
        "data": {"source": "synthetic", "households": 3, "days": 20,
                 "anomaly_fraction": 0.15},
        "federation": {"rounds": 2, "local_epochs": 1, "malicious_count": 0},
        "train": {"epochs": 2, "batch_size": 16, "seed": 0},
    }
    for key, value in kw.items():
        if isinstance(value, dict):
            base[key] = {**base.get(key, {}), **value}
        else:
            base[key] = value
    return base


def tiny_cfg(out_dir, **kw):
    return config_from_dict(tiny_dict(out_dir, **kw))


def dotted_fields(cls, prefix=""):
    """Every config field by its dotted name, the sections themselves included."""
    for key, hint in typing.get_type_hints(cls).items():
        yield prefix + key
        if dataclasses.is_dataclass(hint):
            yield from dotted_fields(hint, f"{prefix}{key}.")


def has_annotated_type(hint, value) -> bool:
    """``value`` is of the type ``hint`` names; a tuple field holds a tuple,
    a bool is not a number and a float is finite."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if dataclasses.is_dataclass(hint):
        return isinstance(value, hint) and all(
            has_annotated_type(h, getattr(value, k))
            for k, h in typing.get_type_hints(hint).items())
    if origin is types.UnionType:
        return value is None or has_annotated_type(args[0], value)
    if origin is tuple:
        return (isinstance(value, tuple) and (args[-1] is Ellipsis or len(value) == len(args))
                and all(has_annotated_type(args[0], v) for v in value))
    if origin is dict:
        return isinstance(value, dict) and all(
            isinstance(k, str) and has_annotated_type(args[1], v) for k, v in value.items())
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint) and \
        (hint is not float or math.isfinite(value))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([10 ** 400, 1e309, -1e309, float("nan"), "csv", "central", "pgd",
                       "label_flip", "inference_attack", "sweep_epsilon"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


class TestConfig:
    def test_roundtrip(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg

    def test_roundtrip_through_json(self, tmp_path):
        cfg = tiny_cfg(tmp_path, epsilon_list=[0.3, 0.6], malicious_fraction_list=[0.5],
                       data={"kind_weights": {"drop": 0.5, "pos_spike": 0.5},
                             "r_range": [0.6, 1.2]},
                       federation={"clients_per_round": 2},
                       attack={"family": "pgd", "eps_ball": 0.2, "project_linf": True},
                       train={"lr_milestones": [3, 7]})
        assert cfg.data.r_range == (0.6, 1.2) and cfg.train.lr_milestones == (3, 7)
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg

    @settings(max_examples=500, deadline=None)
    @given(field=st.sampled_from(list(dotted_fields(ExperimentConfig))), value=JSON_VALUES)
    def test_any_json_value_is_typed_or_names_its_field(self, field, value):
        raw = tiny_dict("runs/never-written")
        apply_override(raw, field, json.dumps(value))
        try:
            cfg, _ = validate_config(config_from_dict(raw))
        except ConfigError as exc:
            assert field in str(exc)
        else:
            assert has_annotated_type(ExperimentConfig, cfg)

    def test_defaults_fill(self):
        cfg = config_from_dict({})
        assert cfg.federation.poison_fraction == 0.3
        assert cfg.attack.pgd_iters == 10
        assert cfg.attack.awgn_variance == 0.1
        assert cfg.threshold == 0.5
        assert cfg.data.households == 19 and cfg.data.days == 365

    def test_empty_attack_normalizes_to_baseline(self):
        cfg = config_from_dict({})
        assert cfg.attack.family == "none" and cfg.protocol == "baseline"

    def test_validate_returns_derived_seeds(self, tmp_path):
        _, seeds = validate_config(tiny_cfg(tmp_path))
        assert {"master", "federation", "central", "attack-eval"} <= set(seeds)

    def test_paper_scale_malicious_count_valid(self, tmp_path):
        cfg = tiny_cfg(tmp_path, data={"households": 19, "days": 20},
                       federation={"malicious_count": 9},
                       attack={"family": "pgd", "epsilon": 0.5},
                       protocol="training_attack")
        validate_config(cfg)

    def test_excess_malicious_count_rejected(self, tmp_path):
        cfg = tiny_cfg(tmp_path, data={"households": 19},
                       federation={"malicious_count": 20},
                       attack={"family": "pgd"}, protocol="training_attack")
        with pytest.raises(ConfigError, match="malicious_count 20"):
            validate_config(cfg)

    def test_all_violations_listed_together(self, tmp_path):
        cfg = tiny_cfg(tmp_path, setting="central", threshold=2.0,
                       federation={"malicious_count": 2, "clients_per_round": 2})
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        message = str(err.value)
        assert "malicious_count" in message
        assert "clients_per_round" in message
        assert "threshold" in message

    @pytest.mark.parametrize("section,key,value", [
        ("federation", "rounds", 0),
        ("train", "epochs", 0),
        ("train", "epochs", -1),
        ("train", "batch_size", 0),
        ("attack", "epsilon", float("nan")),
        ("attack", "epsilon", float("inf")),
        ("attack", "epsilon", -0.1),
        ("federation", "local_epochs", 0),
        ("federation", "rounds", "3"),
        ("train", "epochs", {"x": 1}),
        ("train", "batch_size", True),
        ("federation", "clients_per_round", 2.0),
        ("federation", "poison_fraction", "0.3"),
        ("data", "anomaly_fraction", 2.0),
        ("data", "anomaly_fraction", "0.1"),
        ("data", "r_range", (2.0, 1.0)),
        ("data", "r_range", 5),
        ("data", "kind_weights", {"drop": "1"}),
        ("train", "base_lr", 0.0),
        ("train", "lr_decay", -0.1),
        ("train", "rho", 1.0),
        ("train", "eps_opt", 0.0),
        ("train", "focal_alpha", 1.5),
        ("train", "focal_gamma", -1.0),
        ("train", "lr_milestones", (0, 50)),
        ("attack", "eps_ball", -0.1),
    ])
    def test_out_of_range_value_rejected(self, tmp_path, section, key, value):
        cfg = tiny_cfg(tmp_path)
        setattr(getattr(cfg, section), key, value)
        with pytest.raises(ConfigError, match=rf"{section}\.{key} must be"):
            validate_config(cfg)

    @pytest.mark.parametrize("seed", ["x", 1.5, True])
    def test_master_seed_must_be_an_integer(self, tmp_path, seed):
        with pytest.raises(ConfigError, match="master_seed must be an integer"):
            validate_config(tiny_cfg(tmp_path, master_seed=seed))

    @pytest.mark.parametrize("eps", [float("nan"), -0.5])
    def test_bad_sweep_epsilon_rejected(self, tmp_path, eps):
        with pytest.raises(ConfigError, match="epsilon_list entries"):
            cfg = tiny_cfg(tmp_path, protocol="sweep_epsilon", epsilon_list=[0.1, eps])
            validate_config(cfg)

    def test_attack_protocol_requires_family(self, tmp_path):
        cfg = tiny_cfg(tmp_path, protocol="inference_attack")
        with pytest.raises(ConfigError, match="requires an attack"):
            validate_config(cfg)

    def test_baseline_contradicts_attack(self, tmp_path):
        cfg = tiny_cfg(tmp_path, attack={"family": "fgsm"})
        with pytest.raises(ConfigError, match="baseline"):
            validate_config(cfg)

    def test_sweeps_are_federated_only(self, tmp_path):
        cfg = tiny_cfg(tmp_path, setting="central", protocol="sweep_epsilon",
                       attack={"family": "fgsm"})
        with pytest.raises(ConfigError, match="federated"):
            validate_config(cfg)

    @pytest.mark.parametrize("raw", [{"name": {"x": 1}}, {"output_dir": 3}])
    def test_non_string_name_or_output_dir_rejected(self, raw):
        with pytest.raises(ConfigError, match="must be a string"):
            config_from_dict(raw)

    @pytest.mark.parametrize("raw,name", [({"data": {"housholds": 3}}, "data.housholds"),
                                          ({"epochs": 3}, "epochs")])
    def test_unknown_key_rejected(self, raw, name):
        with pytest.raises(ConfigError, match=f"{name} is not a config setting"):
            config_from_dict(raw)

    def test_apply_override_parses_json_values(self):
        raw = {}
        apply_override(raw, "train.epochs", "5")
        apply_override(raw, "attack.family", "pgd")
        apply_override(raw, "data.anomaly_fraction", "0.2")
        assert raw == {"train": {"epochs": 5}, "attack": {"family": "pgd"},
                       "data": {"anomaly_fraction": 0.2}}

    def test_recommended_train_config(self):
        assert recommended_train_config("lstm").base_lr == 0.01
        assert recommended_train_config("transformer").base_lr == 1e-3
        assert recommended_train_config("transformer", epochs=7).epochs == 7


class TestBuildClientData:
    def test_synthetic_shapes(self, tmp_path):
        clients = build_client_data(tiny_cfg(tmp_path))
        assert len(clients) == 3
        for c in clients:
            assert c.train.profiles.shape[1] == 24
            # stratified split keeps both classes on both sides
            assert set(np.unique(c.train.labels)) == {0, 1}
            assert len(c.train) + len(c.test) == 23  # 20 days + 15% anomalies

    def test_windows_match_synthesizer_design(self, tmp_path):
        clients = build_client_data(tiny_cfg(tmp_path, data={"days": 120}))
        for c in clients:
            assert c.windows.low_hours == (4, 5, 6, 7, 8, 9)
            assert c.windows.high_hours == (0, 18, 19, 20, 21, 22, 23)

    def test_csv_route_matches_synthetic_route(self, tmp_path):
        csv_path = tmp_path / "meters.csv"
        assert cli.main(["synth-data", "--households", "2", "--days", "15",
                         "--seed", "1", "--out", str(csv_path)]) == 0
        synthetic = build_client_data(tiny_cfg(tmp_path, data={"households": 2,
                                                               "days": 15}))
        from_csv = build_client_data(tiny_cfg(
            tmp_path, data={"source": "csv", "csv_path": str(csv_path),
                            "households": 2, "days": 15}))
        for a, b in zip(synthetic, from_csv):
            assert a.client_id == b.client_id
            # CSV renders 12 significant digits, so equality is approximate
            np.testing.assert_allclose(a.train.profiles, b.train.profiles, rtol=1e-9)
            np.testing.assert_array_equal(a.train.labels, b.train.labels)


class TestRunExperiment:
    def test_baseline_outputs(self, tmp_path):
        result = run_experiment(tiny_cfg(tmp_path / "run"))
        assert len(result.rows) == 1
        assert result.rows[0][0] == "LSTM (FL)"
        assert result.rows[0][1] == "No Attack"
        assert result.rows[0][-1] == ""  # asr column empty
        out = tmp_path / "run"
        for name in ("metrics.csv", "config.json", "manifest.json",
                     "rounds_clean.jsonl", "final_clean.ckpt"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert "seeds" in manifest and "config_sha256" in manifest

    def test_inference_attack_outputs(self, tmp_path):
        cfg = tiny_cfg(tmp_path / "run", setting="central",
                       protocol="inference_attack",
                       attack={"family": "fgsm", "epsilon": 0.4},
                       federation={"rounds": 2, "malicious_count": 0,
                                   "clients_per_round": None})
        result = run_experiment(cfg)
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row[0] == "LSTM (Central)" and row[1] == "FGSM"
        assert row[-1] != ""  # asr present
        adv = (tmp_path / "run" / "adversarial_test.csv").read_text().splitlines()
        assert adv[0].endswith("attack_family,epsilon")
        assert adv[1].endswith("fgsm,0.4")

    def test_training_attack_rows(self, tmp_path):
        cfg = tiny_cfg(tmp_path / "run", protocol="training_attack",
                       attack={"family": "label_flip", "flip_fraction": 1.0},
                       federation={"rounds": 2, "malicious_count": 1,
                                   "poison_fraction": 0.3})
        result = run_experiment(cfg)
        assert [r[1] for r in result.rows] == ["No Attack", "Label Flip"]
        assert result.rows[1][-1] != ""

    def test_sweep_epsilon_cardinality_and_plots(self, tmp_path):
        cfg = tiny_cfg(tmp_path / "run", protocol="sweep_epsilon",
                       epsilon_list=[0.1, 0.5],
                       attack={"family": "fgsm", "epsilon": 0.1},
                       federation={"rounds": 1, "malicious_count": 1})
        result = run_experiment(cfg)
        assert len(result.rows) == 4  # 2 epsilons x {fgsm, pgd}
        fig = (tmp_path / "run" / "fig5b.csv").read_text().splitlines()
        assert fig[0] == "epsilon,attack,accuracy"
        assert len(fig) == 1 + 4

    def test_sweep_malicious_plot(self, tmp_path):
        cfg = tiny_cfg(tmp_path / "run", protocol="sweep_malicious",
                       malicious_fraction_list=[0.34, 0.67],
                       attack={"family": "pgd", "epsilon": 0.3, "pgd_iters": 2},
                       federation={"rounds": 1, "malicious_count": 0})
        result = run_experiment(cfg)
        fig = (tmp_path / "run" / "fig5a.csv").read_text().splitlines()
        assert fig[0] == "malicious_fraction,attack,accuracy"
        assert len(result.rows) == 2 and len(fig) == 3

    def test_central_training_attack_poisons_the_pooled_data(self, tmp_path):
        cfg = tiny_cfg(tmp_path / "run", setting="central", protocol="training_attack",
                       attack={"family": "fgsm", "epsilon": 0.5})
        result = run_experiment(cfg)
        assert [r[1] for r in result.rows] == ["No Attack", "FGSM"]
        assert result.rows[1][-1] != ""
        clean = load_weights(tmp_path / "run" / "final_clean.ckpt")
        attacked = load_weights(tmp_path / "run" / "final_fgsm.ckpt")
        assert any(not np.array_equal(clean[k], attacked[k]) for k in clean)
        assert not list((tmp_path / "run").glob("rounds_*.jsonl"))

    def test_inference_attack_awgn_draws_the_attack_eval_stream(self, tmp_path):
        cfg = tiny_cfg(tmp_path / "run", protocol="inference_attack",
                       attack={"family": "awgn", "awgn_variance": 0.2})
        result = run_experiment(cfg)
        assert result.rows[0][1] == "AWGN" and result.rows[0][-1] != ""
        lines = (tmp_path / "run" / "adversarial_test.csv").read_text().splitlines()[1:]
        x_adv = np.array([[float(v) for v in line.split(",")[:SEQ_LEN]] for line in lines])
        x_test, _, _ = ex.pooled([c.test for c in build_client_data(cfg)])
        expected = awgn(x_test, 0.2, rng_for(cfg.master_seed, "attack-eval"))
        # the CSV renders 12 significant digits
        np.testing.assert_allclose(x_adv, expected, rtol=1e-10, atol=1e-11)

    def test_byte_identical_reruns(self, tmp_path):
        cfg_a = tiny_cfg(tmp_path / "a", protocol="training_attack",
                         attack={"family": "fgsm", "epsilon": 0.3},
                         federation={"rounds": 2, "malicious_count": 1})
        cfg_b = tiny_cfg(tmp_path / "b", protocol="training_attack",
                         attack={"family": "fgsm", "epsilon": 0.3},
                         federation={"rounds": 2, "malicious_count": 1})
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        for name in ("metrics.csv", "rounds_clean.jsonl", "rounds_attacked_fgsm.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes(), name

    def test_different_seed_changes_outputs(self, tmp_path):
        # untrained tiny runs can tie on 2-decimal metrics, so compare the
        # full-precision round logs
        run_experiment(tiny_cfg(tmp_path / "a"))
        run_experiment(tiny_cfg(tmp_path / "b", master_seed=2))
        a = (tmp_path / "a" / "rounds_clean.jsonl").read_text()
        b = (tmp_path / "b" / "rounds_clean.jsonl").read_text()
        assert a != b

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ex.OUTPUT_ROOT_ENV, str(tmp_path))
        cfg = tiny_cfg("relative_run")
        result = run_experiment(cfg)
        assert result.output_dir == str(tmp_path / "relative_run")
        assert (tmp_path / "relative_run" / "metrics.csv").exists()


class TestCli:
    def test_synth_data_schema(self, tmp_path):
        out = tmp_path / "data.csv"
        code = cli.main(["synth-data", "--households", "2", "--days", "3",
                         "--seed", "4", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "household_id,timestamp,kwh"
        assert len(lines) == 1 + 2 * 3 * 24
        assert lines[1].startswith("h00,2021-01-04T00,")

    def test_train_with_overrides(self, tmp_path, capsys):
        code = cli.main([
            "train", "--model", "lstm", "--out", str(tmp_path / "run"),
            "--seed", "3",
            "--set", "data.households=3", "--set", "data.days=20",
            "--set", "data.anomaly_fraction=0.15",
            "--set", "federation.rounds=1", "--set", "train.epochs=1",
            "--set", "train.batch_size=16",
        ])
        assert code == 0
        assert "No Attack" in capsys.readouterr().out
        assert (tmp_path / "run" / "metrics.csv").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = cli.main(["train", "--setting", "central",
                         "--set", "federation.clients_per_round=5",
                         "--out", str(tmp_path / "x")])
        assert code == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("override", ["name.x=1", "output_dir.x=1", "name=5",
                                          "train.epochs=5,train.epochs.x=1",
                                          "train.epochs.x=1", 'federation.rounds="3"',
                                          "data.anomaly_fraction=2", "data.r_range=[0]",
                                          "data.r_range=5", 'master_seed="x"'])
    def test_bad_override_exits_before_any_run(self, tmp_path, monkeypatch, capsys,
                                               override):
        monkeypatch.chdir(tmp_path)
        argv = ["train"]
        for item in override.split(","):
            argv += ["--set", item]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("header,reading,named", [
        ("kwh", "nan", "row 2"), ("kwh", "inf", "row 2"), ("kwh", "1e999", "row 2"),
        ("energy", "1.0", "'kwh'")], ids=["nan", "inf", "1e999", "no_kwh_column"])
    def test_bad_csv_exits_before_any_run(self, tmp_path, capsys, header, reading, named):
        csv_path = tmp_path / "meters.csv"
        csv_path.write_text(f"household_id,timestamp,{header}\n"
                            f"a,2021-01-04T00,1.0\na,2021-01-04T01,{reading}\n")
        out = tmp_path / "run"
        assert cli.main(["train", "--set", 'data.source="csv"',
                         "--set", f'data.csv_path="{csv_path}"',
                         "--out", str(out)]) == cli.EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_csv_household_without_a_full_day_is_named(self, tmp_path, capsys):
        # household a: 30 readings from 07:00, so 13 after its first midnight
        start = np.datetime64("2021-01-04T07", "h")
        rows = [f"a,{start + h},1.0" for h in range(30)]
        start = np.datetime64("2021-01-04T00", "h")
        rows += [f"b,{start + h},{1.0 + (h % 24 > 17)}" for h in range(3 * 24)]
        csv_path = tmp_path / "meters.csv"
        csv_path.write_text("household_id,timestamp,kwh\n" + "\n".join(rows) + "\n")
        out = tmp_path / "run"
        assert cli.main(["train", "--set", 'data.source="csv"',
                         "--set", f'data.csv_path="{csv_path}"',
                         "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "household 'a' has no full 00:00-23:00 day after its first midnight" in err
        assert not out.exists()

    @pytest.mark.parametrize("override", [
        "epsilon_list=5", "train.lr_milestones=5", "malicious_fraction_list=null",
        "epsilon_list={\"a\":1}", 'train.base_lr="x"', "train.lr_decay=true",
        "train.rho=NaN", "train.eps_opt=[1]", "train.focal_alpha=null",
        "train.focal_gamma=1e309",
        pytest.param(f"train.base_lr={10 ** 400}", id="train.base_lr=10**400"),
        'attack.project_linf="x"', 'attack.eps_ball="x"', "attack.pgd_iters=NaN",
        "attack.epsilon=true", 'train.seed="x"', "data.csv_path=5",
        'train.lr_milestones=["x"]',
        # well typed but out of range: AttackSpec's own checks
        "attack.awgn_variance=-1", "attack.pgd_iters=0", "attack.family=x"])
    def test_mistyped_list_or_real_exits_before_any_run(self, tmp_path, monkeypatch,
                                                        capsys, override):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["train", "--set", override]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err
        assert f"{override.split('=')[0]} must be" in err
        assert list(tmp_path.iterdir()) == []

    def test_internal_shape_error_is_not_a_config_error(self, tmp_path):
        # an autodiff.ShapeError is a bug in fedmeter: a traceback and exit 1
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        code = ("import sys\n"
                "from fedmeter import autodiff, cli\n"
                "def broken(cfg):\n"
                "    raise autodiff.ShapeError('linear: shapes do not conform')\n"
                "cli.run_experiment = broken\n"
                f"sys.exit(cli.main(['train', '--out', {str(tmp_path / 'x')!r}]))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode not in (0, cli.EXIT_CONFIG)
        assert "Traceback" in proc.stderr and "ShapeError" in proc.stderr
        assert "config error" not in proc.stderr

    @pytest.mark.parametrize("content", [b'{"name": ', b'{"name": "\xff"}'])
    def test_unreadable_config_file_exits_before_any_run(self, tmp_path, monkeypatch,
                                                         capsys, content):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_bytes(content)
        assert cli.main(["train", "--config", "cfg.json"]) == cli.EXIT_CONFIG
        assert "cfg.json: not valid JSON" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_internal_value_error_is_not_a_config_error(self, tmp_path, monkeypatch,
                                                        capsys):
        # only ConfigError and DataError are a user's mistake (exit 2); any other
        # ValueError escapes main, so a script ends in a traceback with exit 1
        def broken(cfg):
            raise ValueError("an internal invariant failed")

        monkeypatch.setattr(cli, "run_experiment", broken)
        with pytest.raises(ValueError, match="internal invariant"):
            cli.main(["train", "--out", str(tmp_path / "x")])
        assert "config error" not in capsys.readouterr().err

    def test_inference_label_flip_exits_before_training(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli.main(["attack-eval", "--set", "attack.family=label_flip",
                         "--set", "data.households=3", "--set", "data.days=20",
                         "--set", "federation.rounds=1", "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert "training-time attack" in capsys.readouterr().err
        assert not out.exists()  # so no rounds_clean.jsonl either: nothing was trained

    def test_non_finite_activation_exit_code(self, tmp_path, monkeypatch, capsys):
        def overflowing_run(cfg):
            ad._check_finite("power", np.array([np.inf]))

        monkeypatch.setattr(cli, "run_experiment", overflowing_run)
        code = cli.main(["train", "--out", str(tmp_path / "x")])
        assert code == cli.EXIT_NUMERIC
        assert "numeric failure: power" in capsys.readouterr().err

    def test_io_error_exit_code(self, capsys):
        code = cli.main(["report", "/nonexistent/run-dir"])
        assert code == cli.EXIT_IO

    def test_report_combines_runs(self, tmp_path, capsys):
        run_experiment(tiny_cfg(tmp_path / "r1"))
        run_experiment(tiny_cfg(tmp_path / "r2", master_seed=5))
        out = tmp_path / "combined.csv"
        code = cli.main(["report", str(tmp_path / "r1"), str(tmp_path / "r2"),
                         "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("run,setting,attack")
        assert len(lines) == 3

    def test_console_script_help(self):
        # the child imports the same fedmeter as this process, installed or not
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-m", "fedmeter.cli", "--help"],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        for sub in ("synth-data", "train", "attack-eval", "federate", "sweep",
                    "report"):
            assert sub in proc.stdout
