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

from fedmeter import cli
from fedmeter import data as dp
from fedmeter import experiment as ex
from fedmeter import models as md
from fedmeter import federation as fed
from fedmeter.attacks import AttackSpec, awgn
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
        "data": {"households": 3, "days": 20,
                 "anomaly_fraction": 0.15},
        "federation": {"malicious_count": 0},
        "train": {"epochs": 2, "batch_size": 16},
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
        return isinstance(value, tuple) and all(has_annotated_type(args[0], v) for v in value)
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
                       attack={"family": "pgd", "project_linf": True})
        assert cfg.epsilon_list == (0.3, 0.6)
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg

    @settings(max_examples=500, deadline=None)
    @given(field=st.sampled_from(list(dotted_fields(ExperimentConfig))), value=JSON_VALUES)
    def test_any_json_value_is_typed_or_names_its_field(self, field, value):
        raw = tiny_dict("runs/never-written")
        apply_override(raw, field, json.dumps(value))
        try:
            cfg = validate_config(config_from_dict(raw))
        except ConfigError as exc:
            assert field in str(exc)
        else:
            assert has_annotated_type(ExperimentConfig, cfg)

    def test_defaults_fill(self):
        cfg = config_from_dict({})
        assert cfg.federation.malicious_count == 0
        assert cfg.attack.pgd_iters == 10
        assert cfg.data.households == 19 and cfg.data.days == 365

    def test_empty_attack_normalizes_to_baseline(self):
        cfg = config_from_dict({})
        assert cfg.attack.family == "none" and cfg.protocol == "baseline"

    def test_paper_scale_malicious_count_valid(self, tmp_path):
        cfg = tiny_cfg(tmp_path, data={"households": 19, "days": 20},
                       federation={"malicious_count": 9},
                       attack={"family": "pgd", "epsilon": 0.5},
                       protocol="training_attack")
        validate_config(cfg)

    def test_excess_malicious_count_rejected(self, tmp_path):
        cfg = tiny_cfg(tmp_path / "run", data={"households": 19},
                       federation={"malicious_count": 20},
                       attack={"family": "pgd"}, protocol="training_attack")
        with pytest.raises(ConfigError,
                           match="malicious_count 20 exceeds the 19 households loaded"):
            run_experiment(cfg)
        assert not (tmp_path / "run").exists()

    def test_all_violations_listed_together(self, tmp_path):
        cfg = tiny_cfg(tmp_path, setting="central", data={"anomaly_fraction": 1.5},
                       federation={"malicious_count": 2}, train={"batch_size": 0})
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        message = str(err.value)
        assert "malicious_count" in message
        assert "batch_size" in message
        assert "anomaly_fraction" in message

    @pytest.mark.parametrize("section,key,value", [
        ("train", "epochs", -2),
        ("train", "epochs", 0),
        ("train", "epochs", -1),
        ("train", "batch_size", 0),
        ("attack", "epsilon", float("nan")),
        ("attack", "epsilon", float("inf")),
        ("attack", "epsilon", -0.1),
        ("federation", "malicious_count", -1),
        ("train", "epochs", "3"),
        ("train", "epochs", {"x": 1}),
        ("train", "batch_size", True),
        ("federation", "malicious_count", 2.0),
        ("data", "anomaly_fraction", 2.0),
        ("data", "anomaly_fraction", "0.1"),
        ("train", "base_lr", 0.0),
        ("train", "focal_alpha", -0.5),
        ("train", "focal_alpha", 1.5),
        ("train", "focal_gamma", -1.0),
        ("data", "csv_path", ""),
        ("attack", "epsilon", -2 ** 63 - 1),  # a float, but no int64
        ("", "output_dir", ""),
    ])
    def test_out_of_range_value_rejected(self, tmp_path, section, key, value):
        cfg = tiny_cfg(tmp_path)
        setattr(getattr(cfg, section) if section else cfg, key, value)
        name = f"{section}.{key}" if section else key
        with pytest.raises(ConfigError, match=rf"\b{name} must be"):
            validate_config(cfg)

    @pytest.mark.parametrize("seed", ["x", 1.5, True])
    def test_master_seed_must_be_an_integer(self, tmp_path, seed):
        with pytest.raises(ConfigError, match="master_seed must be an integer"):
            validate_config(tiny_cfg(tmp_path, master_seed=seed))

    # 0.1 and 0.1000001 both label their files eps0.1
    @pytest.mark.parametrize("eps", [float("nan"), -0.5, 0.1, 0.1000001])
    def test_bad_sweep_epsilon_rejected(self, tmp_path, eps):
        with pytest.raises(ConfigError, match="epsilon_list entries"):
            cfg = tiny_cfg(tmp_path, protocol="sweep_epsilon", epsilon_list=[0.1, eps])
            validate_config(cfg)

    @pytest.mark.parametrize("fractions,named", [
        ([0.34, 0.5, 0.34], "entries 0.34 and 0.34 share the label 0.34"),
        ([0.5, 0.5000001], "entries 0.5 and 0.5000001 share the label 0.5")])
    def test_malicious_fractions_that_share_a_label_rejected(self, tmp_path, fractions,
                                                              named):
        cfg = tiny_cfg(tmp_path, protocol="sweep_malicious", attack={"family": "pgd"},
                       malicious_fraction_list=fractions)
        with pytest.raises(ConfigError, match=f"malicious_fraction_list {named}"):
            validate_config(cfg)

    def test_attack_protocol_requires_family(self, tmp_path):
        cfg = tiny_cfg(tmp_path, protocol="inference_attack")
        with pytest.raises(ConfigError, match="requires an attack"):
            validate_config(cfg)

    def test_baseline_contradicts_attack(self, tmp_path):
        cfg = tiny_cfg(tmp_path, attack={"family": "fgsm"})
        with pytest.raises(ConfigError, match="protocol baseline does not read attack.family; "
                           "it must be 'none', got 'fgsm' \\(inference_attack and "
                           "training_attack read an attack\\)"):
            validate_config(cfg)

    def test_sweeps_are_federated_only(self, tmp_path):
        cfg = tiny_cfg(tmp_path, setting="central", protocol="sweep_epsilon",
                       attack={"family": "fgsm"})
        with pytest.raises(ConfigError, match="federated"):
            validate_config(cfg)

    @pytest.mark.parametrize("setting,protocol,federation,field", [
        ("federated", "training_attack", {"malicious_count": 0}, "malicious_count"),
        ("federated", "sweep_epsilon", {"malicious_count": 0}, "malicious_count"),
    ])
    def test_training_time_attack_that_poisons_nothing_rejected(self, tmp_path, setting,
                                                                protocol, federation, field):
        cfg = tiny_cfg(tmp_path, setting=setting, protocol=protocol,
                       attack={"family": "pgd"}, federation=federation)
        with pytest.raises(ConfigError, match=rf"protocol {protocol} .*federation\.{field}"):
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
        assert recommended_train_config("transformer") == md.TrainConfig(base_lr=1e-3)


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
        cfg = tiny_cfg(tmp_path, data={"days": 120})
        for _, profiles in dp.synthetic_households(cfg.data.households, cfg.data.days,
                                                   cfg.master_seed):
            windows = dp.detect_usage_windows(profiles)
            assert windows.low_hours == (4, 5, 6, 7, 8, 9)
            assert windows.high_hours == (0, 18, 19, 20, 21, 22, 23)

    def test_csv_route_matches_synthetic_route(self, tmp_path):
        # at 101 households the ids take three digits, so h100 sorts last
        for households in (2, 101):
            csv_path = tmp_path / f"meters{households}.csv"
            assert cli.main(["synth-data", "--households", str(households), "--days", "15",
                             "--seed", "1", "--out", str(csv_path)]) == 0
            synthetic = build_client_data(tiny_cfg(tmp_path, data={"households": households,
                                                                   "days": 15}))
            from_csv = build_client_data(tiny_cfg(
                tmp_path, data={"csv_path": str(csv_path),
                                "households": households, "days": 15}))
            assert [c.client_id for c in from_csv] == [c.client_id for c in synthetic]
            assert len(synthetic) == households
            for a, b in zip(synthetic, from_csv):
                # CSV renders 12 significant digits, so equality is approximate;
                # min-max scaling leaves values near 0, hence atol too
                np.testing.assert_allclose(a.train.profiles, b.train.profiles, rtol=1e-9,
                                           atol=1e-9)
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
        # every stream derives from config.json's master_seed: no seed is listed
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest) == ["blas", "blas_threads", "config_sha256", "numpy",
                                    "outputs", "platform", "workers"]

    def test_inference_attack_outputs(self, tmp_path):
        cfg = tiny_cfg(tmp_path / "run", setting="central",
                       protocol="inference_attack",
                       attack={"family": "fgsm", "epsilon": 0.4},
                       federation={"malicious_count": 0})
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
                       attack={"family": "label_flip"},
                       federation={"malicious_count": 1})
        result = run_experiment(cfg)
        assert [r[1] for r in result.rows] == ["No Attack", "Label Flip"]
        assert result.rows[1][-1] != ""

    def test_sweep_epsilon_cardinality_and_plots(self, tmp_path):
        cfg = tiny_cfg(tmp_path / "run", protocol="sweep_epsilon",
                       epsilon_list=[0.1, 0.5],
                       federation={"malicious_count": 1}, train={"epochs": 1})
        result = run_experiment(cfg)
        assert len(result.rows) == 4  # 2 epsilons x {fgsm, pgd}
        fig = (tmp_path / "run" / "fig5b.csv").read_text().splitlines()
        assert fig[0] == "epsilon,attack,accuracy"
        assert len(fig) == 1 + 4

    def test_sweep_malicious_plot(self, tmp_path):
        cfg = tiny_cfg(tmp_path / "run", protocol="sweep_malicious",
                       malicious_fraction_list=[0.34, 0.67],
                       attack={"family": "pgd", "epsilon": 0.3, "pgd_iters": 2},
                       federation={"malicious_count": 0}, train={"epochs": 1})
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
                       attack={"family": "awgn"})
        result = run_experiment(cfg)
        assert result.rows[0][1] == "AWGN" and result.rows[0][-1] != ""
        lines = (tmp_path / "run" / "adversarial_test.csv").read_text().splitlines()[1:]
        x_adv = np.array([[float(v) for v in line.split(",")[:SEQ_LEN]] for line in lines])
        x_test, _, _ = ex.pooled([c.test for c in build_client_data(cfg)])
        expected = awgn(x_test, rng_for(cfg.master_seed, "attack-eval"))
        # the CSV renders 12 significant digits
        np.testing.assert_allclose(x_adv, expected, rtol=1e-10, atol=1e-11)

    def test_awgn_dump_leaves_the_epsilon_it_never_read_empty(self, tmp_path):
        cfg = tiny_cfg(tmp_path / "run", protocol="inference_attack",
                       attack={"family": "awgn"}, train={"epochs": 1})
        assert cfg.attack.epsilon == 0.5  # the default, which AWGN does not read
        run_experiment(cfg)
        lines = (tmp_path / "run" / "adversarial_test.csv").read_text().splitlines()
        assert lines[0].endswith("attack_family,epsilon")
        assert {line.rsplit(",", 2)[1:] == ["awgn", ""] for line in lines[1:]} == {True}

    def test_run_stats_give_wall_time_and_peak_rss(self, tmp_path):
        run_experiment(tiny_cfg(tmp_path / "run", train={"epochs": 1}))
        stats = json.loads((tmp_path / "run" / "run_stats.json").read_text())
        assert sorted(stats) == ["peak_rss_mb", "wall_s"]
        assert stats["wall_s"] > 0 and stats["peak_rss_mb"] > 0

    @pytest.mark.parametrize("platform,maxrss", [("linux", 3 * 2**10), ("darwin", 3 * 2**20)])
    def test_peak_rss_reads_the_platforms_maxrss_unit(self, tmp_path, monkeypatch,
                                                      platform, maxrss):
        # ru_maxrss counts KiB on Linux and bytes on macOS: 3 MB either way
        monkeypatch.setattr(sys, "platform", platform)
        monkeypatch.setattr(ex.resource, "getrusage",
                            lambda who: types.SimpleNamespace(ru_maxrss=maxrss))
        ex._write_run_stats(tmp_path / "run_stats.json", 1.5)
        stats = json.loads((tmp_path / "run_stats.json").read_text())
        assert stats == {"peak_rss_mb": 3.0, "wall_s": 1.5}

    def test_byte_identical_reruns(self, tmp_path):
        cfg_a = tiny_cfg(tmp_path / "a", protocol="training_attack",
                         attack={"family": "fgsm", "epsilon": 0.3},
                         federation={"malicious_count": 1})
        cfg_b = tiny_cfg(tmp_path / "b", protocol="training_attack",
                         attack={"family": "fgsm", "epsilon": 0.3},
                         federation={"malicious_count": 1})
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        for name in ("metrics.csv", "rounds_clean.jsonl", "rounds_attacked_fgsm.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes(), name

    @pytest.mark.parametrize("households,epochs", [(1, 2), (2, 1)])
    def test_federated_run_trains_train_epochs_global_epochs(self, tmp_path, monkeypatch,
                                                             households, epochs):
        # one round per global epoch, each training every household once
        trained, train_local = [], fed.train_local

        def spy(model, *args, epoch, **kw):
            trained.append(epoch)
            return train_local(model, *args, epoch=epoch, **kw)

        monkeypatch.setattr(fed, "train_local", spy)
        run_experiment(tiny_cfg(tmp_path / "run", data={"households": households},
                                train={"epochs": epochs}))
        log = (tmp_path / "run" / "rounds_clean.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in log]
        assert [r["round"] for r in records] == list(range(1, epochs + 1))
        assert sorted(trained) == [e for e in range(1, epochs + 1) for _ in range(households)]

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

    @pytest.mark.parametrize("protocol,kw", [
        ("training_attack", {"attack": {"family": "label_flip"},
                             "federation": {"malicious_count": 1},
                             "train": {"epochs": 1}}),
        ("sweep_malicious", {"malicious_fraction_list": [0.34, 0.67],
                             "attack": {"family": "pgd", "epsilon": 0.3, "pgd_iters": 1},
                             "train": {"epochs": 1}}),
    ])
    def test_manifest_lists_every_output(self, tmp_path, protocol, kw):
        out = tmp_path / "run"
        run_experiment(tiny_cfg(out, protocol=protocol, **kw))
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert outputs == sorted(p.name for p in out.iterdir()
                                 if p.name not in ("config.json", "manifest.json"))
        assert len([name for name in outputs if name.startswith("rounds_")]) == 2

    def test_manifest_records_each_runs_blas_threads(self, tmp_path):
        # fedmeter sets BLAS to one thread at import, whatever the shell asked for
        sets = ("model=lstm", "setting=federated", "master_seed=0", "data.households=3",
                "data.days=30", "train.epochs=2")
        manifests, metrics = {}, {}
        for threads in ("1", "2"):
            out = run_child(tmp_path / f"blas{threads}", sets, threads)
            manifests[threads] = json.loads((out / "manifest.json").read_text())
            metrics[threads] = (out / "metrics.csv").read_bytes()
        for manifest in manifests.values():
            assert manifest["blas"] == md.blas_build()
            assert manifest["blas"]["name"] and manifest["blas"]["version"]
            assert manifest["blas_threads"] == md.blas_threads()
            assert 1 <= manifest["workers"] <= md.MAX_WORKERS
        if md.blas_threads() is not None:
            assert manifests["1"]["blas_threads"] == manifests["2"]["blas_threads"] == 1
        assert manifests["1"]["workers"] == manifests["2"]["workers"]
        assert metrics["1"] == metrics["2"]

    def test_a_blas_without_a_thread_setter_runs_one_worker(self, tmp_path, monkeypatch):
        monkeypatch.setattr(md, "_BLAS_THREAD_CALLS", None)  # the lookup found nothing
        monkeypatch.setattr(md.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert md.blas_threads() is None
        assert md._workers() == 1
        out = tmp_path / "run"
        run_experiment(tiny_cfg(out))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["blas_threads"] is None
        assert manifest["workers"] == 1


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_child(out, sets, threads):
    """Run ``fedmeter run`` with each of ``sets`` as a ``--set`` and its
    output in ``out``, in a child that imports this fedmeter, with
    ``OPENBLAS_NUM_THREADS=threads`` and no other BLAS thread variable, or
    none at all when ``threads`` is None; return ``out``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    args = [arg for s in (*sets, f"output_dir={out}") for arg in ("--set", s)]
    proc = subprocess.run([sys.executable, "-m", "fedmeter.cli", "run", *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return out


class TestBlasThreadBits:
    """A fixed-seed run writes the same bytes whatever BLAS thread count the
    shell asks for (ROADMAP item 5).  Before fedmeter set its own count, two
    BLAS threads rounded an LSTM's ``dz @ wh.T`` differently from one, and a
    Transformer's weight gradients over a ragged last batch."""

    RUNS = {
        "lstm_federated_pgd": ("model=lstm", "protocol=training_attack",
                               "attack.family=pgd", "attack.pgd_iters=2",
                               "federation.malicious_count=1", "data.households=3",
                               "data.days=30"),
        # 59 training rows per household: each client ends with a 27-row batch
        "transformer_federated": ("model=transformer", "data.households=2",
                                  "data.days=66"),
        "transformer_central": ("model=transformer", "setting=central",
                                "data.households=2", "data.days=66"),
    }

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_run_files_do_not_depend_on_the_blas_thread_variable(self, tmp_path, run):
        sets = (*self.RUNS[run], "master_seed=0", "train.epochs=2")
        files = {}
        for threads in ("1", "2", None):
            out = run_child(tmp_path / str(threads), sets, threads)
            names = sorted(p.name for p in out.iterdir()
                           if p.name == "metrics.csv" or p.name.startswith(("rounds_", "final_")))
            files[threads] = {name: (out / name).read_bytes() for name in names}
        assert "metrics.csv" in files["1"] and any(n.endswith(".ckpt") for n in files["1"])
        assert files["1"].keys() == files["2"].keys() == files[None].keys()
        differs = [n for n in files["1"] if not files["1"][n] == files["2"][n] == files[None][n]]
        assert differs == []


class TestPairing:
    """Every training of a run draws from its master seed, whatever its spec."""

    @staticmethod
    def spy_on_init_state(monkeypatch):
        """Record each federation's initial weights and malicious client ids."""
        seen = []

        def spy(model_name, nodes, **kw):
            state = fed.init_state(model_name, nodes, **kw)
            seen.append(({k: v.copy() for k, v in state.global_weights.items()},
                         {n.client_id for n in nodes if n.malicious}))
            return state

        monkeypatch.setattr(ex, "init_state", spy)
        return seen

    def test_points_differing_only_in_spec_share_init_and_malicious_set(
            self, tmp_path, monkeypatch):
        seen = self.spy_on_init_state(monkeypatch)
        run_experiment(tiny_cfg(tmp_path / "run", protocol="sweep_epsilon",
                                epsilon_list=[0.1, 0.5], attack={"pgd_iters": 1},
                                federation={"malicious_count": 2}, train={"epochs": 1}))
        assert len(seen) == 4  # {fgsm, pgd} x {0.1, 0.5}
        weights, malicious = seen[0]
        assert len(malicious) == 2
        for other_weights, other_malicious in seen[1:]:
            assert other_malicious == malicious
            assert all(np.array_equal(weights[k], other_weights[k]) for k in weights)

    def test_sweep_malicious_sets_nest(self, tmp_path, monkeypatch):
        # at seed 0, drawing each set of 2, 3 and 4 of 19 clients on its own
        # gave {10, 12}, {4, 10, 12} and {4, 9, 11, 12}
        seen = self.spy_on_init_state(monkeypatch)
        run_experiment(tiny_cfg(tmp_path / "run", protocol="sweep_malicious", master_seed=0,
                                malicious_fraction_list=[0.1, 0.15, 0.2],
                                data={"households": 19},
                                attack={"family": "pgd", "pgd_iters": 1},
                                train={"epochs": 1}))
        sets = [malicious for _, malicious in seen]
        assert [len(s) for s in sets] == [2, 3, 4]
        assert sets[0] < sets[1] < sets[2]
        for weights, _ in seen[1:]:
            assert all(np.array_equal(seen[0][0][k], weights[k]) for k in weights)

    def test_fgsm_epsilon_zero_trains_the_clean_weights(self, tmp_path):
        cfg = validate_config(tiny_cfg(tmp_path, protocol="training_attack",
                                       attack={"family": "fgsm", "epsilon": 0.0},
                                       federation={"malicious_count": 2}))
        clients, logs = build_client_data(cfg), {}

        def emit(name, writer):
            writer(tmp_path / name)
            lines = (tmp_path / name).read_text().splitlines()
            logs[name] = [json.loads(line) for line in lines]

        test = ex.pooled([c.test for c in clients])[:2]
        clean = ex._train(cfg, clients, test, emit, AttackSpec(), 0, "clean")
        zero = ex._train(cfg, clients, test, emit, AttackSpec("fgsm", epsilon=0.0), 2, "zero")
        assert md.weights_to_bytes(clean.get_weights()) == \
            md.weights_to_bytes(zero.get_weights())
        clean_log, zero_log = logs["rounds_clean.jsonl"], logs["rounds_zero.jsonl"]
        assert [r["malicious_count"] for r in clean_log] == [0, 0]
        assert [r["malicious_count"] for r in zero_log] == [2, 2]
        assert [{**r, "malicious_count": 0} for r in zero_log] == clean_log

    def test_central_and_federated_training_start_from_the_same_weights(
            self, tmp_path, monkeypatch):
        # the first local training of a run starts from its initial weights
        starts, train_local = {}, fed.train_local

        def spy(model, *args, **kw):
            starts.setdefault(setting, {k: v.copy() for k, v in model.get_weights().items()})
            return train_local(model, *args, **kw)

        monkeypatch.setattr(fed, "train_local", spy)
        for setting in ("central", "federated"):
            run_experiment(tiny_cfg(tmp_path / setting, setting=setting))
        central, federated = starts["central"], starts["federated"]
        assert all(np.array_equal(central[k], federated[k]) for k in central)


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

    def test_synth_data_writes_the_synthetic_households(self, tmp_path):
        out = tmp_path / "data.csv"
        assert cli.main(["synth-data", "--households", "3", "--days", "20",
                         "--seed", "5", "--out", str(out)]) == 0
        ingested = dp.ingest_csv(out)
        synthetic = dict(dp.synthetic_households(3, 20, seed=5))
        assert sorted(ingested) == list(synthetic) == ["h00", "h01", "h02"]
        # each household's readings run hourly from Monday 2021-01-04T00
        stamps = [str(np.datetime64("2021-01-04T00", "h") + hour) for hour in range(20 * 24)]
        rows = out.read_text().splitlines()[1:]
        for hid, profiles in synthetic.items():
            assert [r.split(",")[1] for r in rows if r.startswith(f"{hid},")] == stamps
            # the CSV renders 12 significant digits
            np.testing.assert_allclose(ingested[hid], profiles, rtol=1e-11, atol=0)

    @pytest.mark.parametrize("flag,value", [("--households", "-1"), ("--households", "0"),
                                            ("--days", "0"), ("--days", "-3")])
    def test_synth_data_rejects_counts_below_one(self, tmp_path, capsys, flag, value):
        out = tmp_path / "sub" / "data.csv"
        counts = {"--households": "2", "--days": "3", flag: value}
        code = cli.main(["synth-data", *[a for kv in counts.items() for a in kv],
                         "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert f"{flag} must be at least 1, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_train_with_overrides(self, tmp_path, capsys):
        code = cli.main([
            "run", "--set", "model=lstm", "--set", f"output_dir={tmp_path / 'run'}",
            "--set", "master_seed=3",
            "--set", "data.households=3", "--set", "data.days=20",
            "--set", "data.anomaly_fraction=0.15",
            "--set", "train.epochs=1", "--set", "train.batch_size=16",
        ])
        assert code == 0
        assert "No Attack" in capsys.readouterr().out
        assert (tmp_path / "run" / "metrics.csv").exists()

    def test_run_takes_the_protocol_from_its_config(self, tmp_path, capsys):
        out = tmp_path / "run"
        (tmp_path / "cfg.json").write_text(json.dumps(tiny_dict(
            out, protocol="sweep_epsilon", epsilon_list=[0.1], attack={"pgd_iters": 1},
            federation={"malicious_count": 1}, train={"epochs": 1})))
        assert cli.main(["run", "--config", str(tmp_path / "cfg.json")]) == 0
        assert "FGSM eps=0.1" in capsys.readouterr().out
        assert json.loads((out / "config.json").read_text())["protocol"] == "sweep_epsilon"
        assert sorted(p.name for p in out.glob("rounds_*.jsonl")) == [
            "rounds_eps0.1_fgsm.jsonl", "rounds_eps0.1_pgd.jsonl"]
        assert (out / "fig5b.csv").exists()

    def test_set_overrides_apply_in_order(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.main(["run", "--set", "model=lstm", "--set", "model=transformer",
                         "--set", "data.households=3", "--set", "data.days=20",
                         "--set", "train.epochs=1", "--set", f"output_dir={out}"]) == 0
        assert "Transformer (FL), No Attack" in capsys.readouterr().out
        assert json.loads((out / "config.json").read_text())["model"] == "transformer"

    @pytest.mark.parametrize("argv", [
        ["train"], ["federate"], ["attack-eval"], ["sweep", "--axis", "epsilon"],
        ["run", "--model", "lstm"], ["run", "--setting", "central"], ["run", "--seed", "3"],
        ["run", "--out", "runs/x"]])
    def test_removed_command_or_flag_exits_2_from_argparse(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            cli.build_parser().parse_args(argv)
        assert exit_.value.code == 2
        assert "usage: fedmeter" in capsys.readouterr().err

    def test_config_file_that_is_not_an_object_exits_before_any_run(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text("[1]")
        assert cli.main(["run", "--config", "cfg.json",
                         "--set", "model=lstm"]) == cli.EXIT_CONFIG
        assert "cfg.json: must be a JSON object of settings" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    # train.seed: every training seed derives from master_seed; data.source:
    # data.csv_path alone says whether the households are synthetic;
    # federation.rounds: train.epochs sets a federated run's length too;
    # federation.local_epochs and clients_per_round: every round trains
    # every client for one epoch; threshold, train.rho and train.eps_opt:
    # the paper's fixed 0.5 decision point and RMSprop's own constants;
    # data.kind_weights and data.r_range: anomaly kinds are drawn uniformly
    # and spike amplitudes from [0.5, 1.5]; attack.flip_fraction: label
    # flipping inverts every poisoned label; data.train_fraction,
    # federation.poison_fraction, attack.awgn_variance, train.lr_milestones
    # and train.lr_decay: the reference protocol's constants; attack.eps_ball:
    # projected PGD clips to the epsilon ball
    @pytest.mark.parametrize("override", [
        "train.seed=0", 'data.source="csv"', "federation.rounds=2",
        "federation.local_epochs=1", "federation.clients_per_round=3",
        "threshold=0.5", "train.rho=0.9", "train.eps_opt=1e-7",
        'data.kind_weights={"drop":1.0}', "data.r_range=[0.5,1.5]",
        "attack.flip_fraction=1.0", "data.train_fraction=0.8",
        "federation.poison_fraction=0.3", "attack.awgn_variance=0.1",
        "attack.eps_ball=0.5", "train.lr_milestones=[50,70,90]", "train.lr_decay=0.1"],
        ids=lambda override: override.split("=")[0])
    def test_removed_setting_exits_before_any_run(self, tmp_path, capsys, override):
        out = tmp_path / "run"
        code = cli.main(["run", "--set", "model=lstm", "--set", f"output_dir={out}",
                         "--set", "data.households=3", "--set", "data.days=20",
                         "--set", "train.epochs=1", "--set", override])
        assert code == cli.EXIT_CONFIG
        key = override.split("=")[0]
        assert f"{key} is not a config setting" in capsys.readouterr().err
        assert not out.exists()

    def test_dataset_error_names_its_household(self, tmp_path, capsys):
        # 10 days at 4% anomalies: too few anomalous days in h00 to split
        out = tmp_path / "run"
        assert cli.main(["run", "--set", "data.households=2", "--set", "data.days=10",
                         "--set", "data.anomaly_fraction=0.04",
                         "--set", f"output_dir={out}"]) == cli.EXIT_CONFIG
        assert "household 'h00': class 1 has 0 sample(s)" in capsys.readouterr().err
        assert not out.exists()

    def test_every_data_range_problem_is_named_before_any_run(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.main(["run", "--set", "data.anomaly_fraction=2",
                         "--set", "data.days=1", "--set", "data.households=0",
                         "--set", f"output_dir={out}"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        for problem in ("data.anomaly_fraction must be in (0, 1), got 2",
                        "data.days must be >= 2, got 1",
                        "data.households must be >= 1, got 0"):
            assert f"  - {problem}\n" in err
        assert not out.exists()

    def test_central_malicious_count_is_one_problem(self, tmp_path, capsys):
        # the one setting that a central baseline does not read, named once
        assert cli.main(["run", "--set", "setting=central",
                         "--set", "federation.malicious_count=1",
                         "--set", f"output_dir={tmp_path / 'x'}"]) == cli.EXIT_CONFIG
        problems = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("  - ")]
        assert problems == ["  - protocol baseline does not read federation.malicious_count; "
                            "it must be 0, got 1 (it trains once, on clean data)"]

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = cli.main(["run", "--set", "setting=central",
                         "--set", "federation.malicious_count=5",
                         "--set", f"output_dir={tmp_path / 'x'}"])
        assert code == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("override", ["name.x=1", "output_dir.x=1", "name=5",
                                          "train.epochs=5,train.epochs.x=1",
                                          "train.epochs.x=1", 'train.epochs="3"',
                                          "data.anomaly_fraction=2", 'master_seed="x"',
                                          "output_dir="])
    def test_bad_override_exits_before_any_run(self, tmp_path, monkeypatch, capsys,
                                               override):
        monkeypatch.chdir(tmp_path)
        argv = ["run"]
        for item in override.split(","):
            argv += ["--set", item]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("header,row,named", [
        ("kwh", "a,2021-01-04T01,nan", "row 2"), ("kwh", "a,2021-01-04T01,inf", "row 2"),
        ("kwh", "a,2021-01-04T01,1e999", "row 2"), ("energy", "a,2021-01-04T01,1.0", "'kwh'"),
        ("kwh", "a,2021-01-04T01", "row 2"), ("kwh", "a,2021-01-04T01,1.0,2.0", "row 2"),
        ("kwh", "a,,1.0", "row 2"), ("kwh", "a,NaT,1.0", "row 2"),
        ("kwh", "a,2021-01-04T01:30,1.0", "timestamp at row 2 is not a local hour"),
        ("kwh", "a,2021-01-04T01+05:00,1.0", "timestamp at row 2 is not a local hour")],
        ids=["nan", "inf", "1e999", "no_kwh_column", "missing_field", "extra_field",
             "empty_timestamp", "nat_timestamp", "sub_hour_timestamp", "zoned_timestamp"])
    def test_bad_csv_exits_before_any_run(self, tmp_path, capsys, header, row, named):
        csv_path = tmp_path / "meters.csv"
        csv_path.write_text(f"household_id,timestamp,{header}\n"
                            f"a,2021-01-04T00,1.0\n{row}\n")
        out = tmp_path / "run"
        assert cli.main(["run", "--set", f'data.csv_path="{csv_path}"',
                         "--set", f"output_dir={out}"]) == cli.EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_undecodable_csv_exits_before_any_run(self, tmp_path, capsys):
        csv_path = tmp_path / "meters.csv"
        csv_path.write_bytes(b"household_id,timestamp,kwh\n"
                             b"a,2021-01-04T00,1.0\n\xff,2021-01-04T01,1.0\n")
        out = tmp_path / "run"
        assert cli.main(["run", "--set", f'data.csv_path="{csv_path}"',
                         "--set", f"output_dir={out}"]) == cli.EXIT_CONFIG
        assert f"config error: {csv_path}: not UTF-8 text" in capsys.readouterr().err
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
        assert cli.main(["run", "--set", f'data.csv_path="{csv_path}"',
                         "--set", f"output_dir={out}"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "household 'a' has no full 00:00-23:00 day after its first midnight" in err
        assert not out.exists()

    def test_csv_of_no_readings_exits_before_any_run(self, tmp_path, capsys):
        csv_path = tmp_path / "meters.csv"
        csv_path.write_text("household_id,timestamp,kwh\n")
        out = tmp_path / "run"
        assert cli.main(["run", "--set", f'data.csv_path="{csv_path}"',
                         "--set", f"output_dir={out}"]) == cli.EXIT_CONFIG
        assert f"config error: {csv_path}: no readings" in capsys.readouterr().err
        assert not out.exists()

    @pytest.fixture
    def three_household_csv(self, tmp_path):
        csv_path = tmp_path / "meters.csv"
        assert cli.main(["synth-data", "--households", "3", "--days", "20",
                         "--out", str(csv_path)]) == 0
        return ["--set", "protocol=training_attack",
                "--set", f'data.csv_path="{csv_path}"', "--set", "data.anomaly_fraction=0.15",
                "--set", "attack.family=pgd", "--set", "federation.malicious_count=1",
                "--set", "train.epochs=1"]

    @pytest.mark.parametrize("setting,count", [("malicious_count", 5)])
    def test_client_count_above_the_loaded_households_exits_before_any_run(
            self, tmp_path, capsys, three_household_csv, setting, count):
        out = tmp_path / "run"
        assert cli.main(["run", *three_household_csv, "--set",
                         f"federation.{setting}={count}",
                         "--set", f"output_dir={out}"]) == cli.EXIT_CONFIG
        assert f"federation.{setting} {count} exceeds the 3 households loaded" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("override", ["data.households=4", "data.days=30"])
    def test_synthetic_only_setting_exits_before_any_run_for_a_csv(
            self, tmp_path, capsys, three_household_csv, override):
        out = tmp_path / "run"
        assert cli.main(["run", *three_household_csv, "--set", override,
                         "--set", f"output_dir={out}"]) == cli.EXIT_CONFIG
        name, value = override.split("=")
        default = {"data.households": 19, "data.days": 365}[name]
        assert (f"protocol training_attack does not read {name}; it must be {default}, "
                f"got {value} (only synthetic households read it; data.csv_path is set)") in \
            capsys.readouterr().err
        assert not out.exists()

    def test_client_counts_ignore_data_households_for_a_csv(self, tmp_path, capsys,
                                                            three_household_csv):
        out = tmp_path / "run"
        assert cli.main(["run", *three_household_csv,
                         "--set", "federation.malicious_count=3",
                         "--set", f"output_dir={out}"]) == 0
        assert "LSTM (FL), PGD" in capsys.readouterr().out
        assert (out / "final_pgd.ckpt").exists()

    @pytest.mark.parametrize("override", [
        "epsilon_list=5", "malicious_fraction_list=null",
        "epsilon_list={\"a\":1}", 'train.base_lr="x"', "train.batch_size=true",
        "train.base_lr=NaN", "train.focal_alpha=[1]", "train.focal_alpha=null",
        "train.focal_gamma=1e309",
        pytest.param(f"train.base_lr={10 ** 400}", id="train.base_lr=10**400"),
        'attack.project_linf="x"', "attack.pgd_iters=NaN",
        "attack.epsilon=true", "data.csv_path=5", 'malicious_fraction_list=["x"]',
        # well typed but out of range: AttackSpec's own checks
        "attack.epsilon=-1", "attack.pgd_iters=0", "attack.family=x"])
    def test_mistyped_list_or_real_exits_before_any_run(self, tmp_path, monkeypatch,
                                                        capsys, override):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", "--set", override]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err
        assert f"{override.split('=')[0]} must be" in err
        assert list(tmp_path.iterdir()) == []

    def test_every_attack_range_problem_listed_together(self, tmp_path, monkeypatch,
                                                        capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", "--set", "protocol=inference_attack",
                         "--set", "attack.family=pgd", "--set", "attack.epsilon=-1",
                         "--set", "attack.pgd_iters=0",
                         "--set", "train.batch_size=0"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "attack.epsilon must be finite and >= 0, got -1" in err
        assert "attack.pgd_iters must be >= 1, got 0" in err
        # the other range problems wait until every type and attack range passes
        assert "train.batch_size" not in err
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
                f"sys.exit(cli.main(['run', '--set', {'output_dir=' + str(tmp_path / 'x')!r}]))\n")
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
        assert cli.main(["run", "--config", "cfg.json"]) == cli.EXIT_CONFIG
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
            cli.main(["run", "--set", f"output_dir={tmp_path / 'x'}"])
        assert "config error" not in capsys.readouterr().err

    def test_inference_label_flip_exits_before_training(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli.main(["run", "--set", "protocol=inference_attack",
                         "--set", "attack.family=label_flip",
                         "--set", "data.households=3", "--set", "data.days=20",
                         "--set", "train.epochs=1", "--set", f"output_dir={out}"])
        assert code == cli.EXIT_CONFIG
        assert "training-time attack" in capsys.readouterr().err
        assert not out.exists()  # so no rounds_clean.jsonl either: nothing was trained

    def test_federated_attack_without_malicious_clients_exits_before_any_run(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", "--set", "protocol=training_attack",
                         "--set", "attack.family=pgd"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "protocol training_attack" in err and "federation.malicious_count" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [
        ["run"], ["run", "--set", "protocol=inference_attack", "--set", "attack.family=fgsm"],
        ["run", "--set", "protocol=sweep_malicious", "--set", "malicious_fraction_list=[0.34]"]],
        ids=["baseline", "inference_attack", "sweep_malicious"])
    def test_protocol_that_ignores_malicious_count_rejects_it(self, tmp_path, capsys,
                                                               command):
        out = tmp_path / "run"
        assert cli.main([*command, "--set", "federation.malicious_count=1",
                         "--set", "data.households=3", "--set", "data.days=20",
                         "--set", "train.epochs=1",
                         "--set", f"output_dir={out}"]) == cli.EXIT_CONFIG
        assert "does not read federation.malicious_count; it must be 0, got 1" in \
            capsys.readouterr().err
        assert not out.exists()

    def run_tiny(self, out, *overrides):
        return cli.main(["run", *(a for o in overrides for a in ("--set", o)),
                         "--set", "data.households=3", "--set", "data.days=20",
                         "--set", "train.epochs=1", "--set", f"output_dir={out}"])

    def test_sweep_epsilon_rejects_an_attack_family(self, tmp_path, capsys):
        # it sweeps fgsm and pgd itself, so awgn would silently not run
        out = tmp_path / "run"
        assert self.run_tiny(out, "protocol=sweep_epsilon", "attack.family=awgn",
                             "federation.malicious_count=2") == cli.EXIT_CONFIG
        assert ("protocol sweep_epsilon does not read attack.family; it must be 'none', "
                "got 'awgn'") in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_epsilon_rejects_an_attack_epsilon(self, tmp_path, capsys):
        # each point takes its epsilon from epsilon_list
        out = tmp_path / "run"
        assert self.run_tiny(out, "protocol=sweep_epsilon", "attack.epsilon=0.3",
                             "federation.malicious_count=2") == cli.EXIT_CONFIG
        assert ("protocol sweep_epsilon does not read attack.epsilon; it must be 0.5, "
                "got 0.3") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name,value,default", [
        ("epsilon", "0.2", "0.5"), ("pgd_iters", "3", "10"),
        ("project_linf", "true", "False")])
    def test_baseline_rejects_any_attack_setting(self, tmp_path, capsys, name, value, default):
        out = tmp_path / "run"
        assert self.run_tiny(out, f"attack.{name}={value}") == cli.EXIT_CONFIG
        assert f"protocol baseline does not read attack.{name}; it must be {default}, got " \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,name,default", [
        (["protocol=baseline"], "epsilon_list", "(0.1, 0.2, 0.4, 0.5, 0.8)"),
        (["protocol=inference_attack", "attack.family=fgsm"], "malicious_fraction_list",
         "(0.1, 0.2, 0.3, 0.5)"),
        (["protocol=training_attack", "attack.family=pgd", "federation.malicious_count=1"],
         "epsilon_list", "(0.1, 0.2, 0.4, 0.5, 0.8)"),
        (["protocol=sweep_epsilon", "federation.malicious_count=1"],
         "malicious_fraction_list", "(0.1, 0.2, 0.3, 0.5)"),
        (["protocol=sweep_malicious"], "epsilon_list", "(0.1, 0.2, 0.4, 0.5, 0.8)")],
        ids=["baseline", "inference_attack", "training_attack", "sweep_epsilon",
             "sweep_malicious"])
    def test_protocol_rejects_the_other_sweeps_list(self, tmp_path, capsys, command, name,
                                                    default):
        out = tmp_path / "run"
        assert self.run_tiny(out, *command, f"{name}=[0.5]") == cli.EXIT_CONFIG
        owner = "sweep_epsilon" if name == "epsilon_list" else "sweep_malicious"
        assert (f"does not read {name}; it must be {default}, got (0.5,) "
                f"(only {owner} reads it)") in capsys.readouterr().err
        assert not out.exists()

    # each attack setting off its default, in a run none of whose attacks (its
    # trainings' and its inference-time attack's) reads it
    @pytest.mark.parametrize("command,setting,readers", [
        (["protocol=training_attack", "attack.family=fgsm", "federation.malicious_count=1"],
         "pgd_iters=3", "pgd"),
        (["protocol=training_attack", "attack.family=fgsm", "federation.malicious_count=1"],
         "project_linf=true", "pgd"),
        (["protocol=sweep_malicious", "attack.family=awgn"], "pgd_iters=3", "pgd"),
        (["protocol=inference_attack", "attack.family=awgn"], "project_linf=true", "pgd"),
        (["protocol=inference_attack", "attack.family=awgn"], "epsilon=0.2",
         "fgsm and pgd"),
        (["protocol=training_attack", "attack.family=label_flip",
          "federation.malicious_count=1"], "epsilon=0.2", "fgsm and pgd")],
        ids=["pgd_iters_fgsm", "project_linf_fgsm", "pgd_iters_awgn_sweep",
             "project_linf_awgn", "epsilon_awgn", "epsilon_label_flip"])
    def test_attack_setting_no_attack_of_the_run_reads_exits_before_any_run(
            self, tmp_path, capsys, command, setting, readers):
        out = tmp_path / "run"
        protocol = command[0].removeprefix("protocol=")
        name = setting.split("=")[0]
        assert self.run_tiny(out, *command, f"attack.{setting}") == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"protocol {protocol} does not read attack.{name}; it must be " in err
        assert f"(read by {readers} only)" in err
        assert not out.exists()

    @pytest.mark.parametrize("protocol,attack", [
        ("sweep_malicious", {"pgd_iters": 2}),  # its attack is pgd when attack.family is none
        ("sweep_epsilon", {"pgd_iters": 2, "project_linf": True}),
        ("inference_attack", {"family": "pgd", "project_linf": True}),
        ("training_attack", {"family": "fgsm", "epsilon": 0.2})])
    def test_attack_setting_some_attack_of_the_run_reads_is_accepted(self, tmp_path,
                                                                      protocol, attack):
        malicious = int(protocol in ("sweep_epsilon", "training_attack"))
        validate_config(tiny_cfg(tmp_path, protocol=protocol, attack=attack,
                                 federation={"malicious_count": malicious}))

    def test_run_trains_in_the_setting_it_is_given(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.main(["run", "--set", "protocol=training_attack", "--set", "setting=central",
                         "--set", "master_seed=3",
                         "--set", "attack.family=fgsm", "--set", "attack.epsilon=0.3",
                         "--set", "data.households=3", "--set", "data.days=20",
                         "--set", "data.anomaly_fraction=0.15", "--set", "train.epochs=1",
                         "--set", f"output_dir={out}"]) == 0
        assert "LSTM (Central), FGSM" in capsys.readouterr().out
        assert json.loads((out / "config.json").read_text())["setting"] == "central"
        assert (out / "final_fgsm.ckpt").exists()
        assert not list(out.glob("rounds_*.jsonl"))  # nothing was federated

    @pytest.mark.parametrize("overrides", [
        ["train.epochs=3", "federation.local_epochs=2"],
        ["setting=central", "train.epochs=2", "federation.local_epochs=2"]],
        ids=["epochs_not_a_multiple_of_local_epochs", "central_local_epochs"])
    def test_length_outside_the_rule_exits_before_any_run(self, tmp_path, capsys, overrides):
        # a run's length is train.epochs global epochs, in either setting, and
        # a federated round is one local epoch: there is no other length to set
        out = tmp_path / "run"
        assert cli.main(["run", "--set", "data.households=3", "--set", "data.days=20",
                         *(a for o in overrides for a in ("--set", o)),
                         "--set", f"output_dir={out}"]) == cli.EXIT_CONFIG
        assert "federation.local_epochs is not a config setting" in capsys.readouterr().err
        assert not out.exists()

    def test_central_sweep_exits_before_any_run(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.main(["run", "--set", "protocol=sweep_malicious", "--set", "setting=central",
                         "--set", "data.households=3", "--set", "data.days=20",
                         "--set", "train.epochs=1", "--set", "malicious_fraction_list=[0.34]",
                         "--set", f"output_dir={out}"]) == cli.EXIT_CONFIG
        assert "runs in the federated setting only" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_points_that_share_a_label_exit_before_any_run(self, tmp_path, capsys):
        # both would write rounds_eps0.1_fgsm.jsonl, the second over the first
        out = tmp_path / "run"
        assert cli.main(["run", "--set", "protocol=sweep_epsilon",
                         "--set", "epsilon_list=[0.1,0.1000001]",
                         "--set", "federation.malicious_count=1",
                         "--set", "data.households=3", "--set", "data.days=20",
                         "--set", "train.epochs=1",
                         "--set", f"output_dir={out}"]) == cli.EXIT_CONFIG
        assert "epsilon_list entries 0.1 and 0.1000001 share the label 0.1" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_sweep_fractions_that_give_one_client_count_exit_before_any_run(
            self, tmp_path, capsys):
        # at 3 households, 0.34 and 0.4 both make 1 client malicious: one
        # model, trained twice into two byte-identical round logs
        out = tmp_path / "run"
        assert cli.main(["run", "--set", "protocol=sweep_malicious",
                         "--set", "malicious_fraction_list=[0.34,0.4,0.67]",
                         "--set", "data.households=3", "--set", "data.days=20",
                         "--set", "train.epochs=1",
                         "--set", f"output_dir={out}"]) == cli.EXIT_CONFIG
        assert ("malicious_fraction_list entries 0.34 and 0.4 each make 1 of the 3 "
                "households loaded malicious") in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_activation_exit_code(self, tmp_path, monkeypatch, capsys):
        def overflowing_run(cfg):
            md._check_finite("power", np.array([np.inf]))

        monkeypatch.setattr(cli, "run_experiment", overflowing_run)
        code = cli.main(["run", "--set", f"output_dir={tmp_path / 'x'}"])
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

    @pytest.mark.parametrize("content", ["", "a,b\n1,2\n"], ids=["empty", "foreign_header"])
    def test_report_rejects_a_malformed_metrics_file(self, tmp_path, capsys, content):
        run = tmp_path / "run"
        run.mkdir()
        (run / "metrics.csv").write_text(content)
        out = tmp_path / "combined.csv"
        assert cli.main(["report", str(run), "--out", str(out)]) == cli.EXIT_CONFIG
        assert f"config error: {run / 'metrics.csv'}: not a metrics file" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_report_rejects_an_undecodable_metrics_file(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        (run / "metrics.csv").write_bytes(
            b"setting,attack,acc,prec,rec,f1,asr\nLSTM (FL),No Attack\xff,0.9,0.8,0.7,0.75,\n")
        out = tmp_path / "combined.csv"
        assert cli.main(["report", str(run), "--out", str(out)]) == cli.EXIT_CONFIG
        assert f"config error: {run / 'metrics.csv'}: not UTF-8 text" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_report_reads_a_metrics_file_with_a_byte_order_mark(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        (run / "metrics.csv").write_bytes(
            b"\xef\xbb\xbfsetting,attack,acc,prec,rec,f1,asr\nLSTM (FL),No Attack,0.9,0.8,0.7,0.75,\n")
        assert cli.main(["report", str(run)]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "run,LSTM (FL),No Attack,0.9,0.8,0.7,0.75,"

    def test_report_rejects_a_row_of_the_wrong_length(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        (run / "metrics.csv").write_text(
            "setting,attack,acc,prec,rec,f1,asr\nLSTM (FL),No Attack,0.9,0.8,0.7,0.75,\n"
            "LSTM (FL),x\n")
        out = tmp_path / "combined.csv"
        assert cli.main(["report", str(run), "--out", str(out)]) == cli.EXIT_CONFIG
        assert f"config error: {run / 'metrics.csv'}: line 3 has 2 field(s)" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_console_script_help(self):
        # the child imports the same fedmeter as this process, installed or not
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-m", "fedmeter.cli", "--help"],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert "{synth-data,run,report}" in proc.stdout
