"""Declarative experiment runner.

A single JSON config describes data source, model, training setting
(central or federated), attack, protocol, and seeds; ``run_experiment``
executes the full pipeline and writes a metrics CSV, per-round logs,
tidy plot data for the sweep figures, a config snapshot, and a manifest
of every derived seed.  Repeating a run with the same master seed
reproduces the metrics files byte for byte on one platform.

Protocols
---------
baseline          train clean, evaluate on the clean test set
inference_attack  train clean, evaluate on a fully perturbed test set
training_attack   train under data poisoning, evaluate on the clean test set
sweep_epsilon     training_attack at each epsilon for FGSM and PGD (federated)
sweep_malicious   training_attack at each malicious-client fraction, PGD (federated)
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
import os
import platform
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from operator import attrgetter
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import data as dp
from .attacks import AttackSpec, dump_adversarial_csv, poison_batch
from .evaluation import (asr_inference, asr_training, classify, compute_metrics,
                         metrics_row, write_metrics_csv)
from .federation import (ClientNode, global_model, init_state, run_centralized,
                         run_federation)
from .models import TrainConfig, save_weights
from .seeding import derive_seed, rng_for

OUTPUT_ROOT_ENV = "FEDMETER_OUTPUT_ROOT"

PROTOCOLS = ("baseline", "inference_attack", "training_attack",
             "sweep_epsilon", "sweep_malicious")

DEFAULT_EPSILON_LIST = (0.1, 0.2, 0.4, 0.5, 0.8)
DEFAULT_MALICIOUS_FRACTION_LIST = (0.1, 0.2, 0.3, 0.5)


class ConfigError(ValueError):
    """Invalid or contradictory experiment configuration."""


@dataclass
class DataConfig:
    source: str = "synthetic"      # synthetic | csv
    csv_path: str | None = None
    households: int = 19
    days: int = 365
    anomaly_fraction: float = 0.10
    r_range: tuple[float, float] = (0.5, 1.5)
    kind_weights: dict[str, float] | None = None  # None: uniform over the kinds
    train_fraction: float = 0.8


@dataclass
class FederationConfig:
    rounds: int = 100
    clients_per_round: int | None = None  # None: every client, every round
    local_epochs: int = 1
    malicious_count: int = 0
    poison_fraction: float = 0.3


@dataclass
class ExperimentConfig:
    name: str = "experiment"
    model: str = "lstm"
    setting: str = "federated"     # central | federated
    protocol: str = "baseline"
    master_seed: int = 0
    threshold: float = 0.5
    output_dir: str = "runs/experiment"
    data: DataConfig = field(default_factory=DataConfig)
    federation: FederationConfig = field(default_factory=FederationConfig)
    attack: AttackSpec = field(default_factory=AttackSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    epsilon_list: tuple[float, ...] = DEFAULT_EPSILON_LIST
    malicious_fraction_list: tuple[float, ...] = DEFAULT_MALICIOUS_FRACTION_LIST


def recommended_train_config(model_name: str, **overrides) -> TrainConfig:
    """Desk-scale training defaults.

    The LSTM takes the reference schedule as-is.  The from-scratch
    transformer collapses to a constant predictor at the reference 0.01
    learning rate, so its desk preset starts at 1e-3.
    """
    base = {"base_lr": 1e-3} if model_name == "transformer" else {}
    base.update(overrides)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# config (de)serialization and validation

config_to_dict = asdict  # json.dumps writes the config's tuples as lists


# each leaf annotation of the config: the values it takes, and its name in a message
_LEAVES = {str: (str, "a string", "strings"), bool: (bool, "true or false", "booleans"),
           int: (numbers.Integral, "an integer", "integers"),
           float: (numbers.Real, "a finite real number", "finite real numbers")}


def _typed(hint, value):
    """``value`` as the annotation ``hint`` types it, each list becoming a tuple
    where the hint is a tuple; TypeError or OverflowError when it does not fit.

    Handles only the shapes the config annotations use: the leaves above,
    ``X | None``, ``tuple[X, X]``, ``tuple[X, ...]`` and ``dict[str, X]``.
    """
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:
        return None if value is None else _typed(args[0], value)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise TypeError
        hints = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(value) != len(hints):
            raise TypeError
        return tuple(map(_typed, hints, value))
    if origin is dict:
        if not isinstance(value, dict):
            raise TypeError
        return {_typed(args[0], k): _typed(args[1], v) for k, v in value.items()}
    if not isinstance(value, _LEAVES[hint][0]) or isinstance(value, bool) and hint is not bool:
        raise TypeError
    if hint is float and not math.isfinite(value):  # OverflowError: an int too large
        raise TypeError
    return value


def _noun(hint, plural: bool = False) -> str:
    """How a message names the values the annotation ``hint`` takes."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:
        return f"{_noun(args[0])} or null"
    if origin is tuple:  # tuple[X, ...] is named where the field's name is known
        return f"a list of {len(args)} {_noun(args[0], True)}"
    if origin is dict:
        return f"a map of {_noun(args[0], True)} to {_noun(args[1], True)}"
    return _LEAVES[hint][1 + plural]


def _checked(cls, values, where: str = ""):
    """Build the config dataclass ``cls`` from the dict ``values``, checking each
    field against its annotation: ``(instance, problems)``.

    Each problem names its field by its dotted path; with any problem the
    instance is None.  A section's own range checks (``AttackSpec``) run only
    on well-typed values and report as problems too.
    """
    hints = get_type_hints(cls)
    if not isinstance(values, dict):
        return None, [f"{where or 'the config'} must be a map of settings, got {values!r}"]
    typed, problems = {}, []
    for key, value in values.items():
        name = f"{where}.{key}" if where else key
        hint = hints.get(key)
        if hint is None:
            problems.append(f"{name} is not a config setting")
        elif is_dataclass(hint):
            typed[key], inner = _checked(hint, value, name)
            problems += inner
        else:
            try:
                typed[key] = _typed(hint, value)
            except (TypeError, OverflowError):
                args = get_args(hint)
                noun = (f"a list whose {name} entries are {_noun(args[0], True)}"
                        if args[-1:] == (Ellipsis,) else _noun(hint))
                problems.append(f"{name} must be {noun}, got {value!r}")
    if problems:
        return None, problems
    try:
        return cls(**typed), []
    except ValueError as exc:
        return None, [f"{where}.{exc}"]


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from parsed JSON; every field is checked against its
    annotation before any section is built."""
    cfg, problems = _checked(ExperimentConfig, raw)
    if problems:
        raise ConfigError("invalid config:\n  - " + "\n  - ".join(problems))
    return cfg


def apply_override(cfg_dict: dict, dotted: str, value: str) -> None:
    """Apply one ``section.key=value`` command-line override in place.

    A dotted key must start with a config section; anything else raises
    ConfigError instead of turning a scalar field into a dict.
    """
    keys = dotted.split(".")
    sections = [key for key, hint in get_type_hints(ExperimentConfig).items()
                if is_dataclass(hint)]
    if len(keys) > 1 and keys[0] not in sections:
        raise ConfigError(f"--set {dotted}: {keys[0]!r} is not a config section "
                          f"(choose from {', '.join(sections)})")
    node = cfg_dict
    for k in keys[:-1]:
        node = node.setdefault(k, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set {dotted}: {k!r} already holds a value, not a section")
    try:
        node[keys[-1]] = json.loads(value)
    except ValueError:  # not JSON (or an integer too long to parse): keep the text
        node[keys[-1]] = value


def _value_problems(cfg: ExperimentConfig) -> list[str]:
    """Range and consistency problems of a config whose fields are well typed."""
    dcfg, fed, train = cfg.data, cfg.federation, cfg.train
    synthetic = dcfg.source == "synthetic"
    per_round = fed.clients_per_round
    ranges = (
        ("model", cfg.model in ("lstm", "transformer"), "lstm or transformer"),
        ("setting", cfg.setting in ("central", "federated"), "central or federated"),
        ("protocol", cfg.protocol in PROTOCOLS, f"one of {', '.join(PROTOCOLS)}"),
        ("threshold", 0.0 < cfg.threshold < 1.0, "in (0, 1)"),
        ("data.source", dcfg.source in ("synthetic", "csv"), "synthetic or csv"),
        ("data.csv_path", dcfg.source != "csv" or dcfg.csv_path, "set when data.source is csv"),
        ("data.train_fraction", 0.0 < dcfg.train_fraction < 1.0, "in (0, 1)"),
        ("data.households", not synthetic or dcfg.households >= 1, ">= 1"),
        ("data.days", not synthetic or dcfg.days >= 2, ">= 2"),
        ("federation.rounds", fed.rounds >= 1, ">= 1"),
        ("federation.local_epochs", fed.local_epochs >= 1, ">= 1"),
        ("federation.malicious_count", fed.malicious_count >= 0, ">= 0"),
        ("federation.poison_fraction", 0.0 <= fed.poison_fraction <= 1.0, "in [0, 1]"),
        ("federation.clients_per_round", cfg.setting == "central" or per_round is None
         or 1 <= per_round <= dcfg.households, "in [1, data.households]"),
        ("train.epochs", train.epochs >= 1, ">= 1"),
        ("train.batch_size", train.batch_size >= 1, ">= 1"),
        ("train.base_lr", train.base_lr > 0, "> 0"),
        ("train.lr_decay", train.lr_decay > 0, "> 0"),
        ("train.rho", 0 <= train.rho < 1, "in [0, 1)"),
        ("train.eps_opt", train.eps_opt > 0, "> 0"),
        ("train.focal_alpha", 0 <= train.focal_alpha <= 1, "in [0, 1]"),
        ("train.focal_gamma", train.focal_gamma >= 0, ">= 0"),
        ("train.lr_milestones", all(m >= 1 for m in train.lr_milestones), "epochs >= 1"),
        ("epsilon_list entries", all(e >= 0 for e in cfg.epsilon_list), ">= 0"),
        ("malicious_fraction_list entries",
         all(0.0 < f <= 1.0 for f in cfg.malicious_fraction_list), "in (0, 1]"))
    problems = [f"{name} must be {rule}, got {attrgetter(name.split()[0])(cfg)!r}"
                for name, ok, rule in ranges if not ok]
    try:
        _anomaly_config(cfg, 0)
    except dp.DataError as exc:
        problems.append(f"data.{exc}")
    if fed.malicious_count > dcfg.households:
        problems.append(f"federation.malicious_count {fed.malicious_count} exceeds "
                        f"data.households {dcfg.households}")
    if cfg.setting == "central":
        if fed.malicious_count > 0:
            problems.append("setting central contradicts federation.malicious_count > 0")
        if per_round is not None:
            problems.append("setting central contradicts federation.clients_per_round")
    if cfg.protocol in ("inference_attack", "training_attack") \
            and cfg.attack.family == "none":
        problems.append(f"protocol {cfg.protocol} requires an attack.family")
    if cfg.protocol == "inference_attack" and cfg.attack.family == "label_flip":
        problems.append("attack.family label_flip is a training-time attack; protocol "
                        "inference_attack has no variant of it")
    if cfg.protocol == "baseline" and cfg.attack.family != "none":
        problems.append(f"protocol baseline contradicts attack.family {cfg.attack.family}")
    if cfg.protocol in ("sweep_epsilon", "sweep_malicious") and cfg.setting != "federated":
        problems.append(f"protocol {cfg.protocol} runs in the federated setting only")
    if cfg.protocol == "sweep_epsilon" and not cfg.epsilon_list:
        problems.append("protocol sweep_epsilon needs a non-empty epsilon_list")
    if cfg.protocol == "sweep_malicious" and not cfg.malicious_fraction_list:
        problems.append("protocol sweep_malicious needs a non-empty malicious_fraction_list")
    return problems


def validate_config(cfg: ExperimentConfig) -> tuple[ExperimentConfig, dict[str, int]]:
    """Check the config, fill derived values, and list every derived seed.

    The config is rebuilt through ``config_from_dict``, so one built in code
    or changed with ``setattr`` is type-checked too; range checks run only on
    well-typed fields.  All violations are reported together.
    """
    cfg = config_from_dict(config_to_dict(cfg))
    problems = _value_problems(cfg)
    if problems:
        raise ConfigError("invalid config:\n  - " + "\n  - ".join(problems))

    seeds = {
        "master": cfg.master_seed,
        "data": derive_seed(cfg.master_seed, "data"),
        "inject": derive_seed(cfg.master_seed, "inject"),
        "split": derive_seed(cfg.master_seed, "split"),
        "malicious-assignment": derive_seed(cfg.master_seed, "malicious"),
        "federation": derive_seed(cfg.master_seed, "federation"),
        "central": derive_seed(cfg.master_seed, "central"),
        "attack-eval": derive_seed(cfg.master_seed, "attack-eval"),
    }
    return cfg, seeds


# ---------------------------------------------------------------------------
# data assembly

@dataclass
class ClientData:
    client_id: str
    train: dp.LabeledDataset
    test: dp.LabeledDataset
    windows: dp.UsageWindows
    scaling: dp.ScalingRecord


def _anomaly_config(cfg: ExperimentConfig, ordinal: int) -> dp.AnomalyConfig:
    dcfg = cfg.data
    return dp.AnomalyConfig(
        anomaly_fraction=dcfg.anomaly_fraction,
        kind_weights=(dcfg.kind_weights or
                      {k: 1.0 / len(dp.ANOMALY_KINDS) for k in dp.ANOMALY_KINDS}),
        r_range=dcfg.r_range,
        seed=derive_seed(cfg.master_seed, "inject", ordinal))


def build_client_data(cfg: ExperimentConfig) -> list[ClientData]:
    """Per-household pipeline: series -> profiles -> windows -> labeled,
    normalized, split datasets."""
    dcfg = cfg.data
    if dcfg.source == "csv":
        series_by_household = dp.ingest_csv(dcfg.csv_path)
        items = sorted(series_by_household.items())
    else:
        items = []
        for h in range(dcfg.households):
            hid = f"h{h:02d}"
            items.append((hid, dp.synthesize_household(
                dcfg.days, seed=derive_seed(cfg.master_seed, "data", h),
                household_id=hid)))

    clients = []
    for ordinal, (hid, series) in enumerate(items):
        profiles = dp.segment_daily(series)
        if not profiles:
            raise dp.DataError(f"household {hid!r} has no full 00:00-23:00 day "
                               f"after its first midnight")
        windows = dp.detect_usage_windows(profiles)
        labeled = dp.build_dataset(profiles, windows, _anomaly_config(cfg, ordinal))
        normalized, scaling = dp.normalize(labeled)
        train, test = dp.split(normalized, dcfg.train_fraction,
                               seed=derive_seed(cfg.master_seed, "split", ordinal))
        clients.append(ClientData(hid, train, test, windows, scaling))
    return clients


def pooled(datasets: list[dp.LabeledDataset]) -> tuple[np.ndarray, np.ndarray, list[str]]:
    x = np.vstack([d.profiles for d in datasets])
    y = np.concatenate([d.labels for d in datasets])
    kinds = [k for d in datasets for k in d.kinds]
    return x, y, kinds


# ---------------------------------------------------------------------------
# experiment execution

@dataclass
class RunResult:
    config: ExperimentConfig
    rows: list[list[str]]          # metrics.csv rows
    sweep_points: list[dict]       # per-point records for plot export
    output_dir: str
    files: list[str]


def _resolve_output_dir(cfg: ExperimentConfig) -> str:
    root = os.environ.get(OUTPUT_ROOT_ENV, "")
    out = cfg.output_dir
    if root and not os.path.isabs(out):
        out = os.path.join(root, out)
    os.makedirs(out, exist_ok=True)
    return out


def _setting_label(cfg: ExperimentConfig) -> str:
    arch = "LSTM" if cfg.model == "lstm" else "Transformer"
    return f"{arch} ({'Central' if cfg.setting == 'central' else 'FL'})"


def _attack_label(spec: AttackSpec) -> str:
    return {"none": "No Attack", "fgsm": "FGSM", "pgd": "PGD", "awgn": "AWGN",
            "label_flip": "Label Flip"}[spec.family]


def _train(cfg: ExperimentConfig, clients: list[ClientData], out_dir: str,
           label: str, attack: AttackSpec, malicious_count: int):
    """Train in the configured setting, with ``malicious_count`` clients (or
    the pooled data, centrally) poisoned by ``attack``; returns the model."""
    if cfg.setting == "central":
        x, y, _ = pooled([c.train for c in clients])
        model, _ = run_centralized(
            x, y, cfg.model, cfg.train, attack=attack,
            poison_fraction=cfg.federation.poison_fraction,
            epochs=cfg.train.epochs,
            seed=derive_seed(cfg.master_seed, "central"))
        return model
    malicious = set(rng_for(cfg.master_seed, "malicious").choice(
        len(clients), size=malicious_count, replace=False).tolist())
    nodes = [ClientNode(c.client_id, c.train.profiles, c.train.labels.astype(np.float64),
                        malicious=i in malicious,
                        attack=attack if i in malicious else AttackSpec(),
                        poison_fraction=cfg.federation.poison_fraction)
             for i, c in enumerate(clients)]
    state = init_state(cfg.model, nodes,
                       clients_per_round=cfg.federation.clients_per_round,
                       local_epochs=cfg.federation.local_epochs,
                       seed=derive_seed(cfg.master_seed, "federation"))
    x_test, y_test, _ = pooled([c.test for c in clients])
    run_federation(state, cfg.model, cfg.train, cfg.federation.rounds,
                   eval_x=x_test, eval_y=y_test,
                   eval_every=max(1, cfg.federation.rounds // 10),
                   threshold=cfg.threshold,
                   log_path=os.path.join(out_dir, f"rounds_{label}.jsonl"))
    return global_model(state, cfg.model)


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    cfg, seeds = validate_config(cfg)
    clients = build_client_data(cfg)  # a data error leaves no run directory
    out_dir = _resolve_output_dir(cfg)
    x_test, y_test, kinds_test = pooled([c.test for c in clients])
    label_setting = _setting_label(cfg)
    rows: list[list[str]] = []
    sweep_points: list[dict] = []
    files: list[str] = []

    def emit(path_name: str, writer) -> str:
        path = os.path.join(out_dir, path_name)
        writer(path)
        files.append(path)
        return path

    if cfg.protocol == "baseline":
        model = _train(cfg, clients, out_dir, "clean", AttackSpec(), 0)
        metrics = compute_metrics(classify(model, x_test, cfg.threshold), y_test)
        rows.append(metrics_row(label_setting, "No Attack", metrics, None))
        emit("final_clean.ckpt", lambda p: save_weights(model.get_weights(), p))

    elif cfg.protocol == "inference_attack":
        model = _train(cfg, clients, out_dir, "clean", AttackSpec(), 0)
        x_adv, _ = poison_batch(model, x_test, y_test, cfg.attack,
                                rng_for(cfg.master_seed, "attack-eval"),
                                alpha=cfg.train.focal_alpha, gamma=cfg.train.focal_gamma)
        metrics = compute_metrics(classify(model, x_adv, cfg.threshold), y_test)
        report = asr_inference(model, x_test, x_adv, cfg.threshold)
        rows.append(metrics_row(label_setting, _attack_label(cfg.attack), metrics, report))
        emit("adversarial_test.csv",
             lambda p: dump_adversarial_csv(x_adv, y_test, kinds_test,
                                            cfg.attack.family, cfg.attack.epsilon, p))
        emit("final_clean.ckpt", lambda p: save_weights(model.get_weights(), p))

    elif cfg.protocol == "training_attack":
        clean = _train(cfg, clients, out_dir, "clean", AttackSpec(), 0)
        attacked = _train(cfg, clients, out_dir, f"attacked_{cfg.attack.family}",
                          cfg.attack, cfg.federation.malicious_count)
        clean_metrics = compute_metrics(classify(clean, x_test, cfg.threshold), y_test)
        rows.append(metrics_row(label_setting, "No Attack", clean_metrics, None))
        metrics = compute_metrics(classify(attacked, x_test, cfg.threshold), y_test)
        report = asr_training(clean, attacked, x_test, cfg.threshold)
        rows.append(metrics_row(label_setting, _attack_label(cfg.attack), metrics, report))
        emit("final_clean.ckpt", lambda p: save_weights(clean.get_weights(), p))
        emit(f"final_{cfg.attack.family}.ckpt",
             lambda p: save_weights(attacked.get_weights(), p))

    elif cfg.protocol == "sweep_epsilon":
        for family in ("fgsm", "pgd"):
            for eps in cfg.epsilon_list:
                spec = replace(cfg.attack, family=family, epsilon=eps)
                point_cfg = replace(
                    cfg, attack=spec,
                    master_seed=derive_seed(cfg.master_seed, "sweep-eps", family,
                                            f"{eps:.6g}"))
                label = f"eps{eps:g}_{family}"
                model = _train(point_cfg, clients, out_dir, label, spec,
                               cfg.federation.malicious_count)
                metrics = compute_metrics(classify(model, x_test, cfg.threshold), y_test)
                rows.append(metrics_row(label_setting, f"{_attack_label(spec)} "
                                        f"eps={eps:g}", metrics, None))
                sweep_points.append({"figure": "fig5b", "epsilon": eps,
                                     "attack": family, "accuracy": metrics.accuracy})

    elif cfg.protocol == "sweep_malicious":
        for frac in cfg.malicious_fraction_list:
            count = max(1, int(round(frac * len(clients))))
            spec = replace(cfg.attack, family=cfg.attack.family
                           if cfg.attack.family != "none" else "pgd")
            point_cfg = replace(
                cfg, attack=spec,
                master_seed=derive_seed(cfg.master_seed, "sweep-mal", f"{frac:.6g}"))
            label = f"mal{frac:g}"
            model = _train(point_cfg, clients, out_dir, label, spec, count)
            metrics = compute_metrics(classify(model, x_test, cfg.threshold), y_test)
            rows.append(metrics_row(label_setting,
                                    f"{_attack_label(spec)} malicious={frac:g}",
                                    metrics, None))
            sweep_points.append({"figure": "fig5a", "malicious_fraction": frac,
                                 "attack": spec.family, "accuracy": metrics.accuracy})

    emit("metrics.csv", lambda p: write_metrics_csv(rows, p))
    result = RunResult(cfg, rows, sweep_points, out_dir, files)
    if sweep_points:
        for path in emit_plot_data(result):
            files.append(path)
    _write_snapshot_and_manifest(cfg, seeds, out_dir, files)
    return result


def emit_plot_data(result: RunResult) -> list[str]:
    """One tidy CSV per figure: (x, series, value)."""
    by_figure: dict[str, list[dict]] = {}
    for point in result.sweep_points:
        by_figure.setdefault(point["figure"], []).append(point)
    paths = []
    for figure, points in sorted(by_figure.items()):
        x_key = "epsilon" if figure == "fig5b" else "malicious_fraction"
        path = os.path.join(result.output_dir, f"{figure}.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([x_key, "attack", "accuracy"])
            for p in points:
                writer.writerow([f"{p[x_key]:g}", p["attack"], f"{p['accuracy']:.6f}"])
        paths.append(path)
    return paths


def _write_snapshot_and_manifest(cfg: ExperimentConfig, seeds: dict, out_dir: str,
                                 files: list[str]) -> None:
    snapshot = config_to_dict(cfg)
    canonical = json.dumps(snapshot, sort_keys=True)
    with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    manifest = {
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "seeds": seeds,
        "outputs": sorted(os.path.relpath(f, out_dir) for f in files),
        "platform": platform.platform(),
        "numpy": np.__version__,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
