"""Declarative experiment runner.

A single JSON config describes data source, model, training setting
(central or federated), attack, protocol, and master seed; ``run_experiment``
executes the full pipeline and writes a metrics CSV, per-round logs,
tidy plot data for the sweep figures, a config snapshot, and a manifest
of the outputs and the platform.  Every random stream derives from the
snapshot's ``master_seed``.  Repeating a run with the same master seed
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
from .attacks import AttackSpec, dump_adversarial_csv
from .evaluation import (asr_from_predictions, classify, compute_metrics, evaluate_attacks,
                         metrics_row, write_metrics_csv)
from .federation import (ClientNode, global_model, init_state, run_centralized,
                         run_federation)
from .models import BLAS_THREAD_VARS, TrainConfig, _workers, blas_build, save_weights
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
    csv_path: str | None = None    # None: data.households synthetic households
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
    synthetic = dcfg.csv_path is None
    per_round = fed.clients_per_round
    ranges = (
        ("model", cfg.model in ("lstm", "transformer"), "lstm or transformer"),
        ("setting", cfg.setting in ("central", "federated"), "central or federated"),
        ("protocol", cfg.protocol in PROTOCOLS, f"one of {', '.join(PROTOCOLS)}"),
        ("threshold", 0.0 < cfg.threshold < 1.0, "in (0, 1)"),
        ("data.csv_path", synthetic or dcfg.csv_path, "null or a non-empty path"),
        ("data.train_fraction", 0.0 < dcfg.train_fraction < 1.0, "in (0, 1)"),
        ("data.households", not synthetic or dcfg.households >= 1, ">= 1"),
        ("data.days", not synthetic or dcfg.days >= 2, ">= 2"),
        ("federation.rounds", fed.rounds >= 1, ">= 1"),
        ("federation.local_epochs", fed.local_epochs >= 1, ">= 1"),
        ("federation.malicious_count", fed.malicious_count >= 0, ">= 0"),
        ("federation.poison_fraction", 0.0 <= fed.poison_fraction <= 1.0, "in [0, 1]"),
        ("federation.clients_per_round", per_round is None or per_round >= 1, ">= 1"),
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
    if cfg.setting == "central":
        if fed.malicious_count > 0:
            problems.append("setting central contradicts federation.malicious_count > 0")
        if per_round is not None:
            problems.append("setting central contradicts federation.clients_per_round")
    elif fed.malicious_count > 0 and cfg.protocol in ("baseline", "inference_attack",
                                                       "sweep_malicious"):
        problems.append(f"protocol {cfg.protocol} does not read federation.malicious_count; "
                        f"it must be 0, got {fed.malicious_count}")
    if cfg.protocol in ("inference_attack", "training_attack") \
            and cfg.attack.family == "none":
        problems.append(f"protocol {cfg.protocol} requires an attack.family")
    if cfg.protocol == "inference_attack" and cfg.attack.family == "label_flip":
        problems.append("attack.family label_flip is a training-time attack; protocol "
                        "inference_attack has no variant of it")
    if cfg.protocol in ("training_attack", "sweep_epsilon", "sweep_malicious") \
            and fed.poison_fraction == 0:  # other values out of range are named above
        problems.append(f"protocol {cfg.protocol} poisons nothing with "
                        f"federation.poison_fraction 0; it must be > 0")
    if cfg.protocol in ("training_attack", "sweep_epsilon") and cfg.setting == "federated" \
            and fed.malicious_count == 0:
        problems.append(f"protocol {cfg.protocol} poisons nothing with "
                        f"federation.malicious_count 0; it must be >= 1")
    if cfg.protocol == "baseline" and cfg.attack.family != "none":
        problems.append(f"protocol baseline contradicts attack.family {cfg.attack.family}")
    if cfg.protocol in ("sweep_epsilon", "sweep_malicious") and cfg.setting != "federated":
        problems.append(f"protocol {cfg.protocol} runs in the federated setting only")
    if cfg.protocol == "sweep_epsilon" and not cfg.epsilon_list:
        problems.append("protocol sweep_epsilon needs a non-empty epsilon_list")
    if cfg.protocol == "sweep_malicious" and not cfg.malicious_fraction_list:
        problems.append("protocol sweep_malicious needs a non-empty malicious_fraction_list")
    return problems


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Check the config and return it with derived values filled.

    The config is rebuilt through ``config_from_dict``, so one built in code
    or changed with ``setattr`` is type-checked too; range checks run only on
    well-typed fields.  All violations are reported together.  The client
    counts are checked by ``run_experiment``, against the households it loads.
    """
    cfg = config_from_dict(config_to_dict(cfg))
    problems = _value_problems(cfg)
    if problems:
        raise ConfigError("invalid config:\n  - " + "\n  - ".join(problems))
    return cfg


# ---------------------------------------------------------------------------
# data assembly

@dataclass
class ClientData:
    client_id: str
    train: dp.LabeledDataset
    test: dp.LabeledDataset


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
    if dcfg.csv_path is not None:
        items = sorted(dp.ingest_csv(dcfg.csv_path).items())
    else:
        items = [(series.household_id, series) for series in
                 dp.synthetic_households(dcfg.households, dcfg.days, cfg.master_seed)]

    clients = []
    for ordinal, (hid, series) in enumerate(items):
        profiles = dp.segment_daily(series)
        if len(profiles) == 0:
            raise dp.DataError(f"household {hid!r} has no full 00:00-23:00 day "
                               f"after its first midnight")
        windows = dp.detect_usage_windows(profiles)
        labeled = dp.build_dataset(profiles, windows, _anomaly_config(cfg, ordinal))
        normalized, _ = dp.normalize(labeled)
        train, test = dp.split(normalized, dcfg.train_fraction,
                               seed=derive_seed(cfg.master_seed, "split", ordinal))
        clients.append(ClientData(hid, train, test))
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
    rows: list[list[str]]          # metrics.csv rows
    output_dir: str


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


def _train(cfg: ExperimentConfig, clients: list[ClientData], emit,
           label: str, attack: AttackSpec, malicious_count: int):
    """Train in the configured setting, with ``malicious_count`` clients (or
    the pooled data, centrally) poisoned by ``attack``; returns the model.
    A federated run writes its round log through ``emit``."""
    if cfg.setting == "central":
        x, y, _ = pooled([c.train for c in clients])
        model, _ = run_centralized(
            x, y, cfg.model, cfg.train, seed=derive_seed(cfg.master_seed, "central"),
            attack=attack, poison_fraction=cfg.federation.poison_fraction)
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
    emit(f"rounds_{label}.jsonl", lambda p: run_federation(
        state, cfg.model, cfg.train, cfg.federation.rounds, eval_x=x_test, eval_y=y_test,
        threshold=cfg.threshold, log_path=p))
    return global_model(state, cfg.model)


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    cfg = validate_config(cfg)
    clients = build_client_data(cfg)  # a data or count error leaves no run directory
    fed = cfg.federation
    too_many = [f"federation.{name} {count} exceeds the {len(clients)} households loaded"
                for name, count in (("malicious_count", fed.malicious_count),
                                    ("clients_per_round", fed.clients_per_round))
                if count is not None and count > len(clients)]
    if too_many:
        raise ConfigError("invalid config:\n  - " + "\n  - ".join(too_many))
    out_dir = _resolve_output_dir(cfg)
    x_test, y_test, kinds_test = pooled([c.test for c in clients])
    label_setting = _setting_label(cfg)
    rows: list[list[str]] = []
    files: list[str] = []

    def emit(path_name: str, writer) -> None:
        path = os.path.join(out_dir, path_name)
        writer(path)
        files.append(path)

    if cfg.protocol in ("baseline", "inference_attack"):
        model = _train(cfg, clients, emit, "clean", AttackSpec(), 0)
        clean, attacked = evaluate_attacks(
            model, x_test, y_test, (cfg.attack,) if cfg.protocol == "inference_attack" else (),
            rng_for(cfg.master_seed, "attack-eval"), threshold=cfg.threshold,
            alpha=cfg.train.focal_alpha, gamma=cfg.train.focal_gamma)
        if cfg.protocol == "baseline":
            rows.append(metrics_row(label_setting, "No Attack", clean, None))
        for spec, x_adv, metrics, report in attacked:
            rows.append(metrics_row(label_setting, _attack_label(spec), metrics, report))
            emit("adversarial_test.csv",
                 lambda p: dump_adversarial_csv(x_adv, y_test, kinds_test,
                                                spec.family, spec.epsilon, p))
        emit("final_clean.ckpt", lambda p: save_weights(model.get_weights(), p))

    elif cfg.protocol == "training_attack":
        clean = _train(cfg, clients, emit, "clean", AttackSpec(), 0)
        attacked = _train(cfg, clients, emit, f"attacked_{cfg.attack.family}",
                          cfg.attack, cfg.federation.malicious_count)
        pred_clean = classify(clean, x_test, cfg.threshold)
        rows.append(metrics_row(label_setting, "No Attack",
                                compute_metrics(pred_clean, y_test), None))
        pred_attacked = classify(attacked, x_test, cfg.threshold)
        metrics = compute_metrics(pred_attacked, y_test)
        report = asr_from_predictions(pred_clean, pred_attacked, "training_attack")
        rows.append(metrics_row(label_setting, _attack_label(cfg.attack), metrics, report))
        emit("final_clean.ckpt", lambda p: save_weights(clean.get_weights(), p))
        emit(f"final_{cfg.attack.family}.ckpt",
             lambda p: save_weights(attacked.get_weights(), p))

    else:  # a sweep: one federated training_attack per point, and one figure
        if cfg.protocol == "sweep_epsilon":
            figure, x_name = "fig5b", "epsilon"
            points = [(replace(cfg.attack, family=family, epsilon=eps),
                       cfg.federation.malicious_count, ("sweep-eps", family, f"{eps:.6g}"),
                       f"eps{eps:g}_{family}", f"eps={eps:g}", eps)
                      for family in ("fgsm", "pgd") for eps in cfg.epsilon_list]
        else:
            figure, x_name = "fig5a", "malicious_fraction"
            spec = replace(cfg.attack, family=cfg.attack.family
                           if cfg.attack.family != "none" else "pgd")
            points = [(spec, max(1, int(round(frac * len(clients)))),
                       ("sweep-mal", f"{frac:.6g}"), f"mal{frac:g}", f"malicious={frac:g}", frac)
                      for frac in cfg.malicious_fraction_list]
        figure_rows = [[x_name, "attack", "accuracy"]]
        for spec, count, seed_path, label, value, x in points:
            point_cfg = replace(cfg, attack=spec,
                                master_seed=derive_seed(cfg.master_seed, *seed_path))
            model = _train(point_cfg, clients, emit, label, spec, count)
            metrics = compute_metrics(classify(model, x_test, cfg.threshold), y_test)
            rows.append(metrics_row(label_setting, f"{_attack_label(spec)} {value}",
                                    metrics, None))
            figure_rows.append([f"{x:g}", spec.family, f"{metrics.accuracy:.6f}"])

        def write_figure(path):
            with open(path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows(figure_rows)
        emit(f"{figure}.csv", write_figure)

    emit("metrics.csv", lambda p: write_metrics_csv(rows, p))
    _write_snapshot_and_manifest(cfg, out_dir, files)
    return RunResult(rows, out_dir)


def _write_snapshot_and_manifest(cfg: ExperimentConfig, out_dir: str,
                                 files: list[str]) -> None:
    snapshot = config_to_dict(cfg)
    canonical = json.dumps(snapshot, sort_keys=True)
    with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    manifest = {
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "outputs": sorted(os.path.relpath(f, out_dir) for f in files),
        "platform": platform.platform(),
        "numpy": np.__version__,
        # the BLAS thread count can change the bits (README); None when unset
        "blas": blas_build(),
        "blas_thread_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "workers": _workers(),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
