"""Declarative experiment runner.

A single JSON config describes data source, model, training setting
(central or federated), attack, protocol, and master seed; ``run_experiment``
writes a metrics CSV, per-round logs, tidy plot data for the sweep figures,
the run's wall time and peak memory, a config snapshot, and a manifest of the
outputs and the platform.

A protocol is a preset list of trainings, each an attack spec and a number
of malicious clients; each training is scored on the clean test set and
under the run's inference-time attacks:

baseline          one clean training
inference_attack  one clean training, scored on a fully perturbed test set
training_attack   a clean and a poisoned training; the ASR counts the flips between them
sweep_epsilon     a poisoned training per epsilon, for FGSM and PGD (federated)
sweep_malicious   a poisoned training per malicious-client fraction, PGD (federated)

A run's length is ``train.epochs`` global epochs in both settings: a
central training makes that many passes over the pooled data, and a
federation runs that many rounds, each training every client for one local
epoch, so the learning-rate milestones fall on the same epochs.

Every training of a run draws from the ``master_seed`` alone, whatever its
spec: its initial weights (the same in both settings), malicious clients
(a prefix of one seeded permutation, so the sets nest), shuffles and
poisoning subsets.  Repeating a run reproduces the metrics files byte for
byte on one platform.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
import os
import platform
import time
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from operator import attrgetter
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from . import data as dp
from .attacks import AttackSpec, dump_adversarial_csv
from .evaluation import asr_from_predictions, evaluate_attacks, metrics_row, write_metrics_csv
from .federation import ClientNode, global_model, init_state, run_centralized, run_federation
from .models import BLAS_THREAD_VARS, TrainConfig, _workers, blas_build, save_weights
from .seeding import derive_seed, rng_for

OUTPUT_ROOT_ENV = "FEDMETER_OUTPUT_ROOT"

PROTOCOLS = ("baseline", "inference_attack", "training_attack",
             "sweep_epsilon", "sweep_malicious")
# the settings each protocol overrides or never reads, and why; each must keep
# its default (an attack setting no attack of the run reads is named by
# _value_problems, and baseline's attack.family has its own message)
_CLEAN = (("federation.malicious_count",), "it trains once, on clean data")
_NO_EPS = (("epsilon_list",), "only sweep_epsilon reads it")
_NO_FRACTIONS = (("malicious_fraction_list",), "only sweep_malicious reads it")
_UNREAD = {
    "baseline": (_CLEAN, _NO_EPS, _NO_FRACTIONS),
    "inference_attack": (_CLEAN, _NO_EPS, _NO_FRACTIONS),
    "training_attack": (_NO_EPS, _NO_FRACTIONS),
    "sweep_epsilon": ((("attack.family", "attack.epsilon"),
                       "each point trains fgsm or pgd at an epsilon_list entry"), _NO_FRACTIONS),
    "sweep_malicious": ((("federation.malicious_count",),
                         "each point takes its count from malicious_fraction_list"), _NO_EPS),
}
# the attack families that read each attack setting besides the family
_READ_BY = {"epsilon": ("fgsm", "pgd"), "pgd_iters": ("pgd",), "project_linf": ("pgd",)}


class ConfigError(ValueError):
    """Invalid or contradictory experiment configuration."""


@dataclass
class DataConfig:
    csv_path: str | None = None    # None: data.households synthetic households
    households: int = 19
    days: int = 365
    anomaly_fraction: float = 0.10


@dataclass
class FederationConfig:  # the run's length is train.epochs (module docstring)
    malicious_count: int = 0


@dataclass
class ExperimentConfig:
    name: str = "experiment"
    model: str = "lstm"
    setting: str = "federated"     # central | federated
    protocol: str = "baseline"
    master_seed: int = 0
    output_dir: str = "runs/experiment"
    data: DataConfig = field(default_factory=DataConfig)
    federation: FederationConfig = field(default_factory=FederationConfig)
    attack: AttackSpec = field(default_factory=AttackSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    epsilon_list: tuple[float, ...] = (0.1, 0.2, 0.4, 0.5, 0.8)
    malicious_fraction_list: tuple[float, ...] = (0.1, 0.2, 0.3, 0.5)


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
    ``X | None`` and ``tuple[X, ...]``.
    """
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:
        return None if value is None else _typed(args[0], value)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise TypeError
        return tuple(_typed(args[0], item) for item in value)
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
    return _LEAVES[hint][1 + plural]


def _checked(cls, values, where: str = ""):
    """Build the config dataclass ``cls`` from the dict ``values``, checking each
    field against its annotation: ``(instance, problems)``.

    Each problem names its field by its dotted path; with any problem the
    instance is None.  A section's own range checks (``AttackSpec``) run only
    on well-typed values and report each problem too.
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
                noun = (f"a list whose {name} entries are {_noun(get_args(hint)[0], True)}"
                        if get_origin(hint) is tuple else _noun(hint))
                problems.append(f"{name} must be {noun}, got {value!r}")
    if problems:
        return None, problems
    try:
        return cls(**typed), []
    except ValueError as exc:  # one problem a line
        return None, [f"{where}.{line}" for line in str(exc).splitlines()]


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
    ranges = (
        ("model", cfg.model in ("lstm", "transformer"), "lstm or transformer"),
        ("setting", cfg.setting in ("central", "federated"), "central or federated"),
        ("protocol", cfg.protocol in PROTOCOLS, f"one of {', '.join(PROTOCOLS)}"),
        ("output_dir", cfg.output_dir, "a non-empty path"),
        ("data.csv_path", synthetic or dcfg.csv_path, "null or a non-empty path"),
        ("data.anomaly_fraction", 0.0 < dcfg.anomaly_fraction < 1.0, "in (0, 1)"),
        ("data.households", not synthetic or dcfg.households >= 1, ">= 1"),
        ("data.days", not synthetic or dcfg.days >= 2, ">= 2"),
        ("federation.malicious_count", fed.malicious_count >= 0, ">= 0"),
        ("train.epochs", train.epochs >= 1, ">= 1"),
        ("train.batch_size", train.batch_size >= 1, ">= 1"),
        ("train.base_lr", train.base_lr > 0, "> 0"),
        ("train.focal_alpha", 0 <= train.focal_alpha <= 1, "in [0, 1]"),
        ("train.focal_gamma", train.focal_gamma >= 0, ">= 0"),
        ("epsilon_list entries", all(e >= 0 for e in cfg.epsilon_list), ">= 0"),
        ("malicious_fraction_list entries",
         all(0.0 < f <= 1.0 for f in cfg.malicious_fraction_list), "in (0, 1]"))
    problems = [f"{name} must be {rule}, got {attrgetter(name.split()[0])(cfg)!r}"
                for name, ok, rule in ranges if not ok]
    for name in ("epsilon_list", "malicious_fraction_list"):  # a point's label names its files
        by_label = {}
        for value in getattr(cfg, name):
            by_label.setdefault(f"{value:g}", []).append(repr(value))
        problems += [f"{name} entries {' and '.join(same)} share the label {label}"
                     for label, same in by_label.items() if len(same) > 1]
    if not synthetic:  # only the synthesizer reads these two
        problems += [f"data.{name} is read for synthetic households only; with "
                     f"data.csv_path set it must stay {getattr(DataConfig, name)}, "
                     f"got {getattr(dcfg, name)!r}"
                     for name in ("households", "days")
                     if getattr(dcfg, name) != getattr(DataConfig, name)]
    if cfg.setting == "central" and fed.malicious_count > 0:
        problems.append("setting central contradicts federation.malicious_count > 0")
    if cfg.protocol in ("inference_attack", "training_attack") \
            and cfg.attack.family == "none":
        problems.append(f"protocol {cfg.protocol} requires an attack.family")
    if cfg.protocol == "inference_attack" and cfg.attack.family == "label_flip":
        problems.append("attack.family label_flip is a training-time attack; protocol "
                        "inference_attack has no variant of it")
    if cfg.protocol in ("training_attack", "sweep_epsilon") and cfg.setting == "federated" \
            and fed.malicious_count == 0:
        problems.append(f"protocol {cfg.protocol} poisons nothing with "
                        f"federation.malicious_count 0; it must be >= 1")
    if cfg.protocol == "baseline" and cfg.attack.family != "none":
        problems.append(f"protocol baseline contradicts attack.family {cfg.attack.family}; "
                        f"inference_attack and training_attack are the protocols that "
                        f"read an attack")
    unread = [(name, why) for names, why in _UNREAD.get(cfg.protocol, ()) for name in names]
    try:
        families = {spec.family for spec, *_ in _preset(cfg, 1)[0]}
    except ValueError:  # sweep_epsilon's specs at an entry below 0 (named above)
        families = {"fgsm", "pgd"}
    families.update(spec.family for spec in _inference_specs(cfg))
    for name, readers in _READ_BY.items():
        if families.isdisjoint(readers):
            unread.append((f"attack.{name}", f"read by {' and '.join(readers)} only"))
    defaults = ExperimentConfig()
    problems += [f"protocol {cfg.protocol} does not read {name}; it must be "
                 f"{attrgetter(name)(defaults)!r}, got {attrgetter(name)(cfg)!r} ({why})"
                 for name, why in unread if attrgetter(name)(cfg) != attrgetter(name)(defaults)]
    if cfg.protocol in ("sweep_epsilon", "sweep_malicious") and cfg.setting != "federated":
        problems.append(f"protocol {cfg.protocol} runs in the federated setting only")
    if cfg.protocol == "sweep_epsilon" and not cfg.epsilon_list:
        problems.append("protocol sweep_epsilon needs a non-empty epsilon_list")
    if cfg.protocol == "sweep_malicious" and not cfg.malicious_fraction_list:
        problems.append("protocol sweep_malicious needs a non-empty malicious_fraction_list")
    return problems


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Check the config and return it as ``config_from_dict`` rebuilds it.

    The rebuild type-checks a config built in code or changed with
    ``setattr`` too, and lists every type problem and every attack range
    problem together; the other range and consistency problems are listed
    together once all of those pass.  The malicious-client counts are
    checked by ``run_experiment``, against the households it loads.
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


def build_client_data(cfg: ExperimentConfig) -> list[ClientData]:
    """Per-household pipeline: profiles -> windows -> labeled, normalized,
    split datasets.  A DataError names the household it arose in."""
    dcfg = cfg.data
    if dcfg.csv_path is not None:
        items = sorted(dp.ingest_csv(dcfg.csv_path).items())
        if not items:
            raise dp.DataError(f"{dcfg.csv_path}: no readings")
    else:
        items = dp.synthetic_households(dcfg.households, dcfg.days, cfg.master_seed)

    clients = []
    for ordinal, (hid, profiles) in enumerate(items):
        if len(profiles) == 0:
            raise dp.DataError(f"household {hid!r} has no full 00:00-23:00 day "
                               f"after its first midnight")
        try:
            windows = dp.detect_usage_windows(profiles)
            labeled = dp.build_dataset(profiles, windows, dcfg.anomaly_fraction,
                                       derive_seed(cfg.master_seed, "inject", ordinal))
            train, test = dp.split(dp.normalize(labeled),
                                   seed=derive_seed(cfg.master_seed, "split", ordinal))
        except dp.DataError as exc:
            raise dp.DataError(f"household {hid!r}: {exc}") from None
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
    out = os.path.join(os.environ.get(OUTPUT_ROOT_ENV, ""), cfg.output_dir)  # unless absolute
    os.makedirs(out, exist_ok=True)
    return out


_ATTACK_LABELS = {"none": "No Attack", "fgsm": "FGSM", "pgd": "PGD", "awgn": "AWGN",
                 "label_flip": "Label Flip"}


def _preset(cfg: ExperimentConfig, n_clients: int):
    """The protocol's trainings, each ``(attack, malicious count, label, x)``:
    ``malicious count`` clients (centrally, the pooled data) poisoned by
    ``attack``, ``label`` naming its round log and ``x`` its point on a
    sweep's figure.  Also the figure, as ``(file name, x column, x's name in
    a metrics row)``, or None for a protocol that writes checkpoints instead."""
    attack, count = cfg.attack, cfg.federation.malicious_count
    if cfg.protocol == "sweep_epsilon":
        return [(replace(attack, family=family, epsilon=eps), count, f"eps{eps:g}_{family}", eps)
                for family in ("fgsm", "pgd") for eps in cfg.epsilon_list
                ], ("fig5b.csv", "epsilon", "eps")
    if cfg.protocol == "sweep_malicious":
        spec = replace(attack, family=attack.family if attack.family != "none" else "pgd")
        return [(spec, max(1, int(round(frac * n_clients))), f"mal{frac:g}", frac)
                for frac in cfg.malicious_fraction_list
                ], ("fig5a.csv", "malicious_fraction", "malicious")
    clean = (AttackSpec(), 0, "clean", None)
    if cfg.protocol == "training_attack":
        return [clean, (attack, count, f"attacked_{attack.family}", None)], None
    return [clean], None


def _inference_specs(cfg: ExperimentConfig) -> tuple[AttackSpec, ...]:
    """The attacks each trained model is scored under besides the clean test set."""
    return (cfg.attack,) if cfg.protocol == "inference_attack" else ()


def _train(cfg: ExperimentConfig, clients: list[ClientData],
           test: tuple[np.ndarray, np.ndarray], emit, attack: AttackSpec,
           malicious_count: int, label: str):
    """Train in the configured setting for ``train.epochs`` global epochs,
    with ``malicious_count`` clients (or the pooled data, centrally) poisoned
    by ``attack``, from the master seed's streams (see the module
    docstring); returns the model.  A federated training scores its global
    model on the pooled ``test`` set and writes its round log through
    ``emit``."""
    seed = derive_seed(cfg.master_seed, "federation")
    if cfg.setting == "central":
        x, y, _ = pooled([c.train for c in clients])
        return run_centralized(x, y, cfg.model, cfg.train, seed=seed, attack=attack)[0]
    order = rng_for(cfg.master_seed, "malicious").permutation(len(clients))
    malicious = set(order[:malicious_count].tolist())
    nodes = [ClientNode(c.client_id, c.train.profiles, c.train.labels.astype(np.float64),
                        malicious=i in malicious,
                        attack=attack if i in malicious else AttackSpec())
             for i, c in enumerate(clients)]
    state = init_state(cfg.model, nodes, seed=seed)
    emit(f"rounds_{label}.jsonl", lambda p: run_federation(
        state, cfg.model, cfg.train, eval_x=test[0], eval_y=test[1], log_path=p))
    return global_model(state, cfg.model)


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    start = time.perf_counter()
    cfg = validate_config(cfg)
    clients = build_client_data(cfg)  # a data or count error leaves no run directory
    malicious = cfg.federation.malicious_count
    problems = ([f"federation.malicious_count {malicious} exceeds the {len(clients)} "
                 f"households loaded"] if malicious > len(clients) else [])
    trainings, figure = _preset(cfg, len(clients))
    if cfg.protocol == "sweep_malicious":  # two points with one count train one model
        by_count = {}
        for _, count, _, fraction in trainings:
            by_count.setdefault(count, []).append(repr(fraction))
        problems += [f"malicious_fraction_list entries {' and '.join(same)} each make "
                     f"{count} of the {len(clients)} households loaded malicious"
                     for count, same in by_count.items() if len(same) > 1]
    if problems:
        raise ConfigError("invalid config:\n  - " + "\n  - ".join(problems))
    out_dir = _resolve_output_dir(cfg)
    x_test, y_test, kinds_test = pooled([c.test for c in clients])
    setting = (f"{'LSTM' if cfg.model == 'lstm' else 'Transformer'} "
               f"({'Central' if cfg.setting == 'central' else 'FL'})")
    # an inference-time attack's rows take the place of the clean-test row
    specs = _inference_specs(cfg)
    rows, files = [], []
    figure_rows = [[figure[1], "attack", "accuracy"]] if figure else []
    reference = None  # the run's clean training's test predictions

    def emit(path_name: str, writer) -> None:
        path = os.path.join(out_dir, path_name)
        writer(path)
        files.append(path)

    for attack, count, label, x in trainings:
        model = _train(cfg, clients, (x_test, y_test), emit, attack, count, label)
        pred, clean, attacked = evaluate_attacks(
            model, x_test, y_test, specs, rng_for(cfg.master_seed, "attack-eval"),
            alpha=cfg.train.focal_alpha, gamma=cfg.train.focal_gamma)
        # a poisoned training's ASR: the share of the clean training's test
        # predictions it flips, when the run has a clean training
        report = None
        if attack.family == "none":
            reference = pred
        elif reference is not None:
            report = asr_from_predictions(reference, pred)
        name = _ATTACK_LABELS[attack.family]
        if figure:
            name += f" {figure[2]}={x:g}"
            figure_rows.append([f"{x:g}", attack.family, f"{clean.accuracy:.6f}"])
        else:
            emit(f"final_{label.removeprefix('attacked_')}.ckpt",
                 lambda p: save_weights(model.get_weights(), p))
        if not specs:
            rows.append(metrics_row(setting, name, clean, report))
        for spec, x_adv, metrics, asr in attacked:
            rows.append(metrics_row(setting, _ATTACK_LABELS[spec.family], metrics, asr))
            epsilon = spec.epsilon if spec.family in _READ_BY["epsilon"] else None
            emit("adversarial_test.csv",
                 lambda p: dump_adversarial_csv(x_adv, y_test, kinds_test,
                                                spec.family, epsilon, p))

    if figure:
        def write_figure(path):
            with open(path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows(figure_rows)
        emit(figure[0], write_figure)
    emit("metrics.csv", lambda p: write_metrics_csv(rows, p))
    emit("run_stats.json", lambda p: _write_run_stats(p, time.perf_counter() - start))
    _write_snapshot_and_manifest(cfg, out_dir, files)
    return RunResult(rows, out_dir)


def _write_run_stats(path: str, wall_s: float) -> None:
    """The run's wall seconds and the process's peak RSS so far, in MB of
    1024 KiB (``ru_maxrss`` is KiB on Linux; None without ``resource``).
    Timings differ between reruns, so no determinism check reads this file."""
    peak = None if resource is None else resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"peak_rss_mb": peak, "wall_s": wall_s}, indent=2,
                            sort_keys=True) + "\n")


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
