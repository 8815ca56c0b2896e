"""Span tracing for the benchmark's traced run.

The wrappers live here, outside the program: each one replaces a public
fedmeter function under every name a fedmeter module looks it up by, and
records one span per call (name, start, end, parent) plus an optional work
size (rows or bytes).  Spans stay in memory until the run ends; per-layer
metrics are derived from them afterwards.
"""

from __future__ import annotations

import functools
import json
import os
import time


def replace_everywhere(modules, original, replacement) -> None:
    """Rebind every module global that refers to ``original``.

    fedmeter modules import functions by name (``federation`` binds
    ``train_local`` itself), so patching only the defining module would miss
    those callers.
    """
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def _rows(args, kwargs, result):
    return args[1].shape[0]


def _result_bytes(args, kwargs, result):
    return len(result)


def _arg_bytes(args, kwargs, result):
    return len(args[0])


def _file_bytes(args, kwargs, result):
    path = args[5] if len(args) > 5 else kwargs["path"]
    return os.path.getsize(path)


# (module, class or None, attribute, span name, work-size unit, size function)
TARGETS = (
    ("attacks", None, "poison_batch", "attacks.poison_batch", "rows", _rows),
    ("attacks", None, "pgd", "attacks.pgd", "rows", _rows),
    ("attacks", None, "dump_adversarial_csv", "attacks.dump_adversarial_csv",
     "bytes", _file_bytes),
    ("models", None, "input_gradient", "models.input_gradient", "rows", _rows),
    ("models", "LstmClassifier", "forward", "models.forward", "rows", _rows),
    ("models", "TransformerClassifier", "forward", "models.forward", "rows", _rows),
    ("models", None, "train_local", "models.train_local", "rows", _rows),
    ("models", "RmsProp", "step", "models.optimizer_step", None, None),
    ("models", None, "predict_proba", "models.predict_proba", "rows", _rows),
    ("models", None, "make_model", "models.make_model", None, None),
    ("models", None, "weights_to_bytes", "models.wire", "bytes", _result_bytes),
    ("models", None, "weights_from_bytes", "models.wire", "bytes", _arg_bytes),
    ("models", None, "save_weights", "models.save_weights", None, None),
    ("autodiff", None, "backward", "autodiff.backward", None, None),
    ("federation", None, "run_round", "federation.run_round", None, None),
    ("federation", None, "poisoned_training_set", "federation.poisoned_training_set",
     None, None),
    ("federation", None, "fedavg", "federation.fedavg", None, None),
    ("evaluation", None, "classify", "evaluation.classify", "rows", _rows),
    ("evaluation", None, "compute_metrics", "evaluation.compute_metrics", None, None),
    ("evaluation", None, "asr_inference", "evaluation.asr_inference", None, None),
    ("evaluation", None, "write_metrics_csv", "evaluation.write_metrics_csv", None, None),
    ("experiment", None, "build_client_data", "experiment.build_client_data", None, None),
    ("data", None, "synthesize_household", "data.synthesize_household", None, None),
    ("data", None, "build_dataset", "data.build_dataset", None, None),
    ("seeding", None, "derive_seed", "seeding.derive_seed", None, None),
)

# Counts per federated round, taken from spans nested inside run_round.
PER_ROUND_COUNTS = (
    ("federation.input_gradient_calls_per_round", "models.input_gradient"),
    ("federation.models_built_per_round", "models.make_model"),
)


def span_names() -> list[str]:
    return list(dict.fromkeys(t[3] for t in TARGETS))


def size_units() -> dict[str, str]:
    return {t[3]: t[4] for t in TARGETS if t[4] is not None}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = size_units()
    out = []
    for name in span_names():
        out += [(f"{name}.calls", "count"), (f"{name}.s", "s"), (f"{name}.self_s", "s")]
        if name in units:
            out.append((f"{name}.{units[name]}", units[name]))
    out += [(metric, "count") for metric, _ in PER_ROUND_COUNTS]
    out.append(("trace.run_s", "s"))
    return out


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.sizes: list[int] = []
        self._open: list[int] = []

    def wrap(self, fn, name: str, size=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._open[-1] if self._open else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self.sizes.append(0)
            self._open.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self.starts[idx] = start
                self._open.pop()
            if size is not None:
                self.sizes[idx] = size(args, kwargs, result)
            return result
        return traced

    def install(self, package) -> None:
        """Wrap every target under each name fedmeter looks it up by."""
        modules = [getattr(package, m) for m in
                   ("attacks", "autodiff", "data", "evaluation", "experiment",
                    "federation", "models", "seeding")]
        for module_name, class_name, attr, name, _unit, size in TARGETS:
            module = getattr(package, module_name)
            if class_name is not None:
                cls = getattr(module, class_name)
                setattr(cls, attr, self.wrap(getattr(cls, attr), name, size))
            else:
                original = getattr(module, attr)
                replace_everywhere(modules, original, self.wrap(original, name, size))

    def _ancestor_named(self, idx: int, name: str) -> bool:
        parent = self.parents[idx]
        while parent >= 0:
            if self.names[parent] == name:
                return True
            parent = self.parents[parent]
        return False

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, inclusive and self seconds, work sizes and counts."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child_time = [0.0] * len(durations)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += durations[idx]
        units = size_units()
        out: dict[str, float] = {}
        for name in span_names():
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
            if name in units:
                out[f"{name}.{units[name]}"] = 0
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += durations[idx]
            out[f"{name}.self_s"] += durations[idx] - child_time[idx]
            if name in units:
                out[f"{name}.{units[name]}"] += self.sizes[idx]
        rounds = out["federation.run_round.calls"]
        for metric, span in PER_ROUND_COUNTS:
            inside = sum(1 for idx, name in enumerate(self.names)
                         if name == span and self._ancestor_named(idx, "federation.run_round"))
            out[metric] = inside / rounds if rounds else 0
        return out

    def write(self, path) -> None:
        """One JSON line per span: name, start, end, parent index, size."""
        with open(path, "w", encoding="utf-8") as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents, self.sizes):
                fh.write(json.dumps(row) + "\n")
