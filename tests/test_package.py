import dataclasses
import importlib.util
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import types
import typing

import pytest

import fedmeter
from fedmeter import cli
from fedmeter.experiment import ExperimentConfig, config_to_dict

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in fedmeter.__all__ if not hasattr(fedmeter, name)]
    assert missing == []


def test_readme_cli_block_parses():
    # each documented command line, its bracketed optional parts removed, must
    # parse: a renamed command or flag fails here instead of going stale
    readme = README.read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("fedmeter ")]
    assert lines
    parser = cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(re.sub(r"\[[^]]*\]", "", line))[1:])
        except SystemExit:
            pytest.fail(f"README's CLI line does not parse: {line}")


def optional_settings(cls, prefix=""):
    """The dotted names of the config's ``X | None`` leaves."""
    for key, hint in typing.get_type_hints(cls).items():
        if dataclasses.is_dataclass(hint):
            yield from optional_settings(hint, f"{prefix}{key}.")
        elif typing.get_origin(hint) is types.UnionType \
                and type(None) in typing.get_args(hint):
            yield prefix + key


def test_readme_lists_every_optional_setting():
    # README names the settings that take null; a setting added, deleted or
    # made optional without editing that list fails here
    listed = re.search(r"\(`X \| None`:(.*?)\)", README.read_text(encoding="utf-8"), re.S)
    assert listed is not None
    assert sorted(re.findall(r"`([^`]+)`", listed.group(1))) == \
        sorted(optional_settings(ExperimentConfig))


def flattened(values, prefix=""):
    """The dotted name and value of each leaf of a nested settings dict."""
    for key, value in values.items():
        if isinstance(value, dict):
            yield from flattened(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


def test_readme_tabulates_every_setting_and_its_default():
    # README's settings table, one "| `name` | `JSON default` |" row each; a
    # setting added, deleted or given a new default without editing it fails here
    rows = re.findall(r"^\| `([^`]+)` \| `([^`]+)` \|$", README.read_text(encoding="utf-8"),
                      re.M)
    defaults = dict(flattened(config_to_dict(ExperimentConfig())))
    assert [name for name, _ in rows] == list(defaults)
    assert {name: json.loads(value) for name, value in rows} == \
        json.loads(json.dumps(defaults))


def _perfbench_tracing():
    """``perfbench/tracing.py``, loaded by path: the benchmark is no package."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # the traced benchmark run wraps each of these; a renamed or deleted
    # public name would fail only there
    missing = []
    for module_name, class_name, attr, *_ in _perfbench_tracing().TARGETS:
        owner = getattr(fedmeter, module_name, None)
        if class_name is not None:
            owner = getattr(owner, class_name, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(".".join(filter(None, (module_name, class_name, attr))))
    assert missing == []


@pytest.mark.parametrize("workload", ["fl_lstm_pgd", "fl_transformer_clean",
                                      "attack_transformer_pgd"])
def test_benchmark_sets_up(workload):
    # the benchmark's set-up builds configs, training configs and client nodes
    # through the public API; a changed field or signature would fail only there
    root = pathlib.Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "run.py"),
                           "--workload", workload, "--setup-only"],
                          cwd=root, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "setup_s" in json.loads(proc.stdout.splitlines()[-1])


TRACED_FORWARDS = """
import importlib.util, sys
import numpy as np
import fedmeter
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install(fedmeter)
md = fedmeter.models
md.LstmClassifier(seed=0).forward(np.zeros((3, md.SEQ_LEN)))
md.TransformerClassifier(seed=0).forward(np.zeros((5, md.SEQ_LEN)))
print([size for name, size in zip(tracer.names, tracer.sizes) if name == "models.forward"])
"""


def test_tracer_wraps_each_classifiers_forward():
    # the traced benchmark run wraps forward on each classifier class in
    # turn; a wrap that missed a class, or ran twice, would fail only there
    root = pathlib.Path(__file__).resolve().parents[1]
    path = os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", TRACED_FORWARDS,
                           str(root / "perfbench" / "tracing.py")],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[3, 5]"
