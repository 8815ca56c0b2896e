import importlib.util
import pathlib

import fedmeter


def test_every_exported_name_resolves():
    missing = [name for name in fedmeter.__all__ if not hasattr(fedmeter, name)]
    assert missing == []


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
