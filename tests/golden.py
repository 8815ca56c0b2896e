"""The golden matrix: fixed-seed runs whose result files must keep their bits.

    PYTHONPATH=src python tests/golden.py [--write]

writes the golden CSV with ``fedmeter synth-data``, runs every entry of
``MATRIX`` for both models into a temporary directory, and prints one JSON
object: the environment it ran in and the SHA-256 of the CSV and of each
result file.  With ``--write`` it records that object in
``tests/golden.json``, which ``test_golden.py`` compares a fresh run with,
and prints to stderr each digest key that moved, was added or was dropped
against the file it overwrites.  Regenerate the file only for a change that
alters the bits on purpose, and name each digest that moved, and why, where
the change is described.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import pathlib
import sys
import tempfile

import numpy as np

GOLDEN = pathlib.Path(__file__).with_name("golden.json")

# seed 0, 3 households x 20 days: synthesized, or, for the "csv" entry, read
# from the CSV `fedmeter synth-data` writes of them (a CSV run keeps
# data.households and data.days at their defaults)
SEED = "master_seed=0"
SYNTHETIC = ["data.households=3", "data.days=20"]
SYNTH_DATA = ["synth-data", "--seed", "0", "--households", "3", "--days", "20"]
# each entry's overrides, its protocol first and its length in global epochs
# last: 1 central epoch, or 2 federated rounds of 1 local epoch
MATRIX = {
    "train": ["protocol=baseline", "train.epochs=2"],
    "federate_pgd": ["protocol=training_attack", "attack.family=pgd",
                     "federation.malicious_count=2", "train.epochs=2"],
    "federate_flip": ["protocol=training_attack", "attack.family=label_flip",
                      "federation.malicious_count=2", "train.epochs=2"],
    "central_fgsm": ["protocol=training_attack", "setting=central", "attack.family=fgsm",
                     "train.epochs=1"],
    "attack_fgsm": ["protocol=inference_attack", "attack.family=fgsm", "train.epochs=2"],
    "attack_pgd": ["protocol=inference_attack", "attack.family=pgd", "train.epochs=2"],
    "attack_pgd_linf": ["protocol=inference_attack", "attack.family=pgd",
                        "attack.project_linf=true", "train.epochs=2"],
    "attack_awgn": ["protocol=inference_attack", "attack.family=awgn", "train.epochs=2"],
    "sweep_epsilon": ["protocol=sweep_epsilon", "epsilon_list=[0.1,0.5]",
                      "federation.malicious_count=2", "train.epochs=2"],
    "sweep_malicious": ["protocol=sweep_malicious", "malicious_fraction_list=[0.34,0.67]",
                        "train.epochs=2"],
    "csv": ["protocol=baseline", "train.epochs=2"],
}
# the result files; config.json records the output path, and manifest.json
# the platform and the BLAS thread count
RESULT_PATTERNS = ("metrics.csv", "rounds_*.jsonl", "final_*.ckpt", "adversarial_test.csv",
                   "fig5*.csv")


def blas_core() -> str:
    """The kernel set OpenBLAS chose for this CPU at run time; "" when unknown."""
    from fedmeter.models import _bundled_openblas
    for path in _bundled_openblas():
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = (), ctypes.c_char_p
                return fn().decode()
    return ""


def environment() -> dict[str, str]:
    """What the digests depend on besides the code."""
    from fedmeter.models import blas_build
    blas = blas_build()
    return {"numpy": np.__version__, "blas_name": blas["name"],
            "blas_version": blas["version"], "blas_core": blas_core()}


def _fedmeter(args: list[str], what: str) -> None:
    from fedmeter import cli
    with contextlib.redirect_stdout(sys.stderr):  # stdout carries the JSON
        code = cli.main(args)
    if code != cli.EXIT_OK:
        raise SystemExit(f"{what}: exit {code}")


def run_matrix(root: pathlib.Path) -> dict[str, str]:
    """``fedmeter synth-data`` the golden CSV, then ``fedmeter run`` every
    entry for both models under ``root``; the digest of the CSV, keyed
    ``synth-data/<file>``, and of each result file, keyed ``model/label/file``."""
    meters = root / "meters.csv"
    _fedmeter([*SYNTH_DATA, "--out", str(meters)], "synth-data")
    digests = {f"synth-data/{meters.name}": hashlib.sha256(meters.read_bytes()).hexdigest()}
    for model in ("lstm", "transformer"):
        for label, overrides in MATRIX.items():
            out = root / model / label
            data = [f"data.csv_path={meters}"] if label == "csv" else SYNTHETIC
            overrides = [*overrides, f"model={model}", SEED, *data, f"output_dir={out}"]
            _fedmeter(["run", *(a for o in overrides for a in ("--set", o))],
                      f"{model} {label}")
            files = sorted({p for pattern in RESULT_PATTERNS for p in out.glob(pattern)})
            for path in files:
                digests[f"{model}/{label}/{path.name}"] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
    return digests


def digest_changes(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """One line per key whose digest differs between ``old`` and ``new``,
    sorted by key: ``moved <key>``, ``added <key>`` or ``dropped <key>``."""
    return [f"{'added' if key not in old else 'dropped' if key not in new else 'moved'} {key}"
            for key in sorted(old.keys() | new.keys()) if old.get(key) != new.get(key)]


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        record = {"environment": environment(), "digests": run_matrix(pathlib.Path(tmp))}
    text = json.dumps(record, indent=1, sort_keys=True) + "\n"
    if "--write" in argv:
        old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
        changes = digest_changes(old.get("digests", {}), record["digests"])
        for line in changes:
            print(line, file=sys.stderr)
        print(f"{len(changes)} of {len(record['digests'])} digests changed", file=sys.stderr)
        GOLDEN.write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
