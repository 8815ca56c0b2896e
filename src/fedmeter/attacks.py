"""White-box input perturbations and naive baselines.

The signed-gradient attacks perturb inputs along the sign of the loss
gradient with respect to the input: one step (FGSM) or several (PGD).  PGD
as evaluated here applies the signed step iteratively from the clean input,
without random start and, by default, without projection; an optional
projection onto the l-infinity ball of radius epsilon around the clean
input gives the canonical variant.  The naive baselines are additive white
Gaussian noise on inputs, of variance ``AWGN_VARIANCE``, and label flipping.

Attacks operate on normalized profiles, so epsilon is dimensionless.  They
only read the model: each input gradient asks for no weight gradient
(``models.input_gradient``), so it writes nothing back.  The
gradient attacks work through the rows in blocks, each model class
holding its own number of rows in flight.  Outside a federated round's
client and with BLAS on one thread per call, the blocks run on two cores,
both workers reading the one model, and every result keeps the bits it has
on one core.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeError
from .data import HOURS_PER_DAY
from .models import _by_row_blocks, input_gradient

ATTACK_FAMILIES = ("none", "fgsm", "pgd", "awgn", "label_flip")
AWGN_VARIANCE = 0.1  # the reference protocol's noise power, sigma^2


@dataclass
class AttackSpec:
    """Attack family plus its strength parameters."""

    family: str = "none"
    epsilon: float = 0.5        # FGSM magnitude / PGD step size
    pgd_iters: int = 10
    project_linf: bool = False  # PGD: clip each iterate to the epsilon ball

    def __post_init__(self):
        """Raise one ValueError listing every range problem, one per line."""
        ranges = (
            ("family", self.family in ATTACK_FAMILIES, f"one of {', '.join(ATTACK_FAMILIES)}"),
            # math, not numpy: an integer beyond int64 is no numpy scalar
            ("epsilon", math.isfinite(self.epsilon) and self.epsilon >= 0, "finite and >= 0"),
            ("pgd_iters", self.pgd_iters >= 1, ">= 1"))
        problems = [f"{name} must be {rule}, got {getattr(self, name)!r}"
                    for name, ok, rule in ranges if not ok]
        if problems:
            raise ValueError("\n".join(problems))


def fgsm(model, x: np.ndarray, y: np.ndarray, epsilon: float, *,
         alpha: float = 0.25, gamma: float = 2.0) -> np.ndarray:
    """One signed-gradient step of size epsilon away from the true label."""
    return pgd(model, x, y, epsilon, 1, alpha=alpha, gamma=gamma)


def pgd(model, x: np.ndarray, y: np.ndarray, epsilon: float, iters: int = 10, *,
        project: bool = False, alpha: float = 0.25, gamma: float = 2.0) -> np.ndarray:
    """Iterated signed-gradient steps of size epsilon; with ``project``, each
    iterate is clipped to the l-inf ball of radius epsilon around x.

    Runs every iteration on one row block before that block's result is
    taken (see ``models._by_row_blocks``: at most the model's ``ROW_BLOCK``
    rows in flight, 64 for the LSTM and 32 for the Transformer, the blocks
    spread over the workers), so activation memory is bounded by the block,
    not by the batch.  The models are row-independent and the loss couples
    rows only through its positive 1/batch scale, which ``sign`` discards,
    so the result equals the whole-batch iteration.  ``y`` must hold one
    label per row of ``x``.
    """
    if iters < 1:
        raise ValueError("pgd needs at least one iteration")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if len(y) != len(x):
        raise ShapeError(f"pgd: {len(x)} input rows but {len(y)} labels")

    def attack(model, rows: slice) -> np.ndarray:
        x0 = adv = x[rows]
        for _ in range(iters):
            grad = input_gradient(model, adv, y[rows], alpha, gamma)
            adv = adv + epsilon * np.sign(grad)
            if project:
                adv = np.clip(adv, x0 - epsilon, x0 + epsilon)
        return adv

    return _by_row_blocks(model, np.empty_like(x), attack)


def awgn(x: np.ndarray, variance: float, rng: np.random.Generator) -> np.ndarray:
    """Additive white Gaussian noise, i.i.d. per element."""
    if variance < 0:
        raise ValueError("awgn variance must be >= 0")
    x = np.asarray(x, dtype=np.float64)
    if variance == 0:
        return x.copy()
    return x + rng.normal(0.0, np.sqrt(variance), size=x.shape)


def poison_batch(model, x: np.ndarray, y: np.ndarray, spec: AttackSpec,
                 rng: np.random.Generator, *, alpha: float = 0.25,
                 gamma: float = 2.0) -> tuple[np.ndarray, np.ndarray]:
    """Apply one attack family to a batch.

    The single attack dispatch: it poisons training subsets and perturbs the
    test set for inference-time attacks alike.  Gradient attacks and noise
    perturb x and keep the true labels; label flipping inverts every label
    (``1 - y``) and keeps x.
    """
    if spec.family == "none":
        return x.copy(), y.copy()
    if spec.family == "fgsm":
        return fgsm(model, x, y, spec.epsilon, alpha=alpha, gamma=gamma), y.copy()
    if spec.family == "pgd":
        adv = pgd(model, x, y, spec.epsilon, spec.pgd_iters,
                  project=spec.project_linf, alpha=alpha, gamma=gamma)
        return adv, y.copy()
    if spec.family == "awgn":
        return awgn(x, AWGN_VARIANCE, rng), y.copy()
    if spec.family == "label_flip":
        return x.copy(), 1 - y
    raise ValueError(f"unknown attack family {spec.family!r}")


def dump_adversarial_csv(x_adv: np.ndarray, labels: np.ndarray, kinds: list[str],
                         family: str, epsilon: float | None, path) -> None:
    """Adversarial samples as ``v0..v23,label,kind,attack_family,epsilon`` rows,
    values with 12 significant digits; the epsilon cell is empty when
    ``epsilon`` is None, for a family that reads none."""
    eps = "" if epsilon is None else f"{epsilon:.12g}"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"v{i}" for i in range(HOURS_PER_DAY)]
                        + ["label", "kind", "attack_family", "epsilon"])
        for row, label, kind in zip(x_adv, labels, kinds):
            writer.writerow([f"{v:.12g}" for v in row] + [int(label), kind, family, eps])
