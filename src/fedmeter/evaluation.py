"""Classification metrics, attack success rate, and inference-time attack
evaluation.

The positive class is the anomaly (label 1): a day whose anomaly probability
is at least 0.5, the paper's fixed decision point.  Attack success rate (ASR)
follows the before-vs-after reading: the fraction of samples whose
*predicted* label changes due to the attack, either by perturbing the test
inputs (inference protocol) or by comparing a cleanly trained model against
one trained under attack on the same clean test set (training protocol).
``evaluate_attacks`` attacks one trained model with any number of specs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .attacks import AttackSpec, poison_batch
from .models import predict_proba

THRESHOLD = 0.5


@dataclass
class Metrics:
    accuracy: float
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    tn: int
    fn: int


@dataclass
class AsrReport:
    flipped: int
    total: int
    asr: float


def classify(model, x: np.ndarray) -> np.ndarray:
    """Predicted labels: 1 iff the anomaly probability is at least 0.5."""
    return (predict_proba(model, x) >= THRESHOLD).astype(np.int64)


def compute_metrics(pred: np.ndarray, truth: np.ndarray) -> Metrics:
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape:
        raise ValueError(f"prediction/truth length mismatch: {pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise ValueError("cannot compute metrics on an empty sample set")
    tp = int(np.sum((pred == 1) & (truth == 1)))
    fp = int(np.sum((pred == 1) & (truth == 0)))
    tn = int(np.sum((pred == 0) & (truth == 0)))
    fn = int(np.sum((pred == 0) & (truth == 1)))
    # a metric whose denominator is 0 is reported as 0
    accuracy = (tp + tn) / pred.size
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return Metrics(accuracy, precision, recall, f1, tp, fp, tn, fn)


def asr_from_predictions(reference: np.ndarray, pred: np.ndarray) -> AsrReport:
    """Fraction of samples whose predicted label in ``pred`` differs from
    the one in ``reference``."""
    if len(reference) != len(pred):
        raise ValueError(f"paired sets differ in length: {len(reference)} vs {len(pred)}")
    if len(pred) == 0:
        raise ValueError("cannot compute an attack success rate on an empty sample set")
    flipped = int(np.sum(pred != reference))
    return AsrReport(flipped, len(pred), flipped / len(pred))


def asr_inference(model, x_clean: np.ndarray, x_adv: np.ndarray) -> AsrReport:
    """Fraction of paired samples whose prediction flips under the attack."""
    if len(x_clean) != len(x_adv):
        raise ValueError(f"paired sets differ in length: {len(x_clean)} vs {len(x_adv)}")
    pred_adv = classify(model, x_adv)
    return asr_from_predictions(classify(model, x_clean), pred_adv)


def evaluate_attacks(model, x: np.ndarray, y: np.ndarray, specs, rng: np.random.Generator,
                     *, alpha: float = 0.25, gamma: float = 2.0
                     ) -> tuple[np.ndarray, Metrics,
                                list[tuple[AttackSpec, np.ndarray, Metrics, AsrReport]]]:
    """Attack one trained model with each spec in ``specs``, in order.

    Classifies ``x`` once; then each spec runs one ``poison_batch`` (noise
    draws from ``rng`` in spec order) and one ``classify`` of its perturbed
    inputs.  Returns the clean predictions, their metrics and, per spec,
    ``(spec, x_adv, metrics, asr)``, each scored against the true ``y`` and
    the ASR against the clean predictions.  ``label_flip`` changes labels,
    not inputs, so it raises ValueError.
    """
    for spec in specs:
        if spec.family == "label_flip":
            raise ValueError("label_flip is a training-time attack; it has no "
                             "inference-time variant")
    pred_clean = classify(model, x)
    results = []
    for spec in specs:
        x_adv, _ = poison_batch(model, x, y, spec, rng, alpha=alpha, gamma=gamma)
        pred = classify(model, x_adv)
        results.append((spec, x_adv, compute_metrics(pred, y),
                        asr_from_predictions(pred_clean, pred)))
    return pred_clean, compute_metrics(pred_clean, y), results


METRICS_CSV_HEADER = ["setting", "attack", "acc", "prec", "rec", "f1", "asr"]


def metrics_row(setting: str, attack: str, metrics: Metrics,
                asr: AsrReport | None) -> list[str]:
    """One export row; percentages with two decimals, ASR empty for baselines."""
    return [
        setting,
        attack,
        f"{metrics.accuracy * 100:.2f}",
        f"{metrics.precision * 100:.2f}",
        f"{metrics.recall * 100:.2f}",
        f"{metrics.f1 * 100:.2f}",
        "" if asr is None else f"{asr.asr * 100:.2f}",
    ]


def write_metrics_csv(rows: list[list[str]], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_CSV_HEADER)
        writer.writerows(rows)
