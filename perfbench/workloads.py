"""The benchmark's three closed-loop workloads.

Each workload is one caller in one process.  ``setup`` builds every input
from the seed, ``operation`` runs one timed unit of work (a federated round
or one PGD call over the whole test set), ``check_operation`` verifies its
output outside the timer, and ``finish`` runs the final evaluation, writes
the output files and checks them.  fedmeter is called only through its
public functions, looked up as module attributes so that the traced run's
wrappers see every call.
"""

from __future__ import annotations

import csv
import hashlib
import os

import numpy as np

from fedmeter import attacks, evaluation, experiment, federation, models, seeding
from tracing import replace_everywhere

HOUSEHOLDS = 19
MALICIOUS = 9
POISON_FRACTION = 0.3
EPSILON = 0.5
PGD_ITERS = 10
# slack on the |x_adv - x| <= iters * epsilon check, for float64 rounding
PGD_SLACK = 1e-9


def digest(arrays: dict[str, np.ndarray]) -> str:
    """SHA-256 over named float64 arrays, in name order."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arrays[name], dtype="<f8").tobytes())
    return h.hexdigest()


class PgdCheck:
    """Checks every ``attacks.pgd`` result against the l-inf step bound.

    Installed in traced and untraced runs alike, so the poisoning inside
    ``federation.run_round`` is checked too.
    """

    def __init__(self):
        self.problems: list[str] = []
        original = attacks.pgd

        def checked(model, x, y, epsilon, iters=10, **kwargs):
            out = original(model, x, y, epsilon, iters, **kwargs)
            delta = float(np.max(np.abs(out - np.asarray(x)))) if len(out) else 0.0
            if not np.all(np.isfinite(out)):
                self.problems.append("pgd output is not finite")
            elif delta > iters * epsilon + PGD_SLACK:
                self.problems.append(f"pgd moved an input by {delta:.6g} > "
                                     f"{iters} x {epsilon}")
            return out

        replace_everywhere((attacks, experiment), original, checked)

    def drain(self) -> list[str]:
        problems, self.problems = self.problems, []
        return problems


def _client_data(model_name: str, days: int, seed: int):
    cfg = experiment.ExperimentConfig(
        model=model_name, master_seed=seed,
        data=experiment.DataConfig(households=HOUSEHOLDS, days=days))
    return experiment.build_client_data(cfg)


def _read_csv(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class FederatedWorkload:
    """FedAVG over every household each round, optionally with PGD poisoning."""

    def __init__(self, name: str, model_name: str, days: int, attack_family: str,
                 nominal_op_s: float):
        self.name = name
        self.model_name = model_name
        self.days = days
        self.attack = (attacks.AttackSpec(family=attack_family, epsilon=EPSILON,
                                          pgd_iters=PGD_ITERS)
                       if attack_family != "none" else attacks.AttackSpec())
        self.malicious_count = MALICIOUS if attack_family != "none" else 0
        self.nominal_op_s = nominal_op_s

    def setup(self, seed: int) -> None:
        clients = _client_data(self.model_name, self.days, seed)
        picked = seeding.rng_for(seed, "malicious").choice(
            len(clients), size=self.malicious_count, replace=False)
        malicious = {int(i) for i in picked}
        nodes = [federation.ClientNode(
            c.client_id, c.train.profiles, c.train.labels.astype(np.float64),
            malicious=i in malicious,
            attack=self.attack if i in malicious else attacks.AttackSpec(),
            poison_fraction=POISON_FRACTION) for i, c in enumerate(clients)]
        self.state = federation.init_state(self.model_name, nodes,
                                           seed=seeding.derive_seed(seed, "federation"))
        self.train_cfg = experiment.recommended_train_config(self.model_name)
        self.x_test, self.y_test, _ = experiment.pooled([c.test for c in clients])
        self.rows_per_op = sum(len(n.x_train) for n in nodes)
        self.record = None

    def operation(self) -> None:
        self.record = federation.run_round(self.state, self.model_name, self.train_cfg)

    def check_operation(self) -> list[str]:
        problems = []
        if not np.isfinite(self.record.mean_local_loss):
            problems.append(f"round {self.record.round}: non-finite mean local loss")
        if not all(np.all(np.isfinite(w)) for w in self.state.global_weights.values()):
            problems.append(f"round {self.record.round}: non-finite global weights")
        if self.record.malicious_count != self.malicious_count:
            problems.append(f"round {self.record.round}: {self.record.malicious_count} "
                            f"malicious clients, expected {self.malicious_count}")
        return problems

    def finish(self, out_dir: str) -> tuple[list[tuple[str, list[str]]], dict]:
        """Final eval and output files; returns (output checks, summary)."""
        model = federation.global_model(self.state, self.model_name)
        pred = evaluation.classify(model, self.x_test)
        metrics = evaluation.compute_metrics(pred, self.y_test)
        row = evaluation.metrics_row(self.name, self.attack.family, metrics, None)
        csv_path = os.path.join(out_dir, "metrics.csv")
        ckpt_path = os.path.join(out_dir, "final.ckpt")
        evaluation.write_metrics_csv([row], csv_path)
        models.save_weights(self.state.global_weights, ckpt_path)

        final_digest = digest(self.state.global_weights)
        checks = [
            ("metrics.csv reads back", [] if _read_csv(csv_path)[1:] == [row]
             else ["metrics.csv content differs from the row written"]),
            ("checkpoint reads back", [] if digest(models.load_weights(ckpt_path))
             == final_digest else ["checkpoint weights differ from the final weights"]),
        ]
        summary = {"accuracy": metrics.accuracy, "digest": final_digest}
        return checks, summary


class InferenceAttackWorkload:
    """Inference-time PGD against a seeded Transformer, whole test set per call."""

    name = "attack_transformer_pgd"
    model_name = "transformer"
    days = 73
    nominal_op_s = 24.0

    def setup(self, seed: int) -> None:
        clients = _client_data(self.model_name, self.days, seed)
        self.x_test, self.y_test, self.kinds = experiment.pooled([c.test for c in clients])
        self.model = models.make_model(self.model_name, seed=seed)
        self.train_cfg = experiment.recommended_train_config(self.model_name)
        self.rows_per_op = len(self.x_test)
        self.x_adv = None
        self.first_digest = None

    def operation(self) -> None:
        self.x_adv = attacks.pgd(self.model, self.x_test, self.y_test, EPSILON, PGD_ITERS,
                                 alpha=self.train_cfg.focal_alpha,
                                 gamma=self.train_cfg.focal_gamma)

    def check_operation(self) -> list[str]:
        problems = []
        if self.x_adv.shape != self.x_test.shape:
            problems.append(f"pgd returned shape {self.x_adv.shape}")
        # every call perturbs the same inputs with the same frozen weights
        current = digest({"x_adv": self.x_adv})
        if self.first_digest is None:
            self.first_digest = current
        elif current != self.first_digest:
            problems.append("pgd gave a different result on a repeated call")
        return problems

    def finish(self, out_dir: str) -> tuple[list[tuple[str, list[str]]], dict]:
        pred = evaluation.classify(self.model, self.x_adv)
        metrics = evaluation.compute_metrics(pred, self.y_test)
        report = evaluation.asr_inference(self.model, self.x_test, self.x_adv)
        row = evaluation.metrics_row(self.name, "pgd", metrics, report)
        csv_path = os.path.join(out_dir, "metrics.csv")
        adv_path = os.path.join(out_dir, "adversarial_test.csv")
        evaluation.write_metrics_csv([row], csv_path)
        attacks.dump_adversarial_csv(self.x_adv, self.y_test, self.kinds, "pgd",
                                     EPSILON, adv_path)

        dumped = _read_csv(adv_path)
        dumped_x = np.array([[float(v) for v in r[:models.SEQ_LEN]] for r in dumped[1:]])
        checks = [
            ("asr in [0, 1]", [] if 0.0 <= report.asr <= 1.0
             else [f"asr {report.asr} outside [0, 1]"]),
            ("metrics.csv reads back", [] if _read_csv(csv_path)[1:] == [row]
             else ["metrics.csv content differs from the row written"]),
            ("adversarial csv reads back",
             [] if dumped_x.shape == self.x_adv.shape
             and np.allclose(dumped_x, self.x_adv, rtol=1e-11, atol=0.0)
             else ["adversarial_test.csv does not hold the perturbed test set"]),
        ]
        summary = {"accuracy": metrics.accuracy, "asr": report.asr,
                   "digest": self.first_digest}
        return checks, summary


WORKLOADS = {
    "fl_lstm_pgd": FederatedWorkload("fl_lstm_pgd", "lstm", 365, "pgd", nominal_op_s=7.0),
    "fl_transformer_clean": FederatedWorkload("fl_transformer_clean", "transformer", 73,
                                              "none", nominal_op_s=10.0),
    "attack_transformer_pgd": InferenceAttackWorkload(),
}
