"""Train a small LSTM on one household and attack it at inference time.

Shows the signed-gradient mechanics: FGSM moves every input coordinate by
exactly epsilon, PGD compounds the effect over 10 iterations, and AWGN mostly
bounces off.  Finishes by dumping the adversarial samples in the export
schema.

Run:  python3 demos/02_attacks_on_a_trained_model.py
"""

import numpy as np

from fedmeter import data as dp
from fedmeter.attacks import AttackSpec, dump_adversarial_csv
from fedmeter.evaluation import evaluate_attacks
from fedmeter.models import LstmClassifier, RmsProp, TrainConfig, train_local
from fedmeter.seeding import rng_for

# one household -> labeled, normalized, split
profiles = dp.synthesize_household(days=200, seed=3)
windows = dp.detect_usage_windows(profiles)
dataset = dp.build_dataset(profiles, windows, 0.15, seed=3)
normalized = dp.normalize(dataset)
train, test = dp.split(normalized, 0.8, seed=3)

model = LstmClassifier(seed=0)
cfg = TrainConfig(epochs=30)
optimizer = RmsProp()  # one optimizer state across the epochs
for epoch in range(1, cfg.epochs + 1):
    train_local(model, train.profiles, train.labels.astype(float), cfg, seed=0,
                epoch=epoch, optimizer=optimizer)

x, y = test.profiles, test.labels
specs = {"AWGN s2=0.1": AttackSpec("awgn", awgn_variance=0.1),  # first: a fresh noise stream
         "FGSM  e=0.5": AttackSpec("fgsm", epsilon=0.5),
         "PGD   e=0.5": AttackSpec("pgd", epsilon=0.5, pgd_iters=10)}
_, clean, attacked = evaluate_attacks(model, x, y, list(specs.values()),
                                      rng_for(0, "demo-awgn"))
print(f"clean test accuracy {clean.accuracy:.3f}, f1 {clean.f1:.3f}")

for name, (_, adv, metrics, report) in zip(specs, attacked):
    shift = np.abs(adv - x).max()
    print(f"{name}: accuracy {metrics.accuracy:.3f}, ASR {report.asr:.3f}, "
          f"max |delta| {shift:.2f}")

_, fgsm_adv, _, _ = attacked[1]
dump_adversarial_csv(fgsm_adv, y, list(test.kinds), "fgsm", 0.5,
                     "demo_adversarial_test.csv")
print("wrote demo_adversarial_test.csv (export schema + attack columns)")
