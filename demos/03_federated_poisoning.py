"""Federate a handful of clients and poison some of them.

Compares an attack-free federation against one where half the clients run
PGD on 30% of their local data each round, and prints the per-round global
accuracy trajectory of both.

Run:  python3 demos/03_federated_poisoning.py
"""

import numpy as np

from fedmeter import data as dp
from fedmeter.attacks import AttackSpec
from fedmeter.evaluation import classify, compute_metrics
from fedmeter.federation import ClientNode, global_model, init_state, run_federation
from fedmeter.models import TrainConfig
from fedmeter.seeding import derive_seed


def make_clients(n_clients, malicious_ids, attack):
    clients, tests = [], []
    for k in range(n_clients):
        profiles = dp.synthesize_household(days=120, seed=derive_seed(42, "demo", k),
                                           household_id=f"c{k}")
        windows = dp.detect_usage_windows(profiles)
        ds = dp.build_dataset(profiles, windows, 0.15, seed=derive_seed(42, "inj", k))
        normalized = dp.normalize(ds)
        train, test = dp.split(normalized, 0.8, seed=derive_seed(42, "split", k))
        mal = k in malicious_ids
        clients.append(ClientNode(f"c{k}", train.profiles,
                                  train.labels.astype(float), malicious=mal,
                                  attack=attack if mal else AttackSpec(),
                                  poison_fraction=0.3))
        tests.append(test)
    x_test = np.vstack([t.profiles for t in tests])
    y_test = np.concatenate([t.labels for t in tests])
    return clients, x_test, y_test


cfg = TrainConfig(epochs=8)  # eight rounds, one local epoch each
pgd_spec = AttackSpec(family="pgd", epsilon=0.5, pgd_iters=10)

for label, malicious in (("attack-free", ()), ("3/6 clients PGD", (0, 2, 4))):
    clients, x_test, y_test = make_clients(6, malicious, pgd_spec)
    state = init_state("lstm", clients, seed=5)
    records = run_federation(state, "lstm", cfg, eval_x=x_test, eval_y=y_test)
    accs = " ".join(f"{r.global_test_accuracy:.3f}" for r in records)
    final = compute_metrics(classify(global_model(state, "lstm"), x_test), y_test)
    print(f"{label:16s} per-round accuracy: {accs}")
    print(f"{'':16s} final accuracy {final.accuracy:.3f}, recall {final.recall:.3f}")
