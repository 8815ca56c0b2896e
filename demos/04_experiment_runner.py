"""Drive the declarative experiment runner end to end at toy scale, then
print the config documents that reproduce the paper-style studies at full
desk scale.

Run:  python3 demos/04_experiment_runner.py
"""

import json

from fedmeter.experiment import (config_from_dict, config_to_dict, run_experiment,
                                 validate_config)

# a quick federated training-time attack, small enough to finish in a minute
quick = config_from_dict({
    "name": "demo-labelflip",
    "model": "lstm",
    "setting": "federated",
    "protocol": "training_attack",
    "master_seed": 0,
    "output_dir": "runs/demo",
    "data": {"households": 4, "days": 60, "anomaly_fraction": 0.15},
    "federation": {"malicious_count": 2, "poison_fraction": 0.3},
    "attack": {"family": "label_flip"},
    "train": {"epochs": 5, "batch_size": 32},  # 5 rounds of 1 local epoch
})
result = run_experiment(quick)
print("metrics rows:")
for row in result.rows:
    print("  " + ", ".join(row))
print(f"outputs in {result.output_dir}: metrics.csv, rounds_*.jsonl, "
      f"config.json, manifest.json, final_*.ckpt\n")

# full desk-scale study configs (paper protocol: 19 households, 9 malicious,
# eps=0.5, sigma^2=0.1, T=10, and train.epochs 100: 100 rounds of 1 local
# epoch); each names its protocol, so the CLI runs either one as it stands, e.g.
#   fedmeter run --config tableII_pgd.json
table_ii_pgd = {
    "name": "tableII-lstm-fl-pgd",
    "model": "lstm",
    "setting": "federated",
    "protocol": "training_attack",
    "master_seed": 0,
    "output_dir": "runs/tableII-lstm-fl-pgd",
    "data": {"households": 19, "days": 365, "anomaly_fraction": 0.1},
    "federation": {"malicious_count": 9, "poison_fraction": 0.3},
    "attack": {"family": "pgd", "epsilon": 0.5, "pgd_iters": 10},
    "train": {"epochs": 100, "batch_size": 32, "base_lr": 0.01},
}
fig5b_sweep = {
    "name": "fig5b-epsilon-sweep",
    "model": "lstm",
    "setting": "federated",
    "protocol": "sweep_epsilon",
    "epsilon_list": [0.1, 0.2, 0.4, 0.5, 0.8],
    "master_seed": 0,
    "output_dir": "runs/fig5b",
    "data": {"households": 19, "days": 365, "anomaly_fraction": 0.1},
    "federation": {"malicious_count": 9, "poison_fraction": 0.3},
    "train": {"epochs": 100, "batch_size": 32},
}
for name, doc in (("tableII_pgd.json", table_ii_pgd), ("fig5b_sweep.json", fig5b_sweep)):
    validate_config(config_from_dict(doc))  # each runs as printed
    print(f"--- fedmeter run --config {name} " + "-" * (44 - len(name)))
    print(json.dumps(doc, indent=2))

# round-trip sanity: the runner normalizes and re-emits exactly this shape
assert config_from_dict(json.loads(json.dumps(config_to_dict(quick)))) == quick
