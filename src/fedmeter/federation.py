"""Round-based FedAVG federation with optional malicious clients, plus a
centralized training mode for comparison.

Each round: the server broadcasts the global weights (serialized through the
checkpoint wire format to keep the boundary honest), every client trains
locally for one epoch, and the server replaces the global weights with the
unweighted average of the returned weight maps.  So round ``r`` is global
epoch ``r`` of the learning-rate schedule and of the shuffle order, and a run
of ``TrainConfig.epochs`` rounds has the one length of a centralized run.
Malicious clients regenerate adversarial data every round from the freshly
received weights, perturbing a fresh random fraction of their local samples;
honest clients' stored data is never touched.

Clients of a round are independent, so a round can train several at once,
through the worker machinery in :mod:`fedmeter.models` that also runs an
attack's row blocks.  It does so for both models while BLAS runs one thread
per call, as fedmeter sets it at import (one worker on a BLAS without a
thread-count setter): the calling thread and one helper thread per further
core, up to ``models.MAX_WORKERS`` workers, each own a model instance, take
the next client, poison it if it is malicious and train it.  A malicious client's
PGD runs on its own worker in whole blocks of its model's ``ROW_BLOCK``
rows (64 for the LSTM, 32 for the Transformer), never on further threads.
The worker whose client completes the client order so far folds that map,
and any later one already finished, into a running mean (the fold of
:func:`fedavg`) before it takes another client, so a round holds running
sums instead of every client's map, and the global weights, the round
record and every later result keep their bits whatever the number of
workers.  A round copies no weight map it can share: the decoded broadcast
replaces the global weights it was encoded from, and a client's map is its
model's own parameter arrays, not copies, which nothing holds once they are
folded and the worker's model has moved on to the next client.  So a round
holds the broadcast, the running sums and, per worker, its model's map, its
client's RmsProp state and one forward pass's saved arrays, plus each
finished map whose earlier client still trains on another worker.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field

import numpy as np

from .attacks import AttackSpec, poison_batch
from .evaluation import classify, compute_metrics
from .models import (RmsProp, TrainConfig, _in_order, _workers, make_model, train_local,
                     weights_from_bytes, weights_to_bytes)
from .seeding import derive_seed, rng_for

POISON_FRACTION = 0.3  # the share of a poisoned training set perturbed, as the paper's


@dataclass
class ClientNode:
    client_id: str
    x_train: np.ndarray
    y_train: np.ndarray
    malicious: bool = False
    attack: AttackSpec = field(default_factory=AttackSpec)
    poison_fraction: float = POISON_FRACTION

    def __post_init__(self):
        if not self.malicious and self.attack.family != "none":
            raise ValueError(f"client {self.client_id}: honest clients cannot "
                             f"carry an attack spec")
        if not (0.0 <= self.poison_fraction <= 1.0):
            raise ValueError("poison_fraction must be in [0, 1]")


@dataclass
class FederationState:
    global_weights: dict[str, np.ndarray]
    clients: list[ClientNode]
    seed: int = 0
    round: int = 0  # rounds completed


@dataclass
class RoundRecord:
    round: int
    malicious_count: int
    mean_local_loss: float
    global_test_accuracy: float | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


class _RunningMean:
    """Unweighted elementwise mean of weight maps added one at a time, in order.

    Only running sums are kept, and a map is never written.  The result is
    ``np.mean`` over the stacked maps bit for bit.  numpy sums a stacked
    weight of several elements in map order, as the fold does, but a weight
    of one element pairwise (the stacked axis is then contiguous), so those
    keep every map's value and go through ``np.mean`` at the end.
    """

    def __init__(self):
        self.sums, self.singles, self.count = {}, {}, 0

    def add(self, m: dict[str, np.ndarray]) -> None:
        sums, singles = self.sums, self.singles
        if self.count and set(m) != set(sums) | set(singles):
            raise ValueError("weight maps disagree on tensor names")
        for name, arr in m.items():
            arr = np.asarray(arr, dtype=np.float64)
            if self.count:
                shape = (sums[name] if name in sums else singles[name][0]).shape
                if arr.shape != shape:
                    raise ValueError(f"weight {name}: inconsistent shapes "
                                     f"{sorted({shape, arr.shape})}")
            if arr.size == 1:
                singles.setdefault(name, []).append(arr)
            elif self.count:
                sums[name] += arr
            else:
                sums[name] = arr.copy()
        self.count += 1

    def result(self) -> dict[str, np.ndarray]:
        if self.count == 0:
            raise ValueError("fedavg needs at least one weight map")
        for total in self.sums.values():
            total /= self.count
        return {**self.sums, **{n: np.mean(a, axis=0) for n, a in self.singles.items()}}


def fedavg(weight_maps: Iterable[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Unweighted elementwise mean of client weight maps, folded in order as a
    round folds them; each map is let go before the next is asked for, so a
    generator of maps can free each one while it makes the next."""
    mean = _RunningMean()
    for m in weight_maps:
        mean.add(m)
        del m  # let the folded map go before the next is made
    return mean.result()


def _poison_subset(model, x: np.ndarray, y: np.ndarray, spec: AttackSpec,
                   fraction: float, rng: np.random.Generator,
                   cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """Copy of (x, y) with a random floor(fraction * n) subset poisoned."""
    x = x.copy()
    y = y.copy()
    k = int(np.floor(fraction * len(x)))
    if k == 0:
        return x, y
    idx = np.sort(rng.choice(len(x), size=k, replace=False))
    x[idx], y[idx] = poison_batch(model, x[idx], y[idx], spec, rng,
                                  alpha=cfg.focal_alpha, gamma=cfg.focal_gamma)
    return x, y


def poisoned_training_set(model, client: ClientNode, round_index: int,
                          fed_seed: int, cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """Fresh adversarial copy of the client's data for this round.

    A new random ``poison_fraction`` subset is drawn each round and perturbed
    using gradients of the just-received model; the client's stored arrays
    are never modified.
    """
    return _poison_subset(model, client.x_train, client.y_train, client.attack,
                          client.poison_fraction,
                          rng_for(fed_seed, "poison", client.client_id, round_index), cfg)


def _poisons(client: ClientNode) -> bool:
    return client.malicious and client.attack.family != "none"


def run_round(state: FederationState, model_name: str, cfg: TrainConfig) -> RoundRecord:
    """Train every client for one epoch from the global weights and replace
    them in place with the average.

    The clients train concurrently where ``models._workers`` allows, with
    the same result as one after another (see the module docstring).
    """
    round_index = state.round + 1
    clients = state.clients
    # decoded once, in place of the map it was encoded from (the <f8 round
    # trip is exact): set_weights copies, so every client starts from it
    state.global_weights = broadcast = weights_from_bytes(weights_to_bytes(state.global_weights))
    losses = [0.0] * len(clients)

    def train(model, pos: int) -> dict[str, np.ndarray]:
        client = clients[pos]
        model.set_weights(broadcast)
        if _poisons(client):
            x, y = poisoned_training_set(model, client, round_index, state.seed, cfg)
        else:
            x, y = client.x_train, client.y_train
        losses[pos] = train_local(
            model, x, y, cfg,
            seed=derive_seed(state.seed, "train", client.client_id, round_index),
            epoch=round_index)
        # the model's own map, not a copy: the worker's next set_weights gives
        # the model a new one, and once folded nothing holds this one
        return model.params

    # one instance per worker; each client overwrites every weight before use
    models = [make_model(model_name, seed=0)]
    workers = min(_workers(), len(clients))
    models += [make_model(model_name, seed=0) for _ in range(workers - 1)]
    mean = _RunningMean()  # each map folded on the worker completing the order
    _in_order(train, len(clients), models, lambda pos, m: mean.add(m))
    state.global_weights = mean.result()
    state.round = round_index
    return RoundRecord(round_index, sum(_poisons(c) for c in clients),
                       float(np.mean(losses)))


def run_federation(state: FederationState, model_name: str, cfg: TrainConfig, *,
                   eval_x: np.ndarray | None = None,
                   eval_y: np.ndarray | None = None,
                   log_path=None) -> list[RoundRecord]:
    """Run ``cfg.epochs`` rounds, one global epoch each; optionally log
    per-round records as JSON lines.

    With ``eval_x`` and ``eval_y``, the global model's test accuracy is
    recorded every ``max(1, cfg.epochs // 10)`` rounds and after the last
    one: every round of a run under 20 rounds, about ten times in a longer
    one.
    """
    if cfg.epochs < 1:
        raise ValueError("need at least one round")
    records = []
    log_fh = open(log_path, "w", encoding="utf-8") if log_path is not None else None
    try:
        for _ in range(cfg.epochs):
            record = run_round(state, model_name, cfg)
            if eval_x is not None and (state.round % max(1, cfg.epochs // 10) == 0
                                       or state.round == cfg.epochs):
                model = global_model(state, model_name)
                pred = classify(model, eval_x)
                record.global_test_accuracy = compute_metrics(pred, eval_y).accuracy
            records.append(record)
            if log_fh is not None:
                log_fh.write(record.to_json() + "\n")
    finally:
        if log_fh is not None:
            log_fh.close()
    return records


def global_model(state: FederationState, model_name: str):
    """Materialize the current global weights as a model instance."""
    model = make_model(model_name, seed=0)
    model.set_weights(state.global_weights)
    return model


def init_state(model_name: str, clients: list[ClientNode], *,
               seed: int = 0) -> FederationState:
    """Server-side initialization: random global weights, round counter at 0."""
    weights = make_model(model_name, seed=derive_seed(seed, "global-init")).get_weights()
    return FederationState(weights, clients, seed)


def run_centralized(x: np.ndarray, y: np.ndarray, model_name: str, cfg: TrainConfig, *,
                    seed: int, attack: AttackSpec | None = None):
    """Single-model training on pooled data for ``cfg.epochs`` epochs,
    optionally poisoned per epoch.

    The model starts from the weights that ``init_state`` gives a federation
    of the same ``seed``.  With an active attack, a fresh ``POISON_FRACTION``
    subset of the pooled training data is perturbed each epoch using the
    current model.  Returns the trained model.
    """
    attack = AttackSpec() if attack is None else attack
    model = make_model(model_name, seed=derive_seed(seed, "global-init"))
    optimizer = RmsProp()
    for epoch in range(1, cfg.epochs + 1):
        xe, ye = x, y
        if attack.family != "none":
            xe, ye = _poison_subset(model, x, y, attack, POISON_FRACTION,
                                    rng_for(seed, "central-poison", epoch), cfg)
        train_local(model, xe, ye, cfg, seed=seed, epoch=epoch, optimizer=optimizer)
    return model
