"""Round-based FedAVG federation with optional malicious clients, plus a
centralized training mode for comparison.

Each round: the server broadcasts the global weights (serialized through the
checkpoint wire format to keep the boundary honest), every selected client
trains locally for ``local_epochs`` epochs, and the server replaces the
global weights with the unweighted average of the returned weight maps.
Malicious clients regenerate adversarial data every round from the freshly
received weights, perturbing a fresh random fraction of their local samples;
honest clients' stored data is never touched.

Clients of a round are independent, so a round can train several at once.
It does so only for a model whose ``concurrent_clients`` is true (the
Transformer) and only while BLAS runs one thread per call: then the calling
thread and one helper thread per further core, up to
:data:`MAX_CLIENT_WORKERS` workers, each own a model instance, take the next
client, poison it if it is malicious and train it.
:func:`fedavg` folds the returned maps in ``selected`` order as they arrive,
so a round holds running sums instead of every client's map, and the global
weights, the round record and every later result keep their bits whatever
the number of workers.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
from collections.abc import Callable, Iterable, Iterator
from dataclasses import asdict, dataclass, field

import numpy as np

from .attacks import AttackSpec, poison_batch
from .evaluation import DEFAULT_THRESHOLD, classify, compute_metrics
from .models import (RmsProp, TrainConfig, make_model, train_local, weights_from_bytes,
                     weights_to_bytes)
from .seeding import derive_seed, rng_for


@dataclass
class ClientNode:
    client_id: str
    x_train: np.ndarray
    y_train: np.ndarray
    malicious: bool = False
    attack: AttackSpec = field(default_factory=AttackSpec)
    poison_fraction: float = 0.3

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
    clients_per_round: int
    local_epochs: int = 1
    seed: int = 0
    round: int = 0  # rounds completed

    def __post_init__(self):
        if not (1 <= self.clients_per_round <= len(self.clients)):
            raise ValueError(f"clients_per_round must be in [1, {len(self.clients)}], "
                             f"got {self.clients_per_round}")


@dataclass
class RoundRecord:
    round: int
    selected: list[str]
    malicious_count: int
    mean_local_loss: float
    global_test_accuracy: float | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def select_clients(state: FederationState, round_index: int) -> list[int]:
    """Uniform sample of client indices without replacement, seeded per round."""
    n = len(state.clients)
    if state.clients_per_round > n:
        raise ValueError("cannot select more clients than exist")
    rng = rng_for(state.seed, "select", round_index)
    picked = rng.choice(n, size=state.clients_per_round, replace=False)
    return sorted(int(i) for i in picked)


def fedavg(weight_maps: Iterable[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Unweighted elementwise mean of client weight maps, folded in order.

    The maps are taken one at a time and only running sums are kept, so a
    generator of maps never has more than one of them alive here.  The result
    is ``np.mean`` over the stacked maps bit for bit.  numpy sums a stacked
    weight of several elements in map order, as the fold does, but a weight
    of one element pairwise (the stacked axis is then contiguous), so those
    keep every map's value and go through ``np.mean`` at the end.
    """
    sums: dict[str, np.ndarray] = {}
    singles: dict[str, list[np.ndarray]] = {}
    count = 0
    for m in weight_maps:
        if count and set(m) != set(sums) | set(singles):
            raise ValueError("weight maps disagree on tensor names")
        for name, arr in m.items():
            arr = np.asarray(arr, dtype=np.float64)
            if count:
                shape = (sums[name] if name in sums else singles[name][0]).shape
                if arr.shape != shape:
                    raise ValueError(f"weight {name}: inconsistent shapes "
                                     f"{sorted({shape, arr.shape})}")
            if arr.size == 1:
                singles.setdefault(name, []).append(arr)
            elif count:
                sums[name] += arr
            else:
                sums[name] = arr.copy()
        count += 1
    if count == 0:
        raise ValueError("fedavg needs at least one weight map")
    for total in sums.values():
        total /= count
    return {**sums, **{name: np.mean(arrs, axis=0) for name, arrs in singles.items()}}


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


# Each worker holds a model instance and one live tape (about 80 MB for the
# Transformer at batch 32), so peak memory grows by about a tape per worker.
# Speed and peak memory were measured on 2 cores only (BENCH_9.json); more
# workers stay unmeasured until pairs on a larger machine are recorded.
MAX_CLIENT_WORKERS = 2


def _client_workers(model) -> int:
    """How many of a round's clients train at once: up to
    :data:`MAX_CLIENT_WORKERS` cores, or one.

    More than one only when ``model`` allows it and BLAS runs one thread per
    call.  The count BLAS read is the first of ``OPENBLAS_NUM_THREADS`` (or
    ``MKL_NUM_THREADS`` for MKL) and ``OMP_NUM_THREADS`` that is set.  With
    2-thread BLAS on 2 cores, two Transformer workers made a round 72% slower
    than one (``selection_sides`` in BENCH_9.json).
    """
    if not model.concurrent_clients:
        return 1
    try:
        blas = str(np.__config__.CONFIG["Build Dependencies"]["blas"]["name"])
    except (AttributeError, KeyError):
        blas = ""
    names = ("MKL_NUM_THREADS" if "mkl" in blas.lower() else "OPENBLAS_NUM_THREADS",
             "OMP_NUM_THREADS")
    threads = next((os.environ[name] for name in names if name in os.environ), None)
    if threads != "1":
        return 1
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return min(cores, MAX_CLIENT_WORKERS)


def _in_order(task: Callable[[object, int], object], count: int,
              models: list) -> Iterator:
    """Yield ``task(model, i)`` for each ``i`` in ``range(count)``, in order.

    Each model belongs to one worker: the calling thread works with
    ``models[0]`` and one helper thread with each of the others.  A worker
    takes the next untaken index.  The caller works too, and waits only when
    no index is left to take, so results come back in order while at most a
    few are held.  When any worker raises, or the caller is interrupted or
    closes the generator, no worker takes another index, the helpers are
    joined, and then the exception reaches the caller with its own type.
    """
    done = threading.Condition()
    results: dict[int, object] = {}
    errors: list[BaseException] = []
    taken = 0
    stop = False

    def take() -> int | None:
        nonlocal taken
        with done:
            if stop or errors or taken == count:
                return None
            taken += 1
            return taken - 1

    def helper(model) -> None:
        while (i := take()) is not None:
            try:
                out = task(model, i)
            except BaseException as exc:  # handed to the caller, which raises it
                with done:
                    errors.append(exc)
                    done.notify_all()
                return
            with done:
                results[i] = out
                done.notify_all()

    helpers = [threading.Thread(target=helper, args=(m,), daemon=True) for m in models[1:]]
    for t in helpers:
        t.start()
    try:
        head = 0  # next index to yield
        while head < count:
            i = take()
            if i is not None:
                out = task(models[0], i)
                with done:
                    results[i] = out
            else:
                with done:
                    while head not in results and not errors:
                        done.wait()
            with done:
                if errors:
                    raise errors[0]
                ready = []
                while head in results:
                    ready.append(results.pop(head))
                    head += 1
            yield from ready
    finally:
        with done:
            stop = True
        for t in helpers:
            t.join()


def _poisons(client: ClientNode) -> bool:
    return client.malicious and client.attack.family != "none"


def run_round(state: FederationState, model_name: str, cfg: TrainConfig) -> RoundRecord:
    """Execute one federation round, replacing the global weights in place.

    The clients train concurrently where :func:`_client_workers` allows, with
    the same result as one after another (see the module docstring).
    """
    round_index = state.round + 1
    selected = [state.clients[i] for i in select_clients(state, round_index)]
    # decoded once: set_weights copies, so every client starts from this map
    broadcast = weights_from_bytes(weights_to_bytes(state.global_weights))
    losses = [0.0] * len(selected)

    def train(model, pos: int) -> dict[str, np.ndarray]:
        client = selected[pos]
        model.set_weights(broadcast)
        if _poisons(client):
            x, y = poisoned_training_set(model, client, round_index, state.seed, cfg)
        else:
            x, y = client.x_train, client.y_train
        history = train_local(
            model, x, y, cfg,
            seed=derive_seed(state.seed, "train", client.client_id, round_index),
            epochs=state.local_epochs,
            epoch_offset=(round_index - 1) * state.local_epochs)
        losses[pos] = history[-1]
        return model.get_weights()

    # one instance per worker; each client overwrites every weight before use
    models = [make_model(model_name, seed=0)]
    workers = min(_client_workers(models[0]), len(selected))
    models += [make_model(model_name, seed=0) for _ in range(workers - 1)]
    with contextlib.closing(_in_order(train, len(selected), models)) as maps:
        state.global_weights = fedavg(maps)
    state.round = round_index
    return RoundRecord(round_index, [c.client_id for c in selected],
                       sum(_poisons(c) for c in selected), float(np.mean(losses)))


def run_federation(state: FederationState, model_name: str, cfg: TrainConfig,
                   t_rounds: int, *, eval_x: np.ndarray | None = None,
                   eval_y: np.ndarray | None = None,
                   threshold: float = DEFAULT_THRESHOLD, eval_every: int = 1,
                   log_path=None) -> list[RoundRecord]:
    """Run ``t_rounds`` rounds; optionally log per-round records as JSON lines."""
    if t_rounds < 1:
        raise ValueError("need at least one round")
    records = []
    log_fh = open(log_path, "w", encoding="utf-8") if log_path is not None else None
    try:
        for _ in range(t_rounds):
            record = run_round(state, model_name, cfg)
            if eval_x is not None and (state.round % eval_every == 0
                                       or state.round == t_rounds):
                model = global_model(state, model_name)
                pred = classify(model, eval_x, threshold)
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
               clients_per_round: int | None = None, local_epochs: int = 1,
               seed: int = 0) -> FederationState:
    """Server-side initialization: random global weights, round counter at 0."""
    weights = make_model(model_name, seed=derive_seed(seed, "global-init")).get_weights()
    n_round = len(clients) if clients_per_round is None else clients_per_round
    return FederationState(weights, clients, n_round, local_epochs, seed)


def run_centralized(x: np.ndarray, y: np.ndarray, model_name: str, cfg: TrainConfig, *,
                    attack: AttackSpec | None = None, poison_fraction: float = 0.0,
                    epochs: int | None = None, seed: int | None = None):
    """Single-model training on pooled data, optionally poisoned per epoch.

    With an active attack, a fresh ``poison_fraction`` subset of the pooled
    training data is perturbed each epoch using the current model.  Returns
    (model, per-epoch loss history).
    """
    attack = AttackSpec() if attack is None else attack
    seed = cfg.seed if seed is None else seed
    epochs = cfg.epochs if epochs is None else epochs
    model = make_model(model_name, seed=derive_seed(seed, "central-init"))
    optimizer = RmsProp(cfg.rho, cfg.eps_opt)
    history = []
    for epoch in range(1, epochs + 1):
        xe, ye = x, y
        if attack.family != "none":
            xe, ye = _poison_subset(model, x, y, attack, poison_fraction,
                                    rng_for(seed, "central-poison", epoch), cfg)
        history.extend(train_local(model, xe, ye, cfg, seed=seed, epochs=1,
                                   epoch_offset=epoch - 1, optimizer=optimizer))
    return model, history
