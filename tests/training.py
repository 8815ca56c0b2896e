"""Several epochs of local training, for the tests that train a model to a
useful state: global epochs 1 to ``cfg.epochs`` of ``train_local``, sharing
one RmsProp state, as ``federation.run_centralized`` trains."""

from fedmeter.models import RmsProp, TrainConfig, train_local


def train_epochs(model, x, y, cfg: TrainConfig, *, seed: int) -> list[float]:
    """Train ``model`` in place; returns each epoch's mean loss."""
    optimizer = RmsProp()
    return [train_local(model, x, y, cfg, seed=seed, epoch=epoch, optimizer=optimizer)
            for epoch in range(1, cfg.epochs + 1)]
