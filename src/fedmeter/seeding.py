"""Deterministic seed derivation.

Every random decision in the simulator draws from a numpy Generator whose
seed is derived from the experiment master seed plus a path of string/int
labels.  Derivation hashes the labels with SHA-256, so the seed of one
consumer (a client, a round, an epoch) never depends on how many other
consumers exist: adding a round or a client leaves all other streams
untouched.  The trainings of one experiment share their streams, whatever
their attack, so that they differ only in it (see ``experiment``).
"""

from __future__ import annotations

import hashlib

import numpy as np

_SEED_BITS = 63  # keep seeds positive int64 for readable manifests


def derive_seed(master: int, *path: int | str) -> int:
    """Derive a child seed from ``master`` and a label path.

    The same (master, path) always yields the same seed, on any platform.
    """
    h = hashlib.sha256()
    h.update(str(int(master)).encode())
    for part in path:
        h.update(b"/")
        h.update(str(part).encode())
    return int.from_bytes(h.digest()[:8], "big") >> (64 - _SEED_BITS)


def rng_for(master: int, *path: int | str) -> np.random.Generator:
    """Generator seeded by :func:`derive_seed` of (master, path)."""
    return np.random.Generator(np.random.PCG64(derive_seed(master, *path)))
