"""Deterministic RNG stream derivation.

Every randomized component derives its generator as
``default_rng(SeedSequence(master_seed, spawn_key=key))`` where ``key`` is a
tuple of small task indices (attempt, run, restart, grid cell, rep, algorithm
slot). A task that hands its seed on as an integer uses ``derive_seed``, the
first 64-bit word of the same sequence's state. Two consequences: repeated
invocations with equal seeds are bit-identical, and tasks can run in any order
or in parallel without changing results.
"""

from __future__ import annotations

import numpy as np

MAX_SEED = 2**64


def check_seed(seed: int) -> int:
    seed = int(seed)
    if not 0 <= seed < MAX_SEED:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    return seed


def _sequence(seed: int, key) -> np.random.SeedSequence:
    return np.random.SeedSequence(check_seed(seed),
                                  spawn_key=tuple(int(k) for k in key))


def spawn_rng(seed: int, *key: int) -> np.random.Generator:
    """Child generator for task ``key`` under ``seed``."""
    return np.random.default_rng(_sequence(seed, key))


def derive_seed(seed: int, *key: int) -> int:
    """Integer seed for task ``key`` under ``seed``: the first 64-bit word of
    the task's ``SeedSequence`` state."""
    return int(_sequence(seed, key).generate_state(1, np.uint64)[0])
