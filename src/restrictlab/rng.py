"""Deterministic randomness: one user seed fans out into keyed streams."""

from __future__ import annotations

import numpy as np

from .zmod import as_int


def spawn_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream addressed by (seed, *path).

    Philox is counter based, so streams with different keys never collide and
    each stream's draws do not depend on the order in which streams are used.
    Keys are zero padded to the seeding pool, so always use the same path
    arity within one context; trailing zeros do not make a key distinct.
    """
    seed = as_int(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    key = np.random.SeedSequence([seed, *(as_int(p, "stream key") for p in path)])
    return np.random.Generator(np.random.Philox(key))
