"""Deterministic derivation of independent random sub-streams.

Every stochastic component draws from a generator keyed by the master seed
plus a fixed integer path, so results never depend on evaluation order,
worker count, or scheduling. Paths are namespaced by the constants below.
"""

from __future__ import annotations

import numpy as np

STREAM_PROPOSAL = 2
STREAM_SIMULATION = 3
STREAM_OBSERVED = 10
STREAM_TRUE_PREDICTIVE = 11
STREAM_POSTERIOR_PREDICTIVE = 12


def _words(value: int) -> bytes:
    """The 32-bit words of ``value``, least significant first, as bytes."""
    value = int(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    return value.to_bytes(4 * ((value.bit_length() + 31) // 32 or 1), "little")


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for ``path`` under ``seed``, independent of creation order.

    It is ``default_rng(SeedSequence(seed, spawn_key=path))``, children
    included, seeded with the words numpy assembles for that pair (the
    seed's, zero-padded to 4 when a path follows, then the path's) as one
    uint32 array, which skips numpy's per-word coercion of the key.
    """
    entropy = _words(seed)
    if path:
        entropy = entropy.ljust(16, b"\0") + b"".join(map(_words, path))
    return np.random.default_rng(np.random.SeedSequence(np.frombuffer(entropy, "<u4")))


def normalize_rng(rng) -> np.random.Generator:
    """Accept a Generator, SeedSequence, or integer seed."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)
