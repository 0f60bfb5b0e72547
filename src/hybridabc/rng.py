"""Deterministic derivation of independent random sub-streams.

Every stochastic component draws from a generator keyed by the master seed
plus a fixed integer path, so results never depend on evaluation order,
worker count, or scheduling. Paths are namespaced by the constants below.

A path's generator is the one numpy's ``SeedSequence`` gives for the seed
with the path as spawn key. A path whose last element is an array of keys
gives one such generator per key, derived together: numpy's ``SeedSequence``
mixes the shared words into its pool once, and the hash of each key into
that pool and of the output (O'Neill 2015, "Developing a seed_seq
alternative", pcg-random.org, as numpy implements it) run as array
operations over the keys.
"""

from __future__ import annotations

import numpy as np

STREAM_PROPOSAL = 2
STREAM_SIMULATION = 3
STREAM_OBSERVED = 10
STREAM_TRUE_PREDICTIVE = 11
STREAM_POSTERIOR_PREDICTIVE = 12

#: The constants of numpy's ``SeedSequence`` hash, which works modulo 2**32
#: on a pool of 4 words.
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _words(value: int) -> bytes:
    """The 32-bit words of ``value``, least significant first, as bytes."""
    value = int(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    return value.to_bytes(4 * ((value.bit_length() + 31) // 32 or 1), "little")


def substream(seed: int, *path):
    """Generator for ``path`` under ``seed``, independent of creation order.

    It is ``default_rng(SeedSequence(seed, spawn_key=path))``, children
    included, seeded with the words numpy assembles for that pair (the
    seed's, zero-padded to 4 when a path follows, then the path's) as one
    uint32 array, which skips numpy's per-word coercion of the key.

    When the last element of ``path`` is a 1-D integer array of keys, the
    result is a list with one generator per key, each in the state
    ``substream(seed, *path[:-1], key)`` starts in. Each key must fit one
    32-bit word. These generators cannot ``spawn``: they are seeded with
    their precomputed state alone, so ``spawn`` raises ``TypeError``.
    """
    if path and isinstance(path[-1], np.ndarray):
        return _batch(seed, path[:-1], path[-1])
    entropy = _words(seed)
    if path:
        entropy = entropy.ljust(16, b"\0") + b"".join(map(_words, path))
    return np.random.default_rng(np.random.SeedSequence(np.frombuffer(entropy, "<u4")))


def _batch(seed: int, prefix, keys: np.ndarray) -> list:
    """``substream(seed, *prefix, key)`` for each key, derived together.

    numpy's ``SeedSequence`` mixes the words the keys share once: the seed's,
    zero-padded to 4, then the prefix's. Only the keys' hashes run here.
    """
    if keys.ndim != 1 or keys.dtype.kind not in "iu":
        raise ValueError(f"keys must be a 1-D integer array, got {keys.dtype} {keys.shape}")
    if not keys.size:
        return []
    if keys.min() < 0 or keys.max() > _MASK:
        raise ValueError("each key must lie in [0, 2**32)")
    words = np.frombuffer(_words(seed).ljust(16, b"\0") + b"".join(map(_words, prefix)), "<u4")
    state = _generate_state(_mix_key(np.random.SeedSequence(words).pool, len(words), keys))
    np.random.bit_generator.ISeedSequence.register(_PresetState)
    generator, pcg64 = np.random.Generator, np.random.PCG64
    return [generator(pcg64(_PresetState(row))) for row in state]


def _hash(value, xor, mul):
    """numpy's hash of a word, or of arrays of words, with constants ``xor`` and ``mul``."""
    value = (value ^ xor) * mul & _MASK
    return value ^ value >> 16


def _mix(x, y):
    """numpy's ``mix`` of two words, or of arrays of words."""
    result = ((_MIX_MULT_L * x & _MASK) - (_MIX_MULT_R * y & _MASK)) & _MASK
    return result ^ result >> 16


def _constants(init: int, mult: int, count: int) -> list[int]:
    """``init * mult**i`` modulo 2**32 for i = 0 .. count.

    numpy hashes the i-th word it reads with constants i and i + 1.
    """
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK)
    return out


#: The constants numpy's ``generate_state`` hashes its 8 output words with.
_STATE_CONSTS = np.array(_constants(_INIT_B, _MULT_B, 2 * _POOL), np.uint32)[:, None]


def _mix_key(pool: np.ndarray, n_words: int, keys: np.ndarray) -> np.ndarray:
    """numpy's 4-word ``SeedSequence`` pool of ``n_words`` words, then each key: (4, k).

    ``pool`` is the pool numpy mixes from the ``n_words`` (at least 4)
    words. That mixing takes 4 * n_words hashes, so the key's 4 hashes, one
    into each pool word, take the constants that follow them; they run as
    array operations over the keys.
    """
    start = _INIT_A * pow(_MULT_A, _POOL * n_words, 1 << 32) & _MASK
    consts = np.array(_constants(start, _MULT_A, _POOL), np.uint32)[:, None]
    hashed = _hash(keys.astype(np.uint32), consts[:-1], consts[1:])
    return _mix(pool[:, None], hashed)


def _generate_state(pool: np.ndarray) -> np.ndarray:
    """numpy's ``generate_state(4, uint64)`` for each column of a (4, k) pool: (k, 4)."""
    words = _hash(np.tile(pool, (2, 1)), _STATE_CONSTS[:-1], _STATE_CONSTS[1:])
    return np.ascontiguousarray(words.T, "<u4").view("<u8").astype(np.uint64)


class _PresetState:
    """Seed sequence holding the one state ``PCG64`` asks for when it is seeded.

    numpy's ``PCG64`` takes any registered ``ISeedSequence`` and reads its
    seed from ``generate_state(4, uint64)``, the one request this answers.
    Batched ``substream`` calls register the class when they run, so
    importing this module leaves ``numpy.random`` unloaded.
    """

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a preset state answers generate_state(4, uint64) only")
        return self.state

