"""Deterministic counter-based random draws.

One master seed; every consumer draws from the stream keyed by (master seed,
stage label, sample index).  Draw j of a stream is the SplitMix64 finaliser
of key + (j + 1)·γ, γ the golden-ratio increment (Steele, Lea and Flood,
*Fast splittable pseudorandom number generators*, OOPSLA 2014), and the key
hashes the triple: every 64-bit word of the seed, the CRC-32 of the label and
the index.  A draw is a pure function of its counter, as in the
counter-based generators of Salmon et al., *Parallel random numbers: as easy
as 1, 2, 3* (SC 2011).  So streams are independent of evaluation order (a run
draws the same numbers whichever checks it selects and in whatever order
they run), row i of a batch is bit-equal to the one-row call at index i, and
each stage's rows are one vectorised call in uint64 array arithmetic.  No
stateful generator object is built.
"""

from __future__ import annotations

import zlib

import numpy as np

_MASK = (1 << 64) - 1
_M1, _M2, _G = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB), np.uint64(0x9E3779B97F4A7C15)


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser of a uint64 array (arrays wrap silently; numpy scalars would warn)."""
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def splitmix64(keys: np.ndarray, count: int) -> np.ndarray:
    """(m, count) uint64 draws: entry [i, j] is the finaliser of keys[i] + (j + 1)·γ."""
    steps = np.arange(1, count + 1, dtype=np.uint64) * _G
    return _mix(np.asarray(keys, dtype=np.uint64)[:, None] + steps)


def _stream_keys(seed: int, stage: str, indices) -> np.ndarray:
    """uint64 key of each stream (seed, stage, index).

    The seed is folded in word by word, all its 64-bit words and their
    number, so seeds of any size stay distinct."""
    seed = int(seed)
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    words = [seed & _MASK]
    while seed >> 64:
        seed >>= 64
        words.append(seed & _MASK)
    state = np.array([zlib.crc32(stage.encode("utf-8")) | len(words) << 32], dtype=np.uint64)
    for word in words:
        state = _mix((state ^ np.uint64(word)) + _G)
    return _mix((state ^ np.asarray(indices, dtype=np.uint64).reshape(-1)) + _G)


def _unit_interval(seed: int, stage: str, indices, count: int) -> np.ndarray:
    """(m, count) doubles in [0, 1): the top 53 bits of each draw."""
    return (splitmix64(_stream_keys(seed, stage, indices), count) >> np.uint64(11)) * 2.0 ** -53


def uniform_rows(seed: int, stage: str, indices, dim: int, scale: float = 1.0) -> np.ndarray:
    """(m, dim) draws, uniform on [-scale, scale), row i from the stream (seed, stage, indices[i])."""
    return scale * (2.0 * _unit_interval(seed, stage, indices, dim) - 1.0)


def normal_rows(seed: int, stage: str, indices, dim: int) -> np.ndarray:
    """(m, dim) standard normal draws by Box–Muller, one pair of uniforms per pair of entries.

    Entries 2k and 2k + 1 of a row come from draws 2k and 2k + 1 of its
    stream, so a shorter row is a prefix of a longer one."""
    u = _unit_interval(seed, stage, indices, 2 * ((dim + 1) // 2))
    radius = np.sqrt(-2.0 * np.log1p(-u[:, 0::2]))
    angle = 2.0 * np.pi * u[:, 1::2]
    return np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=-1).reshape(u.shape)[:, :dim]


def unit_rows(seed: int, stage: str, indices, dim: int) -> np.ndarray:
    """(m, dim) directions, uniform on the unit sphere of R^dim: normalised :func:`normal_rows`.

    A zero draw (probability below 2^-52) becomes the first basis vector
    rather than a NaN row."""
    vecs = normal_rows(seed, stage, indices, dim)
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    zero = norms[:, 0] == 0.0
    vecs[zero, :1], norms[zero] = 1.0, 1.0
    return vecs / norms
