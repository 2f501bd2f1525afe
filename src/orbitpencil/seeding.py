"""Deterministic random streams.

One master seed; every consumer derives an independent stream from the
(stage name, sample index) pair.  Streams are independent of evaluation
order, so a run draws the same numbers whichever checks it selects and in
whatever order they run.
"""

from __future__ import annotations

import zlib

import numpy as np


def stream(seed: int, stage: str, index: int = 0) -> np.random.Generator:
    """Generator keyed by (master seed, stage label, sample index)."""
    tag = zlib.crc32(stage.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(entropy=[int(seed), tag, int(index)]))


def unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Uniform direction on the unit sphere of R^dim."""
    vec = rng.standard_normal(dim)
    norm = np.linalg.norm(vec)
    while norm < 1e-12:  # pragma: no cover - probability zero
        vec = rng.standard_normal(dim)
        norm = np.linalg.norm(vec)
    return vec / norm
