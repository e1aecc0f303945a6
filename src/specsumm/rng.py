"""Randomness policy.

Every seeded operation in the package draws from a Philox counter-based
generator, so identical seeds reproduce bit-identical streams regardless
of platform or thread count.  Pipelines that need several independent
streams derive per-phase seeds from one master seed instead of reusing it.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

DEFAULT_SEED = 0


def _seed_value(seed: int | None) -> int:
    """``seed`` itself, or seed 0 for ``None``: unseeded calls are still
    reproducible.  Seeds are non-negative integers."""
    if seed is None:
        return DEFAULT_SEED
    if seed < 0:
        raise ParameterError("seed must be >= 0")
    return seed


def make_generator(seed: int | None) -> np.random.Generator:
    """Return the package-wide deterministic generator for ``seed``."""
    return np.random.Generator(np.random.Philox(_seed_value(seed)))


def derive_seeds(master: int | None, count: int) -> list[int]:
    """Derive ``count`` decorrelated child seeds from one master seed."""
    ss = np.random.SeedSequence(_seed_value(master))
    return [int(s) for s in ss.generate_state(count, dtype=np.uint64)]

