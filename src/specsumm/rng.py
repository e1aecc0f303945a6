"""Randomness policy.

Every seeded operation in the package draws from a Philox counter-based
generator, so identical seeds reproduce bit-identical streams regardless
of platform or thread count.  Pipelines that need several independent
streams derive per-phase seeds from one master seed instead of reusing it.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SEED = 0


def make_generator(seed: int | None) -> np.random.Generator:
    """Return the package-wide deterministic generator for ``seed``.

    ``None`` falls back to seed 0: unseeded calls are still reproducible.
    """
    return np.random.Generator(np.random.Philox(DEFAULT_SEED if seed is None else seed))


def derive_seeds(master: int | None, count: int) -> list[int]:
    """Derive ``count`` decorrelated child seeds from one master seed."""
    ss = np.random.SeedSequence(DEFAULT_SEED if master is None else master)
    return [int(s) for s in ss.generate_state(count, dtype=np.uint64)]

