"""Deterministic RNG plumbing: root seeds and per-block substreams.

Every stochastic routine accepts ``rng`` as an int seed, a numpy
``Generator``, or None.  The argument is collapsed to a single integer root
seed which is recorded in reports, and all randomness is then drawn from
per-block child generators so that results do not depend on how work is
chunked.
"""

from __future__ import annotations

import numpy as np

_SEED_BOUND = 2**63


def as_generator(rng: int | np.random.Generator | None) -> np.random.Generator:
    """Return a Generator; ints seed a fresh one, None uses OS entropy."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def derive_root_seed(rng: int | np.random.Generator | None) -> int:
    """Collapse any accepted ``rng`` argument to one integer root seed.

    Ints pass through, a Generator contributes one draw, None pulls fresh
    OS entropy.  The root seed is what estimates and reports record.
    """
    if rng is None:
        return int(np.random.SeedSequence().entropy % _SEED_BOUND)
    if isinstance(rng, (int, np.integer)):
        return int(rng) % _SEED_BOUND
    if isinstance(rng, np.random.Generator):
        return int(rng.integers(_SEED_BOUND))
    raise TypeError(f"rng must be None, an int or a numpy Generator, got {type(rng)!r}")


def block_rng(root_seed: int, block: int) -> np.random.Generator:
    """Child generator for the logical block numbered ``block``, independent of batching."""
    return np.random.default_rng([root_seed, block])
