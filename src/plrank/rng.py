"""Derivation of independent, reproducible random streams.

Every stochastic step (BLEU tie-breaking, list resampling, synthetic
decoding) pulls its own generator from a root seed plus a purpose label
and integer keys, so results do not depend on evaluation order.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def substream(seed: int, purpose: str, *keys: int) -> np.random.Generator:
    """Return a generator unique to (seed, purpose, *keys)."""
    import hashlib  # here, so commands that draw nothing load no OpenSSL

    tag = int.from_bytes(hashlib.sha256(purpose.encode("utf-8")).digest()[:8], "little")
    entropy = [int(seed) & _MASK64, tag] + [int(k) & _MASK64 for k in keys]
    return np.random.default_rng(entropy)


def derive_seed(seed: int, purpose: str, *keys: int) -> int:
    """A plain integer seed for APIs that take one, derived like substream."""
    return int(substream(seed, purpose, *keys).integers(0, 1 << 62))
