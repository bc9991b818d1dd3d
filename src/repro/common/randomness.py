"""Reproducible random-stream management.

All stochastic components of the library (measurement noise, disturbance
randomness, workload generators) draw from :class:`RandomStream` instances
instead of the global NumPy state.  Streams are derived from a root seed with
named children so that independent subsystems stay statistically independent
while the whole experiment remains reproducible from a single seed.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Optional

import numpy as np

__all__ = ["RandomStream", "spawn_streams"]


def _derive_seed(root_seed: int, name: str) -> int:
    """Derive a 63-bit child seed from a root seed and a stream name."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & 0x7FFF_FFFF_FFFF_FFFF


class RandomStream:
    """A named, reproducible wrapper around :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        Root seed.  Two streams built from the same ``(seed, name)`` pair
        produce identical sequences.
    name:
        Human-readable stream name used for seed derivation and debugging.
    """

    def __init__(self, seed: int = 0, name: str = "root"):
        self.seed = int(seed)
        self.name = str(name)
        self._generator = np.random.default_rng(_derive_seed(self.seed, self.name))

    @property
    def generator(self) -> np.random.Generator:
        """The underlying NumPy generator."""
        return self._generator

    def child(self, name: str) -> "RandomStream":
        """Create an independent child stream identified by ``name``."""
        return RandomStream(self.seed, f"{self.name}/{name}")

    def reset(self) -> None:
        """Rewind the stream to its initial state."""
        self._generator = np.random.default_rng(_derive_seed(self.seed, self.name))

    # -- convenience sampling wrappers ---------------------------------
    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        """Gaussian samples."""
        return self._generator.normal(loc, scale, size)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        """Uniform samples."""
        return self._generator.uniform(low, high, size)

    def integers(self, low: int, high: Optional[int] = None, size=None):
        """Integer samples (NumPy ``integers`` semantics)."""
        return self._generator.integers(low, high, size)

    def choice(self, values, size=None, replace: bool = True):
        """Sample from a collection."""
        return self._generator.choice(values, size=size, replace=replace)

    def standard_normal(self, size=None):
        """Standard Gaussian samples."""
        return self._generator.standard_normal(size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStream(seed={self.seed}, name={self.name!r})"


def spawn_streams(seed: int, names: Iterable[str]) -> Dict[str, RandomStream]:
    """Create a dictionary of independent named streams from one root seed."""
    streams: Dict[str, RandomStream] = {}
    for name in names:
        streams[name] = RandomStream(seed, name)
    return streams
