"""Vertex hashing for the CSR shard layout.

The global edge table (``src:int64, dst:int64, weight:double``) is
hash-partitioned by SOURCE vertex (``vhash(src) % P`` — SURVEY.md §7.3:
CSR layout wants all of a row's out-edges co-located so outbound
normalization is shard-local). Vertex ownership for rank/label state
uses the same hash on the vertex id, so a shard owns exactly the rank
slice its SpMV reads locally. ``GraphEngine.from_edges`` applies it
while pushing each edge block into the shard actors.
"""

from __future__ import annotations

import numpy as np


def vhash(v: np.ndarray) -> np.ndarray:
    """Stable vectorized 64-bit mix (splitmix64 finalizer) of vertex ids."""
    x = np.asarray(v).astype(np.uint64)
    x = (x + np.uint64(0x9E3779B97F4A7C15))
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x
