"""NumPy oracle of the reference's PageRank dependency.

Transliterates the pinned alixaxel/pagerank
(v0.0.0-20160306110729-14bfb4c1d88c, /root/reference/go.mod:4 — public
pinned source, not vendored in the reference tree; semantics per
SURVEY.md §2.7):

- vertices are exactly the endpoints seen in ``Link`` calls; parallel
  edges accumulate (``edges[s][t] += w``, ``outbound[s] += w``);
- weights are row-normalized by outbound mass (rows with outbound == 0
  are skipped);
- ranks start uniform at 1/n and iterate
  ``r_new[t] = sum_s a*r_old[s]*w̄(s,t) + (1-a)/n + a*leak/n`` where
  ``leak = sum of r_old over dangling vertices``, until
  ``L1(r_new - r_old) <= eps`` (the Go loop runs while delta > eps,
  starting from delta = 1.0, so it always runs at least once when
  eps < 1).

This is the score oracle for both the per-conversation kernel and the
distributed engine (allclose 1e-6 per the north rule). ``power_iteration``
is its loop over compacted vertex positions; the kernel's
``pagerank_rank`` runs the same loop after a cheaper compaction.
"""

from __future__ import annotations

import numpy as np


def pagerank_ref(
    src: np.ndarray,
    dst: np.ndarray,
    weight: np.ndarray,
    damping: float = 0.85,
    tolerance: float = 1e-4,
    max_iterations: int = 10_000,
) -> tuple[np.ndarray, np.ndarray]:
    """Return (vertex_ids ascending, scores) for the multigraph given as arrays."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    weight = np.asarray(weight, dtype=np.float64)
    if src.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)

    ids = np.unique(np.concatenate([src, dst]))
    scores = power_iteration(np.searchsorted(ids, src),
                             np.searchsorted(ids, dst), weight, ids.size,
                             damping, tolerance, max_iterations)
    return ids, scores


def power_iteration(s: np.ndarray, d: np.ndarray, weight: np.ndarray,
                    n: int, damping: float = 0.85, tolerance: float = 1e-4,
                    max_iterations: int = 10_000) -> np.ndarray:
    """Scores of the n vertices 0..n-1 of the multigraph whose edges run
    from ``s`` to ``d`` (compacted positions, every vertex an endpoint)."""
    # accumulate parallel edges, then row-normalize
    outbound = np.bincount(s, weights=weight, minlength=n)
    out_s = outbound[s]
    wn = weight.copy()
    nz = out_s > 0
    wn[nz] = wn[nz] / out_s[nz]

    inv = 1.0 / n
    r = np.full(n, inv)
    dangling = np.flatnonzero(outbound == 0)
    delta = 1.0
    it = 0
    while delta > tolerance and it < max_iterations:
        leak = damping * r[dangling].sum()
        new = np.zeros(n)
        np.add.at(new, d, damping * r[s] * wn)
        new += (1.0 - damping) * inv + leak * inv
        delta = np.abs(new - r).sum()
        r = new
        it += 1
    return r
