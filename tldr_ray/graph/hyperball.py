"""HyperBall / HyperANF — per-vertex neighborhood-size estimation.

Boldi & Vigna 2011 ("HyperANF: approximating the neighbourhood
function of very large graphs on a budget") re-expressed Ray-Data-
first: every vertex carries a tiny HLL register vector (2^b uint8
cells, its own id inserted), and one BSP round replaces each vector
with the elementwise MAX of its neighbours' vectors plus its own —
after t rounds the vector sketches ball(v, t), the set of vertices
within t hops, so |ball| falls out of the standard HLL estimator.
This is THE scalable way to ask "how big is everyone's k-hop
neighbourhood" (reach, influence, anomaly surface): the exact answer
is an all-pairs BFS, quadratic in the worst case, while a round here
moves O(E * 2^b) bytes through two coarse exchanges — the same
join+reduce shape as the k-core H-index fixpoint.

Layout: registers ride as ``FixedSizeList<uint8>[m]`` so every sweep
sees an (n, m) numpy view — zero per-row Python. Partitioning: edges
pre-bucketed by hash(src) once (materialized), state co-bucketed by
hash(v); a round = join sweep (gather src registers onto out-edges)
-> hash(dst) exchange -> segment max-reduce. Registers use the same
bucket/rank convention as stages.sketches (top-b bucket, lowest-set-
bit rank) so the estimator is shared.

Driver state: O(P) scalars per round. Rows-only by nature (HLL
estimates); the pytest pins estimates against exact BFS ball sizes.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from tldr_ray.hashing import keyed_sweep


def _vertex_registers(v: np.ndarray, b: int) -> np.ndarray:
    """(n, 2^b) uint8: each vertex's own-id insert, sketches-style
    (splitmix64 hash, top-b bucket, lowest-set-bit rank + 1)."""
    from tldr_ray.stages.dedup import _mix64

    m = 1 << b
    wbits = 64 - b
    h = _mix64(v.astype(np.uint64))
    bucket = (h >> np.uint64(wbits)).astype(np.int64)
    w = h & np.uint64((1 << wbits) - 1)
    low = w & (~w + np.uint64(1))
    # set w==0 lanes to 1 before log2 (np.where evaluates both arms)
    safe_low = np.where(w == 0, np.uint64(1), low)
    rank = np.where(
        w == 0, np.int64(wbits + 1),
        np.log2(safe_low.astype(np.float64)).astype(np.int64) + 1)
    regs = np.zeros((v.size, m), dtype=np.uint8)
    regs[np.arange(v.size), bucket] = rank.astype(np.uint8)
    return regs


def _estimates(mat: np.ndarray, b: int) -> np.ndarray:
    """Vectorized per-row HLL estimate (harmonic mean + linear
    counting for the small-ball regime, which dominates here)."""
    m = 1 << b
    alpha = 0.7213 / (1 + 1.079 / m)
    raw = alpha * m * m / np.sum(
        np.exp2(-mat.astype(np.float64)), axis=1)
    zeros = (mat == 0).sum(axis=1)
    small = (raw <= 2.5 * m) & (zeros > 0)
    lin = m * np.log(m / np.maximum(zeros, 1))
    return np.where(small, lin, raw)


def hyperball(edges, t: int = 4, b: int = 6, num_parts: int = 16,
              src_col: str = "src", dst_col: str = "dst",
              return_series: bool = False):
    """Estimated |ball(v, t)| for every vertex of the symmetrized
    simple graph under ``edges``. Returns a pandas DataFrame
    (vertex, ball_est float64) — vertex-table-sized, the caller's
    choice to keep distributed at true scale (the per-round state
    never leaves the cluster; only the final estimate frame lands
    here). ``t`` rounds exactly (diameter-bounded graphs converge in
    O(log N); pass a larger t for the full neighbourhood function).

    ``return_series=True`` additionally returns the NEIGHBOURHOOD
    FUNCTION — HyperANF's actual deliverable: N(r) = sum over v of
    est|ball(v, r)| for r = 0..t (one O(P)-partial sum per round,
    driver gets one float), from which the effective diameter (the
    smallest r reaching 90% of the final reach) falls out. Returns
    (frame, [N0, N1, ...])."""
    m = 1 << b

    def und(batch: pa.Table) -> pa.Table:
        s = np.asarray(batch[src_col], dtype=np.int64)
        d = np.asarray(batch[dst_col], dtype=np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        a = np.concatenate([s, d])
        bb = np.concatenate([d, s])
        return (pa.table({"s": pa.array(a), "d": pa.array(bb)})
                .group_by(["s", "d"]).aggregate([]))

    eds = (edges.map_batches(und, batch_format="pyarrow")
           .materialize())

    def init_state(batch: pa.Table) -> pa.Table:
        # distinct sources of the symmetrized table == all vertices
        v = np.unique(np.asarray(batch["s"], dtype=np.int64))
        regs = _vertex_registers(v, b)
        return pa.table({
            "v": pa.array(v),
            "regs": pa.FixedSizeListArray.from_arrays(
                pa.array(regs.reshape(-1)), m)})

    state = eds.map_batches(init_state, batch_format="pyarrow")
    # distinct vertices across blocks: one max-reduce round with no
    # edges collapses duplicates deterministically (max of identical
    # vectors) — reuse the reducer below via an empty-join round.
    # Each round's state MATERIALIZES (it feeds both the join and the
    # reduce union — a lazy chain would re-execute every prior round
    # per reference) and REPARTITIONS to num_parts blocks: map_groups
    # + union otherwise double the block count every round
    # (16 -> 496 measured by round 4) and per-block overhead, not
    # data, becomes the round wall.
    state = (_reduce(state, m, num_parts)
             .repartition(num_parts).materialize())

    def _reach_sum(st) -> float:
        def part(batch: pa.Table) -> pa.Table:
            mat = np.asarray(batch["regs"].combine_chunks().flatten()
                             ).reshape(-1, m)
            return pa.table({"s": pa.array(
                [float(_estimates(mat, b).sum())])})
        return float(st.map_batches(part,
                                    batch_format="pyarrow").sum("s"))

    series = [_reach_sum(state)] if return_series else None

    for _ in range(int(t)):
        emitted = _join_round(eds, state, m, num_parts)
        state = (_reduce(state.union(emitted), m, num_parts)
                 .repartition(num_parts).materialize())
        if return_series:
            series.append(_reach_sum(state))

    def seal(batch: pa.Table) -> pa.Table:
        mat = np.asarray(batch["regs"].combine_chunks().flatten()
                         ).reshape(-1, m)
        return pa.table({
            "vertex": batch["v"],
            "ball_est": pa.array(_estimates(mat, b))})

    frame = (state.map_batches(seal, batch_format="pyarrow")
             .to_pandas().sort_values("vertex")
             .reset_index(drop=True))
    return (frame, series) if return_series else frame


def effective_diameter(series, q: float = 0.9) -> int:
    """Smallest round r whose reach N(r) covers ``q`` of the final
    reach — the HyperANF effective-diameter readout (integer-round
    variant; the literature interpolates, which adds nothing at the
    estimator's error scale)."""
    target = q * series[-1]
    for r, n in enumerate(series):
        if n >= target:
            return r
    return len(series) - 1


def _join_round(eds, state, m: int, num_parts: int):
    """Tagged co-group on src: gather each edge's src registers, emit
    them keyed by dst."""
    def tag_edges(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table({
            "k": batch["s"], "d": batch["d"],
            "regs": pa.FixedSizeListArray.from_arrays(
                pa.array(np.zeros(n * m, np.uint8)), m),
            "tag": pa.array(np.zeros(n, np.int8))})

    def tag_state(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table({
            "k": batch["v"],
            "d": pa.array(np.zeros(n, np.int64)),
            "regs": batch["regs"],
            "tag": pa.array(np.ones(n, np.int8))})

    both = (eds.map_batches(tag_edges, batch_format="pyarrow")
            .union(state.map_batches(tag_state,
                                     batch_format="pyarrow")))

    def sweep(g: pa.Table) -> pa.Table:
        tags = np.asarray(g["tag"], dtype=np.int8)
        k = np.asarray(g["k"], dtype=np.int64)
        mat = np.asarray(g["regs"].combine_chunks().flatten()
                         ).reshape(-1, m)
        sv = tags == 1
        skeys = k[sv]
        order = np.argsort(skeys, kind="stable")
        skeys = skeys[order]
        smat = mat[sv][order]
        ek = k[~sv]
        ed = np.asarray(g["d"], dtype=np.int64)[~sv]
        if ek.size == 0 or skeys.size == 0:
            return pa.table({
                "v": pa.array([], pa.int64()),
                "regs": pa.FixedSizeListArray.from_arrays(
                    pa.array([], pa.uint8()), m)})
        pos = np.searchsorted(skeys, ek)
        pos = np.minimum(pos, skeys.size - 1)
        hit = skeys[pos] == ek
        out_regs = smat[pos[hit]]
        return pa.table({
            "v": pa.array(ed[hit]),
            "regs": pa.FixedSizeListArray.from_arrays(
                pa.array(out_regs.reshape(-1)), m)})

    return keyed_sweep(both, "k", sweep, num_parts, batch_format="pyarrow")


def _reduce(state, m: int, num_parts: int):
    """Segment max-reduce of register vectors per vertex."""
    def sweep(g: pa.Table) -> pa.Table:
        v = np.asarray(g["v"], dtype=np.int64)
        mat = np.asarray(g["regs"].combine_chunks().flatten()
                         ).reshape(-1, m)
        order = np.argsort(v, kind="stable")
        v, mat = v[order], mat[order]
        new = np.empty(v.size, dtype=bool)
        if v.size:
            new[0], new[1:] = True, v[1:] != v[:-1]
        starts = np.flatnonzero(new)
        red = np.maximum.reduceat(mat, starts, axis=0) \
            if v.size else mat[:0]
        return pa.table({
            "v": pa.array(v[starts]),
            "regs": pa.FixedSizeListArray.from_arrays(
                pa.array(red.reshape(-1)), m)})

    return keyed_sweep(state, "v", sweep, num_parts, batch_format="pyarrow")
