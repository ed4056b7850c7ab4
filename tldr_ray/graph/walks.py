"""Deterministic random-walk sampling over a distributed edge list.

node2vec/DeepWalk-style corpus generation, but with a HASH-driven
"random" choice so the walks are reproducible across runs, block
layouts and engines: at step t a walk sitting on vertex v moves to

    neighbors_sorted(v)[ splitmix64(v * K + t) % deg(v) ]

(K = the 64-bit golden-ratio constant; splitmix64 = the repo's shared
``_mix64`` finalizer, mirrored bit-for-bit by the chained SQL CTEs in
queries._walks_oracle_sql). Every walk from the same vertex follows
the same path — walks differentiate by start vertex, which is what a
sampling corpus needs, and what makes a DuckDB hash oracle possible.

Distribution shape: the ranked adjacency (one row per (vertex,
neighbor-rank)) is built with ONE coarse-partition sweep; each step is
ONE bucketed hash join of the walk frontier against it on a composite
(vertex, rank) key — walk_len shuffles total, the inherent cost of
distributed walks. Each step's degrees arrive through the keyed lookup
(stages.joins.lookup): broadcast while the degree table passes the
gate, a frontier<->degree join past it — no O(V) state anywhere.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

_WALK_K = 0x9E3779B97F4A7C15


def random_walks(edges, walk_len: int = 4, num_partitions: int = 64):
    """edges: Dataset (src, dst[, weight]) interpreted as undirected.
    Returns Dataset (start:int64, step:int64, vertex:int64) — one walk
    per vertex, rows for steps 0..walk_len.

    Each step looks the frontier's degrees up in the degree table
    (``lookup``: broadcast within the gate, a bucketed join past it —
    zero O(V) driver/worker state on that path). Both paths are
    pick-for-pick identical (pinned by tests/test_graph_gates.py)."""
    from ray.data.aggregate import Sum

    from tldr_ray.hashing import keyed_sweep
    from tldr_ray.stages.dedup import _mix64
    from tldr_ray.stages.joins import bucketed_hash_join, lookup

    def undirect(batch: pa.Table) -> pa.Table:
        s = np.asarray(batch["src"], dtype=np.int64)
        d = np.asarray(batch["dst"], dtype=np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        lo, hi = np.minimum(s, d), np.maximum(s, d)
        u = np.unique(np.stack([lo, hi], axis=1), axis=0)
        return pa.table({"a": u[:, 0], "b": u[:, 1]})

    und = edges.map_batches(undirect, batch_format="pyarrow") \
        .groupby(["a", "b"]).count().select_columns(["a", "b"]) \
        .materialize()

    def sym(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch["a"], dtype=np.int64)
        b = np.asarray(batch["b"], dtype=np.int64)
        src = np.concatenate([a, b])
        dst = np.concatenate([b, a])
        return pa.table({"v": src, "nbr": dst})

    symd = und.map_batches(sym, batch_format="pyarrow")

    def degree_rows(batch: pa.Table) -> pa.Table:
        vu, cnt = np.unique(np.asarray(batch["v"]), return_counts=True)
        return pa.table({"vertex": pa.array(vu),
                         "n": pa.array(cnt.astype(np.int64))})

    deg_ds = symd.map_batches(degree_rows, batch_format="pyarrow") \
        .groupby("vertex").aggregate(Sum("n", alias_name="deg")) \
        .materialize()
    max_deg = deg_ds.max("deg") if deg_ds.count() else None
    stride = int(max_deg) + 1 if max_deg is not None else 1

    def rank_part(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["v", "nbr"])
        v = g["v"].to_numpy(np.int64)
        nbr = g["nbr"].to_numpy(np.int64)
        new = np.concatenate([[True], v[1:] != v[:-1]])
        seg_start = np.flatnonzero(new)
        idx = np.arange(len(g), dtype=np.int64) \
            - np.repeat(seg_start, np.diff(
                np.concatenate([seg_start, [len(g)]])))
        return pd.DataFrame({"akey": v * stride + idx, "nbr": nbr})

    # joined against at EVERY step — build once
    adj = keyed_sweep(symd, "v", rank_part, num_partitions).materialize()

    def key_frontier(step: int):
        def fn(batch: pa.Table) -> pa.Table:
            cur = np.asarray(batch["vertex"], dtype=np.int64)
            d = np.asarray(batch["deg"], dtype=np.int64)
            h = _mix64(cur.astype(np.uint64) * np.uint64(_WALK_K)
                       + np.uint64(step))
            idx = (h % d.astype(np.uint64)).astype(np.int64)
            return pa.table({"start": batch["start"].cast(pa.int64()),
                             "akey": pa.array(cur * stride + idx)})
        return fn

    def start_rows(batch: pa.Table) -> pa.Table:
        v = np.unique(np.asarray(batch["v"], dtype=np.int64))
        return pa.table({"start": pa.array(v), "vertex": pa.array(v)})

    frontier = symd.map_batches(start_rows, batch_format="pyarrow") \
        .groupby(["start", "vertex"]).count() \
        .select_columns(["start", "vertex"])

    def stamp(step: int):
        def fn(batch: pa.Table) -> pa.Table:
            return pa.table({
                "start": batch["start"].cast(pa.int64()),
                "step": pa.array(np.full(len(batch), step, np.int64)),
                "vertex": batch["vertex"].cast(pa.int64())})
        return fn

    out = frontier.map_batches(stamp(0), batch_format="pyarrow")
    for t in range(1, walk_len + 1):
        keyed = lookup(frontier, deg_ds, "vertex") \
            .map_batches(key_frontier(t), batch_format="pyarrow")
        joined = bucketed_hash_join(keyed, adj, on="akey")
        frontier = joined.map_batches(
            lambda b: pa.table({"start": b["start"].cast(pa.int64()),
                                "vertex": b["nbr"].cast(pa.int64())}),
            batch_format="pyarrow")
        out = out.union(frontier.map_batches(stamp(t),
                                             batch_format="pyarrow"))
    return out


# node2vec bias weights as INTEGERS (return / common-neighbor /
# explore) so cumulative selection is exact on both engines: these
# correspond to p = W_COMMON/W_RETURN = 4, q = W_COMMON/W_EXPLORE = 2.
N2V_W_RETURN, N2V_W_COMMON, N2V_W_EXPLORE = 1, 4, 2
_N2V_PREV_MIX = 1_000_003


def node2vec_walks(edges, walk_len: int = 3, num_partitions: int = 64):
    """Second-order (node2vec) biased walks, hash-driven and therefore
    reproducible / SQL-mirrorable: at step t a walk on ``cur`` that
    arrived from ``prev`` weighs each neighbor ``nbr`` by the INTEGER
    bias (return 1, common-neighbor 4, explore 2 — p=4, q=2 in
    node2vec terms; step 1 is first-order: all weights 1), and picks
    the neighbor whose cumulative-weight interval contains

        splitmix64(cur * K + t + prev * 1000003) mod total_weight

    (sorted-neighbor order). One walk per vertex, like random_walks.

    Distribution shape, COUNTED-gated (stages.joins.fits_broadcast):
    while the distinct undirected edge set fits the gate each step is
    ONE coarse shuffle — frontier rows and
    adjacency rows co-partition on hash(cur), and each partition task
    does the candidate merge, the common-neighbor membership probe
    (broadcast sorted edge-composite array — the triangle degree
    idiom), the segment cumsum and the pick, all vectorized. Past the
    gate nothing O(E) ever leaves the cluster: each step becomes THREE
    coarse exchanges — (1) candidate merge on hash(cur), (2) the
    common-neighbor membership resolved by an edge-MARKER union join
    on hash(edge-composite) (the common_neighbors idiom,
    triangles.py), (3) segment cumsum + pick regrouped on hash(start).
    Both paths are pick-for-pick identical (tests/test_graph_gates.py).
    """
    import ray

    from tldr_ray.hashing import keyed_sweep
    from tldr_ray.stages.dedup import _mix64
    from tldr_ray.stages.joins import fits_broadcast

    def undirect(batch: pa.Table) -> pa.Table:
        s = np.asarray(batch["src"], dtype=np.int64)
        d = np.asarray(batch["dst"], dtype=np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        lo, hi = np.minimum(s, d), np.maximum(s, d)
        u = np.unique(np.stack([lo, hi], axis=1), axis=0)
        return pa.table({"a": u[:, 0], "b": u[:, 1]})

    und = edges.map_batches(undirect, batch_format="pyarrow") \
        .groupby(["a", "b"]).count().select_columns(["a", "b"]) \
        .materialize()
    bcast = fits_broadcast(und)
    if bcast:
        und_df = und.to_pandas()
        a_arr = und_df["a"].to_numpy(np.int64)
        b_arr = und_df["b"].to_numpy(np.int64)
        maxv = int(max(a_arr.max(initial=0),
                       b_arr.max(initial=0))) + 1
        eset = np.sort(a_arr * np.int64(maxv) + b_arr)
        eref = ray.put(eset)
    else:
        ma = und.max("a") if und.count() else None
        mb = und.max("b") if und.count() else None
        maxv = int(max(ma or 0, mb or 0)) + 1
        eref = None

    def sym(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch["a"], dtype=np.int64)
        b = np.asarray(batch["b"], dtype=np.int64)
        src = np.concatenate([a, b])
        dst = np.concatenate([b, a])
        n = src.size
        return pa.table({
            "k": pa.array(src),
            "start": pa.array(np.full(n, -1, np.int64)),
            "prev": pa.array(src),          # adjacency: prev slot = v
            "cur": pa.array(dst),           # cur slot = nbr
            "is_adj": pa.array(np.ones(n, np.int8))})

    adj_rows = und.map_batches(sym, batch_format="pyarrow") \
        .materialize()

    def tag_frontier(batch: pa.Table) -> pa.Table:
        return pa.table({
            "k": batch["cur"].cast(pa.int64()),
            "start": batch["start"],
            "prev": batch["prev"],
            "cur": batch["cur"],
            "is_adj": pa.array(np.zeros(len(batch), np.int8))})

    def starts(batch: pa.Table) -> pa.Table:
        v = np.unique(np.asarray(batch["prev"], dtype=np.int64))
        return pa.table({"start": pa.array(v),
                         "prev": pa.array(np.full(v.size, -1, np.int64)),
                         "cur": pa.array(v)})

    frontier = adj_rows.map_batches(starts, batch_format="pyarrow") \
        .groupby(["start", "prev", "cur"]).count() \
        .select_columns(["start", "prev", "cur"]).materialize()

    K = np.uint64(_WALK_K)
    PM = np.uint64(_N2V_PREV_MIX)

    _EMPTY_STEP = {
        "start": pd.array([], dtype="int64"),
        "prev": pd.array([], dtype="int64"),
        "cur": pd.array([], dtype="int64")}

    def _segment_pick(start, prev, cur, nbr, w, t):
        """Shared cumulative-interval pick (identical math on both
        gate paths): sort candidates by (start, nbr), per-start
        cumsum of the integer weights, select the neighbor whose
        interval contains splitmix64(cur*K + t + prev*PM) mod total."""
        order = np.lexsort((nbr, start))
        start, prev, cur, nbr, w = (start[order], prev[order],
                                    cur[order], nbr[order], w[order])
        new = np.concatenate([[True], start[1:] != start[:-1]])
        seg_start = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        cum = np.cumsum(w)
        base = np.where(seg_start > 0, cum[seg_start - 1], 0)
        cum = cum - base[seg]
        tot = np.add.reduceat(w, seg_start)[seg]
        hv = _mix64(cur.astype(np.uint64) * K + np.uint64(t)
                    + np.where(prev >= 0, prev, 0)
                    .astype(np.uint64) * PM)
        r = (hv % tot.astype(np.uint64)).astype(np.int64)
        pick = (r < cum) & (r >= cum - w)
        return pd.DataFrame({"start": start[pick],
                             "prev": cur[pick],
                             "cur": nbr[pick]})

    def _merge_cands(group: pd.DataFrame):
        fr = group[group["is_adj"] == 0]
        ad = group[group["is_adj"] == 1]
        if fr.empty or ad.empty:
            return None
        cand = fr[["start", "prev", "cur"]].merge(
            ad[["prev", "cur"]].rename(
                columns={"prev": "v", "cur": "nbr"}),
            left_on="cur", right_on="v")
        return None if cand.empty else cand

    def step_part(t: int):
        def fn(group: pd.DataFrame) -> pd.DataFrame:
            cand = _merge_cands(group)
            if cand is None:
                return pd.DataFrame(_EMPTY_STEP)
            es = ray.get(eref)
            start = cand["start"].to_numpy(np.int64)
            prev = cand["prev"].to_numpy(np.int64)
            cur = cand["cur"].to_numpy(np.int64)
            nbr = cand["nbr"].to_numpy(np.int64)
            lo = np.minimum(nbr, prev)
            hi = np.maximum(nbr, prev)
            key = lo * np.int64(maxv) + hi
            pos = np.clip(np.searchsorted(es, key), 0,
                          max(es.size - 1, 0))
            has_edge = es.size > 0
            is_common = has_edge & (es[pos] == key)
            w = np.where(prev < 0, 1,
                         np.where(nbr == prev, N2V_W_RETURN,
                                  np.where(is_common, N2V_W_COMMON,
                                           N2V_W_EXPLORE))) \
                .astype(np.int64)
            return _segment_pick(start, prev, cur, nbr, w, t)
        return fn

    # ---- past-gate step: 3 coarse exchanges, no O(E) objects ----

    _EMPTY_CAND = {
        "start": pd.array([], dtype="int64"),
        "prev": pd.array([], dtype="int64"),
        "cur": pd.array([], dtype="int64"),
        "nbr": pd.array([], dtype="int64")}

    def cand_part(group: pd.DataFrame) -> pd.DataFrame:
        cand = _merge_cands(group)
        if cand is None:
            return pd.DataFrame(_EMPTY_CAND)
        return cand[["start", "prev", "cur", "nbr"]]

    def tag_cand(batch: pa.Table) -> pa.Table:
        prev = np.asarray(batch["prev"], dtype=np.int64)
        nbr = np.asarray(batch["nbr"], dtype=np.int64)
        lo = np.minimum(nbr, prev)
        hi = np.maximum(nbr, prev)
        key = lo * np.int64(maxv) + hi      # prev<0 => negative key,
        n = len(batch)                      # matches no marker
        return pa.table({
            "ekey": pa.array(key),
            "is_edge": pa.array(np.zeros(n, np.int8)),
            "start": batch["start"].cast(pa.int64()),
            "prev": batch["prev"].cast(pa.int64()),
            "cur": batch["cur"].cast(pa.int64()),
            "nbr": batch["nbr"].cast(pa.int64())})

    def edge_markers(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch["a"], dtype=np.int64)
        b = np.asarray(batch["b"], dtype=np.int64)
        key = a * np.int64(maxv) + b
        n = a.size
        fill = pa.array(np.full(n, -1, np.int64))
        return pa.table({
            "ekey": pa.array(key),
            "is_edge": pa.array(np.ones(n, np.int8)),
            "start": fill, "prev": fill, "cur": fill, "nbr": fill})

    def mark_part(group: pd.DataFrame) -> pd.DataFrame:
        mk = np.unique(group.loc[group["is_edge"] == 1, "ekey"]
                       .to_numpy(np.int64))
        cd = group[group["is_edge"] == 0]
        if cd.empty:
            e = dict(_EMPTY_CAND)
            e["is_common"] = pd.array([], dtype="int8")
            return pd.DataFrame(e)
        k = cd["ekey"].to_numpy(np.int64)
        if mk.size == 0:
            ic = np.zeros(k.size, bool)
        else:
            pos = np.clip(np.searchsorted(mk, k), 0, mk.size - 1)
            ic = mk[pos] == k
        out = cd[["start", "prev", "cur", "nbr"]].copy()
        out["is_common"] = ic.astype(np.int8)
        return out

    def pick_part(t: int):
        def fn(group: pd.DataFrame) -> pd.DataFrame:
            if group.empty:
                return pd.DataFrame(_EMPTY_STEP)
            start = group["start"].to_numpy(np.int64)
            prev = group["prev"].to_numpy(np.int64)
            cur = group["cur"].to_numpy(np.int64)
            nbr = group["nbr"].to_numpy(np.int64)
            ic = group["is_common"].to_numpy(np.int8)
            w = np.where(prev < 0, 1,
                         np.where(nbr == prev, N2V_W_RETURN,
                                  np.where(ic == 1, N2V_W_COMMON,
                                           N2V_W_EXPLORE))) \
                .astype(np.int64)
            return _segment_pick(start, prev, cur, nbr, w, t)
        return fn

    marker_ds = und.map_batches(edge_markers, batch_format="pyarrow") \
        .materialize() if not bcast else None

    def stamp(step: int):
        def fn(batch: pa.Table) -> pa.Table:
            n = len(batch)
            return pa.table({
                "start": batch["start"],
                "step": pa.array(np.full(n, step, np.int64)),
                "vertex": batch["cur"].cast(pa.int64())})
        return fn

    out = frontier.map_batches(stamp(0), batch_format="pyarrow")
    for t in range(1, walk_len + 1):
        both = frontier.map_batches(tag_frontier,
                                    batch_format="pyarrow") \
            .union(adj_rows)
        if bcast:
            frontier = keyed_sweep(both, "k", step_part(t),
                                   num_partitions).materialize()
        else:
            cands = keyed_sweep(both, "k", cand_part, num_partitions) \
                .map_batches(tag_cand, batch_format="pyarrow")
            marked = keyed_sweep(cands.union(marker_ds), "ekey",
                                 mark_part, num_partitions)
            frontier = keyed_sweep(marked, "start", pick_part(t),
                                   num_partitions).materialize()
        out = out.union(frontier.map_batches(stamp(t),
                                             batch_format="pyarrow"))
    return out
