"""Distributed triangle counting (non-iterative — pure Ray Data).

Standard degree-oriented algorithm (SURVEY.md §7.1 step 6):

1. symmetrize + dedup the edge set; compute degrees
   (``groupby(src).count`` over the symmetric form);
2. orient each undirected edge from the lower (degree, id) endpoint to
   the higher — every vertex's oriented out-degree is O(sqrt(m)), which
   bounds wedge generation even at hub vertices (this IS the skew
   mitigation: orientation, not salting);
3. wedge generation: per oriented source, all pairs of its oriented
   neighbors (``groupby(src).map_groups``), keyed by the closing pair
   (a, b) with the wedge center carried along;
4. closure join: wedges union oriented edges, ``groupby([a, b])`` — a
   pair-group that contains the closing edge converts each of its
   wedges into one triangle credited to all three corners;
5. per-vertex totals: ``groupby(vertex).sum``.

Returns (total_triangles, per_vertex_dataset).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from tldr_ray.hashing import keyed_sweep


def _orient(a, b, da, db):
    """Orient each undirected edge from the lower (degree, id) endpoint
    to the higher one."""
    a_first = (da < db) | ((da == db) & (a < b))
    return np.where(a_first, a, b), np.where(a_first, b, a)


def _undirect(batch: pa.Table) -> pa.Table:
    """One batch's distinct undirected pairs (a < b) of (src, dst),
    self-loops dropped."""
    s = np.asarray(batch["src"], dtype=np.int64)
    d = np.asarray(batch["dst"], dtype=np.int64)
    keep = s != d
    s, d = s[keep], d[keep]
    lo, hi = np.minimum(s, d), np.maximum(s, d)
    u = np.unique(np.stack([lo, hi], axis=1), axis=0)
    return pa.table({"a": u[:, 0], "b": u[:, 1]})


def _undirected(edges):
    """The distinct undirected edge set (a, b), a < b, of ``edges``."""
    return edges.map_batches(_undirect, batch_format="pyarrow") \
        .groupby(["a", "b"]).count().select_columns(["a", "b"])


def _degree_table(und):
    """(vertex, degree) of a distinct undirected edge set (a, b)."""
    from ray.data.aggregate import Sum

    def degree_rows(batch: pa.Table) -> pa.Table:
        v = np.concatenate([np.asarray(batch["a"]), np.asarray(batch["b"])])
        vu, cnt = np.unique(v, return_counts=True)
        return pa.table({"vertex": pa.array(vu),
                         "n": pa.array(cnt.astype(np.int64))})

    return und.map_batches(degree_rows, batch_format="pyarrow") \
        .groupby("vertex").aggregate(Sum("n", alias_name="degree"))


def _with_degrees(ds, degrees, a: str = "a", b: str = "b"):
    """``ds`` plus ``deg_<a>`` and ``deg_<b>``, the degrees of its
    endpoint columns: two keyed lookups (stages.joins.lookup) of the
    degree table — broadcast while it fits the gate, bucketed joins
    past it, so no O(V) state is needed anywhere."""
    from tldr_ray.stages.joins import lookup

    degrees = degrees.materialize()

    def keyed(col: str):
        return degrees.map_batches(
            lambda t: pa.table({col: t["vertex"],
                                f"deg_{col}": t["degree"]}),
            batch_format="pyarrow")

    return lookup(lookup(ds, keyed(a), a), keyed(b), b)


def _oriented(und):
    """``und`` (a, b) oriented from the lower (degree, id) endpoint to
    the higher: Dataset (src, dst), materialized."""
    def orient(batch: pa.Table) -> pa.Table:
        src, dst = _orient(np.asarray(batch["a"], np.int64),
                           np.asarray(batch["b"], np.int64),
                           np.asarray(batch["deg_a"], np.int64),
                           np.asarray(batch["deg_b"], np.int64))
        return pa.table({"src": src, "dst": dst})

    return _with_degrees(und, _degree_table(und)) \
        .map_batches(orient, batch_format="pyarrow").materialize()


def _closure_probe(oriented):
    """Wedges of the oriented edge set (src, dst) unioned with its
    edges as (a, b, center) rows, a < b, edges carrying center -1: a
    pair group that holds an edge row closes each of its wedges into a
    triangle.

    Wedge generation and closure both shuffle on COARSE partitions of
    their key (per-vertex / per-pair micro-groups would pay ~ms of
    map_groups invocation overhead each; a partition task sweeps all
    its keys with one sort + segment reductions)."""
    def wedge_part(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["src", "dst"])
        src = g["src"].to_numpy(np.int64)
        dst = g["dst"].to_numpy(np.int64)
        new = np.concatenate([[True], src[1:] != src[:-1]])
        starts = np.flatnonzero(new)
        sizes = np.diff(np.concatenate([starts, [len(g)]]))
        ia, ib = [], []
        for st, k in zip(starts.tolist(), sizes.tolist()):
            if k < 2:
                continue
            ii, jj = np.triu_indices(k, 1)
            ia.append(ii + st)
            ib.append(jj + st)
        if not ia:
            return pd.DataFrame({"a": pd.array([], dtype="int64"),
                                 "b": pd.array([], dtype="int64"),
                                 "center": pd.array([], dtype="int64")})
        ia = np.concatenate(ia)
        ib = np.concatenate(ib)
        return pd.DataFrame({"a": dst[ia], "b": dst[ib], "center": src[ia]})

    wedge_ds = keyed_sweep(oriented, "src", wedge_part)

    def tag_edges(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch["src"], dtype=np.int64)
        b = np.asarray(batch["dst"], dtype=np.int64)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return pa.table({"a": lo, "b": hi,
                         "center": np.full(a.size, -1, np.int64)})

    def tag_wedges(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch["a"], dtype=np.int64)
        b = np.asarray(batch["b"], dtype=np.int64)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return pa.table({"a": lo, "b": hi,
                         "center": np.asarray(batch["center"],
                                              dtype=np.int64)})

    return oriented.map_batches(tag_edges, batch_format="pyarrow").union(
        wedge_ds.map_batches(tag_wedges, batch_format="pyarrow"))


def triangle_counts(edges):
    """edges: Dataset (src, dst[, weight]) interpreted as undirected.

    Returns (total:int, per_vertex Dataset(vertex:int64, triangles:int64)).

    The degrees that orient each edge arrive through the keyed lookup
    (``_with_degrees``): the degree table ships to every orient task
    while it fits the broadcast gate, and two bucketed hash joins of
    it onto the edge endpoints replace the broadcast past it. Both
    paths are pinned equal by tests/test_graph_engine and
    tests/test_graph_gates.
    """
    from ray.data.aggregate import Sum

    # global exact dedup of undirected pairs; reused twice below
    # (degrees + orientation)
    und = _undirected(edges).materialize()
    probe = _closure_probe(_oriented(und))

    def close_part(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["a", "b", "center"])  # -1 edge rows first
        a = g["a"].to_numpy(np.int64)
        b = g["b"].to_numpy(np.int64)
        c = g["center"].to_numpy(np.int64)
        new = np.concatenate([[True], (a[1:] != a[:-1]) | (b[1:] != b[:-1])])
        seg_of = np.cumsum(new) - 1
        starts = np.flatnonzero(new)
        # a pair-segment closes its wedges iff it contains the edge row
        # (center == -1 sorts first within the segment)
        seg_has_edge = c[starts] == -1
        is_wedge = c >= 0
        closed = is_wedge & seg_has_edge[seg_of]
        if not closed.any():
            return pd.DataFrame({"vertex": pd.array([], dtype="int64"),
                                 "n": pd.array([], dtype="int64")})
        verts = np.concatenate([c[closed], a[closed], b[closed]])
        vu, cnt = np.unique(verts, return_counts=True)
        return pd.DataFrame({"vertex": vu, "n": cnt.astype(np.int64)})

    per_vertex = (
        keyed_sweep(probe, ["a", "b"], close_part)
        .groupby("vertex")
        .aggregate(Sum("n", alias_name="triangles"))
    )
    per_vertex = per_vertex.materialize()
    # scalar total via a Dataset aggregate — no O(V) driver pull
    s = per_vertex.sum("triangles") if per_vertex.count() else 0
    return int((s or 0) // 3), per_vertex


def common_neighbors(edges, max_degree: int | None = None):
    """Link-prediction scores: for every NON-adjacent vertex pair at
    distance 2, the number of common neighbors (the classic
    common-neighbors predictor; jaccard/adamic-adar variants divide by
    degree terms downstream).

    Same coarse-partition discipline as ``triangle_counts``: wedges are
    generated per CENTER partition (one sort + segment pair expansion
    per task, counts pre-combined with np.unique before leaving the
    task), then pair partitions sum counts and drop pairs that carry an
    edge marker row — two coarse shuffles total, nothing on the driver.

    ``max_degree`` optionally skips centers above a degree cap (the
    hub-skew clamp: a degree-d center emits d^2/2 wedges; real graphs
    cap hubs for this predictor). None = exact.

    Returns Dataset (u:int64, v:int64, n_common:int64), u < v, sorted
    by nothing — callers top-k with a deterministic total order.
    """
    import pandas as pd

    und = _undirected(edges).materialize()

    def sym(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch["a"], dtype=np.int64)
        b = np.asarray(batch["b"], dtype=np.int64)
        src = np.concatenate([a, b])
        dst = np.concatenate([b, a])
        return pa.table({"src": src, "dst": dst})

    def wedge_part(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["src", "dst"])
        src = g["src"].to_numpy(np.int64)
        dst = g["dst"].to_numpy(np.int64)
        new = np.concatenate([[True], src[1:] != src[:-1]])
        starts = np.flatnonzero(new)
        sizes = np.diff(np.concatenate([starts, [len(g)]]))
        ia, ib = [], []
        for st, k in zip(starts.tolist(), sizes.tolist()):
            if k < 2 or (max_degree is not None and k > max_degree):
                continue
            ii, jj = np.triu_indices(k, 1)
            ia.append(ii + st)
            ib.append(jj + st)
        if not ia:
            return pd.DataFrame({"u": pd.array([], dtype="int64"),
                                 "v": pd.array([], dtype="int64"),
                                 "n": pd.array([], dtype="int64")})
        ia, ib = np.concatenate(ia), np.concatenate(ib)
        # pre-combine: one row per distinct pair per partition
        pairs, cnt = np.unique(
            np.stack([dst[ia], dst[ib]], axis=1), axis=0,
            return_counts=True)
        return pd.DataFrame({"u": pairs[:, 0], "v": pairs[:, 1],
                             "n": cnt.astype(np.int64)})

    wedges = keyed_sweep(und.map_batches(sym, batch_format="pyarrow"), "src",
                         wedge_part)

    def tag_edges(batch: pa.Table) -> pa.Table:
        u = np.asarray(batch["a"], dtype=np.int64)
        v = np.asarray(batch["b"], dtype=np.int64)
        return pa.table({"u": pa.array(u), "v": pa.array(v),
                         "n": pa.array(np.full(u.size, -1, np.int64))})

    probe = wedges.union(und.map_batches(tag_edges, batch_format="pyarrow"))

    def sum_part(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["u", "v", "n"])   # edge rows (-1) first
        u = g["u"].to_numpy(np.int64)
        v = g["v"].to_numpy(np.int64)
        n = g["n"].to_numpy(np.int64)
        new = np.concatenate([[True], (u[1:] != u[:-1]) | (v[1:] != v[:-1])])
        seg_of = np.cumsum(new) - 1
        starts = np.flatnonzero(new)
        seg_is_edge = n[starts] == -1
        keep_seg = ~seg_is_edge
        tot = np.zeros(starts.size, np.int64)
        np.add.at(tot, seg_of, np.maximum(n, 0))
        m = keep_seg & (tot > 0)
        if not m.any():
            return pd.DataFrame({"u": pd.array([], dtype="int64"),
                                 "v": pd.array([], dtype="int64"),
                                 "n_common": pd.array([], dtype="int64")})
        return pd.DataFrame({"u": u[starts][m], "v": v[starts][m],
                             "n_common": tot[m]})

    return keyed_sweep(probe, ["u", "v"], sum_part)


def degree_assortativity(edges):
    """Degree assortativity coefficient (Pearson correlation of
    endpoint degrees over the SYMMETRIC directed edge set — Newman
    2002, public formula) computed from exact integer moment sums:
    M, S1 = sum(du), S2 = sum(du^2), S11 = sum(du*dv) over both
    directions of every undirected edge. The coefficient is ONE IEEE
    division of two exactly-computed integers
    ((M*S11 - S1^2) / (M*S2 - S1^2), driver-side Python bigints so the
    products can't overflow), so it hash-matches a SQL mirror. The
    int64 partial sums bound: sum(du^2) <= 2E * max_deg^2 — beyond
    ~2^63 of that, move partials to float128 or split the sum.

    Degrees attach through the keyed lookup (``_with_degrees``):
    broadcast while the degree table fits the gate, two bucketed hash
    joins onto the edge endpoints past it. Both paths bit-equal
    (tests/test_graph_gates.py).

    Returns (m_edges, s1, s2, s11, assortativity float)."""
    from ray.data.aggregate import Sum

    und = _undirected(edges).materialize()

    def moments(batch: pa.Table) -> pa.Table:
        du = np.asarray(batch["deg_a"], np.int64)
        dv = np.asarray(batch["deg_b"], np.int64)
        return pa.table({
            "m": pa.array([2 * len(batch)], pa.int64()),
            "s1": pa.array([int((du + dv).sum())], pa.int64()),
            "s2": pa.array([int((du * du + dv * dv).sum())], pa.int64()),
            "s11": pa.array([int(2 * (du * dv).sum())], pa.int64())})

    src = _with_degrees(und, _degree_table(und)) \
        .map_batches(moments, batch_format="pyarrow")

    agg = src.aggregate(
        Sum("m", alias_name="m"), Sum("s1", alias_name="s1"),
        Sum("s2", alias_name="s2"), Sum("s11", alias_name="s11"))
    m, s1, s2, s11 = (int(agg["m"]), int(agg["s1"]),
                      int(agg["s2"]), int(agg["s11"]))
    num, den = m * s11 - s1 * s1, m * s2 - s1 * s1
    r = float(num) / float(den) if den else float("nan")
    return m, s1, s2, s11, r


def edge_support(und):
    """Per-edge triangle support of an undirected DISTINCT edge set
    ``und`` (Dataset (a, b) with a < b): for every edge, how many
    triangles contain it. Same plan as ``triangle_counts`` (degree
    orientation through the keyed lookup -> coarse wedge sweep ->
    pair-partition closure probe) but each CLOSED wedge emits its three
    edges, so the grouped sum is keyed on edges, not vertices. Edges in
    no triangle are absent from the output (support 0) — callers that
    need zeros outer-join back. Both gate paths pinned equal in tests.
    """
    from ray.data.aggregate import Sum

    probe = _closure_probe(_oriented(und))

    def close_part(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["a", "b", "center"])
        a = g["a"].to_numpy(np.int64)
        b = g["b"].to_numpy(np.int64)
        c = g["center"].to_numpy(np.int64)
        new = np.concatenate([[True],
                              (a[1:] != a[:-1]) | (b[1:] != b[:-1])])
        seg_of = np.cumsum(new) - 1
        starts = np.flatnonzero(new)
        seg_has_edge = c[starts] == -1
        is_wedge = c >= 0
        closed = is_wedge & seg_has_edge[seg_of]
        if not closed.any():
            return pd.DataFrame({"u": pd.array([], dtype="int64"),
                                 "v": pd.array([], dtype="int64"),
                                 "n": pd.array([], dtype="int64")})
        ca, cb, cc = a[closed], b[closed], c[closed]
        # the 3 edges of each closed triangle, normalized lo<hi
        e1u, e1v = ca, cb                                  # already lo<hi
        e2u, e2v = np.minimum(cc, ca), np.maximum(cc, ca)
        e3u, e3v = np.minimum(cc, cb), np.maximum(cc, cb)
        u = np.concatenate([e1u, e2u, e3u])
        v = np.concatenate([e1v, e2v, e3v])
        dfp = pd.DataFrame({"u": u, "v": v})  # pre-combine per partition
        out = dfp.groupby(["u", "v"], sort=False).size().reset_index()
        out.columns = ["u", "v", "n"]
        out["n"] = out["n"].astype(np.int64)
        return out

    return (keyed_sweep(probe, ["a", "b"], close_part)
            .groupby(["u", "v"])
            .aggregate(Sum("n", alias_name="support")))


def _seq_truss_peel(a: np.ndarray, b: np.ndarray, k: int):
    """Sequential peel to fixpoint on (a < b) distinct edge arrays —
    the size-gated local finisher for ``k_truss`` (and its pytest
    oracle's definition). Returns (a, b) of the surviving edges."""
    E = set(zip(a.tolist(), b.tolist()))
    while True:
        adj: dict = {}
        for x, y in E:
            adj.setdefault(x, set()).add(y)
            adj.setdefault(y, set()).add(x)
        drop = {(x, y) for x, y in E
                if len(adj[x] & adj[y]) < k - 2}
        if not drop:
            break
        E -= drop
    if not E:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    arr = np.asarray(sorted(E), dtype=np.int64)
    return arr[:, 0], arr[:, 1]


def k_truss(edges, k: int, max_rounds: int = 30):
    """k-truss decomposition: iteratively delete every edge whose
    triangle support (within the surviving subgraph) is below k-2
    until fixpoint (or ``max_rounds``). Returns the surviving
    undirected distinct edge Dataset (u, v), u < v.

    Each peel round is one full edge-support sweep (``edge_support``)
    plus a vectorized filter — the standard distributed truss
    iteration; rounds are bounded and the edge set shrinks
    monotonically, so a fixed ``max_rounds`` unrolling in SQL is
    bit-equivalent once the engine has converged (extra rounds are
    no-ops on a fixpoint).

    Size gate (the resolve_clusters discipline): a peel round costs
    ~4 small all-to-alls of fixed latency, so once the surviving edge
    set passes the broadcast gate (stages.joins.fits_broadcast) the
    remaining rounds run as one driver-local sequential peel —
    identical fixpoint, none of the per-round coordination."""
    import ray.data as rd

    from tldr_ray.stages.joins import fits_broadcast

    cur = _undirected(edges).materialize()
    if k <= 2:
        def rename(batch: pa.Table) -> pa.Table:
            return pa.table({"u": batch["a"].cast(pa.int64()),
                             "v": batch["b"].cast(pa.int64())})
        return cur.map_batches(rename, batch_format="pyarrow")
    n_cur = cur.count()
    # every round's unions and shuffles multiply the block count (x2 on
    # the broadcast path, x6 past the gate); pin it to the input's
    n_blocks = cur.num_blocks()
    thresh = k - 2
    for _ in range(max_rounds):
        if n_cur == 0:
            break
        if fits_broadcast(cur):
            df = cur.to_pandas()
            ua, ub = _seq_truss_peel(df["a"].to_numpy(np.int64),
                                     df["b"].to_numpy(np.int64), k)
            return rd.from_arrow(pa.table({
                "u": pa.array(ua), "v": pa.array(ub)}))
        sup = edge_support(cur)

        def keep(batch: pa.Table) -> pa.Table:
            m = np.asarray(batch["support"], dtype=np.int64) >= thresh
            return pa.table({
                "a": pa.array(np.asarray(batch["u"], np.int64)[m]),
                "b": pa.array(np.asarray(batch["v"], np.int64)[m])})

        nxt = sup.map_batches(keep, batch_format="pyarrow") \
            .repartition(n_blocks).materialize()
        n_nxt = nxt.count()
        if n_nxt == n_cur:
            cur = nxt
            break
        cur, n_cur = nxt, n_nxt

    if n_cur == 0:
        # all-empty map outputs lose their schema in Ray — seal one
        return rd.from_arrow(pa.table({"u": pa.array([], pa.int64()),
                                       "v": pa.array([], pa.int64())}))

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({"u": batch["a"].cast(pa.int64()),
                         "v": batch["b"].cast(pa.int64())})

    return cur.map_batches(rename, batch_format="pyarrow")


def link_prediction_jaccard(edges):
    """Jaccard link-prediction scores: for every NON-adjacent vertex
    pair at distance 2, ``|N(u) ∩ N(v)| / |N(u) ∪ N(v)|`` =
    ``cn / (deg_u + deg_v - cn)`` — the classic normalized variant of
    ``common_neighbors`` (which supplies the exact cn counts via the
    wedge sweep; this stage decorates them with degrees and performs
    ONE IEEE division of exact int64s, so the float hash-matches a SQL
    mirror).

    Degrees attach through the keyed lookup (``_with_degrees``):
    broadcast while the degree table fits the gate, two bucketed hash
    joins past it — no O(V) driver state. Returns (u, v, n_common,
    jaccard), u < v.
    """
    def score(batch: pa.Table) -> pa.Table:
        cn = np.asarray(batch["n_common"], np.int64)
        du = np.asarray(batch["deg_u"], np.int64)
        dv = np.asarray(batch["deg_v"], np.int64)
        jac = cn.astype(np.float64) / (du + dv - cn).astype(np.float64)
        return pa.table({"u": pa.array(np.asarray(batch["u"], np.int64)),
                         "v": pa.array(np.asarray(batch["v"], np.int64)),
                         "n_common": pa.array(cn),
                         "jaccard": pa.array(jac)})

    degrees = _degree_table(_undirected(edges))
    return _with_degrees(common_neighbors(edges), degrees, "u", "v") \
        .map_batches(score, batch_format="pyarrow")


def four_cycle_count(edges, max_degree: int | None = None):
    """Global 4-CYCLE (rectangle) count — the bipartite-motif metric
    next to the triangle count: #C4 = (1/2) * sum over unordered
    vertex pairs of C(cn(u,v), 2), where cn counts common neighbors
    over ALL pairs (adjacent included — every rectangle is counted
    once at each of its two diagonals, so the sum is provably even
    and the halving is exact integer arithmetic).

    Same two-coarse-shuffle plan as ``common_neighbors`` minus the
    edge-marker stage: wedges per CENTER partition (sort + segment
    pair expansion, counts pre-combined before leaving the task),
    pair partitions SUM the per-center counts, and each pair task
    emits one C(n,2) partial — only O(P) scalars reach the driver.
    ``max_degree`` is the hub clamp (a degree-d center emits d^2/2
    wedges); None = exact. Returns the exact int count."""
    import pandas as pd

    from ray.data.aggregate import Sum

    und = _undirected(edges)

    def sym(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch["a"], dtype=np.int64)
        b = np.asarray(batch["b"], dtype=np.int64)
        src = np.concatenate([a, b])
        dst = np.concatenate([b, a])
        return pa.table({"src": src, "dst": dst})

    def wedge_part(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["src", "dst"])
        src = g["src"].to_numpy(np.int64)
        dst = g["dst"].to_numpy(np.int64)
        new = np.concatenate([[True], src[1:] != src[:-1]])
        starts = np.flatnonzero(new)
        sizes = np.diff(np.concatenate([starts, [len(g)]]))
        ia, ib = [], []
        for st, k in zip(starts.tolist(), sizes.tolist()):
            if k < 2 or (max_degree is not None and k > max_degree):
                continue
            ii, jj = np.triu_indices(k, 1)
            ia.append(ii + st)
            ib.append(jj + st)
        if not ia:
            return pd.DataFrame({"u": pd.array([], dtype="int64"),
                                 "v": pd.array([], dtype="int64"),
                                 "n": pd.array([], dtype="int64")})
        ia, ib = np.concatenate(ia), np.concatenate(ib)
        pairs, cnt = np.unique(
            np.stack([dst[ia], dst[ib]], axis=1), axis=0,
            return_counts=True)
        return pd.DataFrame({"u": pairs[:, 0], "v": pairs[:, 1],
                             "n": cnt.astype(np.int64)})

    wedges = keyed_sweep(und.map_batches(sym, batch_format="pyarrow"), "src",
                         wedge_part)

    def choose2_partial(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["u", "v"])
        u = g["u"].to_numpy(np.int64)
        v = g["v"].to_numpy(np.int64)
        n = g["n"].to_numpy(np.int64)
        new = np.concatenate([[True],
                              (u[1:] != u[:-1]) | (v[1:] != v[:-1])])
        seg = np.cumsum(new) - 1
        tot = np.zeros(int(seg[-1]) + 1 if len(g) else 0, np.int64)
        np.add.at(tot, seg, n)
        return pd.DataFrame({"c2": pd.array(
            [int((tot * (tot - 1) // 2).sum())], dtype="int64")})

    parts = keyed_sweep(wedges, ["u", "v"], choose2_partial)
    total = parts.aggregate(Sum("c2", alias_name="c2"))["c2"]
    return int(total or 0) // 2
