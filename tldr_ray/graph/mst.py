"""Distributed minimum spanning forest — Borůvka rounds on Ray Data.

Each BSP round: every component nominates its lexicographically-
minimum (weight, a, b) OUTGOING edge (a coarse per-component argmin
sweep — one shuffle), the nominated component pairs contract through
the size-gated cluster resolver (union-find below the counted budget,
the distributed min-label CC engine past it), and the edges pick up
their endpoints' component labels through the keyed lookup
(stages.joins.lookup: broadcast map under the budget, bucketed join
past it). Components at least halve per round,
so rounds = O(log V); with the strict (weight, a, b) total order the
forest is UNIQUE and equal to Kruskal's under the same order — the
pytest oracle.

Driver state per round: the nominated edge set is one row per
component (geometrically shrinking); labels stay distributed.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def boruvka_msf(edges, max_rounds: int = 32):
    """``edges``: Dataset (src, dst, weight). Returns pd.DataFrame
    (a, b, weight) of the minimum spanning forest edges, sorted by
    (a, b). Self-loops drop; parallel edges keep the minimum weight
    (ties on weight resolve by the (weight, a, b) total order).

    The returned forest is O(V) rows on the driver — fine up to ~10^8
    vertices; past that, sink each round's picks to parquet instead
    of accumulating (the per-round pick set itself is one row per
    component and shrinks geometrically)."""
    import ray
    from ray.data.aggregate import Min

    from tldr_ray.hashing import keyed_sweep
    from tldr_ray.stages.dedup import resolve_clusters
    from tldr_ray.stages.joins import lookup

    def undirect(batch: pa.Table) -> pa.Table:
        s = np.asarray(batch["src"], dtype=np.int64)
        d = np.asarray(batch["dst"], dtype=np.int64)
        w = np.asarray(batch["weight"], dtype=np.float64)
        keep = s != d
        s, d, w = s[keep], d[keep], w[keep]
        lo, hi = np.minimum(s, d), np.maximum(s, d)
        key = np.stack([lo, hi], axis=1)
        u, inv = np.unique(key, axis=0, return_inverse=True)
        wmin = np.full(u.shape[0], np.inf)
        np.minimum.at(wmin, inv, w)
        return pa.table({"a": u[:, 0], "b": u[:, 1],
                         "weight": pa.array(wmin)})

    und = edges.map_batches(undirect, batch_format="pyarrow") \
        .groupby(["a", "b"]).aggregate(Min("weight",
                                           alias_name="weight")) \
        .materialize()

    def verts(batch: pa.Table) -> pa.Table:
        v = np.unique(np.concatenate([
            np.asarray(batch["a"], np.int64),
            np.asarray(batch["b"], np.int64)]))
        return pa.table({"vertex": pa.array(v),
                         "comp": pa.array(v)})

    comp = und.map_batches(verts, batch_format="pyarrow") \
        .groupby("vertex").aggregate(Min("comp", alias_name="comp")) \
        .materialize()

    forest = []          # (a, b, weight) picked so far — O(V) total
    for _ in range(max_rounds):
        def labels(col: str):
            return comp.map_batches(
                lambda t: pa.table({col: t["vertex"],
                                    f"c{col}": t["comp"]}),
                batch_format="pyarrow")

        dec = lookup(lookup(und, labels("a"), "a"), labels("b"), "b")

        def tag(batch: pa.Table) -> pa.Table:
            ca = np.asarray(batch["ca"], np.int64)
            cb = np.asarray(batch["cb"], np.int64)
            keep = ca != cb
            t = batch.filter(pa.array(keep))
            # each cross edge competes in BOTH endpoint components
            ca, cb = ca[keep], cb[keep]
            comp_of = np.concatenate([ca, cb])
            aa = np.concatenate([np.asarray(t["a"], np.int64)] * 2)
            bb = np.concatenate([np.asarray(t["b"], np.int64)] * 2)
            ww = np.concatenate([np.asarray(t["weight"],
                                            np.float64)] * 2)
            oca = np.concatenate([ca, ca])
            ocb = np.concatenate([cb, cb])
            return pa.table({
                "comp": pa.array(comp_of), "a": pa.array(aa),
                "b": pa.array(bb), "weight": pa.array(ww),
                "ca": pa.array(oca), "cb": pa.array(ocb)})

        def argmin_sweep(g: pd.DataFrame) -> pd.DataFrame:
            g = g.sort_values(["comp", "weight", "a", "b"],
                              kind="mergesort")
            c = g["comp"].to_numpy(np.int64)
            first = np.empty(len(g), dtype=bool)
            if len(g):
                first[0] = True
                first[1:] = c[1:] != c[:-1]
            return g[first][["a", "b", "weight", "ca", "cb"]]

        picks = keyed_sweep(dec.map_batches(tag, batch_format="pyarrow"),
                            "comp", argmin_sweep).to_pandas()
        if not len(picks):
            break
        picks = picks.drop_duplicates(["a", "b"])
        forest.append(picks[["a", "b", "weight"]])
        import ray.data as rd
        merge_pairs = rd.from_pandas(
            picks[["ca", "cb"]].rename(columns={"ca": "id_a",
                                                "cb": "id_b"}))
        cl = resolve_clusters(merge_pairs)
        ck = np.sort(cl["id"].to_numpy(np.int64))
        cv = cl.set_index("id")["cluster_id"].loc[ck] \
            .to_numpy(np.int64)
        mref = ray.put((ck, cv))

        def relabel(batch: pa.Table) -> pa.Table:
            k, v = ray.get(mref)
            c = np.asarray(batch["comp"], np.int64)
            out = c.copy()
            if k.size:
                pos = np.minimum(np.searchsorted(k, c), k.size - 1)
                hit = k[pos] == c
                out[hit] = v[pos[hit]]
            return pa.table({"vertex": batch["vertex"],
                             "comp": pa.array(out)})

        comp = comp.map_batches(relabel,
                                batch_format="pyarrow").materialize()

    if not forest:
        return pd.DataFrame({"a": pd.array([], dtype="int64"),
                             "b": pd.array([], dtype="int64"),
                             "weight": pd.array([], dtype="float64")})
    out = pd.concat(forest, ignore_index=True) \
        .drop_duplicates(["a", "b"]) \
        .sort_values(["a", "b"]).reset_index(drop=True)
    return out
