"""Driver-checkable query registry (__ray_entry__.queries / oracle_sql).

Each QUERIES entry takes ``sf_dir`` and returns a Dataset / DataFrame /
Table; the matching ORACLE_SQL entry is ANSI SQL DuckDB runs over the
same Parquet tables. Column names AND dtypes match pairwise; float
aggregates are computed on exact integer cents (floor(x*100+0.5)) so
partial-aggregation order cannot perturb the value hash.

Queries without an oracle (iterative graph algorithms, kernel
summarization) get the driver's rows-only check; their numeric parity
is enforced by the pytest oracles instead (FIXTURES.md F2/F5).

The kept surface: the driver's fixed 50 (the keys of
CORRECTNESS_r05.json), every graph entry, every entry over the
documents / embeddings / transcripts tables, and every entry that
drives a ``stages`` / ``sinks`` / ``state`` operator. Hand-written
statistics that read a TPC-H table and use none of these are not
registered here, and neither are the hypothesis tests, intervals,
estimators, models and time-series forecasts over the events table.
The remaining hand-written statistics over the events table alone
(paths, sessions, user features, format round-trips, index demos)
are still registered; they are the next candidates to go.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from tldr_ray.hashing import keyed_sweep


def _read(sf_dir: str, table: str, columns=None):
    """Projected parquet read with an explicit metadata-free schema —
    the pandas metadata in the driver's files makes pyarrow-16 schemas
    unhashable, which spams Ray's schema-dedup warning and disables its
    fast path (round-3 verdict item 6); stripping via the ``schema``
    argument keeps the pure-read plan (metadata count() stays free)."""
    import ray.data as rd

    from tldr_ray.sources.tabular import hashable_parquet_schema

    path = f"{sf_dir}/{table}.parquet"
    return rd.read_parquet(path, columns=columns,
                           schema=hashable_parquet_schema(path, columns))


def _cents(x: np.ndarray) -> np.ndarray:
    """floor(x*100 + 0.5) as int64 — bit-identical to the SQL oracle."""
    return np.floor(x * 100.0 + 0.5).astype(np.int64)


def _semi_filter_keys(ds, col: str, keys):
    """Semi-join a Dataset against a key array (stages.joins.lookup,
    ``how="semi"``). This is the decoration path for bounded top-k
    outputs: within the broadcast gate the surviving <=k keys ride the
    object store once and the dimension table streams through its own
    scan — it never reaches the driver (round-3 verdict item 3)."""
    import ray.data as rd

    from tldr_ray.stages.joins import lookup

    keys = rd.from_arrow(pa.table({col: pa.array(
        np.asarray(keys, dtype=np.int64))}))
    return lookup(ds, keys, col, "semi")


def _dim_decorate(ds, sf_dir: str, table: str, dim_key: str,
                  dim_val: str, on: str, out_col: str):
    """Attach ``dim_val`` (as ``out_col``) to ``ds[on]`` from a
    dimension parquet through one keyed lookup (stages.joins.lookup:
    broadcast within the gate, bucketed hash join past it). INNER
    semantics — rows whose key misses the dimension are dropped."""
    from tldr_ray.stages.joins import lookup

    def proj(batch: pa.Table) -> pa.Table:
        return pa.table({on: batch[dim_key].cast(pa.int64()),
                         out_col: batch[dim_val].cast(pa.int64())})

    return lookup(ds, _read(sf_dir, table, [dim_key, dim_val])
                  .map_batches(proj, batch_format="pyarrow"), on)


# ---------------------------------------------------------------------------
# documents: token counts, word frequency, dedup, per-lang stats
# ---------------------------------------------------------------------------

def doc_token_counts(sf_dir: str):
    """O3-style whitespace tokenization, vectorized (no Python loop)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(pc.utf8_trim_whitespace(batch["text"]), r"\s+")
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pc.cast(pc.list_value_length(toks), pa.int64()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def word_frequency_top100(sf_dir: str):
    """Partial per-batch counts -> small groupby -> deterministic top-k.

    The map_batches combiner keeps the shuffle tiny: one row per
    distinct word per batch, not per token (SURVEY.md §4 pre-aggregate
    rule)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_trim_whitespace(pc.utf8_lower(batch["text"])), r"\s+"
        )
        flat = pc.list_flatten(toks)
        words, counts = np.unique(np.asarray(flat), return_counts=True)
        return pa.table({"word": pa.array(words.tolist(), pa.string()),
                         "n": pa.array(counts, pa.int64())})

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("word")
        .aggregate(Sum("n", alias_name="n"))
    )
    return agg.sort(["n", "word"], descending=[True, False]).limit(100)


def exact_dedup_docs(sf_dir: str):
    """Exact dedup: hash-partition by content, keep first (min doc_id).

    At 100 TB the group key is a 128-bit content hash added in a
    vectorized map_batches; at test scale grouping by the text itself is
    identical and keeps the oracle trivial."""
    from ray.data.aggregate import Min, Count

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    agg = ds.groupby("text").aggregate(
        Min("doc_id", alias_name="doc_id"),
        Count(alias_name="n_dupes"),
    )
    return agg.select_columns(["doc_id", "n_dupes"])


def docs_by_lang(sf_dir: str):
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "documents", ["lang", "n_chars"])
    return ds.groupby("lang").aggregate(
        Count(alias_name="n_docs"),
        Sum("n_chars", alias_name="total_chars"),
    )


# ---------------------------------------------------------------------------
# events: grouped aggregates + co-occurrence pairs (the tool/entity
# co-reference edge builder in miniature)
# ---------------------------------------------------------------------------

def events_by_type(sf_dir: str):
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def add_cents(batch: pa.Table) -> pa.Table:
        cents = _cents(np.asarray(batch["value"], dtype=np.float64))
        return pa.table({"event_type": batch["event_type"],
                         "value_cents": pa.array(cents, pa.int64())})

    return (
        ds.map_batches(add_cents, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Count(alias_name="n_events"),
                   Sum("value_cents", alias_name="total_value_cents"))
    )


def events_cooccurrence_pairs(sf_dir: str):
    """Unordered event-type pairs co-occurring for the same user.

    distinct (user, type) -> COARSE partition on user hash (one task
    sweeps thousands of users vectorized; per-user map_groups pays ~ms
    of invocation overhead per micro-group) -> per-partition pair
    counts pre-aggregated -> tiny groupby sum. This is the
    cross-conversation co-reference edge build (SURVEY.md §2.4) in
    miniature; hot keys are bounded because pairs per user are
    quadratic in its DISTINCT types (small vocabulary), not its event
    count."""
    from ray.data.aggregate import Sum

    from tldr_ray.stages.dedup import _segment_pair_indices

    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def batch_distinct(batch: pa.Table) -> pa.Table:
        """Per-batch distinct (the combiner): collapses the event stream
        to at most |users| x |types| rows BEFORE the only shuffle."""
        df = pd.DataFrame({"user_id": np.asarray(batch["user_id"],
                                                 dtype=np.int64),
                           "event_type": batch["event_type"].to_pandas()})
        df = df.drop_duplicates()
        u = df["user_id"].to_numpy(np.int64)
        return pa.table(
            {
                "user_id": pa.array(u),
                "event_type": pa.array(df["event_type"], pa.string()),
            }
        )

    def part_pairs(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates(["user_id", "event_type"]) \
            .sort_values(["user_id", "event_type"])
        u = g["user_id"].to_numpy()
        t = g["event_type"].to_numpy()
        change = np.flatnonzero(u[1:] != u[:-1])
        starts = np.concatenate([[0], change + 1])
        sizes = np.diff(np.concatenate([starts, [len(g)]]))
        ia, ib, _ = _segment_pair_indices(sizes, starts,
                                          max_bucket=1 << 30)
        out = pd.DataFrame({"type_a": t[ia], "type_b": t[ib]})
        out = out.groupby(["type_a", "type_b"], as_index=False).size() \
            .rename(columns={"size": "n"})
        out["n"] = out["n"].astype(np.int64)
        return out

    return (
        keyed_sweep(ds.map_batches(batch_distinct, batch_format="pyarrow"),
                    "user_id", part_pairs)
        .groupby(["type_a", "type_b"])
        .aggregate(Sum("n", alias_name="n_users"))
    )


# ---------------------------------------------------------------------------
# lineitem/orders: scan-heavy grouped aggregate + multi-way broadcast join
# ---------------------------------------------------------------------------

def tpch_q6(sf_dir: str):
    """TPC-H Q6-shaped: predicate-pruned scan + one global exact sum.
    Revenue = extendedprice * discount summed as an INTEGER product of
    cents (price_cents * discount_cents, units 10^-4 currency) so
    partial-sum order cannot perturb the driver hash. Filters run as a
    vectorized Arrow mask right after the projected read — rows never
    reach the aggregate."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "lineitem",
               ["l_shipdate", "l_quantity", "l_extendedprice",
                "l_discount"])
    lo = np.datetime64("1996-01-01").astype("datetime64[us]")
    hi = np.datetime64("1997-01-01").astype("datetime64[us]")

    def fil(batch: pa.Table) -> pa.Table:
        sd = np.asarray(batch["l_shipdate"].cast(pa.int64()))
        qty = np.asarray(batch["l_quantity"], dtype=np.float64)
        disc = np.asarray(batch["l_discount"], dtype=np.float64)
        px = np.asarray(batch["l_extendedprice"], dtype=np.float64)
        dc = _cents(disc)
        m = ((sd >= lo.astype(np.int64)) & (sd < hi.astype(np.int64))
             & (dc >= 5) & (dc <= 7) & (qty < 24.0))
        rev = _cents(px)[m] * dc[m]           # 10^-4 units, exact int
        return pa.table({"revenue_e4": pa.array(rev),
                         "one": pa.array(np.ones(m.sum(), np.int64))})

    agg = (ds.map_batches(fil, batch_format="pyarrow")
           .aggregate(Sum("revenue_e4", alias_name="revenue_e4"),
                      Sum("one", alias_name="n_rows")))
    return pa.table({
        "revenue_e4": pa.array([int(agg["revenue_e4"])], pa.int64()),
        "n_rows": pa.array([int(agg["n_rows"])], pa.int64())})


def tpch_q3(sf_dir: str):
    """TPC-H Q3-shaped: orders semi-joined to the segment-filtered
    customers, orders and lineitem predicate-pruned at the read, then
    lineitem annotated with each surviving order's date — both steps
    are keyed lookups (stages.joins.lookup), so while the small side
    fits the broadcast gate lineitem is pruned and annotated in its
    own scan with no join shuffle, and past the gate they become
    bucketed semi / hash joins. Grouped exact cents revenue,
    deterministic total-order top-10 (revenue desc, orderdate asc,
    orderkey asc)."""
    from ray.data.aggregate import Sum

    from tldr_ray.stages.joins import lookup

    cutoff = np.datetime64("1998-01-01").astype("datetime64[us]") \
        .astype(np.int64)

    def ckeys(batch: pa.Table) -> pa.Table:
        m = np.asarray(pc.equal(batch["c_mktsegment"], "BUILDING"))
        return pa.table({"o_custkey": pa.array(
            np.asarray(batch["c_custkey"], dtype=np.int64)[m])})

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]) \
        .map_batches(ckeys, batch_format="pyarrow")

    def ofil(batch: pa.Table) -> pa.Table:
        od = np.asarray(batch["o_orderdate"].cast(pa.int64()))
        m = od < cutoff
        return pa.table({
            "o_custkey": pa.array(
                np.asarray(batch["o_custkey"], dtype=np.int64)[m]),
            "l_orderkey": pa.array(
                np.asarray(batch["o_orderkey"], dtype=np.int64)[m]),
            "orderdate_us": pa.array(od[m])})

    orders = lookup(_read(sf_dir, "orders",
                          ["o_orderkey", "o_custkey", "o_orderdate"])
                    .map_batches(ofil, batch_format="pyarrow"),
                    cust, "o_custkey", "semi") \
        .select_columns(["l_orderkey", "orderdate_us"])

    def lfil(batch: pa.Table) -> pa.Table:
        sd = np.asarray(batch["l_shipdate"].cast(pa.int64()))
        m = sd > cutoff
        px = np.asarray(batch["l_extendedprice"], dtype=np.float64)[m]
        disc = np.asarray(batch["l_discount"], dtype=np.float64)[m]
        return pa.table({
            "l_orderkey": pa.array(
                np.asarray(batch["l_orderkey"], dtype=np.int64)[m]),
            "revenue_cents": pa.array(_cents(px * (1.0 - disc)))})

    line = _read(sf_dir, "lineitem",
                 ["l_orderkey", "l_shipdate", "l_extendedprice",
                  "l_discount"]).map_batches(lfil, batch_format="pyarrow")
    joined = lookup(line, orders, "l_orderkey")
    agg = (joined.groupby(["l_orderkey", "orderdate_us"])
           .aggregate(Sum("revenue_cents", alias_name="revenue_cents")))
    top = (agg.sort(["revenue_cents", "orderdate_us", "l_orderkey"],
                    descending=[True, False, False]).limit(10))

    def seal(batch: pd.DataFrame) -> pd.DataFrame:
        for c in ("l_orderkey", "orderdate_us", "revenue_cents"):
            batch[c] = batch[c].astype(np.int64)
        return batch[["l_orderkey", "orderdate_us", "revenue_cents"]]

    return top.map_batches(seal, batch_format="pandas")


def tpch_q1(sf_dir: str):
    """TPC-H Q1-shaped: vectorized derived columns + grouped exact sums."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity",
                "l_extendedprice", "l_discount"])

    def derive(batch: pa.Table) -> pa.Table:
        qty = np.asarray(batch["l_quantity"], dtype=np.float64)
        px = np.asarray(batch["l_extendedprice"], dtype=np.float64)
        disc = np.asarray(batch["l_discount"], dtype=np.float64)
        return pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "qty_cents": pa.array(_cents(qty), pa.int64()),
                "price_cents": pa.array(_cents(px), pa.int64()),
                "revenue_cents": pa.array(_cents(px * (1.0 - disc)), pa.int64()),
            }
        )

    return (
        ds.map_batches(derive, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("qty_cents", alias_name="sum_qty_cents"),
            Sum("price_cents", alias_name="sum_price_cents"),
            Sum("revenue_cents", alias_name="sum_revenue_cents"),
            Count(alias_name="n_rows"),
        )
    )


def revenue_by_nation(sf_dir: str):
    """lineitem -> orders -> customer -> nation, as two keyed lookups
    (stages.joins.lookup): while orders and customer fit the broadcast
    gate each ships to every task once and lineitem is decorated in its
    own scan; past the gate each lookup is a bucketed hash join.
    nation (25 rows) decodes inside the final map."""
    import pyarrow.parquet as pq
    from ray.data.aggregate import Sum

    from tldr_ray.stages.joins import lookup

    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])
    nkey = np.asarray(nation["n_nationkey"], dtype=np.int64)
    nation_names = np.empty(nkey.max() + 1, dtype=object)
    nation_names[nkey] = nation["n_name"].to_pylist()

    def line_revenue(batch: pa.Table) -> pa.Table:
        px = np.asarray(batch["l_extendedprice"], dtype=np.float64)
        disc = np.asarray(batch["l_discount"], dtype=np.float64)
        return pa.table(
            {
                "o_orderkey": batch["l_orderkey"].cast(pa.int64()),
                "revenue_cents": pa.array(_cents(px * (1.0 - disc)),
                                          pa.int64()),
            }
        )

    def keyed(key: str, val: str, out: str):
        def fn(batch: pa.Table) -> pa.Table:
            return pa.table({key: batch[key].cast(pa.int64()),
                             out: batch[val].cast(pa.int64())})
        return fn

    ds = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount"]) \
        .map_batches(line_revenue, batch_format="pyarrow")
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"]) \
        .map_batches(keyed("o_orderkey", "o_custkey", "c_custkey"),
                     batch_format="pyarrow")
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]) \
        .map_batches(keyed("c_custkey", "c_nationkey", "c_nationkey"),
                     batch_format="pyarrow")

    def add_name(batch: pa.Table) -> pa.Table:
        natkey = np.asarray(batch["c_nationkey"], dtype=np.int64)
        return pa.table({
            "n_name": pa.array(nation_names[natkey].tolist(), pa.string()),
            "revenue_cents": batch["revenue_cents"].cast(pa.int64())})

    named = lookup(lookup(ds, orders, "o_orderkey"), cust, "c_custkey") \
        .map_batches(add_name, batch_format="pyarrow")

    return (
        named.groupby("n_name")
        .aggregate(Sum("revenue_cents", alias_name="revenue_cents"))
    )


# ---------------------------------------------------------------------------
# embeddings: brute-force cosine top-k (ANN baseline)
# ---------------------------------------------------------------------------

def _fetch_query_vecs(sf_dir: str, ids) -> np.ndarray:
    """Query vectors by id via parquet row-group PREDICATE PUSHDOWN —
    only row groups whose column stats admit the requested ids are
    decoded, never a full-table driver read (round-3 verdict item 3:
    at 100x a whole-table ``read_table`` to fetch one row is a driver
    OOM). Returns float32 [len(ids), dim] in the given id order."""
    import pyarrow.parquet as pq

    ids = list(ids)
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"],
                      filters=[("vec_id", "in", ids)])
    got = dict(zip(t["vec_id"].to_pylist(), t["embedding"].to_pylist()))
    missing = [i for i in ids if i not in got]
    if missing:
        raise KeyError(f"query vec_ids not found: {missing}")
    return np.asarray([got[i] for i in ids], dtype=np.float32)


def embedding_top10_cosine(sf_dir: str):
    """Top-10 neighbors of vec_id=0 by cosine; broadcast query matrix +
    per-batch float32 matmul, then a tiny global top-k."""
    import ray

    qvec = _fetch_query_vecs(sf_dir, [0])[0]
    qvec = qvec / np.linalg.norm(qvec)
    qref = ray.put(qvec)

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def score(batch: pa.Table) -> pa.Table:
        q = ray.get(qref)
        mat = np.asarray(batch["embedding"].to_pylist(), dtype=np.float32)
        norms = np.linalg.norm(mat, axis=1)
        cos = (mat @ q) / np.where(norms == 0, 1.0, norms)
        ids = np.asarray(batch["vec_id"])
        keep = ids != 0
        ids, cos = ids[keep], cos[keep]
        # per-batch top-k combiner: only k candidates leave each batch
        if ids.size > 10:
            part = np.argpartition(-cos, 10)[:10]
            ids, cos = ids[part], cos[part]
        return pa.table({"vec_id": pa.array(ids, pa.int64()),
                         "cos": pa.array(cos.astype(np.float64), pa.float64())})

    top = (
        ds.map_batches(score, batch_format="pyarrow")
        .sort(["cos", "vec_id"], descending=[True, False])
        .limit(10)
    )
    return top.select_columns(["vec_id"])


# ---------------------------------------------------------------------------
# text-analysis operators with SQL oracles
# ---------------------------------------------------------------------------

def doc_token_counts_bpe(sf_dir: str):
    """Whitespace + BPE-ish piece counts (both RE2 semantics, so DuckDB's
    regexp functions agree exactly)."""
    from tldr_ray.stages.text_analysis import token_counts

    return token_counts(_read(sf_dir, "documents", ["doc_id", "text"]))


def doc_fingerprints_md5(sf_dir: str):
    from tldr_ray.stages.text_analysis import fingerprints

    out = fingerprints(_read(sf_dir, "documents", ["doc_id", "text"]))
    return out.select_columns(["doc_id", "md5"])


def exact_dedup_clusters(sf_dir: str):
    """Full cluster assignment (one row per doc) from stages.dedup."""
    from tldr_ray.stages.dedup import exact_dedup

    return exact_dedup(_read(sf_dir, "documents", ["doc_id", "text"]))


def events_hourly(sf_dir: str):
    """Tumbling event-time window aggregate (streaming-shaped op)."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "events", ["ts", "value"])

    def bucket(batch: pa.Table) -> pa.Table:
        us = batch["ts"].cast(pa.int64())
        hour = pc.multiply(pc.divide(us, 3_600_000_000), 3_600_000_000)
        return pa.table(
            {
                "hour": hour.cast(pa.timestamp("us")),
                "value_cents": pa.array(
                    _cents(np.asarray(batch["value"], dtype=np.float64)),
                    pa.int64()),
            }
        )

    def recast(batch: pa.Table) -> pa.Table:
        # Ray's hash aggregation narrows the whole-hour key to timestamp[s];
        # restore the source table's microsecond unit for oracle parity.
        return batch.set_column(
            batch.schema.get_field_index("hour"), "hour",
            batch["hour"].cast(pa.timestamp("us")))

    return (
        ds.map_batches(bucket, batch_format="pyarrow")
        .groupby("hour")
        .aggregate(Count(alias_name="n_events"),
                   Sum("value_cents", alias_name="total_value_cents"))
        .map_batches(recast, batch_format="pyarrow")
    )


def events_sessionize(sf_dir: str):
    """Session windows per user (gap > 30 min splits); ordered map_groups
    with incremental state, SQL oracle via lag()+cumsum window."""
    from tldr_ray.stages.windows import session_windows

    return session_windows(_read(sf_dir, "events", ["user_id", "ts"]),
                           key_col="user_id", ts_col="ts", gap_s=1800)


def events_sliding_30m(sf_dir: str):
    """30-min windows sliding by 15 min: each event lands in 2 windows
    (vectorized replication), then a tiny groupby; SQL oracle unions two
    tumbling offsets."""
    from ray.data.aggregate import Count
    from tldr_ray.stages.windows import assign_sliding

    ds = _read(sf_dir, "events", ["ts"])
    win = assign_sliding(ds, ts_col="ts", size_s=1800, step_s=900,
                         keep=[])

    def recast(batch: pa.Table) -> pa.Table:
        # Ray's hash aggregation narrows the whole-second key to
        # timestamp[s]; restore microseconds for oracle parity
        i = batch.schema.get_field_index("window_start")
        return batch.set_column(i, "window_start",
                                batch["window_start"].cast(pa.timestamp("us")))

    return win.groupby("window_start") \
        .aggregate(Count(alias_name="n_events")) \
        .map_batches(recast, batch_format="pyarrow")


def top_users_by_value(sf_dir: str):
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["user_id", "value"])

    def cents(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch["user_id"],
                "value_cents": pa.array(
                    _cents(np.asarray(batch["value"], dtype=np.float64)),
                    pa.int64()),
            }
        )

    agg = (
        ds.map_batches(cents, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("value_cents", alias_name="total_cents"))
    )
    return agg.sort(["total_cents", "user_id"],
                    descending=[True, False]).limit(10)


def knn_multi_query(sf_dir: str):
    """Exact cosine top-10 for query vectors vec_id in (0,1,2); SQL
    oracle via list_cosine_similarity + row_number window. Query rows
    fetched via parquet predicate pushdown (_fetch_query_vecs), never a
    full-table driver read."""
    qmat = _fetch_query_vecs(sf_dir, [0, 1, 2])
    qids = np.asarray([0, 1, 2], dtype=np.int64)

    from tldr_ray.stages.ann import knn_brute

    out = knn_brute(_read(sf_dir, "embeddings", ["vec_id", "embedding"]),
                    qmat, qids, k=10)
    return out.select_columns(["query_id", "vec_id"])


def sample_docs_25pct(sf_dir: str):
    """Deterministic content-hash sampling (reproducible across engines):
    keep docs whose md5 hex starts with 0-3 (~25%). The same rule is
    exactly expressible in SQL, so the sample SET matches bit-for-bit —
    the property that makes hash sampling the right tool for resumable
    pipelines (vs rng-state sampling)."""
    import hashlib

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        keep = [hashlib.md5((t or "").encode()).hexdigest()[0] in "0123"
                for t in texts]
        return batch.filter(pa.array(keep)).select(["doc_id"])

    return ds.map_batches(fn, batch_format="pyarrow")


def top_docs_per_lang(sf_dir: str):
    """Grouped top-k: 2 longest docs per language (ties -> doc_id asc)."""
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])

    def topk(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["n_chars", "doc_id"],
                              ascending=[False, True]).head(2)
        return g[["lang", "doc_id", "n_chars"]]

    return ds.groupby("lang").map_groups(topk, batch_format="pandas")


# ---------------------------------------------------------------------------
# rows-only (non-SQL-expressible) pipelines
# ---------------------------------------------------------------------------

def summarize_documents_k3(sf_dir: str):
    from tldr_ray.pipelines import summarize_documents

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return summarize_documents(docs, num=3, presplit_words=12)


def summarize_transcripts_k3(sf_dir: str):
    from tldr_ray.pipelines import summarize_transcripts
    from tldr_ray.sources import documents_as_transcripts

    return summarize_transcripts(documents_as_transcripts(sf_dir), num=3,
                                 presplit_words=12)


def summarize_centrality_k3(sf_dir: str):
    """Centrality ranking variant (reference O17) over documents."""
    from tldr_ray.config import SummarizeConfig
    from tldr_ray.pipelines import summarize_documents

    cfg = SummarizeConfig(algorithm="centrality")
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return summarize_documents(docs, num=3, cfg=cfg, presplit_words=12)


def pagerank_documents_graph(sf_dir: str):
    """North-star pipeline at query scale: documents-as-transcripts ->
    similarity + tool edge table -> distributed PageRank over CSR shard
    actors. Returns (vertex, score)."""
    import ray.data as rd

    from tldr_ray.graph import GraphEngine
    from tldr_ray.sources import documents_as_transcripts
    from tldr_ray.stages.edges import transcript_graph

    edges = transcript_graph(documents_as_transcripts(sf_dir),
                             presplit_words=12).select_columns(
        ["src", "dst", "weight"])
    eng = GraphEngine.from_edges(edges, num_partitions=4)
    try:
        ids, scores, _ = eng.pagerank()
    finally:
        eng.shutdown()
    return pa.table({"vertex": pa.array(ids),
                     "score": pa.array(scores)})


def connected_components_documents(sf_dir: str):
    from tldr_ray.graph import connected_components
    from tldr_ray.sources import documents_as_transcripts
    from tldr_ray.stages.edges import transcript_graph

    edges = transcript_graph(documents_as_transcripts(sf_dir),
                             presplit_words=12).select_columns(
        ["src", "dst", "weight"])
    ids, labels, _ = connected_components(edges, num_partitions=4)
    return pa.table({"vertex": pa.array(ids),
                     "component": pa.array(labels)})


def label_propagation_documents(sf_dir: str):
    from tldr_ray.graph import label_propagation
    from tldr_ray.sources import documents_as_transcripts
    from tldr_ray.stages.edges import transcript_graph

    edges = transcript_graph(documents_as_transcripts(sf_dir),
                             presplit_words=12).select_columns(
        ["src", "dst", "weight"])
    ids, labels, _ = label_propagation(edges, num_partitions=4, max_rounds=10)
    return pa.table({"vertex": pa.array(ids),
                     "label": pa.array(labels)})


# ---------------------------------------------------------------------------
# hash-generated graph: the SAME deterministic edge table is expressible
# in ANSI SQL, so the driver can hash-check the graph OPERATORS
# (triangles, components, centrality) even though the text-similarity
# graphs those operators usually run on are not SQL-expressible.
# ---------------------------------------------------------------------------

def _hash_graph_edges(sf_dir: str):
    """Three pseudo-random outgoing edges per document id over the id
    space [0, max_id] (self-loops dropped); mirrored 1:1 by the
    ``*_hashgraph`` oracles."""
    import pyarrow.parquet as pq

    N = int(pq.read_table(f"{sf_dir}/documents.parquet",
                          columns=["doc_id"])["doc_id"]
            .to_numpy().max()) + 1

    def edges(batch: pa.Table) -> pa.Table:
        d = np.asarray(batch["doc_id"], dtype=np.int64)
        src = np.concatenate([d, d, d])
        # two ring edges (every consecutive triple closes a triangle)
        # plus one long-range pseudo-random edge
        dst = np.concatenate([(d + 1) % N, (d + 2) % N,
                              (d * 7 + 3) % N])
        keep = src != dst
        src, dst = src[keep], dst[keep]
        return pa.table({"src": pa.array(src), "dst": pa.array(dst),
                         "weight": pa.array(np.ones(src.size))})

    return _read(sf_dir, "documents", ["doc_id"]) \
        .map_batches(edges, batch_format="pyarrow")


def triangle_counts_hashgraph(sf_dir: str):
    """Per-vertex triangle counts over the hash graph (SQL oracle:
    3-way self-join of the deduped undirected edge set)."""
    from tldr_ray.graph import triangle_counts

    _, per_vertex = triangle_counts(_hash_graph_edges(sf_dir))
    return per_vertex


def connected_components_hashgraph(sf_dir: str):
    """Min-label components over the hash graph (SQL oracle: recursive
    reachability + min)."""
    from tldr_ray.graph import connected_components

    ids, labels, _ = connected_components(_hash_graph_edges(sf_dir),
                                          num_partitions=4)
    return pa.table({"vertex": pa.array(ids),
                     "component": pa.array(labels)})


def centrality_hashgraph(sf_dir: str):
    """Max-incident-weight centrality (O17 semantics) over the
    symmetrized hash graph with deterministic integer-derived weights
    (SQL oracle: groupby max)."""
    import pyarrow.parquet as pq

    from tldr_ray.graph import centrality_ranks

    N = int(pq.read_table(f"{sf_dir}/documents.parquet",
                          columns=["doc_id"])["doc_id"]
            .to_numpy().max()) + 1

    def edges(batch: pa.Table) -> pa.Table:
        d = np.asarray(batch["doc_id"], dtype=np.int64)
        s = np.concatenate([d, d, d])
        t = np.concatenate([(d + 1) % N, (d + 2) % N,
                            (d * 7 + 3) % N])
        keep = s != t
        s, t = s[keep], t[keep]
        src = np.concatenate([s, t])
        dst = np.concatenate([t, s])
        w = ((src * 31 + dst * 17) % 97 + 1) / 100.0
        return pa.table({"src": pa.array(src), "dst": pa.array(dst),
                         "weight": pa.array(w)})

    ds = _read(sf_dir, "documents", ["doc_id"]) \
        .map_batches(edges, batch_format="pyarrow")
    return centrality_ranks(ds)


def degree_distribution_hashgraph(sf_dir: str):
    """Undirected-degree histogram of the hash graph: (degree,
    n_vertices). Partial per-batch degree counts -> one small groupby
    (combiner pattern); SQL oracle joins the same edge generator."""
    from ray.data.aggregate import Sum

    def undirect(batch: pa.Table) -> pa.Table:
        s = np.asarray(batch["src"], dtype=np.int64)
        d = np.asarray(batch["dst"], dtype=np.int64)
        lo, hi = np.minimum(s, d), np.maximum(s, d)
        u = np.unique(np.stack([lo, hi], axis=1), axis=0)  # pre-combiner
        return pa.table({"a": pa.array(u[:, 0]), "b": pa.array(u[:, 1])})

    def partial_degrees(batch: pa.Table) -> pa.Table:
        v = np.concatenate([np.asarray(batch["a"], dtype=np.int64),
                            np.asarray(batch["b"], dtype=np.int64)])
        vu, cnt = np.unique(v, return_counts=True)
        return pa.table({"vertex": pa.array(vu),
                         "n": pa.array(cnt.astype(np.int64))})

    degrees = (
        _hash_graph_edges(sf_dir)
        .map_batches(undirect, batch_format="pyarrow")
        .groupby(["a", "b"]).count().select_columns(["a", "b"])
        .map_batches(partial_degrees, batch_format="pyarrow")
        .groupby("vertex")
        .aggregate(Sum("n", alias_name="degree"))
    )

    def hist(batch: pa.Table) -> pa.Table:
        deg, cnt = np.unique(np.asarray(batch["degree"], dtype=np.int64),
                             return_counts=True)
        return pa.table({"degree": pa.array(deg),
                         "n": pa.array(cnt.astype(np.int64))})

    return (
        degrees.map_batches(hist, batch_format="pyarrow")
        .groupby("degree")
        .aggregate(Sum("n", alias_name="n_vertices"))
    )


def kcore_hashgraph(sf_dir: str):
    """Core numbers of the hash graph via the distributed H-index
    fixpoint. SQL oracle: the SAME fixpoint unrolled as chained CTEs
    (degree init, then rounds of val := min(val, H-index of neighbor
    vals) via a window row_number) — plus the exact sequential peeling
    oracle in tests/test_graph_engine.py."""
    from tldr_ray.graph import k_core

    ids, cores, _ = k_core(_hash_graph_edges(sf_dir), num_partitions=4)
    return pa.table({"vertex": pa.array(ids), "core": pa.array(cores)})


_MINHASH_SIG_PERMS = 8


def minhash_signatures_docs(sf_dir: str):
    """The MinHash signature kernel, driver-hash-checked: per-doc
    signatures over ``_MINHASH_SIG_PERMS`` permutations (FNV-1a 5-byte
    shingles, minima of (a*x + b) mod 2^64) as int64 columns, mirrored
    1:1 by a DuckDB HUGEINT oracle — this converts the deterministic
    core of ``minhash_dedup_docs`` from pytest-trusted to
    driver-hash-checked. Docs shorter than the shingle width are
    excluded on BOTH sides (the operator zero-pads them; SQL windows
    cannot)."""
    from tldr_ray.stages.dedup import (_corpus_shingle_hashes,
                                       _minhash_params, _minhash_sigs_batch)

    a, b = _minhash_params(_MINHASH_SIG_PERMS)

    def sigs(batch: pa.Table) -> pa.Table:
        keep = pc.greater_equal(
            pc.utf8_length(pc.fill_null(batch["text"], "")), 5)
        batch = batch.filter(keep)
        h, n_win = _corpus_shingle_hashes(batch["text"], 5)
        sig = _minhash_sigs_batch(h, n_win, a, b)
        cols = {"doc_id": batch["doc_id"]}
        for p in range(_MINHASH_SIG_PERMS):
            cols[f"sig_{p}"] = pa.array(sig[:, p].view(np.int64))
        return pa.table(cols)

    return _read(sf_dir, "documents", ["doc_id", "text"]) \
        .map_batches(sigs, batch_format="pyarrow")


def personalized_pagerank_hashgraph(sf_dir: str):
    """Personalized PageRank over the hash graph with restart mass on
    seeds {0, 1, 2} (no SQL oracle — iterative float fixpoint; the dense
    numpy oracle lives in tests/test_graph_engine.py)."""
    from tldr_ray.graph import GraphEngine

    eng = GraphEngine.from_edges(_hash_graph_edges(sf_dir),
                                 num_partitions=4)
    try:
        ids, scores, _ = eng.pagerank(
            personalization=(np.array([0, 1, 2]),
                             np.array([0.5, 0.3, 0.2])))
    finally:
        eng.shutdown()
    return pa.table({"vertex": pa.array(ids), "score": pa.array(scores)})


def centrality_documents_graph(sf_dir: str):
    """Distributed O17: max-incident-weight ranking over the documents
    transcript graph (deterministic engine tie-break)."""
    from tldr_ray.graph import centrality_ranks
    from tldr_ray.sources import documents_as_transcripts
    from tldr_ray.stages.edges import transcript_graph

    edges = transcript_graph(documents_as_transcripts(sf_dir),
                             presplit_words=12).select_columns(
        ["src", "dst", "weight"])
    return centrality_ranks(edges)


def triangle_counts_documents(sf_dir: str):
    from tldr_ray.graph import triangle_counts
    from tldr_ray.sources import documents_as_transcripts
    from tldr_ray.stages.edges import transcript_graph

    edges = transcript_graph(documents_as_transcripts(sf_dir),
                             presplit_words=12).select_columns(
        ["src", "dst", "weight"])
    _, per_vertex = triangle_counts(edges)
    return per_vertex


def minhash_dedup_docs(sf_dir: str):
    from tldr_ray.stages.dedup import minhash_lsh_pairs

    return minhash_lsh_pairs(_read(sf_dir, "documents", ["doc_id", "text"]),
                             threshold=0.5)


def simhash_dedup_docs(sf_dir: str):
    """max_hamming=3 -> 4 LSH tables; the band plan is derived from the
    distance so the advertised recall contract actually holds (round-1's
    fixed 4x16 scheme silently missed pairs at distance 4-8).

    SQL oracle (round 3): the pigeonhole band plan makes the LSH output
    EXACTLY "all pairs with hamming <= max_hamming" (recall is total for
    the advertised distance; ``max_bucket`` >= corpus size so nothing
    truncates at oracle scale), and the signature bits are portable
    FNV-1a token hashes — so DuckDB can mirror the whole operator:
    recursive-CTE FNV per token, strict-majority bit vote, all-pairs
    ``bit_count(xor(...))``."""
    from tldr_ray.stages.dedup import simhash_pairs

    return simhash_pairs(_read(sf_dir, "documents", ["doc_id", "text"]),
                         max_hamming=3)


def ngram_jaccard_docs(sf_dir: str):
    from tldr_ray.stages.dedup import ngram_jaccard_pairs

    return ngram_jaccard_pairs(_read(sf_dir, "documents", ["doc_id", "text"]),
                               threshold=0.6)


def kmeans_embeddings(sf_dir: str):
    """Distributed spherical k-means over the embeddings table
    (stages.ann.kmeans — broadcast centroids, O(k*dim) partials per
    block, driver reduce). Rows-only by nature (distributed float
    means are ulp-sensitive to block order); pytest pins same-layout
    determinism and clustering quality."""
    from tldr_ray.stages.ann import kmeans

    _, assign = kmeans(_read(sf_dir, "embeddings",
                             ["vec_id", "embedding"]),
                       k=8, iters=4)
    return assign


def linear_probe_embeddings(sf_dir: str):
    """Exact closed-form linear probe: fit label ~ embedding over the
    embeddings table via one-pass distributed normal equations
    (stages.ann.linear_fit — O(d^2) partials per block). Rows-only
    (block-order float ulps); pytest pins planted-weight recovery +
    canonical-reduce determinism. Output: (dim, weight) rows, dim=-1
    = bias."""
    from tldr_ray.stages.ann import linear_fit

    def lbl(batch: pa.Table) -> pa.Table:
        return pa.table({
            "embedding": batch["embedding"],
            "y": batch["label"].cast(pa.float64())})

    ds = _read(sf_dir, "embeddings", ["embedding", "label"]) \
        .map_batches(lbl, batch_format="pyarrow")
    w, b, n = linear_fit(ds, "embedding", "y")
    return pa.table({
        "dim": pa.array(np.concatenate([np.arange(w.size),
                                        [-1]]).astype(np.int64)),
        "weight": pa.array(np.concatenate([w, [b]]))})


def embedding_dup_pairs(sf_dir: str):
    from tldr_ray.stages.dedup import embedding_cosine_pairs

    return embedding_cosine_pairs(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]), threshold=0.98)


def knn_lsh_top10(sf_dir: str):
    from tldr_ray.stages.ann import knn_lsh

    qids = np.arange(4, dtype=np.int64)
    qmat = _fetch_query_vecs(sf_dir, qids.tolist())
    return knn_lsh(_read(sf_dir, "embeddings", ["vec_id", "embedding"]),
                   qmat, qids, k=10, probe_hamming=2)


def language_id_docs(sf_dir: str):
    from tldr_ray.stages.text_analysis import language_id

    out = language_id(_read(sf_dir, "documents", ["doc_id", "text"]),
                      concurrency=2)
    return out.select_columns(["doc_id", "lang_pred", "lang_score"])


def quality_scores_docs(sf_dir: str):
    from tldr_ray.stages.text_analysis import quality_scores

    out = quality_scores(_read(sf_dir, "documents", ["doc_id", "text"]),
                         concurrency=2)
    return out.select_columns(
        ["doc_id", "n_tokens", "stopword_ratio", "unique_token_ratio",
         "punct_ratio", "digit_ratio", "quality_score"])


def curate_documents_pipeline(sf_dir: str):
    """End-to-end curation: quality gate -> exact dedup -> near dedup ->
    hash sample (pipelines.curation). Returns the curated id set."""
    from tldr_ray.pipelines.curation import curate_documents

    curated, _ = curate_documents(
        _read(sf_dir, "documents", ["doc_id", "text"]),
        min_quality=0.2, near_dup_threshold=0.8)
    return curated.select_columns(["doc_id"])


def media_features_demo(sf_dir: str):
    """Multimodal pipeline demo (synthetic payloads; sf_dir unused by
    design): image (PPM) and audio (WAV) rows go through the REAL
    builtin decoder (numpy/stdlib — FFT band energies, channel stats,
    NN-resized thumbnail); video rows use the documented stub hook
    (mp4 codecs absent in this container)."""
    import ray.data as rd

    from tldr_ray.stages.multimodal import (extract_media_features,
                                            synth_media_table)

    media = rd.from_arrow(synth_media_table(120))

    def keep(want_video: bool):
        def fn(batch: pa.Table) -> pa.Table:
            is_vid = pc.equal(batch["kind"], "video")
            return batch.filter(is_vid if want_video
                                else pc.invert(is_vid))
        return fn

    decodable = media.map_batches(keep(False), batch_format="pyarrow")
    video = media.map_batches(keep(True), batch_format="pyarrow")
    real = extract_media_features(decodable, dim=16, decoder="builtin")
    stub = extract_media_features(video, dim=16, decoder="fake")
    return real.union(stub)


def knn_ivf_top10(sf_dir: str):
    """IVF-pruned approximate top-10 (coarse k-means quantizer trained
    on a bounded hash-sample; each query scores ~nprobe/nlist of the
    corpus). Rows-only by nature (iterative training); recall vs brute
    force is pinned in pytest."""
    from tldr_ray.stages.ann import knn_ivf

    qids = np.arange(4, dtype=np.int64)
    qmat = _fetch_query_vecs(sf_dir, qids.tolist())
    return knn_ivf(_read(sf_dir, "embeddings", ["vec_id", "embedding"]),
                   qmat, qids, k=10, nlist=16, nprobe=4)


def events_last_order_asof(sf_dir: str):
    """Backward as-of join: each event matched to the user's LATEST order
    placed at or before the event time (ties on order date broken by max
    o_orderkey — deterministic under any partitioning). Distributed as a
    bucketed hash shuffle on the key + one vectorized rank-composite
    searchsorted per bucket (stages.joins.asof_join)."""
    from tldr_ray.stages.joins import asof_join

    events = _read(sf_dir, "events", ["event_id", "ts", "user_id"])
    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderdate", "o_orderkey",
                    "o_totalprice"]) \
        .map_batches(lambda t: t.rename_columns(
            ["user_id", "o_orderdate", "o_orderkey", "o_totalprice"]),
            batch_format="pyarrow")
    out = asof_join(events, orders, on="user_id", left_ts="ts",
                    right_ts="o_orderdate", tiebreak="o_orderkey")

    def recast(batch: pa.Table) -> pa.Table:
        # pandas map_groups widens timestamps to ns; restore us for
        # driver dtype parity with the DuckDB oracle
        for c in ("ts", "o_orderdate"):
            i = batch.schema.get_field_index(c)
            batch = batch.set_column(
                i, c, batch[c].cast(pa.timestamp("us")))
        return batch

    return out.map_batches(recast, batch_format="pyarrow")


QUERIES = {
    # SQL-checked
    "doc_token_counts": doc_token_counts,
    "doc_token_counts_bpe": doc_token_counts_bpe,
    "doc_fingerprints_md5": doc_fingerprints_md5,
    "word_frequency_top100": word_frequency_top100,
    "exact_dedup_docs": exact_dedup_docs,
    "exact_dedup_clusters": exact_dedup_clusters,
    "docs_by_lang": docs_by_lang,
    "events_by_type": events_by_type,
    "events_hourly": events_hourly,
    "events_sessionize": events_sessionize,
    "events_sliding_30m": events_sliding_30m,
    "events_cooccurrence_pairs": events_cooccurrence_pairs,
    "top_users_by_value": top_users_by_value,
    "tpch_q1": tpch_q1,
    "tpch_q3": tpch_q3,
    "tpch_q6": tpch_q6,
    "revenue_by_nation": revenue_by_nation,
    "embedding_top10_cosine": embedding_top10_cosine,
    "knn_multi_query": knn_multi_query,
    "sample_docs_25pct": sample_docs_25pct,
    "top_docs_per_lang": top_docs_per_lang,
    "events_last_order_asof": events_last_order_asof,
    # rows-only (iterative / model-like; parity enforced by pytest oracles)
    "summarize_documents_k3": summarize_documents_k3,
    "summarize_centrality_k3": summarize_centrality_k3,
    "summarize_transcripts_k3": summarize_transcripts_k3,
    "pagerank_documents_graph": pagerank_documents_graph,
    "connected_components_documents": connected_components_documents,
    "label_propagation_documents": label_propagation_documents,
    "triangle_counts_documents": triangle_counts_documents,
    "centrality_documents_graph": centrality_documents_graph,
    "triangle_counts_hashgraph": triangle_counts_hashgraph,
    "connected_components_hashgraph": connected_components_hashgraph,
    "centrality_hashgraph": centrality_hashgraph,
    "personalized_pagerank_hashgraph": personalized_pagerank_hashgraph,
    "degree_distribution_hashgraph": degree_distribution_hashgraph,
    "kcore_hashgraph": kcore_hashgraph,
    "minhash_signatures_docs": minhash_signatures_docs,
    "minhash_dedup_docs": minhash_dedup_docs,
    "simhash_dedup_docs": simhash_dedup_docs,
    "ngram_jaccard_docs": ngram_jaccard_docs,
    "embedding_dup_pairs": embedding_dup_pairs,
    "kmeans_embeddings": kmeans_embeddings,
    "linear_probe_embeddings": linear_probe_embeddings,
    "knn_lsh_top10": knn_lsh_top10,
    "knn_ivf_top10": knn_ivf_top10,
    "language_id_docs": language_id_docs,
    "quality_scores_docs": quality_scores_docs,
    "media_features_demo": media_features_demo,
    "curate_documents_pipeline": curate_documents_pipeline,
}

ORACLE_SQL = {
    "doc_token_counts": """
        SELECT doc_id,
               len(regexp_split_to_array(trim(text), '\\s+')) AS n_tokens
        FROM documents
    """,
    "word_frequency_top100": """
        SELECT word, count(*) AS n
        FROM (SELECT unnest(regexp_split_to_array(trim(lower(text)), '\\s+')) AS word
              FROM documents)
        GROUP BY word
        ORDER BY n DESC, word
        LIMIT 100
    """,
    "exact_dedup_docs": """
        SELECT min(doc_id) AS doc_id, count(*) AS n_dupes
        FROM documents
        GROUP BY text
    """,
    "docs_by_lang": """
        SELECT lang, count(*) AS n_docs,
               CAST(sum(n_chars) AS BIGINT) AS total_chars
        FROM documents
        GROUP BY lang
    """,
    "events_by_type": """
        SELECT event_type, count(*) AS n_events,
               CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT) AS total_value_cents
        FROM events
        GROUP BY event_type
    """,
    "events_cooccurrence_pairs": """
        WITH ut AS (SELECT DISTINCT user_id, event_type FROM events)
        SELECT a.event_type AS type_a, b.event_type AS type_b,
               count(*) AS n_users
        FROM ut a JOIN ut b
          ON a.user_id = b.user_id AND a.event_type < b.event_type
        GROUP BY 1, 2
    """,
    "tpch_q3": """
        SELECT l.l_orderkey,
               CAST(epoch_us(o.o_orderdate) AS BIGINT) AS orderdate_us,
               CAST(sum(CAST(floor(l.l_extendedprice
                                   * (1.0 - l.l_discount) * 100.0
                                   + 0.5) AS BIGINT))
                    AS BIGINT) AS revenue_cents
        FROM lineitem l
        JOIN orders o ON o.o_orderkey = l.l_orderkey
        JOIN customer c ON c.c_custkey = o.o_custkey
        WHERE c.c_mktsegment = 'BUILDING'
          AND o.o_orderdate < DATE '1998-01-01'
          AND l.l_shipdate > DATE '1998-01-01'
        GROUP BY l.l_orderkey, o.o_orderdate
        ORDER BY revenue_cents DESC, orderdate_us ASC, l_orderkey ASC
        LIMIT 10
    """,
    "tpch_q6": """
        SELECT CAST(sum(CAST(floor(l_extendedprice * 100.0 + 0.5)
                             AS BIGINT)
                        * CAST(floor(l_discount * 100.0 + 0.5)
                               AS BIGINT)) AS BIGINT) AS revenue_e4,
               CAST(count(*) AS BIGINT) AS n_rows
        FROM lineitem
        WHERE l_shipdate >= DATE '1996-01-01'
          AND l_shipdate < DATE '1997-01-01'
          AND CAST(floor(l_discount * 100.0 + 0.5) AS BIGINT)
              BETWEEN 5 AND 7
          AND l_quantity < 24
    """,
    "tpch_q1": """
        SELECT l_returnflag, l_linestatus,
               CAST(sum(CAST(floor(l_quantity * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_qty_cents,
               CAST(sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_price_cents,
               CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_revenue_cents,
               count(*) AS n_rows
        FROM lineitem
        GROUP BY l_returnflag, l_linestatus
    """,
    "revenue_by_nation": """
        SELECT n.n_name AS n_name,
               CAST(sum(CAST(floor(l.l_extendedprice * (1 - l.l_discount) * 100 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents
        FROM lineitem l
        JOIN orders o ON l.l_orderkey = o.o_orderkey
        JOIN customer c ON o.o_custkey = c.c_custkey
        JOIN nation n ON c.c_nationkey = n.n_nationkey
        GROUP BY n.n_name
    """,
    "embedding_top10_cosine": """
        WITH q AS (SELECT embedding FROM embeddings WHERE vec_id = 0)
        SELECT e.vec_id AS vec_id
        FROM embeddings e, q
        WHERE e.vec_id != 0
        ORDER BY list_cosine_similarity(e.embedding, q.embedding) DESC, e.vec_id
        LIMIT 10
    """,
    "doc_token_counts_bpe": """
        SELECT doc_id,
               len(regexp_split_to_array(trim(text), '\\s+')) AS n_ws_tokens,
               len(regexp_extract_all(text, '\\w+|[^\\w\\s]')) AS n_bpe_pieces
        FROM documents
    """,
    "doc_fingerprints_md5": """
        SELECT doc_id, md5(text) AS md5 FROM documents
    """,
    "exact_dedup_clusters": """
        SELECT doc_id,
               min(doc_id) OVER w AS keep_id,
               count(*) OVER w AS n_dupes
        FROM documents
        WINDOW w AS (PARTITION BY text)
    """,
    "events_hourly": """
        SELECT date_trunc('hour', ts) AS hour,
               count(*) AS n_events,
               CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT) AS total_value_cents
        FROM events
        GROUP BY 1
    """,
    "events_sessionize": """
        WITH gaps AS (
            SELECT user_id, ts,
                   CASE WHEN lag(ts) OVER w IS NULL
                             OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                        THEN 1 ELSE 0 END AS new_session
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts)
        ), sessions AS (
            SELECT user_id, ts,
                   CAST(sum(new_session) OVER (PARTITION BY user_id ORDER BY ts
                                               ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id
            FROM gaps
        )
        SELECT user_id, session_id, count(*) AS n_events,
               min(ts) AS session_start, max(ts) AS session_end
        FROM sessions
        GROUP BY 1, 2
    """,
    "events_sliding_30m": """
        SELECT CAST(to_timestamp(k * 900) AS TIMESTAMP) AS window_start,
               count(*) AS n_events
        FROM (
            SELECT CAST(floor(epoch(ts) / 900) AS BIGINT) AS k FROM events
            UNION ALL
            SELECT CAST(floor(epoch(ts) / 900) AS BIGINT) - 1 FROM events
        )
        GROUP BY 1
    """,
    "top_users_by_value": """
        SELECT user_id,
               CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT) AS total_cents
        FROM events
        GROUP BY user_id
        ORDER BY total_cents DESC, user_id
        LIMIT 10
    """,
    "sample_docs_25pct": """
        SELECT doc_id FROM documents
        WHERE substr(md5(text), 1, 1) IN ('0', '1', '2', '3')
    """,
    "top_docs_per_lang": """
        SELECT lang, doc_id, n_chars
        FROM (SELECT lang, doc_id, n_chars,
                     row_number() OVER (PARTITION BY lang
                                        ORDER BY n_chars DESC, doc_id) AS rn
              FROM documents)
        WHERE rn <= 2
    """,
    "knn_multi_query": """
        WITH q AS (SELECT vec_id AS query_id, embedding AS qe
                   FROM embeddings WHERE vec_id IN (0, 1, 2)),
        scored AS (
            SELECT q.query_id, e.vec_id,
                   row_number() OVER (
                       PARTITION BY q.query_id
                       ORDER BY list_cosine_similarity(e.embedding, q.qe) DESC,
                                e.vec_id) AS rn
            FROM embeddings e CROSS JOIN q
        )
        SELECT query_id, vec_id FROM scored WHERE rn <= 10
    """,
}

# shared SQL prelude mirroring queries._hash_graph_edges exactly
_HASHGRAPH_RAW = """
        nn AS (SELECT CAST(max(doc_id) + 1 AS BIGINT) AS n FROM documents),
        raw AS (
            SELECT doc_id AS s, (doc_id + 1) % (SELECT n FROM nn) AS t
            FROM documents
            UNION ALL
            SELECT doc_id, (doc_id + 2) % (SELECT n FROM nn)
            FROM documents
            UNION ALL
            SELECT doc_id, (doc_id * 7 + 3) % (SELECT n FROM nn)
            FROM documents
        ),
        raw2 AS (SELECT s, t FROM raw WHERE s != t)
"""

ORACLE_SQL["triangle_counts_hashgraph"] = f"""
    WITH {_HASHGRAPH_RAW},
    und AS (SELECT DISTINCT least(s, t) AS a, greatest(s, t) AS b
            FROM raw2),
    tri AS (
        SELECT e1.a AS x, e1.b AS y, e2.b AS z
        FROM und e1
        JOIN und e2 ON e2.a = e1.b
        JOIN und e3 ON e3.a = e1.a AND e3.b = e2.b
    ),
    verts AS (
        SELECT x AS vertex FROM tri
        UNION ALL SELECT y FROM tri
        UNION ALL SELECT z FROM tri
    )
    SELECT vertex, CAST(count(*) AS BIGINT) AS triangles
    FROM verts GROUP BY vertex
"""

ORACLE_SQL["connected_components_hashgraph"] = f"""
    WITH RECURSIVE {_HASHGRAPH_RAW},
    sym AS (SELECT s, t FROM raw2 UNION SELECT t, s FROM raw2),
    verts AS (SELECT DISTINCT s AS v FROM sym),
    reach(v, l) AS (
        SELECT v, v FROM verts
        UNION
        SELECT sym.t, reach.l FROM reach JOIN sym ON sym.s = reach.v
    )
    SELECT v AS vertex, CAST(min(l) AS BIGINT) AS component
    FROM reach GROUP BY v
"""

ORACLE_SQL["degree_distribution_hashgraph"] = f"""
    WITH {_HASHGRAPH_RAW},
    und AS (SELECT DISTINCT least(s, t) AS a, greatest(s, t) AS b
            FROM raw2),
    verts AS (SELECT a AS v FROM und UNION ALL SELECT b FROM und),
    deg AS (SELECT v, count(*) AS degree FROM verts GROUP BY v)
    SELECT CAST(degree AS BIGINT) AS degree,
           CAST(count(*) AS BIGINT) AS n_vertices
    FROM deg GROUP BY degree
"""

def label_propagation_hashgraph(sf_dir: str):
    """Synchronous weighted LPA over the symmetrized hash graph
    (graph.label_propagation, smallest-label ties, 10 rounds). The
    vote weights are exact 1.0 sums (= counts), every update is an
    argmax with a total-order tiebreak, and symmetrize keeps edge
    multiplicity — so the whole trajectory is deterministic and the
    SQL mirror unrolls exactly the same 10 rounds (early convergence
    is a fixpoint, so extra unrolled rounds are no-ops)."""
    from tldr_ray.graph import label_propagation

    ids, labels, _ = label_propagation(_hash_graph_edges(sf_dir),
                                       num_partitions=4, max_rounds=10)
    return pa.table({"vertex": pa.array(ids),
                     "label": pa.array(labels)})


def _lpa_oracle_sql(rounds: int = 10) -> str:
    body = [f"WITH {_HASHGRAPH_RAW},",
            "sym AS MATERIALIZED (SELECT s, t FROM raw2 "
            "UNION ALL SELECT t, s FROM raw2),",
            "verts AS MATERIALIZED (SELECT DISTINCT s AS v FROM sym),",
            "l0 AS MATERIALIZED (SELECT v, v AS label FROM verts),"]
    for i in range(1, rounds + 1):
        body.append(f"""v{i} AS MATERIALIZED (
        SELECT e.t AS v, l.label, count(*) AS w
        FROM sym e JOIN l{i - 1} l ON l.v = e.s
        GROUP BY e.t, l.label),
    l{i} AS MATERIALIZED (
        SELECT v, label FROM (
            SELECT v, label, row_number() OVER (
                PARTITION BY v ORDER BY w DESC, label ASC) AS rn
            FROM v{i}) WHERE rn = 1),""")
    body.append(f"SELECT l.v AS vertex, CAST(l.label AS BIGINT) AS label "
                f"FROM l{rounds} l")
    sql = "\n    ".join(body)
    # drop the trailing comma before the final SELECT
    last_comma = sql.rfind("),")
    return sql[:last_comma + 1] + sql[last_comma + 2:]


QUERIES["label_propagation_hashgraph"] = label_propagation_hashgraph
ORACLE_SQL["label_propagation_hashgraph"] = _lpa_oracle_sql()


ORACLE_SQL["centrality_hashgraph"] = f"""
    WITH {_HASHGRAPH_RAW},
    sym AS (SELECT s, t FROM raw2 UNION ALL SELECT t, s FROM raw2),
    w AS (SELECT s AS vertex,
                 ((s * 31 + t * 17) % 97 + 1) / 100.0 AS weight
          FROM sym)
    SELECT vertex, max(weight) AS max_weight
    FROM w WHERE weight > 0.001 GROUP BY vertex
"""


def _language_id_oracle_sql() -> str:
    """Mirror stages.text_analysis.LanguageId in SQL: unicode-letter
    tokenization, stopword-overlap score per profile, strict-max argmax
    with alphabetical tie-break, 'und' when nothing scores."""
    from tldr_ray.stages.text_analysis import _LANG_STOPWORDS

    rows = ", ".join(
        f"('{lang}', '{w}')"
        for lang in sorted(_LANG_STOPWORDS)
        for w in sorted(_LANG_STOPWORDS[lang]))
    return f"""
    WITH prof(lang, w) AS (VALUES {rows}),
    words AS (
        SELECT doc_id, w FROM (
            SELECT doc_id,
                   unnest(regexp_split_to_array(lower(text),
                                                '[^\\p{{L}}]+')) AS w
            FROM documents)
        WHERE w != ''
    ),
    counts AS (SELECT doc_id, count(*) AS n FROM words GROUP BY doc_id),
    hits AS (
        SELECT words.doc_id, prof.lang, count(*) AS h
        FROM words JOIN prof ON words.w = prof.w
        GROUP BY 1, 2
    ),
    scored AS (
        SELECT c.doc_id, h.lang, h.h * 1.0 / c.n AS score
        FROM counts c JOIN hits h ON h.doc_id = c.doc_id
    ),
    best AS (
        SELECT doc_id, lang, score,
               row_number() OVER (PARTITION BY doc_id
                                  ORDER BY score DESC, lang) AS rn
        FROM scored
    )
    SELECT d.doc_id,
           coalesce(CASE WHEN b.score > 0 THEN b.lang END, 'und')
               AS lang_pred,
           coalesce(b.score, 0.0) AS lang_score
    FROM documents d
    LEFT JOIN best b ON b.doc_id = d.doc_id AND b.rn = 1
"""


ORACLE_SQL["language_id_docs"] = _language_id_oracle_sql()


def _quality_scores_oracle_sql(src: str = "documents") -> str:
    """Mirror stages.text_analysis.QualityScore op-for-op (same IEEE
    operation order, so doubles hash-match exactly). ``src`` lets the
    pipeline mirrors score a derived CTE (e.g. normalized text)."""
    from tldr_ray.stages.text_analysis import _LANG_STOPWORDS

    stops = ", ".join(f"'{w}'" for w in sorted(_LANG_STOPWORDS["en"]))
    return f"""
    WITH toks AS (
        SELECT doc_id, w FROM (
            SELECT doc_id,
                   unnest(regexp_split_to_array(lower(text), '\\s+')) AS w
            FROM {src})
        WHERE w != ''
    ),
    agg AS (
        SELECT doc_id, count(*) AS n_tok,
               sum(length(w)) * 1.0 / count(*) AS mean_tok,
               sum(CASE WHEN w IN ({stops}) THEN 1 ELSE 0 END) * 1.0
                   / count(*) AS stop_ratio,
               count(DISTINCT w) * 1.0 / count(*) AS uniq_ratio
        FROM toks GROUP BY doc_id
    ),
    base AS (
        SELECT d.doc_id,
               coalesce(a.n_tok, 0) AS n_tokens,
               coalesce(a.mean_tok, 0.0) AS mean_tok,
               coalesce(a.stop_ratio, 0.0) AS stopword_ratio,
               coalesce(a.uniq_ratio, 0.0) AS unique_token_ratio,
               len(regexp_extract_all(d.text, '[^\\p{{L}}\\p{{N}}_\\s]'))
                   * 1.0 / greatest(length(d.text), 1) AS punct_ratio,
               len(regexp_extract_all(d.text, '\\p{{Nd}}')) * 1.0
                   / greatest(length(d.text), 1) AS digit_ratio
        FROM {src} d LEFT JOIN agg a USING (doc_id)
    )
    SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens,
           stopword_ratio, unique_token_ratio, punct_ratio, digit_ratio,
           greatest(least(1 - abs(mean_tok - 5.5) / 5.5, 1), 0) * 0.25
           + greatest(least(stopword_ratio * 4, 1), 0) * 0.25
           + greatest(least(unique_token_ratio, 1), 0) * 0.30
           + greatest(least(1 - punct_ratio * 5, 1), 0) * 0.10
           + greatest(least(1 - digit_ratio * 5, 1), 0) * 0.10
               AS quality_score
    FROM base
"""


ORACLE_SQL["quality_scores_docs"] = _quality_scores_oracle_sql()


def _kcore_oracle_sql(rounds: int = 12) -> str:
    """Mirror graph.k_core over the hash graph: the H-index fixpoint
    (Lu et al.) unrolled as ``rounds`` chained CTEs — st0 = undirected
    degree, each round val := min(val, max_i min(i-th largest neighbor
    val, i)). The engine converges in 6 rounds at sf0.01; extra rounds
    are no-ops at the fixpoint, so the unroll depth only needs to be
    >= convergence."""
    # AS MATERIALIZED: without it DuckDB inlines each chained CTE into
    # its consumers, re-expanding the whole tree (and re-opening the
    # parquet source) exponentially across rounds
    ctes = [f"""
    und AS MATERIALIZED (SELECT DISTINCT least(s, t) AS a,
                                greatest(s, t) AS b
            FROM raw2),
    sym AS MATERIALIZED (SELECT a AS u, b AS v FROM und
            UNION ALL SELECT b AS u, a AS v FROM und),
    st0 AS MATERIALIZED (SELECT u, CAST(count(*) AS BIGINT) AS val
                         FROM sym GROUP BY u)"""]
    prev = "st0"
    for r in range(1, rounds + 1):
        cur = f"st{r}"
        ctes.append(f"""
    {cur} AS MATERIALIZED (
        SELECT d.u, least(d.val, coalesce(h.h, d.val)) AS val
        FROM {prev} d LEFT JOIN (
            SELECT nb.u, max(least(nb.nv, nb.rn)) AS h FROM (
                SELECT sym.u AS u, cur.val AS nv,
                       row_number() OVER (PARTITION BY sym.u
                                          ORDER BY cur.val DESC) AS rn
                FROM sym JOIN {prev} cur ON cur.u = sym.v) nb
            GROUP BY nb.u) h ON h.u = d.u
    )""")
        prev = cur
    return f"""
    WITH {_HASHGRAPH_RAW},{",".join(ctes)}
    SELECT u AS vertex, CAST(val AS BIGINT) AS core FROM {prev}
"""


ORACLE_SQL["kcore_hashgraph"] = _kcore_oracle_sql()


def _minhash_signatures_oracle_sql() -> str:
    """Mirror queries.minhash_signatures_docs bit-for-bit in DuckDB:
    FNV-1a over every 5-char window (chained CTEs, one per window byte;
    mod-2^64 arithmetic in HUGEINT, the xor folded into the low byte),
    then per-permutation minima of (a*x + b) mod 2^64 with the exact
    (a, b) constants inlined from the seeded kernel rng. Valid because
    the documents fixture is ASCII (ord(char) == utf-8 byte)."""
    from tldr_ray.stages.dedup import _minhash_params

    a, b = _minhash_params(_MINHASH_SIG_PERMS)
    M64 = 1 << 64
    steps = []
    prev = "s0"
    for j in range(5):
        cur = f"s{j + 1}"
        steps.append(f""",
    {cur} AS (
        SELECT doc_id, text, i,
               ((h - h % 256 + xor(CAST(h % 256 AS BIGINT),
                                   ord(substr(text, i + {j}, 1))))
                * 1099511628211) % {M64} AS h
        FROM {prev}
    )""")
        prev = cur
    mins = ",\n           ".join(
        f"min((CAST({int(a[p])} AS HUGEINT) * x + {int(b[p])}) % {M64}) "
        f"AS m{p}" for p in range(_MINHASH_SIG_PERMS))
    outs = ",\n       ".join(
        f"CAST(CASE WHEN m{p} >= {1 << 63} THEN m{p} - {M64} "
        f"ELSE m{p} END AS BIGINT) AS sig_{p}"
        for p in range(_MINHASH_SIG_PERMS))
    return f"""
    WITH s0 AS (
        SELECT doc_id, text, unnest(range(1, length(text) - 3)) AS i,
               CAST(14695981039346656037 AS HUGEINT) AS h
        FROM documents WHERE length(text) >= 5
    ){"".join(steps)},
    xx AS (SELECT doc_id, h % 2305843009213693951 AS x FROM {prev}),
    m AS (SELECT doc_id,
           {mins}
          FROM xx GROUP BY doc_id)
    SELECT doc_id,
       {outs}
    FROM m
"""


ORACLE_SQL["minhash_signatures_docs"] = _minhash_signatures_oracle_sql()


def _simhash_dedup_oracle_sql(max_hamming: int = 3) -> str:
    """Mirror stages.dedup.simhash_pairs bit-for-bit: lowercase
    whitespace tokens (every occurrence, not distinct), FNV-1a per token
    via a recursive CTE over character positions (HUGEINT mod-2^64, xor
    folded into the low byte; valid on the ASCII fixture), strict-
    majority vote per signature bit, then ALL pairs with
    bit_count(xor(sig_a, sig_b)) <= max_hamming — exact because the
    derived band plan guarantees total recall at that distance and
    max_bucket (500) cannot truncate a <=500-doc corpus."""
    M64 = 1 << 64
    return f"""
    WITH RECURSIVE toks AS MATERIALIZED (
        SELECT doc_id, tok FROM (
            SELECT doc_id,
                   unnest(regexp_split_to_array(lower(text), '\\s+')) AS tok
            FROM documents)
        WHERE tok != ''
    ),
    fnv(doc_id, tok, i, h) AS (
        SELECT doc_id, tok, 0,
               CAST(14695981039346656037 AS HUGEINT)
        FROM toks
        UNION ALL
        SELECT doc_id, tok, i + 1,
               ((h - h % 256 + xor(CAST(h % 256 AS BIGINT),
                                   ord(substr(tok, i + 1, 1))))
                * 1099511628211) % {M64}
        FROM fnv WHERE i < length(tok)
    ),
    th AS MATERIALIZED (
        SELECT doc_id, h FROM fnv WHERE i = length(tok)
    ),
    bits AS (
        SELECT doc_id, b,
               CAST((h // (CAST(1 AS HUGEINT) << CAST(b AS INTEGER)))
                    % 2 AS BIGINT) AS bit
        FROM th, (SELECT unnest(range(0, 64)) AS b)
    ),
    maj AS (
        SELECT doc_id, b,
               CASE WHEN 2 * sum(bit) > count(*) THEN 1 ELSE 0 END AS m
        FROM bits GROUP BY doc_id, b
    ),
    sig AS MATERIALIZED (
        SELECT d.doc_id,
               coalesce(s.v, CAST(0 AS HUGEINT)) AS sig
        FROM documents d LEFT JOIN (
            SELECT doc_id,
                   sum(CAST(m AS HUGEINT)
                       * (CAST(1 AS HUGEINT) << CAST(b AS INTEGER))) AS v
            FROM maj GROUP BY doc_id) s ON s.doc_id = d.doc_id
    ),
    sig64 AS MATERIALIZED (
        SELECT doc_id,
               CAST(CASE WHEN sig >= {1 << 63} THEN sig - {M64}
                    ELSE sig END AS BIGINT) AS s
        FROM sig
    )
    SELECT a.doc_id AS id_a, b.doc_id AS id_b,
           CAST(bit_count(xor(a.s, b.s)) AS BIGINT) AS hamming
    FROM sig64 a JOIN sig64 b ON a.doc_id < b.doc_id
    WHERE bit_count(xor(a.s, b.s)) <= {max_hamming}
"""


ORACLE_SQL["simhash_dedup_docs"] = _simhash_dedup_oracle_sql()


def _minhash64_base_cte(src: str = "documents") -> str:
    """Shared DuckDB CTE prefix mirroring the FULL 64-permutation MinHash
    pipeline of ``stages.dedup.minhash_lsh_pairs`` (num_perm=64): chained
    window FNV-1a over every 5-char shingle (HUGEINT mod-2^64, xor folded
    into the low byte; exact on the ASCII fixture), then the 64 per-doc
    minima of (a*x + b) mod 2^64 with x = h mod 2^61-1 and the (a, b)
    constants inlined from the seeded kernel rng. Exposes ``win``
    (doc_id, h) for exact-Jaccard verification and ``m`` (doc_id,
    m0..m63 HUGEINT) for LSH band collisions. Docs shorter than the
    5-byte shingle are zero-padded by the operator; the fixture's min
    length is 48, so the >= 5 guard never diverges at oracle scale."""
    from tldr_ray.stages.dedup import _minhash_params

    a, b = _minhash_params(64)
    M64 = 1 << 64
    steps = []
    prev = "s0"
    for j in range(5):
        cur = f"s{j + 1}"
        steps.append(f""",
    {cur} AS (
        SELECT doc_id, text, i,
               ((h - h % 256 + xor(CAST(h % 256 AS BIGINT),
                                   ord(substr(text, i + {j}, 1))))
                * 1099511628211) % {M64} AS h
        FROM {prev}
    )""")
        prev = cur
    mins = ",\n           ".join(
        f"min((CAST({int(a[p])} AS HUGEINT) * x + {int(b[p])}) % {M64}) "
        f"AS m{p}" for p in range(64))
    return f"""
    WITH s0 AS (
        SELECT doc_id, text, unnest(range(1, length(text) - 3)) AS i,
               CAST(14695981039346656037 AS HUGEINT) AS h
        FROM {src} WHERE length(text) >= 5
    ){"".join(steps)},
    win AS MATERIALIZED (SELECT doc_id, h FROM {prev}),
    xx AS (SELECT doc_id, h % 2305843009213693951 AS x FROM win),
    m AS MATERIALIZED (SELECT doc_id,
           {mins}
          FROM xx GROUP BY doc_id)"""


def _lsh_band_collision() -> str:
    """16 bands x 4 rows: a candidate pair shares at least one band's
    full signature 4-tuple (equality on raw minima mirrors the
    operator's mixed bucket key; a 64-bit mix collision between unequal
    tuples has probability ~2^-51 at fixture scale)."""
    return " OR ".join(
        "(" + " AND ".join(f"a.m{4 * i + r} = b.m{4 * i + r}"
                           for r in range(4)) + ")"
        for i in range(16))


def _sig_match_fraction() -> str:
    return ("CAST(" + " + ".join(
        f"CASE WHEN a.m{p} = b.m{p} THEN 1 ELSE 0 END"
        for p in range(64)) + " AS DOUBLE) / 64")


def _minhash_dedup_oracle_sql(threshold: float = 0.5) -> str:
    """Full mirror of queries.minhash_dedup_docs: LSH band collision
    (any of 16 bands) AND estimated Jaccard (matching-signature
    fraction, exact k/64 doubles) >= threshold. max_bucket (200) cannot
    truncate at <= 500 docs unless 200+ docs share a band tuple, which
    the fixture does not contain (no sentinel rows in the output)."""
    return _minhash64_base_cte() + f""",
    pairs AS (
        SELECT a.doc_id AS id_a, b.doc_id AS id_b,
               {_sig_match_fraction()} AS est_jaccard
        FROM m a JOIN m b ON a.doc_id < b.doc_id
        WHERE {_lsh_band_collision()}
    )
    SELECT id_a, id_b, est_jaccard FROM pairs
    WHERE est_jaccard >= {threshold}
"""


def _ngram_jaccard_oracle_sql(threshold: float = 0.6,
                              est_cut: float = 0.4) -> str:
    """Full mirror of queries.ngram_jaccard_docs: MinHash-LSH blocking at
    the lowered estimate cut (max(0.3, threshold - 0.2)), then EXACT
    n-gram Jaccard over the distinct 5-shingle hash sets of surviving
    pairs — intersection / union as the same exact-int double division
    the kernel performs."""
    return _minhash64_base_cte() + f""",
    cand AS MATERIALIZED (
        SELECT a.doc_id AS id_a, b.doc_id AS id_b
        FROM m a JOIN m b ON a.doc_id < b.doc_id
        WHERE ({_lsh_band_collision()})
          AND {_sig_match_fraction()} >= {est_cut}
    ),
    sh AS MATERIALIZED (SELECT DISTINCT doc_id, h FROM win),
    cnt AS MATERIALIZED (
        SELECT doc_id, count(*) AS c FROM sh GROUP BY doc_id
    ),
    inter AS (
        SELECT c.id_a, c.id_b, count(*) AS i
        FROM cand c
        JOIN sh x ON x.doc_id = c.id_a
        JOIN sh y ON y.doc_id = c.id_b AND y.h = x.h
        GROUP BY c.id_a, c.id_b
    )
    SELECT i.id_a, i.id_b,
           CAST(i.i AS DOUBLE) / (ca.c + cb.c - i.i) AS jaccard
    FROM inter i
    JOIN cnt ca ON ca.doc_id = i.id_a
    JOIN cnt cb ON cb.doc_id = i.id_b
    WHERE CAST(i.i AS DOUBLE) / (ca.c + cb.c - i.i) >= {threshold}
"""


def _ngram_containment_oracle_sql(threshold: float = 0.6,
                                  est_cut: float = 0.4) -> str:
    """Mirror of queries.ngram_containment_docs: same MinHash-LSH
    blocking as the Jaccard verify, but the exact score is the
    asymmetric containment |A∩B| / |A| (A = the pair's id_a side)."""
    return _minhash64_base_cte() + f""",
    cand AS MATERIALIZED (
        SELECT a.doc_id AS id_a, b.doc_id AS id_b
        FROM m a JOIN m b ON a.doc_id < b.doc_id
        WHERE ({_lsh_band_collision()})
          AND {_sig_match_fraction()} >= {est_cut}
    ),
    sh AS MATERIALIZED (SELECT DISTINCT doc_id, h FROM win),
    cnt AS MATERIALIZED (
        SELECT doc_id, count(*) AS c FROM sh GROUP BY doc_id
    ),
    inter AS (
        SELECT c.id_a, c.id_b, count(*) AS i
        FROM cand c
        JOIN sh x ON x.doc_id = c.id_a
        JOIN sh y ON y.doc_id = c.id_b AND y.h = x.h
        GROUP BY c.id_a, c.id_b
    )
    SELECT i.id_a, i.id_b,
           CAST(i.i AS DOUBLE) / CAST(ca.c AS DOUBLE) AS containment
    FROM inter i
    JOIN cnt ca ON ca.doc_id = i.id_a
    WHERE CAST(i.i AS DOUBLE) / CAST(ca.c AS DOUBLE) >= {threshold}
"""


ORACLE_SQL["minhash_dedup_docs"] = _minhash_dedup_oracle_sql()
ORACLE_SQL["ngram_jaccard_docs"] = _ngram_jaccard_oracle_sql()


def ngram_containment_docs(sf_dir: str):
    """Asymmetric n-gram containment |A∩B|/|A| over LSH-blocked pairs
    (the small-doc-inside-big-doc near-dup signal; same distributed
    blocking + semi-joined verify shuffle as ngram_jaccard_docs)."""
    from tldr_ray.stages.dedup import ngram_jaccard_pairs

    return ngram_jaccard_pairs(
        _read(sf_dir, "documents", ["doc_id", "text"]),
        threshold=0.6, metric="containment")


QUERIES["ngram_containment_docs"] = ngram_containment_docs
ORACLE_SQL["ngram_containment_docs"] = _ngram_containment_oracle_sql()


ORACLE_SQL["events_last_order_asof"] = """
    WITH j AS (
        SELECT e.event_id, e.ts, e.user_id,
               o.o_orderdate, o.o_orderkey, o.o_totalprice,
               row_number() OVER (
                   PARTITION BY e.event_id
                   ORDER BY o.o_orderdate DESC, o.o_orderkey DESC) AS rn
        FROM events e
        JOIN orders o
          ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
    )
    SELECT event_id, ts, user_id, o_orderdate, o_orderkey, o_totalprice
    FROM j WHERE rn = 1
"""


def hll_registers_events(sf_dir: str, b: int = 10):
    """HyperLogLog register table over the events.event_id stream — the
    mergeable distinct-count sketch (stages.sketches). Hash-checked:
    FNV-1a over the id's string form, bucket = top b bits, rank =
    lowest-set-bit position of the remaining word, all exactly
    mirrorable in integer SQL."""
    from tldr_ray.stages.sketches import hll_registers

    return hll_registers(_read(sf_dir, "events", ["event_id"]),
                         "event_id", b)


# -- shared SQL mirrors of the numpy hash kernels -----------------------
# (fnv1a_batch + splitmix64 _mix64, used by the HLL and Count-Min
# register oracles; every step stays in HUGEINT mod 2^64)

_SQL_M64 = 1 << 64


def _sql_s2b(e: str) -> str:
    """Reinterpret a [0, 2^64) HUGEINT expression as signed BIGINT
    (two's-complement roundtrip) so DuckDB's xor() applies."""
    return (f"CAST(CASE WHEN {e} >= {1 << 63} THEN {e} - {_SQL_M64} "
            f"ELSE {e} END AS BIGINT)")


def _sql_xor_shift(col: str, sh: int) -> str:
    """x XOR (x >> sh) for a [0, 2^64) HUGEINT column, back to HUGEINT."""
    x = f"xor({_sql_s2b(col)}, {_sql_s2b(f'({col} // {1 << sh})')})"
    return (f"(CASE WHEN {x} < 0 THEN CAST({x} AS HUGEINT) + {_SQL_M64} "
            f"ELSE CAST({x} AS HUGEINT) END)")


def _sql_mul64(col: str, c: int) -> str:
    """(x*c) mod 2^64 with every intermediate < 2^65 (the naive HUGEINT
    product of two ~2^64 operands overflows INT128): x = xh*2^32+xl,
    c = ch*2^32+cl -> low = xl*cl, cross = (xl*ch + xh*cl) mod 2^32."""
    ch, cl = c >> 32, c & 0xFFFFFFFF
    h32 = 1 << 32
    return (f"((({col} % {h32}) * {cl} "
            f"+ ((({col} % {h32}) * {ch} "
            f"+ ({col} // {h32}) * {cl}) % {h32}) * {h32}) % {_SQL_M64})")


def _sql_fnv_cte(source_expr: str) -> str:
    """Recursive-CTE FNV-1a over each string of ``source_expr`` (a
    SELECT yielding column s); terminal hashes land in CTE ``hh(h)``.
    Requires WITH RECURSIVE on the enclosing statement."""
    return f"""ids AS MATERIALIZED ({source_expr}),
    fnv(s, i, h) AS (
        SELECT s, 0, CAST(14695981039346656037 AS HUGEINT) FROM ids
        UNION ALL
        SELECT s, i + 1,
               ((h - h % 256 + xor(CAST(h % 256 AS BIGINT),
                                   ord(substr(s, i + 1, 1))))
                * 1099511628211) % {_SQL_M64}
        FROM fnv WHERE i < length(s)
    ),
    hh AS MATERIALIZED (
        SELECT s, h FROM fnv WHERE i = length(s)
    )"""


def _sql_splitmix_ctes(src: str, carry: str = "", sfx: str = "") -> str:
    """CTE chain applying the splitmix64 finalizer to column h of CTE
    ``src``; result lands in CTE ``m3{sfx}``. ``carry`` = extra columns
    to thread through (e.g. "rw, "); ``sfx`` suffixes every step name
    so one statement can host several chains."""
    steps = [(f"x1{sfx}", src, _sql_xor_shift("h", 30)),
             (f"m1{sfx}", f"x1{sfx}",
              _sql_mul64("h", 0xBF58476D1CE4E5B9)),
             (f"x2{sfx}", f"m1{sfx}", _sql_xor_shift("h", 27)),
             (f"m2{sfx}", f"x2{sfx}",
              _sql_mul64("h", 0x94D049BB133111EB)),
             (f"m3{sfx}", f"m2{sfx}", _sql_xor_shift("h", 31))]
    return ",\n    ".join(
        f"{name} AS MATERIALIZED (SELECT {carry}{expr} AS h FROM {prev})"
        for name, prev, expr in steps)


def _hll_registers_oracle_sql(
        b: int = 10,
        source: str = "SELECT CAST(event_id AS VARCHAR) AS s "
                      "FROM events") -> str:
    """Bit-for-bit DuckDB mirror of queries.hll_registers_events:
    recursive-CTE FNV-1a per decimal id string, splitmix64 finalizer,
    bucket = h // 2^(64-b), remainder word w fits BIGINT (64-b <= 63),
    rank = bit_count((w & -w) - 1) + 1 (lowest-set-bit position), empty
    buckets present with rank 0 via a range() left join. ``source``
    yields the id strings (parameterized so the union-merge query can
    mirror a multi-table id stream)."""
    M64 = _SQL_M64
    wbits = 64 - b

    return f"""
    WITH RECURSIVE {_sql_fnv_cte(source)},
    {_sql_splitmix_ctes("hh")},
    br AS (
        SELECT CAST(h // {1 << wbits} AS BIGINT) AS bucket,
               CAST(h % {1 << wbits} AS BIGINT) AS w
        FROM m3
    ),
    rk AS (
        SELECT bucket,
               CASE WHEN w = 0 THEN {wbits + 1}
                    ELSE bit_count((w & (-w)) - 1) + 1 END AS rank
        FROM br
    ),
    agg AS (SELECT bucket, max(rank) AS r FROM rk GROUP BY bucket)
    SELECT CAST(g.b AS INTEGER) AS bucket,
           CAST(coalesce(a.r, 0) AS BIGINT) AS max_rank
    FROM (SELECT unnest(range(0, {1 << b})) AS b) g
    LEFT JOIN agg a ON a.bucket = g.b
"""


QUERIES["hll_registers_events"] = hll_registers_events
ORACLE_SQL["hll_registers_events"] = _hll_registers_oracle_sql()


def hll_union_users_custkeys(sf_dir: str, b: int = 10):
    """Sketch algebra: distinct |events.user_id ∪ orders.o_custkey|
    WITHOUT co-shuffling any rows — each table builds its own HLL
    register table independently, and the union's registers are the
    elementwise MAX of the two (the HLL merge law). SQL mirror runs
    the same hash pipeline over the UNIONed id strings — bit-equal
    registers prove the merge law end to end."""
    from ray.data.aggregate import Max

    from tldr_ray.stages.sketches import hll_registers

    a = hll_registers(_read(sf_dir, "events", ["user_id"]),
                      "user_id", b)
    bb = hll_registers(_read(sf_dir, "orders", ["o_custkey"])
                       .map_batches(lambda t: pa.table(
                           {"user_id": t["o_custkey"]}),
                           batch_format="pyarrow"),
                       "user_id", b)
    merged = (a.union(bb).groupby("bucket")
              .aggregate(Max("max_rank", alias_name="max_rank")))

    def seal(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["bucket"] = batch["bucket"].astype(np.int32)
        batch["max_rank"] = batch["max_rank"].astype(np.int64)
        return batch

    return merged.map_batches(seal, batch_format="pandas")


QUERIES["hll_union_users_custkeys"] = hll_union_users_custkeys
ORACLE_SQL["hll_union_users_custkeys"] = _hll_registers_oracle_sql(
    source="SELECT CAST(user_id AS VARCHAR) AS s FROM events "
           "UNION SELECT CAST(o_custkey AS VARCHAR) FROM orders")


def hll_by_type_events(sf_dir: str, b: int = 6):
    """Per-event_type HLL registers over user_id — grouped
    distinct-count sketch (stages.sketches.grouped_hll_registers),
    bit-exact SQL mirror via the shared FNV/splitmix CTEs."""
    from tldr_ray.stages.sketches import grouped_hll_registers

    return grouped_hll_registers(
        _read(sf_dir, "events", ["event_type", "user_id"]),
        "event_type", "user_id", b)


def _grouped_hll_oracle_sql(b: int = 6) -> str:
    wbits = 64 - b
    return f"""
    WITH RECURSIVE {_sql_fnv_cte(
        "SELECT DISTINCT CAST(user_id AS VARCHAR) AS s FROM events")},
    {_sql_splitmix_ctes("hh", carry="s, ")},
    pairs AS (
        SELECT DISTINCT event_type, CAST(user_id AS VARCHAR) AS s
        FROM events
    ),
    br AS (
        SELECT p.event_type,
               CAST(m3.h // {1 << wbits} AS BIGINT) AS bucket,
               CAST(m3.h % {1 << wbits} AS BIGINT) AS w
        FROM pairs p JOIN m3 ON m3.s = p.s
    ),
    rk AS (
        SELECT event_type, bucket,
               CASE WHEN w = 0 THEN {wbits + 1}
                    ELSE bit_count((w & (-w)) - 1) + 1 END AS rank
        FROM br
    ),
    agg AS (SELECT event_type, bucket, max(rank) AS r
            FROM rk GROUP BY event_type, bucket)
    SELECT g.event_type, CAST(g.b AS INTEGER) AS bucket,
           CAST(coalesce(a.r, 0) AS BIGINT) AS max_rank
    FROM (SELECT t.event_type, b.b
          FROM (SELECT DISTINCT event_type FROM events) t,
               (SELECT unnest(range(0, {1 << b})) AS b) b) g
    LEFT JOIN agg a ON a.event_type = g.event_type AND a.bucket = g.b
"""


QUERIES["hll_by_type_events"] = hll_by_type_events
ORACLE_SQL["hll_by_type_events"] = _grouped_hll_oracle_sql()


def bfs_hops_hashgraph(sf_dir: str):
    """Hop distance from vertex 0 over the symmetrized hash graph via
    the BSP min-plus frontier fixpoint (graph.bfs_hops — the CC message
    plumbing with dist+1 instead of label); unreached vertices -> -1.
    SQL oracle: recursive frontier CTE with UNION dedup capped at 64
    rounds — safe because the graph's long-range edge (7i+3 mod N)
    keeps the diameter ~log N (measured: 6 at sf0.01, 9 at sf0.1)."""
    from tldr_ray.graph import bfs_hops

    ids, dist, _ = bfs_hops(_hash_graph_edges(sf_dir), seeds=[0],
                            num_partitions=4)
    dist = np.where(dist == np.iinfo(np.int64).max, -1, dist)
    return pa.table({"vertex": pa.array(ids),
                     "hops": pa.array(dist.astype(np.int64))})


def countmin_registers_events(sf_dir: str, d: int = 4, w: int = 256):
    """Count-Min counter table over the events.user_id stream — the
    mergeable frequency sketch (stages.sketches): row i buckets a value
    by splitmix64(fnv1a(str(v)) XOR salt_i) % w, cells are exact
    integer sums. Bit-for-bit SQL mirror: the shared FNV/splitmix CTEs
    cross-joined with the fixed salt schedule."""
    from tldr_ray.stages.sketches import countmin_registers

    return countmin_registers(_read(sf_dir, "events", ["user_id"]),
                              "user_id", d, w)


def _countmin_oracle_sql(d: int = 4, w: int = 256) -> str:
    from tldr_ray.stages.sketches import CM_SALTS

    salts = ", ".join(
        f"({i}, CAST({CM_SALTS[i]} AS HUGEINT))" for i in range(d))
    xor_salt = (
        f"(CASE WHEN xor({_sql_s2b('hh.h')}, {_sql_s2b('sl.salt')}) < 0 "
        f"THEN CAST(xor({_sql_s2b('hh.h')}, {_sql_s2b('sl.salt')}) "
        f"AS HUGEINT) + {_SQL_M64} "
        f"ELSE CAST(xor({_sql_s2b('hh.h')}, {_sql_s2b('sl.salt')}) "
        f"AS HUGEINT) END)")
    return f"""
    WITH RECURSIVE {_sql_fnv_cte(
        "SELECT CAST(user_id AS VARCHAR) AS s FROM events")},
    salted AS MATERIALIZED (
        SELECT sl.rw AS rw, {xor_salt} AS h
        FROM hh CROSS JOIN (VALUES {salts}) AS sl(rw, salt)
    ),
    {_sql_splitmix_ctes("salted", carry="rw, ")},
    agg AS (
        SELECT rw, CAST(h % {w} AS BIGINT) AS bucket,
               count(*) AS c
        FROM m3 GROUP BY rw, bucket
    )
    SELECT CAST(g.rw AS INTEGER) AS "row",
           CAST(g.bk AS INTEGER) AS bucket,
           CAST(coalesce(a.c, 0) AS BIGINT) AS count
    FROM (SELECT r.r AS rw, b.b AS bk
          FROM (SELECT unnest(range(0, {d})) AS r) r,
               (SELECT unnest(range(0, {w})) AS b) b) g
    LEFT JOIN agg a ON a.rw = g.rw AND a.bucket = g.bk
"""


QUERIES["countmin_registers_events"] = countmin_registers_events
ORACLE_SQL["countmin_registers_events"] = _countmin_oracle_sql()


_HIST_LO, _HIST_HI, _HIST_BINS = 0.0, 400.0, 64


def value_histogram_events(sf_dir: str):
    """Dense per-event_type fixed-bin histogram of value — the
    mergeable approximate-quantile sketch
    (stages.sketches.histogram_registers). Counts are exact integer
    sums and the bin expression is op-for-op IEEE double arithmetic,
    so the full register table hash-matches the SQL mirror; the
    approximate quantiles read off it are pinned by a pytest
    bin-width-error oracle instead."""
    from tldr_ray.stages.sketches import histogram_registers

    return histogram_registers(
        _read(sf_dir, "events", ["event_type", "value"]), "value",
        _HIST_LO, _HIST_HI, _HIST_BINS, by="event_type")


def lineitem_rollup(sf_dir: str):
    """ROLLUP over (l_returnflag, l_linestatus) in one pass
    (stages.agg.rollup_aggregate): counts + extendedprice cents at all
    three levels, rolled-up columns = 'ALL'."""
    from tldr_ray.stages.agg import rollup_aggregate

    return rollup_aggregate(
        _read(sf_dir, "lineitem",
              ["l_returnflag", "l_linestatus", "l_extendedprice"]),
        ["l_returnflag", "l_linestatus"], value_col="l_extendedprice")


QUERIES["lineitem_rollup"] = lineitem_rollup
ORACLE_SQL["lineitem_rollup"] = """
    SELECT coalesce(l_returnflag, 'ALL') AS l_returnflag,
           coalesce(l_linestatus, 'ALL') AS l_linestatus,
           CAST(count(*) AS BIGINT) AS n,
           CAST(sum(CAST(floor(l_extendedprice * 100.0 + 0.5)
                         AS BIGINT)) AS BIGINT) AS cents
    FROM lineitem
    GROUP BY GROUPING SETS ((), (l_returnflag),
                            (l_returnflag, l_linestatus))
"""


def clustering_coeff_hashgraph(sf_dir: str):
    """Per-vertex local clustering coefficient over the undirected
    hash graph: cc = 2*T / (deg*(deg-1)), 0.0 when deg < 2. Degrees
    and triangle counts are both vertex-keyed datasets; tagging each
    side with the other's zero column and summing through ONE groupby
    gives the outer join without join machinery. The float division is
    a single IEEE op on exact integers — hash-stable vs the SQL
    mirror."""
    from ray.data.aggregate import Sum

    from tldr_ray.graph import triangle_counts

    def undirect(batch: pa.Table) -> pa.Table:
        s = np.asarray(batch["src"], dtype=np.int64)
        d = np.asarray(batch["dst"], dtype=np.int64)
        lo, hi = np.minimum(s, d), np.maximum(s, d)
        u = np.unique(np.stack([lo, hi], axis=1), axis=0)
        return pa.table({"a": pa.array(u[:, 0]), "b": pa.array(u[:, 1])})

    def partial_degrees(batch: pa.Table) -> pa.Table:
        v = np.concatenate([np.asarray(batch["a"], dtype=np.int64),
                            np.asarray(batch["b"], dtype=np.int64)])
        vu, cnt = np.unique(v, return_counts=True)
        return pa.table({"vertex": pa.array(vu),
                         "degree": pa.array(cnt.astype(np.int64)),
                         "triangles": pa.array(
                             np.zeros(vu.size, np.int64))})

    degrees = (
        _hash_graph_edges(sf_dir)
        .map_batches(undirect, batch_format="pyarrow")
        .groupby(["a", "b"]).count().select_columns(["a", "b"])
        .map_batches(partial_degrees, batch_format="pyarrow")
    )

    def tag_tri(batch: pa.Table) -> pa.Table:
        return pa.table({
            "vertex": batch["vertex"].cast(pa.int64()),
            "degree": pa.array(np.zeros(len(batch), np.int64)),
            "triangles": batch["triangles"].cast(pa.int64())})

    _, per_vertex = triangle_counts(_hash_graph_edges(sf_dir))
    both = degrees.union(
        per_vertex.map_batches(tag_tri, batch_format="pyarrow"))
    merged = both.groupby("vertex").aggregate(
        Sum("degree", alias_name="degree"),
        Sum("triangles", alias_name="triangles"))

    def cc(batch: pa.Table) -> pa.Table:
        deg = np.asarray(batch["degree"], dtype=np.int64)
        tri = np.asarray(batch["triangles"], dtype=np.int64)
        den = deg * (deg - 1)
        val = np.where(deg >= 2,
                       (2 * tri).astype(np.float64)
                       / np.maximum(den, 1).astype(np.float64), 0.0)
        return pa.table({"vertex": batch["vertex"],
                         "degree": pa.array(deg),
                         "triangles": pa.array(tri),
                         "clustering": pa.array(val)})

    return merged.map_batches(cc, batch_format="pyarrow")


QUERIES["clustering_coeff_hashgraph"] = clustering_coeff_hashgraph
ORACLE_SQL["clustering_coeff_hashgraph"] = f"""
    WITH {_HASHGRAPH_RAW},
    und AS (SELECT DISTINCT least(s, t) AS a, greatest(s, t) AS b
            FROM raw2),
    verts AS (SELECT a AS v FROM und UNION ALL SELECT b FROM und),
    deg AS (SELECT v, count(*) AS degree FROM verts GROUP BY v),
    tri AS (
        SELECT e1.a AS x, e1.b AS y, e2.b AS z
        FROM und e1
        JOIN und e2 ON e2.a = e1.b
        JOIN und e3 ON e3.a = e1.a AND e3.b = e2.b
    ),
    tv AS (
        SELECT v, count(*) AS t FROM (
            SELECT x AS v FROM tri
            UNION ALL SELECT y FROM tri
            UNION ALL SELECT z FROM tri) GROUP BY v
    )
    SELECT d.v AS vertex, CAST(d.degree AS BIGINT) AS degree,
           CAST(coalesce(tv.t, 0) AS BIGINT) AS triangles,
           CASE WHEN d.degree >= 2
                THEN CAST(2 * coalesce(tv.t, 0) AS DOUBLE)
                     / CAST(d.degree * (d.degree - 1) AS DOUBLE)
                ELSE 0.0 END AS clustering
    FROM deg d LEFT JOIN tv ON tv.v = d.v
"""


def user_event_pivot_long(sf_dir: str):
    """Round-trip: the wide pivot melted back to long
    (stages.agg.unpivot) — dense (user, 'n_<type>', count) rows,
    hash-checked against the grid LEFT JOIN the pivot implies."""
    from tldr_ray.stages.agg import pivot_table, unpivot

    wide = pivot_table(
        _read(sf_dir, "events", ["user_id", "event_type"]),
        "user_id", "event_type", domain=list(_PIVOT_TYPES))
    return unpivot(wide, ["user_id"],
                   [f"n_{t}" for t in _PIVOT_TYPES])


QUERIES["user_event_pivot_long"] = user_event_pivot_long
ORACLE_SQL["user_event_pivot_long"] = """
    WITH g AS (
        SELECT user_id, event_type, count(*) AS n
        FROM events GROUP BY user_id, event_type
    ),
    grid AS (
        SELECT u.user_id, t.event_type
        FROM (SELECT DISTINCT user_id FROM events) u,
             (SELECT DISTINCT event_type FROM events) t
    )
    SELECT grid.user_id, 'n_' || grid.event_type AS name,
           CAST(coalesce(g.n, 0) AS BIGINT) AS value
    FROM grid
    LEFT JOIN g ON g.user_id = grid.user_id
               AND g.event_type = grid.event_type
"""


def user_funnel_events(sf_dir: str):
    """signup -> click -> purchase funnel per user
    (stages.windows.funnel): each step matches the earliest event
    strictly after the previous step's timestamp. All-integer output
    (microsecond timestamps, -1 sentinels) — hash-stable."""
    from tldr_ray.stages.windows import funnel

    return funnel(_read(sf_dir, "events",
                        ["user_id", "ts", "event_type"]),
                  "user_id", "ts", "event_type",
                  steps=["signup", "click", "purchase"])


QUERIES["user_funnel_events"] = user_funnel_events
ORACLE_SQL["user_funnel_events"] = """
    WITH s1 AS (
        SELECT user_id, min(epoch_us(ts)) AS t1
        FROM events WHERE event_type = 'signup' GROUP BY user_id
    ),
    s2 AS (
        SELECT e.user_id, min(epoch_us(e.ts)) AS t2
        FROM events e JOIN s1 ON s1.user_id = e.user_id
        WHERE e.event_type = 'click' AND epoch_us(e.ts) > s1.t1
        GROUP BY e.user_id
    ),
    s3 AS (
        SELECT e.user_id, min(epoch_us(e.ts)) AS t3
        FROM events e JOIN s2 ON s2.user_id = e.user_id
        WHERE e.event_type = 'purchase' AND epoch_us(e.ts) > s2.t2
        GROUP BY e.user_id
    )
    SELECT k.user_id,
           coalesce(s1.t1, -1) AS ts_signup,
           coalesce(s2.t2, -1) AS ts_click,
           coalesce(s3.t3, -1) AS ts_purchase,
           CAST((s1.t1 IS NOT NULL)::INT + (s2.t2 IS NOT NULL)::INT
                + (s3.t3 IS NOT NULL)::INT AS BIGINT) AS stage_reached
    FROM (SELECT DISTINCT user_id FROM events) k
    LEFT JOIN s1 ON s1.user_id = k.user_id
    LEFT JOIN s2 ON s2.user_id = k.user_id
    LEFT JOIN s3 ON s3.user_id = k.user_id
"""


def user_retention_weekly(sf_dir: str):
    """Weekly cohort retention triangle over events
    (stages.windows.cohort_retention): users bucketed by first-event
    epoch week, distinct-active counts per week offset."""
    from tldr_ray.stages.windows import cohort_retention

    return cohort_retention(_read(sf_dir, "events", ["user_id", "ts"]),
                            "user_id", "ts", bucket_s=604800)


QUERIES["user_retention_weekly"] = user_retention_weekly
ORACLE_SQL["user_retention_weekly"] = """
    WITH f AS (
        SELECT user_id,
               min(epoch_us(ts)) // 604800000000 AS cw
        FROM events GROUP BY user_id
    ),
    a AS (
        SELECT DISTINCT e.user_id, f.cw,
               epoch_us(e.ts) // 604800000000 - f.cw AS off
        FROM events e JOIN f ON f.user_id = e.user_id
    )
    SELECT CAST(cw AS BIGINT) AS cohort_bucket,
           CAST(off AS BIGINT) AS bucket_offset,
           CAST(count(*) AS BIGINT) AS n_keys
    FROM a GROUP BY cw, off
"""


def user_event_pivot(sf_dir: str):
    """Wide per-user pivot over event_type: count + cents-sum columns
    per type (stages.agg.pivot_table — one wide partial row per key
    per batch, single groupby shuffle). All-integer, hash-stable."""
    from tldr_ray.stages.agg import pivot_table

    return pivot_table(
        _read(sf_dir, "events", ["user_id", "event_type", "value"]),
        "user_id", "event_type", value_col="value")


_PIVOT_TYPES = ("click", "error", "purchase", "signup", "view")

QUERIES["user_event_pivot"] = user_event_pivot
ORACLE_SQL["user_event_pivot"] = "SELECT user_id, " + ", ".join(
    f"CAST(coalesce(count(*) FILTER (event_type = '{t}'), 0) AS BIGINT)"
    f" AS n_{t}, "
    f"CAST(coalesce(sum(CAST(floor(value * 100.0 + 0.5) AS BIGINT)) "
    f"FILTER (event_type = '{t}'), 0) AS BIGINT) AS cents_{t}"
    for t in _PIVOT_TYPES) + " FROM events GROUP BY user_id"


def top_bigrams_docs(sf_dir: str):
    """Top-100 adjacent word pairs (collocations) across documents:
    per-batch vectorized pairing (shifted token arrays, same-doc
    mask) pre-aggregates to distinct (w1, w2, n) rows — the shuffle
    moves distinct pairs, never tokens — then one groupby + sorted
    limit. Deterministic tiebreak (n desc, w1 asc, w2 asc)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["text"])

    def pairs(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_trim_whitespace(pc.utf8_lower(batch["text"])),
            r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        off = np.asarray(toks.offsets, dtype=np.int64)
        doc_of = np.repeat(np.arange(len(batch), dtype=np.int64),
                           np.diff(off))
        keep = np.asarray(pc.greater(pc.utf8_length(flat), 0))
        doc_of, w = doc_of[keep], np.asarray(flat)[keep]
        if w.size < 2:
            return pa.table({"w1": pa.array([], pa.string()),
                             "w2": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        same = doc_of[1:] == doc_of[:-1]
        w1, w2 = w[:-1][same], w[1:][same]
        u1, c1 = np.unique(w1, return_inverse=True)
        u2, c2 = np.unique(w2, return_inverse=True)
        key = c1.astype(np.int64) * max(len(u2), 1) + c2
        uk, cnt = np.unique(key, return_counts=True)
        return pa.table({
            "w1": pa.array(u1[uk // max(len(u2), 1)].tolist(),
                           pa.string()),
            "w2": pa.array(u2[uk % max(len(u2), 1)].tolist(),
                           pa.string()),
            "n": pa.array(cnt.astype(np.int64))})

    return (ds.map_batches(pairs, batch_format="pyarrow")
            .groupby(["w1", "w2"]).aggregate(Sum("n", alias_name="n"))
            .sort(["n", "w1", "w2"], descending=[True, False, False])
            .limit(100))


QUERIES["top_bigrams_docs"] = top_bigrams_docs
ORACLE_SQL["top_bigrams_docs"] = """
    WITH toks AS (
        SELECT doc_id, i, w FROM (
            SELECT doc_id,
                   unnest(regexp_split_to_array(trim(lower(text)),
                                                '\\s+')) AS w,
                   generate_subscripts(
                       regexp_split_to_array(trim(lower(text)),
                                             '\\s+'), 1) AS i
            FROM documents)
        WHERE w != ''
    ),
    big AS (
        SELECT a.w AS w1, b.w AS w2
        FROM toks a JOIN toks b
          ON b.doc_id = a.doc_id AND b.i = a.i + 1
    )
    SELECT w1, w2, CAST(count(*) AS BIGINT) AS n
    FROM big GROUP BY w1, w2
    ORDER BY n DESC, w1 ASC, w2 ASC LIMIT 100
"""


def repetition_scores_docs(sf_dir: str):
    """Per-document repetition signals (duplicate-line counts/chars —
    stages.text_analysis.repetition_scores). All-integer, one
    vectorized pass; mirrored by an unnest + group SQL."""
    from tldr_ray.stages.text_analysis import repetition_scores

    return repetition_scores(
        _read(sf_dir, "documents", ["doc_id", "text"]))


_WINNOW_K, _WINNOW_W = 8, 4


def winnow_fingerprints_docs(sf_dir: str):
    """Winnowing (MOSS rolling-hash) fingerprints per document
    (stages.dedup.winnow_fingerprints, k=8 char-grams, w=4 window).
    Hash-checked: the chained per-byte FNV CTE pattern (the minhash
    mirror's) + a sliding window-min + DISTINCT mirrors the whole
    selection bit-for-bit (ASCII fixture; every doc >= k chars)."""
    from tldr_ray.stages.dedup import winnow_fingerprints

    return winnow_fingerprints(
        _read(sf_dir, "documents", ["doc_id", "text"]),
        k=_WINNOW_K, w=_WINNOW_W)


def _winnow_oracle_sql(k: int = _WINNOW_K, w: int = _WINNOW_W) -> str:
    M64 = 1 << 64
    steps = []
    prev = "s0"
    for j in range(k):
        cur = f"s{j + 1}"
        steps.append(f""",
    {cur} AS (
        SELECT doc_id, text, i,
               ((h - h % 256 + xor(CAST(h % 256 AS BIGINT),
                                   ord(substr(text, i + {j}, 1))))
                * 1099511628211) % {M64} AS h
        FROM {prev}
    )""")
        prev = cur
    return f"""
    WITH s0 AS (
        SELECT doc_id, text,
               unnest(range(1, length(text) - {k - 2})) AS i,
               CAST(14695981039346656037 AS HUGEINT) AS h
        FROM documents WHERE length(text) >= {k}
    ){"".join(steps)},
    slid AS (
        SELECT doc_id, i,
               min(h) OVER (PARTITION BY doc_id ORDER BY i
                            ROWS BETWEEN CURRENT ROW
                            AND {w - 1} FOLLOWING) AS m,
               count(*) OVER (PARTITION BY doc_id) AS nw,
               count(*) OVER (PARTITION BY doc_id ORDER BY i
                              ROWS BETWEEN CURRENT ROW
                              AND {w - 1} FOLLOWING) AS wsz
        FROM {prev}
    )
    SELECT DISTINCT doc_id,
           CAST(CASE WHEN m >= {1 << 63} THEN m - {M64} ELSE m END
                AS BIGINT) AS fingerprint
    FROM slid WHERE wsz = {w} OR (nw < {w} AND i = 1)
"""


QUERIES["winnow_fingerprints_docs"] = winnow_fingerprints_docs
ORACLE_SQL["winnow_fingerprints_docs"] = _winnow_oracle_sql()


def unigram_logprob_docs(sf_dir: str):
    """Corpus-unigram LM scoring of documents
    (stages.text_analysis.unigram_logprob). Rows-only: log2 is libm
    (oracle rule); pinned by a numpy-identical pytest oracle."""
    from tldr_ray.stages.text_analysis import unigram_logprob

    return unigram_logprob(_read(sf_dir, "documents",
                                 ["doc_id", "text"]))


QUERIES["unigram_logprob_docs"] = unigram_logprob_docs


QUERIES["repetition_scores_docs"] = repetition_scores_docs
ORACLE_SQL["repetition_scores_docs"] = """
    WITH lines AS (
        SELECT doc_id, l FROM (
            SELECT doc_id,
                   unnest(string_split(text, chr(10))) AS l
            FROM documents)
        WHERE l != ''
    ),
    per AS (
        SELECT doc_id, l, count(*) AS c, length(l) AS len
        FROM lines GROUP BY doc_id, l
    )
    SELECT d.doc_id,
           CAST(coalesce(sum(p.c), 0) AS BIGINT) AS n_lines,
           CAST(coalesce(count(p.l), 0) AS BIGINT) AS n_distinct_lines,
           CAST(coalesce(sum(CASE WHEN p.c > 1 THEN p.c * p.len
                                  ELSE 0 END), 0) AS BIGINT)
               AS dup_line_chars
    FROM documents d
    LEFT JOIN per p ON p.doc_id = d.doc_id
    GROUP BY d.doc_id
"""


def tfidf_top_terms_docs(sf_dir: str):
    """Top-5 tf-idf terms per document
    (stages.text_analysis.tfidf_top_terms, broadcast-vocab path at this
    scale). Linear rational idf (tf * N / df) keeps the score a pure
    IEEE expression both engines evaluate identically — see the stage
    docstring for why not log."""
    from tldr_ray.stages.text_analysis import tfidf_top_terms

    return tfidf_top_terms(_read(sf_dir, "documents", ["doc_id", "text"]),
                           "doc_id", "text", k=5)


QUERIES["tfidf_top_terms_docs"] = tfidf_top_terms_docs
ORACLE_SQL["tfidf_top_terms_docs"] = """
    WITH toks AS (
        SELECT doc_id, w FROM (
            SELECT doc_id,
                   unnest(regexp_split_to_array(trim(lower(text)),
                                                '\\s+')) AS w
            FROM documents)
        WHERE w != ''
    ),
    tf AS (SELECT doc_id, w AS term, count(*) AS tf
           FROM toks GROUP BY 1, 2),
    df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
    n AS (SELECT count(*) AS n FROM documents),
    scored AS (
        SELECT t.doc_id, t.term, t.tf, d.df,
               CAST(t.tf AS DOUBLE) * (SELECT n FROM n) / d.df AS score
        FROM tf t JOIN df d ON d.term = t.term
    ),
    ranked AS (
        SELECT *, row_number() OVER (
                   PARTITION BY doc_id
                   ORDER BY score DESC, term ASC) AS rnk
        FROM scored
    )
    SELECT doc_id, term, CAST(tf AS BIGINT) AS tf,
           CAST(df AS BIGINT) AS df, CAST(rnk AS BIGINT) AS rnk, score
    FROM ranked WHERE rnk <= 5
"""


def customer_order_event_left_join(sf_dir: str):
    """Per-customer order rollup LEFT-joined to event activity
    (bucketed_hash_join how='left'): customers with zero events keep
    their rows, n_events = -1 sentinel (both engines coalesce the
    same way, so the all-integer frame stays hash-stable)."""
    from ray.data.aggregate import Sum

    from tldr_ray.stages.joins import bucketed_hash_join

    def o_partial(batch: pa.Table) -> pa.Table:
        u, idx = np.unique(np.asarray(batch["o_custkey"],
                                      dtype=np.int64),
                           return_inverse=True)
        cents = np.floor(np.asarray(batch["o_totalprice"],
                                    dtype=np.float64) * 100.0
                         + 0.5).astype(np.int64)
        return pa.table({
            "user_id": pa.array(u),
            "n_orders": pa.array(np.bincount(idx).astype(np.int64)),
            "order_cents": pa.array(
                np.bincount(idx, weights=cents).astype(np.int64))})

    def e_partial(batch: pa.Table) -> pa.Table:
        u, cnt = np.unique(np.asarray(batch["user_id"],
                                      dtype=np.int64),
                           return_counts=True)
        return pa.table({"user_id": pa.array(u),
                         "n_events": pa.array(cnt.astype(np.int64))})

    o = (_read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
         .map_batches(o_partial, batch_format="pyarrow")
         .groupby("user_id")
         .aggregate(Sum("n_orders", alias_name="n_orders"),
                    Sum("order_cents", alias_name="order_cents")))
    e = (_read(sf_dir, "events", ["user_id"])
         .map_batches(e_partial, batch_format="pyarrow")
         .groupby("user_id")
         .aggregate(Sum("n_events", alias_name="n_events")))

    j = bucketed_hash_join(o, e, on="user_id", how="left")

    def seal(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["n_events"] = batch["n_events"].fillna(-1).astype(np.int64)
        for c in ("user_id", "n_orders", "order_cents"):
            batch[c] = batch[c].astype(np.int64)
        return batch

    return j.map_batches(seal, batch_format="pandas")


QUERIES["customer_order_event_left_join"] = customer_order_event_left_join
ORACLE_SQL["customer_order_event_left_join"] = """
    WITH o AS (
        SELECT o_custkey AS user_id,
               CAST(count(*) AS BIGINT) AS n_orders,
               CAST(sum(CAST(floor(o_totalprice * 100.0 + 0.5)
                             AS BIGINT)) AS BIGINT) AS order_cents
        FROM orders GROUP BY o_custkey
    ),
    e AS (
        SELECT user_id, CAST(count(*) AS BIGINT) AS n_events
        FROM events GROUP BY user_id
    )
    SELECT o.user_id, o.n_orders, o.order_cents,
           CAST(coalesce(e.n_events, -1) AS BIGINT) AS n_events
    FROM o LEFT JOIN e ON e.user_id = o.user_id
"""


def _orders_custkey_as_user(sf_dir: str):
    def ren(batch: pa.Table) -> pa.Table:
        return pa.table({"user_id": batch["o_custkey"]})

    return _read(sf_dir, "orders", ["o_custkey"]).map_batches(
        ren, batch_format="pyarrow")


def order_customers_without_events(sf_dir: str):
    """Distinct order customers who never generated an event —
    distributed EXCEPT (stages.joins.set_op: per-batch distinct
    combiner, one co-shuffle, pandas-merge resolve)."""
    from tldr_ray.stages.joins import set_op

    return set_op(_orders_custkey_as_user(sf_dir),
                  _read(sf_dir, "events", ["user_id"]),
                  ["user_id"], "except")


def event_users_with_orders(sf_dir: str):
    """Distinct event users who DID place an order — distributed
    INTERSECT on the same machinery."""
    from tldr_ray.stages.joins import set_op

    return set_op(_read(sf_dir, "events", ["user_id"]),
                  _orders_custkey_as_user(sf_dir),
                  ["user_id"], "intersect")


QUERIES["order_customers_without_events"] = order_customers_without_events
ORACLE_SQL["order_customers_without_events"] = """
    SELECT DISTINCT o_custkey AS user_id FROM orders
    EXCEPT
    SELECT DISTINCT user_id FROM events
"""
QUERIES["event_users_with_orders"] = event_users_with_orders
ORACLE_SQL["event_users_with_orders"] = """
    SELECT DISTINCT user_id FROM events
    INTERSECT
    SELECT DISTINCT o_custkey FROM orders
"""


_STRATA_RATES = {"purchase": 1.0, "signup": 1.0, "error": 0.5,
                 "click": 0.25, "view": 0.125}


def stratified_sample_events(sf_dir: str):
    """Deterministic stratified sample of events: keep rate per
    event_type via splitmix64(fnv1a(str(event_id))) thresholding
    (stages.agg.stratified_sample — zero shuffle, reproducible).
    Thresholds are exact integers embedded identically in the SQL
    mirror."""
    from tldr_ray.stages.agg import stratified_sample

    return stratified_sample(
        _read(sf_dir, "events", ["event_id", "event_type"]),
        "event_type", "event_id", _STRATA_RATES)


def _stratified_oracle_sql() -> str:
    cases = " ".join(
        f"WHEN '{s}' THEN CAST({min(int(r * 2.0 ** 64), 1 << 64)} "
        f"AS HUGEINT)"
        for s, r in sorted(_STRATA_RATES.items()))
    return f"""
    WITH RECURSIVE {_sql_fnv_cte(
        "SELECT DISTINCT CAST(event_id AS VARCHAR) AS s FROM events")},
    {_sql_splitmix_ctes("hh", carry="s, ")}
    SELECT e.event_id, e.event_type
    FROM events e JOIN m3 ON m3.s = CAST(e.event_id AS VARCHAR)
    WHERE m3.h < CASE e.event_type {cases}
                 ELSE CAST(0 AS HUGEINT) END
"""


QUERIES["stratified_sample_events"] = stratified_sample_events
ORACLE_SQL["stratified_sample_events"] = _stratified_oracle_sql()


def events_user_running(sf_dir: str):
    """Per-user ordered analytics over the event log — SQL window
    functions (row_number / lag / running sum / time delta) as ONE
    coarse shuffle + vectorized segment sweep
    (stages.windows.row_window). Integer-only outputs (cents, -1
    first-row sentinels) so the whole frame is hash-stable."""
    from tldr_ray.stages.windows import row_window

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        v = np.asarray(batch["value"], dtype=np.float64)
        cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
        return pa.table({
            "event_id": batch["event_id"],
            "user_id": batch["user_id"],
            "ts_us": batch["ts"].cast(pa.int64()),
            "value_cents": pa.array(cents),
        })

    return row_window(
        ds.map_batches(prep, batch_format="pyarrow"),
        "user_id", ["ts_us", "event_id"],
        lag_cols=("event_id",), cumsum_cols=("value_cents",),
        rolling_sums=(("value_cents", 2),),
        delta_col="ts_us", pct_rank=True)


QUERIES["events_user_running"] = events_user_running
ORACLE_SQL["events_user_running"] = """
    WITH base AS (
        SELECT event_id, user_id, epoch_us(ts) AS ts_us,
               CAST(floor(value * 100.0 + 0.5) AS BIGINT) AS value_cents
        FROM events
    )
    SELECT user_id, ts_us, event_id,
           CAST(row_number() OVER w AS BIGINT) AS rn,
           percent_rank() OVER w AS pct_rank,
           coalesce(lag(event_id) OVER w, -1) AS lag_event_id,
           CAST(sum(value_cents) OVER (
               PARTITION BY user_id ORDER BY ts_us, event_id
               ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
               AS BIGINT) AS cum_value_cents,
           CAST(sum(value_cents) OVER (
               PARTITION BY user_id ORDER BY ts_us, event_id
               ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
               AS BIGINT) AS roll2_value_cents,
           coalesce(ts_us - lag(ts_us) OVER w, -1) AS delta_ts_us
    FROM base
    WINDOW w AS (PARTITION BY user_id ORDER BY ts_us, event_id)
"""


QUERIES["value_histogram_events"] = value_histogram_events
ORACLE_SQL["value_histogram_events"] = f"""
    WITH binned AS (
        SELECT event_type,
               least(greatest(CAST(floor(
                   ((value - {_HIST_LO}) * {float(_HIST_BINS)})
                   / {_HIST_HI - _HIST_LO}) AS BIGINT),
                   0), {_HIST_BINS - 1}) AS bin
        FROM events
        WHERE value IS NOT NULL AND event_type IS NOT NULL
    ),
    agg AS (
        SELECT event_type, bin, count(*) AS c FROM binned GROUP BY 1, 2
    ),
    grid AS (
        SELECT t.event_type, b.b AS bin
        FROM (SELECT DISTINCT event_type FROM binned) t,
             (SELECT unnest(range(0, {_HIST_BINS})) AS b) b
    )
    SELECT g.event_type, CAST(g.bin AS INTEGER) AS bin,
           CAST(coalesce(a.c, 0) AS BIGINT) AS count
    FROM grid g
    LEFT JOIN agg a ON a.event_type = g.event_type AND a.bin = g.bin
"""


_BLOOM_M, _BLOOM_K = 2048, 3


def bloom_bits_orders(sf_dir: str):
    """Bloom-filter bit table over orders.o_orderkey
    (stages.sketches.bloom_bits, m=2048, k=3 fixed salts) — the
    mergeable membership sketch; SQL mirror reuses the Count-Min
    FNV/splitmix/salt machinery and emits the same dense 0/1 grid."""
    from tldr_ray.stages.sketches import bloom_bits

    return bloom_bits(_read(sf_dir, "orders", ["o_orderkey"]),
                      "o_orderkey", m=_BLOOM_M, k=_BLOOM_K)


def _bloom_oracle_sql(m: int = _BLOOM_M, k: int = _BLOOM_K) -> str:
    from tldr_ray.stages.sketches import CM_SALTS

    salts = ", ".join(
        f"({i}, CAST({CM_SALTS[i]} AS HUGEINT))" for i in range(k))
    xor_salt = (
        f"(CASE WHEN xor({_sql_s2b('hh.h')}, {_sql_s2b('sl.salt')}) < 0 "
        f"THEN CAST(xor({_sql_s2b('hh.h')}, {_sql_s2b('sl.salt')}) "
        f"AS HUGEINT) + {_SQL_M64} "
        f"ELSE CAST(xor({_sql_s2b('hh.h')}, {_sql_s2b('sl.salt')}) "
        f"AS HUGEINT) END)")
    return f"""
    WITH RECURSIVE {_sql_fnv_cte(
        "SELECT DISTINCT CAST(o_orderkey AS VARCHAR) AS s FROM orders")},
    salted AS MATERIALIZED (
        SELECT {xor_salt} AS h
        FROM hh CROSS JOIN (VALUES {salts}) AS sl(rw, salt)
    ),
    {_sql_splitmix_ctes("salted")},
    bits AS (SELECT DISTINCT CAST(h % {m} AS BIGINT) AS bit FROM m3)
    SELECT CAST(g.b AS INTEGER) AS bit,
           CAST(CASE WHEN bits.bit IS NULL THEN 0 ELSE 1 END AS BIGINT)
               AS set
    FROM (SELECT unnest(range(0, {m})) AS b) g
    LEFT JOIN bits ON bits.bit = g.b
"""


QUERIES["bloom_bits_orders"] = bloom_bits_orders
ORACLE_SQL["bloom_bits_orders"] = _bloom_oracle_sql()


def bloom_filtered_revenue(sf_dir: str):
    """Bloom-filtered join: recent orders' keys build a broadcast
    bloom; lineitem rows that DEFINITELY don't match are dropped
    before the join shuffle (the classic shuffle-reduction pattern);
    survivors take the normal bucketed join. Hash-equality with the
    plain SQL join proves the no-false-negative law end to end."""
    import ray
    from ray.data.aggregate import Sum

    from tldr_ray.stages.joins import bucketed_hash_join
    from tldr_ray.stages.sketches import (bloom_bits,
                                          bloom_maybe_contains)

    cutoff = np.datetime64("2000-01-01").astype("datetime64[us]") \
        .astype(np.int64)

    def ofil(batch: pa.Table) -> pa.Table:
        od = np.asarray(batch["o_orderdate"].cast(pa.int64()))
        m = od >= cutoff
        return pa.table({"l_orderkey": pa.array(
            np.asarray(batch["o_orderkey"], dtype=np.int64)[m])})

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"]) \
        .map_batches(ofil, batch_format="pyarrow")
    bits_df = bloom_bits(orders, "l_orderkey",
                         m=_BLOOM_M, k=_BLOOM_K).to_pandas()
    arr = np.zeros(_BLOOM_M, dtype=np.int64)
    arr[bits_df["bit"].to_numpy(np.int64)] = \
        bits_df["set"].to_numpy(np.int64)
    bref = ray.put(arr)

    def lfil(batch: pa.Table) -> pa.Table:
        bits = ray.get(bref)
        keys = batch["l_orderkey"]
        keep = bloom_maybe_contains(
            bits, keys if not isinstance(keys, pa.ChunkedArray)
            else keys.combine_chunks(), _BLOOM_M, _BLOOM_K)
        t = batch.filter(pa.array(keep))
        px = np.asarray(t["l_extendedprice"], dtype=np.float64)
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "cents": pa.array(_cents(px))})

    line = _read(sf_dir, "lineitem",
                 ["l_orderkey", "l_extendedprice"]) \
        .map_batches(lfil, batch_format="pyarrow")
    from ray.data.aggregate import Count

    joined = bucketed_hash_join(line, orders, on="l_orderkey")
    agg = joined.aggregate(Sum("cents", alias_name="cents"),
                           Count(alias_name="n_rows"))
    return pa.table({
        "cents": pa.array([int(agg["cents"] or 0)], pa.int64()),
        "n_rows": pa.array([int(agg["n_rows"])], pa.int64())})


QUERIES["bloom_filtered_revenue"] = bloom_filtered_revenue
ORACLE_SQL["bloom_filtered_revenue"] = """
    SELECT CAST(sum(CAST(floor(l.l_extendedprice * 100.0 + 0.5)
                         AS BIGINT)) AS BIGINT) AS cents,
           CAST(count(*) AS BIGINT) AS n_rows
    FROM lineitem l
    JOIN orders o ON o.o_orderkey = l.l_orderkey
    WHERE o.o_orderdate >= DATE '2000-01-01'
"""


def events_value_quantiles(sf_dir: str):
    """Exact per-event_type p50/p90/p99 of value via the coarse-
    partition quantile sweep (stages.agg.grouped_quantiles). Discrete
    quantiles — each result is an actual element, so the float output
    is hash-stable against DuckDB's quantile_disc."""
    from tldr_ray.stages.agg import grouped_quantiles

    return grouped_quantiles(_read(sf_dir, "events",
                                   ["event_type", "value"]),
                             "event_type", "value", qs=(0.5, 0.9, 0.99))


def salted_value_by_type(sf_dir: str):
    """Per-event_type cents totals through the skew-salted two-phase
    groupby (stages.agg.salted_group_sum, salt on event_id) — the hot
    'click' key spreads across 16 reducers in phase 1. Integer sums,
    so the result is identical to the plain groupby and hash-stable."""
    from tldr_ray.stages.agg import salted_group_sum

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def cents(batch: pa.Table) -> pa.Table:
        v = np.floor(np.asarray(batch["value"], dtype=np.float64)
                     * 100.0 + 0.5).astype(np.int64)
        return pa.table({"event_id": batch["event_id"],
                         "event_type": batch["event_type"],
                         "cents": pa.array(v),
                         "n": pa.array(np.ones(len(batch), np.int64))})

    return salted_group_sum(ds.map_batches(cents, batch_format="pyarrow"),
                            "event_type", ["cents", "n"],
                            salt_buckets=16, salt_col="event_id")


QUERIES["salted_value_by_type"] = salted_value_by_type
ORACLE_SQL["salted_value_by_type"] = """
    SELECT event_type,
           CAST(sum(CAST(floor(value * 100.0 + 0.5) AS BIGINT))
                AS BIGINT) AS cents,
           CAST(count(*) AS BIGINT) AS n
    FROM events GROUP BY event_type
"""


def distinct_users_by_type(sf_dir: str):
    """EXACT distinct users per event_type — two-level groupby (pair
    distinct, then count), the exact counterpart of the
    `hll_by_type_events` sketch. Per-batch pair dedup is the combiner;
    the shuffle moves distinct pairs, never rows."""
    from ray.data.aggregate import Sum

    def pair_partial(batch: pa.Table) -> pa.Table:
        t = np.asarray(batch["event_type"])
        u = np.asarray(batch["user_id"], dtype=np.int64)
        tu, ti = np.unique(t, return_inverse=True)
        code = ti.astype(np.int64) * (u.max() + 1 if u.size else 1) + u
        _, first = np.unique(code, return_index=True)
        return pa.table({"event_type": pa.array(t[first]),
                         "user_id": pa.array(u[first])})

    pairs = (_read(sf_dir, "events", ["event_type", "user_id"])
             .map_batches(pair_partial, batch_format="pyarrow")
             .groupby(["event_type", "user_id"]).count()
             .select_columns(["event_type", "user_id"]))

    def count_partial(batch: pa.Table) -> pa.Table:
        t, cnt = np.unique(np.asarray(batch["event_type"]),
                           return_counts=True)
        return pa.table({"event_type": pa.array(t),
                         "n_users": pa.array(cnt.astype(np.int64))})

    return (pairs.map_batches(count_partial, batch_format="pyarrow")
            .groupby("event_type")
            .aggregate(Sum("n_users", alias_name="n_users")))


QUERIES["distinct_users_by_type"] = distinct_users_by_type
ORACLE_SQL["distinct_users_by_type"] = """
    SELECT event_type,
           CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
    FROM events GROUP BY event_type
"""


def events_props_extract(sf_dir: str):
    """Vectorized JSON extraction from the events.props column
    (stages.semistructured.json_extract, polars JSONPath over the
    Arrow buffer): per-event integer k, row-for-row hash-checked
    against DuckDB json_extract_string."""
    from tldr_ray.stages.semistructured import json_extract

    return json_extract(
        _read(sf_dir, "events", ["event_id", "props"]),
        "props", {"k": "$.k"}, cast={"k": "int64"})


QUERIES["events_props_extract"] = events_props_extract
ORACLE_SQL["events_props_extract"] = """
    SELECT event_id,
           CAST(json_extract_string(props, '$.k') AS BIGINT) AS k
    FROM events
"""


def user_top_event_type(sf_dir: str):
    """Each user's most frequent event_type (stages.agg.grouped_mode,
    count-desc value-asc tiebreak)."""
    from tldr_ray.stages.agg import grouped_mode

    return grouped_mode(_read(sf_dir, "events",
                              ["user_id", "event_type"]),
                        "user_id", "event_type")


QUERIES["user_top_event_type"] = user_top_event_type
ORACLE_SQL["user_top_event_type"] = """
    WITH c AS (
        SELECT user_id, event_type, count(*) AS n
        FROM events GROUP BY user_id, event_type
    ),
    r AS (
        SELECT *, row_number() OVER (
                   PARTITION BY user_id
                   ORDER BY n DESC, event_type ASC) AS rn
        FROM c
    )
    SELECT user_id, event_type AS mode_value, CAST(n AS BIGINT) AS n
    FROM r WHERE rn = 1
"""


def top_events_by_value(sf_dir: str):
    """Global top-100 events by value — the native Ray Data sort
    all-to-all (range-partitioned) + limit, deterministic total order
    via the event_id tiebreak. Exact float passthrough (no arithmetic)
    so the driver hash is safe."""
    ds = _read(sf_dir, "events", ["event_id", "value"])
    return (ds.sort(["value", "event_id"], descending=[True, False])
            .limit(100))


QUERIES["top_events_by_value"] = top_events_by_value
ORACLE_SQL["top_events_by_value"] = """
    SELECT event_id, value FROM events
    ORDER BY value DESC, event_id ASC LIMIT 100
"""


def events_value_outliers(sf_dir: str):
    """Tukey-fence outliers per event_type (stages.agg.iqr_outliers —
    grouped discrete quantiles -> broadcast thresholds -> vectorized
    filter). Pure IEEE predicate, hash-stable."""
    from tldr_ray.stages.agg import iqr_outliers

    return iqr_outliers(
        _read(sf_dir, "events", ["event_id", "event_type", "value"]),
        "event_type", "value")


QUERIES["events_value_outliers"] = events_value_outliers
ORACLE_SQL["events_value_outliers"] = """
    WITH q AS (
        SELECT event_type,
               quantile_disc(value, 0.25) AS p25,
               quantile_disc(value, 0.75) AS p75
        FROM events GROUP BY event_type
    )
    SELECT e.event_id, e.event_type, e.value
    FROM events e JOIN q ON q.event_type = e.event_type
    WHERE e.value > q.p75 + 1.5 * (q.p75 - q.p25)
"""


QUERIES["events_value_quantiles"] = events_value_quantiles
ORACLE_SQL["events_value_quantiles"] = """
    SELECT event_type,
           quantile_disc(value, 0.5) AS p50,
           quantile_disc(value, 0.9) AS p90,
           quantile_disc(value, 0.99) AS p99
    FROM events GROUP BY event_type
"""

_BOTTOMK_K = 100


def bottomk_sample_docs(sf_dir: str):
    """Deterministic bottom-k sample of doc ids (k smallest
    splitmix64(fnv1a(str(doc_id))) hashes — the KMV sketch shape;
    stages.agg.bottomk_sample). Mirrored by the shared FNV/splitmix
    SQL helpers + ORDER BY unsigned hash LIMIT k."""
    from tldr_ray.stages.agg import bottomk_sample

    return bottomk_sample(_read(sf_dir, "documents", ["doc_id"]),
                          "doc_id", k=_BOTTOMK_K)


QUERIES["bottomk_sample_docs"] = bottomk_sample_docs
ORACLE_SQL["bottomk_sample_docs"] = f"""
    WITH RECURSIVE {_sql_fnv_cte(
        "SELECT DISTINCT CAST(doc_id AS VARCHAR) AS s FROM documents")},
    {_sql_splitmix_ctes("hh", carry="s, ")},
    ranked AS (SELECT s, h FROM m3 ORDER BY h, s LIMIT {_BOTTOMK_K})
    SELECT CAST(s AS BIGINT) AS doc_id,
           {_sql_s2b('h')} AS key_hash
    FROM ranked
"""

def _hash_graph_edges_weighted(sf_dir: str):
    """The hash graph with the deterministic pseudo-random weight
    ((src*31 + dst*17) % 97 + 1) / 100 — same convention as the
    centrality_hashgraph oracle; exact in float64 on both engines."""
    def weigh(batch: pa.Table) -> pa.Table:
        s = np.asarray(batch["src"], dtype=np.int64)
        d = np.asarray(batch["dst"], dtype=np.int64)
        return pa.table({"src": batch["src"], "dst": batch["dst"],
                         "weight": pa.array(((s * 31 + d * 17) % 97 + 1)
                                            / 100.0)})

    return _hash_graph_edges(sf_dir).map_batches(
        weigh, batch_format="pyarrow")


_SSSP_UNROLL = 40


def sssp_hashgraph(sf_dir: str):
    """Weighted shortest-path distance from vertex 0 over the DIRECTED
    weighted hash graph (graph.sssp_distances — Bellman-Ford min-plus
    on the BSP shards). Float64 distances are hash-stable: every path
    sum is associated seed-outward (d_new = d_old + w), the identical
    recurrence the unrolled SQL oracle computes, so the IEEE bits
    match. Unreached -> -1.0 (none in this graph)."""
    from tldr_ray.graph import sssp_distances

    ids, dist, info = sssp_distances(_hash_graph_edges_weighted(sf_dir),
                                     seeds=[0], num_partitions=4)
    assert info["converged"], info
    dist = np.where(np.isinf(dist), -1.0, dist)
    return pa.table({"vertex": pa.array(ids), "dist": pa.array(dist)})


def _sssp_oracle_sql(rounds: int = _SSSP_UNROLL) -> str:
    """Bellman-Ford unrolled as chained CTEs (the kcore-oracle
    pattern — DuckDB 1.0 lacks USING KEY recursive CTEs, and a plain
    UNION recursion over float distances enumerates every distinct
    path sum). ``rounds`` must exceed the fixpoint round count
    (measured: 15 at sf0.01, 26 at sf0.1)."""
    ctes = []
    for i in range(1, rounds + 1):
        prev = f"r{i - 1}"
        ctes.append(f"""
    r{i} AS MATERIALIZED (
        SELECT r.v, least(r.d, coalesce(m.md, 'infinity'::DOUBLE)) AS d
        FROM {prev} r
        LEFT JOIN (
            SELECT e.t AS v, min(p.d + e.w) AS md
            FROM {prev} p JOIN e ON e.s = p.v
            WHERE p.d < 'infinity'::DOUBLE
            GROUP BY e.t
        ) m ON m.v = r.v
    )""")
    return f"""
    WITH {_HASHGRAPH_RAW},
    e AS (SELECT s, t, ((s * 31 + t * 17) % 97 + 1) / 100.0 AS w
          FROM raw2),
    verts AS (SELECT DISTINCT v FROM
              (SELECT s AS v FROM e UNION ALL SELECT t FROM e)),
    r0 AS (SELECT v, CASE WHEN v = 0 THEN 0.0
                          ELSE 'infinity'::DOUBLE END AS d FROM verts),
    {",".join(ctes)}
    SELECT v AS vertex,
           CASE WHEN d = 'infinity'::DOUBLE THEN -1.0 ELSE d END AS dist
    FROM r{rounds}
"""


QUERIES["sssp_hashgraph"] = sssp_hashgraph
ORACLE_SQL["sssp_hashgraph"] = _sssp_oracle_sql()


def events_nearby_pairs(sf_dir: str):
    """Band (range) join: every pair of DISTINCT events by the same
    user within +/-10 minutes of each other (stages.joins.range_join —
    bucketed hash shuffle + two rank-composite searchsorted calls per
    bucket, cumsum/repeat pair expansion)."""
    from tldr_ray.stages.joins import range_join

    events = _read(sf_dir, "events", ["event_id", "ts", "user_id"])
    out = range_join(events, events, on="user_id", left_ts="ts",
                     right_ts="ts", before="10m", after="10m")

    def finish(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.not_equal(batch["event_id"],
                                          batch["event_id_r"]))
        for c in ("ts", "ts_r"):
            i = batch.schema.get_field_index(c)
            batch = batch.set_column(
                i, c, batch[c].cast(pa.timestamp("us")))
        return batch

    return out.map_batches(finish, batch_format="pyarrow")


QUERIES["events_nearby_pairs"] = events_nearby_pairs
ORACLE_SQL["events_nearby_pairs"] = """
    SELECT a.event_id, a.ts, a.user_id,
           b.event_id AS event_id_r, b.ts AS ts_r
    FROM events a JOIN events b
    ON b.user_id = a.user_id AND b.event_id <> a.event_id
    AND b.ts BETWEEN a.ts - INTERVAL 10 MINUTE
                 AND a.ts + INTERVAL 10 MINUTE
"""

QUERIES["bfs_hops_hashgraph"] = bfs_hops_hashgraph
ORACLE_SQL["bfs_hops_hashgraph"] = f"""
    WITH RECURSIVE {_HASHGRAPH_RAW},
    sym AS (SELECT s, t FROM raw2 UNION SELECT t, s FROM raw2),
    verts AS (SELECT DISTINCT s AS v FROM sym),
    reach(v, d) AS (
        SELECT CAST(0 AS BIGINT), 0
        UNION
        SELECT sym.t, reach.d + 1
        FROM reach JOIN sym ON sym.s = reach.v
        WHERE reach.d < 64
    )
    SELECT verts.v AS vertex,
           CAST(coalesce(min(reach.d), -1) AS BIGINT) AS hops
    FROM verts LEFT JOIN reach ON reach.v = verts.v
    GROUP BY verts.v
"""


# ---------------------------------------------------------------------------
# LLM-curation ops: PII/denylist redaction, benchmark decontamination
# ---------------------------------------------------------------------------

_REDACT_PATTERN = (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
                   r"|\b(?:customer|supplier)\b")


def redact_terms_docs(sf_dir: str):
    """PII-scrub-shaped redaction (stages.text_analysis.regex_redact):
    one RE2 pattern covering email-shaped PII plus a project denylist
    term pair (the synth corpus has no real PII, so the denylist arm is
    what exercises the rewrite). Hash-checked on the FULL redacted
    strings — pyarrow and DuckDB share the RE2 dialect."""
    from tldr_ray.stages.text_analysis import regex_redact

    return regex_redact(_read(sf_dir, "documents", ["doc_id", "text"]),
                        _REDACT_PATTERN)


_CONTAM_K = 20


def decontaminate_docs(sf_dir: str):
    """Benchmark decontamination (stages.dedup.ngram_contamination):
    docs with doc_id % 20 == 0 stand in for a held-out eval set; every
    other doc reports how many DISTINCT char-20-gram FNV hashes it
    shares with that set (0 = clean; a training pipeline would drop or
    flag n_shared > 0). Zeros are kept so the result is never empty."""
    from tldr_ray.stages.dedup import ngram_contamination

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def side(keep_bench: bool):
        def fn(batch: pa.Table) -> pa.Table:
            is_bench = np.asarray(batch["doc_id"], np.int64) % 20 == 0
            return batch.filter(
                pa.array(is_bench if keep_bench else ~is_bench))
        return fn

    bench = docs.map_batches(side(True), batch_format="pyarrow")
    eval_side = docs.map_batches(side(False), batch_format="pyarrow")
    return ngram_contamination(eval_side, bench, k=_CONTAM_K)


def _contamination_oracle_sql(k: int = _CONTAM_K) -> str:
    M64 = 1 << 64
    steps = []
    prev = "g0"
    for j in range(k):
        cur = f"g{j + 1}"
        steps.append(f""",
    {cur} AS MATERIALIZED (
        SELECT doc_id, text, i,
               ((h - h % 256 + xor(CAST(h % 256 AS BIGINT),
                                   ord(substr(text, i + {j}, 1))))
                * 1099511628211) % {M64} AS h
        FROM {prev}
    )""")
        prev = cur
    return f"""
    WITH g0 AS (
        SELECT doc_id, text,
               unnest(range(1, length(text) - {k - 2})) AS i,
               CAST(14695981039346656037 AS HUGEINT) AS h
        FROM documents WHERE length(text) >= {k}
    ){"".join(steps)},
    grams AS MATERIALIZED (SELECT doc_id, h FROM {prev}),
    bench AS MATERIALIZED (
        SELECT DISTINCT h FROM grams WHERE doc_id % 20 = 0),
    hits AS (
        SELECT g.doc_id, count(DISTINCT g.h) AS n_shared
        FROM grams g JOIN bench b ON b.h = g.h
        WHERE g.doc_id % 20 <> 0
        GROUP BY g.doc_id)
    SELECT d.doc_id,
           CAST(coalesce(hits.n_shared, 0) AS BIGINT) AS n_shared
    FROM documents d LEFT JOIN hits ON hits.doc_id = d.doc_id
    WHERE d.doc_id % 20 <> 0
"""


QUERIES["redact_terms_docs"] = redact_terms_docs
ORACLE_SQL["redact_terms_docs"] = f"""
    SELECT doc_id,
           CAST(len(regexp_extract_all(text, '{_REDACT_PATTERN}'))
                AS BIGINT) AS n_matches,
           regexp_replace(text, '{_REDACT_PATTERN}', '[REDACTED]', 'g')
               AS redacted
    FROM documents
"""
QUERIES["decontaminate_docs"] = decontaminate_docs
ORACLE_SQL["decontaminate_docs"] = _contamination_oracle_sql()


def common_neighbors_hashgraph(sf_dir: str):
    """Link prediction over the hash graph: top-50 NON-adjacent vertex
    pairs by common-neighbor count (graph.triangles.common_neighbors —
    the triangle wedge sweep re-targeted at open wedges), deterministic
    total order (n_common desc, u asc, v asc)."""
    from tldr_ray.graph.triangles import common_neighbors

    pairs = common_neighbors(_hash_graph_edges(sf_dir))
    return pairs.sort(["n_common", "u", "v"],
                      descending=[True, False, False]).limit(50)


QUERIES["common_neighbors_hashgraph"] = common_neighbors_hashgraph
ORACLE_SQL["common_neighbors_hashgraph"] = f"""
    WITH {_HASHGRAPH_RAW},
    und AS (SELECT DISTINCT least(s, t) AS a, greatest(s, t) AS b
            FROM raw2),
    sym AS (SELECT a AS s, b AS t FROM und
            UNION ALL SELECT b, a FROM und),
    cn AS (
        SELECT e1.t AS u, e2.t AS v, count(*) AS n_common
        FROM sym e1 JOIN sym e2 ON e2.s = e1.s AND e1.t < e2.t
        GROUP BY 1, 2)
    SELECT cn.u, cn.v, CAST(cn.n_common AS BIGINT) AS n_common
    FROM cn LEFT JOIN und ON und.a = cn.u AND und.b = cn.v
    WHERE und.a IS NULL
    ORDER BY n_common DESC, u ASC, v ASC
    LIMIT 50
"""


_PACK_BUDGET = 2000


def doc_pack_shards(sf_dir: str):
    """Sequence packing for training shards: whitespace token counts
    (the doc_token_counts kernel) fed through the two-pass distributed
    prefix scan (stages.agg.pack_token_shards) — shard_id =
    floor(tokens_before_this_doc_in_id_order / budget). Exact integers,
    independent of block layout; the id range comes from the same
    dataset (one max() pass) to keep the query self-contained."""
    from tldr_ray.stages.agg import pack_token_shards

    return pack_token_shards(doc_token_counts(sf_dir), "doc_id",
                             "n_tokens", budget=_PACK_BUDGET)


QUERIES["doc_pack_shards"] = doc_pack_shards
ORACLE_SQL["doc_pack_shards"] = f"""
    WITH t AS (
        SELECT doc_id,
               len(regexp_split_to_array(trim(text), '\\s+')) AS n_tokens
        FROM documents)
    SELECT doc_id, n_tokens,
           CAST(coalesce(sum(n_tokens) OVER (
                    ORDER BY doc_id
                    ROWS BETWEEN UNBOUNDED PRECEDING
                             AND 1 PRECEDING), 0)
                // {_PACK_BUDGET} AS BIGINT) AS shard_id
    FROM t
"""


def docs_above_lang_median_quality(sf_dir: str):
    """Curation gate composition: per-language DISCRETE median of the
    quality composite (stages.agg.grouped_quantiles over
    stages.text_analysis.quality_scores), then keep docs at or above
    their language's median. The median table is one row per language —
    driver-collected and shipped in the filter closure (the classic
    small-side broadcast); scores and the >= comparison are the already
    hash-proven IEEE composite, and the discrete median is an actual
    element, so the whole filter hash-checks."""
    from tldr_ray.stages.agg import grouped_quantiles
    from tldr_ray.stages.text_analysis import quality_scores

    q = quality_scores(_read(sf_dir, "documents",
                             ["doc_id", "text", "lang"]), concurrency=2)
    scored = q.map_batches(
        lambda t: t.select(["doc_id", "lang", "quality_score"]),
        batch_format="pyarrow")
    med = grouped_quantiles(scored, key="lang", value="quality_score",
                            qs=(0.5,)).to_pandas()
    langs = np.sort(med["lang"].to_numpy(dtype=object))
    meds = med.set_index("lang").loc[langs, "p50"].to_numpy(np.float64)

    def gate(batch: pa.Table) -> pa.Table:
        lg = batch["lang"].to_numpy(zero_copy_only=False).astype(object)
        pos = np.searchsorted(langs, lg)
        keep = np.asarray(batch["quality_score"]) >= meds[pos]
        return batch.filter(pa.array(keep))

    return scored.map_batches(gate, batch_format="pyarrow")


QUERIES["docs_above_lang_median_quality"] = docs_above_lang_median_quality
ORACLE_SQL["docs_above_lang_median_quality"] = f"""
    WITH q AS ({_quality_scores_oracle_sql()}),
    base AS (
        SELECT q.doc_id, d.lang, q.quality_score
        FROM q JOIN documents d USING (doc_id)),
    med AS (
        SELECT lang, quantile_disc(quality_score, 0.5) AS m
        FROM base GROUP BY lang)
    SELECT b.doc_id, b.lang, b.quality_score
    FROM base b JOIN med USING (lang)
    WHERE b.quality_score >= med.m
"""


def degree_assortativity_hashgraph(sf_dir: str):
    """Graph-level degree assortativity (graph.triangles.
    degree_assortativity): exact integer moment sums + one IEEE
    division, hash-checked against the SQL mirror."""
    from tldr_ray.graph.triangles import degree_assortativity

    m, s1, s2, s11, r = degree_assortativity(_hash_graph_edges(sf_dir))
    return pa.table({"m_edges": pa.array([m], pa.int64()),
                     "s1": pa.array([s1], pa.int64()),
                     "s2": pa.array([s2], pa.int64()),
                     "s11": pa.array([s11], pa.int64()),
                     "assortativity": pa.array([r], pa.float64())})


QUERIES["degree_assortativity_hashgraph"] = degree_assortativity_hashgraph
ORACLE_SQL["degree_assortativity_hashgraph"] = f"""
    WITH {_HASHGRAPH_RAW},
    und AS (SELECT DISTINCT least(s, t) AS a, greatest(s, t) AS b
            FROM raw2),
    sym AS (SELECT a AS s, b AS t FROM und
            UNION ALL SELECT b, a FROM und),
    deg AS (SELECT s AS v, count(*) AS d FROM sym GROUP BY s),
    j AS (SELECT ds.d AS du, dt.d AS dv
          FROM sym JOIN deg ds ON ds.v = sym.s
                   JOIN deg dt ON dt.v = sym.t),
    mom AS (SELECT CAST(count(*) AS HUGEINT) AS m,
                   CAST(sum(du) AS HUGEINT) AS s1,
                   CAST(sum(du * du) AS HUGEINT) AS s2,
                   CAST(sum(du * dv) AS HUGEINT) AS s11
            FROM j)
    SELECT CAST(m AS BIGINT) AS m_edges, CAST(s1 AS BIGINT) AS s1,
           CAST(s2 AS BIGINT) AS s2, CAST(s11 AS BIGINT) AS s11,
           CAST(m * s11 - s1 * s1 AS DOUBLE)
               / CAST(m * s2 - s1 * s1 AS DOUBLE) AS assortativity
    FROM mom
"""


def orders_events_daily_outer(sf_dir: str):
    """FULL OUTER join of two pre-aggregated daily activity tables
    (bucketed_hash_join how='outer'): days with only orders or only
    events keep their row, missing side = -1 sentinel (mirrored
    coalesce keeps the all-integer frame hash-stable)."""
    from ray.data.aggregate import Sum

    from tldr_ray.stages.joins import bucketed_hash_join

    DAY = 86_400_000_000

    def daily(col):
        def fn(batch: pa.Table) -> pa.Table:
            d = np.asarray(batch[col].cast(pa.int64())) // DAY
            du, cnt = np.unique(d, return_counts=True)
            return pa.table({"day": pa.array(du),
                             "n": pa.array(cnt.astype(np.int64))})
        return fn

    o = (_read(sf_dir, "orders", ["o_orderdate"])
         .map_batches(daily("o_orderdate"), batch_format="pyarrow")
         .groupby("day").aggregate(Sum("n", alias_name="n_orders")))
    e = (_read(sf_dir, "events", ["ts"])
         .map_batches(daily("ts"), batch_format="pyarrow")
         .groupby("day").aggregate(Sum("n", alias_name="n_events")))

    out = bucketed_hash_join(o, e, on="day", how="outer")

    def seal(batch: pd.DataFrame) -> pd.DataFrame:
        for c in ("n_orders", "n_events"):
            batch[c] = batch[c].fillna(-1).astype(np.int64)
        batch["day"] = batch["day"].astype(np.int64)
        return batch[["day", "n_orders", "n_events"]]

    return out.map_batches(seal, batch_format="pandas")


QUERIES["orders_events_daily_outer"] = orders_events_daily_outer
ORACLE_SQL["orders_events_daily_outer"] = """
    WITH o AS (SELECT CAST(epoch_us(o_orderdate) // 86400000000
                           AS BIGINT) AS day,
                      CAST(count(*) AS BIGINT) AS n_orders
               FROM orders GROUP BY 1),
    e AS (SELECT CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                 CAST(count(*) AS BIGINT) AS n_events
          FROM events GROUP BY 1)
    SELECT coalesce(o.day, e.day) AS day,
           coalesce(o.n_orders, -1) AS n_orders,
           coalesce(e.n_events, -1) AS n_events
    FROM o FULL OUTER JOIN e ON e.day = o.day
"""


_WALK_LEN = 4


def random_walks_hashgraph(sf_dir: str):
    """Deterministic hash-driven random walks (graph.walks.
    random_walks) over the hash graph: one walk per vertex, 4 steps,
    next hop = sorted-neighbor[splitmix64(v*K + step) % deg(v)].
    Reproducible across engines, so the full (start, step, vertex)
    walk corpus hash-checks against the unrolled SQL mirror."""
    from tldr_ray.graph.walks import random_walks

    return random_walks(_hash_graph_edges(sf_dir), walk_len=_WALK_LEN)


def _walks_oracle_sql(walk_len: int = _WALK_LEN) -> str:
    from tldr_ray.graph.walks import _WALK_K

    M64 = _SQL_M64
    C1, C2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
    steps, finals = [], ["SELECT start, 0 AS step, start AS vertex FROM w0"]
    for t in range(1, walk_len + 1):
        h0 = f"({_sql_mul64('CAST(cur AS HUGEINT)', _WALK_K)} + {t}) % {M64}"
        steps.append(f""",
    p{t}0 AS MATERIALIZED (
        SELECT start, cur, {h0} AS h FROM w{t - 1}),
    p{t}1 AS MATERIALIZED (
        SELECT start, cur, {_sql_mul64(_sql_xor_shift('h', 30), C1)} AS h
        FROM p{t}0),
    p{t}2 AS MATERIALIZED (
        SELECT start, cur, {_sql_mul64(_sql_xor_shift('h', 27), C2)} AS h
        FROM p{t}1),
    p{t}3 AS MATERIALIZED (
        SELECT start, cur, {_sql_xor_shift('h', 31)} AS h FROM p{t}2),
    w{t} AS MATERIALIZED (
        SELECT p.start, a.nbr AS cur
        FROM p{t}3 p
        JOIN deg ON deg.v = p.cur
        JOIN adj a ON a.v = p.cur
                  AND a.idx = CAST(p.h % CAST(deg.d AS HUGEINT)
                                   AS BIGINT))""")
        finals.append(f"SELECT start, {t} AS step, cur AS vertex FROM w{t}")
    return f"""
    WITH {_HASHGRAPH_RAW},
    und AS (SELECT DISTINCT least(s, t) AS a, greatest(s, t) AS b
            FROM raw2),
    sym AS (SELECT a AS s, b AS t FROM und
            UNION ALL SELECT b, a FROM und),
    deg AS (SELECT s AS v, count(*) AS d FROM sym GROUP BY s),
    adj AS (SELECT s AS v, t AS nbr,
                   row_number() OVER (PARTITION BY s ORDER BY t) - 1
                       AS idx
            FROM sym),
    w0 AS (SELECT DISTINCT s AS start, s AS cur FROM sym)
    {"".join(steps)}
    SELECT CAST(start AS BIGINT) AS start, CAST(step AS BIGINT) AS step,
           CAST(vertex AS BIGINT) AS vertex
    FROM ({" UNION ALL ".join(finals)})
"""


QUERIES["random_walks_hashgraph"] = random_walks_hashgraph
ORACLE_SQL["random_walks_hashgraph"] = _walks_oracle_sql()


# ---------------------------------------------------------------------------
# Search-tier ops: inverted index, boolean search, lift collocations
# ---------------------------------------------------------------------------

def inverted_index_stats_docs(sf_dir: str):
    """Per-term posting-list stats over the shuffle-free inverted
    index (stages.text_analysis.build_inverted_index): document
    frequency + corpus tf. The groupby output is vocabulary-sized —
    tiny by construction — and every count is an exact integer."""
    from ray.data.aggregate import Count, Sum

    from tldr_ray.stages.text_analysis import build_inverted_index

    idx = build_inverted_index(
        _read(sf_dir, "documents", ["doc_id", "text"]))

    def seal(batch: pa.Table) -> pa.Table:
        return pa.table({
            "term": batch["term"],
            "df": batch["df"].cast(pa.int64()),
            "total_tf": batch["total_tf"].cast(pa.int64())})

    return (idx.groupby("term")
            .aggregate(Count(alias_name="df"),
                       Sum("tf", alias_name="total_tf"))
            .map_batches(seal, batch_format="pyarrow"))


_SEARCH_TERMS = ["dup", "join", "scan"]


def boolean_search_docs(sf_dir: str):
    """Top-20 AND-search ('dup' is the rare selective term) over the
    inverted index — stages.text_analysis.boolean_and_search."""
    from tldr_ray.stages.text_analysis import (boolean_and_search,
                                               build_inverted_index)

    idx = build_inverted_index(
        _read(sf_dir, "documents", ["doc_id", "text"]))
    return boolean_and_search(idx, _SEARCH_TERMS, k=20)


def lift_bigrams_docs(sf_dir: str):
    """Collocation mining by lift (the PMI exponential up to one
    constant factor): lift(x,y) = c(xy) * W / (c(x) * c(y)) with W the
    corpus token count. Bigram counts move as distinct pairs (the
    top_bigrams combiner); unigram counts are a vocabulary-sized
    broadcast (size-gated — flip to a bucketed join on w1/w2 when a
    vocab outgrows one object). All inputs are exact int64 and the
    score is ONE IEEE division of two exact-below-2^53 products, so
    the float hash-matches DuckDB. Deterministic top-100
    (lift desc, w1, w2) over pairs with support >= 5."""
    import ray
    from ray.data.aggregate import Sum

    docs = _read(sf_dir, "documents", ["text"])

    def toks(batch: pa.Table):
        t = pc.split_pattern_regex(
            pc.utf8_trim_whitespace(pc.utf8_lower(batch["text"])),
            r"\s+")
        if isinstance(t, pa.ChunkedArray):
            t = t.combine_chunks()
        flat = pc.list_flatten(t)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        off = np.asarray(t.offsets, dtype=np.int64)
        doc_of = np.repeat(np.arange(len(batch), dtype=np.int64),
                           np.diff(off))
        keep = np.asarray(pc.greater(pc.utf8_length(flat), 0))
        return doc_of[keep], np.asarray(flat)[keep]

    def upart(batch: pa.Table) -> pa.Table:
        _, w = toks(batch)
        u, c = np.unique(w, return_counts=True)
        return pa.table({"w": pa.array(u.tolist(), pa.string()),
                         "cw": pa.array(c.astype(np.int64))})

    uni = (docs.map_batches(upart, batch_format="pyarrow")
           .groupby("w").aggregate(Sum("cw", alias_name="cw"))
           .to_pandas())
    vocab = np.sort(uni["w"].to_numpy(object))
    cw = uni.set_index("w")["cw"].loc[vocab].to_numpy(np.int64)
    W = int(cw.sum())
    vref = ray.put((vocab, cw))

    def bpart(batch: pa.Table) -> pa.Table:
        doc_of, w = toks(batch)
        if w.size < 2:
            return pa.table({"w1": pa.array([], pa.string()),
                             "w2": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        same = doc_of[1:] == doc_of[:-1]
        w1, w2 = w[:-1][same], w[1:][same]
        u1, c1 = np.unique(w1, return_inverse=True)
        u2, c2 = np.unique(w2, return_inverse=True)
        key = c1.astype(np.int64) * max(len(u2), 1) + c2
        uk, cnt = np.unique(key, return_counts=True)
        return pa.table({
            "w1": pa.array(u1[uk // max(len(u2), 1)].tolist(),
                           pa.string()),
            "w2": pa.array(u2[uk % max(len(u2), 1)].tolist(),
                           pa.string()),
            "n": pa.array(cnt.astype(np.int64))})

    bg = (docs.map_batches(bpart, batch_format="pyarrow")
          .groupby(["w1", "w2"]).aggregate(Sum("n", alias_name="n")))

    def score(batch: pa.Table) -> pa.Table:
        vw, counts = ray.get(vref)
        n = np.asarray(batch["n"], dtype=np.int64)
        m = n >= 5
        w1 = np.asarray(batch["w1"])[m]
        w2 = np.asarray(batch["w2"])[m]
        n = n[m]
        c1 = counts[np.searchsorted(vw, w1)]
        c2 = counts[np.searchsorted(vw, w2)]
        lift = (n * np.int64(W)).astype(np.float64) \
            / (c1 * c2).astype(np.float64)
        return pa.table({
            "w1": pa.array(w1.tolist(), pa.string()),
            "w2": pa.array(w2.tolist(), pa.string()),
            "n": pa.array(n),
            "lift": pa.array(lift)})

    return (bg.map_batches(score, batch_format="pyarrow")
            .sort(["lift", "w1", "w2"], descending=[True, False, False])
            .limit(100))


_SEARCH_TOKS_CTE = """
    toks AS (
        SELECT doc_id, w FROM (
            SELECT doc_id,
                   unnest(regexp_split_to_array(trim(lower(text)),
                                                '\\s+')) AS w
            FROM documents)
        WHERE w != '')
"""

QUERIES["inverted_index_stats_docs"] = inverted_index_stats_docs
ORACLE_SQL["inverted_index_stats_docs"] = f"""
    WITH {_SEARCH_TOKS_CTE},
    post AS (SELECT w, doc_id, count(*) AS tf FROM toks GROUP BY 1, 2)
    SELECT w AS term, CAST(count(*) AS BIGINT) AS df,
           CAST(sum(tf) AS BIGINT) AS total_tf
    FROM post GROUP BY w
"""
QUERIES["boolean_search_docs"] = boolean_search_docs
ORACLE_SQL["boolean_search_docs"] = f"""
    WITH {_SEARCH_TOKS_CTE},
    post AS (SELECT w, doc_id, CAST(count(*) AS BIGINT) AS tf
             FROM toks WHERE w IN ('dup', 'join', 'scan')
             GROUP BY 1, 2)
    SELECT doc_id, CAST(sum(tf) AS BIGINT) AS sum_tf
    FROM post GROUP BY doc_id HAVING count(*) = 3
    ORDER BY sum_tf DESC, doc_id ASC LIMIT 20
"""
QUERIES["lift_bigrams_docs"] = lift_bigrams_docs
ORACLE_SQL["lift_bigrams_docs"] = """
    WITH toks AS (
        SELECT doc_id, i, w FROM (
            SELECT doc_id,
                   unnest(regexp_split_to_array(trim(lower(text)),
                                                '\\s+')) AS w,
                   generate_subscripts(
                       regexp_split_to_array(trim(lower(text)),
                                             '\\s+'), 1) AS i
            FROM documents)
        WHERE w != ''),
    uni AS (SELECT w, CAST(count(*) AS BIGINT) AS cw
            FROM toks GROUP BY w),
    tot AS (SELECT CAST(count(*) AS BIGINT) AS W FROM toks),
    bc AS (
        SELECT a.w AS w1, b.w AS w2, CAST(count(*) AS BIGINT) AS n
        FROM toks a JOIN toks b
          ON b.doc_id = a.doc_id AND b.i = a.i + 1
        GROUP BY 1, 2 HAVING count(*) >= 5)
    SELECT bc.w1, bc.w2, bc.n,
           CAST(bc.n * t.W AS DOUBLE)
               / CAST(u1.cw * u2.cw AS DOUBLE) AS lift
    FROM bc
    CROSS JOIN tot t
    JOIN uni u1 ON u1.w = bc.w1
    JOIN uni u2 ON u2.w = bc.w2
    ORDER BY lift DESC, w1 ASC, w2 ASC LIMIT 100
"""


# ---------------------------------------------------------------------------
# k-truss decomposition over the hash graph
# ---------------------------------------------------------------------------

_TRUSS_K, _TRUSS_SQL_ROUNDS = 4, 3


def ktruss_hashgraph(sf_dir: str):
    """4-truss of the hash graph (graph.triangles.k_truss): edges kept
    iff they close >= 2 triangles within the surviving subgraph,
    peeled to fixpoint. The engine early-stops at the fixpoint; the
    SQL mirror unrolls 3 peel rounds (one more than the measured
    fixpoint depth — peeling a fixpoint is a no-op, so the unrolled
    form is bit-equivalent)."""
    from tldr_ray.graph.triangles import k_truss

    return k_truss(_hash_graph_edges(sf_dir), _TRUSS_K, max_rounds=10)


def _ktruss_oracle_sql(k: int = _TRUSS_K,
                       rounds: int = _TRUSS_SQL_ROUNDS) -> str:
    steps = []
    for r in range(rounds):
        steps.append(f""",
    s{r} AS MATERIALIZED (SELECT a AS s, b AS t FROM e{r}
                          UNION ALL SELECT b, a FROM e{r}),
    e{r + 1} AS MATERIALIZED (
        SELECT e.a, e.b
        FROM e{r} e
        JOIN s{r} x ON x.s = e.a
        JOIN s{r} y ON y.s = e.b AND y.t = x.t
        GROUP BY e.a, e.b
        HAVING count(*) >= {k - 2})""")
    return f"""
    WITH {_HASHGRAPH_RAW},
    e0 AS MATERIALIZED (
        SELECT DISTINCT least(s, t) AS a, greatest(s, t) AS b
        FROM raw2)
    {"".join(steps)}
    SELECT CAST(a AS BIGINT) AS u, CAST(b AS BIGINT) AS v
    FROM e{rounds}
"""


QUERIES["ktruss_hashgraph"] = ktruss_hashgraph
ORACLE_SQL["ktruss_hashgraph"] = _ktruss_oracle_sql()


# ---------------------------------------------------------------------------
# Eccentricity / diameter probing: one CSR build, K BSP BFS sweeps
# ---------------------------------------------------------------------------

_ECC_SEEDS = [0, 1, 2, 7]


def eccentricity_hashgraph(sf_dir: str):
    """Per-seed eccentricity over the symmetrized hash graph — the
    multi-probe BFS diameter lower bound (max eccentricity across
    probes <= true diameter, within 2x of it for connected graphs).
    The CSR shards build ONCE (GraphEngine.from_edges); each probe is
    one BSP min-plus BFS reusing the resident shard hosts, so K
    probes cost K iteration loops but zero extra shuffles. Output is
    K exact-integer rows: (seed, eccentricity over reached vertices,
    n_reached)."""
    from tldr_ray.graph.engine import GraphEngine

    eng = GraphEngine.from_edges(_hash_graph_edges(sf_dir),
                                 num_partitions=4, symmetrize=True)
    sentinel = np.iinfo(np.int64).max
    rows = []
    try:
        for seed in _ECC_SEEDS:
            _, dist, _ = eng.bfs([seed])
            reached = dist[dist != sentinel]
            rows.append((int(seed), int(reached.max()),
                         int(reached.size)))
    finally:
        eng.shutdown()
    return pa.table({
        "seed": pa.array([r[0] for r in rows], pa.int64()),
        "eccentricity": pa.array([r[1] for r in rows], pa.int64()),
        "n_reached": pa.array([r[2] for r in rows], pa.int64())})


def _ecc_oracle_sql(seeds=tuple(_ECC_SEEDS)) -> str:
    probes = []
    for s in seeds:
        probes.append(f"""
    reach{s}(v, d) AS (
        SELECT CAST({s} AS BIGINT), 0
        UNION
        SELECT sym.t, r.d + 1
        FROM reach{s} r JOIN sym ON sym.s = r.v
        WHERE r.d < 64
    ),
    ecc{s} AS (
        SELECT CAST({s} AS BIGINT) AS seed,
               CAST(max(md) AS BIGINT) AS eccentricity,
               CAST(count(*) AS BIGINT) AS n_reached
        FROM (SELECT v, min(d) AS md FROM reach{s} GROUP BY v))""")
    finals = " UNION ALL ".join(
        f"SELECT * FROM ecc{s}" for s in seeds)
    return f"""
    WITH RECURSIVE {_HASHGRAPH_RAW},
    sym AS (SELECT s, t FROM raw2 UNION SELECT t, s FROM raw2),
    {",".join(probes)}
    {finals}
"""


QUERIES["eccentricity_hashgraph"] = eccentricity_hashgraph
ORACLE_SQL["eccentricity_hashgraph"] = _ecc_oracle_sql()


# ---------------------------------------------------------------------------
# Data-mixing: per-language token-budget capping
# ---------------------------------------------------------------------------

_LANG_TOKEN_BUDGET = 2000


def lang_token_budget_docs(sf_dir: str):
    """Per-language token-budget selection (stages.agg.budget_cap):
    languages keep their LONGEST documents first (n_tokens desc,
    doc_id asc) until 2000 tokens are spent — the deterministic
    data-mixing rule for balancing domains in a training corpus. Token
    counts are the word_frequency whitespace convention; everything is
    exact integers so the running sums hash-match SQL windows."""
    from tldr_ray.stages.agg import budget_cap

    def derive(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_trim_whitespace(pc.utf8_lower(batch["text"])),
            r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        off = np.asarray(toks.offsets, dtype=np.int64)
        doc_of = np.repeat(np.arange(len(batch), dtype=np.int64),
                           np.diff(off))
        nonempty = np.asarray(pc.greater(pc.utf8_length(flat), 0))
        n_tok = np.bincount(doc_of[nonempty],
                            minlength=len(batch)).astype(np.int64)
        return pa.table({
            "doc_id": batch["doc_id"].cast(pa.int64()),
            "lang": batch["lang"],
            "neg_tokens": pa.array(-n_tok),
            "n_tokens": pa.array(n_tok)})

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "text"]) \
        .map_batches(derive, batch_format="pyarrow")
    capped = budget_cap(ds, "lang", "n_tokens",
                        ["neg_tokens", "doc_id"],
                        budget=_LANG_TOKEN_BUDGET)

    def seal(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch["doc_id"].cast(pa.int64()),
            "lang": batch["lang"],
            "n_tokens": batch["n_tokens"].cast(pa.int64()),
            "cum_tokens": batch["cum_n_tokens"].cast(pa.int64())})

    return capped.map_batches(seal, batch_format="pyarrow")


QUERIES["lang_token_budget_docs"] = lang_token_budget_docs
ORACLE_SQL["lang_token_budget_docs"] = f"""
    WITH d AS (
        SELECT doc_id, lang,
               CAST(len(list_filter(
                   regexp_split_to_array(trim(lower(text)), '\\s+'),
                   x -> x <> '')) AS BIGINT) AS n_tokens
        FROM documents),
    w AS (
        SELECT doc_id, lang, n_tokens,
               CAST(sum(n_tokens) OVER (
                   PARTITION BY lang
                   ORDER BY -n_tokens ASC, doc_id ASC
                   ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum_tokens
        FROM d)
    SELECT doc_id, lang, n_tokens, cum_tokens
    FROM w WHERE cum_tokens <= {_LANG_TOKEN_BUDGET}
"""


# ---------------------------------------------------------------------------
# Event-sequence mining: per-user transition (Markov) counts
# ---------------------------------------------------------------------------

def event_transitions(sf_dir: str):
    """First-order event-type transition counts over each user's
    time-ordered stream — the Markov-chain / session-flow mining op.
    Event types become small integer codes via one tiny distinct pass
    (the vocabulary is O(types)), the lag pairs come from the SAME
    one-shuffle row_window sweep as events_user_running, and the pair
    counts pre-combine per batch before a vocabulary-sized groupby.
    Names decode only on the final |types|^2-bounded table."""
    from ray.data.aggregate import Sum

    from tldr_ray.stages.windows import row_window

    types = sorted(set(
        _read(sf_dir, "events", ["event_type"])
        .groupby("event_type").count().to_pandas()["event_type"]))
    tarr = np.array(types, dtype=object)

    def prep(batch: pa.Table) -> pa.Table:
        code = np.searchsorted(tarr, np.asarray(batch["event_type"]))
        return pa.table({
            "user_id": batch["user_id"],
            "ts_us": batch["ts"].cast(pa.int64()),
            "event_id": batch["event_id"],
            "type_code": pa.array(code.astype(np.int64))})

    w = row_window(
        _read(sf_dir, "events", ["event_id", "user_id", "ts",
                                 "event_type"])
        .map_batches(prep, batch_format="pyarrow"),
        "user_id", ["ts_us", "event_id", "type_code"],
        lag_cols=("type_code",))

    def pairs(batch: pa.Table) -> pa.Table:
        prev = np.asarray(batch["lag_type_code"], dtype=np.int64)
        cur = np.asarray(batch["type_code"], dtype=np.int64)
        m = prev >= 0
        key = prev[m] * np.int64(len(types)) + cur[m]
        u, c = np.unique(key, return_counts=True)
        return pa.table({"key": pa.array(u),
                         "n": pa.array(c.astype(np.int64))})

    agg = (w.map_batches(pairs, batch_format="pyarrow")
           .groupby("key").aggregate(Sum("n", alias_name="n"))
           .to_pandas())
    k = agg["key"].to_numpy(np.int64)
    return pa.table({
        "prev_type": pa.array(tarr[k // len(types)].tolist(),
                              pa.string()),
        "next_type": pa.array(tarr[k % len(types)].tolist(),
                              pa.string()),
        "n": pa.array(agg["n"].to_numpy(np.int64))})


QUERIES["event_transitions"] = event_transitions
ORACLE_SQL["event_transitions"] = """
    WITH w AS (
        SELECT user_id, event_type,
               lag(event_type) OVER (
                   PARTITION BY user_id
                   ORDER BY epoch_us(ts), event_id) AS prev
        FROM events)
    SELECT prev AS prev_type, event_type AS next_type,
           CAST(count(*) AS BIGINT) AS n
    FROM w WHERE prev IS NOT NULL
    GROUP BY prev, event_type
"""


# ---------------------------------------------------------------------------
# Multimodal near-dup: perceptual dHash + banded hamming pairs
# ---------------------------------------------------------------------------

def image_phash_dups(sf_dir: str):
    """Perceptual-hash image dedup over binary media payloads
    (sf_dir unused by design — payloads are deterministic synthetic
    PPMs): every third image gets a planted near-duplicate (a few
    pixels nudged, re-encoded), images decode in an actor pool to
    64-bit dHash signatures (stages.multimodal.image_dhash), and
    near-pairs come from the banded hamming sweep
    (stages.dedup.signature_pairs, pigeonhole recall). Rows-only by
    nature (binary decode is not SQL-expressible); the pytest oracle
    asserts exact planted-pair recovery."""
    import ray.data as rd

    from tldr_ray.stages.dedup import signature_pairs
    from tldr_ray.stages.multimodal import (image_dhash, perturb_ppm,
                                            synth_media_table)

    media = synth_media_table(150)
    imgs = media.filter(pc.equal(media["kind"], "image"))
    ids = imgs["media_id"].to_pylist()
    payloads = imgs["payload"].to_pylist()
    mimes = imgs["mime"].to_pylist()
    dup_ids, dup_payloads, dup_mimes = [], [], []
    for i, (mid, p, m) in enumerate(zip(ids, payloads, mimes)):
        if i % 3 == 0:
            dup_ids.append(10_000 + mid)
            dup_payloads.append(perturb_ppm(p, seed=mid))
            dup_mimes.append(m)
    tab = pa.table({
        "media_id": pa.array(ids + dup_ids, pa.int64()),
        "payload": pa.array(payloads + dup_payloads, pa.binary()),
        "mime": pa.array(mimes + dup_mimes, pa.string())})
    sigs = image_dhash(rd.from_arrow(tab))
    return signature_pairs(sigs, id_col="media_id", sig_col="phash",
                           max_hamming=10)


QUERIES["image_phash_dups"] = image_phash_dups


def audio_phash_dups(sf_dir: str):
    """Perceptual audio dedup over binary WAV payloads (sf_dir unused
    by design — deterministic synthetic tones): every third clip gets
    a planted near-duplicate (tiny sample noise, re-encoded), clips
    decode in an actor pool to 64-bit spectral difference-hash
    fingerprints (stages.multimodal.audio_fingerprints), and
    near-pairs come from the same banded hamming sweep as images.
    Rows-only (binary decode); pytest asserts planted-pair recovery
    with zero false positives."""
    import ray.data as rd

    from tldr_ray.stages.dedup import signature_pairs
    from tldr_ray.stages.multimodal import (audio_fingerprints,
                                            perturb_wav,
                                            synth_media_table)

    media = synth_media_table(150)
    auds = media.filter(pc.equal(media["kind"], "audio"))
    ids = auds["media_id"].to_pylist()
    payloads = auds["payload"].to_pylist()
    dup_ids, dup_payloads = [], []
    for i, (mid, p) in enumerate(zip(ids, payloads)):
        if i % 3 == 0:
            dup_ids.append(10_000 + mid)
            dup_payloads.append(perturb_wav(p, seed=mid))
    tab = pa.table({
        "media_id": pa.array(ids + dup_ids, pa.int64()),
        "payload": pa.array(payloads + dup_payloads, pa.binary())})
    sigs = audio_fingerprints(rd.from_arrow(tab))
    return signature_pairs(sigs, id_col="media_id", sig_col="phash",
                           max_hamming=4)


QUERIES["audio_phash_dups"] = audio_phash_dups


def pca_embeddings(sf_dir: str):
    """Distributed exact PCA (stages.ann.pca_fit/pca_transform): fit
    top-4 principal components from one-pass (sum, Gram) partials, then
    project every embedding. Rows-only by nature (eigendecomposition +
    block-order float sums); the pytest oracle checks subspace
    agreement with full-matrix numpy PCA."""
    from tldr_ray.stages.ann import pca_fit, pca_transform

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    mu, comps, _, _ = pca_fit(ds, k=4)
    return pca_transform(_read(sf_dir, "embeddings",
                               ["vec_id", "embedding"]), mu, comps)


QUERIES["pca_embeddings"] = pca_embeddings


# ---------------------------------------------------------------------------
# Fuzzy string-similarity dedup: LSH-blocked exact Jaro
# ---------------------------------------------------------------------------

def jaro_dup_docs(sf_dir: str):
    """Fuzzy near-dup pairs at textbook Jaro >= 0.9 among MinHash-LSH
    candidates (stages.dedup.fuzzy_jaro_pairs) — the reference's
    Distance idea lifted to corpus scale, hash-checked INCLUDING the
    float scores because kernel.distance.jaro_standard is bit-equal to
    DuckDB's jaro_similarity."""
    from tldr_ray.stages.dedup import fuzzy_jaro_pairs

    return fuzzy_jaro_pairs(
        _read(sf_dir, "documents", ["doc_id", "text"]),
        threshold=0.9, block_cut=0.4)


def _jaro_oracle_sql(threshold: float = 0.9,
                     block_cut: float = 0.4) -> str:
    return _minhash64_base_cte() + f""",
    cand AS MATERIALIZED (
        SELECT a.doc_id AS id_a, b.doc_id AS id_b
        FROM m a JOIN m b ON a.doc_id < b.doc_id
        WHERE ({_lsh_band_collision()})
          AND {_sig_match_fraction()} >= {block_cut}
    )
    SELECT c.id_a, c.id_b,
           jaro_similarity(da.text, db.text) AS jaro
    FROM cand c
    JOIN documents da ON da.doc_id = c.id_a
    JOIN documents db ON db.doc_id = c.id_b
    WHERE jaro_similarity(da.text, db.text) >= {threshold}
"""


QUERIES["jaro_dup_docs"] = jaro_dup_docs
ORACLE_SQL["jaro_dup_docs"] = _jaro_oracle_sql()


# ---------------------------------------------------------------------------
# Join-family completeness: SEMI join; grouped sample
# ---------------------------------------------------------------------------

def parts_with_returns(sf_dir: str):
    """Parts with at least one full-quantity RETURNED lineitem — EXISTS via
    the bucketed SEMI join (stages.joins.bucketed_semi_join): only the
    right side's key column enters its shuffle, left rows emit at most
    once regardless of match multiplicity."""
    from tldr_ray.stages.joins import bucketed_semi_join

    part = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_type"])

    def rfil(batch: pa.Table) -> pa.Table:
        m = pc.and_(pc.equal(batch["l_returnflag"], "R"),
                    pc.greater(batch["l_quantity"], 48.0))
        t = batch.filter(m)
        return pa.table({"p_partkey": t["l_partkey"].cast(pa.int64())})

    returned = _read(sf_dir, "lineitem",
                     ["l_partkey", "l_returnflag", "l_quantity"]) \
        .map_batches(rfil, batch_format="pyarrow")

    out = bucketed_semi_join(part, returned, on="p_partkey")

    def seal(batch: pd.DataFrame) -> pd.DataFrame:
        batch["p_partkey"] = batch["p_partkey"].astype(np.int64)
        return batch[["p_partkey", "p_brand", "p_type"]]

    return out.map_batches(seal, batch_format="pandas")


def sample3_docs_per_lang(sf_dir: str):
    """Per-language deterministic 3-doc hash sample
    (stages.agg.grouped_bottomk) — bottom-k twin keyed per group,
    mirrored by the shared FNV/splitmix CTEs + a partitioned
    row_number."""
    from tldr_ray.stages.agg import grouped_bottomk

    out = grouped_bottomk(
        _read(sf_dir, "documents", ["doc_id", "lang"]),
        "lang", "doc_id", k=3)

    def seal(batch: pa.Table) -> pa.Table:
        return pa.table({
            "lang": batch["lang"],
            "doc_id": pa.array(
                np.asarray(batch["doc_id"].to_pandas(), np.int64)),
            "key_hash": batch["key_hash"].cast(pa.int64()),
            "rn": batch["rn"].cast(pa.int64())})

    return out.map_batches(seal, batch_format="pyarrow")


QUERIES["parts_with_returns"] = parts_with_returns
ORACLE_SQL["parts_with_returns"] = """
    SELECT p_partkey, p_brand, p_type FROM part
    WHERE EXISTS (SELECT 1 FROM lineitem
                  WHERE l_partkey = p_partkey AND l_returnflag = 'R'
                    AND l_quantity > 48.0)
"""
QUERIES["sample3_docs_per_lang"] = sample3_docs_per_lang
ORACLE_SQL["sample3_docs_per_lang"] = f"""
    WITH RECURSIVE {_sql_fnv_cte(
        "SELECT DISTINCT CAST(doc_id AS VARCHAR) AS s FROM documents")},
    {_sql_splitmix_ctes("hh", carry="s, ")},
    r AS (
        SELECT d.lang, CAST(m3.s AS BIGINT) AS doc_id, m3.h,
               row_number() OVER (
                   PARTITION BY d.lang ORDER BY m3.h, m3.s) AS rn
        FROM m3 JOIN documents d ON d.doc_id = CAST(m3.s AS BIGINT))
    SELECT lang, doc_id, {_sql_s2b('h')} AS key_hash,
           CAST(rn AS BIGINT) AS rn
    FROM r WHERE rn <= 3
"""


# ---------------------------------------------------------------------------
# TPC-H Q22 shape — exact-integer global-threshold predicate
# ---------------------------------------------------------------------------


def tpch_q22_idle_rich_customers(sf_dir: str):
    """Q22-shaped: customers with above-average account balance and NO
    activity in the event log (every synth customer has orders, so the
    idle predicate uses events — same EXISTS shape as Q22's no-orders
    clause). The average is never materialized as a float: customer c
    qualifies iff acctbal_cents * n_customers > total_cents (exact
    int64 cross-multiplication over the positive-balance population,
    like Q22's). The idle side is the bucketed ANTI join — only
    user_id ever moves."""
    from ray.data.aggregate import Sum

    from tldr_ray.stages.joins import bucketed_anti_join

    def cproj(batch: pa.Table) -> pa.Table:
        ab = np.asarray(batch["c_acctbal"], dtype=np.float64)
        cents = _cents(ab)
        m = cents > 0
        return pa.table({
            "c_custkey": pa.array(
                np.asarray(batch["c_custkey"], np.int64)[m]),
            "acctbal_cents": pa.array(cents[m]),
            "one": pa.array(np.ones(int(m.sum()), np.int64))})

    cust = (_read(sf_dir, "customer", ["c_custkey", "c_acctbal"])
            .map_batches(cproj, batch_format="pyarrow")
            .materialize())
    agg = cust.aggregate(Sum("acctbal_cents", alias_name="t"),
                         Sum("one", alias_name="n"))
    total, n = int(agg["t"]), int(agg["n"])

    def rich(batch: pa.Table) -> pa.Table:
        ab = np.asarray(batch["acctbal_cents"], dtype=np.int64)
        m = ab * np.int64(n) > np.int64(total)
        return pa.table({
            "c_custkey": pa.array(
                np.asarray(batch["c_custkey"], np.int64)[m]),
            "acctbal_cents": pa.array(ab[m])})

    rich_ds = cust.map_batches(rich, batch_format="pyarrow")
    active = _read(sf_dir, "events", ["user_id"]).map_batches(
        lambda t: pa.table({"c_custkey": t["user_id"].cast(pa.int64())}),
        batch_format="pyarrow")
    out = bucketed_anti_join(rich_ds, active, on="c_custkey")

    def seal(batch: pd.DataFrame) -> pd.DataFrame:
        for c in ("c_custkey", "acctbal_cents"):
            batch[c] = batch[c].astype(np.int64)
        return batch[["c_custkey", "acctbal_cents"]]

    return out.map_batches(seal, batch_format="pandas")


QUERIES["tpch_q22_idle_rich_customers"] = tpch_q22_idle_rich_customers
ORACLE_SQL["tpch_q22_idle_rich_customers"] = """
    WITH pos AS (
        SELECT c_custkey,
               CAST(floor(c_acctbal * 100.0 + 0.5) AS BIGINT)
                   AS acctbal_cents
        FROM customer
        WHERE CAST(floor(c_acctbal * 100.0 + 0.5) AS BIGINT) > 0),
    t AS (SELECT CAST(sum(acctbal_cents) AS BIGINT) AS total,
                 CAST(count(*) AS BIGINT) AS n FROM pos)
    SELECT p.c_custkey, p.acctbal_cents
    FROM pos p CROSS JOIN t
    WHERE p.acctbal_cents * t.n > t.total
      AND NOT EXISTS (SELECT 1 FROM events e
                      WHERE e.user_id = p.c_custkey)
"""


def eigencentrality_hashgraph(sf_dir: str):
    """Eigenvector centrality of the weighted hash graph
    (graph.eigenvector_centrality — distributed shifted power
    iteration, raw-weight SpMV exchange). Rows-only by nature
    (iterative float fixpoint); the pytest oracle checks against the
    dense numpy principal eigenvector to 1e-7."""
    from tldr_ray.graph import eigenvector_centrality

    ids, scores, _ = eigenvector_centrality(
        _hash_graph_edges_weighted(sf_dir), num_partitions=4)
    return pa.table({"vertex": pa.array(ids),
                     "score": pa.array(scores)})


QUERIES["eigencentrality_hashgraph"] = eigencentrality_hashgraph


# ---------------------------------------------------------------------------
# Per-group OLS trend from exact integer moments
# ---------------------------------------------------------------------------

_TREND_EPOCH_US = 1_704_067_200_000_000      # 2024-01-01 UTC in us


def user_value_trend(sf_dir: str):
    """Per-user spend trend over time (stages.agg.grouped_linear_trend):
    x = whole hours since 2024-01-01, y = value cents — both exact
    integers, so the OLS slope/intercept are single IEEE divisions of
    exact int64 cross-products and hash-match the SQL moment mirror
    (DuckDB's builtin regr_slope accumulates in float and would not)."""
    from tldr_ray.stages.agg import grouped_linear_trend

    def prep(batch: pa.Table) -> pa.Table:
        ts = np.asarray(batch["ts"].cast(pa.int64()))
        v = np.asarray(batch["value"], dtype=np.float64)
        return pa.table({
            "user_id": batch["user_id"].cast(pa.int64()),
            "x_hours": pa.array((ts - _TREND_EPOCH_US)
                                // np.int64(3_600_000_000)),
            "y_cents": pa.array(_cents(v))})

    ds = _read(sf_dir, "events", ["user_id", "ts", "value"]) \
        .map_batches(prep, batch_format="pyarrow")
    return grouped_linear_trend(ds, "user_id", "x_hours", "y_cents")


QUERIES["user_value_trend"] = user_value_trend
ORACLE_SQL["user_value_trend"] = f"""
    WITH b AS (
        SELECT user_id,
               CAST((epoch_us(ts) - {_TREND_EPOCH_US}) // 3600000000
                    AS BIGINT) AS x,
               CAST(floor(value * 100.0 + 0.5) AS BIGINT) AS y
        FROM events),
    mo AS (
        SELECT user_id,
               CAST(count(*) AS BIGINT) AS n,
               CAST(sum(x) AS BIGINT) AS sx,
               CAST(sum(y) AS BIGINT) AS sy,
               CAST(sum(x * y) AS BIGINT) AS sxy,
               CAST(sum(x * x) AS BIGINT) AS sxx
        FROM b GROUP BY user_id)
    SELECT user_id, n,
           CAST(n * sxy - sx * sy AS DOUBLE)
               / CAST(n * sxx - sx * sx AS DOUBLE) AS slope,
           CAST(sy * sxx - sx * sxy AS DOUBLE)
               / CAST(n * sxx - sx * sx AS DOUBLE) AS intercept
    FROM mo WHERE n * sxx - sx * sx != 0
"""


# ---------------------------------------------------------------------------
# CDC snapshot diff
# ---------------------------------------------------------------------------

def orders_snapshot_diff(sf_dir: str):
    """Table-versioning diff (stages.joins.table_diff): snapshot B is
    simulated deterministically from orders — keys % 13 dropped
    (-> removed), surviving keys % 7 get a one-currency-unit price bump
    (-> changed), keys % 11 re-inserted shifted by 10M (-> added).
    Prices compare as exact integer cents. The mirror builds the same
    snapshot in SQL and classifies with a FULL OUTER JOIN."""
    from tldr_ray.stages.joins import table_diff

    def prep(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch["o_orderkey"], dtype=np.int64)
        cents = _cents(np.asarray(batch["o_totalprice"],
                                  dtype=np.float64))
        return pa.table({"o_orderkey": pa.array(k),
                         "total_cents": pa.array(cents)})

    old = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"]) \
        .map_batches(prep, batch_format="pyarrow")

    def simulate(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch["o_orderkey"], dtype=np.int64)
        c = np.asarray(batch["total_cents"], dtype=np.int64)
        keep = k % 13 != 0
        k2, c2 = k[keep], c[keep].copy()
        bump = k2 % 7 == 0
        c2[bump] += 100
        addm = k % 11 == 0
        return pa.table({
            "o_orderkey": pa.array(np.concatenate(
                [k2, k[addm] + 10_000_000])),
            "total_cents": pa.array(np.concatenate([c2, c[addm]]))})

    new = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"]) \
        .map_batches(prep, batch_format="pyarrow") \
        .map_batches(simulate, batch_format="pyarrow")

    out = table_diff(old, new, "o_orderkey", ["total_cents"])

    def seal(batch: pd.DataFrame) -> pd.DataFrame:
        batch["o_orderkey"] = batch["o_orderkey"].astype(np.int64)
        batch["change"] = batch["change"].astype(str)
        return batch[["o_orderkey", "change"]]

    return out.map_batches(seal, batch_format="pandas")


QUERIES["orders_snapshot_diff"] = orders_snapshot_diff
ORACLE_SQL["orders_snapshot_diff"] = """
    WITH old AS (
        SELECT o_orderkey,
               CAST(floor(o_totalprice * 100.0 + 0.5) AS BIGINT)
                   AS total_cents
        FROM orders),
    newt AS (
        SELECT o_orderkey,
               total_cents + CASE WHEN o_orderkey % 7 = 0
                                  THEN 100 ELSE 0 END AS total_cents
        FROM old WHERE o_orderkey % 13 != 0
        UNION ALL
        SELECT o_orderkey + 10000000, total_cents
        FROM old WHERE o_orderkey % 11 = 0)
    SELECT coalesce(o.o_orderkey, n.o_orderkey) AS o_orderkey,
           CASE WHEN o.o_orderkey IS NULL THEN 'added'
                WHEN n.o_orderkey IS NULL THEN 'removed'
                ELSE 'changed' END AS change
    FROM old o FULL OUTER JOIN newt n ON n.o_orderkey = o.o_orderkey
    WHERE o.o_orderkey IS NULL OR n.o_orderkey IS NULL
       OR o.total_cents != n.total_cents
"""


def bpe_merges_docs(sf_dir: str):
    """Tokenizer training: the first 20 BPE merge rules learned over
    the document corpus (stages.text_analysis.learn_bpe_merges —
    corpus collapses once to the word-type table, every merge round
    moves only distinct symbol pairs). Rows-only by nature (20
    iterative argmax rounds); the pytest oracle replays a sequential
    reference BPE and requires exact merge-sequence equality."""
    from tldr_ray.stages.text_analysis import learn_bpe_merges

    merges, _ = learn_bpe_merges(
        _read(sf_dir, "documents", ["text"]), num_merges=20)
    return pa.table({
        "rank": pa.array(range(1, len(merges) + 1), pa.int64()),
        "left": pa.array([m[0] for m in merges], pa.string()),
        "right": pa.array([m[1] for m in merges], pa.string()),
        "pair_count": pa.array([m[2] for m in merges], pa.int64())})


QUERIES["bpe_merges_docs"] = bpe_merges_docs


def compression_signal_docs(sf_dir: str):
    """Per-document zlib compressibility
    (stages.text_analysis.compression_ratio) — rows-only by nature
    (no SQL zlib); the pytest oracle recomputes ratios directly and
    pins that repeated text compresses below shuffled text."""
    from tldr_ray.stages.text_analysis import compression_ratio

    return compression_ratio(
        _read(sf_dir, "documents", ["doc_id", "text"]))


QUERIES["compression_signal_docs"] = compression_signal_docs


def normalize_text_docs(sf_dir: str):
    """Canonical text cleanup (the ingest normalization pass): trim,
    collapse internal whitespace runs, lowercase, Unicode NFC — all
    vectorized Arrow kernels sharing RE2 semantics with the DuckDB
    mirror, hash-checked on the FULL normalized strings."""
    def fn(batch: pa.Table) -> pa.Table:
        t = pc.utf8_trim_whitespace(batch["text"])
        t = pc.replace_substring_regex(t, r"\s+", " ")
        t = pc.utf8_lower(t)
        t = pc.utf8_normalize(t, form="NFC")
        return pa.table({"doc_id": batch["doc_id"].cast(pa.int64()),
                         "text_norm": t})

    return _read(sf_dir, "documents", ["doc_id", "text"]) \
        .map_batches(fn, batch_format="pyarrow")


QUERIES["normalize_text_docs"] = normalize_text_docs
ORACLE_SQL["normalize_text_docs"] = """
    SELECT doc_id,
           nfc_normalize(lower(regexp_replace(trim(text),
                                              '\\s+', ' ', 'g')))
               AS text_norm
    FROM documents
"""


def hits_hashgraph(sf_dir: str):
    """HITS hubs & authorities over the DIRECTED weighted hash graph
    (graph.hits — two same-partitioning shard pools over forward and
    reversed edges, per-round plasma state handoff). Rows-only by
    nature (alternating float fixpoint); the pytest oracle pins both
    vectors against dense alternating iteration to 1e-6."""
    from tldr_ray.graph import hits

    ids, hubs, auth, _ = hits(_hash_graph_edges_weighted(sf_dir),
                              num_partitions=4)
    return pa.table({"vertex": pa.array(ids),
                     "hub": pa.array(hubs),
                     "authority": pa.array(auth)})


QUERIES["hits_hashgraph"] = hits_hashgraph


# ---------------------------------------------------------------------------
# Z-order data layout
# ---------------------------------------------------------------------------

def events_zorder_layout(sf_dir: str):
    """Morton (Z-order) clustering key over (user_id, value_cents) +
    the native range-partitioned sort (stages.agg.zorder_sort) — the
    OPTIMIZE ZORDER layout move: one shuffle clusters rows in BOTH
    dimensions so block min/max statistics prune two-predicate scans.
    The key arithmetic is pure integer bit interleaving, mirrored
    term-for-term in SQL."""
    from tldr_ray.stages.agg import zorder_sort

    def prep(batch: pa.Table) -> pa.Table:
        v = np.asarray(batch["value"], dtype=np.float64)
        return pa.table({
            "event_id": batch["event_id"].cast(pa.int64()),
            "user_id": batch["user_id"].cast(pa.int64()),
            "value_cents": pa.array(_cents(v))})

    ds = _read(sf_dir, "events", ["event_id", "user_id", "value"]) \
        .map_batches(prep, batch_format="pyarrow")
    out = zorder_sort(ds, ["user_id", "value_cents"])
    return out.select_columns(["event_id", "zkey"])


def _zorder_oracle_sql(bits: int = 21) -> str:
    terms = []
    for b in range(bits):
        terms.append(f"(((user_id >> {b}) & 1) << {2 * b})")
        terms.append(f"(((cents >> {b}) & 1) << {2 * b + 1})")
    return f"""
    WITH b AS (
        SELECT event_id, user_id,
               CAST(floor(value * 100.0 + 0.5) AS BIGINT) AS cents
        FROM events)
    SELECT event_id, CAST({" | ".join(terms)} AS BIGINT) AS zkey
    FROM b
"""


QUERIES["events_zorder_layout"] = events_zorder_layout
ORACLE_SQL["events_zorder_layout"] = _zorder_oracle_sql()


_KMV_OVERLAP_K = 64


def kmv_overlap_users_custkeys(sf_dir: str):
    """Sketch-based join-size statistic (stages.agg
    .kmv_overlap_estimate): how much the events.user_id and
    orders.o_custkey key populations overlap, from two bottom-64 KMV
    sketches — 128 integers decide, neither table rescanned. Mirrored
    end-to-end in SQL (shared FNV/splitmix hash of the DISTINCT id
    strings, per-side LIMIT-k sketches, k_eff-th union minimum)."""
    from tldr_ray.stages.agg import kmv_overlap_estimate

    r = kmv_overlap_estimate(
        _read(sf_dir, "events", ["user_id"]),
        _read(sf_dir, "orders", ["o_custkey"]),
        "user_id", "o_custkey", k=_KMV_OVERLAP_K)
    return pa.table({
        "n_common": pa.array([r["n_common"]], pa.int64()),
        "k_eff": pa.array([r["k_eff"]], pa.int64()),
        "kth_min": pa.array([r["kth_min"]], pa.int64()),
        "inter_frac": pa.array([r["inter_frac"]], pa.float64())})


QUERIES["kmv_overlap_users_custkeys"] = kmv_overlap_users_custkeys
ORACLE_SQL["kmv_overlap_users_custkeys"] = f"""
    WITH RECURSIVE {_sql_fnv_cte(
        "SELECT DISTINCT CAST(user_id AS VARCHAR) AS s FROM events "
        "UNION SELECT DISTINCT CAST(o_custkey AS VARCHAR) FROM orders")},
    {_sql_splitmix_ctes("hh", carry="s, ")},
    ka AS MATERIALIZED (
        SELECT DISTINCT m3.h FROM m3
        WHERE m3.s IN (SELECT DISTINCT CAST(user_id AS VARCHAR)
                       FROM events)
        ORDER BY m3.h LIMIT {_KMV_OVERLAP_K}),
    kb AS MATERIALIZED (
        SELECT DISTINCT m3.h FROM m3
        WHERE m3.s IN (SELECT DISTINCT CAST(o_custkey AS VARCHAR)
                       FROM orders)
        ORDER BY m3.h LIMIT {_KMV_OVERLAP_K}),
    mu AS MATERIALIZED (
        SELECT h, row_number() OVER (ORDER BY h) AS rn
        FROM (SELECT h FROM ka UNION SELECT h FROM kb)),
    keff AS (SELECT least({_KMV_OVERLAP_K},
                          (SELECT count(*) FROM ka),
                          (SELECT count(*) FROM kb),
                          (SELECT count(*) FROM mu)) AS v),
    m AS (SELECT mu.h AS mh FROM mu, keff WHERE mu.rn = keff.v),
    c AS (SELECT count(*) AS n FROM
              (SELECT h FROM ka INTERSECT SELECT h FROM kb) x, m
          WHERE x.h <= m.mh)
    SELECT CAST(c.n AS BIGINT) AS n_common,
           CAST(keff.v AS BIGINT) AS k_eff,
           {_sql_s2b('m.mh')} AS kth_min,
           CAST(c.n AS DOUBLE) / CAST(keff.v AS DOUBLE) AS inter_frac
    FROM c, keff, m
"""


# ---------------------------------------------------------------------------
# Semi-supervised label spreading over the hash graph
# ---------------------------------------------------------------------------

_SPREAD_ROUNDS = 10


def label_spread_hashgraph(sf_dir: str):
    """Seed-clamped label spreading (graph.label_spread): vertices
    v % 50 == 0 carry fixed class labels v % 5; everyone else adopts
    the weighted-majority label of LABELED neighbors each synchronous
    round (smallest-label ties), never-reached vertices stay -1. The
    engine runs exactly the mirror's 10 rounds unless a true fixpoint
    lands earlier (further rounds are no-ops), so the whole label
    table hash-matches the unrolled SQL."""
    from tldr_ray.graph import label_spread

    import pyarrow.parquet as pq

    N = int(pq.read_table(f"{sf_dir}/documents.parquet",
                          columns=["doc_id"])["doc_id"]
            .to_numpy().max()) + 1
    seed_ids = np.arange(0, N, 50, dtype=np.int64)
    seed_labs = seed_ids % 5
    ids, labels, _ = label_spread(
        _hash_graph_edges(sf_dir), (seed_ids, seed_labs),
        num_partitions=4, max_rounds=_SPREAD_ROUNDS)
    return pa.table({"vertex": pa.array(ids),
                     "label": pa.array(labels.astype(np.int64))})


def _label_spread_oracle_sql(rounds: int = _SPREAD_ROUNDS) -> str:
    body = [f"WITH {_HASHGRAPH_RAW},",
            "sym AS MATERIALIZED (SELECT s, t FROM raw2 "
            "UNION ALL SELECT t, s FROM raw2),",
            "verts AS MATERIALIZED (SELECT DISTINCT s AS v FROM sym),",
            "l0 AS MATERIALIZED (SELECT v, v % 5 AS label FROM verts "
            "WHERE v % 50 = 0),"]
    for i in range(1, rounds + 1):
        body.append(f"""v{i} AS MATERIALIZED (
        SELECT e.t AS v, l.label, count(*) AS w
        FROM sym e JOIN l{i - 1} l ON l.v = e.s
        GROUP BY e.t, l.label),
    l{i} AS MATERIALIZED (
        SELECT v, label FROM l0
        UNION ALL
        SELECT v, label FROM (
            SELECT v, label, row_number() OVER (
                PARTITION BY v ORDER BY w DESC, label ASC) AS rn
            FROM v{i}
            WHERE v NOT IN (SELECT v FROM l0)) WHERE rn = 1),""")
    body.append(
        f"SELECT verts.v AS vertex, "
        f"CAST(coalesce(l.label, -1) AS BIGINT) AS label "
        f"FROM verts LEFT JOIN l{rounds} l ON l.v = verts.v")
    sql = "\n    ".join(body)
    last_comma = sql.rfind("),")
    return sql[:last_comma + 1] + sql[last_comma + 2:]


QUERIES["label_spread_hashgraph"] = label_spread_hashgraph
ORACLE_SQL["label_spread_hashgraph"] = _label_spread_oracle_sql()


def lang_confusion_docs(sf_dir: str):
    """Language-ID confusion matrix: stored lang label x predicted
    language, with exact counts — the model-audit table a curation
    pipeline reports. Prediction reuses the hash-checked LanguageId
    actor stage; the matrix is a tiny two-key grouped count."""
    from ray.data.aggregate import Count

    from tldr_ray.stages.text_analysis import language_id

    # concurrency=2 leaves CPUs for the feeding tasks (repo invariant:
    # an actor pool sized to the whole session deadlocks the executor)
    pred = language_id(_read(sf_dir, "documents",
                             ["doc_id", "lang", "text"]),
                       concurrency=2)

    def seal(batch: pa.Table) -> pa.Table:
        return pa.table({"lang": batch["lang"],
                         "lang_pred": batch["lang_pred"],
                         "n": batch["count()"].cast(pa.int64())})

    return (pred.groupby(["lang", "lang_pred"]).count()
            .map_batches(seal, batch_format="pyarrow"))


QUERIES["lang_confusion_docs"] = lang_confusion_docs
ORACLE_SQL["lang_confusion_docs"] = f"""
    WITH pred AS ({_language_id_oracle_sql()})
    SELECT d.lang, p.lang_pred, CAST(count(*) AS BIGINT) AS n
    FROM pred p JOIN documents d ON d.doc_id = p.doc_id
    GROUP BY d.lang, p.lang_pred
"""


def events_hourly_dense(sf_dir: str):
    """Time-series resampling with zero fill: per (event_type, hour)
    counts over the DENSE hour grid [min, max] — missing hours emit 0
    (the gap-filling step before any rolling/forecast op). The sparse
    counts are one grouped aggregate; the dense grid is
    types x hours rows generated from two scalars and LEFT-merged as a
    broadcast (grid size is O(types * hours), never O(events))."""
    from ray.data.aggregate import Sum

    def prep(batch: pa.Table) -> pa.Table:
        ts = np.asarray(batch["ts"].cast(pa.int64()))
        return pa.table({
            "event_type": batch["event_type"],
            "hour_us": pa.array((ts // 3_600_000_000)
                                * np.int64(3_600_000_000))})

    def part(batch: pa.Table) -> pa.Table:
        et = np.asarray(batch["event_type"], dtype=object)
        hr = np.asarray(batch["hour_us"], dtype=np.int64)
        key = pd.MultiIndex.from_arrays([et, hr])
        u, c = np.unique(key, return_counts=True)
        return pa.table({
            "event_type": pa.array([k[0] for k in u], pa.string()),
            "hour_us": pa.array([k[1] for k in u], pa.int64()),
            "n": pa.array(c.astype(np.int64))})

    sparse = (_read(sf_dir, "events", ["event_type", "ts"])
              .map_batches(prep, batch_format="pyarrow")
              .map_batches(part, batch_format="pyarrow")
              .groupby(["event_type", "hour_us"])
              .aggregate(Sum("n", alias_name="n"))
              .to_pandas())
    hours = np.arange(sparse["hour_us"].min(),
                      sparse["hour_us"].max() + 1,
                      3_600_000_000, dtype=np.int64)
    types = np.sort(sparse["event_type"].unique())
    grid = pd.DataFrame({
        "event_type": np.repeat(types, hours.size),
        "hour_us": np.tile(hours, types.size)})
    out = grid.merge(sparse, on=["event_type", "hour_us"], how="left")
    out["n"] = out["n"].fillna(0).astype(np.int64)
    return pa.Table.from_pandas(out, preserve_index=False)


QUERIES["events_hourly_dense"] = events_hourly_dense
ORACLE_SQL["events_hourly_dense"] = """
    WITH b AS (
        SELECT event_type,
               (epoch_us(ts) // 3600000000) * 3600000000 AS hour_us
        FROM events),
    sparse AS (SELECT event_type, hour_us,
                      CAST(count(*) AS BIGINT) AS n
               FROM b GROUP BY 1, 2),
    grid AS (
        SELECT t.event_type, CAST(h.h AS BIGINT) AS hour_us
        FROM (SELECT DISTINCT event_type FROM b) t
        CROSS JOIN (SELECT unnest(range((SELECT min(hour_us) FROM b),
                                        (SELECT max(hour_us) FROM b)
                                            + 1,
                                        3600000000)) AS h) h)
    SELECT g.event_type, g.hour_us,
           CAST(coalesce(s.n, 0) AS BIGINT) AS n
    FROM grid g LEFT JOIN sparse s
      ON s.event_type = g.event_type AND s.hour_us = g.hour_us
"""


# ---------------------------------------------------------------------------
# node2vec biased walks over the hash graph
# ---------------------------------------------------------------------------

_N2V_LEN = 3


def node2vec_walks_hashgraph(sf_dir: str):
    """Second-order (node2vec, p=4 q=2 as integer bias weights 1/4/2)
    hash-driven walks over the hash graph — graph.walks.node2vec_walks.
    The full walk corpus hash-matches the unrolled SQL mirror: per
    step, candidate weights via a neighbor-membership LEFT probe,
    window cumulative sums in sorted-neighbor order, and the shared
    splitmix64 chain picking the cumulative interval."""
    from tldr_ray.graph.walks import node2vec_walks

    return node2vec_walks(_hash_graph_edges(sf_dir),
                          walk_len=_N2V_LEN)


def _n2v_oracle_sql(walk_len: int = _N2V_LEN) -> str:
    from tldr_ray.graph.walks import (_N2V_PREV_MIX, _WALK_K,
                                      N2V_W_COMMON, N2V_W_EXPLORE,
                                      N2V_W_RETURN)

    M64 = _SQL_M64
    C1, C2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
    steps = []
    finals = ["SELECT start, 0 AS step, start AS vertex FROM w0"]
    for t in range(1, walk_len + 1):
        h0 = (f"({_sql_mul64('CAST(cur AS HUGEINT)', _WALK_K)} + {t} + "
              f"CASE WHEN prev >= 0 THEN "
              f"{_sql_mul64('CAST(prev AS HUGEINT)', _N2V_PREV_MIX)} "
              f"ELSE 0 END) % {M64}")
        steps.append(f""",
    c{t} AS MATERIALIZED (
        SELECT f.start, f.prev, f.cur, a.t AS nbr,
               CASE WHEN f.prev < 0 THEN 1
                    WHEN a.t = f.prev THEN {N2V_W_RETURN}
                    WHEN EXISTS (SELECT 1 FROM und u
                                 WHERE u.a = least(a.t, f.prev)
                                   AND u.b = greatest(a.t, f.prev))
                        THEN {N2V_W_COMMON}
                    ELSE {N2V_W_EXPLORE} END AS w
        FROM w{t - 1} f JOIN sym a ON a.s = f.cur),
    s{t} AS MATERIALIZED (
        SELECT start, prev, cur, nbr, w,
               SUM(w) OVER (PARTITION BY start ORDER BY nbr
                            ROWS UNBOUNDED PRECEDING) AS cum,
               SUM(w) OVER (PARTITION BY start) AS tot
        FROM c{t}),
    p{t}0 AS MATERIALIZED (
        SELECT start, {h0} AS h FROM w{t - 1}),
    p{t}1 AS MATERIALIZED (
        SELECT start, {_sql_mul64(_sql_xor_shift('h', 30), C1)} AS h
        FROM p{t}0),
    p{t}2 AS MATERIALIZED (
        SELECT start, {_sql_mul64(_sql_xor_shift('h', 27), C2)} AS h
        FROM p{t}1),
    p{t}3 AS MATERIALIZED (
        SELECT start, {_sql_xor_shift('h', 31)} AS h FROM p{t}2),
    w{t} AS MATERIALIZED (
        SELECT s.start, s.cur AS prev, s.nbr AS cur
        FROM s{t} s JOIN p{t}3 p ON p.start = s.start
        WHERE CAST(p.h % CAST(s.tot AS HUGEINT) AS BIGINT) < s.cum
          AND CAST(p.h % CAST(s.tot AS HUGEINT) AS BIGINT)
              >= s.cum - s.w)""")
        finals.append(f"SELECT start, {t} AS step, cur AS vertex "
                      f"FROM w{t}")
    return f"""
    WITH {_HASHGRAPH_RAW},
    und AS MATERIALIZED (
        SELECT DISTINCT least(s, t) AS a, greatest(s, t) AS b
        FROM raw2),
    sym AS MATERIALIZED (SELECT a AS s, b AS t FROM und
                         UNION ALL SELECT b, a FROM und),
    w0 AS MATERIALIZED (
        SELECT DISTINCT s AS start, CAST(-1 AS BIGINT) AS prev,
               s AS cur FROM sym)
    {"".join(steps)}
    SELECT CAST(start AS BIGINT) AS start, CAST(step AS BIGINT) AS step,
           CAST(vertex AS BIGINT) AS vertex
    FROM ({" UNION ALL ".join(finals)})
"""


QUERIES["node2vec_walks_hashgraph"] = node2vec_walks_hashgraph
ORACLE_SQL["node2vec_walks_hashgraph"] = _n2v_oracle_sql()


def events_value_ntile(sf_dir: str):
    """Per-type NTILE(4) quartile bucketing of event values — the
    feature-binning op, exact-integer end to end: row numbers come from
    the shared row_window sweep (deterministic total order
    (value_cents, event_id)), group sizes ride a vocabulary-sized
    broadcast, and the bucket is SQL ntile's exact big-buckets-first
    arithmetic — so the whole table hash-matches DuckDB's ntile."""
    import ray

    from tldr_ray.stages.windows import row_window

    def prep(batch: pa.Table) -> pa.Table:
        v = np.asarray(batch["value"], dtype=np.float64)
        return pa.table({
            "event_type": batch["event_type"],
            "event_id": batch["event_id"].cast(pa.int64()),
            "value_cents": pa.array(_cents(v))})

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"]) \
        .map_batches(prep, batch_format="pyarrow")
    w = row_window(ds, "event_type", ["value_cents", "event_id"])

    counts = (_read(sf_dir, "events", ["event_type"])
              .groupby("event_type").count().to_pandas())
    tarr = np.sort(counts["event_type"].to_numpy(object))
    narr = counts.set_index("event_type")["count()"] \
        .loc[tarr].to_numpy(np.int64)
    cref = ray.put((tarr, narr))
    K = np.int64(4)

    def bucket(batch: pa.Table) -> pa.Table:
        ts, ns = ray.get(cref)
        et = np.asarray(batch["event_type"])
        rn = np.asarray(batch["rn"], dtype=np.int64)
        n = ns[np.searchsorted(ts, et)]
        small = n // K                     # base bucket size
        extra = n % K                      # first `extra` buckets +1
        cutoff = extra * (small + 1)
        in_big = rn <= cutoff
        b = np.where(in_big,
                     (rn - 1) // np.maximum(small + 1, 1) + 1,
                     extra + (rn - 1 - cutoff)
                     // np.maximum(small, 1) + 1)
        return pa.table({
            "event_type": batch["event_type"],
            "event_id": batch["event_id"].cast(pa.int64()),
            "value_cents": batch["value_cents"].cast(pa.int64()),
            "quartile": pa.array(b.astype(np.int64))})

    return w.map_batches(bucket, batch_format="pyarrow")


QUERIES["events_value_ntile"] = events_value_ntile
ORACLE_SQL["events_value_ntile"] = """
    SELECT event_type, event_id,
           CAST(floor(value * 100.0 + 0.5) AS BIGINT) AS value_cents,
           CAST(ntile(4) OVER (
               PARTITION BY event_type
               ORDER BY floor(value * 100.0 + 0.5), event_id)
               AS BIGINT) AS quartile
    FROM events
"""


_DECAY_ANCHOR_US = 1_706_745_600_000_000     # 2024-02-01 UTC (> max ts)


def user_decayed_activity(sf_dir: str):
    """Exponentially decayed per-user activity score (half-life one
    day, the recency-weighted engagement metric) with EXACT integer
    arithmetic: weight = 2^(40 - age_days) is a plain int64 power of
    two, so the per-user sums are partial-sum-order-proof and the
    whole table hash-matches SQL — no libm exp anywhere. Events older
    than 40 days floor to weight 0 (documented truncation; the synth
    window is 30 days)."""
    from ray.data.aggregate import Sum

    def score(batch: pa.Table) -> pa.Table:
        ts = np.asarray(batch["ts"].cast(pa.int64()))
        age_days = (np.int64(_DECAY_ANCHOR_US) - ts) \
            // np.int64(86_400_000_000)
        expo = np.int64(40) - age_days
        w = np.where(expo >= 0, np.int64(1) << np.maximum(expo, 0),
                     np.int64(0))
        uid = np.asarray(batch["user_id"], dtype=np.int64)
        u, inv = np.unique(uid, return_inverse=True)
        return pa.table({
            "user_id": pa.array(u),
            "decayed": pa.array(np.bincount(inv, weights=w)
                                .astype(np.int64))})

    return (_read(sf_dir, "events", ["user_id", "ts"])
            .map_batches(score, batch_format="pyarrow")
            .groupby("user_id")
            .aggregate(Sum("decayed", alias_name="decayed")))


QUERIES["user_decayed_activity"] = user_decayed_activity
ORACLE_SQL["user_decayed_activity"] = f"""
    WITH b AS (
        SELECT user_id,
               40 - (({_DECAY_ANCHOR_US} - epoch_us(ts))
                     // 86400000000) AS expo
        FROM events)
    SELECT user_id,
           CAST(sum(CASE WHEN expo >= 0
                         THEN CAST(1 AS BIGINT) << CAST(expo AS INTEGER)
                         ELSE 0 END) AS BIGINT) AS decayed
    FROM b GROUP BY user_id
"""


# ---------------------------------------------------------------------------
# Distributed maximal matching over the hash graph
# ---------------------------------------------------------------------------

_MATCH_ROUNDS = 8


def maximal_matching_hashgraph(sf_dir: str):
    """Deterministic maximal matching (graph.maximal_matching):
    hashed-priority handshake rounds — every unmatched vertex proposes
    to the unmatched neighbor with the smallest
    splitmix64(nbr * K + round), mutual proposals match, a no-progress
    round proves maximality (measured fixpoint on this graph: 7
    rounds; the mirror unrolls 8 — post-fixpoint rounds are no-ops).
    Output: (vertex, partner) with -1 = unmatched, hash-checked."""
    from tldr_ray.graph import maximal_matching

    ids, partner, _ = maximal_matching(_hash_graph_edges(sf_dir),
                                       num_partitions=4,
                                       max_rounds=_MATCH_ROUNDS)
    return pa.table({"vertex": pa.array(ids),
                     "partner": pa.array(partner.astype(np.int64))})


def _matching_oracle_sql(rounds: int = _MATCH_ROUNDS) -> str:
    from tldr_ray.graph.walks import _WALK_K

    M64 = _SQL_M64
    C1, C2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
    steps = []
    for r in range(1, rounds + 1):
        h0 = f"({_sql_mul64('CAST(v AS HUGEINT)', _WALK_K)} + {r}) % {M64}"
        steps.append(f""",
    un{r} AS MATERIALIZED (
        SELECT v FROM verts
        WHERE v NOT IN (SELECT u FROM m{r - 1})),
    k{r}0 AS MATERIALIZED (SELECT v, {h0} AS h FROM un{r}),
    k{r}1 AS MATERIALIZED (
        SELECT v, {_sql_mul64(_sql_xor_shift('h', 30), C1)} AS h
        FROM k{r}0),
    k{r}2 AS MATERIALIZED (
        SELECT v, {_sql_mul64(_sql_xor_shift('h', 27), C2)} AS h
        FROM k{r}1),
    k{r}3 AS MATERIALIZED (
        SELECT v, {_sql_xor_shift('h', 31)} AS h FROM k{r}2),
    prop{r} AS MATERIALIZED (
        SELECT s AS v, t AS p FROM (
            SELECT e.s, e.t,
                   row_number() OVER (PARTITION BY e.s
                                      ORDER BY k.h, e.t) AS rn
            FROM sym e
            JOIN un{r} a ON a.v = e.s
            JOIN un{r} b ON b.v = e.t
            JOIN k{r}3 k ON k.v = e.t)
        WHERE rn = 1),
    mt{r} AS MATERIALIZED (
        SELECT a.v AS u, a.p AS w
        FROM prop{r} a JOIN prop{r} b ON b.v = a.p AND b.p = a.v
        WHERE a.v < a.p),
    m{r} AS MATERIALIZED (
        SELECT u, p FROM m{r - 1}
        UNION ALL SELECT u, w FROM mt{r}
        UNION ALL SELECT w, u FROM mt{r})""")
    return f"""
    WITH {_HASHGRAPH_RAW},
    und AS MATERIALIZED (
        SELECT DISTINCT least(s, t) AS a, greatest(s, t) AS b
        FROM raw2),
    sym AS MATERIALIZED (SELECT a AS s, b AS t FROM und
                         UNION ALL SELECT b, a FROM und),
    verts AS MATERIALIZED (SELECT DISTINCT s AS v FROM sym),
    m0 AS MATERIALIZED (
        SELECT CAST(NULL AS BIGINT) AS u, CAST(NULL AS BIGINT) AS p
        WHERE 1 = 0)
    {"".join(steps)}
    SELECT verts.v AS vertex,
           CAST(coalesce(m.p, -1) AS BIGINT) AS partner
    FROM verts LEFT JOIN m{rounds} m ON m.u = verts.v
"""


QUERIES["maximal_matching_hashgraph"] = maximal_matching_hashgraph
ORACLE_SQL["maximal_matching_hashgraph"] = _matching_oracle_sql()


# ---------------------------------------------------------------------------
# Luby maximal independent set over the hash graph
# ---------------------------------------------------------------------------

_MIS_ROUNDS = 4


def mis_hashgraph(sf_dir: str):
    """Luby's maximal independent set
    (graph.maximal_independent_set): deterministic hashed priorities,
    two pre-combined exchanges per round (measured completion on this
    graph: 3 rounds; the mirror unrolls 4 — post-completion rounds are
    no-ops). Output (vertex, in_mis 1/0), hash-checked."""
    from tldr_ray.graph import maximal_independent_set

    ids, member, _ = maximal_independent_set(
        _hash_graph_edges(sf_dir), num_partitions=4,
        max_rounds=_MIS_ROUNDS)
    return pa.table({"vertex": pa.array(ids),
                     "in_mis": pa.array((member == 1)
                                        .astype(np.int64))})


def _mis_oracle_sql(rounds: int = _MIS_ROUNDS) -> str:
    from tldr_ray.graph.walks import _WALK_K

    M64 = _SQL_M64
    C1, C2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
    steps = []
    for r in range(1, rounds + 1):
        h0 = f"({_sql_mul64('CAST(v AS HUGEINT)', _WALK_K)} + {r}) % {M64}"
        steps.append(f""",
    k{r}0 AS MATERIALIZED (SELECT v, {h0} AS h FROM a{r}),
    k{r}1 AS MATERIALIZED (
        SELECT v, {_sql_mul64(_sql_xor_shift('h', 30), C1)} AS h
        FROM k{r}0),
    k{r}2 AS MATERIALIZED (
        SELECT v, {_sql_mul64(_sql_xor_shift('h', 27), C2)} AS h
        FROM k{r}1),
    k{r}3 AS MATERIALIZED (
        SELECT v, {_sql_xor_shift('h', 31)} AS h FROM k{r}2),
    nb{r} AS MATERIALIZED (
        SELECT s AS v, h AS nh, t AS nt FROM (
            SELECT e.s, e.t, k.h,
                   row_number() OVER (PARTITION BY e.s
                                      ORDER BY k.h, e.t) AS rn
            FROM sym e
            JOIN a{r} x ON x.v = e.s
            JOIN a{r} y ON y.v = e.t
            JOIN k{r}3 k ON k.v = e.t)
        WHERE rn = 1),
    mis{r} AS MATERIALIZED (
        SELECT a.v FROM a{r} a
        JOIN k{r}3 kk ON kk.v = a.v
        LEFT JOIN nb{r} n ON n.v = a.v
        WHERE n.v IS NULL OR kk.h < n.nh
           OR (kk.h = n.nh AND a.v < n.nt)),
    ex{r} AS MATERIALIZED (
        SELECT DISTINCT e.t AS v
        FROM sym e JOIN mis{r} m ON m.v = e.s),
    a{r + 1} AS MATERIALIZED (
        SELECT v FROM a{r}
        WHERE v NOT IN (SELECT v FROM mis{r})
          AND v NOT IN (SELECT v FROM ex{r}))""")
    allmis = " UNION ALL ".join(
        f"SELECT v FROM mis{r}" for r in range(1, rounds + 1))
    return f"""
    WITH {_HASHGRAPH_RAW},
    und AS MATERIALIZED (
        SELECT DISTINCT least(s, t) AS a, greatest(s, t) AS b
        FROM raw2),
    sym AS MATERIALIZED (SELECT a AS s, b AS t FROM und
                         UNION ALL SELECT b, a FROM und),
    verts AS MATERIALIZED (SELECT DISTINCT s AS v FROM sym),
    a1 AS MATERIALIZED (SELECT v FROM verts)
    {"".join(steps)},
    allmis AS ({allmis})
    SELECT verts.v AS vertex,
           CAST(CASE WHEN m.v IS NULL THEN 0 ELSE 1 END AS BIGINT)
               AS in_mis
    FROM verts LEFT JOIN allmis m ON m.v = verts.v
"""


QUERIES["mis_hashgraph"] = mis_hashgraph
ORACLE_SQL["mis_hashgraph"] = _mis_oracle_sql()


# ---------------------------------------------------------------------------
# Jones-Plassmann greedy coloring over the hash graph
# ---------------------------------------------------------------------------

_COLOR_ROUNDS = 14


def coloring_hashgraph(sf_dir: str):
    """Distributed greedy coloring (graph.greedy_coloring,
    Jones-Plassmann with static splitmix priorities): adjacent
    vertices always differ, <= maxdeg+1 colors (measured completion
    on this graph: 12 rounds; the mirror unrolls 14 — post-completion
    rounds are no-ops). Output (vertex, color), hash-checked."""
    from tldr_ray.graph import greedy_coloring

    ids, colors, _ = greedy_coloring(_hash_graph_edges(sf_dir),
                                     num_partitions=4,
                                     max_rounds=_COLOR_ROUNDS)
    return pa.table({"vertex": pa.array(ids),
                     "color": pa.array(colors.astype(np.int64))})


def _coloring_oracle_sql(rounds: int = _COLOR_ROUNDS,
                         max_colors: int = 12) -> str:
    from tldr_ray.graph.walks import _WALK_K

    M64 = _SQL_M64
    C1, C2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
    pick = "CASE " + " ".join(
        f"WHEN (mask & {1 << c}) = 0 THEN {c}"
        for c in range(max_colors)) + " END"
    steps = []
    for r in range(1, rounds + 1):
        steps.append(f""",
    un{r} AS MATERIALIZED (
        SELECT v FROM verts
        WHERE v NOT IN (SELECT v FROM col{r - 1})),
    nbmax{r} AS MATERIALIZED (
        SELECT s AS v, h AS nh, t AS nt FROM (
            SELECT e.s, e.t, k.h,
                   row_number() OVER (PARTITION BY e.s
                                      ORDER BY k.h DESC, e.t DESC)
                       AS rn
            FROM sym e
            JOIN un{r} x ON x.v = e.s
            JOIN un{r} y ON y.v = e.t
            JOIN pr k ON k.v = e.t)
        WHERE rn = 1),
    win{r} AS MATERIALIZED (
        SELECT a.v FROM un{r} a
        JOIN pr kk ON kk.v = a.v
        LEFT JOIN nbmax{r} n ON n.v = a.v
        WHERE n.v IS NULL OR kk.h > n.nh
           OR (kk.h = n.nh AND a.v > n.nt)),
    mk{r} AS MATERIALIZED (
        SELECT w.v,
               coalesce(bit_or(CAST(1 AS BIGINT) << CAST(c.c AS INTEGER)),
                        0) AS mask
        FROM win{r} w
        LEFT JOIN sym e ON e.s = w.v
        LEFT JOIN col{r - 1} c ON c.v = e.t
        GROUP BY w.v),
    col{r} AS MATERIALIZED (
        SELECT v, c FROM col{r - 1}
        UNION ALL
        SELECT v, {pick} AS c FROM mk{r})""")
    return f"""
    WITH {_HASHGRAPH_RAW},
    und AS MATERIALIZED (
        SELECT DISTINCT least(s, t) AS a, greatest(s, t) AS b
        FROM raw2),
    sym AS MATERIALIZED (SELECT a AS s, b AS t FROM und
                         UNION ALL SELECT b, a FROM und),
    verts AS MATERIALIZED (SELECT DISTINCT s AS v FROM sym),
    q0 AS MATERIALIZED (
        SELECT v, {_sql_mul64('CAST(v AS HUGEINT)', _WALK_K)} AS h
        FROM verts),
    q1 AS MATERIALIZED (
        SELECT v, {_sql_mul64(_sql_xor_shift('h', 30), C1)} AS h
        FROM q0),
    q2 AS MATERIALIZED (
        SELECT v, {_sql_mul64(_sql_xor_shift('h', 27), C2)} AS h
        FROM q1),
    pr AS MATERIALIZED (
        SELECT v, {_sql_xor_shift('h', 31)} AS h FROM q2),
    col0 AS MATERIALIZED (
        SELECT CAST(NULL AS BIGINT) AS v, CAST(NULL AS BIGINT) AS c
        WHERE 1 = 0)
    {"".join(steps)}
    SELECT c.v AS vertex, CAST(c.c AS BIGINT) AS color
    FROM col{rounds} c
"""


QUERIES["coloring_hashgraph"] = coloring_hashgraph
ORACLE_SQL["coloring_hashgraph"] = _coloring_oracle_sql()


def pretraining_mix_pipeline(sf_dir: str):
    """Composed pretraining-mix preparation
    (pipelines.prepare_pretraining_mix): normalize -> per-language
    median quality gate -> per-language token budget (longest first)
    -> deterministic token-budget shard packing. End-to-end
    hash-checked (round-4 verdict item 4): the mirror composes the
    already-proven stage CTEs — the normalize chain, the op-for-op
    IEEE quality score over the NORMALIZED text, quantile_disc median
    gate, the longest-first windowed budget cap, and the
    prefix-sum-before packing scan."""
    from tldr_ray.pipelines import prepare_pretraining_mix

    packed, _ = prepare_pretraining_mix(
        _read(sf_dir, "documents", ["doc_id", "lang", "text"]))
    return packed


def _pretraining_mix_oracle_sql(lang_budget: int = 2000,
                                shard_budget: int = 512) -> str:
    # normalize mirror: trim->collapse == collapse-then-trim (runs of
    # \s become one space, then edge spaces drop), lower, NFC — the
    # pyarrow chain in pipelines/pretrain.normalize op-for-op
    return f"""
    WITH nrm AS MATERIALIZED (
        SELECT doc_id, lang,
               nfc_normalize(lower(trim(
                   regexp_replace(text, '\\s+', ' ', 'g')))) AS text
        FROM documents),
    qs AS MATERIALIZED ({_quality_scores_oracle_sql(src="nrm")}),
    base AS (
        SELECT n.doc_id, n.lang, qs.n_tokens, qs.quality_score
        FROM nrm n JOIN qs USING (doc_id)),
    med AS (
        SELECT lang, quantile_disc(quality_score, 0.5) AS m
        FROM base GROUP BY lang),
    gated AS (
        SELECT b.doc_id, b.lang, b.n_tokens
        FROM base b JOIN med USING (lang)
        WHERE b.quality_score >= med.m),
    capped AS (
        SELECT doc_id, n_tokens FROM (
            SELECT doc_id, n_tokens,
                   sum(n_tokens) OVER (
                       PARTITION BY lang
                       ORDER BY -n_tokens ASC, doc_id ASC
                       ROWS UNBOUNDED PRECEDING) AS cum
            FROM gated)
        WHERE cum <= {lang_budget})
    SELECT doc_id, n_tokens,
           CAST(coalesce(sum(n_tokens) OVER (
                    ORDER BY doc_id
                    ROWS BETWEEN UNBOUNDED PRECEDING
                             AND 1 PRECEDING), 0)
                // {shard_budget} AS BIGINT) AS shard_id
    FROM capped
"""


QUERIES["pretraining_mix_pipeline"] = pretraining_mix_pipeline
ORACLE_SQL["pretraining_mix_pipeline"] = _pretraining_mix_oracle_sql()


def events_value_mad_outliers(sf_dir: str):
    """Per-type MAD (median-absolute-deviation) outliers
    (stages.agg.mad_outliers, k=3): two grouped discrete-quantile
    passes, per-row IEEE deviations mirrored op-for-op — the robust
    twin of the IQR filter, hash-checked incl. the float predicate."""
    from tldr_ray.stages.agg import mad_outliers

    return mad_outliers(
        _read(sf_dir, "events", ["event_id", "event_type", "value"]),
        "event_type", "value", k=3.0)


QUERIES["events_value_mad_outliers"] = events_value_mad_outliers
ORACLE_SQL["events_value_mad_outliers"] = """
    WITH med AS (
        SELECT event_type, quantile_disc(value, 0.5) AS m
        FROM events GROUP BY event_type),
    mad AS (
        SELECT e.event_type,
               quantile_disc(abs(e.value - med.m), 0.5) AS d
        FROM events e JOIN med ON med.event_type = e.event_type
        GROUP BY e.event_type),
    t AS (SELECT med.event_type, med.m, mad.d
          FROM med JOIN mad ON mad.event_type = med.event_type)
    SELECT e.event_id, e.event_type, e.value
    FROM events e JOIN t ON t.event_type = e.event_type
    WHERE abs(e.value - t.m) > 3.0 * t.d
"""


def daily_new_users(sf_dir: str):
    """Cumulative-adoption curve: per day, how many users appeared
    that day for the FIRST time plus the running total so far. First
    seen = one grouped Min over day buckets (per-batch pre-combined);
    the day table is tiny, so the cumulative sum is a driver-side
    exact-integer scan over O(days) rows."""
    from ray.data.aggregate import Min

    def prep(batch: pa.Table) -> pa.Table:
        ts = np.asarray(batch["ts"].cast(pa.int64()))
        day = (ts // np.int64(86_400_000_000)) \
            * np.int64(86_400_000_000)
        uid = np.asarray(batch["user_id"], dtype=np.int64)
        u, inv = np.unique(uid, return_inverse=True)
        first = np.full(u.size, np.iinfo(np.int64).max)
        np.minimum.at(first, inv, day)
        return pa.table({"user_id": pa.array(u),
                         "first_day_us": pa.array(first)})

    per_user = (_read(sf_dir, "events", ["user_id", "ts"])
                .map_batches(prep, batch_format="pyarrow")
                .groupby("user_id")
                .aggregate(Min("first_day_us",
                               alias_name="first_day_us")))

    def cnt(batch: pa.Table) -> pa.Table:
        d, c = np.unique(np.asarray(batch["first_day_us"], np.int64),
                         return_counts=True)
        return pa.table({"day_us": pa.array(d),
                         "new_users": pa.array(c.astype(np.int64))})

    from ray.data.aggregate import Sum

    daily = (per_user.map_batches(cnt, batch_format="pyarrow")
             .groupby("day_us")
             .aggregate(Sum("new_users", alias_name="new_users"))
             .to_pandas().sort_values("day_us").reset_index(drop=True))
    daily["cum_users"] = daily["new_users"].cumsum().astype(np.int64)
    daily["day_us"] = daily["day_us"].astype(np.int64)
    daily["new_users"] = daily["new_users"].astype(np.int64)
    return pa.Table.from_pandas(daily, preserve_index=False)


QUERIES["daily_new_users"] = daily_new_users
ORACLE_SQL["daily_new_users"] = """
    WITH f AS (
        SELECT user_id,
               min((epoch_us(ts) // 86400000000) * 86400000000)
                   AS day_us
        FROM events GROUP BY user_id),
    d AS (SELECT day_us, CAST(count(*) AS BIGINT) AS new_users
          FROM f GROUP BY day_us)
    SELECT day_us, new_users,
           CAST(sum(new_users) OVER (ORDER BY day_us
                ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum_users
    FROM d
"""


# ---------------------------------------------------------------------------
# Duplicate-cluster resolution, end-to-end hash-checked
# ---------------------------------------------------------------------------

def dup_clusters_docs(sf_dir: str):
    """Near-duplicate CLUSTERS, not just pairs: connected components
    over the MinHash-LSH pair set (threshold 0.5 — the
    minhash_dedup_docs parameters), cluster id = component minimum
    (stages.dedup.resolve_clusters: counted size-gated union-find <->
    distributed min-label CC, equal fixpoints). The mirror replays the
    full 64-permutation MinHash pipeline in SQL and resolves
    components with a recursive min-reachability CTE — so the whole
    dedup-resolution path is hash-checked end to end."""
    from tldr_ray.stages.dedup import minhash_lsh_pairs, resolve_clusters

    pairs = minhash_lsh_pairs(
        _read(sf_dir, "documents", ["doc_id", "text"]), threshold=0.5)
    df = resolve_clusters(pairs)
    df = df.rename(columns={"id": "doc_id"})
    df["doc_id"] = df["doc_id"].astype(np.int64)
    df["cluster_id"] = df["cluster_id"].astype(np.int64)
    return pa.Table.from_pandas(df, preserve_index=False)


def _dup_clusters_oracle_sql(threshold: float = 0.5) -> str:
    return ("WITH RECURSIVE " + _minhash64_base_cte().split("WITH", 1)[1]
            + f""",
    prs AS MATERIALIZED (
        SELECT a.doc_id AS id_a, b.doc_id AS id_b
        FROM m a JOIN m b ON a.doc_id < b.doc_id
        WHERE ({_lsh_band_collision()})
          AND {_sig_match_fraction()} >= {threshold}
    ),
    sym AS (SELECT id_a AS s, id_b AS t FROM prs
            UNION SELECT id_b, id_a FROM prs),
    verts AS (SELECT DISTINCT s AS v FROM sym),
    reach(v, l) AS (
        SELECT v, v FROM verts
        UNION
        SELECT sym.t, reach.l FROM reach JOIN sym ON sym.s = reach.v
    )
    SELECT v AS doc_id, CAST(min(l) AS BIGINT) AS cluster_id
    FROM reach GROUP BY v
""")


QUERIES["dup_clusters_docs"] = dup_clusters_docs
ORACLE_SQL["dup_clusters_docs"] = _dup_clusters_oracle_sql()


def _curation_pipeline_oracle_sql(min_quality: float = 0.2,
                                  threshold: float = 0.8) -> str:
    """End-to-end mirror of queries.curate_documents_pipeline (round-3
    verdict item 4): composes the already-hash-proven stage CTEs —
    quality score (op-for-op IEEE), quality gate, exact dedup (min id
    per text), the full 64-permutation MinHash over the SURVIVING
    subset, LSH band collision + estimated-Jaccard threshold, recursive
    min-reachability cluster resolution — and keeps representatives
    (sample_fraction=1.0 in the registered query, so no sample CTE)."""
    mh = _minhash64_base_cte(src="ded").split("WITH", 1)[1]
    return (f"""WITH RECURSIVE qs AS ({_quality_scores_oracle_sql()}),
    gate AS MATERIALIZED (
        SELECT d.doc_id, d.text
        FROM documents d JOIN qs USING (doc_id)
        WHERE qs.quality_score >= {min_quality}),
    ded AS MATERIALIZED (
        SELECT min(doc_id) AS doc_id, text FROM gate GROUP BY text),
    """ + mh + f""",
    prs AS MATERIALIZED (
        SELECT a.doc_id AS id_a, b.doc_id AS id_b
        FROM m a JOIN m b ON a.doc_id < b.doc_id
        WHERE ({_lsh_band_collision()})
          AND {_sig_match_fraction()} >= {threshold}
    ),
    sym AS (SELECT id_a AS s, id_b AS t FROM prs
            UNION SELECT id_b, id_a FROM prs),
    verts AS (SELECT DISTINCT s AS v FROM sym),
    reach(v, l) AS (
        SELECT v, v FROM verts
        UNION
        SELECT sym.t, reach.l FROM reach JOIN sym ON sym.s = reach.v
    ),
    cl AS (SELECT v AS doc_id, min(l) AS cluster_id
           FROM reach GROUP BY v),
    dropped AS (SELECT doc_id FROM cl WHERE doc_id != cluster_id)
    SELECT ded.doc_id FROM ded
    WHERE ded.doc_id NOT IN (SELECT doc_id FROM dropped)
""")


ORACLE_SQL["curate_documents_pipeline"] = _curation_pipeline_oracle_sql()


def lang_vocab_richness(sf_dir: str):
    """Type-token ratio per language (lexical-diversity signal for
    corpus balance audits): distinct tokens / total tokens, both exact
    integers from the two-level distinct pattern, ratio = one IEEE
    division. Token shuffle moves distinct (lang, token) pairs after
    per-batch dedup — never tokens."""
    from ray.data.aggregate import Sum

    docs = _read(sf_dir, "documents", ["lang", "text"])

    def toks(batch: pa.Table):
        t = pc.split_pattern_regex(
            pc.utf8_trim_whitespace(pc.utf8_lower(batch["text"])),
            r"\s+")
        if isinstance(t, pa.ChunkedArray):
            t = t.combine_chunks()
        flat = pc.list_flatten(t)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        off = np.asarray(t.offsets, dtype=np.int64)
        doc_of = np.repeat(np.arange(len(batch), dtype=np.int64),
                           np.diff(off))
        keep = np.asarray(pc.greater(pc.utf8_length(flat), 0))
        lang = np.asarray(batch["lang"], dtype=object)[doc_of[keep]]
        return lang, np.asarray(flat)[keep]

    def totals(batch: pa.Table) -> pa.Table:
        lang, _ = toks(batch)
        u, c = np.unique(lang, return_counts=True)
        return pa.table({"lang": pa.array(u.tolist(), pa.string()),
                         "n_tokens": pa.array(c.astype(np.int64))})

    tot = (docs.map_batches(totals, batch_format="pyarrow")
           .groupby("lang").aggregate(Sum("n_tokens",
                                          alias_name="n_tokens")))

    def distinct_pairs(batch: pa.Table) -> pa.Table:
        lang, w = toks(batch)
        key = pd.MultiIndex.from_arrays([lang, w])
        u = np.unique(key)
        return pa.table({
            "lang": pa.array([k[0] for k in u], pa.string()),
            "w": pa.array([k[1] for k in u], pa.string())})

    def vocab_count(batch: pa.Table) -> pa.Table:
        u, c = np.unique(np.asarray(batch["lang"]), return_counts=True)
        return pa.table({"lang": pa.array(u.tolist(), pa.string()),
                         "n_types": pa.array(c.astype(np.int64))})

    voc = (docs.map_batches(distinct_pairs, batch_format="pyarrow")
           .groupby(["lang", "w"]).count().select_columns(["lang", "w"])
           .map_batches(vocab_count, batch_format="pyarrow")
           .groupby("lang").aggregate(Sum("n_types",
                                          alias_name="n_types")))

    t = tot.to_pandas().merge(voc.to_pandas(), on="lang")
    t["type_token_ratio"] = t["n_types"].to_numpy(np.float64) \
        / t["n_tokens"].to_numpy(np.float64)
    for c in ("n_tokens", "n_types"):
        t[c] = t[c].astype(np.int64)
    return pa.Table.from_pandas(
        t[["lang", "n_tokens", "n_types", "type_token_ratio"]],
        preserve_index=False)


QUERIES["lang_vocab_richness"] = lang_vocab_richness
ORACLE_SQL["lang_vocab_richness"] = """
    WITH t AS (
        SELECT lang, w FROM (
            SELECT lang,
                   unnest(regexp_split_to_array(trim(lower(text)),
                                                '\\s+')) AS w
            FROM documents)
        WHERE w != '')
    SELECT lang, CAST(count(*) AS BIGINT) AS n_tokens,
           CAST(count(DISTINCT w) AS BIGINT) AS n_types,
           CAST(count(DISTINCT w) AS DOUBLE)
               / CAST(count(*) AS DOUBLE) AS type_token_ratio
    FROM t GROUP BY lang
"""


def reciprocity_hashgraph(sf_dir: str):
    """Directed-graph reciprocity: the share of distinct directed
    edges whose reverse also exists — exact integer counts (distinct
    directed edges vs mutual edges), one IEEE division. The canonical
    directed-structure audit (link graphs: how much of the web links
    back).

    The mutual edges are a semi ``stages.joins.lookup`` of the
    reversed keys in the distinct key set: within the broadcast gate
    the key set ships once and every block probes it; past the gate
    it is a bucketed semi-join — no O(E) state anywhere. Both paths
    pinned equal in tests/test_graph_gates.py."""
    from tldr_ray.stages.joins import lookup

    edges = _hash_graph_edges(sf_dir)
    N = np.int64(1 << 21)

    def dedup(batch: pa.Table) -> pa.Table:
        s = np.asarray(batch["src"], dtype=np.int64)
        d = np.asarray(batch["dst"], dtype=np.int64)
        key = np.unique(s * N + d)
        return pa.table({"key": pa.array(key)})

    def reverse(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch["key"], dtype=np.int64)
        return pa.table({"key": pa.array((k % N) * N + (k // N))})

    distinct = edges.map_batches(dedup, batch_format="pyarrow") \
        .groupby("key").count().select_columns(["key"]).materialize()
    ne = distinct.count()
    nm = lookup(distinct.map_batches(reverse, batch_format="pyarrow"),
                distinct, "key", "semi").count()
    return pa.table({
        "n_edges": pa.array([ne], pa.int64()),
        "n_mutual": pa.array([nm], pa.int64()),
        "reciprocity": pa.array([nm / ne], pa.float64())})


QUERIES["reciprocity_hashgraph"] = reciprocity_hashgraph
ORACLE_SQL["reciprocity_hashgraph"] = f"""
    WITH {_HASHGRAPH_RAW},
    e AS (SELECT DISTINCT s, t FROM raw2)
    SELECT CAST(count(*) AS BIGINT) AS n_edges,
           CAST(sum(CASE WHEN EXISTS (SELECT 1 FROM e r
                                      WHERE r.s = e.t AND r.t = e.s)
                         THEN 1 ELSE 0 END) AS BIGINT) AS n_mutual,
           CAST(sum(CASE WHEN EXISTS (SELECT 1 FROM e r
                                      WHERE r.s = e.t AND r.t = e.s)
                         THEN 1 ELSE 0 END) AS DOUBLE)
               / CAST(count(*) AS DOUBLE) AS reciprocity
    FROM e
"""


def lang_simpson_diversity(sf_dir: str):
    """Simpson diversity index per language — the entropy-free
    lexical-concentration metric: D = sum n_w(n_w-1) / (N(N-1)) over
    token counts (the probability two random tokens coincide). Both
    moments are exact integers from one grouped (lang, token) count,
    the index is ONE IEEE division — no logarithms anywhere, so the
    float hash-matches SQL."""
    from ray.data.aggregate import Sum

    docs = _read(sf_dir, "documents", ["lang", "text"])

    def pairs(batch: pa.Table) -> pa.Table:
        t = pc.split_pattern_regex(
            pc.utf8_trim_whitespace(pc.utf8_lower(batch["text"])),
            r"\s+")
        if isinstance(t, pa.ChunkedArray):
            t = t.combine_chunks()
        flat = pc.list_flatten(t)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        off = np.asarray(t.offsets, dtype=np.int64)
        doc_of = np.repeat(np.arange(len(batch), dtype=np.int64),
                           np.diff(off))
        keep = np.asarray(pc.greater(pc.utf8_length(flat), 0))
        lang = np.asarray(batch["lang"], dtype=object)[doc_of[keep]]
        w = np.asarray(flat)[keep]
        key = pd.MultiIndex.from_arrays([lang, w])
        u, c = np.unique(key, return_counts=True)
        return pa.table({
            "lang": pa.array([k[0] for k in u], pa.string()),
            "w": pa.array([k[1] for k in u], pa.string()),
            "n": pa.array(c.astype(np.int64))})

    per_token = (docs.map_batches(pairs, batch_format="pyarrow")
                 .groupby(["lang", "w"])
                 .aggregate(Sum("n", alias_name="n")))

    def moments(batch: pa.Table) -> pa.Table:
        lang = np.asarray(batch["lang"], dtype=object)
        n = np.asarray(batch["n"], dtype=np.int64)
        u, inv = np.unique(lang, return_inverse=True)
        return pa.table({
            "lang": pa.array(u.tolist(), pa.string()),
            "coincide": pa.array(np.bincount(
                inv, weights=n * (n - 1)).astype(np.int64)),
            "total": pa.array(np.bincount(inv, weights=n)
                              .astype(np.int64))})

    agg = (per_token.map_batches(moments, batch_format="pyarrow")
           .groupby("lang")
           .aggregate(Sum("coincide", alias_name="coincide"),
                      Sum("total", alias_name="total"))
           .to_pandas())
    co = agg["coincide"].to_numpy(np.int64)
    tot = agg["total"].to_numpy(np.int64)
    agg["simpson"] = co.astype(np.float64) \
        / (tot * (tot - 1)).astype(np.float64)
    for c in ("coincide", "total"):
        agg[c] = agg[c].astype(np.int64)
    return pa.Table.from_pandas(
        agg[["lang", "total", "coincide", "simpson"]],
        preserve_index=False)


QUERIES["lang_simpson_diversity"] = lang_simpson_diversity
ORACLE_SQL["lang_simpson_diversity"] = """
    WITH t AS (
        SELECT lang, w FROM (
            SELECT lang,
                   unnest(regexp_split_to_array(trim(lower(text)),
                                                '\\s+')) AS w
            FROM documents)
        WHERE w != ''),
    c AS (SELECT lang, w, CAST(count(*) AS BIGINT) AS n
          FROM t GROUP BY lang, w)
    SELECT lang,
           CAST(sum(n) AS BIGINT) AS total,
           CAST(sum(n * (n - 1)) AS BIGINT) AS coincide,
           CAST(sum(n * (n - 1)) AS DOUBLE)
               / CAST(sum(n) * (sum(n) - 1) AS DOUBLE) AS simpson
    FROM c GROUP BY lang
"""


def orders_next_event_asof(sf_dir: str):
    """FORWARD as-of join (stages.joins.asof_join_forward): each order
    matched to the customer's EARLIEST event at or after the order
    date (time-to-first-activity attribution; ties on timestamp ->
    max event_id). Timestamp negation reuses the proven backward
    rank-composite machinery; timestamps emit as int64
    microseconds."""
    from tldr_ray.stages.joins import asof_join_forward

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"]) \
        .map_batches(lambda t: t.rename_columns(
            ["o_orderkey", "user_id", "o_orderdate"]),
            batch_format="pyarrow")
    events = _read(sf_dir, "events", ["event_id", "ts", "user_id"])
    out = asof_join_forward(orders, events, on="user_id",
                            left_ts="o_orderdate", right_ts="ts",
                            tiebreak="event_id")

    def seal(batch: pd.DataFrame) -> pd.DataFrame:
        for c in ("o_orderkey", "user_id", "o_orderdate", "ts",
                  "event_id"):
            batch[c] = batch[c].astype(np.int64)
        batch = batch.rename(columns={"o_orderdate": "orderdate_us",
                                      "ts": "event_ts_us"})
        return batch[["o_orderkey", "user_id", "orderdate_us",
                      "event_id", "event_ts_us"]]

    return out.map_batches(seal, batch_format="pandas")


QUERIES["orders_next_event_asof"] = orders_next_event_asof
ORACLE_SQL["orders_next_event_asof"] = """
    WITH j AS (
        SELECT o.o_orderkey, o.o_custkey AS user_id,
               CAST(epoch_us(o.o_orderdate) AS BIGINT) AS orderdate_us,
               e.event_id,
               CAST(epoch_us(e.ts) AS BIGINT) AS event_ts_us,
               row_number() OVER (
                   PARTITION BY o.o_orderkey
                   ORDER BY e.ts ASC, e.event_id DESC) AS rn
        FROM orders o
        JOIN events e
          ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
    )
    SELECT o_orderkey, user_id, orderdate_us, event_id, event_ts_us
    FROM j WHERE rn = 1
"""


def user_event_gap_median(sf_dir: str):
    """Median inter-event gap per user (engagement-cadence signal):
    per-user ordered time deltas from the shared row_window sweep
    (-1 first-row sentinels dropped), then one grouped DISCRETE
    quantile — all exact integers end to end."""
    from tldr_ray.stages.agg import grouped_quantiles
    from tldr_ray.stages.windows import row_window

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch["user_id"].cast(pa.int64()),
            "ts_us": batch["ts"].cast(pa.int64()),
            "event_id": batch["event_id"].cast(pa.int64())})

    w = row_window(
        _read(sf_dir, "events", ["event_id", "user_id", "ts"])
        .map_batches(prep, batch_format="pyarrow"),
        "user_id", ["ts_us", "event_id"], delta_col="ts_us")

    def gaps(batch: pa.Table) -> pa.Table:
        d = np.asarray(batch["delta_ts_us"], dtype=np.int64)
        m = d >= 0                      # drop first-in-partition rows
        return pa.table({
            "user_id": batch["user_id"].filter(pa.array(m))
            .cast(pa.int64()),
            "gap_us": pa.array(d[m])})

    out = grouped_quantiles(
        w.map_batches(gaps, batch_format="pyarrow"),
        "user_id", "gap_us", qs=(0.5,))

    def seal(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch["user_id"].cast(pa.int64()),
            "median_gap_us": batch["p50"].cast(pa.int64())})

    return out.map_batches(seal, batch_format="pyarrow")


QUERIES["user_event_gap_median"] = user_event_gap_median
ORACLE_SQL["user_event_gap_median"] = """
    WITH g AS (
        SELECT user_id,
               epoch_us(ts) - lag(epoch_us(ts)) OVER (
                   PARTITION BY user_id
                   ORDER BY epoch_us(ts), event_id) AS gap_us
        FROM events)
    SELECT user_id,
           CAST(quantile_disc(gap_us, 0.5) AS BIGINT) AS median_gap_us
    FROM g WHERE gap_us IS NOT NULL
    GROUP BY user_id
"""


def source_quality_audit(sf_dir: str):
    """Per-source quality audit over the documents' ``source`` column:
    the share of each source's documents scoring at or above the
    GLOBAL discrete median quality — the drift monitor a curation
    pipeline alarms on. Counts are exact integers; the share is one
    IEEE division; the median is an actual element (grouped_quantiles
    on a constant key), so everything hash-checks."""
    from ray.data.aggregate import Sum

    from tldr_ray.stages.agg import grouped_quantiles
    from tldr_ray.stages.text_analysis import quality_scores

    scored = quality_scores(
        _read(sf_dir, "documents", ["doc_id", "source", "text"]),
        concurrency=2).materialize()

    def const_key(batch: pa.Table) -> pa.Table:
        return pa.table({
            "k": pa.array(np.zeros(len(batch), np.int64)),
            "quality_score": batch["quality_score"]})

    med = grouped_quantiles(
        scored.map_batches(const_key, batch_format="pyarrow"),
        "k", "quality_score", qs=(0.5,)).to_pandas()["p50"].iloc[0]

    def counts(batch: pa.Table) -> pa.Table:
        src = np.asarray(batch["source"], dtype=object)
        q = np.asarray(batch["quality_score"], dtype=np.float64)
        u, inv = np.unique(src, return_inverse=True)
        return pa.table({
            "source": pa.array(u.tolist(), pa.string()),
            "n_docs": pa.array(np.bincount(inv).astype(np.int64)),
            "n_above": pa.array(np.bincount(
                inv, weights=(q >= med)).astype(np.int64))})

    agg = (scored.map_batches(counts, batch_format="pyarrow")
           .groupby("source")
           .aggregate(Sum("n_docs", alias_name="n_docs"),
                      Sum("n_above", alias_name="n_above"))
           .to_pandas())
    agg["share_above_median"] = \
        agg["n_above"].to_numpy(np.float64) \
        / agg["n_docs"].to_numpy(np.float64)
    for c in ("n_docs", "n_above"):
        agg[c] = agg[c].astype(np.int64)
    return pa.Table.from_pandas(
        agg[["source", "n_docs", "n_above", "share_above_median"]],
        preserve_index=False)


QUERIES["source_quality_audit"] = source_quality_audit
ORACLE_SQL["source_quality_audit"] = f"""
    WITH q AS ({_quality_scores_oracle_sql()}),
    d AS (SELECT doc.source, q.quality_score
          FROM q JOIN documents doc ON doc.doc_id = q.doc_id),
    m AS (SELECT quantile_disc(quality_score, 0.5) AS med FROM d)
    SELECT d.source,
           CAST(count(*) AS BIGINT) AS n_docs,
           CAST(sum(CASE WHEN d.quality_score >= m.med
                         THEN 1 ELSE 0 END) AS BIGINT) AS n_above,
           CAST(sum(CASE WHEN d.quality_score >= m.med
                         THEN 1 ELSE 0 END) AS DOUBLE)
               / CAST(count(*) AS DOUBLE) AS share_above_median
    FROM d CROSS JOIN m
    GROUP BY d.source
"""


# ---------------------------------------------------------------------------
# TPC-H Q9/Q8 shapes (round 4) and later operator demos
# ---------------------------------------------------------------------------


def tpch_q9_profit_by_nation_year(sf_dir: str):
    """TPC-H Q9-shaped: profit (exact cents revenue; the synth schema
    has no partsupp cost) by (supplier nation, order year) for parts
    whose name contains 'red'. Red partkeys ride a broadcast semi
    filter (1/8 of one dimension); supplier nation attaches via the
    size-gated _dim_decorate; the order year comes through the
    bucketed fact join on l_orderkey (both sides fact-sized). Nation names decode on the final <=175-row table."""
    import pyarrow.parquet as pq
    from ray.data.aggregate import Sum

    from tldr_ray.stages.joins import bucketed_hash_join

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_name"])
    red = np.asarray(part["p_partkey"], dtype=np.int64)[
        np.asarray(pc.match_substring(part["p_name"], "red"))]

    def lproj(batch: pa.Table) -> pa.Table:
        px = np.asarray(batch["l_extendedprice"], dtype=np.float64)
        disc = np.asarray(batch["l_discount"], dtype=np.float64)
        return pa.table({
            "l_orderkey": batch["l_orderkey"].cast(pa.int64()),
            "l_partkey": batch["l_partkey"].cast(pa.int64()),
            "l_suppkey": batch["l_suppkey"].cast(pa.int64()),
            "profit_cents": pa.array(_cents(px * (1.0 - disc)))})

    line = _semi_filter_keys(
        _read(sf_dir, "lineitem",
              ["l_orderkey", "l_partkey", "l_suppkey",
               "l_extendedprice", "l_discount"])
        .map_batches(lproj, batch_format="pyarrow"), "l_partkey", red)
    line = _dim_decorate(line, sf_dir, "supplier", "s_suppkey",
                         "s_nationkey", on="l_suppkey", out_col="s_nat")

    def oproj(batch: pa.Table) -> pa.Table:
        od = np.asarray(batch["o_orderdate"].cast(pa.int64()))
        yr = od.astype("datetime64[us]").astype("datetime64[Y]") \
            .astype(np.int64) + 1970
        return pa.table({
            "l_orderkey": batch["o_orderkey"].cast(pa.int64()),
            "o_year": pa.array(yr)})

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"]) \
        .map_batches(oproj, batch_format="pyarrow")
    joined = bucketed_hash_join(line, orders, on="l_orderkey")

    agg = (joined.groupby(["s_nat", "o_year"])
           .aggregate(Sum("profit_cents", alias_name="profit_cents"))
           .to_pandas())
    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])
    nkey = np.asarray(nation["n_nationkey"], dtype=np.int64)
    names = np.empty(int(nkey.max()) + 1, dtype=object)
    names[nkey] = nation["n_name"].to_pylist()
    agg["n_name"] = names[agg["s_nat"].to_numpy(np.int64)]
    for c in ("o_year", "profit_cents"):
        agg[c] = agg[c].astype(np.int64)
    return pa.Table.from_pandas(
        agg[["n_name", "o_year", "profit_cents"]], preserve_index=False)


QUERIES["tpch_q9_profit_by_nation_year"] = tpch_q9_profit_by_nation_year
ORACLE_SQL["tpch_q9_profit_by_nation_year"] = """
    SELECT n.n_name, CAST(year(o.o_orderdate) AS BIGINT) AS o_year,
           CAST(sum(CAST(floor(l.l_extendedprice * (1 - l.l_discount)
                               * 100 + 0.5) AS BIGINT)) AS BIGINT)
               AS profit_cents
    FROM lineitem l
    JOIN part p ON p.p_partkey = l.l_partkey AND p.p_name LIKE '%red%'
    JOIN supplier s ON s.s_suppkey = l.l_suppkey
    JOIN nation n ON n.n_nationkey = s.s_nationkey
    JOIN orders o ON o.o_orderkey = l.l_orderkey
    GROUP BY n.n_name, year(o.o_orderdate)
"""


def tpch_q8_market_share(sf_dir: str):
    """TPC-H Q8-shaped: NATION_3's share of ASIA-market revenue per
    order year (1996-1997). ASIA customer nations prune the orders
    scan (customer nation via the size-gated _dim_decorate, region
    membership a tiny broadcast); supplier nation decorates lineitem
    the same way; the one all-to-all is the bucketed fact join. The
    share is a single double division of two exact-int cent sums per
    year, so it hash-matches."""
    import pyarrow.parquet as pq
    from ray.data.aggregate import Sum

    from tldr_ray.stages.joins import bucketed_hash_join

    lo = np.datetime64("1996-01-01").astype("datetime64[us]").astype(np.int64)
    hi = np.datetime64("1998-01-01").astype("datetime64[us]").astype(np.int64)

    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    region = pq.read_table(f"{sf_dir}/region.parquet")
    rk = np.asarray(region["r_regionkey"], dtype=np.int64)
    asia_rk = rk[np.asarray(pc.equal(region["r_name"], "ASIA"))]
    nk = np.asarray(nation["n_nationkey"], dtype=np.int64)
    nr = np.asarray(nation["n_regionkey"], dtype=np.int64)
    asia_nations = np.sort(nk[np.isin(nr, asia_rk)])
    target = int(nk[np.asarray(
        pc.equal(nation["n_name"], "NATION_3"))][0])

    def ofil(batch: pa.Table) -> pa.Table:
        od = np.asarray(batch["o_orderdate"].cast(pa.int64()))
        m = (od >= lo) & (od < hi)
        yr = od[m].astype("datetime64[us]").astype("datetime64[Y]") \
            .astype(np.int64) + 1970
        return pa.table({
            "l_orderkey": pa.array(
                np.asarray(batch["o_orderkey"], dtype=np.int64)[m]),
            "o_custkey": pa.array(
                np.asarray(batch["o_custkey"], dtype=np.int64)[m]),
            "o_year": pa.array(yr)})

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"]) \
        .map_batches(ofil, batch_format="pyarrow")
    orders = _dim_decorate(orders, sf_dir, "customer", "c_custkey",
                           "c_nationkey", on="o_custkey",
                           out_col="c_nat")

    def asia_only(batch: pa.Table) -> pa.Table:
        cn = np.asarray(batch["c_nat"], dtype=np.int64)
        if asia_nations.size:
            pos = np.clip(np.searchsorted(asia_nations, cn), 0,
                          asia_nations.size - 1)
            m = asia_nations[pos] == cn
        else:
            m = np.zeros(cn.shape, bool)
        return pa.table({
            "l_orderkey": pa.array(
                np.asarray(batch["l_orderkey"], dtype=np.int64)[m]),
            "o_year": pa.array(
                np.asarray(batch["o_year"], dtype=np.int64)[m])})

    orders = orders.map_batches(asia_only, batch_format="pyarrow")

    def lproj(batch: pa.Table) -> pa.Table:
        px = np.asarray(batch["l_extendedprice"], dtype=np.float64)
        disc = np.asarray(batch["l_discount"], dtype=np.float64)
        return pa.table({
            "l_orderkey": batch["l_orderkey"].cast(pa.int64()),
            "l_suppkey": batch["l_suppkey"].cast(pa.int64()),
            "revenue_cents": pa.array(_cents(px * (1.0 - disc)))})

    line = _read(sf_dir, "lineitem",
                 ["l_orderkey", "l_suppkey", "l_extendedprice",
                  "l_discount"]).map_batches(lproj,
                                             batch_format="pyarrow")
    line = _dim_decorate(line, sf_dir, "supplier", "s_suppkey",
                         "s_nationkey", on="l_suppkey",
                         out_col="s_nat")
    joined = bucketed_hash_join(line, orders, on="l_orderkey")

    def split(batch: pa.Table) -> pa.Table:
        rc = np.asarray(batch["revenue_cents"], dtype=np.int64)
        sn = np.asarray(batch["s_nat"], dtype=np.int64)
        yr = np.asarray(batch["o_year"], dtype=np.int64)
        u, inv = np.unique(yr, return_inverse=True)
        tot = np.bincount(inv, weights=rc).astype(np.int64)
        nat = np.bincount(inv, weights=np.where(sn == target, rc, 0)) \
            .astype(np.int64)
        return pa.table({"o_year": pa.array(u),
                         "total_cents": pa.array(tot),
                         "nation_cents": pa.array(nat)})

    agg = (joined.map_batches(split, batch_format="pyarrow")
           .groupby("o_year")
           .aggregate(Sum("total_cents", alias_name="total_cents"),
                      Sum("nation_cents", alias_name="nation_cents"))
           .to_pandas())
    agg["mkt_share"] = agg["nation_cents"].to_numpy(np.float64) \
        / agg["total_cents"].to_numpy(np.float64)
    for c in ("o_year", "total_cents", "nation_cents"):
        agg[c] = agg[c].astype(np.int64)
    return pa.Table.from_pandas(
        agg[["o_year", "total_cents", "nation_cents", "mkt_share"]],
        preserve_index=False)


QUERIES["tpch_q8_market_share"] = tpch_q8_market_share
ORACLE_SQL["tpch_q8_market_share"] = """
    WITH j AS (
        SELECT CAST(year(o.o_orderdate) AS BIGINT) AS o_year,
               CAST(floor(l.l_extendedprice * (1 - l.l_discount) * 100
                          + 0.5) AS BIGINT) AS rc,
               s.s_nationkey AS s_nat
        FROM lineitem l
        JOIN orders o ON o.o_orderkey = l.l_orderkey
        JOIN customer c ON c.c_custkey = o.o_custkey
        JOIN nation cn ON cn.n_nationkey = c.c_nationkey
        JOIN region r ON r.r_regionkey = cn.n_regionkey
                     AND r.r_name = 'ASIA'
        JOIN supplier s ON s.s_suppkey = l.l_suppkey
        WHERE o.o_orderdate >= TIMESTAMP '1996-01-01'
          AND o.o_orderdate < TIMESTAMP '1998-01-01'),
    tgt AS (SELECT n_nationkey FROM nation WHERE n_name = 'NATION_3')
    SELECT o_year,
           CAST(sum(rc) AS BIGINT) AS total_cents,
           CAST(sum(CASE WHEN s_nat = (SELECT n_nationkey FROM tgt)
                         THEN rc ELSE 0 END) AS BIGINT) AS nation_cents,
           CAST(sum(CASE WHEN s_nat = (SELECT n_nationkey FROM tgt)
                         THEN rc ELSE 0 END) AS DOUBLE)
               / CAST(sum(rc) AS DOUBLE) AS mkt_share
    FROM j GROUP BY o_year
"""


def knn_graph_embeddings(sf_dir: str, k: int = 3):
    """Exact k-nearest-neighbor GRAPH over the embeddings table (each
    vector's top-k cosine neighbors, self excluded — the building
    block for embedding near-dup clustering and graph-based curation).
    Within the broadcast gate the UNIT-NORMALIZED corpus matrix
    rides the object store once and every batch does one float32
    matmul against it (blockwise exact nested-loop, zero shuffle);
    past the gate, callers should use stages.ann.knn_lsh/knn_ivf
    (approximate) — an exact all-pairs at 10^9 rows is not a thing any
    engine should stream. Ties break (cosine desc, vec_id asc)."""
    import ray
    import pyarrow.parquet as pq

    from tldr_ray.stages.joins import fits_broadcast

    if not fits_broadcast(_read(sf_dir, "embeddings", ["vec_id"])):
        raise ValueError(
            "exact knn-graph is gated at the broadcast budget; use "
            "stages.ann.knn_lsh / knn_ivf at scale")

    corpus = pq.read_table(f"{sf_dir}/embeddings.parquet",
                           columns=["vec_id", "embedding"])
    ids_all = np.asarray(corpus["vec_id"], dtype=np.int64)
    from tldr_ray.stages.ann import _as_matrix, _unit

    mat_all = _unit(_as_matrix(corpus["embedding"]))
    ref = ray.put((ids_all, mat_all))

    def neigh(batch: pa.Table) -> pa.Table:
        cids, cmat = ray.get(ref)
        mat = _unit(_as_matrix(batch["embedding"]))
        ids = np.asarray(batch["vec_id"], dtype=np.int64)
        # float64 scoring: rank order must agree with the float64 SQL
        # oracle even for near-tied neighbors (float32 matmul error
        # ~1e-7 could flip an ordering the hash check would catch)
        cos = mat.astype(np.float64) @ cmat.astype(np.float64).T
        # exclude self matches by id (not by row position)
        cos[ids[:, None] == cids[None, :]] = -np.inf
        # top-k with (cosine desc, vec_id asc) ties: lexsort per row
        kk = min(k, cmat.shape[0] - 1)
        part = np.argpartition(-cos, kk - 1, axis=1)[:, :kk + 8]
        out_src, out_dst, out_rank, out_cos = [], [], [], []
        for i in range(ids.size):
            cand = part[i]
            order = np.lexsort((cids[cand], -cos[i, cand]))[:kk]
            sel = cand[order]
            out_src.append(np.full(kk, ids[i]))
            out_dst.append(cids[sel])
            out_rank.append(np.arange(1, kk + 1, dtype=np.int64))
            out_cos.append(cos[i, sel].astype(np.float64))
        if not out_src:
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "nbr_id": pa.array([], pa.int64()),
                             "rnk": pa.array([], pa.int64()),
                             "cosine": pa.array([], pa.float64())})
        return pa.table({"vec_id": np.concatenate(out_src),
                         "nbr_id": np.concatenate(out_dst),
                         "rnk": np.concatenate(out_rank),
                         "cosine": np.concatenate(out_cos)})

    return (_read(sf_dir, "embeddings", ["vec_id", "embedding"])
            .map_batches(neigh, batch_format="pyarrow")
            .select_columns(["vec_id", "nbr_id", "rnk"]))


QUERIES["knn_graph_embeddings"] = knn_graph_embeddings
ORACLE_SQL["knn_graph_embeddings"] = """
    WITH sc AS (
        SELECT a.vec_id, b.vec_id AS nbr_id,
               list_cosine_similarity(a.embedding, b.embedding) AS cos
        FROM embeddings a JOIN embeddings b ON a.vec_id != b.vec_id),
    rk AS (
        SELECT vec_id, nbr_id,
               row_number() OVER (PARTITION BY vec_id
                                  ORDER BY cos DESC, nbr_id ASC) AS rnk
        FROM sc)
    SELECT vec_id, nbr_id, CAST(rnk AS BIGINT) AS rnk
    FROM rk WHERE rnk <= 3
"""


def temperature_mix_docs(sf_dir: str, alpha: float = 0.5):
    """Temperature-rebalanced language mix (the classic multilingual
    pretraining reweighting): per-language keep rate
    r_l = (n_min / n_l)^(1-alpha) — alpha=0.5 -> sqrt — so kept counts
    scale as n_l^alpha and the rarest language keeps everything. The
    gate is deterministic: splitmix64(doc_id) as a double vs
    r_l * 2^64, mirrored op-for-op in SQL (IEEE sqrt and division are
    correctly rounded, so the float threshold hash-matches — unlike
    log/exp this is bit-portable). Language counts are one tiny
    distributed aggregate; the corpus streams through the gate once."""
    import ray
    from ray.data.aggregate import Count

    from tldr_ray.stages.dedup import _mix64

    counts = (_read(sf_dir, "documents", ["lang"])
              .groupby("lang").aggregate(Count(alias_name="n"))
              .to_pandas())
    langs = counts["lang"].to_numpy(object)
    n = counts["n"].to_numpy(np.float64)
    nmin = float(n.min())
    thr = np.sqrt(nmin / n) * 18446744073709551616.0
    order = np.argsort(langs)
    lref = ray.put((langs[order].astype(str).tolist(), thr[order]))

    def gate(batch: pa.Table) -> pa.Table:
        ls, ts = ray.get(lref)
        lut = pa.array(ls, pa.string())
        idx = np.asarray(pc.index_in(batch["lang"], value_set=lut)
                         .fill_null(-1))
        did = np.asarray(batch["doc_id"], dtype=np.int64)
        h = _mix64(did.astype(np.uint64)).astype(np.float64)
        ok = (idx >= 0) & (h <= ts[np.where(idx >= 0, idx, 0)])
        return pa.table({
            "doc_id": pa.array(did[ok]),
            "lang": pc.take(batch["lang"], pa.array(
                np.flatnonzero(ok)))})

    return (_read(sf_dir, "documents", ["doc_id", "lang"])
            .map_batches(gate, batch_format="pyarrow"))


QUERIES["temperature_mix_docs"] = temperature_mix_docs
ORACLE_SQL["temperature_mix_docs"] = f"""
    WITH cnt AS (SELECT lang, count(*) AS n FROM documents
                 GROUP BY lang),
    mn AS (SELECT min(n) AS nmin FROM cnt),
    rate AS (SELECT lang,
                    sqrt(CAST((SELECT nmin FROM mn) AS DOUBLE)
                         / CAST(n AS DOUBLE))
                    * 18446744073709551616.0 AS thr
             FROM cnt),
    src AS (SELECT doc_id, lang, CAST(doc_id AS HUGEINT) AS h
            FROM documents),
    {_sql_splitmix_ctes("src", carry="doc_id, lang, ")}
    SELECT m3.doc_id, m3.lang
    FROM m3 JOIN rate USING (lang)
    WHERE CAST(m3.h AS DOUBLE) <= rate.thr
"""


def paragraph_dedup_docs(sf_dir: str, window_words: int = 12):
    """Paragraph-level exact dedup (the CCNet/RefinedWeb line-dedup
    shape): every doc splits into 12-word chunks, each chunk survives
    only at its FIRST global occurrence (min (doc_id, idx)), and docs
    are reassembled from their surviving chunks in order. Fully
    vectorized chunking (Arrow split_whitespace + offset arithmetic +
    binary_join — no per-doc Python); two content-sized shuffles, the
    theoretical minimum (chunks must co-locate once by content to
    dedup and once by doc to reassemble). SQL mirror: list slicing +
    row_number + ordered string_agg."""
    from tldr_ray.hashing import poly_hash_batch

    W = window_words

    def chunk(batch: pa.Table) -> pa.Table:
        words = pc.utf8_split_whitespace(batch["text"])
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        off = np.asarray(words.offsets, dtype=np.int64)
        did = np.asarray(batch["doc_id"], dtype=np.int64)
        nwords = np.diff(off)
        nchunks = (nwords + W - 1) // W
        total = int(nchunks.sum())
        if total == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "idx": pa.array([], pa.int64()),
                             "chunk": pa.array([], pa.string()),
                             "ch": pa.array([], pa.int64())})
        doc_rep = np.repeat(np.arange(did.size), nchunks)
        idx_in_doc = np.arange(total) \
            - np.repeat(np.cumsum(nchunks) - nchunks, nchunks)
        starts = off[doc_rep] + W * idx_in_doc
        # chunk boundaries are contiguous over the flattened word
        # buffer (end of each chunk == start of the next), so ONE
        # offsets vector rebuilds a list array zero-copy
        offsets = np.concatenate([starts, off[-1:]])
        chunks_list = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), words.values)
        chunk_str = pc.binary_join(chunks_list, " ")
        return pa.table({
            "doc_id": pa.array(did[doc_rep]),
            "idx": pa.array(idx_in_doc),
            "chunk": chunk_str,
            # long texts: one O(total bytes) hash pass, swept on as an
            # int key
            "ch": pa.array(poly_hash_batch(chunk_str).view(np.int64))})

    def dedup_part(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["chunk", "doc_id", "idx"])
        ch = g["chunk"].to_numpy(object)
        first = np.concatenate([[True], ch[1:] != ch[:-1]])
        out = g[first]
        return pd.DataFrame({
            "doc_id": out["doc_id"].to_numpy(np.int64),
            "idx": out["idx"].to_numpy(np.int64),
            "chunk": out["chunk"].to_numpy(object)})

    def reassemble(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["doc_id", "idx"])
        agg = g.groupby("doc_id", sort=True)["chunk"] \
            .agg(" ".join).reset_index()
        return pd.DataFrame({
            "doc_id": agg["doc_id"].to_numpy(np.int64),
            "text": agg["chunk"].to_numpy(object)})

    chunks = _read(sf_dir, "documents", ["doc_id", "text"]) \
        .map_batches(chunk, batch_format="pyarrow")
    return keyed_sweep(keyed_sweep(chunks, "ch", dedup_part), "doc_id",
                       reassemble)


QUERIES["paragraph_dedup_docs"] = paragraph_dedup_docs
ORACLE_SQL["paragraph_dedup_docs"] = """
    WITH wd AS (
        SELECT doc_id, regexp_split_to_array(text, '\\s+') AS ws
        FROM documents),
    ch AS (
        SELECT doc_id, i AS idx,
               array_to_string(ws[(i * 12 + 1):(i * 12 + 12)], ' ')
                   AS chunk
        FROM wd,
             unnest(range(CAST(ceil(len(ws) / 12.0) AS BIGINT)))
                 AS t(i)),
    rk AS (
        SELECT doc_id, idx, chunk,
               row_number() OVER (PARTITION BY chunk
                                  ORDER BY doc_id, idx) AS rn
        FROM ch)
    SELECT doc_id, string_agg(chunk, ' ' ORDER BY idx) AS text
    FROM rk WHERE rn = 1 GROUP BY doc_id
"""


def merge_customer_balances(sf_dir: str):
    """Delta-style MERGE INTO (stages.joins.merge_upsert): the order
    stream is replayed as a change log onto the customer snapshot —
    per customer the latest order (by (day, orderkey) composite) wins;
    status 'F' deletes the customer, anything else upserts the balance
    to that order's total and stamps the segment 'UPDATED'. One
    bucketed co-shuffle resolves everything locally."""
    from tldr_ray.stages.joins import merge_upsert

    def snap(batch: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": batch["c_custkey"].cast(pa.int64()),
            "acctbal_cents": pa.array(_cents(np.asarray(
                batch["c_acctbal"], dtype=np.float64))),
            "c_mktsegment": batch["c_mktsegment"]})

    snapshot = _read(sf_dir, "customer",
                     ["c_custkey", "c_acctbal", "c_mktsegment"]) \
        .map_batches(snap, batch_format="pyarrow")

    def ch(batch: pa.Table) -> pa.Table:
        od = np.asarray(batch["o_orderdate"].cast(pa.int64()))
        ok = np.asarray(batch["o_orderkey"], dtype=np.int64)
        day = od // 86_400_000_000
        is_f = np.asarray(pc.equal(batch["o_orderstatus"], "F"))
        return pa.table({
            "c_custkey": batch["o_custkey"].cast(pa.int64()),
            "acctbal_cents": pa.array(_cents(np.asarray(
                batch["o_totalprice"], dtype=np.float64))),
            "c_mktsegment": pa.array(
                np.full(len(batch), "UPDATED").tolist(), pa.string()),
            "op": pa.array(np.where(is_f, "D", "U").tolist(),
                           pa.string()),
            "ord": pa.array((day << np.int64(32)) | ok)})

    changes = _read(sf_dir, "orders",
                    ["o_orderkey", "o_custkey", "o_orderdate",
                     "o_totalprice", "o_orderstatus"]) \
        .map_batches(ch, batch_format="pyarrow")
    return merge_upsert(snapshot, changes, key_col="c_custkey")


QUERIES["merge_customer_balances"] = merge_customer_balances
ORACLE_SQL["merge_customer_balances"] = """
    WITH ch AS (
        SELECT o_custkey AS c_custkey,
               CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)
                   AS acctbal_cents,
               'UPDATED' AS c_mktsegment,
               CASE WHEN o_orderstatus = 'F' THEN 'D' ELSE 'U' END AS op,
               (CAST(epoch(o_orderdate) // 86400 AS BIGINT) * 4294967296)
                   + o_orderkey AS ord
        FROM orders),
    w AS (SELECT *, row_number() OVER (PARTITION BY c_custkey
                                       ORDER BY ord DESC) AS rn
          FROM ch),
    last AS (SELECT * FROM w WHERE rn = 1),
    snap AS (SELECT c_custkey,
                    CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT)
                        AS acctbal_cents,
                    c_mktsegment
             FROM customer)
    SELECT s.c_custkey, s.acctbal_cents, s.c_mktsegment
    FROM snap s LEFT JOIN last l USING (c_custkey)
    WHERE l.c_custkey IS NULL
    UNION ALL
    SELECT c_custkey, acctbal_cents, c_mktsegment
    FROM last WHERE op = 'U'
"""


def chunk_docs_sliding(sf_dir: str, window: int = 12, stride: int = 6):
    """RAG-style sliding-window chunking: every doc becomes overlapping
    12-word chunks at stride 6 (chunk i covers words
    [i*stride, i*stride+window); one final partial chunk once the tail
    is shorter than a window). Fully vectorized: Arrow whitespace
    split, repeat/cumsum index arithmetic to gather the (overlapping)
    word ranges, one pc.take + binary_join per batch — no per-doc
    Python. Embarrassingly parallel (no shuffle)."""
    W, S = window, stride

    def chunk(batch: pa.Table) -> pa.Table:
        words = pc.utf8_split_whitespace(batch["text"])
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        off = np.asarray(words.offsets, dtype=np.int64)
        did = np.asarray(batch["doc_id"], dtype=np.int64)
        nw = np.diff(off)
        nchunks = 1 + (np.maximum(nw - W, 0) + S - 1) // S
        total = int(nchunks.sum())
        if total == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "idx": pa.array([], pa.int64()),
                             "chunk": pa.array([], pa.string()),
                             "n_words": pa.array([], pa.int64())})
        doc_rep = np.repeat(np.arange(did.size), nchunks)
        idx = np.arange(total) \
            - np.repeat(np.cumsum(nchunks) - nchunks, nchunks)
        starts = off[doc_rep] + S * idx
        lens = np.minimum(starts + W, off[doc_rep + 1]) - starts
        # flat gather indices: one contiguous range per chunk
        flat_total = int(lens.sum())
        bounds = np.cumsum(lens) - lens
        flat = np.arange(flat_total) - np.repeat(bounds, lens) \
            + np.repeat(starts, lens)
        gathered = pc.take(words.values, pa.array(flat, pa.int64()))
        offsets = np.concatenate([bounds, [flat_total]])
        chunks_list = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), gathered)
        return pa.table({
            "doc_id": pa.array(did[doc_rep]),
            "idx": pa.array(idx),
            "chunk": pc.binary_join(chunks_list, " "),
            "n_words": pa.array(lens)})

    return (_read(sf_dir, "documents", ["doc_id", "text"])
            .map_batches(chunk, batch_format="pyarrow"))


QUERIES["chunk_docs_sliding"] = chunk_docs_sliding
ORACLE_SQL["chunk_docs_sliding"] = """
    WITH wd AS (
        SELECT doc_id, regexp_split_to_array(text, '\\s+') AS ws
        FROM documents)
    SELECT doc_id, i AS idx,
           array_to_string(ws[(i * 6 + 1):(i * 6 + 12)], ' ') AS chunk,
           CAST(least(i * 6 + 12, len(ws)) - i * 6 AS BIGINT)
               AS n_words
    FROM wd,
         unnest(range(CAST(1 + ceil(greatest(len(ws) - 12, 0) / 6.0)
                           AS BIGINT))) AS t(i)
"""


def incremental_dedup_docs(sf_dir: str):
    """Stateful landing-zone dedup replayed over two synthetic deltas
    (state.incremental_exact_dedup): even-id docs ingest first and
    commit their 16-byte content fingerprints; odd-id docs then dedup
    against that state AND themselves. Returns the second delta's
    truly-new rows — SQL-expressible as a window + NOT EXISTS, so the
    whole versioned-state path is hash-checked."""
    import tempfile

    from tldr_ray.state import incremental_exact_dedup

    def half(even: bool):
        def fn(batch: pa.Table) -> pa.Table:
            did = np.asarray(batch["doc_id"], dtype=np.int64)
            m = (did % 2 == 0) if even else (did % 2 == 1)
            return batch.filter(pa.array(m))
        return fn

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    sd = tempfile.mkdtemp(prefix="tldr_ray_incdedup_", dir="/tmp")
    incremental_exact_dedup(sd, docs.map_batches(
        half(True), batch_format="pyarrow"))
    fresh, _ = incremental_exact_dedup(sd, docs.map_batches(
        half(False), batch_format="pyarrow"))
    return fresh


QUERIES["incremental_dedup_docs"] = incremental_dedup_docs
ORACLE_SQL["incremental_dedup_docs"] = """
    WITH h1 AS (SELECT doc_id, text FROM documents
                WHERE doc_id % 2 = 0),
    h2 AS (SELECT doc_id, text FROM documents WHERE doc_id % 2 = 1),
    w AS (SELECT doc_id, text,
                 row_number() OVER (PARTITION BY text
                                    ORDER BY doc_id) AS rn
          FROM h2)
    SELECT w.doc_id, w.text FROM w
    WHERE rn = 1
      AND NOT EXISTS (SELECT 1 FROM h1 WHERE h1.text = w.text)
"""


def bpe_encode_docs(sf_dir: str):
    """Train 20 BPE merges on the corpus (distributed word-type table,
    size-gated merge rounds), then ENCODE every doc with them in a
    genuinely stateful actor pool (merge table built once per actor,
    word-type pieces cached across batches). Rows-only by nature (the
    merge loop is not SQL); pytest pins pieces == trained vocab
    symbols verbatim."""
    from tldr_ray.stages.text_analysis import bpe_encode, learn_bpe_merges

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    merges, _ = learn_bpe_merges(docs, num_merges=20)
    out = bpe_encode(docs, merges)
    return out.select_columns(["doc_id", "n_pieces"])


QUERIES["bpe_encode_docs"] = bpe_encode_docs


def hll_daily_rollup_events(sf_dir: str, b: int = 6):
    """Hierarchical sketch rollup — the property that makes mergeable
    sketches THE 100-TB shape: per-HOUR HLL register tables over
    user_id merge into per-DAY registers with a plain grouped max,
    never touching raw rows again. The oracle computes the DAILY
    registers directly from the rows, so the hash check proves the
    merge law (max over hour sketches == sketch of the day) end to
    end, bit for bit."""
    from ray.data.aggregate import Max

    from tldr_ray.stages.sketches import grouped_hll_registers

    def hourkey(batch: pa.Table) -> pa.Table:
        us = np.asarray(batch["ts"].cast(pa.int64()))
        return pa.table({
            "hourkey": pa.array(us // 3_600_000_000),
            "user_id": batch["user_id"]})

    hourly = grouped_hll_registers(
        _read(sf_dir, "events", ["ts", "user_id"])
        .map_batches(hourkey, batch_format="pyarrow"),
        "hourkey", "user_id", b)

    def to_day(batch: pa.Table) -> pa.Table:
        hk = np.asarray(batch["hourkey"], dtype=np.int64)
        return pa.table({"day": pa.array(hk // 24),
                         "bucket": batch["bucket"],
                         "max_rank": batch["max_rank"]})

    def seal(batch: pa.Table) -> pa.Table:
        return pa.table({
            "day": batch["day"].cast(pa.int64()),
            "bucket": batch["bucket"].cast(pa.int32()),
            "max_rank": batch["max_rank"].cast(pa.int64())})

    return (hourly.map_batches(to_day, batch_format="pyarrow")
            .groupby(["day", "bucket"])
            .aggregate(Max("max_rank", alias_name="max_rank"))
            .map_batches(seal, batch_format="pyarrow"))


def _hll_daily_oracle_sql(b: int = 6) -> str:
    wbits = 64 - b
    return f"""
    WITH RECURSIVE {_sql_fnv_cte(
        "SELECT DISTINCT CAST(user_id AS VARCHAR) AS s FROM events")},
    {_sql_splitmix_ctes("hh", carry="s, ")},
    pairs AS (
        SELECT DISTINCT epoch_us(ts) // 86400000000 AS day,
               CAST(user_id AS VARCHAR) AS s
        FROM events
    ),
    br AS (
        SELECT p.day,
               CAST(m3.h // {1 << wbits} AS BIGINT) AS bucket,
               CAST(m3.h % {1 << wbits} AS BIGINT) AS w
        FROM pairs p JOIN m3 ON m3.s = p.s
    ),
    rk AS (
        SELECT day, bucket,
               CASE WHEN w = 0 THEN {wbits + 1}
                    ELSE bit_count((w & (-w)) - 1) + 1 END AS rank
        FROM br
    ),
    agg AS (SELECT day, bucket, max(rank) AS r
            FROM rk GROUP BY day, bucket)
    SELECT g.day, CAST(g.b AS INTEGER) AS bucket,
           CAST(coalesce(a.r, 0) AS BIGINT) AS max_rank
    FROM (SELECT t.day, b.b
          FROM (SELECT DISTINCT epoch_us(ts) // 86400000000
                    AS day FROM events) t,
               (SELECT unnest(range(0, {1 << b})) AS b) b) g
    LEFT JOIN agg a ON a.day = g.day AND a.bucket = g.b
"""


QUERIES["hll_daily_rollup_events"] = hll_daily_rollup_events
ORACLE_SQL["hll_daily_rollup_events"] = _hll_daily_oracle_sql()


def semantic_dedup_embeddings(sf_dir: str, threshold: float = 0.9):
    """Semantic (embedding-space) dedup end to end: LSH-bucketed
    cosine near-dup pairs -> connected components (size-gated
    union-find <-> distributed CC) -> keep each cluster's min-id
    representative. Rows-only by nature (random-hyperplane LSH); the
    planted-pair pytest pins recovery and representative choice."""
    import ray.data as rd

    from tldr_ray.stages.dedup import (embedding_cosine_pairs,
                                       resolve_clusters)
    from tldr_ray.stages.joins import bucketed_anti_join

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    pairs = embedding_cosine_pairs(ds, threshold=threshold)
    cl = resolve_clusters(pairs)
    ids = ds.select_columns(["vec_id"])
    drop = cl.loc[cl["id"] != cl["cluster_id"], ["id"]] \
        .rename(columns={"id": "vec_id"})
    if len(drop):
        ids = bucketed_anti_join(ids, rd.from_pandas(drop), on="vec_id")
    return ids


QUERIES["semantic_dedup_embeddings"] = semantic_dedup_embeddings


def harmonic_closeness_sampled(sf_dir: str):
    """Sampled harmonic closeness centrality over the hash graph: BFS
    from 4 fixed pivot seeds on ONE resident shard engine (the shards
    build once; each pass is the BSP frontier fixpoint), score(v) =
    sum over seeds of 1/d(s, v) accumulated in fixed seed order —
    integer distances + a fixed-order IEEE sum of 4 exactly-rounded
    divisions, so the float hash-matches the 4 unrolled recursive-CTE
    mirrors. The classic sampled stand-in for exact closeness at
    graph scales where all-pairs BFS is off the table."""
    from tldr_ray.graph import GraphEngine

    seeds = [0, 1, 2, 3]
    eng = GraphEngine.from_edges(_hash_graph_edges(sf_dir),
                                 num_partitions=4, symmetrize=True)
    try:
        score = None
        for s in seeds:
            ids, dist, _ = eng.bfs([s])
            d = dist.astype(np.float64)
            term = np.where((dist > 0) & (dist < np.iinfo(np.int64).max),
                            1.0 / np.where(dist > 0, d, 1.0), 0.0)
            score = term if score is None else score + term
    finally:
        eng.shutdown()
    return pa.table({"vertex": pa.array(ids.astype(np.int64)),
                     "closeness": pa.array(score)})


def _harmonic_closeness_oracle_sql() -> str:
    reaches = []
    for i, s in enumerate([0, 1, 2, 3]):
        reaches.append(f"""
    reach{i}(v, d) AS (
        SELECT CAST({s} AS BIGINT), 0
        UNION
        SELECT sym.t, reach{i}.d + 1
        FROM reach{i} JOIN sym ON sym.s = reach{i}.v
        WHERE reach{i}.d < 64
    ),
    d{i} AS (SELECT v, min(d) AS d FROM reach{i} GROUP BY v)""")
    terms = " + ".join(
        f"(CASE WHEN d{i}.d IS NULL OR d{i}.d = 0 THEN 0.0 "
        f"ELSE 1.0 / CAST(d{i}.d AS DOUBLE) END)" for i in range(4))
    joins = "\n    ".join(
        f"LEFT JOIN d{i} ON d{i}.v = verts.v" for i in range(4))
    return f"""
    WITH RECURSIVE {{raw}},
    sym AS (SELECT s, t FROM raw2 UNION SELECT t, s FROM raw2),
    verts AS (SELECT DISTINCT s AS v FROM sym),{",".join(reaches)}
    SELECT verts.v AS vertex, {terms} AS closeness
    FROM verts
    {joins}
"""


QUERIES["harmonic_closeness_sampled"] = harmonic_closeness_sampled
ORACLE_SQL["harmonic_closeness_sampled"] = \
    _harmonic_closeness_oracle_sql().format(raw=_HASHGRAPH_RAW)


def dedup_rates_by_source(sf_dir: str):
    """Pipeline observability: per-source duplicate rate (1 -
    distinct_texts / docs) — the metric a curation run reports per
    upstream feed. Doc counts are a text-free aggregate; distinct
    texts go through the exact grouped-distinct sweep over 128-bit
    content hashes (per-batch uniques -> one coarse groupby); the
    rate is one IEEE division of exact counts."""
    from ray.data.aggregate import Sum

    from tldr_ray.hashing import content_hash128_batch

    def count_part(batch: pa.Table) -> pa.Table:
        src_, cnt = np.unique(np.asarray(batch["source"]),
                              return_counts=True)
        return pa.table({"source": pa.array(src_.tolist(), pa.string()),
                         "n_docs": pa.array(cnt.astype(np.int64))})

    counts = (_read(sf_dir, "documents", ["source"])
              .map_batches(count_part, batch_format="pyarrow")
              .groupby("source")
              .aggregate(Sum("n_docs", alias_name="n_docs")).to_pandas())

    def hash_part(batch: pa.Table) -> pa.Table:
        h1, h2 = content_hash128_batch(batch["text"])
        src_, si = np.unique(np.asarray(batch["source"]),
                             return_inverse=True)
        comp = np.stack([si.astype(np.uint64), h1, h2], axis=1)
        uniq = np.unique(comp, axis=0)
        return pa.table({
            "source": pa.array(
                src_[uniq[:, 0].astype(np.int64)].tolist(), pa.string()),
            "h1": pa.array(uniq[:, 1]),
            "h2": pa.array(uniq[:, 2])})

    def dedup_part(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates(["source", "h1", "h2"])
        out = g.groupby("source", sort=False).size().reset_index()
        out.columns = ["source", "n_distinct"]
        out["n_distinct"] = out["n_distinct"].astype(np.int64)
        return out

    dist = (_read(sf_dir, "documents", ["source", "text"])
            .map_batches(hash_part, batch_format="pyarrow")
            .groupby("source")
            .map_groups(dedup_part, batch_format="pandas")
            .to_pandas())
    out = counts.merge(dist, on="source", how="inner") \
        .sort_values("source").reset_index(drop=True)
    out["dup_rate"] = 1.0 - (out["n_distinct"].to_numpy(np.float64)
                             / out["n_docs"].to_numpy(np.float64))
    for c in ("n_docs", "n_distinct"):
        out[c] = out[c].astype(np.int64)
    return pa.Table.from_pandas(
        out[["source", "n_docs", "n_distinct", "dup_rate"]],
        preserve_index=False)


QUERIES["dedup_rates_by_source"] = dedup_rates_by_source
ORACLE_SQL["dedup_rates_by_source"] = """
    SELECT source,
           CAST(count(*) AS BIGINT) AS n_docs,
           CAST(count(DISTINCT text) AS BIGINT) AS n_distinct,
           1.0 - (CAST(count(DISTINCT text) AS DOUBLE)
                  / CAST(count(*) AS DOUBLE)) AS dup_rate
    FROM documents GROUP BY source
"""


def profile_documents(sf_dir: str):
    """One-pass table profiler (the ingest-time data-quality report):
    per column of ``documents`` — row count, null count, EXACT distinct
    count, min and max (typed reduction, stringified only at the end;
    swap the exact distinct for the HLL registers at corpus scale).
    Two streams: O(columns) stats partials per batch, and per-batch
    unique 128-bit value hashes for the distinct sweep."""
    from ray.data.aggregate import Sum

    from tldr_ray.hashing import content_hash128_batch

    cols = ["doc_id", "text", "lang", "source", "n_chars"]
    int_cols = {"doc_id", "n_chars"}

    def stats_part(batch: pa.Table) -> pa.Table:
        rows = []
        for c in cols:
            col = batch[c]
            nulls = int(col.null_count)
            if c in int_cols:
                v = np.asarray(col, dtype=np.int64)
                rows.append((c, len(batch), nulls,
                             int(v.min()) if v.size else None,
                             int(v.max()) if v.size else None,
                             None, None))
            else:
                v = np.asarray(col)
                rows.append((c, len(batch), nulls, None, None,
                             str(v.min()) if v.size else None,
                             str(v.max()) if v.size else None))
        return pa.table({
            "column": pa.array([r[0] for r in rows], pa.string()),
            "n": pa.array([r[1] for r in rows], pa.int64()),
            "nulls": pa.array([r[2] for r in rows], pa.int64()),
            "imin": pa.array([r[3] for r in rows], pa.int64()),
            "imax": pa.array([r[4] for r in rows], pa.int64()),
            "smin": pa.array([r[5] for r in rows], pa.string()),
            "smax": pa.array([r[6] for r in rows], pa.string())})

    def hash_part(batch: pa.Table) -> pa.Table:
        outs_c, outs_1, outs_2 = [], [], []
        for c in cols:
            if c in int_cols:
                v = np.unique(np.asarray(batch[c], dtype=np.int64))
                h1 = v.view(np.uint64)
                h2 = np.zeros_like(h1)
            else:
                a, b = content_hash128_batch(batch[c])
                comp = np.unique(np.stack([a, b], axis=1), axis=0)
                h1, h2 = comp[:, 0], comp[:, 1]
            outs_c.append(np.full(h1.size, c, dtype=object))
            outs_1.append(h1)
            outs_2.append(h2)
        return pa.table({
            "column": pa.array(np.concatenate(outs_c).tolist(),
                               pa.string()),
            "h1": pa.array(np.concatenate(outs_1)),
            "h2": pa.array(np.concatenate(outs_2))})

    def distinct_part(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates(["column", "h1", "h2"])
        out = g.groupby("column", sort=False).size().reset_index()
        out.columns = ["column", "n_distinct"]
        out["n_distinct"] = out["n_distinct"].astype(np.int64)
        return out

    ds = _read(sf_dir, "documents", cols)
    stats = (ds.map_batches(stats_part, batch_format="pyarrow")
             .to_pandas())
    dist = (ds.map_batches(hash_part, batch_format="pyarrow")
            .groupby("column")
            .map_groups(distinct_part, batch_format="pandas")
            .to_pandas())

    rows = []
    for c in cols:
        g = stats[stats["column"] == c]
        if c in int_cols:
            mn = str(int(g["imin"].min()))
            mx = str(int(g["imax"].max()))
        else:
            mn = str(g["smin"].min())
            mx = str(g["smax"].max())
        nd = int(dist.loc[dist["column"] == c, "n_distinct"].iloc[0])
        rows.append((c, int(g["n"].sum()), int(g["nulls"].sum()),
                     nd, mn, mx))
    return pa.table({
        "column": pa.array([r[0] for r in rows], pa.string()),
        "n_rows": pa.array([r[1] for r in rows], pa.int64()),
        "n_nulls": pa.array([r[2] for r in rows], pa.int64()),
        "n_distinct": pa.array([r[3] for r in rows], pa.int64()),
        "min_v": pa.array([r[4] for r in rows], pa.string()),
        "max_v": pa.array([r[5] for r in rows], pa.string())})


QUERIES["profile_documents"] = profile_documents
ORACLE_SQL["profile_documents"] = " UNION ALL ".join(
    f"""SELECT '{c}' AS column, CAST(count(*) AS BIGINT) AS n_rows,
        CAST(count(*) - count({c}) AS BIGINT) AS n_nulls,
        CAST(count(DISTINCT {c}) AS BIGINT) AS n_distinct,
        CAST(min({c}) AS VARCHAR) AS min_v,
        CAST(max({c}) AS VARCHAR) AS max_v
        FROM documents"""
    for c in ["doc_id", "text", "lang", "source", "n_chars"])


def betweenness_hashgraph(sf_dir: str):
    """Sampled Brandes betweenness over the hash graph (4 pivots,
    graph.betweenness_sampled: forward sigma-BFS + level-synchronous
    backward dependency sweep on resident shards). Rows-only by nature
    (delta accumulation order is a float fixpoint); the pytest oracle
    pins the engine against the sequential Brandes reference at
    1e-9."""
    from tldr_ray.graph import betweenness_sampled

    ids, scores, _ = betweenness_sampled(
        _hash_graph_edges(sf_dir), seeds=[0, 1, 2, 3],
        num_partitions=4)
    return pa.table({"vertex": pa.array(ids.astype(np.int64)),
                     "betweenness": pa.array(scores)})


QUERIES["betweenness_hashgraph"] = betweenness_hashgraph


def langid_prf_docs(sf_dir: str):
    """Model-eval metrics for the language-ID stage: per true
    language, tp/fp/fn + precision/recall/F1 derived from the (tiny)
    confusion table — exact integer counts and op-for-op mirrored
    float expressions, so the metric floats hash-match. The pattern
    for evaluating ANY classifier stage the pipeline runs at scale:
    the corpus pass is the already-hash-proven predictor; the metric
    algebra happens on an O(classes^2) table."""
    from ray.data.aggregate import Count

    from tldr_ray.stages.text_analysis import language_id

    pred = language_id(_read(sf_dir, "documents",
                             ["doc_id", "lang", "text"]),
                       concurrency=2)
    conf = (pred.groupby(["lang", "lang_pred"]).count().to_pandas())
    conf["n"] = conf["count()"].astype(np.int64)
    langs = sorted(set(conf["lang"]) | set(conf["lang_pred"]))
    rows = []
    for lg in langs:
        tp = int(conf.loc[(conf["lang"] == lg)
                          & (conf["lang_pred"] == lg), "n"].sum())
        fn = int(conf.loc[conf["lang"] == lg, "n"].sum()) - tp
        fp = int(conf.loc[conf["lang_pred"] == lg, "n"].sum()) - tp
        p = float(tp) / float(tp + fp) if tp + fp else 0.0
        r = float(tp) / float(tp + fn) if tp + fn else 0.0
        f1 = 2.0 * p * r / (p + r) if p + r else 0.0
        rows.append((lg, tp, fp, fn, p, r, f1))
    return pa.table({
        "lang": pa.array([x[0] for x in rows], pa.string()),
        "tp": pa.array([x[1] for x in rows], pa.int64()),
        "fp": pa.array([x[2] for x in rows], pa.int64()),
        "fn": pa.array([x[3] for x in rows], pa.int64()),
        "precision": pa.array([x[4] for x in rows], pa.float64()),
        "recall": pa.array([x[5] for x in rows], pa.float64()),
        "f1": pa.array([x[6] for x in rows], pa.float64())})


QUERIES["langid_prf_docs"] = langid_prf_docs
ORACLE_SQL["langid_prf_docs"] = f"""
    WITH pred AS ({_language_id_oracle_sql()}),
    conf AS (
        SELECT d.lang, p.lang_pred, count(*) AS n
        FROM pred p JOIN documents d ON d.doc_id = p.doc_id
        GROUP BY d.lang, p.lang_pred),
    langs AS (SELECT DISTINCT lang AS lg FROM conf
              UNION SELECT DISTINCT lang_pred FROM conf),
    m AS (
        SELECT lg,
               coalesce((SELECT sum(n) FROM conf
                         WHERE lang = lg AND lang_pred = lg), 0) AS tp,
               coalesce((SELECT sum(n) FROM conf
                         WHERE lang_pred = lg AND lang != lg), 0) AS fp,
               coalesce((SELECT sum(n) FROM conf
                         WHERE lang = lg AND lang_pred != lg), 0) AS fn
        FROM langs),
    pr AS (
        SELECT lg, tp, fp, fn,
               CASE WHEN tp + fp = 0 THEN 0.0
                    ELSE CAST(tp AS DOUBLE) / CAST(tp + fp AS DOUBLE)
               END AS precision,
               CASE WHEN tp + fn = 0 THEN 0.0
                    ELSE CAST(tp AS DOUBLE) / CAST(tp + fn AS DOUBLE)
               END AS recall
        FROM m)
    SELECT lg AS lang, CAST(tp AS BIGINT) AS tp,
           CAST(fp AS BIGINT) AS fp, CAST(fn AS BIGINT) AS fn,
           precision, recall,
           CASE WHEN precision + recall = 0 THEN 0.0
                ELSE 2.0 * precision * recall / (precision + recall)
           END AS f1
    FROM pr
"""


def user_active_time(sf_dir: str, window_us: int = 300_000_000):
    """Interval-union coverage per user (gaps-and-islands): each event
    opens a 5-minute activity window; overlapping windows merge and
    the per-user total covered time + island count come out in exact
    int64 microseconds. One coarse hash(user) shuffle; inside each
    partition the sweep is sort + segmented running-max + segment
    reductions (no per-user tasks)."""
    def part(batch: pa.Table) -> pa.Table:
        u = np.asarray(batch["user_id"], dtype=np.int64)
        s = np.asarray(batch["ts"].cast(pa.int64()))
        return pa.table({"user_id": pa.array(u), "s": pa.array(s)})

    def sweep(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["user_id", "s"])
        u = g["user_id"].to_numpy(np.int64)
        s = g["s"].to_numpy(np.int64)
        e = s + window_us
        new_user = np.concatenate([[True], u[1:] != u[:-1]])
        seg = np.cumsum(new_user) - 1
        # exclusive running max of interval ends per user segment
        # (pandas' C-level groupby cummax, shifted by one row)
        pmax = pd.Series(e).groupby(pd.Series(seg)).cummax() \
            .shift(1).to_numpy()
        new_isl = new_user | (s > np.where(np.isnan(pmax),
                                           -np.inf, pmax))
        isl = np.cumsum(new_isl) - 1
        n_isl = int(isl[-1] + 1) if len(g) else 0
        ms = np.full(n_isl, np.iinfo(np.int64).max, np.int64)
        me = np.zeros(n_isl, np.int64)
        np.minimum.at(ms, isl, s)
        np.maximum.at(me, isl, e)
        owner = np.zeros(n_isl, np.int64)
        owner[isl] = u
        uu, ui = np.unique(owner, return_inverse=True)
        cov = np.zeros(uu.size, np.int64)
        np.add.at(cov, ui, me - ms)
        cnt = np.bincount(ui).astype(np.int64)
        return pd.DataFrame({"user_id": uu, "covered_us": cov,
                             "n_islands": cnt})

    return keyed_sweep(_read(sf_dir, "events", ["user_id", "ts"])
                       .map_batches(part, batch_format="pyarrow"),
                       "user_id", sweep)


QUERIES["user_active_time"] = user_active_time
ORACLE_SQL["user_active_time"] = """
    WITH iv AS (
        SELECT user_id, epoch_us(ts) AS s,
               epoch_us(ts) + 300000000 AS e
        FROM events),
    w AS (
        SELECT user_id, s, e,
               max(e) OVER (PARTITION BY user_id ORDER BY s, e
                            ROWS BETWEEN UNBOUNDED PRECEDING
                            AND 1 PRECEDING) AS pmax
        FROM iv),
    fl AS (SELECT *, CASE WHEN pmax IS NULL OR s > pmax
                          THEN 1 ELSE 0 END AS newisl
           FROM w),
    isl AS (SELECT *, sum(newisl) OVER (PARTITION BY user_id
                                        ORDER BY s, e
                                        ROWS UNBOUNDED PRECEDING)
                    AS iid
            FROM fl),
    g AS (SELECT user_id, iid, min(s) AS ms, max(e) AS me
          FROM isl GROUP BY user_id, iid)
    SELECT user_id, CAST(sum(me - ms) AS BIGINT) AS covered_us,
           CAST(count(*) AS BIGINT) AS n_islands
    FROM g GROUP BY user_id
"""


def scc_of_vertex_hashgraph(sf_dir: str, pivot: int = 0):
    """Strongly connected component containing the pivot, on the
    DIRECTED hash graph — the FW-BW kernel (Fleischer et al.): forward
    BFS reachability on the edges as stored, backward reachability on
    the reversed edges (second engine build on swapped src/dst), SCC =
    the intersection. This is the pivot step of the classic
    divide-and-conquer distributed SCC decomposition; membership is
    integally SQL-expressible, so it hash-checks."""
    from tldr_ray.graph import GraphEngine

    def prune(batch: pa.Table) -> pa.Table:
        # make vertices ~1 (mod 3) pure sinks (drop their out-edges)
        # so the graph is NOT strongly connected and the FW/BW
        # intersection is discriminative (the full hash graph is one
        # giant SCC)
        s = np.asarray(batch["src"], dtype=np.int64)
        return batch.filter(pa.array(s % 3 != 1))

    edges = _hash_graph_edges(sf_dir) \
        .map_batches(prune, batch_format="pyarrow").materialize()

    def reach(swap: bool) -> np.ndarray:
        e = edges
        if swap:
            def rev(batch: pa.Table) -> pa.Table:
                return pa.table({"src": batch["dst"],
                                 "dst": batch["src"],
                                 "weight": batch["weight"]})
            e = edges.map_batches(rev, batch_format="pyarrow")
        eng = GraphEngine.from_edges(e, num_partitions=4,
                                     symmetrize=False)
        try:
            ids, dist, _ = eng.bfs([pivot])
        finally:
            eng.shutdown()
        return ids[dist != np.iinfo(np.int64).max]

    fwd = reach(False)
    bwd = reach(True)
    member = np.intersect1d(fwd, bwd)
    return pa.table({"vertex": pa.array(np.sort(member)
                                        .astype(np.int64))})


QUERIES["scc_of_vertex_hashgraph"] = scc_of_vertex_hashgraph
ORACLE_SQL["scc_of_vertex_hashgraph"] = f"""
    WITH RECURSIVE {{raw}},
    raw3 AS (SELECT s, t FROM raw2 WHERE s % 3 != 1),
    fwd(v) AS (
        SELECT CAST(0 AS BIGINT)
        UNION
        SELECT raw3.t FROM fwd JOIN raw3 ON raw3.s = fwd.v
    ),
    bwd(v) AS (
        SELECT CAST(0 AS BIGINT)
        UNION
        SELECT raw3.s FROM bwd JOIN raw3 ON raw3.t = bwd.v
    )
    SELECT v AS vertex FROM fwd
    INTERSECT
    SELECT v FROM bwd
""".format(raw=_HASHGRAPH_RAW)


def gopher_filter_docs(sf_dir: str):
    """Gopher-style rule-based quality gate (the rule-filter stage of a
    pretraining curation pipeline): per-doc exact-integer signals + the
    four rule booleans, keep = all pass. One shuffle-free vectorized
    pass (stages.text_analysis.gopher_rules); every signal is an exact
    integer and every rule an integer cross-multiplication, so the full
    row (including the booleans) hash-checks against SQL."""
    from tldr_ray.stages.text_analysis import gopher_rules

    out = gopher_rules(_read(sf_dir, "documents", ["doc_id", "text"]))

    def seal(batch: pa.Table) -> pa.Table:
        keep = batch["keep"]
        return batch.drop_columns(["keep"]).filter(keep)

    return out.map_batches(seal, batch_format="pyarrow")


_GOPHER_SIGNALS = """
    w AS (
      SELECT doc_id,
             list_filter(regexp_split_to_array(text, '\\s+'),
                         x -> x <> '') AS ws
      FROM documents),
    sig AS (
      SELECT doc_id,
        len(ws) AS n_words,
        COALESCE(list_aggregate(list_transform(ws, x -> length(x)),
                                'sum'), 0) AS total_word_len,
        len(list_distinct(ws)) AS n_distinct,
        COALESCE(list_aggregate(list_transform(ws,
            x -> CASE WHEN lower(x) IN ('a','and','in','of','the','to')
                 THEN 1 ELSE 0 END), 'sum'), 0) AS n_stopwords
      FROM w),
    rules AS (
      SELECT doc_id,
        CAST(n_words AS BIGINT) AS n_words,
        CAST(total_word_len AS BIGINT) AS total_word_len,
        CAST(n_distinct AS BIGINT) AS n_distinct,
        CAST(n_stopwords AS BIGINT) AS n_stopwords,
        (n_words BETWEEN 20 AND 80) AS pass_word_count,
        (21*n_words <= 5*total_word_len
         AND 5*total_word_len <= 24*n_words) AS pass_mean_len,
        (2*n_distinct >= n_words) AS pass_ttr,
        (n_stopwords >= 2) AS pass_stopwords
      FROM sig)
"""

QUERIES["gopher_filter_docs"] = gopher_filter_docs
ORACLE_SQL["gopher_filter_docs"] = f"""
    WITH {_GOPHER_SIGNALS}
    SELECT doc_id, n_words, total_word_len, n_distinct, n_stopwords,
           pass_word_count, pass_mean_len, pass_ttr, pass_stopwords
    FROM rules
    WHERE pass_word_count AND pass_mean_len AND pass_ttr
      AND pass_stopwords
"""


def gopher_rule_report(sf_dir: str):
    """Observability companion to gopher_filter_docs: ONE row of
    per-rule reject counts + total and kept counts (what a curation run
    logs per shard so threshold drift is visible). Per-batch boolean
    partials -> one tiny global sum; nothing but 6 integers leaves any
    task."""
    from ray.data.aggregate import Sum

    from tldr_ray.stages.text_analysis import gopher_rules

    out = gopher_rules(_read(sf_dir, "documents", ["doc_id", "text"]))

    def partial(batch: pa.Table) -> pa.Table:
        def rejects(col):
            return np.int64(
                len(batch) - pc.sum(batch[col]).as_py())
        return pa.table({
            "n_docs": pa.array([np.int64(len(batch))]),
            "reject_word_count": pa.array([rejects("pass_word_count")]),
            "reject_mean_len": pa.array([rejects("pass_mean_len")]),
            "reject_ttr": pa.array([rejects("pass_ttr")]),
            "reject_stopwords": pa.array([rejects("pass_stopwords")]),
            "kept": pa.array(
                [np.int64(pc.sum(batch["keep"]).as_py() or 0)])})

    cols = ["n_docs", "reject_word_count", "reject_mean_len",
            "reject_ttr", "reject_stopwords", "kept"]
    agg = out.map_batches(partial, batch_format="pyarrow") \
        .aggregate(*[Sum(c, alias_name=c) for c in cols])
    return pa.table({c: pa.array([np.int64(agg[c])]) for c in cols})


QUERIES["gopher_rule_report"] = gopher_rule_report
ORACLE_SQL["gopher_rule_report"] = f"""
    WITH {_GOPHER_SIGNALS}
    SELECT CAST(count(*) AS BIGINT) AS n_docs,
           CAST(sum(CASE WHEN pass_word_count THEN 0 ELSE 1 END)
                AS BIGINT) AS reject_word_count,
           CAST(sum(CASE WHEN pass_mean_len THEN 0 ELSE 1 END)
                AS BIGINT) AS reject_mean_len,
           CAST(sum(CASE WHEN pass_ttr THEN 0 ELSE 1 END)
                AS BIGINT) AS reject_ttr,
           CAST(sum(CASE WHEN pass_stopwords THEN 0 ELSE 1 END)
                AS BIGINT) AS reject_stopwords,
           CAST(sum(CASE WHEN pass_word_count AND pass_mean_len
                    AND pass_ttr AND pass_stopwords
                    THEN 1 ELSE 0 END) AS BIGINT) AS kept
    FROM rules
"""


def knn_pq_top10(sf_dir: str):
    """Product-quantization ANN, the full production pattern: codebooks
    trained on a bounded hash-sample, corpus encoded to m=8 uint8 codes
    (32x smaller than the dim-64 float vectors — the form a 100-TB
    embedding corpus is actually served from), ADC table-lookup
    shortlist, then ONE filtered exact-rerank pass over just the
    shortlist ids. Rows-only by nature (Lloyd training + approximate
    recall); recall-vs-brute and the ADC exactness law are pinned in
    pytest."""
    from tldr_ray.stages.ann import knn_pq_rerank

    qids = np.arange(4, dtype=np.int64)
    qmat = _fetch_query_vecs(sf_dir, qids.tolist())
    return knn_pq_rerank(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        qmat, qids, k=10)


QUERIES["knn_pq_top10"] = knn_pq_top10


def epoch_shuffle_docs(sf_dir: str, epoch: int = 1):
    """Deterministic epoch-1 reshuffle of the documents corpus: global
    position per doc under the splitmix64(doc_id*1000003+epoch) order
    (stages.agg.epoch_shuffle) — the reproducible-training-order
    primitive. Position is layout-independent, so the full (doc_id,
    epoch_pos) permutation hash-checks against a SQL row_number over
    the mirrored splitmix chain."""
    from tldr_ray.stages.agg import epoch_shuffle

    return epoch_shuffle(_read(sf_dir, "documents", ["doc_id"]),
                         "doc_id", epoch)


QUERIES["epoch_shuffle_docs"] = epoch_shuffle_docs
ORACLE_SQL["epoch_shuffle_docs"] = f"""
    WITH src AS (SELECT doc_id,
                        (CAST(doc_id AS HUGEINT) * 1000003 + 1)
                        % {1 << 64} AS h
                 FROM documents),
    {_sql_splitmix_ctes("src", carry="doc_id, ")}
    SELECT doc_id,
           CAST(row_number() OVER (ORDER BY h) - 1 AS BIGINT)
           AS epoch_pos
    FROM m3
"""


def interleave_mix_docs(sf_dir: str):
    """Weighted-interleave mixing SCHEDULE (the ordering half of data
    mixing — temperature_mix decides HOW MUCH of each source, this
    decides WHEN): docs are ranked inside each language by the
    deterministic splitmix order, then stride-scheduled with integer
    weights en=4, es=de=2, fr=zh=1 — doc i of a weight-w language gets
    sched_key = i * (LCM/w), so sorting by (sched_key, lang, rn) yields
    a stream where every window of the schedule carries the languages
    in ~weight proportion (classic stride scheduling, exact integers
    end to end). One coarse row_window shuffle; the full (doc, rank,
    key) table hash-checks against a partitioned row_number mirror."""
    from tldr_ray.stages.dedup import _mix64
    from tldr_ray.stages.windows import row_window

    strides = {"en": 1, "es": 2, "de": 2, "fr": 4, "zh": 4}

    def prep(batch: pa.Table) -> pa.Table:
        did = np.asarray(batch["doc_id"], dtype=np.int64)
        h = _mix64(did.astype(np.uint64))
        # flip the sign bit so int64 order == unsigned hash order
        return pa.table({
            "lang": batch["lang"],
            "h_ord": pa.array((h ^ np.uint64(1 << 63)).view(np.int64)),
            "doc_id": pa.array(did)})

    w = row_window(
        _read(sf_dir, "documents", ["doc_id", "lang"])
        .map_batches(prep, batch_format="pyarrow"),
        "lang", ["h_ord", "doc_id"])

    def sched(batch: pa.Table) -> pa.Table:
        langs = np.asarray(batch["lang"].to_pandas(), dtype=object)
        rn = np.asarray(batch["rn"], dtype=np.int64)
        stride = np.array([strides.get(l, 4) for l in langs],
                          dtype=np.int64)
        return pa.table({
            "doc_id": batch["doc_id"].cast(pa.int64()),
            "lang": batch["lang"],
            "rn": pa.array(rn),
            "sched_key": pa.array(rn * stride)})

    return w.map_batches(sched, batch_format="pyarrow")


QUERIES["interleave_mix_docs"] = interleave_mix_docs
ORACLE_SQL["interleave_mix_docs"] = f"""
    WITH src AS (SELECT doc_id, lang, CAST(doc_id AS HUGEINT) AS h
                 FROM documents),
    {_sql_splitmix_ctes("src", carry="doc_id, lang, ")},
    rn AS (SELECT doc_id, lang,
                  CAST(row_number() OVER (
                      PARTITION BY lang ORDER BY h, doc_id)
                   AS BIGINT) AS rn
           FROM m3)
    SELECT doc_id, lang, rn,
           rn * (CASE lang WHEN 'en' THEN 1 WHEN 'es' THEN 2
                 WHEN 'de' THEN 2 ELSE 4 END) AS sched_key
    FROM rn
"""


def event_rate_spikes(sf_dir: str):
    """Event-rate spike monitor per event type (streaming-ops shape):
    hourly counts, a 3-hour trailing window off the shared row_window
    sweep, spike iff the hour runs at more than 2x the trailing mean —
    tested as the EXACT integer cross-multiplication 3*n > 2*trailing3
    (never a float mean), with rn > 3 guarding partial windows. All
    rows (not just spikes) are emitted so the oracle hash covers the
    negative decisions too; the trailing window is over OBSERVED hours
    (a silent-hour gap contributes nothing — pair with
    events_hourly_dense when calendar alignment matters)."""
    from ray.data.aggregate import Count

    from tldr_ray.stages.windows import row_window

    def bucket(batch: pa.Table) -> pa.Table:
        us = np.asarray(batch["ts"].cast(pa.int64()), dtype=np.int64)
        return pa.table({
            "event_type": batch["event_type"],
            "hour_key": pa.array(us // 3_600_000_000)})

    hourly = (_read(sf_dir, "events", ["ts", "event_type"])
              .map_batches(bucket, batch_format="pyarrow")
              .groupby(["event_type", "hour_key"])
              .aggregate(Count(alias_name="n")))

    # n rides order_cols so the sweep emits it (hour_key alone is
    # already unique per type, so the order is unchanged)
    w = row_window(hourly, "event_type", ["hour_key", "n"],
                   rolling_sums=(("n", 3),))

    def seal(batch: pa.Table) -> pa.Table:
        n = np.asarray(batch["n"], dtype=np.int64)
        roll = np.asarray(batch["roll3_n"], dtype=np.int64)
        rn = np.asarray(batch["rn"], dtype=np.int64)
        trailing3 = roll - n
        return pa.table({
            "event_type": batch["event_type"],
            "hour_key": batch["hour_key"].cast(pa.int64()),
            "n": pa.array(n),
            "trailing3": pa.array(trailing3),
            "is_spike": pa.array((rn > 3) & (3 * n > 2 * trailing3))})

    return w.map_batches(seal, batch_format="pyarrow")


QUERIES["event_rate_spikes"] = event_rate_spikes
ORACLE_SQL["event_rate_spikes"] = """
    WITH hc AS (
        SELECT event_type,
               epoch_us(ts) // 3600000000 AS hour_key,
               count(*) AS n
        FROM events GROUP BY 1, 2),
    w AS (
        SELECT event_type, hour_key, CAST(n AS BIGINT) AS n,
               CAST(sum(n) OVER (PARTITION BY event_type
                                 ORDER BY hour_key
                                 ROWS BETWEEN 3 PRECEDING
                                 AND CURRENT ROW) - n
                    AS BIGINT) AS trailing3,
               row_number() OVER (PARTITION BY event_type
                                  ORDER BY hour_key) AS rn
        FROM hc)
    SELECT event_type, hour_key, n, trailing3,
           (rn > 3 AND 3*n > 2*trailing3) AS is_spike
    FROM w
"""


def user_value_30min_rolling(sf_dir: str):
    """Per-user 30-minute TRAILING spend (time-RANGE window, the
    complement of the ROWS-based rolling suite): exact-cent sums over
    stages.windows.time_rolling_sum — one coarse shuffle, two global
    searchsorteds per partition, SQL RANGE peer semantics (equal-ts
    rows share the window) included. event_id rides along so the
    mirror's sort can't be perturbed by duplicate timestamps."""
    from tldr_ray.stages.windows import time_rolling_sum

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch["user_id"].cast(pa.int64()),
            "ts": batch["ts"],
            "event_id": batch["event_id"].cast(pa.int64()),
            "value_cents": pa.array(_cents(
                np.asarray(batch["value"], dtype=np.float64)),
                pa.int64())})

    return time_rolling_sum(
        _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
        .map_batches(prep, batch_format="pyarrow"),
        "user_id", "ts", "value_cents", window_us=30 * 60 * 1_000_000,
        extra_cols=("event_id",))


QUERIES["user_value_30min_rolling"] = user_value_30min_rolling
ORACLE_SQL["user_value_30min_rolling"] = """
    SELECT user_id, ts, value_cents, event_id,
           CAST(sum(value_cents) OVER (
               PARTITION BY user_id ORDER BY ts
               RANGE BETWEEN INTERVAL 30 MINUTE PRECEDING
               AND CURRENT ROW) AS BIGINT) AS rolling_sum
    FROM (SELECT user_id, ts, event_id,
                 CAST(floor(value * 100 + 0.5) AS BIGINT) AS value_cents
          FROM events)
"""


def lineitem_correlations(sf_dir: str):
    """Pairwise Pearson correlation matrix over lineitem's four numeric
    columns (profiling / feature-audit shape) from EXACT integer cent
    moments (stages.agg.pairwise_pearson): two-lane int64 moment sums
    travel through the one global aggregate, the driver recombines
    lanes into arbitrary-precision ints, and the only float math is one
    cast+divide+sqrt chain per pair, mirrored op-for-op in SQL — so
    even the correlation DOUBLES hash-match."""
    from tldr_ray.stages.agg import pairwise_pearson

    cols = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]
    return pairwise_pearson(_read(sf_dir, "lineitem", cols), cols)


QUERIES["lineitem_correlations"] = lineitem_correlations


def _corr_pair_sql(i, j, names):
    return f"""
    SELECT '{names[i]}' AS col_x, '{names[j]}' AS col_y,
           CAST(n*p{i}{j} - s{i}*s{j} AS DOUBLE)
           / (sqrt(CAST(n*q{i} - s{i}*s{i} AS DOUBLE))
              * sqrt(CAST(n*q{j} - s{j}*s{j} AS DOUBLE))) AS corr
    FROM m"""


ORACLE_SQL["lineitem_correlations"] = """
    WITH c AS (
      SELECT CAST(floor(l_quantity*100 + 0.5) AS BIGINT) AS v0,
             CAST(floor(l_extendedprice*100 + 0.5) AS BIGINT) AS v1,
             CAST(floor(l_discount*100 + 0.5) AS BIGINT) AS v2,
             CAST(floor(l_tax*100 + 0.5) AS BIGINT) AS v3
      FROM lineitem),
    m AS (
      SELECT count(*) AS n,
             sum(v0) AS s0, sum(v1) AS s1, sum(v2) AS s2, sum(v3) AS s3,
             sum(v0*v0) AS q0, sum(v1*v1) AS q1,
             sum(v2*v2) AS q2, sum(v3*v3) AS q3,
             sum(v0*v1) AS p01, sum(v0*v2) AS p02, sum(v0*v3) AS p03,
             sum(v1*v2) AS p12, sum(v1*v3) AS p13, sum(v2*v3) AS p23
      FROM c)
""" + " UNION ALL ".join(
    _corr_pair_sql(i, j, ["l_quantity", "l_extendedprice",
                          "l_discount", "l_tax"])
    for i in range(4) for j in range(i + 1, 4))


def feature_propagation_hashgraph(sf_dir: str):
    """GNN-style feature propagation (the GraphSAGE/GCN data-prep
    primitive) over the hash graph: 4 integer features per vertex
    (f_d(v) = v*(d+3) mod 97), two synchronous rounds of
    h'(v) = h(v) + sum over in-edges (u->v) of h(u) — SUM aggregation
    keeps every round in exact int64, so unlike mean/normalized GCN the
    two-round result is order-free and hash-checks. Round 1 needs NO
    join (features are id-derived, computed inline at the edge writer);
    round 2 is ONE bucketed join of the round-1 state on src. Messages
    pre-combine per batch (np.add.at on unique dst) before each
    aggregate — the same discipline as the engine's SpMV exchanges."""
    from ray.data.aggregate import Sum

    from tldr_ray.stages.joins import bucketed_hash_join

    D = 4

    def feats(v: np.ndarray) -> list[np.ndarray]:
        return [(v * (d + 3)) % 97 for d in range(D)]

    fcols = [f"f{d}" for d in range(D)]

    def precombine(batch: pa.Table, vcol: str,
                   cols: list[str]) -> pa.Table:
        dst = np.asarray(batch[vcol], dtype=np.int64)
        u, inv = np.unique(dst, return_inverse=True)
        out = {"v": pa.array(u)}
        for c in cols:
            s = np.zeros(u.size, np.int64)
            np.add.at(s, inv, np.asarray(batch[c], dtype=np.int64))
            out[c] = pa.array(s)
        return pa.table(out)

    edges = _hash_graph_edges(sf_dir)

    def r1_msgs(batch: pa.Table) -> pa.Table:
        src = np.asarray(batch["src"], dtype=np.int64)
        t = pa.table({"dst": batch["dst"],
                      **{c: pa.array(f) for c, f in
                         zip(fcols, feats(src))}})
        return precombine(t, "dst", fcols)

    def self_msgs(batch: pa.Table) -> pa.Table:
        v = np.asarray(batch["doc_id"], dtype=np.int64)
        return pa.table({"v": pa.array(v),
                         **{c: pa.array(f) for c, f in
                            zip(fcols, feats(v))}})

    sums = [Sum(c, alias_name=c) for c in fcols]
    h1 = (_read(sf_dir, "documents", ["doc_id"])
          .map_batches(self_msgs, batch_format="pyarrow")
          .union(edges.map_batches(r1_msgs, batch_format="pyarrow"))
          .groupby("v").aggregate(*sums)).materialize()

    # round 2: the state is data-dependent now — ONE bucketed join on
    # src decorates each edge with h1(src), then the same
    # precombine -> union(self) -> aggregate
    e2 = bucketed_hash_join(
        edges.select_columns(["src", "dst"]),
        h1.map_batches(lambda t: t.rename_columns(["src", *fcols]),
                       batch_format="pyarrow"),
        on="src", how="inner")

    h2 = (h1.map_batches(lambda t: t, batch_format="pyarrow")
          .union(e2.map_batches(
              lambda b: precombine(b, "dst", fcols),
              batch_format="pyarrow"))
          .groupby("v").aggregate(*sums))

    def seal(batch: pa.Table) -> pa.Table:
        return pa.table({"vertex": batch["v"].cast(pa.int64()),
                         **{c: batch[c].cast(pa.int64())
                            for c in fcols}})

    return h2.map_batches(seal, batch_format="pyarrow")


QUERIES["feature_propagation_hashgraph"] = feature_propagation_hashgraph
ORACLE_SQL["feature_propagation_hashgraph"] = f"""
    WITH {_HASHGRAPH_RAW},
    f AS (SELECT doc_id AS v,
                 CAST((doc_id*3) % 97 AS BIGINT) AS f0,
                 CAST((doc_id*4) % 97 AS BIGINT) AS f1,
                 CAST((doc_id*5) % 97 AS BIGINT) AS f2,
                 CAST((doc_id*6) % 97 AS BIGINT) AS f3
          FROM documents),
    a1 AS (SELECT r.t AS v, sum(f.f0) AS s0, sum(f.f1) AS s1,
                  sum(f.f2) AS s2, sum(f.f3) AS s3
           FROM raw2 r JOIN f ON f.v = r.s GROUP BY r.t),
    h1 AS (SELECT f.v,
                  f.f0 + COALESCE(a1.s0, 0) AS f0,
                  f.f1 + COALESCE(a1.s1, 0) AS f1,
                  f.f2 + COALESCE(a1.s2, 0) AS f2,
                  f.f3 + COALESCE(a1.s3, 0) AS f3
           FROM f LEFT JOIN a1 USING (v)),
    a2 AS (SELECT r.t AS v, sum(h1.f0) AS s0, sum(h1.f1) AS s1,
                  sum(h1.f2) AS s2, sum(h1.f3) AS s3
           FROM raw2 r JOIN h1 ON h1.v = r.s GROUP BY r.t),
    h2 AS (SELECT h1.v,
                  h1.f0 + COALESCE(a2.s0, 0) AS f0,
                  h1.f1 + COALESCE(a2.s1, 0) AS f1,
                  h1.f2 + COALESCE(a2.s2, 0) AS f2,
                  h1.f3 + COALESCE(a2.s3, 0) AS f3
           FROM h1 LEFT JOIN a2 USING (v))
    SELECT CAST(v AS BIGINT) AS vertex,
           CAST(f0 AS BIGINT) AS f0, CAST(f1 AS BIGINT) AS f1,
           CAST(f2 AS BIGINT) AS f2, CAST(f3 AS BIGINT) AS f3
    FROM h2
"""


def importance_sample_docs(sf_dir: str):
    """Quality-weighted importance sampling (keep probability = the
    doc's composite quality score): deterministic gate
    splitmix64(doc_id) <= score * 2^64 — the per-DOC companion of the
    per-LANGUAGE temperature mix, and the downsampling rule that keeps
    a corpus's best material without a global sort. The quality score
    is the hash-proven float composite (quality_scores_docs), the
    threshold multiply is one IEEE op mirrored verbatim, so the kept
    set hash-checks end to end."""
    from tldr_ray.stages.dedup import _mix64
    from tldr_ray.stages.text_analysis import quality_scores

    out = quality_scores(_read(sf_dir, "documents", ["doc_id", "text"]),
                         concurrency=2)

    def gate(batch: pa.Table) -> pa.Table:
        did = np.asarray(batch["doc_id"], dtype=np.int64)
        score = np.asarray(batch["quality_score"], dtype=np.float64)
        h = _mix64(did.astype(np.uint64)).astype(np.float64)
        ok = h <= score * 18446744073709551616.0
        return pa.table({
            "doc_id": pa.array(did[ok]),
            "quality_score": pa.array(score[ok])})

    return out.map_batches(gate, batch_format="pyarrow")


QUERIES["importance_sample_docs"] = importance_sample_docs
ORACLE_SQL["importance_sample_docs"] = f"""
    WITH q AS ({_quality_scores_oracle_sql()}),
    src AS (SELECT doc_id, quality_score,
                   CAST(doc_id AS HUGEINT) AS h
            FROM q),
    {_sql_splitmix_ctes("src", carry="doc_id, quality_score, ")}
    SELECT doc_id, quality_score
    FROM m3
    WHERE CAST(h AS DOUBLE) <= quality_score * 18446744073709551616.0
"""


def tpch_q12(sf_dir: str):
    """TPC-H Q12-shaped: priority mix of shipped lines per line status
    (the synth schema has no l_shipmode/l_receiptdate, so l_linestatus
    stands in for the mode dimension and the window predicate runs on
    l_shipdate; cited shape: TPC-H Q12's lineitem JOIN orders with the
    2-way CASE priority counts). Unlike Q3/Q4/Q5 there is NO selective
    filter on orders — both sides are fact-sized — so this is the
    query that exercises stages.joins.bucketed_hash_join as a true
    large-large partitioned join (orderkey is uniform; no skew path
    needed). Lineitem pre-combines to per-(orderkey, status) line
    counts inside each batch BEFORE the join, so the shuffle moves
    ~one row per order, not one per line; the final groupby is over 2
    statuses x orders and pre-combines the CASE products per batch."""
    from ray.data.aggregate import Sum

    lo = np.datetime64("1996-01-01").astype("datetime64[us]").astype(np.int64)
    hi = np.datetime64("1997-01-01").astype("datetime64[us]").astype(np.int64)

    def lpart(batch: pa.Table) -> pa.Table:
        sd = np.asarray(batch["l_shipdate"].cast(pa.int64()))
        m = (sd >= lo) & (sd < hi)
        ok = np.asarray(batch["l_orderkey"], dtype=np.int64)[m]
        st = np.asarray(pc.equal(batch["l_linestatus"], "O"))[m]
        key = ok * 2 + st                     # (orderkey, status) packed
        u, cnt = np.unique(key, return_counts=True)
        return pa.table({
            "l_orderkey": pa.array(u >> 1),
            "is_open": pa.array((u & 1).astype(np.int64)),
            "n_lines": pa.array(cnt.astype(np.int64))})

    line = (_read(sf_dir, "lineitem",
                  ["l_orderkey", "l_linestatus", "l_shipdate"])
            .map_batches(lpart, batch_format="pyarrow"))

    def opart(batch: pa.Table) -> pa.Table:
        hi_p = np.asarray(
            pc.is_in(batch["o_orderpriority"],
                     value_set=pa.array(["1-URGENT", "2-HIGH"])))
        return pa.table({
            "l_orderkey": batch["o_orderkey"].cast(pa.int64()),
            "is_high": pa.array(hi_p.astype(np.int64))})

    orders = (_read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
              .map_batches(opart, batch_format="pyarrow"))

    from tldr_ray.stages.joins import bucketed_hash_join
    j = bucketed_hash_join(line, orders, on="l_orderkey")

    def cases(batch: pa.Table) -> pa.Table:
        st = np.asarray(batch["is_open"], dtype=np.int64)
        n = np.asarray(batch["n_lines"], dtype=np.int64)
        h = np.asarray(batch["is_high"], dtype=np.int64)
        out = np.zeros((2, 2), np.int64)      # [status][high/low]
        np.add.at(out, (st, 1 - h), n)
        nz = out.sum(axis=1) > 0
        labels = np.array(["F", "O"])
        return pa.table({
            "l_linestatus": pa.array(labels[nz]),
            "high_line_count": pa.array(out[nz, 0]),
            "low_line_count": pa.array(out[nz, 1])})

    return (j.map_batches(cases, batch_format="pyarrow")
            .groupby("l_linestatus")
            .aggregate(Sum("high_line_count", alias_name="high_line_count"),
                       Sum("low_line_count", alias_name="low_line_count")))


QUERIES["tpch_q12"] = tpch_q12
ORACLE_SQL["tpch_q12"] = """
    SELECT l_linestatus,
           CAST(sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                    THEN 1 ELSE 0 END) AS BIGINT) AS high_line_count,
           CAST(sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                    THEN 0 ELSE 1 END) AS BIGINT) AS low_line_count
    FROM lineitem JOIN orders ON l_orderkey = o_orderkey
    WHERE l_shipdate >= TIMESTAMP '1996-01-01'
      AND l_shipdate <  TIMESTAMP '1997-01-01'
    GROUP BY l_linestatus
"""


def edit1_name_pairs(sf_dir: str):
    """Spell-variant similarity join: all customer-name pairs at
    Levenshtein distance exactly 1, via the FastSS k=1
    deletion-neighborhood blocking stage (stages.dedup.
    edit_distance_pairs) — the only shuffle moves (variant, word)
    keys, candidate groups are tiny by construction, verification is
    exact, so the result hash-checks against DuckDB's levenshtein()
    self-join. Names are distinct already; a token vocabulary would
    run its distinct groupby first."""
    from tldr_ray.stages.dedup import edit_distance_pairs

    vocab = _read(sf_dir, "customer", ["c_name"])
    return edit_distance_pairs(vocab, col="c_name")


QUERIES["edit1_name_pairs"] = edit1_name_pairs
ORACLE_SQL["edit1_name_pairs"] = """
    WITH v AS (SELECT DISTINCT c_name AS w FROM customer)
    SELECT a.w AS w1, b.w AS w2
    FROM v a JOIN v b
      ON a.w < b.w
     AND abs(length(a.w) - length(b.w)) <= 1
     AND levenshtein(a.w, b.w) = 1
"""


def orders_cube(sf_dir: str):
    """CUBE over (o_orderstatus, o_orderpriority) in one pass
    (stages.agg.cube_aggregate -> grouping_sets_aggregate, the
    generalized rollup): counts + totalprice cents at all four
    grouping sets, rolled-up columns = 'ALL'. Same map-side combiner
    contract as the rollup — the shuffle moves one row per combo per
    set per block."""
    from tldr_ray.stages.agg import cube_aggregate

    return cube_aggregate(
        _read(sf_dir, "orders",
              ["o_orderstatus", "o_orderpriority", "o_totalprice"]),
        ["o_orderstatus", "o_orderpriority"], value_col="o_totalprice")


QUERIES["orders_cube"] = orders_cube
ORACLE_SQL["orders_cube"] = """
    SELECT coalesce(o_orderstatus, 'ALL') AS o_orderstatus,
           coalesce(o_orderpriority, 'ALL') AS o_orderpriority,
           CAST(count(*) AS BIGINT) AS n,
           CAST(sum(CAST(floor(o_totalprice * 100.0 + 0.5)
                         AS BIGINT)) AS BIGINT) AS cents
    FROM orders
    GROUP BY CUBE (o_orderstatus, o_orderpriority)
"""


def zonemap_pruned_events(sf_dir: str):
    """Data skipping end to end: lay events out range-clustered on ts
    (ONE sort — the write-side cost that buys every later scan), write
    sharded parquet, index the directory with a footer-only per-file
    min/max zone map (sinks.build_zonemap), then answer a 2-day window
    query through sources.read_pruned — files whose [min,max] misses
    the window are never opened, and the residual exact filter makes
    the row set layout-independent (zone maps admit false-positive
    files, never rows). At 100 TB this is the difference between a
    full scan and a few files; the pytest asserts files_read <
    files_total so the pruning is real, and the driver hash-checks the
    surviving rows against a plain SQL filter."""
    import ray.data as rd

    from tldr_ray.sinks import build_zonemap
    from tldr_ray.sources.tabular import read_pruned

    import hashlib

    key = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    out = f"/tmp/tldr_ray_zonemap/{key}"
    import shutil

    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out, exist_ok=True)
    (_read(sf_dir, "events", ["event_id", "ts", "event_type", "value"])
     .sort("ts")
     .write_parquet(out, min_rows_per_file=2_000))
    build_zonemap(out, ["ts"])

    lo = np.datetime64("2024-01-10").astype("datetime64[us]").astype(np.int64)
    hi = np.datetime64("2024-01-12").astype("datetime64[us]").astype(np.int64)
    ds, info = read_pruned(out, "ts", int(lo), int(hi) - 1)
    assert info["files_read"] <= info["files_total"]

    def seal(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": batch["event_id"].cast(pa.int64()),
            "ts_us": batch["ts"].cast(pa.int64()),
            "event_type": batch["event_type"],
            "value_cents": pa.array(_cents(
                np.asarray(batch["value"], dtype=np.float64)))})

    return ds.map_batches(seal, batch_format="pyarrow")


QUERIES["zonemap_pruned_events"] = zonemap_pruned_events
ORACLE_SQL["zonemap_pruned_events"] = """
    SELECT event_id,
           epoch_us(ts) AS ts_us,
           event_type,
           CAST(floor(value*100 + 0.5) AS BIGINT) AS value_cents
    FROM events
    WHERE ts >= TIMESTAMP '2024-01-10'
      AND ts <  TIMESTAMP '2024-01-12'
"""


def price_quantity_skyline(sf_dir: str):
    """Pareto frontier of lineitem value: the distinct (price, qty)
    pairs not dominated by any cheaper-and-larger pair (MINIMIZE
    extendedprice, MAXIMIZE quantity, exact cents) via the two-level
    distributed skyline (stages.agg.skyline2d: per-block local
    skyline -> one frontier-sized merge). Hash-checks against the
    linear window-function mirror (per-price max qty, strict
    running-max sweep)."""
    from tldr_ray.stages.agg import skyline2d

    def cents(batch: pa.Table) -> pa.Table:
        return pa.table({
            "price_cents": pa.array(_cents(np.asarray(
                batch["l_extendedprice"], dtype=np.float64))),
            "qty_cents": pa.array(_cents(np.asarray(
                batch["l_quantity"], dtype=np.float64)))})

    ds = (_read(sf_dir, "lineitem", ["l_extendedprice", "l_quantity"])
          .map_batches(cents, batch_format="pyarrow"))
    return skyline2d(ds, "price_cents", "qty_cents")


QUERIES["price_quantity_skyline"] = price_quantity_skyline
ORACLE_SQL["price_quantity_skyline"] = """
    WITH d AS (
        SELECT DISTINCT
               CAST(floor(l_extendedprice*100 + 0.5) AS BIGINT)
                   AS price_cents,
               CAST(floor(l_quantity*100 + 0.5) AS BIGINT) AS qty_cents
        FROM lineitem),
    m AS (SELECT price_cents, max(qty_cents) AS qty_cents
          FROM d GROUP BY price_cents),
    s AS (SELECT price_cents, qty_cents,
                 max(qty_cents) OVER (
                     ORDER BY price_cents
                     ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
                     AS prev_max
          FROM m)
    SELECT price_cents, qty_cents FROM s
    WHERE prev_max IS NULL OR qty_cents > prev_max
"""


def orders_expectations(sf_dir: str):
    """Declarative data-quality report over orders
    (stages.agg.validate_expectations): null / range / value-set /
    uniqueness expectations, each a (check_name, n_rows,
    n_violations) row, all scalar checks in ONE streaming pass and the
    uniqueness check as a value-count exchange. Hash-checks against a
    UNION ALL of the equivalent SQL counters."""
    from tldr_ray.stages.agg import validate_expectations

    ds = _read(sf_dir, "orders",
               ["o_orderkey", "o_custkey", "o_orderstatus",
                "o_totalprice"])
    return validate_expectations(ds, [
        {"kind": "not_null", "col": "o_custkey"},
        {"kind": "range", "col": "o_totalprice", "lo": 0.0,
         "hi": 300_000.0},
        {"kind": "in_set", "col": "o_orderstatus",
         "values": ["O", "F", "P"]},
        {"kind": "unique", "col": "o_orderkey"},
    ])


QUERIES["orders_expectations"] = orders_expectations
ORACLE_SQL["orders_expectations"] = """
    SELECT 'not_null:o_custkey' AS check_name,
           CAST(count(*) AS BIGINT) AS n_rows,
           CAST(count(*) FILTER (WHERE o_custkey IS NULL) AS BIGINT)
               AS n_violations
    FROM orders
    UNION ALL
    SELECT 'range:o_totalprice',
           CAST(count(*) AS BIGINT),
           CAST(count(*) FILTER (WHERE o_totalprice IS NULL
                                 OR o_totalprice < 0.0
                                 OR o_totalprice > 300000.0) AS BIGINT)
    FROM orders
    UNION ALL
    SELECT 'in_set:o_orderstatus',
           CAST(count(*) AS BIGINT),
           CAST(count(*) FILTER (WHERE o_orderstatus IS NULL
                                 OR o_orderstatus NOT IN ('O','F','P'))
                AS BIGINT)
    FROM orders
    UNION ALL
    SELECT 'unique:o_orderkey',
           CAST(count(*) AS BIGINT),
           CAST(count(*) - count(DISTINCT o_orderkey) AS BIGINT)
    FROM orders
"""


def watermark_hourly_events(sf_dir: str):
    """Streaming-semantics windowed aggregate with an event-time
    WATERMARK and allowed lateness (stages.windows.watermark_filter):
    arrival order is the deterministic shuffle splitmix64(event_id)
    >> 1 (the log's ts order is monotone, so replaying in a hashed
    order is what actually exercises lateness), watermark = max event
    time seen so far minus 10 minutes, late rows are DROPPED before
    the tumbling 1-hour aggregate — the rule a streaming engine
    applies when closing windows. The running max over the arrival
    order is the two-pass distributed scan (O(P) driver state);
    outputs (hour_id, n, cents) for ACCEPTED rows plus the dropped
    count as hour_id = -1, so the hash covers the drop decision
    itself. SQL mirror: the shared splitmix CTE chain + one window
    max OVER the same order."""
    from ray.data.aggregate import Sum

    from tldr_ray.stages.dedup import _mix64
    from tldr_ray.stages.windows import watermark_filter

    late_us = 10 * 60 * 1_000_000

    def arrive(batch: pa.Table) -> pa.Table:
        eid = np.asarray(batch["event_id"], dtype=np.int64)
        arr = (_mix64(eid.astype(np.uint64)) >> np.uint64(1)) \
            .astype(np.int64)
        return pa.table({
            "arrival": pa.array(arr),
            "ts": batch["ts"],
            "value": batch["value"]})

    ds = (_read(sf_dir, "events", ["event_id", "ts", "value"])
          .map_batches(arrive, batch_format="pyarrow"))
    marked = watermark_filter(ds, "arrival", "ts", late_us,
                              id_max=(1 << 63) - 1)

    def to_hours(batch: pd.DataFrame) -> pd.DataFrame:
        ts = batch["ts"].to_numpy(np.int64)
        late = batch["__late"].to_numpy(bool)
        hour = np.where(late, np.int64(-1), ts // 3_600_000_000)
        cents = np.where(late, 0, _cents(
            batch["value"].to_numpy(np.float64)))
        return pd.DataFrame({"hour_id": hour.astype(np.int64),
                             "n": np.ones(len(batch), np.int64),
                             "cents": cents.astype(np.int64)})

    return (marked.map_batches(to_hours, batch_format="pandas")
            .groupby("hour_id")
            .aggregate(Sum("n", alias_name="n"),
                       Sum("cents", alias_name="cents")))


QUERIES["watermark_hourly_events"] = watermark_hourly_events
ORACLE_SQL["watermark_hourly_events"] = f"""
    WITH RECURSIVE
    src AS MATERIALIZED (
        SELECT CAST(event_id AS HUGEINT) AS h,
               epoch_us(ts) AS tus, value
        FROM events),
    {_sql_splitmix_ctes("src", carry="tus, value, ")},
    arr AS MATERIALIZED (
        SELECT CAST(h // 2 AS BIGINT) AS arrival, tus, value FROM m3),
    wm AS (
        SELECT tus, value,
               max(tus) OVER (ORDER BY arrival
                              ROWS BETWEEN UNBOUNDED PRECEDING
                              AND CURRENT ROW) AS w
        FROM arr)
    SELECT CASE WHEN tus < w - {10 * 60 * 1_000_000}
                THEN CAST(-1 AS BIGINT)
                ELSE tus // 3600000000 END AS hour_id,
           CAST(count(*) AS BIGINT) AS n,
           CAST(sum(CASE WHEN tus < w - {10 * 60 * 1_000_000} THEN 0
                    ELSE CAST(floor(value*100 + 0.5) AS BIGINT) END)
                AS BIGINT) AS cents
    FROM wm GROUP BY 1
"""


def events_hourly_interpolated(sf_dir: str):
    """Time-series gap fill by LINEAR INTERPOLATION: per (event_type,
    hour) cents sums on the dense per-type [first, last] hour grid,
    missing hours filled with the line between their neighboring
    observations. The interpolation arithmetic is an exact BIGINT
    numerator (values x hour-INDEX distances, both small ints — never
    epoch-us, whose products would leave the 2^53-exact range) and ONE
    IEEE double division, mirrored op-for-op in SQL (last_value IGNORE
    NULLS both directions), so the float column hash-checks. Sparse
    aggregation is the usual pre-combined groupby; the per-type fill
    is O(hours) driver-free map_groups over #types groups."""
    from ray.data.aggregate import Sum

    def prep(batch: pa.Table) -> pa.Table:
        ts = np.asarray(batch["ts"].cast(pa.int64()))
        hr = ts // 3_600_000_000
        cents = _cents(np.asarray(batch["value"], dtype=np.float64))
        et = np.asarray(batch["event_type"], dtype=object)
        key = pd.MultiIndex.from_arrays([et, hr])
        u, inv = np.unique(key, return_inverse=True)
        acc = np.zeros(len(u), np.int64)
        np.add.at(acc, inv, cents)
        return pa.table({
            "event_type": pa.array([k[0] for k in u], pa.string()),
            "hour_id": pa.array([k[1] for k in u], pa.int64()),
            "cents": pa.array(acc)})

    sparse = (_read(sf_dir, "events", ["event_type", "ts", "value"])
              .map_batches(prep, batch_format="pyarrow")
              .groupby(["event_type", "hour_id"])
              .aggregate(Sum("cents", alias_name="cents")))

    def fill(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("hour_id")
        h = g["hour_id"].to_numpy(np.int64)
        v = g["cents"].to_numpy(np.int64)
        grid = np.arange(h[0], h[-1] + 1, dtype=np.int64)
        pos = np.searchsorted(h, grid, side="right") - 1   # prev obs
        nxt = np.searchsorted(h, grid, side="left")        # next obs
        observed = h[pos] == grid
        nxt = np.where(observed, pos, nxt)
        ph, pv = h[pos], v[pos]
        nh, nv = h[nxt], v[nxt]
        numer = pv * (nh - grid) + nv * (grid - ph)
        denom = nh - ph
        val = np.where(observed, v[pos].astype(np.float64),
                       numer.astype(np.float64)
                       / np.maximum(denom, 1).astype(np.float64))
        return pd.DataFrame({
            "event_type": g["event_type"].iloc[0],
            "hour_id": grid,
            "v": val,
            "observed": observed})

    return sparse.groupby("event_type").map_groups(
        fill, batch_format="pandas")


QUERIES["events_hourly_interpolated"] = events_hourly_interpolated
ORACLE_SQL["events_hourly_interpolated"] = """
    WITH sparse AS (
        SELECT event_type,
               epoch_us(ts) // 3600000000 AS hour_id,
               sum(CAST(floor(value*100 + 0.5) AS BIGINT)) AS cents
        FROM events GROUP BY 1, 2),
    bounds AS (SELECT event_type, min(hour_id) AS lo, max(hour_id) AS hi
               FROM sparse GROUP BY 1),
    grid AS (SELECT event_type,
                    unnest(range(lo, hi + 1)) AS hour_id
             FROM bounds),
    j AS (SELECT g.event_type, g.hour_id, s.cents
          FROM grid g LEFT JOIN sparse s
            ON g.event_type = s.event_type AND g.hour_id = s.hour_id),
    w AS (SELECT event_type, hour_id, cents,
                 last_value(cents IGNORE NULLS) OVER
                     (PARTITION BY event_type ORDER BY hour_id
                      ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
                     AS pv,
                 last_value(CASE WHEN cents IS NOT NULL
                            THEN hour_id END IGNORE NULLS) OVER
                     (PARTITION BY event_type ORDER BY hour_id
                      ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
                     AS ph,
                 first_value(cents IGNORE NULLS) OVER
                     (PARTITION BY event_type ORDER BY hour_id
                      ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING)
                     AS nv,
                 first_value(CASE WHEN cents IS NOT NULL
                             THEN hour_id END IGNORE NULLS) OVER
                     (PARTITION BY event_type ORDER BY hour_id
                      ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING)
                     AS nh
          FROM j)
    SELECT event_type,
           CAST(hour_id AS BIGINT) AS hour_id,
           CASE WHEN cents IS NOT NULL THEN CAST(cents AS DOUBLE)
                ELSE CAST(pv*(nh - hour_id) + nv*(hour_id - ph)
                          AS DOUBLE)
                     / CAST(nh - ph AS DOUBLE) END AS v,
           cents IS NOT NULL AS observed
    FROM w
"""


def zorder_zonemap_events(sf_dir: str):
    """The layout pieces COMPOSED: OPTIMIZE ZORDER + zone-map skipping
    on TWO dimensions at once. Events are clustered by the Morton key
    over (user_id, value_cents) (stages.agg.zorder_sort — one
    legitimate shuffle buys locality in BOTH dimensions), written
    sharded, indexed with the footer-only zone map on both columns,
    and a conjunctive (user range AND value range) predicate is
    answered opening only files whose boxes intersect — the 2-D
    pruning a single-column sort cannot give. Residual exact filter
    keeps the row set layout-independent; hash-checks vs the plain
    SQL conjunction."""
    import hashlib
    import shutil

    from tldr_ray.sinks import build_zonemap
    from tldr_ray.sources.tabular import read_pruned
    from tldr_ray.stages.agg import zorder_sort

    key = hashlib.md5((sf_dir + ":zz").encode()).hexdigest()[:8]
    out = f"/tmp/tldr_ray_zonemap/{key}"
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out, exist_ok=True)

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": batch["event_id"].cast(pa.int64()),
            "user_id": batch["user_id"].cast(pa.int64()),
            "value_cents": pa.array(_cents(np.asarray(
                batch["value"], dtype=np.float64)))})

    (zorder_sort(_read(sf_dir, "events",
                       ["event_id", "user_id", "value"])
                 .map_batches(prep, batch_format="pyarrow"),
                 ["user_id", "value_cents"])
     .drop_columns(["zkey"])
     .write_parquet(out, min_rows_per_file=1_000))
    build_zonemap(out, ["user_id", "value_cents"])

    ds, info = read_pruned(out, preds=[("user_id", 2, 9),
                                       ("value_cents", 1000, 5000)])
    assert ds is not None and info["files_read"] <= info["files_total"]
    return ds


QUERIES["zorder_zonemap_events"] = zorder_zonemap_events
ORACLE_SQL["zorder_zonemap_events"] = """
    SELECT event_id, user_id,
           CAST(floor(value*100 + 0.5) AS BIGINT) AS value_cents
    FROM events
    WHERE user_id BETWEEN 2 AND 9
      AND CAST(floor(value*100 + 0.5) AS BIGINT) BETWEEN 1000 AND 5000
"""


def _tarjan_scc(src: np.ndarray, dst: np.ndarray,
                verts: np.ndarray) -> dict:
    """Iterative Tarjan over an edge list (the size-gated LOCAL
    finisher for the distributed SCC decomposition — same role the
    driver union-find plays for dup clusters). Returns
    {vertex -> min member of its SCC}."""
    order = np.argsort(src, kind="stable")
    s, d = src[order], dst[order]
    starts = np.searchsorted(s, verts, side="left")
    ends = np.searchsorted(s, verts, side="right")
    vidx = {int(v): i for i, v in enumerate(verts)}
    n = verts.size
    index = np.full(n, -1, np.int64)
    low = np.zeros(n, np.int64)
    on = np.zeros(n, bool)
    comp = np.full(n, -1, np.int64)
    stack: list = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, iter(range(starts[root], ends[root])))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for ei in it:
                w = vidx.get(int(d[ei]))
                if w is None:
                    continue
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on[w] = True
                    work.append((w, iter(range(starts[w], ends[w]))))
                    advanced = True
                    break
                if on[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                members = []
                while True:
                    w = stack.pop()
                    on[w] = False
                    members.append(w)
                    if w == v:
                        break
                m = int(verts[members].min()) if members else int(verts[v])
                for w in members:
                    comp[w] = m
    return {int(verts[i]): int(comp[i]) for i in range(n)}


def scc_hashgraph(sf_dir: str, max_rounds: int = 8):
    """FULL strongly-connected-component decomposition of the directed
    (pruned) hash graph — the FW-BW divide-and-conquer (Fleischer et
    al. 2000) run the way every other unknown-size reduction here
    runs: distributed pivot rounds while the problem is big, the one
    size gate (stages.joins.fits_broadcast), and a driver-local finisher
    (iterative Tarjan) once the active remainder fits. Each round: pivot = min active vertex,
    forward BFS + backward BFS (second engine on swapped src/dst)
    restricted to the active subgraph (edges re-filtered per round —
    removed SCCs must not conduct reachability), SCC = intersection,
    scc_id = min member. The synth graph's giant SCC peels in round 1
    and the sink tail finishes locally; a 100-TB adversarial DAG would
    raise max_rounds and recurse on the three FW/BW/remainder splits
    instead of just the remainder (documented, not needed here).
    Output: (vertex, scc_id) for EVERY vertex. Rows-only (transitive
    closure is not reasonably SQL-expressible); pinned by a pytest vs
    sequential Tarjan on random directed graphs."""
    import ray

    from tldr_ray.graph import GraphEngine
    from tldr_ray.stages.joins import fits_broadcast

    def prune(batch: pa.Table) -> pa.Table:
        s = np.asarray(batch["src"], dtype=np.int64)
        return batch.filter(pa.array(s % 3 != 1))

    edges = _hash_graph_edges(sf_dir) \
        .map_batches(prune, batch_format="pyarrow").materialize()

    verts = np.union1d(
        np.unique(np.concatenate(
            [np.asarray(b["src"]) for b in
             edges.iter_batches(batch_format="pyarrow")] or
            [np.array([], np.int64)])),
        np.unique(np.concatenate(
            [np.asarray(b["dst"]) for b in
             edges.iter_batches(batch_format="pyarrow")] or
            [np.array([], np.int64)])))
    active = np.sort(verts.astype(np.int64))
    assigned: dict = {}

    def active_edges(act: np.ndarray):
        ref = ray.put(act)

        def fil(batch: pa.Table) -> pa.Table:
            a = ray.get(ref)
            s = np.asarray(batch["src"], dtype=np.int64)
            d = np.asarray(batch["dst"], dtype=np.int64)
            ps = np.clip(np.searchsorted(a, s), 0, a.size - 1)
            pd_ = np.clip(np.searchsorted(a, d), 0, a.size - 1)
            m = (a[ps] == s) & (a[pd_] == d)
            return batch.filter(pa.array(m))

        return edges.map_batches(fil, batch_format="pyarrow")

    for _ in range(max_rounds):
        if active.size == 0:
            break
        sub = active_edges(active).materialize()
        n_sub = sub.count()
        if n_sub == 0:
            # edge-free remainder: every active vertex is a singleton
            # SCC (0-row to_pandas also drops columns — repo gotcha)
            assigned.update({int(v): int(v) for v in active})
            active = active[:0]
            break
        if fits_broadcast(sub):
            t = sub.to_pandas()
            comp = _tarjan_scc(t["src"].to_numpy(np.int64),
                               t["dst"].to_numpy(np.int64), active)
            assigned.update(comp)
            active = active[:0]
            break
        pivot = int(active[0])

        def reach(swap: bool) -> np.ndarray:
            e = sub
            if swap:
                def rev(batch: pa.Table) -> pa.Table:
                    return pa.table({"src": batch["dst"],
                                     "dst": batch["src"],
                                     "weight": batch["weight"]})
                e = sub.map_batches(rev, batch_format="pyarrow")
            eng = GraphEngine.from_edges(e, num_partitions=4,
                                         symmetrize=False)
            try:
                ids, dist, _ = eng.bfs([pivot])
            finally:
                eng.shutdown()
            return ids[dist != np.iinfo(np.int64).max]

        members = np.intersect1d(reach(False), reach(True))
        members = np.union1d(members, [pivot])
        scc_id = int(members.min())
        for v in members.tolist():
            assigned[int(v)] = scc_id
        keep = np.isin(active, members, invert=True,
                       assume_unique=True)
        active = active[keep]
    if active.size:
        raise RuntimeError(
            f"scc: {active.size} vertices unresolved after "
            f"{max_rounds} FW-BW rounds — raise max_rounds")
    vs = np.array(sorted(assigned), np.int64)
    return pa.table({"vertex": pa.array(vs),
                     "scc_id": pa.array(
                         np.array([assigned[int(v)] for v in vs],
                                  np.int64))})


QUERIES["scc_hashgraph"] = scc_hashgraph


def event_trigram_paths(sf_dir: str):
    """Second-order session-path mining: counts of (prev2, prev1,
    next) event-type TRIGRAMS over each user's time-ordered stream —
    the order-2 Markov table behind next-action prediction. Same
    discipline as event_transitions one order up: types code to small
    ints via the O(types) distinct pass, ONE coarse hash(user)%64
    shuffle + per-partition sort, both lags fall out of index shifts
    against the segment-start flags (no second window pass), packed
    trigram codes pre-combine per batch before a |types|^3-bounded
    groupby, names decode on the final table only."""
    from ray.data.aggregate import Sum

    types = sorted(set(
        _read(sf_dir, "events", ["event_type"])
        .groupby("event_type").count().to_pandas()["event_type"]))
    tarr = np.array(types, dtype=object)
    T = np.int64(len(types))

    def prep(batch: pa.Table) -> pa.Table:
        code = np.searchsorted(tarr, np.asarray(batch["event_type"]))
        uid = np.asarray(batch["user_id"], dtype=np.int64)
        return pa.table({
            "user_id": batch["user_id"],
            "ts_us": batch["ts"].cast(pa.int64()),
            "event_id": batch["event_id"],
            "type_code": pa.array(code.astype(np.int64))})

    def sweep(g: pd.DataFrame) -> pd.DataFrame:
        order = np.lexsort((g["event_id"].to_numpy(np.int64),
                            g["ts_us"].to_numpy(np.int64),
                            g["user_id"].to_numpy(np.int64)))
        u = g["user_id"].to_numpy(np.int64)[order]
        c = g["type_code"].to_numpy(np.int64)[order]
        n = c.size
        if n < 3:
            return pd.DataFrame({"key": np.array([], np.int64),
                                 "n": np.array([], np.int64)})
        same1 = u[1:] == u[:-1]                     # i shares user with i-1
        ok = same1[1:] & same1[:-1]                 # i-2, i-1, i same user
        key = c[:-2] * T * T + c[1:-1] * T + c[2:]
        uk, cnt = np.unique(key[ok], return_counts=True)
        return pd.DataFrame({"key": uk, "n": cnt.astype(np.int64)})

    agg = (keyed_sweep(_read(sf_dir, "events", ["event_id", "user_id", "ts",
                                                "event_type"])
                       .map_batches(prep, batch_format="pyarrow"),
                       "user_id", sweep)
           .groupby("key").aggregate(Sum("n", alias_name="n"))
           .to_pandas())
    k = agg["key"].to_numpy(np.int64)
    return pa.table({
        "t1": pa.array(tarr[k // (T * T)].tolist(), pa.string()),
        "t2": pa.array(tarr[(k // T) % T].tolist(), pa.string()),
        "t3": pa.array(tarr[k % T].tolist(), pa.string()),
        "n": pa.array(agg["n"].to_numpy(np.int64))})


QUERIES["event_trigram_paths"] = event_trigram_paths
ORACLE_SQL["event_trigram_paths"] = """
    WITH w AS (
        SELECT user_id, event_type,
               lag(event_type, 1) OVER (
                   PARTITION BY user_id
                   ORDER BY epoch_us(ts), event_id) AS p1,
               lag(event_type, 2) OVER (
                   PARTITION BY user_id
                   ORDER BY epoch_us(ts), event_id) AS p2
        FROM events)
    SELECT p2 AS t1, p1 AS t2, event_type AS t3,
           CAST(count(*) AS BIGINT) AS n
    FROM w WHERE p1 IS NOT NULL AND p2 IS NOT NULL
    GROUP BY p2, p1, event_type
"""


def fd_audit_lineitem(sf_dir: str):
    """Functional-dependency discovery (profiling / schema inference):
    does column A determine column B? A -> B holds iff
    |distinct(A)| == |distinct(A, B)|. ALL candidate FDs ride ONE
    read + ONE exchange: each batch emits its locally-unique key rows
    per (case, side) TAGGED with the case id (the shuffle moves
    distinct keys, never rows, and the shared lhs l_orderkey is
    counted once and reused), partition tasks dedupe their
    (tag, hash-slice) and emit one count each, a tiny per-tag Sum
    finishes — 6 distinct-count executions fused into 1 (12.8 s ->
    ~3 s at sf0.1). Probes a derived always-true FD and two false
    ones so both outcomes land in the hash."""
    from ray.data.aggregate import Sum

    # tag -> column tuple ("derived_decile" = l_orderkey % 10)
    TAGS = {0: ("l_orderkey",),
            1: ("l_orderkey", "l_returnflag"),
            2: ("l_partkey",),
            3: ("l_partkey", "l_suppkey"),
            4: ("l_orderkey", "derived_decile")}
    cases = [("l_orderkey", "l_returnflag", 0, 1),
             ("l_partkey", "l_suppkey", 2, 3),
             ("l_orderkey", "derived_decile", 0, 4)]

    from tldr_ray.hashing import fnv1a_batch
    from tldr_ray.stages.dedup import _mix64

    GOLD = np.uint64(0x9E3779B97F4A7C15)

    def uniq_all(batch: pa.Table) -> pa.Table:
        # int64 identity per column value (ints verbatim, strings via
        # the shared vectorized FNV); pair identity = splitmix-mixed
        # combination — 64-bit identities as exact-enough distinct
        # keys, the same contract the shingle pipelines use
        ids = {}
        for c in ("l_orderkey", "l_partkey", "l_suppkey"):
            ids[c] = np.asarray(batch[c], dtype=np.int64) \
                .view(np.uint64)
        ids["l_returnflag"] = fnv1a_batch(batch["l_returnflag"])
        ids["derived_decile"] = (
            np.asarray(batch["l_orderkey"], dtype=np.int64) % 10
        ).view(np.uint64)
        out_tag, out_k = [], []
        for tag, cs in TAGS.items():
            if len(cs) == 1:
                k = _mix64(ids[cs[0]])
            else:
                k = _mix64(_mix64(ids[cs[0]]) ^ (ids[cs[1]] * GOLD))
            u = np.unique(k)
            out_tag.append(np.full(u.size, tag, np.int8))
            out_k.append(u)
        return pa.table({
            "tag": pa.array(np.concatenate(out_tag)),
            "k": pa.array(np.concatenate(out_k).view(np.int64))})

    def count_part(g: pd.DataFrame) -> pd.DataFrame:
        n = g.groupby("tag")["k"].nunique()
        return pd.DataFrame({"tag": n.index.to_numpy(np.int8),
                             "n": n.to_numpy(np.int64)})

    counts = (keyed_sweep(_read(sf_dir, "lineitem",
                                ["l_orderkey", "l_returnflag", "l_partkey",
                                 "l_suppkey"])
                          .map_batches(uniq_all, batch_format="pyarrow"),
                          ["tag", "k"], count_part)
              .groupby("tag").aggregate(Sum("n", alias_name="n"))
              .to_pandas())
    n_by_tag = dict(zip(counts["tag"].astype(int),
                        counts["n"].astype(int)))

    rows = []
    for lhs, rhs, tl, tp in cases:
        n_lhs, n_pairs = n_by_tag[tl], n_by_tag[tp]
        rows.append((lhs, rhs, n_lhs, n_pairs, n_lhs == n_pairs))
    return pa.table({
        "lhs": pa.array([r[0] for r in rows], pa.string()),
        "rhs": pa.array([r[1] for r in rows], pa.string()),
        "n_lhs": pa.array([r[2] for r in rows], pa.int64()),
        "n_pairs": pa.array([r[3] for r in rows], pa.int64()),
        "holds": pa.array([r[4] for r in rows], pa.bool_())})


QUERIES["fd_audit_lineitem"] = fd_audit_lineitem
ORACLE_SQL["fd_audit_lineitem"] = """
    SELECT 'l_orderkey' AS lhs, 'l_returnflag' AS rhs,
           CAST(count(DISTINCT l_orderkey) AS BIGINT) AS n_lhs,
           CAST(count(DISTINCT (l_orderkey, l_returnflag)) AS BIGINT)
               AS n_pairs,
           count(DISTINCT l_orderkey)
               = count(DISTINCT (l_orderkey, l_returnflag)) AS holds
    FROM lineitem
    UNION ALL
    SELECT 'l_partkey', 'l_suppkey',
           CAST(count(DISTINCT l_partkey) AS BIGINT),
           CAST(count(DISTINCT (l_partkey, l_suppkey)) AS BIGINT),
           count(DISTINCT l_partkey)
               = count(DISTINCT (l_partkey, l_suppkey))
    FROM lineitem
    UNION ALL
    SELECT 'l_orderkey', 'derived_decile',
           CAST(count(DISTINCT l_orderkey) AS BIGINT),
           CAST(count(DISTINCT (l_orderkey, l_orderkey % 10))
                AS BIGINT),
           count(DISTINCT l_orderkey)
               = count(DISTINCT (l_orderkey, l_orderkey % 10))
    FROM lineitem
"""


def cogroup_orders_events(sf_dir: str):
    """Generic CO-GROUP showcase (stages.joins.cogroup — the
    Spark/Beam primitive): orders and events co-located per key in ONE
    exchange, the per-key callback seeing BOTH complete row sets —
    here a full-outer reconciliation (order count + cents vs event
    count + cents per id, keys present on either side) that a join
    would need outer machinery and two grouped aggregates for. Counts
    and cents are exact ints; hash-checks vs the FULL OUTER JOIN of
    two grouped aggregates."""
    from tldr_ray.stages.joins import cogroup

    def o_prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "k": batch["o_custkey"].cast(pa.int64()),
            "ocents": pa.array(_cents(np.asarray(
                batch["o_totalprice"], dtype=np.float64)))})

    def e_prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "k": batch["user_id"].cast(pa.int64()),
            "ecents": pa.array(_cents(np.asarray(
                batch["value"], dtype=np.float64)))})

    orders = (_read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
              .map_batches(o_prep, batch_format="pyarrow"))
    events = (_read(sf_dir, "events", ["user_id", "value"])
              .map_batches(e_prep, batch_format="pyarrow"))

    def reconcile(key, l: pd.DataFrame, r: pd.DataFrame) -> pd.DataFrame:
        if key is None:
            return pd.DataFrame({
                "k": pd.Series([], dtype=np.int64),
                "n_orders": pd.Series([], dtype=np.int64),
                "order_cents": pd.Series([], dtype=np.int64),
                "n_events": pd.Series([], dtype=np.int64),
                "event_cents": pd.Series([], dtype=np.int64)})
        return pd.DataFrame({
            "k": [np.int64(key)],
            "n_orders": [np.int64(len(l))],
            "order_cents": [np.int64(l["ocents"].sum()) if len(l)
                            else np.int64(0)],
            "n_events": [np.int64(len(r))],
            "event_cents": [np.int64(r["ecents"].sum()) if len(r)
                            else np.int64(0)]})

    return cogroup(orders, events, "k", reconcile)


QUERIES["cogroup_orders_events"] = cogroup_orders_events
ORACLE_SQL["cogroup_orders_events"] = """
    WITH o AS (SELECT o_custkey AS k,
                      CAST(count(*) AS BIGINT) AS n_orders,
                      CAST(sum(CAST(floor(o_totalprice*100 + 0.5)
                                    AS BIGINT)) AS BIGINT) AS order_cents
               FROM orders GROUP BY 1),
    e AS (SELECT user_id AS k,
                 CAST(count(*) AS BIGINT) AS n_events,
                 CAST(sum(CAST(floor(value*100 + 0.5) AS BIGINT))
                      AS BIGINT) AS event_cents
          FROM events GROUP BY 1)
    SELECT coalesce(o.k, e.k) AS k,
           coalesce(n_orders, 0) AS n_orders,
           coalesce(order_cents, 0) AS order_cents,
           coalesce(n_events, 0) AS n_events,
           coalesce(event_cents, 0) AS event_cents
    FROM o FULL OUTER JOIN e ON o.k = e.k
"""


def scd2_user_values(sf_dir: str):
    """Slowly-changing-dimension TYPE-2 build (stages.windows.
    scd2_intervals): the events log as a per-user change stream, each
    change carrying a validity interval [eff_from, eff_to) with the
    latest change per user flagged is_current and left open (null
    eff_to). Interval endpoints are raw column values (no arithmetic),
    so the hash is exact; event_id tie-breaks same-microsecond changes
    deterministically on both sides."""
    from tldr_ray.stages.windows import scd2_intervals

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id", "value"])
    return scd2_intervals(ds, "user_id", "ts", "event_id",
                          keep=["event_id", "value"])


QUERIES["scd2_user_values"] = scd2_user_values
ORACLE_SQL["scd2_user_values"] = """
    SELECT user_id, event_id, value, ts AS eff_from,
           lead(ts) OVER (PARTITION BY user_id
                          ORDER BY ts, event_id) AS eff_to,
           lead(ts) OVER (PARTITION BY user_id
                          ORDER BY ts, event_id) IS NULL AS is_current
    FROM events
"""


def user_day_busy_hours(sf_dir: str):
    """Interval-OVERLAP join showcase (stages.joins.interval_join —
    the bucket-replication plan): each user's daily activity span
    [first event, last event] joined to every busier-than-average hour
    window it overlaps. Busy = hour count >= global mean, decided by
    exact integer cross-multiplication (c * n_hours >= n_events).
    Right intervals are hour-aligned so they replicate to exactly one
    bucket; left spans replicate to <= 25. Hash-checks the full
    overlap pair set vs the plain inequality join."""
    from ray.data.aggregate import Count, Max, Min

    from tldr_ray.stages.joins import interval_join

    HOUR = np.int64(3_600_000_000)
    DAY = np.int64(86_400_000_000)
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        us = np.asarray(batch["ts"].cast(pa.int64()), dtype=np.int64)
        return pa.table({
            "user_id": batch["user_id"],
            "us": pa.array(us),
            "day": pa.array(us // DAY),
            "hour": pa.array(us // HOUR)})

    base = ds.map_batches(prep, batch_format="pyarrow")
    ud = (base.groupby(["user_id", "day"])
          .aggregate(Min("us", alias_name="lo"),
                     Max("us", alias_name="hi")))
    hours = (base.groupby("hour")
             .aggregate(Count(alias_name="hour_events"))
             .materialize())        # ~720 rows; reused by count + busy
    n_events = ds.count()
    n_hours = hours.count()

    def busy_intervals(batch: pa.Table) -> pa.Table:
        h = np.asarray(batch["hour"], dtype=np.int64)
        c = np.asarray(batch["hour_events"], dtype=np.int64)
        keep = c * np.int64(n_hours) >= np.int64(n_events)
        h, c = h[keep], c[keep]
        return pa.table({
            "hour": pa.array(h), "hour_events": pa.array(c),
            "blo": pa.array(h * HOUR),
            "bhi": pa.array(h * HOUR + HOUR - 1)})

    busy = hours.map_batches(busy_intervals, batch_format="pyarrow")
    out = interval_join(ud, busy, "lo", "hi", "blo", "bhi",
                        bucket_width=int(HOUR))
    return out.select_columns(
        ["user_id", "day", "lo", "hi", "hour", "hour_events"])


QUERIES["user_day_busy_hours"] = user_day_busy_hours
ORACLE_SQL["user_day_busy_hours"] = """
    WITH e AS (SELECT user_id, epoch_us(ts) AS us FROM events),
    ud AS (SELECT user_id, us // 86400000000 AS day,
                  min(us) AS lo, max(us) AS hi
           FROM e GROUP BY 1, 2),
    h AS (SELECT us // 3600000000 AS hour,
                 CAST(count(*) AS BIGINT) AS hour_events
          FROM e GROUP BY 1),
    busy AS (SELECT hour, hour_events,
                    hour * 3600000000 AS blo,
                    hour * 3600000000 + 3599999999 AS bhi
             FROM h
             WHERE hour_events * (SELECT count(*) FROM h)
                   >= (SELECT count(*) FROM e))
    SELECT user_id, day, lo, hi, hour, hour_events
    FROM ud JOIN busy ON lo <= bhi AND blo <= hi
"""


def setsim_prefix_docs(sf_dir: str):
    """EXACT all-pairs set-similarity join, word-trigram Jaccard >= 1/2
    (stages.dedup.set_similarity_join — lossless PREFIX-FILTER
    blocking, Bayardo AllPairs / PPJoin): unlike the MinHash-LSH
    family this has NO recall loss, so the oracle needs no blocking
    mirror — any lossless candidate plan yields the same pair set.
    The SQL side runs the same prefix filter (rarest-first order,
    exact-integer ceil) for tractability; candidates are 977 of the
    124,750 possible pairs at sf0.01, verified pairs 25."""
    from tldr_ray.stages.dedup import set_similarity_join

    return set_similarity_join(
        _read(sf_dir, "documents", ["doc_id", "text"]),
        k=3, threshold_num=1, threshold_den=2)


QUERIES["setsim_prefix_docs"] = setsim_prefix_docs
ORACLE_SQL["setsim_prefix_docs"] = """
    WITH t AS (
        SELECT doc_id,
               list_filter(regexp_split_to_array(text, '\\s+'),
                           x -> x != '') AS a
        FROM documents),
    sh AS MATERIALIZED (
        SELECT DISTINCT doc_id,
               a[i] || ' ' || a[i+1] || ' ' || a[i+2] AS s
        FROM t, unnest(generate_series(1, len(a) - 2)) AS u(i)),
    cnt AS MATERIALIZED (
        SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
    df AS MATERIALIZED (SELECT s, count(*) AS d FROM sh GROUP BY s),
    rk AS (SELECT sh.doc_id, sh.s, cnt.n,
                  row_number() OVER (PARTITION BY sh.doc_id
                                     ORDER BY df.d, sh.s) AS r
           FROM sh JOIN df USING (s) JOIN cnt USING (doc_id)),
    pref AS MATERIALIZED (
        SELECT doc_id, s FROM rk WHERE r <= n - (n + 1) // 2 + 1),
    cand AS MATERIALIZED (
        SELECT DISTINCT a.doc_id AS id_a, b.doc_id AS id_b
        FROM pref a JOIN pref b ON a.s = b.s AND a.doc_id < b.doc_id),
    inter AS (
        SELECT c.id_a, c.id_b, count(*) AS i
        FROM cand c
        JOIN sh x ON x.doc_id = c.id_a
        JOIN sh y ON y.doc_id = c.id_b AND y.s = x.s
        GROUP BY 1, 2)
    SELECT i.id_a, i.id_b,
           CAST(i.i AS DOUBLE) / (ca.n + cb.n - i.i) AS jaccard
    FROM inter i
    JOIN cnt ca ON ca.doc_id = i.id_a
    JOIN cnt cb ON cb.doc_id = i.id_b
    WHERE CAST(i.i AS DOUBLE) / (ca.n + cb.n - i.i) >= 0.5
"""


def quantiles_cont_value_by_type(sf_dir: str):
    """Grouped percentile_CONT vector (stages.agg.grouped_quantiles_
    cont — the interpolated complement of the discrete value-counts
    plan): rn = q*(n-1), x[lo]*(1-frac) + x[hi]*frac, the formula
    DuckDB's quantile_cont evaluates (fuzz-pinned bit-for-bit), so raw
    double inputs hash-match with no integer-cents detour."""
    from tldr_ray.stages.agg import grouped_quantiles_cont

    return grouped_quantiles_cont(
        _read(sf_dir, "events", ["event_type", "value"]),
        "event_type", "value", qs=(0.25, 0.5, 0.9))


QUERIES["quantiles_cont_value_by_type"] = quantiles_cont_value_by_type
ORACLE_SQL["quantiles_cont_value_by_type"] = """
    SELECT event_type,
           quantile_cont(value, 0.25) AS p25,
           quantile_cont(value, 0.5) AS p50,
           quantile_cont(value, 0.9) AS p90
    FROM events GROUP BY event_type
"""


def hash_index_lookup_orders(sf_dir: str):
    """Point-lookup storage path end to end (sinks.build_hash_index +
    sources.tabular.read_point_lookup): lay orders out hash-bucketed
    on o_orderkey — the write-side cost that buys O(1)-file key
    probes forever after — then answer a 5-key probe opening <= 5 of
    the 32 bucket files (asserted), the hash complement of the zone
    map's range pruning. Surviving rows hash-check vs the plain IN
    filter; timestamps and prices pass through raw (no arithmetic)."""
    import hashlib
    import shutil

    from tldr_ray.sinks import build_hash_index
    from tldr_ray.sources.tabular import read_point_lookup

    key = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    out = f"/tmp/tldr_ray_hashidx/{key}"
    shutil.rmtree(out, ignore_errors=True)
    build_hash_index(
        _read(sf_dir, "orders",
              ["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"]),
        out, "o_orderkey", num_buckets=32)
    probe = [3, 77, 500, 1234, 1499]
    tab, info = read_point_lookup(out, probe)
    assert info["files_read"] <= len(probe) < info["files_total"]
    return tab


QUERIES["hash_index_lookup_orders"] = hash_index_lookup_orders
ORACLE_SQL["hash_index_lookup_orders"] = """
    SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate
    FROM orders WHERE o_orderkey IN (3, 77, 500, 1234, 1499)
"""


def heavy_users_misra_gries(sf_dir: str):
    """Misra-Gries mergeable heavy hitters over events.user_id
    (stages.sketches.misra_gries — the deterministic-bound counter
    sketch: every user with frequency > n/(k+1) is guaranteed
    present, estimates never exceed truth). Rows-only by nature (the
    summary content depends on block boundaries); the pytest pins the
    two-sided bound and guaranteed presence on planted-skew data."""
    from tldr_ray.stages.sketches import misra_gries

    return misra_gries(_read(sf_dir, "events", ["user_id"]),
                       "user_id", k=16)


QUERIES["heavy_users_misra_gries"] = heavy_users_misra_gries


def table_checksum_orders(sf_dir: str):
    """Order-independent distributed TABLE CHECKSUM — the
    reconciliation primitive for verifying two pipelines / two
    engines / a migration produced the same rows without moving them:
    one streaming pass hashes each row's canonical string
    (key|key|cents, vectorized FNV-1a + splitmix64) and wrap-sums the
    digests mod 2^64, a commutative fold, so block order / layout /
    partitioning can't change the answer. Each block forwards ONE
    uint64 partial; the driver folds python ints. Hash-checked
    bit-for-bit vs the recursive-FNV + splitmix + HUGEINT-sum mirror."""
    from tldr_ray.hashing import fnv1a_batch
    from tldr_ray.stages.dedup import _mix64

    def partial(batch: pa.Table) -> pa.Table:
        s = pc.binary_join_element_wise(
            pc.cast(batch["o_orderkey"], pa.string()),
            pc.cast(batch["o_custkey"], pa.string()),
            pc.cast(pa.array(_cents(np.asarray(
                batch["o_totalprice"], dtype=np.float64))), pa.string()),
            "|")
        h = _mix64(fnv1a_batch(s))
        return pa.table({
            "part_sum": pa.array([h.sum(dtype=np.uint64)],
                                 pa.uint64()),
            "part_n": pa.array([len(h)], pa.int64())})

    parts = (_read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_totalprice"])
             .map_batches(partial, batch_format="pyarrow").to_pandas())
    total = sum(int(x) for x in parts["part_sum"]) % (1 << 64)
    return pa.table({
        "checksum": pa.array([str(total)], pa.string()),
        "n_rows": pa.array([int(parts["part_n"].sum())], pa.int64())})


QUERIES["table_checksum_orders"] = table_checksum_orders
ORACLE_SQL["table_checksum_orders"] = f"""
    WITH RECURSIVE {_sql_fnv_cte(
        "SELECT CAST(o_orderkey AS VARCHAR) || '|' || "
        "CAST(o_custkey AS VARCHAR) || '|' || "
        "CAST(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) "
        "AS VARCHAR) AS s FROM orders")},
    {_sql_splitmix_ctes("hh")}
    SELECT CAST(CAST(sum(h) % {_SQL_M64} AS HUGEINT) AS VARCHAR)
               AS checksum,
           CAST(count(*) AS BIGINT) AS n_rows
    FROM m3
"""


def csv_roundtrip_events(sf_dir: str):
    """CSV source+sink fidelity end to end: events stream to sharded
    CSV (quoted JSON props and all) and back, with EVERY column's
    values hash-checked against the original table — doubles survive
    because Arrow's CSV writer emits shortest-round-trip decimals.
    The one lossy edge is the timestamp dtype (CSV re-parses to ns);
    cast back to us before returning."""
    import hashlib
    import shutil

    import ray.data as rd

    key = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    out = f"/tmp/tldr_ray_csv/{key}"
    shutil.rmtree(out, ignore_errors=True)
    _read(sf_dir, "events").write_csv(out)

    def seal(batch: pa.Table) -> pa.Table:
        i = batch.schema.get_field_index("ts")
        return batch.set_column(i, "ts",
                                batch["ts"].cast(pa.timestamp("us")))

    return rd.read_csv(out).map_batches(seal, batch_format="pyarrow")


QUERIES["csv_roundtrip_events"] = csv_roundtrip_events
ORACLE_SQL["csv_roundtrip_events"] = """
    SELECT event_id, ts, user_id, event_type, value, props FROM events
"""


def jsonl_roundtrip_events(sf_dir: str):
    """JSONL source+sink round-trip: floats and timestamps are NOT
    json-exact (Ray's writer goes through python repr and epoch ints),
    so the canonical-form contract is integers — value as exact cents,
    ts as epoch-us — under which the round-trip hash-checks every
    column. The practical shape for landing-zone JSONL interchange."""
    import hashlib
    import shutil

    import ray.data as rd

    key = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    out = f"/tmp/tldr_ray_jsonl/{key}"
    shutil.rmtree(out, ignore_errors=True)

    def canon(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": batch["event_id"].cast(pa.int64()),
            "ts_us": batch["ts"].cast(pa.int64()),
            "user_id": batch["user_id"].cast(pa.int64()),
            "event_type": batch["event_type"],
            "value_cents": pa.array(_cents(np.asarray(
                batch["value"], dtype=np.float64))),
            "props": batch["props"]})

    (_read(sf_dir, "events")
     .map_batches(canon, batch_format="pyarrow").write_json(out))
    return rd.read_json(out)


QUERIES["jsonl_roundtrip_events"] = jsonl_roundtrip_events
ORACLE_SQL["jsonl_roundtrip_events"] = """
    SELECT event_id, epoch_us(ts) AS ts_us, user_id, event_type,
           CAST(floor(value * 100 + 0.5) AS BIGINT) AS value_cents,
           props
    FROM events
"""


def latest_event_per_user(sf_dir: str):
    """Dedup-by-key-keep-LATEST (the CDC/compaction primitive distinct
    from merge_upsert's change application): one coarse sweep on
    hash(user), per-task sort (user, ts, event_id) + segment-END
    gather — no per-key invocations. event_id breaks same-microsecond
    ties exactly like the mirror's row_number order."""
    def sweep(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"],
                          kind="mergesort")
        u = g["user_id"].to_numpy()
        last = np.empty(len(g), dtype=bool)
        if len(g):
            last[:-1] = u[1:] != u[:-1]
            last[-1] = True
        out = g[last]
        return pd.DataFrame({
            "user_id": out["user_id"].to_numpy(),
            "event_id": out["event_id"].to_numpy(),
            "ts": out["ts"].to_numpy(),
            "event_type": pd.Series(out["event_type"].to_numpy(),
                                    dtype=object),
            "value": out["value"].to_numpy()})

    return keyed_sweep(
        _read(sf_dir, "events",
              ["user_id", "event_id", "ts", "event_type", "value"]),
        "user_id", sweep)


QUERIES["latest_event_per_user"] = latest_event_per_user
ORACLE_SQL["latest_event_per_user"] = """
    SELECT user_id, event_id, ts, event_type, value
    FROM (SELECT user_id, event_id, ts, event_type, value,
                 row_number() OVER (PARTITION BY user_id
                                    ORDER BY ts DESC, event_id DESC)
                     AS rn
          FROM events)
    WHERE rn = 1
"""


def boilerplate_ngrams_docs(sf_dir: str):
    """Cross-document repeated word-5-gram report (stages.
    text_analysis.boilerplate_ngrams — the CCNet-style boilerplate
    signal): grams in >= 2 distinct docs with doc + occurrence
    counts, exact ints, hash-checked vs the positional-window GROUP
    BY mirror."""
    from tldr_ray.stages.text_analysis import boilerplate_ngrams

    return boilerplate_ngrams(
        _read(sf_dir, "documents", ["doc_id", "text"]),
        k=5, min_docs=2)


QUERIES["boilerplate_ngrams_docs"] = boilerplate_ngrams_docs
ORACLE_SQL["boilerplate_ngrams_docs"] = """
    WITH t AS (
        SELECT doc_id,
               list_filter(regexp_split_to_array(text, '\\s+'),
                           x -> x != '') AS a
        FROM documents),
    g AS (SELECT doc_id,
                 a[i] || ' ' || a[i+1] || ' ' || a[i+2] || ' '
                      || a[i+3] || ' ' || a[i+4] AS gram
          FROM t, unnest(generate_series(1, len(a) - 4)) AS u(i))
    SELECT gram,
           CAST(count(DISTINCT doc_id) AS BIGINT) AS n_docs,
           CAST(count(*) AS BIGINT) AS n_occ
    FROM g GROUP BY gram HAVING count(DISTINCT doc_id) >= 2
"""


def custkeys_intersect_all(sf_dir: str):
    """Multiset INTERSECT ALL (stages.joins.multiset_op): order
    custkeys ∩ event user ids WITH multiplicity min(c_orders,
    c_events) — bag semantics the distinct set_op path can't express;
    only per-value counts ever move."""
    from tldr_ray.stages.joins import multiset_op

    return multiset_op(_read(sf_dir, "orders", ["o_custkey"]),
                       _read(sf_dir, "events", ["user_id"]),
                       "o_custkey", "user_id", op="intersect_all",
                       out_col="custkey")


QUERIES["custkeys_intersect_all"] = custkeys_intersect_all
ORACLE_SQL["custkeys_intersect_all"] = """
    SELECT o_custkey AS custkey FROM orders
    INTERSECT ALL
    SELECT user_id FROM events
"""


def custkeys_except_all(sf_dir: str):
    """Multiset EXCEPT ALL: order custkeys minus event user ids with
    multiplicity max(c_orders - c_events, 0)."""
    from tldr_ray.stages.joins import multiset_op

    return multiset_op(_read(sf_dir, "orders", ["o_custkey"]),
                       _read(sf_dir, "events", ["user_id"]),
                       "o_custkey", "user_id", op="except_all",
                       out_col="custkey")


QUERIES["custkeys_except_all"] = custkeys_except_all
ORACLE_SQL["custkeys_except_all"] = """
    SELECT o_custkey AS custkey FROM orders
    EXCEPT ALL
    SELECT user_id FROM events
"""


def user_event_path_strings(sf_dir: str):
    """Grouped ORDERED string concatenation (SQL string_agg ... ORDER
    BY): each user's full event-type journey as one '>'-joined string
    — the sequence-mining export shape. One coarse sweep on
    hash(user); the per-task segment join is object-string work
    bounded by OUTPUT size (one string per user), with (ts, event_id)
    fixing the order deterministically on both sides."""
    def sweep(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"],
                          kind="mergesort")
        agg = g.groupby("user_id", sort=True)["event_type"] \
            .agg(">".join)
        return pd.DataFrame({
            "user_id": agg.index.to_numpy(np.int64),
            "path": pd.Series(agg.to_numpy(), dtype=object),
            "n_events": g.groupby("user_id", sort=True)["event_type"]
            .size().to_numpy(np.int64)})

    return keyed_sweep(
        _read(sf_dir, "events",
              ["user_id", "ts", "event_id", "event_type"]),
        "user_id", sweep)


QUERIES["user_event_path_strings"] = user_event_path_strings
ORACLE_SQL["user_event_path_strings"] = """
    SELECT user_id,
           string_agg(event_type, '>' ORDER BY ts, event_id) AS path,
           CAST(count(*) AS BIGINT) AS n_events
    FROM events GROUP BY user_id
"""


def dayover_user_overlap(sf_dir: str):
    """Day-over-day active-user-set overlap (the retention/churn
    signal): for every consecutive day pair, |A∩B|, |A|, |B| and the
    Jaccard — computed WITHOUT a self-join: (day, user) distinct
    rows take ONE coarse shuffle on hash(user), each task counts
    consecutive-day pairs per user segment as an index shift, and a
    tiny per-day groupby finishes. The sizes join is dimension-sized
    (one row per day). Jaccard = one IEEE division, hash-matched."""
    from ray.data.aggregate import Sum

    DAY = np.int64(86_400_000_000)

    def prep(batch: pa.Table) -> pa.Table:
        us = np.asarray(batch["ts"].cast(pa.int64()), dtype=np.int64)
        u = np.asarray(batch["user_id"], dtype=np.int64)
        d = us // DAY
        # per-batch distinct (user, day) pre-combine
        order = np.lexsort((d, u))
        u, d = u[order], d[order]
        first = np.empty(u.size, dtype=bool)
        if u.size:
            first[0] = True
            first[1:] = (u[1:] != u[:-1]) | (d[1:] != d[:-1])
        u, d = u[first], d[first]
        return pa.table({
            "u": pa.array(u), "d": pa.array(d)})

    def sweep(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["u", "d"]).sort_values(
            ["u", "d"], kind="mergesort")
        u = g["u"].to_numpy(np.int64)
        d = g["d"].to_numpy(np.int64)
        same = np.zeros(len(g), dtype=bool)
        if len(g) > 1:
            same[:-1] = (u[1:] == u[:-1]) & (d[1:] == d[:-1] + 1)
        day = d[same]                       # earlier day of the pair
        if day.size:
            vals, cnts = np.unique(day, return_counts=True)
        else:
            vals = np.zeros(0, np.int64)
            cnts = np.zeros(0, np.int64)
        return pd.DataFrame({"day": vals,
                             "inter": cnts.astype(np.int64)})

    prepped = (_read(sf_dir, "events", ["user_id", "ts"])
               .map_batches(prep, batch_format="pyarrow")
               .materialize())   # distinct-ish (u, d) rows, reused twice

    pairs = (keyed_sweep(prepped, "u", sweep)
             .groupby("day")
             .aggregate(Sum("inter", alias_name="inter"))
             .to_pandas())

    def sizes_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["u", "d"])
        vals, cnts = np.unique(g["d"].to_numpy(np.int64),
                               return_counts=True)
        return pd.DataFrame({"day": vals, "n": cnts.astype(np.int64)})

    sizes = (keyed_sweep(prepped, "d", sizes_part)
             .groupby("day").aggregate(Sum("n", alias_name="n"))
             .to_pandas())
    sz = dict(zip(sizes["day"].astype(np.int64),
                  sizes["n"].astype(np.int64)))
    day = pairs["day"].to_numpy(np.int64)
    inter = pairs["inter"].to_numpy(np.int64)
    n_a = np.array([sz[d] for d in day], np.int64)
    n_b = np.array([sz[d + 1] for d in day], np.int64)
    jac = inter.astype(np.float64) / (n_a + n_b - inter)
    return pa.table({
        "day": pa.array(day), "n_day": pa.array(n_a),
        "n_next": pa.array(n_b), "inter": pa.array(inter),
        "jaccard": pa.array(jac)})


QUERIES["dayover_user_overlap"] = dayover_user_overlap
ORACLE_SQL["dayover_user_overlap"] = """
    WITH ud AS (SELECT DISTINCT user_id,
                       epoch_us(ts) // 86400000000 AS day
                FROM events),
    sz AS (SELECT day, CAST(count(*) AS BIGINT) AS n
           FROM ud GROUP BY day),
    ov AS (SELECT a.day AS day, CAST(count(*) AS BIGINT) AS inter
           FROM ud a JOIN ud b
             ON a.user_id = b.user_id AND b.day = a.day + 1
           GROUP BY a.day)
    SELECT o.day AS day, sa.n AS n_day, sb.n AS n_next, o.inter,
           CAST(o.inter AS DOUBLE) / (sa.n + sb.n - o.inter)
               AS jaccard
    FROM ov o
    JOIN sz sa ON sa.day = o.day
    JOIN sz sb ON sb.day = o.day + 1
"""


def kll_value_quantiles(sf_dir: str):
    """Distribution-free mergeable quantile sketch over events.value
    (stages.sketches.KLLSketch — per-block sketches, O(k log n/k)
    floats move, driver merge; the no-known-range complement of the
    histogram-register quantiles). Rows-only by nature (approximate
    values depend on block boundaries); the pytest pins the rank-error
    bound on adversarial sorted input and the merge law."""
    from tldr_ray.stages.sketches import kll_quantiles

    return kll_quantiles(_read(sf_dir, "events", ["value"]),
                         "value", qs=(0.5, 0.9, 0.99), k=256)


QUERIES["kll_value_quantiles"] = kll_value_quantiles


def users_all_event_types(sf_dir: str):
    """RELATIONAL DIVISION (the FOR-ALL quantifier joins can't
    express): users who performed EVERY event type in the catalog.
    Distinct (user, type) pre-combined per batch, one grouped distinct
    count, exact integer comparison against the catalog size (itself a
    distinct count — no hardcoded 5)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def pre(batch: pa.Table) -> pa.Table:
        gp = (pa.table({"u": batch["user_id"].cast(pa.int64()),
                        "t": batch["event_type"]})
              .group_by(["u", "t"]).aggregate([]))
        u = np.asarray(gp["u"], dtype=np.int64)
        return pa.table({
            "u": pa.array(u), "t": gp["t"]})

    def sweep(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["u", "t"])
        vals, cnts = np.unique(g["u"].to_numpy(np.int64),
                               return_counts=True)
        return pd.DataFrame({"u": vals,
                             "n_types": cnts.astype(np.int64)})

    per_user = keyed_sweep(ds.map_batches(pre, batch_format="pyarrow"),
                           "u", sweep)
    n_catalog = ds.map_batches(
        lambda b: pa.table({"t": pa.table({"t": b["event_type"]})
                            .group_by("t").aggregate([])["t"]}),
        batch_format="pyarrow").groupby("t").count().count()

    def fin(batch: pa.Table) -> pa.Table:
        n = np.asarray(batch["n_types"], dtype=np.int64)
        keep = n == np.int64(n_catalog)
        return pa.table({
            "user_id": pa.array(np.asarray(batch["u"],
                                           np.int64)[keep]),
            "n_types": pa.array(n[keep])})

    return per_user.map_batches(fin, batch_format="pyarrow")


QUERIES["users_all_event_types"] = users_all_event_types
ORACLE_SQL["users_all_event_types"] = """
    SELECT user_id,
           CAST(count(DISTINCT event_type) AS BIGINT) AS n_types
    FROM events GROUP BY user_id
    HAVING count(DISTINCT event_type)
           = (SELECT count(DISTINCT event_type) FROM events)
"""


def abandoned_clicks(sf_dir: str):
    """NEGATIVE sequence pattern (the funnel complement): click events
    NOT followed by a purchase from the same user within one hour —
    abandonment detection. The earliest purchase at/after each click
    comes from the existing forward as-of machinery; the pattern is
    'no match OR match beyond the window', so the as-of join's null
    semantics carry the decision. Hash-checks clicks + the boolean
    vs a NOT-EXISTS mirror."""
    from tldr_ray.stages.joins import asof_join_forward

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts",
                                  "event_type"])

    def clicks(batch: pa.Table) -> pa.Table:
        m = np.asarray(pc.equal(batch["event_type"], "click"))
        return pa.table({
            "event_id": pa.array(np.asarray(batch["event_id"],
                                            np.int64)[m]),
            "user_id": pa.array(np.asarray(batch["user_id"],
                                           np.int64)[m]),
            "ts": batch["ts"].filter(pa.array(m))})

    def purchases(batch: pa.Table) -> pa.Table:
        m = np.asarray(pc.equal(batch["event_type"], "purchase"))
        return pa.table({
            "p_id": pa.array(np.asarray(batch["event_id"],
                                        np.int64)[m]),
            "p_user": pa.array(np.asarray(batch["user_id"],
                                          np.int64)[m]),
            "p_ts": batch["ts"].filter(pa.array(m))})

    def ren(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["p_id", "user_id", "p_ts"])

    ck = ev.map_batches(clicks, batch_format="pyarrow")
    pu = ev.map_batches(purchases, batch_format="pyarrow") \
        .map_batches(ren, batch_format="pyarrow")
    j = asof_join_forward(ck, pu, on="user_id", left_ts="ts",
                          right_ts="p_ts", tiebreak="p_id",
                          how="left")

    HOUR = np.int64(3_600_000_000)

    def decide(batch: pa.Table) -> pa.Table:
        # asof_join_forward returns both ts columns as int64 epoch-us;
        # unmatched LEFT rows carry a null p_id and a sentinel p_ts,
        # so match-presence reads off p_id validity
        ts = np.asarray(batch["ts"].cast(pa.int64()), np.int64)
        havep = np.asarray(pc.is_valid(batch["p_id"]))
        ptsv = np.asarray(batch["p_ts"].cast(pa.int64()).fill_null(0),
                          np.int64)
        abandoned = ~(havep & (ptsv <= ts + HOUR))
        return pa.table({
            "event_id": batch["event_id"].cast(pa.int64()),
            "user_id": batch["user_id"].cast(pa.int64()),
            "ts_us": pa.array(ts),
            "abandoned": pa.array(abandoned)})

    return j.map_batches(decide, batch_format="pyarrow")


QUERIES["abandoned_clicks"] = abandoned_clicks
ORACLE_SQL["abandoned_clicks"] = """
    SELECT e.event_id, e.user_id, epoch_us(e.ts) AS ts_us,
           NOT EXISTS (
               SELECT 1 FROM events p
               WHERE p.user_id = e.user_id
                 AND p.event_type = 'purchase'
                 AND p.ts >= e.ts
                 AND epoch_us(p.ts) <= epoch_us(e.ts) + 3600000000)
               AS abandoned
    FROM events e WHERE e.event_type = 'click'
"""


def hive_partitioned_clicks(sf_dir: str):
    """Hive-style partitioned LAYOUT end to end: events written
    key-partitioned (event_type=... dirs — the write-side cost that
    makes per-key scans free forever after), then ONLY the click
    partition's directory is opened — the other four partitions are
    never read, the layout-level complement of zone-map (range) and
    hash-index (point) pruning. The partition column reconstructs
    from the directory key; every column hash-checks vs the plain
    filter."""
    import hashlib
    import shutil

    import ray.data as rd

    key = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    out = f"/tmp/tldr_ray_hive/{key}"
    shutil.rmtree(out, ignore_errors=True)
    _read(sf_dir, "events").write_parquet(
        out, partition_cols=["event_type"])
    back = rd.read_parquet(f"{out}/event_type=click")

    def seal(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": batch["event_id"].cast(pa.int64()),
            "ts": batch["ts"],
            "user_id": batch["user_id"].cast(pa.int64()),
            "event_type": batch["event_type"].cast(pa.string()),
            "value": batch["value"],
            "props": batch["props"]})

    return back.map_batches(seal, batch_format="pyarrow")


QUERIES["hive_partitioned_clicks"] = hive_partitioned_clicks
ORACLE_SQL["hive_partitioned_clicks"] = """
    SELECT event_id, ts, user_id, event_type, value, props
    FROM events WHERE event_type = 'click'
"""


def bucketed_layout_join_orders(sf_dir: str):
    """SHUFFLE-FREE storage-layout join (stages.joins.
    bucket_layout_join — Hive bucketed-join semantics): orders and
    customer both written hash-bucketed on custkey
    (sinks.build_hash_index, same bucket count + hash), then joined
    by zipping bucket PAIRS — no exchange at query time; the layout
    paid the shuffle once at write. Hash-checks every joined row vs
    the plain SQL join."""
    import hashlib
    import shutil

    from tldr_ray.sinks import build_hash_index
    from tldr_ray.stages.joins import bucket_layout_join

    key = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    base = f"/tmp/tldr_ray_bljoin/{key}"
    shutil.rmtree(base, ignore_errors=True)

    def ren(batch: pa.Table) -> pa.Table:
        return pa.table({
            "custkey": batch["c_custkey"].cast(pa.int64()),
            "c_mktsegment": batch["c_mktsegment"],
            "c_acctbal": batch["c_acctbal"]})

    def oren(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": batch["o_orderkey"].cast(pa.int64()),
            "custkey": batch["o_custkey"].cast(pa.int64()),
            "o_totalprice": batch["o_totalprice"]})

    build_hash_index(
        _read(sf_dir, "orders",
              ["o_orderkey", "o_custkey", "o_totalprice"])
        .map_batches(oren, batch_format="pyarrow"),
        f"{base}/orders", "custkey", num_buckets=32)
    build_hash_index(
        _read(sf_dir, "customer",
              ["c_custkey", "c_mktsegment", "c_acctbal"])
        .map_batches(ren, batch_format="pyarrow"),
        f"{base}/customer", "custkey", num_buckets=32)
    return bucket_layout_join(f"{base}/orders", f"{base}/customer",
                              on="custkey")


QUERIES["bucketed_layout_join_orders"] = bucketed_layout_join_orders
ORACLE_SQL["bucketed_layout_join_orders"] = """
    SELECT o_orderkey, o_custkey AS custkey, o_totalprice,
           c_mktsegment, c_acctbal
    FROM orders JOIN customer ON o_custkey = c_custkey
"""


def dbscan_embeddings_clusters(sf_dir: str):
    """Density-based clustering over the embeddings table
    (stages.ann.dbscan_embeddings — LSH eps-neighbor pairs -> core
    points by degree -> CC over the core-core graph -> border
    attachment; the SemDeDup-style curation shape). Rows-only (LSH
    blocking recall); the pytest pins planted Gaussian blobs
    recovered against uniform noise. NOTE the driver's synthetic
    embeddings are isotropic (same-label mean cosine ~0, measured), so
    the all-noise labeling this returns on them IS the correct
    answer — density structure is exercised by the pytest fixture."""
    from tldr_ray.stages.ann import dbscan_embeddings

    return dbscan_embeddings(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        cos_eps=0.92, min_pts=3)


QUERIES["dbscan_embeddings_clusters"] = dbscan_embeddings_clusters


def schema_evolution_orders(sf_dir: str):
    """SCHEMA EVOLUTION end to end (sources.tabular.read_evolved):
    two layout versions of orders — v1 written before o_orderpriority
    existed (even orderkeys), v2 with it (odd) — load as ONE dataset
    on the union schema, v1 rows null-filling the column they
    predate (Iceberg/Delta add-column semantics). Hash-checks every
    row incl. the nulls vs a CASE mirror."""
    import hashlib
    import shutil

    from tldr_ray.sources.tabular import read_evolved

    key = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    base = f"/tmp/tldr_ray_evolve/{key}"
    shutil.rmtree(base, ignore_errors=True)
    ds = _read(sf_dir, "orders",
               ["o_orderkey", "o_totalprice", "o_orderpriority"])

    def v1(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch["o_orderkey"], dtype=np.int64)
        m = pa.array(k % 2 == 0)
        return pa.table({
            "o_orderkey": batch["o_orderkey"].filter(m),
            "o_totalprice": batch["o_totalprice"].filter(m)})

    def v2(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch["o_orderkey"], dtype=np.int64)
        m = pa.array(k % 2 == 1)
        return batch.filter(m)

    ds.map_batches(v1, batch_format="pyarrow").write_parquet(
        f"{base}/v1")
    ds.map_batches(v2, batch_format="pyarrow").write_parquet(
        f"{base}/v2")
    return read_evolved([f"{base}/v1", f"{base}/v2"])


QUERIES["schema_evolution_orders"] = schema_evolution_orders
ORACLE_SQL["schema_evolution_orders"] = """
    SELECT o_orderkey, o_totalprice,
           CASE WHEN o_orderkey % 2 = 0 THEN NULL
                ELSE o_orderpriority END AS o_orderpriority
    FROM orders
"""


def winsorized_value_sums(sf_dir: str):
    """Per-group WINSORIZATION (robust-stats cousin of the IQR/MAD
    outlier family): clamp each event's value to its type's [p5, p95]
    discrete quantiles — exact order statistics from the value-counts
    sweep, broadcast back, vectorized least/greatest — then exact
    clamped cent sums per type. Everything integer or an actual
    element; hash-checks against quantile_disc + least/greatest."""
    import ray
    from ray.data.aggregate import Count, Sum

    from tldr_ray.stages.agg import grouped_quantiles

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def cents(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": batch["event_type"],
            "c": pa.array(_cents(np.asarray(batch["value"],
                                            dtype=np.float64)))})

    base = ds.map_batches(cents, batch_format="pyarrow").materialize()
    q = grouped_quantiles(base, "event_type", "c",
                          qs=(0.05, 0.95)).to_pandas()
    ref = ray.put((q["event_type"].tolist(),
                   q["p5"].to_numpy(np.int64),
                   q["p95"].to_numpy(np.int64)))

    def clamp(batch: pa.Table) -> pa.Table:
        types, lov_t, hiv_t = ray.get(ref)
        idx = np.asarray(pc.index_in(
            batch["event_type"],
            value_set=pa.array(types, pa.string())), dtype=np.int64)
        c = np.asarray(batch["c"], dtype=np.int64)
        lov, hiv = lov_t[idx], hiv_t[idx]
        return pa.table({
            "event_type": batch["event_type"],
            "w": pa.array(np.minimum(np.maximum(c, lov), hiv))})

    return (base.map_batches(clamp, batch_format="pyarrow")
            .groupby("event_type")
            .aggregate(Sum("w", alias_name="winsorized_cents"),
                       Count(alias_name="n_events")))


QUERIES["winsorized_value_sums"] = winsorized_value_sums
ORACLE_SQL["winsorized_value_sums"] = """
    WITH c AS (SELECT event_type,
                      CAST(floor(value * 100 + 0.5) AS BIGINT) AS c
               FROM events),
    q AS (SELECT event_type,
                 quantile_disc(c, 0.05) AS lo,
                 quantile_disc(c, 0.95) AS hi
          FROM c GROUP BY event_type)
    SELECT c.event_type,
           CAST(sum(least(greatest(c.c, q.lo), q.hi)) AS BIGINT)
               AS winsorized_cents,
           CAST(count(*) AS BIGINT) AS n_events
    FROM c JOIN q ON q.event_type = c.event_type
    GROUP BY c.event_type
"""


def jw_name_pairs(sf_dir: str):
    """Jaro-Winkler-scored similarity join: the FastSS
    edit-distance-1 candidate pairs re-scored with the gated Winkler
    prefix boost (kernel.distance.jaro_winkler — fuzz-pinned
    bit-equal to DuckDB's jaro_winkler_similarity, so the float
    scores hash-match). Scoring is per-pair on the verified
    candidate set only (19.5k pairs at sf0.01), never the corpus."""
    from tldr_ray.kernel.distance import jaro_winkler
    from tldr_ray.stages.dedup import edit_distance_pairs

    pairs = edit_distance_pairs(
        _read(sf_dir, "customer", ["c_name"]), col="c_name")

    def score(batch: pa.Table) -> pa.Table:
        w1 = batch["w1"].to_pylist()
        w2 = batch["w2"].to_pylist()
        return pa.table({
            "w1": batch["w1"], "w2": batch["w2"],
            "jw": pa.array([jaro_winkler(a, b)
                            for a, b in zip(w1, w2)],
                           pa.float64())})

    return pairs.map_batches(score, batch_format="pyarrow")


QUERIES["jw_name_pairs"] = jw_name_pairs
ORACLE_SQL["jw_name_pairs"] = """
    WITH v AS (SELECT DISTINCT c_name AS w FROM customer)
    SELECT a.w AS w1, b.w AS w2,
           jaro_winkler_similarity(a.w, b.w) AS jw
    FROM v a JOIN v b
      ON a.w < b.w
     AND abs(length(a.w) - length(b.w)) <= 1
     AND levenshtein(a.w, b.w) = 1
"""


def click_to_purchase_latency(sf_dir: str):
    """Conversion-latency percentiles (the funnel-latency companion to
    abandoned_clicks): per click, the time to the user's EARLIEST
    at-or-after purchase (forward as-of), then exact discrete
    latency quantiles — deltas are integer microseconds, the order
    statistics actual elements, so everything hash-matches. Ties on
    purchase ts give identical deltas, so the mirror's tie order is
    irrelevant."""
    from tldr_ray.stages.agg import grouped_quantiles
    from tldr_ray.stages.joins import asof_join_forward

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts",
                                  "event_type"])

    def side(tp: str, prefix: str):
        def fn(batch: pa.Table) -> pa.Table:
            m = np.asarray(pc.equal(batch["event_type"], tp))
            return pa.table({
                f"{prefix}id": pa.array(np.asarray(
                    batch["event_id"], np.int64)[m]),
                "user_id" if prefix == "" else "p_user":
                    pa.array(np.asarray(batch["user_id"],
                                        np.int64)[m]),
                f"{prefix}ts": batch["ts"].filter(pa.array(m))})
        return fn

    ck = ev.map_batches(side("click", ""), batch_format="pyarrow")

    def pren(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["p_id", "user_id", "p_ts"])

    pu = ev.map_batches(side("purchase", "p_"),
                        batch_format="pyarrow") \
        .map_batches(pren, batch_format="pyarrow")
    j = asof_join_forward(ck, pu, on="user_id", left_ts="ts",
                          right_ts="p_ts", tiebreak="p_id",
                          how="inner")

    def delta(batch: pa.Table) -> pa.Table:
        ts = np.asarray(batch["ts"].cast(pa.int64()), np.int64)
        pts = np.asarray(batch["p_ts"].cast(pa.int64()), np.int64)
        return pa.table({
            "g": pa.array(np.zeros(ts.size, np.int64)),
            "d": pa.array(pts - ts)})

    deltas = j.map_batches(delta, batch_format="pyarrow").materialize()
    n = deltas.count()
    q = grouped_quantiles(deltas, "g", "d",
                          qs=(0.25, 0.5, 0.75)).to_pandas()
    return pa.table({
        "n_converted": pa.array([int(n)], pa.int64()),
        "p25_us": pa.array([int(q["p25"].iloc[0])], pa.int64()),
        "p50_us": pa.array([int(q["p50"].iloc[0])], pa.int64()),
        "p75_us": pa.array([int(q["p75"].iloc[0])], pa.int64())})


QUERIES["click_to_purchase_latency"] = click_to_purchase_latency
ORACLE_SQL["click_to_purchase_latency"] = """
    WITH c AS (SELECT event_id, user_id, ts FROM events
               WHERE event_type = 'click'),
    p AS (SELECT user_id, ts FROM events
          WHERE event_type = 'purchase'),
    j AS (SELECT c.event_id,
                 epoch_us(p.ts) - epoch_us(c.ts) AS d,
                 row_number() OVER (PARTITION BY c.event_id
                                    ORDER BY p.ts) AS rn
          FROM c JOIN p ON p.user_id = c.user_id AND p.ts >= c.ts)
    SELECT CAST(count(*) AS BIGINT) AS n_converted,
           CAST(quantile_disc(d, 0.25) AS BIGINT) AS p25_us,
           CAST(quantile_disc(d, 0.5) AS BIGINT) AS p50_us,
           CAST(quantile_disc(d, 0.75) AS BIGINT) AS p75_us
    FROM j WHERE rn = 1
"""


def doc_length_log_histogram(sf_dir: str):
    """Log2-bucketed document-length histogram per language (the
    power-law profile every curation dashboard wants): bucket =
    bit_length(n_chars), computed EXACTLY and vectorized via
    np.frexp's binary exponent (int -> float64 is exact below 2^53,
    frexp is exact, so no log2-at-boundary misrounding); the mirror
    counts binary-string digits (length(printf('%b', n))) — two
    different exact formulations of the same integer."""
    from ray.data.aggregate import Count

    def prep(batch: pa.Table) -> pa.Table:
        v = np.asarray(batch["n_chars"], dtype=np.int64)
        b = np.frexp(np.maximum(v, 1).astype(np.float64))[1]
        return pa.table({"lang": batch["lang"],
                         "bucket": pa.array(b.astype(np.int64))})

    return (_read(sf_dir, "documents", ["lang", "n_chars"])
            .map_batches(prep, batch_format="pyarrow")
            .groupby(["lang", "bucket"])
            .aggregate(Count(alias_name="n_docs")))


QUERIES["doc_length_log_histogram"] = doc_length_log_histogram
ORACLE_SQL["doc_length_log_histogram"] = """
    SELECT lang,
           CAST(length(printf('%b', greatest(n_chars, 1)))
                AS BIGINT) AS bucket,
           CAST(count(*) AS BIGINT) AS n_docs
    FROM documents GROUP BY 1, 2
"""


def events_by_weekday(sf_dir: str):
    """Calendar profile: exact event counts and cent sums per weekday,
    the day-of-week derived PURELY arithmetically on both sides
    ((epoch_days + 4) % 7, anchored to 1970-01-01 = Thursday) so no
    engine calendar/locale/timezone machinery can disagree."""
    from ray.data.aggregate import Count, Sum

    DAY = np.int64(86_400_000_000)

    def prep(batch: pa.Table) -> pa.Table:
        us = np.asarray(batch["ts"].cast(pa.int64()), dtype=np.int64)
        return pa.table({
            "weekday": pa.array((us // DAY + 4) % 7),
            "cents": pa.array(_cents(np.asarray(
                batch["value"], dtype=np.float64)))})

    return (_read(sf_dir, "events", ["ts", "value"])
            .map_batches(prep, batch_format="pyarrow")
            .groupby("weekday")
            .aggregate(Count(alias_name="n_events"),
                       Sum("cents", alias_name="cents")))


QUERIES["events_by_weekday"] = events_by_weekday
ORACLE_SQL["events_by_weekday"] = """
    SELECT (epoch_us(ts) // 86400000000 + 4) % 7 AS weekday,
           CAST(count(*) AS BIGINT) AS n_events,
           CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT))
                AS BIGINT) AS cents
    FROM events GROUP BY 1
"""


def event_rate_cusum(sf_dir: str):
    """Per-type CUSUM change-point monitor over the hourly event rate
    (Page 1954 — the sequential-detection complement of the 3-hour
    spike heuristic): S_t = max(0, S_{t-1} + n_t - k) with per-type
    drift k = ceil(mean hourly count), all exact int64, computed as
    ONE coarse shuffle + segment sweep in stages.windows.cusum_scan
    (closed form S_t = P_t - min(0, running-min P)). Alarm at
    S > 3*k. The per-type drift map is O(#event_types) driver state —
    dimension-sized by schema. Every hour is emitted (alarms and
    non-alarms) so the oracle hash covers each decision."""
    from ray.data.aggregate import Count

    from tldr_ray.stages.joins import lookup
    from tldr_ray.stages.windows import cusum_scan

    def bucket(batch: pa.Table) -> pa.Table:
        us = np.asarray(batch["ts"].cast(pa.int64()), dtype=np.int64)
        return pa.table({
            "event_type": batch["event_type"],
            "hour_key": pa.array(us // 3_600_000_000)})

    from ray.data.aggregate import Sum

    # aggregate-sized (types x observed hours) — materialize once so
    # the drift pass and the scan don't re-run the event read
    hourly = (_read(sf_dir, "events", ["ts", "event_type"])
              .map_batches(bucket, batch_format="pyarrow")
              .groupby(["event_type", "hour_key"])
              .aggregate(Count(alias_name="n"))
              .materialize())

    def drift(batch: pa.Table) -> pa.Table:
        h = np.asarray(batch["hours"], dtype=np.int64)
        tot = np.asarray(batch["tot"], dtype=np.int64)
        return pa.table({"event_type": batch["event_type"],
                         "k": pa.array((tot + h - 1) // h)})

    k_map = hourly.groupby("event_type").aggregate(
        Count(alias_name="hours"), Sum("n", alias_name="tot")) \
        .map_batches(drift, batch_format="pyarrow")
    scanned = cusum_scan(lookup(hourly, k_map, "event_type"),
                         "event_type", "hour_key", "n", "k")

    def seal(batch: pa.Table) -> pa.Table:
        s = np.asarray(batch["cusum"], dtype=np.int64)
        k = np.asarray(batch["k"], dtype=np.int64)
        return pa.table({
            "event_type": batch["event_type"],
            "hour_key": batch["hour_key"].cast(pa.int64()),
            "n": batch["n"].cast(pa.int64()),
            "cusum": pa.array(s),
            "is_alarm": pa.array(s > 3 * k)})

    return scanned.map_batches(seal, batch_format="pyarrow")


QUERIES["event_rate_cusum"] = event_rate_cusum
ORACLE_SQL["event_rate_cusum"] = """
    WITH hc AS (
        SELECT event_type,
               epoch_us(ts) // 3600000000 AS hour_key,
               count(*) AS n
        FROM events GROUP BY 1, 2),
    drift AS (
        SELECT event_type,
               (sum(n) + count(*) - 1) // count(*) AS k
        FROM hc GROUP BY 1),
    p AS (
        SELECT h.event_type, h.hour_key, h.n, d.k,
               CAST(sum(h.n - d.k) OVER (
                    PARTITION BY h.event_type ORDER BY h.hour_key)
                    AS BIGINT) AS pf
        FROM hc h JOIN drift d USING (event_type)),
    m AS (
        SELECT *, LEAST(CAST(0 AS BIGINT),
                        CAST(min(pf) OVER (
                             PARTITION BY event_type
                             ORDER BY hour_key) AS BIGINT)) AS runmin
        FROM p)
    SELECT event_type, CAST(hour_key AS BIGINT) AS hour_key,
           CAST(n AS BIGINT) AS n,
           CAST(pf - runmin AS BIGINT) AS cusum,
           (pf - runmin) > 3 * k AS is_alarm
    FROM m
"""


def value_auc_purchase(sf_dir: str):
    """Distributed AUC (Mann-Whitney) with exact tie handling — the
    model-eval primitive: does the value column rank purchases above
    other events? Score = integer cents (ties merge identically on
    both sides). One streaming pass pre-combines per-block
    (score, count, positives) value-counts, ONE grouped sum over
    distinct scores, then the O(#distinct cents) selection frame runs
    the prefix scan (the exact_median discipline — bounded by the
    price domain, not the row count). Rank algebra stays integer:
    2*ranksum = sum p*(2*cum_before + c + 1); AUC is ONE final double
    division of exact ints (every intermediate < 2^53 at bench
    scales)."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        c = _cents(np.asarray(batch["value"], dtype=np.float64))
        pos = (np.asarray(batch["event_type"])
               == "purchase").astype(np.int64)
        t = pa.table({"s": pa.array(c, pa.int64()),
                      "pos": pa.array(pos, pa.int64())})
        g = t.group_by("s").aggregate([("pos", "sum"), ("s", "count")])
        return pa.table({"s": g["s"],
                         "p": g["pos_sum"].cast(pa.int64()),
                         "c": g["s_count"].cast(pa.int64())})

    vc = (_read(sf_dir, "events", ["event_type", "value"])
          .map_batches(partial, batch_format="pyarrow")
          .groupby("s")
          .aggregate(Sum("p", alias_name="ps"),
                     Sum("c", alias_name="cs"))
          .to_pandas())
    from tldr_ray.stages.agg import auc_from_value_counts

    num2, P, N, auc = auc_from_value_counts(
        vc["s"].to_numpy(np.int64), vc["cs"].to_numpy(np.int64),
        vc["ps"].to_numpy(np.int64))
    return pa.table({
        "n_pos": pa.array([P], pa.int64()),
        "n_neg": pa.array([N], pa.int64()),
        "num2": pa.array([num2], pa.int64()),
        "auc": pa.array([float(auc)], pa.float64())})


QUERIES["value_auc_purchase"] = value_auc_purchase
ORACLE_SQL["value_auc_purchase"] = """
    WITH vc AS (
        SELECT CAST(floor(value * 100 + 0.5) AS BIGINT) AS s,
               count(*) AS c,
               count(*) FILTER (WHERE event_type = 'purchase') AS p
        FROM events GROUP BY 1),
    o AS (
        SELECT s, CAST(c AS BIGINT) AS c, CAST(p AS BIGINT) AS p,
               CAST(COALESCE(sum(c) OVER (
                    ORDER BY s ROWS BETWEEN UNBOUNDED PRECEDING
                    AND 1 PRECEDING), 0) AS BIGINT) AS cumb
        FROM vc),
    agg AS (
        SELECT CAST(sum(p * (2 * cumb + c + 1)) AS BIGINT) AS r2,
               CAST(sum(p) AS BIGINT) AS npos,
               CAST(sum(c - p) AS BIGINT) AS nneg
        FROM o)
    SELECT npos AS n_pos, nneg AS n_neg,
           CAST(r2 - npos * (npos + 1) AS BIGINT) AS num2,
           CAST(r2 - npos * (npos + 1) AS DOUBLE)
               / (2.0 * npos * nneg) AS auc
    FROM agg
"""


def txlog_orders_snapshot(sf_dir: str):
    """Transaction-log table format end to end (state.txlog — the
    Delta-shaped file-level commit log): orders land as three APPEND
    commits (one per o_orderkey % 3 slice — each touches only its new
    files + one JSON log entry), a COMPACT commit swaps the snapshot
    to consolidated files as pure metadata, and the final read streams
    exactly the active file set. The aggregate over the latest
    snapshot must equal plain SQL over the source table — which pins
    the whole add/remove fold, the atomic link(2) commit protocol and
    the compaction's rows-preserved contract in one hash."""
    import tempfile

    from ray.data.aggregate import Count, Sum

    from tldr_ray.state.txlog import (txlog_append, txlog_compact,
                                      txlog_read)

    base = _read(sf_dir, "orders",
                 ["o_orderkey", "o_orderstatus", "o_totalprice"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": batch["o_orderkey"].cast(pa.int64()),
            "o_orderstatus": batch["o_orderstatus"],
            "cents": pa.array(_cents(np.asarray(
                batch["o_totalprice"], dtype=np.float64)), pa.int64())})

    prepped = base.map_batches(prep, batch_format="pyarrow")

    def slice_of(r):
        def fn(batch: pa.Table) -> pa.Table:
            k = np.asarray(batch["o_orderkey"], dtype=np.int64)
            return batch.filter(pa.array(k % 3 == r))
        return fn

    with tempfile.TemporaryDirectory() as tmp:
        td = f"{tmp}/orders_tx"
        for r in range(3):
            txlog_append(
                prepped.map_batches(slice_of(r),
                                    batch_format="pyarrow"), td)
        txlog_compact(td, target_rows_per_file=1_000_000)
        return (txlog_read(td)
                .groupby("o_orderstatus")
                .aggregate(Count(alias_name="n"),
                           Sum("cents", alias_name="cents"))
                .materialize())


QUERIES["txlog_orders_snapshot"] = txlog_orders_snapshot
ORACLE_SQL["txlog_orders_snapshot"] = """
    SELECT o_orderstatus, CAST(count(*) AS BIGINT) AS n,
           CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))
                AS BIGINT) AS cents
    FROM orders GROUP BY 1
"""


def cluster_aware_split_docs(sf_dir: str):
    """Dedup-AWARE train/test split — the eval-integrity primitive: a
    near-duplicate pair crossing the split is silent test-set leakage,
    so the split key is the document's duplicate-CLUSTER id (MinHash
    pairs -> connected components, the dup_clusters_docs machinery;
    singletons key by their own doc_id) and every member of a cluster
    lands on the same side by construction. Assignment = splitmix64
    (cluster_id) < floor(0.8 * 2^64) as an INTEGER threshold — exact
    on both sides, layout-free, no RNG state. The cluster map is
    O(docs-in-dup-pairs) — sparse by the dedup regime and already
    behind resolve_clusters' counted gate."""
    import ray

    from tldr_ray.stages.dedup import (_mix64, minhash_lsh_pairs,
                                       resolve_clusters)

    T = np.uint64(((1 << 64) * 4) // 5)

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs = minhash_lsh_pairs(docs, threshold=0.5)
    cl = resolve_clusters(pairs)
    ck = np.sort(cl["id"].to_numpy(np.int64))
    cv = cl.set_index("id")["cluster_id"].loc[ck].to_numpy(np.int64)
    cref = ray.put((ck, cv))

    def assign(batch: pa.Table) -> pa.Table:
        ks, vs = ray.get(cref)
        ids = np.asarray(batch["doc_id"], dtype=np.int64)
        pos = np.searchsorted(ks, ids)
        pos = np.minimum(pos, max(ks.size - 1, 0))
        cluster = ids.copy()
        if ks.size:
            hit = ks[pos] == ids
            cluster[hit] = vs[pos[hit]]
        h = _mix64(cluster.astype(np.uint64))
        split = np.where(h < T, "train", "test")
        return pa.table({
            "doc_id": pa.array(ids),
            "cluster_id": pa.array(cluster),
            "split": pa.array(split.astype(object), pa.string())})

    return (docs.select_columns(["doc_id"])
            .map_batches(assign, batch_format="pyarrow"))


QUERIES["cluster_aware_split_docs"] = cluster_aware_split_docs


def _cluster_split_oracle_sql(threshold: float = 0.5) -> str:
    T = ((1 << 64) * 4) // 5
    return ("WITH RECURSIVE "
            + _minhash64_base_cte().split("WITH", 1)[1]
            + f""",
    prs AS MATERIALIZED (
        SELECT a.doc_id AS id_a, b.doc_id AS id_b
        FROM m a JOIN m b ON a.doc_id < b.doc_id
        WHERE ({_lsh_band_collision()})
          AND {_sig_match_fraction()} >= {threshold}
    ),
    sym AS (SELECT id_a AS s, id_b AS t FROM prs
            UNION SELECT id_b, id_a FROM prs),
    verts AS (SELECT DISTINCT s AS v FROM sym),
    reach(v, l) AS (
        SELECT v, v FROM verts
        UNION
        SELECT sym.t, reach.l FROM reach JOIN sym ON sym.s = reach.v
    ),
    cl AS (SELECT v AS doc_id, min(l) AS cluster_id
           FROM reach GROUP BY v),
    asg AS (
        SELECT d.doc_id,
               COALESCE(cl.cluster_id, d.doc_id) AS cluster_id
        FROM documents d LEFT JOIN cl ON cl.doc_id = d.doc_id),
    sbase AS (
        SELECT doc_id, cluster_id,
               CAST(cluster_id AS HUGEINT) % {_SQL_M64} AS h
        FROM asg),
    {_sql_splitmix_ctes("sbase", carry="doc_id, cluster_id, ")}
    SELECT doc_id, CAST(cluster_id AS BIGINT) AS cluster_id,
           CASE WHEN h < {T} THEN 'train' ELSE 'test' END AS split
    FROM m3
""")


ORACLE_SQL["cluster_aware_split_docs"] = _cluster_split_oracle_sql()


def dup_gram_fraction_docs(sf_dir: str):
    """Per-document duplicated-5-gram fraction (the CCNet/RefinedWeb
    soft-dedup signal; stages.text_analysis.dup_gram_fraction): what
    share of each doc's word-5-gram occurrences are grams appearing in
    >= 2 distinct documents. One gram exchange + one doc-keyed union
    merge; fraction = ONE IEEE division of exact ints."""
    from tldr_ray.stages.text_analysis import dup_gram_fraction

    return dup_gram_fraction(
        _read(sf_dir, "documents", ["doc_id", "text"]),
        k=5, min_docs=2)


QUERIES["dup_gram_fraction_docs"] = dup_gram_fraction_docs
ORACLE_SQL["dup_gram_fraction_docs"] = """
    WITH t AS (
        SELECT doc_id,
               list_filter(regexp_split_to_array(text, '\\s+'),
                           x -> x != '') AS a
        FROM documents),
    g AS (SELECT doc_id,
                 a[i] || ' ' || a[i+1] || ' ' || a[i+2] || ' '
                      || a[i+3] || ' ' || a[i+4] AS gram
          FROM t, unnest(generate_series(1, len(a) - 4)) AS u(i)),
    counts AS (
        SELECT gram, doc_id, CAST(count(*) AS BIGINT) AS cnt
        FROM g GROUP BY 1, 2),
    dup AS (
        SELECT gram FROM counts GROUP BY gram
        HAVING count(DISTINCT doc_id) >= 2),
    docdup AS (
        SELECT c.doc_id, CAST(sum(c.cnt) AS BIGINT) AS dup_occ
        FROM counts c JOIN dup USING (gram) GROUP BY 1),
    tot AS (SELECT doc_id, greatest(len(a) - 4, 0) AS total FROM t)
    SELECT t.doc_id, CAST(t.total AS BIGINT) AS total_grams,
           CAST(COALESCE(d.dup_occ, 0) AS BIGINT) AS dup_occ,
           CASE WHEN t.total = 0 THEN 0.0
                ELSE CAST(COALESCE(d.dup_occ, 0) AS DOUBLE) / t.total
           END AS dup_fraction
    FROM tot t LEFT JOIN docdup d USING (doc_id)
"""


def logistic_probe_embeddings(sf_dir: str):
    """Distributed logistic-regression probe (stages.ann.logistic_fit,
    exact Newton/IRLS — O(d^2) partials per block, counted rounds):
    one-vs-rest classifier for label 0 over the embedding column.
    Emits (feature_idx, weight) rows with feature_idx = -1 carrying
    the bias. Rows-only by nature (float fixpoint; libm exp) — the
    sequential-reference and planted-recovery pytests are the oracle."""
    from tldr_ray.stages.ann import logistic_fit

    ds = _read(sf_dir, "embeddings", ["embedding", "label"])

    def lab(batch: pa.Table) -> pa.Table:
        y = (np.asarray(batch["label"], dtype=np.int64)
             == 0).astype(np.int64)
        return pa.table({"embedding": batch["embedding"],
                         "y": pa.array(y)})

    w, b, _ = logistic_fit(
        ds.map_batches(lab, batch_format="pyarrow"),
        "embedding", "y", iters=8)
    idx = np.arange(-1, w.size, dtype=np.int64)
    return pa.table({
        "feature_idx": pa.array(idx),
        "weight": pa.array(np.concatenate([[b], w]))})


QUERIES["logistic_probe_embeddings"] = logistic_probe_embeddings


def purchase_last_click_asof_1h(sf_dir: str):
    """Backward as-of join WITH TOLERANCE (asof_join(tolerance=...) —
    pandas merge_asof semantics at engine scale): each purchase event
    matched to the same user's LATEST click at or before it, but only
    within 1 hour — staler clicks are no match and the purchase drops
    (how='inner'). The tolerance test rides the bucket sweep's match
    mask, so the windowed variant costs nothing over plain as-of.
    Attribution-window shape; complement of abandoned_clicks."""
    from tldr_ray.stages.joins import asof_join

    TOL_NS = 3_600 * 1_000_000_000  # ts compares as datetime64[ns]

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id",
                                  "event_type"])

    def side(kind, names):
        def fn(batch: pa.Table) -> pa.Table:
            m = pc.equal(batch["event_type"], kind)
            t = batch.filter(m).select(
                ["event_id", "ts", "user_id"])
            return t.rename_columns(names)
        return fn

    purchases = ev.map_batches(
        side("purchase", ["purchase_id", "p_ts", "user_id"]),
        batch_format="pyarrow")
    clicks = ev.map_batches(
        side("click", ["click_id", "c_ts", "user_id"]),
        batch_format="pyarrow")
    out = asof_join(purchases, clicks, on="user_id", left_ts="p_ts",
                    right_ts="c_ts", tiebreak="click_id",
                    tolerance=TOL_NS)

    def recast(batch: pa.Table) -> pa.Table:
        for c in ("p_ts", "c_ts"):
            i = batch.schema.get_field_index(c)
            batch = batch.set_column(
                i, c, batch[c].cast(pa.timestamp("us")))
        return batch

    return out.map_batches(recast, batch_format="pyarrow")


QUERIES["purchase_last_click_asof_1h"] = purchase_last_click_asof_1h
ORACLE_SQL["purchase_last_click_asof_1h"] = """
    WITH p AS (SELECT event_id AS purchase_id, ts AS p_ts, user_id
               FROM events WHERE event_type = 'purchase'),
    c AS (SELECT event_id AS click_id, ts AS c_ts, user_id
          FROM events WHERE event_type = 'click'),
    j AS (
        SELECT p.purchase_id, p.p_ts, p.user_id,
               c.c_ts, c.click_id,
               row_number() OVER (
                   PARTITION BY p.purchase_id
                   ORDER BY c.c_ts DESC, c.click_id DESC) AS rn
        FROM p JOIN c
          ON c.user_id = p.user_id AND c.c_ts <= p.p_ts
         AND c.c_ts >= p.p_ts - INTERVAL 1 HOUR
    )
    SELECT purchase_id, p_ts, user_id, c_ts, click_id
    FROM j WHERE rn = 1
"""

def ego_subgraph_hashgraph(sf_dir: str):
    """2-hop EGO SUBGRAPH extraction around seeds {0, 1} — the
    neighborhood-sampling primitive (GraphSAGE-style minibatch /
    incident-investigation shape): BSP BFS marks the k-hop ball, then
    the induced undirected deduped edge set is emitted — an edge
    survives iff BOTH endpoints are inside the ball: two semi
    ``stages.joins.lookup``s of the ball (broadcast membership within
    the gate, bucketed semi-joins past it). SQL oracle: capped
    recursive frontier CTE + double IN."""
    import ray.data as rd

    from tldr_ray.graph import bfs_hops
    from tldr_ray.stages.joins import lookup

    K = 2
    edges = _hash_graph_edges(sf_dir)
    ids, dist, _ = bfs_hops(edges, seeds=[0, 1], num_partitions=4,
                            max_rounds=K)
    ball = ids[(dist >= 0) & (dist <= K)
               & (dist != np.iinfo(np.int64).max)].astype(np.int64)

    def und(batch: pa.Table) -> pa.Table:
        s = np.asarray(batch["src"], dtype=np.int64)
        t = np.asarray(batch["dst"], dtype=np.int64)
        u = np.minimum(s, t)
        w = np.maximum(s, t)
        tt = pa.table({"u": pa.array(u), "w": pa.array(w)})
        return tt.group_by(["u", "w"]).aggregate([]).select(["u", "w"])

    def in_ball(col: str):
        return rd.from_arrow(pa.table({col: pa.array(ball)}))

    cand = lookup(lookup(edges.map_batches(und, batch_format="pyarrow"),
                         in_ball("u"), "u", "semi"),
                  in_ball("w"), "w", "semi")
    # distinct across blocks (a (u,w) pair can appear in 2 blocks)
    from ray.data.aggregate import Count
    return (cand.groupby(["u", "w"])
            .aggregate(Count(alias_name="__c"))
            .map_batches(lambda t: t.select(["u", "w"]),
                         batch_format="pyarrow"))


QUERIES["ego_subgraph_hashgraph"] = ego_subgraph_hashgraph
ORACLE_SQL["ego_subgraph_hashgraph"] = f"""
    WITH RECURSIVE {_HASHGRAPH_RAW},
    sym AS (SELECT s, t FROM raw2 UNION SELECT t, s FROM raw2),
    reach(v, d) AS (
        SELECT CAST(0 AS BIGINT), 0
        UNION
        SELECT CAST(1 AS BIGINT), 0
        UNION
        SELECT sym.t, reach.d + 1
        FROM reach JOIN sym ON sym.s = reach.v
        WHERE reach.d < 2
    ),
    ball AS (SELECT DISTINCT v FROM reach),
    und AS (SELECT DISTINCT least(s, t) AS u, greatest(s, t) AS w
            FROM sym)
    SELECT u, w FROM und
    WHERE u IN (SELECT v FROM ball) AND w IN (SELECT v FROM ball)
"""


def _entity_res_rows(sf_dir: str, extra_cols: tuple = (),
                     block_col: str | None = None):
    """ENTITY RESOLUTION end to end — the record-linkage flagship
    composed entirely from hash-checked pieces: FastSS
    edit-distance-1 blocking over distinct names (deletion
    neighborhoods — never all pairs), Jaro-Winkler re-scoring of the
    verified candidates (kernel bit-equal to DuckDB), a > 0.9 match
    gate, connected-component clustering (counted union-find <->
    distributed CC), and canonical-record assignment: every customer
    row gets cluster_id = the min c_custkey reachable through its
    name's match graph (identical names collapse through the per-name
    min id even without an edit-distance edge). Name->id mapping runs
    through the counted auto_join gate — the name map broadcasts
    while it fits one object (sf0.1: 15 K rows, NO shuffle) and flips
    to the bucketed exchange past 2 M rows; no O(#names) driver map."""
    from ray.data.aggregate import Min

    from tldr_ray.kernel.distance import jaro_winkler
    from tldr_ray.stages.dedup import (edit_distance_pairs,
                                       resolve_clusters)
    from tldr_ray.stages.joins import auto_join

    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_name",
                  *dict.fromkeys([*extra_cols,
                                  *([block_col] if block_col else [])])])
    if block_col is None:
        nm = (cust.map_batches(
            lambda t: pa.table({"w": t["c_name"],
                                "ck": t["c_custkey"].cast(pa.int64())}),
            batch_format="pyarrow")
            .groupby("w").aggregate(Min("ck", alias_name="nid"))
            .materialize())
    else:
        # composite argmin: blocking attribute of the name's
        # canonical (min-custkey) record rides the same Min
        def enc(t: pa.Table) -> pa.Table:
            ck = np.asarray(t["c_custkey"], dtype=np.int64)
            bk = np.asarray(t[block_col], dtype=np.int64)
            return pa.table({"w": t["c_name"],
                             "e": pa.array(ck * 32 + bk)})

        def dec(t: pa.Table) -> pa.Table:
            e = np.asarray(t["e"], dtype=np.int64)
            return pa.table({"w": t["w"],
                             "nid": pa.array(e // 32),
                             "blk": pa.array(e % 32)})

        nm = (cust.map_batches(enc, batch_format="pyarrow")
              .groupby("w").aggregate(Min("e", alias_name="e"))
              .map_batches(dec, batch_format="pyarrow")
              .materialize())

    pairs = edit_distance_pairs(cust.map_batches(
        lambda t: t.select(["c_name"]), batch_format="pyarrow"),
        col="c_name")

    def score_gate(batch: pa.Table) -> pa.Table:
        w1 = batch["w1"].to_pylist()
        w2 = batch["w2"].to_pylist()
        jw = np.array([jaro_winkler(a, b) for a, b in zip(w1, w2)])
        return pa.table({"w1": batch["w1"],
                         "w2": batch["w2"]}).filter(pa.array(jw > 0.9))

    matched = pairs.map_batches(score_gate, batch_format="pyarrow")

    # (w1, w2) -> (id_a, id_b) via two gated joins on the name key
    def nm_side(wcol: str, sfx: str):
        def f(t: pa.Table) -> pa.Table:
            cols = {wcol: t["w"], f"id_{sfx}": t["nid"]}
            if block_col is not None:
                cols[f"blk_{sfx}"] = t["blk"]
            return pa.table(cols)
        return f

    j1 = auto_join(
        matched, nm.map_batches(nm_side("w1", "a"),
                                batch_format="pyarrow"), on="w1")
    keep1 = ["w2", "id_a"] + (["blk_a"] if block_col else [])
    j2 = auto_join(
        j1.map_batches(lambda t: t.select(keep1),
                       batch_format="pyarrow"),
        nm.map_batches(nm_side("w2", "b"),
                       batch_format="pyarrow"), on="w2")

    def edge_proj(t: pa.Table) -> pa.Table:
        if block_col is not None:
            m = pc.equal(t["blk_a"], t["blk_b"])
            t = t.filter(m)
        return t.select(["id_a", "id_b"])

    cl = resolve_clusters(j2.map_batches(edge_proj,
                                         batch_format="pyarrow"))
    cmap_k = np.sort(cl["id"].to_numpy(np.int64))
    cmap_v = (cl.set_index("id")["cluster_id"].loc[cmap_k]
              .to_numpy(np.int64))

    import ray
    cref = ray.put((cmap_k, cmap_v))

    def seal(batch: pa.Table) -> pa.Table:
        ks, vs = ray.get(cref)
        nid = np.asarray(batch["nid"], dtype=np.int64)
        cid = nid.copy()
        if ks.size:
            pos = np.minimum(np.searchsorted(ks, nid), ks.size - 1)
            hit = ks[pos] == nid
            cid[hit] = vs[pos[hit]]
        cols = {
            "c_custkey": batch["c_custkey"].cast(pa.int64()),
            "c_name": batch["c_name"],
            "cluster_id": pa.array(cid)}
        for c in extra_cols:
            cols[c] = batch[c]
        return pa.table(cols)

    # decorate every row with its name's nid, then the cluster map
    # (cluster map is O(matched names) — candidate-sized, not corpus)
    def project(t: pa.Table) -> pa.Table:
        cols = {"c_custkey": t["c_custkey"].cast(pa.int64()),
                "c_name": t["c_name"], "w": t["c_name"]}
        for c in extra_cols:
            cols[c] = t[c]
        return pa.table(cols)

    rows = auto_join(
        cust.map_batches(project, batch_format="pyarrow"), nm, on="w")
    return rows.map_batches(seal, batch_format="pyarrow")


def customer_entity_resolution(sf_dir: str):
    """See _entity_res_rows — the public 3-column resolution table."""
    return _entity_res_rows(sf_dir)


QUERIES["customer_entity_resolution"] = customer_entity_resolution
_ENTITY_RES_CTES = """
    WITH RECURSIVE
    nm AS (SELECT c_name AS w, CAST(min(c_custkey) AS BIGINT) AS nid
           FROM customer GROUP BY 1),
    pr AS (
        SELECT a.w AS w1, b.w AS w2
        FROM nm a JOIN nm b
          ON a.w < b.w
         AND abs(length(a.w) - length(b.w)) <= 1
         AND levenshtein(a.w, b.w) = 1
         AND jaro_winkler_similarity(a.w, b.w) > 0.9),
    e AS (SELECT x.nid AS s, y.nid AS t
          FROM pr JOIN nm x ON x.w = pr.w1
                  JOIN nm y ON y.w = pr.w2),
    sym AS (SELECT s, t FROM e UNION SELECT t, s FROM e),
    verts AS (SELECT DISTINCT s AS v FROM sym),
    reach(v, l) AS (
        SELECT v, v FROM verts
        UNION
        SELECT sym.t, reach.l FROM reach JOIN sym ON sym.s = reach.v
    ),
    cl AS (SELECT v, min(l) AS cid FROM reach GROUP BY v)
"""
ORACLE_SQL["customer_entity_resolution"] = _ENTITY_RES_CTES + """
    SELECT c.c_custkey, c.c_name,
           CAST(COALESCE(cl.cid, nm.nid) AS BIGINT) AS cluster_id
    FROM customer c
    JOIN nm ON nm.w = c.c_name
    LEFT JOIN cl ON cl.v = nm.nid
"""


def golden_record_customers(sf_dir: str):
    """SURVIVORSHIP on top of entity resolution (the MDM golden
    record): every resolved duplicate cluster collapses to ONE master
    row under deterministic field-level rules — name and market
    segment come from the canonical member (min c_custkey), the
    balance survives as the cluster max, and the nationality follows
    the highest-balance member (ties broken by min custkey). The
    cluster decoration reuses _entity_res_rows (FastSS -> JW>0.9 ->
    CC) with a NATION BLOCKING KEY conjoined to the match rule (the
    standard blocking-attribute practice; on this corpus's sequential
    names it is also what keeps the chain graph from collapsing into
    one giant component) and the attribute columns riding the SAME
    gated join — no second pass over customer; the survivorship fold
    is one coarse hash(cluster) sweep moving each member row once."""
    rows = _entity_res_rows(
        sf_dir, ("c_nationkey", "c_acctbal", "c_mktsegment"),
        block_col="c_nationkey")

    def prep(batch: pa.Table) -> pa.Table:
        cid = np.asarray(batch["cluster_id"], dtype=np.int64)
        return pa.table({
            "cluster_id": pa.array(cid),
            "c_custkey": batch["c_custkey"].cast(pa.int64()),
            "c_name": batch["c_name"],
            "nationkey": batch["c_nationkey"].cast(pa.int64()),
            "bal_cents": pa.array(_cents(np.asarray(
                batch["c_acctbal"], dtype=np.float64))),
            "c_mktsegment": batch["c_mktsegment"]})

    def sweep(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["cluster_id", "c_custkey"],
                          kind="mergesort")
        first = g.drop_duplicates("cluster_id", keep="first")
        agg = g.groupby("cluster_id", as_index=False).agg(
            n_members=("c_custkey", "size"),
            max_bal_cents=("bal_cents", "max"))
        b = g.sort_values(["cluster_id", "bal_cents", "c_custkey"],
                          ascending=[True, False, True],
                          kind="mergesort") \
            .drop_duplicates("cluster_id", keep="first")
        out = agg.merge(
            first[["cluster_id", "c_name", "c_mktsegment"]],
            on="cluster_id").merge(
            b[["cluster_id", "nationkey"]], on="cluster_id")
        return pd.DataFrame({
            "cluster_id": out["cluster_id"].to_numpy(np.int64),
            "n_members": out["n_members"].to_numpy(np.int64),
            "name": pd.Series(out["c_name"].to_numpy(object),
                              dtype=object),
            "mktsegment": pd.Series(
                out["c_mktsegment"].to_numpy(object), dtype=object),
            "nationkey": out["nationkey"].to_numpy(np.int64),
            "max_bal_cents": out["max_bal_cents"]
            .to_numpy(np.int64)})

    return keyed_sweep(rows.map_batches(prep, batch_format="pyarrow"),
                       "cluster_id", sweep)


_ENTITY_RES_CTES_BLOCKED = """
    WITH RECURSIVE
    nm AS (SELECT c_name AS w, CAST(min(c_custkey) AS BIGINT) AS nid,
                  CAST(arg_min(c_nationkey, c_custkey) AS BIGINT)
                      AS blk
           FROM customer GROUP BY 1),
    pr AS (
        SELECT a.w AS w1, b.w AS w2
        FROM nm a JOIN nm b
          ON a.w < b.w
         AND abs(length(a.w) - length(b.w)) <= 1
         AND levenshtein(a.w, b.w) = 1
         AND jaro_winkler_similarity(a.w, b.w) > 0.9),
    e AS (SELECT x.nid AS s, y.nid AS t
          FROM pr JOIN nm x ON x.w = pr.w1
                  JOIN nm y ON y.w = pr.w2
          WHERE x.blk = y.blk),
    sym AS (SELECT s, t FROM e UNION SELECT t, s FROM e),
    verts AS (SELECT DISTINCT s AS v FROM sym),
    reach(v, l) AS (
        SELECT v, v FROM verts
        UNION
        SELECT sym.t, reach.l FROM reach JOIN sym ON sym.s = reach.v
    ),
    cl AS (SELECT v, min(l) AS cid FROM reach GROUP BY v)
"""

QUERIES["golden_record_customers"] = golden_record_customers
ORACLE_SQL["golden_record_customers"] = _ENTITY_RES_CTES_BLOCKED + """
    , res AS (
        SELECT c.c_custkey, c.c_name, c.c_nationkey, c.c_mktsegment,
               CAST(floor(c.c_acctbal * 100 + 0.5) AS BIGINT)
                   AS bal_cents,
               CAST(COALESCE(cl.cid, nm.nid) AS BIGINT) AS cluster_id
        FROM customer c
        JOIN nm ON nm.w = c.c_name
        LEFT JOIN cl ON cl.v = nm.nid),
    k AS (
        SELECT *,
               row_number() OVER (PARTITION BY cluster_id
                                  ORDER BY c_custkey) AS rk,
               row_number() OVER (PARTITION BY cluster_id
                                  ORDER BY bal_cents DESC,
                                           c_custkey) AS rb
        FROM res),
    a AS (
        SELECT cluster_id, CAST(count(*) AS BIGINT) AS n_members,
               CAST(max(bal_cents) AS BIGINT) AS max_bal_cents
        FROM res GROUP BY cluster_id)
    SELECT a.cluster_id, a.n_members,
           f.c_name AS name, f.c_mktsegment AS mktsegment,
           CAST(b.c_nationkey AS BIGINT) AS nationkey,
           a.max_bal_cents
    FROM a
    JOIN (SELECT * FROM k WHERE rk = 1) f USING (cluster_id)
    JOIN (SELECT * FROM k WHERE rb = 1) b USING (cluster_id)
"""


def range_layout_events(sf_dir: str):
    """Equi-depth RANGE-partitioned layout end to end
    (sinks.write_range_partitioned — exact distinct-value-counts
    bounds, so skew still yields balanced files): events land under
    range_id=K/ dirs clustered on value, a footer-only zone map
    indexes the layout, and a narrow value band reads ONLY the
    intersecting files (asserted) + exact residual filter. The final
    frame must equal a plain SQL filter — which pins bounds
    assignment, the resumable writer and the pruned read in one hash."""
    import tempfile

    from tldr_ray.sinks import build_zonemap, write_range_partitioned
    from tldr_ray.sources.tabular import read_pruned

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": batch["event_id"].cast(pa.int64()),
            "user_id": batch["user_id"].cast(pa.int64()),
            "cents": pa.array(_cents(np.asarray(
                batch["value"], dtype=np.float64)), pa.int64())})

    ev = (_read(sf_dir, "events", ["event_id", "user_id", "value"])
          .map_batches(prep, batch_format="pyarrow"))
    with tempfile.TemporaryDirectory() as tmp:
        out = f"{tmp}/events_range"
        write_range_partitioned(ev, out, "cents", num_ranges=8)
        build_zonemap(out, ["cents"])
        ds, stats = read_pruned(out, "cents", 1000, 3000,
                                columns=["event_id", "user_id",
                                         "cents"])
        assert 0 < stats["files_read"] < stats["files_total"], stats
        return (ds.map_batches(
            lambda t: t.select(["event_id", "user_id", "cents"]),
            batch_format="pyarrow").materialize())


QUERIES["range_layout_events"] = range_layout_events
ORACLE_SQL["range_layout_events"] = """
    SELECT CAST(event_id AS BIGINT) AS event_id,
           CAST(user_id AS BIGINT) AS user_id,
           CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
    FROM events
    WHERE CAST(floor(value * 100 + 0.5) AS BIGINT) BETWEEN 1000
          AND 3000
"""


def weighted_sample_docs(sf_dir: str):
    """Token-weighted document sample (stages.agg.weighted_sample —
    Efraimidis-Spirakis without-replacement race, splitmix-driven so
    the draw is deterministic and layout-free): 100 docs drawn
    proportional to whitespace token count, the standard
    length-weighted curation draw. Rows-only (libm log keys);
    proportionality + determinism pytest-pinned."""
    import pyarrow.compute as pc

    from tldr_ray.stages.agg import weighted_sample

    def wcount(batch: pa.Table) -> pa.Table:
        toks = pc.list_value_length(pc.utf8_split_whitespace(
            pc.utf8_trim_whitespace(batch["text"])))
        w = np.maximum(np.asarray(toks, dtype=np.float64), 1.0)
        return pa.table({"doc_id": batch["doc_id"].cast(pa.int64()),
                         "w": pa.array(w)})

    return weighted_sample(
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(wcount, batch_format="pyarrow"),
        "doc_id", "w", 100)


QUERIES["weighted_sample_docs"] = weighted_sample_docs


def trending_users_daily(sf_dir: str):
    """Per-day trending heavy users (stages.sketches.grouped_misra_gries
    — mergeable per-group counters, <= k rows per group leave any
    block): the top-8 MG summary of user_id per event day. Rows-only
    (MG estimates are layout-dependent within the deterministic bound;
    the guaranteed-presence + bound pytest is the oracle)."""
    from tldr_ray.stages.sketches import grouped_misra_gries

    DAY = np.int64(86_400_000_000)

    def prep(batch: pa.Table) -> pa.Table:
        us = np.asarray(batch["ts"].cast(pa.int64()), dtype=np.int64)
        return pa.table({
            "day": pa.array(us // DAY),
            "user_id": batch["user_id"].cast(pa.int64())})

    df = grouped_misra_gries(
        _read(sf_dir, "events", ["ts", "user_id"])
        .map_batches(prep, batch_format="pyarrow"),
        "day", "user_id", k=8)
    df["group"] = df["group"].astype(np.int64)
    df["value"] = df["value"].astype(np.int64)
    return pa.Table.from_pandas(
        df.rename(columns={"group": "day", "value": "user_id"}),
        preserve_index=False)


QUERIES["trending_users_daily"] = trending_users_daily


def events_above_p99(sf_dir: str):
    """Per-type p99 exceedance monitor (observability shape: flag the
    tail): grouped DISCRETE p99 thresholds (stages.agg
    .grouped_quantiles — one coarse sweep) broadcast as a dimension-
    sized map, then one vectorized pass emits the rows STRICTLY above
    their type's p99. Exact integer cents on both sides."""
    from tldr_ray.stages.agg import grouped_quantiles

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": batch["event_id"].cast(pa.int64()),
            "event_type": batch["event_type"],
            "cents": pa.array(_cents(np.asarray(
                batch["value"], dtype=np.float64)), pa.int64())})

    ev = (_read(sf_dir, "events", ["event_id", "event_type", "value"])
          .map_batches(prep, batch_format="pyarrow"))
    from tldr_ray.stages.joins import lookup

    th = grouped_quantiles(ev, "event_type", "cents", qs=(0.99,)) \
        .map_batches(lambda t: pa.table({
            "event_type": t["event_type"],
            "p99": t["p99"].cast(pa.int64())}), batch_format="pyarrow")

    def flag(batch: pa.Table) -> pa.Table:
        cents = np.asarray(batch["cents"], dtype=np.int64)
        p99 = np.asarray(batch["p99"], dtype=np.int64)
        return batch.filter(pa.array(cents > p99))

    return (lookup(ev, th, "event_type")
            .map_batches(flag, batch_format="pyarrow"))


QUERIES["events_above_p99"] = events_above_p99
ORACLE_SQL["events_above_p99"] = """
    WITH c AS (
        SELECT event_id, event_type,
               CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
        FROM events),
    th AS (SELECT event_type,
                  CAST(quantile_disc(cents, 0.99) AS BIGINT) AS p99
           FROM c GROUP BY 1)
    SELECT c.event_id, c.event_type, c.cents, th.p99
    FROM c JOIN th USING (event_type)
    WHERE c.cents > th.p99
"""


def debounced_events(sf_dir: str):
    """Event DEBOUNCE / throttle-dedup (the telemetry-cleaning
    primitive: drop a repeat (user, type) firing within 1 h of the
    PREVIOUS event, lag-based — the stateless variant; a
    last-KEPT-row debounce is a sequential scan by nature):
    per-(user, type) ordered deltas off the shared row_window segment
    sweep — the composite key rides as one string column through the
    coarse shuffle, user/type/ids ride the order columns, and the
    keep rule is delta == -1 (first in partition) OR delta > 1 h,
    all exact integer microseconds."""
    from tldr_ray.stages.windows import row_window

    def prep(batch: pa.Table) -> pa.Table:
        us = np.asarray(batch["ts"].cast(pa.int64()), dtype=np.int64)
        uid = np.asarray(batch["user_id"], dtype=np.int64)
        key = pc.binary_join_element_wise(
            pc.cast(pa.array(uid), pa.string()),
            batch["event_type"].cast(pa.string()), "|")
        return pa.table({
            "k": key,
            "ts_us": pa.array(us),
            "event_id": batch["event_id"].cast(pa.int64()),
            "user_id": pa.array(uid),
            "event_type": batch["event_type"]})

    w = row_window(
        _read(sf_dir, "events", ["event_id", "ts", "user_id",
                                 "event_type"])
        .map_batches(prep, batch_format="pyarrow"),
        "k", ["ts_us", "event_id", "user_id", "event_type"],
        delta_col="ts_us")

    def seal(batch: pa.Table) -> pa.Table:
        d = np.asarray(batch["delta_ts_us"], dtype=np.int64)
        keep = (d == -1) | (d > 3_600_000_000)
        out = pa.table({
            "event_id": batch["event_id"].cast(pa.int64()),
            "user_id": batch["user_id"].cast(pa.int64()),
            "event_type": batch["event_type"],
            "ts_us": batch["ts_us"].cast(pa.int64())})
        return out.filter(pa.array(keep))

    return w.map_batches(seal, batch_format="pyarrow")


QUERIES["debounced_events"] = debounced_events
ORACLE_SQL["debounced_events"] = """
    WITH b AS (
        SELECT event_id, user_id, event_type,
               CAST(epoch_us(ts) AS BIGINT) AS ts_us
        FROM events),
    w AS (
        SELECT *, coalesce(ts_us - lag(ts_us) OVER (
                    PARTITION BY user_id, event_type
                    ORDER BY ts_us, event_id), -1) AS delta
        FROM b)
    SELECT event_id, user_id, event_type, ts_us
    FROM w WHERE delta = -1 OR delta > 3600000000
"""


def hyperball_hashgraph(sf_dir: str):
    """HyperBall / HyperANF 4-hop neighbourhood-size estimates over
    the hash graph (graph.hyperball — per-vertex HLL registers,
    BSP register max-merge; O(E * 2^b) bytes per round through two
    coarse exchanges, O(P) driver scalars). The scalable answer to
    "how big is every vertex's k-hop reach" — exact all-pairs BFS is
    quadratic. Rows-only (HLL estimates); pinned against exact BFS
    ball sizes in pytest."""
    from tldr_ray.graph.hyperball import hyperball

    df = hyperball(_hash_graph_edges(sf_dir), t=4, b=6, num_parts=8)
    return pa.Table.from_pandas(df, preserve_index=False)


QUERIES["hyperball_hashgraph"] = hyperball_hashgraph


def effective_diameter_hashgraph(sf_dir: str):
    """Neighbourhood function + effective diameter of the hash graph
    (graph.hyperball(return_series=True) — HyperANF's deliverable:
    N(r) per round from O(P) partial sums, effective diameter = the
    first round covering 90% of final reach). Emits one row per round
    (t, reach_est, frac_of_final, is_effective_diameter). Rows-only
    (HLL estimates)."""
    from tldr_ray.graph.hyperball import effective_diameter, hyperball

    _, series = hyperball(_hash_graph_edges(sf_dir), t=8, b=6,
                          num_parts=8, return_series=True)
    eff = effective_diameter(series)
    n = np.array(series, dtype=np.float64)
    return pa.table({
        "t": pa.array(np.arange(n.size, dtype=np.int64)),
        "reach_est": pa.array(n),
        "frac_of_final": pa.array(n / n[-1]),
        "is_effective_diameter": pa.array(
            np.arange(n.size) == eff)})


QUERIES["effective_diameter_hashgraph"] = effective_diameter_hashgraph


def ingest_pipeline_docs(sf_dir: str):
    """FULL incremental-ingest pipeline end to end
    (pipelines.ingest.incremental_ingest — landing manifest ->
    incremental exact dedup -> exactly-once txlog commit -> mark):
    two synthetic deltas (even ids then odd ids) land as files, two
    ticks ingest them, a third idle tick no-ops, and the final
    TRANSACTIONAL TABLE must equal the SQL first-occurrence-per-text
    fold across both deltas — one hash pins the manifest, fingerprint
    state, dedup semantics and commit protocol together."""
    import os
    import tempfile

    import pyarrow.parquet as pq

    from tldr_ray.pipelines.ingest import incremental_ingest
    from tldr_ray.state.txlog import txlog_read

    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    did = np.asarray(docs["doc_id"], dtype=np.int64)
    with tempfile.TemporaryDirectory() as tmp:
        land = f"{tmp}/land"
        os.makedirs(land)
        pq.write_table(docs.filter(pa.array(did % 2 == 0)),
                       f"{land}/delta-even.parquet")
        man = f"{tmp}/manifest.txt"
        table = f"{tmp}/table"
        state = f"{tmp}/state"
        incremental_ingest(land, man, table, state)
        pq.write_table(docs.filter(pa.array(did % 2 == 1)),
                       f"{land}/delta-odd.parquet")
        incremental_ingest(land, man, table, state)
        idle = incremental_ingest(land, man, table, state)
        assert idle["version"] is None
        return txlog_read(table).materialize()


QUERIES["ingest_pipeline_docs"] = ingest_pipeline_docs
ORACLE_SQL["ingest_pipeline_docs"] = """
    WITH h1 AS (SELECT doc_id, text FROM documents
                WHERE doc_id % 2 = 0),
    h2 AS (SELECT doc_id, text FROM documents WHERE doc_id % 2 = 1),
    w1 AS (SELECT doc_id, text,
                  row_number() OVER (PARTITION BY text
                                     ORDER BY doc_id) AS rn
           FROM h1),
    w2 AS (SELECT doc_id, text,
                  row_number() OVER (PARTITION BY text
                                     ORDER BY doc_id) AS rn
           FROM h2)
    SELECT doc_id, text FROM w1 WHERE rn = 1
    UNION ALL
    SELECT w2.doc_id, w2.text FROM w2
    WHERE rn = 1
      AND NOT EXISTS (SELECT 1 FROM h1 WHERE h1.text = w2.text)
"""


def kll_value_quantiles_by_type(sf_dir: str):
    """Per-event-type KLL quantile sketches (stages.sketches
    .grouped_kll_quantiles — the distribution-free grouped twin of the
    exact value-counts plan, for the regime where per-group distinct
    counts outgrow it; completes the grouped sketch family
    HLL / Misra-Gries / KLL). Rows-only (sketch estimates); rank-error
    bound pytest is the oracle."""
    from tldr_ray.stages.sketches import grouped_kll_quantiles

    return grouped_kll_quantiles(
        _read(sf_dir, "events", ["event_type", "value"]),
        "event_type", "value", qs=(0.5, 0.9, 0.99), k=128)


QUERIES["kll_value_quantiles_by_type"] = kll_value_quantiles_by_type


_SUBSTR_PATTERNS = ["dup", "merge batch", "w sca"]


def substring_search_docs(sf_dir: str):
    """Distributed substring search (the LIKE '%pat%' scale path,
    stages.text_analysis.substring_search): char-trigram postings
    pruned to the query grams AT the map, an all-grams grouped count,
    and an exact match_substring verify on the gated candidate
    semi-join — so the result is EXACT (verify removes any blocking
    optimism) while the corpus text never moves for non-candidates.
    Patterns cross word boundaries on purpose ('w sca' spans
    'window scan*'). Output (pattern, doc_id), deterministic order."""
    from tldr_ray.stages.text_analysis import substring_search

    hits = substring_search(
        _read(sf_dir, "documents", ["doc_id", "text"]),
        _SUBSTR_PATTERNS)
    return hits.sort(["pattern", "doc_id"])


QUERIES["substring_search_docs"] = substring_search_docs
ORACLE_SQL["substring_search_docs"] = """
    SELECT p.pattern, d.doc_id
    FROM documents d,
         (VALUES ('dup'), ('merge batch'), ('w sca')) p(pattern)
    WHERE contains(lower(d.text), p.pattern)
    ORDER BY p.pattern, d.doc_id
"""


def link_prediction_jaccard_hashgraph(sf_dir: str):
    """Normalized link prediction over the hash graph: top-50
    non-adjacent pairs by Jaccard = cn / (deg_u + deg_v - cn)
    (graph.triangles.link_prediction_jaccard — the common_neighbors
    wedge sweep decorated with gated degrees; ONE IEEE division of
    exact int64s so the float hash-matches). Deterministic total
    order (jaccard desc, u, v)."""
    from tldr_ray.graph.triangles import link_prediction_jaccard

    scored = link_prediction_jaccard(_hash_graph_edges(sf_dir))
    return scored.sort(["jaccard", "u", "v"],
                       descending=[True, False, False]).limit(50)


QUERIES["link_prediction_jaccard_hashgraph"] = \
    link_prediction_jaccard_hashgraph
ORACLE_SQL["link_prediction_jaccard_hashgraph"] = f"""
    WITH {_HASHGRAPH_RAW},
    und AS (SELECT DISTINCT least(s, t) AS a, greatest(s, t) AS b
            FROM raw2),
    sym AS (SELECT a AS s, b AS t FROM und
            UNION ALL SELECT b, a FROM und),
    deg AS (SELECT s AS v, CAST(count(*) AS BIGINT) AS d
            FROM sym GROUP BY 1),
    cn AS (
        SELECT e1.t AS u, e2.t AS v, count(*) AS n_common
        FROM sym e1 JOIN sym e2 ON e2.s = e1.s AND e1.t < e2.t
        GROUP BY 1, 2),
    nonadj AS (
        SELECT cn.u, cn.v, CAST(cn.n_common AS BIGINT) AS n_common
        FROM cn LEFT JOIN und ON und.a = cn.u AND und.b = cn.v
        WHERE und.a IS NULL)
    SELECT na.u, na.v, na.n_common,
           CAST(na.n_common AS DOUBLE)
               / CAST(du.d + dv.d - na.n_common AS DOUBLE) AS jaccard
    FROM nonadj na
    JOIN deg du ON du.v = na.u
    JOIN deg dv ON dv.v = na.v
    ORDER BY jaccard DESC, na.u ASC, na.v ASC
    LIMIT 50
"""


def user_value_rolling_median(sf_dir: str):
    """Per-user 5-row trailing median spend (stages.windows
    .rolling_median — the nonlinear window no prefix scan expresses;
    pandas' C skip-list kernel per contiguous key run after ONE coarse
    shuffle). Interpolated medians of exact cents are x.0/x.5, so the
    floats hash-match DuckDB's median() window; (ts, event_id) gives
    the unique in-key order."""
    from tldr_ray.stages.windows import rolling_median

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch["user_id"].cast(pa.int64()),
            "ts": batch["ts"],
            "event_id": batch["event_id"].cast(pa.int64()),
            "value_cents": pa.array(_cents(
                np.asarray(batch["value"], dtype=np.float64)),
                pa.int64())})

    return rolling_median(
        _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
        .map_batches(prep, batch_format="pyarrow"),
        "user_id", ["ts", "event_id"], "value_cents", k=5)


QUERIES["user_value_rolling_median"] = user_value_rolling_median
ORACLE_SQL["user_value_rolling_median"] = """
    SELECT user_id, ts, event_id, value_cents,
           median(value_cents) OVER (
               PARTITION BY user_id ORDER BY ts, event_id
               ROWS BETWEEN 4 PRECEDING AND CURRENT ROW) AS roll_median
    FROM (SELECT user_id, ts, event_id,
                 CAST(floor(value * 100 + 0.5) AS BIGINT) AS value_cents
          FROM events)
"""


def value_time_spearman(sf_dir: str):
    """Per-(event_type, day) Spearman rank correlation between spend
    and time-of-day order (stages.agg.spearman_vs_order): rank-robust
    'does the value trend over the day?' monitor. Doubled average
    ranks keep every moment an exact int64; the statistic is the
    fixed Pearson-on-ranks float chain with IEEE sqrts, mirrored
    token-for-token — the floats hash-match. ONE coarse shuffle;
    groups with n < 3 or zero variance are dropped (rho undefined)."""
    from tldr_ray.stages.agg import spearman_vs_order

    DAY = np.int64(86_400_000_000)

    def prep(batch: pa.Table) -> pa.Table:
        us = np.asarray(batch["ts"].cast(pa.int64()), dtype=np.int64)
        return pa.table({
            "event_type": batch["event_type"],
            "day": pa.array(us // DAY),
            "ts": batch["ts"],
            "event_id": batch["event_id"].cast(pa.int64()),
            "value_cents": pa.array(_cents(
                np.asarray(batch["value"], dtype=np.float64)),
                pa.int64())})

    return spearman_vs_order(
        _read(sf_dir, "events",
              ["event_id", "ts", "event_type", "value"])
        .map_batches(prep, batch_format="pyarrow"),
        ["event_type", "day"], ["ts", "event_id"],
        "value_cents").sort(["event_type", "day"])


QUERIES["value_time_spearman"] = value_time_spearman
ORACLE_SQL["value_time_spearman"] = """
    WITH e AS (
        SELECT event_type, epoch_us(ts) // 86400000000 AS day,
               ts, event_id,
               CAST(floor(value * 100 + 0.5) AS BIGINT) AS v
        FROM events),
    r AS (
        SELECT event_type, day,
               2 * (rank() OVER (PARTITION BY event_type, day
                                 ORDER BY v) - 1)
                 + count(*) OVER (PARTITION BY event_type, day, v)
                 + 1 AS x,
               2 * row_number() OVER (PARTITION BY event_type, day
                                      ORDER BY ts, event_id) AS y
        FROM e),
    m AS (
        SELECT event_type, day, CAST(count(*) AS BIGINT) AS n,
               CAST(sum(x) AS BIGINT) AS sx,
               CAST(sum(y) AS BIGINT) AS sy,
               CAST(sum(x * x) AS BIGINT) AS sxx,
               CAST(sum(y * y) AS BIGINT) AS syy,
               CAST(sum(x * y) AS BIGINT) AS sxy
        FROM r GROUP BY 1, 2)
    SELECT event_type, day, n,
           CAST(n * sxy - sx * sy AS DOUBLE)
               / sqrt(CAST(n * sxx - sx * sx AS DOUBLE)
                      * CAST(n * syy - sy * sy AS DOUBLE)) AS rho
    FROM m
    WHERE n >= 3 AND (n * sxx - sx * sx) > 0
      AND (n * syy - sy * sy) > 0
    ORDER BY event_type, day
"""


def trailing_7d_active_users(sf_dir: str):
    """Rolling DISTINCT cardinality: per day, how many distinct users
    were active in the trailing 7-day window — the windowed form of
    daily actives that a prefix scan cannot express (distinct does
    not subtract). Plan: per-batch pre-combined distinct (user, day)
    rows replicate into the <=7 window-days they serve (bounded 7x
    replication of the DISTINCT activity table, never raw events),
    ONE coarse shuffle on hash(user) makes per-task dedup of
    (user, window_day) complete, and a day-keyed partial-sum groupby
    finishes. Exact integers end to end."""
    from ray.data.aggregate import Max, Sum

    DAY = np.int64(86_400_000_000)
    W = 7

    def prep(batch: pa.Table) -> pa.Table:
        us = np.asarray(batch["ts"].cast(pa.int64()), dtype=np.int64)
        u = np.asarray(batch["user_id"], dtype=np.int64)
        d = us // DAY
        order = np.lexsort((d, u))
        u, d = u[order], d[order]
        first = np.empty(u.size, dtype=bool)
        if u.size:
            first[0] = True
            first[1:] = (u[1:] != u[:-1]) | (d[1:] != d[:-1])
        u, d = u[first], d[first]
        # replicate into the window days this activity row serves
        uu = np.repeat(u, W)
        wd = np.repeat(d, W) + np.tile(np.arange(W, dtype=np.int64),
                                       u.size)
        return pa.table({
            "u": pa.array(uu), "wd": pa.array(wd)})

    base = _read(sf_dir, "events", ["user_id", "ts"])
    dmax = int(base.map_batches(
        lambda t: pa.table({"d": pa.array(
            np.asarray(t["ts"].cast(pa.int64()), np.int64) // DAY)}),
        batch_format="pyarrow").aggregate(Max("d"))["max(d)"])

    def sweep(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["u", "wd"])
        wd, cnt = np.unique(g["wd"].to_numpy(np.int64),
                            return_counts=True)
        return pd.DataFrame({"day": wd,
                             "n": cnt.astype(np.int64)})

    def seal(batch: pa.Table) -> pa.Table:
        m = pc.less_equal(batch["day"], pa.scalar(dmax, pa.int64()))
        t = batch.filter(m)
        return pa.table({"day": t["day"].cast(pa.int64()),
                         "active_7d": t["active_7d"].cast(pa.int64())})

    return (keyed_sweep(base.map_batches(prep, batch_format="pyarrow"),
                        "u", sweep)
            .groupby("day").aggregate(Sum("n", alias_name="active_7d"))
            .map_batches(seal, batch_format="pyarrow")
            .sort("day"))


QUERIES["trailing_7d_active_users"] = trailing_7d_active_users
ORACLE_SQL["trailing_7d_active_users"] = """
    WITH a AS (SELECT DISTINCT user_id AS u,
                      epoch_us(ts) // 86400000000 AS d
               FROM events),
    w AS (SELECT DISTINCT u, d + i AS wd
          FROM a, unnest(generate_series(0, 6)) AS t(i))
    SELECT wd AS day, CAST(count(*) AS BIGINT) AS active_7d
    FROM w
    WHERE wd <= (SELECT max(d) FROM a)
    GROUP BY wd ORDER BY wd
"""


def trimmed_mean_price_by_flag(sf_dir: str):
    """10%-trimmed mean extended price per return flag
    (stages.agg.grouped_trimmed_mean — the robust-mean companion of
    winsorized_value_sums: drops the n//10 cheapest and dearest rows
    instead of clamping them). Trim counts use pure integer '//', the
    kept multiset sum is tie-invariant, and the mean is one IEEE
    division of exact cents — floats hash-match."""
    from tldr_ray.stages.agg import grouped_trimmed_mean

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": batch["l_returnflag"],
            "price_cents": pa.array(_cents(
                np.asarray(batch["l_extendedprice"],
                           dtype=np.float64)), pa.int64())})

    return grouped_trimmed_mean(
        _read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])
        .map_batches(prep, batch_format="pyarrow"),
        "l_returnflag", "price_cents").sort("l_returnflag")


QUERIES["trimmed_mean_price_by_flag"] = trimmed_mean_price_by_flag
ORACLE_SQL["trimmed_mean_price_by_flag"] = """
    WITH v AS (SELECT l_returnflag,
                      CAST(floor(l_extendedprice * 100 + 0.5)
                           AS BIGINT) AS c
               FROM lineitem),
    r AS (SELECT l_returnflag, c,
                 row_number() OVER (PARTITION BY l_returnflag
                                    ORDER BY c) AS rn,
                 count(*) OVER (PARTITION BY l_returnflag) AS n
          FROM v)
    SELECT l_returnflag, CAST(max(n) AS BIGINT) AS n,
           CAST(max(n) - 2 * (max(n) // 10) AS BIGINT) AS n_kept,
           CAST(sum(c) AS BIGINT) AS trimmed_sum,
           CAST(sum(c) AS DOUBLE)
               / CAST(max(n) - 2 * (max(n) // 10) AS DOUBLE)
               AS trimmed_mean
    FROM r
    WHERE rn > n // 10 AND rn <= n - n // 10
    GROUP BY l_returnflag
    ORDER BY l_returnflag
"""


def top_users_exact_via_sketch(sf_dir: str):
    """Top-50 users by event count through the VERIFIED-sketch path
    (stages.sketches.exact_topk_via_sketch): Misra-Gries candidates,
    an exact recount of only those candidates, and the MG deficit
    bound as a correctness proof gate — full-groupby fallback when the
    distribution is too flat to certify. EXACT on both paths, so the
    plain SQL top-k mirror hash-matches regardless of which path the
    gate picks at this scale."""
    from tldr_ray.stages.sketches import exact_topk_via_sketch

    out = exact_topk_via_sketch(
        _read(sf_dir, "events", ["user_id"]), "user_id",
        k=50, capacity=1024)
    return pa.table({"user_id": pa.array(out["value"].to_numpy(np.int64)),
                     "n_events": pa.array(out["n"].to_numpy(np.int64))})


QUERIES["top_users_exact_via_sketch"] = top_users_exact_via_sketch
ORACLE_SQL["top_users_exact_via_sketch"] = """
    SELECT user_id, CAST(count(*) AS BIGINT) AS n_events
    FROM events
    GROUP BY user_id
    ORDER BY n_events DESC, user_id ASC
    LIMIT 50
"""


def forget_users_audit(sf_dir: str):
    """Right-to-erasure pipeline (pipelines.forget.forget_keys): the
    deletion list (every user_id divisible by 97 that appears in
    events) propagates through events / orders / customer via the
    gated anti-join, survivors land as partitioned parquet under
    /tmp, the audit counts come from parquet FOOTERS, and the
    verification pass proves zero surviving matches. The returned
    report is exact integers — hash-checked."""
    import tempfile

    from tldr_ray.pipelines.forget import forget_keys

    def delmask(batch: pa.Table) -> pa.Table:
        u = np.asarray(batch["user_id"], dtype=np.int64)
        return pa.table({"k": pa.array(u[u % 97 == 0])})

    del_keys = (_read(sf_dir, "events", ["user_id"])
                .map_batches(delmask, batch_format="pyarrow"))
    out = tempfile.mkdtemp(prefix="forget_", dir="/tmp")
    return forget_keys(
        [("customer", _read(sf_dir, "customer",
                            ["c_custkey", "c_name", "c_acctbal"]),
          "c_custkey"),
         ("events", _read(sf_dir, "events",
                          ["event_id", "user_id", "ts", "value"]),
          "user_id"),
         ("orders", _read(sf_dir, "orders",
                          ["o_orderkey", "o_custkey", "o_totalprice"]),
          "o_custkey")],
        del_keys, out)


QUERIES["forget_users_audit"] = forget_users_audit
ORACLE_SQL["forget_users_audit"] = """
    WITH del AS (SELECT DISTINCT user_id AS k FROM events
                 WHERE user_id % 97 = 0),
    c AS (SELECT count(*) AS b,
                 sum(CASE WHEN c_custkey IN (SELECT k FROM del)
                          THEN 1 ELSE 0 END) AS d
          FROM customer),
    e AS (SELECT count(*) AS b,
                 sum(CASE WHEN user_id IN (SELECT k FROM del)
                          THEN 1 ELSE 0 END) AS d
          FROM events),
    o AS (SELECT count(*) AS b,
                 sum(CASE WHEN o_custkey IN (SELECT k FROM del)
                          THEN 1 ELSE 0 END) AS d
          FROM orders)
    SELECT * FROM (
        SELECT 'customer' AS table_name, CAST(b AS BIGINT) AS rows_before,
               CAST(coalesce(d, 0) AS BIGINT) AS rows_deleted,
               CAST(b - coalesce(d, 0) AS BIGINT) AS rows_after FROM c
        UNION ALL
        SELECT 'events', CAST(b AS BIGINT),
               CAST(coalesce(d, 0) AS BIGINT),
               CAST(b - coalesce(d, 0) AS BIGINT) FROM e
        UNION ALL
        SELECT 'orders', CAST(b AS BIGINT),
               CAST(coalesce(d, 0) AS BIGINT),
               CAST(b - coalesce(d, 0) AS BIGINT) FROM o)
    ORDER BY table_name
"""


def feature_hash_docs(sf_dir: str):
    """Hashing-trick sparse features over documents
    (stages.text_analysis.feature_hash, 64 buckets): signed token
    counts with NO vocabulary state — the fixed-dimension ML
    featurizer. Bucket and sign derive from the repo's FNV-1a +
    splitmix64 chain, mirrored bit-for-bit by the recursive-CTE
    oracle; weights are exact signed ints."""
    from tldr_ray.stages.text_analysis import feature_hash

    return feature_hash(
        _read(sf_dir, "documents", ["doc_id", "text"]),
        n_buckets=64).sort(["doc_id", "bucket"])


QUERIES["feature_hash_docs"] = feature_hash_docs
ORACLE_SQL["feature_hash_docs"] = f"""
    WITH RECURSIVE {_SEARCH_TOKS_CTE.strip().rstrip()},
    {_sql_fnv_cte("SELECT DISTINCT w AS s FROM toks")},
    {_sql_splitmix_ctes("hh", carry="s, ")},
    f AS (
        SELECT t.doc_id,
               CAST(m.h % 64 AS BIGINT) AS bucket,
               CASE WHEN (m.h // 64) % 2 = 0 THEN 1 ELSE -1 END AS sgn
        FROM toks t JOIN m3 m ON m.s = t.w)
    SELECT doc_id, bucket, CAST(sum(sgn) AS BIGINT) AS weight
    FROM f GROUP BY doc_id, bucket
    HAVING sum(sgn) != 0
    ORDER BY doc_id, bucket
"""


def scalar_quantize_embeddings(sf_dir: str):
    """Int8 scalar quantization report over the embeddings table
    (stages.ann.scalar_quantize_report): per-dim global [mn,mx] band,
    code = floor((x-mn)/(mx-mn)*255 + 0.5), exact code sums + max
    reconstruction error. Every step is an order-free float64
    composition (float32 widens losslessly; min/max/abs carry no
    accumulation order), so even the error DOUBLES hash-match the
    unnest + generate_subscripts mirror."""
    from tldr_ray.stages.ann import scalar_quantize_report

    return scalar_quantize_report(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"])) \
        .sort("dim")


QUERIES["scalar_quantize_embeddings"] = scalar_quantize_embeddings
ORACLE_SQL["scalar_quantize_embeddings"] = """
    WITH x AS (
        SELECT CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT)
                   AS dim,
               CAST(unnest(embedding) AS DOUBLE) AS v
        FROM embeddings),
    mm AS (SELECT dim, CAST(min(v) AS DOUBLE) AS mn,
                  CAST(max(v) AS DOUBLE) AS mx
           FROM x GROUP BY dim),
    q AS (
        SELECT x.dim, mm.mn, mm.mx,
               CASE WHEN mm.mx > mm.mn
                    THEN floor((x.v - mm.mn) / (mm.mx - mm.mn)
                               * 255 + 0.5)
                    ELSE 0 END AS code,
               x.v
        FROM x JOIN mm ON mm.dim = x.dim),
    e AS (
        SELECT dim, mn, mx, code,
               abs(v - (mn + code * (mx - mn) / 255)) AS err
        FROM q)
    SELECT dim, mn, mx,
           CAST(sum(code) AS BIGINT) AS sum_codes,
           max(err) AS max_abs_err
    FROM e GROUP BY dim, mn, mx
    ORDER BY dim
"""


def kcenter_coreset_embeddings(sf_dir: str):
    """Greedy k-center coreset over the embeddings table
    (stages.ann.kcenter_select, k=8): the diverse-subset selector for
    training-data curation (Gonzalez 2-approximation, deterministic
    min-id ties). Rows-only by nature (iterative argmax of float
    distances); the pytest pins it to a sequential numpy reference
    and the non-increasing covering radius."""
    from tldr_ray.stages.ann import kcenter_select

    out = kcenter_select(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]), k=8)
    return pa.table({
        "sel_order": pa.array(out["sel_order"].to_numpy(np.int64)),
        "vec_id": pa.array(out["vec_id"].to_numpy(np.int64)),
        "radius_after": pa.array(
            out["radius_after"].to_numpy(np.float64))})


QUERIES["kcenter_coreset_embeddings"] = kcenter_coreset_embeddings


def revenue_first_touch_hourly(sf_dir: str):
    """FIRST-touch revenue attribution (marketing's complement of the
    last-click asof): each purchase credits its user's EARLIEST click
    inside the trailing 1-hour window, and purchase cents roll up by
    the credited click's hour of day. Plan: stages.joins.range_join
    emits the windowed (purchase, click) pairs (1:N, inclusive
    bounds), a coarse hash(purchase) sweep takes the per-purchase
    argmin (c_ts, click_id), and dimension-sized hourly sums finish.
    Exact integers end to end."""
    import pandas as pd

    from ray.data.aggregate import Count, Sum

    from tldr_ray.stages.joins import range_join

    ev = _read(sf_dir, "events",
               ["event_id", "ts", "user_id", "event_type", "value"])

    def side(kind, take, names, with_value=False):
        def fn(batch: pa.Table) -> pa.Table:
            m = pc.equal(batch["event_type"], kind)
            t = batch.filter(m)
            cols = {n: t[c] for c, n in zip(take, names)}
            if with_value:
                cols["v"] = pa.array(_cents(
                    np.asarray(t["value"], dtype=np.float64)),
                    pa.int64())
            return pa.table(cols)
        return fn

    purchases = ev.map_batches(
        side("purchase", ["event_id", "ts", "user_id"],
             ["purchase_id", "p_ts", "user_id"], with_value=True),
        batch_format="pyarrow")
    clicks = ev.map_batches(
        side("click", ["event_id", "ts", "user_id"],
             ["click_id", "c_ts", "user_id"]),
        batch_format="pyarrow")
    pairs = range_join(purchases, clicks, on="user_id",
                       left_ts="p_ts", right_ts="c_ts",
                       before=pd.Timedelta(hours=1),
                       after=pd.Timedelta(0))

    def first_touch(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["purchase_id", "c_ts", "click_id"],
                          kind="mergesort")
        first = np.empty(len(g), dtype=bool)
        if len(g):
            pid = g["purchase_id"].to_numpy(np.int64)
            first[0], first[1:] = True, pid[1:] != pid[:-1]
        f = g[first]
        us = f["c_ts"].to_numpy("datetime64[us]").astype(np.int64)
        return pd.DataFrame({
            "hour": (us // 3_600_000_000) % 24,
            "v": f["v"].to_numpy(np.int64)})

    def seal(batch: pa.Table) -> pa.Table:
        return pa.table({
            "hour": batch["hour"].cast(pa.int64()),
            "n_purchases": batch["n_purchases"].cast(pa.int64()),
            "attributed_cents":
                batch["attributed_cents"].cast(pa.int64())})

    return (keyed_sweep(pairs, "purchase_id", first_touch)
            .groupby("hour")
            .aggregate(Count(alias_name="n_purchases"),
                       Sum("v", alias_name="attributed_cents"))
            .map_batches(seal, batch_format="pyarrow")
            .sort("hour"))


QUERIES["revenue_first_touch_hourly"] = revenue_first_touch_hourly
ORACLE_SQL["revenue_first_touch_hourly"] = """
    WITH p AS (SELECT event_id AS pid, ts AS pts, user_id,
                      CAST(floor(value * 100 + 0.5) AS BIGINT) AS v
               FROM events WHERE event_type = 'purchase'),
    c AS (SELECT event_id AS cid, ts AS cts, user_id
          FROM events WHERE event_type = 'click'),
    pairs AS (
        SELECT p.pid, p.v, c.cid, c.cts
        FROM p JOIN c ON c.user_id = p.user_id
         AND c.cts BETWEEN p.pts - INTERVAL 1 HOUR AND p.pts),
    ft AS (
        SELECT pid, v, cts FROM (
            SELECT *, row_number() OVER (PARTITION BY pid
                                         ORDER BY cts, cid) AS rn
            FROM pairs)
        WHERE rn = 1)
    SELECT (epoch_us(cts) // 3600000000) % 24 AS hour,
           CAST(count(*) AS BIGINT) AS n_purchases,
           CAST(sum(v) AS BIGINT) AS attributed_cents
    FROM ft GROUP BY 1 ORDER BY 1
"""


def theilsen_user_value_trend(sf_dir: str):
    """Per-user THEIL-SEN robust spend trend
    (stages.agg.theil_sen_by_key): median of all pairwise
    cents-per-microsecond slopes over strictly-increasing ts pairs —
    the outlier-proof companion of the exact-OLS user_value_trend.
    Keys gated to 3..128 points (quadratic pair expansion — the
    honest contract, mirrored with HAVING); median uses the DuckDB
    quantile_cont composition x[lo]*0.5 + x[hi]*0.5, so the float
    slopes hash-match."""
    from tldr_ray.stages.agg import theil_sen_by_key

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch["user_id"].cast(pa.int64()),
            "t_us": batch["ts"].cast(pa.int64()),
            "value_cents": pa.array(_cents(
                np.asarray(batch["value"], dtype=np.float64)),
                pa.int64())})

    return theil_sen_by_key(
        _read(sf_dir, "events", ["user_id", "ts", "value"])
        .map_batches(prep, batch_format="pyarrow"),
        "user_id", "t_us", "value_cents").sort("user_id")


QUERIES["theilsen_user_value_trend"] = theilsen_user_value_trend
ORACLE_SQL["theilsen_user_value_trend"] = """
    WITH e AS (SELECT user_id, epoch_us(ts) AS t,
                      CAST(floor(value * 100 + 0.5) AS BIGINT) AS v
               FROM events),
    g AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n FROM e
          GROUP BY user_id HAVING count(*) BETWEEN 3 AND 128),
    s AS (
        SELECT a.user_id,
               CAST(b.v - a.v AS DOUBLE)
                   / CAST(b.t - a.t AS DOUBLE) AS slope
        FROM e a JOIN e b
          ON b.user_id = a.user_id AND a.t < b.t
        WHERE a.user_id IN (SELECT user_id FROM g))
    SELECT g.user_id, g.n AS n_points,
           CAST(count(s.slope) AS BIGINT) AS n_slopes,
           median(s.slope) AS ts_slope
    FROM s JOIN g ON g.user_id = s.user_id
    GROUP BY g.user_id, g.n
    ORDER BY g.user_id
"""


def user_value_rolling_slope(sf_dir: str):
    """Per-user trailing-8-event OLS spend slope
    (stages.windows.rolling_ols_slope): the rolling TREND monitor —
    four exact-int window prefix sums, one float chain mirrored
    token-for-token in SQL window SUMs. t is REBASED to seconds since
    2024-01-01 so w*Stt and St^2 stay far below 2^63 (epoch-us
    squared does not fit — the stage refuses unrebased floats).
    Zero-time-variance windows emit slope 0 with has_slope=0."""
    from tldr_ray.stages.windows import rolling_ols_slope

    REF = 1_704_067_200  # 2024-01-01 in epoch seconds

    def prep(batch: pa.Table) -> pa.Table:
        us = np.asarray(batch["ts"].cast(pa.int64()), dtype=np.int64)
        return pa.table({
            "user_id": batch["user_id"].cast(pa.int64()),
            "ts": batch["ts"],
            "event_id": batch["event_id"].cast(pa.int64()),
            "t": pa.array(us // 1_000_000 - REF),
            "v": pa.array(_cents(
                np.asarray(batch["value"], dtype=np.float64)),
                pa.int64())})

    out = rolling_ols_slope(
        _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
        .map_batches(prep, batch_format="pyarrow"),
        "user_id", ["ts", "event_id"], "t", "v", k=8)

    def seal(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch["user_id"].cast(pa.int64()),
            "ts": batch["ts"],
            "event_id": batch["event_id"].cast(pa.int64()),
            "t": batch["t"].cast(pa.int64()),
            "v": batch["v"].cast(pa.int64()),
            "slope": batch["slope"].cast(pa.float64()),
            "has_slope": batch["has_slope"].cast(pa.int64())})

    return out.map_batches(seal, batch_format="pyarrow")


QUERIES["user_value_rolling_slope"] = user_value_rolling_slope
ORACLE_SQL["user_value_rolling_slope"] = """
    WITH e AS (SELECT user_id, ts, event_id,
                      epoch_us(ts) // 1000000 - 1704067200 AS t,
                      CAST(floor(value * 100 + 0.5) AS BIGINT) AS v
               FROM events),
    w AS (SELECT user_id, ts, event_id, t, v,
                 CAST(sum(t) OVER win AS BIGINT) AS st,
                 CAST(sum(v) OVER win AS BIGINT) AS sv,
                 CAST(sum(t * t) OVER win AS BIGINT) AS stt,
                 CAST(sum(t * v) OVER win AS BIGINT) AS stv,
                 CAST(count(*) OVER win AS BIGINT) AS wn
          FROM e WINDOW win AS (
              PARTITION BY user_id ORDER BY ts, event_id
              ROWS BETWEEN 7 PRECEDING AND CURRENT ROW))
    SELECT user_id, ts, event_id, t, v,
           CASE WHEN wn * stt - st * st > 0
                THEN CAST(wn * stv - st * sv AS DOUBLE)
                     / CAST(wn * stt - st * st AS DOUBLE)
                ELSE 0.0 END AS slope,
           CAST(CASE WHEN wn * stt - st * st > 0
                     THEN 1 ELSE 0 END AS BIGINT) AS has_slope
    FROM w
"""


def four_cycles_hashgraph(sf_dir: str):
    """Exact global 4-cycle (rectangle) count over the hash graph
    (graph.triangles.four_cycle_count): the bipartite-motif companion
    of triangle counting, #C4 = sum over ALL vertex pairs of
    C(cn, 2) halved — every rectangle counted once per diagonal, so
    the halving is exact integer arithmetic. O(P) scalars reach the
    driver."""
    from tldr_ray.graph.triangles import four_cycle_count

    n = four_cycle_count(_hash_graph_edges(sf_dir))
    return pa.table({"n_4cycles": pa.array([n], pa.int64())})


QUERIES["four_cycles_hashgraph"] = four_cycles_hashgraph
ORACLE_SQL["four_cycles_hashgraph"] = f"""
    WITH {_HASHGRAPH_RAW},
    und AS (SELECT DISTINCT least(s, t) AS a, greatest(s, t) AS b
            FROM raw2),
    sym AS (SELECT a AS s, b AS t FROM und
            UNION ALL SELECT b, a FROM und),
    cn AS (
        SELECT e1.t AS u, e2.t AS v,
               CAST(count(*) AS BIGINT) AS n
        FROM sym e1 JOIN sym e2 ON e2.s = e1.s AND e1.t < e2.t
        GROUP BY 1, 2)
    SELECT CAST(coalesce(sum(n * (n - 1) // 2), 0) // 2 AS BIGINT)
               AS n_4cycles
    FROM cn
"""


def target_encode_event_type(sf_dir: str):
    """LEAVE-ONE-OUT target encoding of event_type against spend (the
    leakage-safe categorical encoder ML pipelines ship): each row's
    code is the mean value of all OTHER rows of its category,
    (s_c - v_i) / (n_c - 1) — one IEEE division of exact cents per
    row, so the float encodings hash-match. Category stats are a
    dimension-sized broadcast; singleton categories emit the global
    LOO mean instead (mirrored CASE)."""
    from ray.data.aggregate import Count, Sum

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": batch["event_id"].cast(pa.int64()),
            "event_type": batch["event_type"],
            "v": pa.array(_cents(
                np.asarray(batch["value"], dtype=np.float64)),
                pa.int64())})

    ev = (_read(sf_dir, "events", ["event_id", "event_type", "value"])
          .map_batches(prep, batch_format="pyarrow"))
    cells = (ev.groupby("event_type")
             .aggregate(Count(alias_name="n"), Sum("v", alias_name="s"))
             .to_pandas())
    g_n = int(cells["n"].sum())
    g_s = int(cells["s"].sum())
    import ray
    ks = cells["event_type"].to_numpy(object)
    order = np.argsort(ks)
    cref = ray.put((ks[order],
                    cells["n"].to_numpy(np.int64)[order],
                    cells["s"].to_numpy(np.int64)[order]))

    def encode(batch: pa.Table) -> pa.Table:
        kk, n, s = ray.get(cref)
        et = np.asarray(batch["event_type"]).astype(object)
        v = np.asarray(batch["v"], dtype=np.int64)
        pos = np.searchsorted(kk, et)
        cn, cs = n[pos], s[pos]
        single = cn <= 1
        num = np.where(single, g_s - v, cs - v).astype(np.float64)
        den = np.where(single, g_n - 1, cn - 1).astype(np.float64)
        return pa.table({
            "event_id": batch["event_id"],
            "event_type": batch["event_type"],
            "value_cents": batch["v"],
            "loo_code": pa.array(num / den)})

    return ev.map_batches(encode, batch_format="pyarrow") \
        .sort("event_id")


QUERIES["target_encode_event_type"] = target_encode_event_type
ORACLE_SQL["target_encode_event_type"] = """
    WITH e AS (SELECT event_id, event_type,
                      CAST(floor(value * 100 + 0.5) AS BIGINT) AS v
               FROM events),
    c AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n,
                 CAST(sum(v) AS BIGINT) AS s
          FROM e GROUP BY 1),
    g AS (SELECT CAST(sum(n) AS BIGINT) AS gn,
                 CAST(sum(s) AS BIGINT) AS gs FROM c)
    SELECT e.event_id, e.event_type, e.v AS value_cents,
           CASE WHEN c.n <= 1
                THEN CAST(g.gs - e.v AS DOUBLE)
                     / CAST(g.gn - 1 AS DOUBLE)
                ELSE CAST(c.s - e.v AS DOUBLE)
                     / CAST(c.n - 1 AS DOUBLE) END AS loo_code
    FROM e JOIN c ON c.event_type = e.event_type, g
    ORDER BY e.event_id
"""


_REBALANCE_TARGET = 1990


def rebalance_event_classes(sf_dir: str):
    """Deterministic class rebalancing of events to exactly 1990 rows
    per event_type (stages.agg.class_rebalance): oversized classes
    keep the 1990 smallest-hash rows, undersized classes oversample
    with replacement in hash order — at sf0.01 both branches fire
    (purchase/view < 1990 < click/error/signup). Output rows carry
    exact integer copy counts; sum(copies) per class == 1990 by
    construction, and the whole table hash-matches the splitmix-CTE
    row_number mirror."""
    from tldr_ray.stages.agg import class_rebalance

    out = class_rebalance(
        _read(sf_dir, "events", ["event_id", "event_type"]),
        "event_type", "event_id", _REBALANCE_TARGET)

    def seal(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": batch["id"].cast(pa.int64()),
            "event_type": batch["event_type"].cast(pa.string()),
            "copies": batch["copies"].cast(pa.int64())})

    return out.map_batches(seal, batch_format="pyarrow") \
        .sort("event_id")


QUERIES["rebalance_event_classes"] = rebalance_event_classes
ORACLE_SQL["rebalance_event_classes"] = f"""
    WITH RECURSIVE {_sql_fnv_cte(
        "SELECT DISTINCT CAST(event_id AS VARCHAR) AS s FROM events")},
    {_sql_splitmix_ctes("hh", carry="s, ")},
    e AS (SELECT ev.event_id, ev.event_type, m3.h
          FROM events ev
          JOIN m3 ON m3.s = CAST(ev.event_id AS VARCHAR)),
    r AS (SELECT event_id, event_type,
                 row_number() OVER (PARTITION BY event_type
                                    ORDER BY h, event_id) AS rn,
                 count(*) OVER (PARTITION BY event_type) AS n
          FROM e),
    c AS (SELECT event_id, event_type,
                 CASE WHEN n >= {_REBALANCE_TARGET}
                      THEN CASE WHEN rn <= {_REBALANCE_TARGET}
                                THEN 1 ELSE 0 END
                      ELSE {_REBALANCE_TARGET} // n
                           + CASE WHEN rn <= {_REBALANCE_TARGET} % n
                                  THEN 1 ELSE 0 END
                 END AS copies
          FROM r)
    SELECT event_id, event_type, CAST(copies AS BIGINT) AS copies
    FROM c WHERE copies > 0
    ORDER BY event_id
"""


def event_type_index100_daily(sf_dir: str):
    """Index-100 RE-BASED daily volume per event type (the BI
    'indexed growth' view): every (type, day) count expressed as
    count * 100 / first-day-count of that type — ONE IEEE division of
    exact integers per cell, floats hash-match. The distributed part
    is one grouped count; the rebase runs on the dimension-sized
    (types x days) frame."""
    from ray.data.aggregate import Count

    DAY = np.int64(86_400_000_000)

    def prep(batch: pa.Table) -> pa.Table:
        us = np.asarray(batch["ts"].cast(pa.int64()), dtype=np.int64)
        return pa.table({"event_type": batch["event_type"],
                         "day": pa.array(us // DAY)})

    cells = (_read(sf_dir, "events", ["ts", "event_type"])
             .map_batches(prep, batch_format="pyarrow")
             .groupby(["event_type", "day"])
             .aggregate(Count(alias_name="c"))
             .to_pandas())
    cells = cells.sort_values(["event_type", "day"]) \
        .reset_index(drop=True)
    first = cells.groupby("event_type", sort=False)["c"].transform(
        "first").to_numpy(np.int64)
    c = cells["c"].to_numpy(np.int64)
    return pa.table({
        "event_type": pa.array(cells["event_type"].to_numpy(object)
                               .tolist(), pa.string()),
        "day": pa.array(cells["day"].to_numpy(np.int64)),
        "n": pa.array(c),
        "index100": pa.array((c * 100).astype(np.float64)
                             / first.astype(np.float64))})


QUERIES["event_type_index100_daily"] = event_type_index100_daily
ORACLE_SQL["event_type_index100_daily"] = """
    WITH d AS (SELECT event_type,
                      epoch_us(ts) // 86400000000 AS day,
                      CAST(count(*) AS BIGINT) AS n
               FROM events GROUP BY 1, 2),
    f AS (SELECT event_type, n AS n0 FROM (
              SELECT event_type, n,
                     row_number() OVER (PARTITION BY event_type
                                        ORDER BY day) AS rn
              FROM d) WHERE rn = 1)
    SELECT d.event_type, d.day, d.n,
           CAST(d.n * 100 AS DOUBLE) / CAST(f.n0 AS DOUBLE)
               AS index100
    FROM d JOIN f ON f.event_type = d.event_type
    ORDER BY d.event_type, d.day
"""


def kendall_user_value_trend(sf_dir: str):
    """Per-user KENDALL tau-b + Mann-Kendall S between spend and time
    (stages.agg.kendall_mk_by_key — the rank-pair trend test beside
    the Theil-Sen slope, same 3..128-point gate): exact concordant /
    discordant / tie counts over all C(n,2) pairs, one IEEE
    divide+sqrt chain per user — floats hash-match."""
    from tldr_ray.stages.agg import kendall_mk_by_key

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch["user_id"].cast(pa.int64()),
            "t_us": batch["ts"].cast(pa.int64()),
            "value_cents": pa.array(_cents(
                np.asarray(batch["value"], dtype=np.float64)),
                pa.int64())})

    return kendall_mk_by_key(
        _read(sf_dir, "events", ["user_id", "ts", "value"])
        .map_batches(prep, batch_format="pyarrow"),
        "user_id", "t_us", "value_cents").sort("user_id")


QUERIES["kendall_user_value_trend"] = kendall_user_value_trend
ORACLE_SQL["kendall_user_value_trend"] = """
    WITH e AS (SELECT user_id, epoch_us(ts) AS t,
                      CAST(floor(value * 100 + 0.5) AS BIGINT) AS v,
                      row_number() OVER (ORDER BY user_id, ts) AS rid
               FROM events),
    g AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n FROM e
          GROUP BY user_id HAVING count(*) BETWEEN 3 AND 128),
    p AS (
        SELECT a.user_id,
               CASE WHEN a.t = b.t THEN 1 ELSE 0 END AS tt,
               CASE WHEN a.v = b.v THEN 1 ELSE 0 END AS tv,
               CASE WHEN a.t != b.t AND a.v != b.v
                         AND ((b.t > a.t) = (b.v > a.v))
                    THEN 1 ELSE 0 END AS con,
               CASE WHEN a.t != b.t AND a.v != b.v
                         AND ((b.t > a.t) != (b.v > a.v))
                    THEN 1 ELSE 0 END AS dis
        FROM e a JOIN e b
          ON b.user_id = a.user_id AND a.rid < b.rid
        WHERE a.user_id IN (SELECT user_id FROM g)),
    m AS (SELECT user_id,
                 CAST(sum(con) AS BIGINT) AS c,
                 CAST(sum(dis) AS BIGINT) AS d,
                 CAST(sum(tv) AS BIGINT) AS n1,
                 CAST(sum(tt) AS BIGINT) AS n2,
                 CAST(count(*) AS BIGINT) AS n0
          FROM p GROUP BY user_id)
    SELECT g.user_id, g.n, m.n0 AS n_pairs,
           m.c - m.d AS s_mk, m.n1 AS n_tie_v, m.n2 AS n_tie_t,
           CAST(m.c - m.d AS DOUBLE)
               / sqrt(CAST((m.n0 - m.n1) * (m.n0 - m.n2)
                           AS DOUBLE)) AS tau_b
    FROM m JOIN g ON g.user_id = m.user_id
    WHERE (m.n0 - m.n1) * (m.n0 - m.n2) > 0
    ORDER BY g.user_id
"""


def purchase_point_in_time_state(sf_dir: str):
    """POINT-IN-TIME dimension join (the feature-store correctness
    pattern): each purchase event joins the SCD2-valid row of its
    user's non-purchase change stream at purchase time — the row
    whose [eff_from, eff_to) interval contains the fact ts, which for
    SCD2 intervals is exactly the backward as-of match
    (stages.joins.asof_join, latest change at or before, (ts,
    event_id) tie-break). No training-serving leakage by
    construction: the joined state never postdates the fact."""
    from tldr_ray.stages.joins import asof_join

    ev = _read(sf_dir, "events",
               ["event_id", "ts", "user_id", "event_type", "value"])

    def facts(batch: pa.Table) -> pa.Table:
        m = pc.equal(batch["event_type"], "purchase")
        t = batch.filter(m)
        return pa.table({"purchase_id": t["event_id"].cast(pa.int64()),
                         "p_ts": t["ts"],
                         "user_id": t["user_id"].cast(pa.int64())})

    def dim(batch: pa.Table) -> pa.Table:
        m = pc.not_equal(batch["event_type"], "purchase")
        t = batch.filter(m)
        return pa.table({
            "state_id": t["event_id"].cast(pa.int64()),
            "s_ts": t["ts"],
            "user_id": t["user_id"].cast(pa.int64()),
            "state_cents": pa.array(_cents(
                np.asarray(t["value"], dtype=np.float64)),
                pa.int64())})

    out = asof_join(ev.map_batches(facts, batch_format="pyarrow"),
                    ev.map_batches(dim, batch_format="pyarrow"),
                    on="user_id", left_ts="p_ts", right_ts="s_ts",
                    tiebreak="state_id")

    def recast(batch: pa.Table) -> pa.Table:
        for c in ("p_ts", "s_ts"):
            i = batch.schema.get_field_index(c)
            batch = batch.set_column(
                i, c, batch[c].cast(pa.timestamp("us")))
        return batch

    return out.map_batches(recast, batch_format="pyarrow") \
        .sort("purchase_id")


QUERIES["purchase_point_in_time_state"] = purchase_point_in_time_state
ORACLE_SQL["purchase_point_in_time_state"] = """
    WITH f AS (SELECT event_id AS purchase_id, ts AS p_ts, user_id
               FROM events WHERE event_type = 'purchase'),
    d AS (SELECT event_id AS state_id, ts AS s_ts, user_id,
                 CAST(floor(value * 100 + 0.5) AS BIGINT)
                     AS state_cents
          FROM events WHERE event_type != 'purchase'),
    j AS (
        SELECT f.purchase_id, f.p_ts, f.user_id,
               d.state_id, d.s_ts, d.state_cents,
               row_number() OVER (
                   PARTITION BY f.purchase_id
                   ORDER BY d.s_ts DESC, d.state_id DESC) AS rn
        FROM f JOIN d
          ON d.user_id = f.user_id AND d.s_ts <= f.p_ts)
    SELECT purchase_id, p_ts, user_id, state_id, s_ts, state_cents
    FROM j WHERE rn = 1
    ORDER BY purchase_id
"""


def user_rfm_segments(sf_dir: str):
    """RFM SEGMENTATION (the marketing-analytics classic): per user,
    Recency (days since last event vs the corpus max day), Frequency
    (event count), Monetary (exact cent sum), each quintile-binned
    with the tie-coherent rank rule bin = rows_strictly_below * 5 // n
    (deterministic where NTILE is not — the calibration precedent).
    One grouped aggregate builds the per-user frame; each metric's
    bin thresholds come from its value-counts frame (O(#distinct
    values) driver state, the documented selection-frame contract)."""
    from ray.data.aggregate import Count, Max, Sum

    DAY = np.int64(86_400_000_000)

    def prep(batch: pa.Table) -> pa.Table:
        us = np.asarray(batch["ts"].cast(pa.int64()), dtype=np.int64)
        return pa.table({
            "user_id": batch["user_id"].cast(pa.int64()),
            "day": pa.array(us // DAY),
            "v": pa.array(_cents(
                np.asarray(batch["value"], dtype=np.float64)),
                pa.int64())})

    users = (_read(sf_dir, "events", ["user_id", "ts", "value"])
             .map_batches(prep, batch_format="pyarrow")
             .groupby("user_id")
             .aggregate(Max("day", alias_name="last_day"),
                        Count(alias_name="f"),
                        Sum("v", alias_name="m_cents"))
             .materialize())
    maxday = int(users.max("last_day"))
    n = users.count()

    def metric_cols(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch["user_id"].cast(pa.int64()),
            "r_days": pa.array(
                maxday - np.asarray(batch["last_day"], np.int64)),
            "f": batch["f"].cast(pa.int64()),
            "m_cents": batch["m_cents"].cast(pa.int64())})

    rfm = users.map_batches(metric_cols,
                            batch_format="pyarrow").materialize()

    import ray
    thr = {}
    for col in ("r_days", "f", "m_cents"):
        vc = (rfm.groupby(col).count().to_pandas()
              .sort_values(col))
        vals = vc[col].to_numpy(np.int64)
        cnt = vc["count()"].to_numpy(np.int64)
        below = np.concatenate([[0], np.cumsum(cnt)[:-1]])
        thr[col] = (vals, below)
    tref = ray.put(thr)

    def binify(batch: pa.Table) -> pa.Table:
        t = ray.get(tref)
        out = {"user_id": batch["user_id"]}
        for col in ("r_days", "f", "m_cents"):
            vals, below = t[col]
            x = np.asarray(batch[col], dtype=np.int64)
            out[col] = batch[col]
            out[col + "_bin"] = pa.array(
                below[np.searchsorted(vals, x)] * 5 // n)
        return pa.table(out)

    return rfm.map_batches(binify, batch_format="pyarrow") \
        .sort("user_id")


QUERIES["user_rfm_segments"] = user_rfm_segments
ORACLE_SQL["user_rfm_segments"] = """
    WITH u AS (
        SELECT user_id,
               max(epoch_us(ts) // 86400000000) AS last_day,
               CAST(count(*) AS BIGINT) AS f,
               CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT))
                    AS BIGINT) AS m_cents
        FROM events GROUP BY user_id),
    g AS (SELECT max(last_day) AS maxday,
                 CAST(count(*) AS BIGINT) AS n FROM u),
    r AS (SELECT u.user_id,
                 CAST(g.maxday - u.last_day AS BIGINT) AS r_days,
                 u.f, u.m_cents, g.n
          FROM u, g)
    SELECT user_id, r_days, f, m_cents,
           CAST((rank() OVER (ORDER BY r_days) - 1) * 5 // n
                AS BIGINT) AS r_days_bin,
           CAST((rank() OVER (ORDER BY f) - 1) * 5 // n
                AS BIGINT) AS f_bin,
           CAST((rank() OVER (ORDER BY m_cents) - 1) * 5 // n
                AS BIGINT) AS m_cents_bin
    FROM r ORDER BY user_id
"""


def user_novelty_curve(sf_dir: str):
    """EXPANDING-DISTINCT window per user: after every event, how many
    DISTINCT event types has this user seen so far — the novelty /
    exploration curve no plain prefix sum expresses (distinct does
    not add). Plan: flag each (user, type) FIRST occurrence with one
    lexsort pass, then a per-user running sum of the flags in event
    order — both inside ONE coarse hash(user) shuffle. Mirrored with
    the row_number()=1 flag + cumulative SUM window."""
    def prep(batch: pa.Table) -> pa.Table:
        u = np.asarray(batch["user_id"], dtype=np.int64)
        return pa.table({
            "user_id": pa.array(u),
            "ts": batch["ts"],
            "event_id": batch["event_id"].cast(pa.int64()),
            "event_type": batch["event_type"]})

    def sweep(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"],
                          kind="mergesort")
        u = g["user_id"].to_numpy(np.int64)
        et = g["event_type"].to_numpy(object)
        n = len(g)
        # first occurrence of (user, type) in (ts, id) order: lexsort
        # by (user, type, position) and flag run starts
        posn = np.arange(n, dtype=np.int64)
        order = np.lexsort((posn, pd.factorize(et)[0], u))
        uu, cc = u[order], pd.factorize(et)[0][order]
        first_sorted = np.empty(n, dtype=bool)
        if n:
            first_sorted[0] = True
            first_sorted[1:] = (uu[1:] != uu[:-1]) | (cc[1:] != cc[:-1])
        first = np.empty(n, dtype=bool)
        first[order] = first_sorted
        new_user = np.empty(n, dtype=bool)
        if n:
            new_user[0] = True
            new_user[1:] = u[1:] != u[:-1]
        starts = np.flatnonzero(new_user)
        seg = np.cumsum(new_user) - 1
        cum = np.cumsum(first.astype(np.int64))
        base = np.where(starts > 0, cum[starts - 1], 0)
        return pd.DataFrame({
            "user_id": u,
            "ts": g["ts"].to_numpy(),
            "event_id": g["event_id"].to_numpy(np.int64),
            "event_type": pd.Series(et, dtype=object),
            "types_seen": cum - base[seg]})

    return keyed_sweep(_read(sf_dir, "events",
                             ["event_id", "user_id", "ts", "event_type"])
                       .map_batches(prep, batch_format="pyarrow"),
                       "user_id", sweep)


QUERIES["user_novelty_curve"] = user_novelty_curve
ORACLE_SQL["user_novelty_curve"] = """
    WITH f AS (
        SELECT user_id, ts, event_id, event_type,
               CASE WHEN row_number() OVER (
                        PARTITION BY user_id, event_type
                        ORDER BY ts, event_id) = 1
                    THEN 1 ELSE 0 END AS is_first
        FROM events)
    SELECT user_id, ts, event_id, event_type,
           CAST(sum(is_first) OVER (
               PARTITION BY user_id ORDER BY ts, event_id
               ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
               AS BIGINT) AS types_seen
    FROM f
"""


def doc_readability_scores(sf_dir: str):
    """Flesch reading-ease per document from vectorized exact counts:
    words (whitespace tokens), sentences ([.!?]+ runs, clamped >= 1),
    syllable proxy ([aeiouy]+ vowel groups, clamped words >= 1) —
    then the one fixed float chain 206.835 - 1.015*(w/s) -
    84.6*(syl/w), mirrored token-for-token (left-associative, same
    literals) so the float scores hash-match. All counts are single
    pyarrow regex kernels — no row loop."""
    def score(batch: pa.Table) -> pa.Table:
        low = pc.utf8_lower(batch["text"])
        toks = pc.utf8_split_whitespace(
            pc.utf8_trim_whitespace(low))
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        off = np.asarray(toks.offsets, dtype=np.int64)
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        nz = np.asarray(pc.greater(pc.utf8_length(flat), 0))
        doc_of = np.repeat(np.arange(len(batch), dtype=np.int64),
                           np.diff(off))
        words = np.bincount(doc_of[nz], minlength=len(batch)) \
            .astype(np.int64)
        sents = np.asarray(pc.count_substring_regex(low, r"[.!?]+"),
                           dtype=np.int64)
        syl = np.asarray(pc.count_substring_regex(low, r"[aeiouy]+"),
                         dtype=np.int64)
        w = np.maximum(words, 1)
        s = np.maximum(sents, 1)
        fre = 206.835 - 1.015 * (w.astype(np.float64)
                                 / s.astype(np.float64)) \
            - 84.6 * (syl.astype(np.float64) / w.astype(np.float64))
        return pa.table({
            "doc_id": batch["doc_id"].cast(pa.int64()),
            "n_words": pa.array(words),
            "n_sentences": pa.array(sents),
            "n_syllables": pa.array(syl),
            "flesch": pa.array(fre)})

    return _read(sf_dir, "documents", ["doc_id", "text"]) \
        .map_batches(score, batch_format="pyarrow").sort("doc_id")


QUERIES["doc_readability_scores"] = doc_readability_scores
ORACLE_SQL["doc_readability_scores"] = """
    WITH c AS (
        SELECT doc_id,
               CAST(len(list_filter(
                   regexp_split_to_array(trim(lower(text)), '\\s+'),
                   x -> x != '')) AS BIGINT) AS n_words,
               CAST(len(regexp_extract_all(lower(text), '[.!?]+'))
                    AS BIGINT) AS n_sentences,
               CAST(len(regexp_extract_all(lower(text), '[aeiouy]+'))
                    AS BIGINT) AS n_syllables
        FROM documents)
    SELECT doc_id, n_words, n_sentences, n_syllables,
           206.835
           - 1.015 * (CAST(greatest(n_words, 1) AS DOUBLE)
                      / CAST(greatest(n_sentences, 1) AS DOUBLE))
           - 84.6 * (CAST(n_syllables AS DOUBLE)
                     / CAST(greatest(n_words, 1) AS DOUBLE)) AS flesch
    FROM c ORDER BY doc_id
"""


def session_entry_exit_matrix(sf_dir: str):
    """Session ENTRY/EXIT matrix (the landing/parting-page BI view):
    sessions form with the standard 30-min gap rule, each session
    reports its first and last event type ((ts, event_id)
    tie-broken), and the output counts sessions per (entry_type,
    exit_type) cell. One coarse hash(user) shuffle computes sessions
    AND endpoints in the same sweep; per-partition cell partials sum
    in a dimension-sized groupby."""
    from ray.data.aggregate import Sum

    GAP = np.int64(1800 * 1_000_000)

    def prep(batch: pa.Table) -> pa.Table:
        u = np.asarray(batch["user_id"], dtype=np.int64)
        return pa.table({
            "user_id": pa.array(u),
            "t": pa.array(np.asarray(batch["ts"].cast(pa.int64()),
                                     np.int64)),
            "event_id": batch["event_id"].cast(pa.int64()),
            "event_type": batch["event_type"]})

    def sweep(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "t", "event_id"],
                          kind="mergesort")
        n = len(g)
        if not n:
            return pd.DataFrame({
                "entry_type": pd.array([], dtype=object),
                "exit_type": pd.array([], dtype=object),
                "n": pd.array([], dtype="int64")})
        u = g["user_id"].to_numpy(np.int64)
        t = g["t"].to_numpy(np.int64)
        et = g["event_type"].to_numpy(object)
        new = np.empty(n, dtype=bool)
        new[0] = True
        new[1:] = (u[1:] != u[:-1]) | (t[1:] - t[:-1] > GAP)
        starts = np.flatnonzero(new)
        ends = np.append(starts[1:], n) - 1
        entry = et[starts]
        exit_ = et[ends]
        key = pd.DataFrame({"entry_type": pd.Series(entry,
                                                    dtype=object),
                            "exit_type": pd.Series(exit_,
                                                   dtype=object)})
        out = key.groupby(["entry_type", "exit_type"], sort=False) \
            .size().reset_index(name="n")
        out["n"] = out["n"].astype(np.int64)
        out["entry_type"] = out["entry_type"].astype(object)
        out["exit_type"] = out["exit_type"].astype(object)
        return out

    def seal(batch: pa.Table) -> pa.Table:
        return pa.table({
            "entry_type": batch["entry_type"].cast(pa.string()),
            "exit_type": batch["exit_type"].cast(pa.string()),
            "n_sessions": batch["n_sessions"].cast(pa.int64())})

    return (keyed_sweep(_read(sf_dir, "events",
                              ["event_id", "user_id", "ts", "event_type"])
                        .map_batches(prep, batch_format="pyarrow"),
                        "user_id", sweep)
            .groupby(["entry_type", "exit_type"])
            .aggregate(Sum("n", alias_name="n_sessions"))
            .map_batches(seal, batch_format="pyarrow")
            .sort(["entry_type", "exit_type"]))


QUERIES["session_entry_exit_matrix"] = session_entry_exit_matrix
ORACLE_SQL["session_entry_exit_matrix"] = """
    WITH gaps AS (
        SELECT user_id, ts, event_id, event_type,
               CASE WHEN lag(ts) OVER w IS NULL
                         OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                    THEN 1 ELSE 0 END AS new_session
        FROM events
        WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
    s AS (
        SELECT user_id, ts, event_id, event_type,
               sum(new_session) OVER (PARTITION BY user_id
                                      ORDER BY ts, event_id
                                      ROWS UNBOUNDED PRECEDING)
                   AS session_id
        FROM gaps),
    ee AS (
        SELECT user_id, session_id,
               first(event_type ORDER BY ts, event_id) AS entry_type,
               last(event_type ORDER BY ts, event_id) AS exit_type
        FROM s GROUP BY 1, 2)
    SELECT entry_type, exit_type,
           CAST(count(*) AS BIGINT) AS n_sessions
    FROM ee GROUP BY 1, 2
    ORDER BY entry_type, exit_type
"""


def file_lineage_audit(sf_dir: str):
    """FILE-LINEAGE reconciliation: events write out hive-partitioned
    (sinks.write_partitioned_parquet), the read-back propagates each
    row's SOURCE FILE PATH through the distributed pipeline
    (read_parquet include_paths), rows aggregate by the partition
    directory parsed from their own lineage column, and the audit
    reconciles bit-for-bit with the source-of-truth groupby — the
    every-row-accounted-for check a governed lake runs after each
    layout job. File names inside a partition are executor-chosen, so
    the audit keys on the deterministic partition dir; per-file
    splits are pytest territory."""
    import re
    import tempfile

    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    from tldr_ray.sinks import write_partitioned_parquet

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": batch["event_type"],
            "value_cents": pa.array(_cents(
                np.asarray(batch["value"], dtype=np.float64)),
                pa.int64())})

    ev = (_read(sf_dir, "events", ["event_type", "value"])
          .map_batches(prep, batch_format="pyarrow"))
    out = tempfile.mkdtemp(prefix="lineage_", dir="/tmp")
    write_partitioned_parquet(ev, out, by="event_type")

    back = rd.read_parquet(out, include_paths=True)

    def by_partition(batch: pa.Table) -> pa.Table:
        paths = batch["path"].to_pylist()
        part = [re.search(r"event_type=([^/]+)/", p).group(1)
                for p in paths]
        return pa.table({
            "partition": pa.array(part, pa.string()),
            "value_cents": batch["value_cents"].cast(pa.int64())})

    def seal(batch: pa.Table) -> pa.Table:
        return pa.table({
            "partition": batch["partition"],
            "n_rows": batch["n_rows"].cast(pa.int64()),
            "sum_cents": batch["sum_cents"].cast(pa.int64())})

    return (back.map_batches(by_partition, batch_format="pyarrow")
            .groupby("partition")
            .aggregate(Count(alias_name="n_rows"),
                       Sum("value_cents", alias_name="sum_cents"))
            .map_batches(seal, batch_format="pyarrow")
            .sort("partition"))


QUERIES["file_lineage_audit"] = file_lineage_audit
ORACLE_SQL["file_lineage_audit"] = """
    SELECT event_type AS partition,
           CAST(count(*) AS BIGINT) AS n_rows,
           CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT))
                AS BIGINT) AS sum_cents
    FROM events GROUP BY 1 ORDER BY 1
"""


def orders_customer_view_incremental(sf_dir: str):
    """Incremental JOIN-VIEW maintenance end to end
    (state.incremental.update_join_view): orders arrive as three
    deterministic deltas (o_orderkey % 3), each folds into the
    materialized orders-x-customer view as an immutable appended
    SEGMENT (delta-join law ΔF ⋈ D, static dim; never a view
    rewrite), and the final read unions the committed segments. The
    whole view hash-matches the one-shot SQL join — proving the
    incremental path loses and duplicates nothing."""
    import tempfile

    from tldr_ray.state.incremental import (read_join_view,
                                            update_join_view)

    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"]) \
        .map_batches(lambda t: t.rename_columns(["o_custkey",
                                                 "c_name"]),
                     batch_format="pyarrow").materialize()
    view_dir = tempfile.mkdtemp(prefix="joinview_", dir="/tmp")

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": batch["o_orderkey"].cast(pa.int64()),
            "o_custkey": batch["o_custkey"].cast(pa.int64()),
            "price_cents": pa.array(_cents(
                np.asarray(batch["o_totalprice"],
                           dtype=np.float64)), pa.int64())})

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_totalprice"]) \
        .map_batches(prep, batch_format="pyarrow")
    for r in range(3):
        def pick(batch: pa.Table, _r=r) -> pa.Table:
            k = np.asarray(batch["o_orderkey"], dtype=np.int64)
            return batch.filter(pa.array(k % 3 == _r))

        update_join_view(view_dir,
                         orders.map_batches(pick,
                                            batch_format="pyarrow"),
                         cust, on="o_custkey")

    def seal(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": batch["o_orderkey"].cast(pa.int64()),
            "o_custkey": batch["o_custkey"].cast(pa.int64()),
            "price_cents": batch["price_cents"].cast(pa.int64()),
            "c_name": batch["c_name"].cast(pa.string())})

    return read_join_view(view_dir) \
        .map_batches(seal, batch_format="pyarrow").sort("o_orderkey")


QUERIES["orders_customer_view_incremental"] = \
    orders_customer_view_incremental
ORACLE_SQL["orders_customer_view_incremental"] = """
    SELECT o.o_orderkey, o.o_custkey,
           CAST(floor(o.o_totalprice * 100 + 0.5) AS BIGINT)
               AS price_cents,
           c.c_name
    FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey
    ORDER BY o.o_orderkey
"""


def backfill_daily_partitions(sf_dir: str):
    """BACKFILL end to end (the nightly-job repair loop): events land
    day-partitioned with _DONE markers, three deterministic
    partitions are then damaged two ways (one wiped entirely, two
    left marker-less = half-written crash leftovers), and a second
    resumable write (sinks.write_partitioned_parquet resume=True)
    repairs ONLY those — completed partitions are pruned from the
    stream before any row moves. The reconciled per-day counts
    hash-match the source groupby, and the skipped/written split is
    asserted so the repair provably did not rewrite the world."""
    import shutil
    import tempfile

    import ray.data as rd
    from ray.data.aggregate import Count

    from tldr_ray.sinks import write_partitioned_parquet

    DAY = np.int64(86_400_000_000)

    def prep(batch: pa.Table) -> pa.Table:
        us = np.asarray(batch["ts"].cast(pa.int64()), dtype=np.int64)
        return pa.table({
            "event_id": batch["event_id"].cast(pa.int64()),
            "day": pa.array(us // DAY)})

    ev = (_read(sf_dir, "events", ["event_id", "ts"])
          .map_batches(prep, batch_format="pyarrow"))
    out = tempfile.mkdtemp(prefix="backfill_", dir="/tmp")
    first = write_partitioned_parquet(ev, out, by="day")
    days = sorted(first["written"], key=int)
    victims = [days[0], days[len(days) // 2], days[-1]]
    # damage: wipe one, strip the marker off two (crash leftovers)
    shutil.rmtree(os.path.join(out, f"day={victims[0]}"))
    for v in victims[1:]:
        os.remove(os.path.join(out, f"day={v}", "_DONE"))
    second = write_partitioned_parquet(ev, out, by="day")
    assert sorted(second["written"], key=int) == \
        sorted(victims, key=int), second
    assert len(second["skipped"]) == len(days) - 3, second

    def seal(batch: pa.Table) -> pa.Table:
        return pa.table({"day": batch["day"].cast(pa.int64()),
                         "n_rows": batch["n_rows"].cast(pa.int64())})

    return (rd.read_parquet(out)
            .map_batches(lambda t: pa.table(
                {"day": t["day"].cast(pa.int64())}),
                batch_format="pyarrow")
            .groupby("day").aggregate(Count(alias_name="n_rows"))
            .map_batches(seal, batch_format="pyarrow")
            .sort("day"))


QUERIES["backfill_daily_partitions"] = backfill_daily_partitions
ORACLE_SQL["backfill_daily_partitions"] = """
    SELECT epoch_us(ts) // 86400000000 AS day,
           CAST(count(*) AS BIGINT) AS n_rows
    FROM events GROUP BY 1 ORDER BY 1
"""


def msf_hashgraph(sf_dir: str):
    """Minimum spanning forest of the weighted hash graph
    (graph.mst.boruvka_msf — BSP Borůvka rounds: per-component argmin
    nominations, gated cluster contraction, gated label updates;
    O(log V) rounds). Rows-only by nature (iterative contraction);
    the pytest pins edge-set equality to sequential Kruskal under the
    same (weight, a, b) total order, which makes the forest unique."""
    from tldr_ray.graph.mst import boruvka_msf

    out = boruvka_msf(_hash_graph_edges_weighted(sf_dir))
    return pa.table({
        "a": pa.array(out["a"].to_numpy(np.int64)),
        "b": pa.array(out["b"].to_numpy(np.int64)),
        "weight": pa.array(out["weight"].to_numpy(np.float64))})


QUERIES["msf_hashgraph"] = msf_hashgraph


_WIDEST_UNROLL = 24


def widest_path_hashgraph(sf_dir: str):
    """Bounded-hop widest-path (maximum-bottleneck) width from vertex
    0 over the DIRECTED weighted hash graph — the max-min semiring
    dual of sssp_hashgraph (graph.engine.widest_path_widths: new
    widest_messages kernel + max_apply merge on the same BSP shards).
    Widths are PICKED from the fixed weight set, never arithmetically
    combined, so the float trajectory is trivially bit-deterministic
    and the fixed-round SQL unrolling matches exactly. Capped at
    _WIDEST_UNROLL synchronous rounds = the exact <=24-hop bounded
    widest path (identical to the oracle's 24 rounds whether or not
    the unbounded fixpoint has landed). Seed -> 1.0 sentinel (> any
    real width, max weight 0.97), unreached -> -1.0."""
    from tldr_ray.graph import widest_path_widths

    ids, width, info = widest_path_widths(
        _hash_graph_edges_weighted(sf_dir), seeds=[0],
        num_partitions=4, max_rounds=_WIDEST_UNROLL)
    width = np.where(np.isposinf(width), 1.0,
                     np.where(np.isneginf(width), -1.0, width))
    return pa.table({"vertex": pa.array(ids),
                     "width": pa.array(width)})


def _widest_oracle_sql(rounds: int = _WIDEST_UNROLL) -> str:
    """Max-min relaxation unrolled as chained CTEs (the sssp-oracle
    pattern with least/greatest swapped): w_i(v) = greatest(w_{i-1}(v),
    max over in-edges of least(w_{i-1}(u), w(u,v))). Unreached
    vertices carry -infinity which propagates harmlessly under max."""
    ctes = []
    for i in range(1, rounds + 1):
        prev = f"wr{i - 1}"
        ctes.append(f"""
    wr{i} AS MATERIALIZED (
        SELECT r.v,
               greatest(r.d, coalesce(m.md, '-infinity'::DOUBLE)) AS d
        FROM {prev} r
        LEFT JOIN (
            SELECT e.t AS v, max(least(p.d, e.w)) AS md
            FROM {prev} p JOIN e ON e.s = p.v
            GROUP BY e.t
        ) m ON m.v = r.v
    )""")
    return f"""
    WITH {_HASHGRAPH_RAW},
    e AS (SELECT s, t, ((s * 31 + t * 17) % 97 + 1) / 100.0 AS w
          FROM raw2),
    verts AS (SELECT DISTINCT v FROM
              (SELECT s AS v FROM e UNION ALL SELECT t FROM e)),
    wr0 AS (SELECT v, CASE WHEN v = 0 THEN 'infinity'::DOUBLE
                           ELSE '-infinity'::DOUBLE END AS d FROM verts),
    {",".join(ctes)}
    SELECT v AS vertex,
           CASE WHEN d = 'infinity'::DOUBLE THEN 1.0
                WHEN d = '-infinity'::DOUBLE THEN -1.0
                ELSE d END AS width
    FROM wr{rounds}
"""


QUERIES["widest_path_hashgraph"] = widest_path_hashgraph
ORACLE_SQL["widest_path_hashgraph"] = _widest_oracle_sql()


_PEEL_UNROLL = 20


def densest_subgraph_docs(sf_dir: str):
    """Densest-subgraph approximation trace by factor-3 parallel
    peeling (graph.densest.densest_subgraph_peel — the BKV
    MapReduce-peeling algorithm: each round drops every vertex with
    deg*V <= 3*E, one degree groupby + two size-gated key joins per
    round, O(log V) rounds; all arithmetic exact int64, density
    compared by cross-multiplication). The graph plants a dense band
    among the multiples of 50 (5 forward band edges each) on top of
    the sparse +1 ring, so the trace peels the ring first and is_best
    lands on the surviving core, not the full graph. Emits one row
    per non-empty round: (round, n_vertices, n_edges, is_best)."""
    from tldr_ray.graph.densest import densest_subgraph_peel

    import pyarrow.parquet as pq

    N = int(pq.read_table(f"{sf_dir}/documents.parquet",
                          columns=["doc_id"])["doc_id"]
            .to_numpy().max()) + 1
    M = (N // 50) * 50

    def edges(batch: pa.Table) -> pa.Table:
        d = np.asarray(batch["doc_id"], dtype=np.int64)
        src = [d]
        dst = [(d + 1) % N]
        if M > 0:
            c = d[(d % 50 == 0) & (d < M)]
            for j in range(1, 6):
                src.append(c)
                dst.append((c + 50 * j) % M)
        s = np.concatenate(src)
        t = np.concatenate(dst)
        keep = s != t
        s, t = s[keep], t[keep]
        return pa.table({"src": pa.array(s), "dst": pa.array(t),
                         "weight": pa.array(np.ones(s.size))})

    trace = densest_subgraph_peel(
        _read(sf_dir, "documents", ["doc_id"])
        .map_batches(edges, batch_format="pyarrow"),
        max_rounds=_PEEL_UNROLL)
    return pa.table({
        "round": pa.array([t["round"] for t in trace], pa.int64()),
        "n_vertices": pa.array([t["n_vertices"] for t in trace],
                               pa.int64()),
        "n_edges": pa.array([t["n_edges"] for t in trace], pa.int64()),
        "is_best": pa.array([t["is_best"] for t in trace], pa.int64())})


def _densest_oracle_sql(rounds: int = _PEEL_UNROLL) -> str:
    """The same peeling unrolled as chained CTEs: per round, degree
    counts, the integer deg*V > 3*E survival test, and an edge filter
    on both endpoints. Trace rows collect every non-empty round;
    is_best by the NOT EXISTS cross-multiplied density argmax."""
    ctes = []
    traces = []
    for i in range(rounds + 1):
        ctes.append(f"""
    d{i} AS (SELECT v, CAST(count(*) AS BIGINT) AS deg
             FROM (SELECT a AS v FROM g{i}
                   UNION ALL SELECT b FROM g{i})
             GROUP BY v),
    c{i} AS (SELECT (SELECT CAST(count(*) AS BIGINT) FROM g{i}) AS e,
                    (SELECT CAST(count(*) AS BIGINT) FROM d{i}) AS nv),
    k{i} AS (SELECT v FROM d{i}, c{i} WHERE deg * nv > 3 * e),
    g{i + 1} AS MATERIALIZED (
        SELECT a, b FROM g{i}
        WHERE a IN (SELECT v FROM k{i})
          AND b IN (SELECT v FROM k{i}))""")
        traces.append(
            f"SELECT CAST({i} AS BIGINT) AS round, nv, e "
            f"FROM c{i} WHERE e > 0")
    return f"""
    WITH nn AS (SELECT CAST(max(doc_id) + 1 AS BIGINT) AS n
                FROM documents),
    mm AS (SELECT (n // 50) * 50 AS m FROM nn),
    raw AS (
        SELECT doc_id AS s, (doc_id + 1) % (SELECT n FROM nn) AS t
        FROM documents
        UNION ALL
        SELECT doc_id, (doc_id + 50 * j) % (SELECT m FROM mm)
        FROM documents, unnest([1, 2, 3, 4, 5]) AS u(j)
        WHERE (SELECT m FROM mm) > 0
          AND doc_id % 50 = 0 AND doc_id < (SELECT m FROM mm)
    ),
    g0 AS MATERIALIZED (
        SELECT DISTINCT least(s, t) AS a, greatest(s, t) AS b
        FROM raw WHERE s != t),
    {",".join(ctes)},
    tr AS ({" UNION ALL ".join(traces)})
    SELECT i.round, i.nv AS n_vertices, i.e AS n_edges,
           CAST(CASE WHEN NOT EXISTS (
               SELECT 1 FROM tr j
               WHERE j.e * i.nv > i.e * j.nv
                  OR (j.e * i.nv = i.e * j.nv AND j.round < i.round))
               THEN 1 ELSE 0 END AS BIGINT) AS is_best
    FROM tr i
"""


QUERIES["densest_subgraph_docs"] = densest_subgraph_docs
ORACLE_SQL["densest_subgraph_docs"] = _densest_oracle_sql()


def rle_event_paths(sf_dir: str):
    """Run-length compression summary of each user's event-type
    sequence ordered by (ts, event_id): n_events, n_runs (maximal
    same-type stretches), max_run_len, and the dominant run's type
    (longest run; earliest on length ties). One coarse sweep on
    hash(user) — inside each task the run structure falls out of a
    single vectorized change-flag scan over the sorted frame (lag
    compare -> run ids -> bincount), no Python row loop. The classic
    sessionless sequence-compression signal (repetition detection
    without fixed windows)."""
    def sweep(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"],
                          kind="mergesort")
        uid = g["user_id"].to_numpy(np.int64)
        typ = g["event_type"].to_numpy(object)
        new_user = np.empty(uid.size, dtype=bool)
        new_user[0] = True
        new_user[1:] = uid[1:] != uid[:-1]
        new_run = new_user.copy()
        new_run[1:] |= typ[1:] != typ[:-1]
        run_id = np.cumsum(new_run) - 1
        run_len = np.bincount(run_id)
        run_user = uid[new_run]
        run_typ = typ[new_run]
        # per user: events, runs, argmax run (earliest tie winner —
        # bincount order within a user IS sequence order)
        users, u_start = np.unique(run_user, return_index=True)
        u_end = np.r_[u_start[1:], run_user.size]
        n_events = np.add.reduceat(run_len, u_start)
        n_runs = u_end - u_start
        best_len = np.zeros(users.size, np.int64)
        best_typ = np.empty(users.size, object)
        for i in range(users.size):     # per-user argmax over few runs
            sl = slice(u_start[i], u_end[i])
            j = int(np.argmax(run_len[sl]))     # first max = earliest
            best_len[i] = run_len[sl][j]
            best_typ[i] = run_typ[sl][j]
        return pd.DataFrame({
            "user_id": users,
            "n_events": n_events.astype(np.int64),
            "n_runs": n_runs.astype(np.int64),
            "max_run_len": best_len,
            "max_run_type": pd.Series(best_typ, dtype=object)})

    return keyed_sweep(
        _read(sf_dir, "events",
              ["user_id", "ts", "event_id", "event_type"]),
        "user_id", sweep)


QUERIES["rle_event_paths"] = rle_event_paths
ORACLE_SQL["rle_event_paths"] = """
    WITH s AS (SELECT user_id, ts, event_id, event_type,
                      CASE WHEN lag(event_type) OVER w IS DISTINCT
                                FROM event_type THEN 1 ELSE 0 END
                          AS chg
               FROM events
               WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
    r AS (SELECT user_id, event_type,
                 sum(chg) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS run_id,
                 ts, event_id
          FROM s),
    runs AS (SELECT user_id, run_id, event_type,
                    CAST(count(*) AS BIGINT) AS len
             FROM r GROUP BY user_id, run_id, event_type),
    best AS (SELECT user_id, len AS max_run_len,
                    event_type AS max_run_type
             FROM (SELECT user_id, len, event_type,
                          row_number() OVER (PARTITION BY user_id
                                             ORDER BY len DESC,
                                                      run_id ASC)
                              AS rn
                   FROM runs)
             WHERE rn = 1)
    SELECT r.user_id,
           CAST(count(*) AS BIGINT) AS n_events,
           CAST(count(DISTINCT r.run_id) AS BIGINT) AS n_runs,
           any_value(b.max_run_len) AS max_run_len,
           any_value(b.max_run_type) AS max_run_type
    FROM r JOIN best b ON b.user_id = r.user_id
    GROUP BY r.user_id
"""


def stratified_kfold_docs(sf_dir: str, k: int = 5):
    """Deterministic stratified k-fold assignment: within each lang
    stratum, documents are ranked by splitmix64(doc_id) (a seedless
    bijective scramble — doc_id breaks the impossible tie) and fold =
    rank % k, so every stratum's fold sizes differ by at most one and
    reruns are byte-identical with no RNG state. The eval-split
    primitive cross-validation pipelines need at corpus scale; one
    map_groups per stratum (lang cardinality is small — for a
    high-cardinality stratum key the doubled-rank two-pass would
    replace the per-group sort). Bit-for-bit SQL mirror via the
    shared splitmix CTE chain."""
    from tldr_ray.stages.dedup import _mix64

    def sweep(g: pd.DataFrame) -> pd.DataFrame:
        ids = g["doc_id"].to_numpy(np.int64)
        h = _mix64(ids.astype(np.uint64))
        order = np.lexsort((ids, h))
        fold = np.empty(ids.size, np.int64)
        fold[order] = np.arange(ids.size, dtype=np.int64) % k
        return pd.DataFrame({
            "doc_id": ids,
            "lang": pd.Series(g["lang"].to_numpy(object),
                              dtype=object),
            "fold": fold})

    return (_read(sf_dir, "documents", ["doc_id", "lang"])
            .groupby("lang")
            .map_groups(sweep, batch_format="pandas"))


QUERIES["stratified_kfold_docs"] = stratified_kfold_docs
ORACLE_SQL["stratified_kfold_docs"] = f"""
    WITH src AS (SELECT doc_id, lang, CAST(doc_id AS HUGEINT) AS h
                 FROM documents),
    {_sql_splitmix_ctes("src", carry="doc_id, lang, ")}
    SELECT doc_id, lang,
           CAST((row_number() OVER (PARTITION BY lang
                                    ORDER BY h, doc_id) - 1) % 5
                AS BIGINT) AS fold
    FROM m3
"""


def frequent_triples_events(sf_dir: str, min_support: int = 5):
    """Apriori level-3 itemsets over (user, day) baskets of DISTINCT
    event types: every unordered type triple with support >=
    min_support, plus the directed confidence support(abc) /
    support(ab) against the level-2 pair (one IEEE division of exact
    integer counts). ONE global (user, day, type) distinct feeds both
    levels; inside each coarse basket partition the triple and pair
    expansions iterate over COMBINATION-INDEX PATTERNS (at most
    C(max_basket,3) vectorized gathers — baskets are bounded by the
    type alphabet, asserted <= 24), never over Python rows. The
    finishing join runs driver-side on alphabet-sized tables (<=
    C(|types|,3) rows) — dimension data, not a scale concern."""
    from itertools import combinations

    DAY = np.int64(86_400_000_000)
    BK = np.int64(1 << 20)

    def prep(batch: pa.Table) -> pa.Table:
        us = np.asarray(batch["ts"].cast(pa.int64()), dtype=np.int64)
        u = np.asarray(batch["user_id"], dtype=np.int64)
        d = us // DAY
        if u.size and int(u.max()) >= (1 << 42):
            raise ValueError("basket composite needs user_id < 2^42")
        return pa.table({"bk": pa.array(u * BK + (d % BK)),
                         "event_type": batch["event_type"]})

    distinct = (_read(sf_dir, "events", ["user_id", "ts", "event_type"])
                .map_batches(prep, batch_format="pyarrow")
                .groupby(["bk", "event_type"]).count()
                .select_columns(["bk", "event_type"])
                .materialize())

    def expand(r: int):
        def sweep(g: pd.DataFrame) -> pd.DataFrame:
            g = g.sort_values(["bk", "event_type"], kind="mergesort")
            bk = g["bk"].to_numpy(np.int64)
            typ = g["event_type"].to_numpy(object)
            new = np.empty(bk.size, dtype=bool)
            new[0] = True
            new[1:] = bk[1:] != bk[:-1]
            starts = np.flatnonzero(new)
            sizes = np.diff(np.r_[starts, bk.size])
            smax = int(sizes.max()) if sizes.size else 0
            assert smax <= 24, "basket larger than the type alphabet?"
            cols = [[] for _ in range(r)]
            for idx in combinations(range(smax), r):
                ok = starts[sizes > idx[-1]]
                for c, i in zip(cols, idx):
                    c.append(typ[ok + i])
            if not cols[0]:
                return pd.DataFrame(
                    {f"t{i + 1}": pd.Series([], dtype=object)
                     for i in range(r)})
            return pd.DataFrame(
                {f"t{i + 1}": pd.Series(np.concatenate(cols[i]),
                                        dtype=object)
                 for i in range(r)})
        return sweep

    triples = (keyed_sweep(distinct, "bk", expand(3))
               .groupby(["t1", "t2", "t3"]).count()
               .to_pandas())
    pairs = (keyed_sweep(distinct, "bk", expand(2))
             .groupby(["t1", "t2"]).count()
             .to_pandas())
    tr = triples[triples["count()"] >= min_support]
    m = tr.merge(pairs.rename(columns={"count()": "n_ab"}),
                 on=["t1", "t2"], how="left")
    return pa.table({
        "t1": pa.array(m["t1"].to_numpy(object), pa.string()),
        "t2": pa.array(m["t2"].to_numpy(object), pa.string()),
        "t3": pa.array(m["t3"].to_numpy(object), pa.string()),
        "support": pa.array(m["count()"].to_numpy(np.int64)),
        "confidence": pa.array(m["count()"].to_numpy(np.float64)
                               / m["n_ab"].to_numpy(np.float64))})


QUERIES["frequent_triples_events"] = frequent_triples_events
ORACLE_SQL["frequent_triples_events"] = """
    WITH b AS (SELECT DISTINCT user_id,
                      epoch_us(ts) // 86400000000 AS day,
                      event_type
               FROM events),
    tri AS (SELECT x.event_type AS t1, y.event_type AS t2,
                   z.event_type AS t3,
                   CAST(count(*) AS BIGINT) AS support
            FROM b x
            JOIN b y ON y.user_id = x.user_id AND y.day = x.day
                    AND y.event_type > x.event_type
            JOIN b z ON z.user_id = x.user_id AND z.day = x.day
                    AND z.event_type > y.event_type
            GROUP BY 1, 2, 3),
    pr AS (SELECT x.event_type AS t1, y.event_type AS t2,
                  CAST(count(*) AS BIGINT) AS n_ab
           FROM b x
           JOIN b y ON y.user_id = x.user_id AND y.day = x.day
                   AND y.event_type > x.event_type
           GROUP BY 1, 2)
    SELECT tri.t1, tri.t2, tri.t3, tri.support,
           CAST(tri.support AS DOUBLE) / CAST(pr.n_ab AS DOUBLE)
               AS confidence
    FROM tri JOIN pr ON pr.t1 = tri.t1 AND pr.t2 = tri.t2
    WHERE tri.support >= 5
"""


def value_uniform_quantile(sf_dir: str):
    """Rank-based uniform quantile transform of event value within
    each event_type — the distribution-free feature map u =
    (avg_rank - 1/2) / n in (0, 1), tie classes sharing their average
    rank. Runs on the VALUE-COUNTS plan (groupby (type, cents) then a
    per-type prefix scan over distinct values — never a full sort of
    the raw rows), so the numerator 2*rows_below + tie_count and
    denominator 2n stay exact int64 and the single IEEE division
    hash-matches the SQL rank window. The (type, cents) -> u lookup
    joins back through the size-gated auto_join on a \\x1f composite
    key (broadcast while it fits, bucketed past the gate)."""
    from tldr_ray.stages.joins import auto_join

    def prep(batch: pa.Table) -> pa.Table:
        v = _cents(np.asarray(batch["value"], dtype=np.float64))
        return pa.table({
            "event_id": batch["event_id"].cast(pa.int64()),
            "event_type": batch["event_type"],
            "v": pa.array(v)})

    ev = (_read(sf_dir, "events", ["event_id", "event_type", "value"])
          .map_batches(prep, batch_format="pyarrow").materialize())

    counts = (ev.groupby(["event_type", "v"]).count().to_pandas()
              .sort_values(["event_type", "v"], kind="mergesort"))
    cnt = counts["count()"].to_numpy(np.int64)
    typ = counts["event_type"].to_numpy(object)
    new = np.empty(typ.size, dtype=bool)
    new[0] = True
    new[1:] = typ[1:] != typ[:-1]
    grp = np.cumsum(new) - 1
    tot = np.bincount(grp, weights=cnt).astype(np.int64)
    base = np.cumsum(tot) - tot            # rows before each group
    below = np.cumsum(cnt) - cnt - base[grp]
    num = 2 * below + cnt
    den = 2 * tot[grp]
    key = np.array([t + "\x1f" + str(int(v)) for t, v in
                    zip(typ, counts["v"].to_numpy(np.int64))], object)
    import ray.data as rd
    lut = rd.from_arrow(pa.table({
        "k": pa.array(key, pa.string()),
        "u": pa.array(num.astype(np.float64) / den.astype(np.float64))}))

    def addk(batch: pa.Table) -> pa.Table:
        t = np.asarray(batch["event_type"], dtype=object)
        v = np.asarray(batch["v"], dtype=np.int64)
        k = [a + "\x1f" + str(int(b)) for a, b in zip(t, v)]
        return batch.append_column("k", pa.array(k, pa.string()))

    out = auto_join(ev.map_batches(addk, batch_format="pyarrow"),
                    lut, on="k")
    return out.map_batches(
        lambda t: pa.table({
            "event_id": t["event_id"].cast(pa.int64()),
            "event_type": t["event_type"].cast(pa.string()),
            "v": t["v"].cast(pa.int64()),
            "u": t["u"].cast(pa.float64())}),
        batch_format="pyarrow")


QUERIES["value_uniform_quantile"] = value_uniform_quantile
ORACLE_SQL["value_uniform_quantile"] = """
    WITH e AS (SELECT event_id, event_type,
                      CAST(floor(value * 100 + 0.5) AS BIGINT) AS v
               FROM events)
    SELECT event_id, event_type, v,
           CAST(2 * (rank() OVER (PARTITION BY event_type ORDER BY v)
                     - 1)
                + count(*) OVER (PARTITION BY event_type, v)
                AS DOUBLE)
           / CAST(2 * count(*) OVER (PARTITION BY event_type)
                  AS DOUBLE) AS u
    FROM e
"""


_TEMPORAL_UNROLL = 24


def temporal_reachability_hashgraph(sf_dir: str):
    """Earliest time-respecting arrival from vertex 0 over the hash
    graph with deterministic integer departure times tau(s,t) =
    (s*13 + t*29) % 240 — the temporal-graph primitive (an edge is
    usable only AFTER its source has been reached: arr[u] <= tau, and
    delivers arrival tau), which plain shortest paths cannot express.
    graph.engine.temporal_reach_times: a new temporal_messages kernel
    on the BSP shards reusing the min_apply merge; arrivals are
    picked from the integer timestamp set, so the trajectory is
    bit-deterministic and the 24-round cap matches the unrolled SQL
    relaxation exactly. Unreached -> -1."""
    from tldr_ray.graph import temporal_reach_times

    def stamp(batch: pa.Table) -> pa.Table:
        s = np.asarray(batch["src"], dtype=np.int64)
        t = np.asarray(batch["dst"], dtype=np.int64)
        return pa.table({
            "src": batch["src"], "dst": batch["dst"],
            "weight": pa.array(((s * 13 + t * 29) % 240)
                               .astype(np.float64))})

    ids, arr, info = temporal_reach_times(
        _hash_graph_edges(sf_dir).map_batches(
            stamp, batch_format="pyarrow"),
        seeds=[0], num_partitions=4, max_rounds=_TEMPORAL_UNROLL)
    out = np.where(np.isinf(arr), -1, arr).astype(np.int64)
    return pa.table({"vertex": pa.array(ids),
                     "arrival": pa.array(out)})


def _temporal_oracle_sql(rounds: int = _TEMPORAL_UNROLL) -> str:
    ctes = []
    for i in range(1, rounds + 1):
        prev = f"tr{i - 1}"
        ctes.append(f"""
    tr{i} AS MATERIALIZED (
        SELECT r.v, least(r.d, coalesce(m.md, 'infinity'::DOUBLE)) AS d
        FROM {prev} r
        LEFT JOIN (
            SELECT e.t AS v, min(e.tau) AS md
            FROM {prev} p JOIN e ON e.s = p.v AND e.tau >= p.d
            GROUP BY e.t
        ) m ON m.v = r.v
    )""")
    return f"""
    WITH {_HASHGRAPH_RAW},
    e AS (SELECT s, t, CAST((s * 13 + t * 29) % 240 AS DOUBLE) AS tau
          FROM raw2),
    verts AS (SELECT DISTINCT v FROM
              (SELECT s AS v FROM e UNION ALL SELECT t FROM e)),
    tr0 AS (SELECT v, CASE WHEN v = 0 THEN 0.0
                           ELSE 'infinity'::DOUBLE END AS d FROM verts),
    {",".join(ctes)}
    SELECT v AS vertex,
           CAST(CASE WHEN d = 'infinity'::DOUBLE THEN -1
                     ELSE d END AS BIGINT) AS arrival
    FROM tr{rounds}
"""


QUERIES["temporal_reachability_hashgraph"] = temporal_reachability_hashgraph
ORACLE_SQL["temporal_reachability_hashgraph"] = _temporal_oracle_sql()


def isotonic_purchase_calibration(sf_dir: str, n_buckets: int = 100):
    """Isotonic (PAVA) calibration of purchase probability against
    event value: 100 equi-width cent buckets (exact integer bucket
    math), per-bucket (n, purchases) from per-batch bincount partials
    + one small groupby, then the exact pool-adjacent-violators fit
    (stages.agg.pava_pool — integer cross-multiplied pooling, one
    float division per pooled block). Hash-checkable DESPITE PAVA
    being sequential, via the minimax characterisation p(v) =
    max_{i<=v} min_{j>=v} mean(i..j): the SQL oracle evaluates that
    O(B^3) form over the bucket frame, and correctly-rounded
    divisions of the same rational optimum are bit-equal. The
    driver-side work is O(n_buckets) — dimension data."""
    import ray
    from ray.data.aggregate import Sum

    from tldr_ray.stages.agg import pava_pool

    def cents(batch: pa.Table) -> pa.Table:
        v = _cents(np.asarray(batch["value"], dtype=np.float64))
        y = pc.equal(batch["event_type"], "purchase")
        return pa.table({"v": pa.array(v),
                         "y": pa.array(np.asarray(y).astype(np.int64))})

    ev = (_read(sf_dir, "events", ["event_type", "value"])
          .map_batches(cents, batch_format="pyarrow").materialize())
    lohi = ev.aggregate(ray.data.aggregate.Min("v"),
                        ray.data.aggregate.Max("v"))
    lo, hi = int(lohi["min(v)"]), int(lohi["max(v)"])
    span = hi - lo + 1

    def bucketize(batch: pa.Table) -> pa.Table:
        v = np.asarray(batch["v"], dtype=np.int64)
        y = np.asarray(batch["y"], dtype=np.int64)
        b = (v - lo) * n_buckets // span
        bu = np.unique(b)
        return pa.table({
            "bucket": pa.array(bu),
            "n": pa.array(np.bincount(b - b.min(),
                                      minlength=bu.max() - b.min() + 1)
                          [bu - b.min()].astype(np.int64)),
            "s": pa.array(np.bincount(b - b.min(), weights=y,
                                      minlength=bu.max() - b.min() + 1)
                          [bu - b.min()].astype(np.int64))})

    g = (ev.map_batches(bucketize, batch_format="pyarrow")
         .groupby("bucket")
         .aggregate(Sum("n", alias_name="n"), Sum("s", alias_name="s"))
         .to_pandas().sort_values("bucket"))
    rate, _, _ = pava_pool(g["n"].to_numpy(np.int64),
                           g["s"].to_numpy(np.int64))
    return pa.table({
        "bucket": pa.array(g["bucket"].to_numpy(np.int64)),
        "n": pa.array(g["n"].to_numpy(np.int64)),
        "s": pa.array(g["s"].to_numpy(np.int64)),
        "p_iso": pa.array(rate)})


QUERIES["isotonic_purchase_calibration"] = isotonic_purchase_calibration
ORACLE_SQL["isotonic_purchase_calibration"] = """
    WITH e AS (SELECT CAST(floor(value * 100 + 0.5) AS BIGINT) AS v,
                      CASE WHEN event_type = 'purchase'
                           THEN 1 ELSE 0 END AS y
               FROM events),
    bounds AS (SELECT min(v) AS lo, max(v) AS hi FROM e),
    bk AS (SELECT (v - lo) * 100 // (hi - lo + 1) AS bucket, y
           FROM e, bounds),
    g AS (SELECT bucket, CAST(count(*) AS BIGINT) AS n,
                 CAST(sum(y) AS BIGINT) AS s
          FROM bk GROUP BY 1),
    o AS (SELECT bucket, n, s,
                 sum(n) OVER w AS cn, sum(s) OVER w AS cs,
                 row_number() OVER w AS rn
          FROM g WINDOW w AS (ORDER BY bucket)),
    r AS (SELECT i.rn AS ri, j.rn AS rj,
                 CAST(j.cs - i.cs + i.s AS DOUBLE)
                     / CAST(j.cn - i.cn + i.n AS DOUBLE) AS ratio
          FROM o i JOIN o j ON j.rn >= i.rn),
    mn AS (SELECT r.ri, v.rn AS vr, min(r.ratio) AS mr
           FROM r JOIN o v ON r.ri <= v.rn AND r.rj >= v.rn
           GROUP BY 1, 2),
    p AS (SELECT vr, max(mr) AS p_iso FROM mn GROUP BY 1)
    SELECT o.bucket, o.n, o.s, p.p_iso
    FROM o JOIN p ON p.vr = o.rn
"""


def hilbert_layout_events(sf_dir: str):
    """Hilbert-curve clustering key over (user_id, value_cents) +
    the native range-partition sort (stages.agg.hilbert_sort) — the
    locality-superior sibling of events_zorder_layout: the Hilbert
    path is CONTINUOUS (every consecutive key is a grid neighbor —
    certified by the full-grid pytest), so 2-D range reads touch
    fewer blocks than Morton's quadrant teleports. Pure integer
    rotate/reflect level sweep, unrolled term-for-term in SQL."""
    from tldr_ray.stages.agg import hilbert_sort

    def prep(batch: pa.Table) -> pa.Table:
        v = np.asarray(batch["value"], dtype=np.float64)
        return pa.table({
            "event_id": batch["event_id"].cast(pa.int64()),
            "user_id": batch["user_id"].cast(pa.int64()),
            "value_cents": pa.array(_cents(v))})

    ds = _read(sf_dir, "events", ["event_id", "user_id", "value"]) \
        .map_batches(prep, batch_format="pyarrow")
    out = hilbert_sort(ds, ["user_id", "value_cents"])
    return out.select_columns(["event_id", "hkey"])


def _hilbert_oracle_sql(bits: int = 21) -> str:
    ctes = []
    prev = "h0"
    for lvl in range(bits):
        s = 1 << (bits - 1 - lvl)
        r, h = f"r{lvl}", f"h{lvl + 1}"
        ctes.append(f"""
    {r} AS (SELECT event_id, x, y, d,
            CASE WHEN (x & {s}) > 0 THEN 1 ELSE 0 END AS rx,
            CASE WHEN (y & {s}) > 0 THEN 1 ELSE 0 END AS ry
            FROM {prev}),
    {h} AS (SELECT event_id,
            CASE WHEN ry = 0 THEN
                 CASE WHEN rx = 1 THEN {s - 1} - y ELSE y END
                 ELSE x END AS x,
            CASE WHEN ry = 0 THEN
                 CASE WHEN rx = 1 THEN {s - 1} - x ELSE x END
                 ELSE y END AS y,
            d + CAST({s} AS BIGINT) * {s} * xor(3 * rx, ry) AS d
            FROM {r})""")
        prev = h
    return f"""
    WITH h0 AS (
        SELECT event_id, user_id AS x,
               CAST(floor(value * 100.0 + 0.5) AS BIGINT) AS y,
               CAST(0 AS BIGINT) AS d
        FROM events),
    {",".join(ctes)}
    SELECT event_id, CAST(d AS BIGINT) AS hkey FROM {prev}
"""


QUERIES["hilbert_layout_events"] = hilbert_layout_events
ORACLE_SQL["hilbert_layout_events"] = _hilbert_oracle_sql()


_HRW_NODES = 8


def rendezvous_assignment_users(sf_dir: str):
    """Rendezvous (highest-random-weight) hashing of distinct users
    onto 8 nodes — the shard-placement primitive whose defining
    property is MINIMAL DISRUPTION: removing a node relocates only
    that node's keys (pinned by the pytest), unlike modulo placement
    where nearly everything moves. Score(user, node) =
    splitmix64(user*8 + node), assignment = argmax over nodes
    (vectorized: 8 hash columns, one argmax — no per-row loop).
    Bit-for-bit SQL mirror via the shared splitmix chain + a
    row_number argmax."""
    from tldr_ray.stages.dedup import _mix64

    def assign(batch: pa.Table) -> pa.Table:
        u = np.asarray(batch["user_id"], dtype=np.int64)
        scores = np.stack(
            [_mix64((u * _HRW_NODES + n).astype(np.uint64))
             for n in range(_HRW_NODES)], axis=1)
        return pa.table({
            "user_id": pa.array(u),
            "node": pa.array(np.argmax(scores, axis=1)
                             .astype(np.int64))})

    return (_read(sf_dir, "events", ["user_id"])
            .groupby("user_id").count().select_columns(["user_id"])
            .map_batches(assign, batch_format="pyarrow"))


QUERIES["rendezvous_assignment_users"] = rendezvous_assignment_users
ORACLE_SQL["rendezvous_assignment_users"] = f"""
    WITH src AS (
        SELECT user_id, n,
               CAST(user_id * {_HRW_NODES} + n AS HUGEINT) AS h
        FROM (SELECT DISTINCT user_id FROM events),
             unnest(range({_HRW_NODES})) AS t(n)),
    {_sql_splitmix_ctes("src", carry="user_id, n, ")}
    SELECT user_id, CAST(n AS BIGINT) AS node
    FROM (SELECT user_id, n,
                 row_number() OVER (PARTITION BY user_id
                                    ORDER BY h DESC, n ASC) AS rn
          FROM m3)
    WHERE rn = 1
"""


def hard_negative_mining_embeddings(sf_dir: str):
    """Contrastive-training data mining: for every vector, the single
    most similar vector with a DIFFERENT label — the canonical hard
    negative. Same broadcast-matmul plan as knn_graph_embeddings
    (unit-normalized corpus rides plasma once, float64 scoring so the
    ordering agrees with the SQL oracle's cosine; corpus pre-sorted
    by vec_id so np.argmax's first-max IS the (cos desc, id asc)
    tie-break), with the same-label columns masked to -inf. Emits
    only ids/labels — rank decisions, no float payload."""
    import ray
    import pyarrow.parquet as pq

    from tldr_ray.stages.joins import fits_broadcast

    if not fits_broadcast(_read(sf_dir, "embeddings", ["vec_id"])):
        raise ValueError(
            "exact hard-negative mining is gated at the broadcast "
            "budget; route through stages.ann.knn_lsh candidates at "
            "scale")

    from tldr_ray.stages.ann import _as_matrix, _unit

    corpus = pq.read_table(f"{sf_dir}/embeddings.parquet",
                           columns=["vec_id", "embedding", "label"]) \
        .sort_by("vec_id")
    cids = np.asarray(corpus["vec_id"], dtype=np.int64)
    clab = np.asarray(corpus["label"], dtype=np.int64)
    cmat = _unit(_as_matrix(corpus["embedding"])).astype(np.float64)
    ref = ray.put((cids, clab, cmat))

    def mine(batch: pa.Table) -> pa.Table:
        ids_, labs_, mat_ = ray.get(ref)
        mat = _unit(_as_matrix(batch["embedding"])).astype(np.float64)
        lab = np.asarray(batch["label"], dtype=np.int64)
        ids = np.asarray(batch["vec_id"], dtype=np.int64)
        cos = mat @ mat_.T
        cos[lab[:, None] == labs_[None, :]] = -np.inf
        j = np.argmax(cos, axis=1)      # first max = smallest vec_id
        ok = ~np.isneginf(cos[np.arange(ids.size), j])
        return pa.table({
            "vec_id": pa.array(ids[ok]),
            "label": pa.array(lab[ok]),
            "hard_neg_id": pa.array(ids_[j[ok]]),
            "neg_label": pa.array(labs_[j[ok]])})

    return _read(sf_dir, "embeddings",
                 ["vec_id", "embedding", "label"]) \
        .map_batches(mine, batch_format="pyarrow")


QUERIES["hard_negative_mining_embeddings"] = hard_negative_mining_embeddings
ORACLE_SQL["hard_negative_mining_embeddings"] = """
    WITH sc AS (
        SELECT a.vec_id, CAST(a.label AS BIGINT) AS label,
               b.vec_id AS nbr, CAST(b.label AS BIGINT) AS lb,
               list_cosine_similarity(a.embedding, b.embedding) AS cos
        FROM embeddings a JOIN embeddings b ON b.label != a.label),
    rk AS (
        SELECT vec_id, label, nbr, lb,
               row_number() OVER (PARTITION BY vec_id
                                  ORDER BY cos DESC, nbr ASC) AS rn
        FROM sc)
    SELECT vec_id, label, nbr AS hard_neg_id, lb AS neg_label
    FROM rk WHERE rn = 1
"""


def sorted_neighborhood_name_pairs(sf_dir: str,
                                   threshold: float = 0.85):
    """Sorted-neighborhood (merge/purge) similarity join over customer
    names: candidates = distinct names within 3 positions of each
    other in the global sort order (stages.dedup.
    sorted_neighborhood_pairs — two-pass distributed rank scan +
    exactly-once window-bucket expansion, the third blocking family
    next to FastSS and MinHash-LSH), then scored with the plain Jaro
    (kernel.distance.jaro_standard — BIT-EQUAL to DuckDB's
    jaro_similarity) and kept at >= 0.85. Emits (w1, w2, dist, jaro);
    scoring touches only the O(n*window) candidate set."""
    from tldr_ray.kernel.distance import jaro_standard
    from tldr_ray.stages.dedup import sorted_neighborhood_pairs

    pairs = sorted_neighborhood_pairs(
        _read(sf_dir, "customer", ["c_name"]), col="c_name", window=3)

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        j = np.array([jaro_standard(a, b) for a, b in
                      zip(batch["w1"], batch["w2"])], np.float64)
        keep = j >= threshold
        return pd.DataFrame({
            "w1": pd.Series(batch["w1"].to_numpy(object)[keep],
                            dtype=object),
            "w2": pd.Series(batch["w2"].to_numpy(object)[keep],
                            dtype=object),
            "dist": batch["dist"].to_numpy(np.int64)[keep],
            "jaro": j[keep]})

    return pairs.map_batches(score, batch_format="pandas")


QUERIES["sorted_neighborhood_name_pairs"] = sorted_neighborhood_name_pairs
ORACLE_SQL["sorted_neighborhood_name_pairs"] = """
    WITH v AS (SELECT DISTINCT c_name AS w FROM customer),
    r AS (SELECT w, row_number() OVER (ORDER BY w) - 1 AS rn FROM v)
    SELECT a.w AS w1, b.w AS w2,
           CAST(b.rn - a.rn AS BIGINT) AS dist,
           jaro_similarity(a.w, b.w) AS jaro
    FROM r a JOIN r b ON b.rn > a.rn AND b.rn <= a.rn + 3
    WHERE jaro_similarity(a.w, b.w) >= 0.85
"""


def topk_agreement_profile(sf_dir: str, k: int = 25):
    """Rank-stability audit between two leaderboards: top-25 users by
    total spend vs by event count — per depth d, the overlap
    |topA_d ∩ topB_d| (exact int) and agreement overlap/d (one
    division per row), the depth profile RBO and Kendall distill.
    The distributed work is ONE tagged groupby producing both metrics
    per user, then each leaderboard's k winners come back via
    per-block top-k PARTIALS (each block forwards <= k rows, the
    driver merges 2k*blocks candidates) — the driver never holds the
    user-level frame, so the plan survives 10^9 users."""
    from ray.data.aggregate import Count, Sum

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch["user_id"].cast(pa.int64()),
            "cents": pa.array(_cents(np.asarray(
                batch["value"], dtype=np.float64)))})

    per_user = (_read(sf_dir, "events", ["user_id", "value"])
                .map_batches(prep, batch_format="pyarrow")
                .groupby("user_id")
                .aggregate(Sum("cents", alias_name="spend"),
                           Count(alias_name="n"))
                .materialize())

    def topk_partial(col):
        def f(batch: pa.Table) -> pa.Table:
            uid_ = np.asarray(batch["user_id"], dtype=np.int64)
            m = np.asarray(batch[col], dtype=np.int64)
            sel = np.lexsort((uid_, -m))[:k]
            return pa.table({"user_id": pa.array(uid_[sel]),
                             "m": pa.array(m[sel])})
        return f

    def winners(col):
        p = per_user.map_batches(topk_partial(col),
                                 batch_format="pyarrow").to_pandas()
        uid_ = p["user_id"].to_numpy(np.int64)
        m = p["m"].to_numpy(np.int64)
        return uid_[np.lexsort((uid_, -m))][:k]

    by_spend = winners("spend")
    by_count = winners("n")
    depths = np.arange(1, k + 1, dtype=np.int64)
    overlap = np.array(
        [len(set(by_spend[:d]) & set(by_count[:d])) for d in depths],
        np.int64)
    return pa.table({
        "depth": pa.array(depths),
        "overlap": pa.array(overlap),
        "agreement": pa.array(overlap.astype(np.float64)
                              / depths.astype(np.float64))})


QUERIES["topk_agreement_profile"] = topk_agreement_profile
ORACLE_SQL["topk_agreement_profile"] = """
    WITH g AS (SELECT user_id,
                      CAST(sum(CAST(floor(value * 100 + 0.5) AS
                                    BIGINT)) AS BIGINT) AS spend,
                      CAST(count(*) AS BIGINT) AS n
               FROM events GROUP BY user_id),
    ra AS (SELECT user_id, row_number() OVER
               (ORDER BY spend DESC, user_id ASC) AS r FROM g),
    rb AS (SELECT user_id, row_number() OVER
               (ORDER BY n DESC, user_id ASC) AS r FROM g),
    d AS (SELECT unnest(range(1, 26)) AS depth),
    ov AS (SELECT d.depth,
                  CAST(count(*) AS BIGINT) AS overlap
           FROM d LEFT JOIN ra ON ra.r <= d.depth
           JOIN rb ON rb.user_id = ra.user_id AND rb.r <= d.depth
           GROUP BY d.depth)
    SELECT CAST(d.depth AS BIGINT) AS depth,
           coalesce(ov.overlap, 0) AS overlap,
           CAST(coalesce(ov.overlap, 0) AS DOUBLE)
               / CAST(d.depth AS DOUBLE) AS agreement
    FROM d LEFT JOIN ov ON ov.depth = d.depth
"""


def cdc_chunk_dedup_docs(sf_dir: str):
    """Byte-level content-defined-chunking dedup report per source
    (the backup-system / dataset-diff primitive, and the byte-level
    member of the dedup family next to word-gram and MinHash):
    every document chunks by the VECTORIZED Gear rolling hash
    (stages.dedup.gear_chunk_spans — FastCDC cut rule, 64 shifted
    adds over the byte array, boundaries depend only on local bytes
    so edits relocate one chunk, pinned by pytest), chunks fingerprint
    with FNV-1a over their bytes, and per source we report
    (n_docs, n_chunks, n_unique_chunks, dup_chunk_fraction).
    Rows-only: a per-byte rolling hash with reset state has no
    tractable SQL mirror; the chunker itself is pinned by the
    vectorized==sequential-definition pytest."""
    from ray.data.aggregate import Count, Sum

    from tldr_ray.stages.dedup import gear_chunk_spans

    from tldr_ray.stages.dedup import _mix64

    def chunk(batch: pa.Table) -> pa.Table:
        srcs, fps = [], []
        for s, t in zip(batch["source"].to_pylist(),
                        batch["text"].to_pylist()):
            data = t.encode("utf-8")
            spans = gear_chunk_spans(data)
            if not spans:
                continue
            b = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
            starts = np.array([a for a, _ in spans], np.int64)
            lens = np.diff(np.r_[starts, b.size])
            # order-sensitive vectorized fingerprint: mix each byte
            # with its WITHIN-CHUNK position, mod-2^64 sum per span
            local = (np.arange(b.size, dtype=np.int64)
                     - np.repeat(starts, lens)).astype(np.uint64)
            vals = _mix64(b ^ _mix64(local))
            fp = np.add.reduceat(vals, starts)      # uint64 wraps
            srcs.extend([s] * len(spans))
            fps.append(fp.astype(np.int64))
        if not fps:
            return pa.table({"source": pa.array([], pa.string()),
                             "fp": pa.array([], pa.int64())})
        return pa.table({
            "source": pa.array(srcs, pa.string()),
            "fp": pa.array(np.concatenate(fps))})

    per_fp = (_read(sf_dir, "documents", ["source", "text"])
              .map_batches(chunk, batch_format="pyarrow")
              .groupby(["source", "fp"])
              .aggregate(Count(alias_name="c")))

    docs = (_read(sf_dir, "documents", ["source"])
            .groupby("source").count().to_pandas()
            .rename(columns={"count()": "n_docs"}))

    g = (per_fp.map_batches(
            lambda t: pa.table({
                "source": t["source"],
                "one": pa.array(np.ones(len(t), np.int64)),
                "c": t["c"].cast(pa.int64())}),
            batch_format="pyarrow")
         .groupby("source")
         .aggregate(Sum("one", alias_name="n_unique"),
                    Sum("c", alias_name="n_chunks"))
         .to_pandas())
    m = g.merge(docs, on="source").sort_values("source")
    uq = m["n_unique"].to_numpy(np.int64)
    nc = m["n_chunks"].to_numpy(np.int64)
    return pa.table({
        "source": pa.array(m["source"].to_numpy(object), pa.string()),
        "n_docs": pa.array(m["n_docs"].to_numpy(np.int64)),
        "n_chunks": pa.array(nc),
        "n_unique_chunks": pa.array(uq),
        "dup_chunk_fraction": pa.array(
            (nc - uq).astype(np.float64) / nc.astype(np.float64))})


QUERIES["cdc_chunk_dedup_docs"] = cdc_chunk_dedup_docs


_MERKLE_LEAVES = 16
_MERKLE_C = 0x9E3779B97F4A7C15


def merkle_tree_orders(sf_dir: str):
    """Merkle digest tree over the orders table — the hierarchical
    form of table_checksum_orders that LOCALIZES a mismatch: compare
    two snapshots root-first and descend only into unequal subtrees,
    O(log buckets) digest comparisons instead of re-scanning either
    table. Leaves = 16 splitmix64(o_orderkey) %% 16 buckets, each an
    order-independent mod-2^64 sum of the canonical row digests
    (layout-proof); parents = splitmix64(left + right*C mod 2^64)
    (order-SENSITIVE — sibling swap must change the root). One uint64
    x 16 partial per block; the tree folds driver-side in python
    ints. Hash-checked bit-for-bit against the recursive-FNV +
    per-level suffixed splitmix SQL mirror."""
    from tldr_ray.hashing import fnv1a_batch
    from tldr_ray.stages.dedup import _mix64

    L = _MERKLE_LEAVES

    def partial(batch: pa.Table) -> pa.Table:
        s = pc.binary_join_element_wise(
            pc.cast(batch["o_orderkey"], pa.string()),
            pc.cast(batch["o_custkey"], pa.string()),
            pc.cast(pa.array(_cents(np.asarray(
                batch["o_totalprice"], dtype=np.float64))), pa.string()),
            "|")
        h = _mix64(fnv1a_batch(s))
        b = (_mix64(np.asarray(batch["o_orderkey"], np.int64)
                    .astype(np.uint64)) % np.uint64(L)).astype(np.int64)
        sums = np.zeros(L, np.uint64)
        np.add.at(sums, b, h)
        return pa.table({
            "bucket": pa.array(np.arange(L, dtype=np.int64)),
            "part_sum": pa.array(sums, pa.uint64())})

    parts = (_read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_totalprice"])
             .map_batches(partial, batch_format="pyarrow").to_pandas())
    leaves = [0] * L
    for bkt, ps in zip(parts["bucket"].to_numpy(np.int64),
                       parts["part_sum"].to_numpy(np.uint64)):
        leaves[int(bkt)] = (leaves[int(bkt)] + int(ps)) % (1 << 64)

    def mix(x: int) -> int:
        v = np.uint64(x)
        return int(_mix64(np.array([v], np.uint64))[0])

    rows = [(0, i, d) for i, d in enumerate(leaves)]
    level, cur = 0, leaves
    while len(cur) > 1:
        nxt = [mix((cur[2 * i] + cur[2 * i + 1] * _MERKLE_C)
                   % (1 << 64))
               for i in range(len(cur) // 2)]
        level += 1
        rows.extend((level, i, d) for i, d in enumerate(nxt))
        cur = nxt
    return pa.table({
        "level": pa.array([r[0] for r in rows], pa.int64()),
        "idx": pa.array([r[1] for r in rows], pa.int64()),
        "digest": pa.array([str(r[2]) for r in rows], pa.string())})


def _merkle_oracle_sql() -> str:
    L, C, M64 = _MERKLE_LEAVES, _MERKLE_C, _SQL_M64
    C1, C2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

    def mix_chain(tag: str, src: str, xexpr: str, carry_first: str,
                  carry: str | None = None) -> str:
        """Suffixed splitmix finalizer CTEs (the p{t} pattern).
        carry_first may RENAME pass-through columns (e.g. "h AS
        rowd"); later steps must re-carry the new names."""
        carry = carry_first if carry is None else carry
        return f"""
    {tag}0 AS MATERIALIZED (SELECT {carry_first}{xexpr} AS h FROM {src}),
    {tag}1 AS MATERIALIZED (
        SELECT {carry}{_sql_mul64(_sql_xor_shift('h', 30), C1)} AS h
        FROM {tag}0),
    {tag}2 AS MATERIALIZED (
        SELECT {carry}{_sql_mul64(_sql_xor_shift('h', 27), C2)} AS h
        FROM {tag}1),
    {tag}3 AS MATERIALIZED (
        SELECT {carry}{_sql_xor_shift('h', 31)} AS h FROM {tag}2)"""

    # bucket of each row from its orderkey (prefix of the canonical s)
    parts = [mix_chain(
        "bk", "m3",        # m3 = the splitmixed row digest (the
        # engine's _mix64(fnv1a(s))), NOT hh's raw FNV
        "CAST(split_part(s, '|', 1) AS HUGEINT)",
        "s, h AS rowd, ", "s, rowd, ")]
    parts.append(f"""
    lv0 AS MATERIALIZED (
        SELECT g.idx,
               coalesce(CAST(sum(bk3.rowd) % {M64} AS HUGEINT), 0)
                   AS digest
        FROM (SELECT unnest(range({L})) AS idx) g
        LEFT JOIN bk3 ON CAST(bk3.h % {L} AS BIGINT) = g.idx
        GROUP BY g.idx)""")
    finals = [f"SELECT 0 AS level, idx, digest FROM lv0"]
    width, lvl = L, 0
    while width > 1:
        lvl += 1
        width //= 2
        pair = f"""
    pr{lvl} AS MATERIALIZED (
        SELECT a.idx AS idx,
               (a.digest + {_sql_mul64('b.digest', C)}) % {M64} AS x
        FROM (SELECT idx // 2 AS idx, digest FROM lv{lvl - 1}
              WHERE idx % 2 = 0) a
        JOIN (SELECT idx // 2 AS idx, digest FROM lv{lvl - 1}
              WHERE idx % 2 = 1) b ON b.idx = a.idx)"""
        parts.append(pair)
        parts.append(mix_chain(f"q{lvl}", f"pr{lvl}", "x", "idx, "))
        parts.append(f"""
    lv{lvl} AS MATERIALIZED (
        SELECT idx, h AS digest FROM q{lvl}3)""")
        finals.append(f"SELECT {lvl} AS level, idx, digest FROM lv{lvl}")
    return f"""
    WITH RECURSIVE {_sql_fnv_cte(
        "SELECT CAST(o_orderkey AS VARCHAR) || '|' || "
        "CAST(o_custkey AS VARCHAR) || '|' || "
        "CAST(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) "
        "AS VARCHAR) AS s FROM orders")},
    {_sql_splitmix_ctes("hh", carry="s, ")},
    {",".join(parts)},
    tree AS ({" UNION ALL ".join(finals)})
    SELECT CAST(level AS BIGINT) AS level, CAST(idx AS BIGINT) AS idx,
           CAST(digest AS VARCHAR) AS digest
    FROM tree
"""


QUERIES["merkle_tree_orders"] = merkle_tree_orders
ORACLE_SQL["merkle_tree_orders"] = _merkle_oracle_sql()


_MAXCOV_K = 10


def max_coverage_docs(sf_dir: str, k: int = _MAXCOV_K):
    """Greedy maximum-coverage document selection (the lazy-greedy
    facility-location objective instruction-tuning data selection
    uses): pick up to k docs maximizing newly-covered vocabulary,
    ties to the smallest doc_id, stopping when no doc adds coverage.
    The synth vocabulary fits a 64-bit mask (guarded), so coverage
    is EXACT bitmask algebra on both sides: per-doc masks = one
    distributed OR pass over bit indices (global word->bit map =
    alphabetical dense rank, broadcast once); each greedy round is a
    distributed argmax of popcount(mask & ~covered) — a composite
    max partial per block, O(1) to the driver. Emits (pick_rank,
    doc_id, gain, covered_after). 1-1/e approximation guarantee by
    submodularity; the 31-word vocab makes tests exact."""
    import ray
    from ray.data.aggregate import Max

    words = (_read(sf_dir, "documents", ["text"])
             .map_batches(
                 lambda t: pa.table({"w": pc.unique(
                     pc.list_flatten(pc.utf8_split_whitespace(
                         pc.utf8_lower(t["text"]))))}),
                 batch_format="pyarrow")
             .groupby("w").count().to_pandas())
    vocab = sorted(x for x in words["w"].tolist() if x)
    if len(vocab) > 63:
        raise ValueError(f"{len(vocab)} words exceed the 64-bit mask "
                         "fast path; switch to the multi-word-mask "
                         "variant")
    bit = {w: i for i, w in enumerate(vocab)}
    bref = ray.put(bit)

    def mask(batch: pa.Table) -> pa.Table:
        bm = ray.get(bref)
        ids = np.asarray(batch["doc_id"], dtype=np.int64)
        out = np.zeros(ids.size, np.int64)
        toks = pc.utf8_split_whitespace(pc.utf8_lower(batch["text"]))
        for i, ws in enumerate(toks.to_pylist()):
            m = 0
            for w in ws:
                if w:
                    m |= 1 << bm[w]
            out[i] = m
        return pa.table({"doc_id": pa.array(ids),
                         "mask": pa.array(out)})

    masks = (_read(sf_dir, "documents", ["doc_id", "text"])
             .map_batches(mask, batch_format="pyarrow").materialize())

    covered = 0
    picks = []
    for r in range(k):
        cov = covered

        def gain(batch: pa.Table, _c=cov) -> pa.Table:
            m = np.asarray(batch["mask"], dtype=np.int64)
            ids = np.asarray(batch["doc_id"], dtype=np.int64)
            new = m & ~np.int64(_c)
            g = np.zeros(ids.size, np.int64)
            for b in range(len(vocab)):     # popcount via bit sweep
                g += (new >> np.int64(b)) & np.int64(1)
            # composite argmax partial: (gain desc, doc_id asc)
            j = int(np.lexsort((ids, -g))[0]) if ids.size else 0
            return pa.table({
                "best": pa.array([np.int64(g[j]) * (1 << 40)
                                  - ids[j]], pa.int64()),
                "g": pa.array([g[j]], pa.int64()),
                "doc_id": pa.array([ids[j]], pa.int64()),
                "mask": pa.array([m[j]], pa.int64())})

        part = masks.map_batches(gain, batch_format="pyarrow") \
            .to_pandas()
        j = part["best"].to_numpy(np.int64).argmax()
        g = int(part["g"].iloc[j])
        if g == 0:
            break
        did = int(part["doc_id"].iloc[j])
        covered |= int(part["mask"].iloc[j])
        picks.append((r + 1, did, g,
                      bin(covered).count("1")))
    return pa.table({
        "pick_rank": pa.array([p[0] for p in picks], pa.int64()),
        "doc_id": pa.array([p[1] for p in picks], pa.int64()),
        "gain": pa.array([p[2] for p in picks], pa.int64()),
        "covered_after": pa.array([p[3] for p in picks], pa.int64())})


def _maxcov_oracle_sql(k: int = _MAXCOV_K) -> str:
    ctes = ["""
    toks AS (SELECT doc_id, unnest(regexp_split_to_array(lower(text),
                                                         '\\s+')) AS w
             FROM documents),
    bits AS (SELECT w, row_number() OVER (ORDER BY w) - 1 AS b
             FROM (SELECT DISTINCT w FROM toks WHERE w != '')),
    dm AS MATERIALIZED (
        SELECT t.doc_id,
               bit_or(CAST(1 AS BIGINT) << b) AS mask
        FROM (SELECT DISTINCT doc_id, w FROM toks WHERE w != '') t
        JOIN bits ON bits.w = t.w
        GROUP BY t.doc_id),
    c0 AS (SELECT CAST(0 AS BIGINT) AS cov)"""]
    finals = []
    for r in range(1, k + 1):
        ctes.append(f"""
    p{r} AS MATERIALIZED (
        SELECT doc_id, mask,
               bit_count(mask & ~(SELECT cov FROM c{r - 1})) AS g
        FROM dm
        ORDER BY g DESC, doc_id ASC LIMIT 1),
    c{r} AS (SELECT CAST((SELECT cov FROM c{r - 1})
                 | coalesce((SELECT mask FROM p{r} WHERE g > 0), 0)
                 AS BIGINT) AS cov)""")
        finals.append(f"""
    SELECT CAST({r} AS BIGINT) AS pick_rank,
           doc_id, CAST(g AS BIGINT) AS gain,
           CAST(bit_count((SELECT cov FROM c{r})) AS BIGINT)
               AS covered_after
    FROM p{r} WHERE g > 0""")
    return f"""
    WITH {",".join(ctes)}
    {" UNION ALL ".join(finals)}
"""


QUERIES["max_coverage_docs"] = max_coverage_docs
ORACLE_SQL["max_coverage_docs"] = _maxcov_oracle_sql()


def multi_touch_attribution(sf_dir: str):
    """Position-based (U-shaped 40/20/40) multi-touch attribution:
    each purchase credits the clicks by the SAME user in the trailing
    1-hour window — 100% to a lone touch, 50/50 to two, else 2/5 to
    first and last and the middle 1/5 split evenly. Credits are EXACT
    RATIONALS (credit_num/credit_den int64) with one float division
    per row; the window pairs come from the bucketed range_join (one
    shuffle per side) and positions from one coarse per-purchase
    sweep. The per-purchase credit mass sums to exactly 1 — the
    invariant last-touch attribution silently breaks under windowing."""
    from tldr_ray.stages.joins import range_join

    def side(kind):
        def f(batch: pa.Table) -> pa.Table:
            t = batch.filter(pc.equal(batch["event_type"], kind))
            return pa.table({
                "event_id": t["event_id"].cast(pa.int64()),
                "user_id": t["user_id"].cast(pa.int64()),
                "ts": t["ts"]})
        return f

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts",
                                  "event_type"])
    purchases = ev.map_batches(side("purchase"), batch_format="pyarrow")
    clicks = ev.map_batches(side("click"), batch_format="pyarrow")
    pairs = range_join(purchases, clicks, on="user_id",
                       left_ts="ts", right_ts="ts",
                       before="1h", after="0s")

    def credit(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["event_id", "ts_r", "event_id_r"],
                          kind="mergesort")
        pid = g["event_id"].to_numpy(np.int64)
        new = np.empty(pid.size, dtype=bool)
        new[0] = True
        new[1:] = pid[1:] != pid[:-1]
        starts = np.flatnonzero(new)
        sizes = np.diff(np.r_[starts, pid.size])
        seg = np.cumsum(new) - 1
        k = sizes[seg]
        pos = np.arange(pid.size, dtype=np.int64) - starts[seg]
        num = np.ones(pid.size, np.int64)
        den = np.ones(pid.size, np.int64)
        two = k == 2
        num[two], den[two] = 1, 2
        multi = k >= 3
        first = multi & (pos == 0)
        last = multi & (pos == k - 1)
        mid = multi & ~first & ~last
        num[first | last], den[first | last] = 2, 5
        num[mid] = 1
        den[mid] = 5 * (k[mid] - 2)
        return pd.DataFrame({
            "purchase_id": pid,
            "click_id": g["event_id_r"].to_numpy(np.int64),
            "n_touches": k,
            "position": pos + 1,
            "credit_num": num,
            "credit_den": den,
            "credit": num.astype(np.float64) / den.astype(np.float64)})

    return keyed_sweep(pairs, "event_id", credit)


QUERIES["multi_touch_attribution"] = multi_touch_attribution
ORACLE_SQL["multi_touch_attribution"] = """
    WITH p AS (SELECT event_id, user_id, ts FROM events
               WHERE event_type = 'purchase'),
    c AS (SELECT event_id, user_id, ts FROM events
          WHERE event_type = 'click'),
    pr AS (SELECT p.event_id AS purchase_id, c.event_id AS click_id,
                  c.ts AS cts
           FROM p JOIN c ON c.user_id = p.user_id
                        AND c.ts BETWEEN p.ts - INTERVAL 1 HOUR
                                     AND p.ts),
    r AS (SELECT purchase_id, click_id,
                 row_number() OVER w AS position,
                 CAST(count(*) OVER (PARTITION BY purchase_id)
                      AS BIGINT) AS n_touches
          FROM pr WINDOW w AS (PARTITION BY purchase_id
                               ORDER BY cts, click_id))
    SELECT purchase_id, click_id, n_touches,
           CAST(position AS BIGINT) AS position,
           CAST(CASE WHEN n_touches = 1 THEN 1
                     WHEN n_touches = 2 THEN 1
                     WHEN position = 1 OR position = n_touches THEN 2
                     ELSE 1 END AS BIGINT) AS credit_num,
           CAST(CASE WHEN n_touches = 1 THEN 1
                     WHEN n_touches = 2 THEN 2
                     WHEN position = 1 OR position = n_touches THEN 5
                     ELSE 5 * (n_touches - 2) END AS BIGINT)
               AS credit_den,
           CAST(CASE WHEN n_touches = 1 THEN 1
                     WHEN n_touches = 2 THEN 1
                     WHEN position = 1 OR position = n_touches THEN 2
                     ELSE 1 END AS DOUBLE)
           / CAST(CASE WHEN n_touches = 1 THEN 1
                       WHEN n_touches = 2 THEN 2
                       WHEN position = 1 OR position = n_touches THEN 5
                       ELSE 5 * (n_touches - 2) END AS DOUBLE)
               AS credit
    FROM r
"""


def lag_features_user_day(sf_dir: str):
    """ML lag-feature table: per (user, day) the day's spend/count
    plus the same user's spend 1 and 7 days earlier (0 + a presence
    flag when the user was idle that day — no NULLs leak into the
    feature matrix). One grouped aggregate then one coarse sweep per
    user; the lag lookups are two searchsorted probes over the user's
    own day index — never a self-join. Calendar-free integer day
    keys; exact cents."""
    from ray.data.aggregate import Count, Sum

    DAY = np.int64(86_400_000_000)

    def prep(batch: pa.Table) -> pa.Table:
        us = np.asarray(batch["ts"].cast(pa.int64()), dtype=np.int64)
        return pa.table({
            "user_id": batch["user_id"].cast(pa.int64()),
            "day": pa.array(us // DAY),
            "cents": pa.array(_cents(np.asarray(
                batch["value"], dtype=np.float64)))})

    daily = (_read(sf_dir, "events", ["user_id", "ts", "value"])
             .map_batches(prep, batch_format="pyarrow")
             .groupby(["user_id", "day"])
             .aggregate(Sum("cents", alias_name="spend"),
                        Count(alias_name="n_events")))

    def sweep(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "day"], kind="mergesort")
        uid = g["user_id"].to_numpy(np.int64)
        day = g["day"].to_numpy(np.int64)
        spend = g["spend"].to_numpy(np.int64)
        # composite key makes each user's block a sorted run
        comp = uid * np.int64(1 << 20) + (day % np.int64(1 << 20))
        out = {}
        for lag in (1, 7):
            want = uid * np.int64(1 << 20) + ((day - lag)
                                              % np.int64(1 << 20))
            pos = np.searchsorted(comp, want)
            pos = np.minimum(pos, comp.size - 1)
            hit = comp[pos] == want
            v = np.zeros(uid.size, np.int64)
            v[hit] = spend[pos[hit]]
            out[lag] = (v, hit.astype(np.int64))
        return pd.DataFrame({
            "user_id": uid, "day": day, "spend": spend,
            "n_events": g["n_events"].to_numpy(np.int64),
            "spend_d1": out[1][0], "has_d1": out[1][1],
            "spend_d7": out[7][0], "has_d7": out[7][1]})

    return keyed_sweep(daily, "user_id", sweep)


QUERIES["lag_features_user_day"] = lag_features_user_day
ORACLE_SQL["lag_features_user_day"] = """
    WITH d AS (SELECT user_id, epoch_us(ts) // 86400000000 AS day,
                      CAST(sum(CAST(floor(value * 100 + 0.5)
                                    AS BIGINT)) AS BIGINT) AS spend,
                      CAST(count(*) AS BIGINT) AS n_events
               FROM events GROUP BY 1, 2)
    SELECT d.user_id, d.day, d.spend, d.n_events,
           coalesce(l1.spend, 0) AS spend_d1,
           CAST(CASE WHEN l1.user_id IS NULL THEN 0 ELSE 1 END
                AS BIGINT) AS has_d1,
           coalesce(l7.spend, 0) AS spend_d7,
           CAST(CASE WHEN l7.user_id IS NULL THEN 0 ELSE 1 END
                AS BIGINT) AS has_d7
    FROM d
    LEFT JOIN d l1 ON l1.user_id = d.user_id AND l1.day = d.day - 1
    LEFT JOIN d l7 ON l7.user_id = d.user_id AND l7.day = d.day - 7
"""


def degree_cap_hashgraph(sf_dir: str, k: int = 3):
    """Graph sparsification by per-source degree capping: keep each
    vertex's top-k outgoing edges by (weight desc, dst asc) — the
    standard pre-filter that bounds hub fan-out before an expensive
    traversal (a 10^7-degree hub otherwise dominates every
    PageRank/walk round). One coarse sweep on hash(src); inside each
    task the rank-1..k selection is a single lexsort + segment
    position mask, no per-vertex loop."""
    def cap(g: pd.DataFrame) -> pd.DataFrame:
        s = g["src"].to_numpy(np.int64)
        d = g["dst"].to_numpy(np.int64)
        w = g["weight"].to_numpy(np.float64)
        order = np.lexsort((d, -w, s))
        s, d, w = s[order], d[order], w[order]
        new = np.empty(s.size, dtype=bool)
        new[0] = True
        new[1:] = s[1:] != s[:-1]
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        pos = np.arange(s.size, dtype=np.int64) - starts[seg]
        keep = pos < k
        return pd.DataFrame({
            "src": s[keep], "dst": d[keep], "weight": w[keep],
            "rank": pos[keep] + 1})

    return keyed_sweep(_hash_graph_edges_weighted(sf_dir), "src", cap)


QUERIES["degree_cap_hashgraph"] = degree_cap_hashgraph
ORACLE_SQL["degree_cap_hashgraph"] = f"""
    WITH {_HASHGRAPH_RAW},
    e AS (SELECT s, t, ((s * 31 + t * 17) % 97 + 1) / 100.0 AS w
          FROM raw2),
    r AS (SELECT s, t, w,
                 row_number() OVER (PARTITION BY s
                                    ORDER BY w DESC, t ASC) AS rnk
          FROM e)
    SELECT s AS src, t AS dst, w AS weight, CAST(rnk AS BIGINT) AS rank
    FROM r WHERE rnk <= 3
"""


def rrf_fusion_users(sf_dir: str, k: int = 60, top: int = 50):
    """Reciprocal-rank fusion of two user leaderboards (total spend
    and event count — the IR trick for combining rankings without
    score calibration): RRF = 1/(k + rank_spend) + 1/(k + rank_count)
    — a FIXED two-division one-add float chain per user, so the
    scores hash-match; ranks are deterministic (metric desc, user_id
    asc). SCALE PLAN: a global-top-50 RRF winner must sit inside some
    list's top M = 2*(k+top) (outside both, rrf <= 2/(k+M+1) <
    1/(k+top), the floor any single-list top-`top` user clears), so
    per-block top-M partials nominate <= 2M candidates, and ONE
    broadcast-threshold pass counts each candidate's EXACT global
    rank (1 + #users strictly better under the (metric, id) order) —
    the driver never holds the user-level frame."""
    import ray
    from ray.data.aggregate import Count, Sum

    M = 2 * (k + top)

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch["user_id"].cast(pa.int64()),
            "cents": pa.array(_cents(np.asarray(
                batch["value"], dtype=np.float64)))})

    per_user = (_read(sf_dir, "events", ["user_id", "value"])
                .map_batches(prep, batch_format="pyarrow")
                .groupby("user_id")
                .aggregate(Sum("cents", alias_name="spend"),
                           Count(alias_name="n"))
                .materialize())

    def top_partial(col):
        def f(batch: pa.Table) -> pa.Table:
            uid_ = np.asarray(batch["user_id"], dtype=np.int64)
            m = np.asarray(batch[col], dtype=np.int64)
            sel = np.lexsort((uid_, -m))[:M]
            return pa.table({"user_id": pa.array(uid_[sel]),
                             "spend": batch["spend"].take(
                                 pa.array(sel)),
                             "n": batch["n"].take(pa.array(sel))})
        return f

    cands = pd.concat([
        per_user.map_batches(top_partial(c), batch_format="pyarrow")
        .to_pandas() for c in ("spend", "n")]) \
        .drop_duplicates("user_id")

    def nominate(col):
        c = cands.sort_values([col, "user_id"],
                              ascending=[False, True]).head(M)
        return c

    cands = pd.concat([nominate("spend"), nominate("n")]) \
        .drop_duplicates("user_id").reset_index(drop=True)
    cu = cands["user_id"].to_numpy(np.int64)
    cref = ray.put((cu, cands["spend"].to_numpy(np.int64),
                    cands["n"].to_numpy(np.int64)))

    def rank_partial(batch: pa.Table) -> pa.Table:
        ku, ks, kn = ray.get(cref)
        uid_ = np.asarray(batch["user_id"], dtype=np.int64)
        sp = np.asarray(batch["spend"], dtype=np.int64)
        nn = np.asarray(batch["n"], dtype=np.int64)
        # users strictly better than each candidate under (m desc,
        # id asc): m > m_c, or m == m_c and id < id_c
        better_s = ((sp[:, None] > ks[None, :])
                    | ((sp[:, None] == ks[None, :])
                       & (uid_[:, None] < ku[None, :]))).sum(axis=0)
        better_n = ((nn[:, None] > kn[None, :])
                    | ((nn[:, None] == kn[None, :])
                       & (uid_[:, None] < ku[None, :]))).sum(axis=0)
        return pa.table({
            "i": pa.array(np.arange(ku.size, dtype=np.int64)),
            "bs": pa.array(better_s.astype(np.int64)),
            "bn": pa.array(better_n.astype(np.int64))})

    parts = per_user.map_batches(rank_partial,
                                 batch_format="pyarrow").to_pandas()
    agg = parts.groupby("i")[["bs", "bn"]].sum()
    ra = agg["bs"].to_numpy(np.int64) + 1
    rb = agg["bn"].to_numpy(np.int64) + 1
    rrf = (1.0 / (k + ra).astype(np.float64)
           + 1.0 / (k + rb).astype(np.float64))
    order = np.lexsort((cu, -rrf))[:top]
    return pa.table({
        "user_id": pa.array(cu[order]),
        "rank_spend": pa.array(ra[order]),
        "rank_count": pa.array(rb[order]),
        "rrf": pa.array(rrf[order])})


QUERIES["rrf_fusion_users"] = rrf_fusion_users
ORACLE_SQL["rrf_fusion_users"] = """
    WITH g AS (SELECT user_id,
                      CAST(sum(CAST(floor(value * 100 + 0.5) AS
                                    BIGINT)) AS BIGINT) AS spend,
                      CAST(count(*) AS BIGINT) AS n
               FROM events GROUP BY user_id),
    r AS (SELECT user_id,
                 row_number() OVER (ORDER BY spend DESC, user_id ASC)
                     AS ra,
                 row_number() OVER (ORDER BY n DESC, user_id ASC)
                     AS rb
          FROM g)
    SELECT user_id, CAST(ra AS BIGINT) AS rank_spend,
           CAST(rb AS BIGINT) AS rank_count,
           1.0 / CAST(60 + ra AS DOUBLE)
               + 1.0 / CAST(60 + rb AS DOUBLE) AS rrf
    FROM r
    ORDER BY rrf DESC, user_id ASC
    LIMIT 50
"""


def user_state_transitions_weekly(sf_dir: str):
    """Weekly engagement-state Markov matrix — the churn model's
    sufficient statistic: each user-week classifies as 'off' (no
    events), 'low' (1-2) or 'high' (3+); for every consecutive week
    pair we count (state_from, state_to, n_users) over the DENSE week
    grid (absence IS the off state — the signal a groupby on present
    rows silently loses). One grouped count then one coarse per-user
    sweep expands each user's sparse weeks onto the grid via
    searchsorted; cell counts pre-aggregate per task."""
    from ray.data.aggregate import Count, Sum

    WEEK = np.int64(7 * 86_400_000_000)

    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        us = np.asarray(batch["ts"].cast(pa.int64()), dtype=np.int64)
        return pa.table({
            "user_id": batch["user_id"].cast(pa.int64()),
            "week": pa.array(us // WEEK)})

    weekly = (ev.map_batches(prep, batch_format="pyarrow")
              .groupby(["user_id", "week"])
              .aggregate(Count(alias_name="n")).materialize())
    import ray.data.aggregate as _agg
    bounds = weekly.aggregate(_agg.Min("week"), _agg.Max("week"))
    w_lo, w_hi = int(bounds["min(week)"]), int(bounds["max(week)"])
    n_weeks = w_hi - w_lo + 1

    def sweep(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "week"], kind="mergesort")
        uid = g["user_id"].to_numpy(np.int64)
        wk = g["week"].to_numpy(np.int64)
        n = g["n"].to_numpy(np.int64)
        users, u_start = np.unique(uid, return_index=True)
        u_end = np.r_[u_start[1:], uid.size]
        cells = np.zeros(9, np.int64)       # 3x3 from->to
        for i in range(users.size):         # per-user dense expansion
            sl = slice(u_start[i], u_end[i])
            dense = np.zeros(n_weeks, np.int64)
            dense[wk[sl] - w_lo] = n[sl]
            st = np.where(dense == 0, 0,
                          np.where(dense <= 2, 1, 2))
            pair = st[:-1] * 3 + st[1:]
            cells += np.bincount(pair, minlength=9)
        return pd.DataFrame({
            "cell": np.arange(9, dtype=np.int64),
            "n_pairs": cells})

    g = (keyed_sweep(weekly, "user_id", sweep)
         .groupby("cell").aggregate(Sum("n_pairs",
                                        alias_name="n_pairs"))
         .to_pandas().sort_values("cell"))
    g = g[g["n_pairs"] > 0]     # SQL mirror groups observed pairs only
    names = np.array(["off", "low", "high"], object)
    cell = g["cell"].to_numpy(np.int64)
    return pa.table({
        "state_from": pa.array(names[cell // 3], pa.string()),
        "state_to": pa.array(names[cell % 3], pa.string()),
        "n_pairs": pa.array(g["n_pairs"].to_numpy(np.int64))})


QUERIES["user_state_transitions_weekly"] = user_state_transitions_weekly
ORACLE_SQL["user_state_transitions_weekly"] = """
    WITH w AS (SELECT user_id,
                      epoch_us(ts) // 604800000000 AS week,
                      CAST(count(*) AS BIGINT) AS n
               FROM events GROUP BY 1, 2),
    bounds AS (SELECT min(week) AS lo, max(week) AS hi FROM w),
    users AS (SELECT DISTINCT user_id FROM w),
    grid AS (SELECT u.user_id, g.week
             FROM users u,
                  (SELECT unnest(range((SELECT lo FROM bounds),
                                       (SELECT hi FROM bounds) + 1))
                       AS week) g),
    st AS (SELECT grid.user_id, grid.week,
                  CASE WHEN w.n IS NULL THEN 'off'
                       WHEN w.n <= 2 THEN 'low'
                       ELSE 'high' END AS state
           FROM grid LEFT JOIN w ON w.user_id = grid.user_id
                                AND w.week = grid.week),
    pr AS (SELECT a.state AS state_from, b.state AS state_to
           FROM st a JOIN st b ON b.user_id = a.user_id
                              AND b.week = a.week + 1)
    SELECT state_from, state_to, CAST(count(*) AS BIGINT) AS n_pairs
    FROM pr GROUP BY 1, 2
"""


def bloom_lookup_events(sf_dir: str):
    """Membership data-skipping end to end (sinks.build_bloom_sidecar
    + sources.tabular.read_bloom_filtered): lay events out as 12
    UNCLUSTERED files (every zone map spans the whole event_id domain
    — range pruning is useless by construction), build the per-file
    bloom sidecar on event_id, then answer a 4-key + 1-missing probe
    opening only the files whose bloom claims a hit (asserted < all;
    misses impossible, so the IN residual keeps exactness). The
    membership complement of the zone map's range pruning."""
    import hashlib
    import shutil

    from tldr_ray.sinks import build_bloom_sidecar
    from tldr_ray.sources.tabular import read_bloom_filtered

    key = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    out = f"/tmp/tldr_ray_bloom/{key}"
    shutil.rmtree(out, ignore_errors=True)
    (_read(sf_dir, "events", ["event_id", "user_id", "value"])
     .repartition(12).write_parquet(out))
    build_bloom_sidecar(out, "event_id")
    probe = [1, 7, 77, 777, 999_999_999]
    tab, info = read_bloom_filtered(out, probe)
    assert info["files_read"] < info["files_total"], info
    return tab.sort_by("event_id")


QUERIES["bloom_lookup_events"] = bloom_lookup_events
ORACLE_SQL["bloom_lookup_events"] = """
    SELECT event_id, user_id, value
    FROM events WHERE event_id IN (1, 7, 77, 777, 999999999)
    ORDER BY event_id
"""


def merkle_diff_orders(sf_dir: str):
    """Merkle-LOCALIZED snapshot diff — the tree's purpose shown end
    to end: v2 = orders with every (o_orderkey %% 97 == 0) row's
    cents bumped by 1; both snapshots reduce to their 16 leaf digests
    (one streamed pass each, O(16) to the driver), unequal leaves
    name the buckets to inspect, and ONLY those buckets' rows are
    re-fetched and row-diffed (with a build_hash_index layout that
    fetch opens just the changed bucket files). Emits per changed
    bucket (bucket, n_v1_only, n_v2_only). The oracle derives the
    expected diff independently from the modification rule — a
    ground-truth check, not a mirror of the tree walk."""
    from tldr_ray.hashing import fnv1a_batch
    from tldr_ray.stages.dedup import _mix64

    L = _MERKLE_LEAVES

    def canon(batch: pa.Table, bump: bool) -> pa.Table:
        k = np.asarray(batch["o_orderkey"], dtype=np.int64)
        c = _cents(np.asarray(batch["o_totalprice"], dtype=np.float64))
        if bump:
            c = c + (k % 97 == 0).astype(np.int64)
        return pa.table({
            "k": pa.array(k),
            "cust": batch["o_custkey"].cast(pa.int64()),
            "cents": pa.array(c),
            "bucket": pa.array(
                (_mix64(k.astype(np.uint64)) % np.uint64(L))
                .astype(np.int64))})

    def digests(bump: bool):
        def partial(batch: pa.Table) -> pa.Table:
            t = canon(batch, bump)
            s = pc.binary_join_element_wise(
                pc.cast(t["k"], pa.string()),
                pc.cast(t["cust"], pa.string()),
                pc.cast(t["cents"], pa.string()), "|")
            h = _mix64(fnv1a_batch(s))
            b = np.asarray(t["bucket"], dtype=np.int64)
            sums = np.zeros(L, np.uint64)
            np.add.at(sums, b, h)
            return pa.table({
                "bucket": pa.array(np.arange(L, dtype=np.int64)),
                "part_sum": pa.array(sums, pa.uint64())})

        parts = (_read(sf_dir, "orders",
                       ["o_orderkey", "o_custkey", "o_totalprice"])
                 .map_batches(partial, batch_format="pyarrow")
                 .to_pandas())
        leaves = [0] * L
        for bkt, ps in zip(parts["bucket"].to_numpy(np.int64),
                           parts["part_sum"].to_numpy(np.uint64)):
            leaves[int(bkt)] = (leaves[int(bkt)] + int(ps)) % (1 << 64)
        return leaves

    l1, l2 = digests(False), digests(True)
    changed = [b for b in range(L) if l1[b] != l2[b]]

    def fetch(bump: bool):
        def f(batch: pa.Table) -> pa.Table:
            t = canon(batch, bump)
            m = pc.is_in(t["bucket"],
                         value_set=pa.array(changed, pa.int64()))
            return t.filter(m)
        return (_read(sf_dir, "orders",
                      ["o_orderkey", "o_custkey", "o_totalprice"])
                .map_batches(f, batch_format="pyarrow").to_pandas())

    a, b = fetch(False), fetch(True)
    key = ["k", "cust", "cents"]
    m = a.merge(b, on=key + ["bucket"], how="outer", indicator=True)
    only1 = m[m["_merge"] == "left_only"].groupby("bucket").size()
    only2 = m[m["_merge"] == "right_only"].groupby("bucket").size()
    rows = sorted(set(only1.index) | set(only2.index))
    return pa.table({
        "bucket": pa.array(np.array(rows, np.int64)),
        "n_v1_only": pa.array(np.array(
            [int(only1.get(r, 0)) for r in rows], np.int64)),
        "n_v2_only": pa.array(np.array(
            [int(only2.get(r, 0)) for r in rows], np.int64))})


QUERIES["merkle_diff_orders"] = merkle_diff_orders
ORACLE_SQL["merkle_diff_orders"] = f"""
    WITH src AS (SELECT CAST(o_orderkey AS HUGEINT) AS h
                 FROM orders WHERE o_orderkey % 97 = 0),
    {_sql_splitmix_ctes("src")}
    SELECT CAST(h % {_MERKLE_LEAVES} AS BIGINT) AS bucket,
           CAST(count(*) AS BIGINT) AS n_v1_only,
           CAST(count(*) AS BIGINT) AS n_v2_only
    FROM m3 GROUP BY 1
"""


def ldp_event_type_counts(sf_dir: str):
    """Local differential privacy by randomized response (Warner's
    mechanism, the frequency-oracle building block): each event
    reports its TRUE type with probability 3/4, else a uniform draw
    from the 5-type alphabet — per-event coins are
    splitmix64(event_id), seedless and deterministic, so the whole
    privatized table (and therefore the debiased estimates) is
    bit-reproducible and SQL-hash-checkable. Debiasing is exact
    rational algebra: E[obs_c] = 3/4 n_c + n/20, so est = (20*obs_c
    - n)/15 — one division per type. Emits (event_type, n_observed,
    n_true, est) — n_true included to exhibit the debiasing, it is
    not part of the private release."""
    from ray.data.aggregate import Count

    from tldr_ray.stages.dedup import _mix64

    TYPES = np.array(["click", "error", "purchase", "signup", "view"],
                     object)
    KEEP = np.uint64(((1 << 64) * 3) // 4)

    def privatize(batch: pa.Table) -> pa.Table:
        eid = np.asarray(batch["event_id"], dtype=np.int64)
        h = _mix64(eid.astype(np.uint64))
        true = np.asarray(batch["event_type"], dtype=object)
        rand = TYPES[(h % np.uint64(5)).astype(np.int64)]
        rep = np.where(h < KEEP, true, rand)
        return pa.table({
            "reported": pa.array(rep, pa.string()),
            "true_type": pa.array(true, pa.string())})

    both = (_read(sf_dir, "events", ["event_id", "event_type"])
            .map_batches(privatize, batch_format="pyarrow")
            .materialize())
    obs = both.groupby("reported").aggregate(
        Count(alias_name="n_observed")).to_pandas()
    tru = both.groupby("true_type").aggregate(
        Count(alias_name="n_true")).to_pandas()
    m = obs.rename(columns={"reported": "event_type"}).merge(
        tru.rename(columns={"true_type": "event_type"}),
        on="event_type", how="outer").fillna(0).sort_values(
        "event_type")
    n = int(m["n_observed"].sum())
    o = m["n_observed"].to_numpy(np.int64)
    return pa.table({
        "event_type": pa.array(m["event_type"].to_numpy(object),
                               pa.string()),
        "n_observed": pa.array(o),
        "n_true": pa.array(m["n_true"].to_numpy(np.int64)),
        "est": pa.array((20 * o - n).astype(np.float64) / 15.0)})


QUERIES["ldp_event_type_counts"] = ldp_event_type_counts
ORACLE_SQL["ldp_event_type_counts"] = f"""
    WITH src AS (SELECT CAST(event_id AS HUGEINT) AS h, event_type
                 FROM events),
    {_sql_splitmix_ctes("src", carry="event_type, ")},
    types AS (SELECT * FROM (VALUES (0, 'click'), (1, 'error'),
              (2, 'purchase'), (3, 'signup'), (4, 'view'))
              AS t(i, name)),
    rep AS (SELECT CASE WHEN m3.h < {((1 << 64) * 3) // 4}
                        THEN m3.event_type ELSE types.name END
                       AS reported,
                   m3.event_type AS true_type
            FROM m3 JOIN types
              ON types.i = CAST(m3.h % 5 AS BIGINT)),
    obs AS (SELECT reported AS event_type,
                   CAST(count(*) AS BIGINT) AS n_observed
            FROM rep GROUP BY 1),
    tru AS (SELECT true_type AS event_type,
                   CAST(count(*) AS BIGINT) AS n_true
            FROM rep GROUP BY 1),
    n AS (SELECT sum(n_observed) AS total FROM obs)
    SELECT coalesce(obs.event_type, tru.event_type) AS event_type,
           coalesce(obs.n_observed, 0) AS n_observed,
           coalesce(tru.n_true, 0) AS n_true,
           CAST(20 * coalesce(obs.n_observed, 0)
                - (SELECT total FROM n) AS DOUBLE) / 15.0 AS est
    FROM obs FULL OUTER JOIN tru ON tru.event_type = obs.event_type
"""


def augment_docs_wordswap(sf_dir: str, rate_num: int = 1,
                          rate_den: int = 10):
    """Deterministic text augmentation by seeded word swap (the
    reproducible form of the classic EDA augmentation): each token
    position flips with probability 1/10 under the seedless coin
    splitmix64(doc_id * 131071 + position) and is replaced by the
    GLOBAL vocabulary word indexed by the same hash — so reruns,
    engines and the SQL mirror produce byte-identical augmented text
    (whitespace normalized to single spaces on both sides). The
    vocab (alphabetical, broadcast once) is the same word->index
    frame max_coverage_docs builds. Emits (doc_id, n_tokens,
    n_swapped, aug_text)."""
    import ray

    from tldr_ray.stages.dedup import _mix64

    T = np.uint64((1 << 64) * rate_num // rate_den)
    P = np.int64(131071)

    words = (_read(sf_dir, "documents", ["text"])
             .map_batches(
                 lambda t: pa.table({"w": pc.unique(
                     pc.list_flatten(pc.utf8_split_whitespace(
                         pc.utf8_lower(t["text"]))))}),
                 batch_format="pyarrow")
             .groupby("w").count().to_pandas())
    vocab = np.array(sorted(x for x in words["w"].tolist() if x),
                     object)
    vref = ray.put(vocab)

    def aug(batch: pa.Table) -> pa.Table:
        vb = ray.get(vref)
        ids = np.asarray(batch["doc_id"], dtype=np.int64)
        toks = pc.utf8_split_whitespace(pc.utf8_lower(batch["text"]))
        out_txt, out_n, out_s = [], [], []
        for did, ws in zip(ids.tolist(), toks.to_pylist()):
            ws = [w for w in ws if w]
            if ws:
                pos = np.arange(len(ws), dtype=np.int64)
                h = _mix64((did * P + pos).astype(np.uint64))
                swap = h < T
                repl = vb[(h % np.uint64(vb.size)).astype(np.int64)]
                arr = np.array(ws, object)
                arr[swap] = repl[swap]
                out_txt.append(" ".join(arr.tolist()))
                out_s.append(int(swap.sum()))
            else:
                out_txt.append("")
                out_s.append(0)
            out_n.append(len(ws))
        return pa.table({
            "doc_id": pa.array(ids),
            "n_tokens": pa.array(out_n, pa.int64()),
            "n_swapped": pa.array(out_s, pa.int64()),
            "aug_text": pa.array(out_txt, pa.string())})

    return _read(sf_dir, "documents", ["doc_id", "text"]) \
        .map_batches(aug, batch_format="pyarrow")


QUERIES["augment_docs_wordswap"] = augment_docs_wordswap
ORACLE_SQL["augment_docs_wordswap"] = f"""
    WITH toks AS (
        SELECT doc_id, u.i AS pos, a.ws[u.i + 1] AS w
        FROM (SELECT doc_id,
                     list_filter(regexp_split_to_array(lower(text),
                                                       '\\s+'),
                                 x -> x != '') AS ws
              FROM documents) a,
        unnest(generate_series(0, len(a.ws) - 1)) AS u(i)),
    vocab AS (SELECT w, row_number() OVER (ORDER BY w) - 1 AS i
              FROM (SELECT DISTINCT w FROM toks)),
    nv AS (SELECT CAST(count(*) AS HUGEINT) AS v FROM vocab),
    src AS (SELECT doc_id, pos, w,
                   CAST(doc_id * 131071 + pos AS HUGEINT) AS h
            FROM toks),
    {_sql_splitmix_ctes("src", carry="doc_id, pos, w, ")},
    swapped AS (
        SELECT m3.doc_id, m3.pos,
               CASE WHEN m3.h < {(1 << 64) // 10} THEN vocab.w
                    ELSE m3.w END AS w,
               CASE WHEN m3.h < {(1 << 64) // 10} THEN 1 ELSE 0 END
                   AS sw
        FROM m3 JOIN vocab
          ON vocab.i = CAST(m3.h % (SELECT v FROM nv) AS BIGINT))
    SELECT doc_id,
           CAST(count(*) AS BIGINT) AS n_tokens,
           CAST(sum(sw) AS BIGINT) AS n_swapped,
           string_agg(w, ' ' ORDER BY pos) AS aug_text
    FROM swapped GROUP BY doc_id
"""


def incremental_cc_hashgraph(sf_dir: str):
    """INCREMENTAL connected-components maintenance: the hash graph
    arrives in two deterministic halves; CC runs on half 1 (the saved
    state), then half 2 merges by CONTRACTION — each base component
    is a supernode, the delta edges relabel through the (gated)
    component map, and CC re-runs only on the contracted delta graph
    (size = delta edges, NOT the full graph). Min-label algebra makes
    the incremental result provably equal to a full recompute (min of
    mins = min of the union), which is exactly what the oracle checks:
    it is the UNCHANGED full-graph recursive-CC SQL, knowing nothing
    about the split."""
    import ray

    from tldr_ray.graph import connected_components
    from tldr_ray.stages.joins import fits_broadcast

    edges = _hash_graph_edges(sf_dir).materialize()

    def half(which: int):
        def f(batch: pa.Table) -> pa.Table:
            s = np.asarray(batch["src"], dtype=np.int64)
            d = np.asarray(batch["dst"], dtype=np.int64)
            m = ((s * 31 + d * 17) % 2) == which
            return pa.table({"src": pa.array(s[m]),
                             "dst": pa.array(d[m]),
                             "weight": pa.array(np.ones(int(m.sum())))})
        return edges.map_batches(f, batch_format="pyarrow")

    ids1, lab1, info1 = connected_components(half(0),
                                             num_partitions=4)
    assert info1["converged"]
    base = ids1.astype(np.int64)
    order = np.argsort(base)
    base, blab = base[order], lab1.astype(np.int64)[order]

    if not fits_broadcast(
            ray.data.from_arrow(pa.table({"v": pa.array(base)}))):
        # documented scale path: bucketed join relabel
        raise NotImplementedError(
            "state map exceeds the broadcast gate; relabel the delta "
            "through a bucketed join on vertex id")
    sref = ray.put((base, blab))

    def contract(batch: pa.Table) -> pa.Table:
        ks, vs = ray.get(sref)

        def relabel(x):
            pos = np.searchsorted(ks, x)
            pos = np.minimum(pos, max(ks.size - 1, 0))
            out = x.copy()
            if ks.size:
                hit = ks[pos] == x
                out[hit] = vs[pos[hit]]
            return out

        s = relabel(np.asarray(batch["src"], dtype=np.int64))
        d = relabel(np.asarray(batch["dst"], dtype=np.int64))
        return pa.table({"src": pa.array(s), "dst": pa.array(d),
                         "weight": pa.array(np.ones(s.size))})

    delta = half(1).map_batches(contract, batch_format="pyarrow")
    ids2, lab2, info2 = connected_components(delta, num_partitions=4)
    assert info2["converged"]
    merge = dict(zip(ids2.tolist(), lab2.tolist()))

    all_v = np.unique(np.concatenate([
        base, np.asarray(ids2, dtype=np.int64)]))
    # final label: base comp (or self), then through the delta merge
    pos = np.searchsorted(base, all_v)
    pos = np.minimum(pos, max(base.size - 1, 0))
    comp = all_v.copy()
    if base.size:
        hit = base[pos] == all_v
        comp[hit] = blab[pos[hit]]
    final = np.array([merge.get(int(c), int(c)) for c in comp],
                     np.int64)
    return pa.table({"vertex": pa.array(all_v),
                     "component": pa.array(final)})


QUERIES["incremental_cc_hashgraph"] = incremental_cc_hashgraph
ORACLE_SQL["incremental_cc_hashgraph"] = \
    ORACLE_SQL["connected_components_hashgraph"]


def selectivity_estimate_events(sf_dir: str, n_buckets: int = 20):
    """The optimizer's selectivity primitive, with its error exposed:
    estimate |value BETWEEN lo AND hi| from a 20-bucket FIXED-WIDTH
    histogram (w = ceil(span/B), so every bucket shares one
    denominator) by linear interpolation — est = sum_i c_i *
    clamp(overlap_i, 0, w) over denominator w, EXACT integers with
    one float division — next to the true distributed count. Three
    fixed predicates exercise full-bucket, sliver and off-histogram
    cases. Emits (pred_id, lo, hi, est_num, est_den, est,
    true_count)."""
    from ray.data.aggregate import Max, Min, Sum

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({"v": pa.array(_cents(np.asarray(
            batch["value"], dtype=np.float64)))})

    ev = (_read(sf_dir, "events", ["value"])
          .map_batches(prep, batch_format="pyarrow").materialize())
    b = ev.aggregate(Min("v"), Max("v"))
    v_lo, v_hi = int(b["min(v)"]), int(b["max(v)"])
    span = v_hi - v_lo + 1
    w = -(-span // n_buckets)          # ceil: fixed bucket width

    def hist(batch: pa.Table) -> pa.Table:
        v = np.asarray(batch["v"], dtype=np.int64)
        bk = (v - v_lo) // w
        u, c = np.unique(bk, return_counts=True)
        return pa.table({"bucket": pa.array(u),
                         "c": pa.array(c.astype(np.int64))})

    h = (ev.map_batches(hist, batch_format="pyarrow")
         .groupby("bucket").aggregate(Sum("c", alias_name="c"))
         .to_pandas().set_index("bucket")["c"]
         .reindex(range(n_buckets), fill_value=0)
         .to_numpy(np.int64))

    preds = [(1, v_lo + span // 4, v_lo + span // 2),
             (2, v_lo + span // 3, v_lo + span // 3 + span // 100),
             (3, v_hi + 1000, v_hi + 2000)]
    rows = []
    for pid, lo, hi in preds:
        num = 0
        for i in range(n_buckets):
            blo = v_lo + i * w
            bhi = blo + w - 1
            ov = min(hi, bhi) - max(lo, blo) + 1
            if ov > 0:
                num += int(h[i]) * min(ov, w)
        true = ev.map_batches(
            lambda t, _l=lo, _h=hi: pa.table({
                "c": pa.array([int(((np.asarray(t["v"], np.int64)
                                     >= _l)
                                    & (np.asarray(t["v"], np.int64)
                                       <= _h)).sum())], pa.int64())}),
            batch_format="pyarrow").to_pandas()["c"].sum()
        rows.append((pid, lo, hi, num, w,
                     float(np.float64(num) / np.float64(w)),
                     int(true)))
    return pa.table({
        "pred_id": pa.array([r[0] for r in rows], pa.int64()),
        "lo": pa.array([r[1] for r in rows], pa.int64()),
        "hi": pa.array([r[2] for r in rows], pa.int64()),
        "est_num": pa.array([r[3] for r in rows], pa.int64()),
        "est_den": pa.array([r[4] for r in rows], pa.int64()),
        "est": pa.array([r[5] for r in rows], pa.float64()),
        "true_count": pa.array([r[6] for r in rows], pa.int64())})


QUERIES["selectivity_estimate_events"] = selectivity_estimate_events
ORACLE_SQL["selectivity_estimate_events"] = """
    WITH e AS (SELECT CAST(floor(value * 100 + 0.5) AS BIGINT) AS v
               FROM events),
    bounds AS (SELECT min(v) AS vlo, max(v) AS vhi,
                      max(v) - min(v) + 1 AS span,
                      (max(v) - min(v) + 20) // 20 AS w
               FROM e),
    h AS (SELECT (v - vlo) // w AS bucket,
                 CAST(count(*) AS BIGINT) AS c
          FROM e, bounds GROUP BY 1),
    grid AS (SELECT unnest(range(20)) AS bucket),
    hh AS (SELECT grid.bucket, coalesce(h.c, 0) AS c
           FROM grid LEFT JOIN h ON h.bucket = grid.bucket),
    preds AS (
        SELECT CAST(1 AS BIGINT) AS pred_id, vlo + span // 4 AS lo,
               vlo + span // 2 AS hi FROM bounds
        UNION ALL
        SELECT 2, vlo + span // 3,
               vlo + span // 3 + span // 100 FROM bounds
        UNION ALL
        SELECT 3, vhi + 1000, vhi + 2000 FROM bounds),
    est AS (SELECT p.pred_id, p.lo, p.hi,
                   CAST(coalesce(sum(hh.c * least(
                       least(p.hi, bounds.vlo + (hh.bucket + 1)
                                 * bounds.w - 1)
                       - greatest(p.lo, bounds.vlo
                                  + hh.bucket * bounds.w) + 1,
                       bounds.w)), 0) AS BIGINT) AS est_num,
                   (SELECT CAST(w AS BIGINT) FROM bounds) AS est_den
            FROM preds p
            CROSS JOIN bounds
            LEFT JOIN hh ON least(p.hi, bounds.vlo + (hh.bucket + 1)
                                       * bounds.w - 1)
                            - greatest(p.lo, bounds.vlo
                                       + hh.bucket * bounds.w) + 1
                            > 0
            GROUP BY 1, 2, 3),
    tr AS (SELECT p.pred_id,
                  CAST(count(*) FILTER (e.v BETWEEN p.lo AND p.hi)
                       AS BIGINT) AS true_count
           FROM preds p LEFT JOIN e ON true GROUP BY 1)
    SELECT est.pred_id, est.lo, est.hi, est.est_num, est.est_den,
           CAST(est.est_num AS DOUBLE) / CAST(est.est_den AS DOUBLE)
               AS est,
           tr.true_count
    FROM est JOIN tr ON tr.pred_id = est.pred_id
"""


def universe_sample_join(sf_dir: str):
    """UNIVERSE (join-preserving) sampling — the dev-subset primitive
    plain row sampling gets wrong: sampling 20% of ROWS from two fact
    tables keeps only ~4% of their joinable pairs, but sampling 20%
    of the join-key UNIVERSE (splitmix64(user_id) < 0.2*2^64, the
    same seedless coin on every table) keeps EVERY pair for the
    sampled keys — per-key aggregates remain exact. Emits the sampled
    users' exact event counts and spend with the sampling decision
    inline (one filter per table, no coordination, no key exchange)."""
    from ray.data.aggregate import Count, Sum

    from tldr_ray.stages.dedup import _mix64

    T = np.uint64((1 << 64) // 5)

    def keep(batch: pa.Table) -> pa.Table:
        u = np.asarray(batch["user_id"], dtype=np.int64)
        m = _mix64(u.astype(np.uint64)) < T
        t = batch.filter(pa.array(m))
        return pa.table({
            "user_id": t["user_id"].cast(pa.int64()),
            "cents": pa.array(_cents(np.asarray(
                t["value"], dtype=np.float64)))})

    return (_read(sf_dir, "events", ["user_id", "value"])
            .map_batches(keep, batch_format="pyarrow")
            .groupby("user_id")
            .aggregate(Count(alias_name="n_events"),
                       Sum("cents", alias_name="spend_cents")))


QUERIES["universe_sample_join"] = universe_sample_join
ORACLE_SQL["universe_sample_join"] = f"""
    WITH src AS (SELECT CAST(user_id AS HUGEINT) AS h, user_id, value
                 FROM events),
    {_sql_splitmix_ctes("src", carry="user_id, value, ")}
    SELECT user_id,
           CAST(count(*) AS BIGINT) AS n_events,
           CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT))
                AS BIGINT) AS spend_cents
    FROM m3 WHERE h < {(1 << 64) // 5}
    GROUP BY user_id
"""


def interval_scheduling_users(sf_dir: str):
    """Weighted interval scheduling per user: events expand to
    30-minute engagement windows with cent weights, and the classic
    DP (sort by end; dp[i] = max(dp[i-1], w_i + dp[p(i)]) with p
    found by searchsorted) picks the maximum-value NON-OVERLAPPING
    subset — the budgeted-attention model a greedy pick gets wrong.
    One coarse shuffle on hash(user); the DP recurrence is inherently
    sequential per user, so each task loops over its users' few
    intervals (all candidate lookups vectorized via searchsorted).
    Exact integer weights. Rows-only: a per-user DP has no tractable
    SQL mirror — the pytest pins brute-force subset enumeration."""
    WIN = np.int64(1_800_000_000)

    def prep(batch: pa.Table) -> pa.Table:
        us = np.asarray(batch["ts"].cast(pa.int64()), dtype=np.int64)
        u = np.asarray(batch["user_id"], dtype=np.int64)
        return pa.table({
            "user_id": pa.array(u),
            "start": pa.array(us),
            "end": pa.array(us + WIN),
            "w": pa.array(_cents(np.asarray(batch["value"],
                                            dtype=np.float64)))})

    def sweep(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "end", "start"],
                          kind="mergesort")
        uid = g["user_id"].to_numpy(np.int64)
        st = g["start"].to_numpy(np.int64)
        en = g["end"].to_numpy(np.int64)
        w = g["w"].to_numpy(np.int64)
        users, u_start = np.unique(uid, return_index=True)
        u_end = np.r_[u_start[1:], uid.size]
        out_u, out_n, out_k, out_v = [], [], [], []
        for i in range(users.size):
            sl = slice(u_start[i], u_end[i])
            s_, e_, w_ = st[sl], en[sl], w[sl]
            m = s_.size
            # p(j) = last interval ending at/before s_j (intervals may
            # touch: end <= start is compatible)
            p = np.searchsorted(e_, s_, side="right")
            dp = np.zeros(m + 1, np.int64)
            take = np.zeros(m, dtype=bool)
            for j in range(m):          # sequential DP per user
                skip = dp[j]
                pick = w_[j] + dp[p[j]]
                take[j] = pick > skip
                dp[j + 1] = pick if pick > skip else skip
            # count chosen by backtracking
            k, j = 0, m - 1
            while j >= 0:
                if take[j]:
                    k += 1
                    j = p[j] - 1
                else:
                    j -= 1
            out_u.append(int(users[i]))
            out_n.append(m)
            out_k.append(k)
            out_v.append(int(dp[m]))
        return pd.DataFrame({
            "user_id": np.array(out_u, np.int64),
            "n_intervals": np.array(out_n, np.int64),
            "n_chosen": np.array(out_k, np.int64),
            "best_value_cents": np.array(out_v, np.int64)})

    return keyed_sweep(_read(sf_dir, "events", ["user_id", "ts", "value"])
                       .map_batches(prep, batch_format="pyarrow"),
                       "user_id", sweep)


QUERIES["interval_scheduling_users"] = interval_scheduling_users


def partition_edgecut_hashgraph(sf_dir: str, P: int = 8):
    """Partitioner quality audit — the number every distributed graph
    round pays for: fraction of edges whose endpoints land in
    different shards under (a) the engine's vhash partitioner and
    (b) raw id-modulo. Ring+stride graphs make modulo look great on
    +1 edges and terrible on stride edges; the audit quantifies it
    (n_cut exact, per-mille integer). One streamed pass, per-batch
    partial counts."""
    from ray.data.aggregate import Sum

    from tldr_ray.hashing import part_key

    def partial(batch: pa.Table) -> pa.Table:
        s = np.asarray(batch["src"], dtype=np.int64)
        d = np.asarray(batch["dst"], dtype=np.int64)
        cut_v = int((part_key(s, P) != part_key(d, P)).sum())
        cut_m = int(((s % P) != (d % P)).sum())
        return pa.table({
            "partitioner": pa.array(["vhash", "modulo"], pa.string()),
            "n_edges": pa.array([s.size, s.size], pa.int64()),
            "n_cut": pa.array([cut_v, cut_m], pa.int64())})

    g = (_hash_graph_edges(sf_dir)
         .map_batches(partial, batch_format="pyarrow")
         .groupby("partitioner")
         .aggregate(Sum("n_edges", alias_name="n_edges"),
                    Sum("n_cut", alias_name="n_cut"))
         .to_pandas().sort_values("partitioner"))
    ne = g["n_edges"].to_numpy(np.int64)
    nc = g["n_cut"].to_numpy(np.int64)
    return pa.table({
        "partitioner": pa.array(g["partitioner"].to_numpy(object),
                                pa.string()),
        "n_edges": pa.array(ne),
        "n_cut": pa.array(nc),
        "cut_per_mille": pa.array(nc * 1000 // ne)})


QUERIES["partition_edgecut_hashgraph"] = partition_edgecut_hashgraph


def _edgecut_oracle_sql(P: int = 8) -> str:
    C1, C2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
    GOLD = 0x9E3779B97F4A7C15

    def chain(tag, src, xexpr, carry_first, carry):
        return f"""
    {tag}0 AS MATERIALIZED (SELECT {carry_first}{xexpr} AS h
                            FROM {src}),
    {tag}1 AS MATERIALIZED (
        SELECT {carry}{_sql_mul64(_sql_xor_shift('h', 30), C1)} AS h
        FROM {tag}0),
    {tag}2 AS MATERIALIZED (
        SELECT {carry}{_sql_mul64(_sql_xor_shift('h', 27), C2)} AS h
        FROM {tag}1),
    {tag}3 AS MATERIALIZED (
        SELECT {carry}{_sql_xor_shift('h', 31)} AS h FROM {tag}2)"""

    return f"""
    WITH {_HASHGRAPH_RAW},
    {chain("va", "raw2",
           f"(CAST(s AS HUGEINT) + {GOLD}) % {_SQL_M64}",
           "s, t, ", "s, t, ")},
    {chain("vb", "va3",
           f"(CAST(t AS HUGEINT) + {GOLD}) % {_SQL_M64}",
           "s, t, h AS hs, ", "s, t, hs, ")},
    cuts AS (SELECT
        CAST(count(*) AS BIGINT) AS n_edges,
        CAST(sum(CASE WHEN CAST(hs % {P} AS BIGINT)
                       != CAST(h % {P} AS BIGINT)
                      THEN 1 ELSE 0 END) AS BIGINT) AS cut_v,
        CAST(sum(CASE WHEN s % {P} != t % {P}
                      THEN 1 ELSE 0 END) AS BIGINT) AS cut_m
        FROM vb3)
    SELECT 'modulo' AS partitioner, n_edges, cut_m AS n_cut,
           CAST(cut_m * 1000 // n_edges AS BIGINT) AS cut_per_mille
    FROM cuts
    UNION ALL
    SELECT 'vhash', n_edges, cut_v,
           CAST(cut_v * 1000 // n_edges AS BIGINT)
    FROM cuts
"""


ORACLE_SQL["partition_edgecut_hashgraph"] = _edgecut_oracle_sql()


def oof_target_encode_events(sf_dir: str, k: int = 5):
    """Leakage-free OUT-OF-FOLD target encoding — the ML-engineering
    pattern naive category-mean encoding breaks (a row must never see
    its own target): fold = splitmix64(event_id) % 5, and each row's
    encoding is the mean target over its category in the OTHER folds,
    (sum_cat - sum_cat_fold) / (n_cat - n_cat_fold), falling back to
    the other folds' GLOBAL mean when the category lives entirely in
    one fold. Exact integer sums from ONE (category, fold) groupby
    (k*|categories| cells — dimension-sized), one division per cell;
    rows join the cell table through the size-gated auto_join."""
    from ray.data.aggregate import Count, Sum

    from tldr_ray.stages.dedup import _mix64
    from tldr_ray.stages.joins import auto_join

    def prep(batch: pa.Table) -> pa.Table:
        eid = np.asarray(batch["event_id"], dtype=np.int64)
        return pa.table({
            "event_id": pa.array(eid),
            "event_type": batch["event_type"],
            "fold": pa.array((_mix64(eid.astype(np.uint64))
                              % np.uint64(k)).astype(np.int64)),
            "cents": pa.array(_cents(np.asarray(
                batch["value"], dtype=np.float64)))})

    ev = (_read(sf_dir, "events", ["event_id", "event_type", "value"])
          .map_batches(prep, batch_format="pyarrow").materialize())
    cells = (ev.groupby(["event_type", "fold"])
             .aggregate(Sum("cents", alias_name="s"),
                        Count(alias_name="n"))
             .to_pandas())
    tot_s = int(cells["s"].sum())
    tot_n = int(cells["n"].sum())
    cat = cells.groupby("event_type")[["s", "n"]].sum()
    fold_tot = cells.groupby("fold")[["s", "n"]].sum()
    enc_rows = []
    for _, r in cells.iterrows():
        cs, cn = int(cat.loc[r["event_type"], "s"]), \
            int(cat.loc[r["event_type"], "n"])
        ds_, dn = cs - int(r["s"]), cn - int(r["n"])
        if dn > 0:
            enc = np.float64(ds_) / np.float64(dn)
        else:
            gs = tot_s - int(fold_tot.loc[r["fold"], "s"])
            gn = tot_n - int(fold_tot.loc[r["fold"], "n"])
            enc = np.float64(gs) / np.float64(gn)
        enc_rows.append((r["event_type"], int(r["fold"]), float(enc)))
    import ray.data as rd
    lut = rd.from_arrow(pa.table({
        "key": pa.array([t + "\x1f" + str(f) for t, f, _ in enc_rows],
                        pa.string()),
        "enc": pa.array([e for _, _, e in enc_rows], pa.float64())}))

    def addk(batch: pa.Table) -> pa.Table:
        t = np.asarray(batch["event_type"], dtype=object)
        f = np.asarray(batch["fold"], dtype=np.int64)
        return batch.append_column("key", pa.array(
            [a + "\x1f" + str(int(b)) for a, b in zip(t, f)],
            pa.string()))

    out = auto_join(ev.map_batches(addk, batch_format="pyarrow"),
                    lut, on="key")
    return out.map_batches(
        lambda t: pa.table({
            "event_id": t["event_id"].cast(pa.int64()),
            "event_type": t["event_type"].cast(pa.string()),
            "fold": t["fold"].cast(pa.int64()),
            "enc": t["enc"].cast(pa.float64())}),
        batch_format="pyarrow")


QUERIES["oof_target_encode_events"] = oof_target_encode_events
ORACLE_SQL["oof_target_encode_events"] = f"""
    WITH src AS (SELECT event_id, event_type,
                        CAST(event_id AS HUGEINT) AS h,
                        CAST(floor(value * 100 + 0.5) AS BIGINT) AS v
                 FROM events),
    {_sql_splitmix_ctes("src", carry="event_id, event_type, v, ")},
    e AS (SELECT event_id, event_type, v,
                 CAST(h % 5 AS BIGINT) AS fold
          FROM m3),
    cells AS (SELECT event_type, fold,
                     CAST(sum(v) AS BIGINT) AS s,
                     CAST(count(*) AS BIGINT) AS n
              FROM e GROUP BY 1, 2),
    cat AS (SELECT event_type, CAST(sum(s) AS BIGINT) AS cs,
                   CAST(sum(n) AS BIGINT) AS cn
            FROM cells GROUP BY 1),
    ft AS (SELECT fold, CAST(sum(s) AS BIGINT) AS fs,
                  CAST(sum(n) AS BIGINT) AS fn
           FROM cells GROUP BY 1),
    tot AS (SELECT CAST(sum(s) AS BIGINT) AS ts,
                   CAST(sum(n) AS BIGINT) AS tn
            FROM cells),
    enc AS (SELECT cells.event_type, cells.fold,
                   CASE WHEN cat.cn - cells.n > 0
                        THEN CAST(cat.cs - cells.s AS DOUBLE)
                             / CAST(cat.cn - cells.n AS DOUBLE)
                        ELSE CAST(tot.ts - ft.fs AS DOUBLE)
                             / CAST(tot.tn - ft.fn AS DOUBLE)
                   END AS enc
            FROM cells
            JOIN cat ON cat.event_type = cells.event_type
            JOIN ft ON ft.fold = cells.fold
            CROSS JOIN tot)
    SELECT e.event_id, e.event_type, e.fold, enc.enc
    FROM e JOIN enc ON enc.event_type = e.event_type
                   AND enc.fold = e.fold
"""


def split_scan_purchase(sf_dir: str):
    """Decision-stump SPLIT SCAN over event value vs the purchase
    label — the inner loop of every tree learner, as a table: for
    each candidate threshold (distinct cent value; left = v <= t),
    the exact left/right counts and purchase counts plus the
    variance-reduction score n*gain = d^2/(n_l*n_r*n) with d =
    s_l*n_r - s_r*n_l kept as an exact int64 and the score one fixed
    two-multiply-one-divide float chain (the argmax is the reader's
    ORDER BY). Runs on the value-counts plan: prefix sums over
    distinct values, never a per-row scan."""
    from ray.data.aggregate import Count, Sum

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "v": pa.array(_cents(np.asarray(batch["value"],
                                            dtype=np.float64))),
            "y": pa.array(np.asarray(
                pc.equal(batch["event_type"], "purchase"))
                .astype(np.int64))})

    g = (_read(sf_dir, "events", ["event_type", "value"])
         .map_batches(prep, batch_format="pyarrow")
         .groupby("v")
         .aggregate(Count(alias_name="n"), Sum("y", alias_name="s"))
         .to_pandas().sort_values("v"))
    v = g["v"].to_numpy(np.int64)
    n = g["n"].to_numpy(np.int64)
    s = g["s"].to_numpy(np.int64)
    N, S = int(n.sum()), int(s.sum())
    n_l = np.cumsum(n)
    s_l = np.cumsum(s)
    n_r = N - n_l
    s_r = S - s_l
    keep = (n_l > 0) & (n_r > 0)
    d = s_l * n_r - s_r * n_l
    den = n_l * n_r * np.int64(N)
    gain = np.where(keep,
                    d.astype(np.float64) * d.astype(np.float64)
                    / np.where(keep, den, 1).astype(np.float64),
                    0.0)
    return pa.table({
        "threshold": pa.array(v[keep]),
        "n_left": pa.array(n_l[keep]),
        "s_left": pa.array(s_l[keep]),
        "n_right": pa.array(n_r[keep]),
        "s_right": pa.array(s_r[keep]),
        "d": pa.array(d[keep]),
        "gain": pa.array(gain[keep])})


QUERIES["split_scan_purchase"] = split_scan_purchase
ORACLE_SQL["split_scan_purchase"] = """
    WITH e AS (SELECT CAST(floor(value * 100 + 0.5) AS BIGINT) AS v,
                      CASE WHEN event_type = 'purchase'
                           THEN 1 ELSE 0 END AS y
               FROM events),
    g AS (SELECT v, CAST(count(*) AS BIGINT) AS n,
                 CAST(sum(y) AS BIGINT) AS s
          FROM e GROUP BY v),
    tot AS (SELECT CAST(sum(n) AS BIGINT) AS nn,
                   CAST(sum(s) AS BIGINT) AS ss FROM g),
    p AS (SELECT v,
                 CAST(sum(n) OVER w AS BIGINT) AS n_l,
                 CAST(sum(s) OVER w AS BIGINT) AS s_l
          FROM g WINDOW w AS (ORDER BY v)),
    sc AS (SELECT p.v AS threshold, p.n_l AS n_left,
                  p.s_l AS s_left,
                  tot.nn - p.n_l AS n_right,
                  tot.ss - p.s_l AS s_right,
                  p.s_l * (tot.nn - p.n_l)
                      - (tot.ss - p.s_l) * p.n_l AS d,
                  p.n_l * (tot.nn - p.n_l) * tot.nn AS den
           FROM p, tot)
    SELECT threshold, n_left, s_left, n_right, s_right,
           CAST(d AS BIGINT) AS d,
           (CAST(d AS DOUBLE) * CAST(d AS DOUBLE))
               / CAST(den AS DOUBLE) AS gain
    FROM sc WHERE n_left > 0 AND n_right > 0
"""


def seq_pattern_pairs_sessions(sf_dir: str):
    """Sequential-pattern support (the PrefixSpan level-2 itemset):
    for every ordered type pair (a, b), in how many SESSIONS (30-min
    inactivity gap, the repo's sessionization convention) does a
    occur strictly BEFORE some b — the non-contiguous complement of
    event_transitions' consecutive bigrams. Inside one coarse
    user-sweep, sessions fall out of the usual lag+cumsum scan and
    the a-before-b test per session is first_index(a) <
    last_index(b) over the 5-type alphabet — a 5x5 vectorized
    reduction per session, support counted once per session.
    Emits (t_first, t_then, n_sessions, per_mille of all sessions)."""
    from ray.data.aggregate import Sum

    GAP = np.int64(1_800_000_000)
    TYPES = np.array(["click", "error", "purchase", "signup", "view"],
                     object)
    T = len(TYPES)
    tidx = {t: i for i, t in enumerate(TYPES)}

    def prep(batch: pa.Table) -> pa.Table:
        u = np.asarray(batch["user_id"], dtype=np.int64)
        return pa.table({
            "user_id": pa.array(u),
            "ts": batch["ts"],
            "event_id": batch["event_id"].cast(pa.int64()),
            "event_type": batch["event_type"]})

    def sweep(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"],
                          kind="mergesort")
        uid = g["user_id"].to_numpy(np.int64)
        us = g["ts"].astype("int64").to_numpy()
        ty = np.array([tidx[t] for t in g["event_type"]], np.int64)
        new = np.empty(uid.size, dtype=bool)
        new[0] = True
        new[1:] = (uid[1:] != uid[:-1]) | (us[1:] - us[:-1] > GAP)
        sid = np.cumsum(new) - 1
        pos = np.arange(uid.size, dtype=np.int64)
        nses = int(sid[-1]) + 1 if uid.size else 0
        first = np.full((nses, T), np.iinfo(np.int64).max, np.int64)
        last = np.full((nses, T), -1, np.int64)
        np.minimum.at(first, (sid, ty), pos)
        np.maximum.at(last, (sid, ty), pos)
        # support[a,b] += 1 where first[a] < last[b] (strictly before)
        sup = (first[:, :, None] < last[:, None, :]).sum(axis=0)
        a, b = np.meshgrid(np.arange(T), np.arange(T), indexing="ij")
        return pd.DataFrame({
            "t_first": pd.Series(TYPES[a.ravel()], dtype=object),
            "t_then": pd.Series(TYPES[b.ravel()], dtype=object),
            "n_sessions": sup.ravel().astype(np.int64),
            "n_total": np.full(T * T, nses, np.int64)})

    g = (keyed_sweep(_read(sf_dir, "events",
                           ["user_id", "ts", "event_id", "event_type"])
                     .map_batches(prep, batch_format="pyarrow"),
                     "user_id", sweep)
         .groupby(["t_first", "t_then"])
         .aggregate(Sum("n_sessions", alias_name="n_sessions"),
                    Sum("n_total", alias_name="n_total"))
         .to_pandas())
    ns = g["n_sessions"].to_numpy(np.int64)
    tot = g["n_total"].to_numpy(np.int64)
    keep = ns > 0
    return pa.table({
        "t_first": pa.array(g["t_first"].to_numpy(object)[keep],
                            pa.string()),
        "t_then": pa.array(g["t_then"].to_numpy(object)[keep],
                           pa.string()),
        "n_sessions": pa.array(ns[keep]),
        "per_mille": pa.array(ns[keep] * 1000 // tot[keep])})


QUERIES["seq_pattern_pairs_sessions"] = seq_pattern_pairs_sessions
ORACLE_SQL["seq_pattern_pairs_sessions"] = """
    WITH s AS (SELECT user_id, ts, event_id, event_type,
                      CASE WHEN lag(epoch_us(ts)) OVER w IS NULL
                            OR epoch_us(ts) - lag(epoch_us(ts)) OVER w
                               > 1800000000
                           THEN 1 ELSE 0 END AS brk
               FROM events
               WINDOW w AS (PARTITION BY user_id
                            ORDER BY ts, event_id)),
    r AS (SELECT user_id, ts, event_id, event_type,
                 sum(brk) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS sess
          FROM s),
    idx AS (SELECT user_id, sess, event_type,
                   min(rn) AS first_i, max(rn) AS last_i
            FROM (SELECT user_id, sess, event_type,
                         row_number() OVER (
                             PARTITION BY user_id, sess
                             ORDER BY ts, event_id) AS rn
                  FROM r)
            GROUP BY 1, 2, 3),
    tot AS (SELECT CAST(count(DISTINCT (user_id, sess)) AS BIGINT)
                AS n FROM r),
    sup AS (SELECT a.event_type AS t_first, b.event_type AS t_then,
                   CAST(count(*) AS BIGINT) AS n_sessions
            FROM idx a JOIN idx b
              ON b.user_id = a.user_id AND b.sess = a.sess
             AND a.first_i < b.last_i
            GROUP BY 1, 2)
    SELECT t_first, t_then, n_sessions,
           CAST(n_sessions * 1000 // (SELECT n FROM tot) AS BIGINT)
               AS per_mille
    FROM sup
"""


def budget_knapsack_docs(sf_dir: str, budget_tokens: int = 20_000):
    """Budgeted data curation as a knapsack: pick documents under a
    20k-token budget greedily by VALUE DENSITY (distinct words per
    token — both exact integers; the fractional-knapsack optimum up
    to one item). The density order is a pure integer CROSS-MULT sort
    ((u1*t2 > u2*t1), ties by doc_id), so the chosen prefix is
    deterministic and the whole selection hash-matches a window
    cumsum mirror. Per-doc stats come from one vectorized pass;
    the greedy prefix is a cumsum cut, not a loop. The per-doc stats
    frame sorts driver-side here; at corpus scale the same plan runs
    as a distributed density sort + the pack_token_shards two-pass
    prefix scan to locate the budget cut."""
    def stats(batch: pa.Table) -> pa.Table:
        toks = pc.utf8_split_whitespace(pc.utf8_lower(batch["text"]))
        n_tok = pc.list_value_length(toks)
        uniq = [len({w for w in ws if w})
                for ws in toks.to_pylist()]
        return pa.table({
            "doc_id": batch["doc_id"].cast(pa.int64()),
            "tokens": n_tok.cast(pa.int64()),
            "uniq_words": pa.array(uniq, pa.int64())})

    g = (_read(sf_dir, "documents", ["doc_id", "text"])
         .map_batches(stats, batch_format="pyarrow")
         .to_pandas())
    did = g["doc_id"].to_numpy(np.int64)
    tok = g["tokens"].to_numpy(np.int64)
    uq = g["uniq_words"].to_numpy(np.int64)
    keep = tok > 0
    did, tok, uq = did[keep], tok[keep], uq[keep]
    import functools

    def cmp(i, j):
        a = int(uq[i]) * int(tok[j])
        b = int(uq[j]) * int(tok[i])
        if a != b:
            return -1 if a > b else 1      # density desc
        return -1 if did[i] < did[j] else 1

    order = np.array(sorted(range(did.size),
                            key=functools.cmp_to_key(cmp)), np.int64)
    cum = np.cumsum(tok[order])
    chosen = order[cum <= budget_tokens]
    return pa.table({
        "pick_rank": pa.array(np.arange(1, chosen.size + 1,
                                        dtype=np.int64)),
        "doc_id": pa.array(did[chosen]),
        "tokens": pa.array(tok[chosen]),
        "uniq_words": pa.array(uq[chosen]),
        "cum_tokens": pa.array(cum[:chosen.size])})


QUERIES["budget_knapsack_docs"] = budget_knapsack_docs
ORACLE_SQL["budget_knapsack_docs"] = """
    WITH d AS (SELECT doc_id,
                      len(list_filter(regexp_split_to_array(
                          lower(text), '\\s+'), x -> x != ''))
                          AS tokens,
                      len(list_distinct(list_filter(
                          regexp_split_to_array(lower(text), '\\s+'),
                          x -> x != ''))) AS uniq_words
               FROM documents),
    o AS (SELECT doc_id, tokens, uniq_words,
                 row_number() OVER (
                     ORDER BY CAST(uniq_words AS DOUBLE)
                              / CAST(tokens AS DOUBLE) DESC,
                              doc_id ASC) AS rn,
                 CAST(sum(tokens) OVER (
                     ORDER BY CAST(uniq_words AS DOUBLE)
                              / CAST(tokens AS DOUBLE) DESC,
                              doc_id ASC) AS BIGINT) AS cum_tokens
          FROM d WHERE tokens > 0)
    SELECT CAST(row_number() OVER (ORDER BY rn) AS BIGINT)
               AS pick_rank,
           doc_id, CAST(tokens AS BIGINT) AS tokens,
           CAST(uniq_words AS BIGINT) AS uniq_words, cum_tokens
    FROM o WHERE cum_tokens <= 20000
"""


def mmr_diverse_embeddings(sf_dir: str, k: int = 10,
                           pool: int = 100,
                           lam: float = 0.7):
    """Maximal Marginal Relevance — the retrieval-diversity selector
    plain top-k lacks (top-k returns one tight cluster; MMR trades
    relevance against similarity-to-already-chosen): query = the
    corpus mean direction, relevance = cosine(query, x), and each
    round picks argmax of lam*rel - (1-lam)*max_sim_to_chosen over a
    top-`pool` candidate set (distributed relevance scan + per-block
    top partials; the k-round refinement runs on the pool —
    dimension-sized). Rows-only (iterative float argmax chains); the
    planted-cluster pytest pins the diversity property against pure
    top-k."""
    import ray
    import pyarrow.parquet as pq

    from tldr_ray.stages.ann import _as_matrix, _unit

    corpus = pq.read_table(f"{sf_dir}/embeddings.parquet",
                           columns=["vec_id", "embedding"]) \
        .sort_by("vec_id")
    ids = np.asarray(corpus["vec_id"], dtype=np.int64)
    mat = _unit(_as_matrix(corpus["embedding"])).astype(np.float64)
    q = mat.mean(axis=0)
    q = q / np.sqrt((q * q).sum())
    qref = ray.put(q)

    def rel(batch: pa.Table) -> pa.Table:
        qq = ray.get(qref)
        m = _unit(_as_matrix(batch["embedding"])).astype(np.float64)
        r = m @ qq
        vid = np.asarray(batch["vec_id"], dtype=np.int64)
        sel = np.lexsort((vid, -r))[:pool]
        return pa.table({"vec_id": pa.array(vid[sel]),
                         "rel": pa.array(r[sel])})

    parts = (_read(sf_dir, "embeddings", ["vec_id", "embedding"])
             .map_batches(rel, batch_format="pyarrow").to_pandas())
    cand = parts.sort_values(["rel", "vec_id"],
                             ascending=[False, True]).head(pool)
    cid = cand["vec_id"].to_numpy(np.int64)
    crel = cand["rel"].to_numpy(np.float64)
    pos = np.searchsorted(ids, cid)
    cmat = mat[pos]
    sim = cmat @ cmat.T
    chosen: list[int] = []
    avail = np.ones(cid.size, dtype=bool)
    for _ in range(min(k, cid.size)):
        if chosen:
            penal = sim[:, chosen].max(axis=1)
        else:
            penal = np.zeros(cid.size)
        score = lam * crel - (1.0 - lam) * penal
        score[~avail] = -np.inf
        j = int(np.lexsort((cid, -score))[0])
        chosen.append(j)
        avail[j] = False
    return pa.table({
        "pick_rank": pa.array(np.arange(1, len(chosen) + 1,
                                        dtype=np.int64)),
        "vec_id": pa.array(cid[chosen]),
        "rel": pa.array(crel[chosen]),
        "mmr_penalty": pa.array(
            np.array([0.0] + [sim[c, chosen[:i]].max()
                              for i, c in enumerate(chosen[1:],
                                                    start=1)]))})


QUERIES["mmr_diverse_embeddings"] = mmr_diverse_embeddings


_SOUNDEX_FROM = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_SOUNDEX_TO = "01230120022455012623010202"


def soundex_blocks_docs(sf_dir: str):
    """PHONETIC BLOCKING (simplified Soundex, no h/w-transparency
    rule — the steps below ARE the spec, mirrored operation for
    operation in SQL): letter->digit translate, per-digit run
    collapse, drop the first code position, strip zeros, first letter
    + 3 digits zero-padded. The distributed work is the vocabulary
    distinct; coding + block rollup are vocab-sized. Blocks are the
    classic pre-LSH candidate generator for name matching — emits
    (code, n_words, members) per block."""
    tbl = {ord(a): b for a, b in zip(_SOUNDEX_FROM, _SOUNDEX_TO)}

    def toks(t: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        w = _pc.list_flatten(_pc.utf8_split_whitespace(t["text"]))
        return pa.table({"w": w.filter(_pc.not_equal(w, ""))})

    def code(batch: pa.Table) -> pa.Table:
        s = pd.Series(batch["w"].to_pylist(), dtype=object)
        up = s.str.upper()
        d = up.str.translate(tbl)
        for c in "0123456":
            d = d.str.replace(c + "+", c, regex=True)
        z = d.str[1:].str.replace("0", "", regex=False)
        cd = up.str[0] + (z + "000").str[:3]
        return pa.table({"w": batch["w"],
                         "code": pa.array(cd.to_numpy(object),
                                          pa.string())})

    def roll(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("w", kind="mergesort")
        agg = g.groupby("code", sort=True)["w"].agg(",".join)
        n = g.groupby("code", sort=True)["w"].size()
        return pd.DataFrame({
            "code": pd.Series(agg.index.to_numpy(object), dtype=object),
            "n_words": n.to_numpy(np.int64),
            "members": pd.Series(agg.to_numpy(), dtype=object)})

    return (_read(sf_dir, "documents", ["text"])
            .map_batches(toks, batch_format="pyarrow")
            .groupby("w").count()            # distributed distinct
            .map_batches(lambda t: t.select(["w"]),
                         batch_format="pyarrow")
            .map_batches(code, batch_format="pyarrow")
            .groupby("code").map_groups(roll, batch_format="pandas"))


QUERIES["soundex_blocks_docs"] = soundex_blocks_docs
ORACLE_SQL["soundex_blocks_docs"] = f"""
    WITH v AS (SELECT DISTINCT unnest(regexp_split_to_array(text,
                   '\\s+')) AS w
               FROM documents),
    vv AS (SELECT w FROM v WHERE w <> ''),
    d AS (SELECT w, translate(upper(w), '{_SOUNDEX_FROM}',
                              '{_SOUNDEX_TO}') AS dg
          FROM vv),
    c AS (SELECT w,
            regexp_replace(regexp_replace(regexp_replace(
            regexp_replace(regexp_replace(regexp_replace(
            regexp_replace(dg,
                '0+', '0', 'g'), '1+', '1', 'g'), '2+', '2', 'g'),
                '3+', '3', 'g'), '4+', '4', 'g'), '5+', '5', 'g'),
                '6+', '6', 'g') AS cl
          FROM d),
    k AS (SELECT w, substr(upper(w), 1, 1)
                 || substr(replace(substr(cl, 2), '0', '')
                           || '000', 1, 3) AS code
          FROM c)
    SELECT code, CAST(count(*) AS BIGINT) AS n_words,
           string_agg(w, ',' ORDER BY w) AS members
    FROM k GROUP BY code
"""


def rake_keywords_docs(sf_dir: str):
    """RAKE keyword scoring (Rose et al.): phrases are maximal
    stopword-delimited token runs; for each word, freq = occurrences
    inside phrases, deg = sum of the lengths of its containing
    phrases, score = deg/freq (longer-phrase words win). The phrase
    segmentation is one vectorized cumsum over the stopword mask per
    batch; the shuffle carries (word, phrase_len) pairs into a single
    grouped sum — corpus-scalable. Score is ONE division of exact
    integers, so the floats hash-match."""
    from ray.data.aggregate import Count, Sum

    STOP = ("the", "a")

    def pairs(t: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        lists = _pc.utf8_split_whitespace(t["text"])
        flat = np.asarray(_pc.list_flatten(lists), dtype=object)
        lens = np.asarray(_pc.list_value_length(lists),
                          dtype=np.int64)
        if flat.size == 0:
            return pa.table({"w": pa.array([], pa.string()),
                             "plen": pa.array([], pa.int64())})
        doc = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
        stop = np.isin(flat, np.array(STOP + ("",), dtype=object))
        first = np.zeros(flat.size, dtype=bool)
        first[0] = True
        first[1:] = doc[1:] != doc[:-1]
        brk = stop | first
        pid = np.cumsum(brk.astype(np.int64))
        keep = ~stop
        plen_per_pid = np.bincount(pid[keep],
                                   minlength=int(pid[-1]) + 1)
        return pa.table({
            "w": pa.array(flat[keep], pa.string()),
            "plen": pa.array(plen_per_pid[pid[keep]]
                             .astype(np.int64))})

    return (_read(sf_dir, "documents", ["text"])
            .map_batches(pairs, batch_format="pyarrow")
            .groupby("w")
            .aggregate(Sum("plen", alias_name="deg"),
                       Count(alias_name="freq"))
            .map_batches(lambda t: t.append_column(
                "score", pa.array(
                    np.asarray(t["deg"], dtype=np.int64).astype(
                        np.float64)
                    / np.asarray(t["freq"],
                                 dtype=np.int64).astype(np.float64))),
                batch_format="pyarrow"))


QUERIES["rake_keywords_docs"] = rake_keywords_docs
ORACLE_SQL["rake_keywords_docs"] = """
    WITH t AS (SELECT doc_id, regexp_split_to_array(text, '\\s+') AS a
               FROM documents),
    tok AS (SELECT doc_id, u.i AS pos, a[u.i] AS w
            FROM t, unnest(generate_series(1, len(a))) AS u(i)),
    m AS (SELECT doc_id, pos, w,
                 CASE WHEN w IN ('the', 'a', '') THEN 1 ELSE 0 END
                     AS st
          FROM tok),
    p AS (SELECT doc_id, pos, w, st,
                 sum(st) OVER (PARTITION BY doc_id ORDER BY pos)
                     AS pid
          FROM m),
    f AS (SELECT doc_id, pid, w FROM p WHERE st = 0),
    pl AS (SELECT doc_id, pid, CAST(count(*) AS BIGINT) AS plen
           FROM f GROUP BY 1, 2),
    j AS (SELECT f.w, pl.plen
          FROM f JOIN pl USING (doc_id, pid))
    SELECT w, CAST(sum(plen) AS BIGINT) AS deg,
           CAST(count(*) AS BIGINT) AS freq,
           CAST(sum(plen) AS DOUBLE) / CAST(count(*) AS DOUBLE)
               AS score
    FROM j GROUP BY w
"""


def term_gini_gain_docs(sf_dir: str):
    """FEATURE SELECTION by Gini information gain: for every vocab
    term, split the corpus by term presence and measure the drop in
    lang-label Gini impurity — the libm-free sibling of mutual
    information (entropy's log never hash-matches; Gini is pure
    rational). gain = (n^2-A)/n^2 - (n1^2-B)/(n1*n) - (n0^2-C)/(n0*n)
    over ONE common denominator n^2*n1*n0, exact python/HUGEINT
    integers end to end, one final float division. Distributed work:
    per-doc distinct terms -> (term, lang) doc counts; the finisher is
    vocab x langs."""
    def tok(t: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        lists = _pc.utf8_split_whitespace(t["text"])
        flat = np.asarray(_pc.list_flatten(lists), dtype=object)
        lens = np.asarray(_pc.list_value_length(lists),
                          dtype=np.int64)
        langs = np.asarray(t["lang"], dtype=object)
        doc = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
        keep = flat != ""
        key = np.char.add(np.char.add(doc[keep].astype("U20"), "\x1f"),
                          flat[keep].astype("U64"))
        _, idx = np.unique(key, return_index=True)
        return pa.table({
            "w": pa.array(flat[keep][idx], pa.string()),
            "lang": pa.array(langs[doc[keep][idx]], pa.string())})

    tl = (_read(sf_dir, "documents", ["text", "lang"])
          .map_batches(tok, batch_format="pyarrow")
          .groupby(["w", "lang"]).count().to_pandas())
    lt = (_read(sf_dir, "documents", ["lang"])
          .groupby("lang").count().to_pandas())
    al = {r["lang"]: int(r["count()"]) for _, r in lt.iterrows()}
    n = sum(al.values())
    A = sum(v * v for v in al.values())
    rows = []
    for w, g in tl.groupby("w", sort=True):
        b = {r["lang"]: int(r["count()"]) for _, r in g.iterrows()}
        n1 = sum(b.values())
        if n1 == 0 or n1 == n:
            continue
        n0 = n - n1
        B = sum(v * v for v in b.values())
        Sab = sum(al[k] * v for k, v in b.items())
        C = A - 2 * Sab + B
        num = (n1 * n0 * (n * n - A) - n * n0 * (n1 * n1 - B)
               - n * n1 * (n0 * n0 - C))
        den = n * n * n1 * n0
        rows.append((w, n1, str(num), str(den),
                     float(num) / float(den)))
    return pa.table({
        "w": pa.array([r[0] for r in rows], pa.string()),
        "n_with": pa.array([r[1] for r in rows], pa.int64()),
        "gain_num": pa.array([r[2] for r in rows], pa.string()),
        "gain_den": pa.array([r[3] for r in rows], pa.string()),
        "gain": pa.array([r[4] for r in rows], pa.float64())})


QUERIES["term_gini_gain_docs"] = term_gini_gain_docs
ORACLE_SQL["term_gini_gain_docs"] = """
    WITH d AS (SELECT doc_id, lang,
                      regexp_split_to_array(text, '\\s+') AS a
               FROM documents),
    tok AS (SELECT DISTINCT doc_id, lang, unnest(a) AS w FROM d),
    tl AS (SELECT w, lang, CAST(count(*) AS HUGEINT) AS b
           FROM tok WHERE w <> '' GROUP BY 1, 2),
    lt AS (SELECT lang, CAST(count(*) AS HUGEINT) AS al
           FROM documents GROUP BY 1),
    nn AS (SELECT CAST(count(*) AS HUGEINT) AS n FROM documents),
    aa AS (SELECT sum(al * al) AS A FROM lt),
    per AS (SELECT tl.w, sum(tl.b) AS n1, sum(tl.b * tl.b) AS B,
                   sum(lt.al * tl.b) AS Sab
            FROM tl JOIN lt USING (lang) GROUP BY tl.w),
    g AS (SELECT w, n1, n - n1 AS n0, B,
                 A - 2 * Sab + B AS C, n, A
          FROM per, nn, aa WHERE n1 > 0 AND n1 < n)
    SELECT w, CAST(n1 AS BIGINT) AS n_with,
           CAST(n1 * n0 * (n * n - A) - n * n0 * (n1 * n1 - B)
                - n * n1 * (n0 * n0 - C) AS VARCHAR) AS gain_num,
           CAST(n * n * n1 * n0 AS VARCHAR) AS gain_den,
           CAST(n1 * n0 * (n * n - A) - n * n0 * (n1 * n1 - B)
                - n * n1 * (n0 * n0 - C) AS DOUBLE)
               / CAST(n * n * n1 * n0 AS DOUBLE) AS gain
    FROM g
"""


def triad_census_hashgraph(sf_dir: str):
    """Directed MOTIF CENSUS over the hash graph: counts of cyclic
    triangles (a->b->c->a, each counted once — the raw rotation join
    count is provably divisible by 3) and transitive triangles
    (a->b->c with shortcut a->c, the feed-forward motif whose
    over/under-representation vs cycles is the classic network
    fingerprint). Plan: ONE distinct-edge pass, ONE wedge join
    (auto_join: counted broadcast <-> bucketed), and two key-membership
    joins for the closing edge — no per-vertex adjacency state."""
    from tldr_ray.stages.joins import auto_join

    N = np.int64(1 << 21)

    def dedup(batch: pa.Table) -> pa.Table:
        s = np.asarray(batch["src"], dtype=np.int64)
        d = np.asarray(batch["dst"], dtype=np.int64)
        return pa.table({"key": pa.array(np.unique(s * N + d))})

    ed = (_hash_graph_edges(sf_dir)
          .map_batches(dedup, batch_format="pyarrow")
          .groupby("key").count().select_columns(["key"])
          .materialize())

    def split(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch["key"], dtype=np.int64)
        return pa.table({"a": pa.array(k // N), "b": pa.array(k % N)})

    e1 = ed.map_batches(split, batch_format="pyarrow")
    e2 = ed.map_batches(
        lambda t: pa.table({
            "b": pa.array(np.asarray(t["key"], np.int64) // N),
            "c": pa.array(np.asarray(t["key"], np.int64) % N)}),
        batch_format="pyarrow")
    wedges = auto_join(e1, e2, on="b").map_batches(
        lambda t: t.filter(pc.not_equal(t["a"], t["c"])),
        batch_format="pyarrow").materialize()

    def close_key(cyclic: bool):
        def fn(t: pa.Table) -> pa.Table:
            a = np.asarray(t["a"], dtype=np.int64)
            c = np.asarray(t["c"], dtype=np.int64)
            k = c * N + a if cyclic else a * N + c
            return pa.table({"key": pa.array(k)})
        return fn

    n_cyc = auto_join(wedges.map_batches(close_key(True),
                                         batch_format="pyarrow"),
                      ed, on="key").count()
    n_trn = auto_join(wedges.map_batches(close_key(False),
                                         batch_format="pyarrow"),
                      ed, on="key").count()
    return pa.table({
        "n_cyclic": pa.array([n_cyc // 3], pa.int64()),
        "n_transitive": pa.array([n_trn], pa.int64())})


QUERIES["triad_census_hashgraph"] = triad_census_hashgraph
ORACLE_SQL["triad_census_hashgraph"] = f"""
    WITH {_HASHGRAPH_RAW},
    ed AS (SELECT DISTINCT s, t FROM raw2),
    cyc AS (SELECT count(*) AS c3
            FROM ed e1
            JOIN ed e2 ON e2.s = e1.t AND e2.t <> e1.s
            JOIN ed e3 ON e3.s = e2.t AND e3.t = e1.s),
    trn AS (SELECT count(*) AS ct
            FROM ed e1
            JOIN ed e2 ON e2.s = e1.t AND e2.t <> e1.s
            JOIN ed e3 ON e3.s = e1.s AND e3.t = e2.t)
    SELECT CAST(c3 // 3 AS BIGINT) AS n_cyclic,
           CAST(ct AS BIGINT) AS n_transitive
    FROM cyc, trn
"""


def resource_allocation_hashgraph(sf_dir: str):
    """RESOURCE-ALLOCATION link-prediction index (Zhou-Lu-Zhang) for
    every non-adjacent 2-hop pair: RA(u,w) = sum over common
    neighbors z of 1/deg(z) — the degree-penalized upgrade of the
    Jaccard predictor this repo already ships. 1/deg is fixed-point
    floor(2^20/deg) so partial-sum order can't perturb the hash (the
    float sum of reciprocals is order-dependent; the exact-integer
    mirror is the whole trick). Wedge pairs expand per center in a
    coarse hash-partition sweep (offset-pair vectorization bounded by
    the max degree in the task, never a per-row loop); adjacency is
    removed by one ANTI-join-shaped left join on the undirected key."""
    from ray.data.aggregate import Count, Sum

    from tldr_ray.stages.joins import auto_join

    N = np.int64(1 << 21)
    FP = np.int64(1 << 20)

    def und(batch: pa.Table) -> pa.Table:
        s = np.asarray(batch["src"], dtype=np.int64)
        d = np.asarray(batch["dst"], dtype=np.int64)
        a = np.minimum(s, d)
        b = np.maximum(s, d)
        return pa.table({"key": pa.array(np.unique(a * N + b))})

    ukeys = (_hash_graph_edges(sf_dir)
             .map_batches(und, batch_format="pyarrow")
             .groupby("key").count().select_columns(["key"])
             .materialize())

    def adj(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch["key"], dtype=np.int64)
        a, b = k // N, k % N
        z = np.concatenate([a, b])
        v = np.concatenate([b, a])
        return pa.table({
            "z": pa.array(z), "v": pa.array(v)})

    def sweep(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["z", "v"], kind="mergesort")
        z = g["z"].to_numpy(np.int64)
        v = g["v"].to_numpy(np.int64)
        starts = np.flatnonzero(np.r_[True, z[1:] != z[:-1]])
        cnt = np.diff(np.r_[starts, z.size])
        deg = np.repeat(cnt, cnt)           # deg(z) beside each row
        us, ws, wt = [], [], []
        m = int(cnt.max()) if cnt.size else 0
        for d1 in range(m - 1):             # offset pairs: O(maxdeg^2)
            for d2 in range(d1 + 1, m):
                sel = starts[cnt > d2]
                if not sel.size:
                    continue
                us.append(v[sel + d1])
                ws.append(v[sel + d2])
                wt.append(FP // deg[sel])
        if not us:
            return pa.table({"u": pa.array([], pa.int64()),
                             "w": pa.array([], pa.int64()),
                             "fp": pa.array([], pa.int64())})
        u = np.concatenate(us)
        w = np.concatenate(ws)
        f = np.concatenate(wt)
        lo = np.minimum(u, w)
        hi = np.maximum(u, w)
        return pa.table({"u": pa.array(lo), "w": pa.array(hi),
                         "fp": pa.array(f)})

    pairs = (keyed_sweep(ukeys.map_batches(adj, batch_format="pyarrow"),
                         "z", sweep)
             .groupby(["u", "w"])
             .aggregate(Sum("fp", alias_name="ra_fp"),
                        Count(alias_name="n_common")))

    def pkey(t: pa.Table) -> pa.Table:
        u = np.asarray(t["u"], dtype=np.int64)
        w = np.asarray(t["w"], dtype=np.int64)
        return t.append_column("key", pa.array(u * N + w))

    marked = auto_join(
        pairs.map_batches(pkey, batch_format="pyarrow"),
        ukeys.map_batches(lambda t: t.append_column(
            "adj", pa.array(np.ones(t.num_rows, np.int64))),
            batch_format="pyarrow"),
        on="key", how="left")

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["adj"].isna()]
        return pd.DataFrame({
            "u": b["u"].to_numpy(np.int64),
            "w": b["w"].to_numpy(np.int64),
            "ra_fp": b["ra_fp"].to_numpy(np.int64),
            "n_common": b["n_common"].to_numpy(np.int64)})

    return marked.map_batches(finish, batch_format="pandas")


QUERIES["resource_allocation_hashgraph"] = resource_allocation_hashgraph
ORACLE_SQL["resource_allocation_hashgraph"] = f"""
    WITH {_HASHGRAPH_RAW},
    und AS (SELECT DISTINCT least(s, t) AS a, greatest(s, t) AS b
            FROM raw2),
    adj AS (SELECT a AS z, b AS v FROM und
            UNION ALL SELECT b, a FROM und),
    deg AS (SELECT z, CAST(count(*) AS BIGINT) AS d
            FROM adj GROUP BY z),
    pr AS (SELECT least(n1.v, n2.v) AS u, greatest(n1.v, n2.v) AS w,
                  d.d
           FROM adj n1
           JOIN adj n2 ON n1.z = n2.z AND n1.v < n2.v
           JOIN deg d ON d.z = n1.z),
    s AS (SELECT u, w, CAST(sum(1048576 // d) AS BIGINT) AS ra_fp,
                 CAST(count(*) AS BIGINT) AS n_common
          FROM pr GROUP BY u, w)
    SELECT u, w, ra_fp, n_common
    FROM s ANTI JOIN und e ON e.a = s.u AND e.b = s.w
"""


_RING_NODES = 8
_RING_VNODES = 16


def consistent_hash_ring_users(sf_dir: str):
    """CONSISTENT-HASHING ring placement of distinct users onto 8
    nodes x 16 virtual nodes — the other classic minimal-disruption
    placement beside rendezvous_assignment_users (ring: a removed
    node's keys spill to the clockwise successor; HRW: argmax
    re-race). Ring positions are splitmix64(2*vnode), keys
    splitmix64(2*user+1) — disjoint odd/even domains of a bijection,
    so positions never collide with keys or each other. Assignment =
    first ring position clockwise (searchsorted on the 128-entry
    broadcast ring, wrap to min). SQL mirrors both hash chains
    (suffixed splitmix CTEs) + the min-position-over inequality."""
    from tldr_ray.stages.dedup import _mix64

    n_vn = _RING_NODES * _RING_VNODES
    pos = _mix64((2 * np.arange(n_vn, dtype=np.int64))
                 .astype(np.uint64))
    node = (np.arange(n_vn, dtype=np.int64)
            // _RING_VNODES)
    order = np.argsort(pos)
    pos_s, node_s = pos[order], node[order]

    def assign(batch: pa.Table) -> pa.Table:
        u = np.asarray(batch["user_id"], dtype=np.int64)
        kh = _mix64((2 * u + 1).astype(np.uint64))
        idx = np.searchsorted(pos_s, kh, side="left")
        idx[idx == n_vn] = 0
        return pa.table({"user_id": pa.array(u),
                         "node": pa.array(node_s[idx])})

    return (_read(sf_dir, "events", ["user_id"])
            .groupby("user_id").count().select_columns(["user_id"])
            .map_batches(assign, batch_format="pyarrow"))


QUERIES["consistent_hash_ring_users"] = consistent_hash_ring_users
ORACLE_SQL["consistent_hash_ring_users"] = f"""
    WITH vn AS (SELECT i // {_RING_VNODES} AS node,
                       CAST(2 * i AS HUGEINT) AS h
                FROM (SELECT unnest(range({_RING_NODES
                                           * _RING_VNODES})) AS i)),
    {_sql_splitmix_ctes("vn", carry="node, ", sfx="r")},
    ring AS (SELECT node, h AS pos FROM m3r),
    ku AS (SELECT user_id, CAST(2 * user_id + 1 AS HUGEINT) AS h
           FROM (SELECT DISTINCT user_id FROM events)),
    {_sql_splitmix_ctes("ku", carry="user_id, ", sfx="k")},
    keys AS (SELECT user_id, h AS kh FROM m3k),
    nxt AS (SELECT k.user_id, min(r.pos) AS pos
            FROM keys k JOIN ring r ON r.pos >= k.kh
            GROUP BY k.user_id),
    ch AS (SELECT k.user_id,
                  coalesce(n.pos, (SELECT min(pos) FROM ring)) AS pos
           FROM keys k LEFT JOIN nxt n USING (user_id))
    SELECT ch.user_id, CAST(r.node AS BIGINT) AS node
    FROM ch JOIN ring r USING (pos)
"""


def ams_f2_events(sf_dir: str, n_rows: int = 16):
    """AMS (Alon-Matias-Szegedy) SECOND-MOMENT sketch of the user_id
    stream: 16 independent +-1 hash rows, S_r = sum of signs over
    EVENTS (one counter per row per block — mergeable by addition,
    the textbook distributed-sketch contract); E[S_r^2] = F2 = sum of
    per-user count^2, the self-join size / skew statistic. Signs come
    from splitmix64(user*16+r) & 1, so the sketch is bit-reproducible
    and the estimate exact integers; the exact F2 rides beside it for
    the error report. One float division at the end (mean over 16)."""
    from ray.data.aggregate import Sum

    from tldr_ray.stages.dedup import _mix64

    R = n_rows

    def sk(t: pa.Table) -> pa.Table:
        u = np.asarray(t["user_id"], dtype=np.int64)
        parts = np.empty(R, np.int64)
        for r in range(R):
            h = _mix64((u * R + r).astype(np.uint64))
            parts[r] = np.int64(u.size) \
                - 2 * np.int64((h & np.uint64(1)).sum())
        return pa.table({"r": pa.array(np.arange(R, dtype=np.int64)),
                         "s": pa.array(parts)})

    sketch = (_read(sf_dir, "events", ["user_id"])
              .map_batches(sk, batch_format="pyarrow")
              .groupby("r").aggregate(Sum("s", alias_name="s"))
              .to_pandas().sort_values("r"))
    f2 = int((_read(sf_dir, "events", ["user_id"])
              .groupby("user_id").count()
              .map_batches(lambda t: pa.table({
                  "p": pa.array([int((np.asarray(
                      t["count()"], dtype=np.int64).astype(object)
                      ** 2).sum())], pa.int64())}),
                  batch_format="pyarrow")
              .sum("p")))
    s = sketch["s"].to_numpy(np.int64)
    est_mean = float(sum(int(v) * int(v) for v in s)) / float(R)
    return pa.table({
        "r": pa.array(sketch["r"].to_numpy(np.int64)),
        "s": pa.array(s),
        "est": pa.array(s * s),
        "f2_exact": pa.array([f2] * R, pa.int64()),
        "est_mean": pa.array([est_mean] * R, pa.float64())})


QUERIES["ams_f2_events"] = ams_f2_events
ORACLE_SQL["ams_f2_events"] = f"""
    WITH src AS (SELECT CAST(user_id * {16} + r AS HUGEINT) AS h, r
                 FROM events,
                      unnest(range({16})) AS t(r)),
    {_sql_splitmix_ctes("src", carry="r, ")},
    sk AS (SELECT r, CAST(sum(1 - 2 * CAST(h % 2 AS BIGINT))
                          AS BIGINT) AS s
           FROM m3 GROUP BY r),
    ex AS (SELECT CAST(sum(c * c) AS BIGINT) AS f2
           FROM (SELECT CAST(count(*) AS BIGINT) AS c
                 FROM events GROUP BY user_id)),
    mn AS (SELECT CAST(sum(s * s) AS DOUBLE) / CAST({16} AS DOUBLE)
               AS est_mean
           FROM sk)
    SELECT CAST(r AS BIGINT) AS r, s, s * s AS est,
           (SELECT f2 FROM ex) AS f2_exact,
           (SELECT est_mean FROM mn) AS est_mean
    FROM sk
"""


def levenshtein2_name_pairs(sf_dir: str):
    """Edit-distance <= 2 similarity join over distinct customer
    names (stages.dedup.edit_distance2_pairs — FastSS k=2: lossless
    2-deletion-neighborhood blocking + banded-DP verify, never
    all-pairs; the k=1 stage this widens catches only adjacent
    typos). Hash-checked against DuckDB's levenshtein() self-join
    including the dist column."""
    from tldr_ray.stages.dedup import edit_distance2_pairs

    return edit_distance2_pairs(
        _read(sf_dir, "customer", ["c_name"]), col="c_name")


QUERIES["levenshtein2_name_pairs"] = levenshtein2_name_pairs
ORACLE_SQL["levenshtein2_name_pairs"] = """
    WITH v AS (SELECT DISTINCT c_name AS w FROM customer)
    SELECT a.w AS w1, b.w AS w2,
           CAST(levenshtein(a.w, b.w) AS BIGINT) AS dist
    FROM v a JOIN v b
      ON a.w < b.w
     AND abs(length(a.w) - length(b.w)) <= 2
     AND levenshtein(a.w, b.w) <= 2
"""


def random_projection_embeddings(sf_dir: str, k_out: int = 8):
    """JOHNSON-LINDENSTRAUSS random projection 64 -> 8 dims with +-1
    splitmix signs over the int8-quantized codes (the float matmul's
    dot products are order-dependent; quantize-then-integer-project
    makes the sketch EXACT and bit-reproducible across engines — the
    distance-preserving cousin of feature_hash_docs). Per-dim [mn,mx]
    bands from one distributed min/max pass ride as a broadcast; the
    projection is one (codes-128) @ signs int64 matmul per batch."""
    from ray.data.aggregate import Max, Min

    import ray

    from tldr_ray.stages.ann import _as_matrix
    from tldr_ray.stages.dedup import _mix64

    def dimstats(t: pa.Table) -> pa.Table:
        m = _as_matrix(t["embedding"]).astype(np.float64)
        return pa.table({
            "dim": pa.array(np.arange(m.shape[1], dtype=np.int64)),
            "mn": pa.array(m.min(axis=0)),
            "mx": pa.array(m.max(axis=0))})

    mm = (_read(sf_dir, "embeddings", ["embedding"])
          .map_batches(dimstats, batch_format="pyarrow")
          .groupby("dim").aggregate(Min("mn", alias_name="mn"),
                                    Max("mx", alias_name="mx"))
          .to_pandas().sort_values("dim"))
    mn = mm["mn"].to_numpy(np.float64)
    mx = mm["mx"].to_numpy(np.float64)
    D = mn.size
    dd, jj = np.meshgrid(np.arange(D, dtype=np.int64),
                         np.arange(k_out, dtype=np.int64),
                         indexing="ij")
    sgn = (1 - 2 * (_mix64((dd * k_out + jj).astype(np.uint64))
                    & np.uint64(1)).astype(np.int64))
    ref = ray.put((mn, mx, sgn))

    def project(t: pa.Table) -> pa.Table:
        mn_, mx_, s_ = ray.get(ref)
        m = _as_matrix(t["embedding"]).astype(np.float64)
        span = mx_ - mn_
        code = np.where(span > 0,
                        np.floor((m - mn_) / span * 255 + 0.5), 0.0) \
            .astype(np.int64)
        y = (code - 128) @ s_
        vid = np.asarray(t["vec_id"], dtype=np.int64)
        n, k = y.shape
        return pa.table({
            "vec_id": pa.array(np.repeat(vid, k)),
            "j": pa.array(np.tile(np.arange(k, dtype=np.int64), n)),
            "y": pa.array(y.ravel())})

    return (_read(sf_dir, "embeddings", ["vec_id", "embedding"])
            .map_batches(project, batch_format="pyarrow"))


QUERIES["random_projection_embeddings"] = random_projection_embeddings
ORACLE_SQL["random_projection_embeddings"] = f"""
    WITH x AS (
        SELECT vec_id,
               CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT)
                   AS dim,
               CAST(unnest(embedding) AS DOUBLE) AS v
        FROM embeddings),
    mm AS (SELECT dim, CAST(min(v) AS DOUBLE) AS mn,
                  CAST(max(v) AS DOUBLE) AS mx
           FROM x GROUP BY dim),
    q AS (SELECT x.vec_id, x.dim,
                 CASE WHEN mm.mx > mm.mn
                      THEN CAST(floor((x.v - mm.mn) / (mm.mx - mm.mn)
                                      * 255 + 0.5) AS BIGINT)
                      ELSE 0 END AS code
          FROM x JOIN mm USING (dim)),
    sg AS (SELECT dim, j, CAST(dim * {8} + j AS HUGEINT) AS h
           FROM (SELECT DISTINCT dim FROM mm),
                unnest(range({8})) AS t(j)),
    {_sql_splitmix_ctes("sg", carry="dim, j, ")},
    s AS (SELECT dim, j, 1 - 2 * CAST(h % 2 AS BIGINT) AS sgn
          FROM m3)
    SELECT q.vec_id, s.j,
           CAST(sum((q.code - 128) * s.sgn) AS BIGINT) AS y
    FROM q JOIN s USING (dim)
    GROUP BY q.vec_id, s.j
"""


def largest_remainder_alloc_docs(sf_dir: str, seats: int = 1000):
    """LARGEST-REMAINDER (Hamilton) apportionment of a 1000-slot
    sampling budget across languages proportional to doc counts — the
    exact integer answer to 'how many docs per lang' that naive
    rounding gets wrong (rounded quotas don't sum to the budget).
    base = cnt*seats // n, the seats - sum(base) leftovers go to the
    largest remainders (cnt*seats % n, lang asc ties) — pure integer
    arithmetic, mirrored by one SQL window rank."""
    g = (_read(sf_dir, "documents", ["lang"])
         .groupby("lang").count().to_pandas().sort_values("lang"))
    cnt = g["count()"].to_numpy(np.int64)
    n = int(cnt.sum())
    base = cnt * seats // n
    rem = cnt * seats % n
    extra_n = seats - int(base.sum())
    order = np.lexsort((g["lang"].to_numpy(object), -rem))
    extra = np.zeros(cnt.size, dtype=np.int64)
    extra[order[:extra_n]] = 1
    return pa.table({
        "lang": pa.array(g["lang"].to_numpy(object), pa.string()),
        "n_docs": pa.array(cnt),
        "base": pa.array(base),
        "extra": pa.array(extra),
        "seats": pa.array(base + extra)})


QUERIES["largest_remainder_alloc_docs"] = largest_remainder_alloc_docs
ORACLE_SQL["largest_remainder_alloc_docs"] = """
    WITH g AS (SELECT lang, CAST(count(*) AS BIGINT) AS n_docs
               FROM documents GROUP BY lang),
    t AS (SELECT CAST(sum(n_docs) AS BIGINT) AS n,
                 CAST(sum(n_docs * 1000 // sum(n_docs)) OVER ()
                      AS BIGINT) AS dummy
          FROM g),
    b AS (SELECT lang, n_docs,
                 n_docs * 1000 // (SELECT sum(n_docs) FROM g) AS base,
                 n_docs * 1000 % (SELECT sum(n_docs) FROM g) AS rem
          FROM g),
    r AS (SELECT lang, n_docs, base, rem,
                 row_number() OVER (ORDER BY rem DESC, lang) AS rk,
                 1000 - (SELECT sum(base) FROM b) AS extra_n
          FROM b)
    SELECT lang, n_docs, CAST(base AS BIGINT) AS base,
           CAST(CASE WHEN rk <= extra_n THEN 1 ELSE 0 END AS BIGINT)
               AS extra,
           CAST(base + CASE WHEN rk <= extra_n THEN 1 ELSE 0 END
                AS BIGINT) AS seats
    FROM r
"""


_MARKOV_STATES = ("click", "error", "purchase", "signup", "view")


def compact_bins_events(sf_dir: str):
    """Small-file COMPACTION end to end, the shuffle-free way: lay
    events out as 24 deliberately-small parquet files, FFD-pack them
    by BYTE SIZE into ~quarter-directory bins
    (sinks.plan_compaction_bins), rewrite each bin as one file in an
    independent Ray task (each task reads ONLY its bin — at 100 TB
    this is thousands of independent tasks, not a repartition
    all-to-all), atomically swap, and PROVE rows survived with the
    order-independent table checksum (same commutative digest as
    table_checksum_orders — layout can't change it). Rows-only (file
    sizes depend on the encoder); the pytest pins plan capacity/
    determinism and checksum preservation."""
    import hashlib
    import shutil

    import ray

    from tldr_ray.hashing import fnv1a_batch
    from tldr_ray.sinks import compact_bins
    from tldr_ray.stages.dedup import _mix64

    key = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    out = f"/tmp/tldr_ray_compact/{key}"
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out, exist_ok=True)

    def checksum(path: str) -> tuple[int, int]:
        import ray.data as rd

        def partial(batch: pa.Table) -> pa.Table:
            s = pc.binary_join_element_wise(
                pc.cast(batch["event_id"], pa.string()),
                pc.cast(batch["user_id"], pa.string()),
                pc.cast(pa.array(_cents(np.asarray(
                    batch["value"], dtype=np.float64))), pa.string()),
                "|")
            h = _mix64(fnv1a_batch(s))
            return pa.table({
                "ps": pa.array([h.sum(dtype=np.uint64)], pa.uint64()),
                "pn": pa.array([len(h)], pa.int64())})

        parts = rd.read_parquet(path) \
            .map_batches(partial, batch_format="pyarrow").to_pandas()
        return (sum(int(x) for x in parts["ps"]) % (1 << 64),
                int(parts["pn"].sum()))

    (_read(sf_dir, "events", ["event_id", "user_id", "value"])
     .repartition(24).write_parquet(out))
    ck0, n0 = checksum(out)
    total = sum(os.stat(os.path.join(out, f)).st_size
                for f in os.listdir(out) if f.endswith(".parquet"))
    rep = compact_bins(out, target_bytes=max(total // 4, 1))
    ck1, n1 = checksum(out)
    return pa.table({
        "files_before": pa.array([rep["files_before"]], pa.int64()),
        "files_after": pa.array([rep["files_after"]], pa.int64()),
        "rows": pa.array([rep["rows"]], pa.int64()),
        "checksum_match": pa.array([int(ck0 == ck1 and n0 == n1)],
                                   pa.int64())})


QUERIES["compact_bins_events"] = compact_bins_events


def user_longest_streak(sf_dir: str):
    """GAPS-AND-ISLANDS: each user's longest run of consecutive
    active days (the engagement-streak metric; the day - rank trick
    makes islands a grouping key with no sequential scan). Plan: one
    distinct (user, day) pass, then a coarse user-partition sweep —
    island ids are a vectorized cumsum over day-diff breaks, lengths
    one bincount; only (user, n_days, streak) leaves the task."""
    DAY = np.int64(86_400_000_000)

    def days(t: pa.Table) -> pa.Table:
        u = np.asarray(t["user_id"], dtype=np.int64)
        d = np.asarray(t["ts"].cast(pa.int64()),
                       dtype=np.int64) // DAY
        k = np.unique(u * np.int64(1 << 20) + d)
        uu = k >> 20
        return pa.table({
            "user_id": pa.array(uu),
            "day": pa.array(k & np.int64((1 << 20) - 1))})

    def sweep(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["user_id", "day"]) \
            .sort_values(["user_id", "day"], kind="mergesort")
        u = g["user_id"].to_numpy(np.int64)
        d = g["day"].to_numpy(np.int64)
        brk = np.r_[True, (u[1:] != u[:-1]) | (d[1:] - d[:-1] != 1)]
        seg = np.cumsum(brk) - 1
        seglen = np.bincount(seg)
        lens = pd.Series(seglen[seg])
        gg = pd.DataFrame({"user_id": u, "len": lens})
        out = gg.groupby("user_id", sort=True)["len"] \
            .agg(["max", "count"])
        return pd.DataFrame({
            "user_id": out.index.to_numpy(np.int64),
            "n_active_days": out["count"].to_numpy(np.int64),
            "longest_streak": out["max"].to_numpy(np.int64)})

    return keyed_sweep(_read(sf_dir, "events", ["user_id", "ts"])
                       .map_batches(days, batch_format="pyarrow"),
                       "user_id", sweep)


QUERIES["user_longest_streak"] = user_longest_streak
ORACLE_SQL["user_longest_streak"] = """
    WITH d AS (SELECT DISTINCT user_id,
                      epoch_us(ts) // 86400000000 AS day
               FROM events),
    i AS (SELECT user_id, day,
                 day - row_number() OVER (PARTITION BY user_id
                                          ORDER BY day) AS isl
          FROM d),
    s AS (SELECT user_id, isl, CAST(count(*) AS BIGINT) AS len
          FROM i GROUP BY 1, 2)
    SELECT user_id, CAST(sum(len) AS BIGINT) AS n_active_days,
           CAST(max(len) AS BIGINT) AS longest_streak
    FROM s GROUP BY user_id
"""


def nearest_centroid_embeddings(sf_dir: str):
    """NEAREST-CENTROID (Rocchio) classification of every embedding
    against per-label centroids — EXACT despite the float curse:
    vectors ride as int8 quantization codes, centroids stay as
    (sum-of-codes, count) INTEGER pairs (never divided), and the
    squared distance to centroid c reduces (dropping the shared |x|^2)
    to f_c = (|S_c|^2 - 2*n_c*(x . S_c)) / n_c^2 — exact int64
    numerator, ONE division, argmin over 5 bit-identical doubles
    (label-asc ties). Two distributed passes: per-dim min/max +
    per-label code sums, then a broadcast-scored map."""
    from ray.data.aggregate import Max, Min, Sum

    import ray

    from tldr_ray.stages.ann import _as_matrix
    _ = Max, Min

    def dimstats(t: pa.Table) -> pa.Table:
        m = _as_matrix(t["embedding"]).astype(np.float64)
        return pa.table({
            "dim": pa.array(np.arange(m.shape[1], dtype=np.int64)),
            "mn": pa.array(m.min(axis=0)),
            "mx": pa.array(m.max(axis=0))})

    mm = (_read(sf_dir, "embeddings", ["embedding"])
          .map_batches(dimstats, batch_format="pyarrow")
          .groupby("dim").aggregate(Min("mn", alias_name="mn"),
                                    Max("mx", alias_name="mx"))
          .to_pandas().sort_values("dim"))
    mn = mm["mn"].to_numpy(np.float64)
    mx = mm["mx"].to_numpy(np.float64)
    bands = ray.put((mn, mx))

    def codes_of(t: pa.Table) -> np.ndarray:
        mn_, mx_ = ray.get(bands)
        m = _as_matrix(t["embedding"]).astype(np.float64)
        span = mx_ - mn_
        return np.where(span > 0,
                        np.floor((m - mn_) / span * 255 + 0.5),
                        0.0).astype(np.int64)

    def label_sums(t: pa.Table) -> pa.Table:
        code = codes_of(t)
        lab = np.asarray(t["label"], dtype=np.int64)
        out_l, out_d, out_s, out_n = [], [], [], []
        for lv in np.unique(lab):
            sel = code[lab == lv]
            out_l.append(np.full(code.shape[1], lv, np.int64))
            out_d.append(np.arange(code.shape[1], dtype=np.int64))
            out_s.append(sel.sum(axis=0, dtype=np.int64))
            out_n.append(np.full(code.shape[1],
                                 sel.shape[0], np.int64))
        return pa.table({
            "label": pa.array(np.concatenate(out_l)),
            "dim": pa.array(np.concatenate(out_d)),
            "s": pa.array(np.concatenate(out_s)),
            "n": pa.array(np.concatenate(out_n))})

    cs = (_read(sf_dir, "embeddings", ["embedding", "label"])
          .map_batches(label_sums, batch_format="pyarrow")
          .groupby(["label", "dim"])
          .aggregate(Sum("s", alias_name="s"),
                     Sum("n", alias_name="n"))
          .to_pandas().sort_values(["label", "dim"]))
    labels = np.sort(cs["label"].unique()).astype(np.int64)
    D = int(cs["dim"].max()) + 1
    S = cs["s"].to_numpy(np.int64).reshape(labels.size, D)
    ncl = cs["n"].to_numpy(np.int64).reshape(labels.size, D)[:, 0]
    S2 = (S.astype(object) ** 2).sum(axis=1)
    S2 = np.array([int(x) for x in S2], dtype=np.int64)
    cref = ray.put((labels, S, ncl, S2))

    def classify(t: pa.Table) -> pa.Table:
        labs, S_, n_, S2_ = ray.get(cref)
        code = codes_of(t)
        dot = code @ S_.T                     # int64 exact
        num = S2_[None, :] - 2 * n_[None, :] * dot
        f = num.astype(np.float64) / (n_ * n_).astype(np.float64)
        j = np.argmin(f, axis=1)              # first min = label asc
        return pa.table({
            "vec_id": t["vec_id"].cast(pa.int64()),
            "label": t["label"].cast(pa.int64()),
            "pred": pa.array(labs[j])})

    return (_read(sf_dir, "embeddings",
                  ["vec_id", "embedding", "label"])
            .map_batches(classify, batch_format="pyarrow"))


QUERIES["nearest_centroid_embeddings"] = nearest_centroid_embeddings
ORACLE_SQL["nearest_centroid_embeddings"] = """
    WITH x AS (
        SELECT vec_id, CAST(label AS BIGINT) AS label,
               CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT)
                   AS dim,
               CAST(unnest(embedding) AS DOUBLE) AS v
        FROM embeddings),
    mm AS (SELECT dim, CAST(min(v) AS DOUBLE) AS mn,
                  CAST(max(v) AS DOUBLE) AS mx
           FROM x GROUP BY dim),
    q AS (SELECT x.vec_id, x.label, x.dim,
                 CASE WHEN mm.mx > mm.mn
                      THEN CAST(floor((x.v - mm.mn) / (mm.mx - mm.mn)
                                      * 255 + 0.5) AS BIGINT)
                      ELSE 0 END AS code
          FROM x JOIN mm USING (dim)),
    cs AS (SELECT label AS cl, dim, CAST(sum(code) AS BIGINT) AS s
           FROM q GROUP BY 1, 2),
    nc AS (SELECT CAST(label AS BIGINT) AS cl,
                  CAST(count(*) AS BIGINT) AS n
           FROM embeddings GROUP BY 1),
    s2 AS (SELECT cl, CAST(sum(s * s) AS BIGINT) AS s2
           FROM cs GROUP BY cl),
    dt AS (SELECT q.vec_id, cs.cl,
                  CAST(sum(q.code * cs.s) AS BIGINT) AS dot
           FROM q JOIN cs USING (dim)
           GROUP BY 1, 2),
    f AS (SELECT dt.vec_id, dt.cl,
                 CAST(s2.s2 - 2 * nc.n * dt.dot AS DOUBLE)
                     / CAST(nc.n * nc.n AS DOUBLE) AS f
          FROM dt JOIN nc USING (cl) JOIN s2 USING (cl)),
    r AS (SELECT vec_id, cl,
                 row_number() OVER (PARTITION BY vec_id
                                    ORDER BY f, cl) AS rn
          FROM f)
    SELECT e.vec_id, CAST(e.label AS BIGINT) AS label,
           r.cl AS pred
    FROM embeddings e JOIN r ON r.vec_id = e.vec_id AND r.rn = 1
"""


def prefix_top_word_docs(sf_dir: str):
    """AUTOCOMPLETE table: for every 3-char prefix in the corpus
    vocabulary, the most frequent completion (freq desc, word asc
    ties) plus the prefix's candidate count — the suggest-index
    shape. One token-count groupby; the per-prefix argmax runs as a
    coarse hash(prefix) sweep with a vectorized segment scan."""
    from ray.data.aggregate import Sum

    def toks(t: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        wds = _pc.list_flatten(_pc.utf8_split_whitespace(t["text"]))
        wds = wds.filter(_pc.not_equal(wds, ""))
        return pa.table({"w": wds,
                         "n": pa.array(np.ones(len(wds), np.int64))})

    wc = (_read(sf_dir, "documents", ["text"])
          .map_batches(toks, batch_format="pyarrow")
          .groupby("w").aggregate(Sum("n", alias_name="freq")))

    def pfx(t: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        p = _pc.utf8_slice_codeunits(t["w"], 0, 3)
        return t.append_column("prefix", p)

    def top(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["prefix", "freq", "w"],
                          ascending=[True, False, True],
                          kind="mergesort")
        first = g.drop_duplicates("prefix", keep="first")
        n = g.groupby("prefix", sort=True).size()
        first = first.sort_values("prefix", kind="mergesort")
        return pd.DataFrame({
            "prefix": pd.Series(first["prefix"].to_numpy(object),
                                dtype=object),
            "top_word": pd.Series(first["w"].to_numpy(object),
                                  dtype=object),
            "freq": first["freq"].to_numpy(np.int64),
            "n_candidates": n.loc[first["prefix"]].to_numpy(np.int64)})

    return keyed_sweep(wc.map_batches(pfx, batch_format="pyarrow"),
                       "prefix", top, 16)


QUERIES["prefix_top_word_docs"] = prefix_top_word_docs
ORACLE_SQL["prefix_top_word_docs"] = """
    WITH tok AS (SELECT unnest(regexp_split_to_array(text, '\\s+'))
                     AS w
                 FROM documents),
    wc AS (SELECT w, CAST(count(*) AS BIGINT) AS freq
           FROM tok WHERE w <> '' GROUP BY w),
    p AS (SELECT substr(w, 1, 3) AS prefix, w, freq,
                 row_number() OVER (PARTITION BY substr(w, 1, 3)
                                    ORDER BY freq DESC, w) AS rn,
                 count(*) OVER (PARTITION BY substr(w, 1, 3))
                     AS n_candidates
          FROM wc)
    SELECT prefix, w AS top_word, freq,
           CAST(n_candidates AS BIGINT) AS n_candidates
    FROM p WHERE rn = 1
"""


def bounce_rate_sessions(sf_dir: str):
    """BOUNCE RATE: share of 30-min-gap sessions containing exactly
    one event — the engagement-quality scalar on top of the
    sessionizer this repo already ships (stages.windows.
    session_windows); counts exact, one division."""
    from ray.data.aggregate import Count, Sum

    from tldr_ray.stages.windows import session_windows

    s = session_windows(_read(sf_dir, "events", ["user_id", "ts"]),
                        key_col="user_id", ts_col="ts", gap_s=1800)

    def flag(t: pa.Table) -> pa.Table:
        n = np.asarray(t["n_events"], dtype=np.int64)
        return pa.table({
            "one": pa.array((n == 1).astype(np.int64))})

    g = (s.map_batches(flag, batch_format="pyarrow")
         .aggregate(Count(alias_name="n_sessions"),
                    Sum("one", alias_name="n_bounces")))
    ns, nb = int(g["n_sessions"]), int(g["n_bounces"])
    return pa.table({
        "n_sessions": pa.array([ns], pa.int64()),
        "n_bounces": pa.array([nb], pa.int64()),
        "bounce_rate": pa.array([float(nb) / float(ns)],
                                pa.float64())})


QUERIES["bounce_rate_sessions"] = bounce_rate_sessions
ORACLE_SQL["bounce_rate_sessions"] = """
    WITH gaps AS (
        SELECT user_id, ts,
               CASE WHEN lag(ts) OVER w IS NULL
                         OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                    THEN 1 ELSE 0 END AS new_session
        FROM events
        WINDOW w AS (PARTITION BY user_id ORDER BY ts)),
    sessions AS (
        SELECT user_id, ts,
               sum(new_session) OVER (PARTITION BY user_id ORDER BY ts
                                      ROWS UNBOUNDED PRECEDING)
                   AS session_id
        FROM gaps),
    sz AS (SELECT user_id, session_id, count(*) AS n
           FROM sessions GROUP BY 1, 2),
    c AS (SELECT CAST(count(*) AS BIGINT) AS n_sessions,
                 CAST(count(*) FILTER (n = 1) AS BIGINT) AS n_bounces
          FROM sz)
    SELECT n_sessions, n_bounces,
           CAST(n_bounces AS DOUBLE) / CAST(n_sessions AS DOUBLE)
               AS bounce_rate
    FROM c
"""


def user_type_signature_counts(sf_dir: str):
    """AUDIENCE SEGMENTATION by event-type SET signature: every user
    collapses to a 5-bit mask of which event types they ever fired
    (click=1, error=2, purchase=4, signup=8, view=16), and the
    output is the mask histogram — which behavioral segments exist
    and how big each is (the full-lattice generalization of
    users_all_event_types). Distinct (user, type) -> per-user bit sum
    (each type once, so Sum == bit_or) -> mask histogram; nothing
    user-sized reaches the driver."""
    from ray.data.aggregate import Sum

    idx = {s: i for i, s in enumerate(_MARKOV_STATES)}

    def tb(t: pa.Table) -> pa.Table:
        et = np.asarray(t["event_type"], dtype=object)
        bi = np.array([idx[x] for x in et], dtype=np.int64)
        u = np.asarray(t["user_id"], dtype=np.int64)
        k = np.unique(u * np.int64(32) + bi)
        return pa.table({
            "user_id": pa.array(k >> 5),
            "b": pa.array(np.int64(1) << (k & np.int64(31)))})

    return (_read(sf_dir, "events", ["user_id", "event_type"])
            .map_batches(tb, batch_format="pyarrow")
            .groupby(["user_id", "b"]).count()
            .map_batches(lambda t: t.select(["user_id", "b"]),
                         batch_format="pyarrow")
            .groupby("user_id").aggregate(Sum("b", alias_name="mask"))
            .groupby("mask").count()
            .map_batches(lambda t: pa.table({
                "mask": t["mask"].cast(pa.int64()),
                "n_users": t["count()"].cast(pa.int64())}),
                batch_format="pyarrow"))


QUERIES["user_type_signature_counts"] = user_type_signature_counts
ORACLE_SQL["user_type_signature_counts"] = """
    WITH b AS (SELECT * FROM (VALUES ('click', 1), ('error', 2),
                                     ('purchase', 4), ('signup', 8),
                                     ('view', 16)) AS t(et, bit)),
    m AS (SELECT e.user_id,
                 CAST(bit_or(b.bit) AS BIGINT) AS mask
          FROM events e JOIN b ON b.et = e.event_type
          GROUP BY e.user_id)
    SELECT mask, CAST(count(*) AS BIGINT) AS n_users
    FROM m GROUP BY mask
"""


def vocab_coverage_curve_docs(sf_dir: str):
    """VOCABULARY COVERAGE curve: rank words by corpus frequency
    (freq desc, word asc) and report each rank's cumulative share of
    all tokens — the how-big-must-the-vocab-be table every tokenizer
    budget decision reads off. Exact integer cum sums; one division
    per rank."""
    from ray.data.aggregate import Sum

    def toks(t: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        wds = _pc.list_flatten(_pc.utf8_split_whitespace(t["text"]))
        wds = wds.filter(_pc.not_equal(wds, ""))
        return pa.table({"w": wds,
                         "n": pa.array(np.ones(len(wds), np.int64))})

    wc = (_read(sf_dir, "documents", ["text"])
          .map_batches(toks, batch_format="pyarrow")
          .groupby("w").aggregate(Sum("n", alias_name="freq"))
          .to_pandas())
    wc = wc.sort_values(["freq", "w"], ascending=[False, True],
                        kind="mergesort").reset_index(drop=True)
    freq = wc["freq"].to_numpy(np.int64)
    cum = np.cumsum(freq)
    tot = int(cum[-1])
    return pa.table({
        "rank": pa.array(np.arange(1, freq.size + 1, dtype=np.int64)),
        "w": pa.array(wc["w"].to_numpy(object), pa.string()),
        "freq": pa.array(freq),
        "cum_freq": pa.array(cum),
        "coverage": pa.array(cum.astype(np.float64)
                             / np.float64(tot))})


QUERIES["vocab_coverage_curve_docs"] = vocab_coverage_curve_docs
ORACLE_SQL["vocab_coverage_curve_docs"] = """
    WITH tok AS (SELECT unnest(regexp_split_to_array(text, '\\s+'))
                     AS w
                 FROM documents),
    wc AS (SELECT w, CAST(count(*) AS BIGINT) AS freq
           FROM tok WHERE w <> '' GROUP BY w),
    r AS (SELECT w, freq,
                 row_number() OVER (ORDER BY freq DESC, w) AS rank,
                 CAST(sum(freq) OVER (ORDER BY freq DESC, w)
                      AS BIGINT) AS cum_freq
          FROM wc)
    SELECT rank, w, freq, cum_freq,
           CAST(cum_freq AS DOUBLE)
               / CAST((SELECT sum(freq) FROM wc) AS DOUBLE)
               AS coverage
    FROM r
"""


def geometric_median_embeddings(sf_dir: str):
    """Robust corpus center: the GEOMETRIC MEDIAN of the embedding
    cloud by 20 distributed Weiszfeld passes (stages.ann.
    geometric_median) beside the per-dim mean — the robust-statistics
    upgrade whose objective (sum of distances) is printed per
    iteration so convergence is visible in the result. Rows-only
    (iterative float divisions); the pytest pins monotone objective
    + outlier robustness on a planted cloud."""
    from tldr_ray.stages.ann import _as_matrix, geometric_median

    ds = _read(sf_dir, "embeddings", ["embedding"])
    center, objs = geometric_median(ds, iters=20)

    def mean_part(t: pa.Table) -> pa.Table:
        m = _as_matrix(t["embedding"]).astype(np.float64)
        return pa.table({
            "k": pa.array(np.arange(m.shape[1] + 1, dtype=np.int64)),
            "v": pa.array(np.concatenate([m.sum(axis=0),
                                          [float(m.shape[0])]]))})

    from ray.data.aggregate import Sum

    agg = (ds.map_batches(mean_part, batch_format="pyarrow")
           .groupby("k").aggregate(Sum("v", alias_name="s"))
           .to_pandas().sort_values("k"))
    v = agg["s"].to_numpy()
    mean = v[:-1] / v[-1]
    return pa.table({
        "dim": pa.array(np.arange(center.size, dtype=np.int64)),
        "gmedian": pa.array(center),
        "mean": pa.array(mean),
        "obj_first": pa.array(np.full(center.size, objs[0])),
        "obj_last": pa.array(np.full(center.size, objs[-1]))})


QUERIES["geometric_median_embeddings"] = geometric_median_embeddings


def _huffman_lengths(freqs: dict) -> dict:
    """Deterministic Huffman code lengths: merge the two smallest
    (weight, min-symbol) nodes; ties resolve by the lexicographically
    smallest symbol carried inside each subtree — total order, no RNG."""
    import heapq

    heap = [(int(w), s, {s: 0}) for s, w in sorted(freqs.items())]
    heapq.heapify(heap)
    if len(heap) == 1:
        w, s, d = heap[0]
        return {s: 1}
    while len(heap) > 1:
        w1, s1, d1 = heapq.heappop(heap)
        w2, s2, d2 = heapq.heappop(heap)
        d = {k: v + 1 for k, v in d1.items()}
        d.update({k: v + 1 for k, v in d2.items()})
        heapq.heappush(heap, (w1 + w2, min(s1, s2), d))
    return heap[0][2]


def huffman_code_events(sf_dir: str):
    """HUFFMAN code lengths for the event-type alphabet — the
    entropy-coding budget table (how many bits a type-stream column
    costs under optimal prefix coding, the compression-aware cousin
    of compression_signal_docs). One distributed type count; the
    5-leaf merge is driver arithmetic with total-order (weight,
    min-symbol) ties. Rows-only (the greedy's tree state has no SQL
    mirror); the pytest pins Kraft equality + brute-force optimality."""
    g = (_read(sf_dir, "events", ["event_type"])
         .groupby("event_type").count().to_pandas())
    freqs = {r["event_type"]: int(r["count()"])
             for _, r in g.iterrows()}
    lens = _huffman_lengths(freqs)
    syms = sorted(freqs)
    total = sum(freqs[s] * lens[s] for s in syms)
    return pa.table({
        "event_type": pa.array(syms, pa.string()),
        "freq": pa.array([freqs[s] for s in syms], pa.int64()),
        "code_len": pa.array([lens[s] for s in syms], pa.int64()),
        "weighted_bits": pa.array([freqs[s] * lens[s] for s in syms],
                                  pa.int64()),
        "total_bits": pa.array([total] * len(syms), pa.int64())})


QUERIES["huffman_code_events"] = huffman_code_events


def daily_top_users_trailing7(sf_dir: str, k: int = 3):
    """Daily LEADERBOARD over a trailing-7-day window: for every day
    in the data's span, the top-3 users by trailing event count —
    the sliding heavy-hitter readout. Same shift-replication trick as
    trailing_7d_active_users ((user, day) counts fan to day..day+6 —
    7x the DISTINCT pairs, never 7x the events), one grouped sum,
    then a per-day rank in a coarse day sweep."""
    from ray.data.aggregate import Sum

    DAY = np.int64(86_400_000_000)

    def ud(t: pa.Table) -> pa.Table:
        u = np.asarray(t["user_id"], dtype=np.int64)
        d = np.asarray(t["ts"].cast(pa.int64()),
                       dtype=np.int64) // DAY
        k_ = u * np.int64(1 << 20) + d
        uk, cnt = np.unique(k_, return_counts=True)
        return pa.table({
            "user_id": pa.array(uk >> 20),
            "day": pa.array(uk & np.int64((1 << 20) - 1)),
            "c": pa.array(cnt.astype(np.int64))})

    ud_ds = (_read(sf_dir, "events", ["user_id", "ts"])
             .map_batches(ud, batch_format="pyarrow")
             .groupby(["user_id", "day"])
             .aggregate(Sum("c", alias_name="c")).materialize())
    bounds = ud_ds.map_batches(
        lambda t: pa.table({
            "mn": pa.array([int(np.asarray(t["day"]).min())]),
            "mx": pa.array([int(np.asarray(t["day"]).max())])}),
        batch_format="pyarrow").to_pandas()
    lo, hi = int(bounds["mn"].min()), int(bounds["mx"].max())

    def fan(t: pa.Table) -> pa.Table:
        u = np.asarray(t["user_id"], dtype=np.int64)
        d = np.asarray(t["day"], dtype=np.int64)
        c = np.asarray(t["c"], dtype=np.int64)
        off = np.arange(7, dtype=np.int64)
        uu = np.repeat(u, 7)
        dd = (d[:, None] + off[None, :]).ravel()
        cc = np.repeat(c, 7)
        keep = dd <= hi
        return pa.table({"user_id": pa.array(uu[keep]),
                         "day": pa.array(dd[keep]),
                         "c": pa.array(cc[keep])})

    tr = (ud_ds.map_batches(fan, batch_format="pyarrow")
          .groupby(["user_id", "day"])
          .aggregate(Sum("c", alias_name="t7")))

    def rank(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["day", "t7", "user_id"],
                          ascending=[True, False, True],
                          kind="mergesort")
        rn = g.groupby("day", sort=False).cumcount() + 1
        g = g[rn <= k]
        rn = rn[rn <= k]
        return pd.DataFrame({
            "day": g["day"].to_numpy(np.int64),
            "rank": rn.to_numpy(np.int64),
            "user_id": g["user_id"].to_numpy(np.int64),
            "t7": g["t7"].to_numpy(np.int64)})

    return keyed_sweep(tr, "day", rank, 32)


QUERIES["daily_top_users_trailing7"] = daily_top_users_trailing7
ORACLE_SQL["daily_top_users_trailing7"] = """
    WITH ud AS (SELECT user_id, epoch_us(ts) // 86400000000 AS day,
                       CAST(count(*) AS BIGINT) AS c
                FROM events GROUP BY 1, 2),
    b AS (SELECT max(day) AS hi FROM ud),
    f AS (SELECT user_id, day + o.o AS day, c
          FROM ud, unnest(range(7)) AS o(o)
          WHERE day + o.o <= (SELECT hi FROM b)),
    t AS (SELECT user_id, day, CAST(sum(c) AS BIGINT) AS t7
          FROM f GROUP BY 1, 2),
    r AS (SELECT day, user_id, t7,
                 row_number() OVER (PARTITION BY day
                                    ORDER BY t7 DESC, user_id)
                     AS rank
          FROM t)
    SELECT day, CAST(rank AS BIGINT) AS rank, user_id, t7
    FROM r WHERE rank <= 3
"""


_BM25_TERMS = ("batch", "merge", "stream")


def bm25_search_docs(sf_dir: str, k: int = 20):
    """BM25 ranked retrieval for a fixed 3-term query (k1=1.5,
    b=0.75 — both exact binary floats) with the LINEAR RATIONAL idf
    (N/df) this repo's tfidf standardized on (libm log never
    hash-matches; the ranking monotonicity is identical): score =
    sum_t (N/df_t) * tf*2.5 / (tf + 1.5*(0.25 + 0.75*(dl/avgdl))).
    ONE tokenize pass emits per-doc (dl, tf_t) — docs never span
    batches, so no shuffle; per-block partial counts give df/N/avgdl; the
    scorer is a broadcast map with per-block top-k partials, driver
    merges 20. Every float op is a fixed chain, term-ascending
    left-associative sum — hash-matches the SQL pivot mirror."""
    import ray

    def percell(t: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        lists = _pc.utf8_split_whitespace(t["text"])
        flat = np.asarray(_pc.list_flatten(lists), dtype=object)
        lens = np.asarray(_pc.list_value_length(lists),
                          dtype=np.int64)
        doc = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
        keep = flat != ""
        dl = np.bincount(doc[keep], minlength=lens.size) \
            .astype(np.int64)
        ids = np.asarray(t["doc_id"], dtype=np.int64)
        cols = {"doc_id": pa.array(ids), "dl": pa.array(dl)}
        for q in _BM25_TERMS:
            sel = keep & (flat == q)
            cols[f"tf_{q}"] = pa.array(
                np.bincount(doc[sel], minlength=lens.size)
                .astype(np.int64))
        return pa.table(cols)

    per_doc = (_read(sf_dir, "documents", ["doc_id", "text"])
               .map_batches(percell, batch_format="pyarrow")
               .materialize())
    stats = per_doc.map_batches(
        lambda t: pa.table(
            {"n_docs": pa.array([t.num_rows], pa.int64()),
             "sum_dl": pa.array([int(np.asarray(t["dl"],
                                                dtype=np.int64)
                                     .sum())], pa.int64()),
             **{f"df_{q}": pa.array(
                 [int((np.asarray(t[f"tf_{q}"], dtype=np.int64)
                       > 0).sum())], pa.int64())
                for q in _BM25_TERMS}}),
        batch_format="pyarrow").to_pandas().sum()
    N = int(stats["n_docs"])
    avgdl = float(int(stats["sum_dl"])) / float(N)
    dfs = {q: int(stats[f"df_{q}"]) for q in _BM25_TERMS}
    sref = ray.put((N, avgdl, dfs))

    def score(t: pa.Table) -> pa.Table:
        N_, avgdl_, dfs_ = ray.get(sref)
        dl = np.asarray(t["dl"], dtype=np.int64).astype(np.float64)
        total = None
        contribs = {}
        for q in _BM25_TERMS:                    # ascending order
            tf = np.asarray(t[f"tf_{q}"],
                            dtype=np.int64).astype(np.float64)
            idf = np.float64(N_) / np.float64(dfs_[q])
            den = tf + np.float64(1.5) * (np.float64(0.25)
                                          + np.float64(0.75)
                                          * (dl / np.float64(avgdl_)))
            c = np.where(tf > 0, idf * (tf * np.float64(2.5)) / den,
                         0.0)
            contribs[q] = c
            total = c if total is None else total + c
        ids = np.asarray(t["doc_id"], dtype=np.int64)
        hit = total > 0
        sel = np.lexsort((ids[hit], -total[hit]))[:20]
        base = {"doc_id": pa.array(ids[hit][sel]),
                "score": pa.array(total[hit][sel])}
        for q in _BM25_TERMS:
            base[f"c_{q}"] = pa.array(contribs[q][hit][sel])
        return pa.table(base)

    parts = per_doc.map_batches(score,
                                batch_format="pyarrow").to_pandas()
    parts = parts.sort_values(["score", "doc_id"],
                              ascending=[False, True],
                              kind="mergesort").head(k)
    return pa.table({
        "doc_id": pa.array(parts["doc_id"].to_numpy(np.int64)),
        "score": pa.array(parts["score"].to_numpy(np.float64)),
        **{f"c_{q}": pa.array(parts[f"c_{q}"].to_numpy(np.float64))
           for q in _BM25_TERMS}})


QUERIES["bm25_search_docs"] = bm25_search_docs
ORACLE_SQL["bm25_search_docs"] = """
    WITH t AS (SELECT doc_id, regexp_split_to_array(text, '\\s+')
                          AS a
               FROM documents),
    tok AS (SELECT doc_id, a[u.i] AS w
            FROM t, unnest(generate_series(1, len(a))) AS u(i)
            WHERE a[u.i] <> ''),
    dl AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS dl
           FROM tok GROUP BY doc_id),
    tf AS (SELECT doc_id,
                  CAST(count(*) FILTER (w = 'batch') AS BIGINT)
                      AS tfb,
                  CAST(count(*) FILTER (w = 'merge') AS BIGINT)
                      AS tfm,
                  CAST(count(*) FILTER (w = 'stream') AS BIGINT)
                      AS tfs
           FROM tok GROUP BY doc_id),
    st AS (SELECT CAST(count(*) AS BIGINT) AS N,
                  CAST(sum(dl) AS DOUBLE) / CAST(count(*) AS DOUBLE)
                      AS avgdl,
                  (SELECT count(*) FROM tf WHERE tfb > 0) AS dfb,
                  (SELECT count(*) FROM tf WHERE tfm > 0) AS dfm,
                  (SELECT count(*) FROM tf WHERE tfs > 0) AS dfs
           FROM dl),
    sc AS (SELECT d.doc_id,
        CASE WHEN tf.tfb > 0 THEN
            (CAST(st.N AS DOUBLE) / CAST(st.dfb AS DOUBLE))
            * (CAST(tf.tfb AS DOUBLE) * 2.5)
            / (CAST(tf.tfb AS DOUBLE)
               + 1.5 * (0.25 + 0.75 * (CAST(d.dl AS DOUBLE)
                                       / st.avgdl)))
            ELSE 0.0 END AS cb,
        CASE WHEN tf.tfm > 0 THEN
            (CAST(st.N AS DOUBLE) / CAST(st.dfm AS DOUBLE))
            * (CAST(tf.tfm AS DOUBLE) * 2.5)
            / (CAST(tf.tfm AS DOUBLE)
               + 1.5 * (0.25 + 0.75 * (CAST(d.dl AS DOUBLE)
                                       / st.avgdl)))
            ELSE 0.0 END AS cm,
        CASE WHEN tf.tfs > 0 THEN
            (CAST(st.N AS DOUBLE) / CAST(st.dfs AS DOUBLE))
            * (CAST(tf.tfs AS DOUBLE) * 2.5)
            / (CAST(tf.tfs AS DOUBLE)
               + 1.5 * (0.25 + 0.75 * (CAST(d.dl AS DOUBLE)
                                       / st.avgdl)))
            ELSE 0.0 END AS cs
        FROM dl d JOIN tf USING (doc_id) CROSS JOIN st)
    SELECT doc_id, (cb + cm) + cs AS score,
           cb AS c_batch, cm AS c_merge, cs AS c_stream
    FROM sc WHERE (cb + cm) + cs > 0
    ORDER BY score DESC, doc_id LIMIT 20
"""


def phrase_proximity_docs(sf_dir: str, a: str = "stream",
                          b: str = "batch", window: int = 3):
    """PROXIMITY search: documents where 'stream' and 'batch' occur
    within 3 word positions — the NEAR operator boolean search lacks
    (co-occurrence anywhere in a doc is weak evidence; adjacency is
    strong). Positions come from the tokenize pass; the per-doc
    minimum gap is two vectorized searchsorteds on a (doc, pos)
    composite (nearest b left/right of every a — no per-doc loop, no
    position self-join)."""
    K = np.int64(1 << 20)

    def gaps(t: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        lists = _pc.utf8_split_whitespace(t["text"])
        flat = np.asarray(_pc.list_flatten(lists), dtype=object)
        lens = np.asarray(_pc.list_value_length(lists),
                          dtype=np.int64)
        doc = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
        pos = (np.arange(flat.size, dtype=np.int64)
               - np.repeat(np.concatenate(
                   [[0], np.cumsum(lens)[:-1]]), lens))
        ids = np.asarray(t["doc_id"], dtype=np.int64)
        ca = doc[flat == a] * K + pos[flat == a]
        cb = doc[flat == b] * K + pos[flat == b]
        if ca.size == 0 or cb.size == 0:
            return pa.table({
                "doc_id": pa.array([], pa.int64()),
                "min_gap": pa.array([], pa.int64()),
                "n_a": pa.array([], pa.int64()),
                "n_b": pa.array([], pa.int64())})
        idx = np.searchsorted(cb, ca)
        gap = np.full(ca.size, np.int64(1 << 30))
        right = idx < cb.size
        same = right & ((cb[np.minimum(idx, cb.size - 1)] // K)
                        == (ca // K))
        gap[same] = cb[np.minimum(idx, cb.size - 1)][same] - ca[same]
        left = idx > 0
        samel = left & ((cb[np.maximum(idx - 1, 0)] // K)
                        == (ca // K))
        gap[samel] = np.minimum(
            gap[samel], ca[samel] - cb[np.maximum(idx - 1, 0)][samel])
        da = (ca // K).astype(np.int64)
        ud = np.unique(da)
        ming = np.full(ud.size, np.int64(1 << 30))
        np.minimum.at(ming, np.searchsorted(ud, da), gap)
        na = np.bincount(np.searchsorted(ud, da),
                         minlength=ud.size).astype(np.int64)
        db = (cb // K).astype(np.int64)
        nb = np.zeros(ud.size, np.int64)
        pres = np.isin(db, ud)
        np.add.at(nb, np.searchsorted(ud, db[pres]),
                  np.ones(int(pres.sum()), np.int64))
        keep = ming <= window
        return pa.table({
            "doc_id": pa.array(ids[ud[keep]]),
            "min_gap": pa.array(ming[keep]),
            "n_a": pa.array(na[keep]),
            "n_b": pa.array(nb[keep])})

    return (_read(sf_dir, "documents", ["doc_id", "text"])
            .map_batches(gaps, batch_format="pyarrow"))


QUERIES["phrase_proximity_docs"] = phrase_proximity_docs
ORACLE_SQL["phrase_proximity_docs"] = """
    WITH t AS (SELECT doc_id, regexp_split_to_array(text, '\\s+')
                          AS arr
               FROM documents),
    tok AS (SELECT doc_id, u.i - 1 AS pos, arr[u.i] AS w
            FROM t, unnest(generate_series(1, len(arr))) AS u(i)
            WHERE arr[u.i] <> ''),
    pa_ AS (SELECT doc_id, pos FROM tok WHERE w = 'stream'),
    pb AS (SELECT doc_id, pos FROM tok WHERE w = 'batch'),
    g AS (SELECT pa_.doc_id,
                 CAST(min(abs(pa_.pos - pb.pos)) AS BIGINT)
                     AS min_gap,
                 CAST(count(DISTINCT pa_.pos) AS BIGINT) AS n_a,
                 CAST(count(DISTINCT pb.pos) AS BIGINT) AS n_b
          FROM pa_ JOIN pb USING (doc_id)
          GROUP BY pa_.doc_id)
    SELECT doc_id, min_gap, n_a, n_b FROM g WHERE min_gap <= 3
"""


def radix_select_kth_value(sf_dir: str, k: int = 1000):
    """EXACT k-th largest value by RADIX DESCENT — the
    order-statistic without a global sort: three streaming passes,
    each histogramming 256 buckets of one byte of (cents) among rows
    still in the running, narrowing to the bucket containing the
    k-th; a final exact count finishes. At 100 TB this replaces an
    all-to-all sort with 3 tiny fixed-width aggregations. Emits the
    k-th largest cents value, how many rows strictly exceed it, and
    how many tie it."""
    from ray.data.aggregate import Sum

    def cents_ds():
        return (_read(sf_dir, "events", ["value"])
                .map_batches(lambda t: pa.table({
                    "c": pa.array(_cents(np.asarray(
                        t["value"], dtype=np.float64)))}),
                    batch_format="pyarrow"))

    ds = cents_ds().materialize()
    lo_bound, hi_bound = None, None          # narrowing [lo, hi]
    remaining = k
    for shift in (16, 8, 0):                 # cents < 2^24 here; the
        sh = np.int64(shift)                 # descent generalizes

        def hist(t: pa.Table, lo=lo_bound, hi=hi_bound, s=sh):
            c = np.asarray(t["c"], dtype=np.int64)
            if lo is not None:
                c = c[(c >= lo) & (c <= hi)]
            b = (c >> s) & np.int64(0xFF)
            return pa.table({
                "b": pa.array(np.arange(256, dtype=np.int64)),
                "n": pa.array(np.bincount(b, minlength=256)
                              .astype(np.int64))})

        h = (ds.map_batches(hist, batch_format="pyarrow")
             .groupby("b").aggregate(Sum("n", alias_name="n"))
             .to_pandas().sort_values("b", ascending=False))
        cum = 0
        for _, r in h.iterrows():
            if cum + int(r["n"]) >= remaining:
                b = int(r["b"])
                base = lo_bound if lo_bound is not None else 0
                _ = base
                lo_new = (b << shift)
                hi_new = lo_new + (1 << shift) - 1
                if lo_bound is not None:
                    lo_new |= lo_bound & ~(((1 << (shift + 8)) - 1))
                    hi_new |= lo_bound & ~(((1 << (shift + 8)) - 1))
                lo_bound, hi_bound = lo_new, hi_new
                remaining -= cum
                break
            cum += int(r["n"])
    kth = lo_bound                            # shift 0: exact value

    def cmp_counts(t: pa.Table) -> pa.Table:
        c = np.asarray(t["c"], dtype=np.int64)
        return pa.table({
            "above": pa.array([int((c > kth).sum())], pa.int64()),
            "ties": pa.array([int((c == kth).sum())], pa.int64())})

    agg = ds.map_batches(cmp_counts, batch_format="pyarrow") \
        .to_pandas().sum()
    return pa.table({
        "k": pa.array([k], pa.int64()),
        "kth_cents": pa.array([kth], pa.int64()),
        "n_above": pa.array([int(agg["above"])], pa.int64()),
        "n_ties": pa.array([int(agg["ties"])], pa.int64())})


QUERIES["radix_select_kth_value"] = radix_select_kth_value
ORACLE_SQL["radix_select_kth_value"] = """
    WITH c AS (SELECT CAST(floor(value * 100 + 0.5) AS BIGINT) AS c
               FROM events),
    kth AS (SELECT c AS kc FROM c ORDER BY c DESC
            LIMIT 1 OFFSET 999)
    SELECT CAST(1000 AS BIGINT) AS k,
           (SELECT kc FROM kth) AS kth_cents,
           CAST((SELECT count(*) FROM c
                 WHERE c > (SELECT kc FROM kth)) AS BIGINT)
               AS n_above,
           CAST((SELECT count(*) FROM c
                 WHERE c = (SELECT kc FROM kth)) AS BIGINT)
               AS n_ties
"""


def local_bridges_hashgraph(sf_dir: str):
    """LOCAL BRIDGES (Granovetter's weak ties): undirected edges
    whose endpoints share NO common neighbor — removing one raises
    the endpoint distance to >= 3, so these are exactly the edges
    carrying non-redundant connectivity. Plan: wedge pairs from the
    same coarse sweep as resource_allocation (they ARE the common-
    neighbor relation), then edges minus wedge-pairs via one
    left-join membership gate."""
    from ray.data.aggregate import Count

    from tldr_ray.stages.joins import auto_join

    N = np.int64(1 << 21)

    def und(batch: pa.Table) -> pa.Table:
        s = np.asarray(batch["src"], dtype=np.int64)
        d = np.asarray(batch["dst"], dtype=np.int64)
        a = np.minimum(s, d)
        b = np.maximum(s, d)
        return pa.table({"key": pa.array(np.unique(a * N + b))})

    ukeys = (_hash_graph_edges(sf_dir)
             .map_batches(und, batch_format="pyarrow")
             .groupby("key").count().select_columns(["key"])
             .materialize())

    def adj(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch["key"], dtype=np.int64)
        a, b = k // N, k % N
        z = np.concatenate([a, b])
        v = np.concatenate([b, a])
        return pa.table({
            "z": pa.array(z), "v": pa.array(v)})

    def wedge_keys(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["z", "v"], kind="mergesort")
        z = g["z"].to_numpy(np.int64)
        v = g["v"].to_numpy(np.int64)
        starts = np.flatnonzero(np.r_[True, z[1:] != z[:-1]])
        cnt = np.diff(np.r_[starts, z.size])
        ks = []
        m = int(cnt.max()) if cnt.size else 0
        for d1 in range(m - 1):
            for d2 in range(d1 + 1, m):
                sel = starts[cnt > d2]
                if not sel.size:
                    continue
                u = v[sel + d1]
                w = v[sel + d2]
                ks.append(np.minimum(u, w) * N + np.maximum(u, w))
        if not ks:
            return pd.DataFrame({"key": pd.Series([],
                                                  dtype=np.int64)})
        return pd.DataFrame({"key": np.unique(np.concatenate(ks))})

    wk = (keyed_sweep(ukeys.map_batches(adj, batch_format="pyarrow"),
                      "z", wedge_keys)
          .groupby("key").aggregate(Count(alias_name="cn")))

    marked = auto_join(ukeys, wk, on="key", how="left")

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["cn"].isna()]
        k = b["key"].to_numpy(np.int64)
        return pd.DataFrame({"a": k // N, "b": k % N})

    return marked.map_batches(finish, batch_format="pandas")


QUERIES["local_bridges_hashgraph"] = local_bridges_hashgraph
ORACLE_SQL["local_bridges_hashgraph"] = f"""
    WITH {_HASHGRAPH_RAW},
    und AS (SELECT DISTINCT least(s, t) AS a, greatest(s, t) AS b
            FROM raw2),
    adj AS (SELECT a AS z, b AS v FROM und
            UNION ALL SELECT b, a FROM und),
    wp AS (SELECT DISTINCT least(n1.v, n2.v) AS a,
                  greatest(n1.v, n2.v) AS b
           FROM adj n1 JOIN adj n2 ON n1.z = n2.z AND n1.v < n2.v)
    SELECT und.a, und.b
    FROM und ANTI JOIN wp ON wp.a = und.a AND wp.b = und.b
"""


def lang_similarity_matrix(sf_dir: str):
    """Language-pair COSINE similarity over word-count vectors — do
    'es' docs and 'de' docs draw from the same vocabulary
    distribution? Exact integer dot products and norms from one
    (lang, word) groupby; cosine is the num / (sqrt*sqrt) IEEE chain.
    Emits the upper triangle including the diagonal (which pins the
    norms: cos(l,l) = 1 up to the chain's last ulp)."""
    import math

    from ray.data.aggregate import Sum

    def toks(t: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        lists = _pc.utf8_split_whitespace(t["text"])
        flat = np.asarray(_pc.list_flatten(lists), dtype=object)
        lens = np.asarray(_pc.list_value_length(lists),
                          dtype=np.int64)
        langs = np.asarray(t["lang"], dtype=object)
        doc = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
        keep = flat != ""
        return pa.table({
            "lang": pa.array(langs[doc[keep]], pa.string()),
            "w": pa.array(flat[keep], pa.string()),
            "n": pa.array(np.ones(int(keep.sum()), np.int64))})

    g = (_read(sf_dir, "documents", ["text", "lang"])
         .map_batches(toks, batch_format="pyarrow")
         .groupby(["lang", "w"]).aggregate(Sum("n", alias_name="c"))
         .to_pandas())
    pv = g.pivot_table(index="w", columns="lang", values="c",
                       fill_value=0, aggfunc="sum")
    langs = sorted(pv.columns)
    M = pv[langs].to_numpy(np.int64)
    rows = []
    for i, l1 in enumerate(langs):
        for j in range(i, len(langs)):
            l2 = langs[j]
            num = int((M[:, i] * M[:, j]).sum())
            a = int((M[:, i] * M[:, i]).sum())
            b = int((M[:, j] * M[:, j]).sum())
            rows.append((l1, l2, num,
                         float(num) / (math.sqrt(float(a))
                                       * math.sqrt(float(b)))))
    return pa.table({
        "lang1": pa.array([r[0] for r in rows], pa.string()),
        "lang2": pa.array([r[1] for r in rows], pa.string()),
        "dot": pa.array([r[2] for r in rows], pa.int64()),
        "cosine": pa.array([r[3] for r in rows], pa.float64())})


QUERIES["lang_similarity_matrix"] = lang_similarity_matrix
ORACLE_SQL["lang_similarity_matrix"] = """
    WITH tok AS (SELECT lang,
                        unnest(regexp_split_to_array(text, '\\s+'))
                            AS w
                 FROM documents),
    c AS (SELECT lang, w, CAST(count(*) AS HUGEINT) AS c
          FROM tok WHERE w <> '' GROUP BY 1, 2),
    p AS (SELECT a.lang AS lang1, b.lang AS lang2,
                 CAST(sum(a.c * b.c) AS BIGINT) AS dot
          FROM c a JOIN c b ON a.w = b.w AND a.lang <= b.lang
          GROUP BY 1, 2),
    nrm AS (SELECT lang, CAST(sum(c * c) AS BIGINT) AS n2
            FROM c GROUP BY lang)
    SELECT p.lang1, p.lang2, p.dot,
           CAST(p.dot AS DOUBLE)
               / (sqrt(CAST(n1.n2 AS DOUBLE))
                  * sqrt(CAST(n2.n2 AS DOUBLE))) AS cosine
    FROM p JOIN nrm n1 ON n1.lang = p.lang1
    JOIN nrm n2 ON n2.lang = p.lang2
"""


def cohens_kappa_langid(sf_dir: str):
    """COHEN'S KAPPA between the n-gram language-ID heuristic and the
    stored lang label — chance-corrected agreement, the standard
    rater-reliability number for any automated labeler. The
    distributed work is the same tiny confusion matrix as
    lang_confusion_docs (hash-checked langid actor stage + one
    two-key grouped count); kappa is pure integer rank algebra on
    that dimension-sized frame: kappa = (n*agree - sum r_i*c_i) /
    (n^2 - sum r_i*c_i) — ONE double division of exact ints (every
    operand < 2^53 at any conceivable doc count)."""
    from tldr_ray.stages.text_analysis import language_id

    pred = language_id(_read(sf_dir, "documents",
                             ["doc_id", "lang", "text"]),
                       concurrency=2)
    cm = (pred.groupby(["lang", "lang_pred"]).count().to_pandas())
    n = int(cm["count()"].sum())
    agree = int(cm.loc[cm["lang"] == cm["lang_pred"],
                       "count()"].sum())
    row = cm.groupby("lang")["count()"].sum()
    col = cm.groupby("lang_pred")["count()"].sum()
    labels = row.index.union(col.index)
    pe_num = int((row.reindex(labels, fill_value=0).to_numpy(np.int64)
                  * col.reindex(labels,
                                fill_value=0).to_numpy(np.int64))
                 .sum())
    kappa = (n * agree - pe_num) / (n * n - pe_num)
    return pa.table({
        "n": pa.array([n], pa.int64()),
        "agree": pa.array([agree], pa.int64()),
        "pe_num": pa.array([pe_num], pa.int64()),
        "kappa": pa.array([float(kappa)], pa.float64())})


QUERIES["cohens_kappa_langid"] = cohens_kappa_langid
ORACLE_SQL["cohens_kappa_langid"] = f"""
    WITH pred AS ({_language_id_oracle_sql()}),
    pairs AS (SELECT d.lang, p.lang_pred
              FROM pred p JOIN documents d ON d.doc_id = p.doc_id),
    agg AS (SELECT CAST(count(*) AS BIGINT) AS n,
                   CAST(count(*) FILTER (WHERE lang = lang_pred)
                        AS BIGINT) AS agree
            FROM pairs),
    r AS (SELECT lang AS l, CAST(count(*) AS BIGINT) AS rc
          FROM pairs GROUP BY 1),
    c AS (SELECT lang_pred AS l, CAST(count(*) AS BIGINT) AS cc
          FROM pairs GROUP BY 1),
    pe AS (SELECT CAST(sum(r.rc * c.cc) AS BIGINT) AS pe_num
           FROM r JOIN c ON r.l = c.l)
    SELECT n, agree, pe.pe_num,
           CAST(n * agree - pe.pe_num AS DOUBLE)
               / CAST(n * n - pe.pe_num AS DOUBLE) AS kappa
    FROM agg, pe
"""


def event_pattern_match_users(sf_dir: str):
    """MATCH_RECOGNIZE-lite: users whose chronological event journey
    matches the regex 'cc+.*p' over event-type initials (two or more
    consecutive clicks eventually followed by a purchase) — sequence
    pattern matching as one vectorized regex over the per-user path
    strings. The paths come from the same coarse hash(user) sweep as
    user_event_path_strings ((ts, event_id) fixes the order on both
    sides); the compiled regex runs per user string, bounded by
    OUTPUT size. First letters are injective over the 5 event types
    (c/s/e/v/p)."""
    import re

    PAT = re.compile("cc+.*p")

    def sweep(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"],
                          kind="mergesort")
        init = g["event_type"].str[0]
        agg = init.groupby(g["user_id"], sort=True).agg("".join)
        m = agg.str.contains(PAT, regex=True)
        keep = agg[m]
        return pd.DataFrame({
            "user_id": keep.index.to_numpy(np.int64),
            "journey": pd.Series(keep.to_numpy(), dtype=object)})

    return keyed_sweep(
        _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"]),
        "user_id", sweep)


QUERIES["event_pattern_match_users"] = event_pattern_match_users
ORACLE_SQL["event_pattern_match_users"] = """
    WITH j AS (
        SELECT user_id,
               string_agg(left(event_type, 1), ''
                          ORDER BY ts, event_id) AS journey
        FROM events GROUP BY user_id)
    SELECT user_id, journey FROM j
    WHERE regexp_matches(journey, 'cc+.*p')
"""


def fixed_width_roundtrip_events(sf_dir: str):
    """FIXED-WIDTH binary source+sink round-trip (sinks.
    write_fixed_width / sources.read_fixed_width): events stream to
    packed little-endian int64 records — the zero-parse scan format
    legacy feeds and mmap consumers use — and back, every column
    hash-checked. The canonical contract is the JSONL one: ints only
    (ts as epoch-us, value as exact cents); decode is ONE frombuffer
    + reshape per file, no row parsing anywhere."""
    import hashlib
    import shutil

    from tldr_ray.sinks import write_fixed_width
    from tldr_ray.sources.tabular import read_fixed_width

    key = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    out = f"/tmp/tldr_ray_fwr/{key}"
    shutil.rmtree(out, ignore_errors=True)

    def canon(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": batch["event_id"].cast(pa.int64()),
            "ts_us": batch["ts"].cast(pa.int64()),
            "user_id": batch["user_id"].cast(pa.int64()),
            "value_cents": pa.array(_cents(np.asarray(
                batch["value"], dtype=np.float64)))})

    cols = ["event_id", "ts_us", "user_id", "value_cents"]
    write_fixed_width(
        _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])
        .map_batches(canon, batch_format="pyarrow"), out, cols)
    return read_fixed_width(out)


QUERIES["fixed_width_roundtrip_events"] = fixed_width_roundtrip_events
ORACLE_SQL["fixed_width_roundtrip_events"] = """
    SELECT event_id, epoch_us(ts) AS ts_us, user_id,
           CAST(floor(value * 100 + 0.5) AS BIGINT) AS value_cents
    FROM events
"""


def graph_contraction_hashgraph(sf_dir: str):
    """ONE multilevel-coarsening step (the METIS / GraphChi reduction
    primitive): contract the deterministic maximal matching — matched
    pairs merge into the smaller endpoint's supernode — and rebuild
    the weighted quotient graph: every surviving undirected edge
    (super(a), super(b)), self-loops dropped, parallel edges summed
    into an integer multiplicity. The supernode map rides auto_join's
    counted gate twice (endpoint decoration), so past the broadcast
    budget the decoration is two bucketed co-shuffles; matching
    itself is the hash-checked BSP handshake."""
    import ray.data as rd
    from ray.data.aggregate import Count

    from tldr_ray.graph import maximal_matching
    from tldr_ray.stages.joins import auto_join

    N = np.int64(1 << 21)

    ids, partner, _ = maximal_matching(_hash_graph_edges(sf_dir),
                                       num_partitions=4,
                                       max_rounds=_MATCH_ROUNDS)
    sup = np.where(partner >= 0,
                   np.minimum(ids, partner.astype(np.int64)), ids)
    sup_tbl = pa.table({"v": pa.array(ids, pa.int64()),
                        "s": pa.array(sup.astype(np.int64))})

    def und(batch: pa.Table) -> pa.Table:
        s = np.asarray(batch["src"], dtype=np.int64)
        d = np.asarray(batch["dst"], dtype=np.int64)
        a = np.minimum(s, d)
        b = np.maximum(s, d)
        return pa.table({"key": pa.array(np.unique(a * N + b))})

    ukeys = (_hash_graph_edges(sf_dir)
             .map_batches(und, batch_format="pyarrow")
             .groupby("key").count())

    def split(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch["key"], dtype=np.int64)
        return pa.table({"a": pa.array(k // N),
                         "b": pa.array(k % N)})

    e = ukeys.map_batches(split, batch_format="pyarrow")
    ma = rd.from_arrow(sup_tbl.rename_columns(["a", "sa"]))
    mb = rd.from_arrow(sup_tbl.rename_columns(["b", "sb"]))
    e = auto_join(auto_join(e, ma, on="a"), mb, on="b")

    def quotient(batch: pa.Table) -> pa.Table:
        sa = np.asarray(batch["sa"], dtype=np.int64)
        sb = np.asarray(batch["sb"], dtype=np.int64)
        keep = sa != sb
        x = np.minimum(sa[keep], sb[keep])
        y = np.maximum(sa[keep], sb[keep])
        return pa.table({"qkey": pa.array(x * N + y)})

    def seal(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch["qkey"], dtype=np.int64)
        return pa.table({
            "a": pa.array(k // N), "b": pa.array(k % N),
            "weight": batch["count()"].cast(pa.int64())})

    return (e.map_batches(quotient, batch_format="pyarrow")
            .groupby("qkey").count()
            .map_batches(seal, batch_format="pyarrow"))


QUERIES["graph_contraction_hashgraph"] = graph_contraction_hashgraph
ORACLE_SQL["graph_contraction_hashgraph"] = f"""
    WITH ue AS MATERIALIZED (
        SELECT * FROM (
            WITH {_HASHGRAPH_RAW}
            SELECT DISTINCT least(s, t) AS a, greatest(s, t) AS b
            FROM raw2) q0),
    m AS MATERIALIZED (SELECT * FROM ({_matching_oracle_sql()}) q),
    sup AS MATERIALIZED (
        SELECT vertex AS v,
               CASE WHEN partner >= 0 THEN least(vertex, partner)
                    ELSE vertex END AS s
        FROM m)
    SELECT least(pa.s, pb.s) AS a, greatest(pa.s, pb.s) AS b,
           CAST(count(*) AS BIGINT) AS weight
    FROM ue
    JOIN sup pa ON pa.v = ue.a
    JOIN sup pb ON pb.v = ue.b
    WHERE pa.s <> pb.s
    GROUP BY 1, 2
"""


def analyze_table_events(sf_dir: str):
    """ANALYZE-style per-column statistics for the events table —
    the stats block an optimizer (or a data catalog) records: row
    count, null count, EXACT distinct count, min and max, one row per
    column over the canonical int/string domains (ts as epoch-us,
    value as exact cents). Two single-pass executions: all six NDVs
    ride ONE tagged distinct-key exchange (the fd_audit fusion — the
    shuffle moves 64-bit identities, never rows), and min/max/null
    partials pre-combine per block into a blocks x columns frame the
    driver folds."""
    from ray.data.aggregate import Sum

    from tldr_ray.hashing import fnv1a_batch
    from tldr_ray.stages.dedup import _mix64

    COLS = ["event_id", "ts_us", "user_id", "event_type",
            "value_cents", "props"]

    def canon(batch: pa.Table) -> dict:
        return {
            "event_id": np.asarray(batch["event_id"],
                                   dtype=np.int64),
            "ts_us": np.asarray(batch["ts"].cast(pa.int64()),
                                dtype=np.int64),
            "user_id": np.asarray(batch["user_id"], dtype=np.int64),
            "event_type": np.asarray(batch["event_type"],
                                     dtype=object),
            "value_cents": _cents(np.asarray(batch["value"],
                                             dtype=np.float64)),
            "props": np.asarray(batch["props"], dtype=object)}

    def uniq_all(batch: pa.Table) -> pa.Table:
        c = canon(batch)
        out_tag, out_k = [], []
        for tag, name in enumerate(COLS):
            v = c[name]
            k = (_mix64(v.view(np.uint64)) if v.dtype == np.int64
                 else _mix64(fnv1a_batch(batch[
                     "event_type" if name == "event_type"
                     else "props"])))
            u = np.unique(k)
            out_tag.append(np.full(u.size, tag, np.int8))
            out_k.append(u)
        return pa.table({
            "tag": pa.array(np.concatenate(out_tag)),
            "k": pa.array(np.concatenate(out_k).view(np.int64))})

    def count_part(g: pd.DataFrame) -> pd.DataFrame:
        n = g.groupby("tag")["k"].nunique()
        return pd.DataFrame({"tag": n.index.to_numpy(np.int8),
                             "n": n.to_numpy(np.int64)})

    read_cols = ["event_id", "ts", "user_id", "event_type", "value",
                 "props"]
    ndv = (keyed_sweep(_read(sf_dir, "events", read_cols)
                       .map_batches(uniq_all, batch_format="pyarrow"),
                       ["tag", "k"], count_part)
           .groupby("tag").aggregate(Sum("n", alias_name="n"))
           .to_pandas())
    ndv_by_tag = dict(zip(ndv["tag"].astype(int),
                          ndv["n"].astype(int)))

    def stats_part(batch: pa.Table) -> pa.Table:
        c = canon(batch)
        rows = {"column": [], "n": [], "n_null": [], "min_v": [],
                "max_v": []}
        for i, name in enumerate(COLS):
            v = c[name]
            src = batch["event_type" if name == "event_type"
                        else "props"] if v.dtype == object else None
            nn = (src.null_count if src is not None else 0)
            rows["column"].append(name)
            rows["n"].append(np.int64(len(v)))
            rows["n_null"].append(np.int64(nn))
            if v.dtype == np.int64:
                rows["min_v"].append(str(int(v.min())))
                rows["max_v"].append(str(int(v.max())))
            else:
                rows["min_v"].append(min(v))
                rows["max_v"].append(max(v))
        return pa.table({
            "column": pa.array(rows["column"], pa.string()),
            "n": pa.array(rows["n"], pa.int64()),
            "n_null": pa.array(rows["n_null"], pa.int64()),
            "min_v": pa.array(rows["min_v"], pa.string()),
            "max_v": pa.array(rows["max_v"], pa.string())})

    parts = (_read(sf_dir, "events", read_cols)
             .map_batches(stats_part, batch_format="pyarrow")
             .to_pandas())
    g = parts.groupby("column", sort=True)
    out = pd.DataFrame({
        "n": g["n"].sum(), "n_null": g["n_null"].sum(),
        "min_v": g["min_v"].min(), "max_v": g["max_v"].max()})
    # numeric columns compare numerically, not lexicographically
    for name in COLS:
        sub = parts[parts["column"] == name]
        if name not in ("event_type", "props"):
            out.loc[name, "min_v"] = str(
                sub["min_v"].astype(np.int64).min())
            out.loc[name, "max_v"] = str(
                sub["max_v"].astype(np.int64).max())
    out["ndv"] = [np.int64(ndv_by_tag[COLS.index(i)])
                  for i in out.index]
    return pa.table({
        "column": pa.array(out.index.to_numpy(object), pa.string()),
        "n": pa.array(out["n"].to_numpy(np.int64)),
        "n_null": pa.array(out["n_null"].to_numpy(np.int64)),
        "ndv": pa.array(out["ndv"].to_numpy(np.int64)),
        "min_v": pa.array(out["min_v"].to_numpy(object), pa.string()),
        "max_v": pa.array(out["max_v"].to_numpy(object),
                          pa.string())})


QUERIES["analyze_table_events"] = analyze_table_events
ORACLE_SQL["analyze_table_events"] = """
    WITH c AS (SELECT event_id,
                      epoch_us(ts) AS ts_us,
                      user_id, event_type,
                      CAST(floor(value * 100 + 0.5) AS BIGINT)
                          AS value_cents,
                      props
               FROM events)
    SELECT 'event_id' AS "column", CAST(count(*) AS BIGINT) AS n,
           CAST(count(*) - count(event_id) AS BIGINT) AS n_null,
           CAST(count(DISTINCT event_id) AS BIGINT) AS ndv,
           CAST(min(event_id) AS VARCHAR) AS min_v,
           CAST(max(event_id) AS VARCHAR) AS max_v FROM c
    UNION ALL
    SELECT 'ts_us', count(*), count(*) - count(ts_us),
           count(DISTINCT ts_us),
           CAST(min(ts_us) AS VARCHAR), CAST(max(ts_us) AS VARCHAR)
    FROM c
    UNION ALL
    SELECT 'user_id', count(*), count(*) - count(user_id),
           count(DISTINCT user_id),
           CAST(min(user_id) AS VARCHAR),
           CAST(max(user_id) AS VARCHAR) FROM c
    UNION ALL
    SELECT 'event_type', count(*), count(*) - count(event_type),
           count(DISTINCT event_type), min(event_type),
           max(event_type) FROM c
    UNION ALL
    SELECT 'value_cents', count(*), count(*) - count(value_cents),
           count(DISTINCT value_cents),
           CAST(min(value_cents) AS VARCHAR),
           CAST(max(value_cents) AS VARCHAR) FROM c
    UNION ALL
    SELECT 'props', count(*), count(*) - count(props),
           count(DISTINCT props), min(props), max(props) FROM c
"""


def dp_noisy_type_counts(sf_dir: str):
    """Central-DP-shaped NOISY COUNTS: per-event-type totals plus
    two-sided geometric(1/2) noise — the discrete-Laplace release
    mechanism (complementing the per-record LDP randomized-response
    query). The noise draw is the deterministic splitmix64 of the
    type's FNV hash, split into a sign bit and a trailing-zero count
    (ctz of a uniform word IS geometric(1/2) exactly — the HLL rank
    trick), so the whole release is integer arithmetic and the SQL
    mirror reproduces it bit for bit. The aggregate is one grouped
    count; noise is O(types) driver work."""
    from ray.data.aggregate import Count

    from tldr_ray.hashing import fnv1a_batch
    from tldr_ray.stages.dedup import _mix64

    cnt = (_read(sf_dir, "events", ["event_type"])
           .groupby("event_type").aggregate(Count(alias_name="n"))
           .to_pandas().sort_values("event_type"))
    h = _mix64(fnv1a_batch(pa.array(cnt["event_type"].to_numpy(object),
                                    pa.string())))
    sign = np.where((h % np.uint64(2)) == 1, 1, -1).astype(np.int64)
    w = (h >> np.uint64(1)).astype(np.uint64)
    mag = np.array([63 if int(x) == 0
                    else (int(x) & -int(x)).bit_length() - 1
                    for x in w], dtype=np.int64)
    n = cnt["n"].to_numpy(np.int64)
    return pa.table({
        "event_type": pa.array(cnt["event_type"].to_numpy(object),
                               pa.string()),
        "n": pa.array(n),
        "sign": pa.array(sign), "mag": pa.array(mag),
        "noisy": pa.array(n + sign * mag)})


QUERIES["dp_noisy_type_counts"] = dp_noisy_type_counts
ORACLE_SQL["dp_noisy_type_counts"] = f"""
    WITH RECURSIVE {_sql_fnv_cte(
        "SELECT DISTINCT event_type AS s FROM events")},
    {_sql_splitmix_ctes("hh", carry="s, ")},
    noise AS (
        SELECT s AS event_type,
               CASE WHEN h % 2 = 1 THEN 1 ELSE -1 END AS sign,
               CAST(h // 2 AS BIGINT) AS w
        FROM m3),
    nz AS (SELECT event_type, CAST(sign AS BIGINT) AS sign,
                  CAST(CASE WHEN w = 0 THEN 63
                       ELSE bit_count((w & (-w)) - 1) END AS BIGINT)
                      AS mag
           FROM noise),
    c AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n
          FROM events GROUP BY 1)
    SELECT c.event_type, c.n, nz.sign, nz.mag,
           CAST(c.n + nz.sign * nz.mag AS BIGINT) AS noisy
    FROM c JOIN nz ON nz.event_type = c.event_type
"""


def ams_join_size_events(sf_dir: str, n_rows: int = 16):
    """AMS JOIN-SIZE estimation — the query-planner statistic for an
    equi-join's output cardinality WITHOUT running the join: the
    click stream and the purchase stream each keep 16 +-1 sign
    counters over user_id (same sign hash both sides), and
    E[S_r^click * S_r^purchase] = sum_u f_click(u)*f_purchase(u) =
    |click JOIN purchase ON user|. Both sketches ride ONE streaming
    pass (tagged by side), merge by addition, and are
    bit-reproducible (splitmix signs); the exact join size rides
    beside the estimate for the error report."""
    from ray.data.aggregate import Sum

    from tldr_ray.stages.dedup import _mix64

    R = n_rows

    def sk(t: pa.Table) -> pa.Table:
        u = np.asarray(t["user_id"], dtype=np.int64)
        et = np.asarray(t["event_type"])
        out_side, out_r, out_s = [], [], []
        for side, name in ((0, "click"), (1, "purchase")):
            us = u[et == name]
            for r in range(R):
                h = _mix64((us * R + r).astype(np.uint64))
                s = np.int64(us.size) \
                    - 2 * np.int64((h & np.uint64(1)).sum())
                out_side.append(side)
                out_r.append(r)
                out_s.append(s)
        return pa.table({
            "side": pa.array(out_side, pa.int64()),
            "r": pa.array(out_r, pa.int64()),
            "s": pa.array(out_s, pa.int64())})

    sketch = (_read(sf_dir, "events", ["user_id", "event_type"])
              .map_batches(sk, batch_format="pyarrow")
              .groupby(["side", "r"])
              .aggregate(Sum("s", alias_name="s"))
              .to_pandas())
    a = sketch[sketch["side"] == 0].sort_values("r")["s"] \
        .to_numpy(np.int64)
    b = sketch[sketch["side"] == 1].sort_values("r")["s"] \
        .to_numpy(np.int64)

    def cnt2(t: pa.Table) -> pa.Table:
        u = np.asarray(t["user_id"], dtype=np.int64)
        et = np.asarray(t["event_type"])
        uu = np.unique(u)
        ca = np.zeros(uu.size, np.int64)
        cb = np.zeros(uu.size, np.int64)
        pos = np.searchsorted(uu, u)
        np.add.at(ca, pos[et == "click"], 1)
        np.add.at(cb, pos[et == "purchase"], 1)
        return pa.table({"u": pa.array(uu), "ca": pa.array(ca),
                         "cb": pa.array(cb)})

    ex = (_read(sf_dir, "events", ["user_id", "event_type"])
          .map_batches(cnt2, batch_format="pyarrow")
          .groupby("u")
          .aggregate(Sum("ca", alias_name="ca"),
                     Sum("cb", alias_name="cb"))
          .map_batches(lambda t: pa.table({"j": pa.array([int(
              (np.asarray(t["ca"], dtype=np.int64)
               * np.asarray(t["cb"], dtype=np.int64)).sum())],
              pa.int64())}), batch_format="pyarrow")
          .sum("j"))
    est = a * b
    est_mean = float(sum(int(x) for x in est)) / float(R)
    return pa.table({
        "r": pa.array(np.arange(R, dtype=np.int64)),
        "s_click": pa.array(a), "s_purchase": pa.array(b),
        "est": pa.array(est),
        "join_exact": pa.array([int(ex)] * R, pa.int64()),
        "est_mean": pa.array([est_mean] * R, pa.float64())})


QUERIES["ams_join_size_events"] = ams_join_size_events
ORACLE_SQL["ams_join_size_events"] = f"""
    WITH src AS (SELECT CAST(user_id * 16 + r AS HUGEINT) AS h, r,
                        CASE WHEN event_type = 'click' THEN 0
                             ELSE 1 END AS side
                 FROM events, unnest(range(16)) AS t(r)
                 WHERE event_type IN ('click', 'purchase')),
    {_sql_splitmix_ctes("src", carry="side, r, ")},
    sk AS (SELECT side, r,
                  CAST(sum(1 - 2 * CAST(h % 2 AS BIGINT)) AS BIGINT)
                      AS s
           FROM m3 GROUP BY side, r),
    ab AS (SELECT a.r, a.s AS s_click, b.s AS s_purchase
           FROM sk a JOIN sk b ON b.r = a.r
           WHERE a.side = 0 AND b.side = 1),
    ex AS (SELECT CAST(sum(ca * cb) AS BIGINT) AS j
           FROM (SELECT count(*) FILTER (WHERE event_type = 'click')
                     AS ca,
                        count(*) FILTER (
                            WHERE event_type = 'purchase') AS cb
                 FROM events GROUP BY user_id)),
    mn AS (SELECT CAST(sum(s_click * s_purchase) AS DOUBLE) / 16.0
               AS est_mean
           FROM ab)
    SELECT CAST(r AS BIGINT) AS r, s_click, s_purchase,
           s_click * s_purchase AS est,
           (SELECT j FROM ex) AS join_exact,
           (SELECT est_mean FROM mn) AS est_mean
    FROM ab
"""


_BITMAP_PREDS = ["type:click", "type:error", "type:purchase",
                 "type:signup", "type:view", "high_value"]
_BITMAP_HIGH_CENTS = 5000


def bitmap_index_events(sf_dir: str):
    """BITMAP INDEX over the dense event_id domain — the classic
    OLAP secondary index: one bitmap per predicate (the 5 event
    types + value_cents > 5000), built distributed as per-block
    (pred, byte_idx, byte) partials (each id owns a distinct bit, so
    the byte merge is plain SUM), then conjunctive queries answered
    from the INDEX ALONE: every 'type AND high_value' count is a
    byte-AND + popcount over two 1.25 KB/10k-row byte tables — the
    base table is never rescanned. Each bitmap row carries n_set,
    n_bytes and the order-independent FNV+splitmix checksum of its
    byte table, so the hash pins the exact index CONTENT, and the
    intersection rows pin that index-only answering matches the
    scan answer."""
    from ray.data.aggregate import Sum

    from tldr_ray.hashing import fnv1a_batch
    from tldr_ray.stages.dedup import _mix64

    HC = _BITMAP_HIGH_CENTS

    def parts(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch["event_id"], dtype=np.int64)
        et = np.asarray(batch["event_type"], dtype=object)
        c = _cents(np.asarray(batch["value"], dtype=np.float64))
        preds = [("type:click", et == "click"),
                 ("type:error", et == "error"),
                 ("type:purchase", et == "purchase"),
                 ("type:signup", et == "signup"),
                 ("type:view", et == "view"),
                 ("high_value", c > HC)]
        out_p, out_bi, out_bv = [], [], []
        for label, mask in preds:
            i = ids[mask]
            bi = i // 8
            bv = np.int64(1) << (7 - (i % 8))
            u, inv = np.unique(bi, return_inverse=True)
            acc = np.zeros(u.size, np.int64)
            np.add.at(acc, inv, bv)
            out_p.append(np.full(u.size, label, object))
            out_bi.append(u)
            out_bv.append(acc)
        return pa.table({
            "pred": pa.array(np.concatenate(out_p), pa.string()),
            "bi": pa.array(np.concatenate(out_bi)),
            "bv": pa.array(np.concatenate(out_bv))})

    idx = (_read(sf_dir, "events", ["event_id", "event_type",
                                    "value"])
           .map_batches(parts, batch_format="pyarrow")
           .groupby(["pred", "bi"])
           .aggregate(Sum("bv", alias_name="bv"))
           .to_pandas())

    tables = {}
    for p in _BITMAP_PREDS:
        sub = idx[idx["pred"] == p].sort_values("bi")
        tables[p] = (sub["bi"].to_numpy(np.int64),
                     sub["bv"].to_numpy(np.int64))

    # conjunctive queries answered from the index alone
    hb_i, hb_v = tables["high_value"]
    for t in _BITMAP_PREDS[:5]:
        ti, tv = tables[t]
        common, ia, ib = np.intersect1d(ti, hb_i,
                                        return_indices=True)
        av = tv[ia] & hb_v[ib]
        keep = av != 0
        tables[f"{t}&high_value"] = (common[keep], av[keep])

    def fold(label, bi, bv):
        s = pa.array([f"{label}|{i}|{v}"
                      for i, v in zip(bi, bv)], pa.string())
        if len(s) == 0:
            return 0
        return int(_mix64(fnv1a_batch(s)).sum(dtype=np.uint64))

    rows = sorted(tables)
    n_set = [int(np.unpackbits(
        tables[p][1].astype(np.uint8)).sum()) for p in rows]
    return pa.table({
        "pred": pa.array(rows, pa.string()),
        "n_set": pa.array(n_set, pa.int64()),
        "n_bytes": pa.array([len(tables[p][0]) for p in rows],
                            pa.int64()),
        "checksum": pa.array(
            [str(fold(p, *tables[p]) % (1 << 64)) for p in rows],
            pa.string())})


def _bitmap_oracle_sql() -> str:
    HC = _BITMAP_HIGH_CENTS
    base = ("SELECT event_id AS id, event_type AS et, "
            "CAST(floor(value * 100 + 0.5) AS BIGINT) AS c "
            "FROM events")
    arms = []
    for t in ["click", "error", "purchase", "signup", "view"]:
        arms.append(f"SELECT 'type:{t}' AS pred, id FROM base "
                    f"WHERE et = '{t}'")
        arms.append(f"SELECT 'type:{t}&high_value', id FROM base "
                    f"WHERE et = '{t}' AND c > {HC}")
    arms.append(f"SELECT 'high_value', id FROM base WHERE c > {HC}")
    preds = "\n        UNION ALL ".join(arms)
    return f"""
    WITH RECURSIVE base AS ({base}),
    preds AS ({preds}),
    bytes AS (SELECT pred, id // 8 AS bi,
                     CAST(sum(1 << (7 - (id % 8))) AS BIGINT) AS bv
              FROM preds GROUP BY 1, 2),
    {_sql_fnv_cte(
        "SELECT pred || '|' || CAST(bi AS VARCHAR) || '|' || "
        "CAST(bv AS VARCHAR) AS s FROM bytes")},
    {_sql_splitmix_ctes("hh", carry="s, ")},
    ck AS (SELECT split_part(s, '|', 1) AS pred,
                  CAST(CAST(sum(h) % {_SQL_M64} AS HUGEINT)
                       AS VARCHAR) AS checksum
           FROM m3 GROUP BY 1),
    stats AS (SELECT pred, CAST(count(*) AS BIGINT) AS n_set
              FROM preds GROUP BY pred),
    nb AS (SELECT pred, CAST(count(*) AS BIGINT) AS n_bytes
           FROM bytes GROUP BY pred)
    SELECT s.pred, s.n_set, nb.n_bytes, ck.checksum
    FROM stats s
    JOIN nb ON nb.pred = s.pred
    JOIN ck ON ck.pred = s.pred
"""


QUERIES["bitmap_index_events"] = bitmap_index_events
ORACLE_SQL["bitmap_index_events"] = _bitmap_oracle_sql()


def graph_churn_biweekly(sf_dir: str):
    """TEMPORAL GRAPH CHURN between two snapshot windows: the
    user x hour-of-day activity bipartite edge set of the first 15
    days vs the rest — every edge classified added / removed /
    retained, counted per hour (the behavioral-shift diff a
    link-analysis pipeline reports between builds; all three classes
    are populated on this corpus: ~660/700/2000 at sf0.01). One
    footer-cheap pass fixes the global cutoff day; ONE coarse
    hash(user) sweep folds each user segment to (edge -> window
    bitmask) and emits per-(hour, mask) partial counts — the shuffle
    moves distinct edges once, the final groupby is O(24 x 3)."""
    from ray.data.aggregate import Sum

    DAY = np.int64(86_400_000_000)
    HOUR = np.int64(3_600_000_000)

    min_day = int(_read(sf_dir, "events", ["ts"])
                  .map_batches(lambda t: pa.table({
                      "d": pa.array([int(np.asarray(
                          t["ts"].cast(pa.int64()),
                          dtype=np.int64).min()) // int(DAY)],
                          pa.int64())}), batch_format="pyarrow")
                  .min("d"))
    cut = min_day + 15

    def prep(batch: pa.Table) -> pa.Table:
        u = np.asarray(batch["user_id"], dtype=np.int64)
        us = np.asarray(batch["ts"].cast(pa.int64()),
                        dtype=np.int64)
        hod = (us // HOUR) % 24
        w = np.where(us // DAY < cut, np.int64(1), np.int64(2))
        df = pd.DataFrame({"u": u, "hod": hod,
                           "w": w}).drop_duplicates()
        uu = df["u"].to_numpy(np.int64)
        return pa.table({
            "u": pa.array(uu),
            "hod": pa.array(df["hod"].to_numpy(np.int64)),
            "w": pa.array(df["w"].to_numpy(np.int64))})

    def sweep(g: pd.DataFrame) -> pd.DataFrame:
        m = (g.drop_duplicates(["u", "hod", "w"])
             .groupby(["u", "hod"], as_index=False)["w"].sum())
        out = (m.groupby(["hod", "w"], as_index=False).size()
               .rename(columns={"size": "n"}))
        return pd.DataFrame({
            "hod": out["hod"].to_numpy(np.int64),
            "mask": out["w"].to_numpy(np.int64),
            "n": out["n"].to_numpy(np.int64)})

    agg = (keyed_sweep(_read(sf_dir, "events", ["user_id", "ts"])
                       .map_batches(prep, batch_format="pyarrow"),
                       "u", sweep)
           .groupby(["hod", "mask"])
           .aggregate(Sum("n", alias_name="n_pairs"))
           .to_pandas())
    status = agg["mask"].map({1: "removed", 2: "added",
                              3: "retained"})
    return pa.table({
        "hod": pa.array(agg["hod"].to_numpy(np.int64)),
        "status": pa.array(status.to_numpy(object), pa.string()),
        "n_pairs": pa.array(agg["n_pairs"].to_numpy(np.int64))})


QUERIES["graph_churn_biweekly"] = graph_churn_biweekly
ORACLE_SQL["graph_churn_biweekly"] = """
    WITH cut AS (SELECT min(epoch_us(ts) // 86400000000) + 15 AS c
                 FROM events),
    d AS (SELECT DISTINCT user_id,
                 (epoch_us(ts) // 3600000000) % 24 AS hod,
                 CASE WHEN epoch_us(ts) // 86400000000
                           < (SELECT c FROM cut)
                      THEN 1 ELSE 2 END AS w
          FROM events),
    m AS (SELECT user_id, hod,
                 CAST(sum(DISTINCT w) AS BIGINT) AS mask
          FROM d GROUP BY 1, 2)
    SELECT CAST(hod AS BIGINT) AS hod,
           CASE mask WHEN 1 THEN 'removed' WHEN 2 THEN 'added'
                ELSE 'retained' END AS status,
           CAST(count(*) AS BIGINT) AS n_pairs
    FROM m GROUP BY 1, 2
"""


_VOPT_B = 8


def voptimal_histogram_hourly(sf_dir: str):
    """V-OPTIMAL HISTOGRAM construction (Jagadish et al.) over the
    dense hourly count series: the optimizer-grade bucketing that
    minimizes within-bucket variance, here under the exact INTEGER
    objective sum_k (len_k * sumsq_k - sum_k^2) (= len_k^2 * var_k —
    the count-weighted SSE, chosen so the DP compares integers, no
    float ties). One grouped count is the distributed work; the DP
    is O(n^2 B) numpy over the dimension-sized series with
    deterministic smallest-j tie-breaks. Rows-only (a DP has no SQL
    mirror); optimality is pinned by the brute-force pytest."""
    from ray.data.aggregate import Count

    HOUR = np.int64(3_600_000_000)

    h = (_read(sf_dir, "events", ["ts"])
         .map_batches(lambda t: pa.table({
             "hour": pa.array(np.asarray(t["ts"].cast(pa.int64()),
                                         dtype=np.int64) // HOUR)}),
             batch_format="pyarrow")
         .groupby("hour").aggregate(Count(alias_name="c"))
         .to_pandas())
    hours = h["hour"].to_numpy(np.int64)
    cnt = h["c"].to_numpy(np.int64)
    lo, hi = int(hours.min()), int(hours.max())
    dense = np.zeros(hi - lo + 1, np.int64)
    dense[hours - lo] = cnt
    bounds, costs = _voptimal_dp(dense, _VOPT_B)
    rows = []
    for k in range(len(bounds) - 1):
        a, b = bounds[k], bounds[k + 1]
        seg = dense[a:b]
        s, ss = int(seg.sum()), int(np.dot(seg, seg))
        rows.append((k, lo + a, lo + b - 1, b - a, s,
                     len(seg) * ss - s * s))
    return pa.table({
        "bucket": pa.array([r[0] for r in rows], pa.int64()),
        "start_hour": pa.array([r[1] for r in rows], pa.int64()),
        "end_hour": pa.array([r[2] for r in rows], pa.int64()),
        "len": pa.array([r[3] for r in rows], pa.int64()),
        "sum": pa.array([r[4] for r in rows], pa.int64()),
        "cost": pa.array([r[5] for r in rows], pa.int64()),
        "total_cost": pa.array([costs] * len(rows), pa.int64())})


def _voptimal_dp(x: np.ndarray, B: int):
    """Exact DP for the count-weighted-SSE V-optimal histogram.
    Returns (boundaries [0, ..., n] of length B+1, optimal cost).
    cost(j, i) over x[j:i] = (i-j)*sumsq - sum^2, all int64; ties
    prefer the SMALLEST previous boundary j (deterministic)."""
    n = x.size
    ps = np.concatenate(([0], np.cumsum(x, dtype=np.int64)))
    ps2 = np.concatenate(([0], np.cumsum(x * x, dtype=np.int64)))

    def seg_cost(j: np.ndarray, i: int) -> np.ndarray:
        ln = i - j
        s = ps[i] - ps[j]
        ss = ps2[i] - ps2[j]
        return ln * ss - s * s

    INF = np.int64(2 ** 62)
    dp = np.full(n + 1, INF, np.int64)
    dp[0] = 0
    back = np.zeros((B, n + 1), np.int64)
    js = np.arange(n + 1)
    for b in range(B):
        nxt = np.full(n + 1, INF, np.int64)
        for i in range(1, n + 1):
            cand = dp[:i] + seg_cost(js[:i], i)
            j = int(np.argmin(cand))        # first min = smallest j
            nxt[i] = cand[j]
            back[b, i] = j
        dp = nxt
    bounds = [n]
    for b in range(B - 1, -1, -1):
        bounds.append(int(back[b, bounds[-1]]))
    return bounds[::-1], int(dp[n])


QUERIES["voptimal_histogram_hourly"] = voptimal_histogram_hourly


def cached_revenue_by_nation(sf_dir: str):
    """QUERY RESULT CACHE (state.result_cache): revenue_by_nation
    materialized under a parquet-FOOTER fingerprint of its four
    input tables — the materialized-view primitive. The query runs
    the cache protocol end to end inside one call: cold MISS
    (computes via the gated-join pipeline, atomic tmp+rename
    persist), then a HIT that must serve the identical bytes, and a
    poisoned-fingerprint probe that must MISS again (invalidation).
    The emitted rows are the cached result plus the three protocol
    outcomes — so the driver hash pins both the data and the cache
    semantics."""
    import hashlib
    import shutil

    from tldr_ray.state.result_cache import (get_or_compute,
                                             table_fingerprint)

    key = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    cache = f"/tmp/tldr_ray_rescache/{key}"
    shutil.rmtree(cache, ignore_errors=True)
    paths = [f"{sf_dir}/{t}.parquet"
             for t in ("lineitem", "orders", "customer", "nation")]
    fp = table_fingerprint(paths)

    def compute():
        return revenue_by_nation(sf_dir)

    t1, hit1 = get_or_compute(cache, "revenue_by_nation", fp,
                              compute)
    t2, hit2 = get_or_compute(cache, "revenue_by_nation", fp,
                              lambda: (_ for _ in ()).throw(
                                  AssertionError("hit must not "
                                                 "recompute")))
    assert t1.equals(t2)
    t3, hit3 = get_or_compute(cache, "revenue_by_nation",
                              "poisoned-" + fp, compute)
    assert t1.sort_by("n_name").equals(t3.sort_by("n_name"))
    out = t2.sort_by("n_name")
    n = out.num_rows
    return out.append_column(
        "cold_hit", pa.array([hit1] * n, pa.bool_())) \
        .append_column("warm_hit", pa.array([hit2] * n, pa.bool_())) \
        .append_column("stale_hit", pa.array([hit3] * n, pa.bool_()))


QUERIES["cached_revenue_by_nation"] = cached_revenue_by_nation
ORACLE_SQL["cached_revenue_by_nation"] = """
    SELECT n.n_name AS n_name,
           CAST(sum(CAST(floor(l.l_extendedprice
                               * (1 - l.l_discount) * 100 + 0.5)
                         AS BIGINT)) AS BIGINT) AS revenue_cents,
           FALSE AS cold_hit, TRUE AS warm_hit, FALSE AS stale_hit
    FROM lineitem l
    JOIN orders o ON l.l_orderkey = o.o_orderkey
    JOIN customer c ON o.o_custkey = c.c_custkey
    JOIN nation n ON c.c_nationkey = n.n_nationkey
    GROUP BY n.n_name
"""


def adaboost_stumps_purchase(sf_dir: str):
    """Distributed HISTOGRAM ADABOOST (stages.trees.adaboost_stumps):
    3 decision-stump rounds predicting purchase from (value dollar
    bin, hour-of-day) — tree learning as GROUPED COUNTING: each
    round is one map_batches pass emitting (misclassification-
    pattern, feature, bin, label) counts, and the driver's stump
    search runs on that bins x 2^round histogram with EXACT
    fractions.Fraction weights (no float epsilon, bit-deterministic,
    provably equal to the sequential reference — pinned by pytest).
    Rows-only: exact-rational boosting has no SQL mirror."""
    from tldr_ray.stages.trees import adaboost_stumps

    def prep(batch: pa.Table) -> pa.Table:
        c = _cents(np.asarray(batch["value"], dtype=np.float64))
        us = np.asarray(batch["ts"].cast(pa.int64()),
                        dtype=np.int64)
        y = np.where(np.asarray(batch["event_type"]) == "purchase",
                     np.int64(1), np.int64(-1))
        return pa.table({
            "dollar": pa.array(c // 100),
            "hod": pa.array((us // 3_600_000_000) % 24),
            "y": pa.array(y)})

    ds = _read(sf_dir, "events", ["value", "ts", "event_type"]) \
        .map_batches(prep, batch_format="pyarrow")
    stumps, err_w, err_n = adaboost_stumps(
        ds, ["dollar", "hod"], "y", rounds=3)
    names = ["dollar", "hod"]
    return pa.table({
        "round": pa.array(np.arange(len(stumps), dtype=np.int64)),
        "feature": pa.array([names[s[0]] for s in stumps],
                            pa.string()),
        "thresh": pa.array([int(s[1]) for s in stumps], pa.int64()),
        "polarity": pa.array([int(s[2]) for s in stumps],
                             pa.int64()),
        "eps_num": pa.array([int(s[3].numerator) for s in stumps],
                            pa.int64()),
        "eps_den": pa.array([int(s[3].denominator) for s in stumps],
                            pa.int64()),
        "train_wrong": pa.array([err_w] * len(stumps), pa.int64()),
        "train_n": pa.array([err_n] * len(stumps), pa.int64())})


QUERIES["adaboost_stumps_purchase"] = adaboost_stumps_purchase


def isolation_forest_outliers(sf_dir: str):
    """ISOLATION FOREST anomaly detection (stages.trees.
    isolation_forest) over (value cents, hour-of-day, day-of-week):
    64 deterministic trees whose per-tree samples arrive via a
    splitmix64 threshold filter in ONE streaming pass (O(trees x
    sample) candidate rows reach the driver, never the table);
    scoring is one vectorized descent pass with INTEGER total path
    length — smallest = most isolated, ties by id, so the top-20 is
    fully deterministic. Rows-only; the planted-outlier and
    determinism pytest carries correctness."""
    from tldr_ray.stages.trees import isolation_forest

    def prep(batch: pa.Table) -> pa.Table:
        c = _cents(np.asarray(batch["value"], dtype=np.float64))
        us = np.asarray(batch["ts"].cast(pa.int64()),
                        dtype=np.int64)
        return pa.table({
            "event_id": batch["event_id"].cast(pa.int64()),
            "cents": pa.array(c),
            "hod": pa.array((us // 3_600_000_000) % 24),
            "dow": pa.array((us // 86_400_000_000 + 4) % 7)})

    ds = _read(sf_dir, "events",
               ["event_id", "value", "ts"]) \
        .map_batches(prep, batch_format="pyarrow")
    out = isolation_forest(ds, "event_id",
                           ["cents", "hod", "dow"], top_k=20)
    return pa.table({
        "event_id": pa.array(out["id"].to_numpy(np.int64)),
        "path_sum": pa.array(out["path_sum"].to_numpy(np.int64))})


QUERIES["isolation_forest_outliers"] = isolation_forest_outliers


_FEISTEL_KEYS = (0x6A09E667F3BCC908, 0xBB67AE8584CAA73B,
                 0x3C6EF372FE94F82B, 0xA54FF53A5F1D36F1)


def tokenize_user_ids(sf_dir: str):
    """Deterministic FORMAT-PRESERVING TOKENIZATION of user ids — the
    reversible pseudonymization a governed pipeline applies before
    data leaves the trust boundary: a 4-round 32/32 FEISTEL network
    whose round function is the splitmix64 finalizer (bijective on
    [0, 2^64) by construction — no table, no state, any worker
    tokenizes or detokenizes locally). The query emits every distinct
    user's token AND the detokenized value, so the driver hash pins
    both directions of the bijection; the SQL mirror replays all 8
    splitmix chains (4 forward + 4 inverse) bit for bit. Token
    rendered as the unsigned decimal string (top bit can be set)."""
    M32 = np.uint64(0xFFFFFFFF)

    from tldr_ray.stages.dedup import _mix64

    def tok(batch: pa.Table) -> pa.Table:
        u = np.asarray(batch["user_id"], dtype=np.int64) \
            .astype(np.uint64)
        L = u >> np.uint64(32)
        R = u & M32
        for k in _FEISTEL_KEYS:
            F = _mix64(R + np.uint64(k)) & M32
            L, R = R, L ^ F
        token = (L << np.uint64(32)) | R
        # inverse
        L2, R2 = L, R
        for k in reversed(_FEISTEL_KEYS):
            F = _mix64(L2 + np.uint64(k)) & M32
            L2, R2 = R2 ^ F, L2
        detok = (L2 << np.uint64(32)) | R2
        return pa.table({
            "user_id": pa.array(u.view(np.int64)),
            "token": pa.array([str(int(t)) for t in token],
                              pa.string()),
            "detok": pa.array(detok.view(np.int64))})

    return (_read(sf_dir, "events", ["user_id"])
            .groupby("user_id").count()
            .select_columns(["user_id"])
            .map_batches(tok, batch_format="pyarrow"))


def _feistel_oracle_sql() -> str:
    M64 = _SQL_M64
    H32 = 1 << 32
    fwd = []
    prev = "s0"
    for i, k in enumerate(_FEISTEL_KEYS):
        x = (f"xor({_sql_s2b('l')}, "
             f"{_sql_s2b(f'(h % {H32})')})")
        fwd.append(f"""
    f{i}in AS MATERIALIZED (
        SELECT user_id, l, r, (r + {k}) % {M64} AS h FROM {prev}),
    {_sql_splitmix_ctes(f"f{i}in", carry="user_id, l, r, ",
                        sfx=f"f{i}")},
    sw{i} AS MATERIALIZED (
        SELECT user_id, r AS ln,
               CAST({x} AS HUGEINT) AS rn
        FROM m3f{i}),
    s{i + 1} AS MATERIALIZED (
        SELECT user_id, ln AS l, rn AS r FROM sw{i})""")
        prev = f"s{i + 1}"
    inv = []
    prev = "t0"
    for j, k in enumerate(reversed(_FEISTEL_KEYS)):
        x = (f"xor({_sql_s2b('r')}, "
             f"{_sql_s2b(f'(h % {H32})')})")
        inv.append(f"""
    g{j}in AS MATERIALIZED (
        SELECT user_id, token, l, r, (l + {k}) % {M64} AS h
        FROM {prev}),
    {_sql_splitmix_ctes(f"g{j}in",
                        carry="user_id, token, l, r, ",
                        sfx=f"g{j}")},
    gw{j} AS MATERIALIZED (
        SELECT user_id, token,
               CAST({x} AS HUGEINT) AS ln, l AS rn
        FROM m3g{j}),
    t{j + 1} AS MATERIALIZED (
        SELECT user_id, token, ln AS l, rn AS r FROM gw{j})""")
        prev = f"t{j + 1}"
    return f"""
    WITH s0 AS MATERIALIZED (
        SELECT user_id,
               CAST(user_id AS HUGEINT) // {H32} AS l,
               CAST(user_id AS HUGEINT) % {H32} AS r
        FROM (SELECT DISTINCT user_id FROM events)),
    {",".join(fwd)},
    t0 AS MATERIALIZED (
        SELECT user_id,
               (l * {H32} + r) AS token, l, r FROM s4),
    {",".join(inv)}
    SELECT user_id,
           CAST(token AS VARCHAR) AS token,
           CAST(CASE WHEN l * {H32} + r >= {1 << 63}
                     THEN l * {H32} + r - {M64}
                     ELSE l * {H32} + r END AS BIGINT) AS detok
    FROM t4
"""


QUERIES["tokenize_user_ids"] = tokenize_user_ids
ORACLE_SQL["tokenize_user_ids"] = _feistel_oracle_sql()


def user_value_twap(sf_dir: str):
    """Time-weighted average value per user (the TWAP aggregate —
    what a metrics store reports when events carry a state that HOLDS
    until the next event, instead of the naive row mean): each event's
    value is weighted by the WHOLE SECONDS it stayed current,
    dt = (next_ts_us - ts_us) // 1e6 via the shared row_window sweep
    (lag formulation: row i>=2 contributes lag(cents) * dt_i). The
    weighted sum stays int64 (cents x seconds over a 90-day span),
    TWAP is ONE double division of exact ints, users whose events all
    collapse into the same second are dropped (zero total weight) —
    so the floats hash-match the SQL lag() mirror."""
    from ray.data.aggregate import Sum

    from tldr_ray.stages.windows import row_window

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch["user_id"].cast(pa.int64()),
            "ts_us": batch["ts"].cast(pa.int64()),
            "event_id": batch["event_id"].cast(pa.int64()),
            "cents": pa.array(_cents(np.asarray(
                batch["value"], dtype=np.float64)))})

    w = row_window(
        _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
        .map_batches(prep, batch_format="pyarrow"),
        "user_id", ["ts_us", "event_id"], lag_cols=("cents",),
        delta_col="ts_us")

    def contrib(batch: pa.Table) -> pa.Table:
        d = np.asarray(batch["delta_ts_us"], dtype=np.int64)
        lc = np.asarray(batch["lag_cents"], dtype=np.int64)
        m = d >= 0                      # drop first-in-partition rows
        dt_s = d[m] // 1_000_000
        return pa.table({
            "user_id": batch["user_id"].filter(pa.array(m))
            .cast(pa.int64()),
            "num": pa.array(lc[m] * dt_s),
            "den": pa.array(dt_s)})

    agg = (w.map_batches(contrib, batch_format="pyarrow")
           .groupby("user_id")
           .aggregate(Sum("num", alias_name="num"),
                      Sum("den", alias_name="den")))

    def seal(batch: pa.Table) -> pa.Table:
        num = np.asarray(batch["num"], dtype=np.int64)
        den = np.asarray(batch["den"], dtype=np.int64)
        m = den > 0
        return pa.table({
            "user_id": batch["user_id"].filter(pa.array(m))
            .cast(pa.int64()),
            "weight_s": pa.array(den[m]),
            "twap_cents": pa.array(num[m].astype(np.float64)
                                   / den[m].astype(np.float64))})

    return agg.map_batches(seal, batch_format="pyarrow")


QUERIES["user_value_twap"] = user_value_twap
ORACLE_SQL["user_value_twap"] = """
    WITH b AS (
        SELECT user_id, event_id, epoch_us(ts) AS us,
               CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
        FROM events),
    w AS (
        SELECT user_id,
               lag(cents) OVER (PARTITION BY user_id
                                ORDER BY us, event_id) AS lc,
               (us - lag(us) OVER (PARTITION BY user_id
                                   ORDER BY us, event_id))
                   // 1000000 AS dt_s
        FROM b),
    agg AS (
        SELECT user_id,
               CAST(sum(lc * dt_s) AS BIGINT) AS num,
               CAST(sum(dt_s) AS BIGINT) AS den
        FROM w WHERE dt_s IS NOT NULL GROUP BY user_id)
    SELECT user_id, den AS weight_s,
           CAST(num AS DOUBLE) / CAST(den AS DOUBLE) AS twap_cents
    FROM agg WHERE den > 0
"""


def quantile_normalize_docs(sf_dir: str):
    """Quantile normalization of document lengths ACROSS sources (the
    batch-effect-removal transform: every source's n_chars
    distribution is mapped onto the pooled distribution, so no source
    dominates a length-sensitive downstream stage). Row with per-source
    rank r (ties broken by doc_id) of a source holding ns rows maps to
    the pooled order statistic at index ((r-1) * N) // ns — exact
    integer rank algebra end to end. Distributed as: one row_window
    sweep for per-source ranks, one range-partition pass for the
    pooled global index (per-partition counts -> O(P) driver prefix
    offsets), then a TAGGED co-shuffle that routes each lookup to the
    partition whose offset window holds its target index — the driver
    never sees a row-level frame, and ties in the pooled order are
    harmless because only the VALUE at the index is read."""
    from ray.data.aggregate import Count

    P = np.int64(32)

    src = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    ns_df = (src.groupby("source")
             .aggregate(Count(alias_name="ns")).to_pandas())
    ns_map = dict(zip(ns_df["source"], ns_df["ns"].astype(np.int64)))
    N = int(ns_df["ns"].sum())

    from tldr_ray.stages.windows import row_window
    ranked = row_window(src, "source", ["n_chars", "doc_id"])

    lohi = (src.map_batches(lambda t: pa.table({
        "lo": pa.array([int(np.asarray(t["n_chars"]).min())]),
        "hi": pa.array([int(np.asarray(t["n_chars"]).max())])}),
        batch_format="pyarrow").to_pandas())
    vmin, vmax = int(lohi["lo"].min()), int(lohi["hi"].max())
    width = max(1, (vmax - vmin + int(P)) // int(P))

    def pooled_part(batch: pa.Table) -> pa.Table:
        v = np.asarray(batch["n_chars"], dtype=np.int64)
        return pa.table({
            "v": pa.array(v),
            "__part": pa.array(((v - vmin) // width)
                               .astype(np.int32))})

    pooled = src.map_batches(pooled_part, batch_format="pyarrow")
    counts = (pooled.groupby("__part")
              .aggregate(Count(alias_name="c")).to_pandas())
    cnt = np.zeros(int(P), np.int64)
    cnt[counts["__part"].to_numpy(np.int32)] = \
        counts["c"].to_numpy(np.int64)
    offsets = np.concatenate([[0], np.cumsum(cnt)[:-1]])

    def route(batch: pa.Table) -> pa.Table:
        rn = np.asarray(batch["rn"], dtype=np.int64)
        srcs = batch["source"].to_pandas().astype(object).to_numpy()
        nss = np.array([ns_map[s] for s in srcs], np.int64)
        idx = ((rn - 1) * N) // nss
        part = (np.searchsorted(offsets, idx, side="right") - 1) \
            .astype(np.int32)
        return pa.table({
            "doc_id": batch["doc_id"].cast(pa.int64()),
            "source": pa.array(srcs, pa.string()),
            "n_chars": batch["n_chars"].cast(pa.int64()),
            "idx": pa.array(idx),
            "tag": pa.array(np.ones(len(idx), np.int8)),
            "v": pa.array(np.zeros(len(idx), np.int64)),
            "__part": pa.array(part)})

    lookups = ranked.map_batches(route, batch_format="pyarrow")

    def pooled_tagged(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "doc_id": pa.array(np.zeros(n, np.int64)),
            "source": pa.array([""] * n, pa.string()),
            "n_chars": pa.array(np.zeros(n, np.int64)),
            "idx": pa.array(np.zeros(n, np.int64)),
            "tag": pa.array(np.zeros(n, np.int8)),
            "v": batch["v"].cast(pa.int64()),
            "__part": batch["__part"]})

    both = lookups.union(pooled.map_batches(pooled_tagged,
                                            batch_format="pyarrow"))

    def resolve(group: pd.DataFrame) -> pd.DataFrame:
        pid = int(group["__part"].iloc[0])
        vals = np.sort(group.loc[group["tag"] == 0, "v"]
                       .to_numpy(np.int64))
        q = group[group["tag"] == 1]
        loc = q["idx"].to_numpy(np.int64) - offsets[pid]
        return pd.DataFrame({
            "doc_id": q["doc_id"].to_numpy(np.int64),
            "source": pd.Series(q["source"].to_numpy(object),
                                dtype=object),
            "n_chars": q["n_chars"].to_numpy(np.int64),
            "norm_chars": vals[loc]})

    return (both.groupby("__part")
            .map_groups(resolve, batch_format="pandas"))


QUERIES["quantile_normalize_docs"] = quantile_normalize_docs
ORACLE_SQL["quantile_normalize_docs"] = """
    WITH r AS (
        SELECT doc_id, source, n_chars,
               row_number() OVER (PARTITION BY source
                                  ORDER BY n_chars, doc_id) AS rn,
               count(*) OVER (PARTITION BY source) AS ns
        FROM documents),
    p AS (
        SELECT n_chars AS v,
               row_number() OVER (ORDER BY n_chars) - 1 AS idx
        FROM documents),
    n AS (SELECT count(*) AS nn FROM documents)
    SELECT r.doc_id, r.source, r.n_chars,
           CAST(p.v AS BIGINT) AS norm_chars
    FROM r JOIN p
      ON p.idx = ((r.rn - 1) * (SELECT nn FROM n)) // r.ns
"""


_DHONDT_SEATS = 20
_DHONDT_LCM = 232792560          # lcm(1..20): votes*LCM//d is exact


def dhondt_alloc_docs(sf_dir: str):
    """D'Hondt highest-averages apportionment of 20 'shard slots'
    across languages by document count — the divisor-method
    counterpart of largest_remainder_alloc_docs. Priorities
    votes/d (d = 1..20) are ranked EXACTLY by the integer key
    votes * lcm(1..20) // d (d divides the lcm, so the division is
    lossless — no float ratio ever ties wrongly); ties broken by
    (lang, d). The per-language counts are a tiny aggregate; the
    allocation itself runs in one task over that table."""

    def alloc(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        langs = df["lang"].to_numpy(object)
        votes = df["count()"].to_numpy(np.int64)
        d = np.arange(1, _DHONDT_SEATS + 1, dtype=np.int64)
        pr = (votes[:, None] * _DHONDT_LCM) // d[None, :]
        cand = pd.DataFrame({
            "lang": np.repeat(langs, _DHONDT_SEATS),
            "d": np.tile(d, len(langs)),
            "pr": pr.ravel()})
        top = cand.sort_values(
            ["pr", "lang", "d"],
            ascending=[False, True, True]).head(_DHONDT_SEATS)
        seats = top.groupby("lang").size()
        return pa.table({
            "lang": pa.array(langs, pa.string()),
            "votes": pa.array(votes),
            "seats": pa.array(
                seats.reindex(langs, fill_value=0)
                .to_numpy(np.int64))})

    return (_read(sf_dir, "documents", ["lang"])
            .groupby("lang").count()
            .repartition(1)
            .map_batches(alloc, batch_format="pyarrow"))


QUERIES["dhondt_alloc_docs"] = dhondt_alloc_docs
ORACLE_SQL["dhondt_alloc_docs"] = f"""
    WITH v AS (SELECT lang, CAST(count(*) AS BIGINT) AS votes
               FROM documents GROUP BY lang),
    p AS (SELECT lang, d, votes * {_DHONDT_LCM} // d AS pr
          FROM v, unnest(generate_series(1, {_DHONDT_SEATS}))
                   AS t(d)),
    r AS (SELECT lang,
                 row_number() OVER (ORDER BY pr DESC, lang, d) AS rn
          FROM p),
    s AS (SELECT lang, CAST(count(*) AS BIGINT) AS seats
          FROM r WHERE rn <= {_DHONDT_SEATS} GROUP BY lang)
    SELECT v.lang, v.votes, coalesce(s.seats, 0) AS seats
    FROM v LEFT JOIN s USING (lang)
"""


def events_hourly_locf(sf_dir: str):
    """Per-type dense hourly revenue series with LOCF (last
    observation carried forward) gap fill — the step-function
    companion of events_hourly_interpolated. Hourly exact-cent sums
    per (type, hour) shrink the stream to a tiny frame; each type's
    dense [min_hour, max_hour] grid is then filled by a vectorized
    last-valid-index scan (np.maximum.accumulate over observed
    indices), never a Python loop. Oracle: grid join + DuckDB
    last_value(... IGNORE NULLS) window."""
    from ray.data.aggregate import Sum

    HOUR = np.int64(3_600_000_000)

    def keyed(batch: pa.Table) -> pa.Table:
        us = np.asarray(batch["ts"].cast(pa.int64()), dtype=np.int64)
        return pa.table({
            "event_type": batch["event_type"],
            "hour": pa.array(us // HOUR),
            "cents": pa.array(_cents(np.asarray(
                batch["value"], dtype=np.float64)))})

    def fill(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values("hour", kind="mergesort")
        hours = g["hour"].to_numpy(np.int64)
        cents = g["cents"].to_numpy(np.int64)
        grid = np.arange(hours[0], hours[-1] + 1, dtype=np.int64)
        observed = np.zeros(grid.size, dtype=bool)
        pos = hours - hours[0]
        observed[pos] = True
        # last observed grid index at or before each slot
        src = np.where(observed, np.arange(grid.size), -1)
        src = np.maximum.accumulate(src)
        vals = np.zeros(grid.size, dtype=np.int64)
        vals[pos] = cents
        return pd.DataFrame({
            "event_type": pd.Series(
                np.repeat(group["event_type"].iloc[0], grid.size),
                dtype=object),
            "hour": grid,
            "cents_locf": vals[src],
            "observed": observed.astype(np.int64)})

    return (_read(sf_dir, "events", ["ts", "event_type", "value"])
            .map_batches(keyed, batch_format="pyarrow")
            .groupby(["event_type", "hour"])
            .aggregate(Sum("cents", alias_name="cents"))
            .groupby("event_type")
            .map_groups(fill, batch_format="pandas"))


QUERIES["events_hourly_locf"] = events_hourly_locf
ORACLE_SQL["events_hourly_locf"] = """
    WITH h AS (SELECT event_type,
                      epoch_us(ts) // 3600000000 AS hour,
                      CAST(sum(CAST(floor(value * 100 + 0.5)
                                    AS BIGINT)) AS BIGINT) AS cents
               FROM events GROUP BY 1, 2),
    b AS (SELECT event_type, min(hour) AS lo, max(hour) AS hi
          FROM h GROUP BY 1),
    grid AS (SELECT b.event_type, u.hour
             FROM b, unnest(generate_series(b.lo, b.hi)) AS u(hour)),
    j AS (SELECT g.event_type, g.hour, h.cents
          FROM grid g LEFT JOIN h
            ON g.event_type = h.event_type AND g.hour = h.hour)
    SELECT event_type, CAST(hour AS BIGINT) AS hour,
           last_value(cents IGNORE NULLS) OVER (
               PARTITION BY event_type ORDER BY hour
               ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
               AS cents_locf,
           CAST(cents IS NOT NULL AS BIGINT) AS observed
    FROM j
"""


def trailing_1h_distinct_types(sf_dir: str):
    """Per event: how many DISTINCT event types the same user emitted
    in the trailing hour [ts-1h, ts] — a rolling COUNT(DISTINCT) over
    a RANGE frame, which SQL window functions cannot express
    directly. Plan: coarse user-hash partitions; inside each task,
    one lexsort by (user, ts), then per TYPE a C-speed per-user
    cummax of 'last time this type occurred' (K small passes), and
    the answer is a row-wise count of types whose last occurrence is
    inside the window — no per-event loop, no self-join blowup.
    Oracle: the quadratic self-join definition."""
    HOUR = np.int64(3_600_000_000)

    def assign(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": batch["event_id"],
            "user_id": batch["user_id"],
            "event_type": batch["event_type"],
            "t": batch["ts"].cast(pa.int64())})

    def sweep(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({
                "event_id": pd.Series([], dtype=np.int64),
                "n_types": pd.Series([], dtype=np.int64)})
        g = g.sort_values(["user_id", "t"], kind="mergesort")
        t = g["t"].to_numpy(np.int64)
        types = g["event_type"].to_numpy(object)
        n = len(g)
        lo = t - HOUR
        total = np.zeros(n, dtype=np.int64)
        uid = g["user_id"].to_numpy(np.int64)
        for k in np.unique(types):
            seen = pd.Series(np.where(types == k, t, np.int64(-1)))
            last = seen.groupby(uid, sort=False).cummax() \
                       .to_numpy(np.int64)
            total += (last >= lo).astype(np.int64)
        return pd.DataFrame({
            "event_id": g["event_id"].to_numpy(np.int64),
            "n_types": total})

    return keyed_sweep(_read(sf_dir, "events", ["event_id", "ts", "user_id",
                                                "event_type"])
                       .map_batches(assign, batch_format="pyarrow"),
                       "user_id", sweep)


QUERIES["trailing_1h_distinct_types"] = trailing_1h_distinct_types
ORACLE_SQL["trailing_1h_distinct_types"] = """
    WITH e AS (SELECT event_id, user_id, event_type,
                      epoch_us(ts) AS t
               FROM events)
    SELECT e1.event_id,
           CAST(count(DISTINCT e2.event_type) AS BIGINT) AS n_types
    FROM e e1 JOIN e e2
      ON e1.user_id = e2.user_id
     AND e2.t BETWEEN e1.t - 3600000000 AND e1.t
    GROUP BY e1.event_id
"""


def avro_roundtrip_events(sf_dir: str):
    """Avro source+sink fidelity end to end: events stream to sharded
    Avro via the polars encoder (no JVM) and back through the blob
    decoder, with EVERY column hash-checked against the original —
    doubles are IEEE-binary in Avro so no decimal canonicalisation is
    needed, and timestamps survive as epoch-us logical types. The
    third interchange format next to CSV/JSONL (reference: tldr reads
    whole files per format; here each shard is an independent blob)."""
    import hashlib
    import shutil

    from tldr_ray.sinks import write_table
    from tldr_ray.sources import read_table

    key = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    out = f"/tmp/tldr_ray_avro/{key}"
    shutil.rmtree(out, ignore_errors=True)
    write_table(_read(sf_dir, "events"), out, format="avro")
    return read_table(out, format="avro")


QUERIES["avro_roundtrip_events"] = avro_roundtrip_events
ORACLE_SQL["avro_roundtrip_events"] = """
    SELECT event_id, ts, user_id, event_type, value, props FROM events
"""


def acctbal_qcd_by_nation(sf_dir: str):
    """Per-nation quartile coefficient of dispersion of customer
    account balance: QCD = (Q3-Q1)/(Q3+Q1) on exact cents — the
    robust, unitless spread measure next to the IQR fence and MAD
    queries. Discrete quartiles from the coarse-partition sweep
    (stages.agg.grouped_quantiles) are actual data elements, so
    numerator and denominator are exact int64 and the single IEEE
    division hash-matches DuckDB's quantile_disc mirror. O(nations)
    result, one grouped-quantile exchange."""
    from tldr_ray.stages.agg import grouped_quantiles

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "nk": batch["c_nationkey"].cast(pa.int64()),
            "cents": pa.array(_cents(np.asarray(
                batch["c_acctbal"], dtype=np.float64)), pa.int64())})

    q = grouped_quantiles(
        _read(sf_dir, "customer", ["c_nationkey", "c_acctbal"])
        .map_batches(prep, batch_format="pyarrow"),
        "nk", "cents", qs=(0.25, 0.75))

    def finish(batch: pa.Table) -> pa.Table:
        q1 = np.asarray(batch["p25"]).astype(np.int64)
        q3 = np.asarray(batch["p75"]).astype(np.int64)
        num = q3 - q1
        den = q3 + q1
        return pa.table({
            "nk": batch["nk"],
            "q1_cents": pa.array(q1),
            "q3_cents": pa.array(q3),
            "qcd": pa.array(num.astype(np.float64)
                            / den.astype(np.float64), pa.float64())})

    return q.map_batches(finish, batch_format="pyarrow").sort("nk")


QUERIES["acctbal_qcd_by_nation"] = acctbal_qcd_by_nation
ORACLE_SQL["acctbal_qcd_by_nation"] = """
    WITH c AS (
        SELECT CAST(c_nationkey AS BIGINT) AS nk,
               CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT) AS cents
        FROM customer),
    q AS (
        SELECT nk,
               CAST(quantile_disc(cents, 0.25) AS BIGINT) AS q1_cents,
               CAST(quantile_disc(cents, 0.75) AS BIGINT) AS q3_cents
        FROM c GROUP BY 1)
    SELECT nk, q1_cents, q3_cents,
           CAST(q3_cents - q1_cents AS DOUBLE)
               / CAST(q3_cents + q1_cents AS DOUBLE) AS qcd
    FROM q ORDER BY nk
"""


_KATZ_ROUNDS = 10


def katz_centrality_hashgraph(sf_dir: str):
    """Katz centrality (truncated series, alpha = 1/4, T = 10) over
    the DIRECTED hash graph in EXACT integer arithmetic: with
    v_t = A^t 1 (integer path counts) the scaled numerator
    num = sum_t 4^(T-t) v_t stays int64 (in-degrees ~4 => num <~
    4e9), and katz = num / 4^T is the only float division. Round 1
    is join-free (val1 = in-degree); rounds 2..T are ONE size-gated
    auto_join each (state is the small side) + a pre-combined
    message aggregate, materialized + repartitioned per round (the
    hyperball lesson: lazy iterative chains re-execute and double
    their block count). SQL mirror: T unrolled MATERIALIZED CTEs."""
    from ray.data.aggregate import Sum

    from tldr_ray.stages.joins import auto_join

    T = _KATZ_ROUNDS
    edges = _hash_graph_edges(sf_dir).select_columns(["src", "dst"])

    def precombine(batch: pa.Table) -> pa.Table:
        dst = np.asarray(batch["dst"], dtype=np.int64)
        u, inv = np.unique(dst, return_inverse=True)
        s = np.zeros(u.size, np.int64)
        np.add.at(s, inv, np.asarray(batch["val"], dtype=np.int64))
        return pa.table({"v": pa.array(u), "val": pa.array(s),
                         "acc": pa.array(np.zeros(u.size, np.int64))})

    def indeg(batch: pa.Table) -> pa.Table:
        return precombine(pa.table({
            "dst": batch["dst"],
            "val": pa.array(np.ones(batch.num_rows, np.int64))}))

    def acc_update(w):
        def upd(batch: pa.Table) -> pa.Table:
            val = np.asarray(batch["val"], dtype=np.int64)
            acc = np.asarray(batch["acc"], dtype=np.int64)
            return pa.table({"v": batch["v"].cast(pa.int64()),
                             "val": pa.array(val),
                             "acc": pa.array(acc + w * val)})
        return upd

    sums = [Sum("val", alias_name="val"), Sum("acc", alias_name="acc")]
    state = (edges.map_batches(indeg, batch_format="pyarrow")
             .groupby("v").aggregate(*sums)
             .map_batches(acc_update(4 ** (T - 1)),
                          batch_format="pyarrow")
             .repartition(4).materialize())
    for t in range(2, T + 1):
        sval = state.map_batches(
            lambda b: pa.table({"src": b["v"], "sval": b["val"]}),
            batch_format="pyarrow")
        dec = auto_join(edges, sval, on="src")
        msgs = dec.map_batches(
            lambda b: precombine(pa.table({"dst": b["dst"],
                                           "val": b["sval"]})),
            batch_format="pyarrow")
        carry = state.map_batches(
            lambda b: pa.table({
                "v": b["v"],
                "val": pa.array(np.zeros(b.num_rows, np.int64)),
                "acc": b["acc"]}),
            batch_format="pyarrow")
        state = (carry.union(msgs).groupby("v").aggregate(*sums)
                 .map_batches(acc_update(4 ** (T - t)),
                              batch_format="pyarrow")
                 .repartition(4).materialize())

    universe = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        lambda b: pa.table({
            "v": b["doc_id"].cast(pa.int64()),
            "val": pa.array(np.zeros(b.num_rows, np.int64)),
            "acc": pa.array(np.zeros(b.num_rows, np.int64))}),
        batch_format="pyarrow")
    den = np.float64(4 ** T)
    return (universe.union(state).groupby("v").aggregate(*sums)
            .map_batches(lambda b: pa.table({
                "vertex": b["v"].cast(pa.int64()),
                "katz_num": b["acc"].cast(pa.int64()),
                "katz": pa.array(
                    np.asarray(b["acc"], dtype=np.int64) / den)}),
                batch_format="pyarrow"))


def _katz_oracle_sql(rounds: int = _KATZ_ROUNDS) -> str:
    ctes = ["v1 AS MATERIALIZED (SELECT t AS v, "
            "CAST(count(*) AS BIGINT) AS val FROM raw2 GROUP BY t)"]
    for r in range(2, rounds + 1):
        ctes.append(
            f"v{r} AS MATERIALIZED (SELECT e.t AS v, "
            f"CAST(sum(p.val) AS BIGINT) AS val "
            f"FROM raw2 e JOIN v{r - 1} p ON p.v = e.s GROUP BY e.t)")
    terms = " + ".join(
        f"{4 ** (rounds - t)} * coalesce(v{t}.val, 0)"
        for t in range(1, rounds + 1))
    joins = "\n".join(
        f"    LEFT JOIN v{t} ON v{t}.v = d.doc_id"
        for t in range(1, rounds + 1))
    return f"""
    WITH {_HASHGRAPH_RAW},
    {",".join(ctes)}
    SELECT d.doc_id AS vertex,
           CAST({terms} AS BIGINT) AS katz_num,
           CAST({terms} AS DOUBLE) / {float(4 ** rounds)} AS katz
    FROM documents d
{joins}
"""


QUERIES["katz_centrality_hashgraph"] = katz_centrality_hashgraph
ORACLE_SQL["katz_centrality_hashgraph"] = _katz_oracle_sql()


def _hashgraph_degree_tables(sf_dir: str):
    """(und, deg): deduped undirected edges (a < b) and per-vertex
    undirected degrees of the hash graph — the shared prefix of the
    degree-conditioned topology queries below."""
    from ray.data.aggregate import Sum

    def undirect(batch: pa.Table) -> pa.Table:
        s = np.asarray(batch["src"], dtype=np.int64)
        d = np.asarray(batch["dst"], dtype=np.int64)
        lo, hi = np.minimum(s, d), np.maximum(s, d)
        u = np.unique(np.stack([lo, hi], axis=1), axis=0)
        return pa.table({"a": pa.array(u[:, 0]), "b": pa.array(u[:, 1])})

    und = (_hash_graph_edges(sf_dir)
           .map_batches(undirect, batch_format="pyarrow")
           .groupby(["a", "b"]).count().select_columns(["a", "b"]))

    def partial_degrees(batch: pa.Table) -> pa.Table:
        v = np.concatenate([np.asarray(batch["a"], dtype=np.int64),
                            np.asarray(batch["b"], dtype=np.int64)])
        vu, cnt = np.unique(v, return_counts=True)
        return pa.table({"v": pa.array(vu),
                         "n": pa.array(cnt.astype(np.int64))})

    und = und.materialize()         # consumed by >= 2 downstream
    deg = (und.map_batches(partial_degrees, batch_format="pyarrow")
           .groupby("v").aggregate(Sum("n", alias_name="degree"))
           .materialize())             # lazy re-execution tax otherwise
    return und, deg


def rich_club_hashgraph(sf_dir: str):
    """Rich-club coefficient curve phi(k) = 2*E_k / (N_k*(N_k-1)) of
    the hash graph: density among vertices of degree > k, for every
    k from 0 to max_degree-1 with N_k >= 2. The trick that keeps it
    one pass instead of a per-k scan: E_k = #edges with
    min(deg_a, deg_b) > k and N_k = #vertices with deg > k are BOTH
    suffix sums of small histograms (edge min-degree counts, degree
    counts), so after two size-gated degree decorations the whole
    curve is exact integer algebra + one division per row."""
    und, deg = _hashgraph_degree_tables(sf_dir)

    from tldr_ray.stages.joins import auto_join

    da = auto_join(und, deg.map_batches(
        lambda b: pa.table({"a": b["v"], "da": b["degree"]}),
        batch_format="pyarrow"), on="a")
    dab = auto_join(da, deg.map_batches(
        lambda b: pa.table({"b": b["v"], "db": b["degree"]}),
        batch_format="pyarrow"), on="b")

    def mind_hist(batch: pa.Table) -> pa.Table:
        m = np.minimum(np.asarray(batch["da"], dtype=np.int64),
                       np.asarray(batch["db"], dtype=np.int64))
        u, c = np.unique(m, return_counts=True)
        return pa.table({"m": pa.array(u),
                         "c": pa.array(c.astype(np.int64))})

    from ray.data.aggregate import Sum

    eh = (dab.map_batches(mind_hist, batch_format="pyarrow")
          .groupby("m").aggregate(Sum("c", alias_name="c"))
          .to_pandas())
    dh = (deg.map_batches(
        lambda b: pa.table({"d": b["degree"]}), batch_format="pyarrow")
        .groupby("d").count().to_pandas())
    max_deg = int(dh["d"].max())
    nk = np.zeros(max_deg, np.int64)
    ek = np.zeros(max_deg, np.int64)
    for d, c in zip(dh["d"], dh["count()"]):
        nk[:int(d)] += int(c)
    for m, c in zip(eh["m"], eh["c"]):
        ek[:int(m)] += int(c)
    ks = np.arange(max_deg, dtype=np.int64)
    keep = nk >= 2
    ks, nk, ek = ks[keep], nk[keep], ek[keep]
    return pa.table({
        "k": pa.array(ks), "n_k": pa.array(nk), "e_k": pa.array(ek),
        "phi": pa.array(2.0 * ek.astype(np.float64)
                        / (nk.astype(np.float64)
                           * (nk - 1).astype(np.float64)))})


QUERIES["rich_club_hashgraph"] = rich_club_hashgraph
ORACLE_SQL["rich_club_hashgraph"] = f"""
    WITH {_HASHGRAPH_RAW},
    und AS (SELECT DISTINCT least(s, t) AS a, greatest(s, t) AS b
            FROM raw2),
    verts AS (SELECT a AS v FROM und UNION ALL SELECT b FROM und),
    deg AS (SELECT v, CAST(count(*) AS BIGINT) AS degree
            FROM verts GROUP BY v),
    mind AS (SELECT least(da.degree, db.degree) AS m
             FROM und
             JOIN deg da ON da.v = und.a
             JOIN deg db ON db.v = und.b),
    ks AS (SELECT unnest(range(0, (SELECT max(degree) FROM deg)))
               AS k),
    curve AS (
        SELECT k.k,
               (SELECT CAST(count(*) AS BIGINT) FROM deg
                WHERE degree > k.k) AS n_k,
               (SELECT CAST(count(*) AS BIGINT) FROM mind
                WHERE m > k.k) AS e_k
        FROM ks k)
    SELECT CAST(k AS BIGINT) AS k, n_k, e_k,
           2.0 * CAST(e_k AS DOUBLE)
               / (CAST(n_k AS DOUBLE) * CAST(n_k - 1 AS DOUBLE)) AS phi
    FROM curve WHERE n_k >= 2
"""


def avg_neighbor_degree_hashgraph(sf_dir: str):
    """Degree-correlation curve knn(d): mean neighbor degree per
    degree class over the undirected hash graph — the binned view of
    degree_assortativity_hashgraph. Each deduped edge contributes its
    endpoint degrees to BOTH classes; exact integer (sum, count) per
    class, one division per row."""
    from ray.data.aggregate import Count, Sum

    und, deg = _hashgraph_degree_tables(sf_dir)
    from tldr_ray.stages.joins import auto_join

    da = auto_join(und, deg.map_batches(
        lambda b: pa.table({"a": b["v"], "da": b["degree"]}),
        batch_format="pyarrow"), on="a")
    dab = auto_join(da, deg.map_batches(
        lambda b: pa.table({"b": b["v"], "db": b["degree"]}),
        batch_format="pyarrow"), on="b")

    def pairs(batch: pa.Table) -> pa.Table:
        x = np.asarray(batch["da"], dtype=np.int64)
        y = np.asarray(batch["db"], dtype=np.int64)
        return pa.table({"d": pa.array(np.concatenate([x, y])),
                         "nd": pa.array(np.concatenate([y, x]))})

    g = (dab.map_batches(pairs, batch_format="pyarrow")
         .groupby("d").aggregate(Count(alias_name="n_ends"),
                                 Sum("nd", alias_name="sum_nbr_deg")))
    return g.map_batches(lambda b: pa.table({
        "d": b["d"].cast(pa.int64()),
        "n_ends": b["n_ends"].cast(pa.int64()),
        "sum_nbr_deg": b["sum_nbr_deg"].cast(pa.int64()),
        "knn": pa.array(np.asarray(b["sum_nbr_deg"], dtype=np.float64)
                        / np.asarray(b["n_ends"], dtype=np.float64))}),
        batch_format="pyarrow")


QUERIES["avg_neighbor_degree_hashgraph"] = avg_neighbor_degree_hashgraph
ORACLE_SQL["avg_neighbor_degree_hashgraph"] = f"""
    WITH {_HASHGRAPH_RAW},
    und AS (SELECT DISTINCT least(s, t) AS a, greatest(s, t) AS b
            FROM raw2),
    verts AS (SELECT a AS v FROM und UNION ALL SELECT b FROM und),
    deg AS (SELECT v, CAST(count(*) AS BIGINT) AS degree
            FROM verts GROUP BY v),
    ends AS (
        SELECT da.degree AS d, db.degree AS nd
        FROM und JOIN deg da ON da.v = und.a
                 JOIN deg db ON db.v = und.b
        UNION ALL
        SELECT db.degree, da.degree
        FROM und JOIN deg da ON da.v = und.a
                 JOIN deg db ON db.v = und.b)
    SELECT d, CAST(count(*) AS BIGINT) AS n_ends,
           CAST(sum(nd) AS BIGINT) AS sum_nbr_deg,
           CAST(sum(nd) AS DOUBLE) / CAST(count(*) AS DOUBLE) AS knn
    FROM ends GROUP BY d
"""


def chao1_vocab_docs(sf_dir: str):
    """Per-language Chao1 species-richness estimate of the vocabulary
    — how many distinct words the language's corpus WOULD show at
    infinite sampling: chao1 = V + f1*(f1-1)/(2*(f2+1))
    (bias-corrected form, division-safe at f2 = 0), where f1/f2 are
    singleton/doubleton word counts. One distributed (lang, word)
    count -> one lang-sized fold; the emitted floats are a fixed
    add-after-one-division chain. hapax_share = f1/V rides along."""
    from ray.data.aggregate import Count

    def words(batch: pa.Table) -> pa.Table:
        split = pc.utf8_split_whitespace(batch["text"])
        lang = batch["lang"].take(pc.list_parent_indices(split))
        t = pa.table({"lang": lang, "word": pc.list_flatten(split)})
        return t.filter(pc.not_equal(t["word"], ""))

    wc = (_read(sf_dir, "documents", ["lang", "text"])
          .map_batches(words, batch_format="pyarrow")
          .groupby(["lang", "word"]).aggregate(Count(alias_name="c")))

    def fold(df: pd.DataFrame) -> pa.Table:
        c = df["c"].to_numpy(np.int64)
        v = int(c.size)
        f1 = int((c == 1).sum())
        f2 = int((c == 2).sum())
        chao1 = np.float64(v) + (np.float64(f1 * (f1 - 1))
                                 / np.float64(2 * (f2 + 1)))
        return pa.table({
            "lang": pa.array([df["lang"].iloc[0]], pa.string()),
            "v_obs": pa.array([v], pa.int64()),
            "f1": pa.array([f1], pa.int64()),
            "f2": pa.array([f2], pa.int64()),
            "chao1": pa.array([chao1], pa.float64()),
            "hapax_share": pa.array(
                [np.float64(f1) / np.float64(v)], pa.float64())})

    return wc.groupby("lang").map_groups(fold, batch_format="pandas")


QUERIES["chao1_vocab_docs"] = chao1_vocab_docs
ORACLE_SQL["chao1_vocab_docs"] = """
    WITH w AS (SELECT lang,
                      unnest(regexp_split_to_array(text, '\\s+'))
                          AS word
               FROM documents),
    wc AS (SELECT lang, word, CAST(count(*) AS BIGINT) AS c
           FROM w WHERE word != '' GROUP BY 1, 2),
    f AS (SELECT lang,
                 CAST(count(*) AS BIGINT) AS v_obs,
                 CAST(count(*) FILTER (c = 1) AS BIGINT) AS f1,
                 CAST(count(*) FILTER (c = 2) AS BIGINT) AS f2
          FROM wc GROUP BY lang)
    SELECT lang, v_obs, f1, f2,
           CAST(v_obs AS DOUBLE)
               + CAST(f1 * (f1 - 1) AS DOUBLE)
                 / CAST(2 * (f2 + 1) AS DOUBLE) AS chao1,
           CAST(f1 AS DOUBLE) / CAST(v_obs AS DOUBLE) AS hapax_share
    FROM f
"""


def word_burstiness_docs(sf_dir: str):
    """Burstiness (Fano factor = variance/mean of the per-document
    count, zeros included) for the TOP-50 corpus words — bursty words
    concentrate in few documents (content terms), uniform words
    spread evenly (function words). Per-(doc, word) counts -> per-word
    exact integer moments (s, q, docs_with); the dispersion
    (n*q - s^2)/(n*s) is one division per row. Top-50 by total count
    with word tiebreak via the distributed sort — the vocab-sized
    table never reaches the driver."""
    from ray.data.aggregate import Count, Sum

    import pyarrow.parquet as pq

    n_docs = pq.ParquetFile(
        f"{sf_dir}/documents.parquet").metadata.num_rows

    def docwords(batch: pa.Table) -> pa.Table:
        split = pc.utf8_split_whitespace(batch["text"])
        t = pa.table({
            "doc_id": batch["doc_id"].take(
                pc.list_parent_indices(split)),
            "word": pc.list_flatten(split)})
        return t.filter(pc.not_equal(t["word"], ""))

    dw = (_read(sf_dir, "documents", ["doc_id", "text"])
          .map_batches(docwords, batch_format="pyarrow")
          .groupby(["doc_id", "word"]).aggregate(Count(alias_name="c")))

    def moments(batch: pa.Table) -> pa.Table:
        c = np.asarray(batch["c"], dtype=np.int64)
        return pa.table({"word": batch["word"], "s": pa.array(c),
                         "q": pa.array(c * c),
                         "d": pa.array(np.ones(c.size, np.int64))})

    top = (dw.map_batches(moments, batch_format="pyarrow")
           .groupby("word")
           .aggregate(Sum("s", alias_name="s"),
                      Sum("q", alias_name="q"),
                      Sum("d", alias_name="docs_with"))
           .sort(["s", "word"], descending=[True, False])
           .limit(50).to_pandas())
    s = top["s"].to_numpy(np.int64)
    q = top["q"].to_numpy(np.int64)
    n = np.int64(n_docs)
    return pa.table({
        "word": pa.array(top["word"].to_numpy(object), pa.string()),
        "s": pa.array(s), "q": pa.array(q),
        "docs_with": pa.array(top["docs_with"].to_numpy(np.int64)),
        "fano": pa.array((n * q - s * s).astype(np.float64)
                         / (n * s).astype(np.float64))})


QUERIES["word_burstiness_docs"] = word_burstiness_docs
ORACLE_SQL["word_burstiness_docs"] = """
    WITH w AS (SELECT doc_id,
                      unnest(regexp_split_to_array(text, '\\s+'))
                          AS word
               FROM documents),
    dw AS (SELECT doc_id, word, CAST(count(*) AS BIGINT) AS c
           FROM w WHERE word != '' GROUP BY 1, 2),
    m AS (SELECT word, CAST(sum(c) AS BIGINT) AS s,
                 CAST(sum(c * c) AS BIGINT) AS q,
                 CAST(count(*) AS BIGINT) AS docs_with
          FROM dw GROUP BY word),
    n AS (SELECT CAST(count(*) AS BIGINT) AS n_docs FROM documents),
    top AS (SELECT * FROM m ORDER BY s DESC, word LIMIT 50)
    SELECT word, s, q, docs_with,
           CAST(n_docs * q - s * s AS DOUBLE)
               / CAST(n_docs * s AS DOUBLE) AS fano
    FROM top, n
"""


def hourly_peaks_events(sf_dir: str):
    """Strict local maxima of the dense hourly event-count series,
    each decorated with its isolation — the distance (in hours) to
    the nearest strictly higher hour, -1 for the global maximum (the
    matrix-profile-adjacent 'how dominant is this spike' signal,
    fully exact). Distributed work = the hourly groupby; the
    grid-sized scan runs on the driver, mirrored by lag/lead + one
    bounded self-join in SQL."""
    from ray.data.aggregate import Count

    HOUR = np.int64(3_600_000_000)

    h = (_read(sf_dir, "events", ["ts"])
         .map_batches(lambda t: pa.table({
             "hour": pa.array(np.asarray(t["ts"].cast(pa.int64()),
                                         dtype=np.int64) // HOUR)}),
             batch_format="pyarrow")
         .groupby("hour").aggregate(Count(alias_name="n"))
         .to_pandas())
    lo, hi = int(h["hour"].min()), int(h["hour"].max())
    dense = np.zeros(hi - lo + 1, np.int64)
    dense[h["hour"].to_numpy(np.int64) - lo] = h["n"].to_numpy(np.int64)
    m = dense.size
    is_peak = np.zeros(m, dtype=bool)
    is_peak[1:-1] = (dense[1:-1] > dense[:-2]) & (dense[1:-1] > dense[2:])
    idx = np.flatnonzero(is_peak)
    iso = np.full(idx.size, -1, np.int64)
    for j, i in enumerate(idx):         # peaks-sized driver loop
        higher = np.flatnonzero(dense > dense[i])
        if higher.size:
            iso[j] = int(np.min(np.abs(higher - i)))
    return pa.table({
        "hour": pa.array(idx + lo),
        "n": pa.array(dense[idx]),
        "prev_n": pa.array(dense[idx - 1]),
        "next_n": pa.array(dense[idx + 1]),
        "nearest_higher_dist": pa.array(iso)})


QUERIES["hourly_peaks_events"] = hourly_peaks_events
ORACLE_SQL["hourly_peaks_events"] = """
    WITH h AS (SELECT epoch_us(ts) // 3600000000 AS hour,
                      CAST(count(*) AS BIGINT) AS n
               FROM events GROUP BY 1),
    bounds AS (SELECT min(hour) AS lo, max(hour) AS hi FROM h),
    grid AS (SELECT g.hour, coalesce(h.n, 0) AS n
             FROM (SELECT unnest(range(lo, hi + 1)) AS hour
                   FROM bounds) g
             LEFT JOIN h ON h.hour = g.hour),
    lagged AS (SELECT hour, n,
                      lag(n) OVER (ORDER BY hour) AS prev_n,
                      lead(n) OVER (ORDER BY hour) AS next_n
               FROM grid),
    peaks AS (SELECT * FROM lagged
              WHERE prev_n IS NOT NULL AND next_n IS NOT NULL
                AND n > prev_n AND n > next_n)
    SELECT p.hour, p.n,
           CAST(p.prev_n AS BIGINT) AS prev_n,
           CAST(p.next_n AS BIGINT) AS next_n,
           CAST(coalesce((SELECT min(abs(g.hour - p.hour)) FROM grid g
                          WHERE g.n > p.n), -1) AS BIGINT)
               AS nearest_higher_dist
    FROM peaks p
"""


def user_covered_time_5m(sf_dir: str):
    """Per-user UNION length of 5-minute activity intervals — each
    event opens [ts, ts+5min) and overlapping/adjacent windows merge
    (the interval-union sibling of user_active_time's session
    measure): exact epoch-us integers, islands split where the gap to
    the previous event exceeds the window. Coarse-partition sweep
    (sort by (user, ts), vectorized segment/island arithmetic — no
    per-user micro-groups)."""
    W = np.int64(300_000_000)

    def prep(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "u": batch["user_id"].cast(pa.int64()),
            "us": batch["ts"].cast(pa.int64())})
        return t

    def sweep(grp: pd.DataFrame) -> pd.DataFrame:
        if not len(grp):
            return pd.DataFrame({"user_id": [], "n_events": [],
                                 "n_islands": [], "covered_us": []})
        g = grp.sort_values(["u", "us"], kind="mergesort")
        u = g["u"].to_numpy(np.int64)
        us = g["us"].to_numpy(np.int64)
        new_user = np.empty(u.size, dtype=bool)
        new_user[0], new_user[1:] = True, u[1:] != u[:-1]
        gap = np.empty(u.size, np.int64)
        gap[0], gap[1:] = W + 1, us[1:] - us[:-1]
        brk = new_user | (gap > W)
        isl_start = np.flatnonzero(brk)
        isl_end = np.append(isl_start[1:], u.size) - 1
        length = us[isl_end] + W - us[isl_start]
        isl_user = u[isl_start]
        uu, inv = np.unique(isl_user, return_inverse=True)
        cov = np.zeros(uu.size, np.int64)
        np.add.at(cov, inv, length)
        n_isl = np.bincount(inv, minlength=uu.size).astype(np.int64)
        n_ev = np.zeros(uu.size, np.int64)
        np.add.at(n_ev, np.searchsorted(uu, u), 1)
        return pd.DataFrame({"user_id": uu, "n_events": n_ev,
                             "n_islands": n_isl, "covered_us": cov})

    return keyed_sweep(_read(sf_dir, "events", ["user_id", "ts"])
                       .map_batches(prep, batch_format="pyarrow"),
                       "u", sweep)


QUERIES["user_covered_time_5m"] = user_covered_time_5m
ORACLE_SQL["user_covered_time_5m"] = """
    WITH e AS (SELECT user_id AS u, epoch_us(ts) AS us FROM events),
    l AS (SELECT u, us,
                 CASE WHEN us - lag(us) OVER (PARTITION BY u
                                              ORDER BY us)
                          <= 300000000
                      THEN 0 ELSE 1 END AS brk
          FROM e),
    isl AS (SELECT u, us,
                   sum(brk) OVER (PARTITION BY u ORDER BY us
                                  ROWS UNBOUNDED PRECEDING) AS island
            FROM l),
    g AS (SELECT u, island,
                 CAST(count(*) AS BIGINT) AS ne,
                 max(us) + 300000000 - min(us) AS len
          FROM isl GROUP BY 1, 2)
    SELECT u AS user_id,
           CAST(sum(ne) AS BIGINT) AS n_events,
           CAST(count(*) AS BIGINT) AS n_islands,
           CAST(sum(len) AS BIGINT) AS covered_us
    FROM g GROUP BY u
"""


def negative_edges_hashgraph(sf_dir: str):
    """Deterministic NEGATIVE-EDGE sampling over the hash graph — the
    link-prediction / GNN training-data primitive: 4 candidate
    non-neighbors per vertex from splitmix64(v*4 + slot) mod N,
    rejecting self-loops and true directed edges. The hash graph's
    edge set is FORMULA-defined, so rejection is O(1) arithmetic per
    candidate (no anti-join, nothing is broadcast); the SQL mirror
    reuses the shared splitmix CTE chain. Rejected slots are simply
    absent (fixed-count-per-vertex resampling would need a retry
    chain; downstream consumers treat this as 'up to 4 negatives')."""
    import pyarrow.parquet as pq

    from tldr_ray.stages.dedup import _mix64

    N = int(pq.read_table(f"{sf_dir}/documents.parquet",
                          columns=["doc_id"])["doc_id"]
            .to_numpy().max()) + 1
    K = 4

    def sample(batch: pa.Table) -> pa.Table:
        v = np.asarray(batch["doc_id"], dtype=np.int64)
        vv = np.repeat(v, K)
        slot = np.tile(np.arange(K, dtype=np.int64), v.size)
        h = _mix64((vv * K + slot).astype(np.uint64))
        c = (h % np.uint64(N)).astype(np.int64)
        bad = ((c == vv) | (c == (vv + 1) % N) | (c == (vv + 2) % N)
               | (c == (vv * 7 + 3) % N))
        keep = ~bad
        return pa.table({"src": pa.array(vv[keep]),
                         "slot": pa.array(slot[keep]),
                         "dst_neg": pa.array(c[keep])})

    return _read(sf_dir, "documents", ["doc_id"]) \
        .map_batches(sample, batch_format="pyarrow")


QUERIES["negative_edges_hashgraph"] = negative_edges_hashgraph
ORACLE_SQL["negative_edges_hashgraph"] = f"""
    WITH nn AS (SELECT CAST(max(doc_id) + 1 AS BIGINT) AS n
                FROM documents),
    slots AS (SELECT doc_id AS v, unnest(range(0, 4)) AS i
              FROM documents),
    sbase AS (SELECT v, i,
                     CAST(v * 4 + i AS HUGEINT) % {_SQL_M64} AS h
              FROM slots),
    {_sql_splitmix_ctes("sbase", carry="v, i, ")},
    cand AS (SELECT v, i,
                    CAST(h % (SELECT n FROM nn) AS BIGINT) AS c
             FROM m3),
    neg AS (SELECT v, i, c FROM cand, nn
            WHERE c != v AND c != (v + 1) % n
              AND c != (v + 2) % n AND c != (v * 7 + 3) % n)
    SELECT v AS src, CAST(i AS BIGINT) AS slot, c AS dst_neg FROM neg
"""


def modularity_hashgraph(sf_dir: str):
    """Newman modularity + conductance per LPA community of the hash
    graph — the partition-QUALITY audit for the engine's community
    detection: contrib_c = (2m*e_in2 - d_tot^2) / (2m)^2 and
    conductance_c = cut / min(d_tot, 2m - d_tot), both EXACT integer
    numerators over the symmetrized multigraph (e_in2 counts each
    internal undirected edge twice = LPA's own edge convention), one
    division per row. Communities come from the already-hash-checked
    graph.label_propagation trajectory; edges are decorated via two
    size-gated auto_joins (labels are the small side)."""
    import ray.data as rd

    from tldr_ray.graph import label_propagation
    from tldr_ray.stages.joins import auto_join

    ids, labels, _ = label_propagation(_hash_graph_edges(sf_dir),
                                       num_partitions=4, max_rounds=10)
    ids = np.asarray(ids, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)

    edges = _hash_graph_edges(sf_dir).select_columns(["src", "dst"])
    fwd = edges.map_batches(
        lambda b: pa.table({"s": b["src"], "t": b["dst"]}),
        batch_format="pyarrow")
    rev = edges.map_batches(
        lambda b: pa.table({"s": b["dst"], "t": b["src"]}),
        batch_format="pyarrow")
    sym = fwd.union(rev)
    lab_s = rd.from_arrow(pa.table({"s": pa.array(ids),
                                    "ls": pa.array(labels)}))
    lab_t = rd.from_arrow(pa.table({"t": pa.array(ids),
                                    "lt": pa.array(labels)}))
    dec = auto_join(auto_join(sym, lab_s, on="s"), lab_t, on="t")

    def part(batch: pa.Table) -> pa.Table:
        ls = np.asarray(batch["ls"], dtype=np.int64)
        lt = np.asarray(batch["lt"], dtype=np.int64)
        inn = (ls == lt).astype(np.int64)
        u, inv = np.unique(ls, return_inverse=True)
        d = np.bincount(inv, minlength=u.size).astype(np.int64)
        e = np.zeros(u.size, np.int64)
        np.add.at(e, inv, inn)
        return pa.table({"c": pa.array(u), "d": pa.array(d),
                         "e": pa.array(e)})

    from ray.data.aggregate import Sum

    g = (dec.map_batches(part, batch_format="pyarrow")
         .groupby("c").aggregate(Sum("d", alias_name="d_tot"),
                                 Sum("e", alias_name="e_in2"))
         .to_pandas().sort_values("c"))
    two_m = int(g["d_tot"].sum())
    cu, cn = np.unique(labels, return_counts=True)
    nv = pd.Series(cn.astype(np.int64), index=cu)
    d_tot = g["d_tot"].to_numpy(np.int64)
    e_in2 = g["e_in2"].to_numpy(np.int64)
    cut = d_tot - e_in2
    contrib = [(float(two_m * int(e) - int(d) * int(d))
                / float(two_m * two_m))
               for d, e in zip(d_tot, e_in2)]
    cond = []
    for d, ct in zip(d_tot, cut):
        den = min(int(d), two_m - int(d))
        cond.append(0.0 if den == 0 else float(int(ct)) / float(den))
    return pa.table({
        "community": pa.array(g["c"].to_numpy(np.int64)),
        "n_vertices": pa.array(
            nv.loc[g["c"].to_numpy(np.int64)].to_numpy(np.int64)),
        "d_tot": pa.array(d_tot), "e_in2": pa.array(e_in2),
        "cut": pa.array(cut),
        "contrib": pa.array(contrib, pa.float64()),
        "conductance": pa.array(cond, pa.float64())})


def _modularity_oracle_sql(rounds: int = 10) -> str:
    base = _lpa_oracle_sql(rounds)
    cut_at = base.rfind("SELECT l.v AS vertex")
    return base[:cut_at].rstrip().rstrip(",") + f""",
    dec AS (SELECT la.label AS c, lb.label AS ct
            FROM sym e
            JOIN l{rounds} la ON la.v = e.s
            JOIN l{rounds} lb ON lb.v = e.t),
    m2 AS (SELECT CAST(count(*) AS BIGINT) AS two_m FROM sym),
    g AS (SELECT c, CAST(count(*) AS BIGINT) AS d_tot,
                 CAST(count(*) FILTER (c = ct) AS BIGINT) AS e_in2
          FROM dec GROUP BY c),
    nv AS (SELECT label AS c, CAST(count(*) AS BIGINT) AS n_vertices
           FROM l{rounds} GROUP BY label)
    SELECT g.c AS community, nv.n_vertices, g.d_tot, g.e_in2,
           g.d_tot - g.e_in2 AS cut,
           CAST(two_m * e_in2 - d_tot * d_tot AS DOUBLE)
               / CAST(two_m * two_m AS DOUBLE) AS contrib,
           CASE WHEN least(d_tot, two_m - d_tot) = 0 THEN 0.0
                ELSE CAST(g.d_tot - g.e_in2 AS DOUBLE)
                     / CAST(least(d_tot, two_m - d_tot) AS DOUBLE)
           END AS conductance
    FROM g JOIN nv ON nv.c = g.c, m2
"""


QUERIES["modularity_hashgraph"] = modularity_hashgraph
ORACLE_SQL["modularity_hashgraph"] = _modularity_oracle_sql()


def lang_assortativity_hashgraph(sf_dir: str):
    """Attribute (language) assortativity of the hash graph: the
    directed mixing matrix e_ij over endpoint languages plus Newman's
    coefficient r = (m*trace - sum_i a_i*b_i) / (m^2 - sum a_i b_i)
    as exact integer cross-multiplications (one division, repeated
    per row like the kruskal tie columns). Endpoint languages come
    from two size-gated auto_joins against documents."""
    from ray.data.aggregate import Count

    from tldr_ray.stages.joins import auto_join

    langs = _read(sf_dir, "documents", ["doc_id", "lang"])
    ls = langs.map_batches(
        lambda b: pa.table({"src": b["doc_id"].cast(pa.int64()),
                            "lang_s": b["lang"]}),
        batch_format="pyarrow")
    lt = langs.map_batches(
        lambda b: pa.table({"dst": b["doc_id"].cast(pa.int64()),
                            "lang_t": b["lang"]}),
        batch_format="pyarrow")
    edges = _hash_graph_edges(sf_dir).select_columns(["src", "dst"])
    dec = auto_join(auto_join(edges, ls, on="src"), lt, on="dst")
    mix = (dec.groupby(["lang_s", "lang_t"])
           .aggregate(Count(alias_name="e"))
           .to_pandas().sort_values(["lang_s", "lang_t"]))
    m = int(mix["e"].sum())
    trace = int(mix.loc[mix["lang_s"] == mix["lang_t"], "e"].sum())
    a = mix.groupby("lang_s")["e"].sum()
    b = mix.groupby("lang_t")["e"].sum()
    sum_ab = int(sum(int(a.get(k, 0)) * int(b.get(k, 0))
                     for k in set(a.index) | set(b.index)))
    r = float(m * trace - sum_ab) / float(m * m - sum_ab)
    k = len(mix)
    return pa.table({
        "lang_s": pa.array(mix["lang_s"].to_numpy(object), pa.string()),
        "lang_t": pa.array(mix["lang_t"].to_numpy(object), pa.string()),
        "e": pa.array(mix["e"].to_numpy(np.int64)),
        "m_edges": pa.array([m] * k, pa.int64()),
        "trace": pa.array([trace] * k, pa.int64()),
        "sum_ab": pa.array([sum_ab] * k, pa.int64()),
        "r": pa.array([r] * k, pa.float64())})


QUERIES["lang_assortativity_hashgraph"] = lang_assortativity_hashgraph
ORACLE_SQL["lang_assortativity_hashgraph"] = f"""
    WITH {_HASHGRAPH_RAW},
    dec AS (SELECT da.lang AS lang_s, db.lang AS lang_t
            FROM raw2
            JOIN documents da ON da.doc_id = raw2.s
            JOIN documents db ON db.doc_id = raw2.t),
    mix AS (SELECT lang_s, lang_t, CAST(count(*) AS BIGINT) AS e
            FROM dec GROUP BY 1, 2),
    mm AS (SELECT CAST(sum(e) AS BIGINT) AS m,
                  CAST(sum(e) FILTER (lang_s = lang_t) AS BIGINT)
                      AS trace
           FROM mix),
    rowa AS (SELECT lang_s AS l, CAST(sum(e) AS BIGINT) AS a
             FROM mix GROUP BY 1),
    colb AS (SELECT lang_t AS l, CAST(sum(e) AS BIGINT) AS b
             FROM mix GROUP BY 1),
    ab AS (SELECT CAST(sum(coalesce(rowa.a, 0) * coalesce(colb.b, 0))
                       AS BIGINT) AS sum_ab
           FROM rowa FULL OUTER JOIN colb ON colb.l = rowa.l)
    SELECT mix.lang_s, mix.lang_t, mix.e,
           mm.m AS m_edges, mm.trace, ab.sum_ab,
           CAST(mm.m * mm.trace - ab.sum_ab AS DOUBLE)
               / CAST(mm.m * mm.m - ab.sum_ab AS DOUBLE) AS r
    FROM mix, mm, ab
"""


def attack_robustness_hashgraph(sf_dir: str, n_remove: int = 10):
    """Targeted-attack robustness: delete the 10 highest-degree
    vertices (degree desc, id asc tiebreak) and measure what remains
    — surviving vertex count, number of connected components
    (vertices isolated by the removal count as singletons), and the
    largest component's size. Degree/top-k from the shared degree
    tables; the surviving edge set streams through a 10-key semi
    filter; components via the engine's distributed CC."""
    from tldr_ray.graph import connected_components

    und, deg = _hashgraph_degree_tables(sf_dir)
    top = (deg.sort(["degree", "v"], descending=[True, False])
           .limit(n_remove).to_pandas())
    rm = np.sort(top["v"].to_numpy(np.int64))
    n_total = int(deg.count())

    def fil(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch["a"], dtype=np.int64)
        b = np.asarray(batch["b"], dtype=np.int64)
        bad = np.isin(a, rm) | np.isin(b, rm)
        t = batch.filter(pa.array(~bad))
        return pa.table({"src": t["a"], "dst": t["b"],
                         "weight": pa.array(
                             np.ones(t.num_rows, np.float64))})

    kept = und.map_batches(fil, batch_format="pyarrow")
    ids, labels, _ = connected_components(kept, num_partitions=4)
    labels = np.asarray(labels, dtype=np.int64)
    n_left = n_total - n_remove
    _, sizes = np.unique(labels, return_counts=True)
    n_singletons = n_left - int(np.asarray(ids).size)
    n_components = int(sizes.size) + n_singletons
    largest = int(sizes.max()) if sizes.size else 1
    return pa.table({
        "n_removed": pa.array([n_remove], pa.int64()),
        "n_left": pa.array([n_left], pa.int64()),
        "n_components": pa.array([n_components], pa.int64()),
        "largest_component": pa.array([largest], pa.int64())})


QUERIES["attack_robustness_hashgraph"] = attack_robustness_hashgraph
ORACLE_SQL["attack_robustness_hashgraph"] = f"""
    WITH RECURSIVE {_HASHGRAPH_RAW.strip()},
    und AS (SELECT DISTINCT least(s, t) AS a, greatest(s, t) AS b
            FROM raw2),
    verts AS (SELECT a AS v FROM und UNION ALL SELECT b FROM und),
    deg AS (SELECT v, count(*) AS degree FROM verts GROUP BY v),
    top10 AS (SELECT v FROM deg ORDER BY degree DESC, v LIMIT 10),
    fil AS MATERIALIZED (
        SELECT a, b FROM und
        WHERE a NOT IN (SELECT v FROM top10)
          AND b NOT IN (SELECT v FROM top10)),
    sym2 AS MATERIALIZED (SELECT a AS s, b AS t FROM fil
                          UNION ALL SELECT b, a FROM fil),
    fverts AS (SELECT DISTINCT s AS v FROM sym2),
    reach(v, l) AS (
        SELECT v, v FROM fverts
        UNION
        SELECT sym2.t, reach.l FROM reach JOIN sym2 ON sym2.s = reach.v
    ),
    cc AS (SELECT v, min(l) AS comp FROM reach GROUP BY v),
    sizes AS (SELECT comp, CAST(count(*) AS BIGINT) AS c
              FROM cc GROUP BY comp),
    nt AS (SELECT CAST(count(*) AS BIGINT) AS n_total FROM deg),
    ne AS (SELECT CAST(count(*) AS BIGINT) AS n_in_edges FROM fverts)
    SELECT CAST(10 AS BIGINT) AS n_removed,
           nt.n_total - 10 AS n_left,
           (SELECT CAST(count(*) AS BIGINT) FROM sizes)
               + (nt.n_total - 10 - ne.n_in_edges) AS n_components,
           (SELECT CAST(max(c) AS BIGINT) FROM sizes)
               AS largest_component
    FROM nt, ne
"""


_SPAN_T = ((1 << 64) * 15) // 100       # 15% word-mask rate


def span_corruption_docs(sf_dir: str):
    """T5-style span corruption — THE denoising-pretraining data
    transform: each word is masked iff splitmix64(doc_id*100003 + i)
    < floor(0.15 * 2^64) (an exact integer threshold — no RNG state,
    any worker regenerates the same mask), maximal masked runs
    collapse to <extra_id_k> sentinels in the corrupted text and
    expand to 'sentinel words...' in the target sequence. Whitespace
    word semantics match the pinned split contract; all the masking
    arithmetic is vectorized, only the final per-doc string assembly
    is object work."""
    from tldr_ray.stages.dedup import _mix64

    def corrupt(batch: pa.Table) -> pa.Table:
        split = pc.utf8_split_whitespace(batch["text"])
        words = np.asarray(pc.list_flatten(split), dtype=object)
        parent = np.asarray(pc.list_parent_indices(split),
                            dtype=np.int64)
        keep = words != ""
        words, parent = words[keep], parent[keep]
        doc_ids = np.asarray(batch["doc_id"], dtype=np.int64)
        n_batch = len(batch)
        if parent.size:
            new_doc = np.empty(parent.size, dtype=bool)
            new_doc[0], new_doc[1:] = True, parent[1:] != parent[:-1]
            starts = np.maximum.accumulate(
                np.where(new_doc, np.arange(parent.size), 0))
            i = np.arange(parent.size) - starts
            h = _mix64((doc_ids[parent] * 100003 + i)
                       .astype(np.uint64))
            mask = h < np.uint64(_SPAN_T)
            prev_mask = np.empty(parent.size, dtype=bool)
            prev_mask[0], prev_mask[1:] = False, mask[:-1]
            span_start = mask & (new_doc | ~prev_mask)
            cum = np.cumsum(span_start)
            k = cum - np.where(new_doc, cum - span_start, 0)[
                np.maximum.accumulate(
                    np.where(new_doc, np.arange(parent.size), 0))] - 1
        else:
            mask = span_start = np.zeros(0, dtype=bool)
            i = k = np.zeros(0, np.int64)
        n_words = np.bincount(parent, minlength=n_batch) \
            .astype(np.int64)
        n_masked = np.zeros(n_batch, np.int64)
        np.add.at(n_masked, parent[mask], 1)
        n_spans = np.zeros(n_batch, np.int64)
        np.add.at(n_spans, parent[span_start], 1)
        corrupted, targets = [], []
        bounds = np.append(
            np.searchsorted(parent, np.arange(n_batch)), parent.size)
        for d in range(n_batch):
            lo, hi = bounds[d], bounds[d + 1]
            cpieces, tpieces = [], []
            for j in range(lo, hi):
                if not mask[j]:
                    cpieces.append(words[j])
                else:
                    if span_start[j]:
                        cpieces.append(f"<extra_id_{k[j]}>")
                        tpieces.append(f"<extra_id_{k[j]}> {words[j]}")
                    else:
                        tpieces.append(words[j])
            corrupted.append(" ".join(cpieces))
            targets.append(" ".join(tpieces))
        return pa.table({
            "doc_id": pa.array(doc_ids),
            "n_words": pa.array(n_words),
            "n_masked": pa.array(n_masked),
            "n_spans": pa.array(n_spans),
            "corrupted": pa.array(corrupted, pa.string()),
            "targets": pa.array(targets, pa.string())})

    return _read(sf_dir, "documents", ["doc_id", "text"]) \
        .map_batches(corrupt, batch_format="pyarrow")


QUERIES["span_corruption_docs"] = span_corruption_docs
ORACLE_SQL["span_corruption_docs"] = f"""
    WITH t AS (SELECT doc_id,
                      list_filter(regexp_split_to_array(text, '\\s+'),
                                  x -> x != '') AS a
               FROM documents),
    w AS (SELECT doc_id, u.i, a[u.i] AS word
          FROM t, unnest(generate_series(1, len(a))) AS u(i)),
    sbase AS (SELECT doc_id, i, word,
                     CAST(doc_id * 100003 + (i - 1) AS HUGEINT)
                         % {_SQL_M64} AS h
              FROM w),
    {_sql_splitmix_ctes("sbase", carry="doc_id, i, word, ")},
    mk AS (SELECT doc_id, i, word, h < {_SPAN_T} AS mask FROM m3),
    sp AS (SELECT *, CASE WHEN mask AND NOT coalesce(
                         lag(mask) OVER (PARTITION BY doc_id
                                         ORDER BY i), FALSE)
                          THEN 1 ELSE 0 END AS span_start
           FROM mk),
    ks AS (SELECT *, sum(span_start) OVER (
                        PARTITION BY doc_id ORDER BY i
                        ROWS UNBOUNDED PRECEDING) - 1 AS k
           FROM sp),
    agg AS (SELECT doc_id,
                   CAST(count(*) AS BIGINT) AS n_words,
                   CAST(count(*) FILTER (mask) AS BIGINT) AS n_masked,
                   CAST(count(*) FILTER (span_start = 1) AS BIGINT)
                       AS n_spans,
                   string_agg(CASE WHEN NOT mask THEN word
                                   WHEN span_start = 1
                                   THEN '<extra_id_' || k || '>'
                              END, ' ' ORDER BY i) AS corrupted,
                   string_agg(CASE WHEN mask AND span_start = 1
                                   THEN '<extra_id_' || k || '> '
                                        || word
                                   WHEN mask THEN word
                              END, ' ' ORDER BY i) AS targets
            FROM ks GROUP BY doc_id)
    SELECT d.doc_id,
           coalesce(agg.n_words, 0) AS n_words,
           coalesce(agg.n_masked, 0) AS n_masked,
           coalesce(agg.n_spans, 0) AS n_spans,
           coalesce(agg.corrupted, '') AS corrupted,
           coalesce(agg.targets, '') AS targets
    FROM documents d LEFT JOIN agg ON agg.doc_id = d.doc_id
"""


def dvb_roundtrip_events(sf_dir: str):
    """The bespoke DVB codec (sources/codec.py: int64 delta-zigzag-
    varint, string dict-RLE) end to end: events' id/user/type columns
    stream to sharded .dvb blobs and back with every value
    hash-checked against the original table — the lightweight-
    compression sibling of the CSV/JSONL/Avro/ORC round-trips."""
    import hashlib
    import shutil

    from tldr_ray.sinks import write_table
    from tldr_ray.sources import read_table

    key = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    out = f"/tmp/tldr_ray_dvb/{key}"
    shutil.rmtree(out, ignore_errors=True)
    write_table(_read(sf_dir, "events",
                      ["event_id", "user_id", "event_type"]),
                out, format="dvb")
    return read_table(out, format="dvb")


QUERIES["dvb_roundtrip_events"] = dvb_roundtrip_events
ORACLE_SQL["dvb_roundtrip_events"] = """
    SELECT event_id, user_id, event_type FROM events
"""


def kwic_docs(sf_dir: str):
    """Keyword-in-context (KWIC) concordance for the corpus' most
    frequent word (count desc, word asc tiebreak — data-derived, no
    hardcoded probe): every occurrence with up to 3 words of left and
    right context. Two passes: a word-count topper (partial counts per
    batch), then a context scan that only materializes windows around
    hits. Positions are 1-based over the empty-filtered word list —
    the same convention as the SQL lateral-unnest mirror."""
    import ray
    from ray.data.aggregate import Sum

    def wc(batch: pa.Table) -> pa.Table:
        w = np.asarray(pc.list_flatten(
            pc.utf8_split_whitespace(batch["text"])), dtype=object)
        w = w[w != ""]
        u, c = np.unique(w.astype(str), return_counts=True)
        return pa.table({"word": pa.array(u, pa.string()),
                         "c": pa.array(c.astype(np.int64))})

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    top = (docs.map_batches(wc, batch_format="pyarrow")
           .groupby("word").aggregate(Sum("c", alias_name="c"))
           .sort(["c", "word"], descending=[True, False])
           .limit(1).to_pandas())
    target = str(top["word"].iloc[0])
    tref = ray.put(target)

    def contexts(batch: pa.Table) -> pa.Table:
        tw = ray.get(tref)
        split = pc.utf8_split_whitespace(batch["text"])
        words = np.asarray(pc.list_flatten(split), dtype=object)
        parent = np.asarray(pc.list_parent_indices(split),
                            dtype=np.int64)
        keep = words != ""
        words, parent = words[keep], parent[keep]
        doc_ids = np.asarray(batch["doc_id"], dtype=np.int64)
        if parent.size:
            new_doc = np.empty(parent.size, dtype=bool)
            new_doc[0], new_doc[1:] = True, parent[1:] != parent[:-1]
            starts = np.maximum.accumulate(
                np.where(new_doc, np.arange(parent.size), 0))
            pos = np.arange(parent.size) - starts
        else:
            pos = np.zeros(0, np.int64)
            starts = pos
        hits = np.flatnonzero(words == tw)
        out_doc, out_pos, out_l, out_r = [], [], [], []
        bounds = np.append(
            np.searchsorted(parent, np.arange(len(batch))),
            parent.size)
        for j in hits:
            d = parent[j]
            lo, hi = bounds[d], bounds[d + 1]
            out_doc.append(doc_ids[d])
            out_pos.append(int(pos[j]) + 1)
            out_l.append(" ".join(words[max(lo, j - 3):j]))
            out_r.append(" ".join(words[j + 1:min(hi, j + 4)]))
        return pa.table({
            "doc_id": pa.array(out_doc, pa.int64()),
            "word": pa.array([tw] * len(out_doc), pa.string()),
            "pos": pa.array(out_pos, pa.int64()),
            "left_ctx": pa.array(out_l, pa.string()),
            "right_ctx": pa.array(out_r, pa.string())})

    return docs.map_batches(contexts, batch_format="pyarrow")


QUERIES["kwic_docs"] = kwic_docs
ORACLE_SQL["kwic_docs"] = """
    WITH t AS (SELECT doc_id,
                      list_filter(regexp_split_to_array(text, '\\s+'),
                                  x -> x != '') AS a
               FROM documents),
    w AS (SELECT doc_id, u.i, a[u.i] AS word
          FROM t, unnest(generate_series(1, len(a))) AS u(i)),
    cnt AS (SELECT word, count(*) AS c FROM w GROUP BY word),
    top AS (SELECT word FROM cnt ORDER BY c DESC, word LIMIT 1)
    SELECT t.doc_id, top.word,
           CAST(u.i AS BIGINT) AS pos,
           coalesce(array_to_string(
               a[greatest(1, u.i - 3): u.i - 1], ' '), '')
               AS left_ctx,
           coalesce(array_to_string(
               a[u.i + 1: least(len(a), u.i + 3)], ' '), '')
               AS right_ctx
    FROM t, top, unnest(generate_series(1, len(a))) AS u(i)
    WHERE a[u.i] = top.word
"""


def mutual_nn_embeddings(sf_dir: str):
    """Mutual nearest-neighbor pairs over the embeddings table — the
    high-precision seed set for embedding dedup / bitext-mining-style
    alignment: (a, b) where b is a's cosine top-1 AND a is b's
    (float64 scoring, (cos desc, id asc) ties — the exact knn-graph
    machinery at k=1); the mutuality join runs on the n-row neighbor
    list, not the n^2 score matrix."""
    nn = knn_graph_embeddings(sf_dir, k=1).to_pandas()
    m = nn.merge(nn, left_on=["vec_id", "nbr_id"],
                 right_on=["nbr_id", "vec_id"])
    keep = m[m["vec_id_x"] < m["nbr_id_x"]]
    return pa.table({
        "a": pa.array(keep["vec_id_x"].to_numpy(np.int64)),
        "b": pa.array(keep["nbr_id_x"].to_numpy(np.int64))})


QUERIES["mutual_nn_embeddings"] = mutual_nn_embeddings
ORACLE_SQL["mutual_nn_embeddings"] = """
    WITH sc AS (
        SELECT a.vec_id, b.vec_id AS nbr_id,
               list_cosine_similarity(a.embedding, b.embedding) AS cos
        FROM embeddings a JOIN embeddings b ON a.vec_id != b.vec_id),
    rk AS (
        SELECT vec_id, nbr_id,
               row_number() OVER (PARTITION BY vec_id
                                  ORDER BY cos DESC, nbr_id ASC) AS rnk
        FROM sc),
    t1 AS (SELECT vec_id, nbr_id FROM rk WHERE rnk = 1)
    SELECT x.vec_id AS a, x.nbr_id AS b
    FROM t1 x JOIN t1 y ON y.vec_id = x.nbr_id
                       AND y.nbr_id = x.vec_id
    WHERE x.vec_id < x.nbr_id
"""


def random_failure_robustness_hashgraph(sf_dir: str):
    """RANDOM-failure robustness curve — the complement of
    attack_robustness_hashgraph's targeted deletion: knock out 25% /
    50% / 75% of vertices by an exact splitmix64(v) integer threshold
    (no RNG state; removal is pure arithmetic, so edge filtering
    needs NO join or broadcast) and report surviving-vertex count,
    component count (vertices isolated by the removal count as
    singletons) and the largest surviving component, via three runs
    of the engine's distributed CC. The SQL mirror shares ONE
    splitmix chain and unrolls three recursive reaches."""
    from ray.data.aggregate import Sum

    from tldr_ray.graph import connected_components
    from tldr_ray.stages.dedup import _mix64

    und, deg = _hashgraph_degree_tables(sf_dir)
    Ts = [((1 << 64) * l) // 4 for l in (1, 2, 3)]

    def survive_counts(batch: pa.Table) -> pa.Table:
        h = _mix64(np.asarray(batch["v"], dtype=np.int64)
                   .astype(np.uint64))
        return pa.table({
            f"s{i}": pa.array([int((h >= np.uint64(t)).sum())],
                              pa.int64())
            for i, t in enumerate(Ts)})

    nl = (deg.map_batches(survive_counts, batch_format="pyarrow")
          .aggregate(*[Sum(f"s{i}", alias_name=f"s{i}")
                       for i in range(3)]))
    n_left = [int(nl[f"sum(s{i})"] if f"sum(s{i})" in nl
                  else nl[f"s{i}"]) for i in range(3)]

    rows = []
    for i, t in enumerate(Ts):
        tt = np.uint64(t)

        def fil(batch: pa.Table, _t=tt) -> pa.Table:
            a = np.asarray(batch["a"], dtype=np.int64)
            b = np.asarray(batch["b"], dtype=np.int64)
            keep = (_mix64(a.astype(np.uint64)) >= _t) \
                & (_mix64(b.astype(np.uint64)) >= _t)
            tab = batch.filter(pa.array(keep))
            return pa.table({
                "src": tab["a"], "dst": tab["b"],
                "weight": pa.array(np.ones(tab.num_rows, np.float64))})

        kept = und.map_batches(fil, batch_format="pyarrow")
        ids, labels, _ = connected_components(kept, num_partitions=4)
        labels = np.asarray(labels, dtype=np.int64)
        _, sizes = np.unique(labels, return_counts=True)
        singles = n_left[i] - int(np.asarray(ids).size)
        n_comp = int(sizes.size) + singles
        largest = int(sizes.max()) if sizes.size else \
            (1 if n_left[i] > 0 else 0)
        rows.append(((i + 1) * 25, n_left[i], n_comp, largest))
    return pa.table({
        "removed_pct": pa.array([r[0] for r in rows], pa.int64()),
        "n_left": pa.array([r[1] for r in rows], pa.int64()),
        "n_components": pa.array([r[2] for r in rows], pa.int64()),
        "largest_component": pa.array([r[3] for r in rows],
                                      pa.int64())})


def _failure_robustness_oracle_sql() -> str:
    Ts = [((1 << 64) * l) // 4 for l in (1, 2, 3)]
    blocks, selects = [], []
    for i, t in enumerate(Ts, start=1):
        blocks.append(f"""
    fil{i} AS MATERIALIZED (
        SELECT u.a, u.b FROM und u
        JOIN hv ha ON ha.v = u.a
        JOIN hv hb ON hb.v = u.b
        WHERE ha.h >= {t} AND hb.h >= {t}),
    sym{i} AS MATERIALIZED (SELECT a AS s, b AS t FROM fil{i}
                            UNION ALL SELECT b, a FROM fil{i}),
    fv{i} AS (SELECT DISTINCT s AS v FROM sym{i}),
    reach{i}(v, l) AS (
        SELECT v, v FROM fv{i}
        UNION
        SELECT sym{i}.t, reach{i}.l
        FROM reach{i} JOIN sym{i} ON sym{i}.s = reach{i}.v),
    cc{i} AS (SELECT v, min(l) AS comp FROM reach{i} GROUP BY v),
    sizes{i} AS (SELECT comp, CAST(count(*) AS BIGINT) AS c
                 FROM cc{i} GROUP BY comp),
    st{i} AS (SELECT
        CAST({i * 25} AS BIGINT) AS removed_pct,
        (SELECT CAST(count(*) AS BIGINT) FROM hv WHERE h >= {t})
            AS n_left,
        (SELECT CAST(count(*) AS BIGINT) FROM sizes{i})
            + (SELECT CAST(count(*) AS BIGINT) FROM hv
               WHERE h >= {t})
            - (SELECT CAST(count(*) AS BIGINT) FROM fv{i})
            AS n_components,
        coalesce((SELECT CAST(max(c) AS BIGINT) FROM sizes{i}),
                 CASE WHEN (SELECT count(*) FROM hv
                            WHERE h >= {t}) > 0
                      THEN 1 ELSE 0 END) AS largest_component)""")
        selects.append(f"SELECT * FROM st{i}")
    return f"""
    WITH RECURSIVE {_HASHGRAPH_RAW.strip()},
    und AS (SELECT DISTINCT least(s, t) AS a, greatest(s, t) AS b
            FROM raw2),
    verts AS (SELECT DISTINCT v FROM (
        SELECT a AS v FROM und UNION ALL SELECT b FROM und)),
    sbase AS (SELECT v, CAST(v AS HUGEINT) % {_SQL_M64} AS h
              FROM verts),
    {_sql_splitmix_ctes("sbase", carry="v, ")},
    hv AS MATERIALIZED (SELECT v, h FROM m3),
    {",".join(blocks)}
    {" UNION ALL ".join(selects)}
"""


QUERIES["random_failure_robustness_hashgraph"] = \
    random_failure_robustness_hashgraph
ORACLE_SQL["random_failure_robustness_hashgraph"] = \
    _failure_robustness_oracle_sql()


def bot_score_users(sf_dir: str):
    """Bot-likeness screen per user — the composite abuse-filtering
    signal a real ingestion pipeline gates on: event count, dominant
    event-type share, peak events-per-minute burst, and active-span
    event rate, flagged is_suspect when the dominant share tops 40%
    (5*maxc >= 2*n, integer cross-multiplication) OR the burst tops
    2/minute. One pass builds (user, type) and (user, minute) counts
    (two small exchanges); every emitted float is a single
    division."""
    from ray.data.aggregate import Count, Max, Min, Sum

    MIN_ = np.int64(60_000_000)

    def prep(batch: pa.Table) -> pa.Table:
        us = np.asarray(batch["ts"].cast(pa.int64()), dtype=np.int64)
        return pa.table({
            "user_id": batch["user_id"].cast(pa.int64()),
            "event_type": batch["event_type"],
            "minute": pa.array(us // MIN_),
            "us": pa.array(us)})

    rows = _read(sf_dir, "events", ["user_id", "ts", "event_type"]) \
        .map_batches(prep, batch_format="pyarrow").materialize()
    by_type = (rows.groupby(["user_id", "event_type"])
               .aggregate(Count(alias_name="c"))
               .groupby("user_id")
               .aggregate(Sum("c", alias_name="n"),
                          Max("c", alias_name="maxc")))
    by_min = (rows.groupby(["user_id", "minute"])
              .aggregate(Count(alias_name="c"))
              .groupby("user_id")
              .aggregate(Max("c", alias_name="burst")))
    span = (rows.groupby("user_id")
            .aggregate(Min("us", alias_name="lo"),
                       Max("us", alias_name="hi")))
    from tldr_ray.stages.joins import auto_join

    j = auto_join(auto_join(by_type, by_min, on="user_id"),
                  span, on="user_id")

    def score(batch: pa.Table) -> pa.Table:
        n = np.asarray(batch["n"], dtype=np.int64)
        maxc = np.asarray(batch["maxc"], dtype=np.int64)
        burst = np.asarray(batch["burst"], dtype=np.int64)
        lo = np.asarray(batch["lo"], dtype=np.int64)
        hi = np.asarray(batch["hi"], dtype=np.int64)
        span_s = (hi - lo) // 1_000_000
        suspect = ((5 * maxc >= 2 * n) | (burst >= 2)).astype(np.int64)
        return pa.table({
            "user_id": batch["user_id"].cast(pa.int64()),
            "n_events": pa.array(n),
            "top_type_share": pa.array(maxc.astype(np.float64)
                                       / n.astype(np.float64)),
            "burst_per_min": pa.array(burst),
            "active_span_s": pa.array(span_s),
            "is_suspect": pa.array(suspect)})

    return j.map_batches(score, batch_format="pyarrow")


QUERIES["bot_score_users"] = bot_score_users
ORACLE_SQL["bot_score_users"] = """
    WITH e AS (SELECT user_id, event_type,
                      epoch_us(ts) // 60000000 AS minute,
                      epoch_us(ts) AS us
               FROM events),
    bt AS (SELECT user_id, CAST(sum(c) AS BIGINT) AS n,
                  CAST(max(c) AS BIGINT) AS maxc
           FROM (SELECT user_id, event_type, count(*) AS c
                 FROM e GROUP BY 1, 2) GROUP BY user_id),
    bm AS (SELECT user_id, CAST(max(c) AS BIGINT) AS burst
           FROM (SELECT user_id, minute, count(*) AS c
                 FROM e GROUP BY 1, 2) GROUP BY user_id),
    sp AS (SELECT user_id, min(us) AS lo, max(us) AS hi
           FROM e GROUP BY user_id)
    SELECT bt.user_id, bt.n AS n_events,
           CAST(bt.maxc AS DOUBLE) / CAST(bt.n AS DOUBLE)
               AS top_type_share,
           bm.burst AS burst_per_min,
           CAST((sp.hi - sp.lo) // 1000000 AS BIGINT)
               AS active_span_s,
           CAST(CASE WHEN 5 * bt.maxc >= 2 * bt.n OR bm.burst >= 2
                     THEN 1 ELSE 0 END AS BIGINT) AS is_suspect
    FROM bt JOIN bm ON bm.user_id = bt.user_id
            JOIN sp ON sp.user_id = bt.user_id
"""


def hod_profile_similarity(sf_dir: str):
    """Histogram-intersection similarity between the WEEKDAY and
    WEEKEND hour-of-day activity profiles — 'does weekend traffic
    keep the same daily shape?'. sum_h min(P_wd(h), P_we(h)) computed
    as EXACT integer cross-multiplication min(c1*n2, c2*n1) over the
    common denominator n1*n2; one division at the end. One
    (is_weekend, hour-of-day) groupby feeds a 24-row fold."""
    from ray.data.aggregate import Count

    DAY = np.int64(86_400_000_000)
    HOUR = np.int64(3_600_000_000)

    def prep(batch: pa.Table) -> pa.Table:
        us = np.asarray(batch["ts"].cast(pa.int64()), dtype=np.int64)
        d = us // DAY
        return pa.table({
            "is_we": pa.array(((d + 3) % 7 >= 5).astype(np.int64)),
            "hod": pa.array((us // HOUR) % 24)})

    g = (_read(sf_dir, "events", ["ts"])
         .map_batches(prep, batch_format="pyarrow")
         .groupby(["is_we", "hod"]).aggregate(Count(alias_name="c"))
         .to_pandas())
    piv = (g.pivot_table(index="hod", columns="is_we", values="c",
                         aggfunc="sum", fill_value=0)
           .reindex(np.arange(24), fill_value=0))
    c1 = piv.get(0, pd.Series(0, index=piv.index)).to_numpy(np.int64)
    c2 = piv.get(1, pd.Series(0, index=piv.index)).to_numpy(np.int64)
    n1, n2 = int(c1.sum()), int(c2.sum())
    num = int(np.minimum(c1 * n2, c2 * n1).sum())
    return pa.table({
        "n_weekday": pa.array([n1], pa.int64()),
        "n_weekend": pa.array([n2], pa.int64()),
        "sim_num": pa.array([num], pa.int64()),
        "sim_den": pa.array([n1 * n2], pa.int64()),
        "similarity": pa.array(
            [np.float64(num) / np.float64(n1 * n2)], pa.float64())})


QUERIES["hod_profile_similarity"] = hod_profile_similarity
ORACLE_SQL["hod_profile_similarity"] = """
    WITH e AS (SELECT (epoch_us(ts) // 86400000000 + 3) % 7 >= 5
                          AS is_we,
                      (epoch_us(ts) // 3600000000) % 24 AS hod
               FROM events),
    vc AS (SELECT hod,
                  CAST(count(*) FILTER (NOT is_we) AS BIGINT) AS c1,
                  CAST(count(*) FILTER (is_we) AS BIGINT) AS c2
           FROM e GROUP BY hod),
    grid AS (SELECT g.hod, coalesce(vc.c1, 0) AS c1,
                    coalesce(vc.c2, 0) AS c2
             FROM (SELECT unnest(range(0, 24)) AS hod) g
             LEFT JOIN vc ON vc.hod = g.hod),
    n AS (SELECT CAST(sum(c1) AS BIGINT) AS n1,
                 CAST(sum(c2) AS BIGINT) AS n2
          FROM grid)
    SELECT n1 AS n_weekday, n2 AS n_weekend,
           CAST(sum(least(c1 * n2, c2 * n1)) AS BIGINT) AS sim_num,
           CAST(n1 * n2 AS BIGINT) AS sim_den,
           CAST(sum(least(c1 * n2, c2 * n1)) AS DOUBLE)
               / CAST(n1 * n2 AS DOUBLE) AS similarity
    FROM grid, n GROUP BY n1, n2
"""


def day_profile_knn(sf_dir: str):
    """Each day's most similar OTHER day by the cosine^2 of their
    24-hour activity profiles — seasonality twins, computed fully
    EXACTLY: similarity ranks by the scaled integer quotient
    score_ppt = dot^2 * 10^12 // (|a|^2 * |b|^2) (floor division on
    Python/HUGEINT big ints — no float enters the ordering), ties by
    candidate day. One (day, hod) groupby feeds a days^2 integer
    fold."""
    from ray.data.aggregate import Count

    DAY = np.int64(86_400_000_000)
    HOUR = np.int64(3_600_000_000)

    g = (_read(sf_dir, "events", ["ts"])
         .map_batches(lambda t: pa.table({
             "day": pa.array(np.asarray(t["ts"].cast(pa.int64()),
                                        dtype=np.int64) // DAY),
             "hod": pa.array((np.asarray(t["ts"].cast(pa.int64()),
                                         dtype=np.int64) // HOUR)
                             % 24)}),
             batch_format="pyarrow")
         .groupby(["day", "hod"]).aggregate(Count(alias_name="c"))
         .to_pandas())
    piv = (g.pivot_table(index="day", columns="hod", values="c",
                         aggfunc="sum", fill_value=0)
           .reindex(columns=np.arange(24), fill_value=0)
           .sort_index())
    days = piv.index.to_numpy(np.int64)
    M = piv.to_numpy(np.int64)
    qn = (M * M).sum(axis=1)
    dot = M @ M.T
    out_day, out_best, out_score = [], [], []
    for i in range(days.size):
        best, bscore = None, -1
        for jj in range(days.size):
            if jj == i:
                continue
            s = (int(dot[i, jj]) ** 2 * 10 ** 12) \
                // (int(qn[i]) * int(qn[jj]))
            if s > bscore or (s == bscore
                              and days[jj] < days[best]):
                best, bscore = jj, s
        out_day.append(int(days[i]))
        out_best.append(int(days[best]))
        out_score.append(bscore)
    return pa.table({
        "day": pa.array(out_day, pa.int64()),
        "best_day": pa.array(out_best, pa.int64()),
        "score_ppt": pa.array(out_score, pa.int64())})


QUERIES["day_profile_knn"] = day_profile_knn
ORACLE_SQL["day_profile_knn"] = """
    WITH e AS (SELECT epoch_us(ts) // 86400000000 AS day,
                      (epoch_us(ts) // 3600000000) % 24 AS hod
               FROM events),
    cnt AS (SELECT day, hod, CAST(count(*) AS BIGINT) AS c
            FROM e GROUP BY 1, 2),
    dh AS (SELECT d.day, h.hod
           FROM (SELECT DISTINCT day FROM e) d
           CROSS JOIN (SELECT unnest(range(0, 24)) AS hod) h),
    grid AS (SELECT dh.day, dh.hod, coalesce(cnt.c, 0) AS c
             FROM dh LEFT JOIN cnt
               ON cnt.day = dh.day AND cnt.hod = dh.hod),
    qn AS (SELECT day, CAST(sum(c * c) AS BIGINT) AS q
           FROM grid GROUP BY day),
    dots AS (SELECT a.day AS d1, b.day AS d2,
                    CAST(sum(a.c * b.c) AS BIGINT) AS dot
             FROM grid a JOIN grid b ON b.hod = a.hod
                                    AND b.day != a.day
             GROUP BY 1, 2),
    scored AS (SELECT d1, d2,
                      CAST((CAST(dot AS HUGEINT) * dot * 1000000000000)
                           // (CAST(qa.q AS HUGEINT) * qb.q)
                           AS BIGINT) AS score_ppt
               FROM dots
               JOIN qn qa ON qa.day = dots.d1
               JOIN qn qb ON qb.day = dots.d2),
    best AS (SELECT d1, d2, score_ppt,
                    row_number() OVER (PARTITION BY d1
                                       ORDER BY score_ppt DESC,
                                                d2 ASC) AS rn
             FROM scored)
    SELECT d1 AS day, d2 AS best_day, score_ppt
    FROM best WHERE rn = 1
"""


def embedding_dim_minmax(sf_dir: str):
    """Per-DIMENSION min/max profile of the embedding matrix with the
    achieving vector ids (ties -> smallest id) — the quantizer-range /
    data-quality pass scalar_quantize_embeddings presupposes, and the
    list-column exercise for the schema: each block computes its
    dim-wise partial (argmin/argmax carried as ids), the driver folds
    blocks (dims x blocks scalars). float32 storage widens exactly to
    float64, so min/max hash-check against DuckDB's DOUBLE."""
    from tldr_ray.stages.ann import _as_matrix

    def partial(batch: pa.Table) -> pa.Table:
        m = _as_matrix(batch["embedding"]).astype(np.float64)
        ids = np.asarray(batch["vec_id"], dtype=np.int64)
        d = m.shape[1]
        # tie -> smallest vec_id: iterate rows in ascending id order
        order = np.argsort(ids, kind="stable")
        m, ids = m[order], ids[order]
        imin = np.argmin(m, axis=0)      # first occurrence = min id
        imax = np.argmax(m, axis=0)
        return pa.table({
            "dim": pa.array(np.arange(d, dtype=np.int64)),
            "min_val": pa.array(m[imin, np.arange(d)]),
            "max_val": pa.array(m[imax, np.arange(d)]),
            "argmin_id": pa.array(ids[imin]),
            "argmax_id": pa.array(ids[imax])})

    parts = (_read(sf_dir, "embeddings", ["vec_id", "embedding"])
             .map_batches(partial, batch_format="pyarrow")
             .to_pandas())
    rows = []
    for dim, g in parts.groupby("dim", sort=True):
        mn = g["min_val"].min()
        mx = g["max_val"].max()
        amin = int(g.loc[g["min_val"] == mn, "argmin_id"].min())
        amax = int(g.loc[g["max_val"] == mx, "argmax_id"].min())
        rows.append((int(dim), float(mn), float(mx), amin, amax))
    return pa.table({
        "dim": pa.array([r[0] for r in rows], pa.int64()),
        "min_val": pa.array([r[1] for r in rows], pa.float64()),
        "max_val": pa.array([r[2] for r in rows], pa.float64()),
        "argmin_id": pa.array([r[3] for r in rows], pa.int64()),
        "argmax_id": pa.array([r[4] for r in rows], pa.int64())})


QUERIES["embedding_dim_minmax"] = embedding_dim_minmax
ORACLE_SQL["embedding_dim_minmax"] = """
    WITH v AS (SELECT vec_id,
                      CAST(u.i - 1 AS BIGINT) AS dim,
                      CAST(embedding[u.i] AS DOUBLE) AS val
               FROM embeddings,
                    unnest(generate_series(1, len(embedding)))
                        AS u(i)),
    mm AS (SELECT dim, min(val) AS min_val, max(val) AS max_val
           FROM v GROUP BY dim)
    SELECT mm.dim, mm.min_val, mm.max_val,
           (SELECT min(vec_id) FROM v
            WHERE v.dim = mm.dim AND v.val = mm.min_val)
               AS argmin_id,
           (SELECT min(vec_id) FROM v
            WHERE v.dim = mm.dim AND v.val = mm.max_val)
               AS argmax_id
    FROM mm
"""


def transition_dwell_matrix(sf_dir: str):
    """Event-type transition matrix DECORATED with dwell time: for
    each consecutive (from -> to) pair within a user's stream
    ((ts, event_id) order), the transition count and mean gap in
    whole seconds (exact integer sum, one division) — the
    time-weighted companion of event_transitions. One coarse sweep
    per user partition, vectorized segment shifts."""
    def prep(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "u": batch["user_id"].cast(pa.int64()),
            "us": batch["ts"].cast(pa.int64()),
            "eid": batch["event_id"].cast(pa.int64()),
            "ty": batch["event_type"]})
        return t

    def sweep(grp: pd.DataFrame) -> pd.DataFrame:
        if not len(grp):
            return pd.DataFrame({"from_type": [], "to_type": [],
                                 "n": [], "sum_gap_s": []})
        g = grp.sort_values(["u", "us", "eid"], kind="mergesort")
        u = g["u"].to_numpy(np.int64)
        us = g["us"].to_numpy(np.int64)
        ty = g["ty"].to_numpy(object)
        same = np.empty(u.size, dtype=bool)
        same[0], same[1:] = False, u[1:] == u[:-1]
        idx = np.flatnonzero(same)
        frm = ty[idx - 1]
        to = ty[idx]
        gap = (us[idx] - us[idx - 1]) // 1_000_000
        df = pd.DataFrame({"from_type": frm, "to_type": to,
                           "gap": gap})
        out = df.groupby(["from_type", "to_type"], sort=False).agg(
            n=("gap", "size"), sum_gap_s=("gap", "sum")).reset_index()
        out["from_type"] = pd.Series(out["from_type"], dtype=object)
        out["to_type"] = pd.Series(out["to_type"], dtype=object)
        return out

    from ray.data.aggregate import Sum

    g = (keyed_sweep(_read(sf_dir, "events",
                           ["user_id", "ts", "event_id", "event_type"])
                     .map_batches(prep, batch_format="pyarrow"),
                     "u", sweep)
         .groupby(["from_type", "to_type"])
         .aggregate(Sum("n", alias_name="n"),
                    Sum("sum_gap_s", alias_name="sum_gap_s")))
    return g.map_batches(lambda b: pa.table({
        "from_type": b["from_type"], "to_type": b["to_type"],
        "n": b["n"].cast(pa.int64()),
        "sum_gap_s": b["sum_gap_s"].cast(pa.int64()),
        "mean_gap_s": pa.array(
            np.asarray(b["sum_gap_s"], dtype=np.float64)
            / np.asarray(b["n"], dtype=np.float64))}),
        batch_format="pyarrow")


QUERIES["transition_dwell_matrix"] = transition_dwell_matrix
ORACLE_SQL["transition_dwell_matrix"] = """
    WITH e AS (SELECT user_id, epoch_us(ts) AS us, event_id,
                      event_type
               FROM events),
    l AS (SELECT user_id, event_type AS to_type, us,
                 lag(event_type) OVER w AS from_type,
                 lag(us) OVER w AS prev_us
          FROM e WINDOW w AS (PARTITION BY user_id
                              ORDER BY us, event_id)),
    p AS (SELECT from_type, to_type,
                 (us - prev_us) // 1000000 AS gap
          FROM l WHERE from_type IS NOT NULL)
    SELECT from_type, to_type,
           CAST(count(*) AS BIGINT) AS n,
           CAST(sum(gap) AS BIGINT) AS sum_gap_s,
           CAST(sum(gap) AS DOUBLE) / CAST(count(*) AS DOUBLE)
               AS mean_gap_s
    FROM p GROUP BY 1, 2
"""


def jsonl_gz_roundtrip_events(sf_dir: str):
    """GZIP-compressed JSONL interchange end to end: each block
    serializes its canonical-integer form (the jsonl_roundtrip_events
    contract — floats and timestamps as exact ints) to its own
    .jsonl.gz shard, and the read path streams through Arrow's gzip
    decoder (read_json + compression=gzip open args). Every column
    hash-checks; completes the compressed-landing-zone story next to
    the plain JSONL/CSV/Avro/ORC/DVB round-trips."""
    import gzip
    import hashlib
    import shutil
    import uuid

    import ray.data as rd

    key = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    out = f"/tmp/tldr_ray_jsonl_gz/{key}"
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out, exist_ok=True)

    def write(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "event_id": batch["event_id"].cast(pa.int64()),
            "ts_us": batch["ts"].cast(pa.int64()),
            "user_id": batch["user_id"].cast(pa.int64()),
            "event_type": batch["event_type"],
            "value_cents": pa.array(_cents(np.asarray(
                batch["value"], dtype=np.float64))),
            "props": batch["props"]})
        payload = t.to_pandas().to_json(
            orient="records", lines=True, force_ascii=False)
        fname = os.path.join(out, f"part-{uuid.uuid4().hex}.jsonl.gz")
        with gzip.open(fname, "wb") as f:
            f.write(payload.encode("utf-8"))
        return pa.table({"path": pa.array([fname])})

    _read(sf_dir, "events").map_batches(
        write, batch_format="pyarrow").materialize()
    return rd.read_json(
        out, arrow_open_stream_args={"compression": "gzip"})


QUERIES["jsonl_gz_roundtrip_events"] = jsonl_gz_roundtrip_events
ORACLE_SQL["jsonl_gz_roundtrip_events"] = """
    SELECT event_id, epoch_us(ts) AS ts_us, user_id, event_type,
           CAST(floor(value * 100 + 0.5) AS BIGINT) AS value_cents,
           props
    FROM events
"""


def docs_lang_source_residuals(sf_dir: str):
    """Language x source contingency of the corpus with PEARSON
    standardized residuals per cell — which source over/under-serves
    which language: exact integer deviation d = o*N - r*c, residual
    as the fixed chain d / (N * sqrt(r*c/N)), one sqrt + one divide
    per cell."""
    from ray.data.aggregate import Count

    g = (_read(sf_dir, "documents", ["lang", "source"])
         .groupby(["lang", "source"]).aggregate(Count(alias_name="o"))
         .to_pandas())
    o = g["o"].to_numpy(np.int64)
    N = int(o.sum())
    r = g.groupby("lang")["o"].transform("sum").to_numpy(np.int64)
    c = g.groupby("source")["o"].transform("sum").to_numpy(np.int64)
    d = o * N - r * c
    resid = (d.astype(np.float64)
             / (np.float64(N) * np.sqrt((r * c).astype(np.float64)
                                        / np.float64(N))))
    return pa.table({
        "lang": pa.array(g["lang"].to_numpy(object), pa.string()),
        "source": pa.array(g["source"].to_numpy(object), pa.string()),
        "o": pa.array(o), "row_total": pa.array(r),
        "col_total": pa.array(c), "d": pa.array(d),
        "residual": pa.array(resid)})


QUERIES["docs_lang_source_residuals"] = docs_lang_source_residuals
ORACLE_SQL["docs_lang_source_residuals"] = """
    WITH g AS (SELECT lang, source, CAST(count(*) AS BIGINT) AS o
               FROM documents GROUP BY 1, 2),
    t AS (SELECT lang, source, o,
                 CAST(sum(o) OVER (PARTITION BY lang) AS BIGINT)
                     AS row_total,
                 CAST(sum(o) OVER (PARTITION BY source) AS BIGINT)
                     AS col_total,
                 CAST(sum(o) OVER () AS BIGINT) AS n
          FROM g)
    SELECT lang, source, o, row_total, col_total,
           CAST(o * n - row_total * col_total AS BIGINT) AS d,
           CAST(o * n - row_total * col_total AS DOUBLE)
               / (CAST(n AS DOUBLE)
                  * sqrt(CAST(row_total * col_total AS DOUBLE)
                         / CAST(n AS DOUBLE))) AS residual
    FROM t
"""


def persistent_top_users(sf_dir: str):
    """The 20 users who make the DAILY top-5 value leaderboard most
    often (appearances desc, id asc — a fixed-size result at every
    scale; a fractional-persistence threshold returns 0 rows once the
    user pool outgrows the 5 slots/day) — the persistence ranking
    that separates structural whales from one-day spikes. (day, user) exact-cents sums, per-day top-5 via
    a day-partitioned sweep (rank by cents desc, user asc), then a
    user-keyed appearance count."""
    from ray.data.aggregate import Count, Sum

    DAY = np.int64(86_400_000_000)

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "day": pa.array(np.asarray(batch["ts"].cast(pa.int64()),
                                       dtype=np.int64) // DAY),
            "user_id": batch["user_id"].cast(pa.int64()),
            "cents": pa.array(_cents(np.asarray(
                batch["value"], dtype=np.float64)))})

    du = (_read(sf_dir, "events", ["ts", "user_id", "value"])
          .map_batches(prep, batch_format="pyarrow")
          .groupby(["day", "user_id"])
          .aggregate(Sum("cents", alias_name="v")))
    n_days = int(du.map_batches(
        lambda b: pa.table({"day": b["day"]}), batch_format="pyarrow")
        .groupby("day").count().count())

    def top5(grp: pd.DataFrame) -> pd.DataFrame:
        if not len(grp):
            return pd.DataFrame({"user_id": []})
        g = grp.sort_values(["day", "v", "user_id"],
                            ascending=[True, False, True],
                            kind="mergesort")
        day = g["day"].to_numpy(np.int64)
        new = np.empty(day.size, dtype=bool)
        new[0], new[1:] = True, day[1:] != day[:-1]
        starts = np.maximum.accumulate(
            np.where(new, np.arange(day.size), 0))
        rank = np.arange(day.size) - starts
        return pd.DataFrame(
            {"user_id": g["user_id"].to_numpy(np.int64)[rank < 5]})

    appear = (keyed_sweep(du, "day", top5, 32)
              .groupby("user_id").aggregate(Count(alias_name="days"))
              .sort(["days", "user_id"], descending=[True, False])
              .limit(20).to_pandas())
    return pa.table({
        "user_id": pa.array(appear["user_id"].to_numpy(np.int64)),
        "days_in_top5": pa.array(appear["days"].to_numpy(np.int64)),
        "n_days": pa.array(np.full(len(appear), n_days, np.int64))})


QUERIES["persistent_top_users"] = persistent_top_users
ORACLE_SQL["persistent_top_users"] = """
    WITH du AS (SELECT epoch_us(ts) // 86400000000 AS day, user_id,
                       CAST(sum(CAST(floor(value * 100 + 0.5)
                                     AS BIGINT)) AS BIGINT) AS v
                FROM events GROUP BY 1, 2),
    nd AS (SELECT CAST(count(DISTINCT day) AS BIGINT) AS n_days
           FROM du),
    r AS (SELECT day, user_id,
                 row_number() OVER (PARTITION BY day
                                    ORDER BY v DESC, user_id) AS rn
          FROM du),
    ap AS (SELECT user_id, CAST(count(*) AS BIGINT) AS days_in_top5
           FROM r WHERE rn <= 5 GROUP BY user_id)
    SELECT ap.user_id, ap.days_in_top5, nd.n_days
    FROM ap, nd ORDER BY ap.days_in_top5 DESC, ap.user_id LIMIT 20
"""


def fim_transform_docs(sf_dir: str):
    """Fill-in-middle (FIM/PSM) transform — span_corruption's sibling
    for infilling-capable model data: two splitmix64 draws per doc
    pick word cut points i <= j (i = h1 mod (n+1), j = i + h2 mod
    (n-i+1) — integer arithmetic, no RNG state), the doc splits into
    prefix/middle/suffix and re-serializes as
    '<PRE> prefix <SUF> suffix <MID> middle'. Exact strings under the
    pinned whitespace-word contract; SQL mirrors with two suffixed
    splitmix chains."""
    from tldr_ray.stages.dedup import _mix64

    def fim(batch: pa.Table) -> pa.Table:
        split = pc.utf8_split_whitespace(batch["text"])
        words = np.asarray(pc.list_flatten(split), dtype=object)
        parent = np.asarray(pc.list_parent_indices(split),
                            dtype=np.int64)
        keep = words != ""
        words, parent = words[keep], parent[keep]
        doc_ids = np.asarray(batch["doc_id"], dtype=np.int64)
        nb = len(batch)
        bounds = np.append(
            np.searchsorted(parent, np.arange(nb)), parent.size)
        h1 = _mix64((doc_ids * 2).astype(np.uint64))
        h2 = _mix64((doc_ids * 2 + 1).astype(np.uint64))
        out_i, out_j = [], []
        pre, mid, suf, psm = [], [], [], []
        for d in range(nb):
            lo, hi = int(bounds[d]), int(bounds[d + 1])
            n = hi - lo
            i = int(h1[d] % np.uint64(n + 1))
            j = i + int(h2[d] % np.uint64(n - i + 1))
            p = " ".join(words[lo:lo + i])
            m = " ".join(words[lo + i:lo + j])
            s = " ".join(words[lo + j:hi])
            out_i.append(i)
            out_j.append(j)
            pre.append(p)
            mid.append(m)
            suf.append(s)
            psm.append(f"<PRE> {p} <SUF> {s} <MID> {m}")
        return pa.table({
            "doc_id": pa.array(doc_ids),
            "cut_i": pa.array(out_i, pa.int64()),
            "cut_j": pa.array(out_j, pa.int64()),
            "prefix": pa.array(pre, pa.string()),
            "middle": pa.array(mid, pa.string()),
            "suffix": pa.array(suf, pa.string()),
            "psm": pa.array(psm, pa.string())})

    return _read(sf_dir, "documents", ["doc_id", "text"]) \
        .map_batches(fim, batch_format="pyarrow")


QUERIES["fim_transform_docs"] = fim_transform_docs
ORACLE_SQL["fim_transform_docs"] = f"""
    WITH t AS (SELECT doc_id,
                      list_filter(regexp_split_to_array(text, '\\s+'),
                                  x -> x != '') AS a
               FROM documents),
    s1 AS (SELECT doc_id, CAST(doc_id * 2 AS HUGEINT) % {_SQL_M64}
                      AS h FROM t),
    {_sql_splitmix_ctes("s1", carry="doc_id, ", sfx="a")},
    s2 AS (SELECT doc_id, CAST(doc_id * 2 + 1 AS HUGEINT)
                      % {_SQL_M64} AS h FROM t),
    {_sql_splitmix_ctes("s2", carry="doc_id, ", sfx="b")},
    cuts AS (SELECT t.doc_id, t.a, len(t.a) AS n,
                    CAST(ha.h % (len(t.a) + 1) AS BIGINT) AS i,
                    CAST(ha.h % (len(t.a) + 1) AS BIGINT)
                    + CAST(hb.h % (len(t.a)
                           - CAST(ha.h % (len(t.a) + 1) AS BIGINT)
                           + 1) AS BIGINT) AS j
             FROM t
             JOIN m3a ha ON ha.doc_id = t.doc_id
             JOIN m3b hb ON hb.doc_id = t.doc_id),
    parts AS (SELECT doc_id, i AS cut_i, j AS cut_j,
                     coalesce(array_to_string(a[1:i], ' '), '')
                         AS prefix,
                     coalesce(array_to_string(a[i + 1:j], ' '), '')
                         AS middle,
                     coalesce(array_to_string(a[j + 1:n], ' '), '')
                         AS suffix
              FROM cuts)
    SELECT doc_id, cut_i, cut_j, prefix, middle, suffix,
           '<PRE> ' || prefix || ' <SUF> ' || suffix
               || ' <MID> ' || middle AS psm
    FROM parts
"""


def two_hop_reach_hashgraph(sf_dir: str):
    """Per-vertex 2-hop neighborhood size over the undirected hash
    graph (|{w : dist(v,w) <= 2}| minus self) — the local
    reach/influence measure between degree (1-hop) and the HyperBall
    sketch (all hops). One gated self-join expands 2-hop pairs,
    per-batch pair dedup pre-combines, one distinct-pair groupby
    counts."""
    from ray.data.aggregate import Count

    from tldr_ray.stages.joins import auto_join

    und, _ = _hashgraph_degree_tables(sf_dir)
    sym = und.map_batches(
        lambda b: pa.table({
            "s": pa.array(np.concatenate([
                np.asarray(b["a"], dtype=np.int64),
                np.asarray(b["b"], dtype=np.int64)])),
            "t": pa.array(np.concatenate([
                np.asarray(b["b"], dtype=np.int64),
                np.asarray(b["a"], dtype=np.int64)]))}),
        batch_format="pyarrow").materialize()
    mid = sym.map_batches(
        lambda b: pa.table({"t": b["s"], "w": b["t"]}),
        batch_format="pyarrow")
    hop2 = auto_join(sym, mid, on="t")

    def pairs(batch: pa.Table) -> pa.Table:
        v = np.asarray(batch["s"], dtype=np.int64)
        w = np.asarray(batch["w"], dtype=np.int64)
        keep = v != w
        u = np.unique(np.stack([v[keep], w[keep]], axis=1), axis=0)
        return pa.table({"v": pa.array(u[:, 0]),
                         "w": pa.array(u[:, 1])})

    one = sym.map_batches(
        lambda b: pa.table({"v": b["s"], "w": b["t"]}),
        batch_format="pyarrow")
    allp = (one.union(hop2.map_batches(pairs, batch_format="pyarrow"))
            .groupby(["v", "w"]).count()
            .map_batches(lambda b: pa.table({"v": b["v"]}),
                         batch_format="pyarrow")
            .groupby("v").aggregate(Count(alias_name="reach2")))
    return allp.map_batches(lambda b: pa.table({
        "vertex": b["v"].cast(pa.int64()),
        "reach2": b["reach2"].cast(pa.int64())}),
        batch_format="pyarrow")


QUERIES["two_hop_reach_hashgraph"] = two_hop_reach_hashgraph
ORACLE_SQL["two_hop_reach_hashgraph"] = f"""
    WITH {_HASHGRAPH_RAW},
    und AS (SELECT DISTINCT least(s, t) AS a, greatest(s, t) AS b
            FROM raw2),
    sym AS (SELECT a AS s, b AS t FROM und
            UNION ALL SELECT b, a FROM und),
    reach AS (
        SELECT s AS v, t AS w FROM sym
        UNION
        SELECT e1.s, e2.t FROM sym e1 JOIN sym e2 ON e2.s = e1.t
        WHERE e1.s != e2.t)
    SELECT v AS vertex, CAST(count(*) AS BIGINT) AS reach2
    FROM reach GROUP BY v
"""


def value_cdf_export(sf_dir: str):
    """The empirical CDF of event value as an EXPORTABLE lookup table
    (the support structure behind quantile normalization and
    percentile features): one row per distinct cents value with its
    cumulative row count and percentile — exact integers plus one
    division per row. Value-counts plan; the distinct-value frame is
    the output."""
    from ray.data.aggregate import Count

    vc = (_read(sf_dir, "events", ["value"])
          .map_batches(lambda b: pa.table({
              "v": pa.array(_cents(np.asarray(
                  b["value"], dtype=np.float64)))}),
              batch_format="pyarrow")
          .groupby("v").aggregate(Count(alias_name="c"))
          .to_pandas().sort_values("v"))
    v = vc["v"].to_numpy(np.int64)
    c = vc["c"].to_numpy(np.int64)
    cum = np.cumsum(c)
    n = int(cum[-1])
    return pa.table({
        "v_cents": pa.array(v), "n_at": pa.array(c),
        "cum_rows": pa.array(cum),
        "pct": pa.array(cum.astype(np.float64) / np.float64(n))})


QUERIES["value_cdf_export"] = value_cdf_export
ORACLE_SQL["value_cdf_export"] = """
    WITH vc AS (SELECT CAST(floor(value * 100 + 0.5) AS BIGINT) AS v,
                       CAST(count(*) AS BIGINT) AS c
                FROM events GROUP BY 1),
    cum AS (SELECT v, c,
                   CAST(sum(c) OVER (ORDER BY v) AS BIGINT) AS cr
            FROM vc),
    n AS (SELECT max(cr) AS n FROM cum)
    SELECT v AS v_cents, c AS n_at, cr AS cum_rows,
           CAST(cr AS DOUBLE) / CAST(n.n AS DOUBLE) AS pct
    FROM cum, n
"""


def rare_word_ratio_docs(sf_dir: str):
    """Per-document rare-word ratio: the share of word OCCURRENCES
    whose corpus-wide frequency is <= 2 (the novelty/noise signal
    complementing dup_gram_fraction's redundancy signal). One corpus
    word-count exchange; the doc-side decoration is a size-gated
    auto_join on the word key (the rare vocabulary is data-sized —
    never driver-collected); ratio = one division."""
    from ray.data.aggregate import Count, Sum

    from tldr_ray.stages.joins import auto_join

    def docwords(batch: pa.Table) -> pa.Table:
        split = pc.utf8_split_whitespace(batch["text"])
        t = pa.table({
            "doc_id": batch["doc_id"].take(
                pc.list_parent_indices(split)),
            "word": pc.list_flatten(split)})
        return t.filter(pc.not_equal(t["word"], ""))

    dw = (_read(sf_dir, "documents", ["doc_id", "text"])
          .map_batches(docwords, batch_format="pyarrow")
          .groupby(["doc_id", "word"])
          .aggregate(Count(alias_name="c"))
          .materialize())
    wc = (dw.map_batches(
        lambda b: pa.table({"word": b["word"], "c": b["c"]}),
        batch_format="pyarrow")
        .groupby("word").aggregate(Sum("c", alias_name="cf")))
    j = auto_join(dw, wc, on="word")

    def fold(batch: pa.Table) -> pa.Table:
        d = np.asarray(batch["doc_id"], dtype=np.int64)
        c = np.asarray(batch["c"], dtype=np.int64)
        cf = np.asarray(batch["cf"], dtype=np.int64)
        u, inv = np.unique(d, return_inverse=True)
        n = np.zeros(u.size, np.int64)
        r = np.zeros(u.size, np.int64)
        np.add.at(n, inv, c)
        np.add.at(r, inv, np.where(cf <= 2, c, 0))
        return pa.table({"doc_id": pa.array(u), "n_words": pa.array(n),
                         "n_rare": pa.array(r)})

    g = (j.map_batches(fold, batch_format="pyarrow")
         .groupby("doc_id")
         .aggregate(Sum("n_words", alias_name="n_words"),
                    Sum("n_rare", alias_name="n_rare")))
    return g.map_batches(lambda b: pa.table({
        "doc_id": b["doc_id"].cast(pa.int64()),
        "n_words": b["n_words"].cast(pa.int64()),
        "n_rare": b["n_rare"].cast(pa.int64()),
        "rare_ratio": pa.array(
            np.asarray(b["n_rare"], dtype=np.float64)
            / np.asarray(b["n_words"], dtype=np.float64))}),
        batch_format="pyarrow")


QUERIES["rare_word_ratio_docs"] = rare_word_ratio_docs
ORACLE_SQL["rare_word_ratio_docs"] = """
    WITH w AS (SELECT doc_id,
                      unnest(regexp_split_to_array(text, '\\s+'))
                          AS word
               FROM documents),
    ww AS (SELECT doc_id, word FROM w WHERE word != ''),
    wc AS (SELECT word, CAST(count(*) AS BIGINT) AS cf
           FROM ww GROUP BY word),
    d AS (SELECT ww.doc_id,
                 CAST(count(*) AS BIGINT) AS n_words,
                 CAST(count(*) FILTER (wc.cf <= 2) AS BIGINT)
                     AS n_rare
          FROM ww JOIN wc ON wc.word = ww.word
          GROUP BY ww.doc_id)
    SELECT doc_id, n_words, n_rare,
           CAST(n_rare AS DOUBLE) / CAST(n_words AS DOUBLE)
               AS rare_ratio
    FROM d
"""


def triangle_null_model_hashgraph(sf_dir: str):
    """Clustering SIGNIFICANCE of the hash graph: actual global
    triangle count vs the configuration-model expectation
    E[T] = (S2/S1)^3 / 6 with S1 = sum(d), S2 = sum(d(d-1)) — is the
    observed closure structural or just what these degrees produce by
    chance? Exact integer degree moments and triangle total (the
    per-vertex triangle machinery summed / 3); the expectation is a
    fixed three-step float chain mirrored verbatim."""
    from tldr_ray.graph import triangle_counts

    und, deg = _hashgraph_degree_tables(sf_dir)
    dd = deg.map_batches(lambda b: pa.table({
        "one": pa.array(np.ones(b.num_rows, np.int64)),
        "d": b["degree"].cast(pa.int64()),
        "dd1": pa.array(np.asarray(b["degree"], dtype=np.int64)
                        * (np.asarray(b["degree"], dtype=np.int64)
                           - 1))}),
        batch_format="pyarrow")
    from ray.data.aggregate import Sum

    agg = dd.aggregate(Sum("one", alias_name="nv"),
                       Sum("d", alias_name="s1"),
                       Sum("dd1", alias_name="s2"))
    nv, s1, s2 = int(agg["nv"]), int(agg["s1"]), int(agg["s2"])
    tri_total, _ = triangle_counts(_hash_graph_edges(sf_dir))
    tri = int(tri_total)
    ratio = np.float64(s2) / np.float64(s1)
    expected = ratio * ratio * ratio / 6.0
    return pa.table({
        "n_vertices": pa.array([nv], pa.int64()),
        "m_edges": pa.array([s1 // 2], pa.int64()),
        "triangles": pa.array([tri], pa.int64()),
        "s1": pa.array([s1], pa.int64()),
        "s2": pa.array([s2], pa.int64()),
        "expected_triangles": pa.array([expected], pa.float64()),
        "excess": pa.array([np.float64(tri) / expected],
                           pa.float64())})


QUERIES["triangle_null_model_hashgraph"] = triangle_null_model_hashgraph
ORACLE_SQL["triangle_null_model_hashgraph"] = f"""
    WITH {_HASHGRAPH_RAW},
    und AS (SELECT DISTINCT least(s, t) AS a, greatest(s, t) AS b
            FROM raw2),
    verts AS (SELECT a AS v FROM und UNION ALL SELECT b FROM und),
    deg AS (SELECT v, CAST(count(*) AS BIGINT) AS d
            FROM verts GROUP BY v),
    m AS (SELECT CAST(count(*) AS BIGINT) AS nv,
                 CAST(sum(d) AS BIGINT) AS s1,
                 CAST(sum(d * (d - 1)) AS BIGINT) AS s2
          FROM deg),
    tri AS (SELECT CAST(count(*) AS BIGINT) AS t
            FROM und e1
            JOIN und e2 ON e2.a = e1.b
            JOIN und e3 ON e3.a = e1.a AND e3.b = e2.b)
    SELECT m.nv AS n_vertices, m.s1 // 2 AS m_edges,
           tri.t AS triangles, m.s1, m.s2,
           (CAST(m.s2 AS DOUBLE) / CAST(m.s1 AS DOUBLE))
           * (CAST(m.s2 AS DOUBLE) / CAST(m.s1 AS DOUBLE))
           * (CAST(m.s2 AS DOUBLE) / CAST(m.s1 AS DOUBLE)) / 6.0
               AS expected_triangles,
           CAST(tri.t AS DOUBLE)
               / ((CAST(m.s2 AS DOUBLE) / CAST(m.s1 AS DOUBLE))
                  * (CAST(m.s2 AS DOUBLE) / CAST(m.s1 AS DOUBLE))
                  * (CAST(m.s2 AS DOUBLE) / CAST(m.s1 AS DOUBLE))
                  / 6.0) AS excess
    FROM m, tri
"""


def repurchase_cadence(sf_dir: str):
    """Repeat-purchase cadence: the distribution of day gaps between
    a user's consecutive purchases — n repeat buyers, gap count, mean
    (one division) and the EXACT doubled median of the gap multiset.
    Coarse user sweep for the gaps, value-counts rank algebra for the
    median."""
    from ray.data.aggregate import Count

    DAY = np.int64(86_400_000_000)

    def prep(batch: pa.Table) -> pa.Table:
        m = pc.equal(batch["event_type"], "purchase")
        t = batch.filter(m)
        tt = pa.table({
            "u": t["user_id"].cast(pa.int64()),
            "us": t["ts"].cast(pa.int64()),
            "eid": t["event_id"].cast(pa.int64())})
        return tt

    def sweep(grp: pd.DataFrame) -> pd.DataFrame:
        if not len(grp):
            return pd.DataFrame({"gap": [], "n_users": []})
        g = grp.sort_values(["u", "us", "eid"], kind="mergesort")
        u = g["u"].to_numpy(np.int64)
        us = g["us"].to_numpy(np.int64)
        same = np.empty(u.size, dtype=bool)
        same[0], same[1:] = False, u[1:] == u[:-1]
        idx = np.flatnonzero(same)
        gap = (us[idx] - us[idx - 1]) // DAY
        n_rep = int(np.unique(u[idx]).size)
        return pd.DataFrame({
            "gap": gap,
            "n_users": np.r_[np.full(max(gap.size, 1), 0,
                                     np.int64)][:gap.size]
            if gap.size else np.zeros(0, np.int64)}).assign(
                n_users=lambda d: ([n_rep] + [0] * (len(d) - 1))
                if len(d) else [])

    g = (keyed_sweep(_read(sf_dir, "events", ["user_id", "ts", "event_id",
                                              "event_type"])
                     .map_batches(prep, batch_format="pyarrow"),
                     "u", sweep)
         .to_pandas())
    gaps = g["gap"].to_numpy(np.int64)
    n_users = int(g["n_users"].sum())
    vals, cnts = np.unique(gaps, return_counts=True)
    cum = np.cumsum(cnts)
    n = int(cum[-1])
    lo_i = int(np.searchsorted(cum, (n + 1) // 2, side="left"))
    hi_i = int(np.searchsorted(cum, n // 2 + 1, side="left"))
    med2 = int(vals[lo_i]) + int(vals[hi_i])
    s = int(gaps.sum())
    return pa.table({
        "n_repeat_users": pa.array([n_users], pa.int64()),
        "n_gaps": pa.array([n], pa.int64()),
        "sum_gap_days": pa.array([s], pa.int64()),
        "mean_gap_days": pa.array(
            [np.float64(s) / np.float64(n)], pa.float64()),
        "median2_gap_days": pa.array([med2], pa.int64())})


QUERIES["repurchase_cadence"] = repurchase_cadence
ORACLE_SQL["repurchase_cadence"] = """
    WITH p AS (SELECT user_id AS u, epoch_us(ts) AS us, event_id
               FROM events WHERE event_type = 'purchase'),
    l AS (SELECT u,
                 (us - lag(us) OVER (PARTITION BY u
                                     ORDER BY us, event_id))
                     // 86400000000 AS gap
          FROM p),
    gp AS (SELECT u, gap FROM l WHERE gap IS NOT NULL),
    r AS (SELECT gap,
                 row_number() OVER (ORDER BY gap) AS rn,
                 count(*) OVER () AS n
          FROM gp),
    med AS (SELECT CAST(CASE WHEN max(n) % 2 = 1
                             THEN 2 * sum(gap) FILTER (
                                 rn = (n + 1) // 2)
                             ELSE sum(gap) FILTER (
                                 rn IN (n // 2, n // 2 + 1))
                        END AS BIGINT) AS med2
           FROM r)
    SELECT (SELECT CAST(count(DISTINCT u) AS BIGINT) FROM gp)
               AS n_repeat_users,
           (SELECT CAST(count(*) AS BIGINT) FROM gp) AS n_gaps,
           (SELECT CAST(sum(gap) AS BIGINT) FROM gp)
               AS sum_gap_days,
           (SELECT CAST(sum(gap) AS DOUBLE) / CAST(count(*)
                   AS DOUBLE) FROM gp) AS mean_gap_days,
           med.med2 AS median2_gap_days
    FROM med
"""


def video_scene_cuts_demo(sf_dir: str):
    """Video frame-sampling + scene-cut detection over synthetic
    MJPGv1 containers (sf_dir unused by design — payloads are
    deterministic): frames extract in an actor pool (the decode-bound
    stage a real pipeline shards; real codecs stay stubbed behind
    NotImplementedError), per-frame dHash, cuts where the adjacent
    hamming distance jumps. Rows-only by nature; the pytest oracle
    asserts EXACT planted scene-boundary recovery."""
    import ray.data as rd

    from tldr_ray.stages.multimodal import (detect_scene_cuts,
                                            sample_video_frames,
                                            synth_video_table)

    vids = rd.from_arrow(synth_video_table(24))
    frames = sample_video_frames(vids, stride=1)
    return detect_scene_cuts(frames, min_hamming=8)


QUERIES["video_scene_cuts_demo"] = video_scene_cuts_demo


def dp_budget_audit(sf_dir: str):
    """The DP budget LEDGER in action (state/dp_ledger.py): a scripted
    sequence of query releases against an eps=1.0 budget — the fifth
    would overdraw and is refused WITHOUT being recorded — then the
    ledger's audit table. Deterministic end to end, so the oracle is
    a literal VALUES mirror; the refusal semantics are pinned by
    pytest."""
    import hashlib
    import shutil

    from tldr_ray.state.dp_ledger import BudgetExceeded, DPBudgetLedger

    key = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    d = f"/tmp/tldr_ray_dp/{key}"
    shutil.rmtree(d, ignore_errors=True)
    led = DPBudgetLedger(f"{d}/ledger.jsonl", eps_budget=1.0)
    for q_, e in [("type_counts", 0.25), ("hourly_counts", 0.25),
                  ("value_hist", 0.25), ("user_counts", 0.125)]:
        led.spend(q_, e)
    try:
        led.spend("one_too_many", 0.5)
    except BudgetExceeded:
        pass
    return led.audit()


QUERIES["dp_budget_audit"] = dp_budget_audit
ORACLE_SQL["dp_budget_audit"] = """
    SELECT * FROM (VALUES
        (CAST(0 AS BIGINT), 'type_counts', 0.25, 0.25, 0.75),
        (CAST(1 AS BIGINT), 'hourly_counts', 0.25, 0.5, 0.5),
        (CAST(2 AS BIGINT), 'value_hist', 0.25, 0.75, 0.25),
        (CAST(3 AS BIGINT), 'user_counts', 0.125, 0.875, 0.125))
        AS t(seq, query, eps, cum_eps, remaining)
"""


def learned_index_audit_events(sf_dir: str):
    """Learned-index (RMI root) feasibility audit: fit pos = a + b*key
    over the distinct value-cents keys (pos = rows-below, i.e. the
    CDF the index must invert) and report the MAXIMUM absolute
    prediction error — the page-search window a linear learned index
    would need on this key distribution. OLS from exact integer
    moments (two cross-multiplied divisions); the error scan is a
    deterministic per-key float chain and max is order-free."""
    from ray.data.aggregate import Count

    vc = (_read(sf_dir, "events", ["value"])
          .map_batches(lambda b: pa.table({
              "v": pa.array(_cents(np.asarray(
                  b["value"], dtype=np.float64)))}),
              batch_format="pyarrow")
          .groupby("v").aggregate(Count(alias_name="c"))
          .to_pandas().sort_values("v"))
    k = vc["v"].to_numpy(np.int64)
    c = vc["c"].to_numpy(np.int64)
    pos = np.cumsum(c) - c
    n = int(k.size)
    sk = int(k.sum())
    skk = int((k * k).sum())
    sp = int(pos.sum())
    skp = int((k * pos).sum())
    den = n * skk - sk * sk                  # python big ints
    slope = float(n * skp - sk * sp) / float(den)
    intercept = float(sp * skk - sk * skp) / float(den)
    err = np.abs(pos.astype(np.float64)
                 - (intercept + slope * k.astype(np.float64)))
    return pa.table({
        "n_keys": pa.array([n], pa.int64()),
        "slope": pa.array([slope], pa.float64()),
        "intercept": pa.array([intercept], pa.float64()),
        "max_err": pa.array([float(err.max())], pa.float64())})


QUERIES["learned_index_audit_events"] = learned_index_audit_events
ORACLE_SQL["learned_index_audit_events"] = """
    WITH vc AS (SELECT CAST(floor(value * 100 + 0.5) AS BIGINT) AS v,
                       CAST(count(*) AS BIGINT) AS c
                FROM events GROUP BY 1),
    p AS (SELECT v, CAST(sum(c) OVER (ORDER BY v) - c AS BIGINT)
                     AS pos
          FROM vc),
    m AS (SELECT CAST(count(*) AS BIGINT) AS n,
                 CAST(sum(v) AS BIGINT) AS sk,
                 CAST(sum(v * v) AS BIGINT) AS skk,
                 CAST(sum(pos) AS BIGINT) AS sp,
                 CAST(sum(v * pos) AS BIGINT) AS skp
          FROM p),
    fit AS (SELECT n,
                   CAST(CAST(n AS HUGEINT) * skp
                        - CAST(sk AS HUGEINT) * sp AS DOUBLE)
                       / CAST(CAST(n AS HUGEINT) * skk
                              - CAST(sk AS HUGEINT) * sk AS DOUBLE)
                       AS slope,
                   CAST(CAST(sp AS HUGEINT) * skk
                        - CAST(sk AS HUGEINT) * skp AS DOUBLE)
                       / CAST(CAST(n AS HUGEINT) * skk
                              - CAST(sk AS HUGEINT) * sk AS DOUBLE)
                       AS intercept
            FROM m)
    SELECT fit.n AS n_keys, fit.slope, fit.intercept,
           max(abs(CAST(p.pos AS DOUBLE)
                   - (fit.intercept
                      + fit.slope * CAST(p.v AS DOUBLE))))
               AS max_err
    FROM p, fit GROUP BY fit.n, fit.slope, fit.intercept
"""


def log2_histogram_value(sf_dir: str):
    """HDR-style LOG2-bucketed histogram of value cents — constant
    relative error across five orders of magnitude where equi-width
    bins waste resolution: bucket = bit_length(v) computed as the
    EXACT integer sum of threshold comparisons (no libm log2, whose
    rounding is not guaranteed), with the [2^(b-1), 2^b) bounds
    emitted per row. Pre-combined per-batch histogram partials."""
    from ray.data.aggregate import Sum

    BITS = 17                            # cents <= 49_002 < 2^16

    def partial(batch: pa.Table) -> pa.Table:
        v = _cents(np.asarray(batch["value"], dtype=np.float64))
        b = np.zeros(v.size, np.int64)
        for k in range(BITS):
            b += v >= (1 << k)           # = bit_length(v)
        u, cnt = np.unique(b, return_counts=True)
        return pa.table({"bucket": pa.array(u),
                         "c": pa.array(cnt.astype(np.int64))})

    g = (_read(sf_dir, "events", ["value"])
         .map_batches(partial, batch_format="pyarrow")
         .groupby("bucket").aggregate(Sum("c", alias_name="n")))
    return g.map_batches(lambda b: pa.table({
        "bucket": b["bucket"].cast(pa.int64()),
        "lo_cents": pa.array(np.where(
            np.asarray(b["bucket"], dtype=np.int64) <= 1, 0,
            1 << np.maximum(
                np.asarray(b["bucket"], dtype=np.int64) - 1, 0))
            .astype(np.int64)),
        "hi_cents": pa.array(
            ((1 << np.asarray(b["bucket"], dtype=np.int64)) - 1)
            .astype(np.int64)),
        "n": b["n"].cast(pa.int64())}),
        batch_format="pyarrow")


def _log2_hist_oracle_sql(bits: int = 17) -> str:
    ladder = " + ".join(
        f"CASE WHEN v >= {1 << k} THEN 1 ELSE 0 END"
        for k in range(bits))
    return f"""
    WITH e AS (SELECT CAST(floor(value * 100 + 0.5) AS BIGINT) AS v
               FROM events),
    b AS (SELECT CAST({ladder} AS BIGINT) AS bucket FROM e)
    SELECT bucket,
           CAST(CASE WHEN bucket <= 1 THEN 0
                     ELSE 1 << (bucket - 1) END AS BIGINT)
               AS lo_cents,
           CAST((1 << bucket) - 1 AS BIGINT) AS hi_cents,
           CAST(count(*) AS BIGINT) AS n
    FROM b GROUP BY bucket
"""


QUERIES["log2_histogram_value"] = log2_histogram_value
ORACLE_SQL["log2_histogram_value"] = _log2_hist_oracle_sql()


def user_feature_export(sf_dir: str):
    """Feature-store EXPORT: one wide row per user of the exact-int
    activity features a churn model trains on — event count, total
    cents, distinct active days, first/last day, and the LONGEST gap
    between consecutive active days. One (user, day) distinct
    exchange + one coarse user sweep (vectorized segment max of day
    diffs); every value is exact integer, mirrored by two window
    passes in SQL."""
    from ray.data.aggregate import Count, Sum

    DAY = np.int64(86_400_000_000)

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "u": batch["user_id"].cast(pa.int64()),
            "day": pa.array(np.asarray(batch["ts"].cast(pa.int64()),
                                       dtype=np.int64) // DAY),
            "cents": pa.array(_cents(np.asarray(
                batch["value"], dtype=np.float64)))})

    rows = (_read(sf_dir, "events", ["user_id", "ts", "value"])
            .map_batches(prep, batch_format="pyarrow").materialize())
    base = (rows.groupby("u")
            .aggregate(Count(alias_name="n_events"),
                       Sum("cents", alias_name="total_cents")))
    ud = (rows.groupby(["u", "day"]).count()
          .map_batches(lambda b: pa.table({
              "u": b["u"].cast(pa.int64()),
              "day": b["day"].cast(pa.int64())}),
              batch_format="pyarrow"))

    def sweep(grp: pd.DataFrame) -> pd.DataFrame:
        if not len(grp):
            return pd.DataFrame({"u": [], "n_active_days": [],
                                 "first_day": [], "last_day": [],
                                 "max_gap_days": []})
        g = grp.sort_values(["u", "day"], kind="mergesort")
        u = g["u"].to_numpy(np.int64)
        d = g["day"].to_numpy(np.int64)
        new = np.empty(u.size, dtype=bool)
        new[0], new[1:] = True, u[1:] != u[:-1]
        seg = np.cumsum(new) - 1
        uu = u[new]
        nd = np.bincount(seg).astype(np.int64)
        first = d[new]
        last = np.zeros(uu.size, np.int64)
        np.maximum.at(last, seg, d)
        gap = np.zeros(u.size, np.int64)
        gap[1:] = np.where(~new[1:], d[1:] - d[:-1], 0)
        mg = np.zeros(uu.size, np.int64)
        np.maximum.at(mg, seg, gap)
        return pd.DataFrame({"u": uu, "n_active_days": nd,
                             "first_day": first, "last_day": last,
                             "max_gap_days": mg})

    days = keyed_sweep(ud, "u", sweep)
    from tldr_ray.stages.joins import auto_join

    j = auto_join(base, days.map_batches(
        lambda b: pa.table({c: (b[c].cast(pa.int64()))
                            for c in b.column_names}),
        batch_format="pyarrow"), on="u")
    return j.map_batches(lambda b: pa.table({
        "user_id": b["u"].cast(pa.int64()),
        "n_events": b["n_events"].cast(pa.int64()),
        "total_cents": b["total_cents"].cast(pa.int64()),
        "n_active_days": b["n_active_days"].cast(pa.int64()),
        "first_day": b["first_day"].cast(pa.int64()),
        "last_day": b["last_day"].cast(pa.int64()),
        "max_gap_days": b["max_gap_days"].cast(pa.int64())}),
        batch_format="pyarrow")


QUERIES["user_feature_export"] = user_feature_export
ORACLE_SQL["user_feature_export"] = """
    WITH e AS (SELECT user_id AS u,
                      epoch_us(ts) // 86400000000 AS day,
                      CAST(floor(value * 100 + 0.5) AS BIGINT)
                          AS cents
               FROM events),
    base AS (SELECT u, CAST(count(*) AS BIGINT) AS n_events,
                    CAST(sum(cents) AS BIGINT) AS total_cents
             FROM e GROUP BY u),
    ud AS (SELECT DISTINCT u, day FROM e),
    l AS (SELECT u, day,
                 day - lag(day) OVER (PARTITION BY u ORDER BY day)
                     AS gap
          FROM ud),
    d AS (SELECT u, CAST(count(*) AS BIGINT) AS n_active_days,
                 CAST(min(day) AS BIGINT) AS first_day,
                 CAST(max(day) AS BIGINT) AS last_day,
                 CAST(coalesce(max(gap), 0) AS BIGINT)
                     AS max_gap_days
          FROM l GROUP BY u)
    SELECT base.u AS user_id, base.n_events, base.total_cents,
           d.n_active_days, d.first_day, d.last_day, d.max_gap_days
    FROM base JOIN d ON d.u = base.u
"""


def peak_concurrency_5m(sf_dir: str):
    """PEAK CONCURRENCY: the maximum number of simultaneously-open
    5-minute activity windows (every event opens [ts, ts+5m)) and
    the FIRST second attaining it — the capacity-planning scalar on
    top of user_covered_time_5m's per-user coverage. Endpoint deltas
    aggregate per SECOND (the frame is bounded by the time span, not
    the row count), then one dimension-sized prefix scan; all exact
    integers."""
    from ray.data.aggregate import Sum

    SEC = np.int64(1_000_000)
    W = np.int64(300)

    def deltas(batch: pa.Table) -> pa.Table:
        s = np.asarray(batch["ts"].cast(pa.int64()),
                       dtype=np.int64) // SEC
        sec = np.concatenate([s, s + W])
        d = np.concatenate([np.ones(s.size, np.int64),
                            np.full(s.size, -1, np.int64)])
        u, inv = np.unique(sec, return_inverse=True)
        dd = np.zeros(u.size, np.int64)
        np.add.at(dd, inv, d)
        return pa.table({"sec": pa.array(u), "d": pa.array(dd)})

    vc = (_read(sf_dir, "events", ["ts"])
          .map_batches(deltas, batch_format="pyarrow")
          .groupby("sec").aggregate(Sum("d", alias_name="d"))
          .to_pandas().sort_values("sec"))
    sec = vc["sec"].to_numpy(np.int64)
    run = np.cumsum(vc["d"].to_numpy(np.int64))
    peak = int(run.max())
    at = int(sec[int(np.argmax(run))])   # first second attaining peak
    return pa.table({
        "peak_concurrent": pa.array([peak], pa.int64()),
        "at_second": pa.array([at], pa.int64())})


QUERIES["peak_concurrency_5m"] = peak_concurrency_5m
ORACLE_SQL["peak_concurrency_5m"] = """
    WITH e AS (SELECT epoch_us(ts) // 1000000 AS s FROM events),
    pts AS (SELECT s AS sec, 1 AS d FROM e
            UNION ALL SELECT s + 300, -1 FROM e),
    g AS (SELECT sec, CAST(sum(d) AS BIGINT) AS d
          FROM pts GROUP BY sec),
    r AS (SELECT sec,
                 CAST(sum(d) OVER (ORDER BY sec) AS BIGINT) AS run
          FROM g),
    best AS (SELECT sec, run FROM r
             ORDER BY run DESC, sec ASC LIMIT 1)
    SELECT run AS peak_concurrent, sec AS at_second FROM best
"""


def minute_uniformity_audit(sf_dir: str):
    """Clock-skew / batching-artifact audit: are events uniform over
    the minute-of-hour? 60 cells with exact deviation d = o*60 - n
    and the chi-square contribution d^2 / (60 * n * 60)... computed
    as the single fused chain d*d / (n*60) per cell (expected =
    n/60) — a spike at second-0 minutes reveals batched backfills.
    One groupby; the chi2-cells contract (reader sums contribs)."""
    from ray.data.aggregate import Count

    MIN_ = np.int64(60_000_000)

    g = (_read(sf_dir, "events", ["ts"])
         .map_batches(lambda b: pa.table({
             "moh": pa.array((np.asarray(b["ts"].cast(pa.int64()),
                                         dtype=np.int64) // MIN_)
                             % 60)}),
             batch_format="pyarrow")
         .groupby("moh").aggregate(Count(alias_name="o"))
         .to_pandas().sort_values("moh"))
    o = np.zeros(60, np.int64)
    o[g["moh"].to_numpy(np.int64)] = g["o"].to_numpy(np.int64)
    n = int(o.sum())
    d = o * 60 - n
    contrib = (d.astype(np.float64) * d.astype(np.float64)
               / (np.float64(n) * 60.0 * 60.0))
    return pa.table({
        "minute_of_hour": pa.array(np.arange(60, dtype=np.int64)),
        "o": pa.array(o),
        "d": pa.array(d),
        "contrib": pa.array(contrib)})


QUERIES["minute_uniformity_audit"] = minute_uniformity_audit
ORACLE_SQL["minute_uniformity_audit"] = """
    WITH e AS (SELECT (epoch_us(ts) // 60000000) % 60 AS moh
               FROM events),
    g AS (SELECT moh, CAST(count(*) AS BIGINT) AS o
          FROM e GROUP BY moh),
    grid AS (SELECT m.moh, coalesce(g.o, 0) AS o
             FROM (SELECT unnest(range(0, 60)) AS moh) m
             LEFT JOIN g ON g.moh = m.moh),
    n AS (SELECT CAST(sum(o) AS BIGINT) AS n FROM grid)
    SELECT CAST(grid.moh AS BIGINT) AS minute_of_hour,
           CAST(o AS BIGINT) AS o,
           CAST(o * 60 - n.n AS BIGINT) AS d,
           (CAST(o * 60 - n.n AS DOUBLE)
            * CAST(o * 60 - n.n AS DOUBLE))
               / (CAST(n.n AS DOUBLE) * 60.0 * 60.0) AS contrib
    FROM grid, n
"""


def activity_calendar_grid(sf_dir: str):
    """Calendar-heatmap EXPORT: the (iso-week-index, weekday) grid of
    event count and exact cents total — the dashboard-feeding rollup
    (Monday=0 weekday convention shared with the weekend ops; week
    index = days since epoch // 7 so the key is pure integer
    arithmetic). One groupby, partials pre-combined per batch."""
    from ray.data.aggregate import Count, Sum

    DAY = np.int64(86_400_000_000)

    def prep(batch: pa.Table) -> pa.Table:
        d = np.asarray(batch["ts"].cast(pa.int64()),
                       dtype=np.int64) // DAY
        return pa.table({
            "week": pa.array((d + 3) // 7),
            "dow": pa.array((d + 3) % 7),
            "cents": pa.array(_cents(np.asarray(
                batch["value"], dtype=np.float64)))})

    return (_read(sf_dir, "events", ["ts", "value"])
            .map_batches(prep, batch_format="pyarrow")
            .groupby(["week", "dow"])
            .aggregate(Count(alias_name="n"),
                       Sum("cents", alias_name="total_cents")))


QUERIES["activity_calendar_grid"] = activity_calendar_grid
ORACLE_SQL["activity_calendar_grid"] = """
    SELECT (epoch_us(ts) // 86400000000 + 3) // 7 AS week,
           (epoch_us(ts) // 86400000000 + 3) % 7 AS dow,
           CAST(count(*) AS BIGINT) AS n,
           CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT))
                AS BIGINT) AS total_cents
    FROM events GROUP BY 1, 2
"""


def pvm_decomposition_by_type(sf_dir: str):
    """Price-volume-mix decomposition of the half-over-half value
    change per event type (the finance bridge chart): volume effect
    = (n2-n1) * avg1 and price effect = s2 - n2*avg1, with avg1 =
    s1/n1 entering each as ONE deterministic division — the two
    effects sum exactly to delta = s2 - s1 (an integer identity the
    reader can check row by row). One pass builds both halves'
    (n, s) from exact cents."""
    from ray.data.aggregate import Sum

    DAY = np.int64(86_400_000_000)

    rows = (_read(sf_dir, "events", ["ts", "event_type", "value"])
            .map_batches(lambda b: pa.table({
                "event_type": b["event_type"],
                "day": pa.array(np.asarray(b["ts"].cast(pa.int64()),
                                           dtype=np.int64) // DAY),
                "cents": pa.array(_cents(np.asarray(
                    b["value"], dtype=np.float64)))}),
                batch_format="pyarrow").materialize())
    lo = int(rows.min("day"))
    hi = int(rows.max("day"))
    mid = lo + (hi - lo + 1) // 2

    def halves(batch: pa.Table) -> pa.Table:
        d = np.asarray(batch["day"], dtype=np.int64)
        c = np.asarray(batch["cents"], dtype=np.int64)
        h1 = d < mid
        return pa.table({
            "event_type": batch["event_type"],
            "n1": pa.array(h1.astype(np.int64)),
            "s1": pa.array(np.where(h1, c, 0)),
            "n2": pa.array((~h1).astype(np.int64)),
            "s2": pa.array(np.where(~h1, c, 0))})

    g = (rows.map_batches(halves, batch_format="pyarrow")
         .groupby("event_type")
         .aggregate(*[Sum(c, alias_name=c)
                      for c in ("n1", "s1", "n2", "s2")])
         .to_pandas().sort_values("event_type"))
    n1 = g["n1"].to_numpy(np.int64)
    s1 = g["s1"].to_numpy(np.int64)
    n2 = g["n2"].to_numpy(np.int64)
    s2 = g["s2"].to_numpy(np.int64)
    vol = (n2 - n1).astype(np.float64) * s1.astype(np.float64) \
        / n1.astype(np.float64)
    price = s2.astype(np.float64) \
        - (n2 * s1).astype(np.float64) / n1.astype(np.float64)
    return pa.table({
        "event_type": pa.array(g["event_type"].to_numpy(object),
                               pa.string()),
        "n1": pa.array(n1), "s1": pa.array(s1),
        "n2": pa.array(n2), "s2": pa.array(s2),
        "delta_cents": pa.array(s2 - s1),
        "volume_effect": pa.array(vol),
        "price_effect": pa.array(price)})


QUERIES["pvm_decomposition_by_type"] = pvm_decomposition_by_type
ORACLE_SQL["pvm_decomposition_by_type"] = """
    WITH e AS (SELECT event_type,
                      epoch_us(ts) // 86400000000 AS day,
                      CAST(floor(value * 100 + 0.5) AS BIGINT) AS c
               FROM events),
    b AS (SELECT min(day) + (max(day) - min(day) + 1) // 2 AS mid
          FROM e),
    g AS (SELECT event_type,
                 CAST(count(*) FILTER (day < mid) AS BIGINT) AS n1,
                 CAST(sum(CASE WHEN day < mid THEN c ELSE 0 END)
                      AS BIGINT) AS s1,
                 CAST(count(*) FILTER (day >= mid) AS BIGINT) AS n2,
                 CAST(sum(CASE WHEN day >= mid THEN c ELSE 0 END)
                      AS BIGINT) AS s2
          FROM e, b GROUP BY event_type)
    SELECT event_type, n1, s1, n2, s2,
           s2 - s1 AS delta_cents,
           CAST(n2 - n1 AS DOUBLE) * CAST(s1 AS DOUBLE)
               / CAST(n1 AS DOUBLE) AS volume_effect,
           CAST(s2 AS DOUBLE)
               - CAST(n2 * s1 AS DOUBLE) / CAST(n1 AS DOUBLE)
               AS price_effect
    FROM g ORDER BY event_type
"""


def rising_streak_daily(sf_dir: str):
    """Longest STRICTLY-RISING run of daily value totals (and where
    it starts/ends) — the momentum readout on the gaps-and-islands
    machinery: dense day grid, rise flags, island segmentation, max
    length with (length desc, start asc) tie-break. Exact integers
    end to end."""
    from ray.data.aggregate import Sum

    DAY = np.int64(86_400_000_000)

    g = (_read(sf_dir, "events", ["ts", "value"])
         .map_batches(lambda b: pa.table({
             "day": pa.array(np.asarray(b["ts"].cast(pa.int64()),
                                        dtype=np.int64) // DAY),
             "cents": pa.array(_cents(np.asarray(
                 b["value"], dtype=np.float64)))}),
             batch_format="pyarrow")
         .groupby("day").aggregate(Sum("cents", alias_name="t"))
         .to_pandas().sort_values("day"))
    days = g["day"].to_numpy(np.int64)
    lo, hi = int(days.min()), int(days.max())
    dense = np.zeros(hi - lo + 1, np.int64)
    dense[days - lo] = g["t"].to_numpy(np.int64)
    best_len, best_start, cur = 1, 0, 0
    for i in range(1, dense.size):       # dimension-sized driver fold
        if dense[i] > dense[i - 1]:
            if i - cur + 1 > best_len:
                best_len, best_start = i - cur + 1, cur
        else:
            cur = i
    return pa.table({
        "streak_days": pa.array([best_len], pa.int64()),
        "start_day": pa.array([best_start + lo], pa.int64()),
        "end_day": pa.array([best_start + best_len - 1 + lo],
                            pa.int64())})


QUERIES["rising_streak_daily"] = rising_streak_daily
ORACLE_SQL["rising_streak_daily"] = """
    WITH d AS (SELECT epoch_us(ts) // 86400000000 AS day,
                      CAST(sum(CAST(floor(value * 100 + 0.5)
                                    AS BIGINT)) AS BIGINT) AS t
               FROM events GROUP BY 1),
    bounds AS (SELECT min(day) AS lo, max(day) AS hi FROM d),
    grid AS (SELECT g.day, coalesce(d.t, 0) AS t
             FROM (SELECT unnest(range(lo, hi + 1)) AS day
                   FROM bounds) g
             LEFT JOIN d ON d.day = g.day),
    f AS (SELECT day, t,
                 CASE WHEN t > lag(t) OVER (ORDER BY day)
                      THEN 0 ELSE 1 END AS brk
          FROM grid),
    isl AS (SELECT day,
                   sum(brk) OVER (ORDER BY day
                                  ROWS UNBOUNDED PRECEDING)
                       AS island
            FROM f),
    runs AS (SELECT island,
                    CAST(count(*) AS BIGINT) AS len,
                    CAST(min(day) AS BIGINT) AS start_day,
                    CAST(max(day) AS BIGINT) AS end_day
             FROM isl GROUP BY island)
    SELECT len AS streak_days, start_day, end_day
    FROM runs ORDER BY len DESC, start_day LIMIT 1
"""
