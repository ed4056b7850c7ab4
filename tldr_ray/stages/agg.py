"""Distributed aggregation extensions: per-group exact quantiles and
deterministic bottom-k hash sampling.

Both follow the repo's coarse-partition sweep discipline (CLAUDE.md):
shuffle on hash(key) % num_parts, then each partition task sorts once
and walks key segments vectorized — one all-to-all on a small int key,
no per-group task invocations.

Quantiles are DISCRETE (an actual element of the group, DuckDB
``quantile_disc`` semantics: 1-based index max(ceil(q*n), 1)), so the
result is hash-stable — no float interpolation whose rounding could
diverge between engines.

``bottomk_sample`` is the 100-TB sampling shape: the k keys with the
smallest splitmix64(fnv1a(key)) hashes. Deterministic (same keys in =
same sample out, independent of partitioning), mergeable (bottom-k of a
union = bottom-k of concatenated bottom-ks), and a funnel rather than a
shuffle: each block forwards at most k rows. The k-th smallest hash
also yields an unbiased distinct-count estimate ((k-1) * 2^64 / h_k) —
the KMV sketch for free. Fetch payloads for sampled keys with the
bucketed semi-join machinery (stages.joins), not by widening this pass.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from tldr_ray.hashing import keyed_sweep


def _disc_indices(q: float, counts: np.ndarray) -> np.ndarray:
    """0-based within-group index of the discrete q-quantile for each
    group size in ``counts`` (DuckDB quantile_disc: 1-based
    max(ceil(q*n), 1), same double arithmetic)."""
    idx = np.ceil(np.float64(q) * counts).astype(np.int64)
    return np.maximum(idx, 1) - 1


def grouped_quantiles(ds, key: str, value: str, qs=(0.5, 0.9, 0.99),
                      num_parts: int = 64):
    """Dataset of one row per key: (key, p<Q> ... one column per
    quantile). Each partition task lexsorts its rows by (key, value)
    once and gathers every quantile for every key segment with pure
    index arithmetic — no per-group invocations, no Python loop over
    groups."""
    cols = {float(q): f"p{q * 100:g}".replace(".", "_") for q in qs}

    def sweep(group: pd.DataFrame) -> pd.DataFrame:
        if not len(group):
            return pd.DataFrame(
                {key: [], **{name: [] for name in cols.values()}})
        g = group.sort_values([key, value], kind="mergesort")
        keys = g[key].to_numpy()
        vals = g[value].to_numpy()
        new = np.empty(keys.size, dtype=bool)
        new[0], new[1:] = True, keys[1:] != keys[:-1]
        starts = np.flatnonzero(new)
        counts = np.diff(np.append(starts, keys.size))
        out = {key: keys[starts]}
        for q, name in cols.items():
            out[name] = vals[starts + _disc_indices(q, counts)]
        return pd.DataFrame(out)

    return keyed_sweep(ds.select_columns([key, value]),
                       key, sweep, num_parts)


def bottomk_sample(ds, key: str, k: int = 100):
    """Dataset of the k distinct keys with the smallest
    splitmix64(fnv1a(str(key))) hashes: (key, key_hash int64 — the
    hash two's-complement-reinterpreted, ordering is by the UNSIGNED
    value). Per-block partial bottom-k -> combine -> one coalesce
    partition; at most k rows leave any task."""
    from tldr_ray.hashing import fnv1a_batch
    from tldr_ray.stages.dedup import _mix64

    def partial(batch: pa.Table) -> pa.Table:
        kcol = batch[key]
        if not (pa.types.is_string(kcol.type)
                or pa.types.is_large_string(kcol.type)):
            kcol = pc.cast(kcol, pa.string())
        h = _mix64(fnv1a_batch(kcol))           # hash of the STRING form
        keys = np.asarray(batch[key].to_pandas())  # original dtype out
        # distinct keys first (duplicates share a hash and would
        # crowd the sample), then the k smallest by unsigned hash
        uk, ui = np.unique(keys, return_index=True)
        uh = h[ui]
        take = np.argsort(uh, kind="stable")[:k]
        return pa.table({key: pa.array(uk[take]),
                         "key_hash": pa.array(uh[take].view(np.int64))})

    def combine(batch: pd.DataFrame) -> pd.DataFrame:
        h = batch["key_hash"].to_numpy(np.int64).view(np.uint64)
        keys = batch[key].to_numpy()
        uk, ui = np.unique(keys, return_index=True)
        uh = h[ui]
        take = np.argsort(uh, kind="stable")[:k]
        return pd.DataFrame({key: uk[take],
                             "key_hash": uh[take].view(np.int64)})

    return (
        ds.select_columns([key])
        .map_batches(partial, batch_format="pyarrow")
        .map_batches(combine, batch_format="pandas", batch_size=32768)
        .repartition(1)
        .map_batches(combine, batch_format="pandas", batch_size=None)
    )


def pivot_table(ds, key_col: str, pivot_col: str,
                value_col: str | None = None,
                max_pivot_values: int = 1000,
                domain: list | None = None):
    """Wide pivot: one row per key, a count column ``n_<v>`` per pivot
    value v (plus ``cents_<v>`` integer sums of value_col*100 when
    given). The 100-TB pivot shape: a tiny distinct pass discovers the
    column domain (guarded by ``max_pivot_values`` — a pivot is only
    meaningful when the domain is small), then each batch folds its
    rows into ONE wide partial row per key (np.add.at into a
    keys x domain matrix) so the single ``groupby(key)`` shuffle moves
    O(keys x domain) cells per block, never O(rows). Money sums are
    floor(x*100+0.5) cents — integer, association-free, hash-stable
    (repo invariant)."""
    from ray.data.aggregate import Sum

    # the discovery pass is a full (projected) scan — one extra
    # dataset execution (~the fixed per-execution floor on one box);
    # pass ``domain`` when the column's values are known to skip it.
    # Values outside a caller-supplied domain raise (silent clipping
    # would corrupt counts).
    if domain is None:
        domain = sorted(ds.select_columns([pivot_col])
                        .unique(pivot_col) or [])
    else:
        domain = sorted(domain)
    if not domain:
        # empty input/domain: no value columns exist — emit the empty
        # key-only frame rather than crash
        return ds.select_columns([key_col]).limit(0)
    if len(domain) > max_pivot_values:
        raise ValueError(
            f"pivot domain {len(domain)} exceeds max_pivot_values="
            f"{max_pivot_values}; pivot needs a small column domain")
    dom_arr = np.asarray(domain, dtype=object)
    ncols = [f"n_{v}" for v in domain]
    ccols = [f"cents_{v}" for v in domain] if value_col else []

    dom_set = pa.array([str(v) for v in domain], pa.string())

    def partial(batch: pa.Table) -> pa.Table:
        pv = batch[pivot_col]
        if not (pa.types.is_string(pv.type)
                or pa.types.is_large_string(pv.type)):
            pv = pc.cast(pv, pa.string())
        # Arrow hash lookup — no per-row Python string compares
        idx = pc.index_in(pv, value_set=dom_set)
        if idx.null_count:
            raise ValueError(
                f"{pivot_col} contains values outside the supplied "
                f"pivot domain")
        code = np.asarray(idx)
        keys, kidx = np.unique(np.asarray(batch[key_col]),
                               return_inverse=True)
        D = len(dom_arr)
        cnt = np.zeros((len(keys), D), dtype=np.int64)
        np.add.at(cnt, (kidx, code), 1)
        out = {key_col: pa.array(keys)}
        for j, c in enumerate(ncols):
            out[c] = pa.array(cnt[:, j])
        if value_col:
            cents = np.floor(
                np.asarray(batch[value_col], dtype=np.float64) * 100.0
                + 0.5).astype(np.int64)
            s = np.zeros((len(keys), D), dtype=np.int64)
            np.add.at(s, (kidx, code), cents)
            for j, c in enumerate(ccols):
                out[c] = pa.array(s[:, j])
        return pa.table(out)

    return (
        ds.select_columns(
            [key_col, pivot_col] + ([value_col] if value_col else []))
        .map_batches(partial, batch_format="pyarrow")
        .groupby(key_col)
        .aggregate(*[Sum(c, alias_name=c) for c in ncols + ccols])
    )


def rollup_aggregate(ds, keys: list[str], value_col: str | None = None,
                     all_token: str = "ALL"):
    """ROLLUP in one pass: counts (and integer cents sums of
    ``value_col``) at every key-prefix level — (), (k1), (k1,k2), ... —
    with rolled-up columns holding ``all_token``. Each batch emits one
    partial row per distinct combo per level (len(keys)+1 tiny
    pre-aggregated frames), then a single ``groupby(keys)`` shuffle
    finishes — never a second pass over the data, never O(rows) moving.
    Keys are stringified so the sentinel is type-safe; money is
    floor(x*100+0.5) cents (hash-stable, association-free)."""
    from ray.data.aggregate import Sum

    aggs = ["n"] + (["cents"] if value_col else [])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[keys].astype(str).copy()
        b["n"] = np.int64(1)
        if value_col:
            b["cents"] = np.floor(
                batch[value_col].to_numpy(np.float64) * 100.0
                + 0.5).astype(np.int64)
        frames = []
        for lvl in range(len(keys) + 1):
            if lvl == 0:
                row = {k: [all_token] for k in keys}
                row["n"] = [np.int64(len(b))]
                if value_col:
                    row["cents"] = [b["cents"].sum()]
                frames.append(pd.DataFrame(row))
                continue
            g = b.groupby(keys[:lvl], sort=False)[aggs].sum() \
                 .reset_index()
            for k in keys[lvl:]:
                g[k] = all_token
            frames.append(g[keys + aggs])
        return pd.concat(frames, ignore_index=True)

    cols = keys + ([value_col] if value_col else [])
    return (
        ds.select_columns(cols)
        .map_batches(partial, batch_format="pandas")
        .groupby(keys)
        .aggregate(*[Sum(a, alias_name=a) for a in aggs])
    )


def unpivot(ds, id_cols: list[str], value_cols: list[str],
            name_col: str = "name", value_col: str = "value"):
    """Wide -> long (melt): each input row becomes len(value_cols)
    rows (*id_cols, name, value). Stateless vectorized row expansion
    (repeat/tile + one interleaving stack) — embarrassingly parallel,
    zero shuffle; value columns must share a castable dtype."""

    k = len(value_cols)

    def fn(batch: pa.Table) -> pa.Table:
        n = len(batch)
        out = {}
        for c in id_cols:
            out[c] = pa.array(np.repeat(np.asarray(batch[c]), k))
        out[name_col] = pa.array(
            np.tile(np.asarray(value_cols, dtype=object), n))
        mat = np.stack([np.asarray(batch[c]) for c in value_cols],
                       axis=1)
        out[value_col] = pa.array(mat.reshape(-1))
        return pa.table(out)

    return ds.select_columns(id_cols + value_cols).map_batches(
        fn, batch_format="pyarrow")


def salted_group_sum(ds, key: str, int_cols: list[str],
                     salt_buckets: int = 16, salt_col: str | None = None):
    """Skew-resilient integer group-sum: phase 1 groups on
    (key, salt) so a hot key's rows spread over ``salt_buckets``
    reducers, phase 2 collapses the ≤ buckets partials per key.

    When to use: a per-batch map-side combiner (the repo default —
    see `pivot_table`, `word_frequency`) already collapses hot keys to
    one row per block and beats salting; reach for salting when the
    combiner can't run (rows arrive pre-reduced per (key, subkey), or
    the aggregate state is too wide to materialize per batch) and one
    key dominates the shuffle. ``salt_col`` picks the spreading hash
    input (defaults to a per-batch row index — uniform but
    non-deterministic across layouts; pass a stable column for
    reproducible partials; the FINAL sums are identical either way —
    integer addition is associative)."""
    from ray.data.aggregate import Sum

    from tldr_ray.hashing import vhash

    def salt(batch: pa.Table) -> pa.Table:
        if salt_col is not None:
            s = (vhash(np.asarray(batch[salt_col]).astype(np.int64))
                 % np.uint64(salt_buckets)).astype(np.int32)
        else:
            s = (np.arange(len(batch)) % salt_buckets).astype(np.int32)
        return batch.append_column("__salt", pa.array(s))

    phase1 = (
        ds.select_columns([key] + int_cols
                          + ([salt_col] if salt_col
                             and salt_col not in int_cols
                             and salt_col != key else []))
        .map_batches(salt, batch_format="pyarrow")
        .groupby([key, "__salt"])
        .aggregate(*[Sum(c, alias_name=c) for c in int_cols])
    )
    return (phase1.groupby(key)
            .aggregate(*[Sum(c, alias_name=c) for c in int_cols]))


def grouped_mode(ds, key: str, col: str, num_parts: int = 64):
    """Most frequent ``col`` value per ``key`` (argmax with
    deterministic count-desc, value-asc tiebreak): per-batch partial
    (key, value, n) counts -> one groupby sum -> coarse per-key sweep
    picks rank 1 by lexsort + segment arithmetic. Output
    (key, mode_value, n). Moving data is O(distinct pairs), never
    O(rows)."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch[key])
        v = np.asarray(batch[col])
        uk, ki = np.unique(k, return_inverse=True)
        uv, vi = np.unique(v, return_inverse=True)
        code = ki.astype(np.int64) * len(uv) + vi
        uc, cnt = np.unique(code, return_counts=True)
        return pa.table({key: pa.array(uk[uc // len(uv)]),
                         col: pa.array(uv[uc % len(uv)]),
                         "n": pa.array(cnt.astype(np.int64))})

    def sweep(group: pd.DataFrame) -> pd.DataFrame:
        k = group[key].to_numpy()
        v = group[col].to_numpy()
        n = group["n"].to_numpy(np.int64)
        order = np.lexsort((v, -n, k))
        k, v, n = k[order], v[order], n[order]
        first = np.empty(len(k), dtype=bool)
        if len(k):
            first[0], first[1:] = True, k[1:] != k[:-1]
        return pd.DataFrame({key: k[first], "mode_value": v[first],
                             "n": n[first]})

    return keyed_sweep(
        ds.select_columns([key, col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby([key, col]).aggregate(Sum("n", alias_name="n")),
        key, sweep, num_parts)


def iqr_outliers(ds, key: str, value: str, factor: float = 1.5,
                 num_parts: int = 64):
    """Per-group IQR outlier filter: rows with value strictly above
    p75 + factor*(p75 - p25) of their group (Tukey fence, discrete
    quantiles so the threshold is exact data elements — the whole
    predicate is pure IEEE arithmetic, SQL-hash-stable).

    The per-group threshold table is O(groups) — computed by the
    grouped-quantile sweep, broadcast once via ``ray.put`` and probed
    with a vectorized searchsorted per batch. Assumes the group count
    fits comfortably in memory (categorical keys); for key spaces
    that don't, route the thresholds through
    ``stages.joins.bucketed_hash_join`` instead of broadcasting."""
    import ray

    q = grouped_quantiles(ds.select_columns([key, value]), key, value,
                          qs=(0.25, 0.75),
                          num_parts=num_parts).to_pandas()
    keys = q[key].to_numpy()
    order = np.argsort(keys, kind="stable")
    hi = (q["p75"].to_numpy(np.float64)
          + factor * (q["p75"].to_numpy(np.float64)
                      - q["p25"].to_numpy(np.float64)))
    ref = ray.put((keys[order], hi[order]))

    def flag(batch: pa.Table) -> pa.Table:
        ks, lim = ray.get(ref)
        kv = np.asarray(batch[key])
        v = np.asarray(batch[value], dtype=np.float64)
        pos = np.searchsorted(ks, kv)
        pos = np.clip(pos, 0, len(ks) - 1)
        thr = np.where(ks[pos] == kv, lim[pos], np.inf)
        return batch.filter(pa.array(v > thr))

    return ds.map_batches(flag, batch_format="pyarrow")


def stratified_sample(ds, strata_col: str, key_col: str,
                      rates: dict[str, float], default_rate: float = 0.0):
    """Deterministic stratified sampling: a row survives iff
    splitmix64(fnv1a(str(key))) < floor(rate(stratum) * 2^64) — the
    unsigned hash is uniform on [0, 2^64), so each stratum keeps
    ~rate of its rows, exactly reproducibly (same keys in = same
    sample out, independent of partitioning; embarrassingly parallel,
    zero shuffle). Thresholds are computed ONCE in integer space so
    the SQL mirror can embed the identical literals."""
    from tldr_ray.hashing import fnv1a_batch
    from tldr_ray.stages.dedup import _mix64

    thr = {s: min(int(r * 2.0 ** 64), 1 << 64)
           for s, r in rates.items()}
    dthr = min(int(default_rate * 2.0 ** 64), 1 << 64)

    def keep(batch: pa.Table) -> pa.Table:
        k = batch[key_col]
        if not (pa.types.is_string(k.type)
                or pa.types.is_large_string(k.type)):
            k = pc.cast(k, pa.string())
        h = _mix64(fnv1a_batch(k))
        codes, uniq = pd.factorize(np.asarray(batch[strata_col]))
        tlist = [thr.get(s, dthr) for s in uniq]
        # exact unsigned compare: thresholds < 2^64 fit uint64; a
        # rate >= 1.0 (threshold 2^64) keeps everything
        keep_all = np.array([t >= (1 << 64) for t in tlist], dtype=bool)
        tu = np.array([min(t, (1 << 64) - 1) for t in tlist],
                      dtype=np.uint64)
        m = (h < tu[codes]) | keep_all[codes]
        return batch.filter(pa.array(m))

    return ds.map_batches(keep, batch_format="pyarrow")


def kmv_distinct_estimate(sample: pd.DataFrame, k: int) -> float:
    """KMV cardinality estimate from a full bottom-k sample: if fewer
    than k keys exist the sample IS the distinct set (exact); else
    (k-1) * 2^64 / h_k with h_k the largest sampled (unsigned) hash."""
    if len(sample) < k:
        return float(len(sample))
    h = sample["key_hash"].to_numpy(np.int64).view(np.uint64)
    return float((k - 1) * (2.0 ** 64) / float(h.max()))


def pack_token_shards(ds, id_col: str, weight_col: str, budget: int,
                      num_parts: int = 64, id_max: int | None = None):
    """Sequence packing / token-budget sharding: assign each row the
    training-shard id ``floor(prefix_sum_before / budget)`` where the
    prefix runs over ascending ``id_col`` — the deterministic two-pass
    distributed SCAN:

    pass 1: rows are RANGE-partitioned by id (part = id * P //
    (id_max + 1), order-preserving across partitions), each partition
    reduces to one (part, total_weight) row, and the P-row table comes
    back to the driver for an exclusive prefix — O(P) driver state, not
    O(rows).

    pass 2: the same range partitioning, one sort + local cumsum per
    partition, offset by the broadcast pass-1 prefix. Shard ids are
    exact integers, independent of block layout and execution order.

    ``id_max`` skips the extra max() pass when the caller knows the id
    range (e.g. from parquet column statistics). Weights must be
    non-negative integers (token counts)."""
    from ray.data.aggregate import Sum

    if id_max is None:
        id_max = int(ds.max(id_col))
    span = int(id_max) + 1

    def assign(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch[id_col], dtype=np.int64)
        part = (ids * num_parts) // span
        return pa.table({id_col: pa.array(ids),
                         weight_col: batch[weight_col].cast(pa.int64()),
                         "part": pa.array(part.astype(np.int32))})

    parted = ds.map_batches(assign, batch_format="pyarrow")

    totals = parted.groupby("part").aggregate(
        Sum(weight_col, alias_name="w")).to_pandas()
    off = np.zeros(num_parts, np.int64)
    off[totals["part"].to_numpy()] = totals["w"].to_numpy(np.int64)
    off = np.concatenate([[0], np.cumsum(off)[:-1]])
    # off is P int64s — it ships in the task closure; ray.put it if P
    # ever grows past broadcast-trivial size

    def sweep(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(id_col)
        w = g[weight_col].to_numpy(np.int64)
        before = np.cumsum(w) - w + off[int(g["part"].iloc[0])]
        return pd.DataFrame({
            id_col: g[id_col].to_numpy(np.int64),
            weight_col: w,
            "shard_id": before // budget})

    return parted.groupby("part").map_groups(sweep,
                                             batch_format="pandas")


def budget_cap(ds, group_col: str, cost_col: str, order_cols,
               budget: int, num_partitions: int = 64):
    """Per-group budgeted prefix selection — the data-mixing rule
    "take each domain's rows, best first, until the domain's token
    budget is spent". Rows are ordered inside each group by
    ``order_cols`` (must totally order the group); the survivors are
    the maximal prefix whose running integer ``cost_col`` sum stays
    <= ``budget``.

    One coarse shuffle end to end: reuses ``stages.windows.row_window``
    (hash(group) % P partitions, one sort + segment cumsum per
    partition task) and filters on the emitted running sum — no
    per-group invocations, no driver state. ``cost_col`` is appended
    to ``order_cols`` for output visibility; it never changes the
    permutation when the given columns already order rows uniquely.
    Emits (group, *order_cols, cost, rn, cum_<cost>)."""
    from tldr_ray.stages.windows import row_window

    order_cols = list(order_cols)
    if cost_col not in order_cols:
        order_cols = order_cols + [cost_col]
    w = row_window(ds, group_col, order_cols,
                   cumsum_cols=(cost_col,),
                   num_partitions=num_partitions)

    def keep(batch: pa.Table) -> pa.Table:
        m = np.asarray(batch[f"cum_{cost_col}"],
                       dtype=np.int64) <= np.int64(budget)
        return batch.filter(pa.array(m))

    return w.map_batches(keep, batch_format="pyarrow")


def grouped_bottomk(ds, group_col: str, key_col: str, k: int = 3):
    """Per-group deterministic bottom-k hash sample: inside every group,
    the k keys with the smallest splitmix64(fnv1a(str(key))) hashes —
    the per-domain twin of ``bottomk_sample`` (same hash, same unsigned
    ordering, same SQL mirror helpers). Keys are assumed distinct
    within a group (dedup upstream otherwise: a repeated key would
    occupy several ranks).

    Funnel discipline: every batch pre-combines to at most k rows per
    group it has seen, then ONE coarse shuffle (stages.windows
    .row_window) ranks the survivors. Emits (group, h_ord, key,
    key_hash, rn) with rn <= k; ``h_ord`` is the hash with the sign
    bit flipped so SIGNED int64 ordering equals the mirror's unsigned
    ordering."""
    from tldr_ray.hashing import fnv1a_batch
    from tldr_ray.stages.dedup import _mix64
    from tldr_ray.stages.windows import row_window

    SIGN = np.uint64(1 << 63)

    def partial(batch: pa.Table) -> pa.Table:
        kcol = batch[key_col]
        if not (pa.types.is_string(kcol.type)
                or pa.types.is_large_string(kcol.type)):
            kcol = pc.cast(kcol, pa.string())
        h = _mix64(fnv1a_batch(kcol))
        grp = np.asarray(batch[group_col].to_pandas())
        keys = np.asarray(batch[key_col].to_pandas())
        order = np.lexsort((keys, (h ^ SIGN).view(np.int64), grp))
        grp, keys, h = grp[order], keys[order], h[order]
        new = np.concatenate([[True], grp[1:] != grp[:-1]]) \
            if len(grp) else np.array([], bool)
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        rnk = np.arange(len(grp)) - starts[seg] if len(grp) \
            else np.array([], np.int64)
        m = rnk < k
        return pa.table({
            group_col: pa.array(grp[m]),
            key_col: pa.array(keys[m]),
            "h_ord": pa.array((h[m] ^ SIGN).view(np.int64)),
            "key_hash": pa.array(h[m].view(np.int64))})

    pre = ds.select_columns([group_col, key_col]) \
        .map_batches(partial, batch_format="pyarrow")
    w = row_window(pre, group_col, ["h_ord", key_col, "key_hash"])

    def keep(batch: pa.Table) -> pa.Table:
        m = np.asarray(batch["rn"], dtype=np.int64) <= k
        return batch.filter(pa.array(m))

    return w.map_batches(keep, batch_format="pyarrow")


def grouped_linear_trend(ds, group_col: str, x_col: str, y_col: str):
    """Per-group ordinary-least-squares trend line from EXACT integer
    moment sums: each batch folds into (n, Sx, Sy, Sxy, Sxx) partials
    per group (five int64 columns — never rows), one groupby sums
    them, and slope / intercept are each ONE IEEE division of exact
    integer cross-products:

        slope     = (n*Sxy - Sx*Sy) / (n*Sxx - Sx^2)
        intercept = (Sy*Sxx - Sx*Sxy) / (n*Sxx - Sx^2)

    so the floats hash-match a SQL mirror computing the same integer
    moments (DuckDB's own regr_slope accumulates in float and would
    NOT). ``x_col``/``y_col`` must be pre-scaled integers small enough
    that every product above fits int64 (hours + cents at corpus scale
    qualify; the caller owns the scaling). Groups with zero x-variance
    are dropped (vertical line)."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        g = np.asarray(batch[group_col].to_pandas())
        x = np.asarray(batch[x_col], dtype=np.int64)
        y = np.asarray(batch[y_col], dtype=np.int64)
        u, inv = np.unique(g, return_inverse=True)
        return pa.table({
            group_col: pa.array(u),
            "n": pa.array(np.bincount(inv).astype(np.int64)),
            "sx": pa.array(np.bincount(inv, weights=x).astype(np.int64)),
            "sy": pa.array(np.bincount(inv, weights=y).astype(np.int64)),
            "sxy": pa.array(np.bincount(inv, weights=x * y)
                            .astype(np.int64)),
            "sxx": pa.array(np.bincount(inv, weights=x * x)
                            .astype(np.int64))})

    agg = (ds.select_columns([group_col, x_col, y_col])
           .map_batches(partial, batch_format="pyarrow")
           .groupby(group_col)
           .aggregate(Sum("n", alias_name="n"),
                      Sum("sx", alias_name="sx"),
                      Sum("sy", alias_name="sy"),
                      Sum("sxy", alias_name="sxy"),
                      Sum("sxx", alias_name="sxx")))

    def seal(batch: pa.Table) -> pa.Table:
        n = np.asarray(batch["n"], dtype=np.int64)
        sx = np.asarray(batch["sx"], dtype=np.int64)
        sy = np.asarray(batch["sy"], dtype=np.int64)
        sxy = np.asarray(batch["sxy"], dtype=np.int64)
        sxx = np.asarray(batch["sxx"], dtype=np.int64)
        den = n * sxx - sx * sx
        m = den != 0
        slope = (n[m] * sxy[m] - sx[m] * sy[m]).astype(np.float64) \
            / den[m].astype(np.float64)
        icpt = (sy[m] * sxx[m] - sx[m] * sxy[m]).astype(np.float64) \
            / den[m].astype(np.float64)
        cols = {group_col: batch[group_col].filter(pa.array(m))}
        cols.update({
            "n": pa.array(n[m]),
            "slope": pa.array(slope),
            "intercept": pa.array(icpt)})
        return pa.table(cols)

    return agg.map_batches(seal, batch_format="pyarrow")


def zorder_key(cols: list[np.ndarray], bits: int = 21) -> np.ndarray:
    """Interleave the low ``bits`` of each column into one Morton
    (Z-order) key — vectorized bit arithmetic, no row loop. With c
    columns, c*bits must fit 63 bits. Columns must be pre-shifted to
    non-negative ints (the caller owns range reduction)."""
    c = len(cols)
    if c * bits > 63:
        raise ValueError(f"{c} cols x {bits} bits exceeds int64")
    out = np.zeros(len(cols[0]), dtype=np.int64)
    for j, col in enumerate(cols):
        v = np.asarray(col, dtype=np.int64)
        if (v < 0).any():
            raise ValueError("zorder_key needs non-negative ints")
        for b in range(bits):
            out |= ((v >> np.int64(b)) & np.int64(1)) \
                << np.int64(b * c + j)
    return out


def zorder_sort(ds, cols: list[str], bits: int = 21):
    """Multi-dimensional data clustering: append the Morton key over
    ``cols`` and range-partition-sort by it (Ray Data's native sort
    all-to-all) — the Delta/Iceberg OPTIMIZE ZORDER layout move. Rows
    near each other in EVERY dimension land in the same output blocks,
    so min/max block statistics prune multi-predicate scans; one
    legitimate shuffle buys locality for every later read."""
    def add_key(batch: pa.Table) -> pa.Table:
        arrs = [np.asarray(batch[c], dtype=np.int64) for c in cols]
        return batch.append_column("zkey",
                                   pa.array(zorder_key(arrs, bits)))

    return ds.map_batches(add_key, batch_format="pyarrow").sort("zkey")


def kmv_overlap_estimate(a_ds, b_ds, key_a: str, key_b: str,
                         k: int = 64) -> dict:
    """Join-cardinality overlap statistic from two bottom-k (KMV)
    sketches — the optimizer-style estimate that never scans either
    side twice: each side funnels to its k smallest distinct key
    hashes (``bottomk_sample``), and the driver combines 2k numbers:

        k_eff = min(k, |ha|, |hb|, |union|)
        M     = k_eff-th smallest hash of the sketch union
        c     = |{hashes <= M present in BOTH sketches}|
        inter_frac = c / k_eff     (estimates |A ∩ B| / |A ∪ B|)

    Every ingredient is a deterministic integer; the one float is an
    exact small-int division, so the whole statistic is
    SQL-hash-checkable."""
    from tldr_ray.stages.agg import bottomk_sample

    sa = bottomk_sample(a_ds, key_a, k).to_pandas()
    sb = bottomk_sample(b_ds, key_b, k).to_pandas()
    ha = np.unique(sa["key_hash"].to_numpy(np.int64).view(np.uint64))
    hb = np.unique(sb["key_hash"].to_numpy(np.int64).view(np.uint64))
    merged = np.union1d(ha, hb)
    keff = int(min(k, ha.size, hb.size, merged.size))
    if keff == 0:
        return {"n_common": 0, "k_eff": 0, "kth_min": 0,
                "inter_frac": 0.0}
    M = merged[keff - 1]
    common = np.intersect1d(ha, hb)
    c = int((common <= M).sum())
    return {"n_common": c, "k_eff": keff,
            "kth_min": int(np.int64(M.view(np.int64))),
            "inter_frac": c / keff}


def mad_outliers(ds, key: str, value: str, k: float = 3.0,
                 num_parts: int = 64):
    """Per-group robust outliers by Median Absolute Deviation: keep
    rows with |x - median| > k * MAD, where both the median and
    MAD = median(|x - median|) are DISCRETE grouped quantiles (actual
    elements — hash-stable), computed in two coarse-shuffle passes;
    the per-row deviation and the k*MAD threshold are single IEEE ops
    mirrored op-for-op in SQL. The robust twin of ``iqr_outliers``
    (50% breakdown point vs 25%)."""
    import ray

    med = grouped_quantiles(ds.select_columns([key, value]),
                            key, value, qs=(0.5,),
                            num_parts=num_parts).to_pandas()
    keys = np.sort(med[key].to_numpy(object))
    meds = med.set_index(key)["p50"].loc[keys].to_numpy(np.float64)
    mref = ray.put((keys, meds))

    def dev(batch: pa.Table) -> pa.Table:
        ks, ms = ray.get(mref)
        kv = np.asarray(batch[key])
        xv = np.asarray(batch[value], dtype=np.float64)
        d = np.abs(xv - ms[np.searchsorted(ks, kv)])
        return pa.table({key: batch[key], "absdev": pa.array(d)})

    mad = grouped_quantiles(
        ds.select_columns([key, value])
        .map_batches(dev, batch_format="pyarrow"),
        key, "absdev", qs=(0.5,), num_parts=num_parts).to_pandas()
    mads = mad.set_index(key)["p50"].loc[keys].to_numpy(np.float64)
    tref = ray.put((keys, meds, mads))

    def keep(batch: pa.Table) -> pa.Table:
        ks, ms, ds_ = ray.get(tref)
        kv = np.asarray(batch[key])
        xv = np.asarray(batch[value], dtype=np.float64)
        pos = np.searchsorted(ks, kv)
        m = np.abs(xv - ms[pos]) > k * ds_[pos]
        return batch.filter(pa.array(m))

    return ds.map_batches(keep, batch_format="pyarrow")


def epoch_shuffle(ds, id_col: str, epoch: int, num_parts: int = 64):
    """Deterministic training-epoch reshuffle: every row gets a GLOBAL
    position 0..n-1 in ascending unsigned splitmix64(id*1000003+epoch)
    order — a different, reproducible permutation per epoch that is
    independent of block layout and execution order (what makes a
    pretraining run resumable/replayable, unlike ``random_shuffle``).
    splitmix64 is a bijection and the inputs are distinct per id, so
    the order is total with no tie-break needed.

    Same two-pass distributed scan as ``pack_token_shards``, but RANGE-
    partitioned on the hash itself (part = h*P >> 64, order-preserving):
    pass 1 reduces each partition to one count (O(P) driver state),
    pass 2 sorts each partition locally and offsets by the broadcast
    exclusive prefix. Output: (id, epoch_pos int64)."""
    from ray.data.aggregate import Count

    from tldr_ray.stages.dedup import _mix64

    def hashed(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch[id_col], dtype=np.int64)
        h = _mix64(ids.astype(np.uint64) * np.uint64(1000003)
                   + np.uint64(epoch))
        # monotone coarse range partition: floor((h>>32) * P / 2^32)
        # stays in uint64 for any P < 2^32 and is non-decreasing in h
        part = ((h >> np.uint64(32)) * np.uint64(num_parts)) \
            >> np.uint64(32)
        return pa.table({
            id_col: pa.array(ids),
            "__h": pa.array(h.view(np.int64)),
            "part": pa.array(np.asarray(part, dtype=np.int32))})

    parted = ds.select_columns([id_col]) \
        .map_batches(hashed, batch_format="pyarrow")

    totals = parted.groupby("part").aggregate(
        Count(alias_name="n")).to_pandas()
    off = np.zeros(num_parts, np.int64)
    off[totals["part"].to_numpy()] = totals["n"].to_numpy(np.int64)
    off = np.concatenate([[0], np.cumsum(off)[:-1]])

    def sweep(group: pd.DataFrame) -> pd.DataFrame:
        h = group["__h"].to_numpy(np.int64).view(np.uint64)
        order = np.argsort(h, kind="stable")
        base = off[int(group["part"].iloc[0])]
        return pd.DataFrame({
            id_col: group[id_col].to_numpy(np.int64)[order],
            "epoch_pos": base + np.arange(order.size, dtype=np.int64)})

    return parted.groupby("part").map_groups(sweep,
                                             batch_format="pandas")


def pairwise_pearson(ds, cols: list[str], to_int=None):
    """Pairwise Pearson correlation matrix over integer-valued columns
    via EXACT moment sums: per batch, every moment (S_i, S_ii, S_ij)
    accumulates in TWO int64 lanes — sum(p >> 30) and sum(p & 2^30-1)
    — so products up to ~2^60 per row sum exactly through the global
    Sum aggregate (lane bound: ~2^33 rows before the low lane could
    saturate; add a third lane past that). The driver recombines lanes
    into arbitrary-precision Python ints and performs the ONLY float
    math once per pair:

        corr = double(n*Sxy - Sx*Sy)
               / (sqrt(double(n*Sxx - Sx^2)) * sqrt(double(n*Syy - Sy^2)))

    — castings and operation order chosen to mirror op-for-op in SQL
    (int->double casts, IEEE division and sqrt are correctly rounded).
    ``to_int(batch, col) -> np.int64 array`` converts raw columns
    (default: exact cents floor(x*100+0.5)). Returns a pyarrow Table
    (col_x, col_y, corr) over all unordered pairs, col order as given.
    O(len(cols)^2) values leave each task; nothing row-sized moves."""
    from ray.data.aggregate import Count, Sum

    if to_int is None:
        def to_int(batch, c):
            x = np.asarray(batch[c], dtype=np.float64)
            return np.floor(x * 100.0 + 0.5).astype(np.int64)

    MASK = np.int64((1 << 30) - 1)
    pairs = [(i, j) for i in range(len(cols))
             for j in range(i + 1, len(cols))]

    def lanes(name, p, out):
        out[f"{name}_hi"] = pa.array([int(np.sum(p >> 30))], pa.int64())
        out[f"{name}_lo"] = pa.array([int(np.sum(p & MASK))], pa.int64())

    def partial(batch: pa.Table) -> pa.Table:
        vals = [to_int(batch, c) for c in cols]
        out = {"n": pa.array([len(batch)], pa.int64())}
        for i, c in enumerate(cols):
            lanes(f"s{i}", vals[i], out)
            lanes(f"q{i}", vals[i] * vals[i], out)
        for i, j in pairs:
            lanes(f"p{i}_{j}", vals[i] * vals[j], out)
        return pa.table(out)

    part = ds.select_columns(cols).map_batches(
        partial, batch_format="pyarrow")
    names = ["n"] + [f"{t}_{l}" for t in
                     ([f"s{i}" for i in range(len(cols))]
                      + [f"q{i}" for i in range(len(cols))]
                      + [f"p{i}_{j}" for i, j in pairs])
                     for l in ("hi", "lo")]
    agg = part.aggregate(*[Sum(c, alias_name=c) for c in names])

    def val(name):
        return (int(agg[f"{name}_hi"]) << 30) + int(agg[f"{name}_lo"])

    n = int(agg["n"])
    s = [val(f"s{i}") for i in range(len(cols))]
    q = [val(f"q{i}") for i in range(len(cols))]
    import math

    rows_x, rows_y, rows_c = [], [], []
    for i, j in pairs:
        num = n * val(f"p{i}_{j}") - s[i] * s[j]
        dxx = n * q[i] - s[i] * s[i]
        dyy = n * q[j] - s[j] * s[j]
        corr = float(num) / (math.sqrt(float(dxx))
                             * math.sqrt(float(dyy)))
        rows_x.append(cols[i])
        rows_y.append(cols[j])
        rows_c.append(corr)
    return pa.table({"col_x": pa.array(rows_x, pa.string()),
                     "col_y": pa.array(rows_y, pa.string()),
                     "corr": pa.array(rows_c, pa.float64())})


def grouping_sets_aggregate(ds, keys: list[str], sets: list[tuple],
                            value_col: str | None = None,
                            all_token: str = "ALL"):
    """GROUPING SETS / CUBE in ONE pass (generalizes
    ``rollup_aggregate``, whose sets are the key prefixes): counts
    (and integer cents sums of ``value_col``) at every requested
    grouping set, rolled-up columns holding ``all_token``. Each batch
    pre-aggregates one tiny frame per set (map-side combiner — the
    shuffle moves one row per distinct combo per set per block, never
    O(rows)); a single ``groupby(keys)`` finishes. ``sets`` entries
    are tuples of key names (subsets of ``keys``); pass all 2^k
    subsets for CUBE via :func:`cube_aggregate`."""
    from ray.data.aggregate import Sum

    sets = [tuple(s) for s in sets]
    for s in sets:
        if not set(s) <= set(keys):
            raise ValueError(f"grouping set {s!r} not a subset of {keys}")
    aggs = ["n"] + (["cents"] if value_col else [])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[keys].astype(str).copy()
        b["n"] = np.int64(1)
        if value_col:
            b["cents"] = np.floor(
                batch[value_col].to_numpy(np.float64) * 100.0
                + 0.5).astype(np.int64)
        frames = []
        for s in sets:
            if not s:
                row = {k: [all_token] for k in keys}
                row["n"] = [np.int64(len(b))]
                if value_col:
                    row["cents"] = [b["cents"].sum()]
                frames.append(pd.DataFrame(row)[keys + aggs])
                continue
            g = b.groupby(list(s), sort=False)[aggs].sum().reset_index()
            for k in keys:
                if k not in s:
                    g[k] = all_token
            frames.append(g[keys + aggs])
        return pd.concat(frames, ignore_index=True)

    cols = keys + ([value_col] if value_col else [])
    return (
        ds.select_columns(cols)
        .map_batches(partial, batch_format="pandas")
        .groupby(keys)
        .aggregate(*[Sum(a, alias_name=a) for a in aggs])
    )


def cube_aggregate(ds, keys: list[str], value_col: str | None = None,
                   all_token: str = "ALL"):
    """CUBE: every subset of ``keys`` as a grouping set, one pass."""
    from itertools import combinations

    sets = [c for r in range(len(keys) + 1)
            for c in combinations(keys, r)]
    return grouping_sets_aggregate(ds, keys, sets, value_col=value_col,
                                   all_token=all_token)


def _skyline2d_local(p: np.ndarray, q: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Exact 2D skyline (minimize p, maximize q) of distinct (p, q)
    pairs, vectorized: lexsort by (p asc, q desc), keep the max-q pair
    per p, then a strict running-max sweep over q. O(n log n), no
    Python loop."""
    if p.size == 0:
        return p, q
    order = np.lexsort((-q, p))
    p, q = p[order], q[order]
    first = np.concatenate([[True], p[1:] != p[:-1]])
    p, q = p[first], q[first]
    run = np.maximum.accumulate(q)
    keep = np.concatenate([[True], q[1:] > run[:-1]])
    return p[keep], q[keep]


def skyline2d(ds, min_col: str, max_col: str):
    """Distributed Pareto frontier over two criteria (MINIMIZE
    ``min_col``, MAXIMIZE ``max_col``): each block reduces to its
    LOCAL skyline first (a local skyline is a superset filter — a
    globally non-dominated pair is non-dominated in its block, so no
    candidate is lost and each block forwards frontier-sized output,
    not its rows), then one frontier-sized merge task finishes. The
    union of local skylines is tiny for any realistic value
    distribution; a pathological anti-correlated 100-TB frontier
    would recurse the same local/merge split once more. Inputs are
    taken as already-integer columns (exactness is the caller's
    contract: cents, counts)."""
    def local(batch: pa.Table) -> pa.Table:
        pq_ = np.stack([np.asarray(batch[min_col], dtype=np.int64),
                        np.asarray(batch[max_col], dtype=np.int64)],
                       axis=1)
        pq_ = np.unique(pq_, axis=0)
        p, q = _skyline2d_local(pq_[:, 0], pq_[:, 1])
        return pa.table({min_col: pa.array(p), max_col: pa.array(q)})

    return (ds.select_columns([min_col, max_col])
            .map_batches(local, batch_format="pyarrow")
            .repartition(1)
            .map_batches(local, batch_format="pyarrow"))


def validate_expectations(ds, checks: list[dict]):
    """Data-quality gate: declarative column expectations evaluated in
    ONE streaming pass (plus one value-count shuffle per ``unique``
    check). Each check is a dict:

        {"kind": "not_null",  "col": c}
        {"kind": "range",     "col": c, "lo": x, "hi": y}   # inclusive
        {"kind": "in_set",    "col": c, "values": [...]}
        {"kind": "min_len",   "col": c, "n": k}             # strings
        {"kind": "unique",    "col": c}

    Returns a Dataset of (check_name, n_rows, n_violations) — one row
    per check. Per-batch counters are vectorized Arrow kernels and
    pre-combined (the shuffle moves len(checks) rows per block);
    ``unique`` counts duplicates as rows-minus-distinct through a
    per-batch pyarrow group_by combiner, so the exchange moves value
    counts, never rows. Violation ROWS (not counts) are a filter the
    caller already knows how to write; this stage is the cheap
    always-on report."""
    from ray.data.aggregate import Sum

    scalar = [c for c in checks if c["kind"] != "unique"]
    uniq = [c for c in checks if c["kind"] == "unique"]

    def _name(c: dict) -> str:
        return f"{c['kind']}:{c['col']}"

    out = []

    if scalar:
        def partial(batch: pa.Table) -> pa.Table:
            names, rows, viol = [], [], []
            n = len(batch)
            for c in scalar:
                col = batch[c["col"]]
                k = c["kind"]
                if k == "not_null":
                    bad = pc.sum(pc.is_null(col).cast(pa.int64())).as_py() or 0
                elif k == "range":
                    good = pc.and_(pc.greater_equal(col, c["lo"]),
                                   pc.less_equal(col, c["hi"]))
                    ok = pc.sum(pc.and_(pc.is_valid(col),
                                        pc.fill_null(good, False))
                                .cast(pa.int64())).as_py() or 0
                    bad = n - ok
                elif k == "in_set":
                    good = pc.is_in(col, value_set=pa.array(c["values"]))
                    ok = pc.sum(pc.fill_null(good, False)
                                .cast(pa.int64())).as_py() or 0
                    bad = n - ok
                elif k == "min_len":
                    good = pc.greater_equal(pc.utf8_length(col), c["n"])
                    ok = pc.sum(pc.fill_null(good, False)
                                .cast(pa.int64())).as_py() or 0
                    bad = n - ok
                else:
                    raise ValueError(f"unknown expectation kind {k!r}")
                names.append(_name(c))
                rows.append(n)
                viol.append(int(bad))
            return pa.table({
                "check_name": pa.array(names, pa.string()),
                "n_rows": pa.array(rows, pa.int64()),
                "n_violations": pa.array(viol, pa.int64())})

        out.append(ds.map_batches(partial, batch_format="pyarrow"))

    for c in uniq:
        col = c["col"]

        def vc(batch: pa.Table, _c=col) -> pa.Table:
            return (batch.select([_c]).group_by([_c])
                    .aggregate([(_c, "count")])
                    .rename_columns([_c, "n"]))

        def dups(batch: pa.Table, _c=c) -> pa.Table:
            n = np.asarray(batch["n"], dtype=np.int64)
            return pa.table({
                "check_name": pa.array([_name(_c)] * len(batch),
                                       pa.string()),
                "n_rows": pa.array(n),
                "n_violations": pa.array(n - 1)})

        out.append(ds.select_columns([col])
                   .map_batches(vc, batch_format="pyarrow")
                   .groupby(col)
                   .aggregate(Sum("n", alias_name="n"))
                   .map_batches(dups, batch_format="pyarrow"))

    report = out[0]
    for o in out[1:]:
        report = report.union(o)
    return (report.groupby("check_name")
            .aggregate(Sum("n_rows", alias_name="n_rows"),
                       Sum("n_violations", alias_name="n_violations")))


def grouped_quantiles_cont(ds, key: str, value: str,
                           qs=(0.25, 0.5, 0.75), num_parts: int = 64):
    """Per-group INTERPOLATED quantiles (SQL percentile_cont /
    DuckDB quantile_cont): rn = q*(n-1), result =
    x[floor(rn)]*(1-frac) + x[ceil(rn)]*frac — the exact formula
    DuckDB evaluates (fuzz-verified bit-for-bit over 300 random
    group/q combinations, including non-dyadic q: identical inputs +
    identical IEEE op order = identical doubles). Same
    coarse-partition sweep as grouped_quantiles: one shuffle on
    hash(key), per-task lexsort + two index gathers per quantile."""
    cols = {float(q): f"p{q * 100:g}".replace(".", "_") for q in qs}

    def sweep(group: pd.DataFrame) -> pd.DataFrame:
        if not len(group):
            return pd.DataFrame(
                {key: [], **{name: [] for name in cols.values()}})
        g = group.sort_values([key, value], kind="mergesort")
        keys = g[key].to_numpy()
        vals = g[value].to_numpy(np.float64)
        new = np.empty(keys.size, dtype=bool)
        new[0], new[1:] = True, keys[1:] != keys[:-1]
        starts = np.flatnonzero(new)
        counts = np.diff(np.append(starts, keys.size))
        out = {key: keys[starts]}
        for q, name in cols.items():
            rn = np.float64(q) * (counts - 1).astype(np.float64)
            lo = np.floor(rn).astype(np.int64)
            hi = np.ceil(rn).astype(np.int64)
            frac = rn - lo
            vlo = vals[starts + lo]
            vhi = vals[starts + hi]
            out[name] = vlo * (1.0 - frac) + vhi * frac
        return pd.DataFrame(out)

    return keyed_sweep(ds.select_columns([key, value]),
                       key, sweep, num_parts)


def auc_from_value_counts(s: np.ndarray, c: np.ndarray,
                          p: np.ndarray):
    """Mann-Whitney AUC with exact tie handling from a distinct-score
    value-counts frame (``s`` scores, ``c`` total counts, ``p``
    positive counts — any order). Rank algebra stays integer:
    2*ranksum(pos) = sum p*(2*cum_before + c + 1); returns
    (num2, n_pos, n_neg, auc) where num2 = 2*ranksum - n_pos*(n_pos+1)
    and auc = num2 / (2*n_pos*n_neg) as ONE double division (callers
    feed per-block pre-combined counts, so every int is exact and the
    float is reproducible bit-for-bit)."""
    order = np.argsort(np.asarray(s), kind="stable")
    c = np.asarray(c, dtype=np.int64)[order]
    p = np.asarray(p, dtype=np.int64)[order]
    cumb = np.concatenate([[np.int64(0)], np.cumsum(c)[:-1]])
    r2 = int(np.sum(p * (2 * cumb + c + 1)))
    n_pos = int(p.sum())
    n_neg = int((c - p).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError(
            f"AUC undefined: one class is absent "
            f"(n_pos={n_pos}, n_neg={n_neg})")
    num2 = r2 - n_pos * (n_pos + 1)
    auc = (np.float64(num2)
           / (np.float64(2.0) * np.float64(n_pos) * np.float64(n_neg)))
    return num2, n_pos, n_neg, float(auc)


def weighted_sample(ds, id_col: str, weight_col: str, k: int,
                    salt: int = 0):
    """Weighted sampling WITHOUT replacement (Efraimidis-Spirakis
    A-ES, 2006): each row races with key ln(u)/w for u =
    splitmix64(id, salt) mapped into (0, 1) — the k LARGEST keys are
    exactly a weight-proportional without-replacement draw. Hash-
    driven u makes the sample deterministic, layout-independent and
    re-drawable by salt, the same discipline as bottomk_sample (this
    is its weighted generalization; w==1 degenerates to a uniform
    bottom-k race). Each block keeps only its local top-k (<= k rows
    leave any task — funnel, not shuffle), then one small sort+limit
    finishes. Weights must be > 0 (raises otherwise). Rows-only by
    nature (libm log); proportionality and determinism are pytest-
    pinned."""
    from tldr_ray.stages.dedup import _mix64

    SALT_MIX = np.uint64(0x9E3779B97F4A7C15)

    salt_u = np.uint64(int(salt) & 0xFFFFFFFFFFFFFFFF)

    def local_top(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch[id_col], dtype=np.int64)
        w = np.asarray(batch[weight_col], dtype=np.float64)
        if ids.size and not np.all(w > 0):   # catches NaN too
            raise ValueError(
                "weighted_sample requires strictly positive, non-NaN"
                " weights")
        h = _mix64(ids.astype(np.uint64) + salt_u * SALT_MIX)
        u = (h.astype(np.float64) + 0.5) / np.float64(2**64)
        key = np.log(u) / w
        top = np.argsort(-key, kind="stable")[:k]
        out = batch.take(pa.array(np.sort(top)))
        kk = key[np.sort(top)]
        return out.append_column("__es_key", pa.array(kk))

    return (ds.map_batches(local_top, batch_format="pyarrow")
            .sort("__es_key", descending=True)
            .limit(k)
            .map_batches(lambda t: t.drop(["__es_key"]),
                         batch_format="pyarrow"))


def spearman_vs_order(ds, key_cols: list[str], order_cols: list[str],
                      value_col: str, min_n: int = 3,
                      num_partitions: int = 64):
    """Per-group Spearman rank correlation between ``value_col`` and
    the in-group ORDER position (does the value trend over the
    sequence?) — the rank-robust complement of the exact-moment
    Pearson suite.

    Exactness contract: ranks are DOUBLED average ranks
    (2*less + eq + 1 for values, 2*row_number for the tie-free order
    positions), so every rank is an exact int64 and the five moment
    sums are exact integers; the statistic is then ONE fixed float
    chain with IEEE sqrts, mirrored token-for-token in SQL — the
    float hash-matches. int64 bound: n * sum(r^2) <= 4 n^2 (n+1)^2,
    safe below n ~ 2^15 rows per group; larger groups need the
    object-dtype bigint lane (pairwise_pearson's idiom).

    One coarse hash(key)-shuffle; every group lives wholly inside one
    partition task, where a single sort + segment sweep computes all
    ranks and moments vectorized. Groups with n < ``min_n`` or zero
    value variance (all tied) are dropped — rho is undefined there.
    Emits (*key_cols, n, rho)."""
    need = list(dict.fromkeys([*key_cols, *order_cols, value_col]))

    def sweep(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values([*key_cols, *order_cols],
                              kind="mergesort")
        n = len(g)
        if n == 0:
            return pd.DataFrame({**{c: [] for c in key_cols},
                                 "n": pd.array([], dtype="int64"),
                                 "rho": pd.array([], dtype="float64")})
        keys = [g[c].to_numpy() for c in key_cols]
        new = np.zeros(n, dtype=bool)
        new[0] = True
        for kk in keys:
            new[1:] |= kk[1:] != kk[:-1]
        seg = np.cumsum(new) - 1
        starts = np.flatnonzero(new)
        sizes = np.diff(np.append(starts, n)).astype(np.int64)
        # tie-free order ranks (doubled): 2 * position-in-group
        y = 2 * (np.arange(n, dtype=np.int64) - starts[seg] + 1)
        # doubled average value ranks: 2*less + eq + 1 per tie run
        v = g[value_col].to_numpy()
        if not np.issubdtype(v.dtype, np.integer):
            raise TypeError(
                f"spearman value col {value_col!r} must be integer "
                f"(got {v.dtype}); convert money to cents upstream")
        ord2 = np.lexsort((v, seg))
        vs, ss = v[ord2], seg[ord2]
        run = np.zeros(n, dtype=bool)
        run[0] = True
        run[1:] = (ss[1:] != ss[:-1]) | (vs[1:] != vs[:-1])
        run_id = np.cumsum(run) - 1
        run_start = np.flatnonzero(run)
        run_len = np.diff(np.append(run_start, n)).astype(np.int64)
        less = run_start - starts[ss[run_start]]
        r2_run = 2 * less + run_len + 1
        x = np.empty(n, np.int64)
        x[ord2] = r2_run[run_id]
        nseg = starts.size
        # bincount accumulates in float64 — exact for these integer
        # weights below 2^53 — then the moment ALGEBRA runs in int64
        # so it is token-identical to the SQL BIGINT-then-CAST chain
        sx = np.bincount(seg, weights=x, minlength=nseg) \
            .astype(np.int64)
        sy = np.bincount(seg, weights=y, minlength=nseg) \
            .astype(np.int64)
        sxx = np.bincount(seg, weights=x * x, minlength=nseg) \
            .astype(np.int64)
        syy = np.bincount(seg, weights=y * y, minlength=nseg) \
            .astype(np.int64)
        sxy = np.bincount(seg, weights=x * y, minlength=nseg) \
            .astype(np.int64)
        varx = sizes * sxx - sx * sx
        vary = sizes * syy - sy * sy
        keep = (sizes >= min_n) & (varx > 0) & (vary > 0)
        rho = np.full(nseg, np.nan)
        np.divide((sizes * sxy - sx * sy).astype(np.float64),
                  np.sqrt(varx.astype(np.float64)
                          * vary.astype(np.float64)),
                  out=rho, where=keep)
        out = {c: kk[starts][keep] for c, kk in zip(key_cols, keys)}
        out["n"] = sizes[keep]
        out["rho"] = rho[keep]
        return pd.DataFrame(out)

    return keyed_sweep(ds.select_columns(need),
                       key_cols, sweep, num_partitions)


def grouped_trimmed_mean(ds, key: str, value: str,
                         trim_num: int = 1, trim_den: int = 10,
                         num_parts: int = 64):
    """Per-key TRIMMED mean: drop the ``t = n * trim_num // trim_den``
    lowest and highest rows by value, average the rest — the
    robust-mean companion of the winsorize stage (which clamps
    instead of dropping). Tie-safe by construction: WHICH duplicate
    rows get dropped is arbitrary, but the kept MULTISET sum is
    tie-invariant, so the result is deterministic. ``t`` uses pure
    integer arithmetic (``//``) — no float rank math to misround.

    ``value`` must be integer (cents upstream); the mean is ONE IEEE
    division of two exact int64s, so the float hash-matches a SQL
    mirror. One coarse shuffle, one sort + segment cumsum per task.
    Emits (key, n, n_kept, trimmed_sum, trimmed_mean)."""
    def sweep(group: pd.DataFrame) -> pd.DataFrame:
        if not len(group):
            return pd.DataFrame({key: [],
                                 "n": pd.array([], dtype="int64"),
                                 "n_kept": pd.array([], dtype="int64"),
                                 "trimmed_sum":
                                     pd.array([], dtype="int64"),
                                 "trimmed_mean":
                                     pd.array([], dtype="float64")})
        g = group.sort_values([key, value], kind="mergesort")
        keys = g[key].to_numpy()
        vals = g[value].to_numpy()
        if not np.issubdtype(vals.dtype, np.integer):
            raise TypeError(
                f"trimmed-mean col {value!r} must be integer "
                f"(got {vals.dtype}); convert money to cents upstream")
        new = np.empty(keys.size, dtype=bool)
        new[0], new[1:] = True, keys[1:] != keys[:-1]
        starts = np.flatnonzero(new)
        n = np.diff(np.append(starts, keys.size)).astype(np.int64)
        t = n * trim_num // trim_den
        cum = np.cumsum(vals, dtype=np.int64)
        hi_idx = starts + n - t - 1             # last kept row
        lo_idx = starts + t - 1                 # last dropped-low row
        hi = cum[hi_idx]
        lo = np.where(t > 0, cum[np.maximum(lo_idx, 0)],
                      np.where(starts > 0, cum[starts - 1], 0))
        # t == 0 must subtract the PREVIOUS segment's prefix instead
        prev = np.where(starts > 0, cum[starts - 1], 0)
        lo = np.where(t > 0, lo, prev)
        s = hi - lo
        kept = n - 2 * t
        return pd.DataFrame({
            key: keys[starts], "n": n, "n_kept": kept,
            "trimmed_sum": s,
            "trimmed_mean": s.astype(np.float64)
            / kept.astype(np.float64)})

    return keyed_sweep(ds.select_columns([key, value]),
                       key, sweep, num_parts)


def theil_sen_by_key(ds, key_col: str, t_col: str, v_col: str,
                     min_n: int = 3, max_n: int = 128,
                     num_partitions: int = 64):
    """Per-key THEIL-SEN slope — the median of all pairwise slopes
    (v_j - v_i) / (t_j - t_i) over strictly-increasing t pairs: the
    robust trend estimator (29% breakdown point) next to the exact-OLS
    trend stage. Pair expansion is quadratic per key, so keys are
    GATED to ``min_n <= n <= max_n`` points (mirror with HAVING — the
    honest contract; Theil-Sen on million-point keys wants the
    O(n log n) Chan variant, not this).

    One coarse hash(key) shuffle; per task: one sort, triu pair
    expansion per segment (the dedup._segment_pair_indices shape),
    slopes as one vectorized division of exact int64 deltas, and the
    per-segment median via index arithmetic with the DuckDB
    quantile_cont composition x[lo]*0.5 + x[hi]*0.5 (NOT (a+b)/2 —
    different IEEE rounding), so the float hash-matches. Emits
    (key, n_points, n_slopes, ts_slope)."""
    def sweep(group: pd.DataFrame) -> pd.DataFrame:
        out_empty = pd.DataFrame({
            key_col: pd.array([], dtype="int64"),
            "n_points": pd.array([], dtype="int64"),
            "n_slopes": pd.array([], dtype="int64"),
            "ts_slope": pd.array([], dtype="float64")})
        if not len(group):
            return out_empty
        g = group.sort_values([key_col, t_col], kind="mergesort")
        k = g[key_col].to_numpy(np.int64)
        t = g[t_col].to_numpy(np.int64)
        v = g[v_col].to_numpy(np.int64)
        new = np.empty(k.size, dtype=bool)
        new[0], new[1:] = True, k[1:] != k[:-1]
        starts = np.flatnonzero(new)
        sizes = np.diff(np.append(starts, k.size)).astype(np.int64)
        keep = (sizes >= min_n) & (sizes <= max_n)
        ia, ib, segp = [], [], []
        for si, (st, n) in enumerate(zip(starts.tolist(),
                                         sizes.tolist())):
            if not keep[si]:
                continue
            ii, jj = np.triu_indices(n, 1)
            ia.append(ii + st)
            ib.append(jj + st)
            segp.append(np.full(ii.size, si, np.int64))
        if not ia:
            return out_empty
        ia = np.concatenate(ia)
        ib = np.concatenate(ib)
        segp = np.concatenate(segp)
        dt = t[ib] - t[ia]
        ok = dt > 0                      # strict-time pairs only
        ia, ib, segp, dt = ia[ok], ib[ok], segp[ok], dt[ok]
        if ia.size == 0:
            return out_empty
        slope = (v[ib] - v[ia]).astype(np.float64) \
            / dt.astype(np.float64)
        order = np.lexsort((slope, segp))
        segp, slope = segp[order], slope[order]
        segu, seg_start = np.unique(segp, return_index=True)
        m = np.diff(np.append(seg_start, segp.size)).astype(np.int64)
        lo = seg_start + (m - 1) // 2
        hi = seg_start + m // 2
        med = slope[lo] * 0.5 + slope[hi] * 0.5
        return pd.DataFrame({
            key_col: k[starts[segu]],
            "n_points": sizes[segu],
            "n_slopes": m,
            "ts_slope": med})

    return keyed_sweep(ds.select_columns([key_col, t_col, v_col]),
                       key_col, sweep, num_partitions)


def class_rebalance(ds, class_col: str, id_col: str, target_n: int):
    """Deterministic CLASS REBALANCING to exactly ``target_n`` rows
    per class (the imbalanced-training-set fix): oversized classes
    undersample to the ``target_n`` rows with the smallest
    splitmix64(fnv1a(str(id))) hashes; undersized classes oversample
    WITH replacement — every row repeats target_n // n times and the
    first target_n %% n rows in hash order get one extra copy. Same
    keys in = same sample out, independent of block layout.

    ONE exchange: per-block partials keep at most target_n rows per
    class (bottom-k by hash — a superset of the global bottom-k) plus
    one exact per-block count sentinel; the per-class finisher ranks
    the survivors. Classes are dimension-like (the finisher holds one
    class at a time, <= target_n x blocks rows). Emits
    (id, class, copies int64) with copies >= 1 only — sum of copies
    per class == target_n exactly."""
    from tldr_ray.hashing import fnv1a_batch
    from tldr_ray.stages.dedup import _mix64

    def partial(batch: pa.Table) -> pa.Table:
        k = batch[id_col]
        if not (pa.types.is_string(k.type)
                or pa.types.is_large_string(k.type)):
            k = pc.cast(k, pa.string())
        h = _mix64(fnv1a_batch(k)).view(np.int64)   # order via uint view
        ids = np.asarray(batch[id_col], dtype=np.int64)
        cls = np.asarray(batch[class_col]).astype(object)
        codes, uniq = pd.factorize(pd.Series(cls))
        keep = np.zeros(len(batch), dtype=bool)
        hu = h.view(np.uint64)
        for ci in range(len(uniq)):
            m = np.flatnonzero(codes == ci)
            if m.size <= target_n:
                keep[m] = True
            else:
                sub = np.lexsort((ids[m], hu[m]))[:target_n]
                keep[m[sub]] = True
        t = pa.table({
            "id": pa.array(ids[keep]),
            "cls": pa.array(cls[keep].tolist(), pa.string()),
            "h": pa.array(h[keep]),
            "cnt": pa.array(np.zeros(int(keep.sum()), np.int64))})
        sent = pa.table({
            "id": pa.array(np.full(len(uniq), -1, np.int64)),
            "cls": pa.array(list(uniq), pa.string()),
            "h": pa.array(np.zeros(len(uniq), np.int64)),
            "cnt": pa.array(np.bincount(codes,
                                        minlength=len(uniq))
                            .astype(np.int64))})
        return pa.concat_tables([t, sent])

    def finish(group: pd.DataFrame) -> pd.DataFrame:
        sent = group["id"].to_numpy(np.int64) == -1
        n = int(group.loc[sent, "cnt"].sum())
        rows = group[~sent]
        ids = rows["id"].to_numpy(np.int64)
        hu = rows["h"].to_numpy(np.int64).view(np.uint64)
        order = np.lexsort((ids, hu))
        cls = rows["cls"].iloc[0] if len(rows) else None
        if n == 0 or not len(rows):
            return pd.DataFrame({
                "id": pd.array([], dtype="int64"),
                class_col: pd.array([], dtype=object),
                "copies": pd.array([], dtype="int64")})
        if n >= target_n:
            take = order[:target_n]
            return pd.DataFrame({
                "id": ids[take],
                class_col: pd.Series([cls] * target_n, dtype=object),
                "copies": np.ones(target_n, np.int64)})
        base = target_n // n
        extra = target_n % n
        copies = np.full(n, base, np.int64)
        copies[:extra] += 1
        take = order      # all rows survive the partials when n small
        return pd.DataFrame({
            "id": ids[take],
            class_col: pd.Series([cls] * n, dtype=object),
            "copies": copies})

    return (ds.select_columns([id_col, class_col])
            .map_batches(partial, batch_format="pyarrow")
            .groupby("cls")
            .map_groups(finish, batch_format="pandas"))


def kendall_mk_by_key(ds, key_col: str, t_col: str, v_col: str,
                      min_n: int = 3, max_n: int = 128,
                      num_partitions: int = 64):
    """Per-key KENDALL tau-b + Mann-Kendall trend statistic S over
    (t, v) pairs — the rank-pair companion of theil_sen_by_key (same
    gated quadratic skeleton, same 3..128-point HAVING-mirrored
    contract): over all C(n,2) pairs ordered by (t, id-order),
    C = concordant, D = discordant (neither tie), n1 = value-tied
    pairs, n2 = time-tied pairs, S = C - D, and
    tau_b = S / sqrt((n0-n1)*(n0-n2)) — exact int64 counts into one
    IEEE chain, so the floats hash-match. Emits
    (key, n, n_pairs, s_mk, n_tie_v, n_tie_t, tau_b)."""
    def sweep(group: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            key_col: pd.array([], dtype="int64"),
            "n": pd.array([], dtype="int64"),
            "n_pairs": pd.array([], dtype="int64"),
            "s_mk": pd.array([], dtype="int64"),
            "n_tie_v": pd.array([], dtype="int64"),
            "n_tie_t": pd.array([], dtype="int64"),
            "tau_b": pd.array([], dtype="float64")})
        if not len(group):
            return empty
        g = group.sort_values([key_col, t_col], kind="mergesort")
        k = g[key_col].to_numpy(np.int64)
        t = g[t_col].to_numpy(np.int64)
        v = g[v_col].to_numpy(np.int64)
        new = np.empty(k.size, dtype=bool)
        new[0], new[1:] = True, k[1:] != k[:-1]
        starts = np.flatnonzero(new)
        sizes = np.diff(np.append(starts, k.size)).astype(np.int64)
        keep = (sizes >= min_n) & (sizes <= max_n)
        ia, ib, segp = [], [], []
        for si, (st, n) in enumerate(zip(starts.tolist(),
                                         sizes.tolist())):
            if not keep[si]:
                continue
            ii, jj = np.triu_indices(n, 1)
            ia.append(ii + st)
            ib.append(jj + st)
            segp.append(np.full(ii.size, si, np.int64))
        if not ia:
            return empty
        ia = np.concatenate(ia)
        ib = np.concatenate(ib)
        segp = np.concatenate(segp)
        tie_t = t[ia] == t[ib]
        tie_v = v[ia] == v[ib]
        live = ~tie_t & ~tie_v
        dv = np.sign(v[ib] - v[ia])
        nseg_all = starts.size
        C = np.bincount(segp[live & (dv > 0)], minlength=nseg_all) \
            .astype(np.int64)
        D = np.bincount(segp[live & (dv < 0)], minlength=nseg_all) \
            .astype(np.int64)
        n1 = np.bincount(segp[tie_v], minlength=nseg_all) \
            .astype(np.int64)
        n2 = np.bincount(segp[tie_t], minlength=nseg_all) \
            .astype(np.int64)
        segu = np.unique(segp)
        n0 = (sizes * (sizes - 1) // 2)
        s = C - D
        den = (n0 - n1) * (n0 - n2)
        ok = den > 0
        tau = np.zeros(nseg_all, np.float64)
        np.divide(s.astype(np.float64),
                  np.sqrt(den.astype(np.float64)), out=tau, where=ok)
        m = np.zeros(nseg_all, dtype=bool)
        m[segu] = True
        m &= ok
        return pd.DataFrame({
            key_col: k[starts][m], "n": sizes[m], "n_pairs": n0[m],
            "s_mk": s[m], "n_tie_v": n1[m], "n_tie_t": n2[m],
            "tau_b": tau[m]})

    return keyed_sweep(ds.select_columns([key_col, t_col, v_col]),
                       key_col, sweep, num_partitions)


def pava_pool(n: np.ndarray, s: np.ndarray):
    """Pool-adjacent-violators over ordered blocks with counts ``n``
    and positive-label counts ``s``: the exact L2 isotonic (non-
    decreasing) fit of the per-block rates s/n. Every pooling DECISION
    is an integer cross-multiplication (s_prev * n_curr > s_curr *
    n_prev), so the pooled block structure is exact; each returned
    rate is ONE float division of exact int64 sums — by the minimax
    characterisation p(v) = max_{i<=v} min_{j>=v} ratio(i..j), that
    division is bit-identical to any other correctly-rounded division
    achieving the same rational optimum, which is what lets a SQL
    minimax mirror hash-match. Returns (pooled_rate float64 per input
    block, pool_n int64, pool_s int64 — the pooled sums each block
    belongs to)."""
    n = np.asarray(n, dtype=np.int64)
    s = np.asarray(s, dtype=np.int64)
    if (n <= 0).any():
        raise ValueError("pava_pool: every block needs n >= 1")
    stack_n: list[int] = []     # python ints: no overflow in products
    stack_s: list[int] = []
    stack_w: list[int] = []     # how many input blocks pooled
    for ni, si in zip(n.tolist(), s.tolist()):
        cn, cs, cw = ni, si, 1
        while stack_n and stack_s[-1] * cn >= cs * stack_n[-1]:
            cn += stack_n.pop()
            cs += stack_s.pop()
            cw += stack_w.pop()
        stack_n.append(cn)
        stack_s.append(cs)
        stack_w.append(cw)
    pool_n = np.repeat(np.array(stack_n, np.int64),
                       np.array(stack_w, np.int64))
    pool_s = np.repeat(np.array(stack_s, np.int64),
                       np.array(stack_w, np.int64))
    rate = pool_s.astype(np.float64) / pool_n.astype(np.float64)
    return rate, pool_n, pool_s


def hilbert_key_2d(x: np.ndarray, y: np.ndarray,
                   bits: int = 21) -> np.ndarray:
    """Hilbert-curve index of 2-D points — the locality-superior
    alternative to the Morton key (a Z-order jump can teleport across
    the space at quadrant boundaries; the Hilbert curve is a single
    continuous path, so every consecutive pair of keys is a grid
    NEIGHBOR and range reads touch fewer blocks). Vectorized level
    sweep of the classic quadrant rotate/reflect recurrence (Hamilton,
    "Compact Hilbert indices", and the standard xy2d formulation):
    per level s, d += s*s*((3*rx) XOR ry), then reflect within the
    quadrant (ry==0 & rx==1 -> coordinate complement) and swap axes
    (ry==0). Inputs must be non-negative and < 2^bits; 2*bits <= 62."""
    if 2 * bits > 62:
        raise ValueError("2*bits must fit int64")
    x = np.asarray(x, dtype=np.int64).copy()
    y = np.asarray(y, dtype=np.int64).copy()
    if (x < 0).any() or (y < 0).any():
        raise ValueError("hilbert_key_2d needs non-negative ints")
    if x.size and (int(x.max()) >= (1 << bits)
                   or int(y.max()) >= (1 << bits)):
        raise ValueError(f"coordinates exceed {bits} bits")
    d = np.zeros(x.size, dtype=np.int64)
    s = np.int64(1) << np.int64(bits - 1)
    one = np.int64(1)
    while s > 0:
        rx = ((x & s) > 0).astype(np.int64)
        ry = ((y & s) > 0).astype(np.int64)
        d += s * s * ((3 * rx) ^ ry)
        flip = (ry == 0) & (rx == 1)
        xf = np.where(flip, s - one - x, x)
        yf = np.where(flip, s - one - y, y)
        swap = ry == 0
        x = np.where(swap, yf, xf)
        y = np.where(swap, xf, yf)
        s >>= one
    return d


def hilbert_sort(ds, cols: list[str], bits: int = 21):
    """Append the 2-D Hilbert key over ``cols`` (exactly two) and
    range-partition-sort by it — the layout move of zorder_sort with
    strictly better locality (see hilbert_key_2d). Composes with
    sinks.build_zonemap / read_pruned the same way."""
    if len(cols) != 2:
        raise ValueError("hilbert_sort is 2-D; pass exactly two cols")

    def add_key(batch: pa.Table) -> pa.Table:
        x = np.asarray(batch[cols[0]], dtype=np.int64)
        y = np.asarray(batch[cols[1]], dtype=np.int64)
        return batch.append_column(
            "hkey", pa.array(hilbert_key_2d(x, y, bits)))

    return ds.map_batches(add_key, batch_format="pyarrow").sort("hkey")
