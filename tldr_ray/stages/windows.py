"""Event-time windowing stages (streaming-shaped ops on a batch engine).

Ray Data has no watermarks; these operators treat the input as an
ordered, partitioned log (ray_guide "Streaming-shaped workloads"):

- ``assign_tumbling``: vectorized bucket assignment — downstream
  ``groupby("window_start")`` is the aggregation.
- ``assign_sliding``: each event replicated to every covering window
  (size must be a multiple of step — k = size/step copies, emitted
  vectorized per batch, no Python row loop).
- ``session_windows``: per-key gap-based sessions with incremental
  state inside ordered ``map_groups`` (sorted by ts within the key).
- ``row_window``: per-key ordered analytic functions (row_number /
  lag / running integer sum / time delta) as one coarse shuffle +
  vectorized segment sweep.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from tldr_ray.hashing import keyed_sweep

_US = 1_000_000


def assign_tumbling(ds, ts_col: str = "ts", size_s: int = 3600,
                    keep: list[str] | None = None):
    """Add ``window_start`` (timestamp[us]) for tumbling windows."""
    size_us = size_s * _US

    def fn(batch: pa.Table) -> pa.Table:
        us = np.asarray(batch[ts_col].cast(pa.int64()))
        start = (us // size_us) * size_us
        # keep=[] means "only window_start"; None means "all columns"
        cols = {c: batch[c]
                for c in (batch.schema.names if keep is None else keep)}
        cols["window_start"] = pa.array(start).cast(pa.timestamp("us"))
        return pa.table(cols)

    return ds.map_batches(fn, batch_format="pyarrow")


def assign_sliding(ds, ts_col: str = "ts", size_s: int = 1800,
                   step_s: int = 900, keep: list[str] | None = None):
    """Replicate each event into its size_s/step_s covering windows."""
    if size_s % step_s:
        raise ValueError("size_s must be a multiple of step_s")
    k = size_s // step_s
    step_us = step_s * _US

    def fn(batch: pa.Table) -> pa.Table:
        us = np.asarray(batch[ts_col].cast(pa.int64()))
        base = us // step_us
        starts = np.concatenate([(base - i) * step_us for i in range(k)])
        cols = {}
        # keep=[] means "only window_start"; None means "all columns"
        for c in (batch.schema.names if keep is None else keep):
            col = batch[c]
            cols[c] = pa.concat_arrays([col.combine_chunks()] * k) \
                if isinstance(col, pa.ChunkedArray) else pa.concat_arrays([col] * k)
        cols["window_start"] = pa.array(starts).cast(pa.timestamp("us"))
        return pa.table(cols)

    return ds.map_batches(fn, batch_format="pyarrow")


def session_windows(ds, key_col: str = "user_id", ts_col: str = "ts",
                    gap_s: int = 1800, num_partitions: int = 64):
    """Per-key session assignment: (key, session_id 1-based, n_events,
    session_start, session_end).

    One COARSE shuffle on ``hash(key) % num_partitions``; each partition
    task sorts its rows once by (key, ts) and derives every key's
    sessions vectorized (boundary flags + segment reductions) — no
    per-key map_groups invocation overhead."""
    gap = np.timedelta64(gap_s, "s")

    def part_sessions(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values([key_col, ts_col])
        key = g[key_col].to_numpy()
        ts = g[ts_col].to_numpy()
        n = len(g)
        new_key = np.concatenate([[True], key[1:] != key[:-1]])
        gap_break = np.concatenate([[True], (ts[1:] - ts[:-1]) > gap])
        new_sess = new_key | gap_break
        starts = np.flatnonzero(new_sess)
        sizes = np.diff(np.concatenate([starts, [n]]))
        # 1-based session id per key = running session count since the
        # key's first session
        sess_no = np.cumsum(new_sess)                     # global, 1-based
        key_first_sess = sess_no[starts[new_key[starts]]]  # per key block
        key_of_sess = np.cumsum(new_key[starts]) - 1
        sid = sess_no[starts] - key_first_sess[key_of_sess] + 1
        ends = np.concatenate([starts[1:], [n]]) - 1
        return pd.DataFrame(
            {
                key_col: key[starts],
                "session_id": sid.astype(np.int64),
                "n_events": sizes.astype(np.int64),
                "session_start": ts[starts],
                "session_end": ts[ends],
            }
        )

    return keyed_sweep(ds.select_columns([key_col, ts_col]), key_col,
                       part_sessions, num_partitions)


def funnel(ds, key_col: str, ts_col: str, type_col: str,
           steps: list[str], num_partitions: int = 64):
    """Ordered funnel analysis: for each key, walk ``steps`` in
    sequence — step i matches the EARLIEST event of that type strictly
    after the matched step i-1 timestamp. Emits one row per distinct
    key: (key, stage_reached int64, ts_<step> int64 microseconds, -1
    where the funnel stopped).

    One coarse shuffle on ``hash(key) % num_partitions``; each
    partition task sorts once by (key, ts) and then runs len(steps)
    vectorized passes (mask + per-segment ``minimum.reduceat``) — no
    per-key work, no row loop, O(rows * steps) total."""
    _MAX = np.iinfo(np.int64).max

    def sweep(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values([key_col, ts_col], kind="mergesort")
        key = g[key_col].to_numpy()
        ts = g[ts_col].to_numpy()
        if np.issubdtype(ts.dtype, np.datetime64):
            ts = ts.astype("datetime64[us]").astype(np.int64)
        # factorize once: step matching below is int-code compares,
        # not per-row string equality
        typ_codes, typ_uniq = pd.factorize(g[type_col].to_numpy())
        step_code = {s: i for i, s in enumerate(typ_uniq)}
        n = len(g)
        new = np.empty(n, dtype=bool)
        if n:
            new[0], new[1:] = True, key[1:] != key[:-1]
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        nkeys = len(starts)
        cur = np.full(nkeys, np.iinfo(np.int64).min)
        out = {key_col: key[starts]}
        reached = np.zeros(nkeys, dtype=np.int64)
        for s in steps:
            sc = step_code.get(s, -1)
            cand = np.where((typ_codes == sc) & (ts > cur[seg]), ts,
                            _MAX)
            step_t = (np.minimum.reduceat(cand, starts)
                      if n else np.array([], np.int64))
            hit = step_t != _MAX
            reached += hit
            out[f"ts_{s}"] = np.where(hit, step_t, -1)
            cur = np.where(hit, step_t, _MAX)   # _MAX: no later match
        out["stage_reached"] = reached
        return pd.DataFrame(out)

    return keyed_sweep(ds.select_columns([key_col, ts_col, type_col]), key_col,
                       sweep, num_partitions)


def cohort_retention(ds, key_col: str = "user_id", ts_col: str = "ts",
                     bucket_s: int = 604800, num_partitions: int = 64):
    """Cohort retention: bucket each key by its FIRST event
    (cohort = floor(first_ts / bucket_s)), then count distinct keys
    active at each bucket offset from their cohort. Output
    (cohort_bucket int64, bucket_offset int64, n_keys int64) — the
    classic retention triangle.

    One coarse shuffle on hash(key): each partition task sorts by
    (key, ts) once, reads the cohort off each segment head, derives
    (cohort, offset) per row vectorized and emits the partition's
    DISTINCT (cohort, offset, key) triples (a combiner — at most one
    row per key per active bucket); a small global groupby count
    finishes."""
    from ray.data.aggregate import Sum

    div = np.int64(bucket_s) * np.int64(1_000_000)

    def sweep(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values([key_col, ts_col], kind="mergesort")
        key = g[key_col].to_numpy()
        ts = g[ts_col].to_numpy()
        if np.issubdtype(ts.dtype, np.datetime64):
            ts = ts.astype("datetime64[us]").astype(np.int64)
        n = len(g)
        new = np.empty(n, dtype=bool)
        if n:
            new[0], new[1:] = True, key[1:] != key[:-1]
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        bucket = ts // div
        cohort = bucket[starts][seg]
        off = bucket - cohort
        tri = np.unique(np.stack(
            [cohort, off, seg.astype(np.int64)], axis=1), axis=0)
        return pd.DataFrame({"cohort_bucket": tri[:, 0],
                             "bucket_offset": tri[:, 1],
                             "n_keys": np.ones(len(tri), np.int64)})

    return (
        keyed_sweep(ds.select_columns([key_col, ts_col]), key_col, sweep,
                    num_partitions)
        .groupby(["cohort_bucket", "bucket_offset"])
        .aggregate(Sum("n_keys", alias_name="n_keys"))
    )


def row_window(ds, key_col: str, order_cols: list[str],
               lag_cols: tuple[str, ...] = (),
               cumsum_cols: tuple[str, ...] = (),
               rolling_sums: tuple[tuple[str, int], ...] = (),
               delta_col: str | None = None, pct_rank: bool = False,
               num_partitions: int = 64):
    """Per-key ordered analytic functions (SQL ``OVER (PARTITION BY key
    ORDER BY ...)``) as ONE coarse shuffle + a vectorized segment sweep:
    shuffle on ``hash(key) % num_partitions``, sort each partition once
    by (key, *order_cols), then derive every function with boundary
    flags + index arithmetic — no per-key invocations, no row loop.

    Emits (key, *order_cols, rn int64 1-based, lag_<c> per lag col,
    cum_<c> per cumsum col, roll<k>_<c> per (c, k) rolling-sum spec
    (SQL ``ROWS BETWEEN k PRECEDING AND CURRENT ROW``),
    delta_<delta_col>). Null-free by design:
    first-in-partition lag/delta values are -1 so every output column
    stays integer-typed and DuckDB-hash-stable (``coalesce(lag(x)
    OVER w, -1)`` on the oracle side). ``cumsum_cols`` must be integer
    (running float sums are not association-free; convert money to
    cents upstream — repo invariant). ``order_cols`` must uniquely
    order rows within a key or the permutation is undefined.

    Scale note: only key + referenced columns enter the shuffle, and
    each output row is emitted exactly once — the sweep is O(rows) with
    a single sort per partition task, the same discipline as
    ``session_windows``/``grouped_quantiles``."""
    need = [key_col, *order_cols,
            *dict.fromkeys([*lag_cols, *cumsum_cols,
                            *(c for c, _ in rolling_sums),
                            *( [delta_col] if delta_col else [] )])]
    need = list(dict.fromkeys(need))

    def sweep(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values([key_col, *order_cols], kind="mergesort")
        key = g[key_col].to_numpy()
        n = len(g)
        new = np.empty(n, dtype=bool)
        if n:
            new[0], new[1:] = True, key[1:] != key[:-1]
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1                    # segment id per row
        out = {key_col: key}
        for c in order_cols:
            out[c] = g[c].to_numpy()
        out["rn"] = (np.arange(n, dtype=np.int64)
                     - starts[seg] + 1) if n else np.array([], np.int64)
        if pct_rank:
            # SQL percent_rank(): (rn-1)/(group_n-1), 0.0 for a
            # single-row group — one IEEE division on exact ints
            gsize = (np.diff(np.append(starts, n))[seg]
                     if n else np.array([], np.int64))
            out["pct_rank"] = np.where(
                gsize > 1,
                (out["rn"] - 1).astype(np.float64)
                / np.maximum(gsize - 1, 1).astype(np.float64), 0.0)
        for c in lag_cols:
            v = g[c].to_numpy()
            lag = np.empty_like(v)
            if n:
                lag[1:] = v[:-1]
            lag[new] = -1
            out[f"lag_{c}"] = lag
        for c in cumsum_cols:
            v = g[c].to_numpy()
            if not np.issubdtype(v.dtype, np.integer):
                raise TypeError(
                    f"cumsum col {c!r} must be integer (got {v.dtype}); "
                    "running float sums are not association-free")
            cum = np.cumsum(v)
            base = np.where(starts > 0, cum[starts - 1], 0)
            out[f"cum_{c}"] = cum - base[seg]
        for c, kk in rolling_sums:
            v = g[c].to_numpy()
            if not np.issubdtype(v.dtype, np.integer):
                raise TypeError(
                    f"rolling col {c!r} must be integer (got {v.dtype})")
            cum = np.cumsum(v)
            seg_base = np.where(starts > 0, cum[starts - 1], 0)
            pos = np.arange(n, dtype=np.int64) - starts[seg]
            prev_idx = np.maximum(np.arange(n, dtype=np.int64)
                                  - (kk + 1), 0)
            # window fully inside the segment once pos >= kk+1
            base = np.where(pos >= kk + 1, cum[prev_idx],
                            seg_base[seg])
            out[f"roll{kk}_{c}"] = cum - base
        if delta_col is not None:
            v = g[delta_col].to_numpy()
            if np.issubdtype(v.dtype, np.datetime64):
                v = v.astype("datetime64[us]").astype(np.int64)
            d = np.empty_like(v)
            if n:
                d[1:] = v[1:] - v[:-1]
            d[new] = -1
            out[f"delta_{delta_col}"] = d
        return pd.DataFrame(out)

    return keyed_sweep(ds.select_columns(need), key_col, sweep, num_partitions)


def time_rolling_sum(ds, key_col: str, ts_col: str, value_col: str,
                     window_us: int, extra_cols: tuple[str, ...] = (),
                     num_partitions: int = 64):
    """Per-key TIME-RANGE trailing sum — SQL ``sum(v) OVER (PARTITION
    BY key ORDER BY ts RANGE BETWEEN <window> PRECEDING AND CURRENT
    ROW)`` — the complement of ``row_window``'s ROWS-based rolling
    sums. One coarse shuffle on hash(key), one sort per partition,
    then two vectorized searchsorteds per segment give each row's
    window bounds:

    - start = first index with ts >= ts_i - window (LEFT bisect), so
      the bound row is INCLUDED, matching SQL RANGE semantics;
    - end   = last index with ts == ts_i (RIGHT bisect): SQL RANGE
      windows include the current row's PEERS (equal-ts rows later in
      the sort), which a naive cumsum-to-self would miss.

    Segments are isolated by offsetting each key's timestamps into a
    disjoint numeric band before one GLOBAL pair of searchsorteds — no
    per-key Python loop. ``value_col`` must be integer (exact-cents
    rule: a running float sum is not association-free).
    Emits (key, ts, value, *extra_cols, rolling_sum int64)."""
    need = list(dict.fromkeys(
        [key_col, ts_col, value_col, *extra_cols]))

    def sweep(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values([key_col, ts_col], kind="mergesort")
        n = len(g)
        ts = g[ts_col].to_numpy()
        if np.issubdtype(ts.dtype, np.datetime64):
            ts = ts.astype("datetime64[us]").astype(np.int64)
        else:
            ts = ts.astype(np.int64)
        v = g[value_col].to_numpy()
        if not np.issubdtype(v.dtype, np.integer):
            raise TypeError(
                f"value col {value_col!r} must be integer "
                "(exact-cents rule)")
        key = g[key_col].to_numpy()
        new = np.empty(n, dtype=bool)
        if n:
            new[0] = True
            new[1:] = key[1:] != key[:-1]
        seg = np.cumsum(new) - 1                 # segment id per row
        # place each segment in a disjoint band so ONE global
        # searchsorted respects key boundaries; spans are per-key so
        # bands never collide
        base = ts - np.repeat(ts[new], np.bincount(seg))   # >= 0
        span = np.int64(2) * (window_us + 1) + \
            (base.max() if n else 0)
        if n and int(seg[-1]) * int(span) >= (1 << 62):
            raise OverflowError(
                "segment banding would overflow int64 — shrink "
                "num_partitions or the per-key time span")
        banded = seg * span + base + window_us + 1
        start = np.searchsorted(banded, banded - window_us, side="left")
        end = np.searchsorted(banded, banded, side="right")
        cum = np.concatenate([[0], np.cumsum(v.astype(np.int64))])
        out = {key_col: key, ts_col: g[ts_col].to_numpy(),
               value_col: v}
        for c in extra_cols:
            out[c] = g[c].to_numpy()
        out["rolling_sum"] = cum[end] - cum[start]
        return pd.DataFrame(out)

    return keyed_sweep(ds.select_columns(need), key_col, sweep, num_partitions)


def watermark_filter(ds, id_col: str, ts_col: str, lateness_us: int,
                     num_parts: int = 64, id_max: int | None = None):
    """Event-time WATERMARK with allowed lateness over a replayed log:
    rows arrive in ``id_col`` order (the deterministic stand-in for a
    stream's arrival order), the watermark after each arrival is
    ``max(ts so far) - lateness``, and a row is DROPPED iff its ts has
    already fallen behind the watermark — exactly the rule a streaming
    engine applies before closing an event-time window. The running
    max over a global order is the same two-pass distributed scan as
    ``agg.pack_token_shards``: range-partition by id (order-preserving
    across partitions), per-partition ts max -> O(P) driver exclusive
    prefix-max -> per-partition sort + vectorized running max seeded
    with the prefix. Adds ``__late`` (bool); downstream filters it and
    windows as usual. Deterministic, layout-independent, and
    SQL-mirrorable as a window function (max ts OVER id order)."""
    from ray.data.aggregate import Max

    if id_max is None:
        id_max = int(ds.max(id_col))
    span = int(id_max) + 1

    # part = id // ceil(span/P), not id*P//span: the latter overflows
    # int64 when the order key uses the full 63-bit hash range
    width = (span + num_parts - 1) // num_parts

    def assign(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch[id_col], dtype=np.int64)
        part = (ids // width).astype(np.int32)
        b = batch
        if pa.types.is_timestamp(b[ts_col].type):
            b = b.set_column(b.schema.get_field_index(ts_col), ts_col,
                             b[ts_col].cast(pa.int64()))
        return b.append_column("__part", pa.array(part))

    parted = ds.map_batches(assign, batch_format="pyarrow")

    totals = parted.groupby("__part").aggregate(
        Max(ts_col, alias_name="mx")).to_pandas()
    pmax = np.full(num_parts, np.iinfo(np.int64).min, np.int64)
    pmax[totals["__part"].to_numpy()] = totals["mx"].to_numpy(np.int64)
    prefix = np.concatenate(
        [[np.iinfo(np.int64).min], np.maximum.accumulate(pmax)[:-1]])

    def sweep(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(id_col)
        ts = g[ts_col].to_numpy(np.int64)
        seed = prefix[int(g["__part"].iloc[0])]
        run = np.maximum.accumulate(np.maximum(ts, seed))
        late = ts < run - np.int64(lateness_us)
        out = g.drop(columns=["__part"]).copy()
        out["__late"] = late
        return out

    return parted.groupby("__part").map_groups(sweep,
                                               batch_format="pandas")


def _segmented_cummin(P: np.ndarray, seg: np.ndarray,
                      n_segs: int) -> np.ndarray:
    """Running minimum of ``P`` restarting at each segment boundary
    (``seg`` is the 0-based non-decreasing segment id per row).
    Vectorized via the descending-offset trick — shift each segment
    down by ``seg * span`` so an earlier segment's values can never be
    the running min inside a later one, min-accumulate globally, shift
    back. Falls back to a per-SEGMENT (not per-row) loop when the
    shifted values would leave int64."""
    if P.size == 0:
        return P.copy()
    span = np.int64(int(P.max()) - int(P.min()) + 1)
    if int(n_segs) * int(span) < (1 << 62):
        off = seg.astype(np.int64) * span
        return np.minimum.accumulate(P - off) + off
    out = np.empty_like(P)
    starts = np.flatnonzero(np.diff(seg, prepend=seg[0] - 1))
    bounds = np.append(starts, P.size)
    for i in range(starts.size):
        s, e = bounds[i], bounds[i + 1]
        out[s:e] = np.minimum.accumulate(P[s:e])
    return out


def cusum_scan(ds, key_col: str, order_col: str, value_col: str,
               drift_col: str, num_partitions: int = 64):
    """Per-key one-sided CUSUM change-point statistic over an ordered
    integer series (Page 1954): ``S_t = max(0, S_{t-1} + x_t - k_t)``,
    computed in closed form as ``S_t = P_t - min(0, min_{j<=t} P_j)``
    with ``P`` the prefix sum of ``x - k`` — so the whole scan is ONE
    coarse shuffle + a vectorized segment sweep (the ``row_window``
    discipline: shuffle on hash(key), one sort per partition task, no
    per-key invocations). All arithmetic is exact int64: ``value_col``
    and ``drift_col`` must be integers (counts, cents), which is what
    makes the statistic SQL-hash-stable — the mirror is a window SUM
    plus a window MIN, never a float mean. Emits (key, order, x,
    cusum). Alarm thresholding (``cusum > h``) is the caller's one
    extra vectorized comparison."""
    def sweep(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values([key_col, order_col], kind="mergesort")
        key = g[key_col].to_numpy()
        n = len(g)
        x = g[value_col].to_numpy()
        k = g[drift_col].to_numpy()
        if not (np.issubdtype(x.dtype, np.integer)
                and np.issubdtype(k.dtype, np.integer)):
            raise TypeError(
                f"cusum needs integer value/drift cols (got {x.dtype},"
                f" {k.dtype}); float prefix sums are not"
                " association-free")
        new = np.empty(n, dtype=bool)
        if n:
            new[0], new[1:] = True, key[1:] != key[:-1]
        seg = np.cumsum(new) - 1
        starts = np.flatnonzero(new)
        d = x.astype(np.int64) - k.astype(np.int64)
        cum = np.cumsum(d)
        base = np.where(starts > 0, cum[starts - 1], 0)
        P = cum - base[seg]                     # per-segment prefix
        runmin = _segmented_cummin(P, seg, starts.size)
        s_val = P - np.minimum(runmin, 0)
        return pd.DataFrame({
            key_col: key,
            order_col: g[order_col].to_numpy(),
            value_col: x,
            drift_col: k,
            "cusum": s_val})

    return keyed_sweep(
        ds.select_columns([key_col, order_col, value_col, drift_col]), key_col,
        sweep, num_partitions)


def scd2_intervals(ds, key_col: str, ts_col: str, tie_col: str,
                   keep: list[str], num_partitions: int = 64):
    """Slowly-changing-dimension TYPE-2 build from a change log: each
    change row becomes one validity interval — ``eff_from`` = its own
    timestamp, ``eff_to`` = the key's NEXT change (null on the latest
    change), ``is_current`` on the latest change per key.

    One coarse shuffle on ``hash(key) % num_partitions``; each
    partition task sorts (key, ts, tie) once and derives ``eff_to`` as
    an index shift against segment-end flags — no per-key invocations,
    no window engine. ``tie_col`` (a unique id) makes the order — and
    therefore the interval endpoints — deterministic when a key changes
    twice in the same microsecond. 100-TB shape: rows move exactly
    once, partition tasks hold one coarse slice each, output streams.
    """
    def sweep(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values([key_col, ts_col, tie_col],
                              kind="mergesort")
        key = g[key_col].to_numpy()
        last = np.empty(len(g), dtype=bool)
        if len(g):
            last[:-1] = key[1:] != key[:-1]
            last[-1] = True
        eff_to = g[ts_col].shift(-1)
        eff_to[last] = pd.NaT
        out = pd.DataFrame({key_col: key})
        for c in keep:
            out[c] = g[c].to_numpy()
        out["eff_from"] = g[ts_col].to_numpy()
        out["eff_to"] = eff_to.to_numpy()
        out["is_current"] = last
        return out

    cols = [key_col, ts_col, tie_col] + [c for c in keep
                                         if c not in (key_col, ts_col,
                                                      tie_col)]
    return keyed_sweep(ds.select_columns(list(dict.fromkeys(cols))), key_col,
                       sweep, num_partitions)


def rolling_median(ds, key_col: str, order_cols: list[str],
                   value_col: str, k: int, num_partitions: int = 64):
    """Per-key ROWS-window median (SQL ``median(v) OVER (PARTITION BY
    key ORDER BY ... ROWS BETWEEN k-1 PRECEDING AND CURRENT ROW)``) —
    the NONLINEAR complement of ``row_window``'s rolling sums, which a
    prefix-scan can't express. Same one-coarse-shuffle discipline:
    hash(key) %% num_partitions, one sort per partition, then pandas'
    C rolling-median kernel (skip-list, O(n log k)) per contiguous key
    run — no per-key invocations.

    ``value_col`` must be integer (cents upstream — repo invariant):
    the interpolated median of ints is exactly x.0 or x.5, so the
    float output hash-matches DuckDB's ``median()`` window as long as
    values stay below 2^52. ``order_cols`` must uniquely order rows
    within a key. Emits (key, *order_cols, value, roll_median)."""
    need = list(dict.fromkeys([key_col, *order_cols, value_col]))

    def sweep(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values([key_col, *order_cols], kind="mergesort")
        v = g[value_col].to_numpy()
        if len(g) and not np.issubdtype(v.dtype, np.integer):
            raise TypeError(
                f"rolling-median col {value_col!r} must be integer "
                f"(got {v.dtype}); convert money to cents upstream")
        out = {key_col: g[key_col].to_numpy()}
        for c in order_cols:
            out[c] = g[c].to_numpy()
        out[value_col] = v
        med = (g.groupby(key_col, sort=False)[value_col]
               .rolling(k, min_periods=1).median()
               .to_numpy(np.float64)) if len(g) else \
            np.array([], np.float64)
        out["roll_median"] = med
        return pd.DataFrame(out)

    return keyed_sweep(ds.select_columns(need), key_col, sweep, num_partitions)


def rolling_ols_slope(ds, key_col: str, order_cols: list[str],
                      t_col: str, v_col: str, k: int,
                      num_partitions: int = 64):
    """Per-key trailing-k-row OLS slope (the rolling TREND monitor —
    linear complement of rolling_median): for each row, the
    least-squares slope of (t, v) over the window ``ROWS BETWEEN k-1
    PRECEDING AND CURRENT ROW``, computed from four exact integer
    prefix sums (St, Sv, Stt, Stv) — one segment cumsum pass, no
    per-window loops. slope = (w*Stv - St*Sv) / (w*Stt - St*St), ONE
    float chain mirrored token-for-token in SQL window SUMs.

    int64 bounds: callers must REBASE ``t_col`` (e.g. seconds since
    the key's first point) so w*Stt and St*St stay under 2^63 —
    epoch-microseconds squared do NOT fit. Both columns must be
    integer. Windows with zero time variance emit slope 0.0 with
    has_slope=false (mirror: CASE WHEN den > 0). Emits
    (key, *order_cols, t, v, slope float64, has_slope bool)."""
    need = list(dict.fromkeys([key_col, *order_cols, t_col, v_col]))

    def sweep(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values([key_col, *order_cols], kind="mergesort")
        n = len(g)
        t = g[t_col].to_numpy()
        v = g[v_col].to_numpy()
        if n and not (np.issubdtype(t.dtype, np.integer)
                      and np.issubdtype(v.dtype, np.integer)):
            raise TypeError(
                f"rolling-OLS cols {t_col!r}/{v_col!r} must be integer "
                f"(got {t.dtype}/{v.dtype}); rebase upstream")
        key = g[key_col].to_numpy()
        new = np.empty(n, dtype=bool)
        if n:
            new[0], new[1:] = True, key[1:] != key[:-1]
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1

        def wsum(x):
            cum = np.cumsum(x, dtype=np.int64)
            seg_base = np.where(starts > 0, cum[starts - 1], 0)
            pos = np.arange(n, dtype=np.int64) - starts[seg]
            prev = np.maximum(np.arange(n, dtype=np.int64) - k, 0)
            base = np.where(pos >= k, cum[prev], seg_base[seg])
            return cum - base

        st = wsum(t)
        sv = wsum(v)
        stt = wsum(t * t)
        stv = wsum(t * v)
        pos = (np.arange(n, dtype=np.int64) - starts[seg]) if n \
            else np.array([], np.int64)
        w = np.minimum(pos + 1, k)
        num = w * stv - st * sv
        den = w * stt - st * st
        has = den > 0
        slope = np.where(has, num.astype(np.float64)
                         / np.where(has, den, 1).astype(np.float64),
                         0.0)
        out = {key_col: key}
        for c in order_cols:
            out[c] = g[c].to_numpy()
        out[t_col] = t
        out[v_col] = v
        out["slope"] = slope
        out["has_slope"] = has
        return pd.DataFrame(out)

    return keyed_sweep(ds.select_columns(need), key_col, sweep, num_partitions)
