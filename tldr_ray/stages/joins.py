"""Join strategies (SURVEY.md §2.4 + ray_guide join patterns).

- ``fits_broadcast`` / ``lookup``: THE broadcast-or-shuffle gate. A
  keyed lookup counts its small side once; within
  ``BROADCAST_BUDGET_ROWS`` that side rides the object store once
  (``ray.put``) and every task probes it with Arrow ``index_in`` — no
  shuffle; past the budget it becomes a bucketed hash/semi/anti join.
- ``bucketed_hash_join``: both sides large — add ``bucket =
  part_key(key, B)`` to each side, tag provenance, union,
  ``groupby(bucket)``, and join matching buckets pairwise inside
  ``map_groups`` with a pandas merge.
  One shuffle per side, no driver materialization. B sizes bucket
  working sets; skewed keys split across batches only inflate a single
  bucket, so pick B >> #workers for hot-key smoothing.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from tldr_ray.hashing import keyed_sweep, part_key

# Rows a table may have and still be shipped whole to every task
# (2M rows ~= 32 MB packed: one worker holds it comfortably).
BROADCAST_BUDGET_ROWS = 2_000_000


def fits_broadcast(ds) -> bool:
    """The one broadcast-or-shuffle gate: COUNT ``ds`` against
    ``BROADCAST_BUDGET_ROWS`` (read at call time, so a test can lower
    it to force every shuffle path). Pass a materialized Dataset — the
    count is then a metadata lookup, not a run of its pipeline."""
    return ds.count() <= BROADCAST_BUDGET_ROWS


def lookup(ds, dim, on: str, how: str = "inner"):
    """Keyed lookup of ``ds`` rows in the table ``dim`` on column ``on``:

    - ``"inner"``: keep the rows whose key is in ``dim`` and append
      ``dim``'s other columns (their names must not clash with
      ``ds``'s, and ``dim``'s keys must be unique);
    - ``"semi"``: keep the rows whose key is in ``dim``;
    - ``"anti"``: keep the rows whose key is not in ``dim``.

    ``dim`` is materialized and counted once. While it fits the gate
    it ships to every task once and each batch probes it with Arrow
    ``index_in`` + ``take`` (any key type; the probe column is cast to
    ``dim``'s key type). Past the gate the lookup runs as
    ``bucketed_hash_join`` / ``bucketed_semi_join`` /
    ``bucketed_anti_join``. Both paths give the same rows."""
    import ray

    if how not in ("inner", "semi", "anti"):
        raise ValueError(f"lookup how must be inner/semi/anti, not {how!r}")
    keep = [on] if how != "inner" else None
    # an Arrow pass, not select_columns: Ray's select_columns leaves 0-row
    # blocks unprojected, and their stale columns would reach the schema
    # the shuffle joins read; map_batches drops those blocks
    dim = dim.map_batches(lambda t: t.select(keep) if keep else t,
                          batch_format="pyarrow").materialize()
    if not fits_broadcast(dim):
        if ds.schema() is None:
            # an empty Dataset can lose its schema (e.g. in a
            # repartition): no rows, and no columns for the joins to read
            return ds
        join = {"inner": bucketed_hash_join, "semi": bucketed_semi_join,
                "anti": bucketed_anti_join}[how]
        return join(ds, dim, on)
    tables = [t for t in ray.get(dim.to_arrow_refs()) if t.num_rows]
    if tables:
        t = pa.concat_tables(tables, promote_options="default")
    else:
        sch = dim.schema()
        base = getattr(sch, "base_schema", None) if sch else None
        t = base.empty_table() if base is not None else \
            pa.table({on: pa.array([], pa.null())})
    ref = ray.put((t[on].combine_chunks(), t.drop_columns([on])))

    def probe(batch: pa.Table) -> pa.Table:
        keys, vals = ray.get(ref)
        key = batch[on]
        if len(keys) == 0:
            idx = pa.nulls(len(batch), pa.int32())
        else:
            idx = pc.index_in(key if key.type == keys.type
                              else key.cast(keys.type), value_set=keys)
        if how == "anti":
            return batch.filter(pc.is_null(idx))
        hit = pc.is_valid(idx)
        out = batch.filter(hit)
        if how == "inner":
            idx = idx.filter(hit)
            for c in vals.column_names:
                out = out.append_column(c, vals[c].take(idx))
        return out

    return ds.map_batches(probe, batch_format="pyarrow")


def _arrow_types(*datasets) -> dict:
    """Column name -> Arrow type over the datasets' schemas (first one
    wins): the types a tagged union null-fills a side's missing columns
    with, so both sides of the union agree on the schema. Ray Schema
    types may hold non-Arrow entries (numpy dtypes from pandas-born
    blocks) and an empty Dataset may have no schema; those fill as
    untyped nulls."""
    types = {}
    for sch in filter(None, (ds.schema() for ds in datasets)):
        for n, t in zip(sch.names, sch.types):
            if isinstance(t, pa.DataType):
                types.setdefault(n, t)
    return types


def _tag(side: str, cols: list[str], types: dict):
    """Batch fn of a tagged union: the batch's ``cols`` in order (the
    ones it lacks as nulls typed by ``types``) plus a ``__side`` tag."""
    def fn(batch: pa.Table) -> pa.Table:
        n = len(batch)
        have = batch.column_names
        out = {c: batch[c] if c in have else pa.nulls(n, types.get(c))
               for c in cols}
        out["__side"] = pa.array([side] * n)
        return pa.table(out)
    return fn


def _tagged_union(left, right, cols: list[str], types: dict,
                  sides=("l", "r")):
    """``left`` and ``right`` as one Dataset over ``cols`` + ``__side``,
    ready for one keyed shuffle; every block has the same schema."""
    return left.map_batches(_tag(sides[0], cols, types),
                            batch_format="pyarrow").union(
        right.map_batches(_tag(sides[1], cols, types),
                          batch_format="pyarrow"))


def _int_cols(schema) -> list[str]:
    import pyarrow.types as pat

    # Ray Schema.types may hold non-Arrow entries (e.g. numpy dtypes from
    # pandas-born blocks); only Arrow DataTypes are inspected
    return [n for n, t in zip(schema.names, schema.types)
            if isinstance(t, pa.DataType) and pat.is_integer(t)]


def _restore_ints(df: pd.DataFrame, int_cols: list[str]) -> pd.DataFrame:
    """Undo the int -> float64 promotion the null-filled union schema
    causes (a float64 join key hashes/merges differently than the int64
    it started as)."""
    for c in int_cols:
        if c in df.columns and df[c].dtype.kind == "f":
            df[c] = df[c].astype(np.int64)
    return df


def detect_hot_keys(ds, on: str, num_buckets: int = 64,
                    hot_factor: float = 1.0, max_hot: int = 64,
                    candidates_per_batch: int = 8) -> list:
    """One cheap streaming pass over the key column that surfaces keys
    whose row count alone exceeds ``hot_factor`` × a bucket's fair
    share (total / num_buckets) — the keys a hash-bucket exchange
    cannot spread no matter how large ``num_buckets`` is.

    Per-batch each block nominates its local top
    ``candidates_per_batch`` values plus its row count (a key holding
    ≥ 1/num_buckets of the corpus is a local heavy hitter in nearly
    every block, so the nomination stream catches it); the tiny
    candidate union is summed with one small groupby. Only
    O(candidates_per_batch) rows per block move — never the key
    column itself. Missing a marginal key is harmless (that bucket is
    merely slow); a false positive only costs a few replicated rows.
    """
    def nominate(batch: pa.Table) -> pa.Table:
        vc = batch[on].to_pandas().value_counts()
        top = vc.head(candidates_per_batch)
        k = pa.array(top.index, type=batch[on].type)
        tot = np.zeros(len(top), np.int64)
        if len(tot):
            tot[0] = len(batch)
        return pa.table({"__k": k,
                         "__n": pa.array(top.to_numpy(np.int64)),
                         "__tot": pa.array(tot)})

    cand = (ds.select_columns([on])
            .map_batches(nominate, batch_format="pyarrow")
            .groupby("__k").sum(["__n", "__tot"]).to_pandas())
    if not len(cand):
        return []
    total = int(cand["sum(__tot)"].sum())
    thresh = max(1.0, hot_factor * total / num_buckets)
    hot = cand[cand["sum(__n)"] > thresh]
    hot = hot.sort_values("sum(__n)", ascending=False).head(max_hot)
    return hot["__k"].tolist()


def bucketed_hash_join(left, right, on: str, num_buckets: int = 64,
                       how: str = "inner", suffixes=("_l", "_r"),
                       skew=False, salt_buckets: int = 16):
    """Partitioned hash join of two Datasets on one key column.

    The two sides are aligned to a common superset schema (missing
    columns null-filled) so they can be unioned into one shuffle; each
    bucket group splits back into sides by provenance and merges with
    pandas. Column lists are captured up front — no all-null guessing.

    ``skew`` — hot-KEY handling (a single Zipf-head key lands in one
    bucket task however large ``num_buckets`` is):

    - ``False`` (default): plain hash buckets.
    - ``True``: run :func:`detect_hot_keys` over BOTH key columns
      first (two extra cheap passes — note a *derived* Dataset
      re-executes its lineage for that pass; pre-``materialize()`` or
      pass explicit keys if that lineage is expensive).
    - a list of key values: treat exactly those as hot on the LEFT,
      no extra pass (back-compatible).
    - a dict ``{"left": [...], "right": [...]}``: explicit hot keys
      per side.

    LEFT-hot keys take the replicate-right / salted-left path: each
    hot LEFT row is salted across ``salt_buckets`` consecutive buckets
    while the hot keys' RIGHT rows are replicated into all of them, so
    every left row still sees its key's full right side exactly once.
    RIGHT-hot keys (a key whose right side fans out — the large-large
    Q12 shape) take the mirror path: their RIGHT rows are salted
    across the sub-buckets and their LEFT rows replicated into all of
    them; under ``how="left"`` those replicated rows merge INNER per
    bucket (a right-hot key by definition has right rows, so a
    replicated left row matches somewhere — null-padding in the other
    replicas would duplicate it). A key hot on BOTH sides stays on the
    left-hot path. Exact for ``how`` in ("inner", "left"); explicit
    right-hot keys MUST exist on the right side.
    """
    lcols = [c for c in left.schema().names]
    rcols = [c for c in right.schema().names]
    lints = _int_cols(left.schema())
    rints = _int_cols(right.schema())
    shared_extra = (set(lcols) & set(rcols)) - {on}
    all_cols = list(dict.fromkeys(lcols + rcols))
    types = _arrow_types(left, right)

    lhot, rhot = [], []
    if skew is True:
        lhot = detect_hot_keys(left, on, num_buckets=num_buckets)
        rhot = detect_hot_keys(right, on, num_buckets=num_buckets)
    elif isinstance(skew, dict):
        lhot = list(skew.get("left", []))
        rhot = list(skew.get("right", []))
    elif skew:
        lhot = list(skew)
    rhot = [k for k in rhot if k not in set(lhot)]  # both-hot -> left path
    if (lhot or rhot) and how not in ("inner", "left"):
        raise ValueError(
            f"skew handling supports how='inner'/'left', not {how!r}")
    S = max(1, min(int(salt_buckets), num_buckets))
    lhot_set, rhot_set = tuple(lhot), tuple(rhot)

    def _member(batch: pa.Table, keys: tuple) -> np.ndarray:
        if not keys:
            return np.zeros(len(batch), bool)
        vset = pa.array(keys, type=batch[on].type)
        return np.asarray(
            pc.is_valid(pc.index_in(batch[on], value_set=vset)))

    def tag(side: str):
        # per side: SALT its own hot rows, REPLICATE the other side's
        salt_keys = lhot_set if side == "l" else rhot_set
        repl_keys = rhot_set if side == "l" else lhot_set

        def fn(batch: pa.Table) -> pa.Table:
            t = _tag(side, all_cols, types)(batch)
            base = part_key(batch[on], num_buckets).astype(np.int64)
            if len(t) == 0 or (not salt_keys and not repl_keys):
                return t.append_column(
                    "__bucket", pa.array(base.astype(np.int32)))
            is_salt = _member(batch, salt_keys)
            is_repl = _member(batch, repl_keys) & ~is_salt
            plain = ~is_salt & ~is_repl
            parts, bks = [], []
            if plain.any():
                i = np.flatnonzero(plain)
                parts.append(t.take(pa.array(i)))
                bks.append(base[i].astype(np.int32))
            if is_salt.any():
                i = np.flatnonzero(is_salt)
                salt = np.arange(i.size, dtype=np.int64) % S
                parts.append(t.take(pa.array(i)))
                bks.append(((base[i] + salt) % num_buckets)
                           .astype(np.int32))
            if is_repl.any():
                i = np.flatnonzero(is_repl)
                rt = t.take(pa.array(i))
                rb = base[i]
                for j in range(S):
                    parts.append(rt)
                    bks.append(((rb + j) % num_buckets).astype(np.int32))
            return pa.concat_tables(parts).append_column(
                "__bucket", pa.array(np.concatenate(bks)))
        return fn

    both = left.map_batches(tag("l"), batch_format="pyarrow").union(
        right.map_batches(tag("r"), batch_format="pyarrow"))

    def join_bucket(group: pd.DataFrame) -> pd.DataFrame:
        l = _restore_ints(group[group["__side"] == "l"][lcols].copy(), lints)
        r = _restore_ints(group[group["__side"] == "r"][rcols].copy(), rints)
        # columns in shared_extra come out with the pandas suffixes
        if rhot_set and how == "left":
            # replicated rows of right-hot keys merge INNER per bucket:
            # the key is guaranteed matched globally; a left-merge here
            # would emit null-padded duplicates from replica buckets
            # whose salted right slice misses the key
            m = l[on].isin(rhot_set)
            return pd.concat(
                [l[m].merge(r, on=on, how="inner", suffixes=suffixes),
                 l[~m].merge(r, on=on, how="left", suffixes=suffixes)],
                ignore_index=True)
        return l.merge(r, on=on, how=how, suffixes=suffixes)

    return both.groupby("__bucket").map_groups(join_bucket,
                                               batch_format="pandas")


def asof_join(left, right, on: str, left_ts: str, right_ts: str,
              tiebreak: str, num_buckets: int = 64, how: str = "inner",
              suffixes=("_l", "_r"), tolerance: int | None = None):
    """Distributed backward as-of join: for each left row, the single
    right row with the same ``on`` key and the LARGEST ``right_ts`` <=
    ``left_ts`` (ties on (key, ts) resolved to the max ``tiebreak``
    value, so the result is deterministic regardless of partitioning).

    Ray-Data-first plan: both sides are tagged and hash-bucketed on the
    equality key (one shuffle per side, same shape as
    ``bucketed_hash_join``); inside each bucket the match is ONE
    vectorized ``searchsorted`` over a rank-composite (key_code *
    n_ranks + ts_rank), never a per-key or per-row Python loop. The
    partitioning assumption is the usual hash-join one: each key's rows
    co-locate, skew only inflates single buckets (pick num_buckets >>
    workers).

    ``how``: "inner" drops unmatched lefts; "left" keeps them with
    nulls in the right columns. ``tolerance`` (optional, in the ts
    columns' compared units — ns for Arrow timestamps via the
    datetime64[ns] view, native units for int64 columns): a match
    farther back than this is treated as NO match (pandas
    ``merge_asof(tolerance=...)`` semantics) — dropped under "inner",
    null-padded under "left".
    """
    lcols = list(left.schema().names)
    rcols = list(right.schema().names)
    lints = _int_cols(left.schema())
    rints = _int_cols(right.schema())
    all_cols = list(dict.fromkeys(lcols + rcols))
    # typed null-fill so timestamps survive the union schema intact
    types = _arrow_types(left, right)
    out_r = [c for c in rcols if c != on]
    ren = {c: c + suffixes[1] for c in out_r if c in lcols}

    both = _tagged_union(left, right, all_cols, types)

    def _ts_i64(s: pd.Series) -> np.ndarray:
        v = s.to_numpy()
        if v.dtype.kind == "M":
            return v.astype("datetime64[ns]").view(np.int64)
        return v.astype(np.int64)

    def join_bucket(group: pd.DataFrame) -> pd.DataFrame:
        l = _restore_ints(group[group["__side"] == "l"][lcols].copy(), lints)
        r = _restore_ints(group[group["__side"] == "r"][rcols].copy(), rints)
        empty_right = {ren.get(c, c): pd.Series([], dtype=r[c].dtype)
                       for c in out_r}
        if not len(l):
            return pd.concat(
                [l.reset_index(drop=True), pd.DataFrame(empty_right)],
                axis=1)
        if not len(r):
            if how == "inner":
                return pd.concat(
                    [l.iloc[:0].reset_index(drop=True),
                     pd.DataFrame(empty_right)], axis=1)
            out = l.reset_index(drop=True)
            for c in out_r:
                out[ren.get(c, c)] = pd.Series([pd.NA] * len(out))
            return out
        # shared key codes + shared ts ranks -> one global composite
        codes, _ = pd.factorize(
            pd.concat([l[on], r[on]], ignore_index=True), sort=False)
        lk = codes[: len(l)].astype(np.int64)
        rk = codes[len(l):].astype(np.int64)
        lt, rt = _ts_i64(l[left_ts]), _ts_i64(r[right_ts])
        uniq = np.unique(np.concatenate([lt, rt]))
        U = np.int64(uniq.size + 1)
        lcomp = lk * U + np.searchsorted(uniq, lt)
        rcomp = rk * U + np.searchsorted(uniq, rt)
        # dedupe rights per (key, ts): ascending tiebreak, keep last
        order = np.lexsort((r[tiebreak].to_numpy(), rcomp))
        rcomp_s = rcomp[order]
        last = np.flatnonzero(
            np.concatenate([rcomp_s[1:] != rcomp_s[:-1], [True]]))
        ridx, rcomp_u = order[last], rcomp_s[last]
        pos = np.searchsorted(rcomp_u, lcomp, side="right") - 1
        ok = pos >= 0
        safe = np.clip(pos, 0, None)
        # right composite floor must belong to the SAME key
        ok &= rk[ridx[safe]] == lk
        if tolerance is not None:
            ok &= (lt - rt[ridx[safe]]) <= np.int64(tolerance)
        rsel = r.iloc[ridx[safe]][out_r].rename(columns=ren) \
            .reset_index(drop=True)
        if how == "inner":
            hit = np.flatnonzero(ok)
            return pd.concat(
                [l.iloc[hit].reset_index(drop=True),
                 rsel.iloc[hit].reset_index(drop=True)], axis=1)
        rsel = rsel.where(np.broadcast_to(ok[:, None], rsel.shape))
        return pd.concat([l.reset_index(drop=True), rsel], axis=1)

    return keyed_sweep(both, on, join_bucket, num_buckets)


def bucketed_anti_join(left, right, on: str, num_buckets: int = 64):
    """Left rows whose key does NOT appear in ``right`` — one shuffle per
    side, matching buckets filtered with a vectorized ``isin``; nothing
    materializes on the driver (the distributed replacement for the
    "broadcast a Python id-set" anti-join pattern)."""
    lcols = list(left.schema().names)
    lints = _int_cols(left.schema())
    both = _tagged_union(left, right.select_columns([on]), lcols,
                         _arrow_types(left))

    def filter_bucket(group: pd.DataFrame) -> pd.DataFrame:
        l = _restore_ints(group[group["__side"] == "l"][lcols].copy(), lints)
        rkeys = group.loc[group["__side"] == "r", on]
        if rkeys.empty:
            return l
        return l[~l[on].isin(set(rkeys))]

    return keyed_sweep(both, on, filter_bucket, num_buckets)


def range_join(left, right, on: str, left_ts: str, right_ts: str,
               before, after, num_buckets: int = 64, how: str = "inner",
               suffixes=("_l", "_r")):
    """Distributed band (range) join: every (left, right) pair with the
    same ``on`` key and ``right_ts`` in the INCLUSIVE window
    [left_ts - before, left_ts + after]. 1:N — one output row per pair.

    Same Ray-Data-first plan as ``asof_join``: both sides tagged and
    hash-bucketed on the equality key (one shuffle per side); inside
    each bucket the window endpoints are resolved with TWO vectorized
    ``searchsorted`` calls over a rank-composite (key_code * n_ranks +
    ts_rank — ranks, not raw int64 ts, so the composite cannot
    overflow), and the pair expansion is pure cumsum/repeat index
    arithmetic. Both window endpoints are injected into the rank
    vocabulary, so inclusive-bound semantics are exact rather than
    nearest-rank approximations. Partitioning assumption: each key's
    rows co-locate (hash-join discipline); window width only affects
    match counts, never data movement.

    ``before`` / ``after``: numeric (same unit as the ts columns) or
    anything convertible via ``pd.Timedelta`` for datetime columns
    (internally everything is compared in int64 nanoseconds).
    ``how``: "inner" drops windowless lefts; "left" keeps them with
    nulls in the right columns.
    """
    lcols = list(left.schema().names)
    rcols = list(right.schema().names)
    lints = _int_cols(left.schema())
    rints = _int_cols(right.schema())
    all_cols = list(dict.fromkeys(lcols + rcols))
    types = _arrow_types(left, right)
    out_r = [c for c in rcols if c != on]
    ren = {c: c + suffixes[1] for c in out_r if c in lcols}

    both = _tagged_union(left, right, all_cols, types)

    def _ts_i64(s: pd.Series) -> np.ndarray:
        v = s.to_numpy()
        if v.dtype.kind == "M":
            return v.astype("datetime64[ns]").view(np.int64)
        return v.astype(np.int64)

    def _delta_i64(x, datetime_like: bool) -> np.int64:
        if datetime_like and not isinstance(x, (int, np.integer)):
            return np.int64(pd.Timedelta(x).value)
        return np.int64(x)

    def join_bucket(group: pd.DataFrame) -> pd.DataFrame:
        l = _restore_ints(group[group["__side"] == "l"][lcols].copy(), lints)
        r = _restore_ints(group[group["__side"] == "r"][rcols].copy(), rints)
        empty_right = {ren.get(c, c): pd.Series([], dtype=r[c].dtype)
                       for c in out_r}
        if not len(l):
            return pd.concat(
                [l.reset_index(drop=True), pd.DataFrame(empty_right)],
                axis=1)
        dt_like = l[left_ts].to_numpy().dtype.kind == "M"
        b = _delta_i64(before, dt_like)
        a = _delta_i64(after, dt_like)
        if not len(r):
            if how == "inner":
                return pd.concat(
                    [l.iloc[:0].reset_index(drop=True),
                     pd.DataFrame(empty_right)], axis=1)
            out = l.reset_index(drop=True)
            for c in out_r:
                out[ren.get(c, c)] = pd.Series([pd.NA] * len(out))
            return out
        codes, _ = pd.factorize(
            pd.concat([l[on], r[on]], ignore_index=True), sort=False)
        lk = codes[: len(l)].astype(np.int64)
        rk = codes[len(l):].astype(np.int64)
        lt, rt = _ts_i64(l[left_ts]), _ts_i64(r[right_ts])
        lo_val, hi_val = lt - b, lt + a
        uniq = np.unique(np.concatenate([rt, lo_val, hi_val]))
        U = np.int64(uniq.size + 1)
        rcomp = rk * U + np.searchsorted(uniq, rt)
        order = np.argsort(rcomp, kind="stable")
        rcomp_s = rcomp[order]
        lo = np.searchsorted(
            rcomp_s, lk * U + np.searchsorted(uniq, lo_val), side="left")
        hi = np.searchsorted(
            rcomp_s, lk * U + np.searchsorted(uniq, hi_val), side="right")
        counts = hi - lo
        starts = np.cumsum(counts) - counts
        total = int(counts.sum())
        out_li = np.repeat(np.arange(len(l)), counts)
        out_ri = order[np.repeat(lo, counts)
                       + (np.arange(total) - np.repeat(starts, counts))]
        matched = pd.concat(
            [l.iloc[out_li].reset_index(drop=True),
             r.iloc[out_ri][out_r].rename(columns=ren)
              .reset_index(drop=True)], axis=1)
        if how == "inner":
            return matched
        miss = np.flatnonzero(counts == 0)
        if not miss.size:
            return matched
        unmatched = l.iloc[miss].reset_index(drop=True)
        for c in out_r:
            unmatched[ren.get(c, c)] = pd.Series([pd.NA] * len(unmatched))
        return pd.concat([matched, unmatched], ignore_index=True)

    return keyed_sweep(both, on, join_bucket, num_buckets)


def set_op(left, right, on: list[str], op: str = "except",
           num_buckets: int = 64):
    """Distributed multiset-free set operation on key tuples:
    ``op='except'`` -> DISTINCT keys of ``left`` absent from ``right``;
    ``op='intersect'`` -> DISTINCT keys present in both (SQL
    EXCEPT / INTERSECT semantics). Both sides are projected to ``on``,
    tagged, pre-deduped per batch (a combiner: at most one row per
    distinct key per block enters the exchange) and co-shuffled by the
    same coarse key hash; each partition task resolves membership with
    one pandas merge — no driver materialization, no per-key work."""
    if op not in ("except", "intersect"):
        raise ValueError(f"op must be 'except' or 'intersect': {op!r}")

    def project(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            cols = {c: batch[c] for c in on}
            t = pa.table(cols)
            # per-batch combiner: distinct keys only
            df = t.to_pandas().drop_duplicates(on)
            out = pa.Table.from_pandas(df, preserve_index=False)
            return out.append_column(
                "__side", pa.array(np.full(len(df), side, np.int8)))
        return fn

    both = (left.select_columns(on)
            .map_batches(project(0), batch_format="pyarrow")
            .union(right.select_columns(on)
                   .map_batches(project(1), batch_format="pyarrow")))

    def resolve(group: pd.DataFrame) -> pd.DataFrame:
        l = group[group["__side"] == 0].drop_duplicates(on)[on]
        r = group[group["__side"] == 1].drop_duplicates(on)[on]
        m = l.merge(r, on=on, how="left", indicator=True)
        keep = (m["_merge"] == "left_only") if op == "except" \
            else (m["_merge"] == "both")
        return m.loc[keep, on].reset_index(drop=True)

    return keyed_sweep(both, on, resolve, num_buckets)


def bucketed_semi_join(left, right, on: str, num_buckets: int = 64):
    """Left rows whose key DOES appear in ``right`` (EXISTS semantics —
    left rows emit at most once regardless of right-side multiplicity).
    The mirror image of ``bucketed_anti_join``: one shuffle per side,
    matching buckets filtered with a vectorized ``isin``; only the key
    column of the right side ever moves."""
    lcols = list(left.schema().names)
    lints = _int_cols(left.schema())
    both = _tagged_union(left, right.select_columns([on]), lcols,
                         _arrow_types(left))

    def filter_bucket(group: pd.DataFrame) -> pd.DataFrame:
        l = _restore_ints(group[group["__side"] == "l"][lcols].copy(), lints)
        rkeys = group.loc[group["__side"] == "r", on]
        if rkeys.empty:
            return l.iloc[0:0]
        return l[l[on].isin(set(rkeys))]

    return keyed_sweep(both, on, filter_bucket, num_buckets)


def table_diff(old, new, key_col: str, value_cols: list[str],
               num_buckets: int = 64):
    """CDC-style snapshot diff: classify every key as 'added' (only in
    ``new``), 'removed' (only in ``old``) or 'changed' (present in both
    with any ``value_cols`` differing). Unchanged keys emit nothing.
    One co-shuffle on hash(key) % num_buckets (the set_op plan); each
    bucket task resolves with one pandas merge + vectorized compare.
    Keys must be unique per side (snapshot semantics)."""
    need = [key_col, *value_cols]

    def tag(side: str):
        def fn(batch: pa.Table) -> pa.Table:
            out = {c: batch[c] for c in need}
            out["__side"] = pa.array([side] * len(batch))
            return pa.table(out)
        return fn

    both = old.select_columns(need) \
        .map_batches(tag("o"), batch_format="pyarrow").union(
            new.select_columns(need)
            .map_batches(tag("n"), batch_format="pyarrow"))

    def diff_bucket(group: pd.DataFrame) -> pd.DataFrame:
        o = group[group["__side"] == "o"][need]
        n = group[group["__side"] == "n"][need]
        m = o.merge(n, on=key_col, how="outer", suffixes=("_o", "_n"),
                    indicator=True)
        added = m["_merge"] == "right_only"
        removed = m["_merge"] == "left_only"
        both_m = m["_merge"] == "both"
        changed = both_m.copy()
        if value_cols:
            neq = np.zeros(len(m), dtype=bool)
            for c in value_cols:
                a = m[f"{c}_o"]
                b = m[f"{c}_n"]
                neq |= ~((a == b) | (a.isna() & b.isna()))
            changed &= neq
        keys = m[key_col]
        out_key = np.concatenate([keys[added], keys[removed],
                                  keys[changed]])
        out_chg = np.concatenate([
            np.full(int(added.sum()), "added", object),
            np.full(int(removed.sum()), "removed", object),
            np.full(int(changed.sum()), "changed", object)])
        return pd.DataFrame({key_col: out_key, "change": out_chg})

    return keyed_sweep(both, key_col, diff_bucket, num_buckets)


def asof_join_forward(left, right, on: str, left_ts: str,
                      right_ts: str, tiebreak: str,
                      num_buckets: int = 64, how: str = "inner",
                      suffixes=("_l", "_r"),
                      tolerance: int | None = None):
    """Forward as-of join: for each left row, the single right row with
    the same key and the SMALLEST ``right_ts`` >= ``left_ts`` (ties
    still resolve to the max ``tiebreak`` — deterministic). Implemented
    by int64 timestamp NEGATION over the backward machinery (order
    reverses exactly; the tie contract is unaffected because ties are
    equal-ts rows on the same key). Both ts columns come back as
    negated-then-restored int64 microseconds — callers needing Arrow
    timestamps cast on the way out."""
    def neg(col):
        def fn(batch: pa.Table) -> pa.Table:
            v = np.asarray(batch[col].cast(pa.int64()))
            i = batch.schema.get_field_index(col)
            return batch.set_column(i, col, pa.array(-v))
        return fn

    out = asof_join(left.map_batches(neg(left_ts),
                                     batch_format="pyarrow"),
                    right.map_batches(neg(right_ts),
                                      batch_format="pyarrow"),
                    on=on, left_ts=left_ts, right_ts=right_ts,
                    tiebreak=tiebreak, num_buckets=num_buckets,
                    how=how, suffixes=suffixes, tolerance=tolerance)

    def unneg(batch: pd.DataFrame) -> pd.DataFrame:
        for c in {left_ts, right_ts}:
            if c in batch.columns:
                v = batch[c].to_numpy()
                if v.dtype.kind == "M":
                    v = v.astype("datetime64[us]").view(np.int64)
                if v.dtype.kind == "f":
                    # how="left" unmatched rows are NaN here; park the
                    # FINAL sentinel after the negation (negating
                    # int64.min would rely on wraparound), the join's
                    # null right-side id stays the validity signal
                    nan = np.isnan(v)
                    out = -np.where(nan, 0.0, v).astype(np.int64)
                    out[nan] = np.iinfo(np.int64).min
                    batch[c] = out
                else:
                    batch[c] = -v.astype(np.int64)
        return batch

    return out.map_batches(unneg, batch_format="pandas")


def merge_upsert(snapshot, changes, key_col: str, order_col: str = "ord",
                 op_col: str = "op", num_buckets: int = 64):
    """Delta-style MERGE INTO: apply a change stream onto a keyed
    snapshot — per key the LATEST change (max ``order_col``) wins;
    op 'U' replaces/inserts the row, op 'D' deletes it; keys without
    changes pass through untouched.

    Schema contract: ``changes`` carries the snapshot's full column
    set (the upsert payload) plus ``op_col`` + ``order_col``. Plan:
    both sides tagged and hash-bucketed on the key (one shuffle per
    side, the bucketed_hash_join machinery); each bucket resolves
    latest-change-per-key and merges locally — nothing reaches the
    driver. Determinism: change rows sort by (key, order, op, payload)
    so equal-order ties resolve identically on any partitioning."""
    scols = list(snapshot.schema().names)
    sints = _int_cols(snapshot.schema())
    ccols = scols + [op_col, order_col]
    all_cols = list(dict.fromkeys(scols + [op_col, order_col]))
    both = _tagged_union(snapshot, changes, all_cols,
                         _arrow_types(snapshot, changes), ("s", "c"))

    def resolve(group: pd.DataFrame) -> pd.DataFrame:
        snap = _restore_ints(
            group[group["__side"] == "s"][scols].copy(), sints)
        ch = group[group["__side"] == "c"][ccols].copy()
        if not len(ch):
            return snap
        ch = ch.sort_values(ccols[::-1]).sort_values(
            [key_col, order_col], kind="stable")
        last = ch.groupby(key_col, sort=False).tail(1)
        changed = set(last[key_col])
        keep = snap[~snap[key_col].isin(changed)]
        ups = _restore_ints(
            last.loc[last[op_col] == "U", scols].copy(), sints)
        out = pd.concat([keep, ups], ignore_index=True)
        return _restore_ints(out, sints)

    return keyed_sweep(both, key_col, resolve, num_buckets)


def cogroup(left, right, on: str, fn, num_buckets: int = 64,
            batch_format: str = "pandas"):
    """Generic CO-GROUP (the Spark/Beam primitive Ray Data lacks):
    align BOTH datasets on ``on`` and call ``fn(key, left_rows,
    right_rows)`` once per key with the complete row sets from each
    side — the shape joins, as-of merges, per-key reconciliation and
    custom aggregations all reduce to. Same single-shuffle plan as
    ``bucketed_hash_join``: both sides are tagged to a common superset
    schema and unioned, so ONE exchange co-locates every key, and the
    per-bucket task sweeps its keys in sorted order (segment slices,
    no per-key map_groups invocations). ``fn`` returns a DataFrame
    (empty allowed; keep column set stable across calls).

    This is the LARGE-LARGE path: neither side broadcasts, both
    stream. Key skew concentrates one key's rows in one task — for a
    Zipf head key pre-aggregate that side upstream or use
    ``bucketed_hash_join(skew=True)`` when the logic is a join."""
    lcols = [c for c in left.schema().names]
    rcols = [c for c in right.schema().names]
    all_cols = list(dict.fromkeys(lcols + rcols))
    both = _tagged_union(left, right, all_cols, _arrow_types(left, right))

    def sweep(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(on, kind="stable")
        keys = g[on].to_numpy()
        new = np.concatenate([[True], keys[1:] != keys[:-1]])
        starts = np.flatnonzero(new)
        ends = np.concatenate([starts[1:], [len(g)]])
        is_l = (g["__side"] == "l").to_numpy()
        outs = []
        for s, e in zip(starts, ends):
            seg = g.iloc[s:e]
            sl = seg[is_l[s:e]][lcols]
            sr = seg[~is_l[s:e]][rcols]
            outs.append(fn(keys[s], sl, sr))
        if not outs:
            return fn(None, g.iloc[0:0][lcols], g.iloc[0:0][rcols])
        return pd.concat(outs, ignore_index=True)

    return keyed_sweep(both, on, sweep, num_buckets,
                       batch_format=batch_format)


def _broadcast_overlap_probe(ref, long_is_left: bool, lcols, rcols,
                             l_lo, l_hi, r_lo, r_hi,
                             chunk_cells: int = 4_000_000):
    """Per-batch vectorized overlap probe against a broadcast table of
    long-span intervals (interval_join's two-level guard). Emits the
    (long, batch-row) pairs whose intervals overlap, columns in
    lcols+rcols order to union with the bucket plan's output. The 2-D
    mask is chunked to ~chunk_cells bools so a big batch x a full
    long_budget table stays inside the worker heap."""
    import ray

    def fn(batch: pa.Table) -> pa.Table:
        long_t = ray.get(ref)
        if long_is_left:
            Llo = np.asarray(long_t[l_lo], dtype=np.int64)
            Lhi = np.asarray(long_t[l_hi], dtype=np.int64)
            blo = np.asarray(batch[r_lo], dtype=np.int64)
            bhi = np.asarray(batch[r_hi], dtype=np.int64)
        else:
            Llo = np.asarray(long_t[r_lo], dtype=np.int64)
            Lhi = np.asarray(long_t[r_hi], dtype=np.int64)
            blo = np.asarray(batch[l_lo], dtype=np.int64)
            bhi = np.asarray(batch[l_hi], dtype=np.int64)
        n, L = blo.size, Llo.size
        bi_parts, li_parts = [], []
        step = max(1, chunk_cells // max(L, 1))
        for s in range(0, n, step):
            e = min(n, s + step)
            m = ((Llo[None, :] <= bhi[s:e, None])
                 & (blo[s:e, None] <= Lhi[None, :]))
            bi, li = np.nonzero(m)
            bi_parts.append(bi + s)
            li_parts.append(li)
        bi = (np.concatenate(bi_parts) if bi_parts
              else np.array([], np.int64))
        li = (np.concatenate(li_parts) if li_parts
              else np.array([], np.int64))
        out = {}
        if long_is_left:
            for c in lcols:
                out[c] = long_t[c].take(pa.array(li))
            for c in rcols:
                out[c] = batch[c].take(pa.array(bi))
        else:
            for c in lcols:
                out[c] = batch[c].take(pa.array(bi))
            for c in rcols:
                out[c] = long_t[c].take(pa.array(li))
        return pa.table(out)
    return fn


def interval_join(left, right, l_lo: str, l_hi: str, r_lo: str,
                  r_hi: str, bucket_width: int,
                  num_partitions: int = 64,
                  max_span_buckets: int | None = 64,
                  long_budget: int = 50_000):
    """Distributed interval-OVERLAP join: all (left, right) pairs with
    ``l_lo <= r_hi AND r_lo <= l_hi`` (inclusive int64 endpoints —
    epoch-us in practice). The bucket-replication plan Ray Data lacks
    natively: each interval replicates to every ``bucket_width``-wide
    bucket it covers, candidates meet inside their bucket (zero-filled
    tagged union — NOT null-filled, so int64 epoch values never take
    pandas' lossy float64 promotion — through ONE all-to-all on
    hash(bucket)), and each genuinely overlapping pair is emitted by
    EXACTLY ONE bucket: the one containing max(l_lo, r_lo), the
    overlap's left edge — no distinct pass. Replication factor =
    interval span / bucket_width; pick the width near the typical
    interval length. Column names must be disjoint (caller renames).

    Long-span guard (two-level plan): an interval spanning k buckets
    replicates k times, so a pathological interval (a year-long
    session at hourly buckets) would flood the exchange. Intervals
    spanning more than ``max_span_buckets`` buckets are pulled out of
    the bucket plan entirely and joined by COUNTED BROADCAST instead:
    long-left × (all right) and long-right × short-left run as
    vectorized overlap probes inside ``map_batches`` over a
    driver-collected long table (bounded by ``long_budget`` rows — the
    collect stops at budget+1 and RAISES with the observed max span
    and remediation: raise ``bucket_width``, raise the budget, or pass
    ``max_span_buckets=None`` to opt back into pure replication).
    Pair disjointness: pass A covers long-left against everything,
    pass B only short-left, so long-long pairs emit once. With
    ``max_span_buckets=None`` the guard is off (single-plan, inputs
    executed once); when on, each input's lineage executes twice
    (filter split) — pre-``materialize()`` expensive derived inputs.
    """
    import ray

    W = np.int64(bucket_width)
    lcols = list(left.schema().names)
    rcols = list(right.schema().names)
    dup = set(lcols) & set(rcols)
    if dup:
        raise ValueError(f"overlapping column names: {sorted(dup)}")
    types = {}
    for sch in (left.schema(), right.schema()):
        for n, t in zip(sch.names, sch.types):
            types[n] = t

    if max_span_buckets is not None:
        K = np.int64(max_span_buckets)

        def _span_mask(batch, lo_col, hi_col, want_long):
            lo = np.asarray(batch[lo_col], dtype=np.int64)
            hi = np.asarray(batch[hi_col], dtype=np.int64)
            k = hi // W - lo // W + 1
            m = (k > K) if want_long else (k <= K)
            return batch.filter(pa.array(m))

        def _collect_long(ds, lo_col, hi_col, side, cols):
            batches = list(
                ds.map_batches(
                    lambda b: _span_mask(b, lo_col, hi_col, True),
                    batch_format="pyarrow")
                .limit(long_budget + 1)
                .iter_batches(batch_format="pyarrow",
                              batch_size=None))
            if not batches:
                return pa.table({c: pa.array([], type=types[c])
                                 for c in cols})
            t = pa.concat_tables(batches)
            if t.num_rows > long_budget:
                lo = np.asarray(t[lo_col], dtype=np.int64)
                hi = np.asarray(t[hi_col], dtype=np.int64)
                mx = int((hi // W - lo // W + 1).max())
                raise ValueError(
                    f"interval_join: >{long_budget} {side} intervals "
                    f"span more than max_span_buckets={int(K)} buckets "
                    f"(max span seen ~{mx} buckets). Raise bucket_width,"
                    f" raise long_budget, or pass max_span_buckets=None"
                    f" for pure replication.")
            return t

        long_l = _collect_long(left, l_lo, l_hi, "left", lcols)
        long_r = _collect_long(right, r_lo, r_hi, "right", rcols)

        if long_l.num_rows or long_r.num_rows:
            short_l = left.map_batches(
                lambda b: _span_mask(b, l_lo, l_hi, False),
                batch_format="pyarrow")
            short_r = right.map_batches(
                lambda b: _span_mask(b, r_lo, r_hi, False),
                batch_format="pyarrow")
            out = interval_join(short_l, short_r, l_lo, l_hi, r_lo,
                                r_hi, bucket_width, num_partitions,
                                max_span_buckets=None)
            probes = []
            if long_l.num_rows:
                probes.append((ray.put(long_l), True, right))
            if long_r.num_rows:
                probes.append((ray.put(long_r), False, short_l))
            for ref, long_is_left, probe_ds in probes:
                probes_fn = _broadcast_overlap_probe(
                    ref, long_is_left, lcols, rcols,
                    l_lo, l_hi, r_lo, r_hi)
                out = out.union(probe_ds.map_batches(
                    probes_fn, batch_format="pyarrow"))
            return out
        # no longs: fall through to the single-plan path on the
        # ORIGINAL inputs (no filter pass in the executed lineage).

    def _filler(t: pa.DataType, n: int):
        if pa.types.is_string(t) or pa.types.is_large_string(t):
            return pa.array(np.full(n, "", dtype=object), type=t)
        return pa.array(np.zeros(n, dtype=t.to_pandas_dtype()), type=t)

    def expand(side: int, mine: list[str], lo_col: str, hi_col: str):
        def fn(batch: pa.Table) -> pa.Table:
            lo = np.asarray(batch[lo_col], dtype=np.int64)
            hi = np.asarray(batch[hi_col], dtype=np.int64)
            k = (hi // W - lo // W + 1).astype(np.int64)
            idx = np.repeat(np.arange(lo.size, dtype=np.int64), k)
            off = (np.arange(idx.size, dtype=np.int64)
                   - np.repeat(np.cumsum(k) - k, k))
            bucket = lo[idx] // W + off
            out = {}
            for c in lcols + rcols:
                out[c] = (batch[c].take(pa.array(idx)) if c in mine
                          else _filler(types[c], idx.size))
            out["__b"] = pa.array(bucket)
            out["__side"] = pa.array(
                np.full(idx.size, side, dtype=np.int8))
            return pa.table(out)
        return fn

    both = left.map_batches(expand(0, lcols, l_lo, l_hi),
                            batch_format="pyarrow").union(
        right.map_batches(expand(1, rcols, r_lo, r_hi),
                          batch_format="pyarrow"))

    def sweep(group: pa.Table) -> pa.Table:
        side = np.asarray(group["__side"], dtype=np.int8)
        b = np.asarray(group["__b"], dtype=np.int64)
        li = np.flatnonzero(side == 0)
        ri = np.flatnonzero(side == 1)
        empty = pa.table({c: pa.array([], type=types[c])
                          for c in lcols + rcols})
        if li.size == 0 or ri.size == 0:
            return empty
        lb, rb = b[li], b[ri]
        lo_ = np.argsort(lb, kind="stable")
        ro_ = np.argsort(rb, kind="stable")
        li, lb = li[lo_], lb[lo_]
        ri, rb = ri[ro_], rb[ro_]
        common = np.intersect1d(np.unique(lb), np.unique(rb))
        ia, ib, bb = [], [], []
        for bk in common.tolist():
            ls, le = np.searchsorted(lb, [bk, bk + 1])
            rs, re = np.searchsorted(rb, [bk, bk + 1])
            nl, nr = le - ls, re - rs
            ia.append(np.repeat(li[ls:le], nr))
            ib.append(np.tile(ri[rs:re], nl))
            bb.append(np.full(nl * nr, bk, dtype=np.int64))
        if not ia:
            return empty
        ia = np.concatenate(ia)
        ib = np.concatenate(ib)
        bb = np.concatenate(bb)
        llo = np.asarray(group[l_lo], dtype=np.int64)[ia]
        lhi = np.asarray(group[l_hi], dtype=np.int64)[ia]
        rlo = np.asarray(group[r_lo], dtype=np.int64)[ib]
        rhi = np.asarray(group[r_hi], dtype=np.int64)[ib]
        keep = ((llo <= rhi) & (rlo <= lhi)
                & (np.maximum(llo, rlo) // W == bb))
        ia, ib = ia[keep], ib[keep]
        cols = {}
        for c in lcols:
            cols[c] = group[c].take(pa.array(ia))
        for c in rcols:
            cols[c] = group[c].take(pa.array(ib))
        return pa.table(cols)

    return keyed_sweep(both, "__b", sweep, num_partitions,
                       batch_format="pyarrow")


def multiset_op(left, right, on_left: str, on_right: str,
                op: str = "intersect_all", out_col: str = "v",
                num_parts: int = 64):
    """Multiset INTERSECT ALL / EXCEPT ALL (bag semantics — the ALL
    variants set_op's distinct path can't express): output
    multiplicity per value is min(c_l, c_r) for intersect_all and
    max(c_l - c_r, 0) for except_all. Each block pre-combines to
    per-value counts (the only thing that ever moves), ONE coarse
    exchange on hash(value) co-locates both sides' counts, and each
    partition task emits values np.repeat-ed to their multiplicity."""
    if op not in ("intersect_all", "except_all"):
        raise ValueError(op)

    def partial(col: str, side: int):
        def fn(batch: pa.Table) -> pa.Table:
            gp = (pa.table({"v": batch[col].cast(pa.int64())})
                  .group_by("v").aggregate([("v", "count")]))
            v = np.asarray(gp["v"], dtype=np.int64)
            return pa.table({
                "v": pa.array(v),
                "c": gp["v_count"].cast(pa.int64()),
                "side": pa.array(np.full(v.size, side, np.int8))})
        return fn

    both = left.select_columns([on_left]) \
        .map_batches(partial(on_left, 0), batch_format="pyarrow") \
        .union(right.select_columns([on_right])
               .map_batches(partial(on_right, 1),
                            batch_format="pyarrow"))

    def sweep(g: pd.DataFrame) -> pd.DataFrame:
        v = g["v"].to_numpy(np.int64)
        c = g["c"].to_numpy(np.int64)
        s = g["side"].to_numpy(np.int8)
        cl = pd.Series(np.where(s == 0, c, 0)).groupby(v).sum()
        cr = pd.Series(np.where(s == 1, c, 0)).groupby(v).sum()
        if op == "intersect_all":
            mult = np.minimum(cl.to_numpy(), cr.to_numpy())
        else:
            mult = np.maximum(cl.to_numpy() - cr.to_numpy(), 0)
        vals = cl.index.to_numpy(np.int64)
        return pd.DataFrame({
            out_col: np.repeat(vals, mult).astype(np.int64)})

    return keyed_sweep(both, "v", sweep, num_parts)


def auto_join(left, right, on: str, how: str = "inner",
              num_buckets: int = 64, skew=False,
              suffixes=("_l", "_r"), right_schema=None):
    """SIZE-GATED many-to-many join: the right side is materialized
    and counted through ``fits_broadcast``; within the budget it ships
    via ray.put exactly once and every left batch merges against the
    zero-copy plasma view (NO shuffle at all — the fact side never
    moves); past the gate it falls back to the partitioned
    ``bucketed_hash_join`` (optionally skew-aware via the hot-key
    replicate-right path). Both paths produce identical frames —
    pinned by the both-paths equality pytest. ``on`` must name the
    key column on BOTH sides (rename first); broadcast supports
    inner/left, everything else routes to the bucketed path. For a
    right side with unique keys prefer ``lookup``."""
    import ray

    if how in ("inner", "left"):
        right = right.materialize()
    if how not in ("inner", "left") or not fits_broadcast(right):
        return bucketed_hash_join(left, right, on,
                                  num_buckets=num_buckets, how=how,
                                  suffixes=suffixes, skew=skew)
    rdf = right.to_pandas()
    if right.count() == 0:
        # 0-row to_pandas drops columns; rebuild from the sealed
        # schema so the broadcast merge still sees the key column.
        # An empty groupby output has schema None — callers that can
        # hit that pass right_schema explicitly.
        sch = right.schema()
        base = getattr(sch, "base_schema", None) if sch else None
        if base is None:
            base = right_schema
        if base is not None:
            rdf = base.empty_table().to_pandas()
    rref = ray.put(rdf)

    def merge(batch: pd.DataFrame) -> pd.DataFrame:
        r = ray.get(rref)
        return batch.merge(r, on=on, how=how, suffixes=suffixes)

    return left.map_batches(merge, batch_format="pandas")


def bucket_layout_join(path_a: str, path_b: str, on: str,
                       how: str = "inner", suffixes=("_l", "_r")):
    """SHUFFLE-FREE join of two PRE-BUCKETED layouts (Hive bucketed
    join / Iceberg bucket-transform semantics): both directories were
    written by ``sinks.build_hash_index`` with the SAME num_buckets
    and the same key hash, so bucket i of A can only match bucket i
    of B — each task zips one bucket pair with a local pandas merge
    and NO data crosses tasks. The storage layout IS the shuffle,
    paid once at write time and amortized over every subsequent join.
    Raises if the layouts' bucket counts or key columns disagree."""
    import json
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    mans = []
    for p in (path_a, path_b):
        with open(os.path.join(p, "_hashindex.json")) as fh:
            mans.append(json.load(fh))
    if mans[0]["num_buckets"] != mans[1]["num_buckets"]:
        raise ValueError("bucket counts differ: "
                         f"{mans[0]['num_buckets']} vs "
                         f"{mans[1]['num_buckets']}")
    if mans[0]["key_col"] != on or mans[1]["key_col"] != on:
        raise ValueError(
            f"layouts are bucketed on {mans[0]['key_col']}/"
            f"{mans[1]['key_col']}, not {on}")
    if how != "inner":
        raise NotImplementedError(
            "bucket_layout_join supports how='inner' (outer variants "
            "need the absent side's schema; use bucketed_hash_join)")
    pa_ = {int(b) for b in mans[0]["buckets"]}
    pb_ = {int(b) for b in mans[1]["buckets"]}
    want = sorted(pa_ & pb_)

    def join_bucket(batch: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for b in batch["bucket"]:
            fa = os.path.join(path_a, f"bucket_{int(b):05d}.parquet")
            fb = os.path.join(path_b, f"bucket_{int(b):05d}.parquet")
            la = pq.read_table(fa).to_pandas()
            rb = pq.read_table(fb).to_pandas()
            outs.append(la.merge(rb, on=on, how="inner",
                                 suffixes=suffixes))
        if not outs:
            return pd.DataFrame()
        return pd.concat(outs, ignore_index=True)

    ids = rd.from_arrow(pa.table({
        "bucket": pa.array(want, pa.int64())})) \
        .repartition(max(len(want), 1))
    return ids.map_batches(join_bucket, batch_format="pandas",
                           batch_size=1)
