"""Incremental view maintenance for distributive aggregates.

The streaming-pipeline pattern that pairs with
``sources.read_new_files``: keep a persistent per-key aggregate state
(integer sums + counts) in versioned parquet, and fold each landing
delta into it with one grouped merge — never re-scanning history.

State layout:

    state_dir/
      v1/ *.parquet         (immutable version directories)
      v2/ *.parquet
      CURRENT               (single line: the committed version number)

Commit protocol: the merged state writes to the NEXT version directory
first, then CURRENT is swapped atomically (temp + rename). A crash
mid-write leaves an orphan v-dir that the next run overwrites; a crash
before the swap leaves CURRENT on the old version — readers never see
a half-written state. Mark landing files processed
(``sources.mark_processed``) only AFTER the swap, so a crash between
the two re-processes the delta instead of dropping it (aggregates must
be idempotent per file set — the manifest guarantees each file folds
exactly once).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa


def _current_version(state_dir: str) -> int:
    f = os.path.join(state_dir, "CURRENT")
    if not os.path.exists(f):
        return 0
    with open(f) as fh:
        return int(fh.read().strip() or 0)


def read_aggregate_state(state_dir: str, version: int | None = None):
    """The committed state as a Dataset, or None before the first
    commit. ``version`` time-travels to an older committed version
    (immutable v-dirs make every historical state readable until
    ``vacuum_state`` reclaims it); reading past CURRENT or a vacuumed
    version raises."""
    import ray.data as rd

    from tldr_ray.sources.tabular import hashable_parquet_schema

    cur = _current_version(state_dir)
    if cur == 0:
        return None
    v = cur if version is None else int(version)
    if v < 1 or v > cur:
        raise ValueError(f"version {v} not committed (CURRENT={cur})")
    vdir = os.path.join(state_dir, f"v{v}")
    if not os.path.isdir(vdir):
        raise FileNotFoundError(
            f"version {v} was vacuumed (earliest retained: "
            f"{min(list_versions(state_dir), default=cur)})")
    return rd.read_parquet(vdir, schema=hashable_parquet_schema(vdir))


def list_versions(state_dir: str) -> list[int]:
    """Committed, still-readable version numbers, ascending (orphan
    dirs above CURRENT — a crash mid-commit — are excluded)."""
    cur = _current_version(state_dir)
    out = []
    for name in os.listdir(state_dir) if os.path.isdir(state_dir) else []:
        if name.startswith("v") and name[1:].isdigit():
            v = int(name[1:])
            if 1 <= v <= cur:
                out.append(v)
    return sorted(out)


def vacuum_state(state_dir: str, keep_last: int = 2) -> list[int]:
    """Reclaim old committed versions, keeping the newest ``keep_last``
    (CURRENT always survives). Returns the versions removed. Safe
    against concurrent readers of CURRENT (only strictly-older dirs
    are deleted); time travel to a vacuumed version raises thereafter."""
    import shutil

    if keep_last < 1:
        raise ValueError("keep_last must be >= 1")
    versions = list_versions(state_dir)
    drop = versions[:-keep_last] if len(versions) > keep_last else []
    for v in drop:
        shutil.rmtree(os.path.join(state_dir, f"v{v}"))
    return drop


def update_running_aggregate(state_dir: str, delta_ds, key_cols,
                             sum_cols) -> int:
    """Fold ``delta_ds``'s per-key integer sums (plus a row count
    ``n_rows``) into the persistent state; returns the new committed
    version. Sums must be integer columns (the repo's exact-cents
    rule) so merge order can never perturb the state."""
    from ray.data.aggregate import Sum

    key_cols = list(key_cols)
    sum_cols = list(sum_cols)

    def partial(batch: pa.Table) -> pa.Table:
        cols = {c: batch[c] for c in key_cols + sum_cols}
        for c in sum_cols:
            if not pa.types.is_integer(batch[c].type):
                raise TypeError(
                    f"sum col {c!r} must be integer (exact-cents rule)")
        cols["n_rows"] = pa.array(np.ones(len(batch), np.int64))
        return pa.table(cols)

    delta = delta_ds.select_columns(key_cols + sum_cols) \
        .map_batches(partial, batch_format="pyarrow")
    old = read_aggregate_state(state_dir)
    merged = delta if old is None else delta.union(old)
    aggs = [Sum(c, alias_name=c) for c in sum_cols]
    aggs.append(Sum("n_rows", alias_name="n_rows"))
    out = merged.groupby(key_cols[0] if len(key_cols) == 1
                         else key_cols).aggregate(*aggs)

    return _commit_version(state_dir, out)


def _commit_version(state_dir: str, ds) -> int:
    """Write ``ds`` as the next immutable version directory, then swap
    CURRENT atomically (temp + rename). Crash-safe: an orphan v-dir is
    overwritten by the next run; readers never see a partial state."""
    v = _current_version(state_dir) + 1
    vdir = os.path.join(state_dir, f"v{v}")
    os.makedirs(vdir, exist_ok=True)
    for name in os.listdir(vdir):          # orphan from a prior crash
        os.remove(os.path.join(vdir, name))
    ds.write_parquet(vdir)
    tmp = os.path.join(state_dir, "CURRENT.tmp")
    with open(tmp, "w") as fh:
        fh.write(str(v))
    os.replace(tmp, os.path.join(state_dir, "CURRENT"))
    return v


def incremental_exact_dedup(state_dir: str, new_docs,
                            id_col: str = "doc_id",
                            text_col: str = "text",
                            num_partitions: int = 64):
    """Dedup an incoming batch of docs against EVERY previously
    committed content fingerprint AND itself, then fold the survivors'
    fingerprints into the state — the landing-zone companion to
    ``sources.read_new_files`` (history is never re-scanned as text:
    the state holds only the 16-byte (h1, h2) content identities from
    hashing.content_hash128_batch).

    Returns ``(fresh, version)``: ``fresh`` is a materialized Dataset
    of the truly-new rows (id + text), ``version`` the newly committed
    fingerprint-state version. Re-ingesting the same batch yields 0
    rows (idempotence); the CURRENT swap protocol makes a crash replay
    the delta instead of dropping it."""
    import ray.data as rd

    from tldr_ray.hashing import content_hash128_batch, keyed_sweep

    def add_hash(batch: pa.Table) -> pa.Table:
        h1, h2 = content_hash128_batch(batch[text_col])
        return pa.table({
            id_col: batch[id_col].cast(pa.int64()),
            text_col: batch[text_col],
            "h1": pa.array(h1), "h2": pa.array(h2),
            "is_new": pa.array(np.ones(len(batch), bool))})

    new = new_docs.select_columns([id_col, text_col]) \
        .map_batches(add_hash, batch_format="pyarrow")

    old = read_aggregate_state(state_dir)   # (h1, h2) rows or None
    if old is not None:
        def seen(batch: pa.Table) -> pa.Table:
            n = len(batch)
            return pa.table({
                id_col: pa.array(np.full(n, -1, np.int64)),
                text_col: pa.nulls(n, pa.string()),
                "h1": batch["h1"], "h2": batch["h2"],
                "is_new": pa.array(np.zeros(n, bool))})

        new = new.union(old.map_batches(seen, batch_format="pyarrow"))

    import pandas as pd

    def resolve(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["h1", "h2", "is_new", id_col])
        h1 = g["h1"].to_numpy()
        h2 = g["h2"].to_numpy()
        first = np.concatenate([[True],
                                (h1[1:] != h1[:-1]) | (h2[1:] != h2[:-1])])
        out = g[first & g["is_new"].to_numpy()]
        return out[[id_col, text_col, "h1", "h2"]]

    fresh = keyed_sweep(new, "h1", resolve, num_partitions).materialize()
    fps = fresh.select_columns(["h1", "h2"])
    if old is not None:
        fps = fps.union(old)
    version = _commit_version(state_dir, fps)
    return fresh.drop_columns(["h1", "h2"]), version


def update_join_view(view_dir: str, delta_facts, dim_ds, on: str):
    """Incremental JOIN-view maintenance (the delta-join law
    Δ(F ⋈ D) = ΔF ⋈ D for a STATIC dimension — dimension changes
    need the SCD2 / backfill path, documented contract): the new
    fact delta joins the dimension through the counted auto_join
    gate and commits as one immutable SEGMENT directory — the view
    is never rewritten, a reader unions the committed segments
    (log-structured, append-only, exactly the layout real lakehouse
    views keep). Commit protocol mirrors the aggregate state: write
    ``seg-N`` fully, then swap CURRENT atomically; a crash mid-write
    leaves an orphan segment the next run overwrites.

    Returns the committed segment number."""
    import ray.data as rd

    from tldr_ray.stages.joins import auto_join

    joined = auto_join(delta_facts, dim_ds, on=on)
    cur = _current_version(view_dir)
    nxt = cur + 1
    seg = os.path.join(view_dir, f"seg-{nxt}")
    import shutil
    shutil.rmtree(seg, ignore_errors=True)
    os.makedirs(view_dir, exist_ok=True)
    joined.write_parquet(seg)
    tmp = os.path.join(view_dir, "CURRENT.tmp")
    with open(tmp, "w") as fh:
        fh.write(str(nxt))
    os.replace(tmp, os.path.join(view_dir, "CURRENT"))
    return nxt


def read_join_view(view_dir: str):
    """Union of all committed segments (<= CURRENT); orphan segments
    beyond CURRENT are invisible — snapshot semantics."""
    import ray.data as rd

    cur = _current_version(view_dir)
    # a LIST passed to read_parquet must name FILES, not directories
    files = []
    for i in range(1, cur + 1):
        seg = os.path.join(view_dir, f"seg-{i}")
        if os.path.isdir(seg):
            files += [os.path.join(seg, f)
                      for f in sorted(os.listdir(seg))
                      if f.endswith(".parquet")]
    if not files:
        raise FileNotFoundError(f"no committed segments in {view_dir}")
    return rd.read_parquet(files)
