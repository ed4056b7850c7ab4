"""Partitioned, resumable parquet output.

The brief's resumable-output rule: write one directory per partition
key (hive layout, ``key=value/``) so a failed 100-TB run can skip
finished partitions instead of restarting. Ray Data's native
``write_parquet(partition_cols=...)`` does the layout; the resume logic
here is the part it lacks — enumerate the partition values already on
disk and prune those rows BEFORE the write, so a re-run streams only
the missing partitions.

Completeness marking: each successful ``write_partitioned_parquet``
call stamps ``key=value/_DONE`` markers AFTER Ray's write returns.
A partition directory without its marker (the run died mid-write) is
treated as incomplete: its files are removed and it is rewritten.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa


def _existing_partitions(out_dir: str, by: str) -> tuple[set, set]:
    """(complete, partial) partition VALUES (as strings) under out_dir."""
    complete, partial = set(), set()
    if not os.path.isdir(out_dir):
        return complete, partial
    prefix = f"{by}="
    for name in os.listdir(out_dir):
        full = os.path.join(out_dir, name)
        if not (name.startswith(prefix) and os.path.isdir(full)):
            continue
        val = name[len(prefix):]
        if os.path.exists(os.path.join(full, "_DONE")):
            complete.add(val)
        else:
            partial.add(val)
    return complete, partial


def write_partitioned_parquet(ds, out_dir: str, by: str,
                              resume: bool = True) -> dict:
    """Write ``ds`` under ``out_dir/{by}=value/`` and return
    ``{"written": [...], "skipped": [...]}`` of partition values.

    With ``resume=True``, values whose directory carries a ``_DONE``
    marker are filtered out of the stream before the write (a cheap
    vectorized isin per batch — no shuffle); directories without the
    marker are wiped and rewritten. Values are compared as strings,
    matching the hive directory encoding."""
    complete, partial = _existing_partitions(out_dir, by) if resume \
        else (set(), set())
    for val in partial:
        shutil.rmtree(os.path.join(out_dir, f"{by}={val}"),
                      ignore_errors=True)

    towrite = ds
    if complete:
        skip = np.sort(np.array(sorted(complete), dtype=object))

        def prune(batch: pa.Table) -> pa.Table:
            vals = batch[by].cast(pa.string()).to_numpy(
                zero_copy_only=False).astype(object)
            pos = np.clip(np.searchsorted(skip, vals), 0, skip.size - 1)
            return batch.filter(pa.array(skip[pos] != vals))

        towrite = ds.map_batches(prune, batch_format="pyarrow")

    towrite.write_parquet(out_dir, partition_cols=[by])

    now_complete, _ = _existing_partitions(out_dir, by)
    written = sorted((now_complete | _partition_dirs(out_dir, by))
                     - complete)
    for val in written:
        d = os.path.join(out_dir, f"{by}={val}")
        if os.path.isdir(d):
            open(os.path.join(d, "_DONE"), "w").close()
    return {"written": written, "skipped": sorted(complete)}


def _partition_dirs(out_dir: str, by: str) -> set:
    if not os.path.isdir(out_dir):
        return set()
    prefix = f"{by}="
    return {n[len(prefix):] for n in os.listdir(out_dir)
            if n.startswith(prefix)
            and os.path.isdir(os.path.join(out_dir, n))}


_WRITERS = {
    "parquet": "write_parquet",
    "csv": "write_csv",
    "json": "write_json",       # newline-delimited JSON
}


def write_table(ds, path: str, format: str = "parquet", **kwargs):
    """Format-agnostic sink twin of ``sources.read_table``: one entry
    point for parquet / CSV / JSONL / ORC / feather(arrow) output
    directories. Parquet is the scale path (columnar, splittable,
    statistics); the others exist for interchange. Extra kwargs pass
    through to the underlying writer. Each executing task writes its
    own file under ``path`` — output stays sharded, never one giant
    file."""
    if format in ("orc", "feather", "arrow", "avro", "dvb"):
        return _write_blob_format(ds, path, format, **kwargs)
    try:
        writer = _WRITERS[format]
    except KeyError:
        raise ValueError(
            f"format must be one of "
            f"{sorted(_WRITERS) + ['orc', 'feather', 'arrow', 'avro', 'dvb']}: "
            f"{format!r}")
    os.makedirs(path, exist_ok=True)
    return getattr(ds, writer)(path, **kwargs)


def _write_blob_format(ds, path: str, format: str,
                       rows_per_file: int = 1_000_000):
    """Sharded ORC / Arrow-IPC writer: every block writes its own file
    (pyarrow built-in encoders; Ray has no native writer for these) —
    the same one-file-per-task layout as the native sinks."""
    import uuid

    import pyarrow as pa

    ext = format if format in ("orc", "avro", "dvb") else "arrow"
    os.makedirs(path, exist_ok=True)

    def write(batch: pa.Table) -> pa.Table:
        fname = os.path.join(
            path, f"part-{uuid.uuid4().hex}.{ext}")
        if format == "orc":
            import pyarrow.orc as po

            po.write_table(batch, fname)
        elif format == "avro":
            import polars as plr

            plr.from_arrow(batch).write_avro(fname)
        elif format == "dvb":
            from tldr_ray.sources.codec import encode_dvb

            with open(fname, "wb") as f:
                f.write(encode_dvb(batch))
        else:
            with pa.ipc.new_file(fname, batch.schema) as w:
                w.write_table(batch)
        return pa.table({"path": pa.array([fname]),
                         "rows": pa.array([len(batch)], pa.int64())})

    manifest = ds.map_batches(write, batch_format="pyarrow",
                              batch_size=rows_per_file).to_pandas()
    return {"files": len(manifest), "rows": int(manifest["rows"].sum())}


def compact_parquet(path: str, target_rows_per_file: int = 1_000_000,
                    columns: list[str] | None = None) -> dict:
    """The small-files compactor: read a parquet directory, repartition
    to ~``target_rows_per_file`` rows per output file, and ATOMICALLY
    swap the directory (write to a sibling temp dir, rename old out of
    the way, rename new in, then drop the old) — readers never observe
    a half-compacted directory, and a crash leaves either the old or
    the new layout plus a stray temp dir to sweep. Returns
    {"files_before", "files_after", "rows"}."""
    import ray.data as rd

    files_before = sum(1 for n in os.listdir(path)
                       if n.endswith(".parquet"))
    ds = rd.read_parquet(path, columns=columns)
    n = ds.count()
    blocks = max(1, -(-n // target_rows_per_file))   # ceil
    tmp = f"{path}.compact-tmp"
    old = f"{path}.compact-old"
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(old, ignore_errors=True)
    ds.repartition(blocks).write_parquet(tmp)
    os.rename(path, old)
    os.rename(tmp, path)
    shutil.rmtree(old, ignore_errors=True)
    files_after = sum(1 for nme in os.listdir(path)
                      if nme.endswith(".parquet"))
    return {"files_before": files_before, "files_after": files_after,
            "rows": int(n)}


def build_zonemap(path: str, cols: list[str],
                  manifest_name: str = "_zonemap.json") -> dict:
    """Data-skipping index for a parquet directory: per-FILE min/max
    of ``cols``, read from parquet FOOTER statistics only — no data
    pages are decoded, so indexing a 100-TB directory costs one
    footer fetch per file. Written atomically next to the data as
    ``_zonemap.json`` (leading underscore: Hive/DuckDB/Spark readers
    ignore it). Values are stored as parquet LOGICAL values
    (timestamps as epoch microseconds) so pruning compares integers.

    Returns the manifest dict {relpath: {col: [min, max]}}."""
    import glob as _glob
    import json

    import pyarrow.parquet as pq

    def _logical(v):
        import datetime

        if isinstance(v, datetime.datetime):
            # NOT .timestamp(): that applies the LOCAL timezone to the
            # naive UTC datetimes parquet statistics decode to.
            return (v - datetime.datetime(1970, 1, 1)) \
                // datetime.timedelta(microseconds=1)
        return v

    manifest = {}
    # recursive: partitioned layouts (range_id=K/, hive dirs) index too;
    # ** includes top level, so dedup keeps flat dirs byte-identical
    files = sorted(set(_glob.glob(os.path.join(path, "*.parquet")))
                   | set(_glob.glob(
                       os.path.join(path, "**", "*.parquet"),
                       recursive=True)))
    for f in files:
        md = pq.ParquetFile(f).metadata
        sch = md.schema.to_arrow_schema()
        idx = {c: sch.names.index(c) for c in cols}
        mins: dict = {}
        maxs: dict = {}
        for rg in range(md.num_row_groups):
            for c, ci in idx.items():
                st = md.row_group(rg).column(ci).statistics
                if st is None or not st.has_min_max:
                    mins[c] = maxs[c] = None     # opaque file: keep it
                    continue
                lo, hi = _logical(st.min), _logical(st.max)
                if c not in mins or (mins[c] is not None and lo < mins[c]):
                    mins[c] = lo
                if c not in maxs or (maxs[c] is not None and hi > maxs[c]):
                    maxs[c] = hi
        manifest[os.path.relpath(f, path)] = {
            c: [mins.get(c), maxs.get(c)] for c in cols}
    tmp = os.path.join(path, manifest_name + ".tmp")
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    os.replace(tmp, os.path.join(path, manifest_name))
    return manifest


def build_hash_index(ds, path: str, key_col: str,
                     num_buckets: int = 64,
                     manifest_name: str = "_hashindex.json") -> dict:
    """POINT-lookup layout, the hash complement of the zone map's
    range path: one all-to-all on ``vhash(key) % num_buckets`` lands
    every row in its bucket file ``bucket_%05d.parquet`` (written
    atomically by the bucket's own task — tmp + rename, so a crashed
    build never leaves a torn file), plus an atomic ``_hashindex.json``
    manifest recording key_col / num_buckets / per-bucket row counts.
    A key probe then opens exactly ONE file however large the table is
    (sources.tabular.read_point_lookup). Underscore-prefixed manifest:
    Hive/Spark/DuckDB directory readers ignore it; bucket files avoid
    ``=`` so nothing hive-infers phantom columns."""
    import json

    import pyarrow.parquet as pq

    from tldr_ray.hashing import part_key

    os.makedirs(path, exist_ok=True)

    def assign(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch[key_col], dtype=np.int64)
        return batch.append_column(
            "__bucket", pa.array(part_key(k, num_buckets)))

    def write_bucket(g: pa.Table) -> pa.Table:
        b = int(g["__bucket"][0].as_py())
        t = g.drop_columns(["__bucket"])
        tmp = os.path.join(path, f".bucket_{b:05d}.tmp")
        pq.write_table(t, tmp)
        os.replace(tmp, os.path.join(path, f"bucket_{b:05d}.parquet"))
        return pa.table({"bucket": pa.array([b], pa.int64()),
                         "n_rows": pa.array([t.num_rows], pa.int64())})

    counts = (ds.map_batches(assign, batch_format="pyarrow")
              .groupby("__bucket")
              .map_groups(write_bucket, batch_format="pyarrow")
              .to_pandas())
    manifest = {
        "key_col": key_col,
        "num_buckets": int(num_buckets),
        "buckets": {int(b): int(n) for b, n in
                    zip(counts["bucket"], counts["n_rows"])}}
    tmp = os.path.join(path, manifest_name + ".tmp")
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    os.replace(tmp, os.path.join(path, manifest_name))
    return manifest


def write_range_partitioned(ds, out_dir: str, col: str,
                            num_ranges: int = 16,
                            resume: bool = True) -> dict:
    """Range-partitioned layout: EXACT equi-depth range bounds from a
    distinct-value counts pass (per-block pre-combined, O(#distinct)
    selection frame — the grouped_quantiles discipline, so a skewed
    column still yields balanced files, unlike fixed-width ranges),
    then one pass assigns each row its range id and the resumable
    partitioned writer lands ``range_id=K/`` directories with _DONE
    markers. Rows with equal values always share a range (ties never
    split), so per-file min/max are tight and disjoint up to
    duplicates — ``build_zonemap`` + ``read_pruned`` over this layout
    prune to the files a value range actually touches. Returns the
    writer report plus ``bounds`` (the num_ranges-1 right-exclusive
    cut values)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def vc_partial(batch: pa.Table) -> pa.Table:
        g = (pa.table({"v": batch[col]})
             .group_by("v").aggregate([("v", "count")]))
        return pa.table({"v": g["v"],
                         "c": g["v_count"].cast(pa.int64())})

    vc = (ds.select_columns([col])
          .map_batches(vc_partial, batch_format="pyarrow")
          .groupby("v").aggregate(Sum("c", alias_name="c"))
          .to_pandas())
    if vc.empty:
        # 0-row input: to_pandas drops columns (documented gotcha);
        # land an empty layout with no cuts instead of crashing
        report = write_partitioned_parquet(
            ds.map_batches(
                lambda b: b.append_column(
                    "range_id",
                    pa.array(np.zeros(len(b), np.int64))),
                batch_format="pyarrow"),
            out_dir, by="range_id", resume=resume)
        report["bounds"] = []
        return report
    v = vc["v"].to_numpy()
    order = np.argsort(v, kind="stable")
    v = v[order]
    c = vc["c"].to_numpy(np.int64)[order]
    n = int(c.sum())
    cum = np.cumsum(c)
    targets = (np.arange(1, num_ranges, dtype=np.int64) * n
               ) // num_ranges
    cut_idx = np.searchsorted(cum, targets, side="right")
    cut_idx = np.minimum(cut_idx, v.size - 1)
    bounds = np.unique(v[cut_idx])        # dedup under heavy ties

    def assign(batch: pa.Table) -> pa.Table:
        x = np.asarray(batch[col])
        rid = np.searchsorted(bounds, x, side="right")
        return batch.append_column("range_id",
                                   pa.array(rid.astype(np.int64)))

    report = write_partitioned_parquet(
        ds.map_batches(assign, batch_format="pyarrow"), out_dir,
        by="range_id", resume=resume)
    report["bounds"] = bounds.tolist()
    return report


def build_bloom_sidecar(path: str, col: str, m_bits: int = 1 << 16,
                        k: int = 6,
                        manifest_name: str = "_bloom.json") -> dict:
    """Bloom-filter data-skipping sidecar for a parquet directory:
    per FILE, an m-bit filter over ``col``'s values (splitmix double
    hashing, k probes) — the POINT-lookup complement of the zone map
    (min/max boxes prune ranges; blooms prune membership on layouts
    with no value clustering at all, where every zone spans the whole
    domain). Unlike build_zonemap this reads the indexed column's
    data pages (column-pruned, one pass per file). Written atomically
    as ``_bloom.json`` with hex-encoded bitsets.

    Returns {relpath: hex_bits}. False positives open extra files;
    false negatives are impossible, so the exact residual filter
    keeps results correct."""
    import glob as _glob
    import json

    import numpy as np
    import pyarrow.parquet as pq

    from tldr_ray.stages.dedup import _mix64

    import ray

    files = sorted(set(_glob.glob(os.path.join(path, "*.parquet")))
                   | set(_glob.glob(
                       os.path.join(path, "**", "*.parquet"),
                       recursive=True)))

    @ray.remote(num_cpus=1)
    def _file_bloom(f: str) -> str:
        # one task per file: the column scan parallelizes across the
        # cluster instead of serializing through the driver
        v = pq.read_table(f, columns=[col])[col]
        x = np.unique(np.asarray(v.cast("int64"), dtype=np.int64)
                      .astype(np.uint64))
        bits = np.zeros(m_bits // 8, np.uint8)
        h1 = _mix64(x)
        h2 = _mix64(x ^ np.uint64(0x9E3779B97F4A7C15)) \
            | np.uint64(1)
        for i in range(k):
            pos = ((h1 + np.uint64(i) * h2)
                   % np.uint64(m_bits)).astype(np.int64)
            np.bitwise_or.at(bits, pos >> 3,
                             np.uint8(1) << (pos & 7).astype(np.uint8))
        return bits.tobytes().hex()

    hexes = ray.get([_file_bloom.remote(f) for f in files])
    manifest = {os.path.relpath(f, path): h
                for f, h in zip(files, hexes)}
    meta = {"col": col, "m_bits": m_bits, "k": k,
            "files": manifest}
    tmp = os.path.join(path, manifest_name + ".tmp")
    with open(tmp, "w") as fh:
        json.dump(meta, fh, sort_keys=True)
    os.replace(tmp, os.path.join(path, manifest_name))
    return meta


def plan_compaction_bins(files: list[tuple[str, int]],
                         target_bytes: int) -> list[list[str]]:
    """FIRST-FIT-DECREASING bin packing of (name, bytes) files into
    compaction bins of ~``target_bytes`` — the size-aware planner
    (compact_parquet repartitions by ROWS, which is a full shuffle;
    bin compaction only ever reads the files inside one bin, so a
    100 TB table compacts as thousands of independent tasks).
    Deterministic: sort by (size desc, name asc), place into the
    first bin with room; an oversize file gets its own bin."""
    order = sorted(files, key=lambda f: (-f[1], f[0]))
    bins: list[list[str]] = []
    loads: list[int] = []
    for name, sz in order:
        placed = False
        for i, ld in enumerate(loads):
            if ld + sz <= target_bytes:
                bins[i].append(name)
                loads[i] += sz
                placed = True
                break
        if not placed:
            bins.append([name])
            loads.append(sz)
    return bins


def compact_bins(path: str, target_bytes: int = 128 << 20) -> dict:
    """Shuffle-free small-file compaction: FFD-pack the directory's
    parquet files into ~``target_bytes`` bins, rewrite each bin as ONE
    file in an independent Ray task (reads only its own bin — no
    all-to-all, unlike the repartition compactor), then atomically
    swap the directory (same tmp/old rename dance as
    compact_parquet). Returns {"files_before", "files_after",
    "rows", "bins"}."""
    import ray
    import pyarrow.parquet as _pq

    names = sorted(n for n in os.listdir(path)
                   if n.endswith(".parquet"))
    sizes = [(n, os.stat(os.path.join(path, n)).st_size)
             for n in names]
    bins = plan_compaction_bins(sizes, target_bytes)
    tmp = f"{path}.compact-tmp"
    old = f"{path}.compact-old"
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(old, ignore_errors=True)
    os.makedirs(tmp)

    @ray.remote(num_cpus=1)
    def rewrite(bin_files: list, out: str) -> int:
        import pyarrow as _pa

        t = _pa.concat_tables([_pq.read_table(f) for f in bin_files])
        _pq.write_table(t, out)
        return t.num_rows

    rows = sum(ray.get([
        rewrite.remote([os.path.join(path, f) for f in b],
                       os.path.join(tmp, f"compacted-{i:05d}.parquet"))
        for i, b in enumerate(bins)]))
    os.rename(path, old)
    os.rename(tmp, path)
    shutil.rmtree(old, ignore_errors=True)
    return {"files_before": len(names), "files_after": len(bins),
            "rows": int(rows), "bins": len(bins)}


def write_fixed_width(ds, path: str, cols: list[str]):
    """FIXED-WIDTH binary record sink: every column must be int64 (the
    canonical interchange contract — timestamps as epoch-us, money as
    cents, strings via a dictionary table; jsonl_roundtrip_events
    established the same rule). One record = len(cols) * 8 bytes
    little-endian, one file per executing block — the layout legacy
    mainframe/HPC feeds and mmap-able numpy consumers expect, and the
    densest possible scan format (zero parse: a reader reshapes the
    byte stream). Returns the column order for the paired reader."""
    import uuid

    os.makedirs(path, exist_ok=True)

    def write(batch):
        import numpy as np
        import pyarrow as pa

        m = np.column_stack([
            np.asarray(batch[c], dtype=np.int64) for c in cols])
        fname = os.path.join(path, f"part-{uuid.uuid4().hex}.fwr")
        with open(fname, "wb") as f:
            f.write(np.ascontiguousarray(m, dtype="<i8").tobytes())
        return pa.table({"file": pa.array([fname]),
                         "rows": pa.array([m.shape[0]])})

    ds.map_batches(write, batch_format="pyarrow").materialize()
    with open(os.path.join(path, "_schema.txt"), "w") as f:
        f.write(",".join(cols))
    return cols
