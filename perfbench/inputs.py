"""Seeded benchmark inputs, their content digests and the on-disk cache.

Every input is a pure function of (workload, seed, size). The cache key adds
a digest of the code that synthesizes the inputs (this file and the
program's transcript generator), so an edit to either makes a fresh entry
instead of silently reusing a stale one.

The content digest is order-independent and hashes table values, not
Parquet bytes: two writes of the same rows in any block layout or row order
give the same digest.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

_NULL_HASH = np.uint64(0x6A09E667F3BCC909)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over uint64 (wrapping arithmetic)."""
    with np.errstate(over="ignore"):
        z = x + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def _column_hashes(col: pa.ChunkedArray) -> np.ndarray:
    """One uint64 per row; nulls hash to a fixed constant."""
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    t = col.type
    valid = np.ones(len(col), bool) if col.null_count == 0 else \
        np.asarray(col.is_valid())
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        # hash each distinct value once (edge types repeat millions of times)
        enc = col.dictionary_encode()
        vals = enc.dictionary.to_pylist()
        uniq = np.fromiter(
            (int.from_bytes(hashlib.blake2b(v.encode(), digest_size=8)
                            .digest(), "little") for v in vals),
            dtype=np.uint64, count=len(vals))
        idx = np.asarray(enc.indices.fill_null(0), dtype=np.int64)
        out = uniq[idx] if len(vals) else np.zeros(len(col), np.uint64)
    else:
        if pa.types.is_timestamp(t):
            col = col.cast(pa.int64())
        arr = np.asarray(col.fill_null(0))
        if arr.dtype == np.float64:
            bits = arr.view(np.uint64)
        else:
            bits = arr.astype(np.int64).view(np.uint64)
        out = _splitmix64(bits)
    return np.where(valid, out, _NULL_HASH)


def table_digest(tab: pa.Table) -> str:
    """Order-independent content digest of a table.

    Each row hashes its columns (taken in name order, so column order does
    not matter either); the rows combine by wrapping sum and by xor, and the
    schema, row count, sum and xor go through blake2b."""
    n = tab.num_rows
    row = np.zeros(n, np.uint64)
    names = sorted(tab.column_names)
    for i, name in enumerate(names):
        with np.errstate(over="ignore"):
            row = _splitmix64(row ^ (_column_hashes(tab[name])
                                     + np.uint64(i + 1)))
    total = int(row.sum(dtype=np.uint64)) if n else 0
    xor = int(np.bitwise_xor.reduce(row)) if n else 0
    h = hashlib.blake2b(digest_size=8)
    h.update(",".join(f"{nm}:{tab.schema.field(nm).type}"
                      for nm in names).encode())
    h.update(f"{n}:{total:016x}:{xor:016x}".encode())
    return h.hexdigest()


def synth_code_digest(root: str) -> str:
    """Digest of every file whose code decides the generated inputs."""
    h = hashlib.blake2b(digest_size=6)
    for path in (os.path.join(root, "tldr_ray", "sources", "transcripts.py"),
                 os.path.abspath(__file__)):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


# -- generators -----------------------------------------------------------

def transcripts(n_convs: int, seed: int) -> pa.Table:
    """FIXTURES.md F1 corpus: ``n_convs`` synthetic conversations."""
    from tldr_ray.sources.transcripts import synth_transcripts_table

    return synth_transcripts_table(n_convs, seed)


def long_documents(n_docs: int, seed: int, turns_per_doc: int = 92) -> pa.Table:
    """``n_docs`` documents, each the text of ``turns_per_doc`` consecutive
    non-empty turns of the F1 conversation stream (about 8 conversations)
    joined in turn order with single spaces.

    A fixed turn count rather than a fixed conversation count keeps the
    quadratic per-document kernel work nearly the same from seed to seed."""
    from tldr_ray.sources.transcripts import synth_conversation

    texts, parts = [], []
    for c in itertools.count():
        for r in synth_conversation(seed, f"conv-{c:06d}", c):
            if not r["text"]:
                continue
            parts.append(r["text"])
            if len(parts) == turns_per_doc:
                texts.append(" ".join(parts).strip())
                parts = []
                if len(texts) == n_docs:
                    break
        if len(texts) == n_docs:
            break
    ids = [f"doc-{d:05d}" for d in range(n_docs)]
    return pa.table({"doc_id": pa.array(ids, pa.string()),
                     "text": pa.array(texts, pa.string())})


GENERATORS = {
    "transcripts": transcripts,
    "documents": long_documents,
}


def cached_input(work_dir: str, root: str, kind: str, size: int,
                 seed: int) -> tuple[str, pa.Table, str]:
    """(parquet path, table, content digest) for one generated input.

    A cache hit re-reads the Parquet file and checks its content digest
    against the one recorded at generation; a mismatch regenerates."""
    key = f"{kind}-n{size}-s{seed}-c{synth_code_digest(root)}"
    d = os.path.join(work_dir, "inputs", key)
    path = os.path.join(d, "input.parquet")
    digest_file = os.path.join(d, "DIGEST")
    if os.path.exists(digest_file):
        with open(digest_file) as fh:
            want = fh.read().strip()
        tab = pq.read_table(path)
        if table_digest(tab) == want:
            os.utime(d)     # most recently used: kept by the cache pruning
            return path, tab, want
    os.makedirs(d, exist_ok=True)
    tab = GENERATORS[kind](size, seed)
    digest = table_digest(tab)
    tmp = path + ".tmp"
    pq.write_table(tab, tmp)
    os.replace(tmp, path)
    with open(digest_file, "w") as fh:
        fh.write(digest)
    return path, tab, digest


def prune_cache(work_dir: str, keep: int = 4):
    """Keep the ``keep`` most recently used inputs of each kind."""
    d = os.path.join(work_dir, "inputs")
    if not os.path.isdir(d):
        return
    by_kind: dict[str, list[str]] = {}
    for name in os.listdir(d):
        by_kind.setdefault(name.split("-n", 1)[0], []).append(name)
    for names in by_kind.values():
        names.sort(key=lambda n: os.path.getmtime(os.path.join(d, n)),
                   reverse=True)
        for old in names[keep:]:
            shutil.rmtree(os.path.join(d, old), ignore_errors=True)
