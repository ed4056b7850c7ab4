"""Large-scale deduplication operators (brief: first-class components).

All operators are Ray Data pipelines over a (id, text) or (id,
embedding) Dataset and share one shape:

    vectorized per-batch signature -> bucket-keyed groupby (the only
    shuffle) -> candidate pairs inside map_groups (bucket size capped,
    truncation surfaced, never silent) -> pair verification ->
    duplicate-cluster resolution (driver union-find for small pair sets,
    the distributed CC engine above that threshold) -> keep min-id per
    cluster.

Exact dedup uses a 128-bit content hash as the partition key so the
shuffle never carries full texts (SURVEY.md §2.5).
"""

from __future__ import annotations


import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from tldr_ray.hashing import content_hash128_batch, keyed_sweep
# zero-copy Arrow string-buffer access lives in the shared hashing
# module (with large_string/large_binary offset handling)
from tldr_ray.hashing import string_bytes as _string_bytes

_MERSENNE = (1 << 61) - 1

# byte-wise popcount table: hamming of uint64 arrays without Python loops
_POP8 = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None],
                      axis=1).sum(axis=1).astype(np.uint8)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 array."""
    x = np.ascontiguousarray(x, dtype=np.uint64)
    return _POP8[x.view(np.uint8).reshape(-1, 8)].sum(axis=1).astype(np.int64)


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer (public-domain mixing constants) — used to
    derive band-bucket keys from signature rows without per-row hashing."""
    x = np.asarray(x, dtype=np.uint64)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def exact_dedup(ds, id_col: str = "doc_id", text_col: str = "text",
                num_partitions: int = 64):
    """Exact duplicate clusters: (doc_id, keep_id, n_dupes) one row per doc.

    hash-partition + per-group-first (SURVEY.md §2.5): the shuffle moves
    16 bytes + id per row, keyed by a COARSE partition of the 128-bit
    content hash; each partition task sorts once by (hash, id) and
    resolves every contained cluster with segment reductions — no
    per-cluster map_groups invocations.
    """
    def add_hash(batch: pa.Table) -> pa.Table:
        h1, h2 = content_hash128_batch(batch[text_col])
        return pa.table({id_col: batch[id_col], "h1": pa.array(h1),
                         "h2": pa.array(h2)})

    def resolve_part(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["h1", "h2", id_col])
        ids = g[id_col].to_numpy()
        h1 = g["h1"].to_numpy()
        h2 = g["h2"].to_numpy()
        new = np.concatenate([[True],
                              (h1[1:] != h1[:-1]) | (h2[1:] != h2[:-1])])
        starts = np.flatnonzero(new)
        sizes = np.diff(np.concatenate([starts, [len(g)]]))
        seg_of = np.cumsum(new) - 1
        return pd.DataFrame(
            {
                id_col: ids,
                "keep_id": ids[starts][seg_of],
                "n_dupes": sizes[seg_of].astype(np.int64),
            }
        )

    return keyed_sweep(
        ds.select_columns([id_col, text_col])
        .map_batches(add_hash, batch_format="pyarrow"),
        "h1", resolve_part, num_partitions)


def exact_dedup_representatives(ds, id_col: str = "doc_id",
                                text_col: str = "text",
                                num_partitions: int = 64,
                                with_count: bool = False):
    """Exact dedup that keeps the min-id ROW (with its text) per content
    hash, entirely in-flow — no id-set round-trips back to the driver.
    The shuffle carries the text once, which is exactly the payload a
    downstream consumer of the surviving rows needs anyway; same coarse
    partition sweep as ``exact_dedup``.

    ``with_count=True`` appends ``__n_dupes`` (cluster size) to each
    kept row, so a consumer can recover the pre-dedup row count as
    ``sum(__n_dupes)`` without a separate pass (curation uses this to
    fold its report counts into the one materialized intermediate)."""
    def add_hash(batch: pa.Table) -> pa.Table:
        h1, h2 = content_hash128_batch(batch[text_col])
        return batch.append_column("__h1", pa.array(h1)) \
            .append_column("__h2", pa.array(h2))

    def keep_min_part(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["__h1", "__h2", id_col])
        h1 = g["__h1"].to_numpy()
        h2 = g["__h2"].to_numpy()
        first = np.concatenate([[True],
                                (h1[1:] != h1[:-1]) | (h2[1:] != h2[:-1])])
        out = g[first].drop(columns=["__h1", "__h2"])
        if with_count:
            starts = np.flatnonzero(first)
            sizes = np.diff(np.concatenate([starts, [len(g)]]))
            out = out.assign(__n_dupes=sizes.astype(np.int64))
        return out

    return keyed_sweep(ds.map_batches(add_hash, batch_format="pyarrow"),
                       "__h1", keep_min_part, num_partitions)


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------

def _shingle_hashes(text: str, k: int) -> np.ndarray:
    """Distinct k-char-shingle hashes as uint64 (FNV-1a, vectorized)."""
    b = (text or "").encode("utf-8")
    if len(b) < k:
        b = b + b"\x00" * (k - len(b))
    arr = np.frombuffer(b, dtype=np.uint8)
    n = arr.size - k + 1
    # rolling FNV-1a over k-byte windows via strided view
    windows = np.lib.stride_tricks.sliding_window_view(arr, k)
    h = np.full(n, 0xCBF29CE484222325, dtype=np.uint64)
    prime = np.uint64(0x100000001B3)
    for i in range(k):
        h = (h ^ windows[:, i].astype(np.uint64)) * prime
    return np.unique(h)


def _corpus_shingle_hashes(texts, k: int) -> tuple[np.ndarray, np.ndarray]:
    """All k-byte-window FNV-1a hashes for a whole batch of texts in one
    vectorized pass over the Arrow string buffer (no per-doc Python loop;
    hash values identical to ``_shingle_hashes`` minus the dedup/sort,
    which MinHash minima don't need).

    Returns (hashes uint64[W], n_windows int64[D]); every doc has >= 1
    window (short docs are zero-padded to k bytes, matching
    ``_shingle_hashes``).
    """
    data, off = _string_bytes(texts)
    lens = np.diff(off)
    starts = off[:-1].copy()
    short = lens < k
    if short.any():
        # zero-pad short docs into an appendix after the shared buffer
        idx = np.nonzero(short)[0]
        app = b"".join(
            data[off[i] : off[i + 1]].tobytes().ljust(k, b"\x00")
            for i in idx)
        starts[idx] = data.size + np.arange(idx.size, dtype=np.int64) * k
        data = np.concatenate([data, np.frombuffer(app, dtype=np.uint8)])
        lens = np.where(short, k, lens)
    n_win = lens - k + 1
    total = int(n_win.sum())
    doc_of = np.repeat(np.arange(lens.size, dtype=np.int64), n_win)
    seg_start = np.cumsum(n_win) - n_win
    win_pos = starts[doc_of] + (np.arange(total, dtype=np.int64)
                                - seg_start[doc_of])
    h = np.full(total, 0xCBF29CE484222325, dtype=np.uint64)
    prime = np.uint64(0x100000001B3)
    for j in range(k):
        h = (h ^ data[win_pos + j].astype(np.uint64)) * prime
    return h, n_win


def _minhash_params(num_perm: int, seed: int = 1):
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, num_perm, dtype=np.int64).astype(np.uint64)
    b = rng.integers(0, _MERSENNE, num_perm, dtype=np.int64).astype(np.uint64)
    return a, b


def _minhash_sig(shingles: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """num_perm minima of (a*x + b) mod 2^61-1 over the shingle set."""
    if shingles.size == 0:
        return np.zeros(a.size, dtype=np.uint64)
    x64 = shingles % np.uint64(_MERSENNE)
    # (a*x + b) in uint64 with natural mod-2^64 wraparound: the wrapped
    # product is still a consistent pairwise hash (we only need stable
    # minima across documents, not true mod-Mersenne arithmetic)
    prod = x64[None, :] * a[:, None] + b[:, None]
    return prod.min(axis=1)


def _minhash_sigs_batch(hashes: np.ndarray, n_win: np.ndarray,
                        a: np.ndarray, b: np.ndarray,
                        perm_chunk: int = 16) -> np.ndarray:
    """Per-doc MinHash signatures (D, num_perm) over the flattened window
    hashes of a whole batch — segmented minima via ``minimum.reduceat``,
    chunked over permutations to bound the (chunk, W) intermediate.
    Identical values to per-doc ``_minhash_sig``."""
    D, P = n_win.size, a.size
    if hashes.size == 0:
        return np.zeros((D, P), dtype=np.uint64)
    x = hashes % np.uint64(_MERSENNE)
    seg = np.cumsum(n_win) - n_win        # every segment non-empty
    sig = np.empty((D, P), dtype=np.uint64)
    for c in range(0, P, perm_chunk):
        prod = a[c:c + perm_chunk, None] * x[None, :] + b[c:c + perm_chunk, None]
        sig[:, c:c + perm_chunk] = np.minimum.reduceat(prod, seg, axis=1).T
    return sig


def _fixed_binary_matrix(arr, itemsize: int) -> np.ndarray:
    """Zero-copy (n, itemsize//8) uint64 view over an Arrow binary column
    whose values all have length ``itemsize`` bytes. Handles both 32-bit
    (binary) and 64-bit (large_binary) offset layouts; raises on any
    other type instead of misparsing the buffers."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    t = arr.type
    if pa.types.is_binary(t) or pa.types.is_string(t):
        off_dtype = np.int32
    elif pa.types.is_large_binary(t) or pa.types.is_large_string(t):
        off_dtype = np.int64
    else:
        raise TypeError(f"expected a (large_)binary column, got {t}")
    off = np.frombuffer(arr.buffers()[1], dtype=off_dtype)[
        arr.offset : arr.offset + len(arr) + 1]
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    n = len(arr)
    flat = data[off[0] : off[0] + n * itemsize]
    return np.ascontiguousarray(flat).reshape(n, itemsize).view(np.uint64)


_TRIU_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _triu_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached upper-triangle index pairs (bucket sizes repeat heavily)."""
    got = _TRIU_CACHE.get(n)
    if got is None:
        got = _TRIU_CACHE[n] = np.triu_indices(n, 1)
    return got


def _segment_pair_indices(sizes: np.ndarray, starts: np.ndarray,
                          max_bucket: int):
    """All within-segment (i, j) global index pairs for segments of the
    given sizes, truncating each segment at ``max_bucket`` rows. Returns
    (ia, ib, truncated_sizes) — truncated_sizes lists the ORIGINAL sizes
    of segments that were cut, so callers can surface them."""
    ia, ib, trunc = [], [], []
    for s, st in zip(sizes.tolist(), starts.tolist()):
        if s < 2:
            continue
        if s > max_bucket:
            trunc.append(s)
            s = max_bucket
        ii, jj = _triu_pairs(s)
        ia.append(ii + st)
        ib.append(jj + st)
    if not ia:
        z = np.zeros(0, dtype=np.int64)
        return z, z, trunc
    return np.concatenate(ia), np.concatenate(ib), trunc


def minhash_lsh_pairs(ds, id_col: str = "doc_id", text_col: str = "text",
                      num_perm: int = 64, bands: int = 16, shingle_k: int = 5,
                      threshold: float = 0.7, max_bucket: int = 200,
                      num_partitions: int = 64):
    """Candidate near-dup pairs with MinHash-estimated Jaccard >= threshold.

    Returns Dataset (id_a, id_b, est_jaccard). Buckets larger than
    ``max_bucket`` are truncated deterministically (sorted ids) and
    flagged via a synthetic pair (id_a = id_b = -1, est = bucket size)
    so truncation is observable, never silent.

    The shuffle groups rows by a COARSE partition key (``bucket %
    num_partitions``), not by individual LSH bucket: most buckets are
    singletons, and per-group invocation overhead on tens of thousands
    of micro-groups dwarfs the real work. Each partition task re-sorts
    its rows and sweeps every contained bucket vectorized.
    """
    rows_per_band = num_perm // bands
    a, b = _minhash_params(num_perm)

    def signatures(batch: pa.Table) -> pa.Table:
        """One fully-vectorized pass: corpus-level shingle hashing,
        segmented-minimum signatures, splitmix-mixed band buckets. Emits
        one row per (doc, band); the signature bytes ride along for the
        in-bucket Jaccard estimate."""
        D = batch.num_rows
        if D == 0:
            return pa.table({"id": pa.array([], pa.int64()),
                             "band": pa.array([], pa.int32()),
                             "bucket": pa.array([], pa.int64()),
                             "sig": pa.array([], pa.binary())})
        ids = np.asarray(batch[id_col], dtype=np.int64)
        h, n_win = _corpus_shingle_hashes(batch[text_col], shingle_k)
        sig = _minhash_sigs_batch(h, n_win, a, b)          # (D, P)
        # band buckets: salt each row position, mix, xor-reduce per band
        sig3 = sig.reshape(D, bands, rows_per_band)
        salt = (np.arange(rows_per_band, dtype=np.uint64) + np.uint64(1)) \
            * np.uint64(0x9E3779B97F4A7C15)
        bucket = _mix64(np.bitwise_xor.reduce(
            _mix64(sig3 ^ salt[None, None, :]), axis=2))    # (D, bands)
        sig_bytes = [sig[i].tobytes() for i in range(D)]
        flat_bucket = bucket.reshape(-1)
        return pa.table(
            {
                "id": pa.array(np.repeat(ids, bands)),
                "band": pa.array(np.tile(np.arange(bands, dtype=np.int32), D)),
                "bucket": pa.array(flat_bucket.view(np.int64)),
                "sig": pa.array([s for s in sig_bytes for _ in range(bands)],
                                pa.binary()),
            }
        )

    def partition_pairs(group: pa.Table) -> pa.Table:
        """One call per coarse partition: sweep every (band, bucket)
        segment it contains, fully vectorized."""
        empty = pa.table({"id_a": pa.array([], pa.int64()),
                          "id_b": pa.array([], pa.int64()),
                          "est_jaccard": pa.array([], pa.float64())})
        n = group.num_rows
        if n < 2:
            return empty
        ids = np.asarray(group["id"], dtype=np.int64)
        band = np.asarray(group["band"], dtype=np.int32)
        buck = np.asarray(group["bucket"], dtype=np.int64)
        order = np.lexsort((ids, buck, band))
        ids, band, buck = ids[order], band[order], buck[order]
        change = np.flatnonzero((band[1:] != band[:-1])
                                | (buck[1:] != buck[:-1]))
        starts = np.concatenate([[0], change + 1])
        sizes = np.diff(np.concatenate([starts, [n]]))
        ia, ib, trunc = _segment_pair_indices(sizes, starts, max_bucket)
        if ia.size == 0 and not trunc:
            return empty
        sigmat = _fixed_binary_matrix(group["sig"], num_perm * 8)[order]
        est = (sigmat[ia] == sigmat[ib]).mean(axis=1)
        keep = est >= threshold
        ra, rb, re = ids[ia[keep]], ids[ib[keep]], est[keep]
        if trunc:
            t = np.asarray(trunc, dtype=np.float64)
            ra = np.concatenate([ra, np.full(t.size, -1, np.int64)])
            rb = np.concatenate([rb, np.full(t.size, -1, np.int64)])
            re = np.concatenate([re, t])
        return pa.table({"id_a": pa.array(ra), "id_b": pa.array(rb),
                         "est_jaccard": pa.array(re)})

    pairs = keyed_sweep(
        ds.select_columns([id_col, text_col])
        .map_batches(signatures, batch_format="pyarrow", batch_size=256),
        "bucket", partition_pairs, num_partitions, batch_format="pyarrow")
    # a pair can surface from several bands -> dedupe on (id_a, id_b)
    return pairs.groupby(["id_a", "id_b"]).max("est_jaccard").map_batches(
        lambda t: t.rename_columns(["id_a", "id_b", "est_jaccard"]),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

def _token_hashes(tokens) -> np.ndarray:
    """uint64 hash per token via the shared position-major FNV-1a —
    fully vectorized AND portable: signature bits no longer depend on
    polars' version-specific hash, so simhash output is reproducible
    across environments and runs (round-2 advice). Tokens are short, so
    the position-major loop runs ~word-length iterations per batch."""
    from tldr_ray.hashing import fnv1a_batch

    if not isinstance(tokens, (pa.Array, pa.ChunkedArray)):
        tokens = pa.array([t or "" for t in tokens], pa.string())
    return fnv1a_batch(tokens)


def _simhash_batch(texts) -> np.ndarray:
    """SimHash64 per doc, fully vectorized: Arrow lower+whitespace-split,
    one hash call for every token in the batch, bit-majority via
    ``unpackbits`` + segmented ``add.reduceat``. Zero-token docs -> 0."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    if not isinstance(texts, pa.Array):
        texts = pa.array([t or "" for t in texts], pa.string())
    D = len(texts)
    if D == 0:
        return np.zeros(0, dtype=np.uint64)
    toks = pc.utf8_split_whitespace(pc.utf8_lower(pc.fill_null(texts, "")))
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    flat = pc.list_flatten(toks)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    # Arrow split emits empty boundary tokens ("  a " -> ['', 'a', '']);
    # Python .split() doesn't — mask them out of the majority vote
    off = np.asarray(toks.offsets, dtype=np.int64)
    nonempty = np.asarray(pc.greater(pc.utf8_length(flat), 0))
    doc_of = np.repeat(np.arange(D, dtype=np.int64), np.diff(off))
    doc_of = doc_of[nonempty]
    if doc_of.size == 0:
        return np.zeros(D, dtype=np.uint64)
    th = _token_hashes(flat.filter(pa.array(nonempty)))
    bits = np.unpackbits(th.view(np.uint8).reshape(-1, 8), axis=1,
                         bitorder="little").astype(np.int32)     # (T, 64)
    n_tok = np.bincount(doc_of, minlength=D).astype(np.int64)
    have = n_tok > 0
    seg = (np.cumsum(n_tok) - n_tok)[have]
    ones = np.add.reduceat(bits, seg, axis=0)                    # (D', 64)
    sig = np.zeros(D, dtype=np.uint64)
    shifts = np.arange(64, dtype=np.uint64)
    maj = (2 * ones > n_tok[have][:, None]).astype(np.uint64)    # strict >
    sig[have] = np.bitwise_or.reduce(maj << shifts[None, :], axis=1)
    return sig


def _simhash_band_plan(max_hamming: int) -> list[tuple[int, int]]:
    """(shift, width) per LSH table. ``max_hamming + 1`` tables split the
    64 signature bits: a pair within hamming d <= max_hamming differs in
    at most d bands, so it collides in at least one (pigeonhole) —
    guaranteed recall for the advertised distance, at the cost of wider
    buckets as max_hamming grows (width = 64 // tables)."""
    n_tables = max_hamming + 1
    widths = [64 // n_tables + (1 if i < 64 % n_tables else 0)
              for i in range(n_tables)]
    shifts = np.cumsum([0] + widths[:-1])
    return list(zip(shifts.tolist(), widths))


def simhash_pairs(ds, id_col: str = "doc_id", text_col: str = "text",
                  max_hamming: int = 3, max_bucket: int = 500,
                  num_partitions: int = 64):
    """Near-dup pairs with SimHash hamming distance <= max_hamming.

    Multi-table LSH with the table count DERIVED from ``max_hamming``
    (max_hamming + 1 tables; pigeonhole guarantees every pair within the
    advertised distance shares at least one band), so the operator's
    "distance <= max_hamming" contract holds for any setting — larger
    distances trade bucket width for that recall. Same coarse-partition
    sweep as ``minhash_lsh_pairs`` (micro-group overhead dominates
    otherwise).
    """
    plan = _simhash_band_plan(max_hamming)

    def signatures(batch: pa.Table) -> pa.Table:
        D = batch.num_rows
        ids = np.asarray(batch[id_col], dtype=np.int64)
        sig = _simhash_batch(batch[text_col])
        tabs, bands = [], []
        for t, (shift, width) in enumerate(plan):
            mask = np.uint64((1 << width) - 1)
            bands.append((sig >> np.uint64(shift)) & mask)
            tabs.append(np.full(D, t, dtype=np.int32))
        T = len(plan)
        return pa.table(
            {
                "id": pa.array(np.tile(ids, T)),
                "tab": pa.array(np.concatenate(tabs)),
                "band": pa.array(np.concatenate(bands).view(np.int64)),
                "sig": pa.array(np.tile(sig, T)),
            }
        )

    def partition_pairs(group: pa.Table) -> pa.Table:
        empty = pa.table({"id_a": pa.array([], pa.int64()),
                          "id_b": pa.array([], pa.int64()),
                          "hamming": pa.array([], pa.int64())})
        n = group.num_rows
        if n < 2:
            return empty
        ids = np.asarray(group["id"], dtype=np.int64)
        tab = np.asarray(group["tab"], dtype=np.int32)
        band = np.asarray(group["band"], dtype=np.int64)
        sigs = np.asarray(group["sig"]).astype(np.uint64, copy=False)
        order = np.lexsort((ids, band, tab))
        ids, tab, band, sigs = ids[order], tab[order], band[order], sigs[order]
        change = np.flatnonzero((tab[1:] != tab[:-1])
                                | (band[1:] != band[:-1]))
        starts = np.concatenate([[0], change + 1])
        sizes = np.diff(np.concatenate([starts, [n]]))
        ia, ib, _ = _segment_pair_indices(sizes, starts, max_bucket)
        if ia.size == 0:
            return empty
        ham = _popcount64(sigs[ia] ^ sigs[ib])
        keep = ham <= max_hamming
        return pa.table({"id_a": pa.array(ids[ia[keep]]),
                         "id_b": pa.array(ids[ib[keep]]),
                         "hamming": pa.array(ham[keep])})

    pairs = keyed_sweep(
        ds.select_columns([id_col, text_col])
        .map_batches(signatures, batch_format="pyarrow", batch_size=512),
        ["tab", "band"], partition_pairs, num_partitions,
        batch_format="pyarrow")
    return pairs.groupby(["id_a", "id_b"]).min("hamming").map_batches(
        lambda t: t.rename_columns(["id_a", "id_b", "hamming"]),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# exact n-gram Jaccard verification
# ---------------------------------------------------------------------------

def candidate_endpoint_docs(ds, cand, id_col: str = "doc_id",
                            text_col: str = "text"):
    """Restrict a document Dataset to rows whose id appears as an
    endpoint of ``cand`` (an (id_a, id_b, ...) candidate-pair Dataset).

    The pair set is COUNTED first; while it is provably small (the
    normal case — candidates are typically <<1% of the corpus) the
    distinct endpoint ids ride the object store once as a sorted numpy
    array (8 B/id) and every read task filters its batch with
    ``searchsorted`` — so non-candidate documents' texts never enter
    any shuffle. Past the broadcast gate (stages.joins.fits_broadcast)
    the filter is skipped (returns the full Dataset) and the caller's
    verify shuffle carries every text — correct, with the gate surfaced
    in the return flag.

    Returns (filtered_docs, used_filter: bool, n_pairs: int).
    """
    import ray

    from tldr_ray.stages.joins import fits_broadcast

    n_pairs = cand.count()
    if not fits_broadcast(cand):
        return ds, False, n_pairs
    chunks = []
    for batch in cand.select_columns(["id_a", "id_b"]).iter_batches(
            batch_size=65536, batch_format="pyarrow"):
        a = np.asarray(batch["id_a"], dtype=np.int64)
        b = np.asarray(batch["id_b"], dtype=np.int64)
        keep = a >= 0                       # drop truncation sentinels
        chunks.append(np.unique(np.concatenate([a[keep], b[keep]])))
    ids = np.unique(np.concatenate(chunks)) if chunks \
        else np.zeros(0, dtype=np.int64)
    ids_ref = ray.put(ids)

    def keep_candidates(batch: pa.Table) -> pa.Table:
        wanted = ray.get(ids_ref)           # zero-copy plasma view
        got = np.asarray(batch[id_col], dtype=np.int64)
        if wanted.size == 0:
            return batch.slice(0, 0)
        pos = np.searchsorted(wanted, got)
        pos = np.minimum(pos, wanted.size - 1)
        return batch.filter(pa.array(wanted[pos] == got))

    return ds.map_batches(keep_candidates, batch_format="pyarrow"), \
        True, n_pairs


def ngram_jaccard_pairs(ds, id_col: str = "doc_id", text_col: str = "text",
                        shingle_k: int = 5, threshold: float = 0.8,
                        num_perm: int = 64, bands: int = 16,
                        max_bucket: int = 200, num_partitions: int = 64,
                        metric: str = "jaccard"):
    """EXACT n-gram Jaccard pairs >= threshold, using MinHash-LSH only as
    the blocking stage (recall filter at a lower estimate cut), then
    re-computing true Jaccard on the shingle sets of surviving pairs.

    ``metric="containment"`` scores |A∩B| / |A| instead (the asymmetric
    near-dup signal for small-doc-inside-big-doc; output column is named
    after the metric). Blocking stays MinHash-Jaccard either way, so
    high-containment / low-Jaccard pairs outside the LSH recall band are
    not candidates — callers wanting those need a different blocker.

    Verification is distributed and the verify shuffle is SEMI-JOINED:

    1. the candidate pair set is counted; while small (the normal case)
       the distinct endpoint ids are broadcast once and the document
       Dataset is filtered BEFORE any text moves — docs with no
       candidate pair never enter the verify shuffle (round-2 fix: the
       old path shuffled every document's text to verify <<1% of them).
       Past the counted size gate the filter is skipped and all texts
       ride the shuffle (correct, just heavier).
    2. each candidate pair expands to one row per endpoint; a coarse
       shuffle on ``endpoint id % num_partitions`` co-locates pair rows
       with the surviving documents' texts; each partition task computes
       shingle sets ONCE per doc and attaches them;
    3. a second coarse shuffle on the pair key brings both endpoints'
       sets together and computes true Jaccard.
    """
    cand = minhash_lsh_pairs(ds, id_col, text_col, num_perm, bands, shingle_k,
                             threshold=max(0.3, threshold - 0.2),
                             max_bucket=max_bucket,
                             num_partitions=num_partitions).materialize()
    return _verify_pairs(ds, cand, id_col, text_col,
                         lambda t: _shingle_hashes(t, shingle_k),
                         threshold, num_partitions, metric)


def _verify_pairs(ds, cand, id_col: str, text_col: str, shingle_fn,
                  threshold: float, num_partitions: int, metric: str):
    """The semi-joined distributed verify shuffle shared by every
    exact-set-similarity path (LSH-blocked n-gram Jaccard, prefix-
    filtered set-similarity join): given a candidate pair Dataset
    (id_a, id_b, ...), recompute the TRUE score on the shingle sets
    ``shingle_fn(text) -> sorted unique uint64[]`` of the surviving
    pairs — steps 1-3 of the ngram_jaccard_pairs docstring."""
    docs, _, _ = candidate_endpoint_docs(ds, cand, id_col, text_col)

    def expand(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch["id_a"], dtype=np.int64)
        b = np.asarray(batch["id_b"], dtype=np.int64)
        keep = a >= 0                      # drop truncation sentinels
        a, b = a[keep], b[keep]
        jid = np.concatenate([a, b])
        return pa.table(
            {
                "jid": pa.array(jid),
                "id_a": pa.array(np.concatenate([a, a])),
                "id_b": pa.array(np.concatenate([b, b])),
                "text": pa.nulls(2 * a.size, pa.string()),
            }
        )

    def doc_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        jid = np.asarray(batch[id_col], dtype=np.int64)
        return pa.table(
            {
                "jid": pa.array(jid),
                "id_a": pa.array(np.full(n, -1, dtype=np.int64)),
                "id_b": pa.array(np.full(n, -1, dtype=np.int64)),
                "text": batch[text_col].cast(pa.string()),
            }
        )

    both = cand.map_batches(expand, batch_format="pyarrow").union(
        docs.select_columns([id_col, text_col])
        .map_batches(doc_rows, batch_format="pyarrow"))

    _ATT_EMPTY = {"id_a": pd.array([], dtype="int64"),
                  "id_b": pd.array([], dtype="int64"),
                  "jid": pd.array([], dtype="int64"),
                  "sh": pd.array([], dtype=object)}
    score_col = "jaccard" if metric == "jaccard" else "containment"

    def attach_part(group: pd.DataFrame) -> pd.DataFrame:
        pairs = group[group["id_a"] >= 0]
        if pairs.empty:
            return pd.DataFrame(_ATT_EMPTY)
        docs = group[group["id_a"] < 0]
        needed = np.unique(pairs["jid"].to_numpy(np.int64))
        docs = docs[docs["jid"].isin(needed)]
        sh_map = {int(j): shingle_fn(t).tobytes()
                  for j, t in zip(docs["jid"], docs["text"])}
        ia = pairs["id_a"].to_numpy(np.int64)
        ib = pairs["id_b"].to_numpy(np.int64)
        sh = [sh_map.get(int(j)) for j in pairs["jid"]]
        have = np.asarray([s is not None for s in sh])
        jid = pairs["jid"].to_numpy(np.int64)[have]
        ia, ib = ia[have], ib[have]
        return pd.DataFrame({"id_a": ia, "id_b": ib,
                             "jid": jid,
                             "sh": [s for s in sh if s is not None]})

    def verify_part(group: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"id_a": pd.array([], dtype="int64"),
                              "id_b": pd.array([], dtype="int64"),
                              score_col: pd.array([], dtype="float64")})
        if len(group) < 2:
            return empty
        g = group.sort_values(["id_a", "id_b"])
        ia = g["id_a"].to_numpy(np.int64)
        ib = g["id_b"].to_numpy(np.int64)
        jid = g["jid"].to_numpy(np.int64)
        sh = g["sh"].tolist()
        change = np.flatnonzero((ia[1:] != ia[:-1]) | (ib[1:] != ib[:-1]))
        starts = np.concatenate([[0], change + 1])
        sizes = np.diff(np.concatenate([starts, [len(g)]]))
        ra, rb, jac = [], [], []
        for st, sz in zip(starts.tolist(), sizes.tolist()):
            if sz < 2:                     # endpoint text missing
                continue
            # orient: sa = endpoint id_a's shingles (containment is
            # asymmetric; jaccard doesn't care but uses the same path)
            if jid[st] == ia[st]:
                sa = np.frombuffer(sh[st], dtype=np.uint64)
                sb = np.frombuffer(sh[st + 1], dtype=np.uint64)
            else:
                sa = np.frombuffer(sh[st + 1], dtype=np.uint64)
                sb = np.frombuffer(sh[st], dtype=np.uint64)
            inter = np.intersect1d(sa, sb, assume_unique=True).size
            if metric == "jaccard":
                union = sa.size + sb.size - inter
                j = inter / union if union else 0.0
            else:
                j = inter / sa.size if sa.size else 0.0
            if j >= threshold:
                ra.append(ia[st])
                rb.append(ib[st])
                jac.append(j)
        return pd.DataFrame({"id_a": np.asarray(ra, np.int64),
                             "id_b": np.asarray(rb, np.int64),
                             score_col: np.asarray(jac, np.float64)})

    attached = keyed_sweep(both, "jid", attach_part, num_partitions)
    return keyed_sweep(attached, ["id_a", "id_b"], verify_part,
                       num_partitions)


# ---------------------------------------------------------------------------
# embedding cosine near-dup
# ---------------------------------------------------------------------------

def embedding_cosine_pairs(ds, id_col: str = "vec_id",
                           emb_col: str = "embedding",
                           threshold: float = 0.95, num_planes: int = 12,
                           max_bucket: int = 500, seed: int = 13):
    """Near-dup pairs by cosine >= threshold via random-hyperplane LSH
    buckets + exact within-bucket verification (numpy matmul)."""
    def signatures(batch: pa.Table) -> pa.Table:
        from tldr_ray.stages.ann import _as_matrix

        # float32 -> float64 is exact, so this matches the old
        # to_pylist-of-python-floats path bit-for-bit
        mat = _as_matrix(batch[emb_col]).astype(np.float64)
        rng = np.random.default_rng(seed)
        planes = rng.standard_normal((mat.shape[1], num_planes))
        bits = (mat @ planes) > 0
        bucket = np.zeros(mat.shape[0], dtype=np.int64)
        for i in range(num_planes):
            bucket |= bits[:, i].astype(np.int64) << i
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        unit = mat / np.where(norms == 0, 1.0, norms)
        return pa.table(
            {
                "id": batch[id_col],
                "bucket": pa.array(bucket),
                "unit": pa.array(list(unit.astype(np.float32).tobytes()
                                      for unit in unit)),
            }
        )

    def bucket_pairs(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates("id").sort_values("id").head(max_bucket)
        ids = g["id"].to_numpy(np.int64)
        mat = np.stack([np.frombuffer(u, dtype=np.float32) for u in g["unit"]])
        cos = mat @ mat.T
        ii, jj = np.nonzero(np.triu(cos >= threshold, 1))
        return pd.DataFrame({"id_a": ids[ii], "id_b": ids[jj],
                             "cosine": cos[ii, jj].astype(np.float64)})

    return (
        ds.select_columns([id_col, emb_col])
        .map_batches(signatures, batch_format="pyarrow", batch_size=1024)
        .groupby("bucket")
        .map_groups(bucket_pairs, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# duplicate-cluster resolution
# ---------------------------------------------------------------------------

def resolve_clusters(pairs, num_partitions: int = 4):
    """Pairs Dataset (id_a, id_b, ...) -> DataFrame (id, cluster_id).

    Union-find on the driver while the pair set passes the broadcast
    gate (stages.joins.fits_broadcast — it is counted first); beyond it
    the distributed min-label-propagation engine
    (graph.connected_components) takes over — same fixpoint, exact.
    """
    from tldr_ray.stages.joins import fits_broadcast

    pairs = pairs.materialize()
    if pairs.count() == 0:
        return pd.DataFrame({"id": pd.array([], dtype="int64"),
                             "cluster_id": pd.array([], dtype="int64")})
    if fits_broadcast(pairs):
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for batch in pairs.iter_batches(batch_size=65536, batch_format="pyarrow"):
            for x, y in zip(np.asarray(batch["id_a"]), np.asarray(batch["id_b"])):
                if x < 0 or y < 0:
                    continue
                rx, ry = find(int(x)), find(int(y))
                if rx != ry:
                    parent[max(rx, ry)] = min(rx, ry)
        ids = sorted(parent)
        return pd.DataFrame({"id": np.asarray(ids, np.int64),
                             "cluster_id": np.asarray([find(i) for i in ids],
                                                      np.int64)})
    from tldr_ray.graph import connected_components

    def as_edges(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch["id_a"], dtype=np.int64)
        b = np.asarray(batch["id_b"], dtype=np.int64)
        keep = (a >= 0) & (b >= 0)
        return pa.table({"src": a[keep], "dst": b[keep],
                         "weight": np.ones(int(keep.sum()))})

    ids, labels, _ = connected_components(
        pairs.map_batches(as_edges, batch_format="pyarrow"),
        num_partitions=num_partitions)
    return pd.DataFrame({"id": ids, "cluster_id": labels})


def winnow_fingerprints(ds, id_col: str = "doc_id",
                        text_col: str = "text", k: int = 8, w: int = 4):
    """Winnowing document fingerprints (the MOSS rolling-hash scheme):
    char k-gram FNV-1a hashes (the corpus-vectorized shingle kernel),
    a w-window sliding MIN over each document's hash sequence, then
    the DISTINCT selected minima become the document's fingerprint set
    — any shared substring of length >= k + w - 1 guarantees a shared
    fingerprint (the winnowing cover property). Output rows
    (id_col, fingerprint int64 = uint64 hash bit-reinterpreted),
    ready for a fingerprint-keyed groupby to find near-dup candidates.

    Fully vectorized: the sliding min is w-1 shifted `np.minimum`
    passes with document-boundary masking — no per-doc loop. Docs
    shorter than one full window emit the min of their hashes."""
    _MAX = np.uint64(0xFFFFFFFFFFFFFFFF)

    def fn(batch: pa.Table) -> pa.Table:
        h, n_win = _corpus_shingle_hashes(batch[text_col], k)
        D = len(batch)
        doc_of = np.repeat(np.arange(D, dtype=np.int64), n_win)
        seg_start = np.cumsum(n_win) - n_win
        pos = np.arange(h.size, dtype=np.int64) - seg_start[doc_of]
        nw_row = n_win[doc_of]
        m = h.copy()
        for s in range(1, w):
            cand = np.full_like(h, _MAX)
            if s < h.size:
                cand[:-s] = h[s:]
            m = np.where(pos + s < nw_row, np.minimum(m, cand), m)
        # keep one selection per window start that fits; short docs
        # (n_win < w) keep position 0, whose masked min covers them
        sel = (pos <= nw_row - w) | ((nw_row < w) & (pos == 0))
        pairs = np.stack([doc_of[sel].astype(np.uint64), m[sel]],
                         axis=1)
        uniq = np.unique(pairs, axis=0)
        ids = np.asarray(batch[id_col])[uniq[:, 0].astype(np.int64)]
        return pa.table({id_col: pa.array(ids),
                         "fingerprint": pa.array(
                             uniq[:, 1].view(np.int64))})

    return ds.select_columns([id_col, text_col]).map_batches(
        fn, batch_format="pyarrow")


def ngram_contamination(docs, bench, k: int = 20, id_col: str = "doc_id",
                        text_col: str = "text"):
    """Benchmark decontamination: per document, the number of DISTINCT
    char k-gram hashes it shares with a benchmark corpus (an eval set
    a training pipeline must not leak). The benchmark side is reduced
    to a sorted unique uint64 hash array and broadcast ONCE via
    ray.put — eval suites are tiny next to a 100 TB corpus; if a
    benchmark ever outgrows a broadcast object, flip this side to the
    coarse-partition gram-hash groupby the minhash bucket sweep uses.
    The corpus side streams: one vectorized shingle pass + searchsorted
    membership per batch, no shuffle, no driver materialization of doc
    data.

    Hashes are the corpus-vectorized FNV-1a char grams
    (``_corpus_shingle_hashes``), mirrored bit-for-bit by the chained
    per-byte FNV SQL CTEs (the winnowing-oracle pattern), so a DuckDB
    oracle can hash-check the counts. Docs shorter than ``k`` have no
    real gram (the shingle kernel zero-pads them) and report 0.

    Output: (id_col, n_shared int64) — one row per input doc,
    contaminated or not (zeros kept so an all-clean corpus still has a
    schema)."""
    import ray

    def bench_grams(batch: pa.Table) -> pa.Table:
        h, n_win = _corpus_shingle_hashes(batch[text_col], k)
        lens = pc.binary_length(batch[text_col]).to_numpy(
            zero_copy_only=False)
        real = np.repeat(lens >= k, n_win)
        return pa.table({"h": pa.array(np.unique(h[real]))})

    parts = [np.asarray(b["h"], dtype=np.uint64)
             for b in bench.select_columns([text_col])
             .map_batches(bench_grams, batch_format="pyarrow")
             .iter_batches(batch_format="pyarrow")]
    bset = np.unique(np.concatenate(parts)) if parts \
        else np.array([], np.uint64)
    bref = ray.put(bset)

    def count_shared(batch: pa.Table) -> pa.Table:
        bs = ray.get(bref)
        ids = np.asarray(batch[id_col])
        h, n_win = _corpus_shingle_hashes(batch[text_col], k)
        lens = pc.binary_length(batch[text_col]).to_numpy(
            zero_copy_only=False)
        doc_of = np.repeat(np.arange(len(batch), dtype=np.int64), n_win)
        real = np.repeat(lens >= k, n_win)
        n_shared = np.zeros(len(batch), np.int64)
        if bs.size and real.any():
            pos = np.clip(np.searchsorted(bs, h), 0, bs.size - 1)
            hit = real & (bs[pos] == h)
            if hit.any():
                pairs = np.unique(
                    np.stack([doc_of[hit].astype(np.uint64), h[hit]],
                             axis=1), axis=0)
                np.add.at(n_shared, pairs[:, 0].astype(np.int64), 1)
        return pa.table({id_col: pa.array(ids),
                         "n_shared": pa.array(n_shared)})

    return docs.select_columns([id_col, text_col]).map_batches(
        count_shared, batch_format="pyarrow")


def signature_pairs(ds, id_col: str = "id", sig_col: str = "sig",
                    max_hamming: int = 4, max_bucket: int = 500,
                    num_partitions: int = 64):
    """Near-dup pairs among PRECOMPUTED 64-bit signatures (perceptual
    image hashes, simhashes computed elsewhere, any 64-bit sketch):
    the ``simhash_pairs`` multi-table band plan applied to an existing
    signature column. max_hamming + 1 tables -> pigeonhole recall
    guarantee; candidate buckets verify exact hamming vectorized.
    Returns (id_a, id_b, hamming) with id_a < id_b, deduped across
    tables by min-hamming (constant by construction)."""
    plan = _simhash_band_plan(max_hamming)

    def bands(batch: pa.Table) -> pa.Table:
        D = batch.num_rows
        ids = np.asarray(batch[id_col], dtype=np.int64)
        sig = np.asarray(batch[sig_col], dtype=np.int64) \
            .view(np.uint64)
        tabs, vals = [], []
        for t, (shift, width) in enumerate(plan):
            mask = np.uint64((1 << width) - 1)
            vals.append((sig >> np.uint64(shift)) & mask)
            tabs.append(np.full(D, t, dtype=np.int32))
        T = len(plan)
        return pa.table({
            "id": pa.array(np.tile(ids, T)),
            "tab": pa.array(np.concatenate(tabs)),
            "band": pa.array(np.concatenate(vals).view(np.int64)),
            "sig": pa.array(np.tile(sig, T).view(np.int64))})

    def partition_pairs(group: pa.Table) -> pa.Table:
        empty = pa.table({"id_a": pa.array([], pa.int64()),
                          "id_b": pa.array([], pa.int64()),
                          "hamming": pa.array([], pa.int64())})
        n = group.num_rows
        if n < 2:
            return empty
        ids = np.asarray(group["id"], dtype=np.int64)
        tab = np.asarray(group["tab"], dtype=np.int32)
        band = np.asarray(group["band"], dtype=np.int64)
        sigs = np.asarray(group["sig"], dtype=np.int64).view(np.uint64)
        order = np.lexsort((ids, band, tab))
        ids, tab, band, sigs = (ids[order], tab[order], band[order],
                                sigs[order])
        change = np.flatnonzero((tab[1:] != tab[:-1])
                                | (band[1:] != band[:-1]))
        starts = np.concatenate([[0], change + 1])
        sizes = np.diff(np.concatenate([starts, [n]]))
        ia, ib, _ = _segment_pair_indices(sizes, starts, max_bucket)
        if ia.size == 0:
            return empty
        ham = _popcount64(sigs[ia] ^ sigs[ib])
        keep = (ham <= max_hamming) & (ids[ia] != ids[ib])
        a, b = ids[ia[keep]], ids[ib[keep]]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return pa.table({"id_a": pa.array(lo), "id_b": pa.array(hi),
                         "hamming": pa.array(ham[keep])})

    pairs = keyed_sweep(
        ds.select_columns([id_col, sig_col])
        .map_batches(bands, batch_format="pyarrow", batch_size=512),
        ["tab", "band"], partition_pairs, num_partitions,
        batch_format="pyarrow")
    return pairs.groupby(["id_a", "id_b"]).min("hamming").map_batches(
        lambda t: t.rename_columns(["id_a", "id_b", "hamming"]),
        batch_format="pyarrow")


def fuzzy_jaro_pairs(ds, id_col: str = "doc_id", text_col: str = "text",
                     threshold: float = 0.9, block_cut: float = 0.4,
                     shingle_k: int = 5, num_perm: int = 64,
                     bands: int = 16, max_bucket: int = 200,
                     num_partitions: int = 64):
    """Fuzzy string-similarity pairs: textbook Jaro >= ``threshold``
    among MinHash-LSH candidates (estimate >= ``block_cut`` — the
    blocking heuristic; Jaro itself is exact on every candidate).
    The scale-out twin of the reference's per-sentence Distance
    operator: same 3-step plan as ``ngram_jaccard_pairs`` (counted
    endpoint semi-join -> one coarse text-attach shuffle -> one coarse
    pair shuffle), but the verify kernel is ``kernel.distance
    .jaro_standard`` on the two raw texts — bit-equal to DuckDB's
    jaro_similarity, so the whole operator is SQL-hash-checkable.
    The per-pair Jaro loop is honest O(|a| * window) work on the
    candidate-sparse survivors only — never the corpus."""
    from tldr_ray.kernel.distance import jaro_standard

    cand = minhash_lsh_pairs(ds, id_col, text_col, num_perm, bands,
                             shingle_k, threshold=block_cut,
                             max_bucket=max_bucket,
                             num_partitions=num_partitions).materialize()
    docs, _, _ = candidate_endpoint_docs(ds, cand, id_col, text_col)

    def expand(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch["id_a"], dtype=np.int64)
        b = np.asarray(batch["id_b"], dtype=np.int64)
        keep = a >= 0                      # drop truncation sentinels
        a, b = a[keep], b[keep]
        jid = np.concatenate([a, b])
        return pa.table({
            "jid": pa.array(jid),
            "id_a": pa.array(np.concatenate([a, a])),
            "id_b": pa.array(np.concatenate([b, b])),
            "text": pa.nulls(2 * a.size, pa.string())})

    def doc_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        jid = np.asarray(batch[id_col], dtype=np.int64)
        return pa.table({
            "jid": pa.array(jid),
            "id_a": pa.array(np.full(n, -1, dtype=np.int64)),
            "id_b": pa.array(np.full(n, -1, dtype=np.int64)),
            "text": batch[text_col].cast(pa.string())})

    both = cand.map_batches(expand, batch_format="pyarrow").union(
        docs.select_columns([id_col, text_col])
        .map_batches(doc_rows, batch_format="pyarrow"))

    _ATT_EMPTY = {"id_a": pd.array([], dtype="int64"),
                  "id_b": pd.array([], dtype="int64"),
                  "jid": pd.array([], dtype="int64"),
                  "text": pd.array([], dtype=object)}

    def attach_part(group: pd.DataFrame) -> pd.DataFrame:
        pairs = group[group["id_a"] >= 0]
        if pairs.empty:
            return pd.DataFrame(_ATT_EMPTY)
        docs_g = group[group["id_a"] < 0]
        needed = np.unique(pairs["jid"].to_numpy(np.int64))
        docs_g = docs_g[docs_g["jid"].isin(needed)]
        tmap = dict(zip(docs_g["jid"].to_numpy(np.int64).tolist(),
                        docs_g["text"].tolist()))
        ia = pairs["id_a"].to_numpy(np.int64)
        ib = pairs["id_b"].to_numpy(np.int64)
        jid = pairs["jid"].to_numpy(np.int64)
        txt = [tmap.get(int(j)) for j in jid]
        have = np.asarray([t is not None for t in txt])
        ia, ib, jid = ia[have], ib[have], jid[have]
        return pd.DataFrame({"id_a": ia, "id_b": ib,
                             "jid": jid,
                             "text": [t for t in txt if t is not None]})

    def verify_part(group: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"id_a": pd.array([], dtype="int64"),
                              "id_b": pd.array([], dtype="int64"),
                              "jaro": pd.array([], dtype="float64")})
        if group.empty:
            return empty
        g = group.sort_values(["id_a", "id_b", "jid"])
        ia = g["id_a"].to_numpy(np.int64)
        ib = g["id_b"].to_numpy(np.int64)
        jid = g["jid"].to_numpy(np.int64)
        txt = g["text"].tolist()
        out_a, out_b, out_j = [], [], []
        i = 0
        n = len(g)
        while i < n:
            j = i
            while j < n and ia[j] == ia[i] and ib[j] == ib[i]:
                j += 1
            ta = tb = None
            for r in range(i, j):
                if jid[r] == ia[i]:
                    ta = txt[r]
                elif jid[r] == ib[i]:
                    tb = txt[r]
            if ta is not None and tb is not None:
                s = jaro_standard(ta, tb)
                if s >= threshold:
                    out_a.append(ia[i])
                    out_b.append(ib[i])
                    out_j.append(s)
            i = j
        if not out_a:
            return empty
        return pd.DataFrame({
            "id_a": np.asarray(out_a, dtype=np.int64),
            "id_b": np.asarray(out_b, dtype=np.int64),
            "jaro": np.asarray(out_j, dtype=np.float64)})

    attached = keyed_sweep(both, "jid", attach_part, num_partitions)
    return keyed_sweep(attached, ["id_a", "id_b"], verify_part,
                       num_partitions)


def _is_edit1(a: str, b: str) -> bool:
    """Exact edit-distance==1 check for a candidate pair (a != b)."""
    la, lb = len(a), len(b)
    if la == lb:
        return sum(1 for x, y in zip(a, b) if x != y) == 1
    if la > lb:
        a, b, la, lb = b, a, lb, la
    if lb - la != 1:
        return False
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1:]


def edit_distance_pairs(vocab, col: str = "w"):
    """FastSS k=1 similarity join: all UNORDERED pairs of distinct
    strings at Levenshtein distance exactly 1 (Bocek et al., "Fast
    Similarity Search in Large Dictionaries", 2007 — public
    algorithm). Each string emits its 1-deletion neighborhood plus
    itself as blocking keys; two strings are within distance 1 iff
    they share a key (substitution -> same deletion; insert/delete ->
    the shorter string IS a deletion of the longer), so the ONLY
    shuffle moves (variant, word) pairs — never all-pairs. Variant
    generation is fully vectorized per length class (numpy '<U1' char
    matrix, one column-drop view per position, no per-row Python);
    candidate groups are tiny by construction (strings sharing one
    deletion), verified exactly, and a pair found under several shared
    variants dedups in ONE final distinct groupby.

    ``vocab``: Dataset with a DISTINCT string column ``col`` (run the
    distinct upstream — dictionary keys, names, tokens).
    Returns a Dataset of (w1, w2) with w1 < w2.
    """
    def variants(batch: pa.Table) -> pa.Table:
        words = np.asarray(batch[col], dtype=object)
        if words.size == 0:
            return pa.table({"variant": pa.array([], pa.string()),
                             "w": pa.array([], pa.string())})
        lens = np.fromiter((len(w) for w in words), np.int64,
                           count=words.size)
        out_v = [words]                      # the word itself is a key
        out_w = [words]
        for L in np.unique(lens):
            if L < 2:
                continue
            sub = words[lens == L].astype(f"<U{L}")
            chars = sub.view("<U1").reshape(sub.size, int(L))
            for i in range(int(L)):
                keep = np.ascontiguousarray(
                    np.concatenate([chars[:, :i], chars[:, i + 1:]],
                                   axis=1))
                out_v.append(keep.view(f"<U{int(L) - 1}").ravel()
                             .astype(object))
                out_w.append(sub.astype(object))
        return pa.table({
            "variant": pa.array(np.concatenate(out_v), pa.string()),
            "w": pa.array(np.concatenate(out_w), pa.string())})

    keyed = vocab.map_batches(variants, batch_format="pyarrow")

    def sweep(g: pd.DataFrame) -> pd.DataFrame:
        """One call per COARSE partition (hash(variant) % P, not per
        variant — Ray charges ~ms per micro-group invocation): sort by
        variant, walk the variant segments, pair-verify inside each."""
        v = np.asarray(g["variant"], dtype=object)
        w = np.asarray(g["w"], dtype=object)
        order = np.lexsort((w, v))
        v, w = v[order], w[order]
        seen: set = set()
        a_out: list = []
        b_out: list = []
        start = 0
        n = len(v)
        for end in range(1, n + 1):
            if end < n and v[end] == v[start]:
                continue
            if end - start >= 2:
                ws = w[start:end]
                for i in range(len(ws)):
                    wi = ws[i]
                    for j in range(i + 1, len(ws)):
                        p = (wi, ws[j]) if wi < ws[j] else (ws[j], wi)
                        if p not in seen and _is_edit1(*p):
                            seen.add(p)
                            a_out.append(p[0])
                            b_out.append(p[1])
            start = end
        return pd.DataFrame({"w1": pd.Series(a_out, dtype=object),
                             "w2": pd.Series(b_out, dtype=object)})

    pairs = keyed_sweep(keyed, "variant", sweep)

    # Cross-partition duplicates (the same pair reachable through
    # variants that hash to different coarse partitions) dedup in a
    # SECOND coarse sweep — a per-pair groupby().aggregate() here costs
    # Ray's ~0.15 ms/micro-group on tens of thousands of string-pair
    # keys (measured 13 s at sf0.01); 64 drop_duplicates tasks cost ms.
    def distinct(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["w1", "w2"])[["w1", "w2"]]

    return keyed_sweep(pairs, "w1", distinct)


# ---------------------------------------------------------------------------
# prefix-filtered EXACT set-similarity join (AllPairs / PPJoin blocking)
# ---------------------------------------------------------------------------

_FNV_OFFSET64 = np.uint64(0xCBF29CE484222325)
_FNV_PRIME64 = np.uint64(0x100000001B3)


def _word_shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    """Distinct k-WORD-shingle hashes of one text as sorted uint64:
    whitespace tokens (empties dropped — identical to DuckDB
    regexp_split_to_array + filter, the pinned equivalence), per-token
    FNV-1a (hashing.fnv1a_batch), windows chained with the same FNV
    fold over the k token hashes. The single-doc mirror of the
    vectorized corpus pass in set_similarity_join — same kernels, so
    blocking and verify see identical shingle identities."""
    from tldr_ray.hashing import fnv1a_batch

    toks = (text or "").split()
    if len(toks) < k:
        return np.zeros(0, dtype=np.uint64)
    th = fnv1a_batch(pa.array(toks, pa.string()))
    n = th.size - k + 1
    h = np.full(n, _FNV_OFFSET64, dtype=np.uint64)
    for i in range(k):
        h = (h ^ th[i:i + n]) * _FNV_PRIME64
    return np.unique(h)


def set_similarity_join(ds, id_col: str = "doc_id",
                        text_col: str = "text", k: int = 3,
                        threshold_num: int = 1, threshold_den: int = 2,
                        num_partitions: int = 64,
                        max_bucket: int = 10_000,
                        oversized: str = "raise"):
    """EXACT all-pairs set-similarity join: every document pair whose
    k-word-shingle sets have Jaccard >= threshold_num/threshold_den —
    no LSH, no recall loss. Blocking is the lossless PREFIX FILTER
    (Chaudhuri 2006 / Bayardo AllPairs): under ANY consistent global
    token order, a pair with |A∩B| >= ceil(t·|A|) and >= ceil(t·|B|)
    shares its FIRST common token inside both prefixes of length
    |x| - ceil(t·|x|) + 1 (if the intersection avoided the prefix it
    would fit in the ceil(t·|x|)-1 suffix — too small). Ordering by
    (global df ASC, hash) makes prefixes favor RARE shingles, so
    candidate buckets stay tiny.

    Distributed plan — four coarse exchanges, each moving id+hash rows
    (16-24 B), never texts:
      1. corpus-vectorized shingling (one pass over the Arrow string
         buffer) -> distinct (doc, shingle, set_size) rows;
      2. shuffle on hash(shingle): df = segment size (all of a
         shingle's rows co-locate), rows come back (doc, sh, n, df);
      3. shuffle on hash(doc): per-doc prefix selection — sort
         (doc, df, sh), keep rank <= n - ceil-int(t·n) + 1, the ceil
         in EXACT integer arithmetic ((num·n + den - 1) // den);
      4. shuffle on hash(shingle): within-shingle candidate pairs,
         then a pair-keyed sweep dedupes (a pair can share several
         prefix shingles);
    then the shared semi-joined verify shuffle (_verify_pairs)
    recomputes TRUE Jaccard on full shingle sets of candidate
    endpoints only. Output (id_a, id_b, jaccard).

    The EXACT contract is enforced, not assumed: a prefix shingle
    shared by more than ``max_bucket`` docs would force truncating its
    candidate pairs (losing qualifying output), so by default
    (``oversized="raise"``) the join FAILS LOUDLY naming the oversized
    bucket sizes — raise ``max_bucket``, raise ``k``, or drop
    boilerplate first. ``oversized="truncate"`` opts into the lossy
    cut explicitly (each oversized bucket keeps its ``max_bucket``
    smallest (df, hash)-ordered rows) and is NOT exact.
    """
    if oversized not in ("raise", "truncate"):
        raise ValueError("oversized must be 'raise' or 'truncate'")
    import pyarrow.compute as pc

    from tldr_ray.hashing import fnv1a_batch

    kk = int(k)

    def shingle_rows(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch[id_col], dtype=np.int64)
        split = pc.utf8_split_whitespace(
            pc.utf8_trim_whitespace(pc.cast(batch[text_col],
                                            pa.string())))
        counts = np.asarray(pc.list_value_length(split), dtype=np.int64)
        flat = pc.list_flatten(split)
        # after trim the ONLY possible empty token is the single ['']
        # an empty/all-whitespace doc splits to — drop it to mirror
        # str.split() (and the oracle's list_filter)
        tl = np.asarray(pc.utf8_length(flat), dtype=np.int64)
        th_all = fnv1a_batch(flat)
        keep = tl > 0
        if not keep.all():
            th_all = th_all[keep]
            starts0 = np.cumsum(counts) - counts
            empty_doc = (counts == 1) & ~keep[np.minimum(
                starts0, max(keep.size - 1, 0))]
            counts = counts - empty_doc.astype(np.int64)
        w = np.maximum(counts - kk + 1, 0)
        starts = np.cumsum(counts) - counts
        widx = (np.repeat(starts, w)
                + (np.arange(int(w.sum()), dtype=np.int64)
                   - np.repeat(np.cumsum(w) - w, w)))
        h = np.full(widx.size, _FNV_OFFSET64, dtype=np.uint64)
        for i in range(kk):
            h = (h ^ th_all[widx + i]) * _FNV_PRIME64
        doc = np.repeat(ids, w)
        order = np.lexsort((h, doc))
        doc, h = doc[order], h[order]
        first = np.empty(doc.size, dtype=bool)
        if doc.size:
            first[0] = True
            first[1:] = (doc[1:] != doc[:-1]) | (h[1:] != h[:-1])
        doc, h = doc[first], h[first]
        seg = np.empty(doc.size, dtype=bool)
        if doc.size:
            seg[0] = True
            seg[1:] = doc[1:] != doc[:-1]
        sizes = np.diff(np.append(np.flatnonzero(seg), doc.size))
        n = np.repeat(sizes, sizes)
        return pa.table({
            "doc": pa.array(doc), "h": pa.array(h),
            "n": pa.array(n.astype(np.int64))})

    def df_sweep(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("h", kind="mergesort")
        h = g["h"].to_numpy()
        seg = np.empty(len(g), dtype=bool)
        if len(g):
            seg[0] = True
            seg[1:] = h[1:] != h[:-1]
        sizes = np.diff(np.append(np.flatnonzero(seg), len(g)))
        doc = g["doc"].to_numpy()
        return pd.DataFrame({
            "doc": doc, "h": h, "n": g["n"].to_numpy(),
            "df": np.repeat(sizes, sizes).astype(np.int64)})

    num, den = np.int64(threshold_num), np.int64(threshold_den)

    def prefix_sweep(g: pd.DataFrame) -> pd.DataFrame:
        doc = g["doc"].to_numpy()
        df = g["df"].to_numpy()
        h = g["h"].to_numpy()
        n = g["n"].to_numpy()
        order = np.lexsort((h, df, doc))
        doc, h, n = doc[order], h[order], n[order]
        seg = np.empty(doc.size, dtype=bool)
        if doc.size:
            seg[0] = True
            seg[1:] = doc[1:] != doc[:-1]
        starts = np.flatnonzero(seg)
        sizes = np.diff(np.append(starts, doc.size))
        rank = np.arange(doc.size) - np.repeat(starts, sizes)
        p = n - (num * n + den - 1) // den + 1
        keep = rank < p
        doc, h = doc[keep], h[keep]
        return pd.DataFrame({"doc": doc, "h": h})

    def pair_sweep(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["h", "doc"], kind="mergesort")
        h = g["h"].to_numpy()
        doc = g["doc"].to_numpy()
        seg = np.empty(len(g), dtype=bool)
        if len(g):
            seg[0] = True
            seg[1:] = h[1:] != h[:-1]
        starts = np.flatnonzero(seg)
        sizes = np.diff(np.append(starts, len(g)))
        ia, ib, trunc = _segment_pair_indices(sizes, starts, max_bucket)
        if trunc and oversized == "raise":
            raise ValueError(
                "set_similarity_join: prefix-shingle bucket(s) of "
                f"size {sorted(trunc, reverse=True)[:5]} exceed "
                f"max_bucket={max_bucket}; truncating them would lose "
                "qualifying pairs (the join is documented EXACT). "
                "Raise max_bucket, raise k, or pass "
                "oversized='truncate' to accept the recall loss.")
        return pd.DataFrame({"id_a": doc[ia], "id_b": doc[ib]})

    def dedup_sweep(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["id_a", "id_b"])[["id_a", "id_b"]]

    cand = ds.select_columns([id_col, text_col]) \
        .map_batches(shingle_rows, batch_format="pyarrow")
    for key, fn in (("h", df_sweep), ("doc", prefix_sweep),
                    ("h", pair_sweep), (["id_a", "id_b"], dedup_sweep)):
        cand = keyed_sweep(cand, key, fn, num_partitions)
    cand = cand.materialize()

    return _verify_pairs(ds, cand, id_col, text_col,
                         lambda t: _word_shingle_hashes(t, kk),
                         float(threshold_num) / float(threshold_den),
                         num_partitions, "jaccard")


def sorted_neighborhood_pairs(ds, col: str, window: int = 3,
                              num_parts: int = 16):
    """Sorted-neighborhood blocking (Hernandez-Stolfo merge/purge):
    candidate pairs = distinct keys within ``window`` positions of
    each other in the GLOBAL sort order of ``col`` — the classic
    third blocking family next to FastSS (edit-distance balls) and
    MinHash-LSH (set overlap), catching typo classes both miss (same
    sorted neighborhood, distance > 1).

    Distributed as the two-pass rank scan + exactly-once window
    expansion:
      1. order-preserving string partitioning: boundaries from a
         deterministic bottom-k hash sample of the distinct keys,
         part = searchsorted(boundaries, key);
      2. per-part counts -> driver exclusive prefix (O(P) state) ->
         per-part local sort assigns the exact global rank;
      3. each (rank, key) replicates to window buckets rank//window
         and rank//window - 1; inside a bucket group the pair (i, j)
         with 0 < j-i <= window is emitted only from bucket
         floor(i/window) — the interval-join exactly-once rule, so
         no distinct pass is needed.
    Returns (w1, w2, dist) with w1 < w2 in sort order and dist the
    rank gap in [1, window]."""
    from ray.data.aggregate import Count

    from tldr_ray.stages.agg import bottomk_sample

    distinct = (ds.groupby(col).count().select_columns([col])
                .materialize())
    samp = sorted(bottomk_sample(distinct, col, k=256)
                  .to_pandas()[col].tolist())
    step = max(len(samp) // num_parts, 1)
    bounds = np.array(samp[step::step][:num_parts - 1], dtype=object)

    def part_of(batch: pa.Table) -> pa.Table:
        w = np.asarray(batch[col], dtype=object)
        p = np.searchsorted(bounds, w, side="right") \
            if bounds.size else np.zeros(w.size, np.int64)
        return pa.table({col: batch[col],
                         "part": pa.array(p.astype(np.int32))})

    parted = distinct.map_batches(part_of, batch_format="pyarrow") \
        .materialize()
    totals = parted.groupby("part") \
        .aggregate(Count(alias_name="n")).to_pandas()
    off = np.zeros(num_parts, np.int64)
    off[totals["part"].to_numpy(np.int64)] = \
        totals["n"].to_numpy(np.int64)
    off = np.concatenate([[0], np.cumsum(off)[:-1]])

    def rank(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(col, kind="mergesort")
        p = int(g["part"].iloc[0])
        return pd.DataFrame({
            col: pd.Series(g[col].to_numpy(object), dtype=object),
            "rn": off[p] + np.arange(len(g), dtype=np.int64)})

    ranked = parted.groupby("part") \
        .map_groups(rank, batch_format="pandas")

    # window buckets are tiny (<= 2*window rows) — a per-bucket
    # map_groups would pay the micro-group tax, so buckets sweep
    # inside 64 coarse tasks

    def replicate(batch: pd.DataFrame) -> pd.DataFrame:
        rn = batch["rn"].to_numpy(np.int64)
        w = batch[col].to_numpy(object)
        b0 = rn // window
        out_b = np.concatenate([b0, b0 - 1])
        out_rn = np.concatenate([rn, rn])
        out_w = np.concatenate([w, w])
        keep = out_b >= 0
        out_b = out_b[keep]
        return pd.DataFrame({
            "bucket": out_b,
            "rn": out_rn[keep],
            col: pd.Series(out_w[keep], dtype=object)})

    def pairs(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["bucket", "rn"], kind="mergesort")
        b = g["bucket"].to_numpy(np.int64)
        rn = g["rn"].to_numpy(np.int64)
        w = g[col].to_numpy(object)
        o1, o2, dd = [], [], []
        for s in range(1, 2 * window):  # vectorized shift sweep
            if s >= rn.size:
                break
            gap = rn[s:] - rn[:-s]
            m = ((b[s:] == b[:-s])
                 & (rn[:-s] // window == b[:-s])  # exactly-once owner
                 & (gap >= 1) & (gap <= window))
            if m.any():
                o1.append(w[:-s][m])
                o2.append(w[s:][m])
                dd.append(gap[m])
        if not o1:
            return pd.DataFrame({
                "w1": pd.Series([], dtype=object),
                "w2": pd.Series([], dtype=object),
                "dist": pd.Series([], dtype=np.int64)})
        return pd.DataFrame({
            "w1": pd.Series(np.concatenate(o1), dtype=object),
            "w2": pd.Series(np.concatenate(o2), dtype=object),
            "dist": pd.Series(np.concatenate(dd), dtype=np.int64)})

    return keyed_sweep(ranked.map_batches(replicate, batch_format="pandas"),
                       "bucket", pairs)


def _gear_table() -> np.ndarray:
    """256 deterministic 64-bit gear constants (splitmix64 of the
    byte value — no RNG state, identical everywhere)."""
    return _mix64(np.arange(256, dtype=np.uint64))


def gear_chunk_spans(data: bytes, min_size: int = 64,
                     avg_bits: int = 8,
                     max_size: int = 1024) -> list[tuple[int, int]]:
    """Content-defined chunk (start, end) spans of ``data`` by the
    Gear rolling hash (FastCDC's core): h = (h << 1) + gear[byte];
    a boundary closes the chunk when the top ``avg_bits`` bits are
    zero (expected chunk ~ 2^avg_bits past min_size) — the cut
    DEPENDS ONLY ON THE LOCAL BYTES, so inserting or deleting content
    shifts boundaries only near the edit and every other chunk
    fingerprint survives (the dedup property byte-offset chunking
    lacks; pinned by the shift-resilience pytest).

    VECTORIZED: after 64 shifts the gear hash has shifted every older
    byte out, so for min_size >= 64 (enforced) the boundary test at
    position i equals the pure 64-byte window hash
    H_i = sum_k gear[b_{i-k}] << k — computed for ALL positions with
    64 shifted adds over the byte array (mod-2^64 wraparound), then
    one sparse candidate walk applies the min/max constraints."""
    if min_size < 64:
        raise ValueError("min_size must be >= 64 (the gear window)")
    n = len(data)
    if n == 0:
        return []
    b = np.frombuffer(data, dtype=np.uint8)
    gv = _gear_table()[b]
    H = np.zeros(n, dtype=np.uint64)
    for k in range(min(64, n)):
        H[k:] += gv[:n - k] << np.uint64(k)
    mask = np.uint64(((1 << avg_bits) - 1) << (64 - avg_bits))
    cand = np.flatnonzero((H & mask) == np.uint64(0))
    spans = []
    start = 0
    while start < n:
        limit = start + max_size
        ci = int(np.searchsorted(cand, start + min_size - 1))
        if ci < cand.size and cand[ci] + 1 <= limit:
            end = int(cand[ci]) + 1
        else:
            end = min(limit, n)
        spans.append((start, end))
        start = end
    return spans


def _lev(a: str, b: str, cap: int = 2) -> int:
    """Banded Levenshtein distance, exact up to ``cap`` (returns
    cap+1 past it). Candidate verification only — blocking keeps the
    pair count tiny, so the per-pair DP never sees the corpus."""
    la, lb = len(a), len(b)
    if la > lb:
        a, b, la, lb = b, a, lb, la
    if lb - la > cap:
        return cap + 1
    prev = list(range(la + 1))
    for j in range(1, lb + 1):
        cur = [j] + [0] * la
        lo = max(1, j - cap)
        hi = min(la, j + cap)
        if lo > 1:
            cur[lo - 1] = cap + 1
        for i in range(lo, hi + 1):
            cur[i] = min(prev[i] + 1, cur[i - 1] + 1,
                         prev[i - 1] + (a[i - 1] != b[j - 1]))
        for i in range(hi + 1, la + 1):
            cur[i] = cap + 1
        prev = cur
    return min(prev[la], cap + 1)


def edit_distance2_pairs(vocab, col: str = "w"):
    """FastSS k=2 similarity join: all unordered pairs at Levenshtein
    distance 1 OR 2. Same lossless deletion-neighborhood blocking as
    edit_distance_pairs, extended to 2-deletion variants (each string
    emits itself + its C(L,1) one-deletions + C(L,2) two-deletions;
    ed(u,w) <= 2 implies a shared variant — Bocek et al. Thm 1, so
    the superset is lossless and the banded-DP verify makes the
    result EXACT). The column-pair drops are vectorized per length
    class; the only shuffle moves (variant, word) keys; duplicates
    collapse in the same two coarse sweeps as the k=1 stage.

    Returns a Dataset of (w1, w2, dist) with w1 < w2, dist in {1,2}.
    """
    def variants(batch: pa.Table) -> pa.Table:
        words = np.asarray(batch[col], dtype=object)
        if words.size == 0:
            return pa.table({"variant": pa.array([], pa.string()),
                             "w": pa.array([], pa.string())})
        lens = np.fromiter((len(w) for w in words), np.int64,
                           count=words.size)
        out_v = [words]
        out_w = [words]
        for L in np.unique(lens):
            L = int(L)
            if L < 2:
                continue
            sub = words[lens == L].astype(f"<U{L}")
            chars = sub.view("<U1").reshape(sub.size, L)
            for i in range(L):
                keep = np.ascontiguousarray(
                    np.concatenate([chars[:, :i], chars[:, i + 1:]],
                                   axis=1))
                out_v.append(keep.view(f"<U{L - 1}").ravel()
                             .astype(object))
                out_w.append(sub.astype(object))
            if L < 3:
                continue
            for i in range(L - 1):
                for j in range(i + 1, L):
                    keep = np.ascontiguousarray(np.concatenate(
                        [chars[:, :i], chars[:, i + 1:j],
                         chars[:, j + 1:]], axis=1))
                    out_v.append(keep.view(f"<U{L - 2}").ravel()
                                 .astype(object))
                    out_w.append(sub.astype(object))
        return pa.table({
            "variant": pa.array(np.concatenate(out_v), pa.string()),
            "w": pa.array(np.concatenate(out_w), pa.string())})

    keyed = vocab.map_batches(variants, batch_format="pyarrow")

    def sweep(g: pd.DataFrame) -> pd.DataFrame:
        v = np.asarray(g["variant"], dtype=object)
        w = np.asarray(g["w"], dtype=object)
        order = np.lexsort((w, v))
        v, w = v[order], w[order]
        seen: set = set()
        dead: set = set()
        a_out: list = []
        b_out: list = []
        d_out: list = []
        start = 0
        n = len(v)
        for end in range(1, n + 1):
            if end < n and v[end] == v[start]:
                continue
            if end - start >= 2:
                ws = w[start:end]
                for i in range(len(ws)):
                    wi = ws[i]
                    for j in range(i + 1, len(ws)):
                        if wi == ws[j]:
                            continue
                        p = (wi, ws[j]) if wi < ws[j] else (ws[j], wi)
                        if p in seen or p in dead:
                            continue
                        d = _lev(*p)
                        if d <= 2:
                            seen.add(p)
                            a_out.append(p[0])
                            b_out.append(p[1])
                            d_out.append(d)
                        else:
                            dead.add(p)
            start = end
        return pd.DataFrame({"w1": pd.Series(a_out, dtype=object),
                             "w2": pd.Series(b_out, dtype=object),
                             "dist": pd.Series(d_out,
                                               dtype=np.int64)})

    pairs = keyed_sweep(keyed, "variant", sweep)

    def distinct(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["w1", "w2"])[["w1", "w2", "dist"]]

    return keyed_sweep(pairs, "w1", distinct)
