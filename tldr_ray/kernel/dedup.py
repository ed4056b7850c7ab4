"""Near-duplicate sentence removal (reference ``UniqSentences``).

Reproduces the *rejection decisions* of /root/reference/util.go:159-221:

1. Jaro pass: scanning i < j in order, reject j when
   ``distance(msens[i], msens[j]) >= threshold`` (msens = tokens joined
   with single spaces — empty tokens produce doubled spaces, which is
   part of the comparison semantics and is preserved here).
2. CSIS pass: for surviving i < j, reject i when msens[i] is a substring
   of msens[j] (break), reject j when msens[j] is a substring of msens[i].

Both passes are filter-then-verify with exact filters (the pattern of
the similarity-join papers in PAPERS.md). The filters run per chunk of
consecutive documents of the batch, at most ``_CHUNK`` sentences plus
one document, with a fixed number of NumPy calls per chunk (and per
``_PAIRS`` pairs for the histogram-row gathers):

- Jaro filter (``_jaro_candidates``): the chunk's sentences are sorted
  by (document, lowered byte length), and only the within-document
  pairs inside the length-ratio window are enumerated: m <= L1 bounds
  ``distance`` by ``(2 + L1/L2) / 3``, so a pair whose lengths lie
  outside ``L1 >= (3 * threshold - 2) * L2`` (less a rounding margin)
  can never reject. Each pair in the window then gets the histogram
  bound ``sum_c min(h_s1(c), 2 * h_s2(c))`` from rows of one byte
  histogram of the chunk, and the exact float test of that bound, with
  the length-ratio bound for non-ASCII pairs and empty strings, keeps
  the candidates.
- Jaro verify: ``distance_pairs`` scores every candidate of the whole
  batch in one call, bit for bit equal to ``distance``. It is
  vectorized for pairs whose byte-shorter lowered sentence is ASCII and
  calls the scalar ``distance`` for the rest. The reject walk is then
  replayed in (i, j) order over the pairs that reach the threshold, so
  the reject set evolves exactly as in the double loop.
- CSIS filter (``_containment_pairs``): ``a in b`` implies
  hist(a) <= hist(b) over the UTF-8 bytes, so the substring pass only
  visits the within-document pairs whose byte sets, then histograms,
  nest in one direction, again in (i, j) order.

``uniq_sentence_indices`` is the one-document case of
``uniq_sentence_indices_many``; there is one dedup path. The plain
double loops are kept as the frozen oracle in tests/test_dedup_batch.py,
which checks both functions against them.

DOCUMENTED DIVERGENCE (quirk Q4, SURVEY.md §2.5): the reference's
write-back reassigns a local slice header (util.go:214-220), so the
caller's list keeps its original length with a stale tail, desyncing
bags from ``OriginalSentences``. This engine instead returns the kept
ORIGINAL indices and callers drop rejected rows while preserving the
original index as the vertex id — the sane semantics. For inputs where
nothing is rejected (including the reference's own golden corpus
``sample.txt`` at threshold 0.95) the two behaviors are identical.
"""

from __future__ import annotations

import numpy as np

from tldr_ray.kernel.distance import distance_pairs

# sentences per chunk of consecutive documents (plus at most one
# document): bounds each chunk's byte histogram and pair arrays
_CHUNK = 1 << 12
# pairs per histogram-row gather: bounds the pairs x bytes temporaries
# of a chunk holding one very long document
_PAIRS = 1 << 16
# slack on the length-ratio window, far above float rounding, so the
# window holds every pair the exact float test can keep
_MARGIN = 1e-9


def _chunks(doc_sizes: np.ndarray) -> list[tuple[int, int]]:
    """(first, end) sentence ranges of the chunks: consecutive whole
    documents, a new chunk each time the sentence count passes a
    multiple of ``_CHUNK``."""
    starts = np.cumsum(doc_sizes) - doc_sizes
    cut = np.flatnonzero(np.diff(starts // _CHUNK)) + 1
    bounds = [0, *starts[cut].tolist(), int(doc_sizes.sum())]
    return [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


def _byte_hist(enc: list[bytes], lens: np.ndarray) -> np.ndarray:
    """(sentence, byte value) counts over the byte values that occur:
    int16 unless a count could reach 2**14 (twice it must fit)."""
    n = len(enc)
    flat = np.frombuffer(b"".join(enc), np.uint8)
    used = np.flatnonzero(np.bincount(flat, minlength=256))
    code = np.zeros(256, np.int64)
    code[used] = np.arange(used.size)
    rows = np.repeat(np.arange(n, dtype=np.int64), lens)
    hist = np.bincount(rows * used.size + code[flat],
                       minlength=n * used.size).reshape(n, used.size)
    return hist.astype(np.int16 if lens.max(initial=0) < 1 << 14
                       else np.int32)


def _length_pairs(lens: np.ndarray, doc: np.ndarray, ratio: float):
    """(a, b) for every within-document pair with len(a) <= len(b), a < b
    on equal lengths, and len(a) >= ratio * len(b); ``doc`` holds the
    (non-decreasing) document numbers. With the sentences sorted by
    (document, length), the partners of each sentence as the longer one
    are one run of the sorted order."""
    n = lens.size
    order = np.lexsort((lens, doc))
    sl = lens[order]
    width = int(sl.max(initial=0)) + 1
    key = doc[order] * width + sl
    need = np.ceil(np.minimum(ratio * sl, width)).astype(np.int64) \
        if ratio > 0 else 0
    first = np.searchsorted(key, key - sl + need)
    counts = np.maximum(np.arange(n) - first, 0)
    shorter = np.arange(int(counts.sum())) \
        - np.repeat(np.cumsum(counts) - counts - first, counts)
    return order[shorter], np.repeat(order, counts)


def _in_ij_order(a: np.ndarray, b: np.ndarray, keep: np.ndarray):
    """The kept pairs as (i, j) = (min, max), sorted by (i, j)."""
    a, b = a[keep], b[keep]
    i, j = np.minimum(a, b), np.maximum(a, b)
    at = np.lexsort((j, i))
    return i[at], j[at]


def _jaro_candidates(lowered: list[str], doc: np.ndarray,
                     threshold: float):
    """The within-document pairs i < j, in (i, j) order, whose exact
    upper bound on ``distance(msens[i], msens[j])`` reaches the
    threshold; ``lowered`` holds the lowered sentences of one chunk and
    ``doc`` their (non-decreasing) document numbers.

    The bound: per character value c, the match count m gains at most
    one increment per s1 rune (the branches are exclusive per i), each
    else-branch increment consumes a fresh flagged s2 position, and the
    DIAGONAL branch (util.go:68-72) increments WITHOUT flag guards — an
    already else-matched s2 position can be counted twice. Hence per
    char m(c) <= min(h_s1(c), 2*h_s2(c)) with s1 the byte-shorter
    string (s1 = msens[i] on equal lengths), and m <= L1 overall; the
    score (m/L1 + m/L2 + (m-t)/m)/3 is then bounded by
    (b/L1 + b/L2 + 1)/3 with b = min(sum_c min(h_s1, 2*h_s2), L1), and
    by (2 + L1/L2)/3, so only the pairs with L1 >= (3*threshold - 2)*L2,
    less a rounding margin, are enumerated.
    ASCII-only (non-ASCII codepoints can equal continuation bytes,
    breaking the histogram argument) — other pairs, and pairs with an
    empty string, fall back to the length-ratio bound (1.0 when both
    are empty). Pruned pairs skip the O(n*window) scan with no semantic
    change."""
    n = len(lowered)
    enc = [s.encode("utf-8") for s in lowered]
    lens = np.fromiter(map(len, enc), np.int64, n)
    is_ascii = np.fromiter(map(str.isascii, lowered), bool, n)
    # a plays s1: the byte-shorter sentence, the lower index on ties
    a, b = _length_pairs(lens, doc, 3.0 * threshold - 2.0 - _MARGIN)
    lmin = lens[a].astype(np.float64)
    lmax = lens[b].astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = np.where(lmax > 0, (2.0 + lmin / lmax) / 3.0, 1.0)
    usable = np.flatnonzero(is_ascii[a] & is_ascii[b] & (lmin > 0))
    if usable.size:
        hist = _byte_hist(enc, lens)
        twice = 2 * hist
        s1, s2 = a[usable], b[usable]
        d = np.empty(usable.size, np.int64)
        for lo in range(0, usable.size, _PAIRS):
            blk = slice(lo, lo + _PAIRS)
            h = np.take(hist, s1[blk], axis=0)
            np.minimum(h, np.take(twice, s2[blk], axis=0), out=h)
            d[blk] = h.sum(axis=1)
        lo_, hi_ = lmin[usable], lmax[usable]
        m = np.minimum(d, lo_)
        bound[usable] = (m / lo_ + m / hi_ + 1.0) / 3.0
    return _in_ij_order(a, b, ~(bound < threshold))


def _containment_pairs(sents: list[str], doc: np.ndarray):
    """The within-document pairs i < j of one chunk, in (i, j) order,
    where one sentence may contain the other: ``a in b`` implies
    hist(a) <= hist(b) over the UTF-8 bytes, so the substring pass skips
    every other pair without a change. Byte sets are tested first, as
    bit words; the histograms only for the pairs whose sets nest."""
    n = len(sents)
    enc = [s.encode("utf-8") for s in sents]
    lens = np.fromiter(map(len, enc), np.int64, n)
    a, b = _length_pairs(lens, doc, 0.0)        # a the byte-shorter
    hist = _byte_hist(enc, lens)
    present = np.packbits(hist > 0, axis=1)
    bits = np.zeros((n, -(-present.shape[1] // 8) * 8), np.uint8)
    bits[:, :present.shape[1]] = present
    ok = np.ones(a.size, bool)
    for word in bits.view(np.uint64).T:     # 64 byte values per word
        ok &= (word[a] & ~word[b]) == 0
    cand = np.flatnonzero(ok)
    for lo in range(0, cand.size, _PAIRS):
        blk = cand[lo:lo + _PAIRS]
        ok[blk] = (hist[a[blk]] <= hist[b[blk]]).all(axis=1)
    return _in_ij_order(a, b, ok)


def uniq_sentence_indices_many(docs: list[list[list[str]]],
                               threshold: float) -> list[list[int]]:
    """Kept original indices of every document (each a list of token
    lists) after the two rejection passes."""
    flat = [" ".join(toks) for doc in docs for toks in doc]
    sizes = np.fromiter(map(len, docs), np.int64, len(docs))
    doc = np.repeat(np.arange(sizes.size), sizes)
    chunks = _chunks(sizes)
    lowered = [s.lower() for s in flat]
    I, J = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for lo, hi in chunks:
        i, j = _jaro_candidates(lowered[lo:hi], doc[lo:hi], threshold)
        I.append(i + lo)
        J.append(j + lo)
    I, J = np.concatenate(I), np.concatenate(J)
    # verify: score every candidate at once, then replay the Jaro pass in
    # (i, j) order; only pairs at or above the threshold can reject j
    close = distance_pairs(flat, I, J) >= threshold
    reject: set[int] = set()
    for i, j in zip(I[close].tolist(), J[close].tolist()):
        if i not in reject:
            reject.add(j)

    for lo, hi in chunks:
        i, j = _containment_pairs(flat[lo:hi], doc[lo:hi])
        for i, j in zip((i + lo).tolist(), (j + lo).tolist()):
            if i in reject or j in reject:
                continue
            if flat[i] in flat[j]:      # i subset of j -> reject i
                reject.add(i)
            elif flat[j] in flat[i]:    # j subset of i -> reject j
                reject.add(j)
    kept, off = [], 0
    for size in sizes.tolist():
        kept.append([k for k in range(size) if k + off not in reject])
        off += size
    return kept


def uniq_sentence_indices(token_lists: list[list[str]],
                          threshold: float) -> list[int]:
    """Kept original indices of one document after the two rejection
    passes."""
    return uniq_sentence_indices_many([token_lists], threshold)[0]
