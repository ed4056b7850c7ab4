"""Near-duplicate sentence removal (reference ``UniqSentences``).

Reproduces the *rejection decisions* of /root/reference/util.go:159-221:

1. Jaro pass: scanning i < j in order, reject j when
   ``distance(msens[i], msens[j]) >= threshold`` (msens = tokens joined
   with single spaces — empty tokens produce doubled spaces, which is
   part of the comparison semantics and is preserved here).
2. CSIS pass: for surviving i < j, reject i when msens[i] is a substring
   of msens[j] (break), reject j when msens[j] is a substring of msens[i].

Both passes are filter-then-verify with exact filters (the pattern of
the similarity-join papers in PAPERS.md):

- Jaro filter: ``_pairwise_jaro_bound`` is an exact upper bound on
  ``distance``, so a pair below the threshold can never reject.
- Jaro verify: ``distance_pairs`` scores every surviving pair of a whole
  batch of documents in one call, bit for bit equal to ``distance``. It
  is vectorized for pairs whose byte-shorter lowered sentence is ASCII
  and calls the scalar ``distance`` for the rest. The reject walk is
  then replayed in (i, j) order over the pairs that reach the threshold,
  so the reject set evolves exactly as in the double loop.
- CSIS filter: ``a in b`` implies hist(a) <= hist(b) over the UTF-8
  bytes, so the substring pass only visits pairs where that holds in
  one direction, again in (i, j) order.

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


def _pairwise_jaro_bound(msens: list[str]) -> np.ndarray:
    """EXACT per-pair upper bound on ``distance`` (the Jaro variant).

    Per character value c, the match count m gains at most one increment
    per s1 rune (the branches are exclusive per i), each else-branch
    increment consumes a fresh flagged s2 position, and the DIAGONAL
    branch (util.go:68-72) increments WITHOUT flag guards — an already
    else-matched s2 position can be counted twice. Hence per char
    m(c) <= min(h_s1(c), 2*h_s2(c)) with s1 the byte-shorter string, and
    m <= L1 overall; the score (m/L1 + m/L2 + (m-t)/m)/3 is then bounded
    by (b/L1 + b/L2 + 1)/3 with b = min(sum_c min(h_s1, 2*h_s2), L1).
    ASCII-only (non-ASCII codepoints can equal continuation bytes,
    breaking the histogram argument) — other pairs fall back to the
    length-ratio bound. Pruned pairs skip the O(n*window) scan with no
    semantic change.
    """
    n = len(msens)
    lowered = [s.lower().encode("utf-8") for s in msens]
    int_lens = np.fromiter((len(b) for b in lowered), np.int64, n)
    lens = int_lens.astype(np.float64)
    is_ascii = np.array([s.lower().isascii() for s in msens])
    # one bincount for the whole histogram block (row*256 + byte codes)
    all_bytes = np.frombuffer(b"".join(lowered), dtype=np.uint8)
    rows = np.repeat(np.arange(n, dtype=np.int64), int_lens)
    hist = np.bincount(rows * 256 + all_bytes,
                       minlength=n * 256).reshape(n, 256).astype(np.int32)
    # only byte values that actually occur contribute to the min-sum
    used = np.flatnonzero(hist.any(axis=0))
    hu = hist[:, used]
    lmin = np.minimum(lens[:, None], lens[None, :])
    lmax = np.maximum(lens[:, None], lens[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio_bound = (2.0 + lmin / lmax) / 3.0
        # D[i, j] = sum_c min(h_i(c), 2*h_j(c))  (i in the "short" role)
        d = np.zeros((n, n))
        for lo in range(0, n, 64):  # row blocks cap the n*n*K intermediate
            hi = min(lo + 64, n)
            d[lo:hi] = np.minimum(hu[lo:hi, None, :],
                                  2 * hu[None, :, :]).sum(axis=2)
        short_is_row = lens[:, None] <= lens[None, :]
        b = np.where(short_is_row, d, d.T)
        b = np.minimum(b, lmin)
        bound = (b / lmin + b / lmax + 1.0) / 3.0
    usable = is_ascii[:, None] & is_ascii[None, :] & (lmin > 0)
    return np.where(usable, bound, np.where(lmax > 0, ratio_bound, 1.0))


def uniq_sentence_indices_many(docs: list[list[list[str]]],
                               threshold: float) -> list[list[int]]:
    """Kept original indices of every document (each a list of token
    lists) after the two rejection passes."""
    msens = [[" ".join(toks) for toks in doc] for doc in docs]
    flat = [s for doc in msens for s in doc]
    offs = np.cumsum([0] + [len(doc) for doc in msens])
    I, J = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for off, doc in zip(offs.tolist(), msens):
        if len(doc) > 1:
            # filter: pairs whose bound is below the threshold never reject
            i, j = np.nonzero(np.triu(
                ~(_pairwise_jaro_bound(doc) < threshold), 1))
            I.append(i + off)
            J.append(j + off)
    I, J = np.concatenate(I), np.concatenate(J)
    # verify: score every candidate at once, then replay the Jaro pass in
    # (i, j) order; only pairs at or above the threshold can reject j
    close = distance_pairs(flat, I, J) >= threshold
    reject: set[int] = set()
    for i, j in zip(I[close].tolist(), J[close].tolist()):
        if i not in reject:
            reject.add(j)

    kept = []
    for off, doc in zip(offs.tolist(), msens):
        for i, j in _containment_pairs(doc):
            i, j = i + off, j + off
            if i in reject or j in reject:
                continue
            if flat[i] in flat[j]:      # i subset of j -> reject i
                reject.add(i)
            elif flat[j] in flat[i]:    # j subset of i -> reject j
                reject.add(j)
        kept.append([i for i in range(len(doc)) if i + off not in reject])
    return kept


def _containment_pairs(msens: list[str]) -> list[tuple[int, int]]:
    """The pairs i < j, in (i, j) order, where one sentence may contain the
    other: ``a in b`` implies hist(a) <= hist(b) over the UTF-8 bytes, so
    the substring pass skips every other pair without a change."""
    n = len(msens)
    if n < 2:
        return []
    enc = [s.encode("utf-8") for s in msens]
    lens = np.fromiter(map(len, enc), np.int64, n)
    rows = np.repeat(np.arange(n, dtype=np.int64), lens)
    hist = np.bincount(rows * 256 + np.frombuffer(b"".join(enc), np.uint8),
                       minlength=n * 256).reshape(n, 256)
    hist = hist[:, hist.any(axis=0)].astype(np.int32)
    # byte sets first: a matrix product counts the byte values two
    # sentences share; the shorter one's set must lie inside the longer's
    present = (hist > 0).astype(np.float32)
    inside = present @ present.T == present.sum(axis=1)[:, None]
    shorter_first = lens[:, None] <= lens[None, :]
    i, j = np.nonzero(np.triu(np.where(shorter_first, inside, inside.T), 1))
    a = np.where(lens[i] <= lens[j], i, j)
    b = i + j - a
    ok = np.zeros(i.size, bool)
    for lo in range(0, i.size, 4096):   # blocks cap the pairs*K gather
        blk = slice(lo, lo + 4096)
        ok[blk] = (hist[a[blk]] <= hist[b[blk]]).all(axis=1)
    return list(zip(i[ok].tolist(), j[ok].tolist()))


def uniq_sentence_indices(token_lists: list[list[str]],
                          threshold: float) -> list[int]:
    """Kept original indices of one document after the two rejection
    passes."""
    return uniq_sentence_indices_many([token_lists], threshold)[0]
