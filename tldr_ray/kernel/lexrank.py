"""Per-conversation LexRank kernel (the reference's whole pipeline).

Pure NumPy — runs inside Ray ``map_groups`` calls and doubles as the
oracle for the distributed graph layer. Stage-by-stage citations:

- vectors:   /root/reference/tldr.go:332-351 (binary presence over dict)
- weights:   /root/reference/tldr.go:264-314 (dense ordered pairs i != j;
             hamming = #differing positions — a DISsimilarity, quirk Q6;
             "jaccard" = 1 - common/(2V - common) with common counting
             equal positions including both-zero, quirk Q7)
- threshold: weight > threshold strictly (tldr.go:199, 227 — quirk Q8)
- pagerank:  tldr.go:222-256 via the dep oracle (pagerank_ref)
- centrality: tldr.go:194-220 (sort kept edges by weight desc, distinct
             src in order). The reference's sort is unstable and its
             PageRank output order comes from Go map iteration (quirk
             Q9); this engine defines the deterministic tie-break
             (score/weight desc, then vertex id asc) and the golden
             corpus has no ties near the cut.
- top-k + restore original order + char budget: tldr.go:146-187
  (num clamp quirk Q3; rune-based MaxCharacters truncation quirk Q11).
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from tldr_ray.config import SummarizeConfig
from tldr_ray.kernel.text import (
    tokenize_sentences,
    default_word_tokenizer,
    build_dictionary,
)
from tldr_ray.kernel.dedup import uniq_sentence_indices_many
from tldr_ray.kernel.go_sort import go_sort
from tldr_ray.kernel.pagerank_ref import pagerank_ref, power_iteration


def build_vectors(bags: list[list[str]], dictionary: dict[str, int]) -> np.ndarray:
    """(n_sentences, vocab) uint8 binary presence matrix (tldr.go:332-351).

    Unknown words (including empty tokens) are skipped; dict positions
    are 1-based.
    """
    n, v = len(bags), len(dictionary)
    mat = np.zeros((n, v), dtype=np.uint8)
    for i, bag in enumerate(bags):
        for w in bag:
            pos = dictionary.get(w, 0)
            if pos > 0:
                mat[i, pos - 1] = 1
    return mat


def pairwise_weights(mat: np.ndarray, weighing: str, custom=None) -> np.ndarray:
    """Dense (n, n) weight matrix over ordered pairs; diagonal unused.

    hamming: #positions where the binary vectors differ (tldr.go:290-297).
    jaccard: 1 - common/(2V - common), common = #equal positions
    including both-zero (tldr.go:281-288). V = len(dict).
    """
    n, v = mat.shape
    if weighing == "custom":
        if custom is None:
            raise ValueError("weighing='custom' requires a custom_weighing callable")
        w = np.zeros((n, n))
        vecs = [row.astype(np.int64).tolist() for row in mat]
        for i in range(n):
            for j in range(n):
                if i != j:
                    w[i, j] = custom(vecs[i], vecs[j])
        return w
    # float64 (BLAS) products of 0/1 rows are integer counts <= v, exact
    m = mat.astype(np.float64)
    dot = m @ m.T
    pop = m.sum(axis=1)
    hamming = pop[:, None] + pop[None, :] - 2 * dot
    if weighing == "jaccard":
        common = v - hamming
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 - common / (2.0 * v - common)
    # "hamming" and any unrecognized weighing fall back to hamming
    # (tldr.go:300-308 default branch)
    return hamming.astype(np.float64)


def edges_above_threshold(w: np.ndarray, threshold: float):
    """(src, dst, weight) arrays of off-diagonal entries with w > threshold."""
    n = w.shape[0]
    mask = w > threshold
    np.fill_diagonal(mask, False)
    src, dst = np.nonzero(mask)
    return src.astype(np.int64), dst.astype(np.int64), w[src, dst].astype(np.float64)


def pagerank_rank(src, dst, weight, damping, tolerance) -> tuple[np.ndarray, np.ndarray]:
    """Vertex ids ranked by PageRank score desc, tie-break id asc.

    Returns (ranked_ids, scores_in_that_order). Vertices with every edge
    filtered never enter the graph (quirk Q10).

    The scores are ``pagerank_ref``'s bits: the same loop over the same
    compacted positions. Ids that are non-negative and below 4x the edge
    count (the kernel's kept-list positions always are) are compacted
    with a presence mask and its running count instead of
    ``pagerank_ref``'s sort.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    hi = max(src.max(initial=-1), dst.max(initial=-1))
    if src.size and min(src.min(), dst.min()) >= 0 and hi < 4 * src.size:
        seen = np.zeros(hi + 1, bool)
        seen[src] = True
        seen[dst] = True
        ids = np.flatnonzero(seen)
        pos = np.cumsum(seen) - 1
        scores = power_iteration(pos[src], pos[dst],
                                 np.asarray(weight, dtype=np.float64),
                                 ids.size, damping, tolerance)
    else:
        ids, scores = pagerank_ref(src, dst, weight, damping, tolerance)
    order = np.lexsort((ids, -scores))
    return ids[order], scores[order]


def centrality_rank(src, dst, weight, exact_tie_order: bool = True) -> np.ndarray:
    """Distinct src of kept edges sorted by weight desc (tldr.go:194-220).

    ``exact_tie_order=True`` reproduces the reference's tie permutation
    exactly: kept edges in generation order (src asc, dst asc — the
    row-major double loop of tldr.go:274-313) are sorted ASCENDING by
    weight with the emulated unstable Go ``sort.Sort`` and the slice is
    then reversed (tldr.go:204-206); the golden centrality outputs
    depend on that permutation (quirk Q9). With ``False`` the engine's
    own deterministic tie-break (max weight desc, then src asc) is used
    — the scalable form for the distributed layer.
    """
    if len(src) == 0:
        return np.empty(0, dtype=np.int64)
    if exact_tie_order:
        edges = sorted(zip(src.tolist(), dst.tolist(), weight.tolist()),
                       key=lambda e: (e[0], e[1]))
        go_sort(edges, lambda x, y: x[2] < y[2])
        edges.reverse()
        seen: set[int] = set()
        ranks: list[int] = []
        for s, _, _ in edges:
            if s not in seen:
                seen.add(s)
                ranks.append(s)
        return np.asarray(ranks, dtype=np.int64)
    uniq, inv = np.unique(src, return_inverse=True)
    best = np.zeros(uniq.size)
    np.maximum.at(best, inv, weight)
    rank_order = np.lexsort((uniq, -best))
    return uniq[rank_order]


Doc = tuple[str, Optional[list[str]]]     # (text, presplit sentences)


def _prepare_many(docs: list[Doc], cfg: SummarizeConfig) -> Iterator:
    """Shared front half of many documents: sentences, dedup, dictionary,
    vectors, edges. The dedup of all documents runs as one batch before
    the first document is yielded; the rest runs one document at a time,
    so only one document's dense weights and edges are alive at once.

    Yields, per document, None for an empty document, else (sentences,
    kept_idx, src, dst, weight) where vertex ids are positions in the
    KEPT list; ``kept_idx[v]`` maps back to the original sentence index.
    """
    tokenizer = cfg.word_tokenizer or default_word_tokenizer
    parsed = []                 # (text, sentences, bags), None if empty
    for text, presplit in docs:
        text = text.strip()
        if not text and not presplit:
            parsed.append(None)
            continue
        sentences = list(presplit) if presplit else tokenize_sentences(text)
        parsed.append((text, sentences, [tokenizer(s) for s in sentences]))
    kept_all = iter(uniq_sentence_indices_many(
        [p[2] for p in parsed if p], cfg.sentences_distance_threshold))

    for p in parsed:
        if p is None:
            yield None
            continue
        text, sentences, bags = p
        kept_idx = next(kept_all)
        if cfg.dictionary is not None and len(cfg.dictionary) > 0:
            dictionary = cfg.dictionary
        else:
            if not text:
                text = " ".join(sentences).strip()
            dictionary = build_dictionary(text)
        mat = build_vectors([bags[i] for i in kept_idx], dictionary)
        w = pairwise_weights(mat, cfg.weighing, cfg.custom_weighing)
        src, dst, weight = edges_above_threshold(w, cfg.threshold)
        yield sentences, kept_idx, src, dst, weight


def _ranks(src, dst, weight, cfg: SummarizeConfig) -> np.ndarray:
    if cfg.algorithm == "centrality":
        return centrality_rank(src, dst, weight)
    if cfg.algorithm == "custom":
        if cfg.custom_algorithm is None:
            raise ValueError("algorithm='custom' requires a custom_algorithm callable")
        edges = list(zip(src.tolist(), dst.tolist(), weight.tolist()))
        return np.asarray(cfg.custom_algorithm(edges), dtype=np.int64)
    ranked, _ = pagerank_rank(src, dst, weight, cfg.damping, cfg.tolerance)
    return ranked


def _concat(sentences: list[str], idx: list[int], max_characters: int) -> list[str]:
    """Gather + optional rune-budget truncation (tldr.go:161-187, Q11)."""
    if max_characters <= 0:
        return [sentences[i] for i in idx]
    res: list[str] = []
    used = 0
    for i in idx:
        sent = sentences[i]
        length = len(sent)  # Python strings are runes already
        if used + length <= max_characters:
            res.append(sent)
            used += length
        else:
            n = min(max_characters - used, length)
            res.append(sent[:n])
            break
    return res


def _pick(prep, num: int, cfg: SummarizeConfig) -> list[tuple[int, str]]:
    """Rank one prepared document and pick its top-k sentences as
    ``(original_sentence_idx, text)`` pairs in original appearance order.

    Mirrors Summarize (/root/reference/tldr.go:110-158) including the
    empty-input and no-ranks guards (Q2) and the num clamp (Q3).
    """
    if prep is None:
        return []
    sentences, kept_idx, src, dst, weight = prep
    ranks = _ranks(src, dst, weight, cfg)
    if ranks.size == 0:
        return []
    if num > ranks.size or num < 1:
        num = 1
    top = sorted(ranks[:num].tolist())  # restore original appearance order
    original = [kept_idx[v] for v in top]
    texts = _concat(sentences, original, cfg.max_characters)
    return list(zip(original[: len(texts)], texts))


def summarize(
    text: str,
    num: int,
    cfg: Optional[SummarizeConfig] = None,
    presplit: Optional[list[str]] = None,
) -> list[str]:
    """Full reference pipeline: text + k -> top-k sentences in original order."""
    return [t for _, t in summarize_with_indices(text, num, cfg, presplit)]


def summarize_with_indices(
    text: str,
    num: int,
    cfg: Optional[SummarizeConfig] = None,
    presplit: Optional[list[str]] = None,
) -> list[tuple[int, str]]:
    """Like ``summarize`` but returns ``(original_sentence_idx, text)`` pairs
    (in original appearance order) — the structured form the Ray pipelines
    emit. MaxCharacters truncation applies to the text exactly as in
    ``summarize``."""
    return summarize_with_indices_many([(text, presplit)], num, cfg)[0]


def summarize_with_indices_many(
    docs: list[Doc],
    num: int,
    cfg: Optional[SummarizeConfig] = None,
) -> list[list[tuple[int, str]]]:
    """``summarize_with_indices`` of every ``(text, presplit)`` document,
    with one batched dedup."""
    cfg = cfg or SummarizeConfig()
    return [_pick(prep, num, cfg) for prep in _prepare_many(docs, cfg)]


def summarize_to_edges(
    text: str,
    cfg: Optional[SummarizeConfig] = None,
    presplit: Optional[list[str]] = None,
):
    """Front half only: emit the kept similarity edge list for a document.

    Returns (sentences, kept_idx, src, dst, weight) with vertex ids as
    positions in the kept list — the edge-materialization path used to
    build the global graph (SURVEY.md §7.1 step 4).
    """
    return next(summarize_to_edges_many([(text, presplit)], cfg))


def summarize_to_edges_many(docs: list[Doc],
                            cfg: Optional[SummarizeConfig] = None
                            ) -> Iterator:
    """``summarize_to_edges`` of every ``(text, presplit)`` document, in
    order, with one batched dedup; an iterator, so a caller that consumes
    each document's edges keeps only one document's arrays alive."""
    cfg = cfg or SummarizeConfig()
    for prep in _prepare_many(docs, cfg):
        yield prep or ([], [], np.empty(0, np.int64), np.empty(0, np.int64),
                       np.empty(0, np.float64))
