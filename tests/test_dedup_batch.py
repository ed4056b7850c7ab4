"""Batched Jaro dedup (kernel/dedup.py, kernel/distance.distance_pairs)
against the scalar ``distance`` and the frozen double-loop oracle, plus
the float64 pairwise weights against the integer formula."""

import importlib

import numpy as np
from hypothesis import given, settings, strategies as st

from tldr_ray.kernel.dedup import (uniq_sentence_indices,
                                   uniq_sentence_indices_many)
from tldr_ray.kernel.distance import distance, distance_pairs
from tldr_ray.kernel.lexrank import pairwise_weights

distance_mod = importlib.import_module("tldr_ray.kernel.distance")
dedup_mod = importlib.import_module("tldr_ray.kernel.dedup")


def oracle_uniq(token_lists, threshold):
    """The reference's two rejection passes as plain double loops
    (util.go:159-221), scoring every pair with the scalar ``distance``."""
    msens = [" ".join(toks) for toks in token_lists]
    n = len(msens)
    reject = set()
    for i in range(n - 1):
        if i in reject:
            continue
        for j in range(i + 1, n):
            if j in reject:
                continue
            if distance(msens[i], msens[j]) >= threshold:
                reject.add(j)
    for i in range(n - 1):
        if i in reject:
            continue
        for j in range(i + 1, n):
            if j not in reject:
                if msens[i] in msens[j]:
                    reject.add(i)
                    break
                if msens[j] in msens[i]:
                    reject.add(j)
    return [i for i in range(n) if i not in reject]


# doubled spaces and upper case matter: the comparison is on the joined,
# lowered UTF-8 bytes
ASCII = st.text(alphabet="abcAB  .", max_size=16)
UNICODE = st.text(alphabet="abé ßΣς日A", max_size=10)
CHUNKS = st.sampled_from([1, 2, 7, 1 << 16])


def _all_ordered_pairs(n):
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return i.ravel(), j.ravel()


def _check_pairs(sents, chunk):
    I, J = _all_ordered_pairs(len(sents))
    old = distance_mod._CHUNK
    distance_mod._CHUNK = chunk
    try:
        got = distance_pairs(sents, I, J)
    finally:
        distance_mod._CHUNK = old
    want = [distance(sents[i], sents[j]) for i, j in zip(I, J)]
    assert got.tolist() == want


class TestDistancePairs:
    @given(st.lists(ASCII, min_size=1, max_size=7), CHUNKS)
    @settings(max_examples=300, deadline=None)
    def test_equals_distance_ascii(self, sents, chunk):
        _check_pairs(sents, chunk)

    @given(st.lists(st.one_of(ASCII, UNICODE), min_size=1, max_size=6),
           CHUNKS)
    @settings(max_examples=200, deadline=None)
    def test_equals_distance_unicode(self, sents, chunk):
        _check_pairs(sents, chunk)

    @given(st.text(alphabet="ab ", min_size=1, max_size=40),
           st.lists(st.tuples(st.integers(0, 39), st.sampled_from("abB ")),
                    max_size=4), CHUNKS)
    @settings(max_examples=200, deadline=None)
    def test_equals_distance_near_copies(self, base, edits, chunk):
        # long strings over two letters: scans that overrun the window
        # and flag later occurrences of their byte
        near = list(base)
        for pos, ch in edits:
            near.insert(min(pos, len(near)), ch)
        _check_pairs([base, "".join(near), base.upper(), base + base], chunk)

    def test_flooded_byte_not_counted_again(self):
        # a later row whose byte an earlier row flooded past the window
        # finds its hit already flagged and adds no match
        _check_pairs(["dgheg", "hbggb", "ababa", "bbaab", "ABba", "bAA ",
                      "cahcd", "gccbf"], 1 << 16)

    def test_empty_and_equal_strings(self):
        _check_pairs(["", "", "a", "a", "A", "ab", "ba", "é", "É"], 1)
        assert distance_pairs([], [], []).size == 0


THRESHOLDS = st.sampled_from([0.0, 0.5, 0.8, 0.95, 1.0])
WORDS = st.sampled_from(["a", "b", "ab", "ba", "A", "", "é", "ß", "Σ",
                         "ς", "日", "abc"])
DOC = st.lists(st.lists(WORDS, max_size=5), max_size=8)


class TestUniqAgainstOracle:
    @given(DOC, THRESHOLDS)
    @settings(max_examples=300, deadline=None)
    def test_one_document(self, toks, th):
        assert uniq_sentence_indices(toks, th) == oracle_uniq(toks, th)

    @given(st.lists(DOC, max_size=4), THRESHOLDS)
    @settings(max_examples=150, deadline=None)
    def test_many_documents(self, docs, th):
        assert uniq_sentence_indices_many(docs, th) == \
            [oracle_uniq(d, th) for d in docs]

    @given(st.lists(st.lists(st.sampled_from(["the", "cat", "sat", "on",
                                              "mat", "The", "Cat"]),
                             min_size=1, max_size=8),
                    min_size=2, max_size=10), THRESHOLDS)
    @settings(max_examples=150, deadline=None)
    def test_sentence_like_documents(self, toks, th):
        assert uniq_sentence_indices(toks, th) == oracle_uniq(toks, th)

    @given(st.lists(st.one_of(st.just([]), DOC.map(lambda d: d[:1]), DOC),
                    max_size=6),
           st.sampled_from([0.0, 0.5, 2 / 3, 0.95, 1.0]),
           st.sampled_from([1, 2, 3, 5]), st.sampled_from([1, 3, 1 << 16]))
    @settings(max_examples=300, deadline=None)
    def test_chunk_edges(self, docs, th, chunk, pairs):
        # tiny chunk and gather caps: chunks end inside the batch at
        # every document boundary, and the pair gathers run in blocks
        old = dedup_mod._CHUNK, dedup_mod._PAIRS
        dedup_mod._CHUNK, dedup_mod._PAIRS = chunk, pairs
        try:
            got = uniq_sentence_indices_many(docs, th)
        finally:
            dedup_mod._CHUNK, dedup_mod._PAIRS = old
        assert got == [oracle_uniq(d, th) for d in docs]


class TestChunks:
    @given(st.lists(st.integers(0, 9), max_size=12),
           st.sampled_from([1, 2, 5, 1 << 12]))
    @settings(max_examples=300, deadline=None)
    def test_whole_documents_in_order(self, sizes, chunk):
        # chunks tile the sentences in order, cut only at document
        # starts, and hold fewer than the cap before their last document
        sizes = np.asarray(sizes, np.int64)
        old = dedup_mod._CHUNK
        dedup_mod._CHUNK = chunk
        try:
            chunks = dedup_mod._chunks(sizes)
        finally:
            dedup_mod._CHUNK = old
        starts = (np.cumsum(sizes) - sizes).tolist()
        ends = np.cumsum(sizes).tolist()
        bounds = [0, *(hi for _, hi in chunks)]
        assert [lo for lo, _ in chunks] == bounds[:-1]
        assert bounds[-1] == int(sizes.sum())
        for lo, hi in chunks:
            assert lo < hi and lo in starts and hi in ends
            last = max(s for s, e in zip(starts, ends) if lo <= s < hi)
            assert last - lo < chunk


class TestLengthPairs:
    @given(st.lists(st.lists(st.integers(0, 12), max_size=6), max_size=4),
           st.sampled_from([-1.0, 0.0, 0.3, 0.5, 0.9, 1.0, 1.5]))
    @settings(max_examples=300, deadline=None)
    def test_exactly_the_window(self, docs, ratio):
        # every within-document (shorter, longer) pair inside the ratio
        # window, each once, the lower index as the shorter on ties
        lens = np.asarray([n for d in docs for n in d], np.int64)
        doc = np.repeat(np.arange(len(docs)), list(map(len, docs)))
        a, b = dedup_mod._length_pairs(lens, doc, ratio)
        got = sorted(zip(a.tolist(), b.tolist()))
        want = sorted((i, j) for i in range(lens.size)
                      for j in range(lens.size)
                      if i != j and doc[i] == doc[j]
                      and (lens[i], i) < (lens[j], j)
                      and lens[i] >= ratio * lens[j])
        assert got == want


class TestContainmentPairs:
    @given(st.lists(st.lists(st.one_of(ASCII, UNICODE), max_size=5),
                    min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_covers_every_substring_pair(self, docs):
        # every within-document pair where one sentence holds the other
        # is a candidate; candidates are within-document, i < j, sorted
        sents = [s for d in docs for s in d]
        doc = np.repeat(np.arange(len(docs)), list(map(len, docs)))
        I, J = dedup_mod._containment_pairs(sents, doc)
        got = list(zip(I.tolist(), J.tolist()))
        assert got == sorted(set(got))
        assert all(i < j and doc[i] == doc[j] for i, j in got)
        want = {(i, j) for i in range(len(sents))
                for j in range(i + 1, len(sents))
                if doc[i] == doc[j]
                and (sents[i] in sents[j] or sents[j] in sents[i])}
        assert want <= set(got)


class TestPairwiseWeights:
    def test_float_dot_equals_integer_formula(self):
        rng = np.random.default_rng(5)
        for n, v, p in [(1, 1, 0.5), (7, 3, 0.5), (40, 200, 0.1),
                        (60, 30, 0.9), (5, 0, 0.5)]:
            mat = (rng.random((n, v)) < p).astype(np.uint8)
            m = mat.astype(np.int32)
            pop = m.sum(axis=1)
            hamming = pop[:, None] + pop[None, :] - 2 * (m @ m.T)
            assert np.array_equal(pairwise_weights(mat, "hamming"),
                                  hamming.astype(np.float64))
            common = v - hamming
            with np.errstate(divide="ignore", invalid="ignore"):
                jac = 1.0 - common / (2.0 * v - common)
            assert np.array_equal(pairwise_weights(mat, "jaccard"), jac,
                                  equal_nan=True)
