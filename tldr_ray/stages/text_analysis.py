"""Text-analysis operators for training-data pipelines.

All stateful setup (compiled regexes, stopword tables, n-gram profiles)
lives in actor ``__init__``; per-batch work is vectorized pandas/pyarrow.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from tldr_ray.stages.joins import fits_broadcast

# tiny built-in stopword profiles for the n-gram/stopword language
# heuristic (public common-word lists; good enough for a coarse router)
_LANG_STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "that", "it", "for",
           "was", "with", "as", "on", "be", "at", "by", "this", "have"},
    "de": {"der", "die", "das", "und", "ist", "von", "mit", "den", "nicht",
           "ein", "eine", "zu", "im", "für", "auf", "des", "sich", "auch"},
    "es": {"el", "la", "de", "que", "y", "en", "un", "una", "los", "las",
           "es", "por", "con", "para", "del", "se", "no", "su", "al"},
    "fr": {"le", "la", "les", "de", "des", "et", "un", "une", "est", "que",
           "dans", "pour", "qui", "sur", "pas", "au", "du", "il", "ne"},
    "it": {"il", "la", "di", "che", "e", "un", "una", "per", "con", "del",
           "non", "sono", "da", "si", "le", "nel", "alla", "come"},
    "pt": {"o", "a", "de", "que", "e", "do", "da", "em", "um", "uma",
           "para", "com", "não", "os", "as", "no", "na", "por", "se"},
}


class LanguageId:
    """Stopword-overlap language heuristic (actor-pool stage).

    Output: lang_pred (best profile) + lang_score (overlap ratio).
    Ties and empty texts resolve to 'und'.
    """

    def __init__(self):
        self.langs = sorted(_LANG_STOPWORDS)
        # one Arrow value_set per profile, built once per actor
        self.profiles = {k: pa.array(sorted(v), pa.string())
                         for k, v in _LANG_STOPWORDS.items()}

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        D = len(batch)
        texts = pa.array(batch["text"].fillna("").tolist(), pa.string())
        # word extraction ~= re [^\W\d_]+ (unicode letters): split on the
        # complement — RE2's \W is ASCII-only, so spell out \p{L}
        toks = pc.split_pattern_regex(pc.utf8_lower(texts), r"[^\p{L}]+")
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        off = np.asarray(toks.offsets, dtype=np.int64)
        doc_of = np.repeat(np.arange(D, dtype=np.int64), np.diff(off))
        nonempty = np.asarray(pc.greater(pc.utf8_length(flat), 0))
        doc_of = doc_of[nonempty]
        flat = flat.filter(pa.array(nonempty))
        n_words = np.bincount(doc_of, minlength=D).astype(np.float64)
        scores = np.zeros((len(self.langs), D), dtype=np.float64)
        safe = np.where(n_words == 0, 1.0, n_words)
        for li, lang in enumerate(self.langs):
            hits = np.asarray(pc.is_in(flat, value_set=self.profiles[lang]))
            scores[li] = np.bincount(doc_of, weights=hits,
                                     minlength=D) / safe
        best = scores.max(axis=0)
        # ties resolve to the alphabetically-first profile (argmax picks
        # the first max; self.langs is sorted); all-zero -> 'und'
        pred_idx = scores.argmax(axis=0)
        langs_arr = np.asarray(self.langs + ["und"])
        pred_idx = np.where(best > 0, pred_idx, len(self.langs))
        batch = batch.copy()
        batch["lang_pred"] = langs_arr[pred_idx]
        batch["lang_score"] = best
        return batch


def language_id(ds, concurrency: int = 4, batch_size: int = 1024):
    return ds.map_batches(LanguageId, batch_format="pandas",
                          concurrency=concurrency, batch_size=batch_size)


class QualityScore:
    """Heuristic document quality: length / punctuation / stopword /
    digit / repetition signals -> per-signal columns + composite score in
    [0, 1]. All string work is vectorized pandas str ops."""

    def __init__(self):
        self.stop_set = pa.array(sorted(_LANG_STOPWORDS["en"]), pa.string())

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        D = len(batch)
        text = batch["text"].fillna("")
        texts = pa.array(text.tolist(), pa.string())
        n_chars = pd.Series(np.asarray(pc.utf8_length(texts),
                                       dtype=np.int64), index=batch.index)
        toks = pc.utf8_split_whitespace(pc.utf8_lower(texts))
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        off = np.asarray(toks.offsets, dtype=np.int64)
        doc_of = np.repeat(np.arange(D, dtype=np.int64), np.diff(off))
        tok_len = np.asarray(pc.utf8_length(flat), dtype=np.int64)
        nonempty = tok_len > 0            # Arrow split emits '' at edges
        doc_of, tok_len = doc_of[nonempty], tok_len[nonempty]
        flat = flat.filter(pa.array(nonempty))
        n_tok = np.bincount(doc_of, minlength=D).astype(np.int64)
        safe = np.maximum(n_tok, 1).astype(np.float64)
        mean_tok = pd.Series(
            np.bincount(doc_of, weights=tok_len, minlength=D) / safe
            * (n_tok > 0), index=batch.index)
        stops = np.asarray(pc.is_in(flat, value_set=self.stop_set))
        stop_ratio = pd.Series(
            np.bincount(doc_of, weights=stops, minlength=D) / safe,
            index=batch.index)
        # distinct tokens per doc: factorize once, count (doc, code)
        # boundary changes in sorted order — no per-doc set() loop
        codes = pd.factorize(pd.Series(np.asarray(flat)))[0]
        if codes.size:
            order = np.lexsort((codes, doc_of))
            dd, cc = doc_of[order], codes[order]
            first = np.concatenate([[True],
                                    (dd[1:] != dd[:-1]) | (cc[1:] != cc[:-1])])
            n_uniq = np.bincount(dd[first], minlength=D).astype(np.float64)
        else:
            n_uniq = np.zeros(D)
        uniq_ratio = pd.Series(n_uniq / safe, index=batch.index)
        n_tokens = pd.Series(n_tok, index=batch.index)
        denom = n_chars.replace(0, 1)
        # RE2's \w and \d are ASCII-only; use unicode property classes to
        # match the Python-re semantics these ratios were defined with
        punct_ratio = pd.Series(
            np.asarray(pc.count_substring_regex(
                texts, r"[^\p{L}\p{N}_\s]"), dtype=np.float64),
            index=batch.index) / denom
        digit_ratio = pd.Series(
            np.asarray(pc.count_substring_regex(texts, r"\p{Nd}"),
                       dtype=np.float64), index=batch.index) / denom

        # composite: reward sane token length (3-8), some stopwords,
        # lexical diversity; punish punctuation/digit walls
        score = (
            np.clip(1 - np.abs(mean_tok - 5.5) / 5.5, 0, 1) * 0.25
            + np.clip(stop_ratio * 4, 0, 1) * 0.25
            + np.clip(uniq_ratio, 0, 1) * 0.30
            + np.clip(1 - punct_ratio * 5, 0, 1) * 0.10
            + np.clip(1 - digit_ratio * 5, 0, 1) * 0.10
        )
        out = batch.copy()
        out["n_tokens"] = n_tokens
        out["mean_token_len"] = mean_tok.astype(np.float64)
        out["stopword_ratio"] = stop_ratio.astype(np.float64)
        out["unique_token_ratio"] = uniq_ratio.astype(np.float64)
        out["punct_ratio"] = punct_ratio.astype(np.float64)
        out["digit_ratio"] = digit_ratio.astype(np.float64)
        out["quality_score"] = score.astype(np.float64)
        return out


def quality_scores(ds, concurrency: int = 4, batch_size: int = 1024):
    return ds.map_batches(QualityScore, batch_format="pandas",
                          concurrency=concurrency, batch_size=batch_size)


def token_counts(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Whitespace tokens + BPE-ish subunit count ("\\w+|[^\\w\\s]" pieces),
    fully vectorized pyarrow; SQL-checkable (regexp_extract_all)."""
    def fn(batch: pa.Table) -> pa.Table:
        t = batch[text_col]
        ws = pc.list_value_length(
            pc.split_pattern_regex(pc.utf8_trim_whitespace(t), r"\s+"))
        bpe = pc.list_value_length(pc.extract_regex_span(t, r"\w+|[^\w\s]")) \
            if hasattr(pc, "extract_regex_span") else None
        if bpe is None:
            # portable fallback: count matches via split on the pattern
            bpe = pc.list_value_length(
                pc.split_pattern_regex(t, r"\w+|[^\w\s]"))
            bpe = pc.subtract(bpe, 1)
        return pa.table(
            {
                id_col: batch[id_col],
                "n_ws_tokens": pc.cast(ws, pa.int64()),
                "n_bpe_pieces": pc.cast(bpe, pa.int64()),
            }
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        fn, batch_format="pyarrow")


def fingerprints(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Content fingerprints: md5 hex (SQL-checkable vs DuckDB md5()) and
    a 64-bit FNV-1a rolling token hash (order-sensitive)."""
    def fn(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        md5s = [hashlib.md5((t or "").encode("utf-8")).hexdigest()
                for t in texts]
        # token-stream FNV-1a == FNV-1a over "tok1 tok2 ... tokN " (a
        # 0x20 separator follows EVERY token) — vectorize by iterating
        # over byte POSITION with a live-docs mask instead of per-doc
        # Python byte loops
        streams = [(" ".join((t or "").split()) + " ").encode("utf-8")
                   if (t or "").split() else b"" for t in texts]
        D = len(streams)
        lens = np.fromiter((len(s) for s in streams), np.int64, D)
        L = int(lens.max()) if D else 0
        flat = np.frombuffer(b"".join(streams), np.uint8)
        starts = np.cumsum(lens) - lens
        h = np.full(D, 0xCBF29CE484222325, dtype=np.uint64)
        prime = np.uint64(0x100000001B3)
        for j in range(L):
            live = np.flatnonzero(lens > j)
            h[live] = (h[live] ^ flat[starts[live] + j].astype(np.uint64)) \
                * prime
        return pa.table(
            {
                id_col: batch[id_col],
                "md5": pa.array(md5s, pa.string()),
                "fnv64": pa.array(h.view(np.int64)),
            }
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        fn, batch_format="pyarrow")


# -- TF-IDF -------------------------------------------------------------
#
# Top-k characteristic terms per document. Shuffle budget is ONE small
# all-to-all over distinct (term, partial-df) rows — never over tokens:
# term frequencies are complete inside a batch (one row = one document,
# Ray never splits a row), so the tf side is stateless map_batches, and
# the vocabulary table is size-gated: broadcast (ray.put of sorted
# term/df arrays, searchsorted lookup per batch) when it fits, bucketed
# hash join + coarse per-doc sweep when it does not — the same
# two-path discipline as queries.revenue_by_nation.
#
# idf is the LINEAR rational N/df (score = CAST(tf AS DOUBLE) * N / df)
# rather than log(N/df): ranking within a document is identical (log is
# monotone), and the score stays a pure IEEE expression DuckDB mirrors
# bit-for-bit — a libm log could differ in the last ulp across engines
# and break the driver's value hash.


def _tf_cells(batch: pa.Table, id_col: str, text_col: str):
    """Per-(doc, term) counts for one batch: lower + trim + \\s+ split,
    empty tokens dropped (the word_frequency tokenizer convention).
    Returns (doc_idx int64, term object, tf int64, uterms) with rows
    doc-major sorted."""
    toks = pc.split_pattern_regex(
        pc.utf8_trim_whitespace(pc.utf8_lower(batch[text_col])), r"\s+")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    flat = pc.list_flatten(toks)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    off = np.asarray(toks.offsets, dtype=np.int64)
    doc_of = np.repeat(np.arange(len(batch), dtype=np.int64),
                       np.diff(off))
    keep = np.asarray(pc.greater(pc.utf8_length(flat), 0))
    doc_of = doc_of[keep]
    words = np.asarray(flat)[keep]
    uterms, t_idx = np.unique(words, return_inverse=True)
    key = doc_of * np.int64(len(uterms)) + t_idx
    ukey, counts = np.unique(key, return_counts=True)
    return (ukey // len(uterms), uterms[ukey % len(uterms)],
            counts.astype(np.int64), uterms)


def _topk_rows(ids, terms, tf, dfs, n_docs: int, k: int):
    """Vectorized per-doc top-k by (score desc, term asc): one lexsort
    + segment index arithmetic. ``ids`` must be groupable values (rows
    for one doc need not be contiguous on input)."""
    score = (tf.astype(np.float64) * np.float64(n_docs)) / dfs
    order = np.lexsort((terms, -score, ids))
    ids, terms = ids[order], terms[order]
    tf, dfs, score = tf[order], dfs[order], score[order]
    n = len(ids)
    new = np.empty(n, dtype=bool)
    if n:
        new[0], new[1:] = True, ids[1:] != ids[:-1]
    starts = np.flatnonzero(new)
    seg = np.cumsum(new) - 1
    rnk = np.arange(n, dtype=np.int64) - starts[seg] + 1
    m = rnk <= k
    return (ids[m], terms[m], tf[m], dfs[m], rnk[m], score[m])


def tfidf_top_terms(ds, id_col: str = "doc_id", text_col: str = "text",
                    k: int = 5, num_partitions: int = 64):
    """Dataset of each document's k highest-tf-idf terms:
    (id_col, term, tf, df, rnk, score), rnk 1-based by
    (score desc, term asc).

    Cost note: the source is tokenized twice (df pass + scoring pass)
    — a deliberate trade: re-tokenizing is pure streaming CPU, while
    the alternative (materialize tf cells between passes) pins an
    O(tokens) intermediate in the object store. On the join path the
    tf cells ARE produced once and shuffled (they must move anyway).
    The corpus doc count rides the df pass as a sentinel vocab row
    (term ``"\\x00#docs"``, which no tokenizer output can collide
    with) instead of a separate full-corpus ``count()`` execution
    (round-3 verdict item 9: that third pass was a third read+decode
    of the whole corpus)."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    _NDOCS_SENTINEL = "\x00#docs"
    src = ds.select_columns([id_col, text_col])

    def tf_fn(batch: pa.Table) -> pa.Table:
        d, t, c, _ = _tf_cells(batch, id_col, text_col)
        ids = np.asarray(batch[id_col])[d]
        return pa.table({id_col: pa.array(ids),
                         "term": pa.array(t.tolist(), pa.string()),
                         "tf": pa.array(c)})

    def df_fn(batch: pa.Table) -> pa.Table:
        # each (doc, term) cell is globally unique (docs never span
        # batches), so per-batch docs-per-term partials sum to df;
        # the sentinel row folds the batch's doc count into the same
        # aggregate (no separate corpus count() pass)
        d, t, c, uterms = _tf_cells(batch, id_col, text_col)
        ti, cnt = np.unique(np.searchsorted(uterms, t),
                            return_counts=True)
        return pa.table({"term": pa.array(uterms[ti].tolist()
                                          + [_NDOCS_SENTINEL],
                                          pa.string()),
                         "df": pa.array(np.concatenate(
                             [cnt.astype(np.int64),
                              [np.int64(len(batch))]]))})

    df_all = (src.map_batches(df_fn, batch_format="pyarrow")
              .groupby("term").aggregate(Sum("df", alias_name="df"))
              .materialize())

    def drop_sentinel(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.not_equal(batch["term"], _NDOCS_SENTINEL))

    def only_sentinel(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch["term"], _NDOCS_SENTINEL))

    n_docs = int(df_all.map_batches(only_sentinel, batch_format="pyarrow")
                 .to_pandas()["df"].sum())
    df_tbl = df_all.map_batches(drop_sentinel, batch_format="pyarrow")

    if fits_broadcast(df_all):
        vdf = df_tbl.to_pandas()
        vterms = vdf["term"].to_numpy()
        vorder = np.argsort(vterms, kind="stable")
        ref = ray.put((vterms[vorder],
                       vdf["df"].to_numpy(np.int64)[vorder]))

        def score_topk(batch: pa.Table) -> pa.Table:
            vterms_s, vdfs_s = ray.get(ref)
            d, t, c, _ = _tf_cells(batch, id_col, text_col)
            ids = np.asarray(batch[id_col])[d]
            dfs = vdfs_s[np.searchsorted(vterms_s, t)]
            i, tm, tf, dfo, rnk, sc = _topk_rows(ids, t, c, dfs,
                                                 n_docs, k)
            return pa.table({id_col: pa.array(i),
                             "term": pa.array(tm.tolist(), pa.string()),
                             "tf": pa.array(tf), "df": pa.array(dfo),
                             "rnk": pa.array(rnk),
                             "score": pa.array(sc)})

        return src.map_batches(score_topk, batch_format="pyarrow")

    # large-vocab path: join tf cells against the df table by term,
    # then a coarse per-doc shuffle ranks each document's terms
    from tldr_ray.hashing import keyed_sweep
    from tldr_ray.stages.joins import bucketed_hash_join

    tf_ds = src.map_batches(tf_fn, batch_format="pyarrow")
    joined = bucketed_hash_join(tf_ds, df_tbl, on="term",
                                num_buckets=num_partitions)

    def sweep(group: pd.DataFrame) -> pd.DataFrame:
        i, tm, tf, dfo, rnk, sc = _topk_rows(
            group[id_col].to_numpy(), group["term"].to_numpy(),
            group["tf"].to_numpy(np.int64),
            group["df"].to_numpy(np.int64), n_docs, k)
        return pd.DataFrame({id_col: i, "term": tm, "tf": tf,
                             "df": dfo, "rnk": rnk, "score": sc})

    return keyed_sweep(joined, id_col, sweep, num_partitions)


def repetition_scores(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Repetition quality signals (the Gopher/RefinedWeb-style rules):
    per document, over its newline-split non-empty lines —
    ``n_lines``, ``n_distinct_lines``, and ``dup_line_chars`` (total
    characters sitting in lines that occur more than once; the mass a
    dedup-by-line would remove). All integers — hash-stable — and the
    whole pass is one vectorized batch kernel: Arrow split, offsets ->
    doc ids, one lexsort over (doc, line) for the distinct/duplicate
    segmentation. High dup ratios flag boilerplate/spam for the
    curation gate."""

    def fn(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch[text_col], "\n")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        off = np.asarray(toks.offsets, dtype=np.int64)
        D = len(batch)
        doc_of = np.repeat(np.arange(D, dtype=np.int64), np.diff(off))
        keep = np.asarray(pc.greater(pc.utf8_length(flat), 0))
        doc_of = doc_of[keep]
        lines = np.asarray(flat)[keep]
        lens = np.asarray(pc.utf8_length(flat))[keep].astype(np.int64)

        n_lines = np.bincount(doc_of, minlength=D).astype(np.int64)
        order = np.lexsort((lines, doc_of))
        d_s, l_s, len_s = doc_of[order], lines[order], lens[order]
        n = len(d_s)
        newgrp = np.empty(n, dtype=bool)
        if n:
            newgrp[0] = True
            newgrp[1:] = (d_s[1:] != d_s[:-1]) | (l_s[1:] != l_s[:-1])
        starts = np.flatnonzero(newgrp)
        counts = np.diff(np.append(starts, n))
        n_distinct = np.bincount(d_s[starts], minlength=D) \
            .astype(np.int64)
        dup = counts > 1
        dup_chars = np.zeros(D, dtype=np.int64)
        if dup.any():
            np.add.at(dup_chars, d_s[starts[dup]],
                      counts[dup] * len_s[starts[dup]])
        return pa.table({
            id_col: batch[id_col],
            "n_lines": pa.array(n_lines),
            "n_distinct_lines": pa.array(n_distinct),
            "dup_line_chars": pa.array(dup_chars),
        })

    return ds.select_columns([id_col, text_col]).map_batches(
        fn, batch_format="pyarrow")


def unigram_logprob(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Corpus-unigram language-model scoring: pass 1 builds the corpus
    word-count table (per-batch distinct combiner -> one small
    groupby), pass 2 broadcasts the (sorted vocab, counts) arrays and
    scores each document's mean log2 add-one probability — the classic
    cheap "does this look like the corpus?" gibberish filter
    (low mean logprob = OOV-heavy / random strings). Output:
    (id_col, n_tokens, mean_log2_prob float64).

    Rows-only by nature: log2 is a libm call whose last ulp is not
    cross-engine stable (repo oracle rule) — the pytest oracle
    recomputes the identical formula in numpy. The vocab broadcast is
    size-gated like tfidf's (raise when the corpus vocabulary fails
    stages.joins.fits_broadcast; route through a bucketed join at that
    scale)."""
    import ray
    from ray.data.aggregate import Sum

    src = ds.select_columns([id_col, text_col])

    def count_fn(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_trim_whitespace(pc.utf8_lower(batch[text_col])),
            r"\s+")
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        keep = np.asarray(pc.greater(pc.utf8_length(flat), 0))
        words, counts = np.unique(np.asarray(flat)[keep],
                                  return_counts=True)
        return pa.table({"word": pa.array(words.tolist(), pa.string()),
                         "n": pa.array(counts.astype(np.int64))})

    vocab = (src.map_batches(count_fn, batch_format="pyarrow")
             .groupby("word").aggregate(Sum("n", alias_name="n"))
             .materialize())
    if not fits_broadcast(vocab):
        raise ValueError(
            f"vocabulary {vocab.count()} exceeds the broadcast budget; "
            "use a bucketed-join scorer")
    vdf = vocab.to_pandas()
    order = np.argsort(vdf["word"].to_numpy(), kind="stable")
    words_s = vdf["word"].to_numpy()[order]
    counts_s = vdf["n"].to_numpy(np.int64)[order]
    N = int(counts_s.sum())
    ref = ray.put((words_s, counts_s))

    def score(batch: pa.Table) -> pa.Table:
        ws, cs = ray.get(ref)
        toks = pc.split_pattern_regex(
            pc.utf8_trim_whitespace(pc.utf8_lower(batch[text_col])),
            r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        off = np.asarray(toks.offsets, dtype=np.int64)
        D = len(batch)
        doc_of = np.repeat(np.arange(D, dtype=np.int64), np.diff(off))
        keep = np.asarray(pc.greater(pc.utf8_length(flat), 0))
        doc_of = doc_of[keep]
        w = np.asarray(flat)[keep]
        pos = np.searchsorted(ws, w)
        pos_c = np.clip(pos, 0, max(len(ws) - 1, 0))
        c = np.where((len(ws) > 0) & (ws[pos_c] == w), cs[pos_c], 0)
        lp = np.log2((c + 1.0) / (N + len(ws) + 1.0))
        n_tok = np.bincount(doc_of, minlength=D).astype(np.int64)
        tot = np.bincount(doc_of, weights=lp, minlength=D)
        mean = np.where(n_tok > 0, tot / np.maximum(n_tok, 1), 0.0)
        return pa.table({id_col: batch[id_col],
                         "n_tokens": pa.array(n_tok),
                         "mean_log2_prob": pa.array(mean)})

    return src.map_batches(score, batch_format="pyarrow")


def regex_redact(ds, pattern: str, replacement: str = "[REDACTED]",
                 id_col: str = "doc_id", text_col: str = "text"):
    """PII / denylist scrubbing: replace every regex match in
    ``text_col`` and count the matches per row, fully vectorized
    (pyarrow's RE2 kernels — the same regex dialect DuckDB uses, so a
    SQL oracle can mirror the rewrite string-for-string). Stateless
    map_batches: no shuffle, streams at read speed. Typical patterns:
    email/phone-shaped PII, project denylist terms.

    Output: (id_col, n_matches int64, redacted string)."""

    def fn(batch: pa.Table) -> pa.Table:
        txt = batch[text_col]
        return pa.table({
            id_col: batch[id_col],
            "n_matches": pc.cast(
                pc.count_substring_regex(txt, pattern), pa.int64()),
            "redacted": pc.replace_substring_regex(
                txt, pattern, replacement),
        })

    return ds.select_columns([id_col, text_col]).map_batches(
        fn, batch_format="pyarrow")


def build_inverted_index(ds, id_col: str = "doc_id",
                         text_col: str = "text",
                         sort_by_term: bool = False):
    """Postings-table inverted index: one row per (term, doc, tf).

    A document is one input row, so per-doc term frequencies complete
    inside a single batch — the build is SHUFFLE-FREE (the tfidf
    ``tf_fn`` argument); posting rows stream straight out of the
    tokenize kernel. ``sort_by_term=True`` adds the one legitimate
    all-to-all: a native range-partitioned sort on (term, id) so each
    output block holds whole contiguous posting lists (the serving
    layout a search tier would write to parquet).

    Tokenizer = the word_frequency convention (lower + trim + \\s+
    split, empties dropped), shared with tfidf/bigrams so SQL mirrors
    stay interchangeable.
    """
    def fn(batch: pa.Table) -> pa.Table:
        d, t, tf, _ = _tf_cells(batch, id_col, text_col)
        ids = np.asarray(batch[id_col], dtype=np.int64)[d]
        return pa.table({
            "term": pa.array(t.tolist(), pa.string()),
            id_col: pa.array(ids),
            "tf": pa.array(tf)})

    out = ds.map_batches(fn, batch_format="pyarrow")
    if sort_by_term:
        out = out.sort(["term", id_col])
    return out


def boolean_and_search(index_ds, terms, id_col: str = "doc_id",
                       k: int = 20):
    """AND-semantics keyword search over a postings dataset: documents
    containing EVERY query term, ranked by total tf (desc, id asc).

    The query-term set is tiny and rides inside the closure (a
    broadcast constant); posting rows stream through one vectorized
    ``is_in`` filter, then a grouped (rows-matched, sum tf) aggregate —
    per-batch pre-combining is free because (term, doc) rows are unique
    by construction, so rows-per-doc counts matched terms exactly.
    Nothing is ever materialized except the top-k."""
    from ray.data.aggregate import Count, Sum

    tset = pa.array(sorted(set(terms)), pa.string())
    nt = len(tset)

    def fil(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_in(batch["term"], value_set=tset))

    def hav(batch: pa.Table) -> pa.Table:
        m = pc.equal(batch["n_terms"].cast(pa.int64()),
                     pa.scalar(nt, pa.int64()))
        t = batch.filter(m)
        return pa.table({
            id_col: t[id_col].cast(pa.int64()),
            "sum_tf": t["sum_tf"].cast(pa.int64())})

    return (index_ds.map_batches(fil, batch_format="pyarrow")
            .groupby(id_col)
            .aggregate(Count(alias_name="n_terms"),
                       Sum("tf", alias_name="sum_tf"))
            .map_batches(hav, batch_format="pyarrow")
            .sort(["sum_tf", id_col], descending=[True, False])
            .limit(k))


def _seq_bpe_merges(words, counts, syms, num_merges):
    """Driver-local merge rounds on the (already distributed-built)
    word-type table — the size-gated finisher (identical rule:
    argmax count, ties -> lexicographically smallest pair)."""
    merges = []
    for _ in range(num_merges):
        pairs: dict = {}
        for sm, c in zip(syms, counts):
            for i in range(len(sm) - 1):
                k = (sm[i], sm[i + 1])
                pairs[k] = pairs.get(k, 0) + c
        if not pairs:
            break
        (l, r), c = min(pairs.items(),
                        key=lambda kv: (-kv[1], kv[0]))
        merges.append((l, r, int(c)))
        for j, sm in enumerate(syms):
            out, i = [], 0
            while i < len(sm):
                if (i + 1 < len(sm) and sm[i] == l
                        and sm[i + 1] == r):
                    out.append(l + r)
                    i += 2
                else:
                    out.append(sm[i])
                    i += 1
            syms[j] = out
    return merges, syms


def learn_bpe_merges(ds, text_col: str = "text", num_merges: int = 20):
    """Distributed BPE tokenizer training (the Sennrich et al. merge
    loop): learn ``num_merges`` merge rules over the corpus.

    Scale plan: the corpus collapses ONCE into the word-type table
    (word -> count; a grouped aggregate — the only pass that touches
    raw text), and every merge round then runs over that vocabulary
    table, which stays distributed: per-batch adjacent-symbol-pair
    partials weighted by type count -> one small groupby -> a
    deterministic global argmax (count desc, pair asc) -> a streaming
    rewrite of the symbol sequences. Rounds move O(distinct pairs)
    rows, never corpus rows. Words carry a '</w>' terminal symbol
    (standard BPE word-boundary convention).

    Returns (merges, vocab_ds): merges = list of (left, right, count)
    in learned order; vocab_ds = the symbolized word-type Dataset
    after all merges (word, symbols list<string>, n)."""
    from ray.data.aggregate import Sum

    def word_counts(batch: pa.Table):
        toks = pc.split_pattern_regex(
            pc.utf8_trim_whitespace(pc.utf8_lower(batch[text_col])),
            r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        keep = np.asarray(pc.greater(pc.utf8_length(flat), 0))
        w = np.asarray(flat)[keep]
        u, c = np.unique(w, return_counts=True)
        return pa.table({"word": pa.array(u.tolist(), pa.string()),
                         "n": pa.array(c.astype(np.int64))})

    vocab = (ds.map_batches(word_counts, batch_format="pyarrow")
             .groupby("word").aggregate(Sum("n", alias_name="n")))

    def symbolize(batch: pa.Table) -> pa.Table:
        words = np.asarray(batch["word"])
        syms = [list(w) + ["</w>"] for w in words]
        return pa.table({
            "word": batch["word"],
            "symbols": pa.array(syms, pa.list_(pa.string())),
            "n": batch["n"].cast(pa.int64())})

    cur = vocab.map_batches(symbolize,
                            batch_format="pyarrow").materialize()

    # size gate (the k_truss discipline): each distributed merge round
    # costs two small Ray jobs of fixed latency; once the COUNTED
    # word-type table passes the broadcast gate the rounds run
    # driver-local on the same table — identical merges (equality is
    # test-pinned).
    if fits_broadcast(cur):
        import ray.data as rd

        df = cur.to_pandas()
        words = df["word"].tolist()
        counts = df["n"].to_numpy(np.int64).tolist()
        syms = [list(x) for x in df["symbols"]]
        merges, syms = _seq_bpe_merges(words, counts, syms, num_merges)
        out = rd.from_arrow(pa.table({
            "word": pa.array(words, pa.string()),
            "symbols": pa.array(syms, pa.list_(pa.string())),
            "n": pa.array(counts, pa.int64())}))
        return merges, out

    def pair_partials(batch: pa.Table) -> pa.Table:
        syms = batch["symbols"].to_pylist()
        cnt = np.asarray(batch["n"], dtype=np.int64)
        acc: dict = {}
        for s, c in zip(syms, cnt.tolist()):
            for i in range(len(s) - 1):
                key = (s[i], s[i + 1])
                acc[key] = acc.get(key, 0) + c
        if not acc:
            return pa.table({"left": pa.array([], pa.string()),
                             "right": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        ls, rs = zip(*acc.keys())
        return pa.table({"left": pa.array(list(ls), pa.string()),
                         "right": pa.array(list(rs), pa.string()),
                         "n": pa.array(list(acc.values()), pa.int64())})

    merges = []
    for _ in range(num_merges):
        pairs = (cur.map_batches(pair_partials, batch_format="pyarrow")
                 .groupby(["left", "right"])
                 .aggregate(Sum("n", alias_name="n"))
                 .sort(["n", "left", "right"],
                       descending=[True, False, False])
                 .limit(1).to_pandas())
        if pairs.empty or int(pairs["n"].iloc[0]) < 1:
            break
        left, right = str(pairs["left"].iloc[0]), \
            str(pairs["right"].iloc[0])
        merges.append((left, right, int(pairs["n"].iloc[0])))

        def apply_merge(batch: pa.Table, left=left, right=right):
            syms = batch["symbols"].to_pylist()
            out = []
            for s in syms:
                r, i = [], 0
                while i < len(s):
                    if (i + 1 < len(s) and s[i] == left
                            and s[i + 1] == right):
                        r.append(left + right)
                        i += 2
                    else:
                        r.append(s[i])
                        i += 1
                out.append(r)
            return pa.table({
                "word": batch["word"],
                "symbols": pa.array(out, pa.list_(pa.string())),
                "n": batch["n"].cast(pa.int64())})

        cur = cur.map_batches(apply_merge,
                              batch_format="pyarrow").materialize()
    return merges, cur


def compression_ratio(ds, id_col: str = "doc_id",
                      text_col: str = "text", level: int = 6):
    """Compressibility quality signal (the Gopher/FineWeb-style
    boilerplate heuristic: highly repetitive text compresses far below
    natural prose): per-document zlib bytes at a FIXED level and the
    ratio as one IEEE division of the two exact integers. The per-row
    compress call is C-backed and inherent (zlib is stream-stateful);
    the stage is a plain stateless map — no shuffle, no state."""
    import zlib

    def fn(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        raw = np.asarray([len(t.encode("utf-8")) for t in texts],
                         dtype=np.int64)
        comp = np.asarray(
            [len(zlib.compress(t.encode("utf-8"), level))
             for t in texts], dtype=np.int64)
        ratio = comp.astype(np.float64) \
            / np.maximum(raw, 1).astype(np.float64)
        return pa.table({
            id_col: batch[id_col].cast(pa.int64()),
            "n_bytes": pa.array(raw),
            "n_compressed": pa.array(comp),
            "compression_ratio": pa.array(ratio)})

    return ds.select_columns([id_col, text_col]) \
        .map_batches(fn, batch_format="pyarrow")


def bpe_encode(ds, merges, text_col: str = "text",
               id_col: str = "doc_id", concurrency: int = 2,
               batch_size: int = 512):
    """Apply learned BPE merges to every document — the genuinely
    stateful actor-pool shape (unlike the stateless ANN scorers that
    round 4 demoted to tasks): each actor builds the merge table once
    in ``__init__`` and keeps a word-type -> pieces CACHE across
    batches, so Zipf-frequent words encode exactly once per actor.
    Encoding applies the merge rules in learned order with the same
    left-to-right rewrite as training (``_seq_bpe_merges``), so a
    word's pieces equal the trained vocab table's symbols verbatim.

    Output: (id_col, pieces list<string>, n_pieces). ``concurrency``
    must leave CPUs for the feeding read tasks."""
    import ray

    mref = ray.put([(l, r) for l, r, *_ in merges])

    class Encode:
        def __init__(self):
            self.pairs = ray.get(mref)
            self.cache: dict = {}

        def _encode_word(self, w: str) -> list:
            got = self.cache.get(w)
            if got is not None:
                return got
            sym = list(w) + ["</w>"]
            for l, r in self.pairs:
                out, i = [], 0
                while i < len(sym):
                    if (i + 1 < len(sym) and sym[i] == l
                            and sym[i + 1] == r):
                        out.append(l + r)
                        i += 2
                    else:
                        out.append(sym[i])
                        i += 1
                sym = out
            self.cache[w] = sym
            return sym

        def __call__(self, batch: pa.Table) -> pa.Table:
            toks = pc.split_pattern_regex(
                pc.utf8_trim_whitespace(pc.utf8_lower(batch[text_col])),
                r"\s+")
            if isinstance(toks, pa.ChunkedArray):
                toks = toks.combine_chunks()
            words = toks.to_pylist()
            pieces, counts = [], []
            for ws in words:
                ps: list = []
                for w in ws:
                    if w:
                        ps.extend(self._encode_word(w))
                pieces.append(ps)
                counts.append(len(ps))
            return pa.table({
                id_col: batch[id_col],
                "pieces": pa.array(pieces, pa.list_(pa.string())),
                "n_pieces": pa.array(np.asarray(counts, np.int64))})

    return ds.select_columns([id_col, text_col]).map_batches(
        Encode, batch_format="pyarrow", concurrency=concurrency,
        batch_size=batch_size)


GOPHER_STOPWORDS = ("a", "and", "in", "of", "the", "to")


def gopher_rules(ds, id_col: str = "doc_id", text_col: str = "text",
                 min_words: int = 20, max_words: int = 80,
                 mean_len_num: tuple[int, int] = (21, 24),
                 ttr_half: bool = True, min_stopwords: int = 2):
    """Gopher-style rule-based quality filter (Rae et al. 2021 §A1.1
    shape, thresholds re-fit to this corpus): per-document EXACT-integer
    signals and one boolean per rule, all computed in a single
    shuffle-free vectorized pass —

    - R1 word count in [min_words, max_words]
    - R2 mean word length in [4.2, 4.8], tested as the integer
      cross-multiplication 21*n_words <= 5*total_word_len <= 24*n_words
      (no float division anywhere, so the oracle hash can't drift)
    - R3 type-token ratio >= 0.5: 2*n_distinct >= n_words
    - R4 at least ``min_stopwords`` occurrences of the 6-word stopword
      probe set (the classic "symbol soup" rejector)

    Words = whitespace split, empty tokens dropped (bit-compatible with
    DuckDB ``list_filter(regexp_split_to_array(t,'\\s+'), x -> x<>'')``
    — the same pinned equivalence paragraph_dedup relies on). Output:
    (id, n_words, total_word_len, n_distinct, n_stopwords,
    pass_word_count, pass_mean_len, pass_ttr, pass_stopwords, keep).
    No shuffle: a pure per-batch transform; callers aggregate the
    booleans for the observability report."""
    lo_num, hi_num = mean_len_num
    stop_set = pa.array(GOPHER_STOPWORDS, pa.string())

    def fn(batch: pa.Table) -> pa.Table:
        D = len(batch)
        toks = pc.utf8_split_whitespace(batch[text_col])
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.values
        off = np.asarray(toks.offsets, dtype=np.int64)
        doc_of = np.repeat(np.arange(D, dtype=np.int64), np.diff(off))
        wlen = np.asarray(pc.utf8_length(flat), dtype=np.int64)
        ne = wlen > 0                       # drop empty split artifacts
        doc_of, wlen = doc_of[ne], wlen[ne]
        flat = flat.filter(pa.array(ne))
        nw = np.bincount(doc_of, minlength=D).astype(np.int64)
        twl = np.bincount(doc_of, weights=wlen,
                          minlength=D).astype(np.int64)
        stops = np.asarray(pc.is_in(pc.utf8_lower(flat),
                                    value_set=stop_set))
        nstop = np.bincount(doc_of[stops], minlength=D).astype(np.int64)
        # per-doc distinct words: factorize once, count unique
        # (doc, code) pairs — no Python loop, batch-local
        codes, uniq = pd.factorize(flat.to_pandas())
        ncodes = max(1, len(uniq))
        pair = doc_of * np.int64(ncodes) + codes
        updoc = np.unique(pair) // np.int64(ncodes)
        nd = np.bincount(updoc, minlength=D).astype(np.int64)
        r1 = (nw >= min_words) & (nw <= max_words)
        r2 = (lo_num * nw <= 5 * twl) & (5 * twl <= hi_num * nw)
        r3 = (2 * nd >= nw) if ttr_half else np.ones(D, bool)
        r4 = nstop >= min_stopwords
        return pa.table({
            id_col: batch[id_col].cast(pa.int64()),
            "n_words": pa.array(nw),
            "total_word_len": pa.array(twl),
            "n_distinct": pa.array(nd),
            "n_stopwords": pa.array(nstop),
            "pass_word_count": pa.array(r1),
            "pass_mean_len": pa.array(r2),
            "pass_ttr": pa.array(r3),
            "pass_stopwords": pa.array(r4),
            "keep": pa.array(r1 & r2 & r3 & r4)})

    return ds.select_columns([id_col, text_col]).map_batches(
        fn, batch_format="pyarrow")


def _block_word_kgrams(batch: pa.Table, id_col: str, text_col: str,
                       kk: int):
    """Vectorized word-k-gram windows for one block: whitespace-split
    straight off the Arrow buffer, empty tokens dropped (the
    utf8_split_whitespace == regexp_split_to_array('\\s+') pinned
    equivalence), window gram strings via kk shifted takes + one
    binary_join. Returns (gram Array, doc np.int64 per gram,
    ids np.int64 per input row, w np.int64 windows per input row) —
    shared by boilerplate_ngrams and dup_gram_fraction."""
    import pyarrow.compute as pc

    ids = np.asarray(batch[id_col], dtype=np.int64)
    split = pc.utf8_split_whitespace(
        pc.utf8_trim_whitespace(pc.cast(batch[text_col],
                                        pa.string())))
    counts = np.asarray(pc.list_value_length(split), dtype=np.int64)
    flat = pc.list_flatten(split)
    tl = np.asarray(pc.utf8_length(flat), dtype=np.int64)
    keep = tl > 0
    if not keep.all():
        flat = flat.filter(pa.array(keep))
        starts0 = np.cumsum(counts) - counts
        empty_doc = (counts == 1) & ~keep[np.minimum(
            starts0, max(keep.size - 1, 0))]
        counts = counts - empty_doc.astype(np.int64)
    w = np.maximum(counts - kk + 1, 0)
    starts = np.cumsum(counts) - counts
    widx = (np.repeat(starts, w)
            + (np.arange(int(w.sum()), dtype=np.int64)
               - np.repeat(np.cumsum(w) - w, w)))
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    shifted = [flat.take(pa.array(widx + i)) for i in range(kk)]
    gram = pc.binary_join_element_wise(*shifted, " ")
    doc = np.repeat(ids, w)
    return gram, doc, ids, w


def boilerplate_ngrams(ds, id_col: str = "doc_id",
                       text_col: str = "text", k: int = 5,
                       min_docs: int = 2, num_parts: int = 64):
    """Cross-document repeated word-k-gram detection — the CCNet /
    RefinedWeb boilerplate signal (navigation chrome, license
    blurbs, templated spans shared across pages): every k-gram
    occurring in >= min_docs DISTINCT documents, with its document
    and occurrence counts.

    One vectorized pass builds window gram strings straight from the
    Arrow token buffer (k shifted takes + one binary_join — no Python
    loop over windows), pre-combines per (gram, doc) WITHIN the block,
    and ships those combined rows through ONE coarse shuffle on
    hash(gram); partition tasks finish with segment reductions. Data
    moved is per-block distinct (gram, doc) pairs — bounded by block
    token count, and at 100x the gram strings themselves would ride as
    hashes with a decode pass for survivors only (same semi-join shape
    as the dedup verify).
    Returns Dataset (gram, n_docs, n_occ)."""
    import pyarrow.compute as pc

    from tldr_ray.hashing import keyed_sweep

    kk = int(k)

    def grams(batch: pa.Table) -> pa.Table:
        gram, doc, _, _ = _block_word_kgrams(batch, id_col, text_col,
                                             kk)
        combined = (pa.table({"gram": gram, "doc": pa.array(doc)})
                    .group_by(["gram", "doc"])
                    .aggregate([("doc", "count")]))
        return pa.table({
            "gram": combined["gram"],
            "doc": combined["doc"],
            "cnt": combined["doc_count"].cast(pa.int64())})

    def sweep(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["gram", "doc"], kind="mergesort")
        gr = g["gram"].to_numpy()
        cnt = g["cnt"].to_numpy(np.int64)
        seg = np.empty(len(g), dtype=bool)
        if len(g):
            seg[0] = True
            seg[1:] = gr[1:] != gr[:-1]
        starts = np.flatnonzero(seg)
        # (gram, doc) rows are distinct per BLOCK, not globally: a
        # doc split across blocks may repeat — collapse doc repeats
        docseg = np.empty(len(g), dtype=bool)
        if len(g):
            d = g["doc"].to_numpy()
            docseg[0] = True
            docseg[1:] = seg[1:] | (d[1:] != d[:-1])
        n_docs = np.add.reduceat(docseg.astype(np.int64), starts) \
            if len(g) else np.zeros(0, np.int64)
        n_occ = np.add.reduceat(cnt, starts) if len(g) \
            else np.zeros(0, np.int64)
        kept = n_docs >= min_docs
        return pd.DataFrame({
            "gram": pd.Series(gr[starts][kept], dtype=object),
            "n_docs": n_docs[kept].astype(np.int64),
            "n_occ": n_occ[kept].astype(np.int64)})

    return keyed_sweep(ds.select_columns([id_col, text_col])
                       .map_batches(grams, batch_format="pyarrow"),
                       "gram", sweep, num_parts)


def dup_gram_fraction(ds, id_col: str = "doc_id",
                      text_col: str = "text", k: int = 5,
                      min_docs: int = 2, num_parts: int = 64):
    """Per-document duplicated-n-gram FRACTION — the CCNet/RefinedWeb
    soft-dedup signal boilerplate_ngrams reports corpus-side: what
    share of a doc's word-k-gram occurrences are grams seen in
    >= min_docs DISTINCT documents. High fractions mark templated /
    mirrored pages that survive exact and near dedup.

    Two streams over one projected read each: (a) per-doc total
    window counts (docs never split across blocks, so the per-block
    count is final — zero shuffle); (b) the boilerplate gram exchange,
    whose partition sweep emits (doc, cnt) only for duplicated grams,
    then a doc-keyed grouped sum. A zero-filled tagged union merges
    both through ONE doc-keyed exchange; fraction = ONE IEEE division
    of exact ints (0.0 for docs with < k words). Data moved: per-block
    distinct (gram, doc) pairs + one int row per doc."""
    from ray.data.aggregate import Sum

    from tldr_ray.hashing import keyed_sweep

    kk = int(k)

    def totals(batch: pa.Table) -> pa.Table:
        _, _, ids, w = _block_word_kgrams(batch, id_col, text_col, kk)
        return pa.table({
            "doc": pa.array(ids),
            "total": pa.array(w.astype(np.int64)),
            "dup": pa.array(np.zeros(ids.size, np.int64))})

    def grams(batch: pa.Table) -> pa.Table:
        gram, doc, _, _ = _block_word_kgrams(batch, id_col, text_col,
                                             kk)
        combined = (pa.table({"gram": gram, "doc": pa.array(doc)})
                    .group_by(["gram", "doc"])
                    .aggregate([("doc", "count")]))
        return pa.table({
            "gram": combined["gram"],
            "doc": combined["doc"],
            "cnt": combined["doc_count"].cast(pa.int64())})

    def sweep(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["gram", "doc"], kind="mergesort")
        gr = g["gram"].to_numpy()
        d = g["doc"].to_numpy(np.int64)
        cnt = g["cnt"].to_numpy(np.int64)
        n = len(g)
        seg = np.empty(n, dtype=bool)
        if n:
            seg[0] = True
            seg[1:] = gr[1:] != gr[:-1]
        starts = np.flatnonzero(seg)
        sid = np.cumsum(seg) - 1
        docseg = np.empty(n, dtype=bool)
        if n:
            docseg[0] = True
            docseg[1:] = seg[1:] | (d[1:] != d[:-1])
        n_docs = (np.add.reduceat(docseg.astype(np.int64), starts)
                  if n else np.zeros(0, np.int64))
        dup_rows = n_docs[sid] >= min_docs if n else np.zeros(0, bool)
        # collapse (doc) repeats within the partition before the union
        if dup_rows.any():
            dd, dc = d[dup_rows], cnt[dup_rows]
            u, inv = np.unique(dd, return_inverse=True)
            s = np.bincount(inv, weights=dc).astype(np.int64)
            return pa.table({
                "doc": pa.array(u),
                "total": pa.array(np.zeros(u.size, np.int64)),
                "dup": pa.array(s)})
        return pa.table({"doc": pa.array([], pa.int64()),
                         "total": pa.array([], pa.int64()),
                         "dup": pa.array([], pa.int64())})

    proj = ds.select_columns([id_col, text_col])
    tot = proj.map_batches(totals, batch_format="pyarrow")
    dup = keyed_sweep(proj.map_batches(grams, batch_format="pyarrow"),
                      "gram", sweep, num_parts)

    agg = (tot.union(dup)
           .groupby("doc")
           .aggregate(Sum("total", alias_name="total_grams"),
                      Sum("dup", alias_name="dup_occ")))

    def seal(batch: pa.Table) -> pa.Table:
        t = np.asarray(batch["total_grams"], dtype=np.int64)
        du = np.asarray(batch["dup_occ"], dtype=np.int64)
        frac = np.where(t > 0, du.astype(np.float64)
                        / np.maximum(t, 1).astype(np.float64), 0.0)
        return pa.table({
            id_col: batch["doc"].cast(pa.int64()),
            "total_grams": pa.array(t),
            "dup_occ": pa.array(du),
            "dup_fraction": pa.array(frac)})

    return agg.map_batches(seal, batch_format="pyarrow")


def _char_trigram_keys(pattern: str):
    """Distinct injective int64 keys for every char 3-gram of a
    string: key = c0<<42 | c1<<21 | c2 (codepoints < 2^21, so the
    packing is collision-FREE for all of Unicode)."""
    cps = np.frombuffer(pattern.encode("utf-32-le"), dtype=np.uint32)
    if cps.size < 3:
        return np.empty(0, np.int64)
    w = np.lib.stride_tricks.sliding_window_view(cps, 3).astype(np.int64)
    return np.unique((w[:, 0] << 42) | (w[:, 1] << 21) | w[:, 2])


def substring_search(ds, patterns, id_col: str = "doc_id",
                     text_col: str = "text"):
    """Distributed substring search (the ``LIKE '%pat%'`` scale path)
    via a char-trigram index: one streaming pass extracts each doc's
    3-gram keys PRUNED to the query grams at the map (the posting
    build never materializes the full vocabulary — persist the
    un-pruned (key, id) table instead if you want a reusable index),
    a (pattern, doc) grouped count keeps docs holding ALL of a
    pattern's grams (no false negatives: a doc containing the pattern
    contains every one of its trigrams), and the candidate set —
    typically orders of magnitude smaller than the corpus — flows
    through the counted auto_join gate back to the texts for an exact
    vectorized ``match_substring`` verify. Matching is
    case-insensitive (both sides lowered). Patterns shorter than 3
    chars skip the index and verify against every doc (documented
    fallback — still one vectorized scan). Output: (pattern, doc_id),
    exact."""
    from ray.data.aggregate import Count

    from tldr_ray.stages.joins import auto_join

    pats = sorted(set(p.lower() for p in patterns))
    gram_rows = []          # (key, pattern_id) postings of the query
    short_ids = []          # patterns too short for the index
    for pid, p in enumerate(pats):
        ks = _char_trigram_keys(p)
        if ks.size == 0:
            short_ids.append(pid)
        for k in ks.tolist():
            gram_rows.append((k, pid))
    qkeys = np.array(sorted(k for k, _ in gram_rows), dtype=np.int64)
    need = np.zeros(len(pats), np.int64)    # grams required per pattern
    for _, pid in gram_rows:
        need[pid] += 1
    # key -> list of pattern ids (a gram may serve several patterns)
    by_key = {}
    for k, pid in gram_rows:
        by_key.setdefault(k, []).append(pid)
    uq = np.array(sorted(by_key), dtype=np.int64)
    pid_offsets = np.cumsum([0] + [len(by_key[k]) for k in uq.tolist()])
    pid_flat = np.array([p for k in uq.tolist() for p in by_key[k]],
                        dtype=np.int64)

    def grams(batch: pa.Table) -> pa.Table:
        texts = pc.utf8_lower(batch[text_col]).to_pylist()
        ids = np.asarray(batch[id_col], dtype=np.int64)
        empty = pa.table({id_col: pa.array([], pa.int64()),
                          "pid": pa.array([], pa.int64())})
        if not texts or uq.size == 0:
            return empty
        joined = "\x00".join(texts)
        buf = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32)
        if buf.size < 3:
            return empty
        w = np.lib.stride_tricks.sliding_window_view(buf, 3)
        ok = ~(w == 0).any(axis=1)
        doc_of = np.cumsum(buf == 0)[:w.shape[0]][ok]
        wi = w[ok].astype(np.int64)
        key = (wi[:, 0] << 42) | (wi[:, 1] << 21) | wi[:, 2]
        pos = np.searchsorted(uq, key)
        pos[pos >= uq.size] = 0
        hit = uq[pos] == key
        if not hit.any():
            return empty
        doc_of, pos = doc_of[hit], pos[hit]
        # distinct (doc, query-gram) pairs -> expand to pattern ids
        pair = doc_of * np.int64(uq.size) + pos
        upair = np.unique(pair)
        d, g = upair // uq.size, upair % uq.size
        reps = (pid_offsets[g + 1] - pid_offsets[g])
        rows_d = np.repeat(d, reps)
        idx = np.concatenate([np.arange(pid_offsets[i], pid_offsets[i + 1])
                              for i in g.tolist()]) if g.size else \
            np.empty(0, np.int64)
        return pa.table({id_col: pa.array(ids[rows_d]),
                         "pid": pa.array(pid_flat[idx])})

    def full(batch: pa.Table) -> pa.Table:
        n = np.asarray(batch["n_grams"], dtype=np.int64)
        pid = np.asarray(batch["pid"], dtype=np.int64)
        keep = n == need[pid]
        return pa.table({id_col: batch[id_col].cast(pa.int64())
                         .filter(pa.array(keep)),
                         "pid": batch["pid"].cast(pa.int64())
                         .filter(pa.array(keep))})

    def verify(batch: pa.Table) -> pa.Table:
        low = pc.utf8_lower(batch[text_col])
        pid = np.asarray(batch["pid"], dtype=np.int64)
        keep = np.zeros(len(batch), bool)
        for i, p in enumerate(pats):
            m = pid == i
            if m.any():
                keep[m] = np.asarray(
                    pc.match_substring(low, p))[m]
        t = batch.filter(pa.array(keep))
        return pa.table({
            "pattern": pa.array([pats[i] for i in
                                 np.asarray(t["pid"], np.int64).tolist()],
                                pa.string()),
            id_col: t[id_col].cast(pa.int64())})

    out = None
    if uq.size:     # at least one indexable (>= 3-char) pattern
        cands = (ds.map_batches(grams, batch_format="pyarrow")
                 .groupby([id_col, "pid"])
                 .aggregate(Count(alias_name="n_grams"))
                 .map_batches(full, batch_format="pyarrow"))
        probe = auto_join(
            ds.map_batches(lambda t: pa.table(
                {id_col: t[id_col].cast(pa.int64()),
                 text_col: t[text_col]}),
                batch_format="pyarrow"),
            cands, on=id_col,
            # cands may be 0-row (no doc shares a trigram with any
            # pattern) — an empty groupby output loses its schema, so
            # hand auto_join the sealed candidate layout explicitly.
            right_schema=pa.schema([(id_col, pa.int64()),
                                    ("pid", pa.int64())]))
        out = probe.map_batches(verify, batch_format="pyarrow")
    for pid in short_ids:       # sub-trigram patterns: direct scan
        p = pats[pid]

        def scan(batch: pa.Table, _p=p) -> pa.Table:
            m = pc.match_substring(pc.utf8_lower(batch[text_col]), _p)
            t = batch.filter(m)
            return pa.table({
                "pattern": pa.array([_p] * len(t), pa.string()),
                id_col: t[id_col].cast(pa.int64())})

        scanned = ds.map_batches(scan, batch_format="pyarrow")
        out = scanned if out is None else out.union(scanned)
    if out is None:     # no indexable patterns AND no short ones
        import ray.data as rd
        out = rd.from_arrow(pa.table({
            "pattern": pa.array([], pa.string()),
            id_col: pa.array([], pa.int64())}))
    return out


def feature_hash(ds, id_col: str = "doc_id", text_col: str = "text",
                 n_buckets: int = 64):
    """Hashing-trick featurizer (Weinberger 2009): every token
    occurrence maps to bucket = splitmix64(fnv1a(token)) %% n_buckets
    with sign +-1 drawn from the next hash bit, and the per-(doc,
    bucket) SIGNED counts form the sparse feature rows — fixed
    dimensionality with no vocabulary state anywhere (the whole point
    at 100 TB: no vocab broadcast, no OOV path). Zero-cancelled cells
    are dropped (sparse contract). Exact integers end to end; the
    token hashing is the repo's vectorized FNV-1a + splitmix64, which
    has a bit-for-bit DuckDB recursive-CTE mirror. Emits
    (id, bucket int64, weight int64)."""
    from ray.data.aggregate import Sum

    from tldr_ray.hashing import fnv1a_batch
    from tldr_ray.stages.dedup import _mix64

    nb = np.uint64(n_buckets)

    def featurize(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_trim_whitespace(pc.utf8_lower(batch[text_col])),
            r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        off = np.asarray(toks.offsets, dtype=np.int64)
        ids = np.asarray(batch[id_col], dtype=np.int64)
        doc_of = np.repeat(ids, np.diff(off))
        keep = np.asarray(pc.greater(pc.utf8_length(flat), 0))
        doc_of = doc_of[keep]
        if doc_of.size == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "bucket": pa.array([], pa.int64()),
                             "weight": pa.array([], pa.int64())})
        h = _mix64(fnv1a_batch(flat.filter(pa.array(keep))))
        bucket = (h % nb).astype(np.int64)
        sgn = np.where((h // nb) % np.uint64(2) == 0, 1, -1) \
            .astype(np.int64)
        # per-batch pre-combine: one row per (doc, bucket)
        key = doc_of * np.int64(n_buckets) + bucket
        uk, inv = np.unique(key, return_inverse=True)
        w = np.zeros(uk.size, np.int64)
        np.add.at(w, inv, sgn)
        return pa.table({
            id_col: pa.array(uk // n_buckets),
            "bucket": pa.array(uk % n_buckets),
            "weight": pa.array(w)})

    def seal(batch: pa.Table) -> pa.Table:
        w = batch["weight"].cast(pa.int64())
        t = pa.table({id_col: batch[id_col].cast(pa.int64()),
                      "bucket": batch["bucket"].cast(pa.int64()),
                      "weight": w})
        return t.filter(pc.not_equal(t["weight"],
                                     pa.scalar(0, pa.int64())))

    return (ds.map_batches(featurize, batch_format="pyarrow")
            .groupby([id_col, "bucket"])
            .aggregate(Sum("weight", alias_name="weight"))
            .map_batches(seal, batch_format="pyarrow"))
