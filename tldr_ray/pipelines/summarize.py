"""Flagship pipeline: per-conversation LexRank summarization.

Ray-Data-first layout (SURVEY.md §3.1 redrawn for distribution):

    read_parquet(transcripts)
      -> groupby("conv_id")                      # the only shuffle
      -> map_groups(kernel)                      # whole reference path per conv
      -> summary table (conv_id, rank, local_idx, text)

A conversation is the reference's document boundary: turns sorted by
``turn_idx`` and joined with a single space reproduce the reference
input contract ("per-turn text equality under stable turn ordering" —
BASELINE.json input_hint). Conversations are small (human-scale
transcripts), so the dense O(n^2) kernel runs comfortably inside one
``map_groups`` call; the global/cross-conversation graph path lives in
``tldr_ray.graph`` instead.

Scale notes (100 TB thinking):
- the groupby shuffles only (conv_id, turn_idx, text) — project before
  grouping; all heavy lifting happens after the shuffle, vectorized.
- no driver-side materialization: the result is a streaming Dataset.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd

from tldr_ray.config import SummarizeConfig
from tldr_ray.hashing import keyed_sweep
from tldr_ray.kernel.lexrank import summarize_with_indices_many
from tldr_ray.kernel.text import pseudo_sentences


def conversation_texts(turns: pd.DataFrame, sort_ids: bool = False):
    """(conv_ids, texts) of the conversations in a frame of turns
    (``conv_id``, ``turn_idx``, ``text``): each text is the
    conversation's non-empty turn texts joined with a single space in
    ``turn_idx`` order — the document-assembly contract of every
    per-conversation stage. Conversations come in order of first
    appearance, or sorted by id if ``sort_ids``; rows without a
    conv_id belong to none. One stable sort for the whole frame."""
    codes, ids = pd.factorize(turns["conv_id"], sort=sort_ids)
    order = np.lexsort((turns["turn_idx"].to_numpy(), codes))
    order = order[codes[order] >= 0]
    if not order.size:
        return [], []
    cuts = np.flatnonzero(np.diff(codes[order])) + 1
    chunks = np.split(turns["text"].to_numpy()[order], cuts)
    return list(ids), [" ".join(t for t in c if t).strip() for c in chunks]


def _summary_frame(ids: list, picks: list, id_col: str) -> pd.DataFrame:
    """(id, rank, local_idx, text) rows of each document's picks."""
    rows = [(i, r, li, t) for i, picked in zip(ids, picks)
            for r, (li, t) in enumerate(picked)]
    return pd.DataFrame(
        {
            id_col: [row[0] for row in rows],
            "rank": pd.array([row[1] for row in rows], dtype="int32"),
            "local_idx": pd.array([row[2] for row in rows], dtype="int32"),
            "text": [row[3] for row in rows],
        }
    )


def summarize_transcripts(transcripts, num: int = 3,
                          cfg: Optional[SummarizeConfig] = None,
                          presplit_words: Optional[int] = None,
                          num_parts: int = 64):
    """transcripts Dataset -> summary Dataset (conv_id, rank, local_idx,
    text); one coarse shuffle, conversations of a partition summarized
    as one batch."""
    cfg = cfg or SummarizeConfig()

    def per_part(group: pd.DataFrame) -> pd.DataFrame:
        ids, texts = conversation_texts(group)
        docs = [(t, pseudo_sentences(t, presplit_words) or None)
                for t in texts]
        return _summary_frame(ids, summarize_with_indices_many(docs, num, cfg),
                              "conv_id")

    return keyed_sweep(
        transcripts.select_columns(["conv_id", "turn_idx", "text"]),
        "conv_id", per_part, num_parts)


def assemble_documents(transcripts, num_parts: int = 64):
    """transcripts -> (conv_id, text) one row per conversation, sorted
    by conv_id within each partition (``conversation_texts``)."""

    def per_part(group: pd.DataFrame) -> pd.DataFrame:
        convs, texts = conversation_texts(group, sort_ids=True)
        return pd.DataFrame({"conv_id": convs, "text": texts})

    return keyed_sweep(
        transcripts.select_columns(["conv_id", "turn_idx", "text"]),
        "conv_id", per_part, num_parts)


def summarize_documents(documents, num: int = 3,
                        cfg: Optional[SummarizeConfig] = None,
                        id_col: str = "doc_id", text_col: str = "text",
                        batch_size: int = 256,
                        presplit_words: Optional[int] = None):
    """documents Dataset (id, text) -> summary (id, rank, local_idx, text).

    Documents are independent rows, so NO shuffle is needed at all: a
    stateless ``map_batches`` runs the kernel once per batch (one
    batched dedup, then each document) — the embarrassingly-parallel
    fast path (each batch is a few hundred docs; the kernel is
    O(n_sentences^2) per doc, still micro-scale).

    ``presplit_words``: for corpora without sentence punctuation (where
    the reference splitter's Q1 tail-drop would discard everything),
    chunk the text into pseudo-sentences of this many words and feed
    them through the reference's pre-split entry point (O28,
    /root/reference/tldr.go:116,354-359). None = strict splitter only.
    """
    cfg = cfg or SummarizeConfig()

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        ids, docs = [], []
        for i, text in zip(batch[id_col].tolist(), batch[text_col].tolist()):
            text = text or ""
            presplit = pseudo_sentences(text, presplit_words)
            if presplit == []:
                continue
            ids.append(i)
            docs.append((text, presplit))
        return _summary_frame(ids, summarize_with_indices_many(docs, num, cfg),
                              id_col)

    return (
        documents.select_columns([id_col, text_col])
        .map_batches(fn, batch_format="pandas", batch_size=batch_size)
    )
