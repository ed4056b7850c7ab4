"""Pre-split sentences source (reference entry point 2, O28).

A ``sentences`` Parquet table (doc_id, sent_idx, text) feeds the kernel
directly, bypassing the sentence splitter — the dataset-level analog of
assigning ``Bag.OriginalSentences`` (/root/reference/tldr.go:116,
354-359; demo sentences_test.go:9-25).
"""

from __future__ import annotations

from typing import Optional

import pandas as pd

from tldr_ray.config import SummarizeConfig
from tldr_ray.hashing import keyed_sweep
from tldr_ray.kernel.lexrank import summarize_with_indices


def summarize_sentences_table(sentences, num: int = 3,
                              cfg: Optional[SummarizeConfig] = None,
                              id_col: str = "doc_id",
                              num_parts: int = 64):
    """sentences Dataset (id, sent_idx, text) -> summary per document.

    One coarse shuffle on ``hash(id) % num_parts``; each partition task
    sweeps its documents (ordered by sent_idx) and runs the kernel with
    the pre-split list — the dictionary is built from the joined
    sentences exactly as the reference does when no text is given
    (tldr.go:120-123).
    """
    cfg = cfg or SummarizeConfig()

    def per_part(group: pd.DataFrame) -> pd.DataFrame:
        ids, ranks, locs, texts = [], [], [], []
        for doc, g in group.groupby(id_col, sort=False):
            g = g.sort_values("sent_idx")
            picked = summarize_with_indices(
                "", num, cfg, presplit=g["text"].tolist())
            for r, (li, t) in enumerate(picked):
                ids.append(doc)
                ranks.append(r)
                locs.append(li)
                texts.append(t)
        return pd.DataFrame(
            {
                id_col: ids,
                "rank": pd.array(ranks, dtype="int32"),
                "local_idx": pd.array(locs, dtype="int32"),
                "text": texts,
            }
        )

    return keyed_sweep(sentences.select_columns([id_col, "sent_idx", "text"]),
                       id_col, per_part, num_parts)
