"""Stateless / actor-pool Ray Data batch stages."""

from tldr_ray.stages.sentences import split_turns_batch, split_documents_batch
from tldr_ray.stages.edges import (
    similarity_edges,
    tool_cooccurrence_edges,
    transcript_graph,
)
from tldr_ray.stages.dedup import (
    exact_dedup,
    minhash_lsh_pairs,
    simhash_pairs,
    ngram_jaccard_pairs,
    embedding_cosine_pairs,
    resolve_clusters,
)
from tldr_ray.stages.ann import knn_brute, knn_lsh
from tldr_ray.stages.text_analysis import (
    language_id,
    quality_scores,
    token_counts,
    fingerprints,
)
from tldr_ray.stages.joins import bucketed_hash_join, lookup
from tldr_ray.stages.multimodal import (
    extract_media_features,
    sample_frames,
    synth_media_table,
)
from tldr_ray.stages.windows import (
    assign_tumbling,
    assign_sliding,
    session_windows,
)

__all__ = [
    "split_turns_batch", "split_documents_batch",
    "similarity_edges", "tool_cooccurrence_edges", "transcript_graph",
    "exact_dedup", "minhash_lsh_pairs", "simhash_pairs",
    "ngram_jaccard_pairs", "embedding_cosine_pairs", "resolve_clusters",
    "knn_brute", "knn_lsh",
    "language_id", "quality_scores", "token_counts", "fingerprints",
    "bucketed_hash_join", "lookup",
    "extract_media_features", "sample_frames", "synth_media_table",
    "assign_tumbling", "assign_sliding", "session_windows",
]
