"""tldr_ray — a Ray-Data-native link-graph analytics engine.

Generalizes the LexRank summarization core of the reference library
(didasy/tldr, see /root/reference/tldr.go) into distributed link-graph
analytics over Parquet conversation-transcript tables:

- a faithful per-conversation LexRank kernel (``tldr_ray.kernel``) that
  reproduces the reference's semantics bit-for-bit (golden-file parity),
- Ray Data pipelines (``tldr_ray.pipelines``) that run the kernel per
  conversation via ``groupby().map_groups`` and materialize global edge
  tables,
- a distributed iterative graph engine (``tldr_ray.graph``) running
  PageRank / connected components / label propagation / triangle counting
  over hash-partitioned CSR partitions held by Ray shard host actors
  (one per CPU), and
- large-scale training-data operators (``tldr_ray.stages``): dedup
  (exact / MinHash-LSH / SimHash / n-gram Jaccard / embedding cosine),
  ANN search, text analysis, multimodal plumbing.

Nothing here calls ``ray.init()``; callers (bench.py, tests, the driver)
own the Ray session.
"""

from tldr_ray.config import SummarizeConfig

__version__ = "0.1.0"

__all__ = ["SummarizeConfig", "__version__"]
