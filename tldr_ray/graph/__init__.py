"""Distributed graph analytics over hash-partitioned CSR shards.

Exports resolve lazily (PEP 562 ``__getattr__``): importing
``tldr_ray.graph.engine`` — every ``ShardHost`` actor does — loads the
engine alone, not ``triangles`` / ``centrality`` and the pandas they
pull in.
"""

import importlib

from tldr_ray.hashing import vhash

_ENGINE = ["GraphEngine", "pagerank", "connected_components",
           "label_propagation", "k_core", "bfs_hops", "sssp_distances",
           "widest_path_widths", "temporal_reach_times",
           "betweenness_sampled", "eigenvector_centrality", "hits",
           "label_spread", "maximal_matching", "maximal_independent_set",
           "greedy_coloring"]
_HOME = {**{n: "engine" for n in _ENGINE},
         "triangle_counts": "triangles", "centrality_ranks": "centrality"}

__all__ = ["vhash", *_HOME]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"),
                   name)
