from tldr_ray.graph.partition import vhash
from tldr_ray.graph.engine import (GraphEngine, pagerank,
                                   connected_components, label_propagation,
                                   k_core, bfs_hops, sssp_distances,
                                   widest_path_widths,
                                   temporal_reach_times,
                                   betweenness_sampled,
                                   eigenvector_centrality, hits,
                                   label_spread, maximal_matching,
                                   maximal_independent_set,
                                   greedy_coloring)
from tldr_ray.graph.triangles import triangle_counts
from tldr_ray.graph.centrality import centrality_ranks

__all__ = [
    "centrality_ranks",
    "vhash",
    "GraphEngine",
    "pagerank",
    "connected_components",
    "label_propagation",
    "k_core",
    "bfs_hops",
    "betweenness_sampled",
    "sssp_distances",
    "widest_path_widths",
    "temporal_reach_times",
    "eigenvector_centrality",
    "hits",
    "label_spread",
    "maximal_matching",
    "maximal_independent_set",
    "greedy_coloring",
    "triangle_counts",
]
