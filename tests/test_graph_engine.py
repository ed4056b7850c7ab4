"""Distributed graph engine vs NumPy oracles (FIXTURES.md F5)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from tldr_ray.config import SummarizeConfig
from tldr_ray.kernel import pagerank_ref, summarize_to_edges, pagerank_rank


def edge_ds(edges):
    import ray.data as rd
    import pyarrow as pa

    src = [e[0] for e in edges]
    dst = [e[1] for e in edges]
    w = [float(e[2]) if len(e) > 2 else 1.0 for e in edges]
    return rd.from_arrow(pa.table({"src": pa.array(src, pa.int64()),
                                   "dst": pa.array(dst, pa.int64()),
                                   "weight": pa.array(w, pa.float64())}))


TWO_TRIANGLES_BRIDGE = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
TWO_COMPONENTS = [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]


def symmetrized(edges):
    out = []
    for a, b in edges:
        out.append((a, b, 1.0))
        out.append((b, a, 1.0))
    return out


@pytest.mark.usefixtures("ray_session")
class TestPagerank:
    def test_matches_oracle_on_bridge_graph(self):
        from tldr_ray.graph import pagerank

        edges = symmetrized(TWO_TRIANGLES_BRIDGE)
        ids, scores, info = pagerank(edge_ds(edges), num_partitions=3)
        o_ids, o_scores = pagerank_ref(
            np.array([e[0] for e in edges]),
            np.array([e[1] for e in edges]),
            np.array([e[2] for e in edges]))
        assert info["converged"]
        assert np.array_equal(ids, o_ids)
        np.testing.assert_allclose(scores, o_scores, atol=1e-6)

    def test_matches_oracle_weighted_directed(self):
        from tldr_ray.graph import pagerank

        rng = np.random.default_rng(7)
        n = 60
        src = rng.integers(0, n, 500)
        dst = rng.integers(0, n, 500)
        w = rng.random(500) + 0.1
        edges = list(zip(src.tolist(), dst.tolist(), w.tolist()))
        ids, scores, info = pagerank(edge_ds(edges), num_partitions=4)
        o_ids, o_scores = pagerank_ref(src, dst, w)
        assert np.array_equal(ids, o_ids)
        np.testing.assert_allclose(scores, o_scores, atol=1e-6)

    def test_matches_oracle_ref_exchange(self, force_msg_refs):
        """``force_msg_refs`` sends every mass array through the
        actor-to-actor ObjectRef shipping path (the driver only relays
        refs); scores must match the oracle as the by-value exchange
        does."""
        from tldr_ray.graph import GraphEngine

        rng = np.random.default_rng(11)
        n = 2_000
        src = np.concatenate([np.arange(n), rng.integers(0, n, 2 * n)])
        dst = np.concatenate([(np.arange(n) + 1) % n,
                              rng.integers(0, n, 2 * n)])
        w = np.ones(src.size)
        edges = list(zip(src.tolist(), dst.tolist(), w.tolist()))
        with force_msg_refs():
            eng = GraphEngine.from_edges(edge_ds(edges), num_partitions=3)
        try:
            ids, scores, info = eng.pagerank()
        finally:
            eng.shutdown()
        o_ids, o_scores = pagerank_ref(src, dst, w)
        assert info["converged"]
        assert np.array_equal(ids, o_ids)
        np.testing.assert_allclose(scores, o_scores, atol=1e-6)

    def test_personalized_matches_dense_oracle(self):
        """Personalized PageRank vs a dense numpy power iteration with
        restart to the seed distribution (dangling mass also restarts
        to the seeds)."""
        from tldr_ray.graph import GraphEngine

        rng = np.random.default_rng(3)
        n = 40
        src = rng.integers(0, n, 300)
        dst = rng.integers(0, n, 300)
        w = rng.random(300) + 0.05
        seeds = np.array([2, 7, 11])
        seed_w = np.array([0.5, 0.3, 0.2])
        edges = list(zip(src.tolist(), dst.tolist(), w.tolist()))
        eng = GraphEngine.from_edges(edge_ds(edges), num_partitions=3)
        try:
            ids, scores, info = eng.pagerank(
                tolerance=1e-12, personalization=(seeds, seed_w))
        finally:
            eng.shutdown()
        assert info["converged"]
        # dense oracle over the same vertex universe
        verts = np.unique(np.concatenate([src, dst]))
        vidx = {v: i for i, v in enumerate(verts)}
        N = verts.size
        A = np.zeros((N, N))
        for s, d, ww in edges:
            A[vidx[s], vidx[d]] += ww
        out = A.sum(axis=1)
        P = np.divide(A, out[:, None], out=np.zeros_like(A),
                      where=out[:, None] > 0)
        p = np.zeros(N)
        for s, ww in zip(seeds, seed_w):
            p[vidx[s]] = ww
        p = p / p.sum()
        alpha = 0.85
        x = p.copy()
        for _ in range(10_000):
            dang = x[out == 0].sum()
            x_new = (1 - alpha) * p + alpha * (P.T @ x + dang * p)
            if np.abs(x_new - x).sum() < 1e-13:
                x = x_new
                break
            x = x_new
        assert np.array_equal(ids, verts)
        np.testing.assert_allclose(scores, x, atol=1e-8)
        # mass concentrated near the seeds
        assert scores[np.searchsorted(ids, 2)] > 1.0 / N

    def test_personalized_then_plain_resets(self):
        """A reused engine must not leak the restart vector into a later
        uniform run."""
        from tldr_ray.graph import GraphEngine

        edges = symmetrized(TWO_TRIANGLES_BRIDGE)
        eng = GraphEngine.from_edges(edge_ds(edges), num_partitions=2)
        try:
            _, plain1, _ = eng.pagerank()
            _, pers, _ = eng.pagerank(
                personalization=(np.array([0]), np.array([1.0])))
            _, plain2, _ = eng.pagerank()
        finally:
            eng.shutdown()
        assert not np.allclose(plain1, pers)
        np.testing.assert_allclose(plain1, plain2, atol=1e-12)

    def test_dangling_vertices(self):
        from tldr_ray.graph import pagerank

        # vertex 2 has no out-edges -> dangling leak path
        edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 2.0)]
        ids, scores, _ = pagerank(edge_ds(edges), num_partitions=2)
        o_ids, o_scores = pagerank_ref(np.array([0, 1, 0]), np.array([1, 2, 2]),
                                       np.array([1.0, 1.0, 2.0]))
        assert np.array_equal(ids, o_ids)
        np.testing.assert_allclose(scores, o_scores, atol=1e-6)

    def test_single_conv_lexrank_parity_and_golden_topk(self):
        """F5 single_conv_lexrank: distributed PageRank on the sample.txt
        similarity graph == per-conversation kernel, and the golden top-3."""
        from pathlib import Path
        from tldr_ray.graph import pagerank

        text = Path("/root/reference/sample.txt").read_text()
        cfg = SummarizeConfig()
        sentences, kept_idx, src, dst, w = summarize_to_edges(text, cfg)
        ids, scores, _ = pagerank(edge_ds(list(zip(src.tolist(), dst.tolist(),
                                                   w.tolist()))),
                                  num_partitions=3)
        k_ids, k_scores = pagerank_rank(src, dst, w, cfg.damping, cfg.tolerance)
        # same scores per vertex
        kernel_by_id = dict(zip(k_ids.tolist(), k_scores.tolist()))
        for v, s in zip(ids.tolist(), scores.tolist()):
            assert abs(kernel_by_id[v] - s) < 1e-6
        # same golden top-3 under (score desc, id asc)
        order = np.lexsort((ids, -scores))
        top3 = sorted(ids[order][:3].tolist())
        golden = Path("/root/reference/result.txt").read_text().strip().split("\n\n")
        picked = [sentences[kept_idx[v]] for v in top3]
        assert "\n\n".join(picked) == "\n\n".join(golden)


@pytest.mark.usefixtures("ray_session")
class TestConnectedComponents:
    def test_two_components(self):
        from tldr_ray.graph import connected_components

        ids, labels, info = connected_components(
            edge_ds([(a, b, 1.0) for a, b in TWO_COMPONENTS]), num_partitions=3)
        assert info["converged"]
        got = dict(zip(ids.tolist(), labels.tolist()))
        assert got == {0: 0, 1: 0, 2: 0, 3: 3, 4: 3, 5: 3}

    def test_bridge_graph_single_component(self):
        from tldr_ray.graph import connected_components

        ids, labels, _ = connected_components(
            edge_ds([(a, b, 1.0) for a, b in TWO_TRIANGLES_BRIDGE]),
            num_partitions=2)
        assert set(labels.tolist()) == {0}

    def test_long_path_needs_many_iterations(self):
        from tldr_ray.graph import connected_components

        n = 40
        path = [(i, i + 1, 1.0) for i in range(n - 1)]
        ids, labels, info = connected_components(edge_ds(path), num_partitions=4)
        assert set(labels.tolist()) == {0}
        assert info["converged"]


@pytest.mark.usefixtures("ray_session")
class TestLabelPropagation:
    def test_two_cliques_weak_bridge(self):
        from tldr_ray.graph import label_propagation

        clique1 = [(0, 1), (1, 2), (0, 2)]
        clique2 = [(3, 4), (4, 5), (3, 5)]
        edges = [(a, b, 10.0) for a, b in clique1 + clique2] + [(2, 3, 0.1)]
        ids, labels, info = label_propagation(edge_ds(edges), num_partitions=3)
        got = dict(zip(ids.tolist(), labels.tolist()))
        # the two dense cliques keep separate labels; the weak bridge
        # cannot flip either side
        assert len({got[0], got[1], got[2]}) == 1
        assert len({got[3], got[4], got[5]}) == 1
        assert got[0] != got[3]

    def test_deterministic(self):
        from tldr_ray.graph import label_propagation

        edges = [(a, b, 1.0) for a, b in TWO_TRIANGLES_BRIDGE]
        r1 = label_propagation(edge_ds(edges), num_partitions=2)
        r2 = label_propagation(edge_ds(edges), num_partitions=5)
        assert np.array_equal(r1[0], r2[0])
        assert np.array_equal(r1[1], r2[1])


@pytest.mark.usefixtures("ray_session")
class TestBfsHops:
    @staticmethod
    def _bfs_oracle(edges, seeds):
        from collections import deque

        adj = {}
        for a, b in edges:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        dist = {s: 0 for s in seeds}
        q = deque(seeds)
        while q:
            v = q.popleft()
            for w in adj.get(v, ()):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    q.append(w)
        return dist

    def test_matches_sequential_bfs(self):
        from tldr_ray.graph import bfs_hops

        rng = np.random.default_rng(7)
        edges = [(int(a), int(b)) for a, b in rng.integers(0, 60, (150, 2))
                 if a != b]
        ids, dist, info = bfs_hops(
            edge_ds([(a, b, 1.0) for a, b in edges]), seeds=[0, 17],
            num_partitions=3)
        assert info["converged"]
        want = self._bfs_oracle(edges, [0, 17])
        imax = np.iinfo(np.int64).max
        got = {v: (None if d == imax else d)
               for v, d in zip(ids.tolist(), dist.tolist())}
        assert got == {v: want.get(v) for v in got}
        assert set(got) == set(want) | set(got)  # every vertex reported

    def test_unreached_component_keeps_sentinel(self):
        from tldr_ray.graph import bfs_hops

        ids, dist, _ = bfs_hops(
            edge_ds([(a, b, 1.0) for a, b in TWO_COMPONENTS]), seeds=[0],
            num_partitions=2)
        got = dict(zip(ids.tolist(), dist.tolist()))
        imax = np.iinfo(np.int64).max
        assert got == {0: 0, 1: 1, 2: 2, 3: imax, 4: imax, 5: imax}

    def test_missing_seed_raises(self):
        from tldr_ray.graph import bfs_hops

        with pytest.raises(ValueError, match="no seed"):
            bfs_hops(edge_ds([(0, 1, 1.0)]), seeds=[99], num_partitions=2)


@pytest.mark.usefixtures("ray_session")
class TestSssp:
    @staticmethod
    def _bellman_ford(edges, n, seeds):
        dist = np.full(n, np.inf)
        dist[list(seeds)] = 0.0
        src = np.array([e[0] for e in edges])
        dst = np.array([e[1] for e in edges])
        w = np.array([e[2] for e in edges])
        while True:
            new = dist.copy()
            np.minimum.at(new, dst, dist[src] + w)
            if np.array_equal(new, dist):
                return dist
            dist = new

    def test_matches_sequential_bellman_ford(self):
        from tldr_ray.graph import sssp_distances

        rng = np.random.default_rng(5)
        n = 50
        edges = [(int(a), int(b), round(float(w), 2))
                 for (a, b), w in zip(rng.integers(0, n, (200, 2)),
                                      rng.uniform(0.1, 2.0, 200))
                 if a != b]
        ids, dist, info = sssp_distances(edge_ds(edges), seeds=[0, 3],
                                         num_partitions=3)
        assert info["converged"]
        want = self._bellman_ford(edges, n, [0, 3])
        got = dict(zip(ids.tolist(), dist.tolist()))
        for v, d in got.items():
            assert d == want[v], (v, d, want[v])  # bit-exact, same recurrence

    def test_weighted_beats_hop_path(self):
        """0->1->2 (0.1 + 0.1) must beat the direct 0->2 edge (1.0)."""
        from tldr_ray.graph import sssp_distances

        ids, dist, _ = sssp_distances(
            edge_ds([(0, 1, 0.1), (1, 2, 0.1), (0, 2, 1.0)]),
            seeds=[0], num_partitions=2)
        got = dict(zip(ids.tolist(), dist.tolist()))
        assert abs(got[2] - 0.2) < 1e-12


@pytest.mark.usefixtures("ray_session")
class TestWidestPath:
    @staticmethod
    def _brute_maxmin(edges, n, seeds):
        width = np.full(n, -np.inf)
        width[list(seeds)] = np.inf
        src = np.array([e[0] for e in edges])
        dst = np.array([e[1] for e in edges])
        w = np.array([e[2] for e in edges])
        while True:
            new = width.copy()
            np.maximum.at(new, dst, np.minimum(width[src], w))
            if np.array_equal(new, width):
                return width
            width = new

    def test_matches_sequential_maxmin(self):
        from tldr_ray.graph import widest_path_widths

        rng = np.random.default_rng(11)
        n = 50
        edges = [(int(a), int(b), round(float(w), 2))
                 for (a, b), w in zip(rng.integers(0, n, (200, 2)),
                                      rng.uniform(0.1, 2.0, 200))
                 if a != b]
        ids, width, info = widest_path_widths(
            edge_ds(edges), seeds=[0, 3], num_partitions=3)
        assert info["converged"]
        want = self._brute_maxmin(edges, n, [0, 3])
        got = dict(zip(ids.tolist(), width.tolist()))
        for v, d in got.items():
            assert d == want[v], (v, d, want[v])  # bit-exact: picks only

    def test_bottleneck_prefers_wide_detour(self):
        """0->1->2 (min 0.8) must beat the direct 0->2 edge (0.3)."""
        from tldr_ray.graph import widest_path_widths

        ids, width, _ = widest_path_widths(
            edge_ds([(0, 1, 0.9), (1, 2, 0.8), (0, 2, 0.3)]),
            seeds=[0], num_partitions=2)
        got = dict(zip(ids.tolist(), width.tolist()))
        assert got[2] == 0.8

    def test_round_cap_bounds_hops(self):
        """max_rounds=1 sees only 1-hop widths: vertex 2's wide
        2-hop detour is invisible, the direct narrow edge wins."""
        from tldr_ray.graph import widest_path_widths

        ids, width, info = widest_path_widths(
            edge_ds([(0, 1, 0.9), (1, 2, 0.8), (0, 2, 0.3)]),
            seeds=[0], num_partitions=2, max_rounds=1)
        got = dict(zip(ids.tolist(), width.tolist()))
        assert got[2] == 0.3
        assert not info["converged"]


@pytest.mark.usefixtures("ray_session")
class TestTemporalReachability:
    @staticmethod
    def _brute(edges, n, seeds):
        arr = np.full(n, np.inf)
        arr[list(seeds)] = 0.0
        src = np.array([e[0] for e in edges])
        dst = np.array([e[1] for e in edges])
        tau = np.array([e[2] for e in edges], dtype=np.float64)
        while True:
            new = arr.copy()
            cand = np.where(tau >= arr[src], tau, np.inf)
            np.minimum.at(new, dst, cand)
            if np.array_equal(new, arr):
                return arr
            arr = new

    def test_matches_sequential_relaxation(self):
        from tldr_ray.graph import temporal_reach_times

        rng = np.random.default_rng(23)
        n = 40
        edges = [(int(a), int(b), float(t))
                 for (a, b), t in zip(rng.integers(0, n, (200, 2)),
                                      rng.integers(0, 50, 200))
                 if a != b]
        ids, arr, info = temporal_reach_times(
            edge_ds(edges), seeds=[0], num_partitions=3)
        assert info["converged"]
        want = self._brute(edges, n, [0])
        got = dict(zip(ids.tolist(), arr.tolist()))
        for v, d in got.items():
            assert d == want[v], (v, d, want[v])

    def test_expired_edge_blocks_path(self):
        """0 -(t=5)-> 1 -(t=3)-> 2: the second edge departs BEFORE
        vertex 1 is reached, so 2 is unreachable; with t=7 it isn't."""
        from tldr_ray.graph import temporal_reach_times

        ids, arr, _ = temporal_reach_times(
            edge_ds([(0, 1, 5.0), (1, 2, 3.0)]), seeds=[0],
            num_partitions=2)
        got = dict(zip(ids.tolist(), arr.tolist()))
        assert got[1] == 5.0 and got[2] == np.inf

        ids, arr, _ = temporal_reach_times(
            edge_ds([(0, 1, 5.0), (1, 2, 7.0)]), seeds=[0],
            num_partitions=2)
        got = dict(zip(ids.tolist(), arr.tolist()))
        assert got[2] == 7.0

    def test_waiting_is_allowed(self):
        """Arrive at 1 at t=2; a later edge (t=9) out of 1 is usable
        (you wait at the vertex)."""
        from tldr_ray.graph import temporal_reach_times

        ids, arr, _ = temporal_reach_times(
            edge_ds([(0, 1, 2.0), (1, 2, 9.0)]), seeds=[0],
            num_partitions=2)
        got = dict(zip(ids.tolist(), arr.tolist()))
        assert got[2] == 9.0


@pytest.mark.usefixtures("ray_session")
class TestDensestSubgraphPeel:
    def test_planted_clique_wins(self):
        """K6 (density 2.5) + a long path tail (density ~0.5): the
        factor-3 peel must strip the path and pick the clique round."""
        from tldr_ray.graph.densest import densest_subgraph_peel

        clique = [(a, b) for a in range(6) for b in range(a + 1, 6)]
        path = [(i, i + 1) for i in range(5, 30)]  # attached at 5
        trace = densest_subgraph_peel(edge_ds(clique + path))
        assert trace[0]["n_edges"] == len(clique) + len(path)
        best = next(t for t in trace if t["is_best"])
        # the best round's density beats the full graph's, and meets
        # the factor-3 guarantee vs the clique (densest subgraph here)
        dens = best["n_edges"] / best["n_vertices"]
        assert dens > trace[0]["n_edges"] / trace[0]["n_vertices"]
        assert dens >= 2.5 / 3
        # counts shrink strictly and every round is non-empty
        for a, b in zip(trace, trace[1:]):
            assert b["n_vertices"] < a["n_vertices"]
            assert b["n_edges"] < a["n_edges"]
            assert b["n_edges"] > 0

    def test_regular_graph_single_round(self):
        """A cycle is 2-regular: every vertex fails deg*V > 3*E in
        round 0, so the trace is exactly one row and it is best."""
        from tldr_ray.graph.densest import densest_subgraph_peel

        cyc = [(i, (i + 1) % 12) for i in range(12)]
        trace = densest_subgraph_peel(edge_ds(cyc))
        assert len(trace) == 1
        assert trace[0] == {"round": 0, "n_vertices": 12,
                            "n_edges": 12, "is_best": 1}

    def test_empty_graph(self):
        from tldr_ray.graph.densest import densest_subgraph_peel

        assert densest_subgraph_peel(edge_ds([(7, 7)])) == []


@pytest.mark.usefixtures("ray_session")
class TestKCore:
    @staticmethod
    def _peel_oracle(edges):
        """Exact core numbers by sequential min-degree peeling."""
        adj: dict[int, set[int]] = {}
        for a, b in edges:
            if a == b:
                continue
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        deg = {v: len(ns) for v, ns in adj.items()}
        alive = set(adj)
        core: dict[int, int] = {}
        k = 0
        while alive:
            v = min(alive, key=lambda x: deg[x])
            k = max(k, deg[v])
            core[v] = k
            for u in adj[v]:
                if u in alive and u != v:
                    deg[u] -= 1
            alive.remove(v)
        return core

    def test_matches_peeling_oracle(self):
        from tldr_ray.graph import k_core

        rng = np.random.default_rng(9)
        n = 60
        und = {(int(a), int(b)) for a, b in
               zip(rng.integers(0, n, 260), rng.integers(0, n, 260))
               if a != b}
        # embed a known K5 (core number 4)
        k5 = [(100, 101), (100, 102), (100, 103), (100, 104), (101, 102),
              (101, 103), (101, 104), (102, 103), (102, 104), (103, 104)]
        und |= set(k5)
        edges = [(a, b, 1.0) for a, b in und]
        ids, cores, info = k_core(edge_ds(edges), num_partitions=3)
        assert info["stable"]
        got = dict(zip(ids.tolist(), cores.tolist()))
        want = self._peel_oracle(list(und))
        assert got == want
        for v in (100, 101, 102, 103, 104):
            assert got[v] >= 4

    def test_duplicates_and_direction_ignored(self):
        from tldr_ray.graph import k_core

        tri = [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (1, 2, 1.0),
               (2, 0, 1.0), (0, 0, 9.0)]
        ids, cores, _ = k_core(edge_ds(tri), num_partitions=2)
        assert dict(zip(ids.tolist(), cores.tolist())) == {0: 2, 1: 2, 2: 2}


@pytest.mark.usefixtures("ray_session")
class TestTriangles:
    def test_two_triangles_bridge(self):
        from tldr_ray.graph import triangle_counts

        total, per_vertex = triangle_counts(
            edge_ds([(a, b, 1.0) for a, b in TWO_TRIANGLES_BRIDGE]))
        assert total == 2
        df = per_vertex.to_pandas().set_index("vertex")["triangles"]
        assert df.to_dict() == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1}

    def test_k4(self):
        from tldr_ray.graph import triangle_counts

        k4 = [(a, b, 1.0) for a in range(4) for b in range(a + 1, 4)]
        total, per_vertex = triangle_counts(edge_ds(k4))
        assert total == 4
        df = per_vertex.to_pandas()
        assert df["triangles"].tolist() == [3, 3, 3, 3]

    def test_triangle_free(self):
        from tldr_ray.graph import triangle_counts

        star = [(0, i, 1.0) for i in range(1, 6)]
        total, _ = triangle_counts(edge_ds(star))
        assert total == 0

    def test_join_path_matches_broadcast(self, force_shuffle):
        from tldr_ray.graph import triangle_counts

        edges = [(a, b, 1.0) for a, b in TWO_TRIANGLES_BRIDGE] \
            + [(a, b, 1.0) for a in range(4) for b in range(a + 1, 4)]
        t_bc, pv_bc = triangle_counts(edge_ds(edges))
        with force_shuffle():
            t_j, pv_j = triangle_counts(edge_ds(edges))
        assert t_bc == t_j
        a = pv_bc.to_pandas().sort_values("vertex").reset_index(drop=True)
        b = pv_j.to_pandas().sort_values("vertex").reset_index(drop=True)
        assert a.equals(b)

    def test_duplicate_and_reversed_edges_ignored(self):
        from tldr_ray.graph import triangle_counts

        tri = [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 0, 1.0), (0, 2, 5.0)]
        total, _ = triangle_counts(edge_ds(tri))
        assert total == 1


@pytest.mark.usefixtures("ray_session")
class TestStarHubSkew:
    def test_star_hub_salting_equivalence(self):
        """F5 star_hub: per-shard pre-combining must give the exact same
        result regardless of partition count (the salted two-stage sum)."""
        from tldr_ray.graph import pagerank

        star = []
        for i in range(1, 301):
            star.append((0, i, 1.0))
            star.append((i, 0, 1.0))
        r1 = pagerank(edge_ds(star), num_partitions=1)
        r8 = pagerank(edge_ds(star), num_partitions=8)
        assert np.array_equal(r1[0], r8[0])
        np.testing.assert_allclose(r1[1], r8[1], atol=1e-12)
        o_ids, o_scores = pagerank_ref(
            np.array([e[0] for e in star]),
            np.array([e[1] for e in star]),
            np.array([e[2] for e in star]))
        np.testing.assert_allclose(r8[1], o_scores, atol=1e-6)


@pytest.mark.usefixtures("ray_session")
class TestDistributedCentrality:
    def test_matches_kernel_tie_break(self):
        from tldr_ray.graph import centrality_ranks
        from tldr_ray.kernel.lexrank import centrality_rank

        rng = np.random.default_rng(9)
        src = rng.integers(0, 30, 200)
        dst = rng.integers(0, 30, 200)
        w = rng.integers(1, 20, 200).astype(float)
        out = centrality_ranks(edge_ds(list(zip(src.tolist(), dst.tolist(),
                                                w.tolist())))).to_pandas()
        want = centrality_rank(src, dst, w, exact_tie_order=False)
        assert out["vertex"].tolist() == want.tolist()


@pytest.mark.usefixtures("ray_session")
class TestWarmStart:
    def test_warm_start_same_fixpoint_fewer_iterations(self):
        """Grow the graph, seed from the old scores: the fixpoint must
        equal a cold run (allclose) and converge in fewer iterations."""
        from tldr_ray.graph.engine import GraphEngine

        # binary tree: degree-skewed, so the fixpoint is FAR from the
        # uniform cold init while one extra leaf is a small delta —
        # the regime warm starting is for (a ring would be useless
        # here: its fixpoint IS the uniform vector)
        tree = [(i, i // 2) for i in range(1, 80)]
        base = symmetrized(tree)
        grown = base + symmetrized([(80, 40)])

        eng = GraphEngine.from_edges(edge_ds(base), 3)
        try:
            ids0, sc0, _ = eng.pagerank(tolerance=1e-10)
        finally:
            eng.shutdown()

        eng = GraphEngine.from_edges(edge_ds(grown), 3)
        try:
            cold_ids, cold_sc, cold = eng.pagerank(tolerance=1e-10)
            warm_ids, warm_sc, warm = eng.pagerank(
                tolerance=1e-10, warm_start=(ids0, sc0))
        finally:
            eng.shutdown()
        assert np.array_equal(cold_ids, warm_ids)
        np.testing.assert_allclose(warm_sc, cold_sc, atol=1e-8)
        assert warm["iterations"] < cold["iterations"]
        assert np.isclose(warm_sc.sum(), 1.0, atol=1e-9)

    def test_warm_start_identical_graph_converges_immediately(self):
        from tldr_ray.graph.engine import GraphEngine

        edges = symmetrized(TWO_TRIANGLES_BRIDGE)
        eng = GraphEngine.from_edges(edge_ds(edges), 2)
        try:
            ids, sc, info = eng.pagerank(tolerance=1e-10)
            _, sc2, info2 = eng.pagerank(tolerance=1e-10,
                                         warm_start=(ids, sc))
        finally:
            eng.shutdown()
        assert info2["iterations"] <= 2
        np.testing.assert_allclose(sc2, sc, atol=1e-9)

    def test_warm_start_refuses_with_checkpoint_resume(self, tmp_path):
        from tldr_ray.graph.engine import GraphEngine

        edges = symmetrized(TWO_TRIANGLES_BRIDGE)
        ck = str(tmp_path / "ck")
        eng = GraphEngine.from_edges(edge_ds(edges), 2)
        try:
            ids, sc, _ = eng.pagerank(checkpoint_every=2,
                                      checkpoint_dir=ck)
            with pytest.raises(ValueError):
                eng.pagerank(checkpoint_dir=ck, resume=True,
                             warm_start=(ids, sc))
        finally:
            eng.shutdown()

    def test_cc_warm_start_grown_graph(self):
        """Components warm-started from a prior run on a grown graph
        match a cold run, in fewer (or equal) rounds; merging two old
        components picks the global min label."""
        from tldr_ray.graph.engine import GraphEngine

        base = symmetrized([(0, 1), (1, 2), (10, 11), (11, 12)])
        grown = base + symmetrized([(2, 10)])     # merge the two comps

        eng = GraphEngine.from_edges(edge_ds(base), 2)
        try:
            ids0, lb0, _ = eng.connected_components()
        finally:
            eng.shutdown()

        eng = GraphEngine.from_edges(edge_ds(grown), 2)
        try:
            cid, clb, cinfo = eng.connected_components()
            wid, wlb, winfo = eng.connected_components(
                warm_start=(ids0, lb0))
        finally:
            eng.shutdown()
        assert np.array_equal(cid, wid)
        assert np.array_equal(clb, wlb)           # same exact labels
        assert set(wlb) == {0}                    # merged to global min
        assert winfo["iterations"] <= cinfo["iterations"]


class TestEigenvectorCentrality:
    def test_matches_dense_principal_eigenvector(self):
        import ray.data as rd
        from tldr_ray.graph import eigenvector_centrality

        rng = np.random.default_rng(23)
        n, m = 30, 120
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n, m)
        w = rng.uniform(0.5, 2.0, m).round(3)
        keep = src != dst
        src, dst, w = src[keep], dst[keep], w[keep]
        t = pa.table({"src": pa.array(src, pa.int64()),
                      "dst": pa.array(dst, pa.int64()),
                      "weight": pa.array(w)})
        ids, scores, info = eigenvector_centrality(
            rd.from_arrow(t), num_partitions=4)
        assert info["converged"]
        A = np.zeros((n, n))
        for s, d, ww in zip(src, dst, w):
            A[s, d] += ww
            A[d, s] += ww
        present = np.unique(np.concatenate([src, dst]))
        M = (A + np.eye(n))[np.ix_(present, present)]
        evals, V = np.linalg.eigh(M)
        v = np.abs(V[:, -1])
        v = v / np.linalg.norm(v)
        got = scores[np.argsort(ids)]
        assert np.allclose(got, v, atol=1e-6)

    def test_star_center_dominates(self):
        import ray.data as rd
        from tldr_ray.graph import eigenvector_centrality

        src = [0] * 6
        dst = [1, 2, 3, 4, 5, 6]
        t = pa.table({"src": pa.array(src, pa.int64()),
                      "dst": pa.array(dst, pa.int64()),
                      "weight": pa.array([1.0] * 6)})
        ids, scores, _ = eigenvector_centrality(rd.from_arrow(t),
                                                num_partitions=2)
        center = scores[list(ids).index(0)]
        assert center == scores.max()
        leaves = scores[np.asarray(ids) != 0]
        assert np.allclose(leaves, leaves[0], atol=1e-9)


class TestHits:
    def test_matches_dense_alternating_iteration(self):
        import ray.data as rd
        from tldr_ray.graph import hits

        rng = np.random.default_rng(17)
        n, m = 25, 90
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n, m)
        w = rng.uniform(0.5, 2.0, m).round(3)
        keep = src != dst
        src, dst, w = src[keep], dst[keep], w[keep]
        t = pa.table({"src": pa.array(src, pa.int64()),
                      "dst": pa.array(dst, pa.int64()),
                      "weight": pa.array(w)})
        ids, hubs, auth, info = hits(rd.from_arrow(t), num_partitions=3)
        assert info["converged"]
        present = np.unique(np.concatenate([src, dst]))
        idx = {v: i for i, v in enumerate(present)}
        A = np.zeros((present.size, present.size))
        for s, d, ww in zip(src, dst, w):
            A[idx[s], idx[d]] += ww
        h = np.ones(present.size) / np.sqrt(present.size)
        for _ in range(1000):
            a = A.T @ h
            a /= np.linalg.norm(a)
            h2 = A @ a
            h2 /= np.linalg.norm(h2)
            if np.abs(h2 - h).sum() < 1e-13:
                h = h2
                break
            h = h2
        a = A.T @ h
        a /= np.linalg.norm(a)
        order = np.argsort(ids)
        assert np.allclose(hubs[order], h, atol=1e-6)
        assert np.allclose(auth[order], a, atol=1e-6)

    def test_pure_hub_and_authority(self):
        import ray.data as rd
        from tldr_ray.graph import hits

        # 0 points at 1..4 (pure hub); 1..4 point at nothing else
        src = [0, 0, 0, 0]
        dst = [1, 2, 3, 4]
        t = pa.table({"src": pa.array(src, pa.int64()),
                      "dst": pa.array(dst, pa.int64()),
                      "weight": pa.array([1.0] * 4)})
        ids, hubs, auth, _ = hits(rd.from_arrow(t), num_partitions=2)
        hub0 = hubs[list(ids).index(0)]
        assert hub0 == hubs.max() and hub0 > 0.99
        assert auth[list(ids).index(0)] < 1e-9
        leaves = auth[np.asarray(ids) != 0]
        assert np.allclose(leaves, 0.5, atol=1e-9)


class TestLabelSpread:
    def test_cliques_adopt_their_seed(self):
        import ray.data as rd
        from tldr_ray.graph import label_spread

        src = [0, 0, 1, 3, 3, 4, 2]
        dst = [1, 2, 2, 4, 5, 5, 3]
        t = pa.table({"src": pa.array(src, pa.int64()),
                      "dst": pa.array(dst, pa.int64()),
                      "weight": pa.array([1.0] * 7)})
        ids, labels, info = label_spread(
            rd.from_arrow(t),
            (np.array([0, 5]), np.array([100, 200])),
            num_partitions=2)
        got = dict(zip(ids.tolist(), labels.tolist()))
        assert got == {0: 100, 1: 100, 2: 100, 3: 200, 4: 200, 5: 200}
        assert info["stable"] and info["seeds_found"] == 2

    def test_unreached_stay_unlabeled_and_seeds_clamp(self):
        import ray.data as rd
        from tldr_ray.graph import label_spread

        # seed 0 inside a triangle; 8-9 is a disconnected edge
        t = pa.table({"src": pa.array([0, 1, 2, 8], pa.int64()),
                      "dst": pa.array([1, 2, 0, 9], pa.int64()),
                      "weight": pa.array([1.0] * 4)})
        ids, labels, _ = label_spread(
            rd.from_arrow(t), (np.array([0]), np.array([7])),
            num_partitions=2)
        got = dict(zip(ids.tolist(), labels.tolist()))
        assert got[0] == 7 and got[1] == 7 and got[2] == 7
        assert got[8] == -1 and got[9] == -1


class TestMaximalMatching:
    def test_maximal_symmetric_and_fixture(self):
        import ray.data as rd
        from tldr_ray.graph import maximal_matching

        src = [1, 2, 3, 5, 6, 7, 8]
        dst = [2, 3, 4, 6, 7, 5, 9]
        t = pa.table({"src": pa.array(src, pa.int64()),
                      "dst": pa.array(dst, pa.int64()),
                      "weight": pa.array([1.0] * 7)})
        ids, partner, info = maximal_matching(rd.from_arrow(t),
                                              num_partitions=3)
        got = dict(zip(ids.tolist(), partner.tolist()))
        assert info["stable"]
        adj = set(zip(src, dst)) | set(zip(dst, src))
        # symmetry
        assert all(got[p] == v for v, p in got.items() if p != -1)
        # matched pairs are real edges
        assert all((v, p) in adj for v, p in got.items() if p != -1)
        # maximality: no two unmatched vertices are adjacent
        un = {v for v, p in got.items() if p == -1}
        assert not any((a, b) in adj for a in un for b in un)

    def test_random_graph_maximality(self):
        import ray.data as rd
        from tldr_ray.graph import maximal_matching

        rng = np.random.default_rng(31)
        src = rng.integers(0, 60, 200)
        dst = rng.integers(0, 60, 200)
        keep = src != dst
        t = pa.table({"src": pa.array(src[keep], pa.int64()),
                      "dst": pa.array(dst[keep], pa.int64()),
                      "weight": pa.array(np.ones(int(keep.sum())))})
        ids, partner, info = maximal_matching(rd.from_arrow(t),
                                              num_partitions=4)
        got = dict(zip(ids.tolist(), partner.tolist()))
        adj = set(zip(src[keep].tolist(), dst[keep].tolist()))
        adj |= {(b, a) for a, b in adj}
        assert info["stable"]
        assert all(got[p] == v for v, p in got.items() if p != -1)
        un = {v for v, p in got.items() if p == -1}
        assert not any((a, b) in adj for a in un for b in un)


class TestMaximalIndependentSet:
    def test_independence_and_maximality(self):
        import ray.data as rd
        from tldr_ray.graph import maximal_independent_set

        rng = np.random.default_rng(41)
        src = rng.integers(0, 50, 160)
        dst = rng.integers(0, 50, 160)
        keep = src != dst
        t = pa.table({"src": pa.array(src[keep], pa.int64()),
                      "dst": pa.array(dst[keep], pa.int64()),
                      "weight": pa.array(np.ones(int(keep.sum())))})
        ids, member, info = maximal_independent_set(
            rd.from_arrow(t), num_partitions=4)
        assert info["done"]
        got = dict(zip(ids.tolist(), member.tolist()))
        mis = {v for v, m in got.items() if m == 1}
        adj = set(zip(src[keep].tolist(), dst[keep].tolist()))
        adj |= {(b, a) for a, b in adj}
        # independence: no edge inside the set
        assert not any((a, b) in adj for a in mis for b in mis)
        # maximality: every non-member has a member neighbor
        for v, m in got.items():
            if m != 1:
                assert any((v, u) in adj for u in mis), v


class TestGreedyColoring:
    def test_proper_coloring_random(self):
        import ray.data as rd
        from tldr_ray.graph import greedy_coloring

        rng = np.random.default_rng(51)
        src = rng.integers(0, 40, 150)
        dst = rng.integers(0, 40, 150)
        keep = src != dst
        t = pa.table({"src": pa.array(src[keep], pa.int64()),
                      "dst": pa.array(dst[keep], pa.int64()),
                      "weight": pa.array(np.ones(int(keep.sum())))})
        ids, colors, info = greedy_coloring(rd.from_arrow(t),
                                            num_partitions=3)
        assert info["done"]
        got = dict(zip(ids.tolist(), colors.tolist()))
        adj = set(zip(src[keep].tolist(), dst[keep].tolist()))
        adj |= {(b, a) for a, b in adj}
        assert all(got[a] != got[b] for a, b in adj)
        assert min(got.values()) >= 0
        # <= maxdeg + 1 colors
        deg: dict = {}
        for a, b in adj:
            deg[a] = deg.get(a, 0) + 1
        assert max(got.values()) + 1 <= max(deg.values()) + 1


@pytest.mark.usefixtures("ray_session")
class TestPagerankDocumentsGraphOracle:
    def test_flagship_query_matches_dense_oracle(self):
        """Round-3 verdict item 10: the flagship driver query
        (documents -> transcript_graph -> distributed PageRank) is
        pinned against the dense transliterated oracle on the same
        sf0.001 edge table, not just rows-only."""
        from tldr_ray.queries import pagerank_documents_graph
        from tldr_ray.sources import documents_as_transcripts
        from tldr_ray.stages.edges import transcript_graph

        sf = "/root/testdata/sf0.001"
        out = pagerank_documents_graph(sf)
        ids = np.asarray(out["vertex"], dtype=np.int64)
        scores = np.asarray(out["score"], dtype=np.float64)
        assert ids.size > 0
        np.testing.assert_allclose(scores.sum(), 1.0, atol=1e-9)

        et = (transcript_graph(documents_as_transcripts(sf),
                               presplit_words=12)
              .select_columns(["src", "dst", "weight"]).to_pandas())
        o_ids, o_scores = pagerank_ref(
            et["src"].to_numpy(np.int64), et["dst"].to_numpy(np.int64),
            et["weight"].to_numpy(np.float64))
        assert np.array_equal(np.sort(ids), o_ids)
        order = np.argsort(ids)
        np.testing.assert_allclose(scores[order], o_scores, atol=1e-6)


def _brandes_ref(edges, n, pivots):
    """Sequential Brandes dependency accumulation (Brandes 2001, the
    textbook queue/stack form) restricted to the given pivots."""
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    bc = np.zeros(n)
    for s in pivots:
        dist = np.full(n, -1)
        sigma = np.zeros(n)
        dist[s], sigma[s] = 0, 1.0
        order, queue = [], [s]
        while queue:
            v = queue.pop(0)
            order.append(v)
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
        delta = np.zeros(n)
        for w in reversed(order):
            for v in adj[w]:
                if dist[v] == dist[w] - 1:
                    delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
        delta[s] = 0.0
        bc += delta
    return bc


@pytest.mark.usefixtures("ray_session")
class TestBetweennessSampled:
    def test_matches_brandes_reference(self):
        from tldr_ray.graph import betweenness_sampled

        rng = np.random.default_rng(11)
        n = 50
        raw = {(int(a), int(b)) for a, b in
               zip(rng.integers(0, n, 160), rng.integers(0, n, 160))
               if a != b}
        # ensure connectivity spine so every pivot reaches most nodes
        raw |= {(i, i + 1) for i in range(n - 1)}
        edges = sorted(raw)
        pivots = [0, 7, 23, 41]
        ids, scores, info = betweenness_sampled(
            edge_ds(symmetrized(edges)), seeds=pivots,
            num_partitions=3)
        ref = _brandes_ref(edges, n, pivots)
        assert info["pivots"] == 4
        order = np.argsort(ids)
        np.testing.assert_allclose(scores[order], ref[np.sort(ids)],
                                   atol=1e-9)

    def test_bridge_vertex_dominates(self):
        """On two cliques joined by one bridge vertex, the bridge has
        the highest dependency score from any pivot set."""
        from tldr_ray.graph import betweenness_sampled

        cl1 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        cl2 = [(a, b) for a in range(5, 9) for b in range(a + 1, 9)]
        bridge = [(3, 4), (4, 5)]
        edges = cl1 + cl2 + bridge
        ids, scores, _ = betweenness_sampled(
            edge_ds(symmetrized(edges)), seeds=[0, 8],
            num_partitions=2)
        # with symmetric pivots {0, 8} the bridge path 3-4-5 ties
        # exactly (each covers the same crossing pairs); the bridge
        # must sit in that top tie and beat every clique-interior node
        top = scores.max()
        tied = set(ids[np.isclose(scores, top)].tolist())
        assert 4 in tied and tied <= {3, 4, 5}


class TestFeaturePropagation:
    def test_two_rounds_equal_dense_reference(self, ray_session):
        """h2 == (I + A^T)^2 f computed densely on the same graph."""
        import numpy as np

        from tldr_ray.queries import feature_propagation_hashgraph

        out = feature_propagation_hashgraph("/root/testdata/sf0.001") \
            .to_pandas().sort_values("vertex").reset_index(drop=True)
        N = len(out)
        A = np.zeros((N, N), np.int64)
        d = np.arange(N)
        for dst in [(d + 1) % N, (d + 2) % N, (d * 7 + 3) % N]:
            keep = dst != d
            A[d[keep], dst[keep]] += 1
        f = np.stack([(d * (k + 3)) % 97 for k in range(4)], axis=1)
        h = f + A.T @ f
        h = h + A.T @ h
        got = out[["f0", "f1", "f2", "f3"]].to_numpy()
        assert (got == h).all()


@pytest.mark.usefixtures("ray_session")
class TestFullSCC:
    def _write_docs(self, tmp_path, n):
        import pyarrow as pa
        import pyarrow.parquet as pq

        sf = tmp_path / "sf"
        sf.mkdir()
        pq.write_table(pa.table({
            "doc_id": pa.array(range(n), pa.int64()),
            "text": pa.array(["x"] * n),
            "lang": pa.array(["en"] * n),
            "source": pa.array(["s"] * n),
            "n_chars": pa.array([1] * n, pa.int64())}),
            str(sf / "documents.parquet"))
        return str(sf)

    def _oracle(self, sf):
        """Sequential Tarjan over the SAME pruned edge construction."""
        import numpy as np

        from tldr_ray.queries import _hash_graph_edges, _tarjan_scc

        t = _hash_graph_edges(sf).to_pandas()
        s = t["src"].to_numpy(np.int64)
        d = t["dst"].to_numpy(np.int64)
        keep = s % 3 != 1
        s, d = s[keep], d[keep]
        verts = np.union1d(np.unique(s), np.unique(d))
        return _tarjan_scc(s, d, verts)

    def test_scc_local_gate_matches_tarjan(self, tmp_path):
        from tldr_ray.queries import scc_hashgraph

        sf = self._write_docs(tmp_path, 120)
        got = scc_hashgraph(sf).to_pandas()
        want = self._oracle(sf)
        assert dict(zip(got["vertex"], got["scc_id"])) == want
        # every scc_id is its component's min member
        assert (got.groupby("scc_id")["vertex"].min()
                == got.groupby("scc_id")["vertex"].min().index).all()

    def test_scc_fwbw_round_then_local_finisher(self, tmp_path,
                                                monkeypatch):
        """Force ONE distributed FW-BW pivot round (broadcast budget
        below the full edge count) and check the hybrid equals the
        pure-local answer."""
        from tldr_ray.queries import _hash_graph_edges, scc_hashgraph
        from tldr_ray.stages import joins

        sf = self._write_docs(tmp_path, 120)
        n_edges = _hash_graph_edges(sf).count()
        # prune keeps ~2/3; a budget just under that forces round 1 FW-BW
        monkeypatch.setattr(joins, "BROADCAST_BUDGET_ROWS",
                            int(n_edges * 2 / 3) - 20)
        got = scc_hashgraph(sf).to_pandas()
        want = self._oracle(sf)
        assert dict(zip(got["vertex"], got["scc_id"])) == want
