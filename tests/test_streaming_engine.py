"""Push-based streaming shuffle engine vs the on-disk layouts."""

import numpy as np
import pytest


@pytest.mark.usefixtures("ray_session")
def test_streaming_matches_disk_layout_and_oracle():
    import pyarrow as pa
    import ray.data as rd

    from tldr_ray.graph import GraphEngine
    from tldr_ray.kernel import pagerank_ref

    rng = np.random.default_rng(77)
    n, m = 500, 4000
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    w = rng.random(m) + 0.01

    def ds():
        return rd.from_arrow(pa.table({"src": src, "dst": dst, "weight": w}))

    eng = GraphEngine.from_edges_streaming(ds(), num_partitions=5)
    assert eng.manifest["n_edges"] == m
    ids_s, scores_s, info_s = eng.pagerank(tolerance=1e-10)
    eng.shutdown()

    eng2 = GraphEngine.from_edges(ds(), num_partitions=5)
    ids_d, scores_d, _ = eng2.pagerank(tolerance=1e-10)
    eng2.shutdown()

    assert np.array_equal(ids_s, ids_d)
    np.testing.assert_allclose(scores_s, scores_d, atol=1e-12)

    o_ids, o_scores = pagerank_ref(src, dst, w, tolerance=1e-10)
    assert np.array_equal(ids_s, o_ids)
    np.testing.assert_allclose(scores_s, o_scores, atol=1e-6)


@pytest.mark.usefixtures("ray_session")
def test_streaming_symmetrize_components():
    import pyarrow as pa
    import ray.data as rd

    from tldr_ray.graph import GraphEngine

    edges = rd.from_arrow(pa.table({
        "src": pa.array([0, 1, 3, 4], pa.int64()),
        "dst": pa.array([1, 2, 4, 5], pa.int64()),
        "weight": pa.array([1.0] * 4, pa.float64()),
    }))
    eng = GraphEngine.from_edges_streaming(edges, num_partitions=3,
                                           symmetrize=True)
    ids, labels, info = eng.connected_components()
    eng.shutdown()
    got = dict(zip(ids.tolist(), labels.tolist()))
    assert got == {0: 0, 1: 0, 2: 0, 3: 3, 4: 3, 5: 3}


def test_ingest_duplicate_digest_dropped_distinct_kept():
    """Retry idempotency: a second delivery with the SAME content
    digest is dropped (counted); distinct digests accumulate. Built
    via the raw shard actor so the dedup path is pinned directly."""
    import numpy as np
    import ray

    from tldr_ray.graph.engine import _shard_actor_cls

    actor = _shard_actor_cls().remote(0, 1)
    src = np.array([0, 1], np.int64)
    dst = np.array([1, 0], np.int64)
    w = np.ones(2, np.float64)
    verts = np.array([0, 1], np.int64)
    n1 = ray.get(actor.ingest.remote(src, dst, w, verts, digest=b"A"))
    n2 = ray.get(actor.ingest.remote(src, dst, w, verts, digest=b"A"))
    n3 = ray.get(actor.ingest.remote(src + 2, dst + 2, w,
                                     verts + 2, digest=b"B"))
    assert (n1, n2, n3) == (2, 2, 2)      # retry reports success
    n_edges = ray.get(actor.finalize.remote())
    # digest A counted once + digest B: 4 edges, not 6
    assert n_edges == 4
    ray.kill(actor)
