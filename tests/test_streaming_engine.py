"""The push build of ``GraphEngine.from_edges``: oracle parity,
symmetrize, retry idempotency and bit-determinism across builds."""

import hashlib

import numpy as np
import pytest


@pytest.mark.usefixtures("ray_session")
def test_from_edges_matches_pagerank_oracle():
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

    eng = GraphEngine.from_edges(ds(), num_partitions=5)
    assert eng.manifest["n_edges"] == m
    ids_s, scores_s, info_s = eng.pagerank(tolerance=1e-10)
    eng.shutdown()

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
    eng = GraphEngine.from_edges(edges, num_partitions=3, symmetrize=True)
    ids, labels, info = eng.connected_components()
    eng.shutdown()
    got = dict(zip(ids.tolist(), labels.tolist()))
    assert got == {0: 0, 1: 0, 2: 0, 3: 3, 4: 3, 5: 3}


@pytest.mark.usefixtures("ray_session")
def test_ingest_duplicate_digest_dropped_distinct_kept():
    """Retry idempotency: a second delivery with the SAME content
    digest is dropped (counted); distinct digests accumulate. The
    digest set is per partition: one pushed batch sends the same digest
    to every partition, so partitions 0 and 1 of one host both keep
    it. Built via a raw shard host holding both partitions so the
    dedup path is pinned directly."""
    import ray

    from tldr_ray.graph.engine import _MSG_REF_BYTES_DEFAULT, _shard_actor_cls

    host = _shard_actor_cls().remote()
    host.open.remote(0, 1, 2, _MSG_REF_BYTES_DEFAULT)
    src = np.array([0, 1], np.int64)
    dst = np.array([1, 0], np.int64)
    w = np.ones(2, np.float64)
    verts = np.array([0, 1], np.int64)
    n1 = ray.get(host.ingest.remote(b"a", [(src, dst, w, verts), None],
                                    b"A"))
    n2 = ray.get(host.ingest.remote(b"a", [(src, dst, w, verts), None],
                                    b"A"))
    n3 = ray.get(host.ingest.remote(
        b"b", [(src + 2, dst + 2, w, verts + 2), None], b"B"))
    assert (n1, n2, n3) == (2, 2, 2)      # retry reports success
    # partition 1's slice of the batch whose digest A partition 0 holds
    n4 = ray.get(host.ingest.remote(
        b"a", [None, (src + 4, dst + 4, w, verts + 4)], b"A"))
    assert n4 == 2
    n_edges = ray.get(host.finalize.remote())
    # digest A counted once + digest B: 4 edges, not 6
    assert n_edges[0] == 4
    # the same digest on partition 1 is kept
    assert n_edges[1] == 2
    ray.kill(host)


def _digest(*arrays):
    h = hashlib.blake2b(digest_size=12)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return h.hexdigest()


# PageRank (tol 1e-10) and LPA digests of the 16-block graph below,
# recorded from the on-disk shard build that the push build replaced
# (it joined the blocks in content-key order too). Before the push
# build joined its slices in key order, every build gave a different
# PageRank digest: the float folds followed task completion order.
MULTI_BLOCK_EXPECTED = {
    False: ("269b7f5e8190576275487cd8", "0d734aa69855567afc71e6c8"),
    True: ("61fc5bd8e29c0b562ff4673a", "ac8b68b33b09c318c1a7049b"),
}


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("symmetrize,hosts", [
    pytest.param(False, None, id="plain"),
    pytest.param(True, None, id="symmetrize"),
    pytest.param(False, 1, id="plain-H1"),
    pytest.param(True, 1, id="symmetrize-H1")])
def test_multi_block_build_is_deterministic(symmetrize, hosts, force_hosts):
    """Three builds of a 16-block edge Dataset at P=4 give the same
    PageRank and LPA bits, whatever order the push tasks finish in:
    with the derived host count, and with all four partitions in one
    shard host (H1)."""
    import contextlib

    import pyarrow as pa
    import ray.data as rd

    from tldr_ray.graph import GraphEngine

    rng = np.random.default_rng(20261018)
    n, m = 3000, 24000
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    w = rng.integers(1, 9, m) / 8.0 + rng.random(m)
    table = pa.table({"src": pa.array(src, pa.int64()),
                      "dst": pa.array(dst, pa.int64()),
                      "weight": pa.array(w, pa.float64())})

    got = set()
    for _ in range(3):
        with force_hosts(hosts) if hosts else contextlib.nullcontext():
            eng = GraphEngine.from_edges(rd.from_arrow(table).repartition(16),
                                         4, symmetrize=symmetrize)
        try:
            assert eng.H == (hosts or 4)
            assert eng.manifest["n_edges"] == m * (2 if symmetrize else 1)
            got.add((_digest(*eng.pagerank(tolerance=1e-10)[:2]),
                     _digest(*eng.label_propagation()[:2])))
        finally:
            eng.shutdown()
    assert got == {MULTI_BLOCK_EXPECTED[symmetrize]}
