"""Checkpoint / resume: a killed-and-restarted PageRank run must land on
the bit-identical fixpoint of an uninterrupted run (state is exactly the
rank vector; updates are deterministic). Each "restart" rebuilds the
shards from the same multi-block edge Dataset, which gives the same
CSR bits every time."""

import os

import numpy as np
import pytest


@pytest.fixture
def star_edges(ray_session):
    """A factory of the same 8-block edge Dataset, one per build."""
    import ray.data as rd
    import pyarrow as pa

    rng = np.random.default_rng(3)
    src = rng.integers(0, 40, 400)
    dst = rng.integers(0, 40, 400)
    w = rng.random(400) + 0.05
    table = pa.table({"src": pa.array(src, pa.int64()),
                      "dst": pa.array(dst, pa.int64()),
                      "weight": pa.array(w, pa.float64())})
    return lambda: rd.from_arrow(table).repartition(8)


@pytest.mark.usefixtures("ray_session")
def test_resume_bit_identical(star_edges, tmp_path):
    from tldr_ray.graph import GraphEngine

    ckpt = str(tmp_path / "ckpt")

    # uninterrupted run
    eng = GraphEngine.from_edges(star_edges(), 3)
    assert eng.manifest["n_edges"] == 400
    assert eng.n_total == 40
    ids_a, scores_a, info_a = eng.pagerank(tolerance=1e-10, max_iterations=50)
    eng.shutdown()

    # interrupted run: stop after 5 iterations, checkpointing each one
    eng = GraphEngine.from_edges(star_edges(), 3)
    eng.pagerank(tolerance=1e-10, max_iterations=5,
                 checkpoint_every=1, checkpoint_dir=ckpt)
    eng.shutdown()
    assert os.path.exists(f"{ckpt}/manifest.json")
    assert os.path.exists(f"{ckpt}/iter=5/part=0.parquet")

    # fresh engine (simulated restart) resumes from iteration 5
    eng = GraphEngine.from_edges(star_edges(), 3)
    ids_b, scores_b, info_b = eng.pagerank(tolerance=1e-10, max_iterations=50,
                                           checkpoint_dir=ckpt, resume=True)
    eng.shutdown()

    assert np.array_equal(ids_a, ids_b)
    assert np.array_equal(scores_a, scores_b)   # bitwise, not allclose
    assert info_b["iterations"] == info_a["iterations"]
    assert info_a["converged"] and info_b["converged"]


@pytest.mark.usefixtures("ray_session")
def test_personalized_resume_bit_identical(star_edges, tmp_path):
    """Checkpoints record the restart-vector digest, so personalized
    runs resume too — with the same seeds, bit-identical; with different
    seeds (or none), the engine refuses loudly."""
    from tldr_ray.graph import GraphEngine

    ckpt = str(tmp_path / "ckpt")
    seeds = (np.array([0, 3, 7]), np.array([0.5, 0.3, 0.2]))

    eng = GraphEngine.from_edges(star_edges(), 3)
    ids_a, scores_a, info_a = eng.pagerank(tolerance=1e-10,
                                           max_iterations=50,
                                           personalization=seeds)
    eng.shutdown()

    eng = GraphEngine.from_edges(star_edges(), 3)
    eng.pagerank(tolerance=1e-10, max_iterations=4, personalization=seeds,
                 checkpoint_every=1, checkpoint_dir=ckpt)
    eng.shutdown()

    eng = GraphEngine.from_edges(star_edges(), 3)
    with pytest.raises(ValueError, match="restart-vector mismatch"):
        eng.pagerank(checkpoint_dir=ckpt, resume=True)  # missing seeds
    with pytest.raises(ValueError, match="restart-vector mismatch"):
        eng.pagerank(checkpoint_dir=ckpt, resume=True,
                     personalization=(np.array([1]), np.array([1.0])))
    ids_b, scores_b, info_b = eng.pagerank(tolerance=1e-10,
                                           max_iterations=50,
                                           personalization=seeds,
                                           checkpoint_dir=ckpt, resume=True)
    eng.shutdown()

    assert np.array_equal(ids_a, ids_b)
    assert np.array_equal(scores_a, scores_b)   # bitwise, not allclose
    assert info_b["iterations"] == info_a["iterations"]


@pytest.mark.usefixtures("ray_session")
def test_resume_across_host_counts(star_edges, tmp_path, force_hosts):
    """Checkpoint files are keyed by partition, not by shard host: a
    run checkpointed with its 3 partitions in 3 hosts resumes in 1
    host on the bits of an uninterrupted run."""
    from tldr_ray.graph import GraphEngine

    ckpt = str(tmp_path / "ckpt")

    eng = GraphEngine.from_edges(star_edges(), 3)
    ids_a, scores_a, info_a = eng.pagerank(tolerance=1e-10, max_iterations=50)
    eng.shutdown()

    with force_hosts(3):
        eng = GraphEngine.from_edges(star_edges(), 3)
    assert eng.H == 3
    eng.pagerank(tolerance=1e-10, max_iterations=5,
                 checkpoint_every=1, checkpoint_dir=ckpt)
    eng.shutdown()
    assert sorted(os.listdir(f"{ckpt}/iter=5")) == [
        f"part={p}.parquet" for p in range(3)]

    with force_hosts(1):
        eng = GraphEngine.from_edges(star_edges(), 3)
    assert eng.H == 1
    ids_b, scores_b, info_b = eng.pagerank(tolerance=1e-10, max_iterations=50,
                                           checkpoint_dir=ckpt, resume=True)
    eng.shutdown()

    assert np.array_equal(ids_a, ids_b)
    assert np.array_equal(scores_a, scores_b)   # bitwise, not allclose
    assert info_b["iterations"] == info_a["iterations"]
    assert info_a["converged"] and info_b["converged"]
