"""Bench-protocol pins (VERDICT r4 items 2-3): the corpus cache key is
versioned by the synthesis code, and the content digest is stable /
content-sensitive — so cross-round BENCH artifacts state their input
instead of silently comparing different graphs (the r3<->r4 incident).
"""

import hashlib
import sys

sys.path.insert(0, "/root/repo")
import bench  # noqa: E402  (no ray.init at import)


def test_cache_key_embeds_synthesis_version():
    src = "/root/repo/tldr_ray/sources/transcripts.py"
    with open(src, "rb") as fh:
        want = hashlib.blake2b(fh.read(), digest_size=6).hexdigest()
    assert bench.SYNTH_VERSION == want
    assert bench.CACHE.endswith(f"_v{want}")


def test_stale_unversioned_cache_never_satisfies_new_key():
    old = f"/tmp/tldr_ray/bench_transcripts_n{bench.N_CONVS}_s{bench.SEED}"
    assert bench.CACHE != old           # a pre-versioning /tmp cache
    assert "_v" in bench.CACHE          # is simply a different directory


def test_corpus_digest_tracks_content(tmp_path):
    """The digest follows the rows of the *.parquet files, not their
    bytes: other rows change it, the same rows in another file layout
    or order do not, and other files are ignored."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    def write(name, ids, texts):
        pq.write_table(pa.table({"id": ids, "text": texts}), str(d / name))

    d = tmp_path / "c"
    d.mkdir()
    write("a.parquet", [1, 2, 3], ["one", "two", "three"])
    g1 = bench._corpus_digest(str(d))
    write("a.parquet", [1, 2, 3], ["one", "two", "four"])
    g2 = bench._corpus_digest(str(d))
    assert g1 != g2
    write("a.parquet", [1, 2, 3], ["one", "two", "three"])
    assert bench._corpus_digest(str(d)) == g1
    (d / "notes.txt").write_bytes(b"ignored")   # non-parquet excluded
    assert bench._corpus_digest(str(d)) == g1
    write("a.parquet", [3, 1], ["three", "one"])  # same rows, new layout
    write("b.parquet", [2], ["two"])
    assert bench._corpus_digest(str(d)) == g1


def test_leg_cpus_stay_inside_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: {3, 5, 9})
    assert bench._leg_cpus(2) == {3, 5}
    assert bench._leg_cpus(3) == {3, 5, 9}
    assert bench._leg_cpus(4) is None


def test_scaling_legs_without_cores_are_unmeasured(monkeypatch):
    """With one usable core neither the 4- nor the 16-core leg can be
    pinned to its cores: nothing runs and both are reported
    unmeasured, with no efficiency."""
    def no_run(*args, **kwargs):
        raise AssertionError("a leg ran")

    monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(bench.subprocess, "run", no_run)
    for var in ("RAY_GRAFT_SCALING_LO", "RAY_GRAFT_SCALING_HI"):
        monkeypatch.delenv(var, raising=False)
    out = bench.run_scaling()
    assert out["value"] is None
    assert out["unmeasured"] == [4, 16]
    assert out["cpus_available"] == 1
