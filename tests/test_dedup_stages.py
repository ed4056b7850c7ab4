"""Dedup operator tests over small deterministic corpora."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def doc_ds(texts):
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }))


BASE = ("the quick brown fox jumps over the lazy dog while the band plays "
        "a slow waltz under heavy autumn rain near the harbor")
NEAR = BASE.replace("slow waltz", "slow polka")
OTHER = ("completely unrelated text about turbine engines and ledger audits "
         "in a quiet alpine valley with copper pipes and nickel fittings")


@pytest.mark.usefixtures("ray_session")
class TestExactDedup:
    def test_clusters(self):
        from tldr_ray.stages.dedup import exact_dedup

        out = exact_dedup(doc_ds([BASE, OTHER, BASE, BASE])).to_pandas()
        out = out.sort_values("doc_id").reset_index(drop=True)
        assert out["keep_id"].tolist() == [0, 1, 0, 0]
        assert out["n_dupes"].tolist() == [3, 1, 3, 3]


@pytest.mark.usefixtures("ray_session")
class TestMinHashLSH:
    def test_near_dup_found_unrelated_not(self):
        from tldr_ray.stages.dedup import minhash_lsh_pairs

        pairs = minhash_lsh_pairs(doc_ds([BASE, NEAR, OTHER]),
                                  threshold=0.5).to_pandas()
        pairs = pairs[pairs["id_a"] >= 0]
        got = set(map(tuple, pairs[["id_a", "id_b"]].to_numpy()))
        assert (0, 1) in got
        assert (0, 2) not in got and (1, 2) not in got

    def test_exact_duplicates_estimate_one(self):
        from tldr_ray.stages.dedup import minhash_lsh_pairs

        pairs = minhash_lsh_pairs(doc_ds([BASE, BASE]), threshold=0.9).to_pandas()
        pairs = pairs[pairs["id_a"] >= 0]
        assert len(pairs) == 1
        assert pairs["est_jaccard"].iloc[0] == 1.0


@pytest.mark.usefixtures("ray_session")
class TestSimHash:
    def test_near_dup_low_hamming(self):
        from tldr_ray.stages.dedup import simhash_pairs

        pairs = simhash_pairs(doc_ds([BASE, NEAR, OTHER]),
                              max_hamming=8).to_pandas()
        got = {tuple(r) for r in pairs[["id_a", "id_b"]].to_numpy()}
        assert (0, 1) in got
        assert (0, 2) not in got


@pytest.mark.usefixtures("ray_session")
class TestNgramJaccard:
    def test_exact_jaccard_verification(self):
        from tldr_ray.stages.dedup import ngram_jaccard_pairs
        from tldr_ray.stages.dedup import _shingle_hashes

        out = ngram_jaccard_pairs(doc_ds([BASE, NEAR, OTHER]),
                                  threshold=0.6).to_pandas()
        assert set(map(tuple, out[["id_a", "id_b"]].to_numpy())) == {(0, 1)}
        # reported jaccard equals the true shingle-set jaccard
        sa = _shingle_hashes(BASE, 5)
        sb = _shingle_hashes(NEAR, 5)
        inter = np.intersect1d(sa, sb).size
        true_j = inter / (sa.size + sb.size - inter)
        assert out["jaccard"].iloc[0] == pytest.approx(true_j)

    def test_semi_join_filters_non_candidate_texts(self):
        """Only candidate-pair endpoints' texts enter the verify
        shuffle: with 2 near-dups among many unrelated docs, the
        filtered doc set == the candidate endpoint set."""
        from tldr_ray.stages.dedup import (candidate_endpoint_docs,
                                           minhash_lsh_pairs)

        fillers = [" ".join(f"tok{i}x{j}" for j in range(25))
                   for i in range(30)]
        ds = doc_ds([BASE, NEAR] + fillers)
        cand = minhash_lsh_pairs(ds, threshold=0.4).materialize()
        docs, used_filter, n_pairs = candidate_endpoint_docs(ds, cand)
        assert used_filter and n_pairs >= 1
        got = sorted(docs.to_pandas()["doc_id"])
        cp = cand.to_pandas()
        cp = cp[cp["id_a"] >= 0]
        want = sorted(set(cp["id_a"]) | set(cp["id_b"]))
        assert got == want              # non-candidates never shuffle
        assert 0 in got and 1 in got and len(got) < 2 + len(fillers)

    def test_semi_join_gate_falls_back_to_full_corpus(self, force_shuffle):
        from tldr_ray.stages.dedup import (candidate_endpoint_docs,
                                           minhash_lsh_pairs)

        ds = doc_ds([BASE, NEAR, OTHER])
        cand = minhash_lsh_pairs(ds, threshold=0.4).materialize()
        with force_shuffle():
            docs, used_filter, _ = candidate_endpoint_docs(ds, cand)
        assert not used_filter
        assert docs.count() == 3        # full corpus rides the shuffle


@pytest.mark.usefixtures("ray_session")
class TestEmbeddingCosine:
    def test_pairs_on_testdata(self):
        import ray.data as rd
        from tldr_ray.stages.dedup import embedding_cosine_pairs

        ds = rd.read_parquet("/root/testdata/sf0.001/embeddings.parquet",
                             columns=["vec_id", "embedding"])
        pairs = embedding_cosine_pairs(ds, threshold=0.99).to_pandas()
        # sanity: no self pairs, ordered ids, cosine within bounds
        if len(pairs):
            assert (pairs["id_a"] < pairs["id_b"]).all()
            assert (pairs["cosine"] >= 0.99).all()

    def test_identical_vectors_pair(self):
        import ray.data as rd
        from tldr_ray.stages.dedup import embedding_cosine_pairs

        vecs = [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        ds = rd.from_arrow(pa.table({
            "vec_id": pa.array([10, 11, 12], pa.int64()),
            "embedding": pa.array(vecs, pa.list_(pa.float32())),
        }))
        pairs = embedding_cosine_pairs(ds, threshold=0.999).to_pandas()
        assert set(map(tuple, pairs[["id_a", "id_b"]].to_numpy())) == {(10, 11)}


@pytest.mark.usefixtures("ray_session")
class TestResolveClusters:
    def test_union_find_path(self):
        import ray.data as rd
        from tldr_ray.stages.dedup import resolve_clusters

        pairs = rd.from_arrow(pa.table({
            "id_a": pa.array([1, 2, 5], pa.int64()),
            "id_b": pa.array([2, 3, 6], pa.int64()),
        }))
        out = resolve_clusters(pairs).set_index("id")["cluster_id"]
        assert out[1] == out[2] == out[3] == 1
        assert out[5] == out[6] == 5

    def test_distributed_cc_path_matches(self, force_shuffle):
        import ray.data as rd
        from tldr_ray.stages.dedup import resolve_clusters

        pairs = rd.from_arrow(pa.table({
            "id_a": pa.array([1, 2, 5], pa.int64()),
            "id_b": pa.array([2, 3, 6], pa.int64()),
        }))
        small = resolve_clusters(pairs)
        with force_shuffle():
            big = resolve_clusters(pairs)
        pd.testing.assert_frame_equal(
            small.sort_values("id").reset_index(drop=True),
            big.sort_values("id").reset_index(drop=True))


@pytest.mark.usefixtures("ray_session")
class TestWinnowing:
    def test_cover_property_and_determinism(self):
        """Two docs sharing a substring of length >= k+w-1 must share a
        fingerprint; disjoint docs share none; partitioning-invariant."""
        import numpy as np
        import pandas as pd
        import pyarrow as pa
        import ray.data as rd
        from tldr_ray.stages.dedup import winnow_fingerprints

        shared = "the quick brown fox jumps over the lazy dog"
        t = pa.table({
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array([
                "AAAA " + shared + " BBBB",
                "CCCC " + shared + " DDDD",
                "completely different content here with no overlap!?",
            ]),
        })
        k, w = 8, 4
        a = (winnow_fingerprints(rd.from_arrow(t), k=k, w=w)
             .to_pandas())
        b = (winnow_fingerprints(rd.from_arrow(t).repartition(3),
                                 k=k, w=w).to_pandas())
        key = ["doc_id", "fingerprint"]
        pd.testing.assert_frame_equal(
            a.sort_values(key).reset_index(drop=True),
            b.sort_values(key).reset_index(drop=True))
        fp = {d: set(g["fingerprint"]) for d, g in a.groupby("doc_id")}
        assert fp[1] & fp[2]                   # cover property
        assert not (fp[1] & fp[3])
        assert not (fp[2] & fp[3])

    def test_short_doc_emits_one_fingerprint(self):
        import pyarrow as pa
        import ray.data as rd
        from tldr_ray.stages.dedup import winnow_fingerprints

        t = pa.table({"doc_id": pa.array([1], pa.int64()),
                      "text": pa.array(["tiny"])})
        out = winnow_fingerprints(rd.from_arrow(t), k=8, w=4).to_pandas()
        assert len(out) == 1


@pytest.mark.usefixtures("ray_session")
class TestSemanticDedup:
    def test_planted_near_dup_removed(self, tmp_path):
        """A planted near-identical vector must lose to its lower-id
        twin; everything else survives."""
        import numpy as np
        import pyarrow as pa
        import pyarrow.parquet as pq

        rng = np.random.default_rng(5)
        base = rng.standard_normal((40, 16)).astype(np.float32)
        # vec 40 = tiny perturbation of vec 7 -> cosine ~ 1
        twin = base[7] + rng.standard_normal(16).astype(np.float32) * 1e-3
        mat = np.vstack([base, twin[None, :]])
        sf = tmp_path / "sf"
        sf.mkdir()
        pq.write_table(pa.table({
            "vec_id": pa.array(range(41), pa.int64()),
            "embedding": pa.array([list(map(float, r)) for r in mat],
                                  pa.list_(pa.float32()))}),
            str(sf / "embeddings.parquet"))

        from tldr_ray.queries import semantic_dedup_embeddings

        kept = sorted(semantic_dedup_embeddings(str(sf), threshold=0.99)
                      .to_pandas()["vec_id"])
        assert 40 not in kept and 7 in kept
        assert len(kept) == 40


@pytest.mark.usefixtures("ray_session")
class TestEditDistancePairs:
    def test_is_edit1_kernel(self):
        from tldr_ray.stages.dedup import _is_edit1

        assert _is_edit1("cat", "cut")          # substitution
        assert _is_edit1("cut", "cuts")         # append
        assert _is_edit1("dg", "dog")           # interior insert
        assert _is_edit1("dog", "dg")           # symmetric
        assert not _is_edit1("cat", "cat")      # equal -> not distance 1
        assert not _is_edit1("cat", "dog")
        assert not _is_edit1("dg", "dogs")      # distance 2 via length
        assert not _is_edit1("abXc", "aYbc")    # shared deletion, dist 2

    def test_fastss_pairs_exact(self):
        import ray.data as rd
        from tldr_ray.stages.dedup import edit_distance_pairs

        vocab = ["cat", "cut", "cuts", "dog", "dogs", "dg", "xyz",
                 "aab", "ab"]
        ds = rd.from_arrow(pa.table({"w": pa.array(vocab)}))
        got = {tuple(r) for r in
               edit_distance_pairs(ds, col="w").to_pandas().to_numpy()}
        # brute-force oracle
        def lev1(a, b):
            if abs(len(a) - len(b)) > 1 or a == b:
                return False
            la, lb = sorted((a, b), key=len)
            if len(la) == len(lb):
                return sum(x != y for x, y in zip(la, lb)) == 1
            i = 0
            while i < len(la) and la[i] == lb[i]:
                i += 1
            return la[i:] == lb[i + 1:]
        want = {(a, b) for i, a in enumerate(vocab)
                for b in vocab[i + 1:] if lev1(a, b)}
        want = {tuple(sorted(p)) for p in want}
        assert got == want
        assert ("aab", "ab") in got             # duplicate-variant word


@pytest.mark.usefixtures("ray_session")
def test_set_similarity_join_lossless_vs_bruteforce():
    """Prefix-filter blocking is LOSSLESS: output == brute-force
    all-pairs word-trigram Jaccard >= 1/2, incl. docs below k words,
    empty docs, and identical twins."""
    import ray.data as rd

    from tldr_ray.stages.dedup import (_word_shingle_hashes,
                                       set_similarity_join)

    rng = np.random.default_rng(3)
    vocab = [f"w{i}" for i in range(40)]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(5, 30)))
             for _ in range(60)]
    texts += [texts[0],                          # identical twin
              texts[1] + " extra tail words here",  # near dup
              "one two",                         # < k words
              "",                                # empty
              "   "]                             # whitespace only
    ids = np.arange(len(texts), dtype=np.int64)
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(ids),
        "text": pa.array(texts, pa.string())})).repartition(5)
    got = set_similarity_join(ds, k=3, threshold_num=1,
                              threshold_den=2).to_pandas()
    got_pairs = {(int(a), int(b)): float(j) for a, b, j in
                 zip(got["id_a"], got["id_b"], got["jaccard"])}
    sets = {int(i): set(_word_shingle_hashes(t, 3).tolist())
            for i, t in zip(ids, texts)}
    want = {}
    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            a, b = sets[i], sets[j]
            u = len(a | b)
            if u and len(a & b) / u >= 0.5:
                want[(i, j)] = len(a & b) / u
    assert got_pairs == want
    assert (0, 60) in got_pairs and got_pairs[(0, 60)] == 1.0


@pytest.mark.usefixtures("ray_session")
def test_set_similarity_join_oversized_bucket_raises():
    """The EXACT contract is enforced: a prefix-shingle bucket larger
    than max_bucket RAISES by default (silent truncation would lose
    qualifying pairs); oversized='truncate' opts into the loss."""
    import ray.data as rd

    from tldr_ray.stages.dedup import set_similarity_join

    # every doc shares the same 3 words => one shingle bucket of 8 > 2
    texts = [f"alpha beta gamma tail{i}" for i in range(8)]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(8, dtype=np.int64)),
        "text": pa.array(texts, pa.string())}))
    with pytest.raises(Exception, match="max_bucket"):
        set_similarity_join(ds, k=3, max_bucket=2).materialize()
    # explicit opt-in truncates without raising
    out = set_similarity_join(ds, k=3, max_bucket=2,
                              oversized="truncate").to_pandas()
    assert len(out) >= 0   # runs; recall loss accepted explicitly


class TestGearCDC:
    @staticmethod
    def _seq_spans(data, min_size=64, avg_bits=8, max_size=1024):
        """The sequential DEFINITION of the Gear cut rule."""
        from tldr_ray.stages.dedup import _gear_table

        g = _gear_table()
        n = len(data)
        spans, start, h, i = [], 0, 0, 0
        mask = ((1 << avg_bits) - 1) << (64 - avg_bits)
        while i < n:
            h = ((h << 1) + int(g[data[i]])) & 0xFFFFFFFFFFFFFFFF
            i += 1
            if (i - start >= max_size
                    or (i - start >= 64 and (h & mask) == 0)):
                spans.append((start, i))
                start, h = i, 0
        if start < n:
            spans.append((start, n))
        return spans

    def test_vectorized_equals_sequential_definition(self):
        import numpy as np
        from tldr_ray.stages.dedup import gear_chunk_spans

        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(0, 5000))
            data = rng.integers(0, 256, n).astype(np.uint8).tobytes()
            got = gear_chunk_spans(data)
            assert got == self._seq_spans(data)
            assert b"".join(data[a:b] for a, b in got) == data

    def test_insert_shifts_only_local_chunks(self):
        """THE CDC property: a mid-buffer insert relocates at most a
        couple of chunk fingerprints; offset-based chunking would
        invalidate everything downstream."""
        import hashlib

        import numpy as np
        from tldr_ray.stages.dedup import gear_chunk_spans

        rng = np.random.default_rng(9)
        data = rng.integers(0, 256, 50000).astype(np.uint8).tobytes()
        edited = data[:9000] + b"INSERTED CONTENT" + data[9000:]
        f1 = [hashlib.md5(data[a:b]).digest()
              for a, b in gear_chunk_spans(data)]
        f2 = [hashlib.md5(edited[a:b]).digest()
              for a, b in gear_chunk_spans(edited)]
        assert len(set(f1) & set(f2)) >= len(f1) - 3

    def test_size_bounds(self):
        import numpy as np
        from tldr_ray.stages.dedup import gear_chunk_spans

        rng = np.random.default_rng(5)
        data = rng.integers(0, 256, 20000).astype(np.uint8).tobytes()
        spans = gear_chunk_spans(data, min_size=64, max_size=512)
        sizes = [b - a for a, b in spans]
        assert all(s <= 512 for s in sizes)
        assert all(s >= 64 for s in sizes[:-1])  # tail may be short

    def test_min_size_guard(self):
        import pytest as _pytest
        from tldr_ray.stages.dedup import gear_chunk_spans

        with _pytest.raises(ValueError, match="64"):
            gear_chunk_spans(b"xx", min_size=32)


@pytest.mark.usefixtures("ray_session")
class TestCdcChunkDedupQuery:
    def test_planted_shared_paragraphs(self, tmp_path):
        """Docs sharing a long byte-identical paragraph must show a
        positive dup_chunk_fraction; fully distinct docs must not."""
        import numpy as np
        import pyarrow as pa
        import pyarrow.parquet as pq

        from tldr_ray.queries import QUERIES

        rng = np.random.default_rng(4)

        def blob(n):
            return "".join(chr(int(c)) for c in
                           rng.integers(97, 123, n))

        shared = blob(3000)
        rows = []
        for i in range(6):   # dup source: same big paragraph + tail
            rows.append(("dup", shared + blob(200), i))
        for i in range(6):   # uniq source: fully distinct
            rows.append(("uniq", blob(3200), 100 + i))
        t = pa.table({
            "doc_id": pa.array([r[2] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
            "lang": pa.array(["en"] * len(rows), pa.string()),
            "source": pa.array([r[0] for r in rows], pa.string()),
            "n_chars": pa.array([len(r[1]) for r in rows], pa.int64())})
        pq.write_table(t, str(tmp_path / "documents.parquet"))
        df = QUERIES["cdc_chunk_dedup_docs"](str(tmp_path)) \
            .to_pandas().set_index("source")
        assert df.loc["dup", "dup_chunk_fraction"] > 0.5
        assert df.loc["uniq", "dup_chunk_fraction"] == 0.0
        assert (df["n_docs"] == 6).all()
