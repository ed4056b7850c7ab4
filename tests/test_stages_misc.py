"""Tests: edge materialization, text analysis, ANN, multimodal plumbing."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from tldr_ray.sources import synth_transcripts_table


@pytest.mark.usefixtures("ray_session")
class TestEdgeMaterialization:
    def test_similarity_edges_match_kernel(self):
        import ray.data as rd
        from tldr_ray.stages.edges import similarity_edges, conv_vertex_base
        from tldr_ray.kernel.lexrank import summarize_to_edges

        tab = synth_transcripts_table(6, seed=42)
        out = similarity_edges(rd.from_arrow(tab)).to_pandas()
        df = tab.to_pandas()
        for conv_id, g in df.groupby("conv_id"):
            g = g.sort_values("turn_idx")
            text = " ".join(t for t in g["text"] if t).strip()
            _, kept, src, dst, w = summarize_to_edges(text)
            base = conv_vertex_base(conv_id)
            sub = out[out["conv_id"] == conv_id]
            assert len(sub) == len(src)
            want = set(zip((base + np.asarray(kept)[src]).tolist(),
                           (base + np.asarray(kept)[dst]).tolist(),
                           w.tolist()))
            got = set(zip(sub["src"], sub["dst"], sub["weight"]))
            assert got == want

    def test_tool_star_clamp(self):
        import ray.data as rd
        from tldr_ray.stages.edges import tool_cooccurrence_edges

        rows = []
        for i in range(20):
            rows.append({"conv_id": f"c{i:03d}", "turn_idx": 0, "role": "tool",
                         "text": "x.", "tool": "hot", "ts": 0})
        for i in range(3):
            rows.append({"conv_id": f"c{i:03d}", "turn_idx": 1, "role": "tool",
                         "text": "y.", "tool": "cold", "ts": 0})
        tab = pa.table({k: [r[k] for r in rows]
                        for k in ["conv_id", "turn_idx", "role", "text",
                                  "tool", "ts"]})
        out = tool_cooccurrence_edges(rd.from_arrow(tab),
                                      max_group_size=10).to_pandas()
        hot = out[out["etype"] == "tool_star"]
        cold = out[out["etype"] == "tool"]
        assert len(hot) == 2 * 19        # star over 20 convs, both directions
        assert len(cold) == 2 * 3        # clique over 3 convs (3 pairs)

    def test_fused_transcript_graph_matches_unfused_union(self):
        """transcript_graph routes all three edge families through ONE
        fused shuffle; the edge multiset must equal the unfused
        similarity + co-occurrence union."""
        import ray.data as rd
        from tldr_ray.stages.edges import (cooccurrence_edges,
                                           similarity_edges,
                                           transcript_graph)

        tab = synth_transcripts_table(30, seed=11)
        key = ["src", "dst", "weight", "etype"]

        def canon(ds):
            df = ds.to_pandas()[key]
            return df.sort_values(key).reset_index(drop=True)

        old = canon(similarity_edges(rd.from_arrow(tab))
                    .select_columns(key)
                    .union(cooccurrence_edges(rd.from_arrow(tab))
                           .select_columns(key)))
        fused = canon(transcript_graph(rd.from_arrow(tab)))
        pd.testing.assert_frame_equal(fused, old)

    def test_entity_mentions_heuristic(self):
        import ray.data as rd
        from tldr_ray.stages.edges import entity_mentions

        rows = {
            "conv_id": ["a", "a", "b"],
            "text": [
                "The river meets Atlas near the delta. Canyon walls rise.",
                "Granite forms near Borealis, always.",
                "  Atlas appears after leading spaces. But Cascade stays.",
            ],
        }
        out = entity_mentions(rd.from_arrow(pa.table(rows))).to_pandas()
        got = set(zip(out["entity"], out["conv_id"]))
        # 'The'/'Canyon'/'Granite'/'But' are sentence-initial or
        # turn-initial; 'Atlas' after leading whitespace is turn-initial
        assert got == {("Atlas", "a"), ("Borealis", "a"), ("Cascade", "b")}

    def test_entity_star_clamp(self):
        import ray.data as rd
        from tldr_ray.stages.edges import entity_cooccurrence_edges

        rows = []
        for i in range(20):
            rows.append({"conv_id": f"c{i:03d}",
                         "text": "the hub entity Atlas appears here."})
        for i in range(3):
            rows.append({"conv_id": f"c{i:03d}",
                         "text": "a cold entity Lumen appears here."})
        tab = pa.table({"conv_id": [r["conv_id"] for r in rows],
                        "text": [r["text"] for r in rows]})
        out = entity_cooccurrence_edges(rd.from_arrow(tab),
                                        max_group_size=10).to_pandas()
        hot = out[out["etype"] == "entity_star"]
        cold = out[out["etype"] == "entity"]
        assert len(hot) == 2 * 19        # star over 20 convs
        assert len(cold) == 2 * 3        # clique over 3 convs

    def test_transcript_graph_feeds_pagerank(self):
        import ray.data as rd
        from tldr_ray.stages.edges import transcript_graph
        from tldr_ray.graph import pagerank

        tab = synth_transcripts_table(10, seed=42)
        edges = transcript_graph(rd.from_arrow(tab))
        df = edges.to_pandas()
        # all three families present on the synthetic corpus
        assert {"sim"} <= set(df["etype"])
        assert set(df["etype"]) & {"tool", "tool_star"}
        assert set(df["etype"]) & {"entity", "entity_star"}
        ids, scores, info = pagerank(edges.select_columns(
            ["src", "dst", "weight"]), num_partitions=3)
        assert info["converged"]
        assert ids.size > 0
        assert np.isclose(scores.sum(), 1.0, atol=1e-3)


@pytest.mark.usefixtures("ray_session")
class TestTextAnalysis:
    def test_language_id(self):
        import ray.data as rd
        from tldr_ray.stages.text_analysis import language_id

        docs = rd.from_arrow(pa.table({
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array([
                "the cat is on the mat and it is happy for now",
                "der Hund ist nicht im Haus und die Katze auch nicht",
                "el perro y el gato que viven en la casa por ahora",
            ]),
        }))
        out = language_id(docs, concurrency=1).to_pandas().sort_values("doc_id")
        assert out["lang_pred"].tolist() == ["en", "de", "es"]
        assert (out["lang_score"] > 0).all()

    def test_quality_scores(self):
        import ray.data as rd
        from tldr_ray.stages.text_analysis import quality_scores

        docs = rd.from_arrow(pa.table({
            "doc_id": pa.array([0, 1], pa.int64()),
            "text": pa.array([
                "the quick brown fox jumps over the lazy dog near the river bank",
                "!!! ??? ### $$$ %%% 12345 67890 !!!",
            ]),
        }))
        out = quality_scores(docs, concurrency=1).to_pandas().sort_values("doc_id")
        assert out["quality_score"].iloc[0] > out["quality_score"].iloc[1]
        assert out["n_tokens"].iloc[0] == 13

    def test_token_counts_vs_duckdb(self):
        import duckdb
        import ray.data as rd
        from tldr_ray.stages.text_analysis import token_counts

        docs = rd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                               columns=["doc_id", "text"])
        got = token_counts(docs).to_pandas().sort_values("doc_id").reset_index(drop=True)
        want = duckdb.sql(
            "SELECT doc_id, "
            " len(regexp_split_to_array(trim(text), '\\s+')) AS n_ws_tokens, "
            " len(regexp_extract_all(text, '\\w+|[^\\w\\s]')) AS n_bpe_pieces "
            "FROM '/root/testdata/sf0.001/documents.parquet' ORDER BY doc_id"
        ).df()
        assert got["n_ws_tokens"].tolist() == want["n_ws_tokens"].tolist()
        assert got["n_bpe_pieces"].tolist() == want["n_bpe_pieces"].tolist()

    def test_fingerprints_md5_vs_duckdb(self):
        import duckdb
        import ray.data as rd
        from tldr_ray.stages.text_analysis import fingerprints

        docs = rd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                               columns=["doc_id", "text"])
        got = fingerprints(docs).to_pandas().sort_values("doc_id")
        want = duckdb.sql(
            "SELECT doc_id, md5(text) AS md5 FROM "
            "'/root/testdata/sf0.001/documents.parquet' ORDER BY doc_id").df()
        assert got["md5"].tolist() == want["md5"].tolist()

    def test_tfidf_broadcast_and_join_paths_equivalent(self, force_shuffle):
        """The size-gated vocab paths must agree bit-for-bit; top term
        of a hand-built corpus is the document's distinctive word."""
        import ray.data as rd
        from tldr_ray.stages.text_analysis import tfidf_top_terms

        docs = pa.table({
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(["the cat sat on the mat",
                              "the dog ate the bone",
                              "the cat and the dog met"]),
        })
        ds = rd.from_arrow(docs).repartition(3)
        a = (tfidf_top_terms(ds, k=3).to_pandas()
             .sort_values(["doc_id", "rnk"]).reset_index(drop=True))
        with force_shuffle():
            b = (tfidf_top_terms(ds, k=3).to_pandas()
                 .sort_values(["doc_id", "rnk"]).reset_index(drop=True))
        pd.testing.assert_frame_equal(a, b[a.columns], check_dtype=True)
        # doc 1's unique terms (df=1) outrank shared ones
        top1 = a[(a["doc_id"] == 1) & (a["rnk"] == 1)]["term"].iloc[0]
        assert top1 in {"sat", "on", "mat"}       # tf=1, df=1, tie by term
        assert top1 == "mat"                      # term-asc tiebreak
        # 'the' (df=3) never ranks first
        assert not ((a["rnk"] == 1) & (a["term"] == "the")).any()


@pytest.mark.usefixtures("ray_session")
class TestAnn:
    def _corpus(self):
        import ray.data as rd

        return rd.read_parquet("/root/testdata/sf0.001/embeddings.parquet",
                               columns=["vec_id", "embedding"])

    def _queries(self, n=3):
        import pyarrow.parquet as pq

        t = pq.read_table("/root/testdata/sf0.001/embeddings.parquet",
                          columns=["vec_id", "embedding"])
        mat = np.asarray(t["embedding"].to_pylist()[:n], dtype=np.float32)
        ids = np.asarray(t["vec_id"].to_pylist()[:n], dtype=np.int64)
        return mat, ids

    def test_brute_self_is_top1(self):
        from tldr_ray.stages.ann import knn_brute

        q, qids = self._queries()
        out = knn_brute(self._corpus(), q, qids, k=5).to_pandas()
        top0 = out[out["rank"] == 0].set_index("query_id")["vec_id"]
        for qid in qids:
            assert top0[qid] == qid

    def test_brute_matches_numpy_oracle(self):
        import pyarrow.parquet as pq
        from tldr_ray.stages.ann import knn_brute

        q, qids = self._queries(2)
        out = knn_brute(self._corpus(), q, qids, k=10).to_pandas()
        t = pq.read_table("/root/testdata/sf0.001/embeddings.parquet")
        mat = np.asarray(t["embedding"].to_pylist(), dtype=np.float32)
        ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
        mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        qn = q / np.linalg.norm(q, axis=1, keepdims=True)
        for i, qid in enumerate(qids):
            cos = mat @ qn[i]
            order = np.lexsort((ids, -cos))[:10]
            want = ids[order].tolist()
            got = out[out["query_id"] == qid].sort_values("rank")["vec_id"].tolist()
            assert got == want

    def test_lsh_recall_reasonable(self):
        from tldr_ray.stages.ann import knn_brute, knn_lsh

        q, qids = self._queries(3)
        brute = knn_brute(self._corpus(), q, qids, k=10).to_pandas()
        lsh = knn_lsh(self._corpus(), q, qids, k=10, num_planes=6,
                      probe_hamming=2).to_pandas()
        recalls = []
        for qid in qids:
            b = set(brute[brute["query_id"] == qid]["vec_id"])
            l = set(lsh[lsh["query_id"] == qid]["vec_id"])
            recalls.append(len(b & l) / len(b))
        assert np.mean(recalls) >= 0.5   # approximate, multi-probe radius 2

    def test_ivf_recall_and_determinism(self):
        from tldr_ray.stages.ann import knn_brute, knn_ivf

        q, qids = self._queries(3)
        brute = knn_brute(self._corpus(), q, qids, k=10).to_pandas()
        ivf = knn_ivf(self._corpus(), q, qids, k=10, nlist=8,
                      nprobe=4).to_pandas()
        recalls = []
        for qid in qids:
            b = set(brute[brute["query_id"] == qid]["vec_id"])
            v = set(ivf[ivf["query_id"] == qid]["vec_id"])
            recalls.append(len(b & v) / len(b))
        # half the lists probed -> decent recall on a smooth corpus
        assert np.mean(recalls) >= 0.5
        # deterministic across runs (seeded sample + seeded k-means init)
        ivf2 = knn_ivf(self._corpus(), q, qids, k=10, nlist=8,
                       nprobe=4).to_pandas()
        key = ["query_id", "rank"]
        pd.testing.assert_frame_equal(
            ivf.sort_values(key).reset_index(drop=True),
            ivf2.sort_values(key).reset_index(drop=True))

    def test_ivf_probes_all_is_exact(self):
        """nprobe == nlist disables pruning -> identical ids to brute."""
        from tldr_ray.stages.ann import knn_brute, knn_ivf

        q, qids = self._queries(2)
        brute = knn_brute(self._corpus(), q, qids, k=10).to_pandas()
        ivf = knn_ivf(self._corpus(), q, qids, k=10, nlist=8,
                      nprobe=8).to_pandas()
        for qid in qids:
            b = brute[brute["query_id"] == qid].sort_values("rank")
            v = ivf[ivf["query_id"] == qid].sort_values("rank")
            assert b["vec_id"].tolist() == v["vec_id"].tolist()


@pytest.mark.usefixtures("ray_session")
class TestMultimodal:
    def test_feature_extraction_plumbing(self):
        import ray.data as rd
        from tldr_ray.stages.multimodal import (synth_media_table,
                                                extract_media_features)

        ds = rd.from_arrow(synth_media_table(30))
        out = extract_media_features(ds, dim=16).to_pandas()
        assert len(out) == 30
        assert all(len(f) == 16 for f in out["feature"])
        # deterministic: same payload -> same features
        out2 = extract_media_features(rd.from_arrow(synth_media_table(30)),
                                      dim=16).to_pandas()
        a = out.sort_values("media_id")["feature"].tolist()
        b = out2.sort_values("media_id")["feature"].tolist()
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_external_decoder_callable_contract(self):
        """Pins the ``decoder=callable`` hook API an external library
        decoder (PIL, ffmpeg, ...) would plug into: called once per row
        as fn(payload: bytes, mime: str) -> np.ndarray, result lands in
        the (media_id, kind, feature list<float32>) output schema —
        independent of any builtin format support."""
        import ray.data as rd
        from tldr_ray.stages.multimodal import (extract_media_features,
                                                synth_media_table)

        calls = []

        def fake_library_decoder(payload, mime):
            assert isinstance(payload, bytes) and isinstance(mime, str)
            calls.append(mime)
            # deterministic stand-in for a real codec's feature vector
            return np.asarray([len(payload), hash(mime) % 7, 1.0, 2.0],
                              dtype=np.float32)

        tab = synth_media_table(12)
        out = extract_media_features(rd.from_arrow(tab), dim=4,
                                     decoder=fake_library_decoder,
                                     concurrency=1).to_pandas()
        assert sorted(out.columns) == ["feature", "kind", "media_id"]
        assert len(out) == 12
        assert all(len(f) == 4 for f in out["feature"])
        got = out.sort_values("media_id")["feature"].tolist()
        pay = {int(i): len(p) for i, p in
               zip(tab["media_id"].to_pylist(), tab["payload"].to_pylist())}
        for mid, f in zip(sorted(pay), got):
            assert f[0] == pay[mid]     # the callable's output, verbatim

    def test_missing_decoder_raises(self):
        from tldr_ray.stages.multimodal import MediaFeatureExtractor

        stage = MediaFeatureExtractor(decoder=None)
        tab = pa.table({"media_id": pa.array([0], pa.int64()),
                        "kind": pa.array(["image"]),
                        "payload": pa.array([b"xx"], pa.binary()),
                        "mime": pa.array(["image/png"])})
        with pytest.raises(NotImplementedError):
            stage(tab)

    def test_builtin_wav_decode_roundtrip(self):
        import io
        import wave
        from tldr_ray.stages.multimodal import decode_wav

        t = np.arange(800) / 8000.0
        x = (np.sin(2 * np.pi * 440 * t) * 32767).astype("<i2")
        buf = io.BytesIO()
        with wave.open(buf, "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(2)
            w.setframerate(8000)
            w.writeframes(x.tobytes())
        got, rate = decode_wav(buf.getvalue())
        assert rate == 8000 and got.size == 800
        np.testing.assert_allclose(got, x / 32768.0, atol=1e-6)

    def test_builtin_ppm_and_bmp_decode(self):
        from tldr_ray.stages.multimodal import decode_ppm, decode_bmp

        img = np.arange(5 * 4 * 3, dtype=np.uint8).reshape(5, 4, 3)
        ppm = b"P6\n# comment\n4 5\n255\n" + img.tobytes()
        np.testing.assert_array_equal(decode_ppm(ppm), img)
        # hand-rolled bottom-up 24-bit BMP
        h, w = img.shape[:2]
        stride = (w * 3 + 3) & ~3
        rows = np.zeros((h, stride), dtype=np.uint8)
        rows[:, : w * 3] = img[::-1, :, ::-1].reshape(h, w * 3)  # BGR, flip
        header = (b"BM" + (54 + rows.size).to_bytes(4, "little")
                  + b"\x00" * 4 + (54).to_bytes(4, "little")
                  + (40).to_bytes(4, "little")
                  + w.to_bytes(4, "little") + h.to_bytes(4, "little")
                  + (1).to_bytes(2, "little") + (24).to_bytes(2, "little")
                  + b"\x00" * 24)
        np.testing.assert_array_equal(decode_bmp(header + rows.tobytes()),
                                      img)

    def test_image_resize_nn(self):
        from tldr_ray.stages.multimodal import image_resize_nn

        img = np.arange(16, dtype=np.uint8).reshape(4, 4)
        small = image_resize_nn(img, 2, 2)
        np.testing.assert_array_equal(small, [[0, 2], [8, 10]])
        big = image_resize_nn(img, 8, 8)
        assert big.shape == (8, 8) and big[0, 0] == 0 and big[-1, -1] == 15

    def test_builtin_decoder_real_payloads_and_refusal(self):
        import ray.data as rd
        from tldr_ray.stages.multimodal import (MediaFeatureExtractor,
                                                extract_media_features,
                                                synth_media_table)

        tab = synth_media_table(12)
        nonvid = tab.filter(pa.compute.not_equal(tab["kind"], "video"))
        out = extract_media_features(rd.from_arrow(nonvid), dim=16,
                                     decoder="builtin").to_pandas()
        assert len(out) == len(nonvid)
        assert all(len(f) == 16 for f in out["feature"])
        # image features carry the true height/width in slots 0-1
        imgs = tab.to_pandas().query("kind == 'image'").set_index("media_id")
        feats = out.set_index("media_id")
        for mid, row in imgs.iterrows():
            f = feats.loc[mid, "feature"]
            assert f[0] == row["height"] and f[1] == row["width"]
        # unsupported mime refuses loudly, never silently fakes
        stage = MediaFeatureExtractor(decoder="builtin")
        vid = tab.filter(pa.compute.equal(tab["kind"], "video"))
        with pytest.raises(NotImplementedError):
            stage(vid)

    def test_frame_sampler(self):
        import ray.data as rd
        from tldr_ray.stages.multimodal import synth_media_table, sample_frames

        tab = synth_media_table(12)
        out = sample_frames(rd.from_arrow(tab), every_ms=500).to_pandas()
        videos = tab.to_pandas().query("kind == 'video'")
        want = sum(len(range(0, d, 500)) for d in videos["duration_ms"])
        assert len(out) == want
        assert (out["ts_ms"] % 500 == 0).all()


@pytest.mark.usefixtures("ray_session")
class TestSketches:
    def test_hll_estimate_error_bound(self):
        """HLL standard error is ~1.04/sqrt(m); b=10 -> ~3.3%. Assert a
        generous 4-sigma envelope over a 20K-distinct synthetic id
        stream with duplicates."""
        import ray.data as rd
        from tldr_ray.stages.sketches import approx_distinct

        n_distinct = 20_000
        ids = np.concatenate([np.arange(n_distinct)] * 3)  # x3 dupes
        ds = rd.from_arrow(pa.table({"v": ids}))
        out = approx_distinct(ds, "v", b=10)
        rel = abs(out["estimate"] - n_distinct) / n_distinct
        assert rel < 4 * 1.04 / np.sqrt(1 << 10), out

    def test_registers_merge_invariant_to_partitioning(self):
        """Element-wise-max merge means the register table must not
        depend on block layout."""
        import ray.data as rd
        from tldr_ray.stages.sketches import hll_registers

        vals = pa.table({"v": np.arange(5000, dtype=np.int64)})
        a = hll_registers(rd.from_arrow(vals), "v", b=8).to_pandas()
        b = hll_registers(
            rd.from_arrow(vals).repartition(7), "v", b=8).to_pandas()
        pd.testing.assert_frame_equal(
            a.sort_values("bucket").reset_index(drop=True),
            b.sort_values("bucket").reset_index(drop=True))

    def test_exact_at_tiny_cardinality(self):
        """Linear-counting branch: tiny distinct sets estimate ~exact."""
        import ray.data as rd
        from tldr_ray.stages.sketches import approx_distinct

        ds = rd.from_arrow(pa.table(
            {"v": pa.array(["a", "b", "c", "a", "b"] * 50)}))
        out = approx_distinct(ds, "v", b=10)
        assert round(out["estimate"]) == 3

    def test_grouped_hll_estimates_and_merge(self):
        """Per-group register tables are partition-invariant and the
        estimates track exact per-group distinct counts."""
        import ray.data as rd
        from tldr_ray.stages.sketches import (grouped_hll_estimates,
                                              grouped_hll_registers)

        rng = np.random.default_rng(7)
        n = 12000
        t = pa.table({
            "g": pa.array(np.where(np.arange(n) % 3 == 0, "x", "y")),
            "v": pa.array(rng.integers(0, 900, n)),
        })
        a = grouped_hll_registers(rd.from_arrow(t), "g", "v",
                                  b=8).to_pandas()
        bb = grouped_hll_registers(rd.from_arrow(t).repartition(9),
                                   "g", "v", b=8).to_pandas()
        key = ["g", "bucket"]
        pd.testing.assert_frame_equal(
            a.sort_values(key).reset_index(drop=True),
            bb.sort_values(key).reset_index(drop=True))
        est = grouped_hll_estimates(a, "g", b=8).set_index("g")
        df = pd.DataFrame({"g": np.asarray(t["g"]),
                           "v": np.asarray(t["v"])})
        for g, sub in df.groupby("g"):
            true = sub["v"].nunique()
            rel = abs(est.loc[g, "estimate"] - true) / true
            assert rel < 4 * 1.04 / np.sqrt(256), (g, true, est.loc[g])

    def test_countmin_never_underestimates_and_merges(self):
        """CM point estimates >= true counts, partitioning-invariant
        registers (sum merge), and exact on values with no collisions'
        worth of background mass."""
        import ray.data as rd
        from tldr_ray.stages.sketches import cm_estimate, countmin_registers

        rng = np.random.default_rng(3)
        vals = np.concatenate([np.repeat("hot", 500),
                               rng.integers(0, 200, 2000).astype(str)])
        t = pa.table({"v": pa.array(vals)})
        a = countmin_registers(rd.from_arrow(t), "v", d=4, w=256).to_pandas()
        b = countmin_registers(rd.from_arrow(t).repartition(5),
                               "v", d=4, w=256).to_pandas()
        key = ["row", "bucket"]
        pd.testing.assert_frame_equal(
            a.sort_values(key).reset_index(drop=True),
            b.sort_values(key).reset_index(drop=True))
        uniq, true = np.unique(vals, return_counts=True)
        est = cm_estimate(a, list(uniq), d=4, w=256)
        assert (est >= true).all()
        # eps*N = e/256 * 2500 ~ 27; generous envelope
        assert (est - true).max() <= 4 * int(np.e / 256 * vals.size + 1)

    def test_grouped_quantiles_match_pandas(self):
        import ray.data as rd
        from tldr_ray.stages.agg import grouped_quantiles

        rng = np.random.default_rng(9)
        keys = rng.choice(["a", "b", "c", "dd"], 3000)
        vals = rng.normal(size=3000).round(4)
        t = pa.table({"k": pa.array(keys), "v": pa.array(vals)})
        out = (grouped_quantiles(rd.from_arrow(t).repartition(5),
                                 "k", "v", qs=(0.5, 0.9))
               .to_pandas().sort_values("k").reset_index(drop=True))
        for _, row in out.iterrows():
            g = np.sort(vals[keys == row["k"]])
            for q, col in ((0.5, "p50"), (0.9, "p90")):
                idx = max(int(np.ceil(np.float64(q) * g.size)), 1) - 1
                assert row[col] == g[idx], (row["k"], col)

    def test_pivot_table_counts_sums_and_guard(self):
        import ray.data as rd
        from tldr_ray.stages.agg import pivot_table

        t = pa.table({
            "k": pa.array([1, 1, 2, 2, 2], pa.int64()),
            "p": pa.array(["a", "b", "a", "a", "b"]),
            "v": pa.array([1.005, 2.0, 0.5, 0.25, 10.0]),
        })
        out = (pivot_table(rd.from_arrow(t).repartition(3), "k", "p",
                           value_col="v")
               .to_pandas().sort_values("k").reset_index(drop=True))
        assert out["n_a"].tolist() == [1, 2]
        assert out["n_b"].tolist() == [1, 1]
        # floor(x*100+0.5) cents: 1.005 -> 101 (IEEE 1.005*100=100.49..
        # +0.5 floors to 100? no: floor(100.49..+0.5)=floor(100.99..)=100)
        assert out["cents_a"].tolist() == [
            int(np.floor(1.005 * 100 + 0.5)),
            int(np.floor(0.5 * 100 + 0.5)) + int(np.floor(0.25 * 100 + 0.5))]
        assert out["cents_b"].tolist() == [200, 1000]
        with pytest.raises(ValueError):
            pivot_table(rd.from_arrow(t), "k", "p",
                        max_pivot_values=1).materialize()

    def test_iqr_outliers_match_numpy(self):
        import ray.data as rd
        from tldr_ray.stages.agg import iqr_outliers

        rng = np.random.default_rng(13)
        k = rng.choice(["a", "b"], 3000)
        v = rng.normal(50, 10, 3000).round(3)
        v[:5] = 500.0                        # planted outliers
        t = pa.table({"id": pa.array(np.arange(3000, dtype=np.int64)),
                      "k": pa.array(k), "v": pa.array(v)})
        out = (iqr_outliers(rd.from_arrow(t).repartition(5), "k", "v")
               .to_pandas().sort_values("id").reset_index(drop=True))
        exp_ids = []
        for g in ["a", "b"]:
            gv = np.sort(v[k == g])
            n = gv.size
            p25 = gv[max(int(np.ceil(0.25 * n)), 1) - 1]
            p75 = gv[max(int(np.ceil(0.75 * n)), 1) - 1]
            thr = p75 + 1.5 * (p75 - p25)
            exp_ids += np.flatnonzero((k == g) & (v > thr)).tolist()
        assert out["id"].tolist() == sorted(exp_ids)
        assert set(range(5)) <= set(out["id"])   # planted ones caught

    def test_set_op_except_intersect(self):
        import ray.data as rd
        from tldr_ray.stages.joins import set_op

        l = rd.from_arrow(pa.table(
            {"k": pa.array([1, 2, 2, 3, 4], pa.int64())})).repartition(3)
        r = rd.from_arrow(pa.table(
            {"k": pa.array([2, 4, 5], pa.int64())})).repartition(2)
        ex = sorted(set_op(l, r, ["k"], "except")
                    .to_pandas()["k"].tolist())
        it = sorted(set_op(l, r, ["k"], "intersect")
                    .to_pandas()["k"].tolist())
        assert ex == [1, 3]         # distinct, left-only
        assert it == [2, 4]
        with pytest.raises(ValueError):
            set_op(l, r, ["k"], "union")

    def test_stratified_sample_rates_and_determinism(self):
        """Observed keep-rates track the target per stratum; the
        sample is identical across partitionings; rate 1.0 keeps all,
        unknown strata default to drop."""
        import ray.data as rd
        from tldr_ray.stages.agg import stratified_sample

        n = 8000
        t = pa.table({
            "id": pa.array(np.arange(n, dtype=np.int64)),
            "s": pa.array(np.where(np.arange(n) % 2 == 0, "a", "b")),
        })
        rates = {"a": 0.25, "b": 1.0}
        out1 = (stratified_sample(rd.from_arrow(t), "s", "id", rates)
                .to_pandas().sort_values("id").reset_index(drop=True))
        out2 = (stratified_sample(rd.from_arrow(t).repartition(7),
                                  "s", "id", rates)
                .to_pandas().sort_values("id").reset_index(drop=True))
        pd.testing.assert_frame_equal(out1, out2)
        na = (out1["s"] == "a").sum()
        assert (out1["s"] == "b").sum() == n // 2          # rate 1.0
        assert abs(na / (n // 2) - 0.25) < 0.03            # ~4 sigma
        none = stratified_sample(rd.from_arrow(t), "s", "id",
                                 {"zzz": 1.0}).to_pandas()
        assert len(none) == 0                              # default 0.0

    def test_rollup_levels_consistent(self):
        """Level sums must telescope: total == sum of level-1 rows ==
        sum of level-2 rows; partitioning-invariant."""
        import ray.data as rd
        from tldr_ray.stages.agg import rollup_aggregate

        rng = np.random.default_rng(41)
        df = pd.DataFrame({
            "x": rng.choice(["a", "b", "c"], 500),
            "y": rng.choice(["u", "v"], 500),
            "val": rng.uniform(0, 10, 500),
        })
        out = (rollup_aggregate(
            rd.from_arrow(pa.Table.from_pandas(df)).repartition(4),
            ["x", "y"], value_col="val").to_pandas())
        total = out[(out["x"] == "ALL")]
        lvl1 = out[(out["x"] != "ALL") & (out["y"] == "ALL")]
        lvl2 = out[(out["y"] != "ALL")]
        assert len(total) == 1 and total["n"].iloc[0] == 500
        assert lvl1["n"].sum() == 500 and lvl2["n"].sum() == 500
        assert total["cents"].iloc[0] == lvl1["cents"].sum() \
            == lvl2["cents"].sum()
        exact = np.floor(df["val"].to_numpy() * 100.0 + 0.5).astype(
            np.int64).sum()
        assert total["cents"].iloc[0] == exact

    def test_cube_matches_pandas(self):
        """CUBE output must equal the four pandas groupby results;
        partitioning-invariant."""
        import ray.data as rd
        from tldr_ray.stages.agg import cube_aggregate

        rng = np.random.default_rng(42)
        df = pd.DataFrame({
            "x": rng.choice(["a", "b", "c"], 400),
            "y": rng.choice(["u", "v"], 400),
            "val": rng.uniform(0, 10, 400),
        })
        out = (cube_aggregate(
            rd.from_arrow(pa.Table.from_pandas(df)).repartition(4),
            ["x", "y"], value_col="val").to_pandas())
        assert len(out) == 1 + 3 + 2 + 6
        cents = np.floor(df["val"].to_numpy() * 100.0 + 0.5).astype(
            np.int64)
        # the (y)-only set: rolled x, grouped y
        yonly = out[(out["x"] == "ALL") & (out["y"] != "ALL")] \
            .set_index("y")
        for yv in ("u", "v"):
            m = df["y"].to_numpy() == yv
            assert yonly.loc[yv, "n"] == m.sum()
            assert yonly.loc[yv, "cents"] == cents[m].sum()
        # grand total row telescopes
        tot = out[(out["x"] == "ALL") & (out["y"] == "ALL")]
        assert tot["n"].iloc[0] == 400 and \
            tot["cents"].iloc[0] == cents.sum()

    def test_bottomk_partition_invariant_and_kmv(self):
        import ray.data as rd
        from tldr_ray.stages.agg import bottomk_sample, kmv_distinct_estimate

        n = 20_000
        t = pa.table({"id": pa.array(np.arange(n, dtype=np.int64))})
        a = bottomk_sample(rd.from_arrow(t), "id", k=256).to_pandas()
        b = bottomk_sample(rd.from_arrow(t).repartition(9),
                           "id", k=256).to_pandas()
        pd.testing.assert_frame_equal(
            a.sort_values("key_hash").reset_index(drop=True),
            b.sort_values("key_hash").reset_index(drop=True))
        assert a["id"].dtype == np.int64      # original dtype preserved
        est = kmv_distinct_estimate(a, 256)
        assert abs(est - n) / n < 4 / np.sqrt(256)  # ~4 sigma KMV error

    def test_bottomk_exact_below_k(self):
        import ray.data as rd
        from tldr_ray.stages.agg import bottomk_sample, kmv_distinct_estimate

        t = pa.table({"id": pa.array(["x", "y", "z", "x"] * 10)})
        out = bottomk_sample(rd.from_arrow(t), "id", k=50).to_pandas()
        assert sorted(out["id"]) == ["x", "y", "z"]
        assert kmv_distinct_estimate(out, 50) == 3.0

    def test_heavy_hitters_surface_true_top(self):
        import ray.data as rd
        from tldr_ray.stages.sketches import heavy_hitters

        rng = np.random.default_rng(11)
        heavy = np.repeat([f"h{i}" for i in range(5)],
                          [900, 700, 500, 300, 200])
        noise = rng.integers(0, 5000, 3000).astype(str)
        t = pa.table({"v": pa.array(np.concatenate([heavy, noise]))})
        out = heavy_hitters(rd.from_arrow(t).repartition(4), "v", k=5)
        assert set(out["value"]) == {f"h{i}" for i in range(5)}
        # CM never underestimates: h0's estimate >= 900
        assert out.loc[out["value"] == "h0", "est_count"].iloc[0] >= 900

    def test_bloom_no_false_negatives_and_fp_bound(self):
        """Every inserted key probes True; absent-key fp rate stays
        near the analytic bound; bit table partition-invariant."""
        import ray.data as rd
        from tldr_ray.stages.sketches import (bloom_bits,
                                              bloom_maybe_contains)

        n, m, k = 500, 4096, 3
        ids = np.arange(n, dtype=np.int64)
        t = pa.table({"v": pa.array(ids)})
        a = bloom_bits(rd.from_arrow(t), "v", m=m, k=k).to_pandas()
        b = bloom_bits(rd.from_arrow(t).repartition(7), "v",
                       m=m, k=k).to_pandas()
        pd.testing.assert_frame_equal(
            a.sort_values("bit").reset_index(drop=True),
            b.sort_values("bit").reset_index(drop=True))
        arr = np.zeros(m, dtype=np.int64)
        arr[a["bit"].to_numpy(np.int64)] = a["set"].to_numpy(np.int64)
        present = bloom_maybe_contains(arr, pa.array(ids), m, k)
        assert present.all()                      # never a false neg
        absent = bloom_maybe_contains(
            arr, pa.array(np.arange(10_000, 20_000, dtype=np.int64)),
            m, k)
        fp = absent.mean()
        bound = (1 - np.exp(-k * n / m)) ** k     # ~0.028
        assert fp < 4 * bound + 0.01, fp

    def test_histogram_counts_exact_and_merge_invariant(self):
        """Register counts equal an exact bincount regardless of block
        layout (sum merge); out-of-range values clamp to edge bins."""
        import ray.data as rd
        from tldr_ray.stages.sketches import histogram_registers

        rng = np.random.default_rng(17)
        vals = np.concatenate([rng.uniform(0, 100, 4000),
                               [-5.0, 250.0]])       # clamped outliers
        t = pa.table({"v": pa.array(vals)})
        a = histogram_registers(rd.from_arrow(t), "v",
                                0.0, 100.0, bins=32).to_pandas()
        b = histogram_registers(rd.from_arrow(t).repartition(7), "v",
                                0.0, 100.0, bins=32).to_pandas()
        pd.testing.assert_frame_equal(
            a.sort_values("bin").reset_index(drop=True),
            b.sort_values("bin").reset_index(drop=True))
        exact = np.bincount(
            np.clip(np.floor(((vals - 0.0) * np.float64(32)) / 100.0),
                    0, 31).astype(np.int64), minlength=32)
        assert (a.sort_values("bin")["count"].to_numpy() == exact).all()
        assert int(a["count"].sum()) == vals.size   # clamped rows kept

    def test_histogram_grouped_dense_and_quantiles(self):
        """Grouped registers are dense per observed group; interpolated
        quantiles land within one bin width of the exact value."""
        import ray.data as rd
        from tldr_ray.stages.sketches import (
            approx_quantiles_from_histogram, histogram_registers)

        rng = np.random.default_rng(23)
        keys = rng.choice(["a", "b"], 6000)
        vals = rng.uniform(0, 200, 6000)
        t = pa.table({"k": pa.array(keys), "v": pa.array(vals)})
        regs = histogram_registers(rd.from_arrow(t).repartition(5), "v",
                                   0.0, 200.0, bins=64,
                                   by="k").to_pandas()
        assert len(regs) == 2 * 64                  # dense grid
        assert int(regs["count"].sum()) == 6000
        est = approx_quantiles_from_histogram(
            regs, 0.0, 200.0, 64, qs=(0.5, 0.9), by="k")
        width = 200.0 / 64
        for _, row in est.iterrows():
            g = vals[keys == row["k"]]
            for q, col in ((0.5, "p50"), (0.9, "p90")):
                assert abs(row[col] - np.quantile(g, q)) <= width, row


@pytest.mark.usefixtures("ray_session")
class TestKmeans:
    def test_kmeans_recovers_planted_clusters(self):
        """Three well-separated planted directions: k-means must put
        each planted group in one cluster; same-layout rerun is
        bitwise-identical; intra-cluster cosine beats the global
        mean."""
        import ray.data as rd
        from tldr_ray.stages.ann import kmeans

        rng = np.random.default_rng(3)
        base = np.eye(3, 16, dtype=np.float32) * 10
        vecs, labels = [], []
        for g in range(3):
            vecs.append(base[g] + rng.normal(0, 0.3, (40, 16)))
            labels += [g] * 40
        mat = np.concatenate(vecs).astype(np.float32)
        t = pa.table({"vec_id": pa.array(np.arange(120, dtype=np.int64)),
                      "embedding": pa.array(list(mat))})
        ds = rd.from_arrow(t)
        cent, assign = kmeans(ds, k=3, iters=4, sample_size=120)
        out = assign.to_pandas().sort_values("vec_id")
        got = out["centroid"].to_numpy()
        # each planted group maps to exactly one cluster id
        for g in range(3):
            ids = got[np.asarray(labels) == g]
            assert (ids == ids[0]).all(), g
        assert len(set(got[::40])) == 3          # groups distinct
        # same layout -> identical result
        cent2, assign2 = kmeans(ds, k=3, iters=4, sample_size=120)
        assert np.array_equal(cent, cent2)
        pd.testing.assert_frame_equal(
            out.reset_index(drop=True),
            assign2.to_pandas().sort_values("vec_id")
            .reset_index(drop=True))
        assert (out["cosine"] > 0.9).all()       # tight planted clusters


class TestPnmDecoders:
    def test_pgm_roundtrip(self):
        from tldr_ray.stages.multimodal import builtin_decoder, decode_pgm

        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, (9, 7), dtype=np.uint8)
        payload = b"P5\n# c\n7 9\n255\n" + img.tobytes()
        assert np.array_equal(decode_pgm(payload), img)
        feat = builtin_decoder(payload, "image/x-portable-graymap")
        assert feat.shape == (64,) and feat[0] == 9 and feat[1] == 7

    def test_pbm_bits_and_padding(self):
        from tldr_ray.stages.multimodal import builtin_decoder, decode_pbm

        # 10x2: rows pack to 2 bytes each (6 pad bits ignored)
        bits = np.zeros((2, 10), dtype=np.uint8)
        bits[0, 0] = bits[1, 9] = 1
        packed = np.packbits(
            np.pad(bits, ((0, 0), (0, 6))), axis=1).tobytes()
        payload = b"P4\n10 2\n" + packed
        img = decode_pbm(payload)
        assert img.shape == (2, 10)
        assert img[0, 0] == 0 and img[1, 9] == 0      # set bit = black
        assert img[0, 1] == 255
        feat = builtin_decoder(payload, "image/x-portable-bitmap")
        assert feat.shape == (64,)

    def test_wrong_magic_raises(self):
        import pytest as _pytest
        from tldr_ray.stages.multimodal import decode_pgm

        with _pytest.raises(NotImplementedError):
            decode_pgm(b"P6\n1 1\n255\n\x00\x00\x00")


@pytest.mark.usefixtures("ray_session")
class TestSaltedSum:
    def test_salted_equals_plain_on_skew(self):
        """90%-hot-key dataset: the salted two-phase totals must equal
        a direct pandas groupby, with either salt source."""
        import ray.data as rd
        from tldr_ray.stages.agg import salted_group_sum

        rng = np.random.default_rng(19)
        n = 5000
        keys = np.where(rng.uniform(size=n) < 0.9, "hot", "cold")
        t = pa.table({
            "k": pa.array(keys),
            "sid": pa.array(np.arange(n, dtype=np.int64)),
            "x": pa.array(rng.integers(0, 100, n).astype(np.int64)),
        })
        want = (pd.DataFrame({"k": keys, "x": np.asarray(t["x"])})
                .groupby("k")["x"].sum())
        for salt_col in (None, "sid"):
            out = (salted_group_sum(rd.from_arrow(t).repartition(6),
                                    "k", ["x"], salt_buckets=8,
                                    salt_col=salt_col)
                   .to_pandas().set_index("k")["x"])
            assert out["hot"] == want["hot"], salt_col
            assert out["cold"] == want["cold"], salt_col


@pytest.mark.usefixtures("ray_session")
class TestJsonExtract:
    def test_extract_fields_and_nulls(self):
        import ray.data as rd
        from tldr_ray.stages.semistructured import json_extract

        t = pa.table({
            "id": pa.array([1, 2, 3, 4], pa.int64()),
            "j": pa.array(['{"k": 5, "s": "x"}', '{"k": -2}',
                           None, '{"s": "y"}']),
        })
        out = (json_extract(rd.from_arrow(t), "j",
                            {"k": "$.k", "s": "$.s"},
                            cast={"k": "int64"})
               .to_pandas().sort_values("id").reset_index(drop=True))
        assert out["k"].tolist()[:2] == [5, -2]
        assert pd.isna(out["k"].iloc[2]) and pd.isna(out["k"].iloc[3])
        assert out["s"].tolist()[0] == "x" and out["s"].iloc[3] == "y"
        assert "j" not in out.columns

    def test_bad_cast_rejected(self):
        import ray.data as rd
        from tldr_ray.stages.semistructured import json_extract

        with pytest.raises(ValueError):
            json_extract(rd.from_arrow(pa.table({"j": ["{}"]})), "j",
                         {"k": "$.k"}, cast={"k": "bool"})


@pytest.mark.usefixtures("ray_session")
class TestRepetitionScores:
    def test_duplicate_line_accounting(self):
        import ray.data as rd
        from tldr_ray.stages.text_analysis import repetition_scores

        t = pa.table({
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array([
                "spam\nspam\nspam\nunique",   # 3x 'spam' (4 ch) dup
                "a\nb\nc",                      # no dups
                "",                             # no lines at all
            ]),
        })
        out = (repetition_scores(rd.from_arrow(t)).to_pandas()
               .sort_values("doc_id").reset_index(drop=True))
        assert out["n_lines"].tolist() == [4, 3, 0]
        assert out["n_distinct_lines"].tolist() == [2, 3, 0]
        assert out["dup_line_chars"].tolist() == [12, 0, 0]


@pytest.mark.usefixtures("ray_session")
class TestUnigramLogprob:
    def test_matches_numpy_and_flags_gibberish(self):
        import ray.data as rd
        from tldr_ray.stages.text_analysis import unigram_logprob

        texts = ["the cat sat on the mat",
                 "the dog sat on the cat",
                 "zzqx qxzv vvvk wwpq"]           # OOV-ish gibberish
        t = pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                      "text": pa.array(texts)})
        out = (unigram_logprob(rd.from_arrow(t).repartition(2))
               .to_pandas().sort_values("doc_id")
               .reset_index(drop=True))
        # numpy oracle: identical formula
        from collections import Counter
        toks = [s.lower().split() for s in texts]
        cnt = Counter(w for ws in toks for w in ws)
        N, V = sum(cnt.values()), len(cnt)
        for i, ws in enumerate(toks):
            lp = np.mean([np.log2((cnt[w] + 1.0) / (N + V + 1.0))
                          for w in ws])
            assert abs(out["mean_log2_prob"].iloc[i] - lp) < 1e-12, i
        # gibberish scores lowest
        assert out["mean_log2_prob"].idxmin() == 2
        assert out["n_tokens"].tolist() == [6, 6, 4]


@pytest.mark.usefixtures("ray_session")
class TestEmptyInputs:
    def test_stages_handle_zero_rows(self):
        """Every vectorized stage must pass 0-row datasets through
        without crashing (the sweep that found the pivot empty-domain
        bug)."""
        import ray.data as rd
        from tldr_ray.stages.agg import (grouped_mode, grouped_quantiles,
                                         pivot_table, rollup_aggregate,
                                         stratified_sample, unpivot)
        from tldr_ray.stages.sketches import (histogram_registers,
                                              hll_registers)
        from tldr_ray.stages.windows import funnel, row_window

        empty = rd.from_arrow(pa.table({
            "k": pa.array([], pa.string()),
            "v": pa.array([], pa.float64()),
            "id": pa.array([], pa.int64()),
            "ts": pa.array([], pa.int64())}))
        for make in [
            lambda: grouped_quantiles(empty, "k", "v"),
            lambda: pivot_table(empty, "id", "k"),
            lambda: rollup_aggregate(empty, ["k"], value_col="v"),
            lambda: grouped_mode(empty, "id", "k"),
            lambda: stratified_sample(empty, "k", "id", {"a": 0.5}),
            lambda: unpivot(empty, ["id"], ["v"]),
            lambda: row_window(empty, "id", ["ts"]),
            lambda: funnel(empty, "id", "ts", "k", ["a"]),
            lambda: hll_registers(empty, "id"),
            lambda: histogram_registers(empty, "v", 0.0, 1.0, 8),
        ]:
            assert make().count() >= 0

    def test_late_round3_stages_handle_zero_rows(self):
        import ray.data as rd
        from tldr_ray.stages.agg import (budget_cap, grouped_bottomk,
                                         grouped_linear_trend,
                                         zorder_sort)
        from tldr_ray.stages.dedup import signature_pairs
        from tldr_ray.stages.joins import (bucketed_semi_join,
                                           table_diff)
        from tldr_ray.stages.text_analysis import (build_inverted_index,
                                                   compression_ratio)

        empty = rd.from_arrow(pa.table({
            "k": pa.array([], pa.string()),
            "id": pa.array([], pa.int64()),
            "v": pa.array([], pa.int64()),
            "text": pa.array([], pa.string()),
            "sig": pa.array([], pa.int64())}))
        one = rd.from_arrow(pa.table({
            "k": pa.array(["a"]), "id": pa.array([1], pa.int64()),
            "v": pa.array([2], pa.int64()),
            "text": pa.array(["x y"]),
            "sig": pa.array([7], pa.int64())}))
        for make in [
            lambda: budget_cap(empty, "k", "v", ["id"], budget=10),
            lambda: grouped_bottomk(empty, "k", "id", k=2),
            lambda: grouped_linear_trend(empty, "k", "id", "v"),
            lambda: zorder_sort(empty, ["id", "v"]),
            lambda: signature_pairs(empty, "id", "sig"),
            lambda: bucketed_semi_join(empty, one, on="id"),
            lambda: bucketed_semi_join(one, empty, on="id"),
            lambda: table_diff(empty, one, "id", ["v"]),
            lambda: table_diff(one, empty, "id", ["v"]),
            lambda: build_inverted_index(empty, "id", "text"),
            lambda: compression_ratio(empty, "id", "text"),
        ]:
            assert make().count() >= 0


@pytest.mark.usefixtures("ray_session")
class TestLinearFit:
    def test_recovers_planted_weights(self):
        import ray.data as rd
        from tldr_ray.stages.ann import linear_fit

        rng = np.random.default_rng(29)
        n, d = 4000, 8
        X = rng.normal(size=(n, d)).astype(np.float32)
        w_true = np.arange(1, d + 1, dtype=np.float64)
        y = X.astype(np.float64) @ w_true + 2.5 \
            + rng.normal(0, 0.01, n)
        t = pa.table({"embedding": pa.array(list(X)),
                      "y": pa.array(y)})
        ds = rd.from_arrow(t).repartition(7)
        w, b, nn = linear_fit(ds, "embedding", "y")
        assert nn == n
        np.testing.assert_allclose(w, w_true, atol=0.01)
        assert abs(b - 2.5) < 0.01
        # same layout -> identical
        w2, b2, _ = linear_fit(ds, "embedding", "y")
        assert np.array_equal(w, w2) and b == b2

    def test_empty_raises(self):
        import ray.data as rd
        from tldr_ray.stages.ann import linear_fit

        t = pa.table({"embedding": pa.array([], pa.list_(pa.float32())),
                      "y": pa.array([], pa.float64())})
        with pytest.raises(ValueError):
            linear_fit(rd.from_arrow(t))


@pytest.mark.usefixtures("ray_session")
class TestRedactAndContamination:
    def test_redact_emails_and_terms(self):
        import ray.data as rd
        from tldr_ray.stages.text_analysis import regex_redact

        t = pa.table({
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array([
                "write to bob.smith+x@corp-mail.co today",
                "no pii at all",
                "a@b.io and c.d@e.org twice"])})
        pat = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
        out = regex_redact(rd.from_arrow(t), pat).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        assert out["n_matches"].tolist() == [1, 0, 2]
        assert out["redacted"][0] == "write to [REDACTED] today"
        assert out["redacted"][1] == "no pii at all"
        assert out["redacted"][2] == "[REDACTED] and [REDACTED] twice"

    def test_contamination_counts(self):
        import ray.data as rd
        from tldr_ray.stages.dedup import ngram_contamination

        bench = pa.table({
            "doc_id": pa.array([100], pa.int64()),
            "text": pa.array(["the quick brown fox jumps over the lazy dog"])})
        docs = pa.table({
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array([
                # identical to the benchmark doc: shares every gram
                "the quick brown fox jumps over the lazy dog",
                # shares a >=k char substring -> at least one gram
                "xx the quick brown fox jumps zz",
                # disjoint text
                "completely unrelated content with no overlap here",
                # shorter than k: must report 0, not a padded match
                "the quick"])})
        k = 12
        out = ngram_contamination(rd.from_arrow(docs),
                                  rd.from_arrow(bench), k=k) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        n_grams_full = len(bench["text"][0].as_py()) - k + 1
        assert out["n_shared"].tolist()[0] == n_grams_full
        assert out["n_shared"][1] >= 1
        assert out["n_shared"][2] == 0
        assert out["n_shared"][3] == 0

    def test_contamination_empty_bench(self):
        import ray.data as rd
        from tldr_ray.stages.dedup import ngram_contamination

        docs = pa.table({"doc_id": pa.array([0], pa.int64()),
                         "text": pa.array(["some document text here"])})
        bench = pa.table({"doc_id": pa.array([], pa.int64()),
                          "text": pa.array([], pa.string())})
        out = ngram_contamination(rd.from_arrow(docs),
                                  rd.from_arrow(bench)).to_pandas()
        assert out["n_shared"].tolist() == [0]


@pytest.mark.usefixtures("ray_session")
class TestCommonNeighbors:
    @staticmethod
    def _run(src, dst, **kw):
        import ray.data as rd
        from tldr_ray.graph.triangles import common_neighbors

        t = pa.table({"src": pa.array(src, pa.int64()),
                      "dst": pa.array(dst, pa.int64()),
                      "weight": pa.array([1.0] * len(src))})
        out = common_neighbors(rd.from_arrow(t), **kw).to_pandas()
        return {(int(r.u), int(r.v)): int(r.n_common)
                for r in out.itertuples()}

    def test_square_and_triangle(self):
        # square 1-2-3-4-1: diagonals share two neighbors each
        got = self._run([1, 2, 3, 4], [2, 3, 4, 1])
        assert got == {(1, 3): 2, (2, 4): 2}
        # triangle: every 2-path endpoint pair is adjacent -> no rows
        assert self._run([1, 2, 3], [2, 3, 1]) == {}

    def test_path_and_dup_edges(self):
        # path 1-2-3 (with duplicate + reversed edge noise)
        got = self._run([1, 2, 2, 3], [2, 3, 1, 2])
        assert got == {(1, 3): 1}

    def test_max_degree_clamp(self):
        # star center 0 with 5 leaves: every leaf pair shares center
        src = [0] * 5
        dst = [1, 2, 3, 4, 5]
        assert len(self._run(src, dst)) == 10
        assert self._run(src, dst, max_degree=4) == {}


@pytest.mark.usefixtures("ray_session")
class TestPackAndSink:
    def test_pack_matches_serial_scan(self):
        import ray.data as rd
        from tldr_ray.stages.agg import pack_token_shards

        rng = np.random.default_rng(7)
        n = 400
        ids = rng.permutation(n).astype(np.int64)   # arrival order != id
        w = rng.integers(1, 50, n).astype(np.int64)
        t = pa.table({"doc_id": pa.array(ids), "n_tokens": pa.array(w)})
        out = pack_token_shards(rd.from_arrow(t).repartition(9),
                                "doc_id", "n_tokens", budget=100,
                                num_parts=8) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        order = np.argsort(ids)
        before = np.cumsum(w[order]) - w[order]
        assert out["shard_id"].tolist() == (before // 100).tolist()
        assert out["n_tokens"].tolist() == w[order].tolist()

    def test_partitioned_write_resume(self, tmp_path):
        import os
        import ray.data as rd
        import pyarrow.parquet as pq
        from tldr_ray.sinks import write_partitioned_parquet

        out = str(tmp_path / "out")
        t = pa.table({"k": pa.array(["a", "b", "c"] * 10),
                      "x": pa.array(range(30))})
        r1 = write_partitioned_parquet(rd.from_arrow(t), out, by="k")
        assert sorted(r1["written"]) == ["a", "b", "c"]
        # simulate a crash: partition b loses its marker (incomplete),
        # partition c survives complete
        os.remove(os.path.join(out, "k=b", "_DONE"))
        import shutil
        shutil.rmtree(os.path.join(out, "k=a"))
        r2 = write_partitioned_parquet(rd.from_arrow(t), out, by="k")
        assert sorted(r2["written"]) == ["a", "b"]
        assert r2["skipped"] == ["c"]
        back = pq.read_table(out).to_pandas() \
            .sort_values(["k", "x"]).reset_index(drop=True)
        want = t.to_pandas().sort_values(["k", "x"]) \
            .reset_index(drop=True)
        assert back["x"].tolist() == want["x"].tolist()


@pytest.mark.usefixtures("ray_session")
class TestRandomWalks:
    def test_walks_follow_edges_and_repeat(self):
        import ray.data as rd
        from tldr_ray.graph.walks import random_walks

        # two triangles joined by a bridge
        src = [0, 1, 2, 2, 3, 4, 5]
        dst = [1, 2, 0, 3, 4, 5, 3]
        t = pa.table({"src": pa.array(src, pa.int64()),
                      "dst": pa.array(dst, pa.int64()),
                      "weight": pa.array([1.0] * len(src))})
        ds = rd.from_arrow(t)
        out = random_walks(ds, walk_len=3).to_pandas()
        adj = set()
        for a, b in zip(src, dst):
            adj.add((a, b)); adj.add((b, a))
        walks = out.sort_values(["start", "step"]) \
            .groupby("start")["vertex"].apply(list)
        assert set(walks.index) == {0, 1, 2, 3, 4, 5}
        for start, path in walks.items():
            assert len(path) == 4 and path[0] == start
            for u, v in zip(path, path[1:]):
                assert (u, v) in adj
        # deterministic: a second run is row-for-row identical
        out2 = random_walks(ds, walk_len=3).to_pandas()
        a = out.sort_values(["start", "step"]).reset_index(drop=True)
        b = out2.sort_values(["start", "step"]).reset_index(drop=True)
        assert a.equals(b)


class TestInvertedIndex:
    def _docs(self):
        import ray.data as rd
        return rd.from_arrow(pa.table({
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(["apple banana apple", "banana cherry",
                              "apple cherry banana cherry"])}))

    def test_postings_and_sorted_layout(self):
        from tldr_ray.stages.text_analysis import build_inverted_index

        idx = build_inverted_index(self._docs()).to_pandas()
        got = {(r.term, r.doc_id): r.tf for r in idx.itertuples()}
        assert got == {("apple", 1): 2, ("banana", 1): 1,
                       ("banana", 2): 1, ("cherry", 2): 1,
                       ("apple", 3): 1, ("banana", 3): 1,
                       ("cherry", 3): 2}
        srt = build_inverted_index(self._docs(),
                                   sort_by_term=True).to_pandas()
        assert list(srt[["term", "doc_id"]].itertuples(index=False)) \
            == sorted(list(srt[["term", "doc_id"]]
                           .itertuples(index=False)))

    def test_and_search_semantics(self):
        from tldr_ray.stages.text_analysis import (boolean_and_search,
                                                   build_inverted_index)

        idx = build_inverted_index(self._docs())
        out = boolean_and_search(idx, ["apple", "cherry"]).to_pandas()
        # only doc 3 has both; ranked by total tf
        assert list(out["doc_id"]) == [3]
        assert list(out["sum_tf"]) == [3]
        out2 = boolean_and_search(idx, ["banana"]).to_pandas()
        assert list(out2["doc_id"]) == [1, 2, 3]


class TestKTruss:
    @staticmethod
    def _seq_truss(pairs, k):
        E = set(pairs)
        while True:
            adj = {}
            for a, b in E:
                adj.setdefault(a, set()).add(b)
                adj.setdefault(b, set()).add(a)
            drop = {(a, b) for a, b in E
                    if len(adj[a] & adj[b]) < k - 2}
            if not drop:
                return E
            E -= drop

    def test_k4_plus_pendant_triangle(self):
        import ray.data as rd
        from tldr_ray.graph.triangles import k_truss

        src = [0, 0, 0, 1, 1, 2, 3, 4, 0, 9]
        dst = [1, 2, 3, 2, 3, 3, 4, 0, 9, 10]
        ds = rd.from_arrow(pa.table({"src": pa.array(src, pa.int64()),
                                     "dst": pa.array(dst, pa.int64())}))
        got4 = set(map(tuple, k_truss(ds, 4).to_pandas()
                       [["u", "v"]].to_numpy().tolist()))
        assert got4 == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
        got3 = set(map(tuple, k_truss(ds, 3).to_pandas()
                       [["u", "v"]].to_numpy().tolist()))
        assert got3 == got4 | {(0, 4), (3, 4), (0, 3)}

    def test_matches_sequential_peeling_random(self, force_shuffle):
        import ray.data as rd
        from tldr_ray.graph.triangles import k_truss

        rng = np.random.default_rng(7)
        m = 220
        src = rng.integers(0, 40, m)
        dst = rng.integers(0, 40, m)
        keep = src != dst
        pairs = {(min(a, b), max(a, b))
                 for a, b in zip(src[keep].tolist(), dst[keep].tolist())}
        ds = rd.from_arrow(pa.table({
            "src": pa.array(src, pa.int64()),
            "dst": pa.array(dst, pa.int64())}))
        for k in (3, 4, 5):
            with force_shuffle():                # force distributed
                out = k_truss(ds, k)
            assert out.schema().names == ["u", "v"]
            df = out.to_pandas()
            # Ray's to_pandas drops columns on 0-row datasets
            got = set() if df.empty else set(
                map(tuple, df[["u", "v"]].to_numpy().tolist()))
            assert got == self._seq_truss(pairs, k), f"k={k}"
            # the size-gated local finisher must agree exactly
            dg = k_truss(ds, k).to_pandas()
            gated = set() if dg.empty else set(
                map(tuple, dg[["u", "v"]].to_numpy().tolist()))
            assert gated == got, f"gate diverged k={k}"


class TestBudgetCap:
    def test_prefix_within_budget(self):
        import ray.data as rd
        from tldr_ray.stages.agg import budget_cap

        t = pa.table({
            "grp": pa.array(["a"] * 4 + ["b"] * 3),
            "pri": pa.array([1, 2, 3, 4, 1, 2, 3], pa.int64()),
            "cost": pa.array([5, 5, 5, 5, 9, 9, 9], pa.int64())})
        out = budget_cap(rd.from_arrow(t), "grp", "cost", ["pri"],
                         budget=12).to_pandas()
        got = sorted(map(tuple, out[["grp", "pri"]].to_numpy().tolist()))
        # a: 5,10 fit, 15 exceeds; b: 9 fits, 18 exceeds
        assert got == [("a", 1), ("a", 2), ("b", 1)]
        assert set(out["cum_cost"]) == {5, 10, 9}


class TestSinksSources:
    def test_write_read_round_trip_three_formats(self, tmp_path):
        import ray.data as rd
        from tldr_ray.sinks import write_table
        from tldr_ray.sources import read_table

        t = pa.table({"k": pa.array([3, 1, 2], pa.int64()),
                      "s": pa.array(["c", "a", "b"])})
        for fmt in ("parquet", "csv", "json"):
            out = str(tmp_path / fmt)
            write_table(rd.from_arrow(t), out, format=fmt)
            back = read_table(out, format=fmt).to_pandas() \
                .sort_values("k").reset_index(drop=True)
            assert back["k"].tolist() == [1, 2, 3]
            assert back["s"].tolist() == ["a", "b", "c"]

    def test_incremental_ingest_manifest(self, tmp_path):
        import pyarrow.parquet as pq
        from tldr_ray.sources import (list_new_files, mark_processed,
                                      read_new_files)

        data = tmp_path / "landing"
        data.mkdir()
        man = str(tmp_path / "manifest.txt")
        pq.write_table(pa.table({"x": pa.array([1, 2], pa.int64())}),
                       str(data / "a.parquet"))
        ds, new = read_new_files(str(data), man)
        assert new == ["a.parquet"] and ds.count() == 2
        mark_processed(man, new)
        # nothing new -> None
        ds2, new2 = read_new_files(str(data), man)
        assert ds2 is None and new2 == []
        # a second landing file -> only the delta is read
        pq.write_table(pa.table({"x": pa.array([3], pa.int64())}),
                       str(data / "b.parquet"))
        ds3, new3 = read_new_files(str(data), man)
        assert new3 == ["b.parquet"]
        assert ds3.to_pandas()["x"].tolist() == [3]
        mark_processed(man, new3)
        assert list_new_files(str(data), man) == []


class TestPerceptualHash:
    def test_dhash_brightness_invariant_and_noise_robust(self):
        from tldr_ray.stages.multimodal import (_synth_ppm, decode_ppm,
                                                dhash64, perturb_ppm)

        rng = np.random.default_rng(3)
        p = _synth_ppm(rng, 32, 24)
        img = decode_ppm(p)
        base = dhash64(img)
        # global brightness shift preserves adjacent comparisons
        # (unclipped — saturation at 255 legitimately changes ties)
        brighter = img.astype(np.int16) + 40
        assert dhash64(brighter) == base
        # a few nudged pixels stay within a small hamming ball
        noisy = decode_ppm(perturb_ppm(p, seed=5))
        ham = bin(int(base) ^ int(dhash64(noisy))).count("1")
        assert ham <= 10
        # a different random image is far away
        other = decode_ppm(_synth_ppm(np.random.default_rng(4), 32, 24))
        assert bin(int(base) ^ int(dhash64(other))).count("1") > 10

    def test_planted_pairs_recovered_exactly(self):
        from tldr_ray.queries import image_phash_dups

        df = image_phash_dups("unused").to_pandas()
        got = set(zip(df["id_a"], df["id_b"]))
        want = {(mid, 10_000 + mid) for mid in range(0, 150, 3)
                if (mid // 3) % 3 == 0}
        assert got == want
        assert (df["hamming"] <= 10).all()


class TestPCA:
    def test_matches_numpy_pca(self):
        import ray.data as rd
        from tldr_ray.stages.ann import pca_fit, pca_transform

        rng = np.random.default_rng(11)
        # planted low-rank structure + noise
        Z = rng.standard_normal((400, 3)) * np.array([9.0, 4.0, 1.5])
        B = rng.standard_normal((3, 12))
        X = Z @ B + 0.05 * rng.standard_normal((400, 12)) + 2.0
        t = pa.table({"vec_id": pa.array(range(400), pa.int64()),
                      "embedding": pa.array(
                          [r for r in X.astype(np.float32)],
                          pa.list_(pa.float32()))})
        ds = rd.from_arrow(t)
        mu, comps, ev, n = pca_fit(ds, k=3)
        assert n == 400
        X64 = X.astype(np.float32).astype(np.float64)
        assert np.allclose(mu, X64.mean(axis=0), atol=1e-6)
        C = np.cov(X64, rowvar=False)
        w, V = np.linalg.eigh(C)
        ref = V[:, np.argsort(w)[::-1][:3]].T
        # eigenvalues match; components match up to sign
        assert np.allclose(np.sort(ev)[::-1],
                           np.sort(w)[::-1][:3], rtol=1e-6)
        for i in range(3):
            dot = abs(float(ref[i] @ comps[i]))
            assert dot > 1 - 1e-8, f"component {i} diverged: {dot}"
        proj = pca_transform(ds, mu, comps).to_pandas()
        P = np.stack(proj.sort_values("vec_id")["proj"].to_numpy())
        want = (X64 - mu) @ comps.T
        assert np.allclose(P, want, atol=1e-4)
        # projected variance equals the eigenvalues
        assert np.allclose(P.var(axis=0, ddof=1), ev, rtol=1e-3)

    def test_repeat_determinism_same_layout(self):
        import ray.data as rd
        from tldr_ray.stages.ann import pca_fit

        rng = np.random.default_rng(5)
        X = rng.standard_normal((256, 8)).astype(np.float32)
        t = pa.table({"vec_id": pa.array(range(256), pa.int64()),
                      "embedding": pa.array(list(X),
                                            pa.list_(pa.float32()))})
        a = pca_fit(rd.from_arrow(t), k=2)
        b = pca_fit(rd.from_arrow(t), k=2)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


class TestGroupedLinearTrend:
    def test_hand_case_and_vertical_drop(self):
        import ray.data as rd
        from tldr_ray.stages.agg import grouped_linear_trend

        # group a: y = 3x + 2 exactly; group b: zero x-variance
        t = pa.table({
            "g": pa.array(["a", "a", "a", "b", "b"]),
            "x": pa.array([0, 1, 2, 5, 5], pa.int64()),
            "y": pa.array([2, 5, 8, 7, 9], pa.int64())})
        out = grouped_linear_trend(rd.from_arrow(t), "g", "x", "y") \
            .to_pandas()
        assert list(out["g"]) == ["a"]
        assert out["slope"].iloc[0] == 3.0
        assert out["intercept"].iloc[0] == 2.0
        assert out["n"].iloc[0] == 3


class TestBpeMerges:
    @staticmethod
    def _seq_bpe(texts, num_merges):
        from collections import Counter
        words = Counter()
        for t in texts:
            for w in t.strip().lower().split():
                if w:
                    words[w] += 1
        vocab = {w: list(w) + ["</w>"] for w in words}
        merges = []
        for _ in range(num_merges):
            pairs = Counter()
            for w, syms in vocab.items():
                for i in range(len(syms) - 1):
                    pairs[(syms[i], syms[i + 1])] += words[w]
            if not pairs:
                break
            # max count, lexicographically smallest pair on ties
            best = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
            (l, r), c = best
            merges.append((l, r, c))
            for w, syms in vocab.items():
                out, i = [], 0
                while i < len(syms):
                    if (i + 1 < len(syms) and syms[i] == l
                            and syms[i + 1] == r):
                        out.append(l + r)
                        i += 2
                    else:
                        out.append(syms[i])
                        i += 1
                vocab[w] = out
        return merges, vocab

    def test_matches_sequential_reference(self, force_shuffle):
        import ray.data as rd
        from tldr_ray.stages.text_analysis import learn_bpe_merges

        texts = ["low lower lowest low low",
                 "new newer newest new newer",
                 "wide wider widest low newer"]
        ds = rd.from_arrow(pa.table({"text": pa.array(texts)}))
        want, want_vocab = self._seq_bpe(texts, 8)
        # distributed path AND the size-gated local finisher must both
        # match the reference exactly
        with force_shuffle():                      # distributed
            runs = [learn_bpe_merges(ds, num_merges=8)]
        runs.append(learn_bpe_merges(ds, num_merges=8))  # local finisher
        for i, (got, vocab_ds) in enumerate(runs):
            assert got == want, f"run {i}"
            vd = vocab_ds.to_pandas()
            got_vocab = {r.word: list(r.symbols)
                         for r in vd.itertuples()}
            assert got_vocab == want_vocab, f"run {i}"


class TestCompressionRatio:
    def test_recompute_and_ordering(self):
        import zlib
        import ray.data as rd
        from tldr_ray.stages.text_analysis import compression_ratio

        rep = "spam ham " * 200
        rng = np.random.default_rng(2)
        rand = " ".join(
            "".join(rng.choice(list("abcdefghijklmnop"), 6))
            for _ in range(200))
        ds = rd.from_arrow(pa.table({
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array([rep, rand])}))
        out = compression_ratio(ds).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        for i, t in enumerate([rep, rand]):
            assert out["n_bytes"][i] == len(t.encode())
            assert out["n_compressed"][i] == \
                len(zlib.compress(t.encode(), 6))
        # repetitive text compresses far better than random words
        assert out["compression_ratio"][0] < \
            out["compression_ratio"][1] / 3


class TestZOrder:
    def test_key_interleave_and_locality(self):
        import ray.data as rd
        from tldr_ray.stages.agg import zorder_key, zorder_sort

        x = np.array([0b101, 0b000, 0b111], dtype=np.int64)
        y = np.array([0b011, 0b000, 0b111], dtype=np.int64)
        k = zorder_key([x, y], bits=3)
        # bit j of x -> position 2j; bit j of y -> 2j+1
        assert k.tolist() == [0b011011, 0, 0b111111]
        with np.testing.assert_raises(ValueError):
            zorder_key([x - 5, y], bits=3)
        # sorted output is ordered by the interleaved key
        t = pa.table({"a": pa.array(x), "b": pa.array(y)})
        out = zorder_sort(rd.from_arrow(t), ["a", "b"], bits=3) \
            .to_pandas()
        assert out["zkey"].is_monotonic_increasing


class TestKmvOverlap:
    def test_estimates_known_overlap(self):
        import ray.data as rd
        from tldr_ray.stages.agg import kmv_overlap_estimate

        # A = 0..999, B = 500..1499 -> true Jaccard = 500/1500 = 1/3
        a = rd.from_arrow(pa.table({
            "k": pa.array(np.arange(1000, dtype=np.int64))}))
        b = rd.from_arrow(pa.table({
            "k": pa.array(np.arange(500, 1500, dtype=np.int64))}))
        r = kmv_overlap_estimate(a, b, "k", "k", k=128)
        assert r["k_eff"] == 128
        assert abs(r["inter_frac"] - 1 / 3) < 0.12
        # disjoint sets -> zero overlap, deterministically
        c = rd.from_arrow(pa.table({
            "k": pa.array(np.arange(5000, 6000, dtype=np.int64))}))
        r0 = kmv_overlap_estimate(a, c, "k", "k", k=128)
        assert r0["n_common"] == 0 and r0["inter_frac"] == 0.0


class TestNode2vecWalks:
    def test_matches_sequential_rule(self):
        import ray.data as rd
        from tldr_ray.stages.dedup import _mix64
        from tldr_ray.graph.walks import (node2vec_walks, _WALK_K,
                                          _N2V_PREV_MIX, N2V_W_RETURN,
                                          N2V_W_COMMON, N2V_W_EXPLORE)

        src = [0, 1, 2, 2, 3, 4, 5, 0]
        dst = [1, 2, 0, 3, 4, 5, 3, 4]
        pairs = {(min(a, b), max(a, b)) for a, b in zip(src, dst)}
        adj: dict = {}
        for a, b in pairs:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)

        def seq_walk(s, L):
            path, prev, cur = [s], -1, s
            for t in range(1, L + 1):
                nbrs = sorted(adj[cur])
                ws = []
                for n in nbrs:
                    if prev < 0:
                        ws.append(1)
                    elif n == prev:
                        ws.append(N2V_W_RETURN)
                    elif (min(n, prev), max(n, prev)) in pairs:
                        ws.append(N2V_W_COMMON)
                    else:
                        ws.append(N2V_W_EXPLORE)
                h = int(_mix64(np.array(
                    [np.uint64(cur) * np.uint64(_WALK_K)
                     + np.uint64(t)
                     + (np.uint64(prev) * np.uint64(_N2V_PREV_MIX)
                        if prev >= 0 else np.uint64(0))],
                    dtype=np.uint64))[0])
                r = h % sum(ws)
                cum = 0
                for n, w in zip(nbrs, ws):
                    cum += w
                    if r < cum:
                        prev, cur = cur, n
                        break
                path.append(cur)
            return path

        t = pa.table({"src": pa.array(src, pa.int64()),
                      "dst": pa.array(dst, pa.int64()),
                      "weight": pa.array([1.0] * len(src))})
        df = node2vec_walks(rd.from_arrow(t), walk_len=3).to_pandas()
        got = df.sort_values(["start", "step"]) \
            .groupby("start")["vertex"].apply(list).to_dict()
        for s in adj:
            assert got[s] == seq_walk(s, 3), f"start {s}"


class TestCompaction:
    def test_compact_many_small_files(self, tmp_path):
        import pyarrow.parquet as pq
        import ray.data as rd
        from tldr_ray.sinks import compact_parquet

        d = tmp_path / "tbl"
        d.mkdir()
        for i in range(12):
            pq.write_table(pa.table({
                "k": pa.array(range(i * 10, i * 10 + 10), pa.int64())}),
                str(d / f"f{i:02d}.parquet"))
        rep = compact_parquet(str(d), target_rows_per_file=60)
        assert rep["files_before"] == 12
        assert rep["rows"] == 120
        assert rep["files_after"] <= 3
        back = rd.read_parquet(str(d)).to_pandas()["k"]
        assert sorted(back.tolist()) == list(range(120))


@pytest.mark.usefixtures("ray_session")
class TestBpeEncode:
    def test_pieces_equal_trained_vocab_symbols(self):
        """Encoding a word with the learned merges must reproduce the
        trained vocab table's symbol sequence verbatim (same rewrite
        rule as training), and doc pieces are the concatenation over
        its words."""
        import pyarrow as pa
        import ray.data as rd

        from tldr_ray.stages.text_analysis import (bpe_encode,
                                                   learn_bpe_merges)

        texts = ["the cat sat on the mat", "the bat and the cat",
                 "a mat and a bat", "the the the cat cat"]
        ds = rd.from_arrow(pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string())}))
        merges, vocab = learn_bpe_merges(ds, num_merges=10)
        assert merges

        sym_of = {row["word"]: list(row["symbols"])
                  for row in vocab.to_pandas().to_dict("records")}
        out = bpe_encode(ds, merges).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        for i, t in enumerate(texts):
            want = []
            for w in t.lower().split():
                want.extend(sym_of[w])
            assert list(out["pieces"][i]) == want
            assert out["n_pieces"][i] == len(want)


@pytest.mark.usefixtures("ray_session")
class TestOrcFeatherRoundTrip:
    def test_orc_and_feather_round_trip(self, tmp_path):
        """ORC, Arrow-IPC (feather) and Avro land as blob-decoded
        sources — reading back what write_table wrote must equal the
        original."""
        import pandas as pd

        from tldr_ray.sinks import write_table
        from tldr_ray.sources import read_table

        src = read_table("/root/testdata/sf0.001/documents.parquet",
                         columns=["doc_id", "lang", "n_chars"])
        want = src.to_pandas().sort_values("doc_id") \
            .reset_index(drop=True)
        for fmt in ("orc", "feather", "avro"):
            out = str(tmp_path / fmt)
            stats = write_table(src, out, format=fmt)
            assert stats["rows"] == len(want)
            got = read_table(out, format=fmt).to_pandas() \
                .sort_values("doc_id").reset_index(drop=True)
            pd.testing.assert_frame_equal(got, want)
        # column projection applies after decode
        got2 = read_table(str(tmp_path / "orc"), format="orc",
                          columns=["doc_id"]).to_pandas()
        assert list(got2.columns) == ["doc_id"]


@pytest.mark.usefixtures("ray_session")
class TestAudioFingerprintDedup:
    def test_planted_pairs_recovered_no_fp(self):
        from tldr_ray.queries import audio_phash_dups

        df = audio_phash_dups("unused").to_pandas()
        got = {(int(a), int(b)) for a, b in
               zip(df["id_a"], df["id_b"])}
        # planted pairs: (mid, 10000+mid) for every third audio clip
        from tldr_ray.stages.multimodal import synth_media_table
        import pyarrow.compute as pc

        media = synth_media_table(150)
        ids = media.filter(
            pc.equal(media["kind"], "audio"))["media_id"].to_pylist()
        want = {(mid, 10_000 + mid) for i, mid in enumerate(ids)
                if i % 3 == 0}
        assert want <= got
        # no cross-clip false positives (distinct tones are ~30 bits
        # apart; anything extra would be a real near-match, which the
        # synth generator does not plant)
        extras = got - want
        assert not extras


class TestGopherRules:
    def _ds(self, texts):
        import ray.data as rd

        return rd.from_arrow(pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts)}))

    def test_rules_fire_individually(self):
        from tldr_ray.stages.text_analysis import gopher_rules

        good = ("the quick brown foxes jump over a lazy sleeping dog "
                "and then they running back home in the darkest "
                "coldest night with some more happy words here")
        # 27 words, total length 118 -> mean 4.37 (inside [4.2, 4.8])
        texts = [
            good,                          # passes all four
            "too few words here",          # R1: under 20 words
            good.replace("quick", "q"),    # still passes (mean in band)
            " ".join(["the"] * 30),        # R3: TTR 1/30
            ("aa " * 30).strip(),          # R4: no stopwords; R2 short
        ]
        out = gopher_rules(self._ds(texts)).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        assert bool(out.loc[0, "keep"])
        assert not bool(out.loc[1, "pass_word_count"])
        assert not bool(out.loc[3, "pass_ttr"])
        assert not bool(out.loc[4, "pass_stopwords"])
        assert not bool(out.loc[4, "pass_mean_len"])
        assert not out.loc[[1, 3, 4], "keep"].any()

    def test_exact_integer_signals(self):
        from tldr_ray.stages.text_analysis import gopher_rules

        out = gopher_rules(self._ds(["the cat  sat", ""])).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        # double space must not create a phantom empty word
        assert out.loc[0, "n_words"] == 3
        assert out.loc[0, "total_word_len"] == 9
        assert out.loc[0, "n_distinct"] == 3
        assert out.loc[0, "n_stopwords"] == 1
        # empty doc: all-zero signals, rejected, no crash
        assert out.loc[1, "n_words"] == 0
        assert not bool(out.loc[1, "keep"])


class TestProductQuantization:
    def _planted(self, n=240, m=4, ksub=5, dsub=4, seed=7):
        """Corpus whose subvectors sit EXACTLY on ksub shared UNIT
        subvector values per subspace — every full vector then has norm
        sqrt(m), so unit-normalization keeps subvectors on a finite
        codebook (vocab/sqrt(m)) and PQ encoding is lossless."""
        rng = np.random.default_rng(seed)
        vocab = rng.normal(size=(m, ksub, dsub)).astype(np.float32)
        vocab /= np.linalg.norm(vocab, axis=2, keepdims=True)
        picks = rng.integers(0, ksub, size=(n, m))
        mat = np.concatenate(
            [vocab[j, picks[:, j]] for j in range(m)], axis=1)
        import ray.data as rd

        ds = rd.from_arrow(pa.table({
            "vec_id": pa.array(range(n), pa.int64()),
            "embedding": pa.array([r.tolist() for r in mat],
                                  pa.list_(pa.float32()))}))
        return ds, mat, vocab

    def test_adc_exact_when_on_codebook(self):
        """The ADC law: when every (normalized) subvector IS a codebook
        entry, approximate cosine == exact cosine and the top-k equals
        brute force (incl. the vec_id-asc tie order)."""
        from tldr_ray.stages.ann import (knn_brute, knn_pq_codes,
                                         pq_encode)

        ds, mat, vocab = self._planted()
        books = (vocab / np.sqrt(vocab.shape[0])).astype(np.float32)
        q = mat[:3]
        qids = np.arange(3, dtype=np.int64)
        br = knn_brute(ds, q, qids, k=8).to_pandas() \
            .sort_values(["query_id", "rank"]).reset_index(drop=True)
        ap = knn_pq_codes(pq_encode(ds, books), books, q, qids,
                          k=8).to_pandas() \
            .sort_values(["query_id", "rank"]).reset_index(drop=True)
        assert ap["vec_id"].tolist() == br["vec_id"].tolist()
        assert np.allclose(ap["cosine"], br["cosine"], atol=1e-5)

    def test_codes_shape_and_determinism(self):
        from tldr_ray.stages.ann import _train_pq_codebooks, pq_encode

        ds, _, _ = self._planted()
        books = _train_pq_codebooks(ds, "vec_id", "embedding", m=4,
                                    ksub=8, sample_size=128,
                                    lloyd_iters=3, seed=11)
        assert books.shape == (4, 8, 4) and books.dtype == np.float32
        c1 = pq_encode(ds, books).to_pandas().sort_values("vec_id")
        c2 = pq_encode(ds, books).to_pandas().sort_values("vec_id")
        assert (np.vstack(c1["code"]) == np.vstack(c2["code"])).all()
        assert np.vstack(c1["code"]).shape == (240, 4)
        assert np.vstack(c1["code"]).dtype == np.uint8

    def test_rerank_recall_on_corpus(self):
        """Shortlist+exact-rerank recovers most brute-force neighbors
        on the real synthetic embeddings (and beats raw ADC)."""
        import ray.data as rd

        from tldr_ray.stages.ann import knn_brute, knn_pq, knn_pq_rerank

        t = pa.parquet.read_table(
            "/root/testdata/sf0.001/embeddings.parquet",
            columns=["vec_id", "embedding"])
        ds = rd.from_arrow(t)
        mat = np.asarray(t["embedding"].to_pylist()[:3], np.float32)
        qids = np.asarray(t["vec_id"].to_pylist()[:3], np.int64)

        def recall(res):
            got = 0
            for qid in qids:
                b = set(br[br.query_id == qid]["vec_id"])
                got += len(b & set(res[res.query_id == qid]["vec_id"]))
            return got / (10 * len(qids))

        br = knn_brute(ds, mat, qids, k=10).to_pandas()
        adc = recall(knn_pq(ds, mat, qids, k=10).to_pandas())
        rr = recall(knn_pq_rerank(ds, mat, qids, k=10).to_pandas())
        assert rr >= adc
        assert rr >= 0.6


class TestEpochShuffle:
    def test_permutation_and_epoch_variation(self):
        import ray.data as rd

        from tldr_ray.stages.agg import epoch_shuffle

        ids = pa.table({"doc_id": pa.array(range(500), pa.int64())})
        ds = rd.from_arrow(ids).repartition(7)
        p1 = epoch_shuffle(ds, "doc_id", epoch=1).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        # positions are exactly 0..n-1
        assert sorted(p1["epoch_pos"]) == list(range(500))
        # a different epoch is a different permutation
        p2 = epoch_shuffle(ds, "doc_id", epoch=2).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        assert (p1["epoch_pos"] != p2["epoch_pos"]).any()
        # layout-independent: same permutation from a different
        # partitioning and a different num_parts
        q1 = epoch_shuffle(rd.from_arrow(ids).repartition(3),
                           "doc_id", epoch=1, num_parts=17) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        assert (q1["epoch_pos"] == p1["epoch_pos"]).all()


class TestPairwisePearson:
    def test_matches_numpy_corrcoef(self, ray_session):
        import ray.data as rd

        from tldr_ray.stages.agg import pairwise_pearson

        rng = np.random.default_rng(3)
        a = rng.integers(0, 1000, 500)
        b = 2 * a + rng.integers(0, 50, 500)       # strongly correlated
        c = rng.integers(0, 1000, 500)             # independent
        t = pa.table({"a": pa.array(a * 1.0), "b": pa.array(b * 1.0),
                      "c": pa.array(c * 1.0)})
        out = pairwise_pearson(rd.from_arrow(t).repartition(5),
                               ["a", "b", "c"]).to_pandas()
        want = np.corrcoef(np.vstack([a * 100, b * 100, c * 100]))
        got = {(r.col_x, r.col_y): r.corr for r in out.itertuples()}
        assert abs(got[("a", "b")] - want[0, 1]) < 1e-9
        assert abs(got[("a", "c")] - want[0, 2]) < 1e-9
        assert abs(got[("b", "c")] - want[1, 2]) < 1e-9
        assert got[("a", "b")] > 0.99


@pytest.mark.usefixtures("ray_session")
class TestZonemap:
    def test_zonemap_prunes_files_and_is_exact(self, tmp_path):
        import json

        import ray.data as rd

        from tldr_ray.sinks import build_zonemap
        from tldr_ray.sources.tabular import read_pruned

        n = 10_000
        t = pa.table({"k": pa.array(np.arange(n, dtype=np.int64)),
                      "v": pa.array(np.arange(n, dtype=np.int64) * 7)})
        out = str(tmp_path / "zm")
        (rd.from_arrow(t).repartition(8).sort("k")
         .write_parquet(out, min_rows_per_file=1_000))
        manifest = build_zonemap(out, ["k"])
        assert len(manifest) >= 2           # sharded, not one file
        assert all(z["k"][0] is not None for z in manifest.values())
        with open(f"{out}/_zonemap.json") as fh:
            assert json.load(fh) == {
                f: {c: list(v) for c, v in z.items()}
                for f, z in manifest.items()}

        ds, info = read_pruned(out, "k", 2_000, 2_999)
        assert info["files_read"] < info["files_total"]   # real skipping
        got = ds.to_pandas().sort_values("k").reset_index(drop=True)
        assert got["k"].tolist() == list(range(2_000, 3_000))
        assert (got["v"] == got["k"] * 7).all()

        # window outside every zone: zero files opened, no dataset
        ds2, info2 = read_pruned(out, "k", 10**9, 10**9 + 5)
        assert ds2 is None and info2["files_read"] == 0


@pytest.mark.usefixtures("ray_session")
class TestSkyline:
    def test_skyline_matches_bruteforce(self):
        import ray.data as rd

        from tldr_ray.stages.agg import skyline2d

        rng = np.random.default_rng(7)
        p = rng.integers(0, 1_000_000, 400).astype(np.int64)
        q = rng.integers(0, 1_000_000, 400).astype(np.int64)
        ds = rd.from_arrow(pa.table({"p": pa.array(p),
                                     "q": pa.array(q)})).repartition(6)
        got = {tuple(r) for r in
               skyline2d(ds, "p", "q").to_pandas().to_numpy()}
        pairs = set(zip(p.tolist(), q.tolist()))
        want = {(a, b) for (a, b) in pairs
                if not any((c <= a and d >= b and (c, d) != (a, b))
                           for (c, d) in pairs)}
        assert got == want and len(want) > 1


@pytest.mark.usefixtures("ray_session")
class TestExpectations:
    def test_planted_violations_counted(self):
        import ray.data as rd

        from tldr_ray.stages.agg import validate_expectations

        t = pa.table({
            "id": pa.array([1, 2, 2, 3, 3, 3, 4], pa.int64()),
            "v": pa.array([5.0, None, -1.0, 50.0, 200.0, 7.0, 3.0]),
            "s": pa.array(["a", "b", "zz", None, "a", "b", "a"]),
        })
        rep = (validate_expectations(
            rd.from_arrow(t).repartition(3), [
                {"kind": "not_null", "col": "v"},
                {"kind": "range", "col": "v", "lo": 0.0, "hi": 100.0},
                {"kind": "in_set", "col": "s", "values": ["a", "b"]},
                {"kind": "unique", "col": "id"},
            ]).to_pandas().set_index("check_name"))
        assert rep.loc["not_null:v", "n_violations"] == 1
        # null, -1, 200 are all outside [0, 100]
        assert rep.loc["range:v", "n_violations"] == 3
        assert rep.loc["in_set:s", "n_violations"] == 2   # "zz" + null
        assert rep.loc["unique:id", "n_violations"] == 3  # 2x2 + 3x3
        assert (rep["n_rows"] == 7).all()


@pytest.mark.usefixtures("ray_session")
class TestHashIndex:
    def test_point_lookup_reads_only_probed_buckets(self, tmp_path):
        import ray.data as rd

        from tldr_ray.sinks import build_hash_index
        from tldr_ray.sources.tabular import read_point_lookup

        n = 5000
        ds = rd.from_arrow(pa.table({
            "k": pa.array(np.arange(n), pa.int64()),
            "v": pa.array(np.arange(n) * 10, pa.int64())}))
        out = str(tmp_path / "idx")
        manifest = build_hash_index(ds, out, "k", num_buckets=16)
        assert sum(manifest["buckets"].values()) == n
        tab, info = read_point_lookup(out, [5, 17, 4999])
        assert info["files_read"] <= 3 < info["files_total"]
        got = dict(zip(tab["k"].to_pylist(), tab["v"].to_pylist()))
        assert got == {5: 50, 17: 170, 4999: 49990}
        # missing keys: 0 rows, schema intact
        empty, _ = read_point_lookup(out, [n + 1, n + 2])
        assert empty.num_rows == 0
        assert empty.schema.names == ["k", "v"]
        # mixed present/missing
        tab2, _ = read_point_lookup(out, [7, n + 50])
        assert tab2["k"].to_pylist() == [7]


@pytest.mark.usefixtures("ray_session")
def test_misra_gries_bounds_and_presence():
    """est <= true and true - est <= n/(k+1) for every reported value;
    every value with true frequency > n/(k+1) is present — across a
    layout the summary was NOT built on (mergeability)."""
    import ray.data as rd

    from tldr_ray.stages.sketches import misra_gries

    rng = np.random.default_rng(11)
    zipf = np.clip(rng.zipf(1.5, 20000), 0, 500).astype(np.int64)
    k = 24
    for parts in (3, 17):
        ds = rd.from_arrow(pa.table({"u": pa.array(zipf)})) \
            .repartition(parts)
        got = misra_gries(ds, "u", k=k)
        true = pd.Series(zipf).value_counts()
        n = zipf.size
        assert len(got) <= k
        for v, est in zip(got["value"], got["est"]):
            t = int(true[v])
            assert est <= t
            assert t - est <= n // (k + 1) + 1
        must = set(true[true > n / (k + 1)].index)
        assert must <= set(got["value"])


@pytest.mark.usefixtures("ray_session")
def test_kll_sketch_rank_error_and_merge_law():
    from tldr_ray.stages.sketches import KLLSketch, kll_quantiles

    # adversarial: already-sorted input stresses deterministic
    # compaction worst
    n = 50_000
    xs = np.arange(n, dtype=np.float64)
    s = KLLSketch(k=256)
    for i in range(0, n, 1000):
        s.update_many(xs[i:i + 1000])
    for q in (0.1, 0.5, 0.9, 0.99):
        got = s.quantile(q)
        rank_err = abs(got - q * (n - 1)) / n
        assert rank_err < 0.05, (q, got, rank_err)
    # merge law: sketch(A) ⊎ sketch(B) ~ sketch(A+B), same bound
    a, b = KLLSketch(k=256), KLLSketch(k=256)
    a.update_many(xs[: n // 2])
    b.update_many(xs[n // 2:])
    m = a.merge(b)
    assert m.n == n
    for q in (0.25, 0.75):
        assert abs(m.quantile(q) - q * (n - 1)) / n < 0.05
    # distributed path on a real Dataset, vs exact
    import ray.data as rd

    rng = np.random.default_rng(5)
    vals = rng.lognormal(0.0, 1.0, 20_000)
    ds = rd.from_arrow(pa.table({"v": pa.array(vals)})).repartition(8)
    out = kll_quantiles(ds, "v", qs=(0.5, 0.9), k=256)
    exact = np.quantile(vals, [0.5, 0.9])
    for got, want, q in zip(out["value"], exact, (0.5, 0.9)):
        # compare by RANK error, the sketch's actual guarantee
        r = (vals <= got).mean()
        assert abs(r - q) < 0.05, (q, got, want, r)
    assert int(out["n"].iloc[0]) == 20_000


@pytest.mark.usefixtures("ray_session")
def test_dbscan_recovers_planted_blobs():
    """Three tight Gaussian blobs + uniform noise: every blob lands in
    ONE cluster (all members share a label, distinct across blobs);
    noise points are labeled -1."""
    import ray.data as rd

    from tldr_ray.stages.ann import dbscan_embeddings

    rng = np.random.default_rng(21)
    dim, per = 16, 30
    centers = rng.standard_normal((3, dim)) * 3.0
    pts, truth = [], []
    for ci, c in enumerate(centers):
        pts.append(c + rng.standard_normal((per, dim)) * 0.02)
        truth += [ci] * per
    noise = rng.standard_normal((15, dim)) * 5.0
    pts.append(noise)
    truth += [-1] * 15
    mat = np.concatenate(pts).astype(np.float32)
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(len(truth)), pa.int64()),
        "embedding": pa.array(list(mat))})).repartition(4)
    out = dbscan_embeddings(ds, cos_eps=0.95, min_pts=4,
                            num_planes=8)
    lab = dict(zip(out["id"], out["cluster_id"]))
    blob_labels = []
    for ci in range(3):
        ids = [i for i, t in enumerate(truth) if t == ci]
        ls = {lab[i] for i in ids}
        assert len(ls) == 1 and -1 not in ls, (ci, ls)
        blob_labels.append(ls.pop())
    assert len(set(blob_labels)) == 3
    noise_ids = [i for i, t in enumerate(truth) if t == -1]
    # random noise at cosine 0.95: overwhelmingly labeled -1
    noise_ok = sum(1 for i in noise_ids if lab[i] == -1)
    assert noise_ok >= len(noise_ids) - 1


@pytest.mark.usefixtures("ray_session")
def test_read_evolved_guards_type_change(tmp_path):
    """Same column name with a DIFFERENT type across versions must
    refuse loudly, never cast silently."""
    import pyarrow.parquet as pq

    from tldr_ray.sources.tabular import read_evolved

    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(); b.mkdir()
    pq.write_table(pa.table({"k": pa.array([1], pa.int64())}),
                   str(a / "f.parquet"))
    pq.write_table(pa.table({"k": pa.array(["x"], pa.string())}),
                   str(b / "f.parquet"))
    with pytest.raises(ValueError, match="changes type"):
        read_evolved([str(a), str(b)])


def test_auc_from_value_counts_matches_bruteforce():
    """Closed-form tied-rank AUC == pairwise definition
    (wins + 0.5*ties) / (P*N), across random tied integer scores."""
    from tldr_ray.stages.agg import auc_from_value_counts

    rng = np.random.default_rng(13)
    for trial in range(5):
        scores = rng.integers(0, 20, 500)       # heavy ties
        labels = rng.random(500) < 0.3
        uniq, inv = np.unique(scores, return_inverse=True)
        c = np.bincount(inv, minlength=uniq.size)
        p = np.bincount(inv, weights=labels, minlength=uniq.size)
        num2, P, N, auc = auc_from_value_counts(
            uniq, c.astype(np.int64), p.astype(np.int64))
        sp = scores[labels][:, None]
        sn = scores[~labels][None, :]
        brute = (np.sum(sp > sn) + 0.5 * np.sum(sp == sn)) / (P * N)
        assert P == labels.sum() and N == (~labels).sum()
        assert abs(auc - brute) < 1e-12
        # shuffled input order gives identical ints (order-free claim)
        perm = rng.permutation(uniq.size)
        num2b, *_ = auc_from_value_counts(uniq[perm], c[perm].astype(
            np.int64), p[perm].astype(np.int64))
        assert num2b == num2


@pytest.mark.usefixtures("ray_session")
def test_dup_gram_fraction_hand_case():
    """Two docs share one 5-gram span; a third is unique; a fourth is
    too short for any window."""
    import ray.data as rd

    from tldr_ray.stages.text_analysis import dup_gram_fraction

    shared = "alpha beta gamma delta epsilon"
    ds = rd.from_items([
        {"doc_id": 1, "text": shared + " one two"},      # 3 windows
        {"doc_id": 2, "text": "x " + shared},            # 2 windows
        {"doc_id": 3, "text": "u v w x y z q r"},        # 4 windows
        {"doc_id": 4, "text": "too short"},              # 0 windows
    ])
    out = (dup_gram_fraction(ds, k=5, min_docs=2)
           .to_pandas().set_index("doc_id").sort_index())
    # the shared 5-gram is the only cross-doc gram
    assert out.loc[1, "total_grams"] == 3
    assert out.loc[1, "dup_occ"] == 1
    assert out.loc[1, "dup_fraction"] == 1.0 / 3.0
    assert out.loc[2, "total_grams"] == 2
    assert out.loc[2, "dup_occ"] == 1
    assert out.loc[3, "dup_occ"] == 0
    assert out.loc[4, "total_grams"] == 0
    assert out.loc[4, "dup_fraction"] == 0.0


@pytest.mark.usefixtures("ray_session")
def test_logistic_fit_recovers_planted_weights():
    """IRLS over blocks == the same Newton math run sequentially, and
    both recover a planted separating direction."""
    import ray.data as rd

    from tldr_ray.stages.ann import logistic_fit, _sigmoid

    rng = np.random.default_rng(7)
    n, d = 4_000, 8
    X = rng.normal(size=(n, d))
    w_true = np.array([2.0, -1.5, 1.0, 0, 0, 0.5, -0.5, 0])
    b_true = 0.3
    p = 1.0 / (1.0 + np.exp(-(X @ w_true + b_true)))
    y = (rng.random(n) < p).astype(np.int64)
    ds = rd.from_items([
        {"embedding": X[i].astype(np.float32).tolist(),
         "y": int(y[i])} for i in range(n)]).repartition(6)
    w, b, n_fit = logistic_fit(ds, "embedding", "y", iters=8)
    assert n_fit == n
    # sequential same-math reference (float32-quantized X like the ds)
    X32 = X.astype(np.float32).astype(np.float64)
    Xb = np.concatenate([X32, np.ones((n, 1))], axis=1)
    ww = np.zeros(d + 1)
    for _ in range(8):
        mu = _sigmoid(Xb @ ww)
        wt = mu * (1 - mu)
        H = Xb.T @ (Xb * wt[:, None]) + np.eye(d + 1) * 1e-6
        ww = ww + np.linalg.solve(H, Xb.T @ (y - mu))
    assert np.allclose(np.append(w, b), ww, rtol=1e-5, atol=1e-7)
    cos = (w @ w_true) / (np.linalg.norm(w)
                          * np.linalg.norm(w_true))
    assert cos > 0.97
    acc = ((_sigmoid(X32 @ w + b) > 0.5) == y).mean()
    assert acc > 0.8


@pytest.mark.usefixtures("ray_session")
def test_weighted_sample_proportional_and_deterministic():
    """A-ES race: inclusion scales with weight; same salt -> identical
    sample across layouts; salts re-draw."""
    import ray.data as rd

    from tldr_ray.stages.agg import weighted_sample

    n = 2_000
    ids = np.arange(n, dtype=np.int64)
    # half the items weight 1, half weight 6
    w = np.where(ids % 2 == 0, 1.0, 6.0)
    t = pa.table({"id": pa.array(ids), "w": pa.array(w)})
    ds = rd.from_arrow(t).repartition(7)
    counts = np.zeros(2)
    K = 200
    for salt in range(30):
        got = weighted_sample(ds, "id", "w", K, salt=salt).to_pandas()
        assert len(got) == K and got["id"].is_unique
        counts[0] += (got["id"] % 2 == 0).sum()
        counts[1] += (got["id"] % 2 == 1).sum()
    ratio = counts[1] / counts[0]
    assert 4.0 < ratio < 8.5, ratio        # ~6 expected
    # layout independence, same salt
    a = sorted(weighted_sample(ds, "id", "w", 50, salt=3)
               .to_pandas()["id"])
    b = sorted(weighted_sample(rd.from_arrow(t).repartition(2),
                               "id", "w", 50, salt=3).to_pandas()["id"])
    assert a == b
    with pytest.raises(Exception):
        weighted_sample(rd.from_arrow(pa.table({
            "id": pa.array([1], pa.int64()),
            "w": pa.array([0.0])})), "id", "w", 1).to_pandas()


@pytest.mark.usefixtures("ray_session")
def test_grouped_misra_gries_bounds_and_presence():
    """Per-group MG: planted per-group heavy value always present,
    every estimate obeys true - n_g/(k+1) <= est <= true."""
    import ray.data as rd

    from tldr_ray.stages.sketches import grouped_misra_gries

    rng = np.random.default_rng(2)
    rows_g, rows_v = [], []
    for day in range(5):
        heavy = 1000 + day
        n_bg = 3_000
        vals = rng.integers(0, 500, n_bg).tolist() + [heavy] * 800
        rows_g += [day] * len(vals)
        rows_v += vals
    t = pa.table({"day": pa.array(np.array(rows_g, np.int64)),
                  "uid": pa.array(np.array(rows_v, np.int64))})
    ds = rd.from_arrow(t).repartition(9)
    out = grouped_misra_gries(ds, "day", "uid", k=16)
    df = pd.DataFrame({"day": np.array(rows_g), "uid": np.array(rows_v)})
    for day in range(5):
        sub = out[out["group"] == day]
        truth = df[df.day == day]["uid"].value_counts()
        n_g = len(df[df.day == day])
        heavy = 1000 + day
        assert heavy in set(sub["value"])        # guaranteed presence
        for _, r in sub.iterrows():
            true = int(truth.get(r["value"], 0))
            assert true - n_g // (16 + 1) - 1 <= r["est"] <= true
        # the planted heavy value ranks first
        assert int(sub.iloc[0]["value"]) == heavy


@pytest.mark.usefixtures("ray_session")
def test_grouped_kll_rank_error_bound():
    """Per-group KLL quantiles land within a small rank error of the
    exact per-group order statistics, across a shuffled layout."""
    import ray.data as rd

    from tldr_ray.stages.sketches import grouped_kll_quantiles

    rng = np.random.default_rng(6)
    gs, vs = [], []
    for g in range(4):
        n = 5_000
        gs += [g] * n
        # different shapes per group
        vs += list(rng.normal(g * 10, 1 + g, n))
    perm = rng.permutation(len(gs))
    t = pa.table({"g": pa.array(np.array(gs)[perm]),
                  "v": pa.array(np.array(vs)[perm])})
    out = grouped_kll_quantiles(rd.from_arrow(t).repartition(8),
                                "g", "v", qs=(0.5, 0.9), k=128)
    df = out.to_pandas()
    va = np.array(vs)
    ga = np.array(gs)
    for g in range(4):
        sub = df[df["group"] == g].set_index("q")["value"]
        exact = np.sort(va[ga == g])
        for q in (0.5, 0.9):
            est = sub.loc[q]
            # rank of the estimate within the exact data
            r = np.searchsorted(exact, est) / exact.size
            assert abs(r - q) < 0.04, (g, q, r)
        assert int(df[df["group"] == g]["n"].iloc[0]) == 5_000


@pytest.mark.usefixtures("ray_session")
def test_substring_search_exact_vs_python():
    """Trigram-index substring search == plain Python `in` over every
    doc, including: case-insensitivity, a pattern crossing word
    boundaries, a sub-trigram pattern (direct-scan fallback), an
    absent pattern (zero rows), and empty/short docs."""
    import ray.data as rd
    from tldr_ray.stages.text_analysis import substring_search

    texts = ["Alpha Beta gamma", "beta GAMMA delta", "", "ab",
             "gamma alpha beta", "x" * 5, "alp", "ta gam ma"]
    pats = ["ta gam",      # crosses a word boundary
            "AB",          # len-2 -> direct-scan fallback, mixed case
            "zzz",         # absent
            "gamma"]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string())}))
    got = substring_search(ds, pats).to_pandas()
    got_set = set(zip(got["pattern"], got["doc_id"]))
    want = {(p.lower(), i) for p in pats
            for i, t in enumerate(texts) if p.lower() in t.lower()}
    assert got_set == want
    # no duplicate (pattern, doc) rows
    assert len(got) == len(got_set)


@pytest.mark.usefixtures("ray_session")
def test_spearman_vs_order_matches_pandas_rank():
    """spearman_vs_order == Pearson of pandas average ranks, incl.
    heavy ties; constant-value and n<3 groups are dropped."""
    import ray.data as rd
    from tldr_ray.stages.agg import spearman_vs_order

    rng = np.random.RandomState(11)
    n = 300
    df = pd.DataFrame({
        "g": rng.choice(["a", "b", "c"], n),
        "o": np.arange(n, dtype=np.int64),
        "v": rng.randint(0, 8, n).astype(np.int64)})  # heavy ties
    # one constant-value group and one tiny group must be dropped
    extra = pd.DataFrame({
        "g": ["const"] * 5 + ["tiny"] * 2,
        "o": np.arange(7, dtype=np.int64) + n,
        "v": np.array([4, 4, 4, 4, 4, 1, 2], np.int64)})
    full = pd.concat([df, extra], ignore_index=True)
    got = (spearman_vs_order(rd.from_pandas(full), ["g"], ["o"], "v")
           .to_pandas().set_index("g").sort_index())
    assert set(got.index) == {"a", "b", "c"}
    for g, sub in df.groupby("g"):
        sub = sub.sort_values("o")
        rx = sub["v"].rank(method="average").to_numpy()
        ry = np.arange(1, len(sub) + 1, dtype=np.float64)
        want = np.corrcoef(rx, ry)[0, 1]
        assert abs(got.loc[g, "rho"] - want) < 1e-12
        assert got.loc[g, "n"] == len(sub)


@pytest.mark.usefixtures("ray_session")
def test_grouped_trimmed_mean_hand_cases():
    import ray.data as rd
    from tldr_ray.stages.agg import grouped_trimmed_mean

    # group a: n=10 -> t=1, ties straddle the trim boundary
    a = np.array([1, 1, 1, 2, 3, 4, 5, 9, 9, 9], np.int64)
    # group b: n=4 -> t=0, nothing trimmed
    b = np.array([10, 20, 30, 40], np.int64)
    df = pd.DataFrame({"k": ["a"] * 10 + ["b"] * 4,
                       "v": np.concatenate([a, b])})
    got = (grouped_trimmed_mean(rd.from_pandas(df), "k", "v")
           .to_pandas().set_index("k").sort_index())
    sa = int(np.sort(a)[1:-1].sum())
    assert got.loc["a", ["n", "n_kept", "trimmed_sum"]].tolist() \
        == [10, 8, sa]
    assert got.loc["a", "trimmed_mean"] == sa / 8
    assert got.loc["b", ["n", "n_kept", "trimmed_sum"]].tolist() \
        == [4, 4, 100]
    with pytest.raises(Exception, match="must be integer"):
        grouped_trimmed_mean(
            rd.from_pandas(df.assign(v=df["v"].astype(float))),
            "k", "v").to_pandas()


@pytest.mark.usefixtures("ray_session")
def test_exact_topk_via_sketch_both_paths():
    import ray.data as rd
    from tldr_ray.stages.sketches import exact_topk_via_sketch

    def brute(vals, k):
        u, c = np.unique(vals, return_counts=True)
        o = np.lexsort((u, -c))
        return list(zip(u[o][:k].tolist(), c[o][:k].tolist()))

    rng = np.random.RandomState(5)
    # skewed: few heavy keys over a long flat tail -> gate PROVES
    heavy = np.repeat(np.arange(10, dtype=np.int64), 500)
    tail = rng.randint(100, 5000, 3000).astype(np.int64)
    skew = np.concatenate([heavy, tail])
    rng.shuffle(skew)
    ds = rd.from_pandas(pd.DataFrame({"v": skew})).repartition(8)
    got = exact_topk_via_sketch(ds, "v", k=10, capacity=64)
    assert list(zip(got["value"], got["n"])) == brute(skew, 10)
    # flat: every key equal -> bound >= kth count, fallback path
    flat = np.tile(np.arange(200, dtype=np.int64), 5)
    ds2 = rd.from_pandas(pd.DataFrame({"v": flat})).repartition(4)
    got2 = exact_topk_via_sketch(ds2, "v", k=20, capacity=16)
    assert list(zip(got2["value"], got2["n"])) == brute(flat, 20)
    # tiny vocab under capacity: bound==0 certifies completeness
    tiny = np.array([7, 7, 8], np.int64)
    got3 = exact_topk_via_sketch(
        rd.from_pandas(pd.DataFrame({"v": tiny})), "v",
        k=5, capacity=16)
    assert list(zip(got3["value"], got3["n"])) == brute(tiny, 5)


@pytest.mark.usefixtures("ray_session")
def test_feature_hash_matches_sequential_and_drops_cancelled():
    import ray.data as rd
    from tldr_ray.hashing import fnv1a_batch
    from tldr_ray.stages.dedup import _mix64
    from tldr_ray.stages.text_analysis import feature_hash

    texts = ["the cat sat on the mat", "cat CAT  cat", "", "mat the"]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(4), pa.int64()),
        "text": pa.array(texts, pa.string())}))
    got = feature_hash(ds, n_buckets=8).to_pandas() \
        .sort_values(["doc_id", "bucket"]).reset_index(drop=True)
    # sequential reference with the same hash chain
    import collections
    acc = collections.Counter()
    for i, t in enumerate(texts):
        toks = [w for w in t.lower().split() if w]
        if not toks:
            continue
        h = _mix64(fnv1a_batch(pa.array(toks, pa.string())))
        for hv in h:
            hv = int(hv)        # numpy uint64 % python-int promotes
            b = hv % 8          # to float64 and loses the low bits
            s = 1 if (hv // 8) % 2 == 0 else -1
            acc[(i, b)] += s
    want = sorted((k[0], k[1], v) for k, v in acc.items() if v != 0)
    assert list(map(tuple, got.to_numpy())) == want
    assert (got["weight"] != 0).all()


@pytest.mark.usefixtures("ray_session")
def test_kcenter_matches_sequential_reference():
    import ray.data as rd
    from tldr_ray.stages.ann import kcenter_select

    rng = np.random.RandomState(21)
    X = rng.randn(120, 6)
    ids = np.arange(120, dtype=np.int64)
    rng.shuffle(ids)
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(ids),
        "embedding": pa.array([r.tolist() for r in X],
                              pa.list_(pa.float32()))})).repartition(5)
    got = kcenter_select(ds, k=6)
    # sequential Gonzalez on the SAME float32-widened data
    Xd = X.astype(np.float32).astype(np.float64)
    order = np.argsort(ids)
    sel = [int(ids[order][0])]
    pos = {int(v): i for i, v in enumerate(ids)}
    mind = np.full(120, np.inf)
    seq_radii = []
    for _ in range(6):
        c = Xd[pos[sel[-1]]]
        mind = np.minimum(mind, np.sqrt(((Xd - c) ** 2).sum(axis=1)))
        seq_radii.append(mind.max())
        if len(sel) == 6:
            break
        far = np.lexsort((ids, -mind))[0]
        sel.append(int(ids[far]))
    assert got["vec_id"].tolist() == sel
    assert np.allclose(got["radius_after"], seq_radii, rtol=0, atol=0)
    # covering radius never increases
    assert (np.diff(got["radius_after"]) <= 1e-12).all()


@pytest.mark.usefixtures("ray_session")
def test_theil_sen_robust_to_outliers_and_gates():
    import ray.data as rd
    from tldr_ray.stages.agg import theil_sen_by_key

    t = np.arange(20, dtype=np.int64) * 1000
    v = (3 * t // 1000).astype(np.int64)       # exact slope 0.003/unit
    v_out = v.copy()
    v_out[5] += 100000                          # one wild outlier
    big_t = np.arange(300, dtype=np.int64)      # > max_n -> gated out
    df = pd.DataFrame({
        "k": np.concatenate([np.zeros(20, np.int64),
                             np.ones(20, np.int64),
                             np.full(300, 2, np.int64),
                             np.full(2, 3, np.int64)]),
        "t": np.concatenate([t, t, big_t, np.array([0, 1])]),
        "v": np.concatenate([v, v_out, big_t, np.array([0, 1])])})
    got = theil_sen_by_key(rd.from_pandas(df), "k", "t", "v") \
        .to_pandas().set_index("k")
    # clean key: exact slope; outlier key: median shrugs it off
    assert got.loc[0, "ts_slope"] == 3 / 1000
    assert abs(got.loc[1, "ts_slope"] - 3 / 1000) < 1e-9
    # 300-point key exceeds max_n, 2-point key is below min_n
    assert set(got.index) == {0, 1}
    assert got.loc[0, "n_slopes"] == 190


@pytest.mark.usefixtures("ray_session")
def test_class_rebalance_exact_targets_and_layout_free():
    import ray.data as rd
    from tldr_ray.stages.agg import class_rebalance

    rng = np.random.RandomState(13)
    df = pd.DataFrame({
        "id": np.arange(900, dtype=np.int64),
        "c": np.array(["big"] * 700 + ["mid"] * 150 + ["tiny"] * 50,
                      dtype=object)})
    df = df.sample(frac=1, random_state=1).reset_index(drop=True)
    outs = []
    for parts in (2, 9):       # layout independence
        ds = rd.from_pandas(df).repartition(parts)
        out = class_rebalance(ds, "c", "id", 200).to_pandas() \
            .sort_values(["c", "id"]).reset_index(drop=True)
        outs.append(out)
        tot = out.groupby("c")["copies"].sum()
        assert tot.to_dict() == {"big": 200, "mid": 200, "tiny": 200}
        # undersample keeps distinct rows only
        assert (out[out["c"] == "big"]["copies"] == 1).all()
        assert len(out[out["c"] == "big"]) == 200
        # oversample: every source row appears, copies = 4 (200/50)
        t = out[out["c"] == "tiny"]
        assert len(t) == 50 and (t["copies"] == 4).all()
    pd.testing.assert_frame_equal(outs[0], outs[1])


@pytest.mark.usefixtures("ray_session")
def test_kendall_mk_matches_pandas_taub():
    import ray.data as rd
    from tldr_ray.stages.agg import kendall_mk_by_key

    rng = np.random.RandomState(17)
    frames = []
    for key in range(4):
        n = 30
        t = np.sort(rng.choice(100000, n, replace=False))
        v = rng.randint(0, 6, n)          # heavy value ties
        frames.append(pd.DataFrame({
            "k": np.full(n, key, np.int64),
            "t": t.astype(np.int64),
            "v": v.astype(np.int64)}))
    df = pd.concat(frames, ignore_index=True)
    got = kendall_mk_by_key(rd.from_pandas(df), "k", "t", "v") \
        .to_pandas().set_index("k").sort_index()
    for key, sub in df.groupby("k"):
        tt, vv = sub["t"].to_numpy(), sub["v"].to_numpy()
        n = len(sub)
        C = D = n1 = n2 = 0
        s = 0
        for i in range(n):
            for j in range(i + 1, n):
                if tt[i] == tt[j]:
                    n2 += 1
                if vv[i] == vv[j]:
                    n1 += 1
                if tt[i] != tt[j] and vv[i] != vv[j]:
                    if (tt[j] > tt[i]) == (vv[j] > vv[i]):
                        C += 1
                    else:
                        D += 1
                s += int(np.sign(vv[j] - vv[i])) \
                    * int(np.sign(tt[j] - tt[i]))
        n0 = n * (n - 1) // 2
        want = (C - D) / np.sqrt(float((n0 - n1) * (n0 - n2)))
        assert abs(got.loc[key, "tau_b"] - want) < 1e-12
        assert got.loc[key, "s_mk"] == s == C - D


class TestHilbertKey:
    def test_full_grid_certificate(self):
        """Bijective over the 2^b x 2^b grid AND every consecutive
        pair of keys is a unit grid step — the two properties that
        uniquely certify a Hilbert curve."""
        import numpy as np
        from tldr_ray.stages.agg import hilbert_key_2d

        bits = 4
        n = 1 << bits
        xs, ys = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        d = hilbert_key_2d(xs.ravel(), ys.ravel(), bits=bits)
        assert sorted(d.tolist()) == list(range(n * n))
        pos = np.empty((n * n, 2), np.int64)
        pos[d] = np.stack([xs.ravel(), ys.ravel()], axis=1)
        steps = np.abs(np.diff(pos, axis=0)).sum(axis=1)
        assert (steps == 1).all()

    def test_locality_beats_morton(self):
        """Clustering metric that layout pruning actually pays for
        (Moon et al., 'Analysis of the clustering properties of the
        Hilbert space-filling curve'): the number of CONTIGUOUS key
        runs needed to cover a 2-D box query. Hilbert must average
        strictly fewer runs than the Morton interleave."""
        import numpy as np
        from tldr_ray.stages.agg import hilbert_key_2d, zorder_key

        bits = 5
        n = 1 << bits
        xs, ys = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        x, y = xs.ravel(), ys.ravel()
        h = hilbert_key_2d(x, y, bits=bits).reshape(n, n)
        z = zorder_key([x, y], bits=bits).reshape(n, n)

        def runs(key_grid, x0, y0, w):
            keys = np.sort(key_grid[x0:x0 + w, y0:y0 + w].ravel())
            return 1 + int((np.diff(keys) > 1).sum())

        rng = np.random.default_rng(7)
        tot_h = tot_z = 0
        for _ in range(200):
            w = int(rng.integers(2, 9))
            x0 = int(rng.integers(0, n - w))
            y0 = int(rng.integers(0, n - w))
            tot_h += runs(h, x0, y0, w)
            tot_z += runs(z, x0, y0, w)
        assert tot_h < tot_z

    def test_range_guard(self):
        import numpy as np
        import pytest as _pytest
        from tldr_ray.stages.agg import hilbert_key_2d

        with _pytest.raises(ValueError, match="exceed"):
            hilbert_key_2d(np.array([1 << 10]), np.array([0]), bits=10)
        with _pytest.raises(ValueError, match="non-negative"):
            hilbert_key_2d(np.array([-1]), np.array([0]), bits=10)


class TestRendezvousHashing:
    def test_minimal_disruption(self):
        """Remove one node: every key NOT on that node keeps its
        assignment (the HRW property modulo placement lacks), and the
        displaced keys spread over the survivors."""
        import numpy as np
        from tldr_ray.stages.dedup import _mix64

        K = 8
        u = np.arange(5000, dtype=np.int64)

        def hrw(nodes):
            scores = np.stack(
                [_mix64((u * K + n).astype(np.uint64)) for n in nodes],
                axis=1)
            return np.array(nodes)[np.argmax(scores, axis=1)]

        full = hrw(list(range(K)))
        removed = 3
        survivors = [n for n in range(K) if n != removed]
        after = hrw(survivors)
        stay = full != removed
        assert (after[stay] == full[stay]).all()
        moved = after[~stay]
        assert set(moved.tolist()) <= set(survivors)
        # displaced keys spread over >1 survivor (not all to one)
        assert len(set(moved.tolist())) > 1

    def test_balanced(self):
        import numpy as np
        from tldr_ray.stages.dedup import _mix64

        K = 8
        u = np.arange(8000, dtype=np.int64)
        scores = np.stack(
            [_mix64((u * K + n).astype(np.uint64)) for n in range(K)],
            axis=1)
        counts = np.bincount(np.argmax(scores, axis=1), minlength=K)
        assert counts.min() > 8000 / K * 0.8
        assert counts.max() < 8000 / K * 1.2


import pytest


@pytest.mark.usefixtures("ray_session")
class TestMaxCoverageDocs:
    def test_multi_round_greedy_matches_reference(self, tmp_path):
        import numpy as np
        import pyarrow as pa
        import pyarrow.parquet as pq

        from tldr_ray.queries import QUERIES

        docs = {  # crafted so greedy needs 3+ rounds with a tie test
            0: "a b c d",
            1: "c d e f",
            2: "e f g h",
            3: "a b",          # subsumed by 0 — never picked
            4: "i",            # singleton — picked last
            5: "c d e f",      # duplicate of 1, higher id loses ties
        }
        t = pa.table({
            "doc_id": pa.array(list(docs), pa.int64()),
            "text": pa.array(list(docs.values()), pa.string()),
            "lang": pa.array(["en"] * len(docs), pa.string()),
            "source": pa.array(["s"] * len(docs), pa.string()),
            "n_chars": pa.array([len(v) for v in docs.values()],
                                pa.int64())})
        pq.write_table(t, str(tmp_path / "documents.parquet"))
        out = QUERIES["max_coverage_docs"](str(tmp_path)).to_pandas()

        # brute-force greedy reference
        sets = {k: set(v.split()) for k, v in docs.items()}
        covered, picks = set(), []
        while True:
            gains = {k: len(s - covered) for k, s in sets.items()}
            best = min((k for k in gains
                        if gains[k] == max(gains.values())))
            if gains[best] == 0:
                break
            picks.append((best, gains[best]))
            covered |= sets[best]
        assert list(zip(out["doc_id"], out["gain"])) == picks
        assert len(picks) >= 3
        assert out["covered_after"].iloc[-1] == 9  # a..i


@pytest.mark.usefixtures("ray_session")
class TestIntervalScheduling:
    def test_matches_bruteforce(self, tmp_path):
        from itertools import combinations

        import numpy as np
        import pyarrow as pa
        import pyarrow.parquet as pq

        from tldr_ray.queries import QUERIES

        rng = np.random.default_rng(13)
        rows = []
        for uid in range(8):
            n = int(rng.integers(1, 9))
            for _ in range(n):
                ts = int(rng.integers(0, 6 * 3600)) * 1_000_000
                rows.append((uid, ts, float(rng.integers(1, 50))))
        t = pa.table({
            "event_id": pa.array(range(len(rows)), pa.int64()),
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[1] for r in rows],
                           pa.timestamp("us")),
            "event_type": pa.array(["view"] * len(rows), pa.string()),
            "value": pa.array([r[2] for r in rows], pa.float64()),
            "props": pa.array(["{}"] * len(rows), pa.string())})
        pq.write_table(t, str(tmp_path / "events.parquet"))
        out = (QUERIES["interval_scheduling_users"](str(tmp_path))
               .to_pandas().set_index("user_id"))

        WIN = 1_800_000_000
        for uid in range(8):
            iv = [(r[1], r[1] + WIN, int(np.floor(r[2] * 100 + 0.5)))
                  for r in rows if r[0] == uid]
            best = 0
            for k in range(len(iv) + 1):
                for sub in combinations(range(len(iv)), k):
                    sel = sorted((iv[i] for i in sub))
                    if all(sel[a][1] <= sel[a + 1][0]
                           for a in range(len(sel) - 1)):
                        best = max(best, sum(x[2] for x in sel))
            assert out.loc[uid, "best_value_cents"] == best, uid


@pytest.mark.usefixtures("ray_session")
class TestMmrDiversity:
    def test_spans_planted_clusters(self, tmp_path):
        """Three tight clusters, one slightly closer to the query:
        pure top-5 stays inside the closest cluster; MMR must pick
        from at least two clusters."""
        import numpy as np
        import pyarrow as pa
        import pyarrow.parquet as pq

        from tldr_ray.queries import QUERIES

        rng = np.random.default_rng(21)
        centers = np.array([[1.0, 0.05, 0.0],
                            [0.9, -0.4, 0.1],
                            [0.85, 0.4, -0.2]])
        vecs, labels = [], []
        for ci, c in enumerate(centers):
            for _ in range(20):
                v = c + rng.normal(0, 0.01, 3)
                vecs.append(v / np.linalg.norm(v))
                labels.append(ci)
        t = pa.table({
            "vec_id": pa.array(range(len(vecs)), pa.int64()),
            "embedding": pa.array([list(map(float, v))
                                   for v in vecs],
                                  pa.list_(pa.float32())),
            "label": pa.array(labels, pa.int32())})
        pq.write_table(t, str(tmp_path / "embeddings.parquet"))
        out = QUERIES["mmr_diverse_embeddings"](
            str(tmp_path), k=5, pool=60, lam=0.5).to_pandas()
        picked_clusters = {labels[int(v)] for v in out["vec_id"]}
        assert len(picked_clusters) >= 2
        # and the first pick is the most query-relevant candidate
        assert out["rel"].iloc[0] == out["rel"].max()


@pytest.mark.usefixtures("ray_session")
def test_video_scene_cuts_planted_recovery():
    """Planted scene boundaries (every 8th frame) must be recovered
    exactly: cuts at frame_idx 8 and 16 for every video, none else."""
    import ray.data as rd

    from tldr_ray.stages.multimodal import (decode_mjpg_frames,
                                            detect_scene_cuts,
                                            sample_video_frames,
                                            synth_video_table)

    t = synth_video_table(10, frames=24, scene_len=8)
    frames = decode_mjpg_frames(t["payload"][0].as_py())
    assert len(frames) == 24 and frames[0].shape == (16, 24, 3)
    out = detect_scene_cuts(
        sample_video_frames(rd.from_arrow(t), stride=1),
        min_hamming=8).to_pandas()
    got = set(map(tuple, out[["video_id", "frame_idx"]].to_numpy()))
    want = {(v, f) for v in range(10) for f in (8, 16)}
    assert got == want
    # stride-2 sampling halves the rows but still straddles cuts
    s2 = sample_video_frames(rd.from_arrow(t), stride=2).to_pandas()
    assert len(s2) == 10 * 12

    import pytest as _pytest
    with _pytest.raises(NotImplementedError):
        decode_mjpg_frames(b"\x00\x00notavideo")
