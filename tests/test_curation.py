"""End-to-end curation pipeline test."""

import contextlib

import pyarrow as pa
import pytest


@pytest.mark.usefixtures("ray_session")
def test_curate_documents(tmp_path):
    import ray.data as rd

    from tldr_ray.pipelines.curation import curate_documents

    good = ("the quick brown fox jumps over the lazy dog while the band "
            "plays a quiet waltz near the old harbor in heavy autumn rain")
    near = good.replace("quiet waltz", "quiet polka")
    junk = "!!! ??? 000 111 222 333 444 555 !!! ???"
    texts = [good, near, good, junk,
             "copper pipes and nickel fittings fill the quiet alpine "
             "workshop where the old turbine engine rests on a ledger of "
             "oak beams near the river"]
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts),
    }))

    out_dir = str(tmp_path / "curated")
    curated, report = curate_documents(
        docs, min_quality=0.5, near_dup_threshold=0.5, out_dir=out_dir)
    ids = sorted(curated.to_pandas()["doc_id"])

    assert report["input_rows"] == 5
    assert report["after_quality"] == 4           # junk gated out
    assert report["after_exact_dedup"] == 3       # doc 2 == doc 0 exactly
    assert report["near_dup_dropped"] == 1        # doc 1 near-dups doc 0
    assert ids == [0, 4]
    assert report["output_rows"] == 2
    import os

    assert any(f.endswith(".parquet") for f in os.listdir(out_dir))


class TestPretrainingMix:
    def test_stage_counts_and_packing_invariants(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd
        from tldr_ray.pipelines import prepare_pretraining_mix

        rng = np.random.default_rng(3)
        langs = ["en", "de", "es"]
        rows = {"doc_id": list(range(120)),
                "lang": [langs[i % 3] for i in range(120)],
                "text": [" ".join(rng.choice(
                    ["the", "cat", "sat", "on", "mats", "zz"],
                    rng.integers(5, 40))) for _ in range(120)]}
        docs = rd.from_arrow(pa.table({
            "doc_id": pa.array(rows["doc_id"], pa.int64()),
            "lang": pa.array(rows["lang"]),
            "text": pa.array(rows["text"])}))
        packed, rep = prepare_pretraining_mix(
            docs, lang_budget_tokens=200, shard_budget_tokens=64)
        df = packed.to_pandas()
        assert rep["n_input"] == 120
        assert rep["n_input"] >= rep["n_after_quality_gate"] \
            >= rep["n_after_lang_budget"] == len(df)
        # per-language token budgets hold
        # (recover lang by doc_id parity of the fixture)
        lang_of = {i: langs[i % 3] for i in range(120)}
        tot: dict = {}
        for r in df.itertuples():
            tot[lang_of[r.doc_id]] = tot.get(lang_of[r.doc_id], 0) \
                + r.n_tokens
        assert all(v <= 200 for v in tot.values()), tot
        # shard ids: exact scan semantics — floor(prefix_before/budget)
        d2 = df.sort_values("doc_id")
        prefix = np.concatenate(
            [[0], np.cumsum(d2["n_tokens"].to_numpy())[:-1]])
        assert (d2["shard_id"].to_numpy() == prefix // 64).all()


@pytest.mark.usefixtures("ray_session")
class TestExportTrainingShards:
    def _docs(self):
        import pyarrow as pa
        import ray.data as rd

        rng_words = [f"w{i}" for i in range(30)]
        texts = [" ".join(rng_words[(i * 7) % 25:(i * 7) % 25 + 5 + i % 9])
                 for i in range(60)]
        return rd.from_arrow(pa.table({
            "doc_id": pa.array(range(60), pa.int64()),
            "text": pa.array(texts, pa.string())}))

    def test_export_and_resume(self, tmp_path):
        import glob
        import os

        import pyarrow.parquet as pq

        from tldr_ray.pipelines import export_training_shards

        out = str(tmp_path / "shards")
        rep = export_training_shards(self._docs(), out, budget=40)
        assert rep["n_shards"] >= 3 and not rep["skipped"]

        # every shard dir is _DONE-marked; shard token sums stay under
        # budget + max doc (packing can overshoot by at most one doc)
        dirs = sorted(glob.glob(f"{out}/shard_id=*"))
        assert len(dirs) == rep["n_shards"]
        tok_by_shard = {}
        for d in dirs:
            assert os.path.exists(os.path.join(d, "_DONE"))
            t = pq.read_table(d)
            sid = int(d.rsplit("=", 1)[1])
            tok_by_shard[sid] = int(
                sum(t["n_tokens"].to_pylist()))
        max_doc = 13
        assert all(v <= 40 + max_doc for v in tok_by_shard.values())
        # contiguous shard ids, all docs present exactly once
        assert sorted(tok_by_shard) == list(range(len(dirs)))
        total = sum(pq.read_table(d).num_rows for d in dirs)
        assert total == 60

        # resume: drop one marker -> only that shard rewrites
        victim = dirs[1]
        os.remove(os.path.join(victim, "_DONE"))
        rep2 = export_training_shards(self._docs(), out, budget=40)
        assert rep2["written"] == [victim.rsplit("=", 1)[1]]
        assert len(rep2["skipped"]) == len(dirs) - 1
        # deterministic re-pack: rewritten shard equals its first run
        t2 = pq.read_table(victim)
        assert sorted(t2["doc_id"].to_pylist()) == sorted(
            pq.read_table(victim)["doc_id"].to_pylist())
        assert int(sum(t2["n_tokens"].to_pylist())) == tok_by_shard[1]


@pytest.mark.usefixtures("ray_session")
class TestIncrementalIngest:
    """Landing zone -> incremental dedup -> txlog exactly-once."""

    def _land(self, d, name, rows):
        import pyarrow as pa
        import pyarrow.parquet as pq

        pq.write_table(pa.table({
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string())}),
            f"{d}/{name}")

    def test_two_ticks_then_replay(self, tmp_path):
        import os

        from tldr_ray.pipelines.ingest import incremental_ingest
        from tldr_ray.state.txlog import txlog_read

        land = str(tmp_path / "land")
        os.makedirs(land)
        man = str(tmp_path / "manifest.txt")
        table = str(tmp_path / "table")
        state = str(tmp_path / "state")

        self._land(land, "a.parquet", [(0, "alpha"), (1, "beta")])
        r1 = incremental_ingest(land, man, table, state)
        assert r1["rows_in"] == 2 and r1["rows_fresh"] == 2
        assert r1["version"] == 1

        # delta 2: one cross-delta dup, one internal dup, one new
        self._land(land, "b.parquet", [(10, "beta"), (11, "gamma"),
                                       (12, "gamma")])
        r2 = incremental_ingest(land, man, table, state)
        assert r2["rows_fresh"] == 1
        got = sorted(txlog_read(table).to_pandas()["doc_id"])
        assert got == [0, 1, 11]

        # idle tick: nothing new
        r3 = incremental_ingest(land, man, table, state)
        assert r3["version"] is None and r3["files"] == []

        # crash-replay: wipe the manifest (as if mark never ran) and
        # re-tick — dedup drops everything, table unchanged
        os.remove(man)
        r4 = incremental_ingest(land, man, table, state)
        assert r4["rows_fresh"] == 0
        assert sorted(txlog_read(table).to_pandas()["doc_id"]) \
            == [0, 1, 11]


@pytest.mark.usefixtures("ray_session")
def test_forget_keys_paths_equal_and_verified(tmp_path, force_shuffle):
    """Broadcast and anti-join deletion paths produce identical
    survivor sets + audit; verification catches a planted leak."""
    import numpy as np
    import pandas as pd
    import ray.data as rd
    import pyarrow.parquet as pq
    from tldr_ray.pipelines.forget import forget_keys

    rng = np.random.RandomState(9)
    df = pd.DataFrame({
        "id": np.arange(500, dtype=np.int64),
        "k": rng.randint(0, 50, 500).astype(np.int64)})
    dk = pd.DataFrame({"k": np.array([3, 7, 11, 49], np.int64)})

    reps = []
    survivors = []
    for i, forced in enumerate([False, True]):   # broadcast vs anti-join
        out = str(tmp_path / f"run{i}")
        with force_shuffle() if forced else contextlib.nullcontext():
            rep = forget_keys([("t", rd.from_pandas(df), "k")],
                              rd.from_pandas(dk), out).to_pandas()
        reps.append(rep)
        got = pq.read_table(out + "/t").to_pandas() \
            .sort_values("id").reset_index(drop=True)
        survivors.append(got)
    pd.testing.assert_frame_equal(reps[0], reps[1])
    pd.testing.assert_frame_equal(
        survivors[0][["id", "k"]], survivors[1][["id", "k"]])
    want = df[~df["k"].isin(dk["k"])].reset_index(drop=True)
    pd.testing.assert_frame_equal(survivors[0][["id", "k"]], want)
    assert reps[0].loc[0, "rows_deleted"] == len(df) - len(want)
    # planted leak: a table whose key column dodges the delete but
    # whose verify pass re-checks a DIFFERENT, still-matching column
    # is simulated by verifying against an output we corrupt
    out_bad = str(tmp_path / "bad")
    forget_keys([("t", rd.from_pandas(df), "k")],
                rd.from_pandas(dk), out_bad, verify=False)
    pq.write_table(pa.table({"k": pa.array([3], pa.int64())}),
                   out_bad + "/t/leak.parquet")
    import ray
    from tldr_ray.pipelines import forget as fg
    assert fg._written_rows(out_bad + "/t") == len(want) + 1
