"""Tests: bucketed hash join, keyed lookup, sentence-split stage,
pre-split sentences-table pipeline."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


@pytest.mark.usefixtures("ray_session")
class TestJoins:
    def test_bucketed_join_matches_pandas(self):
        import ray.data as rd
        from tldr_ray.stages.joins import bucketed_hash_join

        rng = np.random.default_rng(5)
        l = pd.DataFrame({"k": rng.integers(0, 50, 300),
                          "x": rng.random(300)})
        r = pd.DataFrame({"k": rng.integers(0, 50, 200),
                          "y": rng.random(200)})
        got = bucketed_hash_join(rd.from_pandas(l), rd.from_pandas(r),
                                 on="k", num_buckets=8).to_pandas()
        want = l.merge(r, on="k", how="inner")
        key = ["k", "x", "y"]
        got = got.sort_values(key).reset_index(drop=True)[key]
        want = want.sort_values(key).reset_index(drop=True)[key]
        pd.testing.assert_frame_equal(got, want)

    def test_left_join(self):
        import ray.data as rd
        from tldr_ray.stages.joins import bucketed_hash_join

        l = pd.DataFrame({"k": [1, 2, 3], "x": [10, 20, 30]})
        r = pd.DataFrame({"k": [2, 3, 4], "y": [200, 300, 400]})
        got = bucketed_hash_join(rd.from_pandas(l), rd.from_pandas(r),
                                 on="k", num_buckets=4, how="left").to_pandas()
        want = l.merge(r, on="k", how="left")
        got = got.sort_values("k").reset_index(drop=True)[["k", "x", "y"]]
        want = want.sort_values("k").reset_index(drop=True)[["k", "x", "y"]]
        # null-filling the superset schema promotes ints to float64
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_lookup_contract(self, force_shuffle):
        """inner / semi / anti over int64 and string keys, with a key
        missing from ``dim``, an empty ``ds`` (with and without a
        schema) and an empty ``dim``: the broadcast path and the forced
        shuffle path give the same rows."""
        import ray.data as rd
        from tldr_ray.stages.joins import lookup

        def rows(ds, cols):
            df = ds.to_pandas()
            return [] if df.empty else sorted(
                map(tuple, df[cols].to_numpy().tolist()))

        ints = pa.table({"k": pa.array([1, 2, 2, 3, 9], pa.int64()),
                         "x": pa.array([10, 20, 21, 30, 90], pa.int64())})
        idim = pa.table({"k": pa.array([1, 2, 3, 4], pa.int64()),
                         "v": pa.array(["a", "b", "c", "d"])})
        strs = pa.table({"s": pa.array(["x", "y", "z"]),
                         "n": pa.array([1, 2, 3], pa.int64())})
        sdim = pa.table({"s": pa.array(["y", "z", "w"]),
                         "w": pa.array([20, 30, 40], pa.int64())})
        cases = [
            (ints, idim, "k", "inner", ["k", "x", "v"],
             [(1, 10, "a"), (2, 20, "b"), (2, 21, "b"), (3, 30, "c")]),
            (ints, idim, "k", "semi", ["k", "x"],
             [(1, 10), (2, 20), (2, 21), (3, 30)]),
            (ints, idim, "k", "anti", ["k", "x"], [(9, 90)]),
            (strs, sdim, "s", "inner", ["s", "n", "w"],
             [("y", 2, 20), ("z", 3, 30)]),
            (strs, sdim, "s", "semi", ["s", "n"], [("y", 2), ("z", 3)]),
            (strs, sdim, "s", "anti", ["s", "n"], [("x", 1)]),
            (ints.slice(0, 0), idim, "k", "inner", ["k", "x", "v"], []),
            (ints.slice(0, 0), idim, "k", "anti", ["k", "x"], []),
            (ints, idim.slice(0, 0), "k", "inner", ["k", "x", "v"], []),
            (ints, idim.slice(0, 0), "k", "semi", ["k", "x"], []),
            (ints, idim.slice(0, 0), "k", "anti", ["k", "x"],
             sorted(zip(ints["k"].to_pylist(), ints["x"].to_pylist()))),
        ]
        # an empty ds whose repartition dropped its schema
        bare = rd.from_arrow(ints.slice(0, 0)).repartition(2)
        assert bare.schema() is None
        cases += [(bare, idim, "k", how, ["k", "x"], [])
                  for how in ("inner", "semi", "anti")]
        for t, dim, on, how, cols, want in cases:
            if isinstance(t, rd.Dataset):
                ds = t
            else:
                ds = rd.from_arrow(t).repartition(2) if len(t) else \
                    rd.from_arrow(t)      # keeps the empty side's schema
            got = rows(lookup(ds, rd.from_arrow(dim), on, how), cols)
            with force_shuffle():
                forced = rows(lookup(ds, rd.from_arrow(dim), on, how),
                              cols)
            assert got == want, (on, how, len(dim))
            assert forced == want, (on, how, len(dim))
        with pytest.raises(ValueError):
            lookup(rd.from_arrow(ints), rd.from_arrow(idim), "k", "left")

    def test_tagged_unions_share_one_schema(self, monkeypatch):
        """A side's missing columns fill with nulls of the other side's
        type, so both inputs of every tagged union have one schema (a
        union never mixes ``text: string`` with ``text: null``)."""
        import ray.data as rd
        from ray.data import Dataset
        from tldr_ray.stages import joins

        seen = []
        union = Dataset.union

        def spy(self, *others):
            seen.append([d.schema().base_schema for d in (self,) + others])
            return union(self, *others)

        monkeypatch.setattr(Dataset, "union", spy)
        left = rd.from_arrow(pa.table({
            "k": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(["a", "b", "c"])}))
        right = rd.from_arrow(pa.table({
            "k": pa.array([2, 3, 4], pa.int64()),
            "score": pa.array([0.5, 0.25, 0.125])}))
        changes = rd.from_arrow(pa.table({
            "k": pa.array([2], pa.int64()), "text": pa.array(["B"]),
            "op": pa.array(["U"]), "ord": pa.array([1], pa.int64())}))
        joins.bucketed_hash_join(left, right, "k").materialize()
        joins.bucketed_anti_join(left, right, "k").materialize()
        joins.bucketed_semi_join(left, right, "k").materialize()
        joins.merge_upsert(left, changes, "k").materialize()
        joins.cogroup(left, right, "k",
                      lambda k, l, r: l.iloc[0:0]).materialize()
        assert len(seen) == 5
        for schemas in seen:
            assert all(s == schemas[0] for s in schemas), schemas

    def test_bucketed_anti_join(self):
        import ray.data as rd
        from tldr_ray.stages.joins import bucketed_anti_join

        rng = np.random.default_rng(7)
        l = pd.DataFrame({"k": rng.integers(0, 40, 250),
                          "x": rng.random(250)})
        r = pd.DataFrame({"k": rng.integers(0, 40, 60)})
        got = bucketed_anti_join(rd.from_pandas(l), rd.from_pandas(r),
                                 on="k", num_buckets=8).to_pandas()
        want = l[~l["k"].isin(set(r["k"]))]
        key = ["k", "x"]
        got = got.sort_values(key).reset_index(drop=True)[key]
        want = want.sort_values(key).reset_index(drop=True)[key]
        pd.testing.assert_frame_equal(got, want)

    def test_exact_dedup_representatives(self):
        import ray.data as rd
        from tldr_ray.stages.dedup import exact_dedup_representatives

        docs = rd.from_pandas(pd.DataFrame({
            "doc_id": [3, 1, 2, 0, 4],
            "text": ["a", "b", "a", "c", "b"],
        }))
        out = exact_dedup_representatives(docs).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        assert out["doc_id"].tolist() == [0, 1, 2]
        assert out["text"].tolist() == ["c", "b", "a"]


@pytest.mark.usefixtures("ray_session")
class TestSentenceStage:
    def test_split_turns_batch(self):
        import ray.data as rd
        from tldr_ray.stages.sentences import split_turns_batch

        tab = pa.table({
            "conv_id": pa.array(["c1", "c1", "c2"]),
            "turn_idx": pa.array([0, 1, 0], pa.int32()),
            "text": pa.array(["One. Two! tail-dropped",
                              "Only here.",
                              "NoTerminator"]),
        })
        out = rd.from_arrow(tab).map_batches(
            split_turns_batch, batch_format="pyarrow").to_pandas()
        assert out["text"].tolist() == ["One.", "Two!", "Only here."]
        assert out["sent_idx"].tolist() == [0, 1, 0]


@pytest.mark.usefixtures("ray_session")
class TestSentencesTable:
    def test_presplit_matches_reference_fixture(self):
        import ray.data as rd
        from tldr_ray.sources.sentences import summarize_sentences_table

        rows = [
            ("d1", 0, "Mary had a little lamb,"),
            ("d1", 1, "it's fleece was white as snow,"),
            ("d1", 2, "and everywhere that Mary went,"),
            ("d1", 3, "that lamb was sure to go."),
        ]
        tab = pa.table({
            "doc_id": pa.array([r[0] for r in rows]),
            "sent_idx": pa.array([r[1] for r in rows], pa.int32()),
            "text": pa.array([r[2] for r in rows]),
        })
        out = summarize_sentences_table(rd.from_arrow(tab), num=1).to_pandas()
        assert out["text"].tolist() == ["it's fleece was white as snow,"]
        assert out["local_idx"].tolist() == [1]


@pytest.mark.usefixtures("ray_session")
class TestAsofJoin:
    def _reference(self, l, r, how="inner"):
        """Row-wise pandas oracle: latest right ts <= left ts per key,
        ties broken by max tiebreak value."""
        rows = []
        for _, e in l.iterrows():
            m = r[(r["k"] == e["k"]) & (r["rts"] <= e["ts"])]
            if m.empty:
                if how == "left":
                    rows.append({**e.to_dict(), "rts": pd.NaT,
                                 "tb": np.nan, "y": np.nan})
                continue
            m = m.sort_values(["rts", "tb"]).iloc[-1]
            rows.append({**e.to_dict(), "rts": m["rts"],
                         "tb": m["tb"], "y": m["y"]})
        return pd.DataFrame(rows)

    def _mk(self, seed=3, nl=400, nr=150, nk=25):
        rng = np.random.default_rng(seed)
        base = pd.Timestamp("2025-01-01")
        l = pd.DataFrame({
            "k": rng.integers(0, nk, nl),
            "ts": base + pd.to_timedelta(rng.integers(0, 10_000, nl), "s"),
            "x": rng.random(nl)})
        # coarse ts grid so (key, ts) ties actually occur
        r = pd.DataFrame({
            "k": rng.integers(0, nk, nr),
            "rts": base + pd.to_timedelta(
                rng.integers(0, 10, nr) * 1000, "s"),
            "tb": rng.permutation(nr).astype(np.int64),
            "y": rng.random(nr)})
        return l, r

    def test_inner_matches_rowwise_oracle(self):
        import ray.data as rd
        from tldr_ray.stages.joins import asof_join

        l, r = self._mk()
        got = asof_join(rd.from_pandas(l), rd.from_pandas(r), on="k",
                        left_ts="ts", right_ts="rts", tiebreak="tb",
                        num_buckets=8).to_pandas()
        want = self._reference(l, r)
        key = ["k", "ts", "x"]
        got = got.sort_values(key).reset_index(drop=True)
        want = want.sort_values(key).reset_index(drop=True)[got.columns]
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_left_keeps_unmatched(self):
        import ray.data as rd
        from tldr_ray.stages.joins import asof_join

        l, r = self._mk(seed=9, nk=40, nr=40)   # sparse rights -> misses
        got = asof_join(rd.from_pandas(l), rd.from_pandas(r), on="k",
                        left_ts="ts", right_ts="rts", tiebreak="tb",
                        num_buckets=8, how="left").to_pandas()
        assert len(got) == len(l)
        want = self._reference(l, r, how="left")
        key = ["k", "ts", "x"]
        got = got.sort_values(key).reset_index(drop=True)
        want = want.sort_values(key).reset_index(drop=True)[got.columns]
        matched = want["y"].notna()
        assert (got["y"].notna() == matched).all()
        pd.testing.assert_frame_equal(got[matched.to_numpy()].reset_index(drop=True),
                                      want[matched].reset_index(drop=True),
                                      check_dtype=False)

    def test_tiebreak_is_deterministic_across_bucket_counts(self):
        import ray.data as rd
        from tldr_ray.stages.joins import asof_join

        l, r = self._mk(seed=11)
        outs = []
        for nb in (1, 4, 16):
            o = asof_join(rd.from_pandas(l), rd.from_pandas(r), on="k",
                          left_ts="ts", right_ts="rts", tiebreak="tb",
                          num_buckets=nb).to_pandas()
            outs.append(o.sort_values(["k", "ts", "x"])
                        .reset_index(drop=True))
        pd.testing.assert_frame_equal(outs[0], outs[1], check_dtype=False)
        pd.testing.assert_frame_equal(outs[0], outs[2], check_dtype=False)


@pytest.mark.usefixtures("ray_session")
class TestRangeJoin:
    @staticmethod
    def _reference(l, r, before, after, how="inner"):
        rows = []
        for _, e in l.iterrows():
            m = r[(r["k"] == e["k"])
                  & (r["rts"] >= e["ts"] - before)
                  & (r["rts"] <= e["ts"] + after)]
            if m.empty:
                if how == "left":
                    rows.append({**e.to_dict(), "rts": pd.NaT,
                                 "y": np.nan})
                continue
            for _, mr in m.iterrows():
                rows.append({**e.to_dict(), "rts": mr["rts"],
                             "y": mr["y"]})
        return pd.DataFrame(rows)

    def _mk(self, seed=3, nl=200, nr=120, nk=15):
        rng = np.random.default_rng(seed)
        base = pd.Timestamp("2025-01-01")
        l = pd.DataFrame({
            "k": rng.integers(0, nk, nl),
            "ts": base + pd.to_timedelta(rng.integers(0, 5_000, nl), "s"),
            "x": rng.random(nl)})
        r = pd.DataFrame({
            "k": rng.integers(0, nk, nr),
            "rts": base + pd.to_timedelta(rng.integers(0, 5_000, nr), "s"),
            "y": rng.random(nr)})
        return l, r

    def test_inner_matches_rowwise_oracle(self):
        import ray.data as rd
        from tldr_ray.stages.joins import range_join

        l, r = self._mk()
        w = pd.Timedelta("300s")
        got = range_join(rd.from_pandas(l), rd.from_pandas(r), on="k",
                         left_ts="ts", right_ts="rts", before=w, after=w,
                         num_buckets=8).to_pandas()
        want = self._reference(l, r, w, w)
        key = ["k", "ts", "x", "rts", "y"]
        got = got.sort_values(key).reset_index(drop=True)[want.columns]
        want = want.sort_values(key).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_inclusive_bounds_exact(self):
        """Rights exactly AT ts-before and ts+after must both match."""
        import ray.data as rd
        from tldr_ray.stages.joins import range_join

        base = pd.Timestamp("2025-01-01")
        l = pd.DataFrame({"k": [1], "ts": [base + pd.Timedelta("100s")]})
        r = pd.DataFrame({
            "k": [1, 1, 1, 1],
            "rts": [base + pd.Timedelta(s)
                    for s in ("40s", "41s", "159s", "160s")],
            "y": [1.0, 2.0, 3.0, 4.0]})
        got = range_join(rd.from_pandas(l), rd.from_pandas(r), on="k",
                         left_ts="ts", right_ts="rts",
                         before="59s", after="59s",
                         num_buckets=4).to_pandas()
        assert sorted(got["y"]) == [2.0, 3.0]
        got2 = range_join(rd.from_pandas(l), rd.from_pandas(r), on="k",
                          left_ts="ts", right_ts="rts",
                          before="60s", after="60s",
                          num_buckets=4).to_pandas()
        assert sorted(got2["y"]) == [1.0, 2.0, 3.0, 4.0]

    def test_left_keeps_windowless(self):
        import ray.data as rd
        from tldr_ray.stages.joins import range_join

        l, r = self._mk(seed=9, nk=40, nr=25)   # sparse rights -> misses
        w = pd.Timedelta("60s")
        got = range_join(rd.from_pandas(l), rd.from_pandas(r), on="k",
                         left_ts="ts", right_ts="rts", before=w, after=w,
                         num_buckets=8, how="left").to_pandas()
        want = self._reference(l, r, w, w, how="left")
        assert len(got) == len(want)
        assert got["y"].notna().sum() == want["y"].notna().sum()

    def test_bucket_count_invariant(self):
        import ray.data as rd
        from tldr_ray.stages.joins import range_join

        l, r = self._mk(seed=11)
        w = pd.Timedelta("120s")
        outs = []
        for nb in (1, 4, 16):
            o = range_join(rd.from_pandas(l), rd.from_pandas(r), on="k",
                           left_ts="ts", right_ts="rts",
                           before=w, after=w, num_buckets=nb).to_pandas()
            outs.append(o.sort_values(["k", "ts", "x", "rts", "y"])
                        .reset_index(drop=True))
        pd.testing.assert_frame_equal(outs[0], outs[1], check_dtype=False)
        pd.testing.assert_frame_equal(outs[0], outs[2], check_dtype=False)


class TestSemiJoin:
    def test_exists_semantics(self):
        import ray.data as rd
        import pyarrow as pa
        from tldr_ray.stages.joins import bucketed_semi_join

        left = rd.from_arrow(pa.table({
            "k": pa.array([1, 2, 3, 4], pa.int64()),
            "v": pa.array(["a", "b", "c", "d"])}))
        # right has duplicates — left rows must still emit once
        right = rd.from_arrow(pa.table({
            "k": pa.array([2, 2, 4, 9], pa.int64())}))
        out = bucketed_semi_join(left, right, on="k").to_pandas()
        assert sorted(map(tuple, out[["k", "v"]].to_numpy().tolist())) \
            == [(2, "b"), (4, "d")]


class TestTableDiff:
    def test_classification(self):
        import ray.data as rd
        import pyarrow as pa
        from tldr_ray.stages.joins import table_diff

        old = rd.from_arrow(pa.table({
            "k": pa.array([1, 2, 3, 4], pa.int64()),
            "v": pa.array([10, 20, 30, 40], pa.int64())}))
        new = rd.from_arrow(pa.table({
            "k": pa.array([2, 3, 4, 5], pa.int64()),
            "v": pa.array([20, 31, 40, 50], pa.int64())}))
        out = table_diff(old, new, "k", ["v"]).to_pandas()
        got = sorted(map(tuple, out.to_numpy().tolist()))
        assert got == [(1, "removed"), (3, "changed"), (5, "added")]


class TestForwardAsof:
    def test_earliest_at_or_after_with_ties(self):
        import ray.data as rd
        import pyarrow as pa
        from tldr_ray.stages.joins import asof_join_forward

        left = rd.from_arrow(pa.table({
            "k": pa.array([1, 1, 2], pa.int64()),
            "lts": pa.array([10, 25, 5], pa.int64()),
            "lid": pa.array([100, 101, 102], pa.int64())}))
        right = rd.from_arrow(pa.table({
            "k": pa.array([1, 1, 1, 2], pa.int64()),
            "rts": pa.array([12, 12, 30, 3], pa.int64()),
            "rid": pa.array([7, 9, 8, 5], pa.int64())}))
        out = asof_join_forward(left, right, on="k", left_ts="lts",
                                right_ts="rts", tiebreak="rid") \
            .to_pandas().sort_values("lid").reset_index(drop=True)
        # lid 100 @10 -> earliest rts>=10 is 12 (tie -> max rid = 9)
        # lid 101 @25 -> rts 30, rid 8; lid 102 @5 -> no rts>=5 for
        # k=2 except 3 < 5 -> dropped (inner)
        assert out["lid"].tolist() == [100, 101]
        assert out["rid"].tolist() == [9, 8]
        assert out["rts"].tolist() == [12, 30]
        assert out["lts"].tolist() == [10, 25]


@pytest.mark.usefixtures("ray_session")
class TestCogroup:
    def test_cogroup_full_outer_semantics(self):
        import ray.data as rd

        from tldr_ray.stages.joins import cogroup

        l = rd.from_arrow(pa.table({
            "k": pa.array([1, 1, 2, 4], pa.int64()),
            "a": pa.array([10, 20, 30, 40], pa.int64())})).repartition(2)
        r = rd.from_arrow(pa.table({
            "k": pa.array([2, 3, 3], pa.int64()),
            "b": pa.array([5, 6, 7], pa.int64())})).repartition(2)

        def fn(key, lrows, rrows):
            return pd.DataFrame({
                "k": [np.int64(key)],
                "na": [np.int64(len(lrows))],
                "sa": [np.int64(lrows["a"].sum()) if len(lrows)
                       else np.int64(0)],
                "nb": [np.int64(len(rrows))],
                "sb": [np.int64(rrows["b"].sum()) if len(rrows)
                       else np.int64(0)]})

        out = (cogroup(l, r, "k", fn).to_pandas()
               .sort_values("k").reset_index(drop=True))
        # keys from either side; left-only (1, 4), both (2), right-only (3)
        assert out["k"].tolist() == [1, 2, 3, 4]
        assert out["na"].tolist() == [2, 1, 0, 1]
        assert out["sa"].tolist() == [30, 30, 0, 40]
        assert out["nb"].tolist() == [0, 1, 2, 0]
        assert out["sb"].tolist() == [0, 5, 13, 0]


@pytest.mark.usefixtures("ray_session")
def test_interval_join_matches_bruteforce():
    """Every overlapping pair exactly once (incl. spans crossing many
    buckets and touching endpoints), non-overlaps rejected."""
    import ray.data as rd

    from tldr_ray.stages.joins import interval_join

    rng = np.random.default_rng(7)
    n_l, n_r, W = 200, 60, 100
    llo = rng.integers(0, 5000, n_l)
    lhi = llo + rng.integers(0, 400, n_l)          # up to 5 buckets
    rlo = rng.integers(0, 5000, n_r)
    rhi = rlo + rng.integers(0, 250, n_r)
    left = rd.from_arrow(pa.table({
        "lid": pa.array(np.arange(n_l), pa.int64()),
        "lo": pa.array(llo, pa.int64()),
        "hi": pa.array(lhi, pa.int64())})).repartition(4)
    right = rd.from_arrow(pa.table({
        "rid": pa.array(np.arange(n_r), pa.int64()),
        "rlo": pa.array(rlo, pa.int64()),
        "rhi": pa.array(rhi, pa.int64())})).repartition(3)
    got = interval_join(left, right, "lo", "hi", "rlo", "rhi",
                        bucket_width=W).to_pandas()
    got_pairs = sorted(zip(got["lid"], got["rid"]))
    want = sorted((int(i), int(j))
                  for i in range(n_l) for j in range(n_r)
                  if llo[i] <= rhi[j] and rlo[j] <= lhi[i])
    assert got_pairs == want           # exactly-once incl. duplicates
    # touching endpoints count as overlap (inclusive semantics)
    l1 = rd.from_arrow(pa.table({"lid": pa.array([0], pa.int64()),
                                 "lo": pa.array([0], pa.int64()),
                                 "hi": pa.array([99], pa.int64())}))
    r1 = rd.from_arrow(pa.table({"rid": pa.array([0, 1], pa.int64()),
                                 "rlo": pa.array([99, 100], pa.int64()),
                                 "rhi": pa.array([150, 150], pa.int64())}))
    out = interval_join(l1, r1, "lo", "hi", "rlo", "rhi",
                        bucket_width=10).to_pandas()
    assert out["rid"].tolist() == [0]


@pytest.mark.usefixtures("ray_session")
def test_interval_join_long_span_guard():
    """Intervals spanning >max_span_buckets buckets take the counted
    broadcast path: a 1000-bucket interval never enters the
    replication exchange, both plans agree with brute force on both
    sides (incl. long x long exactly once), and the budget raises."""
    import ray.data as rd

    from tldr_ray.stages.joins import interval_join

    rng = np.random.default_rng(11)
    W = 100
    n_l, n_r = 120, 80
    llo = rng.integers(0, 8000, n_l)
    lhi = llo + rng.integers(0, 300, n_l)
    rlo = rng.integers(0, 8000, n_r)
    rhi = rlo + rng.integers(0, 300, n_r)
    # plant longs on BOTH sides: left spans 1000 buckets, right 500
    llo[0], lhi[0] = 50, 50 + 1000 * W
    llo[1], lhi[1] = 90_000, 90_000 + 800 * W   # overlaps right long
    rlo[0], rhi[0] = 70_000, 70_000 + 500 * W
    left = rd.from_arrow(pa.table({
        "lid": pa.array(np.arange(n_l), pa.int64()),
        "lo": pa.array(llo, pa.int64()),
        "hi": pa.array(lhi, pa.int64())})).repartition(4)
    right = rd.from_arrow(pa.table({
        "rid": pa.array(np.arange(n_r), pa.int64()),
        "rlo": pa.array(rlo, pa.int64()),
        "rhi": pa.array(rhi, pa.int64())})).repartition(3)
    want = sorted((int(i), int(j))
                  for i in range(n_l) for j in range(n_r)
                  if llo[i] <= rhi[j] and rlo[j] <= lhi[i])
    # guarded plan (default max_span_buckets=64)
    got = interval_join(left, right, "lo", "hi", "rlo", "rhi",
                        bucket_width=W).to_pandas()
    assert sorted(zip(got["lid"], got["rid"])) == want
    # pure-replication plan agrees (the 1000x replication the guard
    # avoids is still exact, just expensive)
    got2 = interval_join(left, right, "lo", "hi", "rlo", "rhi",
                         bucket_width=W,
                         max_span_buckets=None).to_pandas()
    assert sorted(zip(got2["lid"], got2["rid"])) == want
    # long_budget exceeded raises with remediation
    with pytest.raises(ValueError, match="max_span_buckets"):
        interval_join(left, right, "lo", "hi", "rlo", "rhi",
                      bucket_width=1,  # every interval is long now
                      max_span_buckets=2, long_budget=10).to_pandas()


@pytest.mark.usefixtures("ray_session")
def test_auto_join_paths_equal(force_shuffle):
    """The broadcast and bucketed sides of the auto_join gate produce
    identical frames (inner and left, incl. an unmatched left key)."""
    import ray.data as rd

    from tldr_ray.stages.joins import auto_join

    left = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 2, 3, 9], pa.int64()),
        "a": pa.array([10, 20, 21, 30, 90], pa.int64())})).repartition(3)
    right = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 3, 4], pa.int64()),
        "b": pa.array(["x", "y", "z", "w"],
                      pa.string())})).repartition(2)

    def norm(df):
        df = df[sorted(df.columns)]
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    for how in ("inner", "left"):
        bc = norm(auto_join(left, right, "k", how=how).to_pandas())
        with force_shuffle():
            bk = norm(auto_join(left, right, "k", how=how).to_pandas())
        # dtypes must agree too — no cast-away slack: both paths are
        # pandas merges, so NaN-promotion on left joins is identical
        pd.testing.assert_frame_equal(bc, bk, check_dtype=True)
        assert (len(bc) == 4) if how == "inner" else (len(bc) == 5)

    # numeric right column on a left join: the NaN fill promotes to
    # float64 on BOTH paths (identical frames incl. dtype)
    right_num = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 3, 4], pa.int64()),
        "c": pa.array([7, 8, 9, 4], pa.int64())})).repartition(2)
    bc = norm(auto_join(left, right_num, "k", how="left").to_pandas())
    with force_shuffle():
        bk = norm(auto_join(left, right_num, "k", how="left").to_pandas())
    pd.testing.assert_frame_equal(bc, bk, check_dtype=True)
    assert bc["c"].dtype == np.float64 and bc["c"].isna().sum() == 1


@pytest.mark.usefixtures("ray_session")
def test_asof_tolerance_matches_pandas_merge_asof():
    """tolerance drops matches farther than the window — pandas
    merge_asof(tolerance=...) semantics, backward and forward, inner
    and left."""
    import ray.data as rd

    from tldr_ray.stages.joins import asof_join, asof_join_forward

    rng = np.random.default_rng(23)
    nl, nr = 400, 300
    l = pd.DataFrame({
        "k": rng.integers(0, 20, nl).astype(np.int64),
        "lts": rng.integers(0, 10_000, nl).astype(np.int64),
        "lid": np.arange(nl, dtype=np.int64)})
    r = pd.DataFrame({
        "k": rng.integers(0, 20, nr).astype(np.int64),
        "rts": rng.integers(0, 10_000, nr).astype(np.int64),
        "rid": np.arange(nr, dtype=np.int64)})
    # unique (k, rts) so the tiebreak contract can't differ from pandas
    r = r.drop_duplicates(["k", "rts"]).reset_index(drop=True)
    TOL = 500

    def pd_asof(direction):
        return pd.merge_asof(
            l.sort_values("lts", kind="mergesort"),
            r.sort_values("rts", kind="mergesort"),
            left_on="lts", right_on="rts", by="k",
            tolerance=TOL, direction=direction)

    for direction, fn in (("backward", asof_join),
                          ("forward", asof_join_forward)):
        want = pd_asof(direction)
        got = fn(rd.from_pandas(l).repartition(4),
                 rd.from_pandas(r).repartition(3),
                 on="k", left_ts="lts", right_ts="rts",
                 tiebreak="rid", how="left",
                 tolerance=TOL).to_pandas()
        wmap = want.set_index("lid")["rid"]
        gm = got.set_index("lid")["rid"]
        for lid in l["lid"]:
            w = wmap.loc[lid]
            g = gm.loc[lid]
            w = None if pd.isna(w) else int(w)
            g = None if pd.isna(g) or (isinstance(g, (int, np.integer))
                                       and g < 0) else int(g)
            assert g == w, (direction, lid, g, w)
        # inner == left minus the unmatched rows
        inner = fn(rd.from_pandas(l).repartition(4),
                   rd.from_pandas(r).repartition(3),
                   on="k", left_ts="lts", right_ts="rts",
                   tiebreak="rid", how="inner",
                   tolerance=TOL).to_pandas()
        assert sorted(inner["lid"]) == sorted(
            want.dropna(subset=["rid"])["lid"].astype(int))
