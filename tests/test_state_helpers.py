"""Unit tests for state helpers and the Go sort emulation."""

import numpy as np
import pytest

from tldr_ray.kernel.go_sort import go_sort
from tldr_ray.state import (write_manifest, read_manifest, latest_checkpoint,
                            fingerprint_input)


class TestGoSorts:
    def test_both_sorts_order_correctly(self):
        rng = np.random.default_rng(5)
        for n in (0, 1, 5, 13, 50, 300):
            base = rng.integers(0, 50, n).tolist()
            data = list(base)
            go_sort(data, lambda a, b: a < b)
            assert data == sorted(base)

    def test_pdqsort_deterministic(self):
        base = [(i % 7, i) for i in range(100)]
        a, b = list(base), list(base)
        go_sort(a, lambda x, y: x[0] < y[0])
        go_sort(b, lambda x, y: x[0] < y[0])
        assert a == b  # same permutation every time


class TestStateHelpers:
    def test_manifest_roundtrip(self, tmp_path):
        d = str(tmp_path)
        assert read_manifest(d) is None
        assert latest_checkpoint(d) is None
        write_manifest(d, {"iteration": 7, "n_total": 3})
        assert read_manifest(d)["n_total"] == 3
        assert latest_checkpoint(d) == 7

    def test_fingerprint_changes_with_content(self, tmp_path):
        p1 = tmp_path / "a.parquet"
        p1.write_bytes(b"xxxx")
        f1 = fingerprint_input([str(p1)])
        assert f1 == fingerprint_input([str(p1)])
        p2 = tmp_path / "b.parquet"
        p2.write_bytes(b"yyyyyy")
        assert fingerprint_input([str(p1), str(p2)]) != f1


@pytest.mark.usefixtures("ray_session")
class TestTabularSources:
    def test_three_formats_identical(self, tmp_path):
        """parquet / CSV / JSONL of the same logical table produce
        identical projected Datasets through read_table."""
        import duckdb
        import pandas as pd
        import pyarrow as pa
        import pyarrow.parquet as pq
        from tldr_ray.sources import read_table

        src = pq.read_table("/root/testdata/sf0.001/events.parquet",
                            columns=["event_id", "event_type", "value"])
        pq.write_table(src, str(tmp_path / "t.parquet"))
        src.to_pandas().to_csv(tmp_path / "t.csv", index=False)
        src.to_pandas().to_json(tmp_path / "t.json", orient="records",
                                lines=True)
        want = (src.select(["event_id", "value"]).to_pandas()
                .sort_values("event_id").reset_index(drop=True))
        for fmt, name in [("parquet", "t.parquet"), ("csv", "t.csv"),
                          ("json", "t.json")]:
            got = (read_table(str(tmp_path / name), fmt,
                              columns=["event_id", "value"])
                   .to_pandas().sort_values("event_id")
                   .reset_index(drop=True))
            pd.testing.assert_frame_equal(
                got.astype({"event_id": "int64", "value": "float64"}),
                want, check_dtype=True), fmt

    def test_rejects_unknown_format(self):
        from tldr_ray.sources import read_table

        with pytest.raises(ValueError):
            read_table("/tmp/x", "xml")


class TestIncrementalAggregate:
    def test_two_deltas_equal_one_shot(self, tmp_path, ray_session):
        import pyarrow as pa
        import ray.data as rd
        from tldr_ray.state import (read_aggregate_state,
                                    update_running_aggregate)

        d1 = rd.from_arrow(pa.table({
            "k": pa.array(["a", "b", "a"]),
            "cents": pa.array([10, 20, 5], pa.int64())}))
        d2 = rd.from_arrow(pa.table({
            "k": pa.array(["b", "c"]),
            "cents": pa.array([7, 100], pa.int64())}))
        inc = str(tmp_path / "inc")
        v1 = update_running_aggregate(inc, d1, ["k"], ["cents"])
        v2 = update_running_aggregate(inc, d2, ["k"], ["cents"])
        assert (v1, v2) == (1, 2)
        got = read_aggregate_state(inc).to_pandas() \
            .sort_values("k").reset_index(drop=True)
        one = str(tmp_path / "one")
        update_running_aggregate(one, d1.union(d2), ["k"], ["cents"])
        want = read_aggregate_state(one).to_pandas() \
            .sort_values("k").reset_index(drop=True)
        assert got.equals(want)
        assert got.set_index("k")["cents"].to_dict() == \
            {"a": 15, "b": 27, "c": 100}
        assert got.set_index("k")["n_rows"].to_dict() == \
            {"a": 2, "b": 2, "c": 1}

    def test_orphan_version_dir_is_ignored_then_overwritten(
            self, tmp_path, ray_session):
        import os
        import pyarrow as pa
        import ray.data as rd
        from tldr_ray.state import (read_aggregate_state,
                                    update_running_aggregate)

        inc = str(tmp_path / "inc")
        d = rd.from_arrow(pa.table({
            "k": pa.array(["a"]), "cents": pa.array([1], pa.int64())}))
        update_running_aggregate(inc, d, ["k"], ["cents"])
        # simulate a crash: v=2 written but CURRENT never swapped
        os.makedirs(os.path.join(inc, "v2"))
        with open(os.path.join(inc, "v2", "junk.parquet"), "wb") as f:
            f.write(b"corrupt")
        assert read_aggregate_state(inc).count() == 1   # still v=1
        update_running_aggregate(inc, d, ["k"], ["cents"])
        got = read_aggregate_state(inc).to_pandas()
        assert got["cents"].tolist() == [2]


class TestIncrementalExactDedup:
    def _docs(self, rows):
        import pyarrow as pa
        import ray.data as rd

        return rd.from_arrow(pa.table({
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string())}))

    def test_dedups_against_history_and_itself(self, tmp_path,
                                               ray_session):
        from tldr_ray.state import incremental_exact_dedup

        sd = str(tmp_path / "fp")
        # batch 1: one internal dup (id 2 == id 0)
        b1 = self._docs([(0, "alpha doc"), (1, "beta doc"),
                         (2, "alpha doc")])
        fresh1, v1 = incremental_exact_dedup(sd, b1)
        df1 = fresh1.to_pandas().sort_values("doc_id")
        assert df1["doc_id"].tolist() == [0, 1]
        assert v1 == 1

        # batch 2: one cross-batch dup, one internal dup, one new
        b2 = self._docs([(10, "beta doc"), (11, "gamma doc"),
                         (12, "gamma doc"), (13, "delta doc")])
        fresh2, v2 = incremental_exact_dedup(sd, b2)
        df2 = fresh2.to_pandas().sort_values("doc_id")
        assert df2["doc_id"].tolist() == [11, 13]
        assert v2 == 2

        # idempotence: re-ingesting batch 2 yields nothing new
        fresh3, v3 = incremental_exact_dedup(sd, b2)
        assert fresh3.count() == 0
        assert v3 == 3

    def test_state_holds_fingerprints_not_text(self, tmp_path,
                                               ray_session):
        from tldr_ray.state import (incremental_exact_dedup,
                                    read_aggregate_state)

        sd = str(tmp_path / "fp")
        incremental_exact_dedup(sd, self._docs([(0, "only doc")]))
        state = read_aggregate_state(sd)
        assert sorted(state.schema().names) == ["h1", "h2"]
        assert state.count() == 1


class TestTimeTravel:
    def test_time_travel_and_vacuum(self, tmp_path, ray_session):
        import pyarrow as pa
        import ray.data as rd
        import pytest
        from tldr_ray.state import (list_versions, read_aggregate_state,
                                    update_running_aggregate,
                                    vacuum_state)

        d1 = rd.from_arrow(pa.table({
            "k": pa.array(["a"]), "cents": pa.array([10], pa.int64())}))
        d2 = rd.from_arrow(pa.table({
            "k": pa.array(["a"]), "cents": pa.array([5], pa.int64())}))
        d3 = rd.from_arrow(pa.table({
            "k": pa.array(["b"]), "cents": pa.array([1], pa.int64())}))
        sd = str(tmp_path / "st")
        for d in (d1, d2, d3):
            update_running_aggregate(sd, d, ["k"], ["cents"])
        assert list_versions(sd) == [1, 2, 3]
        # time travel: v1 sees only the first delta
        old = read_aggregate_state(sd, version=1).to_pandas()
        assert old.set_index("k")["cents"].to_dict() == {"a": 10}
        mid = read_aggregate_state(sd, version=2).to_pandas()
        assert mid.set_index("k")["cents"].to_dict() == {"a": 15}
        # bad versions raise
        with pytest.raises(ValueError):
            read_aggregate_state(sd, version=4)
        with pytest.raises(ValueError):
            read_aggregate_state(sd, version=0)
        # vacuum keeps the newest two; v1 becomes unreadable
        assert vacuum_state(sd, keep_last=2) == [1]
        assert list_versions(sd) == [2, 3]
        with pytest.raises(FileNotFoundError):
            read_aggregate_state(sd, version=1)
        # CURRENT unaffected
        cur = read_aggregate_state(sd).to_pandas().sort_values("k")
        assert cur.set_index("k")["cents"].to_dict() == {"a": 15, "b": 1}


@pytest.mark.usefixtures("ray_session")
class TestTxLog:
    """File-level transaction log (Delta-shaped commits)."""

    def _mk(self, vals):
        import pyarrow as pa
        import ray.data as rd
        return rd.from_arrow(pa.table({
            "k": pa.array(vals, pa.int64()),
            "v": pa.array([x * 10 for x in vals], pa.int64())}))

    def test_append_time_travel_overwrite(self, tmp_path):
        from tldr_ray.state.txlog import (txlog_append, txlog_overwrite,
                                          txlog_read, txlog_versions)

        td = str(tmp_path / "t")
        v1 = txlog_append(self._mk([1, 2]), td)
        v2 = txlog_append(self._mk([3]), td)
        assert (v1, v2) == (1, 2)
        assert sorted(txlog_read(td).to_pandas()["k"]) == [1, 2, 3]
        assert sorted(txlog_read(td, 1).to_pandas()["k"]) == [1, 2]
        v3 = txlog_overwrite(self._mk([9]), td)
        assert txlog_versions(td) == [1, 2, 3]
        assert sorted(txlog_read(td).to_pandas()["k"]) == [9]
        # old snapshots still intact after the overwrite
        assert sorted(txlog_read(td, 2).to_pandas()["k"]) == [1, 2, 3]

    def test_compact_same_rows_fewer_files(self, tmp_path):
        from tldr_ray.state.txlog import (txlog_append, txlog_compact,
                                          txlog_read,
                                          txlog_snapshot_files)

        td = str(tmp_path / "t")
        for i in range(4):
            txlog_append(self._mk(list(range(i * 5, i * 5 + 5))), td)
        before = txlog_snapshot_files(td)
        v = txlog_compact(td, target_rows_per_file=100)
        after = txlog_snapshot_files(td)
        assert len(after) < len(before)
        assert sorted(txlog_read(td).to_pandas()["k"]) == list(range(20))
        # pre-compaction version still reads the original files
        assert sorted(txlog_read(td, v - 1).to_pandas()["k"]) \
            == list(range(20))

    def test_concurrent_commit_retries_next_version(self, tmp_path):
        import json
        import os

        from tldr_ray.state.txlog import txlog_append, txlog_read

        td = str(tmp_path / "t")
        txlog_append(self._mk([1]), td)
        # another writer claims version 2 out from under us
        with open(os.path.join(td, "_txlog",
                               f"{2:011d}.json"), "w") as fh:
            json.dump({"version": 2, "op": "append", "add": [],
                       "remove": []}, fh)
        v = txlog_append(self._mk([2]), td)
        assert v == 3
        assert sorted(txlog_read(td).to_pandas()["k"]) == [1, 2]

    def test_orphans_invisible_and_vacuum(self, tmp_path):
        import os

        from tldr_ray.state.txlog import (txlog_append, txlog_overwrite,
                                          txlog_read, txlog_vacuum,
                                          txlog_versions)

        td = str(tmp_path / "t")
        txlog_append(self._mk([1, 2]), td)
        txlog_overwrite(self._mk([5]), td)
        # crash orphans: one OLD (reclaimable) and one FRESH (could be
        # a concurrent writer mid-stage -> must survive the grace)
        orphan = os.path.join(td, "data", "deadbeef-0.parquet")
        fresh = os.path.join(td, "data", "cafebabe-0.parquet")
        for p in (orphan, fresh):
            with open(p, "wb") as fh:
                fh.write(b"not parquet")
        os.utime(orphan, (1, 1))          # backdate past the grace
        assert sorted(txlog_read(td).to_pandas()["k"]) == [5]
        dropped = txlog_vacuum(td)
        assert "deadbeef-0.parquet" in dropped
        assert not os.path.exists(orphan)
        assert os.path.exists(fresh)      # grace protected it
        # history is gone, latest survives (as the checkpoint version)
        assert sorted(txlog_read(td).to_pandas()["k"]) == [5]
        with pytest.raises(ValueError):
            txlog_read(td, 1)
        assert len(txlog_versions(td)) == 1


@pytest.mark.usefixtures("ray_session")
def test_write_range_partitioned_balanced_and_prunable(tmp_path):
    """Equi-depth range layout: balanced partitions even under skew,
    round-trips exactly, and composes with zone-map pruning."""
    import os

    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from tldr_ray.sinks import build_zonemap, write_range_partitioned
    from tldr_ray.sources.tabular import read_pruned

    rng = np.random.default_rng(4)
    # heavy skew: half the rows in a narrow band
    x = np.concatenate([rng.integers(0, 100, 5000),
                        rng.integers(0, 100_000, 5000)]).astype(np.int64)
    df = pd.DataFrame({"x": x, "i": np.arange(x.size, dtype=np.int64)})
    out = str(tmp_path / "rl")
    rep = write_range_partitioned(rd.from_pandas(df).repartition(8),
                                  out, "x", num_ranges=8)
    assert len(rep["written"]) >= 4
    sizes = []
    back = []
    for d in sorted(os.listdir(out)):
        if not d.startswith("range_id="):
            continue
        import pyarrow.parquet as pq
        t = pq.read_table(os.path.join(out, d), columns=["x", "i"])
        sizes.append(t.num_rows)
        back.append(t.to_pandas())
    assert sum(sizes) == len(df)
    # balanced despite skew: no partition above 3x the fair share
    assert max(sizes) <= 3 * (len(df) // len(sizes))
    allb = pd.concat(back).sort_values("i").reset_index(drop=True)
    pd.testing.assert_frame_equal(allb[["x", "i"]],
                                  df.sort_values("i")
                                  .reset_index(drop=True)[["x", "i"]])
    # zone-map pruning opens a strict subset of files for a narrow band
    build_zonemap(out, ["x"])
    ds, stats = read_pruned(out, "x", 0, 50)
    assert 0 < stats["files_read"] < stats["files_total"]
    got = sorted(ds.to_pandas()["i"])
    want = sorted(df[(df.x >= 0) & (df.x <= 50)]["i"])
    assert got == want


@pytest.mark.usefixtures("ray_session")
def test_txlog_idempotent_append(tmp_path):
    """Same idempotency key -> the retry is a no-op returning the
    original version; different keys append normally."""
    import pyarrow as pa
    import ray.data as rd

    from tldr_ray.state.txlog import txlog_append, txlog_read

    def mk(vals):
        return rd.from_arrow(pa.table({"k": pa.array(vals, pa.int64())}))

    td = str(tmp_path / "t")
    v1 = txlog_append(mk([1, 2]), td, idempotency_key="delta-001")
    v2 = txlog_append(mk([1, 2]), td, idempotency_key="delta-001")
    assert v1 == v2 == 1
    assert sorted(txlog_read(td).to_pandas()["k"]) == [1, 2]
    v3 = txlog_append(mk([3]), td, idempotency_key="delta-002")
    assert v3 == 2
    assert sorted(txlog_read(td).to_pandas()["k"]) == [1, 2, 3]


@pytest.mark.usefixtures("ray_session")
def test_txlog_idempotency_survives_vacuum(tmp_path):
    """The checkpoint carries dropped commits' keys forward, so a
    retried append after vacuum is still a no-op."""
    import pyarrow as pa
    import ray.data as rd

    from tldr_ray.state.txlog import (txlog_append, txlog_read,
                                      txlog_vacuum)

    def mk(vals):
        return rd.from_arrow(pa.table({"k": pa.array(vals, pa.int64())}))

    td = str(tmp_path / "t")
    txlog_append(mk([1]), td, idempotency_key="d1")
    txlog_append(mk([2]), td, idempotency_key="d2")
    txlog_vacuum(td)
    v = txlog_append(mk([1]), td, idempotency_key="d1")  # retry
    assert sorted(txlog_read(td).to_pandas()["k"]) == [1, 2]
    assert v <= 3                       # no new data commit


@pytest.mark.usefixtures("ray_session")
def test_write_range_partitioned_empty_input(tmp_path):
    """0-row input degrades to an empty layout instead of crashing
    (the to_pandas-drops-columns gotcha)."""
    import pyarrow as pa
    import ray.data as rd

    from tldr_ray.sinks import write_range_partitioned

    empty = rd.from_arrow(pa.table({
        "x": pa.array([], pa.int64()),
        "i": pa.array([], pa.int64())}))
    rep = write_range_partitioned(empty, str(tmp_path / "e"), "x",
                                  num_ranges=4)
    assert rep["bounds"] == []
    assert rep["written"] == []


@pytest.mark.usefixtures("ray_session")
def test_join_view_snapshot_isolation_and_crash_orphan(tmp_path):
    """Segments beyond CURRENT are invisible (snapshot semantics);
    an orphan segment left by a crash is overwritten on retry."""
    import os
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd
    from tldr_ray.state.incremental import (read_join_view,
                                            update_join_view)

    dim = rd.from_pandas(pd.DataFrame({
        "k": np.arange(5, dtype=np.int64),
        "name": [f"n{i}" for i in range(5)]})).materialize()
    vd = str(tmp_path / "view")
    f1 = rd.from_pandas(pd.DataFrame({
        "fid": np.array([1, 2], np.int64),
        "k": np.array([0, 1], np.int64)}))
    assert update_join_view(vd, f1, dim, on="k") == 1
    # fake a crash: an orphan seg-2 exists but CURRENT still says 1
    os.makedirs(os.path.join(vd, "seg-2"), exist_ok=True)
    with open(os.path.join(vd, "seg-2", "junk.parquet"), "wb") as fh:
        fh.write(b"not parquet")
    got = read_join_view(vd).to_pandas()
    assert sorted(got["fid"]) == [1, 2]          # orphan invisible
    f2 = rd.from_pandas(pd.DataFrame({
        "fid": np.array([3], np.int64),
        "k": np.array([4], np.int64)}))
    assert update_join_view(vd, f2, dim, on="k") == 2   # overwrites
    got = read_join_view(vd).to_pandas().sort_values("fid")
    assert got["fid"].tolist() == [1, 2, 3]
    assert got["name"].tolist() == ["n0", "n1", "n4"]


@pytest.mark.usefixtures("ray_session")
class TestBloomSidecar:
    def test_prunes_and_never_misses(self, tmp_path):
        import numpy as np
        import pyarrow as pa
        import pyarrow.parquet as pq

        from tldr_ray.sinks import build_bloom_sidecar
        from tldr_ray.sources.tabular import read_bloom_filtered

        rng = np.random.default_rng(8)
        # 8 files, disjoint key ranges but NO clustering the reader
        # could exploit via min/max (keys shuffled across the range)
        all_keys = rng.permutation(80_000)[:8000].astype(np.int64)
        for i in range(8):
            part = all_keys[i * 1000:(i + 1) * 1000]
            pq.write_table(
                pa.table({"k": pa.array(part),
                          "v": pa.array(part * 2)}),
                str(tmp_path / f"f{i}.parquet"))
        meta = build_bloom_sidecar(str(tmp_path), "k")
        assert len(meta["files"]) == 8

        # every present probe is found (false negatives impossible)
        probe = all_keys[::37].tolist()
        tab, info = read_bloom_filtered(str(tmp_path), probe)
        assert sorted(tab["k"].to_pylist()) == sorted(probe)

        # absent keys prune files (high probability with m=2^16, k=6)
        missing = [x for x in range(90_000, 90_040)]
        tab2, info2 = read_bloom_filtered(str(tmp_path), missing)
        assert len(tab2) == 0
        assert info2["files_read"] < info2["files_total"]

        # single present key opens few files
        tab3, info3 = read_bloom_filtered(str(tmp_path),
                                          [int(all_keys[0])])
        assert tab3["k"].to_pylist() == [int(all_keys[0])]
        assert info3["files_read"] <= 2


def test_dp_budget_ledger_refusal_and_audit(tmp_path):
    from tldr_ray.state.dp_ledger import BudgetExceeded, DPBudgetLedger

    led = DPBudgetLedger(str(tmp_path / "l.jsonl"), eps_budget=1.0)
    assert led.spend("a", 0.6) == 0.4
    import pytest as _p
    with _p.raises(BudgetExceeded):
        led.spend("b", 0.5)            # would overdraw
    # the refused spend recorded NOTHING
    assert led.spent() == 0.6
    assert led.spend("c", 0.4) <= 1e-12
    with _p.raises(BudgetExceeded):
        led.spend("d", 0.0001)
    aud = led.audit().to_pandas()
    assert list(aud["query"]) == ["a", "c"]
    with _p.raises(ValueError):
        led.spend("e", -1.0)


def test_dp_budget_ledger_concurrent_spenders_never_overdraw(tmp_path):
    """Eight spenders race for a budget of three spends; the budget check
    is widened so that an unserialized check-then-append overdraws."""
    import threading
    import time as _time

    from tldr_ray.state.dp_ledger import BudgetExceeded, DPBudgetLedger

    class SlowLedger(DPBudgetLedger):
        def spent(self):
            used = super().spent()
            _time.sleep(0.02)
            return used

    path = str(tmp_path / "l.jsonl")
    start = threading.Barrier(8)
    results = []

    def spender(k):
        led = SlowLedger(path, eps_budget=1.0)
        start.wait(timeout=10)
        try:
            led.spend(f"q{k}", 0.3)
            results.append("ok")
        except BudgetExceeded:
            results.append("refused")

    threads = [threading.Thread(target=spender, args=(k,))
               for k in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert sorted(results) == ["ok"] * 3 + ["refused"] * 5
    assert DPBudgetLedger(path, 1.0).spent() <= 1.0
