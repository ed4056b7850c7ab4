"""Local replica of the driver's correctness harness.

Runs every SQL-checkable QUERIES entry at sf0.001 and compares
row-count, schema (column names) and order-insensitive values against
the DuckDB oracle.
"""

import duckdb
import pandas as pd
import pytest

from tldr_ray import queries as q

SF_DIR = "/root/testdata/sf0.001"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def oracle_df(sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM '{SF_DIR}/{t}.parquet'")
    return con.execute(sql).df()


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def to_pandas(result) -> pd.DataFrame:
    if isinstance(result, pd.DataFrame):
        return result
    if hasattr(result, "to_pandas"):
        return result.to_pandas()
    raise TypeError(type(result))


def test_kept_surface_holds_the_driver_queries():
    """Every query the driver checks (the keys of CORRECTNESS_r05.json)
    stays registered, and every oracle names a registered query."""
    import json
    import pathlib

    driver = json.loads((pathlib.Path(__file__).resolve().parents[1]
                         / "CORRECTNESS_r05.json").read_text())
    assert len(driver) == 50
    assert set(driver) <= set(q.QUERIES)
    assert set(q.ORACLE_SQL) <= set(q.QUERIES)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("name", sorted(q.ORACLE_SQL))
def test_query_matches_oracle(name):
    got = normalize(to_pandas(q.QUERIES[name](SF_DIR)))
    want = normalize(oracle_df(q.ORACLE_SQL[name]))
    assert list(got.columns) == list(want.columns)
    assert len(got) == len(want)
    got = got.astype(want.dtypes.to_dict())
    pd.testing.assert_frame_equal(got, want)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("name", sorted(set(q.QUERIES) - set(q.ORACLE_SQL)))
def test_rows_only_queries_run(name):
    df = to_pandas(q.QUERIES[name](SF_DIR))
    assert len(df) >= 0


@pytest.mark.usefixtures("ray_session")
def test_revenue_join_path_matches_broadcast(force_shuffle):
    """The size-gated bucketed-join fallback must produce the same table
    as the broadcast path."""
    a = normalize(to_pandas(q.revenue_by_nation(SF_DIR)))
    with force_shuffle():
        b = normalize(to_pandas(q.revenue_by_nation(SF_DIR)))
    pd.testing.assert_frame_equal(a, b)


@pytest.mark.usefixtures("ray_session")
def test_entry_smoke():
    import importlib
    import sys

    sys.path.insert(0, "/root/repo")
    mod = importlib.import_module("__ray_entry__")
    out = mod.entry()
    df = to_pandas(out)
    assert len(df) >= 0
    assert set(mod.oracle_sql()) <= set(mod.queries())


def test_tpch_q3_join_path_matches_broadcast(force_shuffle):
    """The size-gated broadcast path and the bucketed-join fallback
    must produce identical Q3 results."""
    import pandas as pd

    from tldr_ray import queries as q

    sf = "/root/testdata/sf0.001"
    a = q.tpch_q3(sf).to_pandas().reset_index(drop=True)
    with force_shuffle():
        b = q.tpch_q3(sf).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


class TestInterleaveMix:
    def test_schedule_proportions(self):
        """A prefix of the stride schedule carries languages in
        ~weight proportion (en weight 4 vs fr weight 1)."""
        from tldr_ray.queries import interleave_mix_docs

        df = interleave_mix_docs("/root/testdata/sf0.001") \
            .to_pandas().sort_values(["sched_key", "lang", "rn"])
        head = df.head(60)
        counts = head["lang"].value_counts()
        assert counts.get("en", 0) >= 2 * max(counts.get("fr", 0), 1)
        # deterministic: ranks within a language are 1..n_l
        g = df[df["lang"] == "en"].sort_values("rn")
        assert g["rn"].tolist() == list(range(1, len(g) + 1))


@pytest.mark.usefixtures("ray_session")
def test_cluster_aware_split_has_zero_leakage():
    """No near-duplicate pair crosses the train/test boundary, and the
    split is roughly 80/20 over clusters."""
    from tldr_ray.stages.dedup import minhash_lsh_pairs
    from tldr_ray import queries as qq

    out = to_pandas(qq.QUERIES["cluster_aware_split_docs"](SF_DIR))
    side = dict(zip(out["doc_id"], out["split"]))
    import ray.data as rd
    docs = rd.read_parquet(f"{SF_DIR}/documents.parquet",
                           columns=["doc_id", "text"])
    pairs = minhash_lsh_pairs(docs, threshold=0.5).to_pandas()
    pairs = pairs[(pairs["id_a"] >= 0)]
    crossing = sum(side[a] != side[b]
                   for a, b in zip(pairs["id_a"], pairs["id_b"]))
    assert crossing == 0
    frac = (out["split"] == "train").mean()
    assert 0.6 < frac < 0.95
