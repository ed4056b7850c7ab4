"""Round-3 verdict items 2+3: dimension decorations are size-gated
(broadcast within a row budget, bucketed joins past it) and
bounded-output lookups never read a fact-sized table to the driver.
These tests pin both-paths equality at sf0.001: forcing every gate past
its budget (the ``force_shuffle`` fixture) must produce identical
results."""

import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    cols = sorted(df.columns)
    return df[cols].sort_values(cols).reset_index(drop=True)


class TestPrunedDriverReads:
    def test_fetch_query_vecs_pushdown(self):
        """_fetch_query_vecs returns exactly the requested rows in id
        order via parquet predicate pushdown."""
        import pyarrow.parquet as pq

        from tldr_ray.queries import _fetch_query_vecs

        got = _fetch_query_vecs(SF, [2, 0])
        t = pq.read_table(f"{SF}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
        ids = t["vec_id"].to_pylist()
        want2 = np.asarray(t["embedding"][ids.index(2)].as_py(),
                           dtype=np.float32)
        want0 = np.asarray(t["embedding"][ids.index(0)].as_py(),
                           dtype=np.float32)
        assert np.array_equal(got[0], want2)
        assert np.array_equal(got[1], want0)
        with pytest.raises(KeyError):
            _fetch_query_vecs(SF, [10**12])


class TestDimDecorate:
    def test_broadcast_and_bucketed_paths_equal(self, force_shuffle):
        """_dim_decorate (the reusable size-gated decoration) must
        produce identical rows on both sides of its gate."""
        from tldr_ray.queries import _dim_decorate, _read

        line = _read(SF, "lineitem", ["l_orderkey", "l_suppkey"])
        a = _norm(_dim_decorate(
            line, SF, "supplier", "s_suppkey", "s_nationkey",
            on="l_suppkey", out_col="s_nat").to_pandas())
        with force_shuffle():
            b = _norm(_dim_decorate(
                line, SF, "supplier", "s_suppkey", "s_nationkey",
                on="l_suppkey", out_col="s_nat").to_pandas())
        assert len(a) > 0
        pd.testing.assert_frame_equal(
            a, b.astype(a.dtypes.to_dict()))
