"""Edge-table build: frozen output digests of the edge builders, and the
headline (edges -> engine -> PageRank and CC) on edgeless and null-tool
inputs.

The digests pin ``stages.edges`` bit for bit on one seeded synthetic
corpus. The engine folds floats in block-content order, so the row
order inside each output block is part of the contract: over a
single-block input the fused shuffle sorts every part into ONE output
block, and that block is pinned row by row. Over a multi-block input
the block cut depends on the shuffle, so only the edge multiset is
pinned there.
"""

import hashlib

import numpy as np
import pyarrow as pa
import pytest

from tldr_ray.sources import synth_transcripts_table

_COLS = ["src", "dst", "weight", "etype"]


def _corpus():
    return synth_transcripts_table(200, seed=5)


def _digest(t: pa.Table) -> str:
    h = hashlib.blake2b(digest_size=12)
    h.update(np.asarray(t["src"], np.int64).tobytes())
    h.update(np.asarray(t["dst"], np.int64).tobytes())
    h.update(np.asarray(t["weight"], np.float64).tobytes())
    h.update("\n".join(t["etype"].to_pylist()).encode())
    return h.hexdigest()


def _multiset_digest(ds) -> tuple[int, str]:
    t = pa.Table.from_pandas(ds.to_pandas()[_COLS], preserve_index=False)
    return t.num_rows, _digest(t.sort_by([(c, "ascending") for c in _COLS]))


def _blocks(tab: pa.Table, n: int):
    import ray.data as rd

    cuts = np.linspace(0, tab.num_rows, n + 1).astype(int)
    return rd.from_arrow([tab.slice(a, b - a)
                          for a, b in zip(cuts[:-1], cuts[1:])])


@pytest.mark.usefixtures("ray_session")
def test_transcript_graph_single_block_order_pinned():
    import ray
    import ray.data as rd

    from tldr_ray.stages.edges import transcript_graph

    refs = transcript_graph(rd.from_arrow(_corpus())).to_arrow_refs()
    blocks = [ray.get(r) for r in refs]
    blocks = [b for b in blocks if b.num_rows]
    assert len(blocks) == 1
    assert blocks[0].column_names == _COLS
    assert (blocks[0].num_rows, _digest(blocks[0])) == \
        (169122, "7e54e47edeac0922494d8d9a")


# builder -> (edge count, multiset digest) over a 7-block input
MULTISET = {
    "transcript_graph": (169122, "55a1352d22cf5a445dfdc419"),
    "similarity_edges": (152440, "af365615add5641f0bd65b49"),
    "cooccurrence_edges": (16682, "8d45949d4ba4205fb382fccf"),
    "tool_cooccurrence_edges": (9684, "047d0298f7ceab6264229c3b"),
}


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("name", sorted(MULTISET))
def test_edge_multiset_pinned(name):
    from tldr_ray.stages import edges

    builds = {
        "transcript_graph": edges.transcript_graph,
        "similarity_edges": edges.similarity_edges,
        "cooccurrence_edges": edges.cooccurrence_edges,
        "tool_cooccurrence_edges": edges.tool_cooccurrence_edges,
    }
    assert _multiset_digest(builds[name](_blocks(_corpus(), 7))) == \
        MULTISET[name]


# -- headline fault matrix -------------------------------------------------

def _null_tool(tab: pa.Table, typ: pa.DataType) -> pa.Table:
    return tab.set_column(tab.schema.get_field_index("tool"), "tool",
                          pa.nulls(tab.num_rows, typ))


FAULT_INPUTS = {
    "empty": lambda t: t.slice(0, 0),
    "one_sentence": lambda t: t.slice(0, 1).set_column(
        t.schema.get_field_index("text"), "text",
        pa.array(["Only one sentence here."])),
    "null_tool_string": lambda t: _null_tool(t, pa.string()),
    "null_tool_null": lambda t: _null_tool(t, pa.null()),
}


def _headline(tab: pa.Table):
    """transcripts -> transcript_graph -> GraphEngine -> PageRank and
    connected components: (edge frame, n_vertices, pagerank, cc)."""
    import ray.data as rd

    from tldr_ray.graph import GraphEngine
    from tldr_ray.stages.edges import transcript_graph

    edges = transcript_graph(rd.from_arrow(tab))
    df = edges.to_pandas()
    runs = []
    for symmetrize, run in ((False, lambda e: e.pagerank()),
                            (True, lambda e: e.connected_components())):
        eng = GraphEngine.from_edges(
            edges.select_columns(["src", "dst", "weight"]), 3,
            symmetrize=symmetrize)
        try:
            runs.append((eng.n_total, run(eng)))
        finally:
            eng.shutdown()
    (n_pr, pr), (n_cc, cc) = runs
    assert n_pr == n_cc
    return df, n_pr, pr, cc


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("name", ["empty", "one_sentence"])
def test_headline_on_edgeless_input_is_an_empty_graph(name):
    import ray
    import ray.data as rd

    from tldr_ray.stages.edges import transcript_graph

    tab = FAULT_INPUTS[name](synth_transcripts_table(10, seed=42))
    edges = transcript_graph(rd.from_arrow(tab)).materialize()
    typed = pa.schema([("src", pa.int64()), ("dst", pa.int64()),
                       ("weight", pa.float64()), ("etype", pa.string())])
    schema = edges.schema()
    assert schema is not None and list(schema.names) == _COLS
    assert list(schema.types) == list(typed.types)
    # Ray's to_pandas() drops the columns of every 0-row Dataset, so the
    # frame's columns are checked on the blocks it is built from (Ray's
    # shuffle of a 0-row input leaves one block with no columns at all)
    blocks = [ray.get(r) for r in edges.to_arrow_refs()]
    assert any(b.schema.equals(typed) for b in blocks)
    assert all(b.schema.equals(typed) for b in blocks if b.num_columns)
    df, n, (pr_ids, scores, pr_info), (cc_ids, labels, cc_info) = \
        _headline(tab)
    assert len(df) == 0 and n == 0
    assert len(pr_ids) == len(scores) == len(cc_ids) == len(labels) == 0
    assert pr_info["converged"] and cc_info["converged"]


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("name", ["null_tool_string", "null_tool_null"])
def test_headline_with_all_null_tools_has_no_tool_edges(name):
    import ray.data as rd

    from tldr_ray.stages.edges import (entity_cooccurrence_edges,
                                       similarity_edges)

    tab = FAULT_INPUTS[name](synth_transcripts_table(10, seed=42))
    df, n, (pr_ids, scores, pr_info), (cc_ids, _, cc_info) = \
        _headline(tab)
    want = {}
    for ds in (similarity_edges(rd.from_arrow(tab)),
               entity_cooccurrence_edges(rd.from_arrow(tab))):
        for etype, k in ds.to_pandas()["etype"].value_counts().items():
            want[etype] = want.get(etype, 0) + k
    got = df["etype"].value_counts().to_dict()
    assert got == want and want["sim"] > 0 and want["entity"] > 0
    assert n > 0 and pr_info["converged"] and cc_info["converged"]
    np.testing.assert_allclose(scores.sum(), 1.0, atol=1e-9)
    assert np.array_equal(np.sort(pr_ids), np.sort(cc_ids))


def test_similarity_edge_columns_follow_their_conversation():
    # the etype and conv_id columns are takes of their distinct values:
    # every edge is "sim" and carries the conversation its vertices hash
    # to, across a conversation with no edges between two with edges
    import pandas as pd

    from tldr_ray.config import SummarizeConfig
    from tldr_ray.stages.edges import _convs_edges_table, conv_vertex_base

    convs = synth_transcripts_table(6, seed=5).to_pandas()
    ids = convs["conv_id"].unique()
    lone = convs[convs["conv_id"] == ids[0]].head(1).assign(
        conv_id="lone", text="Only one sentence here.")
    group = pd.concat([convs[convs["conv_id"].isin(ids[:3])], lone,
                       convs[convs["conv_id"].isin(ids[3:])]])
    tab = _convs_edges_table(group, SummarizeConfig(), None)
    assert tab.schema.field("etype").type == pa.string()
    assert tab.schema.field("conv_id").type == pa.string()
    assert set(tab["etype"].to_pylist()) == {"sim"}
    conv = tab["conv_id"].to_pylist()
    assert set(conv) == set(ids)
    base = np.array([conv_vertex_base(c) for c in conv]) >> 16
    assert np.array_equal(np.asarray(tab["src"]) >> 16, base)
    assert np.array_equal(np.asarray(tab["dst"]) >> 16, base)

    empty = _convs_edges_table(lone, SummarizeConfig(), None)
    assert empty.num_rows == 0
    assert empty.column_names == [*_COLS, "conv_id"]
