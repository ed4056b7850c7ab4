"""The workloads: one pass each through the program's public layers.

A pass is timed from reading the input Parquet to the collected result.
With ``materialize`` set, each stage boundary is materialized, so that the
spans around the layer calls time each layer on its own; the untraced pass
streams through the same calls unmaterialized.

Each workload also holds the references its outputs are checked against.
They come from the program's sequential oracles (``kernel.pagerank_ref``,
``kernel.summarize_with_indices``) or from code in this benchmark (the
union-find), and are computed once per run during set-up.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np
import pyarrow as pa

from inputs import cached_input, table_digest
from hostinfo import peak_rss_mb

P = 4                       # shard actors in the graph engine
PR_TOLERANCE = 1e-4
LPA_ROUNDS = 20
SUMMARY_SENTENCES = 3
CHECK_SAMPLE_DOCS = 8       # long documents re-summarized sequentially
KERNEL_SAMPLE_DOCS = {"transcripts-graph": 200, "long-doc-summarize": 16}
PR_ATOL = 1e-6              # allclose bound against kernel.pagerank_ref
PR_RTOL = 1e-6


def _collect(eng, value_name: str):
    """Engine state as (sorted vertex ids, values) via the public
    ``to_dataset`` path."""
    df = eng.to_dataset(value_name).to_pandas()
    ids = df["vertex"].to_numpy(np.int64)
    vals = df[value_name].to_numpy()
    order = np.argsort(ids, kind="stable")
    return ids[order], vals[order]


def _array_digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=8)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _to_table(ds) -> pa.Table:
    import ray

    refs = ds.to_arrow_refs()
    tabs = ray.get(refs)
    return pa.concat_tables(tabs) if tabs else pa.table({})


def _union_find_labels(src: np.ndarray, dst: np.ndarray):
    """(vertex ids ascending, min vertex id of each vertex's undirected
    component), by union-find with path halving."""
    ids = np.unique(np.concatenate([src, dst]))
    s = np.searchsorted(ids, src).tolist()
    d = np.searchsorted(ids, dst).tolist()
    parent = list(range(ids.size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(s, d):
        ra, rb = find(a), find(b)
        if ra != rb:
            # the smaller index stays the root: ids are sorted, so each
            # root is its component's minimum vertex id
            if ra < rb:
                parent[rb] = ra
            else:
                parent[ra] = rb
    roots = np.fromiter((find(i) for i in range(ids.size)), np.int64,
                        count=ids.size)
    return ids, ids[roots]


class PassResult:
    def __init__(self):
        self.wall_s = 0.0
        self.rss_mb = 0.0
        self.obs: dict = {}       # per-layer observations (counts, infos)
        self.out: dict = {}       # outputs to check


class Workload:
    name = ""
    item = ""                 # what items_per_s counts
    input_kind = ""

    def __init__(self, work_dir: str, root: str, seed: int, size: int):
        self.work_dir, self.root = work_dir, root
        self.seed, self.size = seed, size
        self.expected: dict = {}

    def prepare(self):
        """Generate (or load from the cache) the seeded input."""
        self.path, self.table, self.digest = cached_input(
            self.work_dir, self.root, self.input_kind, self.size, self.seed)

    @property
    def items(self) -> int:
        return self.size

    def run_pass(self, tracer, materialize: bool) -> PassResult:
        raise NotImplementedError

    def build_reference(self, warm: PassResult) -> list[str]:
        """Compute the references; returns the warm-up pass's mismatches."""
        raise NotImplementedError

    def check(self, res: PassResult) -> list[str]:
        raise NotImplementedError

    def kernel_docs(self) -> list[str]:
        """Documents for the in-process kernel sample (none: no kernel)."""
        return []

    def kernel_total_s(self) -> float | None:
        """In-process kernel time over the whole input, where the pass is
        the kernel behind a pipeline."""
        return None


class TranscriptsGraph(Workload):
    """transcripts -> transcript_graph -> streaming ingest -> PageRank,
    connected components and label propagation, each collected."""
    name = "transcripts-graph"
    item = "conversations"
    input_kind = "transcripts"

    def run_pass(self, tr, materialize):
        from tldr_ray.graph import GraphEngine
        from tldr_ray.sources import read_table
        from tldr_ray.stages.edges import transcript_graph

        res, eng = PassResult(), None
        try:
            t0 = time.perf_counter()
            with tr.span("pass") as root:
                with tr.span("sources.read"):
                    ds = read_table(self.path)
                    if materialize:
                        ds = ds.materialize()
                with tr.span("stages.edges.build"):
                    edges = transcript_graph(ds)
                    if materialize:
                        edges = edges.materialize()
                with tr.span("graph.ingest"):
                    eng = GraphEngine.from_edges_streaming(
                        edges.select_columns(["src", "dst", "weight"]), P)
                with tr.span("graph.pagerank"):
                    _, _, pr_info = eng.pagerank(tolerance=PR_TOLERANCE,
                                                 collect=False)
                with tr.span("graph.collect"):
                    ids, scores = _collect(eng, "score")
                # the transcript graph holds both directions of every edge,
                # so the engine's directed label fixpoints are undirected
                with tr.span("graph.cc"):
                    _, _, cc_info = eng.connected_components(collect=False)
                with tr.span("graph.collect"):
                    cc_ids, cc_labels = _collect(eng, "label")
                with tr.span("graph.lpa"):
                    _, _, lpa_info = eng.label_propagation(LPA_ROUNDS,
                                                           collect=False)
                with tr.span("graph.collect"):
                    lpa_ids, lpa_labels = _collect(eng, "label")
            res.wall_s = time.perf_counter() - t0
            res.rss_mb = peak_rss_mb()
            n_edges = eng.manifest["n_edges"]
            res.out = {"n_edges": n_edges, "ids": ids, "scores": scores,
                       "cc_ids": cc_ids, "cc_labels": cc_labels,
                       "lpa_digest": _array_digest(lpa_ids, lpa_labels)}
            res.obs = {"root": root, "n_edges": n_edges,
                       "pagerank_info": pr_info, "cc_info": cc_info,
                       "lpa_info": lpa_info, "n_local": _n_local(eng)}
            if materialize:
                tab = _to_table(edges)
                res.out["edge_table"] = tab
                res.out["edge_digest"] = table_digest(tab)
                res.obs["read_ds"] = ds
                res.obs["edges_ds"] = edges
        finally:
            if eng is not None:
                eng.shutdown()
        return res

    def build_reference(self, warm):
        from tldr_ray.kernel import pagerank_ref

        tab = warm.out.pop("edge_table")
        src = tab["src"].to_numpy()
        dst = tab["dst"].to_numpy()
        ids, scores = pagerank_ref(src, dst, tab["weight"].to_numpy(),
                                   tolerance=PR_TOLERANCE)
        cc_ids, cc_labels = _union_find_labels(src, dst)
        et = tab["etype"].to_numpy(zero_copy_only=False)
        kinds, counts = np.unique(et, return_counts=True)
        self.expected = {"n_edges": tab.num_rows, "ids": ids,
                         "scores": scores, "cc_ids": cc_ids,
                         "cc_labels": cc_labels,
                         "edge_digest": warm.out["edge_digest"],
                         "lpa_digest": warm.out["lpa_digest"],
                         "etype_counts": dict(zip(kinds.tolist(),
                                                  counts.tolist()))}
        return self.check(warm)

    def check(self, res):
        e, o, errs = self.expected, res.out, []
        if o["n_edges"] != e["n_edges"]:
            errs.append(f"n_edges {o['n_edges']} != {e['n_edges']}")
        if "edge_digest" in o and o["edge_digest"] != e["edge_digest"]:
            errs.append("edge-set digest changed between passes")
        errs += _check_scores(o["ids"], o["scores"], e["ids"], e["scores"])
        if not (np.array_equal(o["cc_ids"], e["cc_ids"])
                and np.array_equal(o["cc_labels"], e["cc_labels"])):
            errs.append("connected components differ from union-find")
        if o["lpa_digest"] != e["lpa_digest"]:
            errs.append("label-propagation digest changed between passes")
        return errs

    def kernel_docs(self):
        """The first conversations, assembled as the edge stage does:
        turn texts joined with single spaces in turn order."""
        df = self.table.select(["conv_id", "turn_idx", "text"]).to_pandas()
        docs = []
        for _, g in df.groupby("conv_id", sort=True):
            g = g.sort_values("turn_idx")
            docs.append(" ".join(t for t in g["text"].tolist() if t).strip())
            if len(docs) == KERNEL_SAMPLE_DOCS[self.name]:
                break
        return docs


class LongDocSummarize(Workload):
    """long documents -> summarize_documents (map-only) -> collect."""
    name = "long-doc-summarize"
    item = "documents"
    input_kind = "documents"

    def run_pass(self, tr, materialize):
        from tldr_ray.pipelines import summarize_documents
        from tldr_ray.sources import read_table

        res = PassResult()
        t0 = time.perf_counter()
        with tr.span("pass") as root:
            with tr.span("sources.read"):
                ds = read_table(self.path, columns=["doc_id", "text"])
                if materialize:
                    ds = ds.materialize()
            with tr.span("pipelines.summarize"):
                out = summarize_documents(ds, num=SUMMARY_SENTENCES)
                if materialize:
                    out = out.materialize()
            with tr.span("pipelines.collect"):
                df = out.to_pandas()
        res.wall_s = time.perf_counter() - t0
        res.rss_mb = peak_rss_mb()
        df = df.sort_values(["doc_id", "rank"], kind="stable")
        res.out = {"rows": df, "digest": table_digest(
            pa.Table.from_pandas(df, preserve_index=False))}
        res.obs = {"root": root}
        if materialize:
            res.obs["read_ds"] = ds
            res.obs["summary_ds"] = out
        return res

    def _sample_rows(self) -> list[tuple]:
        from tldr_ray.kernel.lexrank import summarize_with_indices

        rows = []
        ids = self.table["doc_id"].to_pylist()[:CHECK_SAMPLE_DOCS]
        texts = self.table["text"].to_pylist()[:CHECK_SAMPLE_DOCS]
        for doc_id, text in zip(ids, texts):
            for r, (li, t) in enumerate(
                    summarize_with_indices(text or "", SUMMARY_SENTENCES)):
                rows.append((doc_id, r, li, t))
        return rows

    def build_reference(self, warm):
        self.expected = {"digest": warm.out["digest"],
                         "sample": self._sample_rows(),
                         "sample_ids": set(self.table["doc_id"].to_pylist()
                                           [:CHECK_SAMPLE_DOCS])}
        return self.check(warm)

    def check(self, res):
        e, errs = self.expected, []
        df = res.out["rows"]
        got = df[df["doc_id"].isin(e["sample_ids"])]
        rows = list(zip(got["doc_id"].tolist(), got["rank"].tolist(),
                        got["local_idx"].tolist(), got["text"].tolist()))
        if rows != e["sample"]:
            errs.append("summaries differ from sequential "
                        "summarize_with_indices on the check sample")
        if res.out["digest"] != e["digest"]:
            errs.append("summary digest changed between passes")
        return errs

    def kernel_docs(self):
        return self.table["text"].to_pylist()[:KERNEL_SAMPLE_DOCS[self.name]]

    def kernel_total_s(self) -> float:
        """In-process time of the sequential kernel over the whole input."""
        from tldr_ray.kernel.lexrank import summarize_with_indices

        t0 = time.perf_counter()
        for text in self.table["text"].to_pylist():
            summarize_with_indices(text or "", SUMMARY_SENTENCES)
        return time.perf_counter() - t0


def _check_scores(ids, scores, ref_ids, ref_scores) -> list[str]:
    if not np.array_equal(ids, ref_ids):
        return [f"PageRank vertex set differs ({ids.size} vs {ref_ids.size})"]
    if not np.allclose(scores, ref_scores, rtol=PR_RTOL, atol=PR_ATOL):
        err = float(np.max(np.abs(scores - ref_scores)))
        return [f"PageRank differs from pagerank_ref (max abs {err:.3g})"]
    return []


def _n_local(eng) -> list[int]:
    """Vertices held by each shard actor."""
    import ray

    return ray.get([s.n_local.remote() for s in eng.shards])


WORKLOADS = {w.name: w for w in (TranscriptsGraph, LongDocSummarize)}
