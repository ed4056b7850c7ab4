"""Global edge-table materialization from transcripts (SURVEY.md §7.1 step 4).

Two edge families, unioned into one (src, dst, weight, etype) table:

1. ``similarity_edges`` — per-conversation sentence-similarity edges:
   the kernel's front half (tokenize -> dedup -> dictionary -> vectors
   -> pairwise weights -> threshold) emits kept edges instead of
   summarizing. Vertex ids are globally unique without any
   id-assignment shuffle: ``vertex = (conv_hash48 << 16) + local_idx``
   from a stable 48-bit conversation hash.
2. ``tool_cooccurrence_edges`` — cross-conversation co-reference: two
   conversations sharing a tool are linked. Tool groups are Zipf-skewed
   (one hub tool), so the pairwise build inside a hot group is clamped:
   groups beyond ``max_group_size`` conversations connect STAR-wise
   through the group's minimum vertex instead of clique-wise —
   O(k) edges instead of O(k^2), preserving connectivity semantics for
   components/PageRank mass flow. The clamp is an explicit, documented
   skew decision (SURVEY.md §4), surfaced via etype="tool_star".

Edge weights: similarity edges carry the kernel weight; co-occurrence
edges carry 1.0 per shared tool occurrence pair.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa

from tldr_ray.config import SummarizeConfig
from tldr_ray.hashing import keyed_sweep, part_key
from tldr_ray.kernel.lexrank import summarize_to_edges_many
from tldr_ray.kernel.text import pseudo_sentences
from tldr_ray.pipelines.summarize import conversation_texts


def conv_vertex_base(conv_id: str) -> int:
    """Stable 47-bit conversation hash shifted left 16: low 16 bits hold
    the sentence local_idx, fitting int64 (63 bits) for conversations
    with < 65536 kept sentences. 47 bits keeps the collision expectation
    below ~1 up to ~10^7 conversations; beyond that, switch the vertex
    key to the composite (conv bucket, local id) layout."""
    h = int.from_bytes(hashlib.blake2b(conv_id.encode(), digest_size=6).digest(),
                       "little") & ((1 << 47) - 1)
    return h << 16


def _convs_edges_table(group: pd.DataFrame, cfg: SummarizeConfig,
                       presplit_words: Optional[int]) -> pa.Table:
    """Conversations (pandas rows with conv_id/turn_idx/text) -> edge
    table via the kernel; shared by the shuffle and contiguous paths."""
    ids, texts = conversation_texts(group)
    docs = [(t, pseudo_sentences(t, presplit_words) or None) for t in texts]
    srcs, dsts, ws, etypes, convs = [], [], [], [], []
    for conv_id, (_, kept_idx, src, dst, w) in zip(
            ids, summarize_to_edges_many(docs, cfg)):
        if len(src) == 0:
            continue
        base = conv_vertex_base(conv_id)
        kept = np.asarray(kept_idx, dtype=np.int64)
        srcs.append(base + kept[src])
        dsts.append(base + kept[dst])
        ws.append(w)
        etypes.extend(["sim"] * len(w))
        convs.extend([conv_id] * len(w))
    if not srcs:
        return pa.table({"src": pa.array([], pa.int64()),
                         "dst": pa.array([], pa.int64()),
                         "weight": pa.array([], pa.float64()),
                         "etype": pa.array([], pa.string()),
                         "conv_id": pa.array([], pa.string())})
    return pa.table(
        {
            "src": np.concatenate(srcs),
            "dst": np.concatenate(dsts),
            "weight": np.concatenate(ws),
            "etype": pa.array(etypes, pa.string()),
            "conv_id": pa.array(convs, pa.string()),
        }
    )


def similarity_edges(transcripts, cfg: Optional[SummarizeConfig] = None,
                     presplit_words: Optional[int] = None,
                     num_parts: int = 64, contiguous: bool = False):
    """transcripts -> Dataset (src, dst, weight, etype='sim', conv_id).

    Default path: the shuffle is ``hashing.keyed_sweep`` on conv_id — a
    groupby on a SMALL int part, not on conv_id itself: sorting
    millions of rows by a 64-value int is far cheaper than by
    high-cardinality strings, and the per-group task overhead
    drops from one call per conversation to one per partition (each
    partition task then iterates its conversations with a local pandas
    groupby). The quadratic kernel work happens inside each small
    conversation, vectorized.

    ``contiguous=True`` (each conversation's turns stored contiguously —
    the natural layout of a conv-partitioned transcript store) skips the
    text shuffle entirely: the kernel runs per input block on every
    conversation that is fully interior to the block, and only the
    first/last conversation of each block (which may continue in a
    neighbor) is routed through the shuffle path. Two streaming scans of
    the (column-pruned) source replace one scan plus a full all-to-all
    of the text — strictly less data movement, and the boundary shuffle
    carries ~2 conversations per block. DETERMINISM REQUIREMENT: the
    two scans must observe identical block boundaries and row order,
    which holds for file-backed sources (read_parquet) and materialized
    Datasets but NOT for non-deterministic lazy sources (e.g. an
    unmaterialized random synthesizer) — those would double-count or
    drop boundary conversations; materialize such inputs first.

    ``presplit_words`` chunks punctuation-free documents into
    pseudo-sentences via the reference's pre-split entry point (O28)."""
    cfg = cfg or SummarizeConfig()

    def per_part(group: pd.DataFrame) -> pa.Table:
        return _convs_edges_table(group, cfg, presplit_words)

    pruned = transcripts.select_columns(["conv_id", "turn_idx", "text"])

    if not contiguous:
        return keyed_sweep(pruned, "conv_id", per_part, num_parts)

    def _boundary_mask(batch: pa.Table) -> np.ndarray:
        cids = np.asarray(batch["conv_id"].to_pandas())
        return (cids == cids[0]) | (cids == cids[-1])

    def interior_edges(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _convs_edges_table(pd.DataFrame(
                {"conv_id": [], "turn_idx": [], "text": []}), cfg,
                presplit_words)
        keep = ~_boundary_mask(batch)
        return _convs_edges_table(batch.filter(pa.array(keep)).to_pandas(),
                                  cfg, presplit_words)

    def boundary_turns(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        return batch.filter(pa.array(_boundary_mask(batch)))

    interior = pruned.map_batches(interior_edges, batch_format="pyarrow",
                                  batch_size=None)
    leftover = pruned.map_batches(boundary_turns, batch_format="pyarrow",
                                  batch_size=None)
    return interior.union(
        keyed_sweep(leftover, "conv_id", per_part, num_parts))


def _cooccurrence_pairs_fn(etype: str, etype_star: str, max_group_size: int):
    """Per-key pair builder shared by the tool and entity edge families:
    clique below ``max_group_size`` conversations, star through the
    minimum vertex above it (the documented hub-skew clamp)."""
    def pairs(group: pd.DataFrame) -> pd.DataFrame:
        convs = sorted(group["conv_id"].unique())
        verts = np.asarray([conv_vertex_base(c) for c in convs], dtype=np.int64)
        k = verts.size
        if k < 2:
            return pd.DataFrame({"src": pd.array([], dtype="int64"),
                                 "dst": pd.array([], dtype="int64"),
                                 "weight": pd.array([], dtype="float64"),
                                 "etype": pd.array([], dtype=object)})
        if k > max_group_size:
            hub = verts.min()
            others = verts[verts != hub]
            src = np.concatenate([np.full(others.size, hub), others])
            dst = np.concatenate([others, np.full(others.size, hub)])
            et = etype_star
        else:
            ii, jj = np.triu_indices(k, 1)
            src = np.concatenate([verts[ii], verts[jj]])
            dst = np.concatenate([verts[jj], verts[ii]])
            et = etype
        return pd.DataFrame(
            {
                "src": src,
                "dst": dst,
                "weight": np.ones(src.size),
                "etype": np.full(src.size, et, dtype=object),
            }
        )

    return pairs


def cooccurrence_edges(transcripts, max_group_size: int = 64,
                       include_tools: bool = True,
                       include_entities: bool = True):
    """transcripts -> Dataset (src, dst, weight, etype) linking
    conversations that share a co-reference key — the invoked tool
    and/or a mentioned entity — in ONE pass over the transcripts and one
    shuffle for both families (keys are namespaced by a ``kind``
    column).

    Conversation-level vertex = conv_vertex_base(conv_id) (local_idx 0
    slot). Distinct (kind, key, conv) rows first (bounds hub groups by
    distinct conversations, not call counts), then per-key pairs with
    the star clamp for hub keys."""
    def distinct_rows(batch: pa.Table) -> pa.Table:
        """Per-batch distinct (kind, key, conv) rows — the combiner
        before the ONE shuffle, keyed by (kind, key); global dedup
        happens inside the partition sweep."""
        frames = []
        if include_tools:
            df = pd.DataFrame({"key": batch["tool"].to_pandas(),
                               "conv_id": batch["conv_id"].to_pandas()})
            df = df[df["key"].notna() & (df["key"] != "")].drop_duplicates()
            df = df.assign(kind="tool")
            frames.append(df)
        if include_entities:
            ments = _extract_entity_mentions(batch)
            if ments:
                e, c = zip(*ments)
                frames.append(pd.DataFrame({"key": list(e),
                                            "conv_id": list(c),
                                            "kind": "entity"}))
        df = pd.concat(frames, ignore_index=True) if frames else \
            pd.DataFrame({"key": [], "conv_id": [], "kind": []})
        keys = pa.array(df["key"], pa.string()) if len(df) else \
            pa.array([], pa.string())
        return pa.table({"kind": pa.array(df["kind"], pa.string())
                         if len(df) else pa.array([], pa.string()),
                         "key": keys,
                         "conv_id": pa.array(df["conv_id"], pa.string())
                         if len(df) else pa.array([], pa.string())})

    cols = ["conv_id"] + (["tool"] if include_tools else []) \
        + (["text"] if include_entities else [])

    def part_pairs(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates(["kind", "key", "conv_id"])
        outs = []
        for (kind, _key), sub in g.groupby(["kind", "key"], sort=False):
            fn = _cooccurrence_pairs_fn(kind, f"{kind}_star",
                                        max_group_size)
            outs.append(fn(sub))
        if not outs:
            return pd.DataFrame({"src": pd.array([], dtype="int64"),
                                 "dst": pd.array([], dtype="int64"),
                                 "weight": pd.array([], dtype="float64"),
                                 "etype": pd.array([], dtype=object)})
        return pd.concat(outs, ignore_index=True)

    return keyed_sweep(
        transcripts.select_columns(cols)
        .map_batches(distinct_rows, batch_format="pyarrow"),
        ["kind", "key"], part_pairs)


def tool_cooccurrence_edges(transcripts, max_group_size: int = 64):
    """Tool-only co-reference edges (see ``cooccurrence_edges``)."""
    return cooccurrence_edges(transcripts, max_group_size,
                              include_tools=True, include_entities=False)


def _extract_entity_mentions(batch: pa.Table) -> list[tuple[str, str]]:
    """Per-batch-distinct (entity, conv_id) mention pairs.

    Mention heuristic (deterministic, fully vectorized — the slot a real
    NER model would occupy as an actor-pool stage): a capitalized word
    (``[A-Z][a-z]{2,}``, trailing punctuation stripped) that is NOT
    sentence-initial — i.e. not the first token of a turn and not
    preceded by a terminator-ending token."""
    import pyarrow.compute as pc

    D = batch.num_rows
    if D == 0:
        return []
    texts = pc.fill_null(batch["text"], "")
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    toks = pc.utf8_split_whitespace(texts)
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    flat = pc.list_flatten(toks)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    if len(flat) == 0:
        return []
    off = np.asarray(toks.offsets, dtype=np.int64)
    turn_of = np.repeat(np.arange(D, dtype=np.int64), np.diff(off))
    stripped = pc.replace_substring_regex(flat, r"[.,;:?!]+$", "")
    cap = np.asarray(pc.match_substring_regex(stripped,
                                              r"^[A-Z][a-z]{2,}$"))
    ends = np.asarray(pc.match_substring_regex(flat, r"[.?!]$"))
    # Arrow's split emits '' boundary tokens; treat them as breaks
    ends |= np.asarray(pc.equal(pc.utf8_length(flat), 0))
    after_end = np.concatenate([[True], ends[:-1]])
    after_end[off[:-1][off[:-1] < len(flat)]] = True  # turn-initial
    mask = cap & ~after_end
    if not mask.any():
        return []
    ents = stripped.filter(pa.array(mask)).to_pylist()
    convs = batch["conv_id"].take(pa.array(turn_of[mask])).to_pylist()
    return sorted(set(zip(ents, convs)))


def entity_mentions(transcripts):
    """transcripts -> Dataset (entity, conv_id) of per-batch-distinct
    entity mentions (see ``_extract_entity_mentions``)."""
    def extract(batch: pa.Table) -> pa.Table:
        ments = _extract_entity_mentions(batch)
        if not ments:
            return pa.table({"entity": pa.array([], pa.string()),
                             "conv_id": pa.array([], pa.string())})
        e, c = zip(*ments)
        return pa.table({"entity": pa.array(list(e), pa.string()),
                         "conv_id": pa.array(list(c), pa.string())})

    return transcripts.select_columns(["conv_id", "text"]).map_batches(
        extract, batch_format="pyarrow")


def entity_cooccurrence_edges(transcripts, max_group_size: int = 64):
    """Entity-only co-reference edges (SURVEY.md §2.4/§7.3's second
    cross-conversation family; see ``cooccurrence_edges``)."""
    return cooccurrence_edges(transcripts, max_group_size,
                              include_tools=False, include_entities=True)


def transcript_graph(transcripts, cfg: Optional[SummarizeConfig] = None,
                     max_group_size: int = 64, include_tools: bool = True,
                     include_entities: bool = True,
                     presplit_words: Optional[int] = None,
                     contiguous: bool = False, num_parts: int = 64):
    """Union of the three edge families, ready for graph.GraphEngine —
    built through ONE fused all-to-all.

    Similarity edges anchor each conversation's sentence subgraph; the
    conversation vertex (local_idx 0) doubles as the co-reference
    anchor, so tool and entity edges connect conversations' sentence
    graphs into one global link graph.

    Fusion (round-3 scaling fix): one scan of the transcripts emits
    BOTH row kinds — similarity rows keyed into parts [0, num_parts)
    by conv hash, co-reference rows keyed into parts [num_parts,
    2*num_parts) by (kind, key) hash — and a single ``groupby("part")``
    moves everything; each partition task dispatches on its part range.
    Every Ray all-to-all costs ~1-2 s of coordination on top of the
    data movement regardless of size, so collapsing the two family
    shuffles (and their two source scans) into one halves the fixed
    latency floor of the headline build. ``contiguous=True`` keeps the
    shuffle-free interior similarity path and routes only the block-
    boundary conversations through the fused shuffle alongside the
    co-reference rows (see ``similarity_edges`` for the determinism
    requirement of the two-scan contiguous layout)."""
    cfg = cfg or SummarizeConfig()
    if not (include_tools or include_entities):
        return similarity_edges(transcripts, cfg, presplit_words,
                                num_parts=num_parts,
                                contiguous=contiguous).select_columns(
            ["src", "dst", "weight", "etype"])

    cols = ["conv_id", "turn_idx", "text"] \
        + (["tool"] if include_tools else [])
    pruned = transcripts.select_columns(cols)

    def _coref_rows(batch: pa.Table) -> "pd.DataFrame":
        """Distinct (kind, key, conv) rows of a batch, as in
        ``cooccurrence_edges.distinct_rows``."""
        frames = []
        if include_tools:
            df = pd.DataFrame({"key": batch["tool"].to_pandas(),
                               "conv_id": batch["conv_id"].to_pandas()})
            df = df[df["key"].notna() & (df["key"] != "")].drop_duplicates()
            frames.append(df.assign(kind="tool"))
        if include_entities:
            ments = _extract_entity_mentions(batch)
            if ments:
                e, c = zip(*ments)
                frames.append(pd.DataFrame({"key": list(e),
                                            "conv_id": list(c),
                                            "kind": "entity"}))
        return pd.concat(frames, ignore_index=True) if frames else \
            pd.DataFrame({"key": [], "conv_id": [], "kind": []})

    def _fused_rows(sim_batch: pa.Table | None,
                    coref_batch: pa.Table) -> pa.Table:
        """Sim rows (part in [0, NP)) + coref rows (part in [NP, 2NP))
        with a shared null-padded schema for the one shuffle."""
        tabs = []
        if sim_batch is not None and sim_batch.num_rows:
            n = sim_batch.num_rows
            tabs.append(pa.table(
                {
                    "part": pa.array(part_key(sim_batch["conv_id"],
                                              num_parts)),
                    "conv_id": sim_batch["conv_id"],
                    "turn_idx": sim_batch["turn_idx"].cast(pa.int64()),
                    "text": sim_batch["text"].cast(pa.string()),
                    "kind": pa.nulls(n, pa.string()),
                    "key": pa.nulls(n, pa.string()),
                }
            ))
        df = _coref_rows(coref_batch)
        m = len(df)
        keys = pa.array(df["key"], pa.string()) if m else \
            pa.array([], pa.string())
        kinds = pa.array(df["kind"], pa.string()) if m else \
            pa.array([], pa.string())
        tabs.append(pa.table(
            {
                "part": pa.array(num_parts + part_key([kinds, keys],
                                                      num_parts)),
                "conv_id": pa.array(df["conv_id"], pa.string()) if m
                else pa.array([], pa.string()),
                "turn_idx": pa.nulls(m, pa.int64()),
                "text": pa.nulls(m, pa.string()),
                "kind": kinds,
                "key": keys,
            }
        ))
        return pa.concat_tables(tabs)

    _EDGE_SCHEMA = pa.schema([("src", pa.int64()), ("dst", pa.int64()),
                              ("weight", pa.float64()),
                              ("etype", pa.string())])

    def dispatch_part(group: pd.DataFrame) -> pa.Table:
        p = int(group["part"].iloc[0])
        if p < num_parts:       # similarity family
            t = _convs_edges_table(group, cfg, presplit_words)
            return t.select(["src", "dst", "weight", "etype"])
        # co-reference families: per-(kind, key) pair sweep
        g = group.drop_duplicates(["kind", "key", "conv_id"])
        outs = []
        for (kind, _key), sub in g.groupby(["kind", "key"], sort=False):
            fn = _cooccurrence_pairs_fn(kind, f"{kind}_star",
                                        max_group_size)
            outs.append(fn(sub))
        df = pd.concat(outs, ignore_index=True) if outs else None
        if df is None or not len(df):
            return _EDGE_SCHEMA.empty_table()
        return pa.table({"src": pa.array(df["src"], pa.int64()),
                         "dst": pa.array(df["dst"], pa.int64()),
                         "weight": pa.array(df["weight"], pa.float64()),
                         "etype": pa.array(df["etype"], pa.string())})

    if not contiguous:
        fused = pruned.map_batches(
            lambda b: _fused_rows(b, b), batch_format="pyarrow")
        return fused.groupby("part").map_groups(dispatch_part,
                                                batch_format="pandas")

    # contiguous: interior sim edges shuffle-free; boundary sim rows
    # join the coref rows in the one fused shuffle
    def _boundary_mask(batch: pa.Table) -> np.ndarray:
        cids = np.asarray(batch["conv_id"].to_pandas())
        return (cids == cids[0]) | (cids == cids[-1])

    def interior_edges(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _convs_edges_table(pd.DataFrame(
                {"conv_id": [], "turn_idx": [], "text": []}), cfg,
                presplit_words).select(["src", "dst", "weight", "etype"])
        keep = ~_boundary_mask(batch)
        return _convs_edges_table(
            batch.filter(pa.array(keep)).select(
                ["conv_id", "turn_idx", "text"]).to_pandas(),
            cfg, presplit_words).select(["src", "dst", "weight", "etype"])

    def boundary_and_coref(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _fused_rows(None, batch)
        sim_part = batch.filter(pa.array(_boundary_mask(batch)))
        return _fused_rows(sim_part, batch)

    interior = pruned.map_batches(interior_edges, batch_format="pyarrow",
                                  batch_size=None)
    fused = pruned.map_batches(boundary_and_coref, batch_format="pyarrow",
                               batch_size=None)
    rest = fused.groupby("part").map_groups(dispatch_part,
                                            batch_format="pandas")
    return interior.union(rest)
