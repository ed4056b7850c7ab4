"""Global edge-table materialization from transcripts (SURVEY.md §7.1 step 4).

Three edge families, unioned into one (src, dst, weight, etype) table:

1. ``similarity_edges`` — per-conversation sentence-similarity edges
   (etype "sim"): the kernel's front half (tokenize -> dedup ->
   dictionary -> vectors -> pairwise weights -> threshold) emits kept
   edges instead of summarizing. Vertex ids are globally unique without
   any id-assignment shuffle: ``vertex = (conv_hash47 << 16) +
   local_idx`` from a stable conversation hash.
2. Tool co-reference (etype "tool"): two conversations that invoke the
   same tool are linked.
3. Entity co-reference (etype "entity"): two conversations that mention
   the same entity are linked.

The two co-reference families share one row extractor (``_coref_rows``:
distinct (kind, key, conv_id) rows) and one pair builder
(``_coref_pairs``), and link conversation vertices (local_idx 0).
Co-reference groups are Zipf-skewed (one hub tool), so the pairwise
build inside a hot group is clamped: groups beyond ``max_group_size``
conversations connect STAR-wise through the group's minimum vertex
instead of clique-wise — O(k) edges instead of O(k^2), preserving
connectivity semantics for components/PageRank mass flow. The clamp is
an explicit, documented skew decision (SURVEY.md §4), surfaced via
etype "tool_star" / "entity_star".

``transcript_graph`` builds all three families in one scan and ONE
fused shuffle; ``similarity_edges`` and ``cooccurrence_edges`` build
them on their own.

Edge weights: similarity edges carry the kernel weight; co-reference
edges carry 1.0 per linked conversation pair.
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

_EDGE_SCHEMA = pa.schema([("src", pa.int64()), ("dst", pa.int64()),
                          ("weight", pa.float64()), ("etype", pa.string())])
_COREF_SCHEMA = pa.schema([("kind", pa.string()), ("key", pa.string()),
                           ("conv_id", pa.string())])
# transcript_graph's fused shuffle: parts per family and the hub clamp
_NUM_PARTS = 64
_MAX_GROUP_SIZE = 64


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
    """Conversations (pandas rows with conv_id/turn_idx/text) -> sim
    edge table (src, dst, weight, etype, conv_id) via the kernel."""
    ids, texts = conversation_texts(group)
    docs = [(t, pseudo_sentences(t, presplit_words) or None) for t in texts]
    srcs, dsts, ws, convs = [], [], [], []
    for conv_id, (_, kept_idx, src, dst, w) in zip(
            ids, summarize_to_edges_many(docs, cfg)):
        if len(src) == 0:
            continue
        base = conv_vertex_base(conv_id)
        kept = np.asarray(kept_idx, dtype=np.int64)
        srcs.append(base + kept[src])
        dsts.append(base + kept[dst])
        ws.append(w)
        convs.append(conv_id)
    if not srcs:
        return _EDGE_SCHEMA.append(pa.field("conv_id", pa.string())) \
            .empty_table()
    src = np.concatenate(srcs)
    # string columns as takes of their distinct values, not per-edge lists
    return pa.table(
        {
            "src": src,
            "dst": np.concatenate(dsts),
            "weight": np.concatenate(ws),
            "etype": pa.array(["sim"]).take(np.zeros(src.size, np.int64)),
            "conv_id": pa.array(convs, pa.string()).take(
                np.repeat(np.arange(len(convs)), list(map(len, ws)))),
        }
    )


def similarity_edges(transcripts, cfg: Optional[SummarizeConfig] = None,
                     presplit_words: Optional[int] = None):
    """transcripts -> Dataset (src, dst, weight, etype='sim', conv_id).

    The shuffle is ``hashing.keyed_sweep`` on conv_id — a groupby on a
    SMALL int part, not on conv_id itself: sorting millions of rows by
    a 64-value int is far cheaper than by high-cardinality strings, and
    the per-group task overhead drops from one call per conversation to
    one per partition (each partition task then iterates its
    conversations with a local pandas groupby). The quadratic kernel
    work happens inside each small conversation, vectorized.

    ``presplit_words`` chunks punctuation-free documents into
    pseudo-sentences via the reference's pre-split entry point (O28)."""
    cfg = cfg or SummarizeConfig()
    return keyed_sweep(
        transcripts.select_columns(["conv_id", "turn_idx", "text"]),
        "conv_id", lambda g: _convs_edges_table(g, cfg, presplit_words))


def _coref_rows(batch: pa.Table, tools: bool = True,
                entities: bool = True) -> pa.Table:
    """Per-batch distinct (kind, key, conv_id) co-reference rows — the
    invoked tool (kind "tool") and the mentioned entities (kind
    "entity") of each turn. The combiner before the shuffle keyed by
    (kind, key); global dedup happens in ``_coref_pairs``."""
    frames = []
    if tools:
        df = pd.DataFrame({"key": batch["tool"].to_pandas(),
                           "conv_id": batch["conv_id"].to_pandas()})
        df = df[df["key"].notna() & (df["key"] != "")].drop_duplicates()
        frames.append(df.assign(kind="tool"))
    if entities:
        ments = _extract_entity_mentions(batch)
        if ments:
            frames.append(pd.DataFrame(ments, columns=["key", "conv_id"])
                          .assign(kind="entity"))
    df = pd.concat(frames, ignore_index=True) if frames else pd.DataFrame()
    if not len(df):
        return _COREF_SCHEMA.empty_table()
    return pa.table({c: pa.array(df[c], pa.string())
                     for c in _COREF_SCHEMA.names})


def _coref_pairs(group: pd.DataFrame, max_group_size: int) -> pa.Table:
    """Co-reference rows (kind, key, conv_id) of whole (kind, key)
    groups -> edges: per group (in order of first appearance) a clique
    over its distinct conversations, or a star through the minimum
    vertex past ``max_group_size`` conversations (the documented
    hub-skew clamp); both directions of each pair, as ``src = [a, b]``,
    ``dst = [b, a]``."""
    srcs, dsts, etypes = [], [], []
    g = group.drop_duplicates(["kind", "key", "conv_id"])
    for (kind, _key), sub in g.groupby(["kind", "key"], sort=False):
        verts = np.asarray([conv_vertex_base(c)
                            for c in sorted(sub["conv_id"].unique())],
                           dtype=np.int64)
        k = verts.size
        if k < 2:
            continue
        if k > max_group_size:
            hub = verts.min()
            b = verts[verts != hub]
            a = np.full(b.size, hub)
            etype = f"{kind}_star"
        else:
            ii, jj = np.triu_indices(k, 1)
            a, b = verts[ii], verts[jj]
            etype = kind
        srcs += [a, b]
        dsts += [b, a]
        etypes += [etype] * (2 * a.size)
    if not srcs:
        return _EDGE_SCHEMA.empty_table()
    src = np.concatenate(srcs)
    return pa.table({"src": src, "dst": np.concatenate(dsts),
                     "weight": np.ones(src.size),
                     "etype": pa.array(etypes, pa.string())})


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
    cols = ["conv_id"] + (["tool"] if include_tools else []) \
        + (["text"] if include_entities else [])
    rows = transcripts.select_columns(cols).map_batches(
        lambda b: _coref_rows(b, include_tools, include_entities),
        batch_format="pyarrow")
    return keyed_sweep(rows, ["kind", "key"],
                       lambda g: _coref_pairs(g, max_group_size))


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
    return transcripts.select_columns(["conv_id", "text"]).map_batches(
        lambda b: _coref_rows(b, tools=False).select(["key", "conv_id"])
        .rename_columns(["entity", "conv_id"]), batch_format="pyarrow")


def entity_cooccurrence_edges(transcripts, max_group_size: int = 64):
    """Entity-only co-reference edges (SURVEY.md §2.4/§7.3's second
    cross-conversation family; see ``cooccurrence_edges``)."""
    return cooccurrence_edges(transcripts, max_group_size,
                              include_tools=False, include_entities=True)


def transcript_graph(transcripts, cfg: Optional[SummarizeConfig] = None,
                     presplit_words: Optional[int] = None):
    """Union of the three edge families, ready for graph.GraphEngine —
    built through ONE fused all-to-all.

    Similarity edges anchor each conversation's sentence subgraph; the
    conversation vertex (local_idx 0) doubles as the co-reference
    anchor, so tool and entity edges connect conversations' sentence
    graphs into one global link graph.

    Fusion (round-3 scaling fix): one scan of the transcripts emits
    BOTH row kinds — similarity rows keyed into parts [0, NP) by conv
    hash, co-reference rows keyed into parts [NP, 2*NP) by (kind, key)
    hash, NP = 64 — and a single ``groupby("part")`` moves everything;
    each partition task dispatches on its part range. Every Ray
    all-to-all costs ~1-2 s of coordination on top of the data movement
    regardless of size, so collapsing the two family shuffles (and
    their two source scans) into one halves the fixed latency floor of
    the headline build. Hub co-reference groups are star-clamped past
    64 conversations.

    An edgeless input (0 rows, or no sentence pair) still yields a
    Dataset typed like the edge table: a 0-row input makes no block at
    all, so one empty ``_EDGE_SCHEMA`` block rides along."""
    import ray.data as rd

    cfg = cfg or SummarizeConfig()

    def fused_rows(batch: pa.Table) -> pa.Table:
        """Sim rows (part in [0, NP)) + coref rows (part in [NP, 2NP))
        with a shared null-padded schema for the one shuffle."""
        n = batch.num_rows
        coref = _coref_rows(batch)
        m = coref.num_rows
        sim = pa.table(
            {
                "part": pa.array(part_key(batch["conv_id"], _NUM_PARTS)),
                "conv_id": batch["conv_id"].cast(pa.string()),
                "turn_idx": batch["turn_idx"].cast(pa.int64()),
                "text": batch["text"].cast(pa.string()),
                "kind": pa.nulls(n, pa.string()),
                "key": pa.nulls(n, pa.string()),
            }
        )
        ref = pa.table(
            {
                "part": pa.array(_NUM_PARTS + part_key(
                    [coref["kind"], coref["key"]], _NUM_PARTS)),
                "conv_id": coref["conv_id"],
                "turn_idx": pa.nulls(m, pa.int64()),
                "text": pa.nulls(m, pa.string()),
                "kind": coref["kind"],
                "key": coref["key"],
            }
        )
        return pa.concat_tables([sim, ref])

    def dispatch_part(group: pd.DataFrame) -> pa.Table:
        if group["part"].iloc[0] < _NUM_PARTS:      # similarity family
            return _convs_edges_table(group, cfg, presplit_words).select(
                _EDGE_SCHEMA.names)
        return _coref_pairs(group, _MAX_GROUP_SIZE)

    return (transcripts.select_columns(["conv_id", "turn_idx", "text", "tool"])
            .map_batches(fused_rows, batch_format="pyarrow")
            .groupby("part").map_groups(dispatch_part, batch_format="pandas")
            .union(rd.from_arrow(_EDGE_SCHEMA.empty_table())))
