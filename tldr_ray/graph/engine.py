"""BSP iteration engine over P CSR partitions held by H shard host actors.

This is the heart of the distributed layer (north rule): each iteration
is a sparse gather-scatter (SpMV) of rank mass over CSR partitions,
followed by a destination-keyed exchange. Ray Data's
``groupby(dst).sum()`` shuffle is realized partition-to-partition with
per-partition PRE-COMBINING: every partition bincounts its outgoing
mass per destination vertex before anything leaves it, so a hub
destination receives at most P partial sums per iteration regardless of
its in-degree — the skew-salting requirement is structural, not
reactive (SURVEY.md §4). Only scalars (L1 deltas, norms, change counts)
cross the driver.

Why raw actors and not per-iteration Dataset ops: Ray Data has no
iterate-to-fixpoint primitive (SURVEY.md §7.4); re-launching a shuffle
pipeline per iteration would re-ship the static CSR every round. The
CSR is pinned once per partition, and each round ships only the
frontier (rank slices / label deltas) — exactly the "actor pools for
stateful stages" carve-out in the build brief. The shard build itself
(``GraphEngine.from_edges``) IS a Ray Data stage — its tasks push each
block's slices straight into the hosts — and results are re-exposed as
a Dataset.

Partitions and hosts: vertex v (and every out-edge of v) lives in
partition ``hashing.part_key(v, P)`` = ``vhash(v) % P``, a
``CsrPartition``. As in Pregel (Malewicz et al., SIGMOD 2010 §4.2), a
worker owns several partitions: H = min(P, the cluster's CPUs)
``ShardHost`` actors hold them, partition q on host ``q % H``, and a
host runs every call on its partitions in ascending q. P fixes the
results; H only decides how many processes carry them, so every output
is the same bits at every H. ``vhash`` lives in ``tldr_ray.hashing``,
not in this package, so a host importing this module loads no
pandas-heavy graph module.

Hosts belong to the Ray session, partitions to an engine. As Pregel's
workers do, a host outlives the computation it serves: ``from_edges``
leases H idle hosts from the session's pool (``_POOL``), spawning only
the shortfall, and ``opens`` each as host h of H with fresh
partitions; ``shutdown`` ``closes`` them, which drops their partitions
and held messages, and returns the live ones to the pool, which keeps
at most one idle host per CPU. A reused host skips the process spawn
(about 1.1 s) and the import of Ray's Arrow serializer on its first
table return (about 0.3 s).

Message plumbing: at setup each partition publishes, per destination
partition q, the sorted vocabulary of destination vertices it ever
sends to (static for the run); receivers resolve those once to local
positions. Per round only dense float/int arrays (or sorted triples)
aligned to those vocabularies travel. A message between two partitions
of one host stays in that process: no put, no pickling, no driver. A
message to another host goes in that host's package, which the driver
relays; one at or above ``_MSG_REF_BYTES_DEFAULT`` bytes travels as a
plasma ref instead (``ShardHost._ship``). At H = 1 the driver sees only
the stop signals.

One superstep, Pregel style: every partition EMITS one pre-combined
message per destination partition (``CsrPartition._combine`` for
per-vertex arrays, or sorted per-(vertex, key) triples; the triple
emits ``CsrPartition._triples`` group all their destinations with one
packed-key sort per partition, ``_key_runs``),
``GraphEngine._exchange`` hands partition q the messages addressed to
it, and partition q MERGES them into its state in sender order
(``CsrPartition._gather``, or the triple merges). Merge and the next
emit are ONE host RPC (``ShardHost.superstep``), so a round costs one
driver round trip per exchange. ``GraphEngine._until_stable`` is the
one rounds loop: an algorithm supplies its first outboxes
(``CsrPartition.start``: init plus emit) and its phases — one (merge,
emit) exchange per round, two for the hashed-priority rounds, and for
the power iterations a driver reduce that normalizes by the global L2
norm (a zero norm ends the run). The loop stops once the summed stop
signal of the round's last phase is <= tol (LPA signals a second
count, which stops it too: see ``GraphEngine._lpa``), or at the round
cap; a run's info lists each round's seconds and stop signal
(``iter_secs``, ``signals``). The algorithms differ only in what they emit, how they
merge and what they signal:

  algorithm                emit (combiner)             merge                   stop
  pagerank                 rank*w/out (sum), dangling  restart + add           L1 delta <= tol
  eigenvector_centrality   state*w (sum)               add onto state (+I), L2 L1 delta < tol*n
  hits (two pools, a       state*w (sum)               add onto zeros, L2,     L1 delta of the
    phase per pool)                                    hand over               hubs < tol*n
  connected_components     label (min)                 min                     changed == 0
  bfs                      hops+1 (min)                min                     changed == 0
  sssp                     dist+w (min)                min                     changed == 0
  temporal_reachability    usable departure (min)      min                     changed == 0
  widest_path              min(width, w) (max)         max                     changed == 0
  label_propagation,       (dst, label, weight sum),   heaviest label,         changed == 0, or
    label_spread           one packed-key sort         smallest on ties (one   labels == those
                                                       packed-key sort)        two rounds back
  kcore                    (dst, value, count), one    H-index, min            changed == 0
                           packed-key sort
  maximal_matching         min-priority unmatched      proposals; then         new matches == 0
                           neighbor; then proposals    mutual proposals
  maximal_independent_set  min-priority active         Luby win; then OR of    undecided == 0
                           neighbor; new-member flag   new-member flags
  greedy_coloring          max-priority uncolored      local-max win; then OR  uncolored == 0
                           neighbor; color bits (OR)   of neighbor color bits
  betweenness_sampled      sigma, then dependency      add                     frontier empty,
                           (sum)                                               then level 1

Float sums are bit-deterministic for a given input block set: each
partition joins the pushed slices in the order of their blocks' content
keys, not in arrival order, and every fold then runs in edge order on
the emitting side and in sender order on the receiving side; the
driver sums the per-partition signals in partition order.

Checkpoint/resume: ``_until_stable`` takes a checkpoint hook (used by
PageRank's ``checkpoint_every``): after every ``every``-th round each
host writes the state slice of each of its partitions to
``<checkpoint_dir>/iter=<round>/part=<p>.parquet`` (atomic rename; on a
multi-node cluster the directory must be shared), and the driver
commits ``manifest.json`` with the round, the per-partition lineage and
the restart-vector digest the hook was given. The files are keyed by
partition, not host, so a checkpoint resumes at any H. ``resume=True``
loads the newest complete checkpoint and starts the loop at its round —
bit-identical to an uninterrupted run (state is exactly the rank
vector; updates are deterministic).
"""

from __future__ import annotations

import hashlib
import math
import os
import time as _time
import uuid
from typing import Callable, NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from tldr_ray.hashing import part_key

# Per-object host-to-host shipping gate (see ShardHost._ship). Each
# plasma ref carries ~1-5 ms of fixed ownership/refcount bookkeeping
# (measured: 1024 refs/iter cost more than relaying 80 MB by value on
# one box), so only messages big enough to amortize that — or to
# threaten the driver heap / double network hops on a real cluster —
# are shipped as refs. ``from_edges`` reads it when it builds the
# hosts; a multi-node cluster, where the driver relay also means two
# network crossings per message, would want it lower.
_MSG_REF_BYTES_DEFAULT = 8 * 1024 * 1024

_INT64_MAX = np.iinfo(np.int64).max


def _runs(cols, sort_keys, nkeys: int):
    """Sort the equal-length ``cols`` by ``sort_keys`` (np.lexsort
    order: the last key is primary). Returns the sorted cols and the
    start offsets of the runs of equal values in the first ``nkeys``
    cols."""
    order = np.lexsort(sort_keys)
    cols = [c[order] for c in cols]
    new = np.zeros(cols[0].size, dtype=bool)
    new[:1] = True
    for c in cols[:nkeys]:
        new[1:] |= c[1:] != c[:-1]
    return cols, np.flatnonzero(new)


def _key_runs(key):
    """Group the non-negative int64 ``key`` with one stable sort:
    returns (the sorting order, the start offsets of its runs of equal
    keys, the sorted keys). The row number rides in the low bits of
    ``key << b | row``, so a plain value sort is stable; a key too wide
    for that falls back to a stable argsort."""
    n = key.size
    b = (n - 1).bit_length() if n > 1 else 0
    if n and int(key.max()).bit_length() + b > 63:
        order = np.argsort(key, kind="stable")
        skey = key[order]
    else:
        packed = np.sort((key << b) | np.arange(n))
        order, skey = packed & ((1 << b) - 1), packed >> b
    new = np.ones(n, dtype=bool)
    new[1:] = skey[1:] != skey[:-1]
    return order, np.flatnonzero(new), skey


def _sum_pairs(pos, code, uniq, w):
    """One row per distinct (pos, code) pair, in (pos, code) order:
    (pos, ``uniq[code]``, ``w`` summed over the pair's rows in row
    order). ``pos`` and ``code`` are non-negative ints, ``code`` < the
    size of ``uniq``, so the pair packs into one ``_key_runs`` key,
    ``pos`` above the code bits."""
    cb = max(uniq.size - 1, 0).bit_length()
    order, st, skey = _key_runs(pos << cb | code)
    pair = skey[st]
    return pair >> cb, uniq[pair & ((1 << cb) - 1)], \
        np.add.reduceat(w[order], st) if st.size else w[:0]


def _first_rows(pos, ids, prio, descending: bool):
    """The best (prio, id) row per ``pos``: smallest first, or largest
    first if ``descending``. ``~`` reverses int order without the
    overflow of negation."""
    keys = (~ids, ~prio) if descending else (ids, prio)
    (pos, ids, prio), st = _runs((pos, ids, prio), (*keys, pos), 1)
    return pos[st], ids[st], prio[st]


class CsrPartition:
    """One logical partition: the CSR of the out-edges of the vertices
    v with ``part_key(v, P) == part``, its algorithm state, and the
    emit / merge methods of every algorithm. A plain object: a
    ``ShardHost`` actor holds several and moves their messages."""

    def __init__(self, part: int, num_partitions: int):
        self.part = part
        self.P = num_partitions
        self._chunks = []           # (key, src, dst, w) per slice
        self._vchunks = []          # vertex candidates per slice
        self._seen_digests = set()
        self._dup_drops = 0

    # -- push-based ingest -----------------------------------------
    def ingest(self, key: bytes, src, dst, w, vert_candidates,
               digest: bytes | None = None) -> int:
        """Accumulate a scatter slice shipped directly from a build
        task (push shuffle). Arrays arrive as zero-copy NumPy views
        over plasma.

        ``key`` is a content digest of the slice's whole block (after
        symmetrizing); ``finalize`` joins the slices in key order,
        so the CSR — and every float fold over it — does not depend
        on which push task finished first.

        ``digest`` is a content digest of the WHOLE source batch the
        slice came from: if Ray retries a push task after some of its
        ingest() calls already landed (worker died mid-task), the
        retried calls carry the same digest and are dropped here, so
        retries are idempotent. Two *byte-identical distinct* input
        blocks would collide, but the builder digests the full
        pre-split batch (src+dst+w bytes), so that requires two
        entire blocks to be byte-equal.
        """
        if digest is not None:
            if digest in self._seen_digests:
                # duplicate delivery of the same batch slice (task
                # retry): count it (the retried task's return value
                # replaces the dead task's), but don't re-accumulate.
                # Two DISTINCT byte-identical input blocks would
                # also land here — observable, never silent: the
                # drop is counted and reported loudly at finalize.
                self._dup_drops += 1
                return len(src)
            self._seen_digests.add(digest)
        self._chunks.append((key, np.asarray(src), np.asarray(dst),
                             np.asarray(w)))
        self._vchunks.append(np.asarray(vert_candidates))
        return len(src)

    def finalize(self) -> int:
        """Join the slices in key order and build the CSR; returns
        the number of edges this partition holds."""
        if self._dup_drops:
            # loud: a dropped duplicate-content block is either a
            # harmless task retry or (rarely) a DISTINCT
            # byte-identical input block whose edges were lost —
            # surfaced so the caller can compare n_edges vs source
            import logging

            logging.getLogger("tldr_ray").warning(
                "partition %d dropped %d duplicate-digest ingest "
                "deliveries (task retries are idempotent; if the "
                "edge source can emit byte-identical distinct "
                "blocks, verify the built n_edges against the "
                "source count)", self.part, self._dup_drops)
        chunks = sorted(self._chunks, key=lambda c: c[0])
        if chunks:
            src, dst, w = (np.concatenate([c[i] for c in chunks])
                           for i in (1, 2, 3))
        else:
            src = dst = np.zeros(0, dtype=np.int64)
            w = np.zeros(0, dtype=np.float64)
        verts = np.unique(np.concatenate(self._vchunks)) \
            if self._vchunks else np.zeros(0, dtype=np.int64)
        self._chunks, self._vchunks = [], []
        self._seen_digests, self._dup_drops = set(), 0
        self._build(src, dst, w, verts)
        return int(src.size)

    def _build(self, src, dst, w, verts):
        self.verts = verts
        n_local = self.verts.size
        src_local = np.searchsorted(self.verts, src)
        outbound = np.bincount(src_local, weights=w, minlength=n_local) \
            if n_local else np.zeros(0)
        with np.errstate(divide="ignore", invalid="ignore"):
            w_norm = np.where(outbound[src_local] > 0,
                              w / outbound[src_local], 0.0) if src.size else w
        self.dangling_mask = outbound == 0

        dst_part = part_key(dst, self.P)
        order = np.argsort(dst_part, kind="stable")
        self.e_src_local = src_local[order]
        self.e_wnorm = np.asarray(w_norm)[order] if src.size else w_norm
        self.e_weight_sorted = w[order]     # raw weights (LPA votes)
        e_dst = dst[order]
        dp_sorted = dst_part[order]
        q_lo = np.searchsorted(dp_sorted, np.arange(self.P))
        q_hi = np.searchsorted(dp_sorted, np.arange(self.P) + 1)
        # edges bound for destination partition q
        self.q_slices = [slice(lo, hi) for lo, hi in zip(q_lo, q_hi)]
        self.dvocabs = []
        self.dlocals = []
        for sl in self.q_slices:
            dv, dl = np.unique(e_dst[sl], return_inverse=True)
            self.dvocabs.append(dv)
            self.dlocals.append(dl)
        # each (q, destination) pair's slot in one numbering over all
        # q: slots qbase[q] .. qbase[q + 1] - 1 are dvocabs[q]'s, and
        # e_slot ascends with q as the edges do (the triple emits)
        self.qbase = np.cumsum([0] + [dv.size for dv in self.dvocabs])
        self.e_slot = np.concatenate(
            [b + dl for b, dl in zip(self.qbase, self.dlocals)])

        self.incoming_idx = None   # per sender p: local positions
        self.state = None          # float ranks or int labels
        self.round = 0             # the superstep round (``superstep``)
        self.n_total = None        # PageRank: global vertex count,
        self.alpha = None          # damping,
        self.pvec = None           # restart vector (None = uniform)
        self.emitted = None        # power iteration: last emitted state
        self._clamp = None         # label_spread: clamped seeds
        self._prev = None          # LPA: the labels before the last round

    # -- the superstep and its two halves -------------------------
    def start(self, init: str | None, emit: str, *args):
        """Round 0: ``init(*args)`` (if any), then emit the first
        outbox in the same RPC. Returns (what ``init`` returned,
        outbox)."""
        self.round = 0
        return getattr(self, init)(*args) if init else None, \
            getattr(self, emit)()

    def superstep(self, inbox, merge: str, emit: str | None, r: int):
        """One fused BSP superstep: merge the inbox of round ``r``
        (``merge`` sees ``self.round == r``), then emit the outbox
        of round r + 1 in the same RPC. Returns (``merge``'s stop
        signal, outbox); with no ``emit`` the outbox is None."""
        self.round = r
        signal = getattr(self, merge)(inbox)
        self.round = r + 1
        return signal, getattr(self, emit)() if emit else None

    def _combine(self, values, ufunc, fill):
        """Emit: fold the per-edge ``values`` into one array per
        destination partition q, aligned to ``dvocabs[q]`` (each
        slot starts at ``fill``; ``ufunc`` folds the edges in, in
        edge order). Sums from zero use
        bincount, which adds in the same order as ``np.add.at``
        (the same bits) and is much faster."""
        out = []
        for q, sl in enumerate(self.q_slices):
            if ufunc is np.add and fill == 0:
                acc = np.bincount(self.dlocals[q], weights=values[sl],
                                  minlength=self.dvocabs[q].size)
            else:
                acc = np.full(self.dvocabs[q].size, fill,
                              dtype=values.dtype)
                ufunc.at(acc, self.dlocals[q], values[sl])
            out.append(acc)
        return out

    def _gather(self, inbox, ufunc, base):
        """Merge: fold each sender's ``_combine`` array into ``base``
        at the local positions of its vocabulary, in sender order,
        and return ``base``. It must stay ``ufunc.at`` into the
        base: ``base + bincount(...)`` rounds sums differently."""
        for idx, arr in zip(self.incoming_idx, inbox):
            arr = np.asarray(arr)
            if arr.size:
                ufunc.at(base, idx, arr)
        return base

    def _triples(self, values, w, keep=None):
        """Emit: per destination partition q, one (dst_local, value,
        summed ``w``) row per distinct (destination, source value)
        pair over the edges (only the ``keep`` ones, if given), in
        (dst_local, value) order, ``w`` summed in edge order.
        ``values`` is per local vertex: coded by its rank among the
        local values, the pair is (destination slot, code), grouped
        by one ``_sum_pairs`` sort over all q."""
        uniq, code = np.unique(values, return_inverse=True)
        sel = slice(None) if keep is None else keep
        slot, val, wsum = _sum_pairs(self.e_slot[sel],
                                     code[self.e_src_local][sel], uniq,
                                     w[sel])
        cut = np.searchsorted(slot, self.qbase)
        return [(slot[a:b] - base, val[a:b], wsum[a:b])
                for base, a, b in zip(self.qbase, cut, cut[1:])]

    def _inbox_rows(self, inbox):
        """The senders' (dst_local, a, b) triples concatenated in
        sender order, with dst_local mapped to local positions."""
        rows = [(idx[np.asarray(t[0])], np.asarray(t[1]),
                 np.asarray(t[2]))
                for idx, t in zip(self.incoming_idx, inbox)]
        return [np.concatenate(c) for c in zip(*rows)]

    def _settle(self, new) -> int:
        """Adopt ``new`` as the state; returns how many vertices
        changed."""
        changed = int((new != self.state).sum())
        self.state = new
        return changed

    def _find(self, ids_sorted):
        """Which local vertices occur in ``ids_sorted``: (mask over
        the local vertices, positions of those hits in
        ``ids_sorted``)."""
        if not ids_sorted.size:
            return np.zeros(self.verts.size, dtype=bool), \
                np.zeros(0, dtype=np.int64)
        pos = np.minimum(np.searchsorted(ids_sorted, self.verts),
                         ids_sorted.size - 1)
        hit = ids_sorted[pos] == self.verts
        return hit, pos[hit]

    # -- setup -----------------------------------------------------
    def publish_vocabs(self):
        """The one-time outbox: per destination partition q, the
        sorted destination vertices this partition ever sends to."""
        return self.dvocabs

    def register_incoming(self, vocabs):
        """Resolve every sender's vocabulary to local positions once."""
        self.incoming_idx = [np.searchsorted(self.verts, np.asarray(v))
                             for v in vocabs]

    def n_local(self) -> int:
        return int(self.verts.size)

    def sample_verts(self, k: int):
        """First k local vertex ids — cheap pivot seeds for the
        sampled-betweenness CLI (no O(V) collect)."""
        return self.verts[:k].tolist()

    def seed_init(self, seeds, at_seed, elsewhere) -> int:
        """State = ``at_seed`` at the local seed vertices,
        ``elsewhere`` at the rest; returns how many seeds this partition
        owns (the driver checks the global sum is nonzero)."""
        hit = np.isin(self.verts, np.asarray(seeds, dtype=np.int64))
        self.state = np.where(hit, at_seed, elsewhere)
        return int(hit.sum())

    # -- pagerank --------------------------------------------------
    def pr_setup(self, n_total: int, alpha: float, seed):
        """Damping, uniform start state and restart vector: this
        partition's slice of ``seed`` = (sorted ids, weights), a plasma
        ref the driver rescales by the global coverage, or None for
        the uniform one. Returns the local seed weight."""
        self.n_total, self.alpha = n_total, alpha
        self.state = np.full(self.verts.size, 1.0 / n_total) \
            if n_total else np.zeros(0)
        self.pvec = None
        if seed is None:
            return 0.0
        seed_ids, seed_w = seed
        self.pvec = np.zeros(self.verts.size)
        hit, at = self._find(seed_ids)
        self.pvec[hit] = seed_w[at]
        return float(self.pvec.sum())

    def pr_rescale_personalization(self, factor: float):
        """Normalize the restart vector and start from it."""
        self.pvec = self.pvec * factor
        self.state = self.pvec.copy()

    def pr_warm_start(self, warm, fill: float) -> float:
        """Seed the rank state from a prior run's (sorted ids,
        scores): local vertices found in the carry-over keep their
        old score, new vertices start at ``fill`` (the uniform
        mass). Returns the local state sum so the driver can
        renormalize globally (the old graph's mass on vanished
        vertices must be redistributed)."""
        ids_sorted, scores = warm
        st = np.full(self.verts.size, fill)
        hit, at = self._find(ids_sorted)
        st[hit] = scores[at]
        self.state = st
        return float(st.sum())

    def pr_scale_state(self, factor: float):
        self.state = self.state * factor

    def pr_messages(self):
        """Per destination partition: (this partition's dangling mass,
        its pre-combined rank mass). Every receiver sums the
        dangling masses in sender order, so the driver relays no
        scalar."""
        masses = self._combine(self.state[self.e_src_local]
                               * self.e_wnorm, np.add, 0.0)
        dangling = float(self.state[self.dangling_mask].sum())
        return [(dangling, m) for m in masses]

    def pr_apply(self, inbox) -> float:
        """Restart (uniform or personalized) plus the damped
        incoming mass; returns the L1 change of the rank state."""
        coef = (1.0 - self.alpha) + self.alpha * sum(d for d, _ in inbox)
        new = coef * self.pvec if self.pvec is not None \
            else np.full(self.verts.size, coef / self.n_total)
        new = self._gather([self.alpha * np.asarray(m) for _, m in inbox],
                           np.add, new)
        delta = float(np.abs(new - self.state).sum())
        self.state = new
        return delta

    # -- min / max label fixpoints ---------------------------------
    def label_init(self):
        """Every vertex starts labeled with its own id (CC, LPA)."""
        self.state = self.verts.copy()
        self._clamp = self._prev = None

    def label_warm(self, warm):
        """Seed labels from a prior run's (sorted ids, labels):
        state = min(own id, carried label). Correct ONLY for
        edge-ADDITION deltas (see GraphEngine.connected_components
        docstring for the argument); unknown vertices fall back to
        their own id."""
        ids_sorted, labels = warm
        st = self.verts.copy()
        hit, at = self._find(ids_sorted)
        st[hit] = np.minimum(st[hit], labels[at])
        self.state = st

    def cc_messages(self):
        return self._combine(self.state[self.e_src_local], np.minimum,
                             _INT64_MAX)

    def bfs_messages(self):
        """min(dist[src] + 1) per destination. Unreached sources
        propagate INT64_MAX unchanged (no +1 overflow)."""
        d = self.state[self.e_src_local]
        return self._combine(np.where(d == _INT64_MAX, _INT64_MAX, d + 1),
                             np.minimum, _INT64_MAX)

    def sssp_messages(self):
        """min(dist[src] + w) per destination — distances
        accumulate seed-outward, so every path sum is associated
        left-to-right and the float fixpoint is deterministic
        (message order can't change which IEEE sum wins the min)."""
        return self._combine(self.state[self.e_src_local]
                             + self.e_weight_sorted, np.minimum, np.inf)

    def temporal_messages(self):
        """Time-respecting relaxation: edge weights ARE departure
        timestamps; an edge (u,v) at time tau is usable only once
        u has been reached by tau (arr[u] <= tau), and then
        delivers arrival tau at v. Candidates are picked from the
        fixed timestamp set (never combined), so the fixpoint is
        bit-deterministic."""
        tau = self.e_weight_sorted
        return self._combine(
            np.where(tau >= self.state[self.e_src_local], tau, np.inf),
            np.minimum, np.inf)

    def widest_messages(self):
        """max over edges of min(width[src], w) per destination —
        the max-min dual of sssp_messages. Widths are picked (never
        arithmetically combined) from the fixed edge-weight set, so
        the float fixpoint is trivially bit-deterministic. Unreached
        sources propagate -inf, harmless under the max merge."""
        return self._combine(np.minimum(self.state[self.e_src_local],
                                        self.e_weight_sorted),
                             np.maximum, -np.inf)

    def min_apply(self, inbox) -> int:
        return self._settle(self._gather(inbox, np.minimum,
                                         self.state.copy()))

    def max_apply(self, inbox) -> int:
        return self._settle(self._gather(inbox, np.maximum,
                                         self.state.copy()))

    # -- sampled Brandes betweenness (forward sigma BFS + level-
    #    synchronous backward dependency accumulation). Sigma stays
    #    EXACT: path counts are integer-valued float64 sums (exact
    #    to 2^53); only delta is genuinely float, and its fixed
    #    edge-order combine + sender-order merge make the fixpoint
    #    deterministic for a given input. -------------------------
    def bc_begin(self):
        self.bc_acc = np.zeros(self.verts.size)

    def bc_fwd_init(self, seeds) -> int:
        seeds = np.asarray(seeds, dtype=np.int64)
        self.bc_dist = np.where(np.isin(self.verts, seeds),
                                0, _INT64_MAX).astype(np.int64)
        self.bc_sigma = (self.bc_dist == 0).astype(np.float64)
        return int((self.bc_dist == 0).sum())

    def bc_fwd_messages(self):
        """Path counts of the level-``round`` frontier."""
        sig = np.where(self.bc_dist[self.e_src_local] == self.round,
                       self.bc_sigma[self.e_src_local], 0.0)
        return self._combine(sig, np.add, 0.0)

    def bc_fwd_apply(self, sums) -> int:
        inc = self._gather(sums, np.add, np.zeros(self.verts.size))
        newly = (self.bc_dist == _INT64_MAX) & (inc > 0.0)
        self.bc_dist[newly] = self.round + 1
        self.bc_sigma[newly] = inc[newly]
        return int(newly.sum())

    def bc_max_level(self) -> int:
        m = self.bc_dist[self.bc_dist != _INT64_MAX]
        return int(m.max()) if m.size else 0

    def bc_bwd_init(self, max_level: int):
        """Sweep levels ``max_level`` .. 1 back, one per round."""
        self.bc_delta = np.zeros(self.verts.size)
        self._max_level = max_level

    def bc_bwd_messages(self):
        """Level-k vertices (k = max_level - round) send
        (1 + delta)/sigma over every out-edge; a receiver at level
        k-1 is NECESSARILY a predecessor on some shortest path (BFS
        level property), so multiplying the received sum by its own
        sigma is exactly Brandes' dependency accumulation."""
        level = self._max_level - self.round
        d = self.bc_dist[self.e_src_local]
        sig = np.where(self.bc_sigma[self.e_src_local] > 0.0,
                       self.bc_sigma[self.e_src_local], 1.0)
        contrib = np.where(
            d == level,
            (1.0 + self.bc_delta[self.e_src_local]) / sig, 0.0)
        return self._combine(contrib, np.add, 0.0)

    def bc_bwd_apply(self, sums) -> int:
        """Accumulate into level k-1; returns the levels left."""
        level = self._max_level - self.round
        inc = self._gather(sums, np.add, np.zeros(self.verts.size))
        mask = self.bc_dist == (level - 1)
        self.bc_delta[mask] += self.bc_sigma[mask] * inc[mask]
        return level - 1

    def bc_accumulate(self, seed) -> None:
        acc = self.bc_delta.copy()
        acc[np.isin(self.verts,
                    np.asarray(seed, dtype=np.int64))] = 0.0
        self.bc_acc += acc

    def bc_finish(self):
        self.state = self.bc_acc

    # -- label propagation (weighted mode, smallest-label ties) ----
    def lpa_seed_init(self, seeds) -> int:
        """Seed-clamped start for label_spread: ``seeds`` = (sorted
        ids, labels). Non-seeds start unlabeled (-1) and do not vote
        until labeled; seeds are clamped for the whole run. Returns
        how many seeds this partition owns."""
        ids_sorted, labels = seeds
        st = np.full(self.verts.size, -1, dtype=np.int64)
        hit, at = self._find(ids_sorted)
        st[hit] = labels[at]
        self._clamp = st >= 0
        self.state, self._prev = st, None
        return int(self._clamp.sum())

    def lpa_messages(self):
        """Per destination partition, this partition's (dst_local,
        label, summed weight) votes, one row per (dst, label). Every
        source votes, except that label_spread's unlabeled (-1)
        vertices do not."""
        voting = None if self._clamp is None \
            else self.state[self.e_src_local] >= 0
        return self._triples(self.state, self.e_weight_sorted, voting)

    def lpa_apply(self, trips) -> int:
        """Every voted vertex adopts its heaviest label summed over
        all senders (ties -> smallest label); clamped seeds never
        change and unvoted vertices keep their state."""
        pos, lab, w = self._inbox_rows(trips)
        uniq, code = np.unique(lab, return_inverse=True)
        pos, lab, w = _sum_pairs(pos, code, uniq, w)
        # labels ascend within a vertex's rows, so its first row that
        # reaches the vertex's top sum holds the smallest such label
        first = np.flatnonzero(np.diff(pos, prepend=-1))
        top = np.maximum.reduceat(w, first) if first.size else w
        top = np.repeat(top, np.diff(first, append=pos.size))
        best = np.flatnonzero(w == top)
        best = best[np.diff(pos[best], prepend=-1) != 0]
        tgt, val = pos[best], lab[best]
        if self._clamp is not None:
            free = ~self._clamp[tgt]
            tgt, val = tgt[free], val[free]
        new = self.state.copy()
        new[tgt] = val
        return self._settle(new)

    def lpa_step(self, trips):
        """``lpa_apply``, keeping the labels it replaced; returns
        (changed vertices, vertices whose new label differs from the
        label of two rounds back), the first round comparing with the
        last round's labels only."""
        back, self._prev = self._prev, self.state
        changed = self.lpa_apply(trips)
        return changed, changed if back is None else \
            int((self.state != back).sum())

    def lpa_rewind(self):
        """Take back the labels of the round before."""
        self.state = self._prev

    # -- hashed-priority rounds: matching, MIS, coloring ------------
    def undecided_init(self):
        """State -1 = undecided (unmatched / not yet in or out of
        the set / uncolored)."""
        self.state = np.full(self.verts.size, -1, dtype=np.int64)

    def _priority(self, salt: int):
        """splitmix64(v * K + salt) per local vertex."""
        from tldr_ray.stages.dedup import _mix64

        return _mix64(self.verts.astype(np.uint64)
                      * np.uint64(0x9E3779B97F4A7C15) + np.uint64(salt))

    def _best_nbr_messages(self, prio, descending: bool):
        """Per destination partition, each destination's best
        UNDECIDED source neighbor as (dst_local, id, priority): the
        min (priority, id), or the max if ``descending``. Pre-
        combined per partition, so a hub receives at most P
        candidates."""
        active = self.state[self.e_src_local] == -1
        src_v = self.verts[self.e_src_local]
        kv = prio[self.e_src_local]
        out = []
        for q, sl in enumerate(self.q_slices):
            m = active[sl]
            out.append(_first_rows(self.dlocals[q][m], src_v[sl][m],
                                   kv[sl][m], descending))
        return out

    def _best_nbr(self, trips, descending: bool):
        """Merge the senders' ``_best_nbr_messages``: per local
        vertex, (has a candidate, its priority, its id)."""
        pos, ids, prio = _first_rows(*self._inbox_rows(trips),
                                     descending)
        has = np.zeros(self.verts.size, dtype=bool)
        best_k = np.zeros(self.verts.size, dtype=np.uint64)
        best_v = np.zeros(self.verts.size, dtype=np.int64)
        has[pos] = True
        best_k[pos] = prio
        best_v[pos] = ids
        return has, best_k, best_v

    def match_unmatched_messages(self):
        """Each destination's unmatched source neighbor with the
        SMALLEST round-salted priority splitmix64(src * K + round
        + 1) (ties -> smaller id). The per-round re-salt is what
        makes the handshake converge in O(log n) expected rounds
        (Israeli-Itai) — min-by-raw-id serializes on paths/rings.
        MIS uses the same message for its active neighbors."""
        return self._best_nbr_messages(self._priority(self.round + 1),
                                       False)

    def match_set_proposals(self, trips):
        """p(v) = the min-(key, id) unmatched neighbor across all
        senders, for unmatched local v."""
        has, _, best_v = self._best_nbr(trips, False)
        self._prop = np.where(has & (self.state == -1), best_v,
                              _INT64_MAX)

    def match_propose_messages(self):
        """Ship (partner, proposer) pairs to the partner's owning
        partition."""
        has = self._prop != _INT64_MAX
        partner = self._prop[has]
        proposer = self.verts[has]
        part = part_key(partner, self.P)
        out = []
        for q in range(self.P):
            m = part == q
            out.append((partner[m], proposer[m]))
        return out

    def match_resolve(self, pairs) -> int:
        """Match u=partner with v=proposer iff the proposals are
        mutual (p(u) == v); returns new matches on this partition."""
        new = 0
        for (partner, proposer) in pairs:
            partner = np.asarray(partner)
            proposer = np.asarray(proposer)
            if not partner.size:
                continue
            pos = np.searchsorted(self.verts, partner)
            pos = np.minimum(pos, max(self.verts.size - 1, 0))
            ok = self.verts[pos] == partner
            pos, v = pos[ok], proposer[ok]
            mutual = self._prop[pos] == v
            tgt, val = pos[mutual], v[mutual]
            self.state[tgt] = val
            new += int(tgt.size)
        return new

    def mis_decide(self, trips) -> int:
        """An ACTIVE vertex joins the MIS iff its own round-salted
        (priority, id) beats the minimum over its ACTIVE neighbors
        (match_unmatched_messages, same priorities). No active
        neighbor -> joins. Returns new members on this partition."""
        has, best_k, best_v = self._best_nbr(trips, False)
        own_k = self._priority(self.round + 1)
        win = (self.state == -1) & (
            ~has | (own_k < best_k)
            | ((own_k == best_k) & (self.verts < best_v)))
        self._new_mis = win
        self.state[win] = 1
        return int(win.sum())

    def mis_notify_messages(self):
        """Per destination: does it have a NEW MIS source neighbor?
        (OR is the combiner.)"""
        return self._combine(self._new_mis[self.e_src_local],
                             np.logical_or, False)

    def mis_exclude(self, flags) -> int:
        """Active vertices with a new MIS neighbor leave the game
        (state 0). Returns the partition's remaining active count."""
        hit = self._gather(flags, np.logical_or,
                           np.zeros(self.verts.size, dtype=bool))
        self.state[(self.state == -1) & hit] = 0
        return int((self.state == -1).sum())

    def color_init(self):
        self.undecided_init()
        self._prio = self._priority(0)

    def color_nbr_max_messages(self):
        """Per destination: the MAXIMUM (static priority, id) over
        UNCOLORED source neighbors."""
        return self._best_nbr_messages(self._prio, True)

    def color_decide(self, trips) -> int:
        """An uncolored vertex WINS the round iff its own
        (priority, id) exceeds every uncolored neighbor's — winners
        form an independent set, so same-round color picks cannot
        conflict. Returns the partition's winner count."""
        has, best_k, best_v = self._best_nbr(trips, True)
        win = (self.state == -1) & (
            ~has | (self._prio > best_k)
            | ((self._prio == best_k) & (self.verts > best_v)))
        self._winner = win
        return int(win.sum())

    def color_mask_messages(self):
        """Per destination: OR of (1 << color) over COLORED source
        neighbors (int64 bitmask; JP needs <= maxdeg+1 < 63
        colors — guarded in color_assign)."""
        col = self.state[self.e_src_local]
        bits = np.where(col >= 0, np.left_shift(1, np.maximum(col, 0)), 0)
        return self._combine(bits, np.bitwise_or, 0)

    def color_assign(self, masks) -> int:
        """Winners take the lowest color bit absent from their
        colored-neighbor mask."""
        acc = self._gather(masks, np.bitwise_or,
                           np.zeros(self.verts.size, dtype=np.int64))
        w = np.flatnonzero(self._winner)
        if not w.size:
            # no winners here this round — but the partition may still
            # hold uncolored vertices waiting on remote neighbors
            return int((self.state == -1).sum())
        inv = ~acc[w].view(np.uint64)
        low = inv & (~inv + np.uint64(1))      # lowest unset bit
        c = np.round(np.log2(low.astype(np.float64))).astype(np.int64)
        if (c >= 62).any():
            raise ValueError("coloring exceeded the 62-color "
                             "bitmask budget")
        self.state[w] = c
        return int((self.state == -1).sum())

    # -- eigenvector centrality and HITS (power iteration) ---------
    def power_init(self, value: float):
        """Every vertex starts at ``value``."""
        self.state = self.emitted = np.full(self.verts.size, value)

    def weighted_messages(self):
        """Raw-weight SpMV messages from the current state, which is
        kept as ``emitted`` (by reference: every update REBINDS
        state, never mutates it) to measure the next change
        against."""
        self.emitted = self.state
        return self._combine(self.state[self.e_src_local]
                             * self.e_weight_sorted, np.add, 0.0)

    def eig_apply(self, masses) -> float:
        """Consume incoming raw-weight masses and form (A + I) x
        from the previous NORMALIZED vector (the +I shift makes the
        iteration converge on bipartite components too). Returns
        the local sum of squares so the driver can assemble the
        global L2 norm."""
        self.state = self._gather(masses, np.add, self.state.copy())
        return float((self.state * self.state).sum())

    def hits_apply(self, masses) -> float:
        """state = incoming masses only (NO +I shift — A^T A is
        PSD so the alternating iteration cannot oscillate).
        Returns the local sum of squares."""
        self.state = self._gather(masses, np.add,
                                  np.zeros(self.verts.size))
        return float((self.state * self.state).sum())

    def _emit_from(self, new):
        """Adopt ``new`` and emit from it; returns (L1 change vs
        the last emitted state, outbox)."""
        d = float(np.abs(new - self.emitted).sum())
        self.state = new
        return d, self.weighted_messages()

    def eig_scale_emit(self, factor: float):
        """Normalize by the global L2 factor and emit from the
        normalized vector."""
        return self._emit_from(self.state * factor)

    def scale_and_state_ref(self, factor: float):
        """Normalize by the global factor and hand the state out as
        one plasma ref (the cross-pool handoff: the twin engine's
        same-index partition owns the SAME sorted vertex set, so the
        array aligns positionally)."""
        import ray

        self.state = self.state * factor
        return ray.put(self.state)

    def take_state(self, arr):
        """Adopt the twin partition's handed-off state (fetched
        zero-copy from plasma) and emit from it: across one full
        HITS round the L1 change is the convergence signal."""
        return self._emit_from(np.asarray(arr, dtype=np.float64).copy())

    # -- k-core decomposition (distributed H-index iteration) ------
    def kcore_init(self) -> int:
        """state = undirected degree (assumes symmetrized, deduped
        weight-1 edges — each neighbor counted once)."""
        self.state = np.bincount(
            self.e_src_local, minlength=self.verts.size) \
            .astype(np.int64)
        return int(self.state.max()) if self.state.size else 0

    def kcore_messages(self):
        """Per-destination (dst_local, value, count) triples — the
        pre-combined histogram a receiver needs to compute the
        H-index of its neighbors' current values."""
        return self._triples(self.state, np.ones(self.e_src_local.size,
                                                 dtype=np.int64))

    def kcore_apply(self, trips) -> int:
        """new(v) = min(state(v), H-index of neighbor values):
        converges exactly to the core number (Lu et al., the
        H-index fixpoint of networks)."""
        pos, val, cnt = self._inbox_rows(trips)
        # per vertex: sort values desc, running neighbor count,
        # H = max over rows of min(value, cum_count)
        (pos, val, cnt), st = _runs((pos, val, cnt), (-val, pos), 1)
        cum = np.cumsum(cnt)
        before = np.repeat(cum[st] - cnt[st],
                           np.diff(np.append(st, pos.size)))
        h = np.maximum.reduceat(np.minimum(val, cum - before), st)
        new = self.state.copy()
        tgt = pos[st]
        new[tgt] = np.minimum(new[tgt], h)
        return self._settle(new)

    # -- state I/O -------------------------------------------------
    def collect(self):
        return self.verts, self.state

    def collect_table(self, value_name: str = "score") -> pa.Table:
        """Per-partition result as an Arrow table; the driver consumes
        only the ObjectRef (ray.data.from_arrow_refs), so no O(V)
        vertex state is ever concatenated in the driver process."""
        return pa.table({"vertex": pa.array(self.verts),
                         value_name: pa.array(self.state)})

    def write_state(self, ckpt_dir: str):
        os.makedirs(ckpt_dir, exist_ok=True)
        t = pa.table({"vertex": pa.array(self.verts),
                      "value": pa.array(self.state)})
        tmp = f"{ckpt_dir}/part={self.part}.parquet.tmp-{uuid.uuid4().hex[:6]}"
        pq.write_table(t, tmp)
        os.replace(tmp, f"{ckpt_dir}/part={self.part}.parquet")
        return int(self.verts.size)

    def load_state(self, ckpt_dir: str):
        t = pq.read_table(f"{ckpt_dir}/part={self.part}.parquet",
                          use_threads=False)
        v = np.asarray(t["vertex"], dtype=np.int64)
        assert np.array_equal(v, self.verts), "checkpoint/partition mismatch"
        self.state = t["value"].to_numpy()


def _cluster_cpus() -> int:
    import ray

    return max(1, int(ray.cluster_resources().get("CPU", 1)))


def _num_hosts(num_partitions: int) -> int:
    """H = min(P, the Ray cluster's CPUs): one shard host per CPU, as
    in Pregel, where a worker owns several partitions."""
    return min(num_partitions, _cluster_cpus())


# The idle shard hosts of this process's Ray session: ``_lease_hosts``
# takes from the end of ``idle``, ``_release_hosts`` appends to it.
_POOL = {"session": None, "idle": []}


def _session():
    """The Ray session a host handle belongs to, or None without one: a
    new ``ray.init`` starts a new node (local) or job (cluster)."""
    import ray

    if not ray.is_initialized():
        return None
    ctx = ray.get_runtime_context()
    return ctx.get_node_id(), ctx.get_job_id()


def _lease_hosts(H: int, P: int) -> tuple[list, list]:
    """H shard hosts, opened as hosts 0..H-1 of P partitions: the
    session's idle hosts first, spawned ones for the shortfall. Returns
    (hosts, the refs of their ``open`` calls). A reused host that died
    while idle fails its ``open`` and is replaced; a spawned host is not
    waited for, so its start-up overlaps the edge build."""
    import ray

    session = _session()
    if _POOL["session"] != session:
        _POOL.update(session=session, idle=[])
    idle = _POOL["idle"]
    hosts = [idle.pop() for _ in range(min(H, len(idle)))]
    reused = len(hosts)
    host_cls = _shard_actor_cls()
    hosts += [host_cls.remote() for _ in range(H - reused)]
    opened = [host.open.remote(h, H, P, _MSG_REF_BYTES_DEFAULT)
              for h, host in enumerate(hosts)]
    for h in range(reused):
        try:
            ray.get(opened[h])
        except ray.exceptions.RayActorError:
            hosts[h] = host_cls.remote()
            opened[h] = hosts[h].open.remote(h, H, P,
                                             _MSG_REF_BYTES_DEFAULT)
    return hosts, opened


def _release_hosts(hosts: list, session) -> None:
    """Close ``hosts`` and put the live ones back in the pool of
    ``session``, if that is still the current one; a host that died is
    dropped. Idle hosts beyond the cluster's CPUs are killed."""
    import ray

    if session != _session():
        return
    closed = [host.close.remote() for host in hosts]
    for host, ref in zip(hosts, closed):
        try:
            ray.get(ref)
        except ray.exceptions.RayActorError:
            continue
        _POOL["idle"].append(host)
    idle = _POOL["idle"]
    excess = max(0, len(idle) - _cluster_cpus())
    for host in idle[:excess]:
        ray.kill(host)
    del idle[:excess]


def _msg_nbytes(m) -> int:
    """Array bytes of a message: an array or a tuple of arrays and
    scalars."""
    if isinstance(m, np.ndarray):
        return m.nbytes
    if isinstance(m, tuple):
        return sum(_msg_nbytes(a) for a in m)
    return 0


def _shard_actor_cls():
    """Build the shard host actor class. A host serves one engine at a
    time: ``open`` makes it host h of H, holding the fresh partitions q
    with ``q % H == h``, and it runs every call on them in ascending q
    order, so H actor processes carry P partitions; ``close`` drops
    them, and the host waits idle in the session's pool (``_POOL``)
    for the next engine.

    Hosts reserve no CPU, so a pool is always schedulable whatever the
    session's CPU count (reserved CPUs would starve the Ray Data shard
    build that pushes the edges in); shard work is bursty,
    GIL-releasing NumPy.
    """
    import ray

    @ray.remote(num_cpus=0)
    class ShardHost:
        def __init__(self):
            """Nothing to build, so actor process spawn overlaps the
            Ray Data build that pushes the edges in (``ingest``)."""
            self.close()

        def open(self, host: int, num_hosts: int, num_partitions: int,
                 msg_ref_bytes: int):
            """Serve an engine as host ``host`` of ``num_hosts``, with
            fresh partitions and no held messages."""
            self.close()
            self.h, self.H, self.P = host, num_hosts, num_partitions
            self.msg_ref_bytes = msg_ref_bytes
            self.parts = [CsrPartition(q, num_partitions)
                          for q in range(host, num_partitions, num_hosts)]

        def close(self):
            """Drop the partitions and the held messages."""
            self.parts = []
            self._boxes = None      # local partitions' held inboxes

        def ingest(self, key: bytes, slices: list, digest: bytes) -> int:
            """One push of a build task: per local partition, its
            (src, dst, w, vertex candidates) slice or None. Each
            partition keeps its own retry-dedup digest set, since one
            batch sends the same digest to every partition."""
            return sum(part.ingest(key, *sl, digest=digest)
                       for part, sl in zip(self.parts, slices)
                       if sl is not None)

        def finalize(self) -> list:
            return [part.finalize() for part in self.parts]

        def n_local(self) -> int:
            """Vertices held by this host (all its partitions)."""
            return sum(part.n_local() for part in self.parts)

        def sample_verts(self, k: int):
            """First k vertex ids of this host's first partition
            (partition 0 on host 0)."""
            return self.parts[0].sample_verts(k)

        def call(self, method: str, each, emits: bool, *args):
            """``method(*args)``, or ``method(each[i], *args)``, on
            every local partition i in ascending order; returns their
            results. With ``emits`` each result is (value, outbox), and
            the call returns (values, ``_post`` of the outboxes)."""
            fns = [getattr(part, method) for part in self.parts]
            res = [f(*args) for f in fns] if each is None else \
                [f(e, *args) for f, e in zip(fns, self._fetch(each))]
            if not emits:
                return res
            return [v for v, _ in res], self._post([o for _, o in res])

        def superstep(self, inbox: list, merge: str, emit: str | None,
                      r: int):
            """Deliver round ``r``'s messages, then run every local
            partition's fused ``superstep``; ``inbox[g]`` is host g's
            package for this host (None from itself)."""
            return self.call("superstep", self._receive(inbox), True,
                             merge, emit, r)

        def _post(self, outboxes: list):
            """Hold what the local partitions address to each other
            (it stays in this process: no put, no pickling), and return
            per host g the package of what they address to g's
            partitions, ``package[i][j]`` from the i-th local partition
            to g's j-th. None when there is no outbox (no emit)."""
            if outboxes[0] is None:
                return None
            mine = range(self.h, self.P, self.H)
            self._boxes = [[None] * self.P for _ in mine]
            for p, out in zip(mine, outboxes):
                for box, q in zip(self._boxes, mine):
                    box[p] = out[q]
            return [None if g == self.h else
                    [[self._ship(out[q]) for q in range(g, self.P, self.H)]
                     for out in outboxes]
                    for g in range(self.H)]

        def _ship(self, m):
            """Messages to another host are gated PER OBJECT: one at or
            above ``msg_ref_bytes`` is ray.put() here and travels
            plasma-to-plasma to its receiver, so the driver only relays
            the ObjectRef. Smaller ones go by value: a driver-relayed
            ref costs ~1-5 ms of bookkeeping, which dominates below
            the gate."""
            return ray.put(m) if _msg_nbytes(m) >= self.msg_ref_bytes \
                else m

        def _receive(self, inbox: list) -> list:
            """Fill the held boxes with the other hosts' packages and
            fetch every ref: per local partition, the messages of all
            P senders in sender order."""
            boxes, self._boxes = self._boxes, None
            for g, pkg in enumerate(inbox):
                if pkg is not None:
                    for p, row in zip(range(g, self.P, self.H), pkg):
                        for box, m in zip(boxes, row):
                            box[p] = m
            flat = self._fetch([m for box in boxes for m in box])
            return [flat[i * self.P:(i + 1) * self.P]
                    for i in range(len(boxes))]

        @staticmethod
        def _fetch(items: list) -> list:
            idx = [i for i, x in enumerate(items)
                   if isinstance(x, ray.ObjectRef)]
            if idx:
                items = list(items)
                for i, v in zip(idx, ray.get([items[i] for i in idx])):
                    items[i] = v
            return items

        def collect_tables(self, value_name: str):
            """One Arrow table per local partition (the caller asks for
            one return object per partition)."""
            tabs = [part.collect_table(value_name) for part in self.parts]
            return tabs if len(tabs) > 1 else tabs[0]

    return ShardHost


def _l2_normalize(then: Callable):
    """Driver reduce of a power-iteration phase: the global L2 norm of
    the merged state, then ``then(1 / norm)``, which returns the next
    (signals, outboxes). A zero norm ends the run."""
    def reduce(res):
        norm = math.sqrt(sum(res[0]))
        return then(1.0 / norm) if norm else None
    return reduce


class _Phase(NamedTuple):
    """One exchange of a superstep: every partition of ``pool``
    (default: the engine running ``_until_stable``) merges its inbox
    with ``merge`` and emits with ``emit`` in one host RPC. ``reduce``,
    if given, maps the (per-partition signals, host outboxes) of the
    exchange to new ones on the driver (a power iteration's L2 norm),
    or to None to end the run."""
    merge: str
    emit: str | None = None
    reduce: Callable | None = None
    pool: GraphEngine | None = None


class GraphEngine:
    """P CSR partitions in H shard host actors; build one with
    ``from_edges``."""

    def __init__(self, hosts: list, manifest: dict):
        self.hosts = hosts
        self._session = _session()
        self.H = len(hosts)
        self.P = manifest["num_partitions"]
        self.manifest = manifest
        _, vocabs = self._start(None, "publish_vocabs")
        self._exchange(vocabs, "register_incoming", None, 0)
        manifest["n_local"] = self._all("n_local")
        self.n_total = sum(manifest["n_local"])

    @property
    def shards(self) -> list:
        """The shard host actors, by the name outside callers use: a
        host's ``n_local`` counts all its partitions' vertices, and
        host 0's ``sample_verts`` samples partition 0."""
        return self.hosts

    @classmethod
    def from_edges(cls, edges, num_partitions: int = 8,
                   symmetrize: bool = False):
        """Push-based shuffle straight into the shard hosts: the hosts
        are leased first (``_lease_hosts``: idle hosts of the session,
        spawned ones for the shortfall, whose start-up overlaps the Ray
        Data build), and the build's tasks scatter each block by source
        partition and ship the slices to the hosts as they stream
        through (one call per host, with the slices of its partitions)
        — no disk round-trip, no all-to-all sort. The ``ray.get`` on
        the pushes inside each task is the backpressure. Each slice carries its
        block's content key, and the partitions join slices in key
        order, so the same input blocks always give the same bits.
        ``symmetrize=True`` adds the reverse of every edge (connected
        components / LPA treat the graph as undirected)."""
        import ray

        P = num_partitions
        H = _num_hosts(P)
        hosts, opened = _lease_hosts(H, P)

        def push(batch: pa.Table) -> pa.Table:
            src = np.asarray(batch["src"], dtype=np.int64)
            dst = np.asarray(batch["dst"], dtype=np.int64)
            w = np.asarray(batch["weight"], dtype=np.float64)
            # Content digest of the whole pre-split batch: partitions
            # use it to drop duplicate deliveries when Ray retries this
            # task after a partial-success worker failure (see ingest()).
            h = hashlib.blake2b(digest_size=16)
            h.update(src.tobytes())
            h.update(dst.tobytes())
            h.update(w.tobytes())
            batch_digest = h.digest()
            if symmetrize:
                src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
                w = np.concatenate([w, w])
            # the partitions' join order (see ingest())
            key = hashlib.blake2b(src.tobytes() + dst.tobytes() + w.tobytes(),
                                  digest_size=10).digest()
            part = part_key(src, P)
            order = np.argsort(part, kind="stable")
            src, dst, w, part = src[order], dst[order], w[order], part[order]
            lo = np.searchsorted(part, np.arange(P))
            hi = np.searchsorted(part, np.arange(P) + 1)
            v = np.unique(np.concatenate([src, dst]))
            vpart = part_key(v, P)
            vorder = np.argsort(vpart, kind="stable")
            v, vpart = v[vorder], vpart[vorder]
            vlo = np.searchsorted(vpart, np.arange(P))
            vhi = np.searchsorted(vpart, np.arange(P) + 1)
            slices = [None if hi[p] == lo[p] and vhi[p] == vlo[p] else
                      (src[lo[p]:hi[p]], dst[lo[p]:hi[p]], w[lo[p]:hi[p]],
                       v[vlo[p]:vhi[p]]) for p in range(P)]
            # the hosts' ``open`` calls come from the driver, so a slice
            # from this task could overtake one
            ray.get(opened)
            futures = [host.ingest.remote(key, slices[g::H], batch_digest)
                       for g, host in enumerate(hosts)
                       if any(sl is not None for sl in slices[g::H])]
            n = np.int64(sum(ray.get(futures))) if futures else np.int64(0)
            return pa.table({"n": pa.array([n], pa.int64())})

        counts = edges.map_batches(push, batch_format="pyarrow",
                                   batch_size=None).to_pandas()
        n_edges = int(counts["n"].sum()) if len(counts) else 0
        ray.get([host.finalize.remote() for host in hosts])
        return cls(hosts, {"num_partitions": P, "symmetrized": symmetrize,
                           "n_edges": n_edges})

    # alias for callers of the old name (perfbench/workloads.py)
    from_edges_streaming = from_edges

    # -- the superstep -------------------------------------------------
    def _by_part(self, per_host: list) -> list:
        """Per-host result lists (host h: partitions h, h + H, ...) as
        one list in partition order."""
        return [per_host[p % self.H][p // self.H] for p in range(self.P)]

    def _all(self, method: str, *args, each=None, emits: bool = False):
        """Call ``method`` on every partition and wait: returns the
        results in partition order. ``each`` (a list in partition
        order) adds a per-partition first argument. With ``emits`` the
        method returns (value, outbox) and ``_all`` returns (values,
        per-host outboxes for ``_exchange``)."""
        import ray

        res = ray.get([host.call.remote(
            method, None if each is None else each[h::self.H], emits, *args)
            for h, host in enumerate(self.hosts)])
        if not emits:
            return self._by_part(res)
        return self._by_part([v for v, _ in res]), [o for _, o in res]

    def _exchange(self, outs, merge: str, emit: str | None, r: int):
        """The all-to-all step: host h's outbox ``outs[h]`` holds one
        package per host g, and each host's ``superstep`` gets what
        every host addressed to it; messages between partitions of one
        host never left it. Returns (per-partition merge signals, the
        hosts' next outboxes)."""
        import ray

        res = ray.get([host.superstep.remote(
            [outs[g][h] for g in range(self.H)], merge, emit, r)
            for h, host in enumerate(self.hosts)])
        return self._by_part([s for s, _ in res]), [o for _, o in res]

    def _start(self, init: str | None, emit: str, *args):
        """Round 0 on every partition (``CsrPartition.start``): returns
        (the per-partition ``init`` results, the first outboxes)."""
        return self._all("start", init, emit, *args, emits=True)

    def _seeded(self, error: str, init: str, emit: str, *args):
        """``_start`` with a seeding ``init`` that returns how many
        seeds each partition owns; returns (seeds in the graph, first
        outboxes). Raises ``error`` if a non-empty graph holds none (an
        empty graph has an empty answer)."""
        counts, outs = self._start(init, emit, *args)
        found = sum(counts)
        if found == 0 and self.n_total:
            raise ValueError(error)
        return found, outs

    def _until_stable(self, outs, phases: list, max_rounds: int,
                      tol: float = 0.0, first_round: int = 0,
                      signal: float = np.inf, checkpoint=None):
        """The BSP loop of every engine algorithm. Each round r runs
        the ``phases`` in order, one ``_exchange`` each: the outboxes
        ``outs`` go to every partition's fused ``superstep``, whose
        outboxes feed the next phase or round. The last phase's summed
        signal (changed or undecided vertices, an L1 change) is the
        stop signal: the loop ends once it is <= ``tol``, or after
        round ``max_rounds`` (counting from ``first_round``, a resumed
        run's round), or when a phase's ``reduce`` returns None. A
        merge may signal a pair instead (``CsrPartition.lpa_step``):
        the first count is the stop signal, and the loop also ends once
        the summed second one is <= ``tol``. The
        cap round's last phase emits nothing unless it has a
        ``reduce``, since no round would consume it.
        ``signal`` is the signal before round 1 (0 runs no round).
        ``checkpoint`` = (dir, every, restart-vector digest) writes
        the state and manifest after every ``every``-th round.
        Returns (rounds, whether the signal ended <= ``tol``, the trace
        {"iter_secs": per-round wall seconds, "signals": per-round stop
        signals})."""
        it, trace = first_round, {"iter_secs": [], "signals": []}
        second = np.inf
        while signal > tol and second > tol and it < max_rounds:
            t0 = _time.time()
            for i, ph in enumerate(phases):
                idle = it + 1 == max_rounds and i + 1 == len(phases) \
                    and ph.reduce is None
                res = (ph.pool or self)._exchange(
                    outs, ph.merge, None if idle else ph.emit, it)
                if ph.reduce is not None:
                    res = ph.reduce(res)
                    if res is None:
                        return it, False, trace
                signals, outs = res
            if isinstance(signals[0], tuple):
                signal, second = (sum(s) for s in zip(*signals))
            else:
                signal = sum(signals)
            it += 1
            trace["iter_secs"].append(round(_time.time() - t0, 4))
            trace["signals"].append(signal)
            if checkpoint and it % checkpoint[1] == 0:
                self._checkpoint(checkpoint[0], it, checkpoint[2])
        return it, bool(signal <= tol), trace

    def _relax(self, name: str, seeds, at_seed, elsewhere, emit: str,
               merge: str, max_rounds: int, dtype, collect: bool):
        """Seeded monotone fixpoint shared by bfs, sssp, temporal
        reachability and widest path."""
        n_seed, outs = self._seeded(
            f"{name}: no seed vertex present in the graph", "seed_init",
            emit, [int(x) for x in seeds], at_seed, elsewhere)
        it, done, trace = self._until_stable(outs, [_Phase(merge, emit)],
                                             max_rounds)
        ids, vals = self._collect(dtype) if collect else (None, None)
        return ids, vals, {"rounds": it, "converged": done,
                           "seeds_found": n_seed, **trace}

    # -- algorithms ----------------------------------------------------
    def pagerank(self, damping: float = 0.85, tolerance: float = 1e-4,
                 max_iterations: int = 200, checkpoint_every: int = 0,
                 checkpoint_dir: str | None = None, resume: bool = False,
                 personalization=None, warm_start=None,
                 collect: bool = True):
        """Returns (vertex_ids, scores, info). alixaxel/pagerank semantics
        (see kernel.pagerank_ref).

        ``personalization``: optional (ids, weights) arrays — the restart
        distribution of personalized PageRank (weights renormalized over
        the seeds actually present in the graph). The restart vector is
        broadcast once via plasma; each shard keeps its local slice.
        Checkpoints record a digest of the restart vector, so a
        personalized run may resume — the caller must pass the SAME
        personalization (digest-checked; a mismatch refuses loudly).

        ``warm_start``: optional (ids, scores) from a PREVIOUS run on a
        possibly different edge set — the streaming-link-graph pattern:
        re-ingest the grown graph, seed each surviving vertex with its
        old score (new vertices get the uniform mass), renormalize to a
        distribution, and iterate; near the old fixpoint this converges
        in a fraction of the cold iterations. The final fixpoint is the
        SAME as a cold run (power iteration is init-independent) — only
        the iteration count changes. Mutually exclusive with resuming
        from a checkpoint (a found checkpoint is a full state restore).
        """
        import ray

        from tldr_ray.state import read_manifest

        pers_sorted = None
        pers_digest = None
        if personalization is not None:
            ids0 = np.asarray(personalization[0], dtype=np.int64)
            w0 = np.asarray(personalization[1], dtype=np.float64)
            if ids0.size == 0:
                raise ValueError("personalization needs at least one seed")
            order = np.argsort(ids0)
            pers_sorted = (ids0[order], w0[order])
            pers_digest = hashlib.blake2b(
                pers_sorted[0].tobytes() + pers_sorted[1].tobytes(),
                digest_size=8).hexdigest()

        start_iter = 0
        ck = read_manifest(checkpoint_dir) if (resume and checkpoint_dir) \
            else None
        if ck is not None and warm_start is not None:
            raise ValueError(
                "warm_start and a found resume checkpoint are mutually "
                "exclusive — the checkpoint is a full state restore")
        if ck is not None:
            if ck["num_partitions"] != self.P or ck["n_total"] != self.n_total:
                raise ValueError(
                    "checkpoint lineage mismatch: manifest "
                    f"(P={ck['num_partitions']}, n={ck['n_total']}) vs engine "
                    f"(P={self.P}, n={self.n_total}) — refusing to resume")
            if ck.get("personalization_digest") != pers_digest:
                raise ValueError(
                    "checkpoint restart-vector mismatch: manifest digest "
                    f"{ck.get('personalization_digest')} vs requested "
                    f"{pers_digest} — resume a personalized run with the "
                    "same personalization it was started with")
            start_iter = ck["iteration"]

        covered = sum(self._all("pr_setup", self.n_total, damping,
                                None if pers_sorted is None
                                else ray.put(pers_sorted)))
        if pers_sorted is not None:
            if covered <= 0:
                raise ValueError("no personalization seed is present in "
                                 "the graph")
            self._all("pr_rescale_personalization", 1.0 / covered)
        if ck is not None:
            # the checkpointed rank state overwrites the start state
            self._all("load_state", f"{checkpoint_dir}/iter={start_iter}")
        elif warm_start is not None:
            ids_w = np.asarray(warm_start[0], dtype=np.int64)
            sc_w = np.asarray(warm_start[1], dtype=np.float64)
            order = np.argsort(ids_w)
            wref = ray.put((ids_w[order], sc_w[order]))
            fill = 1.0 / self.n_total if self.n_total else 0.0
            total = sum(self._all("pr_warm_start", wref, fill))
            if total > 0:
                self._all("pr_scale_state", 1.0 / total)

        it, converged, trace = self._until_stable(
            self._start(None, "pr_messages")[1],
            [_Phase("pr_apply", "pr_messages")],
            max_iterations, tol=tolerance, first_round=start_iter,
            signal=np.inf if self.n_total else 0.0,
            checkpoint=(checkpoint_dir, checkpoint_every, pers_digest)
            if checkpoint_every and checkpoint_dir else None)
        # collect=False leaves the result sharded (consume with
        # to_dataset / write_parquet — no O(V) arrays on the driver)
        ids, scores = self._collect(np.float64) if collect else (None, None)
        return ids, scores, {
            "iterations": it,
            "converged": converged,
            **trace,
            "sec_per_iteration": round(float(np.mean(trace["iter_secs"])),
                                       4) if trace["iter_secs"] else 0.0,
        }

    def connected_components(self, max_iterations: int = 200,
                             warm_start=None, collect: bool = True):
        """Min-vertex-id label fixpoint. Supply symmetrized edges for
        undirected semantics. Returns (vertex_ids, component_ids, info).

        ``warm_start``: optional (ids, labels) from a prior run over a
        graph this one GREW from (edge additions only — never
        removals). Valid because min-label updates are monotone
        decreasing and every carried label is the id of a vertex still
        connected to its carrier: the fixpoint from this init equals
        the cold fixpoint, reached in fewer rounds (old intra-component
        propagation is pre-done; only merge fronts move). Edge
        REMOVALS break the invariant (a carried label may name a
        vertex no longer reachable) — rerun cold after removals."""
        import ray

        if warm_start is None:
            _, outs = self._start("label_init", "cc_messages")
        else:
            ids_w = np.asarray(warm_start[0], dtype=np.int64)
            lb_w = np.asarray(warm_start[1], dtype=np.int64)
            order = np.argsort(ids_w)
            _, outs = self._start("label_warm", "cc_messages",
                                  ray.put((ids_w[order], lb_w[order])))
        it, done, trace = self._until_stable(
            outs, [_Phase("min_apply", "cc_messages")], max_iterations)
        ids, labels = self._collect(np.int64) if collect else (None, None)
        return ids, labels, {"iterations": it, "converged": done, **trace}

    def bfs(self, seeds, max_rounds: int = 10_000, collect: bool = True):
        """Unweighted hop distance from ``seeds`` (min-plus frontier
        fixpoint over the CC message plumbing; unreached vertices keep
        INT64_MAX — callers map those to their own sentinel). Supply
        symmetrized edges for undirected distance. Returns
        (vertex_ids, distances, info)."""
        return self._relax("bfs", seeds, 0, _INT64_MAX, "bfs_messages",
                           "min_apply", max_rounds, np.int64, collect)

    def betweenness_sampled(self, seeds, max_rounds: int = 10_000,
                            collect: bool = True):
        """Sampled Brandes betweenness: for each pivot seed, one
        forward sigma-BFS (level-synchronous path counting) and one
        backward dependency sweep over the SAME resident shards; the
        per-vertex result is the summed dependency score delta_s(v)
        over the pivots (the classic unbiased estimator scales it by
        n/k — callers needing absolute betweenness apply that). Every
        round is one pre-combined exchange; per-pivot cost is
        O(2 * eccentricity) rounds. Returns (ids, scores, info)."""
        self._all("bc_begin")
        total_rounds = 0
        for s0 in seeds:
            _, outs = self._seeded(f"betweenness: pivot {s0} not in the "
                                   "graph", "bc_fwd_init",
                                   "bc_fwd_messages", [int(s0)])
            fwd, _, _ = self._until_stable(
                outs, [_Phase("bc_fwd_apply", "bc_fwd_messages")],
                max_rounds)
            max_level = max(self._all("bc_max_level"))
            _, outs = self._start("bc_bwd_init", "bc_bwd_messages",
                                  max_level)
            bwd, _, _ = self._until_stable(
                outs, [_Phase("bc_bwd_apply", "bc_bwd_messages")],
                max_level)
            total_rounds += fwd + bwd
            self._all("bc_accumulate", [int(s0)])
        self._all("bc_finish")
        ids, bc = self._collect(np.float64) if collect else (None, None)
        return ids, bc, {"rounds": total_rounds,
                         "pivots": len(list(seeds))}

    def sssp(self, seeds, max_rounds: int = 10_000, collect: bool = True):
        """Weighted single-source shortest path (Bellman-Ford min-plus
        fixpoint; converges in <= V-1 rounds for non-negative weights —
        negative edges are the caller's risk and the rounds cap the
        backstop). Unreached vertices keep +inf. Returns
        (vertex_ids, distances float64, info)."""
        return self._relax("sssp", seeds, 0.0, np.inf, "sssp_messages",
                           "min_apply", max_rounds, np.float64, collect)

    def temporal_reachability(self, seeds, max_rounds: int = 10_000,
                              collect: bool = True):
        """Earliest-arrival time-respecting reachability: edge
        weights are departure timestamps, an edge is traversable only
        after its source has been reached (arr[u] <= tau), and each
        traversal arrives at its own tau — so arrival times along any
        valid path are non-decreasing. Seeds start at time 0 (shift the
        timestamps for another start); unreached vertices keep +inf.
        Synchronous min-relaxation rounds; a finite ``max_rounds`` gives
        the exact <=max_rounds-hop bounded form, mirrored by the
        unrolled SQL oracle."""
        return self._relax("temporal_reachability", seeds, 0.0, np.inf,
                           "temporal_messages", "min_apply", max_rounds,
                           np.float64, collect)

    def widest_path(self, seeds, max_rounds: int = 10_000,
                    collect: bool = True):
        """Widest-path (maximum-bottleneck) width from ``seeds`` over
        the DIRECTED weighted edge set: the max-min semiring fixpoint
        width(v) = max over edges (u,v) of min(width(u), w(u,v)).
        Capped at ``max_rounds`` synchronous rounds, so with a finite
        cap the result is the exact <=max_rounds-hop bounded widest
        path — bit-deterministic, which is what the unrolled SQL
        oracle mirrors. Seeds carry +inf, unreached stay -inf."""
        return self._relax("widest_path", seeds, np.inf, -np.inf,
                           "widest_messages", "max_apply", max_rounds,
                           np.float64, collect)

    def _lpa(self, outs, max_rounds: int) -> dict:
        """The rounds of label_propagation and label_spread, and their
        info. Synchronous LPA's next labels are a function of its
        labels (label_spread's clamp is fixed), so once every label
        equals the one of two rounds back the labels repeat with period
        2: the run stops there (``lpa_step`` signals the count of
        labels that differ) and ends on the labels the round cap would
        reach, this round's if the rounds left are even, else the round
        before's. That is bit-identical to running to the cap. In the
        info, ``stable`` means a fixpoint and ``period2`` a stop on a
        repeat before the cap."""
        it, stable, trace = self._until_stable(
            outs, [_Phase("lpa_step", "lpa_messages")], max_rounds)
        period2 = not stable and it < max_rounds
        if period2 and (max_rounds - it) % 2:
            self._all("lpa_rewind")
        return {"rounds": it, "stable": stable, "period2": period2,
                **trace}

    def label_propagation(self, max_rounds: int = 20, collect: bool = True):
        """Synchronous weighted LPA, smallest-label tie-break, stopped
        early on a fixpoint or a period-2 repeat (``_lpa``).
        Returns (vertex_ids, labels, info)."""
        _, outs = self._start("label_init", "lpa_messages")
        info = self._lpa(outs, max_rounds)
        ids, labels = self._collect(np.int64) if collect else (None, None)
        return ids, labels, info

    def label_spread(self, seeds, max_rounds: int = 10,
                     collect: bool = True):
        """Semi-supervised label spreading: clamped seed labels,
        synchronous weighted-majority rounds where only LABELED
        vertices vote (smallest-label ties), unlabeled vertices stay
        -1 until a labeled neighbor reaches them. Returns the labels of
        EXACTLY ``max_rounds`` rounds, though it stops early on a
        fixpoint or a period-2 repeat (``_lpa``) — the trajectory is
        deterministic, so a fixed-round SQL unrolling is
        bit-equivalent. ``seeds`` = (sorted ids, labels int64)."""
        import ray

        sref = ray.put((np.asarray(seeds[0], dtype=np.int64),
                        np.asarray(seeds[1], dtype=np.int64)))
        n_seed, outs = self._seeded("label_spread: no seed vertex in graph",
                                    "lpa_seed_init", "lpa_messages", sref)
        info = self._lpa(outs, max_rounds)
        ids_out, labels = self._collect(np.int64) if collect \
            else (None, None)
        return ids_out, labels, {**info, "seeds_found": n_seed}

    def kcore(self, max_rounds: int = 1000):
        """Core numbers via the distributed H-index fixpoint: start at
        the undirected degree, repeatedly replace each vertex's value by
        the H-index of its neighbors' values — converges exactly to the
        k-core decomposition. Supply SYMMETRIZED, DEDUPED, weight-1
        edges. Returns (vertex_ids, core_numbers, info)."""
        _, outs = self._start("kcore_init", "kcore_messages")
        it, stable, trace = self._until_stable(
            outs, [_Phase("kcore_apply", "kcore_messages")], max_rounds)
        ids, cores = self._collect(np.int64)
        return ids, cores, {"rounds": it, "stable": stable, **trace}

    def maximal_matching(self, max_rounds: int = 200,
                         collect: bool = True):
        """Deterministic maximal matching by synchronous handshake
        rounds: every unmatched vertex proposes to the unmatched
        neighbor with the smallest round-salted hash priority
        splitmix64(nbr * K + round); mutual proposals match. Each
        round is two pre-combined exchanges. The globally min-priority
        vertex with an unmatched neighbor always matches, so a
        no-progress round proves maximality; the per-round re-salt
        gives O(log n) expected rounds, and the whole trajectory is
        deterministic and SQL-mirrorable round for round. Returns
        (vertex_ids, partner int64 with -1 = unmatched, info)."""
        _, outs = self._start("undecided_init", "match_unmatched_messages")
        it, stable, trace = self._until_stable(outs, [
            _Phase("match_set_proposals", "match_propose_messages"),
            _Phase("match_resolve", "match_unmatched_messages")],
            max_rounds)
        ids, partner = self._collect(np.int64) if collect \
            else (None, None)
        return ids, partner, {"rounds": it, "stable": stable, **trace}

    def maximal_independent_set(self, max_rounds: int = 200,
                                collect: bool = True):
        """Luby's maximal independent set with deterministic hashed
        priorities: each round, every undecided vertex whose
        round-salted (splitmix64 priority, id) beats all undecided
        neighbors joins the set; its neighbors drop out. Two
        pre-combined exchanges per round, O(log n) expected rounds,
        fully deterministic -> SQL-mirrorable. Returns (vertex_ids,
        membership 1/0, info)."""
        _, outs = self._start("undecided_init", "match_unmatched_messages")
        it, done, trace = self._until_stable(outs, [
            _Phase("mis_decide", "mis_notify_messages"),
            _Phase("mis_exclude", "match_unmatched_messages")], max_rounds)
        ids, member = self._collect(np.int64) if collect \
            else (None, None)
        return ids, member, {"rounds": it, "done": done, **trace}

    def greedy_coloring(self, max_rounds: int = 500,
                        collect: bool = True):
        """Jones-Plassmann distributed greedy coloring: static hashed
        priorities; each round every uncolored local-maximum vertex
        colors itself with the lowest color unused by its colored
        neighbors (the round's winners are independent, so picks never
        conflict). Two pre-combined exchanges per round; O(log n)
        expected rounds; deterministic -> SQL-mirrorable. Returns
        (vertex_ids, colors int64 >= 0, info)."""
        _, outs = self._start("color_init", "color_nbr_max_messages")
        it, done, trace = self._until_stable(outs, [
            _Phase("color_decide", "color_mask_messages"),
            _Phase("color_assign", "color_nbr_max_messages")], max_rounds)
        ids, colors = self._collect(np.int64) if collect \
            else (None, None)
        return ids, colors, {"rounds": it, "done": done, **trace}

    def eigenvector_centrality(self, tolerance: float = 1e-10,
                               max_iterations: int = 500,
                               collect: bool = True):
        """Principal-eigenvector centrality by distributed power
        iteration on (A + I) — the HITS hub==authority case once edges
        are symmetrized (supply symmetrize=True at build). Per round:
        one raw-weight SpMV exchange (same pre-combined per-partition
        masses and plasma-ref gating as PageRank) + one fused
        normalize-and-emit RPC; the driver only relays the scalar L2
        factor. Stops once the L1 change is below ``tolerance`` times
        the vertex count. Scores are L2-normalized, all non-negative.
        An empty graph is converged at once."""
        n = max(self.n_total, 1)
        _, outs = self._start("power_init", "weighted_messages",
                              1.0 / math.sqrt(n))
        it, converged, trace = self._until_stable(
            outs, [_Phase("eig_apply",
                          reduce=_l2_normalize(lambda f: self._all(
                              "eig_scale_emit", f, emits=True)))],
            max_iterations, tol=np.nextafter(tolerance * n, -np.inf),
            signal=np.inf if self.n_total else 0.0)
        ids, scores = self._collect(np.float64) if collect \
            else (None, None)
        return ids, scores, {"rounds": it, "converged": converged, **trace}

    # -- plumbing ------------------------------------------------------
    def _checkpoint(self, checkpoint_dir: str, iteration: int,
                    personalization_digest: str | None):
        from tldr_ray.state import write_manifest

        d = f"{checkpoint_dir}/iter={iteration}"
        counts = self._all("write_state", d)
        write_manifest(checkpoint_dir, {
            "iteration": iteration,
            "n_total": self.n_total,
            "num_partitions": self.P,
            "rows_per_part": counts,
            "n_edges": self.manifest.get("n_edges"),
            # restart-vector lineage: None for uniform PageRank, the
            # seed digest for personalized runs (resume digest-checks it)
            "personalization_digest": personalization_digest,
        })

    def _collect(self, dtype):
        parts = self._all("collect")
        ids = np.concatenate([p[0] for p in parts]) if parts else np.empty(0, np.int64)
        vals = np.concatenate([p[1] for p in parts]) if parts else np.empty(0, dtype)
        order = np.argsort(ids)
        return ids[order], vals[order]

    def to_dataset(self, value_name: str = "score"):
        """Current state as a Ray Dataset (vertex, <value_name>) built
        from one Arrow-table ObjectRef per partition, in partition
        order — the driver never holds the concatenated vertex state
        (unlike ``_collect``, which exists for small-result oracle
        parity)."""
        import ray.data as rd

        refs = []
        for h, host in enumerate(self.hosts):
            k = len(range(h, self.P, self.H))
            r = host.collect_tables.options(num_returns=k).remote(value_name)
            refs.append(r if k > 1 else [r])
        return rd.from_arrow_refs(self._by_part(refs))

    def shutdown(self):
        """Close the shard hosts and return the live ones to the
        session's pool (``_release_hosts``); the engine holds none
        after."""
        _release_hosts(self.hosts, self._session)
        self.hosts = []


# -- convenience one-shots ---------------------------------------------

def _run_once(edges, num_partitions, symmetrize, method, *args, **kwargs):
    """Build an engine over ``edges``, run one algorithm, shut down."""
    eng = GraphEngine.from_edges(edges, num_partitions, symmetrize)
    try:
        return getattr(eng, method)(*args, **kwargs)
    finally:
        eng.shutdown()


def pagerank(edges, num_partitions: int = 8, damping: float = 0.85,
             tolerance: float = 1e-4, max_iterations: int = 200, **ckpt):
    return _run_once(edges, num_partitions, False, "pagerank",
                     damping, tolerance, max_iterations, **ckpt)


def connected_components(edges, num_partitions: int = 8,
                         max_iterations: int = 200):
    return _run_once(edges, num_partitions, True,
                     "connected_components", max_iterations)


def sssp_distances(edges, seeds, num_partitions: int = 8,
                   max_rounds: int = 10_000, symmetrize: bool = False):
    """Weighted shortest-path distance from ``seeds`` over the DIRECTED
    edge set (pass symmetrize=True for undirected). Returns
    (vertex_ids, distances, info); unreached vertices carry +inf."""
    return _run_once(edges, num_partitions, symmetrize, "sssp",
                     seeds, max_rounds)


def temporal_reach_times(edges, seeds, num_partitions: int = 8,
                         max_rounds: int = 10_000):
    """Earliest time-respecting arrival from ``seeds`` over DIRECTED
    edges whose weight column carries the departure timestamp.
    Returns (vertex_ids, arrival float64, info); unreached +inf."""
    return _run_once(edges, num_partitions, False,
                     "temporal_reachability", seeds, max_rounds)


def widest_path_widths(edges, seeds, num_partitions: int = 8,
                       max_rounds: int = 10_000, symmetrize: bool = False):
    """Maximum-bottleneck (widest-path) width from ``seeds`` over the
    DIRECTED weighted edge set (symmetrize=True for undirected). A
    finite ``max_rounds`` yields the exact <=max_rounds-hop bounded
    widest path. Returns (vertex_ids, widths float64, info); seeds
    carry +inf, unreached -inf."""
    return _run_once(edges, num_partitions, symmetrize,
                     "widest_path", seeds, max_rounds)


def bfs_hops(edges, seeds, num_partitions: int = 8,
             max_rounds: int = 10_000):
    """Undirected hop distance from ``seeds`` (edges are symmetrized
    like connected_components). Returns (vertex_ids, distances, info);
    unreached vertices carry INT64_MAX."""
    return _run_once(edges, num_partitions, True, "bfs", seeds,
                     max_rounds)


def betweenness_sampled(edges, seeds, num_partitions: int = 8,
                        max_rounds: int = 10_000):
    """Sampled Brandes betweenness over the undirected simple graph
    underlying ``edges`` (symmetrized like connected_components).
    Returns (vertex_ids, dependency scores, info)."""
    return _run_once(edges, num_partitions, True,
                     "betweenness_sampled", seeds, max_rounds)


def label_propagation(edges, num_partitions: int = 8, max_rounds: int = 20):
    return _run_once(edges, num_partitions, True,
                     "label_propagation", max_rounds)


def k_core(edges, num_partitions: int = 8, max_rounds: int = 1000):
    """Core numbers of the undirected simple graph underlying ``edges``:
    self-loops dropped, duplicate/reversed edges collapsed (per-batch
    pre-combiner + one global pair dedup), then the engine's H-index
    fixpoint."""
    def undirect(batch: pa.Table) -> pa.Table:
        s = np.asarray(batch["src"], dtype=np.int64)
        d = np.asarray(batch["dst"], dtype=np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        lo, hi = np.minimum(s, d), np.maximum(s, d)
        u = np.unique(np.stack([lo, hi], axis=1), axis=0)
        return pa.table({"a": pa.array(u[:, 0]), "b": pa.array(u[:, 1])})

    def both_dirs(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch["a"], dtype=np.int64)
        b = np.asarray(batch["b"], dtype=np.int64)
        return pa.table(
            {
                "src": pa.array(np.concatenate([a, b])),
                "dst": pa.array(np.concatenate([b, a])),
                "weight": pa.array(np.ones(2 * a.size)),
            }
        )

    simple = (
        edges.map_batches(undirect, batch_format="pyarrow")
        .groupby(["a", "b"]).count().select_columns(["a", "b"])
        .map_batches(both_dirs, batch_format="pyarrow")
    )
    return _run_once(simple, num_partitions, False, "kcore",
                     max_rounds)


def eigenvector_centrality(edges, num_partitions: int = 8,
                           max_iterations: int = 500,
                           tolerance: float = 1e-10):
    """Eigenvector centrality of the symmetrized weighted graph via
    distributed shifted power iteration. Returns
    (vertex_ids, scores, info); scores are the L2-normalized principal
    eigenvector of (A + I) — same ranking as A's for connected
    non-negative graphs, convergent on bipartite ones."""
    return _run_once(edges, num_partitions, True,
                     "eigenvector_centrality", tolerance, max_iterations)


def hits(edges, num_partitions: int = 8, max_iterations: int = 200,
         tolerance: float = 1e-10):
    """HITS hubs & authorities over the DIRECTED edge set by
    distributed alternating power iteration (Kleinberg 1999):
    a = normalize(A^T h), h = normalize(A a) — the principal right /
    left singular vectors of the weighted adjacency.

    Plan: TWO shard pools over the same vhash(vertex) % P partitioning
    — one on the edges as-is (its SpMV lands h-mass on in-edges:
    computes a), one on the reversed edges (computes h). Because the
    partition function and the endpoint sets coincide, same-index
    partitions own IDENTICAL sorted vertex arrays, so the per-iteration
    state handoff is P plasma refs moving host-to-host — the driver
    relays refs and scalars only. One round of the forward pool's loop
    is two phases, one per pool. No +I shift needed: A^T A is PSD,
    the alternation cannot oscillate. Stops once the hubs' L1 change
    is below ``tolerance`` times the vertex count; an empty graph is
    converged at once.

    Returns (vertex_ids, hubs, authorities, info); both vectors
    L2-normalized, non-negative."""
    def rev(batch: pa.Table) -> pa.Table:
        return pa.table({"src": batch["dst"], "dst": batch["src"],
                         "weight": batch["weight"]})

    def half(pool, twin):
        """Phase on ``pool``: state = normalize(A^T state), handed to
        ``twin``'s same-index partitions, which emit from it and report
        their L1 change."""
        return _Phase("hits_apply", pool=pool, reduce=_l2_normalize(
            lambda f: twin._all("take_state", emits=True, each=pool._all(
                "scale_and_state_ref", f))))

    eng_f = GraphEngine.from_edges(edges, num_partitions)
    eng_r = GraphEngine.from_edges(
        edges.map_batches(rev, batch_format="pyarrow"), num_partitions)
    try:
        n = max(eng_f.n_total, 1)
        to_auth, to_hubs = half(eng_f, eng_r), half(eng_r, eng_f)
        eng_r._all("power_init", 1.0 / math.sqrt(n))
        _, outs = eng_f._start("power_init", "weighted_messages",
                               1.0 / math.sqrt(n))
        it, converged, trace = eng_f._until_stable(
            outs, [to_auth, to_hubs], max_iterations,
            tol=np.nextafter(tolerance * n, -np.inf),
            signal=np.inf if eng_f.n_total else 0.0)
        # both pools hold h at loop exit (eng_r computed it, eng_f
        # received it) — collect hubs, then ONE extra half-step on
        # eng_f re-derives the authorities from the final hubs
        ids, hubs = eng_f._collect(np.float64)
        eng_f._until_stable(eng_f._start(None, "weighted_messages")[1],
                            [to_auth], 1)
        _, auth = eng_f._collect(np.float64)
        return ids, hubs, auth, {"rounds": it, "converged": converged, **trace}
    finally:
        eng_f.shutdown()
        eng_r.shutdown()


def label_spread(edges, seeds, num_partitions: int = 8,
                 max_rounds: int = 10):
    """Seed-clamped label spreading over the symmetrized edge set —
    the semi-supervised node-classification op. Returns
    (vertex_ids, labels int64 with -1 = never reached, info)."""
    return _run_once(edges, num_partitions, True, "label_spread",
                     seeds, max_rounds)


def maximal_matching(edges, num_partitions: int = 8,
                     max_rounds: int = 200):
    """Deterministic distributed maximal matching over the symmetrized
    simple graph. Returns (vertex_ids, partner, info); partner = -1
    for unmatched vertices."""
    return _run_once(edges, num_partitions, True,
                     "maximal_matching", max_rounds)


def maximal_independent_set(edges, num_partitions: int = 8,
                            max_rounds: int = 200):
    """Luby MIS over the symmetrized simple graph. Returns
    (vertex_ids, membership 1/0, info)."""
    return _run_once(edges, num_partitions, True,
                     "maximal_independent_set", max_rounds)


def greedy_coloring(edges, num_partitions: int = 8,
                    max_rounds: int = 500):
    """Jones-Plassmann coloring of the symmetrized simple graph.
    Returns (vertex_ids, colors, info); adjacent vertices always get
    distinct colors, color count <= maxdegree + 1."""
    return _run_once(edges, num_partitions, True,
                     "greedy_coloring", max_rounds)
