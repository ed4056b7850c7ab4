"""The packed-key triple emits and the LPA merge against a frozen copy
of the lexsort versions they replaced.

``CsrPartition.lpa_messages``, ``lpa_apply`` and ``kcore_messages``
group their (destination, value) pairs with one ``_key_runs`` sort per
partition. The functions under "frozen oracle" below are the per-
destination ``np.lexsort`` code they replaced, copied verbatim; every
array, every dtype and every merged state must come out the same bits.
The partitions are built in-process (no Ray), so these checks cover
many graphs quickly.
"""

import numpy as np
import pytest

from tldr_ray.graph.engine import CsrPartition, _key_runs
from tldr_ray.hashing import part_key


# -- frozen oracle (the lexsort versions, verbatim) -----------------------

def _runs(cols, sort_keys, nkeys: int):
    order = np.lexsort(sort_keys)
    cols = [c[order] for c in cols]
    new = np.zeros(cols[0].size, dtype=bool)
    new[:1] = True
    for c in cols[:nkeys]:
        new[1:] |= c[1:] != c[:-1]
    return cols, np.flatnonzero(new)


def _sum_runs(pos, key, w):
    (pos, key, w), st = _runs((pos, key, w), (key, pos), 2)
    return pos[st], key[st], np.add.reduceat(w, st)


def oracle_lpa_messages(self):
    lab = self.state[self.e_src_local]
    voting = None if self._clamp is None else lab >= 0
    out = []
    for q, sl in enumerate(self.q_slices):
        cols = (self.dlocals[q], lab[sl], self.e_weight_sorted[sl])
        if voting is not None:
            cols = [c[voting[sl]] for c in cols]
        out.append(_sum_runs(*cols))
    return out


def oracle_lpa_apply(self, trips) -> int:
    pos, lab, w = _sum_runs(*self._inbox_rows(trips))
    (pos, lab), st = _runs((pos, lab), (lab, -w, pos), 1)
    tgt, val = pos[st], lab[st]
    if self._clamp is not None:
        free = ~self._clamp[tgt]
        tgt, val = tgt[free], val[free]
    new = self.state.copy()
    new[tgt] = val
    return self._settle(new)


def oracle_kcore_messages(self):
    val = self.state[self.e_src_local]
    ones = np.ones(val.size, dtype=np.int64)
    return [_sum_runs(self.dlocals[q], val[sl], ones[sl])
            for q, sl in enumerate(self.q_slices)]


# -- in-process partitions ------------------------------------------------

def _partitions(src, dst, w, P):
    """The P partitions ``GraphEngine.from_edges`` would build from one
    block (src, dst, w), with their incoming vocabularies registered."""
    parts = [CsrPartition(p, P) for p in range(P)]
    sp, vs = part_key(src, P), np.unique(np.concatenate([src, dst]))
    vp = part_key(vs, P)
    for p, part in enumerate(parts):
        m = sp == p
        part.ingest(b"k", src[m], dst[m], w[m], vs[vp == p])
        part.finalize()
    for q, part in enumerate(parts):
        part.register_incoming([s.dvocabs[q] for s in parts])
    return parts


def _same(a, b):
    """Bit-for-bit equality of two nested lists/tuples of arrays."""
    if isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b)
        for x, y in zip(a, b):
            _same(x, y)
    else:
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _rounds(parts, n_rounds):
    """Run ``n_rounds`` LPA rounds with both emits and both merges,
    comparing every outbox and every merged state, and continue from
    the merged state."""
    for _ in range(n_rounds):
        outs = [p.lpa_messages() for p in parts]
        _same(outs, [oracle_lpa_messages(p) for p in parts])
        for q, part in enumerate(parts):
            inbox = [o[q] for o in outs]
            before = part.state
            changed_old = oracle_lpa_apply(part, inbox)
            old = part.state
            part.state = before
            assert part.lpa_apply(inbox) == changed_old
            _same(part.state, old)


def _multigraph(rng, n_verts, n_edges, dup=0):
    """Random directed multigraph over sparse ids with weights that tie
    (quarters) and weights that round (tenths); ``dup`` extra copies of
    one edge set make runs longer than 8 rows per (dst, label)."""
    ids = np.sort(rng.choice(10**12, size=n_verts, replace=False))
    a = rng.integers(0, n_verts, n_edges)
    b = rng.integers(0, n_verts, n_edges)
    w = np.where(rng.random(n_edges) < 0.5,
                 rng.integers(1, 5, n_edges) / 4.0,
                 rng.integers(1, 30, n_edges) / 10.0)
    if dup:
        k = max(1, n_edges // 20)
        a = np.concatenate([a] + [a[:k]] * dup)
        b = np.concatenate([b] + [b[:k]] * dup)
        w = np.concatenate([w] + [rng.random(k) for _ in range(dup)])
    return ids, ids[a], ids[b], w


def _undirected(src, dst, w):
    return (np.concatenate([src, dst]), np.concatenate([dst, src]),
            np.concatenate([w, w]))


@pytest.mark.parametrize("P", [1, 3, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lpa_matches_lexsort_oracle(P, seed):
    """Label propagation from own ids, then from a few shared labels
    (long runs, many ties), on a multigraph with duplicate edges."""
    rng = np.random.default_rng(seed)
    _, src, dst, w = _multigraph(rng, 60, 400, dup=12)
    parts = _partitions(*_undirected(src, dst, w), P)
    for part in parts:
        part.label_init()
    _rounds(parts, 4)
    for part in parts:
        part.state = rng.choice(np.array([3, 7, 10**11]),
                                part.verts.size).astype(np.int64)
    _rounds(parts, 3)


def test_runs_past_eight_rows_take_the_pairwise_path():
    """One destination hears one label from 40 parallel edges with
    inexact weights: a single run of 40 rows, which ``reduceat`` adds
    pairwise; the two emits must agree on its bits."""
    src = np.full(40, 11, dtype=np.int64)
    dst = np.full(40, 22, dtype=np.int64)
    w = np.random.default_rng(3).random(40)
    parts = _partitions(*_undirected(src, dst, w), 3)
    for part in parts:
        part.label_init()
    out = [p.lpa_messages() for p in parts]
    assert max(t[2].size for o in out for t in o) == 1
    _same(out, [oracle_lpa_messages(p) for p in parts])
    _rounds(parts, 2)


@pytest.mark.parametrize("P", [1, 3, 5])
def test_label_spread_non_voters_and_clamp(P):
    """label_spread: -1 vertices do not vote and clamped seeds never
    change, in both versions."""
    rng = np.random.default_rng(7)
    ids, src, dst, w = _multigraph(rng, 50, 150, dup=9)
    parts = _partitions(*_undirected(src, dst, w), P)
    seeds = np.sort(ids[[1, 9, 20, 33]])
    for part in parts:
        part.lpa_seed_init((seeds, np.array([0, 1, 2, 1])))
    assert sum(int(p._clamp.sum()) for p in parts) == 4
    _rounds(parts, 5)
    clamped = [p.state[p._clamp] for p in parts]
    _rounds(parts, 1)
    for part, c in zip(parts, clamped):
        _same(part.state[part._clamp], c)


def test_partition_with_no_edges():
    """Directed edges whose sources avoid partition 0: it holds
    vertices (destinations) but no edges, emits empty triples of the
    old dtypes and still merges what it receives."""
    P = 5
    rng = np.random.default_rng(11)
    _, src, dst, w = _multigraph(rng, 80, 300, dup=10)
    keep = part_key(src, P) != 0
    parts = _partitions(src[keep], dst[keep], w[keep], P)
    assert parts[0].e_src_local.size == 0 and parts[0].verts.size > 0
    for part in parts:
        part.label_init()
    _rounds(parts, 3)
    for t in parts[0].lpa_messages():
        assert all(a.size == 0 for a in t)


@pytest.mark.parametrize("P", [1, 3, 5])
def test_kcore_messages_match_lexsort_oracle(P):
    """kcore_messages: (dst_local, value, count) per distinct
    (destination, neighbor value), counts int64."""
    rng = np.random.default_rng(5)
    _, src, dst, w = _multigraph(rng, 70, 250)
    parts = _partitions(*_undirected(src, dst, np.ones_like(w)), P)
    for part in parts:
        part.kcore_init()
    _same([p.kcore_messages() for p in parts],
          [oracle_kcore_messages(p) for p in parts])
    for part in parts:
        part.state = rng.integers(0, 4, part.verts.size).astype(np.int64)
    _same([p.kcore_messages() for p in parts],
          [oracle_kcore_messages(p) for p in parts])


def test_key_runs_wide_keys_fall_back_to_a_stable_argsort():
    """Keys too wide to share 63 bits with a row number take the stable
    argsort path and group exactly as the same keys shifted down do
    on the packed path."""
    rng = np.random.default_rng(13)
    small = rng.integers(0, 50, 1000).astype(np.int64)
    wide = small + (np.int64(1) << 61)
    order_s, st_s, skey_s = _key_runs(small)
    order_w, st_w, skey_w = _key_runs(wide)
    _same(order_w, np.argsort(wide, kind="stable"))
    _same(order_s, order_w)
    _same(st_s, st_w)
    _same(skey_w - (np.int64(1) << 61), skey_s)
    assert np.all(np.diff(skey_s) >= 0)
    assert st_s.size == np.unique(small).size
    for n in (0, 1):
        order, st, skey = _key_runs(wide[:n])
        assert order.size == skey.size == n and st.size == n
