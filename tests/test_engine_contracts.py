"""GraphEngine contracts: bit-exact outputs and round counts at every
shard host count, one superstep loop, LPA against a sequential
reference, empty graphs, no temp state, one host process per CPU and
one pool of them per Ray session.

The digests below pin every engine algorithm bit-for-bit on one seeded
random weighted graph at P=3, next to the number of rounds it runs. The
other engine tests compare floats with allclose, so without these a
change in summation order would pass unnoticed. A digest changes only
when an algorithm's output does; the number of shard hosts carrying
the three partitions must never change one.
"""

import ast
import contextlib
import glob
import hashlib
import inspect

import numpy as np
import pyarrow as pa
import pytest

P = 3


def _graph():
    """Simple undirected random graph (no self-loops, no duplicate
    pairs) with sparse non-negative ids, given one random direction per
    edge, and weights from {0.25, 0.5, 0.75, 1.0} so that label votes
    tie and the tie-breaks are pinned too."""
    rng = np.random.default_rng(20261017)
    ids = np.sort(rng.choice(10**9, size=120, replace=False))
    a = rng.integers(0, ids.size, 260)
    b = rng.integers(0, ids.size, 260)
    keep = a != b
    pairs = np.unique(np.stack([np.minimum(a, b), np.maximum(a, b)],
                               axis=1)[keep], axis=0)
    flip = rng.random(len(pairs)) < 0.5
    src = np.where(flip, pairs[:, 1], pairs[:, 0])
    dst = np.where(flip, pairs[:, 0], pairs[:, 1])
    w = rng.integers(1, 5, len(pairs)) / 4.0
    return ids, ids[src], ids[dst], w


def _edge_ds(src, dst, w):
    import ray.data as rd

    return rd.from_arrow(pa.table({"src": pa.array(src, pa.int64()),
                                   "dst": pa.array(dst, pa.int64()),
                                   "weight": pa.array(w, pa.float64())}))


def _digest(*arrays):
    h = hashlib.blake2b(digest_size=12)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _rounds(info):
    """The round count of a run: PageRank and CC call it iterations."""
    return info["iterations"] if "iterations" in info else info["rounds"]


def _run_all():
    from tldr_ray.graph import GraphEngine

    ids, src, dst, w = _graph()
    seeds = [int(ids[0]), int(ids[7])]
    out = {}
    eng = GraphEngine.from_edges(_edge_ds(src, dst, w), P)
    try:
        runs = {
            "pagerank": lambda: eng.pagerank(tolerance=1e-12),
            "pagerank_personalized": lambda: eng.pagerank(
                tolerance=1e-12,
                personalization=(ids[:3], np.array([1.0, 2.0, 3.0]))),
            "sssp": lambda: eng.sssp(seeds),
            "temporal_reachability": lambda: eng.temporal_reachability(
                seeds),
            "widest_path": lambda: eng.widest_path(seeds),
        }
        for name, run in runs.items():
            got_ids, vals, info = run()
            out[name] = (_digest(got_ids, vals), _rounds(info))
    finally:
        eng.shutdown()
    eng = GraphEngine.from_edges(_edge_ds(src, dst, w), P,
                                 symmetrize=True)
    try:
        runs = {
            "connected_components": lambda: eng.connected_components(),
            "bfs": lambda: eng.bfs(seeds),
            "betweenness_sampled": lambda: eng.betweenness_sampled(
                [int(ids[0]), int(ids[3]), int(ids[50])]),
            "label_propagation": lambda: eng.label_propagation(),
            "label_spread": lambda: eng.label_spread(
                (ids[[2, 40, 80, 110]], np.array([0, 1, 2, 1]))),
            "kcore": lambda: eng.kcore(),
            "maximal_matching": lambda: eng.maximal_matching(),
            "maximal_independent_set": lambda: eng.maximal_independent_set(),
            "greedy_coloring": lambda: eng.greedy_coloring(),
            "eigenvector_centrality": lambda: eng.eigenvector_centrality(),
        }
        for name, run in runs.items():
            got_ids, vals, info = run()
            out[name] = (_digest(got_ids, vals), _rounds(info))
    finally:
        eng.shutdown()
    return out


# name -> (output digest, rounds run)
EXPECTED = {
    "pagerank": ("4f4c1a3e3c6aff5b5d7ccb0e", 70),
    "pagerank_personalized": ("649a45d472ba3d1f50046afe", 74),
    "sssp": ("c3affeb6d7b511a941e4bc37", 12),
    "temporal_reachability": ("1992b43b65b6ede8e10fd309", 7),
    "widest_path": ("5568d9d419e25a090c42630b", 11),
    "connected_components": ("efb2f2c5f3d3c69be8d9f579", 7),
    "bfs": ("df0d7829449e6297b67412f5", 6),
    "betweenness_sampled": ("d69302984ec1105dd1155a21", 35),
    "label_propagation": ("51d723d86afb96ec5649fb19", 20),
    "label_spread": ("4813b2a6e97741eddeac67e9", 8),
    "kcore": ("0e37d690d2c0401357ea9bf6", 7),
    "maximal_matching": ("88a9443705e2c7e48afd572e", 7),
    "maximal_independent_set": ("601080b0572100f75054507b", 2),
    "greedy_coloring": ("81f2c797193c65f86b4e7019", 8),
    "eigenvector_centrality": ("471fba24c8d09077c9dec063", 114),
}

EXPECTED_HITS = ("be3f6a4e2f4621188a8775c6", 200)


# (by_ref, forced host count): the unforced cases take the host count
# the engine derives, min(P, the session's 4 CPUs) = 3
HOST_CASES = [pytest.param(by_ref, hosts, id=f"{name}-H{hosts}"
                           if hosts else name)
              for hosts in (None, 1, 2, 3)
              for by_ref, name in ((False, "by-value"), (True, "by-ref"))]


@contextlib.contextmanager
def _messages(by_ref: bool, hosts, force_msg_refs, force_hosts):
    """Every message by value (the default gate) or as a plasma ref
    where it crosses hosts, with ``hosts`` shard hosts (None: the
    derived count)."""
    with force_msg_refs() if by_ref else contextlib.nullcontext(), \
            force_hosts(hosts) if hosts else contextlib.nullcontext():
        yield


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("by_ref,hosts", HOST_CASES)
def test_engine_outputs_bit_identical(by_ref, hosts, force_msg_refs,
                                      force_hosts):
    """By value and by ref, with the three partitions in one, two or
    three shard hosts: the same bits and the same rounds."""
    with _messages(by_ref, hosts, force_msg_refs, force_hosts):
        got = _run_all()
    assert got == EXPECTED


def _hits_result():
    from tldr_ray.graph import hits

    _, src, dst, w = _graph()
    ids, hubs, auth, info = hits(_edge_ds(src, dst, w), num_partitions=P)
    return _digest(ids, hubs, auth), info["rounds"]


@pytest.mark.usefixtures("ray_session")
def test_hits_bit_identical():
    assert _hits_result() == EXPECTED_HITS


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("by_ref,hosts", [c for c in HOST_CASES
                                          if c.values[1]])
def test_hits_bit_identical_across_hosts(by_ref, hosts, force_msg_refs,
                                         force_hosts):
    """HITS's two pools hand their state over partition by partition,
    so each pool's host count cannot change the bits either."""
    with _messages(by_ref, hosts, force_msg_refs, force_hosts):
        assert _hits_result() == EXPECTED_HITS


# -- one superstep loop --------------------------------------------------

def _exchange_callers(tree) -> set:
    """Names of the innermost functions that call ``_exchange``."""
    found = set()

    def visit(node, fn):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr == "_exchange":
            found.add(fn)
        for child in ast.iter_child_nodes(node):
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn)

    visit(tree, None)
    return found


def test_exchange_only_in_the_superstep_loop():
    """Every round of every algorithm runs in ``_until_stable``: the
    engine module calls ``_exchange`` there and in ``__init__`` (the
    one-time vocabulary exchange) only, and ``_until_stable`` holds its
    only ``while`` loop."""
    import tldr_ray.graph.engine as engine

    tree = ast.parse(inspect.getsource(engine))
    assert _exchange_callers(tree) == {"_until_stable", "__init__"}
    loops = {fn.name for fn in ast.walk(tree)
             if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn) if isinstance(node, ast.While)}
    assert loops == {"_until_stable"}


@pytest.mark.usefixtures("ray_session")
def test_one_exchange_per_round(monkeypatch):
    """A CC or an LPA round is one fused superstep: one ``_exchange``
    per round, and one ``_all`` (the start) per run, with no
    per-round emit call."""
    from tldr_ray.graph import GraphEngine

    _, src, dst, w = _graph()
    eng = GraphEngine.from_edges(_edge_ds(src, dst, w), P, symmetrize=True)
    calls = []
    for name in ("_exchange", "_all"):
        real = getattr(GraphEngine, name)

        def counted(self, *args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(self, *args, **kwargs)
        monkeypatch.setattr(GraphEngine, name, counted)
    try:
        for run, key in ((eng.connected_components, "iterations"),
                         (eng.label_propagation, "rounds")):
            calls.clear()
            _, _, info = run(collect=False)
            assert info[key] > 1
            assert calls.count("_exchange") == info[key]
            assert calls.count("_all") == 1
    finally:
        eng.shutdown()


class _RecordingPool:
    """Stands in for the engine in ``_until_stable``: records the
    (merge, emit, round) of every exchange and reports one changed
    vertex, or none once ``stable_from`` rounds have run."""

    def __init__(self, stable_from: int = 10**9):
        self.calls, self.stable_from = [], stable_from

    def _exchange(self, outs, merge, emit, r):
        self.calls.append((merge, emit, r))
        return [int(r + 1 < self.stable_from)], ["outbox"]


def test_cap_round_emits_no_unconsumed_outbox():
    """No round follows the round cap, so its last phase merges without
    emitting (an LPA stopped by its cap skipped one ``lpa_messages``
    no one read); earlier phases, phases with a ``reduce`` and runs
    that stop on their signal still emit."""
    from tldr_ray.graph.engine import GraphEngine, _Phase

    def run(phases, max_rounds, **pool):
        rec = _RecordingPool(**pool)
        GraphEngine._until_stable(rec, ["outbox"], phases, max_rounds)
        return rec.calls

    lpa = _Phase("lpa_apply", "lpa_messages")
    assert run([lpa], 3) == [("lpa_apply", "lpa_messages", 0),
                             ("lpa_apply", "lpa_messages", 1),
                             ("lpa_apply", None, 2)]
    assert run([lpa], 5, stable_from=2) == [
        ("lpa_apply", "lpa_messages", 0), ("lpa_apply", "lpa_messages", 1)]
    mis = [_Phase("mis_decide", "mis_notify_messages"),
           _Phase("mis_exclude", "match_unmatched_messages")]
    assert run(mis, 1) == [("mis_decide", "mis_notify_messages", 0),
                           ("mis_exclude", None, 0)]
    reduced = _Phase("eig_apply", "weighted_messages",
                     reduce=lambda res: res)
    assert run([reduced], 1) == [("eig_apply", "weighted_messages", 0)]


def test_trace_records_every_round_signal():
    """``_until_stable`` returns each round's wall seconds and summed
    stop signal, the round that met the tolerance included."""
    from tldr_ray.graph.engine import GraphEngine, _Phase

    rec = _RecordingPool(stable_from=3)
    it, stable, trace = GraphEngine._until_stable(
        rec, ["outbox"], [_Phase("lpa_apply", "lpa_messages")], 10)
    assert (it, stable, trace["signals"]) == (3, True, [1, 1, 0])
    assert len(trace["iter_secs"]) == 3


@pytest.mark.usefixtures("ray_session")
def test_lpa_on_one_edge_swaps_labels_every_round():
    """Synchronous LPA on the one undirected edge a-b: each end adopts
    the other's label, so both flip in every round and the run never
    settles. Round 2 repeats round 0, so the run stops there with the
    labels its cap would reach: each end's own id after an even number
    of rounds, the other's after an odd one."""
    from tldr_ray.graph import GraphEngine

    eng = GraphEngine.from_edges(_edge_ds([5], [9], [1.0]), 2,
                                 symmetrize=True)
    try:
        got = {cap: eng.label_propagation(max_rounds=cap)
               for cap in (5, 6)}
    finally:
        eng.shutdown()
    for cap, want in ((6, [(5, 5), (9, 9)]), (5, [(5, 9), (9, 5)])):
        ids, labels, info = got[cap]
        assert info["signals"] == [2, 2]
        assert (info["rounds"], info["stable"], info["period2"]) == \
            (2, False, True)
        assert len(info["iter_secs"]) == 2
        assert sorted(zip(ids.tolist(), labels.tolist())) == want


# -- LPA against a sequential reference ------------------------------------

def _lpa_reference(src, dst, w, rounds: int, seeds=None):
    """Synchronous weighted LPA over the undirected multigraph (src,
    dst, w), one vertex at a time: every vertex adopts the label with
    the largest summed weight among its neighbors' labels, the smallest
    on ties, and keeps its label if no neighbor votes. From own ids, or
    (label_spread) from ``seeds`` = (ids, labels): other vertices start
    at -1 and do not vote, seeds never change. Returns the sorted
    vertex ids and the labels after each of rounds 0..``rounds``."""
    verts = np.unique(np.concatenate([src, dst]))
    sender = np.searchsorted(verts, np.concatenate([src, dst]))
    receiver = np.searchsorted(verts, np.concatenate([dst, src]))
    ww = np.concatenate([w, w])
    if seeds is None:
        lab, clamp = verts.copy(), np.zeros(verts.size, dtype=bool)
    else:
        lab = np.full(verts.size, -1, dtype=np.int64)
        for v, label in zip(*seeds):
            at = np.flatnonzero(verts == v)
            lab[at] = label
        clamp = lab >= 0
    states = [lab]
    for _ in range(rounds):
        new = lab.copy()
        for v in np.flatnonzero(~clamp):
            votes = {}
            for e in np.flatnonzero(receiver == v):
                label = int(lab[sender[e]])
                if label >= 0:
                    votes[label] = votes.get(label, 0.0) + ww[e]
            if votes:
                top = max(votes.values())
                new[v] = min(k for k, s in votes.items() if s == top)
        lab = new
        states.append(lab)
    return verts, states


def _lpa_stop(states, cap: int):
    """(rounds, stable, period2) of an engine run capped at ``cap``:
    it stops at the first round whose labels equal the last round's
    (a fixpoint) or those of two rounds back (a period-2 repeat)."""
    for r in range(1, cap + 1):
        if np.array_equal(states[r], states[r - 1]):
            return r, True, False
        if r >= 2 and np.array_equal(states[r], states[r - 2]):
            return r, False, r < cap
    return cap, False, False


def _multigraph(seed: int):
    """60 sparse ids, 150 random edges: duplicates and self-loops
    included, weights from {0.25, 0.5, 0.75, 1.0}, so every vote sum
    is exact and ties are pinned."""
    rng = np.random.default_rng(seed)
    ids = np.sort(rng.choice(10**6, size=60, replace=False))
    a = rng.integers(0, ids.size, 150)
    b = rng.integers(0, ids.size, 150)
    return ids, ids[a], ids[b], rng.integers(1, 5, 150) / 4.0


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("num_partitions", [1, 3, 5])
def test_lpa_matches_sequential_reference(num_partitions):
    """label_propagation and label_spread at every cap from 1 to 25
    return the labels the sequential reference holds at the cap, and
    stop where the reference first repeats its last labels or those of
    two rounds back. The two graphs' runs end on period-2 repeats at
    both parities of the rounds left, on fixpoints and on the cap."""
    from tldr_ray.graph import GraphEngine

    kinds = set()
    for seed in (0, 1):
        ids, src, dst, w = _multigraph(seed)
        seeds = (ids[:3], np.array([0, 1, 0]))
        verts, own = _lpa_reference(src, dst, w, 25)
        _, spread = _lpa_reference(src, dst, w, 25, seeds)
        eng = GraphEngine.from_edges(_edge_ds(src, dst, w),
                                     num_partitions, symmetrize=True)
        try:
            for cap in range(1, 26):
                for states, run in (
                        (own, lambda: eng.label_propagation(cap)),
                        (spread, lambda: eng.label_spread(seeds, cap))):
                    got_ids, labels, info = run()
                    want = _lpa_stop(states, cap)
                    assert np.array_equal(got_ids, verts)
                    assert np.array_equal(labels, states[cap]), cap
                    assert (info["rounds"], info["stable"],
                            info["period2"]) == want, cap
                    kinds.add((want[1], want[2],
                               (cap - want[0]) % 2 if want[2] else None))
        finally:
            eng.shutdown()
    assert {(True, False, None), (False, True, 0), (False, True, 1),
            (False, False, None)} <= kinds


# -- one host process per CPU, one pool of them per Ray session ----------

def _live_hosts() -> set:
    import ray

    return {k for k, a in ray._private.state.actors().items()
            if a["ActorClassName"].endswith("ShardHost")
            and a["State"] == "ALIVE"}


def _host_ids(hosts) -> set:
    return {h._actor_id.hex() for h in hosts}


def _await_dead(ids: set):
    """Wait until none of the actors ``ids`` is alive."""
    import time

    deadline = time.monotonic() + 30
    while ids & _live_hosts():
        assert time.monotonic() < deadline, "killed hosts still alive"
        time.sleep(0.1)


@pytest.mark.usefixtures("ray_session")
def test_one_host_process_on_one_cpu(monkeypatch):
    """On a cluster of one CPU, a P=4 engine holds exactly one shard
    host actor, and at most one new host is counted among the cluster's
    live actors (none if the session's pool had an idle host); the
    partitions stay four."""
    import ray

    from tldr_ray.graph import GraphEngine

    _, src, dst, w = _graph()
    before = _live_hosts()
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 1.0})
    eng = GraphEngine.from_edges(_edge_ds(src, dst, w), 4)
    try:
        assert len(eng.hosts) == 1
        assert len(_live_hosts() - before) <= 1
        assert (eng.H, eng.P, len(eng.manifest["n_local"])) == (1, 4, 4)
        assert eng.n_total == sum(eng.manifest["n_local"])
        assert ray.get([h.n_local.remote() for h in eng.shards]) == \
            [eng.n_total]
    finally:
        eng.shutdown()


@pytest.mark.usefixtures("ray_session")
def test_second_engine_starts_no_host(force_msg_refs):
    """Engines after the first in a session lease the idle hosts of the
    ones shut down before them: no new live shard host appears, and
    every digest and round count is the same, by value and by ref."""
    assert _run_all() == EXPECTED
    before = _live_hosts()
    assert _run_all() == EXPECTED
    with force_msg_refs():
        assert _run_all() == EXPECTED
    assert _live_hosts() <= before


@pytest.mark.usefixtures("ray_session")
def test_killed_host_is_never_handed_out_again():
    """A host killed while leased is not returned to the pool, and one
    killed while idle is not leased again: the next builds replace
    them and give the same digests."""
    import ray

    import tldr_ray.graph.engine as engine
    from tldr_ray.graph import GraphEngine

    _, src, dst, w = _graph()
    eng = GraphEngine.from_edges(_edge_ds(src, dst, w), P)
    leased = eng.hosts[0]
    ray.kill(leased)
    _await_dead(_host_ids([leased]))
    eng.shutdown()
    idle = engine._POOL["idle"]
    assert idle and not _host_ids([leased]) & _host_ids(idle)
    victim = idle[-1]
    ray.kill(victim)
    _await_dead(_host_ids([victim]))
    assert _run_all() == EXPECTED
    dead = _host_ids([leased, victim])
    assert not dead & _host_ids(engine._POOL["idle"])
    assert not dead & _live_hosts()


@pytest.mark.usefixtures("ray_session")
def test_idle_hosts_never_exceed_the_cpus():
    """Three engines at once lease nine hosts on the session's four
    CPUs; after they shut down, four stay idle and the others are
    killed."""
    import ray

    import tldr_ray.graph.engine as engine
    from tldr_ray.graph import GraphEngine

    cpus = int(ray.cluster_resources()["CPU"])
    _, src, dst, w = _graph()
    engines = [GraphEngine.from_edges(_edge_ds(src, dst, w), P)
               for _ in range(3)]
    leased = [h for eng in engines for h in eng.hosts]
    assert len(_host_ids(leased)) == 3 * P > cpus
    for eng in engines:
        eng.shutdown()
    idle = _host_ids(engine._POOL["idle"])
    assert len(idle) == cpus
    _await_dead(_host_ids(leased) - idle)


def test_build_after_ray_restart(restart_ray):
    """A new Ray session never leases the old session's hosts: after
    ``ray.shutdown()`` and ``ray.init()`` the engines build on new ones
    and give the same digests."""
    from tldr_ray.graph import GraphEngine

    _, src, dst, w = _graph()
    GraphEngine.from_edges(_edge_ds(src, dst, w), P).shutdown()
    restart_ray()
    assert _run_all() == EXPECTED


# -- empty graphs --------------------------------------------------------

EMPTY_RUNS = {
    "pagerank": lambda e: e.pagerank(),
    "connected_components": lambda e: e.connected_components(),
    "bfs": lambda e: e.bfs([1]),
    "betweenness_sampled": lambda e: e.betweenness_sampled([1]),
    "sssp": lambda e: e.sssp([1]),
    "temporal_reachability": lambda e: e.temporal_reachability([1]),
    "widest_path": lambda e: e.widest_path([1]),
    "label_propagation": lambda e: e.label_propagation(),
    "label_spread": lambda e: e.label_spread(([1], [0])),
    "kcore": lambda e: e.kcore(),
    "maximal_matching": lambda e: e.maximal_matching(),
    "maximal_independent_set": lambda e: e.maximal_independent_set(),
    "greedy_coloring": lambda e: e.greedy_coloring(),
    "eigenvector_centrality": lambda e: e.eigenvector_centrality(),
}


def _empty_ds():
    return _edge_ds(np.zeros(0, np.int64), np.zeros(0, np.int64),
                    np.zeros(0))


@pytest.fixture(scope="module")
def empty_engines(ray_session):
    """One engine per public constructor name: ``from_edges_streaming``
    is an alias that external callers still use."""
    from tldr_ray.graph import GraphEngine

    engines = {
        "from_edges": GraphEngine.from_edges(_empty_ds(), P),
        "from_edges_streaming": GraphEngine.from_edges_streaming(
            _empty_ds(), P),
    }
    yield engines
    for eng in engines.values():
        eng.shutdown()


@pytest.mark.parametrize("build", ["from_edges", "from_edges_streaming"])
@pytest.mark.parametrize("name", sorted(EMPTY_RUNS))
def test_empty_graph_contract(empty_engines, build, name):
    """Every algorithm on a zero-row edge table: no exception, no rows,
    and its converged/stable/done flag (betweenness has none) set."""
    ids, vals, info = EMPTY_RUNS[name](empty_engines[build])
    assert len(ids) == 0 and len(vals) == 0
    flags = [info[k] for k in ("converged", "stable", "done") if k in info]
    assert flags or name == "betweenness_sampled"
    assert all(flags)


@pytest.mark.usefixtures("ray_session")
def test_hits_empty_graph_converged():
    from tldr_ray.graph import hits

    ids, hubs, auth, info = hits(_empty_ds(), num_partitions=P)
    assert len(ids) == len(hubs) == len(auth) == 0
    assert info["converged"]


# -- temporary state -----------------------------------------------------

@pytest.mark.usefixtures("ray_session")
def test_build_and_run_leave_nothing_in_tmp():
    """The build pushes edges straight into the shard hosts, so a
    build, a run and a shutdown create nothing under /tmp/tldr_ray."""
    from tldr_ray.graph import GraphEngine

    _, src, dst, w = _graph()
    before = set(glob.glob("/tmp/tldr_ray/**", recursive=True))
    eng = GraphEngine.from_edges(_edge_ds(src, dst, w), P)
    eng.pagerank()
    eng.shutdown()
    assert set(glob.glob("/tmp/tldr_ray/**", recursive=True)) == before
