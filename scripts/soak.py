"""10x-corpus streaming soak (round-3 verdict item 8): run the headline
transcripts -> edges -> distributed PageRank build at ~200 K
conversations (~165 M edges) in the streaming config while sampling
peak plasma (/dev/shm) usage and driver RSS — the memory-flat evidence
behind every "100-TB-safe" grade in BASELINE.md.

  RAY_GRAFT_SOAK_CONVS=200000 python scripts/soak.py

Prints ONE JSON line. Owns its Ray session (CLI entry point).
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _shm_used() -> int:
    st = os.statvfs("/dev/shm")
    return (st.f_blocks - st.f_bfree) * st.f_frsize


def _self_rss() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGESIZE")


class PeakSampler(threading.Thread):
    def __init__(self, interval: float = 0.5):
        super().__init__(daemon=True)
        self.interval = interval
        self.base_shm = _shm_used()
        self.peak_shm = 0
        self.peak_rss = 0
        self._halt = threading.Event()

    def run(self):
        while not self._halt.is_set():
            self.peak_shm = max(self.peak_shm, _shm_used() - self.base_shm)
            self.peak_rss = max(self.peak_rss, _self_rss())
            time.sleep(self.interval)

    def stop(self):
        self._halt.set()


def main():
    import numpy as np
    import ray

    n_convs = int(os.environ.get("RAY_GRAFT_SOAK_CONVS", "200000"))
    ncpu = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    nparts = int(os.environ.get("RAY_GRAFT_PARTITIONS", str(ncpu)))
    seed = 42
    cache = f"/tmp/tldr_ray/bench_transcripts_n{n_convs}_s{seed}"

    ray.init(address="local", num_cpus=ncpu, include_dashboard=False)
    from tldr_ray.graph import GraphEngine
    from tldr_ray.sources import read_table, write_transcripts
    from tldr_ray.stages.edges import transcript_graph

    t0 = time.time()
    if not os.path.exists(f"{cache}/_SUCCESS"):
        os.makedirs(cache, exist_ok=True)
        write_transcripts(cache, n_convs, seed, parallelism=max(ncpu, 8))
        open(f"{cache}/_SUCCESS", "w").close()
    synth_sec = round(time.time() - t0, 1)

    sampler = PeakSampler()
    sampler.start()

    t0 = time.time()
    edges = transcript_graph(read_table(cache)).select_columns(
        ["src", "dst", "weight"])
    eng = GraphEngine.from_edges(edges, nparts)
    build_sec = round(time.time() - t0, 1)

    t0 = time.time()
    ids, scores, info = eng.pagerank()
    pr_sec = round(time.time() - t0, 1)
    n_edges = eng.manifest["n_edges"]
    n_vertices = eng.n_total
    eng.shutdown()
    sampler.stop()
    sampler.join(timeout=2)

    print(json.dumps({
        "metric": "soak_10x_headline",
        "n_convs": n_convs,
        "num_cpus": ncpu,
        "partitions": nparts,
        "synth_sec": synth_sec,
        "build_sec": build_sec,
        "pagerank_sec": pr_sec,
        "pagerank_iterations": info["iterations"],
        "pagerank_converged": info["converged"],
        "n_edges": int(n_edges),
        "n_vertices": int(n_vertices),
        "score_sum": float(np.sum(scores)),
        "peak_plasma_gib": round(sampler.peak_shm / 2**30, 2),
        "peak_driver_rss_gib": round(sampler.peak_rss / 2**30, 2),
        "edges_built_per_sec": int(n_edges / build_sec),
        "edges_processed_per_sec": int(
            n_edges * info["iterations"] / pr_sec) if pr_sec else 0,
    }))
    ray.shutdown()


if __name__ == "__main__":
    main()
