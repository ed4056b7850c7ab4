"""Link-graph analytics job entry point (``ray job submit`` compatible).

    ray job submit -- python scripts/run_graph.py \
        --transcripts /data/transcripts --algorithm pagerank \
        --partitions 64 --out /data/out/ranks \
        --checkpoint-dir /data/ckpt --checkpoint-every 5 [--resume]

Reads a transcript Parquet directory, materializes the similarity +
tool-co-occurrence edge table, runs the chosen iterative algorithm on
the CSR partitions in their shard host actors, and writes (vertex,
value) partitioned Parquet plus a metrics JSON (iterations,
convergence, edge counts, wall times) for lineage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--transcripts", required=True,
                   help="Parquet file/dir with conv_id,turn_idx,role,text,tool,ts")
    p.add_argument("--algorithm", default="pagerank",
                   choices=["pagerank", "components", "labelprop",
                            "triangles", "kcore", "betweenness"])
    p.add_argument("--pivots", default="",
                   help="comma-separated pivot vertex ids for "
                        "--algorithm betweenness (default: 4 sampled)")
    p.add_argument("--partitions", type=int, default=16)
    p.add_argument("--out", required=True)
    p.add_argument("--damping", type=float, default=0.85)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--max-iterations", type=int, default=200)
    p.add_argument("--checkpoint-dir", default=None)
    p.add_argument("--checkpoint-every", type=int, default=0)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--warm-start", default=None, metavar="DIR",
                   help="previous pagerank output dir (vertex,score "
                        "parquet): seed the rank state from it — the "
                        "graph-delta fast path (mutually exclusive "
                        "with --resume)")
    p.add_argument("--presplit-words", type=int, default=0)
    p.add_argument("--num-cpus", type=int, default=0,
                   help="only used when no Ray cluster is reachable")
    args = p.parse_args()

    if not os.path.exists(args.transcripts):
        print(f"error: --transcripts path not found: {args.transcripts}",
              file=sys.stderr)
        sys.exit(2)

    import ray

    if not ray.is_initialized():
        kw = {"include_dashboard": False, "ignore_reinit_error": True}
        if args.num_cpus:
            kw.update(address="local", num_cpus=args.num_cpus)
        ray.init(**kw)

    import ray.data as rd
    import pyarrow as pa

    from tldr_ray.graph import GraphEngine, triangle_counts
    from tldr_ray.stages.edges import transcript_graph

    metrics: dict = {"algorithm": args.algorithm,
                     "transcripts": args.transcripts}
    t0 = time.time()
    edges = transcript_graph(
        rd.read_parquet(args.transcripts),
        presplit_words=args.presplit_words or None,
    ).select_columns(["src", "dst", "weight"])

    if args.algorithm == "triangles":
        total, per_vertex = triangle_counts(edges)
        per_vertex.write_parquet(args.out)
        metrics.update(total_triangles=total,
                       wall_sec=round(time.time() - t0, 2))
    elif args.algorithm == "kcore":
        from tldr_ray.graph import k_core

        ids, vals, info = k_core(edges, args.partitions,
                                 max_rounds=args.max_iterations)
        rd.from_arrow(pa.table({"vertex": pa.array(ids),
                                "core": pa.array(vals)})) \
            .write_parquet(args.out)
        metrics.update(info)
        metrics["wall_sec"] = round(time.time() - t0, 2)
    else:
        symmetrize = args.algorithm in ("components", "labelprop",
                                        "betweenness")
        eng = GraphEngine.from_edges(edges, args.partitions,
                                     symmetrize=symmetrize)
        metrics["build_sec"] = round(time.time() - t0, 2)
        metrics["n_edges"] = eng.manifest["n_edges"]
        metrics["n_vertices"] = eng.n_total
        t0 = time.time()
        try:
            # collect=False: results stay sharded; the write consumes
            # per-shard Arrow refs (no O(V) arrays in this process)
            if args.algorithm == "pagerank":
                warm = None
                if args.warm_start:
                    import pyarrow.dataset as pads

                    prev = pads.dataset(
                        args.warm_start, format="parquet",
                        exclude_invalid_files=True).to_table(
                            columns=["vertex", "score"])
                    warm = (prev["vertex"].to_numpy(),
                            prev["score"].to_numpy())
                _, _, info = eng.pagerank(
                    args.damping, args.tolerance, args.max_iterations,
                    checkpoint_every=args.checkpoint_every,
                    checkpoint_dir=args.checkpoint_dir, resume=args.resume,
                    warm_start=warm, collect=False)
                value_name = "score"
            elif args.algorithm == "components":
                _, _, info = eng.connected_components(args.max_iterations,
                                                      collect=False)
                value_name = "component"
            elif args.algorithm == "betweenness":
                if args.pivots:
                    pivots = [int(x) for x in args.pivots.split(",")]
                else:
                    pivots = ray.get(
                        eng.shards[0].sample_verts.remote(4))
                _, _, info = eng.betweenness_sampled(pivots,
                                                     collect=False)
                value_name = "betweenness"
            else:
                _, _, info = eng.label_propagation(args.max_iterations,
                                                   collect=False)
                value_name = "label"
            eng.to_dataset(value_name).write_parquet(args.out)
        finally:
            eng.shutdown()
        metrics.update(info)
        metrics["iterate_sec"] = round(time.time() - t0, 2)

    os.makedirs(args.out, exist_ok=True)
    with open(f"{args.out}/metrics.json", "w") as f:
        json.dump(metrics, f, indent=2)
    print(json.dumps(metrics))
    ray.shutdown()


if __name__ == "__main__":
    main()
