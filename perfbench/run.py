"""Layer benchmark for tldr_ray: two workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload transcripts-graph --seed 1 \\
        --seconds 35 --trace 0
    python3 perfbench/run.py --smoke

``--smoke`` runs every workload at a tiny size, untraced and traced, from a
temporary working directory, and prints each metric with its unit.

Workloads (sizes in ``SIZES``; BENCHMARK.json says why each was chosen):

- ``transcripts-graph``: synthetic transcripts -> ``transcript_graph``
  -> ``GraphEngine.from_edges_streaming`` -> ``pagerank`` ->
  ``connected_components`` -> ``label_propagation``, each followed by a
  collect.
- ``long-doc-summarize``: long documents -> ``summarize_documents``.

Load model: a closed loop, one client process, one pass at a time. Ray runs
with ``num_cpus`` equal to ``nproc``; the engine has ``workloads.P`` shard
actors.

A run sets up once: a fresh Ray session, the input from the seeded cache
and one warm-up pass (stage boundaries materialized) whose output also
yields the references. It then repeats passes for ``--seconds`` (at least
one pass; no pass that should end after the window is started) and checks
every pass's output; ``failed`` / ``attempted`` in the result is the fail
ratio. With ``--trace 0`` the last stdout line holds the
end-to-end metrics. With ``--trace 1`` half the time runs untraced passes
and half runs traced passes whose stage boundaries are materialized; the
spans go to ``.perfbench_work/traces/`` and the last line holds the
per-layer metrics. The line before the last one holds host facts and the
raw pass times.

Everything a run writes stays under ``.perfbench_work/`` and ``.pbray/`` (the
Ray session) at the root of the checkout, unless the checkout path is too long
for Ray's socket names; Ray then keeps its session files in its default temp
dir. A Ray start that fails (a raylet that does not register within Ray's 30 s
start-up wait) is cleaned up and tried once more.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

SIZES = {"transcripts-graph": 1000,         # conversations
         "long-doc-summarize": 64}          # documents of 92 turns
SMOKE_SIZES = {"transcripts-graph": 12, "long-doc-summarize": 2}
# the largest pass holds well under this in the object store (nothing spills)
OBJECT_STORE_BYTES = 512 << 20
RAY_DIR = os.path.join(ROOT, ".pbray")
# Ray's sockets live at <temp dir>/session_<date>_<time>_<usec>_<pid>/sockets/
# and must fit AF_UNIX's 107-byte limit.
MAX_RAY_TEMP_DIR = 107 - len("/session_2026-01-01_00-00-00_000000_4194304"
                             "/sockets/plasma_store")
RAY_START_TRIES = 2
# Bytes one PageRank traversal streams in the shard SpMV (pr_messages):
# source index, rank gather, normalized weight, product write and read,
# destination index and the bincount accumulate, 8 bytes each.
PR_BYTES_PER_TRAVERSAL = 56
EDGE_BYTES = 24             # src int64 + dst int64 + weight float64


def _ray_temp_dir() -> str | None:
    return RAY_DIR if len(RAY_DIR.encode()) <= MAX_RAY_TEMP_DIR else None


def ray_start(num_cpus: int):
    import ray
    from ray.data import DataContext

    from hostinfo import descendants, wait_for_exit

    kwargs = {}
    if _ray_temp_dir():
        kwargs["_temp_dir"] = _ray_temp_dir()
    for attempt in range(1, RAY_START_TRIES + 1):
        try:
            ray.init(address="local", num_cpus=num_cpus,
                     include_dashboard=False, logging_level="ERROR",
                     log_to_driver=False,
                     object_store_memory=OBJECT_STORE_BYTES,
                     # workers import tldr_ray from the checkout whatever
                     # the cwd
                     runtime_env={"env_vars": {"PYTHONPATH": ROOT}},
                     **kwargs)
            break
        except Exception:
            if attempt == RAY_START_TRIES:
                raise
            traceback.print_exc(file=sys.stderr)
            print("ray.init failed; stopping what it started and retrying",
                  file=sys.stderr)
            # a failed init leaves its GCS, raylet and agents running
            ray.shutdown()
            wait_for_exit(descendants(os.getpid()), timeout_s=2.0)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False


def ray_stop():
    import ray

    from hostinfo import descendants, wait_for_exit

    # Ray re-parents some of its processes as it shuts them down, so note
    # them all first and then wait for each by pid
    started = descendants(os.getpid())
    ray.shutdown()
    killed = wait_for_exit(started)
    if killed:
        print(f"killed {len(killed)} processes left after ray.shutdown",
              file=sys.stderr)


def _median(xs):
    return float(statistics.median(xs)) if xs else 0.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


# -- passes ----------------------------------------------------------------

def run_passes(wl, seconds: float, tracer, materialize: bool, log: dict):
    """Passes for ``seconds``: at least one, and another only while it
    should end inside the window. Returns the passes whose output checked
    out; counts attempts and failures."""
    good = []
    t0 = time.perf_counter()
    for n in itertools.count(1):
        log["attempted"] += 1
        try:
            res = wl.run_pass(tracer, materialize)
            errs = wl.check(res)
        except Exception:       # a failed pass counts; the run goes on
            traceback.print_exc(file=sys.stderr)
            errs = ["exception"]
        if errs:
            log["failed"] += 1
            log["errors"].extend(errs)
            print(f"pass failed: {errs}", file=sys.stderr)
        else:
            good.append(res)
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / n > seconds or \
                (log["failed"] > 3 and not good):
            return good


def kernel_sample(docs: list[str]) -> dict:
    """Per-function kernel cost over ``docs``, calling the kernel's public
    functions in the order ``kernel.lexrank._prepare`` does, then the local
    PageRank that ``summarize`` runs on the kept edges."""
    from tldr_ray.config import SummarizeConfig
    from tldr_ray.kernel import (build_dictionary, build_vectors,
                                 default_word_tokenizer,
                                 edges_above_threshold, pagerank_ref,
                                 pairwise_weights, tokenize_sentences,
                                 uniq_sentence_indices)

    cfg = SummarizeConfig()
    names = ["split", "tokenize", "dedup", "dictionary", "vectors",
             "weights", "threshold", "local_pagerank"]
    secs = dict.fromkeys(names, 0.0)
    pairs = n_sent = n_kept = 0

    def timed(name, fn, *a):
        t = time.perf_counter()
        out = fn(*a)
        secs[name] += time.perf_counter() - t
        return out

    for text in docs:
        text = text.strip()
        sentences = timed("split", tokenize_sentences, text)
        bags = timed("tokenize", lambda: [default_word_tokenizer(s)
                                          for s in sentences])
        kept = timed("dedup", uniq_sentence_indices, bags,
                     cfg.sentences_distance_threshold)
        dictionary = timed("dictionary", build_dictionary, text)
        mat = timed("vectors", build_vectors, [bags[i] for i in kept],
                    dictionary)
        w = timed("weights", pairwise_weights, mat, cfg.weighing)
        src, dst, wt = timed("threshold", edges_above_threshold, w,
                             cfg.threshold)
        timed("local_pagerank", pagerank_ref, src, dst, wt, cfg.damping,
              cfg.tolerance)
        n = len(sentences)
        pairs += n * (n - 1) // 2
        n_sent += n
        n_kept += len(kept)
    per_doc = 1e6 / max(1, len(docs))
    group = {"split": "text", "tokenize": "text", "dictionary": "text",
             "dedup": "dedup"}
    out = {}
    for k in names:
        prefix = f"kernel.{group.get(k, 'lexrank')}"
        key = f"{prefix}.us_per_doc" if k == "dedup" else \
            f"{prefix}.{k}_us_per_doc"
        out[key] = secs[k] * per_doc
    out["kernel.dedup.pairs"] = pairs
    out["kernel.dedup.kept_ratio"] = n_kept / n_sent if n_sent else 0.0
    out["kernel.sample_docs"] = len(docs)
    return out


def layer_metrics(wl, tracer, traced: list, untraced_wall: float,
                  copy_bw: float, host: dict) -> tuple[dict, dict]:
    """Per-layer metrics (medians over the traced passes) and the
    extra trace-file content."""
    from spans import parse_dataset_stats

    per_pass = []
    for res in traced:
        root = res.obs["root"]
        wall = root["end"] - root["start"]
        st = tracer.self_times(root["id"])
        per_pass.append((wall, st, res))

    def med(f):
        """Median over the traced passes of f(wall, self times, result)."""
        return _median([f(w, st, r) for w, st, r in per_pass])

    def selft(name):
        return med(lambda w, st, r: st.get(name, 0.0))

    m = {}
    m["trace.wall_s"] = med(lambda w, st, r: w)
    m["trace_overhead_s"] = m["trace.wall_s"] - untraced_wall
    m["trace.self_time_ratio"] = med(lambda w, st, r: sum(st.values()) / w)
    m["sources.read_s"] = selft("sources.read")
    last = traced[-1]
    read_ds = last.obs["read_ds"]
    m["sources.rows"] = read_ds.count()
    m["sources.bytes"] = read_ds.size_bytes()
    m["stages.edges.build_s"] = selft("stages.edges.build")
    counts = wl.expected.get("etype_counts", {})
    for et in ("sim", "tool", "entity", "tool_star", "entity_star"):
        m[f"stages.edges.{et}_edges"] = counts.get(et, 0)

    graph = "pagerank_info" in last.obs
    ingest = selft("graph.ingest")
    n_edges = last.obs.get("n_edges", 0)
    m["graph.ingest_s"] = ingest
    m["graph.ingest_edges_per_s"] = n_edges / ingest if ingest else 0.0
    m["graph.ingest_bytes"] = n_edges * EDGE_BYTES
    if graph:
        n_local = sorted(last.obs["n_local"])
        m["graph.shard_vertex_skew"] = n_local[-1] / _median(n_local) \
            if _median(n_local) else 0.0
        iters = [r.obs["pagerank_info"]["iterations"] for _, _, r in per_pass]
        iter_secs = [s for _, _, r in per_pass
                     for s in r.obs["pagerank_info"]["iter_secs"]]
        m["graph.pagerank.iterations"] = _median(iters)
        m["graph.pagerank.s"] = selft("graph.pagerank")
        m["graph.pagerank.s_per_iter_p50"] = _median(iter_secs)
        m["graph.pagerank.s_per_iter_max"] = max(iter_secs, default=0.0)
        trav = med(lambda w, st, r: r.obs["n_edges"]
                   * r.obs["pagerank_info"]["iterations"]
                   / st["graph.pagerank"])
        m["graph.pagerank.traversals_per_s"] = trav
        m["graph.pagerank.bw_fraction"] = trav * PR_BYTES_PER_TRAVERSAL \
            / copy_bw
        m["graph.cc.rounds"] = med(lambda w, st, r: r.obs["cc_info"][
            "iterations"])
        m["graph.lpa.rounds"] = med(lambda w, st, r: r.obs["lpa_info"][
            "rounds"])
        m["graph.lpa.s_per_round"] = selft("graph.lpa") \
            / max(1, m["graph.lpa.rounds"])
    else:
        for k in ("shard_vertex_skew", "pagerank.iterations", "pagerank.s",
                  "pagerank.s_per_iter_p50", "pagerank.s_per_iter_max",
                  "pagerank.traversals_per_s", "pagerank.bw_fraction",
                  "cc.rounds", "lpa.rounds", "lpa.s_per_round"):
            m[f"graph.{k}"] = 0
    m["graph.cc.s"] = selft("graph.cc")
    m["graph.collect_s"] = selft("graph.collect")
    m["pipelines.summarize.s"] = selft("pipelines.summarize")
    m["pipelines.collect_s"] = selft("pipelines.collect")
    kernel_total = wl.kernel_total_s()
    m["pipelines.summarize.overhead_s"] = untraced_wall - kernel_total \
        if kernel_total is not None else 0.0
    m["host.copy_bw_gb_per_s"] = copy_bw / 1e9

    docs = wl.kernel_docs()
    ks = kernel_sample(docs) if docs else {}
    for k in ("kernel.text.split_us_per_doc", "kernel.text.tokenize_us_per_doc",
              "kernel.text.dictionary_us_per_doc", "kernel.dedup.us_per_doc",
              "kernel.dedup.pairs", "kernel.dedup.kept_ratio",
              "kernel.lexrank.vectors_us_per_doc",
              "kernel.lexrank.weights_us_per_doc",
              "kernel.lexrank.threshold_us_per_doc",
              "kernel.lexrank.local_pagerank_us_per_doc"):
        m[k] = ks.get(k, 0)

    stage_ds = last.obs.get("edges_ds") or last.obs.get("summary_ds")
    extra = {
        "operator_stats": parse_dataset_stats(stage_ds.stats())
        if stage_ds is not None else [],
        "kernel_sample_docs": ks.get("kernel.sample_docs", 0),
        "kernel_total_s": kernel_total,
        "copy_bw_array_bytes": host["copy_bw_array_bytes"],
        "llc_bytes": host["llc_bytes"],
        "pr_bytes_per_traversal": PR_BYTES_PER_TRAVERSAL,
    }
    return m, extra


# -- one run ---------------------------------------------------------------

def run(args, units: dict) -> int:
    """One run; ``units`` maps each metric BENCHMARK.json lists for this
    mode to its unit."""
    sys.path.insert(0, ROOT)
    import hostinfo
    from inputs import prune_cache
    from spans import Tracer
    from workloads import WORKLOADS

    os.makedirs(WORK, exist_ok=True)
    sizes = SMOKE_SIZES if args.tiny else SIZES
    num_cpus = hostinfo.nproc()
    wl = WORKLOADS[args.workload](WORK, ROOT, args.seed,
                                  sizes[args.workload])
    log = {"attempted": 0, "failed": 0, "errors": []}
    try:
        marks = [time.perf_counter()]
        ray_start(num_cpus)
        marks.append(time.perf_counter())
        wl.prepare()
        marks.append(time.perf_counter())
        warm = wl.run_pass(Tracer(False), materialize=True)
        marks.append(time.perf_counter())
        setup_s = marks[-1] - marks[0]
        setup_errs = wl.build_reference(warm)
        marks.append(time.perf_counter())
        del warm
        prune_cache(WORK)
        setup_parts = dict(zip(("ray_start_s", "prepare_s", "warmup_s",
                                "reference_s"),
                               (b - a for a, b in zip(marks, marks[1:]))))

        untraced_s = args.seconds / 2 if args.trace else args.seconds
        good = run_passes(wl, untraced_s, Tracer(False), False, log)
        if not good:
            raise RuntimeError("no pass produced a checked result")
        walls = [r.wall_s for r in good]
        wall = _median(walls)
        host = hostinfo.host_facts(num_cpus)
        host["ray_temp_dir"] = _ray_temp_dir() or "ray default"
        host["object_store_bytes"] = OBJECT_STORE_BYTES
        details = {"workload": wl.name, "seed": args.seed,
                   "size": wl.size, "item": wl.item,
                   "input_digest": wl.digest, "setup_s": setup_s,
                   "setup_parts_s": setup_parts,
                   "pass_walls_s": walls, "setup_errors": setup_errs,
                   "pass_errors": log["errors"], "host": host}
        if args.trace:
            tracer = Tracer(True)
            traced = run_passes(wl, args.seconds / 2, tracer, True, log)
            if not traced:
                raise RuntimeError("no traced pass produced a checked "
                                   "result")
            host["copy_bw_array_bytes"] = 4 * max(hostinfo.llc_bytes(),
                                                  32 << 20)
            copy_bw = hostinfo.copy_bandwidth(host["copy_bw_array_bytes"])
            metrics, extra = layer_metrics(wl, tracer, traced, wall,
                                           copy_bw, host)
            details["traced_walls_s"] = [r.wall_s for r in traced]
            trace_dir = os.path.join(WORK, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            trace_path = os.path.join(
                trace_dir, f"{wl.name}-s{args.seed}-{tracer.run_id}.json")
            with open(trace_path, "w") as fh:
                json.dump({"run_id": tracer.run_id, "details": details,
                           "metrics": metrics, **extra,
                           "spans": tracer.spans}, fh, indent=1,
                          default=str)
            details["trace_file"] = os.path.relpath(trace_path, ROOT)
        else:
            metrics = {"wall_s": wall, "setup_s": setup_s,
                       "items_per_s": _median([wl.items / w for w in walls]),
                       "peak_rss_mb": _median([r.rss_mb for r in good])}
        out = {k: _metric(metrics[k], unit) for k, unit in units.items()}
    finally:
        ray_stop()
        shutil.rmtree(RAY_DIR, ignore_errors=True)

    print(json.dumps(details, default=str))
    print(json.dumps({"correct": not setup_errs and log["failed"] == 0,
                      "attempted": log["attempted"],
                      "failed": log["failed"], "metrics": out}))
    return 0


# -- smoke check -----------------------------------------------------------

def smoke() -> int:
    """Every workload at tiny size, untraced and traced, started from a
    temporary working directory; checks each result line against
    BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    os.makedirs(WORK, exist_ok=True)
    bad = 0
    with tempfile.TemporaryDirectory(dir=WORK) as cwd:
        for w in spec["workloads"]:
            for trace in (0, 1):
                cmd = [sys.executable, os.path.abspath(__file__),
                       "--workload", w["name"], "--seed", "1",
                       "--seconds", "1", "--trace", str(trace), "--tiny"]
                p = subprocess.run(cmd, cwd=cwd, capture_output=True,
                                   text=True, timeout=300)
                lines = p.stdout.strip().splitlines()
                try:
                    res = json.loads(lines[-1])
                    ok = (p.returncode == 0 and res["correct"]
                          and set(res["metrics"]) == want[trace])
                except (IndexError, ValueError, KeyError):
                    ok, res = False, None
                bad += not ok
                print(f"{w['name']} trace={trace}: "
                      f"{'ok' if ok else 'FAILED'}", flush=True)
                if ok:
                    for name, m in res["metrics"].items():
                        print(f"  {name} = {m['value']:.6g} {m['unit']}")
                else:
                    print(p.stderr[-4000:], file=sys.stderr)
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(SIZES))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-check sizes (results are not comparable)")
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at tiny size from a temp cwd")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "tldr_ray", "__init__.py")):
        print(f"tldr_ray not found next to {HERE}: run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if not args.workload:
        ap.error("--workload is required")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    return run(args, {m["name"]: m["unit"] for m in metrics})


if __name__ == "__main__":
    sys.exit(main())
