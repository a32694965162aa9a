"""Turn one run's measurements into the metrics BENCHMARK.json names.

``compute`` returns name -> (value, sample count) for every metric the run
can give; ``report`` keeps exactly the end-to-end (``--trace 0``) or
per-layer (``--trace 1``) names listed in BENCHMARK.json, with their units.
Layer metrics of a layer a workload never calls read 0. README.md maps each
layer metric to the end-to-end metric it should move.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys

import numpy as np


def _split(rows):
    """Rows whose last field is the traced flag -> (untraced, traced)."""
    return ([r[:-1] for r in rows if not r[-1]], [r[:-1] for r in rows if r[-1]])


def _rate(rows):
    """Median over (items, seconds) rows of items per second."""
    return statistics.median(n / s for n, s in rows) if rows else 0.0


def _p(seconds, q):
    return float(np.percentile(seconds, q)) * 1e3 if seconds else 0.0


def end_to_end(result) -> dict:
    stats = result["stats"]
    rerank, _ = _split(stats.rerank_s)
    rerank = [s for (s,) in rerank]
    search, _ = _split(stats.search)
    items, _ = _split(stats.items)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(stats.setup_s), len(stats.setup_s)),
        "search_qps": (_rate(search), len(search)),
        "rerank_ms_p50": (_p(rerank, 50), len(rerank)),
        "rerank_qps": (len(rerank) / sum(rerank) if rerank else 0.0, len(rerank)),
        "map": (stats.fingerprint["map"], len(result["workload"].loop.first_pass)),
        "items_per_s": (_rate(items), len(items)),
        "peak_rss_mb": (rss_mb, 1),
    }


def _overhead_pct(result) -> float:
    """How much slower traced rounds ran than untraced rounds of the same run."""
    stats = result["stats"]
    if result["workload"].main_phase == "train":
        plain, traced = _split(stats.items)
        return (_rate(plain) / _rate(traced) - 1.0) * 100.0 if traced else 0.0
    plain, traced = _split(stats.rerank_s)
    if not traced:
        return 0.0
    return (_p([s for (s,) in traced], 50) / _p([s for (s,) in plain], 50) - 1.0) * 100.0


def per_layer(result, threads: int) -> dict:
    spans, stats = result["spans"], result["stats"]
    workload = result["workload"]
    setups = result["setup_reps"]
    # p95 comes from the untraced queries only: traced ones carry the
    # wrappers' cost, about one span per Tape op.
    plain_rerank, traced_rerank = _split(stats.rerank_s)
    plain_rerank = [s for (s,) in plain_rerank]
    _, traced_items = _split(stats.items)
    queries = len(traced_rerank)
    samples = sum(n for n, _ in traced_items) if workload.main_phase == "train" else 0
    main_ops = samples if workload.main_phase == "train" else queries

    def span(name, phase=None):
        return spans.get((phase, name), {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                         "extras": []})

    def per(total, count, scale=1.0):
        return (total * scale / count if count else 0.0, count)

    def per_setup(name):
        return per(span(name, "setup")["total_s"], setups)

    def per_call_ms(name, phase=None, key="total_s"):
        s = span(name, phase)
        return per(s[key], s["calls"], 1e3)

    main = workload.main_phase
    kernels = {k: per(span(f"kernels.{k}", main)["self_s"], main_ops, 1e3)
               for k in ("matmul", "softmax_rows", "gelu", "layer_norm_rows",
                         "elementwise")}
    matmul = span("kernels.matmul", main)
    flop = sum(matmul["extras"])
    tapes = span("encoder.encoder_trace", main)["extras"]
    knn_many = span("dataset.knn_search_many")
    solves = span("rerank.dfs.solve")
    counters = stats.counters
    fp = stats.fingerprint
    out = {
        "dataset.knn_search_many.ms_per_query":
            per(knn_many["total_s"], sum(knn_many["extras"]), 1e3),
        "dataset.knn_search.ms": per(span("dataset.knn_search", "setup")["total_s"],
                                     setups, 1e3),
        "dataset.knn_search.calls": per(span("dataset.knn_search", "setup")["calls"],
                                        setups),
        "dataset.generate_synthetic.s": per_setup("dataset.generate_synthetic"),
        "storage.write_embeddings.s": per_setup("storage.write_embeddings"),
        "storage.read_embeddings.s": per_setup("storage.read_embeddings"),
        "storage.write_rankings.s": per_setup("storage.write_rankings"),
        "storage.read_rankings.s": per_setup("storage.read_rankings"),
        "checkpoint.load_checkpoint.s": per_setup("checkpoint.load_checkpoint"),
        "affinity.build_training_samples.s": per_setup("affinity.build_training_samples"),
        "affinity.build_affinity_sequence.ms_per_call":
            per_call_ms("affinity.build_affinity_sequence", "rerank"),
        "affinity.sequences": (span("affinity.build_affinity_sequence")["calls"],
                               span("affinity.build_affinity_sequence")["calls"]),
        "affinity.clamped": (result["clamps"],
                             span("affinity.build_affinity_sequence")["calls"]),
        "encoder.encoder_forward.ms_per_query":
            per(span("encoder.encoder_forward", "rerank")["total_s"], queries, 1e3),
        "encoder.encoder_trace.ms_per_sample":
            per(span("encoder.encoder_trace", "train")["total_s"], samples, 1e3),
        "encoder.encoder_backward.ms_per_sample":
            per(span("encoder.encoder_backward", "train")["total_s"], samples, 1e3),
        **{f"kernels.{k}.ms": v for k, v in kernels.items()},
        "kernels.matmul.gflop": per(flop, main_ops, 1e-9),
        "kernels.matmul.gflops": (flop * 1e-9 / matmul["self_s"] if matmul["self_s"]
                                  else 0.0, matmul["calls"]),
        "kernels.tape_records": per(sum(n for n, _ in tapes), len(tapes)),
        "kernels.tape_mb": per(sum(b for _, b in tapes), len(tapes), 1e-6),
        "rerank.csa_rerank.score_sort.ms":
            per_call_ms("rerank.csa_rerank", "rerank", "self_s"),
        "rerank.ms_p95": (_p(plain_rerank, 95), len(plain_rerank)),
        "rerank.dfs.solve_ms": per_call_ms("rerank.dfs.solve"),
        "rerank.dfs.cg_iterations_p50": (
            float(np.median([it for it, _ in solves["extras"]])) if solves["extras"]
            else 0.0, len(solves["extras"])),
        "rerank.dfs.not_converged": (counters["dfs_not_converged"],
                                     counters["dfs_solves"]),
        "rerank.dfs.solves": (counters["dfs_solves"], counters["dfs_solves"]),
        "rerank.dfs.select_sort.ms": per_call_ms("rerank.dfs_diffusion", None, "self_s"),
        "rerank.build_diffusion_graph.s": per_setup("rerank.build_diffusion_graph"),
        "training.contrastive_loss.ms_per_sample":
            per(span("training.contrastive_loss", "train")["total_s"], samples, 1e3),
        "training.mse_loss.ms_per_sample":
            per(span("training.mse_loss", "train")["total_s"], samples, 1e3),
        "training.sgd_step.ms_per_step": per_call_ms("training.sgd_step", "train"),
        "training.train.self_ms": per_call_ms("training.train", "train", "self_s"),
        "checkpoint.save_checkpoint.ms": per_call_ms("checkpoint.save_checkpoint"),
        "training.samples": (counters["train_samples"], counters["train_samples"]),
        "training.samples_skipped": (counters["train_samples_skipped"],
                                     counters["train_samples"]),
        "training.steps": (counters["train_steps"], counters["train_steps"]),
        "training.aborted_steps": (counters["train_aborted_steps"],
                                   counters["train_steps"]),
        "training.train_loss_final": (fp.get("train_loss_final", 0.0), 1),
        "training.train_val_map": (fp.get("train_val_map") or 0.0, 1),
        "gc.gen2_collections": (result["gen2_collections"], result["rounds"]),
        "tracing.overhead_pct": (_overhead_pct(result), result["rounds"]),
        "trace.queries": (queries, queries),
        "trace.samples": (samples, samples),
        "run.blas_threads": (threads, 1),
    }
    return out


def compute(result, trace: bool, threads: int) -> dict:
    return per_layer(result, threads) if trace else end_to_end(result)


def report(benchmark_json, values: dict, trace: bool, result) -> dict:
    """The result line: exactly the metrics BENCHMARK.json lists for this mode."""
    spec = json.loads(benchmark_json.read_text())
    listed = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in listed]
    if set(names) != set(values):
        raise KeyError(f"metrics computed {sorted(set(values) - set(names))} and "
                       f"listed {sorted(set(names) - set(values))} do not match")
    stats = result["stats"]
    return {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
                    for m in listed},
    }


def print_table(args, threads, result, values, report) -> None:
    stats = result["stats"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"blas_threads {threads}  rounds {result['rounds']}  "
          f"timed {result['timed_s']:.2f}s  attempted {stats.attempted}  "
          f"failed {stats.failed}")
    width = max(len(n) for n in report["metrics"])
    for name, m in report["metrics"].items():
        print(f"  {name.ljust(width)}  {m['value']:14.6g} {m['unit']:<6}  "
              f"n={values[name][1]}")
    sys.stdout.flush()
