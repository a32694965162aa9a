"""Command-line front end: generate / search / train / rerank / evaluate / inspect.

Exit codes: 0 success, 1 runtime failure, 2 usage error. Every command
echoes its fully resolved configuration as JSON on stdout before running.
With --deterministic, compute threads are pinned to one and measured
latencies are written as 0.0 so repeated runs produce byte-identical
output files (measured values still go to the console).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import storage
from .affinity import ensure_query_first, build_training_samples
from .dataset import SyntheticDatasetSpec, generate_synthetic, knn_search_many
from .encoder import EncoderConfig, init_params
from .evaluation import mean_average_precision, render_report_table
from .kernels import make_rng
from .rerank import build_diffusion_graph, csa_rerank, dfs_diffusion, qe_rerank
from .training import LossConfig, SgdState, TrainRunConfig, train


class UsageError(ValueError):
    pass


def _echo(command: str, resolved: dict) -> None:
    print(json.dumps({"command": command, "config": resolved}))


def _thread_limit(args):
    threads = 1 if args.deterministic else args.threads
    if threads is None:
        return None
    try:
        from threadpoolctl import threadpool_limits
        return threadpool_limits(limits=threads)
    except ImportError:
        print(f"warning: threadpoolctl unavailable, --threads {threads} ignored",
              file=sys.stderr)
        return None


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    spec = SyntheticDatasetSpec(
        cluster_count=args.clusters, items_per_cluster=args.items,
        dim=args.dim, noise_sigma=args.noise, num_views=args.views,
        distractor_count=args.distractors, seed=args.seed,
    )
    out = Path(args.out)
    _echo("generate", {**spec.__dict__, "out": str(out)})
    out.mkdir(parents=True, exist_ok=True)
    views, truth, labels = generate_synthetic(spec)
    for m, view in enumerate(views):
        storage.write_embeddings(out / f"embeddings_view{m}.csae", view)
    storage.write_ground_truth(out / "ground_truth.jsonl", truth)
    storage.write_labels(out / "labels.json", labels)
    print(f"wrote {len(views)} views of {len(views[0])} x {spec.dim} embeddings, "
          f"{len(truth.positives)} truth records -> {out}")
    return 0


def cmd_search(args) -> int:
    if args.K < 1:
        raise UsageError(f"--K must be >= 1, got {args.K}")
    emb = storage.read_embeddings(args.embeddings)
    if args.queries:
        query_ids = [q for q in Path(args.queries).read_text().split() if q]
    else:
        query_ids = list(emb.ids)
    _echo("search", {"embeddings": args.embeddings, "out": args.out,
                     "K": args.K, "queries": len(query_ids)})
    rankings = knn_search_many(emb, query_ids, args.K)
    storage.write_rankings(args.out, rankings)
    print(f"wrote {len(rankings)} rankings of depth <= {args.K} -> {args.out}")
    return 0


def _load_views(data_dir: Path):
    paths = sorted(data_dir.glob("embeddings_view*.csae"))
    if not paths:
        raise FileNotFoundError(f"no embeddings_view*.csae under {data_dir}")
    return [storage.read_embeddings(p) for p in paths]


def cmd_train(args) -> int:
    config = EncoderConfig(
        depth=args.depth, heads=args.heads, head_dim=args.head_dim,
        hidden=args.hidden, input_len=args.L, ffn_mult=args.ffn_mult,
        mse_head_hidden=args.mse_hidden, sublayer_style=args.sublayer_style,
    )
    try:
        config.validate(allow_dim_mismatch=args.allow_dim_mismatch)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    loss_config = LossConfig(tau=args.tau, lam=args.lam)
    run_config = TrainRunConfig(epochs=args.epochs, batch_size=args.batch,
                                seed=args.seed)
    resolved = {
        "data": args.data, "out": args.out, "resume": args.resume,
        "train_queries": args.train_queries, "seed": args.seed,
        "deterministic": args.deterministic,
        "model": config.to_dict(), "loss": loss_config.__dict__,
        "run": {"epochs": run_config.epochs, "batch_size": run_config.batch_size,
                "k_train": args.K, "anchor_len": args.L},
        "optimizer": {"lr": args.lr, "momentum": args.momentum,
                      "weight_decay": args.weight_decay},
    }
    _echo("train", resolved)

    data_dir = Path(args.data)
    views = _load_views(data_dir)
    labels = storage.read_labels(data_dir / "labels.json")

    query_ids = None
    if args.train_queries:
        eligible = sorted(
            qid for qid, lab in labels.items()
            if lab is not None and qid in views[0]
        )
        picker = make_rng(args.seed + 1)
        n = min(args.train_queries, len(eligible))
        query_ids = sorted(picker.choice(eligible, size=n, replace=False))

    skipped_ids = []
    samples = build_training_samples(views, labels, args.K, args.L,
                                     query_ids=query_ids, skipped=skipped_ids)
    print(f"built {len(samples)} training samples "
          f"({len(skipped_ids)} skipped for missing ids)")

    state = SgdState(lr0=args.lr, weight_decay=args.weight_decay,
                     momentum=args.momentum)
    start_epoch = 0
    if args.resume:
        params, extra, momentum = ckpt.load_checkpoint(args.resume)
        if params.config != config:
            raise UsageError("resume checkpoint config differs from flags")
        state.buffers = momentum
        state.step = int(extra.get("step", 0))
        start_epoch = int(extra.get("epoch", -1)) + 1
        print(f"resuming from {args.resume} at epoch {start_epoch}, "
              f"step {state.step}")
    else:
        params = init_params(config, make_rng(args.seed))

    out_dir = Path(args.out)
    result = train(samples, params, loss_config, run_config,
                   out_dir=out_dir, state=state, start_epoch=start_epoch)

    last = result.log[-1] if result.log else {}
    report = {
        "config": resolved,
        "samples_used": result.samples_used,
        "samples_skipped": result.samples_skipped,
        "aborted_steps": result.aborted_steps,
        "steps": result.state.step,
        "best_epoch": result.best_epoch,
        "best_val_map": result.best_val_map,
        "val_history": result.val_history,
        "final_loss_total": last.get("loss_total"),
    }
    (out_dir / "train_report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"trained {result.state.step} steps; "
          f"best epoch {result.best_epoch} (val mAP {result.best_val_map}); "
          f"checkpoints -> {out_dir}")
    return 0


def cmd_rerank(args) -> int:
    if args.method == "csa" and not args.checkpoint:
        raise UsageError("method csa requires --checkpoint")
    resolved = {
        "method": args.method, "rankings": args.rankings,
        "embeddings": args.embeddings, "out": args.out,
        "checkpoint": args.checkpoint, "K": args.K, "L": args.L,
        "nqe": args.nqe, "alpha": args.alpha, "k_graph": args.k_graph,
        "cg_tol": args.cg_tol, "cg_max_iter": args.cg_max_iter,
        "deterministic": args.deterministic,
    }
    _echo("rerank", resolved)
    emb = storage.read_embeddings(args.embeddings)
    rankings = storage.read_rankings(args.rankings)

    params = graph = None
    if args.method == "csa":
        params, _, _ = ckpt.load_checkpoint(args.checkpoint)
    elif args.method == "dfs":
        graph = build_diffusion_graph(emb, args.k_graph, args.alpha_dfs)

    results = []
    for ranking in rankings:
        ranking = ensure_query_first(ranking, ranking.query_id)
        k = args.K if args.K else len(ranking)
        if args.method == "csa":
            res = csa_rerank(emb, ranking, params, k, args.L)
        elif args.method == "dfs":
            res = dfs_diffusion(emb, ranking, k, cg_tol=args.cg_tol,
                                cg_max_iter=args.cg_max_iter, graph=graph)
        else:
            res = qe_rerank(args.method, emb, ranking, k,
                            n_qe=args.nqe, alpha=args.alpha)
        results.append(res)

    storage.write_rankings(args.out, [r.to_ranking() for r in results])
    latencies = np.array([r.latency_ms for r in results])
    not_converged = sum(1 for r in results if not r.converged)
    print(f"re-ranked {len(results)} queries with {args.method}: "
          f"latency mean {latencies.mean():.2f} ms "
          f"(min {latencies.min():.2f}, max {latencies.max():.2f})"
          + (f"; {not_converged} queries not converged" if not_converged else ""))
    if args.latency_out:
        written = np.zeros_like(latencies) if args.deterministic else latencies
        payload = {
            "method": args.method,
            "mean_ms": float(written.mean()),
            "min_ms": float(written.min()),
            "max_ms": float(written.max()),
            "per_query_ms": {r.query_id: float(v)
                             for r, v in zip(results, written)},
        }
        Path(args.latency_out).write_text(json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_evaluate(args) -> int:
    _echo("evaluate", {"rankings": args.rankings, "truth": args.truth,
                       "out": args.out})
    truth = storage.read_ground_truth(args.truth)
    reports = []
    for path in args.rankings:
        rankings = storage.read_rankings(path)
        reports.append(mean_average_precision(
            rankings, truth, method=Path(path).stem,
            config={"rankings": Path(path).name, "truth": Path(args.truth).name},
        ))
    print(render_report_table(reports))
    if args.out:
        storage.write_report(args.out, reports)
    return 0


def cmd_inspect(args) -> int:
    if not args.checkpoint:
        raise UsageError("empty checkpoint path")
    _echo("inspect", {"checkpoint": args.checkpoint})
    info = ckpt.describe_checkpoint(args.checkpoint)
    print(f"config: {json.dumps(info['config'])}")
    print(f"extra:  {json.dumps(info['extra'])}")
    width = max(len(n) for n in info["tensors"])
    for name, shape in info["tensors"].items():
        print(f"  {name.ljust(width)}  {'x'.join(map(str, shape))}")
    print(f"parameters: {info['param_count']} "
          f"(+{info['momentum_buffers']} momentum buffers)")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None,
                   help="compute thread cap (default: hardware)")
    p.add_argument("--deterministic", action="store_true",
                   help="single thread, zeroed latencies in output files")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csarank",
        description="Affinity-based re-ranking for instance retrieval: "
                    "synthetic data, training, re-ranking methods, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic clustered dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--clusters", type=int, default=100)
    p.add_argument("--items", type=int, default=30)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--noise", type=float, default=0.2)
    p.add_argument("--views", type=int, default=3)
    p.add_argument("--distractors", type=int, default=1000)
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("search", help="exact first-round cosine retrieval")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--K", type=int, default=100)
    p.add_argument("--queries", help="optional file of query ids, one per line")
    _add_common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("train", help="train the re-ranking model")
    p.add_argument("--data", required=True, help="directory from `generate`")
    p.add_argument("--out", required=True)
    p.add_argument("--K", type=int, default=512, help="candidates per sample")
    p.add_argument("--L", type=int, default=512, help="anchor list length")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--heads", type=int, default=12)
    p.add_argument("--head-dim", type=int, default=64)
    p.add_argument("--hidden", type=int, default=768)
    p.add_argument("--ffn-mult", type=int, default=4)
    p.add_argument("--mse-hidden", type=int, default=0)
    p.add_argument("--sublayer-style", choices=("ln_then_add", "add_then_ln"),
                   default="ln_then_add")
    p.add_argument("--allow-dim-mismatch", action="store_true")
    p.add_argument("--tau", type=float, default=2.0)
    p.add_argument("--lambda", dest="lam", type=float, default=0.2)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--weight-decay", type=float, default=1e-5)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch", type=int, default=256)
    p.add_argument("--train-queries", type=int, default=0,
                   help="seeded query subsample size (0 = every image)")
    p.add_argument("--resume", help="checkpoint to continue from")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("rerank", help="re-rank first-round results")
    p.add_argument("--method", required=True,
                   choices=("csa", "aqe", "aqewd", "alpha-qe", "dfs"))
    p.add_argument("--rankings", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--K", type=int, default=0, help="region size (0 = whole list)")
    p.add_argument("--L", type=int, default=None)
    p.add_argument("--nqe", type=int, default=10)
    p.add_argument("--alpha", type=float, default=3.0,
                   help="alpha-qe similarity power")
    p.add_argument("--alpha-dfs", type=float, default=0.99,
                   help="diffusion damping")
    p.add_argument("--k-graph", type=int, default=50)
    p.add_argument("--cg-tol", type=float, default=1e-8)
    p.add_argument("--cg-max-iter", type=int, default=100)
    p.add_argument("--latency-out", help="write per-query latency JSON here")
    _add_common(p)
    p.set_defaults(func=cmd_rerank)

    p = sub.add_parser("evaluate", help="mAP report over ranking files")
    p.add_argument("--rankings", required=True, nargs="+")
    p.add_argument("--truth", required=True)
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("inspect", help="summarize a checkpoint")
    p.add_argument("--checkpoint", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    limiter = _thread_limit(args)
    t0 = time.perf_counter()
    try:
        code = args.func(args)
        print(f"done in {time.perf_counter() - t0:.2f}s", file=sys.stderr)
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure -> exit 1 with a message
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        if limiter is not None:
            limiter.unregister()


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
