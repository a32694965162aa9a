"""Layer spans recorded from outside the csarank package.

``Tracer.enable`` replaces the module attributes that csarank's own callers
look up at call time (``csarank.rerank.encoder_forward``,
``csarank.training.encoder_trace``, the ``Tape`` op methods, ...) with
timing wrappers, and ``disable`` puts the originals back, so the package's
code paths run unchanged. Every span keeps its name, the phase it ran in,
its start and end, and the index of the span that caused it; self time is
a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gc
import importlib
import time
from collections import defaultdict

# (module, attribute, span name). A function imported by name into several
# modules is wrapped at each place a caller looks it up, under one span name.
TARGETS = [
    ("csarank.dataset", "generate_synthetic", "dataset.generate_synthetic"),
    ("csarank.dataset", "knn_search_many", "dataset.knn_search_many"),
    ("csarank.dataset", "knn_search", "dataset.knn_search"),
    ("csarank.storage", "write_embeddings", "storage.write_embeddings"),
    ("csarank.storage", "read_embeddings", "storage.read_embeddings"),
    ("csarank.storage", "write_rankings", "storage.write_rankings"),
    ("csarank.storage", "read_rankings", "storage.read_rankings"),
    ("csarank.checkpoint", "save_checkpoint", "checkpoint.save_checkpoint"),
    ("csarank.checkpoint", "load_checkpoint", "checkpoint.load_checkpoint"),
    ("csarank.affinity", "build_training_samples", "affinity.build_training_samples"),
    ("csarank.affinity", "build_affinity_sequence", "affinity.build_affinity_sequence"),
    ("csarank.rerank", "build_affinity_sequence", "affinity.build_affinity_sequence"),
    ("csarank.rerank", "encoder_forward", "encoder.encoder_forward"),
    ("csarank.rerank", "csa_rerank", "rerank.csa_rerank"),
    ("csarank.rerank", "build_diffusion_graph", "rerank.build_diffusion_graph"),
    ("csarank.rerank", "dfs_diffusion", "rerank.dfs_diffusion"),
    ("csarank.rerank", "diffusion_scores", "rerank.dfs.solve"),
    ("csarank.encoder", "encoder_trace", "encoder.encoder_trace"),
    ("csarank.training", "encoder_trace", "encoder.encoder_trace"),
    ("csarank.training", "encoder_backward", "encoder.encoder_backward"),
    ("csarank.training", "contrastive_loss", "training.contrastive_loss"),
    ("csarank.training", "mse_loss", "training.mse_loss"),
    ("csarank.training", "sgd_step", "training.sgd_step"),
    ("csarank.training", "train", "training.train"),
    # Plain kernels that encoder code calls without a tape (mha_forward and
    # the other tape-free helpers); unused by today's encoder_forward.
    ("csarank.encoder", "matmul", "kernels.matmul"),
    ("csarank.encoder", "softmax_rows", "kernels.softmax_rows"),
    ("csarank.encoder", "gelu", "kernels.gelu"),
    ("csarank.encoder", "layer_norm_rows", "kernels.layer_norm_rows"),
    # Tape ops; each calls its plain kernel through csarank.kernels, which is
    # not wrapped, so a Tape op and the kernel inside it count once.
    ("csarank.kernels", "Tape.matmul", "kernels.matmul"),
    ("csarank.kernels", "Tape.softmax_rows", "kernels.softmax_rows"),
    ("csarank.kernels", "Tape.gelu", "kernels.gelu"),
    ("csarank.kernels", "Tape.layer_norm_rows", "kernels.layer_norm_rows"),
    ("csarank.kernels", "Tape.add", "kernels.elementwise"),
    ("csarank.kernels", "Tape.add_const", "kernels.elementwise"),
    ("csarank.kernels", "Tape.scale", "kernels.elementwise"),
    ("csarank.kernels", "Tape.transpose", "kernels.elementwise"),
    ("csarank.kernels", "Tape.concat", "kernels.elementwise"),
]


def _value(x):
    return getattr(x, "value", x)  # TapeVar or plain array


def _matmul_flop(args, out):
    """Computed, not measured: 2*M*N*K per product over the output's batch."""
    a = _value(args[-2])
    return 2.0 * _value(out).size * a.shape[-1]


def _tape_footprint(args, out):
    """Computed: record count and bytes of the values an encoder trace's tape
    holds for this forward. The parameter leaves are left out: they wrap the
    model's shared, persistent arrays. Arrays that backward closures capture
    (layer norm's normed rows, GELU's inner term) are not records and are
    not counted either."""
    records = getattr(getattr(out, "tape", None), "_records", None)
    if records is None:
        return (0, 0)
    shared = {id(var) for var in out.params.values()}
    own = [var for var, _, _ in records if id(var) not in shared]
    return (len(own), sum(var.value.nbytes for var in own))


def _solve_outcome(args, out):
    _x, _resid, iterations, converged = out
    return (iterations, converged)


def _query_count(args, out):
    return len(args[1])


HOOKS = {
    "kernels.matmul": _matmul_flop,
    "encoder.encoder_trace": _tape_footprint,
    "rerank.dfs.solve": _solve_outcome,
    "dataset.knn_search_many": _query_count,
}


def _resolve(module_name, dotted):
    """(owner object, attribute name) for ``module.Class.attr`` or ``module.attr``."""
    owner = importlib.import_module(module_name)
    *outer, attr = dotted.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Span recorder whose wrappers are installed only while enabled."""

    def __init__(self):
        self.spans = []      # [name, phase, parent index, start, end, extra]
        self.phase = "setup"
        self._stack = []
        self._originals = []
        self._wrappers = []
        for module_name, dotted, name in TARGETS:
            owner, attr = _resolve(module_name, dotted)
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            self._wrappers.append(self._wrap(name, original, HOOKS.get(name)))
        self.gen2_collections = 0

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, self.phase, stack[-1] if stack else None, 0.0, 0.0, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[3] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if hook is not None:
                span[5] = hook(args, out)
            return out

        return wrapper

    def enable(self):
        for (owner, attr, _), wrapper in zip(self._originals, self._wrappers):
            setattr(owner, attr, wrapper)

    def disable(self):
        for owner, attr, original in self._originals:
            setattr(owner, attr, original)

    def count_gc(self, phase, info):
        if phase == "start" and info.get("generation") == 2:
            self.gen2_collections += 1

    def watch_gc(self):
        gc.callbacks.append(self.count_gc)

    def unwatch_gc(self):
        if self.count_gc in gc.callbacks:
            gc.callbacks.remove(self.count_gc)

    def summary(self):
        """(phase, name) -> {calls, total_s, self_s, extras}; phase None sums all."""
        child_time = defaultdict(float)
        for name, phase, parent, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                   "extras": []})
        for idx, (name, phase, parent, start, end, extra) in enumerate(self.spans):
            for key in ((phase, name), (None, name)):
                agg = out[key]
                agg["calls"] += 1
                agg["total_s"] += end - start
                agg["self_s"] += end - start - child_time[idx]
                if extra is not None:
                    agg["extras"].append(extra)
        return out
