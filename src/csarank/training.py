"""Losses, SGD-with-momentum, cosine schedule, and the training loop.

The objective is the query-vs-candidates contrastive loss plus a weighted
reconstruction term. ``mse_loss`` itself returns the raw sum of squared
row distances; the training objective divides it by the number of
contributing elements (an element mean) before applying the weight --
the raw sum is several orders of magnitude too hot for the default
learning rate and diverges immediately.

A step runs its batch in micro-batches of ``_CHUNK`` samples: the
training forward (:func:`~csarank.encoder.encoder_trace`), the losses and
the hand-written backward (:func:`~csarank.encoder.encoder_backward`) per
micro-batch, with the gradients summed over micro-batches. A trace holds
plain arrays and no reference cycle, so it is freed as soon as its
backward has run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .kernels import ShapeError, make_rng, query_cosines
from .encoder import EncoderParams, encoder_backward, encoder_forward, encoder_trace
from . import checkpoint as ckpt


class NoPositivesError(ValueError):
    """Sample has no relevant candidate beyond the query itself."""


class NonFiniteGradientError(ValueError):
    """A gradient tensor contains NaN or Inf; the step must be aborted."""


class TrainAbortedError(RuntimeError):
    """No usable training samples (no positives anywhere)."""


@dataclass(frozen=True)
class LossConfig:
    tau: float = 2.0
    lam: float = 0.2

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("temperature must be positive")
        if self.lam < 0:
            raise ValueError("reconstruction weight must be non-negative")


@dataclass(frozen=True)
class TrainRunConfig:
    epochs: int = 100
    batch_size: int = 256
    seed: int = 0
    val_fraction: float = 0.1

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")


def contrastive_loss(refined: np.ndarray, relevance: np.ndarray, tau: float,
                     valid: np.ndarray = None):
    """Log-ratio loss pulling relevant candidates toward the query row.

    Row 0 is the query; candidates are rows 1..K-1 (padding rows excluded
    via ``valid``). Returns (loss, gradient w.r.t. ``refined``); the gradient
    goes through the cosine normalization analytically. Raises
    :class:`NoPositivesError` when no valid candidate is relevant.
    """
    y = np.asarray(refined)
    k = y.shape[0]
    rel = np.asarray(relevance, dtype=bool)
    use = np.ones(k, dtype=bool) if valid is None else np.asarray(valid, dtype=bool)
    cand = np.nonzero(use[1:])[0] + 1  # candidate row indices
    if cand.size == 0 or not rel[cand].any():
        raise NoPositivesError("no relevant candidate among positions 2..K")

    norms = np.sqrt((y * y).sum(axis=1))
    u = y / norms[:, None]
    sims = u[cand] @ u[0]
    z = sims / tau
    z = z - z.max()
    ez = np.exp(z)
    den = ez.sum()
    num = ez[rel[cand]].sum()
    loss = float(-(np.log(num) - np.log(den)))

    p = ez / den
    q = np.zeros_like(ez)
    q[rel[cand]] = ez[rel[cand]] / num
    dsims = (p - q) / tau

    grad = np.zeros_like(y)
    grad[cand] = dsims[:, None] * (u[0][None, :] - sims[:, None] * u[cand]) \
        / norms[cand, None]
    grad[0] = ((dsims[:, None] * (u[cand] - sims[:, None] * u[0][None, :])).sum(axis=0)
               / norms[0])
    return loss, grad


def mse_loss(original: np.ndarray, reconstructed: np.ndarray,
             valid: np.ndarray = None):
    """Sum over unmasked rows of squared Euclidean distance, with gradient.

    The gradient (2 * (reconstructed - original), zeroed on masked rows) is
    the seed for the reconstruction head.
    """
    orig = np.asarray(original)
    recon = np.asarray(reconstructed)
    if orig.shape != recon.shape:
        raise ShapeError(f"shape mismatch: {orig.shape} vs {recon.shape}")
    diff = recon - orig
    if valid is not None:
        diff = diff * np.asarray(valid, dtype=orig.dtype)[:, None]
    loss = float((diff * diff).sum())
    return loss, 2.0 * diff


def total_loss(loss_contrastive: float, loss_mse: float, lam: float) -> float:
    """Combined objective: contrastive term plus lam times the reconstruction term."""
    return loss_contrastive + lam * loss_mse


def cosine_lr(step: int, total_steps: int, lr0: float) -> float:
    """Cosine decay from lr0 at step 0 to exactly 0 at total_steps."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


@dataclass
class SgdState:
    """SGD-with-momentum buffers; weight decay hits 2-D tensors only."""

    lr0: float = 0.1
    weight_decay: float = 1e-5
    momentum: float = 0.9
    buffers: dict = field(default_factory=dict)
    step: int = 0
    total_steps: int = 0


def sgd_step(params: EncoderParams, grads: dict, state: SgdState, lr: float):
    """One in-place update: buf = m*buf + (g + wd*p); p -= lr*buf.

    Validates all gradients first; a non-finite gradient aborts the whole
    step (no tensor is touched) via :class:`NonFiniteGradientError`.
    """
    for name in params.tensors:
        if not np.all(np.isfinite(grads[name])):
            raise NonFiniteGradientError(f"non-finite gradient for {name}")
    for name, p in params.tensors.items():
        g = grads[name]
        if state.weight_decay and p.ndim >= 2:
            g = g + state.weight_decay * p
        buf = state.buffers.get(name)
        buf = g.copy() if buf is None else state.momentum * buf + g
        state.buffers[name] = buf
        p -= np.asarray(lr, dtype=p.dtype) * buf
    state.step += 1
    return params, state


@dataclass
class TrainResult:
    params: EncoderParams
    state: SgdState
    log: list
    val_history: list
    best_epoch: int
    best_val_map: float | None  # None when there is no validation split
    samples_used: int
    samples_skipped: int
    aborted_steps: int


def _sample_ap(refined: np.ndarray, relevance: np.ndarray, valid: np.ndarray):
    """Average precision of candidates 1..K-1 ranked by cosine to the query row."""
    cand = np.nonzero(valid[1:])[0] + 1
    n_pos = int(relevance[cand].sum())
    if n_pos == 0:
        return None
    # the query row and the valid candidates: the rows csa_rerank scores
    scores = query_cosines(refined[np.r_[0, cand]])[1:]
    order = np.argsort(-scores, kind="stable")
    hits = relevance[cand][order]
    ranks = np.nonzero(hits)[0] + 1
    return float((np.arange(1, n_pos + 1) / ranks).sum() / n_pos)


def _usable(sample) -> bool:
    rel, valid = sample.relevance, sample.sequence.valid
    return bool(rel[1:][valid[1:]].any())


def train(
    samples: list,
    params: EncoderParams,
    loss_config: LossConfig = LossConfig(),
    run_config: TrainRunConfig = TrainRunConfig(),
    out_dir=None,
    state: SgdState = None,
    start_epoch: int = 0,
    log_hook=None,
) -> TrainResult:
    """SGD over shuffled batches of affinity sequences.

    Samples without any positive are dropped up front (and counted); if none
    survive the run aborts. A seeded 10% query split is held out and scored
    by in-list average precision each epoch; the best and latest checkpoints
    are kept under ``out_dir`` along with a newline-delimited loss log.
    Passing ``state``/``start_epoch`` continues a previous run's counters.
    """
    rng = make_rng(run_config.seed)
    usable = [s for s in samples if _usable(s)]
    n_skipped = len(samples) - len(usable)
    if not usable:
        raise TrainAbortedError(
            f"all {len(samples)} samples lack positive candidates; nothing to train on"
        )

    query_ids = sorted({s.sequence.query_id for s in usable})
    n_val = int(len(query_ids) * run_config.val_fraction)
    val_ids = set(rng.choice(query_ids, size=n_val, replace=False)) if n_val else set()
    train_set = [s for s in usable if s.sequence.query_id not in val_ids]
    val_set = [s for s in usable if s.sequence.query_id in val_ids]
    if not train_set:  # degenerate split on tiny runs
        train_set, val_set = usable, []

    if state is None:
        state = SgdState()
    batches_per_epoch = (len(train_set) + run_config.batch_size - 1) // run_config.batch_size
    state.total_steps = run_config.epochs * batches_per_epoch

    out_dir = Path(out_dir) if out_dir is not None else None
    log_file = None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        log_file = open(out_dir / "loss_log.jsonl", "a" if start_epoch else "w")

    log, val_history = [], []
    best_val, best_epoch = None, -1
    aborted = 0
    try:
        for epoch in range(start_epoch, run_config.epochs):
            order = rng.permutation(len(train_set))
            for lo in range(0, len(order), run_config.batch_size):
                batch = [train_set[i] for i in order[lo:lo + run_config.batch_size]]
                lr = cosine_lr(min(state.step, state.total_steps),
                               state.total_steps, state.lr0)
                record = _train_step(batch, params, loss_config, state, lr)
                record.update(epoch=epoch, step=state.step, lr=lr)
                if record.pop("aborted", False):
                    aborted += 1
                log.append(record)
                if log_file is not None:
                    keys = ("epoch", "step", "lr", "loss_contrastive",
                            "loss_mse", "loss_total")
                    log_file.write(json.dumps({k: record[k] for k in keys}) + "\n")
                if log_hook is not None:
                    log_hook(record)

            val_map = _validate(val_set, params, run_config.batch_size)
            val_history.append(val_map)
            improved = val_map is not None and (best_val is None or val_map > best_val)
            if improved or best_epoch < 0:
                best_val = val_map if val_map is not None else best_val
                best_epoch = epoch
            if out_dir is not None:
                extra = {"epoch": epoch, "step": state.step,
                         "val_map": val_map, "best_val_map": best_val,
                         "loss_config": asdict(loss_config)}
                ckpt.save_checkpoint(out_dir / "last.ckpt", params,
                                     extra=extra, momentum=state.buffers)
                if improved or best_epoch == epoch:
                    ckpt.save_checkpoint(out_dir / "best.ckpt", params,
                                         extra=extra, momentum=state.buffers)
    finally:
        if log_file is not None:
            log_file.close()

    return TrainResult(params, state, log, val_history, best_epoch,
                       best_val, len(usable), n_skipped, aborted)


# Samples per forward/backward micro-batch. Small, so that a micro-batch's
# intermediates stay in cache between its forward and its backward: in an
# interleaved sweep of train-small's train() (8 rounds, 1 BLAS thread, 2-CPU
# Xeon) 1, 2, 4 and 8 gave medians of 143, 151, 149 and 140 samples/s, and 2
# beat each other size in 5 or more of the 8 rounds. Gradients are summed
# over micro-batches, so this changes results only by float rounding.
_CHUNK = 2


def _train_step(batch, params, loss_config, state, lr):
    lc_sum = lm_sum = 0.0
    n_used = 0
    grads = None
    for lo in range(0, len(batch), _CHUNK):
        part = batch[lo:lo + _CHUNK]
        values = np.stack([s.sequence.values for s in part])
        valid = np.stack([s.sequence.valid for s in part])
        trace = encoder_trace(values, params, valid=valid)
        refined, recon = trace.refined, trace.recon

        d_refined = np.zeros_like(refined)
        d_recon = np.zeros_like(recon)
        chunk_used = 0
        for i, sample in enumerate(part):
            rel, v = sample.relevance, sample.sequence.valid
            try:
                lc, g_lc = contrastive_loss(refined[i], rel, loss_config.tau, v)
            except NoPositivesError:
                continue
            lm_raw, g_lm = mse_loss(values[i], recon[i], v)
            n_el = int(v.sum()) * values.shape[2]
            chunk_used += 1
            lc_sum += lc
            lm_sum += lm_raw / n_el
            d_refined[i] = g_lc
            d_recon[i] = (loss_config.lam / n_el) * g_lm

        if chunk_used:
            part_grads, _ = encoder_backward(trace, d_refined, d_recon)
            if grads is None:
                grads = part_grads
            else:
                for name in grads:
                    grads[name] += part_grads[name]
            n_used += chunk_used
        del trace

    if n_used == 0:
        return {"loss_contrastive": float("nan"), "loss_mse": float("nan"),
                "loss_total": float("nan"), "batch_used": 0,
                "batch_skipped": len(batch), "aborted": True}
    for name in grads:
        grads[name] /= n_used
    lc_mean = lc_sum / n_used
    lm_mean = lm_sum / n_used
    record = {
        "loss_contrastive": lc_mean,
        "loss_mse": lm_mean,
        "loss_total": total_loss(lc_mean, lm_mean, loss_config.lam),
        "batch_used": n_used,
        "batch_skipped": len(batch) - n_used,
    }
    try:
        sgd_step(params, grads, state, lr)
    except NonFiniteGradientError:
        record["aborted"] = True
    return record


def _validate(val_set, params, batch_size):
    if not val_set:
        return None
    aps = []
    for lo in range(0, len(val_set), min(batch_size, _CHUNK)):
        chunk = val_set[lo:lo + min(batch_size, _CHUNK)]
        values = np.stack([s.sequence.values for s in chunk])
        valid = np.stack([s.sequence.valid for s in chunk])
        refined = encoder_forward(values, params, valid=valid)
        for i, sample in enumerate(chunk):
            ap = _sample_ap(refined[i], sample.relevance, sample.sequence.valid)
            if ap is not None:
                aps.append(ap)
    return float(np.mean(aps)) if aps else None

