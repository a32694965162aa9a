"""Shared test helpers: finite differences, relative error, float64 parameters
and the taped model that is the gradient reference."""

import numpy as np

from csarank.encoder import EncoderParams, _key_mask_bias
from csarank.kernels import Tape


def central_diff(f, x: np.ndarray, eps: float = 1e-4) -> np.ndarray:
    """Central finite-difference gradient of scalar f at x (x is not mutated)."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x)
        flat[i] = orig - eps
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * eps)
    return grad


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray,
                floor: float = 1e-8) -> float:
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom))


def cast_params(params, dtype):
    """A copy of ``params`` with every tensor cast to ``dtype``."""
    return EncoderParams({k: v.astype(dtype) for k, v in params.tensors.items()},
                         params.config)


# ---------------------------------------------------------------------------
# The model composed op by op on a kernels.Tape, one head at a time: the
# reference that the hand-written batched-head backward must match.
# ---------------------------------------------------------------------------

class TapedTrace:
    """A taped forward: the tape plus handles to the input, parameters and outputs."""

    def __init__(self, tape, x, params, refined, recon):
        self.tape, self.x, self.params = tape, x, params
        self.refined, self.recon = refined, recon


def _attention_block(tape, h, pv, prefix, config, mask_bias):
    heads = []
    inv_sqrt = 1.0 / np.sqrt(config.head_dim)
    for hd in range(config.heads):
        q = tape.matmul(h, pv[f"{prefix}.attn.q.{hd}"])
        k = tape.matmul(h, pv[f"{prefix}.attn.k.{hd}"])
        v = tape.matmul(h, pv[f"{prefix}.attn.v.{hd}"])
        scores = tape.scale(tape.matmul(q, tape.transpose(k)), inv_sqrt)
        if mask_bias is not None:
            scores = tape.add_const(scores, mask_bias)
        attn = tape.softmax_rows(scores)
        heads.append(tape.matmul(attn, v))
    return tape.matmul(heads[0] if len(heads) == 1 else tape.concat(heads),
                       pv[f"{prefix}.attn.fuse"])


def _ffn_block(tape, h, pv, prefix):
    f = tape.add(tape.matmul(h, pv[f"{prefix}.ffn.w1"]), pv[f"{prefix}.ffn.b1"])
    f = tape.gelu(f)
    return tape.add(tape.matmul(f, pv[f"{prefix}.ffn.w2"]), pv[f"{prefix}.ffn.b2"])


def _sublayer(tape, h, sub_out, gain, bias, style):
    if style == "ln_then_add":
        return tape.add(h, tape.layer_norm_rows(sub_out, gain, bias))
    return tape.layer_norm_rows(tape.add(h, sub_out), gain, bias)


def taped_trace(values, params, valid=None) -> TapedTrace:
    """Run the full model on a fresh Tape; ``values`` is (K, L) or (B, K, L)."""
    config = params.config
    values = np.asarray(values)
    tape = Tape()
    pv = {name: tape.leaf(t) for name, t in params.tensors.items()}
    x = tape.leaf(values)
    mask_bias = None
    if valid is not None and not np.all(valid):
        mask_bias = _key_mask_bias(np.asarray(valid, dtype=bool), values.dtype)

    h = tape.add(tape.matmul(x, pv["proj.w"]), pv["proj.b"])
    style = config.sublayer_style
    for i in range(config.depth):
        p = f"layers.{i}"
        attn_out = _attention_block(tape, h, pv, p, config, mask_bias)
        h = _sublayer(tape, h, attn_out, pv[f"{p}.ln1.gain"], pv[f"{p}.ln1.bias"], style)
        ffn_out = _ffn_block(tape, h, pv, p)
        h = _sublayer(tape, h, ffn_out, pv[f"{p}.ln2.gain"], pv[f"{p}.ln2.bias"], style)

    m = tape.gelu(tape.add(tape.matmul(h, pv["mse.w1"]), pv["mse.b1"]))
    recon = tape.add(tape.matmul(m, pv["mse.w2"]), pv["mse.b2"])
    return TapedTrace(tape, x, pv, h, recon)


def taped_backward(trace: TapedTrace, grad_refined, grad_recon):
    """(parameter gradient dict, input gradient) of the seeded objective."""
    trace.tape.backward([(trace.refined, grad_refined), (trace.recon, grad_recon)])
    grads = {name: var.grad if var.grad is not None else np.zeros_like(var.value)
             for name, var in trace.params.items()}
    x_grad = trace.x.grad if trace.x.grad is not None else np.zeros_like(trace.x.value)
    return grads, x_grad
