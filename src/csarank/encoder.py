"""Self-attention re-ranking model over affinity sequences.

Input rows (one per candidate, dimension L) are projected to a hidden
width, passed through a stack of multi-head self-attention + feed-forward
layers, and read out two ways: the refined rows themselves (used for
re-ranking scores) and a two-layer GELU head that maps them back to the
original affinity space (used for the reconstruction objective).

Both sublayers use the form ``x + LN(sub(x))`` by default; the
conventional ``LN(x + sub(x))`` is available via ``sublayer_style``.
There is no positional term anywhere, so the model is permutation
equivariant over candidates.

One layer implementation serves and trains. :func:`encoder_forward` is
what re-ranking and validation call: the projection, then
:func:`encoder_layer_forward` per layer, in plain numpy with all heads of a
layer computed as one batched op. :func:`encoder_trace` is the training
forward: the same layers, each given a cache dict to fill with what the
backward needs, then the reconstruction head. :func:`encoder_backward`
walks those caches in reverse, in the same batched-head form: every weight
gradient is one GEMM over the rows of all samples of the micro-batch, and
the per-head Q/K/V gradients are column blocks of one QKV gradient.
All GEMMs and forward kernels go through the names this module imports
from :mod:`csarank.kernels`.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .kernels import (
    ShapeError,
    gelu,
    gelu_grad,
    layer_norm_rows,
    layer_norm_rows_grad,
    matmul,
    softmax_rows,
    softmax_rows_grad,
)

MASK_LOGIT_BIAS = -1e9

SUBLAYER_STYLES = ("ln_then_add", "add_then_ln")


@dataclass(frozen=True)
class EncoderConfig:
    """Model shape. Defaults: 2 layers of 12 heads x 64 dims, hidden 768."""

    depth: int = 2
    heads: int = 12
    head_dim: int = 64
    hidden: int = 768
    input_len: int = 512
    ffn_mult: int = 4
    mse_head_hidden: int = 0  # 0 means "same as hidden"
    sublayer_style: str = "ln_then_add"

    def validate(self, allow_dim_mismatch: bool = False) -> "EncoderConfig":
        if self.depth < 0 or self.heads < 1 or self.head_dim < 1:
            raise ValueError(f"bad encoder config: {self}")
        if self.hidden < 1 or self.ffn_mult < 1 or self.input_len < 1:
            raise ValueError(f"bad encoder config: {self}")
        if self.sublayer_style not in SUBLAYER_STYLES:
            raise ValueError(f"unknown sublayer_style {self.sublayer_style!r}")
        if not allow_dim_mismatch and self.hidden != self.heads * self.head_dim:
            raise ValueError(
                f"hidden={self.hidden} != heads*head_dim="
                f"{self.heads * self.head_dim}; pass allow_dim_mismatch to override"
            )
        return self

    @property
    def mse_hidden(self) -> int:
        return self.mse_head_hidden if self.mse_head_hidden > 0 else self.hidden

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "EncoderConfig":
        return cls(**{k: d[k] for k in cls.__dataclass_fields__ if k in d})


def _tensor_shapes(config: EncoderConfig) -> dict:
    """Name -> shape for every learnable tensor, in a fixed order."""
    c = config
    shapes = {"proj.w": (c.input_len, c.hidden), "proj.b": (c.hidden,)}
    for i in range(c.depth):
        p = f"layers.{i}"
        for h in range(c.heads):
            shapes[f"{p}.attn.q.{h}"] = (c.hidden, c.head_dim)
            shapes[f"{p}.attn.k.{h}"] = (c.hidden, c.head_dim)
            shapes[f"{p}.attn.v.{h}"] = (c.hidden, c.head_dim)
        shapes[f"{p}.attn.fuse"] = (c.heads * c.head_dim, c.hidden)
        shapes[f"{p}.ln1.gain"] = (c.hidden,)
        shapes[f"{p}.ln1.bias"] = (c.hidden,)
        shapes[f"{p}.ffn.w1"] = (c.hidden, c.ffn_mult * c.hidden)
        shapes[f"{p}.ffn.b1"] = (c.ffn_mult * c.hidden,)
        shapes[f"{p}.ffn.w2"] = (c.ffn_mult * c.hidden, c.hidden)
        shapes[f"{p}.ffn.b2"] = (c.hidden,)
        shapes[f"{p}.ln2.gain"] = (c.hidden,)
        shapes[f"{p}.ln2.bias"] = (c.hidden,)
    shapes["mse.w1"] = (c.hidden, c.mse_hidden)
    shapes["mse.b1"] = (c.mse_hidden,)
    shapes["mse.w2"] = (c.mse_hidden, c.input_len)
    shapes["mse.b2"] = (c.input_len,)
    return shapes


class EncoderParams:
    """All learnable tensors of the model, keyed by dotted name."""

    def __init__(self, tensors: dict, config: EncoderConfig):
        expected = _tensor_shapes(config)
        missing = set(expected) - set(tensors)
        if missing:
            raise ValueError(f"missing tensors: {sorted(missing)}")
        for name, shape in expected.items():
            if tuple(tensors[name].shape) != shape:
                raise ShapeError(
                    f"tensor {name} has shape {tensors[name].shape}, expected {shape}"
                )
            if not np.all(np.isfinite(tensors[name])):
                raise ValueError(f"tensor {name} contains non-finite values")
        self.tensors = {name: tensors[name] for name in expected}
        self.config = config

    def param_count(self) -> int:
        return sum(t.size for t in self.tensors.values())

    def copy(self) -> "EncoderParams":
        return EncoderParams(
            {k: v.copy() for k, v in self.tensors.items()}, self.config
        )


def init_params(config: EncoderConfig, rng: np.random.Generator,
                dtype=np.float32) -> EncoderParams:
    """Scaled-uniform weights (bound 1/sqrt(fan_in)), zero biases, unit gains.

    Deterministic given the generator state: tensors are drawn in the fixed
    declaration order.
    """
    tensors = {}
    for name, shape in _tensor_shapes(config).items():
        if name.endswith(".gain"):
            tensors[name] = np.ones(shape, dtype=dtype)
        elif len(shape) == 1:
            tensors[name] = np.zeros(shape, dtype=dtype)
        else:
            bound = 1.0 / np.sqrt(shape[0])
            tensors[name] = rng.uniform(-bound, bound, size=shape).astype(dtype)
    return EncoderParams(tensors, config)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def _key_mask_bias(valid: np.ndarray, dtype) -> np.ndarray:
    """Additive logit bias that hides padded keys from every query row."""
    bias = np.where(valid, 0.0, MASK_LOGIT_BIAS).astype(dtype)
    return bias[..., None, :]  # broadcast over query rows


def _check_columns(values: np.ndarray, config: EncoderConfig) -> None:
    if values.shape[-1] != config.input_len:
        raise ShapeError(
            f"affinity rows have {values.shape[-1]} columns, "
            f"projection expects {config.input_len}"
        )


def encoder_forward(values: np.ndarray, params: EncoderParams,
                    valid: np.ndarray = None) -> np.ndarray:
    """Refined rows for one affinity matrix (or a stacked batch of them).

    This is the serving path used by re-ranking and validation: the
    projection followed by :func:`encoder_layer_forward` per layer, keeping
    nothing and with no reconstruction head. It gives the same rows as
    ``encoder_trace(...).refined``.
    """
    values = np.asarray(values)
    _check_columns(values, params.config)
    t = params.tensors
    h = matmul(values, t["proj.w"])
    h += t["proj.b"]
    for i in range(params.config.depth):
        h = encoder_layer_forward(h, params, i, valid)
    return h


def _mlp_forward(x: np.ndarray, params: EncoderParams, prefix: str,
                 cache: dict = None) -> np.ndarray:
    """w2 . gelu(w1 . row + b1) + b2 with the tensors named ``prefix.*``."""
    t = params.tensors
    pre = matmul(x, t[f"{prefix}.w1"])
    pre += t[f"{prefix}.b1"]
    if cache is None:
        act = gelu(pre)
    else:
        act, tanh = gelu(pre, return_tanh=True)
        cache.update(x=x, pre=pre, tanh=tanh, act=act)
    out = matmul(act, t[f"{prefix}.w2"])
    out += t[f"{prefix}.b2"]
    return out


def mse_head_forward(refined: np.ndarray, params: EncoderParams,
                     cache: dict = None) -> np.ndarray:
    """Map refined rows back to affinity space: w2 . gelu(w1 . row + b1) + b2.

    The reconstruction head of training. A ``cache`` dict gets what
    :func:`encoder_backward` needs.
    """
    return _mlp_forward(np.asarray(refined), params, "mse", cache)


def mha_forward(x: np.ndarray, params: EncoderParams, layer: int = 0,
                valid: np.ndarray = None, return_weights: bool = False,
                cache: dict = None):
    """Multi-head attention of one layer on hidden-width rows ``x``.

    Per head: softmax(Q K^T / sqrt(d)) V with padded keys pushed to -1e9
    logits; head outputs are concatenated and fused by the layer's output
    projection. All heads run as one batched op: a single QKV product
    against the per-head tensors concatenated (1/sqrt(d) folded into the Q
    block), then (..., H, K, d) attention. With ``return_weights`` also
    returns the attention weights, shape (..., H, K, K). A ``cache`` dict
    gets the input, the QKV weight and product, the weights and the merged
    heads.
    """
    x = np.asarray(x)
    t = params.tensors
    heads, d = params.config.heads, params.config.head_dim
    prefix = f"layers.{layer}"
    w = np.concatenate([t[f"{prefix}.attn.{part}.{hd}"]
                        for part in "qkv" for hd in range(heads)], axis=1)
    w[:, :heads * d] *= np.asarray(1.0 / np.sqrt(d), dtype=w.dtype)
    qkv = matmul(x, w).reshape(*x.shape[:-1], 3, heads, d)
    q, k, v = (np.swapaxes(qkv[..., i, :, :], -2, -3) for i in range(3))
    scores = matmul(q, np.swapaxes(k, -1, -2))  # (..., H, K, K)
    if valid is not None and not np.all(valid):
        scores += _key_mask_bias(np.asarray(valid, dtype=bool), x.dtype)[..., None, :, :]
    attn = softmax_rows(scores)
    merged = np.swapaxes(matmul(attn, v), -2, -3).reshape(*x.shape[:-1], heads * d)
    fused = matmul(merged, t[f"{prefix}.attn.fuse"])
    if cache is not None:
        cache.update(x=x, w_qkv=w, q=q, k=k, v=v, attn=attn, merged=merged)
    if return_weights:
        return fused, attn
    return fused


def encoder_layer_forward(x: np.ndarray, params: EncoderParams, layer: int = 0,
                          valid: np.ndarray = None, cache: dict = None) -> np.ndarray:
    """One encoder layer: attention sublayer then feed-forward sublayer.

    A ``cache`` dict gets what :func:`encoder_layer_backward` needs: the
    attention's and the FFN's own caches plus each layer norm's normed rows
    and std. Without one the layer keeps nothing.
    """
    x = np.asarray(x)
    t = params.tensors
    p = f"layers.{layer}"
    ln_then_add = params.config.sublayer_style == "ln_then_add"

    def sub(h, out, ln):
        gain, bias = t[f"{p}.{ln}.gain"], t[f"{p}.{ln}.bias"]
        if not ln_then_add:
            out += h
        if cache is None:
            out = layer_norm_rows(out, gain, bias)
        else:
            out, normed, std = layer_norm_rows(out, gain, bias, return_stats=True)
            cache[ln] = (normed, std)
        if ln_then_add:
            out += h
        return out

    mha = ffn = None
    if cache is not None:
        mha = cache["mha"] = {}
        ffn = cache["ffn"] = {}
    h = sub(x, mha_forward(x, params, layer, valid, cache=mha), "ln1")
    return sub(h, _mlp_forward(h, params, f"{p}.ffn", ffn), "ln2")


@dataclass
class EncoderTrace:
    """A training forward: its outputs plus the caches encoder_backward reads.

    Plain arrays and dicts with no reference cycles, so dropping the last
    reference frees it at once.
    """

    params: EncoderParams
    values: np.ndarray   # input affinity rows
    layers: list         # one encoder_layer_forward cache per layer
    head: dict           # the reconstruction head's cache
    refined: np.ndarray  # hidden-width output rows
    recon: np.ndarray    # affinity-space reconstruction


def encoder_trace(values: np.ndarray, params: EncoderParams,
                  valid: np.ndarray = None) -> EncoderTrace:
    """Run the full model, keeping what :func:`encoder_backward` needs.

    This is the training forward: the projection, the layers of
    :func:`encoder_forward` each with a cache, then the reconstruction head.
    ``values`` is (K, L) or a stacked batch (B, K, L); ``valid`` marks real
    candidate rows (padding rows are hidden from attention).
    """
    values = np.asarray(values)
    _check_columns(values, params.config)
    t = params.tensors
    h = matmul(values, t["proj.w"])
    h += t["proj.b"]
    layers = []
    for i in range(params.config.depth):
        layers.append({})
        h = encoder_layer_forward(h, params, i, valid, cache=layers[-1])
    head = {}
    recon = mse_head_forward(h, params, cache=head)
    return EncoderTrace(params, values, layers, head, h, recon)


# ---------------------------------------------------------------------------
# backward: each step takes the gradient of its output, adds its weight
# gradients to ``grads`` and returns the gradient of its input
# ---------------------------------------------------------------------------

def _weight_grad(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """a^T g over the rows of every sample: one GEMM."""
    return matmul(a.reshape(-1, a.shape[-1]).T, g.reshape(-1, g.shape[-1]))


def _bias_grad(g: np.ndarray) -> np.ndarray:
    return g.reshape(-1, g.shape[-1]).sum(axis=0)


def _mlp_backward(cache: dict, d_out: np.ndarray, params: EncoderParams,
                  prefix: str, grads: dict) -> np.ndarray:
    t = params.tensors
    grads[f"{prefix}.w2"] = _weight_grad(cache["act"], d_out)
    grads[f"{prefix}.b2"] = _bias_grad(d_out)
    d_pre = gelu_grad(cache["pre"], cache["tanh"],
                      matmul(d_out, t[f"{prefix}.w2"].T))
    grads[f"{prefix}.w1"] = _weight_grad(cache["x"], d_pre)
    grads[f"{prefix}.b1"] = _bias_grad(d_pre)
    return matmul(d_pre, t[f"{prefix}.w1"].T)


def _mha_backward(cache: dict, d_fused: np.ndarray, params: EncoderParams,
                  layer: int, grads: dict) -> np.ndarray:
    """All heads at once; each head's Q/K/V gradient is a column block of
    one dW_qkv, with the 1/sqrt(d) that the forward folded into Q."""
    t = params.tensors
    heads, d = params.config.heads, params.config.head_dim
    p = f"layers.{layer}"
    x, attn = cache["x"], cache["attn"]
    lead = x.shape[:-1]
    grads[f"{p}.attn.fuse"] = _weight_grad(cache["merged"], d_fused)
    d_merged = matmul(d_fused, t[f"{p}.attn.fuse"].T)
    d_ctx = np.swapaxes(d_merged.reshape(*lead, heads, d), -2, -3)  # (..., H, K, d)
    d_v = matmul(np.swapaxes(attn, -1, -2), d_ctx)
    d_scores = softmax_rows_grad(attn, matmul(d_ctx, np.swapaxes(cache["v"], -1, -2)))
    d_q = matmul(d_scores, cache["k"])
    d_k = matmul(np.swapaxes(d_scores, -1, -2), cache["q"])
    d_qkv = np.stack([np.swapaxes(g, -2, -3) for g in (d_q, d_k, d_v)], axis=-3)
    d_qkv = d_qkv.reshape(*lead, 3 * heads * d)
    dw = _weight_grad(x, d_qkv)
    dw[:, :heads * d] *= np.asarray(1.0 / np.sqrt(d), dtype=dw.dtype)
    for i, part in enumerate("qkv"):
        for hd in range(heads):
            col = (i * heads + hd) * d
            grads[f"{p}.attn.{part}.{hd}"] = dw[:, col:col + d]
    return matmul(d_qkv, cache["w_qkv"].T)


def encoder_layer_backward(cache: dict, d_out: np.ndarray, params: EncoderParams,
                           layer: int, grads: dict) -> np.ndarray:
    """Backward of :func:`encoder_layer_forward` from the cache it filled."""
    t = params.tensors
    p = f"layers.{layer}"
    ln_then_add = params.config.sublayer_style == "ln_then_add"

    def sub(ln, d_y):
        # x + LN(s): dx = dy, ds = LN'(dy); LN(x + s): dx = ds = LN'(dy)
        normed, std = cache[ln]
        d_ln, grads[f"{p}.{ln}.gain"], grads[f"{p}.{ln}.bias"] = \
            layer_norm_rows_grad(d_y, normed, std, t[f"{p}.{ln}.gain"])
        return (d_y if ln_then_add else d_ln), d_ln

    d_h, d_ffn = sub("ln2", d_out)
    d_in = _mlp_backward(cache["ffn"], d_ffn, params, f"{p}.ffn", grads)
    d_in += d_h
    d_x, d_mha = sub("ln1", d_in)
    d_in = _mha_backward(cache["mha"], d_mha, params, layer, grads)
    d_in += d_x
    return d_in


def _seed(grad: np.ndarray, out: np.ndarray) -> np.ndarray:
    grad = np.asarray(grad)
    if grad.shape != out.shape:
        raise ShapeError(f"seed shape {grad.shape} does not match output {out.shape}")
    return grad


def encoder_backward(trace: EncoderTrace, grad_refined: np.ndarray = None,
                     grad_recon: np.ndarray = None):
    """Gradients of a scalar objective given its seeds at the model outputs.

    Walks the trace's caches in reverse: the reconstruction head, the
    layers, then the projection. Returns (parameter gradient dict, in the
    parameters' order; gradient w.r.t. the input values). With no
    ``grad_recon`` the reconstruction head's gradients are zeros.
    """
    if grad_refined is None and grad_recon is None:
        raise ValueError("no gradient seeds given")
    params = trace.params
    t = params.tensors
    grads = {}
    if grad_recon is None:
        for name in ("mse.w1", "mse.b1", "mse.w2", "mse.b2"):
            grads[name] = np.zeros_like(t[name])
        d_h = _seed(grad_refined, trace.refined)
    else:
        d_h = _mlp_backward(trace.head, _seed(grad_recon, trace.recon), params,
                            "mse", grads)
        if grad_refined is not None:
            d_h += _seed(grad_refined, trace.refined)
    for i in reversed(range(params.config.depth)):
        d_h = encoder_layer_backward(trace.layers[i], d_h, params, i, grads)
    grads["proj.w"] = _weight_grad(trace.values, d_h)
    grads["proj.b"] = _bias_grad(d_h)
    d_values = matmul(d_h, t["proj.w"].T)
    return {name: grads[name] for name in t}, d_values
