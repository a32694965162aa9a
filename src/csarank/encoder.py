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

Two paths run the model. :func:`encoder_forward` serves: it is plain numpy
with all heads of a layer computed as one batched op, records nothing and
is what re-ranking and validation call. :func:`encoder_trace` trains: it
records every op on a :class:`~csarank.kernels.Tape` so that
:func:`encoder_backward` can walk it, and is called only by the training
step.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .kernels import ShapeError, Tape, softmax_rows, layer_norm_rows, gelu, matmul

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

    def astype(self, dtype) -> "EncoderParams":
        return EncoderParams(
            {k: v.astype(dtype) for k, v in self.tensors.items()}, self.config
        )

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
# forward / backward
# ---------------------------------------------------------------------------

@dataclass
class EncoderTrace:
    """Recorded forward pass: holds the tape plus handles to inputs and outputs."""

    tape: Tape
    x: object            # input leaf (affinity values)
    params: dict         # name -> leaf TapeVar
    refined: object      # hidden-width output rows
    recon: object        # affinity-space reconstruction
    config: EncoderConfig


def _key_mask_bias(valid: np.ndarray, dtype) -> np.ndarray:
    """Additive logit bias that hides padded keys from every query row."""
    bias = np.where(valid, 0.0, MASK_LOGIT_BIAS).astype(dtype)
    return bias[..., None, :]  # broadcast over query rows


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
    fused = tape.matmul(heads[0] if len(heads) == 1 else tape.concat(heads),
                        pv[f"{prefix}.attn.fuse"])
    return fused


def _ffn_block(tape, h, pv, prefix):
    f = tape.add(tape.matmul(h, pv[f"{prefix}.ffn.w1"]), pv[f"{prefix}.ffn.b1"])
    f = tape.gelu(f)
    return tape.add(tape.matmul(f, pv[f"{prefix}.ffn.w2"]), pv[f"{prefix}.ffn.b2"])


def _sublayer(tape, h, sub_out, gain, bias, style):
    if style == "ln_then_add":
        return tape.add(h, tape.layer_norm_rows(sub_out, gain, bias))
    return tape.layer_norm_rows(tape.add(h, sub_out), gain, bias)


def _check_columns(values: np.ndarray, config: EncoderConfig) -> None:
    if values.shape[-1] != config.input_len:
        raise ShapeError(
            f"affinity rows have {values.shape[-1]} columns, "
            f"projection expects {config.input_len}"
        )


def encoder_trace(values: np.ndarray, params: EncoderParams,
                  valid: np.ndarray = None) -> EncoderTrace:
    """Run the full model on a tape and return handles for a later backward.

    This is the training path: every intermediate stays on the tape until
    :func:`encoder_backward` has used it. Serving calls
    :func:`encoder_forward` instead.

    ``values`` is (K, L) or a stacked batch (B, K, L); ``valid`` marks real
    candidate rows (padding rows are hidden from attention).
    """
    config = params.config
    values = np.asarray(values)
    _check_columns(values, config)
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
    return EncoderTrace(tape, x, pv, h, recon, config)


def encoder_forward(values: np.ndarray, params: EncoderParams,
                    valid: np.ndarray = None) -> np.ndarray:
    """Refined rows for one affinity matrix (or a stacked batch of them).

    This is the serving path used by re-ranking and validation: the
    projection followed by :func:`encoder_layer_forward` per layer, in plain
    numpy, with no tape and no reconstruction head. It agrees with
    ``encoder_trace(...).refined.value`` to float rounding.
    """
    values = np.asarray(values)
    _check_columns(values, params.config)
    t = params.tensors
    h = matmul(values, t["proj.w"])
    h += t["proj.b"]
    for i in range(params.config.depth):
        h = encoder_layer_forward(h, params, i, valid)
    return h


def mse_head_forward(refined: np.ndarray, params: EncoderParams) -> np.ndarray:
    """Map refined rows back to affinity space: w2 . gelu(w1 . row + b1) + b2."""
    t = params.tensors
    hidden = gelu(matmul(np.asarray(refined), t["mse.w1"]) + t["mse.b1"])
    return matmul(hidden, t["mse.w2"]) + t["mse.b2"]


def mha_forward(x: np.ndarray, params: EncoderParams, layer: int = 0,
                valid: np.ndarray = None, return_weights: bool = False):
    """Multi-head attention of one layer on hidden-width rows ``x``.

    Per head: softmax(Q K^T / sqrt(d)) V with padded keys pushed to -1e9
    logits; head outputs are concatenated and fused by the layer's output
    projection. All heads run as one batched op: a single QKV product
    against the per-head tensors concatenated (1/sqrt(d) folded into the Q
    block), then (..., H, K, d) attention. With ``return_weights`` also
    returns the attention weights, shape (..., H, K, K).
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
    if return_weights:
        return fused, attn
    return fused


def encoder_layer_forward(x: np.ndarray, params: EncoderParams, layer: int = 0,
                          valid: np.ndarray = None) -> np.ndarray:
    """One encoder layer: attention sublayer then feed-forward sublayer."""
    x = np.asarray(x)
    t = params.tensors
    config = params.config
    p = f"layers.{layer}"

    def sub(h, out, gain, bias):
        if config.sublayer_style == "ln_then_add":
            out = layer_norm_rows(out, gain, bias)
            out += h
            return out
        out += h
        return layer_norm_rows(out, gain, bias)

    h = sub(x, mha_forward(x, params, layer, valid),
            t[f"{p}.ln1.gain"], t[f"{p}.ln1.bias"])
    f = matmul(h, t[f"{p}.ffn.w1"])
    f += t[f"{p}.ffn.b1"]
    f = matmul(gelu(f), t[f"{p}.ffn.w2"])
    f += t[f"{p}.ffn.b2"]
    return sub(h, f, t[f"{p}.ln2.gain"], t[f"{p}.ln2.bias"])


def encoder_backward(trace: EncoderTrace, grad_refined: np.ndarray = None,
                     grad_recon: np.ndarray = None):
    """Gradients of a scalar objective given its seeds at the model outputs.

    Returns (parameter gradient dict, gradient w.r.t. the input matrix).
    Missing gradients come back as zeros (the reconstruction head's tensors
    are unused when only ``grad_refined`` is seeded).
    """
    seeds = []
    if grad_refined is not None:
        seeds.append((trace.refined, grad_refined))
    if grad_recon is not None:
        seeds.append((trace.recon, grad_recon))
    if not seeds:
        raise ValueError("no gradient seeds given")
    trace.tape.backward(seeds)
    grads = {}
    for name, var in trace.params.items():
        grads[name] = (
            var.grad if var.grad is not None else np.zeros_like(var.value)
        )
    x_grad = trace.x.grad
    if x_grad is None:
        x_grad = np.zeros_like(trace.x.value)
    return grads, x_grad
