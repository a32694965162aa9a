"""Dense matrix kernels with reverse-mode adjoints.

All kernels operate on the last one or two axes of a numpy array, so a
2-D matrix and a stacked batch of matrices go through the same code path.
Row-wise operations (softmax, layer norm, L2 normalization) act on the
last axis. Everything is pure: inputs are never mutated.

Gradients are obtained by recording a composition of kernels on a
:class:`Tape` and walking it in reverse. Each kernel carries its own
adjoint rule; the rules are validated against central finite differences
in the test suite.
"""

from __future__ import annotations

import math

import numpy as np

GELU_C = math.sqrt(2.0 / math.pi)
LAYER_NORM_EPS = 1e-5


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; same seed gives the same stream on every platform."""
    return np.random.Generator(np.random.PCG64(seed))


# ---------------------------------------------------------------------------
# forward kernels
# ---------------------------------------------------------------------------

def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of the trailing two axes, broadcasting leading axes."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    return a @ b


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, stabilized by max subtraction."""
    x = np.asarray(x)
    e = x - x.max(axis=-1, keepdims=True)
    # In place on the fresh shifted copy; a 0-d result is a numpy scalar and
    # an integer one cannot hold exp, so those take a new array.
    e = np.exp(e, out=e) if e.ndim and e.dtype.kind == "f" else np.exp(e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def layer_norm_rows(
    x: np.ndarray,
    gain: np.ndarray,
    bias: np.ndarray,
    eps: float = LAYER_NORM_EPS,
) -> np.ndarray:
    """Standardize each row to zero mean / unit variance, then apply gain and bias."""
    x = np.asarray(x)
    gain = np.asarray(gain)
    bias = np.asarray(bias)
    if gain.shape[-1] != x.shape[-1] or bias.shape[-1] != x.shape[-1]:
        raise ShapeError(
            f"layer_norm gain/bias of dim {gain.shape}/{bias.shape} "
            f"do not match rows of dim {x.shape[-1]}"
        )
    out = x - x.mean(axis=-1, keepdims=True)
    std = np.mean(out * out, axis=-1, keepdims=True)
    std += np.asarray(eps, dtype=x.dtype)
    np.sqrt(std, out=std)
    out /= std
    out *= gain
    out += bias
    return out


def gelu(x: np.ndarray) -> np.ndarray:
    """GELU activation, tanh form: 0.5*x*(1 + tanh(c*(x + 0.044715*x^3)))."""
    x = np.asarray(x)
    # np.asarray keeps a 0-d product an array, so every step below can
    # write into the one temporary.
    t = np.asarray(np.asarray(0.044715, dtype=x.dtype) * x)
    t *= x
    t *= x
    t += x
    t *= np.asarray(GELU_C, dtype=x.dtype)
    np.tanh(t, out=t)
    t += 1
    t *= x
    t *= np.asarray(0.5, dtype=x.dtype)
    return t


def l2_normalize_rows(x: np.ndarray) -> np.ndarray:
    """Scale each row to unit L2 norm; zero rows pass through unchanged."""
    x = np.asarray(x)
    norms = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    safe = np.where(norms == 0, np.asarray(1.0, dtype=x.dtype), norms)
    return x / safe


def query_cosines(rows: np.ndarray) -> np.ndarray:
    """Cosine of every row to row 0 (the query row); a zero row scores 0.

    The one scorer of refined rows, shared by re-ranking and validation.
    """
    u = l2_normalize_rows(rows)
    return u @ u[0]


# ---------------------------------------------------------------------------
# reverse-mode tape
# ---------------------------------------------------------------------------

def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to ``shape`` by summing expanded axes."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _swap(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


class TapeVar:
    """A value recorded on a tape, with a slot for its accumulated gradient."""

    __slots__ = ("value", "grad", "tape")

    def __init__(self, value: np.ndarray, tape: "Tape"):
        self.value = value
        self.grad = None
        self.tape = tape

    @property
    def shape(self):
        return self.value.shape


class Tape:
    """Records a forward composition of kernels for reverse-mode gradients.

    Usage: wrap inputs/parameters with :meth:`leaf`, compose with the op
    methods, then call :meth:`backward` with gradient seeds at one or more
    outputs. After backward, every ``TapeVar.grad`` holds the gradient of
    the seeded scalar objective with respect to that variable.
    """

    def __init__(self):
        self._records = []  # (out_var, parent_vars, backward_fn)

    # -- recording ----------------------------------------------------------

    def leaf(self, value: np.ndarray) -> TapeVar:
        var = TapeVar(np.asarray(value), self)
        self._records.append((var, (), None))
        return var

    def _emit(self, value, parents, backward_fn) -> TapeVar:
        for p in parents:
            if p.tape is not self:
                raise ValueError("operand was recorded on a different tape")
        var = TapeVar(value, self)
        self._records.append((var, parents, backward_fn))
        return var

    # -- ops ----------------------------------------------------------------

    def matmul(self, a: TapeVar, b: TapeVar) -> TapeVar:
        out = matmul(a.value, b.value)

        def bwd(g):
            ga = _unbroadcast(g @ _swap(b.value), a.value.shape)
            gb = _unbroadcast(_swap(a.value) @ g, b.value.shape)
            return ga, gb

        return self._emit(out, (a, b), bwd)

    def add(self, a: TapeVar, b: TapeVar) -> TapeVar:
        out = a.value + b.value

        def bwd(g):
            return _unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)

        return self._emit(out, (a, b), bwd)

    def add_const(self, a: TapeVar, const: np.ndarray) -> TapeVar:
        out = a.value + const

        def bwd(g):
            return (_unbroadcast(g, a.value.shape),)

        return self._emit(out, (a,), bwd)

    def scale(self, a: TapeVar, factor: float) -> TapeVar:
        f = np.asarray(factor, dtype=a.value.dtype)
        out = a.value * f

        def bwd(g):
            return (g * f,)

        return self._emit(out, (a,), bwd)

    def transpose(self, a: TapeVar) -> TapeVar:
        out = _swap(a.value)

        def bwd(g):
            return (_swap(g),)

        return self._emit(out, (a,), bwd)

    def concat(self, parts: list) -> TapeVar:
        out = np.concatenate([p.value for p in parts], axis=-1)
        widths = [p.value.shape[-1] for p in parts]
        offsets = np.cumsum(widths)[:-1]

        def bwd(g):
            return tuple(np.split(g, offsets, axis=-1))

        return self._emit(out, tuple(parts), bwd)

    def softmax_rows(self, a: TapeVar) -> TapeVar:
        out = softmax_rows(a.value)

        def bwd(g):
            inner = (g * out).sum(axis=-1, keepdims=True)
            return (out * (g - inner),)

        return self._emit(out, (a,), bwd)

    def layer_norm_rows(self, a: TapeVar, gain: TapeVar, bias: TapeVar,
                        eps: float = LAYER_NORM_EPS) -> TapeVar:
        x = a.value
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = np.mean(centered * centered, axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.dtype))
        normed = centered * inv
        out = normed * gain.value + bias.value

        def bwd(g):
            dgain = _unbroadcast(g * normed, gain.value.shape)
            dbias = _unbroadcast(g, bias.value.shape)
            dn = g * gain.value
            dx = inv * (
                dn
                - dn.mean(axis=-1, keepdims=True)
                - normed * (dn * normed).mean(axis=-1, keepdims=True)
            )
            return dx, dgain, dbias

        return self._emit(out, (a, gain, bias), bwd)

    def gelu(self, a: TapeVar) -> TapeVar:
        x = a.value
        c = np.asarray(GELU_C, dtype=x.dtype)
        k = np.asarray(0.044715, dtype=x.dtype)
        t = np.tanh(c * (x + k * x * x * x))
        half = np.asarray(0.5, dtype=x.dtype)
        out = half * x * (1 + t)

        def bwd(g):
            du = c * (1 + 3 * k * x * x)
            dx = half * (1 + t) + half * x * (1 - t * t) * du
            return (g * dx,)

        return self._emit(out, (a,), bwd)

    def l2_normalize_rows(self, a: TapeVar) -> TapeVar:
        x = a.value
        norms = np.sqrt((x * x).sum(axis=-1, keepdims=True))
        safe = np.where(norms == 0, np.asarray(1.0, dtype=x.dtype), norms)
        out = x / safe

        def bwd(g):
            inner = (g * out).sum(axis=-1, keepdims=True)
            return ((g - out * inner) / safe,)

        return self._emit(out, (a,), bwd)

    # -- reverse pass --------------------------------------------------------

    def backward(self, seeds) -> None:
        """Accumulate gradients from ``seeds``, a list of (var, gradient) pairs.

        Raises if nothing was recorded or a seeded variable belongs to another
        tape. Gradients of earlier backward calls on the same tape are reset.
        """
        if not self._records:
            raise ValueError("adjoint requested on an empty tape")
        for var, _, _ in self._records:
            var.grad = None
        for var, seed in seeds:
            if var.tape is not self:
                raise ValueError("seeded variable was not recorded on this tape")
            seed = np.asarray(seed)
            if seed.shape != var.value.shape:
                raise ShapeError(
                    f"seed shape {seed.shape} does not match output {var.value.shape}"
                )
            var.grad = seed.copy() if var.grad is None else var.grad + seed
        for var, parents, bwd in reversed(self._records):
            if var.grad is None or bwd is None:
                continue
            for parent, pgrad in zip(parents, bwd(var.grad)):
                if pgrad is None:
                    continue
                if parent.grad is None:
                    parent.grad = pgrad.copy()
                else:
                    parent.grad = parent.grad + pgrad
            var.grad = None  # non-leaf gradients are not needed past this point
