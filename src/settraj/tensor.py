"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything here is numpy-backed. Forward values are computed eagerly; when a
``Tape`` is active each operation records a backward rule so that a single
reverse sweep populates ``.grad`` on every tensor the loss can reach. Ops
raise ``NumericsError`` if a forward result contains NaN/Inf, so numerical
trouble surfaces at the op that caused it instead of propagating silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, NumericsError, ShapeError

__all__ = [
    "ConfigError", "NumericsError", "ShapeError",
    "DiffTensor", "Parameter", "Tape", "GradCheckReport",
    "active_tape", "add", "affine", "as_tensor", "backward", "concat_axis",
    "div", "euclidean_norm", "grad_check", "layer_norm",
    "log_clamped", "matmul", "mul", "relu", "reshape", "scale", "sigmoid",
    "softmax_rows", "split_axis", "tensor_sum", "transpose",
    "xavier_normal_init",
]

_TAPE_STACK: list["Tape"] = []


def active_tape() -> Optional["Tape"]:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class DiffTensor:
    """A dense float64 array plus an optional gradient of the same shape."""

    __slots__ = ("values", "grad", "node_id")

    def __init__(self, values):
        arr = np.ascontiguousarray(values, dtype=np.float64)
        self.values = arr
        self.grad: Optional[np.ndarray] = None
        self.node_id: Optional[int] = None

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.values.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def sum(self, axis=None, keepdims: bool = False) -> "DiffTensor":
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None) -> "DiffTensor":
        n = self.values.size if axis is None else self.values.shape[axis]
        return scale(tensor_sum(self, axis=axis), 1.0 / n)

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return add(self, scale(as_tensor(other), -1.0))

    def __rsub__(self, other):
        return add(other, scale(self, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def __repr__(self):
        return f"DiffTensor(shape={self.shape})"


@dataclass
class Parameter:
    """A named learnable tensor. Names are dotted paths, unique per model."""

    name: str
    tensor: DiffTensor


@dataclass
class Tape:
    """Ordered record of operations for one reverse-mode sweep.

    A tape is single-writer: build a forward pass inside ``with Tape() as t:``
    and call :func:`backward` once. Tapes confined to different forward passes
    are independent; parameter gradients accumulate across sweeps until
    explicitly zeroed.
    """

    ops: list = field(default_factory=list)  # (output, inputs, rule) triples
    watched: list = field(default_factory=list)

    def record(self, output: DiffTensor, inputs: Sequence[DiffTensor],
               rule: Callable[[np.ndarray], None]) -> None:
        output.node_id = len(self.ops)
        self.ops.append((output, inputs, rule))

    def watch(self, t: DiffTensor) -> None:
        """Guarantee ``t.grad`` is populated (zeros if unreached) by backward."""
        self.watched.append(t)

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self


def backward(loss: DiffTensor, tape: Tape) -> None:
    """Populate ``.grad`` for every tensor on ``tape`` reachable from ``loss``.

    ``loss`` must be scalar. Gradients accumulate (+=) into any pre-existing
    grads, which is what batched training relies on. Watched tensors that the
    loss cannot reach end up with all-zero grads.
    """
    if loss.values.size != 1:
        raise ShapeError(f"backward() needs a scalar loss, got shape {loss.shape}")
    for t in tape.watched:
        if t.grad is None:
            t.grad = np.zeros_like(t.values)
    if loss.grad is None:
        loss.grad = np.zeros_like(loss.values)
    loss.grad = loss.grad + np.ones_like(loss.values)
    for output, _inputs, rule in reversed(tape.ops):
        if output.grad is not None:
            rule(output.grad)


def as_tensor(x) -> DiffTensor:
    return x if isinstance(x, DiffTensor) else DiffTensor(x)


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericsError(f"{op} produced non-finite values")


def _emit(values: np.ndarray, inputs: Sequence[DiffTensor],
          rule: Callable[[np.ndarray], None], op: str) -> DiffTensor:
    _check_finite(values, op)
    out = DiffTensor(values)
    tape = active_tape()
    if tape is not None:
        tape.record(out, inputs, rule)
    return out


def _accum(t: DiffTensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.array(np.broadcast_to(g, t.values.shape), dtype=np.float64)
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape``, undoing numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------

def add(a, b) -> DiffTensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            out = a.values + b.values
    except ValueError as e:
        raise ShapeError(f"add: {a.shape} vs {b.shape}") from e

    def rule(g):
        _accum(a, _unbroadcast(g, a.values.shape))
        _accum(b, _unbroadcast(g, b.values.shape))

    return _emit(out, (a, b), rule, "add")


def mul(a, b) -> DiffTensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            out = a.values * b.values
    except ValueError as e:
        raise ShapeError(f"mul: {a.shape} vs {b.shape}") from e

    def rule(g):
        _accum(a, _unbroadcast(g * b.values, a.values.shape))
        _accum(b, _unbroadcast(g * a.values, b.values.shape))

    return _emit(out, (a, b), rule, "mul")


def div(a, b) -> DiffTensor:
    a, b = as_tensor(a), as_tensor(b)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = a.values / b.values

    def rule(g):
        _accum(a, _unbroadcast(g / b.values, a.values.shape))
        _accum(b, _unbroadcast(-g * a.values / (b.values * b.values), b.values.shape))

    return _emit(out, (a, b), rule, "div")


def scale(x, c: float) -> DiffTensor:
    x = as_tensor(x)
    c = float(c)
    out = x.values * c

    def rule(g):
        _accum(x, g * c)

    return _emit(out, (x,), rule, "scale")


def relu(x) -> DiffTensor:
    x = as_tensor(x)
    out = np.maximum(x.values, 0.0)
    mask = (x.values > 0.0).astype(np.float64)  # subgradient at 0 is 0

    def rule(g):
        _accum(x, g * mask)

    return _emit(out, (x,), rule, "relu")


def sigmoid(x) -> DiffTensor:
    x = as_tensor(x)
    v = x.values
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)

    def rule(g):
        _accum(x, g * out * (1.0 - out))

    return _emit(out, (x,), rule, "sigmoid")


def log_clamped(x, floor: float = 1e-12) -> DiffTensor:
    """log(max(x, floor)); keeps cross-entropy finite for vanishing inputs."""
    x = as_tensor(x)
    clamped = np.maximum(x.values, floor)
    out = np.log(clamped)
    live = (x.values > floor).astype(np.float64)

    def rule(g):
        _accum(x, g * live / clamped)

    return _emit(out, (x,), rule, "log_clamped")


def tensor_sum(x, axis=None, keepdims: bool = False) -> DiffTensor:
    x = as_tensor(x)
    out = x.values.sum(axis=axis, keepdims=keepdims)

    def rule(g):
        if axis is None:
            _accum(x, np.full_like(x.values, np.ravel(g)[0]))
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            _accum(x, np.broadcast_to(gg, x.values.shape).copy())

    return _emit(np.asarray(out), (x,), rule, "sum")


def euclidean_norm(x) -> DiffTensor:
    """L2 norm over the last axis. Subgradient at a zero vector is zero."""
    x = as_tensor(x)
    sq = np.sum(x.values * x.values, axis=-1)
    out = np.sqrt(sq)
    safe = np.where(out > 0.0, out, 1.0)

    def rule(g):
        _accum(x, (g / safe)[..., None] * x.values)

    return _emit(out, (x,), rule, "euclidean_norm")


def transpose(x, axes=None) -> DiffTensor:
    x = as_tensor(x)
    out = np.transpose(x.values, axes).copy()
    inv = None if axes is None else np.argsort(axes)

    def rule(g):
        _accum(x, np.transpose(g, inv))

    return _emit(out, (x,), rule, "transpose")


def reshape(x, shape) -> DiffTensor:
    x = as_tensor(x)
    try:
        out = x.values.reshape(shape).copy()
    except ValueError as e:
        raise ShapeError(f"reshape: {x.shape} -> {shape}") from e

    def rule(g):
        _accum(x, g.reshape(x.values.shape))

    return _emit(out, (x,), rule, "reshape")


def concat_axis(tensors: Sequence, axis: int) -> DiffTensor:
    parts = [as_tensor(t) for t in tensors]
    out = np.concatenate([p.values for p in parts], axis=axis)
    sizes = [p.values.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def rule(g):
        for p, gs in zip(parts, np.split(g, splits, axis=axis)):
            _accum(p, gs)

    return _emit(out, tuple(parts), rule, "concat_axis")


def split_axis(x, sizes: Sequence[int], axis: int) -> list:
    """Split into chunks of the given sizes; exact inverse of concat_axis."""
    x = as_tensor(x)
    if sum(sizes) != x.values.shape[axis]:
        raise ShapeError(f"split_axis: sizes {sizes} do not cover axis {axis} "
                         f"of shape {x.shape}")
    splits = np.cumsum(sizes)[:-1]
    pieces = np.split(x.values, splits, axis=axis)
    outs = []
    offset = 0
    for piece in pieces:
        start = offset
        width = piece.shape[axis]
        offset += width

        def rule(g, start=start, width=width):
            gx = np.zeros_like(x.values)
            sl = [slice(None)] * x.values.ndim
            sl[axis] = slice(start, start + width)
            gx[tuple(sl)] = g
            _accum(x, gx)

        outs.append(_emit(piece.copy(), (x,), rule, "split_axis"))
    return outs


# ---------------------------------------------------------------------------
# linear algebra and normalization
# ---------------------------------------------------------------------------

def matmul(a, b) -> DiffTensor:
    """Matrix product over the last two axes, broadcasting leading axes."""
    a, b = as_tensor(a), as_tensor(b)
    if a.values.ndim < 2 or b.values.ndim < 2:
        raise ShapeError("matmul needs at least 2-D operands")
    if a.values.shape[-1] != b.values.shape[-2]:
        raise ShapeError(f"matmul: inner dims {a.shape} vs {b.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = a.values @ b.values

    def rule(g):
        _accum(a, _unbroadcast(g @ np.swapaxes(b.values, -1, -2), a.values.shape))
        _accum(b, _unbroadcast(np.swapaxes(a.values, -1, -2) @ g, b.values.shape))

    return _emit(out, (a, b), rule, "matmul")


def softmax_rows(x) -> DiffTensor:
    """Softmax along the last axis with per-row max subtraction."""
    x = as_tensor(x)
    shifted = x.values - x.values.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def rule(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        _accum(x, (g - dot) * out)

    return _emit(out, (x,), rule, "softmax_rows")


def layer_norm(x, gain, bias, eps: float = 1e-5) -> DiffTensor:
    """Normalize the last axis to mean 0 / variance 1, then scale and shift."""
    x = as_tensor(x)
    gvals = gain.tensor if isinstance(gain, Parameter) else as_tensor(gain)
    bvals = bias.tensor if isinstance(bias, Parameter) else as_tensor(bias)
    d = x.values.shape[-1]
    if gvals.values.shape != (d,) or bvals.values.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias must have shape ({d},)")
    mu = x.values.mean(axis=-1, keepdims=True)
    centered = x.values - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    out = xhat * gvals.values + bvals.values

    def rule(g):
        lead = tuple(range(g.ndim - 1))
        _accum(gvals, (g * xhat).sum(axis=lead))
        _accum(bvals, g.sum(axis=lead))
        gx = g * gvals.values
        _accum(x, inv_std * (gx - gx.mean(axis=-1, keepdims=True)
                             - xhat * (gx * xhat).mean(axis=-1, keepdims=True)))

    return _emit(out, (x, gvals, bvals), rule, "layer_norm")


def affine(x, w, b) -> DiffTensor:
    """x @ w + b applied to every row of the leading axes."""
    x = as_tensor(x)
    wt = w.tensor if isinstance(w, Parameter) else as_tensor(w)
    bt = b.tensor if isinstance(b, Parameter) else as_tensor(b)
    if x.values.shape[-1] != wt.values.shape[0]:
        raise ShapeError(f"affine: input dim {x.shape} vs weight {wt.shape}")
    if bt.values.shape != (wt.values.shape[1],):
        raise ShapeError(f"affine: bias {bt.shape} vs weight {wt.shape}")
    out = x.values @ wt.values + bt.values

    def rule(g):
        lead_flat = g.reshape(-1, g.shape[-1])
        x_flat = x.values.reshape(-1, x.values.shape[-1])
        _accum(wt, x_flat.T @ lead_flat)
        _accum(bt, lead_flat.sum(axis=0))
        _accum(x, g @ wt.values.T)

    return _emit(out, (x, wt, bt), rule, "affine")


# ---------------------------------------------------------------------------
# initialization and verification
# ---------------------------------------------------------------------------

def xavier_normal_init(fan_in: int, fan_out: int, rng, shape=None) -> np.ndarray:
    """Normal samples with variance 2 / (fan_in + fan_out).

    ``rng`` is an integer seed or a ``numpy.random.Generator``. ``shape``
    defaults to ``(fan_in, fan_out)``.
    """
    if fan_in <= 0 or fan_out <= 0:
        raise ConfigError("fan sizes must be positive")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    std = np.sqrt(2.0 / (fan_in + fan_out))
    if shape is None:
        shape = (fan_in, fan_out)
    return gen.normal(0.0, std, size=shape)


@dataclass
class GradCheckReport:
    max_rel_error: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tol


def grad_check(f: Callable[[DiffTensor], DiffTensor], x: DiffTensor,
               step: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare the taped gradient of scalar-valued ``f`` at ``x`` against
    central finite differences.

    The reported error is ``|analytic - numeric| / max(|analytic|, |numeric|, 1)``
    maximized over elements: relative for large gradients, absolute for small.
    """
    x.grad = None
    with Tape() as tape:
        tape.watch(x)
        y = f(x)
        backward(y, tape)
    analytic = x.grad.copy()
    x.grad = None

    numeric = np.zeros_like(x.values)
    flat = x.values.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f(x).item()
        flat[i] = orig - step
        fm = f(x).item()
        flat[i] = orig
        nflat[i] = (fp - fm) / (2.0 * step)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    max_rel = float(np.max(np.abs(analytic - numeric) / denom)) if flat.size else 0.0
    return GradCheckReport(max_rel_error=max_rel, tol=tol)
