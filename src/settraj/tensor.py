"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything here is numpy-backed. Forward values are computed eagerly; when a
``Tape`` is active each operation records a backward rule so that a single
reverse sweep populates ``.grad`` on every tensor the loss can reach. Ops
raise ``NumericsError`` if a forward result contains NaN/Inf, so numerical
trouble surfaces at the op that caused it instead of propagating silently.
"""

from __future__ import annotations

import ctypes
import platform
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, NumericsError, ShapeError

__all__ = [
    "ConfigError", "NumericsError", "ShapeError",
    "DiffTensor", "Tape", "GradCheckReport",
    "active_tape", "add", "affine", "as_tensor", "backward", "concat_axis",
    "div", "euclidean_norm", "grad_check", "layer_norm",
    "log_clamped", "matmul", "mul", "relu", "reshape", "scale", "sigmoid",
    "softmax_rows", "split_axis", "tensor_sum", "transpose",
    "xavier_normal_init",
]

_TAPE_STACK: list["Tape"] = []


def _keep_freed_memory_mapped() -> None:
    """Keep the memory a training step frees mapped for the next step.

    A desk training sequence builds about 13 MB of tape and backward frees
    it. glibc's defaults unmap each block above a dynamic mmap threshold
    (128 KiB, rising to at most 32 MiB) on free and trim the heap's free top
    above twice that, so the next forward faults the pages back in. Raise both:
    M_MMAP_THRESHOLD to 32 MiB, glibc's 64-bit maximum (a full-size
    attention matrix is 3.84 MB), then M_TRIM_THRESHOLD to 64 MiB. The trim
    threshold alone would freeze the mmap threshold at 128 KiB and fault
    more. Arithmetic and peak RSS do not change.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(-3, 32 << 20):  # M_MMAP_THRESHOLD (<malloc.h>); 0: refused
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_keep_freed_memory_mapped()


def active_tape() -> Optional["Tape"]:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class DiffTensor:
    """A dense float64 array plus an optional gradient of the same shape."""

    __slots__ = ("values", "grad")

    def __init__(self, values):
        arr = np.ascontiguousarray(values, dtype=np.float64)
        self.values = arr
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.values.reshape(()))

    def sum(self) -> "DiffTensor":
        return tensor_sum(self)

    def __repr__(self):
        return f"DiffTensor(shape={self.shape})"


@dataclass
class Tape:
    """Ordered record of operations for one reverse-mode sweep.

    A tape is single-writer: build a forward pass inside ``with Tape() as t:``
    and call :func:`backward` once. Backward consumes the tape: it empties
    ``ops`` as it goes, and a second backward raises ``ConfigError``. Tapes
    confined to different forward passes are independent; parameter
    gradients accumulate across sweeps until explicitly zeroed.
    """

    ops: list = field(default_factory=list)  # (output, inputs, rule) triples
    watched: list = field(default_factory=list)
    consumed: bool = field(default=False, init=False)

    def record(self, output: DiffTensor, inputs: Sequence[DiffTensor],
               rule: Callable[[np.ndarray], None]) -> None:
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

    ``loss`` must be scalar. Gradients add onto any pre-existing grads, as new
    read-only arrays, which is what batched training relies on. Watched
    tensors that the loss cannot reach end up with all-zero grads.

    Each entry is popped off ``tape.ops`` and dropped once its rule has run,
    so the arrays the node saved for its backward, and the output and
    gradient of every intermediate no caller holds, are freed during the
    sweep, not after it. A tape serves one backward.
    """
    if loss.values.size != 1:
        raise ShapeError(f"backward() needs a scalar loss, got shape {loss.shape}")
    if tape.consumed:
        raise ConfigError("backward() on a tape that was already consumed")
    tape.consumed = True
    for t in tape.watched:
        if t.grad is None:
            _accum(t, np.zeros_like(t.values))
    _accum(loss, np.ones_like(loss.values))
    ops = tape.ops
    while ops:
        output, _inputs, rule = ops.pop()
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
    # A first g is stored uncopied unless broadcast or 0-d, so a gradient may
    # alias another (a view, or both inputs of ``add``): read-only, never written.
    if t.grad is not None:
        g = t.grad + g
    if g.shape != t.values.shape or not g.ndim:
        g = np.array(np.broadcast_to(g, t.values.shape))
    g.flags.writeable = False
    t.grad = g


def _rowdot(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` over the last axis, kept with length 1, as one matrix-vector
    product: a row sum (mean) with ``w`` all ones (``1/d``)."""
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(x.shape[:-1] + (1,))


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
    """``a + b``, broadcasting. An operand passed as an array (not a
    ``DiffTensor``) is a constant: backward gives it no gradient."""
    live_a, live_b = isinstance(a, DiffTensor), isinstance(b, DiffTensor)
    a, b = as_tensor(a), as_tensor(b)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            out = a.values + b.values
    except ValueError as e:
        raise ShapeError(f"add: {a.shape} vs {b.shape}") from e

    def rule(g):
        if live_a:
            _accum(a, _unbroadcast(g, a.values.shape))
        if live_b:
            _accum(b, _unbroadcast(g, b.values.shape))

    return _emit(out, (a, b), rule, "add")


def mul(a, b) -> DiffTensor:
    """``a * b``, broadcasting; an array operand is a constant, as in add."""
    live_a, live_b = isinstance(a, DiffTensor), isinstance(b, DiffTensor)
    a, b = as_tensor(a), as_tensor(b)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            out = a.values * b.values
    except ValueError as e:
        raise ShapeError(f"mul: {a.shape} vs {b.shape}") from e

    def rule(g):
        if live_a:
            _accum(a, _unbroadcast(g * b.values, a.values.shape))
        if live_b:
            _accum(b, _unbroadcast(g * a.values, b.values.shape))

    return _emit(out, (a, b), rule, "mul")


def div(a, b) -> DiffTensor:
    """``a / b``, broadcasting; an array operand is a constant, as in add."""
    live_a, live_b = isinstance(a, DiffTensor), isinstance(b, DiffTensor)
    a, b = as_tensor(a), as_tensor(b)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = a.values / b.values

    def rule(g):
        if live_a:
            _accum(a, _unbroadcast(g / b.values, a.values.shape))
        if live_b:
            _accum(b, _unbroadcast(-g * a.values / (b.values * b.values),
                                   b.values.shape))

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

    def rule(g):
        _accum(x, g * (out > 0.0))  # out > 0 iff x > 0; subgradient at 0 is 0

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


def tensor_sum(x) -> DiffTensor:
    x = as_tensor(x)
    out = x.values.sum()

    def rule(g):  # _accum materializes the broadcast
        _accum(x, g)

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


def layer_norm(x, gain, bias, eps: float = 1e-5, *, residual=None) -> DiffTensor:
    """Normalize the last axis of ``x`` (of ``x + residual``, in one node) to
    mean 0 / variance 1, then scale and shift. Every operand is a tensor or
    an array (taken as a constant)."""
    x, gvals, bvals = as_tensor(x), as_tensor(gain), as_tensor(bias)
    r = None if residual is None else as_tensor(residual)
    d = x.values.shape[-1]
    if gvals.values.shape != (d,) or bvals.values.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias must have shape ({d},)")
    if r is not None and r.values.shape != x.values.shape:
        raise ShapeError(f"layer_norm: residual {r.shape} vs input {x.shape}")
    xs = x.values if r is None else x.values + r.values
    inv_d = np.full(d, 1.0 / d)
    xhat = xs - _rowdot(xs, inv_d)
    var = _rowdot(xhat * xhat, inv_d)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    out = xhat * gvals.values
    out += bvals.values

    def rule(g):
        g_flat = g.reshape(-1, d)
        ones = np.ones(g_flat.shape[0])
        _accum(gvals, ones @ (g_flat * xhat.reshape(-1, d)))
        _accum(bvals, ones @ g_flat)
        gin = g * gvals.values
        t = gin * xhat
        gin -= _rowdot(gin, inv_d)
        gin -= np.multiply(xhat, _rowdot(t, inv_d), out=t)
        gin *= inv_std
        _accum(x, gin)
        if r is not None:
            _accum(r, gin)

    inputs = (x, gvals, bvals) if r is None else (x, gvals, bvals, r)
    return _emit(out, inputs, rule, "layer_norm")


def affine(x, w, b) -> DiffTensor:
    """x @ w + b applied to every row of the leading axes. Every operand is a
    tensor or an array (taken as a constant); an array ``x`` gets no
    gradient."""
    live_x = isinstance(x, DiffTensor)
    x, wt, bt = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.values.shape[-1] != wt.values.shape[0]:
        raise ShapeError(f"affine: input dim {x.shape} vs weight {wt.shape}")
    if bt.values.shape != (wt.values.shape[1],):
        raise ShapeError(f"affine: bias {bt.shape} vs weight {wt.shape}")
    out = x.values @ wt.values
    out += bt.values

    def rule(g):
        lead_flat = g.reshape(-1, g.shape[-1])
        x_flat = x.values.reshape(-1, x.values.shape[-1])
        _accum(wt, x_flat.T @ lead_flat)
        _accum(bt, np.ones(lead_flat.shape[0]) @ lead_flat)
        if live_x:
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
