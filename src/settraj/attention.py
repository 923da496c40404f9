"""Masked scaled dot-product attention, multi-head attention, the row-wise
feed-forward network (rFFN) and the set attention block (SAB).

Mask convention: a key-mask entry of 1 EXCLUDES that key for that query, 0
includes it. Excluded keys receive exactly zero weight. A query row whose
keys are all excluded is degenerate: its weights and its attention output are
forced to exactly zero, so a surrounding residual connection passes the input
embedding through unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .tensor import (
    DiffTensor,
    ShapeError,
    _accum,
    _emit,
    _rowdot,
    _unbroadcast,
    affine,
    as_tensor,
    layer_norm,
    matmul,
    relu,
)


def masked_attention(q, k, v, m: Optional[np.ndarray] = None,
                     heads: int = 1):
    """Scaled dot-product attention with key exclusion, over ``heads``
    heads that each own a contiguous slice of the channels.

    q: [..., n, H*d_k], k: [..., n_v, H*d_k], v: [..., n_v, H*d_v]; head h
    reads channels ``h*d:(h+1)*d`` and writes the same slice of the
    [..., n, H*d_v] output. ``m`` is broadcastable to [..., n, n_v] and
    shared by every head. Returns ``(output, weights)``: weights are
    [..., n, n_v], or [..., H, n, n_v] when ``heads > 1``; rows over
    included keys sum to 1 and fully-masked rows are all zero (as is the
    corresponding output row).

    One tape node; heads are split and merged as views of the channel axis.
    The backward keeps only the weights P: with ``c = 1/sqrt(d_k)``,
    ``dS = P * (dO @ v^T - rowsum(dO * O))``, ``dq = c dS @ k``,
    ``dk = c dS^T @ q`` and ``dv = P^T @ dO``. The returned weights are a
    plain tensor; no gradient flows through them.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if k.values.shape[-1] != q.values.shape[-1]:
        raise ShapeError(f"query dim {q.values.shape[-1]} != key dim "
                         f"{k.values.shape[-1]}")
    if k.values.shape[-2] != v.values.shape[-2]:
        raise ShapeError("key/value counts differ")
    if q.values.shape[-1] % heads or v.values.shape[-1] % heads:
        raise ShapeError(f"channels {q.values.shape[-1]} / "
                         f"{v.values.shape[-1]} do not split into "
                         f"{heads} heads")
    c = 1.0 / np.sqrt(q.values.shape[-1] // heads)

    def split(x):
        """[..., n, H*d] -> [..., H, n, d], a view."""
        return np.swapaxes(x.reshape(x.shape[:-1] + (heads, -1)), -2, -3)

    def merged_matmul(a, b):
        """a @ b for [..., H, n, j] @ [..., H, j, d], written in place into
        the merged [..., n, H*d] layout."""
        lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        out = np.empty(lead[:-1] + (a.shape[-2], heads, b.shape[-1]))
        np.matmul(a, b, out=np.swapaxes(out, -2, -3))
        return out.reshape(out.shape[:-2] + (-1,))

    qh, kh, vh = split(q.values * c), split(k.values), split(v.values)
    p = qh @ np.swapaxes(kh, -1, -2)
    if m is not None:
        mask = np.asarray(m)
        # one mask for every head: a head axis before the query axis
        excluded = mask.reshape(mask.shape[:-2] + (1,) + mask.shape[-2:]) != 0
        # A fully-excluded row keeps its logits so the softmax stays finite,
        # then is zeroed per the degenerate-row rule.
        dead = excluded.all(axis=-1, keepdims=True)
        excluded &= ~dead
        try:
            np.broadcast_to(excluded, p.shape)
        except ValueError as e:
            raise ShapeError(f"mask {mask.shape} does not broadcast to "
                             f"attention logits {p.shape}") from e
    # Unshifted softmax while every row sum is in [1e-200, 1e200]: each row's
    # top logit is then in ~[-465, 460], so nothing overflowed and what
    # underflowed weighs ~e^-244 of it or less. Else (or NaN) redo shifted.
    # Excluded keys are zeroed by a 0/1 multiply after exp, not by -inf (or a
    # finite sentinel) before it: numpy's exp is slow on lanes that underflow.
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        np.exp(p, out=p)
        if m is not None:
            p *= 1.0 - excluded  # an overflowed excluded key: inf * 0 = NaN
        s = _rowdot(p, np.ones(p.shape[-1]))
        if ((s >= 1e-200) & (s <= 1e200)).all():
            p *= 1.0 / s if m is None else (1.0 / s) * (1.0 - dead)
        else:
            np.matmul(qh, np.swapaxes(kh, -1, -2), out=p)
            if m is not None:
                np.copyto(p, -np.inf, where=excluded)
            p -= p.max(axis=-1, keepdims=True)
            np.exp(p, out=p)
            p *= 1.0 / _rowdot(p, np.ones(p.shape[-1]))
            if m is not None and dead.any():
                np.copyto(p, 0.0, where=dead)
    o = merged_matmul(p, vh)

    def rule(g):
        gh = split(g)
        ds = gh @ np.swapaxes(vh, -1, -2)
        go = (g * o).reshape(o.shape[:-1] + (heads, -1))
        ds -= np.swapaxes(_rowdot(go, np.ones(go.shape[-1])), -2, -3)
        ds *= p
        dq = merged_matmul(ds, kh)
        dq *= c
        _accum(q, _unbroadcast(dq, q.values.shape))
        # qh already carries the factor c
        _accum(k, _unbroadcast(merged_matmul(np.swapaxes(ds, -1, -2), qh),
                               k.values.shape))
        _accum(v, _unbroadcast(merged_matmul(np.swapaxes(p, -1, -2), gh),
                               v.values.shape))

    out = _emit(o, (q, k, v), rule, "masked_attention")
    return out, DiffTensor(p if heads > 1 else p[..., 0, :, :])


@dataclass
class MhaParams:
    """Fused projections for multi-head attention: head h of ``wq``, ``wk``
    and ``wv`` is columns ``h*dh:(h+1)*dh`` with ``dh = d / n_heads``."""

    wq: DiffTensor  # [d, d]
    wk: DiffTensor
    wv: DiffTensor
    wo: DiffTensor  # [d, d]
    n_heads: int


def multi_head_attention(q, k, v, m: Optional[np.ndarray], p: MhaParams):
    """Per-head masked attention over the fused projections, mixed by
    ``wo``.

    Five tape nodes: the q/k/v projections, one ``masked_attention`` that
    splits and merges the heads itself, and the output projection. Returns
    ``(output, head_avg_weights)``; the weights are the per-head attention
    matrices averaged over heads (plain ndarray, for export).
    """
    out, w = masked_attention(matmul(q, p.wq), matmul(k, p.wk),
                              matmul(v, p.wv), m, heads=p.n_heads)
    w, H = w.values, p.n_heads
    if H > 1:  # the head average as one vector-matrix product
        w = (np.full(H, 1.0 / H) @ w.reshape(w.shape[:-3] + (H, -1))
             ).reshape(w.shape[:-3] + w.shape[-2:])
    return matmul(out, p.wo), w


@dataclass
class RffnParams:
    """Two affine layers with a rectified-linear unit between them."""

    w1: DiffTensor
    b1: DiffTensor
    w2: DiffTensor
    b2: DiffTensor


def rffn_apply(x, p: RffnParams) -> DiffTensor:
    """The Set Transformer's row-wise feed-forward network (rFF)."""
    return affine(relu(affine(x, p.w1, p.b1)), p.w2, p.b2)


@dataclass
class SabParams:
    """Parameters of one set attention block."""

    mha: MhaParams
    ln1_gain: DiffTensor
    ln1_bias: DiffTensor
    ln2_gain: DiffTensor
    ln2_bias: DiffTensor
    rffn: RffnParams  # d -> hidden -> d


def set_attention_block(x, m: Optional[np.ndarray], p: SabParams):
    """Pre-norm-free transformer encoder block without positional encoding.

    Computes ``LayerNorm(h + rFFN(h))`` with ``h = LayerNorm(x + MHA(x,x,x,m))``.
    Permutation-equivariant over the set axis (second-to-last); ten tape
    nodes. Returns ``(output, head_avg_weights)``.
    """
    x = as_tensor(x)
    attn, weights = multi_head_attention(x, x, x, m, p.mha)
    h = layer_norm(x, p.ln1_gain, p.ln1_bias, residual=attn)
    out = layer_norm(h, p.ln2_gain, p.ln2_bias, residual=rffn_apply(h, p.rffn))
    return out, weights
