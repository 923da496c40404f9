"""Masked scaled dot-product attention, multi-head attention and the set
attention block (SAB).

Mask convention: a key-mask entry of 1 EXCLUDES that key for that query, 0
includes it. Excluded keys receive exactly zero weight. A query row whose
keys are all excluded is degenerate: its weights and its attention output are
forced to exactly zero, so a surrounding residual connection passes the input
embedding through unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .tensor import (
    ConfigError,
    DiffTensor,
    Parameter,
    ShapeError,
    _accum,
    _check_finite,
    _emit,
    _unbroadcast,
    add,
    affine,
    as_tensor,
    concat_axis,
    layer_norm,
    matmul,
    relu,
    reshape,
    transpose,
)


@dataclass
class KeyMask:
    """Binary [n_queries x n_keys] key-exclusion mask (1 = exclude)."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries)
        if e.ndim != 2:
            raise ShapeError(f"KeyMask must be 2-D, got shape {e.shape}")
        if not np.isin(e, (0, 1)).all():
            raise ValueError("KeyMask entries must be 0 or 1")
        self.entries = e.astype(np.float64)

    @property
    def fully_masked(self) -> np.ndarray:
        """Boolean flag per query row: every key excluded."""
        return self.entries.min(axis=-1) >= 1.0


MaskLike = Union[KeyMask, np.ndarray, None]


def _mask_array(m: MaskLike) -> Optional[np.ndarray]:
    if m is None:
        return None
    arr = m.entries if isinstance(m, KeyMask) else np.asarray(m, dtype=np.float64)
    return arr


def masked_attention(q, k, v, m: MaskLike = None):
    """Scaled dot-product attention with key exclusion.

    q: [..., n, d_k], k: [..., n_v, d_k], v: [..., n_v, d_v]; ``m`` is
    broadcastable to [..., n, n_v]. Returns ``(output, weights)`` where
    weight rows over included keys sum to 1 and fully-masked rows are all
    zero (as is the corresponding output row).

    One tape node whose backward keeps only the weights P: with
    ``c = 1/sqrt(d_k)``, ``dS = P * (dO @ v^T - rowsum(dO * O))``,
    ``dq = c dS @ k``, ``dk = c dS^T @ q`` and ``dv = P^T @ dO``. The
    returned weights are a plain tensor; no gradient flows through them.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    d_k = q.values.shape[-1]
    if k.values.shape[-1] != d_k:
        raise ShapeError(f"query dim {d_k} != key dim {k.values.shape[-1]}")
    if k.values.shape[-2] != v.values.shape[-2]:
        raise ShapeError("key/value counts differ")
    c = 1.0 / np.sqrt(d_k)

    p = (q.values * c) @ np.swapaxes(k.values, -1, -2)
    mask = _mask_array(m)
    dead = None
    if mask is not None:
        excluded = mask != 0.0
        # A fully-excluded row keeps its logits so the softmax stays finite,
        # then is zeroed per the degenerate-row rule.
        dead = excluded.all(axis=-1, keepdims=True)
        try:
            np.copyto(p, -np.inf, where=excluded & ~dead)
        except ValueError as e:
            raise ShapeError(f"mask {mask.shape} does not broadcast to "
                             f"attention logits {p.shape}") from e
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    if dead is not None and dead.any():
        np.copyto(p, 0.0, where=dead)
    _check_finite(p, "masked_attention")
    o = p @ v.values

    def rule(g):
        ds = g @ np.swapaxes(v.values, -1, -2)
        ds -= (g * o).sum(axis=-1, keepdims=True)
        ds *= p
        _accum(q, _unbroadcast((ds @ k.values) * c, q.values.shape))
        _accum(k, _unbroadcast((np.swapaxes(ds, -1, -2) @ q.values) * c,
                               k.values.shape))
        _accum(v, _unbroadcast(np.swapaxes(p, -1, -2) @ g, v.values.shape))

    out = _emit(o, (q, k, v), rule, "masked_attention")
    return out, DiffTensor(p)


@dataclass
class MhaParams:
    """Per-head projections plus output projection for multi-head attention."""

    wq: Sequence[Parameter]  # H matrices [d, d/H]
    wk: Sequence[Parameter]
    wv: Sequence[Parameter]
    wo: Parameter            # [d, d]

    @property
    def n_heads(self) -> int:
        return len(self.wq)


def multi_head_attention(q, k, v, m: MaskLike, p: MhaParams):
    """Concat of per-head masked attention, linearly mixed by ``wo``.

    Heads are evaluated in one batched pass (projections fused along the
    output axis, attention over a leading head axis); the math per head is
    exactly ``masked_attention`` over the head's projected inputs. Returns
    ``(output, head_avg_weights)``; the weights are the per-head attention
    matrices averaged over heads (plain ndarray, for export).
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    d = q.values.shape[-1]
    H = p.n_heads
    if d % H != 0:
        raise ConfigError(f"model width {d} not divisible by {H} heads")

    def project(x, mats):
        # [..., n, d] @ [d, H*dh] -> [H, ..., n, dh]
        merged = matmul(x, concat_axis([w.tensor for w in mats], axis=-1))
        n = merged.shape[-2]
        lead = merged.shape[:-2]
        dh = merged.shape[-1] // H
        split = reshape(merged, lead + (n, H, dh))
        ndim = len(split.shape)
        axes = (ndim - 2,) + tuple(range(ndim - 2)) + (ndim - 1,)
        return transpose(split, axes)

    qh, kh, vh = project(q, p.wq), project(k, p.wk), project(v, p.wv)
    out_h, w_h = masked_attention(qh, kh, vh, m)
    ndim = len(out_h.shape)
    axes = tuple(range(1, ndim - 1)) + (0, ndim - 1)
    merged = transpose(out_h, axes)
    lead = merged.shape[:-2]
    out = matmul(reshape(merged, lead + (d,)), p.wo.tensor)
    return out, w_h.values.mean(axis=0)


@dataclass
class SabParams:
    """Parameters of one set attention block."""

    mha: MhaParams
    ln1_gain: Parameter
    ln1_bias: Parameter
    ln2_gain: Parameter
    ln2_bias: Parameter
    ff_w1: Parameter  # [d, hidden]
    ff_b1: Parameter
    ff_w2: Parameter  # [hidden, d]
    ff_b2: Parameter


def set_attention_block(x, m: MaskLike, p: SabParams):
    """Pre-norm-free transformer encoder block without positional encoding.

    Computes ``LayerNorm(h + rFFN(h))`` with ``h = LayerNorm(x + MHA(x,x,x,m))``.
    Permutation-equivariant over the set axis (second-to-last). Returns
    ``(output, head_avg_weights)``.
    """
    x = as_tensor(x)
    attn, weights = multi_head_attention(x, x, x, m, p.mha)
    h = layer_norm(add(x, attn), p.ln1_gain, p.ln1_bias)
    ff = affine(relu(affine(h, p.ff_w1, p.ff_b1)), p.ff_w2, p.ff_b2)
    out = layer_norm(add(h, ff), p.ln2_gain, p.ln2_bias)
    return out, weights
