"""Training losses and evaluation metrics.

Losses operate on graph tensors so gradients reach both the predictions and
the uncertainty-mask logit. Metrics are plain numpy over hidden, non-NaN
slots; distances are Euclidean in whatever unit the inputs carry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, EmptyMaskError
from .masking import NanLike, ObservationMask, UncertaintyMask, nan_entries
from .tensor import (
    DiffTensor,
    add,
    as_tensor,
    div,
    euclidean_norm,
    log_clamped,
    mul,
    scale,
)


@dataclass
class LossReport:
    l_ade: float
    l_ce: float
    total: float
    w1_value: float


@dataclass
class MetricReport:
    ade: float
    fde: Optional[float]
    max_err: float
    acc: Optional[float]
    d_count: int

    CSV_HEADER = "task,mask_spec,ade,fde,max_err,acc,d_count,seed"

    def csv_row(self, task: str, mask_spec: str, seed) -> str:
        def fmt(v):
            return "" if v is None else f"{v:.6f}"
        return (f"{task},{mask_spec},{fmt(self.ade)},{fmt(self.fde)},"
                f"{fmt(self.max_err)},{fmt(self.acc)},{self.d_count},{seed}")


# ---------------------------------------------------------------------------
# losses (differentiable)
# ---------------------------------------------------------------------------

def ade_loss(x_hat, x, m_unc: UncertaintyMask) -> DiffTensor:
    """Weighted mean displacement: sum(||x_hat - x|| * w) / sum(w).

    Both the numerator and the normalizer are graph expressions of theta, so
    the uncertainty weights receive gradient. Raises when the weights are
    identically zero. Absent (non-finite) target slots must carry zero
    weight; they are filled with 0 before the subtraction, so they add
    exactly nothing to the loss or to any gradient.
    """
    x_hat = as_tensor(x_hat)
    target = np.asarray(x, dtype=np.float64)
    if x_hat.shape != target.shape:
        raise DataError(f"prediction shape {x_hat.shape} != target {target.shape}")
    weights = m_unc.weights_tensor()
    if float(weights.values.sum()) <= 0.0:
        raise EmptyMaskError("uncertainty mask has no support")
    absent = ~np.isfinite(target)
    if absent.any():
        if (weights.values[absent.any(axis=-1)] != 0.0).any():
            raise DataError("a non-finite target slot carries loss weight")
        target = np.where(absent, 0.0, target)
    dist = euclidean_norm(add(x_hat, DiffTensor(-target)))
    num = mul(dist, weights).sum()
    den = weights.sum()
    return div(num, den)


def ce_loss(s, s_hat) -> DiffTensor:
    """Cross entropy -(1/T) sum_t sum_c s[t,c] log(s_hat[t,c]) in nats.

    ``s`` rows must be distributions (one-hot allowed); the log argument is
    clamped at 1e-12 so a vanishing predicted probability yields a large but
    finite loss.
    """
    truth = np.asarray(s, dtype=np.float64)
    s_hat = as_tensor(s_hat)
    if truth.shape != s_hat.shape:
        raise DataError(f"state shapes differ: {truth.shape} vs {s_hat.shape}")
    if truth.ndim != 2 or (truth < 0).any() or \
            not np.allclose(truth.sum(axis=1), 1.0, atol=1e-9):
        raise DataError("ground-truth state rows must be probability rows")
    if (s_hat.values < 0).any():
        raise DataError("predicted state rows must be nonnegative")
    T = truth.shape[0]
    picked = mul(DiffTensor(truth), log_clamped(s_hat))
    return scale(picked.sum(), -1.0 / T)


def total_loss(x_hat, x, m_unc: UncertaintyMask, s, s_hat,
               lam: float) -> tuple[DiffTensor, LossReport]:
    """Combined objective: ADE term plus ``lam`` times the CE term.

    ``lam = 0`` skips classification entirely; ``s``/``s_hat`` may then be
    None and no gradient ever reaches the classifier head.
    """
    if lam < 0:
        raise ConfigError("loss weight must be nonnegative")
    l_ade = ade_loss(x_hat, x, m_unc)
    if lam == 0:
        report = LossReport(l_ade=l_ade.item(), l_ce=0.0,
                            total=l_ade.item(), w1_value=m_unc.w1)
        return l_ade, report
    l_ce = ce_loss(s, s_hat)
    total = add(l_ade, scale(l_ce, lam))
    report = LossReport(l_ade=l_ade.item(), l_ce=l_ce.item(),
                        total=total.item(), w1_value=m_unc.w1)
    return total, report


# ---------------------------------------------------------------------------
# metrics (numpy)
# ---------------------------------------------------------------------------

def _distances(x_hat, x) -> np.ndarray:
    a = np.asarray(x_hat, dtype=np.float64)
    b = np.asarray(x, dtype=np.float64)
    if a.shape != b.shape:
        raise DataError(f"prediction shape {a.shape} != target {b.shape}")
    return np.linalg.norm(a - b, axis=-1)


def _eval_mask(m: ObservationMask, nan_mask: NanLike) -> np.ndarray:
    nan = nan_entries(nan_mask, m.entries.shape)
    return (m.entries == 1) & (nan == 0)


def ade_metric(x_hat, x, m: ObservationMask, nan_mask: NanLike = None) -> float:
    """Mean Euclidean error over hidden, non-NaN slots."""
    sel = _eval_mask(m, nan_mask)
    if not sel.any():
        raise EmptyMaskError("no hidden slots to evaluate")
    return float(_distances(x_hat, x)[sel].mean())


def fde_metric(x_hat, x, m: ObservationMask, nan_mask: NanLike = None) -> float:
    """Mean error at each evaluated agent's last hidden timestep. Agents with
    no hidden slot are excluded; for a forecasting mask this is the classic
    final-displacement error."""
    sel = _eval_mask(m, nan_mask)
    dist = _distances(x_hat, x)
    finals = []
    for n in range(sel.shape[1]):
        ts = np.flatnonzero(sel[:, n])
        if ts.size:
            finals.append(dist[ts[-1], n])
    if not finals:
        raise EmptyMaskError("no agent has a hidden slot")
    return float(np.mean(finals))


def max_err_metric(x_hat, x, m: ObservationMask,
                   nan_mask: NanLike = None) -> tuple[float, int]:
    """Per-agent maximum masked error averaged over the D agents that have at
    least one hidden slot. Returns ``(value, D)``."""
    sel = _eval_mask(m, nan_mask)
    dist = _distances(x_hat, x)
    maxima = []
    for n in range(sel.shape[1]):
        if sel[:, n].any():
            maxima.append(dist[sel[:, n], n].max())
    if not maxima:
        raise EmptyMaskError("D = 0: no agent has a hidden slot")
    return float(np.mean(maxima)), len(maxima)


def accuracy_metric(s, s_hat) -> float:
    """Fraction of timesteps whose argmax class agrees; ties resolve to the
    lowest class index on both sides."""
    truth = np.asarray(s, dtype=np.float64)
    pred = np.asarray(s_hat, dtype=np.float64)
    if truth.shape != pred.shape:
        raise DataError(f"state shapes differ: {truth.shape} vs {pred.shape}")
    return float(np.mean(truth.argmax(axis=1) == pred.argmax(axis=1)))


def confusion_matrix(s, s_hat, n_classes: int) -> np.ndarray:
    """[S x S] counts; rows are ground-truth classes, columns predictions."""
    truth = np.asarray(s).argmax(axis=1)
    pred = np.asarray(s_hat).argmax(axis=1)
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (truth, pred), 1)
    return cm
