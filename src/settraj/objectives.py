"""Training losses and evaluation metrics.

Losses operate on graph tensors so gradients reach both the predictions and
the uncertainty-mask logit. Metrics are plain numpy over the target slots
(hidden, not absent); distances are Euclidean in the inputs' unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, EmptyMaskError
from .masking import ObservationMask, UncertaintyMask, slot_roles
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
    weights = m_unc.weights_tensor()  # an array without theta: a constant
    w = weights.values if isinstance(weights, DiffTensor) else weights
    if float(w.sum()) <= 0.0:
        raise EmptyMaskError("uncertainty mask has no support")
    absent = ~np.isfinite(target)
    if absent.any():
        if (w[absent.any(axis=-1)] != 0.0).any():
            raise DataError("a non-finite target slot carries loss weight")
        target = np.where(absent, 0.0, target)
    dist = euclidean_norm(add(x_hat, -target))
    return div(mul(dist, weights).sum(), weights.sum())


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
    picked = mul(truth, log_clamped(s_hat))
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
    l_ce = ce_loss(s, s_hat) if lam else None
    total = add(l_ade, scale(l_ce, lam)) if lam else l_ade
    return total, LossReport(l_ade=l_ade.item(),
                             l_ce=l_ce.item() if lam else 0.0,
                             total=total.item(), w1_value=m_unc.w1)


# ---------------------------------------------------------------------------
# metrics (numpy)
# ---------------------------------------------------------------------------

def _distances(x_hat, x) -> np.ndarray:
    a = np.asarray(x_hat, dtype=np.float64)
    b = np.asarray(x, dtype=np.float64)
    if a.shape != b.shape:
        raise DataError(f"prediction shape {a.shape} != target {b.shape}")
    d = a - b
    return np.sqrt((d * d).sum(axis=(-1,)))  # np.linalg.norm's arithmetic


def trajectory_metrics(x_hat, x, target: np.ndarray
                       ) -> tuple[float, float, int, float]:
    """``(ADE, MaxErr, D, FDE)`` over the boolean [T x N] ``target`` slots
    (the role of :func:`~settraj.masking.slot_roles`) from one distance
    array: the mean error over the targets; each agent's maximum,
    averaged over the D agents with a target; and the mean error at their
    last target timestep (for forecasting, the final displacement)."""
    agents = target.any(axis=0)
    if not agents.any():
        raise EmptyMaskError("no hidden slots to evaluate")
    dist = _distances(x_hat, x)
    maxima = np.where(target, dist, -np.inf).max(axis=0)[agents]
    last = target.shape[0] - 1 - target[::-1].argmax(axis=0)
    finals = dist[last, np.arange(target.shape[1])][agents]
    return _mean(dist[target]), _mean(maxima), maxima.size, _mean(finals)


def _mean(a: np.ndarray) -> float:
    """``float(np.mean(a))`` of a float64 vector, bit for bit (the same
    pairwise sum, then one division), without np.mean's per-call cost."""
    return float(a.sum() / a.size)


def _per_agent(x_hat, x, m, nan_mask, empty: str):
    """:func:`trajectory_metrics`, but a shape mismatch raises first."""
    try:
        return trajectory_metrics(x_hat, x, slot_roles(m, nan_mask)[2])
    except EmptyMaskError:
        _distances(x_hat, x)
        raise EmptyMaskError(empty) from None


def ade_metric(x_hat, x, m: ObservationMask,
               nan_mask: Optional[np.ndarray] = None) -> float:
    """Mean Euclidean error over the target slots."""
    return trajectory_metrics(x_hat, x, slot_roles(m, nan_mask)[2])[0]


def fde_metric(x_hat, x, m: ObservationMask,
               nan_mask: Optional[np.ndarray] = None) -> float:
    """The FDE of :func:`trajectory_metrics`."""
    return _per_agent(x_hat, x, m, nan_mask, "no agent has a hidden slot")[3]


def max_err_metric(x_hat, x, m: ObservationMask,
                   nan_mask: Optional[np.ndarray] = None) -> tuple[float, int]:
    """``(MaxErr, D)`` of :func:`trajectory_metrics`."""
    return _per_agent(x_hat, x, m, nan_mask,
                      "D = 0: no agent has a hidden slot")[1:3]


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
