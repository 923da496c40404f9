"""Observation masks: task-mask builders, the CLS-extended mask, the NaN mask
for absent data, and the learnable uncertainty mask used by the training loss.

Masks are time-major ``[T x N]`` with 1 marking a hidden slot (to predict) and
0 a visible one. Task predicates operate per agent column.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Union

import numpy as np

from .errors import ConfigError, TaskViolationError
from .tensor import DiffTensor, Parameter, add, as_tensor, mul, scale, sigmoid

log = logging.getLogger(__name__)


def _as_binary(entries, name: str) -> np.ndarray:
    e = np.asarray(entries)
    if e.ndim != 2:
        raise TaskViolationError(f"{name} must be 2-D [T x N], got shape {e.shape}")
    if not np.isin(e, (0, 1)).all():
        raise TaskViolationError(f"{name} entries must be 0 or 1")
    return e.astype(np.int8)


@dataclass
class ObservationMask:
    """Binary [T x N] mask; 1 = hidden (prediction target), 0 = visible."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries = _as_binary(self.entries, "ObservationMask")

    @property
    def T(self) -> int:
        return self.entries.shape[0]

    @property
    def N(self) -> int:
        return self.entries.shape[1]


@dataclass
class ExtendedMask:
    """[T x (N+1)] mask whose last column (the CLS extra agent) is all ones."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries = _as_binary(self.entries, "ExtendedMask")
        if not (self.entries[:, -1] == 1).all():
            raise TaskViolationError("ExtendedMask CLS column must be all ones")


@dataclass
class NanMask:
    """Marks absent/corrupt observations: excluded from attention keys and
    from every loss and metric. A NaN slot is never a prediction target."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries = _as_binary(self.entries, "NanMask")


NanLike = Union[NanMask, np.ndarray, None]


def nan_entries(nan_mask: NanLike, shape) -> np.ndarray:
    """Normalize a NaN mask argument to a [T x N] int8 array (zeros if None)."""
    if nan_mask is None:
        return np.zeros(shape, dtype=np.int8)
    arr = nan_mask.entries if isinstance(nan_mask, NanMask) else nan_mask
    arr = _as_binary(arr, "NanMask")
    if arr.shape != tuple(shape):
        raise TaskViolationError(f"NaN mask shape {arr.shape} != {tuple(shape)}")
    return arr


# ---------------------------------------------------------------------------
# task-mask builders
# ---------------------------------------------------------------------------

def build_forecasting_mask(T: int, t_hat: int, predicted_agents: Iterable[int],
                           N: int) -> ObservationMask:
    """Hide timesteps ``t >= t_hat`` of the predicted agents; everything else
    (including the full history of every agent) stays visible."""
    if not (0 < t_hat < T):
        raise TaskViolationError(f"t_hat={t_hat} outside (0, {T})")
    entries = np.zeros((T, N), dtype=np.int8)
    agents = list(predicted_agents)
    if agents:
        entries[t_hat:, agents] = 1
    return ObservationMask(entries)


def build_imputation_mask(T: int, N: int, predicted_agents: Iterable[int],
                          visible_slots: Mapping[int, Iterable[int]]
                          ) -> ObservationMask:
    """Hide everything on the predicted agents except their listed visible
    slots. Every predicted agent must keep at least one visible slot."""
    entries = np.zeros((T, N), dtype=np.int8)
    for n in predicted_agents:
        entries[:, n] = 1
        kept = list(visible_slots.get(n, ()))
        entries[kept, n] = 0
        if entries[:, n].all():
            raise TaskViolationError(
                f"agent {n} has zero visible slots; that is inference, "
                "not imputation")
    return ObservationMask(entries)


def build_inference_mask(T: int, hidden_agents: Iterable[int],
                         N: int) -> ObservationMask:
    """Hide the listed agents for the entire sequence."""
    agents = list(hidden_agents)
    if not agents:
        raise TaskViolationError("inference needs at least one hidden agent")
    entries = np.zeros((T, N), dtype=np.int8)
    entries[:, agents] = 1
    if entries.all():
        log.warning("inference mask hides every agent; nothing conditions "
                    "the predictions")
    return ObservationMask(entries)


def build_percentage_mask(T: int, N: int, agent: int, fraction: float,
                          rng_seed) -> ObservationMask:
    """Hide ``floor(fraction * T)`` uniformly random slots of one agent."""
    if not 0.0 <= fraction <= 1.0:
        raise TaskViolationError(f"fraction {fraction} outside [0, 1]")
    rng = (rng_seed if isinstance(rng_seed, np.random.Generator)
           else np.random.default_rng(rng_seed))
    n_hidden = int(np.floor(fraction * T))
    entries = np.zeros((T, N), dtype=np.int8)
    hidden_t = rng.choice(T, size=n_hidden, replace=False)
    entries[hidden_t, agent] = 1
    return ObservationMask(entries)


def build_circle_mask(positions: np.ndarray, ball_index: int,
                      radius: float) -> ObservationMask:
    """Hide agents farther than ``radius`` from the ball (closed ball: a
    distance of exactly ``radius`` stays visible). The ball itself is never
    hidden."""
    pos = np.asarray(positions, dtype=np.float64)
    dist = np.linalg.norm(pos - pos[:, ball_index:ball_index + 1, :], axis=-1)
    entries = (dist > radius).astype(np.int8)
    entries[:, ball_index] = 0
    return ObservationMask(entries)


def build_camera_mask(positions: np.ndarray, ball_index: int,
                      half_angle_deg: float,
                      camera_point) -> ObservationMask:
    """Hide agents outside a field of view of ``2 * half_angle_deg`` centered
    on the ball direction as seen from ``camera_point``. Frames where the
    ball coincides with the camera point are treated as all-visible."""
    if not 0.0 < half_angle_deg < 90.0:
        raise ConfigError(f"half angle {half_angle_deg} outside (0, 90) degrees")
    pos = np.asarray(positions, dtype=np.float64)
    cam = np.asarray(camera_point, dtype=np.float64)
    rel = pos - cam
    ball = rel[:, ball_index, :]
    ball_norm = np.linalg.norm(ball, axis=-1)
    agent_norm = np.linalg.norm(rel, axis=-1)
    denom = agent_norm * ball_norm[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        cos = np.einsum("tnc,tc->tn", rel, ball) / denom
    angle = np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))
    entries = (angle > half_angle_deg).astype(np.int8)
    entries[denom == 0.0] = 0  # agent at camera point: visible
    degenerate = ball_norm == 0.0
    if degenerate.any():
        log.warning("ball coincides with camera point at %d frame(s); "
                    "those frames are all-visible", int(degenerate.sum()))
        entries[degenerate, :] = 0
    entries[:, ball_index] = 0
    return ObservationMask(entries)


def extend_mask_with_cls(m: ObservationMask) -> ExtendedMask:
    """Append the all-ones CLS column."""
    cls_col = np.ones((m.T, 1), dtype=np.int8)
    return ExtendedMask(np.concatenate([m.entries, cls_col], axis=1))


def save_mask(m: ObservationMask, path) -> None:
    """Write a mask as a [T x N] grid of comma-separated 0/1 integers."""
    lines = [",".join(str(int(v)) for v in row) for row in m.entries]
    Path(path).write_text("\n".join(lines) + "\n")


def load_mask(path) -> ObservationMask:
    """Read a mask written by :func:`save_mask`."""
    rows = [line.split(",") for line in
            Path(path).read_text().strip().splitlines()]
    try:
        entries = np.array([[int(v) for v in row] for row in rows])
    except ValueError:
        raise TaskViolationError(f"{path}: mask grids hold integers only") \
            from None
    return ObservationMask(entries)


# ---------------------------------------------------------------------------
# learnable uncertainty mask
# ---------------------------------------------------------------------------

@dataclass
class UncertaintyMask:
    """Real-valued loss weights derived from an observation mask.

    Hidden slots weigh 1. Along each agent's time axis, visible immediate
    neighbors of hidden slots weigh ``w1 = sigmoid(theta)`` and visible second
    neighbors that are not immediate neighbors of any hidden slot weigh
    ``w2 = 1 - w1``; all other visible slots weigh 0. ``theta`` may be a
    learnable scalar (gradients then flow into it through the loss) or a
    plain float.
    """

    hidden: np.ndarray  # {0,1}, weight 1
    first: np.ndarray   # {0,1}, weight w1
    second: np.ndarray  # {0,1}, weight w2
    theta: Union[Parameter, DiffTensor, float, None]

    @property
    def w1(self) -> float:
        if self.theta is None:
            return float("nan")
        t = self._theta_value()
        return float(1.0 / (1.0 + np.exp(-t))) if t >= 0 else \
            float(np.exp(t) / (1.0 + np.exp(t)))

    @property
    def w2(self) -> float:
        return 1.0 - self.w1

    def _theta_value(self) -> float:
        t = self.theta
        if isinstance(t, Parameter):
            return float(t.tensor.values.reshape(()))
        if isinstance(t, DiffTensor):
            return float(t.values.reshape(()))
        return float(t)

    @property
    def entries(self) -> np.ndarray:
        """Numeric snapshot of the weights at the current theta."""
        if self.theta is None:
            return self.hidden.astype(np.float64)
        return (self.hidden + self.w1 * self.first
                + self.w2 * self.second).astype(np.float64)

    def weights_tensor(self) -> DiffTensor:
        """The weights as a graph expression so gradients reach theta."""
        base = DiffTensor(self.hidden.astype(np.float64))
        if self.theta is None:
            return base
        theta_t = (self.theta.tensor if isinstance(self.theta, Parameter)
                   else as_tensor(self.theta))
        w1 = sigmoid(theta_t)
        w2 = add(scale(w1, -1.0), DiffTensor(np.float64(1.0)))
        out = add(base, mul(w1, DiffTensor(self.first.astype(np.float64))))
        return add(out, mul(w2, DiffTensor(self.second.astype(np.float64))))

    @classmethod
    def binary(cls, m: ObservationMask) -> "UncertaintyMask":
        """Plain binary weighting (the variant without the uncertainty mask)."""
        z = np.zeros_like(m.entries)
        return cls(hidden=m.entries.copy(), first=z, second=z.copy(), theta=None)


def initial_theta() -> float:
    """Logit giving w1 = 0.75, the midpoint of the converged range."""
    return float(np.log(3.0))


def build_uncertainty_mask(m: ObservationMask, theta,
                           nan_mask: NanLike = None) -> UncertaintyMask:
    """Derive the uncertainty-weight patterns from ``m``.

    Neighborhood is computed per agent column; out-of-range neighbors do not
    exist. NaN-masked slots never receive weight (they have no ground truth).
    """
    h = m.entries.astype(bool)
    nan = nan_entries(nan_mask, m.entries.shape).astype(bool)
    if (h & nan).any():
        raise TaskViolationError("prediction targets overlap the NaN mask")

    near = np.zeros_like(h)
    near[:-1] |= h[1:]
    near[1:] |= h[:-1]
    far = np.zeros_like(h)
    far[:-2] |= h[2:]
    far[2:] |= h[:-2]

    visible = ~h & ~nan
    first = visible & near
    second = visible & ~near & far
    return UncertaintyMask(hidden=m.entries.astype(np.int8),
                           first=first.astype(np.int8),
                           second=second.astype(np.int8),
                           theta=theta)


# ---------------------------------------------------------------------------
# task classification
# ---------------------------------------------------------------------------

def validate_task(m: ObservationMask) -> str:
    """Label a mask with the most specific matching task.

    ``inference`` if any agent is fully hidden; ``forecasting`` if all hidden
    slots form a common suffix ``t >= t_hat`` on the predicted agents;
    ``imputation`` if every predicted agent keeps a visible slot; ``mixed``
    otherwise (including the degenerate all-visible mask).
    """
    e = m.entries
    if e.sum() == 0:
        return "mixed"
    col_hidden = e.sum(axis=0)
    if (col_hidden == m.T).any():
        return "inference"
    predicted = np.flatnonzero(col_hidden > 0)
    first_hidden = np.array([np.argmax(e[:, n]) for n in predicted])
    t_hat = first_hidden[0]
    if (first_hidden == t_hat).all() and all(
            (e[t_hat:, n] == 1).all() for n in predicted):
        return "forecasting"
    return "imputation"
