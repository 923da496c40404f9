"""Training and evaluation harness: AdamW with decoupled weight decay, the
stepped learning-rate schedule, gradient clipping, the deterministic training
loop, metric evaluation, checkpointing and attention-map export.

Determinism: every random draw derives from ``numpy.random.default_rng``
seeded with a tuple of (seed, epoch, stream, ...) integers, so resuming from
a checkpoint replays the exact uninterrupted run.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .data import TrajectorySequence, normalize, velocity_baseline
from .errors import ConfigError, DataError, NumericsError
from .masking import (
    ObservationMask,
    UncertaintyMask,
    build_camera_mask,
    build_circle_mask,
    build_forecasting_mask,
    build_imputation_mask,
    build_inference_mask,
    build_percentage_mask,
    build_uncertainty_mask,
    validate_task,
)
from .model import (
    ForwardOutput,
    ModelConfig,
    ModelParams,
    forward,
    init_params,
)
from .objectives import (
    LossReport,
    MetricReport,
    accuracy_metric,
    ade_metric,
    confusion_matrix,
    fde_metric,
    max_err_metric,
    total_loss,
)
from .tensor import DiffTensor, Tape, add, backward, mul, scale

CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------------------
# task specification
# ---------------------------------------------------------------------------

_GROUPS = ("all", "players", "offense", "defense", "ball")


@dataclass
class TaskSpec:
    """Which slots of a sequence are hidden, and how.

    ``kind`` is one of forecasting / imputation / inference / percentage /
    circle / camera. Agent selectors are either a named group ("players",
    "offense", "defense", "ball", "all") or an explicit tuple of indices.
    The imputation kind is the forecasting protocol with each predicted
    agent's final timestep kept visible.
    """

    kind: str = "forecasting"
    predicted: object = "players"      # forecasting / imputation / percentage
    t_hat: Optional[int] = None        # forecasting / imputation
    hidden_agents: object = "ball"     # inference
    fraction: float = 0.8              # percentage
    radius: float = 5.0                # circle
    half_angle_deg: float = 20.0       # camera

    def validate(self) -> None:
        kinds = ("forecasting", "imputation", "inference", "percentage",
                 "circle", "camera")
        if self.kind not in kinds:
            raise ConfigError(f"unknown task kind {self.kind!r}")

    def resolve_agents(self, selector, agent_types: np.ndarray) -> list[int]:
        if isinstance(selector, str):
            if selector not in _GROUPS:
                raise ConfigError(f"unknown agent group {selector!r}")
            types = np.asarray(agent_types)
            if selector == "all":
                return list(range(types.size))
            wanted = {"players": (1, 2), "offense": (1,), "defense": (2,),
                      "ball": (0,)}[selector]
            return [int(i) for i in np.flatnonzero(np.isin(types, wanted))]
        return [int(i) for i in selector]

    def build_mask(self, seq: TrajectorySequence,
                   rng: np.random.Generator) -> ObservationMask:
        self.validate()
        T, N = seq.T, seq.N
        if self.kind == "forecasting":
            t_hat = self.t_hat if self.t_hat is not None else T // 3
            agents = self.resolve_agents(self.predicted, seq.agent_types)
            return build_forecasting_mask(T, t_hat, agents, N)
        if self.kind == "imputation":
            t_hat = self.t_hat if self.t_hat is not None else T // 3
            agents = self.resolve_agents(self.predicted, seq.agent_types)
            base = build_forecasting_mask(T, t_hat, agents, N)
            visible = {n: [t for t in range(T) if base.entries[t, n] == 0]
                       + [T - 1] for n in agents}
            return build_imputation_mask(T, N, agents, visible)
        if self.kind == "inference":
            agents = self.resolve_agents(self.hidden_agents, seq.agent_types)
            return build_inference_mask(T, agents, N)
        if self.kind == "percentage":
            agents = self.resolve_agents(self.predicted, seq.agent_types)
            entries = np.zeros((T, N), dtype=np.int8)
            for a in agents:
                entries |= build_percentage_mask(T, N, a, self.fraction,
                                                 rng).entries
            return ObservationMask(entries)
        if self.kind == "circle":
            ball = seq.ball_index
            if ball is None:
                raise DataError("circle mode needs a ball agent")
            return build_circle_mask(seq.positions, ball, self.radius)
        ball = seq.ball_index
        if ball is None:
            raise DataError("camera mode needs a ball agent")
        return build_camera_mask(seq.positions, ball, self.half_angle_deg,
                                 seq.pitch.center)

    def label(self) -> str:
        if self.kind in ("forecasting", "imputation"):
            return f"{self.kind}(predicted={self.predicted};t_hat={self.t_hat})"
        if self.kind == "inference":
            return f"inference(hidden={self.hidden_agents})"
        if self.kind == "percentage":
            return f"percentage(agents={self.predicted};f={self.fraction})"
        if self.kind == "circle":
            return f"circle(r={self.radius})"
        return f"camera(theta={self.half_angle_deg})"

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        for key in ("predicted", "hidden_agents"):
            if not isinstance(d[key], str):
                d[key] = list(d[key])
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TaskSpec":
        d = dict(d)
        for key in ("predicted", "hidden_agents"):
            if key in d and not isinstance(d[key], str):
                d[key] = tuple(d[key])
        return cls(**d)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    """Optimization hyperparameters. Defaults are the full-scale settings."""

    epochs: int = 100
    batch_size: int = 64
    lr: float = 0.001
    adam_eps: float = 1e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    weight_decay: float = 0.01
    lr_decay_factor: float = 0.5
    lr_decay_every: int = 20
    grad_clip_threshold: float = 5.0
    clip_mode: str = "norm"            # "norm" or "value"
    seed: int = 0
    task: TaskSpec = field(default_factory=TaskSpec)
    regenerate_masks: bool = False     # rebuild random masks every epoch
    lr_warmup_steps: int = 0           # linear per-step ramp, 0 disables
    init_scheme: str = "xavier_normal"

    def validate(self) -> None:
        for name in ("epochs", "batch_size", "lr", "adam_eps",
                     "grad_clip_threshold", "lr_decay_every"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.clip_mode not in ("norm", "value"):
            raise ConfigError("clip_mode must be 'norm' or 'value'")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["task"] = self.task.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        d["task"] = TaskSpec.from_dict(d["task"])
        return cls(**d)


def lr_schedule(epoch: int, cfg: TrainConfig) -> float:
    """Base rate halved (by ``lr_decay_factor``) every ``lr_decay_every``
    epochs."""
    if epoch < 0:
        raise ConfigError("epoch must be nonnegative")
    return cfg.lr * cfg.lr_decay_factor ** (epoch // cfg.lr_decay_every)


def clip_gradients(grads: dict, threshold: float,
                   mode: str = "norm") -> dict:
    """Global-norm clipping (default): scale all gradients by
    ``threshold / ||g||`` when the joint norm exceeds the threshold.
    ``mode="value"`` clamps each entry to ``[-threshold, threshold]``."""
    if threshold <= 0:
        raise ConfigError("clip threshold must be positive")
    if mode == "value":
        return {k: np.clip(g, -threshold, threshold) for k, g in grads.items()}
    total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total <= threshold:
        return grads
    factor = threshold / total
    return {k: g * factor for k, g in grads.items()}


class AdamWState:
    """First/second moment buffers per parameter name."""

    def __init__(self, params: ModelParams):
        self.m = {k: np.zeros_like(p.tensor.values)
                  for k, p in params.named_parameters().items()}
        self.v = {k: np.zeros_like(p.tensor.values)
                  for k, p in params.named_parameters().items()}


def adamw_step(params: ModelParams, grads: dict, moments: AdamWState,
               t: int, cfg: TrainConfig, lr: Optional[float] = None) -> None:
    """One decoupled-weight-decay Adam update with bias correction.

    ``t`` is the 1-based step count. Aborts (without touching any parameter)
    if a gradient is non-finite.
    """
    if t < 1:
        raise ConfigError("step count is 1-based")
    lr = cfg.lr if lr is None else lr
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NumericsError(f"non-finite gradient for {name!r}; "
                                f"step {t} aborted")
    for name, p in params.named_parameters().items():
        g = grads[name]
        m = moments.m[name] = b1 * moments.m[name] + (1.0 - b1) * g
        v = moments.v[name] = b2 * moments.v[name] + (1.0 - b2) * (g * g)
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        p.tensor.values = p.tensor.values - lr * (
            m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
            + cfg.weight_decay * p.tensor.values)


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    model_cfg: ModelConfig
    params: ModelParams
    moments: AdamWState
    train_cfg: TrainConfig
    epoch: int
    step: int

    def save(self, path) -> None:
        """Single .npz container: named parameter/moment arrays plus a JSON
        metadata blob. Float64 arrays round-trip bit-exactly.

        The write is atomic: the archive goes to a temporary sibling that
        then replaces ``path``, so a crash leaves either the previous file or
        the new one, never a partial one. ``path`` is used exactly as given
        (no ``.npz`` suffix is appended)."""
        arrays = {}
        for name, p in self.params.named_parameters().items():
            arrays[f"param:{name}"] = p.tensor.values
            arrays[f"adam_m:{name}"] = self.moments.m[name]
            arrays[f"adam_v:{name}"] = self.moments.v[name]
        meta = {
            "version": CHECKPOINT_VERSION,
            "model_cfg": self.model_cfg.to_dict(),
            "train_cfg": self.train_cfg.to_dict(),
            "epoch": self.epoch,
            "step": self.step,
            "rng": {"seed": self.train_cfg.seed,
                    "scheme": "seedsequence(seed, epoch, stream)"},
        }
        arrays["meta"] = np.array(json.dumps(meta))
        path = Path(path)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as fh:
                np.savez(fh, **arrays)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def load(cls, path) -> "Checkpoint":
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"][()]))
            if meta.get("version") != CHECKPOINT_VERSION:
                raise DataError(f"unsupported checkpoint version "
                                f"{meta.get('version')}")
            model_cfg = ModelConfig.from_dict(meta["model_cfg"])
            train_cfg = TrainConfig.from_dict(meta["train_cfg"])
            param_arrays = {k[len("param:"):]: data[k] for k in data.files
                            if k.startswith("param:")}
            params = init_params(model_cfg, seed=0, arrays=param_arrays)
            moments = AdamWState(params)
            for name in params.named_parameters():
                moments.m[name] = np.ascontiguousarray(data[f"adam_m:{name}"],
                                                       dtype=np.float64)
                moments.v[name] = np.ascontiguousarray(data[f"adam_v:{name}"],
                                                       dtype=np.float64)
        return cls(model_cfg=model_cfg, params=params, moments=moments,
                   train_cfg=train_cfg, epoch=meta["epoch"],
                   step=meta["step"])


# ---------------------------------------------------------------------------
# forward plumbing shared by train / evaluate
# ---------------------------------------------------------------------------

def _denorm_predictions(pred: DiffTensor, pitch) -> DiffTensor:
    half = np.array([pitch.length / 2.0, pitch.width / 2.0])
    return add(mul(pred, DiffTensor(half)), DiffTensor(half))


def run_model(seq: TrajectorySequence, m: ObservationMask, cfg: ModelConfig,
              params: ModelParams) -> tuple[ForwardOutput, DiffTensor,
                                            np.ndarray]:
    """Forward one sequence through the model in normalized coordinates.

    Returns the raw forward output, the predictions mapped back to field
    units (still differentiable), and the field-unit trajectories with the
    original visible values composited back bit-exactly.
    """
    nan = seq.nan_mask()
    x_in = seq.inputs(channels=cfg.input_channels, normalized=True)
    out = forward(x_in, m, nan, cfg, params)
    pred_field = _denorm_predictions(out.predictions, seq.pitch)
    visible = (m.entries == 0) & (nan == 0)
    trajectories = np.where(visible[..., None], seq.positions,
                            pred_field.values)
    return out, pred_field, trajectories


def _mask_rng(seed: int, epoch: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, epoch, 2, index])


def build_masks(seqs: Sequence[TrajectorySequence], task: TaskSpec,
                seed: int, epoch: int = 0) -> list[ObservationMask]:
    return [task.build_mask(s, _mask_rng(seed, epoch, i))
            for i, s in enumerate(seqs)]


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass
class StepLog:
    step: int
    epoch: int
    lr: float
    loss: float
    l_ade: float
    l_ce: float
    w1: float

    CSV_HEADER = "step,epoch,lr,loss,l_ade,l_ce,w1"

    def csv_row(self) -> str:
        return (f"{self.step},{self.epoch},{self.lr:.8f},{self.loss:.8f},"
                f"{self.l_ade:.8f},{self.l_ce:.8f},{self.w1:.8f}")


def train(train_seqs: Sequence[TrajectorySequence], model_cfg: ModelConfig,
          train_cfg: TrainConfig,
          val_seqs: Sequence[TrajectorySequence] = (),
          out_dir=None, max_steps: Optional[int] = None,
          resume_from: Optional[Checkpoint] = None
          ) -> tuple[Checkpoint, list[StepLog]]:
    """Run the optimization loop and return the final checkpoint plus the
    per-step log.

    Per epoch: batch order is reshuffled (seeded), task masks are rebuilt
    (re-randomized only when ``regenerate_masks``), each batch accumulates
    per-sequence gradients in fixed order, gradients are clipped, and one
    AdamW step is applied. A non-finite loss aborts with a diagnostic.
    """
    model_cfg.validate()
    train_cfg.validate()
    if not train_seqs:
        raise DataError("training needs at least one sequence")
    needs_labels = model_cfg.with_cls and model_cfg.lambda_ce > 0
    if needs_labels and any(s.states is None for s in train_seqs):
        raise DataError("state classification needs labeled sequences")

    if resume_from is not None:
        params, moments = resume_from.params, resume_from.moments
        start_epoch, step = resume_from.epoch, resume_from.step
    else:
        params = init_params(model_cfg, seed=train_cfg.seed)
        moments = AdamWState(params)
        start_epoch, step = 0, 0

    logs: list[StepLog] = []
    val_history: list[dict] = []
    best_val = np.inf
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    masks = build_masks(train_seqs, train_cfg.task, train_cfg.seed, epoch=0)
    stop = False
    final_epoch = start_epoch
    for epoch in range(start_epoch, train_cfg.epochs):
        final_epoch = epoch + 1
        if train_cfg.regenerate_masks and epoch > 0:
            masks = build_masks(train_seqs, train_cfg.task, train_cfg.seed,
                                epoch=epoch)
        lr = lr_schedule(epoch, train_cfg)
        order = np.random.default_rng(
            [train_cfg.seed, epoch, 1]).permutation(len(train_seqs))
        for lo in range(0, len(order), train_cfg.batch_size):
            batch = order[lo:lo + train_cfg.batch_size]
            params.zero_grad()
            reports: list[LossReport] = []
            for idx in batch:
                seq = train_seqs[idx]
                reports.append(_train_step(seq, masks[idx], model_cfg,
                                           params, len(batch)))
            grads = {}
            for name, p in params.named_parameters().items():
                grads[name] = (p.tensor.grad if p.tensor.grad is not None
                               else np.zeros_like(p.tensor.values))
            grads = clip_gradients(grads, train_cfg.grad_clip_threshold,
                                   train_cfg.clip_mode)
            step += 1
            eff_lr = lr
            if train_cfg.lr_warmup_steps > 0:
                eff_lr = lr * min(1.0, step / train_cfg.lr_warmup_steps)
            adamw_step(params, grads, moments, step, train_cfg, lr=eff_lr)
            logs.append(StepLog(
                step=step, epoch=epoch, lr=eff_lr,
                loss=float(np.mean([r.total for r in reports])),
                l_ade=float(np.mean([r.l_ade for r in reports])),
                l_ce=float(np.mean([r.l_ce for r in reports])),
                w1=reports[-1].w1_value,
            ))
            if not np.isfinite(logs[-1].loss):
                raise NumericsError(f"training diverged at step {step}")
            if max_steps is not None and step >= max_steps:
                stop = True
                break
        if val_seqs:
            report, _ = evaluate(params, model_cfg, val_seqs, train_cfg.task,
                                 seed=train_cfg.seed)
            val_history.append({"epoch": epoch, "ade": report.ade})
            if out_dir is not None and report.ade < best_val:
                best_val = report.ade
                Checkpoint(model_cfg, params, moments, train_cfg,
                           epoch + 1, step).save(out_dir / "checkpoint_best.npz")
        if stop:
            break

    ckpt = Checkpoint(model_cfg=model_cfg, params=params, moments=moments,
                      train_cfg=train_cfg, epoch=final_epoch, step=step)
    if out_dir is not None:
        ckpt.save(out_dir / "checkpoint_final.npz")
        write_step_log(logs, out_dir / "train_log.csv")
        if val_history:
            lines = ["epoch,val_ade"]
            lines += [f"{h['epoch']},{h['ade']:.8f}" for h in val_history]
            (out_dir / "val_log.csv").write_text("\n".join(lines) + "\n")
    return ckpt, logs


def _train_step(seq, mask, model_cfg, params,
                batch_size: int) -> LossReport:
    """Accumulate one sequence's gradient, scaled by ``1 / batch_size``.

    The loss is taken in the model's normalized pitch frame, where ``lam``
    balances the ADE term against the cross entropy; metrics stay in field
    units.
    """
    nan = seq.nan_mask()
    x_in = seq.inputs(channels=model_cfg.input_channels, normalized=True)
    target = normalize(seq.positions, seq.pitch)
    with Tape() as tape:
        out = forward(x_in, mask, nan, model_cfg, params)
        theta = params.unc_theta if model_cfg.with_unc_mask else None
        if theta is not None:
            m_unc = build_uncertainty_mask(mask, theta, nan)
        else:
            m_unc = UncertaintyMask.binary(mask)
        lam = model_cfg.lambda_ce if model_cfg.with_cls else 0.0
        s = seq.one_hot_states(model_cfg.n_state_classes) if lam > 0 else None
        loss, report = total_loss(out.predictions, target, m_unc, s,
                                  out.state_scores, lam)
        backward(scale(loss, 1.0 / batch_size), tape)
    return report


def write_step_log(logs: Sequence[StepLog], path) -> None:
    lines = [StepLog.CSV_HEADER] + [l.csv_row() for l in logs]
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate(params: ModelParams, model_cfg: ModelConfig,
             seqs: Sequence[TrajectorySequence], task: TaskSpec,
             seed: int = 0) -> tuple[MetricReport, Optional[np.ndarray]]:
    """Deterministic metrics over a sequence set.

    Per-sequence metrics are averaged unweighted; ``d_count`` sums the
    per-sequence D. FDE is reported only when every mask is a forecasting
    mask. The confusion matrix is returned when the model classifies and the
    data is labeled.
    """
    if not seqs:
        raise DataError("evaluation needs at least one sequence")
    masks = build_masks(seqs, task, seed, epoch=0)
    ades, fdes, maxes, accs = [], [], [], []
    d_total = 0
    cm = None
    all_forecasting = all(validate_task(m) == "forecasting" for m in masks)
    for seq, m in zip(seqs, masks):
        out, _, traj = run_model(seq, m, model_cfg, params)
        nan = seq.nan_mask()
        ades.append(ade_metric(traj, seq.positions, m, nan))
        mx, d = max_err_metric(traj, seq.positions, m, nan)
        maxes.append(mx)
        d_total += d
        if all_forecasting:
            fdes.append(fde_metric(traj, seq.positions, m, nan))
        if model_cfg.with_cls and seq.states is not None:
            truth = seq.one_hot_states(model_cfg.n_state_classes)
            pred = out.state_scores.values
            accs.append(accuracy_metric(truth, pred))
            step_cm = confusion_matrix(truth, pred, model_cfg.n_state_classes)
            cm = step_cm if cm is None else cm + step_cm
    report = MetricReport(
        ade=float(np.mean(ades)),
        fde=float(np.mean(fdes)) if fdes else None,
        max_err=float(np.mean(maxes)),
        acc=float(np.mean(accs)) if accs else None,
        d_count=d_total,
    )
    return report, cm


def evaluate_velocity_baseline(seqs: Sequence[TrajectorySequence],
                               task: TaskSpec, seed: int = 0) -> MetricReport:
    """The extrapolation baseline pushed through the same metric pipeline
    (no classifier, so accuracy is absent)."""
    if not seqs:
        raise DataError("evaluation needs at least one sequence")
    masks = build_masks(seqs, task, seed, epoch=0)
    ades, fdes, maxes = [], [], []
    d_total = 0
    all_forecasting = all(validate_task(m) == "forecasting" for m in masks)
    for seq, m in zip(seqs, masks):
        nan = seq.nan_mask()
        x_hat = velocity_baseline(seq.positions, m, nan)
        ades.append(ade_metric(x_hat, seq.positions, m, nan))
        mx, d = max_err_metric(x_hat, seq.positions, m, nan)
        maxes.append(mx)
        d_total += d
        if all_forecasting:
            fdes.append(fde_metric(x_hat, seq.positions, m, nan))
    return MetricReport(ade=float(np.mean(ades)),
                        fde=float(np.mean(fdes)) if fdes else None,
                        max_err=float(np.mean(maxes)), acc=None,
                        d_count=d_total)


def write_metric_report(report: MetricReport, task: TaskSpec, seed: int,
                        path) -> None:
    lines = [MetricReport.CSV_HEADER,
             report.csv_row(task.kind, task.label(), seed)]
    Path(path).write_text("\n".join(lines) + "\n")


def write_confusion_matrix(cm: np.ndarray, path) -> None:
    lines = [",".join(str(int(v)) for v in row) for row in cm]
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# attention export
# ---------------------------------------------------------------------------

def export_attention(params: ModelParams, model_cfg: ModelConfig,
                     seq: TrajectorySequence, m: ObservationMask,
                     query_agent: int, out_dir) -> dict:
    """Dump the social attention received by ``query_agent`` from every agent
    at every timestep, one [T x (N+1)] CSV per social block (coarse and
    fine), head-averaged. Returns the arrays keyed like the files."""
    if not model_cfg.with_social:
        raise ConfigError("the no-social variant has no social attention")
    A = seq.N + (1 if model_cfg.with_cls else 0)
    if not 0 <= query_agent < A:
        raise ConfigError(f"query agent {query_agent} outside 0..{A - 1}")
    out, _, _ = run_model(seq, m, model_cfg, params)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = [f"agent_{n}" for n in range(seq.N)]
    if model_cfg.with_cls:
        names.append("cls")
    result = {}
    for key, stack in (("coarse", out.attention["coarse_social"]),
                       ("fine", out.attention["fine_social"])):
        rows = stack[:, query_agent, :]  # [T x A]
        result[key] = rows
        lines = [",".join(names)]
        lines += [",".join(f"{v:.8f}" for v in row) for row in rows]
        (out_dir / f"attention_{key}.csv").write_text("\n".join(lines) + "\n")
    return result
