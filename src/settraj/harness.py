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
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .data import (BALL, DEFENSE, OFFENSE, TrajectorySequence, atomic_write,
                   denormalize, extrapolate_velocity, normalize)
from .errors import ConfigError, DataError, EmptyMaskError, NumericsError
from .masking import (
    ObservationMask,
    build_camera_mask,
    build_circle_mask,
    build_forecasting_mask,
    build_imputation_mask,
    build_inference_mask,
    build_percentage_mask,
    build_uncertainty_mask,
    slot_roles,
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
    _mean,
    accuracy_metric,
    confusion_matrix,
    total_loss,
    trajectory_metrics,
)
from .tensor import Tape, backward, scale

CHECKPOINT_VERSION = 4
ADAM_BETAS = (0.9, 0.999)


# ---------------------------------------------------------------------------
# task specification
# ---------------------------------------------------------------------------

AGENT_GROUPS = {"all": (BALL, OFFENSE, DEFENSE), "players": (OFFENSE, DEFENSE),
                "offense": (OFFENSE,), "defense": (DEFENSE,), "ball": (BALL,)}


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
        types = np.asarray(agent_types)
        if isinstance(selector, str):
            if selector not in AGENT_GROUPS:
                raise ConfigError(f"unknown agent group {selector!r}")
            group = AGENT_GROUPS[selector]
            return [i for i, t in enumerate(types.ravel().tolist())
                    if t in group]
        agents = [int(i) for i in selector]
        for i in agents:
            if not 0 <= i < types.size:
                raise ConfigError(
                    f"agent index {i} outside 0..{types.size - 1}")
        return agents

    def build_mask(self, seq: TrajectorySequence,
                   rng: Optional[np.random.Generator]) -> ObservationMask:
        self.validate()
        T, N = seq.T, seq.N
        if self.kind in ("forecasting", "imputation"):
            t_hat = self.t_hat if self.t_hat is not None else T // 3
            agents = self.resolve_agents(self.predicted, seq.agent_types)
            m = build_forecasting_mask(T, t_hat, agents, N)  # checks t_hat
            if self.kind == "forecasting":
                return m
            return build_imputation_mask(
                T, N, agents, {n: [*range(t_hat), T - 1] for n in agents})
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
        ball = seq.ball_index
        if ball is None:
            raise DataError(f"{self.kind} mode needs a ball agent")
        if self.kind == "circle":
            return build_circle_mask(seq.positions, ball, self.radius)
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
    weight_decay: float = 0.01
    lr_decay_factor: float = 0.5
    lr_decay_every: int = 20
    grad_clip_threshold: float = 5.0
    clip_mode: str = "norm"            # "norm" or "value"
    seed: int = 0
    task: TaskSpec = field(default_factory=TaskSpec)
    init_scheme: str = "xavier_normal"

    def validate(self) -> None:
        counts = ("epochs", "batch_size", "lr_decay_every")
        for name in counts + ("lr", "adam_eps", "grad_clip_threshold"):
            value = getattr(self, name)
            if name in counts and type(value) is not int:
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if not value > 0:
                raise ConfigError(f"{name} must be positive")
        if not self.weight_decay >= 0:
            raise ConfigError("weight_decay must be nonnegative")
        if not 0 < self.lr_decay_factor <= 1:
            raise ConfigError("lr_decay_factor must lie in (0, 1]")
        if self.clip_mode not in ("norm", "value"):
            raise ConfigError("clip_mode must be 'norm' or 'value'")
        if self.init_scheme != "xavier_normal":
            raise ConfigError(f"unknown init_scheme {self.init_scheme!r}; "
                              "only 'xavier_normal' is implemented")

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
                   mode: str = "norm") -> tuple[dict, float]:
    """Global-norm clipping (default): scale all gradients by ``threshold /
    ||g||`` when their joint norm ||g|| exceeds it; ``mode="value"`` clamps
    each entry to ``[-threshold, threshold]``. Returns (gradients, ||g||)."""
    if threshold <= 0:
        raise ConfigError("clip threshold must be positive")
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
    if mode == "value":
        return {k: np.clip(g, -threshold, threshold)
                for k, g in grads.items()}, total
    if total > threshold:
        grads = {k: g * (threshold / total) for k, g in grads.items()}
    return grads, total


class AdamWState:
    """First/second moment buffers per parameter name."""

    def __init__(self, params: ModelParams):
        self.m = {k: np.zeros_like(p.values)
                  for k, p in params.named_parameters().items()}
        self.v = {k: np.zeros_like(p.values)
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
    b1, b2 = ADAM_BETAS
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
        p.values = p.values - lr * (
            m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
            + cfg.weight_decay * p.values)


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    model_cfg: ModelConfig
    params: ModelParams
    moments: AdamWState
    train_cfg: TrainConfig
    epoch: int       # epochs complete
    step: int
    batch: int = 0   # batches of epoch ``epoch`` already done

    def save(self, path) -> None:
        """Single .npz container: the parameters and the two AdamW moments
        as one float64 vector each, in ``named_parameters()`` order, plus a
        JSON metadata blob. Float64 values round-trip bit-exactly.

        The write is atomic (:func:`~settraj.data.atomic_write`). ``path`` is
        used exactly as given (no ``.npz`` suffix is appended)."""
        named = self.params.named_parameters()
        stores = {"param": {k: p.values for k, p in named.items()},
                  "adam_m": self.moments.m, "adam_v": self.moments.v}
        arrays = {kind: np.concatenate([store[k].ravel() for k in named])
                  for kind, store in stores.items()}
        meta = {
            "version": CHECKPOINT_VERSION,
            "model_cfg": self.model_cfg.to_dict(),
            "train_cfg": self.train_cfg.to_dict(),
            "epoch": self.epoch,
            "step": self.step,
            "batch": self.batch,
        }
        arrays["meta"] = np.array(json.dumps(meta))
        with atomic_write(path, "wb") as fh:
            np.savez(fh, **arrays)

    @classmethod
    def load(cls, path) -> "Checkpoint":
        """Read an archive written by :meth:`save`. Shapes come from the
        stored ``model_cfg``; every fault of the file is a ``DataError``
        naming it."""
        try:
            with np.load(path, allow_pickle=False) as archive:
                data = {k: archive[k] for k in archive.files}
            meta = json.loads(str(data.pop("meta")[()]))
        except FileNotFoundError:
            raise DataError(f"no such checkpoint: {path}") from None
        except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile):
            raise DataError(f"{path}: not a checkpoint archive") from None
        if not isinstance(meta, dict):
            raise DataError(f"{path}: checkpoint metadata is not an object")
        if meta.get("version") != CHECKPOINT_VERSION:
            raise DataError(f"{path}: unsupported checkpoint version "
                            f"{meta.get('version')}")
        try:
            model_cfg = ModelConfig.from_dict(meta["model_cfg"])
            train_cfg = TrainConfig.from_dict(meta["train_cfg"])
            counters = [meta[k] for k in ("epoch", "step", "batch")]
            params = init_params(model_cfg, seed=0)
        except (KeyError, TypeError, ValueError, ConfigError) as e:
            raise DataError(f"{path}: incomplete checkpoint: {e!r}") from None
        if any(type(c) is not int or c < 0 for c in counters):
            raise DataError(f"{path}: epoch, step and batch must be integers "
                            f">= 0, got {counters}")
        n = params.n_parameters()
        if sorted(data) != ["adam_m", "adam_v", "param"] or any(
                v.dtype != np.float64 or v.shape != (n,) for v in data.values()):
            raise DataError(f"{path}: expected meta and float64 vectors param, "
                            f"adam_m and adam_v of {n} values, got " + ", ".join(
                                f"{k} {v.dtype} {v.shape}"
                                for k, v in sorted(data.items())))
        moments = AdamWState(params)
        start = 0
        for name, p in params.named_parameters().items():
            shape, end = p.values.shape, start + p.values.size
            p.values = data["param"][start:end].reshape(shape)
            moments.m[name] = data["adam_m"][start:end].reshape(shape)
            moments.v[name] = data["adam_v"][start:end].reshape(shape)
            start = end
        return cls(model_cfg, params, moments, train_cfg, *counters)


# ---------------------------------------------------------------------------
# forward plumbing shared by train / evaluate
# ---------------------------------------------------------------------------

def run_model(seq: TrajectorySequence, m: ObservationMask, cfg: ModelConfig,
              params: ModelParams) -> tuple[ForwardOutput, np.ndarray,
                                            np.ndarray]:
    """Forward one sequence through the model in normalized coordinates.

    Returns the raw forward output, the predictions mapped back to field
    units, and the field-unit trajectories with the original visible values
    composited back bit-exactly.
    """
    nan = seq.nan_mask()
    x_in = seq.inputs(channels=cfg.input_channels)
    out = forward(x_in, m, nan, cfg, params)
    pred_field = denormalize(out.predictions.values, seq.pitch)
    trajectories = np.where(out.visible[..., None], seq.positions, pred_field)
    return out, pred_field, trajectories


def sequence_mask(seq: TrajectorySequence, task: TaskSpec, seed: int,
                  index: int) -> ObservationMask:
    """The task mask of sequence ``index`` of a set. Only the percentage
    kind draws, from a random stream of its own made for it alone."""
    rng = (np.random.default_rng([seed, 0, 2, index])
           if task.kind == "percentage" else None)
    return task.build_mask(seq, rng)


def build_masks(seqs: Sequence[TrajectorySequence], task: TaskSpec,
                seed: int) -> list[ObservationMask]:
    return [sequence_mask(s, task, seed, i) for i, s in enumerate(seqs)]


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
    grad_norm: float    # joint gradient norm before clipping
    clip_factor: float  # global-norm clip scale: 1 = unclipped, nan = value mode

    CSV_HEADER = "step,epoch,lr,loss,l_ade,l_ce,w1,grad_norm,clip_factor"

    def csv_row(self) -> str:
        return (f"{self.step},{self.epoch},{self.lr:.8f},{self.loss:.8f},"
                f"{self.l_ade:.8f},{self.l_ce:.8f},{self.w1:.8f},"
                f"{self.grad_norm:.8f},{self.clip_factor:.8f}")


def validate_run(train_seqs: Sequence[TrajectorySequence],
                 model_cfg: ModelConfig, train_cfg: TrainConfig,
                 max_steps: Optional[int] = None,
                 resume_from: Optional[Checkpoint] = None) -> None:
    """Raise for the settings and data ``train`` refuses before any mask,
    including a checkpoint of another model, or one taken mid-epoch in
    another batch order (batch size, seed or task) than ``train_cfg``'s."""
    model_cfg.validate()
    train_cfg.validate()
    if max_steps is not None and max_steps < 1:
        raise ConfigError(f"max_steps must be at least 1, got {max_steps}")
    if not train_seqs:
        raise DataError("training needs at least one sequence")
    needs_labels = model_cfg.with_cls and model_cfg.lambda_ce > 0
    if needs_labels and any(s.states is None for s in train_seqs):
        raise DataError("state classification needs labeled sequences")
    if resume_from is None:
        return
    ckpt, run = resume_from, train_cfg.to_dict()
    order = {k: run[k] for k in ("batch_size", "seed", "task")}
    for what, ours, theirs in (
            ("a different model", model_cfg.to_dict(),
             ckpt.model_cfg.to_dict()),
            (f"at batch {ckpt.batch} of epoch {ckpt.epoch} in another batch "
             "order", order if ckpt.batch else {}, ckpt.train_cfg.to_dict())):
        changed = ", ".join(f"{k} is {theirs[k]!r} in the checkpoint, "
                            f"{v!r} here" for k, v in ours.items()
                            if theirs[k] != v)
        if changed:
            raise ConfigError(f"cannot resume {what}: {changed}")


def train(train_seqs: Sequence[TrajectorySequence], model_cfg: ModelConfig,
          train_cfg: TrainConfig,
          val_seqs: Sequence[TrajectorySequence] = (),
          out_dir=None, max_steps: Optional[int] = None,
          resume_from: Optional[Checkpoint] = None
          ) -> tuple[Checkpoint, list[StepLog]]:
    """Run the optimization loop and return the final checkpoint plus the
    per-step log.

    Task masks are built once per run; a sequence without a target slot
    (every hidden slot absent) is left out. One loop walks the cursor (epoch,
    batch) from the checkpoint's, or (0, 0), while epochs remain and
    ``max_steps`` allows another step. A step trains one batch of the epoch's
    seeded order: per-sequence gradients accumulate in fixed order, are
    clipped, and one AdamW step is applied. Validation runs as the cursor
    enters a new epoch. A non-finite loss aborts with a diagnostic.
    """
    validate_run(train_seqs, model_cfg, train_cfg, max_steps, resume_from)
    if resume_from is None:
        params = init_params(model_cfg, seed=train_cfg.seed)
        resume_from = Checkpoint(model_cfg, params, AdamWState(params),
                                 train_cfg, epoch=0, step=0)
    params, moments = resume_from.params, resume_from.moments
    epoch, step, b = resume_from.epoch, resume_from.step, resume_from.batch

    logs: list[StepLog] = []
    val_rows: list[str] = []  # val_log.csv rows, one per validated epoch
    best_val = np.inf
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    masks = build_masks(train_seqs, train_cfg.task, train_cfg.seed)
    kept = [(s, m) for s, m in zip(train_seqs, masks)
            if slot_roles(m, s.nan_mask())[2].any()]
    if not kept:
        raise EmptyMaskError("no training sequence has a target slot")
    train_seqs, masks = map(list, zip(*kept))
    bs = train_cfg.batch_size
    n_batches = -(-len(train_seqs) // bs)
    if b >= n_batches:
        raise ConfigError(f"cannot resume at batch {b} of epoch {epoch}: "
                          f"this run has {n_batches} batches an epoch")
    # the cursor (epoch, b): batch b of epoch ``epoch``'s seeded order is next
    while epoch < train_cfg.epochs and (max_steps is None or step < max_steps):
        lr = lr_schedule(epoch, train_cfg)
        batch = np.random.default_rng([train_cfg.seed, epoch, 1]).permutation(
            len(train_seqs))[b * bs:(b + 1) * bs]
        params.zero_grad()
        reports = [_train_step(train_seqs[i], masks[i], model_cfg, params,
                               len(batch)) for i in batch]
        grads = {name: (p.grad if p.grad is not None
                        else np.zeros_like(p.values))
                 for name, p in params.named_parameters().items()}
        clip = train_cfg.grad_clip_threshold
        grads, norm = clip_gradients(grads, clip, train_cfg.clip_mode)
        factor = (clip / max(norm, clip) if train_cfg.clip_mode == "norm"
                  else float("nan"))
        step += 1
        adamw_step(params, grads, moments, step, train_cfg, lr=lr)
        logs.append(StepLog(
            step=step, epoch=epoch, lr=lr,
            loss=float(np.mean([r.total for r in reports])),
            l_ade=float(np.mean([r.l_ade for r in reports])),
            l_ce=float(np.mean([r.l_ce for r in reports])),
            w1=reports[-1].w1_value, grad_norm=norm, clip_factor=factor,
        ))
        if not np.isfinite(logs[-1].loss):
            raise NumericsError(f"training diverged at step {step}")
        epoch, b = (epoch, b + 1) if b + 1 < n_batches else (epoch + 1, 0)
        if val_seqs and b == 0:
            report, _ = evaluate(params, model_cfg, val_seqs, train_cfg.task,
                                 seed=train_cfg.seed)
            val_rows.append(f"{epoch - 1},{report.ade:.8f}")
            if out_dir is not None and report.ade < best_val:
                best_val = report.ade
                Checkpoint(model_cfg, params, moments, train_cfg, epoch, step,
                           b).save(out_dir / "checkpoint_best.npz")

    ckpt = Checkpoint(model_cfg, params, moments, train_cfg, epoch, step, b)
    if out_dir is not None:
        ckpt.save(out_dir / "checkpoint_final.npz")
        write_step_log(logs, out_dir / "train_log.csv")
        if val_rows:
            (out_dir / "val_log.csv").write_text(
                "\n".join(["epoch,val_ade", *val_rows]) + "\n")
    return ckpt, logs


def _train_step(seq, mask, model_cfg, params,
                batch_size: int) -> LossReport:
    """Accumulate one sequence's gradient, scaled by ``1 / batch_size``.

    The loss is taken in the model's normalized pitch frame, where ``lam``
    balances the ADE term against the cross entropy; metrics stay in field
    units.
    """
    nan = seq.nan_mask()
    x_in = seq.inputs(channels=model_cfg.input_channels)
    target = normalize(seq.positions, seq.pitch)
    with Tape() as tape:
        out = forward(x_in, mask, nan, model_cfg, params)
        # unc_theta is None without the uncertainty mask: binary weights
        m_unc = build_uncertainty_mask(mask, params.unc_theta, nan)
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

    Per-sequence metrics are averaged unweighted over the sequences with a
    target slot; ``d_count`` sums the per-sequence D. FDE is reported only
    when every mask is a forecasting mask. The confusion matrix is returned
    when the model classifies and the data is labeled.
    """
    def predict(seq, m, roles):
        out, _, traj = run_model(seq, m, model_cfg, params)
        graded = model_cfg.with_cls and seq.states is not None
        return traj, out.state_scores.values if graded else None

    return _score(seqs, task, seed, predict)


def evaluate_velocity_baseline(seqs: Sequence[TrajectorySequence],
                               task: TaskSpec, seed: int = 0) -> MetricReport:
    """The extrapolation baseline pushed through the same metric pipeline
    (no classifier, so accuracy is absent)."""
    return _score(seqs, task, seed, lambda seq, m, roles: (
        extrapolate_velocity(seq.positions, roles[1]), None))[0]


def _score(seqs, task, seed, predict):
    """The metric loop of both evaluations: ``predict(seq, mask, roles)``,
    with the sequence's :func:`~settraj.masking.slot_roles`, gives
    field-unit trajectories and the per-frame state scores to grade (None
    for none). A sequence without a target slot is not scored."""
    if not seqs:
        raise DataError("evaluation needs at least one sequence")
    masks = build_masks(seqs, task, seed)
    rows, accs = [], []  # trajectory_metrics of each scored sequence
    cm = None
    all_forecasting = all(validate_task(m) == "forecasting" for m in masks)
    for seq, m in zip(seqs, masks):
        roles = slot_roles(m, seq.nan_mask())
        traj, scores = predict(seq, m, roles)
        try:
            rows.append(trajectory_metrics(traj, seq.positions, roles[2]))
        except EmptyMaskError:
            continue
        if scores is not None:
            truth = seq.one_hot_states(scores.shape[-1])
            accs.append(accuracy_metric(truth, scores))
            step_cm = confusion_matrix(truth, scores, scores.shape[-1])
            cm = step_cm if cm is None else cm + step_cm
    if not rows:
        raise EmptyMaskError("no sequence has a target slot to evaluate")
    ades, maxes, ds, fdes = zip(*rows)
    return MetricReport(
        ade=_mean(np.array(ades)),
        fde=_mean(np.array(fdes)) if all_forecasting else None,
        max_err=_mean(np.array(maxes)),
        acc=_mean(np.array(accs)) if accs else None,
        d_count=sum(ds),
    ), cm


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
