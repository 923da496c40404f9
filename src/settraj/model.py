"""The trajectory-completion network: shared input embedding with agent type,
a CLS extra agent feeding a per-frame state classifier, sinusoidal positional
encoding, a masked coarse encoder followed by an unmasked fine encoder (each
two temporal set attention blocks then one social block), output heads, and
visible-value passthrough.

Axis convention throughout: ``[T x A x d]`` with time first, agents second
(the CLS extra agent, when enabled, is the last agent), channels last.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .attention import (MhaParams, RffnParams, SabParams, rffn_apply,
                        set_attention_block)
from .errors import ConfigError, DataError, ShapeError
from .masking import ObservationMask, initial_theta, slot_roles
from .tensor import (
    DiffTensor,
    add,
    concat_axis,
    mul,
    reshape,
    softmax_rows,
    split_axis,
    transpose,
    xavier_normal_init,
)


@dataclass
class ModelConfig:
    """Architecture hyperparameters. Defaults are the full-scale settings."""

    d: int = 128
    n_heads: int = 16
    sab_hidden: int = 512
    n_state_classes: int = 4
    input_channels: int = 3
    lambda_ce: float = 4.0
    with_cls: bool = True
    with_social: bool = True
    with_unc_mask: bool = True

    def validate(self) -> None:
        if self.n_heads < 1:
            raise ConfigError(f"n_heads must be at least 1, got {self.n_heads}")
        if self.d % self.n_heads != 0:
            raise ConfigError(f"d={self.d} not divisible by n_heads={self.n_heads}")
        if self.d % 2 != 0:
            raise ConfigError("d must be even for the positional encoding")
        if self.with_cls and self.n_state_classes < 2:
            raise ConfigError("state classification needs at least 2 classes")
        if self.input_channels not in (2, 3):
            raise ConfigError("input_channels must be 2 (x,y) or 3 (x,y,type)")
        if self.lambda_ce < 0:
            raise ConfigError("lambda_ce must be nonnegative")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


@dataclass
class EncoderParams:
    sab_t1: SabParams
    sab_t2: SabParams
    sab_s: Optional[SabParams]  # absent in the no-social variant


class ModelParams:
    """All learnable weights, addressable by dotted name in a fixed order."""

    def __init__(self):
        self._by_name: dict[str, DiffTensor] = {}
        self.input_rffn: RffnParams = None
        self.cls_embedding: Optional[DiffTensor] = None
        self.encoder_c: EncoderParams = None
        self.encoder_f: EncoderParams = None
        self.output_rffn: RffnParams = None
        self.classifier_rffn: Optional[RffnParams] = None
        self.unc_theta: Optional[DiffTensor] = None

    def register(self, name: str, values) -> DiffTensor:
        if name in self._by_name:
            raise ConfigError(f"duplicate parameter name {name!r}")
        p = self._by_name[name] = DiffTensor(values)
        return p

    def named_parameters(self) -> dict[str, DiffTensor]:
        return dict(self._by_name)

    def zero_grad(self) -> None:
        for p in self._by_name.values():
            p.grad = None

    def n_parameters(self) -> int:
        return sum(p.values.size for p in self._by_name.values())


def _build_rffn(params: ModelParams, prefix: str, d_in: int, hidden: int,
                d_out: int, draw) -> RffnParams:
    return RffnParams(
        w1=params.register(f"{prefix}.w1", draw(d_in, hidden)),
        b1=params.register(f"{prefix}.b1", np.zeros(hidden)),
        w2=params.register(f"{prefix}.w2", draw(hidden, d_out)),
        b2=params.register(f"{prefix}.b2", np.zeros(d_out)),
    )


def _build_sab(params: ModelParams, prefix: str, d: int, n_heads: int,
               hidden: int, draw) -> SabParams:
    def fused(name):
        # one [d x d/H] draw per head, in head order, so a seed gives the
        # same initial values as separate per-head matrices would
        return params.register(f"{prefix}.mha.{name}", np.concatenate(
            [draw(d, d // n_heads) for _ in range(n_heads)], axis=1))

    mha = MhaParams(wq=fused("wq"), wk=fused("wk"), wv=fused("wv"),
                    wo=params.register(f"{prefix}.mha.wo", draw(d, d)),
                    n_heads=n_heads)
    return SabParams(
        mha=mha,
        ln1_gain=params.register(f"{prefix}.ln1.gain", np.ones(d)),
        ln1_bias=params.register(f"{prefix}.ln1.bias", np.zeros(d)),
        ln2_gain=params.register(f"{prefix}.ln2.gain", np.ones(d)),
        ln2_bias=params.register(f"{prefix}.ln2.bias", np.zeros(d)),
        rffn=_build_rffn(params, f"{prefix}.rffn", d, hidden, d, draw),
    )


def init_params(cfg: ModelConfig, seed: int) -> ModelParams:
    """Create the full parameter tree.

    Weight matrices draw from the Xavier normal distribution, biases start at
    zero and layer norms at identity; construction order is fixed so a seed
    pins every value.
    """
    cfg.validate()
    rng = np.random.default_rng(seed)
    params = ModelParams()

    def draw(fan_in, fan_out):
        return xavier_normal_init(fan_in, fan_out, rng)

    d, H, hidden = cfg.d, cfg.n_heads, cfg.sab_hidden
    params.input_rffn = _build_rffn(params, "input_rffn",
                                    cfg.input_channels, d, d, draw)
    if cfg.with_cls:
        params.cls_embedding = params.register(
            "cls_embedding", xavier_normal_init(d, d, rng, shape=(d,)))
    for enc_name in ("encoder_c", "encoder_f"):
        enc = EncoderParams(
            sab_t1=_build_sab(params, f"{enc_name}.sab_t1", d, H, hidden, draw),
            sab_t2=_build_sab(params, f"{enc_name}.sab_t2", d, H, hidden, draw),
            sab_s=(_build_sab(params, f"{enc_name}.sab_s", d, H, hidden, draw)
                   if cfg.with_social else None),
        )
        setattr(params, enc_name, enc)
    params.output_rffn = _build_rffn(params, "output_rffn", d, d, 2, draw)
    if cfg.with_cls:
        params.classifier_rffn = _build_rffn(params, "classifier_rffn",
                                             d, d, cfg.n_state_classes, draw)
    if cfg.with_unc_mask:
        params.unc_theta = params.register("unc_theta",
                                           np.float64(initial_theta()))
    return params


def count_parameters(cfg: ModelConfig) -> int:
    """Closed-form scalar parameter count for a config."""
    def rffn(a, h, b):
        return a * h + h + h * b + b

    d, hidden = cfg.d, cfg.sab_hidden
    sab = 4 * d * d + 4 * d + rffn(d, hidden, d)
    n_sabs = 6 if cfg.with_social else 4
    total = rffn(cfg.input_channels, d, d) + n_sabs * sab + rffn(d, d, 2)
    if cfg.with_cls:
        total += d + rffn(d, d, cfg.n_state_classes)
    if cfg.with_unc_mask:
        total += 1
    return total


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def positional_encoding(T: int, d: int) -> np.ndarray:
    """Sinusoidal [T x d] encoding: sin at even channels, cos at odd ones,
    wavelength 10000^(2i/d). Added along time only, identical for agents.
    Cached per ``(T, d)`` and returned read-only."""
    if d % 2 != 0:
        raise ConfigError("positional encoding needs an even width")
    pos = np.arange(T, dtype=np.float64)[:, None]
    i = np.arange(d // 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / d)
    pe = np.empty((T, d), dtype=np.float64)
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    pe.flags.writeable = False
    return pe


def embed_inputs(x_filled: np.ndarray, cfg: ModelConfig,
                 params: ModelParams) -> DiffTensor:
    """Shared row-wise embedding of [T x N x C] inputs (coordinate channels
    zero-filled wherever not visible). Agent type, when present, rides along
    as a raw numeric channel and must be 0 (ball), 1 (offense) or 2
    (defense)."""
    x = np.asarray(x_filled, dtype=np.float64)
    if x.ndim != 3 or x.shape[-1] != cfg.input_channels:
        raise DataError(f"expected [T x N x {cfg.input_channels}] inputs, "
                        f"got shape {x.shape}")
    if cfg.input_channels == 3 and not (
            x[..., 2:] == np.array([0, 1, 2])).any(axis=-1).all():
        raise DataError("agent type channel must contain only {0, 1, 2}")
    return rffn_apply(x, params.input_rffn)


def append_cls(j0: DiffTensor, params: ModelParams) -> DiffTensor:
    """Broadcast the learnable CLS vector across time and append it as the
    last agent."""
    T = j0.shape[0]
    d = j0.shape[2]
    cls_block = mul(np.ones((T, 1, 1)),
                    reshape(params.cls_embedding, (1, 1, d)))
    return concat_axis([j0, cls_block], axis=1)


def _encoder(x: DiffTensor, temporal_key_mask: Optional[np.ndarray],
             social_key_mask: Optional[np.ndarray],
             enc: EncoderParams):
    """Two temporal set attention blocks then one social block, with fresh
    positional encoding added first. Masks are key-exclusion masks shaped for
    broadcast: [A x 1 x T] temporal, [T x 1 x A] social."""
    T, A, d = x.shape
    x = add(x, positional_encoding(T, d)[:, None, :])
    xt = transpose(x, (1, 0, 2))  # [A x T x d]
    xt, _ = set_attention_block(xt, temporal_key_mask, enc.sab_t1)
    xt, _ = set_attention_block(xt, temporal_key_mask, enc.sab_t2)
    x = transpose(xt, (1, 0, 2))  # [T x A x d]
    weights = None
    if enc.sab_s is not None:
        x, weights = set_attention_block(x, social_key_mask, enc.sab_s)
    return x, weights


def encoder_coarse(j: DiffTensor, blocked: np.ndarray, absent: np.ndarray,
                   params: ModelParams):
    """Masked pass. ``blocked`` and ``absent`` are boolean [T x A] masks over
    every agent, the CLS agent included: ``blocked`` (every slot that is not
    visible) excludes temporal keys, ``absent`` social keys."""
    return _encoder(j, blocked.T[:, None, :], _social_mask(absent),
                    params.encoder_c)


def encoder_fine(j: DiffTensor, absent: np.ndarray, params: ModelParams):
    """Unmasked pass over refined embeddings; only the boolean [T x A]
    ``absent`` mask still excludes keys, temporal and social."""
    temporal = absent.T[:, None, :] if absent.any() else None
    return _encoder(j, temporal, _social_mask(absent), params.encoder_f)


def _social_mask(absent: np.ndarray) -> Optional[np.ndarray]:
    return absent[:, None, :] if absent.any() else None  # [T x 1 x A]


@dataclass
class ForwardOutput:
    """Everything a forward pass yields.

    ``predictions`` is the raw network output (the loss consumes it so that
    uncertainty-weighted visible neighbors still receive gradient);
    ``trajectories`` composites the exact input values back over visible
    slots. ``attention`` holds head-averaged social attention stacks
    ``[T x A x A]`` for the coarse and fine encoders (None without SAB_S).
    """

    predictions: DiffTensor          # [T x N x 2]
    trajectories: np.ndarray         # [T x N x 2]
    state_scores: Optional[DiffTensor]  # [T x S] probability rows
    attention: dict
    visible: np.ndarray              # [T x N] bool: slot_roles' visible


def forward(x_partial: np.ndarray, m: ObservationMask,
            nan_mask: Optional[np.ndarray], cfg: ModelConfig,
            params: ModelParams) -> ForwardOutput:
    """Run the full network on one sequence.

    ``x_partial`` is [T x N x C] in whatever coordinate frame the caller
    trains in. Roles come from :func:`~settraj.masking.slot_roles`: only
    visible values are read (the others may be NaN), and they pass to
    ``trajectories`` unchanged. The coarse temporal keys exclude every slot
    that is not visible and the CLS agent; the other key masks exclude the
    absent slots only.
    """
    cfg.validate()
    x = np.asarray(x_partial, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"inputs must be [T x N x C], got {x.shape}")
    T, N, C = x.shape
    if m.entries.shape != (T, N):
        raise ShapeError(f"mask shape {m.entries.shape} != ({T}, {N})")
    absent, visible, _ = slot_roles(m, nan_mask)
    blocked = ~visible
    x_filled = x.copy()
    x_filled[..., :2][blocked] = 0.0

    j = embed_inputs(x_filled, cfg, params)
    if cfg.with_cls:
        j = append_cls(j, params)
        cls = np.ones((T, 1), dtype=bool)
        blocked = np.concatenate([blocked, cls], axis=1)
        absent = np.concatenate([absent, ~cls], axis=1)

    j, coarse_w = encoder_coarse(j, blocked, absent, params)
    j, fine_w = encoder_fine(j, absent, params)

    if cfg.with_cls:
        agents_part, cls_part = split_axis(j, [N, 1], axis=1)
        cls_flat = reshape(cls_part, (T, cfg.d))
        state_scores = softmax_rows(rffn_apply(cls_flat, params.classifier_rffn))
    else:
        agents_part = j
        state_scores = None

    predictions = rffn_apply(agents_part, params.output_rffn)
    trajectories = np.where(visible[..., None], x[..., :2], predictions.values)

    return ForwardOutput(
        predictions=predictions,
        trajectories=trajectories,
        state_scores=state_scores,
        attention={"coarse_social": coarse_w, "fine_social": fine_w},
        visible=visible,
    )
