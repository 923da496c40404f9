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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .attention import MhaParams, SabParams, set_attention_block
from .errors import ConfigError, DataError, ShapeError
from .masking import (
    NanLike,
    ObservationMask,
    extend_mask_with_cls,
    initial_theta,
    nan_entries,
    validate_task,
)
from .tensor import (
    DiffTensor,
    Parameter,
    add,
    affine,
    concat_axis,
    mul,
    relu,
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
class RffnParams:
    """Two affine layers with a rectified-linear unit between them."""

    w1: Parameter
    b1: Parameter
    w2: Parameter
    b2: Parameter


def rffn_apply(x, p: RffnParams) -> DiffTensor:
    return affine(relu(affine(x, p.w1, p.b1)), p.w2, p.b2)


@dataclass
class EncoderParams:
    sab_t1: SabParams
    sab_t2: SabParams
    sab_s: Optional[SabParams]  # absent in the no-social variant


class ModelParams:
    """All learnable weights, addressable by dotted name in a fixed order."""

    def __init__(self):
        self._by_name: dict[str, Parameter] = {}
        self.input_rffn: RffnParams = None
        self.cls_embedding: Optional[Parameter] = None
        self.encoder_c: EncoderParams = None
        self.encoder_f: EncoderParams = None
        self.output_rffn: RffnParams = None
        self.classifier_rffn: Optional[RffnParams] = None
        self.unc_theta: Optional[Parameter] = None

    def register(self, name: str, values) -> Parameter:
        if name in self._by_name:
            raise ConfigError(f"duplicate parameter name {name!r}")
        p = Parameter(name=name, tensor=DiffTensor(values))
        self._by_name[name] = p
        return p

    def named_parameters(self) -> dict[str, Parameter]:
        return dict(self._by_name)

    def zero_grad(self) -> None:
        for p in self._by_name.values():
            p.tensor.grad = None

    def n_parameters(self) -> int:
        return sum(p.tensor.values.size for p in self._by_name.values())


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
    dh = d // n_heads
    mha = MhaParams(
        wq=[params.register(f"{prefix}.mha.wq.{h}", draw(d, dh))
            for h in range(n_heads)],
        wk=[params.register(f"{prefix}.mha.wk.{h}", draw(d, dh))
            for h in range(n_heads)],
        wv=[params.register(f"{prefix}.mha.wv.{h}", draw(d, dh))
            for h in range(n_heads)],
        wo=params.register(f"{prefix}.mha.wo", draw(d, d)),
    )
    return SabParams(
        mha=mha,
        ln1_gain=params.register(f"{prefix}.ln1.gain", np.ones(d)),
        ln1_bias=params.register(f"{prefix}.ln1.bias", np.zeros(d)),
        ln2_gain=params.register(f"{prefix}.ln2.gain", np.ones(d)),
        ln2_bias=params.register(f"{prefix}.ln2.bias", np.zeros(d)),
        ff_w1=params.register(f"{prefix}.rffn.w1", draw(d, hidden)),
        ff_b1=params.register(f"{prefix}.rffn.b1", np.zeros(hidden)),
        ff_w2=params.register(f"{prefix}.rffn.w2", draw(hidden, d)),
        ff_b2=params.register(f"{prefix}.rffn.b2", np.zeros(d)),
    )


def init_params(cfg: ModelConfig, seed: int,
                arrays: Optional[dict] = None) -> ModelParams:
    """Create the full parameter tree.

    Weight matrices draw from the Xavier normal distribution, biases start at
    zero and layer norms at identity; construction order is fixed so a seed
    pins every value. When ``arrays`` is given (checkpoint restore), values
    are taken from it instead, bit-exactly.
    """
    cfg.validate()
    rng = np.random.default_rng(seed)
    params = ModelParams()

    if arrays is None:
        def draw(fan_in, fan_out):
            return xavier_normal_init(fan_in, fan_out, rng)
    else:
        def draw(fan_in, fan_out):
            return np.zeros((fan_in, fan_out))  # placeholder, replaced below

    d, H, hidden = cfg.d, cfg.n_heads, cfg.sab_hidden
    params.input_rffn = _build_rffn(params, "input_rffn",
                                    cfg.input_channels, d, d, draw)
    if cfg.with_cls:
        params.cls_embedding = params.register(
            "cls_embedding",
            np.zeros(d) if arrays is not None
            else xavier_normal_init(d, d, rng, shape=(d,)))
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

    if arrays is not None:
        for name, p in params._by_name.items():
            if name not in arrays:
                raise ConfigError(f"checkpoint missing parameter {name!r}")
            arr = np.ascontiguousarray(arrays[name], dtype=np.float64)
            if p.tensor.values.shape != arr.shape:
                raise ShapeError(f"checkpoint parameter {name!r} has shape "
                                 f"{arr.shape}, expected {p.tensor.values.shape}")
            p.tensor.values = arr
        extra = set(arrays) - set(params._by_name)
        if extra:
            raise ConfigError(f"checkpoint has unknown parameters {sorted(extra)}")
    return params


def count_parameters(cfg: ModelConfig) -> int:
    """Closed-form scalar parameter count for a config."""
    def rffn(a, h, b):
        return a * h + h + h * b + b

    d, H, hidden = cfg.d, cfg.n_heads, cfg.sab_hidden
    sab = 3 * H * d * (d // H) + d * d + 4 * d + rffn(d, hidden, d)
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

def positional_encoding(T: int, d: int) -> np.ndarray:
    """Sinusoidal [T x d] encoding: sin at even channels, cos at odd ones,
    wavelength 10000^(2i/d). Added along time only, identical for agents."""
    if d % 2 != 0:
        raise ConfigError("positional encoding needs an even width")
    pos = np.arange(T, dtype=np.float64)[:, None]
    i = np.arange(d // 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / d)
    pe = np.empty((T, d), dtype=np.float64)
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    return pe


def embed_inputs(x_filled: np.ndarray, cfg: ModelConfig,
                 params: ModelParams) -> DiffTensor:
    """Shared row-wise embedding of [T x N x C] inputs (hidden/NaN coordinate
    channels already zero-filled). Agent type, when present, rides along as a
    raw numeric channel and must be 0 (ball), 1 (offense) or 2 (defense)."""
    x = np.asarray(x_filled, dtype=np.float64)
    if x.ndim != 3 or x.shape[-1] != cfg.input_channels:
        raise DataError(f"expected [T x N x {cfg.input_channels}] inputs, "
                        f"got shape {x.shape}")
    if cfg.input_channels == 3 and not np.isin(x[..., 2], (0, 1, 2)).all():
        raise DataError("agent type channel must contain only {0, 1, 2}")
    return rffn_apply(DiffTensor(x), params.input_rffn)


def append_cls(j0: DiffTensor, params: ModelParams) -> DiffTensor:
    """Broadcast the learnable CLS vector across time and append it as the
    last agent."""
    T = j0.shape[0]
    d = j0.shape[2]
    ones = DiffTensor(np.ones((T, 1, 1)))
    cls_block = mul(ones, reshape(params.cls_embedding.tensor, (1, 1, d)))
    return concat_axis([j0, cls_block], axis=1)


def _encoder(x: DiffTensor, temporal_key_mask: Optional[np.ndarray],
             social_key_mask: Optional[np.ndarray],
             enc: EncoderParams):
    """Two temporal set attention blocks then one social block, with fresh
    positional encoding added first. Masks are key-exclusion masks shaped for
    broadcast: [A x 1 x T] temporal, [T x 1 x A] social."""
    T, A, d = x.shape
    x = add(x, DiffTensor(positional_encoding(T, d)[:, None, :]))
    xt = transpose(x, (1, 0, 2))  # [A x T x d]
    xt, _ = set_attention_block(xt, temporal_key_mask, enc.sab_t1)
    xt, _ = set_attention_block(xt, temporal_key_mask, enc.sab_t2)
    x = transpose(xt, (1, 0, 2))  # [T x A x d]
    weights = None
    if enc.sab_s is not None:
        x, weights = set_attention_block(x, social_key_mask, enc.sab_s)
    return x, weights


def encoder_coarse(j: DiffTensor, m_ext, nan_ext: np.ndarray,
                   params: ModelParams):
    """Masked pass: hidden and NaN slots are excluded as temporal keys, NaN
    slots as social keys. ``m_ext`` is the CLS-extended mask (or the plain
    observation mask in the no-CLS variant)."""
    combined = np.maximum(m_ext.entries, nan_ext)
    temporal = combined.T[:, None, :].astype(np.float64)     # [A x 1 x T]
    social = _social_mask(nan_ext)
    return _encoder(j, temporal, social, params.encoder_c)


def encoder_fine(j: DiffTensor, nan_ext: np.ndarray, params: ModelParams):
    """Unmasked pass over refined embeddings; only the NaN mask still
    excludes keys."""
    temporal = (nan_ext.T[:, None, :].astype(np.float64)
                if nan_ext.any() else None)
    social = _social_mask(nan_ext)
    return _encoder(j, temporal, social, params.encoder_f)


def _social_mask(nan_ext: np.ndarray) -> Optional[np.ndarray]:
    if not nan_ext.any():
        return None
    return nan_ext[:, None, :].astype(np.float64)  # [T x 1 x A]


@dataclass
class ForwardOutput:
    """Everything a forward pass yields.

    ``predictions`` is the raw network output (the loss consumes it so that
    uncertainty-weighted visible neighbors still receive gradient);
    ``trajectories`` composites the exact input values back over visible,
    non-NaN slots. ``attention`` holds head-averaged social attention stacks
    ``[T x A x A]`` for the coarse and fine encoders (None without SAB_S).
    """

    predictions: DiffTensor          # [T x N x 2]
    trajectories: np.ndarray         # [T x N x 2]
    state_scores: Optional[DiffTensor]  # [T x S] probability rows
    attention: dict


def forward(x_partial: np.ndarray, m: ObservationMask, nan_mask: NanLike,
            cfg: ModelConfig, params: ModelParams) -> ForwardOutput:
    """Run the full network on one sequence.

    ``x_partial`` is [T x N x C] in whatever coordinate frame the caller
    trains in; values at hidden or NaN slots are ignored (their coordinate
    channels are zero-filled before embedding) and visible values are
    propagated to ``trajectories`` unchanged.
    """
    cfg.validate()
    x = np.asarray(x_partial, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"inputs must be [T x N x C], got {x.shape}")
    T, N, C = x.shape
    if m.entries.shape != (T, N):
        raise ShapeError(f"mask shape {m.entries.shape} != ({T}, {N})")
    nan = nan_entries(nan_mask, (T, N))
    if (nan & m.entries).any():
        raise DataError("prediction targets overlap the NaN mask")
    validate_task(m)

    blocked = (m.entries | nan).astype(bool)
    x_filled = x.copy()
    x_filled[..., :2][blocked] = 0.0

    j = embed_inputs(x_filled, cfg, params)
    if cfg.with_cls:
        j = append_cls(j, params)
        m_ext = extend_mask_with_cls(m)
        nan_ext = np.concatenate([nan, np.zeros((T, 1), dtype=np.int8)], axis=1)
    else:
        m_ext = m
        nan_ext = nan

    j, coarse_w = encoder_coarse(j, m_ext, nan_ext, params)
    j, fine_w = encoder_fine(j, nan_ext, params)

    if cfg.with_cls:
        agents_part, cls_part = split_axis(j, [N, 1], axis=1)
        cls_flat = reshape(cls_part, (T, cfg.d))
        state_scores = softmax_rows(rffn_apply(cls_flat, params.classifier_rffn))
    else:
        agents_part = j
        state_scores = None

    predictions = rffn_apply(agents_part, params.output_rffn)

    visible = ~blocked
    trajectories = np.where(visible[..., None], x[..., :2], predictions.values)

    return ForwardOutput(
        predictions=predictions,
        trajectories=trajectories,
        state_scores=state_scores,
        attention={"coarse_social": coarse_w, "fine_social": fine_w},
    )
