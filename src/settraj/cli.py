"""Command-line entry point.

Subcommands: generate-data, train, evaluate, infer, export-attention,
baseline. Every run writes its parsed flags and the configs resolved from
them as JSON next to its outputs. Exit codes: 0 success, 2 usage, 3 data,
4 config/shape, 5 task violation, 6 numerics, 1 anything else.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Deterministic mode (default on) pins BLAS to one thread so reductions are
# reproducible across machines; export SETTRAJ_DETERMINISTIC=0 to opt out.
# Must happen before numpy loads its threading backend (settraj/__init__.py
# imports no numpy).
if os.environ.get("SETTRAJ_DETERMINISTIC", "1") != "0":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

from . import data as data_mod
from . import harness
from .errors import (
    ConfigError,
    DataError,
    EmptyMaskError,
    NumericsError,
    ShapeError,
    TaskViolationError,
)
from .model import ModelConfig


def _parse_agents(text: str):
    """'players' | 'offense' | ... | comma-separated indices."""
    if text in harness.AGENT_GROUPS:
        return text
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"bad agent selector {text!r}") from None


def _task_from_args(args) -> harness.TaskSpec:
    return harness.TaskSpec(
        kind=args.task,
        predicted=_parse_agents(args.predicted),
        t_hat=args.t_hat,
        hidden_agents=_parse_agents(args.hidden_agents),
        fraction=args.fraction,
        radius=args.radius,
        half_angle_deg=args.half_angle,
    )


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=int, default=128)
    p.add_argument("--heads", type=int, default=16)
    p.add_argument("--sab-hidden", type=int, default=512)
    p.add_argument("--state-classes", type=int, default=4)
    p.add_argument("--channels", type=int, default=3, choices=[2, 3])
    p.add_argument("--lambda-ce", type=float, default=4.0)
    p.add_argument("--no-cls", action="store_true")
    p.add_argument("--no-social", action="store_true")
    p.add_argument("--no-unc-mask", action="store_true")


def _model_from_args(args) -> ModelConfig:
    return ModelConfig(
        d=args.d, n_heads=args.heads, sab_hidden=args.sab_hidden,
        n_state_classes=args.state_classes, input_channels=args.channels,
        lambda_ce=0.0 if args.no_cls else args.lambda_ce,
        with_cls=not args.no_cls, with_social=not args.no_social,
        with_unc_mask=not args.no_unc_mask,
    )


def _write_config(out_dir: Path, name: str, args, **resolved) -> None:
    """Record a run: every parsed flag, then the configs resolved from them
    (a resolved ``task`` replaces the ``--task`` kind it holds)."""
    record = {k: v for k, v in vars(args).items() if k != "func"} | resolved
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(json.dumps(record, indent=2) + "\n")


def _load_split(args):
    return data_mod.load_sequences(args.data)[:args.limit]


def cmd_generate_data(args) -> int:
    generate = (data_mod.generate_possession_game
                if args.mode == "possession"
                else data_mod.generate_constant_velocity)
    seqs = generate(args.n_sequences, args.frames, args.per_team,
                    frame_rate=args.frame_rate, rng_seed=args.seed,
                    pitch=data_mod.PitchSpec(args.pitch_length,
                                             args.pitch_width, args.unit))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    data_mod.save_sequences(seqs, out)
    _write_config(out.parent, out.stem + ".config.json", args)
    print(f"wrote {len(seqs)} sequences to {out}")
    return 0


def cmd_train(args) -> int:
    seqs = _load_split(args)
    resume = harness.Checkpoint.load(args.resume) if args.resume else None
    if resume is not None:  # the split and the batch order are the run's
        if args.seed not in (None, resume.train_cfg.seed):
            raise ConfigError(f"cannot resume with --seed {args.seed}: the "
                              "run split and ordered its data with seed "
                              f"{resume.train_cfg.seed}")
        args.seed = resume.train_cfg.seed
    split = data_mod.split_dataset(seqs, (args.train_ratio, args.val_ratio,
                                          1.0 - args.train_ratio
                                          - args.val_ratio), args.seed)
    train_seqs = [seqs[i] for i in split.train]
    val_seqs = [seqs[i] for i in split.val]
    model_cfg = _model_from_args(args)
    train_cfg = harness.TrainConfig(
        epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
        adam_eps=args.adam_eps, weight_decay=args.weight_decay,
        grad_clip_threshold=args.clip, clip_mode=args.clip_mode,
        seed=args.seed, task=_task_from_args(args),
    )
    harness.validate_run(train_seqs, model_cfg, train_cfg, args.max_steps,
                         resume)
    out_dir = Path(args.out_dir)
    _write_config(out_dir, "run_config.json", args,
                  model=model_cfg.to_dict(), train=train_cfg.to_dict())
    ckpt, logs = harness.train(train_seqs, model_cfg, train_cfg,
                               val_seqs=val_seqs, out_dir=out_dir,
                               max_steps=args.max_steps, resume_from=resume)
    print(f"trained {ckpt.step} steps ({ckpt.epoch} epochs); "
          f"final loss {logs[-1].loss:.4f}" if logs else "no steps run")
    return 0


def cmd_evaluate(args) -> int:
    seqs = _load_split(args)
    ckpt = harness.Checkpoint.load(args.checkpoint)
    task = _task_from_args(args)
    report, cm = harness.evaluate(ckpt.params, ckpt.model_cfg, seqs, task,
                                  seed=args.seed)
    out_dir = Path(args.out_dir)
    _write_config(out_dir, "eval_config.json", args, task=task.to_dict())
    harness.write_metric_report(report, task, args.seed,
                                out_dir / "metrics.csv")
    if cm is not None:
        harness.write_confusion_matrix(cm, out_dir / "confusion_matrix.csv")
    print((out_dir / "metrics.csv").read_text().strip())
    return 0


def cmd_infer(args) -> int:
    seqs = _load_split(args)
    ckpt = harness.Checkpoint.load(args.checkpoint)
    task = _task_from_args(args)
    masks = harness.build_masks(seqs, task, args.seed)
    completed = []
    for seq, m in zip(seqs, masks):
        out, _, traj = harness.run_model(seq, m, ckpt.model_cfg, ckpt.params)
        states = (out.state_scores.values.argmax(axis=1)
                  if out.state_scores is not None else None)
        completed.append(data_mod.TrajectorySequence(
            seq_id=seq.seq_id, positions=traj, agent_types=seq.agent_types,
            states=states, validity=seq.validity,
            frame_rate_hz=seq.frame_rate_hz, pitch=seq.pitch))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    data_mod.save_sequences(completed, out)
    _write_config(out.parent, out.stem + ".config.json", args,
                  task=task.to_dict())
    print(f"wrote {len(completed)} completed sequences to {out}")
    return 0


def cmd_export_attention(args) -> int:
    seqs = _load_split(args)
    if not 0 <= args.sequence < len(seqs):
        raise DataError(f"sequence index {args.sequence} outside the dataset")
    seq = seqs[args.sequence]
    ckpt = harness.Checkpoint.load(args.checkpoint)
    task = _task_from_args(args)
    m = harness.sequence_mask(seq, task, args.seed, args.sequence)
    out_dir = Path(args.out_dir)
    harness.export_attention(ckpt.params, ckpt.model_cfg, seq, m,
                             args.query_agent, out_dir)
    _write_config(out_dir, "attention_config.json", args,
                  task=task.to_dict())
    print(f"wrote attention maps to {out_dir}")
    return 0


def cmd_baseline(args) -> int:
    seqs = _load_split(args)
    task = _task_from_args(args)
    report = harness.evaluate_velocity_baseline(seqs, task, seed=args.seed)
    out_dir = Path(args.out_dir)
    _write_config(out_dir, "baseline_config.json", args,
                  task=task.to_dict())
    harness.write_metric_report(report, task, args.seed,
                                out_dir / "metrics.csv")
    print((out_dir / "metrics.csv").read_text().strip())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="settraj",
        description="Masked set-attention trajectory completion toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate-data", help="write a synthetic dataset CSV")
    g.add_argument("--out", required=True)
    g.add_argument("--n-sequences", type=int, default=64)
    g.add_argument("--frames", type=int, default=50)
    g.add_argument("--per-team", type=int, default=5)
    g.add_argument("--frame-rate", type=float, default=6.25)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--mode", choices=["possession", "constant"],
                   default="possession")
    g.add_argument("--pitch-length", type=float, default=105.0)
    g.add_argument("--pitch-width", type=float, default=68.0)
    g.add_argument("--unit", choices=["meters", "feet"], default="meters")
    g.set_defaults(func=cmd_generate_data)

    # the flags of every command that reads a dataset
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--data", required=True)
    shared.add_argument("--seed", type=int, default=None,
                        help="seed of the masks, split and batch order "
                        "(default 0; train --resume: the checkpoint's)")
    shared.add_argument("--limit", type=int, default=None)
    shared.add_argument("--task", default="forecasting",
                        choices=["forecasting", "imputation", "inference",
                                 "percentage", "circle", "camera"])
    shared.add_argument("--predicted", default="players",
                        help="agent group name or comma-separated indices")
    shared.add_argument("--t-hat", type=int, default=None,
                        help="first hidden timestep (forecasting/imputation)")
    shared.add_argument("--hidden-agents", default="ball",
                        help="agents hidden for inference")
    shared.add_argument("--fraction", type=float, default=0.8,
                        help="hidden fraction for the percentage task")
    shared.add_argument("--radius", type=float, default=5.0,
                        help="visibility radius for circle mode")
    shared.add_argument("--half-angle", type=float, default=20.0,
                        help="camera half opening angle, degrees")

    t = sub.add_parser("train", help="train a model", parents=[shared])
    t.add_argument("--out-dir", required=True)
    t.add_argument("--epochs", type=int, default=100)
    t.add_argument("--batch-size", type=int, default=64)
    t.add_argument("--lr", type=float, default=0.001)
    t.add_argument("--adam-eps", type=float, default=1e-4)
    t.add_argument("--weight-decay", type=float, default=0.01)
    t.add_argument("--clip", type=float, default=5.0)
    t.add_argument("--clip-mode", choices=["norm", "value"], default="norm")
    t.add_argument("--max-steps", type=int, default=None)
    t.add_argument("--train-ratio", type=float, default=0.8)
    t.add_argument("--val-ratio", type=float, default=0.1)
    t.add_argument("--resume", default=None)
    _add_model_args(t)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("evaluate", help="metrics for a checkpoint",
                       parents=[shared])
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--out-dir", required=True)
    e.set_defaults(func=cmd_evaluate)

    i = sub.add_parser("infer", help="write completed trajectories",
                       parents=[shared])
    i.add_argument("--checkpoint", required=True)
    i.add_argument("--out", required=True)
    i.set_defaults(func=cmd_infer)

    a = sub.add_parser("export-attention", help="dump social attention maps",
                       parents=[shared])
    a.add_argument("--checkpoint", required=True)
    a.add_argument("--out-dir", required=True)
    a.add_argument("--sequence", type=int, default=0)
    a.add_argument("--query-agent", type=int, default=0)
    a.set_defaults(func=cmd_export_attention)

    b = sub.add_parser("baseline", help="velocity-extrapolation metrics",
                       parents=[shared])
    b.add_argument("--out-dir", required=True)
    b.set_defaults(func=cmd_baseline)

    return parser


_EXIT_CODES = [
    ((DataError, EmptyMaskError), 3, "data"),
    ((ConfigError, ShapeError), 4, "config"),
    (TaskViolationError, 5, "task"),
    (NumericsError, 6, "numerics"),
]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "limit", None) is not None and args.limit < 1:
        parser.error(f"argument --limit: must be at least 1, got {args.limit}")
    if args.seed is None and not getattr(args, "resume", None):
        args.seed = 0  # --seed's default; a resume takes the checkpoint's
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - map to exit categories
        for types, code, category in _EXIT_CODES:
            if isinstance(exc, types):
                print(f"error[{category}]: {exc}", file=sys.stderr)
                return code
        print(f"error[internal]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
