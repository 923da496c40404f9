"""The benchmark workloads: their inputs, one measured pass, and the
checks on the pass's outputs.

Every workload runs the same pass, the library calls behind the command line
in the order a user runs them: ``settraj train`` (``harness.train``, then
``Checkpoint.save``), then ``settraj evaluate`` / ``infer`` / ``baseline``
(``Checkpoint.load``, ``data.load_sequences``, ``harness.evaluate``, one
``harness.run_model`` per sequence, ``data.save_sequences``,
``harness.evaluate_velocity_baseline``). The workloads differ in model size,
in whether the evaluated data has absent observations, and in how the pass
splits its time between training and forward-only work; README.md says why.

The program is always called through its module attributes
(``harness.train``), so a tracer that swaps those attributes sees every
call. The output checks call ``ade_metric`` through the name bound at import
below, before any tracer is installed, so the checks add no span to the
layers they read; the few package calls inside it are recorded outside any
pass call and feed no metric.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from settraj import data, harness, model
from settraj.objectives import ade_metric as ade_for_check

BATCH = 8
# Positions are written with 6 decimals, so a reloaded value may differ from
# the written one by half a unit in the last place plus float rounding.
CSV_ATOL = 5e-7 + 1e-9

DESK = {"d": 32, "n_heads": 4, "sab_hidden": 64}
FULL = {"d": 128, "n_heads": 16, "sab_hidden": 512}
FORECAST = {"kind": "forecasting", "predicted": "players", "t_hat": 10}
BALL_INFERENCE = {"kind": "inference", "hidden_agents": "ball"}


@dataclass(frozen=True)
class Workload:
    name: str
    model: dict
    task: dict
    n_train: int          # clean sequences trained on, a multiple of BATCH
    n_eval: int           # sequences evaluated, inferred and written
    steps: int            # optimizer steps per pass
    gaps: bool            # blank player stretches in the evaluated data
    chunk: int            # sequences per CSV file and per baseline call
    baseline_repeats: int  # baseline calls per chunk, an even number
    frames: int = 50
    per_team: int = 5
    setup_repeats: int = 5


WORKLOADS = {
    "train-desk": Workload("train-desk", DESK, FORECAST, n_train=64,
                           n_eval=16, steps=4, gaps=False, chunk=2,
                           baseline_repeats=4),
    "train-full": Workload("train-full", FULL, FORECAST, n_train=64,
                           n_eval=16, steps=1, gaps=False, chunk=2,
                           baseline_repeats=4),
    "pipeline": Workload("pipeline", DESK, BALL_INFERENCE, n_train=8,
                         n_eval=100, steps=1, gaps=True, chunk=2,
                         baseline_repeats=2),
}

# Sizes for the smoke test: every call and check runs, in well under a second.
TINY = {"model": {"d": 8, "n_heads": 2, "sab_hidden": 16}, "n_train": 8,
        "n_eval": 4, "steps": 1, "chunk": 2, "baseline_repeats": 2,
        "frames": 16, "per_team": 2, "setup_repeats": 1}


def get_workload(name: str, tiny: bool = False) -> Workload:
    w = WORKLOADS[name]
    return replace(w, **TINY) if tiny else w


def now() -> float:
    return time.perf_counter()


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

@dataclass
class Inputs:
    train: list           # clean sequences for harness.train
    held: list            # evaluated sequences, as written to the CSVs
    chunks: list          # (CSV path, the sequences written to it)


def blank_gaps(seq: data.TrajectorySequence, rng: np.random.Generator,
               n_gaps: int = 3) -> data.TrajectorySequence:
    """Mark a few contiguous player stretches absent (NaN, validity 0), as
    real tracking data has them. The ball is never blanked."""
    pos = seq.positions.copy()
    valid = seq.validity.copy()
    players = np.flatnonzero(seq.agent_types != data.BALL)
    for _ in range(n_gaps):
        agent = int(rng.choice(players))
        length = int(rng.integers(3, 9))
        start = int(rng.integers(0, seq.T - length + 1))
        pos[start:start + length, agent] = np.nan
        valid[start:start + length, agent] = 0
    return data.TrajectorySequence(
        seq_id=seq.seq_id, positions=pos, agent_types=seq.agent_types,
        states=seq.states, validity=valid, frame_rate_hz=seq.frame_rate_hz,
        pitch=seq.pitch)


def set_up(w: Workload, seed: int, work_dir: Path) -> Inputs:
    """Generate the workload's sequences from ``seed`` and write the
    evaluated ones to CSVs of ``w.chunk`` sequences each."""
    assert w.n_eval % w.chunk == 0, "n_eval must be a multiple of chunk"
    seqs = data.generate_possession_game(w.n_train + w.n_eval, w.frames,
                                         w.per_team, rng_seed=seed)
    held = seqs[w.n_train:]
    if w.gaps:
        held = [blank_gaps(s, np.random.default_rng([seed, 1, i]))
                for i, s in enumerate(held)]
    chunks = []
    for lo in range(0, w.n_eval, w.chunk):
        csv = work_dir / f"eval-{lo // w.chunk}.csv"
        data.save_sequences(held[lo:lo + w.chunk], csv)
        chunks.append((csv, held[lo:lo + w.chunk]))
    return Inputs(train=seqs[:w.n_train], held=held, chunks=chunks)


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    """Operations attempted and failed. A failure is a raise, a non-finite
    loss or a failed output check."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            self.notes.append(what)


@dataclass
class PassResult:
    wall_s: float
    val_ade_m: float
    train_seq_steps_per_s: list  # one rate per call, as are the lists below
    eval_seqs_per_s: list
    infer_ms: list        # one latency per harness.run_model call
    csv_load_rows_per_s: list
    csv_save_rows_per_s: list
    baseline_seqs_per_s: list
    loaded: int           # sequences read by data.load_sequences
    saved: int            # sequences written by data.save_sequences


def configs(w: Workload):
    task = harness.TaskSpec(**w.task)
    steps_per_epoch = w.n_train // BATCH
    train_cfg = harness.TrainConfig(
        epochs=math.ceil(w.steps / steps_per_epoch), batch_size=BATCH,
        seed=0, task=task)
    return model.ModelConfig(**w.model), train_cfg, task


def _rows(seqs) -> int:
    return sum(s.T * s.N for s in seqs)


def _same_csv_content(got, want) -> bool:
    """True when ``got`` is ``want`` read back from a CSV: positions to the
    write precision, NaN cells in the same places, everything else equal."""
    if len(got) != len(want):
        return False
    for g, e in zip(got, want):
        if (g.seq_id != e.seq_id or g.positions.shape != e.positions.shape
                or not np.array_equal(g.validity, e.validity)
                or not np.array_equal(g.agent_types, e.agent_types)
                or not np.array_equal(g.states, e.states)):
            return False
        nan = np.isnan(e.positions)
        if not np.array_equal(np.isnan(g.positions), nan):
            return False
        if not np.allclose(g.positions[~nan], e.positions[~nan], rtol=0.0,
                           atol=CSV_ATOL):
            return False
    return True


def run_pass(w: Workload, inp: Inputs, work_dir: Path,
             tally: Tally) -> PassResult:
    """Train, checkpoint, load, evaluate, infer, write and run the baseline
    once, timing each call and checking its outputs.

    Training and evaluation are one call each over the whole set. The cheap
    calls run once per CSV file, so that a run times each of them about a
    hundred times, at both ends of the pass: each file is loaded and gets
    half its baseline calls before evaluation, and is inferred, written,
    read back and gets the other half after.
    """
    start = now()
    model_cfg, train_cfg, task = configs(w)
    r = {k: [] for k in ("infer", "load", "save", "baseline")}

    def timed(key, call, amount):
        tally.attempted += 1
        t = now()
        out = call()
        elapsed = now() - t
        r[key].append(elapsed * 1e3 if amount is None else amount / elapsed)
        return out

    def baseline(seqs):
        for _ in range(w.baseline_repeats // 2):
            timed("baseline", lambda: harness.evaluate_velocity_baseline(
                seqs, task, seed=0), len(seqs))

    def load(path, want, what):
        seqs = timed("load", lambda: data.load_sequences(path),
                     _rows(want))
        tally.check(_same_csv_content(seqs, want), what)
        return seqs

    t = now()
    ckpt, logs = harness.train(inp.train, model_cfg, train_cfg,
                               max_steps=w.steps)
    train_s = now() - t
    tally.attempted += len(logs)
    for log in logs:
        tally.check(np.isfinite(log.loss),
                    f"non-finite loss at step {log.step}")

    ckpt_path = work_dir / "checkpoint.npz"
    tally.attempted += 2
    ckpt.save(ckpt_path)
    loaded_ckpt = harness.Checkpoint.load(ckpt_path)
    params, cfg = loaded_ckpt.params, loaded_ckpt.model_cfg

    loaded = []
    for i, (csv, written) in enumerate(inp.chunks):
        loaded.append(load(csv, written, f"file {i}: loaded CSV differs from "
                           "the written sequences"))
        baseline(loaded[-1])
    seqs = [seq for chunk in loaded for seq in chunk]

    tally.attempted += 1
    t = now()
    report, _ = harness.evaluate(params, cfg, seqs, task, seed=0)
    eval_s = now() - t

    masks = iter(harness.build_masks(seqs, task, 0))
    ades = []
    for i, chunk in enumerate(loaded):
        completed = []
        for seq, m in zip(chunk, masks):
            out, _, traj = timed("infer", lambda: harness.run_model(
                seq, m, cfg, params), None)
            # From validity, not seq.nan_mask(), which the tracer would time.
            nan = (seq.validity == 0).astype(np.int8)
            visible = (m.entries == 0) & (nan == 0)
            exact = (traj[visible].tobytes()
                     == seq.positions[visible].tobytes())
            tally.check(exact, f"sequence {seq.seq_id}: visible slots changed")
            ades.append(ade_for_check(traj, seq.positions, m, nan))
            states = (out.state_scores.values.argmax(axis=1)
                      if out.state_scores is not None else None)
            completed.append(data.TrajectorySequence(
                seq_id=seq.seq_id, positions=traj, agent_types=seq.agent_types,
                states=states, validity=seq.validity,
                frame_rate_hz=seq.frame_rate_hz, pitch=seq.pitch))

        out_csv = work_dir / "completed.csv"
        timed("save", lambda: data.save_sequences(completed, out_csv),
              _rows(completed))
        load(out_csv, completed, f"file {i}: reloaded completed trajectories "
             "differ from the written ones")
        baseline(chunk)
    tally.check(abs(report.ade - float(np.mean(ades))) <= 1e-12,
                "evaluate ADE differs from the per-sequence run_model ADE")

    return PassResult(
        wall_s=now() - start,
        val_ade_m=report.ade,
        train_seq_steps_per_s=[len(logs) * BATCH / train_s],
        eval_seqs_per_s=[len(seqs) / eval_s],
        infer_ms=r["infer"],
        csv_load_rows_per_s=r["load"],
        csv_save_rows_per_s=r["save"],
        baseline_seqs_per_s=r["baseline"],
        loaded=2 * w.n_eval,
        saved=w.n_eval,
    )


# ---------------------------------------------------------------------------
# known defect
# ---------------------------------------------------------------------------

def probe_gapped_training(w: Workload, inp: Inputs, seed: int) -> str:
    """Attempt one training step on one sequence with absent observations.

    The README promises that NaN slots are excluded from losses; at the
    commit this benchmark was written against, ``objectives.ade_loss``
    subtracts the NaN target before the zero weight applies, so the step
    raises ``NumericsError``. Returns ``"ok"`` or the error it raised.
    """
    seq = blank_gaps(inp.held[0], np.random.default_rng([seed, 2]))
    model_cfg, _, _ = configs(w)
    cfg = harness.TrainConfig(epochs=1, batch_size=1, seed=0,
                              task=harness.TaskSpec(**BALL_INFERENCE))
    try:
        harness.train([seq], model_cfg, cfg, max_steps=1)
    except Exception as exc:  # noqa: BLE001 - any raise is the probe's result
        return f"{type(exc).__name__}: {exc}"
    return "ok"
