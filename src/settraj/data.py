"""Trajectory datasets: schema and CSV I/O, coordinate normalization,
deterministic splits, a synthetic possession-game generator with per-frame
state labels, and the constant-velocity extrapolation baseline.

CSV schema (one file holds a set of sequences):

    seq_id,frame,agent_id,agent_type,x,y,valid,state

``state`` is empty when unlabeled; rows with ``valid=0`` may carry empty
position cells and load as NaN. Positions are written with 6 decimal places.
A sidecar ``<file>.meta.json`` records pitch dimensions and frame rate.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass, field
from itertools import repeat, zip_longest
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .masking import ObservationMask, slot_roles

STATE_NAMES = ("pass", "possession", "uncontrolled", "out_of_play")
PASS, POSSESSION, UNCONTROLLED, OUT_OF_PLAY = range(4)

BALL, OFFENSE, DEFENSE = 0, 1, 2


@dataclass
class PitchSpec:
    """Playing-field rectangle [0, length] x [0, width]."""

    length: float = 105.0
    width: float = 68.0
    unit: str = "meters"

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0
                   for v in (self.length, self.width)):
            raise ConfigError("pitch dimensions must be finite and positive")
        if self.unit not in ("meters", "feet"):
            raise ConfigError(f"unknown unit {self.unit!r}")

    @property
    def center(self) -> np.ndarray:
        return np.array([self.length / 2.0, self.width / 2.0])


def _codes(values, what: str, shape: tuple, names) -> np.ndarray:
    """``values`` as int64 indices into ``names``; a fraction is refused, not
    truncated (a cast would make an agent type of 0.5 the ball)."""
    raw = np.asarray(values)
    if raw.dtype.kind == "f" and not (np.isfinite(raw)
                                      & (np.floor(raw) == raw)).all():
        raise DataError(f"{what} must be whole numbers")
    codes = raw.astype(np.int64)
    if codes.shape != shape:
        raise DataError(f"{what} must have shape {shape}, got {codes.shape}")
    if not ((codes >= 0) & (codes < len(names))).all():
        raise DataError(f"{what} must lie in 0..{len(names) - 1} {names}")
    return codes


def _check_frame_rate(rate) -> None:
    if not (math.isfinite(rate) and rate > 0):
        raise DataError(f"frame_rate_hz {rate} is not a positive rate")


@dataclass
class TrajectorySequence:
    """One multi-agent tracking sequence in field units.

    ``validity`` marks genuinely absent observations (0 = absent) and is the
    source of the NaN mask; positions must be finite wherever validity is 1.
    """

    seq_id: int
    positions: np.ndarray          # [T x N x 2]
    agent_types: np.ndarray        # [N], values in {0 ball, 1 off, 2 def}
    states: Optional[np.ndarray]   # [T] in {0..3}, or None
    validity: np.ndarray = None    # [T x N] binary
    frame_rate_hz: float = 6.25
    pitch: PitchSpec = field(default_factory=PitchSpec)

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        if self.positions.ndim != 3 or self.positions.shape[2] != 2:
            raise DataError(f"positions must be [T x N x 2], "
                            f"got {self.positions.shape}")
        self.agent_types = _codes(self.agent_types, "agent types", (self.N,),
                                  ("ball", "offense", "defense"))
        if (self.agent_types == BALL).sum() > 1:
            raise DataError("at most one ball agent per sequence")
        if self.validity is None:
            self.validity = np.ones((self.T, self.N), dtype=np.int8)
        self.validity = _codes(self.validity, "validity", (self.T, self.N),
                               ("absent", "valid")).astype(np.int8)
        if not np.isfinite(self.positions[self.validity == 1]).all():
            raise DataError("positions must be finite where validity=1")
        if self.states is not None:
            self.states = _codes(self.states, "states", (self.T,), STATE_NAMES)
        _check_frame_rate(self.frame_rate_hz)

    @property
    def T(self) -> int:
        return self.positions.shape[0]

    @property
    def N(self) -> int:
        return self.positions.shape[1]

    @property
    def ball_index(self) -> Optional[int]:
        idx = np.flatnonzero(self.agent_types == BALL)
        return int(idx[0]) if idx.size else None

    def nan_mask(self) -> np.ndarray:
        return (self.validity == 0).astype(np.int8)

    def inputs(self, channels: int = 3) -> np.ndarray:
        """Model inputs [T x N x C]: normalized (x, y) plus, with C=3, the
        raw agent-type channel. Absent slots keep their positions as given,
        NaN included; ``model.forward`` zero-fills every non-visible slot."""
        xy = normalize(self.positions, self.pitch)
        if channels == 2:
            return xy
        if channels == 3:
            types = np.broadcast_to(self.agent_types.astype(np.float64),
                                    (self.T, self.N))[..., None]
            return np.concatenate([xy, types], axis=2)
        raise ConfigError("channels must be 2 or 3")

    def one_hot_states(self, n_classes: int) -> np.ndarray:
        if self.states is None:
            raise DataError(f"sequence {self.seq_id} has no state labels")
        one_hot = np.zeros((self.T, n_classes), dtype=np.float64)
        one_hot[np.arange(self.T), self.states] = 1.0
        return one_hot


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def normalize(positions: np.ndarray, pitch: PitchSpec) -> np.ndarray:
    """Affine map of field coordinates into [-1, 1]^2 (center to origin)."""
    half = np.array([pitch.length / 2.0, pitch.width / 2.0])
    return (np.asarray(positions, dtype=np.float64) - half) / half


def denormalize(positions: np.ndarray, pitch: PitchSpec) -> np.ndarray:
    """Exact inverse of :func:`normalize`."""
    half = np.array([pitch.length / 2.0, pitch.width / 2.0])
    return np.asarray(positions, dtype=np.float64) * half + half


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

_HEADER = ["seq_id", "frame", "agent_id", "agent_type", "x", "y", "valid",
           "state"]


def _meta_path(path) -> Path:
    return Path(str(path) + ".meta.json")


@contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open a temporary sibling of ``path`` for writing; it replaces ``path``
    when the block ends and is removed when the block raises, so a crash
    leaves the previous file or the new one, never a partial one."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_sequences(sequences: Sequence[TrajectorySequence], path) -> None:
    """Write sequences to one CSV file (plus a metadata sidecar), each file
    with :func:`atomic_write`; a sidecar that already holds the same bytes is
    left as it is. Sequence ids must differ: loading groups rows by id."""
    if not sequences:
        raise DataError("refusing to save an empty sequence list")
    rate = sequences[0].frame_rate_hz
    pitch = sequences[0].pitch
    for s in sequences:
        if s.frame_rate_hz != rate or s.pitch != pitch:
            raise DataError("all sequences in one file must share frame rate "
                            "and pitch")
    for seq_id, count in Counter(s.seq_id for s in sequences).items():
        if count > 1:
            raise DataError(f"{path}: seq_id {seq_id} is used by {count} "
                            f"sequences")
    meta = json.dumps({"frame_rate_hz": rate, "pitch": asdict(pitch)},
                      indent=2)
    meta_file = _meta_path(path)
    try:  # a sidecar that already holds these bytes is left as it is
        stale = meta_file.read_bytes() != meta.encode()
    except FileNotFoundError:
        stale = True
    with ExitStack() as files:  # both files are replaced only once written
        fh = files.enter_context(atomic_write(path, newline="",
                                              encoding="utf-8"))
        fh.write(",".join(_HEADER) + "\r\n")
        for s in sequences:  # rows as csv.writer writes them, frame-major
            T, N = s.T, s.N
            xy = list(map("{:.6f},{:.6f}".format,
                          *s.positions.reshape(-1, 2).T.tolist()))
            for i in np.flatnonzero(~np.isfinite(s.positions).all(axis=2)):
                xy[i] = ","  # both cells empty where either is not finite
            states = repeat("") if s.states is None else \
                np.repeat(s.states, N).tolist()
            fh.write("".join(map(
                "{},{},{},{},{},{},{}\r\n".format, repeat(s.seq_id),
                np.repeat(np.arange(T), N).tolist(), list(range(N)) * T,
                s.agent_types.tolist() * T, xy, s.validity.ravel().tolist(),
                states)))
        if stale:
            files.enter_context(atomic_write(meta_file, encoding="utf-8")
                                ).write(meta)


def load_sequences(path) -> list[TrajectorySequence]:
    """Parse a sequence CSV, reporting violations with their line number.

    Agents are reordered at load time to the standard layout: ball first,
    then offense, then defense, each sorted by original agent id; ids are
    remapped to 0..N-1 accordingly. Cells are checked a column at a time, but
    the error raised is the first one a row-by-row reading would meet.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    meta_file = _meta_path(path)
    if meta_file.exists():
        try:
            meta = json.loads(meta_file.read_text(encoding="utf-8"))
            pitch = PitchSpec(**meta["pitch"])
            rate = float(meta["frame_rate_hz"])
            _check_frame_rate(rate)
        except (ValueError, KeyError, TypeError) as e:
            raise DataError(f"{meta_file}: bad metadata sidecar: {e!r}") from e
    else:
        pitch, rate = PitchSpec(), 6.25

    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        line = raw.count(b"\n", 0, e.start) + 1
        raise DataError(f"{path}: line {line}: not UTF-8 text") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    # (record, its last line): a quoted cell may span lines. On a tokenizer
    # error, list.extend keeps the records read before it.
    records, fault = [], None
    try:
        if next(reader, None) != _HEADER:  # also an empty file
            raise DataError(f"{path}: line 1: expected header "
                            f"{','.join(_HEADER)!r}")
        records.extend(zip(reader, map(getattr, repeat(reader),
                                       repeat("line_num"))))
    except csv.Error as e:
        fault = f"line {reader.line_num}: {e}"
    records, lines = zip(*records) if records else ((), ())
    cols = _parse_records(records, lines, fault, path)
    number = {}  # seq_id -> its place in the file
    place = {c: number.setdefault(int(c), len(number))
             for c in dict.fromkeys(cols["seq_id"])}
    seq = np.fromiter(map(place.__getitem__, cols["seq_id"]), np.intp,
                      len(lines))
    ends = np.cumsum(np.bincount(seq, minlength=len(number)))
    return [_assemble(seq_id, rows, cols, path, pitch, rate) for seq_id, rows
            in zip(number, np.split(np.argsort(seq, kind="stable"), ends))]


def _parse_records(records, lines, fault, path) -> dict:
    """The records as columns. Each rule a record must keep is a boolean
    column; the first record that breaks one, and on it the first rule,
    give the error raised, else ``fault`` (a tokenizer error after them)."""
    n = len(records)
    width = np.fromiter(map(len, records), np.intp, n)
    cells = list(zip_longest(*records, fillvalue=""))[:len(_HEADER)]
    cells += [("",) * n] * (len(_HEADER) - len(cells))  # a record too short
    seq_c, frame_c, agent_c, type_c, x_c, y_c, valid_c, state_c = cells
    (_, bad_id), (frames, bad_frame), (agents, bad_agent), \
        (types, bad_type) = (_column(int, c, np.int64) for c in cells[:4])
    states, bad_state = _column(int, state_c, np.int64, empty="0")
    (x, bad_x), (y, bad_y) = (_column(float, c, np.float64, empty="nan")
                              for c in (x_c, y_c))
    has_x, has_y, labeled = (np.fromiter(map(bool, c), bool, n)
                             for c in (x_c, y_c, state_c))
    valid = np.fromiter(map({"0": 0, "1": 1}.get, valid_c, repeat(-1)),
                        np.int8, n)
    rules = [  # in the order a row is checked
        (width != len(_HEADER),
         f"expected {len(_HEADER)} fields, got {{width}}"),
        (bad_id | bad_frame | bad_agent | bad_type,
         "seq_id, frame, agent_id and agent_type must be integers"),
        ((types < BALL) | (types > DEFENSE),
         "agent_type {agent_type} not in {{0, 1, 2}}"),
        (valid < 0, "valid must be 0 or 1, got {valid!r}"),
        (has_x != has_y, "x and y must both be present or both empty"),
        (~has_x & (valid == 1), "valid rows need position values"),
        (bad_x | bad_y, "positions must be numeric, got ({x!r}, {y!r})"),
        ((valid == 1) & ~(np.isfinite(x) & np.isfinite(y)),
         "valid rows need finite positions"),
        (labeled & bad_state, "state must be an integer or empty, got "
                              "{state!r}"),
        (labeled & ((states < 0) | (states >= len(STATE_NAMES))),
         f"state {{state}} not in 0..{len(STATE_NAMES) - 1}")]
    broken = np.stack([bad for bad, _ in rules])
    hit = np.flatnonzero(broken.any(axis=0))
    if hit.size:
        i = int(hit[0])
        msg = rules[int(np.argmax(broken[:, i]))][1]
        fault = f"line {lines[i]}: " + msg.format(
            width=width[i], **dict(zip(_HEADER, records[i])))
    if fault is not None:
        raise DataError(f"{path}: {fault}")
    return {"seq_id": seq_c, "frame": frames, "frame_cells": frame_c,
            "agent_id": agents, "agent_type": types, "x": x, "y": y,
            "valid": valid, "labeled": labeled, "state": states,
            "line": lines}


def _column(fn, cells, dtype, empty=None):
    """Python's ``fn`` of each cell (of ``empty`` for an empty one) as a
    ``dtype`` column, and the boolean column of the cells it rejects (valued
    0). An int beyond int64, so beyond every valid range, becomes -1."""
    if empty is not None:
        cells = list(map({"": empty}.get, cells, cells))
    n = len(cells)
    try:
        if fn is int:  # ids, frames and codes repeat: convert each one once
            once = dict.fromkeys(cells)
            fn = dict(zip(once, map(int, once))).__getitem__
        return np.fromiter(map(fn, cells), dtype, n), np.zeros(n, dtype=bool)
    except (ValueError, OverflowError):
        values, rejected = np.zeros(n, dtype), np.zeros(n, dtype=bool)
        for i, cell in enumerate(cells):
            try:
                values[i] = fn(cell)
            except ValueError:
                rejected[i] = True
            except OverflowError:
                values[i] = -1
        return values, rejected


def _first_of(ids: np.ndarray) -> np.ndarray:
    """For each entry, the index of the first entry equal to it."""
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    return first[inverse]


def _assemble(seq_id, rows, cols, path, pitch, rate) -> TrajectorySequence:
    """Scatter one sequence's rows (indices into ``cols``, in file order)
    into [T x N] arrays, raising faults in the order a row-by-row scatter
    meets them."""
    where = f"{path}: sequence {seq_id}"
    f, a = cols["frame"][rows], cols["agent_id"][rows]
    # Range first: no count or array is sized by a value beyond the rows.
    if f.min() != 0 or f.max() >= rows.size or not np.bincount(f).all():
        frames = sorted({int(cols["frame_cells"][i]) for i in rows.tolist()})
        raise DataError(f"{where}: frames must cover 0..T-1, got "
                        f"{frames[:5]}...")
    if a.min() != 0 or a.max() >= rows.size or not np.bincount(a).all():
        raise DataError(f"{where}: agent ids must cover 0..N-1")
    T, N = int(f.max()) + 1, int(a.max()) + 1
    key, own = f * N + a, np.arange(rows.size)
    types, states = cols["agent_type"][rows], cols["state"][rows]
    labeled = np.flatnonzero(cols["labeled"][rows])
    label_of = own.copy()
    label_of[labeled] = labeled[_first_of(f[labeled])]
    broken = np.stack([_first_of(key) != own, types != types[_first_of(a)],
                       states != states[label_of]])
    hit = np.flatnonzero(broken.any(axis=0))
    if hit.size:
        i = int(hit[0])
        msg = (f"duplicate entry for frame {f[i]}, agent {a[i]}",
               f"agent {a[i]} changes type",
               f"conflicting state labels at frame {f[i]}",
               )[int(np.argmax(broken[:, i]))]
        raise DataError(f"{path}: line {cols['line'][rows[i]]}: {msg}")
    if rows.size < T * N:  # no entry repeats, so one is missing
        k = int(np.argmax(np.append(np.sort(key) != own, True)))
        raise DataError(f"{where}: missing entry for frame {k // N}, "
                        f"agent {k % N}")
    labels = np.full(T, -1, dtype=np.int64)
    labels[f[labeled]] = states[labeled]
    if labeled.size and labels.min() < 0:
        raise DataError(f"{where}: frame {int(np.argmin(labels))} lacks a "
                        f"state label while others have one")
    positions = np.empty((T, N, 2))
    positions[f, a] = np.stack([cols["x"][rows], cols["y"][rows]], axis=1)
    validity = np.empty((T, N), dtype=np.int8)
    validity[f, a] = cols["valid"][rows]
    agent_types = np.empty(N, dtype=np.int64)
    agent_types[a] = types
    order = np.argsort(agent_types, kind="stable")
    try:
        return TrajectorySequence(
            seq_id, positions[:, order], agent_types[order],
            labels if labeled.size else None, validity[:, order], rate, pitch)
    except DataError as e:  # e.g. two ball agents
        raise DataError(f"{where}: {e}") from None


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

@dataclass
class DatasetSplit:
    train: list
    val: list
    test: list
    seed: int


def split_dataset(sequences: Sequence, ratios, seed: int) -> DatasetSplit:
    """Deterministic shuffled train/val/test partition by index."""
    # a rounding residue, as in 1 - 0.8 - 0.2, reads as 0
    ratios = tuple(0.0 if -1e-9 < float(r) < 0 else float(r) for r in ratios)
    if len(ratios) != 3 or any(r < 0 for r in ratios) or \
            abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"ratios must be 3 nonnegative values summing to 1, "
                          f"got {ratios}")
    n = len(sequences)
    order = np.random.default_rng(seed).permutation(n)
    b1 = int(round(ratios[0] * n))
    b2 = b1 + int(round(ratios[1] * n))
    return DatasetSplit(train=sorted(order[:b1].tolist()),
                        val=sorted(order[b1:b2].tolist()),
                        test=sorted(order[b2:].tolist()), seed=seed)


# ---------------------------------------------------------------------------
# synthetic possession game
# ---------------------------------------------------------------------------

_PASS_SPEED = 20.0       # m/s along a pass, before frame quantization
_MAX_PLAYER_AXIS_SPEED = 5.5  # m/s per-axis cap on player motion
_MARGIN = 2.0            # players keep this distance from the boundary


def generate_possession_game(n_sequences: int, T: int, n_per_team: int,
                             frame_rate: float = 6.25, rng_seed: int = 0,
                             pitch: Optional[PitchSpec] = None
                             ) -> list[TrajectorySequence]:
    """Synthesize ball-possession sequences with per-frame state labels.

    Players follow smooth bounded oscillations around home spots. The ball
    alternates possession segments (carried by a player), ballistic passes to
    a teammate (always faster than the carrier), occasional decaying loose
    balls, and boundary exits; frames with the ball outside the pitch are
    labeled out-of-play. Every sequence contains at least one possession and
    one pass segment, which needs ``T >= 8``. Deterministic per seed.
    """
    if n_per_team < 2:
        raise ConfigError("need at least 2 players per team")
    if T < 8:
        raise ConfigError("possession script needs T >= 8 frames")
    if frame_rate < 2.5:
        raise ConfigError("frame rate below 2.5 Hz breaks the pass-speed "
                          "construction")
    pitch = pitch or PitchSpec()
    sequences = []
    for i in range(n_sequences):
        rng = np.random.default_rng([int(rng_seed), i])
        seq = _one_possession_game(i, rng, T, n_per_team, frame_rate, pitch)
        check_sequence_labels(seq)  # construction guarantee, verified
        sequences.append(seq)
    return sequences


def _player_paths(rng, T, n_players, dt, pitch) -> np.ndarray:
    """Smooth bounded trajectories around a shared drifting play focus.

    Every player tracks one slow team-level focus path (scaled by a personal
    pull factor) plus a small personal oscillation around a home spot, so the
    squad flows coherently with the play. Per-axis frequency and amplitude
    caps keep every player's vector speed safely below the pass speed."""
    lo = np.array([_MARGIN, _MARGIN])
    hi = np.array([pitch.length - _MARGIN, pitch.width - _MARGIN])
    span = np.array([pitch.length, pitch.width]) - 2 * _MARGIN
    t = np.arange(T)[:, None, None] * dt  # [T x 1 x 1]

    # shared focus: large-amplitude, very low frequency drift about center
    focus_amp = np.minimum(0.25 * span, 12.0)
    focus_omega = rng.uniform(0.03, 0.08, size=2)
    focus_phase = rng.uniform(0.0, 2 * np.pi, size=2)
    focus = focus_amp * np.sin(focus_omega * t + focus_phase)  # [T x 1 x 2]
    pull = rng.uniform(0.4, 0.7, size=(n_players, 1))

    # personal oscillation: small amplitude but fast, so linear extrapolation
    # rides a transient velocity far off target while the true path stays in
    # a tight band; (focus + personal) per-axis speed stays well below the
    # pass speed
    amp_max = min(1.2, float(span.min()) / 8.0)
    if amp_max <= 0.2:
        raise ConfigError("pitch too small for the possession generator")
    amp = rng.uniform(0.5 * amp_max, amp_max, size=(n_players, 2))
    personal_axis_speed = _MAX_PLAYER_AXIS_SPEED - focus_amp.max() * 0.08
    omega = rng.uniform(2.0, np.minimum(4.5, personal_axis_speed / amp))
    phase = rng.uniform(0.0, 2 * np.pi, size=(n_players, 2))
    slack = pull * focus_amp + amp
    home = rng.uniform(lo + slack, hi - slack)

    paths = home + pull * focus + amp * np.sin(omega * t + phase)
    return np.clip(paths, lo, hi)


def _one_possession_game(seq_id, rng, T, n_per_team, frame_rate,
                         pitch) -> TrajectorySequence:
    dt = 1.0 / frame_rate
    n_players = 2 * n_per_team
    players = _player_paths(rng, T, n_players, dt, pitch)
    types = np.array([BALL] + [OFFENSE] * n_per_team + [DEFENSE] * n_per_team)
    teams = {OFFENSE: list(range(0, n_per_team)),
             DEFENSE: list(range(n_per_team, n_players))}

    ball = np.zeros((T, 2))
    states = np.zeros(T, dtype=np.int64)
    lo = np.array([_MARGIN, _MARGIN])
    hi = np.array([pitch.length - _MARGIN, pitch.width - _MARGIN])
    center = pitch.center
    # Minimum pass length such that after frame quantization the ball always
    # outpaces any player (vector player speed is capped well below this).
    min_pass = 1.1 * _PASS_SPEED * dt

    def player_team(p):
        return OFFENSE if p < n_per_team else DEFENSE

    def hold_offset(p, t):
        v = players[t, p] - players[t - 1, p] if t > 0 else np.array([1.0, 0.0])
        nv = np.linalg.norm(v)
        u = v / nv if nv > 1e-9 else np.array([1.0, 0.0])
        return np.clip(players[t, p] + 0.25 * u, lo, hi)

    holder = int(rng.choice(teams[OFFENSE]))
    t = 0
    first_possess = int(min(rng.integers(4, 9), T - 2))
    forced_pass_done = False
    segment = ("possess", first_possess)
    while t < T:
        kind, dur = segment
        if kind == "possess":
            end = min(t + dur, T)
            for k in range(t, end):
                ball[k] = hold_offset(holder, k)
                states[k] = POSSESSION
            t = end
            if t >= T:
                break
            if not forced_pass_done:
                choice = "pass"
                forced_pass_done = True
            else:
                choice = rng.choice(["pass", "loose", "out"],
                                    p=[0.72, 0.16, 0.12])
            if choice == "pass":
                segment = ("pass", 0)
            elif choice == "loose":
                segment = ("loose", int(rng.integers(3, 7)))
            else:
                segment = ("out", int(rng.integers(3, 6)))
        elif kind == "pass":
            mates = [p for p in teams[player_team(holder)] if p != holder]
            gaps = np.array([np.linalg.norm(players[t - 1, p] - ball[t - 1])
                             for p in mates])
            weights = 1.0 / (gaps + 8.0)
            receiver = int(rng.choice(mates, p=weights / weights.sum()))
            start = ball[t - 1]
            aim = players[min(t + 3, T - 1), receiver]
            delta = aim - start
            length = np.linalg.norm(delta)
            if length < 1e-9:
                delta, length = center - start, np.linalg.norm(center - start)
            u = delta / length
            length = max(length, min_pass)
            target = np.clip(start + u * length, lo, hi)
            delta = target - start
            length = np.linalg.norm(delta)
            if length < min_pass:  # clamped into a corner: re-aim inward
                u = (center - start) / np.linalg.norm(center - start)
                target = start + u * min_pass
                delta = target - start
                length = min_pass
            k = max(1, int(round(length / (_PASS_SPEED * dt))))
            k = min(k, T - t)
            step = delta / k
            for j in range(k):
                ball[t + j] = start + step * (j + 1)
                states[t + j] = PASS
            t += k
            holder = receiver
            segment = ("possess", int(rng.integers(5, 13)))
        elif kind == "loose":
            start = ball[t - 1]
            target_p = int(rng.choice(n_players))
            target = players[min(t + dur - 1, T - 1), target_p]
            q = 0.8
            total = (1.0 - q ** dur) / (1.0 - q)
            v0 = (target - start) / total
            for j in range(min(dur, T - t)):
                ball[t + j] = start + v0 * (1.0 - q ** (j + 1)) / (1.0 - q)
                states[t + j] = UNCONTROLLED
            t += min(dur, T - t)
            holder = target_p
            segment = ("possess", int(rng.integers(5, 13)))
        else:  # out: ball sails over the nearest boundary, then is thrown in
            start = ball[t - 1]
            sides = np.array([start[0], pitch.length - start[0],
                              start[1], pitch.width - start[1]])
            side = int(np.argmin(sides))
            u = np.array([[-1.0, 0.0], [1.0, 0.0],
                          [0.0, -1.0], [0.0, 1.0]])[side]
            travel = sides[side] + 4.0
            k_total = max(2, int(round(travel / (_PASS_SPEED * dt))))
            step = u * travel / k_total
            frames = min(k_total + dur, T - t)
            pos = start.copy()
            for j in range(frames):
                if j < k_total:
                    pos = start + step * (j + 1)
                ball[t + j] = pos
                inside = (0.0 <= pos[0] <= pitch.length
                          and 0.0 <= pos[1] <= pitch.width)
                states[t + j] = UNCONTROLLED if inside else OUT_OF_PLAY
            t += frames
            if t < T:
                reentry = np.clip(pos, lo, hi)
                dists = np.linalg.norm(players[t] - reentry, axis=1)
                holder = int(np.argmin(dists))
                segment = ("possess", int(rng.integers(5, 13)))

    positions = np.concatenate([ball[:, None, :], players], axis=1)
    return TrajectorySequence(seq_id=seq_id, positions=positions,
                              agent_types=types, states=states,
                              frame_rate_hz=frame_rate, pitch=pitch)


def generate_constant_velocity(n_sequences: int, T: int, n_per_team: int,
                               frame_rate: float = 6.25, rng_seed: int = 0,
                               pitch: Optional[PitchSpec] = None
                               ) -> list[TrajectorySequence]:
    """Unlabeled sequences where every agent (ball included) moves with a
    constant per-frame velocity and stays on the pitch; the null fixture on
    which the velocity baseline is exact."""
    pitch = pitch or PitchSpec()
    n_agents = 2 * n_per_team + 1
    types = np.array([BALL] + [OFFENSE] * n_per_team + [DEFENSE] * n_per_team)
    out = []
    for i in range(n_sequences):
        rng = np.random.default_rng([int(rng_seed), i])
        lo = np.array([_MARGIN, _MARGIN])
        hi = np.array([pitch.length - _MARGIN, pitch.width - _MARGIN])
        p0 = rng.uniform(lo, hi, size=(n_agents, 2))
        v_max = np.minimum(p0 - lo, hi - p0) / max(T - 1, 1)
        v = rng.uniform(-v_max, v_max)
        positions = p0[None] + np.arange(T)[:, None, None] * v[None]
        out.append(TrajectorySequence(seq_id=i, positions=positions,
                                      agent_types=types, states=None,
                                      frame_rate_hz=frame_rate, pitch=pitch))
    return out


def check_sequence_labels(seq: TrajectorySequence) -> None:
    """Verify the generator's label/kinematics guarantees on one sequence."""
    if seq.states is None:
        raise DataError("sequence has no state labels to check")
    b = seq.ball_index
    ball = seq.positions[:, b, :]
    outside = ((ball[:, 0] < 0) | (ball[:, 0] > seq.pitch.length)
               | (ball[:, 1] < 0) | (ball[:, 1] > seq.pitch.width))
    if not ((seq.states == OUT_OF_PLAY) == outside).all():
        raise DataError("out-of-play labels disagree with ball position")
    if POSSESSION not in seq.states or PASS not in seq.states:
        raise DataError("sequence lacks a possession or a pass segment")

    players = np.delete(seq.positions, b, axis=1)
    on_pass = np.flatnonzero(seq.states == PASS)
    runs = np.split(on_pass, np.flatnonzero(np.diff(on_pass) > 1) + 1)
    for run in runs:
        t0 = int(run[0])
        if t0 == 0 or seq.states[t0 - 1] != POSSESSION:
            raise DataError("pass segment does not start from a possession")
        carrier = int(np.argmin(
            np.linalg.norm(players[t0 - 1] - ball[t0 - 1], axis=1)))
        for t in run:
            ball_speed = np.linalg.norm(ball[t] - ball[t - 1])
            carrier_speed = np.linalg.norm(players[t][carrier]
                                           - players[t - 1][carrier])
            if ball_speed <= carrier_speed:
                raise DataError(f"pass frame {t}: ball ({ball_speed:.2f}) "
                                f"not faster than carrier "
                                f"({carrier_speed:.2f})")


# ---------------------------------------------------------------------------
# velocity baseline
# ---------------------------------------------------------------------------

def velocity_baseline(x_partial: np.ndarray, m: ObservationMask,
                      nan_mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Constant-velocity extrapolation (:func:`extrapolate_velocity`) of
    the slots that are not visible under task mask ``m`` and NaN mask."""
    x = np.asarray(x_partial, dtype=np.float64)
    T, N = m.entries.shape
    if x.shape[:2] != (T, N):
        raise DataError(f"positions {x.shape} do not match mask ({T}, {N})")
    return extrapolate_velocity(x, slot_roles(m, nan_mask)[1])


def extrapolate_velocity(x: np.ndarray, visible: np.ndarray) -> np.ndarray:
    """Fill the slots of float64 ``[T x N x C]`` positions ``x`` that the
    boolean ``[T x N]`` ``visible`` does not mark, by constant velocity.

    Each maximal hidden run of an agent is projected forward from the two
    visible frames preceding it; with a single preceding visible frame the
    last position is held. Runs with no visible history hold the first
    visible frame after the run, or (0, 0) for fully hidden agents.
    """
    T, N = visible.shape
    if T == 0:
        return x.copy()
    # Slots are flat indices t * N + n; each copies slot ``src``: itself when
    # visible, else its run's last visible frame, else the first visible one.
    last = np.maximum.accumulate(
        np.where(visible, np.arange(T)[:, None], -1), axis=0)
    src = np.where(last >= 0, last, visible.argmax(axis=0)) * N + np.arange(N)
    xs = x.reshape(T * N, -1)
    x_hat = np.where(visible.take(src)[..., None],
                     xs.take(src, axis=0).reshape(x.shape), 0.0)
    # extrapolate where the run's last visible frame follows a visible one
    moving = np.flatnonzero(~visible & (last >= 1)
                            & visible.take(np.maximum(src - N, 0)))
    a = src.take(moving)
    v = xs.take(a, axis=0) - xs.take(a - N, axis=0)
    steps = (moving // N - a // N)[:, None]
    x_hat.reshape(T * N, -1)[moving] = xs.take(a, axis=0) + steps * v
    return x_hat
