"""Dataset schema, CSV round-trips, normalization, generator, baseline."""

import csv
import io
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from settraj import data as data_mod
from settraj.data import (
    PitchSpec,
    TrajectorySequence,
    atomic_write,
    check_sequence_labels,
    denormalize,
    generate_constant_velocity,
    generate_possession_game,
    load_sequences,
    normalize,
    save_sequences,
    split_dataset,
    velocity_baseline,
    OUT_OF_PLAY,
    PASS,
    POSSESSION,
)
from settraj.errors import ConfigError, DataError
from settraj.masking import ObservationMask, build_forecasting_mask


# ---------------------------------------------------------------------------
# row-by-row references: the CSV reader and writer as the library had them
# before the columnar versions, which must match them exactly
# ---------------------------------------------------------------------------

HEADER = ["seq_id", "frame", "agent_id", "agent_type", "x", "y", "valid",
          "state"]


def reference_save_sequences(sequences, path):
    """The ``csv.writer`` writer, one ``writerow`` per (frame, agent)."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(HEADER)
        for s in sequences:
            for t in range(s.T):
                state = "" if s.states is None else str(int(s.states[t]))
                for n in range(s.N):
                    valid = int(s.validity[t, n])
                    if np.isfinite(s.positions[t, n]).all():
                        x, y = (f"{s.positions[t, n, 0]:.6f}",
                                f"{s.positions[t, n, 1]:.6f}")
                    else:
                        x, y = "", ""
                    writer.writerow([s.seq_id, t, n, int(s.agent_types[n]),
                                     x, y, valid, state])
    pitch = sequences[0].pitch
    meta = {"frame_rate_hz": sequences[0].frame_rate_hz,
            "pitch": {"length": pitch.length, "width": pitch.width,
                      "unit": pitch.unit}}
    Path(str(path) + ".meta.json").write_text(json.dumps(meta, indent=2),
                                              encoding="utf-8")


def reference_load_sequences(path):
    """The row-by-row reader: a dict per row, then a scatter loop per
    sequence that raises at the first row in fault."""
    path = Path(path)
    meta_file = Path(str(path) + ".meta.json")
    if meta_file.exists():
        meta = json.loads(meta_file.read_text(encoding="utf-8"))
        pitch, rate = PitchSpec(**meta["pitch"]), float(meta["frame_rate_hz"])
    else:
        pitch, rate = PitchSpec(), 6.25
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        line = raw.count(b"\n", 0, e.start) + 1
        raise DataError(f"{path}: line {line}: not UTF-8 text") from None
    rows_by_seq = {}
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        if next(reader, None) != HEADER:
            raise DataError(f"{path}: line 1: expected header "
                            f"{','.join(HEADER)!r}")
        for row in reader:
            lineno = reader.line_num
            if len(row) != len(HEADER):
                raise DataError(f"{path}: line {lineno}: expected "
                                f"{len(HEADER)} fields, got {len(row)}")
            rec = reference_parse_row(row, path, lineno)
            rows_by_seq.setdefault(rec["seq_id"], []).append((lineno, rec))
    except csv.Error as e:
        raise DataError(f"{path}: line {reader.line_num}: {e}") from None
    return [reference_assemble(seq_id, rows, path, pitch, rate)
            for seq_id, rows in rows_by_seq.items()]


def reference_parse_row(row, path, lineno):
    def fail(msg):
        raise DataError(f"{path}: line {lineno}: {msg}")

    seq_id, frame, agent_id, agent_type, x, y, valid, state = row
    try:
        rec = {"seq_id": int(seq_id), "frame": int(frame),
               "agent_id": int(agent_id), "agent_type": int(agent_type)}
    except ValueError:
        fail("seq_id, frame, agent_id and agent_type must be integers")
    if rec["agent_type"] not in (0, 1, 2):
        fail(f"agent_type {agent_type} not in {{0, 1, 2}}")
    if valid not in ("0", "1"):
        fail(f"valid must be 0 or 1, got {valid!r}")
    rec["valid"] = int(valid)
    if (x == "") != (y == ""):
        fail("x and y must both be present or both empty")
    if x == "":
        if rec["valid"]:
            fail("valid rows need position values")
        rec["x"], rec["y"] = np.nan, np.nan
    else:
        try:
            rec["x"], rec["y"] = float(x), float(y)
        except ValueError:
            fail(f"positions must be numeric, got ({x!r}, {y!r})")
        if rec["valid"] and not (np.isfinite(rec["x"])
                                 and np.isfinite(rec["y"])):
            fail("valid rows need finite positions")
    if state == "":
        rec["state"] = None
    else:
        try:
            rec["state"] = int(state)
        except ValueError:
            fail(f"state must be an integer or empty, got {state!r}")
        if rec["state"] not in range(4):
            fail(f"state {state} not in 0..3")
    return rec


def reference_assemble(seq_id, rows, path, pitch, rate):
    frames = sorted({r["frame"] for _, r in rows})
    agents = sorted({r["agent_id"] for _, r in rows})
    T, N = len(frames), len(agents)
    if frames != list(range(T)):
        raise DataError(f"{path}: sequence {seq_id}: frames must cover "
                        f"0..T-1, got {frames[:5]}...")
    if agents != list(range(N)):
        raise DataError(f"{path}: sequence {seq_id}: agent ids must cover "
                        f"0..N-1")
    positions = np.full((T, N, 2), np.nan)
    validity = np.zeros((T, N), dtype=np.int8)
    types = np.full(N, -1, dtype=np.int64)
    states = np.full(T, -1, dtype=np.int64)
    seen = np.zeros((T, N), dtype=bool)
    any_state = False
    for lineno, r in rows:
        t, n = r["frame"], r["agent_id"]
        if seen[t, n]:
            raise DataError(f"{path}: line {lineno}: duplicate entry for "
                            f"frame {t}, agent {n}")
        seen[t, n] = True
        positions[t, n] = (r["x"], r["y"])
        validity[t, n] = r["valid"]
        if types[n] == -1:
            types[n] = r["agent_type"]
        elif types[n] != r["agent_type"]:
            raise DataError(f"{path}: line {lineno}: agent {n} changes type")
        if r["state"] is not None:
            any_state = True
            if states[t] == -1:
                states[t] = r["state"]
            elif states[t] != r["state"]:
                raise DataError(f"{path}: line {lineno}: conflicting state "
                                f"labels at frame {t}")
    if not seen.all():
        t, n = np.argwhere(~seen)[0]
        raise DataError(f"{path}: sequence {seq_id}: missing entry for "
                        f"frame {t}, agent {n}")
    if any_state and (states == -1).any():
        t = int(np.flatnonzero(states == -1)[0])
        raise DataError(f"{path}: sequence {seq_id}: frame {t} lacks a state "
                        f"label while others have one")
    order = sorted(range(N), key=lambda n: (types[n], n))
    try:
        return TrajectorySequence(
            seq_id=seq_id, positions=positions[:, order, :],
            agent_types=types[order], states=states if any_state else None,
            validity=validity[:, order], frame_rate_hz=rate, pitch=pitch)
    except DataError as e:
        raise DataError(f"{path}: sequence {seq_id}: {e}") from None


def outcome(load, path):
    """What ``load`` makes of ``path``: its sequences, or its DataError."""
    try:
        return load(path)
    except DataError as e:
        return e


def assert_same_sequences(got, want):
    """Bit for bit: ids, arrays with their dtypes (NaN payloads included),
    labels, frame rate and pitch, in the same order."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g.seq_id) is type(w.seq_id) and g.seq_id == w.seq_id
        for name in ("positions", "agent_types", "validity"):
            a, b = getattr(g, name), getattr(w, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        if w.states is None:
            assert g.states is None
        else:
            assert g.states.dtype == w.states.dtype
            assert g.states.tobytes() == w.states.tobytes()
        assert (g.frame_rate_hz, g.pitch) == (w.frame_rate_hz, w.pitch)


def assert_matches_reference(path):
    """``load_sequences`` and the row-by-row reference give bit-identical
    sequences, or DataErrors with equal messages."""
    got = outcome(load_sequences, path)
    want = outcome(reference_load_sequences, path)
    if isinstance(want, DataError):
        assert isinstance(got, DataError), "loads what the reference rejects"
        assert str(got) == str(want)
    else:
        assert not isinstance(got, DataError), str(got)
        assert_same_sequences(got, want)


def small_sequence(seed=0, T=6, n_per_team=2, states=True):
    seqs = generate_possession_game(1, max(T, 8), n_per_team, rng_seed=seed)
    seq = seqs[0]
    if not states:
        seq.states = None
    return seq


class TestNormalization:
    def test_center_maps_to_origin(self):
        pitch = PitchSpec(100.0, 60.0)
        out = normalize(np.array([[50.0, 30.0]]), pitch)
        np.testing.assert_allclose(out, [[0.0, 0.0]])

    def test_corner_maps_to_ones(self):
        pitch = PitchSpec(100.0, 60.0)
        out = normalize(np.array([[100.0, 60.0]]), pitch)
        np.testing.assert_allclose(out, [[1.0, 1.0]])

    def test_round_trip(self):
        pitch = PitchSpec()
        pos = np.random.default_rng(0).uniform(-10, 120, size=(30, 5, 2))
        back = denormalize(normalize(pos, pitch), pitch)
        assert np.abs(back - pos).max() < 1e-12


class TestCsvRoundTrip:
    def test_save_load_equality(self, tmp_path):
        seqs = generate_possession_game(3, 12, 2, rng_seed=1)
        path = tmp_path / "game.csv"
        save_sequences(seqs, path)
        loaded = load_sequences(path)
        assert len(loaded) == 3
        for a, b in zip(seqs, loaded):
            assert np.abs(a.positions - b.positions).max() < 5e-7
            np.testing.assert_array_equal(a.agent_types, b.agent_types)
            np.testing.assert_array_equal(a.states, b.states)
            np.testing.assert_array_equal(a.validity, b.validity)
            assert b.frame_rate_hz == a.frame_rate_hz
            assert b.pitch == a.pitch

    def test_double_round_trip_is_fixed_point(self, tmp_path):
        seqs = generate_possession_game(1, 10, 2, rng_seed=2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_sequences(seqs, p1)
        once = load_sequences(p1)
        save_sequences(once, p2)
        twice = load_sequences(p2)
        np.testing.assert_array_equal(once[0].positions, twice[0].positions)

    def test_invalid_rows_load_as_nan(self, tmp_path):
        seq = small_sequence(seed=3)
        seq.validity[2, 1] = 0
        seq.positions[2, 1] = np.nan
        path = tmp_path / "gap.csv"
        save_sequences([seq], path)
        loaded = load_sequences(path)[0]
        assert loaded.validity[2, 1] == 0
        assert np.isnan(loaded.positions[2, 1]).all()

    def test_unlabeled_states_stay_absent(self, tmp_path):
        seq = small_sequence(seed=4, states=False)
        path = tmp_path / "nolabel.csv"
        save_sequences([seq], path)
        assert load_sequences(path)[0].states is None

    def test_agent_order_standardized_on_load(self, tmp_path):
        seq = small_sequence(seed=5)
        shuffled = TrajectorySequence(
            seq_id=0, positions=seq.positions[:, ::-1],
            agent_types=seq.agent_types[::-1], states=seq.states,
            validity=seq.validity[:, ::-1],
            frame_rate_hz=seq.frame_rate_hz, pitch=seq.pitch)
        path = tmp_path / "shuffled.csv"
        save_sequences([shuffled], path)
        loaded = load_sequences(path)[0]
        assert loaded.agent_types[0] == 0
        assert (np.diff(loaded.agent_types) >= 0).all()
        np.testing.assert_allclose(loaded.positions[:, 0],
                                   seq.positions[:, 0], atol=5e-7)


def gapped(seq, seed):
    """``seq`` with a few player stretches absent: NaN positions, valid=0."""
    rng = np.random.default_rng(seed)
    pos, valid = seq.positions.copy(), seq.validity.copy()
    for _ in range(3):
        agent, start = int(rng.integers(1, seq.N)), int(rng.integers(0, seq.T))
        pos[start:start + 4, agent] = np.nan
        valid[start:start + 4, agent] = 0
    return TrajectorySequence(seq_id=seq.seq_id, positions=pos,
                              agent_types=seq.agent_types, states=seq.states,
                              validity=valid)


def writer_cases():
    games = generate_possession_game(3, 12, 2, rng_seed=21)
    unlabeled = generate_possession_game(2, 9, 3, rng_seed=22)
    for s in unlabeled:
        s.states = None
    odd = small_sequence(seed=23)
    odd.positions[0, :3] = [[-0.0, -1e-9], [1e6, -0.0], [-1e-9, 1e6]]
    odd.validity[1, 2] = 0            # absent, yet with a finite position
    odd.positions[2, 1] = [np.inf, 3.0]  # one non-finite coordinate
    odd.validity[2, 1] = 0
    return {"games": games, "gapped": [gapped(s, i) for i, s in
                                       enumerate(games)],
            "unlabeled": unlabeled, "edge values": [odd],
            "numpy ids": [TrajectorySequence(
                seq_id=np.int64(7), positions=odd.positions,
                agent_types=odd.agent_types, states=odd.states,
                validity=odd.validity)]}


class TestColumnarWriter:
    @pytest.mark.parametrize("case", list(writer_cases()))
    def test_bytes_match_the_reference_writer(self, tmp_path, case):
        seqs = writer_cases()[case]
        save_sequences(seqs, tmp_path / "new.csv")
        reference_save_sequences(seqs, tmp_path / "ref.csv")
        for suffix in ("", ".meta.json"):
            assert (tmp_path / f"new.csv{suffix}").read_bytes() \
                == (tmp_path / f"ref.csv{suffix}").read_bytes(), suffix
        assert_matches_reference(tmp_path / "new.csv")

    def test_duplicate_seq_id_is_refused_before_writing(self, tmp_path):
        a, b = generate_possession_game(2, 8, 2, rng_seed=24)
        b.seq_id = a.seq_id = 0
        path = tmp_path / "dup.csv"
        with pytest.raises(DataError,
                           match=r"dup\.csv: seq_id 0 is used by 2 sequences"):
            save_sequences([a, b], path)
        assert list(tmp_path.iterdir()) == []

    # (file, write): the CSV's third write (its second sequence, after the
    # header and the first), or the sidecar's only write; the second save
    # has another frame rate, so its sidecar differs and is written too
    @pytest.mark.parametrize("failing", [(0, 2), (1, 0)])
    def test_failed_save_keeps_the_previous_files(self, tmp_path,
                                                  monkeypatch, failing):
        path = tmp_path / "game.csv"
        save_sequences(generate_possession_game(2, 8, 2, rng_seed=25), path)
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        files = []

        def open_failing_part_way(*args, **kwargs):
            fh = open(*args, **kwargs)
            write, writes, number = fh.write, [], len(files)
            files.append(fh)

            def failing_write(text):
                if (number, len(writes)) == failing:
                    raise OSError("disk full")
                writes.append(text)
                return write(text)

            fh.write = failing_write
            return fh

        monkeypatch.setattr(data_mod, "open", open_failing_part_way,
                            raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_sequences(generate_possession_game(3, 9, 2, frame_rate=25.0,
                                                    rng_seed=26), path)
        monkeypatch.undo()
        assert len(files) == failing[0] + 1  # the sidecar opens after the CSV
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before
        assert len(load_sequences(path)) == 2

    def test_unchanged_sidecar_is_left_in_place(self, tmp_path):
        path = tmp_path / "game.csv"
        meta = tmp_path / "game.csv.meta.json"
        save_sequences(generate_possession_game(2, 8, 2, rng_seed=27), path)
        inode = meta.stat().st_ino
        save_sequences(generate_possession_game(3, 9, 2, rng_seed=28), path)
        assert meta.stat().st_ino == inode
        assert len(load_sequences(path)) == 3
        meta.write_text("{}")  # a stale or foreign sidecar is replaced
        save_sequences(generate_possession_game(1, 9, 2, frame_rate=25.0,
                                                rng_seed=29), path)
        assert meta.stat().st_ino != inode
        assert load_sequences(path)[0].frame_rate_hz == 25.0
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "game.csv", "game.csv.meta.json"]

    def test_atomic_write_removes_its_temporary_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("previous")
        with pytest.raises(RuntimeError):
            with atomic_write(path) as fh:
                fh.write("partial")
                raise RuntimeError("interrupted")
        assert [f.name for f in tmp_path.iterdir()] == ["out.txt"]
        assert path.read_text() == "previous"
        with atomic_write(path) as fh:
            fh.write("new")
        assert [f.name for f in tmp_path.iterdir()] == ["out.txt"]
        assert path.read_text() == "new"


class TestCsvSchemaErrors:
    def header(self):
        return "seq_id,frame,agent_id,agent_type,x,y,valid,state"

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("foo,bar\n")
        with pytest.raises(DataError, match="line 1"):
            load_sequences(p)

    def test_bad_field_count(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(self.header() + "\n0,0,0,0,1.0,2.0\n")
        with pytest.raises(DataError, match="line 2"):
            load_sequences(p)

    def test_bad_agent_type(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(self.header() + "\n0,0,0,9,1.0,2.0,1,\n")
        with pytest.raises(DataError, match="line 2"):
            load_sequences(p)

    def test_valid_row_with_empty_position(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(self.header() + "\n0,0,0,0,,,1,\n")
        with pytest.raises(DataError, match="line 2"):
            load_sequences(p)

    def test_missing_frame_coverage(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(self.header()
                     + "\n0,0,0,0,1.0,2.0,1,\n0,1,0,0,1.0,2.0,1,\n"
                     + "0,0,1,1,3.0,4.0,1,\n")
        with pytest.raises(DataError, match="missing entry"):
            load_sequences(p)

    def test_duplicate_entry(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(self.header()
                     + "\n0,0,0,0,1.0,2.0,1,\n0,0,0,0,1.0,2.0,1,\n")
        with pytest.raises(DataError, match="duplicate"):
            load_sequences(p)

    @pytest.mark.parametrize("column", [1, 2])  # frame, agent_id
    @pytest.mark.parametrize("value", ["1000000000000",
                                       "9223372036854775807",
                                       "99999999999999999999",
                                       "-99999999999999999999"])
    def test_huge_ids_raise_the_coverage_error(self, tmp_path, column, value):
        rows = valid_rows()
        rows[3][column] = value
        p = tmp_path / "huge.csv"
        write_rows(p, rows)
        with pytest.raises(DataError, match="sequence 0: (frames|agent ids) "
                                            "must cover") as caught:
            load_sequences(p)
        assert str(caught.value) == str(outcome(reference_load_sequences, p))

    def test_bad_state_value(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(self.header() + "\n0,0,0,0,1.0,2.0,1,9\n")
        with pytest.raises(DataError, match="line 2"):
            load_sequences(p)


CSV_HEADER = b"seq_id,frame,agent_id,agent_type,x,y,valid,state\n"


def write_rows(path, rows):
    """A CSV of the header and ``rows`` (lists of cells), as UTF-8."""
    body = "".join(",".join(r) + "\n" for r in rows)
    path.write_bytes(CSV_HEADER + body.encode("utf-8"))


class TestMalformedFiles:

    def test_non_utf8_byte_names_its_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_bytes(CSV_HEADER + b"0,0,0,0,1.0,2.0,1,\n"
                      b"0,1,0,0,1.0,\x802.0,1,\n")
        with pytest.raises(DataError, match=r"bad\.csv: line 3: not UTF-8"):
            load_sequences(p)

    def test_oversized_field_names_its_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_bytes(CSV_HEADER + b"0,0,0,0," + b"1" * 200_000 + b",2,1,\n")
        with pytest.raises(DataError, match="line 2"):
            load_sequences(p)

    def test_line_numbers_count_lines_inside_quoted_cells(self, tmp_path):
        # the state cell of line 2 holds a line break, so the bad agent type
        # sits on line 4 of the file, in its third record
        p = tmp_path / "bad.csv"
        p.write_bytes(CSV_HEADER + b'0,0,0,0,1,2,1,"1\n"\n0,0,1,9,3,4,1,\n')
        with pytest.raises(DataError, match="line 4: agent_type"):
            load_sequences(p)

    def test_sequence_fault_names_the_sequence(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_bytes(CSV_HEADER + b"4,0,0,0,1,2,1,\n4,0,1,0,3,4,1,\n")
        with pytest.raises(DataError,
                           match=r"bad\.csv: sequence 4: at most one ball"):
            load_sequences(p)

    @pytest.mark.parametrize("sidecar", [
        "{", "[]", '{"frame_rate_hz": 6.25}',
        '{"frame_rate_hz": 6.25, "pitch": {"length": 1, "depth": 2}}',
        '{"frame_rate_hz": "fast", "pitch": {}}',
        '{"frame_rate_hz": 6.25, "pitch": {"length": -1}}',
        '{"frame_rate_hz": 6.25, "pitch": {"length": Infinity}}',
        '{"frame_rate_hz": 6.25, "pitch": {"width": NaN}}',
        '{"frame_rate_hz": -6.25, "pitch": {}}',
        '{"frame_rate_hz": 0, "pitch": {}}',
        '{"frame_rate_hz": NaN, "pitch": {}}',
        '{"frame_rate_hz": Infinity, "pitch": {}}',
    ])
    def test_bad_sidecar_is_named(self, tmp_path, sidecar):
        p = tmp_path / "game.csv"
        save_sequences([small_sequence()], p)
        (tmp_path / "game.csv.meta.json").write_text(sidecar)
        with pytest.raises(DataError, match=r"game\.csv\.meta\.json"):
            load_sequences(p)


# Cells that parse in surprising ways: empty, signs, spaces, NaN/inf,
# overflowing floats, other digit scripts, quotes and separators.
EDGE_CELLS = ["", "0", "1", "2", "3", "4", "-1", "-0", " 1", "1 ", "01",
              "1_0", "1.0", "1e3", "nan", "NaN", "inf", "-inf", "1e309",
              "-1e309", "0x1", "\uff11", "\u0661", "\u00e9", '"1"', '"', "a",
              "1,0", "\r", "\x00", "99999999999999999999"]


def valid_rows():
    """Data rows of a valid two-frame, two-agent file, as cell lists."""
    return [[str(c) for c in row] for row in (
        (0, 0, 0, 0, 1.0, 2.0, 1, 1), (0, 0, 1, 1, 3.0, 4.0, 1, 1),
        (0, 1, 0, 0, 1.5, 2.5, 1, 1), (0, 1, 1, 1, "", "", 0, 1))]


def assert_loads_or_names_where(path):
    """Loading yields sequences, or a DataError that names the file and the
    line (or, for whole-sequence faults, the sequence) it concerns."""
    try:
        seqs = load_sequences(path)
    except DataError as e:
        assert re.match(re.escape(str(path)) + r": (line \d+|sequence -?\d+): ",
                        str(e)), str(e)
    else:
        assert all(isinstance(s, TrajectorySequence) for s in seqs)


@st.composite
def shuffled_sequence_files(draw):
    """Data rows of one to three sequences in shuffled order (state labels
    per frame, absent, or drawn per row), with cells of up to two rows
    replaced, perhaps a quoted cell that spans two lines and perhaps a
    row of the wrong length, as CSV text."""
    rows = []
    ids = draw(st.lists(st.sampled_from(["0", "1", "7", "-0", " 2", "1_0"]),
                        min_size=1, max_size=3, unique=True))
    for seq_id in ids:
        T, N = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        types = draw(st.lists(st.sampled_from("0112"), min_size=N,
                              max_size=N))
        labels = draw(st.sampled_from(["none", "per frame", "per row"]))
        for t in range(T):
            state = "" if labels == "none" else str(draw(st.integers(0, 3)))
            for n in range(N):
                if labels == "per row":
                    state = draw(st.sampled_from(["", "0", "1"]))
                valid = draw(st.sampled_from("01"))
                xy = ["1.5", "-2.25"] if valid == "1" or draw(st.booleans()) \
                    else ["", ""]
                rows.append([seq_id, str(t), str(n), types[n], *xy, valid,
                             state])
    rows = [list(r) for r in draw(st.permutations(rows))]
    for _ in range(draw(st.integers(0, 2))):  # rows with 1-3 cells replaced
        r = draw(st.integers(0, len(rows) - 1))
        for c in draw(st.lists(st.integers(0, 7), min_size=1, max_size=3)):
            rows[r][c] = draw(st.sampled_from(EDGE_CELLS))
    if draw(st.booleans()):
        r = draw(st.integers(0, len(rows) - 1))
        rows[r][7] = '"' + rows[r][7] + '\n"'
    lines = [",".join(r) for r in rows]
    if draw(st.booleans()):
        short = ",".join(draw(st.sampled_from(rows))[:draw(st.integers(0, 7))])
        lines.insert(draw(st.integers(0, len(lines))), short)
    return "".join(line + "\n" for line in lines)


class TestLoaderFuzz:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(body=st.binary(max_size=200))
    def test_arbitrary_bytes(self, tmp_path_factory, body):
        p = tmp_path_factory.getbasetemp() / "fuzz.csv"
        p.write_bytes(CSV_HEADER + body)
        assert_loads_or_names_where(p)
        assert_matches_reference(p)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(rows=st.lists(st.one_of(
        st.lists(st.sampled_from(EDGE_CELLS), min_size=8, max_size=8),
        st.lists(st.sampled_from(EDGE_CELLS), max_size=10)), max_size=6))
    def test_rows_of_edge_cells(self, tmp_path_factory, rows):
        p = tmp_path_factory.getbasetemp() / "fuzz.csv"
        write_rows(p, rows)
        assert_loads_or_names_where(p)
        assert_matches_reference(p)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(edits=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 7),
                                    st.sampled_from(EDGE_CELLS)),
                          min_size=1, max_size=3))
    def test_valid_file_with_edited_cells(self, tmp_path_factory, edits):
        rows = valid_rows()
        for r, c, cell in edits:
            rows[r][c] = cell
        p = tmp_path_factory.getbasetemp() / "fuzz.csv"
        write_rows(p, rows)
        assert_loads_or_names_where(p)
        assert_matches_reference(p)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(text=shuffled_sequence_files())
    def test_shuffled_sequences_with_faults(self, tmp_path_factory, text):
        p = tmp_path_factory.getbasetemp() / "fuzz.csv"
        p.write_bytes(CSV_HEADER + text.encode("utf-8"))
        assert_loads_or_names_where(p)
        assert_matches_reference(p)

    def test_rows_breaking_several_rules(self, tmp_path):
        """On a row that breaks several rules, the first in row order is
        named, for every mix of these cells."""
        p = tmp_path / "f.csv"
        for row in itertools.product(["0", "a"], ["0"], ["0"],
                                     ["0", "9", "a"], ["1", "", "inf", "a"],
                                     ["2", "", "a"], ["1", "0", "x"],
                                     ["", "1", "9", "x"]):
            write_rows(p, [list(row)])
            assert_matches_reference(p)

    def test_valid_rows_load(self, tmp_path):
        p = tmp_path / "f.csv"
        write_rows(p, valid_rows())
        (seq,) = load_sequences(p)
        assert seq.positions.shape == (2, 2, 2)
        assert np.isnan(seq.positions[1, 1]).all()


class TestPossessionGenerator:
    def test_determinism(self):
        a = generate_possession_game(2, 30, 3, rng_seed=9)
        b = generate_possession_game(2, 30, 3, rng_seed=9)
        for s1, s2 in zip(a, b):
            np.testing.assert_array_equal(s1.positions, s2.positions)
            np.testing.assert_array_equal(s1.states, s2.states)

    def test_label_guarantees_hold(self):
        for seq in generate_possession_game(6, 50, 5, rng_seed=10):
            check_sequence_labels(seq)  # raises on violation
            assert PASS in seq.states and POSSESSION in seq.states

    def test_out_of_play_matches_geometry(self):
        found_out = False
        for seq in generate_possession_game(12, 60, 3, rng_seed=11):
            ball = seq.positions[:, 0]
            outside = ((ball[:, 0] < 0) | (ball[:, 0] > seq.pitch.length)
                       | (ball[:, 1] < 0) | (ball[:, 1] > seq.pitch.width))
            np.testing.assert_array_equal(seq.states == OUT_OF_PLAY, outside)
            found_out = found_out or outside.any()
        assert found_out  # the corpus exercises the out-of-play path

    def test_pass_faster_than_carrier(self):
        for seq in generate_possession_game(4, 40, 4, rng_seed=12):
            dt = 1.0 / seq.frame_rate_hz
            speeds = np.linalg.norm(np.diff(seq.positions, axis=0),
                                    axis=-1) / dt
            for t in np.flatnonzero(seq.states == PASS):
                if t == 0:
                    continue
                assert speeds[t - 1, 0] > speeds[t - 1, 1:].max() * 0.99

    def test_shapes_and_types(self):
        seq = generate_possession_game(1, 25, 4, rng_seed=13)[0]
        assert seq.positions.shape == (25, 9, 2)
        assert (seq.agent_types == [0, 1, 1, 1, 1, 2, 2, 2, 2]).all()
        assert seq.validity.all()

    def test_preconditions(self):
        with pytest.raises(ConfigError):
            generate_possession_game(1, 50, 1)
        with pytest.raises(ConfigError):
            generate_possession_game(1, 4, 3)


class TestVelocityBaseline:
    def test_exact_on_constant_velocity(self):
        for seq in generate_constant_velocity(3, 30, 3, rng_seed=14):
            m = build_forecasting_mask(30, 10, list(range(seq.N)), seq.N)
            x_hat = velocity_baseline(seq.positions, m)
            err = np.linalg.norm((x_hat - seq.positions)[m.entries == 1],
                                 axis=-1)
            assert err.max() < 1e-9

    def test_linear_projection_example(self):
        pos = np.zeros((5, 1, 2))
        pos[:, 0, 0] = [0.0, 1.0, 0.0, 0.0, 0.0]
        m = ObservationMask(np.array([[0], [0], [1], [1], [1]]))
        x_hat = velocity_baseline(pos, m)
        np.testing.assert_allclose(x_hat[2:, 0, 0], [2.0, 3.0, 4.0])
        np.testing.assert_allclose(x_hat[2:, 0, 1], 0.0)

    def test_stationary_agent_held(self):
        pos = np.ones((4, 1, 2)) * 3.0
        m = ObservationMask(np.array([[0], [0], [1], [1]]))
        x_hat = velocity_baseline(pos, m)
        np.testing.assert_array_equal(x_hat[2:], pos[2:])

    def test_single_visible_frame_holds(self):
        pos = np.zeros((3, 1, 2))
        pos[0, 0] = [5.0, 7.0]
        m = ObservationMask(np.array([[0], [1], [1]]))
        x_hat = velocity_baseline(pos, m)
        np.testing.assert_array_equal(x_hat[1], [[5.0, 7.0]])
        np.testing.assert_array_equal(x_hat[2], [[5.0, 7.0]])

    def test_imputation_gap_extrapolates_from_left_edge(self):
        pos = np.zeros((7, 1, 2))
        pos[:, 0, 0] = [0.0, 1.0, 2.0, 0.0, 0.0, 5.0, 6.0]
        m = ObservationMask(np.array([0, 0, 0, 1, 1, 0, 0])[:, None])
        x_hat = velocity_baseline(pos, m)
        np.testing.assert_allclose(x_hat[3:5, 0, 0], [3.0, 4.0])

    def test_leading_gap_holds_next_visible(self):
        pos = np.zeros((4, 1, 2))
        pos[:, 0, 0] = [9.0, 9.0, 2.0, 3.0]
        m = ObservationMask(np.array([1, 1, 0, 0])[:, None])
        x_hat = velocity_baseline(pos, m)
        np.testing.assert_allclose(x_hat[:2, 0, 0], [2.0, 2.0])


class TestSplit:
    def test_ratio_counts(self):
        split = split_dataset(list(range(100)), (0.8, 0.1, 0.1), seed=15)
        assert (len(split.train), len(split.val), len(split.test)) \
            == (80, 10, 10)
        combined = sorted(split.train + split.val + split.test)
        assert combined == list(range(100))

    def test_seed_determinism(self):
        a = split_dataset(list(range(50)), (0.6, 0.2, 0.2), seed=16)
        b = split_dataset(list(range(50)), (0.6, 0.2, 0.2), seed=16)
        assert a == b

    def test_bad_ratios_rejected(self):
        for ratios in ((0.5, 0.2, 0.2), (0.5, 0.5, -1e-6), (0.6, 0.5, -0.1)):
            with pytest.raises(ConfigError):
                split_dataset(list(range(10)), ratios, seed=18)

    @pytest.mark.parametrize("tenths", range(1, 10))
    def test_train_and_val_shares_summing_to_one(self, tenths):
        # the test share as ``settraj train`` forms it: 1 - 0.8 - 0.2 is
        # -5.6e-17, a rounding residue that reads as 0
        t, v = float(f"0.{tenths}"), float(f"0.{10 - tenths}")
        split = split_dataset(list(range(20)), (t, v, 1.0 - t - v), seed=19)
        order = np.random.default_rng(19).permutation(20).tolist()
        assert split.train == sorted(order[:2 * tenths])
        assert split.val == sorted(order[2 * tenths:])
        assert split.test == []


class TestSequenceValidation:
    def test_two_balls_rejected(self):
        with pytest.raises(DataError):
            TrajectorySequence(seq_id=0, positions=np.zeros((3, 2, 2)),
                               agent_types=[0, 0], states=None)

    def test_nonfinite_valid_position_rejected(self):
        pos = np.zeros((3, 2, 2))
        pos[1, 1, 0] = np.nan
        with pytest.raises(DataError):
            TrajectorySequence(seq_id=0, positions=pos, agent_types=[0, 1],
                               states=None)

    @pytest.mark.parametrize("value,message", [
        (2, "validity must lie in 0..1"), (256, "validity must lie in 0..1"),
        (-1, "validity must lie in 0..1"), (0.5, "validity must be whole"),
        (np.nan, "validity must be whole")])
    def test_validity_outside_zero_one_rejected(self, value, message):
        validity = np.ones((3, 2))
        validity[1, 1] = value
        with pytest.raises(DataError, match=message):
            TrajectorySequence(seq_id=0, positions=np.zeros((3, 2, 2)),
                               agent_types=[0, 1], states=None,
                               validity=validity)

    def test_nan_position_with_validity_two_rejected(self):
        pos = np.zeros((3, 2, 2))
        pos[1, 1] = np.nan
        validity = np.ones((3, 2), dtype=np.int64)
        validity[1, 1] = 2
        with pytest.raises(DataError, match="validity must lie in 0..1"):
            TrajectorySequence(seq_id=0, positions=pos, agent_types=[0, 1],
                               states=None, validity=validity)

    @pytest.mark.parametrize("types", [[0, 0.5], [1.5, 2], [0, np.nan],
                                       [np.inf, 1]])
    def test_fractional_agent_types_rejected(self, types):
        with pytest.raises(DataError,
                           match="agent types must be whole numbers"):
            TrajectorySequence(seq_id=0, positions=np.zeros((3, 2, 2)),
                               agent_types=types, states=None)

    @pytest.mark.parametrize("states", [[0, 1.7, 1], [0.5, 1, 1],
                                        [0, 1, np.nan]])
    def test_fractional_states_rejected(self, states):
        with pytest.raises(DataError, match="states must be whole numbers"):
            TrajectorySequence(seq_id=0, positions=np.zeros((3, 2, 2)),
                               agent_types=[0, 1], states=states)

    @pytest.mark.parametrize("rate", [-6.25, 0, np.nan, np.inf])
    def test_bad_frame_rate_rejected(self, rate):
        with pytest.raises(DataError, match="is not a positive rate"):
            TrajectorySequence(seq_id=0, positions=np.zeros((3, 2, 2)),
                               agent_types=[0, 1], states=None,
                               frame_rate_hz=rate)

    def test_whole_float_and_bool_inputs_accepted(self):
        seq = TrajectorySequence(
            seq_id=0, positions=np.zeros((3, 2, 2)),
            agent_types=np.array([0.0, 2.0]), states=[3.0, 0.0, 1.0],
            validity=np.array([[True, False]] * 3))
        assert seq.agent_types.dtype == np.int64
        assert seq.agent_types.tolist() == [0, 2]
        assert seq.states.dtype == np.int64
        assert seq.states.tolist() == [3, 0, 1]
        assert seq.validity.dtype == np.int8
        assert seq.validity.tolist() == [[1, 0]] * 3

    @pytest.mark.parametrize("types,states,message", [
        ([0, 3], None, r"agent types must lie in 0..2 \('ball', 'offense'"),
        ([-1, 1], None, "agent types must lie in 0..2"),
        ([0, 1], [0, 4, 1], r"states must lie in 0..3 \('pass', 'possession'"),
        ([0, 1], [0, -1, 1], "states must lie in 0..3"),
        ([0, 1, 1], None, r"agent types must have shape \(2,\), got \(3,\)"),
        ([0, 1], [0, 1], r"states must have shape \(3,\), got \(2,\)"),
    ])
    def test_whole_values_out_of_range_rejected(self, types, states, message):
        with pytest.raises(DataError, match=message):
            TrajectorySequence(seq_id=0, positions=np.zeros((3, 2, 2)),
                               agent_types=types, states=states)

    def test_inputs_channels(self):
        seq = small_sequence(seed=19)
        x3 = seq.inputs(channels=3)
        assert x3.shape == (seq.T, seq.N, 3)
        assert set(np.unique(x3[..., 2])) == {0.0, 1.0, 2.0}
        x2 = seq.inputs(channels=2)
        assert x2.shape == (seq.T, seq.N, 2)
        assert np.abs(x2).max() <= 1.5  # normalized coordinates
