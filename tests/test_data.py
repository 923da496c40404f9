"""Dataset schema, CSV round-trips, normalization, generator, baseline."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from settraj.data import (
    PitchSpec,
    TrajectorySequence,
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


class TestLoaderFuzz:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(body=st.binary(max_size=200))
    def test_arbitrary_bytes(self, tmp_path_factory, body):
        p = tmp_path_factory.getbasetemp() / "fuzz.csv"
        p.write_bytes(CSV_HEADER + body)
        assert_loads_or_names_where(p)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(rows=st.lists(st.one_of(
        st.lists(st.sampled_from(EDGE_CELLS), min_size=8, max_size=8),
        st.lists(st.sampled_from(EDGE_CELLS), max_size=10)), max_size=6))
    def test_rows_of_edge_cells(self, tmp_path_factory, rows):
        p = tmp_path_factory.getbasetemp() / "fuzz.csv"
        write_rows(p, rows)
        assert_loads_or_names_where(p)

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

    def test_groups_do_not_straddle(self):
        groups = [i // 5 for i in range(60)]
        split = split_dataset(list(range(60)), (0.5, 0.25, 0.25), seed=17,
                              group_keys=groups)
        for part in (split.train, split.val, split.test):
            for other in (split.train, split.val, split.test):
                if part is other:
                    continue
                shared = {groups[i] for i in part} & {groups[i] for i in other}
                assert not shared

    def test_bad_ratios_rejected(self):
        with pytest.raises(ConfigError):
            split_dataset(list(range(10)), (0.5, 0.2, 0.2), seed=18)


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

    def test_inputs_channels(self):
        seq = small_sequence(seed=19)
        x3 = seq.inputs(channels=3)
        assert x3.shape == (seq.T, seq.N, 3)
        assert set(np.unique(x3[..., 2])) == {0.0, 1.0, 2.0}
        x2 = seq.inputs(channels=2)
        assert x2.shape == (seq.T, seq.N, 2)
        assert np.abs(x2).max() <= 1.5  # normalized coordinates
