"""The array-at-a-time scoring path against the per-agent code it replaced.

``velocity_baseline``, ``fde_metric``, ``max_err_metric`` and
``validate_task`` once looped over agents, and the 0/1 and agent-type checks
used ``np.isin``. Those versions live on here as references: on every
generated mask the library must give byte-identical arrays, equal floats,
equal agent counts and labels, or the same error with the same message.

The metric loop once graded each sequence with three calls, each of which
took the slot roles and the distances again, and gave every sequence a
random stream whether its task mask drew from it or not. That loop lives on
here too, as the reference for ``harness._score``.

Scoring now takes the slot roles once per sequence. The checks it leans on
once were a broadcast comparison for the agent groups, two comparisons for
every 0/1 mask and ``np.linalg.norm`` for the distances; they live on here
as references for ``resolve_agents``, ``_as_binary`` and ``_distances``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from settraj.attention import masked_attention
from settraj import data, harness, masking, model, objectives
from settraj.data import (BALL, TrajectorySequence,
                          generate_possession_game, velocity_baseline)
from settraj.errors import DataError, EmptyMaskError, TaskViolationError
from settraj.harness import TaskSpec
from settraj.masking import (
    ObservationMask,
    _as_binary,
    nan_entries,
    slot_roles,
    validate_task,
)
from settraj.model import ModelConfig, embed_inputs, init_params
from settraj.objectives import (
    MetricReport,
    _distances,
    accuracy_metric,
    ade_metric,
    confusion_matrix,
    fde_metric,
    max_err_metric,
)
from settraj.tensor import DiffTensor

# ---------------------------------------------------------------------------
# per-agent references, as the library had them
# ---------------------------------------------------------------------------


def reference_velocity_baseline(x_partial, m, nan_mask=None):
    x = np.asarray(x_partial, dtype=np.float64)
    T, N = m.entries.shape
    nan = nan_entries(nan_mask, (T, N))
    visible = (m.entries == 0) & (nan == 0)
    x_hat = np.where(visible[..., None], x, 0.0)
    for n in range(N):
        hidden_ts = np.flatnonzero(~visible[:, n])
        if hidden_ts.size == 0:
            continue
        runs = np.split(hidden_ts, np.flatnonzero(np.diff(hidden_ts) > 1) + 1)
        for run in runs:
            a = int(run[0])
            if a >= 2 and visible[a - 1, n] and visible[a - 2, n]:
                v = x[a - 1, n] - x[a - 2, n]
                steps = (run - a + 1)[:, None]
                x_hat[run, n] = x[a - 1, n] + steps * v
            elif a >= 1 and visible[a - 1, n]:
                x_hat[run, n] = x[a - 1, n]
            else:
                later = np.flatnonzero(visible[:, n])
                x_hat[run, n] = x[later[0], n] if later.size else 0.0
    return x_hat


def reference_ade_metric(x_hat, x, m, nan_mask=None):
    sel = slot_roles(m, nan_mask)[2]
    if not sel.any():
        raise EmptyMaskError("no hidden slots to evaluate")
    return float(_distances(x_hat, x)[sel].mean())


def reference_fde_metric(x_hat, x, m, nan_mask=None):
    sel = slot_roles(m, nan_mask)[2]
    dist = _distances(x_hat, x)
    finals = []
    for n in range(sel.shape[1]):
        ts = np.flatnonzero(sel[:, n])
        if ts.size:
            finals.append(dist[ts[-1], n])
    if not finals:
        raise EmptyMaskError("no agent has a hidden slot")
    return float(np.mean(finals))


def reference_max_err_metric(x_hat, x, m, nan_mask=None):
    sel = slot_roles(m, nan_mask)[2]
    dist = _distances(x_hat, x)
    maxima = []
    for n in range(sel.shape[1]):
        if sel[:, n].any():
            maxima.append(dist[sel[:, n], n].max())
    if not maxima:
        raise EmptyMaskError("D = 0: no agent has a hidden slot")
    return float(np.mean(maxima)), len(maxima)


def reference_validate_task(m):
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


def reference_score(seqs, task, seed, predict):
    if not seqs:
        raise DataError("evaluation needs at least one sequence")
    masks = [task.build_mask(s, np.random.default_rng([seed, 0, 2, i]))
             for i, s in enumerate(seqs)]
    ades, fdes, maxes, accs = [], [], [], []
    d_total = 0
    cm = None
    all_forecasting = all(validate_task(m) == "forecasting" for m in masks)
    for seq, m in zip(seqs, masks):
        nan = seq.nan_mask()
        traj, scores = predict(seq, m, nan)
        try:
            ades.append(reference_ade_metric(traj, seq.positions, m, nan))
        except EmptyMaskError:
            continue
        mx, d = reference_max_err_metric(traj, seq.positions, m, nan)
        maxes.append(mx)
        d_total += d
        if all_forecasting:
            fdes.append(reference_fde_metric(traj, seq.positions, m, nan))
        if scores is not None:
            truth = seq.one_hot_states(scores.shape[-1])
            accs.append(accuracy_metric(truth, scores))
            step_cm = confusion_matrix(truth, scores, scores.shape[-1])
            cm = step_cm if cm is None else cm + step_cm
    if not ades:
        raise EmptyMaskError("no sequence has a target slot to evaluate")
    report = MetricReport(
        ade=float(np.mean(ades)),
        fde=float(np.mean(fdes)) if fdes else None,
        max_err=float(np.mean(maxes)),
        acc=float(np.mean(accs)) if accs else None,
        d_count=d_total,
    )
    return report, cm


def outcome(fn, *args):
    """What ``fn`` makes of ``args``: its result, or the error it raised."""
    try:
        return fn(*args)
    except Exception as e:  # noqa: BLE001 - the error is the outcome
        return e


def assert_same_outcome(got, want):
    """Equal floats (bit for bit, NaN included), ints and strings, or errors
    of the same type with the same message."""
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want), got
        return
    assert not isinstance(got, Exception), repr(got)
    if isinstance(want, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_outcome(g, w)
        return
    assert type(got) is type(want) and repr(got) == repr(want)


# ---------------------------------------------------------------------------
# generated masks: NaN gaps, leading runs, single visible frames, fully
# hidden agents, T = 1
# ---------------------------------------------------------------------------

VISIBLE, HIDDEN, ABSENT, HIDDEN_ABSENT = range(4)


@st.composite
def agent_column(draw, T):
    """One agent's slot kinds over T frames."""
    kind = draw(st.sampled_from(["runs", "suffix", "hidden", "visible",
                                 "one visible"]))
    if kind == "suffix":
        t_hat = draw(st.integers(0, T))
        return [VISIBLE] * t_hat + [HIDDEN] * (T - t_hat)
    if kind == "hidden":
        return [HIDDEN] * T
    if kind == "visible":
        return [VISIBLE] * T
    if kind == "one visible":
        col = [HIDDEN] * T
        col[draw(st.integers(0, T - 1))] = VISIBLE
        return col
    col = []
    while len(col) < T:
        slot = draw(st.sampled_from([VISIBLE, VISIBLE, HIDDEN, HIDDEN, ABSENT,
                                     HIDDEN_ABSENT]))
        col += [slot] * draw(st.integers(1, 4))
    return col[:T]


@st.composite
def scored_sequences(draw):
    """(prediction, positions, mask, NaN mask) in the layout ``_score``
    hands the metrics: positions are NaN where the NaN mask is set."""
    T = draw(st.integers(1, 12))
    N = draw(st.integers(1, 6))
    kinds = np.array([draw(agent_column(T)) for _ in range(N)]).T
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    positions = rng.normal(size=(T, N, 2)) * draw(st.sampled_from([1e-3, 1.0,
                                                                   50.0]))
    nan = ((kinds == ABSENT) | (kinds == HIDDEN_ABSENT)).astype(np.int8)
    positions[nan == 1] = np.nan
    prediction = rng.normal(size=(T, N, 2))
    if draw(st.booleans()):
        prediction[tuple(rng.integers(0, (T, N)))] = np.nan
    hidden = (kinds == HIDDEN) | (kinds == HIDDEN_ABSENT)
    return prediction, positions, ObservationMask(hidden.astype(int)), nan


class TestVelocityBaselineMatchesReference:
    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(scored_sequences())
    def test_byte_identical(self, case):
        _, positions, m, nan = case
        for nan_mask in (nan, None):
            got = velocity_baseline(positions, m, nan_mask)
            want = reference_velocity_baseline(positions, m, nan_mask)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_shape_mismatch_message(self):
        m = ObservationMask(np.zeros((3, 2), dtype=int))
        with pytest.raises(DataError, match=r"do not match mask \(3, 2\)"):
            velocity_baseline(np.zeros((3, 3, 2)), m)


class TestMetricsMatchReference:
    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(scored_sequences())
    def test_same_floats_counts_and_errors(self, case):
        prediction, positions, m, nan = case
        baseline = velocity_baseline(positions, m, nan)
        for pred, nan_mask in ((prediction, nan), (baseline, nan),
                               (prediction, None)):
            for fn, ref in ((ade_metric, reference_ade_metric),
                            (fde_metric, reference_fde_metric),
                            (max_err_metric, reference_max_err_metric)):
                args = (pred, positions, m, nan_mask)
                assert_same_outcome(outcome(fn, *args), outcome(ref, *args))

    def test_ade_reports_an_empty_mask_before_a_shape_error(self):
        m = ObservationMask(np.zeros((3, 2), dtype=int))
        args = (np.zeros((3, 2, 2)), np.zeros((3, 1, 2)), m)
        got = outcome(ade_metric, *args)
        assert isinstance(got, EmptyMaskError)
        assert_same_outcome(got, outcome(reference_ade_metric, *args))

    def test_shape_error_comes_before_empty_mask(self):
        m = ObservationMask(np.zeros((3, 2), dtype=int))
        for fn, ref in ((fde_metric, reference_fde_metric),
                        (max_err_metric, reference_max_err_metric)):
            args = (np.zeros((3, 2, 2)), np.zeros((3, 1, 2)), m)
            got = outcome(fn, *args)
            assert isinstance(got, DataError)
            assert_same_outcome(got, outcome(ref, *args))


# ---------------------------------------------------------------------------
# the metric loop: generated sequence sets, gaps and tasks of every kind
# ---------------------------------------------------------------------------

KINDS = ("forecasting", "imputation", "inference", "percentage", "circle",
         "camera")


@st.composite
def task_specs(draw, T, N):
    agents = st.lists(st.integers(0, N - 1), min_size=1, max_size=N,
                      unique=True).map(tuple)
    return TaskSpec(
        kind=draw(st.sampled_from(KINDS)),
        predicted=draw(st.one_of(st.sampled_from(["players", "offense",
                                                  "ball", "all"]), agents)),
        t_hat=draw(st.one_of(st.none(), st.integers(1, T - 1))),
        hidden_agents=draw(st.one_of(st.sampled_from(["ball", "defense"]),
                                     agents)),
        fraction=draw(st.sampled_from([0.0, 0.3, 0.8, 1.0])),
        radius=draw(st.sampled_from([0.5, 5.0, 20.0])),
        half_angle_deg=draw(st.sampled_from([5.0, 20.0, 60.0])))


@st.composite
def scored_sets(draw):
    """(sequences, task, seed, predict) for ``_score``: possession games
    with absent stretches, whole absent agents and, now and then, a
    sequence whose every slot but the ball's is absent, so it has agents
    and sequences without a target."""
    T = draw(st.integers(8, 12))
    per_team = draw(st.integers(2, 3))
    n = draw(st.integers(1, 4))
    seqs = generate_possession_game(n, T, per_team,
                                    rng_seed=draw(st.integers(0, 999)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gapped = []
    for seq in seqs:
        valid = seq.validity.copy()
        style = draw(st.sampled_from(["none", "stretches", "agent",
                                      "all but ball"]))
        players = np.flatnonzero(seq.agent_types != BALL)
        if style == "stretches":
            for _ in range(3):
                a, start = rng.choice(players), rng.integers(0, T)
                valid[start:start + rng.integers(1, T + 1), a] = 0
        elif style == "agent":
            valid[:, rng.choice(players)] = 0
        elif style == "all but ball":
            valid[:, players] = 0
        pos = np.where(valid[..., None] == 1, seq.positions, np.nan)
        gapped.append(TrajectorySequence(
            seq_id=seq.seq_id, positions=pos, agent_types=seq.agent_types,
            states=seq.states if draw(st.booleans()) else None,
            validity=valid, frame_rate_hz=seq.frame_rate_hz, pitch=seq.pitch))
    task = draw(task_specs(T, 2 * per_team + 1))
    noise = {seq.seq_id: (rng.normal(size=seq.positions.shape) * 10.0,
                          rng.random((T, 4)))
             for seq in gapped}
    model_like = draw(st.booleans())

    def predict(seq, m, nan):
        if not model_like:
            return velocity_baseline(seq.positions, m, nan), None
        traj, scores = noise[seq.seq_id]
        visible = slot_roles(m, nan)[1]
        traj = np.where(visible[..., None], seq.positions, traj)
        return traj, scores if seq.states is not None else None

    return gapped, task, draw(st.integers(0, 2)), predict


class TestScoreMatchesReference:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(scored_sets())
    def test_same_reports_and_confusion_matrices(self, case):
        seqs, task, seed, predict = case
        got = outcome(harness._score, seqs, task, seed,
                      lambda seq, m, roles: predict(seq, m, seq.nan_mask()))
        want = outcome(reference_score, seqs, task, seed, predict)
        if isinstance(want, Exception):
            assert_same_outcome(got, want)
            return
        assert not isinstance(got, Exception), repr(got)
        (report, cm), (want_report, want_cm) = got, want
        assert repr(report) == repr(want_report)
        for name, value in vars(want_report).items():
            assert type(getattr(report, name)) is type(value), name
        assert (cm is None) == (want_cm is None)
        if cm is not None:
            assert cm.dtype == want_cm.dtype
            assert cm.tobytes() == want_cm.tobytes()

    def test_covers_skipped_sequences_and_every_kind(self):
        # a guard on the generator above: it must reach each task kind, a
        # set with a skipped sequence, and a set with no target at all
        seen = set()

        @settings(derandomize=True, max_examples=400, deadline=None)
        @given(scored_sets())
        def collect(case):
            seqs, task, seed, predict = case
            masks = harness.build_masks(seqs, task, seed)
            targets = [slot_roles(m, s.nan_mask())[2].any()
                       for s, m in zip(seqs, masks)]
            seen.add(task.kind)
            if not all(targets):
                seen.add("skipped" if any(targets) else "none left")

        collect()
        assert set(KINDS) | {"skipped", "none left"} <= seen


class TestValidateTaskMatchesReference:
    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(scored_sequences())
    def test_same_label(self, case):
        m = case[2]
        assert validate_task(m) == reference_validate_task(m)


# ---------------------------------------------------------------------------
# value-set checks: equality comparisons accept and reject exactly what
# np.isin did, with the same exception
# ---------------------------------------------------------------------------

DTYPES = (np.bool_, np.int8, np.int64, np.float64)
VALUES = (0, 1, 2, -1, 0.5, np.nan, np.inf)
CASES = [(dtype, value) for dtype in DTYPES for value in VALUES
         if np.dtype(dtype).kind not in "iu" or float(value).is_integer()]


def grid(dtype, value):
    """A [3 x 4] 0/1 grid with ``value`` in one slot, in ``dtype``."""
    e = np.zeros((3, 4), dtype=np.float64)
    e[0, 1] = 1
    e[2, 3] = value
    return e.astype(dtype)


def isin_verdict(e, allowed, error):
    """The replaced check: ``error`` unless every entry is in ``allowed``."""
    return None if np.isin(e, allowed).all() else error


def raised(fn, *args):
    try:
        fn(*args)
    except Exception as e:  # noqa: BLE001 - the error is the outcome
        return e
    return None


def assert_same_verdict(got, want):
    if want is None:
        assert got is None, repr(got)
    else:
        assert type(got) is type(want) and str(got) == str(want), repr(got)


@pytest.mark.parametrize("dtype,value", CASES)
class TestValueSetChecks:
    def test_binary_masks(self, dtype, value):
        e = grid(dtype, value)
        for name, build in (("ObservationMask", ObservationMask),
                            ("NanMask", lambda a: nan_entries(a, a.shape))):
            want = isin_verdict(e, (0, 1), TaskViolationError(
                f"{name} entries must be 0 or 1"))
            assert_same_verdict(raised(build, e), want)
        if want is None:
            np.testing.assert_array_equal(_as_binary(e, "m"), e.astype(np.int8))

    def test_key_mask(self, dtype, value):
        # a key mask is a plain array: every nonzero entry (NaN included)
        # excludes its key, whatever the dtype
        e = grid(dtype, value)
        rng = np.random.default_rng(0)
        q, k, v = (rng.normal(size=s) for s in ((3, 2), (4, 2), (4, 2)))
        _, w = masked_attention(DiffTensor(q), DiffTensor(k), DiffTensor(v), e)
        logits = np.where(e == 0, q @ k.T / np.sqrt(2.0), -np.inf)
        want = np.exp(logits - logits.max(axis=1, keepdims=True))
        np.testing.assert_allclose(
            w.values, want / want.sum(axis=1, keepdims=True), rtol=1e-12)

    def test_agent_type_channel(self, dtype, value):
        cfg = ModelConfig(d=8, n_heads=2, sab_hidden=16, n_state_classes=4,
                          input_channels=3)
        params = init_params(cfg, seed=0)
        types = grid(dtype, value)
        x = np.zeros(types.shape + (3,), dtype=types.dtype)
        x[..., 2] = types
        want = isin_verdict(types, (0, 1, 2), DataError(
            "agent type channel must contain only {0, 1, 2}"))
        assert_same_verdict(raised(embed_inputs, x, cfg, params), want)

    def test_agent_groups(self, dtype, value):
        types = np.array([0, 1, 2, value, 1, 0], dtype=np.float64).astype(dtype)
        task = TaskSpec(kind="forecasting", predicted="players", t_hat=1)
        for group, wanted in (("players", (1, 2)), ("offense", (1,)),
                              ("defense", (2,)), ("ball", (0,))):
            want = [int(i) for i in np.flatnonzero(np.isin(types, wanted))]
            assert task.resolve_agents(group, types) == want


# ---------------------------------------------------------------------------
# one role pass per scored sequence, and the checks it leans on: the
# broadcast agent rule, the two-comparison 0/1 check and np.linalg.norm, as
# the library had them
# ---------------------------------------------------------------------------

def reference_resolve_group(group, types):
    hit = (np.asarray(types)[..., None] == harness.AGENT_GROUPS[group]).any(
        axis=-1)
    return [int(i) for i in np.flatnonzero(hit)]


def reference_as_binary(entries, name):
    e = np.asarray(entries)
    if e.ndim != 2:
        raise TaskViolationError(f"{name} must be 2-D [T x N], got shape {e.shape}")
    if not ((e == 0) | (e == 1)).all():
        raise TaskViolationError(f"{name} entries must be 0 or 1")
    return e.astype(np.int8)


def counting(monkeypatch):
    """Count the ``slot_roles`` calls made through every module that binds
    it; returns the list the calls append to."""
    calls = []

    def spy(*args):
        calls.append(args)
        return slot_roles(*args)

    for module in (data, harness, masking, model, objectives):
        monkeypatch.setattr(module, "slot_roles", spy)
    return calls


def gapped_set(n=3):
    """Possession games with absent stretches, and one sequence whose every
    player is absent, so one is left unscored under the player tasks."""
    seqs = generate_possession_game(n, 12, 2, rng_seed=3)
    out = []
    for i, seq in enumerate(seqs):
        valid = seq.validity.copy()
        players = np.flatnonzero(seq.agent_types != BALL)
        if i == n - 1:
            valid[:, players] = 0
        else:
            valid[2 + i:6 + i, players[i]] = 0
        out.append(TrajectorySequence(
            seq_id=seq.seq_id,
            positions=np.where(valid[..., None] == 1, seq.positions, np.nan),
            agent_types=seq.agent_types, states=seq.states, validity=valid,
            frame_rate_hz=seq.frame_rate_hz, pitch=seq.pitch))
    return out


class TestOneRolePass:
    @pytest.mark.parametrize("kind", KINDS)
    def test_baseline_takes_the_roles_once_per_sequence(self, monkeypatch,
                                                        kind):
        seqs = gapped_set()
        task = TaskSpec(kind=kind, t_hat=4, hidden_agents="defense")
        want = outcome(reference_score, seqs, task, 0, lambda seq, m, nan: (
            velocity_baseline(seq.positions, m, nan), None))
        calls = counting(monkeypatch)
        got = outcome(harness.evaluate_velocity_baseline, seqs, task, 0)
        if isinstance(want, Exception):
            assert_same_outcome(got, want)
        else:
            assert repr(got) == repr(want[0])
        assert len(calls) == len(seqs)

    def test_model_takes_the_roles_in_forward_and_scoring_only(
            self, monkeypatch):
        seqs = gapped_set()
        cfg = ModelConfig(d=8, n_heads=2, sab_hidden=16, n_state_classes=4)
        params = init_params(cfg, seed=0)
        task = TaskSpec(kind="inference", hidden_agents="ball")
        calls = counting(monkeypatch)
        harness.evaluate(params, cfg, seqs, task)
        assert len(calls) == 2 * len(seqs)  # model.forward and _score

    def test_run_model_composites_over_the_visible_slots(self):
        seq = gapped_set()[0]
        cfg = ModelConfig(d=8, n_heads=2, sab_hidden=16, n_state_classes=4)
        params = init_params(cfg, seed=0)
        m = harness.sequence_mask(seq, TaskSpec(kind="forecasting", t_hat=4),
                                  0, 0)
        out, pred, traj = harness.run_model(seq, m, cfg, params)
        visible = slot_roles(m, seq.nan_mask())[1]
        assert out.visible.dtype == bool
        assert out.visible.tobytes() == visible.tobytes()
        want = np.where(visible[..., None], seq.positions, pred)
        assert traj.tobytes() == want.tobytes()


TYPE_DTYPES = (np.int8, np.int64, np.float64, np.bool_)


@st.composite
def type_vectors(draw):
    values = draw(st.lists(st.sampled_from([0, 1, 2, 3, -1, 0.5, np.nan,
                                            np.inf, -0.0]), max_size=12))
    dtype = draw(st.sampled_from(TYPE_DTYPES))
    if np.dtype(dtype).kind in "iu":
        values = [v for v in values if float(v).is_integer()]
    with np.errstate(invalid="ignore"):
        return np.array(values, dtype=np.float64).astype(dtype)


class TestResolveAgentsMatchesBroadcast:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(type_vectors())
    def test_same_indices_for_every_group(self, types):
        task = TaskSpec()
        for group in harness.AGENT_GROUPS:
            got = task.resolve_agents(group, types)
            assert got == reference_resolve_group(group, types), group
            assert all(type(i) is int for i in got)

    def test_empty_vectors(self):
        for dtype in TYPE_DTYPES:
            types = np.zeros(0, dtype=dtype)
            for group in harness.AGENT_GROUPS:
                assert TaskSpec().resolve_agents(group, types) == []


class TestAsBinaryMatchesTwoComparisons:
    @pytest.mark.parametrize("value", range(-128, 128))
    def test_every_int8_value(self, value):
        e = np.array([[0, 1, 0], [1, value, 0]], dtype=np.int8)
        for arr in (e, e.T, e[:, ::2]):  # non-contiguous views too
            got = outcome(_as_binary, arr, "Mask")
            want = outcome(reference_as_binary, arr, "Mask")
            if isinstance(want, Exception):
                assert_same_outcome(got, want)
            else:
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
                assert not np.shares_memory(got, arr)

    @pytest.mark.parametrize("dtype", [np.bool_, np.int8, np.int64,
                                       np.float64])
    def test_other_dtypes_empty_and_misshapen(self, dtype):
        with np.errstate(invalid="ignore"):
            cases = [np.array(v, dtype=np.float64).astype(dtype) for v in (
                [[0, 1], [1, 0]], [[0, 2], [1, 0]], [[0, -1]], [[0.5, 1]],
                [[np.nan, 0]], [[np.inf, 1]], np.zeros((0, 3)),
                np.zeros((3, 0)), [0, 1], [[[0, 1]]])]
        for arr in cases:
            got = outcome(_as_binary, arr, "NanMask")
            want = outcome(reference_as_binary, arr, "NanMask")
            if isinstance(want, Exception):
                assert_same_outcome(got, want)
            else:
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


@st.composite
def displacement_pairs(draw):
    shape = draw(st.sampled_from([(1, 1, 2), (5, 3, 2), (12, 11, 2),
                                  (4, 3), (2,), (0, 2)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-300, 1e-3, 1.0, 1e150, 1e300]))
    a, b = (rng.normal(size=shape) * scale for _ in range(2))
    specials = [np.nan, np.inf, -np.inf, 1e300, -1e300, 0.0, -0.0]
    for arr in (a, b):
        for _ in range(draw(st.integers(0, 3)) if arr.size else 0):
            arr[np.unravel_index(rng.integers(arr.size), shape)] = \
                specials[rng.integers(len(specials))]
    return a, b


class TestDistancesMatchNorm:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(displacement_pairs())
    def test_byte_identical(self, pair):
        a, b = pair
        with np.errstate(all="ignore"):
            got = _distances(a, b)
            want = np.linalg.norm(a - b, axis=-1)
        assert np.asarray(got).dtype == np.asarray(want).dtype
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_zero_dimensional_inputs_raise_as_norm_does(self):
        a, b = np.array(3.0), np.array(1.0)
        got = outcome(_distances, a, b)
        want = outcome(lambda: np.linalg.norm(a - b, axis=-1))
        assert_same_outcome(got, want)
