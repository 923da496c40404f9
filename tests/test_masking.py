"""Task masks, slot roles, uncertainty mask, task classification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from settraj.errors import ConfigError, TaskViolationError
from settraj.masking import (
    ObservationMask,
    UncertaintyMask,
    build_camera_mask,
    build_circle_mask,
    build_forecasting_mask,
    build_imputation_mask,
    build_inference_mask,
    build_percentage_mask,
    build_uncertainty_mask,
    initial_theta,
    slot_roles,
    validate_task,
)
from settraj.tensor import DiffTensor, Tape, backward, mul


class TestForecastingMask:
    def test_soccer_protocol(self):
        m = build_forecasting_mask(60, 20, list(range(1, 23)), 23)
        assert m.entries[:20].sum() == 0
        assert (m.entries[20:, 1:23] == 1).all()
        assert m.entries[:, 0].sum() == 0  # conditioning ball stays visible

    def test_empty_agent_list(self):
        m = build_forecasting_mask(10, 5, [], 4)
        assert m.entries.sum() == 0

    def test_boundary_single_entry(self):
        m = build_forecasting_mask(5, 4, [2], 3)
        assert m.entries.sum() == 1
        assert m.entries[4, 2] == 1

    def test_t_hat_out_of_range(self):
        with pytest.raises(TaskViolationError):
            build_forecasting_mask(5, 5, [0], 2)
        with pytest.raises(TaskViolationError):
            build_forecasting_mask(5, 0, [0], 2)


class TestImputationMask:
    def test_forecasting_plus_final_visible(self):
        agents = list(range(1, 5))
        base = build_forecasting_mask(20, 8, agents, 5)
        visible = {n: [t for t in range(20) if base.entries[t, n] == 0]
                   + [19] for n in agents}
        m = build_imputation_mask(20, 5, agents, visible)
        assert (m.entries[19, agents] == 0).all()
        assert (m.entries[8:19, agents] == 1).all()
        assert validate_task(m) == "imputation"

    def test_all_visible(self):
        m = build_imputation_mask(6, 3, [0, 1, 2],
                                  {n: range(6) for n in range(3)})
        assert m.entries.sum() == 0

    def test_single_visible_slot(self):
        m = build_imputation_mask(60, 2, [1], {1: [0]})
        assert m.entries[:, 1].sum() == 59

    def test_zero_visible_slots_rejected(self):
        with pytest.raises(TaskViolationError):
            build_imputation_mask(10, 2, [0], {0: []})


class TestInferenceMask:
    def test_ball_inference(self):
        m = build_inference_mask(60, [0], 23)
        assert (m.entries[:, 0] == 1).all()
        assert m.entries[:, 1:].sum() == 0
        assert validate_task(m) == "inference"

    def test_all_agents_hidden_permitted_with_warning(self, caplog):
        with caplog.at_level("WARNING"):
            m = build_inference_mask(5, list(range(3)), 3)
        assert m.entries.all()
        assert any("every agent" in r.message for r in caplog.records)

    def test_two_goalkeepers(self):
        m = build_inference_mask(60, [3, 14], 23)
        assert (m.entries[:, [3, 14]] == 1).all()

    def test_empty_hidden_set_rejected(self):
        with pytest.raises(TaskViolationError):
            build_inference_mask(10, [], 4)


class TestPercentageMask:
    def test_zero_fraction(self):
        m = build_percentage_mask(60, 23, 0, 0.0, 1)
        assert m.entries.sum() == 0

    def test_ninety_percent_of_sixty(self):
        m = build_percentage_mask(60, 23, 0, 0.9, 1)
        assert m.entries[:, 0].sum() == 54
        assert m.entries[:, 1:].sum() == 0

    def test_seed_determinism(self):
        a = build_percentage_mask(60, 5, 2, 0.5, 42)
        b = build_percentage_mask(60, 5, 2, 0.5, 42)
        np.testing.assert_array_equal(a.entries, b.entries)


class TestGeometricMasks:
    def test_circle_infinite_radius(self):
        pos = np.random.default_rng(0).uniform(0, 50, size=(10, 5, 2))
        m = build_circle_mask(pos, 0, np.inf)
        assert m.entries.sum() == 0

    def test_circle_boundary_inclusive(self):
        pos = np.zeros((1, 2, 2))
        pos[0, 1] = [3.0, 0.0]
        m = build_circle_mask(pos, 0, 3.0)
        assert m.entries[0, 1] == 0  # exactly at radius: visible
        m = build_circle_mask(pos, 0, 2.999)
        assert m.entries[0, 1] == 1

    def test_circle_never_hides_ball(self):
        pos = np.random.default_rng(1).uniform(0, 90, size=(6, 4, 2))
        m = build_circle_mask(pos, 2, 0.5)
        assert m.entries[:, 2].sum() == 0

    def test_camera_collinear_agent_visible(self):
        pos = np.zeros((1, 3, 2))
        pos[0, 0] = [10.0, 0.0]   # ball
        pos[0, 1] = [20.0, 0.0]   # collinear with the ball direction
        pos[0, 2] = [0.0, 10.0]   # 90 degrees off
        m = build_camera_mask(pos, 0, 30.0, (0.0, 0.0))
        assert m.entries[0, 1] == 0
        assert m.entries[0, 2] == 1

    def test_camera_wide_angle_front_halfplane(self):
        rng = np.random.default_rng(2)
        pos = np.zeros((8, 4, 2))
        pos[:, 0, 0] = 10.0  # ball straight ahead
        pos[:, 1:, 0] = rng.uniform(1.0, 20.0, size=(8, 3))   # x > 0
        pos[:, 1:, 1] = rng.uniform(-5.0, 5.0, size=(8, 3))
        m = build_camera_mask(pos, 0, 89.9, (0.0, 0.0))
        assert m.entries.sum() == 0

    def test_camera_ball_at_camera_point_all_visible(self, caplog):
        pos = np.ones((2, 3, 2)) * 5.0
        pos[0, 0] = [0.0, 0.0]
        with caplog.at_level("WARNING"):
            m = build_camera_mask(pos, 0, 10.0, (0.0, 0.0))
        assert m.entries[0].sum() == 0
        assert any("camera point" in r.message for r in caplog.records)

    def test_camera_angle_validation(self):
        pos = np.zeros((1, 2, 2))
        with pytest.raises(ConfigError):
            build_camera_mask(pos, 0, 90.0, (0.0, 0.0))


def brute_force_uncertainty_column(col, w1):
    """Direct statement of the neighbor-weight rule for one agent column."""
    T = len(col)
    out = np.zeros(T)
    for t in range(T):
        if col[t] == 1:
            out[t] = 1.0
            continue
        near = any(0 <= t + d < T and col[t + d] == 1 for d in (-1, 1))
        far = any(0 <= t + d < T and col[t + d] == 1 for d in (-2, 2))
        if near:
            out[t] = w1
        elif far:
            out[t] = 1.0 - w1
    return out


class TestUncertaintyMask:
    def theta_for(self, w1):
        return float(np.log(w1 / (1.0 - w1)))

    def test_reference_pattern(self):
        col = np.array([0, 0, 0, 1, 1, 1, 0, 0])
        m = ObservationMask(col[:, None])
        unc = build_uncertainty_mask(m, self.theta_for(0.8))
        np.testing.assert_allclose(
            unc.entries[:, 0], [0, 0.2, 0.8, 1, 1, 1, 0.8, 0.2], atol=1e-12)

    def test_all_hidden_column(self):
        m = ObservationMask(np.ones((6, 1), dtype=int))
        unc = build_uncertainty_mask(m, 1.0)
        np.testing.assert_array_equal(unc.entries[:, 0], np.ones(6))

    def test_isolated_hidden_entry(self):
        col = np.array([0, 0, 1, 0, 0])
        unc = build_uncertainty_mask(ObservationMask(col[:, None]),
                                     self.theta_for(0.7))
        np.testing.assert_allclose(unc.entries[:, 0],
                                   [0.3, 0.7, 1.0, 0.7, 0.3], atol=1e-12)

    def test_overlap_prefers_w1(self):
        # t=2 is an immediate neighbor of the run at 3 and a second neighbor
        # of the run at 0; it must carry w1
        col = np.array([1, 0, 0, 1, 0])
        unc = build_uncertainty_mask(ObservationMask(col[:, None]),
                                     self.theta_for(0.75))
        np.testing.assert_allclose(unc.entries[:, 0],
                                   [1.0, 0.75, 0.75, 1.0, 0.75], atol=1e-12)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=12),
           st.floats(0.55, 0.95))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, col, w1):
        col = np.array(col)
        unc = build_uncertainty_mask(ObservationMask(col[:, None]),
                                     self.theta_for(w1))
        np.testing.assert_allclose(unc.entries[:, 0],
                                   brute_force_uncertainty_column(col, w1),
                                   atol=1e-9)

    def test_entries_limited_to_four_levels(self):
        rng = np.random.default_rng(4)
        col = (rng.uniform(size=(30, 3)) > 0.6).astype(int)
        unc = build_uncertainty_mask(ObservationMask(col), self.theta_for(0.8))
        levels = np.unique(np.round(unc.entries, 12))
        assert set(levels).issubset({0.0, 0.2, 0.8, 1.0})

    def test_support_matches_mask(self):
        col = (np.random.default_rng(5).uniform(size=(20, 4)) > 0.5).astype(int)
        unc = build_uncertainty_mask(ObservationMask(col), 0.3)
        np.testing.assert_array_equal(unc.entries == 1.0, col == 1)

    def test_nan_slots_carry_no_weight(self):
        col = np.array([0, 0, 1, 0, 0])[:, None]
        nan = np.array([0, 1, 0, 0, 0])[:, None]
        unc = build_uncertainty_mask(ObservationMask(col), self.theta_for(0.8),
                                     nan)
        assert unc.entries[1, 0] == 0.0
        assert unc.entries[3, 0] == 0.8

    def test_absent_hidden_slot_is_not_a_target(self):
        # t=0 is hidden but absent: no weight, and its neighbors weigh as if
        # it were not hidden; the hidden slot at t=3 is a target as usual
        col = np.array([1, 0, 0, 1, 0, 0, 0])[:, None]
        absent = np.array([1, 0, 0, 0, 0, 0, 0])[:, None]
        unc = build_uncertainty_mask(ObservationMask(col),
                                     self.theta_for(0.75), absent)
        np.testing.assert_allclose(unc.entries[:, 0],
                                   [0.0, 0.25, 0.75, 1.0, 0.75, 0.25, 0.0],
                                   atol=1e-12)
        # slot_roles gives the same roles, with one more absent slot (t=5)
        # that the task shows
        absent[5, 0] = 1
        roles = slot_roles(ObservationMask(col), absent)
        want = ([1, 0, 0, 0, 0, 1, 0], [0, 1, 1, 0, 1, 0, 1],
                [0, 0, 0, 1, 0, 0, 0])
        for got, expected in zip(roles, want):
            assert got.dtype == bool
            np.testing.assert_array_equal(got[:, 0], np.array(expected, bool))

    def test_theta_gradient_flows(self):
        theta = DiffTensor(np.float64(initial_theta()))
        col = np.array([0, 1, 1, 0, 0])[:, None]
        unc = build_uncertainty_mask(ObservationMask(col), theta)
        with Tape() as tape:
            w = unc.weights_tensor()
            loss = mul(w, DiffTensor(np.ones_like(unc.entries))).sum()
            backward(loss, tape)
        assert theta.grad is not None
        assert abs(theta.grad).max() > 0

    def test_w1_bounds(self):
        # float64 sigmoid saturates to exactly 0/1 beyond |theta| ~ 36;
        # the open-interval bound is tested on the representable range
        for theta in (-30.0, -1.0, 0.0, 1.0, 30.0):
            unc = UncertaintyMask(np.zeros((1, 1), dtype=np.int8),
                                  np.zeros((1, 1), dtype=np.int8),
                                  np.zeros((1, 1), dtype=np.int8), theta)
            assert 0.0 < unc.w1 < 1.0
            assert abs(unc.w1 + unc.w2 - 1.0) < 1e-12


class TestValidateTask:
    def test_builders_produce_their_label(self):
        fore = build_forecasting_mask(30, 10, [1, 2], 4)
        assert validate_task(fore) == "forecasting"
        inf = build_inference_mask(30, [0], 4)
        assert validate_task(inf) == "inference"
        rng = np.random.default_rng(6)
        e = (rng.uniform(size=(30, 4)) > 0.5).astype(int)
        e[0] = 0  # every agent keeps a visible slot
        label = validate_task(ObservationMask(e))
        assert label == "imputation"

    def test_all_visible_is_mixed(self):
        assert validate_task(ObservationMask(np.zeros((5, 3), dtype=int))) \
            == "mixed"

    def test_inference_wins_over_partial(self):
        e = np.zeros((10, 3), dtype=int)
        e[:, 0] = 1
        e[5:, 1] = 1
        assert validate_task(ObservationMask(e)) == "inference"

    def test_mask_entries_validated(self):
        with pytest.raises(TaskViolationError):
            ObservationMask(np.array([[0.5, 0.0]]))
