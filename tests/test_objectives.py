"""Losses and metrics against hand values and brute-force double loops."""

import numpy as np
import pytest

from settraj.errors import DataError, EmptyMaskError
from settraj.masking import ObservationMask, UncertaintyMask, \
    build_uncertainty_mask
from settraj.objectives import (
    accuracy_metric,
    ade_loss,
    ade_metric,
    ce_loss,
    confusion_matrix,
    fde_metric,
    max_err_metric,
    total_loss,
)
from settraj.tensor import DiffTensor, Parameter, Tape, backward


def theta_for(w1):
    return float(np.log(w1 / (1.0 - w1)))


def unc_from_entries(weights):
    """An UncertaintyMask carrying arbitrary fixed weights (theta-free)."""
    m = UncertaintyMask(hidden=np.asarray(weights, dtype=np.float64),
                        first=np.zeros_like(weights, dtype=np.int8),
                        second=np.zeros_like(weights, dtype=np.int8),
                        theta=None)
    return m


class TestAdeLoss:
    def test_perfect_predictions(self):
        x = np.random.default_rng(0).normal(size=(4, 2, 2))
        m = unc_from_entries(np.ones((4, 2)))
        assert ade_loss(DiffTensor(x), x, m).item() == 0.0

    def test_three_four_five(self):
        pred = np.array([[[3.0, 4.0]]])
        gt = np.zeros((1, 1, 2))
        m = unc_from_entries(np.ones((1, 1)))
        assert abs(ade_loss(DiffTensor(pred), gt, m).item() - 5.0) < 1e-12

    def test_weighted_mean(self):
        pred = np.array([[[5.0, 0.0], [0.0, 0.0]]])
        gt = np.zeros((1, 2, 2))
        m = unc_from_entries(np.array([[1.0, 0.8]]))
        expected = 5.0 * 1.0 / 1.8
        assert abs(ade_loss(DiffTensor(pred), gt, m).item() - expected) < 1e-9

    def test_empty_support_rejected(self):
        with pytest.raises(EmptyMaskError):
            ade_loss(DiffTensor(np.zeros((2, 1, 2))), np.zeros((2, 1, 2)),
                     unc_from_entries(np.zeros((2, 1))))

    def test_absent_target_with_zero_weight_is_ignored(self):
        pred = np.array([[[3.0, 4.0], [1.0, 1.0]]])
        gt = np.array([[[0.0, 0.0], [np.nan, np.nan]]])
        m = unc_from_entries(np.array([[1.0, 0.0]]))
        assert ade_loss(DiffTensor(pred), gt, m).item() == 5.0

    def test_absent_target_with_weight_rejected(self):
        gt = np.array([[[0.0, 0.0], [np.nan, np.nan]]])
        with pytest.raises(DataError):
            ade_loss(DiffTensor(np.zeros((1, 2, 2))), gt,
                     unc_from_entries(np.ones((1, 2))))

    def test_binary_restriction_equals_metric(self):
        rng = np.random.default_rng(1)
        pred = rng.normal(size=(6, 3, 2))
        gt = rng.normal(size=(6, 3, 2))
        entries = (rng.uniform(size=(6, 3)) > 0.4).astype(int)
        entries[0, 0] = 1
        mask = ObservationMask(entries)
        loss = ade_loss(DiffTensor(pred), gt,
                        UncertaintyMask.binary(mask)).item()
        metric = ade_metric(pred, gt, mask)
        assert abs(loss - metric) < 1e-12

    def test_gradient_reaches_theta_and_predictions(self):
        theta = Parameter("theta", DiffTensor(np.float64(0.5)))
        entries = np.array([[0], [1], [0], [0]])
        m_unc = build_uncertainty_mask(ObservationMask(entries), theta)
        # boundary-neighbor errors differ from the hidden-slot error, so the
        # weighted mean genuinely depends on the weights
        pred = DiffTensor(np.arange(8.0).reshape(4, 1, 2))
        gt = np.zeros((4, 1, 2))
        with Tape() as tape:
            loss = ade_loss(pred, gt, m_unc)
            backward(loss, tape)
        assert abs(theta.tensor.grad).max() > 0
        assert abs(pred.grad).max() > 0


class TestCeLoss:
    def test_perfect_one_hot(self):
        s = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert ce_loss(s, DiffTensor(s)).item() < 1e-10

    def test_uniform_prediction(self):
        s = np.array([[1.0, 0.0, 0.0, 0.0]])
        s_hat = np.full((1, 4), 0.25)
        assert abs(ce_loss(s, DiffTensor(s_hat)).item() - np.log(4.0)) < 1e-12

    def test_vanishing_probability_is_finite(self):
        s = np.array([[1.0, 0.0]])
        s_hat = np.array([[0.0, 1.0]])
        val = ce_loss(s, DiffTensor(s_hat)).item()
        assert np.isfinite(val) and val > 20.0

    def test_malformed_distribution_rejected(self):
        with pytest.raises(DataError):
            ce_loss(np.array([[0.5, 0.2]]), DiffTensor(np.array([[0.5, 0.5]])))


class TestTotalLoss:
    def test_lambda_zero_is_pure_ade(self):
        pred = np.array([[[3.0, 4.0]]])
        m = unc_from_entries(np.ones((1, 1)))
        loss, report = total_loss(DiffTensor(pred), np.zeros((1, 1, 2)), m,
                                  None, None, 0.0)
        assert report.total == report.l_ade == 5.0
        assert report.l_ce == 0.0

    def test_combination_arithmetic(self):
        pred = np.array([[[1.0, 0.0]]])
        m = unc_from_entries(np.ones((1, 1)))
        s = np.array([[1.0, 0.0]])
        s_hat = DiffTensor(np.array([[np.exp(-0.5), 1.0 - np.exp(-0.5)]]))
        loss, report = total_loss(DiffTensor(pred), np.zeros((1, 1, 2)), m,
                                  s, s_hat, 4.0)
        assert abs(report.l_ade - 1.0) < 1e-12
        assert abs(report.l_ce - 0.5) < 1e-12
        assert abs(report.total - 3.0) < 1e-9
        assert abs(loss.item() - report.total) < 1e-12


def brute_ade(pred, gt, mask, nan):
    num, cnt = 0.0, 0
    T, N = mask.shape
    for t in range(T):
        for n in range(N):
            if mask[t, n] == 1 and nan[t, n] == 0:
                num += np.sqrt(((pred[t, n] - gt[t, n]) ** 2).sum())
                cnt += 1
    return num / cnt


def brute_fde(pred, gt, mask, nan):
    vals = []
    T, N = mask.shape
    for n in range(N):
        last = None
        for t in range(T):
            if mask[t, n] == 1 and nan[t, n] == 0:
                last = t
        if last is not None:
            vals.append(np.sqrt(((pred[last, n] - gt[last, n]) ** 2).sum()))
    return float(np.mean(vals))


def brute_max_err(pred, gt, mask, nan):
    vals = []
    T, N = mask.shape
    for n in range(N):
        best = None
        for t in range(T):
            if mask[t, n] == 1 and nan[t, n] == 0:
                d = np.sqrt(((pred[t, n] - gt[t, n]) ** 2).sum())
                best = d if best is None else max(best, d)
        if best is not None:
            vals.append(best)
    return float(np.mean(vals)), len(vals)


def brute_acc(s, s_hat):
    hits = 0
    for t in range(s.shape[0]):
        hits += int(np.argmax(s[t]) == np.argmax(s_hat[t]))
    return hits / s.shape[0]


class TestMetricWorkedExamples:
    def test_ade_mean(self):
        pred = np.array([[[3.0, 0.0], [0.0, 4.0]]])
        gt = np.zeros((1, 2, 2))
        m = ObservationMask(np.ones((1, 2), dtype=int))
        assert abs(ade_metric(pred, gt, m) - 3.5) < 1e-12

    def test_visible_slots_ignored(self):
        pred = np.array([[[100.0, 100.0], [1.0, 0.0]]])
        gt = np.zeros((1, 2, 2))
        m = ObservationMask(np.array([[0, 1]]))
        assert abs(ade_metric(pred, gt, m) - 1.0) < 1e-12

    def test_fde_two_agents(self):
        pred = np.zeros((3, 2, 2))
        pred[2, 0] = [2.0, 0.0]
        pred[2, 1] = [0.0, 4.0]
        gt = np.zeros((3, 2, 2))
        m = ObservationMask(np.array([[0, 0], [1, 1], [1, 1]]))
        assert abs(fde_metric(pred, gt, m) - 3.0) < 1e-12

    def test_max_err_single_agent(self):
        pred = np.zeros((3, 1, 2))
        pred[:, 0, 0] = [1.0, 2.5, 0.5]
        gt = np.zeros((3, 1, 2))
        m = ObservationMask(np.ones((3, 1), dtype=int))
        val, d = max_err_metric(pred, gt, m)
        assert (val, d) == (2.5, 1)

    def test_max_err_two_agents(self):
        pred = np.zeros((2, 2, 2))
        pred[:, 0, 0] = [1.0, 2.0]
        pred[:, 1, 1] = [4.0, 3.0]
        gt = np.zeros((2, 2, 2))
        m = ObservationMask(np.ones((2, 2), dtype=int))
        val, d = max_err_metric(pred, gt, m)
        assert (val, d) == (3.0, 2)

    def test_max_err_all_visible_rejected(self):
        with pytest.raises(EmptyMaskError):
            max_err_metric(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)),
                           ObservationMask(np.zeros((2, 2), dtype=int)))

    def test_accuracy_three_of_four(self):
        s = np.eye(4)
        s_hat = np.eye(4).copy()
        s_hat[3] = [0.0, 1.0, 0.0, 0.0]
        assert accuracy_metric(s, s_hat) == 0.75

    def test_accuracy_tie_break_lowest_index(self):
        s = np.array([[1.0, 0.0], [0.0, 1.0]])
        uniform = np.full((2, 2), 0.5)
        assert accuracy_metric(s, uniform) == 0.5  # class 0 predicted twice


class TestOracleEquivalence:
    def test_hundred_random_instances(self):
        rng = np.random.default_rng(31)
        for trial in range(100):
            T = int(rng.integers(2, 8))
            N = int(rng.integers(1, 5))
            pred = rng.normal(size=(T, N, 2)) * 5
            gt = rng.normal(size=(T, N, 2)) * 5
            mask = (rng.uniform(size=(T, N)) > 0.4).astype(int)
            nan = ((rng.uniform(size=(T, N)) > 0.85) & (mask == 0)).astype(int)
            if not (mask & (1 - nan)).any():
                mask[0, 0], nan[0, 0] = 1, 0
            m = ObservationMask(mask)
            assert abs(ade_metric(pred, gt, m, nan)
                       - brute_ade(pred, gt, mask, nan)) < 1e-9
            assert abs(fde_metric(pred, gt, m, nan)
                       - brute_fde(pred, gt, mask, nan)) < 1e-9
            got = max_err_metric(pred, gt, m, nan)
            want = brute_max_err(pred, gt, mask, nan)
            assert got[1] == want[1] and abs(got[0] - want[0]) < 1e-9

            S = 4
            s = np.eye(S)[rng.integers(0, S, size=T)]
            s_hat = rng.dirichlet(np.ones(S), size=T)
            assert abs(accuracy_metric(s, s_hat) - brute_acc(s, s_hat)) < 1e-12

    def test_losses_match_brute_force(self):
        rng = np.random.default_rng(32)
        for trial in range(100):
            T = int(rng.integers(2, 7))
            N = int(rng.integers(1, 4))
            pred = rng.normal(size=(T, N, 2))
            gt = rng.normal(size=(T, N, 2))
            w = rng.choice([0.0, 0.2, 0.8, 1.0], size=(T, N))
            if w.sum() == 0:
                w[0, 0] = 1.0
            loss = ade_loss(DiffTensor(pred), gt, unc_from_entries(w)).item()
            num = sum(np.sqrt(((pred[t, n] - gt[t, n]) ** 2).sum()) * w[t, n]
                      for t in range(T) for n in range(N))
            assert abs(loss - num / w.sum()) < 1e-9

            S = 3
            s = np.eye(S)[rng.integers(0, S, size=T)]
            s_hat = rng.dirichlet(np.ones(S), size=T)
            got = ce_loss(s, DiffTensor(s_hat)).item()
            want = -np.mean([np.log(max(s_hat[t, int(np.argmax(s[t]))], 1e-12))
                             for t in range(T)])
            assert abs(got - want) < 1e-9

    def test_permutation_invariance_of_losses(self):
        rng = np.random.default_rng(33)
        pred = rng.normal(size=(5, 4, 2))
        gt = rng.normal(size=(5, 4, 2))
        w = rng.choice([0.0, 0.5, 1.0], size=(5, 4))
        w[0, 0] = 1.0
        base = ade_loss(DiffTensor(pred), gt, unc_from_entries(w)).item()
        perm = rng.permutation(4)
        permuted = ade_loss(DiffTensor(pred[:, perm]), gt[:, perm],
                            unc_from_entries(w[:, perm])).item()
        assert abs(base - permuted) < 1e-12

    def test_max_err_dominates_ade_on_uniform_masks(self):
        # guaranteed when every evaluated agent has the same slot count,
        # as in forecasting masks
        rng = np.random.default_rng(34)
        for _ in range(20):
            pred = rng.normal(size=(6, 3, 2))
            gt = rng.normal(size=(6, 3, 2))
            m = ObservationMask(np.vstack([np.zeros((2, 3), dtype=int),
                                           np.ones((4, 3), dtype=int)]))
            val, d = max_err_metric(pred, gt, m)
            assert val >= ade_metric(pred, gt, m) - 1e-12
            assert d == 3


class TestConfusionMatrix:
    def test_row_sums_match_truth_counts(self):
        rng = np.random.default_rng(35)
        s = np.eye(4)[rng.integers(0, 4, size=50)]
        s_hat = rng.dirichlet(np.ones(4), size=50)
        cm = confusion_matrix(s, s_hat, 4)
        np.testing.assert_array_equal(cm.sum(axis=1),
                                      s.sum(axis=0).astype(int))
        assert cm.sum() == 50
