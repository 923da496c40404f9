"""Autodiff core: forward values, backward rules, gradient-check oracle."""

import os
import platform
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from settraj import tensor as tx
from settraj.errors import ConfigError, NumericsError, ShapeError


def rnd(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


class TestMatmul:
    def test_identity(self):
        out = tx.matmul(tx.DiffTensor(np.eye(2)),
                        tx.DiffTensor([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_array_equal(out.values, [[5.0, 6.0], [7.0, 8.0]])

    def test_scalar_product(self):
        out = tx.matmul(tx.DiffTensor([[1.0, 2.0]]),
                        tx.DiffTensor([[3.0], [4.0]]))
        np.testing.assert_allclose(out.values, [[11.0]])

    def test_gradient_matches_hand_result(self):
        a = tx.DiffTensor([[1.0, 2.0]])
        b = tx.DiffTensor([[3.0], [4.0]])
        with tx.Tape() as tape:
            tx.backward(tx.matmul(a, b).sum(), tape)
        np.testing.assert_allclose(a.grad, [[3.0, 4.0]])

    def test_gradient_fd(self):
        b = tx.DiffTensor(rnd((4, 3), 1))
        rep = tx.grad_check(lambda a: tx.matmul(a, b).sum(),
                            tx.DiffTensor(rnd((2, 4), 2)), step=1e-6)
        assert rep.passed

    def test_batched_leading_axes(self):
        a, b = rnd((3, 4, 5)), rnd((5, 2))
        out = tx.matmul(tx.DiffTensor(a), tx.DiffTensor(b))
        np.testing.assert_allclose(out.values, a @ b)
        rep = tx.grad_check(
            lambda w: tx.matmul(tx.DiffTensor(a), w).sum(), tx.DiffTensor(b))
        assert rep.passed

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            tx.matmul(tx.DiffTensor(rnd((2, 3))), tx.DiffTensor(rnd((2, 3))))


class TestSoftmax:
    def test_uniform_logits(self):
        out = tx.softmax_rows(tx.DiffTensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.values, [[0.5, 0.5]])

    def test_two_logit_row(self):
        out = tx.softmax_rows(tx.DiffTensor([[1.0, 0.0]]))
        np.testing.assert_allclose(out.values, [[0.73106, 0.26894]], atol=1e-5)

    def test_large_logit_stability(self):
        out = tx.softmax_rows(tx.DiffTensor([[1000.0, 0.0]]))
        np.testing.assert_allclose(out.values, [[1.0, 0.0]], atol=1e-12)

    @given(arrays(np.float64, (3, 5), elements=st.floats(-50, 50)))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one_and_shift_invariant(self, x):
        out = tx.softmax_rows(tx.DiffTensor(x))
        np.testing.assert_allclose(out.values.sum(axis=-1), 1.0, atol=1e-12)
        shifted = tx.softmax_rows(tx.DiffTensor(x + 7.5))
        np.testing.assert_allclose(out.values, shifted.values, atol=1e-12)

    def test_gradient_fd(self):
        rep = tx.grad_check(
            lambda x: tx.mul(tx.softmax_rows(x), tx.softmax_rows(x)).sum(),
            tx.DiffTensor(rnd((1, 4), 3)))
        assert rep.passed


class TestLayerNorm:
    def test_constant_row_is_zeroed(self):
        out = tx.layer_norm(tx.DiffTensor([[3.0, 3.0, 3.0]]),
                            tx.DiffTensor(np.ones(3)),
                            tx.DiffTensor(np.zeros(3)))
        np.testing.assert_allclose(out.values, 0.0, atol=1e-9)

    def test_two_point_row(self):
        out = tx.layer_norm(tx.DiffTensor([[1.0, 3.0]]),
                            tx.DiffTensor(np.ones(2)),
                            tx.DiffTensor(np.zeros(2)))
        np.testing.assert_allclose(out.values, [[-1.0, 1.0]], atol=1e-4)

    def test_gradient_fd_all_inputs(self):
        x0, g0, b0 = rnd((2, 4), 4), rnd(4, 5), rnd(4, 6)

        def wrt_x(x):
            return tx.layer_norm(x, tx.DiffTensor(g0),
                                 tx.DiffTensor(b0)).sum()

        def wrt_gain(g):
            return tx.mul(tx.layer_norm(tx.DiffTensor(x0), g,
                                        tx.DiffTensor(b0)),
                          tx.DiffTensor(x0)).sum()

        assert tx.grad_check(wrt_x, tx.DiffTensor(x0)).passed
        assert tx.grad_check(wrt_gain, tx.DiffTensor(g0)).passed


def residual_ln_case(shape, seed):
    """x, residual, gain, bias and an output weighting R for one layer norm
    over the last axis of ``shape``."""
    rng = np.random.default_rng(seed)
    d = shape[-1]
    return (rng.normal(size=shape), rng.normal(size=shape),
            1.0 + 0.1 * rng.normal(size=d), 0.1 * rng.normal(size=d),
            rng.normal(size=shape))


class TestResidualLayerNorm:
    @pytest.mark.parametrize("shape", [(5, 12, 8), (12, 5, 8)],
                             ids=["temporal", "social"])
    def test_bit_exact_against_add_then_layer_norm(self, shape):
        x0, r0, g0, b0, w = residual_ln_case(shape, 70)
        runs = []
        for fused in (True, False):
            x, r, g, b = (tx.DiffTensor(a.copy()) for a in (x0, r0, g0, b0))
            with tx.Tape() as tape:
                if fused:
                    out = tx.layer_norm(x, g, b, residual=r)
                else:
                    out = tx.layer_norm(tx.add(x, r), g, b)
                tx.backward(tx.mul(out, tx.DiffTensor(w)).sum(), tape)
            runs.append((out.values, x.grad, r.grad, g.grad, b.grad))
        for name, a, c in zip(("out", "dx", "dresidual", "dgain", "dbias"),
                              *runs):
            np.testing.assert_array_equal(a, c, err_msg=name)

    @pytest.mark.parametrize("wrt", range(4))
    def test_gradient_fd_all_inputs(self, wrt):
        case = residual_ln_case((2, 3, 4), 71)
        w = tx.DiffTensor(case[-1])

        def f(t):
            args = [tx.DiffTensor(a) for a in case[:4]]
            args[wrt] = t
            x, r, g, b = args
            return tx.mul(tx.layer_norm(x, g, b, residual=r), w).sum()

        report = tx.grad_check(f, tx.DiffTensor(case[wrt].copy()))
        assert report.passed, report.max_rel_error

    def test_residual_shape_must_match(self):
        x0, _, g0, b0, _ = residual_ln_case((2, 3, 4), 72)
        with pytest.raises(ShapeError):
            tx.layer_norm(tx.DiffTensor(x0), tx.DiffTensor(g0),
                          tx.DiffTensor(b0),
                          residual=tx.DiffTensor(np.ones((1, 3, 4))))


class TestAffine:
    def test_identity_weights(self):
        x = rnd((3, 2))
        out = tx.affine(tx.DiffTensor(x), tx.DiffTensor(np.eye(2)),
                        tx.DiffTensor(np.zeros(2)))
        np.testing.assert_allclose(out.values, x)

    def test_bias_addition(self):
        out = tx.affine(tx.DiffTensor([[1.0, 1.0]]), tx.DiffTensor(np.eye(2)),
                        tx.DiffTensor([1.0, 1.0]))
        np.testing.assert_allclose(out.values, [[2.0, 2.0]])

    def test_gradient_fd(self):
        x0, w0, b0 = rnd((3, 2), 7), rnd((2, 5), 8), rnd(5, 9)
        assert tx.grad_check(
            lambda w: tx.affine(tx.DiffTensor(x0), w,
                                tx.DiffTensor(b0)).sum(),
            tx.DiffTensor(w0)).passed
        assert tx.grad_check(
            lambda x: tx.mul(tx.affine(x, tx.DiffTensor(w0),
                                       tx.DiffTensor(b0)),
                             tx.DiffTensor(rnd((3, 5), 10))).sum(),
            tx.DiffTensor(x0)).passed


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert tx.sigmoid(tx.DiffTensor([0.0])).values[0] == 0.5

    def test_sigmoid_extreme_inputs_finite(self):
        out = tx.sigmoid(tx.DiffTensor([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out.values))

    def test_relu_subgradients(self):
        x = tx.DiffTensor([-1.0, 2.0])
        with tx.Tape() as tape:
            tx.backward(tx.relu(x).sum(), tape)
        np.testing.assert_array_equal(x.grad, [0.0, 1.0])

    def test_concat_split_inverse(self):
        a, b = rnd((2, 3), 11), rnd((2, 2), 12)
        merged = tx.concat_axis([tx.DiffTensor(a), tx.DiffTensor(b)], axis=1)
        ra, rb = tx.split_axis(merged, [3, 2], axis=1)
        np.testing.assert_array_equal(ra.values, a)
        np.testing.assert_array_equal(rb.values, b)

    @given(arrays(np.float64, (2, 3, 4), elements=st.floats(-10, 10)))
    @settings(max_examples=30, deadline=None)
    def test_transpose_involution(self, x):
        once = tx.transpose(tx.DiffTensor(x), (2, 0, 1))
        back = tx.transpose(once, (1, 2, 0))
        np.testing.assert_array_equal(back.values, x)

    def test_div_gradient(self):
        b = tx.DiffTensor(rnd(4, 13) + 3.0)
        assert tx.grad_check(
            lambda a: tx.div(a, b).sum(), tx.DiffTensor(rnd(4, 14))).passed
        a = tx.DiffTensor(rnd(4, 14))
        assert tx.grad_check(
            lambda bb: tx.div(a, bb).sum(), b).passed

    def test_euclidean_norm_values_and_grad(self):
        x = np.array([[3.0, 4.0], [1.0, 0.0]])
        out = tx.euclidean_norm(tx.DiffTensor(x))
        np.testing.assert_allclose(out.values, [5.0, 1.0])
        assert tx.grad_check(lambda t: tx.euclidean_norm(t).sum(),
                             tx.DiffTensor(rnd((3, 2), 15) + 0.5)).passed

    def test_log_clamped_never_infinite(self):
        out = tx.log_clamped(tx.DiffTensor([0.0, 1e-20, 1.0]))
        assert np.all(np.isfinite(out.values))
        np.testing.assert_allclose(out.values[2], 0.0)


class TestBackward:
    def test_sum_of_parameter_gives_ones(self):
        p = tx.DiffTensor(rnd((3, 2)))
        with tx.Tape() as tape:
            tx.backward(p.sum(), tape)
        np.testing.assert_array_equal(p.grad, np.ones((3, 2)))

    def test_square_sum(self):
        p = tx.DiffTensor([1.0, 2.0])
        with tx.Tape() as tape:
            tx.backward(tx.mul(p, p).sum(), tape)
        np.testing.assert_allclose(p.grad, [2.0, 4.0])

    def test_unreached_watched_tensor_gets_zeros(self):
        p = tx.DiffTensor([1.0, 2.0])
        q = tx.DiffTensor([5.0])
        with tx.Tape() as tape:
            tape.watch(q)
            tx.backward(p.sum(), tape)
        np.testing.assert_array_equal(q.grad, [0.0])

    def test_non_scalar_loss_rejected(self):
        p = tx.DiffTensor([1.0, 2.0])
        with tx.Tape() as tape:
            out = tx.mul(p, p)
            with pytest.raises(ShapeError):
                tx.backward(out, tape)

    def test_grads_accumulate_across_sweeps(self):
        p = tx.DiffTensor([1.0, 2.0])
        for _ in range(2):
            with tx.Tape() as tape:
                tx.backward(p.sum(), tape)
        np.testing.assert_array_equal(p.grad, [2.0, 2.0])

    def test_backward_does_not_mutate_forward_values(self):
        p = tx.DiffTensor(rnd((2, 2), 20))
        with tx.Tape() as tape:
            out = tx.softmax_rows(tx.matmul(p, p))
            kept = out.values.copy()
            tx.backward(out.sum(), tape)
        np.testing.assert_array_equal(out.values, kept)

    def test_consumed_tape_refuses_second_backward(self):
        a = tx.DiffTensor(rnd((2, 2), 21))
        b = tx.DiffTensor(rnd((2, 2), 22))
        with tx.Tape() as tape:
            ab = tx.matmul(a, b)
            loss = tx.mul(ab, ab).sum()
            tx.backward(loss, tape)
            once = a.grad.copy()
            with pytest.raises(ConfigError, match="consumed"):
                tx.backward(loss, tape)
        np.testing.assert_array_equal(a.grad, once)
        np.testing.assert_allclose(once, 2.0 * ab.values @ b.values.T,
                                   rtol=1e-13)

    def test_loss_and_unreached_watched_grads_are_read_only(self):
        p = tx.DiffTensor([1.0, 2.0])
        q = tx.DiffTensor([5.0])
        with tx.Tape() as tape:
            tape.watch(q)
            loss = tx.mul(p, p).sum()
            tx.backward(loss, tape)
        np.testing.assert_array_equal(loss.grad, 1.0)
        for g in (loss.grad, q.grad):
            with pytest.raises(ValueError):
                g[...] = 7.0
        np.testing.assert_array_equal(q.grad, [0.0])


def copying_accum(t, g):
    """Reference accumulation: copy the first contribution, add later ones
    in place."""
    if t.grad is None:
        if g.shape != t.values.shape:
            g = np.broadcast_to(g, t.values.shape)
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def composed_sab(x, m, p):
    """Reference set attention block: each residual as an ``add`` node
    before its layer norm."""
    from settraj.attention import multi_head_attention
    x = tx.as_tensor(x)
    attn, weights = multi_head_attention(x, x, x, m, p.mha)
    h = tx.layer_norm(tx.add(x, attn), p.ln1_gain, p.ln1_bias)
    f = p.rffn
    ff = tx.affine(tx.relu(tx.affine(h, f.w1, f.b1)), f.w2, f.b2)
    return tx.layer_norm(tx.add(h, ff), p.ln2_gain, p.ln2_bias), weights


class TestCopyFreeAccumulation:
    def test_fan_out_through_aliased_gradients(self):
        # x and y each get a first gradient that is shared (add) or a view
        # (transpose, reshape, concat), then more contributions; written in
        # place, those would corrupt the stored arrays they alias.
        x, y = tx.DiffTensor(rnd((2, 3), 80)), tx.DiffTensor(rnd((2, 3), 81))
        factor = rnd((2, 3), 90)
        wc, wt, wr, w1, w2, wa, wb = (rnd(s, 82 + i) for i, s in enumerate(
            [(2, 3), (3, 2), (3, 2), (1, 3), (3, 3), (2, 3), (2, 3)]))
        with tx.Tape() as tape:
            c = tx.mul(y, tx.DiffTensor(factor))
            t = tx.transpose(x)
            r = tx.reshape(x, (3, 2))
            s = tx.concat_axis([x, y], axis=0)
            p1, p2 = tx.split_axis(s, [1, 3], axis=0)
            a = tx.add(x, x)
            b = tx.add(x, y)
            terms = [tx.mul(u, tx.DiffTensor(w)).sum() for u, w in
                     ((c, wc), (t, wt), (r, wr), (p1, w1), (p2, w2),
                      (a, wa), (b, wb))]
            loss = terms[0]
            for term in terms[1:]:
                loss = tx.add(loss, term)
            tx.backward(loss, tape)
        ws = np.concatenate([w1, w2])
        for u, want in ((c, wc), (t, wt), (r, wr), (s, ws), (a, wa), (b, wb)):
            np.testing.assert_array_equal(u.grad, want)
        np.testing.assert_allclose(
            x.grad, wt.T + wr.reshape(2, 3) + ws[:2] + 2.0 * wa + wb,
            rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(
            y.grad, wc * factor + ws[2:] + wb, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("op", [tx.add, tx.mul, tx.div])
    @pytest.mark.parametrize("live_first", [True, False])
    def test_array_operand_is_a_constant(self, op, live_first, monkeypatch):
        # an array operand gets no gradient and changes none of the other's
        a, b = rnd((2, 3), 70), rnd((2, 3), 71) + 3.0
        accum, targets = tx._accum, []

        def counting(t, g):
            targets.append(t)
            accum(t, g)

        monkeypatch.setattr(tx, "_accum", counting)
        grads = []
        for constant in (True, False):
            x = tx.DiffTensor(a if live_first else b)
            c = b if live_first else a
            c = c if constant else tx.DiffTensor(c)
            targets.clear()
            with tx.Tape() as tape:
                out = op(*((x, c) if live_first else (c, x)))
                tx.backward(out.sum(), tape)
            grads.append(x.grad)
            assert len(targets) == (3 if constant else 4)
        np.testing.assert_array_equal(grads[0], grads[1])

    def test_gradients_are_read_only(self):
        w = tx.DiffTensor(rnd((3, 2), 91))
        x = tx.DiffTensor(rnd((4, 3), 92))
        for _ in range(2):  # the first contribution, then a sum
            with tx.Tape() as tape:
                tx.backward(tx.matmul(x, w).sum(), tape)
            with pytest.raises(ValueError):
                w.grad += 1.0
            with pytest.raises(ValueError):
                w.grad[0, 0] = 0.0
        np.testing.assert_allclose(w.grad,
                                   2.0 * x.values.sum(axis=0)[:, None]
                                   * np.ones((3, 2)))

    def test_train_step_bit_identical_to_copying_reference(self,
                                                           monkeypatch):
        from settraj import attention, harness, model
        from settraj.data import generate_possession_game
        cfg = model.ModelConfig(d=32, n_heads=4, sab_hidden=64)
        seqs = generate_possession_game(2, 12, 2, rng_seed=93)
        task = harness.TaskSpec(kind="forecasting", predicted="players",
                                t_hat=4)
        masks = harness.build_masks(seqs, task, 0)

        def grads():
            params = model.init_params(cfg, seed=94)
            params.zero_grad()
            for seq, mask in zip(seqs, masks):
                harness._train_step(seq, mask, cfg, params, 2)
            return {k: p.grad
                    for k, p in params.named_parameters().items()}

        new = grads()
        monkeypatch.setattr(tx, "_accum", copying_accum)
        monkeypatch.setattr(attention, "_accum", copying_accum)
        monkeypatch.setattr(model, "set_attention_block", composed_sab)
        ref = grads()
        assert ref.keys() == new.keys()
        for k, g in ref.items():
            assert g.flags.writeable and not new[k].flags.writeable
            np.testing.assert_array_equal(new[k], g, err_msg=k)

    def test_train_step_accumulates_only_into_live_tensors(self,
                                                          monkeypatch):
        # Constants (the positional table, the CLS ones, the target, the
        # mask weights, the inputs) enter ops as arrays and get no gradient.
        self.assert_accumulates_only_into_live_tensors(monkeypatch, True)

    def test_without_unc_mask_accumulates_only_into_live_tensors(
            self, monkeypatch):
        # the binary loss weights are a constant too
        self.assert_accumulates_only_into_live_tensors(monkeypatch, False)

    @staticmethod
    def assert_accumulates_only_into_live_tensors(monkeypatch,
                                                  with_unc_mask):
        from settraj import attention, harness, model
        from settraj.data import generate_possession_game
        cfg = model.ModelConfig(d=32, n_heads=4, sab_hidden=64,
                                with_unc_mask=with_unc_mask)
        seq = generate_possession_game(1, 50, 5, rng_seed=95)[0]
        task = harness.TaskSpec(kind="forecasting", predicted="players",
                                t_hat=10)
        params = model.init_params(cfg, seed=96)
        live = {id(p) for p in params.named_parameters().values()}
        targets = []
        record, accum = tx.Tape.record, tx._accum

        def recording(tape, output, inputs, rule):
            live.update(map(id, [output, *tape.watched]))
            record(tape, output, inputs, rule)

        def counting(t, g):
            targets.append(id(t))
            accum(t, g)

        monkeypatch.setattr(tx.Tape, "record", recording)
        monkeypatch.setattr(tx, "_accum", counting)
        monkeypatch.setattr(attention, "_accum", counting)
        harness._train_step(seq, harness.build_masks([seq], task, 0)[0], cfg,
                            params, 1)
        assert targets and set(targets) <= live


# Desk training steps on T=50, N=11 sequences in a fresh process, each from
# zeroed gradients as in a batch of one; prints the minor page faults per
# step after two warm-up steps.
FAULT_PROBE = """
import resource
from settraj import harness, model
from settraj.data import generate_possession_game
cfg = model.ModelConfig(d=32, n_heads=4, sab_hidden=64)
seqs = generate_possession_game(12, 50, 5, rng_seed=3)
task = harness.TaskSpec(kind="forecasting", predicted="players", t_hat=10)
masks = harness.build_masks(seqs, task, 0)
params = model.init_params(cfg, seed=98)
for i, (seq, mask) in enumerate(zip(seqs, masks)):
    if i == 2:
        start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    params.zero_grad()
    harness._train_step(seq, mask, cfg, params, 1)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start
print(faults / (len(seqs) - 2))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator thresholds are glibc mallopt settings")
def test_training_steps_do_not_refault_freed_memory():
    # Without the thresholds glibc unmaps and trims the tape backward frees,
    # and the next step faults it back in: about 2,000 faults per step.
    src = os.path.dirname(os.path.dirname(tx.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env,
                         capture_output=True, text=True, check=True)
    assert float(out.stdout) < 50, out.stdout


class TestGradCheck:
    def test_sum_has_zero_error(self):
        rep = tx.grad_check(lambda x: x.sum(), tx.DiffTensor(rnd(5)))
        assert rep.max_rel_error < 1e-9

    def test_softmax_sum_of_squares_passes(self):
        rep = tx.grad_check(
            lambda x: tx.mul(tx.softmax_rows(x), tx.softmax_rows(x)).sum(),
            tx.DiffTensor(rnd((1, 4), 21)))
        assert rep.passed

    def test_corrupted_rule_fails(self):
        def bad_square_sum(x):
            # forward of x^2 with a wrong backward rule (claims d/dx = x)
            out = x.values * x.values
            def rule(g):
                tx._accum(x, g * x.values)
            return tx._emit(out, (x,), rule, "bad").sum()

        rep = tx.grad_check(bad_square_sum, tx.DiffTensor(rnd(3, 22) + 2.0))
        assert not rep.passed


class TestNumerics:
    def test_overflow_raises(self):
        big = tx.DiffTensor(np.full((2, 2), 1e308))
        with pytest.raises(NumericsError):
            tx.matmul(big, big)

    def test_finite_inputs_fine(self):
        out = tx.matmul(tx.DiffTensor(rnd((2, 2))), tx.DiffTensor(rnd((2, 2))))
        assert np.isfinite(out.values).all()


class TestXavierInit:
    def test_determinism(self):
        a = tx.xavier_normal_init(4, 6, 123)
        b = tx.xavier_normal_init(4, 6, 123)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (4, 6)

    def test_unit_fan_variance(self):
        draws = tx.xavier_normal_init(1, 1, 0, shape=(100_000,))
        assert abs(draws.var() - 1.0) < 0.05

    def test_wide_fan_variance(self):
        draws = tx.xavier_normal_init(128, 512, 0, shape=(100_000,))
        expected = 2.0 / 640.0
        assert abs(draws.var() - expected) < 0.05 * expected
