"""Masked attention, multi-head attention and set attention blocks."""

import numpy as np
import pytest

from settraj import tensor as tx
from settraj.attention import (
    KeyMask,
    MhaParams,
    SabParams,
    masked_attention,
    multi_head_attention,
    set_attention_block,
)
from settraj.errors import ConfigError
from settraj.tensor import DiffTensor, Parameter, Tape, backward


def rnd(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


def composed_attention(q, k, v, m):
    """Reference: the attention core built from generic tape ops (transpose,
    matmul, add of a -1e30 mask, scale, softmax, keep-mul, matmul), as the
    library computed it before the core became one fused op."""
    axes = list(range(k.ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    logits = tx.matmul(q, tx.transpose(k, axes))
    if m is not None:
        logits = tx.add(logits, DiffTensor(m * -1e30))
    logits = tx.scale(logits, 1.0 / np.sqrt(q.shape[-1]))
    weights = tx.softmax_rows(logits)
    if m is not None:
        dead = np.broadcast_to(m, logits.shape).min(axis=-1, keepdims=True)
        weights = tx.mul(weights, DiffTensor(1.0 - (dead >= 1.0)))
    return tx.matmul(weights, v), weights


def identity_mha(d):
    eye = lambda name: Parameter(name, DiffTensor(np.eye(d)))
    return MhaParams(wq=[eye("q")], wk=[eye("k")], wv=[eye("v")],
                     wo=eye("o"))


def random_mha(d, H, seed=0):
    rng = np.random.default_rng(seed)
    dh = d // H
    mk = lambda name, shape: Parameter(name, DiffTensor(rng.normal(size=shape)))
    return MhaParams(
        wq=[mk(f"wq.{h}", (d, dh)) for h in range(H)],
        wk=[mk(f"wk.{h}", (d, dh)) for h in range(H)],
        wv=[mk(f"wv.{h}", (d, dh)) for h in range(H)],
        wo=mk("wo", (d, d)),
    )


def random_sab(d, H, hidden, seed=0):
    rng = np.random.default_rng(seed)
    mk = lambda name, arr: Parameter(name, DiffTensor(arr))
    return SabParams(
        mha=random_mha(d, H, seed),
        ln1_gain=mk("g1", np.ones(d)), ln1_bias=mk("b1", np.zeros(d)),
        ln2_gain=mk("g2", np.ones(d)), ln2_bias=mk("b2", np.zeros(d)),
        ff_w1=mk("fw1", rng.normal(size=(d, hidden)) * 0.3),
        ff_b1=mk("fb1", np.zeros(hidden)),
        ff_w2=mk("fw2", rng.normal(size=(hidden, d)) * 0.3),
        ff_b2=mk("fb2", np.zeros(d)),
    )


class TestMaskedAttention:
    # two queries/keys in one dimension; hand-computed softmax values
    Q = np.array([[1.0], [0.0]])
    K = np.array([[1.0], [0.0]])
    V = np.array([[2.0], [4.0]])

    def test_unmasked_values(self):
        out, w = masked_attention(DiffTensor(self.Q), DiffTensor(self.K),
                                  DiffTensor(self.V), None)
        np.testing.assert_allclose(out.values[:, 0], [2.5379, 3.0], atol=1e-3)
        np.testing.assert_allclose(
            w.values, [[0.7311, 0.2689], [0.5, 0.5]], atol=1e-4)

    def test_excluded_key_gets_zero_weight(self):
        m = KeyMask(np.array([[0, 1], [0, 1]]))
        out, w = masked_attention(DiffTensor(self.Q), DiffTensor(self.K),
                                  DiffTensor(self.V), m)
        np.testing.assert_array_equal(w.values, [[1.0, 0.0], [1.0, 0.0]])
        np.testing.assert_allclose(out.values[:, 0], [2.0, 2.0])

    def test_fully_masked_row_is_zero(self):
        m = KeyMask(np.array([[1, 1], [0, 0]]))
        out, w = masked_attention(DiffTensor(self.Q), DiffTensor(self.K),
                                  DiffTensor(self.V), m)
        np.testing.assert_array_equal(w.values[0], [0.0, 0.0])
        np.testing.assert_array_equal(out.values[0], [0.0])
        np.testing.assert_allclose(w.values[1].sum(), 1.0)

    def test_excluded_rows_do_not_influence_output(self):
        q, k, v = rnd((3, 4), 1), rnd((5, 4), 2), rnd((5, 4), 3)
        m = np.zeros((3, 5)); m[:, 2] = 1
        out1, _ = masked_attention(DiffTensor(q), DiffTensor(k),
                                   DiffTensor(v), m)
        k2, v2 = k.copy(), v.copy()
        k2[2], v2[2] = 99.0, -99.0
        out2, _ = masked_attention(DiffTensor(q), DiffTensor(k2),
                                   DiffTensor(v2), m)
        np.testing.assert_array_equal(out1.values, out2.values)

    def test_weight_rows_sum_to_one(self):
        q, k, v = rnd((4, 8), 4), rnd((6, 8), 5), rnd((6, 8), 6)
        m = (rnd((4, 6), 7) > 0.5).astype(float)
        m[0] = 1.0  # one fully-masked row
        _, w = masked_attention(DiffTensor(q), DiffTensor(k),
                                DiffTensor(v), m)
        sums = w.values.sum(axis=-1)
        assert abs(sums[0]) == 0.0
        np.testing.assert_allclose(sums[1:], 1.0, atol=1e-9)

    def test_gradient_fd(self):
        k, v = DiffTensor(rnd((3, 4), 8)), DiffTensor(rnd((3, 4), 9))
        m = np.array([[0, 0, 1], [0, 0, 0], [1, 1, 1]], dtype=float)

        def f(q):
            out, _ = masked_attention(q, k, v, m)
            return tx.mul(out, out).sum()

        assert tx.grad_check(f, DiffTensor(rnd((3, 4), 10))).passed


def temporal_case(H=4, A=5, T=12, dh=8, seed=40):
    """[H x A x T x dh] inputs with an [A x 1 x T] mask, as the temporal
    blocks see them; agent 1 has every key excluded."""
    rng = np.random.default_rng(seed)
    qkv = [rng.normal(size=(H, A, T, dh)) for _ in range(3)]
    m = (rng.uniform(size=(A, 1, T)) < 0.3).astype(float)
    m[1] = 1.0
    m[0] = 0.0
    return qkv, m


def social_case(H=4, T=6, A=5, dh=8, seed=41):
    """[H x T x A x dh] inputs with a [T x 1 x A] mask, as the social blocks
    see them (NaN-masked agents excluded per timestep)."""
    rng = np.random.default_rng(seed)
    qkv = [rng.normal(size=(H, T, A, dh)) for _ in range(3)]
    m = (rng.uniform(size=(T, 1, A)) < 0.3).astype(float)
    m[:, :, 0] = 0.0
    return qkv, m


def attention_grads(attn, qkv, m, seed=42):
    """Output, weights and q/k/v gradients of sum(out * R) for random R."""
    q, k, v = (DiffTensor(a.copy()) for a in qkv)
    with Tape() as tape:
        out, w = attn(q, k, v, m)
        r = np.random.default_rng(seed).normal(size=out.shape)
        backward(tx.mul(out, DiffTensor(r)).sum(), tape)
    return out.values, w.values, q.grad, k.grad, v.grad


class TestFusedAttentionAtModelShapes:
    @pytest.mark.parametrize("case", [temporal_case, social_case])
    def test_matches_composed_ops(self, case):
        qkv, m = case()
        fused = attention_grads(masked_attention, qkv, m)
        reference = attention_grads(composed_attention, qkv, m)
        for name, a, b in zip(("out", "weights", "dq", "dk", "dv"),
                              fused, reference):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12,
                                       err_msg=name)

    @pytest.mark.parametrize("case", [temporal_case, social_case])
    @pytest.mark.parametrize("wrt", [0, 1, 2])
    def test_gradient_fd(self, case, wrt):
        qkv, m = case(H=2, dh=3)
        r = np.random.default_rng(43).normal(size=qkv[2].shape)

        def f(x):
            args = [DiffTensor(a) for a in qkv]
            args[wrt] = x
            out, _ = masked_attention(*args, m)
            return tx.mul(out, DiffTensor(r)).sum()

        report = tx.grad_check(f, DiffTensor(qkv[wrt].copy()))
        assert report.passed, report.max_rel_error

    def test_fully_masked_rows_are_exact_zeros(self):
        qkv, m = temporal_case()
        out, w, dq, dk, dv = attention_grads(masked_attention, qkv, m)
        assert (w[:, 1] == 0.0).all()
        assert (out[:, 1] == 0.0).all()
        assert (dq[:, 1] == 0.0).all()
        # an excluded key gets exactly zero weight and no key/value gradient
        assert (w[np.broadcast_to(m, w.shape) == 1.0] == 0.0).all()
        key_out = np.broadcast_to(m[:, 0, :, None] == 1.0, dk.shape)
        assert (dk[key_out] == 0.0).all() and (dv[key_out] == 0.0).all()
        live = [0, 2, 3, 4]
        np.testing.assert_allclose(w[:, live].sum(axis=-1), 1.0, atol=1e-12)

    def test_is_one_tape_node(self):
        qkv, m = social_case()
        with Tape() as tape:
            masked_attention(*(DiffTensor(a) for a in qkv), m)
        assert len(tape.ops) == 1

    def test_mask_that_does_not_broadcast_is_rejected(self):
        qkv, _ = social_case()
        with pytest.raises(tx.ShapeError):
            masked_attention(*(DiffTensor(a) for a in qkv), np.zeros((3, 7)))


class TestMultiHeadAttention:
    def test_single_identity_head_reduces_to_attention(self):
        x = rnd((4, 3), 11)
        m = np.array([[0, 1, 0, 0]] * 4, dtype=float)
        plain, _ = masked_attention(DiffTensor(x), DiffTensor(x),
                                    DiffTensor(x), m)
        mha, _ = multi_head_attention(DiffTensor(x), DiffTensor(x),
                                      DiffTensor(x), m, identity_mha(3))
        np.testing.assert_allclose(mha.values, plain.values, atol=1e-12)

    def test_globally_excluded_value_rows_ignored(self):
        x = rnd((5, 8), 12)
        m = np.zeros((5, 5)); m[:, 3] = 1.0
        p = random_mha(8, 2, seed=13)
        out1, _ = multi_head_attention(DiffTensor(x), DiffTensor(x),
                                       DiffTensor(x.copy()), m, p)
        x2 = x.copy(); x2[3] += 17.0
        # only the value argument changes at the excluded row
        out2, _ = multi_head_attention(DiffTensor(x), DiffTensor(x),
                                       DiffTensor(x2), m, p)
        np.testing.assert_array_equal(out1.values, out2.values)

    def test_head_count_must_divide_width(self):
        p = random_mha(8, 2, seed=14)
        x = DiffTensor(rnd((3, 6), 15))
        with pytest.raises((ConfigError, tx.ShapeError)):
            multi_head_attention(x, x, x, None, p)

    def test_gradient_fd_through_mha(self):
        p = random_mha(8, 2, seed=16)
        m = (rnd((3, 3), 17) > 0).astype(float)

        def f(x):
            out, _ = multi_head_attention(x, x, x, m, p)
            return tx.mul(out, out).sum()

        assert tx.grad_check(f, DiffTensor(rnd((3, 8), 18))).passed

    def test_weights_are_head_averaged(self):
        p = random_mha(8, 4, seed=19)
        x = DiffTensor(rnd((5, 8), 20))
        _, w = multi_head_attention(x, x, x, None, p)
        assert w.shape == (5, 5)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-9)


class TestSetAttentionBlock:
    def test_permutation_equivariance(self):
        p = random_sab(6, 2, 12, seed=21)
        x = rnd((5, 6), 22)
        m = (rnd((5, 5), 23) > 0.3).astype(float)
        np.fill_diagonal(m, 0.0)
        out, _ = set_attention_block(DiffTensor(x), m, p)
        perm = np.random.default_rng(24).permutation(5)
        out_p, _ = set_attention_block(DiffTensor(x[perm]),
                                       m[perm][:, perm], p)
        assert np.abs(out_p.values - out.values[perm]).max() < 1e-12

    def test_singleton_set_finite(self):
        p = random_sab(4, 2, 8, seed=25)
        out, _ = set_attention_block(DiffTensor(rnd((1, 4), 26)), None, p)
        assert out.shape == (1, 4)
        assert np.isfinite(out.values).all()

    def test_no_mask_equals_zero_mask(self):
        p = random_sab(4, 2, 8, seed=27)
        x = rnd((3, 4), 28)
        a, _ = set_attention_block(DiffTensor(x), None, p)
        b, _ = set_attention_block(DiffTensor(x), np.zeros((3, 3)), p)
        np.testing.assert_allclose(a.values, b.values, atol=1e-12)

    def test_gradient_fd_through_sab(self):
        p = random_sab(8, 2, 16, seed=29)

        def f(x):
            out, _ = set_attention_block(x, None, p)
            return tx.mul(out, out).sum()

        assert tx.grad_check(f, DiffTensor(rnd((3, 8), 30))).passed

    def test_fully_masked_agent_passes_residual(self):
        # with all keys excluded the attention adds zero; the block reduces
        # to the layer-norm/feed-forward pipeline of the input row
        p = random_sab(6, 2, 12, seed=31)
        x = rnd((4, 6), 32)
        m = np.ones((4, 4))
        out, w = set_attention_block(DiffTensor(x), m, p)
        np.testing.assert_array_equal(w, np.zeros((4, 4)))
        assert np.isfinite(out.values).all()
