"""Masked attention, multi-head attention and set attention blocks."""

import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from settraj import attention as attention_mod
from settraj import tensor as tx
from settraj.attention import (
    MhaParams,
    RffnParams,
    SabParams,
    masked_attention,
    multi_head_attention,
    set_attention_block,
)
from settraj.errors import ConfigError
from settraj.tensor import DiffTensor, Tape, backward


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
    eye = lambda: DiffTensor(np.eye(d))
    return MhaParams(wq=eye(), wk=eye(), wv=eye(), wo=eye(), n_heads=1)


def random_mha(d, H, seed=0):
    rng = np.random.default_rng(seed)
    mk = lambda: DiffTensor(rng.normal(size=(d, d)))
    return MhaParams(wq=mk(), wk=mk(), wv=mk(), wo=mk(), n_heads=H)


def random_sab(d, H, hidden, seed=0):
    rng = np.random.default_rng(seed)
    return SabParams(
        mha=random_mha(d, H, seed),
        ln1_gain=DiffTensor(np.ones(d)), ln1_bias=DiffTensor(np.zeros(d)),
        ln2_gain=DiffTensor(np.ones(d)), ln2_bias=DiffTensor(np.zeros(d)),
        rffn=RffnParams(w1=DiffTensor(rng.normal(size=(d, hidden)) * 0.3),
                        b1=DiffTensor(np.zeros(hidden)),
                        w2=DiffTensor(rng.normal(size=(hidden, d)) * 0.3),
                        b2=DiffTensor(np.zeros(d))),
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
        m = np.array([[0, 1], [0, 1]])
        out, w = masked_attention(DiffTensor(self.Q), DiffTensor(self.K),
                                  DiffTensor(self.V), m)
        np.testing.assert_array_equal(w.values, [[1.0, 0.0], [1.0, 0.0]])
        np.testing.assert_allclose(out.values[:, 0], [2.0, 2.0])

    def test_fully_masked_row_is_zero(self):
        m = np.array([[1, 1], [0, 0]])
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
        with pytest.raises(tx.ShapeError, match="does not broadcast to "
                           "attention logits"):
            masked_attention(*(DiffTensor(a) for a in qkv), np.zeros((3, 7)))


def per_head_attention(q, k, v, m, heads):
    """Reference for ``masked_attention(..., heads=H)``: the single-head op
    run on each head's channel slice, outputs concatenated and weights
    stacked on a head axis before the query axis."""
    parts = [tx.split_axis(x, [x.shape[-1] // heads] * heads, axis=-1)
             for x in (q, k, v)]
    outs, weights = zip(*(masked_attention(qh, kh, vh, m)
                          for qh, kh, vh in zip(*parts)))
    return (tx.concat_axis(outs, axis=-1),
            DiffTensor(np.stack([w.values for w in weights], axis=-3)))


def merged(case, **kw):
    """A model-shape case with heads merged into channels: [A x T x H*dh]
    (temporal) or [T x A x H*dh] (social)."""
    qkv, m = case(**kw)
    return [np.concatenate(list(a), axis=-1) for a in qkv], m


class TestHeadsInsideAttention:
    @pytest.mark.parametrize("case", [temporal_case, social_case])
    def test_matches_per_head_loop(self, case):
        qkv, m = merged(case)
        split = attention_grads(
            lambda q, k, v, m: masked_attention(q, k, v, m, heads=4), qkv, m)
        loop = attention_grads(
            lambda q, k, v, m: per_head_attention(q, k, v, m, 4), qkv, m)
        for name, a, b in zip(("out", "weights", "dq", "dk", "dv"),
                              split, loop):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12,
                                       err_msg=name)

    @pytest.mark.parametrize("case", [temporal_case, social_case])
    @pytest.mark.parametrize("wrt", [0, 1, 2])
    def test_gradient_fd(self, case, wrt):
        qkv, m = merged(case, H=2, dh=3)
        r = np.random.default_rng(44).normal(size=qkv[2].shape)

        def f(x):
            args = [DiffTensor(a) for a in qkv]
            args[wrt] = x
            out, _ = masked_attention(*args, m, heads=2)
            return tx.mul(out, DiffTensor(r)).sum()

        report = tx.grad_check(f, DiffTensor(qkv[wrt].copy()))
        assert report.passed, report.max_rel_error

    def test_fully_masked_rows_and_excluded_keys_are_exact_zeros(self):
        qkv, m = merged(temporal_case)
        out, w, dq, dk, dv = attention_grads(
            lambda q, k, v, m: masked_attention(q, k, v, m, heads=4), qkv, m)
        assert w.shape == (5, 4, 12, 12)
        assert (w[1] == 0.0).all()
        assert (out[1] == 0.0).all() and (dq[1] == 0.0).all()
        assert (w[np.broadcast_to(m[:, None], w.shape) == 1.0] == 0.0).all()
        key_out = np.broadcast_to(m[:, 0, :, None] == 1.0, dk.shape)
        assert (dk[key_out] == 0.0).all() and (dv[key_out] == 0.0).all()

    def test_multi_head_attention_is_five_tape_nodes(self):
        p = random_mha(8, 2, seed=45)
        x = DiffTensor(rnd((5, 3, 8), 46))
        with Tape() as tape:
            multi_head_attention(x, x, x, np.zeros((5, 1, 3)), p)
        ops = [rule.__qualname__.split(".")[0] for _, _, rule in tape.ops]
        assert ops == ["matmul"] * 3 + ["masked_attention", "matmul"]


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


def logit_case(rows, keys, excluded_keys=None, H=2, A=4, T=10, dh=8,
               seed=60):
    """[H x A x T x dh] inputs with an [A x 1 x T] mask (agent 1 fully
    excluded) whose logits are set by channel 0: query row (a, t) holds
    ``rows[a] * 100 sqrt(dh)`` there and each key holds a draw from
    ``keys[a]``, so a row's logits are about ``rows[a] * 100 * key``; the
    other channels add logits of order one. ``excluded_keys``, if given,
    redraws channel 0 of the excluded keys of every row that is not fully
    excluded from that range."""
    rng = np.random.default_rng(seed)
    qkv = [rng.normal(size=(H, A, T, dh)) for _ in range(3)]
    for a in range(A):
        qkv[0][:, a, :, 0] = rows[a] * 100.0 * np.sqrt(dh)
        qkv[1][:, a, :, 0] = rng.uniform(*keys[a], size=(H, T))
    m = (rng.uniform(size=(A, 1, T)) < 0.3).astype(float)
    m[1] = 1.0
    m[0] = 0.0
    if excluded_keys is not None:
        out = (m[:, 0] == 1.0) & (m[:, 0] == 0.0).any(axis=-1, keepdims=True)
        qkv[1][:, out, 0] = rng.uniform(*excluded_keys, size=(H, out.sum()))
    return qkv, m


# (rows, keys[, excluded_keys]) per agent; agent 1 is the fully excluded one
LOGIT_CASES = {
    # logits of order one: the unshifted softmax
    "normal": ([0, 0, 0, 0], [(-1, 1)] * 4),
    # every row spans about -1000..1000: exp overflows
    "huge": ([1, 1, 1, 1], [(-10, 10)] * 4),
    # every included logit is below -800: every row sum underflows to 0
    "tiny": ([-1, -1, -1, -1], [(8.5, 10)] * 4),
    # included logits near -720: the row sums are subnormal, and an
    # unshifted softmax would keep only a few bits of each weight
    "subnormal": ([-1, -1, -1, -1], [(7.1, 7.3)] * 4),
    # normal rows and overflowing rows in one call
    "mixed": ([0, 1, 0, 1], [(-10, 10)] * 4),
    # only the fully excluded agent's (kept) logits are huge
    "dead_huge": ([0, 1, 0, 0], [(-1, 1), (8, 10), (-1, 1), (-1, 1)]),
    # only the excluded keys of live rows overflow: exp(logit) * 0 is NaN
    "excluded_huge": ([0, 0, 1, 1], [(-1, 1)] * 4, (8, 10)),
}


class TestSoftmaxPaths:
    """The softmax runs unshifted while every row sum stays in [1e-200,
    1e200] and falls back to the max-shifted form otherwise; both paths
    must match the composed (always shifted) reference."""

    def run_fused(self, qkv, m):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return attention_grads(masked_attention, qkv, m)

    @pytest.mark.parametrize("name", sorted(LOGIT_CASES))
    def test_matches_composed_ops(self, name):
        qkv, m = logit_case(*LOGIT_CASES[name])
        fused = self.run_fused(qkv, m)
        reference = attention_grads(composed_attention, qkv, m)
        # 1e-12 of each array's largest entry: channel 0 of q and k is in
        # the hundreds here, and so are some entries of dq and dk
        for label, a, b in zip(("out", "weights", "dq", "dk", "dv"),
                               fused, reference):
            assert np.isfinite(a).all(), label
            np.testing.assert_allclose(
                a, b, rtol=0, atol=1e-12 * max(1.0, np.abs(b).max()),
                err_msg=label)

    @pytest.mark.parametrize("name,passes", [("normal", 1), ("huge", 2),
                                             ("tiny", 2), ("subnormal", 2),
                                             ("mixed", 2), ("dead_huge", 2),
                                             ("excluded_huge", 2)])
    def test_shifted_pass_runs_only_out_of_range(self, name, passes,
                                                 monkeypatch):
        # each softmax pass takes its row sums with one _rowdot call
        calls = []
        rowdot = attention_mod._rowdot
        monkeypatch.setattr(attention_mod, "_rowdot",
                            lambda x, w: calls.append(1) or rowdot(x, w))
        qkv, m = logit_case(*LOGIT_CASES[name])
        masked_attention(*(DiffTensor(a) for a in qkv), m)
        assert len(calls) == passes

    @pytest.mark.parametrize("name", sorted(LOGIT_CASES))
    def test_excluded_keys_and_dead_rows_are_exact_zeros(self, name):
        qkv, m = logit_case(*LOGIT_CASES[name])
        out, w, dq, dk, dv = self.run_fused(qkv, m)
        assert (w[:, 1] == 0.0).all()
        assert (out[:, 1] == 0.0).all() and (dq[:, 1] == 0.0).all()
        assert (w[np.broadcast_to(m, w.shape) == 1.0] == 0.0).all()
        key_out = np.broadcast_to(m[:, 0, :, None] == 1.0, dk.shape)
        assert (dk[key_out] == 0.0).all() and (dv[key_out] == 0.0).all()
        np.testing.assert_allclose(w[:, [0, 2, 3]].sum(axis=-1), 1.0,
                                   atol=1e-12)

    @pytest.mark.parametrize("name", sorted(LOGIT_CASES))
    def test_nan_query_raises(self, name):
        qkv, m = logit_case(*LOGIT_CASES[name])
        qkv[0][0, 0, 3, 1] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(tx.NumericsError, match="masked_attention"):
                masked_attention(*(DiffTensor(a) for a in qkv), m)

    @pytest.mark.parametrize("x_scale", [1.0, 30.0])
    def test_head_average_is_the_mean_of_the_weights(self, x_scale):
        # at x_scale 30 the logits are in the thousands: shifted path
        p = random_mha(8, 4, seed=61)
        x = DiffTensor(rnd((3, 6, 8), 62) * x_scale)
        m = np.zeros((3, 1, 6))
        m[1] = 1.0
        m[0, 0, 2] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, w = multi_head_attention(x, x, x, m, p)
            _, heads = masked_attention(
                *(tx.matmul(x, w) for w in (p.wq, p.wk, p.wv)), m,
                heads=4)
        assert heads.shape == (3, 4, 6, 6) and w.shape == (3, 6, 6)
        np.testing.assert_allclose(w, heads.values.mean(axis=-3), rtol=0,
                                   atol=1e-15)


def copyto_attention(q, k, v, m, heads=1):
    """Reference: ``masked_attention`` as it was before the softmax zeroed
    excluded keys with a 0/1 multiply after exp. It writes -inf into the
    excluded logits before exp and zeroes dead rows with ``copyto`` after
    normalizing; output and backward are computed as in the library."""
    c = 1.0 / np.sqrt(q.values.shape[-1] // heads)

    def split(x):
        return np.swapaxes(x.reshape(x.shape[:-1] + (heads, -1)), -2, -3)

    def merged_matmul(a, b):
        lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        out = np.empty(lead[:-1] + (a.shape[-2], heads, b.shape[-1]))
        np.matmul(a, b, out=np.swapaxes(out, -2, -3))
        return out.reshape(out.shape[:-2] + (-1,))

    qh, kh, vh = split(q.values * c), split(k.values), split(v.values)
    p = qh @ np.swapaxes(kh, -1, -2)
    excluded = m.reshape(m.shape[:-2] + (1,) + m.shape[-2:]) != 0
    dead = excluded.all(axis=-1, keepdims=True)
    excluded &= ~dead
    np.copyto(p, -np.inf, where=excluded)
    with np.errstate(over="ignore", under="ignore"):
        np.exp(p, out=p)
        s = tx._rowdot(p, np.ones(p.shape[-1]))
        if not ((s >= 1e-200) & (s <= 1e200)).all():
            np.matmul(qh, np.swapaxes(kh, -1, -2), out=p)
            np.copyto(p, -np.inf, where=excluded)
            p -= p.max(axis=-1, keepdims=True)
            np.exp(p, out=p)
            s = tx._rowdot(p, np.ones(p.shape[-1]))
        p *= 1.0 / s
    if dead.any():
        np.copyto(p, 0.0, where=dead)
    o = merged_matmul(p, vh)

    def rule(g):
        gh = split(g)
        ds = gh @ np.swapaxes(vh, -1, -2)
        go = (g * o).reshape(o.shape[:-1] + (heads, -1))
        ds -= np.swapaxes(tx._rowdot(go, np.ones(go.shape[-1])), -2, -3)
        ds *= p
        dq = merged_matmul(ds, kh)
        dq *= c
        tx._accum(q, tx._unbroadcast(dq, q.values.shape))
        tx._accum(k, tx._unbroadcast(
            merged_matmul(np.swapaxes(ds, -1, -2), qh), k.values.shape))
        tx._accum(v, tx._unbroadcast(
            merged_matmul(np.swapaxes(p, -1, -2), gh), v.values.shape))

    return tx._emit(o, (q, k, v), rule, "copyto_attention"), DiffTensor(p)


def coarse_temporal_case(seed=70):
    """The coarse temporal blocks of a desk forecasting model: [A x T x
    H*dh] = [12 x 50 x 32] inputs with 4 heads; the ten players are hidden
    from frame 17 on, the ball is visible throughout and the CLS row (the
    last agent) excludes every key, so its row is dead."""
    rng = np.random.default_rng(seed)
    qkv = [rng.normal(size=(12, 50, 32)) for _ in range(3)]
    m = np.zeros((12, 1, 50))
    m[:10, :, 17:] = 1.0
    m[11] = 1.0
    return qkv, m


def social_nan_case(seed=71):
    """A social block: [T x A x H*dh] = [50 x 12 x 32] inputs with 4 heads
    and a sparse NaN mask of about 5% of the slots as keys."""
    rng = np.random.default_rng(seed)
    qkv = [rng.normal(size=(50, 12, 32)) for _ in range(3)]
    m = (rng.uniform(size=(50, 1, 12)) < 0.05).astype(float)
    assert m.any()
    return qkv, m


class TestSoftmaxIsByteIdentical:
    """The multiply-after-exp softmax changes no bit of the output, the
    weights or the gradients against the -inf/copyto reference."""

    @pytest.mark.parametrize("case", [coarse_temporal_case, social_nan_case])
    def test_matches_copyto_reference(self, case):
        qkv, m = case()
        attn = lambda q, k, v, m_: masked_attention(q, k, v, m_, heads=4)
        ref = lambda q, k, v, m_: copyto_attention(q, k, v, m_, heads=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fused = attention_grads(attn, qkv, m)
            reference = attention_grads(ref, qkv, m)
        for label, a, b in zip(("out", "weights", "dq", "dk", "dv"),
                               fused, reference):
            assert a.shape == b.shape, label
            assert a.tobytes() == b.tobytes(), label

    def test_coarse_case_has_a_dead_row_and_excluded_keys(self):
        qkv, m = coarse_temporal_case()
        out, w, *_ = attention_grads(
            lambda q, k, v, m_: masked_attention(q, k, v, m_, heads=4),
            qkv, m)
        assert (w[11] == 0.0).all() and (out[11] == 0.0).all()
        assert (w[:10, :, :, 17:] == 0.0).all()


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

    def test_is_ten_tape_nodes(self):
        p = random_sab(8, 2, 16, seed=33)
        x = DiffTensor(rnd((5, 3, 8), 34))
        with Tape() as tape:
            set_attention_block(x, np.zeros((5, 1, 3)), p)
        ops = [rule.__qualname__.split(".")[0] for _, _, rule in tape.ops]
        assert ops == (["matmul"] * 3 + ["masked_attention", "matmul",
                                         "layer_norm", "affine", "relu",
                                         "affine", "layer_norm"])

    def test_desk_training_tape_has_102_nodes(self, monkeypatch):
        from settraj import harness, model
        from settraj.data import generate_possession_game
        cfg = model.ModelConfig(d=32, n_heads=4, sab_hidden=64)
        seq = generate_possession_game(1, 12, 2, rng_seed=35)[0]
        task = harness.TaskSpec(kind="forecasting", predicted="players",
                                t_hat=4)
        sizes = []

        def counting_backward(loss, tape):
            sizes.append(len(tape.ops))
            backward(loss, tape)

        monkeypatch.setattr(harness, "backward", counting_backward)
        params = model.init_params(cfg, seed=36)
        harness._train_step(seq, harness.build_masks([seq], task, 0)[0], cfg,
                            params, 1)
        assert sizes == [102]

    def test_backward_frees_unheld_intermediates(self):
        p = random_sab(8, 2, 16, seed=37)
        x = DiffTensor(rnd((5, 3, 8), 38))
        with Tape() as tape:
            out, _ = set_attention_block(x, np.zeros((5, 1, 3)), p)
            loss = tx.mul(out, out).sum()
        relu_out = [o for o, _, rule in tape.ops
                    if rule.__qualname__.startswith("relu.")]
        assert len(relu_out) == 1
        freed = weakref.ref(relu_out.pop().values)
        backward(loss, tape)
        assert tape.ops == []
        assert freed() is None
        assert x.grad is not None and p.rffn.w1.grad is not None

    def test_desk_backward_peak_stays_near_forward_size(self, monkeypatch):
        # Each node's saved arrays are freed once its rule has run, so the
        # sweep's traced peak stays near what the forward left (about 1.015x);
        # a tape held until the sweep ends peaks at about 1.64x.
        from settraj import harness, model
        from settraj.data import generate_possession_game
        cfg = model.ModelConfig(d=32, n_heads=4, sab_hidden=64)
        seq = generate_possession_game(1, 50, 5, rng_seed=39)[0]
        assert seq.positions.shape[:2] == (50, 11)
        task = harness.TaskSpec(kind="forecasting", predicted="players",
                                t_hat=10)
        mask = harness.build_masks([seq], task, 0)[0]
        params = model.init_params(cfg, seed=40)
        sizes = []

        def measuring_backward(loss, tape):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward(loss, tape)
            sizes.append((before, tracemalloc.get_traced_memory()[1]))

        monkeypatch.setattr(harness, "backward", measuring_backward)
        tracemalloc.start()
        try:
            harness._train_step(seq, mask, cfg, params, 1)
        finally:
            tracemalloc.stop()
        (before, peak), = sizes
        assert before > 10e6  # the forward's tape is held at this point
        assert peak <= 1.1 * before, peak / before

    def test_fully_masked_agent_passes_residual(self):
        # with all keys excluded the attention adds zero; the block reduces
        # to the layer-norm/feed-forward pipeline of the input row
        p = random_sab(6, 2, 12, seed=31)
        x = rnd((4, 6), 32)
        m = np.ones((4, 4))
        out, w = set_attention_block(DiffTensor(x), m, p)
        np.testing.assert_array_equal(w, np.zeros((4, 4)))
        assert np.isfinite(out.values).all()
