"""Network forward pass: embedding, CLS, encoders, heads, passthrough."""

import numpy as np
import pytest

from settraj import attention
from settraj.errors import ConfigError, DataError
from settraj.masking import (
    ObservationMask,
    build_forecasting_mask,
    build_inference_mask,
)
from settraj.model import (
    ModelConfig,
    append_cls,
    count_parameters,
    embed_inputs,
    forward,
    init_params,
    positional_encoding,
)
from settraj.objectives import ade_metric
from settraj.tensor import DiffTensor, xavier_normal_init

TINY = ModelConfig(d=8, n_heads=2, sab_hidden=16, n_state_classes=4,
                   input_channels=3)


@pytest.fixture(scope="module")
def tiny_params():
    return init_params(TINY, seed=11)


def make_inputs(T, N, seed=0, channels=3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(T, N, channels))
    if channels == 3:
        types = np.zeros(N)
        types[1:1 + (N - 1) // 2] = 1
        types[1 + (N - 1) // 2:] = 2
        x[..., 2] = types
    return x


class TestPositionalEncoding:
    def test_time_zero(self):
        pe = positional_encoding(5, 8)
        np.testing.assert_allclose(pe[0, 0::2], 0.0)
        np.testing.assert_allclose(pe[0, 1::2], 1.0)

    def test_range(self):
        pe = positional_encoding(100, 16)
        assert pe.min() >= -1.0 and pe.max() <= 1.0

    def test_first_channel_is_plain_sine(self):
        pe = positional_encoding(4, 6)
        np.testing.assert_allclose(pe[1, 0], np.sin(1.0), atol=1e-12)
        assert abs(pe[1, 0] - 0.84147) < 1e-5

    def test_odd_width_rejected(self):
        with pytest.raises(ConfigError):
            positional_encoding(4, 7)

    def test_cached_read_only(self):
        pe = positional_encoding(50, 32)
        assert positional_encoding(50, 32) is pe
        assert not pe.flags.writeable
        with pytest.raises(ValueError):
            pe[0, 0] = 1.0
        np.testing.assert_array_equal(pe,
                                      positional_encoding.__wrapped__(50, 32))
        with pytest.raises(ConfigError):  # a raise is not cached
            positional_encoding(4, 7)


class TestEmbedding:
    def test_identical_rows_embed_identically(self, tiny_params):
        x = make_inputs(4, 3, seed=1)
        x[2, 1] = x[1, 0]
        j = embed_inputs(x, TINY, tiny_params)
        np.testing.assert_array_equal(j.values[2, 1], j.values[1, 0])

    def test_channel_count_enforced(self, tiny_params):
        with pytest.raises(DataError):
            embed_inputs(make_inputs(4, 3, channels=2), TINY, tiny_params)

    def test_unknown_agent_type_rejected(self, tiny_params):
        x = make_inputs(4, 3)
        x[..., 2] = 7
        with pytest.raises(DataError):
            embed_inputs(x, TINY, tiny_params)

    def test_agent_type_changes_embedding(self, tiny_params):
        x = make_inputs(4, 3, seed=2)
        y = x.copy()
        y[..., 2] = (y[..., 2] + 1) % 3
        jx = embed_inputs(x, TINY, tiny_params)
        jy = embed_inputs(y, TINY, tiny_params)
        assert np.abs(jx.values - jy.values).max() > 1e-6


class TestAppendCls:
    def test_shape(self, tiny_params):
        j = embed_inputs(make_inputs(6, 4), TINY, tiny_params)
        out = append_cls(j, tiny_params)
        assert out.shape == (6, 5, 8)

    def test_rows_identical_before_pe(self, tiny_params):
        j = embed_inputs(make_inputs(6, 4), TINY, tiny_params)
        out = append_cls(j, tiny_params)
        assert (out.values[:, 4, :] == out.values[0, 4, :]).all()

    def test_disabled_variant_keeps_width(self):
        cfg = ModelConfig(d=8, n_heads=2, sab_hidden=16, with_cls=False,
                          lambda_ce=0.0, input_channels=3)
        params = init_params(cfg, seed=3)
        x = make_inputs(5, 3)
        m = ObservationMask(np.zeros((5, 3), dtype=int))
        out = forward(x, m, None, cfg, params)
        assert out.state_scores is None
        assert out.predictions.shape == (5, 3, 2)


class TestForward:
    def test_all_visible_passthrough(self, tiny_params):
        x = make_inputs(6, 4, seed=4)
        m = ObservationMask(np.zeros((6, 4), dtype=int))
        out = forward(x, m, None, TINY, tiny_params)
        np.testing.assert_array_equal(out.trajectories, x[..., :2])

    def test_soccer_shapes(self):
        cfg = ModelConfig(d=16, n_heads=2, sab_hidden=32, input_channels=3)
        params = init_params(cfg, seed=5)
        x = make_inputs(60, 23, seed=6)
        m = build_forecasting_mask(60, 20, list(range(1, 23)), 23)
        out = forward(x, m, None, cfg, params)
        assert out.trajectories.shape == (60, 23, 2)
        assert out.state_scores.shape == (60, 4)
        assert out.attention["coarse_social"].shape == (60, 24, 24)

    def test_state_scores_are_distributions(self, tiny_params):
        x = make_inputs(6, 4, seed=7)
        m = build_forecasting_mask(6, 2, [1, 2], 4)
        out = forward(x, m, None, TINY, tiny_params)
        rows = out.state_scores.values
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)
        assert (rows > 0).all() and (rows < 1).all()

    def test_agent_permutation_equivariance(self, tiny_params):
        x = make_inputs(6, 5, seed=8)
        m = build_forecasting_mask(6, 3, [1, 3], 5)
        nan = np.zeros((6, 5), dtype=int)
        nan[0, 4] = 1
        out = forward(x, m, nan, TINY, tiny_params)
        perm = np.array([2, 0, 4, 1, 3])
        out_p = forward(x[:, perm], ObservationMask(m.entries[:, perm]),
                        nan[:, perm], TINY, tiny_params)
        assert np.abs(out_p.trajectories
                      - out.trajectories[:, perm]).max() < 1e-9
        assert np.abs(out_p.state_scores.values
                      - out.state_scores.values).max() < 1e-9

    def test_nan_slot_values_do_not_matter(self, tiny_params):
        x = make_inputs(6, 4, seed=9)
        m = build_forecasting_mask(6, 3, [1], 4)
        nan = np.zeros((6, 4), dtype=int)
        nan[2, 2] = 1
        out1 = forward(x, m, nan, TINY, tiny_params)
        x2 = x.copy()
        x2[2, 2, :2] = 1e6
        out2 = forward(x2, m, nan, TINY, tiny_params)
        np.testing.assert_array_equal(out1.trajectories, out2.trajectories)
        np.testing.assert_array_equal(out1.state_scores.values,
                                      out2.state_scores.values)

    def test_absent_target_is_an_excluded_key(self, tiny_params):
        # (4, 1) is hidden by the task and absent: it is no key of any social
        # attention, the output does not depend on its value, and it gets no
        # metric (its NaN ground truth is never read)
        x = make_inputs(6, 4)
        m = build_forecasting_mask(6, 3, [1], 4)
        nan = np.zeros((6, 4), dtype=np.int8)
        nan[4, 1] = 1
        outs = []
        for value in (0.3, 1e6):
            x[4, 1, :2] = value
            outs.append(forward(x, m, nan, TINY, tiny_params))
        a, b = outs
        np.testing.assert_array_equal(a.predictions.values,
                                      b.predictions.values)
        np.testing.assert_array_equal(a.state_scores.values,
                                      b.state_scores.values)
        for key in ("coarse_social", "fine_social"):
            assert (a.attention[key][4, :, 1] == 0.0).all()
            assert (a.attention[key][3, :, 1] > 0.0).all()
        truth = x[..., :2].copy()
        truth[4, 1] = np.nan
        dist = np.linalg.norm(a.trajectories - truth, axis=-1)
        assert ade_metric(a.trajectories, truth, m, nan) == \
            pytest.approx(dist[[3, 5], [1, 1]].mean(), rel=1e-12)

    def test_key_masks(self, tiny_params, monkeypatch):
        # The coarse temporal keys exclude every hidden, absent and CLS slot;
        # the fine temporal and both social masks exclude exactly the absent
        # slots and never the CLS agent. (1, 0) is absent and visible by the
        # task, (4, 1) absent and hidden.
        x = make_inputs(6, 4, seed=13)
        m = build_forecasting_mask(6, 3, [1, 2], 4)
        nan = np.zeros((6, 4), dtype=np.int8)
        nan[[1, 4], [0, 1]] = 1
        seen, original = [], attention.masked_attention

        def recording(q, k, v, mask=None, heads=1):
            seen.append(mask)
            return original(q, k, v, mask, heads)

        monkeypatch.setattr(attention, "masked_attention", recording)
        forward(x, m, nan, TINY, tiny_params)
        cls = np.ones((6, 1), dtype=bool)
        coarse = np.concatenate([(m.entries == 1) | (nan == 1), cls], axis=1)
        absent = np.concatenate([nan == 1, ~cls], axis=1)
        # temporal masks are [A x 1 x T], social ones [T x 1 x A]
        coarse_t, fine_t, social = (coarse.T[:, None], absent.T[:, None],
                                    absent[:, None])
        # in call order: coarse t1, t2, s, then fine t1, t2, s
        want = [coarse_t, coarse_t, social, fine_t, fine_t, social]
        assert len(seen) == len(want)
        for got, expected in zip(seen, want):
            np.testing.assert_array_equal(np.asarray(got) != 0, expected)

    def test_fully_hidden_agent_runs(self, tiny_params):
        x = make_inputs(6, 4, seed=10)
        m = build_inference_mask(6, [0], 4)
        out = forward(x, m, None, TINY, tiny_params)
        assert np.isfinite(out.trajectories).all()

    def test_determinism(self, tiny_params):
        x = make_inputs(6, 4, seed=12)
        m = build_forecasting_mask(6, 2, [0, 1], 4)
        a = forward(x, m, None, TINY, tiny_params)
        b = forward(x, m, None, TINY, tiny_params)
        np.testing.assert_array_equal(a.trajectories, b.trajectories)
        np.testing.assert_array_equal(a.state_scores.values,
                                      b.state_scores.values)


class TestParameterCount:
    def test_matches_actual(self):
        for cfg in (TINY,
                    ModelConfig(d=8, n_heads=2, sab_hidden=16, with_cls=False,
                                lambda_ce=0.0),
                    ModelConfig(d=8, n_heads=2, sab_hidden=16,
                                with_social=False),
                    ModelConfig(d=8, n_heads=2, sab_hidden=16,
                                with_unc_mask=False),
                    ModelConfig(d=12, n_heads=3, sab_hidden=20,
                                input_channels=2)):
            params = init_params(cfg, seed=13)
            assert count_parameters(cfg) == params.n_parameters()

    def test_doubling_width_more_than_doubles(self):
        small = ModelConfig(d=16, n_heads=2, sab_hidden=32)
        big = ModelConfig(d=32, n_heads=2, sab_hidden=32)
        assert count_parameters(big) > 2 * count_parameters(small)

    def test_cls_removal_delta(self):
        with_cls = ModelConfig(d=8, n_heads=2, sab_hidden=16)
        without = ModelConfig(d=8, n_heads=2, sab_hidden=16, with_cls=False,
                              lambda_ce=0.0)
        d, s = 8, 4
        classifier = d * d + d + d * s + s
        assert count_parameters(with_cls) - count_parameters(without) \
            == d + classifier

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ModelConfig(d=10, n_heads=3).validate()
        with pytest.raises(ConfigError):
            ModelConfig(input_channels=4).validate()
        with pytest.raises(ConfigError):
            ModelConfig(lambda_ce=-1.0).validate()
        for heads in (0, -4):  # checked before the divisibility test
            with pytest.raises(ConfigError, match="n_heads"):
                ModelConfig(n_heads=heads).validate()


class TestInitialization:
    def test_seed_determinism(self):
        a = init_params(TINY, seed=21)
        b = init_params(TINY, seed=21)
        for name, p in a.named_parameters().items():
            np.testing.assert_array_equal(p.values,
                                          b.named_parameters()[name].values)

    def test_per_head_parameter_names(self):
        params = init_params(TINY, seed=22)
        names = set(params.named_parameters())
        assert "encoder_c.sab_t1.mha.wq" in names
        assert "encoder_f.sab_s.mha.wv" in names
        assert not any(n.startswith("encoder_c.sab_t1.mha.wq.") for n in names)
        assert "unc_theta" in names
        assert "cls_embedding" in names
        # each name maps to the very tensor the typed tree holds
        named = params.named_parameters()
        assert all(type(p) is DiffTensor for p in named.values())
        assert named["encoder_f.sab_s.mha.wv"] is params.encoder_f.sab_s.mha.wv
        assert named["unc_theta"] is params.unc_theta

    def test_fused_weights_are_the_per_head_draws_concatenated(self):
        # replay the draw order of one [d x d/H] matrix per head and per
        # q/k/v, as the model drew them when heads were separate parameters
        d, H, hidden, S = TINY.d, TINY.n_heads, TINY.sab_hidden, 4
        rng = np.random.default_rng(24)
        draw = lambda a, b, **kw: xavier_normal_init(a, b, rng, **kw)
        expected = {"input_rffn.w1": draw(3, d), "input_rffn.w2": draw(d, d),
                    "cls_embedding": draw(d, d, shape=(d,))}
        for enc in ("encoder_c", "encoder_f"):
            for sab in ("sab_t1", "sab_t2", "sab_s"):
                pre = f"{enc}.{sab}"
                for w in ("wq", "wk", "wv"):
                    expected[f"{pre}.mha.{w}"] = np.concatenate(
                        [draw(d, d // H) for _ in range(H)], axis=1)
                expected[f"{pre}.mha.wo"] = draw(d, d)
                expected[f"{pre}.rffn.w1"] = draw(d, hidden)
                expected[f"{pre}.rffn.w2"] = draw(hidden, d)
        expected["output_rffn.w1"] = draw(d, d)
        expected["output_rffn.w2"] = draw(d, 2)
        expected["classifier_rffn.w1"] = draw(d, d)
        expected["classifier_rffn.w2"] = draw(d, S)
        named = init_params(TINY, seed=24).named_parameters()
        for name, values in expected.items():
            np.testing.assert_array_equal(named[name].values, values,
                                          err_msg=name)
