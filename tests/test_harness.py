"""Optimizer, schedule, clipping, checkpointing, evaluation, CLI."""

import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import settraj
from settraj.data import PitchSpec, generate_possession_game, save_sequences
from settraj.errors import (ConfigError, DataError, EmptyMaskError,
                            NumericsError)
from settraj.harness import (
    AdamWState,
    Checkpoint,
    TaskSpec,
    TrainConfig,
    adamw_step,
    build_masks,
    clip_gradients,
    evaluate,
    evaluate_velocity_baseline,
    export_attention,
    lr_schedule,
    train,
    validate_run,
)
from settraj.masking import validate_task
from settraj.model import ModelConfig, init_params

TINY_MODEL = ModelConfig(d=8, n_heads=2, sab_hidden=16, n_state_classes=4,
                         input_channels=3)


def tiny_train_cfg(**kw):
    defaults = dict(epochs=2, batch_size=4, lr=0.01, seed=3,
                    task=TaskSpec(kind="forecasting", predicted="players",
                                  t_hat=4))
    defaults.update(kw)
    return TrainConfig(**defaults)


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate_possession_game(8, 12, 2, rng_seed=5)


@pytest.fixture(scope="module")
def saved_checkpoint(tiny_dataset, tmp_path_factory):
    ckpt, _ = train(tiny_dataset, TINY_MODEL, tiny_train_cfg(epochs=1))
    path = tmp_path_factory.mktemp("ckpt") / "model.npz"
    ckpt.save(path)
    return path


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """A validated 3-epoch run over 7 sequences in batches of 3: its inputs,
    final checkpoint, step logs and ``val_log.csv`` rows."""
    seqs = generate_possession_game(9, 12, 2, rng_seed=24)
    tc = tiny_train_cfg(epochs=3, batch_size=3)
    out = tmp_path_factory.mktemp("uninterrupted")
    full, logs = train(seqs[:7], TINY_MODEL, tc, val_seqs=seqs[7:],
                       out_dir=out)
    val = (out / "val_log.csv").read_text().splitlines()[1:]
    assert len(val) == 3
    return seqs[:7], seqs[7:], tc, full, logs, val


def edit_meta(change):
    def edit(arrays):
        meta = json.loads(str(arrays["meta"][()]))
        change(meta)
        arrays["meta"] = np.array(json.dumps(meta))
    return edit


# archives that open but whose contents are incomplete or come from another
# version of the configs: the file's fault, so DataError (exit 3)
INCOMPLETE_ARCHIVES = {
    "unknown_model_cfg_field": edit_meta(
        lambda m: m["model_cfg"].update(dropout=0.1)),
    "unknown_train_cfg_field": edit_meta(
        lambda m: m["train_cfg"].update(warmup_steps=5)),
    "unknown_task_field": edit_meta(
        lambda m: m["train_cfg"]["task"].update(horizon=3)),
    "no_model_cfg": edit_meta(lambda m: m.pop("model_cfg")),
    "invalid_model_cfg": edit_meta(lambda m: m["model_cfg"].update(d=9)),
    "no_task": edit_meta(lambda m: m["train_cfg"].pop("task")),
    "no_epoch": edit_meta(lambda m: m.pop("epoch")),
    "no_step": edit_meta(lambda m: m.pop("step")),
    "no_batch": edit_meta(lambda m: m.pop("batch")),
    "str_epoch": edit_meta(lambda m: m.update(epoch="1")),
    "negative_batch": edit_meta(lambda m: m.update(batch=-3)),
    "float_step": edit_meta(lambda m: m.update(step=1.5)),
    "bool_step": edit_meta(lambda m: m.update(step=True)),
    "meta_not_object": lambda a: a.update(meta=np.array(json.dumps([3]))),
    "extra_member": lambda a: a.update(rng=np.zeros(3)),
}
# each flat vector missing, one value short, one value long, 2-D ("bad") or
# float32
for _kind in ("param", "adam_m", "adam_v"):
    INCOMPLETE_ARCHIVES.update({
        f"no_{_kind}": lambda a, k=_kind: a.pop(k),
        f"short_{_kind}": lambda a, k=_kind: a.update({k: a[k][:-1]}),
        f"long_{_kind}": lambda a, k=_kind: a.update(
            {k: np.append(a[k], 0.0)}),
        f"bad_{_kind}": lambda a, k=_kind: a.update({k: a[k][None, :]}),
        f"f32_{_kind}": lambda a, k=_kind: a.update(
            {k: a[k].astype(np.float32)}),
    })


def checkpoint_arrays(ckpt):
    """Every parameter and both AdamW moments, in ``named_parameters``
    order."""
    return [a for k, p in ckpt.params.named_parameters().items()
            for a in (p.values, ckpt.moments.m[k], ckpt.moments.v[k])]


def write_edited(src, dst, edit):
    with np.load(src) as data:
        arrays = {k: data[k] for k in data.files}
    edit(arrays)
    with open(dst, "wb") as fh:
        np.savez(fh, **arrays)
    return dst


class TestAdamW:
    def test_zero_grads_no_decay_keeps_params(self):
        params = init_params(TINY_MODEL, seed=1)
        before = {k: p.values.copy()
                  for k, p in params.named_parameters().items()}
        grads = {k: np.zeros_like(v) for k, v in before.items()}
        adamw_step(params, grads, AdamWState(params), t=1,
                   cfg=tiny_train_cfg(weight_decay=0.0))
        for k, p in params.named_parameters().items():
            np.testing.assert_array_equal(p.values, before[k])

    def test_first_step_moves_by_lr(self):
        params = init_params(TINY_MODEL, seed=2)
        name = "unc_theta"
        params.named_parameters()[name].values[...] = 1.0
        grads = {k: np.zeros_like(p.values)
                 for k, p in params.named_parameters().items()}
        grads[name] = np.ones_like(grads[name])
        adamw_step(params, grads, AdamWState(params), t=1,
                   cfg=tiny_train_cfg(lr=0.1, weight_decay=0.0, adam_eps=1e-4))
        moved = float(params.named_parameters()[name].values[0])
        assert abs(moved - 0.9) < 1e-3

    def test_pure_decay_shrink(self):
        cfg = tiny_train_cfg(lr=0.1, weight_decay=0.5)
        params = init_params(TINY_MODEL, seed=3)
        before = {k: p.values.copy()
                  for k, p in params.named_parameters().items()}
        grads = {k: np.zeros_like(v) for k, v in before.items()}
        adamw_step(params, grads, AdamWState(params), t=1, cfg=cfg)
        for k, p in params.named_parameters().items():
            np.testing.assert_allclose(p.values,
                                       before[k] * (1 - 0.1 * 0.5),
                                       atol=1e-12)

    def test_nonfinite_grads_abort(self):
        params = init_params(TINY_MODEL, seed=4)
        grads = {k: np.zeros_like(p.values)
                 for k, p in params.named_parameters().items()}
        grads["unc_theta"] = np.array([np.nan])
        with pytest.raises(NumericsError):
            adamw_step(params, grads, AdamWState(params), t=1,
                       cfg=tiny_train_cfg())


class TestSchedule:
    def test_paper_values(self):
        cfg = TrainConfig()
        assert lr_schedule(0, cfg) == 0.001
        assert lr_schedule(19, cfg) == 0.001
        assert lr_schedule(20, cfg) == 0.0005
        assert abs(lr_schedule(99, cfg) - 0.001 * 0.5 ** 4) < 1e-15

    def test_monotone_nonincreasing(self):
        cfg = TrainConfig()
        rates = [lr_schedule(e, cfg) for e in range(150)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))


class TestClipping:
    def test_below_threshold_unchanged(self):
        g = {"a": np.array([3.0])}
        out, _ = clip_gradients(g, 5.0)
        np.testing.assert_array_equal(out["a"], [3.0])

    def test_norm_halved(self):
        g = {"a": np.array([6.0, 8.0])}
        out, _ = clip_gradients(g, 5.0)
        np.testing.assert_allclose(np.linalg.norm(out["a"]), 5.0)

    def test_global_norm_spans_parameters(self):
        g = {"a": np.array([3.0]), "b": np.array([4.0])}
        out, _ = clip_gradients(g, 2.5)
        total = np.sqrt(sum(float((v * v).sum()) for v in out.values()))
        np.testing.assert_allclose(total, 2.5)

    def test_zero_grads_unchanged(self):
        g = {"a": np.zeros(3)}
        np.testing.assert_array_equal(clip_gradients(g, 5.0)[0]["a"],
                                      np.zeros(3))

    def test_value_mode(self):
        g = {"a": np.array([-9.0, 0.5])}
        out, _ = clip_gradients(g, 2.0, mode="value")
        np.testing.assert_array_equal(out["a"], [-2.0, 0.5])

    @pytest.mark.parametrize("mode", ["norm", "value"])
    def test_returns_norm_before_clipping(self, mode):
        g = {"a": np.array([6.0, 8.0]), "b": np.array([0.0])}
        assert clip_gradients(g, 1.0, mode=mode)[1] == 10.0
        assert clip_gradients(g, 50.0, mode=mode)[1] == 10.0

    def test_clip_never_grows_norm(self):
        rng = np.random.default_rng(6)
        g = {"a": rng.normal(size=7), "b": rng.normal(size=3)}
        before = np.sqrt(sum(float((v * v).sum()) for v in g.values()))
        out, _ = clip_gradients(g, 1.0)
        after = np.sqrt(sum(float((v * v).sum()) for v in out.values()))
        assert after <= before + 1e-12


class TestTaskSpec:
    def test_explicit_agent_indices_must_exist(self):
        types = np.array([0, 1, 1, 2, 2])
        task = TaskSpec()
        assert task.resolve_agents((0, 4), types) == [0, 4]
        for bad in ((5,), (99,), (-1,), (1, 7)):
            with pytest.raises(ConfigError, match="outside 0..4"):
                task.resolve_agents(bad, types)


class TestTrainLoop:
    def test_loss_decreases_on_tiny_fixture(self, tiny_dataset):
        ckpt, logs = train(tiny_dataset, TINY_MODEL,
                           tiny_train_cfg(epochs=8))
        assert logs[-1].loss < logs[0].loss
        assert all(0.0 < l.w1 < 1.0 for l in logs)

    def test_lambda_zero_never_touches_classifier(self, tiny_dataset):
        cfg = ModelConfig(d=8, n_heads=2, sab_hidden=16, lambda_ce=0.0,
                          with_cls=True, input_channels=3)
        params = init_params(cfg, seed=7)
        from settraj.harness import _train_step
        mask = tiny_train_cfg().task.build_mask(tiny_dataset[0],
                                                np.random.default_rng(0))
        params.zero_grad()
        _train_step(tiny_dataset[0], mask, cfg, params, 1)
        cls_grad = params.named_parameters()["classifier_rffn.w1"].grad
        assert cls_grad is None or not cls_grad.any()
        out_grad = params.named_parameters()["output_rffn.w1"].grad
        assert out_grad is not None and out_grad.any()

    def test_loss_is_independent_of_field_units(self, tiny_dataset):
        # The loss lives in the normalized pitch frame, so doubling the pitch
        # and every position (exact in binary) changes neither the reported
        # loss terms nor any gradient.
        from settraj.harness import _train_step
        seq = tiny_dataset[0]
        doubled = dataclasses.replace(
            seq, positions=2.0 * seq.positions,
            pitch=PitchSpec(2.0 * seq.pitch.length, 2.0 * seq.pitch.width))
        mask = tiny_train_cfg().task.build_mask(seq, np.random.default_rng(0))
        runs = []
        for s in (seq, doubled):
            params = init_params(TINY_MODEL, seed=11)
            params.zero_grad()
            report = _train_step(s, mask, TINY_MODEL, params, 1)
            grads = {k: p.grad
                     for k, p in params.named_parameters().items()}
            runs.append((report, grads))
        (rep_a, grads_a), (rep_b, grads_b) = runs
        assert rep_a.l_ce > 0.0
        for name in ("l_ade", "l_ce", "total", "w1_value"):
            assert getattr(rep_b, name) == pytest.approx(
                getattr(rep_a, name), rel=1e-12, abs=1e-12), name
        for k, g in grads_a.items():
            np.testing.assert_allclose(grads_b[k], g, rtol=1e-12, atol=1e-12,
                                       err_msg=k)

    def test_gapped_sequence_trains_like_any_filled_copy(self, tiny_dataset):
        # Absent observations (NaN, validity 0) carry no loss weight: the
        # step is finite, and its loss and gradients do not depend on what
        # the absent cells hold. Ball inference hides no absent cell;
        # forecasting hides some of them (t >= 4 on the players), which
        # are then no targets.
        from settraj.harness import _train_step
        seq = tiny_dataset[0]
        gapped = seq.positions.copy()
        gapped[2:7, 1] = np.nan   # agent 0 is the ball
        gapped[5:9, 3] = np.nan
        valid = np.where(np.isnan(gapped[..., 0]), 0, seq.validity)
        for task in (TaskSpec(kind="inference", hidden_agents="ball"),
                     TaskSpec(kind="forecasting", predicted="players",
                              t_hat=4)):
            mask = task.build_mask(seq, np.random.default_rng(0))
            runs = []
            for positions in (gapped, np.nan_to_num(gapped, nan=3.0)):
                s = dataclasses.replace(seq, positions=positions,
                                        validity=valid)
                params = init_params(TINY_MODEL, seed=12)
                params.zero_grad()
                report = _train_step(s, mask, TINY_MODEL, params, 1)
                grads = {k: p.grad
                         for k, p in params.named_parameters().items()}
                runs.append((report, grads))
            (rep_nan, grads_nan), (rep_fill, grads_fill) = runs
            assert np.isfinite(rep_nan.total), task.kind
            assert rep_nan == rep_fill, task.kind
            for k, g in grads_fill.items():
                np.testing.assert_array_equal(grads_nan[k], g,
                                              err_msg=f"{task.kind} {k}")

    def test_without_uncertainty_mask_weights_are_binary(self):
        # with_unc_mask=False weighs hidden slots 1 and every other slot 0:
        # one step on a desk-sized labelled sequence gives the gradients of
        # a hand-built binary weighting, and no w1
        from settraj.data import normalize
        from settraj.harness import _train_step
        from settraj.masking import UncertaintyMask
        from settraj.model import forward
        from settraj.objectives import total_loss
        from settraj.tensor import Tape, backward, scale
        cfg = ModelConfig(d=32, n_heads=4, sab_hidden=64,
                          with_unc_mask=False)
        seq = generate_possession_game(1, 50, 5, rng_seed=9)[0]
        mask = TaskSpec(kind="forecasting", predicted="players").build_mask(
            seq, np.random.default_rng(0))
        params = init_params(cfg, seed=4)
        assert params.unc_theta is None
        report = _train_step(seq, mask, cfg, params, 2)
        got = {k: p.grad for k, p in params.named_parameters().items()}

        params.zero_grad()
        zeros = np.zeros_like(mask.entries)
        binary = UncertaintyMask(hidden=mask.entries.copy(), first=zeros,
                                 second=zeros.copy(), theta=None)
        target = normalize(seq.positions, seq.pitch)
        with Tape() as tape:
            out = forward(seq.inputs(channels=3), mask,
                          seq.nan_mask(), cfg, params)
            loss, want = total_loss(out.predictions, target, binary,
                                    seq.one_hot_states(cfg.n_state_classes),
                                    out.state_scores, cfg.lambda_ce)
            backward(scale(loss, 0.5), tape)
        for k, p in params.named_parameters().items():
            np.testing.assert_array_equal(got[k], p.grad, err_msg=k)
        assert (report.l_ade, report.l_ce, report.total) == \
            (want.l_ade, want.l_ce, want.total)
        hidden = mask.entries == 1
        dist = np.linalg.norm(out.predictions.values - target, axis=-1)
        assert report.l_ade == pytest.approx(dist[hidden].mean(), rel=1e-12)
        assert math.isnan(report.w1_value)

    def test_step_log_without_uncertainty_mask_has_no_w1(self, tiny_dataset):
        cfg = dataclasses.replace(TINY_MODEL, with_unc_mask=False)
        _, logs = train(tiny_dataset, cfg, tiny_train_cfg(), max_steps=1)
        assert math.isnan(logs[0].w1)

    def test_unknown_init_scheme_rejected(self, tiny_dataset):
        cfg = tiny_train_cfg(init_scheme="he_normal")
        with pytest.raises(ConfigError, match="he_normal"):
            cfg.validate()
        with pytest.raises(ConfigError):
            train(tiny_dataset, TINY_MODEL, cfg)

    def test_bad_decay_rejected(self):
        for fields in ({"weight_decay": -1.0}, {"weight_decay": np.nan},
                       {"lr_decay_factor": -2.0}, {"lr_decay_factor": 0.0},
                       {"lr_decay_factor": 1.5}, {"lr": np.nan}):
            with pytest.raises(ConfigError):
                tiny_train_cfg(**fields).validate()
        # counts: 2.5 epochs would train three, True one
        for name in ("epochs", "batch_size", "lr_decay_every"):
            for value in (2.5, True, np.int64(2)):
                with pytest.raises(ConfigError,
                                   match=f"{name} must be an integer"):
                    tiny_train_cfg(**{name: value}).validate()
        tiny_train_cfg(weight_decay=0.0, lr_decay_factor=1.0).validate()

    def test_max_steps_below_one_runs_no_step(self, tiny_dataset, tmp_path):
        for max_steps in (0, -3):
            with pytest.raises(ConfigError, match="max_steps"):
                train(tiny_dataset, TINY_MODEL, tiny_train_cfg(),
                      out_dir=tmp_path, max_steps=max_steps)
        assert not list(tmp_path.iterdir())

    def test_identical_seeds_identical_runs(self, tiny_dataset):
        a, _ = train(tiny_dataset, TINY_MODEL, tiny_train_cfg())
        b, _ = train(tiny_dataset, TINY_MODEL, tiny_train_cfg())
        for k, p in a.params.named_parameters().items():
            np.testing.assert_array_equal(
                p.values, b.params.named_parameters()[k].values)

    def test_step_log_explains_clipping(self, tiny_dataset, tmp_path):
        _, logs = train(tiny_dataset, TINY_MODEL,
                        tiny_train_cfg(grad_clip_threshold=0.05),
                        out_dir=tmp_path)
        factors = [l.clip_factor for l in logs]
        assert factors == [1.0 if l.grad_norm <= 0.05 else 0.05 / l.grad_norm
                           for l in logs]
        assert min(factors) < 1.0 and all(l.grad_norm > 0.0 for l in logs)
        rows = (tmp_path / "train_log.csv").read_text().splitlines()
        assert rows[0].endswith(",grad_norm,clip_factor")
        assert rows[1].endswith(f",{logs[0].grad_norm:.8f},{factors[0]:.8f}")
        _, logs = train(tiny_dataset, TINY_MODEL,
                        tiny_train_cfg(clip_mode="value"), max_steps=1)
        assert np.isnan(logs[0].clip_factor) and logs[0].grad_norm > 0.0

    def test_max_steps(self, tiny_dataset):
        ckpt, logs = train(tiny_dataset, TINY_MODEL,
                           tiny_train_cfg(epochs=50), max_steps=3)
        assert ckpt.step == 3 and len(logs) == 3

    def test_resume_at_the_step_cap_runs_no_step(self, tiny_dataset,
                                                 tmp_path):
        # the cap counts the checkpoint's steps: none is left to run
        part, _ = train(tiny_dataset, TINY_MODEL, tiny_train_cfg(epochs=3),
                        max_steps=3)
        before = [a.tobytes() for a in checkpoint_arrays(part)]
        ckpt, logs = train(tiny_dataset, TINY_MODEL, tiny_train_cfg(epochs=3),
                           out_dir=tmp_path, max_steps=3, resume_from=part)
        assert logs == []
        assert (ckpt.epoch, ckpt.batch, ckpt.step) == (1, 1, 3)
        saved = Checkpoint.load(tmp_path / "checkpoint_final.npz")
        assert (saved.epoch, saved.batch, saved.step) == (1, 1, 3)
        assert [a.tobytes() for a in checkpoint_arrays(saved)] == before


class TestCheckpoint:
    def test_save_load_bit_exact(self, tiny_dataset, tmp_path):
        ckpt, _ = train(tiny_dataset, TINY_MODEL, tiny_train_cfg())
        path = tmp_path / "model.npz"
        ckpt.save(path)
        loaded = Checkpoint.load(path)
        assert loaded.epoch == ckpt.epoch and loaded.step == ckpt.step
        for k, p in ckpt.params.named_parameters().items():
            restored = loaded.params.named_parameters()[k].values
            np.testing.assert_array_equal(p.values, restored)
            np.testing.assert_array_equal(ckpt.moments.m[k],
                                          loaded.moments.m[k])

    def test_resume_matches_uninterrupted(self, tiny_dataset, tmp_path):
        full, _ = train(tiny_dataset, TINY_MODEL, tiny_train_cfg(epochs=4))
        half, _ = train(tiny_dataset, TINY_MODEL, tiny_train_cfg(epochs=2))
        half.save(tmp_path / "half.npz")
        resumed_ckpt = Checkpoint.load(tmp_path / "half.npz")
        resumed, _ = train(tiny_dataset, TINY_MODEL,
                           tiny_train_cfg(epochs=4),
                           resume_from=resumed_ckpt)
        for k, p in full.params.named_parameters().items():
            np.testing.assert_array_equal(
                p.values,
                resumed.params.named_parameters()[k].values)

    @pytest.mark.parametrize("cut", range(1, 9))
    def test_resume_at_every_cut_point_matches_uninterrupted(
            self, cut, uninterrupted, tmp_path):
        # 7 sequences in batches of 3 (the last one partial), 3 epochs:
        # 9 steps, so cuts 1..8 cover every batch of every epoch
        train_seqs, val_seqs, tc, full, full_logs, full_val = uninterrupted
        part, part_logs = train(train_seqs, TINY_MODEL, tc, val_seqs=val_seqs,
                                out_dir=tmp_path / "part", max_steps=cut)
        assert (part.epoch, part.batch) == divmod(cut, 3)
        part.save(tmp_path / "part.npz")
        resumed, logs = train(train_seqs, TINY_MODEL, tc, val_seqs=val_seqs,
                              out_dir=tmp_path / "rest",
                              resume_from=Checkpoint.load(
                                  tmp_path / "part.npz"))
        assert (resumed.epoch, resumed.batch, resumed.step) \
            == (full.epoch, full.batch, full.step) == (3, 0, 9)
        assert [repr(l) for l in part_logs + logs] \
            == [repr(l) for l in full_logs]
        val = [(d / "val_log.csv").read_text().splitlines()[1:]
               for d in (tmp_path / "part", tmp_path / "rest")
               if (d / "val_log.csv").exists()]
        assert sum(val, []) == full_val
        assert [a.tobytes() for a in checkpoint_arrays(resumed)] \
            == [a.tobytes() for a in checkpoint_arrays(full)]

    def test_mid_epoch_resume_keeps_the_batch_order(self, tiny_dataset,
                                                    tmp_path):
        # 8 sequences in batches of 2: one step leaves the cursor at (0, 1)
        part, _ = train(tiny_dataset, TINY_MODEL, tiny_train_cfg(batch_size=2),
                        max_steps=1)
        assert (part.epoch, part.batch) == (0, 1)
        for change in ({"batch_size": 4}, {"seed": 4},
                       {"task": TaskSpec(kind="inference")}):
            cfg = tiny_train_cfg(**{"batch_size": 2, **change})
            with pytest.raises(ConfigError, match="cannot resume at batch 1 "
                               f"of epoch 0 in another batch order: "
                               f"{next(iter(change))} is"):
                validate_run(tiny_dataset, TINY_MODEL, cfg,
                             resume_from=part)
        # the data changed: the cursor lies past the run's 2 batches
        at_batch_3 = dataclasses.replace(part, batch=3)
        with pytest.raises(ConfigError, match="cannot resume at batch 3 of "
                           "epoch 0: this run has 2 batches an epoch"):
            train(tiny_dataset[:4], TINY_MODEL, tiny_train_cfg(batch_size=2),
                  out_dir=tmp_path, resume_from=at_batch_3)
        assert not list(tmp_path.iterdir())
        # other training settings may differ mid-epoch
        ckpt, logs = train(tiny_dataset, TINY_MODEL,
                           tiny_train_cfg(batch_size=2, lr=0.02, epochs=1),
                           resume_from=part)
        assert [l.step for l in logs] == [2, 3, 4] and ckpt.epoch == 1

    def test_epoch_boundary_resume_may_change_the_batch_order(
            self, tiny_dataset):
        part, _ = train(tiny_dataset, TINY_MODEL, tiny_train_cfg(batch_size=2),
                        max_steps=4)
        assert (part.epoch, part.batch, part.step) == (1, 0, 4)
        ckpt, logs = train(tiny_dataset, TINY_MODEL,
                           tiny_train_cfg(batch_size=8, seed=4),
                           resume_from=part)
        assert [(l.step, l.epoch) for l in logs] == [(5, 1)]
        assert (ckpt.epoch, ckpt.batch, ckpt.step) == (2, 0, 5)

    @pytest.mark.parametrize("variant", [
        {}, {"with_cls": False}, {"with_social": False},
        {"with_unc_mask": False}], ids=["desk", "no_cls", "no_social",
                                        "no_unc_mask"])
    def test_round_trip_is_bit_exact_for_every_layout(self, variant,
                                                      tmp_path):
        from settraj.model import count_parameters
        cfg = ModelConfig(d=32, n_heads=4, sab_hidden=64, **variant)
        params = init_params(cfg, seed=11)
        moments = AdamWState(params)
        rng = np.random.default_rng(12)
        for store in (moments.m, moments.v):
            for k, a in store.items():
                store[k] = rng.normal(size=a.shape)
        path = tmp_path / "model.npz"
        Checkpoint(cfg, params, moments, tiny_train_cfg(), 1, 5, 2).save(path)
        with np.load(path) as data:
            assert data["param"].shape == (count_parameters(cfg),)
        loaded = Checkpoint.load(path)
        assert (loaded.model_cfg, loaded.epoch, loaded.step,
                loaded.batch) == (cfg, 1, 5, 2)
        named = loaded.params.named_parameters()
        assert list(named) == list(params.named_parameters())
        for k, p in params.named_parameters().items():
            for want, got in ((p.values, named[k].values),
                              (moments.m[k], loaded.moments.m[k]),
                              (moments.v[k], loaded.moments.v[k])):
                assert want.shape == got.shape, k
                assert want.tobytes() == got.tobytes(), k

    def test_resume_of_a_different_model_is_refused(self, tiny_dataset,
                                                    saved_checkpoint):
        resume = Checkpoint.load(saved_checkpoint)
        for change in ({"with_unc_mask": False}, {"d": 16}):
            other = dataclasses.replace(TINY_MODEL, **change)
            with pytest.raises(ConfigError, match=next(iter(change))):
                train(tiny_dataset, other, tiny_train_cfg(epochs=2),
                      resume_from=resume)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_old_version_archive_is_rejected(self, version, saved_checkpoint,
                                             tmp_path):
        path = write_edited(saved_checkpoint, tmp_path / "old.npz", edit_meta(
            lambda m: m.update(version=version)))
        with pytest.raises(DataError, match=f"version {version}"):
            Checkpoint.load(path)

    def test_parameter_count_matches_saved_entries(self, tiny_dataset,
                                                   tmp_path):
        from settraj.model import count_parameters
        ckpt, _ = train(tiny_dataset, TINY_MODEL, tiny_train_cfg(epochs=1))
        path = tmp_path / "model.npz"
        ckpt.save(path)
        with np.load(path) as data:
            assert sorted(data.files) == ["adam_m", "adam_v", "meta", "param"]
            assert data["param"].shape == (count_parameters(TINY_MODEL),)
            assert json.loads(str(data["meta"][()]))["version"] == 4


    def test_failed_save_keeps_previous_checkpoint(self, tiny_dataset,
                                                   tmp_path, monkeypatch):
        ckpt, _ = train(tiny_dataset, TINY_MODEL, tiny_train_cfg(epochs=1))
        path = tmp_path / "model.npz"
        ckpt.save(path)
        before = path.read_bytes()

        def fail_part_way(fh, **arrays):
            fh.write(b"partial archive")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", fail_part_way)
        with pytest.raises(OSError, match="disk full"):
            ckpt.save(path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["model.npz"]
        assert Checkpoint.load(path).step == ckpt.step

    def test_missing_file_is_a_data_error(self, tmp_path):
        path = tmp_path / "nope.npz"
        with pytest.raises(DataError, match="nope.npz"):
            Checkpoint.load(path)

    def test_junk_file_is_a_data_error(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"junk")
        with pytest.raises(DataError, match="junk.npz"):
            Checkpoint.load(path)

    @pytest.mark.parametrize("name", sorted(INCOMPLETE_ARCHIVES))
    def test_incomplete_archive_is_a_data_error(self, name, saved_checkpoint,
                                                tmp_path):
        path = write_edited(saved_checkpoint, tmp_path / f"{name}.npz",
                            INCOMPLETE_ARCHIVES[name])
        with pytest.raises(DataError, match=f"{name}.npz"):
            Checkpoint.load(path)

    def test_path_without_suffix_is_written_as_given(self, tiny_dataset,
                                                     tmp_path):
        ckpt, _ = train(tiny_dataset, TINY_MODEL, tiny_train_cfg(epochs=1))
        path = tmp_path / "ckpt"
        ckpt.save(path)
        assert [f.name for f in tmp_path.iterdir()] == ["ckpt"]
        assert Checkpoint.load(path).step == ckpt.step


class TestEvaluation:
    def test_deterministic_reports(self, tiny_dataset):
        params = init_params(TINY_MODEL, seed=8)
        task = tiny_train_cfg().task
        r1, cm1 = evaluate(params, TINY_MODEL, tiny_dataset, task, seed=1)
        r2, cm2 = evaluate(params, TINY_MODEL, tiny_dataset, task, seed=1)
        assert r1 == r2
        np.testing.assert_array_equal(cm1, cm2)

    def test_confusion_rows_count_truth_frames(self, tiny_dataset):
        params = init_params(TINY_MODEL, seed=9)
        task = tiny_train_cfg().task
        _, cm = evaluate(params, TINY_MODEL, tiny_dataset, task, seed=1)
        counts = np.zeros(4, dtype=int)
        for seq in tiny_dataset:
            for s in seq.states:
                counts[s] += 1
        np.testing.assert_array_equal(cm.sum(axis=1), counts)

    def test_baseline_has_no_accuracy(self, tiny_dataset):
        report = evaluate_velocity_baseline(tiny_dataset,
                                            tiny_train_cfg().task, seed=1)
        assert report.acc is None
        assert report.ade >= 0.0 and report.d_count > 0

    def test_fde_only_for_forecasting(self, tiny_dataset):
        params = init_params(TINY_MODEL, seed=10)
        fore, _ = evaluate(params, TINY_MODEL, tiny_dataset,
                           tiny_train_cfg().task, seed=1)
        assert fore.fde is not None
        inf_task = TaskSpec(kind="inference", hidden_agents="ball")
        inf, _ = evaluate(params, TINY_MODEL, tiny_dataset, inf_task, seed=1)
        assert inf.fde is None

    def test_task_masks_validate(self, tiny_dataset):
        for kind, expected in (("forecasting", "forecasting"),
                               ("inference", "inference"),
                               ("imputation", "imputation")):
            task = TaskSpec(kind=kind, predicted="players", t_hat=4,
                            hidden_agents="ball")
            masks = build_masks(tiny_dataset, task, seed=0)
            assert all(validate_task(m) == expected for m in masks)

    def test_sequence_without_target_is_left_out(self):
        # agent 1 is absent over all of its hidden frames in sequence 0, so
        # that sequence has no target: training, evaluation and the baseline
        # give what they give without it, and raise when no sequence is left
        task = TaskSpec(kind="forecasting", predicted=(1,), t_hat=8)

        def gapped(seq):
            pos, valid = seq.positions.copy(), seq.validity.copy()
            pos[8:, 1] = np.nan
            valid[8:, 1] = 0
            return dataclasses.replace(seq, positions=pos, validity=valid)

        seqs = generate_possession_game(4, 12, 2, rng_seed=5)
        seqs[0] = gapped(seqs[0])
        rest = seqs[1:]
        assert evaluate_velocity_baseline(seqs, task) == \
            evaluate_velocity_baseline(rest, task)
        params = init_params(TINY_MODEL, seed=8)
        (got, got_cm), (want, want_cm) = (
            evaluate(params, TINY_MODEL, s, task) for s in (seqs, rest))
        assert got == want
        np.testing.assert_array_equal(got_cm, want_cm)
        cfg = tiny_train_cfg(task=task, batch_size=2)
        (a, a_logs), (b, b_logs) = (train(s, TINY_MODEL, cfg)
                                    for s in (seqs, rest))
        assert a_logs == b_logs and a.step == b.step == 4
        for name, p in a.params.named_parameters().items():
            q = b.params.named_parameters()[name]
            assert p.values.tobytes() == q.values.tobytes()
            assert a.moments.m[name].tobytes() == b.moments.m[name].tobytes()
            assert a.moments.v[name].tobytes() == b.moments.v[name].tobytes()

        none_left = [gapped(s) for s in seqs]
        with pytest.raises(EmptyMaskError):
            train(none_left, TINY_MODEL, cfg)
        with pytest.raises(EmptyMaskError):
            evaluate(params, TINY_MODEL, none_left, task)
        with pytest.raises(EmptyMaskError):
            evaluate_velocity_baseline(none_left, task)


class TestBuildMasks:
    KINDS = ("forecasting", "imputation", "inference", "percentage",
             "circle", "camera")

    @pytest.mark.parametrize("kind", KINDS)
    def test_masks_and_streams_are_the_per_sequence_ones(self, kind,
                                                         tiny_dataset,
                                                         monkeypatch):
        # each sequence's mask is what its own stream [seed, 0, 2, index]
        # gave it, and only the percentage kind, which draws, has a stream
        # made for it
        task = TaskSpec(kind=kind, predicted="players", t_hat=4,
                        radius=8.0, half_angle_deg=30.0)
        stream = np.random.default_rng
        made = []

        def counting(seed):
            made.append(tuple(seed))
            return stream(seed)

        for seed in (0, 1, 2):
            want = [task.build_mask(s, stream([seed, 0, 2, i]))
                    for i, s in enumerate(tiny_dataset)]
            with monkeypatch.context() as patch:
                patch.setattr(np.random, "default_rng", counting)
                got = build_masks(tiny_dataset, task, seed)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.entries.dtype == w.entries.dtype
                assert g.entries.shape == w.entries.shape
                assert g.entries.tobytes() == w.entries.tobytes()
        n = len(tiny_dataset)
        assert made == ([(seed, 0, 2, i) for seed in (0, 1, 2)
                         for i in range(n)] if kind == "percentage" else [])


class TestAttentionExport:
    def test_rows_sum_to_one(self, tiny_dataset, tmp_path):
        params = init_params(TINY_MODEL, seed=11)
        seq = tiny_dataset[0]
        task = TaskSpec(kind="inference", hidden_agents="ball")
        m = task.build_mask(seq, np.random.default_rng(0))
        maps = export_attention(params, TINY_MODEL, seq, m, query_agent=0,
                                out_dir=tmp_path)
        for key in ("coarse", "fine"):
            rows = maps[key]
            assert rows.shape == (seq.T, seq.N + 1)
            np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-6)
            assert (rows >= 0).all()
            assert (tmp_path / f"attention_{key}.csv").exists()

    def test_nan_agents_get_zero_weight(self, tiny_dataset, tmp_path):
        params = init_params(TINY_MODEL, seed=12)
        seq = tiny_dataset[1]
        seq.validity[:, 2] = 0
        task = TaskSpec(kind="forecasting", predicted=(1,), t_hat=4)
        m = task.build_mask(seq, np.random.default_rng(0))
        maps = export_attention(params, TINY_MODEL, seq, m, query_agent=0,
                                out_dir=tmp_path)
        assert (maps["coarse"][:, 2] == 0.0).all()
        assert (maps["fine"][:, 2] == 0.0).all()
        seq.validity[:, 2] = 1


class TestCli:
    def run_cli(self, *argv):
        from settraj.cli import main
        return main(list(argv))

    def test_full_pipeline(self, tmp_path, capsys):
        data = tmp_path / "game.csv"
        assert self.run_cli("generate-data", "--out", str(data),
                            "--n-sequences", "6", "--frames", "10",
                            "--per-team", "2", "--seed", "1") == 0
        out_dir = tmp_path / "run"
        assert self.run_cli(
            "train", "--data", str(data), "--out-dir", str(out_dir),
            "--epochs", "1", "--batch-size", "2", "--d", "8", "--heads", "2",
            "--sab-hidden", "16", "--task", "forecasting", "--t-hat", "4",
            "--seed", "1") == 0
        assert (out_dir / "checkpoint_final.npz").exists()
        assert (out_dir / "run_config.json").exists()
        assert (out_dir / "train_log.csv").exists()

        eval_dir = tmp_path / "eval"
        assert self.run_cli(
            "evaluate", "--data", str(data), "--checkpoint",
            str(out_dir / "checkpoint_final.npz"), "--out-dir",
            str(eval_dir), "--task", "forecasting", "--t-hat", "4") == 0
        metrics = (eval_dir / "metrics.csv").read_text().splitlines()
        assert metrics[0].startswith("task,mask_spec,ade")
        assert len(metrics) == 2

        base_dir = tmp_path / "base"
        assert self.run_cli("baseline", "--data", str(data), "--out-dir",
                            str(base_dir), "--task", "forecasting",
                            "--t-hat", "4") == 0

        attn_dir = tmp_path / "attn"
        assert self.run_cli(
            "export-attention", "--data", str(data), "--checkpoint",
            str(out_dir / "checkpoint_final.npz"), "--out-dir",
            str(attn_dir), "--task", "inference", "--query-agent", "0") == 0
        assert (attn_dir / "attention_coarse.csv").exists()

        pred = tmp_path / "pred.csv"
        assert self.run_cli(
            "infer", "--data", str(data), "--checkpoint",
            str(out_dir / "checkpoint_final.npz"), "--out", str(pred),
            "--task", "inference") == 0
        assert pred.exists()

    def test_missing_data_exit_code(self, tmp_path):
        assert self.run_cli("baseline", "--data",
                            str(tmp_path / "nope.csv"), "--out-dir",
                            str(tmp_path)) == 3

    def test_non_utf8_data_exit_code(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_bytes(b"seq_id,frame,agent_id,agent_type,x,y,valid,state"
                         b"\n\x80\n")
        assert self.run_cli("baseline", "--data", str(data), "--out-dir",
                            str(tmp_path)) == 3
        assert "error[data]" in capsys.readouterr().err

    def test_agent_index_out_of_range_exit_code(self, tmp_path, tiny_dataset,
                                                capsys):
        data = tmp_path / "g.csv"
        save_sequences(tiny_dataset, data)  # 5 agents
        for args in (["--predicted", "99"], ["--predicted=-1"],
                     ["--predicted", "0,5"],
                     ["--task", "inference", "--hidden-agents", "7"]):
            assert self.run_cli("baseline", "--data", str(data), "--out-dir",
                                str(tmp_path / "b"), *args) == 4, args
            assert "outside 0..4" in capsys.readouterr().err

    def test_bad_checkpoint_exit_code(self, tmp_path, tiny_dataset, capsys):
        data = tmp_path / "g.csv"
        save_sequences(tiny_dataset, data)
        junk = tmp_path / "junk.npz"
        junk.write_bytes(b"junk")
        for ckpt in (tmp_path / "missing.npz", junk):
            assert self.run_cli("evaluate", "--data", str(data),
                                "--checkpoint", str(ckpt), "--out-dir",
                                str(tmp_path / "e")) == 3
            err = capsys.readouterr().err
            assert "error[data]" in err and str(ckpt) in err

    def test_incomplete_checkpoint_exit_code(self, tmp_path, tiny_dataset,
                                             saved_checkpoint, capsys):
        data = tmp_path / "g.csv"
        save_sequences(tiny_dataset, data)

        resume = ("train", "--out-dir", str(tmp_path / "r"), "--d", "8",
                  "--heads", "2", "--sab-hidden", "16", "--epochs", "2",
                  "--resume")
        evaluate = ("evaluate", "--out-dir", str(tmp_path / "e"),
                    "--checkpoint")
        for name, edit in sorted(INCOMPLETE_ARCHIVES.items()):
            ckpt = write_edited(saved_checkpoint, tmp_path / f"{name}.npz",
                                edit)
            # refused on load, before a resumed run writes anything
            for command in (evaluate, resume):
                assert self.run_cli(*command, str(ckpt), "--data",
                                    str(data)) == 3, (name, command[0])
                err = capsys.readouterr().err
                assert "error[data]" in err and str(ckpt) in err, name
            assert not (tmp_path / "r" / "run_config.json").exists(), name

    def test_resume_of_a_different_model_exit_code(self, tmp_path,
                                                   tiny_dataset,
                                                   saved_checkpoint, capsys):
        data = tmp_path / "g.csv"
        save_sequences(tiny_dataset, data)
        tiny = ("--d", "8", "--heads", "2", "--sab-hidden", "16")
        for i, args in enumerate((tiny + ("--no-unc-mask",),
                                  ("--d", "16", "--heads", "2",
                                   "--sab-hidden", "16"))):
            out = tmp_path / f"r{i}"
            assert self.run_cli("train", "--data", str(data), "--out-dir",
                                str(out), "--resume", str(saved_checkpoint),
                                "--epochs", "2", *args) == 4, args
            assert not (out / "run_config.json").exists(), args
            assert "cannot resume a different model" in \
                capsys.readouterr().err
        out = tmp_path / "same"
        assert self.run_cli("train", "--data", str(data), "--out-dir",
                            str(out), "--resume", str(saved_checkpoint),
                            "--epochs", "2", *tiny) == 0
        assert Checkpoint.load(out / "checkpoint_final.npz").epoch == 2

    def test_resume_rules_exit_codes(self, tmp_path, tiny_dataset, capsys):
        data = tmp_path / "g.csv"
        save_sequences(tiny_dataset, data)  # 6 training sequences

        def train_cli(out, *args):
            return self.run_cli("train", "--data", str(data), "--out-dir",
                                str(tmp_path / out), "--d", "8", "--heads",
                                "2", "--sab-hidden", "16", "--epochs", "2",
                                *args)

        # in batches of 2, 2 steps stop at batch 2 of epoch 0, 3 at (1, 0)
        assert train_cli("mid", "--batch-size", "2", "--max-steps", "2") == 0
        assert train_cli("end", "--batch-size", "2", "--max-steps", "3") == 0
        mid, end = (str(tmp_path / d / "checkpoint_final.npz")
                    for d in ("mid", "end"))
        capsys.readouterr()
        assert train_cli("r1", "--batch-size", "8", "--resume", mid) == 4
        assert "cannot resume at batch 2 of epoch 0 in another batch order: " \
            "batch_size is 2 in the checkpoint, 8 here" in \
            capsys.readouterr().err
        assert not (tmp_path / "r1" / "run_config.json").exists()
        # at an epoch boundary the batch size may change: one step of 6
        assert train_cli("r2", "--batch-size", "8", "--resume", end) == 0
        ckpt = Checkpoint.load(tmp_path / "r2" / "checkpoint_final.npz")
        assert (ckpt.epoch, ckpt.batch, ckpt.step) == (2, 0, 4)
        # the step cap counts the checkpoint's steps
        capsys.readouterr()
        assert train_cli("r3", "--batch-size", "2", "--max-steps", "2",
                         "--resume", mid) == 0
        assert capsys.readouterr().out == "no steps run\n"
        ckpt = Checkpoint.load(tmp_path / "r3" / "checkpoint_final.npz")
        assert (ckpt.epoch, ckpt.batch, ckpt.step) == (0, 2, 2)

    def test_train_and_val_ratios_summing_to_one(self, tmp_path,
                                                 tiny_dataset):
        data = tmp_path / "g.csv"
        save_sequences(tiny_dataset, data)
        assert self.run_cli("train", "--data", str(data), "--out-dir",
                            str(tmp_path / "r"), "--d", "8", "--heads", "2",
                            "--sab-hidden", "16", "--epochs", "1",
                            "--train-ratio", "0.8", "--val-ratio", "0.2") == 0
        assert (tmp_path / "r" / "val_log.csv").exists()

    def test_limit_below_one_is_a_usage_error(self, tmp_path, tiny_dataset):
        data = tmp_path / "g.csv"
        save_sequences(tiny_dataset, data)
        for limit in ("0", "-1"):
            with pytest.raises(SystemExit) as exc:
                self.run_cli("baseline", "--data", str(data), "--out-dir",
                             str(tmp_path / "b"), "--limit", limit)
            assert exc.value.code == 2
        assert self.run_cli("baseline", "--data", str(data), "--out-dir",
                            str(tmp_path / "b"), "--limit", "1") == 0

    def test_bad_config_exit_code(self, tmp_path, tiny_dataset):
        data = tmp_path / "g.csv"
        save_sequences(tiny_dataset, data)
        small = ("--d", "8", "--heads", "2", "--sab-hidden", "8")
        out = tmp_path / "r"
        for bad in (("--d", "9", "--heads", "2"), small + ("--heads", "0"),
                    small + ("--heads", "-4"),
                    small + ("--weight-decay", "-1"),
                    small + ("--max-steps", "0")):
            code = self.run_cli("train", "--data", str(data), "--out-dir",
                                str(out), "--epochs", "1", *bad)
            assert code == 4, bad
            assert not (out / "run_config.json").exists(), bad

    @pytest.mark.parametrize("mode,split,message", [
        ("constant", (), "needs labeled sequences"),
        ("possession", ("--train-ratio", "0", "--val-ratio", "0.5"),
         "needs at least one sequence")], ids=["unlabeled", "empty_split"])
    def test_data_refusal_writes_no_config(self, tmp_path, capsys, mode,
                                           split, message):
        data = tmp_path / "g.csv"
        assert self.run_cli("generate-data", "--out", str(data), "--mode",
                            mode, "--n-sequences", "4", "--frames", "10",
                            "--per-team", "2") == 0
        out = tmp_path / "r"
        code = self.run_cli("train", "--data", str(data), "--out-dir",
                            str(out), "--epochs", "1", "--d", "8", "--heads",
                            "2", "--sab-hidden", "8", *split)
        assert code == 3
        assert message in capsys.readouterr().err
        assert not (out / "run_config.json").exists()


# Prints the thread count of the OpenBLAS that numpy loaded, or "none".
BLAS_PROBE = """
import ctypes, os
{imports}
import numpy
maps = "/proc/self/maps"
libs = sorted({{line.split()[-1] for line in open(maps)
                if "openblas" in line}}) if os.path.exists(maps) else []
for lib in map(ctypes.CDLL, libs):
    for sym in ("scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        if hasattr(lib, sym):
            get = getattr(lib, sym)
            get.argtypes, get.restype = [], ctypes.c_int
            print(get())
            raise SystemExit
print("none")
"""


class TestBlasPin:
    """The CLI pins BLAS to one thread before numpy loads it; the package
    itself must not import numpy first."""

    def run(self, code, **env):
        """stdout of ``python -c code`` with no thread variables set."""
        clean = {k: v for k, v in os.environ.items()
                 if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS", "SETTRAJ_DETERMINISTIC")}
        src = os.path.dirname(os.path.dirname(settraj.__file__))
        clean["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code],
                             env={**clean, **env}, capture_output=True,
                             text=True, check=True)
        return out.stdout.strip()

    def test_package_import_loads_no_numpy(self):
        # ``python -m settraj.cli`` imports the package before cli.py runs
        assert self.run("import settraj, sys\n"
                        "print('numpy' in sys.modules)") == "False"

    def test_cli_import_pins_one_thread(self):
        threads = lambda imports, **env: self.run(
            BLAS_PROBE.format(imports=imports), **env)
        default = threads("")
        if default == "none":
            pytest.skip("numpy's BLAS is not OpenBLAS")
        if default == "1":
            pytest.skip("OpenBLAS starts one thread here: nothing to pin")
        assert threads("import settraj.cli") == "1"
        # deterministic mode overrides a thread count set by the caller
        assert threads("import settraj.cli",
                       OPENBLAS_NUM_THREADS=default) == "1"
        assert threads("import settraj.cli",
                       SETTRAJ_DETERMINISTIC="0") == default
