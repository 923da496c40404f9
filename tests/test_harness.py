"""Optimizer, schedule, clipping, checkpointing, evaluation, CLI."""

import dataclasses
import json

import numpy as np
import pytest

from settraj.data import PitchSpec, generate_possession_game, save_sequences
from settraj.errors import NumericsError
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


class TestAdamW:
    def test_zero_grads_no_decay_keeps_params(self):
        params = init_params(TINY_MODEL, seed=1)
        before = {k: p.tensor.values.copy()
                  for k, p in params.named_parameters().items()}
        grads = {k: np.zeros_like(v) for k, v in before.items()}
        adamw_step(params, grads, AdamWState(params), t=1,
                   cfg=tiny_train_cfg(weight_decay=0.0))
        for k, p in params.named_parameters().items():
            np.testing.assert_array_equal(p.tensor.values, before[k])

    def test_first_step_moves_by_lr(self):
        params = init_params(TINY_MODEL, seed=2)
        name = "unc_theta"
        params.named_parameters()[name].tensor.values[...] = 1.0
        grads = {k: np.zeros_like(p.tensor.values)
                 for k, p in params.named_parameters().items()}
        grads[name] = np.ones_like(grads[name])
        adamw_step(params, grads, AdamWState(params), t=1,
                   cfg=tiny_train_cfg(lr=0.1, weight_decay=0.0, adam_eps=1e-4))
        moved = float(params.named_parameters()[name].tensor.values[0])
        assert abs(moved - 0.9) < 1e-3

    def test_pure_decay_shrink(self):
        cfg = tiny_train_cfg(lr=0.1, weight_decay=0.5)
        params = init_params(TINY_MODEL, seed=3)
        before = {k: p.tensor.values.copy()
                  for k, p in params.named_parameters().items()}
        grads = {k: np.zeros_like(v) for k, v in before.items()}
        adamw_step(params, grads, AdamWState(params), t=1, cfg=cfg)
        for k, p in params.named_parameters().items():
            np.testing.assert_allclose(p.tensor.values,
                                       before[k] * (1 - 0.1 * 0.5),
                                       atol=1e-12)

    def test_nonfinite_grads_abort(self):
        params = init_params(TINY_MODEL, seed=4)
        grads = {k: np.zeros_like(p.tensor.values)
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
        out = clip_gradients(g, 5.0)
        np.testing.assert_array_equal(out["a"], [3.0])

    def test_norm_halved(self):
        g = {"a": np.array([6.0, 8.0])}
        out = clip_gradients(g, 5.0)
        np.testing.assert_allclose(np.linalg.norm(out["a"]), 5.0)

    def test_global_norm_spans_parameters(self):
        g = {"a": np.array([3.0]), "b": np.array([4.0])}
        out = clip_gradients(g, 2.5)
        total = np.sqrt(sum(float((v * v).sum()) for v in out.values()))
        np.testing.assert_allclose(total, 2.5)

    def test_zero_grads_unchanged(self):
        g = {"a": np.zeros(3)}
        np.testing.assert_array_equal(clip_gradients(g, 5.0)["a"],
                                      np.zeros(3))

    def test_value_mode(self):
        g = {"a": np.array([-9.0, 0.5])}
        out = clip_gradients(g, 2.0, mode="value")
        np.testing.assert_array_equal(out["a"], [-2.0, 0.5])

    def test_clip_never_grows_norm(self):
        rng = np.random.default_rng(6)
        g = {"a": rng.normal(size=7), "b": rng.normal(size=3)}
        before = np.sqrt(sum(float((v * v).sum()) for v in g.values()))
        out = clip_gradients(g, 1.0)
        after = np.sqrt(sum(float((v * v).sum()) for v in out.values()))
        assert after <= before + 1e-12


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
        cls_grad = params.named_parameters()["classifier_rffn.w1"].tensor.grad
        assert cls_grad is None or not cls_grad.any()
        out_grad = params.named_parameters()["output_rffn.w1"].tensor.grad
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
            grads = {k: p.tensor.grad
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
        # the absent cells hold.
        from settraj.harness import _train_step
        seq = tiny_dataset[0]
        gapped = seq.positions.copy()
        gapped[2:7, 1] = np.nan   # agent 0 is the ball, the hidden agent
        gapped[5:9, 3] = np.nan
        valid = np.where(np.isnan(gapped[..., 0]), 0, seq.validity)
        mask = TaskSpec(kind="inference", hidden_agents="ball").build_mask(
            seq, np.random.default_rng(0))
        runs = []
        for positions in (gapped, np.nan_to_num(gapped, nan=3.0)):
            s = dataclasses.replace(seq, positions=positions, validity=valid)
            params = init_params(TINY_MODEL, seed=12)
            params.zero_grad()
            report = _train_step(s, mask, TINY_MODEL, params, 1)
            grads = {k: p.tensor.grad
                     for k, p in params.named_parameters().items()}
            runs.append((report, grads))
        (rep_nan, grads_nan), (rep_fill, grads_fill) = runs
        assert np.isfinite(rep_nan.total)
        assert rep_nan == rep_fill
        for k, g in grads_fill.items():
            np.testing.assert_array_equal(grads_nan[k], g, err_msg=k)

    def test_identical_seeds_identical_runs(self, tiny_dataset):
        a, _ = train(tiny_dataset, TINY_MODEL, tiny_train_cfg())
        b, _ = train(tiny_dataset, TINY_MODEL, tiny_train_cfg())
        for k, p in a.params.named_parameters().items():
            np.testing.assert_array_equal(
                p.tensor.values, b.params.named_parameters()[k].tensor.values)

    def test_max_steps(self, tiny_dataset):
        ckpt, logs = train(tiny_dataset, TINY_MODEL,
                           tiny_train_cfg(epochs=50), max_steps=3)
        assert ckpt.step == 3 and len(logs) == 3


class TestCheckpoint:
    def test_save_load_bit_exact(self, tiny_dataset, tmp_path):
        ckpt, _ = train(tiny_dataset, TINY_MODEL, tiny_train_cfg())
        path = tmp_path / "model.npz"
        ckpt.save(path)
        loaded = Checkpoint.load(path)
        assert loaded.epoch == ckpt.epoch and loaded.step == ckpt.step
        for k, p in ckpt.params.named_parameters().items():
            restored = loaded.params.named_parameters()[k].tensor.values
            np.testing.assert_array_equal(p.tensor.values, restored)
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
                p.tensor.values,
                resumed.params.named_parameters()[k].tensor.values)

    def test_parameter_count_matches_saved_entries(self, tiny_dataset,
                                                   tmp_path):
        from settraj.model import count_parameters
        ckpt, _ = train(tiny_dataset, TINY_MODEL, tiny_train_cfg(epochs=1))
        path = tmp_path / "model.npz"
        ckpt.save(path)
        with np.load(path) as data:
            saved = sum(int(np.prod(data[k].shape)) for k in data.files
                        if k.startswith("param:"))
        assert saved == count_parameters(TINY_MODEL)


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

    def test_bad_config_exit_code(self, tmp_path, tiny_dataset):
        data = tmp_path / "g.csv"
        save_sequences(tiny_dataset, data)
        code = self.run_cli("train", "--data", str(data), "--out-dir",
                            str(tmp_path / "r"), "--d", "9", "--heads", "2",
                            "--epochs", "1")
        assert code == 4
