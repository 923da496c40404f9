"""Acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all
even when green). Stated runtime budgets are asserted.
"""

import itertools
import time

import numpy as np

from settraj import tensor as tx
from settraj.attention import masked_attention
from settraj.data import generate_possession_game
from settraj.harness import (
    Checkpoint,
    TaskSpec,
    TrainConfig,
    evaluate,
    evaluate_velocity_baseline,
    export_attention,
    train,
)
from settraj.masking import (
    ObservationMask,
    build_forecasting_mask,
    build_inference_mask,
    build_percentage_mask,
    build_uncertainty_mask,
)
from settraj.model import ModelConfig, forward, init_params
from settraj.objectives import (
    accuracy_metric,
    ade_loss,
    ade_metric,
    ce_loss,
    fde_metric,
    max_err_metric,
    total_loss,
)
from settraj.tensor import DiffTensor, Tape, backward

from test_objectives import (
    brute_acc,
    brute_ade,
    brute_fde,
    brute_max_err,
    unc_from_entries,
)
from test_masking import brute_force_uncertainty_column


def report(number, ok, detail):
    print(f"\nACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


TINY = ModelConfig(d=8, n_heads=2, sab_hidden=16, n_state_classes=4,
                   input_channels=3)


def tiny_instance(seed, T=6, N=4):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(T, N, 3))
    types = np.zeros(N)
    types[1:1 + (N - 1) // 2] = 1
    types[1 + (N - 1) // 2:] = 2
    x[..., 2] = types
    return x


def random_task_mask(kind, T, N, rng):
    if kind == "forecasting":
        t_hat = int(rng.integers(1, T - 1))
        agents = [int(a) for a in
                  rng.choice(N, size=int(rng.integers(1, N)), replace=False)]
        return build_forecasting_mask(T, t_hat, agents, N)
    if kind == "inference":
        hidden = [int(rng.integers(0, N))]
        return build_inference_mask(T, hidden, N)
    agent = int(rng.integers(0, N))
    m = build_percentage_mask(T, N, agent, 0.5, rng)
    if m.entries[:, agent].all() or not m.entries.any():
        m.entries[0, agent] = 0
        m.entries[1, agent] = 1
    return m


def test_criterion_01_gradient_correctness():
    t0 = time.monotonic()
    rng = np.random.default_rng(100)

    checks = []

    def op_check(name, f, x, step=1e-5):
        rep = tx.grad_check(f, x, step=step, tol=1e-4)
        checks.append((name, rep.max_rel_error))
        return rep.passed

    b = DiffTensor(rng.normal(size=(4, 3)))
    ok = op_check("matmul", lambda a: tx.matmul(a, b).sum(),
                  DiffTensor(rng.normal(size=(2, 4))))
    mix1 = DiffTensor(rng.normal(size=(2, 5)))
    ok &= op_check("softmax_rows",
                   lambda x: tx.mul(tx.softmax_rows(x), mix1).sum(),
                   DiffTensor(rng.normal(size=(2, 5))))
    g0, b0 = DiffTensor(rng.normal(size=4)), DiffTensor(rng.normal(size=4))
    mix2 = DiffTensor(rng.normal(size=(2, 4)))
    ok &= op_check("layer_norm",
                   lambda x: tx.mul(tx.layer_norm(x, g0, b0), mix2).sum(),
                   DiffTensor(rng.normal(size=(2, 4))))
    w0, bias0 = DiffTensor(rng.normal(size=(3, 5))), DiffTensor(rng.normal(size=5))
    mix3 = DiffTensor(rng.normal(size=(2, 5)))
    ok &= op_check("affine",
                   lambda x: tx.mul(tx.affine(x, w0, bias0), mix3).sum(),
                   DiffTensor(rng.normal(size=(2, 3))))
    ok &= op_check("relu", lambda x: tx.mul(tx.relu(x), tx.relu(x)).sum(),
                   DiffTensor(rng.normal(size=6) + 0.1))
    ok &= op_check("sigmoid", lambda x: tx.mul(tx.sigmoid(x),
                                               tx.sigmoid(x)).sum(),
                   DiffTensor(rng.normal(size=5)))
    c0 = DiffTensor(rng.normal(size=(2, 3)))
    ok &= op_check("add/scale/mul",
                   lambda x: tx.mul(tx.add(tx.scale(x, 1.7), c0), x).sum(),
                   DiffTensor(rng.normal(size=(2, 3))))
    den = DiffTensor(rng.normal(size=(2, 3)) + 4.0)
    ok &= op_check("div", lambda x: tx.div(tx.mul(x, x), den).sum(),
                   DiffTensor(rng.normal(size=(2, 3))))
    ok &= op_check("concat/split",
                   lambda x: tx.mul(tx.concat_axis(
                       tx.split_axis(x, [2, 2], axis=1), axis=1), x).sum(),
                   DiffTensor(rng.normal(size=(3, 4))))
    mix4 = DiffTensor(rng.normal(size=(1, 6)))
    ok &= op_check("transpose/reshape",
                   lambda x: tx.mul(tx.reshape(tx.transpose(x, (1, 0)),
                                               (1, 6)), mix4).sum(),
                   DiffTensor(rng.normal(size=(2, 3))))
    ok &= op_check("euclidean_norm",
                   lambda x: tx.euclidean_norm(x).sum(),
                   DiffTensor(rng.normal(size=(3, 2)) + 2.0))
    ok &= op_check("log_clamped",
                   lambda x: tx.log_clamped(tx.mul(x, x)).sum(),
                   DiffTensor(rng.normal(size=4) + 3.0))

    km = np.array([[0.0, 1, 0], [0, 0, 0], [1, 1, 1]])
    kk = DiffTensor(rng.normal(size=(3, 4)))
    vv = DiffTensor(rng.normal(size=(3, 4)))

    def attn(x):
        out, _ = masked_attention(x, kk, vv, km)
        return tx.mul(out, out).sum()

    ok &= op_check("masked_attention", attn, DiffTensor(rng.normal(size=(3, 4))))

    # full tiny model: every parameter against central finite differences
    params = init_params(TINY, seed=101)
    x = tiny_instance(102)
    m = build_forecasting_mask(6, 3, [1, 2], 4)
    m.entries[2, 3] = 1  # an isolated hidden slot adds boundary neighbors
    target = np.random.default_rng(103).normal(size=(6, 4, 2))
    s = np.eye(4)[np.random.default_rng(104).integers(0, 4, size=6)]

    def model_loss():
        out = forward(x, m, None, TINY, params)
        m_unc = build_uncertainty_mask(m, params.unc_theta)
        loss, _ = total_loss(out.predictions, target, m_unc, s,
                             out.state_scores, TINY.lambda_ce)
        return loss

    params.zero_grad()
    with Tape() as tape:
        for p in params.named_parameters().values():
            tape.watch(p)
        backward(model_loss(), tape)

    worst = 0.0
    step = 1e-5
    for name, p in params.named_parameters().items():
        analytic = p.grad
        flat = p.values.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = model_loss().item()
            flat[i] = orig - step
            fm = model_loss().item()
            flat[i] = orig
            numeric = (fp - fm) / (2 * step)
            a = analytic.reshape(-1)[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1.0)
            worst = max(worst, rel)
    ok &= worst < 1e-4

    elapsed = time.monotonic() - t0
    ok &= elapsed < 60.0
    worst_op = max(checks, key=lambda c: c[1])
    report(1, ok, f"op max rel err {worst_op[1]:.2e} ({worst_op[0]}), "
                  f"full-model max rel err {worst:.2e} "
                  f"over {params.n_parameters()} params, {elapsed:.1f}s")


def test_criterion_02_equivariance_invariance():
    t0 = time.monotonic()
    params = init_params(TINY, seed=110)
    worst_traj, worst_scores = 0.0, 0.0
    kinds = ["forecasting", "inference", "imputation"]
    for i in range(50):
        rng = np.random.default_rng([111, i])
        T, N = 6, 5
        x = tiny_instance(int(rng.integers(1 << 30)), T=T, N=N)
        m = random_task_mask(kinds[i % 3], T, N, rng)
        out = forward(x, m, None, TINY, params)
        perm = rng.permutation(N)
        out_p = forward(x[:, perm],
                        ObservationMask(m.entries[:, perm]), None,
                        TINY, params)
        worst_traj = max(worst_traj, np.abs(
            out_p.trajectories - out.trajectories[:, perm]).max())
        worst_scores = max(worst_scores, np.abs(
            out_p.state_scores.values - out.state_scores.values).max())
    elapsed = time.monotonic() - t0
    ok = worst_traj < 1e-9 and worst_scores < 1e-9 and elapsed < 30.0
    report(2, ok, f"50 instances over 3 task kinds: trajectory dev "
                  f"{worst_traj:.2e}, state-score dev {worst_scores:.2e}, "
                  f"{elapsed:.1f}s")


def test_criterion_03_mask_semantics():
    t0 = time.monotonic()
    params = init_params(TINY, seed=120)
    ok = True

    # (a) visible passthrough, exhaustive over all masks on [3 x 2]
    x = tiny_instance(121, T=3, N=2)
    for bits in itertools.product((0, 1), repeat=6):
        m = ObservationMask(np.array(bits).reshape(3, 2))
        out = forward(x, m, None, TINY, params)
        visible = m.entries == 0
        ok &= (out.trajectories[visible] == x[..., :2][visible]).all()

    # (b) NaN-slot value invariance, exhaustive disjoint (m, nan) on [2 x 2]
    x2 = tiny_instance(122, T=2, N=2)
    for states in itertools.product((0, 1, 2), repeat=4):
        m = np.array([s == 1 for s in states], dtype=int).reshape(2, 2)
        nan = np.array([s == 2 for s in states], dtype=int).reshape(2, 2)
        out1 = forward(x2, ObservationMask(m), nan, TINY, params)
        x_mod = x2.copy()
        x_mod[..., :2][nan == 1] = 123.456
        out2 = forward(x_mod, ObservationMask(m), nan, TINY, params)
        ok &= (out1.trajectories == out2.trajectories).all()
        ok &= (out1.state_scores.values == out2.state_scores.values).all()

    # (c, d) attention-level exclusion, exhaustive key masks on [2 x 3]
    rng = np.random.default_rng(123)
    q = DiffTensor(rng.normal(size=(2, 4)))
    k = rng.normal(size=(3, 4))
    v = rng.normal(size=(3, 4))
    for bits in itertools.product((0, 1), repeat=6):
        mask = np.array(bits, dtype=float).reshape(2, 3)
        out1, w1 = masked_attention(q, DiffTensor(k), DiffTensor(v), mask)
        k_mod, v_mod = k.copy(), v.copy()
        excluded_everywhere = mask.min(axis=0) == 1.0
        k_mod[excluded_everywhere] = 55.0
        v_mod[excluded_everywhere] = -55.0
        out2, _ = masked_attention(q, DiffTensor(k_mod), DiffTensor(v_mod),
                                   mask)
        ok &= (out1.values == out2.values).all()
        fully = mask.min(axis=1) == 1.0
        ok &= (w1.values[fully] == 0.0).all()
        ok &= (out1.values[fully] == 0.0).all()
        if (~fully).any():
            ok &= np.allclose(w1.values[~fully].sum(axis=-1), 1.0, atol=1e-9)

    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    report(3, ok, f"passthrough/NaN/exclusion exhaustive on small shapes, "
                  f"{elapsed:.1f}s")


def test_criterion_04_metric_and_loss_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(130)
    ok = True
    for _ in range(100):
        T, N = int(rng.integers(2, 8)), int(rng.integers(1, 5))
        pred = rng.normal(size=(T, N, 2)) * 4
        gt = rng.normal(size=(T, N, 2)) * 4
        mask = (rng.uniform(size=(T, N)) > 0.45).astype(int)
        nan = ((rng.uniform(size=(T, N)) > 0.9) & (mask == 0)).astype(int)
        if not ((mask == 1) & (nan == 0)).any():
            mask[0, 0], nan[0, 0] = 1, 0
        m = ObservationMask(mask)
        ok &= abs(ade_metric(pred, gt, m, nan)
                  - brute_ade(pred, gt, mask, nan)) < 1e-9
        ok &= abs(fde_metric(pred, gt, m, nan)
                  - brute_fde(pred, gt, mask, nan)) < 1e-9
        got, want = max_err_metric(pred, gt, m, nan), \
            brute_max_err(pred, gt, mask, nan)
        ok &= got[1] == want[1] and abs(got[0] - want[0]) < 1e-9

        S = 4
        s = np.eye(S)[rng.integers(0, S, size=T)]
        s_hat = rng.dirichlet(np.ones(S), size=T)
        ok &= abs(accuracy_metric(s, s_hat) - brute_acc(s, s_hat)) < 1e-12
        ok &= abs(ce_loss(s, DiffTensor(s_hat)).item()
                  + np.sum(s * np.log(np.maximum(s_hat, 1e-12))) / T) < 1e-9

        w = rng.choice([0.0, 0.25, 0.75, 1.0], size=(T, N))
        if w.sum() == 0:
            w[0, 0] = 1.0
        got_loss = ade_loss(DiffTensor(pred), gt, unc_from_entries(w)).item()
        dists = np.linalg.norm(pred - gt, axis=-1)
        ok &= abs(got_loss - (dists * w).sum() / w.sum()) < 1e-9

    # worked examples
    pred = np.zeros((3, 1, 2))
    pred[:, 0, 0] = [1.0, 2.5, 0.5]
    ok &= max_err_metric(pred, np.zeros((3, 1, 2)),
                         ObservationMask(np.ones((3, 1), dtype=int))) \
        == (2.5, 1)
    ok &= abs(ce_loss(np.array([[1.0, 0, 0, 0]]),
                      DiffTensor(np.full((1, 4), 0.25))).item()
              - np.log(4.0)) < 1e-12

    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    report(4, ok, f"6 metrics/losses match brute force on 100 instances "
                  f"plus worked examples, {elapsed:.1f}s")


def test_criterion_05_uncertainty_mask_rule():
    t0 = time.monotonic()
    ok = True
    w1 = 0.8
    theta = float(np.log(w1 / (1 - w1)))
    count = 0
    for L in range(1, 11):
        for bits in itertools.product((0, 1), repeat=L):
            col = np.array(bits)
            unc = build_uncertainty_mask(ObservationMask(col[:, None]), theta)
            want = brute_force_uncertainty_column(col, w1)
            ok &= np.allclose(unc.entries[:, 0], want, atol=1e-12)
            ok &= 0.0 < unc.w1 < 1.0
            count += 1

    # gradient w.r.t. theta on a boundary-error fixture
    theta_p = DiffTensor(np.float64(theta))
    m = ObservationMask(np.array([0, 0, 1, 1, 0, 0])[:, None])
    unc = build_uncertainty_mask(m, theta_p)
    pred = DiffTensor(np.linspace(0, 5, 12).reshape(6, 1, 2))
    with Tape() as tape:
        backward(ade_loss(pred, np.zeros((6, 1, 2)), unc), tape)
    ok &= theta_p.grad is not None and abs(theta_p.grad).max() > 0

    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    report(5, ok, f"all {count} binary columns of length <= 10 match the "
                  f"brute-force rule; theta grad nonzero; {elapsed:.1f}s")


OVERFIT_MODEL = ModelConfig(d=32, n_heads=4, sab_hidden=64, lambda_ce=0.0,
                            with_cls=False, input_channels=3)
OVERFIT_TASK = TaskSpec(kind="forecasting", predicted="players", t_hat=10)


def overfit_dataset():
    return generate_possession_game(64, 50, 5, rng_seed=7)


def overfit_train_cfg(**kw):
    defaults = dict(epochs=10_000, batch_size=8, lr=0.001, seed=0,
                    task=OVERFIT_TASK, lr_decay_every=10_000)
    defaults.update(kw)
    return TrainConfig(**defaults)


def test_criterion_06_tiny_overfit_beats_velocity_baseline():
    t0 = time.monotonic()
    seqs = overfit_dataset()
    baseline = evaluate_velocity_baseline(seqs, OVERFIT_TASK, seed=0)
    # The gate grades the final iterate, so the run must anneal: at a
    # constant rate the training ADE keeps swinging by metres from step to
    # step. This is the recipe's schedule (halve at epochs 20/40/60/80 of
    # 100) compressed to 300 steps, i.e. 37.5 epochs of 8 batches: halve
    # every 8 epochs, four times as in the recipe.
    ckpt, logs = train(seqs, OVERFIT_MODEL,
                       overfit_train_cfg(lr_decay_every=8), max_steps=300)
    trained, _ = evaluate(ckpt.params, OVERFIT_MODEL, seqs, OVERFIT_TASK,
                          seed=0)
    elapsed = time.monotonic() - t0
    ok = (trained.ade < 0.25 * baseline.ade
          and logs[-1].loss < logs[9].loss
          and elapsed < 600.0)
    report(6, ok, f"train ADE {trained.ade:.3f} vs 25% of baseline "
                  f"{0.25 * baseline.ade:.3f}; loss {logs[9].loss:.2f} -> "
                  f"{logs[-1].loss:.2f}; {elapsed:.0f}s")


def test_criterion_07_joint_objective_classification():
    t0 = time.monotonic()
    seqs = overfit_dataset()
    counts = np.zeros(4)
    for seq in seqs:
        for s in seq.states:
            counts[s] += 1
    majority = counts.max() / counts.sum()

    cfg = ModelConfig(d=32, n_heads=4, sab_hidden=64, lambda_ce=4.0,
                      with_cls=True, input_channels=3)
    ckpt, logs = train(seqs, cfg, overfit_train_cfg(), max_steps=300)
    trained, cm = evaluate(ckpt.params, cfg, seqs, OVERFIT_TASK, seed=0)
    elapsed = time.monotonic() - t0
    ades = [l.l_ade for l in logs]
    ok = (trained.acc is not None
          and trained.acc >= majority + 0.10
          and ades[-1] < ades[9])
    report(7, ok, f"train Acc {trained.acc:.3f} vs majority {majority:.3f} "
                  f"+ 0.10; trajectory loss {ades[9]:.2f} -> {ades[-1]:.2f}; "
                  f"{elapsed:.0f}s")


def test_criterion_08_ball_inference_degenerate_handling(tmp_path):
    seqs = generate_possession_game(2, 20, 3, rng_seed=21)
    seq = seqs[0]
    params = init_params(TINY, seed=140)
    task = TaskSpec(kind="inference", hidden_agents="ball")
    m = task.build_mask(seq, np.random.default_rng(0))
    assert (m.entries[:, seq.ball_index] == 1).all()
    maps = export_attention(params, TINY, seq, m,
                            query_agent=seq.ball_index, out_dir=tmp_path)
    ok = True
    for key in ("coarse", "fine"):
        sums = maps[key].sum(axis=1)
        ok &= np.allclose(sums, 1.0, atol=1e-6)
        ok &= np.isfinite(maps[key]).all()
    report(8, ok, "ball-inference forward runs; coarse/fine social rows for "
                  "the ball sum to 1 within 1e-6")


def test_criterion_09_reproducibility(tmp_path):
    seqs = generate_possession_game(6, 12, 2, rng_seed=22)
    cfg = TINY
    tc = TrainConfig(epochs=2, batch_size=3, lr=0.01, seed=9,
                     task=TaskSpec(kind="forecasting", predicted="players",
                                   t_hat=4))

    outputs = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        ckpt, _ = train(seqs, cfg, tc, out_dir=out_dir)
        rep, _ = evaluate(ckpt.params, cfg, seqs, tc.task, seed=9)
        from settraj.harness import write_metric_report
        write_metric_report(rep, tc.task, 9, out_dir / "metrics.csv")
        outputs.append((ckpt, (out_dir / "metrics.csv").read_bytes(),
                        (out_dir / "train_log.csv").read_bytes()))
    (ck_a, metrics_a, log_a), (ck_b, metrics_b, log_b) = outputs

    ok = metrics_a == metrics_b and log_a == log_b
    for name, p in ck_a.params.named_parameters().items():
        other = ck_b.params.named_parameters()[name].values
        ok &= (p.values == other).all()
        ok &= (ck_a.moments.m[name] == ck_b.moments.m[name]).all()

    # save -> load -> resume equals the uninterrupted run, bit-exactly
    full, _ = train(seqs, cfg, TrainConfig(**{**tc.to_dict(), "epochs": 4,
                                              "task": tc.task}))
    half, _ = train(seqs, cfg, tc)
    half.save(tmp_path / "half.npz")
    reloaded = Checkpoint.load(tmp_path / "half.npz")
    for name, p in half.params.named_parameters().items():
        ok &= (p.values
               == reloaded.params.named_parameters()[name].values).all()
    resumed, _ = train(seqs, cfg,
                       TrainConfig(**{**tc.to_dict(), "epochs": 4,
                                      "task": tc.task}),
                       resume_from=reloaded)
    for name, p in full.params.named_parameters().items():
        ok &= (p.values
               == resumed.params.named_parameters()[name].values).all()
    report(9, ok, "identical seeds give bit-identical checkpoints and metric "
                  "CSVs; save/load/resume is bit-exact")


def test_criterion_09_mid_epoch_resume(tmp_path):
    # 9 sequences in batches of 3: stopping after 4 steps leaves epoch 1
    # one batch in; the resumed run must finish it, not skip to epoch 2
    seqs = generate_possession_game(9, 12, 2, rng_seed=23)
    tc = TrainConfig(epochs=3, batch_size=3, lr=0.01, seed=9,
                     task=TaskSpec(kind="forecasting", predicted="players",
                                   t_hat=4))
    full, full_logs = train(seqs, TINY, tc)
    part, _ = train(seqs, TINY, tc, max_steps=4)
    part.save(tmp_path / "part.npz")
    reloaded = Checkpoint.load(tmp_path / "part.npz")
    resumed, logs = train(seqs, TINY, tc, resume_from=reloaded)
    ok = (reloaded.epoch, reloaded.batch, reloaded.step) == (1, 1, 4)
    ok &= [(l.step, l.epoch) for l in logs] \
        == [(l.step, l.epoch) for l in full_logs[4:]]
    ok &= (resumed.epoch, resumed.batch, resumed.step) == (3, 0, 9)
    for name, p in full.params.named_parameters().items():
        ok &= (p.values
               == resumed.params.named_parameters()[name].values).all()
    report(9, ok, "resuming a checkpoint taken mid-epoch finishes that "
                  "epoch and ends bit-exactly where the uninterrupted run "
                  "does")


def test_criterion_10_hyperparameter_fidelity():
    mc = ModelConfig()
    tc = TrainConfig()
    snapshot = {
        "d": mc.d,
        "n_heads": mc.n_heads,
        "sab_hidden": mc.sab_hidden,
        "lambda_ce": mc.lambda_ce,
        "n_state_classes": mc.n_state_classes,
        "lr": tc.lr,
        "adam_eps": tc.adam_eps,
        "lr_decay_factor": tc.lr_decay_factor,
        "lr_decay_every": tc.lr_decay_every,
        "grad_clip_threshold": tc.grad_clip_threshold,
        "batch_size": tc.batch_size,
        "epochs": tc.epochs,
        "init_scheme": tc.init_scheme,
    }
    expected = {
        "d": 128,
        "n_heads": 16,
        "sab_hidden": 512,
        "lambda_ce": 4.0,
        "n_state_classes": 4,
        "lr": 0.001,
        "adam_eps": 1e-4,
        "lr_decay_factor": 0.5,
        "lr_decay_every": 20,
        "grad_clip_threshold": 5.0,
        "batch_size": 64,
        "epochs": 100,
        "init_scheme": "xavier_normal",
    }
    ok = snapshot == expected
    diff = {k: (snapshot[k], expected[k]) for k in expected
            if snapshot[k] != expected[k]}
    report(10, ok, "default config matches the published training recipe"
           + (f"; mismatches: {diff}" if diff else ""))
