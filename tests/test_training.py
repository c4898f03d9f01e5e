"""Optimizer, training-loop, evaluation, and embedding-export tests."""

import warnings

import numpy as np
import pytest

import graphda.autodiff
import graphda.training
from graphda.autodiff import Tensor
from graphda.datasets import (Dataset, Domain, ShiftConfig, TwoDomainSampler, gen_synthetic_shift,
                              normalize, warp_image)
from graphda.model import Model, ModelConfig, load_checkpoint, config_from_tensors
from graphda.training import (
    METRICS_COLUMNS,
    STEPS_COLUMNS,
    Adam,
    DivergenceError,
    TrainConfig,
    evaluate,
    export_embeddings,
    pca_2d,
    train,
    train_step,
)


def small_model(seed=0, input_dim=3, num_classes=2, hidden=5, phi=4):
    cfg = ModelConfig(input_dims=(input_dim,), num_classes=num_classes,
                      hidden=hidden, phi_dim=phi, backbone_hidden=4)
    return Model.init(cfg, np.random.default_rng(seed))


def shift_data(seed=0, per_class=20, sigma=0.8, rotation=45.0):
    rng = np.random.default_rng(seed)
    cfg = ShiftConfig(num_classes=2, dim=2, per_class=per_class,
                      rotation_deg=rotation, noise_sigma=sigma)
    return gen_synthetic_shift(cfg, rng)


def tiny_cfg(**kw):
    defaults = dict(epochs=2, batch_size=8, hidden=8, phi_dim=8, backbone_hidden=8,
                    threshold_percentile=30.0, seed=1)
    defaults.update(kw)
    return TrainConfig(**defaults)


# -- Adam ------------------------------------------------------------------------


def test_adam_first_step_scalar():
    # param 1, grad 1, lr 1e-3: mhat=vhat=1, step = lr/(1+eps) => ~0.999000
    p = Tensor(np.array(1.0))
    p.grad = np.array(1.0)
    opt = Adam([("p", p)], lr=0.001)
    opt.step()
    expected = 1.0 - 0.001 * 1.0 / (1.0 + 1e-8)
    assert abs(float(p.data) - expected) < 1e-15
    assert round(float(p.data), 6) == 0.999


def test_adam_zero_grad_zero_decay_is_identity():
    x0 = np.array([1.5, -2.0, 0.25])
    p = Tensor(x0.copy())
    p.grad = np.zeros(3)
    opt = Adam([("p", p)], lr=0.1)
    for _ in range(5):
        opt.step()
    assert np.array_equal(p.data, x0)


def test_adam_none_grad_treated_as_zero():
    p = Tensor(np.ones(2))
    opt = Adam([("p", p)], lr=0.1)
    opt.step()
    assert np.array_equal(p.data, np.ones(2))


def test_adam_coupled_decay_moves_zero_grad_param():
    # wd couples into the gradient, so even grad-free params shrink
    p = Tensor(np.array(1.0))
    p.grad = np.array(0.0)
    opt = Adam([("p", p)], lr=0.001, weight_decay=0.01)
    opt.step()
    g = 0.01  # wd * param
    expected = 1.0 - 0.001 * g / (abs(g) + 1e-8)
    assert abs(float(p.data) - expected) < 1e-12


def test_adam_matches_reference_over_steps():
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=(4, 3))
    p = Tensor(x0.copy())
    opt = Adam([("p", p)], lr=0.01, weight_decay=0.001)
    ref, m, v = x0.copy(), np.zeros_like(x0), np.zeros_like(x0)
    b1, b2, eps, wd, lr = 0.9, 0.999, 1e-8, 0.001, 0.01
    for t in range(1, 8):
        g = rng.normal(size=(4, 3))
        p.grad = g.copy()
        opt.step()
        gd = g + wd * ref
        m = b1 * m + (1 - b1) * gd
        v = b2 * v + (1 - b2) * gd * gd
        ref = ref - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        assert np.allclose(p.data, ref, rtol=1e-12, atol=1e-14)


def _adam_per_parameter_step(params, state, t, lr, wd, b1=0.9, b2=0.999, eps=1e-8):
    """The per-parameter Adam loop, frozen as the bit reference of the flat step."""
    bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    for name, p in params:
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if wd:
            g = g + wd * p.data
        m, v = state[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.data = p.data - lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


@pytest.mark.parametrize("wd", [0.0, 1e-3])
def test_adam_flat_step_bit_equal_to_per_parameter_loop(wd):
    rng = np.random.default_rng(4)
    shapes = {"w": (4, 3), "b": (3,), "s": (), "no_grad": (2, 2)}
    init = {n: rng.normal(size=shape) for n, shape in shapes.items()}
    init["w"][0, :2] = (0.0, -0.0)
    flat = [(n, Tensor(x.copy())) for n, x in init.items()]
    ref = [(n, Tensor(x.copy())) for n, x in init.items()]
    state = {n: (np.zeros(shape), np.zeros(shape)) for n, shape in shapes.items()}
    opt = Adam(flat, lr=0.01, weight_decay=wd)
    for step in range(1, 10):
        for (n, p), (_, q) in zip(flat, ref):
            g = None if n == "no_grad" else rng.normal(size=shapes[n]) * (step % 3 != 0)
            if g is not None and g.ndim:
                g.flat[0] = -0.0
            p.grad = q.grad = g
        opt.step()
        _adam_per_parameter_step(ref, state, step, 0.01, wd)
        for (n, p), (_, q) in zip(flat, ref):
            assert p.data.shape == q.data.shape, n
            assert np.array_equal(p.data.view(np.int64), q.data.view(np.int64)), (n, step)


def test_adam_state_is_per_parameter():
    a, b = Tensor(np.array(1.0)), Tensor(np.array(1.0))
    opt = Adam([("a", a), ("b", b)], lr=0.001)
    a.grad = np.array(1.0)
    b.grad = np.array(0.0)
    opt.step()
    assert float(a.data) != 1.0
    assert float(b.data) == 1.0


def test_adam_rejects_duplicate_names():
    p = Tensor(np.zeros(2))
    with pytest.raises(ValueError, match="duplicate"):
        Adam([("p", p), ("p", p)])


# -- TrainConfig -----------------------------------------------------------------


@pytest.mark.parametrize("bad", [
    dict(batch_size=7),
    dict(batch_size=0),
    dict(lr=0.0),
    dict(weight_decay=-1e-3),
    dict(epochs=0),
    dict(checkpoint_every=0),
    dict(epsilon=1.0),
    dict(epsilon=0.0),
    dict(margin=0.0),
    dict(threshold=0.0),
    dict(threshold_percentile=101.0),
    dict(threshold_percentile=-1.0),
    dict(lg_features="logits"),
    dict(loss_weights=(1.0, 1.0)),
    dict(loss_weights=(1.0, -1.0, 1.0)),
    dict(warmup_epochs=-1),
    dict(seed=-1),
    # non-finite values, which plain comparisons let through
    dict(threshold=float("nan"), threshold_percentile=None),
    dict(threshold=float("inf")),
    dict(lr=float("nan")),
    dict(lr=float("inf")),
    dict(margin=float("nan")),
    dict(weight_decay=float("nan")),
    dict(weight_decay=float("inf")),
    dict(kernel_scales=(float("nan"), 1.0)),
    dict(kernel_scales=(0.0, 1.0)),
    dict(kernel_scales=()),
    dict(loss_weights=(float("nan"), 1.0, 1.0)),
    dict(loss_weights=(1.0, float("inf"), 1.0)),
])
def test_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        TrainConfig(**bad)


def test_config_defaults_follow_protocol():
    cfg = TrainConfig()
    assert cfg.lr == 0.001
    assert cfg.weight_decay == 1e-6
    assert cfg.batch_size == 256
    assert cfg.threshold == 150.0
    assert cfg.epsilon == 0.97
    assert cfg.margin == 2.0


# -- evaluate --------------------------------------------------------------------


def test_evaluate_never_positive_flags_undefined_precision():
    model = small_model()
    for _, p in model.parameters():
        p.data = np.zeros_like(p.data)
    # all-zero logits tie; argmax picks class 0, so class 1 is never predicted
    feats = np.random.default_rng(0).normal(size=(10, 3))
    labels = np.array([0] * 6 + [1] * 4)
    ev = evaluate(model.infer(feats)[1], labels, positive_class=1)
    assert ev.precision == 0.0
    assert not ev.precision_defined
    assert ev.accuracy == 0.6
    assert ev.confusion[:, 1].sum() == 0


def test_evaluate_always_positive_on_balanced_gives_half():
    model = small_model()
    for _, p in model.parameters():
        p.data = np.zeros_like(p.data)
    model.params["fc2/b"].data = np.array([-4.0, 4.0])
    feats = np.random.default_rng(1).normal(size=(12, 3))
    labels = np.array([0, 1] * 6)
    ev = evaluate(model.infer(feats)[1], labels, positive_class=1)
    assert ev.precision == 0.5
    assert ev.precision_defined
    assert ev.accuracy == 0.5


def test_evaluate_matches_per_sample_oracle():
    model = small_model(seed=5, num_classes=3)
    rng = np.random.default_rng(6)
    feats = rng.normal(size=(25, 3))
    labels = rng.integers(0, 3, size=25)
    ev = evaluate(model.infer(feats, chunk=4)[1], labels, positive_class=2)
    confusion = np.zeros((3, 3), dtype=np.int64)
    for i in range(25):
        pred = int(np.argmax(model.infer(feats[i:i + 1])[1][0]))
        confusion[labels[i], pred] += 1
    assert np.array_equal(ev.confusion, confusion)
    assert ev.accuracy == np.trace(confusion) / 25
    col = confusion[:, 2].sum()
    assert ev.precision == (confusion[2, 2] / col if col else 0.0)


def test_inference_chunk_size_changes_no_bit():
    # the default widths; a one-row chunk is a BLAS gemv and a 7-row chunk ends in
    # edge kernels, which round some last bits differently, so those only match closely
    model = Model.init(ModelConfig(input_dims=(1, 16, 16), num_classes=2),
                       np.random.default_rng(40))
    n = 150
    assert len(model.chunks(n)) == 3  # 64 rows of 2**14 input values by default
    feats = np.random.default_rng(41).normal(size=(n, 1, 16, 16))
    want = model.infer(feats, chunk=n)
    for chunk in (None, 32, 512, 1, 7):
        got = model.infer(feats, chunk=chunk)
        for a, b in zip(got, want):
            if chunk in (1, 7):
                assert np.allclose(a, b, rtol=1e-12, atol=0), chunk
            else:
                assert np.array_equal(a.view(np.int64), b.view(np.int64)), chunk
        assert np.array_equal(np.argmax(got[1], axis=1), np.argmax(want[1], axis=1))


def test_evaluate_validates_inputs():
    _, probs = small_model().infer(np.zeros((4, 3)))
    with pytest.raises(ValueError, match="labels"):
        evaluate(probs, np.array([0, 1]))
    with pytest.raises(ValueError, match="known classes"):
        evaluate(probs, np.array([0, 1, -1, 0]))
    with pytest.raises(ValueError, match="positive class"):
        evaluate(probs, np.array([0, 1, 0, 1]), positive_class=5)


# -- train loop ------------------------------------------------------------------


def read_lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def test_train_smoke_artifacts(tmp_path):
    src, tgt, ev = shift_data()
    model, hist = train(tiny_cfg(), src, tgt, eval_labels=ev, run_dir=tmp_path)
    assert len(hist) == 2
    metrics = read_lines(tmp_path / "metrics.csv")
    assert metrics[0] == METRICS_COLUMNS
    assert len(metrics) == 3
    steps = read_lines(tmp_path / "steps.csv")
    assert steps[0] == STEPS_COLUMNS
    # half = 4, larger domain 40 rows: 10 steps per epoch
    assert len(steps) == 1 + 2 * 10
    assert (tmp_path / "pseudo.csv").exists()
    assert (tmp_path / "checkpoint_epoch002.hdap").exists()
    final = (tmp_path / "checkpoint_final.hdap").read_bytes()
    assert final == (tmp_path / "checkpoint_epoch002.hdap").read_bytes()


def test_train_metrics_rows_parse_and_sum(tmp_path):
    src, tgt, ev = shift_data(seed=3)
    train(tiny_cfg(), src, tgt, eval_labels=ev, run_dir=tmp_path)
    for line in read_lines(tmp_path / "metrics.csv")[1:]:
        f = line.split(",")
        assert len(f) == 11
        l_mmd, l_g, l_ce, l_total = map(float, f[3:7])
        assert abs(l_total - (l_mmd + l_g + l_ce)) < 1e-9
        assert 0.0 <= float(f[7]) <= 1.0


def test_train_without_eval_labels_reports_nan(tmp_path):
    src, tgt, _ = shift_data(seed=4)
    _, hist = train(tiny_cfg(), src, tgt, run_dir=tmp_path)
    assert np.isnan(hist[0].precision) and np.isnan(hist[0].accuracy)
    row = read_lines(tmp_path / "metrics.csv")[1].split(",")
    assert row[1] == "nan" and row[2] == "nan"
    # without target truth every cross/target edge has an unknown endpoint
    assert hist[0].edges_unknown > 0


def test_train_with_eval_labels_has_no_unknown_edges(tmp_path):
    src, tgt, ev = shift_data(seed=5)
    _, hist = train(tiny_cfg(), src, tgt, eval_labels=ev, run_dir=tmp_path)
    assert hist[0].edges_unknown == 0
    assert hist[0].edges_right + hist[0].edges_wrong > 0


def test_train_is_deterministic(tmp_path):
    src, tgt, ev = shift_data(seed=6)
    a, b = tmp_path / "a", tmp_path / "b"
    train(tiny_cfg(epochs=3), src, tgt, eval_labels=ev, run_dir=a)
    train(tiny_cfg(epochs=3), src, tgt, eval_labels=ev, run_dir=b)
    for name in ("metrics.csv", "steps.csv", "pseudo.csv", "checkpoint_final.hdap"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_eval_labels_do_not_touch_training(tmp_path):
    # identical weights and losses with and without the observer labels
    src, tgt, ev = shift_data(seed=7)
    a, b = tmp_path / "with", tmp_path / "without"
    train(tiny_cfg(epochs=3), src, tgt, eval_labels=ev, run_dir=a)
    train(tiny_cfg(epochs=3), src, tgt, run_dir=b)
    assert (a / "checkpoint_final.hdap").read_bytes() == (b / "checkpoint_final.hdap").read_bytes()
    assert (a / "steps.csv").read_bytes() == (b / "steps.csv").read_bytes()
    assert (a / "pseudo.csv").read_bytes() == (b / "pseudo.csv").read_bytes()
    for ra, rb in zip(read_lines(a / "metrics.csv")[1:], read_lines(b / "metrics.csv")[1:]):
        assert ra.split(",")[3:8] == rb.split(",")[3:8]


def test_seed_changes_the_run(tmp_path):
    src, tgt, ev = shift_data(seed=8)
    a, b = tmp_path / "a", tmp_path / "b"
    train(tiny_cfg(seed=1), src, tgt, eval_labels=ev, run_dir=a)
    train(tiny_cfg(seed=2), src, tgt, eval_labels=ev, run_dir=b)
    assert (a / "checkpoint_final.hdap").read_bytes() != (b / "checkpoint_final.hdap").read_bytes()


def test_loss_decreases_early_without_shift(tmp_path):
    # rotation 0: pure fitting, so the first 10 steps should make headway on
    # the classification term on average; the separation term on the backbone
    # features of 8-row batches may rise meanwhile
    first, tenth = [], []
    for s in range(5):
        src, tgt, ev = shift_data(seed=20 + s, per_class=40, rotation=0.0)
        d = tmp_path / f"run{s}"
        train(tiny_cfg(epochs=1, seed=s), src, tgt, eval_labels=ev, run_dir=d)
        ce = [float(r.split(",")[3]) for r in read_lines(d / "steps.csv")[1:11]]
        assert len(ce) == 10
        first.append(ce[0])
        tenth.append(ce[9])
    assert np.mean(tenth) < np.mean(first)


def test_divergence_aborts_with_dump(tmp_path):
    src, tgt, ev = shift_data(seed=9)
    cfg = tiny_cfg(epochs=5, lr=1e100)
    with pytest.raises(DivergenceError, match="non-finite"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflow IS the point
        train(cfg, src, tgt, eval_labels=ev, run_dir=tmp_path)
    dump = (tmp_path / "divergence.txt").read_text()
    assert "step" in dump and "target_ids" in dump


def test_no_gnn_flag_disables_graph(tmp_path):
    src, tgt, ev = shift_data(seed=10)
    _, hist = train(tiny_cfg(use_gnn=False), src, tgt, eval_labels=ev, run_dir=tmp_path)
    assert all(h.edges_right + h.edges_wrong + h.edges_unknown == 0 for h in hist)
    _, hist_g = train(tiny_cfg(), src, tgt, eval_labels=ev)
    assert any(h.edges_right + h.edges_wrong > 0 for h in hist_g)


def test_default_fixed_threshold_connects_every_pair():
    # README's claim: the published threshold of 150 builds the complete
    # graph of every batch on this implementation's phi
    source, target, truth = gen_synthetic_shift(ShiftConfig(), np.random.default_rng(0))
    _, hist = train(TrainConfig(epochs=3, batch_size=64), source, target, eval_labels=truth)
    # an epoch is 32 steps (1000 rows per domain, 32 a step), each of 64 * 63 / 2 pairs
    assert [h.edges_right + h.edges_wrong + h.edges_unknown for h in hist] == [32 * 2016] * 3


FLOOR = dict(use_gnn=False, use_pseudo=False, loss_weights=(0.0, 0.0, 1.0))


@pytest.mark.parametrize("arm, scans, dists, kernels", [
    # full: the threshold, the graph and the kernel median share one scan, and
    # MMD and separation one distance node
    pytest.param(dict(), 1, 1, 1, id="full"),
    pytest.param(FLOOR, 0, 0, 0, id="floor"),
    pytest.param(dict(use_gnn=False, loss_weights=(0.0, 1.0, 1.0)), 0, 1, 0, id="no-gnn-no-mmd"),
    # the kernel median reads it
    pytest.param(dict(use_gnn=False, loss_weights=(1.0, 0.0, 1.0)), 1, 1, 1, id="no-gnn-no-g"),
])
def test_one_pair_scan_per_step(monkeypatch, arm, scans, dists, kernels):
    import graphda.graphs
    import graphda.losses

    calls = {"pair_distances": 0, "pairwise_sqdist": 0, "gaussian_mixture": 0}

    def counting(mod, name):
        real = getattr(mod, name)

        def count(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(mod, name, count)

    for mod, name in ((graphda.graphs, "pair_distances"), (graphda.training, "pair_distances"),
                      (graphda.training, "pairwise_sqdist"), (graphda.losses, "gaussian_mixture")):
        counting(mod, name)
    src, tgt, _ = shift_data(seed=10)  # 40 per domain: one 80-sample step per epoch
    _, hist = train(tiny_cfg(epochs=1, batch_size=80, **arm), src, tgt)
    assert list(calls.values()) == [scans, dists, kernels]
    assert (hist[0].edges_unknown > 0) == arm.get("use_gnn", True)  # the graph was built


@pytest.mark.parametrize("arm, products", [pytest.param(dict(), 1, id="full"),
                                            pytest.param(FLOOR, 0, id="floor")])
def test_one_gram_product_per_step(monkeypatch, arm, products):
    # a B=128 step's 8128 pairs are one Gram block, made once and kept for the
    # threshold, the graph and the kernel median
    import graphda.graphs

    calls = []
    gram = graphda.graphs._gram
    monkeypatch.setattr(graphda.graphs, "_gram", lambda *a: (calls.append(1), gram(*a))[1])
    src, tgt, _ = shift_data(seed=10, per_class=32)  # 64 per domain: one 128-sample step per epoch
    _, hist = train(tiny_cfg(epochs=2, batch_size=128, **arm), src, tgt)
    assert len(hist) == 2 and len(calls) == 2 * products


def test_floor_arm_builds_no_zero_weight_term(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a zero-weight loss term was built")

    monkeypatch.setattr(graphda.training, "mmd_loss", refuse)
    monkeypatch.setattr(graphda.training, "feature_similarity_loss", refuse)
    src, tgt, ev = shift_data(seed=17)
    _, hist = train(tiny_cfg(**FLOOR), src, tgt, eval_labels=ev)
    assert len(hist) == 2 and all(np.isfinite(h.l_ce) and h.l_ce > 0 for h in hist)


@pytest.mark.parametrize("w_mmd", [1.0, 0.0])
def test_nan_alignment_term_diverges_only_when_weighted(monkeypatch, tmp_path, w_mmd):
    # weight 0 used to build the term and multiply it by 0, and NaN * 0 aborted the run
    monkeypatch.setattr(graphda.training, "mmd_loss", lambda *args: Tensor(float("nan")))
    src, tgt, ev = shift_data(seed=17)
    cfg = tiny_cfg(loss_weights=(w_mmd, 1.0, 1.0))
    if w_mmd:
        with pytest.raises(DivergenceError, match="mmd=nan"):
            train(cfg, src, tgt, eval_labels=ev, run_dir=tmp_path)
        assert (tmp_path / "divergence.txt").exists()
    else:
        _, hist = train(cfg, src, tgt, eval_labels=ev, run_dir=tmp_path)
        assert all(h.l_mmd == 0.0 and np.isfinite(h.l_total) for h in hist)


def test_non_finite_step_makes_no_update(monkeypatch):
    src, tgt, _ = shift_data(seed=17)
    cfg = tiny_cfg()
    model = Model.init(ModelConfig(input_dims=(2,), num_classes=2, hidden=8, phi_dim=8,
                                   backbone_hidden=8), np.random.default_rng(0))
    adam = Adam(model.parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    batch = TwoDomainSampler(src, tgt, cfg.batch_size, np.random.default_rng(1)).sample_batch()
    rng = np.random.default_rng(2)
    train_step(model, adam, cfg, batch, batch.labels, rng)  # moments and step count leave zero

    def state():
        arrays = [p.data for _, p in model.parameters()] + [adam._m, adam._v]
        return [a.copy().view(np.int64) for a in arrays], adam.step_count

    before = state()
    monkeypatch.setattr(graphda.training, "mmd_loss", lambda *args: Tensor(float("nan")))
    breakdown, graph = train_step(model, adam, cfg, batch, batch.labels, rng)
    assert np.isnan(breakdown.l_mmd) and np.isnan(breakdown.l_total) and graph is not None
    (arrays, steps), (want, want_steps) = state(), before
    assert steps == want_steps == 1
    assert all(np.array_equal(a, b) for a, b in zip(arrays, want, strict=True))


def test_fixed_threshold_mode_runs():
    src, tgt, ev = shift_data(seed=11)
    cfg = tiny_cfg(threshold_percentile=None, threshold=3.0)
    _, hist = train(cfg, src, tgt, eval_labels=ev)
    assert np.isfinite(hist[-1].l_total)


def test_warmup_delays_pseudo_labels():
    src, tgt, ev = shift_data(seed=12)
    _, hist = train(tiny_cfg(epochs=3, warmup_epochs=2), src, tgt, eval_labels=ev)
    assert hist[0].pseudo_coverage == 0.0
    assert hist[1].pseudo_coverage == 0.0


def test_no_pseudo_keeps_targets_unlabeled(tmp_path):
    src, tgt, ev = shift_data(seed=13)
    train(tiny_cfg(use_pseudo=False), src, tgt, eval_labels=ev, run_dir=tmp_path)
    rows = read_lines(tmp_path / "pseudo.csv")[1:]
    assert all(r.split(",")[1] == "-1" for r in rows)


@pytest.mark.parametrize("arm", [dict(use_pseudo=False), dict(warmup_epochs=2)])
def test_target_truth_never_trains(tmp_path, arm):
    # with pseudo-labels off, the target half of every batch is unlabeled even
    # when the target set carries its ground truth
    src, tgt, ev = shift_data(seed=13)
    labeled = Dataset(tgt.features, ev, Domain.TARGET, tgt.num_classes)
    runs = []
    for name, target in (("unlabeled", tgt), ("labeled", labeled)):
        model, _ = train(tiny_cfg(**arm), src, target, run_dir=tmp_path / name)
        runs.append(([p.data.view(np.int64) for _, p in model.parameters()],
                     read_lines(tmp_path / name / "steps.csv")))
    (params, steps), (want_params, want_steps) = runs
    assert steps == want_steps
    assert all(np.array_equal(a, b) for a, b in zip(params, want_params, strict=True))


def test_one_target_pass_per_weight_state(monkeypatch):
    # an epoch's evaluation and the next refresh see the same weights and
    # share one pass; every optimizer step makes the next refresh run a new one
    src, tgt, ev = shift_data(seed=16)
    rows = []
    infer = Model.infer
    monkeypatch.setattr(Model, "infer", lambda self, f, chunk=None: (
        rows.append(len(f)), infer(self, f, chunk))[1])
    cfg = tiny_cfg(epochs=3, warmup_epochs=0)
    train(cfg, src, tgt, eval_labels=ev)
    assert rows == [len(tgt)] * (3 + 1)  # one refresh per epoch, then the last evaluation
    rows.clear()
    train(cfg, src, tgt)
    assert rows == [len(tgt)] * 3


def test_loss_weights_zero_out_terms(tmp_path):
    src, tgt, ev = shift_data(seed=17)
    _, hist = train(tiny_cfg(**FLOOR), src, tgt, eval_labels=ev, run_dir=tmp_path)
    for h in hist:
        assert h.l_mmd == 0.0 and h.l_g == 0.0
        assert h.l_total == h.l_ce
    for name, first in (("steps.csv", 1), ("metrics.csv", 3)):
        rows = [r.split(",") for r in read_lines(tmp_path / name)[1:]]
        assert rows and all(r[first:first + 2] == ["0.0", "0.0"] for r in rows), name


def test_all_zero_weights_leave_weight_decay_steps(tmp_path):
    src, tgt, ev = shift_data(seed=17)
    norms = []
    for wd, run in ((0.1, tmp_path / "decay"), (0.0, tmp_path / "still")):
        model, hist = train(tiny_cfg(loss_weights=(0.0, 0.0, 0.0), weight_decay=wd), src, tgt,
                            eval_labels=ev, run_dir=run)
        assert len(hist) == 2
        steps = [r.split(",") for r in read_lines(run / "steps.csv")[1:]]
        assert steps and all(r[1:5] == ["0.0"] * 4 for r in steps)
        metrics = [r.split(",") for r in read_lines(run / "metrics.csv")[1:]]
        assert all(np.isfinite(float(v)) for r in metrics for v in r)
        norms.append(sum(float(np.sum(p.data ** 2)) for _, p in model.parameters()))
    assert norms[0] < norms[1]  # only the decay moved the weights


def test_train_rejects_mismatched_domains():
    src, tgt, ev = shift_data(seed=18)
    bad_tgt = Dataset(tgt.features[:, :1], tgt.labels, Domain.TARGET, tgt.num_classes)
    with pytest.raises(ValueError, match="feature shapes"):
        train(tiny_cfg(), src, bad_tgt)
    with pytest.raises(ValueError, match="eval labels"):
        train(tiny_cfg(), src, tgt, eval_labels=ev[:-1])


def test_train_rejects_a_positive_class_outside_the_data(tmp_path):
    src, tgt, _ = shift_data(seed=18)
    with pytest.raises(ValueError, match="positive_class 2 is not one of the data's 2 classes"):
        train(tiny_cfg(positive_class=2), src, tgt, run_dir=tmp_path / "run")
    assert not (tmp_path / "run").exists()


def test_checkpoint_reproduces_model(tmp_path):
    src, tgt, ev = shift_data(seed=19)
    model, _ = train(tiny_cfg(), src, tgt, eval_labels=ev, run_dir=tmp_path)
    blob = load_checkpoint(tmp_path / "checkpoint_final.hdap")
    assert float(blob["meta/epoch"]) == 2.0
    for key in ("norm/source_mean", "norm/source_std", "norm/target_mean", "norm/target_std"):
        assert key in blob
    clone = Model.init(config_from_tensors(blob), np.random.default_rng(99))
    clone.load_state(blob)
    tgt_n, _ = normalize(tgt)
    for a, b in zip(model.infer(tgt_n.features), clone.infer(tgt_n.features)):
        assert np.array_equal(a, b)


# -- PCA and embedding export ------------------------------------------------------


def test_pca_recovers_plane_geometry():
    rng = np.random.default_rng(30)
    flat = rng.normal(size=(40, 2)) * (3.0, 1.0)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    x = flat @ q[:, :2].T
    _, proj = pca_2d(x)
    centered = flat - flat.mean(axis=0)
    want = np.linalg.norm(centered[:, None] - centered[None, :], axis=2)
    got = np.linalg.norm(proj[:, None] - proj[None, :], axis=2)
    assert np.allclose(got, want, atol=1e-8)


def test_pca_rank_one_input():
    rng = np.random.default_rng(31)
    t = rng.normal(size=30)
    v = np.array([2.0, -1.0, 2.0])
    comps, proj = pca_2d(np.outer(t, v) + 5.0)
    unit = v / np.linalg.norm(v)
    assert np.allclose(np.abs(comps[0]), np.abs(unit), atol=1e-12)
    assert comps[0][np.argmax(np.abs(comps[0]))] > 0
    assert np.all(np.abs(proj[:, 1]) < 1e-8 * np.abs(t).max())


def test_pca_sign_rule_and_determinism():
    for seed in range(5):
        x = np.random.default_rng(seed).normal(size=(20, 6))
        c1, p1 = pca_2d(x)
        c2, p2 = pca_2d(x)
        assert np.array_equal(c1, c2) and np.array_equal(p1, p2)
        for row in c1:
            assert row[np.argmax(np.abs(row))] > 0


def test_export_embeddings_layout(tmp_path):
    src, tgt, _ = shift_data(seed=32, per_class=5)
    src_n, _ = normalize(src)
    tgt_n, _ = normalize(tgt)
    model = small_model(input_dim=2, phi=4)
    out = tmp_path / "emb.csv"
    pseudo = np.array([1, -1, 0, -1, 1, -1, 0, 1, -1, 0])
    phi_s, phi_t = model.infer(src_n.features)[0], model.infer(tgt_n.features)[0]
    pooled = export_embeddings(out, phi_s, phi_t, src.labels, pseudo, epoch=7)
    assert np.array_equal(pooled, np.concatenate([phi_s, phi_t]))
    lines = read_lines(out)
    width = model.config.phi_dim
    assert pooled.shape == (20, width)
    for line, vec in zip(lines[1:], pooled):
        assert line.split(",")[4:4 + width] == [repr(float(v)) for v in vec]
    assert lines[0] == ("epoch,id,domain,label," +
                        ",".join(f"phi_{k}" for k in range(width)) + ",pca_0,pca_1")
    assert len(lines) == 1 + 10 + 10
    first = lines[1].split(",")
    assert first[:3] == ["7", "0", "source"]
    assert int(first[3]) == src.labels[0]
    tgt_row = lines[11].split(",")
    assert tgt_row[1:4] == ["0", "target", "1"]
    for line in lines[1:]:
        for v in line.split(",")[4:]:
            float(v)


def test_export_embeddings_deterministic(tmp_path):
    src, tgt, _ = shift_data(seed=33, per_class=6)
    model = small_model(input_dim=2)
    phi_s, phi_t = model.infer(src.features)[0], model.infer(tgt.features)[0]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    export_embeddings(a, phi_s, phi_t, src.labels, tgt.labels, epoch=1)
    export_embeddings(b, phi_s, phi_t, src.labels, tgt.labels, epoch=1)
    assert a.read_bytes() == b.read_bytes()


def test_export_embeddings_validates_pseudo_length(tmp_path):
    src, tgt, _ = shift_data(seed=34, per_class=4)
    model = small_model(input_dim=2)
    phi_s, phi_t = model.infer(src.features)[0], model.infer(tgt.features)[0]
    with pytest.raises(ValueError, match="3 target labels for 8 target rows"):
        export_embeddings(tmp_path / "x.csv", phi_s, phi_t, src.labels,
                          np.zeros(3, dtype=np.int64), epoch=0)


def test_augment_batch_is_one_warp_equal_to_per_image_loop(monkeypatch):
    feats = np.random.default_rng(11).normal(size=(5, 1, 6, 6))
    calls = []
    monkeypatch.setattr(graphda.training, "warp_image",
                        lambda *args: calls.append(args[0].shape) or warp_image(*args))
    got = graphda.training._augment_batch(feats, np.random.default_rng(5))
    # oracle: the per-image loop, drawing rotation, scale, shear for each image in turn
    rng = np.random.default_rng(5)
    want = []
    for img in feats:
        theta, scale, shear = rng.uniform(-30.0, 30.0), rng.uniform(0.9, 1.1), rng.uniform(-0.1, 0.1)
        want.append(warp_image(img, theta, scale, shear))
    assert calls == [feats.shape]
    assert np.array_equal(got.view(np.int64), np.stack(want).view(np.int64))


# -- one training step's autodiff trace ---------------------------------------------


def _trace(loss):
    """Every node of ``loss``'s trace, by id."""
    nodes, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    return nodes


def _first_step(monkeypatch, config, source, target):
    """Train with ``backward`` wrapped; returns the node count of the first step's
    trace and the pairs of its arrays that share memory with a gradient. Each
    gradient is recorded as it lands, because ``backward`` frees the non-leaf
    ones, and the records keep every checked array alive."""
    seen = []
    real, accum = graphda.training.backward, Tensor._accum

    def wrapped(loss):
        if seen:
            return real(loss)
        nodes = _trace(loss)
        grads = {}

        def landing(self, g, owned=False):
            accum(self, g, owned)
            grads[id(self)] = self.grad

        with monkeypatch.context() as m:
            m.setattr(Tensor, "_accum", landing)
            real(loss)
        assert grads.keys() == nodes.keys()  # every node's gradient landed and is checked
        arrays = [(n.data, grads[k]) for k, n in nodes.items()]
        shared = [(i, j, what) for i, (_, ga) in enumerate(arrays)
                  for j, (data, grad) in enumerate(arrays)
                  for what, b in (("data", data), ("grad", grad))
                  if (what == "data" or i != j) and np.shares_memory(ga, b)]
        seen.append((len(nodes), shared))

    monkeypatch.setattr(graphda.training, "backward", wrapped)
    train(config, source, target)
    return seen[0]


def _step_cfg(**kw):
    # the benchmark's full arm, small
    return tiny_cfg(epochs=1, batch_size=16, threshold_percentile=50.0, epsilon=0.95, **kw)


def test_flat_step_trace_size_and_gradient_ownership(monkeypatch):
    src, tgt, _ = shift_data(seed=3, per_class=16)
    count, shared = _first_step(monkeypatch, _step_cfg(), src, tgt)
    assert shared == []  # no gradient is a view of a value or of another gradient
    assert count == 34  # one distance node and one kernel node for MMD and separation, one
    # for the pull/push sums, one for the CE; the batch and the adjacency are constants, no nodes


def test_image_step_trace_size_and_gradient_ownership(monkeypatch):
    rng = np.random.default_rng(4)
    src = Dataset(rng.normal(size=(16, 1, 6, 6)), rng.integers(0, 2, 16), Domain.SOURCE, 2)
    tgt = Dataset(rng.normal(size=(16, 1, 6, 6)), np.full(16, -1), Domain.TARGET, 2)
    count, shared = _first_step(monkeypatch, _step_cfg(conv_channels=(2, 3)), src, tgt)
    assert shared == []
    assert count == 37  # the flat step's loss nodes, and one per conv layer; the batch and the
    # adjacency are no nodes


def test_step_computes_no_gradient_for_the_batch_or_the_adjacency(monkeypatch):
    # both enter the step as plain arrays: every leaf of a step's trace is a
    # parameter, and col2im runs once, for conv2, as conv1 makes no patch gradient
    rng = np.random.default_rng(4)
    src = Dataset(rng.normal(size=(16, 1, 6, 6)), rng.integers(0, 2, 16), Domain.SOURCE, 2)
    tgt = Dataset(rng.normal(size=(16, 1, 6, 6)), np.full(16, -1), Domain.TARGET, 2)
    models, steps, col2im = [], [], []
    real_step, real_backward, real_col2im = (graphda.training.train_step, graphda.training.backward,
                                             graphda.autodiff._col2im)

    def step(model, *args):
        models.append(model)
        breakdown, graph = real_step(model, *args)
        steps[-1] += (graph.num_edges > 0,)
        return breakdown, graph

    def backward(loss):
        params = {id(p) for _, p in models[-1].parameters()}
        leaves = {k for k, node in _trace(loss).items() if not node._parents}
        col2im.clear()
        real_backward(loss)
        steps.append((leaves <= params, len(col2im)))

    monkeypatch.setattr(graphda.training, "train_step", step)
    monkeypatch.setattr(graphda.training, "backward", backward)
    monkeypatch.setattr(graphda.autodiff, "_col2im", lambda *a: (col2im.append(a), real_col2im(*a))[1])
    train(_step_cfg(conv_channels=(2, 3)), src, tgt)
    assert len(steps) == 2 and all(s == (True, 1, True) for s in steps)
