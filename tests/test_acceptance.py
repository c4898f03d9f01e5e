"""Acceptance gate: one verdict line per shipped claim.

Run ``pytest tests/test_acceptance.py -s`` to see the lines as they
pass. Everything runs at its stated tolerance; the adaptation
experiment (criteria 6 and 7) trains ten small models and dominates
the runtime.
"""

import math
import time
import warnings

import numpy as np
import pytest

from graphda.autodiff import Tensor, gaussian_mixture, pull_push
from graphda.cli import main
from graphda.datasets import Domain, ShiftConfig, gen_synthetic_shift, read_dataset
from graphda.graphs import BatchGraph
from graphda.losses import KernelSpec, cross_entropy_loss
from graphda.model import Model, ModelConfig
from graphda.pseudo import assign_pseudo_labels, pseudo_coverage
from graphda.training import TrainConfig, train
from geometry import graph_of, kernels_of, mmd_of, separation_of, threshold_of
from gradcheck import grad_check


def t(x):
    return Tensor(np.asarray(x, dtype=np.float64))


VERDICTS = []  # conftest echoes these after the run, past pytest's capture


def verdict(name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    VERDICTS.append(line)
    print(f"\n{line}", flush=True)
    assert ok, f"{name}: {detail}"


def small_model(seed=0, input_dim=3, m=2, width=4):
    cfg = ModelConfig(input_dims=(input_dim,), num_classes=m, hidden=width,
                      phi_dim=width, backbone_hidden=width)
    return Model.init(cfg, np.random.default_rng(seed))


# -- criterion 1: gradient suite -------------------------------------------------


def test_criterion_1_gradient_suite():
    started = time.perf_counter()
    checks = 0

    def ok(report):
        nonlocal checks
        checks += 1
        assert report.passed, f"max rel err {report.max_error:.2e}"

    for i in range(20):
        rng = np.random.default_rng(100 + i)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        from graphda.autodiff import matmul, relu

        ok(grad_check(lambda x: matmul(x, t(b)).sum(), t(a)))
        ok(grad_check(lambda x: matmul(t(a), x).sum(), t(b)))
        # keep clear of the kink: central differences straddle 0 otherwise
        r = rng.normal(size=(3, 4))
        r[np.abs(r) < 1e-3] = 0.1
        ok(grad_check(lambda x: relu(x).sum(), t(r)))

        logits = rng.normal(size=(5, 3))
        lab = rng.integers(0, 3, size=5)
        ok(grad_check(lambda x: cross_entropy_loss(x, lab), t(logits)))

        s = rng.normal(size=(4, 3))
        u = rng.normal(size=(5, 3))
        spec = kernels_of(s, u)
        ok(grad_check(lambda x: mmd_of(x, t(u), spec), t(s)))
        ok(grad_check(lambda x: mmd_of(t(s), x, spec), t(u)))

        feats = rng.normal(size=(6, 3))
        labels = rng.integers(-1, 2, size=6)
        ok(grad_check(lambda x: separation_of(x, labels), t(feats)))

        model = small_model(seed=200 + i)
        x0 = rng.normal(size=(6, 3))
        phi = model.backbone_forward(x0).data
        graph = graph_of(phi, threshold_of(phi, 40.0) or 1.0)
        y = rng.integers(0, 2, size=6)

        def through_graph(x, model=model, graph=graph, y=y):
            logits = model.classify(model.gnn_forward(model.backbone_forward(x), graph))
            return cross_entropy_loss(logits, y)

        ok(grad_check(through_graph, t(x0)))

        # the one-node loss ops on their own; keep the hinge clear of its kink too
        ok(grad_check(lambda x: gaussian_mixture(x, (-0.5, -2.0), (0.25, 0.75)).sum(),
                      t(rng.normal(size=(3, 3)))))
        d2 = rng.normal(size=(4, 4))
        d2[np.abs(d2 - 0.5) < 1e-3] = 0.1
        pairs = rng.integers(0, 3, size=(4, 4))
        ok(grad_check(lambda x: pull_push(x, (pairs == 1) * 1.0, (pairs == 2) * 1.0, 0.5), t(d2)))

    elapsed = time.perf_counter() - started
    verdict("criterion 1 gradient suite", elapsed < 60.0,
            f"{checks} finite-difference checks, rtol 1e-5, in {elapsed:.1f}s (< 60s)")


# -- criterion 2: alignment-loss oracles ------------------------------------------


def test_criterion_2_mmd_oracles():
    gauss1 = KernelSpec(bandwidths=(1.0,), weights=(1.0,))

    rng = np.random.default_rng(0)
    x = rng.normal(size=(8, 3))
    same = float(mmd_of(t(x), t(x[rng.permutation(8)]), gauss1).data)

    singleton = float(mmd_of(t([[0.0, 0.0]]), t([[1.0, 1.0]]), gauss1).data)
    singleton_err = abs(singleton - (2.0 - 2.0 * math.exp(-1.0)))

    violations = 0
    for seed in range(1000):
        draw = np.random.default_rng(seed)
        a = draw.normal(size=(draw.integers(1, 7), 2))
        b = draw.normal(size=(draw.integers(1, 7), 2))
        spec = kernels_of(a, b)
        ab = float(mmd_of(t(a), t(b), spec).data)
        ba = float(mmd_of(t(b), t(a), spec).data)
        if abs(ab - ba) > 1e-12 or ab < 0.0:
            violations += 1

    ok = abs(same) < 1e-12 and singleton_err < 1e-9 and violations == 0
    verdict("criterion 2 alignment-loss oracles", ok,
            f"identical multiset |v|={abs(same):.1e} (<1e-12), singleton err "
            f"{singleton_err:.1e} (<1e-9), {violations}/1000 symmetry or sign violations")


# -- criterion 3: separation-loss oracles ------------------------------------------


def test_criterion_3_separation_oracles():
    # squared distances 0 / 3 / 0.5 at margin 2 -> 0, 0, 1.5; coordinates
    # are chosen so the squared distances are exact in binary
    got = (
        float(separation_of(t([[1.0, 1.0], [1.0, 1.0]]), [0, 0]).data),
        float(separation_of(t([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]), [0, 1]).data),
        float(separation_of(t([[0.0, 0.0], [0.5, 0.5]]), [0, 1]).data),
    )
    exact = got == (0.0, 0.0, 1.5)

    drift = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        feats = rng.normal(size=(n, 3))
        labels = rng.integers(0, 3, size=n)
        base = float(separation_of(t(feats), labels).data)
        relabeled = float(separation_of(t(feats), (labels + 1) % 3).data)
        perm = rng.permutation(n)
        shuffled = float(separation_of(t(feats[perm]), labels[perm]).data)
        drift = max(drift, abs(base - relabeled), abs(base - shuffled))

    ok = exact and drift <= 1e-12
    verdict("criterion 3 separation-loss oracles", ok,
            f"tabulated cases {got} == (0.0, 0.0, 1.5), permutation drift "
            f"{drift:.1e} (<=1e-12) over 100 instances")


# -- criterion 4: graph-layer invariants -------------------------------------------


def test_criterion_4_graph_layer_invariants():
    model = small_model(seed=5, input_dim=3, width=6)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(7, 3))

    empty = BatchGraph(num_nodes=7, rows=(), cols=(), threshold=1.0)
    phi = model.backbone_forward(x)
    logits = model.classify(model.gnn_forward(phi, empty)).data
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))  # infer's softmax
    probs = e / e.sum(axis=-1, keepdims=True)
    phi_inf, probs_inf = model.infer(x)
    bit_exact = np.array_equal(phi.data, phi_inf) and np.array_equal(probs, probs_inf)

    equi_err = 0.0
    local_exact = True
    for seed in range(30):
        draw = np.random.default_rng(seed)
        pts = draw.normal(size=(8, 3))
        phi = model.backbone_forward(pts).data
        graph = graph_of(phi, threshold_of(phi, 40.0) or 1.0)
        out = model.gnn_forward(model.backbone_forward(pts), graph).data

        perm = draw.permutation(8)
        inv = np.argsort(perm)
        edges = list(zip(graph.rows.tolist(), graph.cols.tolist()))
        pedges = sorted(tuple(sorted((int(inv[i]), int(inv[j])))) for i, j in edges)
        pgraph = BatchGraph(num_nodes=8, rows=[i for i, _ in pedges],
                            cols=[j for _, j in pedges], threshold=graph.threshold)
        pout = model.gnn_forward(model.backbone_forward(pts[perm]), pgraph).data
        equi_err = max(equi_err, float(np.abs(pout - out[perm]).max()))

        # locality: nudging node 0 must leave every non-neighbor untouched
        moved = pts.copy()
        moved[0] += draw.normal(size=3)
        out2 = model.gnn_forward(model.backbone_forward(moved), graph).data
        neighbors0 = {j for i, j in edges if i == 0} | {i for i, j in edges if j == 0}
        untouched = [i for i in range(1, 8) if i not in neighbors0]
        if untouched and not np.array_equal(out2[untouched], out[untouched]):
            local_exact = False

    ok = bit_exact and equi_err <= 1e-12 and local_exact
    verdict("criterion 4 graph-layer invariants", ok,
            f"empty graph bit-exact={bit_exact}, permutation equivariance err "
            f"{equi_err:.1e} (<=1e-12), locality exact={local_exact}")


# -- criterion 5: pseudo-label gate -------------------------------------------------


def test_criterion_5_pseudo_label_gate(tmp_path):
    at_eps = assign_pseudo_labels(np.array([[0.97, 0.03], [0.971, 0.029]]), 0.97).labels
    strict = at_eps[0] == -1 and at_eps[1] == 0

    model = small_model(seed=9, input_dim=2)
    rng = np.random.default_rng(10)
    _, target, _ = gen_synthetic_shift(ShiftConfig(per_class=50), rng)
    grid = (0.55, 0.7, 0.85, 0.97)
    _, probs = model.infer(target.features)
    states = [assign_pseudo_labels(probs, e) for e in grid]
    coverages = [pseudo_coverage(s) for s in states]
    monotone = all(a >= b for a, b in zip(coverages, coverages[1:]))
    nested = all(
        np.all((hi.labels == -1) | (hi.labels == lo.labels))
        for lo, hi in zip(states, states[1:])
    )

    # deleting the sidecar must not move a single training byte
    data = tmp_path / "data"
    data.mkdir()
    assert main(["gen", "--out", str(data), "--per-class", "25", "--seed", "3"]) == 0
    flags = ["--epochs", "2", "--batch", "8", "--hidden", "8", "--phi-dim", "8",
             "--backbone-hidden", "8", "--threshold-percentile", "30"]
    with_labels = tmp_path / "with"
    without = tmp_path / "without"
    base = ["train", "--source", str(data / "source.hda"),
            "--target", str(data / "target.hda")]
    assert main(base + ["--labels", str(data / "target_labels.hda"),
                        "--out", str(with_labels), *flags]) == 0
    (data / "target_labels.hda").unlink()
    assert main(base + ["--out", str(without), *flags]) == 0
    unaffected = all(
        (with_labels / n).read_bytes() == (without / n).read_bytes()
        for n in ("checkpoint_final.hdap", "steps.csv", "pseudo.csv")
    )

    ok = strict and monotone and nested and unaffected
    verdict("criterion 5 pseudo-label gate", ok,
            f"strict at epsilon={strict}, coverage monotone {coverages} with nested "
            f"assignments={nested}, training unaffected by sidecar deletion={unaffected}")


# -- criteria 6 and 7: the adaptation experiment -------------------------------------

# 2 classes, 2 features, 500 per class, target rotated 45 degrees; sigma,
# horizon, and the remaining knobs are the experiment's own choices.
EXPERIMENT = dict(
    sigma=1.2,
    seeds=5,
    epochs=250,
    batch_size=128,
    threshold_percentile=50.0,
    warmup_epochs=8,
    width=64,
    epsilon=0.95,
)
RUN_BUDGET_S = 300.0


def _experiment_arms(seed: int):
    common = dict(
        epochs=EXPERIMENT["epochs"],
        batch_size=EXPERIMENT["batch_size"],
        threshold_percentile=EXPERIMENT["threshold_percentile"],
        warmup_epochs=EXPERIMENT["warmup_epochs"],
        hidden=EXPERIMENT["width"],
        phi_dim=EXPERIMENT["width"],
        backbone_hidden=EXPERIMENT["width"],
        epsilon=EXPERIMENT["epsilon"],
        seed=seed,
    )
    full = TrainConfig(**common)
    base = TrainConfig(use_gnn=False, use_pseudo=False,
                       loss_weights=(0.0, 0.0, 1.0), **common)
    return full, base


@pytest.fixture(scope="module")
def adaptation_runs():
    runs = []
    for seed in range(EXPERIMENT["seeds"]):
        rng = np.random.default_rng(1000 + seed)
        source, target, truth = gen_synthetic_shift(
            ShiftConfig(noise_sigma=EXPERIMENT["sigma"]), rng
        )
        full_cfg, base_cfg = _experiment_arms(seed)
        timings = []
        histories = []
        for cfg in (full_cfg, base_cfg):
            t0 = time.perf_counter()
            histories.append(train(cfg, source, target, eval_labels=truth)[1])
            timings.append(time.perf_counter() - t0)
        runs.append({"full": histories[0], "base": histories[1], "times": timings})
    return runs


def _edge_ratio(epoch_row):
    labeled = epoch_row.edges_right + epoch_row.edges_wrong
    return epoch_row.edges_right / labeled if labeled else float("nan")


@pytest.mark.slow
def test_criterion_6_adaptation_gap(adaptation_runs):
    gaps = [r["full"][-1].precision - r["base"][-1].precision for r in adaptation_runs]
    mean_gap = float(np.mean(gaps))
    slowest = max(max(r["times"]) for r in adaptation_runs)
    detail = (
        f"mean precision gap {mean_gap:+.4f} (need >= +0.05) over "
        f"{len(gaps)} seeds {['%+.3f' % g for g in gaps]}, slowest run "
        f"{slowest:.0f}s (< {RUN_BUDGET_S:.0f}s)"
    )
    verdict("criterion 6 adaptation gap", mean_gap >= 0.05 and slowest < RUN_BUDGET_S,
            detail)


@pytest.mark.slow
def test_criterion_7_edge_quality_improves(adaptation_runs):
    deltas = [
        _edge_ratio(r["full"][-1]) - _edge_ratio(r["full"][0]) for r in adaptation_runs
    ]
    mean_delta = float(np.mean(deltas))
    verdict("criterion 7 edge quality", mean_delta >= 0.10,
            f"mean right/(right+wrong) gain epoch 1 -> final {mean_delta:+.4f} "
            f"(need >= +0.10), per seed {['%+.3f' % d for d in deltas]}")


# -- criterion 8: determinism --------------------------------------------------------


def test_criterion_8_byte_determinism(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    assert main(["gen", "--out", str(data), "--per-class", "30", "--seed", "5"]) == 0
    args = ["train", "--source", str(data / "source.hda"),
            "--target", str(data / "target.hda"),
            "--labels", str(data / "target_labels.hda"),
            "--epochs", "3", "--batch", "8", "--hidden", "8", "--phi-dim", "8",
            "--backbone-hidden", "8", "--threshold-percentile", "30", "--seed", "2"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0

    manifests = [(d / "manifest.txt").read_text() for d in (a, b)]
    same_manifest = (
        manifests[0].replace(str(a), "") == manifests[1].replace(str(b), "")
    )
    same_metrics = (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
    same_ckpt = (a / "checkpoint_final.hdap").read_bytes() == \
        (b / "checkpoint_final.hdap").read_bytes()

    ok = same_manifest and same_metrics and same_ckpt
    verdict("criterion 8 determinism", ok,
            f"identical manifests={same_manifest}, metrics.csv byte-identical="
            f"{same_metrics}, final checkpoint byte-identical={same_ckpt}")
