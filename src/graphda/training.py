"""End-to-end adaptation training, evaluation, and embedding export.

One epoch: refresh pseudo-labels over the target set, then for every
128+128 batch run the backbone, build the threshold graph over the
joint batch, apply the graph layer, and take an Adam step on

    L = L_mmd(phi_s, phi_t) + L_g(f, labels) + L_ce(logits, labels)

where labels are source ground truth plus current pseudo-labels.
Target ground truth enters only as a read-only observer for the
precision/accuracy and edge-quality columns; deleting it changes no
parameter update.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tensor, backward, get_default_dtype, set_default_dtype, take_rows
from .datasets import (ROTATION_RANGE_DEG, SCALE_RANGE, SHEAR_RANGE, Dataset, TwoDomainSampler,
                       _write_atomic, normalize, warp_image)
from .graphs import BatchGraph, build_graph, edge_stats, pair_distances, percentile_threshold
from .losses import (
    MEDIAN_SCALES,
    KernelSpec,
    cross_entropy_loss,
    feature_similarity_loss,
    mmd_loss,
    total_loss,
)
from .model import Model, ModelConfig, config_to_tensors, save_checkpoint
from .pseudo import PseudoState, assign_pseudo_labels, pseudo_coverage, write_pseudo_csv

__all__ = [
    "TrainConfig",
    "Adam",
    "DivergenceError",
    "EvalMetrics",
    "EpochMetrics",
    "METRICS_COLUMNS",
    "train",
    "evaluate",
    "export_embeddings",
    "pca_2d",
]

METRICS_COLUMNS = (
    "epoch,precision,accuracy,l_mmd,l_g,l_ce,l_total,pseudo_coverage,"
    "edges_right,edges_wrong,edges_unknown"
)
STEPS_COLUMNS = "step,l_mmd,l_g,l_ce,l_total,pseudo_count"


class DivergenceError(RuntimeError):
    """Raised when the loss goes non-finite; training must not continue."""


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters. lr, weight_decay, batch_size, epochs, epsilon,
    margin, and threshold=150 follow the published protocol; the rest
    are implementation choices with stated defaults.
    """

    lr: float = 0.001
    weight_decay: float = 1e-6
    batch_size: int = 256
    epochs: int = 100
    threshold: float = 150.0
    threshold_percentile: float | None = None  # set to use a scale-free T per batch
    epsilon: float = 0.97
    margin: float = 2.0
    kernel_scales: tuple = MEDIAN_SCALES
    hidden: int = 64
    phi_dim: int = 64
    backbone_hidden: int = 64
    conv_channels: tuple = (8, 16)
    seed: int = 0
    precision: str = "f64"
    use_gnn: bool = True
    use_pseudo: bool = True
    sticky_pseudo: bool = False
    pseudo_refresh: str = "epoch"  # or "batch"
    warmup_epochs: int = 0  # epochs before pseudo-labeling starts
    loss_weights: tuple = (1.0, 1.0, 1.0)  # ablation only; objective is unweighted
    graph_features: str = "pre_relu"  # or "post_relu"
    lg_features: str = "gnn"  # or "backbone"
    augment: bool = True  # images only; flat features pass through
    checkpoint_every: int = 10
    positive_class: int = 1

    def __post_init__(self):
        object.__setattr__(self, "kernel_scales", tuple(float(s) for s in self.kernel_scales))
        object.__setattr__(self, "conv_channels", tuple(int(c) for c in self.conv_channels))
        object.__setattr__(self, "loss_weights", tuple(float(w) for w in self.loss_weights))
        if not 0 < self.lr < math.inf or not 0 <= self.weight_decay < math.inf:
            raise ValueError("lr must be positive and weight_decay nonnegative, both finite")
        if self.batch_size < 2 or self.batch_size % 2:
            raise ValueError(f"batch_size must be even and >= 2, got {self.batch_size}")
        if self.epochs < 1 or self.checkpoint_every < 1:
            raise ValueError("epochs and checkpoint_every must be >= 1")
        if not 0 < self.epsilon < 1:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not 0 < self.margin < math.inf:
            raise ValueError(f"margin must be positive and finite, got {self.margin}")
        if not 0 < self.threshold < math.inf:
            raise ValueError(f"threshold must be positive and finite, got {self.threshold}")
        if not self.kernel_scales or not all(0 < s < math.inf for s in self.kernel_scales):
            raise ValueError(f"kernel_scales must be positive and finite, got {self.kernel_scales}")
        if self.threshold_percentile is not None and not 0 <= self.threshold_percentile <= 100:
            raise ValueError(f"threshold_percentile must lie in [0, 100], got {self.threshold_percentile}")
        if self.precision not in ("f32", "f64"):
            raise ValueError(f"precision must be f32 or f64, got {self.precision!r}")
        if self.pseudo_refresh not in ("epoch", "batch"):
            raise ValueError(f"pseudo_refresh must be epoch or batch, got {self.pseudo_refresh!r}")
        if self.graph_features not in ("pre_relu", "post_relu"):
            raise ValueError(f"graph_features must be pre_relu or post_relu, got {self.graph_features!r}")
        if self.lg_features not in ("gnn", "backbone"):
            raise ValueError(f"lg_features must be gnn or backbone, got {self.lg_features!r}")
        if len(self.loss_weights) != 3 or not all(0 <= w < math.inf for w in self.loss_weights):
            raise ValueError(f"loss_weights must be 3 nonnegative finite values, got {self.loss_weights}")
        if self.warmup_epochs < 0 or self.seed < 0:
            raise ValueError("warmup_epochs and seed must be nonnegative")


@dataclass(frozen=True, eq=False)
class EvalMetrics:
    """Confusion-matrix summary of one evaluation pass."""

    precision: float  # TP/(TP+FP) for the designated positive class
    accuracy: float
    confusion: np.ndarray  # (m, m), rows = true class, cols = predicted
    precision_defined: bool  # False when the model never predicts positive


@dataclass(frozen=True, eq=False)
class EpochMetrics:
    epoch: int
    precision: float
    accuracy: float
    l_mmd: float
    l_g: float
    l_ce: float
    l_total: float
    pseudo_coverage: float
    edges_right: int
    edges_wrong: int
    edges_unknown: int
    precision_defined: bool = True


class Adam:
    """Adam with coupled L2 decay: grad += wd * param before the moments.

    beta1=0.9, beta2=0.999, eps=1e-8, bias correction on. One moment
    slot pair per registered tensor; parameters with zero gradient and
    zero decay stay bit-identical.
    """

    def __init__(self, params, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8,
                 weight_decay=0.0):
        self.params = list(params)  # (name, Tensor) pairs
        names = [n for n, _ in self.params]
        if len(names) != len(set(names)):
            raise ValueError("duplicate parameter registered")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = {n: np.zeros_like(p.data) for n, p in self.params}
        self._v = {n: np.zeros_like(p.data) for n, p in self.params}

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in self.params:
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data = p.data - self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


# -- evaluation ------------------------------------------------------------------


def evaluate(model: Model, features: np.ndarray, labels, *, positive_class: int = 1,
             chunk: int | None = None) -> EvalMetrics:
    """Inference-path metrics against ground-truth labels.

    Features must already carry the normalization used in training.
    Precision is TP/(TP+FP) for ``positive_class``; if the model never
    predicts it, precision is reported as 0 with the flag cleared.
    """
    lab = np.asarray(labels, dtype=np.int64)
    n = lab.shape[0]
    if features.shape[0] != n:
        raise ValueError(f"{features.shape[0]} feature rows but {n} labels")
    m = model.config.num_classes
    if lab.size and (lab.min() < 0 or lab.max() >= m):
        raise ValueError("evaluation labels must be known classes in [0, m)")
    if not 0 <= positive_class < m:
        raise ValueError(f"positive class {positive_class} outside [0, {m})")
    pred = np.empty(n, dtype=np.int64)
    for rows in model.chunks(n, chunk):
        pred[rows] = model.predict(features[rows])
    confusion = np.zeros((m, m), dtype=np.int64)
    np.add.at(confusion, (lab, pred), 1)
    predicted_pos = int(confusion[:, positive_class].sum())
    tp = int(confusion[positive_class, positive_class])
    defined = predicted_pos > 0
    precision = tp / predicted_pos if defined else 0.0
    accuracy = float(np.trace(confusion)) / n if n else 0.0
    return EvalMetrics(precision=precision, accuracy=accuracy,
                       confusion=confusion, precision_defined=defined)


# -- training loop ---------------------------------------------------------------


def _augment_batch(features: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    if features.ndim != 4:
        return features
    # the seeded stream is drawn image by image (rotation, scale, shear), as in augment()
    draws = [(rng.uniform(-ROTATION_RANGE_DEG, ROTATION_RANGE_DEG), rng.uniform(*SCALE_RANGE),
              rng.uniform(-SHEAR_RANGE, SHEAR_RANGE)) for _ in range(features.shape[0])]
    theta, scale, shear = zip(*draws)
    return warp_image(features, theta, scale, shear)


def _empty_pseudo(n: int, epsilon: float) -> PseudoState:
    return PseudoState(labels=np.full(n, -1, dtype=np.int64),
                       confidence=np.zeros(n), epoch=0, epsilon=epsilon)


def _f(x) -> str:
    return repr(float(x))


class _CsvFile:
    """Append-only CSV with a fixed header; floats written via repr."""

    def __init__(self, path, header: str):
        self.fh = open(path, "w", encoding="utf-8", newline="\n")
        self.fh.write(header + "\n")
        self.fh.flush()

    def row(self, fields) -> None:
        self.fh.write(",".join(str(v) for v in fields) + "\n")
        self.fh.flush()

    def close(self) -> None:
        self.fh.close()


def _audit_labels(batch, eval_labels) -> np.ndarray:
    """True source labels plus eval target labels (observer only)."""
    half = batch.source_count
    out = batch.labels.copy()
    if eval_labels is not None:
        out[half:] = eval_labels[batch.ids[half:]]
    else:
        out[half:] = -1
    return out


def train(
    config: TrainConfig,
    source: Dataset,
    target: Dataset,
    *,
    eval_labels=None,
    run_dir=None,
) -> tuple[Model, list]:
    """Run the full adaptation loop; returns the model and epoch history.

    ``eval_labels`` (target ground truth) is optional and purely
    observational: it fills the precision/accuracy and edge-quality
    columns. With ``run_dir`` set, writes metrics.csv, steps.csv,
    pseudo.csv, and periodic checkpoints there.
    """
    if source.num_classes != target.num_classes:
        raise ValueError("source and target class counts differ")
    if source.feature_dims != target.feature_dims:
        raise ValueError("source and target feature shapes differ")
    if eval_labels is not None:
        eval_labels = np.asarray(eval_labels, dtype=np.int64)
        if eval_labels.shape != (len(target),):
            raise ValueError("eval labels do not match the target set")

    prior_dtype = get_default_dtype()
    set_default_dtype(config.precision)
    try:
        return _train_inner(config, source, target, eval_labels, run_dir)
    finally:
        set_default_dtype(prior_dtype)


def _train_inner(config, source, target, eval_labels, run_dir):
    init_ss, sampler_ss, augment_ss = np.random.SeedSequence(config.seed).spawn(3)
    init_rng = np.random.default_rng(init_ss)
    sampler_rng = np.random.default_rng(sampler_ss)
    augment_rng = np.random.default_rng(augment_ss)

    source, src_stats = normalize(source)
    target, tgt_stats = normalize(target)

    model_cfg = ModelConfig(
        input_dims=source.feature_dims,
        num_classes=source.num_classes,
        hidden=config.hidden,
        phi_dim=config.phi_dim,
        backbone_hidden=config.backbone_hidden,
        conv_channels=config.conv_channels,
    )
    model = Model.init(model_cfg, init_rng)
    adam = Adam(model.parameters(), lr=config.lr, weight_decay=config.weight_decay)
    sampler = TwoDomainSampler(source, target, config.batch_size, sampler_rng)
    half = config.batch_size // 2

    run_dir = Path(run_dir) if run_dir is not None else None
    metrics_csv = steps_csv = None
    if run_dir is not None:
        run_dir.mkdir(parents=True, exist_ok=True)
        metrics_csv = _CsvFile(run_dir / "metrics.csv", METRICS_COLUMNS)
        steps_csv = _CsvFile(run_dir / "steps.csv", STEPS_COLUMNS)

    def checkpoint_blob(epoch):
        return {
            **model.state(),
            **config_to_tensors(model_cfg),
            "meta/epoch": np.asarray(float(epoch)),
            "meta/threshold": np.asarray(float(config.threshold)),
            "meta/threshold_percentile": np.asarray(
                float("nan") if config.threshold_percentile is None
                else float(config.threshold_percentile)
            ),
            "meta/positive_class": np.asarray(float(config.positive_class)),
            "norm/source_mean": src_stats.mean,
            "norm/source_std": src_stats.std,
            "norm/target_mean": tgt_stats.mean,
            "norm/target_std": tgt_stats.std,
        }

    pseudo = _empty_pseudo(len(target), config.epsilon)
    history = []
    step = 0

    def refresh_pseudo(epoch):
        return assign_pseudo_labels(
            model, target, config.epsilon, epoch=epoch,
            prior=pseudo, sticky=config.sticky_pseudo,
        )

    try:
        for epoch in range(1, config.epochs + 1):
            pseudo_on = config.use_pseudo and epoch > config.warmup_epochs
            if pseudo_on and config.pseudo_refresh == "epoch":
                pseudo = refresh_pseudo(epoch)
            loss_sums = np.zeros(4)
            edge_sums = np.zeros(3, dtype=np.int64)
            n_steps = 0

            for batch in sampler.epoch():
                if pseudo_on and config.pseudo_refresh == "batch":
                    pseudo = refresh_pseudo(epoch)
                step += 1
                feats = batch.features
                if config.augment:
                    feats = _augment_batch(feats, augment_rng)
                labels = batch.labels.copy()
                if pseudo_on:
                    labels[half:] = pseudo.labels[batch.ids[half:]]

                x = Tensor(feats)
                phi = model.backbone_forward(x)
                # one pair scan feeds the kernel median and, on pre_relu, the graph
                dists = pair_distances(phi.data)
                graph = None
                if config.use_gnn:
                    if config.graph_features == "pre_relu":
                        gf, gdists = phi.data, dists
                    else:
                        gf = np.maximum(phi.data, 0.0)
                        gdists = pair_distances(gf)
                    if config.threshold_percentile is None:
                        t_used = config.threshold
                    else:
                        with warnings.catch_warnings():
                            warnings.simplefilter("ignore")  # degenerate batch still trains
                            t_used = percentile_threshold(gf, config.threshold_percentile,
                                                          dists=gdists)
                    graph = build_graph(gf, t_used, dists=gdists) if t_used > 0 else BatchGraph(
                        num_nodes=len(batch), rows=(), cols=(), threshold=0.0)
                f = model.gnn_forward(phi, graph)
                logits, _ = model.classify(f)

                kernels = KernelSpec.from_median_heuristic(
                    phi.data, scales=config.kernel_scales, dists=dists)
                l_mmd = mmd_loss(
                    _take_block(phi, 0, half), _take_block(phi, half, len(batch)), kernels)
                lg_input = f if config.lg_features == "gnn" else phi
                l_g = feature_similarity_loss(lg_input, labels, config.margin)
                l_ce = cross_entropy_loss(logits, labels)
                labeled = int((labels != -1).sum())
                total, breakdown = total_loss(
                    l_mmd, l_g, l_ce,
                    pair_count=labeled * (labeled - 1) // 2,
                    labeled_count=labeled,
                    weights=config.loss_weights,
                )

                if not np.isfinite(breakdown.l_total):
                    _dump_divergence(run_dir, epoch, step, breakdown, batch)
                    raise DivergenceError(
                        f"non-finite loss at epoch {epoch}, step {step}: "
                        f"mmd={breakdown.l_mmd} g={breakdown.l_g} ce={breakdown.l_ce}"
                    )

                adam.zero_grad()
                backward(total)
                adam.step()
                n_steps += 1
                pseudo_count = int((labels[half:] != -1).sum())
                loss_sums += (breakdown.l_mmd, breakdown.l_g, breakdown.l_ce, breakdown.l_total)
                if graph is not None:
                    st = edge_stats(graph, _audit_labels(batch, eval_labels))
                    edge_sums += (st.right, st.wrong, st.unknown)
                if steps_csv is not None:
                    steps_csv.row([step, _f(breakdown.l_mmd), _f(breakdown.l_g),
                                   _f(breakdown.l_ce), _f(breakdown.l_total), pseudo_count])

            if run_dir is not None:
                write_pseudo_csv(run_dir / "pseudo.csv", pseudo)
            if eval_labels is not None:
                ev = evaluate(model, target.features, eval_labels,
                              positive_class=config.positive_class)
                precision, accuracy, defined = ev.precision, ev.accuracy, ev.precision_defined
            else:
                precision = accuracy = float("nan")
                defined = True
            means = loss_sums / max(n_steps, 1)
            em = EpochMetrics(
                epoch=epoch, precision=precision, accuracy=accuracy,
                l_mmd=means[0], l_g=means[1], l_ce=means[2], l_total=means[3],
                pseudo_coverage=pseudo_coverage(pseudo),
                edges_right=int(edge_sums[0]), edges_wrong=int(edge_sums[1]),
                edges_unknown=int(edge_sums[2]), precision_defined=defined,
            )
            history.append(em)
            if metrics_csv is not None:
                metrics_csv.row([em.epoch, _f(em.precision), _f(em.accuracy),
                                 _f(em.l_mmd), _f(em.l_g), _f(em.l_ce), _f(em.l_total),
                                 _f(em.pseudo_coverage), em.edges_right,
                                 em.edges_wrong, em.edges_unknown])
            if run_dir is not None and (
                epoch % config.checkpoint_every == 0 or epoch == config.epochs
            ):
                save_checkpoint(run_dir / f"checkpoint_epoch{epoch:03d}.hdap",
                                checkpoint_blob(epoch))
        if run_dir is not None:
            save_checkpoint(run_dir / "checkpoint_final.hdap",
                            checkpoint_blob(config.epochs))
    finally:
        for csvf in (metrics_csv, steps_csv):
            if csvf is not None:
                csvf.close()
    return model, history


def _take_block(phi: Tensor, lo: int, hi: int) -> Tensor:
    return take_rows(phi, np.arange(lo, hi))


def _dump_divergence(run_dir, epoch, step, breakdown, batch) -> None:
    if run_dir is None:
        return
    lines = [
        f"epoch={epoch} step={step}",
        f"l_mmd={breakdown.l_mmd} l_g={breakdown.l_g} l_ce={breakdown.l_ce} "
        f"l_total={breakdown.l_total}",
        "source_ids=" + ",".join(map(str, batch.ids[:batch.source_count])),
        "target_ids=" + ",".join(map(str, batch.ids[batch.source_count:])),
    ]
    (Path(run_dir) / "divergence.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- embedding export ------------------------------------------------------------


def pca_2d(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Top-2 principal directions and the centered projection.

    Component signs are pinned by making each direction's
    largest-magnitude coordinate positive, so repeated calls (and SVD
    sign flips) cannot change the output. Rank-deficient inputs get
    zero-padded components.
    """
    x = np.asarray(features, dtype=np.float64)
    centered = x - x.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    comps = np.zeros((2, x.shape[1]))
    take = min(2, vt.shape[0])
    comps[:take] = vt[:take]
    for i in range(take):
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    return comps, centered @ comps.T


def export_embeddings(
    path,
    model: Model,
    source: Dataset,
    target: Dataset,
    *,
    epoch: int,
    pseudo_labels=None,
    chunk: int | None = None,
) -> np.ndarray:
    """Per-sample backbone features plus a shared 2-D projection.

    Rows: epoch, id, domain, label (source truth; target pseudo or -1),
    the phi vector, then the two principal coordinates computed over the
    pooled source+target matrix. Deterministic: same inputs, same bytes.
    Returns that pooled (N_s + N_t, phi_dim) matrix, source rows first.
    """

    def phi_of(ds):
        out = [model.backbone_forward(ds.features[r]).data for r in model.chunks(len(ds), chunk)]
        return np.concatenate(out) if out else np.zeros((0, model.config.phi_dim))

    phi_s, phi_t = phi_of(source), phi_of(target)
    pooled = np.concatenate([phi_s, phi_t])
    _, proj = pca_2d(pooled)
    if pseudo_labels is None:
        tgt_labels = target.labels
    else:
        tgt_labels = np.asarray(pseudo_labels, dtype=np.int64)
        if tgt_labels.shape != (len(target),):
            raise ValueError("pseudo labels do not match the target set")

    width = pooled.shape[1]
    header = "epoch,id,domain,label," + ",".join(
        f"phi_{k}" for k in range(width)) + ",pca_0,pca_1"
    lines = [header]
    row = 0
    for ds, labels, dom in ((source, source.labels, "source"),
                            (target, tgt_labels, "target")):
        for i in range(len(ds)):
            vec = pooled[row]
            lines.append(
                f"{epoch},{i},{dom},{labels[i]},"
                + ",".join(_f(v) for v in vec)
                + f",{_f(proj[row, 0])},{_f(proj[row, 1])}"
            )
            row += 1
    _write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))
    return pooled
