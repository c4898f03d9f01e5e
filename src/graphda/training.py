"""End-to-end adaptation training, evaluation, and embedding export.

``train`` is the epoch loop. One epoch: reassign the pseudo-labels of
the whole target set, then for every 128+128 batch ``train_step``
augments images, runs the backbone, builds the threshold graph over the
joint batch's backbone features phi, applies the graph layer, and takes
an Adam step on

    L = L_mmd(phi_s, phi_t) + L_g(phi, labels) + L_ce(logits, labels)

where labels are source ground truth plus current pseudo-labels, and
L_mmd and L_g read one squared-distance node of phi. An ablation that
weights a term 0 never builds it, and the step computes the pair
geometry only if the graph or a weighted L_mmd's kernel median reads
it. Target ground truth enters only as a read-only observer for the
precision/accuracy and edge-quality columns; deleting it changes no
parameter update. The refresh and the evaluation read the target
probabilities of one ``Model.infer`` pass per weight state, so an
epoch's evaluation and the next epoch's refresh share a pass.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import InitVar, dataclass, field, fields
from pathlib import Path

import numpy as np

from .autodiff import backward, pairwise_sqdist
from .datasets import (Batch, DataFormatError, Dataset, TwoDomainSampler, _write_atomic,
                       normalize, warp_image)
from .graphs import BatchGraph, build_graph, edge_stats, pair_distances, percentile_threshold
from .losses import (
    MEDIAN_SCALES,
    KernelSpec,
    LossBreakdown,
    cross_entropy_loss,
    feature_similarity_loss,
    mmd_loss,
    total_loss,
)
from .model import Model, ModelConfig, RunMeta, config_to_tensors, run_to_tensors, save_checkpoint
from .pseudo import (PseudoState, _check_epsilon, assign_pseudo_labels, pseudo_coverage,
                     write_pseudo_csv)

__all__ = [
    "TrainConfig",
    "Adam",
    "DivergenceError",
    "EvalMetrics",
    "EpochMetrics",
    "METRICS_COLUMNS",
    "train_step",
    "train",
    "evaluate",
    "export_embeddings",
    "pca_2d",
]

class DivergenceError(RuntimeError):
    """Raised when the loss goes non-finite; training must not continue."""


def _option(default, help: str, *, flag: str | None = None):
    """A TrainConfig field with its ``graphda train`` flag (``--field-name``
    unless given) and help sentence."""
    return field(default=default, metadata={"help": help, "flag": flag})


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters. lr, weight_decay, batch_size, epochs, epsilon,
    margin, and threshold=150 follow the published protocol; the rest
    are implementation choices with stated defaults. Each field declares
    its command-line flag, config-file key (the field name) and help here.
    """

    lr: float = _option(0.001, "Adam learning rate")
    weight_decay: float = _option(1e-6, "coupled L2 penalty")
    batch_size: int = _option(256, "joint batch size, half per domain", flag="--batch")
    epochs: int = _option(100, "training epochs")
    threshold: float = _option(150.0, "fixed edge distance threshold")
    threshold_percentile: float | None = _option(
        None, "derive the threshold per batch from this pairwise-distance percentile; "
        "'none' for fixed")
    epsilon: float = _option(0.97, "pseudo-label confidence gate")
    margin: float = _option(2.0, "cross-class separation margin")
    kernel_scales: tuple[float, ...] = _option(
        MEDIAN_SCALES, "comma list of bandwidth multipliers for the kernel mixture")
    hidden: int = _option(64, "graph layer width")
    phi_dim: int = _option(64, "backbone feature width")
    backbone_hidden: int = _option(64, "backbone hidden width")
    conv_channels: tuple[int, ...] = _option((8, 16), "comma pair of conv channels for image inputs")
    seed: int = _option(0, "run seed")
    use_gnn: bool = _option(True, "classify from backbone features; no graph is built",
                            flag="--no-gnn")
    use_pseudo: bool = _option(True, "train on source labels only", flag="--no-pseudo")
    warmup_epochs: int = _option(0, "epochs before pseudo-labeling starts", flag="--warmup")
    loss_weights: tuple[float, ...] = _option(
        (1.0, 1.0, 1.0), "comma triple scaling alignment, separation, and classification "
        "terms; ablation only, the paper's objective is unweighted")
    checkpoint_every: int = _option(10, "epochs between checkpoints")
    positive_class: int = _option(1, "class whose precision is reported")
    # removed: separation always acts on phi; older callers may still pass this value
    lg_features: InitVar[str] = "backbone"

    def __post_init__(self, lg_features):
        if lg_features != "backbone":
            raise ValueError(f"option lg_features was removed; only 'backbone' still runs, "
                             f"got {lg_features!r}")
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
        if len(self.loss_weights) != 3 or not all(0 <= w < math.inf for w in self.loss_weights):
            raise ValueError(f"loss_weights must be 3 nonnegative finite values, got {self.loss_weights}")
        if self.warmup_epochs < 0 or self.seed < 0 or self.positive_class < 0:
            raise ValueError("warmup_epochs, seed and positive_class must be nonnegative")
        # the model's own width checks, so a bad width fails before any output
        ModelConfig(input_dims=(1,), num_classes=2, hidden=self.hidden, phi_dim=self.phi_dim,
                    backbone_hidden=self.backbone_hidden, conv_channels=self.conv_channels)


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


METRICS_COLUMNS = ",".join(f.name for f in fields(EpochMetrics))
STEPS_COLUMNS = ",".join(["step", *(f.name for f in fields(LossBreakdown)), "pseudo_count"])


def _f(x) -> str:
    return repr(float(x))


def _csv_fields(record) -> list:
    """A record's values in field order, floats through ``_f``."""
    values = (getattr(record, f.name) for f in fields(record))
    return [_f(v) if isinstance(v, float) else v for v in values]


class Adam:
    """Adam with coupled L2 decay: grad += wd * param before the moments.

    beta1=0.9, beta2=0.999, eps=1e-8, bias correction on. The moments
    and a step's scratch are flat float64 arrays over all registered
    tensors: a step is one run of in-place element-wise operations, in
    the order of the per-parameter update, so its bits are that update's.
    Each parameter's ``data`` then becomes its slice of a new flat array.
    Parameters with zero gradient and zero decay stay bit-identical.
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
        bounds = np.cumsum([0] + [p.data.size for _, p in self.params]).tolist()
        self._spans = [(p, lo, hi) for (_, p), lo, hi in zip(self.params, bounds, bounds[1:])]
        # moments, and scratch for the gathered parameters, gradients and temporaries
        self._m, self._v, self._data, self._g, self._tmp = np.zeros((5, bounds[-1]))

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        data, g, tmp, m, v = self._data, self._g, self._tmp, self._m, self._v
        for p, lo, hi in self._spans:
            data[lo:hi] = p.data.ravel()
            g[lo:hi] = 0.0 if p.grad is None else p.grad.ravel()
        if self.weight_decay:
            g += np.multiply(data, self.weight_decay, out=tmp)
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, out=tmp)
        v *= self.beta2
        tmp = np.multiply(g, 1.0 - self.beta2, out=tmp)
        tmp *= g
        v += tmp
        update = np.divide(m, bc1, out=g)  # lr * m_hat / (sqrt(v_hat) + eps)
        update *= self.lr
        denom = np.sqrt(np.divide(v, bc2, out=tmp), out=tmp)
        denom += self.eps
        update /= denom
        new = data - update
        for p, lo, hi in self._spans:
            p.data = new[lo:hi].reshape(p.data.shape)


# -- evaluation ------------------------------------------------------------------


def evaluate(probs: np.ndarray, labels, *, positive_class: int = 1) -> EvalMetrics:
    """Metrics of the (N, m) inference probabilities (``Model.infer``)
    against ground-truth labels; the prediction is the argmax, ties to
    the lowest class index.

    Precision is TP/(TP+FP) for ``positive_class``; if the model never
    predicts it, precision is reported as 0 with the flag cleared.
    """
    lab = np.asarray(labels, dtype=np.int64)
    n = lab.shape[0]
    if probs.shape[0] != n:
        raise ValueError(f"{probs.shape[0]} probability rows but {n} labels")
    m = probs.shape[1]
    if lab.size and (lab.min() < 0 or lab.max() >= m):
        raise ValueError("evaluation labels must be known classes in [0, m)")
    if not 0 <= positive_class < m:
        raise ValueError(f"positive class {positive_class} outside [0, {m})")
    pred = np.argmax(probs, axis=1)
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


# augmentation parameter ranges: the transform families are fixed
# (rotation, isotropic scale, shear); magnitudes are tuning choices
ROTATION_RANGE_DEG = 30.0
SCALE_RANGE = (0.9, 1.1)
SHEAR_RANGE = 0.1


def _augment_batch(features: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random rotation, isotropic scale, and shear for each image of a
    (B, c, h, w) batch; flat features are returned unchanged."""
    if features.ndim != 4:
        return features
    # drawn image by image in a fixed order so a seeded stream reproduces runs
    draws = [(rng.uniform(-ROTATION_RANGE_DEG, ROTATION_RANGE_DEG), rng.uniform(*SCALE_RANGE),
              rng.uniform(-SHEAR_RANGE, SHEAR_RANGE)) for _ in range(features.shape[0])]
    theta, scale, shear = zip(*draws)
    return warp_image(features, theta, scale, shear)


class _CsvFile:
    """Append-only CSV with a fixed header; floats written via repr."""

    def __init__(self, path, header: str):
        self.fh = open(path, "w", encoding="utf-8", newline="\n")
        self.fh.write(header + "\n")
        self.fh.flush()

    def row(self, values) -> None:
        self.fh.write(",".join(str(v) for v in values) + "\n")
        self.fh.flush()

    def close(self) -> None:
        self.fh.close()


def _audit_labels(batch, eval_labels) -> np.ndarray:
    """True source labels plus eval target labels (observer only)."""
    half = batch.source_count
    out = batch.labels.copy()
    out[half:] = -1 if eval_labels is None else eval_labels[batch.ids[half:]]
    return out


def _check_inputs(config: TrainConfig, source: Dataset, target: Dataset,
                  names=("source", "target")) -> None:
    """Raise DataFormatError unless both domains hold samples of one feature
    shape over one count m of classes, and ValueError unless ``positive_class``
    is one of them and ``epsilon`` lies above 1/m. ``names`` name the domains."""
    for name, dataset in zip(names, (source, target)):
        if not len(dataset):
            raise DataFormatError(f"{name}: no samples; training draws from both domains")
    if (target.num_classes, target.feature_dims) != (source.num_classes, source.feature_dims):
        raise DataFormatError(
            f"{names[1]}: {target.num_classes} classes of shape {target.feature_dims}, but "
            f"{names[0]} has {source.num_classes} of shape {source.feature_dims}; the domains' "
            "class counts and feature shapes must agree")
    if config.positive_class >= source.num_classes:
        raise ValueError(f"positive_class {config.positive_class} is not one of the data's "
                         f"{source.num_classes} classes")
    _check_epsilon(config.epsilon, source.num_classes)


def train_step(model: Model, adam: Adam, config: TrainConfig, batch: Batch, labels: np.ndarray,
               rng: np.random.Generator) -> tuple[LossBreakdown, BatchGraph | None]:
    """One optimizer step on a joint batch, source rows first, fitting
    ``labels`` (-1 where unknown): augment with ``rng``, run the backbone,
    make the pair geometry, build the graph, run the graph layer, take the
    losses and let Adam update the weights.

    Returns the loss breakdown and the batch graph, None without the graph
    layer; the graph holds the step's threshold and edges. A non-finite loss
    makes no update: the weights and Adam's state stay as they were.
    """
    half, (w_mmd, w_g, w_ce) = batch.source_count, config.loss_weights
    phi = model.backbone_forward(_augment_batch(batch.features, rng))  # a constant
    # one pair geometry feeds the threshold, the graph and the kernel median;
    # it is made only when one of them is read
    geom = pair_distances(phi.data) if config.use_gnn or w_mmd else None
    graph = None
    if config.use_gnn:
        t_used = config.threshold
        if config.threshold_percentile is not None:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # degenerate batch still trains
                t_used = percentile_threshold(geom, config.threshold_percentile)
        graph = build_graph(geom, t_used)
    f = model.gnn_forward(phi, graph)
    # a zero-weight term is never built: total_loss reads None as 0.0.
    # The logits come first, then the one distance node both feature
    # terms read, as the creation order fixes the order in which the
    # graph layer's and the distances' gradients land on phi, and so its bits.
    logits = model.classify(f) if w_ce else None
    d2 = pairwise_sqdist(phi) if w_mmd or w_g else None
    l_mmd = l_g = None
    if w_mmd:
        kernels = KernelSpec.from_median_heuristic(geom, scales=config.kernel_scales)
        l_mmd = mmd_loss(d2, half, kernels)
    if w_g:
        l_g = feature_similarity_loss(d2, labels, config.margin)
    l_ce = cross_entropy_loss(logits, labels) if w_ce else None
    total, breakdown = total_loss(l_mmd, l_g, l_ce, weights=config.loss_weights)
    if np.isfinite(breakdown.l_total):
        adam.zero_grad()
        backward(total)
        adam.step()
    return breakdown, graph


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
    _check_inputs(config, source, target)
    if eval_labels is not None:
        eval_labels = np.asarray(eval_labels, dtype=np.int64)
        if eval_labels.shape != (len(target),):
            raise ValueError("eval labels do not match the target set")

    init_ss, sampler_ss, augment_ss = np.random.SeedSequence(config.seed).spawn(3)
    augment_rng = np.random.default_rng(augment_ss)
    source, src_stats = normalize(source)
    target, tgt_stats = normalize(target)
    model_cfg = ModelConfig(input_dims=source.feature_dims, num_classes=source.num_classes,
                            hidden=config.hidden, phi_dim=config.phi_dim,
                            backbone_hidden=config.backbone_hidden,
                            conv_channels=config.conv_channels)
    model = Model.init(model_cfg, np.random.default_rng(init_ss))
    adam = Adam(model.parameters(), lr=config.lr, weight_decay=config.weight_decay)
    sampler = TwoDomainSampler(source, target, config.batch_size, np.random.default_rng(sampler_ss))
    half = config.batch_size // 2

    run_dir = Path(run_dir) if run_dir is not None else None
    metrics_csv = steps_csv = None
    if run_dir is not None:
        run_dir.mkdir(parents=True, exist_ok=True)
        metrics_csv = _CsvFile(run_dir / "metrics.csv", METRICS_COLUMNS)
        steps_csv = _CsvFile(run_dir / "steps.csv", STEPS_COLUMNS)

    pseudo = PseudoState(labels=np.full(len(target), -1, dtype=np.int64),
                         confidence=np.zeros(len(target)), epoch=0, epsilon=config.epsilon)
    history, step = [], 0
    probs = None  # target probabilities under the current weights, None once stale

    def target_probs():
        nonlocal probs
        if probs is None:
            _, probs = model.infer(target.features)
        return probs

    try:
        for epoch in range(1, config.epochs + 1):
            if config.use_pseudo and epoch > config.warmup_epochs:
                pseudo = assign_pseudo_labels(target_probs(), config.epsilon, epoch=epoch)
            loss_sums = np.zeros(4)
            edge_sums = np.zeros(3, dtype=np.int64)

            for batch in sampler.epoch():
                step += 1
                labels = batch.labels.copy()
                labels[half:] = pseudo.labels[batch.ids[half:]]  # all -1 until the first refresh
                breakdown, graph = train_step(model, adam, config, batch, labels, augment_rng)
                if not np.isfinite(breakdown.l_total):
                    _dump_divergence(run_dir, epoch, step, breakdown, batch)
                    raise DivergenceError(
                        f"non-finite loss at epoch {epoch}, step {step}: "
                        f"mmd={breakdown.l_mmd} g={breakdown.l_g} ce={breakdown.l_ce}"
                    )
                probs = None
                loss_sums += (breakdown.l_mmd, breakdown.l_g, breakdown.l_ce, breakdown.l_total)
                if graph is not None:
                    st = edge_stats(graph, _audit_labels(batch, eval_labels))
                    edge_sums += (st.right, st.wrong, st.unknown)
                if steps_csv is not None:
                    steps_csv.row([step, *_csv_fields(breakdown), int((labels[half:] != -1).sum())])

            if run_dir is not None:
                write_pseudo_csv(run_dir / "pseudo.csv", pseudo)
            if eval_labels is not None:
                ev = evaluate(target_probs(), eval_labels, positive_class=config.positive_class)
                precision, accuracy = ev.precision, ev.accuracy
            else:
                precision = accuracy = float("nan")
            em = EpochMetrics(epoch, precision, accuracy, *(loss_sums / sampler.epoch_length),
                              pseudo_coverage(pseudo), *map(int, edge_sums))
            history.append(em)
            if metrics_csv is not None:
                metrics_csv.row(_csv_fields(em))
            if run_dir is not None and (epoch % config.checkpoint_every == 0
                                        or epoch == config.epochs):
                run = RunMeta(epoch, config.positive_class, config.threshold,
                              config.threshold_percentile, src_stats, tgt_stats)
                blob = {**model.state(), **config_to_tensors(model_cfg), **run_to_tensors(run)}
                save_checkpoint(run_dir / f"checkpoint_epoch{epoch:03d}.hdap", blob)
                if epoch == config.epochs:
                    save_checkpoint(run_dir / "checkpoint_final.hdap", blob)
    finally:
        for csvf in (metrics_csv, steps_csv):
            if csvf is not None:
                csvf.close()
    return model, history


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
    phi_source: np.ndarray,
    phi_target: np.ndarray,
    source_labels,
    target_labels,
    *,
    epoch: int,
) -> np.ndarray:
    """Per-sample backbone features plus a shared 2-D projection.

    ``phi_source`` and ``phi_target`` are each domain's ``Model.infer``
    features. Rows: epoch, id, domain, label (source truth; target pseudo
    or -1), the phi vector, then the two principal coordinates computed
    over the pooled source+target matrix. Deterministic: same inputs,
    same bytes. Returns that pooled (N_s + N_t, phi_dim) matrix, source
    rows first.
    """
    for name, phi, labels in (("source", phi_source, source_labels),
                              ("target", phi_target, target_labels)):
        if len(labels) != len(phi):
            raise ValueError(f"{len(labels)} {name} labels for {len(phi)} {name} rows")
    pooled = np.concatenate([phi_source, phi_target])
    _, proj = pca_2d(pooled)

    values = pooled.astype(np.float64, copy=False)  # tolist() then yields what _f reprs

    def rows():  # one encoded line at a time: no whole-file text is held
        yield ("epoch,id,domain,label," + ",".join(f"phi_{k}" for k in range(pooled.shape[1]))
               + ",pca_0,pca_1\n").encode("utf-8")
        row = 0
        for labels, dom in ((source_labels, "source"), (target_labels, "target")):
            for i, label in enumerate(labels):
                yield (f"{epoch},{i},{dom},{label},"
                       + ",".join(map(repr, values[row].tolist()))
                       + f",{_f(proj[row, 0])},{_f(proj[row, 1])}\n").encode("utf-8")
                row += 1

    _write_atomic(path, rows())
    return pooled
