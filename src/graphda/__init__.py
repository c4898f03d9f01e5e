"""Unsupervised domain adaptation with batch graphs and pseudo-labels.

A labeled source domain and an unlabeled target domain pass through a
shared backbone; a kernel two-sample distance aligns their feature
distributions, a threshold graph over each mini-batch feeds a small
graph network, and high-confidence target predictions are recycled as
pseudo-labels. Everything runs on numpy with a built-in reverse-mode
autodiff; the ``graphda`` command exposes dataset generation, training,
evaluation, and embedding export.
"""

from .autodiff import ShapeError, Tensor
from .datasets import (
    Batch,
    DataFormatError,
    Dataset,
    Domain,
    NormStats,
    ShiftConfig,
    TwoDomainSampler,
    compute_norm_stats,
    gen_synthetic_shift,
    normalize,
    read_dataset,
    read_label_file,
    write_dataset,
    write_label_file,
)
from .graphs import (BatchGraph, EdgeStats, PairGeometry, build_graph, edge_stats, pair_distances,
                     percentile_threshold)
from .losses import (
    MEDIAN_SCALES,
    KernelSpec,
    LossBreakdown,
    cross_entropy_loss,
    feature_similarity_loss,
    mmd_loss,
    total_loss,
)
from .model import (
    Model,
    ModelConfig,
    load_checkpoint,
    save_checkpoint,
)
from .pseudo import (
    PseudoState,
    assign_pseudo_labels,
    pseudo_coverage,
)
from .training import (
    Adam,
    DivergenceError,
    EpochMetrics,
    EvalMetrics,
    TrainConfig,
    evaluate,
    export_embeddings,
    pca_2d,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "Batch",
    "BatchGraph",
    "DataFormatError",
    "Dataset",
    "DivergenceError",
    "Domain",
    "EdgeStats",
    "EpochMetrics",
    "EvalMetrics",
    "KernelSpec",
    "LossBreakdown",
    "MEDIAN_SCALES",
    "Model",
    "ModelConfig",
    "NormStats",
    "PairGeometry",
    "PseudoState",
    "ShapeError",
    "ShiftConfig",
    "Tensor",
    "TrainConfig",
    "TwoDomainSampler",
    "assign_pseudo_labels",
    "build_graph",
    "compute_norm_stats",
    "cross_entropy_loss",
    "edge_stats",
    "evaluate",
    "export_embeddings",
    "feature_similarity_loss",
    "gen_synthetic_shift",
    "load_checkpoint",
    "mmd_loss",
    "normalize",
    "pair_distances",
    "pca_2d",
    "percentile_threshold",
    "pseudo_coverage",
    "read_dataset",
    "read_label_file",
    "save_checkpoint",
    "total_loss",
    "train",
    "write_dataset",
    "write_label_file",
]
