"""The pair-geometry readers on raw (n, d) rows, each call making its own
``pair_distances``: what a test that does not share a geometry needs; and
the two feature losses called on feature tensors, each making its own
distance node, with the three-block MMD as the oracle for w^T K w."""

import numpy as np

from graphda.autodiff import matmul, pairwise_sqdist
from graphda.graphs import build_graph, pair_distances, percentile_threshold
from graphda.losses import MEDIAN_SCALES, KernelSpec, feature_similarity_loss, mmd_loss


def graph_of(phi, threshold, **kwargs):
    return build_graph(pair_distances(phi), threshold, **kwargs)


def threshold_of(phi, p):
    return percentile_threshold(pair_distances(phi), p)


def kernels_of(*feature_sets, scales=MEDIAN_SCALES):
    """The median-heuristic kernels of the stacked sets, as a training step
    takes them over its joint batch."""
    return KernelSpec.from_median_heuristic(pair_distances(np.concatenate(feature_sets)),
                                            scales=scales)


def stacked(a, b):
    """The rows of tensors ``a`` then ``b`` as one tensor, through 0/1
    selection matmuls, so each side keeps a gradient of its own."""
    eye = np.eye(a.shape[0] + b.shape[0])
    return matmul(eye[:, :a.shape[0]], a) + matmul(eye[:, a.shape[0]:], b)


def mmd_of(a, b, kernels):
    """``mmd_loss`` between tensors ``a`` and ``b``, as a step takes it over
    their stacked rows."""
    return mmd_loss(pairwise_sqdist(stacked(a, b)), a.shape[0], kernels)


def separation_of(f, labels, margin=2.0):
    return feature_similarity_loss(pairwise_sqdist(f), labels, margin)


def mmd_blocks(a, b, kernels):
    """The biased MMD^2 of rows ``a`` and ``b`` as its three kernel blocks
    over direct differences: the oracle for ``mmd_loss``'s w^T K w."""
    beta = 1.0 / len(kernels.bandwidths)

    def k(x, y):
        d2 = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=-1)
        return sum(beta * np.exp(d2 * (-0.5 / (s * s))) for s in kernels.bandwidths)
    return k(a, a).mean() + k(b, b).mean() - 2.0 * k(a, b).mean()
