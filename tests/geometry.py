"""The pair-geometry readers on raw (n, d) rows, each call making its own
``pair_distances``: what a test that does not share a geometry needs."""

import numpy as np

from graphda.graphs import build_graph, pair_distances, percentile_threshold
from graphda.losses import MEDIAN_SCALES, KernelSpec


def graph_of(phi, threshold, **kwargs):
    return build_graph(pair_distances(phi), threshold, **kwargs)


def threshold_of(phi, p):
    return percentile_threshold(pair_distances(phi), p)


def kernels_of(*feature_sets, scales=MEDIAN_SCALES):
    """The median-heuristic kernels of the stacked sets, as a training step
    takes them over its joint batch."""
    return KernelSpec.from_median_heuristic(pair_distances(np.concatenate(feature_sets)),
                                            scales=scales)
