"""Loss terms for graph-based domain adaptation.

Three pieces, summed without coefficients into the training objective;
the first two read one (B, B) squared-distance node of the joint batch:

* ``mmd_loss``: squared kernel mean discrepancy w^T K w between the source
  and target feature clouds, with an equal-weight mixture of Gaussian kernels.
* ``feature_similarity_loss``: contrastive pull/push over labeled pairs
  inside a batch; same label attracts, different labels repel up to a
  margin on the squared distance.
* ``cross_entropy_loss``: node-level classification loss over rows that
  carry a label (source rows plus confidently pseudo-labeled targets).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, gaussian_mixture, nll, pull_push
from .graphs import PairGeometry

__all__ = [
    "KernelSpec",
    "LossBreakdown",
    "MEDIAN_SCALES",
    "mmd_loss",
    "feature_similarity_loss",
    "cross_entropy_loss",
    "total_loss",
]

# bandwidth multipliers around the median pairwise distance
MEDIAN_SCALES = (0.25, 0.5, 1.0, 2.0, 4.0)


@dataclass(frozen=True)
class KernelSpec:
    """Equal-weight mixture of kappa Gaussian kernels.

    k(a, b) = (1/kappa) sum_m exp(-||a-b||^2 / (2 * bandwidths[m]^2)).
    """

    bandwidths: tuple

    def __post_init__(self):
        bw = tuple(float(s) for s in self.bandwidths)
        object.__setattr__(self, "bandwidths", bw)
        if not bw or any(s <= 0 for s in bw):
            raise ValueError(f"bandwidths must be one or more positive values, got {bw}")

    def kernel(self, sqdists: Tensor) -> Tensor:
        """Apply the mixture to a matrix of squared distances.

        One ``gaussian_mixture`` node. Its forward sums the terms in
        bandwidth order and its backward lands them in reverse bandwidth
        order, which fixes the bits of the loss and of every gradient.
        """
        coefs = tuple(-0.5 / (sigma * sigma) for sigma in self.bandwidths)
        return gaussian_mixture(sqdists, coefs, (1.0 / len(coefs),) * len(coefs))

    @classmethod
    def from_median_heuristic(cls, geom: PairGeometry, scales=MEDIAN_SCALES) -> "KernelSpec":
        """Bandwidths from the median pairwise distance of the rows of
        ``geom``, the joint batch's pair geometry.

        The median is scale-matched to the data, so the same kernel family
        works across feature magnitudes; ``scales`` spreads bandwidths
        around it. All-identical rows give no usable scale; falls back to
        a median of 1 with a warning.
        """
        m = geom.pairs
        a, b = geom.ranks([(m - 1) // 2, m // 2])  # the ranks np.median reads
        med = a if m % 2 else (a + b) / 2
        if med == 0.0:
            warnings.warn(
                "median pairwise distance is 0 (identical rows); using bandwidth 1",
                stacklevel=2,
            )
            med = 1.0
        return cls(bandwidths=tuple(med * s for s in scales))


@dataclass(frozen=True)
class LossBreakdown:
    """Scalar values of the three terms and their sum for one step."""

    l_mmd: float
    l_g: float
    l_ce: float
    l_total: float


def mmd_loss(sqdists: Tensor, n_source: int, kernels: KernelSpec) -> Tensor:
    """Biased squared MMD between the first ``n_source`` rows of a joint
    batch and the rest, from its (B, B) squared distances: w^T K w with K
    the kernel matrix and w = 1/ns on source rows, -1/nt on target rows
    (Gretton et al. 2012, "A Kernel Two-Sample Test", JMLR 13, eq. 5), i.e.
    (1/ns^2) sum k(s,s') + (1/nt^2) sum k(t,t') - (2/(ns*nt)) sum k(s,t).
    The diagonal terms stay in, so the value is a squared RKHS norm,
    nonnegative up to rounding.
    """
    ns, nt = n_source, sqdists.shape[0] - n_source
    if ns < 1 or nt < 1:
        raise ValueError(f"need at least one row per domain, got {ns} and {nt}")
    w = np.concatenate([np.full(ns, 1.0 / ns), np.full(nt, -1.0 / nt)])
    return (kernels.kernel(sqdists) * np.outer(w, w)).sum()


def feature_similarity_loss(sqdists: Tensor, labels, margin: float = 2.0) -> Tensor:
    """Contrastive loss over the labeled pairs of a batch's squared distances.

    For each pair i<j with both labels known (not -1): squared distance
    if the labels match, max(0, margin - squared distance) otherwise.
    Averaged over contributing pairs so the scale does not grow with the
    batch; 0 when no pair contributes. The pull and push sums are one
    ``pull_push`` node, whose backward lands the push gradient first and
    then adds the pull gradient; that order fixes the bits.
    """
    lab = np.asarray(labels, dtype=np.int64)
    b = sqdists.shape[0]
    if lab.shape != (b,):
        raise ValueError(f"labels shape {lab.shape} does not match batch size {b}")
    known = lab != -1
    both = known[:, None] & known[None, :]
    both &= np.triu(np.ones((b, b), dtype=bool), k=1)
    same = (both & (lab[:, None] == lab[None, :])).astype(np.float64)
    diff = (both & (lab[:, None] != lab[None, :])).astype(np.float64)
    count = int(both.sum())
    if count == 0:
        return Tensor(0.0)
    return pull_push(sqdists, same, diff, margin) * (1.0 / count)


def cross_entropy_loss(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood over labeled rows, one ``nll`` node.

    Takes raw logits and goes through log-softmax directly; taking the
    log of softmax output would lose precision for confident rows.
    Rows labeled -1 are excluded; with no labeled rows the loss is 0
    and a warning is raised.
    """
    lab = np.asarray(labels, dtype=np.int64)
    if lab.shape != (logits.shape[0],):
        raise ValueError(f"labels shape {lab.shape} does not match batch size {logits.shape[0]}")
    if (lab == -1).all():
        warnings.warn("no labeled rows in batch; cross-entropy is 0", stacklevel=2)
        return Tensor(0.0)
    return nll(logits, lab)


def total_loss(
    l_mmd: Tensor | None,
    l_g: Tensor | None,
    l_ce: Tensor | None,
    *,
    weights,
) -> tuple[Tensor, LossBreakdown]:
    """Weighted sum of the three terms, added as ``(mmd + g) + ce``.

    ``weights`` are ``TrainConfig.loss_weights``: all 1 is the paper's
    objective, other values are ablations. Training builds no term
    whose weight is 0 and passes ``None`` for it: such a term adds
    nothing, reads ``0.0`` in the breakdown and so cannot make the total
    non-finite. With no term built the total is a constant 0.
    """
    terms = [None if t is None else t * float(w) for t, w in zip((l_mmd, l_g, l_ce), weights)]
    tm, tg, tc = (0.0 if t is None else float(t.data) for t in terms)
    built = [t for t in terms if t is not None]
    total = sum(built[1:], built[0]) if built else Tensor(0.0)
    breakdown = LossBreakdown(l_mmd=tm, l_g=tg, l_ce=tc, l_total=(tm + tg) + tc)
    return total, breakdown
