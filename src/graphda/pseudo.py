"""Confidence-gated pseudo-labels for the target domain.

Each refresh runs the inference path over the full target set and keeps
the argmax class only where its probability strictly exceeds epsilon;
everything else stays -1 and is excluded from the losses by the same
-1 machinery as genuinely unlabeled data. Labels come from the model
alone; this module never sees evaluation ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import Dataset, _write_atomic

__all__ = [
    "PseudoState",
    "label_from_probs",
    "assign_pseudo_labels",
    "pseudo_coverage",
    "write_pseudo_csv",
]


@dataclass(frozen=True, eq=False)
class PseudoState:
    """Snapshot of target pseudo-labels after one refresh.

    ``confidence`` records the probability that justified each assigned
    label (for retained sticky labels, the one measured at assignment);
    unassigned rows carry their latest argmax probability for auditing.
    """

    labels: np.ndarray  # (N_t,) int64, -1 = unassigned
    confidence: np.ndarray  # (N_t,) float64
    epoch: int
    epsilon: float

    def __post_init__(self):
        lab = np.asarray(self.labels, dtype=np.int64)
        conf = np.asarray(self.confidence, dtype=np.float64)
        if lab.shape != conf.shape or lab.ndim != 1:
            raise ValueError(f"labels {lab.shape} and confidence {conf.shape} must be equal 1-D")
        assigned = lab != -1
        if np.any(conf[assigned] <= self.epsilon):
            bad = int(np.nonzero(assigned & (conf <= self.epsilon))[0][0])
            raise ValueError(
                f"sample {bad} is labeled with confidence {conf[bad]}, "
                f"not above epsilon={self.epsilon}"
            )
        for name, arr in (("labels", lab), ("confidence", conf)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def num_assigned(self) -> int:
        return int((self.labels != -1).sum())


def _check_epsilon(epsilon: float, num_classes: int) -> None:
    lo = 1.0 / num_classes
    if not lo < epsilon < 1.0:
        raise ValueError(
            f"epsilon must lie strictly between 1/m={lo} and 1, got {epsilon}"
        )


def label_from_probs(probs: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Argmax where it strictly beats epsilon, else -1.

    Returns (labels, confidence); confidence is the argmax probability
    for every row, assigned or not. Ties go to the lowest class index
    (they can never pass a strict threshold above 1/m anyway).
    """
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError(f"expected (N, m) probabilities, got shape {p.shape}")
    _check_epsilon(epsilon, p.shape[1])
    best = np.argmax(p, axis=1)
    conf = p[np.arange(p.shape[0]), best]
    labels = np.where(conf > epsilon, best, -1).astype(np.int64)
    return labels, conf


def assign_pseudo_labels(
    model,
    target_set: Dataset,
    epsilon: float,
    *,
    epoch: int = 0,
    prior: PseudoState | None = None,
    sticky: bool = False,
    chunk: int | None = None,
) -> PseudoState:
    """Refresh pseudo-labels over the whole (already normalized) target set.

    Default is full reassignment: a label granted earlier disappears if
    the model is no longer confident. With ``sticky=True`` labels are
    never revoked; a fresh confident prediction still overwrites.
    Inference runs in ``model.chunks`` of rows purely to bound memory.
    """
    _check_epsilon(epsilon, target_set.num_classes)
    n = len(target_set)
    labels = np.empty(n, dtype=np.int64)
    conf = np.empty(n, dtype=np.float64)
    for rows in model.chunks(n, chunk):
        probs = model.infer(target_set.features[rows]).probs.data
        labels[rows], conf[rows] = label_from_probs(probs, epsilon)
    if sticky and prior is not None:
        fresh = labels != -1
        keep = ~fresh & (prior.labels != -1)
        labels = np.where(keep, prior.labels, labels)
        conf = np.where(keep, prior.confidence, conf)
    return PseudoState(labels=labels, confidence=conf, epoch=epoch, epsilon=epsilon)


def pseudo_coverage(state: PseudoState) -> float:
    """Fraction of target samples currently carrying a pseudo-label."""
    n = state.labels.shape[0]
    return state.num_assigned / n if n else 0.0


def write_pseudo_csv(path, state: PseudoState) -> None:
    """Dump the snapshot for label-drift auditing.

    Floats are written with repr so files are byte-stable across runs
    and parse back to the exact same value.
    """
    lines = ["sample_id,label,confidence,epoch"]
    for i in range(state.labels.shape[0]):
        lines.append(
            f"{i},{state.labels[i]},{repr(float(state.confidence[i]))},{state.epoch}"
        )
    _write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))
