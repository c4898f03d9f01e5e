"""Finite-difference gradient checking for the autodiff tests."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from graphda.autodiff import ShapeError, Tensor, backward


@dataclass
class GradCheckReport:
    """Per-coordinate comparison of backward gradients to central differences."""

    errors: np.ndarray
    max_error: float
    tol: float
    passed: bool
    analytic: np.ndarray
    numeric: np.ndarray


def grad_check(f: Callable[[Tensor], Tensor], point: Tensor, tol: float = 1e-5,
               step: float = 1e-6) -> GradCheckReport:
    """Compare the backward gradient of scalar-valued ``f`` at ``point``
    against central finite differences.

    The relative error guard is ``max(1, |analytic|, |numeric|)`` per
    coordinate; the check passes iff the max error is below ``tol``.
    """
    x = Tensor(np.array(point.data, copy=True))
    out = f(x)
    if out.size != 1:
        raise ShapeError(f"grad_check requires a scalar-valued function, got shape {out.shape}")
    backward(out)
    analytic = np.zeros(x.shape) if x.grad is None else x.grad.copy()

    numeric = np.zeros(x.shape)
    flat = x.data.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = float(f(x).data)
        flat[i] = orig - step
        fm = float(f(x).data)
        flat[i] = orig
        nflat[i] = (fp - fm) / (2.0 * step)

    guard = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    errors = np.abs(analytic - numeric) / guard
    max_error = float(errors.max()) if errors.size else 0.0
    return GradCheckReport(errors=errors, max_error=max_error, tol=tol,
                           passed=max_error < tol, analytic=analytic, numeric=numeric)
