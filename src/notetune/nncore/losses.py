"""Training objectives shared by the frame and note models."""

from __future__ import annotations

import numpy as np

from . import tensor as tz
from .tensor import Tensor

PROB_EPS = 1e-7


def focal_loss(
    pred: Tensor,
    soft_target: np.ndarray,
    hard_target: np.ndarray,
    gamma: float = 4.0,
    alpha_pos: float = 29.0,
    alpha_neg: float = 1.0,
) -> Tensor:
    """Soft-label focal loss over per-frame boundary probabilities.

    pred holds probabilities in (0, 1); soft_target is the Gaussian-blurred
    label in [0, 1]; hard_target selects the per-frame alpha weight
    (alpha_pos on boundary frames, alpha_neg elsewhere).
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    soft = np.asarray(soft_target, dtype=np.float64)
    hard = np.asarray(hard_target)
    alpha = np.where(hard > 0, alpha_pos, alpha_neg)
    p = tz.clip(pred, PROB_EPS, 1.0 - PROB_EPS)
    pos = pow_term(1.0 - p, gamma) * soft * tz.tlog(p)
    neg = pow_term(p, gamma) * (1.0 - soft) * tz.tlog(1.0 - p)
    return -((pos + neg) * alpha).sum()


def pow_term(x, gamma: float):
    if gamma == 0:
        return 1.0 if not isinstance(x, Tensor) else x * 0.0 + 1.0
    return x**gamma

