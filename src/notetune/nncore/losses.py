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
    gamma: float,
    alpha_pos: float,
    alpha_neg: float,
) -> Tensor:
    """Soft-label focal loss over per-frame boundary probabilities.

    pred holds probabilities in (0, 1); soft_target is the Gaussian-blurred
    label in [0, 1]; hard_target selects the per-frame alpha weight
    (alpha_pos on boundary frames, alpha_neg elsewhere).  The probabilities
    are clipped away from 0 and 1, so at gamma = 0 the focal factors are 1
    with zero gradient.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    soft = np.asarray(soft_target, dtype=np.float64)
    hard = np.asarray(hard_target)
    alpha = np.where(hard > 0, alpha_pos, alpha_neg)
    p = tz.clip(pred, PROB_EPS, 1.0 - PROB_EPS)
    pos = (1.0 - p) ** gamma * soft * tz.tlog(p)
    neg = p**gamma * (1.0 - soft) * tz.tlog(1.0 - p)
    return -((pos + neg) * alpha).sum()
