"""Central finite-difference verification of analytic gradients."""

from __future__ import annotations

import numpy as np


def finite_difference_check(fn, tensors, h: float = 1e-5, rtol: float = 1e-4) -> float:
    """Compare analytic gradients of scalar fn() against central differences.

    `tensors` are the leaves to check (each element perturbed individually,
    so keep them small).  Returns the worst relative error; raises
    AssertionError when it exceeds rtol.
    """
    for t in tensors:
        t.zero_grad()
    loss = fn()
    loss.backward()
    worst = 0.0
    for t in tensors:
        analytic = np.zeros_like(t.data) if t.grad is None else t.grad.copy()
        flat = t.data.reshape(-1)
        num = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = float(fn().data)
            flat[i] = orig - h
            f_minus = float(fn().data)
            flat[i] = orig
            num[i] = (f_plus - f_minus) / (2.0 * h)
        num = num.reshape(t.data.shape)
        err = np.abs(analytic - num) / np.maximum(1.0, np.abs(num))
        worst = max(worst, float(err.max()) if err.size else 0.0)
        if worst > rtol:
            raise AssertionError(
                f"gradient check failed: worst relative error {worst:.3e} > {rtol:.0e}"
            )
        t.zero_grad()
    return worst

