"""AdamW with decoupled weight decay and a warm-up + cosine schedule."""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor

BETA1 = 0.93
BETA2 = 0.98
EPS = 1e-8


class AdamW:
    """AdamW whose learning rate warms up linearly over `warmup` steps,
    then anneals by a cosine over `steps` down to lr / 100."""

    def __init__(self, params: dict[str, Tensor], lr: float, steps: int, warmup: int,
                 weight_decay: float = 0.01):
        if lr <= 0:
            raise ValueError("lr must be > 0")
        self.params = params
        self.lr = lr
        self.steps = steps
        self.warmup = warmup
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def lr_at(self, step: int) -> float:
        if self.warmup > 0 and step < self.warmup:
            return self.lr * (step + 1) / self.warmup
        eta_min = self.lr / 100
        t = min(step - self.warmup, self.steps)
        return eta_min + 0.5 * (self.lr - eta_min) * (1.0 + math.cos(math.pi * t / self.steps))

    def step(self):
        lr = self.lr_at(self.step_count)
        self.step_count += 1
        t = self.step_count
        for name, p in self.params.items():
            if p.grad is None:
                continue
            # p -= lr * (m_hat / (sqrt(v_hat) + EPS) + weight_decay * p), in
            # that order, through two temporaries
            g = p.grad
            m = self._m[name]
            v = self._v[name]
            tmp = g * (1.0 - BETA1)
            m *= BETA1
            m += tmp
            np.multiply(g, 1.0 - BETA2, out=tmp)
            tmp *= g
            v *= BETA2
            v += tmp
            np.divide(v, 1.0 - BETA2**t, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += EPS
            update = m / (1.0 - BETA1**t)
            update /= tmp
            np.multiply(p.data, self.weight_decay, out=tmp)
            update += tmp
            update *= lr
            p.data -= update

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()


class DivergenceError(RuntimeError):
    """Raised when a training loss stops being finite."""


def train_step(loss: Tensor, optimizer: AdamW, context: str = "") -> float:
    """Backward + parameter update; aborts loudly on a non-finite loss."""
    value = loss.data.item()
    if not math.isfinite(value):
        raise DivergenceError(f"non-finite loss {value!r} at step {optimizer.step_count} {context}")
    loss.backward()
    optimizer.step()
    optimizer.zero_grad()
    return value
