"""AdamW with decoupled weight decay and a warm-up + cosine schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor


@dataclass
class OptimizerConfig:
    lr: float = 1e-3
    beta1: float = 0.93
    beta2: float = 0.98
    eps: float = 1e-8
    weight_decay: float = 0.01
    t_max: int = 10_000
    eta_min: float = 1e-6
    warmup: int = 0

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")
        if self.eta_min > self.lr:
            raise ValueError("eta_min must not exceed lr")


def schedule_lr(cfg: OptimizerConfig, step: int) -> float:
    """Linear warm-up to cfg.lr, then cosine annealing down to eta_min."""
    if cfg.warmup > 0 and step < cfg.warmup:
        return cfg.lr * (step + 1) / cfg.warmup
    t = min(step - cfg.warmup, cfg.t_max)
    return cfg.eta_min + 0.5 * (cfg.lr - cfg.eta_min) * (1.0 + math.cos(math.pi * t / cfg.t_max))


class AdamW:
    def __init__(self, params: dict[str, Tensor], cfg: OptimizerConfig):
        self.params = params
        self.cfg = cfg
        self.step_count = 0
        self._m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self):
        cfg = self.cfg
        lr = schedule_lr(cfg, self.step_count)
        self.step_count += 1
        t = self.step_count
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            m = self._m[name]
            v = self._v[name]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * g * g
            m_hat = m / (1.0 - cfg.beta1**t)
            v_hat = v / (1.0 - cfg.beta2**t)
            p.data -= lr * (m_hat / (np.sqrt(v_hat) + cfg.eps) + cfg.weight_decay * p.data)

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()


def cosine_adamw(
    params: dict[str, Tensor],
    lr: float,
    steps: int,
    warmup: int,
    weight_decay: float = OptimizerConfig.weight_decay,
) -> AdamW:
    """AdamW whose schedule warms up, then anneals over `steps` to lr / 100."""
    return AdamW(
        params,
        OptimizerConfig(lr=lr, weight_decay=weight_decay, t_max=steps, eta_min=lr / 100, warmup=warmup),
    )


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
