"""Model building blocks on top of the autograd tensor.

Two encoder families live here: a windowed-attention encoder whose
attention runs as parallel single-head channel streams (used by the frame
models), and a conventional pre-norm transformer encoder (used by the note
model).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .tensor import Tensor


class Module:
    """Parameter container; children register through attribute assignment."""

    def params(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name, val in self.__dict__.items():
            if isinstance(val, Tensor) and val.requires_grad:
                out[name] = val
            elif isinstance(val, Module):
                for k, v in val.params().items():
                    out[f"{name}.{k}"] = v
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        for k, v in item.params().items():
                            out[f"{name}.{i}.{k}"] = v
        return out


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> Tensor:
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


class Linear(Module):
    def __init__(self, rng, d_in: int, d_out: int):
        self.w = uniform_init(rng, (d_in, d_out), d_in)
        self.b = Tensor(np.zeros(d_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return x @ self.w + self.b


class Embedding(Module):
    def __init__(self, rng, n_rows: int, dim: int):
        self.table = Tensor(rng.normal(0.0, 0.02, size=(n_rows, dim)), requires_grad=True)

    def __call__(self, idx: np.ndarray) -> Tensor:
        return tz.embedding(self.table, idx)


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return tz.layer_norm(x, self.gamma, self.beta)


class GRU(Module):
    """Single GRU layer, batch-first [B, T, D]."""

    def __init__(self, rng, d_in: int, d_hidden: int):
        self.w_ih = uniform_init(rng, (d_in, 3 * d_hidden), d_in)
        self.b_ih = Tensor(np.zeros(3 * d_hidden), requires_grad=True)
        self.w_hh = uniform_init(rng, (d_hidden, 3 * d_hidden), d_hidden)
        self.b_hh = Tensor(np.zeros(3 * d_hidden), requires_grad=True)
        self.d_hidden = d_hidden

    def __call__(self, x: Tensor) -> Tensor:
        """Runs from a zero initial state."""
        h0 = Tensor(np.zeros((x.shape[0], self.d_hidden)))
        x_pre = x @ self.w_ih + self.b_ih
        return tz.gru_sequence(x_pre, self.w_hh, self.b_hh, h0)


def sinusoid_positions(T: int, dim: int) -> np.ndarray:
    """Classic fixed sinusoidal position table [T, dim]."""
    pos = np.arange(T)[:, None]
    i = np.arange(dim // 2)[None, :]
    angles = pos / np.power(10000.0, 2.0 * i / dim)
    table = np.zeros((T, dim))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    return table


def band_mask(T: int, window: int) -> np.ndarray:
    """Additive attention mask [T, T]: 0 within +-window, large negative outside."""
    idx = np.arange(T)
    inside = np.abs(idx[:, None] - idx[None, :]) <= window
    return np.where(inside, 0.0, -1e30)


def attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None):
    """Scaled dot-product attention; q, k, v are [..., T, d]."""
    d = q.shape[-1]
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(d))
    if mask is not None:
        scores = scores + mask
    return tz.softmax(scores, axis=-1) @ v


@dataclass
class LocalEncoderConfig:
    """Windowed-attention encoder shape.

    `heads` is also the number of parallel channel streams: attention runs
    single-headed per stream of width model_dim // heads, and the streams
    merge before the feedforward, which spans the full width.  The
    feedforward projects to 2 * ffn_inner and gates half against the other
    (GEGLU).
    """

    layers: int = 2
    model_dim: int = 64
    heads: int = 2
    window: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.model_dim % self.heads != 0:
            raise ValueError("model_dim must divide evenly into heads")
        if self.window < 1:
            raise ValueError("window must be >= 1")

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.heads

    @property
    def ffn_inner(self) -> int:
        return int(round(self.model_dim * 682 / 256))


class StreamAttention(Module):
    """Parallel single-head attention paths over channel groups."""

    def __init__(self, rng, cfg: LocalEncoderConfig):
        d = cfg.head_dim
        self.cfg = cfg
        self.norms = [LayerNorm(d) for _ in range(cfg.heads)]
        self.wq = [Linear(rng, d, d) for _ in range(cfg.heads)]
        self.wk = [Linear(rng, d, d) for _ in range(cfg.heads)]
        self.wv = [Linear(rng, d, d) for _ in range(cfg.heads)]

    def __call__(self, x: Tensor, mask: np.ndarray) -> Tensor:
        d = self.cfg.head_dim
        outs = []
        for j in range(self.cfg.heads):
            xs = x[..., j * d : (j + 1) * d]
            h = self.norms[j](xs)
            a = attention(self.wq[j](h), self.wk[j](h), self.wv[j](h), mask)
            outs.append(xs + a)
        return tz.concat(outs, axis=-1)


class Geglu(Module):
    def __init__(self, rng, dim: int, inner: int):
        self.norm = LayerNorm(dim)
        self.proj = Linear(rng, dim, 2 * inner)
        self.out = Linear(rng, inner, dim)
        self.inner = inner

    def __call__(self, x: Tensor) -> Tensor:
        h = self.proj(self.norm(x))
        val = h[..., : self.inner]
        gate = h[..., self.inner :]
        return x + self.out(val * tz.gelu(gate))


class LocalEncoder(Module):
    """Stack of windowed-attention blocks with pre-norm residuals."""

    def __init__(self, cfg: LocalEncoderConfig):
        rng = np.random.default_rng(cfg.seed)
        self.cfg = cfg
        self.blocks = []
        for _ in range(cfg.layers):
            self.blocks.append(StreamAttention(rng, cfg))
            self.blocks.append(Geglu(rng, cfg.model_dim, cfg.ffn_inner))
        self.final_norm = LayerNorm(cfg.model_dim)

    def __call__(self, x: Tensor) -> Tensor:
        T = x.shape[-2]
        mask = band_mask(T, self.cfg.window)
        h = x + sinusoid_positions(T, self.cfg.model_dim)
        for i in range(0, len(self.blocks), 2):
            h = self.blocks[i](h, mask)
            h = self.blocks[i + 1](h)
        return self.final_norm(h)


class MultiHeadAttention(Module):
    """Standard multi-head attention with output projection."""

    def __init__(self, rng, dim: int, heads: int):
        if dim % heads != 0:
            raise ValueError("dim must divide evenly into heads")
        self.heads = heads
        self.dim = dim
        self.wq = Linear(rng, dim, dim)
        self.wk = Linear(rng, dim, dim)
        self.wv = Linear(rng, dim, dim)
        self.wo = Linear(rng, dim, dim)

    def _split(self, x: Tensor) -> Tensor:
        B, T, _ = x.shape
        d = self.dim // self.heads
        return x.reshape((B, T, self.heads, d)).swapaxes(1, 2)

    def __call__(self, x: Tensor, mask: np.ndarray | None) -> Tensor:
        B, T, _ = x.shape
        q, k, v = self._split(self.wq(x)), self._split(self.wk(x)), self._split(self.wv(x))
        a = attention(q, k, v, mask)
        a = a.swapaxes(1, 2).reshape((B, T, self.dim))
        return self.wo(a)


@dataclass
class TransformerConfig:
    layers: int = 2
    model_dim: int = 64
    heads: int = 4
    dropout: float = 0.1
    max_len: int = 512
    seed: int = 0


class TransformerBlock(Module):
    def __init__(self, rng, cfg: TransformerConfig):
        self.norm1 = LayerNorm(cfg.model_dim)
        self.attn = MultiHeadAttention(rng, cfg.model_dim, cfg.heads)
        self.norm2 = LayerNorm(cfg.model_dim)
        self.ff1 = Linear(rng, cfg.model_dim, 4 * cfg.model_dim)
        self.ff2 = Linear(rng, 4 * cfg.model_dim, cfg.model_dim)
        self.p_drop = cfg.dropout

    def __call__(self, x, mask, rng=None):
        h = self.attn(self.norm1(x), mask)
        if rng is not None:
            h = tz.dropout(h, self.p_drop, rng)
        x = x + h
        h = self.ff2(tz.gelu(self.ff1(self.norm2(x))))
        if rng is not None:
            h = tz.dropout(h, self.p_drop, rng)
        return x + h


class TransformerEncoder(Module):
    """Pre-norm transformer with learned absolute positions."""

    def __init__(self, cfg: TransformerConfig):
        rng = np.random.default_rng(cfg.seed)
        self.cfg = cfg
        self.pos = Embedding(rng, cfg.max_len, cfg.model_dim)
        self.blocks = [TransformerBlock(rng, cfg) for _ in range(cfg.layers)]
        self.final_norm = LayerNorm(cfg.model_dim)

    def __call__(self, x: Tensor, pad_mask: np.ndarray | None = None, rng=None) -> Tensor:
        """pad_mask: [B, T] with 1 for real positions, 0 for padding."""
        B, T, _ = x.shape
        if T > self.cfg.max_len:
            raise ValueError(f"sequence length {T} exceeds max_len {self.cfg.max_len}")
        h = x + self.pos(np.arange(T))
        mask = None
        if pad_mask is not None:
            mask = np.where(pad_mask[:, None, None, :] > 0, 0.0, -1e30)
        for blk in self.blocks:
            h = blk(h, mask, rng=rng)
        return self.final_norm(h)
