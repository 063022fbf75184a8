"""Model building blocks on top of the autograd tensor.

Two encoder families live here: a windowed-attention encoder whose
attention runs as parallel single-head channel streams (used by the frame
models), and a conventional pre-norm transformer encoder (used by the note
model).  Both attend through the one node `tensor.attention`, dense over
the sequence given: the windowed encoder adds a band mask that keeps only
keys within +-window of each query, T x T scores a stream for T frames, and
every caller gives it at most `frontend.WINDOW` frames; the note model adds
a padding mask, heads x N x N scores a layer for N <= MAX_EVENTS events.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .tensor import Tensor

MAX_EVENTS = 512  # longest sequence `TransformerEncoder` attends over densely

_DRAW_INIT = True


class no_init:
    """Context manager: models built inside it draw no initial weights.  Each
    parameter is allocated as zeros of its shape, for a checkpoint to fill,
    and `numpy.random` (about 2.5 MB of resident memory) is not imported."""

    def __enter__(self):
        global _DRAW_INIT
        self._prev = _DRAW_INIT
        _DRAW_INIT = False
        return self

    def __exit__(self, *exc):
        global _DRAW_INIT
        _DRAW_INIT = self._prev
        return False


class _NoDraw:
    """What `init_rng` gives inside `no_init`: zeros of the shape asked for."""

    def uniform(self, low, high, size):
        return np.zeros(size)

    normal = uniform


def init_rng(seed: int):
    """The generator a model's constructor draws its initial weights from:
    `np.random.default_rng(seed)`, or inside `no_init` one that draws nothing."""
    return np.random.default_rng(seed) if _DRAW_INIT else _NoDraw()


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
    """Affine map x @ w + b, one graph node (`tensor.linear`)."""

    def __init__(self, rng, d_in: int, d_out: int):
        self.w = uniform_init(rng, (d_in, d_out), d_in)
        self.b = Tensor(np.zeros(d_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return tz.linear(x, self.w, self.b)


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
    """Single GRU layer, batch-first [B, T, D].  The input projection
    x @ w_ih + b_ih is one graph node (`tensor.linear`)."""

    def __init__(self, rng, d_in: int, d_hidden: int):
        self.w_ih = uniform_init(rng, (d_in, 3 * d_hidden), d_in)
        self.b_ih = Tensor(np.zeros(3 * d_hidden), requires_grad=True)
        self.w_hh = uniform_init(rng, (d_hidden, 3 * d_hidden), d_hidden)
        self.b_hh = Tensor(np.zeros(3 * d_hidden), requires_grad=True)
        self.d_hidden = d_hidden

    def __call__(self, x: Tensor) -> Tensor:
        """Runs from a zero initial state."""
        h0 = Tensor(np.zeros((x.shape[0], self.d_hidden)))
        x_pre = tz.linear(x, self.w_ih, self.b_ih)
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


@dataclass
class LocalEncoderConfig:
    """Windowed-attention encoder shape.

    Each frame attends to the frames within +-`window` of it, through a
    band mask on dense attention over the frames given: the attention op
    holds T x T scores per stream while it runs (a training graph keeps
    none of them), and every caller gives at most `frontend.WINDOW` frames
    (inference windows and training crops).

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
    """Parallel single-head attention paths over channel groups.

    Each stream attends through `tensor.attention` under the [T, T] band
    mask that `LocalEncoder` builds once per call.
    """

    def __init__(self, rng, cfg: LocalEncoderConfig):
        d = cfg.head_dim
        self.cfg = cfg
        self.norms = [LayerNorm(d) for _ in range(cfg.heads)]
        self.wq = [Linear(rng, d, d) for _ in range(cfg.heads)]
        self.wk = [Linear(rng, d, d) for _ in range(cfg.heads)]
        self.wv = [Linear(rng, d, d) for _ in range(cfg.heads)]

    def _stream(self, j: int, xs: Tensor, mask: np.ndarray) -> Tensor:
        h = self.norms[j](xs)
        return xs + tz.attention(self.wq[j](h), self.wk[j](h), self.wv[j](h), mask)

    def __call__(self, x: Tensor, mask: np.ndarray) -> Tensor:
        """Each stream on its own channel group; the outputs are concatenated in stream order."""
        d = self.cfg.head_dim
        streams = [self._stream(j, x[..., j * d : (j + 1) * d], mask) for j in range(self.cfg.heads)]
        return tz.concat(streams, axis=-1)


class Geglu(Module):
    """Pre-norm GEGLU feedforward with a residual (Shazeer 2020):
    x + out(val * gelu(gate)), where [val, gate] = proj(norm(x)) splits the
    2 * inner projection in halves.  The gating is one node,
    `tensor.geglu`, which under `no_grad` gates in its cdf buffer."""

    def __init__(self, rng, dim: int, inner: int):
        self.norm = LayerNorm(dim)
        self.proj = Linear(rng, dim, 2 * inner)
        self.out = Linear(rng, inner, dim)
        self.inner = inner

    def __call__(self, x: Tensor) -> Tensor:
        return x + self.out(tz.geglu(self.proj(self.norm(x)), self.inner))


class LocalEncoder(Module):
    """Stack of windowed-attention blocks with pre-norm residuals."""

    def __init__(self, cfg: LocalEncoderConfig):
        rng = init_rng(cfg.seed)
        self.cfg = cfg
        self.blocks = []
        for _ in range(cfg.layers):
            self.blocks.append(StreamAttention(rng, cfg))
            self.blocks.append(Geglu(rng, cfg.model_dim, cfg.ffn_inner))
        self.final_norm = LayerNorm(cfg.model_dim)

    def __call__(self, x: Tensor) -> Tensor:
        T = x.shape[-2]
        idx = np.arange(T)
        band = np.where(np.abs(idx[:, None] - idx[None, :]) <= self.cfg.window, 0.0, -1e30)
        h = x + sinusoid_positions(T, self.cfg.model_dim)
        for i in range(0, len(self.blocks), 2):
            h = self.blocks[i](h, band)
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

    def __call__(self, x: Tensor, mask: np.ndarray) -> Tensor:
        B, T, _ = x.shape
        q, k, v = self._split(self.wq(x)), self._split(self.wk(x)), self._split(self.wv(x))
        a = tz.attention(q, k, v, mask)
        a = a.swapaxes(1, 2).reshape((B, T, self.dim))
        return self.wo(a)


@dataclass
class TransformerConfig:
    layers: int = 2
    model_dim: int = 64
    heads: int = 4
    dropout: float = 0.1
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
    """Pre-norm transformer with no position term: its input places each element."""

    def __init__(self, cfg: TransformerConfig):
        rng = init_rng(cfg.seed)
        self.blocks = [TransformerBlock(rng, cfg) for _ in range(cfg.layers)]
        self.final_norm = LayerNorm(cfg.model_dim)

    def __call__(self, x: Tensor, pad_mask: np.ndarray, rng=None) -> Tensor:
        """pad_mask: [B, T] with 1 for real positions, 0 for padding."""
        T = x.shape[1]
        if T > MAX_EVENTS:
            raise ValueError(f"sequence length {T} exceeds MAX_EVENTS {MAX_EVENTS}")
        mask = np.where(pad_mask[:, None, None, :] > 0, 0.0, -1e30)
        for blk in self.blocks:
            x = blk(x, mask, rng=rng)
        return self.final_norm(x)
