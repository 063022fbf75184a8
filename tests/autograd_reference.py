"""The autograd kernels that the in-place forms in `nncore.tensor` replaced,
kept verbatim as the reference those forms must match byte for byte.
`_accumulate` is the `Tensor` method, here as a plain function."""

import numpy as np
from scipy.special import erf

from notetune.nncore.tensor import (
    _INV_SQRT_2PI,
    _SQRT2,
    LAYER_NORM_EPS,
    Tensor,
    _band_blocks,
    _fold_bands,
    _is_fancy,
    _make,
    _unbroadcast,
)


def _accumulate(self, g: np.ndarray):
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += g


def matmul(a: Tensor, b: Tensor):
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul requires tensors with ndim >= 2")

    def bw(g):
        a._accumulate(_unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape))
        b._accumulate(_unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape))

    return _make(a.data @ b.data, (a, b), bw)


def linear(x: Tensor, w: Tensor, b: Tensor):
    """Two graph nodes, a matmul and an add."""
    return x @ w + b


def gelu(a: Tensor):
    """Exact (erf-based) Gaussian error linear unit."""
    x = a.data
    cdf = 0.5 * (1.0 + erf(x / _SQRT2))
    out_data = x * cdf

    def bw(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
        a._accumulate(g * (cdf + x * pdf))

    return _make(out_data, (a,), bw)


def geglu(h: Tensor, inner: int):
    """The `layers.Geglu` gating before it became one node: two slices,
    `gelu` and `mul`."""
    val = h[..., :inner]
    gate = h[..., inner:]
    return val * gelu(gate)


def getitem(a: Tensor, key):
    out_data = a.data[key]
    fancy = _is_fancy(key)

    def bw(g):
        full = np.zeros_like(a.data)
        if fancy:
            np.add.at(full, key, g)
        else:
            full[key] += g
        a._accumulate(full)

    return _make(out_data, (a,), bw)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor):
    """Normalize over the last axis, then scale and shift."""
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = xc * inv
    out_data = xhat * gamma.data + beta.data

    def bw(g):
        lead = tuple(range(g.ndim - 1))
        gamma._accumulate((g * xhat).sum(axis=lead))
        beta._accumulate(g.sum(axis=lead))
        dxhat = g * gamma.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        x._accumulate(inv * (dxhat - m1 - xhat * m2))

    return _make(out_data, (x, gamma, beta), bw)


def banded_attention(q: Tensor, k: Tensor, v: Tensor, window: int):
    """Scaled dot-product attention where query i sees key j only when
    |i - j| <= window; q, k, v are [..., T, d].

    Block-banded (Longformer-style sliding window): with
    w = max(1, min(window, T - 1)), queries go in blocks of w frames and
    block b scores only key blocks b-1, b, b+1, so time and memory are
    O(T * 3w * d) rather than O(T^2).  A static additive -1e30 mask hides
    |i - j| > w and the zero padding.  Any window >= T - 1 gives the same w,
    and so exactly the same arithmetic.
    """
    T, d = q.shape[-2], q.shape[-1]
    w = max(1, min(window, T - 1))
    nb = -(-T // w)
    lead = q.shape[:-2]
    c = np.arange(3 * w)
    band = np.abs(np.arange(w)[:, None] + w - c) <= w  # |i - j|, the same in every block
    key = (np.arange(nb)[:, None, None] - 1) * w + c  # key index of each column
    mask = np.where(band, 0.0, -1e30) + np.where((key >= 0) & (key < T), 0.0, -1e30)

    scale = 1.0 / np.sqrt(d)
    tail = [(0, 0)] * len(lead) + [(0, nb * w - T), (0, 0)]
    qb = np.pad(q.data, tail).reshape(lead + (nb, w, d))
    kt = _band_blocks(k.data, w, nb)
    vt = _band_blocks(v.data, w, nb)
    scores = (qb @ kt) * scale + mask
    scores -= scores.max(axis=-1, keepdims=True)
    p = np.exp(scores)
    p /= p.sum(axis=-1, keepdims=True)
    out_data = (p @ vt.swapaxes(-1, -2)).reshape(lead + (nb * w, d))[..., :T, :]

    def bw(g):
        gb = np.pad(g, tail).reshape(lead + (nb, w, d))
        dp = gb @ vt
        ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * scale
        dq = (ds @ kt.swapaxes(-1, -2)).reshape(lead + (nb * w, d))[..., :T, :]
        q._accumulate(dq)
        k._accumulate(_fold_bands(ds.swapaxes(-1, -2) @ qb, w, nb, T))
        v._accumulate(_fold_bands(p.swapaxes(-1, -2) @ gb, w, nb, T))

    return _make(out_data, (q, k, v), bw)
