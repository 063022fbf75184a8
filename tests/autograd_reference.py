"""The autograd kernels that the in-place forms in `nncore.tensor` replaced,
kept as the reference those forms must match byte for byte: the same
float operations, with closures that take their parents' gradient sinks
as the `nncore.tensor` closures do.  `_accumulate` is the leaf `Tensor`
method, here as a plain function."""

import numpy as np
from scipy.special import erf

from notetune.nncore.tensor import (
    _INV_SQRT_2PI,
    _SQRT2,
    LAYER_NORM_EPS,
    Tensor,
    _is_fancy,
    _make,
    _unbroadcast,
    softmax,
)


def _accumulate(self, g: np.ndarray):
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += g


def matmul(a: Tensor, b: Tensor):
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul requires tensors with ndim >= 2")

    x, y = a.data, b.data

    def bw(g, a, b):
        a._accumulate(_unbroadcast(g @ y.swapaxes(-1, -2), x.shape))
        b._accumulate(_unbroadcast(x.swapaxes(-1, -2) @ g, y.shape))

    return _make(x @ y, (a, b), bw)


def linear(x: Tensor, w: Tensor, b: Tensor):
    """Two graph nodes, a matmul and an add."""
    return x @ w + b


def gelu(a: Tensor):
    """Exact (erf-based) Gaussian error linear unit."""
    x = a.data
    cdf = 0.5 * (1.0 + erf(x / _SQRT2))
    out_data = x * cdf

    def bw(g, a):
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
    ad = a.data
    fancy = _is_fancy(key)

    def bw(g, a):
        full = np.zeros_like(ad)
        if fancy:
            np.add.at(full, key, g)
        else:
            full[key] += g
        a._accumulate(full)

    return _make(ad[key], (a,), bw)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor):
    """Normalize over the last axis, then scale and shift."""
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = xc * inv
    gd = gamma.data
    out_data = xhat * gd + beta.data

    def bw(g, x, gamma, beta):
        lead = tuple(range(g.ndim - 1))
        gamma._accumulate((g * xhat).sum(axis=lead))
        beta._accumulate(g.sum(axis=lead))
        dxhat = g * gd
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        x._accumulate(inv * (dxhat - m1 - xhat * m2))

    return _make(out_data, (x, gamma, beta), bw)


def attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray):
    """The five-node chain: matmul, scale, mask, softmax, matmul."""
    d = q.shape[-1]
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(d)) + mask
    return softmax(scores, axis=-1) @ v
