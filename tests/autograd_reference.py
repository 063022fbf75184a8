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


def attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray):
    """The five-node chain: matmul, scale, mask, softmax, matmul."""
    d = q.shape[-1]
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(d)) + mask
    return softmax(scores, axis=-1) @ v
