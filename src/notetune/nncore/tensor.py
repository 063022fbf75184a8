"""Reverse-mode automatic differentiation over float64 numpy arrays.

Everything trainable in this package runs on this substrate.  Tensors are
dense row-major float64; gradients are accumulated by a topological sweep
over the recorded op graph.  Single-threaded, deterministic given fixed
inputs.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

_GRAD_ENABLED = True

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class no_grad:
    """Context manager that disables graph recording (inference mode)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    ndiff = grad.ndim - len(shape)
    if ndiff > 0:
        grad = grad.sum(axis=tuple(range(ndiff)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """N-d float64 array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents = ()

    # ---- introspection -------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.grad is not None})"

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    # ---- graph ----------------------------------------------------------
    def backward(self, grad=None):
        """Backpropagate from this tensor (scalar unless `grad` given)."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without grad requires a scalar tensor")
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.asarray(grad, dtype=np.float64))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ---- operators -------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, -_as_const(other)) if not isinstance(other, Tensor) else add(self, neg(other))

    def __rsub__(self, other):
        return add(neg(self), other)

    def __neg__(self):
        return neg(self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return mul(self, pow_const(other, -1.0))
        return mul(self, 1.0 / np.asarray(other, dtype=np.float64))

    def __rtruediv__(self, other):
        return mul(pow_const(self, -1.0), other)

    def __pow__(self, exponent):
        return pow_const(self, float(exponent))

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    # ---- shape ops ---------------------------------------------------------
    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def swapaxes(self, a, b):
        return swapaxes(self, a, b)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)


def _as_const(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _make(data, parents, backward):
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad or p._parents for p in parents):
        out.requires_grad = any(p.requires_grad for p in parents)
        out._parents = tuple(parents)
        out._backward = backward
    return out


# ---- arithmetic ------------------------------------------------------------

def add(a: Tensor, b):
    if not isinstance(b, Tensor):
        bc = _as_const(b)
        out_data = a.data + bc

        def bw(g):
            a._accumulate(_unbroadcast(g, a.data.shape))

        return _make(out_data, (a,), bw)
    out_data = a.data + b.data

    def bw(g):
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), bw)


def neg(a: Tensor):
    def bw(g):
        a._accumulate(-g)

    return _make(-a.data, (a,), bw)


def mul(a: Tensor, b):
    if not isinstance(b, Tensor):
        bc = _as_const(b)

        def bw(g):
            a._accumulate(_unbroadcast(g * bc, a.data.shape))

        return _make(a.data * bc, (a,), bw)

    def bw(g):
        a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(a.data * b.data, (a, b), bw)


def pow_const(a: Tensor, c: float):
    out_data = a.data**c

    def bw(g):
        a._accumulate(g * c * a.data ** (c - 1.0))

    return _make(out_data, (a,), bw)


def matmul(a: Tensor, b: Tensor):
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul requires tensors with ndim >= 2")

    def bw(g):
        a._accumulate(_unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape))
        b._accumulate(_unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape))

    return _make(a.data @ b.data, (a, b), bw)


# ---- elementwise nonlinearities -------------------------------------------

def tlog(a: Tensor):
    def bw(g):
        a._accumulate(g / a.data)

    return _make(np.log(a.data), (a,), bw)


_SIGMOID_LO = np.nextafter(0.0, 1.0)
_SIGMOID_HI = np.nextafter(1.0, 0.0)


def _logistic(x: np.ndarray) -> np.ndarray:
    """1/(1 + exp(-x)) on plain arrays; exp overflowing to inf gives 0.0 silently."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def sigmoid(a: Tensor):
    """Logistic function, kept strictly inside (0, 1).

    1/(1 + exp(-x)) rounds to exactly 1.0 for x >~ 36.7 and to 0.0 once
    exp(-x) overflows (x <~ -709.78); only those two values are moved, to
    the nearest floats inside (0, 1): the smallest positive float and
    1 - 2^-53.  Every other output and its gradient is the plain formula's.
    The gradient is that of the clamped function: 0 where it clamps.
    """
    raw = _logistic(a.data)
    out_data = np.clip(raw, _SIGMOID_LO, _SIGMOID_HI)

    def bw(g):
        a._accumulate(g * raw * (1.0 - raw))

    return _make(out_data, (a,), bw)


def gelu(a: Tensor):
    """Exact (erf-based) Gaussian error linear unit."""
    x = a.data
    cdf = 0.5 * (1.0 + erf(x / _SQRT2))
    out_data = x * cdf

    def bw(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
        a._accumulate(g * (cdf + x * pdf))

    return _make(out_data, (a,), bw)


def clip(a: Tensor, lo: float, hi: float):
    """Clamp values; gradient passes only strictly inside the range."""
    out_data = np.clip(a.data, lo, hi)

    def bw(g):
        mask = (a.data > lo) & (a.data < hi)
        a._accumulate(g * mask)

    return _make(out_data, (a,), bw)


# ---- shape / indexing -------------------------------------------------------

def reshape(a: Tensor, shape):
    orig = a.data.shape

    def bw(g):
        a._accumulate(g.reshape(orig))

    return _make(a.data.reshape(shape), (a,), bw)


def swapaxes(a: Tensor, ax1: int, ax2: int):
    def bw(g):
        a._accumulate(g.swapaxes(ax1, ax2))

    return _make(a.data.swapaxes(ax1, ax2), (a,), bw)


def _is_fancy(key) -> bool:
    parts = key if isinstance(key, tuple) else (key,)
    return any(isinstance(p, (np.ndarray, list)) for p in parts)


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


def concat(tensors, axis: int = -1):
    datas = [t.data for t in tensors]
    out_data = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            t._accumulate(g[tuple(idx)])

    return _make(out_data, tuple(tensors), bw)


def tsum(a: Tensor, axis=None, keepdims=False):
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.data.shape).copy())
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.data.shape).copy())

    return _make(out_data, (a,), bw)


def tmean(a: Tensor, axis=None, keepdims=False):
    if axis is None:
        n = a.data.size
    else:
        n = a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


# ---- fused ops --------------------------------------------------------------

def softmax(a: Tensor, axis: int = -1):
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        a._accumulate(out_data * (g - dot))

    return _make(out_data, (a,), bw)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6):
    """Normalize over the last axis, then scale and shift."""
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
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


def embedding(table: Tensor, idx: np.ndarray):
    """Row lookup: out[..., :] = table[idx[...]]."""
    idx = np.asarray(idx, dtype=np.int64)
    out_data = table.data[idx]

    def bw(g):
        full = np.zeros_like(table.data)
        np.add.at(full, idx.ravel(), g.reshape(-1, table.data.shape[1]))
        table._accumulate(full)

    return _make(out_data, (table,), bw)


def dropout(x: Tensor, p: float, rng: np.random.Generator):
    """Inverted dropout; identity when p == 0."""
    if p <= 0.0:
        return x
    mask = (rng.random(x.data.shape) >= p) / (1.0 - p)

    def bw(g):
        x._accumulate(g * mask)

    return _make(x.data * mask, (x,), bw)


def cross_entropy_logits(logits: Tensor, targets: np.ndarray, mask: np.ndarray):
    """Mean cross-entropy from raw logits [N, C] against int targets [N].

    `mask` (0/1 per row) selects which rows contribute; the mean is over
    selected rows.
    """
    t = np.asarray(targets, dtype=np.int64)
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    logp = z - lse
    rows = np.arange(t.shape[0])
    nll = -logp[rows, t]
    m = np.asarray(mask, dtype=np.float64)
    count = max(m.sum(), 1.0)
    out_data = np.asarray((nll * m).sum() / count)

    def bw(g):
        p = np.exp(logp)
        p[rows, t] -= 1.0
        logits._accumulate(g * p * (m / count)[:, None])

    return _make(out_data, (logits,), bw)


def gru_cell(gi: np.ndarray, h: np.ndarray, w_hh: np.ndarray, b_hh: np.ndarray):
    """One GRU step on plain arrays (no graph).

    gi : [..., 3H] input-side preactivations (x @ W_ih + b_ih), gate order
         (reset, update, candidate); h : [..., H] previous hidden state.
    Returns the new hidden state and the gates (r, z, n, h @ W_hn + b_hn)
    that the backward pass of `gru_sequence` needs.
    """
    xr, xz, xn = np.split(gi, 3, axis=-1)
    hr, hz, hn = np.split(h @ w_hh + b_hh, 3, axis=-1)
    r = _logistic(xr + hr)
    z = _logistic(xz + hz)
    n = np.tanh(xn + r * hn)
    return (1.0 - z) * n + z * h, r, z, n, hn


def gru_sequence(x_pre: Tensor, w_hh: Tensor, b_hh: Tensor, h0: Tensor):
    """Gated recurrent unit over a precomputed input projection.

    x_pre : [B, T, 3H]  input-side preactivations (x @ W_ih + b_ih),
            gate order (reset, update, candidate)
    w_hh  : [H, 3H], b_hh : [3H], h0 : [B, H]
    Returns the hidden state sequence [B, T, H].
    """
    B, T, threeH = x_pre.data.shape
    H = threeH // 3
    wh = w_hh.data
    bh = b_hh.data
    hs = np.empty((B, T, H))
    rs = np.empty((B, T, H))
    zs = np.empty((B, T, H))
    ns = np.empty((B, T, H))
    hns = np.empty((B, T, H))
    h = h0.data
    for t in range(T):
        h, r, z, n, hn = gru_cell(x_pre.data[:, t, :], h, wh, bh)
        rs[:, t], zs[:, t], ns[:, t], hns[:, t], hs[:, t] = r, z, n, hn, h

    def bw(g):
        dx = np.zeros((B, T, 3 * H))
        dwh = np.zeros_like(wh)
        dbh = np.zeros_like(bh)
        dh = np.zeros((B, H))
        for t in range(T - 1, -1, -1):
            dh = dh + g[:, t, :]
            h_prev = hs[:, t - 1] if t > 0 else h0.data
            r, z, n, hn = rs[:, t], zs[:, t], ns[:, t], hns[:, t]
            dn = dh * (1.0 - z)
            dz = dh * (h_prev - n)
            dh_prev = dh * z
            dpre_n = dn * (1.0 - n * n)
            dr = dpre_n * hn
            dhn = dpre_n * r
            dpre_r = dr * r * (1.0 - r)
            dpre_z = dz * z * (1.0 - z)
            dx[:, t, :H] = dpre_r
            dx[:, t, H : 2 * H] = dpre_z
            dx[:, t, 2 * H :] = dpre_n
            dgates_h = np.concatenate([dpre_r, dpre_z, dhn], axis=-1)
            dwh += h_prev.T @ dgates_h
            dbh += dgates_h.sum(axis=0)
            dh = dh_prev + dgates_h @ wh.T
        x_pre._accumulate(dx)
        w_hh._accumulate(dwh)
        b_hh._accumulate(dbh)
        h0._accumulate(dh)

    return _make(hs, (x_pre, w_hh, b_hh, h0), bw)
