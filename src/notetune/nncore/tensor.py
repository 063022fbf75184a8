"""Reverse-mode automatic differentiation over float64 numpy arrays.

Everything trainable in this package runs on this substrate.  Tensors are
dense row-major float64; gradients are accumulated by a topological sweep
over the recorded op graph.  The graph sweep runs on one thread; the
matmuls go to BLAS, which may use several.  Deterministic given fixed inputs
and a fixed BLAS thread count: the BLAS thread count can change how a
matmul rounds, and so the trained bytes.

The graph is made of nodes, apart from the tensors.  A recorded op's output
Tensor points to a `_Node` that holds four things: the op's backward
closure, the gradient sinks of its parents (their nodes, a leaf Tensor, or
`_PLAIN` for a plain input), the gradient in flight, and the shape of its
first gradient buffer.  The closure captures only the arrays its backward
reads, never a Tensor, and receives the parents' sinks as arguments.  So an
output that no backward reads, such as a residual sum or a `concat`, is
freed in the forward pass as soon as its caller drops it; its node stays
until the sweep.
Leaves (parameters, inputs made with requires_grad=True) keep their
gradient in `Tensor.grad`.

A gradient buffer is first written as 0.0 + g and then only added to, so it
never holds -0.0: the kernels may hand `_accumulate` a gradient that
differs from another only in the sign of a zero, and add into a buffer in
place, without changing its bytes.  A node's first buffer is C-ordered,
whatever the layout of its output; a leaf's is laid out like its data
(`np.empty_like`).  A kernel that allocates a parent's gradient itself
hands it over with `_take`: as the first gradient, a C-contiguous array of
the sink's shape becomes the sink's buffer, made 0.0 + g in place, where
the first buffer would be C-ordered too.  The bytes and the layout are
those of `_accumulate`'s copy, and the copy is not made: a training step
holds one GRU input gradient at its peak, not two.  `add` hands over its
incoming gradient too, which is its node's own buffer and dropped once
its backward returns: its second parent copies it, then its first takes
it.  Any other buffer, such as attention's dk (a transposed view), is
copied.

One rule, `_records`, decides whether a node is recorded: gradients are
enabled (no `no_grad` block) and some parent requires a gradient or is
itself recorded.  An op that is not recorded makes no node and keeps
nothing for a backward pass, so it may overwrite its own temporaries
(`geglu` returns its cdf buffer) or not keep them (`gru_sequence` keeps no
gates), but never its inputs, which the caller still owns; each such op
says in its docstring that it gives the recorded path's bytes.  No op
splits its input into blocks: a caller bounds memory by what it feeds the
graph.  `attention` is dense, T x T scores per head while it runs, so its
callers bound T: the frame models see windows of at most
`frontend.WINDOW` = 256 frames (`frontend.windowed`, and the training
crops), the note model at most `layers.MAX_EVENTS` events.  A recorded
attention node holds q, k, v, the mask and two row statistics of the
scores, so no T x T array per head lives from forward to backward: the
backward pass rebuilds the probabilities.

`backward` releases the graph as it sweeps: each node drops its backward
closure and its parents once its own backward has run, so the arrays the
closures hold are freed during the sweep and no graph outlives its
`backward()`.  Call it once per forward; a second call on the same loss
reaches no parameter.
"""

from __future__ import annotations

import math

import numpy as np

_GRAD_ENABLED = True

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
LAYER_NORM_EPS = 1e-6


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


class _Sink:
    """What a backward closure adds a gradient to: a node's or a leaf's `grad`."""

    __slots__ = ()

    def _accumulate(self, g: np.ndarray):
        """Add `g` to the gradient.  The first write is 0.0 + g into an
        uninitialised buffer from `_empty_grad`, which is what zero-fill then
        += gave."""
        if self.grad is None:
            self.grad = np.add(g, 0.0, out=self._empty_grad())
        else:
            self.grad += g

    def _take(self, buf: np.ndarray):
        """Add `buf`, a gradient the calling kernel has just allocated and
        holds nowhere else.  As the first gradient it is taken over, made
        0.0 + buf in place: the bytes `_accumulate` gives, without its copy.
        Only a C-contiguous array (not a numpy scalar) of the sink's shape
        is taken over, and only where the first buffer would be C-ordered
        too; any other goes through `_accumulate`."""
        if (self.grad is None and isinstance(buf, np.ndarray) and buf.shape == self.shape
                and buf.flags.c_contiguous and self._c_grad):
            # viewed flat and back: a size-1 axis gets the stride a new array gives it
            self.grad = np.add(buf, 0.0, out=buf).reshape(-1).reshape(self.shape)
        else:
            self._accumulate(buf)


class _Plain:
    """The sink of a plain input (no gradient, no graph): it takes none."""

    __slots__ = ()

    def _accumulate(self, g: np.ndarray):
        pass

    _take = _accumulate


_PLAIN = _Plain()


class _Node(_Sink):
    """One recorded op: its backward closure, its parents' sinks, the
    gradient in flight, and the shape of its output."""

    __slots__ = ("backward", "parents", "grad", "shape")
    _c_grad = True  # `_empty_grad` is C-ordered

    def __init__(self, backward, parents: tuple, data: np.ndarray):
        self.backward = backward
        self.parents = parents
        self.grad = None
        self.shape = data.shape

    def _empty_grad(self) -> np.ndarray:
        return np.empty(self.shape)


class Tensor(_Sink):
    """N-d float64 array; a leaf's gradient buffer, or a recorded op's node."""

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._node = None

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

    def _empty_grad(self) -> np.ndarray:
        # laid out like `data`: its layout picks the BLAS path of later matmuls
        return np.empty_like(self.data)

    @property
    def _c_grad(self) -> bool:
        """Whether `_empty_grad` is C-ordered."""
        return self.data.flags.c_contiguous

    def _sink(self):
        """Where this tensor's gradient goes: its node, itself as a leaf, or
        nowhere (`_PLAIN`)."""
        if self._node is not None:
            return self._node
        return self if self.requires_grad else _PLAIN

    # ---- graph ----------------------------------------------------------
    def backward(self, grad=None):
        """Backpropagate from this tensor (scalar unless `grad` given).

        Only leaves keep their gradient: a node's is dropped once its own
        backward has run, so a step holds the gradients in flight, not one
        per node of the graph.  The graph is released in the same sweep:
        every node, this one's included, loses its backward closure and its
        parents once its backward has run or been skipped, which frees the
        arrays the closures hold.  So call this once per forward; a second
        call on the same tensor reaches no parameter."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without grad requires a scalar tensor")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)
        if self._node is None:  # a leaf or a plain tensor: nothing to sweep
            self._accumulate(grad)
            return
        topo: list[_Node] = []
        seen = set()
        stack = [(self._node, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if type(p) is _Node and id(p) not in seen:
                    stack.append((p, False))
        self._node._accumulate(grad)
        for node in reversed(topo):
            if node.backward is not None and node.grad is not None:
                node.backward(node.grad, *node.parents)
            node.backward = node.grad = None
            node.parents = ()

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

    def sum(self):
        return tsum(self)

    def mean(self):
        return tmean(self)


def _as_const(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _records(parents) -> bool:
    """Whether an op on `parents` is recorded: gradients are enabled and
    some parent requires a gradient or is itself recorded."""
    return _GRAD_ENABLED and any(p.requires_grad or p._node is not None for p in parents)


def _make(data, parents, backward):
    """The output Tensor of an op; recorded, with a node whose closure
    `backward(g, *sinks)` gets the gradient and the sinks of `parents`."""
    out = Tensor(data)
    if _records(parents):
        out.requires_grad = any(p.requires_grad for p in parents)
        out._node = _Node(backward, tuple(p._sink() for p in parents), data)
    return out


# ---- arithmetic ------------------------------------------------------------

def add(a: Tensor, b):
    if not isinstance(b, Tensor):
        a_shape = a.shape

        def bw(g, a):
            a._take(_unbroadcast(g, a_shape))

        return _make(a.data + _as_const(b), (a,), bw)
    a_shape, b_shape = a.shape, b.shape

    # g is the node's own buffer, dropped once this returns: b copies it
    # first, then a may take it over
    def bw(g, a, b):
        b._accumulate(_unbroadcast(g, b_shape))
        a._take(_unbroadcast(g, a_shape))

    return _make(a.data + b.data, (a, b), bw)


def neg(a: Tensor):
    def bw(g, a):
        a._take(-g)

    return _make(-a.data, (a,), bw)


def mul(a: Tensor, b):
    if not isinstance(b, Tensor):
        bc, a_shape = _as_const(b), a.shape

        def bw(g, a):
            a._take(_unbroadcast(g * bc, a_shape))

        return _make(a.data * bc, (a,), bw)
    x, y = a.data, b.data

    def bw(g, a, b):
        a._take(_unbroadcast(g * y, x.shape))
        b._take(_unbroadcast(g * x, y.shape))

    return _make(x * y, (a, b), bw)


def pow_const(a: Tensor, c: float):
    x = a.data

    def bw(g, a):
        a._take(g * c * x ** (c - 1.0))

    return _make(x**c, (a,), bw)


def matmul(a: Tensor, b: Tensor):
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul requires tensors with ndim >= 2")
    x, y = a.data, b.data

    # an operand that is a plain input (no gradient, no graph) gets none
    def bw(g, a, b):
        if a is not _PLAIN:
            a._take(_unbroadcast(g @ y.swapaxes(-1, -2), x.shape))
        if b is not _PLAIN:
            b._take(_unbroadcast(x.swapaxes(-1, -2) @ g, y.shape))

    return _make(x @ y, (a, b), bw)


def linear(x: Tensor, w: Tensor, b: Tensor):
    """x @ w + b as one node: the float operations of the two-node form.
    Its backward reads x and w, never the [..., out] output."""
    xd, wd, b_shape = x.data, w.data, b.shape
    out_data = xd @ wd
    out_data += b.data

    # a plain input x (no gradient, no graph) gets none, as in `matmul`
    def bw(g, x, w, b):
        if x is not _PLAIN:
            x._take(_unbroadcast(g @ wd.swapaxes(-1, -2), xd.shape))
        w._take(_unbroadcast(xd.swapaxes(-1, -2) @ g, wd.shape))
        b._accumulate(_unbroadcast(g, b_shape))

    return _make(out_data, (x, w, b), bw)


# ---- elementwise nonlinearities -------------------------------------------

def tlog(a: Tensor):
    x = a.data

    def bw(g, a):
        a._take(g / x)

    return _make(np.log(x), (a,), bw)


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

    def bw(g, a):
        a._take(g * raw * (1.0 - raw))

    return _make(out_data, (a,), bw)


# elements `erf` works on at a time: its three scratch buffers (128 kB
# each) stay in cache
ERF_BLOCK = 16384

# Cephes ndtr.c (Moshier 1989): erf(x) = x T(x^2) / U(x^2) for |x| <= 1 and
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 < x < 8; U and Q omit their leading 1
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERF_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
          4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
          9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERF_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
          9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
          1.65666309194161350182e3, 5.57535340817727675546e2)


def _polevl(x: np.ndarray, coef: tuple, out: np.ndarray) -> np.ndarray:
    """coef[0] x^n + ... + coef[n] into `out`, by Horner's rule."""
    np.multiply(x, coef[0], out=out)
    out += coef[1]
    for c in coef[2:]:
        out *= x
        out += c
    return out


def _p1evl(x: np.ndarray, coef: tuple, out: np.ndarray) -> np.ndarray:
    """x^n + coef[0] x^(n-1) + ... + coef[n-1] into `out`, by Horner's rule."""
    np.add(x, coef[0], out=out)
    for c in coef[1:]:
        out *= x
        out += c
    return out


def _erf_tail(x: np.ndarray) -> np.ndarray:
    """erf where |x| > 1: +-(1 - exp(-x^2) P(|x|) / Q(|x|)).  |x| is capped
    at 6, where the erfc term is below 2^-54 and the result is exactly +-1,
    as Cephes gives it for every |x| >= 6 (inf too)."""
    a = np.minimum(np.abs(x), 6.0)
    e = np.negative(a * a)
    e = np.fromiter(map(math.exp, e.tolist()), np.float64, len(e))
    e *= _polevl(a, _ERF_P, np.empty_like(a))
    e /= _p1evl(a, _ERF_Q, np.empty_like(a))
    np.subtract(1.0, e, out=e)
    return np.copysign(e, x, out=e)


def erf(x: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """The error function of `x`, elementwise, into `out` (a new array if
    `out` is None), with the bytes of `scipy.special.erf`.

    It is Cephes `ndtr.c` erf (Moshier, Methods and Programs for
    Mathematical Functions, 1989), which scipy wraps, with every multiply,
    add and divide in Cephes' order, each rounded once: x T(x^2) / U(x^2)
    for |x| <= 1 (odd, so negative x needs no branch), +-(1 - erfc(|x|))
    above, and +-1 from |x| >= 6 on.  exp(-x^2) is libm's, through
    `math.exp`, as in the compiled Cephes: numpy's SIMD `np.exp` differs
    from glibc in the last bit for some arguments, and that bit would
    reach erf.  NaN propagates; +-inf give +-1, without warnings.

    The |x| <= 1 formula runs on blocks of `ERF_BLOCK` elements in three
    scratch buffers, since most inputs of the GELUs lie there; the |x| > 1
    elements of every block are gathered before it is written and set at
    the end.  `out` may be `x` itself; a C-contiguous `x` and `out` are
    read and written in place, any other layout through a C-ordered copy.
    """
    src = np.ascontiguousarray(x).reshape(-1)
    res = out if out is not None and out.flags.c_contiguous else np.empty(x.shape)
    dst = res.reshape(-1)
    z, p, q = (np.empty(min(len(src), ERF_BLOCK)) for _ in range(3))
    tails, tail_x = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(src), ERF_BLOCK):
            xb = src[lo : lo + ERF_BLOCK]
            n = len(xb)
            np.multiply(xb, xb, out=z[:n])
            tail = np.flatnonzero(z[:n] > 1.0)  # x * x > 1 exactly where |x| > 1
            tails.append(tail + lo)
            tail_x.append(xb[tail])
            np.multiply(xb, _polevl(z[:n], _ERF_T, p[:n]), out=dst[lo : lo + n])
            dst[lo : lo + n] /= _p1evl(z[:n], _ERF_U, q[:n])
    if tails:
        dst[np.concatenate(tails)] = _erf_tail(np.concatenate(tail_x))
    if out is None or res is out:
        return res
    out[...] = res
    return out


def gelu(a: Tensor):
    """Exact (erf-based) Gaussian error linear unit: x * cdf with
    cdf = 0.5 * (1 + erf(x / sqrt 2)).  The cdf and the gradient
    g * (cdf + x * pdf), pdf = (1 / sqrt(2 pi)) * exp(-0.5 * x * x), are each
    evaluated in that order in one buffer."""
    x = a.data
    cdf = x / _SQRT2
    erf(cdf, cdf)
    cdf += 1.0
    cdf *= 0.5
    out_data = x * cdf

    def bw(g, a):
        d = x * -0.5
        d *= x
        np.exp(d, out=d)
        d *= _INV_SQRT_2PI
        d *= x
        d += cdf
        d *= g
        a._take(d)

    return _make(out_data, (a,), bw)


def geglu(h: Tensor, inner: int):
    """h[..., :inner] * gelu(h[..., inner:]) as one node: the float
    operations of the two-slice, `gelu`, `mul` chain, so the same bytes.

    With val = h[..., :inner] and gate = h[..., inner:], the cdf of the gate
    is built in one [..., inner] buffer as in `gelu`.  Not recorded, that
    buffer is multiplied by gate and then by val and returned: the chain's
    val * (gate * cdf), as IEEE multiplication is commutative, with one
    [..., inner] array allocated instead of three.  Recorded, only the cdf
    is kept (the chain kept it and gate * cdf); the backward pass rebuilds
    gate * cdf inside the gradient of h and reuses the cdf buffer for
    g * val once the gate's gradient no longer reads it."""
    hd = h.data
    val, gate = hd[..., :inner], hd[..., inner:]
    cdf = gate / _SQRT2
    erf(cdf, cdf)
    cdf += 1.0
    cdf *= 0.5
    if not _records((h,)):
        cdf *= gate
        cdf *= val
        return Tensor(cdf)
    out_data = gate * cdf
    out_data *= val

    def bw(g, h):
        # d val = g * (gate * cdf); d gate = (g * val) * (cdf + gate * pdf)
        full = np.empty_like(hd)
        dval, dgate = full[..., :inner], full[..., inner:]
        np.multiply(gate, cdf, out=dval)
        dval *= g
        np.multiply(gate, -0.5, out=dgate)
        dgate *= gate
        np.exp(dgate, out=dgate)
        dgate *= _INV_SQRT_2PI
        dgate *= gate
        dgate += cdf
        np.multiply(g, val, out=cdf)
        dgate *= cdf
        h._take(full)

    return _make(out_data, (h,), bw)


def clip(a: Tensor, lo: float, hi: float):
    """Clamp values; gradient passes only strictly inside the range."""
    x = a.data

    def bw(g, a):
        mask = (x > lo) & (x < hi)
        a._take(g * mask)

    return _make(np.clip(x, lo, hi), (a,), bw)


# ---- shape / indexing -------------------------------------------------------

def reshape(a: Tensor, shape):
    orig = a.data.shape

    def bw(g, a):
        a._accumulate(g.reshape(orig))

    return _make(a.data.reshape(shape), (a,), bw)


def swapaxes(a: Tensor, ax1: int, ax2: int):
    def bw(g, a):
        a._accumulate(g.swapaxes(ax1, ax2))

    return _make(a.data.swapaxes(ax1, ax2), (a,), bw)


def _is_fancy(key) -> bool:
    parts = key if isinstance(key, tuple) else (key,)
    return any(isinstance(p, (np.ndarray, list)) for p in parts)


def getitem(a: Tensor, key):
    a_shape = a.shape
    fancy = _is_fancy(key)

    def bw(g, a):
        if fancy:
            full = np.zeros(a_shape)
            np.add.at(full, key, g)
            a._take(full)
            return
        if a.grad is None:
            a.grad = a._empty_grad()
            a.grad.fill(0.0)
        a.grad[key] += g

    return _make(a.data[key], (a,), bw)


def concat(tensors, axis: int = -1):
    datas = [t.data for t in tensors]
    out_data = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def bw(g, *tensors):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            t._accumulate(g[tuple(idx)])

    return _make(out_data, tuple(tensors), bw)


def tsum(a: Tensor):
    """Sum of all elements."""
    a_shape = a.shape

    def bw(g, a):
        a._take(np.broadcast_to(g, a_shape).copy())

    return _make(a.data.sum(), (a,), bw)


def tmean(a: Tensor):
    """Mean of all elements."""
    return mul(tsum(a), 1.0 / a.data.size)


# ---- fused ops --------------------------------------------------------------

def softmax(a: Tensor, axis: int):
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bw(g, a):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        a._take(out_data * (g - dot))

    return _make(out_data, (a,), bw)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor):
    """Normalize over the last axis, then scale and shift.  Temporaries are
    reused in place, with the operation order of the formulas in the
    comments, so the bytes are those of the plain expressions."""
    # xhat = (x - mean(x)) * (1 / sqrt(mean((x - mean(x))^2) + eps)); out = xhat * gamma + beta
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = x.data - mu
    out_data = xhat * xhat  # the squares, then the output
    var = out_data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv
    np.multiply(xhat, gamma.data, out=out_data)
    out_data += beta.data
    gd = gamma.data

    def bw(g, x, gamma, beta):
        # dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
        lead = tuple(range(g.ndim - 1))
        t = g * xhat
        gamma._take(t.sum(axis=lead))
        beta._take(g.sum(axis=lead))
        dxhat = g * gd
        m1 = dxhat.mean(axis=-1, keepdims=True)
        np.multiply(dxhat, xhat, out=t)
        m2 = t.mean(axis=-1, keepdims=True)
        dxhat -= m1
        np.multiply(xhat, m2, out=t)
        dxhat -= t
        dxhat *= inv
        x._take(dxhat)

    return _make(out_data, (x, gamma, beta), bw)


def _scores(qd: np.ndarray, kd: np.ndarray, scale, mask: np.ndarray) -> np.ndarray:
    """q k^T * scale + mask, in place in one [..., T, T] buffer."""
    s = qd @ kd.swapaxes(-1, -2)
    s *= scale
    s += mask
    return s


def attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray):
    """Scaled dot-product attention softmax(q k^T / sqrt(d) + mask) v as one
    node; q, k, v are [..., T, d] and `mask` broadcasts against the
    [..., T, T] scores (0 to keep, -1e30 to drop).

    The float operations of the five-node chain matmul, scale, mask,
    softmax, matmul, in its order, done in place in one score buffer, which
    is dropped once p v is made.  Recorded, the node keeps q, k, v, the mask
    and each score row's max m and sum l ([..., T, 1] each); the backward
    pass rebuilds the probabilities p from them with the forward's float
    operations in its order, so p, and every gradient, has the chain's
    bytes.  It builds its score gradient in place too and hands out the
    gradients in the chain's order (v, q, k).  Dense: callers bound T
    (module docstring).
    """
    qd, kd, vd = q.data, k.data, v.data
    scale = 1.0 / np.sqrt(qd.shape[-1])
    p = _scores(qd, kd, scale, mask)
    m = p.max(axis=-1, keepdims=True)
    p -= m
    np.exp(p, out=p)
    l = p.sum(axis=-1, keepdims=True)
    p /= l

    def bw(g, q, k, v):
        p = _scores(qd, kd, scale, mask)
        p -= m
        np.exp(p, out=p)
        p /= l
        # ds = p * (dp - rowsum(dp * p)) * scale, built in place in dp
        ds = g @ vd.swapaxes(-1, -2)
        v._take(p.swapaxes(-1, -2) @ g)
        ds -= (ds * p).sum(axis=-1, keepdims=True)
        ds *= p
        del p
        ds *= scale
        q._take(ds @ kd)
        k._take((qd.swapaxes(-1, -2) @ ds).swapaxes(-1, -2))

    return _make(p @ vd, (q, k, v), bw)


def embedding(table: Tensor, idx: np.ndarray):
    """Row lookup: out[..., :] = table[idx[...]]."""
    idx = np.asarray(idx, dtype=np.int64)
    t_shape = table.shape

    def bw(g, table):
        full = np.zeros(t_shape)
        np.add.at(full, idx.ravel(), g.reshape(-1, t_shape[1]))
        table._take(full)

    return _make(table.data[idx], (table,), bw)


def dropout(x: Tensor, p: float, rng: np.random.Generator):
    """Inverted dropout; identity when p == 0."""
    if p <= 0.0:
        return x
    mask = (rng.random(x.data.shape) >= p) / (1.0 - p)

    def bw(g, x):
        x._take(g * mask)

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

    def bw(g, logits):
        p = np.exp(logp)
        p[rows, t] -= 1.0
        logits._take(g * p * (m / count)[:, None])

    return _make(out_data, (logits,), bw)


def gru_cell(gi: np.ndarray, h: np.ndarray, w_hh: np.ndarray, b_hh: np.ndarray):
    """One GRU step on plain arrays (no graph): the only GRU step there is.
    `gru_sequence`, recorded for training or not for `correct`, and the
    detuner rollout all step through it.

    gi : [..., 3H] input-side preactivations (x @ W_ih + b_ih), gate order
         (reset, update, candidate); h : [..., H] previous hidden state,
         never written.
    Returns the new hidden state and the gates (r, z, n, h @ W_hn + b_hn)
    that the backward pass of `gru_sequence` needs.  r and z come from one
    logistic over the first 2H columns, elementwise as if apart, so the
    bytes match separate gates; a saturated gate is exactly 0 or 1 and
    raises no overflow warning.  Slicing in place of `np.split` keeps the
    per-step cost low, as `gru_sequence` calls this once per frame.
    """
    H = h.shape[-1]
    gh = h @ w_hh + b_hh
    rz = _logistic(gi[..., : 2 * H] + gh[..., : 2 * H])
    r, z, hn = rz[..., :H], rz[..., H:], gh[..., 2 * H :]
    n = np.tanh(gi[..., 2 * H :] + r * hn)
    return (1.0 - z) * n + z * h, r, z, n, hn


def gru_sequence(x_pre: Tensor, w_hh: Tensor, b_hh: Tensor, h0: Tensor):
    """Gated recurrent unit over a precomputed input projection.

    x_pre : [B, T, 3H]  input-side preactivations (x @ W_ih + b_ih),
            gate order (reset, update, candidate)
    w_hh  : [H, 3H], b_hh : [3H], h0 : [B, H]
    Returns the hidden state sequence [B, T, H].

    Every step is one `gru_cell` call, recorded or not, the step the
    detuner rollout runs too; so training, `correct` and the rollout share
    one step, and a recorded and an unrecorded pass give the same bytes.
    Recorded, the gates r, z, n and h @ W_hn + b_hn of every step are kept,
    four more [B, T, H] arrays that only the backward pass reads; not
    recorded, only the hidden states are.
    """
    B, T, threeH = x_pre.data.shape
    H = threeH // 3
    wh = w_hh.data
    bh = b_hh.data
    hs = np.empty((B, T, H))
    h = h0.data
    recorded = _records((x_pre, w_hh, b_hh, h0))
    if recorded:
        rs, zs, ns, hns = np.empty((4, B, T, H))
    for t in range(T):
        h, r, z, n, hn = gru_cell(x_pre.data[:, t, :], h, wh, bh)
        hs[:, t] = h
        if recorded:
            rs[:, t], zs[:, t], ns[:, t], hns[:, t] = r, z, n, hn
    if not recorded:
        return Tensor(hs)
    h0d = h0.data

    def bw(g, x_pre, w_hh, b_hh, h0):
        dx = np.zeros((B, T, 3 * H))
        dwh = np.zeros_like(wh)
        dbh = np.zeros_like(bh)
        dh = np.zeros((B, H))
        dgates_h = np.empty((B, 3 * H))  # (dpre_r, dpre_z, dhn), rewritten each step
        for t in range(T - 1, -1, -1):
            dh = dh + g[:, t, :]
            h_prev = hs[:, t - 1] if t > 0 else h0d
            r, z, n, hn = rs[:, t], zs[:, t], ns[:, t], hns[:, t]
            dn = dh * (1.0 - z)
            dz = dh * (h_prev - n)
            dh_prev = dh * z
            dpre_n = dn * (1.0 - n * n)
            dr = dpre_n * hn
            np.multiply(dpre_n, r, out=dgates_h[:, 2 * H :])
            np.multiply(dr * r, 1.0 - r, out=dgates_h[:, :H])
            np.multiply(dz * z, 1.0 - z, out=dgates_h[:, H : 2 * H])
            dx[:, t, : 2 * H] = dgates_h[:, : 2 * H]
            dx[:, t, 2 * H :] = dpre_n
            dwh += h_prev.T @ dgates_h
            dbh += dgates_h.sum(axis=0)
            dh = dh_prev + dgates_h @ wh.T
        x_pre._take(dx)
        w_hh._take(dwh)
        b_hh._take(dbh)
        h0._take(dh)

    return _make(hs, (x_pre, w_hh, b_hh, h0), bw)
