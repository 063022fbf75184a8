import hashlib
import tracemalloc
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest

import autograd_reference
import gru_reference
from notetune import nncore as nn
from notetune.nncore import tensor as tz


def test_linear_identity():
    rng = np.random.default_rng(0)
    lin = nn.Linear(rng, 2, 2)
    lin.w.data = np.eye(2)
    lin.b.data = np.zeros(2)
    x = nn.Tensor([[1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(lin(x).data, [[1.0, 0.0], [0.0, 1.0]])


def test_linear_scalar_affine():
    rng = np.random.default_rng(0)
    lin = nn.Linear(rng, 1, 1)
    lin.w.data = np.array([[3.0]])
    lin.b.data = np.array([1.0])
    assert lin(nn.Tensor([[2.0]])).data[0, 0] == 7.0


def test_linear_weight_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    x = nn.Tensor(rng.normal(size=(3, 2)))
    lin = nn.Linear(rng, 2, 4)
    worst = nn.finite_difference_check(lambda: lin(x).sum(), [lin.w, lin.b], rtol=1e-6)
    assert worst < 1e-6


def test_gru_zero_weights_gives_zero_sequence():
    rng = np.random.default_rng(2)
    gru = nn.GRU(rng, 3, 4)
    for p in gru.params().values():
        p.data[...] = 0.0
    y = gru(nn.Tensor(rng.normal(size=(1, 5, 3))))
    # all-zero gates: z = 0.5, n = tanh(0) = 0, h stays 0
    assert np.allclose(y.data, 0.0)


def test_gru_length_one_equals_single_cell_step():
    rng = np.random.default_rng(3)
    gru = nn.GRU(rng, 3, 4)
    x = rng.normal(size=(1, 1, 3))
    y = gru(nn.Tensor(x)).data[0, 0]
    # manual single step from h0 = 0
    gi = x[0, 0] @ gru.w_ih.data + gru.b_ih.data
    gh = np.zeros(4) @ gru.w_hh.data + gru.b_hh.data
    r = 1 / (1 + np.exp(-(gi[:4] + gh[:4])))
    z = 1 / (1 + np.exp(-(gi[4:8] + gh[4:8])))
    n = np.tanh(gi[8:] + r * gh[8:])
    h = (1 - z) * n
    assert np.allclose(y, h, atol=1e-12)


def test_gru_cell_extreme_gates_give_finite_state_without_warning():
    # r and z preactivations of +-1000: exp(1000) overflows in the plain formula
    gi = np.array([1000.0, -1000.0, 1000.0, -1000.0, 0.3, -0.2])
    h = np.array([0.5, -0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h_new, r, z, _n, _hn = nn.gru_cell(gi, h, np.zeros((2, 6)), np.zeros(6))
    assert np.all(np.isfinite(h_new))
    assert np.array_equal(r, [1.0, 0.0]) and np.array_equal(z, [1.0, 0.0])
    assert np.array_equal(h_new, [0.5, np.tanh(-0.2)])


@pytest.mark.parametrize("batch", [(), (5,)])
def test_gru_cell_matches_split_reference_bytes(batch):
    rng = np.random.default_rng(len(batch))
    H = 7
    # half the input preactivations reach +-1000, where the gates saturate
    gi = rng.normal(size=batch + (3 * H,)) + rng.uniform(-1000, 1000, batch + (3 * H,)) * (
        rng.random(batch + (3 * H,)) < 0.5)
    h = rng.normal(size=batch + (H,))
    w_hh, b_hh = rng.normal(scale=3.0, size=(H, 3 * H)), rng.normal(size=3 * H)
    new = nn.gru_cell(gi, h, w_hh, b_hh)
    ref = gru_reference.gru_cell(gi, h, w_hh, b_hh)
    assert len(new) == len(ref) == 5
    for a, b in zip(new, ref):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_gru_sequence_forward_and_gradient_bytes_pinned():
    # the digest of the np.split step's outputs and gradients
    rng = np.random.default_rng(37)
    B, T, H = 3, 37, 8
    x_pre = nn.Tensor(rng.normal(scale=4.0, size=(B, T, 3 * H)), requires_grad=True)
    w_hh = nn.Tensor(rng.normal(size=(H, 3 * H)), requires_grad=True)
    b_hh = nn.Tensor(rng.normal(size=3 * H), requires_grad=True)
    hs = nn.gru_sequence(x_pre, w_hh, b_hh, nn.Tensor(rng.normal(size=(B, H))))
    (hs * nn.Tensor(rng.normal(size=(B, T, H)))).sum().backward()
    blob = b"".join(a.tobytes() for a in (hs.data, x_pre.grad, w_hh.grad, b_hh.grad))
    digest = hashlib.sha256(blob).hexdigest()
    assert digest == "4de95adbbf075719809d9174fe69aafa0eebf3b171f3e907e6d7309d1a472a7a"


def test_gru_input_gradient():
    rng = np.random.default_rng(4)
    gru = nn.GRU(rng, 2, 3)
    x = nn.Tensor(rng.normal(size=(1, 4, 2)), requires_grad=True)
    r = rng.normal(size=(1, 4, 3))
    worst = nn.finite_difference_check(lambda: (gru(x) * r).sum(), [x], rtol=1e-5)
    assert worst < 1e-5


def _gru_leaves(B, T, H, seed):
    rng = np.random.default_rng(seed)
    x_pre = nn.Tensor(rng.normal(scale=4.0, size=(B, T, 3 * H)), requires_grad=True)
    w_hh = nn.Tensor(rng.normal(size=(H, 3 * H)), requires_grad=True)
    b_hh = nn.Tensor(rng.normal(size=3 * H), requires_grad=True)
    return x_pre, w_hh, b_hh, nn.Tensor(rng.normal(size=(B, H)))


@pytest.mark.parametrize("B, T", [(1, 1), (3, 37), (2, 300)])
def test_gru_sequence_unrecorded_returns_the_recorded_bytes(B, T):
    leaves = _gru_leaves(B, T, 8, 38)
    recorded = nn.gru_sequence(*leaves)
    with nn.no_grad():
        plain = nn.gru_sequence(*leaves)
    assert recorded._node is not None and plain._node is None
    assert plain.shape == recorded.shape and plain.data.tobytes() == recorded.data.tobytes()


@pytest.mark.parametrize("recorded", [True, False])
def test_gru_sequence_runs_one_gru_cell_per_frame(monkeypatch, recorded):
    cell, calls = tz.gru_cell, []

    def counting(*args):
        calls.append(1)
        return cell(*args)

    monkeypatch.setattr(tz, "gru_cell", counting)
    leaves = _gru_leaves(2, 11, 8, 42)
    if recorded:
        hs = nn.gru_sequence(*leaves)
    else:
        with nn.no_grad():
            hs = nn.gru_sequence(*leaves)
    assert (hs._node is not None) == recorded
    assert len(calls) == 11


def test_gru_sequence_unrecorded_holds_no_gate_arrays():
    # recorded, the gates are four more [B, T, H] arrays beside the states
    B, T, H = 1, 4000, 64
    leaves = _gru_leaves(B, T, H, 39)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        with nn.no_grad():
            hs = nn.gru_sequence(*leaves)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert hs.data.nbytes == B * T * H * 8
    assert peak < 1.5 * hs.data.nbytes, peak / 1e6


def test_gru_sequence_unrecorded_with_saturated_gates_returns_the_recorded_bytes():
    # the segmenter head's size (B = 1, so h @ W_hh is a one-row product);
    # inputs at scale 40 drive many gates to exactly 0 or 1 without warning
    x_pre, w_hh, b_hh, h0 = _gru_leaves(1, 60, 64, 40)
    x_pre.data *= 10.0
    h0_bytes = h0.data.tobytes()
    recorded = nn.gru_sequence(x_pre, w_hh, b_hh, h0)
    with nn.no_grad():
        plain = nn.gru_sequence(x_pre, w_hh, b_hh, h0)
    assert plain.data.tobytes() == recorded.data.tobytes()
    assert h0.data.tobytes() == h0_bytes


def _erf_inputs():
    rng = np.random.default_rng(41)
    tiny = np.finfo(np.float64).smallest_subnormal
    one_up = np.nextafter(1.0, 2.0)
    edges = [0.0, 1.0, one_up, 5.99, 6.0, 8.0, np.inf, tiny, 1e-310, 2.2e-308, 1e-200, 1e200]
    scales = (0.3, 1.0, 3.0, 10.0, 30.0)
    return np.concatenate([np.linspace(-7.0, 7.0, 280_001), *(rng.normal(scale=s, size=20_000) for s in scales),
                           edges, np.negative(edges)])


def test_erf_matches_scipy_bit_for_bit():
    from scipy.special import erf as scipy_erf  # the reference, as tests/*_reference.py are

    x = _erf_inputs()
    assert tz.erf(x, None).tobytes() == scipy_erf(x).tobytes()
    assert tz.erf(np.array([-0.0]), None)[0].tobytes() == np.float64(-0.0).tobytes()


def test_erf_propagates_nan_and_keeps_the_other_elements():
    from scipy.special import erf as scipy_erf

    x = np.array([np.nan, 0.5, -np.nan, 3.0, np.nan])
    y = tz.erf(x, None)
    assert np.isnan(y[[0, 2, 4]]).all()
    assert y[[1, 3]].tobytes() == scipy_erf(x[[1, 3]]).tobytes()


@pytest.mark.parametrize("n", [0, 1, tz.ERF_BLOCK, tz.ERF_BLOCK + 1])
def test_erf_of_any_size_and_layout_matches_scipy(n):
    from scipy.special import erf as scipy_erf

    base = np.random.default_rng(42).normal(scale=2.0, size=(3, n))  # about 60 % above |x| = 1
    want = scipy_erf(base)
    assert tz.erf(base.T, None).tobytes() == want.T.tobytes()  # a new array from a transposed view
    x = base.copy().T
    assert tz.erf(x, x) is x and x.tobytes() == want.T.tobytes()
    gaps = np.repeat(base, 2, axis=1)  # out is x on a view with gaps between its elements
    view = gaps[:, ::2]
    tz.erf(view, view)
    assert view.tobytes() == want.tobytes() and gaps[:, 1::2].tobytes() == base.tobytes()


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(5)
    y = nn.softmax(nn.Tensor(rng.normal(size=(7, 11)) * 5), axis=-1)
    assert np.all(np.abs(y.data.sum(axis=-1) - 1.0) < 1e-9)


def test_sigmoid_output_range():
    x = nn.sigmoid(nn.Tensor(np.linspace(-50, 50, 101)))
    assert np.all(x.data > 0) and np.all(x.data < 1)


def test_sigmoid_gradient_matches_finite_differences():
    x = nn.Tensor(np.linspace(-10, 10, 41), requires_grad=True)
    r = np.random.default_rng(18).normal(size=41)
    worst = nn.finite_difference_check(lambda: (nn.sigmoid(x) * r).sum(), [x], rtol=1e-6)
    assert worst < 1e-6


def test_sigmoid_no_overflow_warning_at_extremes():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = nn.Tensor(np.array([-1000.0, 1000.0]), requires_grad=True)
        y = nn.sigmoid(x)
        y.sum().backward()
    assert 0.0 < y.data[0] < y.data[1] < 1.0
    assert np.array_equal(x.grad, [0.0, 0.0])


def test_sigmoid_unsaturated_matches_plain_formula_bitwise():
    # every output the plain formula already puts strictly inside (0, 1),
    # subnormals near x = -709 included, is returned unchanged
    x = np.concatenate([np.linspace(-709.7, -700, 50), np.linspace(-40, 36.5, 200)])
    plain = 1.0 / (1.0 + np.exp(-x))
    assert np.all((plain > 0) & (plain < 1))
    t = nn.Tensor(x, requires_grad=True)
    y = nn.sigmoid(t)
    y.backward(np.ones_like(x))
    assert y.data.tobytes() == plain.tobytes()
    assert t.grad.tobytes() == (plain * (1.0 - plain)).tobytes()


def test_local_attention_window_saturation_equals_full():
    rng = np.random.default_rng(6)
    T = 9
    cfg_small = nn.LocalEncoderConfig(layers=2, model_dim=16, heads=2, window=T, seed=7)
    cfg_big = nn.LocalEncoderConfig(layers=2, model_dim=16, heads=2, window=512, seed=7)
    enc_a, enc_b = nn.LocalEncoder(cfg_small), nn.LocalEncoder(cfg_big)
    for p, q in zip(enc_a.params().values(), enc_b.params().values()):
        q.data = p.data.copy()
    x = rng.normal(size=(2, T, 16))
    with nn.no_grad():
        out_a = enc_a(nn.Tensor(x)).data
        out_b = enc_b(nn.Tensor(x)).data
    assert np.array_equal(out_a, out_b)


def test_local_attention_masks_outside_window():
    """Zeroing content outside a query's window must not change its output."""
    rng = np.random.default_rng(8)
    w = 2
    cfg = nn.LocalEncoderConfig(layers=1, model_dim=8, heads=2, window=w, seed=9)
    enc = nn.LocalEncoder(cfg)
    T = 12
    x = rng.normal(size=(1, T, 8))
    q = 6
    with nn.no_grad():
        full = enc(nn.Tensor(x)).data[0, q]
        x2 = x.copy()
        x2[0, : q - w] = rng.normal(size=(q - w, 8))  # outside the window
        x2[0, q + w + 1 :] = rng.normal(size=(T - q - w - 1, 8))
        changed = enc(nn.Tensor(x2)).data[0, q]
    # single layer: position q only sees [q-w, q+w]
    assert np.allclose(full, changed, atol=1e-12)


def band_mask(T, window):
    idx = np.arange(T)
    return np.where(np.abs(idx[:, None] - idx[None, :]) <= window, 0.0, -1e30)


def pad_mask(seed, B, N):
    """The CNPP's [B, 1, 1, N] mask over keys; every row keeps its first key."""
    real = np.random.default_rng(seed).random((B, N)) < 0.7
    real[:, 0] = True
    return np.where(real[:, None, None, :], 0.0, -1e30)


def pad_cases():
    """(leaf shape, mask): CNPP pad masks [B, 1, 1, N] over 4 heads."""
    return [((16, 4, 48, 16), pad_mask(1, 16, 48)), ((1, 4, 90, 12), pad_mask(2, 1, 90))]


def banded_reference(q, k, v, window, g):
    """Attention of each query over the keys within `window` of it only, and
    the gradients of sum(out * g) for q, k, v, in plain numpy row by row."""
    T, d = q.shape[-2:]
    scale = 1.0 / np.sqrt(d)
    out, dq, dk, dv = (np.zeros_like(q) for _ in range(4))
    for i in range(T):
        lo, hi = max(0, i - window), min(T, i + window + 1)
        kj, vj = k[..., lo:hi, :], v[..., lo:hi, :]
        s = np.einsum("...d,...jd->...j", q[..., i, :], kj) * scale
        p = np.exp(s - s.max(axis=-1, keepdims=True))
        p /= p.sum(axis=-1, keepdims=True)
        out[..., i, :] = np.einsum("...j,...jd->...d", p, vj)
        dv[..., lo:hi, :] += p[..., :, None] * g[..., i, None, :]
        dp = np.einsum("...d,...jd->...j", g[..., i, :], vj)
        ds = p * (dp - (p * dp).sum(axis=-1, keepdims=True)) * scale
        dq[..., i, :] = np.einsum("...j,...jd->...d", ds, kj)
        dk[..., lo:hi, :] += ds[..., :, None] * q[..., i, None, :]
    return out, dq, dk, dv


@pytest.mark.parametrize("window", [1, 3, 64])
def test_banded_attention_matches_dense_masked_attention(window):
    """The attention node under a band mask equals attention over each
    query's band alone: the dropped keys add nothing, forward or backward."""
    rng = np.random.default_rng(19)
    for T in sorted({1, 2, window - 1, window, window + 1, 2 * window + 1, 256} - {0}):
        q, k, v = (nn.Tensor(rng.normal(size=(2, T, 8)), requires_grad=True) for _ in range(3))
        r = rng.normal(size=(2, T, 8))
        out = nn.attention(q, k, v, band_mask(T, window))
        (out * r).sum().backward()
        want = banded_reference(q.data, k.data, v.data, window, r)
        for got, ref in zip((out.data, q.grad, k.grad, v.grad), want):
            assert np.abs(got - ref).max() < 1e-12, (T, window)


@pytest.mark.parametrize("layout", ["contiguous", "swapaxes", "slice"])
@pytest.mark.parametrize("window", [3, 64])
def test_banded_attention_matches_reference_bytes(window, layout):
    """Band masks [T, T] for T around the window and at the longest
    frame-model window, against the five-node chain."""
    for T in sorted({1, 2, window - 1, window, window + 1, 2 * window + 1, 256} - {0}):
        mask = band_mask(T, window)
        for lead in ((2,), (2, 3)):
            shape = lead + (T, 8)
            _check_against_reference(
                lambda: _leaves(T, [shape] * 3, layout),
                lambda kz, q, k, v: kz.attention(q, k, v, mask),
            )
            # one tensor as query and key: its gradient is accumulated twice
            _check_against_reference(
                lambda: _leaves(T, [shape] * 2, layout),
                lambda kz, x, v: kz.attention(x, x, v, mask),
            )


@pytest.mark.parametrize("layout", ["contiguous", "swapaxes", "slice"])
def test_attention_matches_the_five_node_chain_bytes(layout):
    for shape, mask in pad_cases():
        T = shape[-2]
        _check_against_reference(
            lambda: _leaves(T, [shape] * 3, layout),
            lambda kz, q, k, v: kz.attention(q, k, v, mask),
        )
        # one tensor as query, key and value: its gradient is accumulated three times
        _check_against_reference(
            lambda: _leaves(T, [shape], layout),
            lambda kz, x: kz.attention(x, x, x, mask),
        )


@pytest.mark.parametrize("T, window", [(7, 3), (6, 2), (5, 8), (2, 1), (1, 4), (5, None)])
def test_attention_gradients_match_finite_differences(T, window):
    """Band masks [T, T], and a pad mask [2, 1, 1, T] over 2 heads (window None)."""
    rng = np.random.default_rng(20)
    shape, mask = ((2, 2, T, 3), pad_mask(3, 2, T)) if window is None else ((2, T, 3), band_mask(T, window))
    q, k, v = (nn.Tensor(rng.normal(size=shape), requires_grad=True) for _ in range(3))
    r = rng.normal(size=shape)
    fn = lambda: (nn.attention(q, k, v, mask) * r).sum()
    worst = nn.finite_difference_check(fn, [q, k, v], rtol=1e-6)
    assert worst < 1e-6


def test_local_encoder_gives_every_stream_one_band_mask_per_call():
    enc = nn.LocalEncoder(nn.LocalEncoderConfig(layers=2, model_dim=16, heads=2, window=3, seed=1))
    masks = []
    attention = tz.attention

    def spy(q, k, v, mask):
        masks.append(mask)
        return attention(q, k, v, mask)

    with mock.patch.object(tz, "attention", spy):
        enc(nn.Tensor(np.random.default_rng(2).normal(size=(2, 9, 16))))
    assert len(masks) == 4 and all(m is masks[0] for m in masks)  # 2 layers x 2 streams
    assert masks[0].tobytes() == band_mask(9, 3).tobytes()


def test_transformer_encoder_keeps_the_bytes_of_the_five_node_chain():
    """The note model's output and parameter gradients, with its attention
    through the node and through the chain it replaced."""
    x = np.random.default_rng(3).normal(size=(3, 11, 24))
    pad = np.ones((3, 11))
    pad[1, 7:] = 0.0
    pad[2, 2:] = 0.0
    runs = []
    for kernel in (tz.attention, autograd_reference.attention):
        enc = nn.TransformerEncoder(nn.TransformerConfig(layers=2, model_dim=24, heads=4, seed=4))
        with mock.patch.object(tz, "attention", kernel):
            out = enc(nn.Tensor(x), pad, rng=np.random.default_rng(5))
            (out * np.random.default_rng(6).normal(size=out.shape)).sum().backward()
        runs.append([out.data] + [p.grad for _, p in sorted(enc.params().items())])
    for got, want in zip(*runs):
        assert got.tobytes() == want.tobytes()


def _check_unrecorded(rng, shape, mask):
    q, k, v = (nn.Tensor(rng.normal(size=shape), requires_grad=True) for _ in range(3))
    recorded = nn.attention(q, k, v, mask)
    with nn.no_grad():
        plain = nn.attention(q, k, v, mask)
    assert recorded._node is not None and plain._node is None
    assert plain.shape == recorded.shape == shape
    assert plain.data.tobytes() == recorded.data.tobytes(), shape


@pytest.mark.parametrize("lead", [(2,), (1, 2)])
@pytest.mark.parametrize("window", [3, 64])
def test_banded_attention_unrecorded_returns_the_recorded_bytes(window, lead):
    # lengths around the window, the longest frame-model window, and windows >= T - 1
    rng = np.random.default_rng(40)
    lengths = {1, window - 1, window, window + 1, 2 * window + 1, 256} - {0}
    for T, win in [(T, window) for T in sorted(lengths)] + [(30, 29), (30, 500)]:
        _check_unrecorded(rng, lead + (T, 8), band_mask(T, win))


def test_attention_unrecorded_returns_the_recorded_bytes():
    rng = np.random.default_rng(40)
    for shape, mask in pad_cases():
        _check_unrecorded(rng, shape, mask)


def _check_against_reference(make_leaves, forward):
    """Run `forward(kernels, *leaves)` and its backward once with the
    in-place kernels and once with the reference ones (their `_accumulate`
    included); outputs and the gradients of every leaf that requires one
    must agree in shape, memory layout and bytes.  Returns the leaves of
    the in-place run."""
    runs = []
    for kernels, accumulate in ((tz, tz.Tensor._accumulate), (autograd_reference, autograd_reference._accumulate)):
        leaves = make_leaves()
        with mock.patch.object(tz.Tensor, "_accumulate", accumulate):
            out = forward(kernels, *leaves)
            (out * np.random.default_rng(0).normal(size=out.shape)).sum().backward()
        runs.append((leaves, [out.data] + [t.grad for t in leaves if t.requires_grad]))
    (leaves, new), (_, old) = runs
    assert len(new) == len(old)
    for got, want in zip(new, old):
        assert got.shape == want.shape and got.strides == want.strides
        assert got.tobytes() == want.tobytes()
    return leaves


def _leaves(seed, shapes, layout):
    """Leaves that require gradients: contiguous, `swapaxes` views of the
    transposed array, or every other column of a wider array (1-d leaves
    stay contiguous)."""
    rng = np.random.default_rng(seed)
    out = []
    for shape in shapes:
        if len(shape) == 1:
            data = rng.normal(size=shape)
        elif layout == "swapaxes":
            data = rng.normal(size=shape[:-2] + (shape[-1], shape[-2])).swapaxes(-1, -2)
        elif layout == "slice":
            data = rng.normal(size=shape[:-1] + (2 * shape[-1],))[..., ::2]
        else:
            data = rng.normal(size=shape)
        out.append(nn.Tensor(data, requires_grad=True))
    return out


@pytest.mark.parametrize("layout", ["contiguous", "swapaxes", "slice"])
def test_layer_norm_and_gelu_match_reference_bytes(layout):
    for T in (1, 7, 300):
        shape = (2, T, 16)
        # x feeds both kernels, so its gradient is accumulated twice
        _check_against_reference(
            lambda: _leaves(T, [shape, (16,), (16,)], layout),
            lambda kz, x, gamma, beta: kz.gelu(kz.layer_norm(x, gamma, beta)) + kz.gelu(x),
        )


@pytest.mark.parametrize("layout", ["contiguous", "swapaxes", "slice"])
def test_getitem_matches_reference_bytes(layout):
    def forward(kz, x):
        # overlapping basic slices, an integer index and a fancy index of one tensor
        parts = [kz.getitem(x, np.s_[:, :3]), kz.getitem(x, np.s_[:, 2:5]),
                 kz.getitem(x, np.s_[:, 1, None]), kz.getitem(x, np.s_[:, [0, 4, 4]])]
        return tz.concat(parts, axis=1)

    _check_against_reference(lambda: _leaves(9, [(4, 6, 5)], layout), forward)


@pytest.mark.parametrize("layout", ["contiguous", "swapaxes", "slice"])
def test_matmul_matches_reference_bytes_and_skips_plain_inputs(layout):
    def make():
        w, x = _leaves(10, [(16, 6), (3, 20, 16)], layout)
        return [nn.Tensor(x.data), w, x]  # a plain input, a weight, a graph input

    def forward(kz, plain, w, x):
        h = kz.matmul(plain, w)
        return kz.matmul(kz.matmul(kz.matmul(x, w), tz.swapaxes(h, 1, 2)), h)

    plain, _w, _x = _check_against_reference(make, forward)
    assert plain.grad is None


@pytest.mark.parametrize("layout", ["contiguous", "swapaxes", "slice"])
@pytest.mark.parametrize("x_shape", [(20, 16), (3, 20, 16)])
def test_linear_matches_two_node_reference_bytes_and_skips_plain_inputs(x_shape, layout):
    def make():
        x, w, b = _leaves(11, [x_shape, (16, 6), (6,)], layout)
        return [nn.Tensor(x.data), x, w, b]  # a plain input, a graph input, a weight, a bias

    def forward(kz, plain, x, w, b):
        # w and b feed both nodes, so their gradients are accumulated twice
        return kz.linear(x, w, b) + kz.linear(plain, w, b)

    plain, *_ = _check_against_reference(make, forward)
    assert plain.grad is None


@pytest.mark.parametrize("layout", ["contiguous", "swapaxes", "slice"])
@pytest.mark.parametrize("h_shape", [(20, 10), (3, 20, 10)])
def test_geglu_matches_the_two_slice_gelu_mul_chain_bytes(h_shape, layout):
    inner = h_shape[-1] // 2

    def make():
        (h,) = _leaves(12, [h_shape], layout)
        h.data[..., [0, inner]] = 0.0  # exact zeros in val and gate
        h.data[..., [1, inner + 1]] = [-2.0, 7.5]  # erf saturates: cdf is exactly 1
        h.data[..., [2, inner + 2]] = [3.0, -9.0]  # cdf is exactly 0: gate * cdf is -0.0
        return [h]

    _check_against_reference(make, lambda kz, h: kz.geglu(h, inner))
    (h,) = make()
    before = h.data.tobytes()
    with nn.no_grad():
        got = tz.geglu(h, inner).data
        want = autograd_reference.geglu(h, inner).data
    assert got.shape == want.shape and got.strides == want.strides
    assert got.tobytes() == want.tobytes()
    assert h.data.tobytes() == before  # the in-place path writes only its own buffer


@pytest.mark.parametrize("lead", [(1,), (2, 3)])
@pytest.mark.parametrize("T", [1, 2, 300, 513, 1101])
def test_geglu_layer_unrecorded_returns_the_recorded_bytes(T, lead):
    ffn = nn.layers.Geglu(np.random.default_rng(41), 64, 170)
    x = nn.Tensor(np.random.default_rng(42).normal(size=lead + (T, 64)))
    recorded = ffn(x)
    with nn.no_grad():
        plain = ffn(x)
    assert recorded._node is not None and plain._node is None
    assert plain.shape == recorded.shape and plain.data.tobytes() == recorded.data.tobytes()


def test_backward_releases_the_graph_and_keeps_leaf_gradients():
    rng = np.random.default_rng(22)
    lin = nn.Linear(rng, 4, 3)
    x = nn.Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
    h = lin(x)
    activation = weakref.ref(h.data)  # held by the gelu node's backward closure
    loss = (nn.gelu(h) * 2.0).sum()
    del h
    loss.backward()
    assert activation() is None
    leaves = (x, lin.w, lin.b)
    assert all(t.grad is not None for t in leaves)
    for t in leaves:
        t.zero_grad()
    loss.backward()  # the released graph reaches no parameter
    assert all(t.grad is None for t in leaves)


def test_an_output_no_backward_reads_is_freed_before_backward():
    rng = np.random.default_rng(23)
    x, y = (nn.Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True) for _ in range(2))
    norm = nn.LayerNorm(4)
    s = tz.add(x, y)
    summed = weakref.ref(s.data)  # read by neither the add's nor the layer norm's backward
    loss = norm(s).sum()
    del s
    assert summed() is None
    loss.backward()
    assert x.grad is not None and y.grad is not None


def test_the_input_a_linear_reads_lives_until_its_backward_has_run():
    rng = np.random.default_rng(24)
    lin = nn.Linear(rng, 4, 3)
    x = nn.Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
    h = nn.gelu(x)
    activation = weakref.ref(h.data)  # read by the linear's backward for the weight gradient
    loss = lin(h).sum()
    del h
    assert activation() is not None
    loss.backward()
    assert activation() is None and lin.w.grad is not None


@pytest.mark.parametrize("op", ["gelu", "swapaxes"])
def test_a_node_first_gradient_is_c_contiguous(op):
    # an identity op that records the gradient buffer its node hands it
    seen = []

    def spy(t):
        return tz._make(t.data, (t,), lambda g, a: (seen.append(g), a._accumulate(g)))

    x = nn.Tensor(np.random.default_rng(25).normal(size=(2, 5, 4)), requires_grad=True)
    out = tz.swapaxes(x, 1, 2) if op == "swapaxes" else nn.gelu(x)
    assert out.data.flags.c_contiguous == (op == "gelu")
    (spy(out) * 3.0).sum().backward()
    assert seen[0].shape == out.shape and seen[0].flags.c_contiguous


def _odd_strided():
    """A C-contiguous [2, 1, 8] array whose size-1 axis has a stride no new
    array has: attention's dk at T = 1."""
    a = np.random.default_rng(26).normal(size=(2, 8, 1)) @ np.ones((2, 1, 1))
    out = a.swapaxes(-1, -2)
    assert out.flags.c_contiguous and out.strides != np.empty(out.shape).strides
    return out


@pytest.mark.parametrize("sink", ["node", "leaf", "odd strides"])
def test_a_handed_over_first_gradient_has_the_copied_bytes(sink):
    if sink == "odd strides":
        buf = _odd_strided()
    else:
        buf = np.random.default_rng(27).normal(size=(3, 5))
        buf[0], buf[1, ::2] = -0.0, 0.0
    g = buf.copy()
    make = lambda: nn.Tensor(np.zeros(g.shape)) if sink == "leaf" else tz._Node(None, (), g)
    taken, copied = make(), make()
    copied._accumulate(g)
    taken._take(buf)
    assert np.shares_memory(taken.grad, buf)  # handed over, not copied
    assert taken.grad.tobytes() == copied.grad.tobytes()
    assert taken.grad.flags.c_contiguous and taken.grad.strides == copied.grad.strides
    assert not np.signbit(taken.grad[taken.grad == 0.0]).any()
    if sink != "odd strides":
        assert np.signbit(g[g == 0.0]).sum() == 5


def test_attention_copies_its_transposed_dk_and_hands_over_dq_and_dv(monkeypatch):
    rng = np.random.default_rng(28)
    q, k, v = (nn.Tensor(rng.normal(size=(2, 6, 4)), requires_grad=True) for _ in range(3))
    copied = []
    accumulate = tz._Sink._accumulate

    def spy(self, g):
        copied.append(self)
        accumulate(self, g)

    monkeypatch.setattr(tz._Sink, "_accumulate", spy)
    (tz.attention(q, k, v, np.zeros((6, 6))) * rng.normal(size=(2, 6, 4))).sum().backward()
    assert [t for t in (q, k, v) if any(s is t for s in copied)] == [k]
    assert all(t.grad.flags.c_contiguous for t in (q, k, v))


@pytest.mark.parametrize("case", ["equal shapes", "x + x", "broadcast b"])
def test_add_copies_its_gradient_to_b_and_hands_it_over_to_a(monkeypatch, case):
    rng = np.random.default_rng(30)
    x = nn.Tensor(rng.normal(size=(2, 6, 4)), requires_grad=True)
    y = nn.Tensor(rng.normal(size=(4,) if case == "broadcast b" else (2, 6, 4)), requires_grad=True)
    copied = []
    accumulate = tz._Sink._accumulate

    def spy(self, g):
        copied.append(self)
        accumulate(self, g)

    monkeypatch.setattr(tz._Sink, "_accumulate", spy)
    b = x if case == "x + x" else y
    r = rng.normal(size=(2, 6, 4))
    (tz.add(x, b) * r).sum().backward()
    assert [s for s in copied if s is x or s is y] == [b] * (1 + (case == "x + x"))
    if case == "x + x":
        assert x.grad.tobytes() == (r + r).tobytes()
    elif case == "broadcast b":
        assert y.grad.tobytes() == r.sum(axis=(0, 1)).tobytes()
        assert x.grad.tobytes() == (0.0 + r).tobytes()
    else:
        assert x.grad.tobytes() == y.grad.tobytes() == (0.0 + r).tobytes()


def test_attention_node_keeps_no_score_array():
    # the shared [T, T] band mask is the largest array the node may keep,
    # not the [8, T, T] probabilities
    rng = np.random.default_rng(31)
    T = 256
    q, k, v = (nn.Tensor(rng.normal(size=(8, T, 32)), requires_grad=True) for _ in range(3))
    out = nn.attention(q, k, v, band_mask(T, 64))
    cells = [c.cell_contents for c in out._node.backward.__closure__]
    arrays = [c for c in cells if isinstance(c, np.ndarray)]
    assert any(a.size == T * T for a in arrays)  # the mask
    assert max(a.size for a in arrays) <= T * T


def test_gru_backward_holds_one_input_gradient_at_its_peak():
    # its dx becomes the input projection's gradient; copied there, it made
    # two [B, T, 3H] arrays at the peak
    rng = np.random.default_rng(29)
    B, T, D, H = 8, 128, 8, 16
    lin = nn.Linear(rng, D, 3 * H)
    gru = nn.GRU(rng, D, H)
    x_pre = lin(nn.Tensor(rng.normal(size=(B, T, D))))
    out = tz.gru_sequence(x_pre, gru.w_hh, gru.b_hh, nn.Tensor(np.zeros((B, H))))
    node, g = out._node, rng.normal(size=(B, T, H))
    tracemalloc.start()
    try:
        node.backward(g, *node.parents)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one = B * T * 3 * H * 8
    assert x_pre._node.grad.shape == (B, T, 3 * H)
    assert one <= peak < 1.25 * one


def test_focal_loss_perfect_prediction_is_zero():
    pred = nn.Tensor(np.array([1.0]))
    loss = nn.focal_loss(pred, np.array([1.0]), np.array([1.0]), gamma=4.0, alpha_pos=29.0, alpha_neg=1.0)
    assert abs(float(loss.data)) < 1e-12


def test_focal_loss_hand_value():
    # pred=0.5, soft=1, hard=1, gamma=4, alpha=29 -> 29 * 0.5^4 * ln 2
    pred = nn.Tensor(np.array([0.5]))
    loss = nn.focal_loss(pred, np.array([1.0]), np.array([1.0]), gamma=4.0, alpha_pos=29.0, alpha_neg=1.0)
    assert abs(float(loss.data) - 29 * 0.5**4 * np.log(2)) < 1e-9


def test_focal_loss_linear_in_alpha():
    rng = np.random.default_rng(10)
    pred = nn.Tensor(rng.uniform(0.2, 0.8, size=16))
    soft = rng.uniform(0, 1, size=16)
    hard = np.ones(16)
    l1 = float(nn.focal_loss(pred, soft, hard, gamma=4.0, alpha_pos=29.0, alpha_neg=1.0).data)
    l2 = float(nn.focal_loss(pred, soft, hard, gamma=4.0, alpha_pos=58.0, alpha_neg=1.0).data)
    assert abs(l2 - 2 * l1) < 1e-9


def test_focal_loss_rejects_negative_gamma():
    with pytest.raises(ValueError):
        nn.focal_loss(
            nn.Tensor(np.array([0.5])), np.array([1.0]), np.array([1.0]),
            gamma=-1, alpha_pos=29.0, alpha_neg=1.0,
        )


def test_schedule_endpoints():
    opt = nn.AdamW({}, lr=0.01, steps=1000, warmup=0)
    assert opt.lr_at(0) == pytest.approx(0.01)
    assert opt.lr_at(1000) == pytest.approx(0.01 / 100)
    warm = nn.AdamW({}, lr=0.01, steps=1000, warmup=100)
    assert warm.lr_at(0) < 0.01
    assert warm.lr_at(100) == pytest.approx(0.01)


def test_optimizer_config_validation():
    for lr in (-1.0, 0.0):
        with pytest.raises(ValueError):
            nn.AdamW({}, lr=lr, steps=10, warmup=0)


def test_adamw_toy_least_squares_converges_100x():
    a = nn.Tensor(np.array([0.0]), requires_grad=True)
    b = nn.Tensor(np.array([0.0]), requires_grad=True)
    xs = np.linspace(-1, 1, 16)
    ys = 2 * xs + 1
    opt = nn.AdamW({"a": a, "b": b}, lr=0.1, steps=200, warmup=0, weight_decay=0.0)
    first = last = None
    for _ in range(200):
        loss = (((a * xs + b) - ys) ** 2).mean()
        if first is None:
            first = float(loss.data)
        last = nn.train_step(loss, opt)
    assert first / last >= 100.0


def test_train_step_aborts_on_nonfinite_loss():
    a = nn.Tensor(np.array([1.0]), requires_grad=True)
    opt = nn.AdamW({"a": a}, lr=0.1, steps=10_000, warmup=0)
    loss = a * np.nan
    with pytest.raises(nn.DivergenceError):
        nn.train_step(loss, opt)


def test_forward_determinism_fixed_seed():
    cfg = nn.LocalEncoderConfig(layers=1, model_dim=16, heads=2, window=8, seed=13)
    x = np.random.default_rng(14).normal(size=(1, 20, 16))
    outs = []
    for _ in range(2):
        enc = nn.LocalEncoder(cfg)
        with nn.no_grad():
            outs.append(enc(nn.Tensor(x)).data)
    assert np.array_equal(outs[0], outs[1])


def test_checkpoint_roundtrip_and_shape_validation(tmp_path):
    rng = np.random.default_rng(15)
    lin = nn.Linear(rng, 3, 2)
    path = tmp_path / "model.npz"
    nn.save_checkpoint(path, lin.params(), {"kind": "test"}, extra={"note": 1})
    lin2 = nn.Linear(np.random.default_rng(99), 3, 2)
    meta = nn.load_checkpoint(path, lin2.params())
    assert meta["config"]["kind"] == "test"
    assert np.array_equal(lin.w.data, lin2.w.data)
    bad = nn.Linear(rng, 3, 5)
    with pytest.raises(nn.CheckpointError):
        nn.load_checkpoint(path, bad.params())
    with pytest.raises(nn.CheckpointError):
        nn.load_checkpoint(tmp_path / "missing.npz")


@pytest.mark.parametrize("damage", ["truncated", "empty", "garbage"])
def test_an_unreadable_checkpoint_raises_checkpoint_error(tmp_path, damage):
    path = tmp_path / "model.npz"
    nn.save_checkpoint(path, nn.Linear(np.random.default_rng(15), 3, 2).params(), {"kind": "test"})
    raw = path.read_bytes()
    path.write_bytes({"truncated": raw[: len(raw) // 2], "empty": b"", "garbage": b"garbage" * 64}[damage])
    with pytest.raises(nn.CheckpointError, match="unreadable checkpoint"):
        nn.load_checkpoint(path)


def test_save_npz_replaces_the_file_only_once_it_is_whole(tmp_path, monkeypatch):
    path = tmp_path / "a.npz"
    nn.save_npz(path, x=np.arange(3.0))
    before = path.read_bytes()

    def killed(fh, **_arrays):
        fh.write(b"PK\x03\x04 half an archive")
        raise KeyboardInterrupt

    monkeypatch.setattr(np, "savez", killed)
    with pytest.raises(KeyboardInterrupt):
        nn.save_npz(path, x=np.arange(4.0))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a.npz"]


def test_embedding_and_interp_gradients():
    rng = np.random.default_rng(16)
    table = nn.Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    idx = np.array([0, 2, 2, 5])
    r = rng.normal(size=(4, 4))
    worst = nn.finite_difference_check(lambda: (tz.embedding(table, idx) * r).sum(), [table])
    assert worst < 1e-4


def test_cross_entropy_masked_rows_do_not_contribute():
    rng = np.random.default_rng(17)
    logits = nn.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    targets = np.array([1, 2, 3, 4])
    mask = np.array([1.0, 1.0, 0.0, 1.0])
    full = float(tz.cross_entropy_logits(logits, targets, mask).data)
    # changing a masked row's logits must not change the loss
    logits.data[2] += 100.0
    assert float(tz.cross_entropy_logits(logits, targets, mask).data) == pytest.approx(full)
