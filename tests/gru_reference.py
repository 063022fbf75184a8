"""The GRU step that `nncore.gru_cell` replaced, kept verbatim (with the
logistic it called) as the reference its sliced form must match byte for
byte."""

import numpy as np


def _logistic(x: np.ndarray) -> np.ndarray:
    """1/(1 + exp(-x)) on plain arrays; exp overflowing to inf gives 0.0 silently."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


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
