"""Reference YIN path that `features.track_pitch` must match.

`_frame_signal`, `_lag_products` and `_yin_rows` are the per-frame form that
computed every frame's lag products with its own three FFTs, kept verbatim.
`reference_track_pitch` runs them as one call over all frames.  The block
form sums the same products in another order, so the raw f0 may move at the
1e-14 level; the gridded pitch and the voicing are what must stay.
"""

import numpy as np
from numpy.lib.stride_tricks import as_strided

from notetune.features import (
    RMS_FLOOR_DB,
    YIN_FMAX,
    YIN_FMIN,
    YIN_INTEGRATION,
    YIN_THRESHOLD,
    frame_count,
    hz_to_semitones,
)


def _frame_signal(wav: np.ndarray, frame_len: int, hop: int, n_frames: int) -> np.ndarray:
    half = frame_len // 2
    mode = "reflect" if len(wav) > max(half, frame_len) else "constant"
    padded = np.pad(wav, (half, frame_len), mode=mode)
    s = padded.strides[0]
    return as_strided(padded, shape=(n_frames, frame_len), strides=(hop * s, s))


def _lag_products(frames: np.ndarray, pad0: int, tau_max: int) -> np.ndarray:
    """Column k: sum of frames[:, pad0 + i] * frames[:, pad0 + i + k] over i < W, by FFT."""
    W = YIN_INTEGRATION
    # These read frame samples up to pad0 + W - 1 + tau_max, so a circular
    # correlation of length nfft >= pad0 + W + tau_max never wraps onto them.
    nfft = 1 << int(np.ceil(np.log2(pad0 + W + tau_max)))
    spec_all = np.fft.rfft(frames, nfft)
    spec_head = np.fft.rfft(frames[:, pad0 : pad0 + W], nfft)
    return np.fft.irfft(np.conj(spec_head) * spec_all, nfft)[:, pad0 : pad0 + tau_max + 1]


def _yin_rows(frames: np.ndarray, sr: int, pad0: int, tau_min: int, tau_max: int):
    """YIN decision for each row of `frames` [n, frame_len] on its own:
    returns (f0 in Hz, voiced as a bool mask).  Every step is per row, so any
    split of the frames into chunks gives the same bytes."""
    W = YIN_INTEGRATION
    frame_len = frames.shape[1]
    corr = _lag_products(frames, pad0, tau_max)

    sq = np.cumsum(frames * frames, axis=1)
    taus = np.arange(tau_max + 1)
    hi = sq[:, pad0 + W - 1 + taus]
    lo = np.where(pad0 + taus > 0, sq[:, np.maximum(pad0 + taus - 1, 0)], 0.0)
    energy = hi - lo
    e_head = energy[:, 0:1]
    diff = e_head + energy - 2.0 * corr
    diff = np.maximum(diff, 0.0)

    # cumulative mean normalization
    cmndf = np.ones_like(diff)
    csum = np.cumsum(diff[:, 1:], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cmndf[:, 1:] = diff[:, 1:] * taus[1:] / np.where(csum > 0, csum, np.inf)

    region = cmndf[:, tau_min : tau_max + 1]
    interior = region[:, 1:-1]
    is_min = (interior <= region[:, :-2]) & (interior <= region[:, 2:])
    candidates = np.where(is_min, interior, np.inf)
    below = candidates < YIN_THRESHOLD
    any_below = below.any(axis=1)
    first_below = np.argmax(below, axis=1)
    global_min = np.argmin(candidates, axis=1)
    pick = np.where(any_below, first_below, global_min)
    tau_star = pick + tau_min + 1

    rows = np.arange(len(frames))
    d0 = cmndf[rows, tau_star - 1]
    d1 = cmndf[rows, tau_star]
    d2 = cmndf[rows, np.minimum(tau_star + 1, tau_max)]
    denom = d0 - 2.0 * d1 + d2
    safe = np.where(np.abs(denom) > 1e-12, denom, 1.0)
    shift = np.where(np.abs(denom) > 1e-12, 0.5 * (d0 - d2) / safe, 0.0)
    shift = np.clip(shift, -0.5, 0.5)
    tau_refined = tau_star + shift

    f0 = sr / tau_refined
    center = frame_len // 2
    rms = np.sqrt(np.mean(frames[:, center - W // 2 : center + W // 2] ** 2, axis=1))
    with np.errstate(divide="ignore"):
        rms_db = 20.0 * np.log10(np.where(rms > 0, rms, 1e-12))
    voiced = any_below & (rms_db > RMS_FLOOR_DB)
    return f0, voiced


def reference_track_pitch(wav: np.ndarray, sr: int, hop: int):
    """(pitch in semitones, NaN where unvoiced; voiced) from one per-frame
    `_yin_rows` call over all frames, with track_pitch's lag range."""
    tau_min = max(2, int(sr / YIN_FMAX))
    tau_max = int(np.ceil(sr / YIN_FMIN))
    pad0 = max(0, tau_max - 101)
    frame_len = pad0 + YIN_INTEGRATION + tau_max + 1
    frames = _frame_signal(wav, frame_len, hop, frame_count(len(wav), hop))
    f0, voiced = _yin_rows(frames, sr, pad0, tau_min, tau_max)
    pitch = np.full(len(f0), np.nan)
    pitch[voiced] = hz_to_semitones(f0[voiced])
    return pitch, voiced
