"""Shared frame-feature encoder for the boundary and stationary-pitch models.

Input per frame: interpolated pitch (semitones), voicing flag, and the log
mel-spectrogram.  Pitch and voicing go through one projection, mel through
another; the concatenated projections are fused and encoded by the
windowed-attention stack.

Both frame models train on crops of WINDOW = 256 frames, so they only
ever learn positions 0..255.  At inference (`windowed`) they run on
windows of at most WINDOW frames, each with its own positions from 0, and
keep each window's WINDOW_CORE core frames: a take of any length gets
positions the models were trained on, and a pass holds the activations of
WINDOW_GROUP windows, not of the whole take.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import nncore as nn
from .features import FrameTrack

PITCH_CENTER = 60.0
PITCH_SCALE = 12.0
MEL_SHIFT = 10.0
MEL_SCALE = 8.0

# training crops and inference windows: WINDOW frames; of a window, the
# WINDOW_CORE in the middle are kept and WINDOW_HALO each side are context;
# WINDOW_GROUP windows of one length are stacked on the batch axis of one pass
WINDOW = 256
WINDOW_HALO = 16
WINDOW_CORE = WINDOW - 2 * WINDOW_HALO
WINDOW_GROUP = 4


def frame_inputs(track: FrameTrack, start: int, stop: int) -> np.ndarray:
    """The normalized features [stop - start, 2 + n_mels] of frames
    start..stop-1: pitch, voicing, then the mel bands.  Every value is its
    frame's own, so a crop's rows are those of the whole take."""
    p = (track.pitch_filled[start:stop] - PITCH_CENTER) / PITCH_SCALE
    v = track.voiced[start:stop].astype(np.float64)
    m = (track.mel[start:stop] + MEL_SHIFT) / MEL_SCALE
    return np.concatenate([p[:, None], v[:, None], m], axis=1)


def frame_windows(T: int) -> list[tuple[int, int, int, int]]:
    """(start, stop, lo, hi) of each inference window of a T-frame take: it
    reads frames start..stop-1 and keeps frames lo..hi-1.

    The kept cores tile 0..T-1 in runs of WINDOW_CORE.  A take of at most
    WINDOW frames is one window.  Otherwise every window but the last reads
    WINDOW frames, WINDOW_HALO before its core where the take allows (the
    first window starts at 0 and keeps the first WINDOW_CORE frames); the
    last reads from WINDOW_HALO before its core to the take's end, so it is
    shorter than WINDOW and runs in a pass of its own."""
    if T <= WINDOW:
        return [(0, T, 0, T)]
    windows = []
    for lo in range(0, T, WINDOW_CORE):
        hi = min(lo + WINDOW_CORE, T)
        start = lo - WINDOW_HALO if hi == T else min(max(lo - WINDOW_HALO, 0), T - WINDOW)
        windows.append((start, hi if hi == T else start + WINDOW, lo, hi))
    return windows


def windowed(forward_batch: Callable, track: FrameTrack) -> np.ndarray:
    """One value per frame of `track` from `forward_batch` ([B, t, 2 + n_mels]
    -> [B, t]), run without recording on the `frame_windows` of the take,
    in groups of up to WINDOW_GROUP consecutive windows of one length; each
    frame's value comes from the core of the one window that keeps it."""
    out = np.empty(track.n_frames)
    with nn.no_grad():
        for _, same in itertools.groupby(frame_windows(track.n_frames), key=lambda w: w[1] - w[0]):
            same = list(same)
            for g in range(0, len(same), WINDOW_GROUP):
                group = same[g : g + WINDOW_GROUP]
                first = group[0][0]
                x = frame_inputs(track, first, group[-1][1])
                y = forward_batch(np.stack([x[a - first : b - first] for a, b, _, _ in group])).data
                for row, (a, _, lo, hi) in zip(y, group):
                    out[lo:hi] = row[lo - a : hi - a]
    return out


@dataclass
class FrameEncoderConfig(nn.LocalEncoderConfig):
    """The windowed-attention encoder's shape plus the mel input width."""

    n_mels: int = 80


class FrameEncoder(nn.Module):
    def __init__(self, cfg: FrameEncoderConfig):
        rng = nn.init_rng(cfg.seed + 1)
        d = cfg.model_dim
        self.cfg = cfg
        self.pitch_proj = nn.Linear(rng, 2, d)
        self.mel_proj = nn.Linear(rng, cfg.n_mels, d)
        self.fuse = nn.Linear(rng, 2 * d, d)
        self.encoder = nn.LocalEncoder(cfg)

    def __call__(self, x) -> nn.Tensor:
        """x: Tensor or ndarray [B, T, 2 + n_mels] -> hidden [B, T, D], with
        positions 0..T-1 in every row of the batch: in training a crop, at
        inference one of `windowed`'s windows."""
        if not isinstance(x, nn.Tensor):
            x = nn.Tensor(x)
        fused = self.fuse(nn.concat([self.pitch_proj(x[:, :, 0:2]), self.mel_proj(x[:, :, 2:])], axis=-1))
        return self.encoder(fused)
