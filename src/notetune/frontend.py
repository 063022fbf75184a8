"""Shared frame-feature encoder for the boundary and stationary-pitch models.

Input per frame: interpolated pitch (semitones), voicing flag, and the log
mel-spectrogram.  Pitch and voicing go through one projection, mel through
another; the concatenated projections are fused and encoded by the
windowed-attention stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nncore as nn
from .features import FrameTrack

PITCH_CENTER = 60.0
PITCH_SCALE = 12.0
MEL_SHIFT = 10.0
MEL_SCALE = 8.0


def track_inputs(track: FrameTrack) -> np.ndarray:
    """Stack normalized per-frame features [T, 2 + n_mels]."""
    p = (track.pitch_filled - PITCH_CENTER) / PITCH_SCALE
    v = track.voiced.astype(np.float64)
    m = (track.mel + MEL_SHIFT) / MEL_SCALE
    return np.concatenate([p[:, None], v[:, None], m], axis=1)


@dataclass
class FrameEncoderConfig:
    n_mels: int = 80
    layers: int = 2
    model_dim: int = 64
    heads: int = 2
    window: int = 64
    seed: int = 0

    def encoder_config(self) -> nn.LocalEncoderConfig:
        return nn.LocalEncoderConfig(
            layers=self.layers,
            model_dim=self.model_dim,
            heads=self.heads,
            window=self.window,
            seed=self.seed,
        )


class FrameEncoder(nn.Module):
    def __init__(self, cfg: FrameEncoderConfig):
        rng = np.random.default_rng(cfg.seed + 1)
        d = cfg.model_dim
        self.cfg = cfg
        self.pitch_proj = nn.Linear(rng, 2, d)
        self.mel_proj = nn.Linear(rng, cfg.n_mels, d)
        self.fuse = nn.Linear(rng, 2 * d, d)
        self.encoder = nn.LocalEncoder(cfg.encoder_config())

    def __call__(self, x) -> nn.Tensor:
        """x: Tensor or ndarray [B, T, 2 + n_mels] -> hidden [B, T, D]."""
        if not isinstance(x, nn.Tensor):
            x = nn.Tensor(x)
        p = self.pitch_proj(x[:, :, 0:2])
        m = self.mel_proj(x[:, :, 2:])
        h = self.fuse(nn.concat([p, m], axis=-1))
        return self.encoder(h)
