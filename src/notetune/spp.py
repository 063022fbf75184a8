"""Stationary pitch estimation: learned frame weights plus three baselines.

The model scores every frame; within each note the scores of voiced frames
softmax into a weight distribution and the note's stationary pitch is the
weighted average of its frame pitches.  Baselines: plain average, the
center-weighted (Hann) median, and the 30-70th percentile trimmed mean that
scores each corpus song's pitch error for the split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nncore as nn
from .features import FrameTrack
from .frontend import FrameEncoder, FrameEncoderConfig, windowed
from .segmenter import NoteInterval

PTR_LO_CENTS = -10.0
PTR_HI_CENTS = 15.0
STAT_WINDOW = 9  # frames, centered, for the local pitch-variation term


@dataclass
class SppLossWeights:
    lambda_s: float = 0.05
    lambda_d: float = 0.1
    lambda_u: float = 0.01

    def __post_init__(self):
        if min(self.lambda_s, self.lambda_d, self.lambda_u) < 0:
            raise ValueError("loss weights must be non-negative")


@dataclass
class StationaryEstimate:
    pitch: float
    flagged: bool = False


class StationaryPitchPredictor(nn.Module):
    def __init__(self, cfg: FrameEncoderConfig):
        self.cfg = cfg
        self.encoder = FrameEncoder(cfg)
        rng = nn.init_rng(cfg.seed + 3)
        self.head = nn.Linear(rng, cfg.model_dim, 1)

    def forward_batch(self, x) -> nn.Tensor:
        """[B, T, 2+n_mels] -> frame logits [B, T]."""
        h = self.encoder(x)
        e = self.head(h)
        B, T, _ = e.shape
        return e.reshape((B, T))

    def frame_logits(self, track: FrameTrack) -> np.ndarray:
        """Logit per frame, from `forward_batch` on the inference windows of
        the take (`frontend.windowed`)."""
        return windowed(self.forward_batch, track)

    def estimate(self, track: FrameTrack, notes: list[NoteInterval]) -> list[StationaryEstimate]:
        logits = self.frame_logits(track)
        return estimates_from_logits(logits, track, notes)


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max())
    return e / e.sum()


def _note_estimates(track: FrameTrack, notes: list[NoteInterval], pitch_of) -> list[StationaryEstimate]:
    """One estimate per note from the pitches `vals` of its voiced frames,
    `pitch_of(note, idx, vals)` with `idx` their offsets in the note.  A
    note with no voiced frame is flagged and gets the mean of the
    gap-filled curve over its span."""
    out = []
    for note in notes:
        a, b = note.start_frame, note.end_frame
        idx = np.flatnonzero(track.voiced[a:b])
        if len(idx) == 0:
            out.append(StationaryEstimate(float(track.pitch_filled[a:b].mean()), flagged=True))
        else:
            out.append(StationaryEstimate(float(pitch_of(note, idx, track.pitch_semitones[a:b][idx]))))
    return out


def estimates_from_logits(
    logits: np.ndarray, track: FrameTrack, notes: list[NoteInterval]
) -> list[StationaryEstimate]:
    """Softmax of the voiced frames' logits within each note, as weights."""
    return _note_estimates(
        track, notes, lambda note, idx, vals: np.dot(_softmax(logits[note.start_frame + idx]), vals)
    )


# ---- baseline aggregators ---------------------------------------------------

def aggregate_average(track: FrameTrack, notes: list[NoteInterval]) -> list[StationaryEstimate]:
    return _note_estimates(track, notes, lambda _note, _idx, vals: vals.mean())


def _hann_median(note: NoteInterval, idx: np.ndarray, vals: np.ndarray) -> float:
    hann = np.hanning(note.n_frames + 2)[1:-1]
    order = np.argsort(vals, kind="stable")
    cum = np.cumsum(hann[idx][order])
    k = int(np.searchsorted(cum, 0.5 * cum[-1]))
    return vals[order][min(k, len(vals) - 1)]


def aggregate_weighted_median(track: FrameTrack, notes: list[NoteInterval]) -> list[StationaryEstimate]:
    """Weighted median with Hann-window weights over each note's span.

    The window is evaluated on the padded span (hanning(n + 2)[1:-1]) so
    edge frames keep small positive weight.
    """
    return _note_estimates(track, notes, _hann_median)


def _trimmed_mean(_note: NoteInterval, _idx: np.ndarray, vals: np.ndarray) -> float:
    lo, hi = np.percentile(vals, [30.0, 70.0])
    kept = vals[(vals >= lo) & (vals <= hi)]
    return kept.mean() if len(vals) >= 3 and len(kept) else vals.mean()


def aggregate_trimmed_mean(track: FrameTrack, notes: list[NoteInterval]) -> list[StationaryEstimate]:
    """Mean of the voiced pitches v with P30 <= v <= P70 (inclusive; numpy's
    linear percentiles); a note with fewer than 3 voiced frames gets the
    plain mean."""
    return _note_estimates(track, notes, _trimmed_mean)


# ---- training objective -----------------------------------------------------

def local_pitch_std(pitch_interp: np.ndarray) -> np.ndarray:
    """Rolling standard deviation of the pitch curve, centered STAT_WINDOW."""
    padded = np.pad(pitch_interp, STAT_WINDOW // 2, mode="edge")
    sw = np.lib.stride_tricks.sliding_window_view(padded, STAT_WINDOW)
    return sw.std(axis=1)


def spp_note_loss(
    w: nn.Tensor,
    pitches: np.ndarray,
    gt_pitch: float,
    sigma: np.ndarray,
    lw: SppLossWeights,
):
    """Four-term objective for one note given its weight distribution.

    Returns (total_loss_tensor, components) where components hold the raw
    per-term float values: pitch, stat, dist, uni.  `uni` is sum(w log w),
    the negative entropy, so minimizing it spreads the weights.
    """
    p_hat = (w * pitches).sum()
    l_pitch = (p_hat - gt_pitch) ** 2
    l_stat = (w * (sigma**2)).sum()
    l_dist = (w * ((pitches - gt_pitch) ** 2)).sum()
    w_safe = nn.clip(w, 1e-12, 1.0)
    l_uni = (w * nn.tlog(w_safe)).sum()
    total = l_pitch + lw.lambda_s * l_stat + lw.lambda_d * l_dist + lw.lambda_u * l_uni
    comps = {
        "pitch": float(l_pitch.data),
        "stat": float(l_stat.data),
        "dist": float(l_dist.data),
        "uni": float(l_uni.data),
    }
    return total, comps


# ---- evaluation ---------------------------------------------------------------

def evaluate_spp(estimated: np.ndarray, annotated: np.ndarray) -> dict:
    """PTR (% within [-10, +15] cents, inclusive) and MAE (cents)."""
    estimated = np.asarray(estimated, dtype=np.float64)
    annotated = np.asarray(annotated, dtype=np.float64)
    if estimated.shape != annotated.shape:
        raise ValueError(
            f"estimate/annotation length mismatch: {estimated.shape} vs {annotated.shape}"
        )
    err_cents = (estimated - annotated) * 100.0
    inside = (err_cents >= PTR_LO_CENTS) & (err_cents <= PTR_HI_CENTS)
    return {
        "ptr_percent": 100.0 * float(inside.mean()) if len(inside) else float("nan"),
        "mae_cents": float(np.abs(err_cents).mean()) if len(err_cents) else float("nan"),
        "n_notes": int(len(err_cents)),
    }

