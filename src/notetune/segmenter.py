"""Note boundary detection: frame probabilities, greedy NMS decode, intervals.

The model encodes pitch + mel frames and emits a per-frame boundary
probability through a GRU + linear + sigmoid head.  Training uses a
soft-label focal objective; decoding selects temporally distinct peaks and
adds the singing-region endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nncore as nn
from .features import FrameTrack
from .frontend import FrameEncoder, FrameEncoderConfig, track_inputs

DEFAULT_NMS_WINDOW = 5
DEFAULT_THETA = 0.5
DEFAULT_SOFT_SIGMA = 2.0
DEFAULT_MIN_NOTE_FRAMES = 5
BRIDGE_SEC = 0.2
MIN_SPAN_FRAMES = 10
BOUNDARY_TOL = 3  # frames, for boundary matching


@dataclass
class NoteInterval:
    """Half-open frame range of one note."""

    start_frame: int
    end_frame: int

    def __post_init__(self):
        if self.start_frame >= self.end_frame:
            raise ValueError("note interval must be non-empty")

    @property
    def n_frames(self) -> int:
        return self.end_frame - self.start_frame


class Segmenter(nn.Module):
    def __init__(self, cfg: FrameEncoderConfig):
        self.cfg = cfg
        self.encoder = FrameEncoder(cfg)
        rng = np.random.default_rng(cfg.seed + 2)
        self.head_gru = nn.GRU(rng, cfg.model_dim, cfg.model_dim)
        self.head_out = nn.Linear(rng, cfg.model_dim, 1)

    def forward_batch(self, x) -> nn.Tensor:
        """[B, T, 2+n_mels] -> boundary probabilities [B, T]."""
        h = self.encoder(x)
        g = self.head_gru(h)
        logits = self.head_out(g)
        B, T, _ = logits.shape
        return nn.sigmoid(logits.reshape((B, T)))

    def predict(self, track: FrameTrack) -> np.ndarray:
        with nn.no_grad():
            probs = self.forward_batch(track_inputs(track)[None, :, :])
        return probs.data[0]


# ---- labels ---------------------------------------------------------------

def soften_labels(hard: np.ndarray, sigma: float = DEFAULT_SOFT_SIGMA) -> np.ndarray:
    """Blur labels with a Gaussian kernel, combining overlaps by max.

    Accepts binary boundary indicators or an already-soft array; each
    position contributes a Gaussian bump scaled by its value, so re-blurring
    with sigma -> 0 is the identity.  The blur is untruncated: every bump
    reaches the whole track (O(positions x T)).
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    hard = np.asarray(hard, dtype=np.float64)
    T = len(hard)
    soft = np.zeros(T)
    # kernel[T - 1 + d] is the bump at offset d, for every |d| < T
    offsets = np.arange(-(T - 1), T)
    kernel = np.exp(-(offsets**2) / (2.0 * sigma**2))
    for t in np.nonzero(hard > 0)[0]:
        np.maximum(soft, kernel[T - 1 - t : 2 * T - 1 - t] * hard[t], out=soft)
    return np.clip(soft, 0.0, 1.0)


# ---- decoding ---------------------------------------------------------------

def greedy_nms(
    probs: np.ndarray,
    w: int = DEFAULT_NMS_WINDOW,
    theta: float = DEFAULT_THETA,
    span: tuple[int, int] | None = None,
) -> list[int]:
    """Greedy non-maximum suppression over boundary probabilities.

    Iteratively selects the highest remaining probability >= theta
    (earliest frame on ties) and zeroes the inclusive window [t-w, t+w]
    around it, then adds the first and last frames of the singing region
    `span` (half-open).  Returns ascending frame indices.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie strictly between 0 and 1")
    probs = np.asarray(probs, dtype=np.float64)
    if span is None:
        span = (0, len(probs))
    lo, hi = span
    work = probs[lo:hi].copy()
    picked: set[int] = set()
    while len(work) and work.max() >= theta:
        t = int(np.argmax(work))
        picked.add(lo + t)
        work[max(0, t - w) : t + w + 1] = 0.0
    picked.add(lo)
    picked.add(hi - 1)
    return sorted(picked)


def singing_spans(voiced: np.ndarray, hop: int, sr: int) -> list[tuple[int, int]]:
    """Maximal voiced spans with gaps <= BRIDGE_SEC bridged, as half-open
    ranges; spans shorter than MIN_SPAN_FRAMES are dropped."""
    v = np.asarray(voiced, dtype=bool)
    if not v.any():
        return []
    idx = np.nonzero(v)[0]
    max_gap = int(round(BRIDGE_SEC * sr / hop))
    spans = []
    start = prev = idx[0]
    for t in idx[1:]:
        if t - prev > max_gap:
            spans.append((start, prev + 1))
            start = t
        prev = t
    spans.append((start, prev + 1))
    return [(a, b) for a, b in spans if b - a >= MIN_SPAN_FRAMES]


def boundaries_to_intervals(
    boundaries: list[int],
    track: FrameTrack,
    min_note_frames: int = DEFAULT_MIN_NOTE_FRAMES,
) -> list[NoteInterval]:
    """Turn sorted boundary frames into half-open intervals.

    Intervals shorter than min_note_frames are merged into the neighbor
    whose mean (interpolated) pitch is closer.
    """
    if len(boundaries) < 2:
        return []
    spans = [[boundaries[i], boundaries[i + 1]] for i in range(len(boundaries) - 1)]
    pitch = track.pitch_filled

    def mean_pitch(span):
        a, b = span
        seg = pitch[a:b]
        return float(seg.mean()) if len(seg) else 0.0

    changed = True
    while changed and len(spans) > 1:
        changed = False
        lengths = [b - a for a, b in spans]
        i = int(np.argmin(lengths))
        if lengths[i] >= min_note_frames:
            break
        if i == 0:
            j = 1
        elif i == len(spans) - 1:
            j = i - 1
        else:
            me = mean_pitch(spans[i])
            j = i - 1 if abs(mean_pitch(spans[i - 1]) - me) <= abs(mean_pitch(spans[i + 1]) - me) else i + 1
        a = min(spans[i][0], spans[j][0])
        b = max(spans[i][1], spans[j][1])
        spans[min(i, j)] = [a, b]
        del spans[max(i, j)]
        changed = True
    return [NoteInterval(a, b) for a, b in spans]


def detect_notes(
    track: FrameTrack,
    probs: np.ndarray,
    w: int = DEFAULT_NMS_WINDOW,
    theta: float = DEFAULT_THETA,
    min_note_frames: int = DEFAULT_MIN_NOTE_FRAMES,
) -> list[NoteInterval]:
    """Full decode: singing spans -> NMS per span -> merged intervals."""
    notes: list[NoteInterval] = []
    for span in singing_spans(track.voiced, track.hop, track.sample_rate):
        bounds = greedy_nms(probs, w=w, theta=theta, span=span)
        notes.extend(boundaries_to_intervals(bounds, track, min_note_frames))
    return notes


# ---- evaluation helpers ----------------------------------------------------

def match_boundaries(pred: list[int], gt: list[int]):
    """Greedy one-to-one matching within +-BOUNDARY_TOL frames; returns (tp, fp, fn)."""
    pred = sorted(pred)
    gt = sorted(gt)
    used = [False] * len(pred)
    tp = 0
    for g in gt:
        best = None
        best_d = BOUNDARY_TOL + 1
        for k, p in enumerate(pred):
            if used[k]:
                continue
            d = abs(p - g)
            if d < best_d:
                best, best_d = k, d
        if best is not None and best_d <= BOUNDARY_TOL:
            used[best] = True
            tp += 1
    return tp, len(pred) - tp, len(gt) - tp


def boundary_prf(pred: list[int], gt: list[int]):
    tp, fp, fn = match_boundaries(pred, gt)
    precision = tp / max(tp + fp, 1)
    recall = tp / max(tp + fn, 1)
    f1 = 2 * precision * recall / max(precision + recall, 1e-12)
    return precision, recall, f1
