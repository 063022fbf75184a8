"""Learnable augmentation: autoregressive note-wise pitch-error generation.

A 2-layer GRU regresses each note's pitch error from (note pitch, duration,
previous error); generation rolls the model forward on its own noised
predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nncore as nn
from .frontend import PITCH_CENTER, PITCH_SCALE

ERROR_CLAMP = 3.0  # semitones


@dataclass
class DetunerConfig:
    hidden: int = 64
    seed: int = 0
    min_notes: int = 200


class Detuner(nn.Module):
    def __init__(self, cfg: DetunerConfig):
        self.cfg = cfg
        rng = nn.init_rng(cfg.seed + 17)
        self.gru1 = nn.GRU(rng, 3, cfg.hidden)
        self.gru2 = nn.GRU(rng, cfg.hidden, cfg.hidden)
        self.out = nn.Linear(rng, cfg.hidden, 1)

    def forward(self, x) -> nn.Tensor:
        """[B, N, 3] note features -> predicted errors [B, N]."""
        h = self.gru2(self.gru1(x if isinstance(x, nn.Tensor) else nn.Tensor(x)))
        y = self.out(h)
        B, N, _ = y.shape
        return y.reshape((B, N))


def note_features(pitches: np.ndarray, dur_beats: np.ndarray, prev_errors: np.ndarray) -> np.ndarray:
    """Normalized per-note inputs: centered pitch, log duration, previous error."""
    p = (np.asarray(pitches, dtype=np.float64) - PITCH_CENTER) / PITCH_SCALE
    d = np.log(np.maximum(np.asarray(dur_beats, dtype=np.float64), 1e-3))
    e = np.asarray(prev_errors, dtype=np.float64)
    return np.stack([p, d, e], axis=-1)


def teacher_inputs(pitches, dur_beats, errors) -> np.ndarray:
    prev = np.concatenate([[0.0], np.asarray(errors)[:-1]])
    return note_features(pitches, dur_beats, prev)


# ---- stateful rollout (plain numpy; no gradients needed) -----------------------

def generate_errors(
    model: Detuner,
    sigma_e: float,
    pitches: np.ndarray,
    dur_beats: np.ndarray,
    seed: int,
) -> np.ndarray:
    """Autoregressive rollout: each step's prediction is perturbed by
    Gaussian noise with the training-residual std and fed back; errors are
    clamped to +-3 semitones."""
    rng = np.random.default_rng(seed)
    H = model.cfg.hidden
    h1 = np.zeros(H)
    h2 = np.zeros(H)
    g1, g2, out = model.gru1, model.gru2, model.out
    prev = 0.0
    errors = np.empty(len(pitches))
    for i in range(len(pitches)):
        x = note_features(pitches[i : i + 1], dur_beats[i : i + 1], [prev])[0]
        h1 = nn.gru_cell(x @ g1.w_ih.data + g1.b_ih.data, h1, g1.w_hh.data, g1.b_hh.data)[0]
        h2 = nn.gru_cell(h1 @ g2.w_ih.data + g2.b_ih.data, h2, g2.w_hh.data, g2.b_hh.data)[0]
        pred = float(h2 @ out.w.data[:, 0] + out.b.data[0])
        err = pred + rng.normal(0.0, sigma_e) if sigma_e > 0 else pred
        err = float(np.clip(err, -ERROR_CLAMP, ERROR_CLAMP))
        errors[i] = err
        prev = err
    return errors


# ---- training --------------------------------------------------------------

@dataclass
class DetunerTrainResult:
    model: Detuner
    sigma_e: float
    losses: list


def train_detuner(
    sequences: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    cfg: DetunerConfig,
    steps: int,
    batch_size: int,
    lr: float,
) -> DetunerTrainResult:
    """Teacher-forced MSE regression on (pitches, dur_beats, errors) sequences."""
    n_notes = sum(len(s[2]) for s in sequences)
    if n_notes < cfg.min_notes:
        raise ValueError(
            f"refusing to train the detuner on {n_notes} notes (< {cfg.min_notes})"
        )
    model = Detuner(cfg)
    opt = nn.AdamW(model.params(), lr, steps, min(50, steps // 10))
    rng = np.random.default_rng(cfg.seed + 23)
    max_len = max(len(s[2]) for s in sequences)
    losses = []
    for step in range(steps):
        idx = rng.integers(0, len(sequences), size=batch_size)
        x = np.zeros((batch_size, max_len, 3))
        y = np.zeros((batch_size, max_len))
        m = np.zeros((batch_size, max_len))
        for k, j in enumerate(idx):
            pitches, durs, errs = sequences[j]
            L = len(errs)
            x[k, :L] = teacher_inputs(pitches, durs, errs)
            y[k, :L] = errs
            m[k, :L] = 1.0
        pred = model.forward(x)
        losses.append(nn.train_step((((pred - y) ** 2) * m).sum() / m.sum(), opt))
    # residual std over the whole training set, teacher-forced
    residuals = []
    with nn.no_grad():
        for pitches, durs, errs in sequences:
            pred = model.forward(teacher_inputs(pitches, durs, errs)[None]).data[0]
            residuals.append(pred - errs)
    sigma_e = float(np.concatenate(residuals).std())
    return DetunerTrainResult(model=model, sigma_e=sigma_e, losses=losses)
