"""Note-level pitch correction: per-note deltas, target curve, resynthesis.

The correction is a pure per-note offset: delta_i = stationary estimate -
target pitch, and every voiced frame's target is its input pitch minus the
note's delta.  Deltas are quantized to 2^-13 semitones (about 0.01 cents,
far below audibility) and `FrameTrack` holds its pitch on a 2^-32-semitone
grid; on these two grids the per-frame subtraction is exact in float64,
also where it crosses a power of two (61.3 -> 66 crosses 64), so the
contour shape is preserved bit-for-bit.  The delta grid alone would not
do: float64 spacing doubles at each power of two.

Audio is shifted with time-domain PSOLA over voiced regions (epoch spacing
from the tracked f0), unvoiced audio passes through, and joins get a 10 ms
equal-power crossfade.  Grains are overlap-added with `np.add.at` in grain
order, so every sample sums its terms as a one-grain-at-a-time loop would.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .features import FrameTrack, semitones_to_hz
from .segmenter import NoteInterval
from .spp import StationaryEstimate

log = logging.getLogger(__name__)

DELTA_GRID = 2.0**-13
MAX_SHIFT_SEMITONES = 3.0
CROSSFADE_SEC = 0.010


def quantize_delta(delta: float) -> float:
    return round(delta / DELTA_GRID) * DELTA_GRID


@dataclass
class CorrectionPlan:
    deltas: np.ndarray  # per note, semitones
    est_pitch: np.ndarray  # stationary estimates per note
    targets: np.ndarray  # predicted note pitches per note
    target_pitch: np.ndarray  # per frame, NaN where no voiced target
    note_map: np.ndarray  # frame -> note index, -1 outside notes
    notes: list[NoteInterval]


def build_plan(
    estimates: list[StationaryEstimate],
    targets: np.ndarray,
    notes: list[NoteInterval],
    track: FrameTrack,
) -> CorrectionPlan:
    """delta_i = p_hat_i - p_tilde_i; frame targets = input pitch - delta.

    `target_pitch - track.pitch_semitones` is exactly -delta_i on every
    voiced frame of note i, because the track's pitch grid (see
    `FrameTrack`) and the delta grid make the subtraction exact.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if not (len(estimates) == len(targets) == len(notes)):
        raise ValueError(
            f"misaligned inputs: {len(estimates)} estimates, "
            f"{len(targets)} targets, {len(notes)} notes"
        )
    T = track.n_frames
    deltas = np.zeros(len(notes))
    est = np.zeros(len(notes))
    note_map = np.full(T, -1, dtype=np.int64)
    target_pitch = np.full(T, np.nan)
    voiced = track.voiced.astype(bool)
    for i, (e, tgt, note) in enumerate(zip(estimates, targets, notes)):
        est[i] = e.pitch
        deltas[i] = 0.0 if e.flagged else quantize_delta(e.pitch - tgt)
        a, b = note.start_frame, max(note.start_frame, min(note.end_frame, T))
        note_map[a:b] = i
        sel = np.zeros(T, dtype=bool)
        sel[a:b] = voiced[a:b]
        target_pitch[sel] = track.pitch_semitones[sel] - deltas[i]
    return CorrectionPlan(
        deltas=deltas,
        est_pitch=est,
        targets=targets,
        target_pitch=target_pitch,
        note_map=note_map,
        notes=notes,
    )


# ---- PSOLA ------------------------------------------------------------------

def _sample_regions(mask: np.ndarray) -> list[tuple[int, int]]:
    idx = np.nonzero(mask)[0]
    if len(idx) == 0:
        return []
    jumps = np.nonzero(np.diff(idx) > 1)[0]
    starts = np.concatenate([[idx[0]], idx[jumps + 1]])
    ends = np.concatenate([idx[jumps] + 1, [idx[-1] + 1]])
    return list(zip(starts, ends))


def _psola_region(wav, out, norm, a, b, f0_hz, ratio, sr):
    """Overlap-add Hann grains from analysis epochs onto retimed epochs."""
    n = len(wav)
    f0, r = f0_hz.tolist(), ratio.tolist()
    # analysis marks one local period apart, then synthesis positions one
    # local period / ratio apart: two sequential recurrences
    marks = []
    t = float(a)
    while t < b:
        marks.append(t)
        t += max(sr / f0[min(int(t), b - 1) - a], 2.0)
    if len(marks) < 2:
        out[a:b] += wav[a:b]
        norm[a:b] += 1.0
        return
    pos, local = [], []
    s = marks[0]
    while s < b:
        i = min(int(s), b - 1) - a
        pos.append(s)
        local.append(i)
        s += sr / f0[i] / r[i]
    marks, s, local = np.asarray(marks), np.asarray(pos), np.asarray(local)

    # each grain reads at the analysis mark nearest its synthesis position
    j = np.minimum(np.searchsorted(marks, s), len(marks) - 1)
    j -= (j > 0) & (np.abs(marks[j - 1] - s) < np.abs(marks[j] - s))
    mj = np.round(marks[j]).astype(np.int64)
    rs = np.round(s).astype(np.int64)
    L = np.maximum(np.round(sr / f0_hz[local]).astype(np.int64), 2)
    lo = np.maximum(np.maximum(-L, -mj), -rs)
    hi = np.maximum(np.minimum(np.minimum(L + 1, n - mj), n - rs), lo)

    # grain g covers offsets lo[g]..hi[g]-1 around rs[g] (out) and mj[g] (wav)
    sizes = hi - lo
    k = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes - lo, sizes)
    hann = {x: np.hanning(2 * x + 1) for x in set(L.tolist())}
    bounds = zip(L.tolist(), lo.tolist(), hi.tolist())
    window = np.concatenate([hann[x][l + x : h + x] for x, l, h in bounds])
    dst = np.repeat(rs, sizes) + k
    # np.add.at is unbuffered: every sample takes its grains' terms in grain
    # order, the same float additions as adding one grain at a time
    np.add.at(out, dst, wav[np.repeat(mj, sizes) + k] * window)
    np.add.at(norm, dst, window)


def shift_audio(wav: np.ndarray, plan: CorrectionPlan, track: FrameTrack) -> np.ndarray:
    """Per-note pitch shift by 2^(-delta/12), duration preserved."""
    sr = track.sample_rate
    hop = track.hop
    n = len(wav)

    deltas = plan.deltas.copy()
    too_big = np.abs(deltas) > MAX_SHIFT_SEMITONES
    if too_big.any():
        log.warning(
            "clamping %d note shift(s) beyond +-%.0f semitones",
            int(too_big.sum()),
            MAX_SHIFT_SEMITONES,
        )
        deltas = np.clip(deltas, -MAX_SHIFT_SEMITONES, MAX_SHIFT_SEMITONES)
    if not deltas.any():
        return wav.copy()
    if len(plan.note_map) != track.n_frames:
        raise ValueError(
            f"plan covers {len(plan.note_map)} frames but the track has {track.n_frames}"
        )

    # frame-level ratio, expanded to samples
    frame_ratio = np.ones(track.n_frames)
    covered = plan.note_map >= 0
    frame_ratio[covered] = np.exp2(-deltas[plan.note_map[covered]] / 12.0)

    frame_voiced = track.voiced.astype(bool) & covered
    sample_idx = np.minimum(np.arange(n) // hop, track.n_frames - 1)
    sample_voiced = frame_voiced[sample_idx]
    sample_ratio = frame_ratio[sample_idx]
    sample_f0 = semitones_to_hz(track.pitch_filled[sample_idx])

    synth = np.zeros(n)
    norm = np.zeros(n)
    regions = [(a, b) for a, b in _sample_regions(sample_voiced) if b - a > 32]
    for a, b in regions:
        _psola_region(wav, synth, norm, a, b, sample_f0[a:b], sample_ratio[a:b], sr)

    out = wav.copy()
    fade = max(int(CROSSFADE_SEC * sr), 8)
    theta = 0.5 * np.pi * (np.arange(fade) + 1) / (fade + 1)
    win_in, win_out = np.sin(theta), np.cos(theta)
    for a, b in regions:
        seg = synth[a:b] / np.maximum(norm[a:b], 1e-3)
        low = norm[a:b] < 0.25
        seg[low] = wav[a:b][low]
        out[a:b] = seg
        f = min(fade, (b - a) // 2)
        if f > 0:
            out[a : a + f] = seg[:f] * win_in[:f] + wav[a : a + f] * win_out[:f]
            out[b - f : b] = seg[-f:] * win_in[:f][::-1] + wav[b - f : b] * win_out[:f][::-1]
    return out


# ---- verification ---------------------------------------------------------------

def verify_plan(
    corrected_estimates: list[StationaryEstimate],
    plan: CorrectionPlan,
    track: FrameTrack,
) -> list[dict]:
    """Per-note residuals |corrected stationary pitch - target| in cents."""
    rows = []
    for i, (note, est, target) in enumerate(zip(plan.notes, corrected_estimates, plan.targets)):
        rows.append(
            {
                "note": i,
                "start_sec": float(track.frame_time(note.start_frame)),
                "end_sec": float(track.frame_time(note.end_frame)),
                "target": float(target),
                "corrected_pitch": float(est.pitch),
                "residual_cents": float(abs(est.pitch - target) * 100.0),
                "flagged": bool(est.flagged),
            }
        )
    return rows


def write_plan_sidecar(path, plan: CorrectionPlan, track: FrameTrack):
    """Structured-text plan dump: note span, estimate, target, delta."""
    lines = ["note\tstart_sec\tend_sec\tp_hat\tp_tilde\tdelta"]
    for i, note in enumerate(plan.notes):
        lines.append(
            f"{i}\t{track.frame_time(note.start_frame):.4f}"
            f"\t{track.frame_time(note.end_frame):.4f}"
            f"\t{plan.est_pitch[i]:.4f}\t{plan.targets[i]:.4f}\t{plan.deltas[i]:.6f}"
        )
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n")
