"""Note-level pitch correction: per-note deltas, target contour, resynthesis.

The correction is a pure per-note offset: delta_i = stationary estimate -
target pitch, and every voiced frame's target is its input pitch minus the
note's delta.  PSOLA renders that per-frame contour, of any shape, and reads
nothing else of a plan.  Deltas are quantized to 2^-13 semitones (about
0.01 cents, far below audibility) and `FrameTrack` holds its pitch on a
2^-32-semitone grid; on these two grids the per-frame subtraction is exact
in float64, also where it crosses a power of two (61.3 -> 66 crosses 64),
so the contour shape is preserved bit-for-bit.  The delta grid alone would
not do: float64 spacing doubles at each power of two.

Audio is shifted with time-domain PSOLA over voiced regions (epoch spacing
from the tracked f0), unvoiced audio passes through, and joins get a 10 ms
equal-power crossfade.  The f0 and the shift ratio are constant over each
hop, so the epochs step on per-frame tables: sample t reads frame t // hop,
exactly the value a per-sample array repeated hop times would hold.  Grains
are overlap-added with `np.add.at` in grain order, so every sample sums its
terms as a one-grain-at-a-time loop would.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .evalkit import note_pitch_curve
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
    deltas: np.ndarray  # per note, semitones: stationary estimate - target
    est_pitch: np.ndarray  # stationary estimates per note
    targets: np.ndarray  # predicted note pitches per note
    target_pitch: np.ndarray  # per frame, the contour to render; NaN where unshifted
    notes: list[NoteInterval]


def build_plan(
    estimates: list[StationaryEstimate],
    targets: np.ndarray,
    notes: list[NoteInterval],
    track: FrameTrack,
) -> CorrectionPlan:
    """delta_i = p_hat_i - p_tilde_i; frame targets = input pitch - delta.

    `target_pitch - track.pitch_semitones` is exactly -delta_i on every
    voiced frame of note i (the later of overlapping notes), because the
    track's pitch grid (see `FrameTrack`) and the delta grid make the
    subtraction exact; it is NaN on every other frame.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if not (len(estimates) == len(targets) == len(notes)):
        raise ValueError(
            f"misaligned inputs: {len(estimates)} estimates, "
            f"{len(targets)} targets, {len(notes)} notes"
        )
    est = np.array([e.pitch for e in estimates], dtype=np.float64)
    deltas = np.array([0.0 if e.flagged else quantize_delta(e.pitch - t) for e, t in zip(estimates, targets)])
    curve = note_pitch_curve(notes, deltas, track.n_frames)
    target_pitch = np.where(track.voiced, track.pitch_semitones - curve, np.nan)
    return CorrectionPlan(
        deltas=deltas,
        est_pitch=est,
        targets=targets,
        target_pitch=target_pitch,
        notes=notes,
    )


# ---- PSOLA ------------------------------------------------------------------

def _frame_regions(voiced: np.ndarray, hop: int, n: int) -> list[tuple[int, int]]:
    """Sample spans [start * hop, min(end * hop, n)) of the runs of voiced frames."""
    edges = np.diff(voiced.astype(np.int8), prepend=0, append=0)
    starts = np.flatnonzero(edges > 0) * hop
    ends = np.minimum(np.flatnonzero(edges < 0) * hop, n)
    return list(zip(starts.tolist(), ends.tolist()))


def _region_groups(regions: list[tuple[int, int]], margin: int) -> list[list[tuple[int, int]]]:
    """Split `regions` (in order) where the gap to the next one exceeds `margin` samples."""
    groups: list[list[tuple[int, int]]] = []
    for a, b in regions:
        if groups and a - groups[-1][-1][1] <= margin:
            groups[-1].append((a, b))
        else:
            groups.append([(a, b)])
    return groups


def _psola_region(wav, out, norm, off, a, b, hop, f0_hz, period, spacing, sr):
    """Overlap-add Hann grains from analysis epochs onto retimed epochs.

    `out` and `norm` hold samples off, off + 1, ... of the take.  `f0_hz`
    (array), `period` and `spacing` (lists) hold one entry per frame; an
    epoch at sample t reads frame int(t) // hop.
    """
    n = len(wav)
    # analysis marks one local period apart, then synthesis positions one
    # local period / ratio apart: two sequential recurrences
    marks = []
    t = float(a)
    while t < b:
        marks.append(t)
        t += period[int(t) // hop]
    if len(marks) < 2:
        out[a - off : b - off] += wav[a:b]
        norm[a - off : b - off] += 1.0
        return
    pos, frames = [], []
    s = marks[0]
    while s < b:
        k = int(s) // hop
        pos.append(s)
        frames.append(k)
        s += spacing[k]
    marks, s = np.asarray(marks), np.asarray(pos)

    # each grain reads at the analysis mark nearest its synthesis position
    j = np.minimum(np.searchsorted(marks, s), len(marks) - 1)
    j -= (j > 0) & (np.abs(marks[j - 1] - s) < np.abs(marks[j] - s))
    mj = np.round(marks[j]).astype(np.int64)
    rs = np.round(s).astype(np.int64)
    L = np.maximum(np.round(sr / f0_hz[frames]).astype(np.int64), 2)
    lo = np.maximum(np.maximum(-L, -mj), -rs)
    hi = np.maximum(np.minimum(np.minimum(L + 1, n - mj), n - rs), lo)

    # grain g covers offsets lo[g]..hi[g]-1 around rs[g] (out) and mj[g] (wav)
    sizes = hi - lo
    k = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes - lo, sizes)
    hann = {x: np.hanning(2 * x + 1) for x in set(L.tolist())}
    bounds = zip(L.tolist(), lo.tolist(), hi.tolist())
    window = np.concatenate([hann[x][l + x : h + x] for x, l, h in bounds])
    dst = np.repeat(rs - off, sizes) + k
    # np.add.at is unbuffered: every sample takes its grains' terms in grain
    # order, the same float additions as adding one grain at a time
    np.add.at(out, dst, wav[np.repeat(mj, sizes) + k] * window)
    np.add.at(norm, dst, window)


def shift_audio(wav: np.ndarray, plan: CorrectionPlan, track: FrameTrack) -> np.ndarray:
    """Render the contour `plan.target_pitch` into `wav`, in place, duration
    preserved; returns `wav`.  Each frame with a finite target moves by its
    target minus its input pitch, clamped per frame to +-MAX_SHIFT_SEMITONES
    (by -delta_i on the voiced frames of note i, in a plan of `build_plan`).
    The clamp warning counts the clamped frames; a plan whose finite frames
    all equal the input pitch returns `wav` untouched, whatever its deltas.

    The epochs step on per-frame tables of period and synthesis spacing,
    which is exact because f0 and ratio are constant over each hop: numpy's
    elementwise `/` and `maximum` round as Python's float operations do, and
    samples past the last frame read the last frame.

    A grain of half-length L around sample r reaches r - L .. r + L, so the
    grains of a region [a, b) stay within L + 1 samples of it.  Regions go
    in groups, split where a gap exceeds 2 * (the take's largest L + 2);
    each group overlap-adds into its own grain and weight sums, which cover
    its regions and L + 2 samples each side.  Only then are its regions
    written, in place, into `wav`, which is returned: a group reads `wav`
    only within L + 2 samples of its regions and writes only inside them,
    so no group reads a sample another has written, and every sample gets
    the bytes a shift into a copy would give.  The caller hands over the
    samples; it holds no take-long buffer beside them.
    """
    sr = track.sample_rate
    hop = track.hop
    n = len(wav)
    T = track.n_frames
    if len(plan.target_pitch) != T:
        raise ValueError(f"plan covers {len(plan.target_pitch)} frames but the track has {T}")

    shifted = np.isfinite(plan.target_pitch)
    shift = plan.target_pitch[shifted] - track.pitch_semitones[shifted]
    if not shift.any():
        return wav
    too_big = np.abs(shift) > MAX_SHIFT_SEMITONES
    if too_big.any():
        log.warning(
            "clamping %d frame shift(s) beyond +-%.0f semitones",
            int(too_big.sum()),
            MAX_SHIFT_SEMITONES,
        )
    frame_ratio = np.ones(T)
    frame_ratio[shifted] = np.exp2(np.clip(shift, -MAX_SHIFT_SEMITONES, MAX_SHIFT_SEMITONES) / 12.0)

    # one entry per frame that a sample reaches; past the track, the last frame
    frames = np.minimum(np.arange(max(T, -(-n // hop))), T - 1)
    f0 = semitones_to_hz(track.pitch_filled[frames])
    period = np.maximum(sr / f0, 2.0).tolist()
    spacing = (sr / f0 / frame_ratio[frames]).tolist()
    reach = int(np.maximum(np.round(sr / f0), 2).max()) + 2

    regions = [(a, b) for a, b in _frame_regions(shifted[frames], hop, n) if b - a > 32]
    fade = max(int(CROSSFADE_SEC * sr), 8)
    theta = 0.5 * np.pi * (np.arange(fade) + 1) / (fade + 1)
    win_in, win_out = np.sin(theta), np.cos(theta)
    for group in _region_groups(regions, 2 * reach):
        off = max(group[0][0] - reach, 0)
        synth = np.zeros(min(group[-1][1] + reach, n) - off)
        norm = np.zeros_like(synth)
        for a, b in group:
            _psola_region(wav, synth, norm, off, a, b, hop, f0, period, spacing, sr)
        for a, b in group:
            seg = synth[a - off : b - off] / np.maximum(norm[a - off : b - off], 1e-3)
            low = norm[a - off : b - off] < 0.25
            seg[low] = wav[a:b][low]
            f = min(fade, (b - a) // 2)
            if f > 0:  # crossfades of disjoint ends: seg * win_in + wav * win_out
                seg[:f] *= win_in[:f]
                seg[:f] += wav[a : a + f] * win_out[:f]
                seg[-f:] *= win_in[:f][::-1]
                seg[-f:] += wav[b - f : b] * win_out[:f][::-1]
            wav[a:b] = seg
    return wav


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


def write_residuals(path, rows: list[dict]):
    """Structured-text dump of `verify_plan` rows: target, corrected pitch, residual."""
    lines = ["note\ttarget\tcorrected_pitch\tresidual_cents"]
    for r in rows:
        lines.append(f"{r['note']}\t{r['target']:.4f}\t{r['corrected_pitch']:.4f}\t{r['residual_cents']:.2f}")
    Path(path).write_text("\n".join(lines) + "\n")
