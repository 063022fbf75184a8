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
are overlap-added with `np.add.at` in grain order, in batches of about
WAV_BLOCK samples, so every sample sums its terms as a one-grain-at-a-time
loop would.  `shifted_blocks` reads the take, an array or a
`features.WavReader`, forward as the grains reach it and gives each
corrected sample once no grain to come touches it, in order; so no array
as long as the take, or as a voiced region, is needed.  `shift_audio`
writes them into an array in place.
"""

from __future__ import annotations

import logging
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .evalkit import note_pitch_curve
from .features import WAV_BLOCK, FrameTrack, semitones_to_hz
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


def _grains(a, b, n, hop, f0_hz, period, spacing, sr):
    """The Hann grains of the voiced region [a, b) of a take of n samples,
    in order: for grain g, its synthesis position rs[g], the analysis mark
    mj[g] it reads at, its half-length L[g] and its offsets lo[g]..hi[g]-1
    around both.  None for a region of fewer than two analysis marks.

    `f0_hz` (array), `period` and `spacing` (lists) hold one entry per
    frame; an epoch at sample t reads frame int(t) // hop.  rs and mj never
    decrease, and every grain touches only samples within L + 1 of [a, b).
    """
    # analysis marks one local period apart, then synthesis positions one
    # local period / ratio apart: two sequential recurrences
    marks = []
    t = float(a)
    while t < b:
        marks.append(t)
        t += period[int(t) // hop]
    if len(marks) < 2:
        return None
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
    return rs, mj, L, lo, hi


class _Overlap:
    """The input samples `x` and the grain and weight sums `synth` and `norm`
    of samples lo, lo + 1, ... of the take `wav`: read from `wav` forward as
    the grains reach them, and dropped from the front once no grain to come
    touches them and they are given."""

    def __init__(self, wav):
        self.wav, self.lo = wav, 0
        self.x = self.synth = self.norm = np.zeros(0)

    def extend(self, hi: int):
        end = self.lo + len(self.x)
        if hi > end:
            self.x = np.concatenate([self.x, self.wav[end:hi]])
            self.synth = np.concatenate([self.synth, np.zeros(hi - end)])
            self.norm = np.concatenate([self.norm, np.zeros(hi - end)])

    def drop(self, lo: int):
        """Forget the samples before `lo`; past the end, start empty at `lo`."""
        if lo > self.lo:
            k = min(lo - self.lo, len(self.x))
            self.x, self.synth, self.norm = (v[k:].copy() for v in (self.x, self.synth, self.norm))
            self.lo = lo

    def add_grains(self, rs, mj, L, lo, hi, hann):
        """Overlap-add the grains given (consecutive ones, about WAV_BLOCK
        samples of them): grain g covers offsets lo[g]..hi[g]-1 around rs[g]
        (synth, norm) and mj[g] (x)."""
        self.extend(int(max((rs + hi).max(), (mj + hi).max())))
        size = hi - lo
        k = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size - lo, size)
        window = np.concatenate([hann[w][l + w : e + w] for w, l, e in zip(L.tolist(), lo.tolist(), hi.tolist())])
        dst = np.repeat(rs - self.lo, size) + k
        # np.add.at is unbuffered: every sample takes its grains' terms in
        # grain order, the same float additions as adding one grain at a
        # time, and so do consecutive batches
        np.add.at(self.synth, dst, self.x[np.repeat(mj - self.lo, size) + k] * window)
        np.add.at(self.norm, dst, window)


def shifted_blocks(wav, plan: CorrectionPlan, track: FrameTrack) -> Iterator[np.ndarray]:
    """The samples of `wav` (an array or a `features.WavReader`) with the
    contour `plan.target_pitch` rendered, duration preserved, as consecutive
    arrays from the first sample to the last.  Each frame with a finite
    target moves by its target minus its input pitch, clamped per frame to
    +-MAX_SHIFT_SEMITONES (by -delta_i on the voiced frames of note i, in a
    plan of `build_plan`).  The clamp warning counts the clamped frames; a
    plan whose finite frames all equal the input pitch gives the samples of
    `wav` untouched, whatever its deltas.

    The epochs step on per-frame tables of period and synthesis spacing,
    which is exact because f0 and ratio are constant over each hop: numpy's
    elementwise `/` and `maximum` round as Python's float operations do, and
    samples past the last frame read the last frame.

    The grains of the voiced regions are overlap-added in order, in batches
    of about WAV_BLOCK samples, into an `_Overlap` that reads `wav` forward
    as the grains reach it.  A grain of half-length L around sample r
    touches r - L .. r + L, and r and the analysis mark it reads at never
    decrease; so once a batch is added, every sample before the next
    grain's position less (the take's largest L + 2) is final.  Those
    samples are given (a region's rendered samples, or the unshifted ones
    between regions WAV_BLOCK at a time, read when they are due) and
    dropped.  So the memory does not grow with the take or with a voiced
    region, only with the per-frame tables and the per-grain arrays of one
    region; and `wav` may be written with each block as it comes
    (`shift_audio` does): every sample is read before the block that holds
    it is given.
    """
    sr = track.sample_rate
    hop = track.hop
    n = len(wav)
    T = track.n_frames
    if len(plan.target_pitch) != T:
        raise ValueError(f"plan covers {len(plan.target_pitch)} frames but the track has {T}")

    shifted = np.isfinite(plan.target_pitch)
    shift = plan.target_pitch[shifted] - track.pitch_semitones[shifted]
    regions = []
    if shift.any():
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

    acc = _Overlap(wav)
    pos = 0  # the first sample not yet given
    given = 0  # regions[given]: the first region not wholly given

    def give(stop: int) -> Iterator[np.ndarray]:
        """The samples pos..stop-1, each final: a region's rendered, the rest as read."""
        nonlocal pos, given
        while pos < stop:
            if given == len(regions) or pos < regions[given][0]:
                end = min(stop, regions[given][0] if given < len(regions) else n)
                yield from _blocks(wav, pos, end)
                pos = end
                continue
            a, b = regions[given]
            end = min(stop, b)
            acc.extend(end)
            i, j = pos - acc.lo, end - acc.lo
            x, norm = acc.x[i:j], acc.norm[i:j]
            seg = acc.synth[i:j] / np.maximum(norm, 1e-3)
            low = norm < 0.25
            seg[low] = x[low]
            # crossfades of the region's disjoint ends: seg * win_in + wav * win_out,
            # the weights running up over its first f samples, down over its last f
            f = min(fade, (b - a) // 2)
            h = min(end, a + f)
            if pos < h:
                seg[: h - pos] *= win_in[pos - a : h - a]
                seg[: h - pos] += x[: h - pos] * win_out[pos - a : h - a]
            t = max(pos, b - f)
            if t < end:
                seg[t - pos :] *= win_in[b - end : b - t][::-1]
                seg[t - pos :] += x[t - pos :] * win_out[b - end : b - t][::-1]
            yield seg
            pos = end
            given += end == b

    for a, b in regions:
        # no grain of this region or a later one touches a sample before a - reach
        yield from give(a - reach)
        acc.drop(a - reach)
        grains = _grains(a, b, n, hop, f0, period, spacing, sr)
        if grains is None:  # the region passes through, with weight 1
            acc.extend(b)
            acc.synth[a - acc.lo : b - acc.lo] += acc.x[a - acc.lo : b - acc.lo]
            acc.norm[a - acc.lo : b - acc.lo] += 1.0
            continue
        rs, mj, L, lo, hi = grains
        sizes = hi - lo
        ends = np.cumsum(sizes)
        hann = {w: np.hanning(2 * w + 1) for w in set(L.tolist())}
        g = 0
        while g < len(sizes):
            h = max(int(np.searchsorted(ends, ends[g] - sizes[g] + WAV_BLOCK, side="right")), g + 1)
            acc.add_grains(rs[g:h], mj[g:h], L[g:h], lo[g:h], hi[g:h], hann)
            g = h
            if g < len(sizes):
                yield from give(int(rs[g]) - reach)
                acc.drop(int(min(rs[g], mj[g])) - reach)
    yield from give(n)


def _blocks(wav, a: int, b: int) -> Iterator[np.ndarray]:
    """Samples a..b-1 of `wav`, WAV_BLOCK at a time, each read when it is due."""
    for lo in range(a, b, WAV_BLOCK):
        yield wav[lo : min(lo + WAV_BLOCK, b)]


def shift_audio(wav: np.ndarray, plan: CorrectionPlan, track: FrameTrack) -> np.ndarray:
    """Render the contour `plan.target_pitch` into `wav`, in place, and return
    `wav`: each block of `shifted_blocks` is written over the samples it
    replaces as it comes, which gives every sample the bytes a shift into a
    copy would give.  The caller hands over the samples; it holds no
    take-long buffer beside them."""
    pos = 0
    for block in shifted_blocks(wav, plan, track):
        wav[pos : pos + len(block)] = block
        pos += len(block)
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
