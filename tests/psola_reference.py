"""Reference PSOLA paths that `corrector.shift_audio` must match byte for byte.

`_sample_regions`, `_psola_region` and `shift_audio` are the per-sample form
that stepped its epochs on arrays of one f0 and one ratio per sample, kept
verbatim but for reading its frame -> note map from `_note_map`, since a
plan no longer carries one, and for its early return, which follows the
contour as `corrector.shift_audio` does: the input comes back untouched
when no finite frame of `plan.target_pitch` differs from the input pitch,
also when a note without voiced frames has a nonzero delta.
`psola_region` is the per-grain overlap-add that the batched
`_psola_region` replaced, also verbatim.
"""

from unittest import mock

import numpy as np

from notetune.corrector import CROSSFADE_SEC, MAX_SHIFT_SEMITONES, CorrectionPlan, log
from notetune.features import FrameTrack, semitones_to_hz


def _note_map(plan: CorrectionPlan) -> np.ndarray:
    """Frame -> index of the last note of `plan.notes` covering it, -1
    outside notes, over the plan's `len(plan.target_pitch)` frames."""
    note_map = np.full(len(plan.target_pitch), -1, dtype=np.int64)
    for i, note in enumerate(plan.notes):
        note_map[note.start_frame : note.end_frame] = i
    return note_map


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
    note_map = _note_map(plan)

    deltas = plan.deltas.copy()
    too_big = np.abs(deltas) > MAX_SHIFT_SEMITONES
    if too_big.any():
        log.warning(
            "clamping %d note shift(s) beyond +-%.0f semitones",
            int(too_big.sum()),
            MAX_SHIFT_SEMITONES,
        )
        deltas = np.clip(deltas, -MAX_SHIFT_SEMITONES, MAX_SHIFT_SEMITONES)
    if len(note_map) != track.n_frames:
        raise ValueError(
            f"plan covers {len(note_map)} frames but the track has {track.n_frames}"
        )
    finite = np.isfinite(plan.target_pitch)
    if not np.any(plan.target_pitch[finite] != track.pitch_semitones[finite]):
        return wav.copy()

    # frame-level ratio, expanded to samples
    frame_ratio = np.ones(track.n_frames)
    covered = note_map >= 0
    frame_ratio[covered] = np.exp2(-deltas[note_map[covered]] / 12.0)

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


def psola_region(wav, out, norm, a, b, f0_hz, ratio, sr):
    """Overlap-add Hann grains from analysis epochs onto retimed epochs."""
    n = len(wav)
    # analysis marks spaced one local period apart
    marks = []
    t = float(a)
    while t < b:
        marks.append(t)
        period = sr / f0_hz[min(int(t), b - 1) - a]
        t += max(period, 2.0)
    if len(marks) < 2:
        out[a:b] += wav[a:b]
        norm[a:b] += 1.0
        return
    marks = np.asarray(marks)
    s = marks[0]
    while s < b:
        j = int(np.clip(np.searchsorted(marks, s), 0, len(marks) - 1))
        if j > 0 and abs(marks[j - 1] - s) < abs(marks[j] - s):
            j -= 1
        mj = int(round(marks[j]))
        local = min(int(s), b - 1) - a
        period = sr / f0_hz[local]
        L = max(int(round(period)), 2)
        rs = int(round(s))
        lo = max(-L, -mj, -rs)
        hi = min(L + 1, n - mj, n - rs)
        if hi > lo:
            window = np.hanning(2 * L + 1)[lo + L : hi + L]
            out[rs + lo : rs + hi] += wav[mj + lo : mj + hi] * window
            norm[rs + lo : rs + hi] += window
        s += period / ratio[local]


def reference_shift_audio(wav, plan, track):
    """The per-sample `shift_audio` above with the per-grain overlap-add."""
    with mock.patch.dict(globals(), _psola_region=psola_region):
        return shift_audio(wav, plan, track)
