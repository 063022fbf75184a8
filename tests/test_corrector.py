import tracemalloc

import numpy as np
import pytest

import psola_reference
from conftest import make_track
from psola_reference import reference_shift_audio
from notetune import corrector as C
from notetune import datakit as dk
from notetune import features as F
from notetune.segmenter import NoteInterval
from notetune.spp import StationaryEstimate

SR = 22050


def _est(pitch, n, flagged=False):
    return StationaryEstimate(pitch, flagged=flagged)


def test_plan_arithmetic():
    track = make_track(np.full(10, 60.6))
    plan = C.build_plan([_est(60.4, 10)], [60.0], [NoteInterval(0, 10)], track)
    assert plan.deltas[0] == pytest.approx(0.4, abs=1e-4)
    assert plan.target_pitch[0] == pytest.approx(60.2, abs=1e-4)


def test_plan_identity_when_target_equals_estimate():
    track = make_track(np.full(87, 60.0))
    plan = C.build_plan([_est(60.0, 10)], [60.0], [NoteInterval(0, 10)], track)
    assert plan.deltas[0] == 0.0
    wav = np.random.default_rng(0).normal(0, 0.1, SR)
    out = C.shift_audio(wav, plan, track)
    assert np.array_equal(out, wav)


def test_shift_audio_rejects_plan_for_other_frame_count():
    wav = np.random.default_rng(0).normal(0, 0.1, SR)
    # also when every delta is 0 and nothing would be shifted
    for estimate in (60.5, 60.0):
        plan = C.build_plan([_est(estimate, 10)], [60.0], [NoteInterval(0, 10)], make_track(np.full(10, 60.5)))
        with pytest.raises(ValueError, match="10 frames.* 87"):
            C.shift_audio(wav, plan, make_track(np.full(87, 60.5)))


def test_plan_misaligned_inputs_error():
    track = make_track(np.full(10, 60.0))
    with pytest.raises(ValueError):
        C.build_plan([_est(60.0, 10)], [60.0, 61.0], [NoteInterval(0, 10)], track)


def test_plan_flagged_note_gets_zero_delta():
    track = make_track(np.full(10, 60.5))
    plan = C.build_plan([_est(60.5, 10, flagged=True)], [60.0], [NoteInterval(0, 10)], track)
    assert plan.deltas[0] == 0.0


def test_expression_preserved_exactly_pure_offset():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(5, 120))
        pitch = 61.3 + 0.5 * np.sin(np.linspace(0, 6, n)) + rng.normal(0, 0.05, n)
        track = make_track(pitch)
        est = _est(float(pitch.mean()), n)
        target = float(rng.integers(55, 70))
        plan = C.build_plan([est], [target], [NoteInterval(0, n)], track)
        # the plan is built from the track's gridded copy of the sung contour
        assert np.all(np.abs(track.pitch_semitones - pitch) <= 2.0**-33)
        offsets = plan.target_pitch - track.pitch_semitones  # all voiced
        # pure per-note offset, bit-exact: max == min
        assert offsets.max() == offsets.min()
        assert offsets[0] == -plan.deltas[0]
        # demeaned contour is therefore preserved exactly
        demeaned_in = pitch - pitch.mean()
        demeaned_out = plan.target_pitch - plan.target_pitch.mean()
        assert np.allclose(demeaned_in, demeaned_out, atol=1e-9)


def test_pure_offset_exact_across_power_of_two():
    # a contour just below 64 shifted up to 66 lands above 64, where the
    # float64 spacing doubles; every frame must still move by exactly -delta
    n = 64
    pitch = 63.9 + 0.07 * np.sin(np.linspace(0, 5, n)) + 1e-9 * np.arange(n)
    track = make_track(pitch)
    plan = C.build_plan([_est(63.9, n)], [66.0], [NoteInterval(0, n)], track)
    assert plan.deltas[0] == C.quantize_delta(63.9 - 66.0)
    assert np.all(track.pitch_semitones < 64.0) and np.all(plan.target_pitch > 64.0)
    assert np.all(plan.target_pitch - track.pitch_semitones == -plan.deltas[0])
    assert np.all(plan.target_pitch + plan.deltas[0] == track.pitch_semitones)


def test_vibrato_contour_preserved_offset_removed():
    n = 200
    vib = 0.5 * np.sin(np.linspace(0, 20, n))
    pitch = 61.3 + vib
    track = make_track(pitch)
    plan = C.build_plan([_est(61.3, n)], [61.0], [NoteInterval(0, n)], track)
    assert np.allclose(plan.target_pitch, 61.0 + vib, atol=1e-4)


def _tone_track(freq=440.0, dur=2.0):
    t = np.arange(int(SR * dur)) / SR
    wav = sum((0.25 / k) * np.sin(2 * np.pi * freq * k * t) for k in range(1, 6))
    edge = int(0.02 * SR)
    env = np.ones(len(wav))
    env[:edge] = np.linspace(0, 1, edge)
    env[-edge:] = np.linspace(1, 0, edge)
    wav = wav * env
    track = F.extract_track(wav)
    return wav, track


def test_shift_up_one_semitone_retracks_correctly():
    wav, track = _tone_track(440.0)
    notes = [NoteInterval(0, track.n_frames)]
    est = [_est(float(np.nanmean(track.pitch_semitones)), track.n_frames)]
    # delta = -1: target = pitch + 1, audio shifts up to ~466.16 Hz
    plan = C.build_plan(est, [est[0].pitch + 1.0], notes, track)
    out = C.shift_audio(wav, plan, track)
    assert len(out) == len(wav)
    repitch = F.extract_track(out).pitch_semitones[20:-20]
    assert abs(np.nanmean(repitch) - (est[0].pitch + 1.0)) < 0.1


def test_roundtrip_shift_within_10_cents():
    wav, track = _tone_track(330.0)
    notes = [NoteInterval(0, track.n_frames)]
    p0 = float(np.nanmean(track.pitch_semitones[20:-20]))
    est = [_est(p0, track.n_frames)]
    plan_down = C.build_plan(est, [p0 - 1.0], notes, track)  # delta +1, shift down
    mid = C.shift_audio(wav, plan_down, track)
    track_mid = F.extract_track(mid)
    p1 = float(np.nanmean(track_mid.pitch_semitones[20:-20]))
    est_mid = [_est(p1, track_mid.n_frames)]
    plan_up = C.build_plan(est_mid, [p1 + 1.0], [NoteInterval(0, track_mid.n_frames)], track_mid)
    back = C.shift_audio(mid, plan_up, track_mid)
    p2 = float(np.nanmean(F.extract_track(back).pitch_semitones[20:-20]))
    assert abs(p2 - p0) * 100 < 10.0
    assert len(back) == len(wav)


def test_shift_audio_renders_a_target_contour_that_is_not_a_per_note_offset():
    wav, track = _tone_track(220.0)
    T = track.n_frames
    p0 = float(np.nanmean(track.pitch_semitones))
    plan = C.build_plan([_est(p0, T)], [p0 + 1.0], [NoteInterval(0, T)], track)
    # a 0 -> 2 semitone glide over the note, where the note's delta moves it by 1 flat
    plan.target_pitch = np.where(track.voiced, track.pitch_semitones + np.linspace(0.0, 2.0, T), np.nan)
    _assert_renders_within_5_cents(wav, plan, track)


def _assert_renders_within_5_cents(wav, plan, track):
    """The re-tracked output follows `plan.target_pitch` on the voiced frames
    at least 20 frames from either end."""
    T = track.n_frames
    out_pitch = F.extract_track(C.shift_audio(wav, plan, track)).pitch_semitones
    inner = np.zeros(T, dtype=bool)
    inner[20:-20] = True
    frames = inner & np.isfinite(plan.target_pitch) & np.isfinite(out_pitch)
    assert frames.sum() > T // 2
    assert np.max(np.abs(out_pitch[frames] - plan.target_pitch[frames])) * 100.0 < 5.0


def test_shift_audio_renders_the_contour_of_a_plan_without_notes():
    wav, track = _tone_track(220.0)
    none = np.zeros(0)
    target_pitch = np.where(track.voiced, track.pitch_semitones + 1.0, np.nan)
    plan = C.CorrectionPlan(deltas=none, est_pitch=none, targets=none, target_pitch=target_pitch, notes=[])
    _assert_renders_within_5_cents(wav, plan, track)


def test_shift_audio_returns_the_input_when_only_a_note_without_voiced_frames_has_a_delta():
    pitch = np.full(40, np.nan)
    pitch[:20] = 58.0 + 0.2 * np.sin(np.linspace(0, 3, 20))
    track = make_track(pitch)
    notes = [NoteInterval(0, 20), NoteInterval(25, 40)]
    plan = C.build_plan([_est(60.0, 20), _est(61.5, 15)], [60.0, 61.0], notes, track)
    assert plan.deltas.tolist() == [0.0, 0.5]
    wav = np.random.default_rng(0).normal(0, 0.1, 39 * 256 + 100)
    assert C.shift_audio(wav.copy(), plan, track).tobytes() == wav.tobytes()


def test_clamp_warns_and_limits(caplog):
    wav, track = _tone_track(440.0, dur=1.0)
    notes = [NoteInterval(0, track.n_frames)]
    est = [_est(float(np.nanmean(track.pitch_semitones)), track.n_frames)]
    plan = C.build_plan(est, [est[0].pitch - 12.0], notes, track)  # delta = +12
    import logging

    with caplog.at_level(logging.WARNING, logger="notetune.corrector"):
        out = C.shift_audio(wav, plan, track)
    voiced = int(np.count_nonzero(track.voiced))
    assert f"clamping {voiced} frame shift(s) beyond +-3 semitones" in [r.message for r in caplog.records]
    repitch = np.nanmean(F.extract_track(out).pitch_semitones[20:-20])
    # shift limited to 3 semitones, not 12
    assert abs(repitch - (est[0].pitch - 3.0)) < 0.2


def test_verify_plan_rows_match_notes():
    track = make_track(np.full(30, 60.0))
    notes = [NoteInterval(0, 10), NoteInterval(10, 30)]
    ests = [
        StationaryEstimate(60.2),
        StationaryEstimate(59.8),
    ]
    plan = C.build_plan(ests, [60.0, 60.0], notes, track)
    rows = C.verify_plan(ests, plan, track)
    assert len(rows) == len(notes)
    assert rows[0]["residual_cents"] == pytest.approx(20.0, abs=0.01)


def test_plan_sidecar_format(tmp_path):
    track = make_track(np.full(10, 60.0))
    plan = C.build_plan([_est(60.4, 10)], [60.0], [NoteInterval(0, 10)], track)
    path = tmp_path / "plan.tsv"
    C.write_plan_sidecar(path, plan, track)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "note\tstart_sec\tend_sec\tp_hat\tp_tilde\tdelta"
    assert len(lines) == 2


def _edge_take(pitch, delta):
    """A noisy tone under one note over the whole track, shifted by `delta`."""
    T = len(pitch)
    n = (T - 1) * 256 + 100
    rng = np.random.default_rng(0)
    wav = 0.3 * np.sin(2 * np.pi * 196.0 * np.arange(n) / SR) + rng.normal(0, 0.01, n)
    track = make_track(pitch)
    plan = C.build_plan([_est(60.0 + delta, T)], [60.0], [NoteInterval(0, T)], track)
    voiced = track.voiced.astype(bool)[np.minimum(np.arange(n) // 256, T - 1)]
    return wav, plan, track, psola_reference._sample_regions(voiced)


def _assert_reference_bytes(wav, plan, track):
    # shift_audio writes into the samples it is given, so it gets a copy
    assert C.shift_audio(wav.copy(), plan, track).tobytes() == reference_shift_audio(wav, plan, track).tobytes()


def test_psola_region_at_the_first_and_last_sample_matches_reference():
    # at ~46 Hz, shifted up, the grains of the two regions overlap across
    # the one unvoiced frame between them, several deep
    pitch = 30.0 + 0.3 * np.sin(np.linspace(0, 9, 40))
    pitch[15] = np.nan
    wav, plan, track, regions = _edge_take(pitch, -2.5)
    assert regions[0][0] == 0 and regions[-1][1] == len(wav)
    assert regions[1][0] - regions[0][1] < SR / F.semitones_to_hz(np.nanmax(pitch))
    _assert_reference_bytes(wav, plan, track)


def test_psola_region_with_one_mark_matches_reference():
    # one voiced frame of 256 samples at ~62 Hz holds a single period
    pitch = np.full(12, np.nan)
    pitch[5] = 35.0
    wav, plan, track, regions = _edge_take(pitch, -0.4)
    (a, b), = regions
    assert b - a < SR / F.semitones_to_hz(35.0)
    _assert_reference_bytes(wav, plan, track)


def test_psola_clamped_shifts_match_reference():
    pitch = 58.0 + 0.2 * np.sin(np.linspace(0, 5, 30))
    for delta in (-12.0, 12.0):
        _assert_reference_bytes(*_edge_take(pitch, delta)[:3])


def test_psola_on_a_20_s_song_matches_both_references():
    # a rendered song, cut to a length that is not a multiple of the hop,
    # with shifts of both signs, several of them clamped
    wav, ann = dk.synth_song(dk.SynthSpec(seed=7, n_notes=50, tempo_bpm=130.0))
    wav = wav[: len(wav) - len(wav) % 256 - 77]
    assert len(wav) > 20 * SR and len(wav) % 256
    track = F.extract_track(wav)
    notes = [NoteInterval(round(n.onset_sec * SR / 256), round(n.offset_sec * SR / 256)) for n in ann.notes]
    shifts = np.resize([0.7, -1.3, 4.5, -0.2, -5.0, 2.9, 0.0, -3.5], len(notes))
    targets = np.array([float(n.pitch) for n in ann.notes])
    plan = C.build_plan([_est(t + d, 0) for t, d in zip(targets, shifts)], targets, notes, track)
    assert (plan.deltas > C.MAX_SHIFT_SEMITONES).any() and (plan.deltas < -C.MAX_SHIFT_SEMITONES).any()
    out = C.shift_audio(wav.copy(), plan, track).tobytes()
    assert out == reference_shift_audio(wav, plan, track).tobytes()
    assert out == psola_reference.shift_audio(wav, plan, track).tobytes()


def test_psola_groups_across_gaps_below_at_and_above_the_margin_match_both_references():
    # the lowest pitch sets the grain half-length L = 382 and so the group
    # margin 2 * (L + 2) = 768 samples, three frames; unvoiced gaps of one
    # frame (the grains spill into the next region), three (at the margin,
    # one group), four (past it, a new group) and two frames
    low = 69.0 + 12.0 * np.log2(SR / 382.0 / 440.0)
    pitch = low + 0.8 * np.abs(np.sin(np.linspace(0.0, 7.0, 48)))
    pitch[0] = low
    for gap in (np.s_[8:9], np.s_[16:19], np.s_[26:30], np.s_[38:40]):
        pitch[gap] = np.nan
    for delta in (-2.5, 1.7):
        wav, plan, track, regions = _edge_take(pitch, delta)
        L = int(np.round(SR / F.semitones_to_hz(track.pitch_filled)).max())
        margin = 2 * (L + 2)
        assert (L, margin) == (382, 768)
        assert regions[0][0] == 0 and regions[-1][1] == len(wav)
        gaps = [b0 - a1 for (_, a1), (b0, _) in zip(regions, regions[1:])]
        assert gaps == [256, 768, 1024, 512] and gaps[0] < L
        groups = C._region_groups([tuple(map(int, r)) for r in regions], margin)
        assert [len(g) for g in groups] == [3, 2]
        out = C.shift_audio(wav.copy(), plan, track).tobytes()
        assert out == reference_shift_audio(wav, plan, track).tobytes()
        assert out == psola_reference.shift_audio(wav, plan, track).tobytes()


def test_shift_audio_on_a_60_s_take_holds_one_take_long_buffer():
    # 90 notes, each voiced run its own group.  Traced above the input: 32.6
    # MB with take-long grain and weight sums beside a take-long output,
    # 12.5 MB with per-group sums beside it, 1.9 MB in place: the per-group
    # sums and the per-frame tables
    T, hop = 5168, 256
    pitch = 60.0 + 0.3 * np.sin(np.arange(T) / 9.0)
    notes = []
    for a in range(0, T - 57, 57):
        pitch[a + 50 : a + 57] = np.nan
        notes.append(NoteInterval(a, a + 50))
    track = make_track(pitch)
    n = T * hop
    wav = 0.3 * np.sin(2 * np.pi * 261.6 * np.arange(n) / SR)
    before = wav.copy()
    targets = np.full(len(notes), 60.0)
    shifts = np.resize([0.4, -0.7, 1.1], len(notes))
    plan = C.build_plan([_est(60.0 + d, 0) for d in shifts], targets, notes, track)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        out = C.shift_audio(wav, plan, track)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert out is wav and not np.array_equal(out, before)
    assert peak < 0.25 * n * 8, peak / 1e6


@pytest.mark.parametrize("delta", [0.0, 0.6])
def test_shift_audio_returns_the_array_it_was_given(delta):
    wav, plan, track, _regions = _edge_take(58.0 + 0.2 * np.sin(np.linspace(0, 5, 30)), delta)
    before = wav.copy()
    assert C.shift_audio(wav, plan, track) is wav
    assert np.array_equal(wav, before) == (delta == 0.0)
