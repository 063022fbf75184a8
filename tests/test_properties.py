"""Property tests of the correction plan and the PSOLA resynthesis."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_track
from notetune import corrector as C
from psola_reference import reference_shift_audio
from notetune.segmenter import NoteInterval
from notetune.spp import StationaryEstimate

HOP = 256
SR = 22050
PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, database=None)


@st.composite
def notes_on_track(draw, T: int):
    """Non-overlapping notes inside [0, T), some of the gaps left uncovered."""
    cuts = sorted(draw(st.sets(st.integers(0, T), min_size=2, max_size=8)))
    spans = list(zip(cuts[:-1], cuts[1:]))
    keep = draw(st.lists(st.booleans(), min_size=len(spans), max_size=len(spans)))
    return [NoteInterval(a, b) for (a, b), k in zip(spans, keep) if k]


@st.composite
def voiced_track(draw, T: int):
    voiced = np.array(draw(st.lists(st.booleans(), min_size=T, max_size=T)), dtype=np.uint8)
    pitch = np.array(draw(st.lists(st.floats(40.0, 90.0), min_size=T, max_size=T)))
    pitch[voiced == 0] = np.nan
    return make_track(pitch, voiced, sr=SR, hop=HOP)


@st.composite
def plan_inputs(draw):
    T = draw(st.integers(4, 120))
    track = draw(voiced_track(T))
    notes = draw(notes_on_track(T))
    estimates = [
        StationaryEstimate(draw(st.floats(30.0, 100.0)), flagged=draw(st.booleans()))
        for i, n in enumerate(notes)
    ]
    targets = np.array([float(draw(st.integers(0, 127))) for _ in notes])
    return track, notes, estimates, targets


@PROPERTY_SETTINGS
@given(plan_inputs())
def test_build_plan_properties(case):
    track, notes, estimates, targets = case
    plan = C.build_plan(estimates, targets, notes, track)
    steps = plan.deltas / C.DELTA_GRID
    assert np.array_equal(steps, np.round(steps))
    covered = np.zeros(track.n_frames, dtype=bool)
    for i, (note, est) in enumerate(zip(notes, estimates)):
        if est.flagged:
            assert plan.deltas[i] == 0.0
        frames = np.arange(note.start_frame, note.end_frame)
        frames = frames[track.voiced[frames].astype(bool)]
        diff = plan.target_pitch[frames] - track.pitch_semitones[frames]
        assert np.all(diff == -plan.deltas[i])
        covered[frames] = True
    assert np.all(np.isnan(plan.target_pitch[~covered]))


@st.composite
def shift_inputs(draw, zero_deltas: bool):
    n = draw(st.integers(HOP * 4, HOP * 40))
    T = 1 + n // HOP
    track = draw(voiced_track(T))
    notes = draw(notes_on_track(T))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f0 = 440.0 * 2.0 ** ((draw(st.floats(45.0, 80.0)) - 69.0) / 12.0)
    wav = 0.3 * np.sin(2.0 * np.pi * f0 * np.arange(n) / SR) + rng.normal(0.0, 0.01, n)
    targets = np.array([float(draw(st.integers(45, 80))) for _ in notes])
    shifts = np.zeros(len(notes)) if zero_deltas else [draw(st.floats(-4.0, 4.0)) for _ in notes]
    estimates = [
        StationaryEstimate(t + s)
        for i, (note, t, s) in enumerate(zip(notes, targets, shifts))
    ]
    return wav, C.build_plan(estimates, targets, notes, track), track


@PROPERTY_SETTINGS
@given(shift_inputs(zero_deltas=False))
def test_shift_audio_keeps_length_and_leaves_unvoiced_samples(case):
    wav, plan, track = case
    out = C.shift_audio(wav.copy(), plan, track)  # it writes into what it is given
    assert out.shape == wav.shape
    assert np.all(np.isfinite(out))
    covered = np.zeros(track.n_frames, dtype=bool)
    for note in plan.notes:
        covered[note.start_frame : note.end_frame] = True
    frame_voiced = track.voiced & covered
    sample_voiced = frame_voiced[np.minimum(np.arange(len(wav)) // HOP, track.n_frames - 1)]
    assert np.array_equal(out[~sample_voiced], wav[~sample_voiced])


@PROPERTY_SETTINGS
@given(shift_inputs(zero_deltas=True))
def test_shift_audio_zero_plan_returns_input_bytes(case):
    wav, plan, track = case
    assert not plan.deltas.any()
    assert C.shift_audio(wav.copy(), plan, track).tobytes() == wav.tobytes()


@PROPERTY_SETTINGS
@given(shift_inputs(zero_deltas=False))
def test_shift_audio_bytes_match_the_per_grain_reference(case):
    wav, plan, track = case
    assert C.shift_audio(wav.copy(), plan, track).tobytes() == reference_shift_audio(wav, plan, track).tobytes()
