import json

import numpy as np
import pytest

from conftest import make_track
from midi_writer import write_midi
from notetune import datakit as dk
from notetune import features as F
from notetune import midifile
from notetune import spp as sp
from notetune.segmenter import NoteInterval
from notetune.workflow import SongData


def note_pitch_error(vals, gt_pitch):
    """|trimmed-mean estimate - gt_pitch| of one note whose frames are all voiced."""
    (est,) = sp.aggregate_trimmed_mean(make_track(vals), [NoteInterval(0, len(vals))])
    assert not est.flagged
    return abs(est.pitch - gt_pitch)


def test_note_pitch_error_trimmed_mean_hand_case():
    vals = np.array([59.0, 60.0, 60.0, 60.0, 65.0])
    assert note_pitch_error(vals, 60.0) == pytest.approx(0.0)


def test_note_pitch_error_constant_offset():
    vals = np.full(20, 60.5)
    assert note_pitch_error(vals, 60.0) == pytest.approx(0.5)


def test_note_pitch_error_outlier_robustness():
    flat = np.full(30, 61.0)
    base = note_pitch_error(flat, 61.0)
    spiked = flat.copy()
    spiked[13] = 73.0
    assert abs(note_pitch_error(spiked, 61.0) - base) < 0.01


def test_note_pitch_error_short_note_plain_mean():
    assert note_pitch_error(np.array([60.0, 62.0]), 60.0) == pytest.approx(1.0)


def test_trimmed_mean_flags_a_note_without_voiced_frames():
    track = make_track(np.array([60.0, 60.0, np.nan, np.nan, 62.0]))
    ests = sp.aggregate_trimmed_mean(track, [NoteInterval(0, 2), NoteInterval(2, 4)])
    assert [e.flagged for e in ests] == [False, True]
    assert ests[0].pitch == 60.0


def note_error(track, song):
    """Mean |trimmed-mean estimate - intended pitch| over the song's
    unflagged notes, as `stage_extract` scores it."""
    ests = sp.aggregate_trimmed_mean(track, song.notes)
    return np.mean([abs(e.pitch - p) for e, p in zip(ests, song.pitches) if not e.flagged])


def test_split_dataset_partition_sizes():
    errors = {f"s{i:03d}": i * 0.01 for i in range(100)}
    split = dk.split_dataset(errors, seed=1)
    subsets = {}
    for sid, (subset, role) in split.items():
        subsets.setdefault(subset, []).append(sid)
    assert len(subsets["in_tune"]) == 10
    assert len(subsets["moderate"]) == 80
    assert len(subsets["high"]) == 10
    roles = [split[s][1] for s in subsets["moderate"]]
    assert roles.count("train") == 64 and roles.count("val") == 8 and roles.count("test") == 8


def test_split_dataset_rank_monotonicity():
    rng = np.random.default_rng(2)
    errors = {f"s{i}": float(rng.uniform(0, 1)) for i in range(60)}
    split = dk.split_dataset(errors, seed=3)
    max_in = max(errors[s] for s, (g, _) in split.items() if g == "in_tune")
    min_mod = min(errors[s] for s, (g, _) in split.items() if g == "moderate")
    max_mod = max(errors[s] for s, (g, _) in split.items() if g == "moderate")
    min_high = min(errors[s] for s, (g, _) in split.items() if g == "high")
    assert max_in <= min_mod <= max_mod <= min_high


def test_split_dataset_deterministic_and_minimum():
    errors = {f"s{i}": i / 50 for i in range(50)}
    assert dk.split_dataset(errors, seed=7) == dk.split_dataset(errors, seed=7)
    assert dk.split_dataset(errors, seed=7) != dk.split_dataset(errors, seed=8)
    with pytest.raises(ValueError):
        dk.split_dataset({"a": 0.1}, seed=0)


def test_synth_song_bookkeeping(intune_song):
    _wav, ann, track = intune_song
    # notes sorted, non-overlapping, valid pitches (validated on construction)
    dk.validate_notes(ann.notes)
    # sung pitch equals intended for an in-tune spec
    for n in ann.notes:
        assert n.sung_pitch == pytest.approx(float(n.pitch))


def test_synth_song_boundaries_match_audio_within_one_frame(intune_song):
    wav, ann, track = intune_song
    hop = track.hop
    env = np.abs(wav)
    for note in ann.notes[:12]:
        onset_sample = int(round(note.onset_sec * track.sample_rate))
        # audio is silent just before the onset's attack and loud after
        before = env[max(onset_sample - hop, 0) : max(onset_sample - hop // 2, 1)].max()
        after = env[onset_sample + hop : onset_sample + 4 * hop].max()
        assert after > 0.01
        assert after > before * 0.5


def test_synth_detuned_sung_pitch_matches_spec():
    spec = dk.SynthSpec(seed=11, detune=dk.DetuneSpec(kind="uniform", lo=-1, hi=1))
    _wav, ann = dk.synth_song(spec)
    offsets = np.array([n.sung_pitch - n.pitch for n in ann.notes])
    assert np.all(np.abs(offsets) <= 1.0)
    assert np.std(offsets) > 0.1


def test_synth_intune_closed_loop_error_below_5_cents_of_semitone():
    means = []
    for seed in (101, 202, 303, 404):
        wav, ann = dk.synth_song(dk.SynthSpec(seed=seed, detune=dk.DetuneSpec(kind="none")))
        track = F.extract_track(wav)
        means.append(note_error(track, SongData(ann=ann, track=track)))
    assert float(np.mean(means)) < 0.05


def test_synth_uniform_detune_mean_matches_expectation():
    # E|U(-1,1)| = 0.5; average sample error over songs concentrates there
    means = []
    for seed in range(500, 512):
        wav, ann = dk.synth_song(
            dk.SynthSpec(seed=seed, detune=dk.DetuneSpec(kind="uniform", lo=-1.0, hi=1.0))
        )
        track = F.extract_track(wav)
        means.append(note_error(track, SongData(ann=ann, track=track)))
    assert abs(float(np.mean(means)) - 0.5) < 0.05


def test_ar1_detune_autocorrelation():
    spec = dk.DetuneSpec(kind="ar1", rho=0.6, sigma=0.65, clip=1.5)
    rng = np.random.default_rng(42)
    eps = spec.sample(5000, rng)
    assert np.all(np.abs(eps) <= 1.5)
    lag1 = np.corrcoef(eps[:-1], eps[1:])[0, 1]
    assert abs(lag1 - 0.6) < 0.08


def test_annotation_roundtrip(tmp_path):
    notes = [
        dk.Note(onset_sec=0.0, offset_sec=0.4, pitch=60, sung_pitch=60.2),
        dk.Note(onset_sec=0.5, offset_sec=0.9, pitch=62),
    ]
    ann = dk.AnnotatedSample(sample_id="two", notes=notes, tempo_bpm=100.0, key="C major")
    path = tmp_path / "two.json"
    dk.export_annotations(ann, path)
    back = dk.import_annotations(path)
    assert back.tempo_bpm == 100.0
    assert back.time_signature == (4, 4)
    assert len(back.notes) == 2
    assert back.notes[0].sung_pitch == pytest.approx(60.2)
    assert back.notes[1].sung_pitch is None
    assert back.notes[0].onset_sec == 0.0 and back.notes[0].offset_sec == 0.4


def test_a_whole_float_pitch_imports_as_an_int(tmp_path):
    path = tmp_path / "whole.json"
    path.write_text(json.dumps({"version": 1, "notes": [{"onset_sec": 0.0, "offset_sec": 0.4, "pitch": 60.0}]}))
    pitch = dk.import_annotations(path).notes[0].pitch
    assert pitch == 60 and type(pitch) is int


def test_overlapping_notes_rejected_with_location():
    notes = [
        dk.Note(onset_sec=0.0, offset_sec=0.6, pitch=60),
        dk.Note(onset_sec=0.5, offset_sec=0.9, pitch=62),
    ]
    with pytest.raises(dk.AnnotationError, match="overlapping notes 0 and 1"):
        dk.AnnotatedSample(sample_id="bad", notes=notes)


def test_unknown_format_rejected(tmp_path):
    bad = tmp_path / "junk.txt"
    bad.write_text("definitely not json {")
    with pytest.raises(dk.AnnotationError, match="unknown annotation format"):
        dk.import_annotations(bad)
    with pytest.raises(dk.AnnotationError):
        dk.import_annotations(tmp_path / "missing.json")


def test_pitch_out_of_range_rejected():
    with pytest.raises(dk.AnnotationError, match="pitch"):
        dk.AnnotatedSample(
            sample_id="p", notes=[dk.Note(onset_sec=0, offset_sec=1, pitch=200)]
        )


def test_negative_onset_rejected(tmp_path):
    path = tmp_path / "early.json"
    notes = [{"onset_sec": -0.1, "offset_sec": 0.4, "pitch": 60}]
    path.write_text(json.dumps({"version": 1, "notes": notes}))
    with pytest.raises(dk.AnnotationError, match="note 0: negative onset"):
        dk.import_annotations(path)


@pytest.mark.parametrize(
    "field, value", [("onset_sec", float("nan")), ("offset_sec", float("inf")), ("sung_pitch", float("nan"))]
)
def test_non_finite_note_values_rejected_with_index(tmp_path, field, value):
    notes = [
        {"onset_sec": 0.0, "offset_sec": 0.4, "pitch": 60},
        {"onset_sec": 0.5, "offset_sec": 0.9, "pitch": 62, "sung_pitch": 62.1},
    ]
    notes[1][field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 1, "notes": notes}))  # writes bare NaN / Infinity
    with pytest.raises(dk.AnnotationError, match=f"note 1: non-finite {field}"):
        dk.import_annotations(path)


def test_midi_tick_conversion_120bpm():
    song = midifile.MidiSong(tpqn=480, notes=[], tempo_map=[(0, 500000.0)])
    assert song.tick_to_seconds(480) == pytest.approx(0.5)
    assert song.tick_to_seconds(0) == 0.0


def test_midi_tempo_map_integration():
    # 120 BPM for one beat, then 60 BPM
    song = midifile.MidiSong(
        tpqn=480, notes=[], tempo_map=[(0, 500000.0), (480, 1000000.0)]
    )
    assert song.tick_to_seconds(480) == pytest.approx(0.5)
    assert song.tick_to_seconds(960) == pytest.approx(1.5)


def test_midi_write_read_roundtrip(tmp_path):
    notes = [(0.0, 0.45, 60), (0.5, 0.95, 64), (1.0, 1.45, 67)]
    path = tmp_path / "r.mid"
    write_midi(path, notes, tempo_bpm=120.0, time_signature=(3, 4))
    ann = dk.import_annotations(path)
    assert [n.pitch for n in ann.notes] == [60, 64, 67]
    assert ann.tempo_bpm == pytest.approx(120.0)
    assert ann.time_signature == (3, 4)
    for got, (onset, offset, _p) in zip(ann.notes, notes):
        assert got.onset_sec == pytest.approx(onset, abs=1e-3)
        assert got.offset_sec == pytest.approx(offset, abs=1e-3)


def test_midi_overlap_rejected(tmp_path):
    path = tmp_path / "o.mid"
    write_midi(path, [(0.0, 1.0, 60), (0.5, 1.5, 62)], tempo_bpm=120.0)
    with pytest.raises(dk.AnnotationError, match="overlapping"):
        dk.import_annotations(path)


def _import_or_reject(path) -> bool:
    """Whether `path` imports; a rejection must be an annotation or MIDI
    error that names the file, never anything else."""
    try:
        dk.import_annotations(path)
    except (dk.AnnotationError, midifile.MidiError) as exc:
        assert path.name in str(exc)
        return False
    return True


def test_midi_cut_short_imports_or_raises_a_midi_error(tmp_path):
    full = tmp_path / "full.mid"
    write_midi(full, [(0.0, 0.5, 60), (0.5, 1.0, 62)], tempo_bpm=120.0)
    raw = full.read_bytes()
    body = raw[22:]  # after the 14-byte header and the 8-byte track header
    assert raw[14:18] == b"MTrk" and int.from_bytes(raw[18:22], "big") == len(body)
    path = tmp_path / "cut.mid"
    for n in range(len(raw)):
        path.write_bytes(raw[:n])
        assert not _import_or_reject(path), n  # every track chunk overruns the file
    imported = []
    for n in range(len(body)):  # the track chunk shortened, its length rewritten to match
        path.write_bytes(raw[:18] + n.to_bytes(4, "big") + body[:n])
        imported.append(_import_or_reject(path))
    assert any(imported) and not all(imported)
    path.write_bytes(raw[:18] + (10_000).to_bytes(4, "big") + body)
    with pytest.raises(midifile.MidiError, match="track chunk of 10000 bytes"):
        dk.import_annotations(path)


def test_midi_rejects_non_midi(tmp_path):
    bad = tmp_path / "x.mid"
    bad.write_bytes(b"RIFFnotmidi")
    with pytest.raises(dk.AnnotationError):
        dk.import_annotations(bad)