import numpy as np
import pytest

import cnpp_reference
import symbolic_reference
from notetune import nncore as nn
from notetune import symbolic as sym
from notetune.datakit import AnnotatedSample, Note
from notetune.segmenter import NoteInterval
from notetune.spp import StationaryEstimate


def test_event_at_time_zero():
    meta = sym.GridMeta(tempo_bpm=120.0)
    evs = sym.events_from_times(np.array([0.0]), np.array([0.5]), np.array([60.0]), meta)
    assert evs["bar"][0] == 0 and evs["pos"][0] == 0


def test_event_at_half_second_120bpm_is_beat_one():
    meta = sym.GridMeta(tempo_bpm=120.0)
    evs = sym.events_from_times(np.array([0.5]), np.array([0.25]), np.array([64.0]), meta)
    assert evs["bar"][0] == 0 and evs["pos"][0] == 4  # one beat = 4 sixteenths


def test_consecutive_notes_strictly_ordered():
    meta = sym.GridMeta(tempo_bpm=120.0)
    onsets = np.array([0.0, 0.01])  # quantize to the same cell without the bump
    evs = sym.events_from_times(onsets, np.array([0.01, 0.5]), np.array([60.0, 62.0]), meta)
    assert (evs["bar"][1], evs["pos"][1]) > (evs["bar"][0], evs["pos"][0])


def test_tokenization_roundtrip_within_one_grid_unit():
    meta = sym.GridMeta(tempo_bpm=100.0)
    rng = np.random.default_rng(0)
    onsets = np.cumsum(rng.uniform(0.2, 0.8, size=20))
    durs = rng.uniform(0.15, 0.7, size=20)
    evs = sym.events_from_times(onsets, durs, np.full(20, 60.0), meta)
    spb = 60.0 / meta.tempo_bpm
    unit = spb / sym.GRID_PER_BEAT
    ppb = sym.positions_per_bar(meta.time_signature)
    for bar, pos, ev_dur, onset, dur in zip(evs["bar"], evs["pos"], evs["dur"], onsets, durs):
        t = (bar * ppb + pos) * unit
        assert abs(t - onset) <= unit
        assert abs(ev_dur * unit - dur) <= unit


def test_positions_per_bar():
    assert sym.positions_per_bar((4, 4)) == 16
    assert sym.positions_per_bar((3, 4)) == 12
    assert sym.positions_per_bar((6, 8)) == 12


def test_interp_embedding_integer_exact():
    rng = np.random.default_rng(1)
    table = nn.Tensor(rng.normal(size=(sym.PITCH_TABLE_ROWS, 8)))
    out = sym.interp_pitch_embedding(table, np.array([60.0]))
    assert np.array_equal(out.data[0], table.data[60])


def test_interp_embedding_midpoint_and_quarter():
    rng = np.random.default_rng(2)
    table = nn.Tensor(rng.normal(size=(sym.PITCH_TABLE_ROWS, 8)))
    mid = sym.interp_pitch_embedding(table, np.array([60.5])).data[0]
    assert np.allclose(mid, 0.5 * (table.data[60] + table.data[61]))
    q = sym.interp_pitch_embedding(table, np.array([59.75])).data[0]
    assert np.allclose(q, 0.25 * table.data[59] + 0.75 * table.data[60])


def test_interp_embedding_top_of_range():
    table = nn.Tensor(np.random.default_rng(3).normal(size=(sym.PITCH_TABLE_ROWS, 4)))
    out = sym.interp_pitch_embedding(table, np.array([127.0]))
    assert np.array_equal(out.data[0], table.data[127])


def test_interp_embedding_linear_in_alpha():
    table = nn.Tensor(np.random.default_rng(4).normal(size=(sym.PITCH_TABLE_ROWS, 16)))
    e0, e1 = table.data[70], table.data[71]
    for alpha in (0.1, 0.3, 0.9):
        out = sym.interp_pitch_embedding(table, np.array([70.0 + alpha])).data[0]
        d0 = np.linalg.norm(out - e0)
        d1 = np.linalg.norm(out - e1)
        gap = np.linalg.norm(e1 - e0)
        assert d0 == pytest.approx(alpha * gap, rel=1e-9)
        assert d1 == pytest.approx((1 - alpha) * gap, rel=1e-9)


def test_round_pitch_half_up():
    assert sym.round_pitch(60.4) == 60
    assert sym.round_pitch(60.5) == 61
    assert sym.round_pitch(60.9) == 61
    assert sym.round_pitch(127.9) == 127


def test_detune_schedule_endpoints():
    assert sym.detune_schedule(0, 1000, p_max=0.4, ramp_frac=0.3) == 0.0
    assert sym.detune_schedule(300, 1000, p_max=0.4, ramp_frac=0.3) == pytest.approx(0.4)
    assert sym.detune_schedule(999, 1000, p_max=0.4, ramp_frac=0.3) == pytest.approx(0.4)
    with pytest.raises(ValueError):
        sym.detune_schedule(0, 100, p_max=1.5, ramp_frac=0.3)


def _tiny_model():
    return sym.Cnpp(nn.TransformerConfig(layers=1, model_dim=16, heads=2, seed=5))


def _events(n=6):
    meta = sym.GridMeta(tempo_bpm=120.0)
    onsets = np.arange(n) * 0.5
    durs = np.full(n, 0.4)
    pitches = 60 + np.arange(n) % 5 + 0.3
    return sym.events_from_times(onsets, durs, pitches, meta)


def test_cnpp_outputs_valid_tokens_and_distributions():
    model = _tiny_model()
    tokens, probs = model.predict(_events())
    assert tokens.shape == (6,)
    assert np.all((tokens >= 0) & (tokens <= 127))
    assert probs.shape == (6, sym.PITCH_TOKENS)
    assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-9)


def test_cnpp_empty_sequence():
    tokens, probs = _tiny_model().predict(_events(0))
    assert len(tokens) == 0 and probs.shape == (0, sym.PITCH_TOKENS)


def test_cnpp_deterministic():
    model = _tiny_model()
    t1, p1 = model.predict(_events())
    t2, p2 = model.predict(_events())
    assert np.array_equal(t1, t2) and np.array_equal(p1, p2)


@pytest.mark.parametrize("sig", [(5, 4), (12, 8), (3, 2)])
def test_cnpp_predicts_a_song_in_an_unknown_signature_as_4_4(sig, caplog):
    # 20 or 24 positions per bar would index past the 16-row pos table
    onsets = np.arange(12) * 0.5
    args = onsets, np.full(12, 0.4), 60 + np.arange(12) % 5 + 0.3
    with caplog.at_level("WARNING", logger="notetune.symbolic"):
        evs = sym.events_from_times(*args, sym.GridMeta(tempo_bpm=120.0, time_signature=sig))
    assert any("treating as 4/4" in r.message for r in caplog.records)
    four_four = sym.events_from_times(*args, sym.GridMeta(tempo_bpm=120.0))
    assert all(np.array_equal(evs[k], four_four[k]) for k in sym.FIELD_NAMES)
    tokens, probs = _tiny_model().predict(evs)
    assert tokens.shape == (12,) and probs.shape == (12, sym.PITCH_TOKENS)


def test_cnpp_rounded_embedding_is_the_interpolated_one_of_rounded_pitches():
    model = _tiny_model()
    events = _events()
    events["pitch"] = events["pitch"] + np.array([0.0, 0.5, -0.5, 0.2, 0.49, -0.3])
    rounded = {**events, "pitch": sym.round_pitch(events["pitch"]).astype(np.float64)}
    t1, p1 = model.predict(events, rounded=True)
    t2, p2 = model.predict(rounded, rounded=False)
    assert np.array_equal(t1, t2) and p1.tobytes() == p2.tobytes()
    assert p1.tobytes() != model.predict(events, rounded=False)[1].tobytes()


def _folded(ref: cnpp_reference.Cnpp) -> sym.Cnpp:
    """A Cnpp with the reference's encoder whose field tables hold `down`
    (its bias in the bar table) and whose heads hold `up`."""
    cfg = ref.cfg
    model = sym.Cnpp(nn.TransformerConfig(layers=cfg.layers, model_dim=cfg.model_dim, heads=cfg.heads, seed=cfg.seed))
    model.encoder = ref.encoder
    E = cfg.embed_dim
    for k, name in enumerate(sym.FIELD_NAMES):
        rows = slice(k * E, (k + 1) * E)
        table = getattr(ref, f"embed_{name}").table.data @ ref.down.w.data[rows]
        getattr(model, f"embed_{name}").table.data = table + ref.down.b.data if k == 0 else table
        ref_head, head = getattr(ref, f"head_{name}"), getattr(model, f"head_{name}")
        head.w.data = ref.up.w.data[:, rows] @ ref_head.w.data
        head.b.data = ref.up.b.data[rows] @ ref_head.w.data + ref_head.b.data
    return model


@pytest.mark.parametrize("rounded, masked", [(False, False), (True, False), (False, True)],
                         ids=["interpolated", "rounded", "mask_positions"])
def test_cnpp_computes_what_the_projected_reference_computes(rounded, masked):
    ref = cnpp_reference.Cnpp(cnpp_reference.CnppConfig(layers=1, model_dim=16, heads=2, embed_dim=8, seed=5))
    rng = np.random.default_rng(0)
    for p in ref.params().values():  # nonzero biases, so every fold counts
        p.data = p.data + rng.normal(0.0, 0.1, p.data.shape)
    fields, pitch_values, pad = sym.pack_sequences([_events(6), _events(4)])
    mask = (rng.random(pad.shape) < 0.4) & (pad > 0) if masked else None
    want = ref.forward(fields, pitch_values, pad, rounded, mask_positions=mask)
    got = _folded(ref).forward(fields, pitch_values, pad, rounded, mask_positions=mask)
    assert pad.min() == 0 and (not masked or mask.any())
    for name in sym.FIELD_NAMES:
        np.testing.assert_allclose(got[name].data, want[name].data, rtol=0, atol=1e-9, err_msg=name)


def test_cnpp_rejects_overlong_sequences():
    model = _tiny_model()
    with pytest.raises(ValueError, match=f"sequence length {nn.MAX_EVENTS + 1} exceeds MAX_EVENTS"):
        model.predict(_events(nn.MAX_EVENTS + 1))
    tokens, probs = model.predict(_events(nn.MAX_EVENTS))
    assert tokens.shape == (nn.MAX_EVENTS,) and probs.shape == (nn.MAX_EVENTS, sym.PITCH_TOKENS)


def test_octuples_from_annotation_and_midi_import(tmp_path):
    from midi_writer import write_midi
    from notetune.datakit import import_annotations

    notes = [(0.0, 0.45, 60), (0.5, 0.95, 62), (1.0, 1.45, 64)]
    midi_path = tmp_path / "m.mid"
    write_midi(midi_path, notes, tempo_bpm=120.0)
    ann = import_annotations(midi_path)
    evs = sym.octuples_from_annotation(ann)
    assert evs["pos"].tolist() == [0, 4, 8]  # 0.5 s = 1 beat = 4 sixteenths
    assert [round(pitch) for pitch in evs["pitch"]] == [60, 62, 64]


def test_notes_to_octuples_alignment_check():
    meta = sym.GridMeta()
    notes = [NoteInterval(0, 10)]
    with pytest.raises(ValueError):
        sym.notes_to_octuples(notes, [], meta, 22050, 256)
    est = [StationaryEstimate(61.2)]
    evs = sym.notes_to_octuples(notes, est, meta, 22050, 256)
    assert evs["pitch"][0] == pytest.approx(61.2)
    assert evs["dur"][0] >= 1


def _reference_fields(events) -> dict:
    return {
        name: np.array([getattr(e, name) for e in events], dtype=np.float64 if name == "pitch" else np.int64)
        for name in sym.FIELD_NAMES
    }


def _assert_same_sequence(got: dict, want: dict):
    assert list(got) == list(sym.FIELD_NAMES)
    for name in sym.FIELD_NAMES:
        assert got[name].dtype == want[name].dtype, name
        assert np.array_equal(got[name], want[name]), name


def _random_song(rng):
    n = int(rng.integers(0, 60))
    gaps = rng.exponential(rng.choice([0.05, 0.5, 4.0]), size=n)
    gaps[rng.random(n) < 0.2] = 0.0  # ties on the grid
    onsets = rng.uniform(-1.5, 0.5) + np.cumsum(gaps)
    durs = rng.uniform(0.0, 5.0, size=n)
    pitches = rng.uniform(-20.0, 150.0, size=n)
    sig = sym.TIME_SIGNATURES[int(rng.integers(len(sym.TIME_SIGNATURES)))]
    return onsets, durs, pitches, sym.GridMeta(tempo_bpm=float(rng.uniform(50.0, 220.0)), time_signature=sig)


def test_events_and_batches_match_the_per_note_reference():
    rng = np.random.default_rng(11)
    songs = [_random_song(rng) for _ in range(300)]
    edge = sym.GridMeta(tempo_bpm=120.0, time_signature=(6, 8))
    songs += [
        (np.zeros(0), np.zeros(0), np.zeros(0), sym.GridMeta()),
        # half-cell onsets and durations round half to even; 0 and 127 are inside the range
        (np.array([0.0625, 0.1875, 0.3125, 0.3125]), np.array([0.0625, 0.1875, 0.0, 9.0]),
         np.array([0.0, 127.0, -0.5, 127.5]), edge),
        # every note past bar 64 of 6/8 at 120 BPM (1.5 s a bar)
        (np.arange(5) * 0.1 + 100.0, np.full(5, 0.3), np.full(5, 60.0), edge),
    ]
    seqs, refs = [], []
    for onsets, durs, pitches, meta in songs:
        got = sym.events_from_times(onsets, durs, pitches, meta)
        ref = symbolic_reference.events_from_times(onsets, durs, pitches, meta)
        _assert_same_sequence(got, _reference_fields(ref))
        seqs.append(got)
        refs.append(ref)
    for lo in range(0, len(seqs), 8):
        fields, pitch_values, pad = sym.pack_sequences(seqs[lo : lo + 8])
        want_fields, want_pitch, want_pad = symbolic_reference.pack_sequences(refs[lo : lo + 8])
        assert list(fields) == list(want_fields)
        for name in want_fields:
            assert fields[name].dtype == np.int64 and np.array_equal(fields[name], want_fields[name]), name
        assert pitch_values.dtype == np.float64 and np.array_equal(pitch_values, want_pitch)
        assert np.array_equal(pad, want_pad)


def test_a_70_bar_sequence_logs_one_bar_clamp_warning(caplog):
    meta = sym.GridMeta(tempo_bpm=120.0)  # 2 s a bar
    onsets = np.arange(140) * 1.0  # two notes a bar, bars 0..69
    with caplog.at_level("WARNING", logger=sym.log.name):
        evs = sym.events_from_times(onsets, np.full(140, 0.5), np.full(140, 60.0), meta)
    assert [r.getMessage() for r in caplog.records] == [
        f"12 of 140 notes past bar {sym.MAX_BARS}; clamping them into its last cell"
    ]
    assert evs["bar"].max() == sym.MAX_BARS - 1
