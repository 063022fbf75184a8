import tracemalloc

import numpy as np
import pytest

from conftest import make_track
from notetune import nncore as nn
from notetune import segmenter as seg
from notetune import spp as sp
from notetune import frontend
from notetune.frontend import FrameEncoderConfig, frame_inputs


def test_soften_single_boundary_values():
    hard = np.zeros(21)
    hard[10] = 1.0
    soft = seg.soften_labels(hard, sigma=2.0)
    assert soft[10] == pytest.approx(1.0)
    assert soft[12] == pytest.approx(np.exp(-0.5))
    assert soft[8] == pytest.approx(np.exp(-0.5))


def test_soften_no_boundaries_is_zero():
    assert np.all(seg.soften_labels(np.zeros(16), sigma=2.0) == 0.0)


def test_soften_two_close_boundaries_max_combination():
    hard = np.zeros(30)
    hard[[10, 11]] = 1.0
    soft = seg.soften_labels(hard, sigma=2.0)
    t = np.arange(30)
    k1 = np.exp(-((t - 10.0) ** 2) / 8.0)
    k2 = np.exp(-((t - 11.0) ** 2) / 8.0)
    assert np.allclose(soft, np.maximum(k1, k2))


def test_soften_near_zero_sigma_is_identity_on_soft_labels():
    soft = np.array([0.0, 0.3, 1.0, 0.5, 0.0])
    assert np.allclose(seg.soften_labels(soft, sigma=1e-6), soft)


def test_soften_rejects_bad_sigma():
    with pytest.raises(ValueError):
        seg.soften_labels(np.zeros(4), sigma=0.0)


def test_nms_hand_case():
    probs = np.array([0.1, 0.9, 0.2, 0.8, 0.1])
    assert seg.greedy_nms(probs, w=1, theta=0.5, span=(0, 5)) == [0, 1, 3, 5]


def test_nms_all_below_threshold_returns_span_endpoints():
    probs = np.full(40, 0.2)
    assert seg.greedy_nms(probs, w=5, theta=0.5, span=(3, 30)) == [3, 30]


def test_nms_single_spike():
    probs = np.zeros(20)
    probs[7] = 0.9
    assert seg.greedy_nms(probs, w=5, theta=0.5, span=(0, 20)) == [0, 7, 20]


def test_nms_rejects_bad_theta():
    with pytest.raises(ValueError):
        seg.greedy_nms(np.zeros(4), w=5, theta=0.0, span=(0, 4))


def test_nms_properties_random():
    rng = np.random.default_rng(123)
    for _ in range(100):
        T = int(rng.integers(10, 200))
        w = int(rng.integers(1, 8))
        theta = float(rng.uniform(0.1, 0.9))
        probs = rng.random(T)
        out = seg.greedy_nms(probs, w=w, theta=theta, span=(0, T))
        assert out == sorted(out)
        assert out[0] == 0 and out[-1] == T
        interior = [b for b in out if b not in (0, T)]
        diffs = np.diff(interior)
        assert np.all(diffs > w)
        # raising theta never adds boundaries
        higher = seg.greedy_nms(probs, w=w, theta=min(theta + 0.2, 0.95), span=(0, T))
        assert set(higher) <= set(out)


def test_detected_notes_tile_each_singing_span_property():
    rng = np.random.default_rng(29)
    for _ in range(100):
        # alternating unvoiced and voiced runs, some gaps short enough to bridge
        runs = rng.integers(1, 40, size=2 * int(rng.integers(1, 6)))
        voiced = np.concatenate([np.full(n, k % 2 == 1) for k, n in enumerate(runs)])
        T = len(voiced)
        track = make_track(np.where(voiced, 60 + rng.normal(0, 2, T), np.nan))
        notes = seg.detect_notes(track, rng.random(T), w=int(rng.integers(1, 8)),
                                 theta=float(rng.uniform(0.1, 0.9)), min_note_frames=int(rng.integers(1, 8)))
        spans = seg.singing_spans(track.voiced, track.hop, track.sample_rate)
        tiled = [[n for n in notes if lo <= n.start_frame < hi] for lo, hi in spans]
        assert sum(map(len, tiled)) == len(notes)
        for (lo, hi), inside in zip(spans, tiled):
            assert inside[0].start_frame == lo and inside[-1].end_frame == hi
            assert all(a.end_frame == b.start_frame for a, b in zip(inside[:-1], inside[1:]))
            assert voiced[hi - 1]


def test_boundaries_to_intervals_basic():
    notes = seg.boundaries_to_intervals([0, 10, 20], make_track(np.full(20, 60.0)), min_note_frames=5)
    assert [(n.start_frame, n.end_frame) for n in notes] == [(0, 10), (10, 20)]


def test_boundaries_to_intervals_merges_short():
    notes = seg.boundaries_to_intervals([0, 2, 20], make_track(np.full(20, 60.0)), min_note_frames=5)
    assert [(n.start_frame, n.end_frame) for n in notes] == [(0, 20)]


def test_boundaries_to_intervals_merge_prefers_closer_pitch():
    pitch = np.concatenate([np.full(10, 60.0), np.full(3, 70.0), np.full(10, 70.0)])
    track = make_track(pitch)
    notes = seg.boundaries_to_intervals([0, 10, 13, 23], track=track, min_note_frames=5)
    assert [(n.start_frame, n.end_frame) for n in notes] == [(0, 10), (10, 23)]


def test_boundaries_to_intervals_empty_when_too_few():
    track = make_track(np.full(10, 60.0))
    assert seg.boundaries_to_intervals([5], track, min_note_frames=5) == []
    assert seg.boundaries_to_intervals([], track, min_note_frames=5) == []


def test_intervals_tile_span_property():
    rng = np.random.default_rng(7)
    for _ in range(50):
        bounds = np.unique(rng.integers(0, 300, size=rng.integers(2, 15)))
        if len(bounds) < 2:
            continue
        notes = seg.boundaries_to_intervals(
            list(bounds), make_track(np.full(300, 60.0)), min_note_frames=int(rng.integers(1, 8))
        )
        assert notes[0].start_frame == bounds[0]
        assert notes[-1].end_frame == bounds[-1]
        for a, b in zip(notes[:-1], notes[1:]):
            assert a.end_frame == b.start_frame


def test_note_interval_validation():
    with pytest.raises(ValueError):
        seg.NoteInterval(5, 5)


def test_singing_spans_bridges_small_gaps():
    voiced = np.zeros(100, dtype=np.uint8)
    voiced[10:30] = 1
    voiced[35:60] = 1  # 5-frame gap, bridged (~58 ms < 200 ms)
    voiced[90:95] = 1  # 30-frame gap splits; span shorter than min dropped
    spans = seg.singing_spans(voiced, hop=256, sr=22050)
    assert spans == [(10, 60)]


def test_forward_outputs_are_probabilities_and_deterministic():
    rng = np.random.default_rng(11)
    pitch = 60 + rng.normal(0, 1, size=80)
    track = make_track(pitch)
    model = seg.Segmenter(FrameEncoderConfig(layers=1, model_dim=16, heads=2, window=8, seed=5))
    p1 = model.predict(track)
    p2 = model.predict(track)
    assert np.all((p1 > 0) & (p1 < 1))
    assert np.array_equal(p1, p2)


@pytest.mark.parametrize("T", [1, 2, 300, 513, 1101])
def test_frame_models_unrecorded_return_the_recorded_bytes(T):
    # default shape; lengths past one inference window, as a caller of
    # forward_batch may pass any
    pitch = 60 + np.random.default_rng(T).normal(0, 1, size=T)
    pitch[T // 3 : T // 2] = np.nan
    track = make_track(pitch)
    x = frame_inputs(track, 0, track.n_frames)[None, :, :]
    for model in (seg.Segmenter(FrameEncoderConfig()), sp.StationaryPitchPredictor(FrameEncoderConfig())):
        recorded = model.forward_batch(x)
        with nn.no_grad():
            plain = model.forward_batch(x)
        assert recorded._node is not None and plain._node is None
        assert plain.shape == recorded.shape and plain.data.tobytes() == recorded.data.tobytes()


WINDOW_LENGTHS = [1, 255, 256, 257, 2 * frontend.WINDOW_CORE + 1, 5168]


@pytest.mark.parametrize("T", WINDOW_LENGTHS)
def test_frame_windows_tile_the_take_with_cores_no_window_longer_than_the_crop(T):
    windows = frontend.frame_windows(T)
    kept = np.zeros(T, dtype=int)
    for start, stop, lo, hi in windows:
        assert 0 <= start <= lo < hi <= stop <= T
        assert stop - start <= frontend.WINDOW
        kept[lo:hi] += 1
    assert np.all(kept == 1)
    # only the last window may be shorter than WINDOW, when the take is longer
    assert all(stop - start == min(T, frontend.WINDOW) for start, stop, _, _ in windows[:-1])


def _reference_windowed(forward_batch, track):
    """Each window's core rows of the recorded `forward_batch` on its frames.
    The windows go in the batches `windowed` runs: the full ones in runs of
    WINDOW_GROUP, the last alone, since one GRU step on one row (gemv) rounds
    unlike one on several."""
    x = frame_inputs(track, 0, track.n_frames)
    windows = frontend.frame_windows(track.n_frames)
    full = windows[:-1]
    batches = [full[i : i + frontend.WINDOW_GROUP] for i in range(0, len(full), frontend.WINDOW_GROUP)]
    out = np.full(track.n_frames, np.nan)
    for batch in batches + [windows[-1:]]:
        y = forward_batch(np.stack([x[start:stop] for start, stop, _, _ in batch]))
        assert y._node is not None
        for row, (start, _, lo, hi) in zip(y.data, batch):
            assert np.all(np.isnan(out[lo:hi]))
            out[lo:hi] = row[lo - start : hi - start]
    return out


@pytest.mark.parametrize("T", WINDOW_LENGTHS)
def test_frame_models_on_a_take_run_the_recorded_forward_on_each_window(T):
    rng = np.random.default_rng(T)
    pitch = 60 + rng.normal(0, 1, size=T)
    pitch[T // 3 : T // 2] = np.nan
    track = make_track(pitch)
    track.mel[:] += rng.normal(0, 1, size=track.mel.shape)
    segmenter, spp = seg.Segmenter(FrameEncoderConfig()), sp.StationaryPitchPredictor(FrameEncoderConfig())
    for got, model in ((segmenter.predict(track), segmenter), (spp.frame_logits(track), spp)):
        want = _reference_windowed(model.forward_batch, track)
        assert got.shape == (T,) and got.tobytes() == want.tobytes()


def test_predict_peak_does_not_grow_with_the_take():
    # default shape.  A whole-take pass held the [T, 2 * inner] projection,
    # 28.0 MB traced at 4,096 frames; on windows the peak is one group's,
    # 14.0 MB, and only the [T] output grows: 0.12 MB more at 16,384 frames
    model = seg.Segmenter(FrameEncoderConfig())
    peaks = []
    for T in (4096, 16384):
        track = make_track(60 + np.random.default_rng(13).normal(0, 1, size=T))
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            model.predict(track)
            peaks.append(tracemalloc.get_traced_memory()[1] - held)
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 1e6, [p / 1e6 for p in peaks]


def test_predict_on_a_60_s_take_holds_the_projection_and_few_take_long_rows_beside_it():
    # T = 5168 frames, the 60 s benchmark take.  Traced peak above what was
    # held: 35.4 MB with the whole-take gated array, `out` product and GRU
    # gates; 26.3 MB with those in blocks or not kept, of which the one
    # whole [T, 2 * inner] projection is 14.1 MB
    model = seg.Segmenter(FrameEncoderConfig())
    T, inner = 5168, model.cfg.ffn_inner
    track = make_track(60 + np.random.default_rng(13).normal(0, 1, size=T))
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        model.predict(track)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    h_bytes = T * 2 * inner * 8
    assert peak < 2.1 * h_bytes, peak / 1e6


def test_boundary_matching_counts():
    tp, fp, fn = seg.match_boundaries([10, 50, 90], [11, 52, 200])
    assert (tp, fp, fn) == (2, 1, 1)
    p, r, f1 = seg.boundary_prf([10, 50, 90], [11, 52, 200])
    assert p == pytest.approx(2 / 3)
    assert r == pytest.approx(2 / 3)
