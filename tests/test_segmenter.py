import numpy as np
import pytest

from conftest import make_track
from notetune import segmenter as seg
from notetune.frontend import FrameEncoderConfig


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
    assert seg.greedy_nms(probs, w=1, theta=0.5, span=(0, 5)) == [0, 1, 3, 4]


def test_nms_all_below_threshold_returns_span_endpoints():
    probs = np.full(40, 0.2)
    assert seg.greedy_nms(probs, w=5, theta=0.5, span=(3, 30)) == [3, 29]


def test_nms_single_spike():
    probs = np.zeros(20)
    probs[7] = 0.9
    assert seg.greedy_nms(probs, w=5, theta=0.5, span=(0, 20)) == [0, 7, 19]


def test_nms_rejects_bad_theta():
    with pytest.raises(ValueError):
        seg.greedy_nms(np.zeros(4), theta=0.0)


def test_nms_properties_random():
    rng = np.random.default_rng(123)
    for _ in range(100):
        T = int(rng.integers(10, 200))
        w = int(rng.integers(1, 8))
        theta = float(rng.uniform(0.1, 0.9))
        probs = rng.random(T)
        out = seg.greedy_nms(probs, w=w, theta=theta, span=(0, T))
        assert out == sorted(out)
        assert out[0] == 0 and out[-1] == T - 1
        interior = [b for b in out if b not in (0, T - 1)]
        diffs = np.diff(interior)
        assert np.all(diffs > w)
        # raising theta never adds boundaries
        higher = seg.greedy_nms(probs, w=w, theta=min(theta + 0.2, 0.95), span=(0, T))
        assert set(higher) <= set(out)


def test_boundaries_to_intervals_basic():
    notes = seg.boundaries_to_intervals([0, 10, 20], make_track(np.full(20, 60.0)))
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
    assert seg.boundaries_to_intervals([5], track) == []
    assert seg.boundaries_to_intervals([], track) == []


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


def test_boundary_matching_counts():
    tp, fp, fn = seg.match_boundaries([10, 50, 90], [11, 52, 200])
    assert (tp, fp, fn) == (2, 1, 1)
    p, r, f1 = seg.boundary_prf([10, 50, 90], [11, 52, 200])
    assert p == pytest.approx(2 / 3)
    assert r == pytest.approx(2 / 3)
