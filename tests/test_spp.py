import numpy as np
import pytest

from conftest import make_track
from notetune import nncore as nn
from notetune import spp
from notetune.frontend import FrameEncoderConfig
from notetune.segmenter import NoteInterval


def test_uniform_weights_average():
    track = make_track([60.0, 60.0, 61.0, 61.0])
    ests = spp.estimates_from_logits(np.zeros(4), track, [NoteInterval(0, 4)])
    assert ests[0].pitch == pytest.approx(60.5)


def test_one_hot_weight_selects_frame():
    track = make_track([60.0, 62.0, 64.0])
    logits = np.array([0.0, 80.0, 0.0])
    ests = spp.estimates_from_logits(logits, track, [NoteInterval(0, 3)])
    assert ests[0].pitch == pytest.approx(62.0)


def test_unvoiced_frames_get_zero_weight():
    track = make_track([60.0, np.nan, 64.0], voiced=[1, 0, 1])
    ests = spp.estimates_from_logits(np.zeros(3), track, [NoteInterval(0, 3)])
    assert ests[0].pitch == pytest.approx(62.0)


def test_all_unvoiced_note_is_flagged_not_failed():
    pitch = np.array([60.0, 60.0, np.nan, np.nan, 62.0, 62.0])
    track = make_track(pitch, voiced=[1, 1, 0, 0, 1, 1])
    ests = spp.estimates_from_logits(np.zeros(6), track, [NoteInterval(2, 4)])
    assert ests[0].flagged
    assert 60.0 <= ests[0].pitch <= 62.0


def test_weights_form_distribution_and_convex_combination():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(2, 40))
        pitch = 60 + rng.normal(0, 2, size=n)
        track = make_track(pitch)
        ests = spp.estimates_from_logits(rng.normal(0, 3, size=n), track, [NoteInterval(0, n)])
        assert pitch.min() - 1e-12 <= ests[0].pitch <= pitch.max() + 1e-12


def test_aggregation_shift_equivariance_with_fixed_weights():
    rng = np.random.default_rng(4)
    pitch = 60 + rng.normal(0, 1, size=20)
    w = rng.random(20)
    w /= w.sum()
    base = float(np.dot(w, pitch))
    shifted = float(np.dot(w, pitch + 2.5))
    assert shifted == pytest.approx(base + 2.5, abs=1e-9)


def test_spp_loss_flat_note_components():
    n = 8
    w = nn.Tensor(np.full(n, 1.0 / n))
    pitches = np.full(n, 62.0)
    sigma = np.zeros(n)
    total, comps = spp.spp_note_loss(w, pitches, 62.0, sigma, spp.SppLossWeights())
    assert comps["pitch"] == pytest.approx(0.0)
    assert comps["stat"] == pytest.approx(0.0)
    assert comps["dist"] == pytest.approx(0.0)
    assert comps["uni"] == pytest.approx(-np.log(n))


def test_spp_loss_hand_case():
    w = nn.Tensor(np.full(3, 1.0 / 3))
    pitches = np.array([59.0, 60.0, 61.0])
    total, comps = spp.spp_note_loss(w, pitches, 60.0, np.zeros(3), spp.SppLossWeights())
    assert comps["pitch"] == pytest.approx(0.0)
    assert comps["dist"] == pytest.approx(2.0 / 3.0)


def test_spp_loss_weights_validation():
    with pytest.raises(ValueError):
        spp.SppLossWeights(lambda_s=-0.1)


def test_local_pitch_std_flat_is_zero():
    sigma = spp.local_pitch_std(np.full(30, 61.0))
    assert np.allclose(sigma, 0.0)
    varying = spp.local_pitch_std(np.sin(np.linspace(0, 10, 50)))
    assert varying.max() > 0


def test_aggregate_average_cases():
    track = make_track([60.0, 60.0, 61.0, 61.0])
    assert spp.aggregate_average(track, [NoteInterval(0, 4)])[0].pitch == pytest.approx(60.5)
    track1 = make_track([63.5])
    assert spp.aggregate_average(track1, [NoteInterval(0, 1)])[0].pitch == pytest.approx(63.5)


def test_weighted_median_cases():
    track = make_track([59.0, 60.0, 61.0])
    assert spp.aggregate_weighted_median(track, [NoteInterval(0, 3)])[0].pitch == pytest.approx(60.0)
    const = make_track(np.full(11, 65.0))
    assert spp.aggregate_weighted_median(const, [NoteInterval(0, 11)])[0].pitch == pytest.approx(65.0)


def test_weighted_median_center_bias_fails_off_center_stationary():
    # stationary region only in the last 40%: center weighting lands in the glide
    n = 50
    pitch = np.concatenate([np.linspace(62.0, 64.0, 30), np.full(20, 64.0)])
    track = make_track(pitch)
    wm = spp.aggregate_weighted_median(track, [NoteInterval(0, n)])[0]
    assert abs(wm.pitch - 64.0) > 0.2  # > 20 cents off


@pytest.mark.parametrize("estimate", [
    lambda track, notes: spp.estimates_from_logits(np.arange(8.0), track, notes),
    spp.aggregate_average,
    spp.aggregate_weighted_median,
], ids=["spp", "average", "weighted_median"])
def test_estimators_flag_exactly_the_unvoiced_note(estimate):
    # frame 6 is unvoiced inside the second note; its far-off pitch must not count
    pitch = np.array([60.0, 60.5, 61.0, 61.0, 61.0, 63.0, 90.0, 64.0])
    track = make_track(pitch, voiced=[1, 1, 0, 0, 0, 1, 0, 1])
    unvoiced, partly = estimate(track, [NoteInterval(2, 5), NoteInterval(5, 8)])
    assert unvoiced.flagged and not partly.flagged
    assert unvoiced.pitch == track.pitch_filled[2:5].mean() == pytest.approx(61.75)
    assert 63.0 <= partly.pitch <= 64.0


def test_evaluate_spp_hand_case():
    est = np.array([60.14, 59.91, 60.16])
    gt = np.array([60.0, 60.0, 60.0])
    out = spp.evaluate_spp(est, gt)
    assert out["ptr_percent"] == pytest.approx(200.0 / 3.0, abs=0.01)
    assert out["mae_cents"] == pytest.approx(13.0, abs=1e-6)


def test_evaluate_spp_zero_errors():
    out = spp.evaluate_spp(np.full(5, 60.0), np.full(5, 60.0))
    assert out["ptr_percent"] == 100.0
    assert out["mae_cents"] == 0.0


def test_evaluate_spp_asymmetric_bounds():
    gt = np.zeros(2)
    # +14.9 cents is inside the [-10, +15] band, -14.9 cents is not
    asym = spp.evaluate_spp(np.array([0.149, -0.149]), gt)
    assert asym["ptr_percent"] == pytest.approx(50.0)
    near = spp.evaluate_spp(np.array([-0.0999, 0.1499]), gt)
    assert near["ptr_percent"] == pytest.approx(100.0)
    outside = spp.evaluate_spp(np.array([-0.1005, 0.1505]), gt)
    assert outside["ptr_percent"] == pytest.approx(0.0)


def test_evaluate_spp_length_mismatch_errors():
    with pytest.raises(ValueError):
        spp.evaluate_spp(np.zeros(3), np.zeros(4))


def test_model_estimate_runs_on_synthetic_track(intune_song):
    _wav, ann, track = intune_song
    spans = ann.note_frames(track.sample_rate, track.hop)
    notes = [NoteInterval(a, min(b, track.n_frames)) for a, b in spans[:10]]
    model = spp.StationaryPitchPredictor(
        FrameEncoderConfig(layers=1, model_dim=16, heads=2, window=16, seed=3)
    )
    ests = model.estimate(track, notes)
    assert len(ests) == len(notes)
    for est, note in zip(ests, notes):
        if not est.flagged:
            seg_pitch = track.pitch_semitones[note.start_frame : note.end_frame]
            lo, hi = np.nanmin(seg_pitch), np.nanmax(seg_pitch)
            assert lo - 1e-9 <= est.pitch <= hi + 1e-9

