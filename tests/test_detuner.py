import numpy as np
import pytest

from notetune import detuner as dt


def _const_sequences(value, n_seq=12, length=30):
    rng = np.random.default_rng(7)
    out = []
    for _ in range(n_seq):
        pitches = rng.integers(55, 75, size=length).astype(float)
        durs = rng.choice([0.5, 1.0], size=length)
        out.append((pitches, durs, np.full(length, value)))
    return out


def test_detuner_learns_constant_errors():
    cfg = dt.DetunerConfig(hidden=16, seed=1, min_notes=100)
    result = dt.train_detuner(_const_sequences(0.7), cfg, steps=400, batch_size=8, lr=3e-3)
    gen = dt.generate_errors(result.model, 0.0, np.full(20, 64.0), np.full(20, 1.0), seed=5)
    assert np.abs(gen - 0.7).mean() < 0.1
    assert result.losses[-1] < 0.02


def test_detuner_learns_zero_errors():
    cfg = dt.DetunerConfig(hidden=16, seed=2, min_notes=100)
    result = dt.train_detuner(_const_sequences(0.0), cfg, steps=300, batch_size=8, lr=3e-3)
    gen = dt.generate_errors(result.model, 0.0, np.full(20, 60.0), np.full(20, 0.5), seed=6)
    assert np.abs(gen).mean() < 0.08


def test_detuner_refuses_tiny_corpus():
    cfg = dt.DetunerConfig(hidden=16, seed=3, min_notes=200)
    with pytest.raises(ValueError):
        dt.train_detuner(_const_sequences(0.1, n_seq=2, length=10), cfg, steps=10, batch_size=16, lr=3e-3)


def test_generation_deterministic_and_clamped():
    cfg = dt.DetunerConfig(hidden=16, seed=4, min_notes=10)
    result = dt.train_detuner(
        _const_sequences(0.5, n_seq=4, length=20), cfg, steps=60, batch_size=16, lr=3e-3
    )
    pitches = np.full(50, 62.0)
    durs = np.full(50, 1.0)
    a = dt.generate_errors(result.model, 5.0, pitches, durs, seed=9)
    b = dt.generate_errors(result.model, 5.0, pitches, durs, seed=9)
    c = dt.generate_errors(result.model, 5.0, pitches, durs, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(np.abs(a) <= dt.ERROR_CLAMP)


def test_zero_noise_rollout_matches_prediction_chain():
    cfg = dt.DetunerConfig(hidden=16, seed=5, min_notes=10)
    result = dt.train_detuner(
        _const_sequences(0.3, n_seq=4, length=20), cfg, steps=60, batch_size=16, lr=3e-3
    )
    pitches = np.full(8, 60.0)
    durs = np.full(8, 1.0)
    gen = dt.generate_errors(result.model, 0.0, pitches, durs, seed=0)
    # teacher-free chain: feed back the model's own clamped outputs
    import notetune.nncore as nn

    expected = []
    for i in range(8):
        prev_errors = np.concatenate([[0.0], np.array(expected)])[: i + 1]
        feats = dt.note_features(pitches[: i + 1], durs[: i + 1], prev_errors)
        with nn.no_grad():
            pred = result.model.forward(feats[None])
        expected.append(float(np.clip(pred.data[0, -1], -dt.ERROR_CLAMP, dt.ERROR_CLAMP)))
    assert np.allclose(gen, expected, atol=1e-9)
