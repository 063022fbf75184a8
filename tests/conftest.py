import numpy as np
import pytest

from notetune import datakit as dk
from notetune import features as ft


def make_track(pitch, voiced=None, sr=22050, hop=256, n_mels=80):
    """FrameTrack from a raw pitch array (NaN = unvoiced) with a flat mel."""
    pitch = np.asarray(pitch, dtype=np.float64)
    if voiced is None:
        voiced = np.isfinite(pitch).astype(np.uint8)
    mel = np.full((len(pitch), n_mels), ft.LOG_FLOOR)
    return ft.FrameTrack(
        sample_rate=sr, hop=hop, pitch_semitones=pitch, voiced=np.asarray(voiced, dtype=np.uint8),
        mel=mel,
    )


@pytest.fixture(scope="session")
def intune_song():
    """One rendered in-tune song with its extracted track (shared, read-only)."""
    wav, ann = dk.synth_song(dk.SynthSpec(seed=4242, detune=dk.DetuneSpec(kind="none")))
    track = ft.extract_track(wav)
    return wav, ann, track
