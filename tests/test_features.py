import hashlib
import json
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

import yin_reference
from conftest import make_track
from notetune import features as F
from notetune.nncore.checkpoint import load_npz

SR = 22050
SRC = Path(__file__).resolve().parents[1] / "src"


def sine(freq, dur=1.5, sr=SR, amp=0.3):
    t = np.arange(int(sr * dur)) / sr
    return amp * np.sin(2 * np.pi * freq * t)


def harmonic(f0, dur=1.5, sr=SR):
    t = np.arange(int(sr * dur)) / sr
    return sum((0.25 / k) * np.sin(2 * np.pi * f0 * k * t) for k in range(1, 6))


def test_load_silence_keeps_length(tmp_path):
    path = tmp_path / "sil.wav"
    F.write_wav(path, np.zeros(SR), SR)
    wav = F.load_audio(path)
    assert len(wav) == SR
    assert np.all(wav == 0.0)


def test_load_stereo_averages_channels(tmp_path):
    from scipy.io import wavfile

    left = (sine(440) * 32767).astype(np.int16)
    right = np.zeros_like(left)
    wavfile.write(tmp_path / "st.wav", SR, np.stack([left, right], axis=1))
    wav = F.load_audio(tmp_path / "st.wav")
    mono = left.astype(np.float64) / 32768.0
    assert np.allclose(wav, mono / 2.0, atol=1e-12)


@pytest.mark.parametrize(
    "pcm, expected",
    [
        (np.array([-(2**15), -(2**14), 0, 2**14, 2**15 - 1], dtype=np.int16), [-1.0, -0.5, 0.0, 0.5, 1 - 2.0**-15]),
        (np.array([-(2**31), -(2**30), 0, 2**30, 2**31 - 1], dtype=np.int32), [-1.0, -0.5, 0.0, 0.5, 1 - 2.0**-31]),
        (np.array([0, 64, 128, 192, 255], dtype=np.uint8), [-1.0, -0.5, 0.0, 0.5, 127 / 128]),
        (np.array([-1.0, -0.5, 0.0, 0.25, 0.7], dtype=np.float32), np.float32([-1.0, -0.5, 0.0, 0.25, 0.7])),
    ],
    ids=["int16", "int32", "uint8", "float32"],
)
def test_load_audio_scales_each_sample_format(tmp_path, pcm, expected):
    from scipy.io import wavfile

    wavfile.write(tmp_path / "x.wav", SR, pcm)
    wav = F.load_audio(tmp_path / "x.wav")
    assert wav.dtype == np.float64
    assert np.array_equal(wav, np.asarray(expected, dtype=np.float64))


def test_load_audio_rejects_an_unsupported_sample_format(tmp_path):
    from scipy.io import wavfile

    wavfile.write(tmp_path / "x.wav", SR, np.zeros(8, dtype=np.int64))
    with pytest.raises(F.AudioIOError, match="unsupported WAV sample format int64"):
        F.load_audio(tmp_path / "x.wav")


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.uint8, np.float32, np.float64])
def test_read_wav_gives_the_rate_and_array_of_scipy(tmp_path, dtype, channels):
    rng = np.random.default_rng(7)
    if np.issubdtype(dtype, np.integer):
        info = np.iinfo(dtype)
        pcm = rng.integers(info.min, info.max, size=(1001, channels), endpoint=True, dtype=dtype)
    else:
        pcm = rng.normal(size=(1001, channels)).astype(dtype)
    wavfile.write(tmp_path / "x.wav", 44100, pcm[:, 0] if channels == 1 else pcm)
    want_sr, want = wavfile.read(tmp_path / "x.wav")
    sr, got = F._read_wav(tmp_path / "x.wav")
    assert (sr, got.dtype, got.shape, got.tobytes()) == (want_sr, want.dtype, want.shape, want.tobytes())


def _riff(fmt_body: bytes, data: bytes, before_data: bytes = b"") -> bytes:
    chunks = b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body + before_data
    chunks += b"data" + struct.pack("<I", len(data)) + data + b"\0" * (len(data) % 2)
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def _fmt(tag, channels, width, bits, sr=SR) -> bytes:
    return struct.pack("<HHIIHH", tag, channels, sr, sr * channels * width, channels * width, bits)


def _extensible(subformat, channels, width, bits) -> bytes:
    guid = struct.pack("<I", subformat) + F._SUBFORMAT_GUID_TAIL
    return _fmt(F.WAVE_FORMAT_EXTENSIBLE, channels, width, bits) + struct.pack("<HHI", 22, bits, 3) + guid


SAMPLES_24 = np.random.default_rng(8).integers(0, 256, size=3 * 2 * 37, dtype=np.uint8).tobytes()


@pytest.mark.parametrize(
    "raw",
    [
        _riff(_fmt(F.WAVE_FORMAT_PCM, 2, 3, 24), SAMPLES_24),
        _riff(_extensible(F.WAVE_FORMAT_PCM, 2, 3, 24), SAMPLES_24),
        _riff(_extensible(F.WAVE_FORMAT_IEEE_FLOAT, 1, 4, 32), np.float32([0.5, -0.25, 1.5]).tobytes()),
        _riff(_fmt(F.WAVE_FORMAT_PCM, 1, 2, 16), np.int16([1, -2, 3]).tobytes(),
              before_data=b"LIST" + struct.pack("<I", 5) + b"INFOx\0"),
        _riff(_fmt(F.WAVE_FORMAT_PCM, 1, 1, 8), bytes([0, 128, 255])),
    ],
    ids=["pcm24", "extensible-pcm24", "extensible-float32", "odd-list-chunk", "uint8-odd-length"],
)
def test_read_wav_gives_scipys_array_for_hand_built_files(tmp_path, raw):
    (tmp_path / "x.wav").write_bytes(raw)
    want_sr, want = wavfile.read(tmp_path / "x.wav")
    sr, got = F._read_wav(tmp_path / "x.wav")
    assert (sr, got.dtype, got.shape, got.tobytes()) == (want_sr, want.dtype, want.shape, want.tobytes())


def test_load_audio_scales_24_bit_pcm_left_justified(tmp_path):
    pcm = np.array([-(2**23), -(2**22), 0, 2**22, 2**23 - 1], dtype="<i4")
    samples = pcm.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()  # the low 3 bytes of each
    (tmp_path / "x.wav").write_bytes(_riff(_fmt(F.WAVE_FORMAT_PCM, 1, 3, 24), samples))
    assert np.array_equal(F.load_audio(tmp_path / "x.wav"), [-1.0, -0.5, 0.0, 0.5, 1 - 2.0**-23])


@pytest.mark.parametrize("n", [0, 1001])
def test_write_wav_writes_the_bytes_of_scipy(tmp_path, n):
    wav = np.random.default_rng(9).uniform(-1.1, 1.1, n)
    F.write_wav(tmp_path / "ours.wav", wav, 44100)
    wavfile.write(tmp_path / "scipy.wav", 44100, np.clip(np.round(wav * 32767.0), -32768, 32767).astype(np.int16))
    assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()


def test_load_audio_rejects_a_truncated_file_naming_both_byte_counts(tmp_path):
    F.write_wav(tmp_path / "whole.wav", sine(440, dur=0.5), SR)
    raw = (tmp_path / "whole.wav").read_bytes()
    (tmp_path / "cut.wav").write_bytes(raw[:-1001])
    n = len(raw) - 44
    with pytest.raises(F.AudioIOError, match=rf"cut\.wav: truncated file: its data chunk holds {n} bytes, but only {n - 1001} follow"):
        F.load_audio(tmp_path / "cut.wav")


@pytest.mark.parametrize("head", [b"RF64", b"RIFX"])
def test_load_audio_rejects_other_containers_naming_the_file(tmp_path, head):
    F.write_wav(tmp_path / "x.wav", sine(440, dur=0.1), SR)
    (tmp_path / "x.wav").write_bytes(head + (tmp_path / "x.wav").read_bytes()[4:])
    with pytest.raises(F.AudioIOError, match=rf"cannot read audio file .*x\.wav: not a RIFF WAVE file"):
        F.load_audio(tmp_path / "x.wav")


@pytest.mark.parametrize("file_sr, up, down", [(44100, 1, 2), (48000, 147, 320)], ids=["44100", "48000"])
def test_resample_preserves_dominant_frequency(tmp_path, file_sr, up, down):
    from scipy.io import wavfile
    from scipy.signal import resample_poly

    t = np.arange(file_sr) / file_sr
    F.write_wav(tmp_path / "hi.wav", 0.3 * np.sin(2 * np.pi * 440 * t), file_sr)
    wav = F.load_audio(tmp_path / "hi.wav", target_sr=SR)
    spec = np.abs(np.fft.rfft(wav * np.hanning(len(wav))))
    freqs = np.fft.rfftfreq(len(wav), 1.0 / SR)
    assert abs(freqs[np.argmax(spec)] - 440.0) < 1.0
    # the same call and arguments as a direct resample_poly, bit for bit
    pcm = wavfile.read(tmp_path / "hi.wav")[1].astype(np.float64) / 32768.0
    assert wav.tobytes() == resample_poly(pcm, up, down).tobytes()


def test_only_a_resampled_file_imports_scipy_signal(tmp_path):
    F.write_wav(tmp_path / "model_rate.wav", sine(440, dur=0.2), SR)
    F.write_wav(tmp_path / "cd_rate.wav", sine(440, dur=0.2, sr=44100), 44100)
    probe = (
        "import sys\n"
        "import notetune.cli\n"
        "from notetune.features import load_audio\n"
        "load_audio(sys.argv[1])\n"
        "print('scipy.signal' in sys.modules)\n"
        "load_audio(sys.argv[2])\n"
        "print('scipy.signal' in sys.modules)\n"
    )
    # a fresh interpreter: the test process has imported scipy.signal itself
    out = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path / "model_rate.wav"), str(tmp_path / "cd_rate.wav")],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["False", "True"]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_load_audio_rejects_non_finite_samples(tmp_path, bad):
    from scipy.io import wavfile

    pcm = np.float32(sine(440, dur=0.1))
    pcm[100] = bad
    wavfile.write(tmp_path / "x.wav", SR, pcm)
    with pytest.raises(F.AudioIOError, match=r"non-finite samples .* in audio file .*x\.wav"):
        F.load_audio(tmp_path / "x.wav")


def test_load_audio_of_a_16_bit_mono_take_holds_its_samples_and_one_float_copy(tmp_path):
    n = 30 * SR
    F.write_wav(tmp_path / "x.wav", sine(440, dur=30.0), SR)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        wav = F.load_audio(tmp_path / "x.wav")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(wav) == n
    # the int16 samples and their float64 copy are 10 bytes a sample; a
    # take-long bool array of the finiteness check would add one more
    assert peak - held < 10.5 * n


def test_load_unreadable_file_raises(tmp_path):
    bad = tmp_path / "nope.wav"
    bad.write_bytes(b"not audio at all")
    with pytest.raises(F.AudioIOError):
        F.load_audio(bad)
    with pytest.raises(F.AudioIOError):
        F.load_audio(tmp_path / "missing.wav")


def test_track_pitch_a4():
    pitch, voiced = F.track_pitch(sine(440))
    inner = pitch[5:-5]
    assert np.all(voiced[5:-5] == 1)
    assert np.nanmax(np.abs(inner - 69.0)) < 0.05


def test_track_pitch_octave_down():
    pitch, _ = F.track_pitch(sine(220))
    assert abs(np.nanmean(pitch[5:-5]) - 57.0) < 0.05


def test_track_pitch_vibrato_follows_generator_phase():
    t = np.arange(SR * 2) / SR
    inst = 440 * 2 ** (0.5 * np.sin(2 * np.pi * 5 * t) / 12)
    wav = 0.3 * np.sin(2 * np.pi * np.cumsum(inst) / SR)
    pitch, _ = F.track_pitch(wav)
    centers = np.arange(len(pitch)) * 256 / SR
    expected = 69 + 0.5 * np.sin(2 * np.pi * 5 * centers)
    err = np.abs(pitch - expected)[8:-8]
    assert np.nanmax(err) < 0.1


def test_track_pitch_silence_is_unvoiced():
    pitch, voiced = F.track_pitch(np.zeros(SR))
    assert voiced.sum() == 0
    assert np.all(np.isnan(pitch))


def test_semitone_conversion_invertible():
    p = np.linspace(30, 100, 200)
    assert np.allclose(F.hz_to_semitones(F.semitones_to_hz(p)), p, atol=1e-12)


def test_octave_error_rate_below_1_percent():
    wrong = total = 0
    for f0 in (196.0, 261.63, 329.63, 440.0, 523.25):
        pitch, voiced = F.track_pitch(harmonic(f0))
        expected = F.hz_to_semitones(f0)
        vals = pitch[voiced.astype(bool)]
        wrong += int((np.abs(vals - expected) > 6).sum())
        total += len(vals)
    assert total > 0
    assert wrong / total < 0.01


def test_mel_silence_at_log_floor():
    mel = F.mel_spectrogram(np.zeros(SR))
    assert np.allclose(mel, F.LOG_FLOOR)


def test_mel_dominant_band_matches_filterbank():
    mel = F.mel_spectrogram(sine(1000))
    fb = F.mel_filterbank(SR, 1024, 80)
    freqs = np.fft.rfftfreq(1024, 1.0 / SR)
    expected_band = np.argmax(fb[:, np.argmin(np.abs(freqs - 1000.0))])
    inner = mel[5:-5]
    assert (inner.argmax(axis=1) == expected_band).mean() > 0.9


def test_frame_count_convention():
    wav = sine(300, dur=1.234)
    mel = F.mel_spectrogram(wav)
    pitch, voiced = F.track_pitch(wav)
    expected_T = 1 + len(wav) // 256
    assert mel.shape == (expected_T, 80)
    assert len(pitch) == len(voiced) == expected_T


def test_mel_rejects_too_short_input():
    with pytest.raises(ValueError):
        F.mel_spectrogram(np.zeros(100))


def test_extract_track_consistent_and_cache_roundtrip(tmp_path):
    track = F.extract_track(sine(330))
    assert track.mel.shape[0] == track.n_frames
    v = track.voiced.astype(bool)
    assert np.all(np.isfinite(track.pitch_semitones[v]))
    assert np.all(np.isnan(track.pitch_semitones[~v]))
    path = tmp_path / "track.npz"
    F.save_track(path, track)
    loaded = F.load_track(path)
    assert np.array_equal(loaded.pitch_semitones, track.pitch_semitones, equal_nan=True)
    assert np.array_equal(loaded.mel, track.mel)
    assert loaded.sample_rate == track.sample_rate


def test_track_cache_key_hashes_the_take_without_copying_it():
    wav = np.random.default_rng(30).normal(scale=0.1, size=30 * 22050)
    settings = [22050, 256, 1024, 80, F.TRACK_FORMAT_VERSION, F.YIN_FMIN, F.YIN_FMAX, F.YIN_THRESHOLD,
                F.YIN_INTEGRATION, F.RMS_FLOOR_DB, F.MEL_FMIN, F.LOG_FLOOR_EPS, F.PITCH_GRID]
    formula = hashlib.sha256(wav.tobytes())
    formula.update(json.dumps(settings).encode())
    tracemalloc.start()
    try:
        key = F.track_cache_key(wav, 22050, 256, 1024, 80)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert key == formula.hexdigest()[:24]
    assert peak < 0.05 * wav.nbytes, (peak, wav.nbytes)
    # a view that is not contiguous hashes its elements in order, as tobytes() gives them
    wide = np.repeat(wav, 2)
    assert F.track_cache_key(wide[::2], 22050, 256, 1024, 80) == key


def test_frame_track_keeps_uint8_voicing_as_a_bool_mask():
    track = make_track([60.0, np.nan, 61.0], voiced=np.array([1, 0, 1], dtype=np.uint8))
    assert track.voiced.dtype == bool
    assert track.voiced.tolist() == [True, False, True]


def test_save_track_writes_voicing_as_uint8_and_loads_the_same_mask(tmp_path):
    track = make_track(_sung_pitch())
    F.save_track(tmp_path / "track.npz", track)
    assert load_npz(tmp_path / "track.npz")["voiced"].dtype == np.uint8
    loaded = F.load_track(tmp_path / "track.npz")
    assert loaded.voiced.dtype == bool
    assert np.array_equal(loaded.voiced, track.voiced)


def _sung_pitch():
    rng = np.random.default_rng(3)
    pitch = 61.3 + 0.5 * np.sin(np.linspace(0, 6, 50)) + rng.normal(0, 0.05, 50)
    pitch[[0, 7, 8, 49]] = np.nan
    return pitch


def test_frame_track_pitch_grid_keeps_input_and_nan():
    pitch = _sung_pitch()
    before = pitch.tobytes()
    track = make_track(pitch)
    assert pitch.tobytes() == before
    assert track.pitch_semitones is not pitch
    voiced = np.isfinite(pitch)
    assert np.array_equal(np.isnan(track.pitch_semitones), ~voiced)
    snapped = track.pitch_semitones[voiced]
    assert np.array_equal(snapped * 2.0**32, np.round(snapped * 2.0**32))
    assert np.all(np.abs(snapped - pitch[voiced]) <= 2.0**-33)


def test_frame_track_pitch_grid_idempotent():
    track = make_track(_sung_pitch())
    again = make_track(track.pitch_semitones, voiced=track.voiced)
    assert again.pitch_semitones.tobytes() == track.pitch_semitones.tobytes()


def test_track_roundtrip_keeps_pitch_bytes(tmp_path):
    track = make_track(_sung_pitch())
    F.save_track(tmp_path / "track.npz", track)
    loaded = F.load_track(tmp_path / "track.npz")
    assert loaded.pitch_semitones.dtype == np.float64
    assert loaded.pitch_semitones.tobytes() == track.pitch_semitones.tobytes()


def test_pitch_filled_fills_gaps():
    pitch = np.array([np.nan, 60.0, np.nan, np.nan, 63.0, np.nan])
    voiced = np.array([0, 1, 0, 0, 1, 0], dtype=np.uint8)
    track = make_track(pitch, voiced)
    assert np.allclose(track.pitch_filled, [60.0, 60.0, 61.0, 62.0, 63.0, 63.0])


def test_pitch_filled_without_voiced_frames_is_60():
    track = make_track(np.full(5, np.nan))
    assert np.array_equal(track.pitch_filled, np.full(5, 60.0))


def test_track_roundtrip_keeps_pitch_filled_bytes(tmp_path):
    track = make_track(_sung_pitch())
    F.save_track(tmp_path / "track.npz", track)
    loaded = F.load_track(tmp_path / "track.npz")
    assert loaded.pitch_filled.tobytes() == track.pitch_filled.tobytes()


def gliding_take(seconds, seed):
    """A tone gliding over +-half an octave around 220 Hz in noise, near
    silent for 0.6 s of every 3 s, so voiced and unvoiced frames alternate."""
    rng = np.random.default_rng(seed)
    t = np.arange(int(SR * seconds)) / SR
    f0 = 220.0 * 2.0 ** (0.5 * np.sin(2 * np.pi * 0.2 * t))
    wav = 0.3 * np.sin(2 * np.pi * np.cumsum(f0) / SR) + 0.02 * rng.normal(size=len(t))
    wav[t % 3.0 > 2.4] *= 1e-3
    return wav


def test_track_pitch_gridded_bytes_pinned_on_a_long_take():
    # 2584 frames span several YIN chunks.  The raw f0 depends on the FFT
    # length at the 1e-14 level, so the pin is on what a FrameTrack keeps:
    # the pitch on its 2^-32 grid, and the voicing
    pitch, voiced = F.track_pitch(gliding_take(30.0, 7))
    assert len(pitch) == 2584 and voiced.sum() == 2078
    gridded = np.round(pitch / F.PITCH_GRID) * F.PITCH_GRID
    digest = hashlib.sha256(gridded.tobytes() + voiced.tobytes()).hexdigest()
    assert digest == "9cf4bb46f9261578dcf5bf36062fc46a609ac2386d349d1f4ef7abb28e50a6a4"


def _whole_span(wav):
    """The padded samples of every analysis frame of `wav`, as one span."""
    frame_len = F._yin_lags(SR)[3]
    return F._pad_signal(wav, frame_len)[: (F.frame_count(len(wav)) - 1) * 256 + frame_len]


def _one_yin_call(wav):
    """track_pitch's result computed by a single _yin_rows call on this thread."""
    f0, voiced = F._yin_rows(_whole_span(wav), SR, 256)
    v = voiced.astype(bool)
    pitch = np.full(len(f0), np.nan)
    pitch[v] = F.hz_to_semitones(f0[v])
    return pitch, voiced


def test_track_pitch_chunks_match_one_call_over_all_frames():
    # a 30 s take spans many chunks; the short takes end at the chunk edges
    C = F.YIN_CHUNK
    takes = [(2584, gliding_take(30.0, 7))] + [
        (T, gliding_take(T * 256 / SR, 3)[: (T - 1) * 256 + 100]) for T in (1, C - 1, C, C + 1, 2 * C + 1)]
    assert takes[0][0] > 4 * C
    for T, wav in takes:
        pitch, voiced = F.track_pitch(wav)
        assert len(pitch) == T
        whole_pitch, whole_voiced = _one_yin_call(wav)
        assert voiced.tobytes() == whole_voiced.tobytes()
        assert pitch.tobytes() == whole_pitch.tobytes()


def test_track_pitch_same_bytes_inside_a_thread_pool():
    # stage_extract tracks its songs one after another on one pool it owns
    wavs = [gliding_take(6.0, seed) for seed in (1, 2, 3, 4)]
    with ThreadPoolExecutor(2) as pool:
        pooled = [F.track_pitch(wav, pool=pool) for wav in wavs]
    for wav, (pitch, voiced) in zip(wavs, pooled):
        whole_pitch, whole_voiced = _one_yin_call(wav)
        assert voiced.tobytes() == whole_voiced.tobytes()
        assert pitch.tobytes() == whole_pitch.tobytes()


@pytest.mark.parametrize("cpus", [None, 1, 2, 64])
def test_track_pitch_starts_one_thread_per_cpu_up_to_the_cap(monkeypatch, cpus):
    counts = []
    yin_rows = F._yin_rows

    def counting_yin_rows(*args):
        counts.append(threading.active_count())
        return yin_rows(*args)

    monkeypatch.setattr(F, "_yin_rows", counting_yin_rows)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    start = threading.active_count()
    pitch, _ = F.track_pitch(gliding_take(30.0, 7))
    assert len(counts) == -(-len(pitch) // F.YIN_CHUNK)
    assert max(counts) <= start + min(cpus or 1, F.YIN_THREADS)
    assert threading.active_count() == start


def test_fft_lag_products_match_direct_dot_products():
    # rows of one call over all frames, and the last frame of the first
    # chunk, whose window ends in blocks that the next chunk starts with
    wav = gliding_take(30.0, 7)
    _, tau_max, pad0, frame_len = F._yin_lags(SR)
    W, C = F.YIN_INTEGRATION, F.YIN_CHUNK
    frames = yin_reference._frame_signal(wav, frame_len, 256, F.frame_count(len(wav)))
    rows = np.arange(0, len(frames), 97)
    corr, energy = (a[rows] for a in F._lag_products(_whole_span(wav), SR, 256))
    edge = F._lag_products(_whole_span(wav)[: (C - 1) * 256 + frame_len], SR, 256)
    assert len(edge[0]) == C
    corr, energy = np.vstack([corr, edge[0][-1:]]), np.vstack([energy, edge[1][-1:]])
    rows = np.append(rows, C - 1)
    for lag in (0, 1, tau_max):
        direct = [np.dot(f[pad0 : pad0 + W], f[pad0 + lag : pad0 + lag + W]) for f in frames[rows]]
        assert np.max(np.abs(corr[:, lag] - direct)) < 1e-9
        direct = [np.dot(f[pad0 + lag : pad0 + lag + W], f[pad0 + lag : pad0 + lag + W]) for f in frames[rows]]
        assert np.max(np.abs(energy[:, lag] - direct)) < 1e-9


@pytest.mark.parametrize("hop", [128, 160, 255, 256])
def test_track_pitch_matches_the_per_frame_reference(hop):
    # takes of 1, C - 1, C, C + 1 and 2C + 1 frames, one shorter than an
    # analysis frame (zero-padded, not reflected) and silence
    C = F.YIN_CHUNK
    frame_len = F._yin_lags(SR)[3]
    takes = [gliding_take(T * hop / SR, 3)[: (T - 1) * hop + 100] for T in (1, C - 1, C, C + 1, 2 * C + 1)]
    takes += [gliding_take(1.0, 4)[: frame_len - 200], np.zeros(SR)]
    grid = lambda p: np.round(p / F.PITCH_GRID) * F.PITCH_GRID
    n_voiced = []
    for wav in takes:
        pitch, voiced = F.track_pitch(wav, SR, hop)
        ref_pitch, ref_voiced = yin_reference.reference_track_pitch(wav, SR, hop)
        assert voiced.tobytes() == ref_voiced.tobytes()
        assert grid(pitch).tobytes() == grid(ref_pitch).tobytes()
        assert np.all(np.abs(pitch[voiced] - ref_pitch[voiced]) < 1e-12)
        n_voiced.append(voiced.sum())
    assert min(n_voiced[1:5]) > C // 2 and n_voiced[-1] == 0


def test_track_pitch_memory_is_bounded_on_a_minute_of_audio():
    wav = gliding_take(60.0, 7)
    tracemalloc.start()
    try:
        F.track_pitch(wav)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 160e6


def test_track_pitch_chunks_keep_the_peak_small_on_a_minute_of_audio(monkeypatch):
    # 64-frame chunks on YIN_THREADS threads: 15.6 MB traced on 60 s, however
    # many CPUs the host has; 512-frame chunks take 47 MB
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    wav = gliding_take(60.0, 7)
    tracemalloc.start()
    try:
        F.track_pitch(wav)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6


def test_mel_bytes_pinned_on_a_long_take():
    # the digest of the whole-take computation: chunking moves no bit
    mel = F.mel_spectrogram(gliding_take(30.0, 7))
    assert mel.shape == (2584, 80)
    digest = hashlib.sha256(mel.tobytes()).hexdigest()
    assert digest == "cb24ff43ab347456632434648676ccebd629238d40c578bdc1d42c539ce11d8f"


@pytest.mark.parametrize("T", [513, 514, 1040])
def test_mel_chunks_match_one_pass_when_the_last_chunk_is_short(T, monkeypatch):
    wav = gliding_take((T - 1) * 256 / SR, 5)
    assert F.frame_count(len(wav)) == T
    chunked = F.mel_spectrogram(wav)
    monkeypatch.setattr(F, "YIN_CHUNK", T)
    assert chunked.tobytes() == F.mel_spectrogram(wav).tobytes()


def test_mel_memory_is_bounded_on_a_minute_of_audio():
    wav = gliding_take(60.0, 7)
    tracemalloc.start()
    try:
        F.mel_spectrogram(wav)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_write_wav_bytes_match_the_two_temporary_expression(tmp_path):
    # exact halves after scaling: the candidates whose product is k + 0.5 exactly
    halves = (np.arange(-40, 40) + 0.5) / 32767.0
    halves = halves[halves * 32767.0 == np.arange(-40, 40) + 0.5]
    wav = np.concatenate([[-1.5, -1.0, -1.0000001, 1.0, 1.0000001, 2.0, 0.0, -0.0], halves,
                          np.random.default_rng(3).uniform(-1.2, 1.2, 1000)])
    assert len(halves) > 20
    F.write_wav(tmp_path / "w.wav", wav, SR)
    _sr, pcm = wavfile.read(tmp_path / "w.wav")
    assert pcm.tobytes() == np.clip(np.round(wav * 32767.0), -32768, 32767).astype(np.int16).tobytes()


def _one_buffer_wav_bytes(wav, sr):
    """The RIFF file of the whole take scaled, rounded and clipped in one
    float buffer and converted at once."""
    pcm = np.multiply(wav, 32767.0)
    np.round(pcm, out=pcm)
    np.clip(pcm, -32768, 32767, out=pcm)
    samples = pcm.astype("<i2").tobytes()
    n = len(samples)
    return struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + n, b"WAVE", b"fmt ", 16,
                       F.WAVE_FORMAT_PCM, 1, sr, 2 * sr, 2, 16, b"data", n) + samples


@pytest.mark.parametrize("n", [0, 1, F.WAV_BLOCK - 1, F.WAV_BLOCK, F.WAV_BLOCK + 1])
def test_write_wav_in_blocks_writes_the_one_buffer_bytes(tmp_path, n):
    # half the samples beyond +-1, so both clips act in every block
    wav = np.random.default_rng(n).uniform(-2.0, 2.0, n)
    F.write_wav(tmp_path / "w.wav", wav, SR)
    assert (tmp_path / "w.wav").read_bytes() == _one_buffer_wav_bytes(wav, SR)


def test_write_wav_holds_one_float_buffer_beside_the_samples(tmp_path):
    # 60 s: the samples take 10.6 MB; scaling, rounding and clipping in one
    # float64 buffer plus the int16 cast peak at 13.2 MB traced above them,
    # where round and clip in two temporaries peaked at 21.2 MB
    wav = gliding_take(60.0, 7)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        F.write_wav(tmp_path / "long.wav", wav, SR)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * wav.nbytes, (peak / 1e6, wav.nbytes / 1e6)
