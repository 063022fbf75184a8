"""Frame-level inputs for the note models: pitch track, voicing, mel-spectrogram.

All tracks for one recording share the same frame count T = 1 + len // hop,
with frame i centered at sample i * hop (reflect padding at the edges).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.io import wavfile
from scipy.signal import resample_poly

DEFAULT_SR = 22050
DEFAULT_HOP = 256
DEFAULT_WIN = 1024
DEFAULT_N_MELS = 80
LOG_FLOOR_EPS = 1e-10

TRACK_FORMAT_VERSION = 1
PITCH_GRID = 2.0**-32  # semitones; see FrameTrack

# YIN search range and decision rule (see track_pitch)
YIN_FMIN = 55.0
YIN_FMAX = 1000.0
YIN_THRESHOLD = 0.15
YIN_INTEGRATION = 1024
RMS_FLOOR_DB = -50.0
MEL_FMIN = 40.0


class AudioIOError(IOError):
    pass


@dataclass
class FrameTrack:
    """Per-frame pitch (semitones, NaN where unvoiced), voicing and mel
    [T, n_mels].

    The track keeps its own float64 copy of the pitch, rounded to the
    nearest multiple of PITCH_GRID = 2^-32 semitones (at most 2^-33 away,
    about 1e-8 cents); NaN stays NaN and the caller's array is untouched.
    On this grid a pitch minus any delta on the corrector's 2^-13 grid is
    exact in float64 whenever the result is below 2^21 in magnitude, even
    when it crosses a power of two, so a correction plan moves every frame
    of a note by exactly its delta.
    Rounding is idempotent, so saved tracks load back bit for bit.

    `pitch_filled` is the gridded pitch with unvoiced gaps filled by linear
    interpolation between voiced frames (held flat before the first and
    after the last), or 60.0 everywhere when no frame is voiced.  It is
    derived, so it is not saved.
    """

    sample_rate: int
    hop: int
    pitch_semitones: np.ndarray
    voiced: np.ndarray
    mel: np.ndarray
    pitch_filled: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pitch = np.asarray(self.pitch_semitones, dtype=np.float64)
        self.pitch_semitones = np.round(pitch / PITCH_GRID) * PITCH_GRID
        T = len(self.pitch_semitones)
        if len(self.voiced) != T or self.mel.shape[0] != T:
            raise ValueError("pitch, voicing and mel tracks must share one frame count")
        if self.hop <= 0:
            raise ValueError("hop must be positive")
        v = np.asarray(self.voiced, dtype=bool)
        idx = np.arange(T)
        self.pitch_filled = (
            np.interp(idx, idx[v], self.pitch_semitones[v]) if v.any() else np.full(T, 60.0)
        )

    @property
    def n_frames(self) -> int:
        return len(self.pitch_semitones)

    def frame_time(self, frame) -> np.ndarray:
        return np.asarray(frame) * self.hop / self.sample_rate


def frame_count(n_samples: int, hop: int = DEFAULT_HOP) -> int:
    return 1 + n_samples // hop


def hz_to_semitones(f0):
    return 69.0 + 12.0 * np.log2(np.asarray(f0, dtype=np.float64) / 440.0)


def semitones_to_hz(p):
    return 440.0 * np.exp2((np.asarray(p, dtype=np.float64) - 69.0) / 12.0)


# ---- audio I/O --------------------------------------------------------------

def load_audio(path, target_sr: int = DEFAULT_SR) -> np.ndarray:
    """Read a WAV file as mono float64 at `target_sr` (channel-averaged)."""
    path = Path(path)
    try:
        file_sr, data = wavfile.read(path)
    except Exception as exc:
        raise AudioIOError(f"cannot read audio file {path}: {exc}") from exc
    if data.dtype == np.int16:
        wav = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        wav = data.astype(np.float64) / 2147483648.0
    elif data.dtype == np.uint8:
        wav = (data.astype(np.float64) - 128.0) / 128.0
    elif data.dtype in (np.float32, np.float64):
        wav = data.astype(np.float64)
    else:
        raise AudioIOError(f"unsupported WAV sample format {data.dtype} in {path}")
    if wav.ndim == 2:
        wav = wav.mean(axis=1)
    if file_sr != target_sr:
        g = np.gcd(int(file_sr), int(target_sr))
        wav = resample_poly(wav, target_sr // g, file_sr // g)
    return wav


def write_wav(path, wav: np.ndarray, sr: int = DEFAULT_SR):
    """Write mono float waveform as 16-bit PCM."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    pcm = np.clip(np.round(wav * 32767.0), -32768, 32767).astype(np.int16)
    wavfile.write(path, sr, pcm)


# ---- pitch tracking ----------------------------------------------------------

def _frame_signal(wav: np.ndarray, frame_len: int, hop: int, n_frames: int) -> np.ndarray:
    half = frame_len // 2
    mode = "reflect" if len(wav) > max(half, frame_len) else "constant"
    padded = np.pad(wav, (half, frame_len), mode=mode)
    s = padded.strides[0]
    return as_strided(padded, shape=(n_frames, frame_len), strides=(hop * s, s))


def track_pitch(wav: np.ndarray, sr: int = DEFAULT_SR, hop: int = DEFAULT_HOP):
    """Per-frame f0 via the cumulative-mean-normalized difference function.

    Returns (pitch_semitones[T], voiced[T]); unvoiced frames hold NaN pitch.
    The lag search covers YIN_FMIN..YIN_FMAX Hz over a YIN_INTEGRATION-sample
    window.  A frame counts as voiced when its best normalized-difference
    trough is below YIN_THRESHOLD and the local RMS exceeds RMS_FLOOR_DB dBFS.
    """
    if len(wav) == 0:
        raise ValueError("empty waveform")
    tau_min = max(2, int(sr / YIN_FMAX))
    tau_max = int(np.ceil(sr / YIN_FMIN))
    W = YIN_INTEGRATION
    # Offset of the comparison region inside each analysis frame, chosen so
    # that typical singing lags (~100 samples) sit centered on the frame.
    pad0 = max(0, tau_max - 101)
    frame_len = pad0 + W + tau_max + 1
    T = frame_count(len(wav), hop)
    frames = _frame_signal(wav, frame_len, hop, T)

    nfft = 1 << int(np.ceil(np.log2(frame_len + tau_max + 1)))
    head = frames[:, pad0 : pad0 + W]
    spec_all = np.fft.rfft(frames, nfft)
    spec_head = np.fft.rfft(head, nfft)
    corr = np.fft.irfft(np.conj(spec_head) * spec_all, nfft)[:, pad0 : pad0 + tau_max + 1]

    sq = np.cumsum(frames * frames, axis=1)
    taus = np.arange(tau_max + 1)
    hi = sq[:, pad0 + W - 1 + taus]
    lo = np.where(pad0 + taus > 0, sq[:, np.maximum(pad0 + taus - 1, 0)], 0.0)
    energy = hi - lo
    e_head = energy[:, 0:1]
    diff = e_head + energy - 2.0 * corr
    diff = np.maximum(diff, 0.0)

    # cumulative mean normalization
    cmndf = np.ones_like(diff)
    csum = np.cumsum(diff[:, 1:], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cmndf[:, 1:] = diff[:, 1:] * taus[1:] / np.where(csum > 0, csum, np.inf)

    region = cmndf[:, tau_min : tau_max + 1]
    interior = region[:, 1:-1]
    is_min = (interior <= region[:, :-2]) & (interior <= region[:, 2:])
    candidates = np.where(is_min, interior, np.inf)
    below = candidates < YIN_THRESHOLD
    any_below = below.any(axis=1)
    first_below = np.argmax(below, axis=1)
    global_min = np.argmin(candidates, axis=1)
    pick = np.where(any_below, first_below, global_min)
    tau_star = pick + tau_min + 1

    rows = np.arange(T)
    d0 = cmndf[rows, tau_star - 1]
    d1 = cmndf[rows, tau_star]
    d2 = cmndf[rows, np.minimum(tau_star + 1, tau_max)]
    denom = d0 - 2.0 * d1 + d2
    safe = np.where(np.abs(denom) > 1e-12, denom, 1.0)
    shift = np.where(np.abs(denom) > 1e-12, 0.5 * (d0 - d2) / safe, 0.0)
    shift = np.clip(shift, -0.5, 0.5)
    tau_refined = tau_star + shift

    f0 = sr / tau_refined
    center = frame_len // 2
    rms = np.sqrt(np.mean(frames[:, center - W // 2 : center + W // 2] ** 2, axis=1))
    with np.errstate(divide="ignore"):
        rms_db = 20.0 * np.log10(np.where(rms > 0, rms, 1e-12))
    voiced = (any_below & (rms_db > RMS_FLOOR_DB)).astype(np.uint8)

    pitch = np.full(T, np.nan)
    v = voiced.astype(bool)
    pitch[v] = hz_to_semitones(f0[v])
    return pitch, voiced


# ---- mel spectrogram ---------------------------------------------------------

def mel_filterbank(sr: int, n_fft: int, n_mels: int):
    """Triangular filters on the HTK mel scale from MEL_FMIN to Nyquist,
    [n_mels, n_fft // 2 + 1]."""
    to_mel = lambda f: 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)
    from_mel = lambda m: 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)
    mel_pts = np.linspace(to_mel(MEL_FMIN), to_mel(sr / 2.0), n_mels + 2)
    hz_pts = from_mel(mel_pts)
    freqs = np.fft.rfftfreq(n_fft, 1.0 / sr)
    fb = np.zeros((n_mels, len(freqs)))
    for i in range(n_mels):
        left, center, right = hz_pts[i], hz_pts[i + 1], hz_pts[i + 2]
        up = (freqs - left) / max(center - left, 1e-9)
        down = (right - freqs) / max(right - center, 1e-9)
        fb[i] = np.maximum(0.0, np.minimum(up, down))
    return fb


def mel_spectrogram(
    wav: np.ndarray,
    sr: int = DEFAULT_SR,
    hop: int = DEFAULT_HOP,
    win: int = DEFAULT_WIN,
    n_mels: int = DEFAULT_N_MELS,
) -> np.ndarray:
    """Log mel magnitude spectrogram [T, n_mels] on the shared frame grid."""
    if len(wav) < win:
        raise ValueError(f"waveform shorter than the analysis window ({len(wav)} < {win})")
    T = frame_count(len(wav), hop)
    frames = _frame_signal(wav, win, hop, T) * np.hanning(win)
    mag = np.abs(np.fft.rfft(frames, win))
    fb = mel_filterbank(sr, win, n_mels)
    return np.log(mag @ fb.T + LOG_FLOOR_EPS)


LOG_FLOOR = float(np.log(LOG_FLOOR_EPS))


# ---- full extraction + cache --------------------------------------------------

def extract_track(
    wav: np.ndarray,
    sr: int = DEFAULT_SR,
    hop: int = DEFAULT_HOP,
    win: int = DEFAULT_WIN,
    n_mels: int = DEFAULT_N_MELS,
) -> FrameTrack:
    pitch, voiced = track_pitch(wav, sr=sr, hop=hop)
    mel = mel_spectrogram(wav, sr=sr, hop=hop, win=win, n_mels=n_mels)
    return FrameTrack(sample_rate=sr, hop=hop, pitch_semitones=pitch, voiced=voiced, mel=mel)


def save_track(path, track: FrameTrack):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        np.savez(
            fh,
            version=np.int64(TRACK_FORMAT_VERSION),
            sample_rate=np.int64(track.sample_rate),
            hop=np.int64(track.hop),
            pitch=track.pitch_semitones,
            voiced=track.voiced,
            mel=track.mel,
        )


def load_track(path) -> FrameTrack:
    with np.load(path) as zf:
        if int(zf["version"]) != TRACK_FORMAT_VERSION:
            raise IOError(f"unsupported feature-cache version in {path}")
        return FrameTrack(
            sample_rate=int(zf["sample_rate"]),
            hop=int(zf["hop"]),
            pitch_semitones=zf["pitch"],
            voiced=zf["voiced"],
            mel=zf["mel"],
        )
