"""Frame-level inputs for the note models: pitch track, voicing, mel-spectrogram.

All tracks for one recording share the same frame count T = 1 + len // hop,
with frame i centered at sample i * hop (reflect padding at the edges).
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .nncore import load_npz, save_npz

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
# track_pitch and mel_spectrogram work on this many frames at a time: the
# FFT arrays of one chunk (for YIN at hop 256, 67 blocks of 1024 points,
# about 0.5 MB per array) stay in cache, temporaries stay bounded for any
# length of audio, and track_pitch has enough chunks to share among its
# threads.  Neither result's bytes depend on it.
YIN_CHUNK = 64
# track_pitch runs at most this many chunks at once (fewer on fewer CPUs),
# so its peak memory, the padded take plus one chunk's temporaries (about
# 2.5 MB) per thread, does not grow with the host: 15.6 MB traced on 60 s.
# On 2 CPUs, 2 threads take track_pitch on 60 s from 0.19 to 0.125 s; more
# were never measured.
YIN_THREADS = 2
MEL_FMIN = 40.0


class AudioIOError(IOError):
    pass


@dataclass
class FrameTrack:
    """Per-frame pitch (semitones, NaN where unvoiced), voicing (a bool
    mask; `save_track` writes it as uint8) and mel [T, n_mels].

    The track keeps its own float64 copy of the pitch, rounded to the
    nearest multiple of PITCH_GRID = 2^-32 semitones (at most 2^-33 away,
    about 1e-8 cents); NaN stays NaN and the caller's array is untouched.
    On this grid a pitch minus any delta on the corrector's 2^-13 grid is
    exact in float64 whenever the result is below 2^21 in magnitude, even
    when it crosses a power of two, so the shift that `shift_audio` reads
    off a plan, target minus pitch, is exactly minus its note's delta.
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
        self.voiced = v = np.asarray(self.voiced, dtype=bool)
        T = len(self.pitch_semitones)
        if len(v) != T or self.mel.shape[0] != T:
            raise ValueError("pitch, voicing and mel tracks must share one frame count")
        if self.hop <= 0:
            raise ValueError("hop must be positive")
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

WAVE_FORMAT_PCM = 0x0001
WAVE_FORMAT_IEEE_FLOAT = 0x0003
WAVE_FORMAT_EXTENSIBLE = 0xFFFE
WAV_BLOCK = 65536  # samples `write_wav` scales, rounds, clips and converts at a time
# the last 12 bytes of a KSDATAFORMAT_SUBTYPE GUID whose first 4 hold the tag
_SUBFORMAT_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _parse_fmt(body: bytes) -> tuple[int, int, str, int]:
    """Sample rate, channel count, numpy dtype and sample width in bytes
    from a `fmt ` chunk body, as `scipy.io.wavfile` reads them."""
    if len(body) < 16:
        raise ValueError(f"fmt chunk of {len(body)} bytes, fewer than 16")
    tag, channels, rate, _, block_align, bits = struct.unpack("<HHIIHH", body[:16])
    if tag == WAVE_FORMAT_EXTENSIBLE and len(body) >= 40 and body[28:40] == _SUBFORMAT_GUID_TAIL:
        tag = struct.unpack("<I", body[24:28])[0]
    if channels == 0 or block_align < channels:
        raise ValueError(f"{channels} channels in blocks of {block_align} bytes")
    width = block_align // channels
    if tag == WAVE_FORMAT_PCM:
        if bits <= 8:
            return rate, channels, "u1", width
        if width in (2, 3, 4):
            return rate, channels, "<i2" if width == 2 else "<i4", width
        raise ValueError(f"unsupported WAV sample format int{8 * width}")
    if tag == WAVE_FORMAT_IEEE_FLOAT and bits in (32, 64):
        return rate, channels, f"<f{width}", width
    raise ValueError(f"unsupported WAV sample format: tag {tag:#06x}, {bits} bits")


def _read_wav(path: Path) -> tuple[int, np.ndarray]:
    """Sample rate and samples [n] or [n, channels] of a RIFF WAVE file.

    Walks the chunks, reads `fmt ` and the samples of the first `data`
    chunk after it, and skips any other chunk and its pad byte.  The
    samples are read straight into their array.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        riff = f.read(12)
        if riff[:4] != b"RIFF" or riff[8:12] != b"WAVE":
            raise ValueError(f"not a RIFF WAVE file (it starts {riff[:4]!r})")
        fmt = None
        while len(head := f.read(8)) == 8:
            chunk, n = head[:4], struct.unpack("<I", head[4:])[0]
            if chunk == b"fmt ":
                fmt = _parse_fmt(f.read(n))
                f.seek(n & 1, os.SEEK_CUR)
            elif chunk == b"data":
                if fmt is None:
                    raise ValueError("data chunk before the fmt chunk")
                left = size - f.tell()
                if n > left:
                    raise ValueError(f"truncated file: its data chunk holds {n} bytes, but only {left} follow")
                rate, channels, dtype, width = fmt
                count = n // width
                if width == 3:  # 24-bit, left-justified into int32 as scipy loads it
                    data = np.zeros((count, 4), np.uint8)
                    data[:, 1:] = np.fromfile(f, np.uint8, 3 * count).reshape(count, 3)
                    data = data.view("<i4").reshape(count)
                else:
                    data = np.fromfile(f, dtype, count)
                return rate, data.reshape(-1, channels) if channels > 1 else data
            else:
                f.seek(n + (n & 1), os.SEEK_CUR)
    raise ValueError("no data chunk")


def load_audio(path, target_sr: int = DEFAULT_SR) -> np.ndarray:
    """Read a WAV file as mono float64 at `target_sr` (channel-averaged).

    The file must be RIFF WAVE (plain or `WAVE_FORMAT_EXTENSIBLE`) holding
    8-bit unsigned, 16-, 24- or 32-bit integer PCM or 32- or 64-bit float
    samples, mono or with any number of channels; integer PCM is scaled to
    [-1, 1) (24-bit loads left-justified into int32, as `scipy.io.wavfile`
    gives it).  Chunks other than `fmt ` and `data` are skipped.  Any other
    file raises AudioIOError naming it: RF64, RIFX and other containers,
    other sample formats, a `data` chunk longer than the bytes that follow
    it (a truncated file), and a NaN or infinite float sample.  Only a file at
    another rate imports `scipy.signal` for `resample_poly`, once per
    process: that import takes about 1 s and 45 MB of resident memory on
    2 vCPUs, as it pulls in `scipy.stats`, `scipy.linalg`, `scipy.optimize`
    and more.
    """
    path = Path(path)
    try:
        file_sr, data = _read_wav(path)
    except (OSError, ValueError) as exc:
        raise AudioIOError(f"cannot read audio file {path}: {exc}") from exc
    # integer PCM is scaled in place: one float64 copy of the take, not two,
    # without relying on numpy eliding the temporary of `astype(...) / c`
    wav = data.astype(np.float64)
    if data.dtype == np.int16:
        wav /= 32768.0
    elif data.dtype == np.int32:
        wav /= 2147483648.0
    elif data.dtype == np.uint8:
        wav -= 128.0
        wav /= 128.0
    if wav.ndim == 2:
        wav = wav.mean(axis=1)
    if data.dtype.kind == "f" and not np.isfinite(wav).all():
        raise AudioIOError(f"non-finite samples (NaN or inf) in audio file {path}")
    if file_sr != target_sr:
        # imported here, not at the top, so that a process whose takes are
        # at the model rate does not pay about 1 s and 45 MB for it
        from scipy.signal import resample_poly

        g = np.gcd(int(file_sr), int(target_sr))
        wav = resample_poly(wav, target_sr // g, file_sr // g)
    return wav


def write_wav(path, wav: np.ndarray, sr: int = DEFAULT_SR):
    """Write mono float waveform as 16-bit PCM: a 44-byte RIFF header, then
    the samples, scaled by 32767, rounded and clipped in one float buffer
    and converted, WAV_BLOCK samples at a time.  Every step is elementwise,
    so the bytes are those of converting the whole take at once, with two
    block-long buffers in place of two take-long ones."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    n = 2 * len(wav)
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + n, b"WAVE", b"fmt ", 16,
                         WAVE_FORMAT_PCM, 1, sr, 2 * sr, 2, 16, b"data", n)
    with open(path, "wb") as f:
        f.write(header)
        for lo in range(0, len(wav), WAV_BLOCK):
            pcm = np.multiply(wav[lo : lo + WAV_BLOCK], 32767.0)
            np.round(pcm, out=pcm)
            np.clip(pcm, -32768, 32767, out=pcm)
            pcm.astype("<i2").tofile(f)


# ---- pitch tracking ----------------------------------------------------------

def _pad_signal(wav: np.ndarray, frame_len: int) -> np.ndarray:
    half = frame_len // 2
    mode = "reflect" if len(wav) > max(half, frame_len) else "constant"
    return np.pad(wav, (half, frame_len), mode=mode)


def _padded_span(wav: np.ndarray, frame_len: int, lo: int, hi: int) -> np.ndarray:
    """`_pad_signal(wav, frame_len)[lo:hi]` without a padded copy of the take:
    a view of `wav` inside it, else the padding of a piece of `wav` that
    holds the span and the samples its reflected ends mirror (samples 1 to
    half and the last frame_len + 1).  Reflection within each end gives the
    values of the whole padded take; a take too short to reflect is padded
    whole."""
    half, n = frame_len // 2, len(wav)
    if half <= lo and hi <= half + n:
        return wav[lo - half : hi - half]
    if n <= max(half, frame_len):
        return _pad_signal(wav, frame_len)[lo:hi]
    head, tail = lo < half, hi > half + n
    start = 0 if head else min(lo - half, n - frame_len - 1)
    stop = n if tail else max(hi - half, half + 1)
    piece = np.pad(wav[start:stop], (half if head else 0, frame_len if tail else 0), mode="reflect")
    origin = 0 if head else start + half  # padded index of piece[0]
    return piece[lo - origin : hi - origin]


def _rows(x: np.ndarray, offset: int, length: int, n: int, hop: int) -> np.ndarray:
    """View of n rows of `length` samples of x, row j starting at offset + j * hop."""
    s = x.strides[0]
    return as_strided(x[offset:], shape=(n, length), strides=(hop * s, s), writeable=False)


def _yin_lags(sr: int) -> tuple[int, int, int, int]:
    """(tau_min, tau_max, pad0, frame_len) of track_pitch at rate sr."""
    tau_min = max(2, int(sr / YIN_FMAX))
    tau_max = int(np.ceil(sr / YIN_FMIN))
    # Offset of the comparison region inside each analysis frame, chosen so
    # that typical singing lags (~100 samples) sit centered on the frame.
    pad0 = max(0, tau_max - 101)
    return tau_min, tau_max, pad0, pad0 + YIN_INTEGRATION + tau_max + 1


def _block_products(segs: np.ndarray, head: int, tau_max: int):
    """For each row of `segs` [n, head + tau_max], column k of the two results:
    the sum over i < head of segs[:, i] * segs[:, i + k] (by FFT) and of
    segs[:, i + k] ** 2 (by a running sum), k = 0..tau_max."""
    # The products read samples up to head - 1 + tau_max, so a circular
    # correlation of length nfft >= head + tau_max never wraps onto them.
    nfft = 1 << int(np.ceil(np.log2(head + tau_max)))
    spec_all = np.fft.rfft(segs, nfft)
    spec_head = np.fft.rfft(segs[:, :head], nfft)
    corr = np.fft.irfft(np.conj(spec_head) * spec_all, nfft)[:, : tau_max + 1]
    sq = np.zeros((len(segs), segs.shape[1] + 1))
    np.cumsum(segs * segs, axis=1, out=sq[:, 1:])
    return corr, sq[:, head : head + tau_max + 1] - sq[:, : tau_max + 1]


def _lag_products(x: np.ndarray, sr: int, hop: int):
    """`_block_products` of the W = YIN_INTEGRATION samples at pad0 of each
    frame of x, the padded samples of n frames hop apart
    ([n - 1] * hop + frame_len of them).

    The window is W // hop blocks of hop samples, each shared with the next
    frames, plus a remainder block of W % hop samples.  Each block's
    products are computed once and a frame adds its blocks up in order, so
    a frame's row does not depend on which other frames are in x."""
    _, tau_max, pad0, frame_len = _yin_lags(sr)
    n = 1 + (len(x) - frame_len) // hop
    q, r = divmod(YIN_INTEGRATION, hop)
    corr = energy = 0.0
    if q:
        c, e = _block_products(_rows(x, pad0, hop + tau_max, n + q - 1, hop), hop, tau_max)
        for m in range(q):
            corr, energy = corr + c[m : m + n], energy + e[m : m + n]
    if r:
        c, e = _block_products(_rows(x, pad0 + q * hop, r + tau_max, n, hop), r, tau_max)
        corr, energy = corr + c, energy + e
    return corr, energy


def _yin_rows(x: np.ndarray, sr: int, hop: int):
    """YIN decision for each analysis frame of `x`, the padded samples of n
    frames hop apart: returns (f0 in Hz, voiced as a bool mask).  Every
    frame is decided on its own, so any split of the frames into chunks
    gives the same bytes."""
    W = YIN_INTEGRATION
    tau_min, tau_max, _, frame_len = _yin_lags(sr)
    corr, energy = _lag_products(x, sr, hop)
    n = len(corr)

    taus = np.arange(tau_max + 1)
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

    rows = np.arange(n)
    d0 = cmndf[rows, tau_star - 1]
    d1 = cmndf[rows, tau_star]
    d2 = cmndf[rows, np.minimum(tau_star + 1, tau_max)]
    denom = d0 - 2.0 * d1 + d2
    safe = np.where(np.abs(denom) > 1e-12, denom, 1.0)
    shift = np.where(np.abs(denom) > 1e-12, 0.5 * (d0 - d2) / safe, 0.0)
    shift = np.clip(shift, -0.5, 0.5)
    tau_refined = tau_star + shift

    f0 = sr / tau_refined
    rms = np.sqrt(np.mean(_rows(x, frame_len // 2 - W // 2, W, n, hop) ** 2, axis=1))
    with np.errstate(divide="ignore"):
        rms_db = 20.0 * np.log10(np.where(rms > 0, rms, 1e-12))
    voiced = any_below & (rms_db > RMS_FLOOR_DB)
    return f0, voiced


def track_pitch(wav: np.ndarray, sr: int = DEFAULT_SR, hop: int = DEFAULT_HOP, pool=None):
    """Per-frame f0 via the cumulative-mean-normalized difference function.

    Returns (pitch_semitones[T], bool voiced[T]); unvoiced frames hold NaN.
    The lag search covers YIN_FMIN..YIN_FMAX Hz over a YIN_INTEGRATION-sample
    window.  A frame counts as voiced when its best normalized-difference
    trough is below YIN_THRESHOLD and the local RMS exceeds RMS_FLOOR_DB dBFS.
    Frame i starts i * hop samples into the padded take, so its window is
    made of hop-sample blocks that the next frames share: each block's lag
    products and energies come from one FFT triple over the block and its
    tau_max samples of lag, and a frame adds up its blocks (see _lag_products).
    Chunks of YIN_CHUNK frames run on `pool`, an executor the caller owns
    (`stage_extract` tracks every song on one), or else on a pool of one
    thread per CPU, up to YIN_THREADS, opened for this call (numpy's FFTs
    and ufuncs release the GIL); each frame is decided on its own, so the
    bytes depend neither on the split nor on the worker count.
    """
    if len(wav) == 0:
        raise ValueError("empty waveform")
    frame_len = _yin_lags(sr)[3]
    T = frame_count(len(wav), hop)
    spans = (_padded_span(wav, frame_len, i * hop, (min(i + YIN_CHUNK, T) - 1) * hop + frame_len)
             for i in range(0, T, YIN_CHUNK))
    own = ThreadPoolExecutor(min(YIN_THREADS, os.cpu_count() or 1)) if pool is None else nullcontext(pool)
    with own as pool:
        f0, voiced = zip(*pool.map(lambda x: _yin_rows(x, sr, hop), spans))
    f0, voiced = np.concatenate(f0), np.concatenate(voiced)

    pitch = np.full(T, np.nan)
    pitch[voiced] = hz_to_semitones(f0[voiced])
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
    fb_t = mel_filterbank(sr, win, n_mels).T
    window = np.hanning(win)
    mel = np.empty((T, n_mels))
    # Each product has min(T, YIN_CHUNK) rows, the last chunk overlapping the
    # one before: BLAS sums products of only a few rows in another order.
    for i in range(0, T, YIN_CHUNK):
        i = min(i, max(T - YIN_CHUNK, 0))
        m = min(YIN_CHUNK, T - i)
        frames = _rows(_padded_span(wav, win, i * hop, (i + m - 1) * hop + win), 0, win, m, hop)
        mag = np.abs(np.fft.rfft(frames * window, win))
        mel[i : i + YIN_CHUNK] = np.log(mag @ fb_t + LOG_FLOOR_EPS)
    return mel


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


def track_cache_key(wav: np.ndarray, sr: int, hop: int, win: int, n_mels: int) -> str:
    """24 hex digits of the SHA-256 of the waveform and of every setting
    that `extract_track` reads: its arguments, the track format version and
    the extractor constants (read at call time).  The waveform's bytes are
    hashed from its buffer, not copied, when it is C-contiguous."""
    key = hashlib.sha256(np.ascontiguousarray(wav))
    settings = [sr, hop, win, n_mels, TRACK_FORMAT_VERSION, YIN_FMIN, YIN_FMAX, YIN_THRESHOLD,
                YIN_INTEGRATION, RMS_FLOOR_DB, MEL_FMIN, LOG_FLOOR_EPS, PITCH_GRID]
    key.update(json.dumps(settings).encode())
    return key.hexdigest()[:24]


def save_track(path, track: FrameTrack):
    save_npz(
        path,
        version=np.int64(TRACK_FORMAT_VERSION),
        sample_rate=np.int64(track.sample_rate),
        hop=np.int64(track.hop),
        pitch=track.pitch_semitones,
        voiced=track.voiced.astype(np.uint8),
        mel=track.mel,
    )


def load_track(path) -> FrameTrack:
    arrays = load_npz(path)
    if int(arrays["version"]) != TRACK_FORMAT_VERSION:
        raise IOError(f"unsupported feature-cache version in {path}")
    return FrameTrack(
        sample_rate=int(arrays["sample_rate"]),
        hop=int(arrays["hop"]),
        pitch_semitones=arrays["pitch"],
        voiced=arrays["voiced"],
        mel=arrays["mel"],
    )
