"""Data ingestion, pitch-error scoring, dataset splitting, and the synthetic
singing-voice generator that supplies exact ground truth for every stage.

Annotation schema (JSON, one file per recording):

    version         int     schema version (currently 1)
    audio           str     relative path of the WAV file (optional)
    tempo_bpm       float   constant song tempo, beats per minute
    time_signature  [num, den]
    key             str     informational, e.g. "E major"
    notes           list of objects, sorted by onset, non-overlapping:
        onset_sec   float   note start in seconds, >= 0
        offset_sec  float   end of the sounding region in seconds
        pitch       int     intended MIDI pitch, 0..127
        sung_pitch  float   stationary pitch actually sung, semitones
                            (optional; exact for synthetic data, manual
                            annotation for real recordings)
        lyric       str     optional
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import midifile
from .features import FrameTrack, semitones_to_hz

ANNOTATION_VERSION = 1

MAJOR_SCALE = (0, 2, 4, 5, 7, 9, 11)
PITCH_CLASS_NAMES = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")


class AnnotationError(ValueError):
    pass


@dataclass
class Note:
    onset_sec: float
    offset_sec: float
    pitch: int
    sung_pitch: float | None = None
    lyric: str | None = None


@dataclass
class AnnotatedSample:
    sample_id: str
    notes: list[Note]
    tempo_bpm: float = 120.0
    time_signature: tuple[int, int] = (4, 4)
    key: str = ""
    audio: str = ""

    def __post_init__(self):
        self.time_signature = tuple(self.time_signature)
        validate_notes(self.notes)

    def note_frames(self, sr: int, hop: int) -> list[tuple[int, int]]:
        """Half-open frame spans for each note on the shared frame grid."""
        spans = []
        for n in self.notes:
            a = int(round(n.onset_sec * sr / hop))
            b = int(round(n.offset_sec * sr / hop))
            spans.append((a, max(b, a + 1)))
        return spans


def validate_notes(notes: list[Note]):
    prev = None
    for i, n in enumerate(notes):
        for name in ("onset_sec", "offset_sec", "sung_pitch"):
            value = getattr(n, name)
            if value is not None and not math.isfinite(value):
                raise AnnotationError(f"note {i}: non-finite {name} {value}")
        if not (0 <= n.pitch <= 127):
            raise AnnotationError(f"note {i}: pitch {n.pitch} outside 0..127")
        if n.onset_sec < 0:
            raise AnnotationError(f"note {i}: negative onset {n.onset_sec}")
        if n.offset_sec <= n.onset_sec:
            raise AnnotationError(f"note {i}: empty or negative duration")
        if prev is not None and n.onset_sec < prev.offset_sec - 1e-9:
            raise AnnotationError(
                f"overlapping notes {i - 1} and {i}: "
                f"[{prev.onset_sec:.3f}, {prev.offset_sec:.3f}) overlaps "
                f"[{n.onset_sec:.3f}, {n.offset_sec:.3f})"
            )
        prev = n


# ---- annotation I/O -----------------------------------------------------------

def export_annotations(sample: AnnotatedSample, path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "version": ANNOTATION_VERSION,
        "audio": sample.audio,
        "tempo_bpm": sample.tempo_bpm,
        "time_signature": list(sample.time_signature),
        "key": sample.key,
        "notes": [
            {k: v for k, v in asdict(n).items() if v is not None} for n in sample.notes
        ],
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def import_annotations(path) -> AnnotatedSample:
    """Load a note list from a JSON annotation file or a standard MIDI file."""
    path = Path(path)
    if not path.exists():
        raise AnnotationError(f"annotation file not found: {path}")
    head = path.read_bytes()[:4]
    if head == b"MThd":
        return _import_midi(path)
    if path.suffix.lower() in (".mid", ".midi"):
        raise AnnotationError(f"{path}: not a standard MIDI file")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise AnnotationError(f"{path}: unknown annotation format ({exc})") from exc
    if doc.get("version") != ANNOTATION_VERSION:
        raise AnnotationError(f"{path}: unsupported annotation version {doc.get('version')}")
    notes = [
        Note(
            onset_sec=float(n["onset_sec"]),
            offset_sec=float(n["offset_sec"]),
            pitch=int(n["pitch"]),
            sung_pitch=(float(n["sung_pitch"]) if n.get("sung_pitch") is not None else None),
            lyric=n.get("lyric"),
        )
        for n in doc["notes"]
    ]
    return AnnotatedSample(
        sample_id=path.stem,
        notes=notes,
        tempo_bpm=float(doc.get("tempo_bpm", 120.0)),
        time_signature=tuple(doc.get("time_signature", (4, 4))),
        key=doc.get("key", ""),
        audio=doc.get("audio", ""),
    )


def _import_midi(path) -> AnnotatedSample:
    song = midifile.read_midi(path)
    notes = [
        Note(
            onset_sec=song.tick_to_seconds(n.onset_tick),
            offset_sec=song.tick_to_seconds(n.offset_tick),
            pitch=n.pitch,
        )
        for n in song.notes
    ]
    tempos = song.tempo_map or [(0, 500000.0)]
    tempo_bpm = 60e6 / tempos[0][1]
    return AnnotatedSample(
        sample_id=Path(path).stem,
        notes=notes,
        tempo_bpm=tempo_bpm,
        time_signature=song.time_signature,
    )


# ---- pitch-error scoring ------------------------------------------------------

def note_pitch_error(values: np.ndarray, gt_pitch: float) -> float:
    """Absolute deviation of the 30-70th percentile trimmed mean from GT.

    Percentiles use numpy's linear interpolation between order statistics;
    the trim keeps values v with P30 <= v <= P70 (inclusive).  Notes with
    fewer than 3 voiced frames fall back to the plain mean.
    """
    values = np.asarray(values, dtype=np.float64)
    if len(values) < 3:
        est = values.mean()
    else:
        lo, hi = np.percentile(values, [30.0, 70.0])
        kept = values[(values >= lo) & (values <= hi)]
        est = kept.mean() if len(kept) else values.mean()
    return abs(float(est) - float(gt_pitch))


def sample_pitch_error(track: FrameTrack, sample: AnnotatedSample):
    """Per-note trimmed-mean errors and their sample-level mean, semitones."""
    spans = sample.note_frames(track.sample_rate, track.hop)
    v = track.voiced.astype(bool)
    errors = []
    for (a, b), note in zip(spans, sample.notes):
        a = max(a, 0)
        b = min(b, track.n_frames)
        vals = track.pitch_semitones[a:b][v[a:b]]
        if len(vals) == 0:
            continue
        errors.append(note_pitch_error(vals, note.pitch))
    errors = np.asarray(errors)
    mean = float(errors.mean()) if len(errors) else 0.0
    return errors, mean


def split_dataset(sample_errors: dict[str, float], seed: int = 0) -> dict[str, tuple[str, str]]:
    """Rank samples by mean pitch error and assign (subset, role) tags.

    Lowest 10% -> in_tune (SPP training; 90/10 train/val), middle 80% ->
    moderate, top 10% -> high; moderate and high are each sub-split
    80/10/10 into train/val/test with a seeded shuffle.
    """
    if len(sample_errors) < 10:
        raise ValueError(f"need at least 10 samples to split, got {len(sample_errors)}")
    ordered = sorted(sample_errors, key=lambda k: (sample_errors[k], k))
    n = len(ordered)
    n_low = max(1, round(0.10 * n))
    n_high = max(1, round(0.10 * n))
    groups = {
        "in_tune": ordered[:n_low],
        "moderate": ordered[n_low : n - n_high],
        "high": ordered[n - n_high :],
    }
    rng = np.random.default_rng(seed)
    out: dict[str, tuple[str, str]] = {}
    for subset, ids in groups.items():
        ids = list(ids)
        rng.shuffle(ids)
        m = len(ids)
        n_val = round(0.10 * m)
        n_test = 0 if subset == "in_tune" else round(0.10 * m)
        n_train = m - n_val - n_test
        for sid in ids[:n_train]:
            out[sid] = (subset, "train")
        for sid in ids[n_train : n_train + n_val]:
            out[sid] = (subset, "val")
        for sid in ids[n_train + n_val :]:
            out[sid] = (subset, "test")
    return out


# ---- detune models -------------------------------------------------------------

@dataclass
class DetuneSpec:
    """Per-note pitch-error model: 'none', 'uniform' or 'ar1'."""

    kind: str = "none"
    lo: float = -0.5
    hi: float = 0.5
    rho: float = 0.6
    sigma: float = 0.65  # marginal std of the AR(1) process
    clip: float = 1.5

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "none":
            return np.zeros(n)
        if self.kind == "uniform":
            return rng.uniform(self.lo, self.hi, size=n)
        if self.kind == "ar1":
            innov_std = self.sigma * math.sqrt(1.0 - self.rho**2)
            eps = np.empty(n)
            prev = rng.normal(0.0, self.sigma)
            for i in range(n):
                prev = self.rho * prev + rng.normal(0.0, innov_std)
                eps[i] = prev
            return np.clip(eps, -self.clip, self.clip)
        raise ValueError(f"unknown detune kind {self.kind!r}")


# ---- synthetic singing generator -----------------------------------------------

# Expression of the rendered voice: per-note probabilities and the ranges
# their sizes are drawn from.  Songs are in 4/4.
SYNTH_TIME_SIGNATURE = (4, 4)
GLIDE_PROB = 0.65
GLIDE_FRAC = (0.15, 0.45)  # of the sounding note, capped at 0.25 s
GLIDE_DEPTH = (0.5, 1.5)  # semitones below the note, unless legato
VIBRATO_PROB = 0.5
VIBRATO_RATE = (4.0, 7.0)  # Hz
VIBRATO_DEPTH = (0.15, 0.6)  # semitones
RELEASE_PROB = 0.25
GAP_PROB = 0.45
REST_PROB = 0.10
DRIFT_STD = 0.02  # semitones, slow pitch drift over the whole song


@dataclass
class SynthSpec:
    seed: int
    n_notes: int = 42
    tonic: int | None = None  # None -> random in [57, 68]
    tempo_bpm: float | None = None  # None -> random in [85, 140]
    detune: DetuneSpec = field(default_factory=DetuneSpec)
    sample_rate: int = 22050


_STEPS = np.array([-4, -3, -2, -1, 1, 2, 3, 4])
_STEP_P = np.array([0.03, 0.07, 0.16, 0.24, 0.24, 0.16, 0.07, 0.03])
_BEATS = np.array([0.5, 1.0, 1.5, 2.0])
_BEATS_P = np.array([0.35, 0.40, 0.15, 0.10])


def _degree_to_pitch(tonic: int, degree: int) -> int:
    octave, step = divmod(degree, 7)
    return tonic + 12 * octave + MAJOR_SCALE[step]


def synth_melody(spec: SynthSpec, rng: np.random.Generator):
    """Sample a diatonic melody as (pitch, onset_beats, dur_beats) triples.

    Degrees stay within tonic..tonic+14 semitones and the tonic within
    [55, 66] so every sung pitch sits comfortably inside the tracker's
    55-1000 Hz search range even after detuning.
    """
    tonic = spec.tonic if spec.tonic is not None else int(rng.integers(55, 67))
    tempo = spec.tempo_bpm if spec.tempo_bpm is not None else float(rng.uniform(85.0, 140.0))
    degree = int(rng.integers(2, 7))
    cursor = 0.0
    events = []
    for i in range(spec.n_notes):
        beats = float(rng.choice(_BEATS, p=_BEATS_P))
        events.append((_degree_to_pitch(tonic, degree), cursor, beats))
        cursor += beats
        if rng.random() < REST_PROB:
            cursor += float(rng.choice([0.5, 1.0, 2.0]))
        if rng.random() < 0.08:
            continue  # repeated note
        step = int(rng.choice(_STEPS, p=_STEP_P))
        nxt = degree + step
        if not 0 <= nxt <= 8:
            nxt = degree - step
        degree = int(np.clip(nxt, 0, 8))
    return tonic, tempo, events


def synth_song(spec: SynthSpec) -> tuple[np.ndarray, AnnotatedSample]:
    """Render one synthetic song; annotations carry exact ground truth."""
    rng = np.random.default_rng(spec.seed)
    sr = spec.sample_rate
    tonic, tempo, events = synth_melody(spec, rng)
    spb = 60.0 / tempo
    detune = spec.detune.sample(len(events), rng)

    total_sec = events[-1][1] * spb + events[-1][2] * spb + 1.0
    n_samples = int(math.ceil(total_sec * sr))
    f0_semi = np.zeros(n_samples)
    env = np.zeros(n_samples)

    notes: list[Note] = []
    prev_sung = None
    prev_end = -1.0
    for i, (pitch, onset_beats, beats) in enumerate(events):
        onset = onset_beats * spb
        slot = beats * spb
        gap = 0.0
        repeated = i + 1 < len(events) and events[i + 1][0] == pitch
        next_onset = events[i + 1][1] * spb if i + 1 < len(events) else None
        contiguous_next = next_onset is not None and abs(next_onset - (onset + slot)) < 1e-9
        if contiguous_next and (repeated or rng.random() < GAP_PROB):
            gap = float(rng.uniform(0.03, 0.10))
        sounding = max(slot - gap, 0.12)
        offset = onset + sounding

        sung = pitch + detune[i]
        a = int(round(onset * sr))
        b = min(int(round(offset * sr)), n_samples)
        n = b - a
        tt = np.arange(n) / sr

        curve = np.full(n, sung)
        if rng.random() < GLIDE_PROB:
            frac = rng.uniform(*GLIDE_FRAC)
            glide_len = min(frac * sounding, 0.25)
            legato = prev_sung is not None and onset - prev_end <= 0.06
            start = prev_sung if legato else sung - rng.uniform(*GLIDE_DEPTH)
            gn = min(int(glide_len * sr), n)
            if gn > 1:
                u = np.linspace(0.0, 1.0, gn)
                curve[:gn] = sung + (start - sung) * (1.0 + np.cos(np.pi * u)) / 2.0
        if sounding >= 0.3 and rng.random() < VIBRATO_PROB:
            rate = rng.uniform(*VIBRATO_RATE)
            depth = rng.uniform(*VIBRATO_DEPTH)
            v_start = min(0.4 * sounding, 0.15)
            ramp = np.clip((tt - v_start) * rate, 0.0, 1.0)
            curve += depth * ramp * np.sin(2.0 * np.pi * rate * (tt - v_start))
        has_tail_gap = not contiguous_next or gap >= 0.06
        if has_tail_gap and rng.random() < RELEASE_PROB:
            rel_len = min(rng.uniform(0.06, 0.12), 0.4 * sounding)
            rn = int(rel_len * sr)
            if rn > 1:
                u = np.linspace(0.0, 1.0, rn)
                curve[-rn:] -= rng.uniform(0.3, 0.8) * (1.0 - np.cos(np.pi * u)) / 2.0

        level = rng.uniform(0.16, 0.30)
        note_env = np.full(n, level)
        attack = min(int(0.015 * sr), n // 2)
        release = min(int(0.025 * sr), n // 2)
        if attack > 0:
            note_env[:attack] *= (1.0 - np.cos(np.pi * np.arange(attack) / attack)) / 2.0
        if release > 0:
            note_env[-release:] *= (1.0 + np.cos(np.pi * np.arange(release) / release)) / 2.0

        f0_semi[a:b] = curve
        env[a:b] = note_env
        notes.append(Note(onset_sec=onset, offset_sec=offset, pitch=pitch, sung_pitch=float(sung)))
        prev_sung = sung
        prev_end = offset

    hop_drift = 256
    m = n_samples // hop_drift + 2
    white = rng.normal(0.0, 1.0, m)
    kernel = np.hanning(25)
    kernel /= kernel.sum()
    smooth = np.convolve(white, kernel, mode="same")
    std = smooth.std()
    if std > 0:
        smooth *= DRIFT_STD / std
    drift = np.interp(np.arange(n_samples) / hop_drift, np.arange(m), smooth)
    f0_semi = f0_semi + drift * (env > 0)

    f0_hz = semitones_to_hz(np.where(env > 0, f0_semi, 60.0))
    phase = 2.0 * np.pi * np.cumsum(f0_hz) / sr
    wav = np.zeros(n_samples)
    for k in range(1, 6):
        wav += (1.0 / k) * np.sin(k * phase)
    wav *= env

    key = f"{PITCH_CLASS_NAMES[tonic % 12]} major"
    sample = AnnotatedSample(
        sample_id=f"synth_{spec.seed}",
        notes=notes,
        tempo_bpm=tempo,
        time_signature=SYNTH_TIME_SIGNATURE,
        key=key,
    )
    return wav, sample
