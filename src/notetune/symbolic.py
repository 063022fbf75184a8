"""Compound note tokens and the context-aware note pitch predictor.

Each note becomes an 8-field event (bar, position-in-bar, pitch, duration,
velocity, tempo, time signature, instrument) on a sixteenth-note grid.  A
note sequence is one dict of arrays keyed by FIELD_NAMES, one entry per
note: `pitch` float64, the other seven fields int64.  The pitch field enters
the model through interpolated embeddings so fractional stationary pitches
keep their sub-semitone information.  The model sums the 8 field embeddings,
each `model_dim` wide, and reads one linear head per field off the encoder
output; the pitch head classifies over the 128 discrete pitches.  Events
are placed by their bar and pos fields alone; the encoder adds no index term.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import nncore as nn
from .datakit import AnnotatedSample
from .segmenter import NoteInterval
from .spp import StationaryEstimate

log = logging.getLogger(__name__)

GRID_PER_BEAT = 4  # sixteenth notes
MAX_BARS = 64
MAX_POSITIONS = 16
MAX_DURATION_UNITS = 32
TEMPO_BINS = 64
TIME_SIGNATURES = ((4, 4), (3, 4), (2, 4), (6, 8))
VELOCITY_VOCAB = 128
INSTRUMENT_VOCAB = 4

PITCH_TOKENS = 128
PITCH_MASK = 129
PITCH_TABLE_ROWS = 130

FIELD_NAMES = ("bar", "pos", "pitch", "dur", "vel", "tempo", "sig", "instr")
FIELD_VOCABS = {
    "bar": MAX_BARS,
    "pos": MAX_POSITIONS,
    "pitch": PITCH_TABLE_ROWS,
    "dur": MAX_DURATION_UNITS + 1,
    "vel": VELOCITY_VOCAB,
    "tempo": TEMPO_BINS,
    "sig": len(TIME_SIGNATURES),
    "instr": INSTRUMENT_VOCAB,
}

DEFAULT_VELOCITY = 64
DEFAULT_INSTRUMENT = 0

Octuples = dict[str, np.ndarray]  # one note sequence, keyed by FIELD_NAMES

@dataclass
class GridMeta:
    """Beat-grid metadata: constant tempo and time signature; bar 0, beat 0
    falls at 0 s.  A signature outside TIME_SIGNATURES is treated as 4/4,
    for its grid and its token alike."""

    tempo_bpm: float = 120.0
    time_signature: tuple[int, int] = (4, 4)

    def __post_init__(self):
        sig = tuple(self.time_signature)
        if sig not in TIME_SIGNATURES:
            log.warning("unknown time signature %s, treating as 4/4", sig)
            sig = (4, 4)
        self.time_signature = sig

    @classmethod
    def from_annotation(cls, sample: AnnotatedSample) -> "GridMeta":
        return cls(tempo_bpm=sample.tempo_bpm, time_signature=tuple(sample.time_signature))


def positions_per_bar(sig: tuple[int, int]) -> int:
    num, den = sig
    return max(1, round(num * 16 / den))


def tempo_token(bpm: float) -> int:
    return int(np.clip(round((bpm - 60.0) / 2.0), 0, TEMPO_BINS - 1))


def sig_token(sig: tuple[int, int]) -> int:
    return TIME_SIGNATURES.index(tuple(sig))


def events_from_times(
    onsets_sec: np.ndarray,
    durations_sec: np.ndarray,
    pitches: np.ndarray,
    meta: GridMeta,
) -> Octuples:
    """Quantize notes onto the grid as one array per field.

    Onsets are forced strictly increasing: each note sits at least one grid
    cell after the one before, and the first at cell 0 or later.  Notes past
    bar MAX_BARS are clamped into its last cell and pitches into 0..127,
    with one warning per sequence for each clamp.
    """
    ppb = positions_per_bar(meta.time_signature)
    beats_per_sec = meta.tempo_bpm / 60.0
    onsets = np.asarray(onsets_sec, dtype=np.float64)
    n = len(onsets)
    i = np.arange(n)
    cells = np.round(onsets * beats_per_sec * GRID_PER_BEAT).astype(np.int64)
    # grid[i] = max(cells[i], grid[i - 1] + 1) with grid[-1] = -1, in closed form
    grid = np.maximum.accumulate(np.maximum(cells - i, 0)) + i
    last = MAX_BARS * ppb - 1
    n_late = int(np.count_nonzero(grid > last))
    if n_late:
        log.warning("%d of %d notes past bar %d; clamping them into its last cell", n_late, n, MAX_BARS)
        grid = np.minimum(grid, last)
    bar, pos = np.divmod(grid, ppb)
    units = np.round(np.asarray(durations_sec, dtype=np.float64) * beats_per_sec * GRID_PER_BEAT)
    dur = np.clip(units, 1, MAX_DURATION_UNITS).astype(np.int64)
    pitch = np.array(pitches, dtype=np.float64)
    outside = ~((pitch >= 0.0) & (pitch <= 127.0))
    if outside.any():
        log.warning("%d of %d pitches outside 0..127; clamping", int(outside.sum()), n)
        pitch[outside] = np.clip(pitch[outside], 0.0, 127.0)
    return {
        "bar": bar,
        "pos": pos,
        "pitch": pitch,
        "dur": dur,
        "vel": np.full(n, DEFAULT_VELOCITY, dtype=np.int64),
        "tempo": np.full(n, tempo_token(meta.tempo_bpm), dtype=np.int64),
        "sig": np.full(n, sig_token(meta.time_signature), dtype=np.int64),
        "instr": np.full(n, DEFAULT_INSTRUMENT, dtype=np.int64),
    }


def notes_to_octuples(
    notes: list[NoteInterval],
    estimates: list[StationaryEstimate],
    meta: GridMeta,
    sr: int,
    hop: int,
) -> Octuples:
    """Octuples from detected note intervals and stationary pitch estimates."""
    if len(notes) != len(estimates):
        raise ValueError("notes and estimates must align")
    onsets = np.array([n.start_frame * hop / sr for n in notes])
    durs = np.array([n.n_frames * hop / sr for n in notes])
    pitches = np.array([e.pitch for e in estimates])
    return events_from_times(onsets, durs, pitches, meta)


def octuples_from_annotation(sample: AnnotatedSample) -> Octuples:
    """Octuples from a note annotation, with the intended integer pitches."""
    meta = GridMeta.from_annotation(sample)
    onsets = np.array([n.onset_sec for n in sample.notes])
    durs = np.array([n.offset_sec - n.onset_sec for n in sample.notes])
    pitches = np.array([float(n.pitch) for n in sample.notes])
    return events_from_times(onsets, durs, pitches, meta)


def round_pitch(p_hat) -> np.ndarray:
    """Nearest discrete pitch tokens (int64, 0..127), half rounding up."""
    return np.clip(np.floor(np.asarray(p_hat, dtype=np.float64) + 0.5), 0, 127).astype(np.int64)


# ---- model -------------------------------------------------------------------

def interp_pitch_embedding(table: nn.Tensor, p_hat: np.ndarray) -> nn.Tensor:
    """Convex combination of the two nearest discrete-pitch embeddings.

    alpha is the fractional part of the pitch; integer pitches hit their
    embedding row exactly, and 127.0 maps to row 127.
    """
    p = np.asarray(p_hat, dtype=np.float64)
    if (p < 0).any() or (p > 127).any():
        log.warning("stationary pitch outside 0..127; clamping for embedding")
        p = np.clip(p, 0.0, 127.0)
    i0 = np.floor(p).astype(np.int64)
    alpha = p - i0
    i1 = np.minimum(i0 + 1, 127)
    e0 = nn.embedding(table, i0)
    e1 = nn.embedding(table, i1)
    return e0 * (1.0 - alpha)[..., None] + e1 * alpha[..., None]


class Cnpp(nn.Module):
    """Masked-context note pitch predictor over octuple events: summed field
    embeddings at the encoder's width in, one linear head per field out."""

    def __init__(self, cfg: nn.TransformerConfig):
        self.cfg = cfg
        rng = nn.init_rng(cfg.seed + 11)
        D = cfg.model_dim
        # attributes, not dicts: params() collects Module attributes only
        for name in FIELD_NAMES:
            setattr(self, f"embed_{name}", nn.Embedding(rng, FIELD_VOCABS[name], D))
        self.encoder = nn.TransformerEncoder(cfg)
        for name in FIELD_NAMES:
            vocab = PITCH_TOKENS if name == "pitch" else FIELD_VOCABS[name]
            setattr(self, f"head_{name}", nn.Linear(rng, D, vocab))

    def forward(
        self,
        fields: dict[str, np.ndarray],
        pitch_values: np.ndarray,
        pad_mask: np.ndarray,
        rounded: bool,
        mask_positions: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
    ) -> dict[str, nn.Tensor]:
        """Per-field logits for a padded batch, from the sum of its 8 field
        embeddings.

        fields: int arrays [B, N] for the 7 discrete fields; pitch_values
        [B, N] float; pad_mask [B, N] 1=real.  Pitches enter through
        interpolated embeddings, or, when `rounded`, through the nearest row.
        mask_positions (bool [B, N]) replaces pitch inputs with the MASK row.
        """
        parts = []
        for name in FIELD_NAMES:
            if name == "pitch":
                if rounded:
                    emb = self.embed_pitch(round_pitch(pitch_values))
                else:
                    emb = interp_pitch_embedding(self.embed_pitch.table, pitch_values)
                if mask_positions is not None and mask_positions.any():
                    mask_row = self.embed_pitch(np.full(pitch_values.shape, PITCH_MASK))
                    sel = mask_positions.astype(np.float64)[..., None]
                    emb = emb * (1.0 - sel) + mask_row * sel
            else:
                emb = getattr(self, f"embed_{name}")(fields[name])
            parts.append(emb)
        h = self.encoder(sum(parts[1:], parts[0]), pad_mask=pad_mask, rng=rng)
        return {name: getattr(self, f"head_{name}")(h) for name in FIELD_NAMES}

    def predict(self, events: Octuples, rounded: bool = False):
        """Target pitch tokens [N] and pitch distributions [N, 128] for one
        sequence of N events; an empty sequence gives empty outputs."""
        if not len(events["pitch"]):
            return np.zeros(0, dtype=np.int64), np.zeros((0, PITCH_TOKENS))
        fields, pitch_values, pad = pack_sequences([events])
        with nn.no_grad():
            logits = self.forward(fields, pitch_values, pad, rounded)["pitch"]
            probs = nn.softmax(logits, axis=-1).data[0]
        tokens = probs.argmax(axis=-1).astype(np.int64)
        return tokens, probs


def pack_sequences(seqs: list[Octuples]):
    """Pad sequences to the longest into (fields, pitch_values, pad_mask).

    fields holds the seven int64 fields other than pitch, each [B, N];
    pitch_values is float64 [B, N]; pad_mask is 1.0 at real events.  Padding
    is 0 in every array.
    """
    n = max(len(s["pitch"]) for s in seqs)
    B = len(seqs)
    fields = {
        name: np.zeros((B, n), dtype=np.float64 if name == "pitch" else np.int64) for name in FIELD_NAMES
    }
    pad_mask = np.zeros((B, n))
    for b, seq in enumerate(seqs):
        L = len(seq["pitch"])
        for name in FIELD_NAMES:
            fields[name][b, :L] = seq[name]
        pad_mask[b, :L] = 1.0
    pitch_values = fields.pop("pitch")
    return fields, pitch_values, pad_mask


def detune_schedule(step: int, total_steps: int, p_max: float, ramp_frac: float) -> float:
    """Linear ramp from 0 to p_max over the first ramp_frac of training."""
    if not 0.0 <= p_max <= 1.0:
        raise ValueError("p_max must lie in [0, 1]")
    ramp = max(1, int(total_steps * ramp_frac))
    return p_max * min(step / ramp, 1.0)
