"""Compound note tokens and the context-aware note pitch predictor.

Each note becomes an 8-field event (bar, position-in-bar, pitch, duration,
velocity, tempo, time signature, instrument) on a sixteenth-note grid.  The
pitch field enters the model through interpolated embeddings so fractional
stationary pitches keep their sub-semitone information; the model's pitch
head classifies over the 128 discrete pitches.
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

@dataclass
class GridMeta:
    """Beat-grid metadata: constant tempo and time signature; bar 0, beat 0
    falls at 0 s."""

    tempo_bpm: float = 120.0
    time_signature: tuple[int, int] = (4, 4)

    @classmethod
    def from_annotation(cls, sample: AnnotatedSample) -> "GridMeta":
        return cls(tempo_bpm=sample.tempo_bpm, time_signature=tuple(sample.time_signature))


def positions_per_bar(sig: tuple[int, int]) -> int:
    num, den = sig
    return max(1, round(num * 16 / den))


def tempo_token(bpm: float) -> int:
    return int(np.clip(round((bpm - 60.0) / 2.0), 0, TEMPO_BINS - 1))


def sig_token(sig: tuple[int, int]) -> int:
    sig = tuple(sig)
    if sig in TIME_SIGNATURES:
        return TIME_SIGNATURES.index(sig)
    log.warning("unknown time signature %s, treating as 4/4", sig)
    return 0


@dataclass
class OctupleEvent:
    bar: int
    pos: int
    pitch: float  # continuous at input; token-valued after prediction
    dur: int
    vel: int = DEFAULT_VELOCITY
    tempo: int = 0
    sig: int = 0
    instr: int = DEFAULT_INSTRUMENT


def events_from_times(
    onsets_sec: np.ndarray,
    durations_sec: np.ndarray,
    pitches: np.ndarray,
    meta: GridMeta,
) -> list[OctupleEvent]:
    """Quantize note times onto the grid; onsets are forced strictly increasing."""
    ppb = positions_per_bar(meta.time_signature)
    beats_per_sec = meta.tempo_bpm / 60.0
    t_tok = tempo_token(meta.tempo_bpm)
    s_tok = sig_token(meta.time_signature)
    events = []
    prev_grid = -1
    for onset, dur, pitch in zip(onsets_sec, durations_sec, pitches):
        beats = onset * beats_per_sec
        grid = int(round(beats * GRID_PER_BEAT))
        if grid <= prev_grid:
            grid = prev_grid + 1
        prev_grid = grid
        if grid < 0 or grid >= MAX_BARS * ppb:
            log.warning("note at %.2fs outside the bar grid; clamping", onset)
            grid = int(np.clip(grid, 0, MAX_BARS * ppb - 1))
        bar, pos = divmod(grid, ppb)
        dur_units = int(np.clip(round(dur * beats_per_sec * GRID_PER_BEAT), 1, MAX_DURATION_UNITS))
        p = float(pitch)
        if not 0.0 <= p <= 127.0:
            log.warning("pitch %.2f outside 0..127; clamping", p)
            p = float(np.clip(p, 0.0, 127.0))
        events.append(OctupleEvent(bar=bar, pos=pos, pitch=p, dur=dur_units, tempo=t_tok, sig=s_tok))
    return events


def notes_to_octuples(
    notes: list[NoteInterval],
    estimates: list[StationaryEstimate],
    meta: GridMeta,
    sr: int,
    hop: int,
) -> list[OctupleEvent]:
    """Octuples from detected note intervals and stationary pitch estimates."""
    if len(notes) != len(estimates):
        raise ValueError("notes and estimates must align")
    onsets = np.array([n.start_frame * hop / sr for n in notes])
    durs = np.array([n.n_frames * hop / sr for n in notes])
    pitches = np.array([e.pitch for e in estimates])
    return events_from_times(onsets, durs, pitches, meta)


def octuples_from_annotation(sample: AnnotatedSample) -> list[OctupleEvent]:
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

@dataclass
class CnppConfig:
    layers: int = 2
    model_dim: int = 64
    heads: int = 4
    embed_dim: int = 64
    max_events: int = 512
    dropout: float = 0.1
    seed: int = 0

    def encoder_config(self) -> nn.TransformerConfig:
        return nn.TransformerConfig(
            layers=self.layers,
            model_dim=self.model_dim,
            heads=self.heads,
            dropout=self.dropout,
            max_len=self.max_events,
            seed=self.seed,
        )


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
    """Masked-context note pitch predictor over octuple events."""

    def __init__(self, cfg: CnppConfig):
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed + 11)
        E = cfg.embed_dim
        # attributes, not dicts: params() collects Module attributes only
        for name in FIELD_NAMES:
            setattr(self, f"embed_{name}", nn.Embedding(rng, FIELD_VOCABS[name], E))
        self.down = nn.Linear(rng, 8 * E, cfg.model_dim)
        self.encoder = nn.TransformerEncoder(cfg.encoder_config())
        self.up = nn.Linear(rng, cfg.model_dim, 8 * E)
        for name in FIELD_NAMES:
            vocab = PITCH_TOKENS if name == "pitch" else FIELD_VOCABS[name]
            setattr(self, f"head_{name}", nn.Linear(rng, E, vocab))

    def forward(
        self,
        fields: dict[str, np.ndarray],
        pitch_values: np.ndarray,
        pad_mask: np.ndarray,
        pitch_mode: str = "interp",
        mask_positions: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
    ) -> dict[str, nn.Tensor]:
        """Per-field logits for a padded batch.

        fields: int arrays [B, N] for the 7 discrete fields; pitch_values
        [B, N] float; pad_mask [B, N] 1=real.  pitch_mode 'interp' uses
        interpolated embeddings, 'round' snaps to the nearest row first.
        mask_positions (bool [B, N]) replaces pitch inputs with the MASK row.
        """
        E = self.cfg.embed_dim
        parts = []
        for name in FIELD_NAMES:
            if name == "pitch":
                if pitch_mode == "interp":
                    emb = interp_pitch_embedding(self.embed_pitch.table, pitch_values)
                elif pitch_mode == "round":
                    emb = self.embed_pitch(round_pitch(pitch_values))
                else:
                    raise ValueError(f"unknown pitch_mode {pitch_mode!r}")
                if mask_positions is not None and mask_positions.any():
                    mask_row = nn.embedding(
                        self.embed_pitch.table,
                        np.full(pitch_values.shape, PITCH_MASK, dtype=np.int64),
                    )
                    sel = mask_positions.astype(np.float64)[..., None]
                    emb = emb * (1.0 - sel) + mask_row * sel
            else:
                emb = getattr(self, f"embed_{name}")(fields[name])
            parts.append(emb)
        x = self.down(nn.concat(parts, axis=-1))
        h = self.encoder(x, pad_mask=pad_mask, rng=rng)
        u = self.up(h)
        out = {}
        for k, name in enumerate(FIELD_NAMES):
            out[name] = getattr(self, f"head_{name}")(u[:, :, k * E : (k + 1) * E])
        return out

    def predict(self, events: list[OctupleEvent], pitch_mode: str = "interp"):
        """Target pitch tokens and per-note distributions for one sequence."""
        if not events:
            return np.zeros(0, dtype=np.int64), np.zeros((0, PITCH_TOKENS))
        fields, pitch_values, _ = pack_sequences([events])
        pad = np.ones((1, len(events)))
        with nn.no_grad():
            logits = self.forward(fields, pitch_values, pad, pitch_mode=pitch_mode)["pitch"]
            probs = nn.softmax(logits, axis=-1).data[0]
        tokens = probs.argmax(axis=-1).astype(np.int64)
        return tokens, probs


def pack_sequences(seqs: list[list[OctupleEvent]]):
    """Pad event lists into field arrays; returns (fields, pitch_values, pad_mask)."""
    n = max(len(s) for s in seqs)
    B = len(seqs)
    fields = {name: np.zeros((B, n), dtype=np.int64) for name in FIELD_NAMES if name != "pitch"}
    pitch_values = np.zeros((B, n))
    pad_mask = np.zeros((B, n))
    for b, seq in enumerate(seqs):
        for i, e in enumerate(seq):
            fields["bar"][b, i] = e.bar
            fields["pos"][b, i] = e.pos
            fields["dur"][b, i] = e.dur
            fields["vel"][b, i] = e.vel
            fields["tempo"][b, i] = e.tempo
            fields["sig"][b, i] = e.sig
            fields["instr"][b, i] = e.instr
            pitch_values[b, i] = e.pitch
            pad_mask[b, i] = 1.0
    return fields, pitch_values, pad_mask


def detune_schedule(step: int, total_steps: int, p_max: float = 0.4, ramp_frac: float = 0.3) -> float:
    """Linear ramp from 0 to p_max over the first ramp_frac of training."""
    if not 0.0 <= p_max <= 1.0:
        raise ValueError("p_max must lie in [0, 1]")
    ramp = max(1, int(total_steps * ramp_frac))
    return p_max * min(step / ramp, 1.0)
