"""The per-note quantizer and per-event packer that the field-array forms in
`notetune.symbolic` replaced, kept verbatim as the reference those forms
must match exactly.  `OctupleEvent` is the event record they used."""

from dataclasses import dataclass

import numpy as np

from notetune.symbolic import (
    DEFAULT_INSTRUMENT,
    DEFAULT_VELOCITY,
    FIELD_NAMES,
    GRID_PER_BEAT,
    MAX_BARS,
    MAX_DURATION_UNITS,
    GridMeta,
    log,
    positions_per_bar,
    sig_token,
    tempo_token,
)


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
