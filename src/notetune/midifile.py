"""Minimal standard MIDI file reader: format 0/1, note events, tempo map.

Only what the annotation importer needs; no channel semantics beyond
note-on/note-off pairing, no pitch bend, no SysEx interpretation.  A file
cut short (its header, a track header, or a chunk or event that runs past
the bytes that hold it) raises MidiError naming the file.  The tests write
their MIDI files with `tests/midi_writer.py`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path


class MidiError(ValueError):
    pass


@dataclass
class MidiNote:
    onset_tick: int
    offset_tick: int
    pitch: int
    velocity: int


@dataclass
class MidiSong:
    tpqn: int
    notes: list[MidiNote]
    tempo_map: list[tuple[int, float]]  # (tick, microseconds per quarter)
    time_signature: tuple[int, int] = (4, 4)

    def tick_to_seconds(self, tick: int) -> float:
        """Integrate the tempo map up to `tick`."""
        tempos = self.tempo_map or [(0, 500000.0)]
        if tempos[0][0] != 0:
            tempos = [(0, 500000.0)] + tempos
        sec = 0.0
        for (t0, us), nxt in zip(tempos, tempos[1:] + [(None, None)]):
            t1 = nxt[0]
            if t1 is None or tick <= t1:
                return sec + (tick - t0) * us / (self.tpqn * 1e6)
            sec += (t1 - t0) * us / (self.tpqn * 1e6)
        return sec


def _take(data: bytes, pos: int, n: int, path) -> bytes:
    """The n bytes of the track chunk `data` at pos; raise if it ends first."""
    if pos + n > len(data):
        raise MidiError(f"{path}: an event runs past the end of its track chunk")
    return data[pos : pos + n]


def _read_varlen(data: bytes, pos: int, path) -> tuple[int, int]:
    value = 0
    while True:
        byte = _take(data, pos, 1, path)[0]
        pos += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos


def read_midi(path) -> MidiSong:
    raw = Path(path).read_bytes()
    if raw[:4] != b"MThd" or len(raw) < 14:
        raise MidiError(f"{path}: not a standard MIDI file, or its header is cut short")
    header_len, fmt, n_tracks, division = struct.unpack(">IHHH", raw[4:14])
    if fmt not in (0, 1):
        raise MidiError(f"{path}: unsupported MIDI format {fmt}")
    if division & 0x8000:
        raise MidiError(f"{path}: SMPTE time division is not supported")
    if division == 0:
        raise MidiError(f"{path}: time division of 0 ticks per quarter note")
    pos = 8 + header_len
    notes: list[MidiNote] = []
    tempo_map: list[tuple[int, float]] = []
    time_sig = (4, 4)
    sig_seen = False
    for _ in range(n_tracks):
        if raw[pos : pos + 4] != b"MTrk" or len(raw) < pos + 8:
            raise MidiError(f"{path}: malformed or cut-short track chunk header")
        track_len = struct.unpack(">I", raw[pos + 4 : pos + 8])[0]
        pos += 8
        if pos + track_len > len(raw):
            raise MidiError(f"{path}: track chunk of {track_len} bytes, {len(raw) - pos} follow")
        data = raw[pos : pos + track_len]
        pos += track_len
        tick = 0
        p = 0
        status = 0
        open_notes: dict[int, tuple[int, int]] = {}
        while p < len(data):
            delta, p = _read_varlen(data, p, path)
            tick += delta
            byte = _take(data, p, 1, path)[0]
            if byte & 0x80:
                status = byte
                p += 1
            if status == 0xFF:
                meta = _take(data, p, 1, path)[0]
                length, p2 = _read_varlen(data, p + 1, path)
                body = _take(data, p2, length, path)
                p = p2 + length
                if meta == 0x51:
                    us = int.from_bytes(body, "big")
                    if us == 0:
                        raise MidiError(f"{path}: tempo of 0 microseconds per quarter note at tick {tick}")
                    tempo_map.append((tick, float(us)))
                elif meta == 0x58 and len(body) >= 2 and not sig_seen:
                    time_sig = (body[0], 1 << body[1])
                    sig_seen = True
            elif status in (0xF0, 0xF7):
                length, p = _read_varlen(data, p, path)
                p += len(_take(data, p, length, path))
            else:
                kind = status & 0xF0
                if kind in (0x80, 0x90, 0xA0, 0xB0, 0xE0):
                    d1, d2 = _take(data, p, 2, path)
                    p += 2
                elif kind in (0xC0, 0xD0):
                    d1, d2 = _take(data, p, 1, path)[0], 0
                    p += 1
                else:
                    raise MidiError(f"{path}: unexpected status byte {status:#x}")
                if kind == 0x90 and d2 > 0:
                    open_notes[d1] = (tick, d2)
                elif kind == 0x80 or (kind == 0x90 and d2 == 0):
                    if d1 in open_notes:
                        onset, vel = open_notes.pop(d1)
                        notes.append(MidiNote(onset, tick, d1, vel))
        for pitch, (onset, vel) in open_notes.items():
            notes.append(MidiNote(onset, tick, pitch, vel))
    notes.sort(key=lambda n: (n.onset_tick, n.pitch))
    tempo_map.sort(key=lambda t: t[0])
    return MidiSong(tpqn=division, notes=notes, tempo_map=tempo_map, time_signature=time_sig)
