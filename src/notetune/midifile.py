"""Minimal standard MIDI file support: format 0/1, note events, tempo map.

Only what the annotation importer needs; no channel semantics beyond
note-on/note-off pairing, no pitch bend, no SysEx interpretation.
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


def _read_varlen(data: bytes, pos: int) -> tuple[int, int]:
    value = 0
    while True:
        if pos >= len(data):
            raise MidiError("truncated variable-length quantity")
        byte = data[pos]
        pos += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos


def read_midi(path) -> MidiSong:
    raw = Path(path).read_bytes()
    if raw[:4] != b"MThd":
        raise MidiError(f"{path}: not a standard MIDI file")
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
        if raw[pos : pos + 4] != b"MTrk":
            raise MidiError(f"{path}: malformed track chunk")
        track_len = struct.unpack(">I", raw[pos + 4 : pos + 8])[0]
        data = raw[pos + 8 : pos + 8 + track_len]
        pos += 8 + track_len
        tick = 0
        p = 0
        status = 0
        open_notes: dict[int, tuple[int, int]] = {}
        while p < len(data):
            delta, p = _read_varlen(data, p)
            tick += delta
            byte = data[p]
            if byte & 0x80:
                status = byte
                p += 1
            if status == 0xFF:
                meta = data[p]
                length, p2 = _read_varlen(data, p + 1)
                body = data[p2 : p2 + length]
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
                length, p2 = _read_varlen(data, p)
                p = p2 + length
            else:
                kind = status & 0xF0
                if kind in (0x80, 0x90, 0xA0, 0xB0, 0xE0):
                    d1, d2 = data[p], data[p + 1]
                    p += 2
                elif kind in (0xC0, 0xD0):
                    d1, d2 = data[p], 0
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


def _varlen(value: int) -> bytes:
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(out))


def write_midi(
    path,
    notes: list[tuple[float, float, int]],
    tempo_bpm: float = 120.0,
    time_signature: tuple[int, int] = (4, 4),
    tpqn: int = 480,
):
    """Write (onset_sec, offset_sec, pitch) notes as a single-track file."""
    us_per_beat = round(60e6 / tempo_bpm)
    ticks_per_sec = tpqn * 1e6 / us_per_beat

    events: list[tuple[int, int, bytes]] = []  # (tick, order, payload)
    num, den = time_signature
    events.append((0, 0, bytes([0xFF, 0x58, 0x04, num, den.bit_length() - 1, 24, 8])))
    events.append((0, 0, b"\xff\x51\x03" + us_per_beat.to_bytes(3, "big")))
    for onset, offset, pitch in notes:
        on_tick = round(onset * ticks_per_sec)
        off_tick = max(on_tick + 1, round(offset * ticks_per_sec))
        events.append((on_tick, 1, bytes([0x90, pitch, 100])))
        events.append((off_tick, 0, bytes([0x80, pitch, 0])))
    events.sort(key=lambda e: (e[0], e[1]))

    body = bytearray()
    prev = 0
    for tick, _, payload in events:
        body += _varlen(tick - prev) + payload
        prev = tick
    body += _varlen(0) + bytes([0xFF, 0x2F, 0x00])

    out = bytearray(b"MThd")
    out += struct.pack(">IHHH", 6, 0, 1, tpqn)
    out += b"MTrk" + struct.pack(">I", len(body)) + body
    Path(path).write_bytes(bytes(out))
