"""Standard MIDI file writer for test fixtures: one track of notes, one
tempo, one time signature; `notetune.midifile.read_midi` reads it back."""

from __future__ import annotations

import struct
from pathlib import Path


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
