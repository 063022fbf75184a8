"""Frame-level accuracy metrics and ablation tables."""

from __future__ import annotations

import numpy as np

RPA_TOLERANCE = 0.5  # semitones, strict inequality


def note_pitch_curve(notes, pitches, n_frames: int) -> np.ndarray:
    """Frame-level curve holding each note's pitch over its span, NaN outside."""
    curve = np.full(n_frames, np.nan)
    for note, p in zip(notes, pitches):
        a = max(note.start_frame, 0)
        b = min(note.end_frame, n_frames)
        curve[a:b] = p
    return curve


def rpa_from_curves(pred_curve: np.ndarray, gt_curve: np.ndarray, voiced: np.ndarray) -> dict:
    """Raw pitch accuracy over voiced frames covered by ground-truth notes.

    A frame counts as correct when |pred - gt| < 0.5 semitones (strict);
    frames without a prediction count as incorrect.  Returns NaN when no
    frame qualifies.
    """
    v = np.asarray(voiced, dtype=bool) & np.isfinite(gt_curve)
    n = int(v.sum())
    if n == 0:
        return {"rpa_percent": float("nan"), "n_frames": 0}
    pred = pred_curve[v]
    correct = np.isfinite(pred) & (np.abs(pred - gt_curve[v]) < RPA_TOLERANCE)
    return {"rpa_percent": 100.0 * float(correct.mean()), "n_frames": n}


def pooled_rpa(per_song: list[dict]) -> dict:
    """Frame-weighted pool of per-song RPA dicts."""
    n = sum(r["n_frames"] for r in per_song)
    if n == 0:
        return {"rpa_percent": float("nan"), "n_frames": 0}
    correct = sum(r["rpa_percent"] * r["n_frames"] / 100.0 for r in per_song if r["n_frames"])
    return {"rpa_percent": 100.0 * correct / n, "n_frames": n}


def format_ablation_table(table: dict[str, dict[str, float]], splits: list[str]) -> str:
    width = max(len(k) for k in table) + 2
    lines = ["variant".ljust(width) + "".join(s.rjust(18) for s in splits)]
    for name, row in table.items():
        lines.append(name.ljust(width) + "".join(f"{row[s]:18.2f}" for s in splits))
    return "\n".join(lines)
