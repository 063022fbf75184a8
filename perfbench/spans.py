"""In-memory spans around calls into notetune's public functions.

`Tracer.instrument()` swaps timing wrappers onto the public functions and
methods listed in LAYERS for the duration of a `with` block and restores
the originals afterwards; nothing under `src/` changes.  `replay_correct`
repeats, in order, the public calls `workflow.stage_correct` makes, so the
composite `verify` step gets a span of its own; the caller checks that the
replay writes the same plan bytes as the real call.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from notetune import corrector as corr
from notetune import datakit as dk
from notetune import detuner as dt
from notetune import evalkit as ek
from notetune import features as ft
from notetune import nncore as nn
from notetune import segmenter as seg
from notetune import spp as sp
from notetune import symbolic as sym
from notetune import workflow as wf

# (owner, attribute, span name).  Module-level functions are patched on
# their defining module, which is where both the workflow (`ft.load_audio`)
# and sibling functions (`extract_track` -> `track_pitch`) look them up.
LAYERS = [
    (ft, "load_audio", "features.load_audio"),
    (ft, "track_pitch", "features.track_pitch"),
    (ft, "mel_spectrogram", "features.mel_spectrogram"),
    (ft, "write_wav", "features.write_wav"),
    (nn.LocalEncoder, "__call__", "nncore.LocalEncoder"),
    (seg.Segmenter, "predict", "segmenter.Segmenter.predict"),
    (seg.Segmenter, "forward_batch", "segmenter.Segmenter.forward_batch"),
    (nn, "focal_loss", "nncore.focal_loss"),
    (nn.Tensor, "backward", "nncore.Tensor.backward"),
    (nn.AdamW, "step", "nncore.AdamW.step"),
    (seg, "detect_notes", "segmenter.detect_notes"),
    (sp.StationaryPitchPredictor, "estimate", "spp.StationaryPitchPredictor.estimate"),
    (sym.Cnpp, "predict", "symbolic.Cnpp.predict"),
    (corr, "build_plan", "corrector.build_plan"),
    (corr, "shift_audio", "corrector.shift_audio"),
    (dt, "generate_errors", "detuner.generate_errors"),
    (wf.Pipeline, "load", "workflow.Pipeline.load"),
] + [(wf, name, f"workflow.{name}") for name in (
    "stage_extract", "stage_train_segmenter", "stage_train_spp", "stage_train_detuner",
    "stage_train_cnpp")]

SCORE_BYTES = "nncore.LocalEncoder.score_bytes"
FRAMES = "frames"


class Tracer:
    """Spans (name, start, end, parent span name, depth, main-thread flag)
    plus named counts.  One tracer holds the spans of one operation."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, str | None, int, bool]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        stack.append(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            main = threading.current_thread() is threading.main_thread()
            self.spans.append((name, t0, t1, stack[-1] if stack else None, len(stack), main))

    def _wrap(self, fn, name):
        tracer = self

        def timed(*args, **kwargs):
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if name == "nncore.LocalEncoder":
                enc, x = args[0], args[1]
                B, T = (x.shape[0], x.shape[-2]) if x.ndim == 3 else (1, x.shape[-2])
                tracer.counts[SCORE_BYTES] += enc.cfg.layers * enc.cfg.heads * B * T * T * 8
            elif name == "features.track_pitch":
                tracer.counts[FRAMES] += len(out[0])
            return out

        return timed

    @contextmanager
    def instrument(self):
        saved = []
        try:
            for owner, attr, name in LAYERS:
                raw = owner.__dict__[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(raw.__func__, name)))
                else:
                    setattr(owner, attr, self._wrap(raw, name))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, t0, t1, *_ in self.spans:
            out[name] += t1 - t0
        return dict(out)

    def durations(self, name: str, parent: str | None = None) -> list[float]:
        """Seconds of each span called `name`, only those directly inside
        `parent` when one is given."""
        return [t1 - t0 for n, t0, t1, p, *_ in self.spans
                if n == name and (parent is None or p == parent)]

    def top_level_seconds(self) -> float:
        """Wall time covered by outermost spans of the main thread."""
        return sum(t1 - t0 for _n, t0, t1, _p, depth, main in self.spans if depth == 0 and main)

    def dump(self) -> dict:
        origin = min((s[1] for s in self.spans), default=0.0)
        return {
            "spans": [{"name": n, "start": t0 - origin, "end": t1 - origin, "parent": p,
                       "depth": d, "main_thread": m} for n, t0, t1, p, d, m in self.spans],
            "counts": dict(self.counts),
        }


def replay_correct(tr: Tracer, cfg: dict, in_wav, out_wav, ckpt_dir, annotations) -> dict:
    """The calls of `workflow.stage_correct` (variant "full", no cache, not
    a dry run), in order.

    Call inside `tr.instrument()`.  Returns the plan, the stationary
    estimates and the input track, which the benchmark uses for counts and
    quality, and the rows of `verify_plan`, which it compares with the
    residuals the real call writes.
    """
    pipeline = wf.Pipeline.load(ckpt_dir, cfg, variants=("full",))
    audio_cfg = cfg["audio"]
    sr, hop = audio_cfg["sample_rate"], audio_cfg["hop"]
    wav = ft.load_audio(in_wav, sr)
    track = ft.extract_track(wav, sr=sr, hop=hop, win=audio_cfg["win"], n_mels=audio_cfg["n_mels"])
    meta = sym.GridMeta.from_annotation(dk.import_annotations(annotations))
    notes, ests = pipeline.transcribe_base(track)
    targets = pipeline.note_targets(notes, ests, meta, "full", sr, hop)
    plan = corr.build_plan(ests, targets, notes, track)
    out_path = Path(out_wav)
    corr.write_plan_sidecar(out_path.with_suffix(".plan.tsv"), plan, track)
    corrected = corr.shift_audio(wav, plan, track)
    ft.write_wav(out_path, corrected, sr)
    with tr.span("verify"):
        track2 = ft.extract_track(
            corrected, sr=sr, hop=hop, win=audio_cfg["win"], n_mels=audio_cfg["n_mels"]
        )
        ests2 = pipeline.spp.estimate(track2, notes)
        rows = corr.verify_plan(ests2, plan, track)
    return {"plan": plan, "estimates": ests, "track": track, "rows": rows}


def plan_summary(replayed: dict, annotations) -> dict:
    """Note counts of the plan and the RPA of its note curve against the
    annotation, scored as `workflow.evaluate_split` scores a song."""
    track, plan = replayed["track"], replayed["plan"]
    ann = dk.import_annotations(annotations)
    T = track.n_frames
    gt_notes = [seg.NoteInterval(a, min(b, T))
                for a, b in ann.note_frames(track.sample_rate, track.hop) if a < T]
    gt_curve = ek.note_pitch_curve(gt_notes, [n.pitch for n in ann.notes[: len(gt_notes)]], T)
    pred_curve = ek.note_pitch_curve(plan.notes, plan.targets, T)
    return {
        "rpa": ek.rpa_from_curves(pred_curve, gt_curve, track.voiced),
        "notes": len(plan.notes),
        "clamped_notes": int(np.sum(np.abs(plan.deltas) > corr.MAX_SHIFT_SEMITONES)),
        "flagged_notes": int(sum(e.flagged for e in replayed["estimates"])),
    }
