"""Pipeline stages: data synthesis, feature extraction, training, correction,
evaluation.  The CLI is a thin wrapper over these functions; tests drive them
directly.

The four trainers, evaluate, ablate and the full recipe append an entry to
<out_dir>/run_manifest.json holding the config hash, seed, and SHA-256 of
each produced file, which is enough to reproduce a byte-identical metrics
file.  synth-data and extract record their work in dataset.json instead, and
correct in the sidecar files next to its output WAV.

The manifest is a record: no stage reads it.  A stage run before the one
that writes its input fails where it reads that input, with a
StageOrderError naming the command to run first: `load_dataset` (synth-data),
`songs_by` (extract) and `_load_model` (the trainer of the checkpoint).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import nncore as nn
from . import corrector as corr
from . import datakit as dk
from . import detuner as dt
from . import evalkit as ek
from . import features as ft
from . import segmenter as seg
from . import spp as sp
from . import symbolic as sym
from .config import config_hash
from .frontend import WINDOW, FrameEncoderConfig, frame_inputs

log = logging.getLogger(__name__)


class StageOrderError(RuntimeError):
    pass


# ---- layout -------------------------------------------------------------------

def data_paths(data_dir) -> dict:
    root = Path(data_dir)
    return {
        "root": root,
        "audio": root / "audio",
        "annotations": root / "annotations",
        "features": root / "features",
        "dataset": root / "dataset.json",
    }


def load_dataset(data_dir) -> dict:
    path = data_paths(data_dir)["dataset"]
    if not path.exists():
        raise StageOrderError(f"dataset manifest not found at {path}; run synth-data first")
    return json.loads(path.read_text())


def _sha256(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def manifest_add(out_dir, stage: str, cfg: dict, files: dict, extra: dict | None = None):
    out_dir = Path(out_dir)
    path = out_dir / "run_manifest.json"
    doc = json.loads(path.read_text()) if path.exists() else {"version": 1, "stages": []}
    doc["stages"] = [s for s in doc["stages"] if s["stage"] != stage]
    doc["stages"].append(
        {
            "stage": stage,
            "seed": cfg.get("seed"),
            "config_hash": config_hash(cfg),
            "files": {
                name: {"path": Path(p).relative_to(out_dir).as_posix(), "sha256": _sha256(p)}
                for name, p in files.items()
            },
            "extra": extra or {},
        }
    )
    doc["stages"].sort(key=lambda s: s["stage"])
    dk.write_json(path, doc)


def _derived_seed(base: int, group: str, index: int) -> int:
    return int(np.random.SeedSequence([base, zlib.crc32(group.encode()), index]).generate_state(1)[0])


# ---- stage: synth-data -----------------------------------------------------------

def stage_synth_data(cfg: dict, data_dir) -> dict:
    """Render the training corpus plus held-out evaluation sets."""
    paths = data_paths(data_dir)
    for key in ("audio", "annotations"):
        paths[key].mkdir(parents=True, exist_ok=True)
    corpus_cfg = cfg["corpus"]
    seed = cfg["seed"]
    lo, hi = corpus_cfg["uniform_range"]
    rng = np.random.default_rng(_derived_seed(seed, "assign", 0))

    n = corpus_cfg["n_songs"]
    kinds = []
    for kind, frac in corpus_cfg["fractions"].items():
        kinds += [kind] * round(frac * n)
    while len(kinds) < n:
        kinds.append("uniform")
    kinds = kinds[:n]
    rng.shuffle(kinds)

    samples: dict[str, dict] = {}

    def render(sid: str, group: str, index: int, kind: str):
        spec = dk.SynthSpec(
            seed=_derived_seed(seed, group, index),
            n_notes=int(rng.integers(corpus_cfg["notes_min"], corpus_cfg["notes_max"] + 1)),
            detune=dk.DetuneSpec(kind=kind, lo=lo, hi=hi, **corpus_cfg["ar1"]),
            sample_rate=cfg["audio"]["sample_rate"],
        )
        wav, ann = dk.synth_song(spec)
        ann.sample_id = sid
        ann.audio = f"audio/{sid}.wav"
        ft.write_wav(paths["audio"] / f"{sid}.wav", wav, spec.sample_rate)
        dk.export_annotations(ann, paths["annotations"] / f"{sid}.json")
        samples[sid] = {
            "group": group,
            "detune_kind": kind,
            "audio": ann.audio,
            "annotation": f"annotations/{sid}.json",
        }

    for i, kind in enumerate(kinds):
        render(f"song_{i:04d}", "corpus", i, kind)
    for name, spec in corpus_cfg["eval_sets"].items():
        for i in range(spec["n_songs"]):
            render(f"{name}_{i:03d}", name, i, spec["detune"])

    doc = {"version": 1, "seed": seed, "samples": samples}
    dk.write_json(data_paths(data_dir)["dataset"], doc)
    log.info("synthesized %d songs into %s", len(samples), data_dir)
    return doc


# ---- stage: extract ------------------------------------------------------------

def _extract_track(wav: np.ndarray, audio_cfg: dict, pool=None) -> ft.FrameTrack:
    return ft.extract_track(
        wav,
        sr=audio_cfg["sample_rate"],
        hop=audio_cfg["hop"],
        win=audio_cfg["win"],
        n_mels=audio_cfg["n_mels"],
        pool=pool,
    )


def stage_extract(cfg: dict, data_dir, jobs: int = ft.YIN_THREADS) -> dict:
    """Extract feature tracks, score corpus pitch errors, assign splits.

    A song's pitch error (`delta_bar`) is the mean |trimmed mean - intended
    pitch| over its unflagged annotated notes.  One pass per song, one song
    after another: each song is read once, and its track is extracted, saved
    and scored before the next song is read.  Every song's YIN chunks run on
    one pool of `jobs` threads (at most one per CPU), and `extract_track`
    starts a song's mel only after its last chunk returns, so no mel matmul
    (BLAS threads) competes with the YIN threads and no more than `jobs`
    of them run at once.  The bytes do not depend on `jobs`.
    """
    paths = data_paths(data_dir)
    paths["features"].mkdir(parents=True, exist_ok=True)
    doc = load_dataset(data_dir)
    audio_cfg = cfg["audio"]
    results = {}
    with ThreadPoolExecutor(min(jobs, os.cpu_count() or 1)) as pool:
        for sid, entry in sorted(doc["samples"].items()):
            wav = ft.load_audio(paths["root"] / entry["audio"], audio_cfg["sample_rate"])
            track = _extract_track(wav, audio_cfg, pool)
            del wav  # not held while the track is saved and scored, nor while the next song loads
            ft.save_track(paths["features"] / f"{sid}.npz", track)
            song = SongData(ann=dk.import_annotations(paths["root"] / entry["annotation"]), track=track)
            ests = sp.aggregate_trimmed_mean(track, song.notes)
            errors = [abs(e.pitch - p) for e, p in zip(ests, song.pitches) if not e.flagged]
            results[sid] = float(np.mean(errors)) if errors else 0.0

    corpus_errors = {sid: results[sid] for sid, e in doc["samples"].items() if e["group"] == "corpus"}
    split = dk.split_dataset(corpus_errors, seed=cfg["seed"])
    for sid, entry in doc["samples"].items():
        entry["features"] = f"features/{sid}.npz"
        entry["delta_bar"] = results[sid]
        if entry["group"] == "corpus":
            subset, role = split[sid]
            entry["subset"] = subset
            entry["role"] = role
        else:
            entry["subset"] = entry["group"]
            entry["role"] = "test"
    dk.write_json(data_paths(data_dir)["dataset"], doc)
    log.info("extracted features for %d samples", len(results))
    return doc


# ---- song loading ---------------------------------------------------------------

@dataclass
class SongData:
    """A song's annotation and track, with its annotated notes as intervals
    clipped to the track, their intended pitches and their sung pitches
    (the intended pitch where none is given)."""

    ann: dk.AnnotatedSample
    track: ft.FrameTrack
    notes: list[seg.NoteInterval] = field(init=False)
    pitches: list[int] = field(init=False)
    sung: list[float] = field(init=False)

    def __post_init__(self):
        T = self.track.n_frames
        spans = self.ann.note_frames(self.track.sample_rate, self.track.hop)
        self.notes = [seg.NoteInterval(a, min(b, T)) for a, b in spans if a < T]
        kept = self.ann.notes[: len(self.notes)]
        self.pitches = [n.pitch for n in kept]
        self.sung = [n.sung_pitch if n.sung_pitch is not None else float(n.pitch) for n in kept]


def load_song(data_dir, entry: dict) -> SongData:
    paths = data_paths(data_dir)
    track = ft.load_track(paths["root"] / entry["features"])
    ann = dk.import_annotations(paths["root"] / entry["annotation"])
    return SongData(ann=ann, track=track)


def songs_by(data_dir, doc: dict, subset: str | None = None, role=None) -> list[SongData]:
    if any("features" not in entry for entry in doc["samples"].values()):
        raise StageOrderError(f"the dataset in {data_dir} has no features yet; run extract first")
    out = []
    for _sid, entry in sorted(doc["samples"].items()):
        if subset is not None and entry.get("subset") != subset:
            continue
        if role is not None and entry.get("role") != role:
            continue
        out.append(load_song(data_dir, entry))
    return out


# ---- stage: train-segmenter --------------------------------------------------------

def _frame_model_cfg(cfg: dict, section: str) -> FrameEncoderConfig:
    return FrameEncoderConfig(n_mels=cfg["audio"]["n_mels"], seed=cfg["seed"], **cfg[section]["model"])


def _detect_notes(model: seg.Segmenter, track: ft.FrameTrack, cfg: dict) -> list[seg.NoteInterval]:
    """The note decode of `correct`, and the one reader of the segmenter's
    decode settings: `nms_window`, `theta` and `min_note_frames`."""
    scfg = cfg["segmenter"]
    return seg.detect_notes(track, model.predict(track), w=scfg["nms_window"], theta=scfg["theta"],
                            min_note_frames=scfg["min_note_frames"])


def _validate_segmenter(model, songs, cfg):
    """Mean onset precision, recall and F1 over `songs` of the notes that
    `correct` would detect."""
    scores = [seg.boundary_prf([n.start_frame for n in _detect_notes(model, song.track, cfg)],
                               [n.start_frame for n in song.notes]) for song in songs]
    p, r, f = (float(np.mean([s[i] for s in scores])) for i in range(3))
    return {"precision": p, "recall": r, "f1": f}


def train_segmenter_on(songs, val_songs, cfg: dict) -> tuple[seg.Segmenter, dict]:
    scfg = cfg["segmenter"]
    tr = scfg["train"]
    model = seg.Segmenter(_frame_model_cfg(cfg, "segmenter"))
    opt = nn.AdamW(model.params(), tr["lr"], tr["steps"], tr["warmup"], tr["weight_decay"])
    rng = np.random.default_rng(_derived_seed(cfg["seed"], "train_segmenter", 0))
    data = []
    for song in songs:
        hard = np.zeros(song.track.n_frames)
        hard[[n.start_frame for n in song.notes]] = 1.0
        data.append((song.track, hard, seg.soften_labels(hard, scfg["soft_sigma"])))

    crop = min([WINDOW, *(song.track.n_frames for song in songs)])
    history = {"loss": [], "val": []}
    for step in range(tr["steps"]):
        xs, softs, hards = [], [], []
        for _ in range(tr["batch"]):
            track, hard, soft = data[int(rng.integers(0, len(data)))]
            start = int(rng.integers(0, max(len(hard) - crop, 1)))
            xs.append(frame_inputs(track, start, start + crop))
            hards.append(hard[start : start + crop])
            softs.append(soft[start : start + crop])
        probs = model.forward_batch(np.stack(xs))
        loss = nn.focal_loss(probs, np.stack(softs), np.stack(hards), **scfg["focal"]) / tr["batch"]
        history["loss"].append(nn.train_step(loss, opt, context="segmenter"))
        if val_songs and (step + 1) % tr["eval_every"] == 0:
            metrics = _validate_segmenter(model, val_songs, cfg)
            history["val"].append({"step": step + 1, **metrics})
            log.info("segmenter step %d: val F1(+-3)=%.3f", step + 1, metrics["f1"])
    if val_songs:
        history["final_val"] = _validate_segmenter(model, val_songs, cfg)
    return model, history


def _stage_train_frame_model(cfg: dict, data_dir, out_dir, name: str, train_on, subset) -> dict:
    """Train the frame model `name` with `train_on` on the train and val
    songs of `subset` (None: every subset), then save and record it."""
    doc = load_dataset(data_dir)
    train_songs = songs_by(data_dir, doc, subset=subset, role="train")
    val_songs = songs_by(data_dir, doc, subset=subset, role="val")
    model, history = train_on(train_songs, val_songs, cfg)
    ckpt = _save_model(
        out_dir, name, model, cfg, {"model": cfg[name]["model"]},
        {"final_val": history.get("final_val", {})},
    )
    manifest_add(out_dir, f"train_{name}", cfg, {name: ckpt}, history.get("final_val"))
    return history


def stage_train_segmenter(cfg: dict, data_dir, out_dir) -> dict:
    return _stage_train_frame_model(cfg, data_dir, out_dir, "segmenter", train_segmenter_on, None)


# ---- stage: train-spp ---------------------------------------------------------------

def train_spp_on(songs, val_songs, cfg: dict) -> tuple[sp.StationaryPitchPredictor, dict]:
    pcfg = cfg["spp"]
    tr = pcfg["train"]
    lw = sp.SppLossWeights(**pcfg["loss"])
    model = sp.StationaryPitchPredictor(_frame_model_cfg(cfg, "spp"))
    opt = nn.AdamW(model.params(), tr["lr"], tr["steps"], tr["warmup"], tr["weight_decay"])
    rng = np.random.default_rng(_derived_seed(cfg["seed"], "train_spp", 0))
    data = [(song, sp.local_pitch_std(song.track.pitch_filled)) for song in songs]
    crop = min([WINDOW, *(song.track.n_frames for song in songs)])
    history = {"loss": [], "val": []}
    for step in range(tr["steps"]):
        batch = []
        for _ in range(tr["batch"]):
            song, sigma = data[int(rng.integers(0, len(data)))]
            j = int(rng.integers(0, len(song.notes)))
            start = int(np.clip(song.notes[j].start_frame, 0, song.track.n_frames - crop))
            inside = [
                (n.start_frame - start, n.end_frame - start, p)
                for n, p in zip(song.notes, song.pitches)
                if n.start_frame >= start and n.end_frame <= start + crop
            ]
            if not inside:
                continue
            batch.append((frame_inputs(song.track, start, start + crop), inside, song, sigma, start))
        if not batch:
            continue
        x = np.stack([b[0] for b in batch])
        logits = model.forward_batch(x)
        losses = []
        for bi, (_x, inside, song, sigma, start) in enumerate(batch):
            for a, b, gt in inside:
                vidx = np.flatnonzero(song.track.voiced[start + a : start + b])
                if len(vidx) == 0:
                    continue
                e = logits[bi, a:b][vidx]
                w = nn.softmax(e, axis=-1)
                p_frames = song.track.pitch_semitones[start + a : start + b][vidx]
                s_frames = sigma[start + a : start + b][vidx]
                total, _ = sp.spp_note_loss(w, p_frames, float(gt), s_frames, lw)
                losses.append(total)
        if not losses:
            continue
        loss = sum(losses[1:], losses[0]) / len(losses)
        history["loss"].append(nn.train_step(loss, opt, context="spp"))
        if val_songs and (step + 1) % tr["eval_every"] == 0:
            scores = score_estimators({"spp": model.estimate}, val_songs)["spp"]
            history["val"].append({"step": step + 1, **scores})
    if val_songs:
        history["final_val"] = score_estimators({"spp": model.estimate}, val_songs)["spp"]
    return model, history


def score_estimators(estimators: dict, songs) -> dict:
    """PTR/MAE (`sp.evaluate_spp`) of each `estimate(track, notes)` callable
    against the sung pitches of the songs' annotated notes, over the notes
    that it leaves unflagged."""
    scores = {}
    for name, estimate in estimators.items():
        est, gt = [], []
        for song in songs:
            for e, s in zip(estimate(song.track, song.notes), song.sung):
                if not e.flagged:
                    est.append(e.pitch)
                    gt.append(s)
        scores[name] = sp.evaluate_spp(np.array(est), np.array(gt))
    return scores


def stage_train_spp(cfg: dict, data_dir, out_dir) -> dict:
    return _stage_train_frame_model(cfg, data_dir, out_dir, "spp", train_spp_on, "in_tune")


# ---- stage: train-detuner --------------------------------------------------------------

def _detuner_cfg(cfg: dict) -> dt.DetunerConfig:
    d = cfg["detuner"]
    return dt.DetunerConfig(hidden=d["hidden"], seed=cfg["seed"], min_notes=d["min_notes"])


def stage_train_detuner(cfg: dict, data_dir, out_dir) -> dict:
    doc = load_dataset(data_dir)
    spp_model = load_spp(out_dir, cfg)
    songs = songs_by(data_dir, doc, subset="high", role="train")
    sequences = []
    for song in songs:
        ests = spp_model.estimate(song.track, song.notes)
        pitches = np.array(song.pitches, dtype=np.float64)
        errors = np.array([e.pitch for e in ests]) - pitches
        dur_beats = sym.octuples_from_annotation(song.ann)["dur"][: len(song.notes)] / sym.GRID_PER_BEAT
        sequences.append((pitches, dur_beats, errors))
    dcfg = _detuner_cfg(cfg)
    result = dt.train_detuner(
        sequences,
        dcfg,
        steps=cfg["detuner"]["steps"],
        batch_size=cfg["detuner"]["batch"],
        lr=cfg["detuner"]["lr"],
    )
    ckpt = _save_model(
        out_dir, "detuner", result.model, cfg, {"hidden": dcfg.hidden},
        {"sigma_e": result.sigma_e, "final_loss": result.losses[-1] if result.losses else None},
    )
    manifest_add(out_dir, "train_detuner", cfg, {"detuner": ckpt}, {"sigma_e": result.sigma_e})
    return {"sigma_e": result.sigma_e, "losses": result.losses}


# ---- stage: train-cnpp ------------------------------------------------------------------

# The rows of the ablation.  Each CNPP variant says whether fine-tuning
# detunes its pitch inputs with the trained detuner, and whether its pitch
# embedding rounds the stationary estimates instead of interpolating them.
# VARIANTS is every decode `correct`, `evaluate` and `ablate` accept: the
# CNPP variants, then `no_cnpp`, which has no CNPP and rounds the estimates.
CNPP_VARIANTS = {
    "full": {"detune": True, "rounded": False},
    "no_augment": {"detune": False, "rounded": False},
    "rounded_embed": {"detune": True, "rounded": True},
}
VARIANTS = (*CNPP_VARIANTS, "no_cnpp")


def check_variants(names, known):
    for name in names:
        if name not in known:
            raise ValueError(f"unknown variant {name!r}; choose from {', '.join(known)}")


def _cnpp_cfg(cfg: dict) -> nn.TransformerConfig:
    return nn.TransformerConfig(seed=cfg["seed"], **cfg["cnpp"]["model"])


def _symbolic_pretrain_sequences(cfg: dict) -> list[sym.Octuples]:
    n_songs = cfg["cnpp"]["pretrain"]["n_songs"]
    out = []
    for i in range(n_songs):
        spec = dk.SynthSpec(seed=_derived_seed(cfg["seed"], "symbolic_pretrain", i))
        rng = np.random.default_rng(spec.seed)
        _tonic, tempo, events = dk.synth_melody(spec, rng)
        meta = sym.GridMeta(tempo_bpm=tempo)
        spb = 60.0 / tempo
        onsets = np.array([e[1] * spb for e in events])
        durs = np.array([e[2] * spb for e in events])
        pitches = np.array([float(e[0]) for e in events])
        out.append(sym.events_from_times(onsets, durs, pitches, meta))
    return out


def _cnpp_loss(logits: dict, fields: dict, pad: np.ndarray, gt: np.ndarray, pitch_rows: np.ndarray,
               w_other: float):
    """Pitch cross-entropy over `pitch_rows` plus `w_other` times the mean
    cross-entropy of the other seven fields over every real event."""
    B, N = pad.shape
    pitch_loss = nn.cross_entropy_logits(
        logits["pitch"].reshape((B * N, sym.PITCH_TOKENS)), gt.reshape(-1), pitch_rows.reshape(-1)
    )
    losses = []
    flat_mask = pad.reshape(-1)
    for name in sym.FIELD_NAMES:
        if name == "pitch":
            continue
        V = logits[name].shape[-1]
        losses.append(
            nn.cross_entropy_logits(logits[name].reshape((B * N, V)), fields[name].reshape(-1), flat_mask)
        )
    return pitch_loss + w_other * (sum(losses[1:], losses[0]) / len(losses))


def pretrain_cnpp(cfg: dict, sequences) -> sym.Cnpp:
    pt = cfg["cnpp"]["pretrain"]
    model = sym.Cnpp(_cnpp_cfg(cfg))
    opt = nn.AdamW(model.params(), pt["lr"], pt["steps"], 100)
    rng = np.random.default_rng(_derived_seed(cfg["seed"], "pretrain_cnpp", 0))
    drop_rng = np.random.default_rng(_derived_seed(cfg["seed"], "pretrain_dropout", 0))
    w_other = cfg["cnpp"]["finetune"]["field_loss_weight"]
    for step in range(pt["steps"]):
        idx = rng.integers(0, len(sequences), size=pt["batch"])
        seqs = [sequences[j] for j in idx]
        fields, pitch_values, pad = sym.pack_sequences(seqs)
        gt = pitch_values.astype(np.int64)
        mask_pos = (rng.random(pad.shape) < pt["mask_prob"]) & (pad > 0)
        # guarantee at least one masked position per sequence
        for b in range(len(seqs)):
            if not mask_pos[b].any():
                mask_pos[b, int(rng.integers(0, len(seqs[b]["pitch"])))] = True
        logits = model.forward(
            fields, pitch_values, pad, rounded=False, mask_positions=mask_pos, rng=drop_rng
        )
        loss = _cnpp_loss(logits, fields, pad, gt, mask_pos.astype(np.float64), w_other)
        nn.train_step(loss, opt, context="cnpp-pretrain")
    return model


def finetune_cnpp(cfg: dict, model: sym.Cnpp, sequences: list[sym.Octuples], detuner_model: dt.Detuner | None,
                  sigma_e: float, variant: str) -> list[float]:
    ftc = cfg["cnpp"]["finetune"]
    spec = CNPP_VARIANTS[variant]
    p_max = ftc["p_det"] if spec["detune"] else 0.0
    opt = nn.AdamW(model.params(), ftc["lr"], ftc["steps"], 100)
    rng = np.random.default_rng(_derived_seed(cfg["seed"], f"finetune_{variant}", 0))
    drop_rng = np.random.default_rng(_derived_seed(cfg["seed"], f"finetune_drop_{variant}", 0))
    losses = []
    for step in range(ftc["steps"]):
        p_det = sym.detune_schedule(step, ftc["steps"], p_max=p_max, ramp_frac=ftc["ramp_frac"])
        seqs = [sequences[j] for j in rng.integers(0, len(sequences), size=ftc["batch"])]
        fields, pv, pad = sym.pack_sequences(seqs)
        gt = pv.astype(np.int64)
        for b, seq in enumerate(seqs):
            if p_det > 0 and rng.random() < p_det:
                L = len(seq["pitch"])
                errors = dt.generate_errors(
                    detuner_model,
                    sigma_e,
                    pv[b, :L],
                    seq["dur"] / sym.GRID_PER_BEAT,
                    seed=int(rng.integers(0, 2**31 - 1)),
                )
                pv[b, :L] = np.clip(pv[b, :L] + errors, 0.0, 127.0)
        logits = model.forward(fields, pv, pad, spec["rounded"], rng=drop_rng)
        loss = _cnpp_loss(logits, fields, pad, gt, pad, ftc["field_loss_weight"])
        losses.append(nn.train_step(loss, opt, context=f"cnpp-{variant}"))
    return losses


def stage_train_cnpp(cfg: dict, data_dir, out_dir, variant: str) -> dict:
    check_variants([variant], CNPP_VARIANTS)
    out_dir = Path(out_dir)
    songs = songs_by(data_dir, load_dataset(data_dir), subset="moderate", role="train")
    detuner_model, sigma_e = None, 0.0
    if CNPP_VARIANTS[variant]["detune"]:
        detuner_model, sigma_e = load_detuner(out_dir, cfg)

    # the pretrained model is shared by all variants; it is reused only when
    # it was pretrained under the settings pretraining reads
    c = cfg["cnpp"]
    settings = config_hash({"seed": cfg["seed"], "model": c["model"], "pretrain": c["pretrain"],
                            "field_loss_weight": c["finetune"]["field_loss_weight"]})
    pretrained = out_dir / "cnpp_pretrained.npz"
    if pretrained.exists() and nn.load_checkpoint(pretrained)["extra"].get("pretrain_hash") == settings:
        model = load_cnpp(out_dir, cfg, "pretrained")
    else:
        model = pretrain_cnpp(cfg, _symbolic_pretrain_sequences(cfg))
        _save_model(out_dir, "cnpp_pretrained", model, cfg, {"model": c["model"]}, {"pretrain_hash": settings})

    sequences = [sym.octuples_from_annotation(song.ann) for song in songs]
    losses = finetune_cnpp(cfg, model, sequences, detuner_model, sigma_e, variant)
    ckpt = _save_model(
        out_dir, f"cnpp_{variant}", model, cfg, {"model": cfg["cnpp"]["model"]},
        {"final_loss": losses[-1] if losses else None},
    )
    manifest_add(out_dir, f"train_cnpp_{variant}", cfg, {f"cnpp_{variant}": ckpt})
    return {"losses": losses}


# ---- checkpoints -------------------------------------------------------------------

def _save_model(out_dir, name: str, model, cfg: dict, shape: dict, extra: dict | None = None) -> Path:
    """Write <out_dir>/<name>.npz; its config block is {"kind": name, **shape, "seed"}."""
    path = Path(out_dir) / f"{name}.npz"
    nn.save_checkpoint(path, model.params(), {"kind": name, **shape, "seed": cfg["seed"]}, extra)
    return path


def _load_model(out_dir, name: str, build):
    """The model `build()` makes, filled from <out_dir>/<name>.npz, with the
    checkpoint's extra block.  It is built inside `nn.no_init`, so no
    initial weight is drawn for the checkpoint to overwrite.

    A missing checkpoint raises StageOrderError naming the command that
    writes it: `train-<name>`, or `train-cnpp --variant <v>` for cnpp_<v>.
    """
    path = Path(out_dir) / f"{name}.npz"
    if not path.exists():
        variant = name.removeprefix("cnpp_")
        command = f"train-{name}" if variant == name else f"train-cnpp --variant {variant}"
        raise StageOrderError(f"checkpoint {path.name} not found in {out_dir}; run `notetune {command}` first")
    with nn.no_init():
        model = build()
    return model, nn.load_checkpoint(path, model.params())["extra"]


def load_segmenter(out_dir, cfg: dict) -> seg.Segmenter:
    return _load_model(out_dir, "segmenter", lambda: seg.Segmenter(_frame_model_cfg(cfg, "segmenter")))[0]


def load_spp(out_dir, cfg: dict) -> sp.StationaryPitchPredictor:
    return _load_model(out_dir, "spp", lambda: sp.StationaryPitchPredictor(_frame_model_cfg(cfg, "spp")))[0]


def load_detuner(out_dir, cfg: dict) -> tuple[dt.Detuner, float]:
    model, extra = _load_model(out_dir, "detuner", lambda: dt.Detuner(_detuner_cfg(cfg)))
    return model, float(extra["sigma_e"])


def load_cnpp(out_dir, cfg: dict, variant: str = "full") -> sym.Cnpp:
    return _load_model(out_dir, f"cnpp_{variant}", lambda: sym.Cnpp(_cnpp_cfg(cfg)))[0]


# ---- transcription + evaluation -------------------------------------------------------

@dataclass
class Pipeline:
    cfg: dict
    segmenter: seg.Segmenter
    spp: sp.StationaryPitchPredictor
    cnpps: dict[str, sym.Cnpp]

    @classmethod
    def load(cls, out_dir, cfg: dict, variants) -> "Pipeline":
        check_variants(variants, VARIANTS)
        return cls(cfg, load_segmenter(out_dir, cfg), load_spp(out_dir, cfg),
                   {v: load_cnpp(out_dir, cfg, v) for v in variants if v in CNPP_VARIANTS})

    def transcribe_base(self, track: ft.FrameTrack):
        notes = _detect_notes(self.segmenter, track, self.cfg)
        return notes, self.spp.estimate(track, notes)

    def note_targets(self, notes, ests, meta: sym.GridMeta, variant: str, sr: int, hop: int) -> np.ndarray:
        if variant not in CNPP_VARIANTS:
            return sym.round_pitch([e.pitch for e in ests]).astype(np.float64)
        events = sym.notes_to_octuples(notes, ests, meta, sr, hop)
        tokens, _ = self.cnpps[variant].predict(events, CNPP_VARIANTS[variant]["rounded"])
        return tokens.astype(np.float64)


def evaluate_split(pipeline: Pipeline, data_dir, split: str, variants) -> dict:
    doc = load_dataset(data_dir)
    songs = songs_by(data_dir, doc, subset=split)
    if not songs:
        raise ValueError(f"no songs in split {split!r}")
    per_variant = {v: [] for v in variants}
    sr = pipeline.cfg["audio"]["sample_rate"]
    hop = pipeline.cfg["audio"]["hop"]
    for song in songs:
        notes, ests = pipeline.transcribe_base(song.track)
        T = song.track.n_frames
        gt_curve = ek.note_pitch_curve(song.notes, song.pitches, T)
        meta = sym.GridMeta.from_annotation(song.ann)
        for v in variants:
            targets = pipeline.note_targets(notes, ests, meta, v, sr, hop)
            pred_curve = ek.note_pitch_curve(notes, targets, T)
            per_variant[v].append(ek.rpa_from_curves(pred_curve, gt_curve, song.track.voiced))
    return {v: {"pooled": ek.pooled_rpa(rows), "per_song": rows} for v, rows in per_variant.items()}


def evaluate_spp_benchmark(spp: sp.StationaryPitchPredictor, data_dir) -> dict:
    """PTR/MAE of the SPP vs the two baseline aggregators on the annotated
    notes of the spp_bench split."""
    songs = songs_by(data_dir, load_dataset(data_dir), subset="spp_bench")
    if not songs:
        raise ValueError("no songs in split 'spp_bench'")
    estimators = {"spp": spp.estimate, "average": sp.aggregate_average,
                  "weighted_median": sp.aggregate_weighted_median}
    return score_estimators(estimators, songs)


def stage_evaluate(cfg: dict, data_dir, out_dir, split: str, variants) -> dict:
    pipeline = Pipeline.load(out_dir, cfg, variants=variants)
    results = evaluate_split(pipeline, data_dir, split, variants=variants)
    metrics = {"split": split, "rpa": {v: results[v]["pooled"] for v in results}}
    report = dk.write_json(Path(out_dir) / "reports" / split / "metrics.json", metrics)
    manifest_add(out_dir, f"evaluate_{split}", cfg, {"metrics": report})
    return results


def stage_ablate(cfg: dict, data_dir, out_dir, splits=("moderate_eval", "high_eval")) -> dict:
    pipeline = Pipeline.load(out_dir, cfg, variants=VARIANTS)
    cache = {s: evaluate_split(pipeline, data_dir, s, variants=VARIANTS) for s in splits}
    table = {v: {s: cache[s][v]["pooled"]["rpa_percent"] for s in splits} for v in VARIANTS}
    text = ek.format_ablation_table(table, list(splits))
    report_dir = Path(out_dir) / "reports" / "ablation"
    report = dk.write_json(report_dir / "metrics.json", {"ablation_rpa": table})
    (report_dir / "ablation.txt").write_text(text + "\n")
    manifest_add(out_dir, "ablate", cfg, {"table": report})
    log.info("ablation table:\n%s", text)
    return table


# ---- stage: correct -----------------------------------------------------------------

def _write_shifted(wav, plan: corr.CorrectionPlan, track: ft.FrameTrack, pcm_path: Path, floats_path: Path):
    """Write the blocks of `corr.shifted_blocks` as they come: to `pcm_path`
    as 16-bit PCM and to `floats_path` as float64 samples."""
    with open(pcm_path, "wb") as pcm_file, open(floats_path, "wb") as floats_file:
        pcm = ft.WavWriter(pcm_file, len(wav), track.sample_rate, "<i2")
        floats = ft.WavWriter(floats_file, len(wav), track.sample_rate, "<f8")
        for block in corr.shifted_blocks(wav, plan, track):
            pcm.write(block)
            floats.write(block)


def stage_correct(
    cfg: dict,
    in_wav,
    out_wav,
    ckpt_dir,
    annotations=None,
    dry_run: bool = False,
    variant: str = "full",
    cache_dir=None,
) -> dict:
    """Correct one take: track it (or read its cached track), transcribe and
    target its notes, write the plan sidecar and, unless `dry_run`, the
    shifted audio and its residuals.

    No take-long array of samples is held (but for a take at another rate,
    which is resampled whole).  The take is read through a
    `features.WavReader`: the cache key, the tracker and the mel read it a
    block or a chunk's span at a time, and the frame models, which run on
    windows of at most 256 frames (`frontend.windowed`), hold none of it.
    `corrector.shifted_blocks` reads it forward a batch of grains at a
    time and gives the corrected samples in order; however long a voiced
    run, it holds only that run's per-grain arrays beside a batch.  Each
    block goes, as it comes, to two files in a temporary directory beside
    the output: the 16-bit PCM that then replaces the output WAV, so the
    output may be the take itself and a failed run leaves no partial
    output, and a float64 copy that the verify pass tracks through a reader
    of its own before it re-estimates each note's stationary pitch.  That
    copy takes 8 bytes a sample (10.6 MB per audio minute at 22050 Hz) on
    the output's filesystem until the verify tracking ends.  A take whose
    size changes while it is read is an error.
    """
    if annotations is not None:
        ann = dk.import_annotations(annotations)
        meta = sym.GridMeta.from_annotation(ann)
    else:
        log.warning("no annotations given; assuming 120 BPM, 4/4 for the beat grid")
        meta = sym.GridMeta()
    pipeline = Pipeline.load(ckpt_dir, cfg, variants=(variant,))
    audio_cfg = cfg["audio"]
    sr, hop = audio_cfg["sample_rate"], audio_cfg["hop"]
    out_path = Path(out_wav)
    with ft.open_audio(in_wav, sr) as wav:
        track = None
        cache_path = None
        if cache_dir:
            key = ft.track_cache_key(wav, sr, hop, audio_cfg["win"], audio_cfg["n_mels"])
            cache_path = Path(cache_dir) / f"track_{key}.npz"
            if cache_path.exists():
                # an unreadable entry (cut short by a writer killed before
                # writes were atomic, or garbage) is a miss; the extraction
                # below overwrites it
                try:
                    track = ft.load_track(cache_path)
                except (OSError, ValueError, KeyError) as exc:
                    log.warning("cannot read cached track %s (%s); extracting it again", cache_path, exc)
        if track is None:
            track = _extract_track(wav, audio_cfg)
            if cache_path is not None:
                ft.save_track(cache_path, track)
        notes, ests = pipeline.transcribe_base(track)
        targets = pipeline.note_targets(notes, ests, meta, variant, sr, hop)
        plan = corr.build_plan(ests, targets, notes, track)
        sidecar = out_path.with_suffix(".plan.tsv")
        corr.write_plan_sidecar(sidecar, plan, track)
        result = {
            "n_notes": len(notes),
            "plan": sidecar,
            "mean_abs_delta": float(np.abs(plan.deltas).mean()) if len(plan.deltas) else 0.0,
        }
        if dry_run:
            return result
        with tempfile.TemporaryDirectory(dir=out_path.parent, prefix=f".{out_path.name}.") as tmp:
            pcm_path, floats_path = Path(tmp) / "pcm.wav", Path(tmp) / "floats.wav"
            _write_shifted(wav, plan, track, pcm_path, floats_path)
            # a new inode: a reader of the old one, the take itself when the
            # output is the input, reads on unchanged
            os.replace(pcm_path, out_path)
            with ft.WavReader(floats_path) as corrected:
                track2 = _extract_track(corrected, audio_cfg)
    ests2 = pipeline.spp.estimate(track2, notes)
    rows = corr.verify_plan(ests2, plan, track)
    residuals = [r["residual_cents"] for r in rows if not r["flagged"]]
    report_path = out_path.with_suffix(".residuals.tsv")
    corr.write_residuals(report_path, rows)
    result.update(
        {
            "audio": out_path,
            "residuals": report_path,
            "median_residual_cents": float(np.median(residuals)) if residuals else float("nan"),
        }
    )
    return result


# ---- full recipe -----------------------------------------------------------------------

def run_full_recipe(cfg: dict, workdir, jobs: int = ft.YIN_THREADS) -> dict:
    """synth-data -> extract -> all trainings -> evaluation.

    Returns a summary dict; writes reports under <workdir>/checkpoints.
    Deterministic given cfg (fixed seed): running twice yields byte-identical
    metrics files.
    """
    workdir = Path(workdir)
    data_dir = workdir / "data"
    out_dir = workdir / "checkpoints"
    stage_synth_data(cfg, data_dir)
    stage_extract(cfg, data_dir, jobs=jobs)
    stage_train_segmenter(cfg, data_dir, out_dir)
    stage_train_spp(cfg, data_dir, out_dir)
    stage_train_detuner(cfg, data_dir, out_dir)
    for variant in CNPP_VARIANTS:
        stage_train_cnpp(cfg, data_dir, out_dir, variant=variant)
    table = stage_ablate(cfg, data_dir, out_dir)
    metrics = {
        "ablation_rpa": table,
        "spp_benchmark": evaluate_spp_benchmark(load_spp(out_dir, cfg), data_dir),
    }
    report = dk.write_json(out_dir / "reports" / "summary" / "metrics.json", metrics)
    manifest_add(out_dir, "full_recipe", cfg, {"summary": report})
    return {"metrics": metrics, "report": report, "out_dir": out_dir}
