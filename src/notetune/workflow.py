"""Pipeline stages: data synthesis, feature extraction, training, correction,
evaluation.  The CLI is a thin wrapper over these functions; tests drive them
directly.

Every stage appends an entry to <out_dir>/run_manifest.json holding the
config hash, seed, and SHA-256 of each produced file, which is enough to
reproduce a byte-identical metrics file.
"""

from __future__ import annotations

import hashlib
import json
import logging
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
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
from .frontend import FrameEncoderConfig, track_inputs

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


def _save_dataset(data_dir, doc: dict):
    data_paths(data_dir)["dataset"].write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _sha256(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def manifest_add(out_dir, stage: str, cfg: dict, files: dict, extra: dict | None = None):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def manifest_require(out_dir, stage: str, needed_for: str):
    path = Path(out_dir) / "run_manifest.json"
    stages = []
    if path.exists():
        stages = [s["stage"] for s in json.loads(path.read_text())["stages"]]
    if stage not in stages:
        raise StageOrderError(
            f"{needed_for} requires the {stage!r} stage; run `notetune {stage.replace('_', '-')}` first"
        )


def _derived_seed(base: int, group: str, index: int) -> int:
    return int(np.random.SeedSequence([base, zlib.crc32(group.encode()), index]).generate_state(1)[0])


# ---- stage: synth-data -----------------------------------------------------------

def _detune_spec(cfg: dict, kind: str) -> dk.DetuneSpec:
    if kind == "none":
        return dk.DetuneSpec(kind="none")
    if kind == "uniform":
        lo, hi = cfg["corpus"]["uniform_range"]
        return dk.DetuneSpec(kind="uniform", lo=lo, hi=hi)
    if kind == "ar1":
        a = cfg["corpus"]["ar1"]
        return dk.DetuneSpec(kind="ar1", rho=a["rho"], sigma=a["sigma"], clip=a["clip"])
    raise ValueError(f"unknown detune kind {kind!r}")


def stage_synth_data(cfg: dict, data_dir) -> dict:
    """Render the training corpus plus held-out evaluation sets."""
    paths = data_paths(data_dir)
    for key in ("audio", "annotations"):
        paths[key].mkdir(parents=True, exist_ok=True)
    corpus_cfg = cfg["corpus"]
    seed = cfg["seed"]
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
            detune=_detune_spec(cfg, kind),
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
    _save_dataset(data_dir, doc)
    log.info("synthesized %d songs into %s", len(samples), data_dir)
    return doc


# ---- stage: extract ------------------------------------------------------------

def _extract_track(wav: np.ndarray, audio_cfg: dict) -> ft.FrameTrack:
    return ft.extract_track(
        wav,
        sr=audio_cfg["sample_rate"],
        hop=audio_cfg["hop"],
        win=audio_cfg["win"],
        n_mels=audio_cfg["n_mels"],
    )


def stage_extract(cfg: dict, data_dir, jobs: int = 1) -> dict:
    """Extract feature tracks, score corpus pitch errors, assign splits."""
    paths = data_paths(data_dir)
    paths["features"].mkdir(parents=True, exist_ok=True)
    doc = load_dataset(data_dir)
    audio_cfg = cfg["audio"]

    def work(item):
        sid, entry = item
        wav = ft.load_audio(paths["root"] / entry["audio"], audio_cfg["sample_rate"])
        track = _extract_track(wav, audio_cfg)
        ft.save_track(paths["features"] / f"{sid}.npz", track)
        ann = dk.import_annotations(paths["root"] / entry["annotation"])
        _, mean_err = dk.sample_pitch_error(track, ann)
        return sid, mean_err

    items = sorted(doc["samples"].items())
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        results = dict(pool.map(work, items))

    corpus_errors = {
        sid: results[sid] for sid, e in doc["samples"].items() if e["group"] == "corpus"
    }
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
    _save_dataset(data_dir, doc)
    log.info("extracted features for %d samples", len(items))
    return doc


# ---- song loading ---------------------------------------------------------------

@dataclass
class SongData:
    sid: str
    ann: dk.AnnotatedSample
    track: ft.FrameTrack
    inputs: np.ndarray


def load_song(data_dir, sid: str, entry: dict) -> SongData:
    paths = data_paths(data_dir)
    track = ft.load_track(paths["root"] / entry["features"])
    ann = dk.import_annotations(paths["root"] / entry["annotation"])
    return SongData(sid=sid, ann=ann, track=track, inputs=track_inputs(track))


def songs_by(data_dir, doc: dict, subset=None, role=None) -> list[SongData]:
    out = []
    for sid, entry in sorted(doc["samples"].items()):
        if subset is not None and entry.get("subset") not in (
            subset if isinstance(subset, (list, tuple)) else [subset]
        ):
            continue
        if role is not None and entry.get("role") != role:
            continue
        out.append(load_song(data_dir, sid, entry))
    return out


def annotated_notes(song: SongData):
    """The song's annotated notes as intervals clipped to its track, with
    their intended pitches and sung pitches (intended where none is given)."""
    T = song.track.n_frames
    spans = song.ann.note_frames(song.track.sample_rate, song.track.hop)
    notes = [seg.NoteInterval(a, min(b, T)) for a, b in spans if a < T]
    kept = song.ann.notes[: len(notes)]
    pitches = [n.pitch for n in kept]
    sung = [n.sung_pitch if n.sung_pitch is not None else float(n.pitch) for n in kept]
    return notes, pitches, sung


# ---- stage: train-segmenter --------------------------------------------------------

def _frame_model_cfg(cfg: dict, section: str) -> FrameEncoderConfig:
    return FrameEncoderConfig(n_mels=cfg["audio"]["n_mels"], seed=cfg["seed"], **cfg[section]["model"])


def _validate_segmenter(model, songs, cfg):
    scfg = cfg["segmenter"]
    scores = []
    for song in songs:
        probs = model.predict(song.track)
        sr, hop = song.track.sample_rate, song.track.hop
        pred = []
        for span in seg.singing_spans(song.track.voiced, hop, sr):
            bounds = seg.greedy_nms(
                probs, w=scfg["nms_window"], theta=scfg["theta"], span=span
            )
            pred.extend(b for b in bounds if b != span[1] - 1)  # span ends are offsets
        gt = [n.start_frame for n in annotated_notes(song)[0]]
        scores.append(seg.boundary_prf(sorted(set(pred)), gt))
    p, r, f = (float(np.mean([s[i] for s in scores])) for i in range(3))
    return {"precision": p, "recall": r, "f1": f}


def train_segmenter_on(songs, val_songs, cfg: dict) -> tuple[seg.Segmenter, dict]:
    scfg = cfg["segmenter"]
    tr = scfg["train"]
    model = seg.Segmenter(_frame_model_cfg(cfg, "segmenter"))
    opt = nn.cosine_adamw(
        model.params(), tr["lr"], tr["steps"], warmup=tr["warmup"], weight_decay=tr["weight_decay"]
    )
    rng = np.random.default_rng(_derived_seed(cfg["seed"], "train_segmenter", 0))
    labels = []
    for song in songs:
        hard = np.zeros(song.track.n_frames)
        hard[[n.start_frame for n in annotated_notes(song)[0]]] = 1.0
        labels.append((hard, seg.soften_labels(hard, scfg["soft_sigma"])))

    crop = tr["crop"]
    history = {"loss": [], "val": []}
    focal = scfg["focal"]
    for step in range(tr["steps"]):
        xs, softs, hards = [], [], []
        for _ in range(tr["batch"]):
            j = int(rng.integers(0, len(songs)))
            T = songs[j].track.n_frames
            start = int(rng.integers(0, max(T - crop, 1)))
            xs.append(songs[j].inputs[start : start + crop])
            hards.append(labels[j][0][start : start + crop])
            softs.append(labels[j][1][start : start + crop])
        probs = model.forward_batch(np.stack(xs))
        loss = nn.focal_loss(
            probs,
            np.stack(softs),
            np.stack(hards),
            gamma=focal["gamma"],
            alpha_pos=focal["alpha_pos"],
            alpha_neg=focal["alpha_neg"],
        ) / tr["batch"]
        history["loss"].append(nn.train_step(loss, opt, context="segmenter"))
        if val_songs and (step + 1) % tr["eval_every"] == 0:
            metrics = _validate_segmenter(model, val_songs, cfg)
            history["val"].append({"step": step + 1, **metrics})
            log.info("segmenter step %d: val F1(+-3)=%.3f", step + 1, metrics["f1"])
    if val_songs:
        history["final_val"] = _validate_segmenter(model, val_songs, cfg)
    return model, history


def stage_train_segmenter(cfg: dict, data_dir, out_dir) -> dict:
    doc = load_dataset(data_dir)
    train_songs = songs_by(data_dir, doc, role="train")
    val_songs = songs_by(data_dir, doc, role="val")
    model, history = train_segmenter_on(train_songs, val_songs, cfg)
    ckpt = _save_model(
        out_dir, "segmenter", model, cfg, {"model": cfg["segmenter"]["model"]},
        {"final_val": history.get("final_val", {})},
    )
    manifest_add(out_dir, "train_segmenter", cfg, {"segmenter": ckpt}, history.get("final_val"))
    return history


# ---- stage: train-spp ---------------------------------------------------------------

def train_spp_on(songs, val_songs, cfg: dict) -> tuple[sp.StationaryPitchPredictor, dict]:
    pcfg = cfg["spp"]
    tr = pcfg["train"]
    lw = sp.SppLossWeights(**pcfg["loss"])
    model = sp.StationaryPitchPredictor(_frame_model_cfg(cfg, "spp"))
    opt = nn.cosine_adamw(
        model.params(), tr["lr"], tr["steps"], warmup=tr["warmup"], weight_decay=tr["weight_decay"]
    )
    rng = np.random.default_rng(_derived_seed(cfg["seed"], "train_spp", 0))
    data = []
    for song in songs:
        notes, pitches, _sung = annotated_notes(song)
        data.append((song, notes, pitches, sp.local_pitch_std(song.track.pitch_filled)))
    crop = tr["crop"]
    history = {"loss": [], "val": []}
    for step in range(tr["steps"]):
        batch = []
        for _ in range(tr["batch"]):
            song, notes, pitches, sigma = data[int(rng.integers(0, len(data)))]
            T = song.track.n_frames
            j = int(rng.integers(0, len(notes)))
            start = int(np.clip(notes[j].start_frame, 0, max(T - crop, 0)))
            inside = [
                (n.start_frame - start, n.end_frame - start, p)
                for n, p in zip(notes, pitches)
                if n.start_frame >= start and n.end_frame <= start + crop
            ]
            if not inside:
                continue
            batch.append((song.inputs[start : start + crop], inside, song, sigma, start))
        if not batch:
            continue
        x = np.stack([b[0] for b in batch])
        logits = model.forward_batch(x)
        losses = []
        for bi, (_x, inside, song, sigma, start) in enumerate(batch):
            voiced = song.track.voiced.astype(bool)
            for a, b, gt in inside:
                vidx = np.nonzero(voiced[start + a : start + b])[0]
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
        loss = losses[0]
        for extra in losses[1:]:
            loss = loss + extra
        loss = loss / len(losses)
        history["loss"].append(nn.train_step(loss, opt, context="spp"))
        if val_songs and (step + 1) % tr["eval_every"] == 0:
            history["val"].append({"step": step + 1, **_validate_spp(model, val_songs)})
    if val_songs:
        history["final_val"] = _validate_spp(model, val_songs)
    return model, history


def _validate_spp(model, songs) -> dict:
    est_all, gt_all = [], []
    for song in songs:
        notes, _pitches, sung = annotated_notes(song)
        ests = model.estimate(song.track, notes)
        for e, s in zip(ests, sung):
            if not e.flagged:
                est_all.append(e.pitch)
                gt_all.append(s)
    return sp.evaluate_spp(np.array(est_all), np.array(gt_all))


def stage_train_spp(cfg: dict, data_dir, out_dir) -> dict:
    doc = load_dataset(data_dir)
    train_songs = songs_by(data_dir, doc, subset="in_tune", role="train")
    val_songs = songs_by(data_dir, doc, subset="in_tune", role="val")
    if not train_songs:
        raise StageOrderError("no in-tune training songs found; run extract first")
    model, history = train_spp_on(train_songs, val_songs, cfg)
    ckpt = _save_model(
        out_dir, "spp", model, cfg, {"model": cfg["spp"]["model"]},
        {"final_val": history.get("final_val", {})},
    )
    manifest_add(out_dir, "train_spp", cfg, {"spp": ckpt}, history.get("final_val"))
    return history


# ---- stage: train-detuner --------------------------------------------------------------

def _detuner_cfg(cfg: dict) -> dt.DetunerConfig:
    d = cfg["detuner"]
    return dt.DetunerConfig(hidden=d["hidden"], seed=cfg["seed"], min_notes=d["min_notes"])


def stage_train_detuner(cfg: dict, data_dir, out_dir) -> dict:
    manifest_require(out_dir, "train_spp", "train-detuner (stationary estimates feed the error model)")
    doc = load_dataset(data_dir)
    spp_model = load_spp(out_dir, cfg)
    songs = songs_by(data_dir, doc, subset="high", role="train")
    sequences = []
    for song, rec in zip(songs, annotation_sequences(songs)):
        notes, pitches, _sung = annotated_notes(song)
        ests = spp_model.estimate(song.track, notes)
        pitches = np.array(pitches, dtype=np.float64)
        errors = np.array([e.pitch for e in ests]) - pitches
        sequences.append((pitches, rec["dur_beats"][: len(notes)], errors))
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
        {"sigma_e": result.sigma_e, "final_loss": result.losses[-1]},
    )
    manifest_add(out_dir, "train_detuner", cfg, {"detuner": ckpt}, {"sigma_e": result.sigma_e})
    return {"sigma_e": result.sigma_e, "losses": result.losses}


# ---- stage: train-cnpp ------------------------------------------------------------------

def _cnpp_cfg(cfg: dict) -> sym.CnppConfig:
    return sym.CnppConfig(seed=cfg["seed"], **cfg["cnpp"]["model"])


def _symbolic_pretrain_sequences(cfg: dict) -> list[list[sym.OctupleEvent]]:
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
    other = losses[0]
    for term in losses[1:]:
        other = other + term
    return pitch_loss + w_other * (other / len(losses))


def pretrain_cnpp(cfg: dict, sequences) -> sym.Cnpp:
    pt = cfg["cnpp"]["pretrain"]
    model = sym.Cnpp(_cnpp_cfg(cfg))
    opt = nn.cosine_adamw(model.params(), pt["lr"], pt["steps"], warmup=100)
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
                mask_pos[b, int(rng.integers(0, len(seqs[b])))] = True
        logits = model.forward(
            fields, pitch_values, pad, pitch_mode="interp", mask_positions=mask_pos, rng=drop_rng
        )
        loss = _cnpp_loss(logits, fields, pad, gt, mask_pos.astype(np.float64), w_other)
        nn.train_step(loss, opt, context="cnpp-pretrain")
    return model


def finetune_cnpp(
    cfg: dict,
    model: sym.Cnpp,
    sequences: list[dict],
    detuner_model: dt.Detuner | None,
    sigma_e: float,
    variant: str,
) -> list[float]:
    ftc = cfg["cnpp"]["finetune"]
    p_max = 0.0 if variant == "no_augment" else ftc["p_det"]
    pitch_mode = "round" if variant == "rounded_embed" else "interp"
    if p_max > 0 and detuner_model is None:
        raise StageOrderError("detune augmentation requires a trained detuner checkpoint")
    opt = nn.cosine_adamw(model.params(), ftc["lr"], ftc["steps"], warmup=100)
    rng = np.random.default_rng(_derived_seed(cfg["seed"], f"finetune_{variant}", 0))
    drop_rng = np.random.default_rng(_derived_seed(cfg["seed"], f"finetune_drop_{variant}", 0))
    losses = []
    for step in range(ftc["steps"]):
        p_det = sym.detune_schedule(step, ftc["steps"], p_max=p_max, ramp_frac=ftc["ramp_frac"])
        recs = [sequences[j] for j in rng.integers(0, len(sequences), size=ftc["batch"])]
        fields, pv, pad = sym.pack_sequences([rec["events"] for rec in recs])
        gt = pv.astype(np.int64)
        for b, rec in enumerate(recs):
            if p_det > 0 and rng.random() < p_det:
                L = len(rec["events"])
                errors = dt.generate_errors(
                    detuner_model,
                    sigma_e,
                    pv[b, :L],
                    rec["dur_beats"],
                    seed=int(rng.integers(0, 2**31 - 1)),
                )
                pv[b, :L] = np.clip(pv[b, :L] + errors, 0.0, 127.0)
        logits = model.forward(fields, pv, pad, pitch_mode=pitch_mode, rng=drop_rng)
        loss = _cnpp_loss(logits, fields, pad, gt, pad, ftc["field_loss_weight"])
        losses.append(nn.train_step(loss, opt, context=f"cnpp-{variant}"))
    return losses


def annotation_sequences(songs: list[SongData]) -> list[dict]:
    out = []
    for song in songs:
        events = sym.octuples_from_annotation(song.ann)
        out.append(
            {
                "sid": song.sid,
                "events": events,
                "dur_beats": np.array([e.dur / sym.GRID_PER_BEAT for e in events]),
            }
        )
    return out


CNPP_VARIANTS = ("full", "no_augment", "rounded_embed")


def stage_train_cnpp(cfg: dict, data_dir, out_dir, variant: str = "full") -> dict:
    if variant not in CNPP_VARIANTS:
        raise ValueError(f"unknown CNPP variant {variant!r}; choose from {CNPP_VARIANTS}")
    out_dir = Path(out_dir)
    doc = load_dataset(data_dir)

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

    detuner_model, sigma_e = None, 0.0
    if variant != "no_augment":
        manifest_require(out_dir, "train_detuner", "train-cnpp with augmentation")
        detuner_model, sigma_e = load_detuner(out_dir, cfg)

    songs = songs_by(data_dir, doc, subset="moderate", role="train")
    sequences = annotation_sequences(songs)
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


def _load_model(out_dir, name: str, model):
    """Fill `model` from <out_dir>/<name>.npz; returns it with the checkpoint's extra block."""
    path = Path(out_dir) / f"{name}.npz"
    if not path.exists():
        raise ek.MissingCheckpointError(f"checkpoint {path.name} not found in {out_dir}; train it first")
    return model, nn.load_checkpoint(path, model.params())["extra"]


def load_segmenter(out_dir, cfg: dict) -> seg.Segmenter:
    return _load_model(out_dir, "segmenter", seg.Segmenter(_frame_model_cfg(cfg, "segmenter")))[0]


def load_spp(out_dir, cfg: dict) -> sp.StationaryPitchPredictor:
    return _load_model(out_dir, "spp", sp.StationaryPitchPredictor(_frame_model_cfg(cfg, "spp")))[0]


def load_detuner(out_dir, cfg: dict) -> tuple[dt.Detuner, float]:
    model, extra = _load_model(out_dir, "detuner", dt.Detuner(_detuner_cfg(cfg)))
    return model, float(extra["sigma_e"])


def load_cnpp(out_dir, cfg: dict, variant: str = "full") -> sym.Cnpp:
    return _load_model(out_dir, f"cnpp_{variant}", sym.Cnpp(_cnpp_cfg(cfg)))[0]


# ---- transcription + evaluation -------------------------------------------------------

@dataclass
class Pipeline:
    cfg: dict
    segmenter: seg.Segmenter
    spp: sp.StationaryPitchPredictor
    cnpps: dict[str, sym.Cnpp]

    @classmethod
    def load(cls, out_dir, cfg: dict, variants=("full",)) -> "Pipeline":
        cnpps = {}
        for v in variants:
            if v != "no_cnpp":
                cnpps[v] = load_cnpp(out_dir, cfg, v)
        return cls(
            cfg=cfg,
            segmenter=load_segmenter(out_dir, cfg),
            spp=load_spp(out_dir, cfg),
            cnpps=cnpps,
        )

    def transcribe_base(self, track: ft.FrameTrack):
        scfg = self.cfg["segmenter"]
        probs = self.segmenter.predict(track)
        notes = seg.detect_notes(
            track,
            probs,
            w=scfg["nms_window"],
            theta=scfg["theta"],
            min_note_frames=scfg["min_note_frames"],
        )
        ests = self.spp.estimate(track, notes)
        return notes, ests

    def note_targets(
        self, notes, ests, meta: sym.GridMeta, variant: str, sr: int, hop: int
    ) -> np.ndarray:
        if not notes:
            return np.zeros(0)
        if variant == "no_cnpp":
            return sym.round_pitch([e.pitch for e in ests]).astype(np.float64)
        pitch_mode = "round" if variant == "rounded_embed" else "interp"
        events = sym.notes_to_octuples(notes, ests, meta, sr, hop)
        tokens, _ = self.cnpps[variant].predict(events, pitch_mode=pitch_mode)
        return tokens.astype(np.float64)


def evaluate_split(pipeline: Pipeline, data_dir, split: str, variants=("full",)) -> dict:
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
        gt_notes, gt_pitches, _sung = annotated_notes(song)
        gt_curve = ek.note_pitch_curve(gt_notes, gt_pitches, T)
        meta = sym.GridMeta.from_annotation(song.ann)
        for v in variants:
            targets = pipeline.note_targets(notes, ests, meta, v, sr, hop)
            pred_curve = ek.note_pitch_curve(notes, targets, T)
            per_variant[v].append(ek.rpa_from_curves(pred_curve, gt_curve, song.track.voiced))
    return {
        v: {"pooled": ek.pooled_rpa(rows), "per_song": rows} for v, rows in per_variant.items()
    }


def evaluate_spp_benchmark(pipeline: Pipeline, data_dir, split: str = "spp_bench") -> dict:
    """PTR/MAE of the model vs the two baseline aggregators on GT intervals."""
    doc = load_dataset(data_dir)
    songs = songs_by(data_dir, doc, subset=split)
    if not songs:
        raise ValueError(f"no songs in split {split!r}")
    methods = {"spp": [], "average": [], "weighted_median": []}
    gt = []
    for song in songs:
        notes, _pitches, sung = annotated_notes(song)
        ests = pipeline.spp.estimate(song.track, notes)
        for note, est, s in zip(notes, ests, sung):
            if est.flagged:
                continue
            methods["spp"].append(est.pitch)
            methods["average"].append(sp.aggregate_average(song.track, note).pitch)
            methods["weighted_median"].append(sp.aggregate_weighted_median(song.track, note).pitch)
            gt.append(s)
    gt = np.array(gt)
    return {
        name: sp.evaluate_spp(np.array(vals), gt) for name, vals in methods.items()
    }


def stage_evaluate(cfg: dict, data_dir, out_dir, split: str, variants=("full",)) -> dict:
    pipeline = Pipeline.load(out_dir, cfg, variants=variants)
    results = evaluate_split(pipeline, data_dir, split, variants=variants)
    metrics = {
        "split": split,
        "rpa": {v: results[v]["pooled"] for v in results},
    }
    report = ek.emit_report(metrics, Path(out_dir) / "reports" / split)
    manifest_add(out_dir, f"evaluate_{split}", cfg, {"metrics": report})
    return results


def stage_ablate(cfg: dict, data_dir, out_dir, splits=("moderate_eval", "high_eval")) -> dict:
    variants = list(CNPP_VARIANTS) + ["no_cnpp"]
    pipeline = Pipeline.load(out_dir, cfg, variants=CNPP_VARIANTS)
    cache = {s: evaluate_split(pipeline, data_dir, s, variants=variants) for s in splits}
    table = {v: {s: cache[s][v]["pooled"]["rpa_percent"] for s in splits} for v in variants}
    text = ek.format_ablation_table(table, list(splits))
    report_dir = Path(out_dir) / "reports" / "ablation"
    report = ek.emit_report({"ablation_rpa": table}, report_dir)
    (report_dir / "ablation.txt").write_text(text + "\n")
    manifest_add(out_dir, "ablate", cfg, {"table": report})
    log.info("ablation table:\n%s", text)
    return table


# ---- stage: correct -----------------------------------------------------------------

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
    pipeline = Pipeline.load(ckpt_dir, cfg, variants=(variant,))
    audio_cfg = cfg["audio"]
    sr, hop = audio_cfg["sample_rate"], audio_cfg["hop"]
    wav = ft.load_audio(in_wav, sr)
    track = None
    cache_path = None
    if cache_dir:
        key = hashlib.sha256(wav.tobytes())
        settings = [sr, hop, audio_cfg["win"], audio_cfg["n_mels"], ft.TRACK_FORMAT_VERSION]
        key.update(json.dumps(settings).encode())
        cache_path = Path(cache_dir) / f"track_{key.hexdigest()[:24]}.npz"
        if cache_path.exists():
            track = ft.load_track(cache_path)
    if track is None:
        track = _extract_track(wav, audio_cfg)
        if cache_path is not None:
            ft.save_track(cache_path, track)
    if annotations is not None:
        ann = dk.import_annotations(annotations)
        meta = sym.GridMeta.from_annotation(ann)
    else:
        log.warning("no annotations given; assuming 120 BPM, 4/4 for the beat grid")
        meta = sym.GridMeta()
    notes, ests = pipeline.transcribe_base(track)
    targets = pipeline.note_targets(notes, ests, meta, variant, sr, hop)
    plan = corr.build_plan(ests, targets, notes, track)
    for i, note in enumerate(notes):
        log.debug(
            "note %d [%.3f, %.3f)s: p_hat=%.3f p_tilde=%.1f delta=%.3f",
            i,
            track.frame_time(note.start_frame),
            track.frame_time(note.end_frame),
            plan.est_pitch[i],
            plan.targets[i],
            plan.deltas[i],
        )
    out_path = Path(out_wav)
    sidecar = out_path.with_suffix(".plan.tsv")
    corr.write_plan_sidecar(sidecar, plan, track)
    result = {
        "n_notes": len(notes),
        "plan": sidecar,
        "mean_abs_delta": float(np.abs(plan.deltas).mean()) if len(plan.deltas) else 0.0,
    }
    if dry_run:
        return result
    corrected = corr.shift_audio(wav, plan, track)
    ft.write_wav(out_path, corrected, sr)
    track2 = _extract_track(corrected, audio_cfg)
    ests2 = pipeline.spp.estimate(track2, notes)
    rows = corr.verify_plan(ests2, plan, track)
    residuals = [r["residual_cents"] for r in rows if not r["flagged"]]
    report_path = out_path.with_suffix(".residuals.tsv")
    lines = ["note\ttarget\tcorrected_pitch\tresidual_cents"]
    for r in rows:
        lines.append(
            f"{r['note']}\t{r['target']:.4f}\t{r['corrected_pitch']:.4f}\t{r['residual_cents']:.2f}"
        )
    report_path.write_text("\n".join(lines) + "\n")
    result.update(
        {
            "audio": out_path,
            "residuals": report_path,
            "median_residual_cents": float(np.median(residuals)) if residuals else float("nan"),
        }
    )
    return result


# ---- full recipe -----------------------------------------------------------------------

def run_full_recipe(cfg: dict, workdir, jobs: int = 1) -> dict:
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
    pipeline = Pipeline.load(out_dir, cfg, variants=CNPP_VARIANTS)
    spp_bench = evaluate_spp_benchmark(pipeline, data_dir)
    metrics = {
        "ablation_rpa": table,
        "spp_benchmark": spp_bench,
    }
    report = ek.emit_report(metrics, out_dir / "reports" / "summary")
    manifest_add(out_dir, "full_recipe", cfg, {"summary": report})
    return {"metrics": metrics, "report": report, "out_dir": out_dir}
