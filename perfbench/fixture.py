"""Seeded benchmark inputs and the cached model fixture.

Everything here is built by the code under test (`notetune.datakit`,
`notetune.workflow`).  The fixture (trained checkpoints plus a tiny warm-up
take) depends only on FIXTURE_SEED, FIXTURE_OVERRIDES and the bytes of
`src/`, and is cached on disk under a key made of all three, so a checkout
can never be served another commit's checkpoints.  Run inputs (takes,
annotations, the recipe corpus) depend only on the `--seed` of the run.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np

from notetune import datakit as dk
from notetune import features as ft
from notetune import workflow as wf
from notetune.config import load_config

BUILD_DIR = Path(".bench_build") / "perfbench"
FIXTURE_SEED = 20251124

_NO_EVAL_SETS = [f"corpus.eval_sets.{name}.n_songs=0"
                 for name in ("spp_bench", "moderate_eval", "high_eval", "intune_eval")]

# Long enough that the segmenter recovers about the annotated note count on
# a take (150 steps per frame model; 4 steps find only a fifth of the notes)
# and that CNPP targets are mostly near the sung notes (60+60 CNPP steps
# clamp half of all shifts at 3 semitones; 300+150 clamp under a tenth).
FIXTURE_OVERRIDES = _NO_EVAL_SETS + [
    "corpus.n_songs=20", "corpus.notes_min=24", "corpus.notes_max=32",
    "segmenter.train.steps=150", "segmenter.train.eval_every=1000000",
    "spp.train.steps=150", "spp.train.eval_every=1000000",
    "detuner.steps=40", "detuner.min_notes=5",
    "cnpp.pretrain.steps=300", "cnpp.pretrain.n_songs=256", "cnpp.finetune.steps=150",
]

# The fixed tiny recipe of the `recipe` workload; its seed is the run seed.
RECIPE_OVERRIDES = [
    "segmenter.train.steps=4", "segmenter.train.eval_every=1000000",
    "spp.train.steps=4", "spp.train.eval_every=1000000",
    "detuner.steps=4", "detuner.min_notes=5",
    "cnpp.pretrain.steps=4", "cnpp.pretrain.n_songs=8", "cnpp.finetune.steps=4",
]
RECIPE_JOBS = 2
RECIPE_SONGS = 12

TAKE_DETUNE = dk.DetuneSpec(kind="uniform", lo=-0.5, hi=0.5)
TONICS = (55, 57, 59, 61, 63, 65)


def fixture_config() -> dict:
    return load_config(overrides=FIXTURE_OVERRIDES + [f"seed={FIXTURE_SEED}"])


def recipe_config(seed: int) -> dict:
    return load_config(overrides=RECIPE_OVERRIDES + [f"seed={seed}"])


def src_digest() -> str:
    src = Path("src")
    h = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


# ---- takes ----------------------------------------------------------------------

def make_take(seed: int, seconds: float, n_notes: int, tonic: int, out_dir: Path, name: str) -> dict:
    """Render one detuned take of about `seconds` with its annotation JSON.

    The melody is drawn first at a nominal tempo; the tempo is then set so
    that the rendered take lasts `seconds`, which keeps the frame count, and
    so the cost, of every run's takes the same across seeds.
    """
    spec = dk.SynthSpec(seed=seed, n_notes=n_notes, tonic=tonic, tempo_bpm=100.0,
                        detune=TAKE_DETUNE)
    _tonic, _tempo, events = dk.synth_melody(spec, np.random.default_rng(seed))
    beats = events[-1][1] + events[-1][2]
    spec.tempo_bpm = float(np.clip(60.0 * beats / (seconds - 1.0), 60.0, 200.0))
    wav, ann = dk.synth_song(spec)
    ann.sample_id = name
    out_dir.mkdir(parents=True, exist_ok=True)
    wav_path = out_dir / f"{name}.wav"
    ann_path = out_dir / f"{name}.json"
    ft.write_wav(wav_path, wav, spec.sample_rate)
    dk.export_annotations(ann, ann_path)
    return {"name": name, "wav": str(wav_path), "annotations": str(ann_path),
            "samples": len(wav), "seconds": len(wav) / spec.sample_rate,
            "n_notes": len(ann.notes)}


def short_takes(seed: int, out_dir: Path, count: int) -> list[dict]:
    """`count` takes of 6-12 s with 12-20 notes; lengths and tonics are
    stratified so every seed gets the same spread of sizes and registers."""
    rng = np.random.default_rng([seed, 1])
    tonics = rng.permutation(np.resize(TONICS, count))
    takes = []
    for i, frac in enumerate(np.linspace(0.0, 1.0, count)):
        takes.append(make_take(int(rng.integers(2**31)), 6.0 + 6.0 * frac,
                               int(round(12 + 8 * frac)), int(tonics[i]), out_dir, f"short_{i}"))
    return takes


def long_takes(seed: int, out_dir: Path, seconds: float) -> list[dict]:
    """One take with 1.5 notes per second (60 s: 90 notes, T = 5.2k frames)."""
    rng = np.random.default_rng([seed, 2])
    return [make_take(int(rng.integers(2**31)), seconds, int(round(1.5 * seconds)),
                      int(rng.choice(TONICS)), out_dir, "long_0")]


def recipe_inputs(seed: int, out_dir: Path) -> dict:
    """A corpus laid out as `synth-data` lays it out, from RECIPE_SONGS takes of
    8-14 s (stratified like the short takes), and one 8 s take to correct
    with the freshly trained models."""
    rng = np.random.default_rng([seed, 3])
    data = out_dir / "data"
    samples, corpus_s = {}, 0.0
    for i, frac in enumerate(np.linspace(0.0, 1.0, RECIPE_SONGS)):
        sid = f"song_{i:04d}"
        song = make_take(int(rng.integers(2**31)), 8.0 + 6.0 * frac, int(round(16 + 8 * frac)),
                         TONICS[i % len(TONICS)], data / "songs", sid)
        samples[sid] = {"group": "corpus", "detune_kind": TAKE_DETUNE.kind,
                        "audio": f"songs/{sid}.wav", "annotation": f"songs/{sid}.json"}
        corpus_s += song["seconds"]
    (data / "dataset.json").write_text(
        json.dumps({"version": 1, "seed": seed, "samples": samples}, sort_keys=True, indent=1))
    take = make_take(int(rng.integers(2**31)), 8.0, 16, int(rng.choice(TONICS)), out_dir, "use_0")
    return {"data": str(data), "take": take, "corpus_seconds": corpus_s}


# ---- fixture ------------------------------------------------------------------------

def fixture_key() -> str:
    blob = json.dumps({"seed": FIXTURE_SEED, "config": fixture_config(), "src": src_digest()},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def ensure_fixture(log=print) -> Path:
    """Return the fixture directory, building it on first use."""
    root = BUILD_DIR / f"fixture-{fixture_key()}"
    if (root / "READY").exists():
        return root
    tmp = BUILD_DIR / f"fixture-tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    cfg = fixture_config()
    log(f"building model fixture in {root} (one-off, untimed)")
    data, ckpt = tmp / "data", tmp / "checkpoints"
    wf.stage_synth_data(cfg, data)
    wf.stage_extract(cfg, data, jobs=1)
    wf.stage_train_segmenter(cfg, data, ckpt)
    wf.stage_train_spp(cfg, data, ckpt)
    wf.stage_train_detuner(cfg, data, ckpt)
    wf.stage_train_cnpp(cfg, data, ckpt, variant="full")
    shutil.rmtree(data)
    make_take(FIXTURE_SEED, 2.5, 5, 60, tmp / "warmup", "warmup")
    (tmp / "READY").write_text(fixture_key() + "\n")
    shutil.rmtree(root, ignore_errors=True)
    os.replace(tmp, root)
    return root
