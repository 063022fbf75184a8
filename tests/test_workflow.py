"""End-to-end runs of every CLI subcommand and of the full recipe on a tiny
fixed-seed configuration (20 songs, 4 steps per trainer)."""

import hashlib
import importlib.util
import json
import logging
import os
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import cnpp_reference
from conftest import make_track
from midi_writer import write_midi
from notetune import cli
from notetune import corrector as corr
from notetune import datakit as dk
from notetune import features as ft
from notetune import nncore as nn
from notetune import segmenter as seg
from notetune import spp as sp
from notetune import symbolic as sym
from notetune import workflow as wf
from notetune.config import load_config
from notetune.frontend import WINDOW, FrameEncoderConfig

SRC = Path(__file__).resolve().parents[1] / "src"

TINY = [
    "corpus.n_songs=20",
    "corpus.notes_min=12",
    "corpus.notes_max=16",
    *(f"corpus.eval_sets.{s}.n_songs=2" for s in ("spp_bench", "moderate_eval", "high_eval", "intune_eval")),
    *(f"{k}.steps=4" for k in ("segmenter.train", "spp.train", "detuner", "cnpp.pretrain", "cnpp.finetune")),
    "segmenter.train.eval_every=2",
    "spp.train.eval_every=2",
    "detuner.min_notes=5",
    "cnpp.pretrain.n_songs=8",
]


def run_cli(*argv, overrides=()) -> int:
    flags = [arg for item in [*TINY, *overrides] for arg in ("--set", item)]
    return cli.main([str(a) for a in argv] + flags + ["-q"])


FRAME_MODEL = {"layers": 2, "model_dim": 64, "heads": 2, "window": 64}
CNPP_MODEL = {"layers": 2, "model_dim": 64, "heads": 4, "dropout": 0.1}
CHECKPOINT_CONFIGS = {
    "segmenter": {"kind": "segmenter", "model": FRAME_MODEL, "seed": 1234},
    "spp": {"kind": "spp", "model": FRAME_MODEL, "seed": 1234},
    "detuner": {"kind": "detuner", "hidden": 64, "seed": 1234},
    **{
        f"cnpp_{v}": {"kind": f"cnpp_{v}", "model": CNPP_MODEL, "seed": 1234}
        for v in ("pretrained", *wf.CNPP_VARIANTS)
    },
}


def manifest_stages(ckpt_dir) -> dict:
    doc = json.loads((ckpt_dir / "run_manifest.json").read_text())
    return {s["stage"]: s for s in doc["stages"]}


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data, ckpt, out = root / "data", root / "ckpt", root / "out"
    take = data / "audio" / "moderate_eval_000.wav"
    ann = data / "annotations" / "moderate_eval_000.json"
    common = ["--data-dir", data, "--checkpoint-dir", ckpt]
    codes = {
        "synth-data": run_cli("synth-data", "--data-dir", data),
        "extract": run_cli("extract", "--data-dir", data, "--jobs", 2),
    }
    for cmd in ("train-segmenter", "train-spp", "train-detuner"):
        codes[cmd] = run_cli(cmd, *common)
    for v in wf.CNPP_VARIANTS:
        codes[f"train-cnpp {v}"] = run_cli("train-cnpp", *common, "--variant", v)
    codes["evaluate"] = run_cli("evaluate", *common, "--split", "moderate_eval")
    codes["ablate"] = run_cli("ablate", *common)
    correct = ["correct", "--checkpoint-dir", ckpt, "--annotations", ann]
    codes["correct"] = run_cli(*correct, take, out / "plain.wav")
    codes["correct --dry-run"] = run_cli(*correct, take, out / "dry.wav", "--dry-run")
    codes["correct no_cnpp"] = run_cli(*correct, take, out / "raw.wav", "--variant", "no_cnpp")
    return {"root": root, "data": data, "ckpt": ckpt, "out": out, "take": take, "codes": codes}


def test_every_subcommand_exits_zero_and_writes_its_files(cli_run):
    assert cli_run["codes"] == {k: 0 for k in cli_run["codes"]}
    data, ckpt, out = cli_run["data"], cli_run["ckpt"], cli_run["out"]
    doc = wf.load_dataset(data)
    assert all((data / e["features"]).exists() for e in doc["samples"].values())
    for name in ["segmenter", "spp", "detuner", "cnpp_pretrained"] + [f"cnpp_{v}" for v in wf.CNPP_VARIANTS]:
        assert (ckpt / f"{name}.npz").exists()
    assert (ckpt / "reports" / "moderate_eval" / "metrics.json").exists()
    assert (ckpt / "reports" / "ablation" / "ablation.txt").exists()
    for stem in ("plain", "raw"):
        for suffix in (".wav", ".plan.tsv", ".residuals.tsv"):
            assert (out / f"{stem}{suffix}").exists()
    assert (out / "dry.plan.tsv").exists() and not (out / "dry.wav").exists()


def test_trainers_before_extract_exit_2_and_pretrain_nothing(tmp_path, capsys):
    data, ckpt = tmp_path / "data", tmp_path / "ckpt"
    assert run_cli("synth-data", "--data-dir", data) == 0
    capsys.readouterr()
    for cmd in ("train-segmenter", "train-cnpp"):
        assert run_cli(cmd, "--data-dir", data, "--checkpoint-dir", ckpt) == 2
        assert "run extract first" in capsys.readouterr().err
    assert not (ckpt / "cnpp_pretrained.npz").exists()


def test_synth_data_renders_each_detune_kind_from_the_config(tmp_path):
    # 10 songs: one in tune, eight uniform, one ar1 (the default fractions)
    cfg = load_config(None, [
        "corpus.n_songs=10",
        "corpus.notes_min=8",
        "corpus.notes_max=8",
        "corpus.uniform_range=[0.2,0.3]",
        "corpus.ar1.clip=0.1",
        *(f"corpus.eval_sets.{s}.n_songs=0" for s in ("spp_bench", "moderate_eval", "high_eval", "intune_eval")),
    ])
    samples = wf.stage_synth_data(cfg, tmp_path)["samples"]
    in_range = {
        "none": lambda d: d == 0.0,
        "uniform": lambda d: 0.2 - 1e-12 <= d < 0.3 + 1e-12,
        "ar1": lambda d: abs(d) <= 0.1 + 1e-12,
    }
    assert sorted({s["detune_kind"] for s in samples.values()}) == sorted(in_range)
    for sid, sample in samples.items():
        notes = dk.import_annotations(tmp_path / sample["annotation"]).notes
        errors = [n.sung_pitch - n.pitch for n in notes]
        assert len(errors) == 8 and all(map(in_range[sample["detune_kind"]], errors)), (sid, errors)


@pytest.mark.parametrize("stage", ["correct", "evaluate"])
def test_an_unknown_variant_is_rejected_before_any_checkpoint_is_read(cli_run, tmp_path, monkeypatch, stage):
    def no_read(*_args, **_kwargs):
        raise AssertionError("a checkpoint was read before the variant was checked")

    monkeypatch.setattr(nn, "load_checkpoint", no_read)
    cfg, ckpt = load_config(None, TINY), cli_run["ckpt"]
    with pytest.raises(ValueError, match="unknown variant 'x'; choose from full, .*no_cnpp"):
        if stage == "correct":
            wf.stage_correct(cfg, cli_run["take"], tmp_path / "o.wav", ckpt, dry_run=True, variant="x")
        else:
            wf.stage_evaluate(cfg, cli_run["data"], ckpt, "moderate_eval", variants=("full", "x"))


def test_manifest_paths_are_relative_to_the_checkpoint_dir(cli_run):
    ckpt = cli_run["ckpt"]
    for stage in manifest_stages(ckpt).values():
        for entry in stage["files"].values():
            assert wf._sha256(ckpt / entry["path"]) == entry["sha256"]


def test_correct_without_checkpoints_exits_2(cli_run, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli("correct", cli_run["take"], tmp_path / "o.wav", "--checkpoint-dir", empty) == 2


def test_correct_with_a_model_config_the_checkpoints_do_not_fit_exits_2(cli_run, tmp_path, capsys):
    argv = ["correct", cli_run["take"], tmp_path / "o.wav", "--checkpoint-dir", cli_run["ckpt"]]
    assert run_cli(*argv, "--set", "segmenter.model.model_dim=32") == 2
    assert "shape mismatch" in capsys.readouterr().err
    assert not (tmp_path / "o.wav").exists()


def test_correct_with_a_cnpp_checkpoint_of_the_projected_layout_exits_2(cli_run, tmp_path, capsys):
    # the layout with `down` and `up` between the field embeddings, the
    # encoder and the heads, as `cnpp_reference.Cnpp` has it
    ckpt = tmp_path / "ckpt"
    shutil.copytree(cli_run["ckpt"], ckpt)
    stale = cnpp_reference.Cnpp(cnpp_reference.CnppConfig(seed=1234, embed_dim=64, **CNPP_MODEL))
    nn.save_checkpoint(ckpt / "cnpp_full.npz", stale.params(), CHECKPOINT_CONFIGS["cnpp_full"])
    assert run_cli("correct", cli_run["take"], tmp_path / "o.wav", "--checkpoint-dir", ckpt) == 2
    assert "missing=[] surplus=['down.b', 'down.w', 'up.b', 'up.w']" in capsys.readouterr().err
    assert not (tmp_path / "o.wav").exists()


def test_correct_with_a_cnpp_checkpoint_of_learned_event_positions_exits_2(cli_run, tmp_path, capsys):
    # the encoder once added a learned row per event index, `encoder.pos`
    ckpt = tmp_path / "ckpt"
    shutil.copytree(cli_run["ckpt"], ckpt)
    params = wf.load_cnpp(ckpt, load_config(None, TINY)).params()
    params["encoder.pos.table"] = nn.Tensor(np.zeros((512, CNPP_MODEL["model_dim"])))
    nn.save_checkpoint(ckpt / "cnpp_full.npz", params, CHECKPOINT_CONFIGS["cnpp_full"])
    assert run_cli("correct", cli_run["take"], tmp_path / "o.wav", "--checkpoint-dir", ckpt) == 2
    assert "missing=[] surplus=['encoder.pos.table']" in capsys.readouterr().err
    assert not (tmp_path / "o.wav").exists()


def test_full_recipe_matches_cli_run(cli_run, tmp_path):
    wf.run_full_recipe(load_config(None, TINY), tmp_path, jobs=2)
    recipe = manifest_stages(tmp_path / "checkpoints")
    by_cli = manifest_stages(cli_run["ckpt"])
    shared = set(recipe) & set(by_cli)
    assert shared == {"train_segmenter", "train_spp", "train_detuner", "ablate"} | {
        f"train_cnpp_{v}" for v in wf.CNPP_VARIANTS
    }
    for stage in shared:
        assert recipe[stage] == by_cli[stage]


def test_correct_cache_is_keyed_on_audio_settings(cli_run, tmp_path):
    cache = tmp_path / "cache"
    for hop in (256, 128):
        cfg = load_config(None, TINY + [f"audio.hop={hop}"])
        wf.stage_correct(cfg, cli_run["take"], tmp_path / "o.wav", cli_run["ckpt"], dry_run=True, cache_dir=cache)
    tracks = [ft.load_track(p) for p in sorted(cache.glob("track_*.npz"))]
    assert sorted(t.hop for t in tracks) == [128, 256]


def test_correct_cache_is_keyed_on_extractor_constants(cli_run, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    cfg = load_config(None, TINY)
    for threshold in (ft.YIN_THRESHOLD, 0.3):
        monkeypatch.setattr(ft, "YIN_THRESHOLD", threshold)
        wf.stage_correct(cfg, cli_run["take"], tmp_path / "o.wav", cli_run["ckpt"], dry_run=True, cache_dir=cache)
    tracks = [ft.load_track(p) for p in sorted(cache.glob("track_*.npz"))]
    # a miss: the second run extracted with its own threshold
    assert len(tracks) == 2
    assert len({int(t.voiced.sum()) for t in tracks}) == 2


def test_correct_reads_its_cached_track_and_writes_the_same_bytes(cli_run, tmp_path, monkeypatch):
    cfg = load_config(None, TINY)
    ann = cli_run["data"] / "annotations" / "moderate_eval_000.json"
    wav = ft.load_audio(cli_run["take"], cfg["audio"]["sample_rate"])
    # the key stage_correct hashed inline before track_cache_key held it, so
    # tracks cached then are still found
    assert ft.track_cache_key(wav, 22050, 256, 1024, 80) == "8c692941c309651bc8aa8e64"
    calls = []
    extract = ft.extract_track

    def counted(*args, **kwargs):
        calls.append(1)
        return extract(*args, **kwargs)

    monkeypatch.setattr(ft, "extract_track", counted)
    counts = []
    for name, cache in (("plain", None), ("miss", tmp_path / "cache"), ("hit", tmp_path / "cache")):
        before = len(calls)
        wf.stage_correct(cfg, cli_run["take"], tmp_path / f"{name}.wav", cli_run["ckpt"], annotations=ann,
                         cache_dir=cache)
        counts.append(len(calls) - before)
    # the input track and the corrected output's track; a hit skips the first
    assert counts == [2, 2, 1]
    assert [p.name for p in (tmp_path / "cache").iterdir()] == ["track_8c692941c309651bc8aa8e64.npz"]
    for suffix in (".wav", ".plan.tsv", ".residuals.tsv"):
        plain = (tmp_path / f"plain{suffix}").read_bytes()
        assert (tmp_path / f"miss{suffix}").read_bytes() == plain
        assert (tmp_path / f"hit{suffix}").read_bytes() == plain


def test_correct_holds_no_audio_while_verify_estimates(cli_run, tmp_path, monkeypatch):
    refs = []
    alive_at_estimate = []

    def read(self, span):
        out = raw_read(self, span)
        refs.append(("read", weakref.ref(out)))
        return out

    def shifted_blocks(*args):
        for block in raw_shifted_blocks(*args):
            refs.append(("shifted_blocks", weakref.ref(block)))
            yield block

    def estimate(self, *args, **kwargs):
        alive_at_estimate.append(sorted({name for name, ref in refs if ref() is not None}))
        return raw_estimate(self, *args, **kwargs)

    raw_read, raw_shifted_blocks = ft.WavReader.__getitem__, corr.shifted_blocks
    raw_estimate = sp.StationaryPitchPredictor.estimate
    monkeypatch.setattr(ft.WavReader, "__getitem__", read)
    monkeypatch.setattr(corr, "shifted_blocks", shifted_blocks)
    monkeypatch.setattr(sp.StationaryPitchPredictor, "estimate", estimate)
    wf.stage_correct(load_config(None, TINY), cli_run["take"], tmp_path / "o.wav", cli_run["ckpt"],
                     annotations=cli_run["data"] / "annotations" / "moderate_eval_000.json")
    # the input-side estimate, then the verify pass's: the take and the
    # corrected samples are read a block or a span at a time, so neither
    # holds any of them
    assert alive_at_estimate == [[], []]
    assert {name for name, _ in refs} == {"read", "shifted_blocks"}
    assert (tmp_path / "o.wav").read_bytes() == (cli_run["out"] / "plain.wav").read_bytes()


def test_correct_writes_the_bytes_of_the_whole_take_array_calls(cli_run, tmp_path):
    # the array calls perfbench's traced replay makes, the take held whole
    cfg = load_config(None, TINY)
    a = cfg["audio"]
    sr, hop = a["sample_rate"], a["hop"]
    take, ann = cli_run["take"], cli_run["data"] / "annotations" / "moderate_eval_000.json"
    wf.stage_correct(cfg, take, tmp_path / "streamed.wav", cli_run["ckpt"], annotations=ann)
    pipeline = wf.Pipeline.load(cli_run["ckpt"], cfg, variants=("full",))
    wav = ft.load_audio(take, sr)
    track = ft.extract_track(wav, sr=sr, hop=hop, win=a["win"], n_mels=a["n_mels"])
    notes, ests = pipeline.transcribe_base(track)
    meta = sym.GridMeta.from_annotation(dk.import_annotations(ann))
    plan = corr.build_plan(ests, pipeline.note_targets(notes, ests, meta, "full", sr, hop), notes, track)
    out = tmp_path / "arrays.wav"
    corr.write_plan_sidecar(out.with_suffix(".plan.tsv"), plan, track)
    corrected = corr.shift_audio(wav, plan, track)
    ft.write_wav(out, corrected, sr)
    track2 = ft.extract_track(corrected, sr=sr, hop=hop, win=a["win"], n_mels=a["n_mels"])
    corr.write_residuals(out.with_suffix(".residuals.tsv"),
                         corr.verify_plan(pipeline.spp.estimate(track2, notes), plan, track))
    for suffix in (".wav", ".plan.tsv", ".residuals.tsv"):
        assert (tmp_path / f"streamed{suffix}").read_bytes() == out.with_suffix(suffix).read_bytes(), suffix
    assert len(plan.notes) > 0 and np.abs(plan.deltas).max() > 0


def test_correct_peak_grows_with_the_take_by_no_more_than_its_two_tracks(cli_run, tmp_path):
    # the take four and eight times over (40 and 80 s); per frame, the input
    # track and the verify pass's track hold 657 bytes each (pitch, filled
    # pitch, voicing, 80 mel bands), and one float64 copy of the samples
    # would add 2,048 (reading the take whole, these calls grew by 2,410)
    cfg = load_config(None, TINY)
    ann = cli_run["data"] / "annotations" / "moderate_eval_000.json"
    wav = ft.load_audio(cli_run["take"])
    peaks, frames = [], []
    for reps in (4, 8):
        take = tmp_path / f"take_{reps}.wav"
        ft.write_wav(take, np.tile(wav, reps))
        if not peaks:  # one-off allocations (the mel constants, numpy's lazy modules) go first
            wf.stage_correct(cfg, take, tmp_path / "warm.wav", cli_run["ckpt"], annotations=ann)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            wf.stage_correct(cfg, take, tmp_path / f"o_{reps}.wav", cli_run["ckpt"], annotations=ann)
            peaks.append(tracemalloc.get_traced_memory()[1] - held)
        finally:
            tracemalloc.stop()
        frames.append(ft.frame_count(reps * len(wav)))
    per_frame = 2 * (8 + 8 + 1 + 8 * cfg["audio"]["n_mels"])
    assert peaks[1] - peaks[0] < 1.1 * per_frame * (frames[1] - frames[0]), (peaks, frames)


def test_correct_rejects_a_take_whose_length_changed_before_the_shift(cli_run, tmp_path, monkeypatch):
    take = tmp_path / "take.wav"
    shutil.copyfile(cli_run["take"], take)

    def build_plan(*args):
        # the take loses its last sample once it is tracked
        take.write_bytes(take.read_bytes()[:-2])
        return raw_build_plan(*args)

    raw_build_plan = corr.build_plan
    monkeypatch.setattr(corr, "build_plan", build_plan)
    with pytest.raises(ft.AudioIOError, match="take.wav changed while it was read"):
        wf.stage_correct(load_config(None, TINY), take, tmp_path / "o.wav", cli_run["ckpt"],
                         annotations=cli_run["data"] / "annotations" / "moderate_eval_000.json")
    # no output WAV, partial or whole, and no temporary file is left
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o.plan.tsv", "take.wav"]


def test_correct_in_place_writes_the_bytes_of_a_run_to_another_file(cli_run, tmp_path):
    take = tmp_path / "take.wav"
    shutil.copyfile(cli_run["take"], take)
    wf.stage_correct(load_config(None, TINY), take, take, cli_run["ckpt"],
                     annotations=cli_run["data"] / "annotations" / "moderate_eval_000.json")
    for suffix in (".wav", ".plan.tsv", ".residuals.tsv"):
        assert take.with_suffix(suffix).read_bytes() == (cli_run["out"] / f"plain{suffix}").read_bytes(), suffix
    assert sorted(p.name for p in tmp_path.iterdir()) == ["take.plan.tsv", "take.residuals.tsv", "take.wav"]


def test_correct_onto_a_hard_link_of_the_take_leaves_the_take_as_it_was(cli_run, tmp_path):
    take, link = tmp_path / "take.wav", tmp_path / "link.wav"
    shutil.copyfile(cli_run["take"], take)
    os.link(take, link)
    wf.stage_correct(load_config(None, TINY), take, link, cli_run["ckpt"],
                     annotations=cli_run["data"] / "annotations" / "moderate_eval_000.json")
    assert take.read_bytes() == Path(cli_run["take"]).read_bytes()
    assert link.read_bytes() == (cli_run["out"] / "plain.wav").read_bytes()


@pytest.mark.parametrize("damage", ["truncated", "garbage"])
def test_correct_treats_an_unreadable_cached_track_as_a_miss(cli_run, tmp_path, caplog, damage):
    cfg = load_config(None, TINY)
    ann = cli_run["data"] / "annotations" / "moderate_eval_000.json"
    cache = tmp_path / "cache"
    wf.stage_correct(cfg, cli_run["take"], tmp_path / "first.wav", cli_run["ckpt"], annotations=ann,
                     dry_run=True, cache_dir=cache)
    (entry,) = cache.iterdir()
    whole = entry.read_bytes()
    entry.write_bytes(whole[: len(whole) // 2] if damage == "truncated" else b"garbage" * 64)
    with caplog.at_level(logging.WARNING, logger=wf.log.name):
        wf.stage_correct(cfg, cli_run["take"], tmp_path / "again.wav", cli_run["ckpt"], annotations=ann,
                         cache_dir=cache)
    assert any("cannot read cached track" in r.getMessage() for r in caplog.records)
    # the same bytes as the CLI's uncached run, and the entry is whole again
    for suffix in (".wav", ".plan.tsv", ".residuals.tsv"):
        assert (tmp_path / f"again{suffix}").read_bytes() == (cli_run["out"] / f"plain{suffix}").read_bytes()
    assert entry.read_bytes() == whole
    ft.load_track(entry)


def test_correct_on_a_take_with_a_nan_sample_exits_2(cli_run, tmp_path, capsys):
    from scipy.io import wavfile

    pcm = np.float32(ft.load_audio(cli_run["take"]))
    pcm[1000] = np.nan
    wavfile.write(tmp_path / "nan.wav", 22050, pcm)
    assert run_cli("correct", tmp_path / "nan.wav", tmp_path / "o.wav", "--checkpoint-dir", cli_run["ckpt"]) == 2
    assert "non-finite samples (NaN or inf) in audio file" in capsys.readouterr().err
    assert not (tmp_path / "o.wav").exists()


def test_correct_on_a_truncated_take_exits_2_and_writes_nothing(cli_run, tmp_path, capsys):
    raw = cli_run["take"].read_bytes()
    (tmp_path / "cut.wav").write_bytes(raw[:-1001])
    assert run_cli("correct", tmp_path / "cut.wav", tmp_path / "o.wav", "--checkpoint-dir", cli_run["ckpt"]) == 2
    err = capsys.readouterr().err
    assert f"cut.wav: truncated file: its data chunk holds {len(raw) - 44} bytes, but only {len(raw) - 1045} follow" in err
    assert not list(tmp_path.glob("o.*"))


def test_correct_at_the_model_rate_loads_no_scipy(cli_run, tmp_path):
    # a fresh interpreter: the test process has imported scipy itself
    probe = (
        "import sys\n"
        "from notetune import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(code, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    ann = cli_run["data"] / "annotations" / "moderate_eval_000.json"
    argv = ["correct", cli_run["take"], tmp_path / "o.wav", "--checkpoint-dir", cli_run["ckpt"], "--annotations", ann,
            "-q", *(arg for item in TINY for arg in ("--set", item))]
    out = subprocess.run([sys.executable, "-c", probe, *map(str, argv)], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "o.wav").read_bytes() == (cli_run["out"] / "plain.wav").read_bytes()


def test_correct_loads_its_models_without_numpy_random(cli_run, tmp_path):
    # a fresh interpreter: the test process has drawn random numbers itself
    probe = (
        "import sys\n"
        "from notetune import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(code, 'numpy.random' in sys.modules)\n"
    )
    ann = cli_run["data"] / "annotations" / "moderate_eval_000.json"
    argv = ["correct", cli_run["take"], tmp_path / "o.wav", "--checkpoint-dir", cli_run["ckpt"], "--annotations", ann,
            "-q", *(arg for item in TINY for arg in ("--set", item))]
    out = subprocess.run([sys.executable, "-c", probe, *map(str, argv)], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 False"
    assert (tmp_path / "o.wav").read_bytes() == (cli_run["out"] / "plain.wav").read_bytes()


def test_models_built_for_loading_draw_no_weights():
    cfg = FrameEncoderConfig(**FRAME_MODEL)
    with nn.no_init():
        quiet = seg.Segmenter(cfg)
    drawn = seg.Segmenter(cfg)
    quiet, drawn = quiet.params(), drawn.params()
    assert set(quiet) == set(drawn)
    # a drawn weight is zeros; a set one (a LayerNorm gain or any bias) is as drawn
    skipped = [name for name, p in quiet.items() if p.data.tobytes() != drawn[name].data.tobytes()]
    assert all(quiet[name].data.shape == drawn[name].data.shape and not quiet[name].data.any() for name in skipped)
    assert "head_out.w" in skipped and "head_out.b" not in skipped
    # the context restores drawing, so a model built after it is the trained one's start
    assert seg.Segmenter(cfg).params()["head_out.w"].data.tobytes() == drawn["head_out.w"].data.tobytes()


def test_spp_validation_runs_every_eval_step(cli_run):
    # the tiny corpus has no in-tune val songs, so the held-out in-tune set serves
    doc = wf.load_dataset(cli_run["data"])
    train = wf.songs_by(cli_run["data"], doc, subset="in_tune", role="train")
    val = wf.songs_by(cli_run["data"], doc, subset="intune_eval")
    cfg = load_config(None, TINY)
    assert (cfg["spp"]["train"]["steps"], cfg["spp"]["train"]["eval_every"]) == (4, 2)
    _model, history = wf.train_spp_on(train, val, cfg)
    assert [v["step"] for v in history["val"]] == [2, 4]
    final = history["final_val"]
    assert {"ptr_percent", "mae_cents"} <= set(final) and final["n_notes"] > 0


@pytest.mark.parametrize("theta", [0.3, 0.5])
def test_segmenter_validation_scores_the_onsets_correct_detects(cli_run, theta):
    cfg = load_config(None, [*TINY, f"segmenter.theta={theta}"])
    songs = wf.songs_by(cli_run["data"], wf.load_dataset(cli_run["data"]), subset="moderate_eval")
    pipeline = wf.Pipeline.load(cli_run["ckpt"], cfg, variants=("no_cnpp",))
    scores = [seg.boundary_prf([n.start_frame for n in pipeline.transcribe_base(song.track)[0]],
                               [n.start_frame for n in song.notes]) for song in songs]
    expected = dict(zip(("precision", "recall", "f1"), (float(np.mean(col)) for col in zip(*scores))))
    assert wf._validate_segmenter(pipeline.segmenter, songs, cfg) == expected


def test_frame_model_trainers_take_songs_shorter_than_the_crop():
    cfg = load_config(None, TINY)
    songs = []
    for seed, n_notes in ((5, 3), (6, 4)):
        wav, ann = dk.synth_song(dk.SynthSpec(seed=seed, n_notes=n_notes, detune=dk.DetuneSpec(kind="none")))
        songs.append(wf.SongData(ann, ft.extract_track(wav)))
    lengths = {song.track.n_frames for song in songs}
    assert len(lengths) == 2 and min(lengths) < WINDOW
    _seg, seg_history = wf.train_segmenter_on(songs, [], cfg)
    _spp, spp_history = wf.train_spp_on(songs, [], cfg)
    assert len(seg_history["loss"]) == 4 and spp_history["loss"]
    assert np.all(np.isfinite(seg_history["loss"] + spp_history["loss"]))


def test_train_detuner_with_zero_steps_records_no_final_loss(cli_run, tmp_path):
    ckpt = tmp_path / "ckpt"
    shutil.copytree(cli_run["ckpt"], ckpt)
    argv = ["train-detuner", "--data-dir", cli_run["data"], "--checkpoint-dir", ckpt]
    assert run_cli(*argv, overrides=["detuner.steps=0"]) == 0
    assert nn.load_checkpoint(ckpt / "detuner.npz")["extra"]["final_loss"] is None


def test_checkpoint_config_blocks(cli_run):
    written = sorted(p.stem for p in cli_run["ckpt"].glob("*.npz"))
    assert written == sorted(CHECKPOINT_CONFIGS)
    for name, config in CHECKPOINT_CONFIGS.items():
        assert nn.load_checkpoint(cli_run["ckpt"] / f"{name}.npz")["config"] == config


def test_correct_rejects_negative_onset_annotation(cli_run, tmp_path):
    ann = json.loads((cli_run["data"] / "annotations" / "moderate_eval_000.json").read_text())
    ann["notes"][0]["onset_sec"] = -0.1
    path = tmp_path / "early.json"
    path.write_text(json.dumps(ann))
    argv = ["correct", cli_run["take"], tmp_path / "o.wav", "--checkpoint-dir", cli_run["ckpt"]]
    assert run_cli(*argv, "--annotations", path) == 2


def test_correct_rejects_non_finite_annotation(cli_run, tmp_path):
    ann = json.loads((cli_run["data"] / "annotations" / "moderate_eval_000.json").read_text())
    ann["notes"][1]["onset_sec"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(ann))  # a bare NaN, which json.loads accepts
    argv = ["correct", cli_run["take"], tmp_path / "o.wav", "--checkpoint-dir", cli_run["ckpt"]]
    assert run_cli(*argv, "--annotations", path) == 2
    assert not (tmp_path / "o.wav").exists()


def test_extract_with_zero_jobs_exits_2(cli_run):
    assert run_cli("extract", "--data-dir", cli_run["data"], "--jobs", 0) == 2


def test_extract_runs_no_mel_while_yin_chunks_run(cli_run, tmp_path, monkeypatch):
    # no mel matmul (BLAS threads) may compete with the YIN threads: no mel
    # starts while a YIN chunk runs, nor a chunk while a mel runs; the tracks
    # stay those of extract_track
    data = tmp_path / "data"
    shutil.copytree(cli_run["data"], data)
    lock, running, overlaps = threading.Lock(), {"yin": 0, "mel": 0}, []
    yin_rows, mel_spectrogram = ft._yin_rows, ft.mel_spectrogram

    def counted(kind, other, fn):
        def call(*args, **kwargs):
            with lock:
                running[kind] += 1
                overlaps.append(running[other])
            try:
                time.sleep(0.002)  # long enough for calls that may overlap to meet
                return fn(*args, **kwargs)
            finally:
                with lock:
                    running[kind] -= 1
        return call

    monkeypatch.setattr(ft, "_yin_rows", counted("yin", "mel", yin_rows))
    monkeypatch.setattr(ft, "mel_spectrogram", counted("mel", "yin", mel_spectrogram))
    cfg = load_config(None, TINY)
    doc = wf.stage_extract(cfg, data, jobs=2)
    assert len(overlaps) > len(doc["samples"]) and not any(overlaps)
    monkeypatch.undo()
    entry = doc["samples"][min(doc["samples"])]
    wav = ft.load_audio(data / entry["audio"], cfg["audio"]["sample_rate"])
    ft.save_track(tmp_path / "one.npz", wf._extract_track(wav, cfg["audio"]))
    assert (tmp_path / "one.npz").read_bytes() == (data / entry["features"]).read_bytes()


def test_extract_reads_each_song_once(cli_run, tmp_path, monkeypatch):
    data = tmp_path / "data"
    shutil.copytree(cli_run["data"], data)
    reads = []
    load_audio = ft.load_audio

    def counted(path, *args, **kwargs):
        reads.append(Path(path))
        return load_audio(path, *args, **kwargs)

    monkeypatch.setattr(ft, "load_audio", counted)
    doc = wf.stage_extract(load_config(None, TINY), data, jobs=2)
    assert sorted(reads) == sorted(data / entry["audio"] for entry in doc["samples"].values())


def test_extract_never_runs_more_yin_chunks_at_once_than_jobs(cli_run, tmp_path, monkeypatch):
    # one pool of `jobs` threads serves every song, however many CPUs
    data = tmp_path / "data"
    shutil.copytree(cli_run["data"], data)
    lock, running, most = threading.Lock(), [0], [0]
    yin_rows = ft._yin_rows

    def counting_yin_rows(*args):
        with lock:
            running[0] += 1
            most[0] = max(most[0], running[0])
        try:
            time.sleep(0.002)  # long enough for calls that may overlap to meet
            return yin_rows(*args)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(ft, "_yin_rows", counting_yin_rows)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    wf.stage_extract(load_config(None, TINY), data, jobs=2)
    assert most[0] == 2


def test_extract_writes_the_same_bytes_for_any_jobs(cli_run, tmp_path):
    written = []
    for jobs in (1, 2):
        data = tmp_path / f"jobs_{jobs}"
        shutil.copytree(cli_run["data"], data)
        shutil.rmtree(data / "features")
        wf.stage_extract(load_config(None, TINY), data, jobs=jobs)
        files = [data / "dataset.json", *sorted((data / "features").iterdir())]
        written.append({p.relative_to(data): p.read_bytes() for p in files})
    assert len(written[0]) == len(wf.load_dataset(cli_run["data"])["samples"]) + 1
    assert written[0] == written[1]


def test_changed_pretrain_settings_retrain_the_pretrained_cnpp(cli_run, tmp_path):
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    shutil.copytree(cli_run["ckpt"], reused)
    before = (reused / "cnpp_pretrained.npz").read_bytes()
    cfg = load_config(None, TINY + ["cnpp.pretrain.steps=8", "cnpp.pretrain.n_songs=16"])
    for ckpt in (reused, fresh):
        wf.stage_train_cnpp(cfg, cli_run["data"], ckpt, variant="no_augment")
    after = (reused / "cnpp_pretrained.npz").read_bytes()
    assert after != before
    assert after == (fresh / "cnpp_pretrained.npz").read_bytes()
    assert (reused / "cnpp_no_augment.npz").read_bytes() == (fresh / "cnpp_no_augment.npz").read_bytes()


def test_unchanged_config_reuses_the_pretrained_cnpp(cli_run, tmp_path, monkeypatch):
    ckpt = tmp_path / "ckpt"
    shutil.copytree(cli_run["ckpt"], ckpt)
    before = (ckpt / "cnpp_pretrained.npz").read_bytes()

    def no_pretraining(*_args):
        raise AssertionError("pretrained CNPP was not reused")

    monkeypatch.setattr(wf, "pretrain_cnpp", no_pretraining)
    wf.stage_train_cnpp(load_config(None, TINY), cli_run["data"], ckpt, variant="no_augment")
    assert (ckpt / "cnpp_pretrained.npz").read_bytes() == before
    assert (ckpt / "cnpp_no_augment.npz").read_bytes() == (cli_run["ckpt"] / "cnpp_no_augment.npz").read_bytes()


def bench_spans():
    """The benchmark's `perfbench/spans.py`, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_layers_are_own_attributes():
    # the benchmark's tracer reads and swaps owner.__dict__[attr], so each
    # traced name must be defined on its owner itself, not inherited
    for owner, attr, _name in bench_spans().LAYERS:
        assert attr in vars(owner), (owner, attr)


def test_benchmark_tracer_times_the_decode_and_restores_every_original():
    spans = bench_spans()
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _name in spans.LAYERS]
    small = FrameEncoderConfig(layers=1, model_dim=16, heads=2, window=8, seed=5)
    pipeline = wf.Pipeline(load_config(None, TINY), seg.Segmenter(small), sp.StationaryPitchPredictor(small), {})
    tracer = spans.Tracer()
    with tracer.instrument():
        assert not any(vars(owner)[attr] is raw for owner, attr, raw in originals)
        pipeline.transcribe_base(make_track(60 + np.random.default_rng(3).normal(0, 1, 120)))
    assert {"segmenter.Segmenter.predict", "segmenter.detect_notes"} <= set(tracer.totals())
    assert all(vars(owner)[attr] is raw for owner, attr, raw in originals)
    with pytest.raises(RuntimeError), tracer.instrument():
        raise RuntimeError
    assert all(vars(owner)[attr] is raw for owner, attr, raw in originals)


@pytest.mark.parametrize("doc, message", [
    pytest.param({"version": 1, "notes": [{"onset_sec": float("nan"), "offset_sec": 0.4, "pitch": 60}]},
                 "note 0: non-finite onset_sec", id="nan_onset"),
    pytest.param({"version": 1}, "'notes' is missing", id="no_notes"),
    pytest.param([], "top level is a JSON list, not an object", id="top_level_list"),
    pytest.param({"version": 1, "notes": [{"onset_sec": 0.0, "offset_sec": 0.4}]}, "note 0 has no 'pitch'",
                 id="note_without_pitch"),
    pytest.param({"version": 1, "notes": [], "tempo_bpm": None}, "bad tempo_bpm or time_signature",
                 id="null_tempo"),
    pytest.param({"version": 1, "notes": [], "time_signature": [4]}, "bad tempo_bpm or time_signature",
                 id="one_number_time_signature"),
    *(pytest.param({"version": 1, "notes": [], "tempo_bpm": bpm}, "bad tempo_bpm .*not a finite number above 0",
                   id=f"tempo_{bpm}") for bpm in (float("nan"), float("inf"), 0, -120)),
    *(pytest.param({"version": 1, "notes": [], "time_signature": sig}, "bad time_signature .*not two positive",
                   id=f"time_signature_{sig[0]}_{sig[1]}") for sig in (["a", 4], [4, 0])),
    *(pytest.param({"version": 1, "notes": [{"onset_sec": 0.0, "offset_sec": 0.4, "pitch": pitch}]},
                   f"bad.json: note 0: pitch {pitch!r} is not a whole number", id=f"pitch_{pitch!r}")
      for pitch in (60.7, True, "61")),
])
def test_correct_rejects_a_bad_annotation_before_loading_anything(tmp_path, monkeypatch, doc, message):
    def no_load(*_args, **_kwargs):
        raise AssertionError("models were loaded before the annotations were validated")

    monkeypatch.setattr(wf.Pipeline, "load", no_load)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(dk.AnnotationError, match=message):
        wf.stage_correct(load_config(None, TINY), tmp_path / "missing.wav", tmp_path / "out.wav",
                         tmp_path / "ckpt", annotations=bad)


def test_correct_with_a_malformed_annotation_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    argv = ["correct", tmp_path / "missing.wav", tmp_path / "o.wav", "--checkpoint-dir", tmp_path / "ckpt"]
    assert run_cli(*argv, "--annotations", bad) == 2
    assert "top level is a JSON list" in capsys.readouterr().err


@pytest.mark.parametrize("field, message", [("division", "time division of 0"), ("tempo", "tempo of 0")])
def test_correct_with_a_zero_midi_division_or_tempo_exits_2(tmp_path, monkeypatch, capsys, field, message):
    def no_load(*_args, **_kwargs):
        raise AssertionError("models were loaded before the annotations were validated")

    monkeypatch.setattr(wf.Pipeline, "load", no_load)
    path = tmp_path / f"zero_{field}.mid"
    write_midi(path, [(0.0, 0.5, 60), (0.5, 1.0, 62)], tempo_bpm=120.0)
    raw = bytearray(path.read_bytes())
    if field == "division":
        raw[12:14] = bytes(2)
    else:
        at = raw.index(b"\xff\x51\x03") + 3
        raw[at : at + 3] = bytes(3)
    path.write_bytes(bytes(raw))
    argv = ["correct", tmp_path / "missing.wav", tmp_path / "o.wav", "--checkpoint-dir", tmp_path / "ckpt"]
    assert run_cli(*argv, "--annotations", path) == 2
    err = capsys.readouterr().err
    assert message in err and path.name in err


@pytest.mark.parametrize("keep", [10, 19, -5])
def test_correct_with_a_midi_annotation_cut_short_exits_2(cli_run, tmp_path, capsys, keep):
    path = tmp_path / "cut.mid"
    write_midi(path, [(0.0, 0.5, 60), (0.5, 1.0, 62)], tempo_bpm=120.0)
    path.write_bytes(path.read_bytes()[:keep])
    out = tmp_path / "o.wav"
    capsys.readouterr()
    argv = ["correct", cli_run["take"], out, "--checkpoint-dir", cli_run["ckpt"]]
    assert run_cli(*argv, "--annotations", path) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, missing, prerequisite", [
    (["train-detuner"], "spp.npz", "train-spp"),
    (["train-cnpp", "--variant", "full"], "detuner.npz", "train-detuner"),
])
def test_a_trainer_without_its_input_checkpoint_exits_2_and_names_its_trainer(
        cli_run, tmp_path, capsys, command, missing, prerequisite):
    ckpt = tmp_path / "ckpt"
    shutil.copytree(cli_run["ckpt"], ckpt)
    (ckpt / missing).unlink()
    capsys.readouterr()
    assert run_cli(*command, "--data-dir", cli_run["data"], "--checkpoint-dir", ckpt) == 2
    assert f"run `notetune {prerequisite}` first" in capsys.readouterr().err


def test_trainers_do_not_read_the_run_manifest(cli_run, tmp_path):
    ckpt = tmp_path / "ckpt"
    shutil.copytree(cli_run["ckpt"], ckpt)
    (ckpt / "run_manifest.json").unlink()
    common = ["--data-dir", cli_run["data"], "--checkpoint-dir", ckpt]
    assert run_cli("train-detuner", *common) == 0
    assert run_cli("train-cnpp", *common, "--variant", "full") == 0
    for name in ("detuner", "cnpp_full"):
        assert (ckpt / f"{name}.npz").read_bytes() == (cli_run["ckpt"] / f"{name}.npz").read_bytes()
    assert sorted(manifest_stages(ckpt)) == ["train_cnpp_full", "train_detuner"]


def _stage_peaks_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "stage_peaks.py"
    spec = importlib.util.spec_from_file_location("stage_peaks", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_stage_peaks_prints_one_line_of_steps_and_the_untraced_output_hashes(cli_run, tmp_path, capsys):
    tool = _stage_peaks_tool()
    take, ckpt = cli_run["take"], cli_run["ckpt"]
    ann = cli_run["data"] / "annotations" / "moderate_eval_000.json"
    capsys.readouterr()
    assert tool.main([str(take), str(ckpt), "--annotations", str(ann)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    steps = [s["step"] for s in doc["steps"]]
    assert steps.count("workflow._write_shifted") == 1
    assert steps.count("spp.StationaryPitchPredictor.estimate") == 2  # transcribe, then verify
    assert steps.count("features.track_pitch") == 2  # the take, then the corrected samples
    # the take is read a block at a time, never whole
    assert "features.load_audio" not in steps and "corrector.shift_audio" not in steps
    assert all(s["held_mb"] >= 0 and s["peak_above_mb"] >= 0 for s in doc["steps"])
    wf.stage_correct(load_config(), take, tmp_path / "out.wav", ckpt, annotations=ann)
    untraced = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())}
    assert set(untraced) == {"out.wav", "out.plan.tsv", "out.residuals.tsv"}
    assert doc["outputs"] == untraced


@pytest.mark.parametrize("model", ["segmenter", "spp"])
def test_stage_peaks_prints_one_line_for_a_training_step(model, capsys):
    tool = _stage_peaks_tool()
    assert tool.main(["--train-step", model]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    cfg = load_config()
    assert (doc["train_step"], doc["batch"], doc["crop"]) == (model, cfg[model]["train"]["batch"], WINDOW)
    assert 0 < doc["held_after_forward_mb"] <= doc["traced_peak_mb"]
    top = [t["mb"] for t in doc["top_lines"]]
    assert len(top) == tool.TOP_LINES and top == sorted(top, reverse=True)
    assert sum(top) <= doc["held_after_forward_mb"] + 0.1 * len(top)  # each figure is rounded
    assert all(t["line"].startswith("notetune/") for t in doc["top_lines"])
    with pytest.raises(SystemExit) as exit_info:
        tool.main([])  # no take, no checkpoints, no --train-step
    assert exit_info.value.code == 2
