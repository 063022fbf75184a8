"""End-to-end runs of every CLI subcommand and of the full recipe on a tiny
fixed-seed configuration (20 songs, 4 steps per trainer)."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from notetune import cli
from notetune import features as ft
from notetune import nncore as nn
from notetune import workflow as wf
from notetune.config import load_config

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


def run_cli(*argv) -> int:
    flags = [arg for item in TINY for arg in ("--set", item)]
    return cli.main([str(a) for a in argv] + flags + ["-q"])


FRAME_MODEL = {"layers": 2, "model_dim": 64, "heads": 2, "window": 64}
CNPP_MODEL = {"layers": 2, "model_dim": 64, "heads": 4, "embed_dim": 64, "max_events": 512, "dropout": 0.1}
CHECKPOINT_CONFIGS = {
    "segmenter": {"kind": "segmenter", "model": FRAME_MODEL, "seed": 1234},
    "spp": {"kind": "spp", "model": FRAME_MODEL, "seed": 1234},
    "detuner": {"kind": "detuner", "hidden": 64, "seed": 1234},
    **{
        f"cnpp_{v}": {"kind": f"cnpp_{v}", "model": CNPP_MODEL, "seed": 1234}
        for v in ("pretrained",) + wf.CNPP_VARIANTS
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


def test_manifest_paths_are_relative_to_the_checkpoint_dir(cli_run):
    ckpt = cli_run["ckpt"]
    for stage in manifest_stages(ckpt).values():
        for entry in stage["files"].values():
            assert wf._sha256(ckpt / entry["path"]) == entry["sha256"]


def test_correct_without_checkpoints_exits_2(cli_run, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli("correct", cli_run["take"], tmp_path / "o.wav", "--checkpoint-dir", empty) == 2


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


def test_benchmark_layers_are_own_attributes():
    # the benchmark's tracer reads and swaps owner.__dict__[attr], so each
    # traced name must be defined on its owner itself, not inherited
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for owner, attr, _name in spans.LAYERS:
        assert attr in vars(owner), (owner, attr)
