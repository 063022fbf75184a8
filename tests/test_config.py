import json

import pytest

from notetune import cli
from notetune.config import DEFAULTS, load_config


def test_unknown_override_key_rejected():
    with pytest.raises(ValueError, match="unknown config key segmenter.train.stepz"):
        load_config(None, ["segmenter.train.stepz=4"])
    with pytest.raises(ValueError, match="unknown config key seed.x"):
        load_config(None, ["seed.x=1"])


def test_unknown_file_key_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"spp": {"train": {"steps": 10, "stepz": 4}}}))
    with pytest.raises(ValueError, match="unknown config key spp.train.stepz"):
        load_config(path)


def test_config_file_must_hold_an_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[]")
    with pytest.raises(ValueError, match="must hold a JSON object"):
        load_config(path)


def test_object_replaced_by_value_rejected():
    with pytest.raises(ValueError, match="corpus.ar1 must be an object"):
        load_config(None, ["corpus.ar1=5"])


def test_new_eval_set_needs_exactly_n_songs_and_detune():
    cfg = load_config(None, ["corpus.eval_sets.extra.n_songs=3", "corpus.eval_sets.extra.detune=ar1"])
    assert cfg["corpus"]["eval_sets"]["extra"] == {"n_songs": 3, "detune": "ar1"}
    with pytest.raises(ValueError, match="new eval set corpus.eval_sets.extra"):
        load_config(None, ["corpus.eval_sets.extra.n_songs=3"])
    with pytest.raises(ValueError, match="new eval set corpus.eval_sets.extra"):
        load_config(None, ["corpus.eval_sets.extra={\"n_songs\": 3, \"detune\": \"ar1\", \"seed\": 1}"])
    with pytest.raises(ValueError, match="unknown config key corpus.eval_sets.spp_bench.seed"):
        load_config(None, ["corpus.eval_sets.spp_bench.seed=1"])


def test_cli_unknown_key_exits_2_before_running(tmp_path):
    empty = [f"corpus.eval_sets.{s}.n_songs=0" for s in DEFAULTS["corpus"]["eval_sets"]]
    argv = ["synth-data", "--data-dir", str(tmp_path), "-q"]
    for item in ["corpus.n_songs=0", *empty, "corpus.notes_mni=3"]:
        argv += ["--set", item]
    assert cli.main(argv) == 2
    assert not (tmp_path / "dataset.json").exists()
