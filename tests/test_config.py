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


@pytest.mark.parametrize("item", [
    "segmenter.train.eval_every=0",
    "spp.train.eval_every=0",
    "segmenter.train.batch=0",
    "cnpp.pretrain.batch=0",
    "detuner.batch=-1",
    "spp.train.batch=2.5",
])
def test_cli_count_below_one_exits_2_naming_the_key(tmp_path, capsys, item):
    argv = ["train-segmenter", "--data-dir", str(tmp_path), "--checkpoint-dir", str(tmp_path), "--set", item, "-q"]
    assert cli.main(argv) == 2
    assert f"config key {item.split('=')[0]} must be a whole number of at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("item, minimum", [
    ("seed=1.5", 0),
    ("seed=true", 0),
    ("seed=-1", 0),
    ("segmenter.train.steps=1.5", 0),
    ("detuner.steps=false", 0),
    ("corpus.n_songs=-1", 0),
    ("cnpp.pretrain.n_songs=\"8\"", 0),
    ("corpus.eval_sets.spp_bench.n_songs=2.0", 0),
    ("segmenter.train.batch=true", 1),
    ("spp.train.eval_every=true", 1),
    ("segmenter.train.eval_every=true", 1),
])
def test_whole_number_keys_are_checked_at_load(item, minimum):
    key = item.split("=")[0]
    with pytest.raises(ValueError, match=f"config key {key} must be a whole number of at least {minimum}"):
        load_config(None, [item])


def test_new_eval_set_needs_a_whole_number_of_songs():
    with pytest.raises(ValueError, match="corpus.eval_sets.extra.n_songs must be a whole number of at least 0"):
        load_config(None, ["corpus.eval_sets.extra={\"n_songs\": 1.5, \"detune\": \"ar1\"}"])


def test_zero_seed_steps_and_songs_are_accepted():
    cfg = load_config(None, ["seed=0", "detuner.steps=0", "corpus.n_songs=0", "cnpp.pretrain.n_songs=0"])
    assert (cfg["seed"], cfg["detuner"]["steps"], cfg["corpus"]["n_songs"]) == (0, 0, 0)


def test_cli_fractional_seed_exits_2_naming_the_key(tmp_path, capsys):
    argv = ["synth-data", "--data-dir", str(tmp_path), "--set", "seed=1.5", "-q"]
    assert cli.main(argv) == 2
    assert "config key seed must be a whole number of at least 0, got 1.5" in capsys.readouterr().err
    assert not (tmp_path / "dataset.json").exists()


@pytest.mark.parametrize("item", [
    "detuner.min_notes=1.5",
    "audio.hop=true",
    "audio.sample_rate=22050.0",
    "corpus.notes_min=2.5",
    "cnpp.model.layers=true",
    "segmenter.model.window=\"64\"",
    "segmenter.nms_window=null",
    "spp.train.warmup=false",
])
def test_every_integer_setting_must_be_a_whole_number(item):
    key, value = item.split("=")
    with pytest.raises(ValueError, match=f"config key {key} must be a whole number, got "):
        load_config(None, [item])


@pytest.mark.parametrize("item", [
    "segmenter.train.lr=\"fast\"",
    "segmenter.theta=true",
    "spp.loss.lambda_s=null",
    "cnpp.model.dropout=[1]",
    "corpus.ar1.rho=false",
])
def test_every_float_setting_must_be_a_number(item):
    key, value = item.split("=")
    with pytest.raises(ValueError, match=f"config key {key} must be a number, got "):
        load_config(None, [item])


def test_cli_string_learning_rate_exits_2_naming_the_key(tmp_path, capsys):
    argv = ["synth-data", "--data-dir", str(tmp_path), "--set", "segmenter.train.lr=fast", "-q"]
    assert cli.main(argv) == 2
    assert "config key segmenter.train.lr must be a number, got 'fast'" in capsys.readouterr().err
    assert not (tmp_path / "dataset.json").exists()


def test_a_whole_number_is_accepted_where_a_float_is_expected():
    cfg = load_config(None, ["spp.train.lr=1", "segmenter.theta=0", "audio.hop=128"])
    assert (cfg["spp"]["train"]["lr"], cfg["segmenter"]["theta"], cfg["audio"]["hop"]) == (1, 0, 128)


def test_cli_fractional_integer_setting_exits_2_naming_the_key(tmp_path, capsys):
    argv = ["synth-data", "--data-dir", str(tmp_path), "--set", "corpus.notes_min=2.5", "-q"]
    assert cli.main(argv) == 2
    assert "config key corpus.notes_min must be a whole number, got 2.5" in capsys.readouterr().err
    assert not (tmp_path / "dataset.json").exists()


@pytest.mark.parametrize("item", ["segmenter.train.lr=NaN", "segmenter.theta=-Infinity", "corpus.ar1.sigma=Infinity"])
def test_every_float_setting_must_be_finite(item):
    key = item.split("=")[0]
    with pytest.raises(ValueError, match=f"config key {key} must be a finite number, got "):
        load_config(None, [item])


@pytest.mark.parametrize("item", [
    "corpus.uniform_range=\"x\"",
    "corpus.uniform_range=[1]",
    "corpus.uniform_range=[-0.5, 0.5, 1]",
    "corpus.uniform_range=[-0.5, NaN]",
    "corpus.uniform_range=[false, 0.5]",
])
def test_a_list_setting_must_hold_as_many_finite_numbers_as_its_default(item):
    with pytest.raises(ValueError, match="config key corpus.uniform_range must be a list of 2 finite numbers, got "):
        load_config(None, [item])


def test_a_list_setting_of_finite_numbers_is_accepted():
    assert load_config(None, ["corpus.uniform_range=[-1, 0.25]"])["corpus"]["uniform_range"] == [-1, 0.25]


@pytest.mark.parametrize("item, key", [
    ("corpus.eval_sets.spp_bench.detune=\"bogus\"", "corpus.eval_sets.spp_bench.detune"),
    ("corpus.eval_sets.extra={\"n_songs\": 3, \"detune\": 5}", "corpus.eval_sets.extra.detune"),
])
def test_an_eval_set_detune_must_be_a_detune_kind(item, key):
    with pytest.raises(ValueError, match=f"config key {key} must be one of none, uniform, ar1, got "):
        load_config(None, [item])


@pytest.mark.parametrize("item, message", [
    ("segmenter.train.lr=NaN", "config key segmenter.train.lr must be a finite number, got nan"),
    ("corpus.uniform_range=[1]", "config key corpus.uniform_range must be a list of 2 finite numbers, got [1]"),
    ("corpus.eval_sets.spp_bench.detune=bogus",
     "config key corpus.eval_sets.spp_bench.detune must be one of none, uniform, ar1, got 'bogus'"),
])
def test_cli_malformed_setting_exits_2_naming_the_key(tmp_path, capsys, item, message):
    argv = ["synth-data", "--data-dir", str(tmp_path), "--set", item, "-q"]
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "dataset.json").exists()
