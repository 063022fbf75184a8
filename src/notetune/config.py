"""Run configuration: one versioned JSON document shared by all stages.

`load_config` starts from the defaults below, deep-merges an optional JSON
file, then applies dotted-path overrides (e.g. "cnpp.finetune.steps=500").
CLI flags map onto those overrides, so flags always win over file values.
A key that DEFAULTS does not have is an error, except a new evaluation set
under corpus.eval_sets, which must give exactly n_songs and detune.
"""

from __future__ import annotations

import copy
import hashlib
import json
from pathlib import Path

CONFIG_VERSION = 1

DEFAULTS = {
    "version": CONFIG_VERSION,
    "seed": 1234,
    "audio": {"sample_rate": 22050, "hop": 256, "win": 1024, "n_mels": 80},
    "corpus": {
        "n_songs": 200,
        "notes_min": 36,
        "notes_max": 48,
        "fractions": {"none": 0.10, "uniform": 0.80, "ar1": 0.10},
        "uniform_range": [-0.5, 0.5],
        "ar1": {"rho": 0.6, "sigma": 0.65, "clip": 1.5},
        "eval_sets": {
            "spp_bench": {"n_songs": 50, "detune": "uniform"},
            "moderate_eval": {"n_songs": 24, "detune": "uniform"},
            "high_eval": {"n_songs": 24, "detune": "ar1"},
            "intune_eval": {"n_songs": 12, "detune": "none"},
        },
    },
    "segmenter": {
        "model": {"layers": 2, "model_dim": 64, "heads": 2, "window": 64},
        "train": {
            "steps": 1500,
            "batch": 8,
            "crop": 256,
            "lr": 1e-3,
            "warmup": 50,
            "weight_decay": 0.01,
            "eval_every": 300,
        },
        "soft_sigma": 2.0,
        "nms_window": 5,
        "theta": 0.5,
        "min_note_frames": 5,
        "focal": {"gamma": 4.0, "alpha_pos": 29.0, "alpha_neg": 1.0},
    },
    "spp": {
        "model": {"layers": 2, "model_dim": 64, "heads": 2, "window": 64},
        "train": {
            "steps": 1200,
            "batch": 4,
            "crop": 256,
            "lr": 1e-3,
            "warmup": 50,
            "weight_decay": 0.01,
            "eval_every": 300,
        },
        "loss": {"lambda_s": 0.05, "lambda_d": 0.1, "lambda_u": 0.01},
    },
    "detuner": {"hidden": 64, "steps": 1200, "batch": 16, "lr": 3e-3, "min_notes": 200},
    "cnpp": {
        "model": {
            "layers": 2,
            "model_dim": 64,
            "heads": 4,
            "embed_dim": 64,
            "max_events": 512,
            "dropout": 0.1,
        },
        "pretrain": {"steps": 3000, "batch": 16, "lr": 1e-3, "n_songs": 1500, "mask_prob": 0.3},
        "finetune": {
            "steps": 3000,
            "batch": 16,
            "lr": 5e-4,
            "p_det": 0.4,
            "ramp_frac": 0.3,
            "field_loss_weight": 0.2,
        },
    },
}


def _deep_merge(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for k, v in extra.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_override(cfg: dict, dotted: str):
    """Apply one 'a.b.c=value' override in place (value parsed as JSON)."""
    if "=" not in dotted:
        raise ValueError(f"override must look like key.path=value, got {dotted!r}")
    path, value = dotted.split("=", 1)
    keys = path.strip().split(".")
    node = cfg
    for k in keys[:-1]:
        if k not in node or not isinstance(node[k], dict):
            node[k] = {}
        node = node[k]
    node[keys[-1]] = _parse_value(value.strip())


EVAL_SET_KEYS = {"n_songs", "detune"}


def _check_keys(node: dict, ref: dict, path: str):
    """Reject keys that `ref` (DEFAULTS) does not have, and objects where
    it has a plain value or the reverse.  New corpus.eval_sets entries must
    give exactly n_songs and detune."""
    for key, value in node.items():
        name = path + key
        if key not in ref:
            if path != "corpus.eval_sets.":
                raise ValueError(f"unknown config key {name}")
            if not (isinstance(value, dict) and set(value) == EVAL_SET_KEYS):
                raise ValueError(f"new eval set {name} must give exactly n_songs and detune")
        elif isinstance(ref[key], dict):
            if not isinstance(value, dict):
                raise ValueError(f"config key {name} must be an object")
            _check_keys(value, ref[key], name + ".")
        elif isinstance(value, dict):
            raise ValueError(f"unknown config key {name}.{next(iter(value), '')}")


def load_config(path=None, overrides: list[str] | None = None) -> dict:
    """DEFAULTS, merged with the JSON file at `path`, then the overrides;
    raises ValueError for a key that DEFAULTS does not have."""
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        doc = json.loads(Path(path).read_text())
        if not isinstance(doc, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
        if doc.get("version", CONFIG_VERSION) != CONFIG_VERSION:
            raise ValueError(f"unsupported config version in {path}")
        cfg = _deep_merge(cfg, doc)
    for item in overrides or []:
        apply_override(cfg, item)
    _check_keys(cfg, DEFAULTS, "")
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()

