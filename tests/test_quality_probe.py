"""`tools/quality_probe.py --against`: the per-seed changes of every row from
a saved earlier output, read from two hand-written outputs with no recipe run."""

import importlib.util
import json
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parents[1] / "tools" / "quality_probe.py"
_spec = importlib.util.spec_from_file_location("quality_probe", _path)
quality_probe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(quality_probe)

SPLITS = ("moderate_eval", "high_eval")


def _output(rpa_by_seed: dict[int, dict], others: dict[int, dict] | None = None) -> str:
    """A probe's stdout: one line per seed, then a row line the reader skips.
    `others` gives a seed's ptr, onset_f1 and notes rows (`_others`)."""
    others = others or {}
    lines = [json.dumps({"seed": seed, "seconds": 90.0, "rpa": rpa, **others.get(seed, _others(0, 0, 0, 0))})
             for seed, rpa in rpa_by_seed.items()]
    rows = {"median": 1.0, "min": 1.0, "max": 1.0}
    return "\n".join(lines + [json.dumps({"row": "rpa full", "moderate_eval": rows, "high_eval": rows})]) + "\n"


def _rpa(full, no_augment, rounded_embed, no_cnpp) -> dict:
    cells = {"full": full, "no_augment": no_augment, "rounded_embed": rounded_embed, "no_cnpp": no_cnpp}
    return {variant: dict(zip(SPLITS, pair)) for variant, pair in cells.items()}


def _others(ptr, f1_moderate, f1_high, notes_60) -> dict:
    return {"ptr": {"spp": ptr, "weighted_median": 99.0},
            "onset_f1": {"moderate_eval": f1_moderate, "high_eval": f1_high},
            "notes": {"60 s": notes_60, "180 s": 300}}


def test_against_gives_the_mean_change_and_the_rises_over_the_shared_seeds():
    parent = _output({
        1: _rpa((40.0, 30.0), (45.0, 31.0), (43.0, 32.0), (77.0, 49.0)),
        2: _rpa((50.0, 34.0), (46.0, 27.0), (45.0, 32.0), (82.0, 56.0)),
    }, {1: _others(64.0, 0.8, 0.7, 95), 2: _others(66.0, 0.75, 0.72, 158)})
    change = _output({  # seed 3 has no parent cell and is left out
        1: _rpa((41.0, 29.0), (45.0, 33.0), (46.0, 32.0), (77.0, 49.0)),
        2: _rpa((47.0, 35.0), (48.0, 26.0), (45.5, 31.0), (82.0, 56.0)),
        3: _rpa((99.0, 99.0), (99.0, 99.0), (99.0, 99.0), (99.0, 99.0)),
    }, {1: _others(65.0, 0.8, 0.75, 90), 2: _others(66.5, 0.75, 0.7, 158), 3: _others(99.0, 1.0, 1.0, 1)})
    runs = list(quality_probe.read_runs(change).values())
    lines = quality_probe.against(runs, quality_probe.read_runs(parent))
    got = {(line["against"], line["column"]): (line["cells"], line["mean_change"], line["rose"]) for line in lines}
    assert got == {
        ("rpa full", "moderate_eval"): (2, -1.0, 1),  # +1, -3
        ("rpa full", "high_eval"): (2, 0.0, 1),  # -1, +1
        ("rpa no_augment", "moderate_eval"): (2, 1.0, 1),  # 0, +2
        ("rpa no_augment", "high_eval"): (2, 0.5, 1),  # +2, -1
        ("rpa rounded_embed", "moderate_eval"): (2, 1.75, 2),  # +3, +0.5
        ("rpa rounded_embed", "high_eval"): (2, -0.5, 0),  # 0, -1
        ("rpa no_cnpp", "moderate_eval"): (2, 0.0, 0),
        ("rpa no_cnpp", "high_eval"): (2, 0.0, 0),
        ("ptr", "spp"): (2, 0.75, 2),  # +1, +0.5
        ("ptr", "weighted_median"): (2, 0.0, 0),
        ("onset_f1", "moderate_eval"): (2, 0.0, 0),
        ("onset_f1", "high_eval"): (2, 0.015, 1),  # +0.05, -0.02
        ("notes", "60 s"): (2, -2.5, 0),  # -5, 0
        ("notes", "180 s"): (2, 0.0, 0),
        # the 12 cells of the three CNPP variants: sum +3.5
        ("rpa full + no_augment + rounded_embed", "all"): (12, 0.292, 6),
    }
    assert [line["against"] for line in lines[8:]] == ["ptr"] * 2 + ["onset_f1"] * 2 + ["notes"] * 2 + [
        "rpa full + no_augment + rounded_embed"]


def test_against_an_output_with_no_shared_seed_stops():
    parent = quality_probe.read_runs(_output({1: _rpa((1, 1), (1, 1), (1, 1), (1, 1))}))
    runs = list(quality_probe.read_runs(_output({2: _rpa((1, 1), (1, 1), (1, 1), (1, 1))})).values())
    with pytest.raises(SystemExit, match="no seed in common"):
        quality_probe.against(runs, parent)
