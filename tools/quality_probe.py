"""The quality probe: the full recipe at the benchmark fixture's size, per seed.

    python3 tools/quality_probe.py WORKDIR --seeds S [S ...] [--against PARENT.txt]

For each seed S, runs `workflow.run_full_recipe` into WORKDIR/seed_S with
`perfbench/fixture.FIXTURE_OVERRIDES` minus its four `n_songs=0` entries,
eval sets of 8 (spp_bench), 8 (moderate_eval), 8 (high_eval) and 2
(intune_eval) songs, `seed=S` and `jobs=2` (two pitch-tracking threads in
extraction).  It prints one JSON line per seed: the ablation RPA of each
variant on each split, the spp_bench PTR of each stationary-pitch
estimator, the segmenter's onset F1 on moderate_eval and high_eval
(`workflow._validate_segmenter`), the notes `correct` detects on the
benchmark's 60 s and 3-minute takes
(`perfbench/fixture.long_takes(7, ..., 60)` and `long_takes(8, ..., 180)`,
90 and 270 annotated notes, rendered once into WORKDIR/long_takes), and the
run's wall time.  Then it prints one JSON line per row (`rpa <variant>`,
`ptr`, `onset_f1`, `notes`), giving for each column the median and the
min-max over the seeds.

With `--against PARENT.txt`, a saved stdout of an earlier probe run, it
then prints one JSON line per row and column (each `rpa` row by split, then
`ptr`, `onset_f1` and `notes`): over the seeds both runs share, the mean
change of the per-seed cells and how many of them rose.  A last line pools
the `rpa` cells of every CNPP variant (`workflow.CNPP_VARIANTS`).

A WORKDIR/seed_S left by an earlier run is reused as the stages reuse their
outputs, so give a fresh WORKDIR to measure a change.

On a small host, run one probe at a time, and no benchmark beside it: each
process starts its own OpenBLAS threads and pitch-tracking threads, so on
2 vCPUs two probes side by side took 612-752 s per seed, against 66-91 s
for one alone (measured when extraction still nested a song pool over the
pitch-tracking pools).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from fixture import FIXTURE_OVERRIDES, long_takes  # noqa: E402
from notetune import features as ft  # noqa: E402
from notetune import workflow as wf  # noqa: E402
from notetune.config import load_config  # noqa: E402

EVAL_SONGS = {"spp_bench": 8, "moderate_eval": 8, "high_eval": 8, "intune_eval": 2}
LONG_TAKES = {"60 s": (7, 60.0), "180 s": (8, 180.0)}  # column: (take seed, seconds)
ROWS = ("ptr", "onset_f1", "notes")  # the per-seed rows after `rpa`


def probe_config(seed: int) -> dict:
    overrides = [o for o in FIXTURE_OVERRIDES if not o.startswith("corpus.eval_sets.")]
    overrides += [f"corpus.eval_sets.{name}.n_songs={n}" for name, n in EVAL_SONGS.items()]
    return load_config(overrides=overrides + [f"seed={seed}"])


def long_tracks(workdir: Path, cfg: dict) -> dict:
    """The track of each of LONG_TAKES, rendered into WORKDIR/long_takes."""
    tracks = {}
    for column, (take_seed, seconds) in LONG_TAKES.items():
        (take,) = long_takes(take_seed, workdir / "long_takes" / f"{take_seed}", seconds)
        tracks[column] = wf._extract_track(ft.load_audio(take["wav"], cfg["audio"]["sample_rate"]), cfg["audio"])
    return tracks


def run_seed(workdir: Path, seed: int, tracks: dict) -> dict:
    start = time.perf_counter()
    cfg = probe_config(seed)
    metrics = wf.run_full_recipe(cfg, workdir / f"seed_{seed}", jobs=2)["metrics"]
    data, ckpt = workdir / f"seed_{seed}" / "data", workdir / f"seed_{seed}" / "checkpoints"
    segmenter = wf.load_segmenter(ckpt, cfg)
    doc = wf.load_dataset(data)
    return {
        "seed": seed,
        "seconds": round(time.perf_counter() - start, 1),
        "rpa": metrics["ablation_rpa"],
        "ptr": {name: score["ptr_percent"] for name, score in metrics["spp_benchmark"].items()},
        "onset_f1": {split: wf._validate_segmenter(segmenter, wf.songs_by(data, doc, subset=split), cfg)["f1"]
                     for split in ("moderate_eval", "high_eval")},
        "notes": {column: len(wf._detect_notes(segmenter, track, cfg)) for column, track in tracks.items()},
    }


def spread(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


def read_runs(text: str) -> dict[int, dict]:
    """The per-seed lines of a saved probe output, by seed."""
    docs = [json.loads(line) for line in text.splitlines() if line.startswith("{")]
    return {doc["seed"]: doc for doc in docs if "seed" in doc}


def change(row: str, column: str, deltas: list[float]) -> dict:
    return {"against": row, "column": column, "cells": len(deltas),
            "mean_change": round(statistics.mean(deltas), 3), "rose": sum(d > 0 for d in deltas)}


def against(runs: list[dict], parent: dict[int, dict]) -> list[dict]:
    """Per `rpa` row and split, then per column of each of ROWS, the change
    of the per-seed cells from `parent` (`read_runs`) over the shared seeds;
    then the CNPP variants' `rpa` cells pooled."""
    shared = [(run, parent[run["seed"]]) for run in runs if run["seed"] in parent]
    if not shared:
        raise SystemExit("no seed in common with the earlier run")
    cells = {f"rpa {variant}": [(new["rpa"][variant], old["rpa"][variant]) for new, old in shared]
             for variant in wf.VARIANTS}
    cells.update({row: [(new[row], old[row]) for new, old in shared] for row in ROWS})
    cnpp_rows = {f"rpa {variant}" for variant in wf.CNPP_VARIANTS}
    lines, pooled = [], []
    for row, pairs in cells.items():
        for column in pairs[0][0]:
            deltas = [new[column] - old[column] for new, old in pairs]
            lines.append(change(row, column, deltas))
            pooled += deltas if row in cnpp_rows else []
    return lines + [change("rpa " + " + ".join(wf.CNPP_VARIANTS), "all", pooled)]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("workdir", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--against", type=Path, help="a saved stdout of an earlier probe run to compare with")
    args = parser.parse_args(argv)
    parent = read_runs(args.against.read_text()) if args.against else None
    tracks = long_tracks(args.workdir, probe_config(args.seeds[0]))
    runs = []
    for seed in args.seeds:
        runs.append(run_seed(args.workdir, seed, tracks))
        print(json.dumps(runs[-1]), flush=True)
    rows = {f"rpa {variant}": [run["rpa"][variant] for run in runs] for variant in wf.VARIANTS}
    for row in ROWS:
        rows[row] = [run[row] for run in runs]
    for row, cells in rows.items():
        print(json.dumps({"row": row, **{col: spread([c[col] for c in cells]) for col in cells[0]}}))
    for line in against(runs, parent) if parent is not None else []:
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
