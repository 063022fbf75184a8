"""SHA-256 of every file a fixed-seed tiny run writes, as one JSON object.

    python3 tools/run_digest.py WORKDIR [--against PARENT.json]

Runs the full recipe on the tiny configuration of `tests/test_workflow.py`
(`TINY`, extraction on two pitch-tracking threads) into WORKDIR, then
`correct` on the `moderate_eval_000` take with its annotation into
WORKDIR/correct, and once more on a 44,100 Hz copy of that take (linear
interpolation, written with `write_wav` to WORKDIR/take_44100.wav), so the
resampling branch of `load_audio` is covered too, and on the first take
with the variants `no_cnpp` and `rounded_embed`, so each variant's decode
path is covered.  Then it runs `evaluate` on `moderate_eval` with every
variant, which writes the split's `metrics.json` (no stage of the recipe
does), and one dry-run `correct`, which writes a plan and no audio.
It prints {relative path: sha256} for every file under WORKDIR, sorted by
path.  Two checkouts that give the same bytes (same host, same BLAS thread
count) print the same object, so comparing the output of a change with that
of its parent checks that a refactor kept every checkpoint, report, plan and
WAV.  With `--against PARENT.json`, a saved output of the parent, it
prints instead each relative path whose hash differs or that only one side
has, then a count, and exits 1 if any path differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from notetune import features as ft  # noqa: E402
from notetune import workflow as wf  # noqa: E402
from notetune.config import load_config  # noqa: E402
from test_workflow import TINY  # noqa: E402


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("workdir", type=Path)
    parser.add_argument("--against", type=Path, help="a saved output of this script to compare with")
    args = parser.parse_args(argv)
    parent = json.loads(args.against.read_text()) if args.against else None
    workdir = args.workdir
    cfg = load_config(None, TINY)
    wf.run_full_recipe(cfg, workdir, jobs=2)
    data, ckpt = workdir / "data", workdir / "checkpoints"
    take, ann = data / "audio" / "moderate_eval_000.wav", data / "annotations" / "moderate_eval_000.json"
    wf.stage_correct(cfg, take, workdir / "correct" / "moderate_eval_000.wav", ckpt, annotations=ann)
    wav = ft.load_audio(take)
    hi_rate = workdir / "take_44100.wav"
    ft.write_wav(hi_rate, np.interp(np.arange(2 * len(wav)) / 2, np.arange(len(wav)), wav), 44100)
    wf.stage_correct(cfg, hi_rate, workdir / "correct" / "moderate_eval_000_44100.wav", ckpt, annotations=ann)
    for variant in ("no_cnpp", "rounded_embed"):
        wf.stage_correct(cfg, take, workdir / "correct" / f"moderate_eval_000_{variant}.wav", ckpt,
                         annotations=ann, variant=variant)
    wf.stage_evaluate(cfg, data, ckpt, "moderate_eval", variants=wf.VARIANTS)
    wf.stage_correct(cfg, take, workdir / "correct" / "moderate_eval_000_dry.wav", ckpt, annotations=ann,
                     dry_run=True)
    digests = {
        str(path.relative_to(workdir)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(workdir.rglob("*"))
        if path.is_file()
    }
    if parent is None:
        print(json.dumps(digests, indent=1))
        return 0
    differ = sorted(path for path in digests.keys() | parent.keys() if digests.get(path) != parent.get(path))
    for path in differ:
        print(path)
    print(f"{len(differ)} of {len(digests.keys() | parent.keys())} paths differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
