"""SHA-256 of every file a fixed-seed tiny run writes, as one JSON object.

    python3 tools/run_digest.py WORKDIR

Runs the full recipe on the tiny configuration of `tests/test_workflow.py`
(`TINY`, two extract jobs) into WORKDIR, then `correct` on the
`moderate_eval_000` take with its annotation into WORKDIR/correct, and once
more on a 44,100 Hz copy of that take (linear interpolation, written with
`write_wav` to WORKDIR/take_44100.wav), so the resampling branch of
`load_audio` is covered too, and on the first take with the variants
`no_cnpp` and `rounded_embed`, so each variant's decode path is covered.
It prints {relative path: sha256} for every file under WORKDIR, sorted by
path.  Two checkouts that give the same bytes (same host, same BLAS thread
count) print the same object, so comparing the output of a change with that
of its parent checks that a refactor kept every checkpoint, report, plan and
WAV.
"""

from __future__ import annotations

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
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    workdir = Path(argv[0])
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
    digests = {
        str(path.relative_to(workdir)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(workdir.rglob("*"))
        if path.is_file()
    }
    print(json.dumps(digests, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
