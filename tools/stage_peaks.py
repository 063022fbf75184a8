"""Traced memory of each step of one `correct` run.

    python3 tools/stage_peaks.py TAKE.wav CKPT_DIR [--annotations A] [--variant V]

Runs `workflow.stage_correct` once on TAKE.wav with the checkpoints in
CKPT_DIR and the default config (as `notetune correct` runs it without
--config or --set), under tracemalloc, writing its outputs to a temporary
directory.  Every public function that the benchmark tracer wraps
(`perfbench/spans.LAYERS`) is wrapped for the run; each call of one is a
step.  It prints one JSON line: for each step in call order, its name, its
nesting depth, the traced MB held when it started (`held_mb`) and its traced
peak above that (`peak_above_mb`); then the traced peak of the whole run,
the process's `ru_maxrss` in MB, and the SHA-256 of each file written.  The
second `features.load_audio` reads the take again for `shift_audio`, and the
second `spp.StationaryPitchPredictor.estimate` is the verify pass.

tracemalloc slows the run and adds its own memory to `ru_maxrss`; measure
resident memory without it for a figure to compare with the benchmark's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import tempfile
import tracemalloc
from pathlib import Path

# numpy loads these lazily, on a run's first use; imported here, their
# module objects (about 0.8 MB) are not traced as held by the run's steps
import numpy.fft  # noqa: F401
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from notetune import workflow as wf  # noqa: E402
from notetune.config import load_config  # noqa: E402
from spans import Tracer  # noqa: E402

MB = 1e6


class PeakTracer(Tracer):
    """The benchmark tracer's wrapping, with a traced-memory step per call
    in place of a timed span.  A step's peak includes its nested steps'."""

    def __init__(self):
        super().__init__()
        self.steps: list[dict] = []
        self._open: list[dict] = []
        self.peak = 0

    def fold_peak(self):
        # fold the peak since the last reset into the run and every open step
        peak = tracemalloc.get_traced_memory()[1]
        self.peak = max(self.peak, peak)
        for step in self._open:
            step["peak"] = max(step["peak"], peak)
        tracemalloc.reset_peak()

    def _wrap(self, fn, name):
        def call(*args, **kwargs):
            self.fold_peak()
            held = tracemalloc.get_traced_memory()[0]
            step = {"step": name, "depth": len(self._open), "held": held, "peak": held}
            self.steps.append(step)
            self._open.append(step)
            try:
                return fn(*args, **kwargs)
            finally:
                self.fold_peak()
                self._open.pop()

        return call

    def table(self) -> list[dict]:
        return [{"step": s["step"], "depth": s["depth"], "held_mb": round(s["held"] / MB, 1),
                 "peak_above_mb": round((s["peak"] - s["held"]) / MB, 1)} for s in self.steps]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("take", type=Path)
    parser.add_argument("ckpt_dir", type=Path)
    parser.add_argument("--annotations", type=Path)
    parser.add_argument("--variant", default="full", choices=wf.VARIANTS)
    args = parser.parse_args(argv)
    cfg = load_config()
    tracer = PeakTracer()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.wav"
        tracemalloc.start()
        try:
            with tracer.instrument():
                wf.stage_correct(cfg, args.take, out, args.ckpt_dir, annotations=args.annotations,
                                 variant=args.variant)
            tracer.fold_peak()
        finally:
            tracemalloc.stop()
        outputs = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(Path(tmp).iterdir())}
    print(json.dumps({
        "take": str(args.take), "variant": args.variant, "steps": tracer.table(),
        "traced_peak_mb": round(tracer.peak / MB, 1),
        "ru_maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "outputs": outputs,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
