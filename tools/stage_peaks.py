"""Traced memory of each step of one `correct` run, or of one training step.

    python3 tools/stage_peaks.py TAKE.wav CKPT_DIR [--annotations A] [--variant V]
    python3 tools/stage_peaks.py --train-step {segmenter,spp}

Runs `workflow.stage_correct` once on TAKE.wav with the checkpoints in
CKPT_DIR and the default config (as `notetune correct` runs it without
--config or --set), under tracemalloc, writing its outputs to a temporary
directory.  Every public function that the benchmark tracer wraps
(`perfbench/spans.LAYERS`) is wrapped for the run, and so is
`workflow._write_shifted`, which streams the shifted take to the files
that become the output WAV and the verify pass's input; each call of one
is a step.  It prints one JSON line: for each step in
call order, its name, its nesting depth, the traced MB held when it started
(`held_mb`) and its traced peak above that (`peak_above_mb`); then the
traced peak of the whole run, the process's `ru_maxrss` in MB, and the
SHA-256 of each file written.  `stage_correct` reads the take through a
block reader, so no `features.load_audio` or `corrector.shift_audio` step
appears; the second pair of `features.track_pitch` and
`features.mel_spectrogram` steps tracks the corrected samples, and the
second `spp.StationaryPitchPredictor.estimate` is the verify pass.

With --train-step, it builds the segmenter or the SPP from the default
config and runs training steps (forward, backward, AdamW) on random inputs
of the training batch shape: the config's batch, crops of
`frontend.WINDOW` frames.  One warm-up step allocates the AdamW state; the
next is traced.  It prints one JSON line: the traced MB the step holds once
its forward has run (`held_after_forward_mb`: the graph and its arrays),
the step's traced peak (`traced_peak_mb`), and the lines of `src/` that
allocated the most of what is held after the forward (`top_lines`).

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
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# numpy loads these lazily, on a run's first use; imported here, their
# module objects (about 0.8 MB) are not traced as held by the run's steps
import numpy.fft  # noqa: F401
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]

from notetune import nncore as nn  # noqa: E402
from notetune import segmenter as seg  # noqa: E402
from notetune import spp as sp  # noqa: E402
from notetune import workflow as wf  # noqa: E402
from notetune.config import load_config  # noqa: E402
from notetune.frontend import WINDOW  # noqa: E402
from spans import Tracer  # noqa: E402

MB = 1e6
TOP_LINES = 8


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

    @contextmanager
    def instrument(self):
        raw = wf._write_shifted
        wf._write_shifted = self._wrap(raw, "workflow._write_shifted")
        try:
            with super().instrument():
                yield self
        finally:
            wf._write_shifted = raw

    def table(self) -> list[dict]:
        return [{"step": s["step"], "depth": s["depth"], "held_mb": round(s["held"] / MB, 1),
                 "peak_above_mb": round((s["peak"] - s["held"]) / MB, 1)} for s in self.steps]


def _segmenter_loss(model, cfg: dict, x: np.ndarray, rng) -> nn.Tensor:
    """The training loop's focal loss, on onsets at random frames."""
    hard = (rng.random(x.shape[:2]) < 0.05).astype(np.float64)
    soft = np.stack([seg.soften_labels(row, cfg["segmenter"]["soft_sigma"]) for row in hard])
    return nn.focal_loss(model.forward_batch(x), soft, hard, **cfg["segmenter"]["focal"]) / len(x)


def _spp_loss(model, cfg: dict, x: np.ndarray, rng) -> nn.Tensor:
    """The training loop's mean note loss, over 32-frame notes every 48
    frames of each row, all frames voiced."""
    lw = sp.SppLossWeights(**cfg["spp"]["loss"])
    logits = model.forward_batch(x)
    losses = []
    for bi in range(len(x)):
        for a in range(0, x.shape[1] - 32, 48):
            pitches = 60.0 + 0.2 * rng.normal(size=32)
            total, _ = sp.spp_note_loss(nn.softmax(logits[bi, a : a + 32], axis=-1), pitches, 60.0,
                                        0.1 * rng.random(32), lw)
            losses.append(total)
    return sum(losses[1:], losses[0]) / len(losses)


TRAINERS = {"segmenter": (seg.Segmenter, _segmenter_loss), "spp": (sp.StationaryPitchPredictor, _spp_loss)}


def train_step_peaks(name: str) -> dict:
    """One warm-up and one traced training step of the frame model `name`."""
    cfg = load_config()
    model_cls, loss_fn = TRAINERS[name]
    model = model_cls(wf._frame_model_cfg(cfg, name))
    tr = cfg[name]["train"]
    opt = nn.AdamW(model.params(), tr["lr"], tr["steps"], tr["warmup"], tr["weight_decay"])
    rng = np.random.default_rng(cfg["seed"])
    batches = [rng.normal(size=(tr["batch"], WINDOW, 2 + cfg["audio"]["n_mels"])) for _ in range(2)]
    nn.train_step(loss_fn(model, cfg, batches[0], rng), opt)
    tracemalloc.start()
    try:
        loss = loss_fn(model, cfg, batches[1], rng)
        held, peak = tracemalloc.get_traced_memory()
        # the snapshot's own objects are freed before the peak is traced on
        snapshot = tracemalloc.take_snapshot().filter_traces([tracemalloc.Filter(True, str(SRC / "*"))])
        stats = snapshot.statistics("lineno")[:TOP_LINES]
        top = [{"line": f"{Path(s.traceback[0].filename).relative_to(SRC)}:{s.traceback[0].lineno}",
                "mb": round(s.size / MB, 1)} for s in stats]
        del snapshot, stats
        tracemalloc.reset_peak()
        nn.train_step(loss, opt)
        peak = max(peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return {"train_step": name, "batch": tr["batch"], "crop": WINDOW,
            "held_after_forward_mb": round(held / MB, 1), "traced_peak_mb": round(peak / MB, 1),
            "top_lines": top}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("take", type=Path, nargs="?")
    parser.add_argument("ckpt_dir", type=Path, nargs="?")
    parser.add_argument("--annotations", type=Path)
    parser.add_argument("--variant", default="full", choices=wf.VARIANTS)
    parser.add_argument("--train-step", choices=sorted(TRAINERS))
    args = parser.parse_args(argv)
    if args.train_step is not None:
        print(json.dumps(train_step_peaks(args.train_step)))
        return 0
    if args.ckpt_dir is None:
        parser.error("TAKE.wav and CKPT_DIR are required without --train-step")
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
