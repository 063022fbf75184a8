"""Seeded training steps of the frame models at the training batch shape
(B = 8, crop 256): the trained bytes are pinned, and the memory of one
segmenter step, and of two in the training loops' shape, is bounded.

The pinned digests are what float64 numpy with OpenBLAS gives on a 2-CPU
x86-64 host with the default BLAS thread count; another CPU count or BLAS
build can round some matmuls differently (see ROADMAP aim 2).
"""

import hashlib
import tracemalloc

import numpy as np

from notetune import nncore as nn
from notetune import spp as sp
from notetune.config import load_config
from notetune.segmenter import Segmenter
from notetune.workflow import _frame_model_cfg

B, CROP, STEPS = 8, 256, 3


def _optimizer(model, section: str, cfg: dict) -> nn.AdamW:
    tr = cfg[section]["train"]
    return nn.AdamW(model.params(), tr["lr"], tr["steps"], tr["warmup"], tr["weight_decay"])


def _batch(rng, n_mels: int) -> np.ndarray:
    return rng.normal(size=(B, CROP, 2 + n_mels))


def _segmenter_loss(model, cfg: dict, rng) -> nn.Tensor:
    x = _batch(rng, cfg["audio"]["n_mels"])
    hard = (rng.random((B, CROP)) < 0.05).astype(np.float64)
    soft = np.clip(hard + 0.5 * np.roll(hard, 1, axis=1) + 0.5 * np.roll(hard, -1, axis=1), 0, 1)
    probs = model.forward_batch(x)
    return nn.focal_loss(probs, soft, hard, **cfg["segmenter"]["focal"]) / B


def _spp_loss(model, cfg: dict, rng) -> nn.Tensor:
    lw = sp.SppLossWeights(**cfg["spp"]["loss"])
    logits = model.forward_batch(_batch(rng, cfg["audio"]["n_mels"]))
    loss = None
    for bi in range(B):
        for a in range(0, CROP - 32, 48):
            b = a + 32
            vidx = np.nonzero(rng.random(b - a) < 0.8)[0]
            w = nn.softmax(logits[bi, a:b][vidx], axis=-1)
            pitches = 60.0 + 0.2 * rng.normal(size=len(vidx))
            sigma = 0.1 * rng.random(len(vidx))
            total, _ = sp.spp_note_loss(w, pitches, 60.0, sigma, lw)
            loss = total if loss is None else loss + total
    return loss / (B * 5)


def _params_digest(model) -> str:
    h = hashlib.sha256()
    for name, p in sorted(model.params().items()):
        h.update(name.encode())
        h.update(p.data.tobytes())
    return h.hexdigest()


def _train(model_cls, section: str, loss_fn) -> str:
    cfg = load_config()
    model = model_cls(_frame_model_cfg(cfg, section))
    opt = _optimizer(model, section, cfg)
    rng = np.random.default_rng(2025)
    for _ in range(STEPS):
        nn.train_step(loss_fn(model, cfg, rng), opt)
    return _params_digest(model)


def test_segmenter_parameters_after_three_steps_are_pinned():
    digest = _train(Segmenter, "segmenter", _segmenter_loss)
    assert digest == "63213027baa1c31077184fa8c2f095404c72e3e2b83ce78030b0cc8af7ab9434"


def test_spp_parameters_after_three_steps_are_pinned():
    digest = _train(sp.StationaryPitchPredictor, "spp", _spp_loss)
    assert digest == "3dc4fe51c6ff1147509dce0b45c9efbbc2530996f19ad835b8887ea976f69778"


def test_segmenter_training_step_memory_is_bounded():
    # one forward, backward and AdamW step.  Zero-filled gradient buffers
    # kept for every graph node peaked at 216 MB; with intermediate
    # gradients dropped once used, 137 MB before the in-place kernels and
    # 134 MB with them; with the graph released during backward and Linear
    # one node, 102.6 MB; 92.8 MB before the graph nodes held only what
    # backward reads, and 72.3 MB since, as outputs that no backward reads
    # are freed in the forward pass; 69.1 MB with backward kernels handing
    # their gradient buffers over, and 53.0 MB since the attention nodes
    # keep two row statistics, not the [B, T, T] probabilities.  Two steps
    # whose caller keeps `loss` while the next forward runs, as the training
    # loops do, peaked at 237 MB while the graph outlived backward; now at
    # what one step takes
    cfg = load_config()
    model = Segmenter(_frame_model_cfg(cfg, "segmenter"))
    opt = _optimizer(model, "segmenter", cfg)
    rng = np.random.default_rng(7)
    nn.train_step(_segmenter_loss(model, cfg, rng), opt)  # AdamW state is allocated
    tracemalloc.start()
    try:
        nn.train_step(_segmenter_loss(model, cfg, rng), opt)
        one = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        for _ in range(2):
            loss = _segmenter_loss(model, cfg, rng)
            nn.train_step(loss, opt)
        two = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert one < 60e6, one / 1e6
    assert two < 1.02 * one, (two / 1e6, one / 1e6)
