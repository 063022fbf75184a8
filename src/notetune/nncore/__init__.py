"""Minimal differentiable-computation substrate (float64, numpy)."""

from .tensor import (
    Tensor,
    no_grad,
    tlog,
    sigmoid,
    gelu,
    clip,
    concat,
    softmax,
    attention,
    embedding,
    cross_entropy_logits,
    gru_cell,
    gru_sequence,
)
from .layers import (
    MAX_EVENTS,
    no_init,
    init_rng,
    Module,
    Linear,
    Embedding,
    LayerNorm,
    GRU,
    LocalEncoder,
    LocalEncoderConfig,
    TransformerEncoder,
    TransformerConfig,
)
from .losses import focal_loss
from .optim import AdamW, train_step, DivergenceError
from .checkpoint import save_checkpoint, load_checkpoint, CheckpointError, save_npz, load_npz
