"""Minimal differentiable-computation substrate (float64, numpy)."""

from .tensor import (
    Tensor,
    no_grad,
    add,
    mul,
    matmul,
    tlog,
    sigmoid,
    gelu,
    geglu,
    clip,
    reshape,
    swapaxes,
    getitem,
    concat,
    tsum,
    tmean,
    softmax,
    layer_norm,
    attention,
    embedding,
    dropout,
    cross_entropy_logits,
    gru_cell,
    gru_sequence,
)
from .layers import (
    MAX_EVENTS,
    Module,
    Linear,
    Embedding,
    LayerNorm,
    GRU,
    LocalEncoder,
    LocalEncoderConfig,
    TransformerEncoder,
    TransformerConfig,
    MultiHeadAttention,
    sinusoid_positions,
    uniform_init,
)
from .losses import focal_loss, PROB_EPS
from .optim import AdamW, train_step, DivergenceError
from .checkpoint import save_checkpoint, load_checkpoint, CheckpointError, save_npz, load_npz
from .gradcheck import finite_difference_check
