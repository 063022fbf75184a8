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
    clip,
    reshape,
    swapaxes,
    getitem,
    concat,
    tsum,
    tmean,
    softmax,
    layer_norm,
    embedding,
    dropout,
    cross_entropy_logits,
    gru_cell,
    gru_sequence,
)
from .layers import (
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
    attention,
    band_mask,
    sinusoid_positions,
    uniform_init,
)
from .losses import focal_loss, PROB_EPS
from .optim import AdamW, OptimizerConfig, cosine_adamw, schedule_lr, train_step, DivergenceError
from .checkpoint import save_checkpoint, load_checkpoint, CheckpointError
from .gradcheck import finite_difference_check
