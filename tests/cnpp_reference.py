"""The CNPP that `notetune.symbolic.Cnpp` replaced, kept verbatim as the
reference its function class must match.  It embedded each field at
`embed_dim`, concatenated the 8 embeddings, projected them to `model_dim`
with `down`, and after the encoder projected back with `up`, each field head
reading its own `embed_dim` slice.  Both projections are linear, so folding
them into the field tables and the heads gives the same logits
(`tests/test_symbolic.py`)."""

from dataclasses import dataclass

import numpy as np

from notetune import nncore as nn
from notetune.symbolic import (
    FIELD_NAMES,
    FIELD_VOCABS,
    PITCH_MASK,
    PITCH_TOKENS,
    interp_pitch_embedding,
    round_pitch,
)


@dataclass
class CnppConfig(nn.TransformerConfig):
    """The encoder's shape plus the width of each field embedding."""

    embed_dim: int = 64


class Cnpp(nn.Module):
    """Masked-context note pitch predictor over octuple events."""

    def __init__(self, cfg: CnppConfig):
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed + 11)
        E = cfg.embed_dim
        # attributes, not dicts: params() collects Module attributes only
        for name in FIELD_NAMES:
            setattr(self, f"embed_{name}", nn.Embedding(rng, FIELD_VOCABS[name], E))
        self.down = nn.Linear(rng, 8 * E, cfg.model_dim)
        self.encoder = nn.TransformerEncoder(cfg)
        self.up = nn.Linear(rng, cfg.model_dim, 8 * E)
        for name in FIELD_NAMES:
            vocab = PITCH_TOKENS if name == "pitch" else FIELD_VOCABS[name]
            setattr(self, f"head_{name}", nn.Linear(rng, E, vocab))

    def forward(
        self,
        fields: dict[str, np.ndarray],
        pitch_values: np.ndarray,
        pad_mask: np.ndarray,
        rounded: bool,
        mask_positions: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
    ) -> dict[str, nn.Tensor]:
        """Per-field logits for a padded batch.

        fields: int arrays [B, N] for the 7 discrete fields; pitch_values
        [B, N] float; pad_mask [B, N] 1=real.  Pitches enter through
        interpolated embeddings, or, when `rounded`, through the nearest row.
        mask_positions (bool [B, N]) replaces pitch inputs with the MASK row.
        """
        E = self.cfg.embed_dim
        parts = []
        for name in FIELD_NAMES:
            if name == "pitch":
                if rounded:
                    emb = self.embed_pitch(round_pitch(pitch_values))
                else:
                    emb = interp_pitch_embedding(self.embed_pitch.table, pitch_values)
                if mask_positions is not None and mask_positions.any():
                    mask_row = nn.embedding(
                        self.embed_pitch.table,
                        np.full(pitch_values.shape, PITCH_MASK, dtype=np.int64),
                    )
                    sel = mask_positions.astype(np.float64)[..., None]
                    emb = emb * (1.0 - sel) + mask_row * sel
            else:
                emb = getattr(self, f"embed_{name}")(fields[name])
            parts.append(emb)
        x = self.down(nn.concat(parts, axis=-1))
        h = self.encoder(x, pad_mask=pad_mask, rng=rng)
        u = self.up(h)
        out = {}
        for k, name in enumerate(FIELD_NAMES):
            out[name] = getattr(self, f"head_{name}")(u[:, :, k * E : (k + 1) * E])
        return out
