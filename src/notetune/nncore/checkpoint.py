"""Versioned checkpoint container: one .npz holding config JSON + named tensors."""

from __future__ import annotations

import json
import os
import threading
import zipfile
from pathlib import Path

import numpy as np

from .tensor import Tensor

FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    pass


def save_npz(path, **arrays):
    """`np.savez` to a temporary file beside `path`, then `os.replace` it onto
    `path`.  A reader sees the old file or the whole new one, never a partial
    write, also when two processes write one path; a writer killed mid-write
    leaves only its temporary file behind."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_npz(path) -> dict[str, np.ndarray]:
    """Every array of an .npz file.  A file that is not a whole .npz
    (truncated, empty or garbage) raises ValueError naming it."""
    try:
        # our own handle: np.load leaves the one it opens unclosed when a
        # zip archive is cut short
        with open(path, "rb") as fh:
            zf = np.load(fh)
            return {k: zf[k] for k in zf.files}
    except (zipfile.BadZipFile, EOFError, ValueError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def save_checkpoint(path, params: dict[str, Tensor], config: dict, extra: dict | None = None):
    """Write parameters plus a JSON config blob; keys are sorted for stable bytes."""
    payload = {f"param/{k}": p.data for k, p in sorted(params.items())}
    meta = {"format_version": FORMAT_VERSION, "config": config, "extra": extra or {}}
    payload["__meta__"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    save_npz(path, **payload)


def load_checkpoint(path, params: dict[str, Tensor] | None = None) -> dict:
    """Load a checkpoint; if `params` is given, fill it in-place after
    validating the shape manifest."""
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    try:
        arrays = load_npz(path)
        meta = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
    except (ValueError, KeyError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path} ({exc})") from exc
    if meta.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version in {path}")
    stored = {k[len("param/") :]: v for k, v in arrays.items() if k.startswith("param/")}
    if params is not None:
        missing = sorted(set(params) - set(stored))
        surplus = sorted(set(stored) - set(params))
        if missing or surplus:
            raise CheckpointError(
                f"parameter manifest mismatch in {path}: missing={missing} surplus={surplus}"
            )
        for k, p in params.items():
            if stored[k].shape != p.data.shape:
                raise CheckpointError(
                    f"shape mismatch for {k!r} in {path}: "
                    f"stored {stored[k].shape}, expected {p.data.shape}"
                )
            p.data = stored[k].astype(np.float64)
    meta["params"] = stored
    return meta
