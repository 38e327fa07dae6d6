"""Small trainable acoustic model: conv downsampler -> windowed context blocks -> linear head.

Forward and backward passes are exact manual implementations so every
parameter gradient can be audited against finite differences. Context
blocks are windowed feed-forward layers with residual connections rather
than attention; the training pipeline is agnostic to encoder internals.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Sequence

import numpy as np

CHECKPOINT_MAGIC = b"CPTN"
CHECKPOINT_VERSION = 1

Parameters = dict[str, np.ndarray]

_GELU_C = np.sqrt(2.0 / np.pi)


def _gelu(x: np.ndarray) -> np.ndarray:
    """Smooth tanh-form GELU; differentiable everywhere, so finite-difference audits hold."""
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * x**3)))


def _gelu_grad(x: np.ndarray) -> np.ndarray:
    inner = _GELU_C * (x + 0.044715 * x**3)
    t = np.tanh(inner)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C * (1.0 + 3 * 0.044715 * x**2)


class CheckpointError(ValueError):
    """Raised for unreadable or mismatched checkpoint files."""


class InputTooShortError(ValueError):
    """Input has fewer frames than one downsampled step requires."""


@dataclass(frozen=True)
class NetConfig:
    feature_dim: int
    vocab_size: int
    downsample_factor: int = 4
    conv_layers: int = 2
    conv_channels: int = 32
    context_layers: int = 2
    hidden_dim: int = 64
    context_window: int = 2
    dropout_rate: float = 0.0

    def __post_init__(self):
        dims = (self.feature_dim, self.vocab_size, self.downsample_factor, self.conv_layers,
                self.conv_channels, self.context_layers, self.hidden_dim)
        if any(d < 1 for d in dims):
            raise ValueError("all NetConfig dimensions must be >= 1")
        if self.context_window < 0:
            raise ValueError("context_window must be >= 0")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")

    def strides(self) -> list[int]:
        """Per-conv-layer strides; their product equals downsample_factor."""
        strides = []
        remaining = self.downsample_factor
        for i in range(self.conv_layers, 0, -1):
            root = remaining ** (1.0 / i)
            divisors = [d for d in range(1, remaining + 1) if remaining % d == 0]
            best = min(divisors, key=lambda d: (abs(d - root), d))
            strides.append(best)
            remaining //= best
        return strides

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "NetConfig":
        return cls(**data)


@dataclass
class ForwardCache:
    """Pre-activations and inputs retained for the backward pass of one utterance."""

    conv_inputs_len: list[int] = field(default_factory=list)
    conv_patches: list[np.ndarray] = field(default_factory=list)
    conv_pre: list[np.ndarray] = field(default_factory=list)
    ctx_windows: list[np.ndarray] = field(default_factory=list)
    ctx_pre: list[np.ndarray] = field(default_factory=list)
    ctx_masks: list[np.ndarray | None] = field(default_factory=list)
    head_input: np.ndarray | None = None


def float32_exact(arr: np.ndarray) -> np.ndarray:
    """Round to the nearest float32 value, returned as float64.

    Every tensor this package produces passes through this projection, so
    the float32 checkpoint format round-trips bit-exactly while arithmetic
    stays in float64.
    """
    return arr.astype(np.float32).astype(np.float64)


def parameter_shapes(cfg: NetConfig) -> dict[str, tuple[int, ...]]:
    """Named tensor shapes implied by a config, in initialization order."""
    shapes: dict[str, tuple[int, ...]] = {}
    in_dim = cfg.feature_dim
    strides = cfg.strides()
    for i, stride in enumerate(strides):
        out_dim = cfg.hidden_dim if i == len(strides) - 1 else cfg.conv_channels
        shapes[f"conv{i}_w"] = (out_dim, stride * in_dim)
        shapes[f"conv{i}_b"] = (out_dim,)
        in_dim = out_dim
    span = 2 * cfg.context_window + 1
    for j in range(cfg.context_layers):
        shapes[f"ctx{j}_w"] = (cfg.hidden_dim, span * cfg.hidden_dim)
        shapes[f"ctx{j}_b"] = (cfg.hidden_dim,)
    shapes["head_w"] = (cfg.vocab_size + 1, cfg.hidden_dim)
    shapes["head_b"] = (cfg.vocab_size + 1,)
    return shapes


def count_parameters(params: Parameters) -> int:
    return sum(v.size for v in params.values())


@dataclass(frozen=True)
class _Layout:
    """Per-config constants: conv strides, tensor shapes and each tensor's span in the flat vector."""

    strides: tuple[int, ...]
    shapes: dict[str, tuple[int, ...]]
    spans: dict[str, slice]
    size: int


@functools.lru_cache(maxsize=64)
def _layout(cfg: NetConfig) -> _Layout:
    shapes = parameter_shapes(cfg)
    spans, offset = {}, 0
    for name, shape in shapes.items():
        spans[name] = slice(offset, offset + math.prod(shape))
        offset = spans[name].stop
    return _Layout(tuple(cfg.strides()), shapes, spans, offset)


def flatten(cfg: NetConfig, params: Parameters) -> np.ndarray:
    """One float64 vector holding every tensor, in ``parameter_shapes`` order."""
    _check_params(params, cfg)
    return np.concatenate([params[name].ravel() for name in _layout(cfg).shapes], dtype=np.float64)


def unflatten(cfg: NetConfig, flat: np.ndarray) -> Parameters:
    """Named views into ``flat``, in ``parameter_shapes`` order; writes through them change ``flat``."""
    layout = _layout(cfg)
    if flat.shape != (layout.size,):
        raise ValueError(f"parameter vector shape {flat.shape} != expected ({layout.size},)")
    return {name: flat[span].reshape(layout.shapes[name]) for name, span in layout.spans.items()}


def tensor_name(cfg: NetConfig, index: int) -> str:
    """Name of the tensor holding element ``index`` (0 <= index < size) of the flat vector."""
    return next(name for name, span in _layout(cfg).spans.items() if index < span.stop)


def init_parameters(cfg: NetConfig, seed: int) -> Parameters:
    """Fan-in-scaled uniform weights, zero biases; deterministic given seed."""
    rng = np.random.default_rng(seed)
    params: Parameters = {}
    for name, shape in parameter_shapes(cfg).items():
        if name.endswith("_b"):
            params[name] = np.zeros(shape)
        else:
            bound = 1.0 / np.sqrt(shape[1])
            params[name] = float32_exact(rng.uniform(-bound, bound, size=shape))
    return params


def _check_params(params: Parameters, cfg: NetConfig) -> None:
    expected = _layout(cfg).shapes
    if set(params) != set(expected):
        raise ValueError(f"parameter names {sorted(params)} do not match config {sorted(expected)}")
    for name, shape in expected.items():
        if params[name].shape != shape:
            raise ValueError(f"parameter {name}: shape {params[name].shape} != expected {shape}")


def forward(
    params: Parameters,
    cfg: NetConfig,
    features: np.ndarray,
    train_mode: bool = False,
    seed: int | Sequence[int] = 0,
) -> tuple[np.ndarray, ForwardCache]:
    """Map T x D features to U x (V+1) logits, U = floor(T / downsample_factor).

    Dropout is applied inside the context blocks only when ``train_mode``;
    masks are drawn from ``seed`` and recorded in the cache, so a repeated
    call with the same seed reproduces the pass exactly. Eval mode is
    deterministic.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != cfg.feature_dim:
        raise ValueError(f"features must be T x {cfg.feature_dim}, got {x.shape}")
    if x.shape[0] < cfg.downsample_factor:
        raise InputTooShortError(
            f"{x.shape[0]} frames cannot fill one downsampled step of {cfg.downsample_factor}"
        )
    _check_params(params, cfg)

    cache = ForwardCache()
    rng = np.random.default_rng(seed) if train_mode and cfg.dropout_rate > 0 else None

    for i, stride in enumerate(_layout(cfg).strides):
        t_out = x.shape[0] // stride
        patches = x[: t_out * stride].reshape(t_out, stride * x.shape[1])
        pre = patches @ params[f"conv{i}_w"].T + params[f"conv{i}_b"]
        cache.conv_inputs_len.append(x.shape[0])
        cache.conv_patches.append(patches)
        cache.conv_pre.append(pre)
        x = _gelu(pre)

    w = cfg.context_window
    for j in range(cfg.context_layers):
        u = x.shape[0]
        padded = np.vstack([np.zeros((w, cfg.hidden_dim)), x, np.zeros((w, cfg.hidden_dim))])
        window = np.concatenate([padded[k : k + u] for k in range(2 * w + 1)], axis=1)
        pre = window @ params[f"ctx{j}_w"].T + params[f"ctx{j}_b"]
        act = _gelu(pre)
        if rng is not None:
            keep = 1.0 - cfg.dropout_rate
            mask = (rng.random(act.shape) < keep) / keep
            dropped = act * mask
        else:
            mask = None
            dropped = act
        cache.ctx_windows.append(window)
        cache.ctx_pre.append(pre)
        cache.ctx_masks.append(mask)
        x = x + dropped

    cache.head_input = x
    logits = x @ params["head_w"].T + params["head_b"]
    return logits, cache


def backward(params: Parameters, cfg: NetConfig, cache: ForwardCache, dlogits: np.ndarray) -> np.ndarray:
    """Gradient of sum(dlogits * logits) with respect to every parameter, as one flat vector.

    The vector is in ``parameter_shapes`` order, like :func:`flatten`;
    :func:`unflatten` gives named views into it.
    """
    dlogits = np.asarray(dlogits, dtype=np.float64)
    if cache.head_input is None or dlogits.shape != (cache.head_input.shape[0], cfg.vocab_size + 1):
        raise ValueError(f"dlogits shape {dlogits.shape} does not match the cached forward pass")
    flat = np.zeros(_layout(cfg).size)
    grads = unflatten(cfg, flat)

    grads["head_w"][...] = dlogits.T @ cache.head_input
    grads["head_b"][...] = dlogits.sum(axis=0)
    dx = dlogits @ params["head_w"]

    w = cfg.context_window
    for j in range(cfg.context_layers - 1, -1, -1):
        pre = cache.ctx_pre[j]
        mask = cache.ctx_masks[j]
        u = pre.shape[0]
        dact = dx * mask if mask is not None else dx
        dz = dact * _gelu_grad(pre)
        grads[f"ctx{j}_w"][...] = dz.T @ cache.ctx_windows[j]
        grads[f"ctx{j}_b"][...] = dz.sum(axis=0)
        dwindow = dz @ params[f"ctx{j}_w"]
        dpadded = np.zeros((u + 2 * w, cfg.hidden_dim))
        for k in range(2 * w + 1):
            dpadded[k : k + u] += dwindow[:, k * cfg.hidden_dim : (k + 1) * cfg.hidden_dim]
        # residual: gradient flows both around and through the block
        dx = dx + dpadded[w : w + u]

    strides = _layout(cfg).strides
    for i in range(cfg.conv_layers - 1, -1, -1):
        pre = cache.conv_pre[i]
        patches = cache.conv_patches[i]
        dz = dx * _gelu_grad(pre)
        grads[f"conv{i}_w"][...] = dz.T @ patches
        grads[f"conv{i}_b"][...] = dz.sum(axis=0)
        if i > 0:
            dpatches = dz @ params[f"conv{i}_w"]
            t_in = cache.conv_inputs_len[i]
            in_dim = patches.shape[1] // strides[i]
            dx_flat = dpatches.reshape(pre.shape[0] * strides[i], in_dim)
            dx = np.zeros((t_in, in_dim))
            dx[: dx_flat.shape[0]] = dx_flat  # frames cropped by the stride get zero gradient
    return flat


def save_checkpoint(params: Parameters, cfg: NetConfig, path: str | Path) -> None:
    """Write magic, version, the config as JSON, then named float32 tensors, via an atomic rename."""
    _check_params(params, cfg)
    cfg_blob = json.dumps(cfg.to_dict(), sort_keys=True).encode("utf-8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            fh.write(struct.pack("<I", len(cfg_blob)))
            fh.write(cfg_blob)
            for name in sorted(params):
                tensor = np.ascontiguousarray(params[name], dtype="<f4")
                name_bytes = name.encode("utf-8")
                fh.write(struct.pack("<I", len(name_bytes)))
                fh.write(name_bytes)
                fh.write(struct.pack("<I", tensor.ndim))
                fh.write(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
                fh.write(tensor.tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _read_exact(fh, n: int, path, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise CheckpointError(f"{path}: truncated checkpoint while reading {what}")
    return data


def load_checkpoint(path: str | Path, expect_cfg: NetConfig | None = None) -> tuple[Parameters, NetConfig]:
    """Read a checkpoint; fails on bad magic, version, truncation, or config mismatch."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: bad checkpoint magic {magic!r}")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, path, "version"))
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        (cfg_len,) = struct.unpack("<I", _read_exact(fh, 4, path, "config length"))
        try:
            cfg = NetConfig.from_dict(json.loads(_read_exact(fh, cfg_len, path, "config")))
        except (ValueError, TypeError) as exc:
            raise CheckpointError(f"{path}: invalid embedded config ({exc})") from None
        if expect_cfg is not None and cfg != expect_cfg:
            raise CheckpointError(f"{path}: checkpoint config {cfg} does not match expected {expect_cfg}")

        params: Parameters = {}
        while True:
            head = fh.read(4)
            if not head:
                break
            (name_len,) = struct.unpack("<I", head)
            name = _read_exact(fh, name_len, path, "tensor name").decode("utf-8")
            (ndim,) = struct.unpack("<I", _read_exact(fh, 4, path, "tensor rank"))
            shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, path, "tensor shape"))
            count = int(np.prod(shape, dtype=np.int64)) if ndim else 1
            data = _read_exact(fh, 4 * count, path, f"tensor {name}")
            params[name] = np.frombuffer(data, dtype="<f4").reshape(shape).astype(np.float64)
    try:
        _check_params(params, cfg)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    return params, cfg
