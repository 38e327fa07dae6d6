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


# x * x * x rather than x**3: numpy's float power calls pow() per element, ~40x slower
def _gelu(x: np.ndarray) -> np.ndarray:
    """Smooth tanh-form GELU; differentiable everywhere, so finite-difference audits hold."""
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * (x * x * x))))


def _gelu_grad(x: np.ndarray) -> np.ndarray:
    x2 = x * x
    t = np.tanh(_GELU_C * (x + 0.044715 * (x2 * x)))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C * (1.0 + 3 * 0.044715 * x2)


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
    """Inputs and pre-activations of one packed forward pass, retained for the backward pass.

    The packed rows are the members' frames back to back, in member order.
    """

    lengths: np.ndarray | None = None  # output frames U_b of each member
    conv_rows: list[np.ndarray] = field(default_factory=list)  # input rows each conv layer keeps
    conv_patches: list[np.ndarray] = field(default_factory=list)
    conv_pre: list[np.ndarray] = field(default_factory=list)
    ctx_rows: np.ndarray | None = None  # row of each packed frame in the zero-gapped copy
    ctx_gapped: list[np.ndarray] = field(default_factory=list)  # each context layer's zero-gapped input
    ctx_pre: list[np.ndarray] = field(default_factory=list)
    ctx_masks: list[np.ndarray | None] = field(default_factory=list)
    head_input: np.ndarray | None = None

    @property
    def valid(self) -> np.ndarray:
        """B x max(U_b) mask of the padded logit rows that hold a member's frame."""
        return np.arange(self.lengths.max()) < self.lengths[:, None]


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


def _leading_rows(lengths: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Packed-row index of the first ``keep[b]`` rows of each member b, where member b has ``lengths[b]`` rows."""
    starts = np.cumsum(lengths) - lengths
    return np.arange(keep.sum()) + np.repeat(starts - (np.cumsum(keep) - keep), keep)


def _windows(gapped: np.ndarray, rows: np.ndarray, w: int) -> np.ndarray:
    """Context window of each row in ``rows``: gapped rows r - w .. r + w, side by side."""
    return gapped[rows[:, None] + np.arange(-w, w + 1)].reshape(len(rows), -1)


def forward_batch(
    params: Parameters,
    cfg: NetConfig,
    features: Sequence[np.ndarray],
    train_mode: bool = False,
    seeds: Sequence[int | Sequence[int]] | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Map B utterances of T_b x D features to B x max(U_b) x (V+1) logits, U_b = floor(T_b / downsample_factor).

    The members run as one packed (sum of T_b) x D float64 array. Each conv
    layer keeps only the rows of each member that fill its stride, and the
    context windows read a copy of the rows with ``context_window`` zero
    rows before, between and after the members, so no frame sees another
    utterance. Logit rows past a member's U_b are zero; ``cache.lengths``
    holds the U_b. In ``train_mode``, member b's dropout masks are drawn
    from ``seeds[b]`` (default 0) and recorded in the cache, so member b
    gets exactly the pass of ``forward(..., seed=seeds[b])``. Eval mode is
    deterministic.
    """
    feats = [np.asarray(f) for f in features]
    if not feats:
        raise ValueError("a batch needs at least one utterance")
    for f in feats:
        if f.ndim != 2 or f.shape[1] != cfg.feature_dim:
            raise ValueError(f"features must be T x {cfg.feature_dim}, got {f.shape}")
    n = np.array([f.shape[0] for f in feats])
    if n.min() < cfg.downsample_factor:
        raise InputTooShortError(
            f"{n.min()} frames cannot fill one downsampled step of {cfg.downsample_factor}"
        )
    _check_params(params, cfg)
    x = np.concatenate(feats, dtype=np.float64)

    cache = ForwardCache()
    for i, stride in enumerate(_layout(cfg).strides):
        t_out = n // stride
        rows = _leading_rows(n, t_out * stride)
        patches = x[rows].reshape(-1, stride * x.shape[1])
        pre = patches @ params[f"conv{i}_w"].T + params[f"conv{i}_b"]
        cache.conv_rows.append(rows)
        cache.conv_patches.append(patches)
        cache.conv_pre.append(pre)
        x = _gelu(pre)
        n = t_out
    cache.lengths = n

    w = cfg.context_window
    rows = np.arange(n.sum()) + w * np.repeat(np.arange(1, len(n) + 1), n)
    cache.ctx_rows = rows
    rngs = None
    if train_mode and cfg.dropout_rate > 0:
        rngs = [np.random.default_rng(s) for s in (seeds if seeds is not None else [0] * len(n))]
        if len(rngs) != len(n):
            raise ValueError(f"{len(n)} utterances need {len(n)} seeds, got {len(rngs)}")
    for j in range(cfg.context_layers):
        gapped = np.zeros((rows[-1] + w + 1, cfg.hidden_dim))
        gapped[rows] = x
        pre = _windows(gapped, rows, w) @ params[f"ctx{j}_w"].T + params[f"ctx{j}_b"]
        act = _gelu(pre)
        if rngs is not None:
            keep = 1.0 - cfg.dropout_rate
            draws = np.concatenate([rng.random((u, cfg.hidden_dim)) for rng, u in zip(rngs, n)])
            mask = (draws < keep) / keep
            dropped = act * mask
        else:
            mask = None
            dropped = act
        cache.ctx_gapped.append(gapped)
        cache.ctx_pre.append(pre)
        cache.ctx_masks.append(mask)
        x = x + dropped

    cache.head_input = x
    logits = np.zeros((len(n), n.max(), cfg.vocab_size + 1))
    logits[cache.valid] = x @ params["head_w"].T + params["head_b"]
    return logits, cache


def forward(
    params: Parameters,
    cfg: NetConfig,
    features: np.ndarray,
    train_mode: bool = False,
    seed: int | Sequence[int] = 0,
) -> tuple[np.ndarray, ForwardCache]:
    """Map T x D features to U x (V+1) logits, U = floor(T / downsample_factor).

    A batch of one through :func:`forward_batch`: dropout (``train_mode``
    only) draws its masks from ``seed``, so a repeated call with the same
    seed reproduces the pass exactly.
    """
    logits, cache = forward_batch(params, cfg, [features], train_mode, [seed])
    return logits[0], cache


def backward_batch(params: Parameters, cfg: NetConfig, cache: ForwardCache, dlogits: np.ndarray) -> np.ndarray:
    """Gradient of sum(dlogits * logits) over a :func:`forward_batch` pass, as one flat vector.

    ``dlogits`` is B x max(U_b) x (V+1) like the logits; rows past a
    member's U_b are ignored. The vector is the sum over the members, in
    ``parameter_shapes`` order like :func:`flatten`; :func:`unflatten`
    gives named views into it.
    """
    dlogits = np.asarray(dlogits, dtype=np.float64)
    valid = cache.valid
    if cache.head_input is None or dlogits.shape != valid.shape + (cfg.vocab_size + 1,):
        raise ValueError(f"dlogits shape {dlogits.shape} does not match the cached forward pass")
    flat = np.zeros(_layout(cfg).size)
    grads = unflatten(cfg, flat)

    dlogits = dlogits[valid]
    grads["head_w"][...] = dlogits.T @ cache.head_input
    grads["head_b"][...] = dlogits.sum(axis=0)
    dx = dlogits @ params["head_w"]

    w = cfg.context_window
    rows = cache.ctx_rows
    span = 2 * w + 1
    for j in range(cfg.context_layers - 1, -1, -1):
        pre = cache.ctx_pre[j]
        mask = cache.ctx_masks[j]
        dact = dx * mask if mask is not None else dx
        dz = dact * _gelu_grad(pre)
        grads[f"ctx{j}_w"][...] = dz.T @ _windows(cache.ctx_gapped[j], rows, w)
        grads[f"ctx{j}_b"][...] = dz.sum(axis=0)
        # window gradients of every gapped row r in [w, end - w), whose tap k read row r - w + k
        dwindow = np.zeros((rows[-1] + 1 - w, span, cfg.hidden_dim))
        dwindow[rows - w] = (dz @ params[f"ctx{j}_w"]).reshape(len(rows), span, cfg.hidden_dim)
        dgapped = np.zeros((rows[-1] + w + 1, cfg.hidden_dim))
        for k in range(span):
            dgapped[k : k + len(dwindow)] += dwindow[:, k]
        # residual: gradient flows both around and through the block
        dx = dx + dgapped[rows]

    for i in range(cfg.conv_layers - 1, -1, -1):
        pre = cache.conv_pre[i]
        patches = cache.conv_patches[i]
        dz = dx * _gelu_grad(pre)
        grads[f"conv{i}_w"][...] = dz.T @ patches
        grads[f"conv{i}_b"][...] = dz.sum(axis=0)
        if i > 0:
            rows = cache.conv_rows[i]
            dx = np.zeros(cache.conv_pre[i - 1].shape)  # this layer's input
            dx[rows] = (dz @ params[f"conv{i}_w"]).reshape(len(rows), -1)  # cropped frames get zero gradient
    return flat


def backward(params: Parameters, cfg: NetConfig, cache: ForwardCache, dlogits: np.ndarray) -> np.ndarray:
    """Gradient of sum(dlogits * logits) over a :func:`forward` pass, as one flat vector.

    ``dlogits`` is U x (V+1); this is a batch of one through :func:`backward_batch`.
    """
    return backward_batch(params, cfg, cache, np.asarray(dlogits, dtype=np.float64)[None])


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
