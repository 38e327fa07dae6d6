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
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .fieldcheck import as_record, check_field

CHECKPOINT_MAGIC = b"CPTN"
CHECKPOINT_VERSION = 3

# a Python float, so it scales a float32 array in float32 (a NumPy float64 scalar would promote)
_GELU_C = math.sqrt(2.0 / math.pi)


# The expressions are evaluated operation by operation in the order written, so
# the values are those of the one-line forms; x * x * x rather than x**3, as
# numpy's float power calls pow() per element, ~40x slower.
def _gelu(x: np.ndarray, with_slope: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Smooth tanh-form GELU 0.5 * x * (1 + t), t = tanh(c * (x + 0.044715 * x^3)), and, if asked, its slope.

    The slope is 0.5 * (1 + t) + 0.5 * x * (1 - t^2) * c * (1 + 3 * 0.044715 * x^2),
    or None. Differentiable everywhere, so finite-difference audits hold; t
    stays inside, and the output is written over it. Reads x, never writes it.
    """
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    slope = None
    if with_slope:
        x2 = x * x
        x2 *= 3 * 0.044715
        x2 += 1.0
        slope = t * t
        np.subtract(1.0, slope, out=slope)
        slope *= 0.5 * x
        slope *= _GELU_C
        slope *= x2
        np.add(t, 1.0, out=x2)
        x2 *= 0.5
        slope += x2
    t += 1.0
    t *= 0.5 * x
    return t, slope


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

    def __post_init__(self):
        for f in fields(self):
            check_field(f.name, getattr(self, f.name), f.type)
        dims = (self.feature_dim, self.vocab_size, self.downsample_factor, self.conv_layers,
                self.conv_channels, self.context_layers, self.hidden_dim)
        if any(d < 1 for d in dims):
            raise ValueError("all NetConfig dimensions must be >= 1")
        if self.context_window < 0:
            raise ValueError("context_window must be >= 0")

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


@dataclass
class ForwardCache:
    """Inputs, GELU slopes and dropout masks of one packed forward pass, retained for the backward pass.

    The packed rows are the members' kept frames back to back, in member
    order. The backward pass reads these arrays and never writes them.
    """

    lengths: np.ndarray  # output frames U_b of each member
    valid: np.ndarray  # B x max(U_b) mask of the padded logit rows that hold a member's frame
    conv_patches: list[np.ndarray] = field(default_factory=list)  # each conv layer's input, one patch per row
    conv_slope: list[np.ndarray] = field(default_factory=list)  # each conv layer's GELU slope at its pre-activation
    window_rows: np.ndarray | None = None  # gapped rows of each packed frame's context window
    ctx_windows: list[np.ndarray] = field(default_factory=list)  # each context layer's R x span*H window matrix
    ctx_slope: list[np.ndarray] = field(default_factory=list)  # each context layer's GELU slope at its pre-activation
    ctx_masks: list[np.ndarray | None] = field(default_factory=list)
    head_input: np.ndarray | None = None


def float32_exact(arr: np.ndarray) -> np.ndarray:
    """Round to the nearest float32 value, returned as float64.

    Initial weights pass through this projection, and training keeps its
    float64 master vector on float32 values, so every parameter is exact
    in float32: the network computes in float32 on a copy without loss, and
    the float32 checkpoint format round-trips bit-exactly.
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


@dataclass(frozen=True)
class _Layout:
    """Per-config constants: conv strides, tensor shapes and each tensor's span in the flat vector."""

    strides: tuple[int, ...]
    shapes: dict[str, tuple[int, ...]]
    spans: dict[str, slice]
    size: int

    def check(self, flat: np.ndarray) -> None:
        if flat.shape != (self.size,):
            raise ValueError(f"parameter vector shape {flat.shape} != expected ({self.size},)")

    def view(self, flat: np.ndarray, name: str) -> np.ndarray:
        """Tensor ``name`` as a view into the flat vector ``flat``."""
        return flat[self.spans[name]].reshape(self.shapes[name])


@functools.lru_cache(maxsize=64)
def _layout(cfg: NetConfig) -> _Layout:
    shapes = parameter_shapes(cfg)
    spans, offset = {}, 0
    for name, shape in shapes.items():
        spans[name] = slice(offset, offset + math.prod(shape))
        offset = spans[name].stop
    return _Layout(tuple(cfg.strides()), shapes, spans, offset)


def unflatten(cfg: NetConfig, flat: np.ndarray) -> dict[str, np.ndarray]:
    """Named views into ``flat``, in ``parameter_shapes`` order; writes through them change ``flat``."""
    layout = _layout(cfg)
    layout.check(flat)
    return {name: layout.view(flat, name) for name in layout.spans}


def tensor_name(cfg: NetConfig, index: int) -> str:
    """Name of the tensor holding element ``index`` (0 <= index < size) of the flat vector."""
    return next(name for name, span in _layout(cfg).spans.items() if index < span.stop)


def init_parameters(cfg: NetConfig, seed: int) -> np.ndarray:
    """One float64 parameter vector: fan-in-scaled uniform weights, zero biases; deterministic given seed.

    Each weight tensor is drawn in ``parameter_shapes`` order and rounded
    through :func:`float32_exact`; :func:`unflatten` gives named views.
    """
    rng = np.random.default_rng(seed)
    theta = np.zeros(_layout(cfg).size)
    for name, tensor in unflatten(cfg, theta).items():
        if not name.endswith("_b"):
            bound = 1.0 / np.sqrt(tensor.shape[1])
            tensor[...] = float32_exact(rng.uniform(-bound, bound, size=tensor.shape))
    return theta


def forward_batch(
    theta: np.ndarray,
    cfg: NetConfig,
    features: Sequence[np.ndarray],
    dropout_rate: float = 0.0,
    seeds: Sequence[int | Sequence[int]] | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Map B utterances of T_b x D features to B x max(U_b) x (V+1) logits, U_b = floor(T_b / downsample_factor).

    ``theta`` is the flat parameter vector, and the arithmetic runs in its
    dtype: float32 in training, float64 for the oracle audits. Only each
    member's first U_b * downsample_factor frames reach the network; the
    rest cannot fill an output frame. The kept frames run as one packed
    array, so every conv stride divides every member and a layer's
    patches are a reshape of its input. The context windows read a copy of
    the rows with ``context_window`` zero rows before, between and after
    the members, so no frame sees another utterance. Logit rows past a
    member's U_b are zero; ``cache.lengths`` holds the U_b. With
    ``dropout_rate`` above 0, member b's dropout masks are drawn from
    ``seeds[b]`` and recorded in the cache, so they do not depend on the
    rest of its batch; its float32 logits can, in their last bits, because
    the packed matrix products round differently with the batch. At rate 0
    the pass is deterministic and ``seeds`` is ignored.
    """
    logits, _, cache = _forward(theta, cfg, features, dropout_rate, seeds, keep=True)
    return logits, cache


def infer_batch(theta: np.ndarray, cfg: NetConfig, features: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The logits of :func:`forward_batch` at dropout rate 0, bit for bit, and the members' U_b, with no cache.

    No activation outlives the layer that reads it, so decoding holds no
    cached inputs, GELU slopes or window matrices, and no slope is computed.
    """
    logits, lengths, _ = _forward(theta, cfg, features, 0.0, None, keep=False)
    return logits, lengths


def _forward(
    theta: np.ndarray,
    cfg: NetConfig,
    features: Sequence[np.ndarray],
    dropout_rate: float,
    seeds: Sequence[int | Sequence[int]] | None,
    keep: bool,
) -> tuple[np.ndarray, np.ndarray, ForwardCache | None]:
    """The layer loop of :func:`forward_batch` and :func:`infer_batch`: (logits, U_b, the cache if ``keep``)."""
    feats = [np.asarray(f) for f in features]
    if not feats:
        raise ValueError("a batch needs at least one utterance")
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError(f"dropout_rate must lie in [0, 1), got {dropout_rate}")
    if dropout_rate > 0 and (seeds is None or len(seeds) != len(feats)):
        raise ValueError(f"dropout over {len(feats)} utterances needs {len(feats)} seeds, got {seeds}")
    for f in feats:
        if f.ndim != 2 or f.shape[1] != cfg.feature_dim:
            raise ValueError(f"features must be T x {cfg.feature_dim}, got {f.shape}")
    frames = np.array([f.shape[0] for f in feats])
    if frames.min() < cfg.downsample_factor:
        raise InputTooShortError(
            f"{frames.min()} frames cannot fill one downsampled step of {cfg.downsample_factor}"
        )
    n = frames // cfg.downsample_factor
    layout = _layout(cfg)
    layout.check(theta)
    dtype = theta.dtype
    x = np.concatenate([f[: u * cfg.downsample_factor] for f, u in zip(feats, n)], dtype=dtype)
    valid = np.arange(n.max()) < n[:, None]
    cache = ForwardCache(lengths=n, valid=valid) if keep else None

    for i, stride in enumerate(layout.strides):
        patches = x.reshape(-1, stride * x.shape[1])
        pre = patches @ layout.view(theta, f"conv{i}_w").T + layout.view(theta, f"conv{i}_b")
        x, slope = _gelu(pre, keep)
        if cache is not None:
            cache.conv_patches.append(patches)
            cache.conv_slope.append(slope)

    w = cfg.context_window
    rows = np.arange(n.sum()) + w * np.repeat(np.arange(1, len(n) + 1), n)
    window_rows = rows[:, None] + np.arange(-w, w + 1)
    # one zero-gapped copy serves every layer: each overwrites the member rows, and the gaps stay zero
    gapped = np.zeros((rows[-1] + w + 1, cfg.hidden_dim), dtype)
    rngs = [np.random.default_rng(s) for s in seeds] if dropout_rate > 0 else None
    for j in range(cfg.context_layers):
        gapped[rows] = x
        windows = np.take(gapped, window_rows, axis=0).reshape(len(rows), -1)
        pre = windows @ layout.view(theta, f"ctx{j}_w").T
        pre += layout.view(theta, f"ctx{j}_b")
        act, slope = _gelu(pre, keep)
        if rngs is not None:
            keep_rate = 1.0 - dropout_rate
            draws = np.concatenate([rng.random((u, cfg.hidden_dim)) for rng, u in zip(rngs, n)])
            mask = ((draws < keep_rate) / keep_rate).astype(dtype)
            act *= mask
        else:
            mask = None
        if cache is not None:
            cache.ctx_windows.append(windows)
            cache.ctx_slope.append(slope)
            cache.ctx_masks.append(mask)
        x = x + act

    logits = np.zeros((len(n), n.max(), cfg.vocab_size + 1), dtype)
    logits[valid] = x @ layout.view(theta, "head_w").T + layout.view(theta, "head_b")
    if cache is not None:
        cache.window_rows = window_rows
        cache.head_input = x
    return logits, n, cache


def backward_batch(theta: np.ndarray, cfg: NetConfig, cache: ForwardCache, dlogits: np.ndarray) -> np.ndarray:
    """Gradient of sum(dlogits * logits) over a :func:`forward_batch` pass of ``theta``, as one flat vector.

    ``dlogits`` is B x max(U_b) x (V+1) like the logits; rows past a
    member's U_b are ignored. The pass runs in the forward pass's dtype,
    multiplies by the cache's GELU slopes and reads its window matrices
    without writing them, so one cache can be backpropagated more than
    once; the returned float64 vector is the sum over the members, laid
    out like ``theta``; :func:`unflatten` gives named views into it.
    """
    layout = _layout(cfg)
    layout.check(theta)
    dlogits = np.asarray(dlogits)
    valid = cache.valid
    if cache.head_input is None or dlogits.shape != valid.shape + (cfg.vocab_size + 1,):
        raise ValueError(f"dlogits shape {dlogits.shape} does not match the cached forward pass")
    dtype = cache.head_input.dtype
    flat = np.zeros(layout.size)

    def put(name: str, value: np.ndarray) -> None:
        layout.view(flat, name)[...] = value

    dlogits = dlogits[valid].astype(dtype, copy=False)
    put("head_w", dlogits.T @ cache.head_input)
    put("head_b", dlogits.sum(axis=0))
    dx = dlogits @ layout.view(theta, "head_w")

    window_rows = cache.window_rows
    rows = window_rows[:, cfg.context_window]
    span, hidden = window_rows.shape[1], cfg.hidden_dim
    # gapped row g fed tap k of the window centred on row g + w - k, so its gradient is dz over g's own
    # window, tap k' through weight tap span-1-k': one product, with dz zero in the gaps (which every
    # layer leaves zero, so one buffer serves them all)
    dz_gapped = np.zeros((rows[-1] + cfg.context_window + 1, hidden), dtype)
    for j in range(cfg.context_layers - 1, -1, -1):
        mask = cache.ctx_masks[j]
        dz = cache.ctx_slope[j] * (dx * mask if mask is not None else dx)
        put(f"ctx{j}_w", dz.T @ cache.ctx_windows[j])
        put(f"ctx{j}_b", dz.sum(axis=0))
        dz_gapped[rows] = dz
        taps = layout.view(theta, f"ctx{j}_w").reshape(hidden, span, hidden)[:, ::-1]
        taps = taps.transpose(1, 0, 2).reshape(span * hidden, hidden)
        # residual: gradient flows both around and through the block
        dx += np.take(dz_gapped, window_rows, axis=0).reshape(len(rows), -1) @ taps

    for i in range(cfg.conv_layers - 1, -1, -1):
        dz = cache.conv_slope[i] * dx
        put(f"conv{i}_w", dz.T @ cache.conv_patches[i])
        put(f"conv{i}_b", dz.sum(axis=0))
        if i > 0:  # this layer's input gradient, one patch per row back to one frame per row
            dx = (dz @ layout.view(theta, f"conv{i}_w")).reshape(cache.conv_slope[i - 1].shape)
    return flat


def save_checkpoint(theta: np.ndarray, cfg: NetConfig, path: str | Path) -> None:
    """Write magic, version, the config as JSON, then ``theta`` as one little-endian float32 blob, via an atomic rename.

    The config implies every tensor's name and shape, so the blob carries
    no per-tensor records. ``theta`` must hold exactly the config's
    parameter count; the vectors of ``init_parameters`` and ``train_stage``
    are float32-exact, so the blob stores them without rounding.
    """
    size = _layout(cfg).size
    if np.shape(theta) != (size,):
        raise ValueError(f"parameter vector shape {np.shape(theta)} != expected ({size},)")
    cfg_blob = json.dumps(as_record(cfg), sort_keys=True).encode("utf-8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            fh.write(struct.pack("<I", len(cfg_blob)))
            fh.write(cfg_blob)
            fh.write(np.asarray(theta, dtype="<f4").tobytes())
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


def load_checkpoint(path: str | Path, expect_cfg: NetConfig | None = None) -> tuple[np.ndarray, NetConfig]:
    """Read a checkpoint as its float32 parameter vector and config.

    Fails on bad magic, a version other than the current one, truncation,
    trailing bytes or a config other than ``expect_cfg`` (when given).
    """
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
            cfg = NetConfig(**json.loads(_read_exact(fh, cfg_len, path, "config")))
        except (ValueError, TypeError) as exc:
            raise CheckpointError(f"{path}: invalid embedded config ({exc})") from None
        if expect_cfg is not None and cfg != expect_cfg:
            raise CheckpointError(f"{path}: checkpoint config {cfg} does not match expected {expect_cfg}")
        size = _layout(cfg).size
        blob = _read_exact(fh, 4 * size, path, f"{size} parameters")
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after {size} parameters")
    return np.frombuffer(blob, dtype="<f4").astype(np.float32), cfg
