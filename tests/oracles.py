"""Independent reference implementations used to check the library's fast paths.

Everything here is deliberately brute-force and shares no code with the
package: exhaustive path enumeration for CTC, central finite differences
for gradients, memo-free recursion for edit distance, and a layer-by-layer
network backward pass whose context layers rebuild their windows and
scatter their input gradient tap by tap.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=1, keepdims=True)


def collapse_path(path: tuple[int, ...], symbols: tuple[str, ...]) -> str:
    out = []
    prev = None
    for idx in path:
        if idx != prev and idx != 0:
            out.append(symbols[idx - 1])
        prev = idx
    return "".join(out)


def ctc_loss_by_enumeration(logits: np.ndarray, target: str, symbols: tuple[str, ...]) -> float:
    """-log sum over all (V+1)^U paths whose collapse equals the target."""
    probs = softmax_rows(logits)
    n_frames, n_classes = probs.shape
    total = 0.0
    for path in itertools.product(range(n_classes), repeat=n_frames):
        if collapse_path(path, symbols) != target:
            continue
        p = 1.0
        for t, idx in enumerate(path):
            p *= probs[t, idx]
        total += p
    if total == 0.0:
        return math.inf
    return -math.log(total)


def central_difference_grad(fn, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central finite differences of a scalar function, one coordinate at a time."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    x_flat = x.reshape(-1)
    for i in range(x_flat.size):
        orig = x_flat[i]
        x_flat[i] = orig + h
        f_plus = fn(x)
        x_flat[i] = orig - h
        f_minus = fn(x)
        x_flat[i] = orig
        flat[i] = (f_plus - f_minus) / (2 * h)
    return grad


def assert_grad_close(analytic: np.ndarray, numeric: np.ndarray, rel_tol: float = 1e-4,
                      floor: float = 1e-8) -> None:
    """Relative comparison entry-wise, ignoring entries below the magnitude floor."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    assert analytic.shape == numeric.shape
    scale = np.maximum(np.abs(numeric), np.abs(analytic))
    significant = scale > floor
    rel_err = np.abs(analytic - numeric)[significant] / scale[significant]
    if significant.any():
        worst = float(rel_err.max())
        assert worst < rel_tol, f"worst relative gradient error {worst:.3e} exceeds {rel_tol}"
    # tiny entries only need to agree in absolute terms
    small_err = np.abs(analytic - numeric)[~significant]
    if small_err.size:
        assert float(small_err.max()) < floor * 10


def edit_cost_recursive(ref: list[str], hyp: list[str]) -> int:
    """Plain recursion over suffixes; exponential, fine for short sequences."""
    if not ref:
        return len(hyp)
    if not hyp:
        return len(ref)
    same = edit_cost_recursive(ref[1:], hyp[1:]) + (0 if ref[0] == hyp[0] else 1)
    drop_ref = edit_cost_recursive(ref[1:], hyp) + 1
    drop_hyp = edit_cost_recursive(ref, hyp[1:]) + 1
    return min(same, drop_ref, drop_hyp)


def random_feasible_instance(rng: np.random.Generator, max_frames: int = 6, max_vocab: int = 3,
                             max_target: int = 3) -> tuple[np.ndarray, str, tuple[str, ...]]:
    """Random logits and a target that fits in the frame budget."""
    letters = "abc"[:int(rng.integers(1, max_vocab + 1))]
    symbols = tuple(letters)
    while True:
        n_frames = int(rng.integers(1, max_frames + 1))
        target_len = int(rng.integers(0, max_target + 1))
        target = "".join(letters[i] for i in rng.integers(0, len(letters), size=target_len))
        repeats = sum(1 for a, b in zip(target, target[1:]) if a == b)
        if n_frames >= target_len + repeats:
            logits = rng.normal(scale=2.0, size=(n_frames, len(symbols) + 1))
            return logits, target, symbols


def gelu_slope(x: np.ndarray) -> np.ndarray:
    """Derivative of the tanh-form GELU 0.5 * x * (1 + tanh(c * (x + 0.044715 * x^3))), c = sqrt(2 / pi)."""
    c = math.sqrt(2.0 / math.pi)
    t = np.tanh(c * (x + 0.044715 * x * x * x))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * c * (1.0 + 3 * 0.044715 * x * x)


def context_input_grad_by_taps(dz: np.ndarray, weight: np.ndarray, lengths, window: int) -> np.ndarray:
    """Input gradient of a windowed context layer, scattered tap by tap and frame by frame.

    ``dz`` holds the gradient of the layer's pre-activations, the members'
    frames back to back (``lengths[b]`` rows each). ``weight`` is
    H_out x (2 * window + 1) * H_in: tap k of output frame u reads input frame
    u + k - window of the same member, and a tap past either end of the member
    reads zeros, so it passes no gradient back.
    """
    span = 2 * window + 1
    n_in = weight.shape[1] // span
    grad = np.zeros((dz.shape[0], n_in), dtype=dz.dtype)
    start = 0
    for n in lengths:
        for k in range(span):
            through_tap = dz[start : start + n] @ weight[:, k * n_in : (k + 1) * n_in]
            for u in range(n):
                source = u + k - window
                if 0 <= source < n:
                    grad[start + source] += through_tap[u]
        start += n
    return grad


def context_windows_by_taps(x: np.ndarray, lengths, window: int) -> np.ndarray:
    """Each packed frame's context window, copied tap by tap and frame by frame.

    ``x`` holds the members' frames back to back (``lengths[b]`` rows each).
    Row u of the result is the 2 * window + 1 taps of output frame u side by
    side: tap k is input frame u + k - window of the same member, or zeros
    past either end of the member.
    """
    span = 2 * window + 1
    n_in = x.shape[1]
    out = np.zeros((x.shape[0], span * n_in), dtype=x.dtype)
    start = 0
    for n in lengths:
        for u in range(n):
            for k in range(span):
                source = u + k - window
                if 0 <= source < n:
                    out[start + u, k * n_in : (k + 1) * n_in] = x[start + source]
        start += n
    return out


def packed_net_backward(params: dict, cache, dlogits: np.ndarray, window: int) -> dict:
    """Parameter gradients of sum(dlogits * logits) from a packed forward pass's cached activations.

    The chain rule runs layer by layer from the head down, in the
    activations' dtype; ``params`` maps tensor names to arrays. A context
    layer's weight gradient reads windows that :func:`context_windows_by_taps`
    rebuilds from the layer's input (the centre tap of the cached windows),
    its GELU slope is recomputed from the cached pre-activations, and its
    input gradient is :func:`context_input_grad_by_taps`.
    """
    dtype = cache.head_input.dtype
    lengths = [int(n) for n in cache.lengths]
    dout = np.concatenate([dlogits[b, :n] for b, n in enumerate(lengths)]).astype(dtype)
    grads = {"head_w": dout.T @ cache.head_input, "head_b": dout.sum(axis=0)}
    dx = dout @ params["head_w"]
    for j in reversed(range(len(cache.ctx_pre))):
        dact = dx if cache.ctx_masks[j] is None else dx * cache.ctx_masks[j]
        dz = dact * gelu_slope(cache.ctx_pre[j])
        # the layer's input is the centre tap of its cached windows; the windows are rebuilt from it
        layer_input = cache.ctx_windows[j].reshape(len(dz), -1, dz.shape[1])[:, window]
        grads[f"ctx{j}_w"] = dz.T @ context_windows_by_taps(layer_input, lengths, window)
        grads[f"ctx{j}_b"] = dz.sum(axis=0)
        dx = dx + context_input_grad_by_taps(dz, params[f"ctx{j}_w"], lengths, window)
    for i in reversed(range(len(cache.conv_pre))):
        dz = dx * gelu_slope(cache.conv_pre[i])
        grads[f"conv{i}_w"] = dz.T @ cache.conv_patches[i]
        grads[f"conv{i}_b"] = dz.sum(axis=0)
        if i > 0:
            dx = (dz @ params[f"conv{i}_w"]).reshape(cache.conv_pre[i - 1].shape)
    return grads
