"""Acoustic model: shapes, determinism, full gradient audit, checkpoint format."""

import copy
import json
import math
import struct
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cptasr.net as net_mod
from cptasr.net import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    InputTooShortError,
    NetConfig,
    backward_batch,
    float32_exact,
    forward_batch,
    infer_batch,
    init_parameters,
    load_checkpoint,
    parameter_shapes,
    save_checkpoint,
    tensor_name,
    unflatten,
)

from oracles import assert_grad_close, central_difference_grad, packed_net_backward

# activation shapes of one batch of 8: the acceptance net on `pipeline`'s short
# utterances (one conv layer to 32 channels), and the default net on
# `long-utt`'s ~215-frame utterances (conv to 32, then 64 channels)
@pytest.mark.parametrize("shape", [(72, 32), (860, 32), (430, 64)], ids=["pipeline", "long-utt-conv0", "long-utt"])
def test_gelu_matches_one_line_expressions_bit_for_bit(shape):
    rng = np.random.default_rng(shape[0])
    x = rng.normal(scale=3.0, size=shape)
    x.flat[:7] = [0.0, -0.0, 5e-324, -1e-310, -40.0, 40.0, 1e3]  # zeros, subnormals, saturated tanh
    before = x.copy()
    want, want_grad = _one_line_gelu(x)
    got, tanh = net_mod._gelu(x)
    assert np.array_equal(got, want)
    tanh_before = tanh.copy()
    assert np.array_equal(net_mod._gelu_slope(x, tanh), want_grad)
    # the pre-activations and the tanh values are cached for the backward pass
    assert np.array_equal(x, before) and np.array_equal(tanh, tanh_before)


def _one_line_gelu(x):
    """GELU and its derivative as one-line expressions, evaluated in x's dtype."""
    c = math.sqrt(2.0 / math.pi)
    want = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * (x * x * x))))
    x2 = x * x
    t = np.tanh(c * (x + 0.044715 * (x2 * x)))
    want_grad = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * c * (1.0 + 3 * 0.044715 * x2)
    return want, want_grad


TINY = NetConfig(feature_dim=5, vocab_size=3, downsample_factor=2, conv_layers=2,
                 conv_channels=6, context_layers=2, hidden_dim=8, context_window=1)


def test_strides_multiply_to_downsample_factor():
    for factor in (1, 2, 3, 4, 6, 8, 12, 16):
        for layers in (1, 2, 3):
            cfg = NetConfig(feature_dim=4, vocab_size=2, downsample_factor=factor, conv_layers=layers)
            strides = cfg.strides()
            assert len(strides) == layers
            assert int(np.prod(strides)) == factor


def test_init_deterministic_and_seed_sensitive():
    a, b, c = (unflatten(TINY, init_parameters(TINY, seed=s)) for s in (3, 3, 4))
    assert set(a) == set(parameter_shapes(TINY))
    for name in a:
        np.testing.assert_array_equal(a[name], b[name])
    assert any(not np.array_equal(a[n], c[n]) for n in a)


def test_init_shapes_match_config():
    cfg = NetConfig(feature_dim=3, vocab_size=2, downsample_factor=2, conv_layers=1,
                    conv_channels=4, context_layers=1, hidden_dim=1, context_window=0)
    params = unflatten(cfg, init_parameters(cfg, seed=0))
    for name, shape in parameter_shapes(cfg).items():
        assert params[name].shape == shape
    assert all(np.all(params[n] == 0) for n in params if n.endswith("_b"))


def test_downsampling_law():
    params = init_parameters(TINY, seed=0)
    rng = np.random.default_rng(0)
    for t in (2, 3, 8, 9, 17):
        logits = forward_batch(params, TINY, [rng.normal(size=(t, 5))])[0][0]
        assert logits.shape == (t // TINY.downsample_factor, TINY.vocab_size + 1)


def test_doubling_input_doubles_output():
    params = init_parameters(TINY, seed=0)
    x = np.random.default_rng(1).normal(size=(8, 5))
    u1 = forward_batch(params, TINY, [x])[0][0]
    u2 = forward_batch(params, TINY, [np.vstack([x, x])])[0][0]
    assert u2.shape[0] == 2 * u1.shape[0]


def test_input_too_short_raises():
    params = init_parameters(TINY, seed=0)
    with pytest.raises(InputTooShortError):
        forward_batch(params, TINY, [np.zeros((1, 5))])


def test_eval_mode_is_deterministic():
    params = init_parameters(TINY, seed=0)
    x = np.random.default_rng(2).normal(size=(10, 5))
    a, _ = forward_batch(params, TINY, [x])
    b, _ = forward_batch(params, TINY, [x])
    np.testing.assert_array_equal(a, b)


def test_train_mode_dropout_reproducible_by_seed():
    params = init_parameters(TINY, seed=0)
    x = np.random.default_rng(3).normal(size=(10, 5))
    a, _ = forward_batch(params, TINY, [x], dropout_rate=0.4, seeds=[9])
    b, _ = forward_batch(params, TINY, [x], dropout_rate=0.4, seeds=[9])
    c, _ = forward_batch(params, TINY, [x], dropout_rate=0.4, seeds=[10])
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_zero_dlogits_gives_zero_gradients():
    params = init_parameters(TINY, seed=0)
    x = np.random.default_rng(4).normal(size=(9, 5))
    logits, cache = forward_batch(params, TINY, [x])
    grads = unflatten(TINY, backward_batch(params, TINY, cache, np.zeros_like(logits)))
    assert all(np.all(g == 0) for g in grads.values())


def test_backward_is_linear_in_dlogits():
    params = init_parameters(TINY, seed=0)
    x = np.random.default_rng(5).normal(size=(9, 5))
    logits, cache = forward_batch(params, TINY, [x])
    dl = np.random.default_rng(6).normal(size=logits.shape)
    g1 = unflatten(TINY, backward_batch(params, TINY, cache, dl))
    g2 = unflatten(TINY, backward_batch(params, TINY, cache, 2.0 * dl))
    for name in g1:
        np.testing.assert_allclose(g2[name], 2.0 * g1[name], rtol=1e-12)


def test_backward_shape_mismatch_rejected():
    params = init_parameters(TINY, seed=0)
    x = np.random.default_rng(7).normal(size=(9, 5))
    logits, cache = forward_batch(params, TINY, [x])
    with pytest.raises(ValueError):
        backward_batch(params, TINY, cache, np.zeros((1, logits.shape[1] + 1, logits.shape[2])))


def _audit_config_gradients(cfg: NetConfig, dropout_rate: float, seed) -> None:
    theta = init_parameters(cfg, seed=1)
    assert theta.size <= 2000
    rng = np.random.default_rng(11)
    x = rng.normal(size=(9, cfg.feature_dim))
    logits, cache = forward_batch(theta, cfg, [x], dropout_rate=dropout_rate, seeds=[seed])
    dl = rng.normal(size=logits.shape)
    grads = unflatten(cfg, backward_batch(theta, cfg, cache, dl))

    for name, tensor in unflatten(cfg, theta).items():
        def objective(value, name=name):
            probe = theta.copy()
            unflatten(cfg, probe)[name][...] = value
            out, _ = forward_batch(probe, cfg, [x], dropout_rate=dropout_rate, seeds=[seed])
            return float(np.sum(dl * out))

        numeric = central_difference_grad(objective, tensor.copy())
        assert_grad_close(grads[name], numeric)


def test_full_finite_difference_audit_eval_mode():
    _audit_config_gradients(TINY, dropout_rate=0.0, seed=0)


def test_full_finite_difference_audit_with_dropout():
    _audit_config_gradients(TINY, dropout_rate=0.3, seed=[2, 5])


# strides 2 and 3, so members of these lengths lose 0-5 frames to cropping
RAGGED = NetConfig(feature_dim=4, vocab_size=3, downsample_factor=6, conv_layers=2, conv_channels=5,
                   context_layers=2, hidden_dim=6, context_window=2)
RAGGED_DROPOUT = 0.3


def _ragged_features(lengths, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(t, RAGGED.feature_dim)).astype(np.float32) for t in lengths]


@pytest.mark.parametrize("dropout", [False, True])
def test_packed_pass_matches_single_utterance_passes(dropout):
    params = init_parameters(RAGGED, seed=2)
    feats = _ragged_features([6, 31, 13, 47, 12, 17])
    seeds = [[4, 1, 0, pos] for pos in range(len(feats))]
    rate = RAGGED_DROPOUT if dropout else 0.0
    logits, cache = forward_batch(params, RAGGED, feats, dropout_rate=rate, seeds=seeds)
    lengths = [len(f) // RAGGED.downsample_factor for f in feats]
    assert cache.lengths.tolist() == lengths
    assert logits.shape == (len(feats), max(lengths), RAGGED.vocab_size + 1)
    dl = np.random.default_rng(3).normal(size=logits.shape)
    total = np.zeros_like(backward_batch(params, RAGGED, cache, dl))
    for b, (f, u) in enumerate(zip(feats, lengths)):
        single, single_cache = forward_batch(params, RAGGED, [f], dropout_rate=rate, seeds=[seeds[b]])
        np.testing.assert_allclose(logits[b, :u], single[0], rtol=0, atol=1e-12)
        assert np.all(logits[b, u:] == 0.0)
        total += backward_batch(params, RAGGED, single_cache, dl[b, :u][None])
    np.testing.assert_allclose(backward_batch(params, RAGGED, cache, dl), total, rtol=0, atol=1e-12)


def test_no_frame_sees_another_utterance():
    params = init_parameters(RAGGED, seed=2)
    feats = _ragged_features([13, 20, 9, 30])
    base, _ = forward_batch(params, RAGGED, feats)
    for b in range(len(feats)):
        moved = list(feats)
        moved[b] = feats[b] + 5.0
        logits, _ = forward_batch(params, RAGGED, moved)
        assert not np.array_equal(logits[b], base[b])
        others = [k for k in range(len(feats)) if k != b]
        np.testing.assert_array_equal(logits[others], base[others])


@pytest.mark.parametrize("cfg", [RAGGED, NetConfig(feature_dim=4, vocab_size=3)], ids=["strides-2-3", "strides-2-2"])
def test_frames_past_the_last_output_frame_are_cropped(cfg):
    params = init_parameters(cfg, seed=3).astype(np.float32)
    feats = _ragged_features([6, 31, 13, 47, 12, 17, 9], seed=4)
    seeds = [[7, pos] for pos in range(len(feats))]
    logits, cache = forward_batch(params, cfg, feats, dropout_rate=0.1, seeds=seeds)
    kept = [len(f) // cfg.downsample_factor * cfg.downsample_factor for f in feats]
    assert cache.lengths.tolist() == [len(f) // cfg.downsample_factor for f in feats]
    dl = np.random.default_rng(5).normal(size=logits.shape)
    grad = backward_batch(params, cfg, cache, dl)
    cropped = [b for b, f in enumerate(feats) if kept[b] < len(f)]
    assert len(cropped) >= 4
    for b in cropped:
        moved = list(feats)
        moved[b] = feats[b].copy()
        moved[b][kept[b]:] += 1e3
        out, out_cache = forward_batch(params, cfg, moved, dropout_rate=0.1, seeds=seeds)
        assert np.array_equal(out, logits)
        assert np.array_equal(backward_batch(params, cfg, out_cache, dl), grad)


def test_packed_backward_finite_difference_audit_with_dropout():
    theta = init_parameters(RAGGED, seed=1)
    assert theta.size <= 2000
    feats = _ragged_features([13, 7, 20], seed=11)
    seeds = [[2, 5, pos] for pos in range(3)]
    logits, cache = forward_batch(theta, RAGGED, feats, dropout_rate=RAGGED_DROPOUT, seeds=seeds)
    assert any(m is not None and np.any(m == 0) for m in cache.ctx_masks)
    dl = np.random.default_rng(12).normal(size=logits.shape)
    grads = unflatten(RAGGED, backward_batch(theta, RAGGED, cache, dl))

    for name, tensor in unflatten(RAGGED, theta).items():
        def objective(value, name=name):
            probe = theta.copy()
            unflatten(RAGGED, probe)[name][...] = value
            out, _ = forward_batch(probe, RAGGED, feats, dropout_rate=RAGGED_DROPOUT, seeds=seeds)
            return float(np.sum(dl * out))

        numeric = central_difference_grad(objective, tensor.copy())
        assert_grad_close(grads[name], numeric)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("rate", [0.0, RAGGED_DROPOUT])
@pytest.mark.parametrize("cfg", [
    RAGGED,
    NetConfig(feature_dim=32, vocab_size=27, downsample_factor=4, conv_layers=1, conv_channels=24,
              context_layers=1, hidden_dim=32, context_window=3),
    NetConfig(feature_dim=4, vocab_size=3, context_window=0),
], ids=["window-2", "acceptance-window-3", "window-0"])
def test_window_product_matches_per_tap_scatter(cfg, rate, dtype):
    """The context layers' input gradient as one window product equals the per-tap scatter, short members included."""
    params = init_parameters(cfg, seed=2).astype(dtype)
    rng = np.random.default_rng(8)
    # members of 1 to 11 output frames, several shorter than a window
    feats = [rng.normal(size=(t, cfg.feature_dim)).astype(np.float32) for t in (6, 31, 13, 47, 12, 17, 8)]
    seeds = [[3, pos] for pos in range(len(feats))]
    logits, cache = forward_batch(params, cfg, feats, dropout_rate=rate, seeds=seeds)
    dl = rng.normal(size=logits.shape)
    got = unflatten(cfg, backward_batch(params, cfg, cache, dl))
    want = packed_net_backward(unflatten(cfg, params), cache, dl, cfg.context_window)
    assert got.keys() == want.keys()
    for name, grad in got.items():
        if dtype == np.float64:
            np.testing.assert_allclose(grad, want[name], rtol=0, atol=1e-12, err_msg=name)
        else:  # the sums round in another order: a few float32 ulps of the tensor's largest entry
            tol = 4 * np.finfo(np.float32).eps * np.max(np.abs(want[name]))
            np.testing.assert_allclose(grad, want[name], rtol=0, atol=tol, err_msg=name)


def _cached_arrays(cache):
    """Every array a ForwardCache holds, by field name and list position."""
    arrays = {}
    for f in fields(cache):
        value = getattr(cache, f.name)
        for i, a in enumerate(value if isinstance(value, list) else [value]):
            if a is not None:
                arrays[f"{f.name}[{i}]"] = a
    return arrays


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("rate", [0.0, RAGGED_DROPOUT])
def test_backward_leaves_its_cache_untouched(rate, dtype):
    """Backward reads the cached tanh values and windows and writes nothing, so a cache can be backpropagated twice."""
    params = init_parameters(RAGGED, seed=2).astype(dtype)
    feats = _ragged_features([6, 31, 13, 47, 12, 17])
    logits, cache = forward_batch(params, RAGGED, feats, dropout_rate=rate, seeds=[[5, pos] for pos in range(6)])
    before = copy.deepcopy(_cached_arrays(cache))
    assert len(before) == 4 + 3 * RAGGED.conv_layers + (4 if rate else 3) * RAGGED.context_layers
    dl = np.random.default_rng(9).normal(size=logits.shape)
    first = backward_batch(params, RAGGED, cache, dl)
    second = backward_batch(params, RAGGED, cache, dl)
    assert first.tobytes() == second.tobytes()
    after = _cached_arrays(cache)
    assert after.keys() == before.keys()
    for name, array in before.items():
        assert after[name].dtype == array.dtype and after[name].tobytes() == array.tobytes(), name


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("cfg", [RAGGED, NetConfig(feature_dim=4, vocab_size=3)], ids=["strides-2-3", "default"])
def test_cache_free_pass_gives_the_forward_logits_bit_for_bit(cfg, dtype):
    """infer_batch is forward_batch at dropout rate 0 without a cache, members shorter than one window included."""
    params = init_parameters(cfg, seed=6).astype(dtype)
    feats = _ragged_features([6, 31, 13, 47, 12, 17, 9, 230], seed=2)
    span = 2 * cfg.context_window + 1
    assert sum(len(f) // cfg.downsample_factor < span for f in feats) >= 3
    want, cache = forward_batch(params, cfg, feats)
    got, lengths = infer_batch(params, cfg, feats)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert np.array_equal(lengths, cache.lengths)


@pytest.mark.parametrize("rate", [0.0, 0.1])
def test_float32_parameters_keep_the_pass_in_float32(rate):
    params = init_parameters(RAGGED, seed=2).astype(np.float32)
    feats = _ragged_features([6, 31, 13, 47, 12, 17])
    seeds = [[4, 1, 0, pos] for pos in range(len(feats))]
    logits, cache = forward_batch(params, RAGGED, feats, dropout_rate=rate, seeds=seeds)
    arrays = {"logits": logits, "head_input": cache.head_input}
    for name in ("conv_patches", "conv_pre", "conv_tanh", "ctx_windows", "ctx_pre", "ctx_tanh", "ctx_masks"):
        arrays.update({f"{name}[{i}]": a for i, a in enumerate(getattr(cache, name)) if a is not None})
    assert len(arrays) == 2 + 3 * RAGGED.conv_layers + (4 if rate else 3) * RAGGED.context_layers
    assert {name: a.dtype for name, a in arrays.items()} == dict.fromkeys(arrays, np.float32)
    # GELU computes in float32: a float64 constant would compute in float64 and round
    for pre, tanh in zip(cache.conv_pre + cache.ctx_pre, cache.conv_tanh + cache.ctx_tanh):
        want, want_grad = _one_line_gelu(pre)
        got, got_tanh = net_mod._gelu(pre)
        assert np.array_equal(got, want)
        assert np.array_equal(got_tanh, tanh)
        assert np.array_equal(net_mod._gelu_slope(pre, tanh), want_grad)
    dl = np.random.default_rng(3).normal(size=logits.shape)
    assert backward_batch(params, RAGGED, cache, dl).dtype == np.float64


def test_float32_pass_agrees_with_float64_pass():
    cfg = NetConfig(feature_dim=32, vocab_size=27)
    params = init_parameters(cfg, seed=4)
    rng = np.random.default_rng(5)
    feats = [rng.normal(scale=2.0, size=(t, cfg.feature_dim)).astype(np.float32)
             for t in (215, 97, 260, 40, 181, 133)]
    logits64, cache64 = forward_batch(params, cfg, feats)
    logits32, cache32 = forward_batch(params.astype(np.float32), cfg, feats)
    dl = np.random.default_rng(6).normal(size=logits64.shape)
    grad64 = backward_batch(params, cfg, cache64, dl)
    grad32 = backward_batch(params.astype(np.float32), cfg, cache32, dl)
    assert np.linalg.norm(logits32 - logits64) <= 1e-5 * np.linalg.norm(logits64)
    # bounds the gradient norm's relative error too, by the triangle inequality
    assert np.linalg.norm(grad32 - grad64) <= 1e-5 * np.linalg.norm(grad64)


def test_forward_batch_rejects_bad_members():
    params = init_parameters(RAGGED, seed=0)
    with pytest.raises(ValueError):
        forward_batch(params, RAGGED, [])
    with pytest.raises(ValueError):
        forward_batch(params, RAGGED, [np.zeros((12, 4)), np.zeros((12, 3))])
    with pytest.raises(InputTooShortError):
        forward_batch(params, RAGGED, [np.zeros((12, 4)), np.zeros((5, 4))])
    with pytest.raises(ValueError):
        forward_batch(params, RAGGED, [np.zeros((12, 4))] * 2, dropout_rate=RAGGED_DROPOUT, seeds=[1])
    with pytest.raises(ValueError):
        forward_batch(params, RAGGED, [np.zeros((12, 4))] * 2, dropout_rate=RAGGED_DROPOUT)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    params = init_parameters(TINY, seed=8)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, TINY, path)
    loaded, cfg = load_checkpoint(path)
    assert cfg == TINY
    assert loaded.dtype == np.float32 and loaded.shape == params.shape
    assert loaded.tobytes() == params.astype(np.float32).tobytes()


class _FailingWriter:
    """File wrapper whose fifth write raises, as a full disk would."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes == 5:
            raise OSError("no space left on device")
        return self.fh.write(data)


def test_failed_checkpoint_write_keeps_previous_file(tmp_path, monkeypatch):
    params = init_parameters(TINY, seed=8)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, TINY, path)
    monkeypatch.setattr(net_mod, "open", lambda *a, **kw: _FailingWriter(open(*a, **kw)), raising=False)
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(init_parameters(TINY, seed=9), TINY, path)
    monkeypatch.undo()
    loaded, _ = load_checkpoint(path, expect_cfg=TINY)
    np.testing.assert_array_equal(loaded, params)
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_float32_exact_projection_is_idempotent():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 5))
    once = float32_exact(x)
    np.testing.assert_array_equal(float32_exact(once), once)


def test_checkpoint_corrupt_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_truncated_file(tmp_path):
    params = init_parameters(TINY, seed=8)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, TINY, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 7])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_version_1_checkpoint_is_rejected(tmp_path):
    path = tmp_path / "old.ckpt"
    cfg_blob = json.dumps({**asdict(TINY), "dropout_rate": 0.0}).encode("utf-8")
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", 1, len(cfg_blob)) + cfg_blob)
    with pytest.raises(CheckpointError, match="version 1"):
        load_checkpoint(path)


def _v3_file(tmp_path, theta):
    path = tmp_path / "model.ckpt"
    save_checkpoint(theta, TINY, path)
    return path


def test_checkpoint_v3_float32_round_trip_is_bit_exact(tmp_path):
    theta = np.random.default_rng(3).normal(size=init_parameters(TINY, seed=0).size).astype(np.float32)
    theta[:4] = [-0.0, np.finfo(np.float32).smallest_subnormal, np.finfo(np.float32).max, np.inf]
    path = _v3_file(tmp_path, theta)
    data = path.read_bytes()
    (cfg_len,) = struct.unpack("<I", data[8:12])
    assert len(data) == 12 + cfg_len + 4 * theta.size  # magic, version, config length, config, blob
    loaded, cfg = load_checkpoint(path, expect_cfg=TINY)
    assert cfg == TINY
    assert loaded.dtype == np.float32 and loaded.tobytes() == theta.tobytes()


def test_checkpoint_v3_truncated_blob_is_rejected(tmp_path):
    path = _v3_file(tmp_path, init_parameters(TINY, seed=8))
    path.write_bytes(path.read_bytes()[:-4])  # one float32 short
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_v3_trailing_byte_is_rejected(tmp_path):
    path = _v3_file(tmp_path, init_parameters(TINY, seed=8))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


def test_version_2_checkpoint_is_rejected(tmp_path):
    path = _v3_file(tmp_path, init_parameters(TINY, seed=8))
    data = path.read_bytes()
    path.write_bytes(data[:4] + struct.pack("<I", 2) + data[8:])
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 2"):
        load_checkpoint(path)


def test_save_checkpoint_rejects_a_wrong_size_vector(tmp_path):
    theta = init_parameters(TINY, seed=8)
    for bad in (theta[:-1], np.append(theta, 0.0), theta.reshape(1, -1)):
        with pytest.raises(ValueError, match="parameter vector shape"):
            save_checkpoint(bad, TINY, tmp_path / "model.ckpt")
    assert not list(tmp_path.iterdir())


def test_checkpoint_config_mismatch(tmp_path):
    params = init_parameters(TINY, seed=8)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, TINY, path)
    other = NetConfig(feature_dim=5, vocab_size=3, downsample_factor=2, conv_layers=2,
                      conv_channels=6, context_layers=2, hidden_dim=16, context_window=1)
    with pytest.raises(CheckpointError):
        load_checkpoint(path, expect_cfg=other)


def test_net_config_validation():
    with pytest.raises(ValueError):
        NetConfig(feature_dim=0, vocab_size=3)
    with pytest.raises(ValueError):
        forward_batch(init_parameters(TINY, seed=0), TINY, [np.zeros((4, 5))], dropout_rate=1.0, seeds=[0])
    with pytest.raises(ValueError):
        NetConfig(feature_dim=3, vocab_size=3, context_window=-1)


small_configs = st.builds(
    NetConfig,
    feature_dim=st.integers(1, 6),
    vocab_size=st.integers(1, 5),
    downsample_factor=st.integers(1, 8),
    conv_layers=st.integers(1, 3),
    conv_channels=st.integers(1, 5),
    context_layers=st.integers(1, 3),
    hidden_dim=st.integers(1, 6),
    context_window=st.integers(0, 2),
)


@settings(max_examples=60, deadline=None)
@given(cfg=small_configs, seed=st.integers(0, 2**16))
def test_init_parameters_equals_the_per_tensor_draws(cfg, seed):
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in parameter_shapes(cfg).items():
        if name.endswith("_b"):
            tensors[name] = np.zeros(shape)
        else:
            bound = 1.0 / np.sqrt(shape[1])
            tensors[name] = float32_exact(rng.uniform(-bound, bound, size=shape))
    theta = init_parameters(cfg, seed)
    assert theta.dtype == np.float64
    views = unflatten(cfg, theta)
    assert list(views) == list(tensors)
    for name, tensor in tensors.items():
        assert views[name].tobytes() == tensor.tobytes()


@settings(max_examples=60, deadline=None)
@given(cfg=small_configs, seed=st.integers(0, 2**16))
def test_flat_layout_round_trips_and_aliases(cfg, seed):
    rng = np.random.default_rng(seed)
    params = {name: rng.normal(size=shape) for name, shape in parameter_shapes(cfg).items()}
    theta = np.concatenate([tensor.ravel() for tensor in params.values()])
    assert theta.shape == init_parameters(cfg, seed).shape
    views = unflatten(cfg, theta)
    assert list(views) == list(parameter_shapes(cfg))
    for name in params:
        assert views[name].tobytes() == params[name].tobytes()
    offset = 0
    for name, view in views.items():
        assert tensor_name(cfg, offset) == tensor_name(cfg, offset + view.size - 1) == name
        view.flat[-1] = -1.0 - offset
        assert theta[offset + view.size - 1] == -1.0 - offset
        offset += view.size
    assert offset == theta.size


def test_flatten_and_unflatten_reject_mismatched_inputs():
    theta = init_parameters(TINY, seed=0)
    with pytest.raises(ValueError):
        unflatten(TINY, np.zeros(theta.size + 1))
    with pytest.raises(ValueError):
        forward_batch(theta[:-1], TINY, [np.zeros((4, 5))])
