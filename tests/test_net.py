"""Acoustic model: shapes, determinism, full gradient audit, checkpoint format."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cptasr.net as net_mod
from cptasr.net import (
    CheckpointError,
    InputTooShortError,
    NetConfig,
    backward,
    backward_batch,
    count_parameters,
    flatten,
    float32_exact,
    forward,
    forward_batch,
    init_parameters,
    load_checkpoint,
    parameter_shapes,
    save_checkpoint,
    tensor_name,
    unflatten,
)

from oracles import assert_grad_close, central_difference_grad

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
    a = init_parameters(TINY, seed=3)
    b = init_parameters(TINY, seed=3)
    c = init_parameters(TINY, seed=4)
    assert set(a) == set(parameter_shapes(TINY))
    for name in a:
        np.testing.assert_array_equal(a[name], b[name])
    assert any(not np.array_equal(a[n], c[n]) for n in a)


def test_init_shapes_match_config():
    cfg = NetConfig(feature_dim=3, vocab_size=2, downsample_factor=2, conv_layers=1,
                    conv_channels=4, context_layers=1, hidden_dim=1, context_window=0)
    params = init_parameters(cfg, seed=0)
    for name, shape in parameter_shapes(cfg).items():
        assert params[name].shape == shape
    assert all(np.all(params[n] == 0) for n in params if n.endswith("_b"))


def test_downsampling_law():
    params = init_parameters(TINY, seed=0)
    rng = np.random.default_rng(0)
    for t in (2, 3, 8, 9, 17):
        logits, _ = forward(params, TINY, rng.normal(size=(t, 5)))
        assert logits.shape == (t // TINY.downsample_factor, TINY.vocab_size + 1)


def test_doubling_input_doubles_output():
    params = init_parameters(TINY, seed=0)
    x = np.random.default_rng(1).normal(size=(8, 5))
    u1, _ = forward(params, TINY, x)
    u2, _ = forward(params, TINY, np.vstack([x, x]))
    assert u2.shape[0] == 2 * u1.shape[0]


def test_input_too_short_raises():
    params = init_parameters(TINY, seed=0)
    with pytest.raises(InputTooShortError):
        forward(params, TINY, np.zeros((1, 5)))


def test_eval_mode_is_deterministic():
    params = init_parameters(TINY, seed=0)
    x = np.random.default_rng(2).normal(size=(10, 5))
    a, _ = forward(params, TINY, x, train_mode=False)
    b, _ = forward(params, TINY, x, train_mode=False)
    np.testing.assert_array_equal(a, b)


def test_train_mode_dropout_reproducible_by_seed():
    cfg = NetConfig(feature_dim=5, vocab_size=3, downsample_factor=2, conv_layers=2,
                    conv_channels=6, context_layers=2, hidden_dim=8, context_window=1,
                    dropout_rate=0.4)
    params = init_parameters(cfg, seed=0)
    x = np.random.default_rng(3).normal(size=(10, 5))
    a, _ = forward(params, cfg, x, train_mode=True, seed=9)
    b, _ = forward(params, cfg, x, train_mode=True, seed=9)
    c, _ = forward(params, cfg, x, train_mode=True, seed=10)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_zero_dlogits_gives_zero_gradients():
    params = init_parameters(TINY, seed=0)
    x = np.random.default_rng(4).normal(size=(9, 5))
    logits, cache = forward(params, TINY, x)
    grads = unflatten(TINY, backward(params, TINY, cache, np.zeros_like(logits)))
    assert all(np.all(g == 0) for g in grads.values())


def test_backward_is_linear_in_dlogits():
    params = init_parameters(TINY, seed=0)
    x = np.random.default_rng(5).normal(size=(9, 5))
    logits, cache = forward(params, TINY, x)
    dl = np.random.default_rng(6).normal(size=logits.shape)
    g1 = unflatten(TINY, backward(params, TINY, cache, dl))
    g2 = unflatten(TINY, backward(params, TINY, cache, 2.0 * dl))
    for name in g1:
        np.testing.assert_allclose(g2[name], 2.0 * g1[name], rtol=1e-12)


def test_backward_shape_mismatch_rejected():
    params = init_parameters(TINY, seed=0)
    x = np.random.default_rng(7).normal(size=(9, 5))
    logits, cache = forward(params, TINY, x)
    with pytest.raises(ValueError):
        backward(params, TINY, cache, np.zeros((logits.shape[0] + 1, logits.shape[1])))


def _audit_config_gradients(cfg: NetConfig, train_mode: bool, seed) -> None:
    params = init_parameters(cfg, seed=1)
    assert count_parameters(params) <= 2000
    rng = np.random.default_rng(11)
    x = rng.normal(size=(9, cfg.feature_dim))
    logits, cache = forward(params, cfg, x, train_mode=train_mode, seed=seed)
    dl = rng.normal(size=logits.shape)
    grads = unflatten(cfg, backward(params, cfg, cache, dl))

    for name in params:
        def objective(tensor, name=name):
            probe = dict(params)
            probe[name] = tensor
            out, _ = forward(probe, cfg, x, train_mode=train_mode, seed=seed)
            return float(np.sum(dl * out))

        numeric = central_difference_grad(objective, params[name].copy())
        assert_grad_close(grads[name], numeric)


def test_full_finite_difference_audit_eval_mode():
    _audit_config_gradients(TINY, train_mode=False, seed=0)


def test_full_finite_difference_audit_with_dropout():
    cfg = NetConfig(feature_dim=5, vocab_size=3, downsample_factor=2, conv_layers=2,
                    conv_channels=6, context_layers=2, hidden_dim=8, context_window=1,
                    dropout_rate=0.3)
    _audit_config_gradients(cfg, train_mode=True, seed=[2, 5])


# strides 2 and 3, so members of these lengths lose 0-5 frames to cropping
RAGGED = NetConfig(feature_dim=4, vocab_size=3, downsample_factor=6, conv_layers=2, conv_channels=5,
                   context_layers=2, hidden_dim=6, context_window=2, dropout_rate=0.3)


def _ragged_features(lengths, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(t, RAGGED.feature_dim)).astype(np.float32) for t in lengths]


@pytest.mark.parametrize("train_mode", [False, True])
def test_packed_pass_matches_single_utterance_passes(train_mode):
    params = init_parameters(RAGGED, seed=2)
    feats = _ragged_features([6, 31, 13, 47, 12, 17])
    seeds = [[4, 1, 0, pos] for pos in range(len(feats))]
    logits, cache = forward_batch(params, RAGGED, feats, train_mode=train_mode, seeds=seeds)
    lengths = [len(f) // RAGGED.downsample_factor for f in feats]
    assert cache.lengths.tolist() == lengths
    assert logits.shape == (len(feats), max(lengths), RAGGED.vocab_size + 1)
    dl = np.random.default_rng(3).normal(size=logits.shape)
    total = np.zeros_like(backward_batch(params, RAGGED, cache, dl))
    for b, (f, u) in enumerate(zip(feats, lengths)):
        single, single_cache = forward(params, RAGGED, f, train_mode=train_mode, seed=seeds[b])
        np.testing.assert_allclose(logits[b, :u], single, rtol=0, atol=1e-12)
        assert np.all(logits[b, u:] == 0.0)
        total += backward(params, RAGGED, single_cache, dl[b, :u])
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


def test_packed_backward_finite_difference_audit_with_dropout():
    params = init_parameters(RAGGED, seed=1)
    assert count_parameters(params) <= 2000
    feats = _ragged_features([13, 7, 20], seed=11)
    seeds = [[2, 5, pos] for pos in range(3)]
    logits, cache = forward_batch(params, RAGGED, feats, train_mode=True, seeds=seeds)
    assert any(m is not None and np.any(m == 0) for m in cache.ctx_masks)
    dl = np.random.default_rng(12).normal(size=logits.shape)
    grads = unflatten(RAGGED, backward_batch(params, RAGGED, cache, dl))

    for name in params:
        def objective(tensor, name=name):
            probe = dict(params)
            probe[name] = tensor
            out, _ = forward_batch(probe, RAGGED, feats, train_mode=True, seeds=seeds)
            return float(np.sum(dl * out))

        numeric = central_difference_grad(objective, params[name].copy())
        assert_grad_close(grads[name], numeric)


def test_forward_batch_rejects_bad_members():
    params = init_parameters(RAGGED, seed=0)
    with pytest.raises(ValueError):
        forward_batch(params, RAGGED, [])
    with pytest.raises(ValueError):
        forward_batch(params, RAGGED, [np.zeros((12, 4)), np.zeros((12, 3))])
    with pytest.raises(InputTooShortError):
        forward_batch(params, RAGGED, [np.zeros((12, 4)), np.zeros((5, 4))])
    with pytest.raises(ValueError):
        forward_batch(params, RAGGED, [np.zeros((12, 4))] * 2, train_mode=True, seeds=[1])


def test_checkpoint_round_trip_bit_exact(tmp_path):
    params = init_parameters(TINY, seed=8)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, TINY, path)
    loaded, cfg = load_checkpoint(path)
    assert cfg == TINY
    assert set(loaded) == set(params)
    for name in params:
        np.testing.assert_array_equal(loaded[name], params[name])


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
    for name in params:
        np.testing.assert_array_equal(loaded[name], params[name])
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
        NetConfig(feature_dim=3, vocab_size=3, dropout_rate=1.0)
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
def test_flat_layout_round_trips_and_aliases(cfg, seed):
    rng = np.random.default_rng(seed)
    params = {name: rng.normal(size=shape) for name, shape in parameter_shapes(cfg).items()}
    theta = flatten(cfg, params)
    assert theta.dtype == np.float64 and theta.shape == (count_parameters(params),)
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
    params = init_parameters(TINY, seed=0)
    with pytest.raises(ValueError):
        flatten(TINY, {k: v for k, v in params.items() if k != "head_b"})
    with pytest.raises(ValueError):
        unflatten(TINY, np.zeros(count_parameters(params) + 1))
