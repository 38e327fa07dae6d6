"""Training loop: shuffling, early stopping, best-epoch selection, reproducibility."""

import numpy as np
import pytest

import cptasr.train as train_mod
from cptasr.corpus import Dataset, SynthConfig, Utterance, build_vocabulary, generate_synthetic_corpus, speaker_disjoint_split
from cptasr.metrics import WerReport, wer
from cptasr.net import NetConfig, forward, init_parameters, unflatten
from cptasr.ctc import greedy_decode
from cptasr.optim import StageConfig
from cptasr.train import decode_dataset, evaluate_wer, save_history, train_stage


def _small_task(n_utts=40, seed=5):
    cfg = SynthConfig(n_speakers=6, n_utterances=n_utts, labeled_fraction=1.0,
                      chars_per_utterance=(3, 5), frames_per_char=(6, 9), seed=seed)
    labeled, _, _ = generate_synthetic_corpus(cfg)
    vocab = build_vocabulary(labeled.transcripts())
    train_ds, val_ds = speaker_disjoint_split(labeled, max(4, n_utts // 8), seed=1)
    net_cfg = NetConfig(feature_dim=cfg.feature_dim, vocab_size=vocab.size, downsample_factor=4,
                        conv_layers=1, conv_channels=16, context_layers=1, hidden_dim=24,
                        context_window=2)
    return train_ds, val_ds, vocab, net_cfg


def _stage(**kw):
    base = dict(learning_rate=1e-3, epochs=3, batch_size=8, warmup_ratio=0.1,
                weight_decay=0.01, label_smoothing=0.0, grad_clip_norm=1.0,
                patience=None, dropout_rate=0.0, seed=7)
    base.update(kw)
    return StageConfig(**base)


def test_training_runs_and_loss_decreases():
    train_ds, val_ds, vocab, net_cfg = _small_task()
    stage = _stage(epochs=8)
    params = init_parameters(net_cfg, seed=0)
    best, history = train_stage(params, net_cfg, train_ds, val_ds, stage, vocab)
    assert len(history.records) == 8
    assert history.records[-1].train_loss < history.records[0].train_loss
    assert [r.epoch for r in history.records] == list(range(1, 9))


def test_patience_none_and_zero_run_all_epochs():
    train_ds, val_ds, vocab, net_cfg = _small_task(n_utts=24)
    for patience in (None, 0):
        stage = _stage(epochs=4, patience=patience)
        params = init_parameters(net_cfg, seed=0)
        _, history = train_stage(params, net_cfg, train_ds, val_ds, stage, vocab)
        assert len(history.records) == 4
        assert not history.stopped_early


def test_scripted_wer_sequence_triggers_patience_rule(monkeypatch):
    train_ds, val_ds, vocab, net_cfg = _small_task(n_utts=24)
    scripted = iter([0.9, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5])

    def fake_eval(params, cfg, ds, vocab):
        w = next(scripted)
        return WerReport(0, 0, 0, 1, w)

    monkeypatch.setattr(train_mod, "evaluate_wer", fake_eval)
    stage = _stage(epochs=10, patience=3)
    params = init_parameters(net_cfg, seed=0)
    _, history = train_stage(params, net_cfg, train_ds, val_ds, stage, vocab)
    assert len(history.records) == 5  # stops after epoch 5
    assert history.best_epoch == 2
    assert history.stopped_early


def test_early_stopping_never_fires_before_patience_plus_one(monkeypatch):
    train_ds, val_ds, vocab, net_cfg = _small_task(n_utts=24)
    monkeypatch.setattr(train_mod, "evaluate_wer", lambda *a: WerReport(0, 0, 0, 1, 0.5))
    stage = _stage(epochs=10, patience=2)
    params = init_parameters(net_cfg, seed=0)
    _, history = train_stage(params, net_cfg, train_ds, val_ds, stage, vocab)
    assert len(history.records) == 3  # constant WER: epochs 2 and 3 exhaust patience 2
    assert history.best_epoch == 1


def test_ties_do_not_reset_patience(monkeypatch):
    train_ds, val_ds, vocab, net_cfg = _small_task(n_utts=24)
    scripted = iter([0.5, 0.4, 0.4, 0.4, 0.3, 0.3, 0.3, 0.3])

    def fake_eval(params, cfg, ds, vocab):
        return WerReport(0, 0, 0, 1, next(scripted))

    monkeypatch.setattr(train_mod, "evaluate_wer", fake_eval)
    stage = _stage(epochs=8, patience=3)
    params = init_parameters(net_cfg, seed=0)
    _, history = train_stage(params, net_cfg, train_ds, val_ds, stage, vocab)
    # improvement at 2, ties at 3-4, improvement at 5, ties 6-8 exhaust patience
    assert len(history.records) == 8
    assert history.best_epoch == 5


def test_best_epoch_weights_reproduce_recorded_wer():
    train_ds, val_ds, vocab, net_cfg = _small_task()
    stage = _stage(epochs=6, patience=None)
    params = init_parameters(net_cfg, seed=0)
    best, history = train_stage(params, net_cfg, train_ds, val_ds, stage, vocab)
    re_eval = evaluate_wer(best, net_cfg, val_ds, vocab)
    assert re_eval.wer == history.best_val_wer


def test_training_is_reproducible():
    train_ds, val_ds, vocab, net_cfg = _small_task()
    stage = _stage(epochs=3, dropout_rate=0.2)
    p1, h1 = train_stage(init_parameters(net_cfg, seed=0), net_cfg, train_ds, val_ds, stage, vocab)
    p2, h2 = train_stage(init_parameters(net_cfg, seed=0), net_cfg, train_ds, val_ds, stage, vocab)
    for name in p1:
        np.testing.assert_array_equal(p1[name], p2[name])
    assert [r.val_wer for r in h1.records] == [r.val_wer for r in h2.records]
    assert [r.train_loss for r in h1.records] == [r.train_loss for r in h2.records]


def test_infeasible_utterances_skipped_with_warning(caplog):
    train_ds, val_ds, vocab, net_cfg = _small_task(n_utts=40)
    # 8 frames -> U=2 cannot emit a 5-char transcript
    bad = Utterance("bad01", "spk000", np.zeros((8, 32), dtype=np.float32), "ab cd")
    data = Dataset(train_ds.utterances + [bad], "labeled")
    stage = _stage(epochs=1)
    params = init_parameters(net_cfg, seed=0)
    with caplog.at_level("WARNING"):
        _, history = train_stage(params, net_cfg, data, val_ds, stage, vocab)
    assert history.skipped_utterances == 1
    assert any("bad01" in rec.message for rec in caplog.records)


def test_too_many_infeasible_utterances_abort():
    train_ds, val_ds, vocab, net_cfg = _small_task(n_utts=20)
    bad = [Utterance(f"bad{i:02d}", "spk000", np.zeros((8, 32), dtype=np.float32), "abc de")
           for i in range(6)]
    data = Dataset(train_ds.utterances + bad, "labeled")
    stage = _stage(epochs=1)
    params = init_parameters(net_cfg, seed=0)
    with pytest.raises(ValueError, match="downsample"):
        train_stage(params, net_cfg, data, val_ds, stage, vocab)


def test_evaluate_wer_matches_external_decode():
    train_ds, val_ds, vocab, net_cfg = _small_task(n_utts=24)
    params = init_parameters(net_cfg, seed=3)
    report = evaluate_wer(params, net_cfg, val_ds, vocab)
    pairs = []
    for utt in val_ds:
        logits, _ = forward(params, net_cfg, utt.features, train_mode=False)
        pairs.append((utt.transcript, greedy_decode(logits, vocab).hypothesis))
    assert report.to_dict() == wer(pairs).to_dict()


def test_evaluate_wer_perfect_and_empty_decodes():
    train_ds, _, vocab, net_cfg = _small_task(n_utts=24)
    params = init_parameters(net_cfg, seed=3)
    decodes = decode_dataset(params, net_cfg, train_ds, vocab)
    perfect = wer([(u.transcript, u.transcript) for u in train_ds])
    assert perfect.wer == 0.0
    all_deletions = wer([(u.transcript, "") for u in train_ds])
    assert all_deletions.wer == 1.0
    assert len(decodes) == len(train_ds)


def test_chunked_decode_matches_single_utterance_decodes():
    train_ds, _, vocab, net_cfg = _small_task(n_utts=40)
    assert len(train_ds) > train_mod.DECODE_CHUNK  # crosses a chunk boundary
    params = init_parameters(net_cfg, seed=3)
    for utt, dec in zip(train_ds, decode_dataset(params, net_cfg, train_ds, vocab)):
        logits, _ = forward(params, net_cfg, utt.features, train_mode=False)
        single = greedy_decode(logits, vocab)
        assert dec.hypothesis == single.hypothesis
        np.testing.assert_array_equal(dec.frame_argmax, single.frame_argmax)
        assert dec.confidence == pytest.approx(single.confidence, rel=1e-12)


def test_every_utterance_trains_exactly_once_per_epoch(monkeypatch):
    train_ds, val_ds, vocab, net_cfg = _small_task(n_utts=24)
    seen: list[str] = []
    by_key = {u.features.tobytes(): u.id for u in train_ds}
    real_forward = train_mod.net.forward_batch

    def spy(params, cfg, features, train_mode=False, seeds=None):
        if train_mode:
            seen.extend(by_key[np.asarray(f, dtype=np.float32).tobytes()] for f in features)
        return real_forward(params, cfg, features, train_mode=train_mode, seeds=seeds)

    monkeypatch.setattr(train_mod.net, "forward_batch", spy)
    stage = _stage(epochs=2, batch_size=5)
    train_stage(init_parameters(net_cfg, seed=0), net_cfg, train_ds, val_ds, stage, vocab)
    n = len(train_ds)
    assert len(seen) == 2 * n
    assert sorted(seen[:n]) == sorted(u.id for u in train_ds)
    assert sorted(seen[n:]) == sorted(u.id for u in train_ds)
    assert seen[:n] != seen[n:]  # different epoch, different order


def test_nonfinite_gradient_raises_without_clipping(monkeypatch):
    train_ds, val_ds, vocab, net_cfg = _small_task(n_utts=24)
    real_backward = train_mod.net.backward_batch

    def poisoned(params, cfg, cache, dlogits):
        grads = real_backward(params, cfg, cache, dlogits)
        unflatten(cfg, grads)["ctx0_b"][1] = np.nan
        return grads

    monkeypatch.setattr(train_mod.net, "backward_batch", poisoned)
    stage = _stage(epochs=1, grad_clip_norm=None)
    with pytest.raises(FloatingPointError, match="'ctx0_b'"):
        train_stage(init_parameters(net_cfg, seed=0), net_cfg, train_ds, val_ds, stage, vocab)


def test_history_serialization(tmp_path):
    train_ds, val_ds, vocab, net_cfg = _small_task(n_utts=24)
    stage = _stage(epochs=2)
    params = init_parameters(net_cfg, seed=0)
    _, history = train_stage(params, net_cfg, train_ds, val_ds, stage, vocab)
    path = tmp_path / "history.jsonl"
    save_history(history, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == len(history.records) + 1  # one per epoch plus summary
    assert history.to_dict(with_timing=False)["records"][0].get("seconds") is None
