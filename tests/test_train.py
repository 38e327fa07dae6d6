"""Training loop: shuffling, early stopping, best-epoch selection, reproducibility."""

import ctypes
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

try:
    import resource
except ImportError:  # Unix only
    resource = None

import cptasr.train as train_mod
from cptasr.corpus import Dataset, SynthConfig, Utterance, build_vocabulary, generate_synthetic_corpus, speaker_disjoint_split
from cptasr.metrics import WerReport, wer
from cptasr.net import NetConfig, forward_batch, init_parameters, load_checkpoint, save_checkpoint, unflatten
from cptasr.ctc import LabelPlan, greedy_decode_batch
from cptasr.optim import StageConfig
from cptasr.train import EpochRecord, TrainHistory, decode_dataset, evaluate_wer, save_history, train_stage


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
    base = dict(learning_rate=1e-3, epochs=3, batch_size=8, label_smoothing=0.0, patience=None,
                dropout_rate=0.0, seed=7)
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


def test_patience_none_runs_all_epochs_and_zero_is_rejected(monkeypatch):
    train_ds, val_ds, vocab, net_cfg = _small_task(n_utts=24)
    # a constant WER would stop any patience after a few epochs
    monkeypatch.setattr(train_mod, "evaluate_wer", lambda *a: WerReport(0, 0, 0, 1, 0.5))
    stage = _stage(epochs=6, patience=None)
    _, history = train_stage(init_parameters(net_cfg, seed=0), net_cfg, train_ds, val_ds, stage, vocab)
    assert len(history.records) == 6
    assert not history.stopped_early
    with pytest.raises(ValueError, match="patience"):
        _stage(patience=0)


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


def test_start_is_untouched_and_best_is_not_the_live_vector(monkeypatch):
    """The parameter vector is updated in place, so the best epoch's weights must be a copy."""
    train_ds, val_ds, vocab, net_cfg = _small_task(n_utts=24)
    scripted = iter([0.2, 0.5, 0.5])  # epoch 1 is best of 3
    evaluated = []

    def fake_eval(theta, cfg, ds, vocab):
        evaluated.append(theta.copy())
        w = next(scripted)
        return WerReport(0, 0, 0, 1, w)

    monkeypatch.setattr(train_mod, "evaluate_wer", fake_eval)
    start = init_parameters(net_cfg, seed=0)
    start_copy = start.copy()
    best, history = train_stage(start, net_cfg, train_ds, val_ds, _stage(epochs=3), vocab)
    assert history.best_epoch == 1 and len(evaluated) == 3
    assert start.tobytes() == start_copy.tobytes()
    assert best.tobytes() == evaluated[0].tobytes()  # the weights after epoch 1, bit for bit
    assert not np.shares_memory(best, start)
    assert not np.array_equal(best, evaluated[2])


def test_best_epoch_weights_reproduce_recorded_wer():
    train_ds, val_ds, vocab, net_cfg = _small_task()
    stage = _stage(epochs=6, patience=None)
    params = init_parameters(net_cfg, seed=0)
    best, history = train_stage(params, net_cfg, train_ds, val_ds, stage, vocab)
    re_eval = evaluate_wer(best, net_cfg, val_ds, vocab)
    assert re_eval.wer == history.best_val_wer


def test_trained_parameters_are_float32_and_reload_bit_exact(tmp_path):
    train_ds, val_ds, vocab, net_cfg = _small_task(n_utts=24)
    best, _ = train_stage(init_parameters(net_cfg, seed=0), net_cfg, train_ds, val_ds, _stage(epochs=2), vocab)
    assert best.dtype == np.float32
    save_checkpoint(best, net_cfg, tmp_path / "model.ckpt")
    loaded, _ = load_checkpoint(tmp_path / "model.ckpt", expect_cfg=net_cfg)
    assert loaded.dtype == np.float32 and loaded.tobytes() == best.tobytes()
    assert evaluate_wer(loaded, net_cfg, val_ds, vocab) == evaluate_wer(best, net_cfg, val_ds, vocab)
    confidences = [[d.confidence for d in decode_dataset(p, net_cfg, val_ds, vocab)] for p in (loaded, best)]
    assert confidences[0] == confidences[1]


def test_training_is_reproducible():
    train_ds, val_ds, vocab, net_cfg = _small_task()
    stage = _stage(epochs=3, dropout_rate=0.2)
    p1, h1 = train_stage(init_parameters(net_cfg, seed=0), net_cfg, train_ds, val_ds, stage, vocab)
    p2, h2 = train_stage(init_parameters(net_cfg, seed=0), net_cfg, train_ds, val_ds, stage, vocab)
    assert p1.tobytes() == p2.tobytes()
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


def _crafted(utt_id, transcript, n_frames, net_cfg, seed):
    feats = np.random.default_rng(seed).normal(size=(n_frames, net_cfg.feature_dim)).astype(np.float32)
    return Utterance(utt_id, "spk-crafted", feats, transcript)


def test_stage_trains_on_exactly_the_rows_its_label_plan_can_emit(monkeypatch, caplog):
    """Feasible, repeat-bound, too-short and empty transcripts; 3 of 30 skipped (10 %) trains, a 4th aborts."""
    train_ds, val_ds, vocab, net_cfg = _small_task(n_utts=40)
    assert net_cfg.downsample_factor == 4
    crafted = [
        _crafted("ok-repeat", "aa", 12, net_cfg, 1),  # 3 downsampled frames emit a, blank, a
        _crafted("skip-repeat", "aa", 11, net_cfg, 2),  # 2 frames hold 2 labels, but not the blank between
        _crafted("ok-empty", "", 4, net_cfg, 3),  # an empty target needs one frame
        _crafted("skip-short", "abcd", 12, net_cfg, 4),
        _crafted("ok-tight", "abc", 13, net_cfg, 5),
        _crafted("skip-empty", "", 3, net_cfg, 6),  # no downsampled frame at all
    ]
    utts = list(train_ds)[:12] + crafted + list(train_ds)[12:24]
    data = Dataset(utts, "labeled")
    assert len(data) == 30
    want = [u for u in utts if not u.id.startswith("skip-")]

    by_key = {u.features.tobytes(): u for u in utts}
    seen: list = []
    real_forward, real_ctc = train_mod.net.forward_batch, train_mod.ctc.ctc_loss_and_grad_batch

    def forward_spy(params, cfg, features, dropout_rate=0.0, seeds=None):
        if seeds is not None:
            seen.append([by_key[np.asarray(f, dtype=np.float32).tobytes()] for f in features])
        return real_forward(params, cfg, features, dropout_rate=dropout_rate, seeds=seeds)

    def ctc_spy(logits, lengths, rows, smoothing=0.0):
        per_call = LabelPlan.build([vocab.encode(u.transcript) for u in seen[-1]], vocab.size + 1)
        for name in ("ext", "n_states", "rev_states", "rev_ext", "needed"):
            assert np.array_equal(getattr(rows, name), getattr(per_call, name)), name
        return real_ctc(logits, lengths, rows, smoothing)

    monkeypatch.setattr(train_mod.net, "forward_batch", forward_spy)
    monkeypatch.setattr(train_mod.ctc, "ctc_loss_and_grad_batch", ctc_spy)
    stage = _stage(epochs=1)
    with caplog.at_level("WARNING", logger="cptasr.train"):
        _, history = train_stage(init_parameters(net_cfg, seed=0), net_cfg, data, val_ds, stage, vocab)
    assert history.skipped_utterances == 3
    # the kept utterances stay in data order, so the epoch's shuffle of them is reproducible from outside
    order = np.random.default_rng([stage.seed, 1]).permutation(len(want))
    assert [u.id for batch in seen for u in batch] == [want[i].id for i in order]
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert warnings == ["skipping utterance skip-repeat: 2 downsampled frames cannot emit 'aa'",
                        "skipping utterance skip-short: 3 downsampled frames cannot emit 'abcd'",
                        "skipping utterance skip-empty: 0 downsampled frames cannot emit ''"]

    one_more = Dataset(utts + [_crafted("skip-repeat-2", "abb", 12, net_cfg, 7)], "labeled")
    with pytest.raises(ValueError, match=r"^4/31 utterances are CTC-infeasible after downsampling; "
                                         r"check downsample_factor=4$"):
        train_stage(init_parameters(net_cfg, seed=0), net_cfg, one_more, val_ds, stage, vocab)


def test_out_of_vocabulary_training_character_names_the_utterance():
    train_ds, val_ds, vocab, net_cfg = _small_task(n_utts=24)
    odd = Utterance("odd01", "spk000", np.zeros((40, 32), dtype=np.float32), "ab z")
    data = Dataset(train_ds.utterances + [odd], "labeled")
    with pytest.raises(ValueError, match="'odd01'.*'z' not in vocabulary"):
        train_stage(init_parameters(net_cfg, seed=0), net_cfg, data, val_ds, _stage(epochs=1), vocab)


def test_label_plan_is_built_once_per_stage_and_checks_label_ranges_before_training(monkeypatch):
    train_ds, val_ds, vocab, net_cfg = _small_task(n_utts=24)
    real_build = train_mod.ctc.LabelPlan.build
    builds = []

    def spy(labels, n_classes):
        builds.append(len(labels))
        return real_build(labels, n_classes)

    monkeypatch.setattr(train_mod.ctc.LabelPlan, "build", spy)
    train_stage(init_parameters(net_cfg, seed=0), net_cfg, train_ds, val_ds, _stage(epochs=3, batch_size=5), vocab)
    assert builds == [len(train_ds)]

    def no_forward(*args, **kwargs):
        raise AssertionError("forward_batch ran before the label ranges were checked")

    monkeypatch.setattr(train_mod.net, "forward_batch", no_forward)
    small = replace(net_cfg, vocab_size=vocab.size - 1)  # the last symbol's label is past the head's classes
    assert any(vocab.symbols[-1] in u.transcript for u in train_ds)
    with pytest.raises(ValueError, match=rf"labels must lie in \[1, {vocab.size - 1}\]"):
        train_stage(init_parameters(small, seed=0), small, train_ds, val_ds, _stage(epochs=1), vocab)


def test_empty_validation_set_is_rejected_before_any_forward_pass(monkeypatch):
    train_ds, val_ds, vocab, net_cfg = _small_task(n_utts=24)

    def no_forward(*args, **kwargs):
        raise AssertionError("forward_batch ran before the validation set was checked")

    monkeypatch.setattr(train_mod.net, "forward_batch", no_forward)
    # no utterances at all, and utterances whose transcripts are all empty
    for val in (Dataset([], "labeled"), Dataset([replace(u, transcript="") for u in val_ds], "labeled")):
        with pytest.raises(ValueError, match="validation dataset is empty"):
            train_stage(init_parameters(net_cfg, seed=0), net_cfg, train_ds, val, _stage(epochs=1), vocab)


def test_evaluate_wer_matches_external_decode():
    train_ds, val_ds, vocab, net_cfg = _small_task(n_utts=24)
    params = init_parameters(net_cfg, seed=3)
    report = evaluate_wer(params, net_cfg, val_ds, vocab)
    pairs = []
    for utt in val_ds:
        logits, cache = forward_batch(params, net_cfg, [utt.features])
        pairs.append((utt.transcript, greedy_decode_batch(logits, cache.lengths, vocab)[0].hypothesis))
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
        logits, cache = forward_batch(params, net_cfg, [utt.features])
        single = greedy_decode_batch(logits, cache.lengths, vocab)[0]
        assert dec.hypothesis == single.hypothesis
        assert dec.confidence == pytest.approx(single.confidence, rel=1e-12)


def test_decode_dataset_builds_no_forward_cache(monkeypatch):
    train_ds, _, vocab, net_cfg = _small_task(n_utts=40)
    params = init_parameters(net_cfg, seed=3).astype(np.float32)
    real_cache = train_mod.net.ForwardCache
    built = []

    def spy(*args, **kwargs):
        built.append(kwargs)
        return real_cache(*args, **kwargs)

    monkeypatch.setattr(train_mod.net, "ForwardCache", spy)
    decodes = decode_dataset(params, net_cfg, train_ds, vocab)
    assert len(decodes) == len(train_ds) > train_mod.DECODE_CHUNK
    assert built == []
    forward_batch(params, net_cfg, [utt.features for utt in train_ds])  # a training pass builds one
    assert len(built) == 1


def test_default_net_epoch_on_long_transcripts_never_takes_the_log_space_fallback():
    """One epoch of the default-size net on 20-30 character transcripts stays in the probability-space lattice."""
    cfg = SynthConfig(n_speakers=6, n_utterances=48, labeled_fraction=1.0, chars_per_utterance=(20, 30), seed=3)
    labeled, _, _ = generate_synthetic_corpus(cfg)
    vocab = build_vocabulary(labeled.transcripts())
    train_ds, val_ds = speaker_disjoint_split(labeled, 8, seed=1)
    assert 36 <= len(train_ds) <= 44
    chars = [len(u.transcript) for u in train_ds]  # the generator overshoots by at most one word
    assert min(chars) >= 20 and np.median(chars) <= 30
    net_cfg = NetConfig(feature_dim=cfg.feature_dim, vocab_size=vocab.size)
    stage = _stage(epochs=1, dropout_rate=0.1, label_smoothing=0.1)
    with mock.patch.object(train_mod.ctc, "_lattice", wraps=train_mod.ctc._lattice) as log_space, \
            mock.patch.object(train_mod.ctc, "_scaled_lattice", wraps=train_mod.ctc._scaled_lattice) as scaled:
        _, history = train_stage(init_parameters(net_cfg, seed=0), net_cfg, train_ds, val_ds, stage, vocab)
    assert history.skipped_utterances == 0
    assert scaled.call_count == math.ceil(len(train_ds) / stage.batch_size)
    assert log_space.call_count == 0


def test_epoch_records_count_the_clipped_steps(monkeypatch):
    train_ds, val_ds, vocab, net_cfg = _small_task(n_utts=40)
    real_clip = train_mod.optim.clip_gradients
    norms = []

    def spy(grads, max_norm):
        assert max_norm == train_mod.optim.GRAD_CLIP_NORM
        norms.append(float(np.linalg.norm(grads)))
        return real_clip(grads, max_norm)

    monkeypatch.setattr(train_mod.optim, "clip_gradients", spy)
    # a bound of 15 clips most of the first epoch's steps and a few of each later epoch's
    monkeypatch.setattr(train_mod.optim, "GRAD_CLIP_NORM", 15.0)
    stage = _stage(epochs=4, batch_size=4)
    _, history = train_stage(init_parameters(net_cfg, seed=0), net_cfg, train_ds, val_ds, stage, vocab)
    steps = math.ceil(len(train_ds) / stage.batch_size)
    assert len(norms) == 4 * steps
    want = [sum(n > train_mod.optim.GRAD_CLIP_NORM for n in norms[e * steps : (e + 1) * steps]) for e in range(4)]
    assert [r.clipped_steps for r in history.records] == want
    assert any(0 < count < steps for count in want)  # an epoch that clipped some steps and not others
    assert all(type(r.clipped_steps) is int for r in history.records)
    assert [r["clipped_steps"] for r in history.to_dict(with_timing=False)["records"]] == want


def test_every_utterance_trains_exactly_once_per_epoch(monkeypatch):
    train_ds, val_ds, vocab, net_cfg = _small_task(n_utts=24)
    seen: list[str] = []
    by_key = {u.features.tobytes(): u.id for u in train_ds}
    real_forward = train_mod.net.forward_batch

    def spy(params, cfg, features, dropout_rate=0.0, seeds=None):
        if seeds is not None:
            seen.extend(by_key[np.asarray(f, dtype=np.float32).tobytes()] for f in features)
        return real_forward(params, cfg, features, dropout_rate=dropout_rate, seeds=seeds)

    monkeypatch.setattr(train_mod.net, "forward_batch", spy)
    stage = _stage(epochs=2, batch_size=5)
    train_stage(init_parameters(net_cfg, seed=0), net_cfg, train_ds, val_ds, stage, vocab)
    n = len(train_ds)
    assert len(seen) == 2 * n
    assert sorted(seen[:n]) == sorted(u.id for u in train_ds)
    assert sorted(seen[n:]) == sorted(u.id for u in train_ds)
    assert seen[:n] != seen[n:]  # different epoch, different order


def test_nonfinite_gradient_raises_naming_its_tensor(monkeypatch):
    """The named-tensor check runs before clipping, whose own check would name no tensor."""
    train_ds, val_ds, vocab, net_cfg = _small_task(n_utts=24)
    real_backward = train_mod.net.backward_batch

    def poisoned(params, cfg, cache, dlogits):
        grads = real_backward(params, cfg, cache, dlogits)
        unflatten(cfg, grads)["ctx0_b"][1] = np.nan
        return grads

    monkeypatch.setattr(train_mod.net, "backward_batch", poisoned)
    stage = _stage(epochs=1)
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


def test_saved_history_line_layout_is_pinned(tmp_path):
    history = TrainHistory(
        records=[EpochRecord(epoch=1, train_loss=2.5, val_wer=0.75, lr=0.0001, clipped_steps=4, seconds=1.5),
                 EpochRecord(epoch=2, train_loss=1.25, val_wer=0.5, lr=0.0, clipped_steps=0, seconds=0.5)],
        best_epoch=2, stopped_early=True, skipped_utterances=3,
    )
    path = tmp_path / "history.jsonl"
    save_history(history, path)
    assert path.read_text().splitlines() == [
        '{"epoch": 1, "train_loss": 2.5, "val_wer": 0.75, "lr": 0.0001, "clipped_steps": 4, "seconds": 1.5}',
        '{"epoch": 2, "train_loss": 1.25, "val_wer": 0.5, "lr": 0.0, "clipped_steps": 0, "seconds": 0.5}',
        '{"best_epoch": 2, "stopped_early": true, "skipped_utterances": 3}',
    ]


def _too_short(utt_id, net_cfg, transcript="ab"):
    """An utterance with fewer frames than one downsampled step."""
    feats = np.ones((net_cfg.downsample_factor - 1, net_cfg.feature_dim), dtype=np.float32)
    return Utterance(utt_id, "short-speaker", feats, transcript)


def test_decode_gives_too_short_utterances_empty_results_without_a_forward_pass(monkeypatch, caplog):
    train_ds, _, vocab, net_cfg = _small_task(n_utts=24)
    params = init_parameters(net_cfg, seed=3)
    utts = list(train_ds)
    mixed = Dataset(utts[:3] + [_too_short("short-1", net_cfg)] + utts[3:] + [_too_short("short-2", net_cfg)],
                    "labeled")
    real_infer = train_mod.net.infer_batch
    passes = []

    def spy(params, cfg, features):
        assert min(len(f) for f in features) >= cfg.downsample_factor
        passes.append(len(features))
        return real_infer(params, cfg, features)

    monkeypatch.setattr(train_mod.net, "infer_batch", spy)
    with caplog.at_level("WARNING", logger="cptasr.train"):
        decodes = decode_dataset(params, net_cfg, mixed, vocab)
    assert sum(passes) == len(mixed) - 2  # the decode passes are the ones the spy checked
    assert len(decodes) == len(mixed)
    for i in (3, len(mixed) - 1):
        assert (decodes[i].hypothesis, decodes[i].confidence) == ("", 0.0)
    for utt, dec in zip(mixed, decodes):
        if utt.duration_frames >= net_cfg.downsample_factor:
            logits, lengths = real_infer(params, net_cfg, [utt.features])
            assert dec.hypothesis == greedy_decode_batch(logits, lengths, vocab)[0].hypothesis
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1 and warnings[0].startswith(f"2 of {len(mixed)} utterances are shorter")


def test_train_stage_validates_on_a_too_short_utterance():
    train_ds, val_ds, vocab, net_cfg = _small_task(n_utts=24)
    val = Dataset(list(val_ds) + [_too_short("short-val", net_cfg)], "labeled")
    _, history = train_stage(init_parameters(net_cfg, seed=0), net_cfg, train_ds, val, _stage(epochs=1), vocab)
    # the short utterance decodes to nothing, so its one reference word counts as a deletion
    assert len(history.records) == 1 and history.records[0].val_wer > 0


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(resource is None or not _has_mallopt(), reason="needs getrusage and glibc's mallopt")
def test_long_utterance_training_keeps_its_heap_and_stays_almost_fault_free():
    """A repeated stage faults in no fresh pages: the freed heap of one step serves the next."""
    cfg = SynthConfig(n_speakers=6, n_utterances=20, labeled_fraction=1.0,
                      chars_per_utterance=(20, 30), frames_per_char=(6, 10), seed=5)
    labeled, _, _ = generate_synthetic_corpus(cfg)
    vocab = build_vocabulary(labeled.transcripts())
    train_ds, val_ds = speaker_disjoint_split(labeled, 4, seed=1)
    assert np.mean([utt.duration_frames for utt in train_ds]) > 180
    net_cfg = NetConfig(feature_dim=cfg.feature_dim, vocab_size=vocab.size)
    stage = _stage(epochs=2, batch_size=8)
    start = init_parameters(net_cfg, seed=0)
    train_stage(start, net_cfg, train_ds, val_ds, stage, vocab)  # warms the heap
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train_stage(start, net_cfg, train_ds, val_ds, stage, vocab)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    steps = stage.epochs * math.ceil(len(train_ds) / stage.batch_size)
    # without the heap pad each step faults its temporaries in afresh: over a thousand faults
    assert faults / steps < 50, f"{faults} minor faults in {steps} steps"


@pytest.mark.parametrize("missing", ["library", "mallopt"])
def test_training_without_mallopt_runs_and_gives_the_same_parameters(monkeypatch, missing):
    train_ds, val_ds, vocab, net_cfg = _small_task(n_utts=24)
    start, stage = init_parameters(net_cfg, seed=0), _stage(epochs=2)
    want, _ = train_stage(start, net_cfg, train_ds, val_ds, stage, vocab)
    opened = []

    def fake_cdll(name):
        opened.append(name)
        if missing == "library":  # as on Windows
            raise OSError("no C library handle")
        return object()  # a C library without mallopt, as on macOS

    monkeypatch.setattr(ctypes, "CDLL", fake_cdll)
    got, _ = train_stage(start, net_cfg, train_ds, val_ds, stage, vocab)
    assert opened == [None]
    assert got.tobytes() == want.tobytes()
