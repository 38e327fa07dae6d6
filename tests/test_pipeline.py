"""Pseudo-label filtering and the staged pipeline's contracts."""

import logging
from dataclasses import replace

import numpy as np
import pytest

import cptasr.pipeline as pipeline_mod
from cptasr.corpus import Dataset, SynthConfig, Utterance, build_vocabulary, generate_synthetic_corpus, speaker_disjoint_split
from cptasr.net import NetConfig, init_parameters, load_checkpoint, save_checkpoint
from cptasr.optim import preset
from cptasr.pipeline import (
    EmptyPseudoLabelPoolError,
    PseudoLabel,
    cpt_stage,
    filter_pseudo_labels,
    generate_pseudo_labels,
    labeler_stage,
    run_baseline,
    run_cpt_pipeline,
    validation_split,
)
from cptasr.train import evaluate_wer, train_stage


def test_filter_threshold_is_strict():
    labels = [PseudoLabel("u1", "ab", 0.9), PseudoLabel("u2", "cd", 0.7)]
    kept, stats = filter_pseudo_labels(labels, 0.75)
    assert [l.utterance_id for l in kept] == ["u1"]
    assert (stats.total, stats.kept, stats.below_threshold, stats.empty_dropped) == (2, 1, 1, 0)
    # exactly at the threshold is not "exceeding" it
    kept, _ = filter_pseudo_labels([PseudoLabel("u3", "x", 0.75)], 0.75)
    assert kept == []


def test_filter_zero_threshold_keeps_all_nonempty():
    labels = [PseudoLabel("u1", "ab", 0.2), PseudoLabel("u2", "", 0.99), PseudoLabel("u3", "c", 0.01)]
    kept, stats = filter_pseudo_labels(labels, 0.0)
    assert [l.utterance_id for l in kept] == ["u1", "u3"]
    assert stats.empty_dropped == 1


def test_filter_threshold_one_keeps_none():
    labels = [PseudoLabel("u1", "ab", 0.999999)]
    kept, stats = filter_pseudo_labels(labels, 1.0)
    assert kept == []
    assert stats.below_threshold == 1


def test_filter_empty_dropped_regardless_of_confidence():
    kept, stats = filter_pseudo_labels([PseudoLabel("u1", "", 0.99)], 0.0)
    assert kept == []
    assert stats.empty_dropped == 1


def test_filter_kept_count_monotone_in_threshold():
    rng = np.random.default_rng(0)
    labels = [PseudoLabel(f"u{i}", "ab", float(c)) for i, c in enumerate(rng.random(200))]
    counts = [filter_pseudo_labels(labels, t)[1].kept for t in (0.0, 0.25, 0.5, 0.75, 0.9, 1.0)]
    assert counts == sorted(counts, reverse=True)
    assert counts[-1] == 0


def test_filter_rejects_bad_threshold():
    with pytest.raises(ValueError):
        filter_pseudo_labels([], 1.5)


def _pipeline_fixture(n_utterances=260, labeled_fraction=0.5, corpus_seed=23):
    synth = SynthConfig(n_speakers=8, n_utterances=n_utterances, labeled_fraction=labeled_fraction,
                        seed=corpus_seed)
    labeled_all, unlabeled, truth = generate_synthetic_corpus(synth)
    vocab = build_vocabulary(labeled_all.transcripts())
    labeled, eval_ds = speaker_disjoint_split(labeled_all, max(8, len(labeled_all) // 6), seed=2)
    net_cfg = NetConfig(feature_dim=synth.feature_dim, vocab_size=vocab.size, downsample_factor=4,
                        conv_layers=1, conv_channels=16, context_layers=1, hidden_dim=24,
                        context_window=2)
    return labeled, unlabeled, eval_ds, truth, vocab, net_cfg


def _quick_stages(seed_base=5000):
    s1 = preset("stage1", learning_rate=1e-3, epochs=3, seed=seed_base + 1)
    s2 = preset("stage2-cpt", learning_rate=5e-4, epochs=1, seed=seed_base + 2)
    s3 = preset("stage3-finetune", learning_rate=1e-3, epochs=2, seed=seed_base + 3)
    return s1, s2, s3


def test_generate_pseudo_labels_ordering_and_stats():
    labeled, pool, eval_ds, truth, vocab, net_cfg = _pipeline_fixture()
    params = init_parameters(net_cfg, seed=1)
    ds1, stats1 = generate_pseudo_labels(params, net_cfg, pool, 0.0, vocab)
    reversed_pool = Dataset(pool.utterances[::-1], "unlabeled")
    ds2, stats2 = generate_pseudo_labels(params, net_cfg, reversed_pool, 0.0, vocab)
    assert [u.id for u in ds1] == [u.id for u in ds2] == sorted(u.id for u in ds1)
    assert stats1.to_dict() == stats2.to_dict()
    assert stats1.total == len(pool)
    assert stats1.kept + stats1.empty_dropped + stats1.below_threshold == stats1.total
    assert ds1.kind == "pseudo_labeled"
    for utt, label in zip(ds1, (l for l in stats1.labels if l.hypothesis)):
        assert utt.transcript == label.hypothesis


def test_generate_pseudo_labels_requires_unlabeled_pool():
    labeled, pool, eval_ds, truth, vocab, net_cfg = _pipeline_fixture()
    params = init_parameters(net_cfg, seed=1)
    with pytest.raises(ValueError):
        generate_pseudo_labels(params, net_cfg, labeled, 0.5, vocab)


def test_generate_pseudo_labels_rejects_bad_threshold_before_decoding(monkeypatch):
    labeled, pool, eval_ds, truth, vocab, net_cfg = _pipeline_fixture(n_utterances=120)
    params = init_parameters(net_cfg, seed=1)

    def no_decoding(*args, **kwargs):
        raise AssertionError("decode_dataset ran before the threshold was checked")

    monkeypatch.setattr("cptasr.train.decode_dataset", no_decoding)
    for threshold in (1.5, -0.1):
        with pytest.raises(ValueError, match=r"threshold must lie in \[0, 1\], got "):
            generate_pseudo_labels(params, net_cfg, pool, threshold, vocab)


def test_generate_pseudo_labels_raises_when_nothing_is_kept():
    labeled, pool, eval_ds, truth, vocab, net_cfg = _pipeline_fixture()
    params = init_parameters(net_cfg, seed=1)
    with pytest.raises(EmptyPseudoLabelPoolError, match="threshold 1.0"):
        generate_pseudo_labels(params, net_cfg, pool, 1.0, vocab)


def test_pipeline_report_bookkeeping_and_checkpoints(tmp_path):
    labeled, pool, eval_ds, truth, vocab, net_cfg = _pipeline_fixture()
    s1, s2, s3 = _quick_stages()
    final, report = run_cpt_pipeline(labeled, pool, eval_ds, s1, s2, s3, net_cfg, 0.25, vocab)
    assert report.pool_total == len(pool)
    assert report.pool_kept == report.pseudo_label_stats.kept
    assert 0 <= report.labeler_history.best_val_wer
    # the CLI chain hands each stage's model on through a checkpoint: the round trip is exact
    save_checkpoint(final, net_cfg, tmp_path / "final.ckpt")
    final_saved, _ = load_checkpoint(tmp_path / "final.ckpt", expect_cfg=net_cfg)
    np.testing.assert_array_equal(final, final_saved)


def test_pipeline_deterministic_and_checkpoint_reload_neutral(tmp_path):
    labeled, pool, eval_ds, truth, vocab, net_cfg = _pipeline_fixture()
    s1, s2, s3 = _quick_stages()
    final1, rep1 = run_cpt_pipeline(labeled, pool, eval_ds, s1, s2, s3, net_cfg, 0.25, vocab)
    final2, rep2 = run_cpt_pipeline(labeled, pool, eval_ds, s1, s2, s3, net_cfg, 0.25, vocab)
    assert rep1.to_dict() == rep2.to_dict()
    np.testing.assert_array_equal(final1, final2)
    # scoring the reloaded checkpoint, as ``cptasr pipeline`` does, gives the report's final WER
    save_checkpoint(final1, net_cfg, tmp_path / "final.ckpt")
    reloaded, _ = load_checkpoint(tmp_path / "final.ckpt", expect_cfg=net_cfg)
    assert evaluate_wer(reloaded, net_cfg, eval_ds, vocab).to_dict() == rep1.final_eval_wer.to_dict()


def test_pipeline_threshold_one_aborts_with_empty_pool():
    labeled, pool, eval_ds, truth, vocab, net_cfg = _pipeline_fixture(n_utterances=120)
    s1, s2, s3 = _quick_stages()
    with pytest.raises(EmptyPseudoLabelPoolError):
        run_cpt_pipeline(labeled, pool, eval_ds, s1, s2, s3, net_cfg, 1.0, vocab)


def test_pipeline_rejects_bad_threshold_before_training(monkeypatch):
    labeled, pool, eval_ds, truth, vocab, net_cfg = _pipeline_fixture(n_utterances=120)
    s1, s2, s3 = _quick_stages()

    def no_training(*args, **kwargs):
        raise AssertionError("train_stage ran before the threshold was checked")

    monkeypatch.setattr("cptasr.train.train_stage", no_training)
    for threshold in (1.5, -0.1):
        with pytest.raises(ValueError, match="threshold"):
            run_cpt_pipeline(labeled, pool, eval_ds, s1, s2, s3, net_cfg, threshold, vocab)


def test_pipeline_rejects_id_overlap_and_speaker_leak():
    labeled, pool, eval_ds, truth, vocab, net_cfg = _pipeline_fixture(n_utterances=120)
    s1, s2, s3 = _quick_stages()
    leaky_pool = Dataset(
        [Utterance(labeled.utterances[0].id, "spkX", np.zeros((8, 32), dtype=np.float32))]
        + pool.utterances[:5], "unlabeled")
    with pytest.raises(ValueError, match="share utterance ids"):
        run_cpt_pipeline(labeled, leaky_pool, eval_ds, s1, s2, s3, net_cfg, 0.5, vocab)
    bad_eval = Dataset(
        [Utterance(f"leak{i}", u.speaker_id, u.features, u.transcript)
         for i, u in enumerate(labeled.utterances[:3])], "labeled")
    with pytest.raises(ValueError, match="speaker"):
        run_cpt_pipeline(labeled, pool, bad_eval, s1, s2, s3, net_cfg, 0.5, vocab)


def test_pipeline_rejects_eval_utterances_in_the_pool_before_training(monkeypatch):
    """CPT would train on pseudo-labels of the eval audio: no two of the run's datasets may share an id."""
    labeled, pool, eval_ds, truth, vocab, net_cfg = _pipeline_fixture(n_utterances=120)
    s1, s2, s3 = _quick_stages()

    def no_training(*args, **kwargs):
        raise AssertionError("train_stage ran before the datasets were checked")

    monkeypatch.setattr("cptasr.train.train_stage", no_training)
    leaky_pool = Dataset(pool.utterances + [replace(u, transcript=None) for u in eval_ds], "unlabeled")
    with pytest.raises(ValueError, match="share utterance ids"):
        run_cpt_pipeline(labeled, leaky_pool, eval_ds, s1, s2, s3, net_cfg, 0.5, vocab)


def test_baseline_rejects_eval_speaker_in_labeled_data():
    labeled, pool, eval_ds, truth, vocab, net_cfg = _pipeline_fixture(n_utterances=120)
    s1, _, _ = _quick_stages()
    spy = eval_ds.utterances[0]
    leaky = Dataset(labeled.utterances + [Utterance("leak0", spy.speaker_id, spy.features, spy.transcript)],
                    "labeled")
    with pytest.raises(ValueError, match="speaker"):
        run_baseline(leaky, eval_ds, s1, net_cfg, vocab)


def test_cpt_stage_rejects_pseudo_id_shared_with_labeled():
    labeled, pool, eval_ds, truth, vocab, net_cfg = _pipeline_fixture(n_utterances=120)
    s1, s2, _ = _quick_stages()
    train, val = validation_split(labeled, s1)
    for twin in (train.utterances[0], val.utterances[0]):
        pseudo = Dataset([Utterance(twin.id, "spkX", twin.features, twin.transcript)], "pseudo_labeled")
        with pytest.raises(ValueError, match="share utterance ids"):
            cpt_stage(pseudo, train, val, s2, net_cfg, vocab)


def test_pipeline_is_exactly_its_stages(monkeypatch):
    labeled, pool, eval_ds, truth, vocab, net_cfg = _pipeline_fixture()
    s1, s2, s3 = _quick_stages()
    splits = []

    def counted_split(*args):
        splits.append(args)
        return validation_split(*args)

    monkeypatch.setattr(pipeline_mod, "validation_split", counted_split)
    final, report = run_cpt_pipeline(labeled, pool, eval_ds, s1, s2, s3, net_cfg, 0.25, vocab)
    assert len(splits) == 1

    train, val = validation_split(labeled, s1)
    labeler, labeler_history = labeler_stage(train, val, s1, net_cfg, vocab)
    pseudo, _ = generate_pseudo_labels(labeler, net_cfg, pool, 0.25, vocab)
    cpt, cpt_history = cpt_stage(pseudo, train, val, s2, net_cfg, vocab)
    by_hand, finetune_history = train_stage(cpt, net_cfg, train, val, s3, vocab)

    assert np.array_equal(by_hand, final)
    for history, piped in ((labeler_history, report.labeler_history), (cpt_history, report.cpt_history),
                           (finetune_history, report.finetune_history)):
        assert history.to_dict(with_timing=False) == piped.to_dict(with_timing=False)


def test_stages_validate_on_a_dev_set_of_other_speakers():
    labeled, pool, eval_ds, truth, vocab, net_cfg = _pipeline_fixture()
    # rates high enough that the labeler's dev WER lands strictly between 0 and 1
    s1 = preset("stage1", learning_rate=1e-2, epochs=4, seed=5001)
    s2 = preset("stage2-cpt", learning_rate=5e-3, epochs=2, seed=5002)
    s3 = preset("stage3-finetune", learning_rate=1e-2, epochs=2, seed=5003)
    train, dev = speaker_disjoint_split(labeled, 16, seed=11)
    assert not train.speakers() & dev.speakers()
    split_val = validation_split(labeled, s1)[1]

    labeler, labeler_history = labeler_stage(train, dev, s1, net_cfg, vocab)
    pseudo, _ = generate_pseudo_labels(labeler, net_cfg, pool, 0.25, vocab)
    cpt, cpt_history = cpt_stage(pseudo, train, dev, s2, net_cfg, vocab)
    final, finetune_history = train_stage(cpt, net_cfg, train, dev, s3, vocab)
    for params, history in ((labeler, labeler_history), (cpt, cpt_history), (final, finetune_history)):
        assert history.best_val_wer == evaluate_wer(params, net_cfg, dev, vocab).wer
    assert 0 < labeler_history.best_val_wer < 1
    assert labeler_history.best_val_wer != evaluate_wer(labeler, net_cfg, split_val, vocab).wer


def test_baseline_equals_pipeline_stage_a(monkeypatch):
    labeled, pool, eval_ds, truth, vocab, net_cfg = _pipeline_fixture()
    s1, s2, s3 = _quick_stages()
    labelers = []

    def spied_labeler_stage(*args):
        params, history = labeler_stage(*args)
        labelers.append(params.copy())
        return params, history

    monkeypatch.setattr(pipeline_mod, "labeler_stage", spied_labeler_stage)
    run_cpt_pipeline(labeled, pool, eval_ds, s1, s2, s3, net_cfg, 0.25, vocab)
    assert len(labelers) == 1
    baseline_params, report, history = run_baseline(labeled, eval_ds, s1, net_cfg, vocab)
    np.testing.assert_array_equal(labelers[0], baseline_params)


def test_baseline_is_one_labeler_stage_on_the_split_and_neither_warns(monkeypatch, caplog):
    labeled, pool, eval_ds, truth, vocab, net_cfg = _pipeline_fixture()
    s1, _, _ = _quick_stages()
    calls = []

    def spied_labeler_stage(*args):
        calls.append(args)
        return labeler_stage(*args)

    monkeypatch.setattr(pipeline_mod, "labeler_stage", spied_labeler_stage)
    with caplog.at_level(logging.WARNING, logger="cptasr.pipeline"):  # run_baseline's labeler_stage is the real one
        _, _, history = run_baseline(labeled, eval_ds, s1, net_cfg, vocab)
    assert history.best_val_wer >= 0.25  # a weak labeler: no validation WER makes stage A warn
    assert len(calls) == 1
    train, val = validation_split(labeled, s1)
    got_train, got_val, got_cfg, got_net, got_vocab = calls[0]
    assert [u.id for u in got_train] == [u.id for u in train] and [u.id for u in got_val] == [u.id for u in val]
    assert (got_cfg, got_net, got_vocab) == (s1, net_cfg, vocab)
    assert not [r for r in caplog.records if r.name == "cptasr.pipeline" and r.levelno >= logging.WARNING]


def test_too_short_pool_utterance_is_counted_as_empty():
    labeled, pool, eval_ds, truth, vocab, net_cfg = _pipeline_fixture(n_utterances=80)
    params = init_parameters(net_cfg, seed=1)
    short = Utterance("zz-short", "short-speaker", np.ones((net_cfg.downsample_factor - 1, net_cfg.feature_dim)))
    _, stats = generate_pseudo_labels(params, net_cfg, pool, 0.0, vocab)
    _, with_short = generate_pseudo_labels(params, net_cfg, Dataset(pool.utterances + [short], "unlabeled"),
                                           0.0, vocab)
    assert with_short.total == stats.total + 1
    assert with_short.empty_dropped == stats.empty_dropped + 1
    assert (with_short.kept, with_short.below_threshold) == (stats.kept, stats.below_threshold)
    assert with_short.labels[-1] == PseudoLabel("zz-short", "", 0.0)
