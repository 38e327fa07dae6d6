"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 4 runs the full scaled pipeline experiment (fixed corpus, five
training seeds, three arms) once; criteria 5 and 6 reuse its artifacts.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass.
"""

import json
import time

import numpy as np
import pytest

import cptasr.train as train_mod
from cptasr.corpus import Dataset, SynthConfig, Vocabulary, build_vocabulary, generate_synthetic_corpus, speaker_disjoint_split
from cptasr.ctc import ctc_loss_and_grad_batch
from cptasr.metrics import WerReport, edit_distance, relative_improvement, wer
from cptasr.net import NetConfig, backward_batch, forward_batch, init_parameters, unflatten
from cptasr.optim import StageConfig, preset
from cptasr.pipeline import filter_pseudo_labels, generate_pseudo_labels, run_baseline, run_cpt_pipeline
from cptasr.train import train_stage

from oracles import (
    assert_grad_close,
    central_difference_grad,
    ctc_loss_by_enumeration,
    edit_cost_recursive,
    random_feasible_instance,
)

# ---------------------------------------------------------------------------
# The scaled pipeline experiment: a fixed synthetic corpus and five training
# seeds. Preset stage shapes are kept (epochs, batch size, warmup, weight
# decay, smoothing, patience) with learning rates scaled x10 for desk scale.

CORPUS_SEED = 23
ACCEPTANCE_SEEDS = (0, 1, 2, 3, 4)
THRESHOLD = 0.75

SYNTH = SynthConfig(
    n_speakers=18,
    n_utterances=2900,
    labeled_fraction=0.31,
    chars_per_utterance=(3, 6),
    frames_per_char=(6, 10),
    feature_dim=32,
    noise_sigma=0.55,
    speaker_shift_sigma=1.7,
    seed=CORPUS_SEED,
    alphabet="abcde",
)

NET = dict(downsample_factor=4, conv_layers=1, conv_channels=24,
           context_layers=1, hidden_dim=32, context_window=3)

LR_SCALE = 10.0


def _stages(seed: int) -> tuple[StageConfig, StageConfig, StageConfig, StageConfig]:
    s1 = preset("stage1", learning_rate=1e-4 * LR_SCALE, seed=1000 * seed + 1)
    s2 = preset("stage2-cpt", learning_rate=5e-5 * LR_SCALE, seed=1000 * seed + 2)
    s3 = preset("stage3-finetune", learning_rate=1e-4 * LR_SCALE, seed=1000 * seed + 3)
    bl = preset("baseline", learning_rate=1e-4 * LR_SCALE, seed=1000 * seed + 1)
    return s1, s2, s3, bl


@pytest.fixture(scope="module")
def experiment():
    """Run pipeline + both baselines for every acceptance seed, once."""
    tic = time.perf_counter()
    labeled_all, unlabeled, truth = generate_synthetic_corpus(SYNTH)
    vocab = build_vocabulary(labeled_all.transcripts())
    train_all, eval_ds = speaker_disjoint_split(labeled_all, 150, seed=CORPUS_SEED)
    lab200 = Dataset(train_all.utterances[:200], "labeled")
    lab500 = Dataset(train_all.utterances[:500], "labeled")
    pool = Dataset(unlabeled.utterances[:2000], "unlabeled")
    assert len(labeled_all.speakers()) >= 5
    assert len(pool) == 2000 and len(lab200) == 200 and len(lab500) == 500
    assert lab200.speakers().isdisjoint(eval_ds.speakers())

    net_cfg = NetConfig(feature_dim=SYNTH.feature_dim, vocab_size=vocab.size, **NET)
    runs = []
    for seed in ACCEPTANCE_SEEDS:
        s1, s2, s3, bl = _stages(seed)
        final, report = run_cpt_pipeline(lab200, pool, eval_ds, s1, s2, s3, net_cfg,
                                         THRESHOLD, vocab)
        _, base200, _ = run_baseline(lab200, eval_ds, bl, net_cfg, vocab)
        _, base500, _ = run_baseline(lab500, eval_ds, bl, net_cfg, vocab)
        runs.append({"seed": seed, "report": report, "b200": base200, "b500": base500})
    return {
        "runs": runs,
        "truth": truth,
        "vocab": vocab,
        "net_cfg": net_cfg,
        "data": (lab200, lab500, pool, eval_ds),
        "seconds": time.perf_counter() - tic,
    }


def test_criterion_1_ctc_oracle_equivalence():
    rng = np.random.default_rng(20240923)
    tic = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        logits, target, symbols = random_feasible_instance(rng, max_frames=6, max_vocab=3, max_target=3)
        vocab = Vocabulary(symbols)
        got = ctc_loss_and_grad_batch(logits[None], [len(logits)], [vocab.encode(target)])[0][0]
        want = ctc_loss_by_enumeration(logits, target, symbols)
        assert got == pytest.approx(want, abs=1e-6)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - tic
    assert elapsed < 5.0
    print(f"\ncriterion 1 (CTC loss vs exhaustive enumeration, 200 instances): PASS "
          f"— max abs diff {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_gradient_audits():
    tic = time.perf_counter()
    rng = np.random.default_rng(7151)

    for _ in range(100):
        logits, target, symbols = random_feasible_instance(rng)
        vocab = Vocabulary(symbols)
        _, grad = ctc_loss_and_grad_batch(logits[None], [len(logits)], [vocab.encode(target)])
        numeric = central_difference_grad(
            lambda x: ctc_loss_and_grad_batch(x[None], [len(x)], [vocab.encode(target)])[0][0],
            logits.copy())
        assert_grad_close(grad[0], numeric, rel_tol=1e-4)

    for _ in range(100):
        logits, target, symbols = random_feasible_instance(rng)
        vocab = Vocabulary(symbols)
        _, grad = ctc_loss_and_grad_batch(logits[None], [len(logits)], [vocab.encode(target)], smoothing=0.1)
        numeric = central_difference_grad(
            lambda x: ctc_loss_and_grad_batch(x[None], [len(x)], [vocab.encode(target)], smoothing=0.1)[0][0],
            logits.copy())
        assert_grad_close(grad[0], numeric, rel_tol=1e-4)

    audit_cfg = NetConfig(feature_dim=5, vocab_size=3, downsample_factor=2, conv_layers=2,
                          conv_channels=6, context_layers=2, hidden_dim=8, context_window=1)
    theta = init_parameters(audit_cfg, seed=1).astype(np.float64)
    n_params = theta.size
    assert n_params <= 2000
    x = rng.normal(size=(9, audit_cfg.feature_dim))
    logits, cache = forward_batch(theta, audit_cfg, [x])
    dl = rng.normal(size=logits[0].shape)
    grads = unflatten(audit_cfg, backward_batch(theta, audit_cfg, cache, dl[None]))
    for name, tensor in unflatten(audit_cfg, theta).items():
        def objective(value, name=name):
            probe = theta.copy()
            unflatten(audit_cfg, probe)[name][...] = value
            out = forward_batch(probe, audit_cfg, [x])[0][0]
            return float(np.sum(dl * out))
        numeric = central_difference_grad(objective, tensor.copy())
        assert_grad_close(grads[name], numeric, rel_tol=1e-4)

    elapsed = time.perf_counter() - tic
    assert elapsed < 60.0
    print(f"criterion 2 (gradient audits: ctc, smoothed objective, full net of {n_params} params): "
          f"PASS — all within 1e-4 relative, {elapsed:.1f}s")


def test_criterion_3_wer_oracle_and_delta_arithmetic():
    rng = np.random.default_rng(555)
    tokens = list("abc")
    for _ in range(500):
        ref = [tokens[k] for k in rng.integers(0, 3, size=rng.integers(0, 7))]
        hyp = [tokens[k] for k in rng.integers(0, 3, size=rng.integers(0, 7))]
        s, i, d = edit_distance(ref, hyp)
        assert s + i + d == edit_cost_recursive(ref, hyp)

    # relative-improvement spot values, to three significant figures
    assert f"{relative_improvement(17.71, 3.24):.1%}" == "-81.7%"
    assert f"{relative_improvement(17.71, 10.89):.1%}" == "-38.5%"
    assert relative_improvement(8.3, 3.24) == pytest.approx(-0.61, abs=5e-3)
    print("criterion 3 (edit-distance oracle, 500 pairs; relative-delta arithmetic): PASS")


def test_criterion_4_pipeline_beats_baselines(experiment):
    beats200 = beats500 = 0
    for run in experiment["runs"]:
        pipe_wer = run["report"].final_eval_wer.wer
        beats200 += pipe_wer < run["b200"].wer
        beats500 += pipe_wer < run["b500"].wer
        history = run["report"].labeler_history
        assert history.records[-1].train_loss < history.records[0].train_loss
    lines = [
        f"    seed {run['seed']}: pipeline {run['report'].final_eval_wer.wer:.3f}  "
        f"baseline-200 {run['b200'].wer:.3f}  baseline-500 {run['b500'].wer:.3f}"
        for run in experiment["runs"]
    ]
    elapsed = experiment["seconds"]
    assert beats200 >= 4, f"pipeline beat the 200-sample baseline in only {beats200}/5 seeds"
    assert beats500 >= 3, f"pipeline beat the 500-sample baseline in only {beats500}/5 seeds"
    assert elapsed < 600.0
    print(f"criterion 4 (pipeline benefit): PASS — beats same-budget baseline {beats200}/5, "
          f"beats 2.5x-budget baseline {beats500}/5, experiment {elapsed:.0f}s")
    print("\n".join(lines))


def test_criterion_5_filter_behavior(experiment):
    truth = experiment["truth"]
    for run in experiment["runs"]:
        stats = run["report"].pseudo_label_stats
        all_pairs = [(truth[l.utterance_id], l.hypothesis) for l in stats.labels]
        kept_pairs = [(truth[l.utterance_id], l.hypothesis) for l in stats.labels
                      if l.hypothesis and l.confidence > THRESHOLD]
        assert kept_pairs, f"seed {run['seed']}: nothing kept at threshold {THRESHOLD}"
        wer_all = wer(all_pairs).wer
        wer_kept = wer(kept_pairs).wer
        assert wer_kept <= wer_all, (
            f"seed {run['seed']}: kept-set WER {wer_kept:.3f} above full-set WER {wer_all:.3f}")

    # threshold sweep on the first run's decoded pool
    labels = experiment["runs"][0]["report"].pseudo_label_stats.labels
    sweep = (0.0, 0.25, 0.5, 0.75, 0.9, 1.0)
    counts = [filter_pseudo_labels(labels, t)[1].kept for t in sweep]
    assert counts == sorted(counts, reverse=True)
    assert counts[-1] == 0

    # the decode+filter API path agrees with filtering the recorded labels;
    # the baseline arm shares the labeling stage's code path and seed, so it
    # reproduces the seed-0 labeling model exactly
    lab200, lab500, pool, eval_ds = experiment["data"]
    s1, _, _, _ = _stages(ACCEPTANCE_SEEDS[0])
    labeler, _, _ = run_baseline(lab200, eval_ds, s1, experiment["net_cfg"], experiment["vocab"])
    _, stats_api = generate_pseudo_labels(labeler, experiment["net_cfg"], pool, 0.9, experiment["vocab"])
    assert stats_api.kept == filter_pseudo_labels(labels, 0.9)[1].kept
    print(f"criterion 5 (confidence filter): PASS — kept-set WER <= full-set WER on all 5 seeds; "
          f"kept counts over thresholds {sweep}: {counts}")


def test_criterion_6_training_loop_contracts(experiment, monkeypatch, tmp_path):
    # scripted early stopping: WER [0.9, 0.5, 0.5, 0.5, 0.5] with patience 3
    synth = SynthConfig(n_speakers=6, n_utterances=30, labeled_fraction=1.0, seed=9)
    labeled, _, _ = generate_synthetic_corpus(synth)
    vocab = build_vocabulary(labeled.transcripts())
    tr, va = speaker_disjoint_split(labeled, 4, seed=0)
    tiny_net = NetConfig(feature_dim=synth.feature_dim, vocab_size=vocab.size,
                         downsample_factor=4, conv_layers=1, conv_channels=8,
                         context_layers=1, hidden_dim=12, context_window=1)
    scripted = iter([0.9, 0.5, 0.5, 0.5, 0.5, 0.5])
    with monkeypatch.context() as m:
        m.setattr(train_mod, "evaluate_wer", lambda *a: WerReport(0, 0, 0, 1, next(scripted)))
        stage = StageConfig(learning_rate=1e-3, epochs=10, batch_size=8, patience=3, seed=1)
        _, history = train_stage(init_parameters(tiny_net, 1), tiny_net, tr, va, stage, vocab)
    assert len(history.records) == 5 and history.best_epoch == 2 and history.stopped_early

    # best-epoch weights reproduce the recorded best validation WER
    stage = StageConfig(learning_rate=1e-3, epochs=4, batch_size=8, patience=None, seed=2)
    best, history = train_stage(init_parameters(tiny_net, 2), tiny_net, tr, va, stage, vocab)
    re_eval = train_mod.evaluate_wer(best, tiny_net, va, vocab)
    assert re_eval.wer == history.best_val_wer

    # two identical pipeline runs serialize to bit-identical reports
    lab200, lab500, pool, eval_ds = experiment["data"]
    net_cfg = experiment["net_cfg"]
    vocab_full = experiment["vocab"]
    s1, s2, s3, _ = _stages(ACCEPTANCE_SEEDS[0])
    rerun_final, rerun_report = run_cpt_pipeline(lab200, pool, eval_ds, s1, s2, s3, net_cfg,
                                                 THRESHOLD, vocab_full)
    first_report = experiment["runs"][0]["report"]
    blob_a = json.dumps(first_report.to_dict(), sort_keys=True)
    blob_b = json.dumps(rerun_report.to_dict(), sort_keys=True)
    assert blob_a == blob_b
    print("criterion 6 (training-loop contracts): PASS — patience rule exact, best-epoch "
          "re-evaluation matches, identical pipeline runs serialize bit-identically")
