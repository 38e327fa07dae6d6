"""The whole recipe, end to end, against a no-CPT baseline.

Stage A trains a labeling model on a small labeled budget. Stage B decodes
a large unlabeled pool and keeps hypotheses whose confidence exceeds 75%.
Stage C continues pretraining a fresh model on those pseudo-labels; stage D
finetunes it on the labeled data. The baseline spends the same labeled
budget without any of that. Both arms score on held-out speakers.

Run with: python demos/04_full_pipeline.py
"""

from cptasr import (
    Dataset,
    NetConfig,
    SynthConfig,
    build_vocabulary,
    generate_synthetic_corpus,
    preset,
    relative_improvement,
    run_baseline,
    run_cpt_pipeline,
    speaker_disjoint_split,
)

synth = SynthConfig(n_speakers=18, n_utterances=1400, labeled_fraction=0.3, seed=23)
labeled_all, unlabeled, truth = generate_synthetic_corpus(synth)
vocab = build_vocabulary(labeled_all.transcripts())
train_all, eval_ds = speaker_disjoint_split(labeled_all, 80, seed=23)
labeled = Dataset(train_all.utterances[:200], "labeled")
pool = Dataset(unlabeled.utterances[:900], "unlabeled")
print(f"labeled budget {len(labeled)}, unlabeled pool {len(pool)}, "
      f"eval {len(eval_ds)} utterances on {len(eval_ds.speakers())} held-out speakers")

net_cfg = NetConfig(feature_dim=synth.feature_dim, vocab_size=vocab.size,
                    downsample_factor=4, conv_layers=1, conv_channels=24,
                    context_layers=1, hidden_dim=32, context_window=3)

stage1 = preset("stage1", learning_rate=1e-3, seed=1)
stage2 = preset("stage2-cpt", learning_rate=5e-4, seed=2)
stage3 = preset("stage3-finetune", learning_rate=1e-3, seed=3)

print("\nrunning the staged pipeline ...")
final, report = run_cpt_pipeline(labeled, pool, eval_ds, stage1, stage2, stage3,
                                 net_cfg, threshold=0.75, vocab=vocab)
stats = report.pseudo_label_stats
print(f"  labeling model val WER : {report.labeler_history.best_val_wer:.3f}")
print(f"  pseudo-labels kept     : {stats.kept}/{stats.total} "
      f"({stats.kept / stats.total:.0%}; {stats.empty_dropped} empty, {stats.below_threshold} below threshold)")
print(f"  final eval WER         : {report.final_eval_wer.wer:.3f}")

print("\nrunning the no-CPT baseline on the same labeled budget ...")
_, baseline_report, _ = run_baseline(labeled, eval_ds, preset("baseline", learning_rate=1e-3, seed=1),
                                     net_cfg, vocab)
delta = relative_improvement(baseline_report.wer, report.final_eval_wer.wer)  # None for a zero-WER baseline
delta_text = "n/a" if delta is None else f"{delta:+.1%}"

print(f"\n{'Config':<18} {'Baseline':>9} {'Final WER':>10} {'Delta':>8}")
print(f"{'200+CPT':<18} {baseline_report.wer:>9.2%} {report.final_eval_wer.wer:>10.2%} "
      f"{delta_text:>8}")
