"""Train the small acoustic model on synthetic data and watch it converge.

One supervised stage: AdamW with warmup/decay, gradient clipping, per-epoch
validation WER, early stopping on patience, best-epoch weights returned.

Run with: python demos/03_train_small_model.py
"""

from cptasr import NetConfig, SynthConfig, build_vocabulary, evaluate_wer, generate_synthetic_corpus, init_parameters, preset, speaker_disjoint_split, train_stage
from cptasr.train import decode_dataset

synth = SynthConfig(n_speakers=12, n_utterances=300, labeled_fraction=1.0, seed=23)
labeled, _, _ = generate_synthetic_corpus(synth)
vocab = build_vocabulary(labeled.transcripts())
train_ds, val_ds = speaker_disjoint_split(labeled, 30, seed=0)
print(f"train {len(train_ds)} / val {len(val_ds)} utterances, vocab {''.join(vocab.symbols)!r}")

net_cfg = NetConfig(feature_dim=synth.feature_dim, vocab_size=vocab.size,
                    downsample_factor=4, conv_layers=1, conv_channels=24,
                    context_layers=1, hidden_dim=32, context_window=3)

# the stage1 preset at desk scale: ten times the stock learning rate
stage = preset("stage1", learning_rate=1e-3, seed=11)
params = init_parameters(net_cfg, seed=stage.seed)

print(f"\n{'epoch':>5} {'train loss':>11} {'val WER':>8} {'lr':>9}")
best, history = train_stage(params, net_cfg, train_ds, val_ds, stage, vocab)
for r in history.records:
    marker = " *" if r.epoch == history.best_epoch else ""
    print(f"{r.epoch:>5} {r.train_loss:>11.3f} {r.val_wer:>8.3f} {r.lr:>9.2e}{marker}")
print(f"\nbest epoch {history.best_epoch}, stopped early: {history.stopped_early}")

report = evaluate_wer(best, net_cfg, val_ds, vocab)
print(f"validation WER of returned weights: {report.wer:.3f} "
      f"(S={report.substitutions} I={report.insertions} D={report.deletions})")

print("\nsample decodes (reference | hypothesis | confidence):")
for utt, dec in list(zip(val_ds, decode_dataset(best, net_cfg, val_ds, vocab)))[:5]:
    print(f"  {utt.transcript!r:24} | {dec.hypothesis!r:24} | {dec.confidence:.2f}")
