"""CTC in miniature: path sums, the collapse rule, gradients, greedy decoding.

Walks the core math on cases small enough to verify by hand or by brute
force. Run with: python demos/01_ctc_basics.py
"""

import itertools

import numpy as np

from cptasr import Vocabulary, collapse, ctc_loss_and_grad_batch, greedy_decode_batch, log_softmax

vocab = Vocabulary(("a", "b"))
print("vocabulary:", vocab.symbols, "| blank reserved at index", vocab.blank_index)

# --- the collapse rule -----------------------------------------------------
# Adjacent repeats merge first, then blanks disappear. A blank between two
# identical characters keeps them distinct.
a, b, blank = 1, 2, 0
for path in ([a, a, blank, a, b, b], [blank, blank], [a, blank, a]):
    print(f"collapse({path}) -> {collapse(path, vocab)!r}")

# --- the loss is a sum over every path that collapses to the target --------
rng = np.random.default_rng(0)
logits = rng.normal(size=(3, 3))
target = "ab"

probs = np.exp(log_softmax(logits, axis=1))
brute = 0.0
for path in itertools.product(range(3), repeat=3):
    if collapse(path, vocab) == target:
        p = 1.0
        for t, k in enumerate(path):
            p *= probs[t, k]
        brute += p
print(f"\nbrute-force path sum   : {-np.log(brute):.10f}")
# the kernel takes raw logits (it applies the log-softmax itself) as a padded
# batch, here a batch of one, and targets as label indices
losses, _ = ctc_loss_and_grad_batch(logits[None], [3], [vocab.encode(target)])
print(f"ctc_loss_and_grad_batch: {losses[0]:.10f}")

# --- label smoothing ---------------------------------------------------------
# With smoothing s the loss is (1 - s) * CTC + s * the mean per-frame
# KL(uniform || softmax), which penalises over-confident frames; the
# finetune stage trains with s = 0.1.
smoothed, _ = ctc_loss_and_grad_batch(logits[None], [3], [vocab.encode(target)], smoothing=0.1)
print(f"with smoothing 0.1     : {smoothed[0]:.10f}")

# --- gradient sanity: single frame, uniform logits --------------------------
# With one frame and target "a", the only valid path emits "a", so the
# gradient is softmax minus a one-hot on "a".
_, grad = ctc_loss_and_grad_batch(np.zeros((1, 1, 2)), [1], [Vocabulary(("a",)).encode("a")])
print("\nsingle-frame gradient (expect [0.5, -0.5]):", grad[0, 0])

# --- greedy decoding with confidence ----------------------------------------
# Confidence is the geometric mean of per-frame max posteriors: near 1 for
# peaked logits, 1/(V+1) for uniform ones.
peaked = np.array([[0, 9, 0], [9, 0, 0], [0, 0, 9]], dtype=float)
result = greedy_decode_batch(peaked[None], [3], vocab)[0]
print(f"\npeaked logits  -> hypothesis {result.hypothesis!r}, confidence {result.confidence:.3f}")
result = greedy_decode_batch(np.zeros((1, 4, 3)), [4], vocab)[0]
print(f"uniform logits -> hypothesis {result.hypothesis!r}, confidence {result.confidence:.3f}")
