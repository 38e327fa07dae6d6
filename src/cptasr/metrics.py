"""Word error rate via Levenshtein alignment, plus report arithmetic."""

from __future__ import annotations

from dataclasses import dataclass

from .fieldcheck import as_record


@dataclass
class WerReport:
    """Corpus-level error counts pooled over utterances.

    ``wer`` may exceed 1.0 when hypotheses contain many insertions.
    """

    substitutions: int
    insertions: int
    deletions: int
    ref_words: int
    wer: float

    def to_dict(self) -> dict:
        return as_record(self)


def edit_distance(ref: list[str], hyp: list[str]) -> tuple[int, int, int]:
    """Minimal unit-cost alignment of ``hyp`` against ``ref``.

    Returns (substitutions, insertions, deletions). When the minimal cost
    admits several decompositions, the backtrace prefers substitution over
    insertion over deletion, so the counts are deterministic.
    """
    n, m = len(ref), len(hyp)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        dp[i][0] = i
    for j in range(1, m + 1):
        dp[0][j] = j
    for i in range(1, n + 1):
        ref_tok = ref[i - 1]
        row, prev_row = dp[i], dp[i - 1]
        for j in range(1, m + 1):
            diag = prev_row[j - 1] + (0 if ref_tok == hyp[j - 1] else 1)
            ins = row[j - 1] + 1
            dele = prev_row[j] + 1
            row[j] = min(diag, ins, dele)

    subs = ins = dels = 0
    i, j = n, m
    while i > 0 or j > 0:
        cost = dp[i][j]
        if i > 0 and j > 0 and cost == dp[i - 1][j - 1] + (0 if ref[i - 1] == hyp[j - 1] else 1):
            if ref[i - 1] != hyp[j - 1]:
                subs += 1
            i -= 1
            j -= 1
        elif j > 0 and cost == dp[i][j - 1] + 1:
            ins += 1
            j -= 1
        else:
            dels += 1
            i -= 1
    return subs, ins, dels


def wer(pairs: list[tuple[str, str]]) -> WerReport:
    """Corpus-level word error rate over (reference, hypothesis) pairs.

    Words are separated by whitespace runs. Edits are summed across
    utterances and divided by the summed reference word count (pooled, not
    a mean of per-utterance rates).
    """
    total_s = total_i = total_d = total_ref = 0
    for ref_text, hyp_text in pairs:
        ref_toks, hyp_toks = ref_text.split(), hyp_text.split()
        s, ins, d = edit_distance(ref_toks, hyp_toks)
        total_s += s
        total_i += ins
        total_d += d
        total_ref += len(ref_toks)
    if total_ref == 0:
        raise ValueError("all references are empty; error rate is undefined")
    rate = (total_s + total_i + total_d) / total_ref
    return WerReport(total_s, total_i, total_d, total_ref, rate)


def relative_improvement(baseline_wer: float, new_wer: float) -> float | None:
    """Signed relative change (new - baseline) / baseline; negative is better.

    None for a baseline WER of 0: a perfect baseline leaves no relative change to state.
    """
    if baseline_wer < 0:
        raise ValueError("baseline WER must be >= 0")
    return None if baseline_wer == 0 else (new_wer - baseline_wer) / baseline_wer
