"""Edit distance, corpus WER pooling, and relative-improvement arithmetic."""

import numpy as np
import pytest

from cptasr.metrics import edit_distance, relative_improvement, wer

from oracles import edit_cost_recursive


def test_identical_sequences_have_zero_cost():
    assert edit_distance(list("abc"), list("abc")) == (0, 0, 0)
    assert edit_distance([], []) == (0, 0, 0)


def test_single_substitution():
    s, i, d = edit_distance("a b c".split(), "a x c".split())
    assert (s, i, d) == (1, 0, 0)


def test_empty_hypothesis_is_all_deletions():
    s, i, d = edit_distance("a b c".split(), [])
    assert (s, i, d) == (0, 0, 3)


def test_empty_reference_is_all_insertions():
    s, i, d = edit_distance([], "a b".split())
    assert (s, i, d) == (0, 2, 0)


def test_total_cost_matches_recursive_oracle():
    rng = np.random.default_rng(17)
    tokens = list("abc")
    for _ in range(500):
        ref = [tokens[k] for k in rng.integers(0, 3, size=rng.integers(0, 7))]
        hyp = [tokens[k] for k in rng.integers(0, 3, size=rng.integers(0, 7))]
        s, i, d = edit_distance(ref, hyp)
        assert s + i + d == edit_cost_recursive(ref, hyp)


def test_cost_is_symmetric_with_ins_del_swapped():
    rng = np.random.default_rng(3)
    tokens = list("ab")
    for _ in range(200):
        ref = [tokens[k] for k in rng.integers(0, 2, size=rng.integers(0, 6))]
        hyp = [tokens[k] for k in rng.integers(0, 2, size=rng.integers(0, 6))]
        s1, i1, d1 = edit_distance(ref, hyp)
        s2, i2, d2 = edit_distance(hyp, ref)
        assert s1 + i1 + d1 == s2 + i2 + d2
        assert (i1, d1) == (d2, i2)


def test_triangle_inequality_on_total_cost():
    rng = np.random.default_rng(9)
    tokens = list("abc")
    def cost(x, y):
        return sum(edit_distance(x, y))
    for _ in range(100):
        seqs = [[tokens[k] for k in rng.integers(0, 3, size=rng.integers(0, 5))] for _ in range(3)]
        a, b, c = seqs
        assert cost(a, c) <= cost(a, b) + cost(b, c)


def test_wer_identity_pair():
    assert wer([("ab cd", "ab cd")]).wer == 0.0


def test_wer_pools_edits_over_pooled_reference_words():
    # 1 error over 2+2=4 words -> 0.25 pooled
    report = wer([("a b", "a x"), ("c d", "c d")])
    assert report.wer == pytest.approx(0.25)
    # contrast: refs of 1 and 3 words, 1 error -> pooled 0.25, naive mean would be 0.5
    report = wer([("a", "x"), ("b c d", "b c d")])
    assert report.wer == pytest.approx(0.25)
    assert report.ref_words == 4


def test_wer_empty_hypothesis_is_full_deletion():
    report = wer([("a b c", "")])
    assert report.wer == pytest.approx(1.0)
    assert report.deletions == 3


def test_wer_invariant_to_pair_order():
    pairs = [("a b", "a x"), ("c d e", "c d"), ("f", "f g")]
    fwd = wer(pairs)
    rev = wer(pairs[::-1])
    assert fwd.to_dict() == rev.to_dict()


def test_wer_all_empty_references_rejected():
    with pytest.raises(ValueError):
        wer([("", "a"), ("  ", "b")])


def test_relative_improvement_known_deltas():
    assert relative_improvement(17.71, 3.24) == pytest.approx(-0.817, abs=5e-4)
    assert relative_improvement(17.71, 10.89) == pytest.approx(-0.385, abs=5e-4)
    assert relative_improvement(8.3, 3.24) == pytest.approx(-0.61, abs=5e-3)


def test_relative_improvement_of_zero_baseline_is_none():
    assert relative_improvement(0.0, 1.0) is None
    assert relative_improvement(0.0, 0.0) is None
    with pytest.raises(ValueError):
        relative_improvement(-0.1, 1.0)
