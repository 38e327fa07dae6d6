"""Records written from their fields: field order, nesting, the timing split, skipped fields."""

import json
from dataclasses import dataclass, field

from cptasr.corpus import Vocabulary
from cptasr.fieldcheck import as_record
from cptasr.metrics import WerReport
from cptasr.net import NetConfig
from cptasr.pipeline import PipelineReport, PseudoLabel, PseudoLabelStats
from cptasr.train import EpochRecord, TrainHistory


def _keys(value) -> set[str]:
    """Every dict key at any depth of a record."""
    if isinstance(value, dict):
        return set(value).union(*(_keys(v) for v in value.values()))
    if isinstance(value, list):
        return set().union(*(_keys(v) for v in value))
    return set()


def _history(best_epoch=2):
    records = [EpochRecord(epoch=e, train_loss=3.0 / e, val_wer=0.5 / e, lr=1e-4, seconds=0.25 * e) for e in (1, 2)]
    return TrainHistory(records=records, best_epoch=best_epoch, stopped_early=False, skipped_utterances=1)


def _report():
    stats = PseudoLabelStats(total=3, kept=1, empty_dropped=1, below_threshold=1,
                             labels=[PseudoLabel("u1", "ab", 0.9), PseudoLabel("u2", "", 0.0)])
    return PipelineReport(
        pool_total=3, pool_kept=1, pseudo_label_stats=stats,
        cpt_history=_history(1), finetune_history=_history(2), labeler_history=_history(2),
        final_eval_wer=WerReport(1, 0, 2, 10, 0.3),
    )


def test_timing_fields_appear_only_with_timing():
    for record in (_history().records[0], _history(), _report()):
        assert "seconds" in _keys(as_record(record))
        assert "seconds" not in _keys(as_record(record, with_timing=False))
    assert "seconds" in _keys(_history().to_dict())
    assert "seconds" not in _keys(_history().to_dict(with_timing=False))
    assert "seconds" not in _keys(_report().to_dict())


def test_records_without_timing_fields_are_unaffected_by_the_split():
    for record in (WerReport(1, 0, 2, 10, 0.3), _report().pseudo_label_stats, NetConfig(feature_dim=8, vocab_size=4),
                   Vocabulary(("a", "b"))):
        assert as_record(record) == as_record(record, with_timing=False)
        assert "seconds" not in _keys(as_record(record))


def test_records_list_fields_in_declaration_order():
    assert list(as_record(WerReport(1, 0, 2, 10, 0.3))) == [
        "substitutions", "insertions", "deletions", "ref_words", "wer"]
    assert list(as_record(NetConfig(feature_dim=8, vocab_size=4))) == [
        "feature_dim", "vocab_size", "downsample_factor", "conv_layers", "conv_channels",
        "context_layers", "hidden_dim", "context_window"]
    # the class-level blank index is not a field, and the symbol tuple becomes a JSON list
    assert as_record(Vocabulary(("a", "b"))) == {"symbols": ["a", "b"]}


def test_pipeline_report_keys_are_pinned():
    out = _report().to_dict()
    assert list(out) == [
        "pool_total", "pool_kept", "pseudo_label_stats", "cpt_history", "finetune_history", "labeler_history",
        "final_eval_wer"]
    assert list(out["pseudo_label_stats"]) == ["total", "kept", "empty_dropped", "below_threshold"]
    for name in ("cpt_history", "finetune_history", "labeler_history"):
        assert list(out[name]) == ["records", "best_epoch", "stopped_early", "skipped_utterances"]
        assert [list(r) for r in out[name]["records"]] == [["epoch", "train_loss", "val_wer", "lr"]] * 2
    assert list(out["final_eval_wer"]) == [
        "substitutions", "insertions", "deletions", "ref_words", "wer"]
    assert json.loads(json.dumps(out)) == out


class _Unwalkable(list):
    """A list that fails when iterated, so a record that walks it shows."""

    def __iter__(self):
        raise AssertionError("a repr=False field was walked")


def test_repr_false_fields_are_skipped_without_being_walked():
    stats = PseudoLabelStats(total=2, kept=1, empty_dropped=0, below_threshold=1, labels=_Unwalkable([object()]))
    assert stats.to_dict() == {"total": 2, "kept": 1, "empty_dropped": 0, "below_threshold": 1}

    @dataclass
    class Holder:
        count: int
        handle: object = field(default=None, repr=False)

    assert as_record(Holder(3, handle=_Unwalkable([object()]))) == {"count": 3}
