"""Span tracer that times calls into the cptasr layers from outside the program.

Every public function (not class) of each traced module is replaced by a wrapper that
records one span (name, start, end, parent) per call. Copies a module holds
through ``from x import y`` (``pipeline.greedy_decode``, ``train.wer``, the
package re-exports) are rebound as well, so no call path escapes the trace.
Spans stay in memory until the run ends; :meth:`Tracer.summary` then derives
per-function and per-layer call counts, inclusive time and self time (a
span's duration minus the time its child spans cover).

The tracer assumes the traced code runs on one thread, which holds for the
package's default arguments.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import math
import os
import sys
import time
from pathlib import Path
from types import ModuleType

import numpy as np

PACKAGE = "cptasr"
LAYERS = ("corpus", "ctc", "net", "optim", "train", "pipeline", "metrics")

# train_stage spans are attributed to a pipeline stage by their parent call
# and their position among that parent's train_stage children.
STAGE_NAMES = {
    "pipeline.run_cpt_pipeline": ("labeler", "cpt", "finetune"),
    "pipeline.run_baseline": ("baseline",),
}


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _probe_ctc_loss_and_grad(counts, args, kwargs, result):
    logits, target = _arg(args, kwargs, 0, "logits"), _arg(args, kwargs, 1, "target")
    counts["ctc.lattice_cells"] += np.shape(logits)[0] * (2 * len(target) + 1)


def _probe_forward(counts, args, kwargs, result):
    counts["net.frames"] += np.shape(_arg(args, kwargs, 2, "features"))[0]


def _probe_clip_gradients(counts, args, kwargs, result):
    counts["optim.clipped_steps"] += result[1] < 1.0


def _probe_train_stage(counts, args, kwargs, result):
    data, stage = _arg(args, kwargs, 2, "data"), _arg(args, kwargs, 4, "stage")
    history = result[1]
    epochs = len(history.records)
    usable = len(data) - history.skipped_utterances
    counts["train.epochs"] += epochs
    counts["train.steps"] += epochs * math.ceil(usable / stage.batch_size)
    counts["train.utterance_passes"] += epochs * usable
    counts["train.skipped"] += history.skipped_utterances


def _probe_evaluate_wer(counts, args, kwargs, result):
    counts["train.evaluated_utterances"] += len(_arg(args, kwargs, 2, "ds"))


def _probe_generate_pseudo_labels(counts, args, kwargs, result):
    stats = result[1]
    counts["pipeline.pseudo_total"] += stats.total
    counts["pipeline.pseudo_kept"] += stats.kept


def _probe_load_manifest(counts, args, kwargs, result):
    counts["corpus.manifest_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _probe_save_manifest(counts, args, kwargs, result):
    counts["corpus.manifest_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


# Work counters recorded at the same boundaries as the spans. A probe runs
# after its span has closed; its cost lands in the parent's self time.
PROBES = {
    "ctc.ctc_loss_and_grad": _probe_ctc_loss_and_grad,
    "net.forward": _probe_forward,
    "optim.clip_gradients": _probe_clip_gradients,
    "train.train_stage": _probe_train_stage,
    "train.evaluate_wer": _probe_evaluate_wer,
    "pipeline.generate_pseudo_labels": _probe_generate_pseudo_labels,
    "corpus.load_manifest": _probe_load_manifest,
    "corpus.save_manifest": _probe_save_manifest,
}
COUNTERS = (
    "ctc.lattice_cells", "net.frames", "optim.clipped_steps", "train.epochs", "train.steps",
    "train.utterance_passes", "train.skipped", "train.evaluated_utterances",
    "pipeline.pseudo_total", "pipeline.pseudo_kept", "corpus.manifest_bytes",
)


class Tracer:
    """Wraps the public functions of the cptasr layer modules while active.

    Use as a context manager; leaving it restores every original binding.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.counts: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._restore: list[tuple[ModuleType, str, object]] = []

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = self._wrap(name, obj, PROBES.get(name))
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn, probe):
        name_id = self._name_id(name)
        stack, names, starts, ends, parents = (
            self._stack, self.span_name, self.span_start, self.span_end, self.span_parent)
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if probe is not None:
                probe(counts, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around set-up or one run."""
        idx = len(self.span_name)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.span_end[idx] = time.perf_counter()

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(name id, duration s, self time s, parent index) per span."""
        name = np.asarray(self.span_name, dtype=np.int64)
        dur = np.asarray(self.span_end) - np.asarray(self.span_start)
        parent = np.asarray(self.span_parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return name, dur, dur - child, parent

    def summary(self) -> dict:
        """Per-function, per-layer, per-stage and per-top-level-call aggregates."""
        name, dur, self_s, parent = self.arrays()
        functions = {}
        for nid, fname in enumerate(self.names):
            sel = name == nid
            n = int(sel.sum())
            if n == 0:
                continue
            d = dur[sel]
            functions[fname] = {
                "calls": n,
                "s": float(d.sum()),
                "self_s": float(self_s[sel].sum()),
                "us_p50": float(np.percentile(d, 50) * 1e6),
                "us_p99": float(np.percentile(d, 99) * 1e6),
            }
        layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for fname, stats in functions.items():
            layer = fname.split(".", 1)[0]
            if layer in layers:
                layers[layer]["calls"] += stats["calls"]
                layers[layer]["self_s"] += stats["self_s"]
        return {
            "functions": functions,
            "layers": layers,
            "stages": self._stage_self_times(name, self_s, parent),
            "top_level": self._top_level(name, dur, self_s, parent),
            "counts": dict(self.counts),
        }

    def _stage_self_times(self, name, self_s, parent) -> dict[str, float]:
        stage_id = self._name_ids.get("train.train_stage")
        stages: dict[str, float] = {}
        seen: dict[int, int] = {}
        for idx in np.flatnonzero(name == stage_id) if stage_id is not None else ():
            p = int(parent[idx])
            ordinal = seen.get(p, 0)
            seen[p] = ordinal + 1
            labels = STAGE_NAMES.get(self.names[name[p]], ()) if p >= 0 else ()
            label = labels[min(ordinal, len(labels) - 1)] if labels else "direct"
            stages[label] = stages.get(label, 0.0) + float(self_s[idx])
        return stages

    def _top_level(self, name, dur, self_s, parent) -> dict[str, dict]:
        """For each benchmark span (module ``bench``), its children's subtrees.

        Maps "<bench span>/<program function>" to the wall time of those
        calls and the calls and self time of every function beneath them.
        """
        n = len(name)
        root_of = np.full(n, -1, dtype=np.int64)  # index of the enclosing top-level program call
        bench_ids = {i for i, nm in enumerate(self.names) if nm.startswith("bench.")}
        for idx in range(n):  # parents precede children, so one pass suffices
            p = parent[idx]
            if name[idx] in bench_ids:
                continue
            if p >= 0 and name[p] in bench_ids:
                root_of[idx] = idx
            elif p >= 0:
                root_of[idx] = root_of[p]
        out: dict[str, dict] = {}
        for idx in np.flatnonzero(root_of == np.arange(n)):
            key = f"{self.names[name[parent[idx]]]}/{self.names[name[idx]]}"
            entry = out.setdefault(key, {"calls": 0, "s": 0.0, "functions": {}})
            entry["calls"] += 1
            entry["s"] += float(dur[idx])
        for idx in np.flatnonzero(root_of >= 0):
            root = root_of[idx]
            key = f"{self.names[name[parent[root]]]}/{self.names[name[root]]}"
            funcs = out[key]["functions"]
            stats = funcs.setdefault(self.names[name[idx]], {"calls": 0, "s": 0.0, "self_s": 0.0})
            stats["calls"] += 1
            stats["s"] += float(dur[idx])
            stats["self_s"] += float(self_s[idx])
        return out

    def write(self, path: str | Path, extra: dict | None = None) -> None:
        """Write the raw spans and the summary as gzipped JSON."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = {
            "names": self.names,
            "spans": {"name": self.span_name, "start": self.span_start,
                      "end": self.span_end, "parent": self.span_parent},
            "summary": self.summary(),
            **(extra or {}),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(blob, fh)
