"""Benchmark entry point: set up one workload from a seed, run it, check and report.

    python3 bench/run.py --workload pipeline --seed 0 --seconds 20 --trace 0

With ``--trace 0`` set-ups (``setup_s`` is their median) alternate with runs
until ``--seconds`` of run time have passed; every run must produce the same
outputs. The end-to-end metrics are medians over the runs. With ``--trace 1`` one untraced run is followed by a traced set-up and
run, which give the per-layer metrics and the tracing overhead; the two
runs' outputs must match. Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

The program is imported from ``src/`` next to this directory; the script
exits with status 2 and prints no result when that source tree is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS, SETUP_SECONDS, SETUP_MAX_REPEATS = 3, 5.0, 10  # set up >= 3 times and for >= 5 s
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# The gated end-to-end metrics (BENCHMARK.json); the other figures are printed only.
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def load_program():
    """Import cptasr from this checkout's ``src``; None when it is absent or shadowed."""
    if not (SRC / "cptasr" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import cptasr

    if Path(cptasr.__file__).resolve().parent != (SRC / "cptasr").resolve():
        return None
    return cptasr


def git_commit() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return None


def machine_info() -> dict:
    import numpy as np

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads_env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                   if k in os.environ}
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        # OpenBLAS runs one thread per core unless one of these caps it
        "blas_threads": threads_env or f"unset (OpenBLAS default: {os.cpu_count()})",
        "git_commit": git_commit(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Runs one workload on fixed inputs and checks each run against the first."""

    def __init__(self, workload):
        self.workload = workload
        self.outcomes = []      # Outcome, or None for a run that raised
        self.reference = None   # digest of the first run that passed its checks

    def attempt(self, inputs):
        try:
            out = self.workload.run(inputs)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.outcomes.append(None)
            return None
        if out.skipped:
            out.problems.append(f"{out.skipped} CTC-infeasible utterances were skipped")
        if self.reference is None and not out.problems:
            verify = getattr(self.workload, "verify", None)
            if verify is not None:
                verify(inputs, out)
            if not out.problems:
                self.reference = out.digest()
        elif self.reference is not None and out.digest() != self.reference:
            out.problems.append("outputs differ from the first run's")
        for problem in out.problems:
            print(f"check failed: {problem}", file=sys.stderr)
        self.outcomes.append(out)
        return out

    @property
    def passed(self):
        return [o for o in self.outcomes if o is not None and not o.problems]

    @property
    def failed(self) -> int:
        return len(self.outcomes) - len(self.passed)


def measure(workload, seed: int, seconds: float, workdir: Path):
    """Alternate set-ups and runs, so both are sampled across the whole invocation.

    Set-up repeats until SETUP_REPEATS and SETUP_SECONDS (or SETUP_MAX_REPEATS)
    are met; runs repeat until ``seconds`` of run time have passed. Each run
    uses the inputs of the latest set-up; all must give the same outputs.
    """
    setup_times: list[float] = []
    runner = Runner(workload)
    run_time = 0.0
    inputs = None

    def setups_done() -> bool:
        return len(setup_times) >= SETUP_REPEATS and (
            sum(setup_times) >= SETUP_SECONDS or len(setup_times) >= SETUP_MAX_REPEATS)

    while not setups_done() or run_time < seconds:
        if not setups_done():
            inputs = None
            gc.collect()
            t0 = time.perf_counter()
            inputs = workload.setup(seed, workdir)
            setup_times.append(time.perf_counter() - t0)
        if run_time < seconds:
            t0 = time.perf_counter()
            runner.attempt(inputs)
            run_time += time.perf_counter() - t0
    ok = runner.passed
    metrics = {}
    if ok:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(o.wall_s for o in ok),
            "peak_rss_mb": peak_rss_mb(),
        }
    return runner, metrics, setup_times


def per_layer_metrics(summary: dict, overhead: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics listed in BENCHMARK.json, from a tracer summary."""
    funcs, counts, layers = summary["functions"], summary["counts"], summary["layers"]
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "us_p50": 0.0, "us_p99": 0.0}
    units = {"calls": "count", "s": "s", "self_s": "s", "us_p50": "us", "us_p99": "us"}
    spec = {
        "ctc.ctc_loss_and_grad": ("calls", "s", "us_p50", "us_p99"),
        "ctc.greedy_decode": ("calls", "s", "us_p50"),
        "net.forward": ("calls", "s", "us_p50", "us_p99"),
        "net.backward": ("calls", "s", "us_p50"),
        "optim.adamw_step": ("calls", "s"),
        "optim.clip_gradients": ("calls", "s"),
        "optim.smoothed_ctc_objective": ("self_s",),
        "train.train_stage": ("self_s",),
        "train.evaluate_wer": ("s",),
        "corpus.generate_synthetic_corpus": ("s",),
        "metrics.edit_distance": ("calls", "s"),
        "metrics.wer": ("s",),
    }
    out: dict[str, tuple[float, str]] = {}
    for fname, stats in spec.items():
        for stat in stats:
            out[f"{fname}.{stat}"] = (funcs.get(fname, empty)[stat], units[stat])
    clip_calls = funcs.get("optim.clip_gradients", empty)["calls"]
    pseudo_total = counts["pipeline.pseudo_total"]
    out.update({
        "ctc.lattice_cells": (counts["ctc.lattice_cells"], "count"),
        "net.frames": (counts["net.frames"], "count"),
        "optim.clip_rate": (counts["optim.clipped_steps"] / clip_calls if clip_calls else 0.0, "ratio"),
        "train.epochs": (counts["train.epochs"], "count"),
        "train.steps": (counts["train.steps"], "count"),
        "train.skipped": (counts["train.skipped"], "count"),
        "pipeline.kept_frac": (counts["pipeline.pseudo_kept"] / pseudo_total if pseudo_total else 0.0, "ratio"),
    })
    for layer, stats in layers.items():
        out[f"layer.{layer}.calls"] = (stats["calls"], "count")
        out[f"layer.{layer}.self_s"] = (stats["self_s"], "s")
    out["trace_overhead_frac"] = (overhead, "ratio")
    return out


def print_trace_report(summary: dict) -> None:
    funcs = summary["functions"]
    print("per function (calls, inclusive s, self s, p50 us, p99 us):")
    for fname, st in sorted(funcs.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {fname:40s} {st['calls']:9d} {st['s']:10.4f} {st['self_s']:10.4f} "
              f"{st['us_p50']:10.1f} {st['us_p99']:10.1f}")
    print("per layer (calls, self s):")
    for layer, st in summary["layers"].items():
        print(f"  {layer:10s} {st['calls']:9d} {st['self_s']:10.4f}")
    print("train_stage self s per stage: " + json.dumps({k: round(v, 4) for k, v in summary["stages"].items()}))
    print("counts: " + json.dumps(summary["counts"]))
    stage_s = funcs.get("train.train_stage", {}).get("s", 0.0)
    if stage_s:
        ctc_s = funcs.get("ctc.ctc_loss_and_grad", {}).get("s", 0.0)
        print(f"ctc_loss_and_grad share of train_stage time: {ctc_s / stage_s:.3f}")
    print("top-level calls (wall s; calls of chosen functions beneath them):")
    watch = ("ctc.ctc_loss_and_grad", "net.forward", "net.backward", "optim.adamw_step", "ctc.greedy_decode")
    for key, entry in summary["top_level"].items():
        beneath = {w.split(".", 1)[1]: entry["functions"][w]["calls"] for w in watch if w in entry["functions"]}
        print(f"  {key:50s} x{entry['calls']:<3d} {entry['s']:9.4f}  {json.dumps(beneath)}")


def trace(workload, seed: int, workdir: Path):
    runner = Runner(workload)
    inputs = workload.setup(seed, workdir)
    untraced = runner.attempt(inputs)
    inputs = None
    gc.collect()
    tracer = Tracer()
    with tracer:
        with tracer.span("bench.setup"):
            inputs = workload.setup(seed, workdir)
        with tracer.span("bench.run"):
            traced = runner.attempt(inputs)
    return runner, untraced, traced, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if load_program() is None:
        print(f"error: no cptasr source tree at {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS  # imports cptasr, so only after load_program

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    workdir = OUT_DIR / f"work-{os.getpid()}"
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("machine " + json.dumps(machine_info()))
    try:
        if args.trace:
            runner, untraced, traced, tracer = trace(workload, args.seed, workdir)
        else:
            runner, metrics, setup_times = measure(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = len(runner.outcomes), runner.failed
    ok = runner.passed
    print(f"runs {attempted}, failed {failed}, failed_frac {failed / attempted!r} ratio")
    if ok:
        first = ok[0]
        train_rates = [rate for o in ok for rate in o.epoch_rates]
        print(f"train_utt_per_s {statistics.median(train_rates)!r} utt/s" if train_rates
              else "train_utt_per_s n/a (the run trains nothing)")
        print(f"decode_utt_per_s {statistics.median(o.decoded / o.decode_seconds for o in ok)!r} utt/s")
        print(f"final_eval_wer {first.final_eval_wer!r} ratio")
        print(f"pseudo_wer {'n/a' if first.pseudo_wer is None else repr(first.pseudo_wer)} ratio")
        print(f"digest sha256:{runner.reference}")

    if args.trace:
        if untraced is None or traced is None or failed:
            result_metrics = {}
        else:
            summary = tracer.summary()
            print_trace_report(summary)
            overhead = traced.wall_s / untraced.wall_s - 1.0
            print(f"wall_s untraced {untraced.wall_s!r} traced {traced.wall_s!r} s")
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz"
            tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                      "untraced_wall_s": untraced.wall_s, "traced_wall_s": traced.wall_s})
            print(f"spans written to {trace_path.relative_to(ROOT)}")
            result_metrics = {name: {"value": value, "unit": unit}
                              for name, (value, unit) in per_layer_metrics(summary, overhead).items()}
    else:
        print(f"set-up times s: {[round(t, 4) for t in setup_times]}; runs: {len(ok)} passed "
              f"of {attempted}; wall_s per run: {[round(o.wall_s, 4) for o in ok]}")
        result_metrics = {name: {"value": metrics[name], "unit": unit}
                          for name, unit in END_TO_END_UNITS.items() if name in metrics}
    for name, m in result_metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and bool(result_metrics), "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0 if result_metrics else 1


if __name__ == "__main__":
    sys.exit(main())
