"""Run one workload over several seeds and report each metric's median and spread.

    python3 bench/repeat.py --workload pipeline --seeds 1 2 3 4 5 --out runs.json

Each seed is one ``bench/run.py`` invocation, run one after another. The
spread of a metric is the distance between the first and third quartiles
of its values (``statistics.quantiles(values, n=4)``) as a share of their
median; it is compared with a third of the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance over median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="write every run's result here as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    results = []
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        digest = next((ln.split(":", 1)[1] for ln in lines if ln.startswith("digest sha256:")), None)
        results.append({"seed": seed, "digest": digest, **result})
        print(f"seed {seed}: correct {result['correct']} attempted {result['attempted']} "
              f"failed {result['failed']} " +
              " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    summary = {}
    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med, q1, q3, rel = spread(values) if len(values) > 1 else (values[0], values[0], values[0], 0.0)
        bound = bounds.get(name)
        flag = " over a third of the bound" if bound is not None and rel > bound / 3 else ""
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": rel,
                         "unit": results[0]["metrics"][name]["unit"]}
        print(f"{name:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.4f} {bound if bound is not None else '':>6}{flag}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"workload": args.workload, "seconds": seconds, "trace": args.trace,
                                        "runs": results, "summary": summary}, indent=1) + "\n")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
