"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/baseline.json

For every workload, runs ``run.py`` once per seed with tracing off, with
BENCHMARK.json's ``run_seconds`` (and, with ``--traced``, once traced on the
first seed), then records each metric's median, quartiles
(``statistics.quantiles(n=4)``) and quartile spread over the median, and
each run's failure counts per reason, output digest and executions per
operation.  Runs are sequential, so they never compete.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """The JSON result of one run and the counts it left in run.SUMMARY."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(run.SUMMARY.read_text(encoding="utf-8"))


def summarize(results: list) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        med = statistics.median(vals)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "values": vals,
        }
    return out


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    report = {"seeds": seeds, "seconds": SECONDS, "workloads": {}}
    for workload in run.WORKLOADS:
        runs = [run_once(workload, s, 0) for s in seeds]
        results = [r for r, _ in runs]
        entry = {
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "reasons": [c["reasons"] for _, c in runs],
            "digests": [c["digest"] for _, c in runs],
            "executions_per_op": [c["executions"] for _, c in runs],
            "correct": all(r["correct"] for r in results),
            "metrics": summarize(results),
        }
        if args.traced:
            traced, counts = run_once(workload, seeds[0], 1)
            entry["traced_seed"] = seeds[0]
            entry["traced_digest"] = counts["digest"]
            entry["per_layer"] = {k: m["value"] for k, m in traced["metrics"].items()}
        report["workloads"][workload] = entry
        for name, m in entry["metrics"].items():
            print(f"{workload:14s} {name:12s} median {m['median']:.4f} {m['unit']:5s} "
                  f"q1 {m['q1']:.4f} q3 {m['q3']:.4f} spread {m['spread']:.3f}", flush=True)
        print(f"{workload:14s} failed {entry['failed']} of {entry['attempted']}  correct {entry['correct']}"
              f"  reasons {entry['reasons'][0]}  digests {sorted(set(entry['digests']))}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
