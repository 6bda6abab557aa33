"""k3walls benchmark: one workload, one seed, end-to-end or traced metrics.

    python3 perfbench/run.py --workload enum_sweep --seed 1 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the engine is imported from ``src/``.
With ``--trace 0`` each of two measuring processes makes a fixed number
of passes over the operations, set by ``--seconds`` (default: BENCHMARK.json's
``run_seconds``), and the run prints the end-to-end metrics.  With
``--trace 1`` it makes one untraced and one traced pass and prints the
per-layer metrics.  The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import pickle
import random
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import inputs
import tracing
import workloads
from workloads import OpResult

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SUMMARY = OUT_DIR / "last-run.json"  # counts of the last run, read by collect.py
WORKLOADS = ("enum_sweep", "survey_ladder", "cli_mix")
# Seconds one pass over a workload's operations took on one CPU of the
# 2-CPU host the benchmark was built on, at the commit that added it.  The
# number of passes is --seconds over this, rounded, so it depends on the
# inputs and --seconds only: a faster commit makes as many executions as a
# slower one, and both take the fastest of the same number of samples.
PASS_S = {"enum_sweep": 15.0, "survey_ladder": 15.0, "cli_mix": 25.0}
SETUP_SAMPLES = 8  # per call; measure() samples before and after measuring
WORKERS = 2  # measuring processes, one per CPU
WORKER_TIMEOUT_S = 150  # a run must end within 180 s
# what each workload's process imports before its first operation
ENTRY_MODULE = {"enum_sweep": "k3walls", "survey_ladder": "k3walls.report", "cli_mix": "k3walls.cli"}


def setup_seconds(workload: str, env: dict) -> list[float]:
    """Fresh interpreters importing what the workload needs before its first operation."""
    cmd = [sys.executable, "-c", f"import {ENTRY_MODULE[workload]}"]
    subprocess.run(cmd, cwd=ROOT, env=env, check=True)  # writes bytecode once, untimed
    times = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True)
        times.append(perf_counter() - start)
    return times


def make_inputs(workload: str, seed: int):
    return getattr(inputs, workload)(random.Random(f"{workload}:{seed}"))


class Runner:
    """Runs passes of one workload; in-process workloads import the engine once."""

    def __init__(self, workload: str, items, env: dict):
        self.workload, self.items, self.env = workload, items, env
        self.import_s = 0.0
        if workload != "cli_mix":
            sys.path.insert(0, str(ROOT / "src"))
            start = perf_counter()
            importlib.import_module(ENTRY_MODULE[workload])
            self.import_s = perf_counter() - start
            self.k3 = sys.modules["k3walls"]

    def one_pass(self, order=None, traced=False, corrupt=None) -> tuple[list, dict | None]:
        """Results of the operations at the indices in ``order`` (all, by default),
        plus the trace of a traced pass."""
        order = range(len(self.items)) if order is None else order
        results = []
        if self.workload == "cli_mix":
            trace = {"spans": [], "counts": {}} if traced else None
            imports = []
            OUT_DIR.mkdir(exist_ok=True)
            for i in order:
                path = OUT_DIR / f"child-{i}.json" if traced else None
                res, part = workloads.cli_op(ROOT, self.env, self.items[i], path, corrupt)
                results.append(res)
                if part is not None:
                    imports.append(part["import_s"])
                    _cli_root_span(part, res.latency)
                    tracing.merge(trace, part, i)
            if traced:
                trace["import_s"] = statistics.median(imports)
            return results, trace
        op = workloads.enum_op if self.workload == "enum_sweep" else workloads.ladder_op
        tracer = tracing.Tracer() if traced else None
        if tracer:
            tracer.install()
        try:
            for i in order:
                g, v = self.items[i]
                # Untimed: the cyclic garbage of the operation before is freed
                # here, so the peak RSS does not depend on the seeded order.
                gc.collect()
                results.append(op(self.k3, g, v, tracer, i, corrupt))
        finally:
            if tracer:
                tracer.uninstall()
        if tracer is None:
            return results, None
        return results, {**tracer.export(), "import_s": self.import_s}


def _cli_root_span(part: dict, latency: float) -> None:
    """Stretch the child's root span over the whole request as seen by the parent.

    The stretch is the interpreter start, the import of k3walls (also
    reported as cli.import_s), installing the wrappers and process exit;
    it lands in harness.self_s.
    """
    for k, (name, start, end, parent, op) in enumerate(part["spans"]):
        if parent == -1:
            part["spans"][k] = (name, end - latency, end, parent, op)


def summarize(results: list) -> dict:
    lat = sorted(r.latency for r in results)
    failed = [r for r in results if not r.ok]
    reasons = Counter(r.reason for r in failed)
    # sorted, so that the digest does not depend on the seeded order
    digest = hashlib.sha256("".join(sorted(r.digest for r in results)).encode()).hexdigest()[:16]
    return {
        "n": len(results),
        "ok": len(results) - len(failed),
        "failed": len(failed),
        "reasons": dict(sorted(reasons.items())),
        "busy_s": sum(lat),
        "p50": statistics.median(lat),
        "p90": statistics.quantiles(lat, n=10, method="inclusive")[-1] if len(lat) > 1 else lat[0],
        "digest": digest,
        "problems": [p for r in results for p in r.problems][:5],
        "incorrect": sum(1 for r in results if r.incorrect),
    }


def fastest(executions: list) -> OpResult:
    """One operation's result over its executions: the fastest time, the first outcome.

    Executions whose outputs differ make the operation fail its check.
    """
    first = executions[0]
    if any(e.digest != first.digest or e.reason != first.reason for e in executions):
        return OpResult(min(e.latency for e in executions), "check", first.digest,
                        ["outputs differ between executions of one operation"])
    return OpResult(min(e.latency for e in executions), first.reason, first.digest, first.problems)


def passes(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_S[workload]))


def run_passes(runner: Runner, count: int, reverse: bool) -> list[list[OpResult]]:
    """Executions of every operation in ``count`` passes of alternating direction."""
    execs: list[list[OpResult]] = [[] for _ in runner.items]
    order = list(range(len(runner.items)))
    order = order[::-1] if reverse else order
    for _ in range(count):
        for i, res in zip(order, runner.one_pass(order)[0]):
            execs[i].append(res)
        order = order[::-1]
    return execs


def measure_in_workers(workload: str, items, count: int) -> tuple[list[list[OpResult]], float]:
    """Each operation's executions on every CPU (up to WORKERS), and the peak RSS in MB.

    One ``worker.py`` process per CPU makes ``count`` passes at the same
    time, the second one starting in reverse order, so that the first two
    executions of an operation lie far apart in time.  The slowdowns of a
    shared host differ between CPUs (on a 2-CPU host one CPU ran a loop at
    11-12 ms while the other ran it at 16-19 ms for ten seconds), and two
    workers on two CPUs did not slow each other.  Every worker is stopped
    and waited for on every path out of here; one that outlives SIGTERM by
    5 s is killed.
    """
    cpus = sorted(os.sched_getaffinity(0))[:WORKERS]
    OUT_DIR.mkdir(exist_ok=True)
    in_path = OUT_DIR / "worker-in.pkl"
    in_path.write_bytes(pickle.dumps(items))
    outs = [OUT_DIR / f"worker-{k}.pkl" for k in range(len(cpus))]
    procs = []
    try:
        for k, (cpu, out) in enumerate(zip(cpus, outs)):
            out.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "worker.py"), workload, str(cpu), str(count), str(k % 2),
                   str(in_path), str(out)]
            procs.append(subprocess.Popen(cmd, cwd=ROOT))
        deadline = perf_counter() + WORKER_TIMEOUT_S
        for proc in procs:
            proc.wait(timeout=max(0.0, deadline - perf_counter()))
    finally:
        for proc in procs:
            proc.terminate()  # a worker kills and waits for the CLI process it runs, then exits
        for proc in procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    if any(proc.returncode != 0 for proc in procs):
        raise RuntimeError(f"a measuring process failed: exit codes {[proc.returncode for proc in procs]}")
    results = [pickle.loads(out.read_bytes()) for out in outs]
    for out in (in_path, *outs):
        out.unlink()
    execs = [[e for per_worker in per_op for e in per_worker] for per_op in zip(*(r[0] for r in results))]
    return execs, max(r[1] for r in results)


def measure(workload: str, seed: int, seconds: float, items=None) -> tuple[dict, dict]:
    """End-to-end metrics.  An operation's latency is the fastest of its executions.

    On a shared host the same loop runs up to 2x slower for stretches of a
    second to minutes.  Executions far apart in time, and on different
    CPUs, drop part of that: every operation runs once per pass on each CPU.
    """
    env = workloads.child_env(ROOT)
    setup = setup_seconds(workload, env)
    items = items or make_inputs(workload, seed)
    execs, rss_mb = measure_in_workers(workload, items, passes(workload, seconds))
    setup += setup_seconds(workload, env)
    results = [fastest(e) for e in execs]
    s = summarize(results)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (s["ok"] / s["busy_s"], "1/s"),
        "op_p50_s": (s["p50"], "s"),
        "op_p90_s": (s["p90"], "s"),
        "ok_frac": (s["ok"] / s["n"], "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    s["executions"] = len(execs[0])
    print(f"workload {workload}  seed {seed}  inputs {len(items)}  executions per op {s['executions']}"
          f" ({passes(workload, seconds)} pass(es) on each of {min(WORKERS, len(os.sched_getaffinity(0)))} CPUs)  trace off")
    print(f"  setup_s      {metrics['setup_s'][0]:.4f} s    median of {len(setup)} fresh interpreters (before and after measuring)")
    print(f"  ops_per_s    {metrics['ops_per_s'][0]:.4f} 1/s  {s['ok']} ok ops in {s['busy_s']:.2f} s busy (n={s['n']})")
    print(f"  op_p50_s     {s['p50']:.4f} s    n={s['n']}, each the fastest of its executions")
    p90_note = "" if s["n"] >= 100 else "  (fewer than 100 samples, so fewer than 10 lie above it)"
    print(f"  op_p90_s     {s['p90']:.4f} s    n={s['n']}{p90_note}")
    print(f"  failed_frac  {s['failed'] / s['n']:.4f}      {s['failed']} failed of {s['n']} attempted: {s['reasons'] or 'none'}")
    print(f"  ok_frac      {metrics['ok_frac'][0]:.4f}      {s['ok']} of {s['n']}")
    print(f"  peak_rss_mb  {rss_mb:.1f} MB   {'largest CLI process' if workload == 'cli_mix' else 'largest measuring process'}")
    print(f"  digest       {s['digest']}")
    for p in s["problems"]:
        print(f"  failure: {p}")
    return metrics, s


def trace_run(workload: str, seed: int, items=None) -> tuple[dict, dict]:
    env = workloads.child_env(ROOT)
    items = items or make_inputs(workload, seed)
    runner = Runner(workload, items, env)
    plain = summarize(runner.one_pass()[0])
    traced_results, trace = runner.one_pass(traced=True)
    traced = summarize(traced_results)
    layers = tracing.layer_metrics(trace)
    layers["cli.import_s"] = trace["import_s"]
    attributed = sum(layers[f"{name}.self_s"] for name in tracing.LAYERS)
    layers["trace.attributed_frac"] = attributed / layers["trace.op_s"]
    layers["trace.overhead"] = traced["busy_s"] / plain["busy_s"]
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}.jsonl"  # one file per workload, overwritten
    with open(spans_path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"workload": workload, "seed": seed, "fields": ["name", "start", "end", "parent", "op"]}) + "\n")
        for span in trace["spans"]:
            handle.write(json.dumps(span) + "\n")
    print(f"workload {workload}  seed {seed}  inputs {len(items)}  trace on ({len(trace['spans'])} spans -> {spans_path.name})")
    for key in sorted(layers):
        print(f"  {key:32s} {layers[key]}")
    print(f"  tracing overhead: untraced pass {plain['busy_s']:.2f} s ({plain['ok'] / plain['busy_s']:.4f} ops/s), "
          f"traced pass {traced['busy_s']:.2f} s ({traced['ok'] / traced['busy_s']:.4f} ops/s)")
    if plain["digest"] != traced["digest"]:
        traced["incorrect"] += 1
        print("  check: traced and untraced passes produced different outputs")
    metrics = {k: (v, _unit(k)) for k, v in layers.items()}
    return metrics, traced


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_out"):
        return "bytes"
    if name.endswith(("_frac", "_per_flop", "_per_built", "overhead", "cone_passes")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test the benchmark on a few inputs")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so that the workers are stopped
    if not (ROOT / "src" / "k3walls" / "__init__.py").is_file():
        print(f"error: no k3walls sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if args.smoke:
        import selftest

        return selftest.main(sys.modules[__name__])
    if args.workload is None:
        parser.error("--workload is required")
    if args.trace:
        metrics, s = trace_run(args.workload, args.seed)
    else:
        metrics, s = measure(args.workload, args.seed, args.seconds)
    OUT_DIR.mkdir(exist_ok=True)
    SUMMARY.write_text(json.dumps({k: s[k] for k in ("n", "failed", "reasons", "digest", "executions") if k in s}),
                       encoding="utf-8")
    result = {
        "correct": s["incorrect"] == 0,
        "attempted": s["n"],
        "failed": s["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
