"""Smoke test of the benchmark itself: ``python3 perfbench/run.py --smoke``.

On a few small inputs per workload it checks that
- every end-to-end and per-layer metric of BENCHMARK.json is printed by
  name, with the unit BENCHMARK.json gives it;
- two traced passes give identical counts;
- a corrupted output is counted as a failed operation and the pass goes on;
- a SectorError is an expected failure, while any other exception or an
  exit other than a one-line ``error:`` exit 1 makes the run incorrect.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import types

import inputs

TIME_DERIVED = {"trace.overhead", "trace.attributed_frac"}


def small_inputs(run) -> dict:
    enum = [x for x in run.make_inputs("enum_sweep", 1) if inputs.square(*x) <= 16][:4]
    cli = [r for r in run.make_inputs("cli_mix", 1) if "golden" in r or inputs.square(r["g"], r["v"]) <= 16]
    return {
        "enum_sweep": enum,
        "survey_ladder": [(2, v) for v in inputs.LADDER[:2]],
        "cli_mix": cli[:12],
    }


def _corrupt_enum(out):
    """Move the first wall's representative off its Gram matrix."""
    res, verdicts = out
    w = res.walls[0]
    bad = dataclasses.replace(w, a=w.a + w.v)
    return dataclasses.replace(res, walls=(bad,) + res.walls[1:]), verdicts


def _corrupt_ladder(out):
    sv, doc, text = out
    return sv, doc, text.replace('"chambers": ', '"chambers": 1', 1)


def _corrupt_cli(text: str) -> str:
    return text.replace("\n", "0\n", 1)


CORRUPT = {"enum_sweep": _corrupt_enum, "survey_ladder": _corrupt_ladder, "cli_mix": _corrupt_cli}


def _names_and_units(expected: list, metrics: dict, printed: str, what: str) -> list[str]:
    bad = []
    for m in expected:
        got = metrics.get(m["name"])
        if got is None or got[1] != m["unit"]:
            bad.append(f"{what}: metric {m['name']} missing or unit {got and got[1]!r} != {m['unit']!r}")
        elif m["name"] not in printed:
            bad.append(f"{what}: metric {m['name']} not printed")
    return bad


def _raising(exc_type):
    def enumerate_result(cfg, v):
        raise exc_type("raised by the benchmark's self-test")
    return enumerate_result


def crash_problems(run) -> list[str]:
    """A SectorError is an expected failure; a TypeError, an AssertionError
    and a CLI process that dies with a traceback (a traced child whose span
    file cannot be written) each make the run incorrect."""
    k3 = sys.modules["k3walls"]
    stand_in = dict(K3Config=k3.K3Config, mv=k3.mv, classify=k3.classify)
    sector = sys.modules["k3walls.walls"].SectorError
    results = [run.workloads.enum_op(types.SimpleNamespace(**stand_in, enumerate_result=_raising(exc)), 2, (1, 0, -4))
               for exc in (sector, TypeError, AssertionError)]
    req = {"argv": ["pairing", "--genus", "2", "--x=1,0,-4", "--y=0,1,0"], "check": "pairing", "g": 2,
           "v": (1, 0, -4), "y": (0, 1, 0)}
    unwritable = run.OUT_DIR / "no-such-dir" / "spans.json"
    results.append(run.workloads.cli_op(run.ROOT, run.workloads.child_env(run.ROOT), req, unwritable)[0])
    reasons = [r.reason for r in results]
    print(f"smoke crashes: {reasons}, incorrect {[r.incorrect for r in results]}")
    if [r.incorrect for r in results] != [False, True, True, True] or run.summarize(results)["incorrect"] != 3:
        return [f"crashes not told apart from expected failures: {reasons}"]
    return []


def main(run) -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload, items in small_inputs(run).items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            metrics, _ = run.measure(workload, 1, 0, items)
            traced = [run.trace_run(workload, 1, items)[0] for _ in range(2)]
        problems += _names_and_units(spec["end_to_end"], metrics, buf.getvalue(), workload)
        problems += _names_and_units(spec["per_layer"], traced[0], buf.getvalue(), f"{workload} traced")
        counts = [{k: v for k, (v, _) in t.items() if not k.endswith("_s") and k not in TIME_DERIVED} for t in traced]
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            problems.append(f"{workload}: traced counts differ between two passes: {diff}")

        runner = run.Runner(workload, items[:1] if workload != "cli_mix" else
                            [r for r in items if "golden" in r or r.get("check") == "pairing"][:2], run.workloads.child_env(run.ROOT))
        bad = runner.one_pass(corrupt=CORRUPT[workload])[0]
        good = runner.one_pass()[0]
        if not all(r.reason == "check" for r in bad) or not all(r.ok for r in good):
            problems.append(f"{workload}: corrupted output not counted as failed "
                            f"({[r.reason for r in bad]} vs clean {[r.reason for r in good]})")
        print(f"smoke {workload}: {len(items)} inputs, {len(metrics)} end-to-end and "
              f"{len(traced[0])} per-layer metrics, corrupted outputs -> {[r.reason for r in bad]}")
    problems += crash_problems(run)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1
