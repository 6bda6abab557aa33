"""Operations of the three workloads: run, time, check, classify the outcome.

An operation fails when it raises, exits non-zero, fails its output check,
or is marked window-unstable by the engine (a possibly truncated wall
list).  A failed operation is timed until it fails and never aborts the
pass.  Checks run after the clock stops.

Only the engine's known failures are expected: a ``SectorError``, a
window-unstable result, and a CLI exit 1 whose standard error is one
``error:`` line.  Any other exception or exit, and any failed check, makes
the run incorrect.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import checks

HERE = Path(__file__).resolve().parent
CLI_TIMEOUT_S = 60  # a request takes well under a second; a run must end within 180 s
EXPECTED_FAILURES = ("SectorError", "window-unstable", "exit 1")


@dataclass
class OpResult:
    latency: float
    reason: str = ""  # empty when the operation succeeded
    digest: str = ""
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.reason

    @property
    def incorrect(self) -> bool:
        return not self.ok and self.reason not in EXPECTED_FAILURES


def _digest(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _timed(fn, tracer, op_id):
    """(result, exception, seconds) of fn(), under a root span when traced."""
    start = perf_counter()
    try:
        result = tracer.run_op(op_id, fn) if tracer else fn()
        return result, None, perf_counter() - start
    except Exception as exc:  # the engine's failure is a measured outcome
        return None, exc, perf_counter() - start


def _raised(latency, exc, g, v) -> OpResult:
    """A SectorError is the engine's known failure; any other exception is a crash."""
    name = type(exc).__name__
    digest = _digest(f"{g}{v}{name}")
    if isinstance(exc, sys.modules["k3walls.walls"].SectorError):
        return OpResult(latency, name, digest)
    return OpResult(latency, f"crash {name}", digest, [f"{name}: {exc}"])


def _finish(latency, problems, unstable, digest) -> OpResult:
    reason = "check" if problems else ("window-unstable" if unstable else "")
    return OpResult(latency, reason, digest, problems)


def enum_op(k3, g: int, v, tracer=None, op_id=0, corrupt=None) -> OpResult:
    """enumerate_result, then classify on every wall (the README's library path)."""
    cfg, vec = k3.K3Config(g), k3.mv(*v)

    def body():
        res = k3.enumerate_result(cfg, vec)
        return res, [k3.classify(cfg, w) for w in res.walls]

    out, exc, latency = _timed(body, tracer, op_id)
    if exc is not None:
        return _raised(latency, exc, g, v)
    if corrupt:
        out = corrupt(out)
    res, verdicts = out
    problems = checks.check_enumeration(cfg.h2, v, res.walls, verdicts)
    summary = [(w.a.as_tuple(), d.kind, d.subtype, d.totally_semistable,
                [(c.cls.as_tuple(), c.role) for c in d.certificates]) for w, d in zip(res.walls, verdicts)]
    return _finish(latency, problems, not res.stable, _digest(repr((g, v, res.stable, summary))))


def ladder_op(k3, g: int, v, tracer=None, op_id=0, corrupt=None) -> OpResult:
    """survey, then walls_document_from_survey, then render_json."""
    report = sys.modules["k3walls.report"]
    cfg, vec = k3.K3Config(g), k3.mv(*v)

    def body():
        sv = k3.survey(cfg, vec)
        doc = report.walls_document_from_survey(sv)
        return sv, doc, report.render_json(doc)

    out, exc, latency = _timed(body, tracer, op_id)
    if exc is not None:
        return _raised(latency, exc, g, v)
    if corrupt:
        out = corrupt(out)
    sv, doc, text = out
    return _finish(latency, checks.check_survey(sv, doc, text), not sv.stable, _digest(text))


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_op(root: Path, env: dict, req: dict, trace_path=None, corrupt=None) -> tuple[OpResult, dict | None]:
    """One fresh ``python -m k3walls.cli`` process (or the traced bootstrap)."""
    if trace_path is None:
        cmd = [sys.executable, "-m", "k3walls.cli", *req["argv"]]
    else:
        cmd = [sys.executable, str(HERE / "child.py"), str(trace_path), *req["argv"]]
    start = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped the child
        latency = perf_counter() - start
        return OpResult(latency, "timeout", _digest(f"{req['argv']}\ntimeout"), [f"no exit in {CLI_TIMEOUT_S} s"]), None
    latency = perf_counter() - start
    trace = None
    if trace_path is not None:
        try:
            with open(trace_path, encoding="utf-8") as handle:
                trace = json.load(handle)
            os.remove(trace_path)
        except FileNotFoundError:  # the child died before writing its spans
            trace = {"spans": [], "counts": {}, "import_s": 0.0}
    text = proc.stdout
    if corrupt:
        text = corrupt(text)
    digest = _digest(f"{req['argv']}\n{proc.returncode}\n{text}")
    if proc.returncode != 0:
        err = proc.stderr.strip()
        known = proc.returncode == 1 and err.startswith("error: ") and "\n" not in err
        reason = "exit 1" if known else f"crash exit {proc.returncode}"
        return OpResult(latency, reason, digest, [err]), trace
    problems, unstable = check_cli_output(root, req, text)
    return _finish(latency, problems, unstable, digest), trace


def check_cli_output(root: Path, req: dict, text: str) -> tuple[list, bool]:
    """(problems, window-unstable) for the stdout of one request."""
    if "golden" in req:
        golden = (root / "tests" / "golden" / req["golden"]).read_text(encoding="utf-8")
        return ([] if text == golden else [f"differs from tests/golden/{req['golden']}"]), False
    kind, g, v = req["check"], req["g"], req["v"]
    e = 2 * g - 2
    unstable = "warning: enumeration window unstable" in text
    if kind == "walls_table":
        return checks.check_walls_table(e, v, text), unstable
    if kind == "walls_csv":
        return checks.check_walls_csv(e, v, text), unstable
    if kind in ("walls_json", "path_json"):
        doc, problems = checks.check_json_text(text)
        if doc is None:
            return problems, False
        if kind == "walls_json":
            problems += checks.check_walls_doc(doc)
        else:
            problems += checks.check_path_doc(doc, Fraction(req["b"]))
        return problems, doc.get("window_stable") is False
    if kind == "path_table":
        return checks.check_path_table(text, Fraction(req["b"])), unstable
    if kind == "classify":
        return checks.check_classify_text(e, v, text), unstable
    if kind == "transform":
        return checks.check_transform_text(e, req["op"], req["k"], v, text), unstable
    if kind == "pairing":
        want = checks.mukai(e, v, req["y"])
        return ([] if text == f"{want}\n" else [f"pairing printed {text!r}, want {want}"]), False
    return [f"no checker for {kind!r}"], False
