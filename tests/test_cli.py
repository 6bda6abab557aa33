import importlib
import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest

import k3walls
from k3walls import K3Config, mv, survey
from k3walls.cli import main, parse_vector, run
from k3walls.lattice import square
from k3walls.report import (
    path_document,
    render_json,
    render_path_csv,
    render_walls_csv,
    walls_document_from_survey,
)

CFG = K3Config(2)
GOLDEN = pathlib.Path(__file__).parent / "golden"


def invoke(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_walls_table_is_byte_stable(capsys):
    for args, name in [
        (("walls", "--genus", "2", "--v", "1,0,-4"), "walls_g2_1_0_m4.txt"),
        (("walls", "--genus", "2", "--v", "0,2,-1"), "walls_g2_0_2_m1.txt"),
    ]:
        code, out1, _ = invoke(capsys, *args)
        assert code == 0
        code, out2, _ = invoke(capsys, *args)
        assert out1 == out2
        assert out1 == (GOLDEN / name).read_text()


def test_path_table_golden(capsys):
    code, out, _ = invoke(capsys, "path", "--genus", "2", "--v", "1,0,-4", "--b", "-2")
    assert code == 0
    assert out == (GOLDEN / "path_g2_1_0_m4_bm2.txt").read_text()
    assert "sqrt(2/3)" in out
    assert "sqrt(2)" in out
    assert "(1, -2, 5)" in out  # hole collision warning


def test_json_golden_schema_frozen(capsys):
    code, out, _ = invoke(
        capsys, "walls", "--genus", "2", "--v", "1,0,-4", "--format", "json"
    )
    assert code == 0
    assert out == (GOLDEN / "walls_g2_1_0_m4.json").read_text()


def run_cli_process(*argv):
    src = str(pathlib.Path(k3walls.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    cmd = [sys.executable, "-m", "k3walls.cli", *argv]
    return subprocess.run(cmd, env=env, capture_output=True, timeout=120)


def test_cli_module_exit_codes_reach_the_shell():
    # python -m k3walls.cli passes main's code to sys.exit: 0 with the
    # golden table, 1 with one error line, 2 for a window-unstable --strict
    ok = run_cli_process("walls", "--genus", "2", "--v", "1,0,-4")
    assert ok.returncode == 0 and ok.stdout == (GOLDEN / "walls_g2_1_0_m4.txt").read_bytes()
    sector = run_cli_process("walls", "--genus", "7", "--v", "4,1,-5")
    assert sector.returncode == 1 and sector.stdout == b""
    assert sector.stderr.startswith(b"error: ") and sector.stderr.count(b"\n") == 1
    assert run_cli_process("walls", "--genus", "2", "--v", "4,1,-11", "--strict").returncode == 2


def test_unknown_subcommand_is_usage_error(capsys):
    # argparse rejects any other command before run() dispatches
    code, out, err = invoke(capsys, "bogus")
    assert code == 1 and out == ""
    assert err.startswith("error: argument command: invalid choice: 'bogus'") and err.count("\n") == 1


def test_bad_genus_is_usage_error(capsys):
    code, _, err = invoke(capsys, "walls", "--genus", "1", "--v", "1,0,-4")
    assert code == 1 and "genus" in err


def test_json_round_trip():
    doc = walls_document_from_survey(survey(CFG, mv(1, 0, -4)))
    assert json.loads(render_json(doc)) == doc
    pdoc = path_document(CFG, mv(1, 0, -4), -2)
    assert json.loads(render_json(pdoc)) == pdoc


def _document_sample():
    # a seeded sample over g 2-12, with the ladder's (5,2,-9)
    rng = random.Random("render_json")
    sample = [(CFG, mv(5, 2, -9))]
    while len(sample) < 13:
        cfg = K3Config(rng.randint(2, 12))
        r, c, s = rng.randint(-5, 5), rng.randint(-3, 3), rng.randint(-30, 30)
        if gcd(gcd(r, c), s) == 1 and 0 < square(cfg, mv(r, c, s)) <= 60:
            sample.append((cfg, mv(r, c, s)))
    # ids as the goldens name vectors: g2_5_2_m9
    return [
        pytest.param(cfg, v, id=f"g{cfg.genus}_" + "_".join(str(x).replace("-", "m") for x in v.as_tuple()))
        for cfg, v in sample
    ]


def _holds_only_json_values(x) -> bool:
    # no float, Fraction or tuple: exact values are strings or ints
    if type(x) is dict:
        return all(type(k) is str and _holds_only_json_values(val) for k, val in x.items())
    if type(x) is list:
        return all(_holds_only_json_values(item) for item in x)
    return type(x) in (str, int, bool, type(None))


@pytest.mark.parametrize("cfg, v", _document_sample())
def test_documents_hold_only_json_values(cfg, v):
    # b = -1/97 lies on no vertical wall of the sample
    for doc in (walls_document_from_survey(survey(cfg, v)), path_document(cfg, v, Fraction(-1, 97))):
        assert _holds_only_json_values(doc), doc["report"]
        assert json.loads(render_json(doc)) == doc, doc["report"]


def test_json_schema_fields(capsys):
    code, out, _ = invoke(
        capsys, "walls", "--genus", "2", "--v", "1,0,-4", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 2
    assert doc["chambers"] == 5
    assert len(doc["walls"]) == 6
    assert doc["walls"][1]["qR"] == "-5/2"
    assert doc["window_stable"] is True


def test_walls_json_size_follows_the_walls():
    # the document lists two-part splittings and counts the longer ones:
    # (7,3,-20) has 182 965 splittings, which as a list rendered 32 MB
    text = render_json(walls_document_from_survey(survey(CFG, mv(7, 3, -20))))
    assert len(text.encode()) < 200_000


def test_csv_outputs(capsys):
    doc = walls_document_from_survey(survey(CFG, mv(1, 0, -4)))
    text = render_walls_csv(doc)
    lines = text.strip().split("\n")
    assert lines[0].startswith("i,a,a2,av,kind,tss,D,qD,div,R,qR,r,locus")
    assert len(lines) == 7
    code, out, _ = invoke(capsys, "walls", "--genus", "2", "--v", "1,0,-4", "--format", "csv")
    assert code == 0 and out == text
    pdoc = path_document(CFG, mv(1, 0, -4), -2)
    plines = render_path_csv(pdoc).strip().split("\n")
    assert plines[0] == "wall,t2,t,approx,hole"
    assert len(plines) == 5


def test_path_with_t_min(capsys):
    code, out, _ = invoke(
        capsys, "path", "--genus", "2", "--v", "0,2,-1", "--b", "0", "--t-min", "1",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert [c["t2"] for c in doc["crossings"]] == ["3/2"]
    assert doc["crossings"][0]["hole"] is None
    code, out, err = invoke(capsys, "path", "--genus", "2", "--v", "0,2,-1", "--t-min", "1")
    assert code == 1 and out == "" and "--b is required" in err


BAD_T_BOUNDS = {
    ("--t-min", "-1"): "t_min must be >= 0, got -1",
    ("--t-max", "-3"): "t_max must exceed t_min, got t_min = 0, t_max = -3",
    ("--t-min", "3", "--t-max", "1"): "t_max must exceed t_min, got t_min = 3, t_max = 1",
}


@pytest.mark.parametrize("bounds", list(BAD_T_BOUNDS))
def test_path_rejects_bad_t_bounds(capsys, monkeypatch, bounds):
    # one error line, and the range is checked before any wall is enumerated
    enumerated = []
    monkeypatch.setattr(importlib.import_module("k3walls.report"), "enumerate_result",
                        lambda *args: enumerated.append(args))
    code, out, err = invoke(capsys, "path", "--genus", "2", "--v", "7,3,-20", "--b", "0", *bounds)
    assert (code, out, err) == (1, "", f"error: {BAD_T_BOUNDS[bounds]}\n")
    assert enumerated == []


@pytest.mark.parametrize("flags", [("--b", "1/0"), ("--b", "0", "--t-min", "1/0"), ("--b", "0", "--t-max", "1/0")])
def test_path_rejects_zero_denominator(capsys, flags):
    code, out, err = invoke(capsys, "path", "--genus", "2", "--v", "1,0,-4", *flags)
    assert (code, out, err) == (1, "", "error: zero denominator in '1/0'\n")


def test_negative_rationals_and_vectors_are_values(capsys):
    # a value starting with '-' and a digit is read as a value, not a flag
    base = ("path", "--genus", "2", "--v", "1,0,-4")
    code, joined, _ = invoke(capsys, *base, "--b=-1/2")
    assert code == 0 and joined
    assert invoke(capsys, *base, "--b", "-1/2") == (0, joined, "")
    code, out, _ = invoke(capsys, "walls", "--genus", "2", "--v", "-1,0,4")
    assert code == 0 and out == invoke(capsys, "walls", "--genus", "2", "--v=-1,0,4")[1]
    assert invoke(capsys, "pairing", "--x", "-1,0,4", "--y", "0,1,0") == (0, "0\n", "")
    assert invoke(capsys, "pairing", "--x", "-1,0,4", "--y", "1,0,-4") == (0, "-8\n", "")
    code, out, err = invoke(capsys, *base, "--b", "0", "--t-max", "-1/3")
    assert (code, out, err) == (1, "", "error: t_max must exceed t_min, got t_min = 0, t_max = -1/3\n")
    # a missing value is still an error
    code, out, err = invoke(capsys, *base, "--b")
    assert (code, out, err) == (1, "", "error: argument --b: expected one argument\n")


def test_path_range_excludes_hole(capsys):
    code, out, _ = invoke(
        capsys, "path", "--genus", "2", "--v", "1,0,-4", "--b", "-2",
        "--t-min", "6/5", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["hole_warnings"] == []
    assert [c["t2"] for c in doc["crossings"]] == ["4", "2"]


def test_transform_commands(capsys):
    code, out, _ = invoke(capsys, "transform", "--tstar", "--v", "0,2,-1")
    assert code == 0 and out.strip() == "1,0,-4"
    code, out, _ = invoke(capsys, "transform", "--tstar", "--matrix")
    assert code == 0
    assert out == "[0, 0, -1]\n[0, 1, 2]\n[-1, -4, -4]\n"
    code, out, _ = invoke(capsys, "transform", "--tensor", "0", "--v", "7,-3,2")
    assert code == 0 and out.strip() == "7,-3,2"
    code, out, _ = invoke(capsys, "transform", "--dual", "--v", "1,2,3")
    assert code == 0 and out == "1,-2,3\n"
    code, out, _ = invoke(capsys, "transform", "--reflect", "1,-2,5", "--v", "1,0,0")
    assert code == 0 and out == "-4,10,-25\n"


def test_transform_rejects_bad_reflection(capsys):
    code, _, err = invoke(capsys, "transform", "--reflect", "1,0,0", "--v", "0,1,0")
    assert code == 1
    assert "square -2" in err
    # one operation at a time, and at least one
    code, out, err = invoke(capsys, "transform", "--tstar", "--dual", "--v", "1,0,0")
    assert code == 1 and out == "" and "choose one of" in err
    code, out, err = invoke(capsys, "transform", "--v", "1,0,0")
    assert code == 1 and out == "" and "no operation requested" in err
    # an operation with nothing to apply it to
    code, out, err = invoke(capsys, "transform", "--tensor", "1")
    assert (code, out, err) == (1, "", "error: nothing to print: give --v or --matrix\n")


def test_zero_vector_is_usage_error(capsys):
    code, _, err = invoke(capsys, "walls", "--genus", "2", "--v", "0,0,0")
    assert code == 1 and "primitive" in err


def test_bad_vector_is_usage_error(capsys):
    code, _, err = invoke(capsys, "walls", "--v", "1,2")
    assert code == 1
    code, out, err = invoke(capsys, "walls", "--v", "1,x,0")
    assert code == 1 and out == "" and "bad vector '1,x,0'" in err
    code, out, err = invoke(capsys, "walls")
    assert code == 1 and out == "" and "--v is required" in err


def test_strict_escalates_unstable_window(capsys):
    # a window of 2 misses the wall with a coefficient of size 3, so doubling
    # the window changes the list and --strict escalates
    code, out, _ = invoke(
        capsys, "walls", "--genus", "2", "--v", "1,0,-4", "--window", "2", "--strict"
    )
    assert code == 2
    assert "window unstable" in out
    code, _, _ = invoke(
        capsys, "walls", "--genus", "2", "--v", "1,0,-4", "--window", "2"
    )
    assert code == 0  # warning only without --strict
    code, out, _ = invoke(
        capsys, "path", "--genus", "2", "--v", "1,0,-4", "--b", "-2", "--window", "2",
        "--strict", "--format", "json",
    )
    assert code == 2
    assert json.loads(out)["window_stable"] is False


def test_window_below_one_is_usage_error(capsys):
    # doubling a window of 0 repeats the same pass, which would read as stable
    for window in ("0", "-5"):
        code, out, err = invoke(
            capsys, "walls", "--genus", "2", "--v", "1,0,-4", "--window", window, "--strict"
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "window" in err


def test_pairing_command(capsys):
    code, out, _ = invoke(capsys, "pairing", "--x", "1,-1,2", "--y", "1,0,-4")
    assert code == 0 and out.strip() == "2"


def test_flags_a_subcommand_ignores_are_rejected(capsys):
    # --window, --format and --strict belong to walls and path; pairing has no --v
    for flag, argv in [
        ("--format", ("pairing", "--x", "1,-1,2", "--y", "1,0,-4", "--format", "json")),
        ("--v", ("pairing", "--x", "1,-1,2", "--y", "1,0,-4", "--v", "1,0,-4")),
        ("--window", ("classify", "--v", "1,0,-4", "--a", "1,-1,2", "--window", "4")),
        ("--strict", ("transform", "--tstar", "--v", "0,2,-1", "--strict")),
    ]:
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1 and flag in err


def test_classify_command(capsys):
    code, out, _ = invoke(capsys, "classify", "--genus", "2", "--v", "1,0,-4",
                          "--a", "1,-1,2")
    assert code == 0
    assert "flopping" in out and "spherical" in out
    assert "totally_semistable: no" in out


def test_classify_rejects_non_positive_v(capsys):
    # a wall needs v^2 > 0: v^2 = 0 and v^2 < 0 give one error line, not a traceback
    for v, a in (("0,0,1", "1,0,0"), ("0,0,1", "0,1,0"), ("1,0,1", "0,1,0")):
        code, out, err = invoke(capsys, "classify", "--v", v, "--a", a)
        assert code == 1 and out == ""
        assert err.startswith("error: v^2 = ") and "is not positive" in err


def test_classify_rejects_non_primitive_v(capsys):
    # (2, 0, -8) has v^2 = 32 > 0 and is not proportional to a
    code, out, err = invoke(capsys, "classify", "--v", "2,0,-8", "--a", "1,1,0")
    assert code == 1 and out == ""
    assert err == "error: v is not primitive in the lattice\n"


def test_config_file_precedence(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("genus = 2\nv = 1,0,-4\nformat = json\n")
    code, out, _ = invoke(capsys, "walls", "--config", str(cfg_file))
    assert code == 0
    assert json.loads(out)["v"] == [1, 0, -4]
    # flags win over the file
    code, out, _ = invoke(capsys, "walls", "--config", str(cfg_file), "--v", "0,2,-1")
    assert json.loads(out)["v"] == [0, 2, -1]
    # blank lines and comments are skipped
    cfg_file.write_text("# the Hilbert side\n\nv = 1,0,-4  # n = 5\nformat = json\n")
    code, out, _ = invoke(capsys, "walls", "--config", str(cfg_file))
    assert code == 0 and json.loads(out)["v"] == [1, 0, -4]


def test_config_file_values_are_checked(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("v = 1,0,-4\nformat = xml\n")
    code, out, err = invoke(capsys, "walls", "--config", str(cfg_file))
    assert code == 1 and out == "" and "xml" in err
    # a misspelt key is named, not ignored
    cfg_file.write_text("v = 1,0,-4\nwindw = 4000\n")
    code, out, err = invoke(capsys, "walls", "--config", str(cfg_file))
    assert code == 1 and out == "" and "windw" in err
    # integer values are parsed as the flags parse them, naming the key
    cfg_file.write_text("v = 1,0,-4\nwindow = 4k\n")
    code, out, err = invoke(capsys, "walls", "--config", str(cfg_file))
    assert code == 1 and out == "" and "window" in err and "4k" in err
    # a rational with a zero denominator, as with the flag
    cfg_file.write_text("v = 1,0,-4\nb = 1/0\n")
    code, out, err = invoke(capsys, "path", "--config", str(cfg_file))
    assert (code, out, err) == (1, "", "error: zero denominator in '1/0'\n")
    # a line without "=" is named
    cfg_file.write_text("v = 1,0,-4\nwindow 4\n")
    code, out, err = invoke(capsys, "walls", "--config", str(cfg_file))
    assert code == 1 and out == "" and "bad config line: 'window 4'" in err
    # a missing file is a usage error, not a traceback
    code, out, err = invoke(capsys, "walls", "--config", str(tmp_path / "none.cfg"))
    assert code == 1 and out == "" and err.startswith("error: ") and "none.cfg" in err


def test_config_keys_are_read_only_by_the_commands_that_use_them(tmp_path, capsys):
    # one file serves every subcommand: pairing ignores the window and format of walls
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("window = 4k\nformat = xml\n")
    code, out, err = invoke(
        capsys, "pairing", "--x", "1,-1,2", "--y", "1,0,-4", "--config", str(cfg_file)
    )
    assert (code, out, err) == (0, "2\n", "")
    code, out, err = invoke(capsys, "path", "--v", "1,0,-4", "--b", "0", "--config", str(cfg_file))
    assert code == 1 and out == "" and "xml" in err


def test_parse_vector_errors():
    with pytest.raises(Exception):
        parse_vector("1,2")
    assert parse_vector("-1,2,-4") == mv(-1, 2, -4)
