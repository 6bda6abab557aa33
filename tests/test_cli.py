import json
import pathlib

import pytest

from k3walls import K3Config, mv, survey
from k3walls.cli import main, parse_vector, run
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


def test_bad_genus_is_usage_error(capsys):
    code, _, err = invoke(capsys, "walls", "--genus", "1", "--v", "1,0,-4")
    assert code == 1 and "genus" in err


def test_json_round_trip():
    doc = walls_document_from_survey(survey(CFG, mv(1, 0, -4)))
    assert json.loads(render_json(doc)) == doc
    pdoc = path_document(CFG, mv(1, 0, -4), -2)
    assert json.loads(render_json(pdoc)) == pdoc


def test_json_schema_fields(capsys):
    code, out, _ = invoke(
        capsys, "walls", "--genus", "2", "--v", "1,0,-4", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["chambers"] == 5
    assert len(doc["walls"]) == 6
    assert doc["walls"][1]["qR"] == "-5/2"
    assert doc["window_stable"] is True


def test_csv_outputs():
    doc = walls_document_from_survey(survey(CFG, mv(1, 0, -4)))
    text = render_walls_csv(doc)
    lines = text.strip().split("\n")
    assert lines[0].startswith("i,a,a2,av,kind,tss,D,qD,div,R,qR,r,locus")
    assert len(lines) == 7
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


def test_transform_rejects_bad_reflection(capsys):
    code, _, err = invoke(capsys, "transform", "--reflect", "1,0,0", "--v", "0,1,0")
    assert code == 1
    assert "square -2" in err


def test_zero_vector_is_usage_error(capsys):
    code, _, err = invoke(capsys, "walls", "--genus", "2", "--v", "0,0,0")
    assert code == 1 and "primitive" in err


def test_bad_vector_is_usage_error(capsys):
    code, _, err = invoke(capsys, "walls", "--v", "1,2")
    assert code == 1


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


def test_config_file_precedence(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("genus = 2\nv = 1,0,-4\nformat = json\n")
    code, out, _ = invoke(capsys, "walls", "--config", str(cfg_file))
    assert code == 0
    assert json.loads(out)["v"] == [1, 0, -4]
    # flags win over the file
    code, out, _ = invoke(capsys, "walls", "--config", str(cfg_file), "--v", "0,2,-1")
    assert json.loads(out)["v"] == [0, 2, -1]


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
