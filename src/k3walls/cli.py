"""Command line front end.

Subcommands: walls, path, transform, classify, pairing.  Exit codes:
0 success, 1 usage error or an input whose movable sector cannot be
bounded exactly (SectorError), 2 enumeration-stability warning under --strict.
Flag values override the optional config file, which overrides defaults.
"""
from __future__ import annotations

import argparse
import sys

from .analysis import survey
from .classify import classify as classify_wall
from .intmath import MAT_IDENTITY, parse_frac
from .lattice import (
    Isometry,
    K3Config,
    MukaiVector,
    dual_isometry,
    pairing,
    reflection_isometry,
    tensor_isometry,
    twist_T,
)
from .report import (
    path_document,
    render_json,
    render_path_csv,
    render_path_table,
    render_walls_csv,
    render_walls_table,
    walls_document_from_survey,
)
from .walls import build_wall


FORMATS = ("table", "json", "csv")
# every setting that run() reads from a config file
CONFIG_KEYS = ("genus", "v", "window", "format", "b", "t_min", "t_max", "a", "x", "y")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors raise UsageError; '-' and a digit starts a value, not a flag.

    argparse reads only negative integers and decimals as values, so
    --b -1/2 and --v -1,0,4 would otherwise lack their value.  No flag
    starts with a digit, and subparsers are of this class too.
    """

    def error(self, message):
        raise UsageError(message)

    def _parse_optional(self, arg_string):
        if arg_string[:1] == "-" and arg_string[1:2].isdigit():
            return None
        return super()._parse_optional(arg_string)


def parse_vector(text: str) -> MukaiVector:
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad vector {text!r}: {exc}") from None
    if len(parts) != 3:
        raise UsageError(f"vector must have three components, got {text!r}")
    return MukaiVector(*parts)


def read_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc.strerror}") from None
    values: dict[str, str] = {}
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"bad config line: {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise UsageError(f"unknown config key {key!r}")
        values[key] = val
    return values


def build_parser() -> _Parser:
    parser = _Parser(prog="k3walls", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes only the flags it reads
    def common(p, vector=True, enumeration=False):
        p.add_argument("--genus", type=int, default=None)
        if vector:
            p.add_argument("--v", dest="v", default=None, metavar="r,c,s")
        if enumeration:
            p.add_argument("--window", type=int, default=None)
            p.add_argument("--format", choices=FORMATS, default=None)
            p.add_argument("--strict", action="store_true")
        p.add_argument("--config", default=None)

    p_walls = sub.add_parser("walls", help="wall table for the movable cone")
    common(p_walls, enumeration=True)

    p_path = sub.add_parser("path", help="crossings of a vertical stability path")
    common(p_path, enumeration=True)
    p_path.add_argument("--b", default=None, metavar="RAT")
    p_path.add_argument("--t-min", dest="t_min", default=None, metavar="RAT")
    p_path.add_argument("--t-max", dest="t_max", default=None, metavar="RAT")

    p_tr = sub.add_parser("transform", help="apply a lattice isometry to a class")
    common(p_tr)
    p_tr.add_argument("--tstar", action="store_true")
    p_tr.add_argument("--tensor", type=int, default=None, metavar="K")
    p_tr.add_argument("--reflect", default=None, metavar="r,c,s")
    p_tr.add_argument("--dual", action="store_true")
    p_tr.add_argument("--matrix", action="store_true")

    p_cl = sub.add_parser("classify", help="classify the wall spanned by v and a")
    common(p_cl)
    p_cl.add_argument("--a", default=None, metavar="r,c,s")

    p_pair = sub.add_parser("pairing", help="Mukai pairing of two classes")
    common(p_pair, vector=False)
    p_pair.add_argument("--x", default=None, metavar="r,c,s")
    p_pair.add_argument("--y", default=None, metavar="r,c,s")
    return parser


def _setting(args, file_cfg: dict, key: str, default=None):
    val = getattr(args, key, None)
    if val is not None and val is not False:
        return val
    if key in file_cfg:
        return file_cfg[key]
    return default


def _int_setting(args, file_cfg: dict, key: str, default=None) -> int | None:
    val = _setting(args, file_cfg, key, default)
    try:
        return None if val is None else int(val)
    except ValueError:
        raise UsageError(f"{key} must be an integer, got {val!r}") from None


def _enumeration_settings(args, file_cfg) -> tuple[str, int | None]:
    """The output format and the window, which only walls and path read."""
    fmt = _setting(args, file_cfg, "format", "table")
    if fmt not in FORMATS:
        raise UsageError(f"format must be one of {', '.join(FORMATS)}, got {fmt!r}")
    return fmt, _int_setting(args, file_cfg, "window")


def _require_vector(args, file_cfg, key="v") -> MukaiVector:
    raw = _setting(args, file_cfg, key)
    if raw is None:
        raise UsageError(f"--{key} is required")
    return parse_vector(str(raw))


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    file_cfg = read_config_file(args.config) if args.config else {}
    cfg = K3Config(_int_setting(args, file_cfg, "genus", 2))
    out = sys.stdout

    if args.command == "walls":
        fmt, window = _enumeration_settings(args, file_cfg)
        v = _require_vector(args, file_cfg)
        sv = survey(cfg, v, window)
        doc = walls_document_from_survey(sv)
        out.write(_render(doc, fmt, render_walls_table, render_walls_csv))
        if not sv.stable and args.strict:
            return 2
        return 0

    if args.command == "path":
        fmt, window = _enumeration_settings(args, file_cfg)
        v = _require_vector(args, file_cfg)
        b_raw = _setting(args, file_cfg, "b")
        if b_raw is None:
            raise UsageError("--b is required for path reports")
        b0 = parse_frac(str(b_raw))
        t_min = parse_frac(str(_setting(args, file_cfg, "t_min", "0")))
        t_max_raw = _setting(args, file_cfg, "t_max")
        t_max = parse_frac(str(t_max_raw)) if t_max_raw is not None else None
        doc = path_document(cfg, v, b0, t_min, t_max, window)
        out.write(_render(doc, fmt, render_path_table, render_path_csv))
        if not doc["window_stable"] and args.strict:
            return 2
        return 0

    if args.command == "transform":
        iso = Isometry(MAT_IDENTITY)
        chosen = 0
        if args.tstar:
            iso = twist_T(cfg)
            chosen += 1
        if args.tensor is not None:
            iso = tensor_isometry(cfg, args.tensor)
            chosen += 1
        if args.reflect is not None:
            w = parse_vector(args.reflect)
            try:
                iso = reflection_isometry(cfg, w)
            except ValueError as exc:
                raise UsageError(str(exc)) from None
            chosen += 1
        if args.dual:
            iso = dual_isometry()
            chosen += 1
        if chosen > 1:
            raise UsageError("choose one of --tstar/--tensor/--reflect/--dual")
        if chosen == 0 and not args.matrix:
            raise UsageError("no operation requested")
        raw_v = _setting(args, file_cfg, "v")
        if raw_v is None and not args.matrix:
            raise UsageError("nothing to print: give --v or --matrix")
        if raw_v is not None:
            image = iso.apply(parse_vector(str(raw_v)))
            out.write("{},{},{}\n".format(*image.as_tuple()))
        if args.matrix:
            for row in iso.matrix:
                out.write("[{}, {}, {}]\n".format(*row))
        return 0

    if args.command == "classify":
        v = _require_vector(args, file_cfg)
        a = _require_vector(args, file_cfg, "a")
        wall = build_wall(cfg, v, a)
        verdict = classify_wall(cfg, wall)
        out.write(f"kind: {verdict.kind}\n")
        if verdict.subtype:
            out.write(f"subtype: {verdict.subtype}\n")
        out.write(f"totally_semistable: {'yes' if verdict.totally_semistable else 'no'}\n")
        out.write(f"normalized a: {wall.a}\n")
        for cert in verdict.certificates:
            out.write(f"certificate: {cert.cls} [{cert.role}]\n")
        return 0

    if args.command == "pairing":
        x = _require_vector(args, file_cfg, "x")
        y = _require_vector(args, file_cfg, "y")
        out.write(f"{pairing(cfg, x, y)}\n")
        return 0


def _render(doc, fmt, table_fn, csv_fn) -> str:
    if fmt == "json":
        return render_json(doc)
    if fmt == "csv":
        return csv_fn(doc)
    return table_fn(doc)


def main(argv=None) -> int:
    try:
        return run(argv)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
