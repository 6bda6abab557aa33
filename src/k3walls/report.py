"""Report documents for the command line: stable dicts plus table/json/csv
renderers.  All exact values are rendered as canonical strings ('-5/2',
'sqrt(2/3)'); floats never enter the documents.  A document holds only
dicts with str keys, lists, str, int, bool and None.
"""
from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from .analysis import WallSurvey
from .intmath import frac_str, sqrt_str
from .lattice import K3Config, MukaiVector, pairing, square
from .nsgeom import curve_str, divisor_str
from .stability import path_crossings, t_range
from .walls import enumerate_result

SCHEMA_VERSION = 2

WALL_COLUMNS = [
    "i",
    "a",
    "a2",
    "av",
    "kind",
    "tss",
    "D",
    "qD",
    "div",
    "R",
    "qR",
    "r",
    "locus",
]


def _vec(x: MukaiVector) -> list[int]:
    return [x.r, x.c, x.s]


def walls_document_from_survey(sv: WallSurvey) -> dict:
    cfg = sv.cfg
    rows = []
    for rec in sv.records:
        verdict = rec.verdict
        kind = verdict.kind
        if verdict.subtype:
            kind = f"{kind}({verdict.subtype})"
        row = {
            "i": rec.index,
            "a": _vec(rec.a),
            "a2": square(cfg, rec.a),
            "av": pairing(cfg, rec.a, sv.v),
            "kind": kind,
            "tss": verdict.totally_semistable,
            "D": list(rec.divisor.coords),
            "D_str": divisor_str(rec.divisor, sv.basis),
            "qD": rec.divisor.bbf_square,
            "div": rec.curve.divisibility,
            "R": [frac_str(x) for x in rec.curve.coords],
            "R_str": curve_str(rec.curve, sv.basis, cfg),
            "qR": frac_str(rec.curve.bbf_square),
            "r": rec.bundle.fiber_dim if rec.bundle else None,
            "locus": rec.bundle.describe() if rec.bundle else None,
            "decompositions": [
                [_vec(p) for p in dec.parts] for dec in rec.decompositions.two_part
            ],
            "decomposition_counts": {
                str(parts): n for parts, n in rec.decompositions.counts.items()
            },
            "refinable": any(dec.refinable for dec in rec.decompositions.two_part),
            "certificates": [
                {"class": _vec(c.cls), "role": c.role}
                for c in verdict.certificates
            ],
            "phase_point": (
                [frac_str(verdict.phase_point[0]), frac_str(verdict.phase_point[1])]
                if verdict.phase_point is not None
                else None
            ),
            "tss_proxy": verdict.proxy_flag,
            "arc_sensitive": verdict.arc_sensitive,
        }
        rows.append(row)
    return {
        "schema_version": SCHEMA_VERSION,
        "report": "walls",
        "genus": cfg.genus,
        "v": _vec(sv.v),
        "square": square(cfg, sv.v),
        "basis": {
            "labels": list(sv.basis.labels),
            "e1": _vec(sv.basis.e1),
            "e2": _vec(sv.basis.e2),
        },
        "window": sv.window,
        "window_stable": sv.stable,
        "chambers": sv.chambers,
        "walls": rows,
    }


def path_document(
    cfg: K3Config,
    v: MukaiVector,
    b0,
    t_min=0,
    t_max=None,
    window: int | None = None,
) -> dict:
    # a rejected range costs no enumeration
    t_min, t_max = t_range(t_min, t_max)
    enum = enumerate_result(cfg, v, window)
    crossings = []
    for cr in path_crossings(cfg, enum.walls, b0, t_min, t_max):
        crossings.append(
            {
                "wall": cr.wall_index,
                "a": _vec(cr.a),
                "t2": frac_str(cr.t2),
                "t": sqrt_str(cr.t2),
                "t_approx": f"{float(Fraction(cr.t2)) ** 0.5:.6f}",
                "hole": _vec(cr.hole_collision) if cr.hole_collision else None,
            }
        )
    effective = [c for c in crossings if c["hole"] is None]
    segments = ["above all crossings"]
    segments += [f"below the wall-{c['wall']} crossing" for c in crossings]
    return {
        "schema_version": SCHEMA_VERSION,
        "report": "path",
        "genus": cfg.genus,
        "v": _vec(v),
        "b": frac_str(Fraction(b0)),
        "t_min": frac_str(t_min),
        "t_max": frac_str(t_max) if t_max is not None else None,
        "window": enum.window,
        "window_stable": enum.stable,
        "crossings": crossings,
        "chambers_crossed": len(effective) + 1,
        "segments": segments,
        "hole_warnings": [
            f"crossing of wall {c['wall']} at t^2 = {c['t2']} meets the "
            f"charge-vanishing point of {tuple(c['hole'])}; the stability "
            "condition degenerates there and the crossing is excluded from "
            "chamber counting"
            for c in crossings
            if c["hole"] is not None
        ],
    }


def _wall_cells(w: dict) -> list[str]:
    """One row of the walls table and CSV, in WALL_COLUMNS order."""
    return [
        str(w["i"]),
        "({},{},{})".format(*w["a"]),
        str(w["a2"]),
        str(w["av"]),
        w["kind"],
        "yes" if w["tss"] else "no",
        w["D_str"],
        str(w["qD"]),
        str(w["div"]),
        w["R_str"],
        w["qR"],
        "" if w["r"] is None else str(w["r"]),
        w["locus"] or "",
    ]


def _path_cells(c: dict) -> list[str]:
    """One row of the path table and CSV."""
    return [
        str(c["wall"]),
        c["t2"],
        c["t"],
        c["t_approx"],
        "" if c["hole"] is None else "({},{},{})".format(*c["hole"]),
    ]


def _table_lines(rows: list[list[str]]) -> list[str]:
    """Left-aligned columns, the header row underlined."""
    widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
    lines = []
    for i, r in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(r)).rstrip())
        if i == 0:
            lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    return lines


def _csv(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def render_walls_table(doc: dict) -> str:
    lines = [
        "walls for v = ({},{},{})  genus {}  (v,v) = {}".format(
            *doc["v"], doc["genus"], doc["square"]
        ),
        "basis: {} = {}, {} = {}".format(
            doc["basis"]["labels"][0],
            tuple(doc["basis"]["e1"]),
            doc["basis"]["labels"][1],
            tuple(doc["basis"]["e2"]),
        ),
        "chambers: {}".format(doc["chambers"]),
    ]
    lines += _table_lines([WALL_COLUMNS] + [_wall_cells(w) for w in doc["walls"]])
    if not doc["window_stable"]:
        lines.append("warning: enumeration window unstable; rerun with --window")
    return "\n".join(lines) + "\n"


def render_path_table(doc: dict) -> str:
    lines = [
        "path b = {} for v = ({},{},{})  genus {}".format(
            doc["b"], *doc["v"], doc["genus"]
        )
    ]
    header = ["wall", "t^2", "t", "approx", "hole"]
    lines += _table_lines([header] + [_path_cells(c) for c in doc["crossings"]])
    lines.append(f"chambers crossed: {doc['chambers_crossed']}")
    for warning in doc["hole_warnings"]:
        lines.append("warning: " + warning)
    return "\n".join(lines) + "\n"


def render_walls_csv(doc: dict) -> str:
    return _csv(WALL_COLUMNS, [_wall_cells(w) for w in doc["walls"]])


def render_path_csv(doc: dict) -> str:
    return _csv(["wall", "t2", "t", "approx", "hole"], [_path_cells(c) for c in doc["crossings"]])


def render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"
