"""Exact re-checks of engine outputs, written independently of the engine.

Each checker returns a list of problems (empty when the output is right).
A checker never raises on a bad output: malformed text is a problem too.
Only plain integers and ``fractions.Fraction`` are used.
"""
from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction

CERT_ROLES = {
    # role: (required square, pairing test)
    "spherical_orthogonal": (-2, lambda m, vsq: m == 0),
    "isotropic_pairing_one": (0, lambda m, vsq: m == 1),
    "isotropic_pairing_two": (0, lambda m, vsq: m == 2),
    "semistability_isotropic": (0, lambda m, vsq: m == 1),
    "semistability_spherical": (-2, lambda m, vsq: m < 0),
    "spherical_flop": (-2, lambda m, vsq: 0 < 2 * m <= vsq),
    "positive_part": (None, lambda m, vsq: 0 < m < vsq),
    "isotropic_fibration": (0, lambda m, vsq: m == 0),
}
KINDS = {"divisorial", "flopping", "fake", "lagrangian"}


def mukai(e: int, x, y) -> int:
    """Mukai pairing c_x c_y H^2 - r_x s_y - r_y s_x, with e = H^2."""
    return x[1] * y[1] * e - x[0] * y[2] - y[0] * x[2]


def det3(x, y, z) -> int:
    return (
        x[0] * (y[1] * z[2] - y[2] * z[1])
        - x[1] * (y[0] * z[2] - y[2] * z[0])
        + x[2] * (y[0] * z[1] - y[1] * z[0])
    )


def add(x, y):
    return tuple(p + q for p, q in zip(x, y))


def check_certificate(e: int, v, wall_a, cls, role: str) -> list[str]:
    """A certificate must satisfy its role's equation and lie in <v, a>."""
    cls = tuple(cls)
    if role not in CERT_ROLES:
        return [f"unknown certificate role {role!r}"]
    want_sq, pair_ok = CERT_ROLES[role]
    sq = mukai(e, cls, cls)
    m = mukai(e, cls, v)
    vsq = mukai(e, v, v)
    out = []
    if want_sq is None:
        if sq < 0:
            out.append(f"{role} {cls}: square {sq} < 0")
    elif sq != want_sq:
        out.append(f"{role} {cls}: square {sq} != {want_sq}")
    if not pair_ok(m, vsq):
        out.append(f"{role} {cls}: pairing {m} with v violates the role")
    if det3(v, tuple(wall_a), cls) != 0:
        out.append(f"{role} {cls}: not in the wall lattice")
    return out


def check_walls_doc(doc: dict) -> list[str]:
    """Every exact relation a walls JSON document must satisfy."""
    out = []
    try:
        e = 2 * doc["genus"] - 2
        v = tuple(doc["v"])
        vsq = mukai(e, v, v)
        if doc["square"] != vsq:
            out.append(f"square {doc['square']} != {vsq}")
        e1, e2 = tuple(doc["basis"]["e1"]), tuple(doc["basis"]["e2"])
        for b in (e1, e2):
            if mukai(e, b, v) != 0:
                out.append(f"basis vector {b} not orthogonal to v")
        flops = 0
        for row in doc["walls"]:
            a = tuple(row["a"])
            tag = f"wall {row['i']}"
            if row["a2"] != mukai(e, a, a):
                out.append(f"{tag}: a2 {row['a2']} != (a,a)")
            if row["av"] != mukai(e, a, v):
                out.append(f"{tag}: av {row['av']} != (a,v)")
            kind = row["kind"].split("(")[0]
            if kind not in KINDS:
                out.append(f"{tag}: unknown kind {row['kind']!r}")
            flops += kind == "flopping"
            d = add(tuple(row["D"][0] * x for x in e1), tuple(row["D"][1] * x for x in e2))
            if mukai(e, d, v) != 0:
                out.append(f"{tag}: divisor D not orthogonal to v")
            if row["qD"] != mukai(e, d, d):
                out.append(f"{tag}: qD {row['qD']} != (D,D)")
            if det3(v, a, d) != 0:
                out.append(f"{tag}: divisor D not in <v, a>")
            for cert in row["certificates"]:
                out += [f"{tag}: {p}" for p in check_certificate(e, v, a, cert["class"], cert["role"])]
            for parts in row["decompositions"]:
                total = (0, 0, 0)
                for p in parts:
                    total = add(total, tuple(p))
                if total != v:
                    out.append(f"{tag}: decomposition {parts} sums to {total}, not v")
            if row["r"] is not None:
                fibers = {
                    mukai(e, tuple(p), tuple(q)) - 1
                    for p, q in (ps for ps in row["decompositions"] if len(ps) == 2)
                }
                if row["r"] < 1 or row["r"] not in fibers:
                    out.append(f"{tag}: fiber dimension {row['r']} is not (b,a)-1 >= 1 of a split")
        if doc["chambers"] != flops + 1:
            out.append(f"chambers {doc['chambers']} != flopping walls + 1 = {flops + 1}")
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        out.append(f"malformed walls document: {exc!r}")
    return out


def check_json_text(text: str) -> tuple[dict | None, list[str]]:
    """Parse a rendered document and require that it round-trips exactly."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return None, [f"output is not JSON: {exc}"]
    if json.dumps(doc, indent=2) + "\n" != text:
        return doc, ["JSON does not round-trip to the same text"]
    return doc, []


def check_survey(survey, doc: dict, text: str) -> list[str]:
    """Checks for one in-process survey, its document and its rendered JSON."""
    parsed, out = check_json_text(text)
    if parsed is not None and parsed != doc:
        out.append("json.loads(render_json(doc)) != doc")
    out += check_walls_doc(doc)
    e = survey.cfg.h2
    v = survey.v.as_tuple()
    for rec in survey.records:
        if rec.bundle is None:
            continue
        a, b = rec.bundle.a.as_tuple(), rec.bundle.b.as_tuple()
        if add(a, b) != v:
            out.append(f"wall {rec.index}: bundle split does not sum to v")
        if rec.bundle.fiber_dim != mukai(e, b, a) - 1 or rec.bundle.fiber_dim < 1:
            out.append(f"wall {rec.index}: fiber dimension is not (b,a)-1 >= 1")
    return out


def check_enumeration(e: int, v, walls, verdicts) -> list[str]:
    """Checks for one enumeration plus the verdict of every wall."""
    out = []
    v = tuple(v)
    for i, (wall, verdict) in enumerate(zip(walls, verdicts)):
        a = wall.a.as_tuple()
        line = wall.line.as_tuple()
        # the wall's orthogonal line is the divisor direction: (D, v) = (D, a) = 0
        if mukai(e, line, v) != 0 or mukai(e, line, a) != 0:
            out.append(f"wall {i}: orthogonal line not orthogonal to <v, a>")
        g = wall.gram
        if (g.q11, g.q12, g.q22) != (mukai(e, v, v), mukai(e, v, a), mukai(e, a, a)):
            out.append(f"wall {i}: Gram matrix disagrees with the pairing")
        if verdict.kind not in KINDS:
            out.append(f"wall {i}: unknown kind {verdict.kind!r}")
        for cert in verdict.certificates:
            out += [f"wall {i}: {p}" for p in check_certificate(e, v, a, cert.cls.as_tuple(), cert.role)]
    return out


_VEC = re.compile(r"^\((-?\d+),(-?\d+),(-?\d+)\)$")


def parse_vec(text: str):
    m = _VEC.match(text.strip())
    if not m:
        raise ValueError(f"bad vector {text!r}")
    return tuple(int(x) for x in m.groups())


def _check_wall_rows(e: int, v, rows: list[list[str]]) -> list[str]:
    """Rows of the walls table or CSV: i, a, a2, av, kind, tss, ..., r, locus."""
    out = []
    for k, row in enumerate(rows):
        if len(row) != 13 or row[0] != str(k):
            out.append(f"row {k}: malformed {row!r}")
            continue
        a = parse_vec(row[1])
        if int(row[2]) != mukai(e, a, a) or int(row[3]) != mukai(e, a, v):
            out.append(f"row {k}: a2/av disagree with a = {a}")
        kind = row[4].split("(")[0]
        if kind not in KINDS or row[5] not in ("yes", "no"):
            out.append(f"row {k}: bad kind or tss {row[4]!r} {row[5]!r}")
        r = row[11]
        if r and (int(r) < 1 or not row[12].startswith(f"P^{r}-bundle")):
            out.append(f"row {k}: fiber dimension {r!r} disagrees with locus")
    return out


def check_walls_table(e: int, v, text: str) -> list[str]:
    try:
        lines = text.rstrip("\n").split("\n")
        head = f"walls for v = ({v[0]},{v[1]},{v[2]})"
        if not lines[0].startswith(head):
            return [f"table header {lines[0]!r} does not name v"]
        chambers = int(lines[2].split(":")[1])
        body = [ln for ln in lines[5:] if not ln.startswith("warning:")]
        rows = []
        for ln in body:
            cells = re.split(r"\s{2,}", ln.strip())
            rows.append(cells + [""] * (13 - len(cells)))
        flops = sum(1 for r in rows if r[4].startswith("flopping"))
        out = _check_wall_rows(e, v, rows)
        if chambers != flops + 1:
            out.append(f"chambers {chambers} != flopping rows + 1")
        return out
    except (IndexError, ValueError) as exc:
        return [f"malformed walls table: {exc!r}"]


def check_walls_csv(e: int, v, text: str) -> list[str]:
    try:
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != ["i", "a", "a2", "av", "kind", "tss", "D", "qD", "div", "R", "qR", "r", "locus"]:
            return [f"bad CSV header {rows[0]!r}"]
        return _check_wall_rows(e, v, rows[1:])
    except (IndexError, ValueError) as exc:
        return [f"malformed walls CSV: {exc!r}"]


def _charge(e: int, x, b: Fraction, t2: Fraction):
    """Z(x) at (b, t) as (real part, imaginary part / t), from exp((b+it)H)."""
    r, c, s = x
    re_part = e * c * b - s - Fraction(e, 2) * r * (b * b - t2)
    return re_part, e * (c - r * b)


def check_path_doc(doc: dict, b0: Fraction) -> list[str]:
    """Every crossing is an exact alignment point of Z(v) and Z(a) on b = b0."""
    out = []
    try:
        e = 2 * doc["genus"] - 2
        v = tuple(doc["v"])
        if Fraction(doc["b"]) != b0:
            out.append(f"path b {doc['b']} != requested {b0}")
        prev = None
        for cr in doc["crossings"]:
            t2 = Fraction(cr["t2"])
            if t2 <= 0 or (prev is not None and t2 > prev):
                out.append(f"crossing t2 {t2} not positive and decreasing")
            prev = t2
            rv, mv = _charge(e, v, b0, t2)
            ra, ma = _charge(e, tuple(cr["a"]), b0, t2)
            if rv * ma - ra * mv != 0:
                out.append(f"crossing of wall {cr['wall']}: Z(v), Z(a) not aligned at t2 = {t2}")
            if abs(float(cr["t_approx"]) - float(t2) ** 0.5) > 1e-6:
                out.append(f"crossing of wall {cr['wall']}: t_approx {cr['t_approx']} wrong")
            hole = cr["hole"]
            if hole is not None:
                h = tuple(hole)
                if mukai(e, h, h) != -2 or _charge(e, h, b0, t2) != (0, 0):
                    out.append(f"crossing of wall {cr['wall']}: {h} is not a spherical hole there")
        plain = sum(1 for cr in doc["crossings"] if cr["hole"] is None)
        if doc["chambers_crossed"] != plain + 1:
            out.append("chambers_crossed != hole-free crossings + 1")
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        out.append(f"malformed path document: {exc!r}")
    return out


def check_path_table(text: str, b0: Fraction) -> list[str]:
    try:
        lines = text.rstrip("\n").split("\n")
        if Fraction(lines[0].split()[3]) != b0:
            return [f"path header {lines[0]!r} does not name b = {b0}"]
        prev, plain = None, 0
        for ln in lines[3:]:
            if ln.startswith("chambers crossed:"):
                if int(ln.split(":")[1]) != plain + 1:
                    return ["chambers crossed != hole-free crossings + 1"]
                break
            cells = re.split(r"\s{2,}", ln.strip())
            t2 = Fraction(cells[1])
            if t2 <= 0 or (prev is not None and t2 > prev):
                return [f"crossing t2 {t2} not positive and decreasing"]
            if abs(float(cells[3]) - float(t2) ** 0.5) > 1e-6:
                return [f"approximation {cells[3]} of sqrt({t2}) wrong"]
            prev = t2
            plain += len(cells) < 5
        else:
            return ["path table has no 'chambers crossed' line"]
        return []
    except (IndexError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed path table: {exc!r}"]


def check_classify_text(e: int, v, text: str) -> list[str]:
    try:
        fields = [ln.split(": ", 1) for ln in text.rstrip("\n").split("\n")]
        if fields[0][0] != "kind" or fields[0][1] not in KINDS:
            return [f"bad classify output {text!r}"]
        a = next(parse_vec(val) for key, val in fields if key == "normalized a")
        out = []
        for key, val in fields:
            if key == "certificate":
                cls_text, role = val.split(" [")
                out += check_certificate(e, v, a, parse_vec(cls_text), role.rstrip("]"))
        return out
    except (IndexError, ValueError, StopIteration) as exc:
        return [f"malformed classify output: {exc!r}"]


def tensor(e: int, k: int, x):
    """Mukai vector of E (x) O(kH): multiply ch by exp(kH)."""
    r, c, s = x
    return (r, c + k * r, s + k * c * e + Fraction(k * k * r * e, 2))


def check_transform_text(e: int, op: str, k, x, text: str) -> list[str]:
    """Image of x (and the matrix, if printed) must be an isometry image."""
    try:
        lines = text.rstrip("\n").split("\n")
        image = tuple(int(p) for p in lines[0].split(","))
        out = []
        if mukai(e, image, image) != mukai(e, x, x):
            out.append(f"{op} image {image} changes the square of {x}")
        if op == "tensor" and image != tensor(e, k, x):
            out.append(f"tensor image {image} != {tensor(e, k, x)}")
        if op == "dual" and image != (x[0], -x[1], x[2]):
            out.append(f"dual image {image} != {(x[0], -x[1], x[2])}")
        if len(lines) > 1:
            m = [[int(p) for p in ln.strip("[]").split(", ")] for ln in lines[1:]]
            cols = [tuple(m[i][j] for i in range(3)) for j in range(3)]
            unit = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
            for i in range(3):
                for j in range(3):
                    if mukai(e, cols[i], cols[j]) != mukai(e, unit[i], unit[j]):
                        out.append("printed matrix does not preserve the pairing")
            if tuple(sum(m[i][j] * x[j] for j in range(3)) for i in range(3)) != image:
                out.append("printed matrix does not map x to the printed image")
        return out
    except (IndexError, ValueError) as exc:
        return [f"malformed transform output: {exc!r}"]
