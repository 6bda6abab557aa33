"""Assembled wall surveys: enumeration + classification + NS data per wall,
the chamber chain of the movable cone, and stability-path crossing reports.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .classify import (
    BundleDescriptor,
    Decomposition,
    WallVerdict,
    bundle_descriptor,
    classify,
    effective_decompositions,
    flop_cells,
)
from .lattice import K3Config, MukaiVector
from .nsgeom import CurveClass, NSBasis, NSClass, curve_class, wall_divisor
from .stability import PathCrossing, path_crossings
from .walls import WallLattice, enumerate_result


@dataclass(frozen=True)
class WallRecord:
    """Everything the reports print about one wall."""

    index: int
    wall: WallLattice
    verdict: WallVerdict
    divisor: NSClass
    curve: CurveClass
    decompositions: tuple[Decomposition, ...]
    bundle: BundleDescriptor | None

    @property
    def a(self) -> MukaiVector:
        return self.wall.a


@dataclass(frozen=True)
class WallSurvey:
    """The chamber chain: records run from the divisorial boundary wall to
    the opposite boundary, and each flopping wall between them separates
    two chambers.
    """

    cfg: K3Config
    v: MukaiVector
    basis: NSBasis
    records: tuple[WallRecord, ...]
    window: int
    stable: bool

    @property
    def chambers(self) -> int:
        walls_between = sum(1 for r in self.records if r.verdict.is_flopping)
        return walls_between + 1


def survey(cfg: K3Config, v: MukaiVector, window: int | None = None) -> WallSurvey:
    enum = enumerate_result(cfg, v, window)
    basis = enum.cone.basis
    records = []
    for idx, wall in enumerate(enum.walls):
        verdict = classify(cfg, wall)
        divisor = wall_divisor(cfg, v, wall.a, basis)
        curve = curve_class(cfg, v, divisor)
        decs = ()
        bundle = None
        if verdict.is_flopping:
            decs = tuple(effective_decompositions(cfg, wall, verdict))
            cells = flop_cells(cfg, decs)
            if cells:
                bundle = bundle_descriptor(cfg, v, cells[0][0])
        records.append(WallRecord(idx, wall, verdict, divisor, curve, decs, bundle))
    return WallSurvey(cfg, v, basis, tuple(records), enum.window, enum.stable)


@dataclass(frozen=True)
class PathReport:
    cfg: K3Config
    v: MukaiVector
    b0: Fraction
    crossings: tuple[PathCrossing, ...]
    window: int
    stable: bool


def path_report(
    cfg: K3Config,
    v: MukaiVector,
    b0,
    t_min=0,
    t_max=None,
    window: int | None = None,
) -> PathReport:
    enum = enumerate_result(cfg, v, window)
    classes = [wall.a for wall in enum.walls]
    crossings = path_crossings(cfg, v, classes, b0, t_min, t_max)
    return PathReport(cfg, v, Fraction(b0), tuple(crossings), enum.window, enum.stable)


def _surveys_agree(cfg: K3Config, v: MukaiVector, iso, window, same) -> bool:
    """Equal wall counts for v and iso(v), and same(r1, r2) on every pair."""
    sv1 = survey(cfg, v, window)
    sv2 = survey(cfg, iso.apply(v), window)
    return len(sv1.records) == len(sv2.records) and all(
        same(r1, r2) for r1, r2 in zip(sv1.records, sv2.records)
    )


def _fiber_dim(rec: WallRecord) -> int | None:
    return rec.bundle.fiber_dim if rec.bundle else None


def transport_check(
    cfg: K3Config, v: MukaiVector, iso, window: int | None = None
) -> bool:
    """Wall-for-wall agreement of the chains for v and iso(v).

    Holds on the nose for isometries that preserve the ample side (line
    bundle twists and the rank-two composite); reflections move walls by
    the divisorial Weyl action, for which only chain_structure_check is
    meaningful.
    """

    def same(r1: WallRecord, r2: WallRecord) -> bool:
        img = iso.apply(r1.a)
        return (
            r2.a.as_tuple() in (img.as_tuple(), (-img).as_tuple())
            and r1.verdict.kind == r2.verdict.kind
            and _fiber_dim(r1) == _fiber_dim(r2)
        )

    return _surveys_agree(cfg, v, iso, window, same)


def chain_structure_check(
    cfg: K3Config, v: MukaiVector, iso, window: int | None = None
) -> bool:
    """Agreement of wall counts, verdicts and fiber dimensions for v, iso(v)."""

    def same(r1: WallRecord, r2: WallRecord) -> bool:
        return (
            (r1.verdict.kind, r1.verdict.subtype, _fiber_dim(r1))
            == (r2.verdict.kind, r2.verdict.subtype, _fiber_dim(r2))
        )

    return _surveys_agree(cfg, v, iso, window, same)
