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
    cfg: K3Config
    v: MukaiVector
    basis: NSBasis
    records: tuple[WallRecord, ...]
    window: int
    stable: bool

    @property
    def interior(self) -> tuple[WallRecord, ...]:
        return tuple(r for r in self.records if 0 < r.index < len(self.records) - 1)

    @property
    def chambers(self) -> int:
        walls_between = sum(1 for r in self.records if r.verdict.is_flopping)
        return walls_between + 1


def survey(cfg: K3Config, v: MukaiVector, window: int | None = None) -> WallSurvey:
    enum = enumerate_result(cfg, v, "mov", window)
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
class ChamberChain:
    """Ordered walk through the movable cone from the divisorial boundary.

    boundary_start / boundary_end are the two boundary walls; every interior
    record is a genuine wall of the chamber decomposition.
    """

    survey: WallSurvey
    boundary_start: WallRecord
    interior: tuple[WallRecord, ...]
    boundary_end: WallRecord

    @property
    def chambers(self) -> int:
        return len(self.interior) + 1

    def fiber_dims(self) -> tuple[int, ...]:
        return tuple(r.bundle.fiber_dim for r in self.interior if r.bundle)


def chamber_chain(cfg: K3Config, v: MukaiVector, window: int | None = None) -> ChamberChain:
    sv = survey(cfg, v, window)
    if len(sv.records) < 2:
        raise ValueError("fewer than two walls: no chamber structure")
    return ChamberChain(sv, sv.records[0], sv.records[1:-1], sv.records[-1])


@dataclass(frozen=True)
class PathReport:
    cfg: K3Config
    v: MukaiVector
    b0: Fraction
    crossings: tuple[PathCrossing, ...]
    wall_indices: tuple[int, ...]  # wall index per crossing, as in survey
    degenerate_hits: tuple[int, ...]  # crossings that sit on a hole
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
    enum = enumerate_result(cfg, v, "mov", window)
    classes = [wall.a for wall in enum.walls]
    crossings = path_crossings(cfg, v, classes, b0, t_min, t_max)
    indices = tuple(cr.wall_index for cr in crossings)
    degenerate = tuple(
        i for i, cr in enumerate(crossings) if cr.hole_collision is not None
    )
    return PathReport(
        cfg, v, Fraction(b0), tuple(crossings), indices, degenerate, enum.window, enum.stable
    )


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
