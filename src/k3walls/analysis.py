"""Assembled wall surveys: enumeration + classification + NS data per wall,
the chamber chain of the movable cone, and its transport under isometries.
"""
from __future__ import annotations

from dataclasses import dataclass

from .classify import (
    BundleDescriptor,
    Splittings,
    WallVerdict,
    classify,
    effective_decompositions,
    flop_cells,
)
from .lattice import K3Config, MukaiVector
from .nsgeom import CurveClass, NSBasis, NSClass, curve_class, wall_divisor
from .walls import WallLattice, enumerate_result


@dataclass(frozen=True)
class WallRecord:
    """Everything the reports print about one wall."""

    index: int
    wall: WallLattice
    verdict: WallVerdict
    divisor: NSClass
    curve: CurveClass
    decompositions: Splittings
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
        decs = Splittings((), {})
        bundle = None
        if verdict.is_flopping:
            decs = effective_decompositions(cfg, wall, verdict)
            # isometries keep fiber dimensions and the squares of the
            # parts, so the least (fiber_dim, base_dims) is transported
            # with the wall; on a tie the first such cell is reported
            bundle = min(flop_cells(cfg, decs), key=_cell_shape, default=None)
        records.append(WallRecord(idx, wall, verdict, divisor, curve, decs, bundle))
    return WallSurvey(cfg, v, basis, tuple(records), enum.window, enum.stable)


def _surveys_agree(cfg: K3Config, v: MukaiVector, iso, same) -> bool:
    """Equal wall counts for v and iso(v), and same(r1, r2) on every pair."""
    sv1 = survey(cfg, v)
    sv2 = survey(cfg, iso.apply(v))
    return len(sv1.records) == len(sv2.records) and all(
        same(r1, r2) for r1, r2 in zip(sv1.records, sv2.records)
    )


def _cell_shape(desc: BundleDescriptor | None) -> tuple[int, tuple[int, int]] | None:
    return (desc.fiber_dim, desc.base_dims) if desc else None


def transport_check(cfg: K3Config, v: MukaiVector, iso) -> bool:
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
            and _cell_shape(r1.bundle) == _cell_shape(r2.bundle)
        )

    return _surveys_agree(cfg, v, iso, same)


def chain_structure_check(cfg: K3Config, v: MukaiVector, iso) -> bool:
    """Agreement of wall counts, verdicts and flop cell dimensions for v, iso(v)."""

    def same(r1: WallRecord, r2: WallRecord) -> bool:
        return (
            (r1.verdict.kind, r1.verdict.subtype, _cell_shape(r1.bundle))
            == (r2.verdict.kind, r2.verdict.subtype, _cell_shape(r2.bundle))
        )

    return _surveys_agree(cfg, v, iso, same)
