"""Wall taxonomy: divisorial / flopping / fake, total semistability,
effective decompositions and exceptional-locus bundle data.

Divisorial subtypes are decided by class-existence tests inside the wall
lattice; effectivity of spherical classes is a phase-positivity test at an
exact rational point on the numerical wall, taken on the wall's generic
arc (see _select_arc).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .lattice import K3Config, MukaiVector, moduli_dim, pairing, square
from .solvers import decomposition_solutions
from .stability import AlignmentFunctional, alignment_candidates, spherical_members
from .walls import WallLattice

DIVISORIAL_BN = "brill_noether"
DIVISORIAL_HC = "hilbert_chow"
DIVISORIAL_LGU = "li_gieseker_uhlenbeck"


@dataclass(frozen=True)
class Certificate:
    cls: MukaiVector
    role: str


@dataclass(frozen=True)
class WallVerdict:
    """The verdict on one wall, with the wall data every consumer reads.

    func is the phase functional at the point of the generic arc
    (_select_arc), None exactly on degenerate walls;
    spherical holds the wall's spherical classes (spherical_members), and
    split_classes its classes u with u^2 >= -2 and 0 < (u, v) <= v^2/2
    (decomposition_solutions, in its order).
    """

    kind: str  # "divisorial" | "flopping" | "fake" | "lagrangian"
    subtype: str | None  # divisorial subtype or flop trigger
    totally_semistable: bool
    certificates: tuple[Certificate, ...]
    func: AlignmentFunctional | None
    proxy_flag: bool = False  # semistability verdict relied on the phase proxy
    arc_sensitive: bool = False  # other arcs of the wall disagree on (b')
    spherical: tuple[MukaiVector, ...] = field(default=(), compare=False)
    split_classes: tuple[MukaiVector, ...] = field(default=(), compare=False)

    @property
    def is_flopping(self) -> bool:
        return self.kind == "flopping"

    @property
    def phase_point(self) -> tuple[Fraction, Fraction] | None:
        """The (b, t^2) of func, used for every phase decision."""
        return (self.func.b, self.func.t2) if self.func is not None else None


@dataclass(frozen=True)
class BundleDescriptor:
    """Numerical shape of a flop's exceptional locus for a split v = a + b.

    Generically a P^r-bundle over the product of the two moduli factors;
    factors of dimension zero are single points (rigid spherical classes).
    The locus has dimension sum(base_dims) + fiber_dim and codimension
    fiber_dim.
    """

    a: MukaiVector
    b: MukaiVector
    fiber_dim: int
    base_dims: tuple[int, int]

    def describe(self) -> str:
        factors = []
        for cls, dim in ((self.a, self.base_dims[0]), (self.b, self.base_dims[1])):
            if dim > 0:
                factors.append(f"M{cls}({dim}-dim)")
        base = " x ".join(factors) if factors else "a point"
        return f"P^{self.fiber_dim}-bundle over {base}"


def _select_arc(cfg: K3Config, wall: WallLattice, spherical):
    """Choose the arc of the numerical wall that carries the verdict.

    Arcs where some spherical class of negative pairing turns effective are
    sub-strata where this wall meets the walls of those classes; the
    verdict belongs to the generic arc, so trigger-free arcs win, then arcs
    making both the representative and its complement effective.

    spherical holds the wall's spherical classes (spherical_members); the
    wall is not degenerate, so <v, a> is hyperbolic and its orthogonal line,
    spanned by w0 = pairing_row(v) x pairing_row(a), is positive; as
    H^2 (beta^2 - 4 alpha gamma) = (w0, w0), the numerical wall has a point.
    Ties keep the first arc sampled.
    An arc's trigger is the first of the classes s, -s of negative pairing
    with v, taken once per wall, that is effective (phi > 0) there.
    Returns (functional, trigger at that arc, arcs disagree on triggers).
    """
    negative = [c for s in spherical for c in (s, -s) if pairing(cfg, c, wall.v) < 0]
    arcs = []
    for func in alignment_candidates(cfg, wall.v, wall.a, spherical):
        trig = next((c for c in negative if func.phi(c) > 0), None)
        ph = func.phi(wall.a)
        arcs.append(((trig is None, 0 < ph < 1, ph > 0), func, trig))
    _, func, trig = max(arcs, key=lambda arc: arc[0])
    return func, trig, len({t is None for _, _, t in arcs}) > 1


def classify(cfg: K3Config, wall: WallLattice) -> WallVerdict:
    """The verdict on one wall, carrying its phase functional and its classes."""
    if wall.degenerate:
        cert = Certificate(wall.a, "isotropic_fibration")
        return WallVerdict("lagrangian", None, False, (cert,), None)

    certs: list[Certificate] = []

    bn, hc, lgu = wall.divisorial
    for pq in bn:
        certs.append(Certificate(wall.member(*pq), "spherical_orthogonal"))
    for pq in hc:
        certs.append(Certificate(wall.member(*pq), "isotropic_pairing_one"))
    for pq in lgu:
        certs.append(Certificate(wall.member(*pq), "isotropic_pairing_two"))

    spherical = tuple(spherical_members(cfg, wall))
    func, trigger, arc_sensitive = _select_arc(cfg, wall, spherical)
    # solutions are (x, y) with u = x*a + y*v
    solutions = decomposition_solutions(cfg, wall.v, wall.a)
    split_classes = tuple(wall.member(y, x) for x, y in solutions)
    flop_sphericals = sorted(
        (s for s in split_classes if square(cfg, s) == -2),
        key=lambda s: (pairing(cfg, s, wall.v), s.as_tuple()),
    )

    if hc:
        tss, proxy = True, False
        certs.append(Certificate(wall.member(*hc[0]), "semistability_isotropic"))
    elif trigger is not None:
        tss, proxy = True, True
        certs.append(Certificate(trigger, "semistability_spherical"))
    else:
        tss, proxy = False, False

    kind, subtype = "fake", None
    if hc or lgu or bn:
        kind = "divisorial"
        subtype = DIVISORIAL_HC if hc else (DIVISORIAL_LGU if lgu else DIVISORIAL_BN)
    elif flop_sphericals:
        kind, subtype = "flopping", "spherical"
        certs += [Certificate(s, "spherical_flop") for s in flop_sphericals]
    elif positive_pairs := _positive_two_term(cfg, wall.v, split_classes):
        kind, subtype = "flopping", "positive_sum"
        certs += [Certificate(c, "positive_part") for pair in positive_pairs for c in pair]
    return WallVerdict(
        kind, subtype, tss, tuple(certs), func, proxy, arc_sensitive, spherical, split_classes
    )


def _positive_two_term(cfg: K3Config, v: MukaiVector, split_classes):
    """Unordered splittings v = a + b with both parts of nonnegative square.

    a runs over the wall's split classes, so 0 < (a, v) <= v^2/2 <= (b, v);
    a pair with (a, v) = (b, v) is listed once, in the order found first.
    """
    out = {}
    for a in split_classes:
        b = v - a
        if square(cfg, a) >= 0 and square(cfg, b) >= 0:
            out.setdefault(frozenset((a.as_tuple(), b.as_tuple())), (a, b))
    return sorted(out.values(), key=lambda ab: (ab[0].as_tuple(), ab[1].as_tuple()))


@dataclass(frozen=True)
class Decomposition:
    parts: tuple[MukaiVector, ...]
    refinable: bool


@dataclass(frozen=True)
class Splittings:
    """The effective splittings of v on one wall (effective_decompositions).

    two_part lists the splittings into two parts; counts maps each number
    of parts k >= 2 that occurs, in increasing order, to the number of
    splittings into k parts.  len() is the number of splittings of every
    length.

    A two-part splitting's parts are (a, b), the head a of smaller
    (square, tuple) first.  The head is an atom and the closing part is
    b = v - a, admissible, so b^2 >= -2.  A split class a has (a, v) <=
    v^2/2 by definition, and a spherical atom has it because b^2 = v^2 -
    2(a, v) - 2 >= -2.  So b^2 - a^2 = v^2 - 2(a, v) >= 0.  In the equality
    case (b, v) = v^2/2 > 0 (build_wall takes v^2 > 0) and b^2 = a^2 >= -2,
    so b is one of the wall's split classes, which decomposition_solutions
    lists exactly; its phase lies in (0, 1), as a closing part's must, so b
    is an atom.  The closing rule gives b an index at least a's, atoms are
    in tuple order, and b != a because v is primitive; so a's tuple is the
    smaller.
    """

    two_part: tuple[Decomposition, ...]
    counts: dict[int, int]

    def __len__(self) -> int:
        return sum(self.counts.values())


def effective_decompositions(cfg: K3Config, wall: WallLattice, verdict: WallVerdict) -> Splittings:
    """Splittings v = sum of effective parts inside the wall lattice.

    A part is admissible when it is positive (square >= 0, positive pairing
    with v) or a spherical class, and it must carry phase in (0, 1).  The
    atoms are the admissible split classes and spherical classes of phase
    in (0, 1), in tuple order; a splitting is a multiset of atoms with
    phase sum below 1 whose complement, the closing part, is admissible
    (phase in (0, 1) then holds, as every atom has phase > 0), and when the
    closing part is atom j the multiset uses atoms of index <= j only, so
    each multiset of parts comes once.  The two-part splittings are listed
    in the order of their heads, the atom first, and flagged refinable when
    their parallelogram holds a lattice point besides the vertices; the
    splittings of every length are counted, with no cap on the parts.

    verdict is classify(cfg, wall): phases are taken at verdict.func, as
    integer numerators over its fixed denominator den, and the atoms come
    from verdict.split_classes and verdict.spherical.  A class p*v + q*a of
    the wall lattice is fixed by its numerator p*den + q*num(a) and q, so
    one sweep over the atoms in index order keeps a map from (numerator, q,
    number of atoms) of a multiset with numerator <= den to the number of
    such multisets, adding one layer per further copy of each atom.  A
    splitting whose closing part is an atom is then a multiset of atoms
    summing to v (numerator den, q = 0), its atom of highest index taken
    as the closing part; any other is a multiset of numerator below den
    whose complement is admissible and no atom.
    """
    func = verdict.func
    if func is None:
        return Splittings((), {})
    v, a, gram = wall.v, wall.a, wall.gram
    den = func.den
    atoms = _effective_atoms(func, verdict.split_classes, verdict.spherical)
    # u = p*v + q*a, integral as (v, a) is a basis of the wall
    coords = [gram.coords(pairing(cfg, u, v), pairing(cfg, u, a)) for u, _ in atoms]
    keys = [(n, q) for (_, n), (_, q) in zip(atoms, coords)]
    index = {key: i for i, key in enumerate(keys)}

    def admissible(p: int, q: int) -> bool:
        usq = gram.value(p, q)
        return usq == -2 or (usq >= 0 and gram.q11 * p + gram.q12 * q > 0)

    two_part = []
    for i, ((u, n), (p, q)) in enumerate(zip(atoms, coords)):
        # the closing part v - u has numerator den - n in (0, den); the two
        # parts have determinant -q in the basis (v, a), and a lattice
        # parallelogram holds a point besides its vertices exactly when
        # |det| > 1
        if index.get((den - n, -q), i) >= i and admissible(1 - p, -q):
            two_part.append(Decomposition((u, v - u), abs(q) > 1))

    sums = {(0, 0, 0): 1}
    for n, q in keys:
        layer = sums
        while layer:
            # one more copy of the atom; a sum of numerator den extends no further
            layer = {(m + n, y + q, k + 1): c for (m, y, k), c in layer.items() if m + n <= den}
            for key, c in layer.items():
                sums[key] = sums.get(key, 0) + c
    na = func.numerator(a)
    counts: dict[int, int] = {}
    for (m, y, k), c in sums.items():
        if (m, y) == (den, 0):  # the atoms sum to v
            parts = k
        elif k and m < den and (den - m, -y) not in index and admissible((den - m + y * na) // den, -y):
            parts = k + 1
        else:
            continue
        counts[parts] = counts.get(parts, 0) + c
    return Splittings(tuple(two_part), dict(sorted(counts.items())))


def _effective_atoms(func: AlignmentFunctional, split_classes, spherical):
    """(class, phase numerator) pairs usable as split parts, phases in (0, 1).

    The split classes (square >= -2, positive pairing) are all admissible,
    and so is every spherical class of either sign; the phase decides.
    """
    classes = [*split_classes, *(c for s in spherical for c in (s, -s))]
    atoms = {}
    for u in classes:
        num = func.numerator(u)
        if 0 < num < func.den:
            atoms[u.as_tuple()] = (u, num)
    return [atoms[key] for key in sorted(atoms)]


def flop_cells(cfg: K3Config, decs: Splittings) -> list[BundleDescriptor]:
    """The bundle cell of each two-part splitting v = a + b of decs, head a first.

    The cell has fiber dimension (b, a) - 1.  Splittings with (b, a) <= 1
    admit no one-parameter extension family and contribute no exceptional
    cell, so effective_decompositions counts and lists them but they are
    excluded here.
    """
    parts = [dec.parts for dec in decs.two_part]
    return [BundleDescriptor(a, b, r, (moduli_dim(cfg, a), moduli_dim(cfg, b)))
            for a, b in parts if (r := pairing(cfg, b, a) - 1) >= 1]
