"""Exact wall-and-chamber engine for moduli of sheaves on a K3 surface."""

from .analysis import ChamberChain, PathReport, WallRecord, WallSurvey, chamber_chain, chain_structure_check, path_report, survey, transport_check
from .classify import (
    BundleDescriptor,
    Certificate,
    Decomposition,
    WallVerdict,
    bundle_descriptor,
    classify,
    effective_decompositions,
    flop_cells,
)
from .lattice import (
    Isometry,
    K3Config,
    MukaiVector,
    dual_isometry,
    hilbert_n,
    line_bundle_vector,
    moduli_dim,
    mv,
    pairing,
    reflect_spherical,
    reflection_isometry,
    square,
    tensor_by,
    tensor_isometry,
    twist_T,
)
from .nsgeom import CurveClass, NSBasis, NSClass, curve_class, divisibility, lambda_basis, wall_divisor
from .solvers import (
    GramForm2,
    classes_in_rank2,
    decomposition_solutions,
    lattice_points_in_parallelogram,
    solve_square_with_pairing,
)
from .stability import (
    AlignmentFunctional,
    GeomCharge,
    NumericalWall,
    PathCrossing,
    central_charge,
    holes,
    numerical_wall,
    path_crossings,
)
from .walls import EnumerationResult, WallLattice, enumerate_result, enumerate_walls

__version__ = "0.1.0"
