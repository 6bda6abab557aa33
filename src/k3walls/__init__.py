"""Exact wall-and-chamber engine for moduli of sheaves on a K3 surface."""

from .analysis import survey
from .classify import classify, effective_decompositions, flop_cells
from .lattice import K3Config, mv
from .walls import enumerate_result

__version__ = "0.1.0"
