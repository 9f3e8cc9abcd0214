from .kernels import AssemblyError, assemble_system, potential_block
from .solve import (
    DENSE_PANEL_GUARD,
    DenseFactor,
    MaxwellMatrix,
    SolverError,
    check_dense_size,
    solve,
    solve_accelerated,
    solve_dense,
)

__all__ = [
    "AssemblyError", "DENSE_PANEL_GUARD", "DenseFactor", "MaxwellMatrix",
    "SolverError", "assemble_system", "check_dense_size", "potential_block",
    "solve", "solve_accelerated", "solve_dense",
]
