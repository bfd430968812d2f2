"""casimirlab: a numerical laboratory for degenerate Poisson systems.

Subpackages by system: vortex (the 2D hierarchy of advected fields),
ion_kdv (ion acoustic fluid and its KdV reduction), finitedim (the
two-dimensional singular operator x * Jc).  field_core holds the periodic
spectral calculus, poisson the functional/operator framework, dynamics the
integrators and drift diagnostics, cli the preset experiment runner.
"""

from .field_core import (
    Field1D,
    Field2D,
    FieldError,
    Grid1D,
    Grid2D,
    GridMismatchError,
    bracket2d,
    ddx,
    ddx1,
    ddx2,
    ddx3,
    ddy,
    dealias,
    integrate,
    invert_laplacian,
    l2norm,
    laplacian,
)
from .poisson import (
    Functional,
    PoissonOperator,
    State,
    StateError,
    casimir_residual,
    eval_poisson_bracket,
    gradient_check,
    hamiltonian_rhs,
    inner,
    jacobi_residual,
    norm,
)
from .dynamics import DiagnosticSeries, run_and_record, step

__all__ = [
    "Field1D",
    "Field2D",
    "FieldError",
    "Grid1D",
    "Grid2D",
    "GridMismatchError",
    "bracket2d",
    "ddx",
    "ddx1",
    "ddx2",
    "ddx3",
    "ddy",
    "dealias",
    "integrate",
    "invert_laplacian",
    "l2norm",
    "laplacian",
    "Functional",
    "PoissonOperator",
    "State",
    "StateError",
    "casimir_residual",
    "eval_poisson_bracket",
    "gradient_check",
    "hamiltonian_rhs",
    "inner",
    "jacobi_residual",
    "norm",
    "DiagnosticSeries",
    "run_and_record",
    "step",
]

__version__ = "0.1.0"
