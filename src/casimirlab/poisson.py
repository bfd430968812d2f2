"""State vectors, functionals and state-dependent Poisson operators.

The dynamical systems in this package all share one shape,

    dz/dt = J(z) grad H(z),

with an antisymmetric, generally degenerate operator J.  This module holds
the common language: tagged composite states, functionals (value map plus
analytic gradient map), operators, bracket evaluation, the Casimir residual
|| J(z) grad C(z) || and a finite-difference Jacobi check for the
finite-dimensional operators.  The pairing is L2 throughout: fields pair by
integrate(a * b), finite-dimensional components by the dot product.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .field_core import BlowupError, Field1D, Field2D, NonFiniteError, integrate

# state tag -> (the names of its components, the Field class of every
# component, or None for one point array)
STATE_KINDS = {
    "finite": (("z",), None),
    "vortex1": (("omega",), Field2D),
    "vortex2": (("omega", "psi"), Field2D),
    "vortex3": (("omega", "psi", "psi2"), Field2D),
    "ion": (("rho", "v"), Field1D),
    "kdv": (("w",), Field1D),
}


class StateError(ValueError):
    """Malformed state or incompatible tags."""


@dataclass(frozen=True, eq=False)
class State:
    """Tagged composite of fields (or one point array for kind 'finite').

    States, tangent vectors and cotangent (gradient) vectors all share this
    representation; the tag decides which Poisson operators may act.
    """

    kind: str
    parts: tuple

    def __post_init__(self):
        if self.kind not in STATE_KINDS:
            raise StateError(f"unknown state kind {self.kind!r}")
        names, part_type = STATE_KINDS[self.kind]
        if len(self.parts) != len(names):
            raise StateError(f"kind {self.kind!r} needs {len(names)} parts, got {len(self.parts)}")
        if part_type is None:
            z = np.asarray(self.parts[0], dtype=float)
            if z.ndim != 1:
                raise StateError("finite-dimensional state must be a 1-d point")
            object.__setattr__(self, "parts", (z,))
        else:
            grid = getattr(self.parts[0], "grid", None)
            for p in self.parts:
                if not isinstance(p, part_type):
                    raise StateError(f"kind {self.kind!r} needs {part_type.__name__} parts")
                if p.grid is not grid and p.grid != grid:
                    raise StateError("all components must share one grid")

    # -- vector-space arithmetic (used by the integrators) ------------------

    def _zip(self, other, op):
        if not isinstance(other, State) or other.kind != self.kind:
            raise StateError("state arithmetic requires matching kinds")
        return State(self.kind, tuple(map(op, self.parts, other.parts)))

    def __add__(self, other):
        return self._zip(other, operator.add)

    def __sub__(self, other):
        return self._zip(other, operator.sub)

    def __mul__(self, s):
        s = float(s)
        return State(self.kind, tuple(p * s for p in self.parts))

    __rmul__ = __mul__

    def zeros_like(self) -> "State":
        if self.kind == "finite":
            return State(self.kind, (np.zeros_like(self.parts[0]),))
        zero = type(self.parts[0]).zeros(self.parts[0].grid)
        return State(self.kind, tuple(zero for _ in self.parts))

    def from_values(self) -> "State":
        """This state as a step's checked output: every synthesized field part
        rebuilt by the Field constructor from its values, or a finite point
        checked finite.

        Reading a synthesized part's values checks them finite, so this raises
        NonFiniteError on a non-finite part, and BlowupError on a non-finite
        point; no part of the result keeps a synthesized spectrum.  A state
        with no synthesized part is itself.
        """
        if self.kind == "finite":
            if not np.isfinite(self.parts[0]).all():
                raise BlowupError("non-finite state after step")
            return self
        if not any(p._synthesized for p in self.parts):
            return self
        return State(self.kind, tuple(type(p)(p.grid, p.values) if p._synthesized else p
                                      for p in self.parts))


def inner(a: State, b: State) -> float:
    """L2 pairing of two same-kind states."""
    if a.kind != b.kind:
        raise StateError(f"inner product across kinds {a.kind!r} vs {b.kind!r}")
    if a.kind == "finite":
        return float(np.dot(a.parts[0], b.parts[0]))
    return math.fsum(integrate(p * q) for p, q in zip(a.parts, b.parts))


def norm(a: State) -> float:
    return math.sqrt(inner(a, a))


def _value_arrays(z: State) -> tuple:
    """The value array of each part: a finite state's one part is its point."""
    return z.parts if z.kind == "finite" else tuple(p.values for p in z.parts)


def max_abs_diff(a: State, b: State) -> float:
    if a.kind != b.kind:
        raise StateError("max_abs_diff across kinds")
    return max(float(np.max(np.abs(p - q))) for p, q in zip(_value_arrays(a), _value_arrays(b)))


def states_equal_bitwise(a: State, b: State) -> bool:
    """Elementwise equality of every component (the bit-reproducibility check)."""
    return a.kind == b.kind and all(map(np.array_equal, _value_arrays(a), _value_arrays(b)))


# ---------------------------------------------------------------------------
# functionals and operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Functional:
    """Pairing of a value map and its analytic gradient map.

    ``gradient`` may be None for watch-only functionals (diagnostics that are
    recorded but never differentiated).  A watch-only functional may carry a
    tuple of labels and return one value per label (see dynamics.Trajectory).
    """

    label: str | tuple[str, ...]
    value: Callable[[State], float]
    gradient: Callable[[State], State] | None = None

    def __call__(self, z: State) -> float:
        return self.value(z)


@dataclass(frozen=True)
class PoissonOperator:
    """State-dependent linear map from cotangent to tangent vectors."""

    label: str
    kind: str
    apply: Callable[[State, State], State]


def _check_tags(z: State, J: PoissonOperator):
    if z.kind != J.kind:
        raise StateError(f"operator {J.label} acts on {J.kind!r}, state is {z.kind!r}")


def eval_poisson_bracket(
    F: Functional, G: Functional, z: State, J: PoissonOperator
) -> float:
    """{F, G}(z) = < grad F(z), J(z) grad G(z) >."""
    _check_tags(z, J)
    return inner(F.gradient(z), J.apply(z, G.gradient(z)))


def casimir_residual(C: Functional, z: State, J: PoissonOperator) -> float:
    """Normalized size of J(z) grad C(z); ~0 iff C is a Casimir at z.

    The norm of J grad C is divided by ||grad C|| * ||z|| so thresholds are
    comparable across resolutions and amplitudes.  A zero gradient is
    degenerate (the residual says nothing); it returns 0 with a warning.
    """
    _check_tags(z, J)
    g = C.gradient(z)
    gn = norm(g)
    if gn == 0.0:
        warnings.warn(
            f"degenerate gradient: {C.label} has zero gradient at this state",
            stacklevel=2,
        )
        return 0.0
    zn = norm(z)
    r = norm(J.apply(z, g))
    if zn == 0.0:
        return r / gn
    return r / (gn * zn)


def directional_derivative(F: Functional, z: State, dz: State, eps: float = 1e-5) -> float:
    """Central finite difference of F at z in direction dz."""
    return (F.value(z + eps * dz) - F.value(z - eps * dz)) / (2.0 * eps)


def gradient_check(F: Functional, z: State, dz: State, eps: float = 1e-5) -> float:
    """Relative mismatch between the analytic gradient pairing and the FD slope."""
    fd = directional_derivative(F, z, dz, eps)
    an = inner(F.gradient(z), dz)
    scale = max(abs(fd), abs(an), 1e-300)
    return abs(fd - an) / scale


def antisymmetry_defect(
    J: PoissonOperator, z: State, g1: State, g2: State
) -> float:
    """Relative size of <g1, J g2> + <g2, J g1> (zero for antisymmetric J)."""
    b12 = inner(g1, J.apply(z, g2))
    b21 = inner(g2, J.apply(z, g1))
    return abs(b12 + b21) / max(abs(b12), abs(b21), 1.0)


def jacobi_residual(
    J: PoissonOperator,
    z: State,
    F: Functional,
    G: Functional,
    H: Functional,
    step: float = 1e-5,
) -> float:
    """|{F,{G,H}} + {G,{H,F}} + {H,{F,G}}| for a finite-dimensional operator.

    The outer gradients are central differences of the inner bracket maps
    with the given step.  Field operators are excluded: a functional Jacobi
    test needs second functional derivatives, and for them only antisymmetry
    plus Casimir residuals are verified.
    """
    if J.kind != "finite" or z.kind != "finite":
        raise StateError("jacobi_residual is defined for finite-dimensional states only")
    point = z.parts[0]

    def bracket(A: Functional, B: Functional, p: np.ndarray) -> float:
        s = State("finite", (p,))
        return inner(A.gradient(s), J.apply(s, B.gradient(s)))

    def fd_grad(A: Functional, B: Functional, p: np.ndarray) -> np.ndarray:
        g = np.zeros_like(p)
        for i in range(p.size):
            e = np.zeros_like(p)
            e[i] = step
            g[i] = (bracket(A, B, p + e) - bracket(A, B, p - e)) / (2.0 * step)
        return g

    def term(A: Functional, B: Functional, C: Functional) -> float:
        inner_grad = State("finite", (fd_grad(B, C, point),))
        s = State("finite", (point,))
        return inner(A.gradient(s), J.apply(s, inner_grad))

    total = term(F, G, H) + term(G, H, F) + term(H, F, G)
    if not math.isfinite(total):
        raise NonFiniteError("non-finite intermediate in Jacobi cyclic sum")
    return abs(total)


def hamiltonian_rhs(J: PoissonOperator, H: Functional) -> Callable[[State], State]:
    """The flow map z -> J(z) grad H(z)."""

    def rhs(z: State) -> State:
        return J.apply(z, H.gradient(z))

    return rhs
