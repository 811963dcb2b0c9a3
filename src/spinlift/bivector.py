"""Lorentz bivectors: wedge products, invariants, orthogonal decomposition.

A bivector is represented in mixed-index form as a real 4x4 matrix L with
L^T g + g L = 0.  Its characteristic data are the two scalar invariants
``tr2`` (the second trace invariant) and the Pfaffian Pf of the skew F = L g,
with det L = -Pf^2; the roots mu_plus >= 0 >= mu_minus of x^2 + tr2*x - Pf^2
split any non-simple bivector into a commuting boost-like plus rotation-like
pair spanning orthogonal planes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._linalg import (
    FACTOR_PIVOT_TOL, PLANE_TOL, SIMPLE_DET_TOL, SKEW_TOL, TRACE_TOL, _NULL_TOL,
    _PART_BOUND, _floored, maxabs,
)
from .errors import (
    DegeneratePlaneError, InvalidBivectorError, NotSimpleError, SimpleInputError,
)
from .metric import Metric


def _measured(m) -> float:
    """maxabs(m) of a bivector, refused unless finite with a finite 4th power."""
    top = maxabs(m)  # NaN and +/-inf entries carry through to it
    if not math.isfinite(top):
        raise InvalidBivectorError("bivector entries must be finite")
    if top * top * top * top == math.inf:  # maxabs^4, the degree of is_simple's gate
        raise InvalidBivectorError("bivector entries too large")
    return top


@dataclass(frozen=True, eq=False)
class Bivector:
    """Mixed-index matrix of an element of the Lorentz Lie algebra so(g).

    The validator keeps ``_maxabs`` of the read-only matrix, and every gate
    reads it instead of re-scanning L.  The invariants ``_tr2`` and ``_pf`` are
    taken on first use and kept: ``tr2``, ``det_bivector`` and ``mu_roots`` read
    them.  ``_of`` builds the library's own results without the checks.
    """

    matrix: np.ndarray
    metric: Metric

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.shape != (4, 4):
            raise InvalidBivectorError(f"bivector must be 4x4, got shape {m.shape}")
        top = _measured(m)
        # (L^T g + g L)_ij = L_ji g_j + g_i L_ij: one rounding per entry, as in the
        # matmuls, so both defects are theirs bit for bit
        r, g = m.tolist(), self.metric._diag
        norm = _floored(top, 1)
        # (i, j) and (j, i) round alike, but the 10-entry triangle waits on ROADMAP
        # item 1: its speed put exp-mix peak RSS at +9.9% (bench/rounds.py's lists)
        skew = max([abs(r[j][i] * g[j] + g[i] * r[i][j]) for i in range(4) for j in range(4)])
        if skew > SKEW_TOL * norm:
            raise InvalidBivectorError("matrix is not skew with respect to the metric")
        if abs(r[0][0] + r[1][1] + r[2][2] + r[3][3]) > TRACE_TOL * norm:
            raise InvalidBivectorError("matrix is not traceless")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_maxabs", top)

    @classmethod
    def _of(cls, m: np.ndarray, metric: Metric) -> "Bivector":
        # A C-contiguous float64 (4, 4) array that the library built and no caller
        # keeps, made read-only in place: the validator's maxabs and range refusals,
        # without its skew and trace checks.  Those hold exactly where entries (i, j)
        # and (j, i) round alike (the samplers, log) and, within _PART_BOUND, for the
        # parts of _decompose.
        m.flags.writeable = False
        L = object.__new__(cls)
        vars(L).update(matrix=m, metric=metric, _maxabs=_measured(m))
        return L

    @cached_property
    def _tr2(self) -> float:
        m = self.matrix
        return -0.5 * float((m @ m).trace())

    @cached_property
    def _pf(self) -> float:
        # Pf F = F01 F23 - F02 F13 + F03 F12 of F = L g.  F_ij = L_ij g_jj, and each
        # product takes g at two spatial columns, whose signs agree: L's entries serve.
        r = self.matrix.tolist()
        return r[0][1] * r[2][3] - r[0][2] * r[1][3] + r[0][3] * r[1][2]

    def _require_same_metric(self, other: "Bivector"):
        if self.metric.signature != other.metric.signature:
            raise InvalidBivectorError("bivectors live over different metrics")

    def __add__(self, other: "Bivector") -> "Bivector":
        self._require_same_metric(other)
        return Bivector(self.matrix + other.matrix, self.metric)

    def __sub__(self, other: "Bivector") -> "Bivector":
        self._require_same_metric(other)
        return Bivector(self.matrix - other.matrix, self.metric)

    def __mul__(self, scalar) -> "Bivector":
        return Bivector(self.matrix * float(scalar), self.metric)

    __rmul__ = __mul__


class MuPair(NamedTuple):
    """Roots mu_plus >= 0 >= mu_minus of x^2 + (tr2 L) x + det L = 0."""

    mu_plus: float
    mu_minus: float


def wedge(g: Metric, u, v) -> Bivector:
    """Simple bivector (u ^ v)^a_b = u^a v_b - v^a u_b with indices lowered by g."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    gm = g.matrix
    return Bivector(np.outer(u, gm @ v) - np.outer(v, gm @ u), g)


def tr2(L: Bivector) -> float:
    """Second trace invariant -tr(L^2)/2."""
    return L._tr2


def det_bivector(L: Bivector) -> float:
    """Determinant of the mixed-index matrix, -Pf(L g)^2 (<= 0 for real bivectors)."""
    pf = L._pf
    return 0.0 - pf * pf  # 0.0, not -0.0, for a wedge


def mu_roots(L: Bivector) -> MuPair:
    """Eigenvalue invariants of L, ordered mu_plus >= 0 >= mu_minus.

    The roots of x^2 + tr2(L) x - Pf^2 satisfy mu_plus + mu_minus = -tr2(L) and
    mu_plus * mu_minus = det L = -Pf^2, so the discriminant tr2^2 + 4 Pf^2 is a sum
    of squares.  The root of larger size comes from it and the other is Pf^2 over
    that one, which keeps the small root clear of the cancellation in -t + root.
    """
    t, pf = L._tr2, L._pf
    big = 0.5 * (abs(t) + math.hypot(t, 2.0 * pf))
    small = pf * pf / big if big else 0.0
    return MuPair(small, -big) if t > 0.0 else MuPair(big, 0.0 - small)


def is_simple(L: Bivector, tol: float = SIMPLE_DET_TOL) -> bool:
    """Whether L is a single wedge u ^ v: |det L| <= tol maxabs(L)^4."""
    return _is_simple_det(det_bivector(L), L._maxabs, tol)


def _is_simple_det(d: float, top: float, tol: float) -> bool:  # top = maxabs(L)
    return abs(d) <= tol * top**4


def _simple_kind(d: float, t2: float, top: float, tol: float):  # det L, tr2 L, maxabs L
    # "trig", "hyperbolic" or "null" for a simple L, None for a non-simple one
    if not _is_simple_det(d, top, tol):
        return None
    if abs(t2) <= _NULL_TOL * _floored(top, 2):
        return "null"
    return "trig" if t2 > 0.0 else "hyperbolic"


def orthogonal_decompose(L: Bivector, tol: float = SIMPLE_DET_TOL):
    """Split a non-simple L into commuting simple parts (L_plus, L_minus).

    L_plus is boost-like (tr2 = -mu_plus <= 0) and L_minus rotation-like
    (tr2 = -mu_minus >= 0); the parts annihilate each other and span
    orthogonal planes.  Raises :class:`SimpleInputError` for simple input.
    """
    return _decompose(L, tol)[:2]


def _decompose(L: Bivector, tol: float):  # (L_plus, L_minus, mu), det L taken once
    if _is_simple_det(det_bivector(L), L._maxabs, tol):
        raise SimpleInputError("simple bivector has no orthogonal decomposition")
    mu = mu_roots(L)
    gap = mu.mu_plus - mu.mu_minus  # at least 2 |Pf| > 0 past the gate
    m = L.matrix
    cube = m @ m @ m
    plus = (cube - mu.mu_minus * m) / gap
    minus = -(cube - mu.mu_plus * m) / gap
    # past _PART_BOUND, as for a near-null L at a small tol, the validator judges them
    top = L._maxabs
    part = Bivector._of if top * top * top <= _PART_BOUND * gap else Bivector
    return part(plus, L.metric), part(minus, L.metric), mu


def plane_projection(L: Bivector) -> np.ndarray:
    """Projection -L^2 / tr2(L) onto the plane of a simple, non-null L."""
    t = tr2(L)
    if abs(t) <= PLANE_TOL * _floored(L._maxabs, 2):
        raise DegeneratePlaneError("null plane: tr2 vanishes, no projection exists")
    m = L.matrix
    return -(m @ m) / t


def wedge_factors(L: Bivector):
    """Vectors (u, v) with wedge(u, v) equal to the simple input L.

    A simple L has F = L g = u v^T - v u^T, so the Pluecker identity
    F_ij F = F_i F_j^T - F_j F_i^T holds for the columns F_i; at the largest entry
    F_ij it gives u = F_i / F_ij and v = F_j.  Raises :class:`NotSimpleError` for
    L = 0 and for |Pf F| > FACTOR_PIVOT_TOL maxabs(L)^2.
    """
    top = L._maxabs
    if top == 0.0:
        raise NotSimpleError("bivector has rank < 2; no wedge factors exist")
    if abs(L._pf) > FACTOR_PIVOT_TOL * top * top:
        raise NotSimpleError("bivector has rank > 2 and is not simple")
    f = L.matrix @ L.metric.matrix
    i, j = divmod(int(np.argmax(np.abs(f))), 4)
    return f[:, i] / f[i, j], f[:, j]
