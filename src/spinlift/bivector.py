"""Lorentz bivectors: wedge products, invariants, orthogonal decomposition.

A bivector is represented in mixed-index form as a real 4x4 matrix L with
L^T g + g L = 0.  Its characteristic data are the two scalar invariants
``tr2`` (the second trace invariant) and ``det``; the roots mu_plus >= 0 >=
mu_minus of x^2 + tr2*x + det split any non-simple bivector into a commuting
boost-like plus rotation-like pair spanning orthogonal planes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._linalg import (
    DECOMPOSE_GAP_TOL, FACTOR_PIVOT_TOL, NEGATIVE_DISC_TOL, PLANE_TOL, SIMPLE_DET_TOL,
    SKEW_TOL, TINY, TRACE_TOL, _floored, maxabs, pivot_columns,
)
from .errors import (
    DegeneratePlaneError,
    InvalidBivectorError,
    NegativeDiscriminantError,
    NotSimpleError,
    SimpleInputError,
)
from .metric import Metric


@dataclass(frozen=True, eq=False)
class Bivector:
    """Mixed-index matrix of an element of the Lorentz Lie algebra so(g).

    The validator keeps ``_maxabs`` of the read-only matrix, and every gate
    reads it instead of re-scanning L.  The invariants ``_tr2`` and ``_det``
    are taken on first use and kept: ``tr2`` and ``det_bivector`` read them.
    """

    matrix: np.ndarray
    metric: Metric

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.shape != (4, 4):
            raise InvalidBivectorError(f"bivector must be 4x4, got shape {m.shape}")
        top = maxabs(m)  # NaN and +/-inf entries carry through to it
        if not math.isfinite(top):
            raise InvalidBivectorError("bivector entries must be finite")
        g = self.metric.matrix
        norm = _floored(top, 1)
        if maxabs(m.T @ g + g @ m) > SKEW_TOL * norm:
            raise InvalidBivectorError("matrix is not skew with respect to the metric")
        if abs(float(m.trace())) > TRACE_TOL * norm:
            raise InvalidBivectorError("matrix is not traceless")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_maxabs", top)

    @cached_property
    def _tr2(self) -> float:
        m = self.matrix
        return -0.5 * float((m @ m).trace())

    @cached_property
    def _det(self) -> float:
        return float(np.linalg.det(self.matrix))

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
    """Determinant of the mixed-index matrix (<= 0 for real bivectors)."""
    return L._det


def mu_roots(L: Bivector) -> MuPair:
    """Eigenvalue invariants of L, ordered mu_plus >= mu_minus.

    The roots satisfy mu_plus + mu_minus = -tr2(L) and
    mu_plus * mu_minus = det(L).  Small negative discriminants are clamped to
    zero; discriminants negative beyond round-off raise
    :class:`NegativeDiscriminantError` since they cannot arise from a real
    bivector.
    """
    return _mu_pair(tr2(L), det_bivector(L))


def _mu_pair(t: float, d: float) -> MuPair:  # from t = tr2 L and d = det L
    disc = t * t - 4.0 * d
    if disc < -NEGATIVE_DISC_TOL * max(1.0, t * t):
        raise NegativeDiscriminantError(
            f"discriminant {disc} is negative; input is not a real Lorentz bivector"
        )
    root = math.sqrt(max(disc, 0.0))
    return MuPair((-t + root) / 2.0, (-t - root) / 2.0)


def is_simple(L: Bivector, tol: float = SIMPLE_DET_TOL) -> bool:
    """Whether L is a single wedge u ^ v, detected via det L = 0."""
    return _is_simple_det(det_bivector(L), _floored(L._maxabs, 1), tol)


def _is_simple_det(d: float, norm: float, tol: float) -> bool:  # norm = scale(L, 1)
    return abs(d) <= tol * norm**4


def orthogonal_decompose(L: Bivector, tol: float = SIMPLE_DET_TOL):
    """Split a non-simple L into commuting simple parts (L_plus, L_minus).

    L_plus is boost-like (tr2 = -mu_plus <= 0) and L_minus rotation-like
    (tr2 = -mu_minus >= 0); the parts annihilate each other and span
    orthogonal planes.  Raises :class:`SimpleInputError` for simple input or
    when the eigenvalue gap is too small to separate the parts.
    """
    return _decompose(L, tol)[:2]


def _decompose(L: Bivector, tol: float):  # (L_plus, L_minus, mu), det L taken once
    d = det_bivector(L)
    if _is_simple_det(d, _floored(L._maxabs, 1), tol):
        raise SimpleInputError("simple bivector has no orthogonal decomposition")
    mu = _mu_pair(tr2(L), d)
    gap = mu.mu_plus - mu.mu_minus
    if gap <= DECOMPOSE_GAP_TOL * _floored(L._maxabs, 2):
        raise SimpleInputError(
            f"eigenvalue gap {gap} too small to decompose the bivector"
        )
    m = L.matrix
    cube = m @ m @ m
    plus = (cube - mu.mu_minus * m) / gap
    minus = -(cube - mu.mu_plus * m) / gap
    return Bivector(plus, L.metric), Bivector(minus, L.metric), mu


def plane_projection(L: Bivector) -> np.ndarray:
    """Projection -L^2 / tr2(L) onto the plane of a simple, non-null L."""
    t = tr2(L)
    if abs(t) <= PLANE_TOL * _floored(L._maxabs, 2):
        raise DegeneratePlaneError("null plane: tr2 vanishes, no projection exists")
    m = L.matrix
    return -(m @ m) / t


def wedge_factors(L: Bivector):
    """Vectors (u, v) with wedge(u, v) equal to the simple input L.

    The columns of L g^{-1} = L g span the plane of a simple bivector; two
    independent ones are selected by column-pivoted elimination and rescaled
    so the wedge reproduces L itself.
    """
    f = L.matrix @ L.metric.matrix
    order, pivots = pivot_columns(f)
    top = max(pivots[0], TINY)
    if pivots[1] <= FACTOR_PIVOT_TOL * top:
        raise NotSimpleError("bivector has rank < 2; no wedge factors exist")
    if pivots[2] > FACTOR_PIVOT_TOL * top:
        raise NotSimpleError("bivector has rank > 2 and is not simple")
    u = f[:, order[0]].copy()
    v = f[:, order[1]].copy()
    w = wedge(L.metric, u, v).matrix
    k = int(np.argmax(np.abs(L.matrix)))
    ratio = w.flat[k] / L.matrix.flat[k]
    if abs(ratio) <= TINY:
        raise NotSimpleError("degenerate wedge factors")
    return u / ratio, v
