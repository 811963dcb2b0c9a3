"""Lorentz metrics on R^4 and their inner product."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import _DET_TOL, maxabs
from .errors import InvalidMetricError

#: Diagonal entries of the two supported orthonormal signatures.  The time
#: coordinate is index 0 in both conventions.
SIGNATURES = {
    "pmmm": (1.0, -1.0, -1.0, -1.0),
    "mppp": (-1.0, 1.0, 1.0, 1.0),
}

DEFAULT_SIGNATURE = "pmmm"


@dataclass(frozen=True, eq=False)
class Metric:
    """A symmetric 4x4 bilinear form with determinant -1.

    ``signature`` is "pmmm" or "mppp" for the two diagonal conventions and
    "general" for any other symmetric matrix admitted by
    :func:`metric_from_matrix`.
    """

    matrix: np.ndarray
    signature: str

    @cached_property  # computed once; callers read it and never write to it
    def _inverse(self) -> np.ndarray:
        return np.linalg.inv(self.matrix)


def make_metric(signature: str = DEFAULT_SIGNATURE) -> Metric:
    """Build one of the two diagonal Lorentz metrics from its signature tag."""
    if signature not in SIGNATURES:
        raise InvalidMetricError(
            f"unknown signature {signature!r}; expected one of {sorted(SIGNATURES)}"
        )
    m = np.diag(SIGNATURES[signature]).copy()
    m.flags.writeable = False
    return Metric(matrix=m, signature=signature)


def metric_from_matrix(entries) -> Metric:
    """Validate a symmetric matrix with determinant -1 as a metric.

    General symmetric metrics work with the bivector routines; the Clifford
    constructions additionally require one of the diagonal signatures.
    """
    m = np.array(entries, dtype=float)
    if m.shape != (4, 4):
        raise InvalidMetricError(f"metric must be 4x4, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidMetricError("metric entries must be finite")
    if maxabs(m - m.T) != 0.0:
        raise InvalidMetricError("metric must be exactly symmetric")
    det = float(np.linalg.det(m))
    if abs(det + 1.0) > _DET_TOL:
        raise InvalidMetricError(f"metric determinant must be -1, got {det}")
    signature = "general"
    for tag, diag in SIGNATURES.items():
        if np.array_equal(m, np.diag(diag)):
            signature = tag
            break
    m.flags.writeable = False
    return Metric(matrix=m, signature=signature)


def inner(g: Metric, u, v) -> float:
    """Inner product g(u, v) of two 4-vectors."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return float(u @ g.matrix @ v)
