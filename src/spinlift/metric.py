"""Lorentz metrics on R^4 and their inner product."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
    """One of the two orthonormal Lorentz metrics, diag(SIGNATURES[signature]).

    The signature tag alone builds the read-only matrix, so g^{-1} = g, and
    ``_diag``, the tuple of its diagonal, for scalar code.
    """

    signature: str
    matrix: np.ndarray = field(init=False)

    def __post_init__(self):
        diag = SIGNATURES.get(self.signature)
        if diag is None:
            raise InvalidMetricError(f"unknown signature {self.signature!r}; "
                                     f"expected one of {sorted(SIGNATURES)}")
        m = np.diag(diag)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_diag", diag)


def make_metric(signature: str = DEFAULT_SIGNATURE) -> Metric:
    """Build one of the two diagonal Lorentz metrics; Metric refuses an unknown tag."""
    return Metric(signature)


def inner(g: Metric, u, v) -> float:
    """Inner product g(u, v) of two 4-vectors."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return float(u @ g.matrix @ v)
