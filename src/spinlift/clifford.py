"""Matrix representations of the Clifford algebra Cl(g) of a Lorentz metric.

Basis blades are indexed by subsets S of {0,1,2,3} encoded as 4-bit masks, and
each representation is its table of 16 blade images.  Generators satisfy
e_a e_b + e_b e_a = 2 g(e_a, e_b); products of basis blades reduce to a sign
(from counting transpositions) times a metric factor (from contracting
repeated generators) times the symmetric-difference blade.

Two faithful matrix representations are provided:

* ``regular``: left multiplication on the algebra itself, 16x16 real.
* ``gamma``: the Dirac matrices, 4x4 complex (multiplied by i for the
  (-+++) signature so the defining relations keep the metric's sign).

``spin_rep`` maps a bivector L into either representation via the
antisymmetric coefficient matrix F = L g^{-1}:

    sigma(L) = sum_{a<b} F^{ab} (rho(e_a e_b) - rho(e_b e_a)) / 4

which on a wedge u ^ v reduces to rho(uv - vu)/4.  The commutation identity
[sigma(L), rho(u)] = rho(L u) makes sigma a Lie-algebra homomorphism.
"""

from __future__ import annotations

import numpy as np

from ._linalg import maxabs
from .bivector import Bivector
from .errors import InvalidBivectorError
from .metric import Metric

BLADE_COUNT = 16

#: Bit masks of the four grade-1 blades.
VECTOR_MASKS = (1, 2, 4, 8)

#: Index pairs (a, b) with a < b, in the order used for bivector coefficients.
PAIR_INDICES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_PAIR_INDEX = tuple(np.array(axis) for axis in zip(*PAIR_INDICES))


def _reorder_sign(a: int, b: int) -> float:
    # Count transpositions needed to interleave the generators of blade b
    # into those of blade a (each pair i in a, j in b with i > j swaps once).
    a >>= 1
    swaps = 0
    while a:
        swaps += (a & b).bit_count()
        a >>= 1
    return -1.0 if swaps & 1 else 1.0


def _blade_product(a: int, b: int, diag: np.ndarray):
    sign = _reorder_sign(a, b)
    common = a & b
    for i in range(4):
        if common & (1 << i):
            sign *= diag[i]
    return a ^ b, sign


# Dirac basis for the (+---) signature: gamma^0 = diag(1,1,-1,-1) and
# gamma^i = [[0, sigma_i], [-sigma_i, 0]].
_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_Z2 = np.zeros((2, 2), dtype=complex)
_WEYL_U = np.kron([[1.0, -1.0], [1.0, 1.0]], np.eye(2))  # Dirac to Weyl, times sqrt(2)
_GAMMA_PMMM = np.stack(
    [np.block([[np.eye(2, dtype=complex), _Z2], [_Z2, -np.eye(2, dtype=complex)]])]
    + [np.block([[_Z2, s], [-s, _Z2]]) for s in _PAULI]
)


class Representation:
    """A concrete matrix representation of Cl(g) with cached blade images."""

    def __init__(self, kind: str, metric: Metric, blades: np.ndarray):
        self.kind = kind
        self.metric = metric
        self.blades = blades
        self.dim = blades.shape[1]
        self.is_complex = bool(np.iscomplexobj(blades))
        self.identity = blades[0]
        self.identity_trace = float(self.dim)
        self.vectors = blades[list(VECTOR_MASKS)]
        # sigma(e_a ^ e_b) = rho(e_a e_b)/2 for a < b over a diagonal metric
        self.pair_generators = 0.5 * np.stack(
            [blades[(1 << a) | (1 << b)] for a, b in PAIR_INDICES]
        )
        for arr in (self.blades, self.identity, self.vectors, self.pair_generators):
            arr.flags.writeable = False
        # Each stack as rows of flattened matrices: np.dot(coeffs (1, n), rows) is
        # the one BLAS call of np.tensordot(coeffs, stack, axes=1), same bits.
        self._blade_rows = blades.reshape(BLADE_COUNT, -1)
        self._vector_rows = self.vectors.reshape(len(VECTOR_MASKS), -1)
        self._pair_rows = self.pair_generators.reshape(len(PAIR_INDICES), -1)

    def vector(self, u) -> np.ndarray:
        """Matrix image u^a rho(e_a) of a 4-vector."""
        u = np.asarray(u, dtype=float).reshape(1, -1)
        return np.dot(u, self._vector_rows).reshape(self.dim, -1)


def _regular_blades(g: Metric) -> np.ndarray:
    diag = np.diagonal(g.matrix)
    blades = np.zeros((BLADE_COUNT, BLADE_COUNT, BLADE_COUNT))
    for s in range(BLADE_COUNT):
        for t in range(BLADE_COUNT):
            mask, sign = _blade_product(s, t, diag)
            blades[s][mask, t] = sign
    return blades


def _gamma_blades(g: Metric) -> np.ndarray:
    gammas = _GAMMA_PMMM if g.signature == "pmmm" else 1j * _GAMMA_PMMM
    blades = np.zeros((BLADE_COUNT, 4, 4), dtype=complex)
    for mask in range(BLADE_COUNT):
        m = np.eye(4, dtype=complex)
        for i in range(4):
            if mask & (1 << i):
                m = m @ gammas[i]
        blades[mask] = m
    return blades


_BLADE_BUILDERS = {"gamma": _gamma_blades, "regular": _regular_blades}
_REP_CACHE: dict = {}
_WEYL_CACHE: dict = {}  # by signature, as _REP_CACHE: make_metric returns a new Metric


def representation(kind: str, g: Metric) -> Representation:
    """The "gamma" (4x4 complex) or "regular" (16x16 real) representation of Cl(g)."""
    if kind not in _BLADE_BUILDERS:
        raise ValueError(f"unknown representation kind {kind!r}")
    key = (kind, g.signature)
    if key not in _REP_CACHE:
        _REP_CACHE[key] = Representation(kind, g, _BLADE_BUILDERS[kind](g))
    return _REP_CACHE[key]


def spin_rep(rep: Representation, L: Bivector) -> np.ndarray:
    """Spin-representation image sigma(L) of a bivector (simple or not)."""
    return np.dot(_pair_coefficients(rep.metric, L), rep._pair_rows).reshape(rep.dim, -1)


def _pair_coefficients(g: Metric, L: Bivector) -> np.ndarray:
    # F^ab for a < b as a (1, 6) row, of F = L g^{-1} = L g.  With g = diag(+/-1),
    # F + F^T is g (L^T g + g L) g up to the sign of each entry, so the Bivector
    # validator bounds its skewness, and maxabs F = maxabs L, bit for bit.
    if not isinstance(L, Bivector):
        raise InvalidBivectorError("spin_rep takes a validated Bivector")
    return (L.matrix @ g.matrix)[_PAIR_INDEX].reshape(1, -1)


def _weyl_tables(g: Metric):
    # The even gamma blades over g are block-diagonal in the Weyl basis, U rho U^T
    # with U = _WEYL_U / sqrt(2); their upper-left blocks have squared norm 2, the odd
    # ones' none.  Returns F's six pair coefficients -> X, the block of sigma(L), a
    # (6, 4) complex table; (Re A, Im A) -> even blade coefficients, the transpose
    # over 2; and (Re X, Im X) -> F's pairs, exact: Gram matrix I / 2.  Built on first
    # use, once per signature: both representations of a metric read these arrays.
    if (tables := _WEYL_CACHE.get(g.signature)) is None:
        a = (_WEYL_U @ _gamma_blades(g) @ _WEYL_U.T)[:, :2, :2].reshape(BLADE_COUNT, 4)
        even = 0.25 * np.hstack([a.real, a.imag])
        pairs = [(1 << i) | (1 << j) for i, j in PAIR_INDICES]
        tables = _WEYL_CACHE[g.signature] = 0.25 * a[pairs], even, 2.0 * even[pairs]
    return tables


def _even_image(rep: Representation, a) -> np.ndarray:
    # The image in rep of the even element whose Weyl block is A = a, row-major
    a = np.ravel(a)
    coeffs = np.dot(_weyl_tables(rep.metric)[1], np.concatenate((a.real, a.imag)))
    return np.dot(coeffs.reshape(1, -1), rep._blade_rows).reshape(rep.dim, -1)


def lie_bracket_check(rep: Representation, l1: Bivector, l2: Bivector) -> float:
    """Defect of sigma([L1, L2]) = [sigma(L1), sigma(L2)]."""
    bracket = Bivector(
        l1.matrix @ l2.matrix - l2.matrix @ l1.matrix, l1.metric
    )
    s1 = spin_rep(rep, l1)
    s2 = spin_rep(rep, l2)
    return maxabs(spin_rep(rep, bracket) - (s1 @ s2 - s2 @ s1))
