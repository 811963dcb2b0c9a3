"""Matrix representations of the Clifford algebra Cl(g) of a Lorentz metric.

Basis blades are indexed by subsets S of {0,1,2,3} encoded as 4-bit masks, and
each representation is its table of 16 blade images.  Generators satisfy
e_a e_b + e_b e_a = 2 g(e_a, e_b); products of basis blades reduce to a sign
times the symmetric-difference blade, e_S e_T = sign(S, T) e_{S xor T}.  The
Dirac matrices are the one implementation of that product: the regular
representation reads each sign(S, T) off the product of two gamma blades.

Two faithful matrix representations are provided:

* ``regular``: left multiplication on the algebra itself, 16x16 real.
* ``gamma``: the Dirac matrices, 4x4 complex (multiplied by i for the
  (-+++) signature so the defining relations keep the metric's sign).

``spin_rep`` maps a bivector L into either representation via the
antisymmetric coefficient matrix F = L g^{-1}:

    sigma(L) = sum_{a<b} F^{ab} (rho(e_a e_b) - rho(e_b e_a)) / 4

which on a wedge u ^ v reduces to rho(uv - vu)/4.  The commutation identity
[sigma(L), rho(u)] = rho(L u) makes sigma a Lie-algebra homomorphism.

Between the signatures g and -g, F and the grade-2 blades change sign together, so
the SL(2,C) core reads L's upper entries, F's pairs over mppp, and one set of Weyl
tables; a pmmm representation negates its grade-2 rows.  The signature still acts
on the odd images (``Representation.vector``) and on the regular blades.
"""

from __future__ import annotations

from functools import reduce

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
_PAIR_MASKS = [(1 << a) | (1 << b) for a, b in PAIR_INDICES]  # the grade-2 blades


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
        self.pair_generators = 0.5 * blades[_PAIR_MASKS]
        for arr in (self.blades, self.identity, self.vectors, self.pair_generators):
            arr.flags.writeable = False
        # Each stack as rows of flattened matrices: np.dot(coeffs (1, n), rows) is
        # the one BLAS call of np.tensordot(coeffs, stack, axes=1), same bits.
        self._vector_rows = self.vectors.reshape(len(VECTOR_MASKS), -1)
        self._pair_rows = self.pair_generators.reshape(len(PAIR_INDICES), -1)
        self._even_rows = blades.reshape(BLADE_COUNT, -1)
        if metric.signature == "pmmm":  # L's upper entries are -F's pairs here (see below)
            self._pair_rows = -self._pair_rows
            self._even_rows = self._even_rows.copy()
            self._even_rows[_PAIR_MASKS] = -self._even_rows[_PAIR_MASKS]

    def vector(self, u) -> np.ndarray:
        """Matrix image u^a rho(e_a) of a 4-vector."""
        u = np.asarray(u, dtype=float).reshape(1, -1)
        return np.dot(u, self._vector_rows).reshape(self.dim, -1)


def _gamma_blades(g: Metric) -> np.ndarray:
    gammas = _GAMMA_PMMM if g.signature == "pmmm" else 1j * _GAMMA_PMMM
    words = ([gammas[i] for i in range(4) if mask >> i & 1] for mask in range(BLADE_COUNT))
    return np.stack([reduce(np.matmul, word, np.eye(4, dtype=complex)) for word in words])


def _regular_blades(gamma: np.ndarray) -> np.ndarray:
    # rho(e_S) sends e_T to sign(S, T) e_{S xor T}, with gamma_S gamma_T equal to
    # sign(S, T) gamma_{S xor T}.  Gamma blades are unitary with entries 0, +/-1 and
    # +/-i, so sign = Re tr(gamma_S gamma_T gamma_{S xor T}^H) / 4 exactly.
    s = np.arange(BLADE_COUNT)
    masks = s[:, None] ^ s
    signs = np.einsum("sij,tjk,stik->st", gamma, gamma, gamma[masks].conj()).real / 4
    blades = np.zeros((BLADE_COUNT, BLADE_COUNT, BLADE_COUNT))
    blades[s[:, None], masks, s] = signs
    return blades


# The Weyl tables, one set for both metrics.  The even gamma blades are block-diagonal in
# the Weyl basis, U rho U^T with U = _WEYL_U / sqrt(2); their upper-left blocks have
# squared norm 2, the odd ones' none.  The tables, read off mppp's blades, are L's six
# upper entries (F's pairs over mppp) -> X, the block of sigma(L), a (6, 4) complex
# table; (Re A, Im A) -> even blade coefficients, the transpose over 2; and (Re X, Im X)
# -> L's upper entries, exact: Gram matrix I / 2.
_WEYL_BLOCKS = (_WEYL_U @ _gamma_blades(Metric("mppp")) @ _WEYL_U.T)[:, :2, :2].reshape(
    BLADE_COUNT, 4)
_WEYL_PAIRS = 0.25 * _WEYL_BLOCKS[_PAIR_MASKS]
_WEYL_EVEN = 0.25 * np.hstack([_WEYL_BLOCKS.real, _WEYL_BLOCKS.imag])
_WEYL_SPLIT = 2.0 * _WEYL_EVEN[_PAIR_MASKS]
# _WEYL_EVEN's columns interleaved (Re A00, Im A00, Re A01, ...), the order of a complex
# A's own float view.  Each row has at most two nonzero entries, of +/-1/2: away from
# the subnormal range its products are exact, and its sums do not depend on the order
_WEYL_INTERLEAVED = np.ascontiguousarray(_WEYL_EVEN[:, [0, 4, 1, 5, 2, 6, 3, 7]])

_TABLES: dict = {}  # by signature: make_metric returns a new Metric for each request


def representation(kind: str, g: Metric) -> Representation:
    """The "gamma" (4x4 complex) or "regular" (16x16 real) representation of Cl(g)."""
    # both representations of g from one product of the Dirac matrices, on first use
    if (reps := _TABLES.get(g.signature)) is None:
        gamma = _gamma_blades(g)
        reps = _TABLES[g.signature] = {
            "gamma": Representation("gamma", g, gamma),
            "regular": Representation("regular", g, _regular_blades(gamma))}
    if kind not in reps:
        raise ValueError(f"unknown representation kind {kind!r}")
    return reps[kind]


def spin_rep(rep: Representation, L: Bivector) -> np.ndarray:
    """Spin-representation image sigma(L) of a bivector (simple or not)."""
    return np.dot(_pair_coefficients(L), rep._pair_rows).reshape(rep.dim, -1)


def _pair_coefficients(L: Bivector) -> np.ndarray:
    # L's upper entries as a (1, 6) row: F^ab for a < b of F = L g over mppp, and -F^ab
    # over pmmm, whose sign the representation's rows carry.  The Bivector validator
    # bounds F + F^T, as it is L^T g + g L up to the sign of each entry.
    if not isinstance(L, Bivector):
        raise InvalidBivectorError("spin_rep takes a validated Bivector")
    return L.matrix[_PAIR_INDEX].reshape(1, -1)


def _even_image(rep: Representation, a) -> np.ndarray:
    # The image in rep of the even element whose Weyl block is A = a, complex, row-major.
    # Its blade coefficients, read off A's float view, are the bits of
    # np.dot(_WEYL_EVEN, concatenate((Re A, Im A))); the row product with rep's table,
    # whose summation order sets the image's bits, stays
    coeffs = np.dot(_WEYL_INTERLEAVED, a.ravel().view(float))
    return np.dot(coeffs.reshape(1, -1), rep._even_rows).reshape(rep.dim, -1)


def lie_bracket_check(rep: Representation, l1: Bivector, l2: Bivector) -> float:
    """Defect of sigma([L1, L2]) = [sigma(L1), sigma(L2)]."""
    bracket = Bivector(
        l1.matrix @ l2.matrix - l2.matrix @ l1.matrix, l1.metric
    )
    s1 = spin_rep(rep, l1)
    s2 = spin_rep(rep, l2)
    return maxabs(spin_rep(rep, bracket) - (s1 @ s2 - s2 @ s1))
