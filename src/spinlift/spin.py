"""Identities tying spin-representation images to the bivector decomposition.

For non-simple L with invariant roots (mu_plus, mu_minus) and S = sigma(L):

* the commuting parts sigma(L_plus), sigma(L_minus) are cubic polynomials
  in S (``spin_decompose``);
* their product is the scalar-plus-square expression tr2(L)/8 + S^2/2
  (``spin_cross_product``);
* the traces of S^2 and S^4 recover tr2(L) and det(L) in any full
  representation (``recover_invariants``).
"""

from __future__ import annotations

import numpy as np

from ._linalg import SPIN_GAP_TOL, maxabs
from .bivector import Bivector, MuPair, orthogonal_decompose
from .clifford import Representation, spin_rep
from .errors import SimpleInputError
from .metric import inner


def spin_decompose(s, mu: MuPair):
    """Split sigma(L) into (sigma(L_plus), sigma(L_minus)).

    Uses the closed forms

        sigma(L_+/-) = +/- 2/(mu_+ - mu_-) * ((mu_-/+ + 3 mu_+/-) S / 4 - S^3)

    valid whenever the root gap is nonzero (non-simple L).
    """
    s = np.asarray(s)
    gap, top = mu.mu_plus - mu.mu_minus, maxabs(s)
    if gap <= SPIN_GAP_TOL * top * top:  # both of degree 2 in L
        raise SimpleInputError(f"eigenvalue gap {gap} too small to split sigma")
    s3 = s @ s @ s
    n = 2.0 / gap
    s_plus = n * (0.25 * (mu.mu_minus + 3.0 * mu.mu_plus) * s - s3)
    s_minus = -n * (0.25 * (mu.mu_plus + 3.0 * mu.mu_minus) * s - s3)
    return s_plus, s_minus


def spin_cross_product(s, tr2_l: float, rep: Representation) -> np.ndarray:
    """Commuting product sigma(L_plus) sigma(L_minus) = tr2(L) I / 8 + S^2 / 2."""
    s = np.asarray(s)
    return 0.125 * tr2_l * rep.identity + 0.5 * (s @ s)


def recover_invariants(s, rep: Representation):
    """Recover (tr2 L, det L) from traces of powers of S = sigma(L).

    Valid in full representations (both the regular and the gamma
    representation qualify):

        tr2 L = -4 tr(S^2) / tr(I)
        det L =  4 tr(S^4) / tr(I) - 4 (tr S^2)^2 / (tr I)^2
    """
    s = np.asarray(s)
    tri = rep.identity_trace
    s2 = s @ s
    t2 = float(np.trace(s2).real)
    t4 = float(np.trace(s2 @ s2).real)
    tr2_l = -4.0 * t2 / tri
    det_l = 4.0 * t4 / tri - 4.0 * t2 * t2 / (tri * tri)
    return tr2_l, det_l


def cross_trace_check(rep: Representation, L: Bivector) -> float:
    """|tr(sigma(L_plus) sigma(L_minus))| for non-simple L (should vanish)."""
    l_plus, l_minus = orthogonal_decompose(L)
    product = spin_rep(rep, l_plus) @ spin_rep(rep, l_minus)
    return abs(complex(np.trace(product)))


def quad_trace_identity_check(rep: Representation, a, b, u, v) -> float:
    """Defect of the four-vector trace identity

        tr rho(abuv) = tr(I) (g(a,b) g(u,v) - g(a,u) g(b,v) + g(a,v) g(b,u)).
    """
    g = rep.metric
    lhs = np.trace(rep.vector(a) @ rep.vector(b) @ rep.vector(u) @ rep.vector(v))
    rhs = rep.identity_trace * (
        inner(g, a, b) * inner(g, u, v)
        - inner(g, a, u) * inner(g, b, v)
        + inner(g, a, v) * inner(g, b, u)
    )
    return abs(complex(lhs) - rhs)
