"""Closed-form exponentials of spin-representation images.

For simple L the square of S = sigma(L) is the scalar -tr2(L)/4, so exp(S)
collapses to cbar I + sbar S with trigonometric (tr2 > 0), hyperbolic
(tr2 < 0), or unit (null, tr2 = 0) coefficients.  For non-simple L the
commuting split gives a four-term product formula, which regrouped in powers
of S becomes a cubic polynomial with coefficients alpha_0..alpha_3 built from
the same cbar/sbar data of the two parts.

The dispatcher ``exp_spin`` works in SL(2,C): X, the Weyl block of sigma(L),
squares to s^2 I, where the complex s^2 = -det X packs the two half-angles of
the paper as s = theta_plus + i theta_minus.  So exp X = cosh(s) I + sinh(s)/s X
in every regime, with no eigenvalue gap to divide by; the even blade
coefficients of exp X give the result in either representation.  The paper's
two-term, factored and polynomial forms stay public as referees.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._linalg import SBAR_TAYLOR_CUTOFF, SERIES_GAP_TOL, SIMPLE_DET_TOL, _floored
from .bivector import Bivector, MuPair, _decompose, _simple_kind, is_simple, mu_roots
from .clifford import Representation, _even_image, _pair_coefficients, _weyl_tables, spin_rep
from .errors import NonFiniteOutputError, SimpleInputError


def sin_ratio(theta: float) -> float:
    """sin(theta)/theta, with a 3-term Taylor fallback near zero."""
    return _sinh_ratio_complex(1j * theta, -theta * theta).real


def sinh_ratio(theta: float) -> float:
    """sinh(theta)/theta, with a 3-term Taylor fallback near zero."""
    return _sinh_ratio_complex(theta, theta * theta).real


def _sinh_ratio_complex(s: complex, s2: complex) -> complex:
    # sinh(s)/s, s2 = s^2; for s real or imaginary and s2 real, the real-valued
    # Taylor sum and quotient carry the bits of their real forms
    if abs(s) < SBAR_TAYLOR_CUTOFF:
        return 1.0 + s2 / 6.0 + s2 * s2 / 120.0
    return cmath.sinh(s) / s


@dataclass(frozen=True)
class ExpCoefficients:
    """Scalar data for the factored and polynomial exponential formulas.

    theta_plus/theta_minus are the half-angles of the boost-like and
    rotation-like parts; cbar/sbar their cosh-cos and sinh-sin ratios; alpha
    the polynomial coefficients.
    """

    theta_plus: float
    theta_minus: float
    c_bar_plus: float
    c_bar_minus: float
    s_bar_plus: float
    s_bar_minus: float
    alpha: tuple


def exp_coefficients(mu: MuPair) -> ExpCoefficients:
    """Exponential coefficients from the eigenvalue invariants of a bivector."""
    gap = mu.mu_plus - mu.mu_minus
    if gap <= 0.0:
        raise SimpleInputError("eigenvalue gap must be positive")
    theta_plus = 0.5 * math.sqrt(max(mu.mu_plus, 0.0))
    theta_minus = 0.5 * math.sqrt(max(-mu.mu_minus, 0.0))
    cp = math.cosh(theta_plus)
    cm = math.cos(theta_minus)
    sp = sinh_ratio(theta_plus)
    sm = sin_ratio(theta_minus)
    n = 2.0 / gap
    alpha = (
        cp * cm - 0.125 * (mu.mu_plus + mu.mu_minus) * sp * sm,
        0.25
        * n
        * (
            (mu.mu_minus + 3.0 * mu.mu_plus) * sp * cm
            - (mu.mu_plus + 3.0 * mu.mu_minus) * cp * sm
        ),
        0.5 * sp * sm,
        n * (cp * sm - sp * cm),
    )
    return ExpCoefficients(theta_plus, theta_minus, cp, cm, sp, sm, alpha)


def exp_spin_simple(s, tr2_l: float) -> np.ndarray:
    """exp(S) for S = sigma(L) with L simple: cbar I + sbar S.

    For tr2 > 0 (rotation) cbar = cos(theta) and sbar = sin(theta)/theta with
    theta = sqrt(tr2)/2; for tr2 < 0 (boost) their hyperbolic counterparts;
    at tr2 = 0 (null) both are 1 and the exponential is exactly I + S.
    """
    s = np.asarray(s)
    eye = np.eye(s.shape[0], dtype=s.dtype)
    if tr2_l > 0.0:
        theta = 0.5 * math.sqrt(tr2_l)
        cbar, sbar = math.cos(theta), sin_ratio(theta)
    elif tr2_l < 0.0:
        theta = 0.5 * math.sqrt(-tr2_l)
        cbar, sbar = math.cosh(theta), sinh_ratio(theta)
    else:
        cbar = sbar = 1.0
    return cbar * eye + sbar * s


def exp_spin_factored(L: Bivector, rep: Representation) -> np.ndarray:
    """exp(sigma(L)) for non-simple L via the commuting decomposition:

        cbar+ cbar- I + sbar+ cbar- sigma(L+) + cbar+ sbar- sigma(L-)
        + sbar+ sbar- sigma(L+) sigma(L-).
    """
    return _exp_factored(rep, *_decompose(L, SIMPLE_DET_TOL))


def _exp_factored(rep: Representation, l_plus: Bivector, l_minus: Bivector, mu: MuPair):
    co = exp_coefficients(mu)
    s_plus = spin_rep(rep, l_plus)
    s_minus = spin_rep(rep, l_minus)
    return (
        (co.c_bar_plus * co.c_bar_minus) * rep.identity
        + (co.s_bar_plus * co.c_bar_minus) * s_plus
        + (co.c_bar_plus * co.s_bar_minus) * s_minus
        + (co.s_bar_plus * co.s_bar_minus) * (s_plus @ s_minus)
    )


def exp_spin_polynomial(L: Bivector, rep: Representation) -> np.ndarray:
    """exp(sigma(L)) for non-simple L as a cubic polynomial in S = sigma(L)."""
    if is_simple(L):
        raise SimpleInputError("polynomial exponential requires a non-simple input")
    co = exp_coefficients(mu_roots(L))
    s = spin_rep(rep, L)
    s2 = s @ s
    a0, a1, a2, a3 = co.alpha
    return a0 * rep.identity + a1 * s + a2 * s2 + a3 * (s2 @ s)


def exp_spin(
    L: Bivector,
    rep: Representation,
    tol: float = SIMPLE_DET_TOL,
    return_branch: bool = False,
):
    """exp(sigma(L)) for any bivector, labelled by regime.

    X, the Weyl block of sigma(L) in SL(2,C)'s Lie algebra, squares to s^2 I with
    s^2 = -det X, and every input takes exp X = cosh(s) I + sinh(s)/s X, which
    has no gap to divide by, mapped to the representation through its even blade
    coefficients.  tr2 L = -4 Re s^2 and det L = -4 (Im s^2)^2 only label the
    input: "simple/trig", "simple/hyperbolic" or "simple/null" when L is simple
    at ``tol``, else "nonsimple/polynomial", or "near-degenerate/series" for an
    eigenvalue gap 4 |s^2| at or below its gate.  With ``return_branch=True``
    returns ``(matrix, branch)``.
    """
    a, branch = _exp_block(L, tol)
    out = _even_image(rep, a)
    return (out, branch) if return_branch else out


def _exp_block(L: Bivector, tol: float = SIMPLE_DET_TOL):
    # (exp X row-major, exp_spin's branch), X the Weyl block of sigma(L)
    coeffs = _pair_coefficients(L.metric, L)
    x00, x01, x10, x11 = np.dot(coeffs, _weyl_tables(L.metric)[0])[0].tolist()  # X
    s2 = x01 * x10 - x00 * x11
    kind = _simple_kind(-4.0 * s2.imag**2, -4.0 * s2.real, L._maxabs, tol)
    if kind:
        branch = "simple/" + kind
    elif 4.0 * abs(s2) > SERIES_GAP_TOL * _floored(L._maxabs, 2):
        branch = "nonsimple/polynomial"
    else:
        branch = "near-degenerate/series"
    s = cmath.sqrt(s2)
    try:
        h, c = _sinh_ratio_complex(s, s2), cmath.cosh(s)
    except OverflowError:  # |Re s| past ~710, a rapidity past ~1420
        raise NonFiniteOutputError(f"cosh s overflows at s = {s}") from None
    return np.array((c + h * x00, h * x01, h * x10, c + h * x11)), branch
