"""Proper orthochronous Lorentz transformations and their spin lifts.

The trace pair (tr Lam, tr2 Lam) classifies a transformation: simple ones
(single boost or rotation plane) satisfy tr2 Lam = 2 (tr Lam - 1), and every
non-simple one factors into a commuting boost times rotation.  Each regime
admits a closed-form lift Sigma(Lam) into a spin representation, determined
up to global sign by the intertwining relation

    Sigma rho(u) Sigma^{-1} = rho(Lam u).

Every lift here is the principal one, exp sigma(log Lam): the image of the A in
SL(2,C) with Re tr A >= 0 (Im tr A >= 0 where Re tr A = 0).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._linalg import (
    BLOCK_DET_TOL, DENOMINATOR_GATE, DET_SIGN_DEFECT, DET_SIGN_ROUNDING, ORTHO_TOL, SIMPLE_CRITERION_TOL,
    TRACE_GATE, _COND_LIMIT, _UNIT_ROUNDOFF, _floored, lift_denominator, maxabs,
    simplicity_defect, transform_traces,
)
from .bivector import Bivector
from .clifford import _PAIR_INDEX, _PAULI, Representation, _even_image, _weyl_tables, spin_rep
from .errors import (
    DegenerateDenominatorError,
    InvalidTransformationError,
    NonFiniteOutputError,
    NotNonsimpleError,
    NotSimpleError,
    SimpleTransformError,
    TracelessSimpleError,
)
from .expmap import _sinh_ratio_complex
from .metric import Metric


def _measured(m):
    """(maxabs(m), max(1, maxabs(m))^2) of a transformation, refused out of range."""
    top = maxabs(m)  # NaN and +/-inf entries carry through to it
    if not math.isfinite(top):
        raise InvalidTransformationError("transformation entries must be finite")
    try:
        return top, _floored(top, 2)
    except OverflowError:  # maxabs past ~1.3e154: its square leaves the float range
        raise InvalidTransformationError("transformation entries too large") from None


@dataclass(frozen=True, eq=False)
class LorentzTransformation:
    """Matrix Lam with Lam^T g Lam = g, det Lam = 1, Lam^0_0 >= 1.

    The orthochronous condition is enforced on the time-time entry (index 0
    in both supported signatures), and the trace is required non-negative as
    holds throughout the proper orthochronous component.  The validator keeps
    what it measured of the read-only matrix, ``_maxabs`` and ``_traces`` =
    (tr Lam, tr2 Lam), and every gate reads them instead of re-scanning Lam.
    ``_of`` builds the library's own results without the checks.
    """

    matrix: np.ndarray
    metric: Metric

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.shape != (4, 4):
            raise InvalidTransformationError(
                f"transformation must be 4x4, got shape {m.shape}"
            )
        top, norm2 = _measured(m)
        g = self.metric.matrix
        defect = maxabs(m.T @ g @ m - g)
        if defect > ORTHO_TOL * norm2:
            raise InvalidTransformationError("matrix does not preserve the metric")
        rows = m.tolist()
        (m00, *_), (_, a, b, c), (_, d, e, f), (_, p, q, r) = rows
        if m00 < 1.0 - ORTHO_TOL:
            raise InvalidTransformationError("matrix is not orthochronous")
        # det Lam = det(spatial block) / Lam^0_0, the (0, 0) cofactor of Lam^{-1} =
        # g Lam^T g: its rounding is of degree 2 in maxabs(Lam), as is the bound.
        # Dividing the first row first keeps every product of degree 2, in range.
        a, b, c = a / m00, b / m00, c / m00
        det = a * (e * r - f * q) - b * (d * r - f * p) + c * (d * q - e * p)
        # NaN where a difference overflows.  det <= 0 is an improper Lam, no misreading
        # of a proper one, within the bound of DET_SIGN_DEFECT and DET_SIGN_ROUNDING
        if not abs(det - 1.0) <= ORTHO_TOL * norm2 or (det <= 0.0 and top * (
                DET_SIGN_DEFECT * defect + DET_SIGN_ROUNDING * _UNIT_ROUNDOFF * norm2) < m00):
            raise InvalidTransformationError("matrix is not proper (det != 1)")
        traces = transform_traces(m, rows)
        if traces[0] < -ORTHO_TOL:
            raise InvalidTransformationError(
                "negative trace: matrix is outside the proper orthochronous component"
            )
        m.flags.writeable = False
        vars(self).update(matrix=m, _maxabs=top, _traces=traces)

    @classmethod
    def _of(cls, m: np.ndarray, metric: Metric) -> "LorentzTransformation":
        # As Bivector._of: the validator's maxabs, traces and range refusals for a
        # C-contiguous float64 (4, 4) result of the library, without its checks of
        # the metric, time orientation, det and trace, which hold by construction
        m.flags.writeable = False
        lam = object.__new__(cls)
        vars(lam).update(matrix=m, metric=metric, _maxabs=_measured(m)[0],
                         _traces=transform_traces(m))
        return lam

    def inverse(self) -> np.ndarray:
        """Inverse matrix g^{-1} Lam^T g = g Lam^T g (exact when Lam preserves g)."""
        return self.metric.matrix @ self.matrix.T @ self.metric.matrix

    def __matmul__(self, other: "LorentzTransformation") -> "LorentzTransformation":
        if self.metric.signature != other.metric.signature:
            raise InvalidTransformationError(
                "transformations live over different metrics"
            )
        return LorentzTransformation(self.matrix @ other.matrix, self.metric)


@dataclass(frozen=True, eq=False)
class FactorPair:
    """Commuting factorization Lam = Lam_plus Lam_minus with trace data.

    c_plus = cosh of the boost rapidity and c_minus = cos of the rotation angle,
    tied to the factors by tr Lam_+/- = 2 (1 + c_+/-).
    """

    lambda_plus: LorentzTransformation
    lambda_minus: LorentzTransformation
    c_plus: float
    c_minus: float
    delta: float


def tr2_transform(lam: LorentzTransformation) -> float:
    """Second trace invariant ((tr Lam)^2 - tr(Lam^2)) / 2."""
    return lam._traces[1]


def is_simple_transform(
    lam: LorentzTransformation, tol: float = SIMPLE_CRITERION_TOL
) -> bool:
    """Whether Lam is the exponential of a simple bivector.

    Simple transformations are exactly those with tr2 Lam = 2 (tr Lam - 1).
    """
    return _is_simple_traces(*lam._traces, tol)


def _is_simple_traces(t: float, t2: float, tol: float) -> bool:  # tr, tr2 of Lam
    return simplicity_defect(t, t2) <= tol * max(1.0, t2, t)


def log(lam: LorentzTransformation) -> Bivector:
    """Principal logarithm L of any proper orthochronous Lam: exp(L) = Lam.

    With A in SL(2,C) the principal Weyl block of ``lift`` (Re tr A >= 0, and Im
    tr A >= 0 where Re tr A = 0), c = tr A / 2 and s = acosh c, the block of
    sigma(L) is (s / sinh s)(A - c I) (Penrose & Rindler, vol. 1, sec. 1.2).  On
    ``lift_simple``'s block it is the paper's L = k (Lam - Lam^{-1}) / 2 with
    k = 2 (s / sinh s) / sqrt(tr Lam).  A rotation by pi has two logarithms; the
    sign rule picks one.
    """
    return _log(lam)[0]


def _log(lam: LorentzTransformation):
    # (L, k), k = 2 h / sqrt(tr Lam) where A is lift_simple's block, else None
    a, _, block = _lift_block(lam, SIMPLE_CRITERION_TOL)
    c = 0.5 * math.sqrt(lam._traces[0]) if block else 0.5 * complex(a[0] + a[3])
    s = cmath.acosh(c)
    h = 1.0 / _sinh_ratio_complex(s, s * s)
    if block:  # A - c I = X_B / (2 c), X_B the block of sigma(Lam - Lam^{-1})
        k = h.real / c
        return Bivector._of(0.5 * k * (lam.matrix - lam.inverse()), lam.metric), k
    x = h * (a - np.array((c, 0.0, 0.0, c)))
    f = np.zeros((4, 4))
    f[_PAIR_INDEX] = np.dot(_weyl_tables(lam.metric)[2], np.concatenate((x.real, x.imag)))
    return Bivector._of((f - f.T) @ lam.metric.matrix, lam.metric), None


def log_simple(
    lam: LorentzTransformation, tol: float = SIMPLE_CRITERION_TOL
) -> Bivector:
    """:func:`log` of a Lam that the trace criterion calls simple at ``tol``.

    Raises :class:`NotSimpleError` for any other Lam; a simple Lam has the
    paper's logarithm L = k (Lam - Lam^{-1}) / 2.
    """
    if not is_simple_transform(lam, tol):
        raise NotSimpleError("transformation is not simple; no single-plane logarithm")
    return log(lam)


def factor_transform(
    lam: LorentzTransformation, tol: float = SIMPLE_CRITERION_TOL
) -> FactorPair:
    """Split a non-simple Lam into commuting simple factors.

    With A = cosh(s) I + sinh(s) N the principal Weyl block of ``lift`` (N^2 = I,
    c = tr A / 2 and s = acosh c as in ``log``), the factors are the images of the
    commuting A_+ = cosh(Re s) I + sinh(Re s) N and A_- = cos(Im s) I + i sin(Im s) N,
    so c_+ = cosh(2 Re s), c_- = cos(2 Im s) and delta = 4 (c_+ - c_-)^2, which is
    (tr Lam)^2 - 4 tr2 Lam + 8.  A null rotation, s = 0, has no N and is simple.
    """
    if is_simple_transform(lam, tol):
        raise SimpleTransformError("simple transformation does not factor further")
    a = _spinor(lam.matrix)
    c = 0.5 * complex(a[0, 0] + a[1, 1])
    s = cmath.acosh(c)
    if s == 0.0:
        raise SimpleTransformError("null rotation (s = 0) does not factor further")
    n = (a - c * np.eye(2)) / cmath.sinh(s)
    x, y = s.real, s.imag
    plus = math.cosh(x) * np.eye(2) + math.sinh(x) * n
    minus = math.cos(y) * np.eye(2) + 1j * math.sin(y) * n
    c_plus, c_minus = math.cosh(2.0 * x), math.cos(2.0 * y)
    return FactorPair(
        LorentzTransformation._of(_vector_image(plus), lam.metric),
        LorentzTransformation._of(_vector_image(minus), lam.metric),
        c_plus,
        c_minus,
        4.0 * (c_plus - c_minus) ** 2,
    )


def lift_simple(lam: LorentzTransformation, rep: Representation) -> np.ndarray:
    """Principal spin lift of a simple Lam with tr Lam above lift's gate:

        Sigma = (tr Lam I + 2 sigma(Lam - Lam^{-1})) / (2 sqrt(tr Lam)),

    evaluated on the Weyl block A of Sigma in SL(2,C), whose tr A = sqrt(tr Lam)
    is positive.  Raises ``NotSimpleError`` for a near-simple Lam, whose block
    misses det A = 1 by more than BLOCK_DET_TOL.
    """
    # Its error grows with the simplicity defect: guarded at the default tol.
    a, branch, block = _lift_block(lam, SIMPLE_CRITERION_TOL)
    if not block:
        error = TracelessSimpleError if branch == "special/traceless" else NotSimpleError
        raise error(f"lift_simple needs its block, with det A = 1; {branch} Lam: use lift")
    return _even_image(rep, a)


def lift_nonsimple(lam: LorentzTransformation, rep: Representation) -> np.ndarray:
    """Principal spin lift of a non-simple Lam away from the degenerate denominator.

    With t = tr Lam, t2 = tr2 Lam, B1 = Lam - Lam^{-1}, B2 = Lam^2 - Lam^{-2}:

        Sigma = ((2 + t + t2 - t^2/4) I + (t + 2) sigma(B1) - sigma(B2)
                 + sigma(B1)^2) / (2 sqrt(2 + 2 t + t2)).
    """
    t, t2 = lam._traces
    if _is_simple_traces(t, t2, SIMPLE_CRITERION_TOL):
        raise NotNonsimpleError("lift_nonsimple requires a non-simple transformation")
    den = lift_denominator(t, t2)
    if den <= DENOMINATOR_GATE * _floored(lam._maxabs, 2):
        raise DegenerateDenominatorError(f"lift denominator {den} too small; use lift")
    m = lam.matrix
    inv = lam.inverse()
    s1 = spin_rep(rep, Bivector(m - inv, lam.metric))
    s2 = spin_rep(rep, Bivector(m @ m - inv @ inv, lam.metric))
    scalar = 2.0 + t + t2 - 0.25 * t * t
    return (scalar * rep.identity + (t + 2.0) * s1 - s2 + s1 @ s1) / (
        2.0 * math.sqrt(den)
    )


# The spinor map Lam^m_n = tr(s_m A s_n A^H) / 2, with s = (I, Pauli) and A in
# SL(2,C), is linear in H = vec(A) vec(A)^H; Pauli orthogonality inverts it in
# closed form: H[i,j,l,k] = sum_mn Lam^m_n s_m[i,l] s_n[k,j] / 2.
_S = np.stack([np.eye(2, dtype=complex), *_PAULI])
_SPINOR_H = 0.5 * np.einsum("mil,nkj->ijlkmn", _S, _S).reshape(16, 16)


def _vector_image(a) -> np.ndarray:
    # Lam(A): _SPINOR_H is unitary, so vec Lam = Re(_SPINOR_H^H vec H), which is
    # Re(vec conj(H) . _SPINOR_H) with conj(H) = conj(vec A) vec(A)^T, copied out of
    # the complex product as a C-contiguous array
    v = a.ravel()
    return (np.outer(v.conj(), v).ravel() @ _SPINOR_H).real.reshape(4, 4).copy()


def _spinor(m) -> np.ndarray:
    # The principal A of Lam = m: the column of H with the largest diagonal (>= 1/2,
    # as det A = 1) is A times a phase, the phase of det A fixes it up to sign, and
    # the sign gives Re tr A >= 0 (Im tr A >= 0 where Re tr A = 0).  |det A| = 1 carries
    # rounding of u maxabs(A)^2 <= u cond(A), as does the phase: past u _COND_LIMIT,
    # the bound on cond in intertwining_defect, raise (a det A of 0, inf or NaN too).
    h = (_SPINOR_H @ m.ravel()).reshape(4, 4)
    diagonal = h.diagonal().real.tolist()  # finite, as m is: max is argmax's pick
    top = max(diagonal)
    a = h[:, diagonal.index(top)] / math.sqrt(top)
    a00, a01, a10, a11 = a.tolist()
    d = a00 * a11 - a01 * a10  # numpy's complex product and difference, in scalars
    r = abs(d)
    if not abs(r - 1.0) <= _UNIT_ROUNDOFF * _COND_LIMIT:
        raise NonFiniteOutputError(f"spinor map: |det A| = {r} is not 1: no phase left")
    # numpy divides complex by real as complex by complex, unlike Python
    a = a / cmath.sqrt(np.complex128(d) / r)
    a00, _, _, a11 = a.tolist()
    t = a00 + a11
    return (-a if (t.real, t.imag) < (0.0, 0.0) else a).reshape(2, 2)


def lift(
    lam: LorentzTransformation,
    rep: Representation,
    tol: float = SIMPLE_CRITERION_TOL,
    return_branch: bool = False,
):
    """Principal spin lift of any proper orthochronous Lam: exp_spin(log(Lam), rep).

    Classifies on the trace criterion and the two divisor gates:

    * simple, tr Lam above its gate          -> ``lift_simple``    ("simple")
    * simple, tr Lam at or below it          -> the spinor map     ("special/traceless")
    * non-simple, denominator above its gate -> the spinor map     ("nonsimple")
    * non-simple, denominator at or below it -> the spinor map     ("nonsimple/special")

    Each branch forms A in SL(2,C), the Weyl block of Sigma, and one map takes
    A to ``rep``.  The spinor map Lam -> A (Shepperd's largest-diagonal
    extraction) has no divisor gate; the denominator gate only names the non-simple
    regime.  Both blocks are principal: the spinor map signs A by the module's
    rule, and ``lift_simple``'s block has tr A > 0.  Where Lam holds a rotation by
    pi, Re tr A = 0 and both signs are principal; no continuous choice exists on
    the double cover there, and the rule keeps the sign it computes.  Raises
    ``NonFiniteOutputError`` where the spinor map's |det A| misses 1 by more than
    u ``_COND_LIMIT``, which its rounding passes past rapidity ~30 in a frame.

    A "simple" Lam keeps its label but takes the spinor map where
    ``lift_simple`` would lose accuracy: when it is simple only under a looser
    ``tol`` than the default, or when the block misses det A = 1 by more than
    ``BLOCK_DET_TOL``.  With ``return_branch=True`` returns ``(Sigma, branch)``.
    """
    a, branch, _ = _lift_block(lam, tol)
    out = _even_image(rep, a)
    return (out, branch) if return_branch else out


def _lift_block(lam: LorentzTransformation, tol: float):
    # (A row-major, lift's branch, whether A is lift_simple's block)
    t, t2 = lam._traces
    norm2 = _floored(lam._maxabs, 2)
    if not _is_simple_traces(t, t2, tol):
        den = lift_denominator(t, t2)
        branch = "nonsimple" if den > DENOMINATOR_GATE * norm2 else "nonsimple/special"
    elif t <= min(TRACE_GATE * norm2, 4.0):
        branch = "special/traceless"
    else:
        branch = "simple"
    # lift_simple's block A = (sqrt(t) / 2) I + X_B / sqrt(t), X_B the block of
    # sigma(B), B = Lam - Lam^{-1}; with M = Lam g and Lam^{-1} = g Lam^T g,
    # B g = M - M^T is skew by construction.  Boosts and null rotations have t >= 4,
    # far from the root's zero, where it is more accurate than the spinor map.  Past
    # BLOCK_DET_TOL on |det A - 1|, Lam is near-simple and A off by |det A - 1| / 2.
    if branch == "simple" and _is_simple_traces(t, t2, SIMPLE_CRITERION_TOL):
        m = lam.matrix @ lam.metric.matrix
        r = math.sqrt(t)
        a = np.dot((m - m.T)[_PAIR_INDEX], _weyl_tables(lam.metric)[0]) / r
        a[0::3] += 0.5 * r
        x00, x01, x10, x11 = a.tolist()
        if abs(x00 * x11 - x01 * x10 - 1.0) <= BLOCK_DET_TOL:
            return a, branch, True
    return _spinor(lam.matrix).ravel(), branch, False
