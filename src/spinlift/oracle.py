"""Independent reference implementations used to validate the closed forms.

Nothing in this module calls the closed-form exponential, logarithm, or lift
code, so its outputs can adjudicate them.  The exponential is a plain
scaling-and-squaring Taylor series; the generators draw seeded uniform
coefficient matrices; the intertwining defect measures how well a candidate
spin lift conjugates vector images.
"""

from __future__ import annotations

import math

import numpy as np

from ._linalg import SERIES_TERM_TOL, _COND_LIMIT, maxabs, slice_maxabs
from .bivector import Bivector
from .clifford import Representation
from .errors import SingularSigmaError
from .group_lift import LorentzTransformation
from .metric import Metric

_SUM_BOUND = 1.75  # above e^(1/2), the largest 1-norm of a partial sum in exp_series
_STRICT_UPPER = np.triu(np.ones((4, 4)), 1)


def exp_series(m) -> np.ndarray:
    """Matrix exponential by scaling and squaring a Taylor series.

    The argument, one (n, n) matrix, is halved until its 1-norm is at most 0.5,
    the series is summed until a term falls below ``SERIES_TERM_TOL`` relative
    to the running sum, and the result is squared back up.  The scaling loses
    accuracy on large non-normal inputs: on a null rotation W of maxabs 158
    (W^3 = 0) it misses I + W + W^2/2 by 2.6e-9 relative.  A matrix whose
    1-norm is not finite, and an (N, n, n) stack, raise ``ValueError``.
    """
    m = np.asarray(m)
    norm1 = float(np.linalg.norm(m, 1))
    if not math.isfinite(norm1):
        raise ValueError(f"exp_series needs a matrix of finite 1-norm, got {norm1}")
    squarings = 0 if norm1 <= 0.5 else int(np.ceil(np.log2(norm1 / 0.5)))
    a = m / (2.0 ** squarings)
    total = np.eye(m.shape[0], dtype=a.dtype)
    term = total
    # The stop test maxabs(term) <= TOL * maxabs(total) needs maxabs(total) only near
    # the end.  After scaling ||a||_1 <= 1/2 (to the rounding of log2), so every
    # partial sum has maxabs <= ||.||_1 <= e^(1/2) < _SUM_BOUND, and fl(TOL * M) is
    # monotone in M: while maxabs(term) > fl(TOL * _SUM_BOUND) the test is false.
    # An entry of the term is a lower bound of its maxabs, so two of them may show
    # that first; the stop index, and with it every bit, is the test's.
    stop = SERIES_TERM_TOL * _SUM_BOUND
    witness = min(1, term.size - 1)  # entry (0, 1), or (0, 0) of a 1x1 input
    for k in range(1, 128):
        term = term @ a / k
        total = total + term
        if abs(term.item(0)) > stop or abs(term.item(witness)) > stop:
            continue
        top = maxabs(term)
        if top <= stop and top <= SERIES_TERM_TOL * maxabs(total):
            break
    else:
        raise RuntimeError("matrix exponential series failed to converge")
    for _ in range(squarings):
        total = total @ total
    return total


def random_bivector(g: Metric, seed: int, scale: float = 1.0) -> Bivector:
    """Seeded random bivector with coefficients uniform in [-scale, scale]."""
    # L = F g with antisymmetric F satisfies L^T g + g L = 0 identically.  The mask
    # leaves signed zeros below the diagonal, which f - f^T cancels to the bits of
    # np.triu(draw, 1) minus its transpose.
    f = np.random.default_rng(seed).uniform(-scale, scale, size=(4, 4)) * _STRICT_UPPER
    f = f - f.T
    return Bivector(f @ g.matrix, g)


def random_transformation(
    g: Metric, seed: int, scale: float = 1.0
) -> LorentzTransformation:
    """Seeded random transformation: series exponential of a random bivector."""
    generator = random_bivector(g, seed, scale)
    return LorentzTransformation(exp_series(generator.matrix), g)


def intertwining_defect(sigma, lam, rep: Representation):
    """Worst-case defect of Sigma rho(e_a) Sigma^{-1} = rho(Lam e_a).

    This is the sign-blind acceptance oracle for spin lifts: it is invariant
    under Sigma -> -Sigma.  An (N, d, d) stack of Sigma with a sequence of N
    ``LorentzTransformation`` gives the N defects, each bit for bit that of its
    own pair; a 2-D Sigma with one Lam is a stack of one, and gives a float.  A
    Sigma that is not finite, is singular or has cond_2 above ``_COND_LIMIT``
    raises :class:`SingularSigmaError`, each test taken over the whole stack in
    that order.
    """
    sigma = np.asarray(sigma)
    stack = sigma.reshape(-1, *sigma.shape[-2:])
    lams = (lam,) if sigma.ndim == 2 else lam
    if not math.isfinite(maxabs(stack)):  # inv passes NaN through and cond fails on it
        raise SingularSigmaError("candidate lift has non-finite entries")
    try:
        inv = np.linalg.inv(stack)
    except np.linalg.LinAlgError as exc:
        raise SingularSigmaError("candidate lift is singular") from exc
    # cond_2(Sigma) <= ||Sigma||_F ||Sigma^{-1}||_F (Golub & Van Loan, sec. 2.3), read
    # here from the computed inverse, whose relative error is about u cond (Higham,
    # ch. 14): at most 1.1e-4 at _COND_LIMIT.  Where that bound is at most half the
    # limit, the factor 2 covers this error and the SVD's own rounding, so the SVD
    # would pass Sigma too.  Elsewhere, NaN and inf included, the SVD decides.
    squares = [np.einsum("nij,nij->n", x.conj(), x).real.tolist() for x in (stack, inv)]
    for x, s2, i2 in zip(stack, *squares):  # ||Sigma||_F^2 and ||Sigma^{-1}||_F^2
        if not math.sqrt(s2 * i2) <= 0.5 * _COND_LIMIT:
            cond = float(np.linalg.cond(x))
            if not np.isfinite(cond) or cond > _COND_LIMIT:
                raise SingularSigmaError(
                    f"candidate lift is ill-conditioned (cond={cond:g})")
    # sigma rho(e_a) sigma^{-1} and rho(Lam e_a) for the four a, as (N, 4, d, d) stacks
    lhs = stack[:, None] @ rep.vectors @ inv[:, None]
    lam_t = np.array([x.matrix for x in lams]).transpose(0, 2, 1)
    rhs = (lam_t @ rep._vector_rows).reshape(lhs.shape)
    defects = slice_maxabs((lhs - rhs).reshape(len(stack), -1, lhs.shape[-1]))
    return float(defects[0]) if sigma.ndim == 2 else defects
