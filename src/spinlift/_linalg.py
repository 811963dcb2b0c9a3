"""Shared linear-algebra helpers, the trace quantities that transformation gates
compare, and the one table of every gate threshold, whose users import them."""

from __future__ import annotations

import numpy as np


def maxabs(m) -> float:
    """Largest entry magnitude of an array (0.0 for empty input)."""
    m = np.asarray(m)
    # the reduction ndarray.max makes, without its Python-level wrapper
    return float(np.maximum.reduce(np.abs(m), axis=None)) if m.size else 0.0


def slice_maxabs(m) -> np.ndarray:
    """maxabs of each matrix of an (..., n, n) stack, bit for bit maxabs of each."""
    return np.abs(m).max(axis=(-2, -1))


def scale(m, k) -> float:
    """max(1, maxabs(m))^k: the norm floor of relative gates and selftest defects."""
    return _floored(maxabs(m), k)


def _floored(top: float, k) -> float:
    """max(1, top)^k, the rule of scale for a maxabs already taken."""
    return max(1.0, top) ** k


def transform_traces(m, rows=None) -> tuple[float, float]:
    """(tr Lam, tr2 Lam) of a transformation, tr2 Lam = ((tr Lam)^2 - tr(Lam^2)) / 2.

    Both traces are read in scalars, from ``rows`` = m.tolist() where the caller
    has it, bit for bit the ndarray.trace of m and of m @ m.
    """
    # ndarray.trace's sum: 0.0 plus the diagonal, left to right (the 0.0 makes an
    # all -0.0 diagonal sum to +0.0)
    r = m.tolist() if rows is None else rows
    t = 0.0 + r[0][0] + r[1][1] + r[2][2] + r[3][3]
    a, b, c, d = (m @ m).diagonal().tolist()
    return t, 0.5 * (t * t - (0.0 + a + b + c + d))


def simplicity_defect(t: float, t2: float) -> float:
    """|tr2 Lam - 2 (tr Lam - 1)|, which vanishes for a simple transformation."""
    return abs(t2 - 2.0 * (t - 1.0))


def lift_denominator(t: float, t2: float) -> float:
    """2 + 2 tr Lam + tr2 Lam: the non-simple lift divides by twice its root."""
    return 2.0 + 2.0 * t + t2


# The gate table: each threshold, the quantity it bounds, where, and its units:
# "abs" absolute; "rel X^k" relative to scale(X, k) = max(1, maxabs(X))^k; "hom X^k"
# relative to maxabs(X)^k, homogeneous in X.  Inconsistent units are recorded as
# they are.
_UNIT_ROUNDOFF = 2.0 ** -53  # u, of IEEE double precision
SKEW_TOL = 1e-10  # ||L^T g + g L|| in the Bivector validator; rel L^1
TRACE_TOL = 1e-12  # |tr L| in the Bivector validator; rel L^1
# |det L| = Pf(L g)^2 in is_simple and orthogonal_decompose, and its equal
# 4 (Im s^2)^2 in exp_spin; hom L^4.  Also the default tol of exp_spin and of the
# CLI, whose one --tol reaches both is_simple and is_simple_transform.
SIMPLE_DET_TOL = 1e-9
PLANE_TOL = 1e-9  # |tr2 L| in plane_projection; rel L^2
FACTOR_PIVOT_TOL = 1e-7  # |Pf(L g)| in wedge_factors; hom L^2
SPIN_GAP_TOL = 1e-8  # mu_plus - mu_minus in spin_decompose; hom S^2, S = sigma(L)
SBAR_TAYLOR_CUTOFF = 1e-4  # half-angle of sin_ratio, sinh_ratio; |s| in exp_spin; abs
# mu_plus - mu_minus = 4 |s^2| of a non-simple L in exp_spin, at or below it the
# label "near-degenerate/series"; rel L^2
SERIES_GAP_TOL = 1e-3
_NULL_TOL = 1e-12  # |tr2 L| of the label "simple/null" of exp_spin and log; rel L^2
# ||Lam^T g Lam - g|| and |det Lam - 1| in the LorentzTransformation validator;
# rel Lam^2, det Lam taken by a cofactor whose rounding is of degree 2 too.  Also abs
# on 1 - Lam^0_0 and on -tr Lam.
ORTHO_TOL = 1e-9
# det Lam <= 0 in that validator, refused only where the cofactor cannot misread the
# sign of a det Lam > 0; abs, proven rather than tuned.  With E = Lam^T g Lam - g, its
# maxabs D and e = 4 D >= ||g E||_2: det Lam^2 = det(I + g E), so |det Lam| >=
# (1 - e)^2, and the cofactor is det Lam (1 + eta), |eta| <= 2 rho e / (1 - e) for
# rho = maxabs(Lam) / Lam^0_0 >= 1.  Its rounding is under 37 u rho maxabs(Lam)^2, and
# D under (1 + u) times the computed D plus 16.001 u scale(Lam, 2).  A det Lam > 0
# thus reads a positive cofactor while 2 e + |eta| + rounding < 1, which holds while
# rho (19 D + 328 u scale(Lam, 2)) < 1, D as computed (then D < 1 / 19).  ORTHO_TOL
# alone admits det Lam = -1 past maxabs(Lam) ~4.5e4; framed parity-reflected Lam read
# D under 9 u maxabs(Lam)^2, so the sign test refuses them up to about rapidity 15.
DET_SIGN_DEFECT, DET_SIGN_ROUNDING = 19.0, 328.0
# simplicity_defect in is_simple_transform; relative to max(1, tr2 Lam, tr Lam)
SIMPLE_CRITERION_TOL = SIMPLE_DET_TOL
# The paper's lift formulas divide by a gate quantity x, tr Lam or the denominator;
# their forward error against exp(sigma(L)) fits c u scale(Lam, 2) / x, u the unit
# roundoff.  Over sweeps of pi - eps rotations, with boosts of rapidity 0-2 and
# frame changes, c reached 30 for tr Lam and 82 for the denominator; c = 128
# bounds both, and each gate keeps the error within _LIFT_TARGET.  Units: rel Lam^2.
_LIFT_TARGET = 1e-11  # relative forward error of a lift formula at its gate
TRACE_GATE = 128.0 * _UNIT_ROUNDOFF / _LIFT_TARGET  # tr Lam < 4: lift_simple above
# |det A - 1| of lift_simple's block A; abs.  Past it lift takes the spinor map and
# lift_simple raises.  The block is exp(-i phi) times the true one, phi = arg tr A
# of the spinor, so its error is about |det A - 1| / 2: linear in the small
# invariant of a Lam the trace gate calls simple (2.7e-6 at rapidity 1e-5 next to
# angle 1).  Relative to maxabs(A)^2 the bound would let that error grow as
# e^rapidity; absolute, it sends framed boosts past rapidity ~12, whose computed
# det A carries u maxabs(A)^2 of rounding, to the spinor map.
BLOCK_DET_TOL = 2.0 * _LIFT_TARGET
# 4 |s^2| = mu_plus - mu_minus in orthogonal_decompose; hom L^2.  Its parts' error is c u
# maxabs(L)^3 / gap, c <= 1.24 on framed N + eps (K01 + J23): c = 2 keeps _LIFT_TARGET.
_PART_GATE = 2.0 * _UNIT_ROUNDOFF / _LIFT_TARGET
DENOMINATOR_GATE = TRACE_GATE  # lift_denominator in lift_nonsimple; a label in lift
IDENTITY_TOL = 1e-12  # ||Lam - I|| for the CLI branch "simple/identity"; abs
SERIES_TERM_TOL = 1e-16  # largest term entry in exp_series; relative to the sum's
_COND_LIMIT = 1e12  # cond of a lift in intertwining_defect; abs.  u times it: _spinor

