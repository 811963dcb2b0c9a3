"""Walkthrough: closed-form exponentials of spin-algebra elements.

exp(sigma(L)) never needs a power series.  Simple bivectors exponentiate with
two terms (cos/sin, cosh/sinh, or exactly I + S), and non-simple ones either
factor over the commuting decomposition or collapse to a cubic polynomial in
sigma(L).  A brute-force series evaluator serves as the independent referee.
"""

import numpy as np

from spinlift import (
    exp_coefficients,
    exp_series,
    exp_spin,
    exp_spin_factored,
    exp_spin_polynomial,
    exp_spin_simple,
    make_metric,
    mu_roots,
    random_bivector,
    representation,
    sin_ratio,
    spin_rep,
    tr2,
    wedge,
)

np.set_printoptions(precision=6, suppress=True)

g = make_metric()
rep = representation("gamma", g)
e = np.eye(4)

print("== simple cases: two terms suffice ==")
for label, L in [
    ("rotation e2^e3", wedge(g, e[2], e[3])),
    ("boost    e0^e1", wedge(g, e[0], e[1])),
    ("null     (e0+e3)^e1", wedge(g, e[0] + e[3], e[1])),
]:
    s = spin_rep(rep, L)
    closed = exp_spin_simple(s, tr2(L))
    series = exp_series(s)
    print(f"{label}: tr2 = {tr2(L):+.1f}, defect vs series = "
          f"{np.abs(closed - series).max():.2e}")

print("\n== non-simple case: factored and polynomial forms ==")
L = random_bivector(g, seed=42)
series = exp_series(spin_rep(rep, L))
factored = exp_spin_factored(L, rep)
poly = exp_spin_polynomial(L, rep)
print("factored   vs series:", np.abs(factored - series).max())
print("polynomial vs series:", np.abs(poly - series).max())
co = exp_coefficients(mu_roots(L))
print("polynomial coefficients (alpha0..alpha3):",
      tuple(round(a, 6) for a in co.alpha))

print("\n== dispatcher picks the branch ==")
cases = [
    ("rotation", wedge(g, e[2], e[3])),
    ("boost", wedge(g, e[0], e[1])),
    ("null", wedge(g, e[0] + e[3], e[1])),
    ("generic", L),
    # Near-degenerate: both invariant roots almost coincide, so the
    # polynomial's 1/(mu+ - mu-) would blow up.  The label says so; the
    # dispatcher's SL(2,C) exponential divides by no gap and stays exact.
    ("tiny gap", wedge(g, e[0], e[1]) * 0.02 + wedge(g, e[2], e[3]) * 0.02),
]
for label, biv in cases:
    out, branch = exp_spin(biv, rep, return_branch=True)
    defect = np.abs(out - exp_series(spin_rep(rep, biv))).max()
    print(f"{label:9s} -> {branch:25s} defect vs series = {defect:.2e}")

print("\n== small-angle ratios stay exact ==")
for theta in (1e-2, 1e-5, 1e-10):
    print(f"sin_ratio({theta:g}) = {sin_ratio(theta)!r}")

print("\n== exponentials respect the vector action ==")
# exp(sigma(L)) rho(u) exp(-sigma(L)) == rho(exp(L) u), checked on the basis.
W = random_bivector(g, seed=99)
U = exp_spin(W, rep)
U_inv = np.linalg.inv(U)
Lam = exp_series(W.matrix)
worst = max(
    np.abs(U @ rep.vector(u) @ U_inv - rep.vector(Lam @ u)).max() for u in e
)
print("conjugation defect over the basis:", worst)
