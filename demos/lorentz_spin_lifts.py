"""Walkthrough: from finite Lorentz transformations to the spin double cover.

Starting from the 4x4 matrix of a proper orthochronous transformation alone,
the group-level machinery reads off its invariants, takes principal
logarithms of simple and non-simple transformations alike, factors non-simple
ones into commuting boost and rotation pieces, and lifts everything to the
spin representation -- all in closed form, with the eigenvalue problem never
solved numerically.
"""

import numpy as np

from spinlift import (
    LorentzTransformation,
    exp_series,
    exp_spin,
    factor_transform,
    intertwining_defect,
    is_simple_transform,
    lift,
    lift_nonsimple,
    log,
    make_metric,
    random_transformation,
    representation,
    spin_rep,
    tr2,
    tr2_transform,
    wedge,
)

np.set_printoptions(precision=6, suppress=True)

g = make_metric()
rep = representation("gamma", g)
e = np.eye(4)


def transform_of(biv):
    return LorentzTransformation(exp_series(biv.matrix), g)


print("== trace invariants classify the transformation ==")
rotation = transform_of(wedge(g, e[2], e[3]))
boost = transform_of(wedge(g, e[0], e[1]))
generic = transform_of(wedge(g, e[0], e[1]) + wedge(g, e[2], e[3]) * 2.0)
for label, lam in [("rotation", rotation), ("boost", boost), ("generic", generic)]:
    print(f"{label:9s} tr = {np.trace(lam.matrix):+8.4f}  "
          f"tr2 = {tr2_transform(lam):+8.4f}  simple: {is_simple_transform(lam)}")

print("\n== principal logarithm, simple or not ==")
for label, lam in [("rotation", rotation), ("boost", boost), ("generic", generic)]:
    L = log(lam)
    roundtrip = np.abs(exp_series(L.matrix) - lam.matrix).max()
    print(f"{label:9s} tr2(log) = {tr2(L):+8.4f}  roundtrip defect {roundtrip:.2e}")
generator = wedge(g, e[0], e[1]) + wedge(g, e[2], e[3]) * 2.0
print("log(generic) == its generator, defect:",
      np.abs(log(generic).matrix - generator.matrix).max())

print("\n== commuting factorization of a non-simple transformation ==")
pair = factor_transform(generic)
recon = pair.lambda_plus.matrix @ pair.lambda_minus.matrix
comm = (pair.lambda_plus.matrix @ pair.lambda_minus.matrix
        - pair.lambda_minus.matrix @ pair.lambda_plus.matrix)
print("both factors simple:",
      is_simple_transform(pair.lambda_plus), is_simple_transform(pair.lambda_minus))
print("reconstruction defect:", np.abs(recon - generic.matrix).max())
print("factors commute:", np.abs(comm).max())
print("c_plus  = cosh(rapidity 1):", round(pair.c_plus, 12), "=", round(np.cosh(1.0), 12))
print("c_minus = cos(angle 2):    ", round(pair.c_minus, 12), "=", round(np.cos(2.0), 12))

print("\n== spin lifts in all four regimes ==")
half_turn = transform_of(wedge(g, e[2], e[3]) * np.pi)        # traceless rotation
special = LorentzTransformation(
    exp_series((wedge(g, e[0], e[1]) + wedge(g, e[2], e[3]) * np.pi).matrix), g
)                                                             # degenerate denominator
for label, lam in [
    ("simple", boost),
    ("traceless", half_turn),
    ("nonsimple", generic),
    ("degenerate", special),
]:
    sigma, branch = lift(lam, rep, return_branch=True)
    defect = intertwining_defect(sigma, lam, rep)
    print(f"{label:10s} -> branch {branch:18s} intertwining defect {defect:.2e}")
# lift takes the spinor map for every non-simple Lam; the paper's formula agrees,
# sign included: both give the principal lift, Re tr A >= 0 on the SL(2,C) block
paper, sigma = lift_nonsimple(generic, rep), lift(generic, rep)
print("paper's non-simple formula == lift, defect:", np.abs(sigma - paper).max())

print("\n== the lift inverts the exponential: the principal lift ==")
W = wedge(g, e[0], e[2]) * 0.7 + wedge(g, e[1], e[3]) * 1.3
U = exp_spin(W, rep)
lam = transform_of(W)
sigma = lift(lam, rep)
print("lift(exp L) == exp(sigma(L)) for a rotation angle below pi, defect:",
      np.abs(sigma - U).max())
print("lift(Lam) == exp(sigma(log Lam)), defect:",
      np.abs(sigma - exp_spin(log(lam), rep)).max())

# Shifting a rotation angle by 2 pi returns the same Lorentz matrix but the
# opposite spin element: the double cover is genuinely two-sheeted.
theta = 1.2
U1 = exp_spin(wedge(g, e[2], e[3]) * theta, rep)
U2 = exp_spin(wedge(g, e[2], e[3]) * (theta + 2.0 * np.pi), rep)
print("angle + 2 pi flips the lift's sign:", np.abs(U1 + U2).max() < 1e-12)

print("\n== homomorphism up to the double-cover sign ==")
# principal lifts multiply to the principal lift of the product or to its
# negative: two rotations by 2 in one plane make a rotation by 4 > pi, whose
# principal lift lies on the other sheet
turn = transform_of(wedge(g, e[2], e[3]) * 2.0)
pairs = [(random_transformation(g, seed=5), random_transformation(g, seed=6)),
         (turn, turn)]
for label, (a, b) in zip(("random pair", "two turns by 2"), pairs):
    ab = LorentzTransformation(a.matrix @ b.matrix, g)
    product_lift = lift(a, rep) @ lift(b, rep)
    direct_lift = lift(ab, rep)
    eps = 1 if np.abs(product_lift - direct_lift).max() < 1.0 else -1
    print(f"{label:14s} lift(a) lift(b) == eps lift(a b) with eps = {eps:+d}, defect:",
          np.abs(product_lift - eps * direct_lift).max())
