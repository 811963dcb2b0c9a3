"""Seeded generators for structured test inputs, built from their invariants.

Each input is the canonical generator rapidity K01 + angle J23, or the
closed-form transformation with that rapidity and angle, moved by a random
proper orthochronous frame Q: no draw is rejected and no gate is asked.
``scale`` multiplies the rapidity and the angle, and sqrt|tr2| of a wedge by
scale^2.  All draws are deterministic in the seed.
"""

from __future__ import annotations

import math

import numpy as np

from ._linalg import SERIES_GAP_TOL, SIMPLE_DET_TOL
from .bivector import Bivector
from .group_lift import LorentzTransformation
from .metric import Metric

_MARGIN = 16.0  # how far each promise clears the gate that would break it
_SMALLEST = 1.8 * 0.04 * 0.04  # 0.0029: _invariants draws in scale * [_SMALLEST, 1.8]


def _invariants(rng: np.random.Generator, scale: float):
    a, b = rng.uniform(0.04, 1.0, 2).tolist()  # dense near both ends
    return 1.8 * scale * a * a, 1.8 * scale * b * b


def _frame(rng: np.random.Generator, stretch: float) -> np.ndarray:
    # Q = R B, Q^{-1} = g Q^T g: a boost B along e2 with cosh(rapidity) in [1, stretch],
    # then the rotation R of a random quaternion; Q L0 Q^{-1} covers the orbit of L0
    w, x, y, z = rng.normal(size=4).tolist()
    k = 2.0 / (w * w + x * x + y * y + z * z)
    r = [[1.0 - k * (y * y + z * z), k * (x * y - w * z), k * (x * z + w * y)],
         [k * (x * y + w * z), 1.0 - k * (x * x + z * z), k * (y * z - w * x)],
         [k * (x * z - w * y), k * (y * z + w * x), 1.0 - k * (x * x + y * y)]]
    ch = 1.0 + (stretch - 1.0) * rng.uniform() ** 3  # most often near 1
    sh = math.sqrt(ch * ch - 1.0)
    return np.array([[ch, 0.0, sh, 0.0]] + [[sh * b, a, ch * b, c] for a, b, c in r])


def _bivector(g: Metric, q: np.ndarray, rapidity=0.0, angle=0.0, null=0.0) -> Bivector:
    # Q L0 Q^{-1}, L0 = rapidity K01 + angle J23 + null N with each part's character in
    # both metrics, moved as F = L g = U - U^T: Q F Q^T = V - V^T for V = Q U Q^T
    s = float(g.matrix[0, 0])
    u = np.zeros((4, 4))
    u[0, 1], u[2, 3], u[0, 2], u[1, 2] = s * rapidity, -s * angle, s * null, s * null
    v = q @ u @ q.T
    return Bivector._of((v - v.T) @ g.matrix, g)


def _transformation(g: Metric, rng: np.random.Generator, rapidity=0.0, angle=0.0):
    # Q Lam0 Q^{-1}, Lam0 = boost by rapidity in (e0, e1) times rotation by angle in
    # (e2, e3), in a frame whose boost has cosh at most 2
    q = _frame(rng, 2.0)
    ch, sh, c, s = math.cosh(rapidity), math.sinh(rapidity), math.cos(angle), math.sin(angle)
    lam = np.array([[ch, sh, 0, 0], [sh, ch, 0, 0], [0, 0, c, -s], [0, 0, s, c]])
    return LorentzTransformation._of(q @ lam @ g.matrix @ q.T @ g.matrix, g)


def random_nonsimple_bivector(g: Metric, seed: int, scale: float = 1.0) -> Bivector:
    """Random non-simple bivector whose eigenvalue gap exceeds ``SERIES_GAP_TOL``."""
    rng = np.random.default_rng(seed)
    rapidity, angle = _invariants(rng, scale)
    # Q keeps |Pf| = rapidity angle and gap = rapidity^2 + angle^2, and maxabs(L)^2 <=
    # gap cosh(beta)^2; capping cosh(beta)^2 keeps both promises _MARGIN clear
    gap = rapidity * rapidity + angle * angle
    cap = min(1.0 / (_MARGIN * SERIES_GAP_TOL),
              rapidity * angle / (gap * math.sqrt(_MARGIN * SIMPLE_DET_TOL)))
    return _bivector(g, _frame(rng, math.sqrt(cap)), rapidity, angle)


def random_wedge(g: Metric, seed: int, kind: str = "any", scale: float = 1.0) -> Bivector:
    """Random simple wedge of a given causal character.

    ``kind`` selects the sign of tr2: "rotation" (> 0), "boost" (< 0),
    "null" (= 0, a null rotation), or "any" (rotation or boost).  The angle
    or the rapidity sqrt|tr2| lies in scale^2 * [0.3, 2.7].
    """
    rng = np.random.default_rng(seed)
    if kind == "any":
        kind = ("rotation", "boost")[rng.integers(2)]
    part = {"rotation": "angle", "boost": "rapidity", "null": "null"}[kind]
    size = scale * scale * (0.3 + 2.4 * rng.uniform() ** 3)
    return _bivector(g, _frame(rng, 4.5), **{part: size})


def random_nonsimple_transformation(
    g: Metric, seed: int, scale: float = 1.0
) -> LorentzTransformation:
    """Random non-simple transformation with c_+ - c_- = sqrt(Delta) / 2 above 0.05."""
    rng = np.random.default_rng(seed)
    rapidity, angle = _invariants(rng, scale)
    # fold into [_SMALLEST scale, pi] (near 2 pi, into 0); c_+ - c_- = (cosh r - 1) +
    # (1 - cos a) >= 0.4 (r^2 + a^2) for a <= pi / 2, so radius 0.5 keeps it above 0.1
    angle = max(abs(math.remainder(angle, 2.0 * math.pi)), _SMALLEST * scale)
    k = max(1.0, 0.5 / math.hypot(rapidity, angle))
    return _transformation(g, rng, k * rapidity, k * angle)


def traceless_simple_transformation(g: Metric, seed: int) -> LorentzTransformation:
    """Rotation by pi: a simple transformation with vanishing trace."""
    return _transformation(g, np.random.default_rng(seed), angle=math.pi)


def degenerate_denominator_transformation(
    g: Metric, seed: int, scale: float = 1.0
) -> LorentzTransformation:
    """Non-simple transformation whose rotation factor has angle pi.

    Such transformations satisfy 2 + 2 tr Lam + tr2 Lam = 0, the degenerate
    case of the generic non-simple lift.
    """
    rng = np.random.default_rng(seed)
    return _transformation(g, rng, _invariants(rng, scale)[0], math.pi)
