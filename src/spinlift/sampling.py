"""Seeded generators for structured test inputs.

These build on the plain generators in :mod:`spinlift.oracle` to produce
inputs in specific regimes: non-simple bivectors with a healthy eigenvalue
gap, wedges of a given causal character, traceless-simple transformations
(rotations by pi), and transformations whose generic lift denominator
vanishes.  All draws are deterministic in the seed.
"""

from __future__ import annotations

import math

import numpy as np

from . import _linalg
from .bivector import Bivector, is_simple, mu_roots, orthogonal_decompose, tr2, wedge
from .group_lift import LorentzTransformation, is_simple_transform
from .metric import Metric, inner
from .oracle import _bivector_from_rng, exp_series

_MAX_DRAWS = 500


def random_nonsimple_bivector(g: Metric, seed: int, scale: float = 1.0) -> Bivector:
    """Random non-simple bivector whose eigenvalue gap exceeds ``SERIES_GAP_TOL``."""
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_DRAWS):
        L = _bivector_from_rng(rng, g, scale)
        if is_simple(L):
            continue
        mu = mu_roots(L)
        if mu.mu_plus - mu.mu_minus > _linalg.SERIES_GAP_TOL * _linalg._floored(L._maxabs, 2):
            return L
    raise RuntimeError(f"no non-simple bivector found for seed {seed}")


def random_wedge(g: Metric, seed: int, kind: str = "any", scale: float = 1.0) -> Bivector:
    """Random simple wedge of a given causal character.

    ``kind`` selects the sign of tr2: "rotation" (> 0), "boost" (< 0),
    "null" (= 0, built from a null vector and an orthogonal partner), or
    "any" (either sign, bounded away from null).
    """
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_DRAWS):
        if kind == "null":
            space = rng.uniform(-scale, scale, 3)
            norm = float(np.linalg.norm(space))
            if norm < 0.1 * scale:
                continue
            u = np.array([norm, *space])
            w = rng.uniform(-scale, scale, 4)
            z = np.eye(4)[0]
            v = w - (inner(g, u, w) / inner(g, u, z)) * z
            L = wedge(g, u, v)
            if L._maxabs > _linalg.NULL_WEDGE_MIN * scale * scale:
                return L
            continue
        u = rng.uniform(-scale, scale, 4)
        v = rng.uniform(-scale, scale, 4)
        L = wedge(g, u, v)
        t2 = tr2(L)
        floor = 0.1 * scale**4  # tr2 of u ^ v is of degree 4 in scale
        if kind == "rotation" and t2 > floor:
            return L
        if kind == "boost" and t2 < -floor:
            return L
        if kind == "any" and abs(t2) > floor:
            return L
    raise RuntimeError(f"no {kind} wedge found for seed {seed}")


def random_nonsimple_transformation(
    g: Metric, seed: int, scale: float = 1.0
) -> LorentzTransformation:
    """Random non-simple transformation with c_+ - c_- = sqrt(Delta) / 2 above 0.05."""
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_DRAWS):
        L = _bivector_from_rng(rng, g, scale)
        lam = LorentzTransformation(exp_series(L.matrix), g)
        if is_simple_transform(lam):
            continue
        delta = _linalg.factor_delta(*lam._traces)
        if delta > 0 and 0.5 * math.sqrt(delta) > 0.05:
            return lam
    raise RuntimeError(f"no non-simple transformation found for seed {seed}")


def traceless_simple_transformation(g: Metric, seed: int) -> LorentzTransformation:
    """Rotation by pi: a simple transformation with vanishing trace."""
    plane = random_wedge(g, seed, kind="rotation")
    scaled = plane * (math.pi / math.sqrt(tr2(plane)))
    return LorentzTransformation(exp_series(scaled.matrix), g)


def degenerate_denominator_transformation(
    g: Metric, seed: int, scale: float = 1.0
) -> LorentzTransformation:
    """Non-simple transformation whose rotation factor has angle pi.

    Such transformations satisfy 2 + 2 tr Lam + tr2 Lam = 0, the degenerate
    case of the generic non-simple lift.
    """
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_DRAWS):
        L = _bivector_from_rng(rng, g, scale)
        if is_simple(L):
            continue
        mu = mu_roots(L)
        if mu.mu_plus < 0.01 or mu.mu_minus > -0.01:
            continue
        l_plus, l_minus = orthogonal_decompose(L)
        l_minus = l_minus * (math.pi / math.sqrt(tr2(l_minus)))
        matrix = exp_series(l_plus.matrix) @ exp_series(l_minus.matrix)
        return LorentzTransformation(matrix, g)
    raise RuntimeError(f"no degenerate-denominator transformation for seed {seed}")
