import itertools
import math
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlift import (
    Bivector,
    DegeneratePlaneError,
    InvalidBivectorError,
    NotSimpleError,
    SimpleInputError,
    cli,
    det_bivector,
    inner,
    is_simple,
    make_metric,
    mu_roots,
    orthogonal_decompose,
    plane_projection,
    tr2,
    wedge,
    wedge_factors,
)
from spinlift._linalg import SIMPLE_DET_TOL, SKEW_TOL, TRACE_TOL
from spinlift.oracle import random_bivector
from spinlift.sampling import _bivector, _frame, random_nonsimple_bivector, random_wedge

E = np.eye(4)


def mabs(m):
    return float(np.abs(np.asarray(m)).max())


def wedge_oracle(gm, u, v):
    """Entrywise (u ^ v)^a_b = u^a (gv)_b - v^a (gu)_b, by explicit loops."""
    gu = gm @ u
    gv = gm @ v
    w = np.zeros((4, 4))
    for a in range(4):
        for b in range(4):
            w[a, b] = u[a] * gv[b] - v[a] * gu[b]
    return w


def det_oracle(m):
    """Permutation-sum determinant, independent of any factorization."""
    total = 0.0
    for perm in itertools.permutations(range(4)):
        inversions = sum(
            1 for i in range(4) for j in range(i + 1, 4) if perm[i] > perm[j]
        )
        term = (-1.0) ** inversions
        for i in range(4):
            term *= m[i, perm[i]]
        total += term
    return total


# value of wedge(e0, e1) over diag(1,-1,-1,-1), frozen from the index oracle
WEDGE_01 = np.array(
    [
        [0.0, -1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ]
)


def test_wedge_e0_e1_frozen(g):
    w = wedge(g, E[0], E[1])
    assert np.array_equal(w.matrix, WEDGE_01)
    assert np.array_equal(wedge_oracle(g.matrix, E[0], E[1]), WEDGE_01)


def test_wedge_e2_e3_entries(g):
    w = wedge(g, E[2], E[3]).matrix
    expected = np.zeros((4, 4))
    expected[2, 3] = -1.0
    expected[3, 2] = 1.0
    assert np.array_equal(w, expected)


@pytest.mark.parametrize("tag", ["pmmm", "mppp"])
def test_wedge_matches_index_oracle(tag):
    g = make_metric(tag)
    rng = np.random.default_rng(5)
    for _ in range(25):
        u = rng.uniform(-2.0, 2.0, 4)
        v = rng.uniform(-2.0, 2.0, 4)
        assert mabs(wedge(g, u, v).matrix - wedge_oracle(g.matrix, u, v)) < 1e-14


def test_wedge_self_is_zero(g):
    rng = np.random.default_rng(6)
    u = rng.uniform(-1.0, 1.0, 4)
    assert mabs(wedge(g, u, u).matrix) == 0.0


def test_wedge_antisymmetric_bilinear(g):
    rng = np.random.default_rng(7)
    u, v, w = rng.uniform(-1.0, 1.0, (3, 4))
    assert mabs((wedge(g, u, v) + wedge(g, v, u)).matrix) == 0.0
    lhs = wedge(g, u + 2.0 * w, v).matrix
    rhs = wedge(g, u, v).matrix + 2.0 * wedge(g, w, v).matrix
    assert mabs(lhs - rhs) < 1e-15


def test_bivector_validation(g):
    with pytest.raises(InvalidBivectorError):
        Bivector(np.eye(4), g)  # symmetric, not skew w.r.t. g
    with pytest.raises(InvalidBivectorError):
        Bivector(np.zeros((3, 3)), g)
    bad = WEDGE_01.copy()
    bad[0, 0] = np.inf
    with pytest.raises(InvalidBivectorError):
        Bivector(bad, g)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [(0, 1), (2, 2), (3, 0)])
def test_bivector_rejects_non_finite(g, value, entry):
    # one maxabs carries NaN and +/-inf alike to the finiteness test
    bad = WEDGE_01.copy()
    bad[entry] = value
    with pytest.raises(InvalidBivectorError, match="entries must be finite"):
        Bivector(bad, g)


def matmul_decision(m, g):
    """The refusal, or None, of the Bivector validator's matrix form: maxabs of
    L^T g + g L against SKEW_TOL, then |tr L| against TRACE_TOL, both rel L^1."""
    norm = max(1.0, mabs(m))
    if mabs(m.T @ g.matrix + g.matrix @ m) > SKEW_TOL * norm:
        return "not skew"
    if abs(float(m.trace())) > TRACE_TOL * norm:
        return "not traceless"
    return None


@pytest.mark.parametrize("tag", ["pmmm", "mppp"])
def test_validator_decision_matches_matmul_form(tag):
    # The validator takes both defects in scalars from one tolist(); over eps-sweeps
    # across SKEW_TOL (an off-diagonal entry moved) and TRACE_TOL (a diagonal one)
    # its decision is that of the matrix form, down to the last bits of the gate.
    # A diagonal of trace ~0 makes the trace's summation order show; on odd seeds
    # the moved entry's pair is zeroed first, so the skew defect is eps SKEW_TOL
    # norm to the last bit.
    g = make_metric(tag)
    sweep = [1.0 + k * 2.0**-50 for k in range(-8, 9)] + [0.5, 0.9, 1.1, 2.0]
    seen = Counter()
    for c, seed in itertools.product(np.logspace(-3, 3, 7), range(6)):
        i, j = seed % 4, (seed + 1) % 4
        base = c * random_bivector(g, seed).matrix
        if seed % 2:
            base[i, j] = base[j, i] = 0.0
        norm = max(1.0, mabs(base))
        d = np.random.default_rng(seed).uniform(-0.3, 0.3, 3) * TRACE_TOL * norm
        base += np.diag([*d, -d.sum()])
        for (entry, tol), eps in itertools.product(
                (((i, j), SKEW_TOL), ((i, i), TRACE_TOL)), sweep):
            m = base.copy()
            m[entry] += eps * tol * norm
            expected = matmul_decision(m, g)
            try:
                Bivector(m, g)
                got = None
            except InvalidBivectorError as exc:
                got = str(exc).removeprefix("matrix is ").split(" with")[0]
            assert got == expected, (c, seed, entry, eps)
            seen[got] += 1
    assert min(seen[None], seen["not skew"], seen["not traceless"]) > 100, seen


def test_bivector_metric_mismatch(g, g_alt):
    a = wedge(g, E[0], E[1])
    b = wedge(g_alt, E[0], E[1])
    with pytest.raises(InvalidBivectorError):
        a + b


def test_bivector_matrix_read_only(g):
    w = wedge(g, E[0], E[1])
    with pytest.raises(ValueError):
        w.matrix[0, 0] = 1.0


def test_tr2_frozen_values(g):
    assert tr2(wedge(g, E[0], E[1])) == -1.0
    assert tr2(wedge(g, E[2], E[3])) == 1.0
    assert tr2(Bivector(np.zeros((4, 4)), g)) == 0.0


def test_tr2_of_wedge_formula(g):
    # tr2(u ^ v) = g(u,u) g(v,v) - g(u,v)^2
    rng = np.random.default_rng(8)
    for _ in range(50):
        u = rng.uniform(-2.0, 2.0, 4)
        v = rng.uniform(-2.0, 2.0, 4)
        expected = inner(g, u, u) * inner(g, v, v) - inner(g, u, v) ** 2
        assert tr2(wedge(g, u, v)) == pytest.approx(expected, rel=1e-10, abs=1e-10)


def test_det_frozen_values(g):
    assert det_bivector(wedge(g, E[0], E[1])) == pytest.approx(0.0, abs=1e-15)
    block = wedge(g, E[0], E[1]) + wedge(g, E[2], E[3])
    assert det_bivector(block) == pytest.approx(-1.0, abs=1e-14)
    assert det_oracle(block.matrix) == pytest.approx(-1.0, abs=1e-14)


def test_det_matches_permutation_oracle(g):
    for seed in range(20):
        L = random_bivector(g, seed)
        assert det_bivector(L) == pytest.approx(det_oracle(L.matrix), abs=1e-12)


def test_mu_roots_frozen(g):
    block = wedge(g, E[0], E[1]) + wedge(g, E[2], E[3])
    assert mu_roots(block) == pytest.approx((1.0, -1.0), abs=1e-14)
    assert mu_roots(wedge(g, E[0], E[1])) == pytest.approx((1.0, 0.0), abs=1e-14)
    zero = Bivector(np.zeros((4, 4)), g)
    assert mu_roots(zero) == (0.0, 0.0)


def test_mu_roots_solve_quadratic(g):
    for seed in range(30):
        L = random_bivector(g, seed, scale=1.5)
        mu = mu_roots(L)
        t, d = tr2(L), det_bivector(L)
        scale = max(1.0, abs(t), abs(d))
        assert abs(mu.mu_plus + mu.mu_minus + t) < 1e-9 * scale
        assert abs(mu.mu_plus * mu.mu_minus - d) < 1e-9 * scale
        assert mu.mu_plus >= 0.0 >= mu.mu_minus


def sweeps(g):
    """b01 + eps b23 and the near-null (b01 + b12) + eps b23, eps in logspace(-12, 0, 25)."""
    b01, b12, b23 = (wedge(g, E[a], E[b]) for a, b in ((0, 1), (1, 2), (2, 3)))
    return [base + eps * b23 for base in (b01, b01 + b12)
            for eps in np.logspace(-12, 0, 25)]


def selftest_draws(tag, seed):
    """Every Bivector the selftest battery builds, its samples and their parts."""
    drawn = []
    validate = Bivector.__post_init__
    Bivector.__post_init__ = lambda self: drawn.append(self) or validate(self)
    try:
        cli.run_selftest(tag, seed)
    finally:
        Bivector.__post_init__ = validate
    return drawn


def exact_invariants(L):
    """det L and (mu_plus, mu_minus) of the float matrix L, in 40-digit mpmath."""
    m = mpmath.matrix(L.matrix.tolist())
    d = mpmath.det(m)
    t = -sum((m * m)[i, i] for i in range(4)) / 2
    root = mpmath.sqrt(t * t - 4 * d)
    return d, ((-t + root) / 2, (-t - root) / 2)


def test_invariants_against_mpmath():
    # worst errors over both metrics, in units of maxabs(L)^4 and maxabs(L)^2; on
    # these inputs the LU determinant that -Pf^2 replaced read 7.154e-16 (mppp)
    # and the roots, whose error is tr2's, 6.622e-16 (pmmm)
    worst_det = worst_mu = worst_small = 0.0
    with mpmath.workdps(40):
        for tag, seed in (("pmmm", 7), ("mppp", 11)):
            g = make_metric(tag)
            for L in selftest_draws(tag, seed) + sweeps(g):
                d, mu = exact_invariants(L)
                top = L._maxabs
                worst_det = max(worst_det, float(abs(det_bivector(L) - d)) / top**4)
                err = max(abs(a - b) for a, b in zip(mu_roots(L), mu))
                worst_mu = max(worst_mu, float(err) / top**2)
            for L in sweeps(g)[:25]:  # the small root, Pf^2 over the large one
                small = min(mu_roots(L), key=abs)
                exact = min(exact_invariants(L)[1], key=abs)
                worst_small = max(worst_small, float(abs(small - exact) / abs(exact)))
    assert worst_det <= 7.16e-16
    assert worst_mu <= 6.63e-16
    assert worst_small <= 4 * 2.0**-53


def test_is_simple_frozen(g):
    assert is_simple(wedge(g, E[0], E[1]))
    assert not is_simple(wedge(g, E[0], E[1]) + wedge(g, E[2], E[3]))
    assert is_simple(Bivector(np.zeros((4, 4)), g))


def test_decompose_block_example(g):
    L = wedge(g, E[0], E[1]) + wedge(g, E[2], E[3])
    l_plus, l_minus = orthogonal_decompose(L)
    assert mabs(l_plus.matrix - WEDGE_01) < 1e-12
    assert mabs(l_minus.matrix - wedge(g, E[2], E[3]).matrix) < 1e-12
    assert mabs(l_plus.matrix @ l_minus.matrix) < 1e-12


def test_decompose_rejects_simple(g):
    with pytest.raises(SimpleInputError):
        orthogonal_decompose(wedge(g, E[0], E[1]))


@pytest.mark.parametrize("c", [1e-3, 1e-6])
def test_decompose_small_block(g, c):
    # the simplicity gate is homogeneous: c (b01 + b23) stays non-simple
    b01, b23 = wedge(g, E[0], E[1]), wedge(g, E[2], E[3])
    L = c * (b01 + b23)
    assert not is_simple(L)
    l_plus, l_minus = orthogonal_decompose(L)
    assert mabs(l_plus.matrix - c * b01.matrix) <= 1e-15 * c
    assert mabs(l_minus.matrix - c * b23.matrix) <= 1e-15 * c


@settings(max_examples=150, deadline=None)
@given(tag=st.sampled_from(["pmmm", "mppp"]), seed=st.integers(0, 500),
       c=st.floats(1e-6, 1e3))
def test_classify_and_decompose_scale_with_c(tag, seed, c):
    g = make_metric(tag)
    W = random_wedge(g, seed)
    assert is_simple(c * W) and is_simple(W)
    L = random_nonsimple_bivector(g, seed)
    assert not is_simple(c * L) and not is_simple(L)
    for part, scaled in zip(orthogonal_decompose(L), orthogonal_decompose(c * L)):
        assert mabs(scaled.matrix - c * part.matrix) <= 1e-13 * c * L._maxabs


def test_decompose_properties_random(g):
    # the bivector-decomposition selftest row bounds every defect at 1e-8; here
    # the sum is held to 1e-9, and the parts' simplicity and order are checked
    for seed in range(60):
        L = random_nonsimple_bivector(g, seed)
        l_plus, l_minus = orthogonal_decompose(L)
        scale = max(1.0, mabs(L.matrix))
        assert mabs(l_plus.matrix + l_minus.matrix - L.matrix) < 1e-9 * scale
        assert is_simple(l_plus) and is_simple(l_minus)
        # boost-like part first: tr2(L+) <= 0 <= tr2(L-)
        assert tr2(l_plus) <= 1e-12
        assert tr2(l_minus) >= -1e-12


def test_decompose_uniqueness(g):
    # rescaling the two annihilating parts and re-decomposing recovers them
    rng = np.random.default_rng(9)
    for seed in range(20):
        L = random_nonsimple_bivector(g, 100 + seed)
        l_plus, l_minus = orthogonal_decompose(L)
        a, b = rng.uniform(0.5, 2.0, 2)
        rebuilt = a * l_plus + b * l_minus
        r_plus, r_minus = orthogonal_decompose(rebuilt)
        assert mabs(r_plus.matrix - a * l_plus.matrix) < 1e-8
        assert mabs(r_minus.matrix - b * l_minus.matrix) < 1e-8


@pytest.mark.parametrize("tag", ["pmmm", "mppp"])
def test_decompose_parts_past_the_bound_are_validated(tag, monkeypatch):
    # The parts skip the validator only where maxabs(L)^3 / gap is within
    # _PART_BOUND, and each that does passes it.  Past the bound the validator judges
    # them.  A null wedge at tol = 1e-300 passes the gate on a rounding-sized Pf, so
    # its parts are rounding over a gap of that size: refused as not skew.  A rotation
    # just past the default gate next to a rapidity of 1e4 or 1e6 leaves a part whose
    # trace rounding, about u rapidity, tops TRACE_TOL: refused as not traceless.  At
    # rapidity 1 most of the same draws are within the bound.
    g = make_metric(tag)
    nulls = [random_wedge(g, seed, "null", scale)
             for seed in range(50) for scale in (0.5, 1.0, 2.0)]
    frames = [_frame(np.random.default_rng(seed), 4.5) for seed in range(50)]
    draws = {b: [_bivector(g, q, rapidity=b, angle=k * math.sqrt(SIMPLE_DET_TOL) * b)
                 for q in frames for k in (1.5, 3.0, 10.0)] for b in (1.0, 1e4, 1e6)}
    made = []
    of = Bivector._of
    monkeypatch.setattr(Bivector, "_of", staticmethod(
        lambda m, metric: made.append(of(m, metric)) or made[-1]))

    def outcomes(bivectors, *tol):
        out = Counter()
        for L in bivectors:
            try:
                orthogonal_decompose(L, *tol)
                out["answered"] += 1
            except (InvalidBivectorError, SimpleInputError) as e:
                out[str(e)] += 1
        return out

    assert outcomes(nulls, 1e-300) == {
        "simple bivector has no orthogonal decomposition": 39,
        "matrix is not skew with respect to the metric": 111}
    assert outcomes(draws[1e4] + draws[1e6]) == {
        "simple bivector has no orthogonal decomposition": 102,
        "answered": 185, "matrix is not traceless": 13}
    assert made == []
    assert outcomes(draws[1.0]) == {
        "simple bivector has no orthogonal decomposition": 51, "answered": 99}
    assert len(made) == 2 * 86  # the other 13 are past the bound
    for x in made:
        y = Bivector(x.matrix, g)
        assert (y.matrix.tobytes(), y._maxabs.hex()) == (x.matrix.tobytes(), x._maxabs.hex())


def test_simple_cube_identity(g):
    # L^3 = -tr2(L) L for simple L
    for seed in range(40):
        W = random_wedge(g, seed)
        m = W.matrix
        assert mabs(m @ m @ m + tr2(W) * m) < 1e-10 * max(1.0, mabs(m) ** 3)


@pytest.mark.parametrize("scale", [1e-3, 1e-2, 0.1, 1.0, 4.0])
@pytest.mark.parametrize("tag", ["pmmm", "mppp"])
def test_random_wedge_kinds_at_every_scale(tag, scale):
    # tr2 of u ^ v is of degree 4 in the sampler's scale, and its floors follow
    g = make_metric(tag)
    for seed in range(10):
        t = {kind: tr2(random_wedge(g, seed, kind=kind, scale=scale)) / scale**4
             for kind in ("rotation", "boost", "null", "any")}
        assert t["rotation"] > 0.0 > t["boost"], seed
        assert abs(t["null"]) <= 1e-12 and t["any"] != 0.0, seed


def test_plane_projection_frozen(g):
    assert mabs(plane_projection(wedge(g, E[0], E[1])) - np.diag([1.0, 1.0, 0, 0])) < 1e-15
    assert mabs(plane_projection(wedge(g, E[2], E[3])) - np.diag([0, 0, 1.0, 1.0])) < 1e-15


def test_plane_projection_properties(g):
    for seed in range(30):
        W = random_wedge(g, seed, kind="rotation")
        p = plane_projection(W)
        assert mabs(p @ p - p) < 1e-9
        assert np.trace(p) == pytest.approx(2.0, abs=1e-9)
        gp = g.matrix @ p
        assert mabs(gp - gp.T) < 1e-9


def test_plane_projection_null_raises(g):
    null = wedge(g, E[0] + E[3], E[1])
    assert tr2(null) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(DegeneratePlaneError):
        plane_projection(null)


def test_wedge_factors_roundtrip(g):
    for seed in range(30):
        W = random_wedge(g, seed)
        u, v = wedge_factors(W)
        assert mabs(wedge(g, u, v).matrix - W.matrix) < 1e-9 * max(1.0, mabs(W.matrix))


def test_wedge_factors_rejects(g):
    block = wedge(g, E[0], E[1]) + wedge(g, E[2], E[3])
    with pytest.raises(NotSimpleError):
        wedge_factors(block)
    zero = Bivector(np.zeros((4, 4)), g)
    with pytest.raises(NotSimpleError):
        wedge_factors(zero)


@pytest.mark.parametrize("tag", ["pmmm", "mppp"])
def test_wedge_factors_threshold(tag):
    # |Pf(L g)| is gated at FACTOR_PIVOT_TOL = 1e-7 relative to maxabs(L)^2
    g = make_metric(tag)
    b01, b23 = wedge(g, E[0], E[1]), wedge(g, E[2], E[3])
    with pytest.raises(NotSimpleError):
        wedge_factors(b01 + 1e-6 * b23)
    u, v = wedge_factors(b01 + 1e-9 * b23)
    assert mabs(wedge(g, u, v).matrix - b01.matrix) == 0.0
