import numpy as np
import pytest

from spinlift import (
    MuPair,
    SimpleInputError,
    cross_trace_check,
    inner,
    make_metric,
    mu_roots,
    orthogonal_decompose,
    quad_trace_identity_check,
    recover_invariants,
    representation,
    spin_cross_product,
    spin_decompose,
    spin_rep,
    tr2,
    wedge,
    wedge_factors,
)
from spinlift.cli import _check_recovery, _check_spin_decompose
from spinlift.sampling import random_nonsimple_bivector

E = np.eye(4)


def mabs(m):
    return float(np.abs(np.asarray(m)).max())


def test_spin_decompose_block_example(g, rep):
    L = wedge(g, E[0], E[1]) + wedge(g, E[2], E[3])
    s_plus, s_minus = spin_decompose(spin_rep(rep, L), mu_roots(L))
    assert mabs(s_plus - spin_rep(rep, wedge(g, E[0], E[1]))) < 1e-13
    assert mabs(s_minus - spin_rep(rep, wedge(g, E[2], E[3]))) < 1e-13


def test_spin_decompose_matches_matrix_level(g, rep):
    # the spin-decompose selftest row on seeds 0..39 in one representation
    assert max(_check_spin_decompose(g, (rep,), 0, 40)) < 1e-9


def test_spin_decompose_parts_sum(g, rep):
    L = random_nonsimple_bivector(g, 77)
    s = spin_rep(rep, L)
    s_plus, s_minus = spin_decompose(s, mu_roots(L))
    assert mabs(s_plus + s_minus - s) < 1e-12


def test_spin_decompose_rejects_closed_gap(g, rep):
    s = spin_rep(rep, wedge(g, E[0], E[1]))
    with pytest.raises(SimpleInputError):
        spin_decompose(s, MuPair(0.5, 0.5))


@pytest.mark.parametrize("kind", ["gamma", "regular"])
@pytest.mark.parametrize("sig", ["pmmm", "mppp"])
def test_spin_decompose_small_scale(sig, kind):
    # the gap gate is relative to maxabs(S)^2, so 1e-5 (b01 + b23), whose gap
    # 2e-10 is below the bare 1e-8, splits as orthogonal_decompose does
    g = make_metric(sig)
    rep = representation(kind, g)
    L = 1e-5 * (wedge(g, E[0], E[1]) + wedge(g, E[2], E[3]))
    s = spin_rep(rep, L)
    s_plus, s_minus = spin_decompose(s, mu_roots(L))
    l_plus, l_minus = orthogonal_decompose(L)
    assert mabs(s_plus - spin_rep(rep, l_plus)) <= 1e-15 * mabs(s)
    assert mabs(s_minus - spin_rep(rep, l_minus)) <= 1e-15 * mabs(s)


def test_cross_product_matches_direct(g, rep):
    # the spin-cross-product selftest row bounds both defects at 1e-9; the
    # commutator is held to 1e-10 here
    for seed in range(40):
        L = random_nonsimple_bivector(g, seed)
        l_plus, l_minus = orthogonal_decompose(L)
        sp = spin_rep(rep, l_plus)
        sm = spin_rep(rep, l_minus)
        assert mabs(sp @ sm - sm @ sp) < 1e-10 * max(1.0, mabs(L.matrix) ** 2)


def test_cross_product_vanishes_for_simple(g, rep):
    # with L- = 0 the product is 1/8 tr2 I + 1/2 S^2 = 0 by the square identity
    W = wedge(g, E[0], E[1])
    value = spin_cross_product(spin_rep(rep, W), tr2(W), rep)
    assert mabs(value) < 1e-14


def test_recover_invariants_frozen(g, rep):
    assert recover_invariants(spin_rep(rep, wedge(g, E[0], E[1])), rep) == pytest.approx(
        (-1.0, 0.0), abs=1e-13
    )
    block = wedge(g, E[0], E[1]) + wedge(g, E[2], E[3])
    assert recover_invariants(spin_rep(rep, block), rep) == pytest.approx(
        (0.0, -1.0), abs=1e-13
    )
    assert recover_invariants(np.zeros_like(rep.identity), rep) == (0.0, 0.0)


def test_recover_invariants_random(g, rep):
    # the invariant-recovery selftest row on seeds 0..39 in one representation
    assert max(_check_recovery(g, (rep,), 0, 40)) < 1e-8


def test_cross_trace_vanishes(g, rep):
    # tighter than the invariant-recovery selftest row's 1e-8
    block = wedge(g, E[0], E[1]) + wedge(g, E[2], E[3])
    assert cross_trace_check(rep, block) < 1e-12
    for seed in range(30):
        L = random_nonsimple_bivector(g, seed)
        scale = max(1.0, mabs(L.matrix) ** 2)
        assert cross_trace_check(rep, L) < 1e-9 * scale


def test_quad_trace_generator_cases(g, rep):
    assert quad_trace_identity_check(rep, E[0], E[0], E[0], E[0]) < 1e-13
    assert quad_trace_identity_check(rep, E[0], E[1], E[0], E[1]) < 1e-13


def test_quad_trace_random(g, rep):
    rng = np.random.default_rng(41)
    for _ in range(30):
        a, b, u, v = rng.uniform(-1.5, 1.5, (4, 4))
        assert quad_trace_identity_check(rep, a, b, u, v) < 1e-10 * 1.5**4 * 16


def test_quad_trace_last_term_form(g, rep):
    # the identity holds with final term g(a,v) g(b,u); the g(a,v) g(b,v)
    # variant fails already on a=v=e0, b=u=e1
    a, b, u, v = E[0], E[1], E[1], E[0]
    prod = rep.vector(a) @ rep.vector(b) @ rep.vector(u) @ rep.vector(v)
    lhs = float(np.trace(prod).real)
    good = rep.identity_trace * (
        inner(g, a, b) * inner(g, u, v)
        - inner(g, a, u) * inner(g, b, v)
        + inner(g, a, v) * inner(g, b, u)
    )
    bad = rep.identity_trace * (
        inner(g, a, b) * inner(g, u, v)
        - inner(g, a, u) * inner(g, b, v)
        + inner(g, a, v) * inner(g, b, v)
    )
    assert abs(lhs - good) < 1e-13
    assert abs(lhs - bad) == rep.identity_trace  # the variant misses by tr I


def test_factor_planes_orthogonal(g):
    # L+ = a ^ b and L- = u ^ v span fully g-orthogonal planes, so the
    # cross-inner combination g(a,v) g(b,u) - g(a,u) g(b,v) vanishes
    for seed in range(30):
        L = random_nonsimple_bivector(g, seed)
        l_plus, l_minus = orthogonal_decompose(L)
        a, b = wedge_factors(l_plus)
        u, v = wedge_factors(l_minus)
        scale = max(1.0, mabs(L.matrix) ** 2)
        combo = inner(g, a, v) * inner(g, b, u) - inner(g, a, u) * inner(g, b, v)
        assert abs(combo) < 1e-9 * scale
