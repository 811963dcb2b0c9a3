import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spinlift import (
    Bivector,
    InvalidBivectorError,
    lie_bracket_check,
    make_metric,
    random_bivector,
    representation,
    spin_rep,
    wedge,
)
from spinlift._linalg import SKEW_TOL, maxabs
from spinlift.clifford import _PAIR_INDEX, Representation, _weyl_tables
from spinlift.sampling import random_nonsimple_bivector, random_wedge

E = np.eye(4)


def mabs(m):
    return float(np.abs(np.asarray(m)).max())


def blade_sign(s, t, diag):
    """Sign of e_S e_T = sign e_{S xor T}: sort the generator word, contract repeats."""
    word = [i for i in range(4) if s >> i & 1] + [i for i in range(4) if t >> i & 1]
    sign = 1.0
    for end in range(len(word) - 1, 0, -1):  # bubble sort, one flip per swap
        for k in range(end):
            if word[k] > word[k + 1]:
                word[k], word[k + 1] = word[k + 1], word[k]
                sign = -sign
    for i in set(word):
        if word.count(i) == 2:  # adjacent once sorted: e_i e_i = g_ii
            sign *= diag[i]
    return sign


@pytest.mark.parametrize("tag", ["pmmm", "mppp"])
@pytest.mark.parametrize("kind", ["gamma", "regular"])
def test_blade_table_is_multiplicative(tag, kind):
    # rho(e_S) rho(e_T) = sign(S, T) rho(e_{S xor T}) for all 256 blade pairs, exactly
    g = make_metric(tag)
    blades = representation(kind, g).blades
    diag = np.diagonal(g.matrix)
    for s in range(16):
        for t in range(16):
            expected = blade_sign(s, t, diag) * blades[s ^ t]
            assert mabs(blades[s] @ blades[t] - expected) == 0.0


def test_regular_rep_scalar_is_identity(g):
    reg = representation("regular", g)
    assert np.array_equal(reg.identity, np.eye(16))


def test_regular_rep_vector_squares(g):
    reg = representation("regular", g)
    r0, r1 = reg.vector(E[0]), reg.vector(E[1])
    assert mabs(r0 @ r0 - np.eye(16)) == 0.0
    assert mabs(r1 @ r1 + np.eye(16)) == 0.0
    # signed permutation: one entry of modulus 1 per column
    assert np.array_equal(np.sort(np.abs(r0), axis=0)[-1], np.ones(16))
    assert np.count_nonzero(r0) == 16


def test_gamma_time_matrix(g):
    gamma = representation("gamma", g)
    assert np.array_equal(gamma.vector(E[0]), np.diag([1.0, 1.0, -1.0, -1.0]))


def test_gamma_squares(g):
    gamma = representation("gamma", g)
    g0, g1 = gamma.vector(E[0]), gamma.vector(E[1])
    assert mabs(g1 @ g1 + np.eye(4)) == 0.0
    g0g1 = g0 @ g1 + g1 @ g0
    assert mabs(g0g1) == 0.0


@pytest.mark.parametrize("tag", ["pmmm", "mppp"])
@pytest.mark.parametrize("kind", ["gamma", "regular"])
def test_clifford_relation_all_pairs(tag, kind):
    g = make_metric(tag)
    rep = representation(kind, g)
    for a in range(4):
        for b in range(4):
            ra, rb = rep.vector(E[a]), rep.vector(E[b])
            anti = ra @ rb + rb @ ra
            assert mabs(anti - 2.0 * g.matrix[a, b] * rep.identity) < 1e-12


def test_rep_metadata(g):
    gamma = representation("gamma", g)
    reg = representation("regular", g)
    assert gamma.dim == 4 and gamma.identity_trace == 4.0 and gamma.is_complex
    assert reg.dim == 16 and reg.identity_trace == 16.0 and not reg.is_complex


def test_spin_rep_wedge_is_quarter_commutator(g, rep):
    rng = np.random.default_rng(23)
    for _ in range(20):
        u = rng.uniform(-1.5, 1.5, 4)
        v = rng.uniform(-1.5, 1.5, 4)
        ru, rv = rep.vector(u), rep.vector(v)
        expected = 0.25 * (ru @ rv - rv @ ru)
        assert mabs(spin_rep(rep, wedge(g, u, v)) - expected) < 1e-12


def test_spin_rep_frozen_gamma(g):
    rep = representation("gamma", g)
    s = spin_rep(rep, wedge(g, E[0], E[1]))
    half_g0g1 = 0.5 * rep.vector(E[0]) @ rep.vector(E[1])
    assert mabs(s - half_g0g1) == 0.0
    assert mabs(s @ s - 0.25 * np.eye(4)) == 0.0  # tr2 = -1, so square is +1/4


def test_spin_rep_zero_and_linear(g, rep):
    zero = Bivector(np.zeros((4, 4)), g)
    assert mabs(spin_rep(rep, zero)) == 0.0
    l1 = random_bivector(g, 31)
    l2 = random_bivector(g, 32)
    lhs = spin_rep(rep, 2.0 * l1 - 0.5 * l2)
    rhs = 2.0 * spin_rep(rep, l1) - 0.5 * spin_rep(rep, l2)
    assert mabs(lhs - rhs) < 1e-12


def test_infinitesimal_intertwining(g, rep):
    # [sigma(L), rho(u)] = rho(L u): the defining property of the spin map
    rng = np.random.default_rng(24)
    for seed in range(25):
        L = random_bivector(g, seed)
        u = rng.uniform(-1.0, 1.0, 4)
        s = spin_rep(rep, L)
        ru = rep.vector(u)
        assert mabs(s @ ru - ru @ s - rep.vector(L.matrix @ u)) < 1e-10


def test_lie_bracket_homomorphism(g, rep):
    l1 = wedge(g, E[0], E[1])
    assert lie_bracket_check(rep, l1, l1) == 0.0
    assert lie_bracket_check(rep, l1, wedge(g, E[1], E[2])) < 1e-10
    for seed in range(15):
        a = random_bivector(g, 2 * seed)
        b = random_bivector(g, 2 * seed + 1)
        scale = max(1.0, mabs(a.matrix) * mabs(b.matrix))
        assert lie_bracket_check(rep, a, b) < 1e-10 * scale


def test_spin_rep_rejects_non_bivector(g, rep):
    class Fake:
        matrix = np.eye(4)
        metric = g

    with pytest.raises(InvalidBivectorError):
        spin_rep(rep, Fake())


@settings(max_examples=300, deadline=None)
@given(
    sig=st.sampled_from(["pmmm", "mppp"]),
    exponent=st.floats(-6.0, 3.0),
    pairs=hnp.arrays(np.float64, 6, elements=st.floats(-1.0, 1.0)),
    noise=hnp.arrays(np.float64, (4, 4), elements=st.floats(-0.5, 0.5)),
    d=st.floats(-0.5, 0.5),
)
@example(sig="mppp", exponent=0.0, pairs=np.ones(6),
         noise=np.full((4, 4), 0.5), d=0.5)  # every entry at the edge
def test_validator_bounds_pair_skewness(sig, exponent, pairs, noise, d):
    # spin_rep reads F = L g^{-1} = L g unchecked: over g = diag(+/-1), F + F^T is
    # L^T g + g L up to the sign of each entry, so the Bivector validator's bound
    # holds for it bit for bit, and maxabs F is the validator's maxabs L.
    g = make_metric(sig)
    f = np.zeros((4, 4))
    f[_PAIR_INDEX] = 10.0**exponent * pairs
    skew = (f - f.T) @ g.matrix
    # a non-skew part up to SKEW_TOL: each entry of E^T g + g E is at most
    # |E_ij| + |E_ji|, and the diagonal (d, -d, 0, 0) keeps the trace exactly 0
    edge = SKEW_TOL * max(1.0, maxabs(skew))
    e = noise.copy()
    np.fill_diagonal(e, 0.0)
    e[0, 0], e[1, 1] = d, -d
    try:
        L = Bivector(skew + edge * e, g)
    except InvalidBivectorError:  # rounding past the edge
        assume(False)
    m, gm = L.matrix, g.matrix
    F = m @ gm
    assert maxabs(F + F.T) == maxabs(m.T @ gm + gm @ m)
    assert maxabs(F + F.T) <= SKEW_TOL * max(1.0, L._maxabs)
    assert maxabs(F) == L._maxabs


@pytest.mark.parametrize("tag", ["pmmm", "mppp"])
def test_weyl_tables_are_built_once_per_signature(tag):
    # a fresh Metric for each request reads the same arrays, as both representations do
    tables = _weyl_tables(make_metric(tag))
    assert all(a is b for a, b in zip(_weyl_tables(make_metric(tag)), tables))
    assert not hasattr(Representation, "_weyl_tables")
    other = _weyl_tables(make_metric("mppp" if tag == "pmmm" else "pmmm"))
    # the pair tables differ in sign only, as F = L g does between the metrics
    assert np.array_equal(other[0], -tables[0])


@pytest.mark.parametrize("tag", ["pmmm", "mppp"])
def test_decompose_identities_on_the_weyl_block(tag):
    # orthogonal_decompose scales X, the Weyl block of sigma(L), by a complex k through
    # J p = (-p23, p13, -p12, p03, -p02, p01) on F = L g's pairs p, whose block is
    # i X: exact on the table of either metric.  It applies J to L's upper entries,
    # p times one sign.  It reads s^2 = -det X as -tr2 L / 4 + i Pf / 2, equal to the
    # block's to rounding.
    g = make_metric(tag)
    table = _weyl_tables(g)[0]  # pairs -> X, row-major
    J = np.diag([-1.0, 1.0, -1.0, 1.0, -1.0, 1.0])[:, ::-1]
    assert np.array_equal(J.T @ table, 1j * table)
    for seed in range(40):
        for L in (random_bivector(g, seed), random_nonsimple_bivector(g, seed),
                  random_wedge(g, seed, "null")):
            x00, x01, x10, x11 = ((L.matrix @ g.matrix)[_PAIR_INDEX] @ table).tolist()
            s2 = complex(-0.25 * L._tr2, 0.5 * L._pf)
            # the worst reads 0.82 u maxabs(L)^2
            assert abs(s2 - (x01 * x10 - x00 * x11)) <= 2 * 2.0**-53 * L._maxabs**2
