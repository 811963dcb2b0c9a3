import math

import mpmath
import numpy as np
import pytest

from spinlift import (
    LorentzTransformation,
    SimpleInputError,
    exp_coefficients,
    exp_series,
    exp_spin,
    exp_spin_factored,
    exp_spin_polynomial,
    exp_spin_simple,
    intertwining_defect,
    make_metric,
    mu_roots,
    orthogonal_decompose,
    representation,
    sin_ratio,
    sinh_ratio,
    spin_rep,
    tr2,
    wedge,
)
from spinlift.sampling import random_nonsimple_bivector, random_wedge

E = np.eye(4)


def mabs(m):
    return float(np.abs(np.asarray(m)).max())


@pytest.mark.parametrize("theta", [1e-3, 1e-4, 1e-5, 1e-8, 1e-12])
def test_small_angle_ratios(theta):
    mpmath.mp.dps = 50
    t = mpmath.mpf(theta)
    sin_ref = float(mpmath.sin(t) / t)
    sinh_ref = float(mpmath.sinh(t) / t)
    assert abs(sin_ratio(theta) - sin_ref) <= 1e-12 * sin_ref
    assert abs(sinh_ratio(theta) - sinh_ref) <= 1e-12 * sinh_ref


def test_ratio_limits_at_zero():
    assert sin_ratio(0.0) == 1.0
    assert sinh_ratio(0.0) == 1.0


def test_exp_coefficients_block_values(g):
    L = wedge(g, E[0], E[1]) + wedge(g, E[2], E[3])
    co = exp_coefficients(mu_roots(L))
    assert co.theta_plus == pytest.approx(0.5, abs=1e-15)
    assert co.theta_minus == pytest.approx(0.5, abs=1e-15)
    assert co.c_bar_plus == pytest.approx(math.cosh(0.5), abs=1e-15)
    assert co.c_bar_minus == pytest.approx(math.cos(0.5), abs=1e-15)
    expected_alpha2 = 0.5 * (math.sinh(0.5) / 0.5) * (math.sin(0.5) / 0.5)
    assert co.alpha[2] == pytest.approx(expected_alpha2, abs=1e-15)
    assert co.alpha[2] == pytest.approx(0.5 * co.s_bar_plus * co.s_bar_minus, abs=1e-12)


def test_exp_simple_boost(g, rep):
    W = wedge(g, E[0], E[1])
    s = spin_rep(rep, W)
    out = exp_spin_simple(s, tr2(W))
    expected = math.cosh(0.5) * rep.identity + 2.0 * math.sinh(0.5) * s
    assert mabs(out - expected) < 1e-14
    assert mabs(out - exp_series(s)) < 1e-13


def test_exp_simple_rotation(g, rep):
    W = wedge(g, E[2], E[3])
    s = spin_rep(rep, W)
    out = exp_spin_simple(s, tr2(W))
    expected = math.cos(0.5) * rep.identity + 2.0 * math.sin(0.5) * s
    assert mabs(out - expected) < 1e-14
    assert mabs(out - exp_series(s)) < 1e-13


def test_exp_simple_null(g, rep):
    W = wedge(g, E[0] + E[3], E[1])
    s = spin_rep(rep, W)
    out = exp_spin_simple(s, tr2(W))
    assert mabs(out - (rep.identity + s)) < 1e-14
    assert mabs(out - exp_series(s)) < 1e-13


def test_exp_simple_zero(g, rep):
    out = exp_spin_simple(np.zeros_like(rep.identity), 0.0)
    assert mabs(out - rep.identity) == 0.0


def test_exp_factored_block_example(g, rep):
    L = wedge(g, E[0], E[1]) + wedge(g, E[2], E[3])
    assert mabs(exp_spin_factored(L, rep) - exp_series(spin_rep(rep, L))) < 1e-10


def test_exp_factored_rejects_simple(g, rep):
    with pytest.raises(SimpleInputError):
        exp_spin_factored(wedge(g, E[0], E[1]), rep)


def test_exp_factored_is_product_of_parts(g, rep):
    for seed in range(25):
        L = random_nonsimple_bivector(g, seed)
        l_plus, l_minus = orthogonal_decompose(L)
        prod = exp_spin_simple(spin_rep(rep, l_plus), tr2(l_plus)) @ exp_spin_simple(
            spin_rep(rep, l_minus), tr2(l_minus)
        )
        scale = max(1.0, mabs(prod))
        assert mabs(exp_spin_factored(L, rep) - prod) < 1e-10 * scale


def test_exp_polynomial_equals_factored(g, rep):
    L = wedge(g, E[0], E[1]) + wedge(g, E[2], E[3])
    assert mabs(exp_spin_polynomial(L, rep) - exp_spin_factored(L, rep)) < 1e-11


def test_exp_polynomial_rejects_simple(g, rep):
    with pytest.raises(SimpleInputError):
        exp_spin_polynomial(wedge(g, E[2], E[3]), rep)


def test_three_way_agreement_random(g, rep):
    # each closed form against the series is the exp-agreement selftest row, at
    # 1e-9; the two closed forms agree to 1e-10
    for seed in range(40):
        L = random_nonsimple_bivector(g, seed)
        factored = exp_spin_factored(L, rep)
        poly = exp_spin_polynomial(L, rep)
        assert mabs(factored - poly) < 1e-10 * max(1.0, mabs(factored))


def test_exp_spin_branch_routing(g, rep):
    _, branch = exp_spin(wedge(g, E[2], E[3]), rep, return_branch=True)
    assert branch == "simple/trig"
    _, branch = exp_spin(wedge(g, E[0], E[1]), rep, return_branch=True)
    assert branch == "simple/hyperbolic"
    _, branch = exp_spin(wedge(g, E[0] + E[3], E[1]), rep, return_branch=True)
    assert branch == "simple/null"
    block = wedge(g, E[0], E[1]) + wedge(g, E[2], E[3])
    _, branch = exp_spin(block, rep, return_branch=True)
    assert branch == "nonsimple/polynomial"


def test_exp_spin_near_degenerate_series(g, rep):
    # both invariants tiny but det above the simplicity cutoff: the eigenvalue
    # gap is too small for the closed forms and the series fallback engages
    c = 0.02
    L = c * wedge(g, E[0], E[1]) + c * wedge(g, E[2], E[3])
    gap = mu_roots(L).mu_plus - mu_roots(L).mu_minus
    assert 0.0 < gap < 1e-3
    out, branch = exp_spin(L, rep, return_branch=True)
    assert branch == "near-degenerate/series"
    series = exp_series(spin_rep(rep, L))
    assert mabs(out - series) <= 1e-14 * mabs(series)


def _metric_rep(sig, kind):
    g = make_metric(sig)
    return g, representation(kind, g)


def _rel_error(out, rep, L):
    series = exp_series(spin_rep(rep, L))
    return mabs(out - series) / mabs(series)


SWEEPS = {
    "b01 + eps b23": lambda b01, b12, b23, eps: b01 + eps * b23,
    "b01 + b12 + eps b23": lambda b01, b12, b23, eps: b01 + b12 + eps * b23,
    "eps (b01 + b23)": lambda b01, b12, b23, eps: eps * (b01 + b23),
}


@pytest.mark.parametrize("family", sorted(SWEEPS))
@pytest.mark.parametrize("sig", ["pmmm", "mppp"])
def test_exp_spin_eps_sweeps(sig, rep, family):
    # Off exact decades, across every label these families reach: near the
    # simple/non-simple gate, near null, and with a vanishing eigenvalue gap.
    g, rep = _metric_rep(sig, rep.kind)
    b01, b12, b23 = (wedge(g, E[a], E[b]) for a, b in ((0, 1), (1, 2), (2, 3)))
    for eps in np.logspace(-12, 0, 49) * 1.37:
        L = SWEEPS[family](b01, b12, b23, eps)
        assert _rel_error(exp_spin(L, rep), rep, L) <= 1e-13, eps


@pytest.mark.parametrize("sig", ["pmmm", "mppp"])
def test_exp_spin_bytes_ignore_tol(sig, rep):
    # tol only names the regime: every label takes the one SL(2,C) exponential,
    # so the output bytes are the same on both sides of each simplicity gate
    g, rep = _metric_rep(sig, rep.kind)
    b01, b12, b23 = (wedge(g, E[a], E[b]) for a, b in ((0, 1), (1, 2), (2, 3)))
    sweep = np.concatenate([np.logspace(-16, 0, 17), np.logspace(-12, 0, 49) * 1.37])
    for family in SWEEPS.values():
        for eps in sweep:
            L = family(b01, b12, b23, eps)
            outs = {exp_spin(L, rep, tol=t).tobytes() for t in (1e-40, 1e-12, 1e-9, 1e-6)}
            assert len(outs) == 1, eps


@pytest.mark.parametrize("sig", ["pmmm", "mppp"])
def test_exp_spin_simple_label_keeps_accuracy(sig, rep):
    # simple at the default tol, yet no wedge: the label stays, and the output,
    # the SL(2,C) exponential's, keeps the part of L that a wedge would drop.  The
    # gate is homogeneous, so a small non-simple L is not labelled simple
    g, rep = _metric_rep(sig, rep.kind)
    b01, b23 = wedge(g, E[0], E[1]), wedge(g, E[2], E[3])
    L = b01 + 1e-5 * b23
    out, branch = exp_spin(L, rep, return_branch=True)
    assert branch == "simple/hyperbolic"
    assert _rel_error(out, rep, L) <= 1e-14
    L = 1e-3 * (b01 + b23)
    out, branch = exp_spin(L, rep, return_branch=True)
    assert not branch.startswith("simple/")
    assert _rel_error(out, rep, L) <= 1e-14


@pytest.mark.parametrize("sig", ["pmmm", "mppp"])
def test_exp_spin_simple_wedges_accurate(sig, rep):
    # every simple label takes cosh(s) I + sinh(s)/s X, accurate on wedges of every
    # causal character and of scale 1e-3 to 4.  Past entries of 2 in X, exp_series
    # itself errs by up to 1.4e-14 here, so the referee there is 30-digit mpmath
    g, rep = _metric_rep(sig, rep.kind)
    wedges = [random_wedge(g, seed, kind=kind) * k
              for seed in range(8) for kind in ("rotation", "boost", "null")
              for k in (1e-3, 1.0, 4.0)]
    wedges += [wedge(g, E[0], E[1]), wedge(g, E[0] + E[3], E[1]),
               0.0 * wedge(g, E[2], E[3])]
    for W in wedges:
        out, branch = exp_spin(W, rep, return_branch=True)
        assert branch.startswith("simple/")
        x = spin_rep(rep, W)
        if mabs(x) <= 2.0:
            assert _rel_error(out, rep, W) <= 1e-14
            continue
        with mpmath.workdps(30):
            ref = np.array(mpmath.expm(mpmath.matrix(x.tolist())).tolist(), dtype=complex)
        assert mabs(out - ref) / mabs(ref) <= 1e-14


@pytest.mark.parametrize("sig", ["pmmm", "mppp"])
def test_exp_spin_tol_reaches_branch(sig, rep):
    # b01 + 1e-5 b23 is simple at the default tol, not at 1e-12.  The branch
    # exp_spin picks at 1e-12 takes that decision and is accurate there.
    g = make_metric(sig)
    rep = representation(rep.kind, g)
    L = wedge(g, E[0], E[1]) + 1e-5 * wedge(g, E[2], E[3])
    assert exp_spin(L, rep, return_branch=True)[1] == "simple/hyperbolic"
    out, branch = exp_spin(L, rep, tol=1e-12, return_branch=True)
    assert branch == "nonsimple/polynomial"
    series = exp_series(spin_rep(rep, L))
    assert mabs(out - series) <= 1e-14 * mabs(series)
    with pytest.raises(SimpleInputError):  # the public branch keeps its own check
        exp_spin_polynomial(L, rep)


def test_exp_spin_group_intertwining(g, rep):
    # exp(sigma(L)) conjugates vectors exactly as exp(L) transforms them
    for seed in range(20):
        L = random_nonsimple_bivector(g, seed)
        sigma = exp_spin(L, rep)
        lam = LorentzTransformation(exp_series(L.matrix), g)
        assert intertwining_defect(sigma, lam, rep) < 1e-8
    for seed in range(12):
        W = random_wedge(g, seed)
        sigma = exp_spin(W, rep)
        lam = LorentzTransformation(exp_series(W.matrix), g)
        assert intertwining_defect(sigma, lam, rep) < 1e-8
