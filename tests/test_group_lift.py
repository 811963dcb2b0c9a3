import math

import numpy as np
import pytest

from spinlift import (
    DegenerateDenominatorError,
    InvalidTransformationError,
    LorentzTransformation,
    NotNonsimpleError,
    NotSimpleError,
    NotTracelessError,
    RankDeficiencyError,
    SimpleTransformError,
    TracelessSimpleError,
    exp_series,
    exp_spin,
    factor_transform,
    intertwining_defect,
    is_simple_transform,
    lift,
    lift_nonsimple,
    lift_nonsimple_special,
    lift_simple,
    lift_special,
    log_simple,
    make_metric,
    representation,
    sign_normalize,
    simple_log_coefficients,
    spin_rep,
    tr2,
    tr2_transform,
    wedge,
)
from spinlift.sampling import (
    degenerate_denominator_transformation,
    random_nonsimple_transformation,
    random_wedge,
    traceless_simple_transformation,
)

E = np.eye(4)


def mabs(m):
    return float(np.abs(np.asarray(m)).max())


def block_transform(g, a=1.0, b=1.0):
    L = a * wedge(g, E[0], E[1]) + b * wedge(g, E[2], E[3])
    return LorentzTransformation(exp_series(L.matrix), g)


def test_validation_accepts_exponentials(g):
    for seed in range(10):
        lam = random_nonsimple_transformation(g, seed)
        assert mabs(lam.matrix.T @ g.matrix @ lam.matrix - g.matrix) < 1e-9


def test_validation_rejections(g):
    with pytest.raises(InvalidTransformationError):
        LorentzTransformation(2.0 * np.eye(4), g)  # not metric-preserving
    parity = np.diag([1.0, -1.0, -1.0, -1.0])
    with pytest.raises(InvalidTransformationError):
        LorentzTransformation(parity, g)  # improper, det = -1
    with pytest.raises(InvalidTransformationError):
        LorentzTransformation(-np.eye(4), g)  # antichronous


def test_inverse_exact(g):
    lam = block_transform(g, 0.7, 1.2)
    assert mabs(lam.matrix @ lam.inverse() - np.eye(4)) < 1e-14


def test_composition(g):
    a = block_transform(g, 0.5, 0.0)
    b = block_transform(g, 0.0, 0.9)
    assert mabs((a @ b).matrix - a.matrix @ b.matrix) == 0.0


def test_tr2_transform_frozen(g):
    eye = LorentzTransformation(np.eye(4), g)
    assert tr2_transform(eye) == 6.0
    quarter = LorentzTransformation(
        exp_series(wedge(g, E[2], E[3]).matrix * (math.pi / 2.0)), g
    )
    assert tr2_transform(quarter) == pytest.approx(2.0, abs=1e-12)
    boost = LorentzTransformation(exp_series(wedge(g, E[0], E[1]).matrix), g)
    expected = 0.5 * ((2.0 + 2.0 * math.cosh(1.0)) ** 2 - (2.0 + 2.0 * math.cosh(2.0)))
    assert tr2_transform(boost) == pytest.approx(expected, abs=1e-12)


def test_is_simple_transform_frozen(g):
    assert is_simple_transform(LorentzTransformation(np.eye(4), g))
    rot = LorentzTransformation(exp_series(wedge(g, E[2], E[3]).matrix), g)
    assert is_simple_transform(rot)
    assert not is_simple_transform(block_transform(g))


def test_log_coefficient_branches(g):
    rot = LorentzTransformation(exp_series(wedge(g, E[2], E[3]).matrix), g)
    k, mu, kind = simple_log_coefficients(rot)
    assert kind == "trig"
    assert k == pytest.approx(1.0 / math.sin(1.0), abs=1e-12)
    assert mu == pytest.approx(-1.0, abs=1e-12)

    boost = LorentzTransformation(exp_series(wedge(g, E[0], E[1]).matrix), g)
    k, mu, kind = simple_log_coefficients(boost)
    assert kind == "hyperbolic"
    assert k == pytest.approx(1.0 / math.sinh(1.0), abs=1e-12)
    assert mu == pytest.approx(1.0, abs=1e-12)

    null = LorentzTransformation(exp_series(wedge(g, E[0] + E[3], E[1]).matrix), g)
    k, mu, kind = simple_log_coefficients(null)
    assert kind == "parabolic"
    assert (k, mu) == (1.0, 0.0)


def test_log_simple_roundtrips(g):
    cases = [
        wedge(g, E[2], E[3]) * 1.0,
        wedge(g, E[0], E[1]) * 1.0,
        wedge(g, E[0] + E[3], E[1]) * 0.8,  # parabolic null rotation
        wedge(g, E[2], E[3]) * (math.pi - 1e-3),  # rotation with trace near 0+
    ]
    for L in cases:
        lam = LorentzTransformation(exp_series(L.matrix), g)
        recovered = log_simple(lam)
        assert mabs(exp_series(recovered.matrix) - lam.matrix) < 1e-8
    # away from the angle cut the bivector itself comes back
    for L in cases[:3]:
        lam = LorentzTransformation(exp_series(L.matrix), g)
        recovered = log_simple(lam)
        assert mabs(recovered.matrix - L.matrix) < 1e-9
        _, mu, _ = simple_log_coefficients(lam)
        assert tr2(recovered) == pytest.approx(-mu, abs=1e-9)


def test_log_identity_is_zero(g):
    assert mabs(log_simple(LorentzTransformation(np.eye(4), g)).matrix) == 0.0


def test_log_rejections(g):
    with pytest.raises(NotSimpleError):
        log_simple(block_transform(g))
    half_turn = LorentzTransformation(
        exp_series(wedge(g, E[2], E[3]).matrix * math.pi), g
    )
    with pytest.raises(TracelessSimpleError):
        log_simple(half_turn)


def test_factor_block_example(g):
    lam = block_transform(g)
    pair = factor_transform(lam)
    boost = exp_series(wedge(g, E[0], E[1]).matrix)
    rot = exp_series(wedge(g, E[2], E[3]).matrix)
    assert mabs(pair.lambda_plus.matrix - boost) < 1e-8
    assert mabs(pair.lambda_minus.matrix - rot) < 1e-8


def test_factor_identities_random(g):
    for seed in range(40):
        lam = random_nonsimple_transformation(g, seed)
        pair = factor_transform(lam)
        mp, mm = pair.lambda_plus.matrix, pair.lambda_minus.matrix
        t = float(np.trace(lam.matrix))
        t2 = tr2_transform(lam)
        scale = max(1.0, mabs(lam.matrix))
        assert mabs(mp @ mm - lam.matrix) < 1e-8 * scale
        assert mabs(mp @ mm - mm @ mp) < 1e-8 * scale
        assert is_simple_transform(pair.lambda_plus, 1e-7)
        assert is_simple_transform(pair.lambda_minus, 1e-7)
        assert abs(t - 2.0 * (pair.c_plus + pair.c_minus)) < 1e-9 * scale
        assert abs(t2 - (4.0 * pair.c_plus * pair.c_minus + 2.0)) < 1e-9 * scale**2
        assert pair.c_plus >= 1.0 - 1e-9
        assert -1.0 - 1e-9 <= pair.c_minus < 1.0
        assert np.trace(mp) == pytest.approx(2.0 * (1.0 + pair.c_plus), rel=1e-9)
        assert np.trace(mm) == pytest.approx(2.0 * (1.0 + pair.c_minus), abs=1e-8)


def test_factor_rejects_simple(g):
    rot = LorentzTransformation(exp_series(wedge(g, E[2], E[3]).matrix), g)
    with pytest.raises(SimpleTransformError):
        factor_transform(rot)


def test_lift_simple_identity(g, rep):
    eye = LorentzTransformation(np.eye(4), g)
    assert mabs(lift_simple(eye, rep) - rep.identity) == 0.0


def test_lift_simple_boost_frozen(g):
    rep = representation("gamma", g)
    lam = LorentzTransformation(exp_series(wedge(g, E[0], E[1]).matrix), g)
    sigma = sign_normalize(lift_simple(lam, rep))
    expected = math.cosh(0.5) * np.eye(4) + math.sinh(0.5) * (
        rep.vector(E[0]) @ rep.vector(E[1])
    )
    assert mabs(sigma - expected) < 1e-12


def test_lift_simple_sign_coherent_with_exp(g, rep):
    for seed in range(25):
        W = random_wedge(g, seed)
        lam = LorentzTransformation(exp_series(W.matrix), g)
        if float(np.trace(lam.matrix)) <= 1e-6:
            continue
        lifted = sign_normalize(lift_simple(lam, rep))
        direct = sign_normalize(exp_spin(W, rep))
        assert mabs(lifted - direct) < 1e-9 * max(1.0, mabs(direct))


def test_lift_simple_gates(g, rep):
    with pytest.raises(NotSimpleError):
        lift_simple(block_transform(g), rep)
    half_turn = LorentzTransformation(
        exp_series(wedge(g, E[2], E[3]).matrix * math.pi), g
    )
    with pytest.raises(TracelessSimpleError):
        lift_simple(half_turn, rep)


def test_lift_nonsimple_matches_exp(g, rep):
    for seed in range(25):
        lam = random_nonsimple_transformation(g, seed)
        sigma = lift_nonsimple(lam, rep)
        assert intertwining_defect(sigma, lam, rep) < 1e-8


def test_lift_nonsimple_block_against_exp_spin(g, rep):
    L = wedge(g, E[0], E[1]) + wedge(g, E[2], E[3])
    lam = LorentzTransformation(exp_series(L.matrix), g)
    lifted = sign_normalize(lift_nonsimple(lam, rep))
    direct = sign_normalize(exp_spin(L, rep))
    assert mabs(lifted - direct) < 1e-8


def test_lift_nonsimple_product_structure(g, rep):
    for seed in range(20):
        lam = random_nonsimple_transformation(g, seed)
        pair = factor_transform(lam)
        whole = sign_normalize(lift_nonsimple(lam, rep))
        split = sign_normalize(
            lift_simple(pair.lambda_plus, rep) @ lift_simple(pair.lambda_minus, rep)
        )
        assert mabs(whole - split) < 1e-8 * max(1.0, mabs(whole))


def test_lift_nonsimple_gates(g, rep):
    rot = LorentzTransformation(exp_series(wedge(g, E[2], E[3]).matrix), g)
    with pytest.raises(NotNonsimpleError):
        lift_nonsimple(rot, rep)
    degenerate = degenerate_denominator_transformation(g, 5)
    assert abs(2.0 + 2.0 * np.trace(degenerate.matrix) + tr2_transform(degenerate)) < 1e-8
    with pytest.raises(DegenerateDenominatorError):
        lift_nonsimple(degenerate, rep)


@pytest.mark.parametrize("sig", ["pmmm", "mppp"])
def test_lift_tol_reaches_branch(sig, rep):
    # expm(b01 + 1e-5 b23) is simple at the default tol, not at 1e-13.  The
    # non-simple branch lift picks at 1e-13 takes that decision and is accurate.
    g = make_metric(sig)
    rep = representation(rep.kind, g)
    L = wedge(g, E[0], E[1]) + 1e-5 * wedge(g, E[2], E[3])
    lam = LorentzTransformation(exp_series(L.matrix), g)
    assert lift(lam, rep, return_branch=True)[1] == "simple"
    sigma, branch = lift(lam, rep, tol=1e-13, return_branch=True)
    assert branch == "nonsimple"
    ref = exp_series(spin_rep(rep, L))
    assert min(mabs(sigma - ref), mabs(sigma + ref)) <= 1e-14 * mabs(ref)
    with pytest.raises(NotNonsimpleError):  # the public branch keeps its own check
        lift_nonsimple(lam, rep)


@pytest.mark.parametrize("sig", ["pmmm", "mppp"])
def test_lift_simple_keeps_accuracy_guard(sig, rep):
    # A looser tol does not force the simple closed form onto this non-simple
    # Lam, on which it would miss exp(sigma(L)) by 1.7e-4 relative.
    g = make_metric(sig)
    rep = representation(rep.kind, g)
    L = 0.7 * wedge(g, E[0], E[1]) + 1e-3 * wedge(g, E[2], E[3])
    lam = LorentzTransformation(exp_series(L.matrix), g)
    assert is_simple_transform(lam, 1e-6)
    with pytest.raises(NotSimpleError):
        lift(lam, rep, tol=1e-6)


def test_lift_special_half_turn(g):
    rep = representation("gamma", g)
    lam = LorentzTransformation(exp_series(wedge(g, E[2], E[3]).matrix * math.pi), g)
    assert np.trace(lam.matrix) == pytest.approx(0.0, abs=1e-12)
    assert mabs(lam.matrix @ lam.matrix - np.eye(4)) < 1e-10
    p = 0.5 * (np.eye(4) - lam.matrix)
    assert mabs(p @ p - p) < 1e-10
    assert np.trace(p) == pytest.approx(2.0, abs=1e-10)
    sigma = sign_normalize(lift_special(lam, rep))
    g2g3 = sign_normalize(rep.vector(E[2]) @ rep.vector(E[3]))
    assert mabs(sigma - g2g3) < 1e-12
    assert intertwining_defect(sigma, lam, rep) < 1e-10


def test_lift_special_random_planes(g, rep):
    for seed in range(15):
        lam = traceless_simple_transformation(g, seed)
        sigma = lift_special(lam, rep)
        assert intertwining_defect(sigma, lam, rep) < 1e-7


def test_lift_special_gates(g, rep):
    eye = LorentzTransformation(np.eye(4), g)
    with pytest.raises(NotTracelessError):
        lift_special(eye, rep)
    with pytest.raises(NotSimpleError):
        lift_special(block_transform(g), rep)


def test_lift_nonsimple_special(g, rep):
    for seed in range(10):
        lam = degenerate_denominator_transformation(g, seed)
        sigma = lift_nonsimple_special(lam, rep)
        assert intertwining_defect(sigma, lam, rep) < 1e-7
    # squaring consistency, sign-blind: Sigma(Lam)^2 intertwines for Lam^2
    lam = degenerate_denominator_transformation(g, 11)
    sigma = lift_nonsimple_special(lam, rep)
    assert intertwining_defect(sigma @ sigma, lam @ lam, rep) < 1e-7


def test_lift_dispatch_branches(g, rep):
    boost = LorentzTransformation(exp_series(wedge(g, E[0], E[1]).matrix), g)
    _, branch = lift(boost, rep, return_branch=True)
    assert branch == "simple"
    half_turn = LorentzTransformation(
        exp_series(wedge(g, E[2], E[3]).matrix * math.pi), g
    )
    _, branch = lift(half_turn, rep, return_branch=True)
    assert branch == "special/traceless"
    _, branch = lift(block_transform(g), rep, return_branch=True)
    assert branch == "nonsimple"
    _, branch = lift(degenerate_denominator_transformation(g, 3), rep, return_branch=True)
    assert branch == "nonsimple/special"


def test_lift_rank_deficiency(g, rep):
    # A rotation by pi times a boost of rapidity 1e-5: the plane projector of
    # the rotation factor falls short of numerical rank 2, and the lift raises
    # a typed error.  At rapidity 1e-4 the same branch lifts accurately.
    def boosted_half_turn(rapidity):
        L = rapidity * wedge(g, E[0], E[1]) + math.pi * wedge(g, E[2], E[3])
        return LorentzTransformation(exp_series(L.matrix), g)

    with pytest.raises(RankDeficiencyError):
        lift(boosted_half_turn(1e-5), rep)
    lam = boosted_half_turn(1e-4)
    sigma, branch = lift(lam, rep, return_branch=True)
    assert branch == "nonsimple/special"
    assert intertwining_defect(sigma, lam, rep) < 1e-12


def test_lift_homomorphism_pairs(g, rep):
    for seed in range(10):
        lam1 = random_nonsimple_transformation(g, 2 * seed)
        lam2 = random_nonsimple_transformation(g, 2 * seed + 1)
        sigma = lift(lam1, rep) @ lift(lam2, rep)
        assert intertwining_defect(sigma, lam1 @ lam2, rep) < 1e-7


def test_sign_normalize():
    m = np.array([[0.5, -2.0], [1.0, 0.0]])
    fixed = sign_normalize(m)
    assert fixed[0, 1] == 2.0  # largest-modulus entry made positive
    assert np.array_equal(sign_normalize(fixed), fixed)
    imag = np.array([[1e-15 - 1.0j, 0.0], [0.0, 0.5]])
    assert sign_normalize(imag)[0, 0].imag == 1.0
    zero = np.zeros((2, 2))
    assert np.array_equal(sign_normalize(zero), zero)
