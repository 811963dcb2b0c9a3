import math
from collections import Counter

import numpy as np
import pytest

from spinlift import (
    Bivector,
    DegenerateDenominatorError,
    InvalidTransformationError,
    LorentzTransformation,
    NotNonsimpleError,
    NotSimpleError,
    SimpleTransformError,
    TracelessSimpleError,
    exp_series,
    exp_spin,
    factor_transform,
    intertwining_defect,
    is_simple_transform,
    lift,
    lift_nonsimple,
    lift_simple,
    log,
    log_simple,
    make_metric,
    orthogonal_decompose,
    random_bivector,
    random_transformation,
    representation,
    spin_rep,
    tr2,
    tr2_transform,
    wedge,
)
from spinlift.cli import _check_homomorphism, run_request
from spinlift.errors import NonFiniteOutputError
from spinlift._linalg import simplicity_defect
from spinlift.group_lift import SIMPLE_CRITERION_TOL, _SPINOR_H, _spinor, _vector_image
from spinlift.sampling import (
    _frame,
    _transformation,
    degenerate_denominator_transformation,
    random_nonsimple_bivector,
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
    boost = _transformation(g, np.random.default_rng(0), rapidity=3.0, angle=1.0)
    with pytest.raises(InvalidTransformationError, match="not proper"):
        LorentzTransformation(parity @ boost.matrix, g)  # improper, in a frame
    with pytest.raises(InvalidTransformationError):
        LorentzTransformation(-np.eye(4), g)  # antichronous


def framed_boost(g, seed, rapidity):
    """sampling's framed boost Q B Q^{-1} of a rapidity, and its generator."""
    q = _frame(np.random.default_rng(seed), 2.0)  # the frame _transformation draws
    k01 = np.zeros((4, 4))
    k01[0, 1] = k01[1, 0] = rapidity
    L = Bivector(q @ k01 @ g.matrix @ q.T @ g.matrix, g)
    return _transformation(g, np.random.default_rng(seed), rapidity=rapidity), L


@pytest.mark.parametrize("sig", ["pmmm", "mppp"])
def test_validation_accepts_large_boosts(sig):
    # det Lam from the spatial cofactor rounds at degree 2 in maxabs(Lam), as its
    # bound does; the 4x4 np.linalg.det refused 3, 7 and 6 of these 10 framed boosts
    # at rapidity 50, 55 and 60 as improper.  At rapidity 300 (entries ~1e130) the
    # cofactor's products of degree 3 would overflow.  test_validation_rejections
    # keeps a moderate improper Lam refused.  Each accepted boost lifts to
    # exp(sigma(L)), signed, within the spinor map's phase error, at most
    # 1.2 u maxabs(Sigma)^2 relative; or lift raises where that phase is lost:
    # all from rapidity 50, and 6 of 10 at rapidity 30.
    g = make_metric(sig)
    rep = representation("gamma", g)
    answered = set()
    for rapidity in (20.0, 30.0, 50.0, 55.0, 60.0, 300.0):
        for seed in range(10):
            lam, L = framed_boost(g, seed, rapidity)
            try:
                sigma = lift(lam, rep)
            except NonFiniteOutputError:
                continue
            answered.add(rapidity)
            ref = exp_spin(L, rep)
            err = mabs(sigma - ref) / mabs(ref)
            assert err <= 4.0 * 2.0**-53 * mabs(sigma) ** 2, (rapidity, seed, err)
    assert answered == {20.0, 30.0}


@pytest.mark.parametrize("sig", ["pmmm", "mppp"])
def test_spinor_refuses_lost_phase(sig):
    # closed-form framed boosts whose spinor det A, of modulus 1, carries rounding
    # u maxabs(A)^2 ~ u e^rapidity of its own size or more.  Where it rounds to 0
    # (rapidity 40 seed 7, 50 seeds 3 and 7, 60 seed 4) lift returned an all-NaN
    # Sigma and log raised InvalidBivectorError; where |det A| reads 0.90, 5.9e5
    # or 2.8e114 (37 seed 6, 50 seed 0, 300 seed 0) lift returned a Sigma 0.6 or
    # more off exp(sigma(L)).  Both raise NonFiniteOutputError.
    g = make_metric(sig)
    cases = ((40.0, 7), (50.0, 3), (50.0, 7), (60.0, 4), (37.0, 6), (50.0, 0), (300.0, 0))
    for rapidity, seed in cases:
        lam = _transformation(g, np.random.default_rng(seed), rapidity=rapidity)
        for kind in ("gamma", "regular"):
            with pytest.raises(NonFiniteOutputError, match="det A"):
                lift(lam, representation(kind, g))
        with pytest.raises(NonFiniteOutputError, match="det A"):
            log(lam)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [(0, 0), (1, 2), (3, 3)])
def test_validation_rejects_non_finite(g, value, entry):
    bad = np.eye(4)
    bad[entry] = value
    with pytest.raises(InvalidTransformationError, match="entries must be finite"):
        LorentzTransformation(bad, g)


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


def log_response(lam):
    request = {"command": "log", "metric": lam.metric.signature, "rep": "gamma",
               "tol": SIMPLE_CRITERION_TOL, "matrix": lam.matrix}
    return run_request(request)


def test_log_coefficient_branches(g):
    # the CLI's k_factor, mu and branch for the paper's three simple regimes
    rot = LorentzTransformation(exp_series(wedge(g, E[2], E[3]).matrix), g)
    doc = log_response(rot)
    assert doc["branch"] == "simple/trig"
    assert doc["invariants"]["k_factor"] == pytest.approx(1.0 / math.sin(1.0), abs=1e-12)
    assert doc["invariants"]["mu"] == pytest.approx(-1.0, abs=1e-12)

    boost = LorentzTransformation(exp_series(wedge(g, E[0], E[1]).matrix), g)
    doc = log_response(boost)
    assert doc["branch"] == "simple/hyperbolic"
    assert doc["invariants"]["k_factor"] == pytest.approx(1.0 / math.sinh(1.0), abs=1e-12)
    assert doc["invariants"]["mu"] == pytest.approx(1.0, abs=1e-12)

    null = LorentzTransformation(exp_series(wedge(g, E[0] + E[3], E[1]).matrix), g)
    doc = log_response(null)
    assert doc["branch"] == "simple/null"
    assert doc["invariants"]["k_factor"] == pytest.approx(1.0, abs=1e-12)
    assert doc["invariants"]["mu"] == pytest.approx(0.0, abs=1e-12)


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
        assert mabs(recovered.matrix - L.matrix) < 1e-9
        assert tr2(recovered) == pytest.approx(tr2(L), abs=1e-9)


def test_log_identity_is_zero(g):
    assert mabs(log_simple(LorentzTransformation(np.eye(4), g)).matrix) == 0.0


def test_log_rejections(g):
    with pytest.raises(NotSimpleError):
        log_simple(block_transform(g))


def assert_log_is(L, rel):
    lam = LorentzTransformation(exp_series(L.matrix), L.metric)
    assert is_simple_transform(lam)
    err = mabs(log(lam).matrix - L.matrix) / mabs(L.matrix)
    assert err <= rel, err


@pytest.mark.parametrize("sig", ["pmmm", "mppp"])
def test_log_near_simple(sig):
    # the trace criterion calls both Lam simple, where the simple formula missed L
    # by 5.0e-8 and 1.0e-3 relative; the log is each generator
    g = make_metric(sig)
    b01, b23 = wedge(g, E[0], E[1]), wedge(g, E[2], E[3])
    assert_log_is(0.3 * b01 + 1e-6 * b23, 1e-10)
    assert_log_is(1e-6 * b01 + (math.pi - 1e-3) * b23, 1e-10)


@pytest.mark.parametrize("sig", ["pmmm", "mppp"])
def test_log_rapidity_next_to_half_turn(sig):
    # a rotation by exactly pi next to a tiny boost: no traceless refusal
    g = make_metric(sig)
    L = 1e-5 * wedge(g, E[0], E[1]) + math.pi * wedge(g, E[2], E[3])
    lam = LorentzTransformation(exp_series(L.matrix), g)
    assert is_simple_transform(lam)
    with pytest.raises(SimpleTransformError):  # factor's half of the same Lam
        factor_transform(lam)
    recovered = log_simple(lam)
    assert mabs(exp_series(recovered.matrix) - lam.matrix) <= 1e-14


@pytest.mark.parametrize("sig", ["pmmm", "mppp"])
def test_log_exact_half_turn(sig):
    # tr A = 0: the two logarithms +/- pi b23 have Re tr A = 0 and Im tr A = 0,
    # and the sign rule keeps the spinor map's pick, s = i pi / 2
    g = make_metric(sig)
    lam = LorentzTransformation(np.diag([1.0, 1.0, -1.0, -1.0]), g)
    L = log(lam)
    assert mabs(exp_series(L.matrix) - lam.matrix) <= 1e-14
    assert L.matrix[2, 3] == pytest.approx(-math.pi, abs=1e-15)
    assert tr2(L) == pytest.approx(math.pi**2, abs=1e-14)
    assert mabs(L.matrix[:2]) == 0.0


def framed_grid(g, rapidities, angles):
    """Generators rapidity b01 + angle b23, bare and in two random frames."""
    b01, b23 = wedge(g, E[0], E[1]), wedge(g, E[2], E[3])
    frames = [np.eye(4)] + [random_transformation(g, seed, 0.5).matrix for seed in (1, 2)]
    for rapidity in rapidities:
        for angle in angles:
            L = rapidity * b01 + angle * b23
            for q in frames:
                yield Bivector(q @ L.matrix @ np.linalg.inv(q), g)


# (rapidities, angles) of framed_grid for log and for factor_transform
LOG_GRID = ((0.0, 1e-6, 1e-3, 0.5, 2.0, 8.0, 16.0, 20.0),
            (0.0, 1e-6, 1e-3, 1.0, 2.5, math.pi - 1e-3, math.pi - 1e-6))
FACTOR_GRID = ((1e-3, 0.5, 2.0, 8.0, 14.0, 16.0, 20.0, 25.0),
               (1e-3, 1.0, 2.5, math.pi - 1e-6))


@pytest.mark.parametrize("sig", ["pmmm", "mppp"])
def test_log_grid_backward_error(sig):
    # every Lam answers, and exp(log Lam) is Lam to the bound; the worst reading
    # over both metrics is 2.6e-14, at rapidity 20 and angle 1e-3 in a frame
    g = make_metric(sig)
    count = 0
    for L in framed_grid(g, *LOG_GRID):
        lam = LorentzTransformation(exp_series(L.matrix), g)
        back = exp_series(log(lam).matrix)
        assert mabs(back - lam.matrix) <= 5e-13 * mabs(lam.matrix), L.matrix
        count += 1
    assert count == 168


def test_factor_block_example(g):
    lam = block_transform(g)
    pair = factor_transform(lam)
    boost = exp_series(wedge(g, E[0], E[1]).matrix)
    rot = exp_series(wedge(g, E[2], E[3]).matrix)
    assert mabs(pair.lambda_plus.matrix - boost) < 1e-8
    assert mabs(pair.lambda_minus.matrix - rot) < 1e-8


def test_factor_identities_random(g):
    # the factor-properties selftest row checks the product, the commutator and
    # the factors' simplicity, and both trace identities at 1e-8; these at 1e-9
    for seed in range(40):
        lam = random_nonsimple_transformation(g, seed)
        pair = factor_transform(lam)
        mp, mm = pair.lambda_plus.matrix, pair.lambda_minus.matrix
        t = float(np.trace(lam.matrix))
        t2 = tr2_transform(lam)
        scale = max(1.0, mabs(lam.matrix))
        assert abs(t - 2.0 * (pair.c_plus + pair.c_minus)) < 1e-9 * scale
        assert abs(t2 - (4.0 * pair.c_plus * pair.c_minus + 2.0)) < 1e-9 * scale**2
        assert pair.c_plus >= 1.0 - 1e-9
        assert -1.0 - 1e-9 <= pair.c_minus < 1.0
        assert np.trace(mp) == pytest.approx(2.0 * (1.0 + pair.c_plus), rel=1e-9)
        assert np.trace(mm) == pytest.approx(2.0 * (1.0 + pair.c_minus), abs=1e-8)


def factor_errors(lam, pair):
    """||Lam+ Lam- - Lam|| and ||Lam+ Lam- - Lam- Lam+||, relative to maxabs(Lam)."""
    mp, mm = pair.lambda_plus.matrix, pair.lambda_minus.matrix
    return mabs(mp @ mm - lam.matrix) / lam._maxabs, mabs(mp @ mm - mm @ mp) / lam._maxabs


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sig", ["pmmm", "mppp"])
def test_factor_at_rapidity_16(sig):
    # The cubic in Lam missed Lam by up to 1.7e-9 and, from rapidity 16 on, raised
    # InvalidTransformation on 28 of these 96 valid Lam per metric: its rotation
    # factor carried about u e^rapidity of error on its own scale.  On the block all
    # answer but the 3 at rapidity 1e-3, which the trace criterion calls simple; the
    # worst reading is 3.5e-15.
    g = make_metric(sig)
    answered = 0
    for L in framed_grid(g, *FACTOR_GRID):
        lam = LorentzTransformation(exp_series(L.matrix), g)
        try:
            pair = factor_transform(lam)
        except SimpleTransformError:
            continue
        assert max(factor_errors(lam, pair)) <= 1e-14, L.matrix
        answered += 1
    assert answered == 93


def assert_revalidates(x):
    """x rebuilt through its public constructor passes, with the same matrix,
    maxabs and traces bit for bit."""
    y = type(x)(x.matrix, x.metric)
    assert y.matrix.tobytes() == x.matrix.tobytes()
    assert y._maxabs.hex() == x._maxabs.hex()
    if isinstance(x, LorentzTransformation):
        assert [t.hex() for t in y._traces] == [t.hex() for t in x._traces]


def record_of(monkeypatch):
    """Wrap Bivector._of and LorentzTransformation._of; returns the list of results."""
    made = []
    for cls in (Bivector, LorentzTransformation):
        monkeypatch.setattr(cls, "_of", staticmethod(
            lambda m, metric, of=cls._of: made.append(of(m, metric)) or made[-1]))
    return made


@pytest.mark.parametrize("sig", ["pmmm", "mppp"])
def test_of_results_pass_the_validators(sig, monkeypatch):
    # Bivector._of and LorentzTransformation._of keep the library's own results
    # without the structural checks.  Rebuilt through the public constructors, every
    # one of these passes, which measures the same maxabs and traces bit for bit.
    # 71 of the 200 decompositions are within _PART_BOUND and build their parts by
    # _of; the validator judges the others.
    g = make_metric(sig)
    made = record_of(monkeypatch)
    for seed in range(50):
        traceless_simple_transformation(g, seed)
        for c in (0.3, 1.0, 2.0, 5.0):
            orthogonal_decompose(random_nonsimple_bivector(g, seed, c))
            for kind in ("rotation", "boost", "null"):
                random_wedge(g, seed, kind, c)
            random_nonsimple_transformation(g, seed, c)
            degenerate_denominator_transformation(g, seed, c)
    for L in framed_grid(g, *LOG_GRID):
        log(LorentzTransformation(exp_series(L.matrix), g))
    for L in framed_grid(g, *FACTOR_GRID):
        lam = LorentzTransformation(exp_series(L.matrix), g)
        if not is_simple_transform(lam):
            factor_transform(lam)
    kinds = Counter(type(x) for x in made)
    assert kinds == {Bivector: 200 * 4 + 168 + 71 * 2,
                     LorentzTransformation: 50 + 200 * 2 + 2 * 93}
    for x in made:
        assert_revalidates(x)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sig", ["pmmm", "mppp"])
def test_factor_null_rotations(sig):
    # Exact null rotations at tol = 1e-300, where the trace criterion passes every
    # computed simplicity defect above 0.  The cubic refused 211 of these 600 as not
    # metric-preserving.  Each now answers (367; worst readings 8.6e-14 on the
    # product, 5.3e-12 on the factors' simplicity) or raises SimpleTransformError:
    # the trace criterion, or s = 0 exactly (8, among them seed 14 at scale 0.5).
    g = make_metric(sig)
    answered = 0
    for seed in range(200):
        for scale in (0.5, 1.0, 2.0):
            W = random_wedge(g, seed, kind="null", scale=scale)
            lam = LorentzTransformation(exp_series(W.matrix), g)
            try:
                pair = factor_transform(lam, tol=1e-300)
            except SimpleTransformError:
                continue
            assert max(factor_errors(lam, pair)) <= 1e-12, (seed, scale)
            for f in (pair.lambda_plus, pair.lambda_minus):
                assert simplicity_defect(*f._traces) <= 1e-10 * max(1.0, *f._traces)
                assert_revalidates(f)  # built by _of
            answered += 1
    assert answered == 367
    W = random_wedge(g, 14, kind="null", scale=0.5)
    with pytest.raises(SimpleTransformError, match="s = 0"):
        factor_transform(LorentzTransformation(exp_series(W.matrix), g), tol=1e-300)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sig", ["pmmm", "mppp"])
def test_factor_eps_sweeps(sig):
    # B + eps C across the simple boundary, with factor's own gap gate gone: each Lam
    # the trace criterion passes answers.  At the default tol that gate refused none
    # of these, the trace criterion refusing first; at tol = 1e-300 it refused 2 per
    # metric, which answer now within 4.2e-16.  The cubic missed (b01 + b12) + eps b23
    # by up to 8.5e-11 (2.7e-10 at tol = 1e-300); the worst reading now is 2.1e-15.
    g = make_metric(sig)
    b01, b12, b23 = wedge(g, E[0], E[1]), wedge(g, E[1], E[2]), wedge(g, E[2], E[3])
    answered = 0
    for B in (b01, b23, 2.0 * b01, b01 + b12):
        for C in (b23, b01):
            for eps in np.logspace(-12.0, 0.0, 25):
                lam = LorentzTransformation(exp_series((B + float(eps) * C).matrix), g)
                for tol in (SIMPLE_CRITERION_TOL, 1e-300):
                    try:
                        pair = factor_transform(lam, tol)
                    except SimpleTransformError:
                        continue
                    assert max(factor_errors(lam, pair)) <= 1e-14, (eps, tol)
                    assert_revalidates(pair.lambda_plus)  # both built by _of
                    assert_revalidates(pair.lambda_minus)
                    answered += 1
    assert answered == 36 + 125


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
    sigma = lift_simple(lam, rep)
    expected = math.cosh(0.5) * np.eye(4) + math.sinh(0.5) * (
        rep.vector(E[0]) @ rep.vector(E[1])
    )
    assert mabs(sigma - expected) < 1e-12


def test_lift_simple_sign_coherent_with_exp(g, rep):
    # the wedges' angles stay below pi, so exp_spin gives the principal lift too
    for seed in range(25):
        W = random_wedge(g, seed)
        lam = LorentzTransformation(exp_series(W.matrix), g)
        if float(np.trace(lam.matrix)) <= 1e-6:
            continue
        lifted = lift_simple(lam, rep)
        direct = exp_spin(W, rep)
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
    lifted = lift_nonsimple(lam, rep)
    direct = exp_spin(L, rep)
    assert mabs(lifted - direct) < 1e-8


def test_lift_nonsimple_product_structure(g, rep):
    # the principal lifts of the commuting factors multiply to the principal lift
    for seed in range(20):
        lam = random_nonsimple_transformation(g, seed)
        pair = factor_transform(lam)
        whole = lift_nonsimple(lam, rep)
        split = lift_simple(pair.lambda_plus, rep) @ lift_simple(pair.lambda_minus, rep)
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
    assert mabs(sigma - ref) <= 1e-14 * mabs(ref)
    with pytest.raises(NotNonsimpleError):  # the public branch keeps its own check
        lift_nonsimple(lam, rep)


@pytest.mark.parametrize("sig", ["pmmm", "mppp"])
def test_lift_simple_keeps_accuracy_guard(sig, rep):
    # A looser tol calls this non-simple Lam simple, but lift keeps the simple
    # closed form, which would miss exp(sigma(L)) by 1.7e-4 relative, off it
    # and answers with the spinor map; the public lift_simple still refuses.
    g = make_metric(sig)
    rep = representation(rep.kind, g)
    L = 0.7 * wedge(g, E[0], E[1]) + 1e-3 * wedge(g, E[2], E[3])
    lam = LorentzTransformation(exp_series(L.matrix), g)
    assert is_simple_transform(lam, 1e-6)
    sigma, branch = lift(lam, rep, tol=1e-6, return_branch=True)
    assert branch == "simple"
    ref = exp_series(spin_rep(rep, L))
    assert mabs(sigma - ref) <= 1e-12 * mabs(ref)
    with pytest.raises(NotSimpleError):
        lift_simple(lam, rep)


def near_simple(g):
    """(generator, tol): one invariant 1e-9 ... 1e-5 next to a larger one, or both
    tiny, at the default tol; and a Lam simple only under a looser tol."""
    b01, b23 = wedge(g, E[0], E[1]), wedge(g, E[2], E[3])
    for eps in np.logspace(-9, -5, 9):
        for angle in (0.5, 1.0, 2.5):
            yield eps * b01 + angle * b23, SIMPLE_CRITERION_TOL
        for rapidity in (0.5, 2.0, 5.0, 8.0, 12.0, 16.0):
            yield rapidity * b01 + eps * b23, SIMPLE_CRITERION_TOL
    for eps in (1e-4, 1e-3):
        yield eps * (b01 + b23), SIMPLE_CRITERION_TOL
    # its trace defect is ~500 times the default bound; the block would be 5e-4 off
    yield 20.0 * b01 + 1e-3 * b23, 1e-6


@pytest.mark.parametrize("sig", ["pmmm", "mppp"])
def test_lift_near_simple_is_accurate(sig, rep):
    # The trace gate calls each Lam simple, and lift_simple's block misses
    # exp(sigma(L)) by about |det A - 1| / 2, up to 2.7e-6 at rapidity 1e-5 next
    # to angle 1 and 5e-6 at angle 1e-5 next to rapidity 16; lift sees that
    # defect, or a tol looser than the default, and takes the spinor map.
    g = make_metric(sig)
    rep = representation(rep.kind, g)
    for L, tol in near_simple(g):
        lam = LorentzTransformation(exp_series(L.matrix), g)
        sigma, branch = lift(lam, rep, tol, return_branch=True)
        assert branch == "simple"
        ref = exp_series(spin_rep(rep, L))
        err = mabs(sigma - ref) / mabs(ref)
        assert err <= 1e-10, (L.matrix[[0, 2], [1, 3]], err)


@pytest.mark.parametrize("sig", ["pmmm", "mppp"])
@pytest.mark.parametrize("rapidity, angle", [(1e-5, 1.0), (1e-6, 2.5), (2.0, 1e-6)])
def test_lift_simple_refuses_near_simple(sig, rep, rapidity, angle):
    # The trace criterion calls each Lam simple, but the block misses det A = 1 by
    # more than BLOCK_DET_TOL, and would miss exp(sigma(L)) by 3.8e-7 to 2.7e-6
    g = make_metric(sig)
    rep = representation(rep.kind, g)
    L = rapidity * wedge(g, E[0], E[1]) + angle * wedge(g, E[2], E[3])
    lam = LorentzTransformation(exp_series(L.matrix), g)
    assert is_simple_transform(lam)
    with pytest.raises(NotSimpleError, match="det A"):
        lift_simple(lam, rep)


def test_lift_special_half_turn():
    # tr A = 0 at a rotation by pi: both lifts +/- gamma_2 gamma_3 are principal, and
    # the sign rule keeps the one it computes, + gamma_2 gamma_3 of exp(pi b23)
    for sig in ("pmmm", "mppp"):
        g = make_metric(sig)
        lam = LorentzTransformation(exp_series(wedge(g, E[2], E[3]).matrix * math.pi), g)
        assert np.trace(lam.matrix) == pytest.approx(0.0, abs=1e-12)
        assert mabs(lam.matrix @ lam.matrix - np.eye(4)) < 1e-10
        p = 0.5 * (np.eye(4) - lam.matrix)
        assert mabs(p @ p - p) < 1e-10
        assert np.trace(p) == pytest.approx(2.0, abs=1e-10)
        for kind in ("gamma", "regular"):
            rep = representation(kind, g)
            sigma, branch = lift(lam, rep, return_branch=True)
            assert branch == "special/traceless"
            assert mabs(sigma - rep.vector(E[2]) @ rep.vector(E[3])) < 1e-12
            assert intertwining_defect(sigma, lam, rep) < 1e-10


def sampled_lifts(sampler, rep):
    """Lifts of seeds 0-39 of a sampler, in both metrics, in rep's kind."""
    for sig in ("pmmm", "mppp"):
        g = make_metric(sig)
        rep_g = representation(rep.kind, g)
        for seed in range(40):
            lam = sampler(g, seed)
            yield lam, rep_g, lift(lam, rep_g, return_branch=True)


def test_lift_special_random_planes(rep):
    for lam, rep_g, (sigma, branch) in sampled_lifts(traceless_simple_transformation, rep):
        assert branch == "special/traceless"
        assert intertwining_defect(sigma, lam, rep_g) <= 1e-13


def test_lift_nonsimple_special(rep):
    sampler = degenerate_denominator_transformation
    for lam, rep_g, (sigma, branch) in sampled_lifts(sampler, rep):
        assert branch == "nonsimple/special"
        assert intertwining_defect(sigma, lam, rep_g) <= 1e-13
    # squaring consistency, sign-blind: Sigma(Lam)^2 intertwines for Lam^2
    lam = sampler(make_metric(), 11)
    sigma = lift(lam, rep)
    assert intertwining_defect(sigma @ sigma, lam @ lam, rep) < 1e-7


def test_lift_agrees_with_paper_nonsimple(rep):
    # The paper's non-simple formula referees the spinor map that lift uses, sign
    # included, wherever its denominator clears the gate: there lift's label is
    # "nonsimple".  Scales 0.5-5, seeds 0-39, both metrics: worst 1.6e-13.
    answered = 0
    for sig in ("pmmm", "mppp"):
        g = make_metric(sig)
        rep_g = representation(rep.kind, g)
        for scale in (0.5, 1.0, 2.0, 5.0):
            for seed in range(40):
                lam = random_nonsimple_transformation(g, seed, scale)
                sigma, branch = lift(lam, rep_g, return_branch=True)
                try:
                    ref = lift_nonsimple(lam, rep_g)
                except DegenerateDenominatorError:
                    assert branch == "nonsimple/special"
                    continue
                answered += 1
                assert branch == "nonsimple"
                assert mabs(sigma - ref) <= 1e-12 * mabs(ref)
    assert answered >= 300  # 308 of 320


def principal_draws(g):
    """The samplers' non-simple transformations and wedge exponentials, seeds 0-39
    at each scale; at scale 5 a wedge's rapidity or angle reaches 67."""
    for scale in (0.5, 1.0, 2.0, 5.0):
        for seed in range(40):
            yield random_nonsimple_transformation(g, seed, scale)
            W = random_wedge(g, seed, scale=scale)
            yield LorentzTransformation(exp_series(W.matrix), g)


@pytest.mark.parametrize("sig", ["pmmm", "mppp"])
def test_lift_is_principal(sig, rep):
    # lift(Lam) = exp_spin(log(Lam)), signed.  Worst reading relative to
    # maxabs(Sigma): 7.5e-13, a wedge exponential at scale 5 whose exp_series Lam
    # is off the group by its rounding.
    g = make_metric(sig)
    rep = representation(rep.kind, g)
    refused = 0
    for lam in principal_draws(g):
        try:
            sigma = lift(lam, rep)
        except NonFiniteOutputError:  # boosts of rapidity past ~30: no phase left
            with pytest.raises(NonFiniteOutputError):
                log(lam)
            refused += 1
            continue
        assert mabs(sigma - exp_spin(log(lam), rep)) <= 1e-11 * mabs(sigma)
    assert refused <= 16  # 9 of 320, all wedges at scale 5


@pytest.mark.parametrize("sig", ["pmmm", "mppp"])
def test_lift_large_frames(sig, rep):
    # exp(F g) with F's entries in [-8, 8]: entries of Lam reach ~4e3.
    g = make_metric(sig)
    rep = representation(rep.kind, g)
    for seed in range(40):
        L = random_bivector(g, seed, 8.0)
        sigma = lift(random_transformation(g, seed, 8.0), rep)
        ref = exp_series(spin_rep(rep, L))
        # tr Sigma is a positive multiple of Re tr A: where L turns by more than
        # pi, the principal lift is -exp(sigma(L))
        if np.trace(ref).real < 0.0:
            ref = -ref
        assert mabs(sigma - ref) <= 1e-11 * mabs(ref), seed


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
    # A rotation by pi times a boost of rapidity 1e-5 or 1e-4: the plane
    # projector of the rotation factor falls short of numerical rank 2, which
    # the spinor map never looks at.  At rapidity 1e-5 the simplicity defect
    # 4e-10 is within the default tol, so Lam counts as simple and traceless.
    for rapidity, expected in ((1e-5, "special/traceless"), (1e-4, "nonsimple/special")):
        L = rapidity * wedge(g, E[0], E[1]) + math.pi * wedge(g, E[2], E[3])
        lam = LorentzTransformation(exp_series(L.matrix), g)
        sigma, branch = lift(lam, rep, return_branch=True)
        assert branch == expected
        ref = exp_series(spin_rep(rep, L))
        assert min(mabs(sigma - ref), mabs(sigma + ref)) <= 1e-12 * mabs(ref)


def gate_sweep(g, frame):
    """(category, generator) on both sides of the lift gates, moved by a frame."""
    b01, b23 = wedge(g, E[0], E[1]), wedge(g, E[2], E[3])
    q = random_transformation(g, 3, frame).matrix

    def moved(L):
        return Bivector(q @ L.matrix @ np.linalg.inv(q), g)

    for eps in np.logspace(-12, -1, 23):
        yield "pi-eps", moved((math.pi - eps) * b23)
        yield "rapidity-eps-pi", moved(eps * b01 + math.pi * b23)
        for b in (0.05, 0.5, 2.0):
            yield f"boost-{b}-pi-eps", moved(b * b01 + (math.pi - eps) * b23)
    for rapidity in (8.0, 12.0):
        yield "boost", moved(rapidity * b01)
    if frame == 0.0:  # in a frame the rounding of Lam alone costs more than 1e-11
        for rapidity in (20.0, 24.0):
            yield "large-rapidity", rapidity * b01


@pytest.mark.parametrize("frame", [0.0, 0.5])
@pytest.mark.parametrize("sig", ["pmmm", "mppp"])
def test_lift_gate_sweep(sig, frame, rep):
    # exp_spin's closed forms are the referee; tol=0 keeps a tiny rapidity
    # next to a half-turn out of its simple branch.
    g = make_metric(sig)
    rep = representation(rep.kind, g)
    branches = {}
    for category, L in gate_sweep(g, frame):
        lam = LorentzTransformation(exp_series(L.matrix), g)
        sigma, branch = lift(lam, rep, return_branch=True)
        branches.setdefault(category, set()).add(branch)
        ref = exp_spin(L, rep, tol=0.0)
        err = min(mabs(sigma - ref), mabs(sigma + ref)) / mabs(ref)
        assert err <= 1e-11, (category, branch, err)
    # each sweep crosses its gate; boosts keep the simple formula, and the
    # rapidity-20/24 ones, classified non-simple, fall below the relative gate
    assert branches["pi-eps"] == {"simple", "special/traceless"}
    assert branches["rapidity-eps-pi"] == {"special/traceless", "nonsimple/special"}
    for b in (0.05, 0.5, 2.0):
        assert branches[f"boost-{b}-pi-eps"] == {"nonsimple", "nonsimple/special"}
    assert branches["boost"] == {"simple"}
    assert branches.get("large-rapidity", {"nonsimple/special"}) == {"nonsimple/special"}


PAULI = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


@pytest.mark.parametrize("seed", range(20))
def test_spinor_roundtrip(seed):
    # Lam(A)^m_n = tr(s_m A s_n A^H) / 2 is proper orthochronous, and the
    # spinor map gives back the one of +-A with (Re tr A, Im tr A) >= (0, 0).
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    a = a / np.sqrt(np.linalg.det(a))
    lam = np.einsum("mij,jk,nkl,li->mn", PAULI, a, PAULI, a.conj().T).real / 2.0
    for sig in ("pmmm", "mppp"):
        LorentzTransformation(lam, make_metric(sig))
    tr = np.trace(a)
    principal = -a if (tr.real, tr.imag) < (0.0, 0.0) else a
    assert mabs(_spinor(lam) - principal) <= 1e-13 * mabs(a)


@pytest.mark.parametrize("sig", ["pmmm", "mppp"])
def test_spinor_inverse_map(sig):
    # _SPINOR_H is exactly unitary, so Lam(A) = Re(_SPINOR_H^H vec H) inverts the
    # spinor map; factor_transform maps its blocks back by it.  The worst reading of
    # |Lam(A(Lam)) - Lam| is 9.3 u maxabs(Lam).
    g = make_metric(sig)
    assert np.array_equal(_SPINOR_H.conj().T @ _SPINOR_H, np.eye(16))
    for scale in (0.5, 1.0, 2.0, 5.0):
        for seed in range(50):
            lam = random_nonsimple_transformation(g, seed, scale).matrix
            assert mabs(_vector_image(_spinor(lam)) - lam) <= 16 * 2.0**-53 * mabs(lam)


def test_lift_homomorphism_pairs(g, rep):
    # the homomorphism-pairs selftest row on ten pairs in one representation
    assert max(_check_homomorphism(g, (rep,), 0, 10)) < 1e-7
