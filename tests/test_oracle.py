import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spinlift import (
    LorentzTransformation,
    SingularSigmaError,
    SpinLiftError,
    exp_series,
    intertwining_defect,
    lift,
    make_metric,
    random_bivector,
    random_transformation,
    representation,
    spin_rep,
    wedge,
)
from spinlift._linalg import SERIES_TERM_TOL, _COND_LIMIT, maxabs
from spinlift.oracle import _SUM_BOUND
from spinlift.sampling import (_transformation, random_nonsimple_transformation,
                               random_wedge)

E = np.eye(4)

# tools/bitcompare.py's near-limit Sigma family, shared so that its parity run and
# these identity tests cover the same matrices
_spec = importlib.util.spec_from_file_location(
    "bitcompare", Path(__file__).resolve().parents[1] / "tools" / "bitcompare.py")
bitcompare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bitcompare)


def mabs(m):
    return float(np.abs(np.asarray(m)).max())


def test_exp_zero():
    assert np.array_equal(exp_series(np.zeros((4, 4))), np.eye(4))


def test_exp_quarter_turn(g):
    m = exp_series(wedge(g, E[2], E[3]).matrix * (math.pi / 2.0))
    expected = np.eye(4)
    expected[2:, 2:] = [[0.0, -1.0], [1.0, 0.0]]
    assert mabs(m - expected) < 1e-14
    assert np.trace(m) == pytest.approx(2.0, abs=1e-14)


def test_exp_diagonal():
    m = exp_series(np.diag([1.0, 2.0, 3.0, 4.0]))
    assert mabs(m - np.diag(np.exp([1.0, 2.0, 3.0, 4.0]))) < 1e-13 * math.exp(4.0)


def test_exp_boost_closed_form(g):
    for a in (0.3, 1.0, 2.5):
        m = exp_series(wedge(g, E[0], E[1]).matrix * a)
        expected = np.eye(4)
        expected[:2, :2] = [[math.cosh(a), -math.sinh(a)], [-math.sinh(a), math.cosh(a)]]
        assert mabs(m - expected) < 1e-13 * math.cosh(a)


def test_exp_nilpotent_exact():
    n = np.zeros((4, 4))
    n[0, 1] = 1.0
    n[1, 2] = 2.0
    n[2, 3] = -1.0
    expected = np.eye(4) + n + n @ n / 2.0 + n @ n @ n / 6.0
    assert mabs(exp_series(n) - expected) < 1e-15


def test_exp_commuting_product(g):
    a = wedge(g, E[0], E[1]).matrix * 0.8
    b = wedge(g, E[2], E[3]).matrix * 1.3
    assert mabs(a @ b - b @ a) < 1e-15
    lhs = exp_series(a + b)
    rhs = exp_series(a) @ exp_series(b)
    assert mabs(lhs - rhs) < 1e-10


def test_random_bivector_valid_and_reproducible(g):
    L1 = random_bivector(g, 42)
    L2 = random_bivector(g, 42)
    assert np.array_equal(L1.matrix, L2.matrix)
    assert mabs(L1.matrix.T @ g.matrix + g.matrix @ L1.matrix) < 1e-14
    assert mabs(random_bivector(g, 3, scale=0.0).matrix) == 0.0


@pytest.mark.parametrize("scale", [0.5, 1.0, 2.0, 5.0])
def test_random_transformation_invariants(g, scale):
    for seed in range(5):
        lam = random_transformation(g, seed, scale=scale)
        m = lam.matrix
        rel = max(1.0, mabs(m) ** 2)
        assert mabs(m.T @ g.matrix @ m - g.matrix) < 1e-9 * rel
        assert abs(np.linalg.det(m) - 1.0) < 1e-9 * rel
        assert m[0, 0] >= 1.0 - 1e-9


def test_intertwining_identity(g, rep):
    lam = LorentzTransformation(np.eye(4), g)
    assert intertwining_defect(rep.identity, lam, rep) == 0.0


def test_intertwining_sign_blind(g, rep):
    L = random_bivector(g, 17)
    sigma = exp_series(spin_rep(rep, L))
    lam = LorentzTransformation(exp_series(L.matrix), g)
    d_plus = intertwining_defect(sigma, lam, rep)
    d_minus = intertwining_defect(-sigma, lam, rep)
    assert d_plus < 1e-8
    assert d_minus == pytest.approx(d_plus, abs=1e-12)


def test_intertwining_series_lift(g, rep):
    for seed in range(20):
        L = random_bivector(g, seed)
        sigma = exp_series(spin_rep(rep, L))
        lam = LorentzTransformation(exp_series(L.matrix), g)
        assert intertwining_defect(sigma, lam, rep) < 1e-8


def test_intertwining_singular_sigma(g, rep):
    lam = LorentzTransformation(np.eye(4), g)
    with pytest.raises(SingularSigmaError):
        intertwining_defect(np.zeros_like(rep.identity), lam, rep)


# ---------------------------------------------------------------------------
# The referees keep their bits: the loops below transcribe the earlier forms,
# which scanned the running sum at every term and conjugated one vector image at
# a time.  The new forms must give the same bytes.


def series_partial_sums(m):
    """(k, partial sums) of the earlier exp_series loop, before its squarings."""
    m = np.asarray(m)
    norm1 = float(np.linalg.norm(m, 1))
    squarings = 0 if norm1 <= 0.5 else int(np.ceil(np.log2(norm1 / 0.5)))
    a = m / (2.0 ** squarings)
    total = np.eye(m.shape[0], dtype=a.dtype)
    term = total
    sums = []
    for k in range(1, 128):
        term = term @ a / k
        total = total + term
        sums.append(total)
        if maxabs(term) <= SERIES_TERM_TOL * maxabs(total):
            return k, squarings, sums
    raise RuntimeError("matrix exponential series failed to converge")


def exp_series_reference(m):
    _, squarings, sums = series_partial_sums(m)
    total = sums[-1]
    for _ in range(squarings):
        total = total @ total
    return total


def intertwining_reference(sigma, lam, rep):
    """The earlier form: refusals decided by the SVD's cond, defect image by image."""
    sigma = np.asarray(sigma)
    if not math.isfinite(maxabs(sigma)):
        raise SingularSigmaError("candidate lift has non-finite entries")
    try:
        inv = np.linalg.inv(sigma)
    except np.linalg.LinAlgError as exc:
        raise SingularSigmaError("candidate lift is singular") from exc
    cond = float(np.linalg.cond(sigma))
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularSigmaError(f"candidate lift is ill-conditioned (cond={cond:g})")
    worst = 0.0
    for a in range(4):
        lhs = sigma @ rep.vectors[a] @ inv
        rhs = rep.vector(lam.matrix[:, a])
        worst = max(worst, maxabs(lhs - rhs))
    return worst


def series_inputs(g, rep):
    """Random bivectors at four scales, wedges of each kind, and their spin images."""
    for seed in range(12):
        for c in (1e-3, 0.3, 1.0, 8.0):
            L = random_bivector(g, seed, scale=c)
            yield L.matrix
            yield spin_rep(rep, L)
        for kind in ("rotation", "boost", "null"):
            W = random_wedge(g, seed, kind=kind)
            yield W.matrix
            yield spin_rep(rep, W)


def test_exp_series_bits_match_reference(g, g_alt, rep):
    for metric in (g, g_alt):
        image_rep = representation(rep.kind, metric)
        for m in series_inputs(metric, image_rep):
            assert exp_series(m).tobytes() == exp_series_reference(m).tobytes()


def test_exp_series_bits_match_reference_on_mixed_scales():
    # generic matrices with entries over three and a half decades: now and then the
    # last term lands just below SERIES_TERM_TOL * _SUM_BOUND, where a wrong skip of
    # the stop test would add a term
    rng = np.random.default_rng(0)
    for _ in range(1500):
        n = int(rng.integers(1, 5))
        m = rng.uniform(-1.0, 1.0, (n, n)) * 10.0 ** rng.uniform(-3.0, 0.5, (n, n))
        assert exp_series(m).tobytes() == exp_series_reference(m).tobytes()


@pytest.mark.parametrize("m", [[[0.3]], [[-7.5]], [[0.0]], [[2.0 + 1.0j]]])
def test_exp_series_one_by_one(m):
    out = exp_series(np.array(m))
    assert out.shape == (1, 1)
    assert out.tobytes() == exp_series_reference(np.array(m)).tobytes()
    assert out[0, 0] == pytest.approx(np.exp(m[0][0]), rel=1e-15)


def test_exp_series_null_wedge_stops_early(g, rep):
    # L^3 = 0 and sigma(L)^2 = 0 for a null wedge, to rounding: the series stops at
    # k = 3 and k = 2, on terms far below the early-skip bound
    for seed in range(10):
        W = random_wedge(g, seed, kind="null")
        for m, k in ((W.matrix, 3), (spin_rep(rep, W), 2)):
            assert series_partial_sums(m)[0] == k
            assert exp_series(m).tobytes() == exp_series_reference(m).tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_exp_series_rejects_non_finite(bad):
    m = np.zeros((4, 4))
    m[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        exp_series(m)


def test_intertwining_bits_match_reference(g, g_alt, rep):
    for metric in (g, g_alt):
        image_rep = representation(rep.kind, metric)
        for seed in range(15):
            lam = random_nonsimple_transformation(metric, seed)
            lam2 = random_nonsimple_transformation(metric, seed + 100)
            L = random_bivector(metric, seed)
            cases = [
                (lift(lam, image_rep), lam),
                (lift(lam, image_rep) @ lift(lam2, image_rep), lam @ lam2),
                (exp_series(spin_rep(image_rep, L)),
                 LorentzTransformation(exp_series(L.matrix), metric)),
            ]
            for sigma, target in cases:
                new = intertwining_defect(sigma, target, image_rep)
                old = intertwining_reference(sigma, target, image_rep)
                assert np.float64(new).tobytes() == np.float64(old).tobytes()


def intertwining_outcome(defect, sigma, lam, rep):
    """The defect's bytes, or the class and message of its refusal."""
    try:
        return np.float64(defect(sigma, lam, rep)).tobytes()
    except SingularSigmaError as exc:
        return type(exc).__name__, str(exc)


def assert_same_outcome(sigma, lam, rep):
    new = intertwining_outcome(intertwining_defect, sigma, lam, rep)
    assert new == intertwining_outcome(intertwining_reference, sigma, lam, rep)
    return new


def near_limit(rep, seed, cond, e):
    """bitcompare's oracle-group Sigma of rep's shape and dtype, scaled by 2^e."""
    return bitcompare.conditioned(seed, rep.identity.shape[0],
                                  np.iscomplexobj(rep.identity), cond, e)


@pytest.mark.parametrize("sig", ["pmmm", "mppp"])
def test_intertwining_matches_svd_form_near_the_limit(sig, rep, monkeypatch):
    # every decision and every returned bit of the SVD form, on both sides of the
    # Frobenius bound's switch at _COND_LIMIT / 2 and of the limit itself
    g = make_metric(sig)
    rep = representation(rep.kind, g)
    lam = random_nonsimple_transformation(g, 3)
    svd = []
    monkeypatch.setattr(np.linalg, "cond", lambda m, cond=np.linalg.cond: svd.append(m)
                        or cond(m))
    for cond in bitcompare.ORACLE_CONDS:
        for e in bitcompare.ORACLE_SIZES:
            for seed in range(4):
                svd.clear()
                out = assert_same_outcome(near_limit(rep, seed, cond, e), lam, rep)
                # the reference's own SVD, and the oracle's where it takes one
                fast = len(svd) == 1
                assert fast == (cond < 5e11 and e >= 0), (cond, e, seed)
                # at 1e12 (1 +- 1e-6) the SVD's rounding decides, in both forms alike
                if abs(cond - 1e12) > 1e11:
                    assert isinstance(out, bytes) == (cond < 1e12), (cond, e, seed)


def test_intertwining_matches_svd_form_singular_and_non_finite(g, g_alt, rep):
    for metric in (g, g_alt):
        image_rep = representation(rep.kind, metric)
        lam = LorentzTransformation(np.eye(4), metric)
        d = image_rep.identity.shape[0]
        rank_deficient = near_limit(image_rep, 0, 1.0, 0)
        rank_deficient[:, -1] = rank_deficient[:, 0]  # equal columns
        cases = [np.zeros((d, d)), np.diag([1.0] * (d - 1) + [0.0]), rank_deficient]
        for bad in (math.nan, math.inf, -math.inf):
            sigma = np.array(image_rep.identity)
            sigma[0, 1] = bad
            cases.append(sigma)
        outcomes = [assert_same_outcome(sigma, lam, image_rep) for sigma in cases]
        assert not any(isinstance(out, bytes) for out in outcomes)


@pytest.mark.parametrize("sig", ["pmmm", "mppp"])
def test_intertwining_matches_svd_form_on_large_rapidities(sig, rep):
    # framed Lam of rapidity 24-30 and angle 1, where cond Sigma ~ e^rapidity passes
    # _COND_LIMIT: lift answers up to rapidity 28, and the oracle refuses some of them
    g = make_metric(sig)
    rep = representation(rep.kind, g)
    outcomes = {}
    for rapidity in range(24, 31):
        for seed in range(10):
            lam = _transformation(g, np.random.default_rng(seed), float(rapidity), 1.0)
            try:
                sigma = lift(lam, rep)
            except SpinLiftError:
                continue
            outcomes[rapidity, seed] = assert_same_outcome(sigma, lam, rep)
    refused = {key for key, out in outcomes.items() if not isinstance(out, bytes)}
    assert {(28, seed) for seed in range(10)} <= refused
    assert {(24, seed) for seed in range(10)}.isdisjoint(refused)


def test_random_bivector_bits_match_triu_form(g, g_alt):
    # the earlier sampler cut the draw with np.triu; the mask's signed zeros cancel
    for metric in (g, g_alt):
        for seed in range(50):
            for c in (0.0, 1e-3, 1.0, 8.0):
                draw = np.random.default_rng(seed).uniform(-c, c, size=(4, 4))
                f = np.triu(draw, 1)
                expected = (f - f.T) @ metric.matrix
                got = random_bivector(metric, seed, scale=c).matrix
                assert got.tobytes() == expected.tobytes()


def test_intertwining_refuses_both_singular_paths(g, rep):
    lam = LorentzTransformation(np.eye(4), g)
    singular = np.array(rep.identity)
    singular[0, 0] = 0.0  # rank d - 1: the inverse fails
    ill = np.array(rep.identity)
    ill[0, 0] = 1e-13  # invertible, but cond = 1e13 > _COND_LIMIT
    with pytest.raises(SingularSigmaError, match="is singular"):
        intertwining_defect(singular, lam, rep)
    with pytest.raises(SingularSigmaError, match="ill-conditioned"):
        intertwining_defect(ill, lam, rep)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("sig", ["pmmm", "mppp"])
def test_intertwining_refuses_non_finite_sigma(sig, bad, rep):
    # np.linalg.inv passes a NaN through, and np.linalg.cond then raises an
    # untyped LinAlgError; the check before both gives the typed error
    g = make_metric(sig)
    rep = representation(rep.kind, g)
    lam = LorentzTransformation(np.eye(4), g)
    sigma = np.array(rep.identity)
    sigma[0, 1] = bad
    with pytest.raises(SingularSigmaError, match="non-finite"):
        intertwining_defect(sigma, lam, rep)


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 16).flatmap(lambda n: hnp.arrays(
        np.float64, (n, n), elements=st.floats(-30.0, 30.0, allow_subnormal=False))),
    imag=st.booleans(),
)
@example(m=np.array([[0.5]]), imag=False)  # the sums rise to e^(1/2), the bound's case
@example(m=np.array([[1.0 + 1e-15]]), imag=False)  # one squaring, by the rounding of log2
def test_partial_sums_stay_below_bound(m, imag):
    # the premise of exp_series' early skip: after scaling, every partial sum of
    # the series has maxabs <= its 1-norm <= e^(1/2) < _SUM_BOUND
    if imag:
        m = m + 1j * m[::-1]
    for total in series_partial_sums(m)[2]:
        assert maxabs(total) <= _SUM_BOUND
    assert exp_series(m).tobytes() == exp_series_reference(m).tobytes()
