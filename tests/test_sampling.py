"""The samplers keep their documented promises over their whole range.

Every draw is read back through the library's invariants, and each promise must
hold at least ``MARGIN`` times clear of the gate that would break it.  The
draws must also span the ranges of the rejection samplers they replace, taken
at pmmm and scale 1 (scaled by ``scale``, and by scale^2 for wedges).  One
corner is narrower on purpose: see ``test_nonsimple_bivector``.
"""

import math

import pytest

from spinlift import is_simple, is_simple_transform, lift, make_metric, mu_roots, tr2
from spinlift import det_bivector, representation
from spinlift._linalg import (
    DENOMINATOR_GATE, SERIES_GAP_TOL, SIMPLE_CRITERION_TOL, SIMPLE_DET_TOL, TRACE_GATE,
    _NULL_TOL, _floored, lift_denominator, simplicity_defect,
)
from spinlift.sampling import (
    degenerate_denominator_transformation,
    random_nonsimple_bivector,
    random_nonsimple_transformation,
    random_wedge,
    traceless_simple_transformation,
)

SEEDS = range(200)
MARGIN = 10.0
CASES = [(sig, scale) for sig in ("pmmm", "mppp") for scale in (0.5, 1.0, 2.0, 5.0)]


def assert_spans(values, low, high):
    assert min(values) <= low and max(values) >= high, (min(values), max(values))


@pytest.mark.parametrize("sig, scale", CASES)
def test_nonsimple_bivector(sig, scale):
    g = make_metric(sig)
    rapidity, angle, stretch = [], [], []
    for seed in SEEDS:
        L = random_nonsimple_bivector(g, seed, scale)
        mu, top = mu_roots(L), L._maxabs
        assert not is_simple(L)
        assert abs(det_bivector(L)) > MARGIN * SIMPLE_DET_TOL * top**4, seed
        assert mu.mu_plus - mu.mu_minus > MARGIN * SERIES_GAP_TOL * top**2, seed
        rapidity.append(math.sqrt(mu.mu_plus))
        angle.append(math.sqrt(-mu.mu_minus))
        stretch.append(top / max(rapidity[-1], angle[-1]))
    assert_spans(rapidity, 0.02 * scale, 1.63 * scale)
    assert_spans(angle, 0.005 * scale, 1.66 * scale)
    # maxabs / max invariant: the old sampler's 0.59 needs entries spread evenly over
    # all three axes, about 1 isotropic draw in 2,000; 200 seeds reach 0.66
    assert_spans(stretch, 0.7, 5.9)


@pytest.mark.parametrize("sig, scale", CASES)
def test_nonsimple_transformation(sig, scale):
    g = make_metric(sig)
    rapidity, angle = [], []
    # at scale 5, seeds 987 and 5798 draw an angle within 0.01 of 2 pi, which folds near 0
    for seed in [*SEEDS, 987, 5798]:
        lam = random_nonsimple_transformation(g, seed, scale)
        t, t2 = lam._traces
        assert not is_simple_transform(lam)
        assert simplicity_defect(t, t2) > MARGIN * SIMPLE_CRITERION_TOL * max(1.0, t2, t)
        root = math.sqrt(t * t - 4.0 * t2 + 8.0)
        assert root / 2.0 > 0.05, seed  # c_+ - c_-
        rapidity.append(math.acosh((t + root) / 4.0))
        angle.append(math.acos(max(-1.0, (t - root) / 4.0)))
    assert_spans(rapidity, 0.02 * scale, 1.63 * scale)
    assert_spans(angle, 0.005 * scale, 3.13 if scale >= 2.0 else 1.66 * scale)
    assert min(angle) >= 0.99 * 0.0029 * scale  # the draws' floor, kept by the fold


@pytest.mark.parametrize("sig, scale", CASES)
def test_wedge_kinds(sig, scale):
    g = make_metric(sig)
    for kind, high in (("rotation", 2.0), ("boost", 2.6), ("any", 2.0)):
        size, stretch = [], []
        for seed in SEEDS:
            W = random_wedge(g, seed, kind=kind, scale=scale)
            t, top = tr2(W), W._maxabs
            assert abs(det_bivector(W)) <= SIMPLE_DET_TOL * top**4 / MARGIN
            assert abs(t) > MARGIN * _NULL_TOL * _floored(top, 2), (kind, seed)
            assert {"rotation": t > 0.0, "boost": t < 0.0}.get(kind, True), (kind, seed)
            size.append(math.sqrt(abs(t)))
            stretch.append(top / size[-1])
        assert_spans(size, 0.32 * scale**2, high * scale**2)
        assert max(stretch) >= 4.0
    for seed in SEEDS:
        W = random_wedge(g, seed, kind="null", scale=scale)
        t, top = tr2(W), W._maxabs
        assert abs(det_bivector(W)) <= SIMPLE_DET_TOL * top**4 / MARGIN
        assert abs(t) <= 1e-12 * scale**4 and abs(t) <= _NULL_TOL * _floored(top, 2) / MARGIN


@pytest.mark.parametrize("sig, scale", CASES)
def test_special_transformations(sig, scale):
    # the traceless draws are simple with tr Lam under lift's gate, and the
    # degenerate ones non-simple with the denominator under it: each lands in the
    # lift branch of its name
    g = make_metric(sig)
    rep = representation("gamma", g)
    for seed in SEEDS[:50]:
        lam = traceless_simple_transformation(g, seed)
        t, t2 = lam._traces
        norm2 = _floored(lam._maxabs, 2)
        assert simplicity_defect(t, t2) <= SIMPLE_CRITERION_TOL * max(1.0, t2, t) / MARGIN
        assert abs(t) <= TRACE_GATE * norm2 / MARGIN
        assert lift(lam, rep, return_branch=True)[1] == "special/traceless"
        lam = degenerate_denominator_transformation(g, seed, scale)
        t, t2 = lam._traces
        norm2 = _floored(lam._maxabs, 2)
        assert simplicity_defect(t, t2) > MARGIN * SIMPLE_CRITERION_TOL * max(1.0, t2, t)
        assert abs(lift_denominator(t, t2)) <= DENOMINATOR_GATE * norm2 / MARGIN
        assert lift(lam, rep, return_branch=True)[1] == "nonsimple/special"
