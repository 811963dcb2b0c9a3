"""The hot paths do each piece of work once and give the bits of the plain forms.

The spin map and the vector images are compared bit for bit with the
``np.tensordot`` form they replace; call counters pin that a dispatcher
or a decomposition computes its invariants once, that the gates read the
norm and traces their input's validator measured, that a bivector's tr2 and
Pfaffian are taken lazily and at most once, and that the selftest battery draws
each input once and decomposes each bivector once.
"""

import inspect
from collections import Counter

import numpy as np
import pytest

import spinlift
from spinlift import (
    Bivector,
    LorentzTransformation,
    cli,
    exp_series,
    exp_spin,
    exp_spin_factored,
    lift,
    make_metric,
    is_simple,
    orthogonal_decompose,
    plane_projection,
    representation,
    spin_rep,
    tr2,
    wedge,
)
from spinlift._linalg import _floored, maxabs, scale, transform_traces
from spinlift.bivector import _decompose, det_bivector
from spinlift.clifford import PAIR_INDICES
from spinlift.oracle import random_bivector
from spinlift.sampling import (degenerate_denominator_transformation,
                               random_nonsimple_bivector, random_nonsimple_transformation,
                               random_wedge, traceless_simple_transformation)

E = np.eye(4)
MODULES = [getattr(spinlift, name) for name in (
    "_linalg", "bivector", "clifford", "cli", "expmap", "group_lift", "oracle",
    "sampling", "spin",
)]


def count_calls(monkeypatch, fn):
    """Wrap fn in every spinlift module that holds it; returns the list of calls."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for module in MODULES:
        for attr, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.fixture(params=["pmmm", "mppp"])
def metric(request):
    return make_metric(request.param)


@pytest.mark.parametrize("kind", ["gamma", "regular"])
def test_images_bit_equal_tensordot(metric, kind):
    rep = representation(kind, metric)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        L = random_bivector(metric, seed, scale=4.0)
        f = L.matrix @ np.linalg.inv(metric.matrix)
        coeffs = np.array([f[a, b] for a, b in PAIR_INDICES])
        expected = np.tensordot(coeffs, rep.pair_generators, axes=1)
        assert spin_rep(rep, L).tobytes() == expected.tobytes()
        u = rng.uniform(-3.0, 3.0, 4)
        for vec in (u, L.matrix[:, seed % 4]):  # contiguous, and a strided column
            expected = np.tensordot(np.asarray(vec, dtype=float), rep.vectors, axes=1)
            assert rep.vector(vec).tobytes() == expected.tobytes()


def exp_cases(g):
    """One bivector for each exp_spin label, by label."""
    b01, b12, b23 = (wedge(g, E[a], E[b]) for a, b in ((0, 1), (1, 2), (2, 3)))
    return {
        "simple/hyperbolic": b01,
        "simple/trig": b23,
        "simple/null": b01 + b12,
        "nonsimple/polynomial": b01 + b23,
        "near-degenerate/series": 0.02 * (b01 + b23),
    }


def test_exp_spin_runs_no_det_or_series(g, rep, monkeypatch):
    # every label is read off s^2 of the Weyl block, and every output is exp X of
    # that block: no determinant, series, sigma(L) or tr2 L runs
    counters = [count_calls(monkeypatch, fn) for fn in (det_bivector, exp_series,
                                                         spin_rep, tr2)]
    for branch, L in exp_cases(g).items():
        for calls in counters:
            calls.clear()
        assert exp_spin(L, rep, return_branch=True)[1] == branch
        assert [len(calls) for calls in counters] == [0, 0, 0, 0], branch
    assert spinlift.oracle not in map(inspect.getmodule, vars(spinlift.expmap).values())


def count_pfaffians(monkeypatch):
    """Wrap Bivector._pf; returns the list of bivectors whose Pfaffian was taken."""
    taken = []
    pf = Bivector.__dict__["_pf"]  # the cached_property itself, which keeps the value
    monkeypatch.setattr(pf, "func", lambda self, take=pf.func: taken.append(self) or take(self))
    return taken


def test_exp_spin_takes_no_invariants(g, rep, monkeypatch):
    # tr2 L and Pf(L g) are lazy: building a Bivector and exponentiating it, as
    # exp-mix does, takes neither
    taken = count_pfaffians(monkeypatch)
    for branch, L in exp_cases(g).items():
        assert exp_spin(L, rep, return_branch=True)[1] == branch
        assert "_tr2" not in vars(L) and "_pf" not in vars(L), branch
    assert taken == []


def test_selftest_takes_each_det_once(monkeypatch):
    # the battery reads det L and mu of one bivector in several checks; the
    # Bivector keeps Pf(L g), so each one's Pfaffian is taken at most once
    taken = count_pfaffians(monkeypatch)
    assert cli.run_selftest("pmmm", 7)["all_passed"]
    counts = Counter(map(id, taken))  # all alive in the list: the ids are distinct
    assert len(counts) > 10
    assert max(counts.values()) == 1


@pytest.mark.parametrize("metric_tag", ["pmmm", "mppp"])
def test_selftest_decomposes_each_bivector_once(metric_tag, monkeypatch):
    # the recovery and exp-agreement rows take a draw's parts once and hand them
    # to both representations
    calls = count_calls(monkeypatch, _decompose)
    assert cli.run_selftest(metric_tag, 7)["all_passed"]
    counts = Counter(id(L) for L, tol in calls)  # all alive in the list: ids distinct
    assert len(counts) >= 50
    assert max(counts.values()) == 1


def test_decompose_computes_det_once(g, rep, monkeypatch):
    calls = count_calls(monkeypatch, det_bivector)
    L = wedge(g, E[0], E[1]) + 0.7 * wedge(g, E[2], E[3])
    for fn in (orthogonal_decompose, lambda L: exp_spin_factored(L, rep)):
        calls.clear()
        fn(L)
        assert len(calls) == 1, fn


def test_nonsimple_lift_computes_traces_once(g, rep, monkeypatch):
    calls = count_calls(monkeypatch, spinlift._linalg.transform_traces)
    block = wedge(g, E[0], E[1]) + 0.7 * wedge(g, E[2], E[3])
    lam = LorentzTransformation(exp_series(block.matrix), g)
    assert lift(lam, rep, return_branch=True)[1] == "nonsimple"
    assert len(calls) == 1


def lift_cases(metric, *labels):
    """One transformation for each given lift label, by label."""
    boost = 0.8 * wedge(metric, E[0], E[1]) + 0.3 * wedge(metric, E[1], E[2])
    block = wedge(metric, E[0], E[1]) + 0.7 * wedge(metric, E[2], E[3])
    cases = {
        "simple": LorentzTransformation(exp_series(boost.matrix), metric),
        "special/traceless": traceless_simple_transformation(metric, 3),
        "nonsimple": LorentzTransformation(exp_series(block.matrix), metric),
        "nonsimple/special": degenerate_denominator_transformation(metric, 3),
    }
    return {label: cases[label] for label in labels or cases}


def count_bivectors(monkeypatch):
    """Wrap the Bivector validator and Bivector._of; returns the list of Bivectors built."""
    built = []
    validate, of = Bivector.__post_init__, Bivector._of
    monkeypatch.setattr(Bivector, "__post_init__",
                        lambda self: built.append(self) or validate(self))
    monkeypatch.setattr(Bivector, "_of",
                        staticmethod(lambda m, metric: built.append(m) or of(m, metric)))
    return built


def assert_builds_no_bivector(fn, rep, cases, monkeypatch):
    """fn(x, rep) labels each case x by its key, building no Bivector, validated or
    by _of, and calling no spin_rep."""
    spins = count_calls(monkeypatch, spin_rep)
    built = count_bivectors(monkeypatch)
    for branch, x in cases.items():
        spins.clear()
        built.clear()
        assert fn(x, rep, return_branch=True)[1] == branch
        assert (len(spins), len(built)) == (0, 0), branch


@pytest.mark.parametrize("kind", ["gamma", "regular"])
def test_nonsimple_lift_builds_no_bivector(metric, kind, monkeypatch):
    # Both non-simple regimes take the spinor map, which has no intermediate
    # bivector to validate or map through spin_rep.
    assert_builds_no_bivector(lift, representation(kind, metric), lift_cases(
        metric, "nonsimple", "nonsimple/special"), monkeypatch)


@pytest.mark.parametrize("kind", ["gamma", "regular"])
def test_simple_lift_builds_no_bivector(metric, kind, monkeypatch):
    # The simple formula runs on the Weyl block, from the pair coefficients of
    # (Lam - Lam^{-1}) g^{-1}; the traceless regime takes the spinor map.
    assert_builds_no_bivector(lift, representation(kind, metric), lift_cases(
        metric, "simple", "special/traceless"), monkeypatch)


@pytest.mark.parametrize("kind", ["gamma", "regular"])
def test_exp_spin_builds_no_bivector(metric, kind, monkeypatch):
    # Every label reads s^2 of the Weyl block, built from the pair coefficients of
    # L g^{-1}: no branch has a bivector to build, validated or not.
    assert_builds_no_bivector(exp_spin, representation(kind, metric), exp_cases(metric),
                              monkeypatch)


@pytest.mark.parametrize("kind", ["gamma", "regular"])
def test_lift_rescans_nothing(metric, kind, monkeypatch):
    # Every gate of lift reads the maxabs and the traces that the validator of
    # Lam measured: once Lam exists, lift scans it for neither.
    rep = representation(kind, metric)
    cases = lift_cases(metric)  # all four labels
    counters = [count_calls(monkeypatch, fn) for fn in (maxabs, scale, transform_traces)]
    for branch, lam in cases.items():
        assert lift(lam, rep, return_branch=True)[1] == branch
        assert [len(calls) for calls in counters] == [0, 0, 0], branch


def test_bivector_gates_rescan_nothing(metric, monkeypatch):
    # is_simple, both gates of orthogonal_decompose and plane_projection read
    # the validator's maxabs of L; maxabs still runs on the parts' own matrices.
    W = wedge(metric, E[0], E[1])
    L = W + 0.7 * wedge(metric, E[2], E[3])
    calls = count_calls(monkeypatch, maxabs)
    assert is_simple(W) and not is_simple(L)
    orthogonal_decompose(L)
    plane_projection(W)
    assert [args for args in calls if args[0] is L.matrix or args[0] is W.matrix] == []


@pytest.mark.parametrize("size", [0.3, 1.0, 4.0])
def test_validators_keep_what_they_measured(metric, size):
    # The stored maxabs gives scale(m, k), and the stored traces transform_traces(m),
    # bit for bit on sampler inputs of every regime; at size 0.3 the bivectors'
    # maxabs lies below the floor of scale
    bivectors = [random_nonsimple_bivector(metric, seed, scale=size) for seed in range(4)]
    for kind in ("rotation", "boost", "null"):
        bivectors += [random_wedge(metric, seed, kind=kind, scale=size) for seed in range(4)]
    lams = [LorentzTransformation(exp_series(W.matrix), metric) for W in bivectors]
    for seed in range(4):
        lams += [random_nonsimple_transformation(metric, seed, scale=size),
                 traceless_simple_transformation(metric, seed),
                 degenerate_denominator_transformation(metric, seed, scale=size)]
    for x in bivectors + lams:
        for k in (1, 2, 4):
            assert _floored(x._maxabs, k).hex() == scale(x.matrix, k).hex()
    for lam in lams:
        assert [t.hex() for t in lam._traces] == [
            t.hex() for t in transform_traces(lam.matrix)]


SAMPLERS = (
    "random_nonsimple_bivector",
    "random_wedge",
    "random_nonsimple_transformation",
    "traceless_simple_transformation",
    "degenerate_denominator_transformation",
)


@pytest.mark.parametrize("metric_tag", ["pmmm", "mppp"])
def test_selftest_draws_each_input_once(metric_tag, monkeypatch):
    draws = Counter()
    for name in SAMPLERS:
        sampler = getattr(cli, name)

        def counted(g, *args, _name=name, _sampler=sampler, **kwargs):
            draws[(_name, g.signature, args, tuple(sorted(kwargs.items())))] += 1
            return _sampler(g, *args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    report = cli.run_selftest(metric_tag, seed=5, trials=3)
    assert report["all_passed"]
    assert set(name for name, *_ in draws) == set(SAMPLERS)
    assert [key for key, n in draws.items() if n != 1] == []
