"""The hot paths do each piece of work once and give the bits of the plain forms.

The spin map and the vector images are compared bit for bit with the
``np.tensordot`` form they replace, and the transformation traces and the
spinor map with the numpy reductions and scalars they replace, next to every
refusal of the validator; call counters pin that a dispatcher
or a decomposition computes its invariants once, that the gates read the
norm and traces their input's validator measured, that a bivector's tr2 and
Pfaffian are taken lazily and at most once, and that the selftest battery draws
each input once, decomposes each bivector once, validates each transformation
product once, takes no SVD and calls each referee once per row and
representation; each request command validates its matrix once and runs no referee.
"""

import cmath
import inspect
import json
import math
import pathlib
from collections import Counter

import numpy as np
import pytest

import spinlift
from spinlift import (
    Bivector,
    InvalidTransformationError,
    LorentzTransformation,
    cli,
    exp_series,
    exp_spin,
    exp_spin_factored,
    intertwining_defect,
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
from spinlift._linalg import (_COND_LIMIT, _UNIT_ROUNDOFF, _floored, maxabs, scale,
                              transform_traces)
from spinlift.bivector import _decompose, det_bivector
from spinlift.clifford import PAIR_INDICES
from spinlift.errors import NonFiniteOutputError, SpinLiftError
from spinlift.group_lift import _SPINOR_H, _spinor
from spinlift.oracle import random_bivector
from spinlift.sampling import (_transformation, degenerate_denominator_transformation,
                               random_nonsimple_bivector, random_nonsimple_transformation,
                               random_wedge, traceless_simple_transformation)

E = np.eye(4)
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
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


def framed(g, seed, rapidity=0.0, angle=1.0):
    return _transformation(g, np.random.default_rng(seed), rapidity, angle).matrix


def transformations(g):
    """Framed Lam of rapidity 0 to 28 next to angle 1, framed rotations by pi and by
    pi - 1e-5, the identity, and the identity and a half-turn with -0.0 entries."""
    cases = {}
    for seed in range(3):
        for rapidity in (0.0, 1e-8, 2.0, 12.0, 20.0, 28.0):
            cases[f"rapidity={rapidity}, seed={seed}"] = framed(g, seed, rapidity)
        for angle in (math.pi, math.pi - 1e-5):
            cases[f"angle={angle}, seed={seed}"] = framed(g, seed, angle=angle)
    off = np.eye(4) == 0.0
    cases["identity"] = np.eye(4)
    cases["identity, -0.0"] = np.where(off, -0.0, 1.0)
    cases["half-turn, -0.0"] = np.where(off, -0.0, np.diag([1.0, 1.0, -1.0, -1.0]))
    return cases


def test_traces_bit_equal_ndarray_trace(metric):
    # transform_traces sums both diagonals in scalars, from the caller's rows or
    # its own: the bits of ndarray.trace, signed zeros included
    cases = transformations(metric)
    cases["zero, -0.0"] = np.full((4, 4), -0.0)
    cases["diagonal -0.0, 1e16"] = np.diag([-0.0, 1e16, 1.0, -1e16])
    for name, m in cases.items():
        t = float(m.trace())
        expected = [t.hex(), (0.5 * (t * t - float((m @ m).trace()))).hex()]
        for traces in (transform_traces(m), transform_traces(m, m.tolist())):
            assert [x.hex() for x in traces] == expected, name


def spinor_numpy(m):
    """The spinor map as it read A, det A and tr A on numpy complex scalars."""
    h = (_SPINOR_H @ m.ravel()).reshape(4, 4)
    c = int(h.diagonal().real.argmax())
    a = (h[:, c] / math.sqrt(h[c, c].real)).reshape(2, 2)
    d = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    r = abs(d)
    if not abs(r - 1.0) <= _UNIT_ROUNDOFF * _COND_LIMIT:
        raise NonFiniteOutputError(f"spinor map: |det A| = {r} is not 1: no phase left")
    a = a / cmath.sqrt(d / r)
    t = complex(a[0, 0] + a[1, 1])
    return -a if (t.real, t.imag) < (0.0, 0.0) else a


def outcome(fn, *args):
    """The bytes and shape of fn's array, or the class and message of its refusal."""
    try:
        out = fn(*args)
    except SpinLiftError as exc:
        return type(exc).__name__, str(exc)
    return out.tobytes(), out.shape


def test_spinor_bit_equal_numpy_scalars(metric):
    # _spinor takes det A, |det A| and tr A in Python complex arithmetic and keeps
    # numpy's complex division: A, its sign and every refusal are the numpy form's
    cases = transformations(metric)
    cases["rapidity=50"] = framed(metric, 3, 50.0, 0.0)  # det A rounds to 0: refused
    for name, m in cases.items():
        assert outcome(_spinor, m) == outcome(spinor_numpy, m), name
    assert outcome(_spinor, cases["rapidity=50"])[0] == "NonFiniteOutputError"


def refusal_grid(g, seed):
    """Transformations next to and past each refusal of the validator, by name."""
    lam = framed(g, seed, 2.0)
    grid = {f"reflected, rapidity {r}": np.diag([1.0, -1.0, 1.0, 1.0]) @ framed(g, seed, r)
            for r in (11.0, 12.0, 13.0, 14.0, 15.0)}
    nan, inf = lam.copy(), lam.copy()
    nan[1, 2], inf[2, 3] = math.nan, math.inf
    grid.update({"scaled": lam * (1.0 + 1e-8), "nan": nan, "inf": inf, "negated": -lam,
                 "3x3": lam[:3, :3]})
    return grid


REFUSALS = {
    "reflected": "matrix is not proper (det != 1)",
    "scaled": "matrix does not preserve the metric",
    "nan": "transformation entries must be finite",
    "inf": "transformation entries must be finite",
    "negated": "matrix is not orthochronous",
    "3x3": "transformation must be 4x4, got shape (3, 3)",
}
SCALED_ACCEPTED = (0, 2, 4, 6, 8, 9)  # seeds whose scaled Lam is within the metric's bound


def test_validator_decisions_on_the_refusal_grid(metric):
    # the validator takes the traces from its own rows and stores what it measured
    # in one update: it refuses what it refused, with the same message, and keeps
    # the bits of maxabs and ndarray.trace of what it accepts
    for seed in range(10):
        for name, m in refusal_grid(metric, seed).items():
            accepted = name == "scaled" and seed in SCALED_ACCEPTED
            try:
                lam = LorentzTransformation(m, metric)
            except InvalidTransformationError as exc:
                assert (accepted, str(exc)) == (False, REFUSALS[name.split(",")[0]])
                continue
            assert accepted, (name, seed)
            t = float(m.trace())
            assert [lam._maxabs.hex(), *(x.hex() for x in lam._traces)] == [
                maxabs(m).hex(), t.hex(), (0.5 * (t * t - float((m @ m).trace()))).hex()]


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


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("metric_tag", ["pmmm", "mppp"])
def test_selftest_runs_no_svd_and_validates_22_transformations(metric_tag, seed,
                                                              monkeypatch):
    # intertwining_defect clears the cond limit from the Frobenius norms of Sigma and
    # its inverse, so none of the 48 Sigma it judges takes an SVD; the homomorphism
    # row forms each product Lam1 Lam2 once for both representations
    svd = []
    monkeypatch.setattr(np.linalg, "cond", lambda *args, cond=np.linalg.cond:
                        svd.append(args) or cond(*args))
    validated = []
    validate = LorentzTransformation.__post_init__
    monkeypatch.setattr(LorentzTransformation, "__post_init__",
                        lambda self: validated.append(self) or validate(self))
    assert cli.run_selftest(metric_tag, seed)["all_passed"]
    assert (len(svd), len(validated)) == (0, 22)


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("metric_tag", ["pmmm", "mppp"])
def test_selftest_referee_calls_per_battery(metric_tag, seed, monkeypatch):
    # exp-agreement judges its gamma draws and wedges with one exp_series stack each
    # (2 calls) and its 10 regular draws and 3 wedges one by one (13), log-roundtrip
    # makes its Lam and judges its logs with one stack each (2), and lift-intertwining
    # makes its two wedges' Lam with one (1); lift-intertwining and homomorphism-pairs
    # take one intertwining_defect stack per representation (4)
    referees = [count_calls(monkeypatch, fn) for fn in (exp_series, intertwining_defect)]
    assert cli.run_selftest(metric_tag, seed)["all_passed"]
    assert [len(calls) for calls in referees] == [18, 4]


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


def test_each_request_is_validated_once(monkeypatch, tmp_path):
    # run_request admits the matrix as its command's input type; no body builds its own
    admitted_as = dict.fromkeys(("decompose", "exp-spin", "invariants"), Bivector)
    admitted_as.update(dict.fromkeys(("log", "factor", "lift"), LorentzTransformation))
    validated = []
    for cls in (Bivector, LorentzTransformation):
        monkeypatch.setattr(cls, "__post_init__", lambda self, validate=cls.__post_init__:
                            validated.append(type(self)) or validate(self))
    requests = sorted(GOLDEN_DIR.glob("*.request.json"))
    assert len(requests) == 6
    for path in requests:
        command = path.name.removesuffix(".request.json")
        out = tmp_path / "out.json"
        validated.clear()
        assert cli.main([command, "--in", str(path), "--out", str(out)]) == 0, path
        assert validated == [admitted_as[command]], command


def test_requests_run_no_referee(monkeypatch, tmp_path):
    # each request reports the defects of the block it built: exp_series and
    # intertwining_defect are referees of selftest and the tests only
    referees = [count_calls(monkeypatch, fn) for fn in (exp_series, intertwining_defect)]
    requests = [(path.name.removesuffix(".request.json"), path)
                for path in sorted(GOLDEN_DIR.glob("*.request.json"))]
    assert len(requests) == 6
    for sig in ("pmmm", "mppp"):
        for seed in range(10):
            path = tmp_path / f"framed-{sig}-{seed}.json"
            matrix = framed(make_metric(sig), seed, rapidity=28.0)
            path.write_text(json.dumps({"matrix": matrix.tolist(), "metric": sig}))
            requests += [("lift", path), ("log", path)]
    for command, path in requests:
        out = tmp_path / "out.json"
        assert cli.main([command, "--in", str(path), "--out", str(out)]) == 0, path
    assert referees == [[], []]
    cli.run_selftest("pmmm", 0, trials=1)  # where the counters do see them
    assert all(referees)
