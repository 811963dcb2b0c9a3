"""The two signatures are g and -g, and so(g) = so(-g) and O(g) = O(-g) as sets of
matrices.  So every answer that lives on the even part of the algebra is the same
matrix under both metrics, bit for bit: the decomposition, the Weyl block and every
result built on it, the gamma images of bivectors and lifts, the validators'
decisions, the samplers' draws and the CLI documents.

The metric acts only where an index is lowered or an odd element is imaged: the
sign of ``wedge``, ``inner`` and ``wedge_factors``'s second vector, the vector
images (gamma_mppp = i gamma_pmmm, so ``intertwining_defect`` and
``quad_trace_identity_check`` read other matrices), and the regular
representation, whose images are other matrices.
"""

import json
import math
import pathlib
import struct

import numpy as np
import pytest

from spinlift import (
    Bivector,
    LorentzTransformation,
    SpinLiftError,
    cli,
    cross_trace_check,
    det_bivector,
    exp_coefficients,
    exp_series,
    exp_spin,
    exp_spin_factored,
    exp_spin_polynomial,
    exp_spin_simple,
    factor_transform,
    inner,
    is_simple,
    is_simple_transform,
    lie_bracket_check,
    lift,
    lift_nonsimple,
    lift_simple,
    log,
    log_simple,
    make_metric,
    mu_roots,
    orthogonal_decompose,
    plane_projection,
    recover_invariants,
    representation,
    spin_cross_product,
    spin_decompose,
    spin_rep,
    tr2,
    tr2_transform,
    wedge,
    wedge_factors,
)
from spinlift import sampling

SIGNATURES = ("pmmm", "mppp")
SEEDS = range(12)
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def bits(x):
    """A comparable image of every bit of an output: arrays and floats by their
    bytes, so -0.0 and 0.0 differ; validated objects by their matrices."""
    if isinstance(x, (Bivector, LorentzTransformation)):
        return bits(x.matrix)
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (bool, np.bool_, str, type(None))):
        return x
    if isinstance(x, (float, np.floating)):
        return struct.pack("<d", float(x))
    if isinstance(x, (complex, np.complexfloating)):
        return struct.pack("<dd", x.real, x.imag)
    if isinstance(x, (tuple, list)):
        return tuple(bits(y) for y in x)
    if hasattr(x, "__dataclass_fields__"):  # FactorPair, ExpCoefficients
        return tuple(bits(getattr(x, name)) for name in x.__dataclass_fields__)
    raise TypeError(f"no bit image for {type(x)!r}")


def outcome(op, matrix, tag, make):
    """bits of op(input, gamma representation) over the metric tag, or its refusal."""
    g = make_metric(tag)
    try:
        return bits(op(make(matrix, g), representation("gamma", g)))
    except SpinLiftError as exc:
        return type(exc).__name__, str(exc)


def bivector_inputs():
    g = make_metric("pmmm")  # the samplers' draws are the same under both metrics
    draws = []
    for seed in SEEDS:
        draws.append(sampling.random_nonsimple_bivector(g, seed).matrix)
        draws.append(sampling.random_nonsimple_bivector(g, seed, 1e-3).matrix)
        for kind in ("rotation", "boost", "null"):
            draws.append(sampling.random_wedge(g, seed, kind).matrix)
    for name in ("decompose", "invariants"):
        draws.append(np.array(json.loads((GOLDEN_DIR / f"{name}.request.json")
                                         .read_text())["matrix"]))
    draws.append(np.zeros((4, 4)))
    return draws


def transformation_inputs():
    g = make_metric("pmmm")
    draws = [np.eye(4)]
    for seed in SEEDS:
        draws.append(sampling.random_nonsimple_transformation(g, seed).matrix)
        draws.append(sampling.traceless_simple_transformation(g, seed).matrix)
        draws.append(sampling.degenerate_denominator_transformation(g, seed).matrix)
        for kind in ("rotation", "boost", "null"):
            draws.append(exp_series(sampling.random_wedge(g, seed, kind).matrix))
    for name in ("log", "factor"):
        draws.append(np.array(json.loads((GOLDEN_DIR / f"{name}.request.json")
                                         .read_text())["matrix"]))
    return draws


def _decomposed_images(L, rep):
    s = spin_rep(rep, L)
    mu = mu_roots(L)
    return spin_decompose(s, mu), spin_cross_product(s, tr2(L), rep)


BIVECTOR_OPS = {
    "validate": lambda L, rep: (L, L._maxabs),
    "invariants": lambda L, rep: (tr2(L), det_bivector(L), mu_roots(L), is_simple(L)),
    "orthogonal_decompose": lambda L, rep: orthogonal_decompose(L),
    "plane_projection": lambda L, rep: plane_projection(L) if is_simple(L) else None,
    "spin_rep": lambda L, rep: spin_rep(rep, L),
    "exp_spin": lambda L, rep: exp_spin(L, rep, return_branch=True),
    "exp_spin_factored": lambda L, rep: exp_spin_factored(L, rep),
    "exp_spin_polynomial": lambda L, rep: exp_spin_polynomial(L, rep),
    "exp_spin_simple": lambda L, rep: exp_spin_simple(spin_rep(rep, L), tr2(L)),
    "exp_coefficients": lambda L, rep: exp_coefficients(mu_roots(L)),
    "spin_decompose": _decomposed_images,
    "recover_invariants": lambda L, rep: recover_invariants(spin_rep(rep, L), rep),
    "cross_trace_check": lambda L, rep: cross_trace_check(rep, L),
    "lie_bracket_check": lambda L, rep: lie_bracket_check(rep, L, 0.5 * L + L),
    "arithmetic": lambda L, rep: (L + L, L - 2.0 * L, 3.0 * L),
}

TRANSFORMATION_OPS = {
    "validate": lambda lam, rep: (lam, lam._maxabs, lam._traces),
    "inverse": lambda lam, rep: lam.inverse(),
    "product": lambda lam, rep: lam @ lam,
    "traces": lambda lam, rep: (tr2_transform(lam), is_simple_transform(lam)),
    "log": lambda lam, rep: log(lam),
    "log_simple": lambda lam, rep: log_simple(lam),
    "factor_transform": lambda lam, rep: factor_transform(lam),
    "lift": lambda lam, rep: lift(lam, rep, return_branch=True),
    "lift_simple": lambda lam, rep: lift_simple(lam, rep),
    "lift_nonsimple": lambda lam, rep: lift_nonsimple(lam, rep),
}


@pytest.mark.parametrize("name", BIVECTOR_OPS)
def test_bivector_functions_ignore_the_signature(name):
    op = BIVECTOR_OPS[name]
    for m in bivector_inputs():
        first, second = (outcome(op, m, tag, Bivector) for tag in SIGNATURES)
        assert first == second, m.tolist()


@pytest.mark.parametrize("name", TRANSFORMATION_OPS)
def test_transformation_functions_ignore_the_signature(name):
    op = TRANSFORMATION_OPS[name]
    for m in transformation_inputs():
        first, second = (outcome(op, m, tag, LorentzTransformation) for tag in SIGNATURES)
        assert first == second, m.tolist()


def test_validators_refuse_alike():
    lam = sampling.random_nonsimple_transformation(make_metric("pmmm"), 3).matrix
    L = sampling.random_nonsimple_bivector(make_metric("pmmm"), 3).matrix
    nan = L.copy()
    nan[1, 2] = np.nan
    bad_bivectors = [L + 1e-6 * np.eye(4)[::-1], L + np.diag([1e-6, 0.0, 0.0, 0.0]), nan,
                     L[:3, :3], L @ L, 1e80 * L]
    bad_transformations = [np.diag([1.0, -1.0, 1.0, 1.0]) @ lam, lam * (1.0 + 1e-8), -lam,
                           lam[:3, :3], lam @ np.diag([1.0, 1.0, 1.0, 1.001]), np.inf * lam]
    for make, error, inputs in ((Bivector, "InvalidBivectorError", bad_bivectors),
                                (LorentzTransformation, "InvalidTransformationError",
                                 bad_transformations)):
        for m in inputs:
            first, second = (outcome(lambda x, rep: x, m, tag, make) for tag in SIGNATURES)
            assert first == second and first[0] == error, m.tolist()


@pytest.mark.parametrize("sampler, kinds", [
    (sampling.random_nonsimple_bivector, (1.0, 1e-3)),
    (sampling.random_wedge, ("rotation", "boost", "null", "any")),
    (sampling.random_nonsimple_transformation, (1.0, 0.1)),
    (sampling.traceless_simple_transformation, (None,)),
    (sampling.degenerate_denominator_transformation, (1.0,)),
])
def test_sampler_draws_ignore_the_signature(sampler, kinds):
    for seed in SEEDS:
        for kind in kinds:
            args = () if kind is None else (kind,)
            first, second = (bits(sampler(make_metric(tag), seed, *args))
                             for tag in SIGNATURES)
            assert first == second, (seed, kind)


def test_lowered_indices_and_odd_images_change_sign():
    # the stated exceptions: a lowered index and an odd image carry the metric
    pmmm, mppp = (make_metric(tag) for tag in SIGNATURES)
    rng = np.random.default_rng(5)
    for _ in range(20):
        u, v = rng.uniform(-2.0, 2.0, (2, 4))
        assert inner(mppp, u, v) == -inner(pmmm, u, v)
        assert np.array_equal(wedge(mppp, u, v).matrix, -wedge(pmmm, u, v).matrix)
        L = wedge(pmmm, u, v).matrix
        (u1, v1), (u2, v2) = (wedge_factors(Bivector(L, g)) for g in (pmmm, mppp))
        assert np.array_equal(u1, u2) and np.array_equal(v2, -v1)  # to the sign of 0
        gammas = [representation("gamma", g).vector(u) for g in (pmmm, mppp)]
        assert np.array_equal(gammas[1], 1j * gammas[0])


def _documents(command, matrix, rep):
    """The rendered document of a request under each metric, its metric tag blanked."""
    docs = []
    for tag in SIGNATURES:
        request = {"command": command, "metric": tag, "rep": rep,
                   "tol": cli._DEFAULTS["tol"], "matrix": matrix}
        try:
            doc = cli.run_request(request)
        except SpinLiftError as exc:
            doc = {"error": [exc.code, str(exc)]}
        docs.append(json.loads(cli.render_document(dict(doc, metric=None))))
    return docs


@pytest.mark.parametrize("rep", ["gamma", "regular"])
@pytest.mark.parametrize("command", ["decompose", "exp-spin", "log", "factor", "lift",
                                     "invariants"])
def test_cli_documents_ignore_the_signature(command, rep):
    # the regular representation's images differ: exp-spin's and lift's results
    inputs = (bivector_inputs() if cli._COMMAND_BODIES[command][0] is Bivector
              else transformation_inputs())
    for m in inputs:
        first, second = _documents(command, m, rep)
        if rep == "regular" and command in ("exp-spin", "lift"):
            first.pop("result", None)
            second.pop("result", None)
        assert first == second, m.tolist()


def test_cli_golden_requests_ignore_the_signature(tmp_path, capsys):
    for request in sorted(GOLDEN_DIR.glob("*.request.json")):
        command = request.name.removesuffix(".request.json")
        texts = []
        for tag in SIGNATURES:
            out = tmp_path / f"{command}-{tag}.json"
            code = cli.main([command, "--metric", tag, "--in", str(request), "--out", str(out)])
            texts.append((code, out.read_text().replace(f'"metric": "{tag}"', '"metric"')))
        assert texts[0] == texts[1], command
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("seed", [0, 7])
def test_selftest_reports_ignore_the_signature(seed):
    first, second = (cli.run_selftest(tag, seed, trials=3) for tag in SIGNATURES)
    assert bits([row["max_defect"] for row in first["checks"]]) == bits(
        [row["max_defect"] for row in second["checks"]])
    assert first == second
    assert all(math.isfinite(row["max_defect"]) for row in first["checks"])
