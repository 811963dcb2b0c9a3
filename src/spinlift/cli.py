"""JSON command-line front end.

Requests carry a 4x4 matrix (except ``selftest``); responses echo the request
metadata and report result matrices, scalar invariants, the branch taken, and
residual diagnostics.  All floats are printed with 17 significant digits so
output can be re-ingested bit-faithfully; complex entries are [re, im] pairs.

Exit codes: 0 success, 1 domain error (machine-readable ``{code, message}``),
2 malformed input.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

import numpy as np

from ._linalg import (
    IDENTITY_TOL, SIMPLE_DET_TOL, _floored, lift_denominator, maxabs, scale,
    simplicity_defect, slice_maxabs,
)
from .bivector import (
    Bivector,
    MuPair,
    _decompose,
    _simple_kind,
    det_bivector,
    is_simple,
    mu_roots,
    orthogonal_decompose,
    tr2,
)
from .clifford import Representation, _even_image, representation, spin_rep
from .errors import MalformedInputError, NonFiniteOutputError, SpinLiftError
from .expmap import (
    _exp_block, _exp_factored, exp_spin, exp_spin_polynomial, exp_spin_simple,
)
from .group_lift import (
    FactorPair,
    LorentzTransformation,
    _lift_block,
    _log,
    _vector_image,
    factor_transform,
    lift,
    log_simple,
)
from .metric import SIGNATURES, make_metric
from .oracle import exp_series, intertwining_defect
from .sampling import (
    degenerate_denominator_transformation,
    random_nonsimple_bivector,
    random_nonsimple_transformation,
    random_wedge,
    traceless_simple_transformation,
)
from .spin import (
    _cross_trace,
    recover_invariants,
    spin_cross_product,
    spin_decompose,
)

_DEFAULTS = {"metric": "pmmm", "rep": "gamma", "tol": SIMPLE_DET_TOL, "seed": 0}
_SELFTEST_TRIALS = 10


# ---------------------------------------------------------------------------
# deterministic JSON output


def _render(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner_pad = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner_pad}{json.dumps(key)}: {_render(value, indent + 1)}"
            for key, value in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        flat = all(not isinstance(x, (dict, list, tuple)) for x in obj)
        if flat:
            return "[" + ", ".join(_render(x) for x in obj) + "]"
        items = ",\n".join(f"{inner_pad}{_render(x, indent + 1)}" for x in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if not math.isfinite(value):
            raise NonFiniteOutputError(f"non-finite value {value} in output")
        if value == 0.0:
            value = 0.0  # canonicalize -0.0
        return format(value, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def render_document(doc: dict) -> str:
    return _render(doc) + "\n"


def _matrix_payload(m) -> list:
    m = np.asarray(m)
    if np.iscomplexobj(m):
        return [[[float(z.real), float(z.imag)] for z in row] for row in m]
    return [[float(x) for x in row] for row in m]


# ---------------------------------------------------------------------------
# request parsing


def _is_number(x) -> bool:
    # JSON numbers only: a bool is an int to Python, and a string converts to float
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _parse_matrix(raw) -> np.ndarray:
    try:
        m = np.array(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedInputError(f"matrix entries must be numbers: {exc}") from exc
    if m.shape != (4, 4):
        raise MalformedInputError(f"matrix must be 4x4, got shape {m.shape}")
    if not all(_is_number(x) for row in raw for x in row):
        raise MalformedInputError("matrix entries must be numbers")
    if not np.isfinite(m).all():
        raise MalformedInputError("matrix entries must be finite")
    return m


def _load_request(args) -> dict:
    """Merge the JSON input document with command-line flags (flags win)."""
    payload: dict = {}
    if args.command != "selftest":
        if args.infile:
            try:
                with open(args.infile, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise MalformedInputError(f"cannot read input file: {exc}") from exc
        else:
            text = sys.stdin.read()
        try:
            payload = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # too deep a nesting
            raise MalformedInputError(f"input is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise MalformedInputError("input document must be a JSON object")
        unknown = set(payload) - {"matrix", "metric", "rep", "tol"}
        if unknown:
            raise MalformedInputError(f"unknown request keys: {sorted(unknown)}")

    request = {"command": args.command}
    for key, default in _DEFAULTS.items():  # a flag's string reads as its default's type
        flag = getattr(args, key)
        try:
            request[key] = payload.get(key, default) if flag is None else type(default)(flag)
        except ValueError:  # such as --tol 1e-9x or --seed 1.5
            kind = type(default).__name__
            raise MalformedInputError(f"cannot read --{key} {flag!r} as {kind}") from None
    if request["seed"] < 0:
        raise MalformedInputError("seed must be a non-negative integer")

    if not isinstance(request["metric"], str) or request["metric"] not in SIGNATURES:
        raise MalformedInputError(f"unknown metric tag {request['metric']!r}")
    if request["rep"] not in ("gamma", "regular"):
        raise MalformedInputError(f"unknown representation {request['rep']!r}")
    if not _is_number(request["tol"]):
        raise MalformedInputError("tol must be a number")
    if not 0.0 < request["tol"] <= sys.float_info.max:  # float() of a larger int overflows
        raise MalformedInputError("tol must be a positive finite number")
    request["tol"] = float(request["tol"])

    if args.command != "selftest":
        if "matrix" not in payload:
            raise MalformedInputError('input document must contain a "matrix" key')
        request["matrix"] = _parse_matrix(payload["matrix"])
    return request


# ---------------------------------------------------------------------------
# command bodies: one function per property returns its raw defects by name;
# the commands report them, and the selftest checks divide them by a scale.


def _bivector_invariants(L: Bivector, mu: MuPair) -> dict:
    return {
        "tr2_l": tr2(L),
        "det_l": det_bivector(L),
        "mu_plus": mu.mu_plus,
        "mu_minus": mu.mu_minus,
    }


def _transform_traces(lam: LorentzTransformation) -> dict:
    return dict(zip(("tr_lambda", "tr2_lambda"), lam._traces))


def _decomposition_defects(
    L: Bivector, l_plus: Bivector, l_minus: Bivector, mu: MuPair
) -> dict:
    """Defects of L = L+ + L-, L+ L- = L- L+ = 0, det L+- = 0, tr2 L+- = -mu+-."""
    return {
        "reconstruction_defect": maxabs(l_plus.matrix + l_minus.matrix - L.matrix),
        "annihilation_defect": maxabs(
            (l_plus.matrix @ l_minus.matrix, l_minus.matrix @ l_plus.matrix)),
        "det_plus": abs(det_bivector(l_plus)),
        "det_minus": abs(det_bivector(l_minus)),
        "tr2_defect_plus": abs(tr2(l_plus) + mu.mu_plus),
        "tr2_defect_minus": abs(tr2(l_minus) + mu.mu_minus),
    }


def _recovery_defects(L: Bivector, rep: Representation, parts=None):
    """(tr2 L, det L) recovered from sigma(L), and their defects; given L's parts
    (L+, L-), also the cross trace |tr(sigma(L+) sigma(L-))|."""
    recovered = recover_invariants(spin_rep(rep, L), rep)
    defects = {
        "tr2_recovery_defect": abs(recovered[0] - tr2(L)),
        "det_recovery_defect": abs(recovered[1] - det_bivector(L)),
    }
    if parts:
        defects["cross_trace_defect"] = _cross_trace(rep, *parts)
    return recovered, defects


def _block_defects(a, lam=None) -> dict:
    """Defects of a Weyl block A, row-major: given Lam, maxabs(Lam(A) - Lam) / maxabs(Lam);
    |det A - 1| / maxabs(A)^2, as |det(A/m) - 1/m^2| with m = maxabs(A), in range."""
    m = maxabs(a)
    a00, a01, a10, a11 = (a / m).tolist()
    defects = {} if lam is None else {
        "backward_error": maxabs(_vector_image(a) - lam.matrix) / lam._maxabs}
    defects["det_defect"] = abs(a00 * a11 - a01 * a10 - 1.0 / m / m)
    return defects


def _factor_defects(lam: LorentzTransformation, pair: FactorPair) -> dict:
    """Defects of Lam = Lam+ Lam- = Lam- Lam+, simple Lam+-, and the c+- identities."""
    mp, mm = pair.lambda_plus.matrix, pair.lambda_minus.matrix
    t, t2 = lam._traces
    return {
        "reconstruction_defect": maxabs(mp @ mm - lam.matrix),
        "commutation_defect": maxabs(mp @ mm - mm @ mp),
        "simplicity_defect_plus": simplicity_defect(*pair.lambda_plus._traces),
        "simplicity_defect_minus": simplicity_defect(*pair.lambda_minus._traces),
        "trace_identity_defect": abs(t - 2.0 * (pair.c_plus + pair.c_minus)),
        "tr2_identity_defect": abs(t2 - (4.0 * pair.c_plus * pair.c_minus + 2.0)),
    }


def _cmd_decompose(L: Bivector, rep: Representation, tol: float):
    l_plus, l_minus, mu = _decompose(L, tol)
    result = {
        "l_plus": _matrix_payload(l_plus.matrix),
        "l_minus": _matrix_payload(l_minus.matrix),
    }
    diagnostics = _decomposition_defects(L, l_plus, l_minus, mu)
    return "nonsimple", result, _bivector_invariants(L, mu), diagnostics


def _cmd_exp_spin(L: Bivector, rep: Representation, tol: float):
    a, branch = _exp_block(L, tol)
    result = {"exp_spin": _matrix_payload(_even_image(rep, a))}
    return branch, result, _bivector_invariants(L, mu_roots(L)), _block_defects(a)


def _cmd_log(lam: LorentzTransformation, rep: Representation, tol: float):
    L, k = _log(lam)
    result = {"log": _matrix_payload(L.matrix)}
    invariants = {
        **_transform_traces(lam),
        "k_factor": k,
        "mu": -tr2(L),
        "tr2_log": tr2(L),
    }
    diagnostics = {  # of exp(L)'s block
        **_block_defects(_exp_block(L)[0], lam),
        "simplicity_defect": simplicity_defect(*lam._traces),
    }
    kind = _simple_kind(det_bivector(L), tr2(L), L._maxabs, tol)
    return f"simple/{kind}" if kind else "nonsimple", result, invariants, diagnostics


def _cmd_factor(lam: LorentzTransformation, rep: Representation, tol: float):
    pair = factor_transform(lam, tol)
    mp, mm = pair.lambda_plus.matrix, pair.lambda_minus.matrix
    result = {
        "lambda_plus": _matrix_payload(mp),
        "lambda_minus": _matrix_payload(mm),
    }
    invariants = {
        **_transform_traces(lam),
        "delta": pair.delta,
        "c_plus": pair.c_plus,
        "c_minus": pair.c_minus,
        "tr_plus": pair.lambda_plus._traces[0],
        "tr_minus": pair.lambda_minus._traces[0],
    }
    return "nonsimple", result, invariants, _factor_defects(lam, pair)


def _cmd_lift(lam: LorentzTransformation, rep: Representation, tol: float):
    a, branch, _ = _lift_block(lam, tol)  # lift's two steps
    if branch == "simple" and maxabs(lam.matrix - np.eye(4)) <= IDENTITY_TOL:
        branch = "simple/identity"
    result = {"sigma": _matrix_payload(_even_image(rep, a))}
    invariants = {
        **_transform_traces(lam),
        "denominator": lift_denominator(*lam._traces),
        "simple": not branch.startswith("nonsimple"),  # _lift_block's trace criterion
    }
    return branch, result, invariants, _block_defects(a, lam)


def _cmd_invariants(L: Bivector, rep: Representation, tol: float):
    simple = is_simple(L, tol)
    parts = None if simple else orthogonal_decompose(L, tol)
    recovered, diagnostics = _recovery_defects(L, rep, parts)
    result = {"recovered_tr2": recovered[0], "recovered_det": recovered[1]}
    invariants = _bivector_invariants(L, mu_roots(L))
    return ("simple" if simple else "nonsimple"), result, invariants, diagnostics


_COMMAND_BODIES = {  # command: (the type its matrix is validated as, its body)
    "decompose": (Bivector, _cmd_decompose),
    "exp-spin": (Bivector, _cmd_exp_spin),
    "log": (LorentzTransformation, _cmd_log),
    "factor": (LorentzTransformation, _cmd_factor),
    "lift": (LorentzTransformation, _cmd_lift),
    "invariants": (Bivector, _cmd_invariants),
}


# ---------------------------------------------------------------------------
# selftest battery: each check draws each input once and yields every relative
# defect of each case, in an order their maximum ignores.  Draw i is judged once, in
# reps[i % len(reps)], as every identity holds alike in each faithful representation.
# Trial i draws at scales[i % len(scales)], the samplers' scale; selftest keeps 1.0.


def _trials(trials, scales):
    return zip(range(trials), itertools.cycle(scales))


def _nonsimple_draws(g, seed, trials, scales):
    """(L, L+, L-, mu) of each non-simple draw, split once for every use."""
    for i, c in _trials(trials, scales):
        L = random_nonsimple_bivector(g, seed + i, c)
        yield (L, *_decompose(L, SIMPLE_DET_TOL))


def _by_rep(reps, cases):
    """Each representation with its cases, case i in reps[i % len(reps)], for the
    rows that judge a stack; a representation with no case is left out."""
    n = len(reps)
    return [(rep, cases[k::n]) for k, rep in enumerate(reps) if cases[k::n]]


def _check_decomposition(g, reps, seed, trials, scales=(1.0,)):
    for L, l_plus, l_minus, mu in _nonsimple_draws(g, seed, trials, scales):
        defects = _decomposition_defects(L, l_plus, l_minus, mu)
        degrees = (1, 2, 4, 4, 2, 2)  # of each defect in L, in the order of the keys
        yield from (d / _floored(L._maxabs, k) for d, k in zip(defects.values(), degrees))


def _check_spin_square(g, reps, seed, trials, scales=(1.0,)):
    for rep, (i, c) in zip(itertools.cycle(reps), _trials(trials, scales)):
        W = random_wedge(g, seed + i, kind="any", scale=c)
        s = spin_rep(rep, W)
        yield maxabs(s @ s + 0.25 * tr2(W) * rep.identity) / _floored(W._maxabs, 2)


def _check_spin_decompose(g, reps, seed, trials, scales=(1.0,)):
    draws = _nonsimple_draws(g, seed, trials, scales)
    for rep, (L, l_plus, l_minus, mu) in zip(itertools.cycle(reps), draws):
        norm2 = _floored(L._maxabs, 2)
        s_plus, s_minus = spin_decompose(spin_rep(rep, L), mu)
        yield maxabs(s_plus - spin_rep(rep, l_plus)) / norm2
        yield maxabs(s_minus - spin_rep(rep, l_minus)) / norm2


def _check_cross_product(g, reps, seed, trials, scales=(1.0,)):
    draws = _nonsimple_draws(g, seed, trials, scales)
    for rep, (L, l_plus, l_minus, _) in zip(itertools.cycle(reps), draws):
        norm2 = _floored(L._maxabs, 2)
        sp = spin_rep(rep, l_plus)
        sm = spin_rep(rep, l_minus)
        predicted = spin_cross_product(spin_rep(rep, L), tr2(L), rep)
        yield maxabs(predicted - sp @ sm) / norm2
        yield maxabs(sp @ sm - sm @ sp) / norm2


def _check_recovery(g, reps, seed, trials, scales=(1.0,)):
    draws = _nonsimple_draws(g, seed, trials, scales)
    for rep, (L, *parts, _) in zip(itertools.cycle(reps), draws):
        norm2 = _floored(L._maxabs, 2)  # squared for det L: scale(L, 4) rounds apart
        _, defects = _recovery_defects(L, rep, parts)
        yield from (d / norm2**k for d, k in zip(defects.values(), (1, 2, 1)))


def _series_defects(images, outputs):
    """Each case's worst maxabs(output - exp_series(image)) / scale(series, 1), over
    one representation's cases: one referee call per image and one reduction."""
    series = np.stack([exp_series(s) for s in images])
    worst = slice_maxabs(np.stack(outputs) - series[:, None]).max(axis=1)
    return (worst / np.maximum(1.0, slice_maxabs(series))).tolist()


def _check_exp_agreement(g, reps, seed, trials, scales=(1.0,)):
    draws = [(L, parts) for L, *parts in _nonsimple_draws(g, seed, trials, scales)]
    wedges = [random_wedge(g, seed + 500 + j, kind=kind)
              for j, kind in enumerate(("rotation", "boost", "null"))]
    for rep, mine in _by_rep(reps, draws):
        outputs = [(_exp_factored(rep, *parts), exp_spin_polynomial(L, rep),
                    exp_spin(L, rep))  # the dispatcher itself
                   for L, parts in mine]
        yield from _series_defects([spin_rep(rep, L) for L, _ in mine], outputs)
    for rep, mine in _by_rep(reps, wedges):
        images = [spin_rep(rep, W) for W in mine]
        outputs = [(exp_spin_simple(s, tr2(W)), exp_spin(W, rep))
                   for s, W in zip(images, mine)]
        yield from _series_defects(images, outputs)


def _check_log_roundtrip(g, reps, seed, trials, scales=(1.0,)):
    kinds = ("rotation", "boost", "null")
    wedges = [random_wedge(g, seed + i, kind=kinds[i % 3], scale=c).matrix
              for i, c in _trials(trials, scales)]
    lams = [LorentzTransformation(exp_series(m), g) for m in wedges]
    logs = [log_simple(lam).matrix for lam in lams]
    defects = slice_maxabs(np.stack([exp_series(m) for m in logs])
                           - [lam.matrix for lam in lams])
    yield from (defects / np.maximum(1.0, [lam._maxabs for lam in lams])).tolist()


def _check_factor(g, reps, seed, trials, scales=(1.0,)):
    for i, c in _trials(trials, scales):
        lam = random_nonsimple_transformation(g, seed + i, c)
        pair = factor_transform(lam)
        defects = _factor_defects(lam, pair)
        norm = _floored(lam._maxabs, 1)
        yield from (
            defects["reconstruction_defect"] / norm,
            defects["commutation_defect"] / norm,
            # each factor's trace criterion, relative to max(1, tr2, tr) of that factor
            defects["simplicity_defect_plus"] / max(1.0, *pair.lambda_plus._traces),
            defects["simplicity_defect_minus"] / max(1.0, *pair.lambda_minus._traces),
            defects["trace_identity_defect"] / norm,
            defects["tr2_identity_defect"] / _floored(lam._maxabs, 2),
        )


def _check_lift(g, reps, seed, trials, scales=(1.0,)):
    lams = [random_nonsimple_transformation(g, seed + i, c)
            for i, c in _trials(trials, scales)]
    wedges = [random_wedge(g, seed + 600 + j, kind=kind).matrix
              for j, kind in enumerate(("rotation", "boost"))]
    lams += [LorentzTransformation(exp_series(m), g) for m in wedges]
    lams.append(traceless_simple_transformation(g, seed + 700))
    lams.append(degenerate_denominator_transformation(g, seed + 800))
    for rep, mine in _by_rep(reps, lams):
        sigmas = np.stack([lift(lam, rep) for lam in mine])
        yield from intertwining_defect(sigmas, mine, rep).tolist()


def _check_homomorphism(g, reps, seed, trials, scales=(1.0,)):
    pairs = []
    for i, c in _trials(trials, scales):
        lam1 = random_nonsimple_transformation(g, seed + 2 * i, c)
        lam2 = random_nonsimple_transformation(g, seed + 2 * i + 1, c)
        pairs.append((lam1, lam2, lam1 @ lam2))
    for rep, mine in _by_rep(reps, pairs):
        sigmas = np.stack([lift(lam1, rep) @ lift(lam2, rep) for lam1, lam2, _ in mine])
        yield from intertwining_defect(sigmas, [lam for *_, lam in mine], rep).tolist()


def _check_double_cover(g, reps, seed, trials, scales=(1.0,)):
    for rep, (i, c) in zip(itertools.cycle(reps), _trials(trials, scales)):
        W = random_wedge(g, seed + i, kind="rotation", scale=c)
        angle = math.sqrt(tr2(W))
        W2 = W * ((angle + 2.0 * math.pi) / angle)
        base = exp_spin(W, rep)
        yield maxabs(exp_spin(W2, rep) + base) / scale(base, 1)


_SELFTEST_CHECKS = (
    ("bivector-decomposition", _check_decomposition, 1e-8),
    ("spin-square-scalar", _check_spin_square, 1e-10),
    ("spin-decompose", _check_spin_decompose, 1e-9),
    ("spin-cross-product", _check_cross_product, 1e-9),
    ("invariant-recovery", _check_recovery, 1e-8),
    ("exp-agreement", _check_exp_agreement, 1e-9),
    ("log-roundtrip", _check_log_roundtrip, 1e-8),
    ("factor-properties", _check_factor, 1e-8),
    ("lift-intertwining", _check_lift, 1e-7),
    ("homomorphism-pairs", _check_homomorphism, 1e-7),
    ("double-cover-sign", _check_double_cover, 1e-9),
)


def run_selftest(metric_tag: str, seed: int, trials: int = _SELFTEST_TRIALS) -> dict:
    """Run the full property battery; each case is judged once, and the cases
    alternate between the gamma and the regular representation."""
    if trials < 1:  # the stacked rows judge at least one draw
        raise ValueError(f"selftest needs at least one trial, got {trials}")
    g = make_metric(metric_tag)
    reps = (representation("gamma", g), representation("regular", g))
    checks = []
    for index, (name, check, tol) in enumerate(_SELFTEST_CHECKS):
        row = {"name": name, "cases": trials, "max_defect": None, "tol": tol,
               "passed": False}
        try:
            defects = (0.0, *check(g, reps, seed + 1000 * index, trials))
        except SpinLiftError as exc:  # the row fails with its code; the battery goes on
            row["error"] = exc.code
        else:  # max() would drop a NaN, and the renderer refuses non-finite floats
            if all(map(math.isfinite, defects)):
                row["max_defect"] = max(defects)
                row["passed"] = bool(row["max_defect"] <= tol)
        checks.append(row)
    return {"checks": checks, "all_passed": all(c["passed"] for c in checks)}


# ---------------------------------------------------------------------------
# driver


def run_request(request: dict) -> dict:
    """Execute a parsed request and assemble the response document."""
    doc = {key: request[key] for key in ("command", "metric", "rep", "tol")}
    if request["command"] == "selftest":
        report = run_selftest(request["metric"], request["seed"])
        return dict(doc, seed=request["seed"], trials=_SELFTEST_TRIALS, result=report)
    g = make_metric(request["metric"])
    rep = representation(request["rep"], g)
    input_type, body = _COMMAND_BODIES[request["command"]]
    outcome = body(input_type(request["matrix"], g), rep, request["tol"])
    doc["input"] = {"matrix": _matrix_payload(request["matrix"])}
    doc.update(zip(("branch", "result", "invariants", "diagnostics"), outcome))
    return doc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinlift",
        description="Closed-form Lorentz bivector decomposition and spin lifts.",
    )
    parser.add_argument("command", choices=(*_COMMAND_BODIES, "selftest"))
    for key in _DEFAULTS:  # strings, which _load_request reads and checks
        parser.add_argument(f"--{key}")
    parser.add_argument("--in", dest="infile")
    parser.add_argument("--out", dest="outfile")
    return parser


def _emit(text: str, outfile):
    if outfile:
        with open(outfile, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _error_document(exc: SpinLiftError) -> str:
    return render_document({"error": {"code": exc.code, "message": str(exc)}})


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        request = _load_request(args)
        doc = run_request(request)
        text = render_document(doc)
        failed = request["command"] == "selftest" and not doc["result"]["all_passed"]
        code = 1 if failed else 0
    except SpinLiftError as exc:
        text = _error_document(exc)
        code = 2 if isinstance(exc, MalformedInputError) else 1
    try:
        _emit(text, args.outfile)
    except OSError as exc:  # an unwritable --out, as an unreadable --in: to stdout
        sys.stdout.write(_error_document(
            MalformedInputError(f"cannot write output file: {exc}")))
        return 2
    return code

if __name__ == "__main__":
    sys.exit(main())
