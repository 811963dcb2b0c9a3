import itertools
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from spinlift import (Bivector, InvalidTransformationError, MalformedInputError, cli,
                      exp_series, exp_spin_simple, lift, make_metric, representation,
                      spin_rep, tr2, wedge)
from spinlift.cli import main, run_selftest
from spinlift.sampling import _transformation

E = np.eye(4)
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO_ROOT / "tests" / "golden"
REGEN = os.environ.get("REGEN_GOLDENS") == "1"


def fixed_inputs():
    g = make_metric()
    block = (wedge(g, E[0], E[1]) + wedge(g, E[2], E[3])).matrix
    return {
        "decompose": block,
        "exp-spin": block,
        "log": exp_series(wedge(g, E[2], E[3]).matrix),
        "factor": exp_series(block),
        "lift": np.eye(4),
        "invariants": wedge(g, E[0], E[1]).matrix,
    }


def run_cli(args, tmp_path, request_payload=None):
    argv = list(args)
    if request_payload is not None:
        infile = tmp_path / "request.json"
        infile.write_text(json.dumps(request_payload, indent=2) + "\n")
        argv += ["--in", str(infile)]
    outfile = tmp_path / "response.json"
    argv += ["--out", str(outfile)]
    code = main(argv)
    return code, outfile.read_bytes()


def golden_paths(name):
    return GOLDEN_DIR / f"{name}.request.json", GOLDEN_DIR / f"{name}.golden.json"


@pytest.mark.parametrize(
    "command", ["decompose", "exp-spin", "log", "factor", "lift", "invariants"]
)
def test_golden_matrix_commands(command, tmp_path):
    request_file, golden_file = golden_paths(command)
    if REGEN:
        payload = {"matrix": fixed_inputs()[command].tolist()}
        request_file.parent.mkdir(exist_ok=True)
        request_file.write_text(json.dumps(payload, indent=2) + "\n")
    outfile = tmp_path / "out.json"
    code = main([command, "--in", str(request_file), "--out", str(outfile)])
    assert code == 0
    if REGEN:
        golden_file.write_bytes(outfile.read_bytes())
    assert outfile.read_bytes() == golden_file.read_bytes()


@pytest.mark.parametrize(
    "name, metric, seed",
    [("selftest", "pmmm", 7), ("selftest-mppp", "mppp", 11)],
    ids=["pmmm", "mppp"],
)
def test_golden_selftest(name, metric, seed, tmp_path):
    _, golden_file = golden_paths(name)
    outfile = tmp_path / "out.json"
    code = main(
        ["selftest", "--metric", metric, "--seed", str(seed), "--out", str(outfile)]
    )
    assert code == 0
    if REGEN:
        golden_file.parent.mkdir(exist_ok=True)
        golden_file.write_bytes(outfile.read_bytes())
    assert outfile.read_bytes() == golden_file.read_bytes()
    report = json.loads(outfile.read_bytes())
    assert report["result"]["all_passed"] is True
    assert len(report["result"]["checks"]) == 11


def test_output_is_deterministic(tmp_path):
    request_file, _ = golden_paths("decompose")
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["decompose", "--in", str(request_file), "--out", str(a)]) == 0
    assert main(["decompose", "--in", str(request_file), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_floats_reingest_exactly(tmp_path):
    request_file, _ = golden_paths("factor")
    outfile = tmp_path / "out.json"
    main(["factor", "--in", str(request_file), "--out", str(outfile)])
    doc = json.loads(outfile.read_text())
    rebuilt = np.array(doc["result"]["lambda_plus"])
    g = make_metric()
    expected = exp_series(wedge(g, E[0], E[1]).matrix)
    assert np.abs(rebuilt - expected).max() < 1e-8


def test_domain_error_exit_code(tmp_path):
    g = make_metric()
    payload = {"matrix": wedge(g, E[0], E[1]).matrix.tolist()}
    code, out = run_cli(["decompose"], tmp_path, payload)
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["code"] == "SimpleInput"


def run_child(command, matrix, tmp_path):
    """Run ``spinlift <command>`` on a matrix in a child process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "spinlift.cli", command],
        input=json.dumps({"matrix": matrix.tolist()}), capture_output=True, text=True,
        env=env, cwd=tmp_path,
    )


def assert_typed_error(command, matrix, code, tmp_path):
    """A child ``spinlift <command>`` exits 1 with one JSON error and empty stderr."""
    proc = run_child(command, matrix, tmp_path)
    assert (proc.returncode, proc.stderr) == (1, "")
    assert json.loads(proc.stdout)["error"]["code"] == code


def test_lift_answers_past_the_referee_cond_limit(tmp_path):
    # framed Lam of rapidity 28: cond Sigma ~ e^28 passes the referee's limit, so
    # intertwining_defect cannot judge the library's Sigma.  The diagnostics read
    # lift's own block A, whose image Lam(A) is Lam to a backward error of ~u.
    g = make_metric()
    rep = representation("gamma", g)
    for seed in range(10):
        lam = _transformation(g, np.random.default_rng(seed), 28.0, 1.0)
        proc = run_child("lift", lam.matrix, tmp_path)
        assert (proc.returncode, proc.stderr) == (0, ""), seed
        doc = json.loads(proc.stdout)
        pairs = np.array(doc["result"]["sigma"])  # [re, im] per entry, 17 digits
        assert np.array_equal(pairs[..., 0] + 1j * pairs[..., 1], lift(lam, rep)), seed
        assert list(doc["diagnostics"]) == ["backward_error", "det_defect"], seed
        assert doc["diagnostics"]["backward_error"] <= 1e-13, seed


def test_transformation_overflow_exit_code(tmp_path):
    # exp(500 b01) has entries of ~1e217, whose squares leave the float range.  The
    # diagnostics read exp-spin's block, never a Lam = exp(L): exit 0, the answer
    # cosh 250 I + (sinh 250 / 250) sigma(500 b01), no warning
    g = make_metric()
    L = 500.0 * wedge(g, E[0], E[1])
    proc = run_child("exp-spin", L.matrix, tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    pairs = np.array(json.loads(proc.stdout)["result"]["exp_spin"])
    expected = (math.cosh(250.0) * np.eye(4)
                + math.sinh(250.0) / 250.0 * spin_rep(representation("gamma", g), L))
    error = np.abs(pairs[..., 0] + 1j * pairs[..., 1] - expected).max()
    assert error <= 1e-15 * math.cosh(250.0)


def golden_exp_spin_request(rapidity):
    """The exp-spin golden's b01 + b23 with its boost part at the given rapidity."""
    matrix = np.array(json.loads(golden_paths("exp-spin")[0].read_text())["matrix"])
    matrix[0, 1] = matrix[1, 0] = rapidity
    return matrix


@pytest.mark.parametrize("rapidity", [20.0, 30.0, 700.0, 800.0, 1400.0])
def test_exp_spin_answers_large_rapidity(rapidity, tmp_path):
    # a boost of the rapidity next to a rotation by 1: cond Sigma ~ e^rapidity passes
    # the referee's limit, and Lam = exp(L) is too large to validate past ~355.  The
    # block's det defect stays at the rounding level, and the answer is the product
    # of the two parts' two-term exponentials
    g = make_metric()
    rep = representation("gamma", g)
    matrix = golden_exp_spin_request(rapidity)
    proc = run_child("exp-spin", matrix, tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    doc = json.loads(proc.stdout)
    assert list(doc["diagnostics"]) == ["det_defect"]
    assert doc["diagnostics"]["det_defect"] <= 2e-15
    boost = np.where(np.abs(matrix) == rapidity, matrix, 0.0)
    parts = [Bivector(m, g) for m in (boost, matrix - boost)]
    expected = np.linalg.multi_dot(
        [exp_spin_simple(spin_rep(rep, W), tr2(W)) for W in parts])
    pairs = np.array(doc["result"]["exp_spin"])
    error = np.abs(pairs[..., 0] + 1j * pairs[..., 1] - expected).max()
    assert error <= 1e-15 * np.abs(expected).max()


def test_exp_spin_overflow_past_rapidity_1420(tmp_path):
    # cosh s itself overflows at s = 750 - i/2: exp_spin's own typed error stays
    assert_typed_error("exp-spin", golden_exp_spin_request(1500.0), "NonFiniteOutput",
                       tmp_path)


@pytest.mark.parametrize("sig", ["pmmm", "mppp"])
@pytest.mark.parametrize("command", ["lift", "log"])
def test_backward_error_at_rapidity_28(command, sig, tmp_path):
    # framed Lam of rapidity 28 and angle 1: Lam(A) of the block each request built,
    # lift's A or the block of exp(L) for log, is Lam to 1e-13 relative
    g = make_metric(sig)
    for seed in range(10):
        lam = _transformation(g, np.random.default_rng(seed), 28.0, 1.0)
        for kind in ("gamma", "regular"):
            payload = {"matrix": lam.matrix.tolist(), "metric": sig, "rep": kind}
            code, out = run_cli([command], tmp_path, payload)
            assert code == 0, (seed, kind)
            diagnostics = json.loads(out)["diagnostics"]
            assert diagnostics["backward_error"] <= 1e-13, (seed, kind)
            assert diagnostics["det_defect"] <= 2e-15, (seed, kind)


@pytest.mark.parametrize("command, coefficients, code", [
    ("exp-spin", (1e100, 1e100), "InvalidBivector"),
    ("decompose", (1e100, 1e100), "InvalidBivector"),
    ("invariants", (1e100, 1e100), "InvalidBivector"),
    ("exp-spin", (1500.0, 0.0), "NonFiniteOutput"),
])
def test_bivector_overflow_exit_code(command, coefficients, code, tmp_path):
    # maxabs^4 of 1e100 (b01 + b23), the degree of is_simple's gate, leaves the float
    # range in the Bivector validator; cosh s at rapidity 1500 does in exp_spin
    g = make_metric()
    c01, c23 = coefficients
    matrix = c01 * wedge(g, E[0], E[1]).matrix + c23 * wedge(g, E[2], E[3]).matrix
    assert_typed_error(command, matrix, code, tmp_path)


@pytest.mark.parametrize("command", ["lift", "log"])
def test_lost_spinor_phase_exit_code(command, tmp_path):
    # a framed boost of rapidity 50 whose spinor det A rounds to 0, which leaves no
    # phase: see test_group_lift.py::test_spinor_refuses_lost_phase
    lam = _transformation(make_metric(), np.random.default_rng(3), rapidity=50.0)
    assert_typed_error(command, lam.matrix, "NonFiniteOutput", tmp_path)


def test_rank_deficiency_exit_code(tmp_path):
    # rotations by pi times boosts of rapidity 1e-5 and 1e-4: see
    # test_group_lift.py::test_lift_rank_deficiency
    g = make_metric()
    rep = representation("gamma", g)
    for rapidity, expected in ((1e-5, "special/traceless"), (1e-4, "nonsimple/special")):
        L = rapidity * wedge(g, E[0], E[1]) + math.pi * wedge(g, E[2], E[3])
        code, out = run_cli(["lift"], tmp_path, {"matrix": exp_series(L.matrix).tolist()})
        assert code == 0
        doc = json.loads(out)
        assert doc["branch"] == expected
        pairs = np.array(doc["result"]["sigma"])  # [re, im] per entry
        sigma, ref = pairs[..., 0] + 1j * pairs[..., 1], exp_series(spin_rep(rep, L))
        assert min(np.abs(sigma - ref).max(), np.abs(sigma + ref).max()) <= 1e-12


def test_log_near_pi_rotation_is_accurate(tmp_path):
    # is_simple_transform's quadratic gate calls this Lam simple; the log of the
    # simple formula, k (Lam - Lam^{-1}) / 2, was 1.0e-3 from L relative to |L|
    g = make_metric()
    L = 1e-6 * wedge(g, E[0], E[1]).matrix + (math.pi - 1e-3) * wedge(g, E[2], E[3]).matrix
    code, out = run_cli(["log"], tmp_path, {"matrix": exp_series(L).tolist()})
    assert code == 0
    log = np.array(json.loads(out)["result"]["log"])
    assert np.abs(log - L).max() <= 1e-10 * np.abs(L).max()


@pytest.mark.parametrize("command, branch", [
    ("exp-spin", "nonsimple/polynomial"), ("decompose", "nonsimple"), ("invariants", "nonsimple"),
])
def test_exp_spin_tol_flag(command, branch, tmp_path):
    # b01 + 1e-5 b23 is non-simple at --tol 1e-12, and every command decomposes it there
    g = make_metric()
    L = wedge(g, E[0], E[1]) + 1e-5 * wedge(g, E[2], E[3])
    code, out = run_cli([command, "--tol", "1e-12"], tmp_path, {"matrix": L.matrix.tolist()})
    assert code == 0
    assert json.loads(out)["branch"] == branch


@pytest.mark.parametrize("sig", ["pmmm", "mppp"])
def test_log_next_to_half_turn(sig, tmp_path):
    # tr Lam = 1e-8: at --tol 1e-6 the trace criterion calls this non-simple Lam
    # simple, and the simple formula's k = x / sin x = 2.6e16 made a NaN roundtrip.
    # --tol names the label only, in the units of the bivector gate: L is simple
    # there, |det L| <= 1e-6 maxabs(L)^4.  The block is the spinor map's: no k.
    g = make_metric(sig)
    L = 1e-4 * wedge(g, E[0], E[1]).matrix + math.pi * wedge(g, E[2], E[3]).matrix
    payload = {"matrix": exp_series(L).tolist()}
    code, out = run_cli(["log", "--metric", sig, "--tol", "1e-6"], tmp_path, payload)
    assert code == 0
    doc = json.loads(out)
    assert doc["branch"] == "simple/trig"
    assert doc["invariants"]["k_factor"] is None
    assert np.abs(np.array(doc["result"]["log"]) - L).max() <= 1e-14 * math.pi
    assert doc["diagnostics"]["backward_error"] <= 1e-14


def test_non_finite_output_exit_code(monkeypatch, tmp_path):
    # a command body whose diagnostic is NaN: the renderer refuses it, exit 1
    def body(matrix, g, rep, tol):
        return "nonsimple", {}, {}, {"defect": math.nan}

    monkeypatch.setitem(cli._COMMAND_BODIES, "log", body)
    code, out = run_cli(["log"], tmp_path, {"matrix": np.eye(4).tolist()})
    assert code == 1
    assert json.loads(out)["error"]["code"] == "NonFiniteOutput"


def test_invalid_bivector_exit_code(tmp_path):
    code, out = run_cli(["decompose"], tmp_path, {"matrix": np.eye(4).tolist()})
    assert code == 1
    assert json.loads(out)["error"]["code"] == "InvalidBivector"


def test_malformed_shape(tmp_path):
    code, out = run_cli(["decompose"], tmp_path, {"matrix": [[1.0, 2.0], [3.0, 4.0]]})
    assert code == 2
    assert json.loads(out)["error"]["code"] == "MalformedInput"


def assert_malformed(code, out):
    assert code == 2
    assert json.loads(out)["error"]["code"] == MalformedInputError.code


def test_malformed_entries(tmp_path):
    bad = [[0.0] * 4 for _ in range(4)]
    # strings and booleans are not numbers, even where float() would take them
    for entry in ("x", None, "0", "1", True, False, 10**400):
        bad[0][1] = entry
        assert_malformed(*run_cli(["decompose"], tmp_path, {"matrix": bad}))


def test_malformed_json(tmp_path):
    infile = tmp_path / "broken.json"
    infile.write_text("{not json")
    outfile = tmp_path / "out.json"
    for path in (infile, tmp_path / "missing.json", tmp_path):
        outfile.unlink(missing_ok=True)
        code = main(["decompose", "--in", str(path), "--out", str(outfile)])
        assert_malformed(code, outfile.read_bytes())


def test_malformed_deep_json(tmp_path):
    # json.loads recurses once per array level
    infile = tmp_path / "deep.json"
    infile.write_text("[" * 100_000 + "]" * 100_000)
    outfile = tmp_path / "out.json"
    code = main(["decompose", "--in", str(infile), "--out", str(outfile)])
    assert_malformed(code, outfile.read_bytes())


def test_unwritable_out_file(tmp_path, capsys):
    # as an unreadable --in: a MalformedInput document on stdout, exit 2
    request_file, _ = golden_paths("invariants")
    outfile = tmp_path / "missing" / "out.json"
    code = main(["invariants", "--in", str(request_file), "--out", str(outfile)])
    assert_malformed(code, capsys.readouterr().out)
    assert not outfile.parent.exists()
    code = main(["invariants", "--in", str(tmp_path / "none.json"), "--out", str(outfile)])
    assert_malformed(code, capsys.readouterr().out)


def test_malformed_missing_matrix(tmp_path):
    code, out = run_cli(["invariants"], tmp_path, {})
    assert code == 2


def test_malformed_unknown_key(tmp_path):
    g = make_metric()
    payload = {"matrix": wedge(g, E[0], E[1]).matrix.tolist(), "mode": "fast"}
    code, _ = run_cli(["invariants"], tmp_path, payload)
    assert code == 2


def test_malformed_bad_tags(tmp_path):
    g = make_metric()
    matrix = wedge(g, E[0], E[1]).matrix.tolist()
    for key, value in (("metric", "ppmm"), ("metric", ["pmmm"]), ("metric", {"tag": "pmmm"}),
                       ("rep", ["gamma"]), ("tol", -1.0), ("tol", "1e-6"), ("tol", True),
                       ("tol", 10**400)):
        assert_malformed(*run_cli(["invariants"], tmp_path, {"matrix": matrix, key: value}))


def test_unknown_command_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["transmogrify"])
    assert err.value.code == 2


def test_flag_overrides_json(tmp_path):
    g = make_metric()
    payload = {"matrix": wedge(g, E[0], E[1]).matrix.tolist(), "rep": "regular"}
    code, out = run_cli(["invariants"], tmp_path, payload)
    assert code == 0 and json.loads(out)["rep"] == "regular"
    code, out = run_cli(["invariants", "--rep", "gamma"], tmp_path, payload)
    assert code == 0 and json.loads(out)["rep"] == "gamma"


def test_mppp_request(tmp_path):
    g_alt = make_metric("mppp")
    payload = {"matrix": (wedge(g_alt, E[0], E[1]) + wedge(g_alt, E[2], E[3])).matrix.tolist()}
    code, out = run_cli(["decompose", "--metric", "mppp"], tmp_path, payload)
    assert code == 0
    doc = json.loads(out)
    assert doc["metric"] == "mppp"
    assert doc["diagnostics"]["reconstruction_defect"] < 1e-12


def test_selftest_report_structure():
    report = run_selftest("pmmm", seed=123, trials=3)
    assert report["all_passed"] is True
    for check in report["checks"]:
        assert check["max_defect"] <= check["tol"]
        assert check["cases"] == 3


def test_selftest_needs_a_trial():
    with pytest.raises(ValueError, match="at least one trial"):
        run_selftest("pmmm", seed=123, trials=0)


@pytest.mark.parametrize(
    "defects",
    [(math.nan,), (1e-12, math.nan), (math.nan, 1e-12)],
    ids=["nan", "finite-then-nan", "nan-then-finite"],
)
def test_selftest_nan_defect_fails(defects, monkeypatch, capsys):
    # max() alone would drop the NaN and report the check as passed
    def check(g, reps, seed, trials):
        yield from defects

    monkeypatch.setattr(cli, "_SELFTEST_CHECKS", (("nan-check", check, 1e-9),))
    assert main(["selftest"]) == 1
    report = json.loads(capsys.readouterr().out)["result"]
    assert report["all_passed"] is False
    assert report["checks"][0]["max_defect"] is None
    assert report["checks"][0]["passed"] is False


def test_selftest_row_that_raises_fails_alone(monkeypatch, capsys):
    # a row that raises a SpinLiftError reports its code; every other row still runs
    def raising(g, reps, seed, trials, scales=(1.0,)):
        yield 1e-17
        raise InvalidTransformationError("matrix does not preserve the metric")

    rows = list(cli._SELFTEST_CHECKS)
    name, _, tol = rows[7]
    rows[7] = (name, raising, tol)
    monkeypatch.setattr(cli, "_SELFTEST_CHECKS", tuple(rows))
    assert main(["selftest"]) == 1
    report = json.loads(capsys.readouterr().out)["result"]
    assert report["all_passed"] is False
    assert [c["name"] for c in report["checks"]] == [row[0] for row in rows]
    failed = report["checks"].pop(7)
    assert failed == {"name": name, "cases": 10, "max_defect": None, "tol": tol,
                      "passed": False, "error": "InvalidTransformation"}
    assert len(report["checks"]) == 10
    assert all(c["passed"] and "error" not in c for c in report["checks"])


def nan_in_second_part(f):
    # (first, second) -> (first, NaN * second)
    def patched(*args):
        first, second = f(*args)
        return first, math.nan * second
    return patched


def nan_in_recovered_det(f):
    def patched(*args):
        recovered, defects = f(*args)
        return recovered, {**defects, "det_recovery_defect": math.nan}
    return patched


def nan_in_commutation(maxabs):
    # _check_cross_product takes two maxabs per case and representation, the
    # commutation defect second: that one reads NaN, and no other row's
    calls = itertools.count()

    def patched(m):
        if sys._getframe(1).f_code.co_name == "_check_cross_product" and next(calls) % 2:
            return math.nan
        return maxabs(m)
    return patched


# row -> the cli name patched and its wrapper: each puts a NaN in a defect of the
# row's cases that is not the first
NAN_INJECTIONS = {
    "bivector-decomposition": (
        "_decomposition_defects", lambda f: lambda *a: {**f(*a), "det_minus": math.nan}),
    "spin-decompose": ("spin_decompose", nan_in_second_part),
    "spin-cross-product": ("maxabs", nan_in_commutation),
    "invariant-recovery": ("_recovery_defects", nan_in_recovered_det),
    "factor-properties": (
        "_factor_defects", lambda f: lambda *a: {**f(*a), "commutation_defect": math.nan}),
}


@pytest.mark.parametrize("row", sorted(NAN_INJECTIONS))
def test_selftest_row_with_a_later_nan_defect_fails_alone(row, monkeypatch):
    # a max() over each case's defects keeps the first and drops a NaN after it:
    # run_selftest is the only reducer, and it sees every defect
    name, wrap = NAN_INJECTIONS[row]
    monkeypatch.setattr(cli, name, wrap(getattr(cli, name)))
    report = run_selftest("pmmm", seed=0, trials=2)
    failed = [check for check in report["checks"] if not check["passed"]]
    assert [(c["name"], c["max_defect"]) for c in failed] == [(row, None)]


def load_pyproject():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)


def test_console_script(tmp_path):
    # Run the declared [project.scripts] target in a fresh interpreter, the way
    # the installed `spinlift` wrapper does, so no install is needed.
    module, attr = load_pyproject()["project"]["scripts"]["spinlift"].split(":")
    launcher = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    request_file, _ = golden_paths("lift")
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "lift", "--in", str(request_file)],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["branch"] == "simple/identity"
