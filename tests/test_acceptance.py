"""End-to-end acceptance battery.

Each test covers one numbered criterion, aggregates its worst-case defect
over seeded random inputs, and prints a single [PASS]/[FAIL] line (visible
with ``pytest -rA`` or on failure).
"""

import json
import math
import pathlib

import numpy as np
import pytest

from spinlift import (
    LorentzTransformation,
    det_bivector,
    exp_series,
    exp_spin,
    exp_spin_factored,
    exp_spin_polynomial,
    exp_spin_simple,
    factor_transform,
    intertwining_defect,
    is_simple,
    is_simple_transform,
    lift,
    lift_nonsimple,
    lift_simple,
    log,
    make_metric,
    mu_roots,
    orthogonal_decompose,
    random_bivector,
    recover_invariants,
    representation,
    sign_normalize,
    spin_cross_product,
    spin_decompose,
    spin_rep,
    tr2,
    tr2_transform,
    wedge,
)
from spinlift.cli import main as cli_main
from spinlift.sampling import (
    degenerate_denominator_transformation,
    random_nonsimple_bivector,
    random_nonsimple_transformation,
    random_wedge,
    traceless_simple_transformation,
)
from spinlift.spin import cross_trace_check

E = np.eye(4)
GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
SCALES = (0.5, 1.0, 2.0, 5.0)


def mabs(m):
    return float(np.abs(np.asarray(m)).max())


def report(num, label, defect, tol):
    status = "PASS" if defect <= tol else "FAIL"
    print(f"[{status}] criterion {num}: {label}: max defect {defect:.3e} (tol {tol:.0e})")
    assert defect <= tol


def both_reps(g):
    return representation("gamma", g), representation("regular", g)


def test_criterion_01_orthogonal_decomposition():
    g = make_metric()
    worst = 0.0
    for i in range(1000):
        L = random_nonsimple_bivector(g, i, scale=SCALES[i % 4])
        l_plus, l_minus = orthogonal_decompose(L)
        mu = mu_roots(L)
        s = max(1.0, mabs(L.matrix))
        worst = max(
            worst,
            mabs(l_plus.matrix @ l_minus.matrix) / s**2,
            mabs(l_minus.matrix @ l_plus.matrix) / s**2,
            mabs(l_plus.matrix + l_minus.matrix - L.matrix) / s,
            abs(det_bivector(l_plus)) / s**4,
            abs(det_bivector(l_minus)) / s**4,
            abs(tr2(l_plus) + mu.mu_plus) / s**2,
            abs(tr2(l_minus) + mu.mu_minus) / s**2,
        )
    report(1, "orthogonal decomposition over 1000 nonsimple bivectors", worst, 1e-8)


def test_criterion_02_spin_square_scalar():
    g = make_metric()
    kinds = ("any", "rotation", "boost", "null")
    worst = 0.0
    for rep in both_reps(g):
        for i in range(500):
            W = random_wedge(g, i, kind=kinds[i % 4], scale=SCALES[i % 3])
            s = spin_rep(rep, W)
            rel = max(1.0, mabs(W.matrix) ** 2)
            worst = max(worst, mabs(s @ s + 0.25 * tr2(W) * rep.identity) / rel)
    report(2, "sigma(L)^2 = -tr2(L)/4 I on 500 wedges, both reps", worst, 1e-10)


def test_criterion_03_spin_decomposition():
    g = make_metric()
    worst = 0.0
    for rep in both_reps(g):
        for i in range(500):
            L = random_nonsimple_bivector(g, 30000 + i, scale=SCALES[i % 3])
            l_plus, l_minus = orthogonal_decompose(L)
            s_plus, s_minus = spin_decompose(spin_rep(rep, L), mu_roots(L))
            rel = max(1.0, mabs(L.matrix) ** 2)
            worst = max(
                worst,
                mabs(s_plus - spin_rep(rep, l_plus)) / rel,
                mabs(s_minus - spin_rep(rep, l_minus)) / rel,
            )
    report(3, "cubic spin decomposition matches matrix level, both reps", worst, 1e-9)


def test_criterion_04_commuting_product():
    g = make_metric()
    worst = 0.0
    for rep in both_reps(g):
        for i in range(500):
            L = random_nonsimple_bivector(g, 40000 + i, scale=SCALES[i % 3])
            l_plus, l_minus = orthogonal_decompose(L)
            sp = spin_rep(rep, l_plus)
            sm = spin_rep(rep, l_minus)
            predicted = spin_cross_product(spin_rep(rep, L), tr2(L), rep)
            rel = max(1.0, mabs(L.matrix) ** 2)
            worst = max(
                worst,
                mabs(predicted - sp @ sm) / rel,
                mabs(sp @ sm - sm @ sp) / rel,
            )
    report(4, "product identity and commutation of spin parts", worst, 1e-9)


def test_criterion_05_invariant_recovery():
    g = make_metric()
    worst = 0.0
    worst_cross = 0.0
    for rep in both_reps(g):
        for i in range(500):
            if i % 5 == 4:
                L = random_wedge(g, 50000 + i, scale=SCALES[i % 3])
            else:
                L = random_bivector(g, 50000 + i, scale=SCALES[i % 3])
            rec_tr2, rec_det = recover_invariants(spin_rep(rep, L), rep)
            rel = max(1.0, mabs(L.matrix) ** 2)
            worst = max(
                worst,
                abs(rec_tr2 - tr2(L)) / rel,
                abs(rec_det - det_bivector(L)) / rel**2,
            )
            if not is_simple(L):
                worst_cross = max(worst_cross, cross_trace_check(rep, L) / rel)
    assert worst_cross <= 1e-9
    report(
        5,
        "trace recovery of (tr2, det) in trI=4 and trI=16 reps "
        f"(cross-trace {worst_cross:.1e} <= 1e-9)",
        worst,
        1e-8,
    )


def test_criterion_06_exponential_theorems():
    g = make_metric()
    worst_nonsimple = 0.0
    worst_simple = 0.0
    kinds = ("rotation", "boost", "null")
    for rep in both_reps(g):
        for i in range(500):
            L = random_nonsimple_bivector(g, 60000 + i, scale=SCALES[i % 3])
            series = exp_series(spin_rep(rep, L))
            rel = max(1.0, mabs(series))
            worst_nonsimple = max(
                worst_nonsimple,
                mabs(exp_spin_factored(L, rep) - series) / rel,
                mabs(exp_spin_polynomial(L, rep) - series) / rel,
            )
        for i in range(500):
            W = random_wedge(g, 65000 + i, kind=kinds[i % 3], scale=SCALES[i % 3])
            s = spin_rep(rep, W)
            series = exp_series(s)
            rel = max(1.0, mabs(series))
            worst_simple = max(worst_simple, mabs(exp_spin_simple(s, tr2(W)) - series) / rel)
    assert worst_simple <= 1e-10
    report(
        6,
        "closed-form exponentials vs series "
        f"(simple branch {worst_simple:.1e} <= 1e-10)",
        worst_nonsimple,
        1e-9,
    )


def test_criterion_07_simple_logarithm():
    g = make_metric()
    worst = 0.0
    cases = []
    for i in range(100):
        cases.append(random_wedge(g, 70000 + i, kind="rotation"))
        cases.append(random_wedge(g, 71000 + i, kind="boost"))
        cases.append(random_wedge(g, 72000 + i, kind="null"))
    # rotations with trace near 0+ (angle just below pi)
    for eps in (1e-3, 1e-4, 1e-5):
        W = random_wedge(g, 73000, kind="rotation")
        cases.append(W * ((math.pi - eps) / math.sqrt(tr2(W))))
    lams = [LorentzTransformation(exp_series(L.matrix), g) for L in cases]
    lams += [random_nonsimple_transformation(g, 74000 + i) for i in range(100)]
    for lam in lams:
        recovered = log(lam)
        worst = max(
            worst,
            mabs(exp_series(recovered.matrix) - lam.matrix) / max(1.0, mabs(lam.matrix)),
        )
    report(7, "exp(log Lam) = Lam for simple and non-simple Lam", worst, 1e-8)


def test_criterion_08_factorization():
    g = make_metric()
    worst = 0.0
    worst_trace = 0.0
    for i in range(500):
        lam = random_nonsimple_transformation(g, 80000 + i, scale=SCALES[i % 3])
        pair = factor_transform(lam)
        mp, mm = pair.lambda_plus.matrix, pair.lambda_minus.matrix
        t = float(np.trace(lam.matrix))
        t2 = tr2_transform(lam)
        s = max(1.0, mabs(lam.matrix))

        def criterion_defect(m):
            tt = float(np.trace(m))
            tt2 = 0.5 * (tt * tt - float(np.trace(m @ m)))
            return abs(tt2 - 2.0 * (tt - 1.0)) / max(1.0, tt2, tt)

        worst = max(
            worst,
            mabs(mp @ mm - lam.matrix) / s,
            mabs(mp @ mm - mm @ mp) / s,
            criterion_defect(mp),
            criterion_defect(mm),
        )
        worst_trace = max(
            worst_trace,
            abs(t - 2.0 * (pair.c_plus + pair.c_minus)) / s,
            abs(t2 - (4.0 * pair.c_plus * pair.c_minus + 2.0)) / s**2,
        )
    assert worst_trace <= 1e-9
    report(
        8,
        "commuting factorization of 500 nonsimple transformations "
        f"(trace identities {worst_trace:.1e} <= 1e-9)",
        worst,
        1e-8,
    )


def test_criterion_09_lift_all_regimes():
    g = make_metric()
    worst = 0.0
    worst_product = 0.0
    for rep in both_reps(g):
        for i in range(350):
            lam = random_nonsimple_transformation(g, 90000 + i, scale=SCALES[i % 3])
            worst = max(worst, intertwining_defect(lift(lam, rep), lam, rep))
        for i in range(100):
            kind = "rotation" if i % 2 else "boost"
            W = random_wedge(g, 94000 + i, kind=kind)
            lam = LorentzTransformation(exp_series(W.matrix), g)
            worst = max(worst, intertwining_defect(lift(lam, rep), lam, rep))
        for i in range(25):
            lam = traceless_simple_transformation(g, 95000 + i)
            worst = max(worst, intertwining_defect(lift(lam, rep), lam, rep))
        for i in range(25):
            lam = degenerate_denominator_transformation(g, 96000 + i)
            worst = max(worst, intertwining_defect(lift(lam, rep), lam, rep))
        for i in range(100):
            lam = random_nonsimple_transformation(g, 97000 + i)
            pair = factor_transform(lam)
            whole = sign_normalize(lift_nonsimple(lam, rep))
            split = sign_normalize(
                lift_simple(pair.lambda_plus, rep) @ lift_simple(pair.lambda_minus, rep)
            )
            worst_product = max(worst_product, mabs(whole - split) / max(1.0, mabs(whole)))
    assert worst_product <= 1e-8
    report(
        9,
        "intertwining of 1000 lifted transformations, all four regimes "
        f"(product structure {worst_product:.1e} <= 1e-8)",
        worst,
        1e-7,
    )


def test_criterion_10_projective_homomorphism():
    g = make_metric()
    worst = 0.0
    for rep in both_reps(g):
        for i in range(100):
            lam1 = random_nonsimple_transformation(g, 100000 + 2 * i)
            lam2 = random_nonsimple_transformation(g, 100001 + 2 * i)
            product = lam1 @ lam2
            direct = lift(product, rep)
            composed = lift(lam1, rep) @ lift(lam2, rep)
            worst = max(
                worst,
                intertwining_defect(direct, product, rep),
                intertwining_defect(composed, product, rep),
            )
    report(10, "lift(L1 L2) and lift(L1) lift(L2) both intertwine, 200 pairs", worst, 1e-7)


def test_criterion_11_double_cover_sign():
    g = make_metric()
    worst = 0.0
    for rep in both_reps(g):
        for i in range(100):
            W = random_wedge(g, 110000 + i, kind="rotation")
            theta = math.sqrt(tr2(W))
            W_shifted = W * ((theta + 2.0 * math.pi) / theta)
            base = exp_spin(W, rep)
            flipped = exp_spin(W_shifted, rep)
            worst = max(worst, mabs(flipped + base) / max(1.0, mabs(base)))
    report(11, "angle + 2 pi flips the sign of the spin exponential", worst, 1e-9)


def test_criterion_12_cli_goldens(tmp_path):
    mismatches = 0
    for command in ("decompose", "exp-spin", "log", "factor", "lift", "invariants"):
        request = GOLDEN_DIR / f"{command}.request.json"
        golden = GOLDEN_DIR / f"{command}.golden.json"
        out = tmp_path / f"{command}.json"
        assert cli_main([command, "--in", str(request), "--out", str(out)]) == 0
        if out.read_bytes() != golden.read_bytes():
            mismatches += 1
    out = tmp_path / "selftest.json"
    assert cli_main(["selftest", "--seed", "7", "--out", str(out)]) == 0
    if out.read_bytes() != (GOLDEN_DIR / "selftest.golden.json").read_bytes():
        mismatches += 1
    assert json.loads(out.read_bytes())["result"]["all_passed"] is True
    report(12, "CLI outputs match stored goldens byte-for-byte", float(mismatches), 0.0)
