"""End-to-end acceptance battery.

Criteria 1-11 are the property registry that ``spinlift selftest`` runs,
``cli._SELFTEST_CHECKS``.  Here each row runs on more draws, split between the
two metrics, and at several scales of the samplers; a new property is one row
there and one line of ``CRITERIA``.  Rows 3, 5 and 10 run under their own
criterion names, the others under ``test_registry``.
``test_families_the_registry_does_not_draw``
keeps the inputs no row draws, and criterion 12 pins the CLI outputs.  Each test
prints one [PASS]/[FAIL] line per property (visible with ``pytest -rA`` or on
failure).
"""

import json
import math
import pathlib

import numpy as np
import pytest

from spinlift import (
    det_bivector,
    exp_series,
    exp_spin_simple,
    log,
    make_metric,
    recover_invariants,
    representation,
    spin_rep,
    tr2,
)
from spinlift.cli import _SELFTEST_CHECKS
from spinlift.cli import main as cli_main
from spinlift.sampling import random_nonsimple_transformation, random_wedge

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
SCALES = (0.5, 1.0, 2.0, 5.0)
SEED_OFFSET = {"pmmm": 0, "mppp": 5000}  # each metric draws its own seeds
# registry row: (criterion, seed base, draws per metric, scales)
CRITERIA = {
    "bivector-decomposition": (1, 0, 500, SCALES),
    "spin-square-scalar": (2, 0, 250, SCALES[:3]),
    "spin-decompose": (3, 30000, 250, SCALES[:3]),
    "spin-cross-product": (4, 40000, 250, SCALES[:3]),
    "invariant-recovery": (5, 50000, 200, SCALES[:3]),
    "exp-agreement": (6, 60000, 250, SCALES[:3]),
    "log-roundtrip": (7, 70000, 150, SCALES[:3]),
    "factor-properties": (8, 80000, 250, SCALES),
    "lift-intertwining": (9, 90000, 250, SCALES[:3]),
    "homomorphism-pairs": (10, 100000, 100, SCALES[:3]),
    "double-cover-sign": (11, 110000, 50, SCALES[:3]),
}


def mabs(m):
    return float(np.abs(np.asarray(m)).max())


def report(label, defect, tol):
    status = "PASS" if defect <= tol else "FAIL"
    print(f"[{status}] {label}: max defect {defect:.3e} (tol {tol:.0e})")
    assert defect <= tol


def both_reps(g):
    return representation("gamma", g), representation("regular", g)


# rows that keep a test of their own, named after their criterion, which runs
# the row in both metrics
NAMED_ROWS = ("spin-decompose", "invariant-recovery", "homomorphism-pairs")


def worst(defects):
    """The largest of the defects, which must all be finite: max() drops a NaN."""
    assert defects and all(map(math.isfinite, defects))
    return max(defects)


def run_row(name, sig):
    _, check, tol = next(row for row in _SELFTEST_CHECKS if row[0] == name)
    num, base, trials, scales = CRITERIA[name]
    g = make_metric(sig)
    defects = list(check(g, both_reps(g), base + SEED_OFFSET[sig], trials, scales))
    report(f"criterion {num}: {name} over {trials} draws in {sig}", worst(defects), tol)


@pytest.mark.parametrize("sig", sorted(SEED_OFFSET))
@pytest.mark.parametrize("name", [row[0] for row in _SELFTEST_CHECKS
                                  if row[0] not in NAMED_ROWS])
def test_registry(name, sig):
    run_row(name, sig)


def test_criterion_03_spin_decomposition():
    for sig in sorted(SEED_OFFSET):
        run_row("spin-decompose", sig)


def test_criterion_05_invariant_recovery():
    for sig in sorted(SEED_OFFSET):
        run_row("invariant-recovery", sig)


def test_criterion_10_projective_homomorphism():
    for sig in sorted(SEED_OFFSET):
        run_row("homomorphism-pairs", sig)


@pytest.mark.parametrize("sig", sorted(SEED_OFFSET))
def test_families_the_registry_does_not_draw(sig):
    # wedges of every causal character, null ones among them, which the spin
    # square (2) and the recovery (5) never draw; the simple exponential at its
    # tighter bound (6); and the log of non-simple Lam, which log_simple refuses (7)
    g = make_metric(sig)
    kinds = ("rotation", "boost", "null")
    square, recovery, simple_exp, roundtrip = [], [], [], []
    for i in range(250):
        W = random_wedge(g, 65000 + SEED_OFFSET[sig] + i, kind=kinds[i % 3],
                         scale=SCALES[i % 3])
        norm2 = max(1.0, W._maxabs) ** 2
        for rep in both_reps(g):
            s = spin_rep(rep, W)
            square.append(mabs(s @ s + 0.25 * tr2(W) * rep.identity) / norm2)
            rec_tr2, rec_det = recover_invariants(s, rep)
            recovery += [abs(rec_tr2 - tr2(W)) / norm2,
                         abs(rec_det - det_bivector(W)) / norm2**2]
            series = exp_series(s)
            simple_exp.append(mabs(exp_spin_simple(s, tr2(W)) - series)
                              / max(1.0, mabs(series)))
    report(f"criterion 2: sigma(W)^2 = -tr2(W)/4 I on 250 wedges in {sig}", worst(square),
           1e-10)
    report(f"criterion 5: (tr2, det) recovered on 250 wedges in {sig}", worst(recovery),
           1e-8)
    report(f"criterion 6: simple exponential on 250 wedges in {sig}", worst(simple_exp),
           1e-10)
    for i in range(50):
        lam = random_nonsimple_transformation(g, 74000 + SEED_OFFSET[sig] + i, SCALES[i % 3])
        back = exp_series(log(lam).matrix)
        roundtrip.append(mabs(back - lam.matrix) / max(1.0, lam._maxabs))
    report(f"criterion 7: exp(log Lam) = Lam on 50 non-simple Lam in {sig}",
           worst(roundtrip), 1e-8)


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
    report("criterion 12: CLI outputs match stored goldens byte-for-byte",
           float(mismatches), 0.0)
