"""Forward error of the logarithm on the selftest battery's draws, at 40 digits.

Usage (from the repository root):

    PYTHONPATH=src python3 tools/logaccuracy.py

Put another checkout's ``src/`` on ``PYTHONPATH`` to measure that one.  For
each metric and selftest seed 0-29 it rebuilds the ten Lam of the
``log-roundtrip`` check, takes ``log_simple`` of each, and compares it with the
real part of mpmath's ``logm`` at 40 digits, relative to its maxabs.  Prints one
line per battery: the check's defect, the forward error on the draw that sets
that defect, and the worst forward error over the ten draws; then the worst
over all batteries.  Needs mpmath.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

from spinlift import LorentzTransformation, exp_series, log_simple, make_metric
from spinlift.cli import _SELFTEST_CHECKS, _SELFTEST_TRIALS, _roundtrip_defect
from spinlift.sampling import random_wedge

SEEDS = range(30)
KINDS = ("rotation", "boost", "null")  # the order the check cycles through
CHECK_INDEX = [name for name, _, _ in _SELFTEST_CHECKS].index("log-roundtrip")


def forward_error(lam: LorentzTransformation, log) -> float:
    ref = mp.logm(mp.matrix(lam.matrix.tolist()))
    ref = np.array([[float(mp.re(ref[i, j])) for j in range(4)] for i in range(4)])
    return float(np.abs(log - ref).max() / np.abs(ref).max())


def battery(sig: str, seed: int):
    g = make_metric(sig)
    base = seed + 1000 * CHECK_INDEX
    rows = []
    for i in range(_SELFTEST_TRIALS):
        W = random_wedge(g, base + i, kind=KINDS[i % 3])
        lam = LorentzTransformation(exp_series(W.matrix), g)
        L = log_simple(lam)
        rows.append((_roundtrip_defect(L, lam) / max(1.0, lam._maxabs),
                     forward_error(lam, L.matrix)))
    return rows


def main():
    mp.mp.dps = 40
    worst = 0.0
    for sig in ("pmmm", "mppp"):
        for seed in SEEDS:
            rows = battery(sig, seed)
            defect, at_max = max(rows)
            top = max(f for _, f in rows)
            worst = max(worst, top)
            print(f"{sig} seed {seed:2d}: defect {defect:.4e}, forward error there "
                  f"{at_max:.3e}, worst forward error {top:.3e}")
    print(f"worst forward error over all batteries: {worst:.3e}")


if __name__ == "__main__":
    main()
