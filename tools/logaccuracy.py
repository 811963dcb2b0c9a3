"""Forward error of the logarithm on the selftest battery's draws, at 40 digits.

Usage (from the repository root):

    PYTHONPATH=src python3 tools/logaccuracy.py

Put another checkout's ``src/`` on ``PYTHONPATH`` to measure that one.  For
each metric and selftest seed 0-29 it runs the ``log-roundtrip`` check as
selftest does, records the ten Lam it draws and the ``log_simple`` of each, and
compares that log with the real part of mpmath's ``logm`` at 40 digits,
relative to its maxabs.  Prints one
line per battery: the check's defect, the forward error on the draw that sets
that defect, and the worst forward error over the ten draws; then the worst
over all batteries.  Needs mpmath.
"""

from __future__ import annotations

from unittest import mock

import mpmath as mp
import numpy as np

from spinlift import LorentzTransformation, cli, make_metric, representation

SEEDS = range(30)
CHECK_INDEX = [name for name, _, _ in cli._SELFTEST_CHECKS].index("log-roundtrip")


def forward_error(lam: LorentzTransformation, log) -> float:
    ref = mp.logm(mp.matrix(lam.matrix.tolist()))
    ref = np.array([[float(mp.re(ref[i, j])) for j in range(4)] for i in range(4)])
    return float(np.abs(log - ref).max() / np.abs(ref).max())


def battery(sig: str, seed: int):
    """(defect, forward error) of each draw of the check, as selftest runs it."""
    g = make_metric(sig)
    reps = (representation("gamma", g), representation("regular", g))
    _, check, _ = cli._SELFTEST_CHECKS[CHECK_INDEX]
    logs, log_simple = [], cli.log_simple

    def recorded(lam: LorentzTransformation):
        logs.append((lam, log_simple(lam)))
        return logs[-1][1]

    with mock.patch.object(cli, "log_simple", recorded):
        defects = list(check(g, reps, seed + 1000 * CHECK_INDEX, cli._SELFTEST_TRIALS))
    return [(d, forward_error(lam, L.matrix)) for d, (lam, L) in zip(defects, logs)]


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
