"""Independent output checks, with numpy and scipy only.

No spinlift code runs here.  The only data taken from the package are each
representation's four vector images gamma_a, and those are verified first
against the Clifford relation gamma_a gamma_b + gamma_b gamma_a = 2 g_ab I.
From them the checker builds its own spin image

    sigma(L) = 1/4 sum_{a,b} F^{ab} gamma_a gamma_b,   F = L g^{-1},

and takes scipy.linalg.expm (Al-Mohy & Higham scaling and squaring) as the
referee.  A lift must equal +/- expm(sigma(L)), an exponential must equal
expm(sigma(L)), and a lift must intertwine: Sigma gamma(u) Sigma^{-1} =
gamma(Lam u).

Error model.  Both sides are products of a handful of d x d factors (d = 4 or
16) with entries of order |sigma|, so each carries a forward error of a few
d * u * e^{2|sigma|} relative to its own size, u = 2^-53.  Over the workload
inputs (|sigma| <= ~4, d <= 16) that bound stays below 1e-11; the largest
error seen on the healthy workload inputs is 5e-14, and on the package's own
samplers 1.7e-13.  REL_TOL = 1e-10 is the accuracy that the project asks of
every dispatcher, 500x above that worst case and 100x below the smallest
perturbation (1e-8) the negative controls plant.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.linalg import expm

REL_TOL = 1e-10


def maxabs(m) -> float:
    return float(np.max(np.abs(m)))


def clifford_defect(vectors, g) -> float:
    """max |gamma_a gamma_b + gamma_b gamma_a - 2 g_ab I|."""
    eye = np.eye(vectors.shape[1])
    return max(
        maxabs(vectors[a] @ vectors[b] + vectors[b] @ vectors[a] - 2.0 * g[a, b] * eye)
        for a in range(4) for b in range(4)
    )


def sigma(L, vectors, g) -> np.ndarray:
    """Spin image 1/4 sum F^{ab} gamma_a gamma_b of the bivector L."""
    f = L @ np.linalg.inv(g)
    return 0.25 * np.einsum("ab,aij,bjk->ik", f, vectors, vectors)


def vector_image(u, vectors) -> np.ndarray:
    return np.tensordot(u, vectors, axes=1)


def relative_error(out, ref) -> float:
    return maxabs(np.asarray(out) - ref) / maxabs(ref)


def exp_error(out, L, vectors, g) -> float:
    """Relative distance of out from expm(sigma(L))."""
    return relative_error(out, expm(sigma(L, vectors, g)))


def lift_error(out, L, vectors, g) -> float:
    """Relative distance of out from the nearer of +/- expm(sigma(L))."""
    ref = expm(sigma(L, vectors, g))
    out = np.asarray(out)
    return min(relative_error(out, ref), relative_error(-out, ref))


def intertwining_error(out, lam, vectors) -> float:
    """max_a |Sigma gamma(e_a) Sigma^{-1} - gamma(Lam e_a)|, relative to |Lam|.

    A singular Sigma intertwines nothing: its defect is infinite.
    """
    out = np.asarray(out)
    try:
        inv = np.linalg.inv(out)
    except np.linalg.LinAlgError:
        return math.inf
    worst = max(
        maxabs(out @ vectors[a] @ inv - vector_image(lam[:, a], vectors))
        for a in range(4)
    )
    return worst / max(1.0, maxabs(lam))


def check_lift(out, item, vectors, g) -> list[str]:
    """Reasons a lift of expm(item L) is wrong; empty when it is right."""
    problems = []
    err = lift_error(out, item["L"], vectors, g)
    if not err <= REL_TOL:
        problems.append(f"lift differs from +/-expm(sigma(L)) by {err:.3g}")
    err = intertwining_error(out, item["matrix"], vectors)
    if not err <= REL_TOL:
        problems.append(f"intertwining defect {err:.3g}")
    return problems


def check_exp(out, item, vectors, g) -> list[str]:
    err = exp_error(out, item["L"], vectors, g)
    return [] if err <= REL_TOL else [f"exp differs from expm(sigma(L)) by {err:.3g}"]


def _matrix(payload) -> np.ndarray:
    """A CLI matrix payload: rows of numbers, or rows of [re, im] pairs."""
    a = np.asarray(payload, dtype=float)
    return a[..., 0] + 1j * a[..., 1] if a.ndim == 3 else a


def check_cli(returncode: int, stdout: bytes, item, vectors, g) -> list[str]:
    """Reasons a one-shot CLI response is wrong; empty when it is right."""
    if returncode != 0:
        return [f"exit status {returncode}: {stdout[:200]!r}"]
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    if doc.get("branch") != item["branch"]:
        return [f"branch {doc.get('branch')!r}, expected {item['branch']!r}"]
    command, result = item["command"], doc["result"]
    L, lam = item["L"], item["matrix"]
    if command == "lift":
        return check_lift(_matrix(result["sigma"]), item, vectors, g)
    if command == "exp-spin":
        return check_exp(_matrix(result["exp_spin"]), item, vectors, g)
    scale = max(1.0, maxabs(lam))
    if command == "log":
        err = relative_error(expm(_matrix(result["log"])), lam)
        return [] if err <= REL_TOL else [f"expm(log) differs from Lam by {err:.3g}"]
    if command == "factor":
        p, m = _matrix(result["lambda_plus"]), _matrix(result["lambda_minus"])
        err = max(maxabs(p @ m - lam), maxabs(p @ m - m @ p)) / scale**2
        return [] if err <= REL_TOL else [f"factors miss Lam or do not commute by {err:.3g}"]
    if command == "decompose":
        p, m = _matrix(result["l_plus"]), _matrix(result["l_minus"])
        err = max(maxabs(p + m - L) / scale,
                  max(maxabs(p @ m), maxabs(m @ p)) / scale**2)
        return [] if err <= REL_TOL else [f"parts miss L or do not annihilate by {err:.3g}"]
    if command == "invariants":
        tr2 = -0.5 * float(np.trace(L @ L))
        det = float(np.linalg.det(L))
        err = max(abs(result["recovered_tr2"] - tr2) / scale**2,
                  abs(result["recovered_det"] - det) / scale**4)
        return [] if err <= REL_TOL else [f"recovered invariants off by {err:.3g}"]
    return [f"unknown command {command!r}"]


def check_selftest(report, trials: int) -> list[str]:
    """Reasons a selftest battery report is wrong; empty when it is right."""
    problems = [] if report["all_passed"] is True else ["all_passed is not true"]
    if len(report["checks"]) != 11:
        problems.append(f"{len(report['checks'])} checks, expected 11")
    for check in report["checks"]:
        defect = check["max_defect"]
        if check["cases"] != trials:
            problems.append(f"{check['name']}: {check['cases']} cases")
        if not (math.isfinite(defect) and defect <= check["tol"]):
            problems.append(f"{check['name']}: max_defect {defect} > tol {check['tol']}")
    return problems
