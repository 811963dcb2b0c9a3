"""Seeded workload inputs, built with numpy and scipy only.

Nothing here imports spinlift, so a change to the package (its samplers
included) cannot change what the workloads feed it.  Every input carries the
generator ``L`` it came from: the checker needs it to build the reference
exp(sigma(L)) on its own.

Transformations and bivectors are made in a canonical frame, where the boost
plane is (e0, e1) and the rotation plane is (e2, e3), and are then moved by a
random Lorentz frame Q:  L = Q L0 Q^{-1}.  That fixes each input's invariants
(rapidity, angle) exactly, so the healthy inputs stay away from every gate of
the dispatchers, and the fault slices sit exactly where their faults are.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.linalg import expm

SIGNATURES = {"pmmm": (1.0, -1.0, -1.0, -1.0), "mppp": (-1.0, 1.0, 1.0, 1.0)}
REPS = ("gamma", "regular")

#: Rounds per run are whole passes over these lists.  Shares are exact.
LIFT_MIX = {  # category -> transformations per round (each lifted in both reps)
    "nonsimple": 60,
    "simple-rotation": 5,
    "simple-boost": 5,
    "simple-null": 4,
    "special-traceless": 2,
    "nonsimple-special": 2,
    "fault-rotation-near-pi": 2,
    "fault-large-rapidity": 2,
}
EXP_MIX = {  # category -> bivectors per round (each exponentiated in both reps)
    "nonsimple": 60,
    "simple-rotation": 5,
    "simple-boost": 5,
    "simple-null": 4,
    "near-null-nonsimple": 4,
    "fault-small-nonsimple": 2,
}
#: Categories whose operations fail today, each naming its fault.
FAULTS = {
    "fault-rotation-near-pi": "rotation by pi - eps is routed to special/traceless "
    "(TRACE_GATE = 1e-6 against tr Lam ~ eps^2); defect ~ eps",
    "fault-large-rapidity": "boost of rapidity >= 20: tr2 cancels in "
    "is_simple_transform, lift_nonsimple returns a wrong lift with no error",
    "fault-small-nonsimple": "non-simple bivector of norm 1e-3 is classified "
    "simple by the max(1, |L|^4) floor; relative error ~1e-7",
}
#: Fixed fault inputs: they do not depend on the seed, so they fail the same
#: way in every run.
NEAR_PI_EPS = (1e-5, 1e-3)
LARGE_RAPIDITIES = (20.0, 24.0)
SMALL_NONSIMPLE = ((1e-3, 1e-3), (2e-3, 1e-3))  # (rapidity, angle)

CLI_COMMANDS = ("lift", "exp-spin", "decompose", "factor", "log", "invariants")
SELFTEST_SEEDS_PER_ROUND = 10


def metric(sig: str) -> np.ndarray:
    return np.diag(SIGNATURES[sig])


def _unit(a: int, b: int, g: np.ndarray) -> np.ndarray:
    """Generator of the (e_a, e_b) plane: (e_a ^ e_b) as a mixed-index matrix."""
    f = np.zeros((4, 4))
    f[a, b], f[b, a] = 1.0, -1.0
    return f @ g


def canonical(g: np.ndarray, rapidity: float = 0.0, angle: float = 0.0,
              null: float = 0.0) -> np.ndarray:
    """rapidity * K01 + angle * J23 + null * N, in the canonical frame.

    K01 is the unit boost in (e0, e1), J23 the unit rotation in (e2, e3) and
    N = (e0 + e1) ^ e2 a null rotation; the signs follow the metric so that
    each has the named causal character in both signatures.
    """
    s = g[0, 0]  # +1 for pmmm, -1 for mppp
    k01 = s * _unit(0, 1, g)
    j23 = -s * _unit(2, 3, g)
    n = np.zeros((4, 4))
    n[0, 2], n[2, 0] = 1.0, -1.0
    n[1, 2], n[2, 1] = 1.0, -1.0
    return rapidity * k01 + angle * j23 + null * s * (n @ g)


def random_frame(rng: np.random.Generator, g: np.ndarray, scale: float) -> np.ndarray:
    """A random proper orthochronous Q = expm(F g), F antisymmetric."""
    f = np.triu(rng.uniform(-scale, scale, (4, 4)), 1)
    return expm((f - f.T) @ g)


def _moved(q: np.ndarray, l0: np.ndarray) -> np.ndarray:
    return q @ l0 @ np.linalg.inv(q)


def _draw(rng, g, category):
    """One generator L of the named category (healthy categories only)."""
    q = random_frame(rng, g, 0.5)
    if category == "nonsimple":
        l0 = canonical(g, rng.uniform(0.2, 1.5), rng.uniform(0.3, 2.6))
    elif category == "simple-rotation":
        l0 = canonical(g, angle=rng.uniform(0.3, 2.6))
    elif category == "simple-boost":
        l0 = canonical(g, rapidity=rng.uniform(0.2, 2.0))
    elif category == "simple-null":
        l0 = canonical(g, null=rng.uniform(0.3, 2.0))
    elif category == "special-traceless":
        l0 = canonical(g, angle=math.pi)
    elif category == "nonsimple-special":
        l0 = canonical(g, rng.uniform(0.2, 1.5), math.pi)
    elif category == "near-null-nonsimple":
        # Tiny invariants, order-one entries: a strong frame boost stretches a
        # small non-simple generator along a null direction.
        # (e0, e2) is used because a boost in (e0, e1) commutes with l0.
        l0 = canonical(g, rng.uniform(0.01, 0.02), rng.uniform(0.01, 0.02))
        k02 = g[0, 0] * _unit(0, 2, g)
        q = expm(rng.uniform(3.0, 3.5) * k02) @ random_frame(rng, g, 0.2)
    else:
        raise ValueError(f"unknown category {category!r}")
    return _moved(q, l0)


def _fault_generators(g, category):
    """The fixed, seed-independent inputs of a fault slice."""
    if category == "fault-rotation-near-pi":
        return [canonical(g, angle=math.pi - eps) for eps in NEAR_PI_EPS]
    if category == "fault-large-rapidity":
        return [canonical(g, rapidity=r) for r in LARGE_RAPIDITIES]
    if category == "fault-small-nonsimple":
        return [canonical(g, r, a) for r, a in SMALL_NONSIMPLE]
    raise ValueError(f"unknown fault slice {category!r}")


def _generators(seed: int, shares: dict):
    """(category, signature, L) for one round, in a seeded order."""
    rng = np.random.default_rng(seed)
    out = []
    for category, count in shares.items():
        for i in range(count):
            sig = ("pmmm", "mppp")[i % 2]
            g = metric(sig)
            if category in FAULTS:
                fixed = _fault_generators(g, category)
                L = fixed[i % len(fixed)]
            else:
                L = _draw(rng, g, category)
            out.append((category, sig, L))
    order = rng.permutation(len(out))
    return [out[k] for k in order]


def lift_mix(seed: int) -> list[dict]:
    """Operations of one lift-mix round: lift expm(L) in each representation."""
    return [
        {"category": c, "metric": sig, "rep": rep, "L": L, "matrix": expm(L)}
        for c, sig, L in _generators(seed, LIFT_MIX)
        for rep in REPS
    ]


def exp_mix(seed: int) -> list[dict]:
    """Operations of one exp-mix round: exponentiate sigma(L) in each representation."""
    return [
        {"category": c, "metric": sig, "rep": rep, "L": L, "matrix": L}
        for c, sig, L in _generators(seed, EXP_MIX)
        for rep in REPS
    ]


def cli_requests(seed: int) -> list[dict]:
    """One cli-oneshot round: every command in both representations.

    Each request records the branch the CLI must report and the generator the
    checker needs.  All use the default metric, pmmm.
    """
    rng = np.random.default_rng(seed)
    g = metric("pmmm")
    plan = {
        ("lift", "gamma"): ("nonsimple", "nonsimple", True),
        ("lift", "regular"): ("simple-boost", "simple", True),
        ("exp-spin", "gamma"): ("nonsimple", "nonsimple/polynomial", False),
        ("exp-spin", "regular"): ("simple-rotation", "simple/trig", False),
        ("decompose", "gamma"): ("nonsimple", "nonsimple", False),
        ("decompose", "regular"): ("nonsimple", "nonsimple", False),
        ("factor", "gamma"): ("nonsimple", "nonsimple", True),
        ("factor", "regular"): ("nonsimple", "nonsimple", True),
        ("log", "gamma"): ("simple-rotation", "simple/trig", True),
        ("log", "regular"): ("simple-boost", "simple/hyperbolic", True),
        ("invariants", "gamma"): ("nonsimple", "nonsimple", False),
        ("invariants", "regular"): ("simple-boost", "simple", False),
    }
    out = []
    for command in CLI_COMMANDS:
        for rep in REPS:
            category, branch, exponentiate = plan[(command, rep)]
            L = _draw(rng, g, category)
            item = {
                "command": command, "metric": "pmmm", "rep": rep, "category": category,
                "branch": branch, "L": L, "matrix": expm(L) if exponentiate else L,
            }
            item["request"] = cli_request_text(item)
            out.append(item)
    return out


def cli_request_text(item) -> str:
    """The JSON request a cli-oneshot operation writes to the CLI's stdin."""
    return json.dumps({"matrix": np.asarray(item["matrix"]).tolist(),
                       "metric": item["metric"], "rep": item["rep"]})


def selftest_batteries(seed: int) -> list[dict]:
    """One selftest round: a few battery seeds, each over both signatures."""
    rng = np.random.default_rng(seed)
    seeds = [int(s) for s in rng.integers(0, 2**31 - 1, SELFTEST_SEEDS_PER_ROUND)]
    return [{"category": "battery", "metric": sig, "seed": s}
            for s in seeds for sig in SIGNATURES]


WORKLOADS = {
    "lift-mix": lift_mix,
    "exp-mix": exp_mix,
    "cli-oneshot": cli_requests,
    "selftest": selftest_batteries,
}
