"""Compare the output bits of two spinlift checkouts.

Usage (from the repository root):

    python3 tools/bitcompare.py OTHER_CHECKOUT [CHECKOUT]

CHECKOUT defaults to the checkout that holds this file.  Each checkout runs
in its own interpreter with its own ``src/`` first on ``PYTHONPATH``, over
the same inputs:

* ``lift``: the bytes of Sigma and the label of every ``lift`` of the
  ``lift-mix`` workload, seeds 1-20;
* ``exp``: the bytes and the label of every ``exp_spin`` of ``exp-mix``,
  seeds 1-20;
* ``oracle``: the bytes of the referees on fixed families, seeds 1-5: of
  ``exp_series`` of c L and of its spin image sigma(c L), for every
  ``exp-mix`` bivector L and c in {1e-3, 0.3, 1, 8}; of
  ``intertwining_defect(exp_series(sigma(L)), expm(L), rep)`` for every
  ``lift-mix`` generator L; of ``intertwining_defect(Sigma, I, rep)`` for
  Sigma = size U diag(s) V^H near the cond limit, cond Sigma in
  {1e11, 4.9e11, 5.1e11, 1e12 (1 -+ 1e-6), 2e12} and size in 2^{-540, -500, 0, 500};
  and of ``intertwining_defect(lift(Lam), Lam, rep)`` for framed Lam of
  rapidity 24-30 and angle 1, where cond Sigma passes the limit;
* ``validate``: the bits of the ``_maxabs`` and ``_traces`` that the
  ``LorentzTransformation`` validator keeps, or its refusal, for every
  ``lift-mix`` matrix of seeds 1-20 and a refusal grid per metric and seed
  1-10: framed Lam of rapidity 11-15 and angle 1 reflected by
  diag(1, -1, 1, 1), framed Lam (rapidity 2, angle 1) times 1 + 1e-8, with a NaN
  entry, with an inf entry, negated, and cut to 3x3; and the same bits of the
  ``_of`` results of the samplers' transformations, seeds 0-19;
* ``decompose``: the bytes of both parts of ``orthogonal_decompose``, or its
  refusal, for every non-simple ``exp-mix`` bivector of seeds 1-20 at the
  default ``tol``; for the samplers' framed rapidity b K01 + angle J23 with b in
  {1, 1e4, 1e6} and angle 1.5, 3 or 10 times sqrt(1e-9) b, seeds 0-49, at the
  default ``tol``; and for their null wedges, seeds 0-49 at scales 0.5, 1 and 2,
  at ``tol`` = 1e-300, all in both metrics.  Also prints how many entries moved
  between an answer and a refusal, by error class, and how many refusals changed
  only their message;
* ``core``: the bytes of ``log(Lam)``, and of ``factor_transform(Lam)`` (Lam+,
  Lam-, c+, c- and delta), or each one's refusal, for every ``lift-mix`` matrix
  Lam of seeds 1-20 over both metrics;
* ``selftest``: each check of the ``run_selftest`` report, keyed by metric,
  seed and check name, for both metrics, seeds 0-29;
* ``cli``: the exit code of ``spinlift <command>`` and, as separate entries,
  the ``branch``, ``result``, ``invariants`` and ``diagnostics`` of its response
  (or its ``error``) and the rest of it, the echoed request, for each request
  file in ``tests/golden``; for the
  ``exp-spin`` golden with its boost part at rapidity 20-1,500; and for ``lift``
  and ``log`` of framed Lam of rapidity 28 and angle 1, seeds 0-9, both metrics.

The spin images of the ``oracle`` group come from each side's ``spin_rep``.

A typed ``SpinLiftError`` is recorded as its class name and message.  The
inputs come from ``bench/inputs.py`` of CHECKOUT and, for ``decompose``, from
its ``spinlift.sampling`` (imported, never changed), and are made once, here, so
both sides see the same bits.  Prints per group
the number of entries that differ and, counted apart, of those ``negated``:
the same label with every output float the exact negation of the other
side's, a sign-only move.  Then the first few keys of each, and the totals;
exits 0 when every entry is bit-identical, 1 otherwise.  Needs numpy and scipy.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pickle
import subprocess
import sys
from collections import Counter
from functools import partial
from pathlib import Path

SEEDS = range(1, 21)
ORACLE_SEEDS = range(1, 6)
ORACLE_SCALES = (1e-3, 0.3, 1.0, 8.0)
ORACLE_CONDS = (1e11, 4.9e11, 5.1e11, 1e12 * (1.0 - 1e-6), 1e12 * (1.0 + 1e-6), 2e12)
ORACLE_SIZES = (-540, -500, 0, 500)  # exponents of two; at -540 ||Sigma||_F^2 underflows
ORACLE_RAPIDITIES = range(24, 31)
GRID_SEEDS = range(1, 11)
REFLECTED_RAPIDITIES = range(11, 16)
CLI_RAPIDITIES = (20.0, 30.0, 700.0, 800.0, 1400.0, 1500.0)  # of the exp-spin golden
CLI_SEEDS = range(10)  # of the framed lift and log requests at rapidity 28
CLI_PARTS = ("branch", "result", "invariants", "diagnostics", "error")
SAMPLER_SEEDS = range(20)
REP_SHAPES = {"gamma": (4, True), "regular": (16, False)}  # dimension, complex
DECOMPOSE_SEEDS = range(50)  # of the framed near-gate draws and the null wedges
DECOMPOSE_RAPIDITIES = (1.0, 1e4, 1e6)
DECOMPOSE_ANGLES = (1.5, 3.0, 10.0)  # times sqrt(1e-9) rapidity, past the default gate
NULL_SCALES = (0.5, 1.0, 2.0)
GROUPS = ("lift", "exp", "oracle", "validate", "decompose", "core", "selftest", "cli")
SELFTEST_SEEDS = range(30)
SHOWN = 5


def conditioned(seed: int, d: int, complex_: bool, cond: float, e: int):
    """2^e U diag(s) V^H, U and V unitary, s from 1 to 1 / cond through cond^-1/2.

    So ||Sigma||_F ||Sigma^-1||_F = cond (1 + O(d / cond)), and tests/test_oracle.py
    takes the same family.
    """
    import numpy as np

    rng = np.random.default_rng(seed)

    def unitary():
        z = rng.normal(size=(d, d)) + (1j * rng.normal(size=(d, d)) if complex_ else 0.0)
        return np.linalg.qr(z)[0]

    s = np.full(d, cond ** -0.5)
    s[0], s[-1] = 1.0, 1.0 / cond
    return 2.0 ** e * (unitary() * s) @ unitary().conj().T


def make_job(root: Path) -> dict:
    sys.path[:0] = [str(root / "bench"), str(root / "src")]
    import inputs

    job = {group: {} for group in GROUPS}
    for group, make in (("lift", inputs.lift_mix), ("exp", inputs.exp_mix)):
        for seed in SEEDS:
            for i, item in enumerate(make(seed)):
                key = (seed, i, item["category"], item["metric"], item["rep"])
                job[group][key] = item["matrix"]
                if group == "lift":
                    job["validate"][("lift-mix", *key)] = (item["metric"], item["matrix"])
                    if item["rep"] == "gamma":  # each matrix once, over either metric
                        for sig in inputs.SIGNATURES:
                            job["core"][(*key[:4], sig)] = (sig, item["matrix"])
                elif item["rep"] == "gamma" and not item["category"].startswith("simple-"):
                    job["decompose"][("exp-mix", *key[:4])] = (item["metric"], item["matrix"],
                                                               None)
                if seed in ORACLE_SEEDS:  # (L, Lam) for lift-mix, (L, L) for exp-mix
                    job["oracle"][(group, *key)] = (item["L"], item["matrix"])
    job["decompose"].update(decompose_families())
    for sig in inputs.SIGNATURES:
        g = inputs.metric(sig)
        for kind, (d, complex_) in REP_SHAPES.items():
            for seed in ORACLE_SEEDS:
                for cond in ORACLE_CONDS:
                    for e in ORACLE_SIZES:
                        key = ("near-limit", seed, e, f"cond={cond!r}", sig, kind)
                        sigma = conditioned(seed, d, complex_, cond, e)
                        job["oracle"][key] = (None, sigma)
                for rapidity in ORACLE_RAPIDITIES:
                    key = ("framed", seed, rapidity, "angle=1", sig, kind)
                    job["oracle"][key] = (None, framed(inputs, g, seed, rapidity))
        for seed in GRID_SEEDS:
            for key, m in refusal_grid(inputs, g, seed).items():
                job["validate"][("grid", seed, key, sig)] = (sig, m)
    job["selftest"] = [(sig, seed) for sig in inputs.SIGNATURES for seed in SELFTEST_SEEDS]
    for path in sorted((root / "tests" / "golden").glob("*.request.json")):
        job["cli"][(path.name.removesuffix(".request.json"), "golden")] = path.read_text()
    golden = json.loads(job["cli"][("exp-spin", "golden")])
    for rapidity in CLI_RAPIDITIES:  # a boost of the rapidity next to a rotation by 1
        golden["matrix"][0][1] = golden["matrix"][1][0] = rapidity
        job["cli"][("exp-spin", f"rapidity={rapidity!r}")] = json.dumps(golden)
    for sig in inputs.SIGNATURES:
        for seed in CLI_SEEDS:
            matrix = framed(inputs, inputs.metric(sig), seed, 28).tolist()
            text = json.dumps({"matrix": matrix, "metric": sig})
            for command in ("lift", "log"):
                job["cli"][(command, f"framed-{sig}-{seed}")] = text
    return job


def decompose_families() -> dict:
    """The samplers' framed draws next to the simplicity gate, at the default tol,
    and their null wedges at tol = 1e-300, by key: (metric, matrix, tol)."""
    import math

    import numpy as np

    from spinlift import make_metric, sampling

    family = {}
    for sig in ("pmmm", "mppp"):
        g = make_metric(sig)
        for seed in DECOMPOSE_SEEDS:
            q = sampling._frame(np.random.default_rng(seed), 4.5)
            for b in DECOMPOSE_RAPIDITIES:
                for k in DECOMPOSE_ANGLES:
                    L = sampling._bivector(g, q, rapidity=b, angle=k * math.sqrt(1e-9) * b)
                    family[("framed", seed, f"rapidity={b!r}", f"k={k!r}", sig)] = (
                        sig, L.matrix, None)
            for scale in NULL_SCALES:
                W = sampling.random_wedge(g, seed, "null", scale)
                family[("null", seed, f"scale={scale!r}", sig)] = (sig, W.matrix, 1e-300)
    return family


def framed(inputs, g, seed: int, rapidity):
    """expm of a boost of the rapidity next to a rotation by 1, in a seeded frame."""
    import numpy as np
    from scipy.linalg import expm

    q = inputs.random_frame(np.random.default_rng(seed), g, 0.5)
    return inputs._moved(q, expm(inputs.canonical(g, float(rapidity), 1.0)))


def refusal_grid(inputs, g, seed: int) -> dict:
    """Transformations next to and past each refusal of the validator, by name."""
    import numpy as np

    grid = {f"reflected-{r}": np.diag([1.0, -1.0, 1.0, 1.0]) @ framed(inputs, g, seed, r)
            for r in REFLECTED_RAPIDITIES}
    lam = framed(inputs, g, seed, 2)
    nan, inf = lam.copy(), lam.copy()
    nan[1, 2], inf[2, 3] = np.nan, np.inf
    grid.update({"scaled": lam * (1.0 + 1e-8), "nan": nan, "inf": inf, "negated": -lam,
                 "3x3": lam[:3, :3]})
    return grid


def collect(job: dict) -> dict:
    """Run the job on the spinlift first on sys.path; key -> picklable output."""
    import numpy as np

    from spinlift import Bivector, LorentzTransformation, exp_spin, lift, make_metric
    from spinlift import factor_transform, log, orthogonal_decompose
    from spinlift import cli, exp_series, intertwining_defect, representation, spin_rep
    from spinlift import sampling
    from spinlift.errors import SpinLiftError

    def guarded(op):
        try:
            out, label = op()
        except SpinLiftError as exc:
            return ("error", type(exc).__name__, str(exc))
        return out.tobytes(), label

    ops = {
        "lift": lambda m, rep: lift(LorentzTransformation(m, rep.metric), rep,
                                    return_branch=True),
        "exp": lambda m, rep: exp_spin(Bivector(m, rep.metric), rep, return_branch=True),
    }
    reps = {(sig, kind): representation(kind, make_metric(sig))
            for sig in ("pmmm", "mppp") for kind in ("gamma", "regular")}

    def referees(family, generator, m, rep):
        if family == "lift":  # Sigma from the series, checked against Lam = expm(L)
            sigma = exp_series(spin_rep(rep, Bivector(generator, rep.metric)))
            lam = LorentzTransformation(m, rep.metric)
            return np.float64(intertwining_defect(sigma, lam, rep)), "defect"
        if family == "near-limit":  # the given Sigma, against Lam = I
            lam = LorentzTransformation(np.eye(4), rep.metric)
            return np.float64(intertwining_defect(m, lam, rep)), "defect"
        if family == "framed":  # lift's own Sigma of a framed Lam of large rapidity
            lam = LorentzTransformation(m, rep.metric)
            return np.float64(intertwining_defect(lift(lam, rep), lam, rep)), "defect"
        out = []  # a real piece cast to complex keeps its bits in the real part
        for c in ORACLE_SCALES:
            out.append(exp_series(c * m).ravel())
            out.append(exp_series(spin_rep(rep, Bivector(c * m, rep.metric))).ravel())
        return np.concatenate(out), "exp_series"

    def measured(lam):  # what the validator, or _of, keeps of Lam
        return np.array([lam._maxabs, *lam._traces]), "measured"

    samplers = (sampling.random_nonsimple_transformation,
                sampling.traceless_simple_transformation,
                sampling.degenerate_denominator_transformation)
    out = {}
    for key, (sig, m) in job["validate"].items():
        validate = partial(LorentzTransformation, m, make_metric(sig))
        out[("validate", *key)] = guarded(lambda: measured(validate()))
    for sig in ("pmmm", "mppp"):
        for sampler in samplers:
            for seed in SAMPLER_SEEDS:
                draw = partial(sampler, make_metric(sig), seed)
                key = ("validate", "sampler", sampler.__name__, seed, sig)
                out[key] = guarded(lambda: measured(draw()))
    for group, op in ops.items():
        for key, m in job[group].items():
            out[(group, *key)] = guarded(partial(op, m, reps[key[3], key[4]]))
    for key, (generator, m) in job["oracle"].items():
        rep = reps[key[4], key[5]]
        out[("oracle", *key)] = guarded(partial(referees, key[0], generator, m, rep))
    def parts(sig, m, tol):
        args = (Bivector(m, make_metric(sig)),) + (() if tol is None else (tol,))
        return np.concatenate([x.matrix.ravel() for x in orthogonal_decompose(*args)]), "parts"

    for key, (sig, m, tol) in job["decompose"].items():
        out[("decompose", *key)] = guarded(partial(parts, sig, m, tol))

    def factors(lam):
        pair = factor_transform(lam)
        scalars = np.array([pair.c_plus, pair.c_minus, pair.delta])
        return np.concatenate([pair.lambda_plus.matrix.ravel(),
                               pair.lambda_minus.matrix.ravel(), scalars]), "factor"

    for key, (sig, m) in job["core"].items():
        lam = partial(LorentzTransformation, m, make_metric(sig))
        out[("core", *key, "log")] = guarded(lambda: (log(lam()).matrix, "log"))
        out[("core", *key, "factor")] = guarded(lambda: factors(lam()))
    for sig, seed in job["selftest"]:
        for check in cli.run_selftest(sig, seed)["checks"]:
            out[("selftest", sig, seed, check["name"])] = check
    for (command, name), text in job["cli"].items():
        stdin, sys.stdin = sys.stdin, io.StringIO(text)
        try:
            with contextlib.redirect_stdout(io.StringIO()) as buf:
                code = cli.main([command])
        finally:
            sys.stdin = stdin
        doc = json.loads(buf.getvalue())
        out[("cli", command, name, "exit")] = code
        out[("cli", command, name, "envelope")] = {
            key: value for key, value in doc.items() if key not in CLI_PARTS}
        for part in CLI_PARTS:
            if part in doc:
                out[("cli", command, name, part)] = doc[part]
    return out


def is_negation(x, y) -> bool:
    """Whether two (output bytes, label) entries differ only by the output's sign."""
    import numpy as np

    if not (isinstance(x, tuple) and isinstance(y, tuple) and len(x) == len(y) == 2
            and isinstance(x[0], bytes) and isinstance(y[0], bytes) and x[1] == y[1]):
        return False
    # float64 and complex128 outputs alike, read as float64 parts
    return bool(np.array_equal(-np.frombuffer(x[0]), np.frombuffer(y[0])))


def outcome_moves(a: dict, b: dict, keys) -> tuple[Counter, int]:
    """(count of each move between an answer and a refusal's error class, number of
    refusals whose class held and message changed) between two sides' entries."""
    moves, messages = Counter(), 0
    for key in keys:
        x, y = a.get(key), b.get(key)
        kinds = [z[1] if z and z[0] == "error" else "answer" for z in (x, y)]
        if kinds[0] != kinds[1]:
            moves[" -> ".join(kinds)] += 1
        elif kinds[0] != "answer" and x != y:
            messages += 1
    return moves, messages


def run_side(checkout: Path, job_bytes: bytes) -> dict:
    src = (checkout / "src").resolve()
    if not (src / "spinlift").is_dir():
        raise SystemExit(f"{checkout}: no src/spinlift")
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, __file__, "--collect", str(src)],
                          input=job_bytes, capture_output=True, env=env, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: collection failed\n{proc.stderr.decode()}")
    return pickle.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", nargs="?", type=Path)
    parser.add_argument("checkout", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--collect", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect:  # the child: run the job on the spinlift under SRC
        import spinlift

        if not Path(spinlift.__file__).resolve().is_relative_to(Path(args.collect)):
            raise SystemExit(f"spinlift imported from {spinlift.__file__}, not {args.collect}")
        sys.stdout.buffer.write(pickle.dumps(collect(pickle.load(sys.stdin.buffer))))
        return 0
    if args.other is None:
        parser.error("OTHER_CHECKOUT is required")
    job_bytes = pickle.dumps(make_job(args.checkout.resolve()))
    a, b = run_side(args.other, job_bytes), run_side(args.checkout, job_bytes)
    totals = [0, 0]
    for group in GROUPS:
        keys = sorted(k for k in a.keys() | b.keys() if k[0] == group)
        moved = [k for k in keys if pickle.dumps(a.get(k)) != pickle.dumps(b.get(k))]
        negated = [k for k in moved if is_negation(a.get(k), b.get(k))]
        differ = [k for k in moved if k not in negated]
        totals[0] += len(differ)
        totals[1] += len(negated)
        print(f"{group}: {len(differ)} of {len(keys)} entries differ, {len(negated)} negated")
        if group == "decompose":
            for family in sorted({k[1] for k in keys}):
                moves, messages = outcome_moves(a, b, [k for k in moved if k[1] == family])
                print(f"  {family}: outcome moves {dict(moves)}, {messages} refusals"
                      " changed only their message")
        for key in differ[:SHOWN]:
            print(f"  {key}")
        for key in negated[:SHOWN]:
            print(f"  negated {key}")
    print(f"total: {totals[0]} differing entries, {totals[1]} negated")
    return 1 if any(totals) else 0


if __name__ == "__main__":
    sys.exit(main())
