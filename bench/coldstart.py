"""One cold start: a fresh interpreter made ready for a workload.

Usage: python coldstart.py <workload> <first request as JSON> [--vectors]

Imports numpy and spinlift, builds both representations through
``clifford.representation`` and makes the workload's first call, then prints
one JSON line of phase times.  The parent times the whole start up to that
line.  With ``--vectors`` it then prints the vector images gamma_a of every
representation, which the checker verifies and builds its references from.
"""

import json
import sys
import time

t0 = time.perf_counter()
import numpy as np  # noqa: E402

t1 = time.perf_counter()
import spinlift  # noqa: E402
from spinlift import cli, clifford, metric  # noqa: E402

t2 = time.perf_counter()
g = metric.make_metric("pmmm")
reps = [clifford.representation(kind, g) for kind in ("gamma", "regular")]
t3 = time.perf_counter()

workload, first = sys.argv[1], json.loads(sys.argv[2])
if workload == "lift-mix":
    spinlift.lift(spinlift.LorentzTransformation(np.array(first["matrix"]), g), reps[0])
elif workload == "exp-mix":
    spinlift.exp_spin(spinlift.Bivector(np.array(first["matrix"]), g), reps[0])
elif workload == "selftest":
    cli.run_selftest("pmmm", first["seed"], trials=1)
else:
    cli.render_document(cli.run_request({
        "command": first["command"], "metric": "pmmm", "rep": "gamma", "tol": 1e-9,
        "seed": 0, "matrix": np.array(first["matrix"])}))
t4 = time.perf_counter()

print(json.dumps({
    "import_numpy_s": t1 - t0, "import_spinlift_s": t2 - t1, "build_s": t3 - t2,
    "first_call_s": t4 - t3, "spinlift_file": spinlift.__file__}), flush=True)

if "--vectors" in sys.argv:
    for sig in metric.SIGNATURES:
        for kind in ("gamma", "regular"):
            v = clifford.representation(kind, metric.make_metric(sig)).vectors
            print(json.dumps({
                "metric": sig, "rep": kind, "re": v.real.tolist(), "im": v.imag.tolist()}))
