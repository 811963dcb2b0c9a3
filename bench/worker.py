"""The process that calls spinlift: one caller, one operation in flight.

Started by ``run.py`` with ``src/`` on ``PYTHONPATH``.  It reads a pickled job
from stdin, runs the job's operations in rounds (``rounds.timed_rounds``)
and writes a pickled result to stdout.  The peak resident set it reports is
this process's own, so it holds only numpy, spinlift and the inputs: scipy
and the checker stay in the parent.
"""

from __future__ import annotations

import io
import pickle
import resource
import sys
from functools import partial

import numpy as np

from spinlift import clifford, cli, expmap, group_lift, metric
from spinlift import bivector as bivector_module
from spinlift.errors import SpinLiftError

from rounds import timed_rounds


def _lift(m, g, rep):
    return group_lift.lift(group_lift.LorentzTransformation(m, g), rep, return_branch=True)


def _exp(m, g, rep):
    return expmap.exp_spin(bivector_module.Bivector(m, g), rep, return_branch=True)


def _selftest(sig, seed):
    return cli.run_selftest(sig, seed), None


def _cli_main(command, text):
    stdin, stdout = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(text), io.StringIO()
    try:
        code = cli.main([command])
        return (code, sys.stdout.getvalue().encode()), None
    finally:
        sys.stdin, sys.stdout = stdin, stdout


def build_ops(workload: str, items: list) -> list:
    """(span name, zero-argument callable), one per operation of a round."""
    reps = {}
    for sig in metric.SIGNATURES:
        g = metric.make_metric(sig)
        for kind in ("gamma", "regular"):
            reps[(sig, kind)] = (g, clifford.representation(kind, g))
    ops = []
    for item in items:
        if workload == "selftest":
            ops.append(("op", partial(_selftest, item["metric"], item["seed"])))
        elif workload == "cli-oneshot":
            name = f"cli.main_inprocess.{item['command']}"
            ops.append((name, partial(_cli_main, item["command"], item["request"])))
        else:
            g, rep = reps[(item["metric"], item["rep"])]
            fn = _lift if workload == "lift-mix" else _exp
            ops.append(("op", partial(fn, np.array(item["matrix"]), g, rep)))
    return ops


def call(op):
    """(output, branch), with a typed spinlift error as the output."""
    try:
        return op()
    except SpinLiftError as exc:
        return ("error", type(exc).__name__, str(exc)), None


def main() -> int:
    job = pickle.load(sys.stdin.buffer)
    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    ops = [(name, partial(call, op)) for name, op in build_ops(job["workload"], job["items"])]
    result = timed_rounds(ops, job["seconds"], job["min_ops"], tracer=tracer)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        # One traced pass over every other workload's round, so each layer
        # has a per-call time even where this workload never calls it.
        coverage_start = tracer.mark()
        for workload, items in job["coverage"].items():
            for name, op in build_ops(workload, items):
                span = tracer.open(name)
                call(op)
                tracer.close(span)
        lo, hi = result["span_range"]
        result["summary"] = tracer.summary(lo, hi)
        result["coverage_summary"] = tracer.summary(coverage_start)
        tracer.write(job["trace_path"], {"workload": job["workload"], "seed": job["seed"]})
    sys.stdout.buffer.write(pickle.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
