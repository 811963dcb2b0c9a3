"""The measuring loop shared by the in-process worker and the CLI workload.

One untimed warm-up round, then timed rounds (whole passes over the
operations) until ``seconds`` have passed and at least ``min_ops`` operations
were made, so every run attempts the same operations in the same shares.
A reference measurement is taken between operations (see ``calib``).

Every timed output is compared byte for byte with the warm-up output of the
same operation; the caller checks the warm-up outputs, and any timed output
that differs, against independent references.
"""

from __future__ import annotations

import gc
import time

import numpy as np

import calib


def fingerprint(result):
    out, branch = result
    if isinstance(out, np.ndarray):
        return out.tobytes(), branch
    return out, branch


def timed_rounds(ops, seconds: float, min_ops: int, calibration=calib.KERNEL,
                 tracer=None) -> dict:
    """Run ``ops``, a list of (span name, zero-argument callable returning
    (output, branch)), in rounds; return the raw measurements."""
    reference = [op() for _, op in ops]
    expected = [fingerprint(r) for r in reference]
    latencies, cal_index, round_s, deviations = [], [], [], []
    clock = time.perf_counter
    gc.collect()
    cal = [calibration.sample()]
    mark = tracer.mark() if tracer else 0
    start = last = clock()
    while True:
        r0 = clock()
        for i, (name, op) in enumerate(ops):
            if tracer:
                span = tracer.open(name)
            t0 = clock()
            result = op()
            t1 = clock()
            if tracer:
                tracer.close(span)
            latencies.append(t1 - t0)
            cal_index.append(len(cal) - 1)
            if fingerprint(result) != expected[i]:
                deviations.append((len(round_s), i, result))
            if clock() - last >= calibration.every_s:
                cal.append(calibration.sample())
                last = clock()
        r1 = clock()
        round_s.append(r1 - r0)
        if r1 - start >= seconds and len(latencies) >= min_ops:
            break
    cal.append(calibration.sample())
    return {
        "reference": reference,
        "deviations": deviations,
        "latencies": np.array(latencies),
        "cal_index": np.array(cal_index),
        "cal": np.array(cal),
        "round_s": np.array(round_s),
        "span_range": (mark, tracer.mark() if tracer else 0),
        "cal_ref_s": calibration.ref_s,
        "cal_smooth": calibration.smooth,
    }


def scaled_latencies(measured: dict) -> np.ndarray:
    """Each operation's wall time at the calibration's reference speed.

    With ``smooth`` > 1 the samples are first smoothed by a running median,
    so one sample caught by an interrupt does not rescale its neighbours.
    """
    cal, k, half = measured["cal"], measured["cal_index"], measured["cal_smooth"] // 2
    smooth = np.array([np.median(cal[max(0, i - half): i + half + 1]) for i in range(len(cal))])
    return calib.scale(measured["latencies"], smooth[k], smooth[k + 1], measured["cal_ref_s"])
