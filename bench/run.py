"""Benchmark for spinlift: four workloads, outputs checked against scipy.

Usage (from the repository root):

    python3 bench/run.py --workload lift-mix --seed 1 --seconds 10 --trace 0

Prints, as its last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
A copy of the result, with more detail, goes to ``bench/out/``; the traced
run also writes its spans there.

The package is always run from ``src/`` of the checkout that holds this
file; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import statistics
import subprocess
import sys
import threading
import time
from functools import partial
from pathlib import Path

import numpy as np

import calib
import checks
import inputs
import rounds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: p90 needs ten operations beyond it.
MIN_OPS = 100
#: Cold starts per run; setup_s is their median.
SETUP_STARTS = 9
#: Bare interpreter starts per traced run; cli.interpreter_ms is their median.
INTERPRETER_STARTS = 7
#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark could not run to its end."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _kill_after(proc, seconds):
    timer = threading.Timer(seconds, proc.kill)
    timer.daemon = True
    timer.start()
    return timer


def reference_start() -> float:
    """Wall time of a fresh ``python -c "import numpy"``: the reference that
    process starts are scaled by (see ``calib``)."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   timeout=CHILD_TIMEOUT_S, env=child_env(), cwd=ROOT)
    return time.perf_counter() - t0


#: Process starts: a reference start before and after each one.
STARTS = calib.Calibration(reference_start, 0.0, calib.START_REF_S, 1)


def paired(starts: list) -> list:
    """Scale wall times of process starts by reference starts around each.

    ``starts`` holds zero-argument callables returning wall seconds.
    """
    walls, refs = [], [reference_start()]
    for start in starts:
        walls.append(start())
        refs.append(reference_start())
    return [float(calib.scale(w, a, b, calib.START_REF_S))
            for w, a, b in zip(walls, refs, refs[1:])]


def cold_start(workload: str, first: dict, samples: list, vectors: dict) -> float:
    """One fresh interpreter made ready; returns its wall time to ready.

    Appends the child's phase times to ``samples``; the first start also
    fills ``vectors`` with every representation's vector images.
    """
    args = [sys.executable, str(BENCH / "coldstart.py"), workload, json.dumps(first)]
    if not vectors:
        args.append("--vectors")
    t0 = time.perf_counter()
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=ROOT)
    timer = _kill_after(proc, CHILD_TIMEOUT_S)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        err = proc.stderr.read()
        proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    if proc.returncode != 0 or not line:
        raise BenchError(f"cold start failed ({proc.returncode}): {err.decode()[-2000:]}")
    info = json.loads(line)
    if not Path(info["spinlift_file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"spinlift was imported from {info['spinlift_file']}, not {SRC}")
    info["raw_ready_s"] = ready
    samples.append(info)
    for row in rest.decode().splitlines():
        v = json.loads(row)
        im = np.array(v["im"])
        vectors[(v["metric"], v["rep"])] = (
            np.array(v["re"]) + 1j * im if im.any() else np.array(v["re"]))
    return ready


def cold_starts(workload: str, first: dict, count: int):
    """``count`` cold starts, each with its scaled ``ready_s``; vector images."""
    samples, vectors = [], {}
    scaled = paired([partial(cold_start, workload, first, samples, vectors)] * count)
    for info, ready in zip(samples, scaled):
        info["ready_s"] = ready
    return samples, vectors


def interpreter_start() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0


def run_worker(job: dict) -> dict:
    """Run the in-process workload in a worker process; return its result."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py")], input=pickle.dumps(job),
        capture_output=True, env=child_env(), cwd=ROOT,
        timeout=job["seconds"] + CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.decode()[-3000:]}")
    return pickle.loads(proc.stdout)


def cli_once(command: str, request: bytes, peaks: list):
    """One fresh ``python -m spinlift.cli``: ((exit code, stdout), None).

    Appends the child's peak resident set (kB) to ``peaks``.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "spinlift.cli", command], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=child_env(), cwd=ROOT)
    timer = _kill_after(proc, CHILD_TIMEOUT_S)
    try:
        proc.stdin.write(request)
        proc.stdin.close()
        out = proc.stdout.read()
        # wait4, not wait: it also returns the child's own resource usage.
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    peaks.append(usage.ru_maxrss)
    return (proc.returncode, out), None


def run_cli(items: list, seconds: float, min_ops: int) -> dict:
    """cli-oneshot: each operation is a fresh CLI process, one at a time."""
    peaks: list = []
    ops = [(item["command"], partial(cli_once, item["command"], item["request"].encode(), peaks))
           for item in items]
    measured = rounds.timed_rounds(ops, seconds, min_ops, STARTS)
    measured["peak_rss_kb"] = max(peaks)
    return measured


def check_output(workload: str, item: dict, result, vectors) -> list:
    """Reasons one operation's output is wrong (empty list: it is right)."""
    out, _branch = result
    if isinstance(out, tuple) and out and out[0] == "error":
        return [f"raised {out[1]}: {out[2]}"]
    if workload == "selftest":
        return checks.check_selftest(out, trials=10)
    g = inputs.metric(item["metric"])
    v = vectors[(item["metric"], item["rep"])]
    if workload == "lift-mix":
        return checks.check_lift(out, item, v, g)
    if workload == "exp-mix":
        return checks.check_exp(out, item, v, g)
    return checks.check_cli(out[0], out[1], item, v, g)


def judge(workload: str, items: list, measured: dict, vectors: dict) -> dict:
    """Check every output; count failed operations."""
    problems = []
    for (sig, kind), v in vectors.items():
        defect = checks.clifford_defect(v, inputs.metric(sig))
        if defect > 1e-12:
            problems.append(f"{sig}/{kind} vector images break the Clifford relation by {defect}")
    item_fails = [check_output(workload, item, r, vectors)
                  for item, r in zip(items, measured["reference"])]
    n_rounds = len(measured["round_s"])
    failed_per_item = [n_rounds if f else 0 for f in item_fails]
    for _round, i, result in measured["deviations"]:
        # A timed output that differs from the warm-up output is checked on
        # its own and replaces the warm-up verdict for that operation.
        failed_per_item[i] += (1 if check_output(workload, items[i], result, vectors) else 0) \
            - (1 if item_fails[i] else 0)
    by_category: dict = {}
    for item, fails, n in zip(items, item_fails, failed_per_item):
        if n:
            by_category[item["category"]] = by_category.get(item["category"], 0) + n
            if item["category"] not in inputs.FAULTS:
                problems.append(f"{item['category']}: {fails[:1] or 'timed output wrong'}")
    return {"failed": sum(failed_per_item), "failed_by_category": by_category,
            "problems": problems, "attempted": n_rounds * len(items)}


def p90(values) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[-(-9 * len(ordered) // 10) - 1]


def round_throughput(latencies, n_rounds: int) -> np.ndarray:
    """Per round: operations / their summed time."""
    per_round = np.asarray(latencies).reshape(n_rounds, -1)
    return per_round.shape[1] / per_round.sum(axis=1)


def blocks(latencies, n_rounds: int) -> list:
    """Split per-operation times into blocks of whole rounds, each holding at
    least MIN_OPS operations (one block when the run has fewer)."""
    per_round = np.asarray(latencies).reshape(n_rounds, -1)
    rounds_per_block = -(-MIN_OPS // per_round.shape[1])
    n_blocks = max(1, n_rounds // rounds_per_block)
    return [b.ravel() for b in np.array_split(per_round, n_blocks)]


def end_to_end(measured: dict, setup: list) -> dict:
    """The end-to-end metrics, with times at the calibration's reference speed.

    ops_per_s is the median over rounds of round throughput, and each latency
    percentile the median over blocks of at least 100 operations of the
    block's percentile, so a slow stretch moves a few rounds, not the run.
    """
    lat = rounds.scaled_latencies(measured)
    n_rounds = len(measured["round_s"])
    parts = blocks(lat, n_rounds)
    return {
        "ops_per_s": statistics.median(round_throughput(lat, n_rounds)),
        "latency_p50_ms": 1e3 * statistics.median(statistics.median(b) for b in parts),
        "latency_p90_ms": 1e3 * statistics.median(p90(b) for b in parts),
        "setup_s": statistics.median(s["ready_s"] for s in setup),
        "peak_rss_mb": measured["peak_rss_kb"] / 1024.0,
    }


def per_layer(names: list, measured: dict, setup: list, interpreter: list) -> dict:
    """Per-layer metrics from the traced run's span summaries.

    ``*_us`` metrics are mean inclusive microseconds per call, from this
    workload's timed rounds, or from the coverage pass where this workload
    never makes that call; they are scaled to the calibration's reference
    speed by the run's median kernel time.  Counts are per round of this
    workload.
    """
    main, cover = measured["summary"], measured["coverage_summary"]
    n_rounds = len(measured["round_s"])
    speed = calib.KERNEL_REF_S / float(np.median(measured["cal"]))

    def start_phase(key):
        return 1e3 * statistics.median(s[key] * s["ready_s"] / s["raw_ready_s"] for s in setup)

    probes = {
        "cli.interpreter_ms": 1e3 * statistics.median(interpreter),
        "cli.import_numpy_ms": start_phase("import_numpy_s"),
        "cli.import_spinlift_ms": start_phase("import_spinlift_s"),
        "clifford.representation_build_ms": start_phase("build_s"),
    }
    dispatchers = {"expmap": "expmap.exp_spin", "group_lift": "group_lift.lift"}
    out = {}
    for name in names:
        if name in probes:
            out[name] = probes[name]
        elif ".branch_count." in name:
            layer, _, tag = name.split(".")
            out[name] = main.get(f"{dispatchers[layer]}.{tag}", [0])[0] / n_rounds
        elif name.endswith("_calls"):
            prefix = name[: -len("_calls")] + "."
            out[name] = sum(row[0] for span, row in main.items()
                            if span.startswith(prefix)) / n_rounds
        else:
            span = name.replace("_us", "", 1)
            row = main.get(span) or cover.get(span)
            if row is None:
                raise BenchError(f"no span {span!r} for per-layer metric {name!r}")
            out[name] = speed * row[1] / row[0] / 1e3
    return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        min_ops: int = MIN_OPS, setup_starts: int = SETUP_STARTS) -> dict:
    """Measure one workload; returns the result line plus detail."""
    if not (SRC / "spinlift" / "__init__.py").is_file():
        raise FileNotFoundError(f"no spinlift package under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    items = inputs.WORKLOADS[workload](seed)
    first = next(i for i in items if i["metric"] == "pmmm")
    setup, vectors = cold_starts(workload, {
        "matrix": np.asarray(first.get("matrix", 0.0)).tolist(),
        "seed": first.get("seed"), "command": first.get("command")}, setup_starts)
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    job = {"workload": workload, "seed": seed, "seconds": seconds, "min_ops": min_ops,
           "trace": trace, "items": items, "trace_path": str(OUT / f"spans-{tag}.json")}
    if trace:
        job["coverage"] = {w: make(seed) for w, make in inputs.WORKLOADS.items()
                           if w != workload}
        measured = run_worker(job)
        metrics = per_layer(list(units), measured, setup,
                            paired([interpreter_start] * INTERPRETER_STARTS))
    else:
        measured = (run_cli(items, seconds, min_ops) if workload == "cli-oneshot"
                    else run_worker(job))
        metrics = end_to_end(measured, setup)
    verdict = judge(workload, items, measured, vectors)
    line = {
        "correct": not verdict["problems"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    n_rounds = len(measured["round_s"])
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds": n_rounds, "ops_per_round": len(items),
        "failed_by_category": verdict["failed_by_category"],
        "problems": verdict["problems"][:20],
        # Throughput with and without the calibration (the traced run's is
        # the tracing overhead's numerator), and how the machine's speed
        # moved within the run: kernel time quantiles, in ms.
        "ops_per_s_scaled": statistics.median(
            round_throughput(rounds.scaled_latencies(measured), n_rounds)),
        "ops_per_s_raw": statistics.median(round_throughput(measured["latencies"], n_rounds)),
        "kernel_ms_quantiles": (1e3 * np.quantile(measured["cal"], [0, .1, .5, .9, 1])).tolist(),
        "setup_s_raw": [s["raw_ready_s"] for s in setup],
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps({"line": line, "detail": detail}, indent=1))
    return {"line": line, "detail": detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, FileNotFoundError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, BenchError) else 2
    d = result["detail"]
    print(f"{d['workload']} seed {d['seed']}: {d['rounds']} rounds x {d['ops_per_round']} ops, "
          f"ops/s {d['ops_per_s_scaled']:.4g} (raw {d['ops_per_s_raw']:.4g}), kernel ms "
          f"{[round(q, 3) for q in d['kernel_ms_quantiles']]}, "
          f"failed {d['failed_by_category']}", file=sys.stderr)
    for problem in d["problems"]:
        print(f"  problem: {problem}", file=sys.stderr)
    print(json.dumps(result["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
