"""Smoke tests of the benchmark itself (about half a minute).

    python3 -m pytest -q bench/test_bench.py

They run each workload for one timed round, so they say nothing about speed;
they show that the checker rejects wrong outputs and that only the named
fault slices fail.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs
import run

sys.path.insert(0, str(run.SRC))
from spinlift import LorentzTransformation, lift, make_metric, representation  # noqa: E402

SMOKE = {"seconds": 0.0, "trace": False, "min_ops": 1, "setup_starts": 1}


def _lift_case(rep_kind="gamma"):
    item = next(i for i in inputs.lift_mix(3)
                if i["category"] == "nonsimple" and i["rep"] == rep_kind)
    g = make_metric(item["metric"])
    rep = representation(rep_kind, g)
    out = lift(LorentzTransformation(item["matrix"], g), rep)
    return item, out, rep.vectors, inputs.metric(item["metric"]), g, rep


@pytest.mark.parametrize("rep_kind", ["gamma", "regular"])
def test_healthy_lift_passes(rep_kind):
    item, out, vectors, g, _, _ = _lift_case(rep_kind)
    assert checks.clifford_defect(vectors, g) == 0.0
    assert checks.check_lift(out, item, vectors, g) == []
    assert checks.check_lift(-out, item, vectors, g) == []


@pytest.mark.parametrize("rep_kind", ["gamma", "regular"])
def test_perturbed_lift_fails(rep_kind):
    item, out, vectors, g, _, _ = _lift_case(rep_kind)
    bump = np.random.default_rng(0).choice([-1.0, 1.0], size=out.shape)
    assert checks.check_lift(out * (1.0 + 1e-8), item, vectors, g)
    assert checks.check_lift(out + 1e-8 * checks.maxabs(out) * bump, item, vectors, g)


def test_lift_of_inverse_fails():
    item, _, vectors, g, metric, rep = _lift_case()
    inverse = LorentzTransformation(np.linalg.inv(item["matrix"]), metric)
    assert checks.check_lift(lift(inverse, rep), item, vectors, g)


def test_wrong_cli_branch_fails():
    item = inputs.cli_requests(3)[0]
    g = make_metric("pmmm")
    rep = representation(item["rep"], g)
    sigma = lift(LorentzTransformation(item["matrix"], g), rep)
    pairs = np.stack([sigma.real, sigma.imag], axis=-1).tolist()
    good = {"branch": item["branch"], "result": {"sigma": pairs}}
    vectors, gm = rep.vectors, inputs.metric("pmmm")
    assert checks.check_cli(0, json.dumps(good).encode(), item, vectors, gm) == []
    bad = dict(good, branch="simple")
    assert checks.check_cli(0, json.dumps(bad).encode(), item, vectors, gm)
    assert checks.check_cli(1, json.dumps(good).encode(), item, vectors, gm)
    assert checks.check_cli(0, b"not json", item, vectors, gm)


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
@pytest.mark.parametrize("seed", [11, 12])
def test_only_fault_slices_fail(workload, seed):
    result = run.run(workload, seed, **SMOKE)
    line, detail = result["line"], result["detail"]
    items = inputs.WORKLOADS[workload](seed)
    faults = sum(1 for i in items if i["category"] in inputs.FAULTS)
    assert line["correct"], detail["problems"]
    assert line["attempted"] == detail["rounds"] * len(items)
    assert line["failed"] == detail["rounds"] * faults
    assert set(detail["failed_by_category"]) <= set(inputs.FAULTS)


def test_fault_inputs_do_not_depend_on_seed():
    def faults(seed):
        return [i["matrix"] for i in sorted(
            (i for i in inputs.lift_mix(seed) if i["category"] in inputs.FAULTS),
            key=lambda i: (i["category"], i["metric"], i["rep"], float(i["matrix"][0, 0])))]
    assert all(np.array_equal(a, b) for a, b in zip(faults(1), faults(2)))


def test_traced_counts_repeat():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    runs = [run.run("lift-mix", 5, **dict(SMOKE, trace=True))["line"] for _ in range(2)]
    for line in runs:
        assert sorted(line["metrics"]) == sorted(names)
    assert [runs[0]["metrics"][c] for c in counts] == [runs[1]["metrics"][c] for c in counts]
    assert runs[0]["metrics"]["group_lift.branch_count.nonsimple"]["value"] > 0
    assert Path(run.OUT / "spans-lift-mix-seed5-trace1.json").is_file()
