"""tools/benchverdict.py on a synthetic BENCH file whose verdicts are known, on
two synthetic files whose trajectory is known, and on BENCH_30.json, whose
intervals ROADMAP.md quotes."""

import importlib.util
import json
import math
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("benchverdict",
                                              ROOT / "tools" / "benchverdict.py")
benchverdict = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(benchverdict)

BENCHMARK = {"end_to_end": [
    {"name": "ops_per_s", "better": "higher", "bound": 0.2},
    {"name": "latency_p50_ms", "better": "lower", "bound": 0.24},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
]}
PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.5, 99.5, 101.5]


def synthetic():
    """Two workloads whose change runs sit at known ratios to the parent's:
    ops_per_s 1.1 (within, better), latency_p50_ms 1.5 (past), setup_s straddling
    1.25 (unresolved), and peak_rss_mb 0.7 or 0.75, gains of a lower-is-better
    metric (within, better)."""
    straddle = [1.0, 1.6, 1.1, 1.5, 1.2, 1.3, 1.05, 1.45, 1.15, 1.35]
    ratios = {"ops_per_s": [1.1] * 10, "latency_p50_ms": [1.5] * 10, "setup_s": straddle}
    workloads = {}
    for name, rss in (("a", 0.7), ("b", 0.75)):
        runs = dict(ratios, peak_rss_mb=[rss] * 10)
        workloads[name] = {
            "parent": {"runs": {key: PARENT for key in runs}},
            "change": {"runs": {key: [p * r for p, r in zip(PARENT, rs)]
                                for key, rs in runs.items()}},
        }
    return {"workloads": workloads}


def test_known_verdicts():
    table = {(row["workload"], row["metric"]): row
             for row in benchverdict.rows(synthetic(), BENCHMARK)}
    gain = table["a", "ops_per_s"]
    assert gain["verdict"] == "within" and gain["vs_zero"] == "better"
    assert math.isclose(gain["median"], 0.1) and math.isclose(gain["lo"], 0.1)
    assert table["a", "latency_p50_ms"]["verdict"] == "past"
    assert table["a", "latency_p50_ms"]["vs_zero"] == "worse"
    straddle = table["a", "setup_s"]
    assert straddle["verdict"] == "unresolved" and straddle["pairs_needed"] > 10
    assert straddle["lo"] < 0.25 < straddle["hi"]
    # the lower-is-better bound reads against the ratio, so 0.7 is a gain, not past
    assert table["a", "peak_rss_mb"]["verdict"] == "within"
    assert table["b", "peak_rss_mb"]["vs_zero"] == "better"
    assert not table["a", "latency_p50_ms"]["median_rule_within"]


def test_higher_is_better_past_and_settling_pairs():
    # a throughput at 0.7 of the parent's is past a 20% bound; one whose interval
    # holds the limit asks for more pairs the closer its median sits to it
    assert benchverdict.verdict(math.log(0.7), math.log(0.69), math.log(0.71), 10, 0.2,
                                "higher") == ("past", None)
    near = benchverdict.verdict(math.log(0.81), math.log(0.7), math.log(0.9), 10, 0.2, "higher")
    far = benchverdict.verdict(math.log(0.85), math.log(0.7), math.log(0.95), 10, 0.2, "higher")
    assert near[0] == far[0] == "unresolved" and near[1] > far[1] > 10


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError, match="do not pair"):
        benchverdict.paired_log_ratios([1.0, 2.0], [1.0])


def test_main_prints_each_row_and_exits_one_when_past(tmp_path, capsys):
    bench, benchmark = tmp_path / "BENCH_0.json", tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps(synthetic()))
    benchmark.write_text(json.dumps(BENCHMARK))
    assert benchverdict.main([str(bench), "--benchmark", str(benchmark)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + 2 * len(BENCHMARK["end_to_end"])
    assert "unresolved (~" in next(line for line in lines if " setup_s " in line)


def test_bench_30_intervals():
    # ROADMAP.md's table for BENCH_30: median and 95% interval, in percent
    rows = benchverdict.rows(json.loads((ROOT / "BENCH_30.json").read_text()),
                             json.loads((ROOT / "BENCHMARK.json").read_text()))
    table = {(row["workload"], row["metric"]): row for row in rows}
    for key, quoted in {("lift-mix", "setup_s"): (6.1, -2.5, 22.6),
                        ("lift-mix", "peak_rss_mb"): (1.0, 0.1, 3.6),
                        ("exp-mix", "peak_rss_mb"): (-0.8, -4.8, 0.7),
                        ("selftest", "setup_s"): (-0.8, -9.1, 13.0),
                        ("selftest", "ops_per_s"): (1.1, -0.1, 2.5)}.items():
        row = table[key]
        assert [round(100 * row[k], 1) for k in ("median", "lo", "hi")] == list(quoted)
        assert row["verdict"] == "within"


def scaled(ratio):
    """One workload whose change runs are the parent's times ratio, every metric."""
    keys = [metric["name"] for metric in BENCHMARK["end_to_end"]]
    return {"workloads": {"a": {
        "parent": {"runs": {key: PARENT for key in keys}},
        "change": {"runs": {key: [p * ratio for p in PARENT] for key in keys}}}}}


def test_trajectory_multiplies_the_paired_medians(tmp_path, capsys):
    # two files at ops_per_s ratios 1.1 and 1.2: the running product reads 1.32
    tables = [(name, benchverdict.rows(scaled(ratio), BENCHMARK))
              for name, ratio in (("BENCH_1.json", 1.1), ("BENCH_2.json", 1.2))]
    steps = benchverdict.trajectory(tables)["a"]
    assert [step["path"] for step in steps] == ["BENCH_1.json", "BENCH_2.json"]
    assert [round(step["median"], 12) for step in steps] == [0.1, 0.2]
    assert [round(step["product"], 12) for step in steps] == [1.1, 1.32]
    assert all(math.isclose(step["lo"], step["hi"]) for step in steps)
    paths = []
    for name, ratio in (("BENCH_1.json", 1.1), ("BENCH_2.json", 1.2)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(scaled(ratio)))
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps(BENCHMARK))
    # latency at 1.1 and 1.2 stays inside its 24% bound; peak_rss_mb at 1.2 is past 10%
    assert benchverdict.main([*map(str, paths), "--benchmark", str(benchmark)]) == 1
    out = capsys.readouterr().out
    assert out.count("Trajectory of ops_per_s") == 1
    assert out.rstrip().splitlines()[-1].endswith("x1.320")
    assert benchverdict.main([str(paths[1]), "--benchmark", str(benchmark)]) == 1
    assert "Trajectory" not in capsys.readouterr().out  # one file, no trajectory
